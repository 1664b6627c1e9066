import argparse
import json
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from nnprune import (
    ConfigurationError,
    DivergenceError,
    Network,
    NetworkConfig,
    PenaltyParams,
    PruneParams,
    TrainParams,
    accuracy,
    deserialize,
    export_dot,
    init_network,
    objective,
    reference_config,
    run_experiment,
    serialize,
    train,
)
from nnprune import harness, pruning, training
from nnprune.cli import _build_parser, main
from nnprune.harness import CONFIG_DEFAULTS, load_config, parse_config_text
from nnprune.pruning import KIND_HIDDEN_NODE, KIND_INPUT_NODE, PruneTrace, derived_seed

# The paper's settings per benchmark: architecture, epoch budget, growth cap.
PAPER_SETTINGS = {
    "cancer1": ((9, 3, 2), 500, None),
    "diabetes": ((8, 3, 2), 1200, None),
    "glass": ((9, 4, 6), 650, 4),
}


# For every config key: a valid value other than its default, as written
# in a config and as the field of the same name holds it.
NON_DEFAULT_VALUES = {
    "n_hidden": ("4", 4),
    "init_range": ("0.5", 0.5),
    "init_seed": ("7", 7),
    "learning_rate": ("0.2", 0.2),
    "epochs": ("20", 20),
    "eps1": ("0.2", 0.2),
    "eps2": ("1e-4", 1e-4),
    "beta": ("5", 5.0),
    "eta2": ("0.2", 0.2),
    "accuracy_drop_tolerance": ("0.05", 0.05),
    "retrain_max_epochs": ("7", 7),
    "max_hidden": ("6", 6),
    "max_restarts": ("2", 2),
    "split_seeds": ("3, 9", (3, 9)),
    "output_dir": ("elsewhere", Path("elsewhere")),
}


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        text = "dataset = cancer1\ndata_path = cancer.data\n"
        config = parse_config_text(text, base_dir=tmp_path)
        assert config.dataset == "cancer1"
        assert config.data_path == tmp_path / "cancer.data"
        assert config.network.n_inputs == 9
        assert config.network.n_outputs == 2
        assert config.train.epochs == 500
        assert config.split_seeds == (1, 2, 3, 4, 5)

    def test_overrides_and_comments(self, tmp_path):
        text = (
            "# my experiment\n"
            "dataset = glass\n"
            "data_path = /abs/glass.data\n"
            "epochs = 650   # paper budget\n"
            "n_hidden = 4\n"
            "max_hidden = 4\n"
            "split_seeds = 7, 8\n"
            "eps2 = 1e-4\n"
        )
        config = parse_config_text(text, base_dir=tmp_path)
        assert config.data_path == Path("/abs/glass.data")
        assert config.train.epochs == 650
        assert config.network.n_hidden == 4
        assert config.prune.max_hidden == 4
        assert config.split_seeds == (7, 8)
        assert config.penalty.eps2 == pytest.approx(1e-4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            parse_config_text("dataset = cancer1\ndata_path = x\nbogus = 1\n")
        with pytest.raises(ConfigurationError, match=r"unknown config keys: \['eta1'\]"):
            parse_config_text("dataset = cancer1\ndata_path = x\neta1 = 0.35\n")

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("dataset = cancer1\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config_text("this is not a key value pair\n")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("dataset = iris\ndata_path = x\n")

    def test_experiment_config_with_unknown_dataset_rejected(
        self, cancer_file, tmp_path, shipped_config
    ):
        config = shipped_config("cancer1", cancer_file, tmp_path / "out")
        with pytest.raises(ConfigurationError, match="unknown dataset 'iris'"):
            replace(config, dataset="iris")

    def test_experiment_config_without_split_seeds_rejected(
        self, cancer_file, tmp_path, shipped_config
    ):
        config = shipped_config("cancer1", cancer_file, tmp_path / "out")
        with pytest.raises(ConfigurationError, match="at least one split seed is required"):
            replace(config, split_seeds=())

    @pytest.mark.parametrize("network", [NetworkConfig(8, 3, 2), NetworkConfig(9, 3, 6)])
    def test_network_that_does_not_fit_the_dataset_rejected(
        self, network, cancer_file, tmp_path, shipped_config
    ):
        config = shipped_config("cancer1", cancer_file, tmp_path / "out")
        with pytest.raises(ConfigurationError, match="does not fit cancer1: it needs 9 inputs"):
            run_experiment(replace(config, network=network))
        assert not (tmp_path / "out").exists()

    def test_load_config_resolves_relative_paths(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("dataset = diabetes\ndata_path = d.data\noutput_dir = out\n")
        config = load_config(conf)
        assert config.data_path == tmp_path / "d.data"
        assert config.output_dir == tmp_path / "out"

    @pytest.mark.parametrize(
        "line",
        [
            "n_hidden = three",
            "eps1 = abc",
            "max_hidden = x",
            "split_seeds = 1,a",
            "split_seeds = 1,,2",
            "split_seeds = 1,2,",
            "epochs = 2.5",
            "n_hidden = True",
            "output_dir = ",
            "data_path = ",
            "max_hidden = ",
        ],
    )
    def test_unparsable_value_names_key(self, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigurationError, match=f"config key '{key}'"):
            parse_config_text(f"dataset = cancer1\ndata_path = x\n{line}\n")

    @pytest.mark.parametrize("value", ["none", "None", "NONE"])
    def test_max_hidden_none_is_the_default(self, value):
        config = parse_config_text(f"dataset = cancer1\ndata_path = x\nmax_hidden = {value}\n")
        assert config.prune.max_hidden is None

    @pytest.mark.parametrize(
        "line,message",
        [
            ("split_seeds = 1,-1", "split_seeds must be >= 0"),
            ("init_seed = -1", "init_seed must be >= 0"),
            ("init_range = 1e308", "init_range must be in"),
            ("split_seeds = 1,2,1", "split seed 1 is listed more than once"),
            ("eps2 = inf", "eps2 must be in"),
        ],
    )
    def test_out_of_range_value_rejected(self, line, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_config_text(f"dataset = cancer1\ndata_path = x\n{line}\n")

    @pytest.mark.parametrize("name", ["cancer1", "diabetes", "glass"])
    def test_shipped_configs_parse_and_match_canonical(self, name):
        config = load_config(Path(__file__).parent.parent / "configs" / f"{name}.conf")
        arch, epochs, max_hidden = PAPER_SETTINGS[name]
        assert config.dataset == name
        assert config.network == NetworkConfig(*arch, init_range=1.0, init_seed=1)
        assert config.train == TrainParams(learning_rate=0.1, epochs=epochs)
        assert config.penalty == PenaltyParams()
        assert config.prune == PruneParams(max_hidden=max_hidden)
        assert config.split_seeds == (1, 2, 3, 4, 5)

    def test_every_class_default_is_the_config_default(self):
        for params in (NetworkConfig, TrainParams, PenaltyParams, PruneParams):
            for f in fields(params):
                if f.default is not MISSING:
                    assert CONFIG_DEFAULTS[f.name] == f.default, f.name

    @pytest.mark.parametrize("key", sorted(CONFIG_DEFAULTS))
    def test_every_key_reaches_the_field_of_its_name(self, key):
        text, value = NON_DEFAULT_VALUES[key]
        assert value != CONFIG_DEFAULTS[key]
        config = parse_config_text(f"dataset = cancer1\ndata_path = x\n{key} = {text}\n")
        holders = [config, config.network, config.train, config.penalty, config.prune]
        (held,) = [getattr(h, key) for h in holders if key in {f.name for f in fields(h)}]
        assert held == value


class TestExportDot:
    def test_fully_connected_structure(self):
        net = init_network(NetworkConfig(2, 1, 1, init_seed=1))
        dot = export_dot(net)
        assert dot.startswith("digraph")
        for node in ("I1", "I2", "H1", "O1"):
            assert node in dot
        assert dot.count("[style=solid]") == 3
        assert "[style=dashed]" not in dot

    def test_masked_edge_dashed(self):
        net = init_network(NetworkConfig(2, 1, 1, init_seed=1))
        net.w_mask[0, 1] = False
        net.apply_masks()
        dot = export_dot(net)
        assert "I2 -> H1 [style=dashed];" in dot
        assert "I1 -> H1 [style=solid];" in dot

    def test_inactive_nodes_omitted(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=2))
        net.w_mask[:, 1] = False
        net.input_active[1] = False
        net.v_mask[:, 1] = False
        net.w_mask[1, :] = False
        net.hidden_active[1] = False
        net.apply_masks()
        dot = export_dot(net)
        assert "I2" not in dot
        assert "H2" not in dot
        assert "I1" in dot and "I3" in dot and "H1" in dot

    def test_simplified_cancer_shape(self):
        # three active inputs, one active hidden unit, two outputs
        net = init_network(NetworkConfig(9, 3, 2, init_seed=3))
        keep_inputs = (0, 5, 8)
        for l in range(9):
            if l not in keep_inputs:
                net.w_mask[:, l] = False
                net.input_active[l] = False
        for m in (1, 2):
            net.v_mask[:, m] = False
            net.w_mask[m, :] = False
            net.hidden_active[m] = False
        net.apply_masks()
        dot = export_dot(net)
        rendered_inputs = [f"I{l+1}" for l in range(9) if f"I{l+1} ->" in dot]
        assert rendered_inputs == ["I1", "I6", "I9"]
        assert "H2" not in dot and "H3" not in dot
        assert "O1" in dot and "O2" in dot


class TestRunExperiment:
    """Reads the session's run of ``configs/cancer1.conf`` (split seeds 1-5)."""

    SEEDS = [1, 2, 3, 4, 5]

    def test_report_files_written(self, shipped_runs):
        out = shipped_runs["cancer1"].out
        assert (out / "report.json").is_file()
        assert (out / "report.txt").is_file()
        for seed in self.SEEDS:
            assert (out / "networks" / f"full_seed{seed}.json").is_file()
            assert (out / "networks" / f"pruned_seed{seed}.json").is_file()
            assert (out / "traces" / f"seed{seed}.jsonl").is_file()

    def test_report_json_structure(self, shipped_runs):
        doc = json.loads((shipped_runs["cancer1"].out / "report.json").read_text())
        assert doc["config"]["dataset"] == "cancer1"
        assert [row["split_seed"] for row in doc["per_seed"]] == self.SEEDS
        assert "full_test_accuracy" in doc["aggregate"]
        assert 0.0 <= doc["aggregate"]["pruned_test_accuracy"]["mean"] <= 1.0

    def test_report_json_refuses_a_numpy_scalar(self, shipped_runs):
        report = shipped_runs["cancer1"].report
        row = replace(report.rows[1], converged=np.bool_(True))
        with pytest.raises(TypeError, match="bool"):
            replace(report, rows={1: row}).to_json()

    def test_architecture_strings_match_networks(self, shipped_runs):
        run = shipped_runs["cancer1"]
        assert list(run.report.rows) == self.SEEDS
        for seed, row in run.report.rows.items():
            net = deserialize((run.out / "networks" / f"pruned_seed{seed}.json").read_text())
            assert row.simplified_architecture == net.architecture()

    def test_traces_parse(self, shipped_runs):
        out = shipped_runs["cancer1"].out
        trace = PruneTrace.from_jsonl((out / "traces" / "seed1.jsonl").read_text())
        assert trace.events


CANCER1_CONF = Path(__file__).resolve().parent.parent / "configs" / "cancer1.conf"


def cancer_config(path: Path, data_file: Path, **values) -> Path:
    """Write ``configs/cancer1.conf`` to ``path`` with ``data_path`` and each
    of ``values`` set.  A key's line is replaced, or added when the file
    has none, so no key is set twice."""
    text = CANCER1_CONF.read_text(encoding="utf-8")
    for key, value in {"data_path": data_file, **values}.items():
        text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        if not found:
            text += f"{key} = {value}\n"
    path.write_text(text, encoding="utf-8")
    return path


def cut_down_config(cancer_file, tmp_path):
    """A short cancer1 experiment in which some split seed restarts."""
    return load_config(cancer_config(
        tmp_path / "cancer1.conf", cancer_file, output_dir=tmp_path / "out",
        split_seeds="2, 3", epochs=50, accuracy_drop_tolerance=0.0, retrain_max_epochs=5,
        max_restarts=2,
    ))


def test_no_network_is_trained_twice(cancer_file, tmp_path, monkeypatch):
    trained = []  # every network handed to train, serialized
    stacks = []  # how many networks each stacked call trained
    for module in (harness, pruning):
        def recording(net, *args, _train=module.train, **kwargs):
            if isinstance(net, Network):
                trained.append(serialize(net))
            else:  # a stacked call: record every network of it
                trained.extend(serialize(one) for one in net)
                stacks.append(len(net))
            return _train(net, *args, **kwargs)

        monkeypatch.setattr(module, "train", recording)
    config = cut_down_config(cancer_file, tmp_path)
    rows = run_experiment(config).rows.values()
    attempts = sum(
        row.restarts_used if row.converged else config.prune.max_restarts for row in rows
    )
    assert attempts > len(rows)  # some split seed restarted
    assert len(set(trained)) == len(trained)
    bases = [
        replace(config.network, init_seed=derived_seed(config.network.init_seed, seed))
        for seed in config.split_seeds
    ]
    references = {
        serialize(init_network(reference_config(base, restart)))
        for base in bases
        for restart in range(config.prune.max_restarts)
    }
    assert sum(net in references for net in trained) == attempts
    assert max(stacks) == len(rows)  # the split seeds' first growth networks train as one


def test_no_network_is_scored_twice_on_a_split(cancer_file, tmp_path, monkeypatch):
    scored = []  # (serialized network, split id) of every accuracy call
    splits = []  # keeps each scored split alive, so that no id is reused
    for module in (pruning, training):
        def recording(net, split, _accuracy=module.accuracy):
            scored.append((serialize(net), id(split)))
            splits.append(split)
            return _accuracy(net, split)

        monkeypatch.setattr(module, "accuracy", recording)
    run_experiment(cut_down_config(cancer_file, tmp_path))
    assert scored
    repeated = len(scored) - len(set(scored))
    assert repeated == 0, f"{repeated} of {len(scored)} scorings repeat an earlier one"


# (command, flag, out-of-range value, what stderr says about it)
FLAG_CASES = [
    ("train", "--split-seed", "-1", "split_seed must be >= 0"),
    ("gradcheck", "--step", "nan", "step must be in"),
    ("gradcheck", "--seed", "-1", "error: seed must be >= 0"),
    ("gradcheck", "--examples", "-1", "examples must be >= 1"),
    ("synth-data", "--seed", "-1", "error: seed must be >= 0"),
    ("run", "--jobs", "0", "argument --jobs: invalid choice"),
    ("run", "--jobs", "-3", "argument --jobs: invalid choice"),
    ("run", "--jobs", "2", "argument --jobs: invalid choice"),
]
# Old out-of-range command lines for knob flags of REMOVED_FLAGS: still a
# usage error, as the flag is unknown.  The range itself is checked through
# the config (CONFIG_CASES).
FLAG_CASES += [
    (command, flag, value, f"unrecognized arguments: {flag} {value}")
    for command, flag, value in [
        ("train", "--eps1", "nan"),
        ("train", "--eps2", "inf"),
        ("train", "--beta", "inf"),
        ("train", "--lr", "inf"),
        ("train", "--lr", "0"),
        ("train", "--init-range", "inf"),
        ("train", "--seed", "-1"),
        ("prune", "--eta2", "nan"),
        ("prune", "--eta2", "inf"),
        ("prune", "--tolerance", "nan"),
        ("prune", "--lr", "nan"),
        ("prune", "--lr", "-1"),
    ]
]

# (command, flag, type of its value) of every flag the CLI no longer has: the
# data and knob flags `train`, `prune` and `eval` took before they read the
# config, and `prune --eta1`, which no parameter read.  An old command line
# with one of them is a usage error that names it, and writes nothing.
REMOVED_FLAGS = [
    *[(command, flag, str) for command in ("train", "prune", "eval")
      for flag in ("--dataset", "--data")],
    *[("train", flag, float) for flag in ("--eps1", "--eps2", "--beta", "--lr", "--init-range")],
    *[("train", flag, int) for flag in ("--hidden", "--epochs", "--seed")],
    *[("prune", flag, float) for flag in ("--eps1", "--eps2", "--beta", "--eta1", "--eta2", "--lr")],
    ("prune", "--tolerance", float),
    ("prune", "--retrain-epochs", int),
]

# (config key, an out-of-range value); the error names the key
CONFIG_CASES = [
    ("eps1", "nan"),
    ("eps2", "-1"),
    ("beta", "inf"),
    ("learning_rate", "0"),
    ("init_range", "inf"),
    ("init_seed", "-1"),
    ("n_hidden", "0"),
    ("epochs", "-1"),
    ("eta2", "0.5"),
    ("accuracy_drop_tolerance", "nan"),
    ("retrain_max_epochs", "-1"),
]


class TestCli:
    def test_synth_data(self, tmp_path, capsys):
        assert main(["synth-data", "--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "d" / "breast-cancer-wisconsin.data").is_file()

    def test_export_dot_writes_out(self, tmp_path, capsys):
        net = init_network(NetworkConfig(2, 1, 1, init_seed=1))
        net_path, dot_path = tmp_path / "net.json", tmp_path / "net.dot"
        net_path.write_text(serialize(net), encoding="utf-8")
        assert main(["export-dot", "--net", str(net_path), "--out", str(dot_path)]) == 0
        assert capsys.readouterr().out == ""
        assert dot_path.read_text(encoding="utf-8") == export_dot(net)

    def test_train_eval_dot_prune_cycle(self, cancer_file, tmp_path, capsys):
        conf = str(cancer_config(tmp_path / "exp.conf", cancer_file, epochs=200))
        net_path = tmp_path / "net.json"
        trace_csv = tmp_path / "trace.csv"
        rc = main(
            ["train", "--config", conf, "--out", str(net_path), "--trace", str(trace_csv)]
        )
        assert rc == 0
        assert net_path.is_file()
        lines = trace_csv.read_text().splitlines()
        assert lines[0] == "epoch,objective,train_accuracy"
        assert len(lines) == 201

        rc = main(["eval", "--config", conf, "--net", str(net_path)])
        assert rc == 0
        assert "test accuracy" in capsys.readouterr().out

        rc = main(["export-dot", "--net", str(net_path)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("digraph")

        pruned_path = tmp_path / "pruned.json"
        rc = main(
            [
                "prune", "--config", conf, "--net", str(net_path), "--out", str(pruned_path),
                "--trace-out", str(tmp_path / "t.jsonl"),
            ]
        )
        assert rc == 0
        pruned = deserialize(pruned_path.read_text())
        assert pruned.n_unmasked() <= deserialize(net_path.read_text()).n_unmasked()
        # every node the pruned network lost is logged, as in grow_and_prune
        trace = PruneTrace.from_jsonl((tmp_path / "t.jsonl").read_text())
        logged = {(e.kind, e.indices) for e in trace.events}
        inactive = [(KIND_INPUT_NODE, (int(l),)) for l in np.flatnonzero(~pruned.input_active)]
        inactive += [(KIND_HIDDEN_NODE, (int(m),)) for m in np.flatnonzero(~pruned.hidden_active)]
        assert inactive
        assert set(inactive) <= logged

    def test_train_trace_rows_match_saved_network(self, cancer_file, cancer_bundle, tmp_path):
        conf = cancer_config(tmp_path / "exp.conf", cancer_file, epochs=20)
        argv = ["train", "--config", str(conf)]
        assert main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
        traced = ["--out", str(tmp_path / "net.json"), "--trace", str(tmp_path / "t.csv")]
        assert main(argv + traced) == 0
        assert (tmp_path / "net.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        header, *rows = (tmp_path / "t.csv").read_text().splitlines()
        assert header == "epoch,objective,train_accuracy"
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, 21))
        saved = deserialize((tmp_path / "net.json").read_text())
        split = cancer_bundle.train
        theta = objective(saved, split, PenaltyParams())
        assert rows[-1] == f"20,{theta!r},{accuracy(saved, split)!r}"

    def test_train_divergence_names_true_epoch(self, cancer_file, cancer_bundle, tmp_path, capsys):
        net = init_network(NetworkConfig(9, 3, 2, init_seed=1))  # the network cancer1.conf sets
        with pytest.raises(DivergenceError) as library:
            train(net, cancer_bundle.train, TrainParams(1e30, 30), PenaltyParams())
        assert int(str(library.value).rsplit(" ", 1)[1]) > 1
        conf = cancer_config(tmp_path / "exp.conf", cancer_file, epochs=30, learning_rate=1e30)
        out, csv = tmp_path / "net.json", tmp_path / "t.csv"
        rc = main(["train", "--config", str(conf), "--out", str(out), "--trace", str(csv)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {library.value}\n"
        assert not out.exists() and not csv.exists()

    @pytest.mark.parametrize(
        "command,flag,value,message",
        FLAG_CASES,
        ids=["-".join(case[:3]) for case in FLAG_CASES],
    )
    def test_out_of_range_flag_is_usage_error(
        self, command, flag, value, message, cancer_file, tmp_path, capsys
    ):
        conf = cancer_config(tmp_path / "exp.conf", cancer_file)
        required = {
            "train": ["--config", str(conf), "--out", str(tmp_path / "t.json")],
            "prune": ["--config", str(conf), "--net", str(tmp_path / "n.json"),
                      "--out", str(tmp_path / "p.json")],
            "gradcheck": [],
            "synth-data": ["--out", str(tmp_path / "d")],
            "run": ["--config", str(conf)],
        }
        with pytest.raises(SystemExit) as exc:
            main([command, *required[command], flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.conf"]

    @pytest.mark.parametrize("command", ["run", "train", "prune", "eval"])
    @pytest.mark.parametrize("key,value", CONFIG_CASES, ids=[c[0] for c in CONFIG_CASES])
    def test_out_of_range_config_value_exit_1(
        self, key, value, command, cancer_file, tmp_path, capsys
    ):
        inputs = tmp_path / "in"
        inputs.mkdir()
        net = inputs / "n.json"
        net.write_text(serialize(init_network(NetworkConfig(9, 3, 2))), encoding="utf-8")
        conf = cancer_config(inputs / "exp.conf", cancer_file, **{key: value})
        out = tmp_path / "out"
        out.mkdir()
        outputs = {
            "run": ["--out", str(out / "run")],
            "train": ["--out", str(out / "n.json"), "--trace", str(out / "t.csv")],
            "prune": ["--net", str(net), "--out", str(out / "p.json"),
                      "--trace-out", str(out / "t.jsonl")],
            "eval": ["--net", str(net)],
        }
        assert main([command, "--config", str(conf), *outputs[command]]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command,flag,kind", REMOVED_FLAGS, ids=["-".join(case[:2]) for case in REMOVED_FLAGS]
    )
    def test_removed_flag_is_unrecognized(self, command, flag, kind, tmp_path, capsys):
        net = ["--net", str(tmp_path / "n.json")]
        required = {
            "train": ["--out", str(tmp_path / "n.json")],
            "prune": [*net, "--out", str(tmp_path / "p.json")],
            "eval": net,
        }
        value = "x.data" if kind is str else "1"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "exp.conf", *required[command], flag, value])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_negative_split_seed_exit_1(self, cancer_file, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"dataset = cancer1\ndata_path = {cancer_file}\nsplit_seeds = -1\n")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: split_seeds must be >= 0")

    def test_run_repeated_split_seed_exit_1(self, cancer_file, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"dataset = cancer1\ndata_path = {cancer_file}\nsplit_seeds = 1,1\n")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: split seed 1 is listed more than once")
        assert not (tmp_path / "out").exists()

    def test_gradcheck_exit_code(self, capsys):
        assert main(["gradcheck", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_gradcheck_fails_when_no_comparison_is_finite(self, capsys):
        # a step of 1e308 overflows every central difference
        assert main(["gradcheck", "--step", "1e308"]) == 1
        assert capsys.readouterr().out == "max relative error: nan\n"

    def test_run_from_config(self, cancer_file, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            f"dataset = cancer1\ndata_path = {cancer_file}\n"
            f"output_dir = {tmp_path / 'out'}\nsplit_seeds = 1\nepochs = 200\n"
        )
        assert main(["run", "--config", str(conf), "--jobs", "1"]) == 0
        assert (tmp_path / "out" / "report.json").is_file()

    def test_run_bad_config_value_exit_1(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("dataset = cancer1\ndata_path = x.data\nn_hidden = three\n")
        assert main(["run", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'n_hidden'" in err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        conf = cancer_config(tmp_path / "exp.conf", tmp_path / "x.data")
        rc = main(["eval", "--config", str(conf), "--net", str(tmp_path / "n.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "prune"])
    def test_unmapped_class_label_names_file_and_line(self, command, tmp_path, capsys):
        """The data file is read, and found bad, before the missing network file."""
        data = tmp_path / "bad.data"
        rows = [",".join(["1"] * 8 + [label]) for label in ("0", "1", "0", "7")]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        conf = tmp_path / "exp.conf"
        conf.write_text(f"dataset = diabetes\ndata_path = {data}\n")
        outputs = {"eval": [], "prune": ["--out", str(tmp_path / "p.json")]}
        net = ["--net", str(tmp_path / "n.json")]
        rc = main([command, "--config", str(conf), *net, *outputs[command]])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: bad.data line 4: class label '7' not in the label map\n"
        )

    @pytest.mark.parametrize("command", ["eval", "prune", "train", "run"])
    def test_too_few_records_names_file_exit_1(self, command, tmp_path, capsys):
        data = tmp_path / "short.data"
        data.write_text(",".join(["1"] * 8) + ",0\n", encoding="utf-8")
        conf = tmp_path / "exp.conf"
        conf.write_text(f"dataset = diabetes\ndata_path = {data}\noutput_dir = {tmp_path}\n")
        outputs = {
            "eval": ["--net", str(tmp_path / "n.json")],
            "prune": ["--net", str(tmp_path / "n.json"), "--out", str(tmp_path / "p.json")],
            "train": ["--out", str(tmp_path / "n.json")],
            "run": [],
        }
        assert main([command, "--config", str(conf), *outputs[command]]) == 1
        assert capsys.readouterr().err == (
            "error: short.data: too few records (1); the 50/25/25 split needs at "
            "least 4 to leave every split non-empty\n"
        )

    @pytest.mark.parametrize(
        "command,path,bad",
        [
            ("run", "--config", "directory"),
            ("eval", "data_path", "directory"),
            ("train", "--out", "directory"),
            ("run", "--config", "latin-1"),
            ("eval", "--config", "latin-1"),
            ("eval", "data_path", "latin-1"),
            ("eval", "--net", "latin-1"),
        ],
    )
    def test_unreadable_path_exit_1(self, command, path, bad, cancer_file, tmp_path, capsys):
        """``path`` is the flag, or the config key, that names the bad path."""
        bad_path = tmp_path / "bad"
        if bad == "directory":
            bad_path.mkdir()
        else:
            bad_path.write_bytes("dataset = caf\xe9\n".encode("latin-1"))
        data = bad_path if path == "data_path" else cancer_file
        conf = str(cancer_config(tmp_path / "exp.conf", data, epochs=1))
        argv = {
            "run": ["run", "--config", "x"],
            "eval": ["eval", "--config", conf, "--net", "x"],
            "train": ["train", "--config", conf, "--out", "x"],
        }[command]
        if path.startswith("--"):
            argv[argv.index(path) + 1] = str(bad_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["eval", "prune", "export-dot"])
    def test_network_field_serialize_never_writes_exit_1(
        self, command, cancer_file, tmp_path, capsys
    ):
        doc = json.loads(serialize(init_network(NetworkConfig(9, 3, 2))))
        net = tmp_path / "n.json"
        net.write_text(json.dumps({**doc, "bias": [0.5, 0.5]}), encoding="utf-8")
        conf = str(cancer_config(tmp_path / "exp.conf", cancer_file))
        argv = {
            "eval": ["eval", "--config", conf],
            "prune": ["prune", "--config", conf, "--out", str(tmp_path / "p.json")],
            "export-dot": ["export-dot", "--out", str(tmp_path / "n.dot")],
        }[command]
        assert main([*argv, "--net", str(net)]) == 1
        assert capsys.readouterr().err == "error: unknown network fields: ['bias']\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.conf", "n.json"]

    @pytest.mark.parametrize(
        "text", ["1" * 5000, "[" * 200000], ids=["long-integer", "deep-nesting"]
    )
    def test_network_json_the_decoder_cannot_read_exit_1(self, text, tmp_path, capsys):
        net = tmp_path / "n.json"
        net.write_text(text, encoding="utf-8")
        assert main(["export-dot", "--net", str(net)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid JSON: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus"])
        assert exc.value.code == 2

    def test_bad_arch_gradcheck(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--arch", "nonsense"])
        assert exc.value.code == 2
        assert "argument --arch: invalid architecture value: 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arch,message",
        [
            ("9-x-2", "argument --arch: invalid architecture value: '9-x-2'"),
            ("9-3", "argument --arch: invalid architecture value: '9-3'"),
            ("9-3-2-1", "argument --arch: invalid architecture value: '9-3-2-1'"),
            ("0-3-2", "error: n_inputs must be >= 1, got 0"),
            ("9-3-0", "error: n_outputs must be >= 1, got 0"),
        ],
    )
    def test_bad_arch_names_the_problem(self, arch, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--arch", arch])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _numeric_flags():
    """(command, flag, type) of every int and float option of the CLI."""
    return [
        (command, action.option_strings[-1], action.type)
        for command, parser in _subcommands().items()
        for action in parser._actions
        if action.type in (int, float)
    ]


class TestFlagRanges:
    @pytest.mark.parametrize(
        "command,flag,kind",
        _numeric_flags() + [case for case in REMOVED_FLAGS if case[2] is not str],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_out_of_range_value_is_usage_error(
        self, command, flag, kind, cancer_file, tmp_path, capsys
    ):
        """A numeric flag given a value out of its range, or a removed numeric
        flag given any value, exits 2 naming it and writes nothing."""
        inputs = tmp_path / "in"
        inputs.mkdir()
        net = inputs / "n.json"
        net.write_text(serialize(init_network(NetworkConfig(9, 3, 2))), encoding="utf-8")
        conf = inputs / "exp.conf"
        conf.write_text(
            f"dataset = cancer1\ndata_path = {cancer_file}\noutput_dir = {tmp_path / 'out'}\n"
            "split_seeds = 1\nepochs = 1\n"
        )
        given = {
            "--net": str(net),
            "--config": str(conf),
            "--out": str(tmp_path / "out"),
        }
        required = [
            arg
            for action in _subcommands()[command]._actions
            if action.required
            for arg in (action.option_strings[-1], given[action.option_strings[-1]])
        ]
        value = "-1" if kind is int else "nan"
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            main([command, *required, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if (command, flag, kind) in REMOVED_FLAGS:
            assert f"error: unrecognized arguments: {flag} {value}" in err, err
        else:
            name = flag.lstrip("-").replace("-", "_")  # a flag is spelled like its parameter
            assert re.search(rf"error: ({name} must be|argument {flag}: invalid)", err), err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
