"""Experiment orchestration: config files, benchmark runs, reports, DOT export.

An experiment config names a dataset file, an initial architecture, and the
training/penalty/pruning hyperparameters, plus a list of split seeds.  Each
seed gets its own data split and its own growth-and-pruning run; the report
collects the per-seed rows and their mean/stddev aggregates.  Reports are
written both as deterministic JSON (byte-identical for identical configs)
and as a human-readable table.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import SPECS, DatasetSpec, load_bundle
from .errors import ConfigurationError, check_int
from .network import Network, NetworkConfig, init_network, serialize
from .objective import PenaltyParams
from .pruning import (
    GrowPruneReport,
    PruneParams,
    derived_seed,
    grow_and_prune,
    reference_config,
)
from .training import TrainParams, train


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one benchmark experiment."""

    dataset: str
    data_path: Path
    output_dir: Path
    split_seeds: tuple[int, ...]
    network: NetworkConfig
    train: TrainParams
    penalty: PenaltyParams
    prune: PruneParams

    def __post_init__(self) -> None:
        net, spec = self.network, self.spec
        if (net.n_inputs, net.n_outputs) != (spec.n_attributes, spec.n_classes):
            raise ConfigurationError(
                f"network {net.n_inputs}-{net.n_hidden}-{net.n_outputs} does not fit "
                f"{spec.name}: it needs {spec.n_attributes} inputs and {spec.n_classes} outputs"
            )
        if not self.split_seeds:
            raise ConfigurationError("at least one split seed is required")
        for seed in self.split_seeds:
            check_int("split_seeds", seed, 0)
        repeated = [s for i, s in enumerate(self.split_seeds) if s in self.split_seeds[:i]]
        if repeated:
            raise ConfigurationError(f"split seed {repeated[0]} is listed more than once")

    @property
    def spec(self) -> DatasetSpec:
        return _spec(self.dataset)


def _spec(dataset: str) -> DatasetSpec:
    """The spec of ``dataset``: the one check of a dataset name."""
    if dataset not in SPECS:
        raise ConfigurationError(f"unknown dataset {dataset!r}; choose from {sorted(SPECS)}")
    return SPECS[dataset]


# Documented config file keys and their defaults (flat `key = value` lines).
# Each field of the four parameter classes is the key of its name, with the
# default its class declares; the dataset sets n_inputs and n_outputs.  Only
# n_hidden, split_seeds and output_dir have their defaults here.
CONFIG_DEFAULTS = {
    "n_hidden": 3,
    **{
        f.name: f.default
        for cls in (NetworkConfig, TrainParams, PenaltyParams, PruneParams)
        for f in fields(cls)
        if f.default is not MISSING
    },
    "split_seeds": (1, 2, 3, 4, 5),
    "output_dir": "out",
}


def parse_config_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse flat ``key = value`` config text ('#' starts a comment).

    A key left out takes its ``CONFIG_DEFAULTS`` value; a value that does
    not parse raises ConfigurationError naming its key.  Ranges are checked
    by the parameter classes the values go into.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()

    unknown = set(values) - set(CONFIG_DEFAULTS) - {"dataset", "data_path"}
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    if "dataset" not in values or "data_path" not in values:
        raise ConfigurationError("config must set 'dataset' and 'data_path'")

    def get(key, parse):
        if key not in values:
            return CONFIG_DEFAULTS[key]
        try:
            return parse(values[key])
        except ValueError:
            raise ConfigurationError(
                f"config key {key!r}: invalid value {values[key]!r}"
            ) from None

    spec = _spec(values["dataset"])

    def build(cls, **given):
        for f in fields(cls):
            if f.name not in given:
                given[f.name] = get(f.name, _PARSERS[f.type])
        return cls(**given)

    return ExperimentConfig(
        dataset=spec.name,
        data_path=Path(base_dir or "", get("data_path", _path)),
        output_dir=Path(base_dir or "", get("output_dir", _path)),
        split_seeds=get("split_seeds", _seeds),
        network=build(NetworkConfig, n_inputs=spec.n_attributes, n_outputs=spec.n_classes),
        train=build(TrainParams),
        penalty=build(PenaltyParams),
        prune=build(PruneParams),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), base_dir=path.parent)


def _optional_int(value: str) -> int | None:
    return None if value.lower() == "none" else int(value)


def _seeds(value: str) -> tuple[int, ...]:
    return tuple(int(s) for s in value.split(","))


def _path(value: str) -> str:
    if not value:
        raise ValueError("empty path")
    return value


# parse a config value by the annotation of the field it fills
_PARSERS = {"int": int, "float": float, "int | None": _optional_int}


def _json_path(value: object) -> str:
    """Spell a path of the config in a report; refuse any other object that
    JSON has no form for, so that a numpy scalar in a row is an error, not a
    string."""
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"a report cannot hold {type(value).__name__} {value!r}")


@dataclass
class ExperimentReport:
    """All per-seed rows plus their aggregates, ready to serialize."""

    config: ExperimentConfig
    rows: dict[int, GrowPruneReport]  # by split seed, in seed order

    _AGGREGATED = (
        "full_test_accuracy",
        "pruned_test_accuracy",
        "input_nodes_removed",
        "hidden_nodes_removed",
        "explicit_connections_removed",
        "implied_connections_removed",
    )

    def aggregate(self) -> dict:
        if not self.rows:
            return {}
        agg: dict = {}
        for name in self._AGGREGATED:
            values = np.array([getattr(r, name) for r in self.rows.values()], dtype=np.float64)
            agg[name] = {"mean": float(values.mean()), "stddev": float(values.std())}
        agg["converged_fraction"] = float(
            np.mean([1.0 if r.converged else 0.0 for r in self.rows.values()])
        )
        return agg

    def to_json(self) -> str:
        doc = {
            "config": asdict(self.config),
            "per_seed": [
                {"split_seed": seed, **asdict(r)} for seed, r in self.rows.items()
            ],
            "aggregate": self.aggregate(),
        }
        return json.dumps(doc, sort_keys=True, indent=2, default=_json_path) + "\n"

    def to_text(self) -> str:
        lines = [
            f"dataset: {self.config.dataset}   data: {self.config.data_path}",
            f"initial architecture: {self.config.network.n_inputs}-"
            f"{self.config.network.n_hidden}-{self.config.network.n_outputs}   "
            f"lr={self.config.train.learning_rate}  epochs={self.config.train.epochs}",
            "",
            "seed  full_test  pruned_test  simplified  in_rm  hid_rm  conn_rm  converged",
        ]
        for seed, rep in self.rows.items():
            lines.append(
                f"{seed:>4}  {rep.full_test_accuracy:>9.5f}  "
                f"{rep.pruned_test_accuracy:>11.5f}  {rep.simplified_architecture:>10}  "
                f"{rep.input_nodes_removed:>5}  {rep.hidden_nodes_removed:>6}  "
                f"{rep.explicit_connections_removed:>7}  {str(rep.converged):>9}"
            )
        agg = self.aggregate()
        if agg:
            lines.append("")
            lines.append(
                "mean  "
                f"{agg['full_test_accuracy']['mean']:>9.5f}  "
                f"{agg['pruned_test_accuracy']['mean']:>11.5f}  "
                f"{'':>10}  "
                f"{agg['input_nodes_removed']['mean']:>5.1f}  "
                f"{agg['hidden_nodes_removed']['mean']:>6.1f}  "
                f"{agg['explicit_connections_removed']['mean']:>7.1f}  "
                f"{agg['converged_fraction']:>9.2f}"
            )
        return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every split seed, write per-seed artifacts, return the report.

    Loads every seed's bundle and trains its first reference, then runs the
    seeds' growth and pruning together (``grow_and_prune.each``), which
    trains their networks in lockstep.  A seed's networks and trace are
    written as soon as it finishes, so seeds write in the order they finish;
    the report, in seed order, is written last.  A failure part-way through
    ends every seed: the report and the files then hold the seeds that
    finished before it, and none of the others.
    """
    out = Path(config.output_dir)
    (out / "networks").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)

    rows: dict[int, GrowPruneReport] = {}
    try:
        runs = {}
        for seed in config.split_seeds:
            bundle = load_bundle(config.data_path, config.spec, seed)
            base = replace(config.network, init_seed=derived_seed(config.network.init_seed, seed))
            reference = train(
                init_network(reference_config(base, 0)), bundle.train, config.train, config.penalty
            )
            runs[seed] = (bundle, reference, base)
        finished = grow_and_prune.each(runs, config.train, config.penalty, config.prune)
        for seed, (pruned_net, trace, result, full_net) in finished:
            (out / "networks" / f"full_seed{seed}.json").write_text(
                serialize(full_net) + "\n", encoding="utf-8"
            )
            (out / "networks" / f"pruned_seed{seed}.json").write_text(
                serialize(pruned_net) + "\n", encoding="utf-8"
            )
            (out / "traces" / f"seed{seed}.jsonl").write_text(
                trace.to_jsonl(), encoding="utf-8"
            )
            rows[seed] = result
    finally:
        # persist whatever completed, even when a later seed failed
        report = ExperimentReport(config=config, rows=dict(sorted(rows.items())))
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    return report


def export_dot(net: Network) -> str:
    """Render the network as a DOT digraph.

    Inactive nodes are omitted.  Edges between active nodes are drawn solid
    when the connection is present and dashed when it was pruned away.
    """
    inputs = [l for l in range(net.n_inputs) if net.input_active[l]]
    hidden = [m for m in range(net.n_hidden) if net.hidden_active[m]]
    outputs = list(range(net.n_outputs))

    lines = ["digraph network {", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append("  { rank=same; " + " ".join(f"I{l + 1};" for l in inputs) + " }")
    lines.append("  { rank=same; " + " ".join(f"H{m + 1};" for m in hidden) + " }")
    lines.append("  { rank=same; " + " ".join(f"O{p + 1};" for p in outputs) + " }")
    for m in hidden:
        for l in inputs:
            style = "solid" if net.w_mask[m, l] else "dashed"
            lines.append(f"  I{l + 1} -> H{m + 1} [style={style}];")
    for p in outputs:
        for m in hidden:
            style = "solid" if net.v_mask[p, m] else "dashed"
            lines.append(f"  H{m + 1} -> O{p + 1} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
