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
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import SPECS, DatasetSpec, load_bundle
from .errors import ConfigurationError
from .network import Network, NetworkConfig, init_network, serialize
from .objective import PenaltyParams
from .pruning import GrowPruneReport, PruneParams, PruneTrace, derived_seed, grow_and_prune
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
        if self.dataset not in SPECS:
            raise ConfigurationError(
                f"unknown dataset {self.dataset!r}; choose from {sorted(SPECS)}"
            )
        if not self.split_seeds:
            raise ConfigurationError("at least one split seed is required")
        if min(self.split_seeds) < 0:
            raise ConfigurationError(f"split_seeds must be >= 0, got {self.split_seeds}")

    @property
    def spec(self) -> DatasetSpec:
        return SPECS[self.dataset]


# Documented config file keys and their defaults (flat `key = value` lines).
# Only the run-level values are written here; every other default is the one
# its parameter dataclass declares.
CONFIG_DEFAULTS = {
    "n_hidden": 3,
    "init_range": NetworkConfig.init_range,
    "init_seed": 1,
    "learning_rate": TrainParams.learning_rate,
    "epochs": 500,
    **asdict(PenaltyParams()),
    **asdict(PruneParams()),
    "split_seeds": "1,2,3,4,5",
    "output_dir": "out",
}


def parse_config_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse flat ``key = value`` config text ('#' starts a comment)."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return config_from_mapping(values, base_dir=base_dir)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), base_dir=path.parent)


def finite_float(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _optional_int(value) -> int | None:
    if value is None or (isinstance(value, str) and value.lower() in ("", "none")):
        return None
    return int(value)


def _seeds(value) -> tuple[int, ...]:
    if isinstance(value, str):
        return tuple(int(s.strip()) for s in value.split(",") if s.strip())
    return tuple(int(s) for s in value)


def config_from_mapping(values: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a key-value mapping, applying defaults.

    A value that does not parse raises ConfigurationError naming its key.
    """
    known = set(CONFIG_DEFAULTS) | {"dataset", "data_path"}
    unknown = set(values) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    if "dataset" not in values or "data_path" not in values:
        raise ConfigurationError("config must set 'dataset' and 'data_path'")

    def get(key, parse):
        value = values.get(key, CONFIG_DEFAULTS[key])
        try:
            return parse(value)
        except (TypeError, ValueError):
            raise ConfigurationError(f"config key {key!r}: invalid value {value!r}") from None

    dataset = str(values["dataset"])
    if dataset not in SPECS:
        raise ConfigurationError(f"unknown dataset {dataset!r}; choose from {sorted(SPECS)}")
    spec = SPECS[dataset]

    def resolve(p: str) -> Path:
        p = Path(p)
        if base_dir is not None and not p.is_absolute():
            return base_dir / p
        return p

    return ExperimentConfig(
        dataset=dataset,
        data_path=resolve(str(values["data_path"])),
        output_dir=resolve(str(get("output_dir", str))),
        split_seeds=get("split_seeds", _seeds),
        network=NetworkConfig(
            n_inputs=spec.n_attributes,
            n_hidden=get("n_hidden", int),
            n_outputs=spec.n_classes,
            init_range=get("init_range", finite_float),
            seed=get("init_seed", int),
        ),
        train=TrainParams(
            learning_rate=get("learning_rate", finite_float),
            epochs=get("epochs", int),
        ),
        penalty=PenaltyParams(
            eps1=get("eps1", finite_float),
            eps2=get("eps2", finite_float),
            beta=get("beta", finite_float),
        ),
        prune=PruneParams(
            eta1=get("eta1", finite_float),
            eta2=get("eta2", finite_float),
            accuracy_drop_tolerance=get("accuracy_drop_tolerance", finite_float),
            retrain_max_epochs=get("retrain_max_epochs", int),
            max_hidden=get("max_hidden", _optional_int),
            max_restarts=get("max_restarts", int),
        ),
    )


@dataclass(frozen=True)
class SeedResult:
    """One split seed's row of the experiment report."""

    split_seed: int
    report: GrowPruneReport


@dataclass
class ExperimentReport:
    """All per-seed rows plus their aggregates, ready to serialize."""

    config: ExperimentConfig
    rows: list[SeedResult]

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
            values = np.array([getattr(r.report, name) for r in self.rows], dtype=np.float64)
            agg[name] = {"mean": float(values.mean()), "stddev": float(values.std())}
        agg["converged_fraction"] = float(
            np.mean([1.0 if r.report.converged else 0.0 for r in self.rows])
        )
        return agg

    def to_json(self) -> str:
        doc = {
            "config": {
                "dataset": self.config.dataset,
                "data_path": str(self.config.data_path),
                "output_dir": str(self.config.output_dir),
                "split_seeds": list(self.config.split_seeds),
                "network": asdict(self.config.network),
                "train": asdict(self.config.train),
                "penalty": asdict(self.config.penalty),
                "prune": asdict(self.config.prune),
            },
            "per_seed": [
                {"split_seed": r.split_seed, **asdict(r.report)} for r in self.rows
            ],
            "aggregate": self.aggregate(),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"dataset: {self.config.dataset}   data: {self.config.data_path}",
            f"initial architecture: {self.config.network.n_inputs}-"
            f"{self.config.network.n_hidden}-{self.config.network.n_outputs}   "
            f"lr={self.config.train.learning_rate}  epochs={self.config.train.epochs}",
            "",
            "seed  full_test  pruned_test  simplified  in_rm  hid_rm  conn_rm  converged",
        ]
        for r in self.rows:
            rep = r.report
            lines.append(
                f"{r.split_seed:>4}  {rep.full_test_accuracy:>9.5f}  "
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


def _run_seed(
    config: ExperimentConfig, split_seed: int
) -> tuple[SeedResult, Network, Network, PruneTrace]:
    bundle = load_bundle(config.data_path, config.spec, split_seed)
    base = replace(config.network, seed=derived_seed(config.network.seed, split_seed))
    pruned, trace, report = grow_and_prune(
        bundle, base, config.train, config.penalty, config.prune
    )
    # rebuild the fully connected reference of the restart that produced the
    # result; training is deterministic, so this is the exact same network
    full_config = replace(base, seed=derived_seed(base.seed, report.restarts_used - 1, 0))
    full_net = train(init_network(full_config), bundle.train, config.train, config.penalty)
    return SeedResult(split_seed=split_seed, report=report), full_net, pruned, trace


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run every split seed, write per-seed artifacts, return the report.

    Per-seed networks and traces are persisted as soon as each seed
    finishes, so partial results survive a failure part-way through.
    """
    out = Path(config.output_dir)
    (out / "networks").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)

    def run_and_persist(seed: int) -> SeedResult:
        result, full_net, pruned_net, trace = _run_seed(config, seed)
        (out / "networks" / f"full_seed{seed}.json").write_text(
            serialize(full_net) + "\n", encoding="utf-8"
        )
        (out / "networks" / f"pruned_seed{seed}.json").write_text(
            serialize(pruned_net) + "\n", encoding="utf-8"
        )
        (out / "traces" / f"seed{seed}.jsonl").write_text(
            trace.to_jsonl(), encoding="utf-8"
        )
        return result

    rows: list[SeedResult] = []
    try:
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(run_and_persist, s) for s in config.split_seeds]
                errors = []
                for future in futures:
                    try:
                        rows.append(future.result())
                    except Exception as exc:  # keep finished seeds, re-raise below
                        errors.append(exc)
                if errors:
                    raise errors[0]
        else:
            for seed in config.split_seeds:
                rows.append(run_and_persist(seed))
    finally:
        # persist whatever completed, even when a later seed failed
        rows.sort(key=lambda r: r.split_seed)
        report = ExperimentReport(config=config, rows=rows)
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
