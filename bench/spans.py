"""Span tracer for the benchmark's traced run.

The package imports its helpers with ``from .x import y``, so each caller
looks a function up in its *own* module namespace.  A wrapper therefore has
to be installed on the attribute the caller reads (``nnprune.pruning.train``,
not only ``nnprune.training.train``); ``HOOKS`` lists every such attribute
together with the span name it records under.  Spans stay in memory while an
experiment runs and are turned into per-layer metrics afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pathlib
import time
from collections import Counter, defaultdict

# ``nnprune.objective`` names the re-exported function, not the module
cli, harness, network, objective, pruning, training = (
    importlib.import_module(f"nnprune.{m}")
    for m in ("cli", "harness", "network", "objective", "pruning", "training")
)

# (owner whose attribute the caller reads, attribute, span name)
HOOKS = (
    (cli, "run_experiment", "cli.run_experiment"),
    (harness, "load_bundle", "data.load_bundle"),
    (harness, "grow_and_prune", "pruning.grow_and_prune"),
    (harness, "train", "harness.train"),
    (harness, "serialize", "harness.serialize"),
    (harness.ExperimentReport, "to_json", "harness.report_json"),
    (harness.ExperimentReport, "to_text", "harness.report_text"),
    (pruning.PruneTrace, "to_jsonl", "harness.to_jsonl"),
    (pathlib.Path, "write_text", "harness.write_text"),
    (pruning, "train", "pruning.train"),
    (pruning, "eliminate_weights", "pruning.eliminate_weights"),
    (pruning, "retrain", "pruning.retrain"),
    (pruning, "serialize", "pruning.serialize"),
    (pruning, "accuracy", "training.accuracy"),
    (training, "accuracy", "training.accuracy"),
    (training, "data_gradients", "objective.data_gradients"),
    (training, "objective", "objective.objective"),
    (training, "penalty_gradients", "objective.penalty_gradients"),
    (training, "classify_batch", "network.classify_batch"),
    (objective, "forward_batch", "network.forward_batch"),
    (network, "forward_batch", "network.forward_batch"),
)

TRAIN_SPANS = ("harness.train", "pruning.train")
PERSIST_SPANS = (
    "harness.serialize",
    "harness.to_jsonl",
    "harness.report_json",
    "harness.report_text",
    "harness.write_text",
)


def _forward_macs(args, kwargs, result) -> int:
    """Multiply-adds of one forward pass, computed from the array shapes."""
    hidden, output = result
    k, h = hidden.shape
    return k * h * (args[0].n_inputs + output.shape[1])


# Return values some metrics need, kept per span.
OBSERVERS = {
    "pruning.retrain": lambda args, kwargs, result: result[1],  # floor met
    "pruning.grow_and_prune": lambda args, kwargs, result: result[2],  # GrowPruneReport
    "network.forward_batch": _forward_macs,
}


class Tracer:
    """One span per wrapped call: name, start, end and parent span index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: dict[int, object] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, observe=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        notes = self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                notes[idx] = observe(args, kwargs, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def write_tsv(self, path: pathlib.Path) -> None:
        """Write every span as ``index, name, start, end, parent`` (seconds
        from the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i}\t{name}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install a wrapper on every hook for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in HOOKS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, OBSERVERS.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Hooks that still hold a benchmark wrapper (empty once restored)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in HOOKS
        if hasattr(vars(owner)[attr], "bench_span")
    ]


def _enclosing(tracer: Tracer, idx: int, names: tuple[str, ...]) -> str | None:
    p = tracer.parents[idx]
    while p >= 0 and tracer.names[p] not in names:
        p = tracer.parents[p]
    return tracer.names[p] if p >= 0 else None


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced experiment of ``wall_s`` seconds.

    A span's self time is its duration minus the durations of its direct
    children; the run is single-threaded, so children never overlap.
    """
    dur = tracer.durations()
    child = [0.0] * len(dur)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        by_name[name].append(i)
        if parent >= 0:
            child[parent] += dur[i]

    def count(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def total(*names: str) -> float:
        return sum(dur[i] for n in names for i in by_name[n])

    # every gradient evaluation is one GD update; attribute it to the
    # training span that made it
    updates = Counter(
        _enclosing(tracer, i, TRAIN_SPANS + ("pruning.retrain",))
        for i in by_name["objective.data_gradients"]
    )
    train_updates = updates["harness.train"] + updates["pruning.train"]
    retrain_updates = updates["pruning.retrain"]
    grad_calls = count("objective.data_gradients")
    met = [bool(tracer.notes[i]) for i in by_name["pruning.retrain"]]
    reports = [tracer.notes[i] for i in by_name["pruning.grow_and_prune"]]
    batches = len(met)
    train_s = total(*TRAIN_SPANS)
    retrain_s = total("pruning.retrain")
    forward_calls = count("network.forward_batch")
    macs = sum(tracer.notes[i] for i in by_name["network.forward_batch"])
    return {
        "harness.reference_updates": updates["harness.train"],
        "harness.reference_train_s": total("harness.train"),
        "harness.persist_s": total(*PERSIST_SPANS),
        "data.load_s": total("data.load_bundle"),
        "data.loads": count("data.load_bundle"),
        "pruning.trains": count("pruning.train"),
        "pruning.restarts": sum(r.restarts_used for r in reports),
        "pruning.batches": batches,
        "pruning.rollback_ratio": met.count(False) / batches if batches else 0.0,
        "pruning.snapshot_s": total("pruning.serialize"),
        "pruning.self_s": sum(
            dur[i] - child[i]
            for n in ("pruning.grow_and_prune", "pruning.eliminate_weights")
            for i in by_name[n]
        ),
        "pruning.converged_frac": (
            sum(r.converged for r in reports) / len(reports) if reports else 0.0
        ),
        "training.train_updates": train_updates,
        "training.retrain_updates": retrain_updates,
        "training.train_s": train_s,
        "training.retrain_s": retrain_s,
        "training.retrain_met_ratio": met.count(True) / batches if batches else 0.0,
        "training.us_per_update": (
            1e6 * (train_s + retrain_s) / (train_updates + retrain_updates)
            if train_updates + retrain_updates else 0.0
        ),
        "training.accuracy_calls": count("training.accuracy"),
        "objective.grad_calls": grad_calls,
        "objective.grad_s": total("objective.data_gradients"),
        "objective.theta_calls": count("objective.objective"),
        "objective.theta_s": total("objective.objective"),
        "objective.penalty_grad_s": total("objective.penalty_gradients"),
        "network.forward_calls": forward_calls,
        "network.forwards_per_update": forward_calls / grad_calls if grad_calls else 0.0,
        "network.forward_s": total("network.forward_batch"),
        "network.classify_s": total("network.classify_batch"),
        "network.computed_mflop": 2.0 * macs / 1e6,
        "cli.overhead_s": wall_s - total("cli.run_experiment"),
    }
