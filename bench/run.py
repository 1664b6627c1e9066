"""Benchmark the paper's three experiments end to end, or layer by layer.

    python3 bench/run.py --workload cancer1|diabetes|glass --seed N \
        --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` runs ``nnprune run`` in this
process, one experiment after another (closed loop, one caller, jobs=1),
over the run's stand-in data sets until S seconds have passed and every
data set has run once, and reports the end-to-end metrics.  ``--trace 1``
runs the seed's own data set once untraced and then traced until S seconds
have passed, and reports the per-layer metrics.  The last line of stdout is
the JSON result; see bench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cancer1", "diabetes", "glass")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="stand-in data seed (>= 0; default nnprune.synth.DEFAULT_SEED)",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if (args.seed is not None and args.seed < 0) or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Outcome:
    """Attempted and failed experiments of one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {label}: {p}", file=sys.stderr)


def _run_checked(case, store, expect_digest=None):
    """Run one experiment and check its outputs.

    Returns (problems, (wall, quality, digest)); the second item is None
    when the experiment raised.
    """
    try:
        code, wall = case.run()
        problems = [f"nnprune run exited with {code}"] if code else []
        found, quality, digest = case.check()
    except Exception:
        traceback.print_exc()
        return ["experiment raised"], None
    problems += found + store.check(case, digest)
    if expect_digest is not None and digest != expect_digest:
        problems.append("report.json differs from the untraced run")
    return problems, (wall, quality, digest)


def end_to_end(workload, seed, seconds, outcome, store):
    """Untraced closed loop; returns (metrics, info lines, metadata)."""
    from workload import (
        DATA_SETS, Case, calibrate_ms, children_peak_kb, data_seeds, peak_rss_mb, tail,
    )

    seeds = data_seeds(seed, DATA_SETS[workload])
    cases = [Case(workload, s) for s in seeds]
    for case in cases:
        case.write_config()
    setups = [case.setup_probe(SRC) for case in cases]
    calibration = [calibrate_ms()]
    children_kb = children_peak_kb()

    walls: dict[int, list[float]] = {s: [] for s in seeds}
    quality: dict[int, dict] = {}
    start = time.perf_counter()
    i = 0
    while i < len(cases) or time.perf_counter() - start < seconds:
        case = cases[i % len(cases)]
        i += 1
        problems, done = _run_checked(case, store)
        outcome.record(f"data seed {case.data_seed}", problems)
        if done is not None:
            walls[case.data_seed].append(done[0])
            quality[case.data_seed] = done[1]
    rss = peak_rss_mb(children_kb)
    calibration.append(calibrate_ms())
    for case in cases:
        shutil.rmtree(case.dir, ignore_errors=True)

    samples = [w for ws in walls.values() for w in ws]
    if len(quality) < len(seeds):
        return None, {}, [], {}
    # the data sets differ in work far more than repeats of one differ in
    # time, so average over data sets the median of each
    set_medians = [statistics.median(ws) for ws in walls.values()]
    metrics = {
        "wall_s": statistics.fmean(set_medians),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    for name in ("full_test_acc", "pruned_test_acc", "connections_kept"):
        metrics[name] = statistics.fmean(q[name] for q in quality.values())
    counts = {"wall_s": len(samples), "setup_s": len(setups), "peak_rss_mb": 1}
    counts.update((name, len(quality)) for name in metrics if name not in counts)
    tail_p = tail(samples)
    info = [
        f"wall_s: mean over {len(seeds)} data sets of each one's median; "
        f"all {len(samples)} samples: median {statistics.median(samples):.4f} s, "
        + (f"p{tail_p[0]:.0f} {tail_p[1]:.4f} s" if tail_p else "no tail percentile (needs >= 11)"),
        "per data set: " + ", ".join(f"{s}: {m:.4f}" for s, m in zip(walls, set_medians)),
        f"setup_s: median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.4f}" for s in setups),
        "quality metrics: mean over the data sets",
    ]
    meta = {"calibration_ms": calibration, "data_seeds": seeds}
    return metrics, counts, info, meta


def per_layer(workload, seed, seconds, outcome, store, count_names):
    """Untraced run, then traced runs on the seed's own data set."""
    import spans
    from workload import Case, WORK_DIR, calibrate_ms

    case = Case(workload, seed)
    case.write_config()
    synth_s = case.write_data()
    calibration = [calibrate_ms()]
    problems, first = _run_checked(case, store)
    outcome.record("untraced", problems)
    if first is None:
        return None, {}, [], {}
    untraced_wall, _, untraced_digest = first

    traced, walls = [], []
    tracer = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            problems, done = _run_checked(case, store, expect_digest=untraced_digest)
        leftover = spans.leftover_wrappers()
        if leftover:
            problems.append(f"wrappers not restored: {leftover}")
        if done is not None:
            m = spans.layer_metrics(tracer, done[0])
            if m["objective.grad_calls"] != m["training.train_updates"] + m["training.retrain_updates"]:
                problems.append("objective.grad_calls != train_updates + retrain_updates")
            if traced and any(m[n] != traced[0][n] for n in count_names):
                problems.append("call counts differ between traced runs of one input")
            traced.append(m)
            walls.append(done[0])
        outcome.record("traced", problems)
        if done is None or leftover:
            break
    calibration.append(calibrate_ms())
    if not traced:
        return None, {}, [], {}
    tracer.write_tsv(WORK_DIR / workload / "spans.tsv")
    shutil.rmtree(case.dir, ignore_errors=True)

    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["synth.write_s"] = synth_s
    counts = {name: len(traced) for name in metrics}
    counts["synth.write_s"] = 1
    overhead = statistics.median(walls) - untraced_wall
    info = [
        f"per-layer values: one experiment, median of {len(traced)} traced runs",
        f"tracing overhead: {overhead:.4f} s ({100 * overhead / untraced_wall:+.1f}% "
        f"of the untraced {untraced_wall:.4f} s)",
        f"spans of the last traced run: {WORK_DIR / workload / 'spans.tsv'}",
    ]
    return metrics, counts, info, {"calibration_ms": calibration, "data_seeds": [seed]}


def main(argv=None) -> int:
    args = _parse(argv)
    config = ROOT / "configs" / f"{args.workload}.conf"
    if not (SRC / "nnprune" / "__init__.py").is_file() or not config.is_file():
        print(f"error: {SRC / 'nnprune'} or {config} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import nnprune
    if Path(nnprune.__file__).resolve().parent != SRC / "nnprune":
        print(f"error: imported nnprune from {nnprune.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from nnprune.synth import DEFAULT_SEED
    from workload import DigestStore, run_metadata

    if args.seed is None:
        args.seed = DEFAULT_SEED

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    outcome = Outcome()
    store = DigestStore()
    if args.trace:
        count_names = [n for n, u in units.items() if u == "count"]
        metrics, counts, info, meta = per_layer(
            args.workload, args.seed, args.seconds, outcome, store, count_names
        )
    else:
        metrics, counts, info, meta = end_to_end(args.workload, args.seed, args.seconds, outcome, store)
    store.save()
    if metrics is None:
        print("error: no experiment completed", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    meta = {**run_metadata(), **meta}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{outcome.attempted} experiments, {outcome.failed} failed")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in info:
        print("  " + line)
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<8} n={counts[name]}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
