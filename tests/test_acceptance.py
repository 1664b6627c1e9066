"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Criteria 3-6 read the session's one run of each shipped
``configs/*.conf`` file (``shipped_runs`` in conftest), the same run the
golden comparison reads.  The data source (real files or the deterministic
stand-ins) is echoed by the session fixture in conftest and in each
criterion's line.
"""

from __future__ import annotations

import time

import numpy as np

from nnprune import (
    CANCER1,
    DIABETES,
    NetworkConfig,
    PenaltyParams,
    Split,
    finite_diff_check,
    forward_batch,
    init_network,
    load_raw,
    penalty,
    prepare,
    prune_dead_nodes,
    run_experiment,
)
from nnprune.pruning import (
    KIND_WEIGHT_V,
    KIND_WEIGHT_W,
    PruneTrace,
    TRIGGER_MAGNITUDE,
    TRIGGER_PRODUCT,
)

# accuracy bands: (reference, half-width), both as fractions
BANDS = {
    "cancer1": {"full": (0.97143, 0.025), "pruned": (0.96644, 0.030)},
    "diabetes": {"full": (0.77344, 0.030), "pruned": (0.75260, 0.035)},
    "glass": {"full": (0.65277, 0.050), "pruned": (0.63289, 0.050)},
}

RUNTIME_LIMITS = {"cancer1": 60.0, "diabetes": 120.0, "glass": 60.0}


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def in_band(value: float, name: str, kind: str) -> bool:
    center, half = BANDS[name][kind]
    return abs(value - center) <= half


def test_criterion_1_gradient_correctness():
    """>= 20 random (architecture, batch, penalty) triples, error < 1e-5."""
    rng = np.random.default_rng(2024)
    architectures = ((9, 3, 2), (8, 3, 2), (9, 4, 6))
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for trial in range(21):
        n, h, o = architectures[trial % 3]
        seed = int(rng.integers(1 << 31))
        net = init_network(NetworkConfig(n, h, o, init_range=1.5, init_seed=seed))
        k = int(rng.integers(4, 16))
        batch = Split(rng.random((k, n)), rng.integers(0, o, size=k), o)
        params = PenaltyParams(
            eps1=float(rng.uniform(0.0, 0.3)),
            eps2=float(rng.uniform(0.0, 1e-3)),
            beta=float(rng.uniform(1.0, 25.0)),
        )
        worst = max(worst, finite_diff_check(net, batch, params, step=1e-6))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and count >= 20 and elapsed < 5.0
    report_line(
        "criterion 1: gradient correctness",
        ok,
        f"{count} triples, max relative error {worst:.3e} (< 1e-5), {elapsed:.2f}s (< 5s)",
    )
    assert worst < 1e-5
    assert count >= 20
    assert elapsed < 5.0


def test_criterion_2_penalty_analytics():
    """penalty() matches the hand value; P = 0 iff all weights are zero."""
    net = init_network(NetworkConfig(1, 1, 1, init_seed=1))
    net.w[0, 0] = 1.0
    net.v[0, 0] = 0.0
    value = penalty(net, PenaltyParams(eps1=0.1, eps2=1e-5, beta=10.0))
    hand = 0.09091909090909091  # 0.1 * 10/11 + 1e-5, derived independently
    value_ok = abs(value - hand) <= 1e-9

    zero = init_network(NetworkConfig(4, 3, 2, init_seed=2))
    zero.w[:] = 0.0
    zero.v[:] = 0.0
    zero_ok = penalty(zero, PenaltyParams()) == 0.0
    nonzero_ok = True
    for i in range(zero.w.shape[0]):
        for j in range(zero.w.shape[1]):
            probe = zero.copy()
            probe.w[i, j] = 1e-8
            nonzero_ok &= penalty(probe, PenaltyParams()) > 0.0
    for i in range(zero.v.shape[0]):
        for j in range(zero.v.shape[1]):
            probe = zero.copy()
            probe.v[i, j] = -1e-8
            nonzero_ok &= penalty(probe, PenaltyParams()) > 0.0

    ok = value_ok and zero_ok and nonzero_ok
    report_line(
        "criterion 2: penalty analytics",
        ok,
        f"single-weight value {value:.10f} (|err| <= 1e-9: {value_ok}), "
        f"zero iff zero-weights: {zero_ok and nonzero_ok}",
    )
    assert value_ok and zero_ok and nonzero_ok


def _accuracy_summary(run):
    agg = run.report.aggregate()
    full = agg["full_test_accuracy"]["mean"]
    pruned = agg["pruned_test_accuracy"]["mean"]
    return full, pruned


def test_criterion_3_cancer_reproduction(shipped_runs):
    cancer_run = shipped_runs["cancer1"]
    full, pruned = _accuracy_summary(cancer_run)
    rows = cancer_run.report.rows.values()
    small_enough = [r.simplified_architecture.split("-") for r in rows]
    structure_ok = (
        sum(int(a[1]) <= 2 and int(a[0]) <= 6 for a in small_enough) > len(rows) / 2
    )
    full_ok = in_band(full, "cancer1", "full")
    pruned_ok = in_band(pruned, "cancer1", "pruned")
    time_ok = cancer_run.elapsed < RUNTIME_LIMITS["cancer1"]
    ok = full_ok and pruned_ok and structure_ok and time_ok
    report_line(
        "criterion 3: cancer reproduction",
        ok,
        f"full {full*100:.3f}% (97.143 +/- 2.5), pruned {pruned*100:.3f}% "
        f"(96.644 +/- 3.0), architectures {[r.simplified_architecture for r in rows]}, "
        f"{cancer_run.elapsed:.1f}s (< 60s), data={cancer_run.source}",
    )
    assert full_ok and pruned_ok and structure_ok and time_ok


def test_criterion_4_diabetes_reproduction(shipped_runs):
    diabetes_run = shipped_runs["diabetes"]
    full, pruned = _accuracy_summary(diabetes_run)
    rows = diabetes_run.report.rows.values()
    hidden_removed_majority = (
        sum(r.hidden_nodes_removed >= 1 for r in rows) > len(rows) / 2
    )
    full_ok = in_band(full, "diabetes", "full")
    pruned_ok = in_band(pruned, "diabetes", "pruned")
    time_ok = diabetes_run.elapsed < RUNTIME_LIMITS["diabetes"]
    ok = full_ok and pruned_ok and hidden_removed_majority and time_ok
    report_line(
        "criterion 4: diabetes reproduction",
        ok,
        f"full {full*100:.3f}% (77.344 +/- 3.0), pruned {pruned*100:.3f}% "
        f"(75.260 +/- 3.5), hidden removed {[r.hidden_nodes_removed for r in rows]}, "
        f"{diabetes_run.elapsed:.1f}s (< 120s), data={diabetes_run.source}",
    )
    assert full_ok and pruned_ok and hidden_removed_majority and time_ok


def test_criterion_5_glass_reproduction(shipped_runs):
    glass_run = shipped_runs["glass"]
    full, pruned = _accuracy_summary(glass_run)
    full_ok = in_band(full, "glass", "full")
    pruned_ok = in_band(pruned, "glass", "pruned")
    time_ok = glass_run.elapsed < RUNTIME_LIMITS["glass"]
    ok = full_ok and pruned_ok and time_ok
    report_line(
        "criterion 5: glass reproduction",
        ok,
        f"full {full*100:.3f}% (65.277 +/- 5.0), pruned {pruned*100:.3f}% "
        f"(63.289 +/- 5.0), {glass_run.elapsed:.1f}s (< 60s), "
        f"data={glass_run.source}",
    )
    assert full_ok and pruned_ok and time_ok


def _replay_trace(out_dir, seed) -> tuple[int, int]:
    """Re-verify recorded threshold removals against their snapshots.

    The metrics are recomputed here from first principles (not through the
    pruner's own helper) so the replay is an independent check.
    """
    trace = PruneTrace.from_jsonl((out_dir / "traces" / f"seed{seed}.jsonl").read_text())
    checked = violations = 0
    for event in trace.events:
        if event.rolled_back or event.trigger not in (TRIGGER_PRODUCT, TRIGGER_MAGNITUDE):
            continue
        snapshot = trace.snapshots[event.batch]
        if event.kind == KIND_WEIGHT_W:
            m, l = event.indices
            metric = max(
                abs(snapshot.v[p, m] * snapshot.w[m, l])
                for p in range(snapshot.n_outputs)
            )
        elif event.kind == KIND_WEIGHT_V:
            p, m = event.indices
            metric = abs(snapshot.v[p, m])
        else:
            continue
        checked += 1
        if not (metric <= event.threshold and abs(metric - event.metric) < 1e-12):
            violations += 1
    return checked, violations


def test_criterion_6_pruning_soundness(shipped_runs):
    # (a) every kept threshold removal satisfied its inequality, replayed
    # from the pre-batch network snapshots
    checked = violations = 0
    for run in shipped_runs.values():
        for seed in run.config.split_seeds:
            c, v = _replay_trace(run.out, seed)
            checked += c
            violations += v
    replay_ok = violations == 0

    # (b) every converged run kept validation accuracy within tolerance of
    # its fully connected reference
    floor_ok = True
    converged_rows = 0
    for run in shipped_runs.values():
        tol = run.config.prune.accuracy_drop_tolerance
        for row in run.report.rows.values():
            if not row.converged:
                continue
            converged_rows += 1
            floor_ok &= (
                row.pruned_validation_accuracy
                >= row.full_validation_accuracy - tol - 1e-12
            )

    # (c) dead-node removal never changes forward outputs (bit-identical
    # over 100 random inputs), checked on randomly masked networks
    rng = np.random.default_rng(99)
    equiv_ok = True
    for _ in range(20):
        n, h, o = (int(v) for v in rng.integers(2, 8, size=3))
        net = init_network(NetworkConfig(n, h, o, init_seed=int(rng.integers(1 << 31))))
        dead_inputs = rng.random(n) < 0.4
        dead_hidden = rng.random(h) < 0.4
        net.w_mask[:, dead_inputs] = False
        net.v_mask[:, dead_hidden] = False
        net.apply_masks()
        pruned = prune_dead_nodes(net, PruneTrace())
        xs = rng.random((100, n))
        _, before = forward_batch(net, xs)
        _, after = forward_batch(pruned, xs)
        equiv_ok &= bool(np.array_equal(before, after))

    ok = replay_ok and floor_ok and equiv_ok
    report_line(
        "criterion 6: pruning soundness",
        ok,
        f"replayed {checked} threshold removals ({violations} violations), "
        f"validation floor held on {converged_rows} converged rows: {floor_ok}, "
        f"dead-node equivalence on 20 nets x 100 inputs: {equiv_ok}",
    )
    assert replay_ok
    assert checked > 0
    assert floor_ok
    assert equiv_ok


def test_criterion_7_determinism(benchmark_files, tmp_path, shipped_config):
    path, _ = benchmark_files["cancer1"]
    out = tmp_path / "det"
    config = shipped_config("cancer1", path, out, split_seeds=(1, 2))
    run_experiment(config)
    first = (out / "report.json").read_bytes()
    run_experiment(config)
    second = (out / "report.json").read_bytes()
    ok = first == second
    report_line(
        "criterion 7: determinism",
        ok,
        f"two runs of the same config: report.json byte-identical = {ok} "
        f"({len(first)} bytes)",
    )
    assert ok


def test_criterion_8_data_pipeline(benchmark_files):
    cancer_path, _ = benchmark_files["cancer1"]
    diabetes_path, _ = benchmark_files["diabetes"]
    cancer = prepare(load_raw(cancer_path, CANCER1), CANCER1, split_seed=1)
    diabetes = prepare(load_raw(diabetes_path, DIABETES), DIABETES, split_seed=1)
    sizes_ok = (
        (len(cancer.train), len(cancer.validation), len(cancer.test)) == (350, 175, 174)
        and (len(diabetes.train), len(diabetes.validation), len(diabetes.test))
        == (384, 192, 192)
    )

    # leakage check: stats must equal a train-only recomputation
    values, _ = load_raw(cancer_path, CANCER1)
    missing = np.isnan(values)
    train_idx = np.random.default_rng(1).permutation(len(values))[:350]
    tv, tm = values[train_idx], missing[train_idx]
    means = np.where(tm, 0.0, tv).sum(axis=0) / (~tm).sum(axis=0)
    imputed = np.where(tm, means, tv)
    leakage_ok = (
        np.array_equal(cancer.imputation, means)
        and np.array_equal(cancer.normalization[0], imputed.min(axis=0))
        and np.array_equal(cancer.normalization[1], imputed.max(axis=0))
    )

    ok = sizes_ok and leakage_ok
    report_line(
        "criterion 8: data pipeline",
        ok,
        f"cancer splits {len(cancer.train)}/{len(cancer.validation)}/{len(cancer.test)}, "
        f"diabetes splits {len(diabetes.train)}/{len(diabetes.validation)}/{len(diabetes.test)}, "
        f"train-only statistics: {leakage_ok}",
    )
    assert sizes_ok and leakage_ok
