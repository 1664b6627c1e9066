"""Lockstep growth (``grow_and_prune.each``) against the serial growth loop
it replaced.

``serial_grow_and_prune`` is ``grow_and_prune`` as it was before the split
seeds' networks were trained in lockstep: one attempt after another, each
network trained alone by ``train``.  It is kept here, frozen, as the
reference the lockstep runs must match byte for byte on every split seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from nnprune import (
    GrowPruneReport,
    NetworkConfig,
    ShapeError,
    accuracy,
    eliminate_weights,
    grow_and_prune,
    init_network,
    load_bundle,
    reference_config,
    serialize,
    train,
)
from nnprune import pruning
from nnprune.pruning import derived_seed


def serial_grow_and_prune(bundle, reference, base_config, tparams, penalty, params):
    """The serial growth loop, kept as the reference."""
    initial = f"{base_config.n_inputs}-{base_config.n_hidden}-{base_config.n_outputs}"
    max_hidden = params.max_hidden if params.max_hidden is not None else base_config.n_hidden + 2
    attempts = []

    for restart in range(params.max_restarts):
        if restart:
            reference = train(
                init_network(reference_config(base_config, restart)), bundle.train, tparams, penalty
            )
        baseline_val = accuracy(reference, bundle.validation)
        full_test = accuracy(reference, bundle.test)
        val_floor = params.floor(baseline_val)
        test_floor = params.floor(full_test)

        for h in range(1, max_hidden + 1):
            config_h = replace(
                base_config, n_hidden=h, init_seed=derived_seed(base_config.init_seed, restart, h)
            )
            net = train(init_network(config_h), bundle.train, tparams, penalty)
            net, trace, pruned_val = eliminate_weights(
                net, bundle, tparams.learning_rate, penalty, params, val_floor
            )
            if pruned_val >= val_floor:
                break

        pruned_test = accuracy(net, bundle.test)
        converged = pruned_val >= val_floor and pruned_test >= test_floor
        report = GrowPruneReport(
            initial_architecture=initial,
            simplified_architecture=net.architecture(),
            input_nodes_removed=base_config.n_inputs - net.n_active_inputs,
            hidden_nodes_removed=base_config.n_hidden - net.n_active_hidden,
            explicit_connections_removed=trace.n_removed_weights(),
            implied_connections_removed=trace.n_implied_removed(),
            full_test_accuracy=full_test,
            full_validation_accuracy=baseline_val,
            pruned_test_accuracy=pruned_test,
            pruned_validation_accuracy=pruned_val,
            converged=converged,
            restarts_used=restart + 1,
            grown_hidden_units=h,
        )
        result = (net, trace, report, reference)
        if converged:
            return result
        attempts.append(((pruned_test, -net.n_unmasked()), result))

    return max(attempts, key=lambda attempt: attempt[0])[1]


# cut-down settings: (epochs, retrain_max_epochs, max_restarts, accuracy_drop_tolerance);
# on the stand-in data every dataset rolls batches back, restarts, and keeps
# some split seed unconverged under one of them
CUT_DOWN = [(60, 10, 3, 0.0), (40, 5, 2, 0.0), (100, 20, 3, 0.01)]
SPLIT_SEEDS = range(1, 7)


def cut_down_runs(name, path, shipped_config, setting, seeds=SPLIT_SEEDS):
    """The runs of ``configs/<name>.conf`` cut down to ``setting``, at
    ``seeds``, each with its first reference trained as ``run_experiment``
    trains it, and the settings they share."""
    epochs, retrain_max_epochs, max_restarts, tolerance = setting
    config = shipped_config(name, path, "unused")
    tparams = replace(config.train, epochs=epochs)
    params = replace(
        config.prune, retrain_max_epochs=retrain_max_epochs, max_restarts=max_restarts,
        accuracy_drop_tolerance=tolerance,
    )
    runs = {}
    for seed in seeds:
        bundle = load_bundle(path, config.spec, seed)
        base = replace(config.network, init_seed=derived_seed(config.network.init_seed, seed))
        reference = train(init_network(reference_config(base, 0)), bundle.train, tparams,
                          config.penalty)
        runs[seed] = (bundle, reference, base)
    return runs, tparams, config.penalty, params


def as_bytes(result) -> tuple:
    net, trace, report, reference = result
    return serialize(net), trace.to_jsonl(), repr(report), serialize(reference)


@pytest.mark.parametrize("name", ["cancer1", "diabetes", "glass"])
def test_lockstep_matches_the_serial_loop_byte_for_byte(name, benchmark_files, shipped_config):
    seen = Counter()
    for setting in CUT_DOWN:
        runs, tparams, penalty, params = cut_down_runs(
            name, benchmark_files[name][0], shipped_config, setting
        )
        finished = list(grow_and_prune.each(runs, tparams, penalty, params))
        assert sorted(key for key, _ in finished) == list(SPLIT_SEEDS)
        for seed, result in finished:
            expected = serial_grow_and_prune(*runs[seed], tparams, penalty, params)
            assert as_bytes(result) == as_bytes(expected), (setting, seed)
            _, trace, report, _ = result
            seen["rolled back"] += any(e.rolled_back for e in trace.events)
            seen["restarted"] += report.restarts_used > 1 or not report.converged
            seen["not converged"] += not report.converged
    # on every dataset the gate covers rollbacks, restarts and unconverged runs
    assert min(seen.values()) > 0, seen


def test_one_bundle_is_lockstep_over_one_run(benchmark_files, shipped_config):
    runs, tparams, penalty, params = cut_down_runs(
        "glass", benchmark_files["glass"][0], shipped_config, CUT_DOWN[1]
    )
    for run in runs.values():
        expected = serial_grow_and_prune(*run, tparams, penalty, params)
        assert as_bytes(grow_and_prune(*run, tparams, penalty, params)) == as_bytes(expected)


def test_runs_of_different_datasets_stack_apart(benchmark_files, shipped_config):
    """One call may mix datasets: networks of other shapes, on training
    splits of other sizes, are trained in stacks of their own."""
    runs, settings = {}, {}
    for name in ("cancer1", "diabetes", "glass"):
        named, *settings[name] = cut_down_runs(
            name, benchmark_files[name][0], shipped_config, CUT_DOWN[1], seeds=(1, 2)
        )
        runs.update({(name, seed): run for seed, run in named.items()})
    tparams, penalty, params = settings["cancer1"]  # each takes one set, for every run
    finished = dict(grow_and_prune.each(runs, tparams, penalty, params))
    assert finished.keys() == runs.keys()
    for key, run in runs.items():
        expected = grow_and_prune(*run, tparams, penalty, params)
        assert as_bytes(finished[key]) == as_bytes(expected), key


def test_largest_group_first_ties_to_fewer_hidden_units(
    benchmark_files, shipped_config, monkeypatch
):
    waiting = {}  # the hidden units of the network each waiting run waits for
    real_growth = pruning._growth

    def watched(*args):
        growth, trained = real_growth(*args), None
        while True:
            try:
                net = growth.send(trained)
            except StopIteration as finished:
                return finished.value
            token = object()
            waiting[token] = net.n_hidden
            trained = yield net
            del waiting[token]

    chosen = []  # per stacked call: (hidden units, stack size, waiting groups by width)

    def recording(nets, splits, tparams, penalty):
        chosen.append((nets[0].n_hidden, len(nets), Counter(waiting.values())))
        return train(nets, splits, tparams, penalty)

    runs, tparams, penalty, params = cut_down_runs(
        "glass", benchmark_files["glass"][0], shipped_config, CUT_DOWN[0]
    )
    monkeypatch.setattr(pruning, "_growth", watched)
    monkeypatch.setattr(pruning, "train", recording)
    dict(grow_and_prune.each(runs, tparams, penalty, params))
    # every run first waits for its one-unit network: one call trains them all
    assert chosen[0][:2] == (1, len(runs))
    for h, size, groups in chosen:
        largest = max(groups.values())
        assert (size, h) == (largest, min(w for w, n in groups.items() if n == largest))
    # and the rule had choices to make: some call left another group waiting
    assert any(len(groups) > 1 for _, _, groups in chosen)


def test_an_error_in_one_run_ends_every_run(benchmark_files, shipped_config):
    runs, tparams, penalty, params = cut_down_runs(
        "cancer1", benchmark_files["cancer1"][0], shipped_config, CUT_DOWN[1]
    )
    bundle, _, base = runs[2]
    runs[2] = (bundle, init_network(NetworkConfig(9, 2, 2)), base)  # not the base architecture
    with pytest.raises(ShapeError, match="reference network is 9-2-2, expected 9-3-2"):
        dict(grow_and_prune.each(runs, tparams, penalty, params))

