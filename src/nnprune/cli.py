"""Command-line interface.

Subcommands:

* ``run``         - full experiment from a config file
* ``train``       - train one network on one split
* ``prune``       - weight-eliminate and node-prune a trained network
* ``eval``        - accuracy of a saved network on a chosen split
* ``export-dot``  - DOT rendering of a saved network
* ``gradcheck``   - finite-difference verification of the gradients
* ``synth-data``  - write the stand-in benchmark files
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import synth
from .data import SPECS, load_bundle
from .errors import ConfigurationError, DatasetError, DivergenceError, ParseError, ShapeError
from .harness import CONFIG_DEFAULTS, export_dot, finite_float, load_config, run_experiment
from .network import NetworkConfig, deserialize, init_network, serialize
from .objective import PenaltyParams, finite_diff_check, forward_pass, objective
from .pruning import PruneParams, eliminate_weights, prune_dead_nodes
from .training import TrainParams, accuracy, epoch_step

GRADCHECK_TOLERANCE = 1e-5


def non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise ValueError(f"{value!r} is negative")
    return number


def positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise ValueError(f"{value!r} is below 1")
    return number


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, choices=sorted(SPECS))
    parser.add_argument("--data", required=True, type=Path, help="benchmark data file")
    parser.add_argument("--split-seed", type=non_negative_int, default=1)


def _add_penalty_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps1", type=finite_float, default=CONFIG_DEFAULTS["eps1"])
    parser.add_argument("--eps2", type=finite_float, default=CONFIG_DEFAULTS["eps2"])
    parser.add_argument("--beta", type=finite_float, default=CONFIG_DEFAULTS["beta"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnprune",
        description="Train, simplify, and inspect small feedforward classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--jobs", type=positive_int, default=1)
    p_run.add_argument("--out", type=Path, default=None, help="override output_dir")

    p_train = sub.add_parser("train", help="train a fresh network on one split")
    _add_data_args(p_train)
    _add_penalty_args(p_train)
    p_train.add_argument("--hidden", type=int, default=CONFIG_DEFAULTS["n_hidden"])
    p_train.add_argument("--epochs", type=int, default=CONFIG_DEFAULTS["epochs"])
    p_train.add_argument("--lr", type=finite_float, default=CONFIG_DEFAULTS["learning_rate"])
    p_train.add_argument("--init-range", type=finite_float, default=CONFIG_DEFAULTS["init_range"])
    p_train.add_argument(
        "--seed", type=non_negative_int, default=CONFIG_DEFAULTS["init_seed"],
        help="weight init seed",
    )
    p_train.add_argument("--out", required=True, type=Path, help="network JSON output")
    p_train.add_argument(
        "--trace", type=Path, default=None,
        help="write per-epoch CSV telemetry: epoch,objective,train_accuracy",
    )

    p_prune = sub.add_parser("prune", help="simplify a trained network")
    _add_data_args(p_prune)
    _add_penalty_args(p_prune)
    p_prune.add_argument("--net", required=True, type=Path)
    p_prune.add_argument("--eta1", type=finite_float, default=CONFIG_DEFAULTS["eta1"])
    p_prune.add_argument("--eta2", type=finite_float, default=CONFIG_DEFAULTS["eta2"])
    p_prune.add_argument(
        "--tolerance", type=finite_float, default=CONFIG_DEFAULTS["accuracy_drop_tolerance"]
    )
    p_prune.add_argument(
        "--retrain-epochs", type=int, default=CONFIG_DEFAULTS["retrain_max_epochs"]
    )
    p_prune.add_argument("--lr", type=finite_float, default=CONFIG_DEFAULTS["learning_rate"])
    p_prune.add_argument("--out", required=True, type=Path)
    p_prune.add_argument("--trace-out", type=Path, default=None, help="JSONL audit log")

    p_eval = sub.add_parser("eval", help="accuracy of a saved network")
    _add_data_args(p_eval)
    p_eval.add_argument("--net", required=True, type=Path)
    p_eval.add_argument(
        "--split", choices=("train", "validation", "test"), default="test"
    )

    p_dot = sub.add_parser("export-dot", help="DOT rendering of a saved network")
    p_dot.add_argument("--net", required=True, type=Path)
    p_dot.add_argument("--out", type=Path, default=None, help="default: stdout")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--seed", type=non_negative_int, default=42)
    p_grad.add_argument("--step", type=finite_float, default=1e-6)
    p_grad.add_argument("--arch", default="9-3-2", help="architecture, e.g. 9-3-2")
    p_grad.add_argument("--examples", type=non_negative_int, default=10)

    p_synth = sub.add_parser("synth-data", help="write stand-in benchmark files")
    p_synth.add_argument("--out", required=True, type=Path)
    p_synth.add_argument("--seed", type=non_negative_int, default=synth.DEFAULT_SEED)

    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    report = run_experiment(config, jobs=args.jobs)
    sys.stdout.write(report.to_text())
    print(f"report written to {Path(config.output_dir) / 'report.json'}")
    return 0


def _cmd_train(args) -> int:
    spec = SPECS[args.dataset]
    bundle = load_bundle(args.data, spec, args.split_seed)
    config = NetworkConfig(
        n_inputs=spec.n_attributes,
        n_hidden=args.hidden,
        n_outputs=spec.n_classes,
        init_range=args.init_range,
        seed=args.seed,
    )
    tparams = TrainParams(learning_rate=args.lr, epochs=args.epochs)
    penalty = PenaltyParams(eps1=args.eps1, eps2=args.eps2, beta=args.beta)
    net = init_network(config)
    split = bundle.train
    at = forward_pass(net, split.examples)
    rows = ["epoch,objective,train_accuracy\n"]
    for epoch in range(1, tparams.epochs + 1):
        at = epoch_step(net, split, tparams.learning_rate, penalty, epoch, at)
        if args.trace is not None:
            theta = objective(net, split.examples, split.targets, penalty).theta
            rows.append(f"{epoch},{theta!r},{accuracy(net, split)!r}\n")
    args.out.write_text(serialize(net) + "\n", encoding="utf-8")
    if args.trace is not None:
        args.trace.write_text("".join(rows), encoding="utf-8")
    print(
        f"trained {config.n_inputs}-{config.n_hidden}-{config.n_outputs}: "
        f"train acc {accuracy(net, split):.5f}, "
        f"validation acc {accuracy(net, bundle.validation):.5f}"
    )
    return 0


def _cmd_prune(args) -> int:
    spec = SPECS[args.dataset]
    bundle = load_bundle(args.data, spec, args.split_seed)
    net = deserialize(args.net.read_text(encoding="utf-8"))
    tparams = TrainParams(learning_rate=args.lr, epochs=0)
    penalty = PenaltyParams(eps1=args.eps1, eps2=args.eps2, beta=args.beta)
    params = PruneParams(
        eta1=args.eta1,
        eta2=args.eta2,
        accuracy_drop_tolerance=args.tolerance,
        retrain_max_epochs=args.retrain_epochs,
    )
    pruned, trace = eliminate_weights(net, bundle, tparams, penalty, params)
    pruned = prune_dead_nodes(pruned, trace)
    args.out.write_text(serialize(pruned) + "\n", encoding="utf-8")
    if args.trace_out is not None:
        args.trace_out.write_text(trace.to_jsonl(), encoding="utf-8")
    print(
        f"pruned to {pruned.architecture(active_only=True)} "
        f"({pruned.n_unmasked()} connections), "
        f"validation acc {accuracy(pruned, bundle.validation):.5f}"
    )
    return 0


def _cmd_eval(args) -> int:
    spec = SPECS[args.dataset]
    bundle = load_bundle(args.data, spec, args.split_seed)
    net = deserialize(args.net.read_text(encoding="utf-8"))
    split = getattr(bundle, args.split)
    print(f"{args.split} accuracy: {accuracy(net, split):.5f}")
    return 0


def _cmd_export_dot(args) -> int:
    net = deserialize(args.net.read_text(encoding="utf-8"))
    text = export_dot(net)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


def _cmd_synth_data(args) -> int:
    synth.write_all(args.out, seed=args.seed)
    print(f"wrote stand-in files to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    try:
        n, h, o = (int(x) for x in args.arch.split("-"))
    except ValueError:
        print(f"error: bad architecture {args.arch!r}, expected like '9-3-2'", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    net = init_network(NetworkConfig(n, h, o, seed=args.seed))
    inputs = rng.random((args.examples, n))
    classes = rng.integers(0, o, size=args.examples)
    targets = np.zeros((args.examples, o))
    targets[np.arange(args.examples), classes] = 1.0
    worst = finite_diff_check(net, inputs, targets, PenaltyParams(), step=args.step)
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < GRADCHECK_TOLERANCE else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "train": _cmd_train,
        "prune": _cmd_prune,
        "eval": _cmd_eval,
        "export-dot": _cmd_export_dot,
        "gradcheck": _cmd_gradcheck,
        "synth-data": _cmd_synth_data,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, DatasetError, ParseError, ShapeError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
