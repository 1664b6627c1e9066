"""Command-line interface.

Subcommands:

* ``run``         - full experiment from a config file
* ``train``       - train one network on one split
* ``prune``       - weight-eliminate and node-prune a trained network
* ``eval``        - accuracy of a saved network on a chosen split
* ``export-dot``  - DOT rendering of a saved network
* ``gradcheck``   - finite-difference verification of the gradients
* ``synth-data``  - write the stand-in benchmark files

``train``, ``prune`` and ``eval`` read their dataset, data file and settings
from the same experiment config file as ``run`` (``--config``) and pick the
split with ``--split-seed``.  ``main`` loads every file a command names
before it dispatches: the config, then the split, then the ``--net``
network.  An error in a file exits 1 with ``error: ...``; a
``ConfigurationError`` raised after the config loaded came from a flag
(``--split-seed -1``, say) and is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import synth
from .data import Split, load_bundle
from .errors import (
    ConfigurationError, DatasetError, DivergenceError, ParseError, ShapeError, check_int,
)
from .harness import export_dot, load_config, run_experiment
from .network import NetworkConfig, deserialize, init_network, serialize
from .objective import PenaltyParams, finite_diff_check, objective
from .pruning import eliminate_weights
from .training import accuracy, descend

GRADCHECK_TOLERANCE = 1e-5


def architecture(text: str) -> tuple[int, int, int]:
    """Layer sizes spelled like ``9-3-2``; argparse names this function in
    its message for a value that does not parse."""
    n, h, o = (int(x) for x in text.split("-"))
    return n, h, o


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, type=Path, help="experiment config file")
    parser.add_argument("--split-seed", type=int, default=1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnprune",
        description="Train, simplify, and inspect small feedforward classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=help)
        subparser.set_defaults(handler=handler, usage_error=subparser.error)
        return subparser

    p_run = command("run", _cmd_run, "run an experiment from a config file")
    p_run.add_argument("--config", required=True, type=Path)
    # one process trains every split seed's networks in lockstep; --jobs
    # accepts only 1, which the benchmark workload passes, and goes with
    # ROADMAP item 3
    p_run.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    p_run.add_argument("--out", type=Path, default=None, help="override output_dir")

    p_train = command("train", _cmd_train, "train a fresh network on one split")
    _add_config_args(p_train)
    p_train.add_argument("--out", required=True, type=Path, help="network JSON output")
    p_train.add_argument(
        "--trace", type=Path, default=None,
        help="write per-epoch CSV telemetry: epoch,objective,train_accuracy",
    )

    p_prune = command("prune", _cmd_prune, "simplify a trained network")
    _add_config_args(p_prune)
    p_prune.add_argument("--net", required=True, type=Path)
    p_prune.add_argument("--out", required=True, type=Path)
    p_prune.add_argument("--trace-out", type=Path, default=None, help="JSONL audit log")

    p_eval = command("eval", _cmd_eval, "accuracy of a saved network")
    _add_config_args(p_eval)
    p_eval.add_argument("--net", required=True, type=Path)
    p_eval.add_argument(
        "--split", choices=("train", "validation", "test"), default="test"
    )

    p_dot = command("export-dot", _cmd_export_dot, "DOT rendering of a saved network")
    p_dot.add_argument("--net", required=True, type=Path)
    p_dot.add_argument("--out", type=Path, default=None, help="default: stdout")

    p_grad = command("gradcheck", _cmd_gradcheck, "finite-difference gradient check")
    p_grad.add_argument("--seed", type=int, default=42)
    p_grad.add_argument("--step", type=float, default=1e-6)
    p_grad.add_argument(
        "--arch", type=architecture, default="9-3-2", help="architecture, e.g. 9-3-2"
    )
    p_grad.add_argument("--examples", type=int, default=10)

    p_synth = command("synth-data", _cmd_synth_data, "write stand-in benchmark files")
    p_synth.add_argument("--out", required=True, type=Path)
    p_synth.add_argument("--seed", type=int, default=synth.DEFAULT_SEED)
    return parser


def _cmd_run(args) -> int:
    config = args.config
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    report = run_experiment(config)
    sys.stdout.write(report.to_text())
    print(f"report written to {Path(config.output_dir) / 'report.json'}")
    return 0


def _cmd_train(args) -> int:
    config, bundle = args.config, args.bundle
    net = init_network(config.network)
    split, penalty = bundle.train, config.penalty
    rows = ["epoch,objective,train_accuracy\n"]
    steps = descend(net, split, config.train.learning_rate, penalty)
    for epoch in islice(steps, config.train.epochs):
        if args.trace is not None:
            theta = objective(net, split, penalty)
            rows.append(f"{epoch},{theta!r},{accuracy(net, split)!r}\n")
    args.out.write_text(serialize(net) + "\n", encoding="utf-8")
    if args.trace is not None:
        args.trace.write_text("".join(rows), encoding="utf-8")
    print(
        f"trained {net.architecture()}: "
        f"train acc {accuracy(net, split):.5f}, "
        f"validation acc {accuracy(net, bundle.validation):.5f}"
    )
    return 0


def _cmd_prune(args) -> int:
    config, bundle, net = args.config, args.bundle, args.net
    floor = config.prune.floor(accuracy(net, bundle.validation))
    pruned, trace, score = eliminate_weights(
        net, bundle, config.train.learning_rate, config.penalty, config.prune, floor
    )
    args.out.write_text(serialize(pruned) + "\n", encoding="utf-8")
    if args.trace_out is not None:
        args.trace_out.write_text(trace.to_jsonl(), encoding="utf-8")
    print(
        f"pruned to {pruned.architecture()} "
        f"({pruned.n_unmasked()} connections), "
        f"validation acc {score:.5f}"
    )
    return 0


def _cmd_eval(args) -> int:
    split = getattr(args.bundle, args.split)
    print(f"{args.split} accuracy: {accuracy(args.net, split):.5f}")
    return 0


def _cmd_export_dot(args) -> int:
    text = export_dot(args.net)
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
    check_int("seed", args.seed, 0)  # it seeds the batch too, so its error names seed
    check_int("examples", args.examples, 1)
    n, h, o = args.arch
    net = init_network(NetworkConfig(n, h, o, init_seed=args.seed))
    rng = np.random.default_rng(args.seed)
    batch = Split(rng.random((args.examples, n)), rng.integers(0, o, size=args.examples), o)
    worst = finite_diff_check(net, batch, PenaltyParams(), step=args.step)
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < GRADCHECK_TOLERANCE else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "config" in args:
            args.config = load_config(args.config)
        try:
            if "split_seed" in args:
                args.bundle = load_bundle(args.config.data_path, args.config.spec, args.split_seed)
            if "net" in args:
                args.net = deserialize(args.net.read_text(encoding="utf-8"))
            return args.handler(args)
        except ConfigurationError as exc:
            # the config file was checked as it loaded, so a flag gave the value
            args.usage_error(str(exc))
    except (
        OSError,
        UnicodeDecodeError,
        ConfigurationError,
        DatasetError,
        ParseError,
        ShapeError,
        DivergenceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
