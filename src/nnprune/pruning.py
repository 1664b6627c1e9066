"""Weight elimination and node pruning for trained networks.

Weight elimination repeatedly removes connections that the trained weights
show to be redundant.  ``removal_batch`` states the rule once:

* an input-to-hidden weight w[m, l] is removable when
  ``max_p |v[p, m] * w[m, l]| <= 4 * eta2`` (its worst-case influence on
  any output is below the threshold);
* a hidden-to-output weight v[p, m] is removable when
  ``|v[p, m]| <= 4 * eta2``;
* when nothing qualifies, the single w entry with the smallest
  ``max_p |v[p, m] * w[m, l]|`` is removed instead.

After each removal batch the network is retrained; if it can no longer
reach the accuracy floor, the batch is rolled back and elimination stops.
``eliminate_weights`` ends with ``prune_dead_nodes``, which deactivates
hidden units and inputs left with no unmasked connections and provably
leaves the network function unchanged.  The growth loop wraps this: it
starts from one hidden unit and adds units until the simplified network
is acceptable, restarting from fresh weights when generalization fails.
It is written as a coroutine that hands out every fully connected network
it needs trained, so that ``grow_and_prune.each`` can step the runs of
many bundles together and train their waiting networks in lockstep.
"""

from __future__ import annotations

import json
import math
from collections.abc import Generator, Hashable, Iterator, Mapping
from dataclasses import asdict, dataclass, field, replace
from itertools import count

import numpy as np

from .data import DatasetBundle
from .errors import ParseError, ShapeError, check_float, check_int
from .network import Network, NetworkConfig, deserialize, init_network, serialize
from .objective import PenaltyParams
from .training import TrainParams, accuracy, retrain, train

KIND_WEIGHT_W = "weight-w"
KIND_WEIGHT_V = "weight-v"
KIND_INPUT_NODE = "input-node"
KIND_HIDDEN_NODE = "hidden-node"

TRIGGER_PRODUCT = "product-threshold"      # max_p |v*w| <= 4*eta2
TRIGGER_MAGNITUDE = "magnitude-threshold"  # |v| <= 4*eta2
TRIGGER_SMALLEST = "smallest-product"
TRIGGER_DEAD_INPUT = "dead-input"
TRIGGER_DEAD_HIDDEN = "dead-hidden"

# kind: (index count, triggers) of the events removal_batch and prune_dead_nodes write
_FORMS = {
    KIND_WEIGHT_W: (2, (TRIGGER_PRODUCT, TRIGGER_SMALLEST)),
    KIND_WEIGHT_V: (2, (TRIGGER_MAGNITUDE,)),
    KIND_INPUT_NODE: (1, (TRIGGER_DEAD_INPUT,)),
    KIND_HIDDEN_NODE: (1, (TRIGGER_DEAD_HIDDEN,)),
}


@dataclass(frozen=True)
class PruneParams:
    """Thresholds and budgets for weight elimination and the growth loop."""

    eta2: float = 0.10
    accuracy_drop_tolerance: float = 0.02
    retrain_max_epochs: int = 100
    max_hidden: int | None = None  # None: base architecture's hidden count + 2
    max_restarts: int = 3

    def __post_init__(self) -> None:
        check_float("eta2", self.eta2, 0, 0.5)
        check_float("accuracy_drop_tolerance", self.accuracy_drop_tolerance, 0, 1, "[]")
        check_int("retrain_max_epochs", self.retrain_max_epochs, 0)
        check_int("max_restarts", self.max_restarts, 1)
        if self.max_hidden is not None:
            check_int("max_hidden", self.max_hidden, 1)

    @property
    def threshold(self) -> float:
        """Removal threshold 4 * eta2."""
        return 4.0 * self.eta2

    def floor(self, accuracy: float) -> float:
        """The floor for a reference ``accuracy``: it minus the tolerance, at least 0."""
        return max(0.0, accuracy - self.accuracy_drop_tolerance)


def _number(x, top: float = math.inf) -> bool:
    """Whether a loaded event field is None or a finite number in [0, top]."""
    # type(), not isinstance: true loads as a bool; NaN fails every comparison
    return x is None or (type(x) in (int, float) and 0 <= x <= top and x < math.inf)


@dataclass(frozen=True)
class RemovalEvent:
    """One pruning decision, in chronological order within a trace.

    Construction checks the event's form: a kind of :data:`_FORMS`, with
    its count of non-negative integer indices and one of its triggers, and
    every other field of the type and range the package writes.  An event
    of any other form cannot be built; ValueError names its first bad
    field.
    """

    kind: str                  # weight-w | weight-v | input-node | hidden-node
    indices: tuple[int, ...]   # (m, l) for w, (p, m) for v, (l,) or (m,) for nodes
    trigger: str
    batch: int                 # removal batches share a batch id
    metric: float | None = None      # decision value, e.g. max_p |v*w|
    threshold: float | None = None
    rolled_back: bool = False
    accuracy_after_retrain: float | None = None
    implied_connections: int = 0     # weights newly masked by a node removal

    def __post_init__(self) -> None:
        form = _FORMS.get(self.kind) if isinstance(self.kind, str) else None
        n_indices, triggers = form or (0, ())
        for name, ok in (
            ("kind", form is not None),
            ("indices", type(self.indices) is tuple and len(self.indices) == n_indices
             and all(type(i) is int and i >= 0 for i in self.indices)),
            ("trigger", self.trigger in triggers),
            ("batch", type(self.batch) is int and self.batch >= 0),
            ("metric", _number(self.metric)),
            ("threshold", _number(self.threshold)),
            ("rolled_back", type(self.rolled_back) is bool),
            ("accuracy_after_retrain", _number(self.accuracy_after_retrain, 1)),
            ("implied_connections", type(self.implied_connections) is int
             and self.implied_connections >= 0),
        ):
            if not ok:
                raise ValueError(f"bad {name} {getattr(self, name)!r}")

    def to_json(self) -> str:
        return json.dumps({"type": "removal", **asdict(self)}, sort_keys=True)


@dataclass
class PruneTrace:
    """Audit log: removal events plus a network snapshot before each batch."""

    events: list[RemovalEvent] = field(default_factory=list)
    snapshots: dict[int, Network] = field(default_factory=dict)  # batch -> network

    def n_removed_weights(self) -> int:
        """Weight removals that were not rolled back."""
        return sum(
            1
            for e in self.events
            if e.kind in (KIND_WEIGHT_W, KIND_WEIGHT_V) and not e.rolled_back
        )

    def n_implied_removed(self) -> int:
        """Connections masked as a side effect of node removals."""
        return sum(e.implied_connections for e in self.events if not e.rolled_back)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {"type": "snapshot", "batch": batch, "network": json.loads(serialize(net))},
                sort_keys=True,
            )
            for batch, net in sorted(self.snapshots.items())
        ]
        lines.extend(e.to_json() for e in self.events)
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "PruneTrace":
        """Parse :meth:`to_jsonl` output; a line that is not JSON, lacks a
        field, holds one :meth:`to_jsonl` would not write (a negative batch,
        a second snapshot of a batch, a network :func:`deserialize` rejects,
        a weight event naming no unmasked weight of its batch's snapshot)
        raises ParseError naming its 1-based line number."""
        trace, event_lines = cls(), []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                kind = doc.pop("type")
                if kind == "removal":
                    # an array loads as a list; the event rejects any other value
                    indices = doc["indices"]
                    indices = tuple(indices) if type(indices) is list else indices
                    trace.events.append(RemovalEvent(**{**doc, "indices": indices}))
                    event_lines.append(lineno)
                elif kind != "snapshot":
                    raise ValueError(f"unknown line type {kind!r}")
                elif doc.keys() != {"batch", "network"} or type(doc["batch"]) is not int:
                    raise ValueError(f"snapshot needs an integer batch and a network, got {doc!r}")
                elif doc["batch"] < 0 or doc["batch"] in trace.snapshots:
                    raise ValueError(f"snapshot batch {doc['batch']} is negative or read twice")
                else:
                    trace.snapshots[doc["batch"]] = deserialize(json.dumps(doc["network"]))
            except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
                raise ParseError(f"trace line {lineno}: {type(exc).__name__}: {exc}") from None
        for lineno, e in zip(event_lines, trace.events):
            net = trace.snapshots.get(e.batch)
            if net is None or e.kind not in (KIND_WEIGHT_W, KIND_WEIGHT_V):
                continue  # node batches have no snapshot
            mask = net.w_mask if e.kind == KIND_WEIGHT_W else net.v_mask
            if not (all(i < n for i, n in zip(e.indices, mask.shape)) and mask[e.indices]):
                raise ParseError(f"trace line {lineno}: {e.kind} {list(e.indices)} is not "
                                 f"an unmasked weight of the snapshot of batch {e.batch}")
        return trace


def removal_batch(net: Network, params: PruneParams, batch: int) -> list[RemovalEvent]:
    """The weights the elimination rule removes next from ``net``.

    Every unmasked w[m, l] with max_p |v[p, m] * w[m, l]| <= 4*eta2, then
    every unmasked v[p, m] with |v[p, m]| <= 4*eta2, each in lexicographic
    index order.  When none qualifies, the single unmasked w entry with the
    smallest max_p |v[p, m] * w[m, l]| (the lexicographically first among
    equal minima); empty when no w entry is left either.  Each event is
    numbered ``batch`` and records its decision value.
    """
    thr = params.threshold
    abs_v = np.abs(net.v)
    influence = abs_v.max(axis=0)[:, None] * np.abs(net.w)  # [h, n]
    events = [
        RemovalEvent(KIND_WEIGHT_W, (int(m), int(l)), TRIGGER_PRODUCT, batch,
                     metric=float(influence[m, l]), threshold=thr)
        for m, l in np.argwhere(net.w_mask & (influence <= thr))
    ] + [
        RemovalEvent(KIND_WEIGHT_V, (int(p), int(m)), TRIGGER_MAGNITUDE, batch,
                     metric=float(abs_v[p, m]), threshold=thr)
        for p, m in np.argwhere(net.v_mask & (abs_v <= thr))
    ]
    if events or not net.w_mask.any():
        return events
    # argmin on the raveled array returns the first (lexicographically
    # smallest) index among equal minima
    fallback = np.where(net.w_mask, influence, np.inf)
    m, l = np.unravel_index(int(np.argmin(fallback)), fallback.shape)
    return [RemovalEvent(KIND_WEIGHT_W, (int(m), int(l)), TRIGGER_SMALLEST, batch,
                         metric=float(influence[m, l]))]


def eliminate_weights(
    net: Network,
    bundle: DatasetBundle,
    lr: float,
    penalty: PenaltyParams,
    params: PruneParams,
    floor: float,
) -> tuple[Network, PruneTrace, float]:
    """Simplify an already-trained network: remove redundant weights, then dead nodes.

    Each round removes the batch ``removal_batch`` builds and retrains at
    learning rate ``lr`` toward the validation accuracy ``floor``, usually
    ``params.floor`` of a reference accuracy.  Elimination stops at an
    empty batch or at a round that cannot recover the floor, which is
    rolled back exactly, and each event's ``accuracy_after_retrain`` is the
    score ``retrain`` decided its round on.  ``prune_dead_nodes`` then
    removes the nodes left without connections, which changes no output.
    Returns a new network, the input with the kept rounds applied (below the
    floor if the input was and no round was kept) and its dead nodes removed;
    the trace, with the network before each round; and the last kept round's
    score, else the input's: the returned network's accuracy.
    """
    # a network with nothing left to remove never reaches retrain, which checks lr too
    check_float("lr", lr, 0, math.inf)
    check_float("floor", floor, 0, 1, "[]")
    current, score = net.copy(), accuracy(net, bundle.validation)
    trace = PruneTrace()
    for batch_id in count():
        batch = removal_batch(current, params, batch_id)
        if not batch:
            break
        trace.snapshots[batch_id] = current  # never edited: rounds edit copies
        candidate = current.copy()
        for event in batch:
            mask = candidate.w_mask if event.kind == KIND_WEIGHT_W else candidate.v_mask
            mask[event.indices] = False
        candidate.apply_masks()
        candidate, met, val_acc = retrain(
            candidate,
            bundle.train,
            bundle.validation,
            lr,
            penalty,
            floor,
            params.retrain_max_epochs,
        )
        trace.events.extend(
            replace(e, rolled_back=not met, accuracy_after_retrain=val_acc)
            for e in batch
        )
        if not met:
            break  # `current` was never touched: exact rollback
        current, score = candidate, val_acc
    return prune_dead_nodes(current, trace), trace, score


@dataclass(frozen=True)
class GrowPruneReport:
    """Outcome of one growth-and-pruning run on one data bundle."""

    initial_architecture: str
    simplified_architecture: str
    input_nodes_removed: int
    hidden_nodes_removed: int
    explicit_connections_removed: int
    implied_connections_removed: int
    full_test_accuracy: float
    full_validation_accuracy: float
    pruned_test_accuracy: float
    pruned_validation_accuracy: float
    converged: bool
    restarts_used: int
    grown_hidden_units: int


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(entropy=tuple(int(p) for p in parts)).generate_state(1)[0])


def prune_dead_nodes(net: Network, trace: PruneTrace) -> Network:
    """Deactivate nodes left with no unmasked connections; log them in ``trace``.

    A hidden unit whose outgoing v column is fully masked goes first, with
    its incoming w row masked; no output consumed it.  An input whose
    outgoing w column is then fully masked goes next, so inputs that fed
    only dead hidden units are removed too; it contributed zero for any
    value.  Forward outputs are therefore unchanged.  Events list hidden
    units, then inputs, each in ascending order, and share one batch id
    after the last in ``trace``.
    """
    batch = 1 + max((e.batch for e in trace.events), default=-1)
    net = net.copy()
    for m in range(net.n_hidden):
        if net.hidden_active[m] and not net.v_mask[:, m].any():
            trace.events.append(RemovalEvent(
                KIND_HIDDEN_NODE, (m,), TRIGGER_DEAD_HIDDEN, batch,
                implied_connections=int(net.w_mask[m].sum()),
            ))
            net.hidden_active[m] = False
            net.w_mask[m, :] = False
    net.apply_masks()
    for l in range(net.n_inputs):
        if net.input_active[l] and not net.w_mask[:, l].any():
            trace.events.append(RemovalEvent(KIND_INPUT_NODE, (l,), TRIGGER_DEAD_INPUT, batch))
            net.input_active[l] = False
    return net


def reference_config(base_config: NetworkConfig, restart: int) -> NetworkConfig:
    """The config of the fully connected reference network of 0-based
    attempt ``restart`` of :func:`grow_and_prune` from ``base_config``."""
    return replace(base_config, init_seed=derived_seed(base_config.init_seed, restart, 0))


def grow_and_prune(
    bundle: DatasetBundle,
    reference: Network,
    base_config: NetworkConfig,
    tparams: TrainParams,
    penalty: PenaltyParams,
    params: PruneParams,
) -> tuple[Network, PruneTrace, GrowPruneReport, Network]:
    """Grow a network from one hidden unit, pruning as it goes.

    Each attempt has a fully connected reference network (the base
    architecture); its validation accuracy minus the configured tolerance
    is the acceptability floor.  ``reference`` is the first attempt's:
    ``init_network(reference_config(base_config, 0))`` trained on
    ``bundle.train`` with ``tparams`` and ``penalty``; one of another
    architecture raises ShapeError.  Hidden units are then added one at a
    time, each size being trained and simplified by ``eliminate_weights``,
    until a candidate meets the floor or ``max_hidden`` is reached.
    Elimination retrains toward the floor after each batch, so it can lift a
    candidate trained below the floor up to it.  The candidate's
    generalization is then checked on the test split; a failed check restarts
    from fresh weights, the next attempt's reference trained from
    ``reference_config(base_config, restart)``, up to ``max_restarts``
    attempts in all.  The best candidate seen (test accuracy, then fewest
    connections; a tie keeps the earlier attempt) is returned with its
    trace, its report and its attempt's reference (``reference`` itself for
    the first), flagged ``converged=False`` when no attempt fully
    succeeded.  The report's ``pruned_validation_accuracy`` is the score
    that decided acceptance against the floor.

    This is ``grow_and_prune.each``, which runs many bundles in lockstep
    (:func:`_lockstep`), over the one bundle.
    """
    ((_, result),) = grow_and_prune.each(
        {None: (bundle, reference, base_config)}, tparams, penalty, params
    )
    return result


def _lockstep(
    runs: Mapping[Hashable, tuple[DatasetBundle, Network, NetworkConfig]],
    tparams: TrainParams,
    penalty: PenaltyParams,
    params: PruneParams,
) -> Iterator[tuple[Hashable, tuple[Network, PruneTrace, GrowPruneReport, Network]]]:
    """:func:`grow_and_prune` of every run, its networks trained in lockstep.

    ``runs`` maps a key to the ``(bundle, reference, base_config)`` of one
    run.  Yields each key with its run's result as the run finishes.  Every
    run is stepped until it waits for a fully connected network to be
    trained; of the waiting networks, those of one shape on training
    splits of one size are trained in one stacked :func:`train` call, the
    largest such group first and, among equal groups, the one of fewer
    hidden units.  Each result is bit for bit that of :func:`grow_and_prune`
    on the run alone; the order changes only the speed.  An error raised
    by a run, or by a stacked call, ends every run.
    """
    growths = {key: _growth(*run, tparams, penalty, params) for key, run in runs.items()}
    splits = {key: bundle.train for key, (bundle, _, _) in runs.items()}
    waiting: dict[Hashable, Network] = {}  # the network each run waits to have trained
    trained: dict[Hashable, Network | None] = dict.fromkeys(growths)
    while trained:
        for key, net in trained.items():
            try:
                waiting[key] = growths[key].send(net)
            except StopIteration as finished:
                yield key, finished.value
        groups: dict[tuple, list[Hashable]] = {}
        for key, net in waiting.items():
            shape = (net.n_hidden, net.n_inputs, net.n_outputs, len(splits[key]))
            groups.setdefault(shape, []).append(key)
        if not groups:
            return
        _, keys = max(groups.items(), key=lambda group: (len(group[1]), -group[0][0]))
        pending = [waiting.pop(key) for key in keys]
        trained = dict(zip(keys, train(pending, [splits[key] for key in keys], tparams, penalty)))


# the lockstep form is reached through grow_and_prune, the one name its callers import
grow_and_prune.each = _lockstep


def _growth(
    bundle: DatasetBundle,
    reference: Network,
    base_config: NetworkConfig,
    tparams: TrainParams,
    penalty: PenaltyParams,
    params: PruneParams,
) -> Generator[Network, Network, tuple[Network, PruneTrace, GrowPruneReport, Network]]:
    """:func:`grow_and_prune` as a coroutine: it yields every fully
    connected network it needs trained on ``bundle.train``, is sent that
    network trained, and returns the result."""
    initial = f"{base_config.n_inputs}-{base_config.n_hidden}-{base_config.n_outputs}"
    given = f"{reference.n_inputs}-{reference.n_hidden}-{reference.n_outputs}"
    if given != initial:
        raise ShapeError(f"reference network is {given}, expected {initial}")
    max_hidden = params.max_hidden if params.max_hidden is not None else base_config.n_hidden + 2
    attempts = []  # (key, result) per failed attempt; max keeps the first of equal keys

    for restart in range(params.max_restarts):
        if restart:
            reference = yield init_network(reference_config(base_config, restart))
        baseline_val = accuracy(reference, bundle.validation)
        full_test = accuracy(reference, bundle.test)
        val_floor = params.floor(baseline_val)
        test_floor = params.floor(full_test)

        for h in range(1, max_hidden + 1):
            config_h = replace(
                base_config, n_hidden=h, init_seed=derived_seed(base_config.init_seed, restart, h)
            )
            net = yield init_network(config_h)
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
