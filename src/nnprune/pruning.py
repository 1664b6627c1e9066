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
``prune_dead_nodes`` then deactivates hidden units and inputs left with no
unmasked connections, which provably leaves the network function
unchanged.  The growth loop wraps all of this: it starts from a single
hidden unit and adds units until the pruned network is acceptable,
restarting from fresh weights when generalization fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import count

import numpy as np

from .data import DatasetBundle
from .errors import ParseError, check_float, check_int
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


@dataclass(frozen=True)
class RemovalEvent:
    """One pruning decision, in chronological order within a trace."""

    kind: str                  # weight-w | weight-v | input-node | hidden-node
    indices: tuple[int, ...]   # (m, l) for w, (p, m) for v, (l,) or (m,) for nodes
    trigger: str
    batch: int                 # removal batches share a batch id
    metric: float | None = None      # decision value, e.g. max_p |v*w|
    threshold: float | None = None
    rolled_back: bool = False
    accuracy_after_retrain: float | None = None
    implied_connections: int = 0     # weights newly masked by a node removal

    def to_json(self) -> str:
        return json.dumps({"type": "removal", **asdict(self)}, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict) -> "RemovalEvent":
        """The event of a parsed :meth:`to_json` line without its ``type``;
        raises ValueError naming the first field of the wrong type."""
        e = cls(**doc)
        number = (int, float, type(None))  # type(), not isinstance: true loads as a bool
        for name, ok in (
            ("kind", e.kind in (KIND_WEIGHT_W, KIND_WEIGHT_V, KIND_INPUT_NODE, KIND_HIDDEN_NODE)),
            ("indices", type(e.indices) is list and {type(i) for i in e.indices} <= {int}),
            ("trigger", e.trigger in (TRIGGER_PRODUCT, TRIGGER_MAGNITUDE, TRIGGER_SMALLEST,
                                      TRIGGER_DEAD_INPUT, TRIGGER_DEAD_HIDDEN)),
            ("batch", type(e.batch) is int),
            ("metric", type(e.metric) in number),
            ("threshold", type(e.threshold) in number),
            ("rolled_back", type(e.rolled_back) is bool),
            ("accuracy_after_retrain", type(e.accuracy_after_retrain) in number),
            ("implied_connections", type(e.implied_connections) is int),
        ):
            if not ok:
                raise ValueError(f"bad {name} {getattr(e, name)!r}")
        return replace(e, indices=tuple(e.indices))


@dataclass
class PruneTrace:
    """Audit log: removal events plus a network snapshot before each batch."""

    events: list[RemovalEvent] = field(default_factory=list)
    snapshots: dict[int, str] = field(default_factory=dict)  # batch -> serialized net

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
        lines = []
        for batch in sorted(self.snapshots):
            lines.append(
                json.dumps(
                    {"type": "snapshot", "batch": batch, "network": json.loads(self.snapshots[batch])},
                    sort_keys=True,
                )
            )
        lines.extend(e.to_json() for e in self.events)
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "PruneTrace":
        """Parse :meth:`to_jsonl` output; a line that is not JSON, lacks a
        field, holds one of another type than :meth:`to_jsonl` writes or a
        network :func:`deserialize` rejects raises ParseError naming its
        1-based line number."""
        trace = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                kind = doc.pop("type")
                if kind == "removal":
                    trace.events.append(RemovalEvent.from_doc(doc))
                elif kind != "snapshot":
                    raise ValueError(f"unknown line type {kind!r}")
                elif doc.keys() != {"batch", "network"} or type(doc["batch"]) is not int:
                    raise ValueError(f"snapshot needs an integer batch and a network, got {doc!r}")
                else:
                    network = deserialize(json.dumps(doc["network"]))
                    trace.snapshots[doc["batch"]] = serialize(network)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"trace line {lineno}: {type(exc).__name__}: {exc}") from None
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
    floor: float | None = None,
) -> tuple[Network, PruneTrace]:
    """Iteratively remove redundant weights from an already-trained network.

    Each round removes the batch ``removal_batch`` builds and retrains at
    learning rate ``lr`` toward the floor, by default the entry validation
    accuracy minus ``accuracy_drop_tolerance`` (pass ``floor`` to anchor it
    elsewhere, e.g. to a reference network's accuracy).  Elimination stops
    at an empty batch or at a round that cannot recover the floor, which is
    rolled back exactly.  The returned network is the last one that met the
    floor.
    """
    check_float("lr", lr, 0, math.inf)
    current = net.copy()
    if floor is None:
        baseline = accuracy(current, bundle.validation)
        floor = max(0.0, baseline - params.accuracy_drop_tolerance)
    else:
        check_float("floor", floor, 0, 1, "[]")
    trace = PruneTrace()
    for batch_id in count():
        batch = removal_batch(current, params, batch_id)
        if not batch:
            break
        trace.snapshots[batch_id] = serialize(current)
        candidate = current.copy()
        for event in batch:
            mask = candidate.w_mask if event.kind == KIND_WEIGHT_W else candidate.v_mask
            mask[event.indices] = False
        candidate.apply_masks()
        candidate, met = retrain(
            candidate,
            bundle.train,
            bundle.validation,
            lr,
            penalty,
            floor,
            params.retrain_max_epochs,
        )
        val_acc = accuracy(candidate, bundle.validation)
        trace.events.extend(
            replace(e, rolled_back=not met, accuracy_after_retrain=val_acc)
            for e in batch
        )
        if not met:
            break  # `current` was never touched: exact rollback
        current = candidate
    return current, trace


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


def grow_and_prune(
    bundle: DatasetBundle,
    base_config: NetworkConfig,
    tparams: TrainParams,
    penalty: PenaltyParams,
    params: PruneParams,
) -> tuple[Network, PruneTrace, GrowPruneReport]:
    """Grow a network from one hidden unit, pruning as it goes.

    A fully connected reference network (the base architecture) is trained
    first; its validation accuracy minus the configured tolerance is the
    acceptability floor.  Hidden units are then added one at a time, each
    size being trained and weight-eliminated, until a candidate meets the
    floor or ``max_hidden`` is reached.  Dead nodes are pruned and the
    candidate's generalization is checked on the test split; a failed check
    restarts everything from fresh weights, up to ``max_restarts`` times.
    The best candidate seen (test accuracy, then fewest connections) is
    returned, flagged ``converged=False`` when no restart fully succeeded.
    """
    max_hidden = params.max_hidden if params.max_hidden is not None else base_config.n_hidden + 2
    best: tuple[tuple[float, int], Network, PruneTrace, GrowPruneReport] | None = None

    for restart in range(params.max_restarts):
        full_config = replace(base_config, seed=derived_seed(base_config.seed, restart, 0))
        full_net = train(init_network(full_config), bundle.train, tparams, penalty)
        baseline_val = accuracy(full_net, bundle.validation)
        full_test = accuracy(full_net, bundle.test)
        val_floor = max(0.0, baseline_val - params.accuracy_drop_tolerance)
        test_floor = max(0.0, full_test - params.accuracy_drop_tolerance)

        accepted = False
        for h in range(1, max_hidden + 1):
            config_h = replace(
                base_config, n_hidden=h, seed=derived_seed(base_config.seed, restart, h)
            )
            net = train(init_network(config_h), bundle.train, tparams, penalty)
            net, trace = eliminate_weights(
                net, bundle, tparams.learning_rate, penalty, params, floor=val_floor
            )
            if accuracy(net, bundle.validation) >= val_floor:
                accepted = True
                break

        net = prune_dead_nodes(net, trace)
        pruned_val = accuracy(net, bundle.validation)
        pruned_test = accuracy(net, bundle.test)
        converged = accepted and pruned_test >= test_floor
        report = GrowPruneReport(
            initial_architecture=f"{base_config.n_inputs}-{base_config.n_hidden}-{base_config.n_outputs}",
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
        if converged:
            return net, trace, report
        key = (pruned_test, -net.n_unmasked())
        if best is None or key > best[0]:
            best = (key, net, trace, report)

    return best[1], best[2], best[3]
