"""Weight elimination and node pruning for trained networks.

Weight elimination repeatedly removes connections that the trained weights
show to be redundant:

* an input-to-hidden weight w[m, l] is removable when
  ``max_p |v[p, m] * w[m, l]| <= 4 * eta2`` (its worst-case influence on
  any output is below the threshold);
* a hidden-to-output weight v[p, m] is removable when
  ``|v[p, m]| <= 4 * eta2``;
* when nothing qualifies, the single w entry with the smallest
  ``max_p |v[p, m] * w[m, l]|`` is removed instead.

After each removal batch the network is retrained; if it can no longer
reach the accuracy floor, the batch is rolled back and elimination stops.
Node pruning then deactivates inputs and hidden units left with no
unmasked connections, which provably leaves the network function
unchanged.  The growth loop wraps all of this: it starts from a single
hidden unit and adds units until the pruned network is acceptable,
restarting from fresh weights when generalization fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DatasetBundle
from .errors import ConfigurationError, NoRemovableWeightError
from .network import Network, NetworkConfig, init_network, serialize
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

    eta1: float = 0.35
    eta2: float = 0.10
    accuracy_drop_tolerance: float = 0.02
    retrain_max_epochs: int = 100
    max_hidden: int | None = None  # None: base architecture's hidden count + 2
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if not (self.eta1 > 0 and self.eta2 > 0):
            raise ConfigurationError("eta1 and eta2 must be > 0")
        if not self.eta1 + self.eta2 < 0.5:
            raise ConfigurationError(
                f"eta1 + eta2 must be < 0.5, got {self.eta1 + self.eta2}"
            )
        if not 0.0 <= self.accuracy_drop_tolerance <= 1.0:
            raise ConfigurationError("accuracy_drop_tolerance must be in [0, 1]")
        if self.retrain_max_epochs < 0 or self.max_restarts < 1:
            raise ConfigurationError("retrain_max_epochs >= 0 and max_restarts >= 1 required")
        if self.max_hidden is not None and self.max_hidden < 1:
            raise ConfigurationError("max_hidden must be >= 1 when given")

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
        doc = {
            "type": "removal",
            "kind": self.kind,
            "indices": list(self.indices),
            "trigger": self.trigger,
            "batch": self.batch,
            "metric": self.metric,
            "threshold": self.threshold,
            "rolled_back": self.rolled_back,
            "accuracy_after_retrain": self.accuracy_after_retrain,
            "implied_connections": self.implied_connections,
        }
        return json.dumps(doc, sort_keys=True)


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
        trace = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if doc["type"] == "snapshot":
                trace.snapshots[int(doc["batch"])] = json.dumps(doc["network"], sort_keys=True)
            else:
                trace.events.append(
                    RemovalEvent(
                        kind=doc["kind"],
                        indices=tuple(doc["indices"]),
                        trigger=doc["trigger"],
                        batch=int(doc["batch"]),
                        metric=doc["metric"],
                        threshold=doc["threshold"],
                        rolled_back=bool(doc["rolled_back"]),
                        accuracy_after_retrain=doc["accuracy_after_retrain"],
                        implied_connections=int(doc.get("implied_connections", 0)),
                    )
                )
        return trace


def _influence(net: Network) -> np.ndarray:
    """Worst-case output influence per w entry: max_p |v[p, m] * w[m, l]|."""
    col_max_v = np.abs(net.v).max(axis=0)            # [h]
    return col_max_v[:, None] * np.abs(net.w)        # [h, n]


def condition_candidates(
    net: Network, params: PruneParams
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """All unmasked weights currently below the removal threshold.

    Returns ``(w_removals, v_removals)`` in lexicographic index order:
    (m, l) pairs with max_p |v[p, m] * w[m, l]| <= 4*eta2, and (p, m) pairs
    with |v[p, m]| <= 4*eta2.
    """
    thr = params.threshold
    influence = _influence(net)
    w_removals = [
        (int(m), int(l))
        for m, l in np.argwhere(net.w_mask & (influence <= thr))
    ]
    v_removals = [
        (int(p), int(m))
        for p, m in np.argwhere(net.v_mask & (np.abs(net.v) <= thr))
    ]
    return w_removals, v_removals


def smallest_product(net: Network) -> tuple[int, int]:
    """Unmasked (m, l) minimizing max_p |v[p, m] * w[m, l]|; ties pick the
    lexicographically smallest pair."""
    if not net.w_mask.any():
        raise NoRemovableWeightError("no unmasked input-to-hidden weights remain")
    influence = np.where(net.w_mask, _influence(net), np.inf)
    # argmin on the raveled array returns the first (lexicographically
    # smallest) index among equal minima
    m, l = np.unravel_index(int(np.argmin(influence)), influence.shape)
    return int(m), int(l)


def _apply_batch(net: Network, batch: list[RemovalEvent]) -> None:
    for event in batch:
        if event.kind == KIND_WEIGHT_W:
            m, l = event.indices
            net.w_mask[m, l] = False
        elif event.kind == KIND_WEIGHT_V:
            p, m = event.indices
            net.v_mask[p, m] = False
        else:
            raise ValueError(f"cannot apply event kind {event.kind}")
    net.apply_masks()


def eliminate_weights(
    net: Network,
    bundle: DatasetBundle,
    tparams: TrainParams,
    penalty: PenaltyParams,
    params: PruneParams,
    floor: float | None = None,
) -> tuple[Network, PruneTrace]:
    """Iteratively remove redundant weights from an already-trained network.

    Each round removes every threshold candidate at once (or the single
    smallest-influence w weight when there is none) and retrains toward the
    floor, by default the entry validation accuracy minus
    ``accuracy_drop_tolerance`` (pass ``floor`` to anchor it elsewhere,
    e.g. to a reference network's accuracy).  A round that cannot recover
    the floor is rolled back exactly and elimination stops.  The returned
    network is the last one that met the floor.
    """
    current = net.copy()
    if floor is None:
        baseline = accuracy(current, bundle.validation)
        floor = max(0.0, baseline - params.accuracy_drop_tolerance)
    trace = PruneTrace()
    batch_id = 0
    while True:
        w_cands, v_cands = condition_candidates(current, params)
        influence = _influence(current)
        batch: list[RemovalEvent] = []
        if w_cands or v_cands:
            for m, l in w_cands:
                batch.append(
                    RemovalEvent(
                        kind=KIND_WEIGHT_W,
                        indices=(m, l),
                        trigger=TRIGGER_PRODUCT,
                        batch=batch_id,
                        metric=float(influence[m, l]),
                        threshold=params.threshold,
                    )
                )
            for p, m in v_cands:
                batch.append(
                    RemovalEvent(
                        kind=KIND_WEIGHT_V,
                        indices=(p, m),
                        trigger=TRIGGER_MAGNITUDE,
                        batch=batch_id,
                        metric=float(abs(current.v[p, m])),
                        threshold=params.threshold,
                    )
                )
        else:
            try:
                m, l = smallest_product(current)
            except NoRemovableWeightError:
                break
            batch.append(
                RemovalEvent(
                    kind=KIND_WEIGHT_W,
                    indices=(m, l),
                    trigger=TRIGGER_SMALLEST,
                    batch=batch_id,
                    metric=float(influence[m, l]),
                    threshold=None,
                )
            )
        trace.snapshots[batch_id] = serialize(current)
        candidate = current.copy()
        _apply_batch(candidate, batch)
        candidate, met = retrain(
            candidate,
            bundle.train,
            bundle.validation,
            tparams,
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
        batch_id += 1
    return current, trace


def prune_dead_inputs(net: Network) -> tuple[Network, list[int]]:
    """Deactivate inputs whose entire outgoing weight column is masked.

    Forward outputs are unchanged: a fully masked column contributes zero
    for any input value.
    """
    net = net.copy()
    removed = [
        int(l)
        for l in range(net.n_inputs)
        if net.input_active[l] and not net.w_mask[:, l].any()
    ]
    for l in removed:
        net.input_active[l] = False
    return net, removed


def prune_dead_hidden(net: Network) -> tuple[Network, list[int]]:
    """Deactivate hidden units whose entire outgoing v column is masked.

    The unit's incoming w row is masked with it; since no output consumed
    the unit, forward outputs are unchanged.
    """
    net = net.copy()
    removed = [
        int(m)
        for m in range(net.n_hidden)
        if net.hidden_active[m] and not net.v_mask[:, m].any()
    ]
    for m in removed:
        net.hidden_active[m] = False
        net.w_mask[m, :] = False
    net.apply_masks()
    return net, removed


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
    """Apply both dead-node rules and log the removals in ``trace``.

    Hidden units go first, so inputs that fed only dead hidden units are
    removed too.  The events share one batch id after the last in ``trace``.
    """
    batch = 1 + max((e.batch for e in trace.events), default=-1)
    implied = {m: int(net.w_mask[m, :].sum()) for m in range(net.n_hidden)}
    pruned, dead_hidden = prune_dead_hidden(net)
    for m in dead_hidden:
        trace.events.append(
            RemovalEvent(
                kind=KIND_HIDDEN_NODE,
                indices=(m,),
                trigger=TRIGGER_DEAD_HIDDEN,
                batch=batch,
                implied_connections=implied[m],
            )
        )
    pruned, dead_inputs = prune_dead_inputs(pruned)
    for l in dead_inputs:
        trace.events.append(
            RemovalEvent(
                kind=KIND_INPUT_NODE,
                indices=(l,),
                trigger=TRIGGER_DEAD_INPUT,
                batch=batch,
            )
        )
    return pruned


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
        full_net, _ = train(init_network(full_config), bundle.train, tparams, penalty)
        baseline_val = accuracy(full_net, bundle.validation)
        full_test = accuracy(full_net, bundle.test)
        val_floor = max(0.0, baseline_val - params.accuracy_drop_tolerance)
        test_floor = max(0.0, full_test - params.accuracy_drop_tolerance)

        net = None
        trace = None
        accepted = False
        grown_h = 0
        for h in range(1, max_hidden + 1):
            grown_h = h
            config_h = NetworkConfig(
                n_inputs=base_config.n_inputs,
                n_hidden=h,
                n_outputs=base_config.n_outputs,
                init_range=base_config.init_range,
                seed=derived_seed(base_config.seed, restart, h),
            )
            net, _ = train(init_network(config_h), bundle.train, tparams, penalty)
            net, trace = eliminate_weights(
                net, bundle, tparams, penalty, params, floor=val_floor
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
            simplified_architecture=net.architecture(active_only=True),
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
            grown_hidden_units=grown_h,
        )
        if converged:
            return net, trace, report
        key = (pruned_test, -net.n_unmasked())
        if best is None or key > best[0]:
            best = (key, net, trace, report)

    return best[1], best[2], best[3]
