"""nnprune: train small feedforward classifiers and simplify them.

The package trains one-hidden-layer tanh/logistic networks with a
penalty-regularized cross-entropy objective, removes redundant connections
by magnitude-product weight elimination, prunes dead input and hidden
nodes, and reproduces three classic benchmark experiments end to end.
"""

from .data import (
    CANCER1,
    DIABETES,
    GLASS,
    SPECS,
    DatasetBundle,
    DatasetSpec,
    Split,
    load_bundle,
    load_raw,
    prepare,
)
from .errors import (
    ConfigurationError,
    DatasetError,
    DivergenceError,
    ParseError,
    ShapeError,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    export_dot,
    load_config,
    run_experiment,
)
from .network import (
    Network,
    NetworkConfig,
    classify_batch,
    deserialize,
    forward_batch,
    init_network,
    serialize,
)
from .objective import (
    PenaltyParams,
    cross_entropy,
    finite_diff_check,
    gradients,
    objective,
    penalty,
)
from .pruning import (
    GrowPruneReport,
    PruneParams,
    PruneTrace,
    RemovalEvent,
    eliminate_weights,
    grow_and_prune,
    prune_dead_nodes,
    reference_config,
    removal_batch,
)
from .training import TrainParams, accuracy, descend, retrain, train

__version__ = "0.1.0"

__all__ = [
    "CANCER1",
    "DIABETES",
    "GLASS",
    "SPECS",
    "ConfigurationError",
    "DatasetBundle",
    "DatasetError",
    "DatasetSpec",
    "DivergenceError",
    "ExperimentConfig",
    "ExperimentReport",
    "GrowPruneReport",
    "Network",
    "NetworkConfig",
    "ParseError",
    "PenaltyParams",
    "PruneParams",
    "PruneTrace",
    "RemovalEvent",
    "ShapeError",
    "Split",
    "TrainParams",
    "accuracy",
    "classify_batch",
    "cross_entropy",
    "descend",
    "deserialize",
    "eliminate_weights",
    "export_dot",
    "finite_diff_check",
    "forward_batch",
    "gradients",
    "grow_and_prune",
    "init_network",
    "load_bundle",
    "load_config",
    "load_raw",
    "objective",
    "penalty",
    "prepare",
    "prune_dead_nodes",
    "reference_config",
    "removal_batch",
    "retrain",
    "run_experiment",
    "serialize",
    "train",
]
