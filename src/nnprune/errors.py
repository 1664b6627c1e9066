"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid network, training, penalty, or pruning configuration."""


class ShapeError(ValueError):
    """Array arguments whose dimensions do not match the network or each other."""


class ParseError(ValueError):
    """Malformed serialized network or data file."""


class DatasetError(ValueError):
    """Invalid dataset contents: empty splits, unmapped class labels, bad indices."""


class DivergenceError(RuntimeError):
    """The training objective became non-finite."""
