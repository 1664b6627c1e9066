"""Exception types shared across the package, and the integer check that raises one."""

from numbers import Integral


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


def check_int(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is an
    integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
