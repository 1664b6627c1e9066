"""Exception types shared across the package, and the value checks that raise one."""

from numbers import Integral, Real


class ConfigurationError(ValueError):
    """Invalid network, training, penalty, or pruning configuration."""


class ShapeError(ValueError):
    """Array arguments whose dimensions do not match the network or each other."""


class ParseError(ValueError):
    """Malformed serialized network, trace or data file, such as a data
    line whose class label is not in the label map."""


class DatasetError(ValueError):
    """Invalid dataset contents: too few records for three non-empty splits,
    a split with no examples, arrays of disagreeing shapes, non-finite
    attribute values, bad class indices."""


class DivergenceError(RuntimeError):
    """The training objective became non-finite."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is an
    integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


def check_float(name: str, value, low: float, high: float, closed: str = "()") -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is a real
    number (not a bool, not NaN) between ``low`` and ``high``; ``closed``
    holds the bracket of each end, e.g. ``"[)"`` for ``low <= value < high``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    left, right = closed
    if not (
        (low <= value if left == "[" else low < value)
        and (value <= high if right == "]" else value < high)
    ):
        raise ConfigurationError(f"{name} must be in {left}{low!r}, {high!r}{right}, got {value}")
