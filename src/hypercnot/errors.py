"""Exception types shared across the package.

Kept in one module so the CLI can map each class to a distinct exit code
without importing the physics modules for their side effects.
"""
import numbers


class ValidationError(ValueError):
    """Malformed or non-normalized user input (bad coefficients, indices, flags)."""


class DegeneratePhysicsError(ValueError):
    """Physically degenerate parameters: vanishing denominators or a block that
    never transmits (|T| = 0), so no coherent amplitude can survive."""


class AmplitudeLostError(DegeneratePhysicsError):
    """All coherent amplitude was lost before a measurement could be taken."""


def check_count(value, name: str, limit: int | None = None) -> int:
    """A count of targets, cases or shots: an integer >= 1 that is not a
    bool, and at most ``limit`` if one is given; returned as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an int >= 1, got {value!r}")
    if limit is not None and value > limit:
        raise ValidationError(f"{name} must be <= {limit}, got {value!r}")
    return int(value)


def check_real(value, name: str) -> float:
    """A real number that is not a bool, a numpy one included, returned as
    the Python float it equals: a float32 or a numpy integer would otherwise
    set the precision of the arithmetic it enters."""
    # numpy's bool_ is no numbers.Real; Python's bool is an Integral
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def refuse_where(bad, value, error: type, message: str) -> None:
    """Raise ``error(message.format(v))`` if ``bad`` holds. ``bad`` is a
    bool, or an array checked elementwise; ``value`` is a number, or an array
    of bad's shape where v is the value at the first entry that is bad."""
    if bad is False:   # one point that passes: the common case, kept cheap
        return
    if getattr(bad, "ndim", 0):
        if bad.any():
            raise error(message.format(value[bad][0] if getattr(value, "ndim", 0)
                                       else value))
    elif bad:
        raise error(message.format(value))
