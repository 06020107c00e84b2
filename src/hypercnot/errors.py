"""Exception types shared across the package, and the checks of the numbers
a caller passes in.

Kept in one module so the CLI can map each class to a distinct exit code
without importing the physics modules for their side effects.
"""
import cmath
import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """Malformed or non-normalized user input (bad coefficients, indices, flags)."""


class DegeneratePhysicsError(ValueError):
    """Physically degenerate parameters: vanishing denominators or a block that
    never transmits (|T| = 0), so no coherent amplitude can survive."""


class AmplitudeLostError(DegeneratePhysicsError):
    """All coherent amplitude was lost before a measurement could be taken."""


def check_count(value, name: str, limit: int | None = None, low: int = 1) -> int:
    """An integer >= ``low`` that is not a bool, and at most ``limit`` if one
    is given, returned as an int: a count of targets, cases or shots, or at
    ``low`` 0 a seed or an index."""
    # an exact int skips numbers.Integral's slow check; a bool's class is bool
    if (value.__class__ is not int and (isinstance(value, bool)
                                        or not isinstance(value, numbers.Integral))
            or value < low):
        raise ValidationError(f"{name} must be an int >= {low}, got {value!r}")
    if limit is not None and value > limit:
        raise ValidationError(f"{name} must be <= {limit}, got {value!r}")
    return int(value)


def check_seed(seed, name: str) -> int | None:
    """A seed numpy's generators accept: None, or a count >= 0."""
    return None if seed is None else check_count(seed, name, low=0)


def check_real(value, name: str) -> float:
    """A finite real number that is not a bool, a numpy one included,
    returned as the Python float it equals: a float32 or a numpy integer
    would otherwise set the precision of the arithmetic it enters. An int
    beyond the float range is refused, as a non-finite value is."""
    if value.__class__ is not float:   # an exact float skips every isinstance
        # float first: numbers.Real's check is slow, and numpy's float64 is a
        # float; numpy's bool_ is no numbers.Real, Python's bool an Integral
        if not isinstance(value, float) and (isinstance(value, bool)
                                             or not isinstance(value, numbers.Real)):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        try:   # a number past the float range overflows; its repr may be too long
            value = float(value)
        except OverflowError:
            raise ValidationError(
                f"{name} must be finite, got a number past the float range") from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def check_number(value, name: str) -> float | complex:
    """``check_real`` for a number that may be complex: a finite number that
    is not a bool, returned as a Python float when it is real and as a
    Python complex otherwise."""
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Number)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if isinstance(value, (float, numbers.Real)):
        return check_real(value, name)
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def refuse_where(bad, value, error: type, message: str) -> None:
    """Raise ``error(message.format(v))`` if ``bad`` holds. ``bad`` is a
    bool, or an array checked elementwise; ``value`` is a number, or an array
    of bad's shape where v is the value at the first entry that is bad."""
    if bad is False:   # one point that passes: the common case, kept cheap
        return
    if getattr(bad, "ndim", 0):
        if np.count_nonzero(bad):   # on a few points, a third of .any()'s cost
            raise error(message.format(value[bad][0] if getattr(value, "ndim", 0)
                                       else value))
    elif bad:
        raise error(message.format(value))
