"""Steady-state scattering coefficients of a quantum-dot-microcavity system.

A singly charged quantum dot sits in a double-sided microcavity. In the weak
excitation approximation the cavity acts on a resonant single photon as a
beam-splitter-like element whose reflection/transmission amplitudes depend on
whether the dipole is coupled ("hot", g > 0) or uncoupled ("cold", g = 0):

    hot:   t  = -kappa * (i*dx + gamma/2) /
                 [ (i*dx + gamma/2) * (i*dc + kappa + kappa_s/2) + g^2 ]
           r  = 1 + t
    cold:  t0 = -kappa / (i*dc + kappa + kappa_s/2)
           r0 = 1 + t0

with dx = omega_x - omega and dc = omega_c - omega. All rates and detunings
share one arbitrary unit (the CLI normalizes kappa = 1); the formulas are
homogeneous in that unit.

The composite gate element ("basic block") built around one cavity has the
effective amplitudes

    D = (t + r + t0 + r0) / 2      reflection -> heralding detector
    T = (t + r - t0 - r0) / 2      transmission -> next stage

and the end-to-end photon survival of a gate with ``n`` target photons is
|T|^(4*(n+1)).

The formulas are written once, in ``_coeffs``, and apply elementwise: to the
floats of one ``CavityParams`` (``scatter_coeffs``) or to numpy arrays of
ratios, one entry per cavity point (``ratio_coeffs``, for the batched sweep
and scan). ``block_coeffs`` and ``efficiency`` are elementwise too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegeneratePhysicsError, ValidationError, check_count, refuse_where

# A scattering denominator no larger than this fraction of the summed
# magnitudes of its terms has cancelled to rounding noise (or is exactly 0)
# and is treated as degenerate. The test is relative because the formulas are
# homogeneous in the rate unit: scaling every rate leaves the coefficients
# unchanged. Of the parameters CavityParams accepts, only
# g = gamma = omega_x - omega = 0 makes a denominator exactly 0.
DENOMINATOR_REL_EPS = 1e-15


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of one quantum-dot-microcavity system.

    g        dipole-cavity coupling strength
    kappa    cavity decay rate into the input/output modes (> 0)
    kappa_s  cavity side-leakage rate (>= 0)
    gamma    exciton dipole decay rate (>= 0)
    omega    photon frequency
    omega_c  cavity resonance frequency
    omega_x  exciton transition frequency

    All in one consistent rate unit; only the detunings omega_c - omega and
    omega_x - omega enter the coefficients.
    """

    g: float
    kappa: float
    kappa_s: float = 0.0
    gamma: float = 0.0
    omega: float = 0.0
    omega_c: float = 0.0
    omega_x: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if not self.kappa > 0:
            raise ValidationError(f"kappa must be > 0, got {self.kappa}")
        if self.kappa_s < 0:
            raise ValidationError(f"kappa_s must be >= 0, got {self.kappa_s}")
        if self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if self.g < 0:
            raise ValidationError(f"g must be >= 0, got {self.g}")

    @classmethod
    def from_ratios(cls, g_ratio: float, ks_ratio: float, gamma_ratio: float = 0.1,
                    detuning_c: float = 0.0, detuning_x: float = 0.0) -> "CavityParams":
        """Build parameters in kappa = 1 units from the dimensionless ratios
        g/(kappa+kappa_s), kappa_s/kappa and gamma/kappa. Detunings are
        omega_c - omega and omega_x - omega in units of kappa."""
        return cls(**_rates(g_ratio, ks_ratio, gamma_ratio, detuning_c, detuning_x))


def _rates(g_ratio, ks_ratio, gamma_ratio, detuning_c, detuning_x) -> dict:
    """CavityParams' fields, in kappa = 1 units, from the ratios of
    ``CavityParams.from_ratios``; elementwise on arrays."""
    kappa = 1.0
    kappa_s = ks_ratio * kappa
    return {"g": g_ratio * (kappa + kappa_s), "kappa": kappa, "kappa_s": kappa_s,
            "gamma": gamma_ratio * kappa, "omega": 0.0,
            "omega_c": detuning_c, "omega_x": detuning_x}


@dataclass(frozen=True)
class ScatterCoeffs:
    """Single-pass cavity amplitudes: (r, t) for the hot cavity and (r0, t0)
    for the cold one. Constructed so r = 1 + t and r0 = 1 + t0 hold exactly."""

    r: complex
    t: complex
    r0: complex
    t0: complex


@dataclass(frozen=True)
class BlockCoeffs:
    """Effective basic-block amplitudes: D heralds (detector), T transmits."""

    D: complex
    T: complex


@dataclass(frozen=True)
class DephasingParams:
    """Cavity photon lifetime tau and electron spin coherence time t2, in the
    same time unit."""

    tau: float
    t2: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValidationError(f"tau must be > 0, got {self.tau}")
        if not self.t2 > 0:
            raise ValidationError(f"t2 must be > 0, got {self.t2}")


class _Complexes:
    """Complex numbers held as (real, imag) numpy arrays whose arithmetic
    rounds as CPython's complex numbers do, a float operand first made the
    complex (x, 0.0). numpy's own complex multiply, divide and abs round
    differently, and a batch of points must give bit for bit the
    coefficients of ``scatter_coeffs``: a sweep point reports the single
    point's |T|, down to the exact 0 that hot and cold coefficients often
    give at g = 0. Only the operations of ``_coeffs`` are defined."""

    __array_ufunc__ = None   # an ndarray operand defers to this class

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def _of(z) -> "_Complexes":
        return z if isinstance(z, _Complexes) else _Complexes(z, 0.0)

    def __add__(self, other):
        other = self._of(other)
        return _Complexes(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._of(other)
        return _Complexes(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Smith's method, as CPython divides: scaled by whichever of the
        divisor's parts is larger in magnitude (the real part on a tie). A
        zero divisor gives nan."""
        b = self._of(other)
        swap = abs(b.im) > abs(b.re)
        big, small = np.where(swap, b.im, b.re), np.where(swap, b.re, b.im)
        u, w = np.where(swap, self.im, self.re), np.where(swap, self.re, self.im)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = small / big
            denom = big + small * ratio
            return _Complexes((u + w * ratio) / denom,
                              np.where(swap, u * ratio - w, w - u * ratio) / denom)

    def __rtruediv__(self, other):
        return self._of(other) / self

    def __abs__(self):
        return np.hypot(self.re, self.im)   # libm's hypot, as abs(complex)

    def array(self) -> np.ndarray:
        out = np.empty(np.broadcast(self.re, self.im).shape, dtype=complex)
        out.real = self.re
        out.imag = self.im
        return out


def _checked_div(num, den, scale):
    """num / den and whether den stands clear of rounding noise, ``scale``
    being the summed magnitude of den's terms. On arrays, elementwise: where
    den does not, the quotient is meaningless. On one point such a den
    raises DegeneratePhysicsError."""
    ok = abs(den) > DENOMINATOR_REL_EPS * scale
    if not (isinstance(ok, np.ndarray) or ok):
        raise DegeneratePhysicsError(
            f"scattering denominator vanishes (den={den!r}, terms of size {scale!r})")
    return num / den, ok


def _coeffs(g, kappa, kappa_s, gamma, omega, omega_c, omega_x, number=complex):
    """The formulas of the module docstring, in ``number``: Python's complex
    for one point, ``_Complexes`` for numpy arrays of points. The
    ScatterCoeffs, and where both denominators stand clear of rounding noise
    (see ``_checked_div``)."""
    dipole = number(0.0, omega_x - omega) + gamma / 2.0
    cavity = number(0.0, omega_c - omega) + kappa + kappa_s / 2.0
    t, hot = _checked_div(-kappa * dipole, dipole * cavity + g * g,
                          abs(dipole) * abs(cavity) + g * g)
    t0, cold = _checked_div(number(-kappa, 0.0), cavity, abs(cavity))
    return ScatterCoeffs(r=1.0 + t, t=t, r0=1.0 + t0, t0=t0), hot & cold


def scatter_coeffs(p: CavityParams) -> ScatterCoeffs:
    """Full coefficient set for the given parameters: the hot pair (r, t) at
    coupling p.g, plus the cold pair (r0, t0) of the same cavity. At g = 0
    the hot pair reduces to the cold one."""
    return _coeffs(p.g, p.kappa, p.kappa_s, p.gamma, p.omega, p.omega_c, p.omega_x)[0]


def ratio_coeffs(g_ratio, ks_ratio, gamma_ratio, detuning_c, detuning_x):
    """``scatter_coeffs`` of ``CavityParams.from_ratios``, elementwise over
    numpy arrays of ratios (broadcast together), one entry per cavity point:
    the ScatterCoeffs of complex arrays, bit for bit those of each point, and
    the mask of the points whose denominators stand clear of rounding noise
    (elsewhere the coefficients are meaningless). The ratios are not
    checked: the caller passes what CavityParams would accept."""
    s, ok = _coeffs(**_rates(g_ratio, ks_ratio, gamma_ratio, detuning_c, detuning_x),
                    number=_Complexes)
    return ScatterCoeffs(r=s.r.array(), t=s.t.array(), r0=s.r0.array(), t0=s.t0.array()), ok


def block_coeffs(s: ScatterCoeffs) -> BlockCoeffs:
    """Effective basic-block amplitudes from the single-pass coefficients;
    elementwise on arrays."""
    D = (s.t + s.r + s.t0 + s.r0) / 2.0
    T = (s.t + s.r - s.t0 - s.r0) / 2.0
    return BlockCoeffs(D=D, T=T)


def clip_unit(value):
    """value limited to [0, 1]: builtin min and max on a float, elementwise
    on an array."""
    if isinstance(value, np.ndarray):
        return np.minimum(np.maximum(value, 0.0), 1.0)
    return max(0.0, min(value, 1.0))


def efficiency(T, n_targets: int = 1):
    """Probability that every photon of a gate with ``n_targets`` target
    photons survives to the output: |T|^(4*(n_targets+1)); elementwise on an
    array of T."""
    check_count(n_targets, "n_targets")
    mag = abs(T)
    refuse_where(mag > 1.0 + 1e-12, mag, ValidationError, "|T| must be <= 1, got {}")
    return clip_unit(mag) ** (4 * (n_targets + 1))


def dephasing_penalty(d: DephasingParams) -> float:
    """Per-cavity fidelity penalty from spin dephasing over one photon
    lifetime: 1 - exp(-tau/t2)."""
    return 1.0 - math.exp(-d.tau / d.t2)
