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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DegeneratePhysicsError, ValidationError, check_count

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
        kappa = 1.0
        kappa_s = ks_ratio * kappa
        return cls(
            g=g_ratio * (kappa + kappa_s),
            kappa=kappa,
            kappa_s=kappa_s,
            gamma=gamma_ratio * kappa,
            omega=0.0,
            omega_c=detuning_c,
            omega_x=detuning_x,
        )


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


def _checked_div(num: complex, den: complex, scale: float) -> complex:
    """num / den, where ``scale`` is the summed magnitude of den's terms."""
    if not abs(den) > DENOMINATOR_REL_EPS * scale:
        raise DegeneratePhysicsError(
            f"scattering denominator vanishes (den={den!r}, terms of size {scale!r})")
    return num / den


def scatter_coeffs(p: CavityParams) -> ScatterCoeffs:
    """Full coefficient set for the given parameters: the hot pair (r, t) at
    coupling p.g, plus the cold pair (r0, t0) of the same cavity. At g = 0
    the hot pair reduces to the cold one."""
    dx = p.omega_x - p.omega
    dc = p.omega_c - p.omega
    dipole = complex(0.0, dx) + p.gamma / 2.0
    cavity = complex(0.0, dc) + p.kappa + p.kappa_s / 2.0
    t = _checked_div(-p.kappa * dipole, dipole * cavity + p.g * p.g,
                     abs(dipole) * abs(cavity) + p.g * p.g)
    t0 = _checked_div(complex(-p.kappa), cavity, abs(cavity))
    return ScatterCoeffs(r=1.0 + t, t=t, r0=1.0 + t0, t0=t0)


def block_coeffs(s: ScatterCoeffs) -> BlockCoeffs:
    """Effective basic-block amplitudes from the single-pass coefficients."""
    D = (s.t + s.r + s.t0 + s.r0) / 2.0
    T = (s.t + s.r - s.t0 - s.r0) / 2.0
    return BlockCoeffs(D=D, T=T)


def efficiency(T: complex, n_targets: int = 1) -> float:
    """Probability that every photon of a gate with ``n_targets`` target
    photons survives to the output: |T|^(4*(n_targets+1))."""
    check_count(n_targets, "n_targets")
    mag = abs(T)
    if mag > 1.0 + 1e-12:
        raise ValidationError(f"|T| must be <= 1, got {mag}")
    return min(mag, 1.0) ** (4 * (n_targets + 1))


def dephasing_penalty(d: DephasingParams) -> float:
    """Per-cavity fidelity penalty from spin dephasing over one photon
    lifetime: 1 - exp(-tau/t2)."""
    return 1.0 - math.exp(-d.tau / d.t2)
