"""Steady-state scattering coefficients of a quantum-dot-microcavity system.

A singly charged quantum dot sits in a double-sided microcavity (Hu et al.,
PRB 78, 085307 (2008)). In the weak excitation approximation the cavity acts
on a single photon as a beam-splitter-like element whose reflection and
transmission amplitudes depend on whether the dipole is coupled ("hot",
g > 0) or uncoupled ("cold", g = 0). With

    d = i*(omega_x - omega) + gamma/2               (dipole)
    c = i*(omega_c - omega) + kappa + kappa_s/2     (cavity)

they are

    hot:   t  = -kappa * d / (d*c + g^2)    r  = 1 + t
    cold:  t0 = -kappa / c                  r0 = 1 + t0

All rates and detunings share one arbitrary unit (the CLI normalizes
kappa = 1); the formulas are homogeneous in that unit, and ``_coeffs``
evaluates them in units of kappa (kappa = 1, omega = 0, the detunings
omega_c - omega and omega_x - omega), so that no square underflows or
overflows in a tiny or huge unit. ``scatter_coeffs`` divides one point's
parameters by kappa; the ratios of ``ratio_coeffs`` are in those units
already.

The composite gate element ("basic block") built around one cavity
sandwiches it between two Hadamard wave plates, H = [[1, 1], [1, -1]]/sqrt2
on (R, L). The cavity answers both of its ports alike: h = t + r on the
polarization the spin couples to the dipole, h0 = t0 + r0 on the other. Spin
up couples the first Hadamard-frame polarization and spin down the second,
so the block maps an incoming R photon by

    H diag(h, h0) H = [[D, T], [T, D]]      (spin down: T -> -T)

    D = (h + h0)/2 = 1 + t + t0     on R: to the heralding detector
    T = (h - h0)/2 = t - t0         on L: to the next stage
                   = kappa g^2 / (c (d*c + g^2))

``_coeffs`` takes T from that closed form and builds t = t0 + T, so at g = 0
the hot pair is the cold pair exactly and T is exactly 0. ``block_coeffs``
keeps that closed-form T rather than taking (h - h0)/2 again: at weak
coupling t = t0 + T has already rounded against t0 (about -1), which would
cost T its relative precision (a few parts in 10^6 at g/(kappa+kappa_s) =
6e-7 on resonance). The end-to-end
photon survival of a gate with ``n`` target photons is |T|^(4*(n+1)).

The formulas are written once, in ``_coeffs``, and apply elementwise: to the
floats of one ``CavityParams`` (``scatter_coeffs``) or to numpy arrays of
ratios, one entry per cavity point (``ratio_coeffs``, for the batched sweep
and scan). ``block_coeffs`` and ``efficiency`` are elementwise too. Their
records, ``ScatterCoeffs`` and ``BlockCoeffs``, are NamedTuples: immutable,
compared by value, and cheap to build once per gate run or chunk of points.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePhysicsError,
    ValidationError,
    check_count,
    check_real,
    refuse_where,
)

# A scattering denominator no larger than this fraction of the summed
# magnitudes of its terms has cancelled to rounding noise (or is exactly 0)
# and is treated as degenerate. The test is relative because the formulas are
# homogeneous in the rate unit: scaling every rate leaves the coefficients
# unchanged. Of the parameters CavityParams accepts, only
# g = gamma = omega_x - omega = 0 makes a denominator exactly 0.
DENOMINATOR_REL_EPS = 1e-15

# The largest float, which stands in for a coupling's square that overflows
# (g past about 1.3e154): it dwarfs d*c as an infinite g^2 would, so T takes
# its strong-coupling limit kappa/c, and every finite g^2 is kept as it is.
_G2_MAX = sys.float_info.max


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
    omega_x - omega enter the coefficients. Each field is stored as the
    Python float it equals (see ``errors.check_real``).
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
            object.__setattr__(self, f.name, check_real(getattr(self, f.name), f.name))
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
        ratios = {"g_ratio": g_ratio, "ks_ratio": ks_ratio, "gamma_ratio": gamma_ratio,
                  "detuning_c": detuning_c, "detuning_x": detuning_x}
        return cls(**_rates(**{k: check_real(v, k) for k, v in ratios.items()}))


def _rates(g_ratio, ks_ratio, gamma_ratio, detuning_c, detuning_x) -> dict:
    """CavityParams' fields, in kappa = 1 units, from the ratios of
    ``CavityParams.from_ratios``; elementwise on arrays."""
    kappa = 1.0
    kappa_s = ks_ratio * kappa
    return {"g": g_ratio * (kappa + kappa_s), "kappa": kappa, "kappa_s": kappa_s,
            "gamma": gamma_ratio * kappa, "omega": 0.0,
            "omega_c": detuning_c, "omega_x": detuning_x}


class ScatterCoeffs(NamedTuple):
    """Single-pass cavity amplitudes: (r, t) for the hot cavity and (r0, t0)
    for the cold one, and T = t - t0 in its closed form. Constructed so
    r = 1 + t, r0 = 1 + t0 and t = t0 + T hold exactly."""

    r: complex
    t: complex
    r0: complex
    t0: complex
    T: complex


class BlockCoeffs(NamedTuple):
    """Effective basic-block amplitudes: D heralds (detector), T transmits."""

    D: complex
    T: complex


@dataclass(frozen=True)
class DephasingParams:
    """Cavity photon lifetime tau and electron spin coherence time t2, in the
    same time unit; each a finite float (see ``errors.check_real``)."""

    tau: float
    t2: float

    def __post_init__(self):
        for f in fields(self):
            value = check_real(getattr(self, f.name), f.name)
            if value <= 0:
                raise ValidationError(f"{f.name} must be > 0, got {value}")
            object.__setattr__(self, f.name, value)


def _coeffs(g, kappa_s, gamma, detuning_c, detuning_x):
    """The formulas of the module docstring in units of kappa (kappa = 1,
    omega = 0: every rate and the detunings omega_c - omega and
    omega_x - omega divided by kappa), in the arithmetic of the inputs:
    Python's complex for the floats of one point, numpy complex arrays for
    arrays of points. The ScatterCoeffs, and whether the hot denominator
    d*c + g^2 stands clear of rounding noise, its magnitude above
    ``DENOMINATOR_REL_EPS`` times |d|*|c| + g^2 (c never vanishes: its real
    part is at least kappa = 1); terms that overflow the float range fail it
    too. On arrays that test is elementwise and the coefficients where it
    fails are meaningless; on one point a failure raises
    DegeneratePhysicsError. A g^2 that overflows is taken as ``_G2_MAX``,
    which gives T its strong-coupling limit. Python's float arithmetic never
    warns, and on one point nothing is divided by 0; ``ratio_coeffs``
    silences numpy's warnings around the call."""
    dipole = 1j * detuning_x + gamma / 2.0
    cavity = 1j * detuning_c + 1.0 + kappa_s / 2.0
    g2 = g * g
    g2 = np.minimum(g2, _G2_MAX) if isinstance(g2, np.ndarray) else min(g2, _G2_MAX)
    den = dipole * cavity + g2
    try:
        scale = abs(dipole) * abs(cavity) + g2
        ok = abs(den) > DENOMINATOR_REL_EPS * scale
    except OverflowError:   # Python's abs of a complex past the float range
        scale = math.inf
        ok = np.zeros(den.shape, bool) if isinstance(den, np.ndarray) else False
    if not (isinstance(ok, np.ndarray) or ok):
        what = "terms overflow" if scale == math.inf else "denominator vanishes"
        raise DegeneratePhysicsError(f"scattering {what} (den={den!r}, terms of size {scale!r})")
    leak = 1.0 / cavity   # -t0
    # T = kappa g^2 / (c (d c + g^2)), exactly 0 at g = 0
    T = leak * (g2 / den)
    t0 = -leak
    t = t0 + T
    return ScatterCoeffs(r=1.0 + t, t=t, r0=1.0 + t0, t0=t0, T=T), ok


def scatter_coeffs(p: CavityParams) -> ScatterCoeffs:
    """Full coefficient set for the given parameters: the hot pair (r, t) at
    coupling p.g, plus the cold pair (r0, t0) of the same cavity. At g = 0
    the hot pair is the cold one exactly. The rates and detunings are
    taken in units of p.kappa, so the result does not depend on the unit:
    in a tiny unit g^2 would underflow, in a huge one d*c would overflow.
    At kappa = 1 the division is exact. A coupling past the float range in
    that unit is the strong-coupling limit (see ``_coeffs``); any other
    rate or detuning there is refused."""
    k = p.kappa
    rates = (p.kappa_s / k, p.gamma / k, (p.omega_c - p.omega) / k, (p.omega_x - p.omega) / k)
    if not all(map(math.isfinite, rates)):
        raise ValidationError(
            "kappa_s, gamma and the detunings must stay finite in units of kappa, got "
            + ", ".join(map(repr, rates)))
    return _coeffs(p.g / k, *rates)[0]


def ratio_coeffs(g_ratio, ks_ratio, gamma_ratio, detuning_c, detuning_x):
    """``scatter_coeffs`` of ``CavityParams.from_ratios``, elementwise over
    numpy arrays of ratios (broadcast together), one entry per cavity point:
    the ScatterCoeffs of complex arrays (the cold pair over ks_ratio and
    detuning_c only, the ratios it depends on), which agree with each
    point's to about 4e-16 (numpy rounds complex products and quotients
    differently from Python; the block's T is exactly 0 at g = 0 on both),
    and the mask of the points whose denominators stand clear of rounding
    noise (elsewhere the coefficients are meaningless). The ratios are
    already in units of kappa, so they go to ``_coeffs`` as they are, but
    for g = g_ratio (1 + ks_ratio), as ``_rates`` forms it. The ratios are
    not checked: the caller passes what CavityParams would accept. Overflow,
    0/0 and the like at such points are expected, and numpy's warnings of
    them are silenced."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _coeffs(g_ratio * (1.0 + ks_ratio), ks_ratio, gamma_ratio, detuning_c, detuning_x)


def block_coeffs(s: ScatterCoeffs) -> BlockCoeffs:
    """Effective basic-block amplitudes from the single-pass coefficients,
    H diag(h, h0) H of the module docstring: D = (h + h0)/2 = 1 + t + t0,
    and T the closed form the coefficients carry, which (h - h0)/2 matches
    only to the rounding of t; elementwise on arrays."""
    return BlockCoeffs(D=((s.t + s.r) + (s.t0 + s.r0)) / 2.0, T=s.T)


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
    n_targets = check_count(n_targets, "n_targets")
    mag = abs(T)
    refuse_where(mag > 1.0 + 1e-12, mag, ValidationError, "|T| must be <= 1, got {}")
    return clip_unit(mag) ** (4 * (n_targets + 1))


def dephasing_penalty(d: DephasingParams) -> float:
    """Per-cavity fidelity penalty from spin dephasing over one photon
    lifetime: 1 - exp(-tau/t2)."""
    return 1.0 - math.exp(-d.tau / d.t2)
