"""Sparse amplitude state of P dual-rail photons and two stationary spins.

Each photon carries two bits: a circular-polarization bit (R=0, L=1) and a
spatial-mode bit (mode 1 = 0, mode 2 = 1). Two spin bits (up=0, down=1)
follow the photon bits. A basis label packs them into one integer in the
canonical order

    photon 0 pol | photon 0 spatial | photon 1 pol | ... | spin 1 | spin 2

with "photon 0 pol" the least significant bit. This ordering is part of the
public contract; CLI reports and tests rely on it.

Amplitudes live in a sparse dict keyed by the packed label. The state is not
kept normalized: heralding and absorption take probability mass out of the
coherent amplitudes. The state keeps no record of it; the element that
removes the mass returns it (see ``circuit``), so for any initially
normalized state

    sum |amplitude|^2  +  sum of the masses the elements returned  =  1

holds (to rounding) after every complete element application. All probability
reductions use math.fsum, so results do not depend on dict insertion order.
"""
from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum

from .errors import ValidationError

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Where a heralded-failure or lost shot ends. The detector names key the
# gate's detector_probs and SampleStats.detector_clicks.
DETECTOR_B1 = "detector_B1"
DETECTOR_B2 = "detector_B2"
ABSORBED = "absorbed"

# Tolerance on |c0|^2 + |c1|^2 = 1 for ingested coefficient pairs.
NORM_TOL = 1e-9

# Most amplitudes the library builds for one result, checked before it is
# built: the four corrected branch states of a gate together, a state with
# the spins from ``init_state`` or a Hadamard, or an ideal output state. The
# limit admits CNOT^8 with every photon in superposition (4 branches of 4^9
# photon labels); each further photon in superposition multiplies the count
# by 4, so such a result is refused instead of exhausting memory.
MAX_AMPLITUDES = 4**10


class Pol(IntEnum):
    """Circular polarization bit."""
    R = 0
    L = 1


class Spatial(IntEnum):
    """Spatial-mode bit (path 1 or path 2)."""
    M1 = 0
    M2 = 1


class Spin(IntEnum):
    """Electron spin bit in the measurement basis."""
    UP = 0
    DOWN = 1


@dataclass(frozen=True)
class PhotonSpec:
    """Input single-photon state: complex coefficient pairs for (R, L) and
    (mode 1, mode 2). Each pair must be a sequence (not a string) of exactly
    two numbers (not bools), finite and normalized within NORM_TOL."""

    pol: tuple[complex, complex]
    spatial: tuple[complex, complex]

    def __post_init__(self):
        for name in ("pol", "spatial"):
            pair = getattr(self, name)
            if (isinstance(pair, (str, bytes)) or not isinstance(pair, Sequence)
                    or len(pair) != 2
                    or not all(isinstance(c, numbers.Number) and not isinstance(c, bool)
                               for c in pair)):
                raise ValidationError(f"{name} must be a pair of numbers, got {pair!r}")
            object.__setattr__(self, name, (complex(pair[0]), complex(pair[1])))
        for name, pair in (("pol", self.pol), ("spatial", self.spatial)):
            if not all(map(cmath.isfinite, pair)):
                raise ValidationError(f"{name} pair {pair} is not finite")
            nrm = abs(pair[0]) ** 2 + abs(pair[1]) ** 2
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValidationError(
                    f"{name} pair {pair} has squared norm {nrm:.12g}, expected 1")

    @classmethod
    def basis(cls, pol: Pol, spatial: Spatial) -> "PhotonSpec":
        return cls(pol=(1 - int(pol), int(pol)), spatial=(1 - int(spatial), int(spatial)))

    @classmethod
    def uniform(cls) -> "PhotonSpec":
        """Uniform superposition in both degrees of freedom."""
        h = (_SQRT_HALF, _SQRT_HALF)
        return cls(pol=h, spatial=h)


def pol_mask(photon: int) -> int:
    return 1 << (2 * photon)


def spatial_mask(photon: int) -> int:
    return 1 << (2 * photon + 1)


def spin_mask(n_photons: int, which_spin: int) -> int:
    return 1 << (2 * n_photons + which_spin - 1)


def pack_label(pol_bits: Sequence[int], spatial_bits: Sequence[int],
               spin_bits: Sequence[int] = ()) -> int:
    """Pack per-photon (pol, spatial) bits and optional (spin1, spin2) bits
    into a canonical basis label."""
    if len(pol_bits) != len(spatial_bits):
        raise ValidationError("pol_bits and spatial_bits must have equal length")
    bits = 0
    for i, (p, s) in enumerate(zip(pol_bits, spatial_bits)):
        bits |= (int(p) & 1) << (2 * i)
        bits |= (int(s) & 1) << (2 * i + 1)
    for k, sp in enumerate(spin_bits):
        bits |= (int(sp) & 1) << (2 * len(pol_bits) + k)
    return bits


@dataclass(frozen=True)
class BasisLabel:
    """Unpacked view of one basis label; str() gives the report form, e.g.
    ``a:R,1 b:L,2`` (photon 0 is named a, targets b or b1..bN)."""

    bits: int
    n_photons: int
    has_spins: bool = True

    def pol(self, photon: int) -> Pol:
        return Pol((self.bits >> (2 * photon)) & 1)

    def spatial(self, photon: int) -> Spatial:
        return Spatial((self.bits >> (2 * photon + 1)) & 1)

    def spin(self, which_spin: int) -> Spin:
        return Spin((self.bits >> (2 * self.n_photons + which_spin - 1)) & 1)

    def photon_name(self, photon: int) -> str:
        if photon == 0:
            return "a"
        return "b" if self.n_photons == 2 else f"b{photon}"

    def __str__(self) -> str:
        parts = [f"{self.photon_name(i)}:{self.pol(i).name},{int(self.spatial(i)) + 1}"
                 for i in range(self.n_photons)]
        if self.has_spins:
            parts.append(f"s1:{self.spin(1).name.lower()} s2:{self.spin(2).name.lower()}")
        return " ".join(parts)


class HyperState:
    """Joint amplitude state of ``n_photons`` photons plus (optionally) the
    two spins. Amplitudes that become exactly zero are dropped, so no
    information is ever lost.
    """

    def __init__(self, n_photons: int, amplitudes: dict[int, complex] | None = None,
                 has_spins: bool = True):
        if n_photons < 1:
            raise ValidationError(f"need at least one photon, got {n_photons}")
        self.n_photons = n_photons
        self.has_spins = has_spins
        self.amplitudes = dict(amplitudes) if amplitudes else {}

    # -- bookkeeping ------------------------------------------------------

    def copy(self) -> "HyperState":
        return HyperState(self.n_photons, self.amplitudes, self.has_spins)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HyperState):
            return NotImplemented
        return (self.n_photons == other.n_photons
                and self.has_spins == other.has_spins
                and self.amplitudes == other.amplitudes)

    def __repr__(self) -> str:
        return (f"HyperState(n_photons={self.n_photons}, has_spins={self.has_spins}, "
                f"{len(self.amplitudes)} amplitudes)")

    def norm_sq(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.amplitudes.values())

    def labeled_amplitudes(self) -> list[tuple[BasisLabel, complex]]:
        """Amplitudes in canonical (ascending label) order."""
        return [(BasisLabel(bits, self.n_photons, self.has_spins), amp)
                for bits, amp in sorted(self.amplitudes.items())]

    def _prune(self) -> None:
        self.amplitudes = {l: a for l, a in self.amplitudes.items() if a}

    def _photon_mask(self, photon: int, spatial: bool) -> int:
        if not 0 <= photon < self.n_photons:
            raise ValidationError(
                f"invalid photon index {photon} for {self.n_photons}-photon state")
        return spatial_mask(photon) if spatial else pol_mask(photon)

    def _spin_bit_mask(self, which_spin: int) -> int:
        if not self.has_spins:
            raise ValidationError("state has no spins (already measured out)")
        if which_spin not in (1, 2):
            raise ValidationError(f"invalid spin id {which_spin}, expected 1 or 2")
        return spin_mask(self.n_photons, which_spin)

    # -- generic bit operations -------------------------------------------

    def _hadamard(self, mask: int) -> None:
        out: dict[int, complex] = {}
        for label, amp in self.amplitudes.items():
            half = _SQRT_HALF * amp
            lo = label & ~mask
            hi = label | mask
            out[lo] = out.get(lo, 0j) + half
            if label & mask:
                out[hi] = out.get(hi, 0j) - half
            else:
                out[hi] = out.get(hi, 0j) + half
        if len(out) > MAX_AMPLITUDES:
            raise ValidationError(
                f"state spread to {len(out)} amplitudes, more than "
                f"MAX_AMPLITUDES = {MAX_AMPLITUDES}")
        self.amplitudes = out
        self._prune()

    def _flip(self, mask: int) -> None:
        self.amplitudes = {label ^ mask: amp for label, amp in self.amplitudes.items()}

    # -- public single-dof operations --------------------------------------

    def pol_flip(self, photon: int) -> "HyperState":
        """Swap R and L amplitudes of one photon (bit-flip plate)."""
        self._flip(self._photon_mask(photon, spatial=False))
        return self

    def spin_hadamard(self, which_spin: int) -> "HyperState":
        """up -> (up+down)/sqrt2, down -> (up-down)/sqrt2; maps the conjugate
        basis states (up +/- down)/sqrt2 back onto up/down."""
        self._hadamard(self._spin_bit_mask(which_spin))
        return self


def init_state(photons: Sequence[PhotonSpec], spins: str = "plus") -> HyperState:
    """Product state of the given photons and the two spins.

    spins="plus" prepares both spins in (up+down)/sqrt2 (a Hadamard applied to
    up,up); spins="up" leaves them in up,up.
    """
    if not photons:
        raise ValidationError("need at least one photon")
    if spins not in ("plus", "up"):
        raise ValidationError(f"spins must be 'plus' or 'up', got {spins!r}")
    state = HyperState(len(photons), product_amplitudes(photons), has_spins=True)
    if spins == "plus":
        state.spin_hadamard(1)
        state.spin_hadamard(2)
    return state


def product_amplitudes(photons: Sequence[PhotonSpec]) -> dict[int, complex]:
    """Amplitudes of the product state of the given photons, keyed by
    photon-only labels (spin bits clear); zero coefficients add no label.
    Refuses a product that, with the two spins, exceeds MAX_AMPLITUDES."""
    amps: dict[int, complex] = {0: 1.0 + 0j}
    for i, spec in enumerate(photons):
        if not isinstance(spec, PhotonSpec):
            raise ValidationError(f"photon {i} is not a PhotonSpec")
        amps = _expand(amps, pol_mask(i), spec.pol)
        amps = _expand(amps, spatial_mask(i), spec.spatial)
    return amps


def _expand(amps: dict[int, complex], mask: int,
            pair: tuple[complex, complex]) -> dict[int, complex]:
    c0, c1 = pair
    # refused before the labels are built: 4 spin labels per photon label
    if c0 != 0 and c1 != 0 and 4 * 2 * len(amps) > MAX_AMPLITUDES:
        raise ValidationError(
            f"the input photons need more than MAX_AMPLITUDES = {MAX_AMPLITUDES} "
            "amplitudes with the spins")
    out: dict[int, complex] = {}
    for label, amp in amps.items():
        if c0 != 0:
            out[label] = amp * c0
        if c1 != 0:
            out[label | mask] = amp * c1
    return out


def fidelity(state: HyperState, ideal: HyperState) -> float:
    """Squared inner-product magnitude of two photon-only states. Insensitive
    to global phase; norms are divided out."""
    if state.n_photons != ideal.n_photons or state.has_spins != ideal.has_spins:
        raise ValidationError(
            f"dimension mismatch: {state.n_photons} photons (spins={state.has_spins}) "
            f"vs {ideal.n_photons} (spins={ideal.has_spins})")
    na = state.norm_sq()
    nb = ideal.norm_sq()
    if na <= 0.0 or nb <= 0.0:
        raise ValidationError("cannot compute fidelity of a zero-norm state")
    prods = []
    for label, amp in state.amplitudes.items():
        other = ideal.amplitudes.get(label)
        if other is not None:
            prods.append(amp.conjugate() * other)
    inner = complex(math.fsum(p.real for p in prods), math.fsum(p.imag for p in prods))
    return abs(inner) ** 2 / (na * nb)
