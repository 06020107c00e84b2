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

Every state the library builds from photons is built here, by one expander,
``expand_products``, from per-photon 4-vectors (``photon_vectors``): the
input of ``init_state``, the truth-rule state of ``gates.ideal_hyper_cnot_n``
and the gate's corrected branch state. The expander holds the one count
against MAX_AMPLITUDES, made before anything is built; a Hadamard on a
caller-built state checks its own output.

The last two are ``FactoredState``s: a sum over the control photon's basis
index c of product states, c's coefficient times one 4-vector per further
photon with its bits flipped by c (a state of bond dimension 4, Vidal,
PRL 91, 147902 (2003), whose four terms share their vectors up to those
flips). It normalizes itself and expands its amplitudes on their first
read, so what refuses either surfaces there; until then ``fidelity`` takes
the overlap of two of them from their factors (``product_overlap``), as the
product of one overlap ratio per photon, all taken in one overlap of the
stacked rows, in time linear in the photons.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain

import numpy as np

from .errors import ValidationError, check_count, check_number

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Where a heralded-failure or lost shot ends. The detector names key the
# gate's detector_probs and SampleStats.detector_clicks.
DETECTOR_B1 = "detector_B1"
DETECTOR_B2 = "detector_B2"
ABSORBED = "absorbed"

# Tolerance on |c0|^2 + |c1|^2 = 1 for ingested coefficient pairs.
NORM_TOL = 1e-9

# Most amplitudes the library builds for one result, checked before it is
# built: four per photon label, for a state with the spins from
# ``init_state``, a gate's corrected branch state or an ideal output state;
# a Hadamard checks its output. The four branches of a gate share one state,
# but the count keeps its four per label, so that every input refused when
# each branch held its own copy is still refused. The limit admits CNOT^8
# with every photon in superposition (4 x 4^9 photon labels); each further
# photon in superposition multiplies the count by 4, so such a result is
# refused instead of exhausting memory.
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
    two numbers (see ``errors.check_number``), normalized within NORM_TOL."""

    pol: tuple[complex, complex]
    spatial: tuple[complex, complex]

    def __post_init__(self):
        for name in ("pol", "spatial"):
            pair = getattr(self, name)
            if isinstance(pair, (str, bytes)) or not isinstance(pair, Sequence) or len(pair) != 2:
                raise ValidationError(f"{name} must be a pair of numbers, got {pair!r}")
            pair = tuple(complex(check_number(c, f"{name}[{i}]")) for i, c in enumerate(pair))
            object.__setattr__(self, name, pair)
            try:
                nrm = abs(pair[0]) ** 2 + abs(pair[1]) ** 2
            except OverflowError:   # a magnitude or its square past the float range
                raise ValidationError(
                    f"{name} pair {pair} has a squared norm past the float range, "
                    "expected 1") from None
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
    into a canonical basis label. Each bit is an int 0 or 1 (a numpy
    integer, ``Pol``, ``Spatial`` or ``Spin`` included); anything else, a
    bool or a float among them, is refused."""
    if len(pol_bits) != len(spatial_bits):
        raise ValidationError("pol_bits and spatial_bits must have equal length")
    if len(spin_bits) > 2:
        raise ValidationError(f"at most two spin bits, got {len(spin_bits)}")
    bits = 0
    for i, (p, s) in enumerate(zip(pol_bits, spatial_bits)):
        bits |= check_count(p, f"pol_bits[{i}]", 1, low=0) << (2 * i)
        bits |= check_count(s, f"spatial_bits[{i}]", 1, low=0) << (2 * i + 1)
    for k, sp in enumerate(spin_bits):
        bits |= check_count(sp, f"spin_bits[{k}]", 1, low=0) << (2 * len(pol_bits) + k)
    return bits


# Report names of a photon's two bits, indexed k = p + 2m, and of a spin bit.
_PHOTON_NAMES = ("R,1", "L,1", "R,2", "L,2")
_SPIN_NAMES = ("up", "down")


@dataclass(frozen=True)
class BasisLabel:
    """Unpacked view of one basis label; str() gives the report form, e.g.
    ``a:R,1 b:L,2`` (photon 0 is named a, targets b or b1..bN)."""

    bits: int
    n_photons: int
    has_spins: bool = True

    def photon_name(self, photon: int) -> str:
        if photon == 0:
            return "a"
        return "b" if self.n_photons == 2 else f"b{photon}"

    def __str__(self) -> str:
        bits = self.bits
        parts = [f"{self.photon_name(i)}:{_PHOTON_NAMES[(bits >> 2 * i) & 3]}"
                 for i in range(self.n_photons)]
        if self.has_spins:
            spins = bits >> 2 * self.n_photons
            parts.append(f"s1:{_SPIN_NAMES[spins & 1]} s2:{_SPIN_NAMES[(spins >> 1) & 1]}")
        return " ".join(parts)


class HyperState:
    """Joint amplitude state of ``n_photons`` photons plus (optionally) the
    two spins. Amplitudes that become exactly zero are dropped, so no
    information is ever lost.
    """

    # the (coef, vectors) of an unexpanded FactoredState; None for any other
    factors = None

    def __init__(self, n_photons: int, amplitudes: dict[int, complex] | None = None,
                 has_spins: bool = True):
        if n_photons < 1:
            raise ValidationError(f"need at least one photon, got {n_photons}")
        self.n_photons = n_photons
        self.has_spins = has_spins
        self.amplitudes = dict(amplitudes) if amplitudes else {}

    # -- bookkeeping ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HyperState):
            return NotImplemented
        # equal factors expand to equal amplitudes, so two unexpanded
        # FactoredStates compare without expanding; two factorings of one
        # state differ in their factors and are compared by the amplitudes
        if (self.factors is not None and other.factors is not None
                and all(map(np.array_equal, self.factors, other.factors))):
            return True
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

    def _photon_mask(self, photon: int, spatial: bool) -> int:
        photon = check_count(photon, "the photon index", self.n_photons - 1, low=0)
        return spatial_mask(photon) if spatial else pol_mask(photon)

    def _spin_bit_mask(self, which_spin: int) -> int:
        if not self.has_spins:
            raise ValidationError("state has no spins (already measured out)")
        return spin_mask(self.n_photons, check_count(which_spin, "the spin id", 2))

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
        self.amplitudes = {label: amp for label, amp in out.items() if amp}

    # -- public single-dof operations --------------------------------------

    def spin_hadamard(self, which_spin: int) -> "HyperState":
        """up -> (up+down)/sqrt2, down -> (up-down)/sqrt2; maps the conjugate
        basis states (up +/- down)/sqrt2 back onto up/down."""
        self._hadamard(self._spin_bit_mask(which_spin))
        return self


# _XOR[c, k] = k ^ c: the entries of X^c v, the bit flips of the control's
# basis index c applied to a 4-vector v.
_XOR = np.array([[k ^ c for k in range(4)] for c in range(4)])


class FactoredState(HyperState):
    """Photon-only state sum_c coef[c] |c> (x) X^c vectors[0] (x) ... (x)
    X^c vectors[P-2]: photon 0 in basis state c (its two label bits) and
    each further photon i + 1 in the 4-vector vectors[i] with its bits
    flipped by c, (X^c v)[k] = v[k ^ c]. The factors need not be
    normalized: ``amplitudes`` normalizes the state and expands it with
    ``expand_products`` on the first read, and refuses there, naming
    ``what``, a squared norm below the smallest normal float, whose root
    cannot normalize it, or too many amplitudes. Until that read (or an
    assignment of ``amplitudes``, which drops the factors) ``factors``
    holds (coef, vectors), else None; two states that both hold equal
    factors compare equal without expanding."""

    def __init__(self, coef: np.ndarray, vectors: np.ndarray, what: str):
        # HyperState's fields set directly: its __init__ would assign an empty
        # dict through the amplitudes setter, only for the factors to replace it
        self.n_photons = 1 + vectors.shape[-2]
        self.has_spins = False
        self.factors = (coef, vectors)
        self.what = what

    @property
    def amplitudes(self) -> dict[int, complex]:
        if self.factors is not None:
            coef, vectors = self.factors
            # the flips X^c change no norm, so the squared norm is the
            # coefficients' times one per further photon
            norm_sq = float((np.abs(coef) ** 2).sum()
                            * (np.abs(vectors) ** 2).sum(axis=-1).prod())
            if norm_sq < sys.float_info.min:
                raise ValidationError(
                    f"{self.what} have squared norm {norm_sq:.3g}, below the smallest "
                    "normal float: they cannot be normalized")
            coef = coef / math.sqrt(norm_sq)
            # the terms lie on disjoint labels, one per control index c
            self._amplitudes = expand_products(
                [(c, a, vectors[:, _XOR[c]]) for c, a in enumerate(coef.tolist())], 1,
                self.what)
            self.factors = None
        return self._amplitudes

    @amplitudes.setter
    def amplitudes(self, amplitudes: dict[int, complex]) -> None:
        self.factors = None
        self._amplitudes = amplitudes

    def __repr__(self) -> str:
        if self.factors is None:
            return super().__repr__()
        return f"FactoredState(n_photons={self.n_photons}, unexpanded)"


def product_overlap(a, b):
    """|<a|b>|^2 / (<a|a> <b|b>) of two states given as factors (coef[..., c],
    vectors[..., i, k]) of ``FactoredState``, elementwise over leading axes
    that broadcast (a state's coef and vectors share theirs). Both states
    flip every target by the same X^c on the control's index c, which no
    inner product sees, so

      <a|b> = sum_c conj(a_c) b_c  prod_i <va[i] | vb[i]>

    and the norms alike: the ratio is the product of one ratio per photon
    row (``photon_rows``: the control's, then each target's), taken in one
    overlap. Each is in [0, 1], so the product cannot overflow, and it
    underflows only where the fidelity itself is that small. An operand of
    norm 0 gives NaN (0/0)."""
    a, b = np.broadcast_arrays(photon_rows(*a), photon_rows(*b))
    # _ratio overwrites its first operand: a C-ordered copy of a's rows
    return _ratio(a.copy(), b).prod(axis=-1)


def photon_rows(coef: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """A factored state's coefficients and vectors as one array of rows
    [..., photon, k], the control's coefficients first, stacked like the
    photon vectors of ``photon_vectors``, in a fresh array."""
    return np.concatenate((coef[..., None, :], vectors), axis=-2)


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a|b>|^2 / (<a|a> <b|b>) over the last axis. a is a fresh array of
    the broadcast shape of a and b, which this overwrites: the conjugate
    products are taken in place in it when it is C-ordered, so the overlap
    makes no further array of its size, and in a C-ordered array otherwise.
    The first ufunc of each sum writes its array C-ordered: numpy adds a
    contiguous run of complex numbers pairwise and a strided one in order,
    so the bits of the result would otherwise depend on the memory layout
    of a and b."""
    na = (np.abs(a, order="C") ** 2).sum(axis=-1)
    nb = (np.abs(b, order="C") ** 2).sum(axis=-1)
    inner = np.multiply(np.conjugate(a, out=a), b, order="C",
                        out=a if a.flags.c_contiguous else None)
    return np.abs(inner.sum(axis=-1)) ** 2 / (na * nb)


def init_state(photons: Sequence[PhotonSpec], spins: str = "plus") -> HyperState:
    """Product state of the given photons and the two spins.

    spins="plus" prepares both spins in (up+down)/sqrt2 (a Hadamard applied to
    up,up); spins="up" leaves them in up,up.
    """
    try:
        n = len(photons)
    except TypeError:   # a generator or an iterator: no count to check
        raise ValidationError(
            f"photons must be a sequence of PhotonSpec, got {type(photons).__name__}") from None
    if not n:
        raise ValidationError("need at least one photon")
    if spins not in ("plus", "up"):
        raise ValidationError(f"spins must be 'plus' or 'up', got {spins!r}")
    amps = expand_products([(0, 1 + 0j, photon_vectors(photons))], 0,
                           "the input photons with the spins")
    state = HyperState(n, amps, has_spins=True)
    if spins == "plus":
        state.spin_hadamard(1)
        state.spin_hadamard(2)
    return state


def photon_vectors(photons: Sequence[PhotonSpec]) -> np.ndarray:
    """(P, 4) array of the photons' 4-vectors, entry k = p + 2m holding the
    amplitude of polarization bit p and spatial bit m."""
    for i, spec in enumerate(photons):
        if not isinstance(spec, PhotonSpec):
            raise ValidationError(f"photon {i} is not a PhotonSpec")
    # one flat stream of the pairs' numbers: numpy reads it faster than a
    # list, and far faster than nested tuples
    pairs = np.fromiter(chain.from_iterable(spec.pol + spec.spatial for spec in photons),
                        complex, 4 * len(photons))
    return pair_vectors(pairs.reshape(len(photons), 2, 2))


def pair_vectors(pairs: np.ndarray) -> np.ndarray:
    """(..., P, 4) photon 4-vectors from (..., P, 2, 2) coefficient pairs,
    indexed [photon, (pol, spatial), bit]; elementwise over leading axes."""
    return (pairs[..., 1, :, None] * pairs[..., 0, None, :]).reshape(pairs.shape[:-2] + (4,))


def expand_products(terms, first: int, what: str) -> dict[int, complex]:
    """Photon-only amplitudes of a sum of product states. Each term is
    (seed, coef, vectors): amplitude coef on ``seed``, a label of the photons
    before ``first``, times the product of ``vectors``, the 4-vectors of
    photons first, first + 1, ... The terms must lie on disjoint labels.
    Each term is expanded over its own factors' nonzero entries, and a
    product that is exactly zero adds no label.

    Refused, before anything is built, when four amplitudes per label (the
    spin values of a state, or the four branches of a gate) exceed
    MAX_AMPLITUDES; ``what`` names them in the message."""
    expanded = []
    for seed, coef, vectors in terms:
        if coef:
            expanded.append((seed, coef, [[(k << 2 * i, v) for k, v in enumerate(row) if v]
                                          for i, row in enumerate(vectors.tolist(), first)]))
    needed = 4 * sum(math.prod(map(len, factors)) for _, _, factors in expanded)
    if needed > MAX_AMPLITUDES:
        raise ValidationError(
            f"{what} need {needed} amplitudes, more than "
            f"MAX_AMPLITUDES = {MAX_AMPLITUDES}")
    amps: dict[int, complex] = {}
    for seed, coef, factors in expanded:
        term = {seed: coef}
        for nonzero in factors:
            term = {label | bits: amp for label, a in term.items()
                    for bits, v in nonzero if (amp := a * v)}
        amps.update(term)
    return amps


def fidelity(state: HyperState, ideal: HyperState) -> float:
    """Squared inner-product magnitude of two photon-only states. Insensitive
    to global phase; norms are divided out. Taken from the factors when both
    states are unexpanded ``FactoredState``s, from the amplitudes
    otherwise."""
    if state.n_photons != ideal.n_photons or state.has_spins != ideal.has_spins:
        raise ValidationError(
            f"dimension mismatch: {state.n_photons} photons (spins={state.has_spins}) "
            f"vs {ideal.n_photons} (spins={ideal.has_spins})")
    if state.factors is not None and ideal.factors is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            fid = float(product_overlap(state.factors, ideal.factors))
        if math.isfinite(fid):   # else 0/0, from an operand of norm 0
            return fid
    else:
        na = state.norm_sq()
        nb = ideal.norm_sq()
        prods = []
        for label, amp in state.amplitudes.items():
            other = ideal.amplitudes.get(label)
            if other is not None:
                prods.append(amp.conjugate() * other)
        inner = complex(math.fsum(p.real for p in prods), math.fsum(p.imag for p in prods))
        if na > 0.0 and nb > 0.0:
            return abs(inner) ** 2 / (na * nb)
    raise ValidationError("cannot compute fidelity of a zero-norm state")
