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
``expand_products``, from per-photon 4-vectors (``photon_vectors``, which
stacks the vector each ``PhotonSpec`` carries): the input of ``init_state``,
the truth-rule state of ``gates.ideal_hyper_cnot_n`` and the gate's
corrected branch state. The expander holds the one count
against MAX_AMPLITUDES, made before anything is built; a Hadamard on a
caller-built state checks its own output.

A spec keeps the gate's per-photon input as two rows of bytes, one per
role a photon plays in the gate: its vector, then its weights as the
control or as a target (``photon_weights``, the one weight computation,
which the batched passes of ``analysis`` also call). ``gate_inputs`` joins
photon 0's control row and every further photon's target row, and the
gate reads the vectors and the weights as two views of that join: the
kernel (``gates.factored_run``) receives the weights, and
``gates.hyper_cnot_n`` forms its output vectors from the vectors. No other
module knows the rows' layout.

The last two are ``FactoredState``s: a sum over the control photon's basis
index c of product states, c's coefficient times one 4-vector per further
photon with its bits flipped by c (a state of bond dimension 4, Vidal,
PRL 91, 147902 (2003), whose four terms share their vectors up to those
flips). It normalizes itself and expands its amplitudes on their first
read, so what refuses either surfaces there; until then ``fidelity`` takes
the overlap of two of them from their factors (``product_overlap``), as the
product of one overlap ratio per photon, all taken in one overlap of the
stacked rows, in time linear in the photons. That is the fidelity of two
arbitrary factored states. The gate's batched passes take the same ratios
of its output against the truth rule from the photons' weights instead
(``gates.FactoredRun.truth_fidelity``), and only ``gates.hyper_cnot_n``
builds the output vectors.
"""
from __future__ import annotations

import functools
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
    two numbers (see ``errors.check_number``), normalized within NORM_TOL.

    A spec keeps two rows of bytes, one per role it plays in a gate: the
    bytes of its 4-vector x, entry k = p + 2m holding spatial[m] * pol[p],
    then its weights in that role (``photon_weights``), |x|^2 as the
    gate's control and |K x|^2 as a target. They are built on first use
    (by ``vector``, ``photon_vectors`` or ``gate_inputs``, which build
    those of a gate's new photons in one batch) and kept, so a spec reused
    across gate calls is converted once, and making a spec costs no more
    than it did before specs carried vectors. ``vector`` reads x from
    them, read-only. The rows are no dataclass fields: ``fields``, ``==``,
    ``hash``, ``repr`` and ``replace`` see the two pairs only. As
    immutable bytes that depend on the pairs alone, they travel with a
    copy or a pickle of a built spec. ``basis`` and ``uniform`` return one
    shared instance per state and class."""

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

    # the two role rows, in the instance's dict once built; no dataclass fields
    _control_row = _target_row = None

    @property
    def vector(self) -> np.ndarray:
        """The photon's read-only 4-vector, read from its rows, which are
        built on first use."""
        if self._target_row is None:
            _build_rows([self])
        return np.frombuffer(self._target_row, complex, 4)

    @classmethod
    def basis(cls, pol: Pol, spatial: Spatial) -> "PhotonSpec":
        """Basis state of polarization bit ``pol`` and spatial bit
        ``spatial``, each an int 0 or 1 (a numpy integer, ``Pol`` or
        ``Spatial`` included); anything else, a bool or a float among
        them, is refused."""
        p = check_count(pol, "pol", 1, low=0)
        m = check_count(spatial, "spatial", 1, low=0)
        return cls._shared((1 - p, p), (1 - m, m))

    @classmethod
    def uniform(cls) -> "PhotonSpec":
        """Uniform superposition in both degrees of freedom."""
        h = (_SQRT_HALF, _SQRT_HALF)
        return cls._shared(h, h)

    @classmethod
    @functools.cache
    def _shared(cls, pol, spatial) -> "PhotonSpec":
        # one instance per (class, state), built on its first request
        return cls(pol=pol, spatial=spatial)


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
    row (the control's coefficients, then each target's vector, stacked
    like the vectors of ``photon_vectors``), taken in one overlap. Each is
    in [0, 1], so the product cannot overflow, and it underflows only where
    the fidelity itself is that small. An operand of norm 0 gives NaN
    (0/0)."""
    a, b = np.broadcast_arrays(*(np.concatenate((coef[..., None, :], vectors), axis=-2)
                                 for coef, vectors in (a, b)))
    # _ratio overwrites its first operand: a C-ordered copy of a's rows
    return _ratio(a.copy(), b).prod(axis=-1)


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
    amplitude of polarization bit p and spatial bit m (``PhotonSpec.vector``):
    the vectors of ``gate_inputs``, a writeable view of a fresh buffer. A
    photon that is not a ``PhotonSpec`` is refused, naming its index."""
    return gate_inputs(photons)[0]


def gate_inputs(photons: Sequence[PhotonSpec]) -> tuple[np.ndarray, np.ndarray]:
    """The gate's inputs for the photons, the control first: their
    vectors x and their weights w (``photon_weights``), photon 0's as the
    control and each further photon's as a target. Both are (P, 4) views of
    one fresh, writeable buffer of (P, 12) floats, the join of photon 0's
    control row and each further photon's target row; the rows of photons
    that have none are built first, in one batch. A photon that is not a
    ``PhotonSpec`` is refused, naming its index."""
    rows = []
    for i, spec in enumerate(photons):
        if not isinstance(spec, PhotonSpec):
            raise ValidationError(f"photon {i} is not a PhotonSpec")
        rows.append(spec._target_row)
    if rows:
        rows[0] = photons[0]._control_row
    try:
        # a bytearray's allocation is aligned for numpy
        data = bytearray().join(rows)
    except TypeError:   # a photon not built yet: its rows are None
        _build_rows([spec for spec in photons if spec._target_row is None])
        return gate_inputs(photons)
    rows = np.frombuffer(data, float, 12 * len(rows)).reshape(-1, 12)
    return rows[:, :8].view(complex), rows[:, 8:]


def _build_rows(specs: Sequence[PhotonSpec]) -> None:
    """Build the specs' role rows: their (S, 4) vectors, ``pair_vectors``
    of one flat stream of their pairs' numbers (numpy reads it faster than
    a list, and far faster than nested tuples), each taken twice, as the
    control and as the target of a two-photon gate, with its weights in
    that role (``photon_weights``). Each spec keeps the bytes of its
    vector followed by its weights, one row per role, which a gate
    joins."""
    n = len(specs)
    pairs = np.fromiter(chain.from_iterable(spec.pol + spec.spatial for spec in specs),
                        complex, 4 * n)
    both = pair_vectors(pairs.reshape(n, 2, 2)).repeat(2, axis=0).reshape(n, 2, 4)
    data = np.concatenate((both.view(float), photon_weights(both)), axis=-1).tobytes()
    for spec, i in zip(specs, range(0, 192 * n, 192)):
        kept = spec.__dict__   # past the frozen __setattr__
        kept["_control_row"] = data[i:i + 96]
        kept["_target_row"] = data[i + 96:i + 192]


def pair_vectors(pairs: np.ndarray) -> np.ndarray:
    """(..., P, 4) photon 4-vectors from (..., P, 2, 2) coefficient pairs,
    indexed [photon, (pol, spatial), bit]; elementwise over leading axes."""
    return (pairs[..., 1, :, None] * pairs[..., 0, None, :]).reshape(pairs.shape[:-2] + (4,))


# K = H (x) H, the Hadamards that wrap a target, on entry k = p + 2m: row j
# holds (-1)^(j.k) / 2, complex so that einsum casts nothing. A product with
# 1/2 is exact, so K keeps a basis vector's norm exactly.
_K = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
                    dtype=complex)


def photon_weights(x: np.ndarray) -> np.ndarray:
    """The gate's weights of photon vectors x[..., photon, k], the control
    first: what each photon holds as it enters its polarization stage,
    squared entry by entry. That is |x|^2 for the control, which enters as
    it came, and |K x|^2 for a target, wrapped in its Hadamards K. A fresh
    float array of x's shape; the one weight computation of the gate, on
    a point's photons as on a batch's."""
    v = np.einsum("...k,jk->...j", x, _K)
    v[..., 0, :] = x[..., 0, :]
    w = np.abs(v)
    w *= w
    return w


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
