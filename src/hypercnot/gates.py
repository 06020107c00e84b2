"""Heralded hyperparallel CNOT and CNOT^N gate runs.

The hardware sends the control photon (a) and then each target photon
through the polarization and spatial routing stages of ``circuit``. The two
spins start in (up+down)/sqrt2; each target is wrapped in polarization and
spatial Hadamards (K) so that a block transit toggles it conditioned on the
spin, and final spin Hadamards turn the accumulated Z kicks into measurable
flips. Measuring the spins and applying the phase feed-forward to photon a
leaves the same photon state for every spin record: a CNOT on the
polarization bits (control a) and, independently, a CNOT on the spatial
bits, both applied to each target.

The run is computed in factored form, never as one joint state. A photon is
a 4-vector indexed k = p + 2m (p its polarization bit, m its spatial bit); a
spin value is sigma = 2*s1 + s2. Its two stages multiply entry k by
F[sigma, k] = f(p, s1) * f(m, s2), the factors of ``circuit``'s stages:
f = m on the mirror branch and +/-T on the block branch, where the mirror's
transmission m is ``GateConfig.mirror_scale`` times T (T itself when the
scale is None: a balanced mirror). Every stage is diagonal in the spins, so:

  * the control's basis index c leaves its stages and the middle spin
    Hadamards on the one spin value sigma(c) = (s1 = p, s2 = m), with
    amplitude F[0, c] * x_c;
  * a target bit, wrapped in its Hadamards, sees a block on spin s as
    A_s = H diag(m, (-1)^s T) H, and A_1 = X A_0 since H Z H = X. So
    target i leaves spin value sigma as t_sigma = X^sigma' u_i, one vector
    u_i = (A_0 (x) A_0) x_i with its polarization bit flipped when s1 is
    down and its spatial bit when s2 is; on sigma(c) that flip is X^c,
    (X^c u)[k] = u[k ^ c];
  * before the final spin Hadamards the state is a sum of four product
    states, sum_c |sigma(c)> (x) F[0, c] x_c |c> (x) X^c u_1 (x) ... (x) X^c u_N;
  * the final spin Hadamards give the term of c the sign
    (-1)^(record . sigma(c)) / 2, the very sign the feed-forward undoes
    (negating photon a's L when spin 1 is down and its mode 2 when spin 2 is
    down). So each of the four spin records has probability success / 4 and
    the same corrected state.

In that spectral form u_i = K (F[0] o K x_i), with K = H (x) H the
target's Hadamards and o the entrywise product: no mirror and block terms
cancel, so a mirror m far weaker than the block still gives a uniform target
u_i = m^2 x_i. On a balanced mirror F[0] = T^2 and u_i = T^2 x_i is taken
directly, to the bit (K K x_i is x_i only to rounding), with Python's T * T
as the first operand of numpy's product with x_i.
The control row F[0, k] = f(m, 0) f(p, 0) is four products, (m m, m T, T m,
T T) on k = 0..3, taken in one numpy multiply of (m, m, T, T) by (m, T, m, T)
and transposed so that a batch axis comes first. On one point as on a batch
they are numpy's products, the outer product of (m, T) with itself to the
bit: Python's complex multiply rounds the last bit differently (numpy's
fuses a multiply-add), and that bit reaches the output state.
|F[sigma, k]| does not depend on sigma, so the success probability and every
stage's masses are products of per-photon sums of a photon's four weights
w[k] = |v_k|^2, v what it holds as it enters its polarization stage: x_0
for the control and K x_i for a target. Those weights depend on the photon
alone, so ``factored_run`` receives them and no photon vectors
(``hyperstate.photon_weights``, the one weight computation, which each
``PhotonSpec`` applies once to itself in both roles and keeps, and which
the batched passes apply to their photons). A gate's weights arrive as a
strided view of one buffer (``hyperstate.gate_inputs``); the kernel gives
the bits on it that it gives on a C-ordered copy. Its ledger is one
contraction, of the weights with a 4 x 6 table per cavity point, whose
columns give each photon its own polarization and spatial clicks, its
polarization and spatial absorbed masses, its kept mass and its entered
mass. Each table entry is a polarization-bit factor times a spatial-bit
factor, taken from the stage's ``circuit.branch_fractions`` (what a branch
clicks, absorbs and keeps) and ones; those fractions come from the figures
that ``circuit.check_stage`` takes and checks once per run. One running
product of the kept masses and one of the entered masses then scale the
first four columns into the stage masses, in place; the last two stay the
photon's own. No contraction calls BLAS, and the ledger takes no per-photon
temporary beyond its (photon, column) table.

``factored_run`` is that computation, written over leading numpy axes: for
one cavity point (``hyper_cnot_n``) its arrays have none, and for a batch of
points (``analysis.sweep_efficiency`` and ``fidelity_scan``) they have one,
so one call runs the gate at every point of a chunk. The truth-rule state is
the same kind of sum, sum_c x0_c |c> (x) X^c x_1 (x) ... (x) X^c x_N. The
flips X^c are common to both states and no inner product sees them, so the
fidelity is a product of one ratio per photon j, |<u_j|x_j>|^2 /
(|u_j|^2 |x_j|^2), with u_0 = F[0] o x_0 the control's output. Each term of
that ratio is a contraction of the photon's weights w_j: K is real,
symmetric and its own inverse, so

  <u_j|x_j> = sum_k conj(F[0, k]) w_j[k],
  |u_j|^2   = sum_k |F[0, k]|^2 w_j[k], the ledger's kept mass, and
  |x_j|^2   = sum_k w_j[k], its entered mass.

So a batch's fidelity (``FactoredRun.truth_fidelity``) is one contraction
of the weights with conj(F[0]) and the ledger's last two columns: no
batched pass builds a photon vector or an output vector. Only
``hyper_cnot_n`` forms the u_i, for its output state; ``fidelity`` of one
point's states takes the same ratios from their vectors
(``hyperstate.product_overlap``), in other arithmetic, so the two agree to
rounding.

Only the corrected state's amplitudes grow with the output, and
``hyper_cnot_n`` does not write them: its four branches share one
``hyperstate.FactoredState`` holding the coefficients F[0, c] x_c and the
vectors u_i, unnormalized (its squared norm is the success probability).
Reading its amplitudes normalizes and expands it once, over each term's
nonzero entries (basis inputs stay at a few labels), and refuses a result
above ``hyperstate.MAX_AMPLITUDES`` before it is built. So the masses, the
shot counts and the fidelity cost the same at any output size. A success of
exactly 0 (a dead mirror on a basis input) leaves no state, and
``hyper_cnot_n`` raises AmplitudeLostError.

The run is trace-decreasing: with block transmission T, the heralded-success
probability is |T|^(4(N+1)) for N targets. ``GateOutcome`` records where
the rest went in the kernel's two arrays, ``clicks`` and ``absorbed``,
indexed [photon, stage]: the masses each photon's polarization stage and
spatial stage sent to their detector and absorbed, two views of the scaled
ledger table. ``GateOutcome.stages`` reads them as
(click, absorbed) pairs in run order, built only when read. A
``GateOutcome`` stores only the success probability, the spin branches and
these two arrays; its detector and absorbed totals are properties that sum
them, so no total can disagree with the ledger.

Every spin record carries the same corrected state, so ``hyper_cnot_n``
reports the canonical first branch (both spins up, no feed-forward) and
draws nothing. With the branch probabilities, the stage masses are every way
a shot can end; shots (click / absorb / succeed in one spin record) come
from ``sample_shots``, the one sampler: one multinomial draw over those
masses, whose cost does not grow with the shot count.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import branch_fractions, check_mirror_scale, check_stage
from .errors import (
    AmplitudeLostError,
    DegeneratePhysicsError,
    ValidationError,
    check_count,
    check_seed,
    refuse_where,
)
from .hyperstate import (
    DETECTOR_B1,
    DETECTOR_B2,
    BasisLabel,
    FactoredState,
    HyperState,
    PhotonSpec,
    Pol,
    Spatial,
    Spin,
    fidelity,
    _K,
    gate_inputs,
    photon_vectors,
)
from .scattering import CavityParams, cavity_block_coeffs

# Below this transmission magnitude the gate cannot post-select a success.
MIN_BLOCK_T = 1e-12


@dataclass(frozen=True)
class GateConfig:
    """Physics and execution settings for one gate run.

    mirror_scale multiplies the balancing mirrors' transmission, which is the
    block's own T (scale None) so that all branches attenuate equally. Any
    other scale unbalances the interferometer and degrades fidelity, for
    what-if runs; a mirror |mirror_scale * T| above 1 is refused when the
    gate runs. rng_seed is read only by ``sample_shots``.
    """

    params: CavityParams
    n_targets: int = 1
    mirror_scale: complex | None = None
    rng_seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.params, CavityParams):
            raise ValidationError("params must be a CavityParams")
        # a numpy number is passed on as the Python number it equals
        object.__setattr__(self, "n_targets", check_count(self.n_targets, "n_targets"))
        object.__setattr__(self, "rng_seed", check_seed(self.rng_seed, "rng_seed"))
        object.__setattr__(self, "mirror_scale", check_mirror_scale(self.mirror_scale))


class OutcomeBranch(NamedTuple):
    """One spin-measurement branch after feed-forward. probability is
    absolute (all branches together sum to the success probability). The
    branches of one run share their state object."""
    spin_record: tuple[Spin, Spin]
    probability: float
    corrections: tuple[bool, bool]  # (pol phase applied, spatial phase applied)
    state: HyperState               # photon-only, corrected, normalized on read


@dataclass
class GateOutcome:
    """Full result of one gate run: the success probability, the spin
    branches and the stage ledger. Every other figure is a property over them.

    success_prob + heralded_failure_prob + absorbed_prob = 1 (to rounding).
    branches lists every nonzero spin outcome; conditional_state,
    spin_record and corrections are those of the reported first branch (all
    the branches carry the same corrected state, which is the point of the
    feed-forward, as one shared object).

    The ledger is the kernel's two arrays (``FactoredRun``), indexed
    [photon, stage] with the control as photon 0 and the polarization stage
    (detector_B1) before the spatial stage (detector_B2): clicks, the mass
    each routing stage sent to its detector, and absorbed, the mass it
    absorbed. stages reads them as one (click, absorbed) pair of floats per
    stage, in run order (photon k's polarization stage is entry 2k, its
    spatial stage entry 2k+1), built when it is read. It is the one record
    of where the probability went: detector_probs and absorbed_prob are the
    math.fsum of its clicks and absorbed masses, taken from the arrays. Two
    outcomes are equal when their success, branches and stages are.
    """

    success_prob: float
    branches: tuple[OutcomeBranch, ...]
    clicks: np.ndarray
    absorbed: np.ndarray

    @property
    def stages(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.clicks.ravel().tolist(), self.absorbed.ravel().tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GateOutcome):
            return NotImplemented
        return ((self.success_prob, self.branches, self.stages)
                == (other.success_prob, other.branches, other.stages))

    @property
    def conditional_state(self) -> HyperState:
        return self.branches[0].state

    @property
    def spin_record(self) -> tuple[Spin, Spin]:
        return self.branches[0].spin_record

    @property
    def corrections(self) -> tuple[bool, bool]:
        return self.branches[0].corrections

    @property
    def detector_probs(self) -> dict[str, float]:
        # fsum is exact before its one rounding, so the order does not matter
        return {DETECTOR_B1: math.fsum(self.clicks[:, 0].tolist()),
                DETECTOR_B2: math.fsum(self.clicks[:, 1].tolist())}

    @property
    def absorbed_prob(self) -> float:
        return math.fsum(self.absorbed.ravel().tolist())

    @property
    def heralded_failure_prob(self) -> float:
        return math.fsum(self.detector_probs.values())


def _check_targets(targets: Sequence[PhotonSpec], cfg: GateConfig) -> None:
    try:
        n = len(targets)
    except TypeError:   # a generator or an iterator: no count to check
        raise ValidationError(
            f"targets must be a sequence of PhotonSpec, got {type(targets).__name__}") from None
    if n != cfg.n_targets:
        raise ValidationError(f"got {n} target specs but n_targets={cfg.n_targets}")


# The ledger's 4 x 6 coefficient table. Entry [k, column] is a
# polarization-bit factor times a spatial-bit factor, each read with ``take``
# from eight values indexed 2 * kind + branch bit: kinds 0, 1 and 2 are the
# (mirror, block) fractions that click, are absorbed and are kept
# (``circuit.branch_fractions``), kind 3 a pair of ones. _COLUMNS gives each
# column's (polarization, spatial) kinds: pol click, spatial click, pol
# absorbed, spatial absorbed (the spatial stage sees what the polarization
# stage kept), kept and entered.
_COLUMNS = ((0, 3), (2, 0), (1, 3), (2, 1), (2, 2), (3, 3))
_FACTOR_AT = tuple(np.array([[2 * kinds[b] + (k >> b & 1) for kinds in _COLUMNS]
                             for k in range(4)])
                   for b in (0, 1))
# Spin record and feed-forward flags of the four branches, in branch order.
_RECORDS = tuple(((Spin(d1), Spin(d2)), (bool(d1), bool(d2)))
                 for d1 in (0, 1) for d2 in (0, 1))


def check_transmits(T):
    """Refuse a block that never transmits: the gate cannot herald there.
    Returns |T|. Elementwise on an array of T."""
    mag = abs(T)
    refuse_where(mag < MIN_BLOCK_T, mag, DegeneratePhysicsError,
                 "basic block never transmits (|T|={:.3e}): the gate cannot herald a success")
    return mag


class FactoredRun(NamedTuple):
    """The gate in factored form at one cavity point or, along a leading
    batch axis, at many. Arrays, over the same leading axes:

      control   what the control's two stages multiply its entry k by on
                spin value 0, F[..., 0, k] = f(p, 0) f(m, 0)
      w         the photons' weights w[..., photon, k] the run was given,
                the control first; when every point has the same photons
                they may lack the batch axis
      norms     each photon's kept and entered masses [..., photon, 0 | 1],
                the squared norms |u|^2 and |x|^2 of what leaves and what
                enters its stages: a view of the ledger's last two columns
      success   heralded-success probability (a float for one point)
      clicks    detector clicks [..., photon, stage], the polarization
                stage first; absorbed is indexed alike. Both are views of
                one [..., photon, column] ledger table, which they keep
                alive
    """
    control: np.ndarray
    w: np.ndarray
    norms: np.ndarray
    success: np.ndarray
    clicks: np.ndarray
    absorbed: np.ndarray

    def truth_fidelity(self) -> np.ndarray:
        """Fidelity of the corrected branch state (the same for every spin
        record) with the truth-rule state of ``ideal_hyper_cnot_n``, from the
        weights and the ledger alone: the product over photons j of
        |sum_k conj(F[0, k]) w_j[k]|^2 / (kept_j entered_j), each factor
        photon j's |<u_j|x_j>|^2 / (|u_j|^2 |x_j|^2) (the module
        docstring's three identities)."""
        ratio = np.abs(np.einsum("...pk,...k->...p", self.w, np.conjugate(self.control)))
        ratio *= ratio
        ratio /= self.norms[..., 0]
        ratio /= self.norms[..., 1]
        return ratio.prod(axis=-1)


def factored_run(bc, mirror_scale, w: np.ndarray) -> FactoredRun:
    """The gate on photons of weights w (``hyperstate.gate_inputs``, or
    ``hyperstate.photon_weights`` of their vectors) in factored form.
    bc's fields and mirror_scale (``GateConfig.mirror_scale``; None: a
    balanced mirror) are numbers for one cavity point, or arrays of shape
    (B,) for a batch of B points, with w of shape (P, 4) or (B, P, 4). The
    caller has checked that every block transmits (``check_transmits``).
    Refuses what ``circuit.check_stage`` refuses, at any point: a mirror
    transmission |mirror_scale * T| above 1 among them."""
    tm, gm, d2, t2 = check_stage(bc, mirror_scale)
    T = bc.T
    # F[..., 0, k] = f(m, 0) f(p, 0) on k = p + 2m, f(0, 0) = tm the mirror's
    # and f(1, 0) = T the block's: four products in one numpy multiply (for a
    # point too: Python's complex multiply rounds differently), on a leading
    # axis that the transpose moves to the back, behind a batch axis
    control = (np.array((tm, tm, T, T)) * np.array((tm, T, tm, T))).T
    # |F[sigma, k]| does not depend on sigma, so no mass does either: a
    # photon's stage masses are its own, times the mass the photons before it
    # kept and the input norms of the photons after it. Its own are its
    # weights w[..., photon, k], contracted with the point's table
    # (``_COLUMNS``); the batch axis comes from the table, as w lacks it when
    # every point has the same photons.
    n = w.shape[-2]
    fractions = branch_fractions(gm, d2, t2)
    one = fractions[0] + 1.0   # the mirror never clicks: a 1 of the figures' shape
    factors = np.array((*fractions, one, one)).T   # [..., 2 * kind + branch bit]
    table = factors.take(_FACTOR_AT[0], axis=-1) * factors.take(_FACTOR_AT[1], axis=-1)
    ledger = np.einsum("...pk,...kc->...pc", w, table)   # [..., photon, column]
    kept = ledger[..., 4]
    chain = np.empty(kept.shape[:-1] + (2, n + 1))
    chain[..., 0] = 1.0
    chain[..., 0, 1:] = kept
    chain[..., 1, 1:] = ledger[..., ::-1, 5]
    # kept up to photon j; entered from the last back
    np.multiply.accumulate(chain, axis=-1, out=chain)
    success = chain[..., 0, -1][()]   # [()]: a float for one point
    tiny = success < sys.float_info.min
    if np.count_nonzero(tiny) if tiny.ndim else tiny:   # one point skips the count
        # a subnormal product sticks where a kept mass above 1/2 rounds it back
        # to itself; the sum of logs gives 0 below the smallest subnormal
        with np.errstate(divide="ignore"):
            success = np.where(tiny, np.exp(np.log(kept).sum(axis=-1)), success)[()]
    stage_masses = ledger[..., :4]
    stage_masses *= (chain[..., 0, :-1] * chain[..., 1, -2::-1])[..., None]
    return FactoredRun._make((control, w, ledger[..., 4:], success, ledger[..., :2],
                              ledger[..., 2:4]))


def _branch_vectors(control, T, mirror_scale, x: np.ndarray) -> np.ndarray:
    """The targets' outputs u_i = (A_0 (x) A_0) x_i = K (F[0] o K x_i) at one
    cavity point, from ``factored_run``'s control row F[0], the block's T
    and the targets' vectors x. A balanced mirror makes F[0] = T^2
    everywhere, and u_i = T^2 x_i is taken to the bit, Python's T * T the
    first operand."""
    if mirror_scale is None:
        return T * T * x
    return np.einsum("...k,jk->...j", control * np.einsum("...k,jk->...j", x, _K), _K)


def hyper_cnot_n(control: PhotonSpec, targets: Sequence[PhotonSpec],
                 cfg: GateConfig) -> GateOutcome:
    """Run the CNOT^N gate (photon a controls every target, in both degrees
    of freedom at once) and return the heralded outcome. Its branches share
    one ``FactoredState``, expanded on the first read of its amplitudes."""
    _check_targets(targets, cfg)
    bc = cavity_block_coeffs(cfg.params)
    check_transmits(bc.T)
    x, w = gate_inputs([control, *targets])
    run = factored_run(bc, cfg.mirror_scale, w)
    success = float(run.success)
    if success == 0.0:
        raise AmplitudeLostError("all amplitude lost: nothing left to measure")
    # the term of the control's index c: its amplitude F[0, c] x_c, with the
    # branch's Hadamard sign and feed-forward sign folded in, times the
    # targets' X^c u_i; the state normalizes itself when read
    state = FactoredState(run.control * x[0],
                          _branch_vectors(run.control, bc.T, cfg.mirror_scale, x[1:]),
                          "the four branch states")
    p = success / 4.0
    (r0, c0), (r1, c1), (r2, c2), (r3, c3) = _RECORDS
    make = OutcomeBranch._make   # tuple.__new__ on the fields, skipping __new__
    branches = (make((r0, p, c0, state)), make((r1, p, c1, state)),
                make((r2, p, c2, state)), make((r3, p, c3, state)))
    return GateOutcome(success, branches, run.clicks, run.absorbed)


def hyper_cnot(control: PhotonSpec, target: PhotonSpec,
               cfg: GateConfig) -> GateOutcome:
    """Two-photon special case of hyper_cnot_n."""
    if cfg.n_targets != 1:
        raise ValidationError(
            f"hyper_cnot is the single-target gate; config says n_targets={cfg.n_targets}")
    return hyper_cnot_n(control, [target], cfg)


def ideal_hyper_cnot_n(control: PhotonSpec,
                       targets: Sequence[PhotonSpec]) -> HyperState:
    """Exact state the lossless gate should emit, built directly from the
    truth rule rather than the optical train: the input product state with,
    on the control's L component, every target's polarization bit flipped
    and, on the control's mode-2 component, every target's spatial bit
    flipped. Photon-only, normalized, and factored like the gate's branch
    state."""
    x = photon_vectors([control, *targets])
    return FactoredState(x[0], x[1:], "the truth-rule states of the four branches")


def ideal_hyper_cnot(control: PhotonSpec, target: PhotonSpec) -> HyperState:
    return ideal_hyper_cnot_n(control, [target])


class TruthRow(NamedTuple):
    control: str   # e.g. "R,1"
    target: str
    output: str    # dominant output basis label, e.g. "a:R,1 b:L,2"
    fidelity: float


def truth_table(cfg: GateConfig) -> list[TruthRow]:
    """All 16 two-photon basis inputs through the gate. Each output is a
    single basis state; fidelity is taken against the truth rule."""
    if cfg.n_targets != 1:
        raise ValidationError("truth_table is defined for the single-target gate")
    rows = []
    for cp in (Pol.R, Pol.L):
        for cs in (Spatial.M1, Spatial.M2):
            for tp in (Pol.R, Pol.L):
                for ts in (Spatial.M1, Spatial.M2):
                    control = PhotonSpec.basis(cp, cs)
                    target = PhotonSpec.basis(tp, ts)
                    state = hyper_cnot(control, target, cfg).conditional_state
                    # from the factors, before the search below expands them
                    fid = fidelity(state, ideal_hyper_cnot(control, target))
                    label, _ = max(state.amplitudes.items(), key=lambda kv: abs(kv[1]))
                    rows.append(TruthRow(
                        control=f"{cp.name},{int(cs) + 1}",
                        target=f"{tp.name},{int(ts) + 1}",
                        output=str(BasisLabel(label, 2, has_spins=False)),
                        fidelity=fid,
                    ))
    return rows


# ---------------------------------------------------------------------------
# Shot sampling.
#
# The gate is failure-heralded: every shot ends in exactly one outcome of a
# fixed list -- a stage's detector click, absorption at a stage, or success
# in one spin branch. One amplitude run's GateOutcome gives the absolute mass
# of each (its stages, then its branches; they sum to 1 by conservation), so
# the counts over many independent shots are one multinomial draw over them.
# ---------------------------------------------------------------------------

@dataclass
class SampleStats:
    """Aggregate counts over many shots."""

    shots: int
    successes: int
    detector_clicks: dict[str, int]
    absorbed: int
    spin_counts: dict[tuple[Spin, Spin], int]
    success_prob: float  # exact value the frequency estimates

    @property
    def success_frequency(self) -> float:
        return self.successes / self.shots


# Most shots one draw may take: numpy's multinomial counts are int64.
MAX_SHOTS = 2**63 - 1


def _draw(masses: Sequence[float], shots: int, seed: int) -> np.ndarray:
    """Counts of ``shots`` independent draws over outcomes with the given
    non-negative masses, normalized by their sum."""
    p = np.asarray(masses, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))   # default_rng(seed) minus its dispatch
    return rng.multinomial(shots, p / p.sum())


def sample_shots(control: PhotonSpec, targets: Sequence[PhotonSpec],
                 cfg: GateConfig, shots: int) -> SampleStats:
    """Realize many shots and tally them: one multinomial draw, so the cost
    does not grow with ``shots``. Deterministic given the seed."""
    if cfg.rng_seed is None:
        raise ValidationError("sampling requires a GateConfig with rng_seed set")
    shots = check_count(shots, "shots", MAX_SHOTS)
    out = hyper_cnot_n(control, targets, cfg)
    masses = [m for stage in out.stages for m in stage]
    n = len(masses)
    masses += [b.probability for b in out.branches]
    counts = _draw(masses, shots, cfg.rng_seed).tolist()
    return SampleStats(
        shots=shots,
        successes=sum(counts[n:]),
        detector_clicks={DETECTOR_B1: sum(counts[0:n:4]),
                         DETECTOR_B2: sum(counts[2:n:4])},
        absorbed=sum(counts[1:n:2]),
        spin_counts={b.spin_record: c for b, c in zip(out.branches, counts[n:])},
        success_prob=out.success_prob,
    )
