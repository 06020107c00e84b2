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
F[sigma, k] = f(p, s1) * f(m, s2), with f from ``circuit.stage_factors``:
mirror_T on the mirror branch, +/-T on the block branch. Every stage is
diagonal in the spins, so:

  * the control's basis index c leaves its stages and the middle spin
    Hadamards on the one spin value sigma(c) = (s1 = p, s2 = m), with
    amplitude F[0, c] * x_c;
  * target i then sees that spin value and leaves as t_i = K (F_sigma o K x_i);
  * before the final spin Hadamards the state is a sum of four product
    states, sum_c |sigma(c)> (x) F[0, c] x_c |c> (x) t_1 (x) ... (x) t_N;
  * the final spin Hadamards give the term of c the sign
    (-1)^(record . sigma(c)) / 2, the very sign the feed-forward undoes
    (negating photon a's L when spin 1 is down and its mode 2 when spin 2 is
    down). So each of the four spin records has probability success / 4 and
    the same corrected state.

|F[sigma, k]| does not depend on sigma, so the success probability and every
stage's masses are products of per-photon sums, computed with the photons
stacked on one numpy axis. Only the expansion of the corrected state grows
with the output: ``hyperstate.expand_products`` expands each term over its
factors' nonzero entries (basis inputs stay at a few labels) and refuses a
result above ``hyperstate.MAX_AMPLITUDES`` before it is built. The Hadamards
are elementwise butterflies, so exact cancellations give exact zeros.

``factored_run`` is that computation, written over leading numpy axes: for
one cavity point (``hyper_cnot_n``) its arrays have none, and for a batch of
points (``analysis.sweep_efficiency`` and ``fidelity_scan``) they have one,
so one call runs the gate at every point of a chunk. Its result gives the
fidelity with the truth-rule state without expanding either state
(``FactoredRun.truth_fidelity``): the ideal is the same kind of sum over the
control's index c, each target's 4-vector permuted by the truth rule's XOR
by c, so the overlap and both norms are sums over c of per-target products.

A success probability below the smallest normal float (thousands of targets)
cannot normalize the branch states, and ``hyper_cnot_n`` refuses it with
ValidationError; one of exactly 0 (a dead mirror on a basis input) raises
AmplitudeLostError. ``factored_run`` and ``truth_fidelity`` need no
normalized state (the fidelity normalizes each target on its own), so a
sweep reports such a point.

The run is trace-decreasing: with block transmission T, the heralded-success
probability is |T|^(4(N+1)) for N targets. ``GateOutcome.stages`` records
where the rest went: the (click, absorbed) masses of each photon's
polarization stage and spatial stage, in run order, from
``circuit.stage_masses``; the gate's detector and absorbed totals are their
sums.

Two modes: "amplitude" reports the full outcome distribution (the
conditional state is outcome-independent, so the reported spin record is
just the canonical first branch); "sampled" additionally draws the spin
record from a seeded RNG. With the branch probabilities, the stage masses
are every way a shot can end; shots of the heralding itself (click / absorb
/ succeed) come from ``sample_shots``: one multinomial draw over those
masses, whose cost does not grow with the shot count.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import stage_factors, stage_masses
from .errors import (
    AmplitudeLostError,
    DegeneratePhysicsError,
    ValidationError,
    check_count,
    refuse_where,
)
from .hyperstate import (
    DETECTOR_B1,
    DETECTOR_B2,
    BasisLabel,
    HyperState,
    PhotonSpec,
    Pol,
    Spatial,
    Spin,
    expand_products,
    fidelity,
    photon_vectors,
    pol_mask,
    spatial_mask,
)
from .scattering import CavityParams, block_coeffs, scatter_coeffs

# Below this transmission magnitude the gate cannot post-select a success.
MIN_BLOCK_T = 1e-12

MODES = ("amplitude", "sampled")


def check_seed(seed, name: str) -> None:
    """A seed numpy's generators accept: None, or an int >= 0 that is not a
    bool."""
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)
                             or seed < 0):
        raise ValidationError(f"{name} must be None or an int >= 0, got {seed!r}")


@dataclass(frozen=True)
class GateConfig:
    """Physics and execution settings for one gate run.

    mirror_T_override replaces the balancing mirrors' transmission (which
    defaults to the block's own T so that all branches attenuate equally).
    Setting it to anything else unbalances the interferometer and degrades
    fidelity; it exists for exactly that kind of what-if run.
    """

    params: CavityParams
    n_targets: int = 1
    mirror_T_override: complex | None = None
    mode: str = "amplitude"
    rng_seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.params, CavityParams):
            raise ValidationError("params must be a CavityParams")
        check_count(self.n_targets, "n_targets")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_seed(self.rng_seed, "rng_seed")
        if self.mode == "sampled" and self.rng_seed is None:
            raise ValidationError("sampled mode requires rng_seed")
        if self.mirror_T_override is not None:
            if (isinstance(self.mirror_T_override, bool)
                    or not isinstance(self.mirror_T_override, (int, float, complex))):
                raise ValidationError(
                    f"mirror override must be an int, float or complex, "
                    f"got {self.mirror_T_override!r}")
            if not cmath.isfinite(self.mirror_T_override):
                raise ValidationError(
                    f"mirror override {self.mirror_T_override} is not finite")
            if abs(self.mirror_T_override) > 1.0 + 1e-12:
                raise ValidationError(
                    f"mirror override magnitude {abs(self.mirror_T_override)} exceeds 1")


class OutcomeBranch(NamedTuple):
    """One spin-measurement branch after feed-forward. probability is
    absolute (all branches together sum to the success probability)."""
    spin_record: tuple[Spin, Spin]
    probability: float
    corrections: tuple[bool, bool]  # (pol phase applied, spatial phase applied)
    state: HyperState               # photon-only, normalized, corrected


@dataclass
class GateOutcome:
    """Full result of one gate run.

    success_prob + heralded_failure_prob + absorbed_prob = 1 (to rounding).
    branches lists every nonzero spin outcome; conditional_state is the
    corrected state of the reported branch (they are all the same state,
    which is the point of the feed-forward).

    stages holds one (click, absorbed) pair per routing stage, in run order:
    photon k's polarization stage (detector_B1) is entry 2k and its spatial
    stage (detector_B2) is entry 2k+1, with the control as photon 0. It is
    the one record of where the probability went: detector_probs and
    absorbed_prob are the math.fsum of its clicks and absorbed masses.
    """

    conditional_state: HyperState
    spin_record: tuple[Spin, Spin]
    corrections: tuple[bool, bool]
    success_prob: float
    detector_probs: dict[str, float]
    absorbed_prob: float
    branches: tuple[OutcomeBranch, ...]
    stages: tuple[tuple[float, float], ...]

    @property
    def heralded_failure_prob(self) -> float:
        return math.fsum(self.detector_probs.values())


def _check_targets(targets: Sequence[PhotonSpec], cfg: GateConfig) -> None:
    if len(targets) != cfg.n_targets:
        raise ValidationError(
            f"got {len(targets)} target specs but n_targets={cfg.n_targets}")


# A photon's 4-vector is indexed k = p + 2m (polarization bit low, spatial
# bit high, as in the labels); a spin value is sigma = 2*s1 + s2, the bit
# layout of k with its bits swapped, so s1 = _M[sigma] and s2 = _P[sigma].
_P = np.array([0, 1, 0, 1])
_M = np.array([0, 0, 1, 1])
_P_COL = _P[:, None]
_M_COL = _M[:, None]
# sigma(c): the one spin value the control's basis index c leaves after the
# middle spin Hadamards (s1 = p, s2 = m).
_SIGMA = (0, 2, 1, 3)
# The butterfly over bit b pairs entry k & ~b with k | b; the entry with the
# bit set takes the difference.
_LO = {b: np.array([k & ~b for k in range(4)]) for b in (1, 2)}
_HI = {b: np.array([k | b for k in range(4)]) for b in (1, 2)}
_SIGN = {b: np.array([-1.0 if k & b else 1.0 for k in range(4)]) for b in (1, 2)}
# Spin record and feed-forward flags of the four branches, in branch order.
_RECORDS = tuple(((Spin(d1), Spin(d2)), (bool(d1), bool(d2)))
                 for d1 in (0, 1) for d2 in (0, 1))


# The truth rule permutes target i's 4-vector by k -> k ^ c on the control's
# basis index c: it flips the pol bit on the control's L, the spatial bit on
# its mode 2. _XOR[c, k] = k ^ c.
_XOR = np.array([[k ^ c for k in range(4)] for c in range(4)])
# The mass table of ``_mass_table``, row k = p + 2m, is _TABLE_1 plus the sum
# over j of G[j] * _TABLE_G[j], for G = (g0, g1, g0 g0, g0 g1, g1 g1) and
# g = (|mirror_T|^2, |T|^2) indexed by branch bit. Each entry takes one term,
# so the sum is exact.
_TABLE_1 = np.array([[p == 0, p == 1, 0, 0, 0, 1] for m in (0, 1) for p in (0, 1)],
                    dtype=float)
_TABLE_G = np.array([[[(j == p and col == 2 + m)       # g_p, into the spatial stage
                        or (j == 2 + p + m and col == 4)  # g_p g_m, kept
                        for col in range(6)] for m in (0, 1) for p in (0, 1)]
                      for j in range(5)], dtype=float)


def _hadamards(a: np.ndarray) -> np.ndarray:
    """Polarization then spatial Hadamard (K) on the last axis: two unscaled
    elementwise butterflies a_lo +/- a_hi, so that exact cancellations give
    exact zeros, then one factor 1/sqrt2 * 1/sqrt2 = 0.5, which is exact, so
    K keeps a basis vector's norm exactly."""
    for bit in (1, 2):
        a = a[..., _LO[bit]] + _SIGN[bit] * a[..., _HI[bit]]
    return 0.5 * a


def _mass_table(g_mirror, g_block) -> np.ndarray:
    """(..., 1, 4, 6) table taking a photon's |amplitude|^2 4-vector, as it
    enters its polarization stage, to: the masses entering the polarization
    stage's mirror and block branches, those entering the spatial stage's
    mirror and block branches, the mass kept after both, and the mass that
    entered. g_mirror and g_block are |mirror_T|^2 and |T|^2, numbers or
    arrays over the leading axes."""
    G = np.array((g_mirror, g_block, g_mirror * g_mirror, g_mirror * g_block,
                  g_block * g_block)).T
    return (G[..., None, :, None, None] * _TABLE_G).sum(axis=-3) + _TABLE_1


def check_transmits(T) -> None:
    """Refuse a block that never transmits: the gate cannot herald there.
    Elementwise on an array of T."""
    mag = abs(T)
    refuse_where(mag < MIN_BLOCK_T, mag, DegeneratePhysicsError,
                 "basic block never transmits (|T|={:.3e}): the gate cannot herald a success")


class FactoredRun(NamedTuple):
    """The gate in factored form at one cavity point or, along a leading
    batch axis, at many. Arrays, over the same leading axes:

      x         photon 4-vectors x[..., photon, k], the control first; when
                every point has the same photons it may lack the batch axis
      factors   stage factors F[..., sigma, k]
      t         target i's output t[..., sigma, i, k] on spin value sigma
      success   heralded-success probability (a float for one point)
      clicks    detector clicks [..., photon, stage], the polarization
                stage first; absorbed is indexed alike
    """
    x: np.ndarray
    factors: np.ndarray
    t: np.ndarray
    success: np.ndarray
    clicks: np.ndarray
    absorbed: np.ndarray

    def truth_fidelity(self) -> np.ndarray:
        """Fidelity of the corrected branch state (the same for every spin
        record) with the truth-rule state of ``ideal_hyper_cnot_n``, without
        expanding either. The control's index c picks the term
        F[0, c] x0_c |c> (x) t[sigma(c), 1] (x) ... of the branch state and
        x0_c |c> (x) P_c x_1 (x) ... of the ideal, P_c the truth rule's XOR
        by c, so

          <ideal|psi> = sum_c conj(x0_c) F[0, c] x0_c prod_i <P_c x_i | t[sigma(c), i]>

        and both norms factor alike. Each t[sigma, i] is first divided by its
        norm, which does not depend on sigma (|F[sigma, k]| does not), so
        the products cannot underflow."""
        x = self.x
        norm = np.sqrt((np.abs(self.t) ** 2).sum(axis=-1))
        u = (self.t / norm[..., None])[..., _SIGMA, :, :]   # unit, u[..., c, i, k]
        ideal = np.swapaxes(x[..., 1:, _XOR], -3, -2)       # P_c x_i, [..., c, i, k]
        w0 = np.abs(x[..., 0, :]) ** 2
        head = self.factors[..., 0, :]
        inner = (head * w0 * (ideal.conj() * u).sum(axis=-1).prod(axis=-1)).sum(axis=-1)
        norm_psi = (np.abs(head) ** 2 * w0
                    * (np.abs(u) ** 2).sum(axis=-1).prod(axis=-1)).sum(axis=-1)
        norm_ideal = w0.sum(axis=-1) * (np.abs(x[..., 1:, :]) ** 2).sum(axis=-1).prod(axis=-1)
        return np.abs(inner) ** 2 / (norm_psi * norm_ideal)


def factored_run(bc, mirror_T, x: np.ndarray) -> FactoredRun:
    """The gate on photon vectors x (``hyperstate.photon_vectors``) in
    factored form. bc's fields and mirror_T (None: the block's T) are numbers
    for one cavity point, or arrays of shape (B,) for a batch of B points,
    with x of shape (P, 4) or (B, P, 4). The caller has checked that every
    block transmits (``check_transmits``). Refuses what ``stage_factors``
    refuses, at any point."""
    fs = stage_factors(bc, mirror_T)
    f = np.array(fs)                                # f[branch bit, spin bit, ...]
    # F[..., sigma, k] = f(p, s1) f(m, s2), built as [k, sigma, ...] and
    # transposed, which moves a batch axis to the front
    factors = (f[_P_COL, _M] * f[_M_COL, _P]).T
    v = _hadamards(x)
    v[..., 0, :] = x[..., 0, :]                # the control enters its stages as it came
    t = _hadamards(factors[..., :, None, :] * v[..., None, 1:, :])
    # |F[sigma, k]| does not depend on sigma, so no mass does either: a
    # photon's stage masses are its own, times the mass the photons before it
    # kept and the input norms of the photons after it.
    n = x.shape[-2]
    # |mirror_T| from stage_factors' own number, not from f: numpy's complex
    # abs rounds differently from Python's, which one point keeps
    table = _mass_table(abs(fs[0][0]) ** 2, abs(bc.T) ** 2)
    routed = ((np.abs(v) ** 2)[..., :, :, None] * table).sum(axis=-2)
    chain = np.ones(routed.shape[:-2] + (2, n + 1))
    chain[..., 0, 1:] = routed[..., 4]
    chain[..., 1, 1:] = routed[..., ::-1, 5]
    np.cumprod(chain, axis=-1, out=chain)  # kept up to photon j; norms from the last back
    routed = routed[..., :4] * (chain[..., 0, :-1] * chain[..., 1, -2::-1])[..., None]
    # transposed, the batch axis is last, where bc's fields broadcast
    clicks, absorbed = stage_masses(routed.T[0::2], routed.T[1::2], bc, mirror_T)
    success = chain[..., 0, -1][()]   # [()]: a float for one point
    return FactoredRun(x, factors, t, success, clicks.T, absorbed.T)


def hyper_cnot_n(control: PhotonSpec, targets: Sequence[PhotonSpec],
                 cfg: GateConfig) -> GateOutcome:
    """Run the CNOT^N gate (photon a controls every target, in both degrees
    of freedom at once) and return the heralded outcome."""
    _check_targets(targets, cfg)
    bc = block_coeffs(scatter_coeffs(cfg.params))
    check_transmits(bc.T)
    x = photon_vectors([control, *targets])
    run = factored_run(bc, cfg.mirror_T_override, x)
    clicks = run.clicks.ravel().tolist()
    stages = tuple(zip(clicks, run.absorbed.ravel().tolist()))
    success = float(run.success)
    # a subnormal success has lost its precision: dividing by its root would
    # not normalize the branch states
    if 0.0 < success < sys.float_info.min:
        raise ValidationError(
            f"the success probability {success:.3g} of {len(targets)} targets is below "
            "the smallest normal float: the branch states cannot be normalized")
    branches = ()
    if success > 0.0:
        # the control's amplitude F[0, c] x_c on sigma(c), with the branch's
        # Hadamard sign, feed-forward sign and normalization folded in
        head = (run.factors[0] * (x[0] / math.sqrt(success))).tolist()
        # the terms lie on disjoint labels, one per control index c
        amps = expand_products([(c, coef, run.t[_SIGMA[c]]) for c, coef in enumerate(head)],
                               1, "the four branch states")
        if amps:
            states = [HyperState(len(x), amps, has_spins=False) for _ in _RECORDS[1:]]
            # the expanded dict is the first branch's own; the others copy it
            states.insert(0, HyperState(len(x), has_spins=False))
            states[0].amplitudes = amps
            branches = tuple(OutcomeBranch(record, success / 4.0, corrections, state)
                             for (record, corrections), state in zip(_RECORDS, states))
    if not branches:
        raise AmplitudeLostError("all amplitude lost: nothing left to measure")
    chosen = branches[0]
    if cfg.mode == "sampled":
        masses = [b.probability for b in branches]
        chosen = branches[int(_draw(masses, 1, cfg.rng_seed).argmax())]
    return GateOutcome(
        conditional_state=chosen.state,
        spin_record=chosen.spin_record,
        corrections=chosen.corrections,
        success_prob=success,
        detector_probs={DETECTOR_B1: math.fsum(clicks[0::2]),
                        DETECTOR_B2: math.fsum(clicks[1::2])},
        absorbed_prob=math.fsum(a for _, a in stages),
        branches=branches,
        stages=stages,
    )


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
    flipped. Photon-only, normalized."""
    n = 1 + len(targets)
    pol_flip = sum(pol_mask(i) for i in range(1, n))
    spat_flip = sum(spatial_mask(i) for i in range(1, n))
    # indexed by the control's (pol, spatial) bits, the label's two lowest
    flips = (0, pol_flip, spat_flip, pol_flip | spat_flip)
    amps = expand_products([(0, 1 + 0j, photon_vectors([control, *targets]))], 0,
                           "the truth-rule states of the four branches")
    return HyperState(n, {label ^ flips[label & 3]: amp for label, amp in amps.items()},
                      has_spins=False)


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
                    out = hyper_cnot(control, target, cfg)
                    label, _ = max(out.conditional_state.amplitudes.items(),
                                   key=lambda kv: abs(kv[1]))
                    rows.append(TruthRow(
                        control=f"{cp.name},{int(cs) + 1}",
                        target=f"{tp.name},{int(ts) + 1}",
                        output=str(BasisLabel(label, 2, has_spins=False)),
                        fidelity=fidelity(out.conditional_state,
                                          ideal_hyper_cnot(control, target)),
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
    return np.random.default_rng(seed).multinomial(shots, p / p.sum())


def sample_shots(control: PhotonSpec, targets: Sequence[PhotonSpec],
                 cfg: GateConfig, shots: int) -> SampleStats:
    """Realize many shots and tally them: one multinomial draw, so the cost
    does not grow with ``shots``. Deterministic given the seed."""
    if cfg.rng_seed is None:
        raise ValidationError("sampling requires a GateConfig with rng_seed set")
    check_count(shots, "shots")
    if shots > MAX_SHOTS:
        raise ValidationError(f"shots must be <= {MAX_SHOTS}, got {shots}")
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
