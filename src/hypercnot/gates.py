"""Heralded hyperparallel CNOT and CNOT^N gate runs.

One run sends the control photon (a) and then each target photon through the
polarization and spatial routing stages of ``circuit``. The two spins start
in (up+down)/sqrt2; target photons are wrapped in polarization/spatial
Hadamards so that a block transit toggles them conditioned on the spin, and
final spin Hadamards convert the accumulated Z kicks into measurable flips.
Measuring the spins and applying the outcome-dependent phase feed-forward to
photon a, done together in one pass over the amplitudes, leaves the same
conditional photon state for every spin record: a CNOT on the polarization
bits (control a) and, independently, a CNOT on the spatial bits, both
applied to each target.

A run is trace-decreasing: with block transmission T, the heralded-success
probability is |T|^(4(N+1)) for N targets. Each routing stage returns the
mass it sent to its heralding detector and the mass it absorbed; the run
keeps those pairs in ``GateOutcome.stages``, and the gate's detector and
absorbed totals are their sums.

Two modes: "amplitude" evolves amplitudes once and reports the full outcome
distribution (the conditional state is outcome-independent, so the reported
spin record is just the canonical first branch); "sampled" additionally draws
the spin record from a seeded RNG.

``GateOutcome.stages`` records where the probability went at each routing
stage: the (click, absorbed) masses of each photon's polarization stage and
spatial stage, in run order. With the branch probabilities they are every
way a shot can end. Shots of the heralding itself (click / absorb / succeed)
come from ``sample_shots``: one multinomial draw over those masses, whose
cost does not grow with the shot count.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import stage_polarization, stage_spatial
from .errors import (
    AmplitudeLostError,
    DegeneratePhysicsError,
    ValidationError,
    check_count,
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
    fidelity,
    init_state,
    pol_mask,
    product_amplitudes,
    spatial_mask,
    spin_mask,
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
    corrected state of the reported branch (they are all equal up to a global
    phase, which is the point of the feed-forward).

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


def _run_protocol(control: PhotonSpec, targets: Sequence[PhotonSpec], cfg: GateConfig
                  ) -> tuple[HyperState, list[tuple[float, float]]]:
    """Evolve the joint state through the whole optical train, up to (not
    including) the spin measurement. Also returns each routing stage's
    (click, absorbed) masses in run order."""
    _check_targets(targets, cfg)
    bc = block_coeffs(scatter_coeffs(cfg.params))
    if abs(bc.T) < MIN_BLOCK_T:
        raise DegeneratePhysicsError(
            f"basic block never transmits (|T|={abs(bc.T):.3e}): "
            "the gate cannot herald a success")
    mirror_T = bc.T if cfg.mirror_T_override is None else cfg.mirror_T_override
    state = init_state([control, *targets], spins="plus")
    stages = [stage_polarization(state, 0, bc, mirror_T),
              stage_spatial(state, 0, bc, mirror_T)]
    state.spin_hadamard(1)
    state.spin_hadamard(2)
    for i in range(1, 1 + len(targets)):
        state.pol_hadamard(i)
        state.spatial_hadamard(i)
        stages.append(stage_polarization(state, i, bc, mirror_T))
        stages.append(stage_spatial(state, i, bc, mirror_T))
        state.pol_hadamard(i)
        state.spatial_hadamard(i)
    state.spin_hadamard(1)
    state.spin_hadamard(2)
    return state, stages


def _measure_and_correct(state: HyperState) -> tuple[OutcomeBranch, ...]:
    """Spin measurement and feed-forward in one pass over the amplitudes.
    Each amplitude, spin bits cleared, goes to its spin record's branch:
    (up,up), (up,down), (down,up), (down,down), zero-probability ones left
    out. Spin 1 down negates photon a's L component and spin 2 down its
    mode-2 component, so every branch (photon-only, normalized) holds the
    same photon state. Probabilities are absolute."""
    m1 = spin_mask(state.n_photons, 1)
    m2 = spin_mask(state.n_photons, 2)
    photon_bits = m1 - 1
    buckets: tuple[dict[int, complex], ...] = ({}, {}, {}, {})
    for label, amp in state.amplitudes.items():
        buckets[2 * bool(label & m1) + bool(label & m2)][label & photon_bits] = amp
    branches = []
    for index, bucket in enumerate(buckets):
        prob = math.fsum(abs(a) ** 2 for a in bucket.values())
        if prob <= 0.0:
            continue
        down1, down2 = index >> 1, index & 1
        # photon a's bits to negate on; a label with both is negated twice.
        # Negated after scaling: (-a) * scale can differ from -(a * scale)
        # in the sign of a zero component.
        fix = down1 * pol_mask(0) | down2 * spatial_mask(0)
        scale = 1.0 / math.sqrt(prob)
        amps = {l: -(a * scale) if (l & fix) in (1, 2) else a * scale
                for l, a in bucket.items()}
        branches.append(OutcomeBranch((Spin(down1), Spin(down2)), prob,
                                      (bool(down1), bool(down2)),
                                      HyperState(state.n_photons, amps, has_spins=False)))
    if not branches:
        raise AmplitudeLostError("all amplitude lost: nothing left to measure")
    return tuple(branches)


def hyper_cnot_n(control: PhotonSpec, targets: Sequence[PhotonSpec],
                 cfg: GateConfig) -> GateOutcome:
    """Run the CNOT^N gate (photon a controls every target, in both degrees
    of freedom at once) and return the heralded outcome."""
    state, stages = _run_protocol(control, targets, cfg)
    success = state.norm_sq()
    clicks = [click for click, _ in stages]
    branches = _measure_and_correct(state)
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
        absorbed_prob=math.fsum(absorbed for _, absorbed in stages),
        branches=branches,
        stages=tuple(stages),
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
    amps = product_amplitudes([control, *targets])
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
