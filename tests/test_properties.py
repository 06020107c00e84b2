"""Property tests over fidelity_scan's parameter ranges and N = 1..3: the
heralded success is |T|^(4(N+1)), probability is conserved, the sampler's
outcome masses form a distribution whose stage entries sum to the gate's
detector and absorbed probabilities, and every spin branch obeys the truth
rule."""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercnot import (
    DETECTOR_B1,
    DETECTOR_B2,
    CavityParams,
    GateConfig,
    PhotonSpec,
    Pol,
    Spatial,
    block_coeffs,
    fidelity,
    hyper_cnot_n,
    ideal_hyper_cnot_n,
    scatter_coeffs,
)
from hypercnot.analysis import _SCAN_RANGES

# Fixed examples, so a Tier-1 run is repeatable and stays within a second.
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                             database=None)


def _ratio(name):
    return st.floats(*_SCAN_RANGES[name])


params_st = st.builds(CavityParams.from_ratios, g_ratio=_ratio("g_ratio"),
                      ks_ratio=_ratio("ks_ratio"), gamma_ratio=_ratio("gamma_ratio"),
                      detuning_c=_ratio("detuning"), detuning_x=_ratio("detuning"))


@st.composite
def superpositions(draw):
    def pair():
        re0, im0, re1, im1 = (draw(st.floats(-1.0, 1.0)) for _ in range(4))
        nrm = math.sqrt(re0 * re0 + im0 * im0 + re1 * re1 + im1 * im1)
        assume(nrm > 1e-3)
        return (complex(re0, im0) / nrm, complex(re1, im1) / nrm)
    return PhotonSpec(pol=pair(), spatial=pair())


basis_photons = st.builds(PhotonSpec.basis, st.sampled_from(Pol), st.sampled_from(Spatial))
photons = st.one_of(basis_photons, superpositions())

gates_st = st.integers(1, 3).flatmap(
    lambda n: st.tuples(params_st, photons, st.lists(photons, min_size=n, max_size=n)))


@PROPERTY_SETTINGS
@given(gates_st)
def test_success_and_conservation(gate):
    params, control, targets = gate
    out = hyper_cnot_n(control, targets, GateConfig(params=params, n_targets=len(targets)))
    T = block_coeffs(scatter_coeffs(params)).T
    assert abs(out.success_prob - abs(T) ** (4 * (len(targets) + 1))) <= 1e-12
    total = math.fsum([out.success_prob, out.heralded_failure_prob, out.absorbed_prob])
    assert abs(total - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(gates_st, st.one_of(st.none(), st.floats(0.5, 1.0)))
def test_sampler_outcome_masses_are_a_distribution(gate, mirror_scale):
    params, control, targets = gate
    cfg = GateConfig(params=params, n_targets=len(targets), mirror_scale=mirror_scale)
    out = hyper_cnot_n(control, targets, cfg)
    masses = [m for stage in out.stages for m in stage]
    masses += [b.probability for b in out.branches]
    assert min(masses) >= 0.0
    assert abs(math.fsum(masses) - 1.0) <= 1e-12
    # two stages per photon, B1 then B2; the gate's totals are their sums
    assert len(out.stages) == 2 * (len(targets) + 1)
    clicks = [click for click, _ in out.stages]
    assert math.fsum(clicks[0::2]) == out.detector_probs[DETECTOR_B1]
    assert math.fsum(clicks[1::2]) == out.detector_probs[DETECTOR_B2]
    assert math.fsum(a for _, a in out.stages) == out.absorbed_prob


@PROPERTY_SETTINGS
@given(gates_st)
def test_every_branch_obeys_the_truth_rule(gate):
    params, control, targets = gate
    out = hyper_cnot_n(control, targets, GateConfig(params=params, n_targets=len(targets)))
    ideal = ideal_hyper_cnot_n(control, targets)
    for branch in out.branches:
        assert fidelity(branch.state, ideal) >= 1.0 - 1e-10
