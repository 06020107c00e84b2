"""The gate's lazily expanded output state: one shared object, expanded on
the first read of its amplitudes, and a fidelity taken from its factors."""
import cmath
import json
import math
import random

import numpy as np
import pytest

from hypercnot import analysis, hyperstate
from hypercnot import (
    CavityParams,
    GateConfig,
    HyperState,
    PhotonSpec,
    Pol,
    Spatial,
    ValidationError,
    block_coeffs,
    fidelity,
    fidelity_scan,
    hyper_cnot_n,
    ideal_hyper_cnot_n,
    random_photon_spec,
    sample_shots,
    scatter_coeffs,
    stage_polarization,
    stage_spatial,
    truth_table,
)
from hypercnot.cli import main
from hypercnot.gates import factored_run
from hypercnot.hyperstate import FactoredState, photon_vectors, pol_mask

BENCH = ["--g", "3.3", "--kappa-s", "0.1", "--gamma", "0.1"]
U = PhotonSpec.uniform()


@pytest.fixture
def expansions(monkeypatch):
    """The ``what`` of every ``expand_products`` call, in call order."""
    calls = []
    expand = hyperstate.expand_products

    def counted(terms, first, what):
        calls.append(what)
        return expand(terms, first, what)

    monkeypatch.setattr(hyperstate, "expand_products", counted)
    return calls


def test_the_four_branches_share_one_state(bench_config):
    out = hyper_cnot_n(U, [U], bench_config)
    assert isinstance(out.conditional_state, FactoredState)
    assert all(branch.state is out.conditional_state for branch in out.branches)


def test_cnot8_expands_nothing(bench_params, expansions):
    out = hyper_cnot_n(U, [U] * 8, GateConfig(params=bench_params, n_targets=8))
    ideal = ideal_hyper_cnot_n(U, [U] * 8)
    assert fidelity(out.conditional_state, ideal) == pytest.approx(1.0, abs=1e-12)
    assert expansions == []


def test_sampling_expands_nothing_past_the_amplitude_limit(bench_params, expansions):
    # nine +,+ targets: the four branch states would need 4 * 4^10 amplitudes
    stats = sample_shots(U, [U] * 9,
                         GateConfig(params=bench_params, n_targets=9, rng_seed=3), 10**5)
    assert expansions == []
    assert (stats.successes + sum(stats.detector_clicks.values()) + stats.absorbed
            == 10**5)
    assert sum(stats.spin_counts.values()) == stats.successes


def test_truth_table_expands_only_the_searched_states(bench_config, expansions):
    rows = truth_table(bench_config)
    assert expansions == ["the four branch states"] * 16
    assert all(row.fidelity == pytest.approx(1.0, abs=1e-12) for row in rows)


def test_run_expands_only_the_printed_state(expansions, capsys):
    assert main(["run", "--control", "+,+", "--target", "+,+", "--format", "json",
                 *BENCH]) == 0
    assert expansions == ["the four branch states"]
    payload = json.loads(capsys.readouterr().out)
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert len(payload["amplitudes"]) == 16


def test_repeated_reads_expand_once(bench_config, expansions):
    out = hyper_cnot_n(U, [U], bench_config)
    amps = out.branches[0].state.amplitudes
    assert out.conditional_state.factors is None
    assert out.branches[3].state.amplitudes is amps
    assert out.conditional_state == out.branches[2].state
    assert expansions == ["the four branch states"]


@pytest.mark.parametrize("n", [7, 9])
def test_equal_outcomes_compare_by_their_factors(bench_params, expansions, n):
    # at CNOT^9 the four branch states would need more than MAX_AMPLITUDES
    cfg = GateConfig(params=bench_params, n_targets=n)
    first, second = hyper_cnot_n(U, [U] * n, cfg), hyper_cnot_n(U, [U] * n, cfg)
    assert first.conditional_state is not second.conditional_state
    assert first == second
    assert first.conditional_state == second.conditional_state
    assert expansions == []
    assert first.conditional_state.factors is not None


def test_two_factorings_of_one_state_compare_by_their_amplitudes(bench_config, expansions):
    (coef, vectors), = [hyper_cnot_n(U, [U], bench_config).conditional_state.factors]
    # the state normalizes itself, so doubling the coefficients changes no amplitude
    doubled = FactoredState(2.0 * coef, vectors, "the doubled state")
    assert FactoredState(coef, vectors, "the state") == doubled
    assert expansions == ["the state", "the doubled state"]
    assert FactoredState(coef, vectors, "the state") != FactoredState(
        coef, vectors * np.array([1, 1, 1, -1]), "another state")


def _case(rng, nrng, case):
    params = CavityParams.from_ratios(
        rng.uniform(0.2, 5.0), rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.2),
        rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    n = 1 + case % 4
    scale = None
    if case % 2:   # half the cases on a complex unbalanced mirror
        scale = complex(rng.uniform(0.5, 1.0), rng.uniform(-0.3, 0.3))
    photons = [random_photon_spec(nrng) for _ in range(n + 1)]
    if case % 5 == 0:
        photons[1:] = [PhotonSpec.basis(rng.randrange(2), rng.randrange(2)) for _ in range(n)]
    return GateConfig(params=params, n_targets=n, mirror_scale=scale), photons


def test_factored_fidelity_matches_the_dict_fidelity():
    rng = random.Random(5)
    nrng = np.random.default_rng(6)
    for case in range(160):
        cfg, photons = _case(rng, nrng, case)
        state = hyper_cnot_n(photons[0], photons[1:], cfg).conditional_state
        ideal = ideal_hyper_cnot_n(photons[0], photons[1:])
        factored = fidelity(state, ideal)
        assert state.factors is not None and ideal.factors is not None
        if case % 4 == 1:      # a factored state against a dict ideal
            as_dict = HyperState(len(photons), ideal.amplitudes, has_spins=False)
            expanded = fidelity(state, as_dict)
        elif case % 4 == 3:    # a dict state against a factored ideal
            as_dict = HyperState(len(photons), state.amplitudes, has_spins=False)
            expanded = fidelity(as_dict, ideal_hyper_cnot_n(photons[0], photons[1:]))
        else:
            state.amplitudes, ideal.amplitudes
            expanded = fidelity(state, ideal)
        assert state.factors is None
        assert abs(factored - expanded) <= 1e-12, case


def test_a_point_fidelity_is_the_runs_truth_fidelity():
    # the branch state holds the run's factors unnormalized, so fidelity
    # does the same arithmetic on the same arrays as the batched sweep
    rng = random.Random(7)
    nrng = np.random.default_rng(8)
    for case in range(200):
        cfg, photons = _case(rng, nrng, case)
        state = hyper_cnot_n(photons[0], photons[1:], cfg).conditional_state
        got = fidelity(state, ideal_hyper_cnot_n(photons[0], photons[1:]))
        bc = block_coeffs(scatter_coeffs(cfg.params))
        run = factored_run(bc, cfg.mirror_scale, photon_vectors(photons))
        assert got == run.truth_fidelity(), case


def test_the_truth_rule_state_is_normalized():
    # a spec normalized only to within NORM_TOL: its squared norm is 1 + 8e-10
    spec = PhotonSpec(pol=(1.0, 0.0), spatial=(0.6 * (1 + 4e-10), 0.8 * (1 + 4e-10)))
    assert abs(ideal_hyper_cnot_n(spec, [spec]).norm_sq() - 1.0) <= 1e-15


def test_a_flip_after_a_read_takes_the_dict_path(bench_config):
    basis = PhotonSpec.basis(Pol.L, Spatial.M2)
    state = hyper_cnot_n(basis, [basis], bench_config).conditional_state
    ideal = ideal_hyper_cnot_n(basis, [basis])
    amps = state.amplitudes
    assert len(amps) == 1 and state.factors is None   # a read drops the factors
    # a flip plate on the target's polarization, applied to the dict in place
    (label, amp), = amps.items()
    del amps[label]
    amps[label ^ pol_mask(1)] = amp
    assert fidelity(state, ideal) == 0.0
    # assigning the amplitudes of an unread state drops its factors too
    state = hyper_cnot_n(basis, [basis], bench_config).conditional_state
    state.amplitudes = {label ^ pol_mask(1): amp}
    assert state.factors is None and fidelity(state, ideal) == 0.0


def test_a_refused_operation_leaves_a_branch_state_unexpanded(bench_params, expansions):
    # a photon-only state has no spins: every spin-coupled operation refuses
    # it before reading its amplitudes, which here would be 4^9 labels
    out = hyper_cnot_n(U, [U] * 8, GateConfig(params=bench_params, n_targets=8))
    state = out.branches[3].state
    bc = block_coeffs(scatter_coeffs(bench_params))
    for refused in (lambda: state.spin_hadamard(1),
                    lambda: stage_polarization(state, 0, bc),
                    lambda: stage_spatial(state, 8, bc)):
        with pytest.raises(ValidationError, match="state has no spins"):
            refused()
        assert state.factors is not None
    assert expansions == []


def test_factored_refusals_are_unchanged():
    vectors = np.full((1, 4), 0.5 + 0j)
    coef = np.full(4, 0.5 + 0j)
    good = FactoredState(coef, vectors, "a test state")
    with pytest.raises(ValidationError, match="cannot compute fidelity of a zero-norm state"):
        fidelity(good, FactoredState(np.zeros(4, complex), vectors, "a zero state"))
    with pytest.raises(ValidationError, match="cannot compute fidelity of a zero-norm state"):
        fidelity(good, FactoredState(coef, np.zeros((1, 4), complex), "a zero state"))
    longer = FactoredState(coef, np.full((2, 4), 0.5 + 0j), "a test state")
    with pytest.raises(ValidationError, match="dimension mismatch: 2 photons"):
        fidelity(good, longer)
    assert fidelity(good, good) == pytest.approx(1.0, abs=1e-15)


# Off resonance, as in tests/test_dense_reference.py, so T is genuinely complex.
OFF_RESONANCE = CavityParams.from_ratios(2.0, 0.2, 0.15, detuning_c=0.3, detuning_x=-0.2)


def _vector(spec):
    """A photon's 4-vector, entry k = p + 2m."""
    return np.kron(spec.spatial, spec.pol)


def test_a_balanced_gate_scales_every_target_by_t_squared_exactly():
    T = block_coeffs(scatter_coeffs(OFF_RESONANCE)).T
    rng = np.random.default_rng(11)
    for n in (1, 3, 20):
        photons = [random_photon_spec(rng) for _ in range(n + 1)]
        photons[1::2] = [PhotonSpec.basis(Pol(int(p)), Spatial(int(m)))
                         for p, m in rng.integers(0, 2, size=(len(photons[1::2]), 2))]
        state = hyper_cnot_n(photons[0], photons[1:],
                             GateConfig(params=OFF_RESONANCE, n_targets=n)).conditional_state
        _, vectors = state.factors
        assert (vectors == (T * T) * np.array([_vector(p) for p in photons[1:]])).all()


def test_each_basis_input_of_the_truth_table_expands_to_one_label():
    cfg = GateConfig(params=OFF_RESONANCE)
    for cp, cs, tp, ts in np.ndindex(2, 2, 2, 2):
        control = PhotonSpec.basis(Pol(cp), Spatial(cs))
        target = PhotonSpec.basis(Pol(tp), Spatial(ts))
        state = hyper_cnot_n(control, [target], cfg).conditional_state
        # the truth rule: the control's L flips the target's polarization,
        # its mode 2 the target's spatial mode
        want = cp | cs << 1 | (tp ^ cp) << 2 | (ts ^ cs) << 3
        assert list(state.amplitudes) == [want]


def _closed_form(T, m, photons):
    """Fidelity of the unbalanced gate's output with the truth rule. In the
    Hadamard frame a block on spin s acts on a target bit as A_s = a I + b X
    with a = (m + T)/2 and b = (m - T)/2, and A_1 = X A_0, so on the
    control's basis index c target i leaves as X^c A x_i, A = A_0 (x) A_0;
    the control's entry c is scaled by f(p) f(m), f = (m, T) by branch bit.
    The flips X^c are common to the output and the truth rule."""
    a, b = (m + T) / 2.0, (m - T) / 2.0
    A = np.kron([[a, b], [b, a]], [[a, b], [b, a]])
    x0 = _vector(photons[0])
    f = np.array([m, T])
    y0 = np.kron(f, f) * x0
    fid = abs(np.vdot(y0, x0)) ** 2 / (np.vdot(y0, y0).real * np.vdot(x0, x0).real)
    for spec in photons[1:]:
        x = _vector(spec)
        y = A @ x
        fid *= abs(np.vdot(y, x)) ** 2 / (np.vdot(y, y).real * np.vdot(x, x).real)
    return fid


def test_an_unbalanced_gate_follows_the_closed_form():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 17, 50):
        for _ in range(4):
            params = CavityParams.from_ratios(
                rng.uniform(0.2, 5.0), rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.2),
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            scale = complex(rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5))
            photons = [random_photon_spec(rng) for _ in range(n + 1)]
            out = hyper_cnot_n(photons[0], photons[1:],
                               GateConfig(params=params, n_targets=n, mirror_scale=scale))
            got = fidelity(out.conditional_state, ideal_hyper_cnot_n(photons[0], photons[1:]))
            T = block_coeffs(scatter_coeffs(params)).T
            assert abs(got - _closed_form(T, scale * T, photons)) <= 1e-12, (n, got)


@pytest.mark.parametrize("n, scale", [(1, 0.6), (3, -0.9), (8, 0.3)])
def test_an_unbalanced_scan_follows_the_closed_form(n, scale):
    # the scan's own stream of draws, case by case (see ``fidelity_scan``):
    # five ratios, then a Hopf pair from each next three uniforms, photon by
    # photon, polarization first
    rng = np.random.default_rng(13)
    fids = []
    for _ in range(40):
        u = rng.random(5 + 6 * (n + 1)).tolist()
        ratios = [lo + (hi - lo) * v for (lo, hi), v in zip(analysis._SCAN_DRAWS, u)]
        pairs = [(math.sqrt(a) * cmath.exp(2j * math.pi * b),
                  math.sqrt(1.0 - a) * cmath.exp(2j * math.pi * c))
                 for a, b, c in zip(u[5::3], u[6::3], u[7::3])]
        photons = [PhotonSpec(pol=pol, spatial=spatial)
                   for pol, spatial in zip(pairs[0::2], pairs[1::2])]
        T = block_coeffs(scatter_coeffs(CavityParams.from_ratios(*ratios))).T
        fids.append(_closed_form(T, scale * T, photons))
    summary = fidelity_scan(40, 13, n, mirror_scale=scale)
    assert abs(summary.min_fidelity - min(fids)) <= 1e-12
    assert abs(summary.mean_fidelity - sum(fids) / len(fids)) <= 1e-12


@pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-6, 1e-8, 1e-9])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "random"])
def test_a_mirror_far_weaker_than_the_block(ratio, n, uniform):
    # the branch state's squared norm, from its factors, is the success
    # probability, which the mass chain computes on its own path; on a
    # uniform target the block branch adds nothing, so u_i = m^2 x_i
    T = block_coeffs(scatter_coeffs(OFF_RESONANCE)).T
    m = ratio * T
    rng = np.random.default_rng(14)
    photons = [U if uniform else random_photon_spec(rng) for _ in range(n + 1)]
    out = hyper_cnot_n(photons[0], photons[1:], GateConfig(
        params=OFF_RESONANCE, n_targets=n, mirror_scale=ratio))
    coef, vectors = out.conditional_state.factors
    norm_sq = (np.abs(coef) ** 2).sum() * (np.abs(vectors) ** 2).sum(axis=-1).prod()
    assert abs(norm_sq - out.success_prob) <= 1e-14 * out.success_prob
    if uniform:
        want = (m * m) * np.array([_vector(p) for p in photons[1:]])
        assert np.abs(vectors - want).max() <= 1e-14 * np.abs(want).max()
