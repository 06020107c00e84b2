"""Gate runs: heralding arithmetic, truth behavior, feed-forward, sampling."""
import math
import sys
import tracemalloc

import numpy as np
import pytest

from hypercnot import hyperstate
from hypercnot.gates import _branch_vectors, _draw, factored_run
from hypercnot.scattering import BlockCoeffs
from hypercnot import (
    DETECTOR_B1,
    DETECTOR_B2,
    AmplitudeLostError,
    CavityParams,
    DegeneratePhysicsError,
    GateConfig,
    HyperState,
    PhotonSpec,
    Pol,
    Spatial,
    Spin,
    ValidationError,
    block_coeffs,
    efficiency,
    fidelity,
    fidelity_scan,
    hyper_cnot,
    hyper_cnot_n,
    ideal_hyper_cnot,
    ideal_hyper_cnot_n,
    init_state,
    random_photon_spec,
    sample_shots,
    scatter_coeffs,
    stage_polarization,
    stage_spatial,
    truth_table,
)

# |T|^8 at the g/(kappa+kappa_s)=3, kappa_s=gamma=0.1kappa reference point,
# cross-checked against a high-precision evaluation of the closed form.
ETA_1 = 0.6512926891789744
ETA_2 = 0.5256108296381016


class TestGateConfig:
    def test_defaults(self, bench_params):
        cfg = GateConfig(params=bench_params)
        assert cfg.n_targets == 1

    @pytest.mark.parametrize("kwargs", [
        {"params": "not params"},
        {"n_targets": 0},
        {"n_targets": 1.5},
        {"n_targets": True},
    ])
    def test_rejects(self, bench_params, kwargs):
        kwargs.setdefault("params", bench_params)
        with pytest.raises(ValidationError):
            GateConfig(**kwargs)

    @pytest.mark.parametrize("scale, reason", [
        (True, "a number"), (np.bool_(True), "a number"), (math.nan, "finite"),
        (complex(0.5, math.nan), "finite"), ("x", "a number"), ("1", "a number"),
        (math.inf, "finite"), (10**400, "finite"),
    ], ids=["bool", "numpy_bool", "nan", "complex_nan", "str", "numeric_str", "inf",
            "huge_int"])
    def test_the_gate_and_the_scan_refuse_the_same_mirror_scales(self, bench_params, scale,
                                                                  reason):
        with pytest.raises(ValidationError) as gate:
            GateConfig(params=bench_params, mirror_scale=scale)
        with pytest.raises(ValidationError) as scan:
            fidelity_scan(2, 1, mirror_scale=scale)
        assert str(gate.value) == str(scan.value)
        assert str(gate.value).startswith(f"mirror_scale must be {reason}, got ")
        # the element stages refuse them too, before the state is touched
        bc = block_coeffs(scatter_coeffs(bench_params))
        state = init_state([PhotonSpec.uniform()])
        before = dict(state.amplitudes)
        for stage in (stage_polarization, stage_spatial):
            with pytest.raises(ValidationError) as element:
                stage(state, 0, bc, mirror_scale=scale)
            assert str(element.value) == str(gate.value)
            assert state.amplitudes == before

    def test_a_numpy_scale_runs_as_the_python_float_it_equals(self, bench_params):
        # under numpy 2 (NEP 50) a float32 scale times a complex T is complex64:
        # every layer runs the scale as a Python float, in double precision
        rng = np.random.default_rng(31)
        photons = [random_photon_spec(rng) for _ in range(3)]
        bc = block_coeffs(scatter_coeffs(bench_params))
        results = []
        for scale in (np.float32(0.9), float(np.float32(0.9))):
            cfg = GateConfig(params=bench_params, n_targets=2, mirror_scale=scale)
            assert type(cfg.mirror_scale) is float
            out = hyper_cnot_n(photons[0], photons[1:], cfg)
            elements = []
            for stage in (stage_polarization, stage_spatial):
                state = init_state(photons[:2])
                elements.append((stage(state, 1, bc, mirror_scale=scale), state.amplitudes))
            results.append((out, fidelity_scan(3, 1, n_targets=2, mirror_scale=scale), elements))
        assert results[0] == results[1]

    def test_numpy_integers_are_passed_on_as_ints(self, bench_params):
        cfg = GateConfig(params=bench_params, n_targets=np.int64(1), rng_seed=np.int64(7),
                         mirror_scale=np.int64(1))
        assert (type(cfg.n_targets), type(cfg.rng_seed), type(cfg.mirror_scale)) == (
            int, int, float)
        u = PhotonSpec.uniform()
        stats = sample_shots(u, [u], cfg, np.int64(100))
        assert type(stats.shots) is int
        assert stats == sample_shots(u, [u], GateConfig(params=bench_params, rng_seed=7,
                                                        mirror_scale=1.0), 100)
        assert fidelity_scan(np.int64(2), np.int64(1), n_targets=np.int64(1)) == fidelity_scan(2, 1)

    def test_a_mirror_with_gain_is_refused_when_the_gate_runs(self, bench_params):
        # |T| is about 0.95 here, so a scale of 1.5 makes |m| about 1.42
        cfg = GateConfig(params=bench_params, mirror_scale=1.5)
        with pytest.raises(ValidationError, match="mirror transmission .* exceeds 1"):
            hyper_cnot(PhotonSpec.uniform(), PhotonSpec.uniform(), cfg)
        with pytest.raises(ValidationError, match="mirror transmission .* exceeds 1"):
            fidelity_scan(2, 1, mirror_scale=1e3)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
    def test_rejects_seeds_numpy_cannot_take(self, bench_params, seed):
        with pytest.raises(ValidationError, match="rng_seed"):
            GateConfig(params=bench_params, rng_seed=seed)

    def test_accepts_non_negative_int_seeds(self, bench_params):
        for seed in (None, 0, 2**62):
            assert GateConfig(params=bench_params, rng_seed=seed).rng_seed == seed


class TestHeralding:
    def test_success_is_t_to_the_eighth(self, bench_config):
        out = hyper_cnot(PhotonSpec.uniform(), PhotonSpec.uniform(), bench_config)
        T = block_coeffs(scatter_coeffs(bench_config.params)).T
        assert abs(out.success_prob - abs(T) ** 8) < 1e-12
        assert out.success_prob == pytest.approx(ETA_1, abs=1e-12)

    def test_success_does_not_depend_on_the_input(self, bench_config):
        rng = np.random.default_rng(20)
        probs = [hyper_cnot(random_photon_spec(rng), random_photon_spec(rng),
                            bench_config).success_prob for _ in range(6)]
        for p in probs[1:]:
            assert abs(p - probs[0]) < 1e-12

    def test_outcome_accounting_closes(self, bench_config):
        out = hyper_cnot(PhotonSpec.uniform(), PhotonSpec.uniform(), bench_config)
        total = out.success_prob + out.heralded_failure_prob + out.absorbed_prob
        assert total == pytest.approx(1.0, abs=1e-12)
        assert set(out.detector_probs) == {DETECTOR_B1, DETECTOR_B2}
        assert all(v > 0 for v in out.detector_probs.values())

    def test_two_targets(self, bench_params):
        cfg = GateConfig(params=bench_params, n_targets=2)
        rng = np.random.default_rng(21)
        control = random_photon_spec(rng)
        targets = [random_photon_spec(rng), random_photon_spec(rng)]
        out = hyper_cnot_n(control, targets, cfg)
        T = block_coeffs(scatter_coeffs(bench_params)).T
        assert abs(out.success_prob - abs(T) ** 12) < 1e-12
        assert out.success_prob == pytest.approx(ETA_2, abs=1e-12)
        ideal = ideal_hyper_cnot_n(control, targets)
        for branch in out.branches:
            assert fidelity(branch.state, ideal) == pytest.approx(1.0, abs=1e-12)

    def test_branch_bookkeeping(self, bench_config):
        out = hyper_cnot(PhotonSpec.uniform(), PhotonSpec.uniform(), bench_config)
        assert len(out.branches) == 4
        assert math.fsum(b.probability for b in out.branches) == pytest.approx(
            out.success_prob, abs=1e-12)
        # amplitude mode reports the first (canonical-order) branch
        assert out.spin_record == (Spin.UP, Spin.UP)
        assert out.corrections == (False, False)


class TestFeedForward:
    def test_every_branch_gives_the_same_state(self, bench_config):
        rng = np.random.default_rng(22)
        for _ in range(5):
            out = hyper_cnot(random_photon_spec(rng), random_photon_spec(rng),
                             bench_config)
            first = out.branches[0].state
            for branch in out.branches[1:]:
                for label, amp in first.amplitudes.items():
                    assert abs(branch.state.amplitudes[label] - amp) < 1e-12

    def test_each_branch_matches_the_truth_rule(self, bench_config):
        rng = np.random.default_rng(23)
        control, target = random_photon_spec(rng), random_photon_spec(rng)
        ideal = ideal_hyper_cnot(control, target)
        out = hyper_cnot(control, target, bench_config)
        records = [b.spin_record for b in out.branches]
        assert records == [(Spin.UP, Spin.UP), (Spin.UP, Spin.DOWN),
                           (Spin.DOWN, Spin.UP), (Spin.DOWN, Spin.DOWN)]
        for branch in out.branches:
            assert fidelity(branch.state, ideal) == pytest.approx(1.0, abs=1e-12)
            assert branch.corrections == (branch.spin_record[0] is Spin.DOWN,
                                          branch.spin_record[1] is Spin.DOWN)

    def test_skipping_the_correction_breaks_the_state(self, bench_config):
        control, target = PhotonSpec.uniform(), PhotonSpec.uniform()
        ideal = ideal_hyper_cnot(control, target)
        out = hyper_cnot(control, target, bench_config)
        # undo branch 3's feed-forward: negate photon a's L and its mode-2
        # amplitudes once each (a label with both keeps its sign)
        spoiled = HyperState(2, {
            label: -amp if (label & 0b11) in (0b01, 0b10) else amp
            for label, amp in out.branches[3].state.amplitudes.items()},
            has_spins=False)
        assert fidelity(spoiled, ideal) < 1.0 - 1e-6

    def test_unbalanced_mirror_breaks_the_state(self, bench_params):
        cfg = GateConfig(params=bench_params, mirror_scale=0.8)
        out = hyper_cnot(PhotonSpec.uniform(), PhotonSpec.uniform(), cfg)
        ideal = ideal_hyper_cnot(PhotonSpec.uniform(), PhotonSpec.uniform())
        assert fidelity(out.conditional_state, ideal) < 1.0 - 1e-6


class TestIdealOracle:
    def test_against_a_dense_matrix(self):
        # CNOT on the polarization bits and CNOT on the spatial bits of every
        # target, built as an explicit permutation over packed labels.
        rng = np.random.default_rng(24)
        for n_targets in (1, 2):
            size = 4 ** (n_targets + 1)
            M = np.zeros((size, size))
            for lab in range(size):
                flips = (lab & 3) * sum(1 << 2 * i for i in range(1, n_targets + 1))
                M[lab ^ flips, lab] = 1.0
            for _ in range(10):
                photons = [random_photon_spec(rng) for _ in range(n_targets + 1)]
                vec = np.zeros(size, dtype=complex)
                for lab in range(size):
                    vec[lab] = math.prod(spec.pol[(lab >> 2 * i) & 1]
                                         * spec.spatial[(lab >> 2 * i + 1) & 1]
                                         for i, spec in enumerate(photons))
                want = M @ vec
                if n_targets == 1:
                    got = ideal_hyper_cnot(photons[0], photons[1])
                else:
                    got = ideal_hyper_cnot_n(photons[0], photons[1:])
                for lab in range(size):
                    assert abs(got.amplitudes.get(lab, 0.0) - want[lab]) < 1e-12

    def test_rejects_non_specs(self):
        with pytest.raises(ValidationError):
            ideal_hyper_cnot_n("nope", [PhotonSpec.uniform()])
        with pytest.raises(ValidationError):
            ideal_hyper_cnot_n(PhotonSpec.uniform(), ["nope"])


class TestTruthTable:
    def test_sixteen_rows_follow_the_xor_rule(self, bench_config):
        rows = truth_table(bench_config)
        assert len(rows) == 16
        seen = set()
        for row in rows:
            cp, cs = row.control.split(",")
            tp, ts = row.target.split(",")
            out_p = {"R": "L", "L": "R"}[tp] if cp == "L" else tp
            out_s = {"1": "2", "2": "1"}[ts] if cs == "2" else ts
            assert row.output == f"a:{row.control} b:{out_p},{out_s}"
            assert row.fidelity == pytest.approx(1.0, abs=1e-12)
            seen.add((row.control, row.target))
        assert len(seen) == 16

    def test_requires_single_target_config(self, bench_params):
        with pytest.raises(ValidationError):
            truth_table(GateConfig(params=bench_params, n_targets=2))


class TestValidationAndDegeneracy:
    def test_uncoupled_dot_cannot_herald(self):
        params = CavityParams.from_ratios(g_ratio=0.0, ks_ratio=0.1)
        with pytest.raises(DegeneratePhysicsError, match="block never transmits"):
            hyper_cnot(PhotonSpec.uniform(), PhotonSpec.uniform(),
                       GateConfig(params=params))

    def test_dead_mirror_eats_a_basis_input(self, bench_params):
        # R,m1 control never touches a block; a zero-transmission mirror
        # removes all of it and there is nothing left to measure.
        cfg = GateConfig(params=bench_params, mirror_scale=0.0)
        with pytest.raises(AmplitudeLostError):
            hyper_cnot(PhotonSpec.basis(Pol.R, Spatial.M1),
                       PhotonSpec.basis(Pol.R, Spatial.M1), cfg)

    def test_spread_past_the_amplitude_limit_is_refused(self, bench_params, monkeypatch):
        # basis inputs keep one label per branch through the balanced gate
        # (4 amplitudes in all); an unbalanced mirror spreads each target
        # over 4, so the four branch states would need 4 * 16. The gate runs
        # either way; the first read of the amplitudes is refused
        monkeypatch.setattr(hyperstate, "MAX_AMPLITUDES", 8)
        basis = PhotonSpec.basis(Pol.L, Spatial.M2)
        out = hyper_cnot_n(basis, [basis] * 2, GateConfig(params=bench_params, n_targets=2))
        assert len(out.conditional_state.amplitudes) == 1
        cfg = GateConfig(params=bench_params, n_targets=2, mirror_scale=0.9)
        state = hyper_cnot_n(basis, [basis] * 2, cfg).conditional_state
        with pytest.raises(ValidationError,
                           match="need 64 amplitudes, more than MAX_AMPLITUDES = 8"):
            state.amplitudes

    def test_subnormal_success_is_refused(self, bench_params):
        # |T|^4 = 0.81 here, so the success |T|^(4(N+1)) is 4.3e-308 at
        # N = 3300 and subnormal from about N = 3370, where dividing by its
        # root no longer normalizes the branch states: the gate runs, and the
        # first read of the amplitudes is refused
        basis = PhotonSpec.basis(Pol.L, Spatial.M2)
        out = hyper_cnot_n(basis, [basis] * 3300,
                           GateConfig(params=bench_params, n_targets=3300))
        assert out.success_prob >= sys.float_info.min
        assert abs(out.conditional_state.norm_sq() - 1.0) <= 2e-12
        out = hyper_cnot_n(basis, [basis] * 3400,
                           GateConfig(params=bench_params, n_targets=3400))
        assert 0.0 < out.success_prob < sys.float_info.min
        with pytest.raises(ValidationError, match="below the smallest normal float"):
            out.conditional_state.amplitudes

    @pytest.mark.parametrize("n", [3420, 3460, 3500, 4000, 6000])
    def test_a_subnormal_success_follows_the_closed_form_down_to_zero(self, bench_params, n):
        # each target keeps |T|^4 = 0.81 > 1/2, which rounds a running product
        # of a few subnormal units back to itself: the success must not stick
        # there but reach 0, where the gate has nothing left to measure
        basis = PhotonSpec.basis(Pol.L, Spatial.M2)
        cfg = GateConfig(params=bench_params, n_targets=n)
        expected = efficiency(block_coeffs(scatter_coeffs(bench_params)).T, n)
        if n < 3500:
            got = hyper_cnot_n(basis, [basis] * n, cfg).success_prob
            assert 0.0 < expected < sys.float_info.min
            assert abs(got - expected) <= 1e-12 * expected + 1e-323
        else:
            assert expected == 0.0
            with pytest.raises(AmplitudeLostError, match="all amplitude lost"):
                hyper_cnot_n(basis, [basis] * n, cfg)

    # K must keep a basis target's norm exactly: a miss of 4.4e-16 per
    # target would add up to a conservation miss of 1.1e-12 at N = 2500
    @pytest.mark.parametrize("n", [1000, 2500])
    def test_cnot1000_on_basis_inputs(self, bench_params, n):
        rng = np.random.default_rng(26)
        photons = [PhotonSpec.basis(Pol(int(p)), Spatial(int(m)))
                   for p, m in rng.integers(0, 2, size=(n + 1, 2))]
        out = hyper_cnot_n(photons[0], photons[1:],
                           GateConfig(params=bench_params, n_targets=n))
        T = block_coeffs(scatter_coeffs(bench_params)).T
        assert out.success_prob == pytest.approx(abs(T) ** (4 * (n + 1)), rel=1e-10)
        total = math.fsum([out.success_prob, out.heralded_failure_prob,
                           out.absorbed_prob])
        assert abs(total - 1.0) <= 1e-12
        assert len(out.branches) == 4
        ideal = ideal_hyper_cnot_n(photons[0], photons[1:])
        for branch in out.branches:
            assert fidelity(branch.state, ideal) >= 1.0 - 1e-10

    def test_single_target_wrapper_checks_config(self, bench_params):
        cfg = GateConfig(params=bench_params, n_targets=2)
        with pytest.raises(ValidationError):
            hyper_cnot(PhotonSpec.uniform(), PhotonSpec.uniform(), cfg)

    def test_target_count_must_match(self, bench_config):
        with pytest.raises(ValidationError):
            hyper_cnot_n(PhotonSpec.uniform(),
                         [PhotonSpec.uniform(), PhotonSpec.uniform()],
                         bench_config)

    @pytest.mark.parametrize("targets", [
        lambda: (PhotonSpec.uniform() for _ in range(1)),
        lambda: iter([PhotonSpec.uniform()]),
    ], ids=["generator", "iterator"])
    def test_targets_without_a_length_are_refused(self, bench_params, targets):
        cfg = GateConfig(params=bench_params, rng_seed=1)
        refusal = "targets must be a sequence of PhotonSpec"
        with pytest.raises(ValidationError, match=refusal):
            hyper_cnot_n(PhotonSpec.uniform(), targets(), cfg)
        with pytest.raises(ValidationError, match=refusal):
            sample_shots(PhotonSpec.uniform(), targets(), cfg, 10)

    @pytest.mark.parametrize("bad", [((1, 0), (1, 0)), None, "R,1",
                                     np.full(4, 0.5 + 0j)],
                             ids=["pairs", "none", "shorthand", "vector"])
    def test_a_photon_that_is_not_a_spec_is_refused_by_index(self, bench_params, bad):
        u = PhotonSpec.uniform()
        cfg = GateConfig(params=bench_params, n_targets=3)
        for control, targets, index in [(bad, [u, u, u], 0), (u, [u, bad, u], 2),
                                        (u, [u, u, bad], 3)]:
            refusal = f"^photon {index} is not a PhotonSpec$"
            with pytest.raises(ValidationError, match=refusal):
                hyper_cnot_n(control, targets, cfg)
            with pytest.raises(ValidationError, match=refusal):
                ideal_hyper_cnot_n(control, targets)


class TestShotSampling:
    def test_counts_close(self, bench_params):
        cfg = GateConfig(params=bench_params, rng_seed=17)
        stats = sample_shots(PhotonSpec.uniform(), [PhotonSpec.uniform()],
                             cfg, 20000)
        assert stats.shots == 20000
        clicked = sum(stats.detector_clicks.values())
        assert stats.successes + clicked + stats.absorbed == stats.shots
        assert sum(stats.spin_counts.values()) == stats.successes
        assert stats.success_prob == pytest.approx(ETA_1, abs=1e-12)
        sigma = math.sqrt(ETA_1 * (1 - ETA_1) / 20000)
        assert abs(stats.success_frequency - ETA_1) < 5 * sigma

    def test_repeatable(self, bench_params):
        cfg = GateConfig(params=bench_params, rng_seed=17)
        a = sample_shots(PhotonSpec.uniform(), [PhotonSpec.uniform()], cfg, 500)
        b = sample_shots(PhotonSpec.uniform(), [PhotonSpec.uniform()], cfg, 500)
        assert a.successes == b.successes
        assert a.detector_clicks == b.detector_clicks
        assert a.spin_counts == b.spin_counts

    def test_lossless_block_never_clicks(self):
        params = CavityParams.from_ratios(3.0, ks_ratio=0.0, gamma_ratio=0.0)
        T = block_coeffs(scatter_coeffs(params)).T
        assert T == 1.0  # exact in the lossless limit
        cfg = GateConfig(params=params, rng_seed=3)
        stats = sample_shots(PhotonSpec.uniform(), [PhotonSpec.uniform()],
                             cfg, 2000)
        assert stats.successes == 2000
        assert stats.absorbed == 0
        assert all(v == 0 for v in stats.detector_clicks.values())
        # the sink deltas are exactly zero; the norm itself only survives the
        # Hadamard round trips to rounding
        assert stats.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_seed_required_and_shots_positive(self, bench_params):
        with pytest.raises(ValidationError, match="rng_seed"):
            sample_shots(PhotonSpec.uniform(), [PhotonSpec.uniform()],
                         GateConfig(params=bench_params), 10)
        cfg = GateConfig(params=bench_params, rng_seed=1)
        for shots in (0, 2**63, 1.5, 1000.7, True):
            with pytest.raises(ValidationError, match="shots"):
                sample_shots(PhotonSpec.uniform(), [PhotonSpec.uniform()], cfg, shots)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 - 1, 2**70])
def test_the_draws_are_default_rngs_stream(seed):
    # _draw and fidelity_scan build Generator(PCG64(seed)), skipping
    # default_rng's dispatch; every seeded figure rests on the same stream
    rng = np.random.Generator(np.random.PCG64(seed))
    assert rng.random((3, 5)).tolist() == np.random.default_rng(seed).random((3, 5)).tolist()
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert (_draw(p, 10**6, seed).tolist()
            == np.random.default_rng(seed).multinomial(10**6, p / p.sum()).tolist())


def _count_tolerance(shots, p, alpha=1e-9):
    """Largest |count - shots * p| a correct sampler exceeds with probability
    below alpha, from Bernstein's inequality
    P(|X - np| >= t) <= 2 exp(-t^2 / (2 (np(1-p) + t/3)))."""
    a = math.log(2.0 / alpha)
    return a / 3.0 + math.sqrt(a * a / 9.0 + 2.0 * a * shots * p * (1.0 - p))


class TestSamplerDistribution:
    """N = 2 at a lossy point with an unbalanced mirror, so the click,
    absorbed and branch masses all differ."""

    @pytest.fixture
    def case(self):
        params = CavityParams.from_ratios(1.5, ks_ratio=0.3, gamma_ratio=0.15,
                                          detuning_c=0.2, detuning_x=-0.3)
        rng = np.random.default_rng(2)
        control = random_photon_spec(rng)
        targets = [random_photon_spec(rng), random_photon_spec(rng)]
        return control, targets, params

    def test_counts_match_the_exact_masses(self, case):
        control, targets, params = case
        cfg = GateConfig(params=params, n_targets=2, mirror_scale=0.9, rng_seed=11)
        exact = hyper_cnot_n(control, targets, cfg)
        shots = 10**6
        stats = sample_shots(control, targets, cfg, shots)
        observed = [(stats.detector_clicks[d], exact.detector_probs[d])
                    for d in (DETECTOR_B1, DETECTOR_B2)]
        observed.append((stats.absorbed, exact.absorbed_prob))
        observed += [(stats.spin_counts[b.spin_record], b.probability)
                     for b in exact.branches]
        for count, p in observed:
            assert abs(count - shots * p) <= _count_tolerance(shots, p)
        assert sum(stats.spin_counts.values()) == stats.successes
        assert (stats.successes + sum(stats.detector_clicks.values())
                + stats.absorbed) == shots

    @pytest.mark.parametrize("seed", [3, 7, 11, 17])
    def test_the_counts_are_one_draw_over_the_stage_ledger(self, case, seed):
        # the draw reads the stages' (click, absorbed) pairs in run order, then
        # the branches: the outcome's arrays must feed it those same numbers
        control, targets, params = case
        cfg = GateConfig(params=params, n_targets=2, mirror_scale=0.9, rng_seed=seed)
        out = hyper_cnot_n(control, targets, cfg)
        p = np.array([m for stage in out.stages for m in stage]
                     + [b.probability for b in out.branches])
        counts = np.random.default_rng(seed).multinomial(10**6, p / p.sum()).tolist()
        stats = sample_shots(control, targets, cfg, 10**6)
        n = 2 * len(out.stages)
        assert stats.detector_clicks == {DETECTOR_B1: sum(counts[0:n:4]),
                                         DETECTOR_B2: sum(counts[2:n:4])}
        assert stats.absorbed == sum(counts[1:n:2])
        assert list(stats.spin_counts.values()) == counts[n:]


class TestOutcomeLedger:
    """GateOutcome holds the kernel's click and absorbed arrays; what it
    reports from them stays what it reported from a tuple of stages."""

    @pytest.fixture
    def outcome(self):
        # the figures pinned below are the dense state-vector replay's
        # (``test_dense_reference._replay``) on this gate
        params = CavityParams.from_ratios(1.5, ks_ratio=0.3, gamma_ratio=0.15,
                                          detuning_c=0.2, detuning_x=-0.3)
        rng = np.random.default_rng(2)
        photons = [random_photon_spec(rng) for _ in range(3)]
        cfg = GateConfig(params=params, n_targets=2, mirror_scale=0.9)
        return hyper_cnot_n(photons[0], photons[1:], cfg), photons, cfg

    def test_stages_are_float_pairs_in_run_order(self, outcome):
        out, _, _ = outcome
        stages = out.stages
        assert type(stages) is tuple and len(stages) == 6
        assert all(type(stage) is tuple and len(stage) == 2 for stage in stages)
        assert all(type(m) is float for stage in stages for m in stage)
        # photon k's polarization stage is entry 2k, its spatial stage 2k + 1
        for k in range(3):
            for stage in range(2):
                assert stages[2 * k + stage] == (out.clicks[k, stage], out.absorbed[k, stage])
        assert stages[0] + stages[1] == pytest.approx(
            (0.04858460849195582, 0.30914499668696843,
             0.038375859152369414, 0.17738728448768937), rel=1e-13)

    def test_totals_are_the_fsum_of_the_stages(self, outcome):
        out, _, _ = outcome
        assert out.detector_probs == {
            DETECTOR_B1: math.fsum(c for c, _ in out.stages[0::2]),
            DETECTOR_B2: math.fsum(c for c, _ in out.stages[1::2])}
        assert out.absorbed_prob == math.fsum(a for _, a in out.stages)
        assert out.heralded_failure_prob == math.fsum(out.detector_probs.values())
        assert out.detector_probs == pytest.approx(
            {DETECTOR_B1: 0.06603546910737669, DETECTOR_B2: 0.057784803563932854}, rel=1e-13)
        assert out.absorbed_prob == pytest.approx(0.8111830003024713, rel=1e-13)

    def test_outcomes_compare_by_value(self, outcome):
        out, photons, cfg = outcome
        again = hyper_cnot_n(photons[0], photons[1:], cfg)
        assert again.clicks is not out.clicks
        assert again == out
        other = hyper_cnot_n(photons[0], photons[1:],
                             GateConfig(params=cfg.params, n_targets=2, mirror_scale=0.8))
        assert other != out
        assert out != out.stages


def _reference_ledger(D, T, scale, photons):
    """success, clicks and absorbed of factored_run in plain Python, from the
    closed forms: the control enters its stages as it came and each target
    after its Hadamards K; a photon's entry k = p + 2m keeps g(p) g(m) of its
    weight, g = (|mirror|^2, |T|^2) by branch bit, the block branch of a
    stage clicks |D|^2 of what reaches it and each branch absorbs the rest.
    A stage mass is the photon's own times what the photons before it kept
    and the photons after it entered with."""
    t_mirror = T if scale is None else scale * T
    d2, t2 = abs(D) ** 2, abs(T) ** 2
    keep = (abs(t_mirror) ** 2, t2)
    absorb = tuple(max(0.0, min(1.0 - a, 1.0)) for a in (keep[0], d2 + t2))
    click = (0.0, d2)
    own = []
    for i, x in enumerate(photons):
        v = x if i == 0 else [0.5 * sum((-1) ** bin(j & k).count("1") * x[k] for k in range(4))
                              for j in range(4)]
        w = [(abs(a) ** 2, k & 1, k >> 1) for k, a in enumerate(v)]
        own.append([math.fsum(wk * click[p] for wk, p, m in w),
                    math.fsum(wk * keep[p] * click[m] for wk, p, m in w),
                    math.fsum(wk * absorb[p] for wk, p, m in w),
                    math.fsum(wk * keep[p] * absorb[m] for wk, p, m in w),
                    math.fsum(wk * keep[p] * keep[m] for wk, p, m in w),
                    math.fsum(wk for wk, p, m in w)])
    masses = [[mass * math.prod(o[4] for o in own[:j]) * math.prod(o[5] for o in own[j + 1:])
               for mass in photon[:4]] for j, photon in enumerate(own)]
    return (math.prod(o[4] for o in own), [m[:2] for m in masses], [m[2:] for m in masses])


def _assert_matches_reference(success, clicks, absorbed, reference):
    for got, want in zip((success, clicks, absorbed), reference):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


_KERNEL_MIRRORS = (None, 0.9, complex(0.6, 0.3), 1e-6)


def _random_block(rng):
    # a passive block: |D|^2 + |T|^2 in (0.1, 1]
    d, t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    scale = math.sqrt(rng.uniform(0.1, 1.0) / (abs(d) ** 2 + abs(t) ** 2))
    return complex(d * scale), complex(t * scale)


def test_the_kernel_ledger_matches_the_closed_forms_at_single_points():
    rng = np.random.default_rng(24)
    for n in range(1, 12):
        for scale in _KERNEL_MIRRORS:
            D, T = _random_block(rng)
            x = hyperstate.photon_vectors([random_photon_spec(rng) for _ in range(n + 1)])
            run = factored_run(BlockCoeffs(D=D, T=T), scale, hyperstate.photon_weights(x))
            assert run.clicks.shape == run.absorbed.shape == (n + 1, 2)
            _assert_matches_reference(run.success, run.clicks, run.absorbed,
                                      _reference_ledger(D, T, scale, x.tolist()))


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("scale", [None, complex(0.6, 0.3)])
def test_the_kernel_ledger_matches_the_closed_forms_on_a_batch(shared, scale):
    rng = np.random.default_rng(25)
    blocks = [_random_block(rng) for _ in range(5)]
    D, T = (np.array(f) for f in zip(*blocks))
    n_photons = 4
    photons = [hyperstate.photon_vectors([random_photon_spec(rng) for _ in range(n_photons)])
               for _ in range(1 if shared else len(blocks))]
    x = photons[0] if shared else np.array(photons)
    run = factored_run(BlockCoeffs(D=D, T=T), scale, hyperstate.photon_weights(x))
    assert run.clicks.shape == run.absorbed.shape == (len(blocks), n_photons, 2)
    for b, (d, t) in enumerate(blocks):
        _assert_matches_reference(run.success[b], run.clicks[b], run.absorbed[b],
                                  _reference_ledger(d, t, scale, photons[0 if shared else b].tolist()))


@pytest.mark.parametrize("scale", _KERNEL_MIRRORS)
def test_an_r1_control_never_clicks(bench_params, scale):
    # R,1 takes the mirror branch of both its stages: no mass reaches a block
    rng = np.random.default_rng(26)
    targets = [PhotonSpec.basis(Pol(b & 1), Spatial(b >> 1)) for b in rng.integers(0, 4, 5)]
    out = hyper_cnot_n(PhotonSpec.basis(Pol.R, Spatial.M1), targets,
                       GateConfig(params=bench_params, n_targets=5, mirror_scale=scale))
    assert out.clicks[0].tolist() == [0.0, 0.0]
    assert out.clicks[1:].all()


def test_the_kernel_peak_memory_per_photon(bench_params):
    # the tracemalloc peak of one factored_run on 10^5 photons, per photon: at
    # most 264 bytes on a balanced mirror and 320 on an unbalanced one, plus a
    # fixed allowance for the small arrays. A ledger that cuts numpy calls by
    # stacking per-photon weight tables raises it (400 bytes measured), and
    # with it the memory of a sweep point or scan case of 10^6 targets.
    n = 10**5
    rng = np.random.default_rng(5)
    pairs = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    pairs /= np.sqrt((np.abs(pairs) ** 2).sum(axis=-1, keepdims=True))
    x = hyperstate.pair_vectors(pairs)
    w = hyperstate.photon_weights(x)   # an input, as x is
    bc = block_coeffs(scatter_coeffs(bench_params))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for scale, per_photon in ((None, 264), (0.9, 320), (complex(0.8, 0.1), 320)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run = factored_run(bc, scale, w)
            peak = tracemalloc.get_traced_memory()[1] - base
            del run
            assert peak <= per_photon * n + 2**18, (scale, peak / n)
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("n", [1, 10, 300])
@pytest.mark.parametrize("scale", [None, complex(0.8, 0.3)],
                         ids=["balanced", "complex_unbalanced"])
def test_reused_specs_give_the_bits_of_fresh_ones(bench_params, n, scale):
    # the property the carried rows rest on: rows a spec kept from another
    # batch, another role or a read of its vector give a gate the bits of
    # specs built fresh for it
    rng = np.random.default_rng(n)
    pairs = []
    for i in range(n + 1):
        spec = (random_photon_spec(rng), PhotonSpec.basis(i & 1, i >> 1 & 1),
                PhotonSpec.uniform())[i % 3]
        pairs.append((spec.pol, spec.spatial))

    def fresh():
        return [PhotonSpec(pol=pol, spatial=spatial) for pol, spatial in pairs]

    reused = fresh()
    reused[0].vector
    cfg = GateConfig(params=bench_params, n_targets=n, mirror_scale=scale)
    hyper_cnot_n(reused[-1], reused[-2::-1], cfg)
    runs = []
    for specs in (fresh(), reused, reused):
        out = hyper_cnot_n(specs[0], specs[1:], cfg)
        runs.append((out.success_prob.hex(), out.clicks.tobytes(), out.absorbed.tobytes(),
                     *(a.tobytes() for a in out.conditional_state.factors)))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("n", [1, 10, 3000])
@pytest.mark.parametrize("scale", [None, 0.9, 0.7 * np.exp(0.4j)],
                         ids=["balanced", "real_unbalanced", "complex_unbalanced"])
@pytest.mark.parametrize("kind", ["basis", "uniform", "random"])
def test_the_kernel_reads_the_joined_views_as_c_ordered_copies(bench_params, n, scale, kind):
    # gate_inputs hands the kernel x and w as strided views of one buffer of
    # rows; numpy's sums can depend on memory layout, so the kernel must
    # give the bits it gives on C-ordered copies of them
    rng = np.random.default_rng(n)
    make = {"basis": lambda: PhotonSpec.basis(*rng.integers(0, 2, 2)),
            "uniform": PhotonSpec.uniform,
            "random": lambda: random_photon_spec(rng)}[kind]
    x, w = hyperstate.gate_inputs([make() for _ in range(n + 1)])
    assert not x.flags.c_contiguous and not w.flags.c_contiguous
    bc = block_coeffs(scatter_coeffs(bench_params))
    views = factored_run(bc, scale, w)
    copies = factored_run(bc, scale, np.ascontiguousarray(w))
    for a, b in zip((*views, views.truth_fidelity(),
                     _branch_vectors(views.control, bc.T, scale, x[1:])),
                    (*copies, copies.truth_fidelity(),
                     _branch_vectors(copies.control, bc.T, scale, np.ascontiguousarray(x[1:])))):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_single_target_wrapper_matches_the_general_gate(bench_config):
    rng = np.random.default_rng(25)
    control, target = random_photon_spec(rng), random_photon_spec(rng)
    a = hyper_cnot(control, target, bench_config)
    b = hyper_cnot_n(control, [target], bench_config)
    assert a.success_prob == b.success_prob
    assert a.spin_record == b.spin_record
    assert a.stages == b.stages
    for label, amp in a.conditional_state.amplitudes.items():
        assert b.conditional_state.amplitudes[label] == amp
