"""The batched pass of sweeps and scans against the single-point gate path."""
import math
import random
import sys

import numpy as np
import pytest

from hypercnot import (
    CavityParams,
    DegeneratePhysicsError,
    GateConfig,
    PhotonSpec,
    SweepGrid,
    ValidationError,
    block_coeffs,
    fidelity,
    fidelity_scan,
    hyper_cnot_n,
    ideal_hyper_cnot_n,
    init_state,
    random_photon_spec,
    scatter_coeffs,
    sweep_efficiency,
)
from hypercnot import analysis, circuit, gates
from hypercnot.gates import factored_run
from hypercnot.hyperstate import gate_inputs, photon_vectors, photon_weights
from hypercnot.scattering import BlockCoeffs, cavity_block_coeffs, ratio_coeffs


def _random_case(rng, nrng, case):
    """A cavity point, an optional complex unbalanced mirror and N = 1..3
    photons, basis or random; the same kinds of case as the gate's dense
    reference."""
    n = 1 + case % 3
    params = CavityParams.from_ratios(rng.uniform(0.2, 5.0), rng.uniform(0.0, 1.0),
                                      rng.uniform(0.05, 0.2), rng.uniform(-1.0, 1.0),
                                      rng.uniform(-1.0, 1.0))
    scale = None
    if case % 2:
        scale = complex(rng.uniform(0.5, 1.0), rng.uniform(-0.3, 0.3))
    if case % 4 < 2:
        photons = [random_photon_spec(nrng) for _ in range(n + 1)]
    else:
        photons = [PhotonSpec.basis(rng.randrange(2), rng.randrange(2)) for _ in range(n + 1)]
    return GateConfig(params=params, n_targets=n, mirror_scale=scale), photons


def test_factored_fidelity_matches_the_expanded_states():
    rng = random.Random(61)
    nrng = np.random.default_rng(62)
    for case in range(120):
        cfg, photons = _random_case(rng, nrng, case)
        outcome = hyper_cnot_n(photons[0], photons[1:], cfg)
        ideal = ideal_hyper_cnot_n(photons[0], photons[1:])
        bc = block_coeffs(scatter_coeffs(cfg.params))
        factored = float(factored_run(bc, cfg.mirror_scale,
                                      gate_inputs(photons)[1]).truth_fidelity())
        # expanded, both take the dict fidelity
        outcome.conditional_state.amplitudes, ideal.amplitudes
        for branch in outcome.branches:
            assert abs(factored - fidelity(branch.state, ideal)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_batch_matches_one_point_at_a_time(n):
    # mixed balanced and complex unbalanced mirrors and random photons,
    # stacked on the batch axis
    rng = random.Random(70 + n)
    nrng = np.random.default_rng(80 + n)
    cases = [_random_case(rng, nrng, 3 * k + n - 1) for k in range(8)]
    coeffs = [block_coeffs(scatter_coeffs(cfg.params)) for cfg, _ in cases]
    bc = BlockCoeffs(D=np.array([c.D for c in coeffs]), T=np.array([c.T for c in coeffs]))
    scale = np.array([1.0 if cfg.mirror_scale is None else cfg.mirror_scale
                      for cfg, _ in cases])
    x = np.array([photon_vectors(p) for _, p in cases])
    run = factored_run(bc, scale, photon_weights(x))
    fids = run.truth_fidelity()
    for j, (cfg, photons) in enumerate(cases):
        outcome = hyper_cnot_n(photons[0], photons[1:], cfg)
        assert abs(run.success[j] - outcome.success_prob) <= 1e-15
        stages = np.stack([run.clicks[j], run.absorbed[j]], axis=-1).reshape(-1, 2)
        assert np.abs(stages - np.array(outcome.stages)).max() <= 1e-15
        ideal = ideal_hyper_cnot_n(photons[0], photons[1:])
        assert abs(fids[j] - fidelity(outcome.conditional_state, ideal)) <= 1e-12


def _outer_control(t_mirror, T):
    """F[..., 0, k] = f(m, 0) f(p, 0) on k = p + 2m: the outer product of
    f(branch bit, spin up) = (t_mirror, T) with itself, moved to [..., k]."""
    f0 = np.array((t_mirror, T))
    return (f0[:, None] * f0).reshape((4,) + f0.shape[1:]).T


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("scale", ["balanced", "scalar", "per_point"])
def test_a_batchs_control_row_is_the_outer_product_to_the_bit(scale):
    rng = np.random.default_rng(101)
    ratios = [rng.uniform(lo, hi, 500) for lo, hi in
              ((0.2, 5.0), (0.0, 1.0), (0.05, 0.2), (-1.0, 1.0), (-1.0, 1.0))]
    coeffs, ok = ratio_coeffs(*ratios)
    bc = block_coeffs(coeffs)
    mirror_scale = {"balanced": None, "scalar": complex(0.8, 0.1),
                    "per_point": rng.uniform(0.5, 0.9, 500) * np.exp(0.3j * rng.uniform(-1, 1, 500))
                    }[scale]
    run = factored_run(bc, mirror_scale, gate_inputs([PhotonSpec.uniform()] * 2)[1])
    t_mirror = bc.T if mirror_scale is None else mirror_scale * bc.T
    assert (_bits(run.control) == _bits(_outer_control(t_mirror, bc.T))).all()


def test_a_points_control_row_is_a_one_entry_batchs():
    # both are numpy's products, to the bit on a balanced mirror; an
    # unbalanced mirror's transmission mirror_scale * T is Python's product
    # on one point and numpy's on a batch, which may round the last bit
    # differently
    rng = random.Random(103)
    nrng = np.random.default_rng(104)
    worst = 0.0
    for case in range(400):
        cfg, photons = _random_case(rng, nrng, case)
        bc = cavity_block_coeffs(cfg.params)
        if abs(bc.T * (cfg.mirror_scale or 1.0)) > 1.0:
            continue   # a mirror with gain: refused on both paths
        w = gate_inputs(photons)[1]
        point = factored_run(bc, cfg.mirror_scale, w).control
        batch = factored_run(BlockCoeffs(D=np.array([bc.D]), T=np.array([bc.T])),
                             cfg.mirror_scale, w[None]).control[0]
        if cfg.mirror_scale is None:
            assert (_bits(point) == _bits(batch)).all(), case
        else:
            worst = max(worst, (np.abs(point - batch) / np.abs(batch)).max())
    assert worst <= 6e-16


def test_batched_coefficients_match_one_point_and_vanish_at_g_zero():
    # the scan's ranges, with g = 0 at every other point
    rng = np.random.default_rng(91)
    ratios = [rng.uniform(lo, hi, 2000) for lo, hi in
              ((0.2, 5.0), (0.0, 1.0), (0.05, 0.2), (-1.0, 1.0), (-1.0, 1.0))]
    ratios[0][::2] = 0.0
    coeffs, ok = ratio_coeffs(*ratios)
    assert ok.all()
    bc = block_coeffs(coeffs)
    assert (coeffs.t[::2] == coeffs.t0[::2]).all()
    assert (bc.T[::2] == 0.0).all()
    for j, args in enumerate(zip(*ratios)):
        one = scatter_coeffs(CavityParams.from_ratios(*args))
        one_bc = block_coeffs(one)
        for got, want in ((coeffs.t[j], one.t), (coeffs.r[j], one.r), (coeffs.t0[j], one.t0),
                          (coeffs.r0[j], one.r0), (bc.D[j], one_bc.D), (bc.T[j], one_bc.T)):
            assert abs(got - want) <= 1e-15


def _single_point_rows(grid):
    """The sweep as a loop of single-point gate runs: the reference the
    batched pass must reproduce."""
    n = grid.n_targets
    control = PhotonSpec.uniform()
    targets = [PhotonSpec.uniform()] * n
    ideal = ideal_hyper_cnot_n(control, targets)
    rows = []
    for g in grid.g_ratios:
        for ks in grid.ks_ratios:
            params = CavityParams.from_ratios(g, ks, grid.gamma_ratio,
                                              grid.detuning_c, grid.detuning_x)
            try:
                T = block_coeffs(scatter_coeffs(params)).T
            except DegeneratePhysicsError:
                rows.append((g, ks, 0.0, 0.0, 0.0, 0.0))
                continue
            success = fid = 0.0
            try:
                outcome = hyper_cnot_n(control, targets, GateConfig(params=params, n_targets=n))
                success = outcome.success_prob
                fid = fidelity(outcome.conditional_state, ideal)
            except DegeneratePhysicsError:
                pass
            rows.append((g, ks, abs(T), abs(T) ** (4 * (n + 1)), success, fid))
    return rows


@pytest.mark.parametrize("gamma, detuning_c, detuning_x, n", [
    (0.1, 0.0, 0.0, 1), (0.0, 0.0, 0.0, 2), (0.15, 0.3, -0.2, 3), (0.05, -0.7, 0.4, 1),
])
def test_sweep_rows_match_the_single_point_path(gamma, detuning_c, detuning_x, n):
    grid = SweepGrid(g_ratios=(0.0, 1e-7, 0.01, 0.5, 1.0, 3.0, 5.0),
                     ks_ratios=(0.0, 0.1, 0.5, 1.0), gamma_ratio=gamma,
                     detuning_c=detuning_c, detuning_x=detuning_x, n_targets=n)
    rows = sweep_efficiency(grid)
    reference = _single_point_rows(grid)
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        got = (row.g_ratio, row.ks_ratio, row.abs_T, row.efficiency,
               row.success_prob, row.fidelity)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-14, (got, ref)
        if ref[4] == 0.0:
            assert row.success_prob == 0.0 and row.fidelity == 0.0


def test_a_success_below_the_smallest_subnormal_reads_zero():
    # |T|^40004 is about 1e-854 here: no stuck subnormal beside a zero efficiency
    row, = sweep_efficiency(SweepGrid(g_ratios=(1.0,), ks_ratios=(0.0,), n_targets=10000))
    assert (row.efficiency, row.success_prob, row.fidelity) == (0.0, 0.0, 0.0)


def test_underflowing_success_reports_zero_and_a_subnormal_one_is_refused():
    # at N = 6, |T| just above MIN_BLOCK_T: the success underflows to 0 (no
    # state, a row of zeros) or, a little higher, lands subnormal. The sweep
    # and the single-point gate report a subnormal point, since the factored
    # fidelity normalizes each target on its own; the branch state's
    # amplitudes, normalized by the success's root, are refused
    grid = SweepGrid(g_ratios=(2.5e-7, 3e-7, 8e-7, 1e-6), ks_ratios=(0.0,), n_targets=6)
    rows = sweep_efficiency(grid)
    for row, ref in zip(rows, _single_point_rows(grid)):
        got = (row.g_ratio, row.ks_ratio, row.abs_T, row.efficiency,
               row.success_prob, row.fidelity)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-14, (got, ref)
    assert [row.success_prob == 0.0 for row in rows] == [True, True, False, False]
    subnormal = SweepGrid(g_ratios=(1e-6, 6e-7), ks_ratios=(0.0,), n_targets=6)
    normal, tiny = sweep_efficiency(subnormal)
    assert normal.success_prob >= sys.float_info.min
    assert 0.0 < tiny.success_prob < sys.float_info.min
    assert tiny.success_prob == pytest.approx(tiny.efficiency, rel=1e-9)
    assert abs(tiny.fidelity - 1.0) <= 1e-12
    for row, ref in zip((normal, tiny), _single_point_rows(subnormal)):
        got = (row.g_ratio, row.ks_ratio, row.abs_T, row.efficiency,
               row.success_prob, row.fidelity)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-14, (got, ref)
    state = hyper_cnot_n(PhotonSpec.uniform(), [PhotonSpec.uniform()] * 6, GateConfig(
        params=CavityParams.from_ratios(6e-7, 0.0), n_targets=6)).conditional_state
    with pytest.raises(ValidationError, match="smallest normal float"):
        state.amplitudes


# Summaries of the scan as the gate ran one case at a time, expanding each
# branch state and the truth-rule state into amplitude dicts; each case's
# ratios and photons replayed from the seed's stream in Python (``cmath``
# for the Hopf pairs).
SCAN_FIGURES = {
    (25, 3, 2, None): (0.9999999999999998, 1.0000000000000002, 5.551115123125783e-17,
                       9.992007221626409e-16),
    (20, 4, 1, 0.8): (0.9566323255286463, 0.9680514211309905, 0.17148899923452296,
                      4.440892098500626e-16),
    (10, 5, 3, 0.9): (0.9835008049148407, 0.9854715113542072, 0.45215265529331455,
                      8.881784197001252e-16),
}


@pytest.mark.parametrize("args", list(SCAN_FIGURES))
def test_scan_summary_keeps_its_figures(args):
    summary = fidelity_scan(*args)
    got = (summary.min_fidelity, summary.mean_fidelity, summary.max_success_deviation,
           summary.max_conservation_error)
    for value, expected in zip(got, SCAN_FIGURES[args]):
        assert abs(value - expected) <= 1e-14


def test_chunk_boundaries_do_not_move_results(monkeypatch):
    grid = SweepGrid(g_ratios=(0.0, 0.4, 1.1, 2.5, 4.9), ks_ratios=(0.05, 0.8),
                     detuning_x=0.2)
    rows = sweep_efficiency(grid)
    scan = fidelity_scan(10, 17, 1, mirror_scale=0.9)
    monkeypatch.setattr(analysis, "_CHUNK_PHOTONS", 6)   # three points of two photons
    assert list(analysis._chunks(10, 1)) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert sweep_efficiency(grid) == rows
    chunked = fidelity_scan(10, 17, 1, mirror_scale=0.9)
    assert chunked.min_fidelity == scan.min_fidelity
    assert chunked.max_success_deviation == scan.max_success_deviation
    assert chunked.max_conservation_error == scan.max_conservation_error
    assert chunked.mean_fidelity == pytest.approx(scan.mean_fidelity, abs=1e-15)


def test_ten_thousand_point_sweep():
    axis = tuple(5.0 * k / 99 for k in range(100))
    grid = SweepGrid(g_ratios=axis, ks_ratios=tuple(k / 99 for k in range(100)))
    rows = sweep_efficiency(grid)
    assert len(rows) == 10_000
    for row in rows:
        # T = t - t0 in kappa = 1 units, from the closed form
        dipole = complex(grid.gamma_ratio / 2.0, 0.0)
        cavity = complex(1.0 + row.ks_ratio / 2.0, 0.0)
        g = row.g_ratio * (1.0 + row.ks_ratio)
        T = -dipole / (dipole * cavity + g * g) + 1.0 / cavity
        assert abs(row.abs_T - abs(T)) <= 1e-12
        assert abs(row.efficiency - abs(T) ** 8) <= 1e-12
        if row.g_ratio == 0.0:
            assert row.success_prob == 0.0 and row.fidelity == 0.0
        else:
            assert abs(row.success_prob - row.efficiency) <= 1e-12
            assert row.fidelity >= 1.0 - 1e-10
    assert math.fsum(r.success_prob for r in rows) > 0.0


@pytest.fixture
def stage_checks(monkeypatch):
    """The block of every call to ``circuit.check_stage``, the mirror and
    passivity check of a stage, from the gate engine or an element stage."""
    calls = []
    check_stage = circuit.check_stage

    def counted(bc, mirror_scale=None):
        calls.append(bc)
        return check_stage(bc, mirror_scale)

    monkeypatch.setattr(circuit, "check_stage", counted)
    monkeypatch.setattr(gates, "check_stage", counted)
    return calls


def test_the_stage_checks_run_once_per_pass(stage_checks):
    # the mirror and passivity refusals of a pass run once, with their
    # messages unchanged
    w = gate_inputs([PhotonSpec.uniform()] * 3)[1]
    bc = BlockCoeffs(D=np.array([0.1, 0.2]), T=np.array([0.9, 0.8 + 0.1j]))
    factored_run(bc, None, w)
    assert len(stage_checks) == 1
    # the scale 2 makes the first point's mirror 2 * 0.9
    with pytest.raises(ValidationError, match=r"mirror transmission \|mirror_scale \* T\| "
                                              r"exceeds 1 at mirror_scale 2.0$"):
        factored_run(bc, np.array([2.0, 0.5]), w)
    with pytest.raises(ValidationError,
                       match=r"block coefficients violate \|D\|\^2\+\|T\|\^2<=1 \(1.62"):
        factored_run(BlockCoeffs(D=np.array([0.1, 0.9]), T=np.array([0.9, 0.9])), None, w)


def test_a_mirror_with_gain_is_refused_before_a_block_that_is_not_passive():
    # one test guards both refusals of a batch; when it trips they run in
    # their order, so a mirror with gain anywhere is named by its scale even
    # where an earlier point's block is not passive
    w = gate_inputs([PhotonSpec.uniform()] * 2)[1]
    bc = BlockCoeffs(D=np.array([0.9, 0.1]), T=np.array([0.9, 0.9]))
    mirror = r"mirror transmission \|mirror_scale \* T\| exceeds 1 at mirror_scale {}$"
    with pytest.raises(ValidationError, match=mirror.format(r"2\.0")):
        factored_run(bc, np.array([1.0, 2.0]), w)
    with pytest.raises(ValidationError, match=mirror.format(r"1\.5")):
        factored_run(bc, 1.5, w)
    with pytest.raises(ValidationError, match=r"\|D\|\^2\+\|T\|\^2<=1 \(1.62"):
        factored_run(bc, np.array([1.0, 1.0]), w)
    # one point alike
    point = BlockCoeffs(D=0.9, T=0.9)
    with pytest.raises(ValidationError, match=mirror.format(r"1\.5")):
        factored_run(point, 1.5, w)
    with pytest.raises(ValidationError, match=mirror.format(r"1\.5")):
        circuit.check_stage(point, 1.5)
    with pytest.raises(ValidationError, match=r"\|D\|\^2\+\|T\|\^2<=1 \(1.62"):
        circuit.check_stage(point)


def test_the_stage_figures_take_the_mirror_mass_once():
    # |t_mirror|^2 of a balanced mirror is the block's |T|^2, the same value
    T = np.array([0.6 + 0.3j, 0.5j])
    bc = BlockCoeffs(D=np.array([0.1, 0.2]), T=T)
    t_mirror, gm, d2, t2 = circuit.check_stage(bc)
    assert t_mirror is T and gm is t2
    assert np.array_equal(t2, np.abs(T) ** 2) and np.array_equal(d2, np.abs(bc.D) ** 2)
    t_mirror, gm, _, _ = circuit.check_stage(bc, 0.5j)
    assert np.array_equal(t_mirror, 0.5j * T)
    assert np.array_equal(gm, np.abs(0.5j * T) ** 2)
    t_mirror, gm, d2, t2 = circuit.check_stage(BlockCoeffs(D=0.6, T=0.8j), 0.5)
    assert (t_mirror, gm, d2, t2) == (0.4j, abs(0.4j) ** 2, abs(0.6) ** 2, abs(0.8j) ** 2)


@pytest.mark.parametrize("stage", [circuit.stage_polarization, circuit.stage_spatial],
                         ids=["polarization", "spatial"])
def test_a_dict_stage_checks_once(stage, stage_checks):
    state = init_state([PhotonSpec.uniform()] * 2)
    stage(state, 1, block_coeffs(scatter_coeffs(CavityParams.from_ratios(3.0, 0.1))))
    assert len(stage_checks) == 1
