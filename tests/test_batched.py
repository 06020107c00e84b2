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
    random_photon_spec,
    scatter_coeffs,
    sweep_efficiency,
)
from hypercnot import analysis
from hypercnot.gates import factored_run
from hypercnot.hyperstate import photon_vectors
from hypercnot.scattering import BlockCoeffs, ratio_coeffs


def _random_case(rng, nrng, case):
    """A cavity point, an optional complex unbalanced mirror and N = 1..3
    photons, basis or random; the same kinds of case as the gate's dense
    reference."""
    n = 1 + case % 3
    params = CavityParams.from_ratios(rng.uniform(0.2, 5.0), rng.uniform(0.0, 1.0),
                                      rng.uniform(0.05, 0.2), rng.uniform(-1.0, 1.0),
                                      rng.uniform(-1.0, 1.0))
    T = block_coeffs(scatter_coeffs(params)).T
    override = None
    if case % 2:
        override = complex(rng.uniform(0.5, 1.0), rng.uniform(-0.3, 0.3)) * T
    if case % 4 < 2:
        photons = [random_photon_spec(nrng) for _ in range(n + 1)]
    else:
        photons = [PhotonSpec.basis(rng.randrange(2), rng.randrange(2)) for _ in range(n + 1)]
    return GateConfig(params=params, n_targets=n, mirror_T_override=override), photons


def test_factored_fidelity_matches_the_expanded_states():
    rng = random.Random(61)
    nrng = np.random.default_rng(62)
    for case in range(120):
        cfg, photons = _random_case(rng, nrng, case)
        outcome = hyper_cnot_n(photons[0], photons[1:], cfg)
        ideal = ideal_hyper_cnot_n(photons[0], photons[1:])
        bc = block_coeffs(scatter_coeffs(cfg.params))
        factored = float(factored_run(bc, cfg.mirror_T_override,
                                      photon_vectors(photons)).truth_fidelity())
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
    mirror = np.array([c.T if cfg.mirror_T_override is None else cfg.mirror_T_override
                       for (cfg, _), c in zip(cases, coeffs)])
    run = factored_run(bc, mirror, np.array([photon_vectors(p) for _, p in cases]))
    fids = run.truth_fidelity()
    for j, (cfg, photons) in enumerate(cases):
        outcome = hyper_cnot_n(photons[0], photons[1:], cfg)
        assert abs(run.success[j] - outcome.success_prob) <= 1e-15
        stages = np.stack([run.clicks[j], run.absorbed[j]], axis=-1).reshape(-1, 2)
        assert np.abs(stages - np.array(outcome.stages)).max() <= 1e-15
        ideal = ideal_hyper_cnot_n(photons[0], photons[1:])
        assert abs(fids[j] - fidelity(outcome.conditional_state, ideal)) <= 1e-12


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


def test_underflowing_success_reports_zero_and_a_subnormal_one_is_refused():
    # at N = 6, |T| just above MIN_BLOCK_T: the success underflows to 0 (no
    # state, a row of zeros) or, a little higher, lands subnormal. The sweep
    # reports a subnormal point, since its fidelity normalizes each target on
    # its own; the single-point gate, which normalizes the branch states by
    # the success's root, refuses it
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
    with pytest.raises(ValidationError, match="smallest normal float"):
        _single_point_rows(subnormal)


# Summaries of the scan as the gate ran one case at a time, expanding each
# branch state and the truth-rule state into amplitude dicts.
SCAN_FIGURES = {
    (25, 3, 2, None): (0.9999999999999998, 1.0, 4.996003610813204e-16,
                       2.1094237467877974e-15),
    (20, 4, 1, 0.8): (0.955877335304778, 0.9677442114604926, 0.2934832674546278,
                      7.771561172376096e-16),
    (10, 5, 3, 0.9): (0.9810701277733334, 0.9856533362818833, 0.1137778901349121,
                      1.887379141862766e-15),
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
