"""Sweeps, randomized fidelity scans, and report round trips."""
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercnot import (
    CavityParams,
    ScanSummary,
    SweepGrid,
    SweepRow,
    ValidationError,
    emit_report,
    fidelity_scan,
    load_report,
    random_photon_spec,
    sweep_efficiency,
)
from hypercnot.analysis import MAX_GRID_POINTS, MAX_TARGETS, REPORT_COLUMNS

ETA_1 = 0.6512926891789744


class TestSweepGrid:
    def test_axes_coerced_to_floats(self):
        grid = SweepGrid(g_ratios=[1, 2], ks_ratios=(0,))
        assert grid.g_ratios == (1.0, 2.0)
        assert grid.ks_ratios == (0.0,)

    @pytest.mark.parametrize("kwargs", [
        {"g_ratios": (), "ks_ratios": (0.1,)},
        {"g_ratios": (1.0,), "ks_ratios": ()},
        {"g_ratios": (-0.5,), "ks_ratios": (0.1,)},
        {"g_ratios": (1.0,), "ks_ratios": (-0.1,)},
        {"g_ratios": (1.0,), "ks_ratios": (0.1,), "n_targets": 0},
        {"g_ratios": (1.0,), "ks_ratios": (0.1,), "n_targets": 1.5},
        {"g_ratios": (math.nan,), "ks_ratios": (0.1,)},
        {"g_ratios": (1.0,), "ks_ratios": (math.inf,)},
        {"g_ratios": (1.0,), "ks_ratios": (0.1,), "gamma_ratio": -1.0},
        {"g_ratios": (1.0,), "ks_ratios": (0.1,), "detuning_c": math.nan},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            SweepGrid(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("g_ratios", (math.nan,)), ("ks_ratios", (math.inf,)), ("gamma_ratio", -1.0),
        ("gamma_ratio", math.inf), ("detuning_c", math.nan), ("detuning_x", -math.inf),
        ("g_ratios", "12"), ("ks_ratios", b"12"), ("ks_ratios", (np.bool_(True),)),
        ("g_ratios", (10**400,)), ("ks_ratios", (1j,)), ("gamma_ratio", True),
        ("detuning_c", "0"), ("g_ratios", 3.0), ("ks_ratios", None),
    ])
    def test_refusal_names_the_field(self, field, value):
        kwargs = {"g_ratios": (1.0,), "ks_ratios": (0.1,), field: value}
        with pytest.raises(ValidationError, match=field):
            SweepGrid(**kwargs)

    def test_rejects_a_coupling_that_overflows(self):
        # g = g_ratio * (kappa + kappa_s) is inf: CavityParams refuses it
        with pytest.raises(ValidationError, match="finite"):
            SweepGrid(g_ratios=(1e308,), ks_ratios=(1.0,))

    def test_refuses_more_targets_than_fit_in_memory(self):
        assert SweepGrid((1.0,), (0.0,), n_targets=MAX_TARGETS).n_targets == MAX_TARGETS
        with pytest.raises(ValidationError, match=f"n_targets must be <= {MAX_TARGETS}"):
            SweepGrid((1.0,), (0.0,), n_targets=10**9)

    def test_refuses_more_points_than_fit_in_memory(self):
        axis = tuple(range(1000))
        SweepGrid(axis, axis)   # exactly MAX_GRID_POINTS: accepted
        with pytest.raises(ValidationError,
                           match=f"1001000 points, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}"):
            SweepGrid(axis + (1000,), axis)


class TestSweepEfficiency:
    def test_the_peak_memory_per_photon(self):
        # the tracemalloc peak of a one-point sweep of 10^5 targets, per
        # photon: at most 200 bytes, plus a fixed allowance for the small
        # arrays. Holding the run's stage ledger through the overlap, or
        # taking the overlap's conjugate and product in arrays of their own,
        # raises it to about 305.
        n = 10**5
        grid = SweepGrid(g_ratios=(3.0,), ks_ratios=(0.1,), n_targets=n)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sweep_efficiency(grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 200 * n + 2**18, peak / n

    def test_rows_follow_grid_order(self):
        grid = SweepGrid(g_ratios=(1.0, 3.0), ks_ratios=(0.0, 0.5))
        rows = sweep_efficiency(grid)
        assert [(r.g_ratio, r.ks_ratio) for r in rows] == [
            (1.0, 0.0), (1.0, 0.5), (3.0, 0.0), (3.0, 0.5)]

    def test_reference_point(self):
        rows = sweep_efficiency(SweepGrid(g_ratios=(3.0,), ks_ratios=(0.1,)))
        row = rows[0]
        assert row.efficiency == pytest.approx(ETA_1, abs=1e-12)
        assert row.success_prob == pytest.approx(ETA_1, abs=1e-12)
        assert row.fidelity == pytest.approx(1.0, abs=1e-12)
        assert row.abs_T == pytest.approx(ETA_1 ** 0.125, abs=1e-12)

    def test_success_tracks_the_closed_form(self):
        grid = SweepGrid(g_ratios=(0.5, 2.0), ks_ratios=(0.0, 1.0), n_targets=2)
        for row in sweep_efficiency(grid):
            assert abs(row.success_prob - row.efficiency) < 1e-12
            assert row.efficiency == pytest.approx(row.abs_T ** 12, abs=1e-12)
            assert row.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_both_axes(self):
        grid = SweepGrid(g_ratios=(0.5, 1.0, 2.0, 3.0, 5.0),
                         ks_ratios=(0.0, 0.1, 0.5, 1.0))
        rows = sweep_efficiency(grid)
        eff = {(r.g_ratio, r.ks_ratio): r.efficiency for r in rows}
        for ks in grid.ks_ratios:
            col = [eff[(g, ks)] for g in grid.g_ratios]
            assert col == sorted(col)
        for g in grid.g_ratios:
            line = [eff[(g, ks)] for ks in grid.ks_ratios]
            assert line == sorted(line, reverse=True)

    def test_uncoupled_rows_report_zero(self):
        # with gamma = 0 the g = 0, ks = 0 point has no scattering coefficients
        grids = [SweepGrid(g_ratios=(0.0,), ks_ratios=(0.0, 0.1), gamma_ratio=gamma)
                 for gamma in (0.1, 0.0)]
        rows = [row for grid in grids for row in sweep_efficiency(grid)]
        assert len(rows) == 4
        for row in rows:
            assert row.abs_T == 0.0
            assert row.efficiency == 0.0
            assert row.success_prob == 0.0
            assert row.fidelity == 0.0

    @pytest.mark.parametrize("gamma_ratio, detuning_c, detuning_x", [
        (1.7e308, 0.0, 1.7e308), (1e200, 1e200, 0.0)])
    def test_rows_whose_terms_overflow_report_zero(self, gamma_ratio, detuning_c,
                                                   detuning_x):
        # the single-point path refuses such a point as degenerate (exit 3)
        grid = SweepGrid(g_ratios=(1.0,), ks_ratios=(0.0,), gamma_ratio=gamma_ratio,
                         detuning_c=detuning_c, detuning_x=detuning_x)
        assert sweep_efficiency(grid) == [SweepRow(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)]


# Grid entries: ratios CavityParams.from_ratios accepts, and one of each kind
# it refuses. 1e300 with a ks_ratio of 1e300 is a g that overflows.
_ACCEPTED = [0.0, 0.5, 3.0, 1e300, -0.5, np.float32(0.25), np.int64(2)]
_REFUSED = [True, np.bool_(True), "1", 1j, math.nan, math.inf, -math.inf, 10**400]
_GRID_VALUE = st.sampled_from(_ACCEPTED) | st.sampled_from(_ACCEPTED + _REFUSED)


def _refused(build) -> bool:
    try:
        build()
    except ValidationError:
        return True
    return False


@settings(max_examples=300, derandomize=True, deadline=None)
@given(g=st.lists(_GRID_VALUE, min_size=1, max_size=3),
       ks=st.lists(_GRID_VALUE, min_size=1, max_size=3),
       rest=st.tuples(_GRID_VALUE, _GRID_VALUE, _GRID_VALUE))
def test_a_grid_is_refused_exactly_where_from_ratios_refuses_a_point(g, ks, rest):
    grid_refused = _refused(lambda: SweepGrid(g, ks, *rest))
    assert grid_refused == any(_refused(lambda: CavityParams.from_ratios(g_ratio, ks_ratio, *rest))
                               for g_ratio in g for ks_ratio in ks)


class TestRandomPhotonSpec:
    def test_normalized_and_seeded(self):
        specs = [random_photon_spec(np.random.default_rng(40)) for _ in range(2)]
        assert specs[0].pol == specs[1].pol
        assert specs[0].spatial == specs[1].spatial
        for pair in (specs[0].pol, specs[0].spatial):
            assert math.fsum(abs(c) ** 2 for c in pair) == pytest.approx(
                1.0, abs=1e-12)

    def test_varies_along_a_stream(self):
        rng = np.random.default_rng(41)
        assert random_photon_spec(rng).pol != random_photon_spec(rng).pol

    def test_pairs_are_haar_random(self):
        # Hopf coordinates: every pair normalized, |c0|^2 uniform in [0, 1]
        # (mean 1/2, variance 1/12) and both phases uniform; the bounds are
        # several standard deviations wide at 10^4 pairs
        rng = np.random.default_rng(43)
        specs = [random_photon_spec(rng) for _ in range(5000)]
        pairs = np.array([pair for spec in specs for pair in (spec.pol, spec.spatial)])
        assert np.abs((np.abs(pairs) ** 2).sum(axis=1) - 1.0).max() <= 1e-15
        weight = np.abs(pairs[:, 0]) ** 2
        assert abs(weight.mean() - 0.5) <= 0.02
        assert abs(weight.var() - 1.0 / 12.0) <= 0.01
        expected = len(pairs) / 8
        for phase in np.angle(pairs).T:
            counts, _ = np.histogram(phase, bins=8, range=(-np.pi, np.pi))
            assert np.abs(counts - expected).max() <= 0.2 * expected, counts


class TestFidelityScan:
    def test_balanced_gate_is_exact(self):
        summary = fidelity_scan(n_cases=40, seed=7)
        assert isinstance(summary, ScanSummary)
        assert summary.n_cases == 40
        assert summary.min_fidelity >= 1.0 - 1e-10
        assert summary.mean_fidelity >= summary.min_fidelity
        assert summary.max_success_deviation < 1e-12
        assert summary.max_conservation_error < 1e-12

    def test_deterministic(self):
        assert fidelity_scan(20, seed=8) == fidelity_scan(20, seed=8)

    def test_multi_target(self):
        summary = fidelity_scan(n_cases=10, seed=9, n_targets=3)
        assert summary.n_targets == 3
        assert summary.min_fidelity >= 1.0 - 1e-10

    def test_unbalanced_mirrors_show_up(self):
        summary = fidelity_scan(n_cases=10, seed=10, mirror_scale=0.8)
        assert summary.min_fidelity < 1.0 - 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"n_cases": 0, "seed": 1},
        {"n_cases": 5, "seed": 1, "n_targets": 0},
        {"n_cases": 2.5, "seed": 1},
        {"n_cases": 2, "seed": 1, "mirror_scale": True},
        {"n_cases": 2, "seed": 1, "mirror_scale": math.nan},
        {"n_cases": 2, "seed": 1, "mirror_scale": "0.8"},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            fidelity_scan(**kwargs)

    def test_refuses_more_targets_than_fit_in_memory(self):
        with pytest.raises(ValidationError, match=f"n_targets must be <= {MAX_TARGETS}"):
            fidelity_scan(1, 1, n_targets=10**9)

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_rejects_seeds_numpy_cannot_take(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            fidelity_scan(1, seed)


class TestReports:
    @pytest.fixture
    def rows(self):
        return sweep_efficiency(SweepGrid(g_ratios=(0.7, 3.0),
                                          ks_ratios=(0.0, 0.3)))

    def test_csv_round_trip_is_exact(self, rows, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_report(rows, "csv", path)
        assert load_report(path, "csv") == rows
        header = path.read_text().splitlines()[0]
        assert header == "g_ratio,ks_ratio,abs_T,efficiency,success_prob,fidelity"

    def test_json_round_trip_is_exact(self, rows, tmp_path):
        path = tmp_path / "sweep.json"
        emit_report(rows, "json", path)
        assert load_report(path, "json") == rows

    def test_stream_destination_and_source(self, rows):
        buf = io.StringIO()
        emit_report(rows, "csv", buf)
        assert load_report(io.StringIO(buf.getvalue()), "csv") == rows

    def test_csv_row_count(self, rows, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_report(rows, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(rows)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError, match="no rows"):
            emit_report([], "csv", io.StringIO())

    def test_unknown_format_rejected(self, rows):
        with pytest.raises(ValidationError, match="unknown report format"):
            emit_report(rows, "yaml", io.StringIO())
        with pytest.raises(ValidationError, match="unknown report format"):
            load_report(io.StringIO("x"), "yaml")

    def test_write_error_names_the_path(self, rows):
        with pytest.raises(OSError, match="cannot write report"):
            emit_report(rows, "csv", "/nonexistent-dir/sweep.csv")

    def test_read_error_names_the_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot read report"):
            load_report(tmp_path / "missing.csv", "csv")

    def test_bad_header_rejected(self):
        stream = io.StringIO("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError, match="bad report header"):
            load_report(stream, "csv")
        header = ",".join(REPORT_COLUMNS)
        for body, problem in (("1,2", "2 cells"), ("1,2,3,4,5,x", "could not convert"),
                              ("nan,inf,-5,0,0,0", "g_ratio is nan"),
                              ("0,inf,0,0,0,0", "ks_ratio is inf"),
                              ("0,0,-5,0,0,0", "abs_T is -5.0")):
            stream = io.StringIO(f"{header}\n1,2,3,4,5,6\n{body}\n")
            with pytest.raises(ValidationError, match=f"bad row 2 in <stream>: {problem}"):
                load_report(stream, "csv")

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError, match="bad JSON report"):
            load_report(io.StringIO("{not json"), "json")
        with pytest.raises(ValidationError, match="expected a list"):
            load_report(io.StringIO('{"g_ratio": 1}'), "json")
        for body, problem in (('[{"g_ratio": 1}]', "missing"), ("[1]", "expected an object")):
            with pytest.raises(ValidationError, match=f"bad row 1 in <stream>: {problem}"):
                load_report(io.StringIO(body), "json")
        for cell, problem in (("true", "is True, expected a number"),
                              ('"0.5"', "is '0.5', expected a number"),
                              ("NaN", "is nan, expected a finite"),
                              ("-1", "is -1.0, expected a finite")):
            cells = ", ".join(f'"{col}": {cell if col == "fidelity" else 0}'
                              for col in REPORT_COLUMNS)
            with pytest.raises(ValidationError,
                               match=f"bad row 1 in <stream>: fidelity {problem}"):
                load_report(io.StringIO(f"[{{{cells}}}]"), "json")

    def test_row_fields_match_the_header(self):
        assert REPORT_COLUMNS == tuple(SweepRow._fields)
