"""Scattering coefficients, block coefficients, efficiency, dephasing.

Expected values were frozen from an independent 50-digit computation of the
closed-form coefficient expressions at the reference point (kappa=1,
kappa_s=0.1, gamma=0.1, g=3.3, all on resonance).
"""
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypercnot import (
    CavityParams,
    DegeneratePhysicsError,
    DephasingParams,
    GateConfig,
    PhotonSpec,
    SweepGrid,
    ValidationError,
    block_coeffs,
    dephasing_penalty,
    efficiency,
    hyper_cnot,
    scatter_coeffs,
    sweep_efficiency,
)
from hypercnot.scattering import BlockCoeffs, ScatterCoeffs, cavity_block_coeffs, ratio_coeffs

# Frozen reference-point values (50-digit oracle, rounded to nearest double).
T_HOT = -0.004569339730408956
R_HOT = 0.995430660269591
T_COLD = -0.9523809523809523
R_COLD = 0.047619047619047616
D_BLOCK = 0.04304970788863866
T_BLOCK = 0.9478116126505434
ETA = {
    1: 0.6512926891789744,
    2: 0.5256108296381016,
    3: 0.42418216697798017,
    4: 0.342326490696591,
}
MIRROR_ABSORPTION = 0.10165314692477623  # 1 - |T_BLOCK|^2


def _random_params(rng: np.random.Generator) -> CavityParams:
    return CavityParams.from_ratios(
        g_ratio=rng.uniform(0.2, 5.0),
        ks_ratio=rng.uniform(0.0, 1.0),
        gamma_ratio=rng.uniform(0.05, 0.2),
        detuning_c=rng.uniform(-1.0, 1.0),
        detuning_x=rng.uniform(-1.0, 1.0),
    )


class TestReferencePoint:
    def test_hot_and_cold_coefficients(self, bench_params):
        sc = scatter_coeffs(bench_params)
        assert abs(sc.t - T_HOT) < 1e-15
        assert abs(sc.r - R_HOT) < 1e-15
        assert abs(sc.t0 - T_COLD) < 1e-15
        assert abs(sc.r0 - R_COLD) < 1e-15
        assert sc.t.imag == 0.0 and sc.t0.imag == 0.0  # resonance: all real

    def test_block_coefficients(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        assert abs(bc.D - D_BLOCK) < 1e-15
        assert abs(bc.T - T_BLOCK) < 1e-15

    def test_mirror_absorption_fraction(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        assert abs((1.0 - abs(bc.T) ** 2) - MIRROR_ABSORPTION) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_efficiency_values(self, bench_params, n):
        bc = block_coeffs(scatter_coeffs(bench_params))
        eta = efficiency(bc.T, n)
        assert abs(eta - ETA[n]) < 1e-14
        assert abs(eta - abs(bc.T) ** (4 * (n + 1))) < 1e-15

    def test_from_ratios_construction(self, bench_params):
        # g = g_ratio * (kappa + kappa_s) with kappa fixed at 1
        assert bench_params.kappa == 1.0
        assert bench_params.kappa_s == pytest.approx(0.1)
        assert bench_params.gamma == pytest.approx(0.1)
        assert bench_params.g == pytest.approx(3.3)
        detuned = CavityParams.from_ratios(1.0, 0.0, 0.1,
                                           detuning_c=0.5, detuning_x=-0.25)
        assert detuned.omega == 0.0
        assert detuned.omega_c == 0.5
        assert detuned.omega_x == -0.25


class TestIdentities:
    def test_reflection_equals_one_plus_transmission(self):
        # exact by construction, so bitwise equality must hold
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            sc = scatter_coeffs(_random_params(rng))
            assert sc.r == 1.0 + sc.t
            assert sc.r0 == 1.0 + sc.t0

    def test_block_sum_and_difference(self):
        rng = np.random.default_rng(202)
        for _ in range(10_000):
            sc = scatter_coeffs(_random_params(rng))
            bc = block_coeffs(sc)
            assert abs((bc.D + bc.T) - (sc.t + sc.r)) < 1e-14
            assert abs((bc.D - bc.T) - (sc.t0 + sc.r0)) < 1e-14

    def test_passivity(self):
        rng = np.random.default_rng(303)
        for _ in range(10_000):
            sc = scatter_coeffs(_random_params(rng))
            bc = block_coeffs(sc)
            assert abs(sc.t + sc.r) <= 1.0 + 1e-12
            assert abs(sc.t0 + sc.r0) <= 1.0 + 1e-12
            assert abs(bc.D) ** 2 + abs(bc.T) ** 2 <= 1.0 + 1e-12

    def test_cold_coeffs_are_g_zero_limit(self):
        # T = kappa g^2 / (c (d c + g^2)) is exactly 0 at g = 0, whatever the
        # rounding of the other rates
        rng = np.random.default_rng(404)
        for _ in range(10_000):
            p = _random_params(rng)
            zero_g = scatter_coeffs(replace(p, g=0.0))
            assert zero_g.t == zero_g.t0
            assert zero_g.r == zero_g.r0
            assert block_coeffs(zero_g).T == 0.0
            # the cold pair does not depend on the coupling at all
            assert zero_g.t0 == scatter_coeffs(p).t0

    def test_block_is_the_cavity_between_hadamards(self):
        # criterion 7's draws. Hadamard wave plates sandwich the cavity,
        # which answers h = t + r on the polarization the spin couples to the
        # dipole and h0 = t0 + r0 on the other: spin up couples the first
        # Hadamard-frame polarization, spin down the second. An incoming R
        # photon leaves with D on R (the detector) and the stage's block
        # factor, +T for spin up and -T for spin down, on L
        rng = np.random.default_rng(2029)
        H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        for _ in range(10_000):
            p = _random_params(rng)
            sc = scatter_coeffs(p)
            bc = block_coeffs(sc)
            h, h0 = sc.t + sc.r, sc.t0 + sc.r0
            for cavity, factor in zip((np.diag([h, h0]), np.diag([h0, h])),
                                      (bc.T, -bc.T)):
                out_R, out_L = (H @ cavity @ H)[:, 0]
                assert abs(out_R - bc.D) <= 1e-15
                assert abs(out_L - factor) <= 1e-15
            # the closed form of Hu et al., PRB 78, 085307 (2008)
            d = complex(p.gamma / 2.0, p.omega_x - p.omega)
            c = complex(p.kappa + p.kappa_s / 2.0, p.omega_c - p.omega)
            T = p.kappa * p.g ** 2 / (c * (d * c + p.g ** 2))
            assert abs(bc.T - T) <= 1e-15

    def test_lossless_limit_is_exact(self):
        # gamma = 0 and kappa_s = 0 give T = 1, D = 0 with no rounding at all
        bc = block_coeffs(scatter_coeffs(CavityParams(g=1.0, kappa=1.0)))
        assert bc.T == 1.0
        assert bc.D == 0.0


class TestOffResonance:
    def test_cold_transmission_at_one_kappa_detuning(self):
        p = CavityParams(g=1.0, kappa=1.0, omega_c=1.0)
        sc = scatter_coeffs(p)
        assert sc.t0 == pytest.approx(complex(-0.5, 0.5), abs=1e-15)
        assert abs(sc.t0) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_coefficients_go_complex(self):
        p = CavityParams.from_ratios(3.0, 0.1, 0.1, detuning_x=0.7)
        sc = scatter_coeffs(p)
        assert sc.t.imag != 0.0
        bc = block_coeffs(sc)
        assert bc.T.imag != 0.0


class TestValidationAndDegeneracy:
    @pytest.mark.parametrize("kwargs", [
        dict(g=1.0, kappa=0.0),
        dict(g=1.0, kappa=-1.0),
        dict(g=1.0, kappa=1.0, kappa_s=-0.1),
        dict(g=1.0, kappa=1.0, gamma=-0.1),
        dict(g=-1.0, kappa=1.0),
    ])
    def test_bad_cavity_params(self, kwargs):
        with pytest.raises(ValidationError):
            CavityParams(**kwargs)

    @pytest.mark.parametrize("name", ["g", "kappa", "kappa_s", "gamma",
                                      "omega", "omega_c", "omega_x"])
    def test_non_finite_cavity_params(self, name):
        for value in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                CavityParams(**{"g": 1.0, "kappa": 1.0, name: value})

    def test_numpy_and_integer_fields_run_as_the_floats_they_equal(self):
        # a float32 rate would run the coefficient formula in single precision
        rates = dict(g=2.0, kappa=1.0, kappa_s=float(np.float32(0.1)), gamma=0.1)
        ref = CavityParams(**rates)
        u = PhotonSpec.uniform()
        ref_gate = hyper_cnot(u, u, GateConfig(params=ref))
        for name, value in (("g", 2), ("g", np.int64(2)), ("kappa", np.float32(1.0)),
                            ("kappa", np.float64(1.0)), ("kappa_s", np.float32(0.1)),
                            ("gamma", np.float64(0.1)), ("omega", np.float32(0.0))):
            p = CavityParams(**{**rates, name: value})
            assert all(type(getattr(p, f)) is float for f in (
                "g", "kappa", "kappa_s", "gamma", "omega", "omega_c", "omega_x"))
            assert p == ref
            assert scatter_coeffs(p) == scatter_coeffs(ref)
            out = hyper_cnot(u, u, GateConfig(params=p))
            assert (out.success_prob, out.stages) == (ref_gate.success_prob, ref_gate.stages)
        assert CavityParams.from_ratios(np.float32(3.0), np.float32(0.125), np.float64(0.1),
                                        np.int64(0)) == CavityParams.from_ratios(3.0, 0.125, 0.1)

    @pytest.mark.parametrize("value, refusal", [
        (1j, "must be a real number"), (np.complex128(2.0), "must be a real number"),
        ("2", "must be a real number"), ("1", "must be a real number"),
        (None, "must be a real number"), (True, "must be a real number"),
        (np.bool_(True), "must be a real number"),
        (10**400, "must be finite, got a number past the float range"),
    ])
    def test_a_field_that_is_not_a_real_number_is_refused(self, value, refusal):
        with pytest.raises(ValidationError, match=f"g {refusal}"):
            CavityParams(g=value, kappa=1.0)
        with pytest.raises(ValidationError, match=f"gamma {refusal}"):
            CavityParams(g=1.0, kappa=1.0, gamma=value)
        with pytest.raises(ValidationError, match=f"ks_ratio {refusal}"):
            CavityParams.from_ratios(3.0, value)

    def test_zero_denominator_raises(self):
        # g = 0 and gamma = 0 on resonance zero the hot-coefficient denominator
        with pytest.raises(DegeneratePhysicsError):
            scatter_coeffs(CavityParams(g=0.0, kappa=1.0, gamma=0.0))

    @pytest.mark.parametrize("gamma, omega_c, omega_x", [
        (1.7e308, 0.0, 1.7e308),   # |d| overflows: Python's abs would raise
        (1e200, 1e200, 0.0),       # d * c overflows: the denominator did not vanish
    ])
    def test_terms_past_the_float_range_are_degenerate_on_both_paths(self, gamma, omega_c,
                                                                     omega_x):
        with pytest.raises(DegeneratePhysicsError, match="scattering terms overflow"):
            scatter_coeffs(CavityParams(g=1.0, kappa=1.0, gamma=gamma, omega_c=omega_c,
                                        omega_x=omega_x))
        _, ok = ratio_coeffs(np.array([1.0]), 0.0, gamma, omega_c, omega_x)
        assert not ok.any()

    @pytest.mark.parametrize("g", [1e155, 1e200, 1.7e308])
    def test_an_overflowing_coupling_is_the_strong_coupling_limit(self, g):
        # g^2 overflows: T takes its limit kappa / c, on one point and on a batch
        rates = dict(kappa=1.0, kappa_s=0.1, gamma=0.1, omega_c=0.2, omega_x=-0.3)
        limit = 1.0 / complex(1.05, 0.2)
        T = block_coeffs(scatter_coeffs(CavityParams(g=g, **rates))).T
        assert abs(T - limit) <= 1e-15
        coeffs, ok = ratio_coeffs(np.array([g / 1.1]), 0.1, 0.1, 0.2, -0.3)
        assert ok.all() and abs(block_coeffs(coeffs).T[0] - limit) <= 1e-15

    @pytest.mark.parametrize("unit", [1e-16, 1e16])
    def test_degeneracy_test_is_scale_free(self, unit):
        # the coefficients are homogeneous in the rate unit, so the same
        # cavity in tiny or huge units is just as well defined
        rates = dict(g=3.3, kappa=1.0, kappa_s=0.1, gamma=0.1,
                     omega_c=0.2, omega_x=-0.3)
        ref = efficiency(block_coeffs(scatter_coeffs(CavityParams(**rates))).T)
        scaled = CavityParams(**{k: v * unit for k, v in rates.items()})
        assert efficiency(block_coeffs(scatter_coeffs(scaled)).T) == pytest.approx(
            ref, abs=1e-12)

    @pytest.mark.parametrize("unit", [1e-200, 1e-160, 1e160, 1e200])
    def test_coefficients_do_not_depend_on_the_rate_unit(self, unit):
        # in the rates' own unit g^2 underflows (tiny unit) or d*c overflows
        # (huge unit); in units of kappa neither does
        rates = dict(g=3.3, kappa=1.0, kappa_s=0.1, gamma=0.1, omega_c=0.3, omega_x=-0.2)
        ref = scatter_coeffs(CavityParams(**rates))
        got = scatter_coeffs(CavityParams(**{k: v * unit for k, v in rates.items()}))
        for name in ("r", "t", "r0", "t0"):
            assert abs(getattr(got, name) - getattr(ref, name)) <= 1e-15, name

    @pytest.mark.parametrize("name", ["kappa_s", "gamma", "omega_c", "omega_x"])
    def test_a_rate_past_the_float_range_in_units_of_kappa_is_refused(self, name):
        with pytest.raises(ValidationError, match="must stay finite in units of kappa"):
            scatter_coeffs(CavityParams(g=1.0, kappa=1e-300, **{name: 1e10}))

    def test_a_coupling_past_the_float_range_in_units_of_kappa_is_the_limit(self):
        # g / kappa = 1e310: T is kappa / c = 1 on resonance without side leakage
        assert block_coeffs(scatter_coeffs(CavityParams(g=1e10, kappa=1e-300))).T == 1.0

    def test_efficiency_validation(self):
        with pytest.raises(ValidationError):
            efficiency(0.9, 0)
        with pytest.raises(ValidationError):
            efficiency(1.5, 1)
        # a hair over 1 from rounding clamps instead of erroring
        assert efficiency(1.0 + 1e-13, 1) == 1.0

    @pytest.mark.parametrize("kwargs, refusal", [
        (dict(tau=-1e-9, t2=2.6e-6), "tau must be > 0"),
        (dict(tau=4.5e-9, t2=0.0), "t2 must be > 0"),
        (dict(tau=4.5e-9, t2=-1.0), "t2 must be > 0"),
        (dict(tau=True, t2=2.6e-6), "tau must be a real number, got True"),
        (dict(tau=math.inf, t2=2.6e-6), "tau must be finite, got inf"),
        (dict(tau=4.5e-9, t2="2.6e-6"), "t2 must be a real number, got '2.6e-6'"),
    ])
    def test_bad_dephasing_params(self, kwargs, refusal):
        with pytest.raises(ValidationError, match=refusal):
            DephasingParams(**kwargs)

    def test_dephasing_params_are_stored_as_floats(self):
        d = DephasingParams(tau=np.float32(0.5), t2=2)
        assert (d.tau, d.t2) == (0.5, 2.0) and type(d.tau) is type(d.t2) is float


WEAK_COUPLINGS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 6e-7)


def _exact_T(params):
    """kappa g^2 / (c (d c + g^2)) on resonance, in exact rational arithmetic
    on the parameters' floats, rounded once."""
    g, kappa, kappa_s, gamma = map(Fraction, (params.g, params.kappa, params.kappa_s,
                                              params.gamma))
    c = kappa + kappa_s / 2
    d = gamma / 2
    return float(kappa * g * g / (c * (d * c + g * g)))


def test_the_block_T_keeps_its_precision_at_weak_coupling():
    # t = t0 + T rounds against t0 = -kappa/c, about -1, so a T taken back
    # out of t would keep only about 1e-16 / |T| of its relative precision;
    # the block keeps the closed form's T, on one point, on a batch and in
    # a sweep's abs_T and success_prob (|T|^8)
    ks, gamma = 0.1, 0.1
    exact = [_exact_T(CavityParams.from_ratios(g, ks, gamma)) for g in WEAK_COUPLINGS]
    coeffs, ok = ratio_coeffs(np.array(WEAK_COUPLINGS), ks, gamma, 0.0, 0.0)
    batch = block_coeffs(coeffs).T
    rows = sweep_efficiency(SweepGrid(g_ratios=WEAK_COUPLINGS, ks_ratios=(ks,),
                                      gamma_ratio=gamma))
    assert ok.all()
    for g, want, T, row in zip(WEAK_COUPLINGS, exact, batch, rows):
        point = block_coeffs(scatter_coeffs(CavityParams.from_ratios(g, ks, gamma))).T
        for got in (point, T, row.abs_T):
            assert abs(got - want) <= 1e-14 * want, (g, got, want)
        assert abs(row.success_prob - want ** 8) <= 1e-14 * want ** 8, (g, row)
    # and it stays exactly 0 without coupling
    assert block_coeffs(scatter_coeffs(CavityParams.from_ratios(0.0, ks, gamma))).T == 0.0
    coeffs, _ = ratio_coeffs(np.array([0.0, 1e-3]), ks, gamma, 0.0, 0.0)
    assert block_coeffs(coeffs).T[0] == 0.0
    assert sweep_efficiency(SweepGrid(g_ratios=(0.0,), ks_ratios=(ks,)))[0].abs_T == 0.0


def _bits(z):
    return (z.real.hex(), z.imag.hex())


def test_the_gates_block_coefficients_are_the_records_to_the_bit():
    # the gate takes D and T without the ScatterCoeffs record; the same
    # formulas, so the same bits, at random points, without coupling and at
    # the weakest coupling of the precision test
    rng = np.random.default_rng(27)
    points = [_random_params(rng) for _ in range(300)]
    points += [replace(p, g=0.0) for p in points[:50]]
    points += [CavityParams.from_ratios(6e-7, 0.1, 0.1),
               CavityParams(g=1e200, kappa=1.0, kappa_s=0.1, gamma=0.1),
               CavityParams(g=3.3e-100, kappa=1e-100, kappa_s=1e-101, gamma=1e-101)]
    for p in points:
        got = cavity_block_coeffs(p)
        want = block_coeffs(scatter_coeffs(p))
        assert isinstance(got, BlockCoeffs)
        assert list(map(_bits, got)) == list(map(_bits, want)), p


@pytest.mark.parametrize("kwargs, error, refusal", [
    (dict(g=1.0, kappa=1.0, gamma=1.7e308, omega_x=1.7e308), DegeneratePhysicsError,
     "scattering terms overflow"),
    (dict(g=1.0, kappa=1.0, gamma=1e200, omega_c=1e200), DegeneratePhysicsError,
     "scattering terms overflow"),
    (dict(g=0.0, kappa=1.0, gamma=0.0), DegeneratePhysicsError,
     "scattering denominator vanishes"),
    (dict(g=1.0, kappa=1e-300, gamma=1e10), ValidationError,
     "must stay finite in units of kappa"),
], ids=["abs_overflows", "product_overflows", "vanishing", "rate_past_the_range"])
def test_the_gates_block_coefficients_refuse_as_the_records_do(kwargs, error, refusal):
    p = CavityParams(**kwargs)
    with pytest.raises(error, match=refusal) as records:
        scatter_coeffs(p)
    with pytest.raises(error, match=refusal) as gate:
        cavity_block_coeffs(p)
    assert str(gate.value) == str(records.value)


@pytest.mark.parametrize("record, names", [(ScatterCoeffs, ("r", "t", "r0", "t0", "T")),
                                           (BlockCoeffs, ("D", "T"))],
                         ids=["ScatterCoeffs", "BlockCoeffs"])
def test_coefficient_records_are_immutable_values(record, names):
    values = {name: complex(k, 1) for k, name in enumerate(names)}
    rec = record(**values)
    assert [getattr(rec, name) for name in names] == list(values.values())
    assert rec == record(**values)
    assert rec != record(**{**values, names[-1]: 0j})
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0j)
    assert rec == record(**values)


def test_dephasing_penalty_value():
    penalty = dephasing_penalty(DephasingParams(tau=4.5e-9, t2=2.6e-6))
    assert abs(penalty - 0.0017292723134348406) < 1e-15
    assert 0.0015 <= penalty <= 0.002


def test_dephasing_penalty_monotone_in_tau():
    t2 = 2.6e-6
    penalties = [dephasing_penalty(DephasingParams(tau=tau, t2=t2))
                 for tau in (1e-9, 4.5e-9, 20e-9, 100e-9)]
    assert penalties == sorted(penalties)
