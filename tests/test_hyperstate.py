"""Sparse dual-DOF state container: packing, single-DOF ops, fidelity."""
import math
import re

import numpy as np
import pytest

from hypercnot import hyperstate
from hypercnot import (
    BasisLabel,
    HyperState,
    PhotonSpec,
    Pol,
    Spatial,
    Spin,
    ValidationError,
    fidelity,
    ideal_hyper_cnot_n,
    init_state,
    pack_label,
)

SQ2 = 1.0 / math.sqrt(2.0)


def _random_pair(rng):
    v = rng.standard_normal(4)
    c0, c1 = complex(v[0], v[1]), complex(v[2], v[3])
    n = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    return (c0 / n, c1 / n)


# a PhotonSpec's refusal of what is not a sequence of two entries
PAIR = " must be a pair of numbers"


class TestPhotonSpec:
    def test_basis_and_uniform(self):
        b = PhotonSpec.basis(Pol.L, Spatial.M1)
        assert b.pol == (0j, 1 + 0j)
        assert b.spatial == (1 + 0j, 0j)
        u = PhotonSpec.uniform()
        assert abs(u.pol[0] - SQ2) < 1e-15 and abs(u.spatial[1] - SQ2) < 1e-15

    def test_rejects_unnormalized_pol(self):
        with pytest.raises(ValidationError, match="pol"):
            PhotonSpec(pol=(0.7, 0.7), spatial=(1, 0))

    def test_rejects_unnormalized_spatial(self):
        with pytest.raises(ValidationError, match="spatial"):
            PhotonSpec(pol=(1, 0), spatial=(0.5, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan), 10**400],
                             ids=["nan", "inf", "nanj", "huge_int"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match=r"pol\[0\] must be finite"):
            PhotonSpec(pol=(bad, 1), spatial=(1, 0))
        with pytest.raises(ValidationError, match=r"spatial\[1\] must be finite"):
            PhotonSpec(pol=(1, 0), spatial=(1, bad))

    @pytest.mark.parametrize("bad, refusal", [
        ((1, 0, 7), PAIR), ("10", PAIR), (b"10", PAIR), ((1,), PAIR), (None, PAIR),
        ((True, False), r"\[0\] must be a number, got True"),
        ((np.bool_(True), 0), r"\[0\] must be a number, got "),
        ((1, "0"), r"\[1\] must be a number, got '0'"),
        (("1", 0), r"\[0\] must be a number, got '1'"),
        ({1, 0}, PAIR), (1.0, PAIR),
    ], ids=["three", "str", "bytes", "one", "none", "bools", "numpy_bool", "str_entry",
            "numeric_str_entry", "set", "scalar"])
    def test_rejects_what_is_not_a_pair_of_numbers(self, bad, refusal):
        with pytest.raises(ValidationError, match="pol" + refusal):
            PhotonSpec(pol=bad, spatial=(1, 0))
        with pytest.raises(ValidationError, match="spatial" + refusal):
            PhotonSpec(pol=(1, 0), spatial=bad)

    def test_accepts_lists_and_numpy_scalars(self):
        spec = PhotonSpec(pol=[np.float64(0.6), np.complex128(0.8j)],
                          spatial=[np.int64(1), 0])
        assert spec.pol == (0.6 + 0j, 0.8j) and spec.spatial == (1 + 0j, 0j)

    def test_accepts_complex_within_tolerance(self):
        PhotonSpec(pol=(complex(0.6, 0.0), complex(0.0, 0.8)),
                   spatial=(SQ2, -SQ2))

    @pytest.mark.parametrize("bad", [1e200, complex(1e200, 1e200), complex(1.7e308, 1.7e308)],
                             ids=["square_overflows", "complex_square_overflows",
                                  "magnitude_overflows"])
    def test_rejects_a_pair_whose_squares_overflow(self, bad):
        # each number is finite, but its squared magnitude is past the float range
        with pytest.raises(ValidationError, match=r"pol pair .* past the float range"):
            PhotonSpec(pol=(bad, 0), spatial=(1, 0))
        with pytest.raises(ValidationError, match=r"spatial pair .* past the float range"):
            PhotonSpec(pol=(1, 0), spatial=(0, bad))


class TestLabels:
    def test_pack_label_bit_layout(self):
        # photon 0 pol is the least significant bit, then spatial, then
        # photon 1's pair, then the two spins
        assert pack_label([1, 0], [0, 1]) == 0b1001
        assert pack_label([0, 0], [0, 0], (1, 1)) == 0b110000
        assert pack_label([1], [1], (0, 1)) == 0b1011

    def test_str_two_photons(self):
        label = BasisLabel(pack_label([0, 1], [0, 1], (0, 1)), 2)
        assert str(label) == "a:R,1 b:L,2 s1:up s2:down"

    def test_str_photon_names_beyond_two(self):
        label = BasisLabel(0, 3, has_spins=False)
        assert str(label) == "a:R,1 b1:R,1 b2:R,1"
        # every label of a 3-photon state with spins, against its bits
        for bits in range(4 ** 4):
            label = BasisLabel(bits, 3)
            photons = [f"{label.photon_name(i)}:{Pol((bits >> 2 * i) & 1).name},"
                       f"{((bits >> (2 * i + 1)) & 1) + 1}" for i in range(3)]
            spins = [f"s{s}:{Spin((bits >> (5 + s)) & 1).name.lower()}" for s in (1, 2)]
            assert str(label) == " ".join(photons + spins)

    def test_accessors(self):
        # photon i's pol bit is bit 2i, its spatial bit 2i + 1; the spins follow
        bits = BasisLabel(pack_label([1, 0], [0, 1], (1, 0)), 2).bits
        assert (bits >> 0) & 1 == Pol.L and (bits >> 2) & 1 == Pol.R
        assert (bits >> 1) & 1 == Spatial.M1 and (bits >> 3) & 1 == Spatial.M2
        assert (bits >> 4) & 1 == Spin.DOWN and (bits >> 5) & 1 == Spin.UP

    def test_pack_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            pack_label([0, 1], [0])

    @pytest.mark.parametrize("pol, spatial, spins, refusal", [
        ([1.7, 3], [True, 2], (), "pol_bits[0] must be an int >= 0"),
        ([1, 3], [0, 0], (), "pol_bits[1] must be <= 1"),
        ([1, 0], [True, 0], (), "spatial_bits[0] must be an int"),
        ([0], [np.float64(1.0)], (), "spatial_bits[0] must be an int"),
        ([0], [1], (0, -1), "spin_bits[1] must be an int >= 0"),
        ([0], [1], (np.bool_(True), 0), "spin_bits[0] must be an int"),
        ([1], [0], [1, 1, 1], "at most two spin bits, got 3"),
    ])
    def test_pack_label_refuses_what_is_not_a_bit(self, pol, spatial, spins, refusal):
        # int() would take each of these, and & 1 would make [1.7, 3], [True, 2] 7
        with pytest.raises(ValidationError, match=re.escape(refusal)):
            pack_label(pol, spatial, spins)

    def test_pack_label_accepts_numpy_ints_and_the_bit_enums(self):
        assert (pack_label([np.int64(1), Pol.L], [Spatial.M2, np.uint8(0)],
                           (Spin.DOWN, np.int32(1)))
                == pack_label([1, 1], [1, 0], (1, 1)) == 0b110111)


class TestInitState:
    def test_product_state_matches_direct_tensor(self):
        rng = np.random.default_rng(42)
        specs = [PhotonSpec(pol=_random_pair(rng), spatial=_random_pair(rng))
                 for _ in range(2)]
        state = init_state(specs, spins="up")
        for label, amp in state.amplitudes.items():
            want = 1.0 + 0j
            for i, spec in enumerate(specs):
                want *= spec.pol[(label >> (2 * i)) & 1]
                want *= spec.spatial[(label >> (2 * i + 1)) & 1]
            # spins "up" leaves the spin bits zero
            assert (label >> 4) == 0
            assert abs(amp - want) < 1e-15
        assert abs(state.norm_sq() - 1.0) < 1e-12

    def test_plus_spins_split_evenly(self):
        state = init_state([PhotonSpec.basis(Pol.R, Spatial.M1)], spins="plus")
        assert len(state.amplitudes) == 4
        for amp in state.amplitudes.values():
            assert abs(amp - 0.5) < 1e-15

    def test_validation(self):
        with pytest.raises(ValidationError):
            init_state([], spins="plus")
        with pytest.raises(ValidationError):
            init_state([PhotonSpec.uniform()], spins="sideways")
        with pytest.raises(ValidationError):
            init_state(["L,a2"])  # strings are a CLI notion, not a state one

    @pytest.mark.parametrize("photons", [
        lambda: (PhotonSpec.uniform() for _ in range(2)),
        lambda: iter([PhotonSpec.uniform()] * 2),
    ], ids=["generator", "iterator"])
    def test_refuses_photons_without_a_length(self, photons):
        with pytest.raises(ValidationError, match="photons must be a sequence of PhotonSpec"):
            init_state(photons())

    def test_refused_past_the_amplitude_limit(self, monkeypatch):
        # the documented limit admits CNOT^8 with every photon in superposition
        assert hyperstate.MAX_AMPLITUDES == 4 ** (8 + 2)
        monkeypatch.setattr(hyperstate, "MAX_AMPLITUDES", 4 ** 4)
        u = PhotonSpec.uniform()
        basis = PhotonSpec.basis(Pol.L, Spatial.M2)
        half = PhotonSpec(pol=(1, 0), spatial=(SQ2, SQ2))
        # one rule for the input and the truth-rule state: four amplitudes per
        # photon label (the spin values, or the gate's four branches),
        # checked when the amplitudes are first read
        for build, per_label in (
                (init_state, 4),
                (lambda photons: ideal_hyper_cnot_n(photons[0], photons[1:]), 1)):
            assert len(build([u] * 3).amplitudes) == per_label * 4 ** 3
            assert len(build([u] * 3 + [basis] * 5).amplitudes) == per_label * 4 ** 3
            with pytest.raises(ValidationError,
                               match="need 512 amplitudes, more than MAX_AMPLITUDES = 256"):
                build([u] * 3 + [half]).amplitudes


class TestSingleDofOps:
    def test_spin_hadamard_involution(self):
        rng = np.random.default_rng(7)
        state = HyperState(1, {label: complex(*rng.standard_normal(2))
                               for label in range(16)})
        before = dict(state.amplitudes)
        state.spin_hadamard(1).spin_hadamard(1)
        assert set(state.amplitudes) == set(before)
        for label, amp in before.items():
            assert abs(state.amplitudes[label] - amp) < 1e-15

    def test_hadamard_prunes_exact_cancellation(self):
        down1 = pack_label([0], [0], (1, 0))
        state = HyperState(1, {0: SQ2, down1: SQ2})
        state.spin_hadamard(1)
        # (up+down)/sqrt2 maps exactly onto up; the down amplitude cancels to 0.0
        assert list(state.amplitudes) == [0]

    def test_spin_hadamard_maps_plus_to_up(self):
        state = init_state([PhotonSpec.basis(Pol.R, Spatial.M1)], spins="plus")
        state.spin_hadamard(1).spin_hadamard(2)
        assert list(state.amplitudes) == [0]
        assert abs(state.amplitudes[0] - 1.0) < 1e-15

    def test_index_validation(self):
        state = init_state([PhotonSpec.uniform()])
        with pytest.raises(ValidationError):
            state.spin_hadamard(0)
        with pytest.raises(ValidationError):
            state.spin_hadamard(3)
        for which_spin in (1.0, True):
            with pytest.raises(ValidationError, match="the spin id must be an int >= 1, got "):
                state.spin_hadamard(which_spin)
        with pytest.raises(ValidationError, match="no spins"):
            HyperState(1, {0: 1.0 + 0j}, has_spins=False).spin_hadamard(1)


class TestSinksAndBookkeeping:
    def test_equality(self):
        a = init_state([PhotonSpec.uniform()])
        b = init_state([PhotonSpec.uniform()])
        assert a == b
        b.spin_hadamard(1)
        assert a != b


class TestFidelity:
    def test_identical_states(self):
        s = HyperState(1, {0: SQ2, 3: SQ2}, has_spins=False)
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        a = HyperState(1, {0: 1.0 + 0j}, has_spins=False)
        b = HyperState(1, {3: 1.0 + 0j}, has_spins=False)
        assert fidelity(a, b) == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(11)
        amps = {i: complex(*rng.standard_normal(2)) for i in range(4)}
        a = HyperState(1, amps, has_spins=False)
        phase = complex(math.cos(0.7), math.sin(0.7))
        b = HyperState(1, {l: phase * v for l, v in amps.items()}, has_spins=False)
        assert fidelity(a, b) == pytest.approx(1.0)

    def test_norms_divided_out(self):
        a = HyperState(1, {0: 0.5 + 0j}, has_spins=False)
        b = HyperState(1, {0: 2.0 + 0j}, has_spins=False)
        assert fidelity(a, b) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        a = HyperState(1, {0: 1.0 + 0j}, has_spins=False)
        b = HyperState(2, {0: 1.0 + 0j}, has_spins=False)
        with pytest.raises(ValidationError):
            fidelity(a, b)

    def test_zero_norm_rejected(self):
        a = HyperState(1, {0: 1.0 + 0j}, has_spins=False)
        with pytest.raises(ValidationError):
            fidelity(a, HyperState(1, {}, has_spins=False))


def test_overlap_does_not_depend_on_the_memory_layout():
    # numpy adds a contiguous run of complex numbers pairwise and a strided
    # one in order: the overlaps fix their own order, so C- and F-ordered
    # copies of the same factors give the same bits
    rng = np.random.default_rng(17)

    def factors(*lead):
        coef = rng.standard_normal(lead + (4,)) + 1j * rng.standard_normal(lead + (4,))
        vectors = (rng.standard_normal(lead + (5, 4))
                   + 1j * rng.standard_normal(lead + (5, 4)))
        return coef, vectors

    def layouts(f):
        return [tuple(np.array(a, order=order) for a in f) for order in "CF"]

    for lead in ((), (3,)):
        a, b = factors(*lead), factors(*lead)
        (ac, af), (bc, bf) = layouts(a), layouts(b)
        assert af[1].flags.f_contiguous and not af[1].flags.c_contiguous
        c_order = hyperstate.product_overlap(ac, bc)
        for pair in ((af, bf), (ac, bf), (af, bc)):
            assert np.array_equal(hyperstate.product_overlap(*pair), c_order)
    a, b = factors(), factors()
    (ac, af), (bc, bf) = layouts(a), layouts(b)
    c_order = fidelity(hyperstate.FactoredState(*ac, "a"), hyperstate.FactoredState(*bc, "b"))
    assert fidelity(hyperstate.FactoredState(*af, "a"),
                    hyperstate.FactoredState(*bf, "b")) == c_order


def test_norm_sq_insensitive_to_insertion_order():
    rng = np.random.default_rng(5)
    amps = {i: complex(*rng.standard_normal(2)) * 1e-8 ** (i % 3)
            for i in range(64)}
    forward = HyperState(2, dict(sorted(amps.items())))
    backward = HyperState(2, dict(sorted(amps.items(), reverse=True)))
    assert forward.norm_sq() == backward.norm_sq()
