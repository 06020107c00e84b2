"""Optical elements: mirrors, stages, and the stages against the basic-block map."""
import math

import numpy as np
import pytest

from hypercnot import (
    BlockCoeffs,
    CavityParams,
    HyperState,
    PhotonSpec,
    ValidationError,
    block_coeffs,
    init_state,
    pack_label,
    scatter_coeffs,
    stage_polarization,
    stage_spatial,
)
from hypercnot.gates import factored_run
from hypercnot.hyperstate import photon_vectors, pol_mask, spatial_mask, spin_mask


def _random_pair(rng):
    v = rng.standard_normal(4)
    c0, c1 = complex(v[0], v[1]), complex(v[2], v[3])
    n = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    return (c0 / n, c1 / n)


def _random_state(rng, n_photons=1, spins="plus"):
    specs = [PhotonSpec(pol=_random_pair(rng), spatial=_random_pair(rng))
             for _ in range(n_photons)]
    return init_state(specs, spins=spins)


class TestMirror:
    """The balancing mirror, seen through a stage on a photon whose whole
    state takes the mirror branch."""

    def test_uniform_attenuation(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        rng = np.random.default_rng(0)
        state = init_state([PhotonSpec(pol=_random_pair(rng), spatial=(1, 0))])
        before = dict(state.amplitudes)
        click, absorbed = stage_spatial(state, 0, bc)  # every amplitude is in mode 1
        for label, amp in before.items():
            assert abs(state.amplitudes[label] - bc.T * amp) < 1e-15
        assert absorbed == pytest.approx(1.0 - abs(bc.T) ** 2, abs=1e-12)
        assert click == 0.0
        assert state.norm_sq() + click + absorbed == pytest.approx(1.0, abs=1e-12)

    def test_gain_rejected(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        state = _random_state(np.random.default_rng(2))
        before = dict(state.amplitudes)
        with pytest.raises(ValidationError, match=r"exceeds 1 at mirror_scale 1\.5$"):
            stage_polarization(state, 0, bc, mirror_scale=1.5)
        assert state.amplitudes == before

    def test_a_balanced_mirror_on_a_block_with_gain_is_refused(self):
        # a hand-built block with |T| just above 1 is passive within its own
        # tolerance, but its balanced mirror (scale 1) has gain
        bc = BlockCoeffs(D=0.0, T=1 + 1e-10)
        state = _random_state(np.random.default_rng(4))
        before = dict(state.amplitudes)
        with pytest.raises(ValidationError, match=r"exceeds 1 at mirror_scale 1$"):
            stage_spatial(state, 0, bc)
        assert state.amplitudes == before
        with pytest.raises(ValidationError, match=r"exceeds 1 at mirror_scale 1$"):
            factored_run(bc, None, photon_vectors([PhotonSpec.uniform()] * 2))

    def test_complex_transmission(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        rng = np.random.default_rng(3)
        state = init_state([PhotonSpec(pol=(1, 0), spatial=_random_pair(rng))])
        before = dict(state.amplitudes)
        scale = complex(0.6, 0.3)
        t = scale * bc.T
        _, absorbed = stage_polarization(state, 0, bc, mirror_scale=scale)  # every amplitude is R
        for label, amp in before.items():
            assert abs(state.amplitudes[label] - amp * t) < 1e-15
        assert absorbed == pytest.approx(1.0 - abs(t) ** 2, abs=1e-12)


class TestBlockInteract:
    """The basic block, seen through a stage on a photon whose whole state
    takes the block branch."""

    def test_transmission_flips_pol_and_kicks_spin(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        # photon L, spin 1 in (up+down)/sqrt2, spin 2 up: the stage's plate
        # flips L onto R, and the block transmits R as L
        amps = {pack_label([1], [0], (0, 0)): complex(math.sqrt(0.5)),
                pack_label([1], [0], (1, 0)): complex(math.sqrt(0.5))}
        state = HyperState(1, amps)
        click, absorbed = stage_polarization(state, 0, bc)
        up_label = pack_label([1], [0], (0, 0))
        down_label = pack_label([1], [0], (1, 0))
        assert state.amplitudes.keys() == {up_label, down_label}
        assert abs(state.amplitudes[up_label] - bc.T * math.sqrt(0.5)) < 1e-15
        assert abs(state.amplitudes[down_label] + bc.T * math.sqrt(0.5)) < 1e-15
        assert click == pytest.approx(abs(bc.D) ** 2, abs=1e-12)
        assert absorbed == pytest.approx(
            1.0 - abs(bc.D) ** 2 - abs(bc.T) ** 2, abs=1e-12)
        assert state.norm_sq() + click + absorbed == pytest.approx(1.0, abs=1e-12)

    def test_unphysical_coefficients_rejected(self):
        # |T| = 0.8 keeps the balanced mirror passive; |D|^2 + |T|^2 = 1.28 is not
        state = HyperState(1, {pack_label([1], [0], (0, 0)): 1.0 + 0j})
        before = dict(state.amplitudes)
        with pytest.raises(ValidationError,
                           match=r"block coefficients violate \|D\|\^2\+\|T\|\^2<=1 \(1.28"):
            stage_polarization(state, 0, BlockCoeffs(D=0.8, T=0.8))
        assert state.amplitudes == before

    def test_second_spin_conditions_the_kick(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        label = pack_label([0], [1], (1, 0))  # mode 2, spin1 down, spin2 up
        state = HyperState(1, {label: 1.0 + 0j})
        stage_spatial(state, 0, bc)
        assert state.amplitudes.keys() == {label}
        assert abs(state.amplitudes[label] - bc.T) < 1e-15  # spin 2 is up: no sign


class TestStages:
    def test_polarization_stage_amplitude_law(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        rng = np.random.default_rng(6)
        state = _random_state(rng)
        before = dict(state.amplitudes)
        click, absorbed = stage_polarization(state, 0, bc)
        pm = pol_mask(0)
        s1 = spin_mask(1, 1)
        l_norm = math.fsum(abs(a) ** 2 for l, a in before.items() if l & pm)
        for label, amp in before.items():
            if label & pm:  # L: block transit, Z on spin 1, stays L
                want = bc.T * amp * (-1 if label & s1 else 1)
            else:           # R: balancing mirror
                want = bc.T * amp
            assert abs(state.amplitudes[label] - want) < 1e-14
        assert click == pytest.approx(abs(bc.D) ** 2 * l_norm, abs=1e-12)
        assert state.norm_sq() + click + absorbed == pytest.approx(1.0, abs=1e-12)

    def test_spatial_stage_amplitude_law(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        state = _random_state(np.random.default_rng(7))
        before = dict(state.amplitudes)
        click, absorbed = stage_spatial(state, 0, bc)
        sm = 1 << 1
        s2 = spin_mask(1, 2)
        m2_norm = math.fsum(abs(a) ** 2 for l, a in before.items() if l & sm)
        for label, amp in before.items():
            if label & sm:  # mode 2: block transit, Z on spin 2, pol preserved
                want = bc.T * amp * (-1 if label & s2 else 1)
            else:           # mode 1: balancing mirror
                want = bc.T * amp
            assert abs(state.amplitudes[label] - want) < 1e-14
        assert click == pytest.approx(abs(bc.D) ** 2 * m2_norm, abs=1e-12)
        assert state.norm_sq() + click + absorbed == pytest.approx(1.0, abs=1e-12)

    def test_mirror_override_changes_only_the_mirror_branch(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        state = _random_state(np.random.default_rng(8))
        before = dict(state.amplitudes)
        scale = 0.5
        stage_polarization(state, 0, bc, mirror_scale=scale)
        pm = pol_mask(0)
        s1 = spin_mask(1, 1)
        for label, amp in before.items():
            if label & pm:
                want = bc.T * amp * (-1 if label & s1 else 1)
            else:
                want = scale * bc.T * amp
            assert abs(state.amplitudes[label] - want) < 1e-14

    def test_stage_on_second_photon_leaves_first_alone(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        state = _random_state(np.random.default_rng(9), n_photons=2)
        before = dict(state.amplitudes)
        stage_polarization(state, 1, bc)
        pm = pol_mask(1)
        s1 = spin_mask(2, 1)
        for label, amp in before.items():
            if label & pm:
                want = bc.T * amp * (-1 if label & s1 else 1)
            else:
                want = bc.T * amp
            assert abs(state.amplitudes[label] - want) < 1e-14

    def test_a_dark_mirror_drops_its_branch(self, bench_params):
        bc = block_coeffs(scatter_coeffs(bench_params))
        state = _random_state(np.random.default_rng(11), n_photons=2)
        before = dict(state.amplitudes)
        assert len(before) == 64
        click, absorbed = stage_polarization(state, 0, bc, mirror_scale=0.0)
        pm = pol_mask(0)
        # the R branch's amplitudes become exactly zero and leave the state
        assert sorted(state.amplitudes) == sorted(l for l in before if l & pm)
        assert len(state.amplitudes) == 32
        r_norm = math.fsum(abs(a) ** 2 for l, a in before.items() if not l & pm)
        l_norm = 1.0 - r_norm
        d2, t2 = abs(bc.D) ** 2, abs(bc.T) ** 2
        assert click == pytest.approx(d2 * l_norm, abs=1e-12)
        assert absorbed == pytest.approx(r_norm + (1.0 - d2 - t2) * l_norm, abs=1e-12)

    @pytest.mark.parametrize("photon", [2, -1, 0.0, True])
    def test_invalid_photon_index_rejected(self, bench_params, photon):
        bc = block_coeffs(scatter_coeffs(bench_params))
        state = _random_state(np.random.default_rng(12), n_photons=2)
        with pytest.raises(ValidationError, match=f"the photon index must be .*, got {photon}"):
            stage_spatial(state, photon, bc)

    def test_conservation_off_resonance(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            params = CavityParams.from_ratios(
                rng.uniform(0.2, 5.0), rng.uniform(0.0, 1.0),
                rng.uniform(0.05, 0.2), rng.uniform(-1, 1), rng.uniform(-1, 1))
            bc = block_coeffs(scatter_coeffs(params))
            state = _random_state(rng)
            removed = [*stage_polarization(state, 0, bc), *stage_spatial(state, 0, bc)]
            assert math.fsum([state.norm_sq(), *removed]) == pytest.approx(1.0, abs=1e-12)


def _flip(amps, mask):
    """A flip plate: the photon's polarization bit flipped on every label."""
    return {label ^ mask: amp for label, amp in amps.items()}


def _block(amps, pm, zm, bc):
    """The basic block on a branch whose photon is R (pol bit pm clear): it
    transmits with amplitude T as L, with a Z on the spin bit zm; |D|^2 of
    the mass clicks and the rest of the loss is absorbed. Returns the state
    and its (click, absorbed) masses."""
    assert not any(label & pm for label in amps)
    mass = math.fsum(abs(a) ** 2 for a in amps.values())
    d2, t2 = abs(bc.D) ** 2, abs(bc.T) ** 2
    out = {label | pm: (-bc.T if label & zm else bc.T) * amp for label, amp in amps.items()}
    return out, (d2 * mass, (1.0 - d2 - t2) * mass)


class TestStagesAgainstElements:
    """Each stage equals its optical elements composed on one basis label:
    the mirror on one branch, flip plates around the basic block on the
    other."""

    # Off resonance, so D, T and the products below are genuinely complex.
    PARAMS = CavityParams.from_ratios(3.0, 0.1, 0.1, detuning_c=0.3, detuning_x=-0.2)
    AMP = complex(0.6, -0.8)

    def _reference(self, label, n_photons, photon, spatial, bc, scale):
        """The reference amplitudes and their (click, absorbed) masses."""
        branch = spatial_mask(photon) if spatial else pol_mask(photon)
        if not label & branch:  # mirror
            t = bc.T if scale is None else scale * bc.T
            return {label: self.AMP * t}, (0.0, (1.0 - abs(t) ** 2) * abs(self.AMP) ** 2)
        pm = pol_mask(photon)
        zm = spin_mask(n_photons, 2 if spatial else 1)
        if label & pm:  # L enters flipped onto R, leaves as L
            return _block(_flip({label: self.AMP}, pm), pm, zm, bc)
        ref, masses = _block({label: self.AMP}, pm, zm, bc)
        return _flip(ref, pm), masses  # R leaves as L and is flipped back

    @pytest.mark.parametrize("n_photons, photon", [(1, 0), (2, 0), (2, 1)])
    @pytest.mark.parametrize("scale", [None, complex(0.5, -0.4)],
                             ids=["balanced", "complex_mirror"])
    @pytest.mark.parametrize("spatial", [False, True], ids=["pol_stage", "spatial_stage"])
    def test_every_basis_label(self, n_photons, photon, scale, spatial):
        bc = block_coeffs(scatter_coeffs(self.PARAMS))
        stage = stage_spatial if spatial else stage_polarization
        for label in range(1 << (2 * n_photons + 2)):
            state = HyperState(n_photons, {label: self.AMP})
            masses = stage(state, photon, bc, scale)
            ref, ref_masses = self._reference(label, n_photons, photon, spatial, bc, scale)
            assert state.amplitudes.keys() == ref.keys()
            for key, amp in ref.items():
                assert abs(state.amplitudes[key] - amp) <= 1e-15
            for mass, ref_mass in zip(masses, ref_masses):
                assert abs(mass - ref_mass) <= 1e-15

