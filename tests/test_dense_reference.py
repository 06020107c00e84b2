"""An independent dense reference for hyper_cnot_n: the whole optical train
replayed on one full state vector of photons and spins, for N <= 3 targets.

The vector is indexed by the packed label (photon 0's polarization bit least
significant, the two spin bits on top). Each Hadamard is a Kronecker product
of 2x2 matrices over every bit, each routing stage a diagonal factor with its
mirror and block masses read off the vector, and the spin measurement
projects onto each spin record and applies the feed-forward by hand. Nothing
here uses the library's engine, so it pins what no closed form checks yet:
the unbalanced-mirror branches.
"""
import math

import numpy as np
import pytest

from hypercnot import (
    AmplitudeLostError,
    BlockCoeffs,
    CavityParams,
    GateConfig,
    PhotonSpec,
    Pol,
    Spatial,
    Spin,
    block_coeffs,
    hyper_cnot_n,
    ideal_hyper_cnot_n,
    random_photon_spec,
    scatter_coeffs,
)
from hypercnot.gates import factored_run
from hypercnot.hyperstate import photon_vectors, photon_weights
from hypercnot.scattering import ratio_coeffs

TOL = 1e-12
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

# Off resonance, so T, D and the mirror are genuinely complex.
PARAMS = CavityParams.from_ratios(2.0, 0.2, 0.15, detuning_c=0.3, detuning_x=-0.2)


def _on_bit(gate, bit, n_bits):
    """Operator applying the 2x2 ``gate`` to one bit of the register."""
    op = np.eye(1)
    for b in reversed(range(n_bits)):  # most significant bit first
        op = np.kron(op, gate if b == bit else np.eye(2))
    return op


def _bit(index, bit):
    return (index >> bit) & 1


def _replay(photons, bc, scale):
    """Success probability, stage masses and the four (probability,
    corrected photon amplitudes) of the gate whose mirrors transmit scale
    times T (T itself when None), from the full state vector."""
    n_photons = len(photons)
    n_bits = 2 * n_photons + 2
    spin1, spin2 = 2 * n_photons, 2 * n_photons + 1
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    psi = np.kron(plus, plus)                   # spin 2, spin 1
    for spec in reversed(photons):              # photon 0 least significant
        psi = np.kron(psi, np.kron(spec.spatial, spec.pol))
    labels = np.arange(psi.size)
    t_mirror = bc.T if scale is None else scale * bc.T
    d2, t2 = abs(bc.D) ** 2, abs(bc.T) ** 2
    stages = []

    def stage(branch_bit, spin_bit):
        nonlocal psi
        block = np.array([_bit(l, branch_bit) for l in labels], dtype=bool)
        down = np.array([_bit(l, spin_bit) for l in labels], dtype=bool)
        mirror_mass = float(np.sum(np.abs(psi[~block]) ** 2))
        block_mass = float(np.sum(np.abs(psi[block]) ** 2))
        stages.append((d2 * block_mass,
                       (1.0 - abs(t_mirror) ** 2) * mirror_mass
                       + (1.0 - d2 - t2) * block_mass))
        factor = np.where(block, np.where(down, -bc.T, bc.T), t_mirror)
        psi = factor * psi

    def hadamard(bit):
        nonlocal psi
        psi = _on_bit(HADAMARD, bit, n_bits) @ psi

    stage(0, spin1)
    stage(1, spin2)
    hadamard(spin1)
    hadamard(spin2)
    for i in range(1, n_photons):
        hadamard(2 * i)
        hadamard(2 * i + 1)
        stage(2 * i, spin1)
        stage(2 * i + 1, spin2)
        hadamard(2 * i)
        hadamard(2 * i + 1)
    hadamard(spin1)
    hadamard(spin2)

    branches = []
    n_photon_labels = 4 ** n_photons
    for down1 in (0, 1):
        for down2 in (0, 1):
            spins = (down1 << spin1) | (down2 << spin2)
            amps = psi[spins:spins + n_photon_labels].copy()
            prob = float(np.sum(np.abs(amps) ** 2))
            if prob > 0.0:
                amps /= math.sqrt(prob)
            for label in range(n_photon_labels):
                # spin 1 down: negate photon a's L; spin 2 down: its mode 2
                if (down1 and _bit(label, 0)) != (down2 and _bit(label, 1)):
                    amps[label] = -amps[label]
            branches.append(((Spin(down1), Spin(down2)), prob, amps))
    return float(np.sum(np.abs(psi) ** 2)), stages, branches


# Inputs are normalized only to NORM_TOL; random ones are left 6e-10 off in
# squared norm, so a photon's own norm entering a stage mass the wrong number
# of times shows.
OFF_NORM = math.sqrt(1.0 + 6e-10)


def _photons(inputs, n, rng):
    if inputs == "basis":
        return [PhotonSpec.basis(Pol(int(p)), Spatial(int(m)))
                for p, m in rng.integers(0, 2, size=(n + 1, 2))]
    specs = [random_photon_spec(rng) for _ in range(n + 1)]
    return [PhotonSpec(pol=[c * OFF_NORM for c in s.pol],
                       spatial=[c * OFF_NORM for c in s.spatial]) for s in specs]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mirror", ["balanced", "complex_unbalanced"])
@pytest.mark.parametrize("inputs", ["random", "basis"])
def test_gate_matches_the_dense_replay(n, mirror, inputs):
    rng = np.random.default_rng([n, len(mirror), len(inputs)])
    bc = block_coeffs(scatter_coeffs(PARAMS))
    scale = None if mirror == "balanced" else 0.8 * complex(math.cos(0.4), math.sin(0.4))
    for _ in range(3):
        photons = _photons(inputs, n, rng)
        cfg = GateConfig(params=PARAMS, n_targets=n, mirror_scale=scale)
        out = hyper_cnot_n(photons[0], photons[1:], cfg)
        success, stages, ref_branches = _replay(photons, bc, scale)

        assert abs(out.success_prob - success) <= TOL
        assert len(out.stages) == len(stages)
        for got, want in zip(out.stages, stages):
            assert abs(got[0] - want[0]) <= TOL and abs(got[1] - want[1]) <= TOL

        # branch order, zero-probability branches left out, the correction
        # flags, absolute probabilities and corrected amplitudes
        kept = [b for b in ref_branches if b[1] > TOL]
        assert [b.spin_record for b in out.branches] == [b[0] for b in kept]
        for branch, (record, prob, amps) in zip(out.branches, kept):
            assert branch.corrections == (record[0] is Spin.DOWN,
                                          record[1] is Spin.DOWN)
            assert abs(branch.probability - prob) <= TOL
            assert branch.state.has_spins is False
            assert set(branch.state.amplitudes) <= set(range(amps.size))
            for label, want in enumerate(amps):
                assert abs(branch.state.amplitudes.get(label, 0.0) - want) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mirror", ["balanced", "complex_unbalanced"])
@pytest.mark.parametrize("shared", [True, False], ids=["x_per_batch", "x_per_point"])
def test_a_batch_of_points_matches_the_dense_replay(n, mirror, shared):
    # one factored_run over several cavity points, with the photons shared by the
    # batch (x of shape (P, 4), as a sweep passes them) or drawn per point
    # ((B, P, 4), as a scan does), against the replay of each point alone
    rng = np.random.default_rng([n, len(mirror), shared])
    points = 3
    coeffs, ok = ratio_coeffs(rng.uniform(0.5, 4.0, points), rng.uniform(0.0, 0.5, points),
                              0.15, 0.3, -0.2)
    assert ok.all()
    bc = block_coeffs(coeffs)
    scale = None if mirror == "balanced" else 0.8 * complex(math.cos(0.4), math.sin(0.4))
    photons = [_photons("random", n, rng) for _ in range(1 if shared else points)]
    x = np.stack([photon_vectors(p) for p in photons])
    x = x[0] if shared else x
    run = factored_run(bc, scale, photon_weights(x))
    fids = run.truth_fidelity()
    assert run.success.shape == fids.shape == (points,)
    assert run.clicks.shape == run.absorbed.shape == (points, n + 1, 2)
    for b in range(points):
        point = BlockCoeffs(D=bc.D[b], T=bc.T[b])
        success, stages, ref_branches = _replay(photons[0 if shared else b], point, scale)
        assert abs(run.success[b] - success) <= TOL
        # the weight form of the fidelity against the replay's corrected state
        truth = ideal_hyper_cnot_n(photons[0 if shared else b][0], photons[0 if shared else b][1:])
        overlap = sum(np.conj(truth.amplitudes.get(label, 0.0)) * amp
                      for label, amp in enumerate(ref_branches[0][2]))
        assert abs(fids[b] - abs(overlap) ** 2 / truth.norm_sq()) <= TOL
        got = zip(run.clicks[b].ravel(), run.absorbed[b].ravel())
        for (click, absorbed), want in zip(got, stages, strict=True):
            assert abs(click - want[0]) <= TOL and abs(absorbed - want[1]) <= TOL


def test_nothing_survives_a_dead_mirror():
    # R,1 never reaches a block, so a zero-transmission mirror leaves every
    # spin record with probability zero: all of them are left out
    bc = block_coeffs(scatter_coeffs(PARAMS))
    photons = [PhotonSpec.basis(Pol.R, Spatial.M1)] * 2
    success, _, ref_branches = _replay(photons, bc, 0.0)
    assert success == 0.0 and all(prob == 0.0 for _, prob, _ in ref_branches)
    with pytest.raises(AmplitudeLostError, match="all amplitude lost"):
        hyper_cnot_n(photons[0], photons[1:],
                     GateConfig(params=PARAMS, mirror_scale=0.0))
