"""Optical elements and the two per-photon routing stages of the gate.

The gate hardware routes each photon, one at a time, through two stages. In
each, one branch crosses a balancing mirror and the other a basic block:

  polarization stage   R branch crosses a partially transmitting mirror;
                       the L branch is bit-flipped onto R, crosses the first
                       basic block (spin 1), and comes back out as L.

  spatial stage        mode-1 branch crosses a mirror; the mode-2 branch
                       crosses the second basic block (spin 2) with flip
                       plates arranged so net polarization is preserved.

A basic block acts on an incoming R photon as an effective two-outcome map:
with amplitude D the photon reflects unchanged into a heralding detector
(failure), with amplitude T it transmits with polarization flipped and a Z
applied to the block's spin. Whatever the two amplitudes leave behind is
absorbed. The library applies that map only inside a stage, in the closed
form below; the tests check each stage against the map composed with its
flip plates on every basis label.

An element keeps no record of the mass it removes from the amplitudes: it
returns it. Each stage returns its (click, absorbed) pair, and the gate keeps
those pairs as its one record of where the probability went.

Because the flip plates undo the block's own polarization flip, a stage moves
no basis label: it multiplies the mirror branch by the mirror transmission
and the block branch by T, negated when the block's spin is down. A mirror
is given as ``mirror_scale`` times the block's T (None: T itself, a balanced
mirror). ``check_mirror_scale`` refuses a scale that is not a finite number
and returns it as a Python float or complex, ``check_stage`` forms the
mirror and refuses one with gain or a block that is not passive, and
``stage_losses`` turns a stage's mirror and block mass into its (click,
absorbed) pair. ``stage_polarization`` and ``stage_spatial`` check once,
apply a stage in one pass over a sparse state and return the masses it
removed; the gate engine in ``gates`` uses the same functions on factored
photons.
"""
from __future__ import annotations

import math

from .errors import ValidationError, check_number, refuse_where
from .hyperstate import HyperState
from .scattering import BlockCoeffs, clip_unit


def check_mirror_scale(scale) -> float | complex | None:
    """A mirror scale: None (balanced), or ``errors.check_number``'s Python
    float or complex, so that a numpy scalar cannot set the precision of a
    stage."""
    return None if scale is None else check_number(scale, "mirror_scale")


def check_stage(bc: BlockCoeffs, mirror_scale=None):
    """The mirror's transmission, |D|^2 and |T|^2 of a routing stage,
    refusing a mirror with gain (named by its scale) or a block that is not
    passive. The mirror transmits mirror_scale times the block's T, or the
    block's T itself when the scale is None (a balanced mirror, scale 1).
    Elementwise when bc's fields and the scale are arrays of one shape."""
    t_mirror = bc.T if mirror_scale is None else mirror_scale * bc.T
    refuse_where(abs(t_mirror) > 1.0 + 1e-12, 1 if mirror_scale is None else mirror_scale,
                 ValidationError,
                 "mirror transmission |mirror_scale * T| exceeds 1 at mirror_scale {}")
    d2 = abs(bc.D) ** 2
    t2 = abs(bc.T) ** 2
    total = d2 + t2
    refuse_where(total > 1.0 + 1e-9, total, ValidationError,
                 "block coefficients violate |D|^2+|T|^2<=1 ({})")
    return t_mirror, d2, t2


def stage_losses(mirror_mass, block_mass, t_mirror, d2, t2):
    """(click, absorbed) of a stage whose mirror branch carried mirror_mass
    and whose block branch carried block_mass, from the figures of
    ``check_stage``: the block branch's mass times |D|^2 clicks; the rest of
    both branches' loss is absorbed. Elementwise on arrays, the figures
    broadcasting against the masses' trailing axes."""
    return d2 * block_mass, (clip_unit(1.0 - abs(t_mirror) ** 2) * mirror_mass
                             + clip_unit(1.0 - d2 - t2) * block_mass)


def _route(state: HyperState, branch_mask: int, which_spin: int,
           bc: BlockCoeffs, mirror_scale: complex | None) -> tuple[float, float]:
    """Net map of one routing stage, applied in place in one pass over the
    amplitudes once the scale is checked: an amplitude with the branch_mask
    bit set crosses the block (x T, negated when the block's spin is down),
    one with it clear the mirror (x mirror_scale * T; T when None). No label
    moves; amplitudes that become exactly zero are dropped. Returns the
    stage's (click, absorbed) masses.
    """
    t_mirror, d2, t2 = check_stage(bc, check_mirror_scale(mirror_scale))
    t_up, t_down = bc.T, -bc.T
    zm = state._spin_bit_mask(which_spin)
    amps = state.amplitudes
    mirror_mass: list[float] = []
    block_mass: list[float] = []
    zeros: list[int] = []
    for label, amp in amps.items():
        if label & branch_mask:
            block_mass.append(abs(amp) ** 2)
            amp = (t_down if label & zm else t_up) * amp
        else:
            mirror_mass.append(abs(amp) ** 2)
            amp = amp * t_mirror
        amps[label] = amp  # replacing a value keeps the dict iteration valid
        if not amp:
            zeros.append(label)
    for label in zeros:
        del amps[label]
    return stage_losses(math.fsum(mirror_mass), math.fsum(block_mass), t_mirror, d2, t2)


def stage_polarization(state: HyperState, photon: int, bc: BlockCoeffs,
                       mirror_scale: complex | None = None) -> tuple[float, float]:
    """First routing stage: R crosses a mirror; L is flipped onto R, crosses
    the block coupled to spin 1 and leaves as L. Net: R branch x
    mirror_scale * T (None: T); L branch x T with a Z on spin 1. Returns the
    mass the stage sent to detector B1 and the mass it absorbed."""
    return _route(state, state._photon_mask(photon, spatial=False), 1, bc, mirror_scale)


def stage_spatial(state: HyperState, photon: int, bc: BlockCoeffs,
                  mirror_scale: complex | None = None) -> tuple[float, float]:
    """Second routing stage: mode 1 crosses a mirror; mode 2 crosses the
    block coupled to spin 2, with flip plates keeping its polarization. Net:
    mode-1 branch x mirror_scale * T (None: T); mode-2 branch x T with a Z
    on spin 2. Returns the mass the stage sent to detector B2 and the mass
    it absorbed."""
    return _route(state, state._photon_mask(photon, spatial=True), 2, bc, mirror_scale)
