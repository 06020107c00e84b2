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
mirror, refuses one with gain or a block that is not passive, and returns
the stage's four figures (the mirror's transmission and the squared
magnitudes of it, D and T, each taken once), and ``branch_fractions``
splits a unit of each branch's mass into what clicks, what is absorbed and
what is kept, from the last three. ``stage_polarization`` and
``stage_spatial`` check once, apply a stage in one pass over a sparse state
and return the (click, absorbed) masses it removed, its mirror and block
masses split by those fractions; the gate kernel in ``gates`` checks with
``check_stage`` and builds its whole ledger from the same
``branch_fractions``, so the split is written once.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, check_number, refuse_where
from .hyperstate import HyperState
from .scattering import BlockCoeffs, clip_unit


def check_mirror_scale(scale) -> float | complex | None:
    """A mirror scale: None (balanced), or ``errors.check_number``'s Python
    float or complex, so that a numpy scalar cannot set the precision of a
    stage."""
    return None if scale is None else check_number(scale, "mirror_scale")


def check_stage(bc: BlockCoeffs, mirror_scale=None):
    """The four figures of a routing stage: the mirror's transmission
    t_mirror, |t_mirror|^2, |D|^2 and |T|^2. The mirror transmits
    mirror_scale times the block's T, or the block's T itself when the
    scale is None (a balanced mirror, scale 1, whose |t_mirror|^2 is the
    |T|^2 taken for the block). |T| is taken once. Refuses a mirror with
    gain (named by its scale) before a block that is not passive.
    Elementwise when bc's fields and the scale are arrays of one shape; a
    batch then runs one test over both refusals, and the two refusals only
    when it trips."""
    mag = abs(bc.T)
    t2 = mag ** 2
    if mirror_scale is None:
        t_mirror, mirror_mag, gm = bc.T, mag, t2
    else:
        t_mirror = mirror_scale * bc.T
        mirror_mag = abs(t_mirror)
        gm = mirror_mag ** 2
    d2 = abs(bc.D) ** 2
    total = d2 + t2
    gain = mirror_mag > 1.0 + 1e-12
    active = total > 1.0 + 1e-9
    bad = gain | active
    if bad if isinstance(bad, bool) else np.count_nonzero(bad):
        refuse_where(gain, 1 if mirror_scale is None else mirror_scale, ValidationError,
                     "mirror transmission |mirror_scale * T| exceeds 1 at mirror_scale {}")
        refuse_where(active, total, ValidationError,
                     "block coefficients violate |D|^2+|T|^2<=1 ({})")
    return t_mirror, gm, d2, t2


def branch_fractions(gm, d2, t2):
    """What a stage does with a unit of mass on each branch, from the
    figures |t_mirror|^2, |D|^2 and |T|^2 of ``check_stage``: the (mirror,
    block) fractions that click, that are absorbed and that are kept, as one
    flat 6-tuple. The block branch sends |D|^2 to the detector and keeps
    |T|^2; the mirror branch never clicks (a zero of the figures' shape) and
    keeps |t_mirror|^2; each branch absorbs the rest. Elementwise on arrays
    of one shape."""
    return 0.0 * t2, d2, clip_unit(1.0 - gm), clip_unit(1.0 - d2 - t2), gm, t2


def _route(state: HyperState, branch_mask: int, which_spin: int,
           bc: BlockCoeffs, mirror_scale: complex | None) -> tuple[float, float]:
    """Net map of one routing stage, applied in place in one pass over the
    amplitudes once the scale is checked: an amplitude with the branch_mask
    bit set crosses the block (x T, negated when the block's spin is down),
    one with it clear the mirror (x mirror_scale * T; T when None). No label
    moves; amplitudes that become exactly zero are dropped. Returns the
    stage's (click, absorbed) masses: its mirror and block masses split by
    ``branch_fractions``.
    """
    t_mirror, gm, d2, t2 = check_stage(bc, check_mirror_scale(mirror_scale))
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
    _, click, absorbed_mirror, absorbed_block, _, _ = branch_fractions(gm, d2, t2)
    mirror, block = math.fsum(mirror_mass), math.fsum(block_mass)
    return click * block, absorbed_mirror * mirror + absorbed_block * block


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
