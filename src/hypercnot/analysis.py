"""Parameter sweeps, randomized fidelity scans, and report serialization.

The sweep drives the gate over a (g ratio, side-leakage ratio) grid with the
canonical hardest input -- uniform superposition in both degrees of freedom
for every photon -- and records transmission, efficiency, success
probability and fidelity per point. The fidelity scan draws random cavity
parameters and random input states and checks that the heralded gate stays
exact and probability stays conserved; ``verify`` in the CLI is a thin
wrapper over it.

Both run the gate's factored kernel (``gates.factored_run``) on a batch of
cavity points at once: the coefficients come from ``scattering.ratio_coeffs``
as numpy arrays, one entry per point (they agree with the single-point
coefficients to about 4e-16, and the block's T is exactly 0 at g = 0 on
both paths), and the fidelity with the truth rule from
``FactoredRun.truth_fidelity``, the overlap kernel that ``fidelity`` also
uses on a single point's factored states, so no point builds a CavityParams,
a GateConfig or an amplitude dict. Each pass works through its points in
chunks of at most ``_CHUNK_PHOTONS`` photons, so its memory does not grow
with the grid or the number of cases. A grid or scan is refused where the
single-point path would refuse any of its points.

The scan draws every case of a chunk in one call, ``rng.random((cases,
5 + 6 (N + 1)))``: each case reads 5 + 6 (N + 1) uniforms in order, its five
cavity ratios first (low + (high - low) u) and then three uniforms (a, b, c)
per coefficient pair, photon by photon and polarization first, taken as the
Hopf coordinates (sqrt(a) e^(2 pi i b), sqrt(1 - a) e^(2 pi i c)) -- exactly
Haar-random pairs, with nothing rejected (``random_photon_spec`` draws its
pairs the same way). Every uniform takes one word of the generator, so the
cases a seed gives do not depend on how they are chunked: the first k cases
of a longer scan are those of a k-case scan. A given seed draws different
cases than it did before the scan read this stream.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import IO, NamedTuple, Sequence

import numpy as np

from .circuit import check_mirror_scale
from .errors import (
    AmplitudeLostError,
    DegeneratePhysicsError,
    ValidationError,
    check_count,
    check_real,
    check_seed,
    refuse_where,
)
from .gates import MIN_BLOCK_T, check_transmits, factored_run
from .hyperstate import PhotonSpec, pair_vectors, photon_vectors
from .scattering import BlockCoeffs, block_coeffs, efficiency, ratio_coeffs

# Photons one chunk of a batched pass holds, over all its cavity points: a
# point of N targets takes N + 1, and a chunk holds at least one point.
_CHUNK_PHOTONS = 4096
# Most targets a sweep point or scan case may take: memory grows with them,
# to a peak RSS of about 0.20 GB for one sweep point and 0.26 GB for one scan
# case at 10^6 (numpy 2.4).
MAX_TARGETS = 10**6
# Most points a sweep grid may hold: a sweep keeps one report row per point,
# about 360 bytes each at its peak.
MAX_GRID_POINTS = 10**6


def _chunks(n_points: int, n_targets: int):
    """(start, stop) of the chunks of a pass over n_points points."""
    step = max(1, _CHUNK_PHOTONS // (n_targets + 1))
    return ((start, min(start + step, n_points)) for start in range(0, n_points, step))


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of coupling and side-leakage ratios. gamma and the
    detunings are held fixed across the grid (ratios of kappa). Every value
    must be finite, the ratios >= 0, and g/(kappa+kappa_s) times
    kappa + kappa_s must stay finite: what CavityParams.from_ratios accepts
    at every point."""

    g_ratios: tuple[float, ...]
    ks_ratios: tuple[float, ...]
    gamma_ratio: float = 0.1
    detuning_c: float = 0.0
    detuning_x: float = 0.0
    n_targets: int = 1

    def __post_init__(self):
        for name in ("g_ratios", "ks_ratios"):
            axis = getattr(self, name)
            # a string's items are no ratios; a number or None has no items
            if isinstance(axis, (str, bytes)) or not hasattr(axis, "__iter__"):
                raise ValidationError(f"{name} must be a sequence of numbers, got {axis!r}")
            object.__setattr__(self, name, tuple(map(check_real, axis, repeat(name))))
        for name in ("gamma_ratio", "detuning_c", "detuning_x"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not self.g_ratios or not self.ks_ratios:
            raise ValidationError("sweep axes must be non-empty")
        points = len(self.g_ratios) * len(self.ks_ratios)
        if points > MAX_GRID_POINTS:
            raise ValidationError(f"the sweep grid has {points} points, more than "
                                  f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        if min(self.g_ratios) < 0:
            raise ValidationError("g ratios must be >= 0")
        if min(self.ks_ratios) < 0:
            raise ValidationError("side-leakage ratios must be >= 0")
        if self.gamma_ratio < 0:
            raise ValidationError(f"gamma_ratio must be >= 0, got {self.gamma_ratio}")
        check_real(max(self.g_ratios) * (1.0 + max(self.ks_ratios)),
                   "g_ratios times 1 + ks_ratios")
        object.__setattr__(self, "n_targets",
                           check_count(self.n_targets, "n_targets", MAX_TARGETS))


class SweepRow(NamedTuple):
    """One sweep point's figures, in REPORT_COLUMNS order."""

    g_ratio: float
    ks_ratio: float
    abs_T: float
    efficiency: float
    success_prob: float
    fidelity: float


REPORT_COLUMNS = ("g_ratio", "ks_ratio", "abs_T", "efficiency",
                  "success_prob", "fidelity")

# The sweep's input photons, uniform in both degrees of freedom: one
# 4-vector, read as the rows of as many photons as a point may take.
_UNIFORM_ROWS = np.broadcast_to(photon_vectors([PhotonSpec.uniform()])[0],
                                (MAX_TARGETS + 1, 4))


def sweep_efficiency(grid: SweepGrid) -> list[SweepRow]:
    """Run the gate at every grid point, rows in grid order (g outer, ks
    inner). Points where the block transmission vanishes (|T| <
    MIN_BLOCK_T, e.g. g = 0 exactly on resonance) or where every amplitude
    is lost get success_prob = fidelity = 0.0: the gate never heralds there,
    so the conditional state does not exist. Points whose scattering
    coefficients are undefined (g = gamma = 0 on resonance) get 0.0 in every
    figure."""
    n = grid.n_targets
    x = _UNIFORM_ROWS[:n + 1]
    g_axis = np.array(grid.g_ratios)
    ks_axis = np.array(grid.ks_ratios)
    rows = []
    for start, stop in _chunks(len(g_axis) * len(ks_axis), n):
        g, ks = np.divmod(np.arange(start, stop), len(ks_axis))
        g, ks = g_axis[g], ks_axis[ks]
        coeffs, ok = ratio_coeffs(g, ks, grid.gamma_ratio, grid.detuning_c, grid.detuning_x)
        bc = block_coeffs(coeffs)
        T = np.where(ok, bc.T, 0.0)   # undefined coefficients report 0
        abs_t = np.abs(T)
        eff = efficiency(T, n)
        success = np.zeros(len(g))
        fid = np.zeros(len(g))
        live = abs_t >= MIN_BLOCK_T
        if np.count_nonzero(live):
            run = factored_run(BlockCoeffs(D=bc.D[live], T=T[live]), None, x)
            success[live] = run.success
            # the overlap reads only the factors: the stage ledger behind
            # clicks and absorbed, which the sweep never reads, goes first
            run = run._replace(clicks=None, absorbed=None)
            # where every amplitude is lost (success 0) there is no state
            with np.errstate(divide="ignore", invalid="ignore"):
                fid[live] = np.where(run.success > 0.0, run.truth_fidelity(), 0.0)
        rows += map(SweepRow._make, zip(g.tolist(), ks.tolist(), abs_t.tolist(),
                                        eff.tolist(), success.tolist(), fid.tolist()))
    return rows


def _hopf_pairs(u: np.ndarray) -> np.ndarray:
    """Coefficient pairs (..., 2) from uniforms (a, b, c) in [0, 1) on the
    last axis, in Hopf coordinates: (sqrt(a) e^(2 pi i b), sqrt(1 - a)
    e^(2 pi i c)). |c0|^2 uniform in [0, 1] and two independent uniform
    phases is exactly the Haar measure on the unit sphere of C^2, with
    nothing rejected."""
    pairs = 2j * np.pi * u[..., 1:]
    np.exp(pairs, out=pairs)
    a = u[..., :1]
    pairs *= np.sqrt(np.concatenate((a, 1.0 - a), axis=-1))
    return pairs


def random_photon_spec(rng: np.random.Generator) -> PhotonSpec:
    """Haar-random input photon: each coefficient pair from the next three
    uniforms of the stream (``_hopf_pairs``), polarization first."""
    pol, spatial = _hopf_pairs(rng.random((2, 3))).tolist()
    return PhotonSpec(pol=pol, spatial=spatial)


class ScanSummary(NamedTuple):
    """Worst-case figures over a randomized scan. Fidelity statistics cover
    every case; every spin-outcome branch of a case has the same corrected
    state, so they cover every branch too."""

    n_cases: int
    n_targets: int
    min_fidelity: float
    mean_fidelity: float
    max_success_deviation: float   # |success - |T|^(4(N+1))| worst case
    max_conservation_error: float  # |success + failures + absorbed - 1| worst case


# Parameter ranges the scan draws from (kappa = 1): coupling ratio
# g/(kappa+kappa_s) in [0.2, 5], side leakage kappa_s/kappa in [0, 1],
# dipole decay gamma/kappa in [0.05, 0.2], both detunings in [-kappa, kappa].
_SCAN_RANGES = {
    "g_ratio": (0.2, 5.0),
    "ks_ratio": (0.0, 1.0),
    "gamma_ratio": (0.05, 0.2),
    "detuning": (-1.0, 1.0),
}
# A case's first five uniform draws, in order: the arguments of
# ``scattering.ratio_coeffs``, each low + (high - low) * u as numpy's
# Generator.uniform draws it.
_SCAN_DRAWS = tuple(_SCAN_RANGES[k] for k in ("g_ratio", "ks_ratio", "gamma_ratio",
                                               "detuning", "detuning"))
_SCAN_LOW, _SCAN_SPAN = np.array([(lo, hi - lo) for lo, hi in _SCAN_DRAWS]).T


def fidelity_scan(n_cases: int, seed: int, n_targets: int = 1,
                  mirror_scale: complex | None = None) -> ScanSummary:
    """Random-case check that the heralded gate is exact.

    Each case draws cavity parameters from _SCAN_RANGES and fresh Haar-random
    input photons (the stream of the module docstring), runs the gate, and
    compares the corrected state (every spin branch's) against the
    truth-rule state. mirror_scale is
    ``GateConfig.mirror_scale``: if given, it multiplies the balancing
    mirrors' transmission, deliberately unbalancing the gate; expect
    fidelities below 1 in that case.
    """
    n_cases = check_count(n_cases, "n_cases")
    n_targets = check_count(n_targets, "n_targets", MAX_TARGETS)
    seed = check_seed(seed, "seed")
    mirror_scale = check_mirror_scale(mirror_scale)
    rng = np.random.Generator(np.random.PCG64(seed))   # default_rng(seed) minus its dispatch
    fid_sums: list[float] = []
    min_fid = math.inf
    max_dev = 0.0
    max_cons = 0.0
    for start, stop in _chunks(n_cases, n_targets):
        # each case's uniforms, in case order: five ratios, then three per
        # coefficient pair, photon by photon, polarization first
        u = rng.random((stop - start, 5 + 6 * (n_targets + 1)))
        coeffs, ok = ratio_coeffs(*(_SCAN_LOW + _SCAN_SPAN * u[:, :5]).T)
        refuse_where(~ok, ok, DegeneratePhysicsError,
                     "scattering denominator vanishes at a scanned point")
        bc = block_coeffs(coeffs)
        mag = check_transmits(bc.T)
        x = pair_vectors(_hopf_pairs(u[:, 5:].reshape(stop - start, n_targets + 1, 2, 3)))
        del u   # not read again: freed before the gate
        run = factored_run(bc, mirror_scale, x)
        refuse_where(run.success == 0.0, run.success, AmplitudeLostError,
                     "all amplitude lost: nothing left to measure")
        fid = run.truth_fidelity()
        fid_sums.append(math.fsum(fid.tolist()))
        min_fid = min(min_fid, float(fid.min()))
        expected = mag ** (4 * (n_targets + 1))
        max_dev = max(max_dev, float(np.abs(run.success - expected).max()))
        total = run.success + run.clicks.sum(axis=(-2, -1)) + run.absorbed.sum(axis=(-2, -1))
        max_cons = max(max_cons, float(np.abs(total - 1.0).max()))
    return ScanSummary(
        n_cases=n_cases,
        n_targets=n_targets,
        min_fidelity=min_fid,
        mean_fidelity=math.fsum(fid_sums) / n_cases,
        max_success_deviation=max_dev,
        max_conservation_error=max_cons,
    )


# -- report serialization ----------------------------------------------------

def _row_dict(row: SweepRow) -> dict[str, float]:
    return {col: getattr(row, col) for col in REPORT_COLUMNS}


def _render(rows: Sequence[SweepRow], fmt: str) -> str:
    if not rows:
        raise ValidationError("report has no rows")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([repr(getattr(row, col)) for col in REPORT_COLUMNS])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([_row_dict(r) for r in rows], indent=2) + "\n"
    raise ValidationError(f"unknown report format {fmt!r}, expected csv or json")


def emit_report(rows: Sequence[SweepRow], fmt: str,
                destination: str | Path | IO[str]) -> None:
    """Write sweep rows as CSV or JSON. Floats are written with repr so a
    load_report round trip is exact. destination may be a path or an open
    text stream."""
    text = _render(rows, fmt)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def _report_row(cells: Sequence, where: str, number: int) -> SweepRow:
    """Report row ``number`` (1-based, after the header) from its cells in
    REPORT_COLUMNS order. Every figure a sweep writes is finite and >= 0."""
    if len(cells) != len(REPORT_COLUMNS):
        raise ValidationError(f"bad row {number} in {where}: {len(cells)} cells, "
                              f"expected {len(REPORT_COLUMNS)}")
    try:
        values = [float(cell) for cell in cells]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad row {number} in {where}: {exc}") from None
    for col, value in zip(REPORT_COLUMNS, values):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValidationError(f"bad row {number} in {where}: {col} is {value!r}, "
                                  "expected a finite number >= 0")
    return SweepRow(*values)


def load_report(source: str | Path | IO[str], fmt: str) -> list[SweepRow]:
    """Read rows back from emit_report output. A malformed row raises
    ValidationError naming the source and the row."""
    if hasattr(source, "read"):
        text = source.read()
        where = "<stream>"
    else:
        where = str(source)
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise OSError(f"cannot read report from {source}: {exc}") from exc
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"empty report in {where}") from None
        if tuple(header) != REPORT_COLUMNS:
            raise ValidationError(
                f"bad report header in {where}: {header} != {list(REPORT_COLUMNS)}")
        return [_report_row(row, where, number)
                for number, row in enumerate(reader, start=1) if row]
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON report in {where}: {exc}") from exc
        if not isinstance(payload, list):
            raise ValidationError(f"bad JSON report in {where}: expected a list")
        rows = []
        for number, item in enumerate(payload, start=1):
            if not isinstance(item, dict):
                raise ValidationError(
                    f"bad row {number} in {where}: expected an object, got {item!r}")
            missing = [col for col in REPORT_COLUMNS if col not in item]
            if missing:
                raise ValidationError(f"bad row {number} in {where}: missing {missing}")
            cells = [item[col] for col in REPORT_COLUMNS]
            for col, cell in zip(REPORT_COLUMNS, cells):
                if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                    raise ValidationError(
                        f"bad row {number} in {where}: {col} is {cell!r}, expected a number")
            rows.append(_report_row(cells, where, number))
        return rows
    raise ValidationError(f"unknown report format {fmt!r}, expected csv or json")
