"""Parameter sweeps, randomized fidelity scans, and report serialization.

The sweep drives the full gate over a (g ratio, side-leakage ratio) grid with
the canonical hardest input -- uniform superposition in both degrees of
freedom for every photon -- and records transmission, efficiency, success
probability and fidelity per point. The fidelity scan draws random cavity
parameters and random input states and checks that the heralded gate stays
exact and probability stays conserved; ``verify`` in the CLI is a thin
wrapper over it.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import DegeneratePhysicsError, ValidationError, check_count
from .gates import GateConfig, check_seed, hyper_cnot_n, ideal_hyper_cnot_n
from .hyperstate import PhotonSpec, fidelity
from .scattering import CavityParams, block_coeffs, efficiency, scatter_coeffs


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of coupling and side-leakage ratios. gamma and the
    detunings are held fixed across the grid (ratios of kappa)."""

    g_ratios: tuple[float, ...]
    ks_ratios: tuple[float, ...]
    gamma_ratio: float = 0.1
    detuning_c: float = 0.0
    detuning_x: float = 0.0
    n_targets: int = 1

    def __post_init__(self):
        object.__setattr__(self, "g_ratios", tuple(float(g) for g in self.g_ratios))
        object.__setattr__(self, "ks_ratios", tuple(float(k) for k in self.ks_ratios))
        if not self.g_ratios or not self.ks_ratios:
            raise ValidationError("sweep axes must be non-empty")
        if any(g < 0 for g in self.g_ratios):
            raise ValidationError("g ratios must be >= 0")
        if any(k < 0 for k in self.ks_ratios):
            raise ValidationError("side-leakage ratios must be >= 0")
        check_count(self.n_targets, "n_targets")


@dataclass(frozen=True)
class SweepRow:
    g_ratio: float
    ks_ratio: float
    abs_T: float
    efficiency: float
    success_prob: float
    fidelity: float


REPORT_COLUMNS = ("g_ratio", "ks_ratio", "abs_T", "efficiency",
                  "success_prob", "fidelity")


def sweep_efficiency(grid: SweepGrid) -> list[SweepRow]:
    """Run the gate at every grid point, rows in grid order (g outer, ks
    inner). Points where the block transmission vanishes (e.g. g = 0 exactly
    on resonance) get success_prob = fidelity = 0.0: the gate never heralds
    there, so the conditional state does not exist. Points whose scattering
    coefficients are undefined (g = gamma = 0 on resonance) get 0.0 in every
    figure."""
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
                bc = block_coeffs(scatter_coeffs(params))
            except DegeneratePhysicsError:
                rows.append(SweepRow(g, ks, 0.0, 0.0, 0.0, 0.0))
                continue
            abs_t = abs(bc.T)
            eff = efficiency(bc.T, n)
            try:
                outcome = hyper_cnot_n(control, targets,
                                       GateConfig(params=params, n_targets=n))
                success = outcome.success_prob
                fid = fidelity(outcome.conditional_state, ideal)
            except DegeneratePhysicsError:
                success = 0.0
                fid = 0.0
            rows.append(SweepRow(g, ks, abs_t, eff, success, fid))
    return rows


def random_photon_spec(rng: np.random.Generator) -> PhotonSpec:
    """Haar-ish random input photon: each coefficient pair drawn from complex
    normals and normalized."""
    def pair() -> tuple[complex, complex]:
        while True:
            v = rng.standard_normal(4)
            c0 = complex(v[0], v[1])
            c1 = complex(v[2], v[3])
            nrm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
            if nrm > 1e-6:
                return (c0 / nrm, c1 / nrm)
    return PhotonSpec(pol=pair(), spatial=pair())


@dataclass(frozen=True)
class ScanSummary:
    """Worst-case figures over a randomized scan. Fidelity statistics cover
    every spin-outcome branch of every case, not just the reported one."""

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


def fidelity_scan(n_cases: int, seed: int, n_targets: int = 1,
                  mirror_scale: float | None = None) -> ScanSummary:
    """Random-case check that the heralded gate is exact.

    Each case draws cavity parameters from _SCAN_RANGES and fresh random
    input photons, runs the gate, and compares every corrected spin branch
    against the truth-rule state. mirror_scale (if given) multiplies the
    balancing mirrors' transmission, deliberately unbalancing the gate;
    expect fidelities below 1 in that case.
    """
    check_count(n_cases, "n_cases")
    check_count(n_targets, "n_targets")
    check_seed(seed, "seed")
    rng = np.random.default_rng(seed)
    lo_hi = _SCAN_RANGES
    fids: list[float] = []
    min_fid = math.inf
    max_dev = 0.0
    max_cons = 0.0
    for _ in range(n_cases):
        params = CavityParams.from_ratios(
            g_ratio=rng.uniform(*lo_hi["g_ratio"]),
            ks_ratio=rng.uniform(*lo_hi["ks_ratio"]),
            gamma_ratio=rng.uniform(*lo_hi["gamma_ratio"]),
            detuning_c=rng.uniform(*lo_hi["detuning"]),
            detuning_x=rng.uniform(*lo_hi["detuning"]),
        )
        bc = block_coeffs(scatter_coeffs(params))
        override = None if mirror_scale is None else mirror_scale * bc.T
        cfg = GateConfig(params=params, n_targets=n_targets,
                         mirror_T_override=override)
        control = random_photon_spec(rng)
        targets = [random_photon_spec(rng) for _ in range(n_targets)]
        outcome = hyper_cnot_n(control, targets, cfg)
        ideal = ideal_hyper_cnot_n(control, targets)
        for branch in outcome.branches:
            f = fidelity(branch.state, ideal)
            fids.append(f)
            min_fid = min(min_fid, f)
        expected = abs(bc.T) ** (4 * (n_targets + 1))
        max_dev = max(max_dev, abs(outcome.success_prob - expected))
        total = math.fsum([outcome.success_prob, outcome.heralded_failure_prob,
                           outcome.absorbed_prob])
        max_cons = max(max_cons, abs(total - 1.0))
    return ScanSummary(
        n_cases=n_cases,
        n_targets=n_targets,
        min_fidelity=min_fid,
        mean_fidelity=math.fsum(fids) / len(fids),
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
