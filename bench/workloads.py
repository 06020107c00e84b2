"""The benchmark's workloads: per-op inputs from the seed, the timed op, and
the output check that runs after the timer stops.

Every op draws its inputs from
``random.Random("<workload>/<seed>/<process>/<op>")``, so one seed always
gives the same inputs and no two ops of a run share them. Op -1 is the
warm-up op of set-up. The checks recompute the block transmission T from the
closed form in ``scattering``'s docstring, not through the library, so they
stay valid when the coefficient code changes.
"""
from __future__ import annotations

import json
import math
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import hypercnot

# fidelity_scan's parameter ranges (kappa = 1): the gate is exact across them.
SCAN_RANGES = {
    "g_ratio": (0.2, 5.0),
    "ks_ratio": (0.0, 1.0),
    "gamma_ratio": (0.05, 0.2),
    "detuning": (-1.0, 1.0),
}

# Tolerances of the acceptance criteria and of ``hypercnot verify``.
FIDELITY_TOL = 1e-10
PROB_TOL = 1e-12
DEGENERATE_T = 1e-12   # gates.MIN_BLOCK_T: below it the gate never heralds
# False-alarm probability of one op's shot-count check (about 6 sigma).
SHOT_ALPHA = 1e-9


def block_T(g_ratio, ks_ratio, gamma_ratio, detuning_c=0.0, detuning_x=0.0):
    """Basic-block transmission T = (t + r - t0 - r0)/2 = t - t0 in kappa = 1
    units, written out from the formulas in ``hypercnot.scattering``."""
    kappa = 1.0
    dipole = complex(gamma_ratio / 2.0, detuning_x)
    cavity = complex(kappa + ks_ratio / 2.0, detuning_c)
    g = g_ratio * (kappa + ks_ratio)
    t = -kappa * dipole / (dipole * cavity + g * g)
    t0 = -kappa / cavity
    return t - t0


def count_tolerance(shots, p, alpha=SHOT_ALPHA):
    """Largest |successes - shots * p| that a correct sampler exceeds with
    probability below ``alpha``, from Bernstein's inequality
    P(|X - np| >= t) <= 2 exp(-t^2 / (2 (np(1-p) + t/3))). Unlike a normal
    5-sigma band it stays valid when shots * p is far below 1, where a
    single success would otherwise sit many sigma out."""
    a = math.log(2.0 / alpha)
    return a / 3.0 + math.sqrt(a * a / 9.0 + 2.0 * a * shots * p * (1.0 - p))


def _draw_ratios(rng):
    return {
        "g_ratio": rng.uniform(*SCAN_RANGES["g_ratio"]),
        "ks_ratio": rng.uniform(*SCAN_RANGES["ks_ratio"]),
        "gamma_ratio": rng.uniform(*SCAN_RANGES["gamma_ratio"]),
        "detuning_c": rng.uniform(*SCAN_RANGES["detuning"]),
        "detuning_x": rng.uniform(*SCAN_RANGES["detuning"]),
    }


def _check_gate(control, targets, ratios, outcome):
    """Acceptance criteria of one heralded gate run."""
    problems = []
    n = len(targets)
    expected = abs(block_T(**ratios)) ** (4 * (n + 1))
    if abs(outcome.success_prob - expected) > PROB_TOL:
        problems.append(f"success {outcome.success_prob!r} != |T|^{4 * (n + 1)} {expected!r}")
    total = math.fsum([outcome.success_prob, outcome.heralded_failure_prob,
                       outcome.absorbed_prob])
    if abs(total - 1.0) > PROB_TOL:
        problems.append(f"success + detectors + absorbed = {total!r}")
    if not outcome.branches:
        problems.append("no spin branch")
    ideal = hypercnot.ideal_hyper_cnot_n(control, targets)
    for branch in outcome.branches:
        f = hypercnot.fidelity(branch.state, ideal)
        if not f >= 1.0 - FIDELITY_TOL:
            problems.append(f"branch {branch.spin_record} fidelity {f!r}")
    return problems


def reference_loop() -> int:
    """Six Hadamard-style rebuilds of a 2048-entry int -> complex dict: the
    same kind of work as the library's sparse state, written out here so
    that no library change can move its time."""
    amps = {i: complex(i, 1) for i in range(2048)}
    for mask in (1, 2, 4, 8, 16, 32):
        out = {}
        for label, amp in amps.items():
            half = 0.7071067811865476 * amp
            lo, hi = label & ~mask, label | mask
            out[lo] = out.get(lo, 0j) + half
            out[hi] = out.get(hi, 0j) + (-half if label & mask else half)
        amps = out
    return len(amps)


class Workload:
    """One workload: per-op inputs, the timed op, its output check (a list
    of problems, empty when the output is right), its work count, and the
    reference that calibrates its times (see ``run.calibrate``)."""

    name = ""
    work_unit = ""
    in_process = True   # False when the op runs in a child process
    ref_share = 0.05    # share of the loop's time spent timing the reference
    ref_nominal_ns = 7_000_000   # the reference's time at the nominal speed

    def __init__(self, seed: int, process: int = 0):
        self.stream = f"{self.name}/{seed}/{process}"

    def rng(self, op: int) -> random.Random:
        return random.Random(f"{self.stream}/{op}")

    def inputs(self, op: int):
        raise NotImplementedError

    def run(self, inp, traced: bool = False):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def work(self, inp) -> int:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def reference(self) -> int:
        """Time of one reference run in ns: pure-Python work, as the
        in-process ops are."""
        t0 = perf_counter_ns()
        reference_loop()
        return perf_counter_ns() - t0


class CnotN(Workload):
    """One ``hyper_cnot_n`` per op with cavity parameters drawn per op."""

    work_unit = "gates"
    n_targets = 0

    def photons(self, rng):
        raise NotImplementedError

    def inputs(self, op):
        rng = self.rng(op)
        ratios = _draw_ratios(rng)
        control, targets = self.photons(rng)
        cfg = hypercnot.GateConfig(params=hypercnot.CavityParams.from_ratios(**ratios),
                                   n_targets=self.n_targets)
        return control, targets, ratios, cfg

    def run(self, inp, traced=False):
        control, targets, _, cfg = inp
        return hypercnot.hyper_cnot_n(control, targets, cfg)

    def check(self, inp, out):
        control, targets, ratios, _ = inp
        return _check_gate(control, targets, ratios, out)

    def work(self, inp):
        return 1


class CnotNDense(CnotN):
    """N = 6, every photon in the uniform +,+ state: all 4^8 amplitudes live."""

    name = "cnotn_dense"
    n_targets = 6

    def photons(self, rng):
        u = hypercnot.PhotonSpec.uniform()
        return u, [u] * self.n_targets


class CnotNSparse(CnotN):
    """N = 10, every photon in a random computational-basis state: at most
    16 labels live, so fixed per-element cost dominates."""

    name = "cnotn_sparse"
    n_targets = 10

    def photons(self, rng):
        def basis():
            return hypercnot.PhotonSpec.basis(hypercnot.Pol(rng.randrange(2)),
                                              hypercnot.Spatial(rng.randrange(2)))
        return basis(), [basis() for _ in range(self.n_targets)]


class ParamScan(Workload):
    """N = 1. One op is a ``sweep_efficiency`` over a fresh 4 x 2 tile of the
    g_ratio x ks_ratio plane g in [0, 5], ks in [0, 1], then a
    ``fidelity_scan`` with a fresh sub-seed, so the calls alternate while
    each op's latency stays unimodal. Every tile has the degenerate g = 0
    column and one stratified draw from each third of the g range and each
    half of the ks range, so every op does the same amount of gate work. The
    op is small so that a run has a few thousand of them, enough for
    ``op_tail_ms`` to be a median over several windows."""

    name = "param_scan"
    work_unit = "gate_evals"
    ks_strata = 2
    scan_cases = 4

    def inputs(self, op):
        rng = self.rng(op)
        g = (0.0, *(rng.uniform(5.0 * k / 3, 5.0 * (k + 1) / 3) for k in range(3)))
        ks = tuple(rng.uniform(k / self.ks_strata, (k + 1) / self.ks_strata)
                   for k in range(self.ks_strata))
        grid = hypercnot.SweepGrid(g_ratios=g, ks_ratios=ks)
        return grid, rng.getrandbits(63)

    def run(self, inp, traced=False):
        grid, scan_seed = inp
        rows = hypercnot.sweep_efficiency(grid)
        return rows, hypercnot.fidelity_scan(self.scan_cases, scan_seed, 1)

    def check(self, inp, out):
        grid, _ = inp
        rows, scan = out
        problems = []
        points = [(g, ks) for g in grid.g_ratios for ks in grid.ks_ratios]
        if [(r.g_ratio, r.ks_ratio) for r in rows] != points:
            problems.append("sweep rows out of grid order")
        for row in rows:
            T = block_T(row.g_ratio, row.ks_ratio, grid.gamma_ratio,
                        grid.detuning_c, grid.detuning_x)
            eff = abs(T) ** 8
            where = f"sweep point ({row.g_ratio!r}, {row.ks_ratio!r})"
            if abs(row.abs_T - abs(T)) > PROB_TOL:
                problems.append(f"{where}: |T| {row.abs_T!r} != {abs(T)!r}")
            if row.g_ratio == 0.0:
                if not (row.abs_T < DEGENERATE_T and row.success_prob == 0.0
                        and row.fidelity == 0.0):
                    problems.append(f"{where}: g = 0 should be degenerate")
                continue
            if not row.fidelity >= 1.0 - FIDELITY_TOL:
                problems.append(f"{where}: fidelity {row.fidelity!r}")
            if abs(row.success_prob - eff) > PROB_TOL or abs(row.efficiency - eff) > PROB_TOL:
                problems.append(f"{where}: success {row.success_prob!r} != |T|^8 {eff!r}")
        if scan.n_cases != self.scan_cases:
            problems.append(f"scan covered {scan.n_cases} cases")
        if not scan.min_fidelity >= 1.0 - FIDELITY_TOL:
            problems.append(f"scan min fidelity {scan.min_fidelity!r}")
        if not scan.max_success_deviation <= PROB_TOL:
            problems.append(f"scan success deviation {scan.max_success_deviation!r}")
        if not scan.max_conservation_error <= PROB_TOL:
            problems.append(f"scan conservation error {scan.max_conservation_error!r}")
        return problems

    def work(self, inp):
        grid, _ = inp
        return len(grid.g_ratios) * len(grid.ks_ratios) + self.scan_cases


class CliShots(Workload):
    """One ``python -m hypercnot sample`` subprocess per op: N = 2, +,+
    inputs, 10^6 shots, JSON output, per-op seed and cavity parameters. The
    traced run starts ``cliprobe.py`` in its place, which runs the same
    ``__main__`` with the hooks installed."""

    name = "cli_shots"
    work_unit = "shots"
    in_process = False
    shots = 1_000_000
    n_targets = 2

    probe = str(Path(__file__).resolve().parent / "cliprobe.py")

    # The op is mostly interpreter start, imports and vectorised numpy, which
    # speed up less than pure Python when the machine's speed changes; the
    # pure-Python reference over-corrected it by up to a fifth. This child
    # does the same kinds of work without the library: interpreter start,
    # ``import numpy`` and a 10^6-shot draw with masks, searchsorted and
    # unique, in chunks small enough that its memory stays below any CLI
    # child's (its peak RSS counts in peak_rss_mb with theirs).
    REFERENCE_CHILD = """
import numpy as np
rng = np.random.default_rng(7)
for _ in range(10):
    u = rng.random((100_000, 4))
    fails = u[:, :3] < np.array([0.1, 0.2, 0.3])
    any_fail = fails.any(axis=1)
    first = np.where(any_fail, fails.argmax(axis=1), 3)
    kept = np.flatnonzero(~any_fail)
    pick = np.searchsorted(np.cumsum([0.25, 0.5, 0.75, 1.0]), u[kept, 3], side="right")
    np.unique(pick, return_counts=True)
"""
    ref_share = 0.2
    ref_nominal_ns = 310_000_000

    def inputs(self, op):
        rng = self.rng(op)
        ratios = _draw_ratios(rng)
        ks = ratios["ks_ratio"]
        # "--flag=value", since argparse takes a separate "-1.2e-05" for an option.
        flags = [f"--g={ratios['g_ratio'] * (1.0 + ks)!r}", "--kappa=1.0",
                 f"--kappa-s={ks!r}", f"--gamma={ratios['gamma_ratio']!r}",
                 f"--detuning-c={ratios['detuning_c']!r}",
                 f"--detuning-x={ratios['detuning_x']!r}"]
        args = ["sample", "--control", "+,+", *["--target", "+,+"] * self.n_targets,
                "--shots", str(self.shots), "--seed", str(rng.getrandbits(62)),
                "--format", "json", *flags]
        return args, ratios

    def run(self, inp, traced=False):
        args, _ = inp
        head = [sys.executable, self.probe] if traced else [sys.executable, "-m", "hypercnot"]
        spawn_ns = perf_counter_ns()
        proc = subprocess.run([*head, *args], capture_output=True, text=True,
                              timeout=120)
        return spawn_ns, proc

    def check(self, inp, out):
        _, ratios = inp
        _, proc = out
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        try:
            stats = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        problems = []
        shots, succ = stats["shots"], stats["successes"]
        if shots != self.shots:
            problems.append(f"ran {shots} shots")
        if succ + sum(stats["detector_clicks"].values()) + stats["absorbed"] != shots:
            problems.append("outcome counts do not sum to the shot count")
        if sum(stats["spin_counts"].values()) != succ:
            problems.append("spin counts do not sum to the successes")
        p = stats["success_prob"]
        expected = abs(block_T(**ratios)) ** (4 * (self.n_targets + 1))
        if abs(p - expected) > PROB_TOL:
            problems.append(f"success_prob {p!r} != |T|^12 {expected!r}")
        if abs(stats["success_frequency"] * shots - succ) > 1e-6:
            problems.append(f"success frequency {stats['success_frequency']!r} "
                            f"!= {succ} / {shots}")
        if abs(succ - shots * p) > count_tolerance(shots, p):
            problems.append(f"{succ} successes in {shots} shots is too far "
                            f"from success_prob {p!r}")
        return problems

    def work(self, inp):
        return self.shots

    def reference(self):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", self.REFERENCE_CHILD], check=True)
        return perf_counter_ns() - t0

    def peak_rss_mb(self):
        # The largest CLI child; this process only waits on them.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CnotNDense, CnotNSparse, ParamScan, CliShots)}
