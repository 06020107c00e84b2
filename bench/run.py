"""hypercnot benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``. The
workloads and metrics are declared in ``BENCHMARK.json``, and
``bench/README.md`` says why each workload is there.

The run starts ``PROCESSES`` workload processes (``worker.py``) one after
another. Each sets up, says it is ready, and runs the timed loop for its
share of ``--seconds``; the figures pool all of them. ``setup_s`` is the
median set-up time, from process spawn until the process says it is ready.
Op and set-up times are reported at a nominal machine speed (``calibrate``);
the raw figures are printed beside them. With ``--trace 0`` no hook is
installed and the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics, and the spans go
to a JSON file under ``bench/out/``. Every workload process has its
BLAS/OpenMP thread counts pinned to 1.

Exit codes: 0 the run finished (``correct`` says whether every output
checked out), 2 the checkout has no library or no ``BENCHMARK.json``, 1 the
workload process failed or overran.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter_ns

from tracer import HOOKS, RAW_OPS, STARTUP_SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Workload processes per run, one after another; each sets up and then
# measures for 1/PROCESSES of the run, so no single process's placement or
# memory layout sets the figures. Process k is pinned, with its children, to
# the k-th allowed CPU (cyclically): the reference then runs on the CPU whose
# speed it calibrates, and every run samples every CPU.
PROCESSES = 5
# Reference samples on each side of an op that set its speed factor.
LOCAL_REFS = 3
# Ops per window of the tail figure; a window's tail is its p99.
TAIL_WINDOW = 1000
# At least this many timed ops in a run, so the tail has ten samples above it.
MIN_OPS = 11
# The whole run must end well inside 180 s.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class RunError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def run_process(args, process: int, cpu: int, env, deadline_ns: int) -> tuple[dict, dict]:
    """Start workload process ``process`` pinned to ``cpu``, time its set-up
    from spawn to its ready line, and collect its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--process", str(process),
           "--seconds", str(args.seconds / PROCESSES),
           "--min-ops", str(-(-MIN_OPS // PROCESSES)), "--trace", str(args.trace),
           "--cpu", str(cpu)]
    t_spawn = perf_counter_ns()
    # Unbuffered, so readline takes exactly the ready line and communicate
    # gets everything after it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0)
    watchdog = threading.Timer(max(0.0, (deadline_ns - t_spawn) / 1e9), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        t_ready = perf_counter_ns()
        out, err = (b.decode() for b in proc.communicate())
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise RunError(f"workload process exited with {proc.returncode}: {err.strip()[-2000:]}")
    if err.strip():
        sys.stderr.write(err)
    try:
        ready = json.loads(line)
        result = json.loads(out.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        raise RunError(f"workload process printed no result: {out[-2000:]}") from None
    ready["setup_ns"] = t_ready - t_spawn
    ready["interpreter_ns"] = ready["t_first_ns"] - t_spawn
    return ready, result


def pool(results: list[dict]) -> dict:
    """One result from the results of a run's processes."""
    pooled = {
        "untraced_ns": [t for r in results for t in r["untraced_ns"]],
        "calibrated_ns": [t for r in results for t in r["calibrated_ns"]],
        "calibrated_traced_ns": [t for r in results for t in r["calibrated_traced_ns"]],
        "ref_ns": [t for r in results for t in r["ref_ns"]],
        "ref_nominal_ns": results[0]["ref_nominal_ns"],
        "traced_ns": [t for r in results for t in r["traced_ns"]],
        "work": sum(r["work"] for r in results),
        "work_unit": results[0]["work_unit"],
        "in_process": results[0]["in_process"],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "problems": [p for r in results for p in r["problems"]],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    if "trace" in results[0]:
        traces = [r["trace"] for r in results]
        pooled["trace"] = {
            "ops": [op for t in traces for op in t["ops"]],
            "ops_per_process": [len(t["ops"]) for t in traces],
            "raw": [op for t in traces for op in t["raw"]][:RAW_OPS],
            "absent": traces[0]["absent"],
            "absent_counts": sorted({s for t in traces for s in t["absent_counts"]}),
        }
    return pooled


def tail(samples: list[int]) -> tuple[int, float, int]:
    """The highest-percentile sample that still has at least ten samples
    above it: (value, percentile, samples above it)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def windowed_tail(samples: list[float]) -> tuple[float, float, int]:
    """Median over consecutive windows of TAIL_WINDOW ops of each window's
    tail (the remainder joins the last window; a short run is one window),
    with the lowest window percentile and the number of windows. Beyond about
    p99 of a whole run, the figure on a shared machine is set by how many
    times the host preempted the process, not by the program."""
    n_windows = max(1, len(samples) // TAIL_WINDOW)
    bounds = [k * TAIL_WINDOW for k in range(n_windows)] + [len(samples)]
    tails = [tail(samples[a:b]) for a, b in zip(bounds, bounds[1:])]
    return (statistics.median(t[0] for t in tails), min(t[1] for t in tails), n_windows)


def calibrate(ready: dict, result: dict) -> None:
    """Express one process's op and set-up times at the nominal machine speed.

    On a shared machine the speed of a core drifts by tens of percent over
    minutes (clock and neighbours), and within a process over seconds, which
    moves every time the same way. Each process therefore times its
    workload's reference (``Workload.reference``) between its ops, whose time
    at the nominal speed is ``ref_nominal_ns``. An op's time is scaled by
    ref_nominal_ns / (median of the 2 * LOCAL_REFS reference times nearest the
    op), so a slow spell inside a process is not read as a slow op; set-up,
    which precedes every reference sample, is scaled by the process's median
    reference time. A change to the library cannot move the reference, so it
    moves the scaled times exactly as it moves the raw ones; the raw times are
    printed beside them."""
    ref, nominal = result["ref_ns"], result["ref_nominal_ns"]
    width = 2 * LOCAL_REFS

    def scaled(times, refs_before):
        out = []
        for t, k in zip(times, refs_before):
            lo = max(0, min(k - LOCAL_REFS, len(ref) - width))
            out.append(t * nominal / statistics.median(ref[lo:lo + width]))
        return out

    factor = nominal / statistics.median(ref)
    ready["factor"] = factor
    ready["calibrated_setup_ns"] = ready["setup_ns"] * factor
    result["calibrated_ns"] = scaled(result["untraced_ns"], result["untraced_ref"])
    result["calibrated_traced_ns"] = scaled(result["traced_ns"], result["traced_ref"])


def end_to_end(result: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    lat = result["calibrated_ns"]
    raw = result["untraced_ns"]
    tail_ns, tail_pct, n_windows = windowed_tail(lat)
    tail_note = (f"op_tail_ms is the median over {n_windows} windows of each window's "
                 f"p{tail_pct:.2f} (10 ops above it)")
    metrics = {
        "setup_s": statistics.median(s["calibrated_setup_ns"] for s in setups) / 1e9,
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "work_per_s": result["work"] / (sum(lat) / 1e9),
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": result["failed"] / result["attempted"],
    }
    notes = [tail_note,
             f"work_per_s counts {result['work_unit']}",
             f"setup_s is the median of {len(setups)} set-ups: "
             + ", ".join(f"{s['calibrated_setup_ns'] / 1e9:.4f}" for s in setups),
             f"raw (uncalibrated): op_p50_ms {statistics.median(raw) / 1e6:.6g}, "
             f"op_tail_ms {windowed_tail(raw)[0] / 1e6:.6g}, setup_s "
             f"{statistics.median(s['setup_ns'] for s in setups) / 1e9:.6g}",
             f"reference median {statistics.median(result['ref_ns']) / 1e6:.4f} ms "
             f"(nominal {result['ref_nominal_ns'] / 1e6} ms); per-process speed factors "
             + ", ".join(f"{s['factor']:.4f}" for s in setups)]
    return metrics, notes


def signature(op: dict) -> str:
    """Hash of an op's exact work counts: calls and counts of every span."""
    items = sorted((name, calls, sorted(counts.items()))
                   for name, (calls, _, counts) in op["spans"].items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def per_layer(result: dict, setups: list[dict]) -> tuple[dict, list[str], dict]:
    trace = result["trace"]
    ops = trace["ops"]
    if not ops:
        raise RunError("the traced run completed no traced op")
    n = len(ops)
    totals: dict[str, list] = {}
    for op in ops:
        for name, (calls, self_ns, counts) in op["spans"].items():
            agg = totals.setdefault(name, [0, 0, {}])
            agg[0] += calls
            agg[1] += self_ns
            for key, value in counts.items():
                agg[2][key] = agg[2].get(key, 0) + value
    metrics = {}
    for hook in HOOKS:
        calls, self_ns, counts = totals.get(hook.span, (0, 0, {}))
        metrics[f"{hook.span}.calls"] = calls / n
        metrics[f"{hook.span}.self_ms"] = self_ns / 1e6 / n
        for name in hook.counts:
            if name == "success_ratio":
                shots = counts.get("shots", 0)
                value = counts.get("successes", 0) / shots if shots else 0.0
            else:
                value = counts.get(name, 0) / n
            metrics[f"{hook.span}.{name}"] = value
    if result["in_process"]:
        metrics["startup.import_ms"] = statistics.median(s["import_ns"] for s in setups) / 1e6
        metrics["startup.interpreter_ms"] = statistics.median(
            s["interpreter_ns"] for s in setups) / 1e6
    else:
        for span in STARTUP_SPANS:
            metrics[f"{span}_ms"] = totals.get(span, (0, 0))[1] / 1e6 / n
    op_ms = sum(op["op_ns"] for op in ops) / 1e6 / n
    uncovered_ms = sum(op["op_ns"] - op["covered_ns"] for op in ops) / 1e6 / n
    metrics["trace.op_ms"] = op_ms
    metrics["trace.uncovered_ms"] = uncovered_ms
    metrics["trace.overhead_ratio"] = (statistics.median(result["calibrated_traced_ns"])
                                       / statistics.median(result["calibrated_ns"]))
    metrics["trace.absent_spans"] = len(trace["absent"])
    metrics["calib.ref_ms"] = statistics.median(result["ref_ns"]) / 1e6
    metrics["raw.op_p50_ms"] = statistics.median(result["untraced_ns"]) / 1e6
    metrics["raw.setup_s"] = statistics.median(s["setup_ns"] for s in setups) / 1e9

    self_sum_ms = sum(agg[1] for agg in totals.values()) / 1e6 / n
    notes = [f"{n} traced ops; self times {self_sum_ms:.6f} ms + uncovered "
             f"{uncovered_ms:.6f} ms = traced op {op_ms:.6f} ms",
             "absent spans: " + (", ".join(trace["absent"]) or "none"),
             "spans with absent counts: " + (", ".join(trace["absent_counts"]) or "none")]
    # Self times add up to the covered time by construction; what can go wrong
    # is a span (a CLI probe, start-up) reaching outside the timed interval.
    outside = sum(1 for op in ops if not 0 <= op["covered_ns"] <= op["op_ns"])
    if outside:
        notes.append(f"{outside} traced ops have spans covering more than the op time")
    sigs = iter(signature(op) for op in ops)
    detail = {"absent": trace["absent"], "absent_counts": trace["absent_counts"],
              "raw_spans": trace["raw"],
              "signatures": [[next(sigs) for _ in range(k)] for k in trace["ops_per_process"]],
              "per_op_totals": {name: {"calls": agg[0], "self_ns": agg[1], "counts": agg[2]}
                                for name, agg in sorted(totals.items())},
              "spans_within_op": outside == 0}
    return metrics, notes, detail


def run(args, spec: dict) -> dict:
    env = worker_env()
    meta = environment()
    meta["loadavg_start"] = os.getloadavg()[0]
    deadline = perf_counter_ns() + int(RUN_LIMIT_S * 1e9)
    setups, results = [], []
    cpus = sorted(os.sched_getaffinity(0))
    for process in range(PROCESSES):
        cpu = cpus[process % len(cpus)]
        ready, result = run_process(args, process, cpu, env, deadline)
        calibrate(ready, result)
        setups.append(ready)
        results.append(result)
    result = pool(results)
    meta["loadavg_end"] = os.getloadavg()[0]
    meta["numpy"] = setups[0]["numpy"]

    warmup_problems = [p for r in results for p in r["warmup_problems"]]
    attempted = result["attempted"] + len(results)
    failed = result["failed"] + sum(1 for r in results if r["warmup_problems"])
    e2e, notes = end_to_end(result, setups)
    correct = failed == 0
    if args.trace:
        metrics, trace_notes, detail = per_layer(result, setups)
        notes += trace_notes
        correct = correct and detail["spans_within_op"]
        wanted = spec["per_layer"]
        out = Path(args.trace_out) if args.trace_out else (
            BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "meta": meta, "metrics": metrics, **detail}) + "\n")
        notes.append(f"spans written to {out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}")
    else:
        metrics = e2e
        wanted = spec["end_to_end"]

    print(json.dumps({"workload": args.workload, "seed": args.seed, "meta": meta}))
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g}")
    for note in notes:
        print(f"  {note}")
    for problem in (warmup_problems + result["problems"])[:5]:
        print(f"  FAILED: {problem.strip()[:500]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="where the traced run writes its spans")
    args = ap.parse_args()
    if not (ROOT / "src" / "hypercnot" / "__init__.py").is_file():
        print(f"error: no hypercnot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(names)}",
              file=sys.stderr)
        return 2
    try:
        summary = run(args, spec)
    except (RunError, subprocess.SubprocessError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
