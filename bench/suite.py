"""Run the whole benchmark: every workload over ten seeds, one traced run
per workload and the work-count self-check, then print each end-to-end
metric with its unit, median and quartile spread.

    python3 bench/suite.py --out bench/results/BENCH_<commit>.json

Each run is ``bench/run.py`` in its own process, exactly as a single run is
made. The spread of a metric is (q3 - q1) / median over the seeds, with the
quartiles of ``statistics.quantiles(values, n=4)``. The self-check makes two
traced runs at one seed and requires the exact work counts of every op they
both ran (calls, ``amps_in``, ``points``, ``shots``, successes) to agree bit
for bit. Exit code 1 when an output check, the self-check or a run failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, environment

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Runs per workload, as many as the acceptance of a benchmark change asks for.
SEEDS = 10
SELFCHECK_SECONDS = 3.0


def bench_run(workload: str, seed: int, seconds: float, trace: int,
              trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    summary = json.loads(lines[-1])
    summary["seed"] = seed
    summary["run_meta"] = json.loads(lines[0])["meta"]
    summary["notes"] = [line.strip() for line in lines[1:-1]]
    return summary


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def selfcheck(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    sigs = []
    for k in (1, 2):
        out = scratch / f"selfcheck-{workload}-{k}.json"
        bench_run(workload, seed, seconds, 1, out)
        sigs.append(json.loads(out.read_text())["signatures"])
    # Runs are timed, so the two may complete different numbers of ops in
    # each process; compare the ops both completed.
    common = [min(len(a), len(b)) for a, b in zip(*sigs)]
    same = sum(common) > 0 and all(a[:k] == b[:k] for a, b, k in zip(*sigs, common))
    return {"seed": seed, "ops_compared": sum(common), "identical": same}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write every run and the summary to this JSON file")
    args = ap.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    seeds = list(range(1, SEEDS + 1))

    report = {"meta": environment(), "run_seconds": seconds, "seeds": seeds,
              "runs": {w: [] for w in workloads}, "summary": {}, "traced": {},
              "selfcheck": {}}
    ok = True
    for seed in seeds:
        for w in workloads:
            summary = bench_run(w, seed, seconds, 0)
            ok &= summary["correct"]
            report["runs"][w].append(summary)
            print(f"{w} seed {seed}: correct={summary['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in summary["metrics"].items()), flush=True)

    print(f"\n{'workload':<14}{'metric':<13}{'unit':<6}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'spread':>9}{'bound':>7}")
    for w in workloads:
        runs = report["runs"][w]
        summary = {}
        for m in SPEC["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            summary[m["name"]] = {**s, "unit": m["unit"], "bound": m["bound"]}
            print(f"{w:<14}{m['name']:<13}{m['unit']:<6}{s['median']:>12.6g}{s['q1']:>12.6g}"
                  f"{s['q3']:>12.6g}{s['spread']:>9.4f}{m['bound']:>7}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary["error_rate"] = {"value": failed / attempted, "unit": "1",
                                 "attempted": attempted, "failed": failed}
        print(f"{w:<14}{'error_rate':<13}{'1':<6}{failed / attempted:>12.6g}"
              f"   ({failed} of {attempted} ops failed)")
        report["summary"][w] = summary

    scratch = BENCH / "out"
    scratch.mkdir(exist_ok=True)
    for w in workloads:
        traced = bench_run(w, seeds[0], seconds, 1)
        ok &= traced["correct"]
        report["traced"][w] = traced
        check = selfcheck(w, seeds[0], SELFCHECK_SECONDS, scratch)
        ok &= check["identical"]
        report["selfcheck"][w] = check
        m = traced["metrics"]
        print(f"\n{w} traced: overhead_ratio={m['trace.overhead_ratio']['value']:.4f} "
              f"op_ms={m['trace.op_ms']['value']:.4f} "
              f"uncovered_ms={m['trace.uncovered_ms']['value']:.4f}; "
              f"self-check {'identical' if check['identical'] else 'DIFFERENT'} "
              f"over {check['ops_compared']} ops")
        self_ms = {k: v["value"] for k, v in m.items() if k.endswith(".self_ms") and v["value"]}
        for name, value in sorted(self_ms.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<38} {value:.4f} ms")

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
