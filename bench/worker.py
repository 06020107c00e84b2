"""One workload process of the benchmark; ``run.py`` starts it.

Set-up is ``import hypercnot``, building the workload and one warm-up op; the
process then prints a ``ready`` line and checks the warm-up output. It then
runs ops in a closed loop, one caller, for ``--seconds``, timing each op with
``perf_counter_ns`` and checking its output after the timer stops, and prints
one JSON result line.
``--process`` selects the process's own input stream, so the processes of one
run never share inputs.

With ``--trace 1`` odd-numbered ops run with the hooks installed and even ones
without, so the traced/untraced latency ratio is measured on one process.

Between ops, outside the timed interval, the process times the workload's
reference (``Workload.reference``: fixed work like the op's that does not touch
the library) for the workload's ``ref_share`` of the loop's time. ``run.py``
uses those times to express the op times at a fixed machine speed; see there.
"""
from time import perf_counter_ns

T_FIRST_NS = perf_counter_ns()

import argparse
import json
import os
import sys
import traceback

# Reference samples taken right after set-up, before the first op.
REF_FIRST = 3
# Stop looping after this long even if the minimum op count is not reached,
# so the five processes of a run end within run.py's RUN_LIMIT_S.
HARD_STOP_S = 25.0


def _probe_spans(spawn_ns, proc, tracer):
    """Spans and covered time of a traced CLI child, from its stderr."""
    from cliprobe import SPANS_TAG
    for line in reversed(proc.stderr.splitlines()):
        if line.startswith(SPANS_TAG):
            probe = json.loads(line[len(SPANS_TAG):])
            break
    else:
        raise RuntimeError("traced CLI child wrote no spans")
    tracer.absent_counts.update(probe["absent_counts"])
    interp_ns = probe["t_first_ns"] - spawn_ns
    spans = {name: (calls, self_ns, counts)
             for name, (calls, self_ns, counts) in probe["spans"].items()}
    spans["startup.interpreter"] = (1, interp_ns, {})
    spans["startup.import"] = (1, probe["import_ns"], {})
    raw = [("startup.interpreter", -1, None, spawn_ns, probe["t_first_ns"]),
           ("startup.import", -2, None, probe["import_start_ns"],
            probe["import_start_ns"] + probe["import_ns"]),
           *map(tuple, probe["raw"])]
    return spans, probe["covered_ns"] + interp_ns + probe["import_ns"], raw


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--process", type=int, default=0)
    ap.add_argument("--cpu", type=int, help="pin this process and its children to one CPU")
    ap.add_argument("--min-ops", type=int, default=1)
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    t0 = perf_counter_ns()
    import hypercnot  # timed: the library's import cost
    import_ns = perf_counter_ns() - t0
    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.process)
    warm = wl.inputs(-1)
    warm_out = warm_error = None
    try:
        warm_out = wl.run(warm)
    except Exception:
        warm_error = traceback.format_exc(limit=3)
    # Set-up ends here; the warm-up output is checked after the ready line.
    print(json.dumps({"ready": True, "t_first_ns": T_FIRST_NS, "import_ns": import_ns,
                      "numpy": numpy.__version__}), flush=True)
    try:
        warmup_problems = [warm_error] if warm_error else wl.check(warm, warm_out)
    except Exception:
        warmup_problems = [traceback.format_exc(limit=3)]
    del warm_out   # not held through the loop, where it would raise peak RSS

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    in_process = wl.in_process

    ref_ns = [wl.reference() for _ in range(REF_FIRST)]
    untraced_ns, traced_ns = [], []
    # Per op, how many reference samples were taken before it.
    untraced_ref, traced_ref = [], []
    work = attempted = failed = 0
    problem_log = []
    start = perf_counter_ns()
    deadline = start + int(args.seconds * 1e9)
    hard_stop = start + int(HARD_STOP_S * 1e9)
    op = 0
    while True:
        now = perf_counter_ns()
        if (now >= deadline and attempted >= args.min_ops) or now >= hard_stop:
            break
        inp = wl.inputs(op)
        traced = tracer is not None and op % 2 == 1
        if traced and in_process:
            tracer.install()
            tracer.begin_op()
        out = error = None
        t0 = perf_counter_ns()
        try:
            out = wl.run(inp, traced)
        except Exception:
            error = traceback.format_exc(limit=3)
        t1 = perf_counter_ns()
        if traced and in_process:
            tracer.end_op(t1 - t0)
            tracer.uninstall()
        (traced_ns if traced else untraced_ns).append(t1 - t0)
        (traced_ref if traced else untraced_ref).append(len(ref_ns))
        attempted += 1
        op += 1
        try:
            problems = [error] if error else wl.check(inp, out)
            if traced and not in_process and not problems:
                tracer.begin_op()
                spans, covered, raw = _probe_spans(*out, tracer)
                tracer.end_op(t1 - t0, spans, covered, raw)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failed += 1
            problem_log.extend(problems[:2])
        else:
            work += wl.work(inp)
        while sum(ref_ns) < wl.ref_share * (perf_counter_ns() - start):
            ref_ns.append(wl.reference())

    result = {
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
        "ref_ns": ref_ns,
        "ref_nominal_ns": wl.ref_nominal_ns,
        "untraced_ref": untraced_ref,
        "traced_ref": traced_ref,
        "work": work,
        "work_unit": wl.work_unit,
        "in_process": in_process,
        "attempted": attempted,
        "failed": failed,
        "problems": problem_log[:5],
        "warmup_problems": warmup_problems,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    if tracer is not None:
        result["trace"] = {"ops": tracer.ops, "raw": tracer.raw, "absent": tracer.absent,
                           "absent_counts": sorted(tracer.absent_counts)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
