"""Run ``python -m hypercnot ARGS...`` with the benchmark's hooks installed.

The traced run of the ``cli_shots`` workload starts this script in place of
``python -m hypercnot``. It times the interpreter start (up to its first
statement) and ``import hypercnot``, runs the package's ``__main__`` exactly
as ``-m`` does, and writes the spans as one line prefixed with ``SPANS_TAG``
on standard error. Standard output and the exit code are the CLI's own.
"""
from time import perf_counter_ns

T_FIRST_NS = perf_counter_ns()

import json
import runpy
import sys

SPANS_TAG = "BENCH_SPANS "


def main() -> int:
    from tracer import Tracer

    t0 = perf_counter_ns()
    import hypercnot
    import hypercnot.cli
    import_ns = perf_counter_ns() - t0

    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    sys.argv = ["hypercnot", *sys.argv[1:]]
    code = 0
    t1 = perf_counter_ns()
    try:
        runpy.run_module("hypercnot", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.end_op(perf_counter_ns() - t1)
        tracer.uninstall()
    op = tracer.ops[0]
    sys.stdout.flush()
    sys.stderr.write(SPANS_TAG + json.dumps({
        "t_first_ns": T_FIRST_NS,
        "import_ns": import_ns,
        "import_start_ns": t0,
        "covered_ns": op["covered_ns"],
        "spans": op["spans"],
        "raw": tracer.raw[0] if tracer.raw else [],
        "absent": tracer.absent,
        "absent_counts": sorted(tracer.absent_counts),
    }) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
