"""Span tracer that wraps hypercnot's functions by name, from outside.

Each hook names the attributes that callers look up at call time: a module
global such as ``hypercnot.gates:stage_polarization`` (the name
``_run_protocol`` resolves) or a class attribute such as
``hypercnot.hyperstate:HyperState.pol_hadamard``. ``install`` replaces those
attributes with timing wrappers and ``uninstall`` puts the originals back, so
no library file changes and an untraced op runs the library untouched.

A binding whose module or attribute no longer exists is skipped; a span with
no binding left is reported as absent, and a span whose work counts can no
longer be read from its arguments keeps its time and reports the counts as
absent, so the benchmark keeps running after a refactor removes a layer.

Spans are recorded only between ``begin_op`` and ``end_op``. Per op the
tracer keeps, for each span, the call count, the self time (duration minus
the time covered by child spans) and the exact work counts the hook extracts
from the arguments. The sum of all self times equals the time covered by the
op's top-level spans, so self times plus the uncovered remainder add up to
the op time exactly.
"""
from __future__ import annotations

import importlib
from time import perf_counter_ns

# Raw (start, end, parent) spans are kept for this many traced ops; the rest
# are aggregated only, so a run of thousands of ops stays small in memory.
RAW_OPS = 3


def _amps_in(args, kwargs):
    """Amplitudes the state holds on entry; the state is the first argument
    of every hooked stage, element and HyperState method."""
    state = args[0] if args else kwargs["state"]
    return {"amps_in": len(state.amplitudes)}


def _one_point(args, kwargs):
    return {"points": 1}


def _grid_points(args, kwargs):
    grid = args[0] if args else kwargs["grid"]
    return {"points": len(grid.g_ratios) * len(grid.ks_ratios)}


def _scan_points(args, kwargs):
    return {"points": int(args[0] if args else kwargs["n_cases"])}


def _shots(args, kwargs):
    return {"shots": int(args[3] if len(args) > 3 else kwargs["shots"])}


def _successes(result):
    return {"successes": int(result.successes)}


class Hook:
    """One span: its name, the bindings it wraps and its work counts."""

    def __init__(self, span, bindings, counts=(), pre=None, post=None):
        self.span = span
        self.bindings = bindings
        self.counts = counts  # count names reported as per-layer metrics
        self.pre = pre
        self.post = post


_HS = "hypercnot.hyperstate:HyperState."

HOOKS = (
    Hook("hyperstate.hadamard",
         (_HS + "pol_hadamard", _HS + "spatial_hadamard", _HS + "spin_hadamard"),
         ("amps_in",), pre=_amps_in),
    Hook("circuit.stage_polarization", ("hypercnot.gates:stage_polarization",),
         ("amps_in",), pre=_amps_in),
    Hook("circuit.stage_spatial", ("hypercnot.gates:stage_spatial",),
         ("amps_in",), pre=_amps_in),
    Hook("circuit.mirror_attenuate", ("hypercnot.circuit:mirror_attenuate",),
         ("amps_in",), pre=_amps_in),
    Hook("circuit.block_interact", ("hypercnot.circuit:block_interact",),
         ("amps_in",), pre=_amps_in),
    Hook("hyperstate.init_state", ("hypercnot.gates:init_state",)),
    Hook("hyperstate.phase_flip",
         (_HS + "pol_flip", _HS + "pol_phase", _HS + "spatial_phase", _HS + "spin_z")),
    Hook("hyperstate.measure_spins", (_HS + "measure_spins",)),
    Hook("gates.hyper_cnot_n",
         ("hypercnot:hyper_cnot_n", "hypercnot.gates:hyper_cnot_n",
          "hypercnot.analysis:hyper_cnot_n", "hypercnot.cli:hyper_cnot_n")),
    Hook("scattering.coeffs",
         ("hypercnot.gates:scatter_coeffs", "hypercnot.gates:block_coeffs",
          "hypercnot.analysis:scatter_coeffs", "hypercnot.analysis:block_coeffs",
          "hypercnot.cli:scatter_coeffs", "hypercnot.cli:block_coeffs")),
    Hook("hyperstate.fidelity",
         ("hypercnot:fidelity", "hypercnot.gates:fidelity",
          "hypercnot.analysis:fidelity", "hypercnot.cli:fidelity"),
         ("points",), pre=_one_point),
    Hook("gates.ideal_hyper_cnot_n",
         ("hypercnot:ideal_hyper_cnot_n", "hypercnot.gates:ideal_hyper_cnot_n",
          "hypercnot.analysis:ideal_hyper_cnot_n", "hypercnot.cli:ideal_hyper_cnot_n"),
         ("points",), pre=_one_point),
    Hook("analysis.sweep_efficiency",
         ("hypercnot:sweep_efficiency", "hypercnot.analysis:sweep_efficiency",
          "hypercnot.cli:sweep_efficiency"),
         ("points",), pre=_grid_points),
    Hook("analysis.fidelity_scan",
         ("hypercnot:fidelity_scan", "hypercnot.analysis:fidelity_scan",
          "hypercnot.cli:fidelity_scan"),
         ("points",), pre=_scan_points),
    Hook("gates.sample_shots",
         ("hypercnot:sample_shots", "hypercnot.gates:sample_shots",
          "hypercnot.cli:sample_shots"),
         ("shots", "success_ratio"), pre=_shots, post=_successes),
    Hook("cli.main", ("hypercnot.cli:main",)),
)

# Spans a workload process times around its own start-up, outside any hook.
STARTUP_SPANS = ("startup.interpreter", "startup.import")


def _resolve(binding):
    """(owner, attribute, original, owned) for a binding, or None when its
    module or attribute is gone. ``owned`` says whether the attribute sits in
    the owner's own namespace, so uninstall can restore an inherited method
    by deleting the override."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    owned = attr in vars(owner)
    return owner, attr, getattr(owner, attr), owned


class Tracer:
    """Installs the hooks and records spans for the ops it is told about."""

    def __init__(self):
        self.ops = []          # per-op {"op_ns", "covered_ns", "spans"}
        self.raw = []          # raw spans of the first RAW_OPS traced ops
        self.absent = []       # spans with no binding left
        self.absent_counts = set()  # spans whose counts could not be read
        self._patches = []     # (owner, attr, original, owned, wrapper)
        self._stack = None
        self._spans = None
        self._raw_op = None
        self._next_id = 0
        for hook in HOOKS:
            wrappers = {}      # one wrapper per original, shared by aliases
            for binding in hook.bindings:
                found = _resolve(binding)
                if found is None:
                    continue
                owner, attr, original, owned = found
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = self._wrap(hook, original)
                self._patches.append((owner, attr, original, owned, wrapper))
            if not wrappers:
                self.absent.append(hook.span)

    def install(self):
        for owner, attr, _, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, owned, _ in self._patches:
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def begin_op(self):
        self._stack = [[0, None]]   # root frame: [child ns, span id]
        self._spans = {}
        self._raw_op = [] if len(self.raw) < RAW_OPS else None

    def end_op(self, op_ns, extra_spans=None, extra_covered_ns=0, extra_raw=()):
        """Close the op. ``extra_spans`` merges spans measured elsewhere (a
        child process, start-up) whose top-level time is ``extra_covered_ns``."""
        for name, (calls, self_ns, counts) in (extra_spans or {}).items():
            self._add(name, calls, self_ns, counts)
        self.ops.append({"op_ns": op_ns,
                         "covered_ns": self._stack[0][0] + extra_covered_ns,
                         "spans": self._spans})
        if self._raw_op is not None:
            self.raw.append(self._raw_op + list(extra_raw))
        self._stack = self._spans = self._raw_op = None

    def _add(self, name, calls, self_ns, counts):
        agg = self._spans.get(name)
        if agg is None:
            agg = self._spans[name] = [0, 0, {}]
        agg[0] += calls
        agg[1] += self_ns
        for key, value in counts.items():
            agg[2][key] = agg[2].get(key, 0) + value

    def _wrap(self, hook, fn):
        tracer = self
        span, pre, post = hook.span, hook.pre, hook.post

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack is None:   # called outside a traced op
                return fn(*args, **kwargs)
            try:
                counts = pre(args, kwargs) if pre else {}
            except (AttributeError, KeyError, IndexError, TypeError):
                # The arguments no longer have the shape the count reads.
                tracer.absent_counts.add(span)
                counts = {}
            tracer._next_id += 1
            frame = [0, tracer._next_id]
            parent = stack[-1]
            stack.append(frame)
            done = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                parent[0] += t1 - t0
                if done and post:
                    try:
                        counts = {**counts, **post(result)}
                    except (AttributeError, KeyError, TypeError):
                        tracer.absent_counts.add(span)
                tracer._add(span, 1, t1 - t0 - frame[0], counts)
                if tracer._raw_op is not None:
                    tracer._raw_op.append((span, frame[1], parent[1], t0, t1))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper
