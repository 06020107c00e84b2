"""Command-line front end.

Subcommands
-----------
run          run one CNOT / CNOT^N gate on given input photons
truth-table  all 16 two-photon basis inputs at one parameter point
sweep        efficiency/fidelity over a (g ratio, side-leakage ratio) grid
verify       randomized self-check of gate exactness and bookkeeping
sample       Monte Carlo shots of the heralded gate

Photon specs are either shorthand ``POL,MODE`` with POL in {R, L, +} and MODE
in {1, 2, a1, a2, b1, b2, +} (``+`` is the uniform superposition), or fully
explicit ``pol=(re,im),(re,im);spat=(re,im),(re,im)``.

Cavity parameters come from flags (--g --kappa --kappa-s --gamma
--detuning-c --detuning-x) or a JSON --params-file holding either those raw
values or ratio form (g_ratio, ks_ratio, gamma_ratio, detuning_c,
detuning_x), not both; flags override the file. Detunings are
cavity/emitter offsets from the photon carrier frequency in units of kappa=1
unless raw values are given.

Exit codes: 0 success, 1 verify found a violation, 2 invalid input,
3 degenerate physics (the gate can never herald), 4 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from .analysis import MAX_GRID_POINTS, SweepGrid, emit_report, fidelity_scan, sweep_efficiency
from .errors import DegeneratePhysicsError, ValidationError
from .gates import (
    GateConfig,
    hyper_cnot_n,
    ideal_hyper_cnot_n,
    sample_shots,
    truth_table,
)
from .hyperstate import PhotonSpec, fidelity
from .scattering import CavityParams, block_coeffs, scatter_coeffs

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_POL_SHORTHAND = {
    "R": (1.0, 0.0),
    "L": (0.0, 1.0),
    "+": (_SQRT_HALF, _SQRT_HALF),
}
_SPAT_SHORTHAND = {
    "1": (1.0, 0.0), "a1": (1.0, 0.0), "b1": (1.0, 0.0),
    "2": (0.0, 1.0), "a2": (0.0, 1.0), "b2": (0.0, 1.0),
    "+": (_SQRT_HALF, _SQRT_HALF),
}

_PAIR_RE = re.compile(r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")


def _parse_pair_list(text: str, field: str) -> tuple[complex, complex]:
    pairs = _PAIR_RE.findall(text)
    if len(pairs) != 2:
        raise ValidationError(
            f"{field}: expected two (re,im) pairs, got {text!r}")
    try:
        c0 = complex(float(pairs[0][0]), float(pairs[0][1]))
        c1 = complex(float(pairs[1][0]), float(pairs[1][1]))
    except ValueError as exc:
        raise ValidationError(f"{field}: bad number in {text!r}: {exc}") from None
    return (c0, c1)


def parse_photon_spec(text: str, field: str = "photon") -> PhotonSpec:
    """Parse a CLI photon spec (see module docstring for the grammar)."""
    text = text.strip()
    if "=" in text:
        parts = [p.strip() for p in text.split(";") if p.strip()]
        coeffs: dict[str, tuple[complex, complex]] = {}
        for part in parts:
            key, _, value = part.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in ("pol", "spat"):
                raise ValidationError(
                    f"{field}: unknown key {key!r} (expected pol= and spat=)")
            table = _POL_SHORTHAND if key == "pol" else _SPAT_SHORTHAND
            if value in table:
                coeffs[key] = table[value]
            else:
                coeffs[key] = _parse_pair_list(value, f"{field}.{key}")
        missing = {"pol", "spat"} - coeffs.keys()
        if missing:
            raise ValidationError(f"{field}: missing {sorted(missing)} in {text!r}")
        try:
            return PhotonSpec(pol=coeffs["pol"], spatial=coeffs["spat"])
        except ValidationError as exc:
            raise ValidationError(f"{field}: {exc}") from None
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != 2:
        raise ValidationError(
            f"{field}: expected POL,MODE shorthand or pol=...;spat=..., got {text!r}")
    pol_tok, spat_tok = tokens
    if pol_tok not in _POL_SHORTHAND:
        raise ValidationError(f"{field}: unknown polarization {pol_tok!r}")
    if spat_tok not in _SPAT_SHORTHAND:
        raise ValidationError(f"{field}: unknown spatial mode {spat_tok!r}")
    return PhotonSpec(pol=_POL_SHORTHAND[pol_tok], spatial=_SPAT_SHORTHAND[spat_tok])


def parse_axis(text: str, name: str) -> tuple[float, ...]:
    """Sweep axis: inclusive ``start:stop:step`` or a comma list, of finite
    values and at most ``analysis.MAX_GRID_POINTS`` points, the most a sweep
    grid may hold. A range's count is checked before the axis is built."""
    range_form = ":" in text
    parts = text.split(":") if range_form else [t for t in text.split(",") if t.strip()]
    if range_form and len(parts) != 3:
        raise ValidationError(f"{name}: expected start:stop:step, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"{name}: bad number in {text!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{name}: values must be finite, got {text!r}")
    if range_form:
        start, stop, step = values
        if step <= 0:
            raise ValidationError(f"{name}: step must be > 0")
        if stop < start:
            raise ValidationError(f"{name}: stop must be >= start")
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:  # also an overflow to inf
            raise ValidationError(
                f"{name}: {text!r} has more than {MAX_GRID_POINTS} points")
        return tuple(min(start + k * step, stop) for k in range(int(span) + 1))
    if not values:
        raise ValidationError(f"{name}: empty axis {text!r}")
    if len(values) > MAX_GRID_POINTS:
        raise ValidationError(f"{name}: {text!r} has more than {MAX_GRID_POINTS} points")
    return tuple(values)


# -- run-spec file and cavity parameter resolution ----------------------------
#
# --params-file points at a JSON document mirroring the run spec: any of
#   gate ("cnot"/"cnotn"), control, targets (photon spec strings), params
#   (object, raw or ratio form), seed, format, out
# may appear. main() turns the keys the subcommand has flags for into
# --flag=value tokens placed ahead of the command line, so file values are
# checked by the same argparse types and choices as flags, and flags win.

_RUNSPEC_KEYS = ("gate", "control", "targets", "params", "seed", "format", "out")
_RAW_KEYS = ("g", "kappa", "kappa_s", "gamma", "detuning_c", "detuning_x")
_RATIO_KEYS = ("g_ratio", "ks_ratio", "gamma_ratio", "detuning_c", "detuning_x")


def _load_run_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    unknown = set(data) - set(_RUNSPEC_KEYS)
    if unknown:
        raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError(f"{path}: params must be an object")
    unknown = set(params) - set(_RAW_KEYS) - set(_RATIO_KEYS)
    if unknown:
        raise ValidationError(f"{path}: unknown params keys {sorted(unknown)}")
    return data


def _file_number(file_params: dict, key: str) -> float:
    value = file_params[key]
    if not isinstance(value, bool):  # JSON true/false are not numbers
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"params file: {key} must be a number, got {value!r}")


def _raw_file_params(file_params: dict) -> dict[str, float]:
    """The file's params object as raw values keyed like the flags' dests.
    Ratio keys the file leaves out take ``CavityParams.from_ratios``'s
    defaults, and ks_ratio, which has none, 0. Refuses an object that mixes
    the two forms' own keys, or gives ratio keys without g_ratio: either
    would drop values silently."""
    raw = sorted(set(file_params) - set(_RATIO_KEYS))
    ratio = sorted(set(file_params) - set(_RAW_KEYS))
    if raw and ratio:
        raise ValidationError(
            f"params file: raw keys {raw} and ratio keys {ratio} cannot be mixed")
    if not ratio:
        return {k: _file_number(file_params, k) for k in _RAW_KEYS if k in file_params}
    if "g_ratio" not in file_params:
        raise ValidationError(f"params file: ratio keys {ratio} need g_ratio")
    ratios = {k: _file_number(file_params, k) for k in _RATIO_KEYS if k in file_params}
    p = CavityParams.from_ratios(**{"ks_ratio": 0.0, **ratios})
    return dict(zip(_RAW_KEYS, (p.g, p.kappa, p.kappa_s, p.gamma, p.omega_c, p.omega_x)))


def _file_argv(args: argparse.Namespace) -> list[str]:
    """--flag=value tokens for the params file's keys that the parsed
    subcommand has a flag for; other keys are ignored. The file's targets are
    dropped when --target was given, and gate "cnot" means --n-targets 1."""
    flags = vars(args)
    items: list[tuple[str, object]] = []
    for key, value in _load_run_file(args.params_file).items():
        if key == "params":
            items += _raw_file_params(value).items()
        elif key == "targets":
            if not isinstance(value, list):
                raise ValidationError("file key 'targets' must be a list of photon specs")
            if not flags.get("target"):
                items += [("target", t) for t in value]
        elif key == "gate":
            if value not in (None, "cnot", "cnotn"):
                raise ValidationError(f"unknown gate {value!r}, expected cnot or cnotn")
            if value == "cnot":
                items.append(("n_targets", 1))
        elif value is not None:  # null leaves the flag unset
            items.append((key, value))
    return [f"--{dest.replace('_', '-')}="
            + (value if isinstance(value, str) else json.dumps(value))
            for dest, value in items if dest in flags]


def resolve_params(args: argparse.Namespace) -> CavityParams:
    """CavityParams from the parsed cavity flags."""
    if args.g is None:
        raise ValidationError(
            "cavity coupling g is not set (use --g or a params file)")
    return CavityParams(g=args.g, kappa=args.kappa, kappa_s=args.kappa_s,
                        gamma=args.gamma, omega=0.0,
                        omega_c=args.detuning_c, omega_x=args.detuning_x)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params-file", help="JSON file of cavity parameters")
    p.add_argument("--g", type=float, help="emitter-cavity coupling")
    p.add_argument("--kappa", type=float, default=1.0,
                   help="output-port cavity decay (default 1)")
    p.add_argument("--kappa-s", type=float, default=0.0, help="side leakage (default 0)")
    p.add_argument("--gamma", type=float, default=0.0,
                   help="emitter dipole decay (default 0)")
    p.add_argument("--detuning-c", type=float, default=0.0,
                   help="cavity detuning from the photon carrier (default 0)")
    p.add_argument("--detuning-x", type=float, default=0.0,
                   help="emitter detuning from the photon carrier (default 0)")


def _add_out_flags(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", help="output path (default: stdout)")


def _write_output(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write to {out}: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(a: complex) -> str:
    return f"{a.real:.12g}{a.imag:+.12g}j"


def _gate_config(args: argparse.Namespace, n_targets: int) -> GateConfig:
    return GateConfig(params=resolve_params(args), n_targets=n_targets,
                      mirror_scale=args.mirror_override,
                      rng_seed=getattr(args, "seed", None))


def _parse_photon_args(args: argparse.Namespace) -> tuple[PhotonSpec, list[PhotonSpec]]:
    if args.control is None:
        raise ValidationError("control photon not given (--control or file)")
    control = parse_photon_spec(args.control, "control")
    targets = [parse_photon_spec(t, f"target {i + 1}")
               for i, t in enumerate(args.target)]
    if not targets:
        raise ValidationError("at least one target photon is required")
    if args.n_targets is not None and args.n_targets != len(targets):
        raise ValidationError(
            f"--n-targets {args.n_targets} but {len(targets)} targets given")
    return control, targets


def cmd_run(args: argparse.Namespace) -> int:
    control, targets = _parse_photon_args(args)
    cfg = _gate_config(args, len(targets))
    outcome = hyper_cnot_n(control, targets, cfg)
    ideal = ideal_hyper_cnot_n(control, targets)
    fid = fidelity(outcome.conditional_state, ideal)
    bc = block_coeffs(scatter_coeffs(cfg.params))
    gate = "cnot" if len(targets) == 1 else f"cnot^{len(targets)}"
    if args.format == "json":
        payload = {
            "gate": gate,
            "n_targets": len(targets),
            "abs_T": abs(bc.T),
            "success_prob": outcome.success_prob,
            "detector_probs": outcome.detector_probs,
            "heralded_failure_prob": outcome.heralded_failure_prob,
            "absorbed_prob": outcome.absorbed_prob,
            "spin_record": [s.name.lower() for s in outcome.spin_record],
            "corrections": {"pol_phase": outcome.corrections[0],
                            "spatial_phase": outcome.corrections[1]},
            "fidelity": fid,
            "amplitudes": {str(label): [amp.real, amp.imag]
                           for label, amp in outcome.conditional_state.labeled_amplitudes()},
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    det = outcome.detector_probs
    lines = [
        f"gate: {gate} ({len(targets)} target photon{'s' if len(targets) > 1 else ''})",
        f"block |T| = {_fmt(abs(bc.T))}, |D| = {_fmt(abs(bc.D))}",
        f"success probability   {_fmt(outcome.success_prob)}",
        f"heralded failure      {_fmt(outcome.heralded_failure_prob)}  "
        f"(detector_B1 {_fmt(det['detector_B1'])}, detector_B2 {_fmt(det['detector_B2'])})",
        f"absorbed              {_fmt(outcome.absorbed_prob)}",
        f"spin record           s1={outcome.spin_record[0].name.lower()} "
        f"s2={outcome.spin_record[1].name.lower()}",
        f"feed-forward          pol_phase={'yes' if outcome.corrections[0] else 'no'} "
        f"spatial_phase={'yes' if outcome.corrections[1] else 'no'}",
        f"fidelity vs ideal     {_fmt(fid)}",
        "conditional state:",
    ]
    for label, amp in outcome.conditional_state.labeled_amplitudes():
        lines.append(f"  {str(label):<12} {_fmt_complex(amp)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_truth_table(args: argparse.Namespace) -> int:
    rows = truth_table(_gate_config(args, 1))
    if args.format == "json":
        payload = [{"control": r.control, "target": r.target,
                    "output": r.output, "fidelity": r.fidelity} for r in rows]
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        lines = ["control,target,output,fidelity"]
        lines += [f"{r.control},{r.target},{r.output},{r.fidelity!r}" for r in rows]
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{'control':<9}{'target':<9}{'output':<14}fidelity"]
        lines += [f"{r.control:<9}{r.target:<9}{r.output:<14}{_fmt(r.fidelity)}"
                  for r in rows]
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = SweepGrid(
        g_ratios=parse_axis(args.g_ratio, "--g-ratio"),
        ks_ratios=parse_axis(args.ks_ratio, "--ks-ratio"),
        gamma_ratio=args.gamma_ratio,
        detuning_c=args.detuning_c or 0.0,
        detuning_x=args.detuning_x or 0.0,
        n_targets=args.n_targets,
    )
    rows = sweep_efficiency(grid)
    if args.out in (None, "-"):
        emit_report(rows, args.format, sys.stdout)
    else:
        emit_report(rows, args.format, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, float, str, bool]] = []
    scan = fidelity_scan(args.n_cases, args.seed, args.n_targets,
                         mirror_scale=args.mirror_override)
    checks.append(("scan min fidelity", scan.min_fidelity,
                   ">= 1-1e-10", scan.min_fidelity >= 1.0 - 1e-10))
    checks.append(("scan max success deviation", scan.max_success_deviation,
                   "<= 1e-12", scan.max_success_deviation <= 1e-12))
    checks.append(("scan max conservation error", scan.max_conservation_error,
                   "<= 1e-12", scan.max_conservation_error <= 1e-12))
    tt_cfg = GateConfig(params=CavityParams(g=3.3, kappa=1.0, kappa_s=0.1, gamma=0.1),
                        mirror_scale=args.mirror_override)
    tt_min = min(r.fidelity for r in truth_table(tt_cfg))
    checks.append(("truth-table min fidelity", tt_min,
                   ">= 1-1e-12", tt_min >= 1.0 - 1e-12))
    lines = [f"fidelity scan: n_cases={scan.n_cases} seed={args.seed} "
             f"n_targets={scan.n_targets}"
             + (f" mirror_scale={args.mirror_override}"
                if args.mirror_override is not None else ""),
             f"  mean fidelity {_fmt(scan.mean_fidelity)}"]
    ok = True
    for name, value, bound, passed in checks:
        ok &= passed
        lines.append(f"  {name:<28} {_fmt(value):<22} "
                     f"{'PASS' if passed else 'FAIL'} ({bound})")
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    _write_output("\n".join(lines) + "\n", getattr(args, "out", None))
    return 0 if ok else 1


def cmd_sample(args: argparse.Namespace) -> int:
    control, targets = _parse_photon_args(args)
    cfg = _gate_config(args, len(targets))
    stats = sample_shots(control, targets, cfg, args.shots)
    if args.format == "json":
        payload = {
            "shots": stats.shots,
            "seed": cfg.rng_seed,
            "successes": stats.successes,
            "success_frequency": stats.success_frequency,
            "success_prob": stats.success_prob,
            "detector_clicks": stats.detector_clicks,
            "absorbed": stats.absorbed,
            "spin_counts": {f"{a.name.lower()},{b.name.lower()}": c
                            for (a, b), c in stats.spin_counts.items()},
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [
        f"shots                 {stats.shots}",
        f"seed                  {cfg.rng_seed}",
        f"successes             {stats.successes}  "
        f"(frequency {_fmt(stats.success_frequency)}, exact {_fmt(stats.success_prob)})",
        f"detector_B1 clicks    {stats.detector_clicks['detector_B1']}",
        f"detector_B2 clicks    {stats.detector_clicks['detector_B2']}",
        f"absorbed              {stats.absorbed}",
        "spin records          " + "  ".join(
            f"{a.name.lower()},{b.name.lower()}={c}"
            for (a, b), c in sorted(stats.spin_counts.items())),
    ]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercnot",
        description="Heralded hyperparallel photonic CNOT gate simulator.",
        epilog="examples:\n"
               "  hypercnot run --control L,a2 --target R,b1 --g 3.3 --kappa-s 0.1 --gamma 0.1\n"
               "  hypercnot sweep --g-ratio 0:5:0.1 --ks-ratio 0,0.1,0.5,1 --out sweep.csv\n"
               "  hypercnot sample --control +,+ --target +,+ --shots 100000 --seed 7 "
               "--g 3.3 --kappa-s 0.1 --gamma 0.1\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one gate on given input photons")
    run.add_argument("--control", help="control photon spec")
    run.add_argument("--target", action="append", default=[],
                     help="target photon spec (repeat for CNOT^N)")
    run.add_argument("--n-targets", type=int, help="cross-check of target count")
    _add_param_flags(run)
    _add_out_flags(run, ("text", "json"))
    run.set_defaults(func=cmd_run)

    tt = sub.add_parser("truth-table", help="all 16 basis inputs at one point")
    _add_param_flags(tt)
    _add_out_flags(tt, ("text", "csv", "json"))
    tt.set_defaults(func=cmd_truth_table)

    sw = sub.add_parser("sweep", help="grid sweep over coupling and side leakage")
    sw.add_argument("--g-ratio", required=True,
                    help="axis of g/(kappa+kappa_s): start:stop:step or comma list")
    sw.add_argument("--ks-ratio", required=True,
                    help="axis of kappa_s/kappa: start:stop:step or comma list")
    sw.add_argument("--gamma-ratio", type=float, default=0.1,
                    help="gamma/kappa held fixed across the grid (default 0.1)")
    sw.add_argument("--detuning-c", type=float, help="cavity detuning (default 0)")
    sw.add_argument("--detuning-x", type=float, help="emitter detuning (default 0)")
    sw.add_argument("--n-targets", type=int, default=1)
    _add_out_flags(sw, ("csv", "json"))
    sw.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="randomized exactness self-check")
    ver.add_argument("--n-cases", type=int, default=200)
    ver.add_argument("--seed", type=int, default=12345)
    ver.add_argument("--n-targets", type=int, default=1)
    ver.add_argument("--out", help="output path (default: stdout)")
    ver.set_defaults(func=cmd_verify)

    sam = sub.add_parser("sample", help="Monte Carlo shots of the heralded gate")
    sam.add_argument("--control")
    sam.add_argument("--target", action="append", default=[])
    sam.add_argument("--n-targets", type=int, help="cross-check of target count")
    sam.add_argument("--shots", type=int, default=10000)
    sam.add_argument("--seed", type=int, help="RNG seed (required)")
    _add_param_flags(sam)
    _add_out_flags(sam, ("text", "json"))
    sam.set_defaults(func=cmd_sample)

    for p in (run, tt, ver, sam):
        p.add_argument("--mirror-override", type=float, help="scale the balancing "
                       "mirrors' transmission by this factor (default: balanced)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "params_file", None) is not None:
            # argv[0] is the subcommand; the file's tokens come first so that
            # the command line's own flags win.
            args = parser.parse_args([argv[0], *_file_argv(args), *argv[1:]])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DegeneratePhysicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
