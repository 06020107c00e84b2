"""CLI parsing, subcommands, exit codes, and output formats."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypercnot import ValidationError, load_report
from hypercnot.analysis import MAX_GRID_POINTS
from hypercnot.cli import main, parse_axis, parse_photon_spec

ROOT = Path(__file__).resolve().parent.parent
BENCH = ["--g", "3.3", "--kappa-s", "0.1", "--gamma", "0.1"]
ETA_1 = 0.6512926891789744


class TestParsePhotonSpec:
    def test_shorthand(self):
        spec = parse_photon_spec("L,a2")
        assert spec.pol == (0.0, 1.0)
        assert spec.spatial == (0.0, 1.0)

    def test_uniform_shorthand(self):
        spec = parse_photon_spec("+,+")
        assert spec.pol[0] == pytest.approx(2 ** -0.5)
        assert spec.spatial[1] == pytest.approx(2 ** -0.5)

    def test_long_form_with_pairs(self):
        spec = parse_photon_spec("pol=(0.6,0),(0,0.8);spat=+", "control")
        assert spec.pol == (0.6, 0.8j)

    def test_long_form_with_shorthand_values(self):
        spec = parse_photon_spec("pol=R;spat=2")
        assert spec.pol == (1.0, 0.0)
        assert spec.spatial == (0.0, 1.0)

    @pytest.mark.parametrize("text", [
        "X,1",            # unknown polarization
        "R,9",            # unknown mode
        "R",              # one token
        "pol=R",          # missing spat
        "pol=R;spat=2;x=1",
        "pol=(1,0);spat=2",            # one pair only
        "pol=(a,0),(0,1);spat=2",      # bad number
        "pol=(1,0),(1,0);spat=2",      # unnormalized
    ])
    def test_rejects_and_names_the_field(self, text):
        with pytest.raises(ValidationError, match="control"):
            parse_photon_spec(text, "control")


class TestParseAxis:
    def test_range_is_inclusive(self):
        values = parse_axis("0:5:0.1", "--g-ratio")
        assert len(values) == 51
        assert values[0] == 0.0
        assert values[-1] == 5.0

    def test_comma_list_and_single_value(self):
        assert parse_axis("0,0.1,0.5,1", "x") == (0.0, 0.1, 0.5, 1.0)
        assert parse_axis("3", "x") == (3.0,)

    @pytest.mark.parametrize("text", [
        "1:0:0.1",   # stop < start
        "0:1:0",     # zero step
        "0:1:-1",    # negative step
        "0:1",       # wrong arity
        "a,b",
        "",
    ])
    def test_rejects(self, text):
        with pytest.raises(ValidationError, match="--axis"):
            parse_axis(text, "--axis")

    @pytest.mark.parametrize("text", ["nan", "0,inf", "0:inf:1", "nan:1:0.1",
                                      "0:1:nan", "-inf:0:1"])
    def test_rejects_non_finite(self, text):
        with pytest.raises(ValidationError, match="--axis: values must be finite"):
            parse_axis(text, "--axis")

    def test_point_count_is_capped(self):
        # one axis may hold a whole grid's worth of points
        assert len(parse_axis(f"1:{MAX_GRID_POINTS}:1", "x")) == MAX_GRID_POINTS
        # rejected from the count alone, before any point is built
        for text in (f"0:{MAX_GRID_POINTS}:1", "0:1e9:1e-9", "-1e308:1e308:1e-300",
                     ",".join(["1"] * (MAX_GRID_POINTS + 1))):
            with pytest.raises(ValidationError, match="more than"):
                parse_axis(text, "x")


class TestRun:
    def test_text_output(self, capsys):
        code = main(["run", "--control", "L,a2", "--target", "R,b1", *BENCH])
        out = capsys.readouterr().out
        assert code == 0
        assert "gate: cnot (1 target photon)" in out
        assert "success probability   0.651292689179" in out
        assert "fidelity vs ideal     1" in out
        assert "a:L,2 b:L,2" in out  # control L flips the target's polarization

    def test_json_output(self, capsys):
        code = main(["run", "--control", "L,a2", "--target", "R,b1",
                     "--format", "json", *BENCH])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate"] == "cnot"
        assert payload["success_prob"] == pytest.approx(ETA_1, abs=1e-12)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert list(payload["amplitudes"]) == ["a:L,2 b:L,2"]
        re_im = payload["amplitudes"]["a:L,2 b:L,2"]
        assert re_im[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_targets(self, capsys):
        code = main(["run", "--control", "+,+", "--target", "R,1",
                     "--target", "L,2", *BENCH])
        out = capsys.readouterr().out
        assert code == 0
        assert "gate: cnot^2" in out

    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = ["run", "--control", "+,+", "--target", "+,+", *BENCH]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_writes_to_a_file(self, tmp_path, capsys):
        out_path = tmp_path / "run.txt"
        code = main(["run", "--control", "R,1", "--target", "R,1",
                     "--out", str(out_path), *BENCH])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "success probability" in out_path.read_text()

    @pytest.mark.parametrize("argv, code", [
        (["run", "--control", "X,1", "--target", "R,1", *BENCH], 2),
        (["run", "--control", "R,1", *BENCH], 2),                      # no target
        (["run", "--control", "R,1", "--target", "R,1"], 2),           # no g
        (["run", "--control", "R,1", "--target", "R,1", "--n-targets",
          "2", *BENCH], 2),
        (["run", "--control", "R,1", "--target", "R,1", "--mirror-override",
          "1.5", *BENCH], 2),                                          # mirror with gain
        (["run", "--control", "R,1", "--target", "R,1", "--g", "0",
          "--gamma", "0.1"], 3),                                       # degenerate
        (["run", "--control", "+,+", "--target", "+,+", "--g", "0",
          "--gamma", "0"], 3),                                         # zero denominator
        (["run", "--control", "+,+", "--target", "+,+", "--g", "1", "--gamma", "1.7e308",
          "--detuning-x", "1.7e308"], 3),                              # |d| overflows
        (["run", "--control", "+,+", "--target", "+,+", "--g", "1", "--gamma", "1e200",
          "--detuning-c", "1e200"], 3),                                # d * c overflows
        (["run", "--control", "pol=(1e200,0),(1e200,0);spat=1", "--target", "+,+",
          *BENCH], 2),                                                 # |c|^2 overflows
    ])
    def test_exit_codes(self, argv, code, capsys):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_a_mirror_with_gain_is_refused_naming_the_scale(self, capsys):
        assert main(["run", "--control", "+,+", "--target", "+,+", *BENCH,
                     "--mirror-override", "1.5"]) == 2
        assert capsys.readouterr().err == ("error: mirror transmission |mirror_scale * T| "
                                           "exceeds 1 at mirror_scale 1.5\n")

    def test_a_mirror_far_weaker_than_the_block(self, capsys):
        # u_i = m^2 x_i for the uniform target; the control keeps only its
        # block branches' overlap, 1/4
        code = main(["run", "--control", "+,+", "--target", "+,+", *BENCH,
                     "--mirror-override", "1e-9", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(0.25, abs=1e-6)

    def test_unwritable_output_is_io_error(self, capsys):
        code = main(["run", "--control", "R,1", "--target", "R,1",
                     "--out", "/nonexistent-dir/run.txt", *BENCH])
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--mode", "sampled", "--seed", "1"],
                                       ["--seed", "1"]], ids=["mode_sampled", "seed"])
    def test_has_no_sampler_flags(self, flags, capsys):
        # every spin record carries the same state, so run draws nothing;
        # shots come from sample
        assert main(["run", "--control", "+,+", "--target", "+,+", *flags, *BENCH]) == 2
        assert ("error: unrecognized arguments: " + " ".join(flags)
                in capsys.readouterr().err)


class TestTruthTable:
    def test_text(self, capsys):
        assert main(["truth-table", *BENCH]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17  # header + 16 rows
        assert lines[0].startswith("control")

    def test_csv(self, capsys):
        assert main(["truth-table", "--format", "csv", *BENCH]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "control,target,output,fidelity"
        assert len(lines) == 17
        assert "L,2,R,1,a:L,2 b:L,2,1.0" in lines

    def test_json(self, capsys):
        assert main(["truth-table", "--format", "json", *BENCH]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 16
        assert all(r["fidelity"] == pytest.approx(1.0, abs=1e-12) for r in rows)


class TestSweep:
    def test_point_query(self, capsys):
        code = main(["sweep", "--g-ratio", "3", "--ks-ratio", "0.1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[4]) == pytest.approx(ETA_1, abs=1e-12)

    def test_grid_to_file(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--g-ratio", "0:5:0.1",
                     "--ks-ratio", "0,0.1,0.5,1", "--out", str(out_path)])
        assert code == 0
        rows = load_report(out_path, "csv")
        assert len(rows) == 204  # 51 x 4 grid
        assert len(out_path.read_text().splitlines()) == 205

    def test_json_format(self, capsys):
        code = main(["sweep", "--g-ratio", "1,2", "--ks-ratio", "0",
                     "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["g_ratio"] for r in rows] == [1.0, 2.0]

    def test_multi_target_point(self, capsys):
        code = main(["sweep", "--g-ratio", "3", "--ks-ratio", "0.1",
                     "--n-targets", "3"])
        assert code == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(cells[4]) == pytest.approx(0.42418216697798017, abs=1e-12)

    def test_undefined_point_reports_zeros(self, capsys):
        # g = gamma = 0 on resonance: the scattering coefficients do not exist
        code = main(["sweep", "--g-ratio", "0,1", "--ks-ratio", "0",
                     "--gamma-ratio", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert [float(cell) for cell in lines[1].split(",")] == [0.0] * 6
        assert float(lines[2].split(",")[5]) == pytest.approx(1.0, abs=1e-12)

    def test_bad_axis_exits_2(self, capsys):
        assert main(["sweep", "--g-ratio", "5:0:1", "--ks-ratio", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_passes_on_the_balanced_gate(self, capsys):
        code = main(["verify", "--n-cases", "5", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        assert out.count("PASS") == 5  # four checks plus the overall line

    def test_catches_an_unbalanced_mirror(self, capsys):
        code = main(["verify", "--n-cases", "5", "--seed", "11",
                     "--mirror-override", "0.9"])
        out = capsys.readouterr().out
        assert code == 1
        assert "overall: FAIL" in out

    def test_zero_cases_is_invalid(self, capsys):
        assert main(["verify", "--n-cases", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSample:
    def test_text_counts(self, capsys):
        code = main(["sample", "--control", "+,+", "--target", "+,+",
                     "--shots", "400", "--seed", "3", *BENCH])
        out = capsys.readouterr().out
        assert code == 0
        assert "shots                 400" in out
        assert "seed                  3" in out

    def test_json_counts_close(self, capsys):
        code = main(["sample", "--control", "+,+", "--target", "+,+",
                     "--shots", "400", "--seed", "3", "--format", "json",
                     *BENCH])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        clicks = sum(payload["detector_clicks"].values())
        assert payload["successes"] + clicks + payload["absorbed"] == 400
        assert sum(payload["spin_counts"].values()) == payload["successes"]

    def test_seed_required(self, capsys):
        code = main(["sample", "--control", "+,+", "--target", "+,+",
                     "--shots", "10", *BENCH])
        assert code == 2
        assert "rng_seed" in capsys.readouterr().err

    def test_a_trillion_shots(self, capsys):
        code = main(["sample", "--control", "+,+", "--target", "+,+",
                     "--shots", "1000000000000", "--seed", "3", "--format",
                     "json", *BENCH])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        clicks = sum(payload["detector_clicks"].values())
        assert payload["successes"] + clicks + payload["absorbed"] == 10**12
        assert sum(payload["spin_counts"].values()) == payload["successes"]

    def test_shots_beyond_int64_exit_2(self, capsys):
        code = main(["sample", "--control", "+,+", "--target", "+,+",
                     "--shots", "9223372036854775808", "--seed", "3", *BENCH])
        assert code == 2
        assert "shots" in capsys.readouterr().err

    def test_benchmark_argv_shape(self, capsys):
        # the argument list the cli_shots benchmark passes: every cavity
        # parameter as --flag=value, a negative detuning among them
        code = main(["sample", "--control", "+,+", "--target", "+,+",
                     "--target", "+,+", "--shots", "1000000", "--seed", "7",
                     "--format", "json", "--g=3.3", "--kappa=1.0",
                     "--kappa-s=0.1", "--gamma=0.1", "--detuning-c=-1.2e-05",
                     "--detuning-x=0.3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shots"] == 1_000_000
        assert set(payload["detector_clicks"]) == {"detector_B1", "detector_B2"}
        assert sum(payload["spin_counts"].values()) == payload["successes"]
        assert (payload["successes"] + sum(payload["detector_clicks"].values())
                + payload["absorbed"]) == 1_000_000
        assert payload["success_frequency"] == payload["successes"] / 1_000_000
        assert 0.0 < payload["success_prob"] < 1.0


@pytest.mark.parametrize("argv", [
    ["sample", "--control", "+,+", "--target", "+,+", "--seed", "-1", *BENCH],
], ids=["sample"])
def test_negative_seed_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rng_seed") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--n-cases", "2", "--seed", "-1"],
    ["run", "--control", "+,+", *["--target", "+,+"] * 9, *BENCH],
    ["run", "--control", "L,2", *["--target", "L,2"] * 3400, *BENCH],
], ids=["verify_seed", "run_cnot9", "run_underflow"])
def test_unrunnable_input_is_one_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_cnot12_runs(capsys):
    # the sweep takes its fidelity in factored form: 4^13 labels per branch
    # state, past MAX_AMPLITUDES, are never built
    assert main(["sweep", "--g-ratio", "1", "--ks-ratio", "0", "--n-targets", "12"]) == 0
    (row,) = load_report(io.StringIO(capsys.readouterr().out), "csv")
    assert row.fidelity == pytest.approx(1.0, abs=1e-12)
    assert row.success_prob == pytest.approx(row.abs_T ** 52, abs=1e-12)
    assert row.success_prob > 0.01


def test_verify_cnot12_runs(capsys):
    assert main(["verify", "--n-cases", "2", "--n-targets", "12"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "overall: PASS"


def test_cnot30_on_basis_inputs_runs(capsys):
    argv = ["run", "--control", "L,2", *["--target", "R,1"] * 30, *BENCH]
    assert main(argv) == 0
    assert "b30:L,2" in capsys.readouterr().out


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestParamsFile:
    def test_full_run_spec(self, tmp_path, capsys):
        out_path = tmp_path / "from-file.json"
        spec = {
            "gate": "cnot",
            "control": "L,a2",
            "targets": ["R,b1"],
            "params": {"g_ratio": 3.0, "ks_ratio": 0.1, "gamma_ratio": 0.1},
            "format": "json",
            "out": str(out_path),
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--params-file", str(path)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out_path.read_text())
        assert payload["success_prob"] == pytest.approx(ETA_1, abs=1e-12)

    def test_flags_override_the_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "control": "R,1", "targets": ["R,1"],
            "params": {"g": 3.3, "kappa_s": 0.1, "gamma": 0.1},
        }))
        assert main(["run", "--params-file", str(path),
                     "--control", "L,a2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # the overriding control (L, mode 2) flips both target bits; the
        # file's control (R, mode 1) would have left them alone
        assert list(payload["amplitudes"]) == ["a:L,2 b:L,2"]

    def test_raw_params_from_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(
            {"params": {"g": 3.3, "kappa": 1.0, "kappa_s": 0.1, "gamma": 0.1}}))
        assert main(["run", "--params-file", str(path),
                     "--control", "+,+", "--target", "+,+"]) == 0
        assert "0.651292689179" in capsys.readouterr().out

    @pytest.mark.parametrize("params, success", [
        ({"g_ratio": 3.0, "ks_ratio": 0.1}, "0.651292689179"),
        ({"g_ratio": 3}, "0.956646400751"),
    ], ids=["gamma_ratio_left_out", "ks_ratio_left_out"])
    def test_left_out_ratio_keys_take_the_from_ratios_defaults(self, params, success,
                                                               tmp_path, capsys):
        # as CavityParams.from_ratios(3.0, 0.1) and from_ratios(3.0, 0.0): the
        # emitter decays at gamma_ratio 0.1, and a left-out ks_ratio is 0
        path = _write_spec(tmp_path, {"params": params})
        assert main(["run", "--params-file", path,
                     "--control", "+,+", "--target", "+,+"]) == 0
        assert f"success probability   {success}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["g_ratio", "g"])
    @pytest.mark.parametrize("value, refusal", [
        ("abc", "must be a real number"), ([1], "must be a real number"),
        (None, "must be a real number"), ("3.3", "must be a real number"),
        ("1", "must be a real number"), (True, "must be a real number"),
        (10**400, "must be finite, got a number past the float range"),
    ], ids=["string", "list", "null", "numeric_string", "numeric_string_1", "bool",
            "huge_int"])
    def test_non_number_param_is_invalid(self, key, value, refusal, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"params": {key: value}}))
        code = main(["run", "--params-file", str(path),
                     "--control", "+,+", "--target", "+,+"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"params file: {key} {refusal}" in err

    def test_unknown_key_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"coupling": 3}')
        code = main(["run", "--params-file", str(path),
                     "--control", "+,+", "--target", "+,+"])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_mode_key_is_refused(self, tmp_path, capsys):
        path = _write_spec(tmp_path, {"mode": "sampled", "params": {"g": 3.3}})
        assert main(["run", "--params-file", path,
                     "--control", "+,+", "--target", "+,+"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: unknown keys ['mode']\n"

    @pytest.mark.parametrize("params, raw, ratio", [
        ({"g": 3.3, "ks_ratio": 5.0, "gamma_ratio": 0.9}, ["g"],
         ["gamma_ratio", "ks_ratio"]),
        ({"g_ratio": 3.0, "ks_ratio": 0.1, "gamma": 5.0, "kappa": 7.0},
         ["gamma", "kappa"], ["g_ratio", "ks_ratio"]),
    ], ids=["raw_g_with_ratios", "g_ratio_with_raws"])
    def test_mixed_raw_and_ratio_params_are_refused(self, params, raw, ratio,
                                                    tmp_path, capsys):
        # whichever form were picked, the other form's values would be dropped
        path = _write_spec(tmp_path, {"params": params})
        assert main(["run", "--params-file", path,
                     "--control", "+,+", "--target", "+,+"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: params file: raw keys {raw} and ratio "
                                f"keys {ratio} cannot be mixed\n")

    def test_ratio_keys_need_g_ratio(self, tmp_path, capsys):
        path = _write_spec(tmp_path, {"params": {"ks_ratio": 0.5, "detuning_c": 0.1}})
        assert main(["run", "--params-file", path, *BENCH,
                     "--control", "+,+", "--target", "+,+"]) == 2
        assert capsys.readouterr().err == (
            "error: params file: ratio keys ['ks_ratio'] need g_ratio\n")

    def test_missing_file_is_io_error(self, capsys):
        code = main(["run", "--params-file", "/no/such/file.json",
                     "--control", "+,+", "--target", "+,+"])
        assert code == 4
        assert "cannot read" in capsys.readouterr().err

    def test_bad_json_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code = main(["sample", "--params-file", str(path),
                     "--control", "+,+", "--target", "+,+", "--seed", "1"])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--n-cases", "1", "--n-targets", "1000000000"],
    ["sweep", "--g-ratio", "1", "--ks-ratio", "0", "--n-targets", "1000000000"],
], ids=["verify", "sweep"])
def test_more_targets_than_fit_in_memory_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "n_targets must be <= 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--control", "R,1", "--target", "R,1", "--g", "nan"],
    ["run", "--control", "R,1", "--target", "R,1", "--mirror-override", "nan",
     *BENCH],
    ["sweep", "--g-ratio", "nan", "--ks-ratio", "0.1"],
    ["sweep", "--g-ratio", "0:inf:1", "--ks-ratio", "0.1"],
    ["sweep", "--g-ratio", "0:1e9:1e-9", "--ks-ratio", "0.1"],
    ["sweep", "--g-ratio", "0:5:0.0005001", "--ks-ratio", "0:1:0.0001001"],
], ids=["run_g_nan", "run_mirror_nan", "sweep_nan", "sweep_inf_stop",
        "sweep_huge_axis", "sweep_huge_grid"])
def test_non_finite_or_huge_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["run"], ["sample", "--seed", "1"]],
                         ids=["run", "sample"])
def test_a_success_below_the_smallest_subnormal_exits_3(command, capsys):
    # |T|^16004 is about 1e-373 here: all amplitude is lost, not a subnormal
    # state that cannot be normalized
    assert main([*command, "--control", "L,2", *["--target", "L,2"] * 4000, *BENCH]) == 3
    assert "all amplitude lost" in capsys.readouterr().err


class TestParamsFileAsFlags:
    """A params file is parsed as the subcommand's own flags."""

    @pytest.mark.parametrize("spec, named", [
        ({"seed": "abc"}, "argument --seed: invalid int value: 'abc'"),
        ({"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
        ({"targets": [1]}, "target 1: expected POL,MODE"),
        ({"control": 5}, "control: expected POL,MODE"),
        ({"format": "xml"}, "argument --format: invalid choice: 'xml'"),
        ({"params": {"g": True}}, "params file: g must be a real number, got True"),
    ], ids=["seed_string", "seed_float", "target_int", "control_int",
            "format_xml", "g_bool"])
    def test_bad_value_is_one_error(self, spec, named, tmp_path, capsys):
        argv = ["sample", "--params-file", _write_spec(tmp_path, spec),
                "--seed", "1", *BENCH]
        if "control" not in spec:
            argv += ["--control", "+,+"]
        if "targets" not in spec:
            argv += ["--target", "+,+"]
        if "seed" in spec:  # the file's seed alone, so it is the one checked
            argv.remove("--seed")
            argv.remove("1")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err
        error_line, = (line for line in captured.err.splitlines() if "error:" in line)
        assert named in error_line

    def test_keys_without_a_flag_are_ignored(self, tmp_path, capsys):
        path = _write_spec(tmp_path, {
            "gate": "cnot", "control": "L,a2", "targets": ["R,b1"],
            "seed": 7, "format": "csv",
            "params": {"g": 3.3, "kappa_s": 0.1, "gamma": 0.1}})
        assert main(["truth-table", "--params-file", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "control,target,output,fidelity"
        assert len(lines) == 17

    def test_command_line_target_replaces_the_files(self, tmp_path, capsys):
        path = _write_spec(tmp_path, {
            "control": "L,a2", "targets": ["R,1", "R,1"],
            "params": {"g": 3.3, "kappa_s": 0.1, "gamma": 0.1}})
        assert main(["run", "--params-file", path, "--target", "R,b1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_targets"] == 1
        assert list(payload["amplitudes"]) == ["a:L,2 b:L,2"]

    @pytest.mark.parametrize("flags_first", [True, False], ids=["before", "after"])
    def test_flags_win_wherever_they_stand(self, flags_first, tmp_path, capsys):
        path = _write_spec(tmp_path, {
            "control": "+,+", "targets": ["+,+"], "format": "text",
            "params": {"g": 1.0, "kappa_s": 2.0, "gamma": 0.5}})
        flags = [*BENCH, "--format", "json"]
        file_arg = ["--params-file", path]
        argv = ["run", *(flags + file_arg if flags_first else file_arg + flags)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success_prob"] == pytest.approx(ETA_1, abs=1e-12)

    def test_gate_cnot_means_one_target(self, tmp_path, capsys):
        path = _write_spec(tmp_path, {
            "gate": "cnot", "control": "+,+", "targets": ["+,+", "R,1"],
            "params": {"g": 3.3}})
        assert main(["run", "--params-file", path]) == 2
        assert capsys.readouterr().err == "error: --n-targets 1 but 2 targets given\n"

    def test_null_leaves_the_flag_unset(self, tmp_path, capsys):
        path = _write_spec(tmp_path, {"control": None, "seed": None,
                                      "targets": ["+,+"], "params": {"g": 3.3}})
        assert main(["run", "--params-file", path, "--control", "+,+"]) == 0
        assert "success probability" in capsys.readouterr().out


def _python(*args, stdout=subprocess.PIPE, drop_env=()):
    """A fresh interpreter on ``args`` with the sources on its path."""
    env = {k: v for k, v in os.environ.items() if k not in drop_env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_module_entry_point_runs_verify():
    proc = _python("-m", "hypercnot", "verify", "--n-cases", "2", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "overall: PASS"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "hypercnot" in capsys.readouterr().out


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.endswith(
        "hypercnot: error: the following arguments are required: command\n")


@pytest.mark.parametrize("control, n", [("+,+", 9), ("L,2", 3000)],
                         ids=["cnot9_uniform", "cnot3000_basis"])
def test_sample_runs_past_the_amplitude_limit(control, n, capsys):
    # sampling reads only masses, so no branch state is expanded
    assert main(["sample", "--control", control, *["--target", control] * n,
                 "--shots", "1000", "--seed", "1", "--format", "json", *BENCH]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["successes"] + sum(payload["detector_clicks"].values())
            + payload["absorbed"]) == 1000
    assert sum(payload["spin_counts"].values()) == payload["successes"]


@pytest.mark.parametrize("g", ["1e155", "1e200"])
def test_an_overflowing_coupling_is_the_strong_coupling_limit(g, capsys):
    # g^2 overflows; on resonance the block then transmits kappa / c =
    # 1 / (1 + ks_ratio / 2), as it does at g = 1e150
    assert main(["run", "--control", "R,1", "--target", "R,1", "--g", g,
                 "--gamma", "0.1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["abs_T"] == pytest.approx(1.0, abs=1e-15)
    assert payload["success_prob"] == pytest.approx(1.0, abs=1e-14)
    assert main(["sweep", "--g-ratio", g, "--ks-ratio", "0,0.5"]) == 0
    rows = load_report(io.StringIO(capsys.readouterr().out), "csv")
    for row, abs_t in zip(rows, (1.0, 0.8), strict=True):
        assert row.abs_T == pytest.approx(abs_t, abs=1e-15)
        assert row.success_prob == pytest.approx(abs_t ** 8, abs=1e-14)
        assert row.fidelity == pytest.approx(1.0, abs=1e-12)


class TestProcessEntry:
    """``python -m hypercnot``: ``cli.entry`` flushes the standard streams
    itself and ends the process without interpreter teardown."""

    def test_piped_json_is_complete(self):
        proc = _python("-m", "hypercnot", "sample", "--control", "+,+", "--target", "+,+",
                       "--shots", "100000", "--seed", "3", "--format", "json", *BENCH)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["shots"] == 100000
        assert (payload["successes"] + sum(payload["detector_clicks"].values())
                + payload["absorbed"]) == 100000

    @pytest.mark.parametrize("argv, code", [
        (["run", "--control", "X,1", "--target", "R,1", *BENCH], 2),
        (["run", "--control", "R,1", "--target", "R,1", "--g", "0", "--gamma", "0.1"], 3),
        (["verify", "--n-cases", "5", "--seed", "11", "--mirror-override", "0.9"], 1),
    ], ids=["bad_photon_spec", "degenerate", "verify_violation"])
    def test_exit_codes(self, argv, code):
        proc = _python("-m", "hypercnot", *argv)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code != 1:
            assert proc.stderr.startswith("error:")
        else:
            assert proc.stdout.splitlines()[-1] == "overall: FAIL"

    def test_out_file_gets_the_full_output(self, tmp_path):
        argv = ["-m", "hypercnot", "run", "--control", "+,+", "--target", "+,+",
                "--target", "+,+", "--format", "json", *BENCH]
        out = tmp_path / "run.json"
        written = _python(*argv, "--out", str(out))
        assert written.returncode == 0, written.stderr
        assert written.stdout == ""
        piped = _python(*argv)
        assert out.read_text() == piped.stdout
        assert len(json.loads(piped.stdout)["amplitudes"]) == 64

    def test_unwritable_stdout_exits_4(self):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        # buffered stdout, so the write fails at the final flush, not in main
        with open("/dev/full", "w") as full:
            proc = _python("-m", "hypercnot", "run", "--control", "+,+",
                           "--target", "+,+", *BENCH,
                           stdout=full, drop_env=("PYTHONUNBUFFERED",))
        assert proc.returncode == 4
        assert proc.stderr.startswith("error:")
        assert "No space left on device" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_a_program_running_the_module_gets_control_back(self):
        # as a profiler or a benchmark probe does: the entry raises
        # SystemExit instead of ending the process, and the output is flushed
        proc = _python("-c", """
import runpy, sys
sys.argv = ["hypercnot", "verify", "--n-cases", "2", "--seed", "1"]
try:
    runpy.run_module("hypercnot", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code)
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["overall: PASS", "exit 0"]


class TestLazyAnalysis:
    """``hypercnot`` loads ``analysis`` (and with it ``csv``) on the first
    use of one of its names, so ``run``, ``truth-table`` and ``sample``
    never import it."""

    @staticmethod
    def _check(script):
        proc = _python("-c", "import sys\n"
                             "def loaded():\n"
                             "    return sorted({'hypercnot.analysis', 'csv'} & set(sys.modules))\n"
                             + script)
        assert proc.returncode == 0, proc.stderr

    def test_gate_commands_do_not_load_it(self):
        self._check(f"""
import hypercnot
assert loaded() == [], loaded()
from hypercnot.cli import main
for argv in (["run", "--control", "+,+", "--target", "+,+", *{BENCH!r}],
             ["truth-table", *{BENCH!r}],
             ["sample", "--control", "+,+", "--target", "+,+", "--seed", "1", *{BENCH!r}]):
    assert main(argv) == 0
    assert loaded() == [], (argv, loaded())
""")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--g-ratio", "3", "--ks-ratio", "0.1"],
        ["verify", "--n-cases", "2", "--seed", "1"],
    ], ids=["sweep", "verify"])
    def test_analysis_commands_load_it(self, argv):
        self._check(f"""
from hypercnot.cli import main
assert main({argv!r}) == 0
assert loaded() == ["csv", "hypercnot.analysis"], loaded()
""")

    def test_first_access_binds_the_names_in_the_package(self):
        self._check("""
import hypercnot
assert "sweep_efficiency" not in vars(hypercnot)
assert hypercnot.sweep_efficiency is hypercnot.analysis.sweep_efficiency
assert {"sweep_efficiency", "fidelity_scan", "SweepGrid"} <= vars(hypercnot).keys()
assert "sweep_efficiency" in dir(hypercnot)
try:
    hypercnot.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
""")

    def test_star_import_binds_all(self):
        self._check("""
import hypercnot
namespace = {}
exec("from hypercnot import *", namespace)
missing = set(hypercnot.__all__) - namespace.keys()
assert not missing, missing
assert namespace["SweepGrid"] is hypercnot.analysis.SweepGrid
""")


SUBMODULES = ("analysis", "circuit", "cli", "errors", "gates", "hyperstate", "scattering")


class TestNamespace:
    """Every public name and submodule of ``hypercnot`` loads its module on
    first read; each check runs in a fresh interpreter."""

    @staticmethod
    def _check(script):
        proc = _python("-c", "import sys\nimport hypercnot\n" + script)
        assert proc.returncode == 0, proc.stderr

    def test_bare_import_loads_no_submodule_and_no_numpy(self):
        self._check("""
loaded = sorted(m for m in sys.modules
                if m == "numpy" or m.startswith(("numpy.", "hypercnot.")))
assert loaded == [], loaded
""")

    def test_every_public_name_is_the_object_its_module_defines(self):
        self._check("""
assert hypercnot.__all__, "no public names"
for name in hypercnot.__all__:
    obj = getattr(hypercnot, name)
    home = "hypercnot." + hypercnot._HOME[name]
    assert getattr(sys.modules[home], name) is obj, name
    # a class or function is bound from the module that defines it
    assert getattr(obj, "__module__", home) == home, (name, obj.__module__)
""")

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodule_resolves_after_a_bare_import(self, module):
        self._check(f"""
mod = hypercnot.{module}
assert mod is sys.modules["hypercnot.{module}"], mod
assert "{module}" in dir(hypercnot)
""")

    def test_unknown_name_raises_an_attribute_error_naming_it(self):
        self._check("""
for name in ("no_such_name", "__wrapped__", "check_real"):
    try:
        getattr(hypercnot, name)
    except AttributeError as exc:
        assert repr(name) in str(exc), exc
    else:
        raise AssertionError(f"{name} resolved")
try:
    from hypercnot import no_such_name
except ImportError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown name imported")
""")
