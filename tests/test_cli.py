"""End-to-end checks of the command line front end.

Most cases drive ``dispatch`` in-process and read stdout/stderr through
capsys; subprocess cases confirm the module entry point produces
byte-identical output for identical argv, and read its whole stderr.
"""

import json
import math
import subprocess
import sys
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest

from msd import cli, engines, perturb
from msd.cli import build_parser, dispatch
from msd.dichotomy import fit_envelope, pair_grid
from msd.engines import (ExplosionError, MomentCurve, MomentSurface, TimeGrid,
                         simulate_fundamental)
from msd.model import GALLERY_NAMES, from_dict, gallery, to_dict

E_GBM = math.exp(-1.75)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = resources.files("msd").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def validate(name, payload):
    jsonschema.validate(payload, load_schema(name))


# The default map a linear --system takes in `msd perturb`, as a file.
DEFAULT_MAP = {"kind": "power_clipped", "coef": 1.0, "power": 3.0, "clip": 1.0}


def perturbed_gbm_file(tmp_path, f=DEFAULT_MAP, **fields):
    """Path of a perturbed gbm system file with drift map ``f``, h zero, c 9
    and q 2; ``fields`` replace top-level keys."""
    data = {"base": to_dict(gallery("gbm")), "c": 9.0, "q": 2.0, "f": f,
            "h": {"kind": "zero"}, **fields}
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def last_csv_value(text):
    row = text.strip().splitlines()[-1].split(",")
    return float(row[1])


class TestParsing:
    def test_no_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage:" in err
        assert "error: validation:" in err

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == 1
        assert "invalid choice" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "example", "list", "--frobnicate")
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["lyapunov", "--system", "gbm", "--bogus", "1"],
        ["perturb", "--system", "gbm", "--mode", "condition", "--scale", "0.5", "--c", "5"],
        ["example", "list", "extra"],
    ])
    def test_an_unknown_argument_prints_its_subcommands_usage(self, capsys, argv):
        # Once reported by the top-level parser as `usage: msd [-h] SUBCOMMAND ...`.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        usage = cli.build_parser().commands[argv[0]].format_usage()
        assert usage.startswith(f"usage: msd {argv[0]} [-h]")
        extras = " ".join(argv[-2:] if argv[0] != "example" else argv[-1:])
        assert err == f"{usage}error: validation: unrecognized arguments: {extras}\n"

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--system", "gbm")
        assert code == 1
        assert "--t1" in err

    def test_bad_float_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--system", "gbm", "--t1", "one")
        assert code == 1

    def test_negative_dt_rejected_before_compute(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--system", "gbm",
                               "--t1", "1", "--dt", "-0.5")
        assert code == 1
        assert "--dt must be positive" in err

    def test_csv_rejected_on_json_only_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "lyapunov", "--system", "gbm", "--format", "csv")
        assert code == 1
        assert "unrecognized arguments: --format csv" in err

    @pytest.mark.parametrize("argv", [
        ["example", "list"],
        ["lyapunov", "--system", "gbm"],
        ["regularity", "--system", "gbm"],
        ["triangularize", "--system", "gbm"],
        ["perturb", "--system", "gbm", "--mode", "condition"],
        ["perron", "--a", "1", "--b", "1", "--lambda", "1"],
        ["selftest"],
    ])
    def test_format_is_a_flag_of_moments_and_fit_only(self, capsys, argv):
        # Once accepted by every subcommand: --format json did nothing here.
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 1 and out == ""
        assert err.endswith("error: validation: unrecognized arguments: --format json\n")

    @pytest.mark.parametrize("argv", [
        ["moments", "--system", "gbm", "--t1", "1"],
        ["lyapunov", "--system", "gbm"],
        ["regularity", "--system", "gbm"],
        ["fit", "--system", "gbm", "--s-values", "0", "--deltas", "0"],
        ["triangularize", "--system", "gbm"],
        ["perturb", "--system", "gbm", "--mode", "stability"],
        ["perron", "--a", "1", "--b", "1", "--lambda", "1"],
    ])
    def test_paths_below_one_is_refused_by_the_parser(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--paths", "0")
        assert code == 1 and out == ""
        assert err.startswith("usage: msd ")
        assert err.endswith(
            "error: validation: argument --paths: expected a positive integer, got 0\n")

    def test_zero_threads_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "example", "list", "--threads", "0")
        assert code == 1

    def test_bad_env_threads_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("MSD_THREADS", "many")
        code, _, err = run_cli(capsys, "example", "list")
        assert code == 1
        assert "MSD_THREADS" in err

    def test_error_lines_are_single_line(self, capsys):
        _, _, err = run_cli(capsys, "moments", "--system", "nope", "--t1", "1")
        error_lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(error_lines) == 1

    def test_help_mentions_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["moments", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default 1e-3" in out
        assert "default 0" in out


class TestExample:
    def test_list_names_all_gallery_systems(self, capsys):
        code, out, _ = run_cli(capsys, "example", "list")
        assert code == 0
        payload = json.loads(out)
        validate("example-list", payload)
        assert payload["systems"] == list(GALLERY_NAMES)
        assert len(payload["systems"]) == 6

    def test_show_round_trips_through_from_dict(self, capsys):
        code, out, _ = run_cli(capsys, "example", "show", "--system", "gbm")
        assert code == 0
        payload = json.loads(out)
        validate("system", payload)
        rebuilt = from_dict(payload)
        assert to_dict(rebuilt) == to_dict(gallery("gbm"))

    def test_show_perturbed_system(self, capsys):
        code, out, _ = run_cli(capsys, "example", "show",
                               "--system", "perron-sde-perturbed")
        assert code == 0
        payload = json.loads(out)
        validate("system", payload)
        assert payload["f"]["kind"] == "expr"
        assert payload["h"]["kind"] == "zero"

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_show_reads_back_from_its_own_file(self, capsys, tmp_path, name):
        # A perturbed file once failed with "system object needs dim/A/G".
        path = tmp_path / "system.json"
        assert dispatch(["example", "show", "--system", name, "--output", str(path)]) == 0
        code, out, _ = run_cli(capsys, "example", "show", "--system", str(path))
        assert code == 0 and out == path.read_text(encoding="utf-8")

    def test_a_system_file_with_an_unknown_key_is_refused(self, capsys, tmp_path):
        # Once loaded silently, dropping the misspelt params.
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"dim": 1, "A": [["-1"]], "G": [["0.5"]],
                                    "parms": {"a": 3}, "B": [["9"]]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "moments", "--system", str(path), "--t1", "0.002")
        assert code == 1 and out == ""
        assert err == ("error: validation: system object has unknown key(s) "
                       "['B', 'parms']; known: dim/params/A/G\n")

    def test_perturb_reads_a_perturbed_file(self, capsys, tmp_path):
        path = tmp_path / "perturbed.json"
        dispatch(["example", "show", "--system", "perron-sde-perturbed",
                  "--output", str(path)])
        runs = [run_cli(capsys, "perturb", "--system", system, "--mode", "condition",
                        "--scale", "0.5", "--trials", "100", "--samples", "256")
                for system in ("perron-sde-perturbed", str(path))]
        (code, out, _), (code_file, out_file, _) = runs
        assert code == code_file == 0
        assert out_file == out.replace('"perron-sde-perturbed"', json.dumps(str(path)))

    def test_show_without_system_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "example", "show")
        assert code == 1
        assert "--system" in err


class TestMoments:
    def test_documented_example_emits_csv_oracle_value(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--system", "gbm", "--t0", "0",
                               "--t1", "1", "--dt", "0.001", "--method", "ode")
        assert code == 0
        assert out.splitlines()[0] == "t,value,stderr"
        assert last_csv_value(out) == pytest.approx(E_GBM, rel=1e-6)

    def test_json_format_validates(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--system", "gbm", "--t1", "0.5",
                               "--dt", "0.01", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate("moments", payload)
        assert payload["points"][0]["value"] == pytest.approx(1.0)

    def test_mc_curve_agrees_with_exact_moment(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--system", "gbm", "--t1", "0.5",
                               "--dt", "0.01", "--method", "mc", "--paths", "200",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate("moments", payload)
        final = payload["points"][-1]
        assert final["stderr"] > 0.0
        assert abs(final["value"] - math.exp(-1.75 * 0.5)) < 3.0 * final["stderr"]

    def test_mc_memory_does_not_grow_with_horizon(self, monkeypatch, tmp_path):
        # 2^16-value draw and reducer blocks fill at 322 steps and 327 nodes
        # with 200 paths, so both runs hold a full draw block while their
        # first node block is reduced; what grows is the printed table
        # (about 0.2 KB per row). Peaks measured: 1.33 and 1.43 MB, 1.07x.
        # A stored ensemble grows by about 8 KB per node at these sizes.
        monkeypatch.setattr(engines, "CHUNK_VALUES", 2 ** 16)
        monkeypatch.setattr(engines, "_REDUCE_VALUES", 2 ** 16)
        peaks = []
        for t1 in ("1.0", "4.0"):
            tracemalloc.start()
            try:
                code = dispatch(["moments", "--system", "gbm", "--method", "mc",
                                 "--t1", t1, "--dt", "0.001", "--paths", "200",
                                 "--output", str(tmp_path / "curve.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] <= 1.25 * peaks[0]

    def test_system_file_loading(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(to_dict(gallery("gbm"))), encoding="utf-8")
        code, out, _ = run_cli(capsys, "moments", "--system", str(path),
                               "--t1", "1", "--dt", "0.001")
        assert code == 0
        assert last_csv_value(out) == pytest.approx(E_GBM, rel=1e-6)

    def test_unknown_system_names_gallery(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--system", "nope", "--t1", "1")
        assert code == 1
        assert "gbm" in err and "diag-2x2" in err

    def test_corrupt_system_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "moments", "--system", str(path), "--t1", "1")
        assert code == 1
        assert err.startswith("error: validation:")


class TestLyapunov:
    def test_diagonal_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--system", "diag-2x2",
                               "--horizon", "50")
        assert code == 0
        payload = json.loads(out)
        validate("lyapunov", payload)
        values = payload["spectrum"]["values"]
        assert values[0] == pytest.approx(-3.91, abs=0.05)
        assert values[1] == pytest.approx(-1.96, abs=0.05)
        assert payload["spectrum"]["split_index"] == 2

    def test_vector_and_epsilon_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--system", "diag-2x2",
                               "--horizon", "30", "--vector", "1,0",
                               "--epsilon", "0.1")
        assert code == 0
        payload = json.loads(out)
        validate("lyapunov", payload)
        assert payload["chi"]["chi"] == pytest.approx(-1.96, abs=0.05)
        assert payload["predicted"]["mode"] == "contraction"
        assert payload["predicted"]["alpha"] == pytest.approx(1.86, abs=0.05)

    def test_bad_vector_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "lyapunov", "--system", "gbm",
                               "--vector", "1,x")
        assert code == 1

    @pytest.mark.parametrize("system", ["perron-ode", "perron-sde"])
    def test_log_time_systems_need_a_positive_start(self, capsys, system):
        code, _, err = run_cli(capsys, "lyapunov", "--system", system)
        assert code == 1
        assert err.startswith("error: validation:")
        assert "log(t)" in err
        code, out, _ = run_cli(capsys, "lyapunov", "--system", system,
                               "--t-start", "0.001", "--horizon", "2")
        assert code == 0
        validate("lyapunov", json.loads(out))

    # A warning would be an error here, so stderr holds only what dispatch writes.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["lyapunov", "regularity"])
    def test_a_negative_start_is_refused(self, capsys, command):
        # lyapunov once printed chi -2.6249999979 for gbm (exactly -1.75)
        # with two RuntimeWarnings, and regularity ran on the same estimates.
        code, out, err = run_cli(capsys, command, "--system", "gbm", "--t-start", "-1",
                                 "--horizon", "2")
        assert code == 1 and out == ""
        assert err == "error: validation: t_start must be non-negative, got -1.0\n"


class TestRegularity:
    def test_scalar_report(self, capsys):
        code, out, _ = run_cli(capsys, "regularity", "--system", "gbm",
                               "--horizon", "20", "--bound-horizon", "100")
        assert code == 0
        payload = json.loads(out)
        validate("regularity", payload)
        assert payload["regularity"]["gamma_upper_estimate"] == pytest.approx(1.0, abs=0.01)
        # Constant coefficients: both integral bounds collapse to zero.
        assert payload["bounds"]["lower"] == 0.0
        assert payload["bounds"]["upper"] == 0.0


class TestFit:
    def test_scalar_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--system", "gbm",
                               "--s-values", "0.5,1,2", "--deltas", "0,1,2,4")
        assert code == 0
        payload = json.loads(out)
        validate("fit", payload)
        assert payload["fit"]["alpha"] == pytest.approx(1.75, abs=0.05)
        assert payload["fit"]["uniform"] is True
        assert payload["witness"]["flag"] == "uniform"

    def test_single_s_row_has_no_witness(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--system", "gbm",
                               "--s-values", "1", "--deltas", "0,1,2")
        assert code == 0
        payload = json.loads(out)
        validate("fit", payload)
        assert payload["witness"] is None

    def test_csv_format_emits_surface(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--system", "gbm",
                               "--s-values", "0.5,1", "--deltas", "0,1",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,s,value,stderr"
        assert len(lines) == 5


class TestTriangularize:
    def test_triangular_system_has_zero_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "triangularize", "--system", "triangular-2x2",
                               "--t1", "0.25")
        assert code == 0
        payload = json.loads(out)
        validate("triangularize", payload)
        assert payload["max_orthogonality_defect"] == 0.0
        assert payload["max_reconstruction_error"] == 0.0
        assert payload["invariance"]["max_trace_gap"] == 0.0


    @pytest.mark.parametrize("dt", ["0", "-0.5"])
    def test_step_must_be_positive(self, capsys, dt):
        code, out, err = run_cli(capsys, "triangularize", "--system", "gbm", "--dt", dt)
        assert code == 1 and out == ""
        assert err.startswith("error: validation:") and "dt must be positive" in err


class TestPerturb:
    def test_condition_mode(self, capsys):
        code, out, _ = run_cli(capsys, "perturb", "--system", "gbm",
                               "--mode", "condition", "--scale", "0.3",
                               "--trials", "100")
        assert code == 0
        payload = json.loads(out)
        validate("perturb", payload)
        assert payload["consistent"] is True
        assert 0.0 < payload["max_ratio"] <= 1.0

    def test_stability_mode(self, capsys):
        code, out, _ = run_cli(capsys, "perturb", "--system", "gbm",
                               "--mode", "stability", "--delta", "0.01",
                               "--horizon", "2", "--paths", "100")
        assert code == 0
        payload = json.loads(out)
        validate("perturb", payload)
        assert payload["hypothesis_ok"] is True
        assert payload["verdict"] == "PASS"
        assert payload["envelope_margin"] < 0.0

    @pytest.mark.parametrize("horizon", ["0", "-1", "nan", "inf"])
    def test_stability_refuses_a_bad_horizon_before_the_fit(self, capsys, monkeypatch,
                                                            horizon):
        def reached(*args, **kwargs):
            raise AssertionError("the fit ran before the horizon was checked")

        monkeypatch.setattr(perturb, "fit_envelope", reached)
        code, out, err = run_cli(capsys, "perturb", "--system", "gbm",
                                 "--mode", "stability", "--horizon", horizon)
        assert code == 1 and out == ""
        assert err == ("error: validation: horizon must be positive and finite, "
                       f"got {float(horizon)!r}\n")

    def test_stability_reports_escaped_paths(self, capsys, tmp_path):
        # A drift perturbation of 100 u1 makes every path pass the explosion
        # threshold within the horizon; they are frozen and counted.
        system = perturbed_gbm_file(tmp_path, {"kind": "expr", "entries": ["100*u1"]})
        code, out, _ = run_cli(capsys, "perturb", "--system", system,
                               "--mode", "stability", "--horizon", "5", "--paths", "20")
        assert code == 0
        payload = json.loads(out)
        validate("perturb", payload)
        assert payload["escaped"] == 20
        assert payload["verdict"] == "FAIL"

    def test_stability_without_a_tail_slope_prints_strict_json(self, capsys):
        # A horizon of one step leaves fewer than two tail samples, so there
        # is no slope to fit; it once printed as the non-JSON token NaN.
        code, out, _ = run_cli(capsys, "perturb", "--system", "gbm", "--mode", "stability",
                               "--horizon", "0.001", "--paths", "10", "--seed", "1")
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")
        payload = json.loads(out, parse_constant=refuse)
        validate("perturb", payload)
        assert payload["tail_slope"] is None

    # Frozen paths sit near 1e150, so the spread of their squares would
    # overflow; a warning would be an error here.
    @pytest.mark.filterwarnings("error")
    def test_stability_freezes_paths_whose_map_overflows(self, capsys, tmp_path):
        # A state between about 1e103 and 1e150 is inside the explosion
        # threshold but its cube is not finite: the path freezes and is
        # counted instead of the run ending in "non-finite result".
        system = perturbed_gbm_file(tmp_path, {"kind": "expr", "entries": ["10*u1^3"]})
        code, out, err = run_cli(capsys, "perturb", "--system", system,
                                 "--mode", "stability", "--delta", "1",
                                 "--paths", "4", "--horizon", "1", "--seed", "1")
        assert code == 0 and err == "", err
        payload = json.loads(out)
        validate("perturb", payload)
        assert payload["escaped"] >= 1
        assert payload["verdict"] == "FAIL"

    def test_condition_accepts_negative_seed(self, capsys):
        code, out, _ = run_cli(capsys, "perturb", "--system", "gbm",
                               "--mode", "condition", "--scale", "0.3",
                               "--trials", "100", "--samples", "512", "--seed", "-1")
        assert code == 0
        validate("perturb", json.loads(out))

    def test_condition_requires_scale(self, capsys):
        code, _, err = run_cli(capsys, "perturb", "--system", "gbm",
                               "--mode", "condition")
        assert code == 1
        assert "--scale" in err

    def test_expr_perturbation_requires_entries(self, capsys, tmp_path):
        system = perturbed_gbm_file(tmp_path, {"kind": "expr"})
        code, out, err = run_cli(capsys, "perturb", "--system", system,
                                 "--mode", "condition", "--scale", "0.1")
        assert code == 1 and out == ""
        assert err == ("error: validation: perturbation f needs kind and its fields: "
                       "'entries'\n")

    @pytest.mark.parametrize("flag", ["--perturbation", "--coef", "--power", "--clip",
                                      "--f-entries", "--h-entries", "--c", "--q"])
    def test_the_perturbation_flags_are_gone(self, capsys, flag):
        # A perturbation is stated by --system alone; some combinations of
        # these flags once went unread.
        code, out, err = run_cli(capsys, "perturb", "--system", "gbm",
                                 "--mode", "condition", "--scale", "0.5", flag, "2")
        assert code == 1 and out == ""
        assert err.endswith(f"error: validation: unrecognized arguments: {flag} 2\n")

    def test_a_linear_system_takes_the_default_map(self, capsys, tmp_path):
        flags = ["--mode", "condition", "--scale", "0.5", "--trials", "100",
                 "--samples", "256"]
        code, out, _ = run_cli(capsys, "perturb", "--system", "gbm", *flags)
        system = perturbed_gbm_file(tmp_path)
        code_file, out_file, _ = run_cli(capsys, "perturb", "--system", system, *flags)
        assert code == code_file == 0
        assert out_file == out.replace('"gbm"', json.dumps(system))
        system = perturbed_gbm_file(tmp_path, c=1.0)
        _, out_c, _ = run_cli(capsys, "perturb", "--system", system, *flags)
        ratio = json.loads(out)["max_ratio"]
        assert json.loads(out_c)["max_ratio"] == pytest.approx(9 * ratio)

    @pytest.mark.parametrize("flag, value, mode", [
        ("--scale", "0.5", "condition"), ("--trials", "5", "condition"),
        ("--samples", "1", "condition"), ("--delta", "2", "stability"),
        ("--horizon", "3", "stability"), ("--paths", "7", "stability"),
        ("--dt", "0", "stability"),
    ])
    def test_a_flag_of_the_other_mode_is_refused(self, capsys, flag, value, mode):
        # Each once went unread, and --samples 1 and --dt 0 were checked by
        # the mode that does not read them.
        other = {"condition": ["stability", "--horizon", "0.01"],
                 "stability": ["condition", "--scale", "0.5"]}[mode]
        code, out, err = run_cli(capsys, "perturb", "--system", "gbm", "--mode", *other,
                                 flag, value)
        assert code == 1 and out == ""
        assert err == (f"error: validation: {flag} is a flag of --mode {mode}, "
                       f"not of --mode {other[0]}\n")


class TestPerron:
    def test_documented_example_names_violated_inequality(self, capsys):
        code, _, err = run_cli(capsys, "perron", "--a", "2", "--b", "1",
                               "--lambda", "1")
        assert code == 1
        assert err.startswith("error: validation:")
        assert "a < (2e^-pi + 1) b" in err

    def test_valid_window_reports_growth_bound(self, capsys):
        code, out, _ = run_cli(capsys, "perron", "--a", "1.05", "--b", "1",
                               "--lambda", "1", "--horizon", "2", "--paths", "50")
        assert code == 0
        payload = json.loads(out)
        validate("perron", payload)
        assert payload["escaped"] == 0
        assert payload["growth_bound"] == pytest.approx(0.0702149845559818, rel=1e-12)
        assert payload["chi_deterministic"] > payload["growth_bound"]


    @pytest.mark.parametrize("dt", ["0", "-0.5"])
    def test_step_must_be_positive(self, capsys, dt):
        code, out, err = run_cli(capsys, "perron", "--a", "1.05", "--b", "1",
                                 "--lambda", "1", "--dt", dt)
        assert code == 1 and out == ""
        assert err.startswith("error: validation:") and "dt must be positive" in err


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        validate("selftest", payload)
        assert payload["status"] == "ok"
        assert all(check["pass"] for check in payload["checks"])
        assert len(payload["checks"]) >= 8

    def test_negative_seed(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "-1")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_byte_identical_across_thread_counts(self, capsys):
        _, first, _ = run_cli(capsys, "selftest", "--seed", "42", "--threads", "1")
        _, second, _ = run_cli(capsys, "selftest", "--seed", "42", "--threads", "8")
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["moments", "--system", "perron-sde", "--method", "mc", "--t0", "0.001",
         "--t1", "0.101", "--paths", "300"],
        ["fit", "--system", "triangular-2x2", "--rank", "1", "--method", "mc",
         "--s-values", "0,0.5", "--deltas", "0,0.25,0.5", "--paths", "100",
         "--format", "json"],
    ], ids=["moments", "fit"])
    def test_mc_kernels_byte_identical_across_thread_counts(self, capsys, argv):
        code, first, _ = run_cli(capsys, *argv, "--seed", "3", "--threads", "1")
        assert code == 0
        _, second, _ = run_cli(capsys, *argv, "--seed", "3", "--threads", "8")
        assert first == second

    def test_byte_identical_with_env_threads(self, capsys, monkeypatch):
        _, first, _ = run_cli(capsys, "selftest", "--seed", "7")
        monkeypatch.setenv("MSD_THREADS", "4")
        _, second, _ = run_cli(capsys, "selftest", "--seed", "7")
        assert first == second


class TestExitCodes:
    def test_explosion_exits_2(self, capsys, tmp_path):
        path = tmp_path / "hot.json"
        path.write_text(json.dumps({"dim": 1, "params": {}, "A": [["500"]],
                                    "G": [["0"]]}), encoding="utf-8")
        code, _, err = run_cli(capsys, "moments", "--system", str(path),
                               "--t1", "2", "--dt", "0.01", "--method", "mc",
                               "--paths", "2")
        assert code == 2
        assert err.startswith("error: numeric:")
        assert len(err.strip().splitlines()) == 1

    def test_diverging_moment_ode_exits_2(self, capsys, tmp_path):
        # M' = 800 M leaves float64 near t = 0.889: a numeric failure, which
        # was once reported as bad input with exit 1.
        path = tmp_path / "hot.json"
        path.write_text(json.dumps({"dim": 1, "params": {}, "A": [["400"]],
                                    "G": [["0"]]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "moments", "--system", str(path), "--t1", "1")
        assert code == 2 and out == ""
        assert err == "error: numeric: moment integration diverged at t=0.889\n"

    @pytest.mark.parametrize("argv, what", [
        (["triangularize", "--system", "gbm", "--t1", "10", "--paths", "10000000"],
         "the ensemble of Phi and Psi"),
        (["moments", "--system", "gbm", "--t1", "0.1", "--dt", "0.01", "--method", "mc",
          "--paths", "1000000000"], "the per-path sums"),
        (["perron", "--a", "1.05", "--b", "1", "--lambda", "1", "--horizon", "1",
          "--paths", "100000000"], "the perturbed paths"),
    ])
    def test_a_store_beyond_the_limit_is_a_validation_error(self, capsys, argv, what):
        # Refused before anything is allocated, where a MemoryError traceback
        # or an OOM kill would end the run.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: validation: {what} would take ")
        assert err.endswith(" GiB, more than the 1 GiB limit\n")

    @pytest.mark.parametrize("data, message", [
        ('{"dim": 1, "A": [["-1 + \u00b2"]], "G": [["0"]]}'.encode(),
         "unexpected character '\u00b2' (at offset 5)"),
        (b'{"dim": 1, "A": [["1e999999"]], "G": [["0"]]}',
         "number literal overflows float64 (at offset 0)"),
        ('{"dim": 1, "params": {"\u00e9": 1}, "A": [["-1"]], "G": [["0"]]}'.encode("latin-1"),
         "system file is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in "
         "position 23: invalid continuation byte"),
    ])
    def test_a_system_file_the_reader_refuses(self, capsys, tmp_path, data, message):
        # These once ended in a ValueError traceback, in a numeric error from
        # the moment ODE, and in a UnicodeDecodeError traceback.
        path = tmp_path / "system.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "moments", "--system", str(path), "--t1", "0.01")
        assert code == 1 and out == ""
        assert err == f"error: validation: {message}\n"

    def test_a_rank_deficient_triangularization_exits_2(self, capsys, tmp_path):
        # Valid input whose second column float64 loses; once exit 1.
        path = tmp_path / "shear.json"
        path.write_text(json.dumps({"dim": 2, "A": [["1", "1"], ["0", "-1"]],
                                    "G": [["0", "0"], ["0", "0"]]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "triangularize", "--system", str(path),
                                 "--t1", "20", "--paths", "2")
        assert code == 2 and out == ""
        assert err == ("error: numeric: fundamental matrix numerically rank-deficient "
                       "at node 1376 (t=13.76), path 0: column 1\n")

    @pytest.mark.filterwarnings("error")
    def test_a_non_finite_fit_time_is_a_validation_error(self, capsys):
        # Zero-gap pairs at s = inf once printed "K": NaN with exit 0.
        code, out, err = run_cli(capsys, "fit", "--system", "gbm", "--s-values", "0,inf",
                                 "--deltas", "0,1")
        assert code == 1 and out == ""
        assert err == "error: validation: time bounds must be finite, got s=inf and t=inf\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["lyapunov", "--vector", "1"],
        ["regularity"],
    ])
    def test_a_zero_monte_carlo_mean_square_exits_2(self, capsys, tmp_path, argv):
        # One EM step at dt 0.01 maps every path of du = -100 u dt to exactly
        # 0; the exponent once printed as -Infinity with exit 0.
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"dim": 1, "params": {}, "A": [["-100"]], "G": [["0"]]}),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, argv[0], "--system", str(path), "--method", "mc",
                                 "--horizon", "1", "--dt", "0.01", "--paths", "10", *argv[1:])
        assert code == 2 and out == ""
        assert err == ("error: numeric: Monte Carlo mean square at t=0.52 is 0.0: "
                       "no finite exponent\n")

    @pytest.mark.parametrize("argv, message", [
        (["--system", "perron-sde-perturbed", "--mode", "stability", "--paths", "100000000",
          "--horizon", "5"], "the per-path state would take 4.47 GiB"),
        (["--system", "gbm", "--mode", "condition", "--scale", "0.5", "--trials", "100",
          "--samples", "300000000"], "a falsifier trial's samples would take 26.8 GiB"),
    ])
    def test_perturb_refuses_a_store_beyond_the_limit_first(self, capsys, monkeypatch,
                                                             argv, message):
        # The stability run once refused only after its fit, spectrum and
        # regularity estimate, which the moment loop would run; the falsifier
        # once ended in a MemoryError traceback under a memory limit.
        monkeypatch.setattr(engines, "_moment_loop", None)
        code, out, err = run_cli(capsys, "perturb", *argv)
        assert code == 1 and out == ""
        assert err == f"error: validation: {message}, more than the 1 GiB limit\n"

    def test_a_run_within_the_limit_reaches_the_moment_loop(self, capsys, monkeypatch):
        # The positive control of the test above: the name it replaces is the
        # one a stability run's fit, spectrum and regularity estimate run through.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(engines, "_moment_loop", reached)
        with pytest.raises(Reached):
            run_cli(capsys, "perturb", "--system", "perron-sde-perturbed", "--mode",
                    "stability", "--paths", "4", "--horizon", "0.5")

    def test_inverse_blow_up_does_not_stop_mc_moments(self, capsys, tmp_path):
        # A strong contraction: Phi shrinks by 0.9 per step while its inverse
        # passes 1e150 near t = 3.6. The moment curve never needs the inverse.
        path = tmp_path / "cold.json"
        path.write_text(json.dumps({"dim": 1, "params": {}, "A": [["-100"]],
                                    "G": [["0"]]}), encoding="utf-8")
        with pytest.raises(ExplosionError, match="coupled inverse"):
            simulate_fundamental(from_dict(json.loads(path.read_text())),
                                 TimeGrid.spanning(0.0, 4.0, 1e-3), 2, 0)
        code, out, err = run_cli(capsys, "moments", "--system", str(path),
                                 "--t1", "4", "--dt", "0.001", "--method", "mc",
                                 "--paths", "2")
        assert code == 0, err
        assert last_csv_value(out) == 0.0

    def test_validation_error_is_machine_parsable(self, capsys):
        code, _, err = run_cli(capsys, "perron", "--a", "1", "--b", "2",
                               "--lambda", "1")
        assert code == 1
        assert err.startswith("error: validation: ")

    @pytest.mark.parametrize("argv", [
        ["lyapunov", "--system", "gbm", "--horizon", "nan"],
        ["lyapunov", "--system", "gbm", "--horizon", "inf"],
        ["lyapunov", "--system", "gbm", "--t-start", "nan", "--horizon", "2"],
        ["moments", "--system", "gbm", "--t1", "inf"],
        ["regularity", "--system", "gbm", "--horizon", "nan"],
        ["fit", "--system", "gbm", "--s-values", "0", "--deltas", "0,nan"],
        ["fit", "--system", "gbm", "--s-values", "nan", "--deltas", "0,1"],
        ["perturb", "--system", "gbm", "--mode", "stability", "--horizon", "nan"],
        ["perron", "--a", "1.05", "--b", "1", "--lambda", "1", "--horizon", "nan"],
        ["triangularize", "--system", "gbm", "--t1", "nan"],
    ])
    def test_non_finite_time_bound_is_a_validation_error(self, capsys, argv):
        # Each of these once ended in a traceback from math.ceil in the grid.
        # perturb and perron name their horizon, and lyapunov its start,
        # refused before any pass runs.
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        expected = ("horizon must" if argv[0] in ("perturb", "perron")
                    else "t_start must" if "--t-start" in argv
                    else "time bounds must be finite")
        assert err.startswith("error: validation: " + expected)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["moments", "--system", "gbm", "--t1", "1", "--dt", "1e-300"],
        ["moments", "--system", "gbm", "--t1", "1", "--dt", "1e-300",
         "--method", "mc", "--paths", "2"],
        ["lyapunov", "--system", "gbm", "--horizon", "1", "--dt", "1e-300"],
        ["perron", "--a", "1.05", "--b", "1", "--lambda", "1", "--dt", "1e-300"],
    ])
    def test_a_grid_beyond_the_step_limit_is_a_validation_error(self, capsys, argv):
        # These once ended in a traceback from np.arange.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: validation: grid needs more than 1e+07 steps")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("change", [
        {"dim": "abc"},
        {"A": 5},
        {"A": [[None]]},
        {"params": [1]},
        {"params": {"a": "x"}},
        {"dim": 1.7},
        {"G": [[True]]},
    ])
    def test_malformed_system_file_is_a_validation_error(self, capsys, tmp_path, change):
        # The first five once raised ValueError, TypeError or AttributeError;
        # dim 1.7 ran as dimension 1 and an entry true as 1.
        path = tmp_path / "system.json"
        good = {"dim": 1, "params": {"a": -1.0}, "A": [["a"]], "G": [["0.5"]]}
        path.write_text(json.dumps({**good, **change}), encoding="utf-8")
        code, out, err = run_cli(capsys, "moments", "--system", str(path), "--t1", "0.01")
        assert code == 1 and out == ""
        assert err.startswith("error: validation: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("lattice", ["1", "10001", "1000000000"])
    def test_a_lattice_outside_its_range_is_a_validation_error(self, capsys, lattice):
        # A lattice of 10^9 once allocated 7.45 GiB of alpha values: an OOM kill.
        code, out, err = run_cli(capsys, "fit", "--system", "gbm", "--s-values", "0,1",
                                 "--deltas", "0,1", "--lattice", lattice)
        assert code == 1 and out == ""
        assert err == f"error: validation: lattice must be between 2 and 10000, got {lattice}\n"

    def test_quadrature_beyond_its_budget_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps({"dim": 1, "A": [["-1 + sin(10*t)"]], "G": [["0"]]}),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "regularity", "--system", str(path),
                                 "--horizon", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: validation: quadrature needs more than")
        assert len(err.splitlines()) == 1

    # A warning would be an error here, so stderr holds only what dispatch writes.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, f, expected", [
        ("1e80", None, None),
        ("1e300", None, "ratio of nan"),
        ("1e-170", "sqrt(abs(u1))", "ratio of inf"),
    ])
    def test_falsifier_at_extreme_scales(self, capsys, tmp_path, scale, f, expected):
        # These once ended in an OverflowError traceback from size ** q, in
        # "consistent": true with RuntimeWarnings (every ratio NaN), and in a
        # ZeroDivisionError traceback (the gap underflows to 0).
        system = "gbm" if f is None else perturbed_gbm_file(
            tmp_path, {"kind": "expr", "entries": [f]})
        code, out, err = run_cli(capsys, "perturb", "--system", system, "--mode", "condition",
                                 "--trials", "100", "--scale", scale)
        if expected is None:
            # The core overflows to inf, so every ratio is 0.
            assert code == 0 and err == ""
            assert json.loads(out)["max_ratio"] == 0.0
        else:
            assert code == 1 and out == ""
            assert err.startswith("error: validation: falsifier trial 0 at scale")
            assert expected in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [
        ["perturb", "--mode", "condition", "--scale", "nan"],
        ["fit", "--s-values", "0,1", "--deltas", "0,1,2", "--alpha-max", "nan"],
        ["fit", "--s-values", "0,1", "--deltas", "0,1,2", "--beta-max", "nan"],
        ["lyapunov", "--epsilon", "nan"],
        ["lyapunov", "--tolerance", "nan"],
        ["lyapunov", "--vector", "nan"],
    ])
    def test_nan_parameter_is_a_validation_error(self, capsys, flags):
        # NaN once passed checks written as `x <= 0`: condition mode then
        # compared nothing and printed "consistent": true, fit printed a
        # bare NaN, lyapunov printed NaN forecasts, and a NaN vector was
        # reported as a divergence or an explosion.
        code, out, err = run_cli(capsys, flags[0], "--system", "gbm", *flags[1:])
        assert code == 1 and out == ""
        assert err.startswith("error: validation: ")

    @pytest.mark.parametrize("fields, name", [
        ({"c": math.nan}, "c"), ({"q": math.nan}, "q"),
        *(({"f": {**DEFAULT_MAP, key: math.nan}}, f"f {key}")
          for key in ("coef", "power", "clip")),
    ])
    def test_nan_in_a_perturbed_file_is_a_validation_error(self, capsys, tmp_path,
                                                           fields, name):
        # json.load reads NaN; it once passed checks written as `x <= 0`.
        system = perturbed_gbm_file(tmp_path, **fields)
        code, out, err = run_cli(capsys, "perturb", "--system", system,
                                 "--mode", "condition", "--scale", "0.5")
        assert code == 1 and out == ""
        assert err == f"error: validation: {name} must be a finite number, got nan\n"


class TestReportWriters:
    def test_curve_csv_and_records(self):
        curve = MomentCurve(ts=np.array([0.0, 0.5]), values=np.array([1.0, 2.0]))
        lines = cli._to_csv(curve).strip().split("\n")
        assert lines[0] == "t,value,stderr"
        assert lines[1] == "0,1,0"
        assert cli._curve_to_records(curve)[1] == {"t": 0.5, "value": 2.0, "stderr": 0.0}

    def test_surface_csv_header(self):
        surf = MomentSurface(ss=np.array([0.0]), ts=np.array([1.0]), values=np.array([3.0]),
                             stderrs=np.array([0.1]), sense="stable")
        lines = cli._to_csv(surf).strip().split("\n")
        assert lines[0] == "t,s,value,stderr"
        assert lines[1].startswith("1,0,3,")

    def test_fit_to_dict_shape(self):
        pairs = pair_grid([0.001, 1.0], [0.0, 1.0, 2.0])
        ss, ts = np.array(pairs).T
        surf = MomentSurface(ss=ss, ts=ts, values=np.exp(-(ts - ss)), stderrs=None,
                             sense="stable")
        fit = fit_envelope(surf)
        data = cli._fit_to_dict(fit)
        assert set(data) == {"rank", "K", "alpha", "beta", "residual_max",
                             "tight_points", "uniform"}
        assert data["K"] == fit.k
        assert data["tight_points"] == [[s, t] for s, t in fit.tight_points]

    def test_arrays_in_a_payload_become_lists(self):
        assert json.loads(json.dumps({"x": np.array([0.5, 2.0])},
                                     default=cli._json_default)) == {"x": [0.5, 2.0]}
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            json.dumps({"x": {1}}, default=cli._json_default)


class TestOutputFile:
    def test_output_flag_writes_stdout_bytes(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "moments", "--system", "gbm", "--t1", "0.1",
                               "--dt", "0.01", "--output", str(target))
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(capsys, "moments", "--system", "gbm", "--t1", "0.1",
                               "--dt", "0.01")
        assert target.read_text(encoding="utf-8") == direct


    @pytest.mark.parametrize("target", ["missing/surface.csv", "."])
    def test_unwritable_output_is_a_validation_error(self, capsys, tmp_path, target):
        # A missing directory once ended in a FileNotFoundError traceback.
        code, out, err = run_cli(capsys, "fit", "--system", "gbm", "--s-values", "0,1",
                                 "--deltas", "0,1,2", "--format", "csv",
                                 "--output", str(tmp_path / target))
        assert code == 1 and out == ""
        assert err.startswith("error: validation: ")
        assert len(err.splitlines()) == 1


class TestEntryPoint:
    def test_module_invocation_is_deterministic(self):
        argv = [sys.executable, "-m", "msd.cli", "selftest", "--seed", "42"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.strip() != b""

    def test_module_invocation_propagates_exit_code(self):
        argv = [sys.executable, "-m", "msd.cli", "perron", "--a", "2",
                "--b", "1", "--lambda", "1"]
        result = subprocess.run(argv, capture_output=True)
        assert result.returncode == 1
        assert result.stderr.decode().startswith("error: validation:")

    def test_a_row_restarting_beyond_1e154_writes_nothing_to_stderr(self, tmp_path):
        # M' = 400 M: the surface row restarts at t = 1 from 4.9e173, whose
        # squared entries once overflowed the start's symmetry check and
        # printed numpy's RuntimeWarning.
        path = tmp_path / "hot.json"
        path.write_text(json.dumps({"dim": 1, "params": {}, "A": [["200"]], "G": [["0"]]}),
                        encoding="utf-8")
        argv = [sys.executable, "-m", "msd.cli", "fit", "--system", str(path),
                "--s-values", "0", "--deltas", "0,1,1.2,1.4", "--dt", "0.001",
                "--format", "csv"]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[2] == "1,0,4.9112756249464801e+173,0"
