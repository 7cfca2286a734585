import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CLI_COMMANDS
from qslip import bipartite, cli, crosscheck


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "qslip", *args], capture_output=True, text=True, timeout=timeout
    )


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def window_trailer(text):
    for line in text.strip().split("\n"):
        if line.startswith("# window_report:"):
            return json.loads(line.split(":", 1)[1])
    raise AssertionError("no window_report trailer found")


def test_classify_tags():
    for args, tag in (
        (("--a", "0.1", "--b", "0.9"), "NonPositive"),
        (("--a", "0.5", "--b", "0"), "CompletelyPositive"),
        (("--a", "1", "--b", "0.5", "--omega", "2"), "PositiveNotCP"),
    ):
        proc = run_cli("classify", *args)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["schema"] == 1
        assert payload["tag"] == tag


def test_classify_rejects_bad_input():
    proc = run_cli("classify", "--a", "-1", "--b", "0.5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_missing_required_parameter():
    proc = run_cli("classify", "--a", "0.5")
    assert proc.returncode == 2
    assert "--b" in proc.stderr


def test_derive_params_values():
    proc = run_cli(
        "derive-params", "--g1", "2", "--g2", "1", "--g3", "1",
        "--lambda", "10", "--lambda3", "1", "--omega-tilde", "1",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["omega"] - 1.0576923076923077) <= 1e-15
    assert abs(payload["alpha1"] - 0.38461538461538464) <= 1e-15
    assert abs(payload["alpha2"] - 0.19230769230769232) <= 1e-15
    assert payload["a"] == 2.0
    assert abs(payload["b_raw"] - (-0.019230769230769232)) <= 1e-15
    assert payload["b_abs"] == -payload["b_raw"]


def test_derive_params_rejects_a_denominator_that_underflows(capsys):
    # lam^2 + 4 omega_tilde^2 underflows to 0 at lam = omega_tilde = 1e-170.
    argv = ["derive-params", "--g1", "1", "--g2", "0.5", "--g3", "1",
            "--lambda", "1e-170", "--lambda3", "1", "--omega-tilde", "1e-170"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.startswith("error: lam^2 + 4 omega_tilde^2 must be finite and > 0")


def test_eigs_valid_contraction_has_no_na():
    proc = run_cli("eigs", "--a", "0.1", "--b", "0.9", "--mu", "0.2", "--steps", "200")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["t", "e1", "e2", "e3", "e4", "concurrence"]
    assert len(rows) == 201
    assert all(row[5] != "NA" for row in rows)
    assert min(float(row[4]) for row in rows) >= -1e-12
    assert abs(float(rows[0][1]) - (1.0 + 3.0 * 0.2) / 4.0) <= 1e-15


def test_eigs_unslipped_projector_goes_negative():
    proc = run_cli("eigs", "--a", "0.1", "--b", "0.9", "--mu", "1.0", "--steps", "200")
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert min(float(row[4]) for row in rows) < -0.1
    assert any(row[5] == "NA" for row in rows)


def test_eigs_json_format():
    proc = run_cli(
        "eigs", "--a", "0.1", "--b", "0.9", "--mu", "1.0", "--steps", "50",
        "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert payload["schema"] == 1
    assert payload["columns"][-1] == "concurrence"
    assert len(payload["rows"]) == 51
    assert any(row[-1] is None for row in payload["rows"])


def test_eigs_rejects_bad_mu():
    proc = run_cli("eigs", "--a", "0.1", "--b", "0.9", "--mu", "1.5")
    assert proc.returncode == 2
    assert proc.stderr == "error: mu must lie in [0, 1], got 1.5\n"


def test_verify_rejects_bad_mu_before_any_oracle(capsys, monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle ran before the mu check")

    monkeypatch.setattr(crosscheck, "propagator_vs_rk4", no_oracle)
    monkeypatch.setattr(crosscheck, "spectrum_vs_jacobi", no_oracle)
    assert cli.main(["verify", "--a", "0.1", "--b", "0.9", "--mu", "2"]) == 2
    assert capsys.readouterr() == ("", "error: mu must lie in [0, 1], got 2.0\n")


def test_windows_strong_slippage_required():
    proc = run_cli("windows", "--a", "0.1", "--b", "0.8", "--steps", "500")
    assert proc.returncode == 0
    report = window_trailer(proc.stdout)
    assert report["kills_all_entanglement"] is True
    assert report["intervals"]
    assert report["mu_upper_corrected"] <= report["mu_upper_physical"]


def test_windows_moderate_damping():
    proc = run_cli("windows", "--a", "0.3", "--b", "0.8", "--steps", "500")
    report = window_trailer(proc.stdout)
    assert report["intervals"]
    assert report["kills_all_entanglement"] is False


def test_windows_positive_regime():
    proc = run_cli("windows", "--a", "0.5", "--b", "0.3", "--steps", "500")
    report = window_trailer(proc.stdout)
    assert report["intervals"] == []
    assert report["mu_upper_corrected"] == report["mu_upper_physical"]


def test_windows_csv_grid():
    # --steps sizes only the table, so one step is as valid as for eigs.
    for steps in (100, 1):
        proc = run_cli("windows", "--a", "0.3", "--b", "0.8", "--steps", str(steps))
        header, rows = parse_csv(proc.stdout)
        assert header == ["t_offset", "f", "g", "headroom"]
        assert len(rows) == steps + 1
        assert window_trailer(proc.stdout)["intervals"]


def test_windows_rejects_a_horizon_over_the_period_cap():
    # At a = 0 windows recur every period pi/(2 Omega), so an unbounded
    # horizon would never finish; 1e12 spans about 5.5e11 periods.
    proc = run_cli("windows", "--a", "0", "--b", "0.5", "--t-max-offset", "1e12", "--steps", "2",
                   timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: window horizon 1000000000000.0 spans more than 1000000 periods" in proc.stderr


def test_bounds_and_verify_terminate_near_b_equal_omega():
    # Omega = sqrt(2e-12) puts the window horizon and the peak times near
    # 2e6 and 5.6e5, where a fixed absolute bisection or golden-section
    # tolerance lies below the float spacing.
    proc = run_cli("bounds", "--a", "0", "--b", "0.999999999999", timeout=60)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["mu_corrected"] <= payload["R4_inv"]
    proc = run_cli("verify", "--a", "0", "--b", "0.999999999999", "--t-max", "0.5",
                   "--step", "1e-3", timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    assert "maxima_vs_golden_section" in proc.stdout


def test_verify_passes_near_b_equal_omega(capsys):
    # The peak times t' and t* lie near 5.6e5, where golden section fixes a
    # smooth peak only to about sqrt(eps) times that scale: the check compares
    # peak times relative to max(1, t_peak), not with an absolute 1e-6.
    argv = ["verify", "--a", "0", "--b", "0.999999999999", "--t-max", "0.5", "--step", "1e-3"]
    assert cli.main(argv) == 0, capsys.readouterr().out


def test_windows_and_verify_run_where_b_squared_underflows(capsys):
    for b in ("1e-170", "1e-300"):
        assert cli.main(["windows", "--a", "0", "--b", b, "--steps", "2"]) == 0
        assert "nan" not in capsys.readouterr().out
        # R4(t) and G(t) equal their t = 0 value to the last bit here, so
        # golden section returns an arbitrary time; a peak time counts only
        # where peak > curve(0), and every check runs and passes.
        assert cli.main(["verify", "--a", "0", "--b", b, "--t-max", "0.5", "--step", "1e-3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:5]] == [
            "propagator_vs_rk4", "eigenvalues_vs_jacobi", "concurrence_closed_vs_wootters",
            "maxima_vs_golden_section", "ppt_mu_sign_symmetry"]
        assert lines[3] == "PASS  maxima_vs_golden_section         max_dev=0.000e+00 tol=1.0e-06"


def test_verify_fails_a_nan_partial_transpose_deviation(capsys, monkeypatch):
    # A NaN partial-transpose deviation fails the check rather than
    # vanishing in a running max().
    closed_form = bipartite.eigenvalues_closed_form

    def nan_at_negative_mu(p, mu, t):
        return (np.nan,) * 4 if mu < 0.0 else closed_form(p, mu, t)

    monkeypatch.setattr(bipartite, "eigenvalues_closed_form", nan_at_negative_mu)
    argv = ["verify", "--a", "0.1", "--b", "0.9", "--t-max", "0.5", "--step", "1e-3"]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[4] == "FAIL  ppt_mu_sign_symmetry             tol=1.0e-10"
    assert lines[5:] == ["1 check(s) failed"]


def test_verify_fails_a_nan_maximum(capsys):
    # rate_factor_max is NaN here; a running max(0.0, nan) would drop it.
    argv = ["verify", "--a", "1e102", "--b", "1e103", "--omega", "2e103", "--t-max", "5e-104",
            "--step", "5e-107"]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "FAIL  maxima_vs_golden_section         max_dev=nan tol=1.0e-06"
    assert lines[5:] == ["1 check(s) failed"]


def test_bounds_and_windows_reject_an_overflowing_peak_rate_factor(capsys):
    # G_max is inf from b of about 1.2e77 and NaN at 1e103 (omega = 2b),
    # where the window scan would otherwise fail in asin or drop every window.
    # At omega = 1e154, 4 omega^2 overflows: the creation test must not use it.
    for argv, peak in ((["bounds", "--b", "1e78", "--omega", "2e78"], "inf"),
                       (["windows", "--b", "1e100", "--omega", "2e100", "--steps", "2"], "inf"),
                       (["bounds", "--b", "1e103", "--omega", "2e103"], "nan"),
                       (["bounds", "--b", "1e153", "--omega", "1e154"], "nan")):
        assert cli.main([*argv, "--a", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: a=0.0, b=")
        assert err.endswith(f" give G_max={peak}, not finite\n") and err.count("\n") == 1


def test_evolve_rejects_an_overflowing_trajectory():
    # The closed form overflows in r1 (inf * 0 = NaN at t = 0) or in the norm.
    for argv, value in ((["--b", "0.9999999999", "--r1", "0", "--r2", "1e304"], "r1=nan"),
                        (["--b", "0.5", "--r1", "1e300", "--r2", "1e300"], "norm=inf"),
                        (["--b", "0.5", "--r1", "1e300", "--r2", "1e300", "--format", "json"],
                         "norm=inf")):
        proc = run_cli("evolve", "--a", "0", "--steps", "3", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {value} in row 0 is not a finite float for these inputs\n"


def test_windows_rejects_a_non_finite_rate_factor():
    # No creation here (2 a omega > b^2), and G_max is NaN (b^2 hyp overflows),
    # so every g row would print nan, after a numpy RuntimeWarning.
    for fmt in ("csv", "json"):
        proc = run_cli("windows", "--a", "3e152", "--b", "1e153", "--omega", "1e154",
                       "--steps", "2", "--format", fmt)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: g=nan in row 0 is not a finite float for these inputs\n"


def test_bounds_figure_point():
    proc = run_cli("bounds", "--a", "0.1", "--b", "0.9")
    payload = json.loads(proc.stdout)
    assert abs(payload["R4_inv"] - 0.25) <= 5e-3
    assert payload["R"] > 1.0
    assert payload["mu_corrected"] <= payload["R4_inv"]


def test_bounds_positive_regime():
    proc = run_cli("bounds", "--a", "0.5", "--b", "0.3")
    payload = json.loads(proc.stdout)
    assert payload["R"] == 1.0
    assert payload["t_prime"] == 0.0


def test_verify_passes_at_reference_points(capsys):
    # Exact stdout at the two reference points, every deviation included.
    for a, b, mu, rk4, spectrum, concurrence, maxima in (
            ("0.1", "0.9", "0.2", "1.527e-15", "5.551e-17", "0.000e+00", "8.298e-09"),
            ("0.3", "0.8", "0.3", "2.448e-14", "5.551e-17", "8.327e-17", "2.459e-08")):
        argv = ["verify", "--a", a, "--b", b, "--mu", mu, "--t-max", "0.5", "--step", "1e-3"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            f"PASS  propagator_vs_rk4                max_dev={rk4} tol=1.0e-08\n"
            f"PASS  eigenvalues_vs_jacobi            max_dev={spectrum} tol=1.0e-10\n"
            f"PASS  concurrence_closed_vs_wootters   max_dev={concurrence} tol=1.0e-10 points=18\n"
            f"PASS  maxima_vs_golden_section         max_dev={maxima} tol=1.0e-06\n"
            "PASS  ppt_mu_sign_symmetry             tol=1.0e-10\n"
            "all checks passed\n")


def test_verify_passes_on_the_completely_positive_branch():
    # At b = 0, R4(t) = 1 and G(t) = -a are flat: only their values compare.
    for a in ("0.1", "0", "2"):
        proc = run_cli("verify", "--a", a, "--b", "0", "--t-max", "0.5", "--step", "1e-3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all checks passed" in proc.stdout


def test_bounds_completely_positive_branch():
    proc = run_cli("bounds", "--a", "0.1", "--b", "0")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["R"] == payload["R4"] == payload["R4_inv"] == payload["mu_corrected"] == 1.0


def test_verify_rejects_overdamped_rates():
    proc = run_cli("verify", "--a", "0.1", "--b", "1.5", "--omega", "1")
    assert proc.returncode == 2


def test_verify_rejects_nan_tol(capsys):
    assert cli.main(["verify", "--a", "0.1", "--b", "0.9", "--tol", "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "tol must be finite and > 0" in err


def test_verify_rejects_negative_tol(capsys):
    assert cli.main(["verify", "--a", "0.1", "--b", "0.9", "--tol", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "tol must be finite and > 0" in err


def test_verify_caps_rk4_steps(capsys):
    argv = ["verify", "--a", "0.1", "--b", "0.9", "--t-max", "1e7", "--step", "1e-4"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must not exceed 1000000 RK4 steps" in err


def _rejected(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_classify_rejects_nan_rate(capsys):
    _rejected(capsys, ["classify", "--a", "nan", "--b", "0.5"], "must be finite")


def test_classify_rejects_infinite_rate(capsys):
    _rejected(capsys, ["classify", "--a", "inf", "--b", "0.5"], "must be finite")


def test_evolve_rejects_nan_component(capsys):
    argv = ["evolve", "--a", "0.1", "--b", "0.9", "--r1", "nan"]
    _rejected(capsys, argv, "components must be finite")


def test_eigs_rejects_infinite_horizon(capsys):
    argv = ["eigs", "--a", "0.1", "--b", "0.9", "--t-max", "inf"]
    _rejected(capsys, argv, "time horizon must be finite")


def test_grid_steps_capped(capsys):
    for command in ("eigs", "windows", "evolve"):
        argv = [command, "--a", "0.3", "--b", "0.8", "--steps", "1000001"]
        _rejected(capsys, argv, "1000000], got 1000001")


def test_json_output_never_holds_nan(capsys):
    # t = k * t_max / steps overflows, so the rows are not finite; strict
    # JSON must refuse them rather than print NaN/Infinity.
    argv = ["eigs", "--a", "0.1", "--b", "0.9", "--t-max", "1e307", "--steps", "100",
            "--format", "json"]
    with np.errstate(invalid="ignore"):
        _rejected(capsys, argv, "time grid overflows")


def test_csv_grid_overflow_rejected(capsys):
    argv = ["eigs", "--a", "0.1", "--b", "0.9", "--t-max", "1e307", "--steps", "100"]
    _rejected(capsys, argv, "time grid overflows")


def test_phase_overflow_rejected(capsys):
    # steps * t_max is finite, the phase 2 * omega * t_max is not.
    for command, horizon in (("eigs", "--t-max"), ("windows", "--t-max-offset"),
                             ("evolve", "--t-max")):
        argv = [command, "--a", "0.1", "--b", "0.9", "--omega", "4", "--steps", "2", horizon, "5e307"]
        _rejected(capsys, argv, "time grid overflows")


def test_classify_rejects_negative_b(capsys):
    _rejected(capsys, ["classify", "--a", "0.1", "--b", "-0.5"], "b must be >= 0, got -0.5")


def test_omega_overflow_rejected(capsys):
    # omega * omega overflows (or underflows), so Omega = sqrt(omega^2 - b^2)
    # would be inf (or 0).
    for command in (["eigs", "--steps", "2"], ["bounds"], ["classify"]):
        argv = [*command, "--a", "0.1", "--b", "0.9", "--omega", "1e200"]
        _rejected(capsys, argv, "omega=1e+200, b=0.9 give Omega=inf")
        argv = [*command, "--a", "0.1", "--b", "5e-201", "--omega", "1e-200"]
        _rejected(capsys, argv, "give Omega=0.0, not finite and > 0")


def test_evolve_third_component_constant():
    proc = run_cli(
        "evolve", "--a", "0.1", "--b", "0.9", "--r1", "0", "--r2", "0", "--r3", "1",
        "--steps", "50",
    )
    header, rows = parse_csv(proc.stdout)
    assert header == ["t", "r1", "r2", "r3", "norm"]
    assert len(rows) == 51
    assert all(float(row[3]) == 1.0 for row in rows)
    assert all(abs(float(row[4]) - 1.0) <= 1e-12 for row in rows)


# Every declared parameter of each subcommand, none at its default.
_ALL_PARAMETERS = {
    "classify": {"a": 0.1, "b": 0.9, "omega": 1.1},
    "derive-params": {"g1": 2.5, "g2": 1, "g3": 1.5, "lambda": 10, "lambda3": 2, "omega-tilde": 1.2},
    "eigs": {"a": 0.1, "b": 0.9, "omega": 1.1, "mu": 0.2, "t-max": 3.0, "steps": 50},
    "windows": {"a": 0.3, "b": 0.8, "omega": 1.1, "t-max-offset": 2.0, "steps": 50},
    "bounds": {"a": 0.3, "b": 0.8, "omega": 1.1},
    "verify": {"a": 0.1, "b": 0.9, "omega": 1.1, "mu": 0.3, "tol": 1e-7, "t-max": 0.5,
               "step": 1e-3},
    "evolve": {"a": 0.1, "b": 0.9, "omega": 1.1, "r1": 0.1, "r2": 0.2, "r3": 0.3, "t-max": 2.0,
               "steps": 50},
}


def test_config_file_matches_flags(tmp_path, capsys):
    assert set(_ALL_PARAMETERS) == set(cli._COMMANDS)
    config = tmp_path / "run.json"
    for command, values in _ALL_PARAMETERS.items():
        assert set(values) == set(cli._COMMANDS[command][3]), command
        config.write_text(json.dumps(values))
        assert cli.main([command, "--config", str(config)]) == 0, command
        from_config = capsys.readouterr()
        flags = [item for name, value in values.items() for item in (f"--{name}", str(value))]
        assert cli.main([command, *flags]) == 0, command
        assert capsys.readouterr() == from_config, command


def test_help_lists_every_declared_flag():
    for command, (_, _, has_format, params) in cli._COMMANDS.items():
        proc = run_cli(command, "--help")
        assert proc.returncode == 0, proc.stderr
        for flag in [*params, "config", "output", *(["format"] if has_format else [])]:
            assert f"--{flag} " in proc.stdout, (command, flag)


def test_flags_override_config(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"a": 0.1, "b": 0.9}))
    overridden = run_cli("classify", "--config", str(config), "--a", "0.95")
    payload = json.loads(overridden.stdout)
    assert payload["a"] == 0.95
    assert payload["tag"] == "PositiveNotCP"


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"a": 0.1, "b": 0.9, "bogus": 1}))
    proc = run_cli("classify", "--config", str(config))
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


def test_config_rejects_non_numeric_value(tmp_path, capsys):
    config = tmp_path / "run.json"
    for value in ([1], None, "0.5", 10**400):
        config.write_text(json.dumps({"a": value, "b": 0.5}))
        _rejected(capsys, ["classify", "--config", str(config)], "is not a finite float")


def test_config_rejects_bool(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"a": True, "b": 0.5}))
    _rejected(capsys, ["classify", "--config", str(config)], "a=True is not a finite float")


def test_config_rejects_fractional_steps(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"a": 0.1, "b": 0.9, "steps": 2.7}))
    _rejected(capsys, ["eigs", "--config", str(config)], "steps=2.7 is not a finite int")


def test_output_file(tmp_path, capsys):
    # main writes each subcommand's output once, to stdout or to --output.
    target = tmp_path / "out"
    for argv in CLI_COMMANDS:
        proc = run_cli(*argv)
        assert cli.main([*argv, "--output", str(target)]) == proc.returncode, argv
        assert capsys.readouterr().out == "", argv
        assert target.read_bytes() == proc.stdout.encode(), argv


def test_only_main_writes_output():
    # Reading the config file is allowed; printing, writing to stdout and
    # opening a file for writing happen in main only.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    writers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func == "open":
                # A mode that is not a literal counts as writing.
                modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                writes = any(not isinstance(m, ast.Constant) or set(m.value) & set("wax+")
                             for m in modes)
            else:
                writes = func in ("print", "sys.stdout.write")
            if writes:
                writers.add(getattr(top, "name", None))
    assert writers == {"main"}
