"""Command-line interface: outputs, exit codes, CSV/JSON contracts."""

import json
import math
import os
import subprocess
import sys

import pytest

import thresholdlab
from thresholdlab import cli, parse_expr, availability, structures


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ---------------------------------------------------------------------

def test_eval_text(capsys):
    code, out, err = run(capsys, "eval", "kofn(2,3)", "--p", "0.5")
    assert code == 0 and err == ""
    assert "mu = 0.5" in out
    assert "dmu_dp = 1.5" in out


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "kofn(2,3)", "--p", "0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == pytest.approx(0.5, abs=1e-13)
    assert payload["dmu_dp"] == pytest.approx(1.5, abs=1e-13)
    assert payload["method"] == "binomial_tail"


def test_eval_endpoint_derivative_is_null_in_json(capsys):
    code, out, _ = run(capsys, "eval", "kofn(2,3)", "--p", "0", "--json")
    assert code == 0
    assert json.loads(out)["dmu_dp"] is None


# -- curve ---------------------------------------------------------------------

def test_curve_csv(capsys):
    code, out, _ = run(capsys, "curve", "series(3)", "--grid", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,mu,dmu_dp"
    assert len(lines) == 6
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0 and first[2] == "nan"
    assert float(last[0]) == 1.0 and float(last[1]) == 1.0 and last[2] == "nan"
    p, mu, dmu = lines[3].split(",")
    assert float(p) == 0.5
    assert float(mu) == pytest.approx(1 - 0.5**3, abs=1e-13)
    assert float(dmu) == pytest.approx(3 * 0.25, abs=1e-12)


def test_curve_is_deterministic(capsys):
    _, first, _ = run(capsys, "curve", "prod(parallel(2),series(3))", "--grid", "31")
    _, second, _ = run(capsys, "curve", "prod(parallel(2),series(3))", "--grid", "31")
    assert first == second


def test_huge_consecutive_systems_finish(capsys):
    code, out, _ = run(capsys, "width", "--json", "consec(5,1000000000)")
    assert code == 0
    report = json.loads(out)
    assert all(math.isfinite(report[key]) for key in ("p_lo", "p_half", "p_hi", "width"))
    assert 0.0 < report["p_lo"] < report["p_half"] < report["p_hi"] < 1.0
    code, out, _ = run(capsys, "eval", "consec(3,1000000000000,linear)", "--p", "1e-5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["mu"] < 1.0 and math.isfinite(payload["dmu_dp"])
    assert payload["abs_error_bound"] < 1e-2 * payload["mu"]


def test_overlong_run_is_an_error(capsys):
    code, out, err = run(capsys, "eval", "consec(1000,2000)", "--p", "0.5")
    assert code == 1 and not out and "k <= " in err


@pytest.mark.parametrize("argv", [
    ("eval", "consec(2,1000000000000000000)", "--p", "0.5"),
    ("width", "consec(3,1000000000000000000)"),
])
def test_uncertain_consecutive_system_is_an_error(capsys, argv):
    # past (n+1)(k+3) eps = ln 2 the relative bound of mu reaches mu itself
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out and "(n+1)(k+3)" in err


@pytest.mark.parametrize("argv", [
    ("verify", "series(100000000000)"),
    ("mc", "series(100000000000)", "--p", "0.5", "--samples", "100"),
])
def test_sampling_a_huge_structure_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out and "n <= 2097152" in err


# -- width / threshold ------------------------------------------------------------

def test_width_report_values(capsys):
    code, out, _ = run(
        capsys, "width", "prod(parallel(2),series(3))", "--eps", "0.25", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    # closed form p(alpha) = (1 - (1-alpha)^(1/3))^(1/2)
    p_lo = (1 - 0.75 ** (1 / 3)) ** 0.5
    p_hi = (1 - 0.25 ** (1 / 3)) ** 0.5
    assert payload["p_lo"] == pytest.approx(p_lo, abs=1e-9)
    assert payload["p_hi"] == pytest.approx(p_hi, abs=1e-9)
    assert payload["width"] == pytest.approx(p_hi - p_lo, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ("width", "kofn(2,3)", "--tol", "nan"),
    ("width", "kofn(2,3)", "--tol", "inf"),
    ("verify", "kofn(2,3)", "--tol", "nan"),
    ("scaling", "--family", "majority", "--sizes", "11,21", "--tol", "nan"),
    ("scaling", "--family", "majority", "--sizes", "11,21", "--tol", "inf"),
])
def test_non_finite_tol_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and "tolerance must be finite" in err
    assert "Traceback" not in err and "Infinity" not in out


def test_width_epsilon_below_the_double_grid_is_an_error(capsys):
    # 1 - 1e-320 == 1.0, so the upper level would be 1, which no one typed
    code, out, err = run(capsys, "width", "kofn(2,3)", "--eps", "1e-320")
    assert code == 1 and out == ""
    assert "epsilon = 1e-320" in err and "got 1.0" not in err


def test_threshold_alias(capsys):
    code_w, out_w, _ = run(capsys, "width", "kofn(2,3)", "--eps", "0.2")
    code_t, out_t, _ = run(capsys, "threshold", "kofn(2,3)", "--eps", "0.2")
    assert code_w == code_t == 0
    assert out_w == out_t


# -- verify --------------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "kofn(1,1)")
    assert code == 0
    assert "FAIL" not in out
    for name in ("monotone_exhaustive", "entropy_lower", "cauchy_schwarz",
                 "inversion_round_trip", "russo_influence_sum"):
        assert name in out


def test_verify_product_identity_line(capsys):
    code, out, _ = run(capsys, "verify", "prod(parallel(2),series(3))")
    assert code == 0
    assert "product_identity" in out and "FAIL" not in out


def test_verify_large_structure_uses_sampling(capsys):
    code, out, _ = run(capsys, "verify", "kofn(600,1200)")
    assert code == 0
    assert "monotone_sampled" in out


@pytest.mark.parametrize("expr, builds", [
    ("kofn(7,16)", 1),
    ("prod(series(2),prod(consec(2,3,linear),parallel(2)))", 3),
])
def test_verify_builds_each_stage_table_once(capsys, monkeypatch, expr, builds):
    calls = []
    enumerate_bits = structures.enumerate_bits

    def counted(n):
        calls.append(n)
        return enumerate_bits(n)

    monkeypatch.setattr(structures, "enumerate_bits", counted)
    code, out, _ = run(capsys, "verify", expr)
    assert code == 0 and "monotone_exhaustive" in out
    assert len(calls) == builds


def test_verify_json_and_exit_code_on_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_verify_rows", lambda expr, tol: [("rigged_check", False, "boom")]
    )
    code, out, _ = run(capsys, "verify", "kofn(1,1)", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["all_pass"] is False
    code, out, _ = run(capsys, "verify", "kofn(1,1)")
    assert code == 2 and "FAIL" in out


# -- construct -------------------------------------------------------------------------

def test_construct_builtin(capsys):
    code, out, _ = run(
        capsys, "construct", "--target", "ceil_cuberoot", "--n", "1000", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == 3 and payload["k"] == 333
    assert payload["m"] == 8 and payload["r"] == 39
    assert payload["ground_size"] == 936
    parsed = parse_expr(payload["expr"])
    assert parsed.n == 936


def test_construct_file_target(capsys, tmp_path):
    table = tmp_path / "target.csv"
    table.write_text("n,c\n1000,10\n4000,16\n")
    code, out, _ = run(
        capsys, "construct", "--target", f"file:{table}", "--n", "1000", "--json"
    )
    assert code == 0
    assert json.loads(out)["a"] == 3


def test_construct_file_target_envelope_rejected(capsys, tmp_path):
    table = tmp_path / "bad.csv"
    table.write_text("n,c\n1000,2\n")  # 2 < ln(1000)
    code, _, err = run(capsys, "construct", "--target", f"file:{table}", "--n", "1000")
    assert code == 1 and "envelope" in err


def test_construct_unknown_target(capsys):
    code, _, err = run(capsys, "construct", "--target", "ceil_exp", "--n", "1000")
    assert code == 1 and "unknown builtin" in err


# -- scaling ----------------------------------------------------------------------------

def test_scaling_target_csv(capsys):
    code, out, _ = run(
        capsys, "scaling", "--target", "ceil_cuberoot", "--sizes", "1024,4096",
        "--eps", "0.25",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,N,c_N,tau,tau_times_c_N"
    assert len(lines) == 3
    n, size, c_n, tau, prod = lines[1].split(",")
    assert int(n) == 1024 and int(size) == 1024 and int(c_n) == 11
    assert float(prod) == pytest.approx(float(tau) * int(c_n), rel=1e-12)


def test_scaling_family_csv(capsys):
    code, out, _ = run(
        capsys, "scaling", "--family", "series", "--sizes", "16,64", "--eps", "0.25"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,sharpness_ratio,half_slope_statistic"
    ratios = [float(line.split(",")[1]) for line in lines[1:]]
    assert ratios[0] > ratios[1] > 1.5


def test_scaling_rejects_bad_sizes(capsys):
    code, _, err = run(capsys, "scaling", "--family", "series", "--sizes", ",")
    assert code == 1 and "sizes" in err


@pytest.mark.parametrize("argv", [
    ("--family", "majority", "--sizes", "11,21", "--tol", "nan"),
    ("--target", "ceil_sqrt", "--sizes", "64,5"),
    ("--family", "majority", "--sizes", "1"),
])
def test_failing_scaling_prints_no_table(capsys, argv):
    code, out, err = run(capsys, "scaling", *argv)
    assert code == 1 and out == "" and err.startswith("error: ")


# -- mc ----------------------------------------------------------------------------------

def test_mc_samples(capsys):
    code, out, _ = run(
        capsys, "mc", "prod(parallel(2),series(3))", "--p", "0.5",
        "--samples", "20000", "--seed", "5", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 20000 and payload["seed"] == 5
    assert payload["ci_lo"] <= 0.578125 <= payload["ci_hi"]


def test_mc_halfwidth(capsys):
    code, out, _ = run(
        capsys, "mc", "kofn(51,101)", "--p", "0.5", "--halfwidth", "0.02", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.5 * (payload["ci_hi"] - payload["ci_lo"]) <= 0.02 + 1e-12
    assert payload["capped"] is False


def test_mc_sample_count_past_the_cap_is_an_error(capsys):
    code, out, err = run(
        capsys, "mc", "kofn(2,3)", "--p", "0.5", "--samples", "1000000000000"
    )
    assert code == 1 and not out and "100 to 100000000 samples" in err


def test_mc_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "mc", "kofn(1,1)", "--p", "0.5")
    assert code == 1 and "exactly one" in err
    code, _, err = run(
        capsys, "mc", "kofn(1,1)", "--p", "0.5", "--samples", "200",
        "--halfwidth", "0.1",
    )
    assert code == 1


# -- errors --------------------------------------------------------------------------------

def test_parse_error_exit_code_and_offset(capsys):
    code, _, err = run(capsys, "eval", "kofn(2;3)", "--p", "0.5")
    assert code == 1
    assert "parse error" in err and "offset 6" in err


def test_deep_nesting_is_a_parse_error(capsys):
    expr = "prod(" * 1500 + "series(1)" + ",series(1))" * 1500
    code, out, err = run(capsys, "eval", expr, "--p", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("parse error:") and "offset 1280" in err
    assert "Traceback" not in err


def test_cli_import_leaves_mpmath_out():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(thresholdlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, thresholdlab.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_out_of_range_p(capsys):
    code, _, err = run(capsys, "eval", "kofn(2,3)", "--p", "1.5")
    assert code == 1 and "probability" in err


def test_round_trip_via_cli_expr_echo(capsys):
    source = "prod(consec(2,4,linear),kofn(2,3))"
    code, out, _ = run(capsys, "eval", source, "--p", "0.3", "--json")
    assert code == 0
    echoed = json.loads(out)["expr"]
    reparsed = parse_expr(echoed)
    assert reparsed == parse_expr(source)
    for p in (0.1, 0.5, 0.9):
        assert availability(reparsed, p).value == availability(parse_expr(source), p).value
