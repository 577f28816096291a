"""End-to-end CLI tests driving main() directly, plus one subprocess smoke.

Exit-code contract: 0 success / nothing found, 1 a check found a violation
(witness on stdout), 2 usage or input error (message on stderr).
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opmeans
from opmeans import cli, hdensity, jsonio
from opmeans.cli import main
from opmeans.means import arithmetic_pair, geometric_pair, heinz_pair, heron_pair

# each verb echoes the defaults of the options it takes, and only those
_SAMPLED_ECHO = {"tol": 1e-8, "trials": 1000, "seed": 42}
DEFAULT_ECHO = {"eval-mean": {}, "rep-eval": {}, "solve-pair": {},
                "solve-heinz-heron": {}, "chain": {}, "sweep": {},
                "check-monotone": _SAMPLED_ECHO, "check-order": _SAMPLED_ECHO,
                "ka-check": {**_SAMPLED_ECHO, "n": 3}}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _mat(tmp_path, name, rows):
    rows = [[float(v) for v in row] for row in rows]
    return _write(tmp_path, name, {"n": len(rows), "rows": rows})


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if captured.out:
        _payload(captured.out)      # every report printed is one canonical line
    return code, captured.out, captured.err


def _payload(out):
    lines = out.strip().splitlines()
    assert len(lines) == 1, "reports are single-line JSON"
    # the report is the encoder's canonical text: .17g numbers (ints parsed as
    # floats keep -0 negative), ", " and ": " separators, ASCII escapes
    assert jsonio.dumps(json.loads(lines[0], parse_int=float)) == lines[0]
    return json.loads(lines[0])


# ----------------------------------------------------------------- eval/solve

def test_eval_mean_arithmetic(tmp_path, capsys):
    a = _mat(tmp_path, "a.json", [[1.0, 0.0], [0.0, 3.0]])
    b = _mat(tmp_path, "b.json", [[3.0, 0.0], [0.0, 1.0]])
    code, out, err = _run(capsys, ["eval-mean", "--mean", "arithmetic",
                                   "--a", a, "--b", b])
    assert code == 0 and err == ""
    payload = _payload(out)
    assert list(payload)[0] == "config"
    assert payload["config"] == DEFAULT_ECHO["eval-mean"]
    assert payload["value"]["rows"] == [[2.0, 0.0], [0.0, 2.0]]


def test_solve_pair_identity_oracle(tmp_path, capsys):
    x = _mat(tmp_path, "x.json", np.eye(2).tolist())
    y = _mat(tmp_path, "y.json", (1.25 * np.eye(2)).tolist())
    code, out, _ = _run(capsys, ["solve-pair", "--mean", "arithmetic",
                                 "--x", x, "--y", y])
    assert code == 0
    payload = _payload(out)
    got = np.array(payload["A"]["rows"])
    assert np.max(np.abs(got - 2.0 * np.eye(2))) <= 1e-10
    assert payload["residual_x"] <= 1e-10 and payload["residual_y"] <= 1e-10


def test_solve_heinz_heron_both_target_kinds(tmp_path, capsys):
    x = _mat(tmp_path, "x.json", (0.9 * np.eye(2)).tolist())
    y = _mat(tmp_path, "y.json", np.eye(2).tolist())
    for targets in ("heinz-heron", "geom-heinz"):
        code, out, _ = _run(capsys, ["solve-heinz-heron", "--s", "0.3",
                                     "--x", x, "--y", y,
                                     "--targets", targets])
        assert code == 0
        payload = _payload(out)
        assert payload["targets"] == targets
        assert payload["residual_x"] <= 1e-9
        assert payload["residual_y"] <= 1e-9


def test_solve_geom_heinz_past_the_scan_horizon_exits_two(tmp_path, capsys):
    # at s = 0.499 the roots of the relative eigenvalues 1.2, 3 and 1000 lie
    # past the scan horizon
    x = _mat(tmp_path, "x.json", np.eye(3).tolist())
    y = _mat(tmp_path, "y.json", np.diag([1.2, 3.0, 1000.0]).tolist())
    code, out, err = _run(capsys, ["solve-heinz-heron", "--s", "0.499", "--x", x, "--y", y,
                                   "--targets", "geom-heinz"])
    assert code == 2 and out == ""
    assert "error:" in err and "not reached" in err and "horizon" in err


def test_chain_reports_links(tmp_path, capsys):
    x = _mat(tmp_path, "x.json", np.eye(2).tolist())
    y = _mat(tmp_path, "y.json", [[2.5, 0.0], [0.0, 1.2]])
    code, out, _ = _run(capsys, ["chain", "--mean", "arithmetic",
                                 "--x", x, "--y", y, "--gamma0", "1.4"])
    assert code == 0
    payload = _payload(out)
    assert payload["gamma0"] == 1.4
    assert len(payload["links"]) == len(payload["pair_witnesses"]) + 1
    assert payload["links"][0]["rows"] == np.eye(2).tolist()
    assert payload["links"][-1]["rows"] == [[2.5, 0.0], [0.0, 1.2]]


# ------------------------------------------------------------------- rep-eval

def test_rep_eval_constant_half_is_square_root(capsys):
    code, out, _ = _run(capsys, ["rep-eval", "--constant", "0.5",
                                 "--t", "1,4,9"])
    assert code == 0
    payload = _payload(out)
    assert payload["class"] == "sym"
    assert payload["value"] == pytest.approx([1.0, 2.0, 3.0], rel=1e-10)
    assert payload["derivative"] == pytest.approx([0.5, 0.25, 1.0 / 6.0],
                                                  rel=1e-8)


def test_rep_eval_density_file(tmp_path, capsys):
    density = _write(tmp_path, "h.json",
                     {"class": "sa", "breaks": [-1.0, 0.0], "values": [0.3]})
    code, out, _ = _run(capsys, ["rep-eval", "--density", density,
                                 "--t", "2.0"])
    assert code == 0
    payload = _payload(out)
    assert payload["class"] == "sa"
    assert payload["value"][0] == pytest.approx(2.0 ** 0.3, rel=1e-10)


@pytest.mark.parametrize("verb", [
    ["rep-eval", "--density", "{h}", "--t", "0.5,2"],
    ["eval-mean", "--mean", "hdensity:{h}", "--a", "{a}", "--b", "{a}"],
    ["check-order", "--f", "hdensity:{h}", "--g", "arithmetic", "--trials", "20"]],
    ids=["rep-eval", "eval-mean", "check-order"])
def test_density_file_with_a_nan_breakpoint_is_an_input_error(tmp_path, capsys, verb):
    # Python's json reads NaN; the density must refuse it before any verb runs
    h = tmp_path / "h.json"
    h.write_text('{"class": "sym", "breaks": [0.0, NaN, 1.0], "values": [0.2, 0.7]}')
    a = _mat(tmp_path, "a.json", np.eye(2).tolist())
    code, out, err = _run(capsys, [arg.format(h=h, a=a) for arg in verb])
    assert code == 2 and out == ""
    assert "strictly increasing" in err


@pytest.mark.parametrize("density", [
    {"class": "sym", "breaks": [0.0, 0.3, 1.0], "values": [0.2, 0.6]},
    {"class": "sa", "breaks": [-1.0, -0.4, 0.0], "values": [0.8, 0.15]}], ids=["sym", "sa"])
def test_rep_eval_evaluates_the_density_once(tmp_path, capsys, monkeypatch, density):
    # value and derivative come from one evaluation of the representing function
    calls = []
    for name in ("_symmetric_rep", "_selfadjoint_rep"):
        def counting(*args, real=getattr(hdensity, name)):
            calls.append(np.size(args[0]))
            return real(*args)
        monkeypatch.setattr(hdensity, name, counting)
    path = _write(tmp_path, "h.json", density)
    code, out, _ = _run(capsys, ["rep-eval", "--density", path, "--t", "0.5,1,2,30"])
    assert code == 0 and calls == [4]
    assert len(_payload(out)["derivative"]) == 4


def test_rep_eval_requires_exactly_one_source(capsys):
    code, _, err = _run(capsys, ["rep-eval", "--t", "1.0"])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["rep-eval", "--constant", "0.5",
                                 "--density", "h.json", "--t", "1.0"])
    assert code == 2 and "error:" in err


# --------------------------------------------------------------------- checks

def test_check_monotone_exit_codes(capsys):
    code, out, _ = _run(capsys, ["check-monotone", "--fn", "sqrt(t)",
                                 "--trials", "40"])
    assert code == 0
    assert _payload(out)["status"] == "consistent"

    code, out, _ = _run(capsys, ["check-monotone", "--fn", "t^2",
                                 "--trials", "40"])
    assert code == 1
    payload = _payload(out)
    assert payload["status"] == "refuted"
    assert payload["witness"]["kind"] == "loewner-points"


def test_check_monotone_of_a_tiny_multiple_stays_consistent(capsys):
    # Loewner norms of 1e-170 sqrt(t) underflowed to 0, and rounding noise refuted
    code, out, _ = _run(capsys, ["check-monotone", "--fn", "1e-170*sqrt(t)"])
    assert code == 0
    assert _payload(out)["status"] == "consistent"


@pytest.mark.xfail(strict=True, reason="the rounding error of 1 + c*t reads as a refutation "
                                      "until parsed functions carry an error bound")
@pytest.mark.parametrize("fn", ["1e6*log(1+1e-6*t)", "1e9*log(1+1e-9*t)", "1e12*log(1+1e-12*t)",
                                "1e8*((1+1e-8*t)^0.5-1)", "1e6*(1 - 1/(1+1e-6*t))"])
def test_check_monotone_of_a_scaled_monotone_function_is_consistent(fn, capsys):
    # each is a positive multiple of log(1+ct), sqrt(1+ct) - 1 or t/(1+ct): operator monotone
    assert main(["check-monotone", "--fn", fn]) == 0


# operator monotone by construction (sums, positive multiples, powers in
# (0, 1], log(c + f), d - d/(e + f) and t/(c + f) of operator monotone f),
# yet each is refuted at the CLI defaults, after 1 to 799 trials
_GRAMMAR_FALSE_REFUTATIONS = [
    "log(0.00129 + t/(0.0262 + t))",
    "log(0.00319 + t/(0.00262 + (0.000157 + t)))",
    "(t + ((0.00789 + (t)^0.879) + (392000 - 392000/(8.45e-06 + t/(1.19e-06 + t)))))",
    "(1.74 - 1.74/(7.41e-06 + t/(6.09e-06 + t)))",
    "log(0.000123 + t/(0.104 + t))",
    "(238000 - 238000/(1.01 + 5.73*1.09e-05*(t)^0.348))",
    "5.42e+07*log(1.41e-09 + (sqrt(t/(6.19e-09 + t)))^0.151)",
    "(2.58e-06 - 2.58e-06/(4.22e-05 + t/(7.08e-09 + (1.67e-09 + t))))",
    "16300*(2.32 - 2.32/(0.00072 + sqrt(sqrt(t/(0.000159 + t)))))",
    "29000*log(8.06e-06 + t/(1.24e-06 + t))",
    "log(3.3e-09 + t/(1.88e-07 + t))",
    "1.41e+07*(17400 - 17400/(0.0127 + t/(3.38e-06 + t)))",
    "log(2.39e-09 + (((log(584 + t))^0.37)^0.25)^0.073)",
    "(8.38e-09 + (29.3 - 29.3/(0.000233 + (1.33e-09 + t/(0.168 + t)))))",
    "84.8*(4.65e-07 - 4.65e-07/(1.18e-05 + t/(3.71e-05 + t)))",
    "(1.07e-06 - 1.07e-06/(9.89e-08 + (t/(1.43e-05 + t) + t/(1.53e+06 + t))))",
    "(33.6 - 33.6/(0.000541 + t/(2.46e-06 + t)))",
    "(8.13e-09 + (0.00508 - 0.00508/(1.19e-06 + t/(0.000461 + t))))",
    "0.0117*log(1.2e-09 + t/(1.09e-07 + t))",
    "9.81e-10*(547000 - 547000/(0.00983 + t/(0.0317 + t)))",
    "log(3.4e-07 + t/(0.105 + t))",
]


@pytest.mark.xfail(strict=True, reason="rounding error in a parsed expression reads as a "
                                      "refutation until parsed functions carry an error bound")
@pytest.mark.parametrize("fn", _GRAMMAR_FALSE_REFUTATIONS)
def test_check_monotone_of_a_grammar_monotone_function_is_consistent(fn, capsys):
    assert main(["check-monotone", "--fn", fn]) == 0


def test_check_monotone_survives_fast_growth(capsys):
    code, out, _ = _run(capsys, ["check-monotone", "--trials", "40",
                                 "--fn", "(exp(t)-1)/(exp(1)-1)"])
    assert code == 1
    assert _payload(out)["status"] == "refuted"


def test_check_order_exit_codes(capsys):
    code, out, _ = _run(capsys, ["check-order", "--f", "geometric",
                                 "--g", "arithmetic", "--trials", "60"])
    assert code == 0
    assert _payload(out)["order_class"] == "sym"

    code, out, _ = _run(capsys, ["check-order", "--f", "arithmetic",
                                 "--g", "geometric", "--trials", "60"])
    assert code == 1
    assert _payload(out)["status"] == "refuted"


def test_check_order_self_adjoint_class(capsys):
    # consistent orientation: the first density dominates (t^0.7 over t^0.3,
    # quotient t^0.4 operator monotone)
    code, out, _ = _run(capsys, ["check-order", "--f", "wgeo:0.7",
                                 "--g", "wgeo:0.3", "--trials", "60"])
    assert code == 0
    assert _payload(out)["order_class"] == "sa"

    code, out, _ = _run(capsys, ["check-order", "--f", "wgeo:0.3",
                                 "--g", "wgeo:0.7", "--trials", "60"])
    assert code == 1
    assert _payload(out)["status"] == "refuted"

    code, _, err = _run(capsys, ["check-order", "--f", "arithmetic",
                                 "--g", "wgeo:0.3", "--trials", "60"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("trials, n", [("0", "-5"), ("0", "0"), ("2", "0")])
def test_ka_check_bad_matrix_size_exits_two(capsys, trials, n):
    code, out, err = _run(capsys, ["ka-check", "--sigma", "geometric", "--tau", "arithmetic",
                                   "--trials", trials, "--n", n])
    assert code == 2 and out == "" and "matrix size must be a positive integer" in err


def test_ka_check_reports_config(capsys):
    code, out, _ = _run(capsys, ["ka-check", "--sigma", "geometric",
                                 "--tau", "wgeo:0.3", "--trials", "50"])
    assert code == 0
    payload = _payload(out)
    assert list(payload)[0] == "config"
    assert payload["violations"] == []
    assert "min_margin" in payload


# ---------------------------------------------------------------------- sweep

def test_sweep_margins_csv(tmp_path, capsys):
    out_csv = tmp_path / "margins.csv"
    code, out, _ = _run(capsys, ["sweep", "--kind", "margins",
                                 "--grid", "0.05:0.95:19",
                                 "--a", "1.0", "--b", "4.0",
                                 "--out", str(out_csv)])
    assert code == 0
    assert _payload(out)["rows"] == 19
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 20
    header = lines[0].split(",")
    assert header[0] == "s" and header[1] == "geometric"
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.05)
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        assert cells[5] >= -1e-15    # heinz - geometric
        assert cells[6] >= -1e-15    # heron - heinz
        assert cells[7] >= -1e-15    # arithmetic - heron


@pytest.mark.parametrize("a, b", [(0.37, 11.3), (1e-200, 1e200), (1e200, 1e200)])
def test_sweep_margins_cells_are_the_catalog_means(tmp_path, capsys, a, b):
    # every mean of (a, b) in the CSV is the catalog's scalar-pair definition,
    # also where b / a (second pair) or a b (third) overflows
    out_csv = tmp_path / "margins.csv"
    code, _, _ = _run(capsys, ["sweep", "--kind", "margins", "--grid", "0.05:0.95:7",
                               "--a", repr(a), "--b", repr(b), "--out", str(out_csv)])
    assert code == 0
    for line in out_csv.read_text().strip().split("\n")[1:]:
        s, geo, heinz, heron, arith, *gaps = (float(v) for v in line.split(","))
        assert geo == geometric_pair(a, b) and arith == arithmetic_pair(a, b)
        assert heinz == heinz_pair(s, a, b)
        assert heron == heron_pair((2.0 * s - 1.0) ** 2, a, b)
        assert gaps == [heinz - geo, heron - heinz, arith - heron]
        assert all(math.isfinite(v) for v in (geo, heinz, heron, arith, *gaps))


def test_sweep_gamma_csv_marks_infinities(tmp_path, capsys):
    out_csv = tmp_path / "gamma.csv"
    code, _, _ = _run(capsys, ["sweep", "--kind", "gamma", "--family",
                               "heron", "--grid", "0:1:5",
                               "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "s,gamma,gamma_is_infinite"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    assert first[2] == "0"          # heron at s=0 is the geometric mean
    last = lines[-1].split(",")
    assert last[1] == "inf" and last[2] == "1"


def test_sweep_gamma_is_exact_for_catalog_means(tmp_path, capsys):
    # the limit estimate read 1.2e-9 for wgeo 0.13 and about 1 for Heinz
    # near s = 1/2, whose phi-limits are 0 and inf
    out_csv = tmp_path / "gamma.csv"
    for family, grid, cells in (("wgeo", "0.1:0.2:11", [["0", "0"]] * 11),
                                ("heinz", "0.4999999:0.4999999:1", [["inf", "1"]])):
        code, _, _ = _run(capsys, ["sweep", "--kind", "gamma", "--family", family,
                                   "--grid", grid, "--out", str(out_csv)])
        assert code == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert [row.split(",")[1:] for row in rows] == cells


def test_sweep_empty_grid_writes_header_only(tmp_path, capsys):
    out_csv = tmp_path / "empty.csv"
    code, out, _ = _run(capsys, ["sweep", "--kind", "margins",
                                 "--grid", "0.1:0.9:0",
                                 "--a", "1.0", "--b", "2.0",
                                 "--out", str(out_csv)])
    assert code == 0
    assert _payload(out)["rows"] == 0
    assert out_csv.read_text() == ("s,geometric,heinz,heron,arithmetic,"
                                   "heinz_minus_geometric,heron_minus_heinz,"
                                   "arithmetic_minus_heron\n")


def test_sweep_usage_errors(tmp_path, capsys):
    out_csv = str(tmp_path / "x.csv")
    code, _, err = _run(capsys, ["sweep", "--kind", "margins",
                                 "--grid", "0:1:5", "--out", out_csv])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["sweep", "--kind", "gamma",
                                 "--grid", "0:1", "--family", "heron",
                                 "--out", out_csv])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["sweep", "--kind", "margins", "--a", "1",
                                 "--b", "-2", "--grid", "0:1:3",
                                 "--out", out_csv])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["sweep", "--kind", "margins", "--a", "1e308",
                                 "--b", "1.5e308", "--grid", "0:1:3",
                                 "--out", out_csv])
    assert code == 2 and "overflows" in err


@pytest.mark.parametrize("grid", ["-1:2:4", "0:1.5:3", "nan:1:3"])
def test_sweep_margins_rejects_s_outside_the_unit_interval(tmp_path, capsys, grid):
    # Heinz and Heron rows at s outside [0, 1] are not means, as the gamma
    # sweep already says; nothing is written and nothing is echoed
    out_csv = tmp_path / "m.csv"
    code, out, err = _run(capsys, ["sweep", "--kind", "margins", f"--grid={grid}",
                                   "--a", "1", "--b", "2", "--out", str(out_csv)])
    assert code == 2 and out == ""
    assert f"must lie in [0, 1], got {grid!r}" in err
    assert not out_csv.exists()


# --------------------------------------------------------------- usage errors

def test_usage_errors_exit_two(tmp_path, capsys):
    a = _mat(tmp_path, "a.json", np.eye(2).tolist())
    code, _, err = _run(capsys, ["eval-mean", "--mean", "bogus",
                                 "--a", a, "--b", a])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["eval-mean", "--mean", "arithmetic",
                                 "--a", str(tmp_path / "missing.json"),
                                 "--b", a])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["no-such-verb"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("flag", [["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"],
                                  ["--tol=-1e-8"], ["--seed", "-1"], ["--trials", "-1"]])
def test_bad_tolerance_seed_or_trials_exits_two(tmp_path, capsys, flag):
    x = _mat(tmp_path, "x.json", np.eye(2).tolist())
    y = _mat(tmp_path, "y.json", (1.25 * np.eye(2)).tolist())
    for argv in (["check-monotone", "--fn", "t^2", "--trials", "5"],
                 ["check-order", "--f", "geometric", "--g", "arithmetic", "--trials", "5"],
                 ["ka-check", "--sigma", "geometric", "--tau", "arithmetic", "--trials", "2"],
                 ["solve-pair", "--mean", "arithmetic", "--x", x, "--y", y],
                 ["solve-heinz-heron", "--s", "0.25", "--x", x, "--y", y],
                 ["chain", "--mean", "arithmetic", "--x", x, "--y", y]):
        code, out, err = _run(capsys, argv + flag)
        assert code == 2 and out == "" and flag[0].split("=")[0] in err


def test_non_spd_input_exits_two(tmp_path, capsys):
    bad = _mat(tmp_path, "bad.json", [[0.0, 0.0], [0.0, 1.0]])
    good = _mat(tmp_path, "good.json", np.eye(2).tolist())
    code, _, err = _run(capsys, ["eval-mean", "--mean", "arithmetic",
                                 "--a", bad, "--b", good])
    assert code == 2 and "error:" in err


def test_malformed_input_files_exit_two(tmp_path, capsys):
    good = _mat(tmp_path, "good.json", np.eye(2).tolist())
    deep, latin = tmp_path / "deep.json", tmp_path / "latin.json"
    deep.write_text("[" * 100_000)
    latin.write_bytes(b'\xff{"n": 1, "rows": [[1.0]]}')
    for bad in (str(deep), str(latin),
                _write(tmp_path, "ragged.json", {"n": 2, "rows": [[1.0, 0.0], [1.0]]}),
                _write(tmp_path, "text.json", {"n": 2, "rows": [[1.0, "a"], [0.0, 1.0]]})):
        code, out, err = _run(capsys, ["eval-mean", "--mean", "arithmetic",
                                       "--a", bad, "--b", good])
        assert code == 2 and out == "" and "error:" in err
    for cls, breaks, values in (("sym", 0.5, [0.3]), ("sym", [0.0, "a", 1.0], [0.3, 0.3]),
                                ("sym", [0.0, 1.0], [None]), ([], [0.0, 1.0], [0.3])):
        density = _write(tmp_path, "h.json", {"class": cls, "breaks": breaks, "values": values})
        code, out, err = _run(capsys, ["rep-eval", "--density", density, "--t", "2.0"])
        assert code == 2 and out == "" and "error:" in err


def test_solver_order_failure_exits_two(tmp_path, capsys):
    x = _mat(tmp_path, "x.json", (2.0 * np.eye(2)).tolist())
    y = _mat(tmp_path, "y.json", np.eye(2).tolist())
    code, _, err = _run(capsys, ["solve-pair", "--mean", "arithmetic",
                                 "--x", x, "--y", y])
    assert code == 2 and "error:" in err


_MATRIX_VERBS = {"eval-mean": (["--mean", "arithmetic", "--a"], "--b", "AB"),
                 "solve-pair": (["--mean", "arithmetic", "--x"], "--y", "XY"),
                 "solve-heinz-heron": (["--s", "0.3", "--x"], "--y", "XY"),
                 "chain": (["--mean", "arithmetic", "--x"], "--y", "XY")}
_FLOOR = "matrix is not positive definite within tolerance: smallest eigenvalue"
_INVALID_MATRICES = {
    "asymmetric": ([[2.0, 0.5], [0.0, 2.0]], "SpdMatrix is not symmetric: max |M - M^T| = "
                   "5.000e-01 exceeds 1e-12 * max(1, ||M||_F)"),
    "indefinite": ([[1.0, 0.0], [0.0, -1.0]], f"{_FLOOR} -1.000000e+00 is below the floor "
                   "1.414214e-12"),
    "below-floor": ([[1.0, 0.0], [0.0, 1e-13]], f"{_FLOOR} 1.000000e-13 is below the floor "
                    "1.000000e-12"),
    "nan": ([[1.0, math.nan], [math.nan, 1.0]], "SpdMatrix contains non-finite entries")}


@pytest.mark.parametrize("case", sorted(_INVALID_MATRICES) + ["n"])
@pytest.mark.parametrize("verb", sorted(_MATRIX_VERBS))
def test_invalid_matrix_files_exit_two_with_a_message_naming_the_matrix(tmp_path, capsys,
                                                                       verb, case):
    head, second, names = _MATRIX_VERBS[verb]
    good = _mat(tmp_path, "good.json", np.eye(2).tolist())
    worse = _mat(tmp_path, "worse.json", [[1.0, 0.0], [0.0, -3.0]])

    def run(first_file, second_file):
        return _run(capsys, [verb, *head, first_file, second, second_file])

    if case == "n":     # a valid 3 x 3 matrix against a valid 2 x 2 one
        other = _mat(tmp_path, "three.json", np.eye(3).tolist())
        assert run(other, good) == (2, "", "error: shape mismatch: (3, 3) vs (2, 2)\n")
        assert run(good, other) == (2, "", "error: shape mismatch: (2, 2) vs (3, 3)\n")
        # an invalid second matrix of another size still fails its own validation
        assert run(other, worse) == (2, "", f"error: {names[1]}: {_FLOOR} -3.000000e+00 "
                                            "is below the floor 3.162278e-12\n")
        return
    rows, message = _INVALID_MATRICES[case]
    bad = _mat(tmp_path, "bad.json", rows)
    assert run(bad, good) == (2, "", f"error: {names[0]}: {message}\n")
    assert run(good, bad) == (2, "", f"error: {names[1]}: {message}\n")
    # with both matrices invalid, the first one's error is reported
    assert run(bad, worse) == (2, "", f"error: {names[0]}: {message}\n")


@pytest.mark.parametrize("verb, matrices", [("eval-mean", [1, 1]), ("solve-pair", [1, 1, 1, 1])])
def test_matrix_verbs_decompose_only_what_they_use(tmp_path, capsys, monkeypatch, verb, matrices):
    # eval-mean: A's validation and the relative spectrum, which proves B
    # positive definite and gives the mean; solve-pair: the library solve
    # alone (X, the relative spectrum, the witness's A and relative spectrum)
    from opmeans import spd
    seen = []
    real = spd._eigh

    def counting(a, *args, **kwargs):
        seen.append(a.shape[0] if a.ndim == 3 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(spd, "_eigh", counting)
    x = _mat(tmp_path, "x.json", [[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]])
    y = _mat(tmp_path, "y.json", [[2.5, 0.6, 0.1], [0.6, 2.0, 0.2], [0.1, 0.2, 1.5]])
    head, second, _ = _MATRIX_VERBS[verb]
    code, out, err = _run(capsys, [verb, *head, x, second, y])
    assert (code, err) == (0, "") and seen == matrices


# ------------------------------------------------------- one parser, one report

def _default_argv(tmp_path, verb):
    x = _mat(tmp_path, "x.json", np.eye(2).tolist())
    y = _mat(tmp_path, "y.json", [[1.25, 0.0], [0.0, 1.5]])
    below = _mat(tmp_path, "below.json", (0.9 * np.eye(2)).tolist())
    return {
        "eval-mean": ["--mean", "arithmetic", "--a", x, "--b", y],
        "rep-eval": ["--constant", "0.5", "--t", "1,2"],
        "solve-pair": ["--mean", "arithmetic", "--x", x, "--y", y],
        "solve-heinz-heron": ["--s", "0.3", "--x", below, "--y", x],
        "chain": ["--mean", "arithmetic", "--x", x, "--y", y],
        "check-monotone": ["--fn", "sqrt(t)"],
        "check-order": ["--f", "geometric", "--g", "arithmetic"],
        "ka-check": ["--sigma", "geometric", "--tau", "wgeo:0.3"],
        "sweep": ["--kind", "margins", "--grid", "0:1:3", "--a", "1", "--b", "2",
                  "--out", str(tmp_path / "m.csv")],
    }[verb]


@pytest.mark.parametrize("verb", ["eval-mean", "rep-eval", "solve-pair",
                                  "solve-heinz-heron", "chain", "check-monotone",
                                  "check-order", "ka-check", "sweep"])
def test_every_verb_reports_the_default_config_first(tmp_path, capsys, verb):
    code, out, err = _run(capsys, [verb] + _default_argv(tmp_path, verb))
    assert code == 0 and err == ""
    payload = _payload(out)
    assert list(payload)[0] == "config"
    assert payload["config"] == DEFAULT_ECHO[verb]


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        code, out, _ = _run(capsys, ["rep-eval", "--constant", "0.5", "--t", "4"])
        assert code == 0 and _payload(out)["value"] == [2.0]
    assert built == []


def _outcome(capsys, argv):
    """Exit code (or SystemExit code), stdout and stderr of one main call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    return (code, *capsys.readouterr())


def test_main_parses_a_verb_once_as_the_full_parser_would(tmp_path, capsys, monkeypatch):
    # main hands the arguments after a verb straight to that verb's parser:
    # the handler sees the Namespace the full parser gives, and the report,
    # the messages and the exit code are those of the full parser's parse
    namespaces, parses = [], []
    for p in cli._PARSER.verbs.values():
        def recording(args, real=p.get_default("handler")):
            namespaces.append(vars(args))
            return real(args)
        monkeypatch.setitem(p._defaults, "handler", recording)
    real_parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parses.append(self.prog)
        return real_parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    monkeypatch.setattr(sys, "argv", ["opmeans", "rep-eval", "--constant", "0.5", "--t", "4"])

    def observe(argv):
        namespaces.clear(), parses.clear()
        return _outcome(capsys, argv), list(namespaces), list(parses)

    h = _write(tmp_path, "h.json", {"class": "sym", "breaks": [0.0, 1.0], "values": [0.5]})
    cases = {**{verb: [verb] + _default_argv(tmp_path, verb) for verb in cli._PARSER.verbs},
             "no-arguments": [], "help": ["-h"], "unknown-verb": ["no-such-verb"],
             "verb-help": ["eval-mean", "-h"],
             "unknown-option": ["rep-eval", "--constant", "0.5", "--t", "2", "--bogus"],
             "abbreviated-option": ["rep-eval", "--dens", h, "--t", "2"], "argv-none": None}
    assert len(cli._PARSER.verbs) == 9
    for name, argv in cases.items():
        fast = observe(argv)
        with monkeypatch.context() as full_only:
            full_only.setattr(cli._PARSER, "verbs", {})
            full = observe(argv)
        assert fast[:2] == full[:2], name
        # after a verb, its parser alone runs; the full parser runs itself and then it
        first = (sys.argv[1:] if argv is None else argv)[:1]
        if first and first[0] in cli._PARSER.verbs:
            assert len(full[2]) == 2 and fast[2] == full[2][1:], name
        else:
            assert fast[2] == full[2] == ["opmeans"], name
    assert observe(cases["abbreviated-option"])[0][0] == 0
    assert observe(cases["unknown-option"])[0][:2] == (2, "")
    assert observe(cases["verb-help"])[0][0] == ("SystemExit", 0)


# -------------------------------------------------------------- reproducibility

def test_reports_are_deterministic(capsys):
    argv = ["check-monotone", "--fn", "t^2", "--trials", "50"]
    _, out_one, _ = _run(capsys, argv)
    _, out_two, _ = _run(capsys, argv)
    assert out_one == out_two


def test_floats_printed_with_full_precision(tmp_path, capsys):
    x = _mat(tmp_path, "x.json", np.eye(1).tolist())
    y = _mat(tmp_path, "y.json", [[1.0 + 1.0 / 3.0]])
    code, out, _ = _run(capsys, ["solve-pair", "--mean", "arithmetic",
                                 "--x", x, "--y", y])
    assert code == 0
    value = _payload(out)["A"]["rows"][0][0]
    recon = json.loads(out)["A"]["rows"][0][0]
    assert value == recon           # 17 significant digits roundtrip floats


def test_module_entry_point_subprocess(tmp_path):
    a = _mat(tmp_path, "a.json", np.eye(2).tolist())
    # the child imports the package under test, from its own source tree
    src = str(Path(opmeans.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "opmeans", "eval-mean", "--mean", "geometric",
         "--a", a, "--b", a],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    payload = _payload(proc.stdout)
    assert payload["value"]["rows"] == np.eye(2).tolist()
    assert payload["config"] == DEFAULT_ECHO["eval-mean"]


def test_matrix_file_with_a_bool_size_exits_two(tmp_path, capsys):
    good = _mat(tmp_path, "good.json", [[2.0]])
    bad = _write(tmp_path, "bool.json", {"n": True, "rows": [[2.0]]})
    code, out, err = _run(capsys, ["eval-mean", "--mean", "arithmetic", "--a", bad, "--b", good])
    assert (code, out) == (2, "")
    assert err == 'error: matrix JSON field "n" must be a positive integer, got True\n'


@pytest.mark.parametrize("argv, message", [
    (["rep-eval", "--constant", "0.5", "--t", "x"], "bad float list 'x'"),
    (["rep-eval", "--constant", "0.5", "--t", ","], "no evaluation points given"),
    (["sweep", "--kind", "gamma", "--family", "heron", "--grid", "a:b:c"],
     "bad grid spec 'a:b:c'"),
    (["sweep", "--kind", "gamma", "--family", "heron", "--grid", "0:1:-1"],
     "grid count must be non-negative"),
    (["sweep", "--kind", "gamma", "--grid", "0:1:3"], "gamma sweep needs --family")],
    ids=["bad-t", "empty-t", "bad-grid", "negative-count", "no-family"])
def test_input_errors_exit_two_with_their_message(tmp_path, capsys, argv, message):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "s.csv")]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "s.csv").exists()


def test_sweep_into_a_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "s.csv"
    code, out, err = _run(capsys, ["sweep", "--kind", "gamma", "--family", "heron",
                                   "--grid", "0:1:3", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


def _label(named, m):
    return next((k for k, v in named.items() if np.array_equal(m, v)), "other")


def _record_checks(monkeypatch, named):
    """Log, for spd._as_array and spd._check_symmetric, the name in named
    (name -> array) of each matrix they are called on, or "other"."""
    from opmeans import spd
    seen = {}
    for check in ("_as_array", "_check_symmetric"):
        log, real = seen.setdefault(check, []), getattr(spd, check)

        def recording(m, *args, log=log, real=real, **kwargs):
            log.append(_label(named, np.asarray(m.entries if isinstance(m, spd.SpdMatrix) else m)))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(spd, check, recording)
    return seen


@pytest.mark.parametrize("verb", sorted(_MATRIX_VERBS))
def test_matrix_verbs_check_each_input_matrix_once(tmp_path, capsys, monkeypatch, verb):
    # each file's matrix is checked once, its shape and entries and then its
    # symmetry, and nothing built from them is checked; _as_array's other
    # calls are the JSON encodings of the reported matrices, in report order
    x_rows = [[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]]
    y_rows = [[2.5, 0.6, 0.1], [0.6, 2.0, 0.2], [0.1, 0.2, 1.5]]
    named = {"X": np.array(x_rows), "Y": np.array(y_rows)}
    seen = _record_checks(monkeypatch, named)
    head, second, _ = _MATRIX_VERBS[verb]
    code, out, err = _run(capsys, [verb, *head, _mat(tmp_path, "x.json", x_rows), second,
                                   _mat(tmp_path, "y.json", y_rows)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    reported = ([report["value"]] if verb == "eval-mean" else
                report["links"] + [m for w in report["pair_witnesses"] for m in (w["A"], w["B"])]
                if verb == "chain" else [report["A"], report["B"]])
    assert seen == {"_as_array": ["X", "Y"] + [_label(named, np.array(m["rows"]))
                                               for m in reported],
                    "_check_symmetric": ["X", "Y"]}


@pytest.mark.parametrize("verb", sorted(_MATRIX_VERBS))
def test_matrix_verbs_check_a_second_matrix_near_the_floor_once(tmp_path, capsys, monkeypatch,
                                                                verb):
    # the second matrix is SPD, too near the floor for the spectral proof:
    # SpdMatrix's floor test decides it, on the entries already checked
    x, y = np.eye(2), np.diag([1.0, 1.5e-12])
    seen = _record_checks(monkeypatch, {"X": x, "Y": y})
    head, second, _ = _MATRIX_VERBS[verb]
    code, out, err = _run(capsys, [verb, *head, _mat(tmp_path, "x.json", x), second,
                                   _mat(tmp_path, "y.json", y)])
    # eval-mean reports the mean; the solves fail after the checks (Y is
    # below X, or the witness too ill-conditioned)
    reported = ["other"] if verb == "eval-mean" else []
    assert seen == {"_as_array": ["X", "Y"] + reported, "_check_symmetric": ["X", "Y"]}
    assert (code, out == "") == ((0, False) if reported else (2, True))


@pytest.mark.parametrize("fn", ["log(-t)", "sqrt(-t)", "1/(t-t)"])
def test_check_monotone_of_a_function_undefined_on_every_set_exits_two(capsys, fn):
    # every sampled set is skipped: no verdict rests on them
    code, out, err = _run(capsys, ["check-monotone", "--fn", fn])
    assert (code, out, err) == (2, "", "error: f is undefined on every sampled set\n")


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader is gone before the report is written, as in `opmeans ... | head -c 0`
    src = str(Path(opmeans.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "opmeans", "check-monotone", "--fn", "t^2"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": path})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
