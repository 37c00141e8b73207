import argparse
import json
import math
import operator
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nelliptic import cli, solver
from nelliptic.cli import main, parse_expression
from nelliptic.errors import InvalidInputError, ParameterError
from nelliptic.fixtures import AnalyticFunction
from nelliptic.grid import GridFunction, read_grid, write_grid
from nelliptic.operators import Jet, SymMatrix
from nelliptic.solver import solve_linear


def run_cli(args, cwd=None):
    # the child inherits the absolute PYTHONPATH set in conftest.py, so any cwd works
    proc = subprocess.run(
        [sys.executable, "-m", "nelliptic.cli"] + args,
        capture_output=True,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestExpressions:
    def test_polynomial(self):
        f = parse_expression("0.5*(x1^2+x2^2)")
        assert f([2.0, 1.0]) == pytest.approx(2.5)

    def test_abs_and_r(self):
        f = parse_expression("abs(x1) - r/2")
        assert f([-3.0, 4.0]) == pytest.approx(3.0 - 2.5)

    def test_precedence_and_unary(self):
        f = parse_expression("-x1^2 + 2*x1*x2 - 1")
        assert f([2.0, 3.0]) == pytest.approx(-4.0 + 12.0 - 1.0)

    def test_bad_expressions(self):
        for text in ("x3", "sin(x1)", "1 +", "(x1", "abs x1"):
            with pytest.raises(ParameterError):
                parse_expression(text)

    def test_no_finite_real_value(self):
        for text in ("1/0", "0^-1", "x1^0.5", "abs(x1^0.5)", "10^400", "1e308*10"):
            with pytest.raises(InvalidInputError):
                parse_expression(text)([-1.0, 0.5])


# The documented grammar as trees: ("num", text), ("var", name), (sign or
# "abs" or "paren", a) and (op, a, b). A tree is rendered with the fewest
# parentheses its precedence needs, so the text exercises the grammar's
# binding rules, and it is evaluated directly in Python floats as the oracle.
SUM, PRODUCT, SIGNED, POWER, ATOM = range(5)
LITERALS = st.from_regex(r"([0-9]{1,3}(\.[0-9]{0,3})?|\.[0-9]{1,3})([eE][+-]?[0-9]{1,3})?",
                         fullmatch=True)
TREES = st.recursive(
    st.one_of(st.tuples(st.just("num"), LITERALS),
              st.tuples(st.just("var"), st.sampled_from(["x", "x1", "x2", "r"]))),
    lambda sub: st.one_of(st.tuples(st.sampled_from(["-", "+", "abs", "paren"]), sub),
                          st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub)),
    max_leaves=12,
)


def render(tree):
    """(tokens, precedence level) of the tree."""
    kind = tree[0]
    if kind in ("num", "var"):
        return [tree[1]], ATOM
    if kind in ("abs", "paren"):
        return ["abs(" if kind == "abs" else "("] + render(tree[1])[0] + [")"], ATOM
    if len(tree) == 2:  # a sign binds looser than ^: -x1^2 is -(x1^2)
        return [kind] + at_least(tree[1], SIGNED), SIGNED
    left, right, level = {"+": (SUM, PRODUCT, SUM), "-": (SUM, PRODUCT, SUM),
                          "*": (PRODUCT, SIGNED, PRODUCT), "/": (PRODUCT, SIGNED, PRODUCT),
                          "^": (ATOM, SIGNED, POWER)}[kind]
    return at_least(tree[1], left) + [kind] + at_least(tree[2], right), level


def at_least(tree, level):
    tokens, own = render(tree)
    return tokens if own >= level else ["("] + tokens + [")"]


def tree_value(tree, x):
    kind = tree[0]
    if kind == "num":
        return float(tree[1])
    if kind == "var":
        return {"x": x[0], "x1": x[0], "x2": x[1], "r": float(np.linalg.norm(x))}[tree[1]]
    a = tree_value(tree[1], x)
    if len(tree) == 2:
        return {"-": -a, "+": a, "abs": abs(a), "paren": a}[kind]
    b = tree_value(tree[2], x)
    if kind == "^":
        v = a**b
        return v if isinstance(v, float) else math.nan
    return {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[kind](a, b)


class TestExpressionLanguage:
    @settings(max_examples=400, deadline=None)
    @given(tree=TREES, data=st.data(),
           points=st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), min_size=1, max_size=4))
    def test_value_is_the_tree_value(self, tree, data, points):
        tokens = render(tree)[0]
        gaps = data.draw(st.lists(st.sampled_from(["", " ", "\n", "\t "]),
                                  min_size=len(tokens), max_size=len(tokens)))
        text = "".join(gap + tok for gap, tok in zip(gaps, tokens))
        f = parse_expression(text)
        wants = []
        for x in points:
            try:
                want = tree_value(tree, x)
            except (ZeroDivisionError, OverflowError):
                want = math.nan
            wants.append(want)
            if math.isfinite(want):
                assert f(x).hex() == want.hex(), (text, x)
            else:
                with pytest.raises(InvalidInputError):
                    f(x)
        # the points as one stack: the same values, or the first failing point
        stack = np.array(points, dtype=float)
        failing = [x for x, want in zip(points, wants) if not math.isfinite(want)]
        if failing:
            with pytest.raises(InvalidInputError) as exc:
                f(stack)
            assert str(exc.value).endswith("at x = %r" % (tuple(failing[0]),)), text
        else:
            assert [v.hex() for v in f(stack).tolist()] == [w.hex() for w in wants], text

    @pytest.mark.parametrize(
        "text",
        ["x1**2", "x1//2", "x1%2", "~x1", "x1<2", "x1==x2", "x1 if x2 else 1", "x1[0]", "x1.real",
         "abs(x1, x2)", "abs()", "abs(x=1)", "abs(x1,)", "abs(*x1)", "abs", "abs(x1)(2)", "y",
         "x3", "max(x1, 1)", "True", "None", "'1'", "1j", "0x1", "0o7", "0b1", "1_0", "(x1,)",
         "[x1]", "x1 @ x2", "x1 & x2", "x1 and x2", "not x1", "lambda: 1", "(y:=1)", "x1 # c",
         "x1;1", "x1 +\\\n 1", "\uff581", "x1+\x00"],
    )
    def test_the_rest_of_python_is_rejected(self, text):
        with pytest.raises(ParameterError):
            parse_expression(text)

    @pytest.mark.parametrize(
        "text", ["(1/0)^0", "0^-1", "(0^-1)^0", "1^(1/0)", "(1e308/1e-10)*0"])
    def test_a_raising_operation_fails_the_point(self, text):
        # where Python raises (/ by zero, 0^negative, an overflowing ^) the
        # point fails, though ^0 or 1^ would make a nan finite; / overflows
        # to inf without raising, and inf*0 is nan
        with pytest.raises(InvalidInputError):
            parse_expression(text)([0.5, 0.5])
        with pytest.raises(InvalidInputError, match=r"at x = \(0\.5, 0\.5\)"):
            parse_expression(text)(np.full((3, 2), 0.5))

    def test_a_nan_that_raised_nothing_may_become_finite(self):
        f = parse_expression("(1e308*10 - 1e308*10)^0")
        assert f([0.5, 0.5]) == 1.0
        assert f(np.zeros((2, 3, 2))).tolist() == [[1.0] * 3] * 2

    def test_leading_zeros_and_newlines(self):
        assert parse_expression("x1+007")([1.0, 0.0]) == 8.0
        assert parse_expression("00.5e01 - 1e-007*0")([0.0, 0.0]) == 5.0
        assert parse_expression("x1\n+\r\n2*x2\n")([1.0, 3.0]) == 7.0

    def test_an_integer_literal_past_the_float_range_is_infinite(self):
        # read as float("100...0") = inf, as "1e400" is, not as a Python int
        for text in ("1" + "0" * 400, "1" + "0" * 400 + "*0"):
            with pytest.raises(InvalidInputError):
                parse_expression(text)([0.0, 0.0])
        assert parse_expression("1/1" + "0" * 400)([0.0, 0.0]) == 0.0


class TestGridFile:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        g = GridFunction(2, (5, 7), (-1.0, 0.25), 1 / 3, rng.normal(size=(5, 7)))
        p1 = tmp_path / "a.grid"
        p2 = tmp_path / "b.grid"
        write_grid(g, p1)
        g2 = read_grid(p1)
        write_grid(g2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(g.values, g2.values)
        assert g2.origin == g.origin and g2.spacing == g.spacing

    def test_from_box_checks_the_values_of_fn(self):
        with pytest.raises(InvalidInputError, match="finite"):
            GridFunction.from_box([0, 0], [1, 1], 0.5, fn=lambda x: np.full(len(x), np.nan))

    def test_1d_round_trip(self, tmp_path):
        g = GridFunction(1, (9,), (-2.0,), 0.5, np.linspace(0, 1, 9))
        write_grid(g, tmp_path / "c.grid")
        g2 = read_grid(tmp_path / "c.grid")
        assert np.array_equal(g.values, g2.values)


class TestSubcommands:
    def test_probe_record(self, capsys):
        rc = main(["probe", "--op", "mc", "--rho", "1", "--samples", "40", "--pairs", "10"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "probe"
        assert rec["lambda_hat"] == pytest.approx(2**0.5 / 4, abs=1e-3)
        assert rec["config"]["rho"] == 1

    def test_analyze_record(self, capsys):
        rc = main(
            ["analyze", "--fixture", "slag:0.4", "--point", "0,0", "--degree", "1",
             "--levels", "5"]
        )
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "regularity"
        assert abs(rec["alpha_hat"] - 0.4) < 0.05

    def test_analyze_csv(self, tmp_path, capsys):
        csv = tmp_path / "decay.csv"
        rc = main(
            ["analyze", "--fixture", "power:1.5", "--point", "0", "--degree", "1",
             "--levels", "4", "--csv", str(csv)]
        )
        assert rc == 0
        capsys.readouterr()
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "r,E,osc"
        assert len(lines) == 6  # header + levels+1 scales

    def test_solve_and_abp(self, tmp_path, capsys):
        out = tmp_path / "u.grid"
        rc = main(
            ["solve", "--eq", "linear", "--box=-1,1", "--h", "0.125",
             "--f", "1", "--g", "0", "--out", str(out)]
        )
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        f = GridFunction.from_box([-1, -1], [1, 1], 0.125)
        f.values[:] = 1.0
        _, info = solve_linear(np.eye(2), None, f, 0.0)
        # the record carries the direct solve's own residual max |A u - rhs|
        assert (rec["iterations"], rec["residual"]) == (1, info.residual)
        rc = main(
            ["abp", "--input", str(out), "--f", "1", "--lambda", "1", "--Lambda", "1"]
        )
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "abp" and rec["sup_uminus"] > 0

    def test_check_fixture(self, capsys):
        rc = main(
            ["check", "--fixture", "quadratic", "--box=-1,1", "--h", "0.25",
             "--f", "rhs", "--side", "both", "--tol", "1e-6"]
        )
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["counts"]["sub"]["fail"] == 0
        assert rec["counts"]["super"]["fail"] == 0

    def test_normalize_stream(self, capsys):
        rc = main(
            ["normalize", "--fixture", "quadratic", "--point", "0,0",
             "--heights", "0.01,0.02", "--rays", "64"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for ln in lines:
            rec = json.loads(ln)
            assert rec["kind"] == "normalize"
            assert rec["product"] == pytest.approx(0.25, rel=1e-4)

    def test_fixtures_list_and_eval(self, capsys):
        assert main(["fixtures", "list"]) == 0
        out = capsys.readouterr().out
        kinds = {json.loads(ln)["kind"] for ln in out.strip().splitlines()}
        assert kinds == {"fixtures", "fixture_claim"}
        assert main(["fixtures", "eval", "--fixture", "slag:0.4", "--point", "0.3,0.2"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert "rhs" in rec and "hess" in rec

    def test_solve_mc_expression_boundary(self, tmp_path, capsys):
        out = tmp_path / "mc.grid"
        rc = main(
            ["solve", "--eq", "mc", "--box=-1,1", "--h", "0.125", "--f", "0",
             "--g", "0.02*x1 - 0.01*x2", "--out", str(out)]
        )
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        # Picard steps taken and the size of the last update
        assert rec["iterations"] >= 1 and 0.0 <= rec["residual"] < 1e-9
        g = read_grid(out)
        exact = np.array([0.02 * p[0] - 0.01 * p[1] for p in g.points()]).reshape(g.shape)
        assert np.max(np.abs(g.values - exact)) < 1e-9


class TestExitCodes:
    def test_usage_error_is_2(self):
        rc, _, _ = run_cli(["nonsense"])
        assert rc == 2

    def test_numeric_error_is_3(self, capsys):
        rc = main(["analyze", "--fixture", "pmc:0.9", "--point", "1,0", "--degree", "0"])
        assert rc == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "error" and rec["error"] == "ParameterError"

    @pytest.mark.parametrize("g", ["1/0", "x1^0.5"])
    def test_boundary_expression_without_real_value_is_3(self, tmp_path, capsys, g):
        rc = main(
            ["solve", "--eq", "ma", "--box=-1,1", "--h", "0.5", "--f", "1",
             "--g", g, "--out", str(tmp_path / "u.grid")]
        )
        assert rc == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "error" and rec["error"] == "InvalidInputError"

    @pytest.mark.parametrize(
        "spec",
        ["sigma", "quotient:2", "pucci+:x:1", "sigma:x", "quotient:x:1", "linear:1,x,1",
         "sigma:2:3", "linear:1,0,1:1:0"],
    )
    def test_malformed_operator_spec_is_3(self, capsys, spec):
        rc = main(["probe", "--op", spec])
        assert rc == 3
        out, err = capsys.readouterr()
        (line,) = out.splitlines()
        rec = json.loads(line)
        assert rec["kind"] == "error" and rec["error"] == "ParameterError"
        assert err == ""

    def test_missing_grid_file_is_3(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.grid")
        rc = main(["abp", "--input", missing, "--f", "1", "--lambda", "1", "--Lambda", "1"])
        assert rc == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "error" and rec["error"] == "InvalidInputError"

    @pytest.mark.parametrize(
        "content",
        [
            b"nelliptic-grid v1\ndim x\nshape 2\norigin 0\nspacing 1\n0\n0\n",
            b"nelliptic-grid v1\ndim 1\nshape 2\norigin 0\nspacing 1\n\xff\xfe\n0\n",
            b"nelliptic-grid v1\ndim 1\nshape 2\norigin 0\n0\n0\n",
        ],
        ids=["bad-number", "not-utf8", "no-spacing"],
    )
    def test_malformed_grid_file_is_3(self, tmp_path, capsys, content):
        path = tmp_path / "bad.grid"
        path.write_bytes(content)
        rc = main(["abp", "--input", str(path), "--f", "1", "--lambda", "1", "--Lambda", "1"])
        assert rc == 3
        out, err = capsys.readouterr()
        (line,) = out.splitlines()
        rec = json.loads(line)
        assert rec["kind"] == "error" and rec["error"] == "InvalidInputError"
        assert str(path) in rec["message"] and err == ""

    def test_boundary_error_names_the_first_failing_node(self, tmp_path, capsys):
        # boundary nodes in row-major order: (0, -1) is the first with x1 = 0
        rc = main(["solve", "--eq", "linear", "--box=-1,1", "--h", "0.5", "--g", "1/x1",
                   "--out", str(tmp_path / "u.grid")])
        assert rc == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["message"] == "expression '1/x1' has no finite real value at x = (0.0, -1.0)"

    def test_rhs_on_the_singular_sphere(self, capsys):
        # the README's check: nodes (0.6, 0.8) and (0.8, 0.6) lie on |x| = 1,
        # and the error names the first of them in row-major order
        rc = main(["check", "--fixture", "pmc:0.3", "--box=0.55,1.45", "--h", "0.05",
                   "--f", "rhs", "--side", "both", "--tol", "5e-2", "--rho", "5"])
        assert rc == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "error" and rec["error"] == "SingularityError"
        assert rec["message"] == "pmc: right-hand side singular at [0.6000000000000001, 0.8]"
        assert main(["fixtures", "eval", "--fixture", "pmc:0.3", "--point", "1,0"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert "rhs" not in rec and "hess" not in rec and "value" in rec

    def test_success_is_0(self, capsys):
        assert main(["fixtures", "list"]) == 0
        capsys.readouterr()

    def test_malformed_threads_variable_is_2(self, monkeypatch):
        monkeypatch.setenv("NELLIPTIC_THREADS", "abc")
        rc, out, err = run_cli(["fixtures", "list"])
        assert (rc, out) == (2, b"")
        assert b"NELLIPTIC_THREADS" in err and b"Traceback" not in err

    def test_threads_variable_is_read_when_args_are_parsed(self, monkeypatch, capsys):
        assert main(["fixtures", "list"]) == 0  # the parser exists from here on
        capsys.readouterr()
        monkeypatch.setenv("NELLIPTIC_THREADS", "3")
        assert main(["fixtures", "list"]) == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert rec["config"]["threads"] == 3

    @pytest.mark.parametrize("args,code", [(["fixtures", "list"], 0),
                                           (["probe", "--op", "ma"], 3)])
    def test_closed_stdout_keeps_the_exit_code(self, args, code):
        # stdout is a pipe whose reader is gone before the first record
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "nelliptic.cli"] + args,
                                  stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")


# grid files with an axis without nodes, with one node per axis, and with no
# node in the ball inscribed in the box
DEGENERATE = {"empty": ("0 3", []), "one-node": ("1 1", [1]), "no-ball-node": ("2 2", [1, 2, 3, 4])}
ABP = ["abp", "--input", "u.grid", "--lambda", "1", "--Lambda", "1"]


@pytest.mark.parametrize("grid,argv,message", [
    pytest.param("empty", ABP, "axis needs a node", id="abp-empty"),
    *(pytest.param("empty", ["solve", "--eq", eq, "--grid", "u.grid", "--g", "0", "--out",
                             "o.grid"], "axis needs a node", id="solve-%s-empty" % eq)
      for eq in ("linear", "pucci", "ma", "mc")),
    pytest.param("one-node", ["normalize", "--input", "u.grid", "--heights", "0.1"],
                 "2 nodes on every grid axis", id="normalize-one-node"),
    pytest.param("no-ball-node", ABP, "no grid node lies in the ball", id="abp-no-ball-node"),
    pytest.param("no-ball-node", ["check", "--input", "u.grid", "--op", "ma", "--f", "1"],
                 "needs an interior node", id="check-no-interior-node"),
])
def test_degenerate_grid_file_is_3(grid, argv, message, tmp_path, monkeypatch, capsys):
    shape, values = DEGENERATE[grid]
    lines = ["nelliptic-grid v1", "dim 2", "shape " + shape, "origin 0 0", "spacing 0.5"]
    (tmp_path / "u.grid").write_text("\n".join(lines + [str(v) for v in values]) + "\n")
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    out, err = capsys.readouterr()
    rec = json.loads(out)
    assert (rc, rec["kind"], rec["error"], err) == (3, "error", "InvalidInputError", "")
    assert message in rec["message"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["check", "--fixture", "quadratic", "--box=-1,1", "--h", "2"],
                 "needs an interior node", id="check-two-nodes-per-axis"),
    pytest.param(["normalize", "--fixture", "quadratic", "--point", "5,5", "--heights", "0.01"],
                 "lies outside its box", id="normalize-point-outside-the-box"),
])
def test_degenerate_fixture_domain_is_3(argv, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    out, err = capsys.readouterr()
    rec = json.loads(out)
    assert (rc, rec["kind"], rec["error"], err, caught) == (3, "error", "InvalidInputError", "", [])
    assert message in rec["message"]


# a cheap successful argv of every subcommand whose config is its options;
# abp reads the grid that solve writes
CONFIG_ARGV = {
    "probe": ["probe", "--op", "mc", "--samples", "8", "--pairs", "4"],
    "solve": ["solve", "--eq", "linear", "--box=0,1", "--h", "0.25", "--g", "0", "--out", "o.grid"],
    "check": ["check", "--fixture", "quadratic", "--box=-1,1", "--h", "0.5"],
    "abp": ["abp", "--input", "o.grid", "--lambda", "1", "--Lambda", "1"],
    "normalize": ["normalize", "--fixture", "quadratic", "--heights", "0.01", "--rays", "16"],
    "fixtures": ["fixtures", "eval", "--fixture", "quadratic"],
}


def test_record_config_is_the_parsed_options(tmp_path, monkeypatch, capsys):
    (subs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(CONFIG_ARGV) == set(subs.choices) - {"analyze"}
    monkeypatch.chdir(tmp_path)
    for command, argv in CONFIG_ARGV.items():
        assert main(argv) == 0, argv
        options = {a.dest for a in subs.choices[command]._actions if a.dest != "help"}
        for line in capsys.readouterr().out.splitlines():
            assert set(json.loads(line)["config"]) == options | {"threads"}, argv


def test_probe_dimension_past_the_halton_bases_is_an_error_record(capsys):
    rc = main(["probe", "--op", "mc", "--n", "8"])
    out, err = capsys.readouterr()
    rec = json.loads(out)
    assert (rc, rec["kind"], rec["error"], err) == (3, "error", "ParameterError", "")
    assert "n <= 7" in rec["message"]


def test_probe_radius_too_large_for_its_arithmetic_is_an_error_record():
    # 2 rho squared overflows: the probe refuses the radius before any
    # arithmetic, so no numpy warning reaches stderr
    argv = ["probe", "--op", "pucci+:1:2", "--rho", "1e308", "--samples", "8", "--pairs", "2"]
    code, out, err = run_cli(argv)
    (line,) = out.decode().splitlines()
    rec = json.loads(line)
    assert (code, err) == (3, b"")
    assert (rec["kind"], rec["error"]) == ("error", "ParameterError")
    assert "--rho" in rec["message"]


@pytest.mark.parametrize("op", ["ma", "quotient:3:1"])
def test_probe_values_overflowing_inside_the_radius_are_an_error_record(op):
    argv = ["probe", "--op", op, "--n", "3", "--shift-identity", "--rho", "1e110",
            "--samples", "16", "--pairs", "4"]
    code, out, err = run_cli(argv)
    (line,) = out.decode().splitlines()
    rec = json.loads(line)
    assert (code, err) == (3, b"")
    assert (rec["kind"], rec["error"]) == ("error", "ProbeDomainError")


def refuse(self):
    raise AssertionError("%s built on an internal path" % type(self).__name__)


SOLVE = ["solve", "--box=-1,1", "--h", "0.25", "--g", "0.5*(x1^2+x2^2)", "--out", "u.grid"]
PROBE = ["probe", "--samples", "16", "--pairs", "8", "--op"]
GUARDED = (
    [pytest.param(PROBE + [op], "probe", id="probe-" + op)
     for op in ("pucci+:0.5:2", "pucci-:0.5:2", "mc", "slag")]
    + [pytest.param(PROBE + [op, "--n", "3", "--shift-identity"], "probe", id="probe-%s+I" % op)
       for op in ("ma", "sigma:2", "quotient:2:1")]
    + [pytest.param(["analyze", "--fixture", "quadratic", "--point", "0.1,0", "--degree", "2",
                     "--levels", "3", "--constrain", "ma:1"], "regularity", id="analyze-ma")]
    + [pytest.param(SOLVE + ["--eq", eq, "--f", "1"], "solve", id="solve-" + eq)
       for eq in ("pucci", "ma", "linear")]
)


@pytest.mark.parametrize("argv,kind", GUARDED)
def test_no_internal_symmatrix_or_jet(argv, kind, tmp_path, monkeypatch, capsys):
    """SymMatrix and Jet are input types only: no probe, constrained fit or
    solve builds one on the way."""
    monkeypatch.setattr(SymMatrix, "__post_init__", refuse)
    monkeypatch.setattr(Jet, "__post_init__", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["kind"] == kind


def counting(calls, fn):
    """fn, recording the shape of each argument it is called on."""
    return lambda *args: calls.append(np.shape(args[-1])) or fn(*args)


@pytest.mark.parametrize("eq", ["linear", "pucci", "ma", "mc"])
def test_boundary_expression_called_once_per_fill(eq, tmp_path, monkeypatch, capsys):
    """A function of a point is called on point stacks: solve evaluates its
    compiled --g once per boundary fill from it, on all 32 boundary nodes of
    9 x 9 (later fills copy the array of the first)."""
    calls, fills = [], []
    fill = solver.boundary_values
    monkeypatch.setattr(cli, "parse_expression",
                        lambda text: counting(calls, parse_expression(text)))
    monkeypatch.setattr(solver, "boundary_values",
                        lambda g, grid: fills.append(callable(g)) or fill(g, grid))
    argv = ["solve", "--eq", eq, "--box=-1,1", "--h", "0.25", "--f", "1" if eq == "ma" else "0",
            "--g", "0.02*(x1^2+x2^2)+0.01*x1", "--out", str(tmp_path / "u.grid")]
    assert main(argv) == 0
    capsys.readouterr()
    assert sum(fills) == 1 and calls == [(32, 2)]


@pytest.mark.parametrize("argv,code", [
    (["check", "--fixture", "slag:0.4", "--box=-0.5,0.5", "--h", "0.25", "--f", "rhs"], 0),
    (["check", "--fixture", "pmc:0.3", "--box=0.55,1.45", "--h", "0.05", "--f", "rhs",
      "--rho", "5"], 3),
])
def test_fixture_rhs_called_once(argv, code, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(AnalyticFunction, "rhs", counting(calls, AnalyticFunction.rhs))
    assert main(argv) == code
    capsys.readouterr()
    assert len(calls) == 1 and len(calls[0]) == 2


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        args = [
            "probe", "--op", "slag", "--rho", "1", "--samples", "30",
            "--pairs", "10", "--seed", "3",
        ]
        rc1, out1, _ = run_cli(args)
        rc2, out2, _ = run_cli(args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_thread_count_leaves_analyze_unchanged(self, capsys):
        # the regularity record's config is the fit's own, without threads
        argv = ["analyze", "--fixture", "hq:0.435", "--point=0.1,-0.2,0", "--degree", "1"]
        outs = []
        for threads in ("1", "3"):
            assert main(["--threads", threads] + argv) == 0
            outs.append(capsys.readouterr().out)
        assert json.loads(outs[0])["kind"] == "regularity"
        assert outs[0] == outs[1]
