"""Argv fuzzer for the CLI exit-code contract.

Every argv, valid or not, must end in exit code 0 (success), 2 (usage error)
or 3 (numeric failure). stdout holds only JSON lines; on exit 3 the last of
them is the one ``error`` record. Nothing may escape ``cli.main`` as an
exception: run as ``python -m nelliptic.cli`` that would be a traceback and
exit code 1. The strategy mixes valid values with malformed numbers,
operator specs, expressions, boxes, and missing or malformed files; the
sizes it draws are kept small so each call is cheap.
"""

import contextlib
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nelliptic import cli
from nelliptic.grid import GridFunction, write_grid

NUMBERS = ["x", "", "nan", "inf", "-inf", "1e999", "1,2", "0x1"]
INTS = ["x", "", "1.5", "1e3"]
FILES = ["u.grid", "u1.grid", "coarse.grid", "missing.grid", "bad.grid", "binary.grid",
         "short.grid", "empty.grid", "one.grid", "two.grid", "dir"]
OPS = ["pucci+:1:2", "pucci-:1:2", "pucci+:2:1", "pucci+:0:1", "sigma:2", "sigma:3", "sigma:0",
       "quotient:2:1", "quotient:1:2", "mc", "ma", "slag", "linear:1,0,1", "linear:1,5,1",
       "linear:-1,0,1", "linear:1,0", "bogus", "", "pucci+:x:1", "sigma:", "ma:1"]
# nested past what Python's parser takes: 300 parentheses, 3000 signs, 3000 terms
DEEP = ["x1+" + "(" * 300 + "1" + ")" * 300, "x1+" + "-" * 3000 + "x1", "+".join(["x1"] * 3000)]
EXPRS = ["0", "1", "x1^2+x2^2", "0.5*r^2", "abs(x1)-r", "1/x1", "x1^0.5", "x3", "(x1", "sin(x1)",
         "1e308*10", "1.2.3", "2e", "u.grid", "missing.grid", "bad.grid"] + DEEP
FIXTURES = ["quadratic", "pucci:0.5", "hq:0.4", "slag:0.3", "pmc:0.9", "power:1.5",
            "harmonic:3", "bogus", "hq", "hq:2", "quadratic:x", "power:-1", ""]
POINTS = ["0,0", "0.1,0", "0.5,0.5", "0", "0.1", "a,b", "5,5", "0,0,0", "nan,0", "", ","]
BOXES = ["-1,1", "0,1", "1,-1", "1,1", "a,b", "1", "1,2,3", "", "-inf,inf", "nan,1"]
OUTS = ["out.grid", "nodir/out.grid", "dir", ""]


def pick(values):
    return st.sampled_from(values)


def num(*valid):
    return pick([repr(float(v)) for v in valid] + NUMBERS)


def whole(*valid):
    return pick([str(v) for v in valid] + INTS)


FIELD = pick(["0", "1", "-1", "rhs", "x", "nan"] + FILES)
SWITCH = None

SUBCOMMANDS = {
    "probe": {
        "--op": pick(OPS), "--rho": num(1, 0.5, 0, -1), "--n": whole(1, 2, 3, 8, 0, -1),
        "--samples": whole(8, 12, 0, -1), "--seed": whole(0, 1, -1, -7, 100000000000000000000), "--pairs": whole(4, 0, -1),
        "--shift-identity": SWITCH,
    },
    "solve": {
        "--eq": pick(["linear", "pucci", "ma", "mc", "bogus"]), "--grid": pick(FILES),
        "--box": pick(BOXES), "--h": num(0.5, 0.25, 0, -0.5, 3), "--f": FIELD,
        "--g": pick(EXPRS), "--out": pick(OUTS), "--A": pick(["1,0,1", "2,0.5,1", "1,x,1", "1,0",
                                                               "1,5,1", ""]),
        "--b": pick(["0,0", "1,-1", "1", "x,1", ""]), "--lambda": num(1, 2, 0, -1),
        "--Lambda": num(1, 2, 0, -1), "--sign": pick(["plus", "minus", "bogus"]),
        "--guard": num(0.1, 0, -1), "--stencil": whole(4, 8, 0, -2, 3),
        "--tol": num(1e-8, 0, -1), "--max-iters": whole(5, 0, -1),
    },
    "analyze": {
        "--input": pick(FILES), "--fixture": pick(FIXTURES), "--point": pick(POINTS),
        "--degree": whole(0, 1, 2, -1, 5), "--eta": num(0.5, 0, 1, 2, -1),
        "--r0": num(0.5, 0, -1, 10), "--levels": whole(2, 3, 0, -1),
        "--constrain": pick(["ma:1.0", "ma:x", "bogus:1", "ma", ":1", "sigma:2:1", "ma:-1"]),
        "--norm-bound": num(1, 0, -1), "--samples-m": whole(2, 3, 0, -1),
        "--csv": pick(["out.csv", "nodir/out.csv", "dir", ""]),
    },
    "check": {
        "--input": pick(FILES), "--fixture": pick(FIXTURES), "--grid": pick(FILES),
        "--box": pick(BOXES), "--h": num(0.5, 0.25, 0, -0.5, 3), "--op": pick(OPS),
        "--f": FIELD, "--side": pick(["sub", "super", "both", "bogus"]),
        "--tol": num(1e-6, 0, -1), "--rho": num(1, 5, 0, -1),
    },
    "abp": {
        "--input": pick(FILES), "--f": FIELD, "--lambda": num(1, 2, 0, -1),
        "--Lambda": num(1, 2, 0, -1), "--b0": num(0, 1, -1),
    },
    "normalize": {
        "--input": pick(FILES), "--fixture": pick(FIXTURES), "--point": pick(POINTS),
        "--heights": pick(["0.01", "0.01,0.02", "0.2", "0", "-1", "x", "1e9", "", "0.01,,0.02",
                           "nan"]),
        "--rays": whole(8, 16, 3, 2, 0, -1),
    },
    "fixtures": {
        "--fixture": pick(FIXTURES), "--point": pick(POINTS),
    },
}
# required options, each left out of one argv in ten
REQUIRED = {
    "probe": ["--op"],
    "solve": ["--eq", "--g", "--out"],
    "analyze": ["--point", "--degree"],
    "abp": ["--input", "--lambda", "--Lambda"],
    "normalize": ["--heights"],
}
# options whose absence would make the call slow take small defaults
BOUNDED = {
    "probe": {"--samples": "8", "--pairs": "4"},
    "solve": {"--h": "0.5", "--max-iters": "5"},
    "analyze": {"--levels": "2", "--samples-m": "2"},
    "normalize": {"--rays": "8"},
}


@st.composite
def argvs(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--threads", draw(whole(1, 2, 0, -1))]
    sub = draw(pick(sorted(SUBCOMMANDS) + ["bogus"]))
    argv.append(sub)
    if sub == "fixtures":
        argv.append(draw(pick(["list", "eval", "bogus"])))
    flags = SUBCOMMANDS.get(sub, {})
    chosen = [f for f in REQUIRED.get(sub, []) if draw(st.integers(0, 9))]
    if flags:
        chosen += draw(st.lists(pick(sorted(set(flags) - set(chosen))), unique=True))
    values = dict(BOUNDED.get(sub, {}))
    for flag in chosen:
        values[flag] = None if flags[flag] is None else draw(flags[flag])
    for flag, value in values.items():
        if value is None:
            argv.append(flag)
        elif value.startswith("-"):
            argv.append("%s=%s" % (flag, value))  # else "-inf" or "-1,1" reads as an option
        else:
            argv += [flag, value]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(pick(["--bogus", "extra", "--point"])))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding good, malformed and unreadable input files."""
    root = tmp_path_factory.mktemp("fuzz")
    q = GridFunction.from_box([-1, -1], [1, 1], 0.25, fn=lambda x: 0.5 * np.vecdot(x, x) - 0.2)
    write_grid(q, str(root / "u.grid"))
    write_grid(GridFunction.from_box([-1, -1], [1, 1], 1.0, fn=lambda x: 1.0 + x[..., 0]),
               str(root / "coarse.grid"))
    write_grid(GridFunction.from_box([-1], [1], 0.25, fn=lambda x: np.vecdot(x, x)),
               str(root / "u1.grid"))
    (root / "bad.grid").write_text("nelliptic-grid v1\ndim 2\nshape 2 2\norigin 0 0\nspacing x\n")
    (root / "short.grid").write_text(
        "nelliptic-grid v1\ndim 2\nshape 3 3\norigin 0 0\nspacing 0.5\n1\n2\n")
    (root / "binary.grid").write_bytes(b"\xff\xfe\x00grid")
    # no node on an axis, one node per axis, no node in the inscribed ball
    for name, shape, values in [("empty", "0 3", ""), ("one", "1 1", "1\n"),
                                ("two", "2 2", "1\n2\n3\n4\n")]:
        (root / ("%s.grid" % name)).write_text(
            "nelliptic-grid v1\ndim 2\nshape %s\norigin 0 0\nspacing 0.5\n%s" % (shape, values))
    (root / "dir").mkdir()
    return root


def run(argv, cwd):
    """(exit code, stdout, stderr) of cli.main(argv) run in cwd; warnings
    count as stderr, where they print outside the test runner."""
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
    finally:
        os.chdir(old)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return rc, out.getvalue(), err.getvalue() + shown


@settings(max_examples=150, deadline=None)
@given(argvs())
@example(argv=["normalize", "--rays", "0", "--heights", "0.01", "--fixture", "quadratic"])
def test_exit_code_contract(workdir, argv):
    rc, out, err = run(argv, workdir)
    assert rc in (0, 2, 3), (argv, rc)
    assert "Traceback" not in err
    records = [json.loads(line) for line in out.splitlines()]
    errors = [r for r in records if r.get("kind") == "error"]
    if rc == 3:
        assert len(errors) == 1 and records[-1] is errors[0], argv
    else:
        assert not errors
    if rc == 2:
        assert out == ""
    else:
        assert err == "", (argv, err)


@pytest.mark.parametrize("g", DEEP, ids=["parentheses", "signs", "terms"])
def test_deeply_nested_boundary_expression_is_3(workdir, g):
    argv = ["solve", "--eq", "linear", "--box", "0,1", "--h", "0.25", "--out", "o.grid", "--g", g]
    rc, out, err = run(argv, workdir)
    assert (rc, err) == (3, "")
    (line,) = out.splitlines()
    rec = json.loads(line)
    assert rec["kind"] == "error" and rec["error"] == "ParameterError"
