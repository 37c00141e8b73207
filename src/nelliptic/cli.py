"""Command-line front end: reproducible experiments over stable file formats.

Subcommands
-----------
probe      ellipticity probe of an operator (structure constants, sandwich
           certification, modulus samples)
solve      Dirichlet solves (linear / pucci / ma / mc) writing grid files
analyze    pointwise decay table and Holder exponent at a point
check      discrete viscosity verdicts of a grid function against an operator
abp        maximum-principle ratio sup u^- vs ||f^+||_{L^n(contact)}
normalize  section + enclosing-ellipsoid normalization across heights
fixtures   list fixtures / evaluate one at a point

Boundary expressions (``solve --g``, besides a constant or a grid file):
decimal numbers, x1, x2 (x aliases x1), r = |x|, abs(...) of one argument,
parentheses and + - * / ^. ``^`` is power: right-associative, binding tighter
than a unary sign (-x1^2 = -(x1^2)), with a signed exponent allowed (2^-1).
Any whitespace separates tokens. Python's parser reads the text and an
allow-list rejects the rest of Python (``**``, ``//``, ``%``, ``~``,
comparisons, conditionals, subscripts, attributes, other names and calls,
keyword arguments, non-decimal literals) and nesting deeper than the parser
takes (~200 parentheses, ~990 signs), each as a ParameterError. A point
where the value is not a finite real is an InvalidInputError.

Reports are JSON lines on stdout; each record carries its resolved
configuration, so a single record suffices to rerun. Identical argv and seeds
produce byte-identical streams. Exit codes: 0 success, 2 usage error,
3 numeric failure (the error is emitted as a report record). A closed stdout
drops the records that follow and keeps the exit code.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import operator
import os
import re
import sys

import numpy as np

from . import fixtures as fixtures_mod
from . import geometry, regularity, solver
from .errors import InvalidInputError, NellipticError, ParameterError, SingularityError
from .grid import GridFunction, read_grid, write_grid
from .operators import (
    DEFAULT_PROBE_RHO,
    OperatorSpec,
    ellipticity_probe,
    shift,
)
from .polyfit import Polynomial
from .regularity import CampanatoConfig

# ---------------------------------------------------------------------------
# boundary-expression mini-language: polynomials in x1, x2 and |x| (as r/abs)


def _real_pow(a, b):
    # Python's a ** b of two floats, nan where complex, and whether it raises
    try:
        v = a**b
    except (ZeroDivisionError, OverflowError):  # 0 to a negative power, overflow
        return math.nan, True
    return (v if isinstance(v, float) else math.nan), False


def _pow(a, b, raised):  # per element: numpy's array power can round differently
    v, fail = np.frompyfunc(_real_pow, 2, 2)(a, b)
    raised |= np.asarray(fail, dtype=bool)
    return np.asarray(v, dtype=float)


def _div(a, b, raised):
    raised |= b == 0  # Python raises on a zero divisor, not on overflow
    return a / b


_ARITH = {ast.Add: lambda a, b, _: a + b, ast.Sub: lambda a, b, _: a - b,
          ast.Mult: lambda a, b, _: a * b, ast.Div: _div, ast.Pow: _pow}
_SIGNS = {ast.USub: operator.neg, ast.UAdd: operator.pos}
# r is sqrt(x.x) as np.linalg.norm takes it of one point, bit for bit
_VARIABLES = {"x": lambda x, _: x[..., 0], "x1": lambda x, _: x[..., 0],
              "x2": lambda x, _: x[..., 1], "r": lambda x, _: np.sqrt(np.vecdot(x, x))}
_LITERAL_CHARS = frozenset("0123456789.eE+-")


def _compile(node, src):
    """The allow-listed tree ``node`` of ``src`` as a function of a point stack
    x[..., n] that sets the mask ``raised`` (of its batch shape) where Python's
    float arithmetic would raise; anything else in it is a ParameterError."""
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
        op, a, b = _ARITH[type(node.op)], _compile(node.left, src), _compile(node.right, src)
        return lambda x, raised: op(a(x, raised), b(x, raised), raised)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        op, a = _SIGNS[type(node.op)], _compile(node.operand, src)
        return lambda x, raised: op(a(x, raised))
    # names are matched on their text, which Python would NFKC-normalize
    seg = ast.get_source_segment(src, node)
    if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and set(seg) <= _LITERAL_CHARS):
        v = np.float64(float(seg))  # a decimal literal, read from its text
        return lambda x, raised: v
    if isinstance(node, ast.Name) and seg in _VARIABLES:
        return _VARIABLES[seg]
    if (isinstance(node, ast.Call) and ast.get_source_segment(src, node.func) == "abs"
            and len(node.args) == 1 and not node.keywords
            and not seg[:-1].rstrip().endswith(",")):  # abs(a,) is no call of the language
        a = _compile(node.args[0], src)
        return lambda x, raised: abs(a(x, raised))
    raise ParameterError("%r is not allowed in a boundary expression" % seg)


def parse_expression(text):
    """The expression as a function of a point x[n] (a float) or a stack of
    points x[..., n] (values of its batch shape), each value that of Python's
    float arithmetic, bit for bit. InvalidInputError names the first point in
    row-major order with no finite real value (division by zero, overflow, a
    negative base under a fractional power).

    The text is read by Python's own expression parser, with ``^`` for power,
    and only the grammar documented in the module docstring is allowed."""
    if "**" in text or "#" in text:  # Python's power and comment
        raise ParameterError("cannot parse expression %r" % text)
    # any whitespace separates tokens, and a number may have leading zeros
    src = "".join(" " if c.isspace() else c for c in text).strip()
    src = re.sub(r"(?<![\w.])0+(?=[0-9])", "", src).replace("^", "**")
    try:
        fn = _compile(ast.parse(src, mode="eval").body, src)
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ParameterError("cannot parse expression %r: %s" % (text, exc)) from None

    def value(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        raised = np.zeros(x.shape[:-1], dtype=bool)
        try:
            with np.errstate(all="ignore"):
                v = np.broadcast_to(fn(x, raised), raised.shape)
        except RecursionError:
            raise ParameterError("expression %r is nested too deeply" % text) from None
        bad = np.flatnonzero(raised | ~np.isfinite(v))
        if bad.size:
            point = x.reshape(-1, x.shape[-1])[bad[0]]
            raise InvalidInputError(
                "expression %r has no finite real value at x = %r" % (text, tuple(point.tolist()))
            )
        return float(v) if x.ndim == 1 else v.copy()

    return value


# ---------------------------------------------------------------------------
# report stream


def _emit(record, kind, config):
    rec = {"kind": kind, "config": config}
    rec.update(record)
    try:
        sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: later records and the flush at exit go to
        # devnull, so the run ends with its own exit code and no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _options(args):
    """A record's config: the parsed options, threads included."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "fn")}


def _floats(text, what, count=None):
    """The comma-separated numbers of an option value; a malformed number or
    a count other than the expected one is a ParameterError."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ParameterError("%s %r is not a comma-separated list of numbers" % (what, text)) from None
    if count is not None and len(vals) != count:
        raise ParameterError("%s %r needs %d numbers" % (what, text, count))
    return vals


def _parse_point(text, dim=None):
    pt = tuple(_floats(text, "point"))
    if dim is not None and len(pt) != dim:
        raise ParameterError("point %r has wrong dimension (need %d)" % (text, dim))
    return pt


def _load_field(spec, like: GridFunction, fixture=None):
    """Right-hand sides and data fields: a constant, a grid file, or the
    fixture's own rhs ("rhs")."""
    if spec == "rhs":
        if fixture is None or fixture.rhs_fn is None:
            raise ParameterError("'rhs' needs a fixture with a right-hand side")
        vals = fixture.rhs(like.points())
        return GridFunction(like.dim, like.shape, like.origin, like.spacing, vals)
    try:
        const = float(spec)
        return GridFunction(
            like.dim, like.shape, like.origin, like.spacing, np.full(like.shape, const)
        )
    except ValueError:
        pass
    return read_grid(spec)


def _grid_from_args(args, dim=2):
    if getattr(args, "grid", None):
        grid = read_grid(args.grid)
        if grid.dim != dim:
            raise InvalidInputError("grid file %s has dim %d, need %d" % (args.grid, grid.dim, dim))
        return grid
    if not getattr(args, "box", None) or not getattr(args, "h", None):
        raise ParameterError("need --grid FILE or --box lo,hi with --h")
    lo, hi = _floats(args.box, "--box", 2)
    return GridFunction.from_box([lo] * dim, [hi] * dim, args.h, dim=dim)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_probe(args):
    if args.n < 1:
        raise ParameterError("probe dimension --n must be >= 1")
    op = OperatorSpec.parse(args.op)
    if args.shift_identity:
        op = shift(op, Polynomial.half_square_norm(args.n), normalize_origin=True)
    if args.rho is None:
        args.rho = DEFAULT_PROBE_RHO[op.family]
    sc = ellipticity_probe(
        op, args.rho, args.n, samples=args.samples, seed=args.seed, pairs=args.pairs
    )
    _emit(sc.to_dict(), "probe", _options(args))
    return 0


def _cmd_solve(args):
    f_like = _grid_from_args(args)
    f = _load_field(args.f, f_like)
    gtext = args.g
    try:
        g = float(gtext)
    except ValueError:
        if os.path.exists(gtext):
            g = read_grid(gtext)
        else:
            g = parse_expression(gtext)
    config = solver.SolveConfig(
        stencil_directions=args.stencil, tol=args.tol, max_iters=args.max_iters
    )
    if args.eq == "linear":
        tri = _floats(args.A, "--A", 3) if args.A else [1.0, 0.0, 1.0]
        A = np.array([[tri[0], tri[1]], [tri[1], tri[2]]])
        b = _floats(args.b, "--b", 2) if args.b else None
        u, info = solver.solve_linear(A, b, f, g, config)
    elif args.eq == "pucci":
        u, info = solver.solve_pucci(args.lam, args.Lam, args.sign, f, g, config)
    elif args.eq == "ma":
        u, info = solver.solve_monge_ampere(f, g, config)
    elif args.eq == "mc":
        u, info = solver.solve_mean_curvature(f, g, delta_guard=args.guard, config=config)
    else:
        raise ParameterError("unknown equation %r" % args.eq)
    write_grid(u, args.out)
    rec = {"out": args.out, "shape": list(u.shape), "spacing": u.spacing,
           "iterations": info.iterations, "residual": info.residual}
    if info.history is not None:
        rec["residual_history"] = info.history
    _emit(rec, "solve", _options(args))
    return 0


def _analysis_input(args):
    fixture = None
    if args.fixture:
        fixture = fixtures_mod.parse_fixture(args.fixture)
        u = fixture
    elif args.input:
        u = read_grid(args.input)
    else:
        raise ParameterError("need --input FILE or --fixture name:theta")
    return u, fixture


def _cmd_analyze(args):
    u, fixture = _analysis_input(args)
    dim = u.dim
    x0 = _parse_point(args.point, dim)
    constraint = None
    if args.constrain:
        opspec, _, f0 = args.constrain.rpartition(":")
        constraint = (OperatorSpec.parse(opspec), _floats(f0, "--constrain value", 1)[0])
    cfg = CampanatoConfig(
        k=args.degree,
        r0=args.r0,
        levels=args.levels,
        eta=args.eta,
        constraint=constraint,
        norm_bound=args.norm_bound,
        samples_m=args.samples_m,
    )
    report = regularity.campanato_table(u, x0, cfg)
    rec = report.to_dict()
    _emit(rec, "regularity", rec["config"])  # the fit's own config
    if args.csv:
        osc = regularity.oscillation_profile(u, x0, [s.r for s in report.scales])
        try:
            with open(args.csv, "w") as fh:
                fh.write("r,E,osc\n")
                for row, (_, o) in zip(report.scales, osc):
                    fh.write("%r,%r,%r\n" % (row.r, row.error, o))
        except OSError as exc:
            raise InvalidInputError("cannot write %s: %s" % (args.csv, exc.strerror)) from exc
    return 0


def _cmd_check(args):
    u, fixture = _analysis_input(args)
    if fixture is not None:
        like = _grid_from_args(args, dim=fixture.dim)
        u = GridFunction(like.dim, like.shape, like.origin, like.spacing, fixture(like.points()))
    if args.op:
        op = OperatorSpec.parse(args.op)
    elif fixture is not None and fixture.operator is not None:
        op = fixture.operator
    else:
        raise ParameterError("check needs --op (or a fixture with an operator)")
    f = _load_field(args.f, u, fixture)
    report = regularity.check_viscosity(
        u, op, f, side=args.side, tol=args.tol, rho=args.rho
    )
    rec = {
        "counts": {"sub": report.counts("sub"), "super": report.counts("super")},
        "witnesses": report.witnesses[:16],
        "nodes_tested": len(report.nodes),
    }
    _emit(rec, "viscosity", _options(args))
    return 0


def _cmd_abp(args):
    u = read_grid(args.input)
    f = _load_field(args.f, u)
    rec = geometry.abp_check(u, f, args.lam, args.Lam, args.b0)
    _emit(rec, "abp", _options(args))
    return 0


def _cmd_normalize(args):
    u, fixture = _analysis_input(args)
    x0 = _parse_point(args.point, u.dim)
    heights = _floats(args.heights, "--heights")
    for h in heights:
        verts = geometry.section(u, x0, h, rays=args.rays)
        norm = geometry.john_normalize(verts, h, u.dim)
        rec = norm.to_dict()
        del rec["vertices"]  # keep the stream compact; vertices via section users
        rec["n_vertices"] = len(verts)
        _emit(rec, "normalize", _options(args))
    return 0


def _cmd_fixtures(args):
    if args.action == "list":
        for name in fixtures_mod.fixture_names():
            _emit({"fixture": name}, "fixtures", {"action": "list", "threads": args.threads})
        for claim in fixtures_mod.fixture_claims():
            _emit(claim, "fixture_claim", {"action": "list", "threads": args.threads})
        return 0
    if args.action == "eval":
        if not args.fixture:
            raise ParameterError("fixtures eval needs --fixture name:theta")
        fix = fixtures_mod.parse_fixture(args.fixture)
        x = np.asarray(_parse_point(args.point, fix.dim))
        rec = {"fixture": args.fixture, "point": list(x), "value": fix(x)}
        if not fix.is_singular(x, order=1):
            rec["grad"] = [float(v) for v in fix.grad(x)]
        if not fix.is_singular(x, order=2):
            rec["hess"] = [[float(v) for v in row] for row in fix.hess(x)]
        if fix.rhs_fn is not None:
            try:
                rec["rhs"] = fix.rhs(x)
            except SingularityError:
                pass
        _emit(rec, "fixtures", _options(args))
        return 0
    raise ParameterError("fixtures action must be list or eval")


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="nelliptic",
        description="Locally uniformly elliptic operators: probes, solvers, "
        "and pointwise regularity estimation.",
    )
    ap.add_argument(
        "--threads",
        type=int,
        help="echoed in record configs; runs are single-threaded (default $NELLIPTIC_THREADS or 1)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probe", help="ellipticity probe of an operator")
    p.add_argument("--op", required=True, help="pucci+:1:2, sigma:2, quotient:3:1, mc, ma, slag, linear:<A>")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=160)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=80)
    p.add_argument(
        "--shift-identity",
        action="store_true",
        help="probe the operator shifted by |x|^2/2 (uniformly elliptic "
        "representative of the cone families)",
    )
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("solve", help="Dirichlet solves on a box")
    p.add_argument("--eq", required=True, choices=["linear", "pucci", "ma", "mc"])
    p.add_argument("--grid", help="grid file fixing the domain and f-layout")
    p.add_argument("--box", help="lo,hi (same for both axes)")
    p.add_argument("--h", type=float)
    p.add_argument("--f", default="0", help="constant, grid file, or 'rhs'")
    p.add_argument("--g", required=True, help="boundary: expression, constant or grid file")
    p.add_argument("--out", required=True)
    p.add_argument("--A", help="linear: upper triangle a11,a12,a22")
    p.add_argument("--b", help="linear: drift b1,b2")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--Lambda", dest="Lam", type=float, default=1.0)
    p.add_argument("--sign", choices=["plus", "minus"], default="minus")
    p.add_argument("--guard", type=float, default=0.1)
    p.add_argument("--stencil", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=80)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("analyze", help="pointwise decay table at a point")
    p.add_argument("--input", help="grid file")
    p.add_argument("--fixture", help="fixture spec name:theta")
    p.add_argument("--point", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--r0", type=float, default=0.5)
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--constrain", help="op:f0, e.g. ma:1.0")
    p.add_argument("--norm-bound", type=float, default=None)
    p.add_argument("--samples-m", type=int, default=8)
    p.add_argument("--csv", help="write r,E,osc rows to this file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("check", help="discrete viscosity verdicts")
    p.add_argument("--input", help="grid file with u")
    p.add_argument("--fixture", help="sample this fixture instead (needs --box/--h)")
    p.add_argument("--grid")
    p.add_argument("--box")
    p.add_argument("--h", type=float)
    p.add_argument("--op", help="operator spec; defaults to the fixture's")
    p.add_argument("--f", default="0", help="constant, grid file, or 'rhs'")
    p.add_argument("--side", choices=["sub", "super", "both"], default="both")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument(
        "--rho",
        type=float,
        default=None,
        help="admissible test class bound |D^2 phi|, |D phi| <= rho",
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("abp", help="maximum-principle ratio on the inscribed ball")
    p.add_argument("--input", required=True)
    p.add_argument("--f", default="0")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--Lambda", dest="Lam", type=float, required=True)
    p.add_argument("--b0", type=float, default=0.0)
    p.set_defaults(fn=_cmd_abp)

    p = sub.add_parser("normalize", help="section normalization across heights")
    p.add_argument("--input")
    p.add_argument("--fixture")
    p.add_argument("--point", default="0,0")
    p.add_argument("--heights", required=True, help="comma list of section heights h")
    p.add_argument("--rays", type=int, default=256)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("fixtures", help="list fixtures or evaluate one")
    p.add_argument("action", choices=["list", "eval"])
    p.add_argument("--fixture")
    p.add_argument("--point", default="0,0")
    p.set_defaults(fn=_cmd_fixtures)

    return ap


def main(argv=None) -> int:
    ap = build_parser()  # built on the first call only
    args = ap.parse_args(argv)
    if args.threads is None:  # read per call: the cached parser holds no default
        env = os.environ.get("NELLIPTIC_THREADS", "1")
        try:
            args.threads = int(env)
        except ValueError:
            ap.error("NELLIPTIC_THREADS=%r is not an integer" % env)
    try:
        return args.fn(args)
    except NellipticError as exc:
        _emit(
            {"error": type(exc).__name__, "message": str(exc)},
            "error",
            {"argv": list(argv) if argv is not None else sys.argv[1:]},
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
