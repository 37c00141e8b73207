"""Seeded job lists for the three benchmark workloads.

A job is one in-process call of ``nelliptic.cli.main(argv)``. ``make_jobs``
is pure: the same (workload, seed) gives the same job list, byte for byte
(see ``jobs_digest``). Grid-file inputs are described by ``InputGrid``
entries and written by ``write_inputs`` during set-up.

Every job carries an ``expect`` dict with what its check needs (exact
solutions, claimed exponents, expected ratios), so the checks in
``bench_checks`` never look at the seed again.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import asdict, dataclass, field

WORKLOADS = ("dirichlet", "probe", "regularity")

# job class -> metric name of its timed sum
CLASS_METRICS = {
    "dirichlet": {"pucci": "pucci_s", "ma": "ma_s", "linear": "linear_s"},
    "probe": {},
    "regularity": {
        "analyze": "analyze_s",
        "check": "check_s",
        "refute": "refute_s",
        "abp": "abp_s",
        "normalize": "normalize_s",
    },
}

# Pucci constants of every Pucci solve and Pucci check.
LAM, BIG_LAM = 0.5, 2.0

# The README's viscosity-check example, verbatim.
README_CHECK = (
    "check", "--fixture", "pmc:0.3", "--box=0.55,1.45", "--h", "0.05",
    "--f", "rhs", "--side", "both", "--tol", "5e-2", "--rho", "5",
)


@dataclass(frozen=True)
class Job:
    name: str
    cls: str
    argv: tuple
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InputGrid:
    """A 2D grid file on [lo, hi]^2 with spacing h, filled by ``fn``."""

    path: str
    lo: float
    hi: float
    h: float
    fn: dict  # {"kind": "quadratic"|"scherk"|"slag"|"paraboloid", ...params}


def _r(x, digits=6):
    """Round seeded parameters so argv stays short; checks use the rounded
    values, so nothing is lost."""
    return round(float(x), digits)


def _num(x):
    return repr(float(x))


def _quad_expr(c, p, H):
    """Boundary mini-language text for c + p.x + x.H.x / 2."""
    return "%s+%s*x1+%s*x2+0.5*(%s*x1^2+2*%s*x1*x2+%s*x2^2)" % tuple(
        _num(v) for v in (c, p[0], p[1], H[0][0], H[0][1], H[1][1])
    )


def _aligned_hessian(a, b, frame, swap):
    """Hessian with eigenvalues (a, b) along the axes ("axes") or the
    diagonals ("diag") of the grid; both frames are inside every interior
    node's stencil, so the wide-stencil schemes are exact on it."""
    if swap:
        a, b = b, a
    if frame == "axes":
        return [[a, 0.0], [0.0, b]]
    s, d = (a + b) / 2.0, (a - b) / 2.0
    return [[s, d], [d, s]]


def _pucci_value(a, b, sign):
    up, down = (LAM, BIG_LAM) if sign == "minus" else (BIG_LAM, LAM)
    return sum(up * e if e > 0 else down * e for e in (a, b))


def _affine(rng):
    return _r(rng.uniform(-0.3, 0.3)), (_r(rng.uniform(-0.5, 0.5)), _r(rng.uniform(-0.5, 0.5)))


def _h_of(n, lo=-1.0, hi=1.0):
    return (hi - lo) / (n - 1)


# ---------------------------------------------------------------------------
# dirichlet

# (name, eq, sign, n, frame, eigenvalues). Eigenvalue magnitudes are fixed per
# job: the seed moves the affine part and the orientation, which change the
# data and the answer but not the amount of Newton work.
_WIDE_JOBS = (
    ("pucci-minus-65", "pucci", "minus", 65, "axes", (1.3, -0.4)),
    ("pucci-plus-33", "pucci", "plus", 33, "diag", (1.1, -0.6)),
    ("pucci-minus-33", "pucci", "minus", 33, "diag", (0.9, -0.5)),
    ("ma-65", "ma", None, 65, "diag", (1.5, 0.7)),
    ("ma-33", "ma", None, 33, "axes", (1.7, 0.6)),
)


def _dirichlet(rng, inputs_dir):
    jobs, grids = [], []
    for name, eq, sign, n, frame, (a, b) in _WIDE_JOBS:
        c, p = _affine(rng)
        H = _aligned_hessian(a, b, frame, rng.random() < 0.5)
        if eq == "ma":
            f = a * b
            head = ["solve", "--eq", "ma"]
        else:
            f = _pucci_value(a, b, sign)
            head = ["solve", "--eq", "pucci", "--lambda", _num(LAM),
                    "--Lambda", _num(BIG_LAM), "--sign", sign]
        out = os.path.join(inputs_dir, name + ".out.grid")
        argv = head + ["--box=-1,1", "--h", _num(_h_of(n)), "--f=" + _num(f),
                       "--g=" + _quad_expr(c, p, H), "--out", out]
        exact = {"kind": "quadratic", "c": c, "p": list(p), "H": H}
        jobs.append(Job(name, eq, tuple(argv), {"out": out, "exact": exact, "tol": 1e-8,
                                                 "newton": True}))
    for n in (65, 129):
        # tr(A D^2 u) + b.Du = f with u = c + p.x + q x_k^2 / 2 and drift along
        # the other axis: the upwind differences are exact on it
        c, p = _affine(rng)
        a11, a22 = _r(rng.uniform(1.2, 2.0)), _r(rng.uniform(0.8, 1.2))
        a12 = _r(rng.choice((-1, 1)) * rng.uniform(0.2, 0.6))
        q, drift = _r(rng.uniform(0.5, 1.5)), _r(rng.choice((-1, 1)) * rng.uniform(0.3, 1.0))
        k = rng.randrange(2)  # the curved axis
        H = [[q, 0.0], [0.0, 0.0]] if k == 0 else [[0.0, 0.0], [0.0, q]]
        bvec = [0.0, drift] if k == 0 else [drift, 0.0]
        f = (a11 if k == 0 else a22) * q + drift * p[1 - k]
        out = os.path.join(inputs_dir, "linear-%d.out.grid" % n)
        argv = ["solve", "--eq", "linear", "--A=%s,%s,%s" % (_num(a11), _num(a12), _num(a22)),
                "--b=%s,%s" % (_num(bvec[0]), _num(bvec[1])), "--box=-1,1",
                "--h", _num(_h_of(n)), "--f=" + _num(f), "--g=" + _quad_expr(c, p, H),
                "--out", out]
        jobs.append(Job("linear-%d" % n, "linear", tuple(argv),
                        {"out": out, "exact": {"kind": "quadratic", "c": c, "p": list(p), "H": H},
                         "tol": 1e-8}))
    for n in (65,):
        # Scherk's minimal graph, scaled into the small-data regime: an exact
        # solution of the mean-curvature equation with f = 0
        fn = {"kind": "scherk", "a": _r(rng.uniform(0.15, 0.2)),
              "theta": _r(rng.uniform(0.0, math.pi)), "c": _r(rng.uniform(-0.2, 0.2))}
        g = InputGrid(os.path.join(inputs_dir, "scherk-%d.grid" % n), -0.5, 0.5,
                      _h_of(n, -0.5, 0.5), fn)
        grids.append(g)
        out = os.path.join(inputs_dir, "mc-%d.out.grid" % n)
        argv = ["solve", "--eq", "mc", "--grid", g.path, "--f", "0", "--g", g.path, "--out", out]
        jobs.append(Job("mc-%d" % n, "linear", tuple(argv),
                        {"out": out, "exact": fn, "tol": 1e-7}))
    return jobs, grids


# ---------------------------------------------------------------------------
# probe


def _probe(rng, inputs_dir):
    del inputs_dir  # the probe reads no files
    jobs = []

    def add(name, op, extra, expect, samples=40):
        seed = str(rng.randrange(1, 10**6))
        argv = ["probe", "--op", op] + extra + ["--samples", str(samples),
                                                "--pairs", str(samples // 2), "--seed", seed]
        jobs.append(Job(name, "probe", tuple(argv), expect))

    for sign in ("+", "-"):
        lam, Lam = _r(rng.uniform(0.3, 1.0), 3), _r(rng.uniform(1.5, 3.0), 3)
        add("pucci" + sign, "pucci%s:%s:%s" % (sign, _num(lam), _num(Lam)), [],
            {"lambda_hat": lam, "Lambda_hat": Lam})
    a11, a22 = _r(rng.uniform(1.0, 3.0), 3), _r(rng.uniform(1.0, 3.0), 3)
    a12 = _r(rng.uniform(-0.8, 0.8), 3)
    b1, b2 = _r(rng.uniform(-0.5, 0.5), 3), _r(rng.uniform(-0.5, 0.5), 3)
    tr, det = a11 + a22, a11 * a22 - a12 * a12
    disc = math.sqrt(max(tr * tr / 4 - det, 0.0))
    add("linear", "linear:%s,%s,%s:%s,%s:0" % tuple(_num(v) for v in (a11, a12, a22, b1, b2)),
        [], {"lambda_hat": tr / 2 - disc, "Lambda_hat": tr / 2 + disc})
    add("mc", "mc", [], {})
    add("slag", "slag", [], {})
    add("ma+I", "ma", ["--n", "2", "--shift-identity"], {})
    # the n = 3 cone families cost about 4x per sample
    add("sigma2+I", "sigma:2", ["--n", "3", "--shift-identity"], {}, samples=20)
    add("quot21+I", "quotient:2:1", ["--n", "3", "--shift-identity"], {}, samples=20)
    # the README's probe; the reference constant sqrt(2)/4 needs its full sample count
    add("mc-rho1", "mc", ["--rho", "1"], {"lambda_hat": math.sqrt(2) / 4, "lambda_tol": 1e-3},
        samples=160)
    return jobs, []


# ---------------------------------------------------------------------------
# regularity


def _regularity(rng, inputs_dir):
    jobs, grids = [], []
    path = lambda name: os.path.join(inputs_dir, name)  # noqa: E731

    # analyze: sharp fixtures at their claimed point sets
    th = _r(rng.uniform(0.3, 0.7), 3)
    jobs.append(Job("analyze-slag", "analyze",
                    ("analyze", "--fixture", "slag:%s" % _num(th), "--point", "0,0",
                     "--degree", "1"), {"alpha": th}))
    th, phi = _r(rng.uniform(0.2, 0.45), 3), rng.uniform(0.0, 2 * math.pi)
    pt = "%s,%s" % (_num(_r(math.cos(phi), 12)), _num(_r(math.sin(phi), 12)))
    jobs.append(Job("analyze-pmc", "analyze",
                    ("analyze", "--fixture", "pmc:%s" % _num(th), "--point=" + pt,
                     "--degree", "0"), {"alpha": th}))
    th = _r(rng.uniform(0.3, 0.7), 3)
    pt = "%s,%s,0" % (_num(_r(rng.uniform(-0.3, 0.3), 3)), _num(_r(rng.uniform(-0.3, 0.3), 3)))
    jobs.append(Job("analyze-hq", "analyze",
                    ("analyze", "--fixture", "hq:%s" % _num(th), "--point=" + pt,
                     "--degree", "1"), {"alpha": th}))
    th = _r(rng.uniform(0.3, 0.7), 3)
    g = InputGrid(path("slag.grid"), -1.0, 1.0, 1 / 64, {"kind": "slag", "theta": th})
    grids.append(g)
    jobs.append(Job("analyze-slag-grid", "analyze",
                    ("analyze", "--input", g.path, "--point", "0,0", "--degree", "1",
                     "--r0", "0.5", "--levels", "4"), {"alpha": th}))
    # constrained degree-2 fit of a convex quadratic with det D^2 u = f0
    a, b = _r(rng.uniform(1.0, 2.0), 3), _r(rng.uniform(0.5, 1.0), 3)
    H = _aligned_hessian(a, b, rng.choice(("axes", "diag")), False)
    c, p = _affine(rng)
    g = InputGrid(path("quadratic.grid"), -1.0, 1.0, 1 / 32,
                  {"kind": "quadratic", "c": c, "p": list(p), "H": H})
    grids.append(g)
    jobs.append(Job("analyze-quadratic-ma", "analyze",
                    ("analyze", "--input", g.path, "--point", "0.1,0", "--degree", "2",
                     "--r0", "0.5", "--levels", "3", "--constrain", "ma:%s" % _num(a * b)),
                    {"classification": "polynomial_exact"}))

    # check / refute on a Pucci-quadratic grid: the same code with and
    # without early exit
    qa, qb = _r(rng.uniform(0.8, 1.6), 3), _r(rng.uniform(-0.8, -0.2), 3)
    sign = rng.choice(("plus", "minus"))
    Hq = _aligned_hessian(qa, qb, "axes", rng.random() < 0.5)
    c, p = _affine(rng)
    g = InputGrid(path("pucci-quadratic.grid"), -1.0, 1.0, 0.25,
                  {"kind": "quadratic", "c": c, "p": list(p), "H": Hq})
    grids.append(g)
    op = "pucci%s:%s:%s" % ("+" if sign == "plus" else "-", _num(LAM), _num(BIG_LAM))
    f = _pucci_value(qa, qb, sign)
    gap = _r(rng.uniform(0.5, 1.5), 3)
    jobs.append(Job("check-pucci", "check",
                    ("check", "--input", g.path, "--op", op, "--f=" + _num(f),
                     "--side", "both", "--tol", "1e-6"), {"verdict": "solution"}))
    th = _r(rng.uniform(0.25, 0.35), 3)
    jobs.append(Job("check-pmc", "check",
                    ("check", "--fixture", "pmc:%s" % _num(th), "--box=0.553,1.453",
                     "--h", "0.09", "--f", "rhs", "--side", "both", "--tol", "5e-2",
                     "--rho", "5"), {"verdict": "solution"}))
    jobs.append(Job("refute-sub", "refute",
                    ("check", "--input", g.path, "--op", op, "--f=" + _num(f + gap),
                     "--side", "sub", "--tol", "1e-6"), {"verdict": "refuted", "side": "sub"}))
    jobs.append(Job("refute-super", "refute",
                    ("check", "--input", g.path, "--op", op, "--f=" + _num(f - gap),
                     "--side", "super", "--tol", "1e-6"),
                    {"verdict": "refuted", "side": "super"}))

    # abp on paraboloids s (|x|^2 - 1) / 4 with f = s
    for n in (129, 257):
        s = _r(rng.uniform(0.5, 2.0), 3)
        g = InputGrid(path("paraboloid-%d.grid" % n), -1.0, 1.0, _h_of(n),
                      {"kind": "paraboloid", "s": s})
        grids.append(g)
        jobs.append(Job("abp-%d" % n, "abp",
                        ("abp", "--input", g.path, "--f", _num(s), "--lambda", "1",
                         "--Lambda", "1"), {"ratio": 1 / (4 * math.sqrt(math.pi))}))

    # normalize: a fixture and a grid input
    hs = sorted(_r(10 ** rng.uniform(-3, -1), 4) for _ in range(3))
    jobs.append(Job("normalize-fixture", "normalize",
                    ("normalize", "--fixture", "quadratic", "--point", "0,0",
                     "--heights", ",".join(_num(v) for v in hs)),
                    {"product": 0.25, "heights": len(hs)}))
    hs = sorted(_r(rng.uniform(0.05, 0.2), 4) for _ in range(3))
    jobs.append(Job("normalize-grid", "normalize",
                    ("normalize", "--input", path("quadratic.grid"), "--point", "0.1,0",
                     "--heights", ",".join(_num(v) for v in hs), "--rays", "64"),
                    {"product": a * b / 4, "heights": len(hs)}))
    return jobs, grids


_BUILDERS = {"dirichlet": _dirichlet, "probe": _probe, "regularity": _regularity}


def make_jobs(workload, seed, inputs_dir):
    """(jobs, input grids) of one workload; ``--threads 1`` is prepended to
    every argv so runs stay single-threaded and byte-reproducible."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r (have: %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    jobs, grids = _BUILDERS[workload](rng, inputs_dir)
    jobs = [Job(j.name, j.cls, ("--threads", "1") + tuple(j.argv), j.expect) for j in jobs]
    return jobs, grids


def jobs_digest(jobs, grids):
    blob = json.dumps([[asdict(j) for j in jobs], [asdict(g) for g in grids]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# exact functions and input files


def exact_values(fn, points):
    """Values of an input or exact-solution description at points (N, 2)."""
    import numpy as np

    x = np.asarray(points, dtype=float)
    kind = fn["kind"]
    if kind == "quadratic":
        H = np.asarray(fn["H"])
        return fn["c"] + x @ np.asarray(fn["p"]) + 0.5 * np.einsum("ni,ij,nj->n", x, H, x)
    if kind == "scherk":
        a, t = fn["a"], fn["theta"]
        y1 = math.cos(t) * x[:, 0] - math.sin(t) * x[:, 1]
        y2 = math.sin(t) * x[:, 0] + math.cos(t) * x[:, 1]
        return fn["c"] + np.log(np.cos(a * y2) / np.cos(a * y1)) / a
    if kind == "paraboloid":
        return fn["s"] * (np.einsum("ni,ni->n", x, x) - 1.0) / 4.0
    if kind == "slag":
        from nelliptic.fixtures import parse_fixture

        fix = parse_fixture("slag:%r" % fn["theta"])
        return np.array([fix(p) for p in x])
    raise ValueError("unknown input kind %r" % kind)


def write_inputs(grids):
    """Write every input grid file."""
    from nelliptic.grid import GridFunction, write_grid

    for g in grids:
        os.makedirs(os.path.dirname(g.path) or ".", exist_ok=True)
        like = GridFunction.from_box([g.lo, g.lo], [g.hi, g.hi], g.h, dim=2)
        like.values = exact_values(g.fn, like.points()).reshape(like.shape)
        write_grid(like, g.path)
