"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nelliptic.fixtures import fixture
from nelliptic.geometry import (
    abp_check,
    directional_convexification,
    john_normalize,
    lower_convex_envelope,
    section,
)
from nelliptic.grid import GridFunction
from nelliptic.operators import (
    Jet,
    OperatorSpec,
    SymMatrix,
    ellipticity_probe,
    evaluate,
    pucci,
    shift,
)
from nelliptic.polyfit import Polynomial, minimax_fit, multi_indices
from nelliptic.regularity import (
    CampanatoConfig,
    campanato_table,
    check_viscosity,
    oscillation_profile,
)
from nelliptic.solver import SolveConfig, solve_monge_ampere, solve_pucci


def report(num, ok, detail):
    print("[acceptance] criterion %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


def test_criterion_01_mean_curvature_probe():
    sc = ellipticity_probe(OperatorSpec.mean_curvature(), 1.0, 2, samples=160, pairs=60)
    target = math.sqrt(2) / 4
    ok = abs(sc.lambda_hat - target) <= 1e-3 and len(sc.notes) >= 1
    report(
        1,
        ok,
        "lambda_hat=%.6f (ref %.6f), Lambda_hat=%.6f flagged note emitted=%s"
        % (sc.lambda_hat, target, sc.Lambda_hat, bool(sc.notes)),
    )


def test_criterion_02_slag_phase_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for theta in (0.2, 0.5, 0.8):
        fix = fixture("slag", theta)
        count = 0
        while count < 1000:
            x = rng.uniform(-1, 1, size=2)
            if abs(x[0]) < 1e-8:
                continue
            count += 1
            phase = evaluate(
                fix.operator,
                Jet(SymMatrix.from_full(fix.hess(x)), (0.0, 0.0), 0.0, tuple(x)),
            )
            formula = 0.75 * math.pi - math.atan(abs(x[0]) ** (1 - theta) / theta)
            worst = max(worst, abs(phase - formula))
    report(2, worst <= 1e-10, "max |phase - closed form| = %.2e over 3000 points" % worst)


def test_criterion_03_counterexample_exponents():
    results = []
    for theta in (0.3, 0.5, 0.7):
        rep = campanato_table(
            fixture("slag", theta), [0, 0], CampanatoConfig(k=1, r0=0.5, levels=6)
        )
        results.append(("slag", theta, rep.alpha_hat))
    for theta in (0.2, 0.4):
        rep = campanato_table(
            fixture("pmc", theta), [1.0, 0.0], CampanatoConfig(k=0, r0=0.5, levels=6)
        )
        results.append(("pmc", theta, rep.alpha_hat))
    rep = campanato_table(
        fixture("hq", 0.5), [0, 0, 0], CampanatoConfig(k=1, r0=0.5, levels=6)
    )
    results.append(("hq", 0.5, rep.alpha_hat))
    worst = max(abs(a - th) for _, th, a in results)
    ok = worst <= 0.05
    detail = "; ".join("%s(%.1f)->%.3f" % r for r in results)
    report(3, ok, detail + " (worst dev %.4f <= 0.05)" % worst)


def test_criterion_04_synthetic_calibration():
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in (0, 1, 2):
        for alpha in (0.2, 0.5, 0.8):
            coeffs = {s: float(rng.uniform(-1, 1)) for s in multi_indices(2, k)}
            nrm = sum(abs(a) for a in coeffs.values())
            Q = Polynomial(2, k, {s: a / max(nrm, 1.0) for s, a in coeffs.items()})
            beta = k + alpha
            u = lambda x: np.linalg.norm(x, axis=-1) ** beta + Q(x)
            rep = campanato_table(u, [0, 0], CampanatoConfig(k=k, r0=0.5, levels=6))
            worst = max(worst, abs(rep.alpha_hat - alpha))
    report(4, worst <= 0.02, "worst |alpha_hat - alpha| = %.4f over 9 cases" % worst)


def test_criterion_05_pucci_algebra():
    rng = np.random.default_rng(505)
    lam, Lam = 0.5, 2.5
    count = 10**4
    bad = 0
    mats = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        mats.append(SymMatrix.from_full((A + A.T) / 2))
    for i in range(0, count - 1, 2):
        M = mats[i]
        N = mats[i + 1]
        if N.dim != M.dim:
            B = rng.normal(size=(M.dim, M.dim))
            N = SymMatrix.from_full((B + B.T) / 2)
        mp = pucci(M, lam, Lam, "plus")
        mm = pucci(M, lam, Lam, "minus")
        S = M + N
        checks = (
            mm <= mp + 1e-10,
            abs(pucci(M.scaled(-1.0), lam, Lam, "plus") + mm) <= 1e-10,
            pucci(S, lam, Lam, "plus") <= mp + pucci(N, lam, Lam, "plus") + 1e-10,
            pucci(S, lam, Lam, "minus") >= mm + pucci(N, lam, Lam, "minus") - 1e-10,
        )
        if not all(checks):
            bad += 1
    report(5, bad == 0, "%d identity violations over %d matrices (tol 1e-10)" % (bad, count))


def test_criterion_06_sandwich_certification():
    half2 = Polynomial.half_square_norm(2)
    half3 = Polynomial.half_square_norm(3)
    cases = [
        ("pucci+:1:2", OperatorSpec.pucci_plus(1, 2), 1.0, 2),
        ("pucci-:1:2", OperatorSpec.pucci_minus(1, 2), 1.0, 2),
        ("linear(1,3)", OperatorSpec.linear(np.diag([1.0, 3.0])), 1.0, 2),
        ("mc", OperatorSpec.mean_curvature(), 1.0, 2),
        ("slag", OperatorSpec.lagrangian(), 1.0, 2),
        ("ma+I", shift(OperatorSpec.monge_ampere(), half2, normalize_origin=True), 0.5, 2),
        ("sigma2+I", shift(OperatorSpec.sigma(2), half3, normalize_origin=True), 0.5, 3),
        ("quot21+I", shift(OperatorSpec.quotient(2, 1), half3, normalize_origin=True), 0.5, 3),
    ]
    parts = []
    total = 0
    for name, op, rho, n in cases:
        sc = ellipticity_probe(op, rho, n, samples=120, pairs=60)
        total += sc.violations
        parts.append("%s:%d" % (name, sc.violations))
    report(6, total == 0, "violations per family {%s}" % ", ".join(parts))


def test_criterion_07_minimax_oracles():
    from scipy.optimize import linprog

    pts1 = np.linspace(-1, 1, 201)[:, None]
    fit_abs = minimax_fit(pts1, np.abs(pts1[:, 0]), [0.0], 1.0, 1)
    fit_cub = minimax_fit(pts1, pts1[:, 0] ** 3, [0.0], 1.0, 2)

    # brute-force dense grid LP oracle for the cubic
    Phi = np.stack([np.ones(201), pts1[:, 0], pts1[:, 0] ** 2 / 2.0], axis=-1)
    c = np.array([0.0, 0.0, 0.0, 1.0])
    A_ub = np.block([[-Phi, -np.ones((201, 1))], [Phi, -np.ones((201, 1))]])
    b_ub = np.concatenate([-pts1[:, 0] ** 3, pts1[:, 0] ** 3])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * 4)
    oracle = res.x[-1]

    def alternating(fit):
        signs = np.sign(fit.residuals[fit.active_points])
        return len(fit.active_points) >= fit.P.degree + 2 and np.all(
            np.abs(np.diff(signs)) == 2
        )

    ok = (
        abs(fit_abs.error - 0.5) <= 1e-6
        and abs(fit_cub.error - 0.25) <= 1e-4
        and abs(fit_cub.error - oracle) <= 1e-9
        and alternating(fit_abs)
        and alternating(fit_cub)
    )
    report(
        7,
        ok,
        "|x| error %.8f (1/2), x^3 error %.8f (1/4, oracle %.8f), equioscillation ok"
        % (fit_abs.error, fit_cub.error, oracle),
    )


def test_criterion_08_envelope():
    rng = np.random.default_rng(808)
    w = rng.normal(size=(33, 33))
    once = directional_convexification(w)
    idem = np.max(np.abs(directional_convexification(once) - once)) <= 1e-12 * (
        1 + np.max(np.abs(w))
    )
    xs = np.linspace(-2, 2, 129)
    conv = 0.25 * (xs[:, None] ** 2 + xs[None, :] ** 2) - 1.0
    fixed = np.array_equal(directional_convexification(conv), conv)

    h = 1 / 512
    g = GridFunction.from_box([-1.0], [1.0], h, fn=lambda x: x[..., 0] ** 2 - 1)
    env = lower_convex_envelope(g)
    pts = env.gamma.points()[:, 0]
    inner = pts[env.contact_mask & (np.abs(pts) < 1.5)]
    target = 2 - math.sqrt(3)
    dev = abs(np.max(np.abs(inner)) - target)
    ok = idem and fixed and dev <= 2 * h
    report(
        8,
        ok,
        "idempotent=%s convex-fixed=%s contact boundary dev %.2e <= 2h=%.2e"
        % (idem, fixed, dev, 2 * h),
    )


def test_criterion_09_abp_maximum_principle():
    g = lambda x: 0.2 + 0.1 * x[..., 0]
    f0 = GridFunction.from_box([-1, -1], [1, 1], 1 / 32)
    u, _ = solve_pucci(0.5, 2.0, "minus", f0, g)
    sup_minus = float(max(0.0, -u.values.min()))

    n, h = 2, 1 / 128
    up = GridFunction.from_box([-1, -1], [1, 1], h, fn=lambda x: (np.vecdot(x, x) - 1) / (2 * n))
    fones = GridFunction(2, up.shape, up.origin, up.spacing, np.ones(up.shape))
    rep = abp_check(up, fones, 1.0, 1.0, 0.0)
    expected = (1 / (2 * n)) / math.sqrt(math.pi)
    rel = abs(rep["ratio"] - expected) / expected
    ok = sup_minus <= 1e-6 and rel <= 0.05
    report(
        9,
        ok,
        "pucci-minus sup u^- = %.2e <= 1e-6; paraboloid ratio %.5f vs %.5f (rel %.4f <= 0.05)"
        % (sup_minus, rep["ratio"], expected, rel),
    )


def test_criterion_10_ma_exactness_and_sections():
    h = 1 / 32
    worst = 0.0
    for fval, gfun in (
        (1.0, lambda x: 0.5 * np.vecdot(x, x)),
        (4.0, lambda x: np.vecdot(x, x)),
        (4.0, lambda x: 0.5 * (x[..., 0] ** 2 + 4 * x[..., 1] ** 2)),
    ):
        f = GridFunction.from_box([-1, -1], [1, 1], h)
        f.values[:] = fval
        u, _ = solve_monge_ampere(f, gfun, SolveConfig(tol=1e-11))
        exact = gfun(u.points()).reshape(u.shape)
        worst = max(worst, float(np.max(np.abs(u.values - exact))))

    heights = np.logspace(-3, -1, 5)
    band_quad = []
    for A in (np.eye(2), np.diag([1.0, 4.0])):
        q = fixture("quadratic", A=A)
        prods = [john_normalize(section(q, [0, 0], s), s, 2).product for s in heights]
        band_quad.append(max(prods) / min(prods))
    conv = lambda x: 0.5 * x[..., 0] ** 2 + 0.25 * x[..., 1] ** 4 + 0.5 * x[..., 1] ** 2
    prods = [
        john_normalize(section(conv, [0, 0], s, domain=([-2, -2], [2, 2])), s, 2).product
        for s in heights
    ]
    band_analytic = max(prods) / min(prods)
    ok = worst <= 1e-8 and max(band_quad) <= 1.01 and band_analytic <= 4.0
    report(
        10,
        ok,
        "aligned quadratic error %.2e <= 1e-8; quadratic product band %.4f <= 1.01; "
        "analytic band %.2f <= 4" % (worst, max(band_quad), band_analytic),
    )


def test_criterion_11_viscosity_checker():
    u = GridFunction.from_box([-1, -1], [1, 1], 0.2, fn=lambda x: np.vecdot(x, x))
    f4 = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 4.0))
    rep_cls = check_viscosity(u, OperatorSpec.linear(np.eye(2)), f4, side="both", tol=1e-6)
    classical_ok = (
        rep_cls.counts("sub")["fail"] == 0
        and rep_cls.counts("super")["fail"] == 0
        and rep_cls.counts("sub")["pass"] > 0
    )

    u1 = GridFunction.from_box([-1.0], [1.0], 1 / 8, fn=lambda x: abs(x[..., 0]))
    fm1 = GridFunction(1, u1.shape, u1.origin, u1.spacing, np.full(u1.shape, -1.0))
    rep_abs = check_viscosity(u1, OperatorSpec.linear(np.eye(1)), fm1, side="super", tol=1e-6)
    mid = u1.shape[0] // 2
    kink_fail = rep_abs.verdict_super[rep_abs.nodes.index((mid,))] == "fail"
    witness = any(w["node"] == [mid] for w in rep_abs.witnesses)

    fix = fixture("pmc", 0.3)
    gg = GridFunction.from_box([0.553, -0.447], [1.453, 0.453], 0.06)
    vals = fix(gg.points()).reshape(gg.shape)
    upmc = GridFunction(2, gg.shape, gg.origin, gg.spacing, vals)
    fpmc = GridFunction(
        2, gg.shape, gg.origin, gg.spacing,
        fix.rhs(gg.points()).reshape(gg.shape),
    )
    rep_pmc = check_viscosity(upmc, fix.operator, fpmc, side="both", tol=5e-2, rho=5.0)
    pmc_ok = (
        rep_pmc.counts("sub")["fail"] == 0
        and rep_pmc.counts("super")["fail"] == 0
        and rep_pmc.counts("sub")["pass"] > 0
    )
    ok = classical_ok and kink_fail and witness and pmc_ok
    report(
        11,
        ok,
        "classical pass=%s; |x| kink fail+witness=%s; pmc across kink no-fail=%s"
        % (classical_ok, kink_fail and witness, pmc_ok),
    )


def test_criterion_12_oscillation_decay():
    h = 1 / 64
    f = GridFunction.from_box([-1, -1], [1, 1], h)
    f.values[:] = 0.01
    u, _ = solve_pucci(0.5, 2.0, "minus", f, lambda x: 0.1 * (x[..., 0] ** 2 - x[..., 1] ** 2))
    radii = [0.5 * 0.5**m for m in range(5)]
    prof = oscillation_profile(u, [0.0, 0.0], radii)
    logs = np.log([r for r, _ in prof]), np.log([o for _, o in prof])
    slope = float(np.polyfit(logs[0], logs[1], 1)[0])
    report(12, slope > 0, "log-osc/log-r slope %.4f > 0 over 5 dyadic radii" % slope)


def test_criterion_13_cli_determinism(tmp_path):
    script = [
        ["probe", "--op", "mc", "--rho", "1", "--samples", "60", "--pairs", "20", "--seed", "7"],
        ["analyze", "--fixture", "slag:0.4", "--point", "0,0", "--degree", "1", "--levels", "5"],
        ["fixtures", "list"],
        ["normalize", "--fixture", "quadratic", "--point", "0,0", "--heights", "0.01,0.04", "--rays", "64"],
    ]

    def assert_json_lines(stdout):
        # sanity: every CLI stdout chunk is non-empty JSON lines, one record each
        assert stdout.endswith(b"\n"), stdout
        for ln in stdout[:-1].split(b"\n"):
            assert isinstance(json.loads(ln), dict), ln

    def run_stream(tag):
        chunks = []
        for args in script:
            proc = subprocess.run(
                [sys.executable, "-m", "nelliptic.cli"] + args,
                capture_output=True,
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            assert_json_lines(proc.stdout)
            chunks.append(proc.stdout)
        # solve writes a grid file; include its bytes in the stream
        out = tmp_path / ("u_%s.grid" % tag)
        proc = subprocess.run(
            [sys.executable, "-m", "nelliptic.cli", "solve", "--eq", "linear",
             "--box=-1,1", "--h", "0.125", "--f", "1", "--g", "x1^2-x2^2",
             "--out", str(out)],
            capture_output=True,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert_json_lines(proc.stdout)
        chunks.append(proc.stdout.replace(str(out).encode(), b"OUT"))
        chunks.append(out.read_bytes())
        return b"".join(chunks)

    s1 = run_stream("a")
    s2 = run_stream("b")
    report(13, s1 == s2, "two runs produced %d identical bytes" % len(s1))
