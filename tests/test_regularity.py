import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nelliptic import regularity
from nelliptic.errors import (
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
    SingularEvaluationError,
)
from nelliptic.fixtures import fixture
from nelliptic.grid import GridFunction
from nelliptic.operators import OperatorSpec, eigenvalues_sym, evaluate_many, shift
from nelliptic.polyfit import Polynomial, multi_indices
from nelliptic.regularity import (
    CampanatoConfig,
    ViscosityReport,
    campanato_table,
    check_viscosity,
    estimate_exponent,
    holder_seminorm,
    oscillation_profile,
)


class TestEstimateExponent:
    def test_exact_power_law(self):
        scales = [(0.5 * 0.5**m, (0.5 * 0.5**m) ** 2.5) for m in range(6)]
        alpha, C, flagged = estimate_exponent(scales, 2)
        assert alpha == pytest.approx(0.5, abs=1e-12)
        assert C == pytest.approx(1.0, rel=1e-10)
        assert not flagged

    def test_boundary_alpha_flagged(self):
        scales = [(0.5 * 0.5**m, (0.5 * 0.5**m) ** 2.0) for m in range(6)]
        alpha, _, flagged = estimate_exponent(scales, 2)
        assert alpha == 0.0 and flagged

    def test_noisy_power_law(self):
        rng = np.random.default_rng(123)
        scales = [
            (r, r**2.3 * (1 + rng.uniform(-0.01, 0.01)))
            for r in (0.5 * 0.5**m for m in range(8))
        ]
        alpha, _, _ = estimate_exponent(scales, 2)
        assert alpha == pytest.approx(0.3, abs=0.02)

    def test_insufficient_scales(self):
        with pytest.raises(InsufficientDataError):
            estimate_exponent([(0.5, 0.1), (0.25, 0.05), (0.125, 0.02)], 0)


class TestCampanato:
    def test_polynomial_exact(self):
        q = fixture("quadratic", A=np.array([[2.0, 0.5], [0.5, 1.0]]))
        rep = campanato_table(q, [0.1, 0.2], CampanatoConfig(k=2, r0=0.5, levels=5))
        assert rep.classification == "polynomial_exact"
        assert all(s.error <= rep.noise_floor for s in rep.scales)

    def test_abs_three_halves(self):
        # best degree-1 fit of the even function |x|^{3/2} is the constant
        # r^{3/2}/2, so E(r) = r^{3/2}/2 exactly
        pw = fixture("power", 1.5, n=1)
        rep = campanato_table(pw, [0.0], CampanatoConfig(k=1, r0=0.5, levels=6))
        for s in rep.scales:
            assert s.error == pytest.approx(s.r**1.5 / 2, rel=1e-9)
        assert rep.alpha_hat == pytest.approx(0.5, abs=0.02)

    def test_slag_exponents(self):
        for theta in (0.3, 0.5, 0.7):
            rep = campanato_table(
                fixture("slag", theta), [0, 0], CampanatoConfig(k=1, r0=0.5, levels=6)
            )
            assert abs(rep.alpha_hat - theta) <= 0.05

    def test_pmc_boundary_exponent(self):
        for theta in (0.2, 0.4):
            rep = campanato_table(
                fixture("pmc", theta), [1.0, 0.0], CampanatoConfig(k=0, r0=0.5, levels=6)
            )
            assert abs(rep.alpha_hat - theta) <= 0.05

    def test_hq_exponent(self):
        rep = campanato_table(
            fixture("hq", 0.5), [0, 0, 0], CampanatoConfig(k=1, r0=0.5, levels=6)
        )
        assert abs(rep.alpha_hat - 0.5) <= 0.05

    def test_error_bounded_by_previous_restriction(self):
        # E_m <= sup over the scale-m samples of |u - P_{m-1}|
        from nelliptic.polyfit import ball_samples

        fx = fixture("slag", 0.4)
        cfg = CampanatoConfig(k=1, r0=0.5, levels=5)
        rep = campanato_table(fx, [0, 0], cfg)
        for m in range(1, len(rep.scales)):
            prev = rep.scales[m - 1].fit.P
            pts, vals = ball_samples(fx, [0, 0], rep.scales[m].r, m=cfg.samples_m)
            bound = max(abs(v - prev(p)) for p, v in zip(pts, vals))
            assert rep.scales[m].error <= bound + 1e-12

    def test_scaling_covariance(self):
        # analyzing u(r y)/r^{k+alpha} with the matched lattice reproduces the
        # error table exactly
        theta, r = 0.4, 0.5
        fx = fixture("slag", theta)
        scale = r ** (1 + theta)
        rescaled = lambda y: fx(r * np.asarray(y)) / scale
        rep_a = campanato_table(fx, [0, 0], CampanatoConfig(k=1, r0=0.4 * r, levels=4))
        rep_b = campanato_table(rescaled, [0, 0], CampanatoConfig(k=1, r0=0.4, levels=4))
        for sa, sb in zip(rep_a.scales, rep_b.scales):
            assert sb.error == pytest.approx(sa.error / scale, abs=1e-9)

    def test_successive_polynomial_discipline(self):
        fx = fixture("slag", 0.5)
        rep = campanato_table(fx, [0, 0], CampanatoConfig(k=1, r0=0.5, levels=6))
        assert rep.classification.startswith("C^1_alpha")
        for s in rep.scales[1:]:
            if s.usable:
                assert s.step_norm <= 4 * rep.C_hat * s.r ** (1 + rep.alpha_hat) + 1e-12

    def test_exponent_recovery_with_polynomial_part(self):
        rng = np.random.default_rng(31)
        for k in (0, 1, 2):
            for alpha in (0.2, 0.5, 0.8):
                coeffs = {s: float(rng.uniform(-1, 1)) for s in multi_indices(2, k)}
                nrm = sum(abs(a) for a in coeffs.values())
                Q = Polynomial(2, k, {s: a / max(nrm, 1.0) for s, a in coeffs.items()})
                beta = k + alpha
                u = lambda x: np.linalg.norm(x, axis=-1) ** beta + Q(x)
                rep = campanato_table(u, [0, 0], CampanatoConfig(k=k, r0=0.5, levels=6))
                assert abs(rep.alpha_hat - alpha) <= 0.02

    def test_below_resolution_classification(self):
        # a sampled transcendental function at modest resolution: only the
        # first scales rise above the interpolation floor
        g = GridFunction.from_box([-1, -1], [1, 1], 1 / 64, fn=lambda x: np.sin(x[..., 0] + x[..., 1]))
        rep = campanato_table(g, [0, 0], CampanatoConfig(k=2, r0=0.5, levels=4))
        assert rep.classification == "below_resolution"
        assert rep.alpha_hat is None

    def test_grid_input_noise_floor(self):
        # sampled smooth function: deep scales drown in interpolation noise
        g = GridFunction.from_box([-1, -1], [1, 1], 1 / 64, fn=lambda x: np.sin(x[..., 0] + x[..., 1]))
        cfg = CampanatoConfig(k=1, r0=0.5, levels=3)
        rep = campanato_table(g, [0, 0], cfg)
        assert rep.noise_floor > 0
        with pytest.raises(ParameterError):
            campanato_table(g, [0, 0], CampanatoConfig(k=1, r0=0.5, levels=8))

    def test_constrained_table(self):
        q = fixture("quadratic")  # |x|^2/2, det D^2 u = 1
        cfg = CampanatoConfig(
            k=2, r0=0.4, levels=4, constraint=(OperatorSpec.monge_ampere(), 1.0)
        )
        rep = campanato_table(q, [0, 0], cfg)
        for s in rep.scales:
            assert abs(s.fit.t_correction) < 1e-9
            assert s.fit.constrained

    def test_norm_bound_flags(self):
        fx = fixture("slag", 0.5)
        rep = campanato_table(
            fx, [0, 0], CampanatoConfig(k=1, r0=0.5, levels=4, norm_bound=1e-9)
        )
        assert rep.norm_bound_flags  # every scale exceeds an absurdly small cap

    def test_eta_validation(self):
        with pytest.raises(ParameterError):
            CampanatoConfig(k=1, r0=0.5, eta=0.7)


class TestOscillation:
    def test_linear(self):
        osc = oscillation_profile(lambda x: x[..., 0], [0.0, 0.0], [0.5, 0.25])
        assert osc[0][1] == pytest.approx(1.0, rel=1e-9)  # osc = 2r
        assert osc[1][1] == pytest.approx(0.5, rel=1e-9)

    def test_radial_power(self):
        pw = fixture("power", 0.3, n=2)
        for r, o in oscillation_profile(pw, [0, 0], [0.5, 0.25, 0.125]):
            assert o == pytest.approx(r**0.3, rel=1e-6)


class TestHolderSeminorm:
    def test_matching_power(self):
        pw = fixture("power", 0.5, n=1)
        radii = [0.5 * 0.5**m for m in range(5)]
        assert holder_seminorm(pw, [0.0], 0, 0.5, radii) == pytest.approx(1.0, abs=1e-6)

    def test_polynomial_vanishes(self):
        q = fixture("quadratic", A=np.array([[1.5, 0.0], [0.0, 0.5]]))
        radii = [0.4 * 0.5**m for m in range(4)]
        assert holder_seminorm(q, [0.2, -0.1], 2, 0.5, radii) <= 1e-9

    def test_slag_sharpness(self):
        fx = fixture("slag", 0.4)
        radii = [0.5 * 0.5**m for m in range(5)]
        at_theta = [
            holder_seminorm(fx, [0, 0], 1, 0.4, radii, samples_m=m) for m in (6, 12)
        ]
        above = [
            holder_seminorm(fx, [0, 0], 1, 0.5, radii, samples_m=m) for m in (6, 12)
        ]
        assert abs(at_theta[1] - at_theta[0]) <= 0.25 * at_theta[0]
        assert above[1] > above[0]


class TestViscosityChecker:
    def test_classical_solution_passes(self):
        u = GridFunction.from_box([-1, -1], [1, 1], 0.2, fn=lambda x: np.vecdot(x, x))
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 4.0))
        rep = check_viscosity(u, OperatorSpec.linear(np.eye(2)), f, side="both", tol=1e-6)
        assert rep.counts("sub")["fail"] == 0 and rep.counts("super")["fail"] == 0
        assert rep.counts("sub")["pass"] > 0 and rep.counts("super")["pass"] > 0

    def test_abs_fails_supersolution_at_kink(self):
        u = GridFunction.from_box([-1.0], [1.0], 1 / 8, fn=lambda x: abs(x[..., 0]))
        f = GridFunction(1, u.shape, u.origin, u.spacing, np.full(u.shape, -1.0))
        rep = check_viscosity(u, OperatorSpec.linear(np.eye(1)), f, side="super", tol=1e-6)
        mid = u.shape[0] // 2
        assert rep.verdict_super[rep.nodes.index((mid,))] == "fail"
        wit = [w for w in rep.witnesses if w["node"] == [mid]][0]
        assert wit["operator_value"] > wit["f"]  # e.g. phi = a x with phi'' = 0 > -1

    def test_strict_one_sided_soundness(self):
        # classical residual <= -tol everywhere: never fails the check driven
        # by test functions touching from below (supersolution side); the
        # mirrored statement holds for residual >= +tol
        u = GridFunction.from_box([-1, -1], [1, 1], 0.25, fn=lambda x: np.vecdot(x, x))
        op = OperatorSpec.linear(np.eye(2))
        f_hi = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 5.0))
        rep = check_viscosity(u, op, f_hi, side="super", tol=1e-6)
        assert rep.counts("super")["fail"] == 0
        f_lo = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 3.0))
        rep = check_viscosity(u, op, f_lo, side="sub", tol=1e-6)
        assert rep.counts("sub")["fail"] == 0

    def test_pmc_across_kink(self):
        fix = fixture("pmc", 0.3)
        g = GridFunction.from_box([0.553, -0.447], [1.453, 0.453], 0.06)
        vals = np.array([fix(p) for p in g.points()]).reshape(g.shape)
        u = GridFunction(2, g.shape, g.origin, g.spacing, vals)
        fvals = fix.rhs(g.points()).reshape(g.shape)
        f = GridFunction(2, g.shape, g.origin, g.spacing, fvals)
        rep = check_viscosity(u, fix.operator, f, side="both", tol=5e-2, rho=5.0)
        assert rep.counts("sub")["fail"] == 0
        assert rep.counts("super")["fail"] == 0
        assert rep.counts("sub")["pass"] > 0

    def test_witness_is_the_first_failing_candidate(self):
        # u = x1^2/2 + g(x2): each node's curvature candidates are diag(1, -2)
        # and diag(1, -1), where sigma_1 = 0. From below only diag(1, -2)
        # touches, and every slope fails; the witness is the first one in
        # sweep order. From above the singular candidate comes first.
        g = np.array([-0.75, -0.125, 0.0, -0.125, -0.75])
        x1 = np.array([-0.5, 0.0, 0.5])
        u = GridFunction(2, (3, 5), (-0.5, -1.0), 0.5, x1[:, None] ** 2 / 2 + g)
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.zeros(u.shape))
        op = OperatorSpec.quotient(2, 1)
        rep = check_viscosity(u, op, f, side="super", tol=1e-6)
        assert rep.verdict_super == ["fail"] * 3
        assert [w["hessian"] for w in rep.witnesses] == [[[1.0, 0.0], [0.0, -2.0]]] * 3
        # the centre's touching slopes are [-1/4, 1/4]; the lowest swept one is first
        slopes = [w["slope"] for w in rep.witnesses]
        assert slopes == [[0.0, 0.75], [0.0, -0.23951612903312902], [0.0, -0.75]]
        with pytest.raises(SingularEvaluationError):
            check_viscosity(u, op, f, side="sub", tol=1e-6)

    def test_bounded_test_class(self):
        # D^2 u = diag(2, 0): |Q| = 2, so rho = 1.5 leaves no test function
        u = GridFunction.from_box([-1, -1], [1, 1], 0.25, fn=lambda x: x[..., 0] ** 2)
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 2.0))
        op = OperatorSpec.linear(np.eye(2))
        assert check_viscosity(u, op, f, rho=1.5).counts("sub")["vacuous"] == 49
        assert check_viscosity(u, op, f, rho=2.5).counts("sub")["pass"] > 0

    def test_singular_candidate_after_the_witness(self, monkeypatch):
        # candidates are tried in order, so a singular one after the first
        # failing one does not change the verdict; one before it raises.
        # Here every candidate fails, the first one included.
        u = GridFunction.from_box([-1, -1], [1, 1], 0.25, fn=lambda x: x[..., 0] ** 2 - x[..., 1] ** 2 / 2)
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 5.0))
        op = OperatorSpec.pucci_minus(0.5, 2.0)
        ref = check_viscosity(u, op, f, side="sub", tol=1e-6)
        assert ref.counts("sub")["fail"] == len(ref.nodes)
        real = regularity.evaluate_many

        def singular_at(index):
            def evaluate_many(op, M, p, s, x):
                if len(M) > index:  # not the prefix evaluated after the error
                    raise SingularEvaluationError("singular", index=index)
                return real(op, M, p, s, x)
            return evaluate_many

        monkeypatch.setattr(regularity, "evaluate_many", singular_at(1))
        rep = check_viscosity(u, op, f, side="sub", tol=1e-6)
        assert rep.witnesses == ref.witnesses
        monkeypatch.setattr(regularity, "evaluate_many", singular_at(0))
        with pytest.raises(SingularEvaluationError):
            check_viscosity(u, op, f, side="sub", tol=1e-6)


# ---------------------------------------------------------------------------
# the per-node viscosity checker, kept as the reference for the block one


def _reference_slope_candidates(lo, hi, count):
    lo, hi = min(lo, hi), max(lo, hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * 1.1 + 1e-12  # inflate the interval by 10%
    return np.linspace(mid - half, mid + half, count)


def reference_check_viscosity(
    u: GridFunction,
    op: OperatorSpec,
    f: GridFunction,
    side: str = "both",
    tol: float = 1e-6,
    slopes_per_axis: int = 32,
    rho: float = None,
) -> ViscosityReport:
    """Discrete viscosity verdicts per interior node.

    Candidate paraboloids combine curvatures from centered and one-sided
    second differences (axis by axis, plus the centered cross term) with a
    slope sweep over the one-sided first-difference interval inflated by 10%.
    A candidate counts only if it touches u from the proper side on the
    stencil neighborhood; surviving candidates must satisfy the side's
    operator inequality within tol, otherwise the node fails with the
    candidate recorded as a witness. Nodes with no admissible touching
    candidate are vacuous.

    rho, when given, restricts the admissible test class to |D^2 phi| <= rho
    and |D phi| <= rho (the local analogue of the bounded-C^{1,1} test class
    of a rho-uniformly elliptic problem); without it all paraboloids are
    admissible, which can flag blow-up points that the bounded class cannot
    touch.
    """
    if u.shape != f.shape:
        raise InvalidInputError("grids must match")
    if side not in ("sub", "super", "both"):
        raise ParameterError("side must be sub, super or both")
    h = u.spacing
    dim = u.dim
    v = u.values
    pts = u.points().reshape(u.shape + (dim,))

    if dim == 1:
        offsets = [(-2,), (-1,), (1,), (2,)]
        interior = [(i,) for i in range(1, u.shape[0] - 1)]
    else:
        offsets = [
            (-2, 0), (-1, 0), (1, 0), (2, 0),
            (0, -2), (0, -1), (0, 1), (0, 2),
            (1, 1), (-1, -1), (1, -1), (-1, 1),
        ]
        ny, nx = u.shape
        interior = [(i, j) for i in range(1, ny - 1) for j in range(1, nx - 1)]

    def inside(node, off):
        return all(0 <= node[d] + off[d] < u.shape[d] for d in range(dim))

    nodes, verdict_sub, verdict_super, witnesses = [], [], [], []
    for node in interior:
        u0 = v[node]
        x0 = pts[node]
        neigh = [off for off in offsets if inside(node, off)]
        du = {}
        for off in neigh:
            du[off] = v[tuple(np.add(node, off))] - u0

        # slope interval per axis from one-sided quotients (centered quotient
        # always included so smooth nodes keep their exact candidate)
        slope_axes = []
        curv_axes = []
        for d in range(dim):
            ep = tuple(1 if q == d else 0 for q in range(dim))
            em = tuple(-1 if q == d else 0 for q in range(dim))
            fwd = du[ep] / h
            bwd = -du[em] / h
            sweep = np.append(
                _reference_slope_candidates(bwd, fwd, slopes_per_axis), 0.5 * (fwd + bwd)
            )
            slope_axes.append(sweep)
            cands = {(du[ep] + du[em]) / h**2}  # centered
            ep2 = tuple(2 if q == d else 0 for q in range(dim))
            em2 = tuple(-2 if q == d else 0 for q in range(dim))
            if ep2 in du:  # one-sided second differences
                cands.add((du[ep2] - 2 * du[ep]) / h**2)
            if em2 in du:
                cands.add((du[em2] - 2 * du[em]) / h**2)
            curv_axes.append(sorted(cands))
        if dim == 2:
            cross = 0.0
            if all(o in du for o in ((1, 1), (-1, -1), (1, -1), (-1, 1))):
                cross = (du[(1, 1)] + du[(-1, -1)] - du[(1, -1)] - du[(-1, 1)]) / (
                    4 * h**2
                )
            q_list = np.array(
                [[[qa, cross], [cross, qb]] for qa in curv_axes[0] for qb in curv_axes[1]]
            )
        else:
            q_list = np.array([[[qa]] for qa in curv_axes[0]])
        if rho is not None:
            q_list = q_list[np.max(np.abs(eigenvalues_sym(q_list)), axis=-1) <= rho]

        p_sweep = np.array(list(itertools.product(*slope_axes)))
        rel = np.array([[o * h for o in off] for off in neigh])  # physical offsets
        uoff = np.array([du[off] for off in neigh])
        slack = 1e-12 * (1.0 + abs(u0)) + 1e-12

        def slope_box(Q, below):
            # feasible touching slopes per axis from the axis neighbors only;
            # candidates from the box survive the exact filter below
            corners = [[]]
            for d in range(dim):
                lo_d, hi_d = -math.inf, math.inf
                for off in neigh:
                    if any(off[q] != 0 for q in range(dim) if q != d):
                        continue
                    z = off[d] * h
                    bound = (du[off] - 0.5 * Q[d, d] * z * z) / z
                    if (z > 0) == below:
                        hi_d = min(hi_d, bound)
                    else:
                        lo_d = max(lo_d, bound)
                if lo_d > hi_d + 1e-12:
                    return np.empty((0, dim))
                lo_d = max(lo_d, -1e12)
                hi_d = min(hi_d, 1e12)
                vals = {lo_d, hi_d, 0.5 * (lo_d + hi_d)}
                corners = [c + [v] for c in corners for v in sorted(vals)]
            return np.array(corners)

        def touching(Q, below):
            # phi(x0 + z) - u(x0 + z) = p.z + z^T Q z / 2 - du
            extras = slope_box(Q, below)
            p_all = np.vstack([p_sweep, extras]) if len(extras) else p_sweep
            if rho is not None:
                p_all = p_all[np.linalg.norm(p_all, axis=1) <= rho]
                if len(p_all) == 0:
                    return p_all
            quad = 0.5 * np.einsum("ni,ij,nj->n", rel, Q, rel)
            gap = p_all @ rel.T + quad[None, :] - uoff[None, :]
            if below:
                ok = np.all(gap <= slack, axis=1)
            else:
                ok = np.all(gap >= -slack, axis=1)
            return p_all[ok]

        def run_side(below):
            # below=True: test functions under u -> supersolution inequality.
            # All touching candidates go through one evaluation; the witness
            # is the first failing one in (Q, p) order.
            touch = [touching(Q, below) for Q in q_list]
            qs = np.repeat(q_list, [len(t) for t in touch], axis=0)
            if not len(qs):
                return "vacuous", None
            ps = np.concatenate(touch)
            fx = f.values[node]

            def fails(val):
                return np.flatnonzero(val > fx + tol if below else val < fx - tol)

            try:
                val = evaluate_many(op, qs, ps, u0, x0)
            except SingularEvaluationError as exc:
                # a failing candidate before the singular one decides the side
                val = evaluate_many(op, qs[: exc.index], ps[: exc.index], u0, x0)
                if not len(fails(val)):
                    raise
            bad = fails(val)
            if not len(bad):
                return "pass", None
            i = bad[0]
            return "fail", {
                "node": list(node),
                "x": list(map(float, x0)),
                "side": "super" if below else "sub",
                "slope": list(map(float, ps[i])),
                "hessian": qs[i].tolist(),
                "operator_value": float(val[i]),
                "f": float(fx),
            }

        nodes.append(node)
        if side in ("super", "both"):
            verdict, wit = run_side(below=True)
            verdict_super.append(verdict)
            if wit:
                witnesses.append(wit)
        else:
            verdict_super.append("vacuous")
        if side in ("sub", "both"):
            verdict, wit = run_side(below=False)
            verdict_sub.append(verdict)
            if wit:
                witnesses.append(wit)
        else:
            verdict_sub.append("vacuous")

    return ViscosityReport(nodes, verdict_sub, verdict_super, witnesses)


def outcome(check, *args, **kwargs):
    """The report as JSON (floats round-trip exactly, signed zeros included),
    or the type, message and index of the error raised."""
    try:
        return json.dumps(check(*args, **kwargs).to_dict())
    except (SingularEvaluationError, InvalidInputError, ParameterError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "index", None))


def quotient_grid():
    """u = x1^2/2 + g(x2) on a 3 x 5 grid: diag(1, -1) has sigma_1 = 0, so
    quotient:2:1 meets singular candidates (test_witness_is_the_first_...)."""
    g = np.array([-0.75, -0.125, 0.0, -0.125, -0.75])
    x1 = np.array([-0.5, 0.0, 0.5])
    u = GridFunction(2, (3, 5), (-0.5, -1.0), 0.5, x1[:, None] ** 2 / 2 + g)
    return u, GridFunction(2, u.shape, u.origin, u.spacing, np.zeros(u.shape))


def singular_pair_grid():
    """A 4 x 5 integer grid on which quotient:2:1, checked from below, meets
    a singular candidate before any failing one at two nodes, the first at
    its candidate 0 and a later one at its candidate 1079."""
    v = [[0, -1, -1, -2, -1], [0, -1, -1, 0, 0], [1, -1, -2, 2, 2], [-2, -2, -2, 1, -1]]
    u = GridFunction(2, (4, 5), (0.0, 0.0), 0.5, np.array(v, float))
    return u, GridFunction(2, u.shape, u.origin, u.spacing, np.zeros(u.shape))


def bench_pucci_grid():
    """The shape of the benchmark's check input: a quadratic on [-1, 1]^2 at
    h = 1/4 (9 x 9 nodes, 49 interior) and its Pucci value."""
    H = np.array([[1.2, 0.0], [0.0, -0.5]])
    u = GridFunction.from_box(
        [-1, -1], [1, 1], 0.25, fn=lambda x: 0.3 + 0.1 * x[..., 0] + 0.5 * np.vecdot(x @ H, x)
    )
    f = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 2.0 * 1.2 - 0.5 * 0.5))
    return u, OperatorSpec.pucci_plus(0.5, 2.0), f


def operators_for(dim):
    ops = [
        OperatorSpec.pucci_plus(0.5, 2.0),
        OperatorSpec.pucci_minus(0.5, 2.0),
        OperatorSpec.linear(np.eye(dim) + 0.25 * np.ones((dim, dim)), [0.5] * dim, -0.25),
        shift(OperatorSpec.monge_ampere(), Polynomial.half_square_norm(dim), normalize_origin=True),
        OperatorSpec.mean_curvature(),  # the pmc fixture's operator
    ]
    return ops + [OperatorSpec.quotient(2, 1)] if dim == 2 else ops


@st.composite
def viscosity_cases(draw):
    """Small 1D and 2D grids (3 nodes and 3 x 3 included): integer values,
    which tie curvature candidates and make singular quotients common,
    quadratics with a kink, or arbitrary floats."""
    dim = draw(st.sampled_from((1, 2)))
    shape = tuple(draw(st.integers(3, 6 if dim == 2 else 9)) for _ in range(dim))
    h = draw(st.sampled_from((0.25, 0.1, 1 / 7, 0.09)))
    kind = draw(st.sampled_from(("integers", "kinked", "floats")))
    size = int(np.prod(shape))
    if kind == "integers":
        vals = np.array(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)), float)
    elif kind == "kinked":
        a, b, k = (draw(st.floats(-2, 2)) for _ in range(3))
        grid = np.indices(shape).reshape(dim, -1).T * h
        vals = a * grid[:, 0] ** 2 + b * grid[:, -1] + k * np.abs(grid[:, 0] - grid[:, -1] - h)
    else:
        vals = np.array(draw(st.lists(st.floats(-10, 10), min_size=size, max_size=size)))
    u = GridFunction(dim, shape, (0.0,) * dim, h, vals.reshape(shape))
    fvals = np.full(size, draw(st.floats(-3, 3))) if draw(st.booleans()) else np.array(
        draw(st.lists(st.floats(-3, 3), min_size=size, max_size=size)))
    f = GridFunction(dim, shape, (0.0,) * dim, h, fvals.reshape(shape))
    op = draw(st.sampled_from(operators_for(dim)))
    rho = draw(st.one_of(st.none(), st.floats(0.05, 60)))
    return u, op, f, dict(side=draw(st.sampled_from(("sub", "super", "both"))),
                          tol=draw(st.sampled_from((1e-6, 5e-2))), rho=rho)


class TestBlockChecker:
    @settings(max_examples=120, deadline=None)
    @given(viscosity_cases())
    def test_matches_the_per_node_reference(self, case):
        u, op, f, kwargs = case
        assert outcome(check_viscosity, u, op, f, **kwargs) == outcome(
            reference_check_viscosity, u, op, f, **kwargs
        )

    @pytest.mark.parametrize("side", ["sub", "super", "both"])
    def test_singular_prefix_rule_matches(self, side):
        u, f = quotient_grid()
        op = OperatorSpec.quotient(2, 1)
        got = outcome(check_viscosity, u, op, f, side=side)
        assert got == outcome(reference_check_viscosity, u, op, f, side=side)
        if side != "super":
            assert got[0] == "SingularEvaluationError"

    def test_pmc_fixture_matches(self):
        fix = fixture("pmc", 0.3)
        g = GridFunction.from_box([0.553, -0.447], [1.453, 0.453], 0.09)
        u = GridFunction(2, g.shape, g.origin, g.spacing, fix(g.points()).reshape(g.shape))
        rhs = fix.rhs(g.points()).reshape(g.shape)
        f = GridFunction(2, g.shape, g.origin, g.spacing, rhs)
        args, kwargs = (u, fix.operator, f), dict(side="both", tol=5e-2, rho=5.0)
        got = outcome(check_viscosity, *args, **kwargs)
        assert got == outcome(reference_check_viscosity, *args, **kwargs)

    def test_lone_candidate_keeps_its_rounding(self):
        # One slope per axis and an empty slope box leave the centre node one
        # candidate in its forward-curvature slot. At the (1, 1) neighbour its
        # gap lies one rounding from the slack, where BLAS rounds p.z for a
        # single row apart from a row in a stack: rounded as a single row, as
        # the per-node checker did, it touches and becomes the witness.
        v = np.array([
            [0.0, 0.0, 0.028000000000000004, 0.0, 0.0],
            [0.0, -0.027999999999249996, 0.007000000001500001, 0.04000000000074999, 0.0],
            [-0.074, -0.037, 0.0, 0.037, 0.074],
            [0.0, -0.03400000000075, 0.007000000000000001, 0.04733333333525, 0.0],
            [0.0, 0.0, 0.028000000000000004, 0.0, 0.0],
        ])
        u = GridFunction(2, v.shape, (-0.2, -0.2), 0.1, v)
        f = GridFunction(2, v.shape, (-0.2, -0.2), 0.1, np.full(v.shape, 100.0))
        args, kwargs = (u, OperatorSpec.linear(np.eye(2)), f), dict(side="sub", slopes_per_axis=0)
        got = outcome(check_viscosity, *args, **kwargs)
        assert got == outcome(reference_check_viscosity, *args, **kwargs)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_block_size_does_not_change_the_report(self, block, monkeypatch):
        u, op, f = bench_pucci_grid()
        uq, fq = quotient_grid()
        us, fs = singular_pair_grid()
        f_high = GridFunction(2, u.shape, u.origin, u.spacing, f.values + 1.0)
        cases = [
            (u, op, f, dict(side="both")),
            (u, op, f_high, dict(side="sub")),
            (u, op, f, dict(side="both", rho=1.0)),
            (uq, OperatorSpec.quotient(2, 1), fq, dict(side="super")),
            (uq, OperatorSpec.quotient(2, 1), fq, dict(side="both")),
            (us, OperatorSpec.quotient(2, 1), fs, dict(side="super")),
            (us, OperatorSpec.quotient(2, 1), fs, dict(side="both")),
        ]
        expected = [outcome(reference_check_viscosity, *c[:3], **c[3]) for c in cases]
        monkeypatch.setattr(regularity, "_BLOCK", block or u.shape[0] * u.shape[1])
        assert [outcome(check_viscosity, *c[:3], **c[3]) for c in cases] == expected

    def test_block_memory_on_the_bench_input(self):
        u, op, f = bench_pucci_grid()
        check_viscosity(u, op, f)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check_viscosity(u, op, f, side="both")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


# ---------------------------------------------------------------------------
# the block checker's run with one pass per curvature slot, kept as the
# reference for the two passes per side (slot 0, then slots 1 .. as (node,
# slot) pairs)


class SlotBySlotBlock(regularity._NodeBlock):
    """The block checker that ran each curvature slot in a pass of its own."""

    def run(self, op, below, tol):
        """run() with one array pass per curvature slot."""
        seen, done = np.zeros(len(self.u0), int), np.zeros(len(self.u0), bool)
        witness, raised = {}, {}
        for k in range(self.Q.shape[1]):
            act = np.flatnonzero(self.qok[:, k] & ~done)
            if not len(act):
                continue
            rows, p = self.touching(act, k, below)
            nodes, val, i = act[rows], np.full(len(rows), np.nan), 0
            M, s, x = self.Q[nodes, k], self.u0[nodes], self.x0[nodes]
            while i < len(nodes):
                try:
                    val[i:] = evaluate_many(op, M[i:], p[i:], s[i:], x[i:])
                    break
                except SingularEvaluationError as exc:
                    # the node's candidates before the singular one decide it
                    j = i + exc.index
                    val[i:j] = evaluate_many(op, M[i:j], p[i:j], s[i:j], x[i:j])
                    exc.index = int(seen[nodes[j]] + j - np.searchsorted(nodes, nodes[j]))
                    raised[int(nodes[j])] = exc
                    i = np.searchsorted(nodes, nodes[j], "right")
            fx = self.fx[nodes]
            bad = np.flatnonzero(val > fx + tol if below else val < fx - tol)
            for i in bad[np.unique(nodes[bad], return_index=True)[1]]:
                n = int(nodes[i])
                raised.pop(n, None)
                witness[n] = {
                    "node": self.nodes[n].tolist(), "x": list(map(float, self.x0[n])),
                    "side": "super" if below else "sub", "slope": list(map(float, p[i])),
                    "hessian": M[i].tolist(), "operator_value": float(val[i]), "f": float(fx[i]),
                }
            done[list(witness) + list(raised)] = True
            seen += np.bincount(nodes, minlength=len(seen))
        verdict = ["fail" if n in witness else "pass" if count else "vacuous"
                   for n, count in enumerate(seen)]
        return verdict, witness, raised


def block_runs(block_class, u, op, f, rho, slopes=32):
    """Per side, the verdicts, the witnesses and {node: index} of the nodes
    that raise, of one block holding every interior node."""
    interior = np.argwhere(np.ones([n - 2 for n in u.shape], bool)) + 1
    pts = u.points().reshape(u.shape + (u.dim,))
    block = block_class(u, f, pts, interior, slopes, rho)
    runs = {}
    for below in (True, False):
        verdict, witness, raised = block.run(op, below, 1e-6)
        runs[below] = verdict, json.dumps(witness, sort_keys=True), {
            n: exc.index for n, exc in raised.items()}
    return runs


def later_slot_singular_grid():
    """A 5 x 5 grid on which quotient:2:1, checked from below, meets its
    first singular candidate at the centre node's candidate 1303: after its
    937 slot-0 candidates, in a later curvature slot."""
    v = [[0, 1, -1, 1, 1], [1, -1, -1, 1, 1], [0, 0, -1, -1, -1], [-2, -1, 0, 1, 1],
         [-2, -1, -1, 2, 2]]
    u = GridFunction(2, (5, 5), (0.0, 0.0), 0.5, np.array(v, float))
    return u, GridFunction(2, u.shape, u.origin, u.spacing, np.zeros(u.shape))


@st.composite
def slot_cases(draw):
    """5 x 5 to 9 x 9 grids of integers (ties and vanishing quotient
    denominators), kinked quadratics or floats, with a cone or Pucci
    operator and an optional bounded test class."""
    shape = (draw(st.integers(5, 9)), draw(st.integers(5, 9)))
    h = draw(st.sampled_from((0.25, 0.1, 0.5)))
    kind = draw(st.sampled_from(("integers", "integers", "kinked", "floats")))
    size = shape[0] * shape[1]
    if kind == "integers":
        vals = np.array(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)), float)
    elif kind == "kinked":
        a, b, k = (draw(st.floats(-2, 2)) for _ in range(3))
        grid = np.indices(shape).reshape(2, -1).T * h
        vals = a * grid[:, 0] ** 2 + b * grid[:, 1] + k * np.abs(grid[:, 0] - grid[:, 1] - h)
    else:
        vals = np.array(draw(st.lists(st.floats(-10, 10), min_size=size, max_size=size)))
    u = GridFunction(2, shape, (0.0, 0.0), h, vals.reshape(shape))
    f0 = draw(st.one_of(st.just(0.0), st.floats(-3, 3)))
    f = GridFunction(2, shape, (0.0, 0.0), h, np.full(shape, f0))
    op = draw(st.sampled_from((OperatorSpec.pucci_plus(0.5, 2.0), OperatorSpec.pucci_minus(0.5, 2.0),
                               OperatorSpec.monge_ampere(), OperatorSpec.quotient(2, 1))))
    return u, op, f, draw(st.one_of(st.none(), st.floats(0.05, 60)))


class TestTwoPassRun:
    @settings(max_examples=30, deadline=None)
    @given(slot_cases())
    def test_matches_the_slot_by_slot_reference(self, case):
        u, op, f, rho = case  # 8 swept slopes per axis keep the blocks small
        assert block_runs(regularity._NodeBlock, u, op, f, rho, 8) == block_runs(
            SlotBySlotBlock, u, op, f, rho, 8)

    def test_singular_candidate_in_a_later_slot(self):
        u, f = later_slot_singular_grid()
        op = OperatorSpec.quotient(2, 1)
        runs = block_runs(regularity._NodeBlock, u, op, f, None)
        assert runs == block_runs(SlotBySlotBlock, u, op, f, None)
        assert runs[True][2] == {4: 1303}
        pts = u.points().reshape(u.shape + (2,))
        block = regularity._NodeBlock(u, f, pts, np.array([[2, 2]]), 32, None)
        assert len(block.touching(np.array([0]), np.array([0]), True)[0]) == 937
        for side in ("super", "both"):
            got = outcome(check_viscosity, u, op, f, side=side)
            assert got[0] == "SingularEvaluationError" and got[2] == 1303
