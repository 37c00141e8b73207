import math

import numpy as np
import pytest
from scipy.optimize import linprog

from nelliptic.errors import (
    ConstraintInfeasibleError,
    InvalidInputError,
    ParameterError,
    RankError,
    SingularityError,
)
from nelliptic.fixtures import fixture
from nelliptic.grid import GridFunction
from nelliptic.operators import OperatorSpec
from nelliptic.polyfit import (
    Polynomial,
    ball_samples,
    eval_poly,
    minimax_fit,
    multi_indices,
    poly_norm,
    taylor_of,
)


def dense_lp_oracle(points, values, degree):
    """Oracle: the same Chebyshev LP solved by scipy's interior-point-free
    HiGHS solver on a dense sample set."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    sigmas = multi_indices(pts.shape[1], degree)
    cols = []
    for s in sigmas:
        col = np.ones(len(pts))
        for d, e in enumerate(s):
            col = col * pts[:, d] ** e
        fac = 1.0
        for e in s:
            fac *= math.factorial(e)
        cols.append(col / fac)
    Phi = np.stack(cols, axis=-1)
    d = Phi.shape[1]
    # min t  s.t.  +(u - Phi a) <= t,  -(u - Phi a) <= t
    c = np.zeros(d + 1)
    c[-1] = 1.0
    A_ub = np.block([[-Phi, -np.ones((len(pts), 1))], [Phi, -np.ones((len(pts), 1))]])
    b_ub = np.concatenate([-values, values])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (d + 1))
    assert res.success
    return res.x[-1]


class TestPolynomial:
    def test_eval_factorial_convention(self):
        P = Polynomial(2, 2, {(2, 0): 2.0})  # a/sigma! = 1 -> x1^2
        assert eval_poly(P, (3.0, 0.0)) == pytest.approx(9.0)

    def test_zero_everywhere(self):
        P = Polynomial.zero(2, 3)
        rng = np.random.default_rng(0)
        assert all(P(rng.normal(size=2)) == 0.0 for _ in range(5))

    def test_matches_monomial_sum_oracle(self):
        rng = np.random.default_rng(4)
        for dim in (1, 2, 3):
            sigmas = multi_indices(dim, 3)
            coeffs = {s: float(rng.normal()) for s in sigmas}
            P = Polynomial(dim, 3, coeffs)
            for _ in range(10):
                x = rng.normal(size=dim)
                naive = sum(
                    a / np.prod([math.factorial(e) for e in s]) * np.prod(x**np.array(s))
                    for s, a in coeffs.items()
                )
                assert P(x) == pytest.approx(naive, abs=1e-13 * max(1, abs(naive)))

    def test_norms(self):
        P = Polynomial(1, 1, {(0,): 1.0, (1,): 1.0})
        assert poly_norm(P, 2.0) == pytest.approx(3.0)
        assert poly_norm(P, 1.0) == pytest.approx(P.norm())

    def test_norm_scaling_identity(self):
        # ||P(c.)||_1 = ||P||_c under the coefficient rescaling a -> a c^{|s|}
        rng = np.random.default_rng(8)
        sigmas = multi_indices(2, 3)
        coeffs = {s: float(rng.normal()) for s in sigmas}
        P = Polynomial(2, 3, coeffs)
        c = 1.7
        scaled = Polynomial(2, 3, {s: a * c ** sum(s) for s, a in coeffs.items()})
        assert scaled.norm(1.0) == pytest.approx(P.norm(c), rel=1e-13)

    def test_derivative_coefficient_shift(self):
        rng = np.random.default_rng(10)
        coeffs = {s: float(rng.normal()) for s in multi_indices(2, 3)}
        P = Polynomial(2, 3, coeffs)
        D = P.derivative((1, 1))
        for mu, a in D.coeffs.items():
            assert a == coeffs[(mu[0] + 1, mu[1] + 1)]
        # and the analytic check at a point
        h = 1e-5
        x = np.array([0.3, -0.4])
        fd = (
            P(x + [h, h]) - P(x + [h, -h]) - P(x + [-h, h]) + P(x + [-h, -h])
        ) / (4 * h * h)
        assert D(x) == pytest.approx(fd, abs=1e-5)

    def test_json_round_trip(self):
        P = Polynomial(2, 2, {(1, 1): 0.5, (0, 0): -2.0})
        assert Polynomial.from_dict(P.to_dict()).coeffs == P.coeffs


class TestMinimaxFit:
    def test_abs_degree_one(self):
        pts = np.linspace(-1, 1, 41)[:, None]
        fit = minimax_fit(pts, np.abs(pts[:, 0]), [0.0], 1.0, 1)
        assert fit.error == pytest.approx(0.5, abs=1e-12)
        assert fit.P.coeffs.get((0,), 0.0) == pytest.approx(0.5, abs=1e-12)
        assert abs(fit.P.coeffs.get((1,), 0.0)) < 1e-12

    def test_exact_polynomial_recovery(self):
        rng = np.random.default_rng(1)
        pts, _ = ball_samples(lambda x: np.zeros(len(x)), [0, 0], 0.7, m=6)
        P = Polynomial(2, 2, {s: float(rng.normal()) for s in multi_indices(2, 2)})
        vals = np.array([P(p) for p in pts])
        fit = minimax_fit(pts, vals, [0, 0], 0.7, 2)
        assert fit.error <= 1e-10
        assert fit.P.minus(P).norm() < 1e-9

    def test_cubic_degree_two_vs_dense_oracle(self):
        pts = np.linspace(-1, 1, 201)[:, None]
        vals = pts[:, 0] ** 3
        fit = minimax_fit(pts, vals, [0.0], 1.0, 2)
        assert fit.error == pytest.approx(0.25, abs=1e-4)
        assert fit.P.coeffs.get((1,), 0.0) == pytest.approx(0.75, abs=1e-4)
        oracle = dense_lp_oracle(pts, vals, 2)
        assert fit.error == pytest.approx(oracle, abs=1e-9)

    def test_equioscillation(self):
        for degree, fn in ((1, np.abs), (2, lambda x: x**3)):
            pts = np.linspace(-1, 1, 129)[:, None]
            vals = fn(pts[:, 0])
            fit = minimax_fit(pts, vals, [0.0], 1.0, degree)
            active = fit.active_points
            assert len(active) >= degree + 2
            signs = np.sign(fit.residuals[active])
            assert np.all(np.abs(np.diff(signs)) == 2), "residual signs must alternate"

    def test_translation_equivariance(self):
        rng = np.random.default_rng(6)
        pts, _ = ball_samples(lambda x: np.zeros(len(x)), [0, 0], 1.0, m=5)
        u = np.array([math.sin(3 * p[0]) + p[1] ** 3 for p in pts])
        Q = Polynomial(2, 2, {s: float(rng.normal()) for s in multi_indices(2, 2)})
        qv = np.array([Q(p) for p in pts])
        f1 = minimax_fit(pts, u, [0, 0], 1.0, 2)
        f2 = minimax_fit(pts, u + qv, [0, 0], 1.0, 2)
        assert f2.error == pytest.approx(f1.error, abs=1e-11)
        assert f2.P.minus(f1.P).minus(Q).norm() < 1e-8

    def test_error_monotone_in_degree_and_radius(self):
        fn = lambda x: np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
        pts, vals = ball_samples(fn, [0, 0], 0.8, m=8)
        errs = [minimax_fit(pts, vals, [0, 0], 0.8, k).error for k in (0, 1, 2, 3)]
        assert all(b <= a + 1e-13 for a, b in zip(errs, errs[1:]))
        # nested samples: shrink by keeping the inner points
        inner = np.linalg.norm(pts, axis=1) <= 0.4
        e_small = minimax_fit(pts[inner], vals[inner], [0, 0], 0.4, 2).error
        e_big = minimax_fit(pts, vals, [0, 0], 0.8, 2).error
        assert e_small <= e_big + 1e-13

    def test_constrained_laplacian(self):
        # base Laplacian, P with tr D^2 P = 2, f0 = 4 -> t* = (f0 - 2)/n = 1
        pts, _ = ball_samples(lambda x: np.zeros(len(x)), [0, 0], 1.0, m=6)
        P = Polynomial.half_square_norm(2)
        vals = np.array([P(p) for p in pts])
        fit = minimax_fit(
            pts, vals, [0, 0], 1.0, 2, constraint=(OperatorSpec.linear(np.eye(2)), 4.0)
        )
        assert fit.constrained
        assert fit.t_correction == pytest.approx(1.0, abs=1e-10)

    def test_constrained_monge_ampere(self):
        # P = |x|^2/2, det((1+t)I) = 4 -> t* = 1
        pts, _ = ball_samples(lambda x: np.zeros(len(x)), [0, 0], 1.0, m=6)
        P = Polynomial.half_square_norm(2)
        vals = np.array([P(p) for p in pts])
        fit = minimax_fit(
            pts, vals, [0, 0], 1.0, 2, constraint=(OperatorSpec.monge_ampere(), 4.0)
        )
        assert fit.t_correction == pytest.approx(1.0, abs=1e-10)

    def test_constraint_satisfied_and_error_bound(self):
        from nelliptic.operators import Jet, SymMatrix, evaluate

        fn = lambda x: np.cosh(x[..., 0]) + 0.5 * x[..., 1] ** 2 - 1.0
        pts, vals = ball_samples(fn, [0, 0], 0.6, m=8)
        op = OperatorSpec.linear(np.eye(2))
        f0 = 2.5
        unc = minimax_fit(pts, vals, [0, 0], 0.6, 2)
        fit = minimax_fit(pts, vals, [0, 0], 0.6, 2, constraint=(op, f0))
        H = fit.P.hessian(np.zeros(2))
        val = evaluate(
            op, Jet(SymMatrix.from_full(H), tuple(fit.P.gradient(np.zeros(2))),
                    fit.P(np.zeros(2)), (0.0, 0.0))
        )
        assert val == pytest.approx(f0, abs=1e-10)
        bound = unc.error + 2 * abs(fit.t_correction) * 0.6**2 / 2
        assert fit.error <= bound + 1e-12

    def test_constraint_infeasible(self):
        pts, _ = ball_samples(lambda x: np.zeros(len(x)), [0, 0], 1.0, m=5)
        vals = np.zeros(len(pts))
        op = OperatorSpec.lagrangian()  # range of the phase is (-pi, pi) in 2D
        with pytest.raises(ConstraintInfeasibleError):
            minimax_fit(pts, vals, [0, 0], 1.0, 2, constraint=(op, 10.0), t_bound=8.0)

    def test_rank_errors(self):
        with pytest.raises(RankError):
            minimax_fit(np.zeros((2, 2)), np.zeros(2), [0, 0], 1.0, 2)
        # collinear points cannot determine a 2D affine fit
        pts = np.stack([np.linspace(-1, 1, 20), np.zeros(20)], axis=-1)
        with pytest.raises(RankError):
            minimax_fit(pts, pts[:, 0], [0, 0], 1.0, 1)

    def test_deterministic(self):
        pts, vals = ball_samples(lambda x: np.sin(x[..., 0] + 2 * x[..., 1]), [0, 0], 0.5, m=6)
        a = minimax_fit(pts, vals, [0, 0], 0.5, 2)
        b = minimax_fit(pts, vals, [0, 0], 0.5, 2)
        assert a.P.coeffs == b.P.coeffs and a.error == b.error


class TestTaylor:
    def test_quadratic_exact(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        q = fixture("quadratic", A=A, b=[0.1, -0.2], c=0.3)
        P = taylor_of(q, [0.4, -0.7], 2)
        rng = np.random.default_rng(12)
        for _ in range(10):
            y = rng.normal(size=2) * 0.3
            assert P(y) == pytest.approx(q(np.array([0.4, -0.7]) + y), abs=1e-12)

    def test_slag_hessian(self):
        theta = 0.4
        fx = fixture("slag", theta)
        P = taylor_of(fx, [0.5, 0.0], 2)
        H = P.hessian(np.zeros(2))
        assert H[0, 0] == pytest.approx(theta * 0.5 ** (theta - 1))
        assert H[1, 1] == pytest.approx(1.0)

    def test_matches_finite_differences(self):
        fx = fixture("slag", 0.6)
        x0 = np.array([0.3, -0.2])
        P = taylor_of(fx, x0, 2)
        h = 1e-4
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (fx(x0 + e) - fx(x0 - e)) / (2 * h)
            assert P.gradient(np.zeros(2))[d] == pytest.approx(fd, abs=1e-6)
            fd2 = (fx(x0 + e) - 2 * fx(x0) + fx(x0 - e)) / h**2
            assert P.hessian(np.zeros(2))[d, d] == pytest.approx(fd2, abs=1e-5)

    def test_singularity_error(self):
        fx = fixture("slag", 0.4)
        with pytest.raises(SingularityError):
            taylor_of(fx, [0.0, 0.0], 2)

    def test_degree_cap_for_generic_fixture(self):
        with pytest.raises(ParameterError):
            taylor_of(fixture("slag", 0.4), [0.5, 0.0], 3)


class TestBallSamples:
    """Fixtures and grid functions are sampled on one point stack; the values
    and errors are those of the points taken one at a time."""

    @pytest.mark.parametrize("spec", [("quadratic",), ("slag", 0.4), ("hq", 0.5), ("pmc", 0.3),
                                      ("power", 1.5), ("harmonic", 3)])
    def test_fixture_stack_equals_points(self, spec, monkeypatch):
        fx = fixture(*spec)
        x0, r = np.full(fx.dim, 0.05), 0.4
        pts, vals = ball_samples(fx, x0, r, m=5)
        assert np.array_equal(vals, np.array([fx(p) for p in pts], dtype=float))
        calls = []
        monkeypatch.setattr(type(fx), "__call__", lambda self, x: calls.append(x) or np.zeros(len(x)))
        ball_samples(fx, x0, r, m=5)
        assert len(calls) == 1 and calls[0].shape == pts.shape

    def test_grid_stack_equals_points_and_errors(self):
        g = GridFunction.from_box([-1, -1], [1, 1], 0.125, fn=lambda x: np.sin(x[..., 0]) + x[..., 1] ** 3)
        pts, vals = ball_samples(g, [0.1, -0.2], 0.5, m=6)
        assert np.array_equal(vals, np.array([g(p) for p in pts], dtype=float))
        with pytest.raises(InvalidInputError) as stacked:
            ball_samples(g, [0.9, 0.0], 0.5, m=3)
        with pytest.raises(InvalidInputError) as single:
            g(np.array([1.4, 0.0]))
        assert str(stacked.value) == str(single.value)

    def test_callable_called_once_on_the_stack(self):
        seen = []

        def fn(x):
            seen.append(np.array(x))
            return x[..., 0] - 2 * x[..., 1]

        pts, vals = ball_samples(fn, [0.0, 0.0], 1.0, m=3)
        assert len(seen) == 1 and seen[0].shape == pts.shape
        assert np.array_equal(vals, pts[:, 0] - 2 * pts[:, 1])

        def broken(x):
            raise SingularityError("no value at %s" % x[0].tolist())

        with pytest.raises(SingularityError, match=r"no value at \[-1.0, 0.0\]"):
            ball_samples(broken, [0.0, 0.0], 1.0, m=1)
