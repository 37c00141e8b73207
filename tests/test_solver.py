import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from nelliptic.errors import (
    AdmissibilityError,
    AnisotropyError,
    IterationLimitError,
    ParameterError,
    SmallDataError,
)
from nelliptic import solver
from nelliptic.grid import GridFunction
from nelliptic.operators import Jet, OperatorSpec, SymMatrix, evaluate
from nelliptic.solver import (
    SolveConfig,
    _assemble_linear,
    _ma_scheme,
    _pucci_scheme,
    _solve_sparse,
    _WideStencilProblem,
    boundary_values,
    residual,
    solve_linear,
    solve_mean_curvature,
    solve_monge_ampere,
    solve_pucci,
    stencil_frames,
)

H = 1 / 16


def grid_const(c, h=H, lo=-1.0, hi=1.0):
    g = GridFunction.from_box([lo, lo], [hi, hi], h)
    g.values[:] = c
    return g


class TestLinear:
    def test_harmonic_quadratic_reproduced(self):
        f = grid_const(0.0)
        g = lambda x: x[..., 0] ** 2 - x[..., 1] ** 2
        u, _ = solve_linear(np.eye(2), None, f, g)
        exact = g(u.points()).reshape(u.shape)
        assert np.max(np.abs(u.values - exact)) < 1e-10

    def test_poisson_sign(self):
        u, _ = solve_linear(np.eye(2), None, grid_const(1.0), 0.0)
        imin = np.unravel_index(np.argmin(u.values), u.shape)
        center = (u.shape[0] // 2, u.shape[1] // 2)
        assert imin == center and u.values[center] < 0

    def test_affine_exact(self):
        g = lambda x: 3 * x[..., 0] - x[..., 1] + 0.5
        u, _ = solve_linear(np.diag([1.0, 2.0]), None, grid_const(0.0), g)
        exact = g(u.points()).reshape(u.shape)
        assert np.max(np.abs(u.values - exact)) < 1e-10

    def test_affine_exact_with_drift(self):
        # upwind first differences are exact on affine data
        b = [0.4, -0.3]
        g = lambda x: 3 * x[..., 0] - x[..., 1] + 0.5
        u, _ = solve_linear(np.diag([1.0, 2.0]), b, grid_const(b[0] * 3 + b[1] * -1), g)
        exact = g(u.points()).reshape(u.shape)
        assert np.max(np.abs(u.values - exact)) < 1e-10

    def test_mixed_term_quadratic(self):
        # A with off-diagonal part still within the monotone regime
        A = np.array([[1.0, 0.4], [0.4, 1.0]])
        g = lambda x: x[..., 0] * x[..., 1]
        fval = 2 * A[0, 1]  # tr(A D^2 u) for u = x1 x2
        u, _ = solve_linear(A, None, grid_const(fval), g)
        exact = g(u.points()).reshape(u.shape)
        assert np.max(np.abs(u.values - exact)) < 1e-9

    def test_comparison_principle(self):
        rng = np.random.default_rng(33)
        h = 1 / 8
        f1 = GridFunction.from_box([-1, -1], [1, 1], h)
        f1.values[:] = rng.uniform(0.2, 0.6, size=f1.shape)
        f2 = GridFunction(2, f1.shape, f1.origin, h, f1.values - rng.uniform(0, 0.2, size=f1.shape))
        u1, _ = solve_linear(np.eye(2), None, f1, lambda x: 0.1 * x[..., 0])
        u2, _ = solve_linear(np.eye(2), None, f2, lambda x: 0.1 * x[..., 0] + 0.3)
        assert np.all(u1.values <= u2.values + 1e-8)

    def test_anisotropy_rejected(self):
        A = np.array([[1.0, 1.2], [1.2, 2.0]])  # pd but a11 < |a12|
        with pytest.raises(AnisotropyError):
            solve_linear(A, None, grid_const(0.0), 0.0)

    def test_not_positive_definite(self):
        with pytest.raises(ParameterError):
            solve_linear(np.diag([1.0, -1.0]), None, grid_const(0.0), 0.0)


class TestPucci:
    def test_degenerate_parameters_match_linear(self):
        f = grid_const(1.0)
        lin, _ = solve_linear(np.eye(2), None, f, 0.0)
        cfg = SolveConfig(stencil_directions=2, tol=1e-11)
        puc, _ = solve_pucci(1.0, 1.0, "minus", f, 0.0, cfg)
        assert np.max(np.abs(puc.values - lin.values)) < 1e-9

    def test_maximum_principle(self):
        g = lambda x: 0.2 + 0.1 * x[..., 0]
        u, _ = solve_pucci(0.5, 2.0, "minus", grid_const(0.0), g)
        assert u.values.min() >= -1e-6

    def test_plus_dominates_minus(self):
        g = lambda x: 0.1 * x[..., 0] ** 2
        f = grid_const(0.5)
        up, _ = solve_pucci(0.5, 2.0, "plus", f, g)
        um, _ = solve_pucci(0.5, 2.0, "minus", f, g)
        assert np.all(up.values >= um.values - 1e-8)

    def test_comparison_principle(self):
        # g1 <= g2 and f1 >= f2 imply u1 <= u2 (coarse grid, random data)
        rng = np.random.default_rng(21)
        h = 1 / 8
        base_f = GridFunction.from_box([-1, -1], [1, 1], h)
        base_f.values[:] = rng.uniform(0.0, 0.5, size=base_f.shape)
        f2 = GridFunction(2, base_f.shape, base_f.origin, h, base_f.values - rng.uniform(0, 0.3, size=base_f.shape))
        g1 = lambda x: 0.1 * x[..., 0]
        g2 = lambda x: 0.1 * x[..., 0] + 0.2
        u1, _ = solve_pucci(0.5, 1.5, "minus", base_f, g1)
        u2, _ = solve_pucci(0.5, 1.5, "minus", f2, g2)
        assert np.all(u1.values <= u2.values + 1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            solve_pucci(2.0, 1.0, "minus", grid_const(0.0), 0.0)
        with pytest.raises(ParameterError):
            SolveConfig(stencil_directions=3)

    def test_frames_are_orthogonal_primitive(self):
        for m in (2, 4, 8, 16):
            for v, w in stencil_frames(m):
                assert int(v @ w) == 0
                assert math.gcd(abs(int(v[0])), abs(int(v[1]))) == 1


class TestMongeAmpere:
    def test_isotropic_quadratic_exact(self):
        u, _ = solve_monge_ampere(grid_const(1.0), lambda x: 0.5 * np.vecdot(x, x))
        exact = np.array([0.5 * (p @ p) for p in u.points()]).reshape(u.shape)
        assert np.max(np.abs(u.values - exact)) < 1e-8

    def test_scaled_quadratic_exact(self):
        u, _ = solve_monge_ampere(grid_const(4.0), lambda x: np.vecdot(x, x))
        exact = np.array([p @ p for p in u.points()]).reshape(u.shape)
        assert np.max(np.abs(u.values - exact)) < 1e-8

    def test_aligned_anisotropic_quadratic_exact(self):
        g = lambda x: 0.5 * (x[..., 0] ** 2 + 4 * x[..., 1] ** 2)
        u, _ = solve_monge_ampere(grid_const(4.0), g)
        exact = g(u.points()).reshape(u.shape)
        assert np.max(np.abs(u.values - exact)) < 1e-8

    def test_refinement_monotone(self):
        uex = lambda x: np.exp(np.vecdot(x, x) / 2)
        ffn = lambda x: (1 + np.vecdot(x, x)) * np.exp(np.vecdot(x, x))
        errs = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            f = GridFunction.from_box([-1, -1], [1, 1], h, fn=ffn)
            u, _ = solve_monge_ampere(f, uex, SolveConfig(tol=1e-10, max_iters=120))
            exact = uex(u.points()).reshape(u.shape)
            errs.append(np.max(np.abs(u.values - exact)))
        assert errs[0] > errs[1] > errs[2]

    def test_discrete_convexity_along_stencil(self):
        u, _ = solve_monge_ampere(grid_const(1.0), lambda x: 0.5 * np.vecdot(x, x) + 0.05 * x[..., 0])
        v = u.values
        assert np.all(v[:-2, :] + v[2:, :] - 2 * v[1:-1, :] >= -1e-9)
        assert np.all(v[:, :-2] + v[:, 2:] - 2 * v[:, 1:-1] >= -1e-9)

    def test_comparison_principle(self):
        # g1 <= g2 and f1 >= f2 imply u1 <= u2 for the determinant scheme
        rng = np.random.default_rng(44)
        h = 1 / 8
        f1 = GridFunction.from_box([-1, -1], [1, 1], h)
        f1.values[:] = rng.uniform(1.0, 2.0, size=f1.shape)
        f2 = GridFunction(2, f1.shape, f1.origin, h, f1.values - rng.uniform(0, 0.5, size=f1.shape))
        u1, _ = solve_monge_ampere(f1, lambda x: 0.5 * np.vecdot(x, x))
        u2, _ = solve_monge_ampere(f2, lambda x: 0.5 * np.vecdot(x, x) + 0.1)
        assert np.all(u1.values <= u2.values + 1e-8)

    def test_inadmissible_f_rejected(self):
        with pytest.raises(AdmissibilityError):
            solve_monge_ampere(grid_const(-1.0), 0.0)

    def test_section_product_stable_across_grid_spacings(self):
        # solver + geometry cross-check: the normalization product of the
        # solution's sections stays in a narrow band as h refines
        from nelliptic.geometry import john_normalize, section

        g = lambda x: 0.5 * (x[..., 0] ** 2 + 4 * x[..., 1] ** 2)
        prods = []
        for h in (1 / 16, 1 / 32):
            u, _ = solve_monge_ampere(grid_const(1.0, h=h), g, SolveConfig(tol=1e-10))
            imin = np.unravel_index(np.argmin(u.values), u.shape)
            x0 = u.points().reshape(u.shape + (2,))[imin]
            for hs in (0.01, 0.02):
                verts = section(u, x0, hs)
                prods.append(john_normalize(verts, hs, 2).product)
        assert max(prods) / min(prods) <= 1.6


class TestFallback:
    # f is the scheme's value on the Hessian diag(a, b) of the boundary data
    aligned_quadratics = pytest.mark.parametrize(
        "solve, a, b, fval",
        [
            (lambda f, g: solve_pucci(0.5, 2.0, "minus", f, g), 1.3, -0.4, 0.5 * 1.3 - 2.0 * 0.4),
            (lambda f, g: solve_pucci(0.5, 2.0, "plus", f, g), 1.1, -0.6, 2.0 * 1.1 - 0.5 * 0.6),
            (solve_monge_ampere, 1.0, 4.0, 4.0),
        ],
        ids=["pucci-minus", "pucci-plus", "ma"],
    )

    @aligned_quadratics
    def test_sweeps_then_newton_reach_aligned_quadratic(self, monkeypatch, solve, a, b, fval):
        # the first two Newton linear solves after the initial iterate fail, so
        # two rounds of fallback sweeps run before Newton finishes the solve
        real, calls = solver._solve_sparse, []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) in (2, 3):
                raise RuntimeError("forced factorization failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_sparse", flaky)
        g = lambda x: 0.5 * (a * x[..., 0] ** 2 + b * x[..., 1] ** 2) + 0.1 * x[..., 0]
        u, info = solve(grid_const(fval, h=1 / 8), g)
        exact = g(u.points()).reshape(u.shape)
        assert info.fallbacks == 2
        assert np.max(np.abs(u.values - exact)) < 1e-8

    @pytest.mark.parametrize("sign, a, b, fval", [("minus", 1.3, -0.4, 0.5 * 1.3 - 2.0 * 0.4),
                                                  ("plus", 1.1, -0.6, 2.0 * 1.1 - 0.5 * 0.6)])
    def test_pucci_fallback_lowers_the_residual(self, monkeypatch, sign, a, b, fval):
        # every Newton factorization after the initial iterate fails, so the
        # one step allowed is a round of fallback sweeps from the Poisson start
        real, calls = solver._solve_sparse, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise RuntimeError("forced factorization failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_sparse", failing)
        g = lambda x: 0.5 * (a * x[..., 0] ** 2 + b * x[..., 1] ** 2) + 0.1 * x[..., 0]
        with pytest.raises(IterationLimitError) as err:
            solve_pucci(0.5, 2.0, sign, grid_const(fval), g, SolveConfig(max_iters=1))
        assert len(calls) == 2 and len(err.value.history) == 1
        assert err.value.residual < err.value.history[0]

    @aligned_quadratics
    def test_nan_steps_are_failed_steps_without_sweeps(self, monkeypatch, solve, a, b, fval):
        # a singular factor gives a NaN step, not an exception: each one counts
        # as a Newton failure, and two in a row start no round of sweeps
        real, calls = solver._solve_sparse, []

        def singular(*args, **kwargs):
            calls.append(1)
            out = real(*args, **kwargs)
            return np.full_like(out, np.nan) if len(calls) in (2, 3) else out

        monkeypatch.setattr(solver, "_solve_sparse", singular)
        g = lambda x: 0.5 * (a * x[..., 0] ** 2 + b * x[..., 1] ** 2) + 0.1 * x[..., 0]
        u, info = solve(grid_const(fval, h=1 / 8), g)
        exact = g(u.points()).reshape(u.shape)
        assert len(calls) > 3 and info.fallbacks == 0
        assert np.max(np.abs(u.values - exact)) < 1e-8


class TestMeanCurvature:
    def test_affine_exact(self):
        g = lambda x: 0.3 * x[..., 0] + 0.1 * x[..., 1] + 0.2
        u, _ = solve_mean_curvature(grid_const(0.0), g)
        exact = g(u.points()).reshape(u.shape)
        assert np.max(np.abs(u.values - exact)) < 1e-10

    def test_small_bump_converges(self):
        g = lambda x: 0.05 * np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
        u, _ = solve_mean_curvature(grid_const(0.0), g)
        # gradient stays small in the small-data regime
        du = np.gradient(u.values, u.spacing)
        assert max(np.max(np.abs(du[0])), np.max(np.abs(du[1]))) < 0.5

    def test_guard_violation(self):
        with pytest.raises(SmallDataError):
            solve_mean_curvature(grid_const(0.0), lambda x: 10 * np.sin(5 * x[..., 0]))
        with pytest.raises(SmallDataError):
            solve_mean_curvature(grid_const(5.0), 0.0)


class TestResidual:
    def test_exact_quadratic(self):
        op = OperatorSpec.linear(np.eye(2))
        u = GridFunction.from_box([-1, -1], [1, 1], H, fn=lambda x: np.vecdot(x, x))
        f = grid_const(4.0)
        r = residual(op, u, f)
        assert np.max(np.abs(r.values)) < 1e-9

    def test_linear_solver_output(self):
        # the 5-point scheme coincides with the central-difference jet, so the
        # operator residual matches the scheme residual
        f = GridFunction.from_box([-1, -1], [1, 1], H, fn=lambda x: np.sin(x[..., 0]))
        u, _ = solve_linear(np.eye(2), None, f, 0.0)
        r = residual(OperatorSpec.linear(np.eye(2)), u, f)
        assert np.max(np.abs(r.values)) < 1e-9

    @pytest.mark.parametrize("spec", ["mc", "pucci-:0.5:2", "slag", "linear:1,0.3,2:0.5,-1:0.25"])
    def test_matches_per_node_jets(self, spec):
        # reference: evaluate at each interior node's central-difference jet
        op = OperatorSpec.parse(spec)
        rng = np.random.default_rng(4)
        u = GridFunction(2, (6, 7), (-0.5, 0.25), 0.125, rng.normal(size=(6, 7)))
        f = GridFunction(2, u.shape, u.origin, u.spacing, rng.normal(size=u.shape))
        v, h = u.values, u.spacing
        pts = u.points().reshape(u.shape + (2,))
        ref = np.zeros(u.shape)
        for i in range(1, 5):
            for j in range(1, 6):
                uxx = (v[i + 1, j] - 2 * v[i, j] + v[i - 1, j]) / h**2
                uyy = (v[i, j + 1] - 2 * v[i, j] + v[i, j - 1]) / h**2
                uxy = (v[i + 1, j + 1] + v[i - 1, j - 1] - v[i + 1, j - 1] - v[i - 1, j + 1]) / (
                    4 * h**2
                )
                p = ((v[i + 1, j] - v[i - 1, j]) / (2 * h), (v[i, j + 1] - v[i, j - 1]) / (2 * h))
                jet = Jet(SymMatrix(2, (uxx, uxy, uyy)), p, float(v[i, j]), tuple(pts[i, j]))
                ref[i, j] = evaluate(op, jet) - f.values[i, j]
        assert np.array_equal(residual(op, u, f).values, ref)

    def test_perturbation_scales_linearly(self):
        op = OperatorSpec.linear(np.eye(2))
        u = GridFunction.from_box([-1, -1], [1, 1], H, fn=lambda x: np.vecdot(x, x))
        f = grid_const(4.0)
        bump = np.zeros(u.shape)
        c = (u.shape[0] // 2, u.shape[1] // 2)
        bump[c] = 1.0
        norms = []
        for eps in (1e-3, 2e-3):
            up = GridFunction(2, u.shape, u.origin, u.spacing, u.values + eps * bump)
            norms.append(np.max(np.abs(residual(op, up, f).values)))
        assert norms[1] / norms[0] == pytest.approx(2.0, rel=1e-6)


class TestBoundaryValues:
    @staticmethod
    def per_node(g, grid):
        # reference: g at each boundary node, one at a time, in row-major order
        out = np.zeros(grid.shape)
        pts = grid.points().reshape(grid.shape + (grid.dim,))
        for idx in np.argwhere(grid.boundary_mask()):
            out[tuple(idx)] = float(g(pts[tuple(idx)]))
        return out

    @pytest.mark.parametrize("dim", [1, 2])
    def test_callable_matches_per_node_loop(self, dim):
        # g is called once, on the stack of boundary nodes in row-major order
        grid = GridFunction.from_box([-1.0] * dim, [0.7] * dim, 0.1, dim=dim)
        seen = []

        def g(x):
            seen.append(np.array(x))
            return 3 * x[..., 0] - x[..., -1] * x[..., -1] / 7

        got = boundary_values(g, grid)
        calls = list(seen)
        seen.clear()
        ref = self.per_node(g, grid)
        assert np.array_equal(got, ref) and len(calls) == 1
        assert np.array_equal(calls[0], np.stack(seen))

    def test_scalar_array_and_grid_data(self):
        grid = grid_const(0.0, h=1 / 8)
        arr = np.random.default_rng(5).normal(size=grid.shape)
        bmask = grid.boundary_mask()
        ref = self.per_node(lambda x: np.full(x.shape[:-1], 0.3), grid)
        assert np.array_equal(boundary_values(0.3, grid)[bmask], ref[bmask])
        for g in (arr, GridFunction(2, grid.shape, grid.origin, grid.spacing, arr)):
            assert np.array_equal(boundary_values(g, grid), arr)


class TestSolveSparse:
    def test_singular_matrix_gives_the_nan_of_spsolve(self):
        A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        b = np.array([1.0, 2.0])
        with pytest.warns(spla.MatrixRankWarning):
            got = _solve_sparse(A, b)
        with pytest.warns(spla.MatrixRankWarning):
            ref = spla.spsolve(A, b)
        assert np.array_equal(got, ref, equal_nan=True) and np.all(np.isnan(got))

    def test_zero_diagonal_takes_an_off_diagonal_pivot(self):
        A = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(_solve_sparse(A, np.array([2.0, 3.0])), [3.0, 2.0])

    def test_scipy_is_imported_on_the_first_solve(self):
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import nelliptic.cli
            from nelliptic.grid import GridFunction
            from nelliptic.solver import solve_linear
            print("scipy.sparse" in sys.modules)
            f = GridFunction.from_box([0, 0], [1, 1], 0.25)
            solve_linear(np.eye(2), None, f, 0.0)
            print("scipy.sparse" in sys.modules)
        """)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True)
        assert out.stdout.split() == ["False", "True"]


# ---------------------------------------------------------------------------
# scheme properties on 9x9 to 17x17 grids

rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)


def agree(x, ref, rel=1e-10):
    return np.max(np.abs(x - ref)) <= rel * np.max(np.abs(ref))


def box(n):
    return GridFunction.from_box([-1.0, -1.0], [1.0, 1.0], 2.0 / (n - 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(9, 17), rngs)
def test_pivot_free_lu_agrees_with_spsolve_on_linear_systems(n, rng):
    # a monotone 9-point stencil, |a12| <= min(a11, a22), with equality
    # (explicit zero weights) at some nodes, and a drift
    a12 = rng.uniform(-1.0, 1.0, (n, n))
    slack = [np.where(rng.random((n, n)) < 0.2, 0.0, rng.uniform(0.05, 2.0, (n, n)))
             for _ in range(2)]
    a11, a22 = np.abs(a12) + slack[0], np.abs(a12) + slack[1]
    A, rhs = _assemble_linear(box(n), np.stack([a11, a12, a22], -1),
                              rng.uniform(-3.0, 3.0, (n, n, 2)), rng.normal(size=(n, n)),
                              rng.normal(size=(n, n)))
    assert agree(_solve_sparse(A, rhs), spla.spsolve(A, rhs))


@settings(max_examples=40, deadline=None)
@given(st.integers(9, 17), st.sampled_from(["pucci-minus", "pucci-plus", "ma"]), rngs)
def test_pivot_free_lu_agrees_with_spsolve_on_newton_jacobians(n, kind, rng):
    f = box(n)
    if kind == "ma":
        f.values[:] = rng.uniform(0.2, 2.0, f.shape)
        scheme = _ma_scheme(1.0 + float(np.max(f.values)))
    else:
        f.values[:] = rng.normal(size=f.shape)
        scheme = _pucci_scheme(0.5, 2.0, kind[6:])
    prob = _WideStencilProblem(f, 0.0, SolveConfig(), *scheme)
    _, D, active = prob.residual(rng.normal(size=f.shape))
    J = prob.jacobian(D, active)
    rhs = rng.normal(size=n * n)
    assert agree(_solve_sparse(J, rhs), spla.spsolve(J, rhs))


@settings(max_examples=30, deadline=None)
@given(st.integers(9, 17), st.sampled_from(["linear", "pucci-minus", "pucci-plus"]), rngs)
def test_discrete_comparison(n, kind, rng):
    # f1 >= f2 and g1 <= g2, strictly at about 70 % of the nodes, give u1 <= u2
    grid = box(n)
    f1, g1 = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, (n, n))
    f2 = f1 - rng.uniform(0.0, 0.5, (n, n)) * (rng.random((n, n)) < 0.7)
    g2 = g1 + rng.uniform(0.0, 0.5, (n, n)) * (rng.random((n, n)) < 0.7)
    if kind == "linear":
        a12 = rng.uniform(-1.0, 1.0)
        a11, a22 = abs(a12) + rng.uniform(0.05, 1.0, 2)
        A = np.array([[a11, a12], [a12, a22]])
        b = rng.uniform(-2.0, 2.0, 2)
        solve = lambda f, g: solve_linear(A, b, f, g)
    else:
        solve = lambda f, g: solve_pucci(0.5, 2.0, kind[6:], f, g)
    u1, _ = solve(GridFunction(2, grid.shape, grid.origin, grid.spacing, f1), g1)
    u2, _ = solve(GridFunction(2, grid.shape, grid.origin, grid.spacing, f2), g2)
    assert np.all(u1.values <= u2.values + 1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(9, 17), rngs)
def test_discrete_comparison_for_ma(n, rng):
    # f1 >= f2 > 0, and g1 <= g2 around convex boundary data, strictly at about
    # 70 % of the nodes, give u1 <= u2
    grid = box(n)
    f1 = rng.uniform(0.5, 2.0, (n, n))
    f2 = f1 - rng.uniform(0.0, 0.4, (n, n)) * (rng.random((n, n)) < 0.7)
    pts = grid.points().reshape(n, n, 2)
    B = rng.uniform(-1.0, 1.0, (2, 2))
    H = B @ B.T + 0.5 * np.eye(2)
    g1 = 0.5 * np.einsum("...i,ij,...j->...", pts, H, pts) + pts @ rng.uniform(-1.0, 1.0, 2)
    g2 = g1 + rng.uniform(0.0, 0.3, (n, n)) * (rng.random((n, n)) < 0.7)
    u1, _ = solve_monge_ampere(GridFunction(2, grid.shape, grid.origin, grid.spacing, f1), g1)
    u2, _ = solve_monge_ampere(GridFunction(2, grid.shape, grid.origin, grid.spacing, f2), g2)
    assert np.all(u1.values <= u2.values + 1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(9, 17), st.sampled_from(["linear", "pucci-minus", "pucci-plus", "ma"]),
       st.floats(-10.0, 10.0), rngs)
def test_constant_shift_of_the_boundary_data_shifts_the_solution(n, kind, c, rng):
    f = box(n)
    pts = f.points().reshape(f.shape + (2,))
    if kind == "ma":
        f.values[:] = rng.uniform(0.5, 2.0, f.shape)
        g = 0.5 * np.sum(pts**2, -1) + rng.uniform(-0.2, 0.2) * pts[..., 0]
    else:
        f.values[:] = rng.uniform(-1.0, 1.0, f.shape)
        g = rng.uniform(-1.0, 1.0, f.shape)
    if kind == "linear":
        solve = lambda g: solve_linear(np.diag([1.0, 0.5]), [0.3, -0.2], f, g)
    elif kind == "ma":
        solve = lambda g: solve_monge_ampere(f, g)
    else:
        solve = lambda g: solve_pucci(0.5, 2.0, kind[6:], f, g)
    u, _ = solve(g)
    v, _ = solve(g + c)
    assert np.max(np.abs(v.values - (u.values + c))) <= 1e-9 * (1 + abs(c))


@settings(max_examples=30, deadline=None)
@given(st.integers(9, 17), st.sampled_from(["pucci-minus", "pucci-plus", "ma"]), st.booleans(),
       rngs)
def test_exact_on_frame_aligned_quadratics(n, kind, diagonal_frame, rng):
    # the Hessian is diagonal in the axes or in the frame (1,1), (-1,1); both
    # frames fit at every interior node, so the scheme is exact there
    f = box(n)
    pts = f.points().reshape(n, n, 2)
    ev = rng.uniform(0.2, 3.0, 2) if kind == "ma" else rng.uniform(-3.0, 3.0, 2)
    H = np.diag(ev)
    if diagonal_frame:
        R = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
        H = R @ H @ R.T
    exact = (rng.uniform(-1.0, 1.0) + pts @ rng.uniform(-1.0, 1.0, 2)
             + 0.5 * np.einsum("...i,ij,...j->...", pts, H, pts))
    if kind == "ma":
        f.values[:] = ev[0] * ev[1]
        u, _ = solve_monge_ampere(f, exact)
    else:
        up, down = (0.5, 2.0) if kind == "pucci-minus" else (2.0, 0.5)
        f.values[:] = np.sum(np.where(ev > 0, up, down) * ev)
        u, _ = solve_pucci(0.5, 2.0, kind[6:], f, exact)
    assert np.max(np.abs(u.values - exact)) <= 1e-8
