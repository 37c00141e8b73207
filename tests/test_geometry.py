import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nelliptic import cli, geometry
from nelliptic.errors import (
    InvalidInputError,
    IterationLimitError,
    NonConvexityError,
    RankError,
    SectionEscapeError,
)
from nelliptic.fixtures import fixture
from nelliptic.geometry import (
    _optimal_design,
    _whitened,
    abp_check,
    directional_convexification,
    john_normalize,
    lower_convex_envelope,
    mvee,
    section,
)
from nelliptic.grid import GridFunction, write_grid


class TestEnvelope:
    def test_nonnegative_input_zero_envelope(self):
        g = GridFunction.from_box([-1, -1], [1, 1], 0.1, fn=lambda x: 1.0 + x[..., 0] ** 2)
        env = lower_convex_envelope(g)
        assert np.all(env.gamma.values == 0.0)
        assert np.all(env.contact_mask)

    def test_1d_parabola_contact_points(self):
        h = 1 / 256
        g = GridFunction.from_box([-1.0], [1.0], h, fn=lambda x: x[..., 0] ** 2 - 1)
        env = lower_convex_envelope(g)
        xs = env.gamma.points()[:, 0]
        inner = xs[env.contact_mask & (np.abs(xs) < 1.5)]
        target = 2 - math.sqrt(3)
        assert abs(np.max(np.abs(inner)) - target) <= 2 * h
        # the analytic outer tangent construction agrees: line from (2,0)
        # touching the parabola solves x0^2 - 4 x0 + 1 = 0
        assert target**2 - 4 * target + 1 == pytest.approx(0.0, abs=1e-12)

    def test_envelope_below_input_and_min(self):
        g = GridFunction.from_box([-1, -1], [1, 1], 1 / 16, fn=lambda x: x[..., 0] ** 2 + x[..., 1] - 0.7)
        env = lower_convex_envelope(g)
        pad = [(s - n) // 2 for s, n in zip(env.gamma.shape, g.shape)]
        w = np.zeros(env.gamma.shape)
        sl = tuple(slice(p, p + s) for p, s in zip(pad, g.shape))
        w[sl] = np.minimum(g.values, 0.0)
        scale = np.max(np.abs(g.values))
        assert np.all(env.gamma.values <= w + 1e-9 * (1 + scale))
        assert env.gamma.values.min() == pytest.approx(-np.max(np.maximum(-g.values, 0)), abs=1e-9)

    def test_discrete_midpoint_convexity(self):
        rng = np.random.default_rng(2)
        g = GridFunction(2, (17, 17), (-1, -1), 0.125, rng.normal(size=(17, 17)) - 2)
        env = lower_convex_envelope(g)
        v = env.gamma.values
        tol = 1e-9 * (1 + np.max(np.abs(v)))
        assert np.all(v[:-2, :] + v[2:, :] - 2 * v[1:-1, :] >= -tol)
        assert np.all(v[:, :-2] + v[:, 2:] - 2 * v[:, 1:-1] >= -tol)
        assert np.all(v[:-2, :-2] + v[2:, 2:] - 2 * v[1:-1, 1:-1] >= -tol)
        assert np.all(v[2:, :-2] + v[:-2, 2:] - 2 * v[1:-1, 1:-1] >= -tol)

    def test_idempotence_and_convex_fixed_point(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(21, 21))
        once = directional_convexification(w)
        twice = directional_convexification(once)
        assert np.max(np.abs(twice - once)) <= 1e-12 * (1 + np.max(np.abs(w)))
        # a convex function is left untouched
        xs = np.linspace(-1, 1, 33)
        conv = 0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2) - 1.0
        assert np.array_equal(directional_convexification(conv), conv)

    @pytest.mark.parametrize("shape", [(9,), (3, 4)])
    def test_integer_mask_reads_as_boolean(self, shape):
        rng = np.random.default_rng(4)
        w, keep = rng.normal(size=shape), rng.random(shape) > 0.3
        got = directional_convexification(w, keep.astype(int))
        assert got.tobytes() == directional_convexification(w, keep).tobytes()

    @pytest.mark.parametrize("shape,mask_shape", [((9,), (8,)), ((3, 4), (2, 4))])
    def test_mask_of_another_shape_is_refused(self, shape, mask_shape):
        with pytest.raises(InvalidInputError):
            directional_convexification(np.zeros(shape), np.ones(mask_shape, bool))


class TestABP:
    def test_nonnegative_u(self):
        g = GridFunction.from_box([-1, -1], [1, 1], 1 / 16, fn=lambda x: 0.5 + x[..., 0] ** 2)
        f = GridFunction(2, g.shape, g.origin, g.spacing, np.ones(g.shape))
        rep = abp_check(g, f, 1.0, 1.0, 0.0)
        assert rep["sup_uminus"] == 0.0 and rep["ratio"] == 0.0

    def test_paraboloid_closed_form(self):
        n, h = 2, 1 / 64
        u = GridFunction.from_box([-1, -1], [1, 1], h, fn=lambda x: (np.vecdot(x, x) - 1) / (2 * n))
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.ones(u.shape))
        rep = abp_check(u, f, 1.0, 1.0, 0.0)
        expected = (1 / (2 * n)) / math.sqrt(math.pi)
        assert rep["ratio"] == pytest.approx(expected, rel=0.05)
        # the whole discrete ball is in contact for this convex input
        assert rep["contact_nodes"] == rep["ball_nodes"]

    def test_negative_boundary_rejected(self):
        g = GridFunction.from_box([-1, -1], [1, 1], 1 / 8, fn=lambda x: np.full(len(x), -1.0))
        f = GridFunction(2, g.shape, g.origin, g.spacing, np.ones(g.shape))
        with pytest.raises(InvalidInputError):
            abp_check(g, f, 1.0, 1.0, 0.0, boundary_tol=1e-6)


class TestSection:
    def test_disk(self):
        verts = section(fixture("quadratic"), [0, 0], 0.02)
        r = np.linalg.norm(verts, axis=1)
        assert np.max(np.abs(r - 0.2)) < 1e-8

    def test_ellipse_semiaxes(self):
        q = fixture("quadratic", A=np.diag([1.0, 4.0]))
        h = 0.02
        verts = section(q, [0, 0], h)
        # semiaxes sqrt(2h), sqrt(h/2): implicit form x1^2/(2h) + x2^2/(h/2) = 1
        lhs = verts[:, 0] ** 2 / (2 * h) + verts[:, 1] ** 2 / (h / 2)
        assert np.max(np.abs(lhs - 1.0)) < 1e-7
        assert abs(np.max(verts[:, 0]) - math.sqrt(2 * h)) < 1e-8
        assert abs(np.max(verts[:, 1]) - math.sqrt(h / 2)) < 1e-8

    def test_nonconvex_detected(self):
        bowl = fixture("quadratic", A=-np.eye(2))
        with pytest.raises((NonConvexityError, SectionEscapeError)):
            section(bowl, [0, 0], 0.02, domain=([-2, -2], [2, 2]))
        # concave profile must trip the monotonicity check specifically
        with pytest.raises(NonConvexityError):
            section(
                lambda x: -np.vecdot(x, x), [0.0, 0.0], 0.02, domain=([-2, -2], [2, 2])
            )

    def test_escape(self):
        with pytest.raises(SectionEscapeError):
            section(fixture("quadratic"), [0, 0], 10.0, domain=([-1, -1], [1, 1]))


class TestJohn:
    def test_ellipse_normalization(self):
        for h in (0.005, 0.02):
            q = fixture("quadratic", A=np.diag([1.0, 4.0]))
            verts = section(q, [0, 0], h)
            norm = john_normalize(verts, h, 2)
            assert norm.detT == pytest.approx(1.0 / h, rel=1e-6)
            assert norm.product == pytest.approx(1.0, rel=1e-6)

    def test_disk_product_quarter(self):
        for h in (0.001, 0.01, 0.1):
            verts = section(fixture("quadratic"), [0, 0], h)
            norm = john_normalize(verts, h, 2)
            assert norm.product == pytest.approx(0.25, rel=1e-6)

    def test_unimodular_invariance(self):
        q = fixture("quadratic", A=np.diag([1.0, 4.0]))
        verts = section(q, [0, 0], 0.02)
        base = john_normalize(verts, 0.02, 2)
        A = np.array([[1.0, 0.7], [0.0, 1.0]])  # det 1
        mapped = john_normalize(verts @ A.T, 0.02, 2)
        assert mapped.product == pytest.approx(base.product, abs=1e-8)

    def test_sandwich_margins(self):
        verts = section(fixture("quadratic", A=np.diag([2.0, 0.5])), [0, 0], 0.01)
        norm = john_normalize(verts, 0.01, 2)
        assert norm.covering_margin <= 1 + 1e-7
        # the 1/n-shrunk ellipsoid contains the polygon centroid
        centroid = verts.mean(axis=0)
        assert np.linalg.norm(norm.T @ centroid - norm.center) <= 0.5 + 1e-7

    def test_product_bands_across_heights(self):
        heights = np.logspace(-3, -1, 5)
        # quadratic fixture: constant to 1%
        prods = []
        q = fixture("quadratic", A=np.diag([1.5, 0.8]))
        for h in heights:
            norm = john_normalize(section(q, [0, 0], h), h, 2)
            prods.append(norm.product)
        assert max(prods) / min(prods) <= 1.01
        # strictly convex non-quadratic analytic input: factor-4 band
        f = lambda x: 0.5 * x[..., 0] ** 2 + 0.25 * x[..., 1] ** 4 + 0.5 * x[..., 1] ** 2
        prods = []
        for h in heights:
            verts = section(f, [0, 0], h, domain=([-2, -2], [2, 2]))
            prods.append(john_normalize(verts, h, 2).product)
        assert max(prods) / min(prods) <= 4.0

    def test_flat_vertices_rejected(self):
        pts = np.stack([np.linspace(0, 1, 8), np.zeros(8)], axis=-1)
        with pytest.raises(RankError):
            john_normalize(pts, 0.01, 2)

    def test_mvee_covers_points(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(40, 2))
        A, c = mvee(pts)
        vals = np.einsum("ni,ij,nj->n", pts - c, A, pts - c)
        assert np.max(vals) <= 1 + 1e-7


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid


def khachiyan_reference(points, tol=1e-9):
    """The earlier mvee loop, Khachiyan ascent with away steps, run without an
    iteration cap or a stagnation exit: slow, but it meets tol."""
    P, W, mean = _whitened(points)
    N, d = P.shape
    Q = np.hstack([P, np.ones((N, 1))]).T
    u = np.full(N, 1.0 / N)
    dd = d + 1
    while True:
        M = np.einsum("ij,ij->j", Q, np.linalg.solve((Q * u) @ Q.T, Q))
        j_add = int(np.argmax(M))
        gap_add = M[j_add] - dd
        j_away = int(np.argmin(np.where(u > 1e-15, M, np.inf)))
        gap_away = dd - M[j_away]
        if max(gap_add, gap_away) <= tol * dd:
            break
        if gap_add >= gap_away:
            step = gap_add / (dd * (M[j_add] - 1.0))
            u *= 1.0 - step
            u[j_add] += step
            continue
        denom = dd * (M[j_away] - 1.0)
        if denom <= 1e-15:
            u[j_away] = 0.0
        else:
            beta = min(gap_away / denom, u[j_away] / (1.0 - u[j_away]))
            u *= 1.0 + beta
            u[j_away] -= beta
            u = np.maximum(u, 0.0)
        u /= u.sum()
    c = P.T @ u
    A = np.linalg.inv((P.T * u) @ P - np.outer(c, c)) / d
    A /= max(1.0, float(np.max(np.einsum("ni,ij,nj->n", P - c, A, P - c))))
    return W.T @ A @ W, mean + np.linalg.solve(W, c)


def lifted_moments(P, u):
    """M_j = q_j^T V(u)^-1 q_j for the lifted points q_j = (P[j], 1)."""
    Q = np.hstack([P, np.ones((len(P), 1))]).T
    return np.einsum("ij,ij->j", Q, np.linalg.solve((Q * u) @ Q.T, Q))


def memberships(points, A, c):
    X = np.asarray(points, dtype=float).reshape(len(points), -1) - c
    return np.einsum("ni,ij,nj->n", X, A, X)


def rounding_scale(points):
    """eps times the condition number of the cloud's covariance, and eps times
    its largest coordinate over its narrowest spread: the relative rounding
    that undoing the whitening, or one rounding of every coordinate, puts
    into the ellipsoid."""
    X = np.asarray(points, dtype=float).reshape(len(points), -1)
    ev = np.linalg.eigvalsh(np.atleast_2d(np.cov(X.T, bias=True)))
    eps = np.finfo(float).eps
    return eps * ev[-1] / ev[0], eps * np.max(np.abs(X)) / math.sqrt(ev[0])


coords = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)


@st.composite
def clouds(draw, dim=None, min_size=None, max_size=40):
    """Full-dimensional point clouds in the line or the plane."""
    d = dim or draw(st.sampled_from((1, 2)))
    n = draw(st.integers(min_size or d + 1, max_size))
    P = np.array(draw(st.lists(st.tuples(*[coords] * d), min_size=n, max_size=n)))
    try:
        _whitened(P)
    except RankError:
        assume(False)
    return P


def quadratic_grid(h=1 / 32):
    """A gridded convex quadratic with det D^2 u = 1.5 * 0.75, axes rotated 45
    degrees, on [-1, 1]^2."""
    R = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2)
    H = R @ np.diag([1.5, 0.75]) @ R.T
    return GridFunction.from_box(
        [-1, -1], [1, 1], h, fn=lambda x: 0.3 + 0.1 * x[..., 0] - 0.2 * x[..., 1] + 0.5 * np.vecdot(x @ H, x)
    )


class TestMVEE:
    tol = 1e-9

    @settings(max_examples=150, deadline=None)
    @given(clouds())
    def test_kkt_conditions(self, points):
        P = _whitened(points)[0]
        d = P.shape[1]
        u = _optimal_design(P, self.tol, 500)
        assert np.all(u >= 0.0) and u.sum() == pytest.approx(1.0, abs=1e-12)
        M = lifted_moments(P, u)
        slack = 1e-12 * (d + 1)  # V(u) summed over other terms than in the loop
        # no point outside the design's ellipsoid beyond tol ...
        assert np.max(M) <= (d + 1) * (1 + self.tol) + slack
        # ... and every point carrying weight on its boundary up to tol
        assert np.min(M[u > 0]) >= (d + 1) * (1 - self.tol) - slack
        A, c = geometry.mvee(points, tol=self.tol, max_iters=500)
        # covered where the points are measured
        assert np.max(memberships(points, A, c)) <= 1 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(clouds(), st.data())
    def test_affine_covariance(self, points, data):
        d = points.shape[1]
        L = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=d * d, max_size=d * d)))
        L = L.reshape(d, d)
        assume(abs(np.linalg.det(L)) > 0.1)
        t = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
        X = points @ L.T + t
        A, c = geometry.mvee(points)
        A2, c2 = geometry.mvee(X)
        Linv = np.linalg.inv(L)
        # the image carries one rounding per coordinate, which a cloud narrow
        # against its offset from the origin amplifies
        rel = 1e-6 + 1e4 * max(max(rounding_scale(points)), max(rounding_scale(X)))
        assert np.max(np.abs(Linv.T @ A @ Linv - A2)) <= rel * np.max(np.abs(A2))
        assert np.max(np.abs(L @ c + t - c2)) <= rel * np.max(np.abs(X - X.mean(0)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2)), st.integers(0, 9))
    def test_matches_khachiyan_reference(self, seed, d, extra):
        # Gaussian clouds: on nearly degenerate ones the reference's linear
        # rate can take minutes
        points = np.random.default_rng(seed).normal(size=(d + 1 + extra, d))
        A, c = geometry.mvee(points)
        A_ref, c_ref = khachiyan_reference(points)
        scale = np.max(np.abs(A_ref))
        assert np.max(np.abs(A - A_ref)) <= 1e-6 * scale
        span = np.max(np.abs(points - points.mean(0)))
        assert np.max(np.abs(c - c_ref)) <= 1e-6 * span

    def test_ill_conditioned_cloud_is_covered(self):
        # the whitening maps this triangle back with a relative rounding of
        # about 1e-5; the cover is measured on the points as given
        points = np.array([(2.0, 0.0), (1e-5, 1.0), (0.0, 1.0)])
        A, c = geometry.mvee(points)
        assert np.max(memberships(points, A, c)) <= 1.0

    def test_gridded_sections_meet_tol(self):
        """64-ray sections of a 1/32 gridded quadratic: every height meets
        tol, and the product stays within 1% of det D^2 u / 4."""
        u = quadratic_grid()
        for h in (0.05, 0.1, 0.2):
            verts = section(u, [0.1, 0.0], h, rays=64)
            P = _whitened(verts)[0]
            weights = _optimal_design(P, self.tol, 60)
            assert np.max(lifted_moments(P, weights)) <= 3 * (1 + self.tol) + 1e-12
            norm = john_normalize(verts, h, 2)
            assert norm.product == pytest.approx(1.5 * 0.75 / 4, rel=0.01)
            assert norm.covering_margin <= 1 + 1e-9

    def test_iteration_limit(self, tmp_path, monkeypatch, capsys):
        verts = section(quadratic_grid(), [0.1, 0.0], 0.1, rays=64)
        with pytest.raises(IterationLimitError):
            geometry.mvee(verts, max_iters=1)
        path = str(tmp_path / "q.grid")
        write_grid(quadratic_grid(), path)
        monkeypatch.setattr(geometry, "mvee", functools.partial(geometry.mvee, max_iters=1))
        argv = ["normalize", "--input", path, "--point", "0.1,0", "--heights", "0.05,0.1",
                "--rays", "64"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["kind"] == "error" and rec["error"] == "IterationLimitError"
