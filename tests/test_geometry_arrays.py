"""Property tests of the whole-array geometry and of point-stack evaluation.

The per-line Andrew monotone chain and the per-ray section loop below are the
references. The block hull drops non-vertices in passes of the orientation
test instead of popping a stack, so among nearly collinear nodes it may keep
other vertices than the chain: values agree to rounding and contact sets
exactly. The lockstep section makes the same evaluations along every ray as
the loop, so its vertices agree bit for bit. Stacks of points evaluate to the
values of their points taken one at a time, bit for bit.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nelliptic import geometry
from nelliptic.errors import NellipticError, SingularityError
from nelliptic.fixtures import fixture
from nelliptic.errors import RankError
from nelliptic.geometry import (
    _convexify,
    abp_check,
    john_normalize,
    lower_convex_envelope,
    section,
)
from nelliptic.grid import GridFunction
from nelliptic.polyfit import Polynomial, multi_indices

# ---------------------------------------------------------------------------
# per-line reference envelope


def ref_lower_hull(v):
    m = len(v)
    if m <= 2:
        return v.copy()
    hull = [0]
    for k in range(1, m):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (v[b] - v[a]) * (k - b) >= (v[k] - v[b]) * (b - a):
                hull.pop()
            else:
                break
        hull.append(k)
    out = np.empty(m)
    for a, b in zip(hull[:-1], hull[1:]):
        t = np.arange(a, b + 1) - a
        out[a : b + 1] = v[a] + (v[b] - v[a]) * t / (b - a)
    return out


def ref_masked_line(v, mask):
    out = v.copy()
    k = 0
    while k < len(v):
        if not mask[k]:
            k += 1
            continue
        j = k
        while j < len(v) and mask[j]:
            j += 1
        out[k:j] = ref_lower_hull(v[k:j])
        k = j
    return out


def ref_diagonal(nr, nc, off, anti):
    rows = np.arange(max(0, -off), min(nr, nc - off))
    cols = (nc - 1) - (rows + off) if anti else rows + off
    return rows, cols


def ref_convexify(values, mask=None, tol_scale=1.0):
    v = values.astype(float).copy()
    if mask is None:
        mask = np.ones(v.shape, dtype=bool)
    tol = 1e-13 * (1.0 + tol_scale)
    if v.ndim == 1:
        v[mask] = ref_masked_line(v, mask)[mask]
        return v
    nr, nc = v.shape
    lines = [(i, slice(None)) for i in range(nr)] + [(slice(None), j) for j in range(nc)]
    for anti in (False, True):
        lines += [ref_diagonal(nr, nc, off, anti) for off in range(-(nr - 2), nc - 1)]
    for _ in range(500):
        change = 0.0
        for idx in lines:
            new = ref_masked_line(v[idx], mask[idx])
            change = max(change, float(np.max(np.abs(new - v[idx]))))
            v[idx] = new
        if change <= tol:
            break
    return v


# values on a binary lattice (exact ties), on a decimal lattice (ties up to
# rounding) or anywhere
VALUES = st.one_of(
    st.integers(-12, 12).map(lambda k: k / 4),
    st.integers(-20, 20).map(lambda k: k / 10),
    st.floats(-10, 10, allow_nan=False),
)


@st.composite
def line_data(draw, dim):
    shape = tuple(draw(st.integers(1, 40 if dim == 1 else 12)) for _ in range(dim))
    values = draw(arrays(float, shape, elements=VALUES))
    mask = draw(st.one_of(st.none(), arrays(bool, shape)))
    return values, mask


def assert_close(new, ref, values):
    assert np.max(np.abs(new - ref), initial=0.0) <= 1e-14 * (1.0 + np.max(np.abs(values)))


class TestBlockEnvelope:
    @settings(max_examples=150, deadline=None)
    @given(line_data(1))
    def test_1d_matches_andrew_chain(self, data):
        values, mask = data
        new, ref = _convexify(values, mask=mask), ref_convexify(values, mask=mask)
        assert_close(new, ref, values)
        if np.array_equal(values * 4, np.round(values * 4)):
            # exact orientation tests: the same vertices, the same chords
            assert np.array_equal(new, ref)

    @settings(max_examples=150, deadline=None)
    @given(line_data(2))
    def test_2d_matches_andrew_chain(self, data):
        values, mask = data
        assert_close(_convexify(values, mask=mask), ref_convexify(values, mask=mask), values)

    def test_rounded_ties(self):
        # -0.9 - -2.0 == 0.2 - -0.9 in floating point, so the middle node is
        # dropped and takes the chord value -0.8999999999999999
        line = np.array([-2.0, -0.9, 0.2])
        assert np.array_equal(_convexify(line), ref_convexify(line))
        assert _convexify(line)[1] != -0.9
        # runs of two keep their values: the chord gives 0.7 + (0.1 - 0.7) != 0.1
        v = np.array([[0.7, 0.1, 5.0, 0.7, 0.1]] * 2)
        mask = v != 5.0
        assert np.array_equal(_convexify(v[0], mask=mask[0]), v[0])
        assert np.array_equal(_convexify(v, mask=mask), v)

    @settings(max_examples=40, deadline=None)
    @given(line_data(2))
    def test_envelope_contact_matches_reference(self, data):
        values, _ = data
        u = GridFunction(2, values.shape, (-1.0, -1.0), 0.25, values)
        env = lower_convex_envelope(u)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_convexify", ref_convexify)
            ref = lower_convex_envelope(u)
        assert_close(env.gamma.values, ref.gamma.values, values)
        assert np.array_equal(env.contact_mask, ref.contact_mask)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 15), st.data())
    def test_abp_record_matches_reference(self, n, data):
        values = data.draw(arrays(float, (n, n), elements=VALUES))
        f_values = data.draw(arrays(float, (n, n), elements=VALUES))
        u = GridFunction(2, (n, n), (-1.0, -1.0), 2.0 / (n - 1), values)
        f = GridFunction(2, (n, n), (-1.0, -1.0), 2.0 / (n - 1), f_values)
        rec = abp_check(u, f, 1.0, 2.0, 0.0, boundary_tol=math.inf)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_convexify", ref_convexify)
            assert rec == abp_check(u, f, 1.0, 2.0, 0.0, boundary_tol=math.inf)

    def test_abp_memory_stays_blocked(self):
        # hulling all 513 diagonals of a 257^2 grid in one pass would hold
        # several 513 x 257 work arrays; blocks of 32 lines keep the peak
        # near the grid's own
        h = 2 / 256
        u = GridFunction.from_box([-1, -1], [1, 1], h)
        pts = u.points()
        u.values = ((np.sum(pts**2, axis=1) - 1) / 4).reshape(u.shape)
        f = GridFunction(2, u.shape, u.origin, h, np.ones(u.shape))
        del pts
        tracemalloc.start()
        try:
            abp_check(u, f, 1.0, 1.0, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


# ---------------------------------------------------------------------------
# the block loop as the reference of the slice-tested sweeps


def block_line_block(nr, nc, direction, lo, hi):
    line = np.arange(lo, hi)[:, None]
    if direction == 0:
        return line * nc + np.arange(nc)
    r = np.arange(nr)
    if direction == 1:
        return r * nc + line
    c = r + line - (nr - 1)
    if direction == 3:
        c = (nc - 1) - c
    return np.where((c >= 0) & (c < nc), r * nc + c, -1)


def block_sweep(flat, fmask, nr, nc, direction):
    """Hull every line of one direction in blocks of 32, in place; the
    largest change of a masked node."""
    lines = (nr, nc, nr + nc - 1, nr + nc - 1)[direction]
    change = 0.0
    for lo in range(0, lines, 32):
        idx = block_line_block(nr, nc, direction, lo, min(lo + 32, lines))
        line_mask = (idx >= 0) & fmask[np.maximum(idx, 0)]
        old = flat[np.maximum(idx, 0)]
        new = geometry._hull_lines(old, line_mask)
        change = max(change, float(np.max(np.abs(new - old)[line_mask], initial=0.0)))
        flat[idx[line_mask]] = new[line_mask]
    return change


def block_convexify(values, mask=None, tol_scale=1.0):
    v = values.astype(float).copy()
    if mask is None:
        mask = np.ones(v.shape, dtype=bool)
    tol = 1e-13 * (1.0 + tol_scale)
    if v.ndim == 1:
        return geometry._hull_lines(v[None], mask[None])[0]
    nr, nc = v.shape
    for _ in range(500):
        change = max(block_sweep(v.ravel(), mask.ravel(), nr, nc, d) for d in range(4))
        if change <= tol:
            break
    return v


# signed zeros, binary and decimal lattices (exact and rounded ties), and
# anything
EDGY = st.one_of(st.sampled_from([-0.0, 0.0]), VALUES)


@st.composite
def run_mask(draw, shape):
    """None, or a mask of short runs (1, 2 or 3 nodes) between gaps, read
    row by row, so runs touch the grid edges and wrap."""
    if draw(st.booleans()):
        return None
    size = int(np.prod(shape))
    bits = []
    while len(bits) < size:
        bits += [True] * draw(st.integers(1, 4)) + [False] * draw(st.integers(0, 2))
    return np.array(bits[:size]).reshape(shape)


@st.composite
def sweep_data(draw):
    """(values, mask) on grids of 1 to 12 nodes a side: edgy values
    anywhere, or a strictly convex lattice quadratic with a few dents, so one
    direction holds both lines that drop nodes and lines that do not."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    if draw(st.booleans()):
        values = draw(arrays(float, shape, elements=EDGY))
    else:
        r, c = np.indices(shape)
        values = (draw(st.integers(-2, 2)) * r + (r - c) ** 2 + 2 * c**2) / draw(
            st.sampled_from([1.0, 4.0, 10.0])
        )
        dents = np.zeros(shape, dtype=bool)
        for _ in range(draw(st.integers(0, 3))):
            dents[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = True
        values = np.where(dents, values + draw(EDGY), values)
        values[values == 0.0] = -0.0 if draw(st.booleans()) else 0.0
    mask = draw(st.one_of(run_mask(shape), arrays(bool, shape)))
    return values, mask


def bitwise(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestSliceSweeps:
    """Directions whose nodes all pass the slice test skip the hull passes,
    yet every value and every sweep change equals the block loop's bit for
    bit."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_data(), st.integers(0, 3))
    def test_one_direction_equals_the_block_pass(self, data, direction):
        values, mask = data
        mask = np.ones(values.shape, dtype=bool) if mask is None else mask
        v, ref = values.copy(), values.copy()
        change = geometry._sweep_direction(v, mask, direction)
        ref_change = block_sweep(ref.ravel(), mask.ravel(), *values.shape, direction)
        assert np.array_equal(bitwise(v), bitwise(ref))
        assert bitwise(change) == bitwise(ref_change)

    @settings(max_examples=150, deadline=None)
    @given(sweep_data())
    def test_convexify_equals_the_block_loop(self, data):
        values, mask = data
        new = _convexify(values, mask=mask)
        assert np.array_equal(bitwise(new), bitwise(block_convexify(values, mask)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda m: st.tuples(arrays(float, m, elements=EDGY), run_mask((m,)))))
    def test_1d_line_equals_the_block_loop(self, data):
        values, mask = data
        assert np.array_equal(bitwise(_convexify(values, mask=mask)),
                              bitwise(block_convexify(values, mask)))

    def test_non_square_grid_needing_several_sweeps(self):
        rng = np.random.default_rng(7)
        r, c = np.indices((23, 41))
        values = ((r - 11.0) ** 2 + (c - 20.0) ** 2) / 16.0
        values[rng.random(values.shape) < 0.02] -= 3.0
        mask = rng.random(values.shape) < 0.9
        new = _convexify(values, mask=mask, tol_scale=float(np.max(np.abs(values))))
        ref = block_convexify(values, mask, float(np.max(np.abs(values))))
        assert np.array_equal(bitwise(new), bitwise(ref))
        assert not np.array_equal(new, values)  # the dents were hulled

    def test_convex_lines_skip_the_hull_passes(self, monkeypatch):
        # a paraboloid on the ball of a 65^2 grid: every line is convex
        hulled = []
        real = geometry._hull_lines

        def counted(v, mask):
            hulled.append(len(v))
            return real(v, mask)

        r, c = np.indices((65, 65)) - 32.0
        ball = r**2 + c**2 <= 32.0**2
        values = np.where(ball, (r**2 + c**2 - 32.0**2) / 4096.0, 0.0)
        monkeypatch.setattr(geometry, "_hull_lines", counted)
        new = _convexify(values, mask=ball)
        assert hulled == []
        monkeypatch.undo()
        assert np.array_equal(bitwise(new), bitwise(block_convexify(values, ball)))


# ---------------------------------------------------------------------------
# per-ray reference section


def ref_section(u, x0, h, rays=256, domain=None):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = len(x0)
    lo, hi = geometry._domain_box(u, domain)
    diam = float(np.linalg.norm(hi - lo))
    u0 = float(u(x0))
    g = getattr(u, "grad", None)
    if g is not None:
        g = np.asarray(g(x0), dtype=float)
    else:
        dx = u.spacing / 2.0 if isinstance(u, GridFunction) else 1e-6
        g = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = dx
            g[i] = (u(x0 + e) - u(x0 - e)) / (2 * dx)

    def profile(x):
        return float(u(x)) - u0 - float(g @ (x - x0))

    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        ang = 2 * math.pi * np.arange(rays) / rays
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    dent_tol = 1e-12 * (1.0 + abs(u0)) + 1e-9 * h
    if isinstance(u, GridFunction):
        dent_tol += 0.5 * u.spacing**2 * (1.0 + abs(u0))
    verts = []
    for d in dirs:
        tm = math.inf
        for i in range(n):
            if d[i] > 1e-15:
                tm = min(tm, (hi[i] - x0[i]) / d[i])
            elif d[i] < -1e-15:
                tm = min(tm, (lo[i] - x0[i]) / d[i])
        t = min(1e-6 * diam, 0.25 * tm)
        prev = t_lo = 0.0
        while True:
            if t >= tm:
                if profile(x0 + min(tm, t) * d) < h:
                    raise geometry.SectionEscapeError("escape")
                t = tm
                break
            val = profile(x0 + t * d)
            if val < prev - dent_tol:
                raise geometry.NonConvexityError("dent along %s" % (d.tolist(),))
            if val >= h:
                break
            prev, t_lo = val, t
            t *= 1.3
        t_hi = t
        for _ in range(200):
            if t_hi - t_lo <= 1e-10 * diam:
                break
            mid = 0.5 * (t_lo + t_hi)
            if profile(x0 + mid * d) >= h:
                t_hi = mid
            else:
                t_lo = mid
        verts.append(x0 + 0.5 * (t_lo + t_hi) * d)
    return np.asarray(verts)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NellipticError as exc:
        return type(exc)


@st.composite
def convex_grids(draw):
    """Bilinear data of a quadratic, sometimes with a dent or a small box."""
    n = draw(st.sampled_from((9, 17, 33)))
    a, b = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    phi = draw(st.floats(0.0, math.pi))
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    H = R @ np.diag([a, b]) @ R.T
    p = np.array([draw(st.floats(-1, 1)), draw(st.floats(-1, 1))])
    u = GridFunction.from_box([-1, -1], [1, 1], 2 / (n - 1))
    pts = u.points()
    vals = 0.5 * np.einsum("ni,ij,nj->n", pts, H, pts) + pts @ p
    if draw(st.booleans()):
        # a dent at one node makes some rays non-convex
        vals[draw(st.integers(0, n * n - 1))] -= draw(st.floats(0.0, 0.5))
    u.values = vals.reshape(u.shape)
    return u


class TestLockstepSection:
    @settings(max_examples=40, deadline=None)
    @given(
        convex_grids(),
        st.floats(-0.3, 0.3),
        st.floats(-0.3, 0.3),
        st.floats(0.01, 1.5),
        st.sampled_from((4, 7, 16)),
    )
    def test_grid_input_matches_per_ray_loop(self, u, x, y, h, rays):
        new = outcome(section, u, [x, y], h, rays=rays)
        ref = outcome(ref_section, u, [x, y], h, rays=rays)
        if isinstance(ref, np.ndarray):
            assert isinstance(new, np.ndarray) and np.array_equal(new, ref)
        else:
            assert new is ref

    def test_first_failing_ray_decides(self):
        # of the four rays, ray 1 (+y) meets a dent at |x| = 0.2, before the
        # level 0.1; a box cut at 0.1 makes ray 0 (+x) or ray 2 (-x) escape,
        # in fewer steps than ray 1 takes to reach the dent
        def u(x):
            return np.vecdot(x, x) - np.where((x[..., 1] > 0.2) & (abs(x[..., 0]) < 0.1), 1.0, 0.0)

        with pytest.raises(geometry.SectionEscapeError):
            section(u, [0.0, 0.0], 0.1, rays=4, domain=([-1, -1], [0.1, 1]))
        with pytest.raises(geometry.NonConvexityError, match=r"ray \[6\.12\d*e-17, 1\.0\]"):
            section(u, [0.0, 0.0], 0.1, rays=4, domain=([-0.1, -1], [1, 1]))

    def test_edge_check_comes_before_the_dent_check(self):
        # ray 0 first sees the drop on the box edge x1 = 0.1: an escape
        def u(x):
            return np.vecdot(x, x) - np.where(x[..., 0] >= 0.1, 1.0, 0.0)

        with pytest.raises(geometry.SectionEscapeError):
            section(u, [0.0, 0.0], 0.1, rays=4, domain=([-1, -1], [0.1, 1]))

    @pytest.mark.parametrize("rays", [3, 16])
    def test_fixture_and_bare_callable_match_per_ray_loop(self, rays):
        q = fixture("quadratic", A=np.array([[1.5, 0.4], [0.4, 0.8]]), b=[0.1, -0.2])
        assert np.array_equal(section(q, [0.2, 0.1], 0.05, rays=rays),
                              ref_section(q, [0.2, 0.1], 0.05, rays=rays))
        def f(x):
            return 0.5 * x[..., 0] ** 2 + 0.25 * x[..., 1] ** 4 + 0.5 * x[..., 1] ** 2

        box = ([-2, -2], [2, 2])
        assert np.array_equal(section(f, [0, 0], 0.1, rays=rays, domain=box),
                              ref_section(f, [0, 0], 0.1, rays=rays, domain=box))


@settings(max_examples=25, deadline=None)
@given(
    arrays(float, st.tuples(st.integers(3, 40), st.just(2)),
           elements=st.integers(-30, 30).map(lambda k: k / 10))
)
def test_inscribed_margin_matches_edge_loop(verts):
    try:
        norm = john_normalize(verts, 0.1, 2)
    except RankError:
        return
    # per-edge reference: the distance from the center to each edge of the
    # mapped polygon, its vertices taken in angle order
    rel = verts @ norm.T.T - norm.center
    poly = rel[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
    dmin = math.inf
    for k in range(len(poly)):
        a, e = poly[k], poly[(k + 1) % len(poly)] - poly[k]
        ln = np.linalg.norm(e)
        if ln >= 1e-14:
            dmin = min(dmin, abs(a[0] * e[1] - a[1] * e[0]) / ln)
    assert norm.inscribed_margin == dmin


# ---------------------------------------------------------------------------
# point stacks


def old_scalar_value(name, params, x):
    """The fixtures' single-point closed forms, in Python float arithmetic."""
    th = params.get("theta")
    if name == "pmc":
        r = np.linalg.norm(x)
        return -((1.0 - r) ** th) if r <= 1.0 else (r - 1.0) ** th
    if name == "hq":
        return 0.5 * float(np.sum(x[:-1] ** 2)) + abs(x[-1]) ** (1 + th) / (1 + th)
    if name == "slag":
        return abs(x[0]) ** (1 + th) / (1 + th) + 0.5 * x[1] ** 2
    if name == "power":
        return float(np.linalg.norm(x)) ** params["beta"]
    if name == "harmonic":
        return float(np.real((x[0] + 1j * x[1]) ** params["k"]))
    A, b = np.asarray(params["A"]), np.asarray(params["b"])
    return 0.5 * float(x @ A @ x) + float(b @ x) + params["c"]


def old_scalar_rhs(name, params, x):
    """The fixtures' single-point right-hand sides, in Python float arithmetic;
    ZeroDivisionError where the closed form divides by 0."""
    th = params.get("theta")
    if name == "pmc":
        r = float(np.linalg.norm(x))
        d, c = (1.0 - r, th) if r <= 1.0 else (r - 1.0, -th)
        vp = th * d ** (th - 1.0)
        w = math.sqrt(1.0 + vp * vp)
        return c * (1.0 - th) * d ** (th - 2.0) / w**3 + (len(x) - 1) * vp / (r * w)
    if name == "hq":
        n, k, l = len(x), params["k"], params["l"]
        t = abs(x[-1])
        if t < 1e-300:
            return math.comb(n - 1, k - 1) / math.comb(n - 1, l - 1)
        tt = th * t ** (th - 1.0)
        return ((math.comb(n - 1, k) + math.comb(n - 1, k - 1) * tt)
                / (math.comb(n - 1, l) + math.comb(n - 1, l - 1) * tt))
    if name == "slag":
        return 0.75 * math.pi - math.atan(abs(x[0]) ** (1.0 - th) / th)
    if name == "harmonic":
        return 0.0
    return float(np.linalg.det(np.asarray(params["A"])))


FIXTURES = [
    ("pmc", (0.3,), {}),
    ("pmc", (0.2,), {"n": 3}),
    ("hq", (0.45,), {}),
    ("slag", (0.4,), {}),
    ("quadratic", (), {"A": [[1.3, 0.4], [0.4, 0.7]], "b": [0.2, -0.1], "c": 0.3}),
    ("power", (0.7,), {"n": 2}),
    ("harmonic", (2,), {}),
    ("harmonic", (5,), {}),
]


def old_grid_value(g, x):
    """The single-point multilinear interpolation, term by term."""
    t = (x - np.asarray(g.origin)) / g.spacing
    i0 = np.maximum(np.minimum(np.floor(t).astype(int), np.asarray(g.shape) - 2), 0)
    w = t - i0
    v = g.values
    if g.dim == 1:
        return float(v[i0[0]] * (1 - w[0]) + v[i0[0] + 1] * w[0])
    (i, j), (wi, wj) = i0, w
    return float(
        v[i, j] * (1 - wi) * (1 - wj)
        + v[i + 1, j] * wi * (1 - wj)
        + v[i, j + 1] * (1 - wi) * wj
        + v[i + 1, j + 1] * wi * wj
    )


class TestPointStacks:
    @pytest.mark.parametrize("name,args,kwargs", FIXTURES)
    def test_fixture_stack_equals_points(self, name, args, kwargs):
        fx = fixture(name, *args, **kwargs)
        rng = np.random.default_rng(7)
        lo, hi = fx.box
        X = rng.uniform(lo, hi, size=(6, 500, fx.dim))
        X[0, :20] = np.round(X[0, :20])  # zeros, lattice points, |x| = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = fx(X)
            points = np.array([[fx(x) for x in row] for row in X])
        assert stack.shape == (6, 500) and np.array_equal(stack, points)
        assert isinstance(fx(X[0, 0]), float)
        old = np.array([[old_scalar_value(name, fx.params, x) for x in row] for row in X])
        assert np.array_equal(points, old)

    @pytest.mark.parametrize("name,args,kwargs", [f for f in FIXTURES if f[0] != "power"])
    def test_fixture_rhs_stack_equals_points(self, name, args, kwargs):
        fx = fixture(name, *args, **kwargs)
        rng = np.random.default_rng(8)
        lo, hi = fx.box
        X = rng.uniform(lo, hi, size=(6, 500, fx.dim))
        X[0, :20] = np.round(X[0, :20])  # zeros, lattice points, |x| = 1
        X[0, 20:40, -1] = [0.0, 5e-324, 1e-310, 1e-300] * 5
        pts = X.reshape(-1, fx.dim)
        old = []
        for x in pts:
            try:
                old.append(old_scalar_rhs(name, fx.params, x))
            except ZeroDivisionError:
                old.append(None)
        good = np.array([v is not None for v in old])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not good.all():  # pmc at |x| = 1 and 0: the first such point is named
                with pytest.raises(SingularityError, match=re.escape(str(pts[~good][0].tolist()))):
                    fx.rhs(X)
            stack = fx.rhs(pts[good])
            assert isinstance(fx.rhs(pts[good][0]), float)
        assert np.array_equal(stack, [v for v in old if v is not None])
        if good.all():
            assert np.array_equal(fx.rhs(X), stack.reshape(6, 500))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.integers(2, 9), st.data())
    def test_grid_stack_equals_points(self, dim, n, data):
        shape = (n,) * dim
        values = data.draw(arrays(float, shape, elements=st.floats(-5, 5)))
        g = GridFunction(dim, shape, (-1.0,) * dim, 0.5, values)
        lo, hi = g.box()
        X = np.array(
            data.draw(st.lists(st.tuples(*[st.floats(lo[0], hi[0])] * dim), min_size=1,
                               max_size=12))
        )
        stack = g(X)
        assert stack.shape == (len(X),)
        assert np.array_equal(stack, [g(x) for x in X])
        assert isinstance(g(X[0]), float)
        assert np.array_equal(stack, [old_grid_value(g, x) for x in X])
        assert np.array_equal(g(np.stack([X, X[::-1]])), [stack, stack[::-1]])

    def test_grid_stack_outside_box_raises(self):
        g = GridFunction.from_box([-1, -1], [1, 1], 0.5)
        with pytest.raises(NellipticError):
            g(np.array([[0.0, 0.0], [0.0, 1.5]]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 4), st.data())
    def test_polynomial_stack_equals_points(self, dim, degree, data):
        sigmas = multi_indices(dim, degree)
        coeffs = data.draw(
            st.dictionaries(st.sampled_from(sigmas), st.floats(-10, 10), max_size=len(sigmas))
        )
        P = Polynomial(dim, degree, coeffs)
        X = data.draw(arrays(float, (3, 4, dim), elements=st.floats(-3, 3)))
        stack = P(X)
        assert stack.shape == (3, 4)
        assert np.array_equal(stack, [[P(x) for x in row] for row in X])
        assert isinstance(P(X[0, 0]), float)
