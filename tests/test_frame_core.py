"""Property tests of the array frame core and the 9-point assembly.

The per-node loops below are the reference: the array code must give the same
residuals, Jacobians and linear systems bit for bit, since it evaluates the
same expressions in the same order. The schemes must be monotone: raising a
neighbour value never lowers a node's residual, raising its own value never
raises it.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nelliptic.errors import AnisotropyError
from nelliptic.grid import GridFunction
from nelliptic.solver import (
    SolveConfig,
    _assemble_linear,
    _ma_scheme,
    _pucci_scheme,
    _WideStencilProblem,
    stencil_frames,
)

LAM, BIG_LAM = 0.5, 2.0


# ---------------------------------------------------------------------------
# per-node reference


def ref_pucci(sign):
    minus = sign == "minus"

    def slope(d):
        if minus:
            return LAM if d > 0 else BIG_LAM
        return BIG_LAM if d > 0 else LAM

    def value(dv, dw):
        if minus:
            pw = [LAM * d if d > 0 else BIG_LAM * d for d in (dv, dw)]
        else:
            pw = [BIG_LAM * d if d > 0 else LAM * d for d in (dv, dw)]
        return pw[0] + pw[1]

    return value, lambda dv, dw: (slope(dv), slope(dw)), not minus


def ref_ma(K):
    def value(dv, dw):
        return max(dv, 0.0) * max(dw, 0.0) + K * (min(dv, 0.0) + min(dw, 0.0))

    def coefficients(dv, dw):
        return (max(dw, 0.0) if dv > 0 else K, max(dv, 0.0) if dw > 0 else K)

    return value, coefficients, False


def ref_second_diff(u, i, j, d, h):
    w2 = h * h * float(d @ d)
    return (u[i + d[0], j + d[1]] - 2.0 * u[i, j] + u[i - d[0], j - d[1]]) / w2


def ref_active(u, i, j, h, frames, value, maximize):
    """(value, v, w) of the first extremal frame that fits at (i, j)."""
    ny, nx = u.shape
    best = None
    for v, w in frames:
        if not all(0 <= i + d[0] < ny and 0 <= j + d[1] < nx for d in (v, -v, w, -w)):
            continue
        val = value(ref_second_diff(u, i, j, v, h), ref_second_diff(u, i, j, w, h))
        if best is None or (val > best[0] if maximize else val < best[0]):
            best = (val, v, w)
    return best


def ref_residual_and_jacobian(u, fvals, h, m, scheme):
    value, coefficients, maximize = scheme
    frames = stencil_frames(m)
    ny, nx = u.shape
    r = np.zeros(u.shape)
    rows, cols, data = [], [], []
    for i in range(ny):
        for j in range(nx):
            k = i * nx + j
            if i in (0, ny - 1) or j in (0, nx - 1):
                rows.append(k)
                cols.append(k)
                data.append(1.0)
                continue
            val, v, w = ref_active(u, i, j, h, frames, value, maximize)
            r[i, j] = val - fvals[i, j]
            dv, dw = ref_second_diff(u, i, j, v, h), ref_second_diff(u, i, j, w, h)
            st_ = {}
            for d, coeff in zip((v, w), coefficients(dv, dw)):
                if coeff <= 0:
                    continue
                w2 = h * h * float(d @ d)
                for off, c in (((d[0], d[1]), 1.0), ((-d[0], -d[1]), 1.0), ((0, 0), -2.0)):
                    st_[off] = st_.get(off, 0.0) + coeff * c / w2
            for (di, dj), c in st_.items():
                rows.append(k)
                cols.append((i + di) * nx + (j + dj))
                data.append(c)
    J = sp.csr_matrix((data, (rows, cols)), shape=(ny * nx, ny * nx))
    return r, J.tocsc()


def ref_assemble_linear(A_field, b_field, fvals, gvals, h):
    ny, nx = fvals.shape
    rows, cols, data = [], [], []
    rhs = np.zeros(ny * nx)
    for i in range(ny):
        for j in range(nx):
            k = i * nx + j
            if i in (0, ny - 1) or j in (0, nx - 1):
                rows.append(k)
                cols.append(k)
                data.append(1.0)
                rhs[k] = gvals[i, j]
                continue
            a11, a12, a22 = A_field[i, j]
            if a11 - abs(a12) < -1e-12 or a22 - abs(a12) < -1e-12:
                raise AnisotropyError(
                    "9-point stencil not monotone at node (%d,%d): "
                    "need a11,a22 >= |a12| (a=%r)" % (i, j, (a11, a12, a22))
                )
            b1, b2 = b_field[i, j]
            h2 = h * h
            st_ = {}

            def add(di, dj, c):
                st_[(di, dj)] = st_.get((di, dj), 0.0) + c

            am = abs(a12)
            add(1, 0, (a11 - am) / h2)
            add(-1, 0, (a11 - am) / h2)
            add(0, 1, (a22 - am) / h2)
            add(0, -1, (a22 - am) / h2)
            add(0, 0, -2.0 * (a11 + a22 - am) / h2)
            if a12 >= 0:
                add(1, 1, am / h2)
                add(-1, -1, am / h2)
            else:
                add(1, -1, am / h2)
                add(-1, 1, am / h2)
            if b1 >= 0:
                add(1, 0, b1 / h)
                add(0, 0, -b1 / h)
            else:
                add(-1, 0, -b1 / h)
                add(0, 0, b1 / h)
            if b2 >= 0:
                add(0, 1, b2 / h)
                add(0, 0, -b2 / h)
            else:
                add(0, -1, -b2 / h)
                add(0, 0, b2 / h)
            for (di, dj), c in st_.items():
                rows.append(k)
                cols.append((i + di) * nx + (j + dj))
                data.append(c)
            rhs[k] = fvals[i, j]
    return sp.csr_matrix((data, (rows, cols)), shape=(ny * nx, ny * nx)).tocsc(), rhs


# ---------------------------------------------------------------------------
# strategies and helpers


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def same_matrix(A, B):
    """Same CSC arrays, explicit zeros included, bit for bit: what the
    sparse LU is given."""
    return (
        same_bits(A.indptr, B.indptr)
        and same_bits(A.indices, B.indices)
        and same_bits(A.data, B.data)
    )


SCHEMES = ("pucci-minus", "pucci-plus", "ma")


@st.composite
def frame_cases(draw):
    """A small grid with values either on a coarse 1/8 lattice (so second
    differences and frame values often tie, at zero or between frames) or
    arbitrary (so the order of operations shows in the rounding), a
    right-hand side, a stencil size and a scheme."""
    ny, nx = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(lambda k: k / 8)
    else:
        values = st.floats(-2.0, 2.0)
    u = draw(arrays(float, (ny, nx), elements=values))
    f = draw(arrays(float, (ny, nx), elements=st.floats(0.1, 3.0)))
    h = draw(st.sampled_from([0.5, 0.25, 0.1]))
    m = draw(st.sampled_from([2, 4, 8, 16]))
    return u, f, h, m, draw(st.sampled_from(SCHEMES))


def problem(u, f, h, m, scheme):
    fgrid = GridFunction(2, f.shape, (0.0, 0.0), h, f)
    K = 1.0 + float(np.max(f))
    arr = _ma_scheme(K) if scheme == "ma" else _pucci_scheme(LAM, BIG_LAM, scheme[6:])
    ref = ref_ma(K) if scheme == "ma" else ref_pucci(scheme[6:])
    return _WideStencilProblem(fgrid, u, SolveConfig(stencil_directions=m), *arr), ref


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None)
@given(frame_cases())
def test_residual_and_jacobian_match_per_node_reference(case):
    u, f, h, m, scheme = case
    prob, ref = problem(u, f, h, m, scheme)
    r, D, active = prob.residual(u)
    r_ref, J_ref = ref_residual_and_jacobian(u, f, h, m, ref)
    assert same_bits(r, r_ref)
    assert same_matrix(prob.jacobian(D, active), J_ref)


@settings(max_examples=150, deadline=None)
@given(frame_cases(), st.data())
def test_scheme_is_monotone(case, data):
    u, f, h, m, scheme = case
    prob, _ = problem(u, f, h, m, scheme)
    ny, nx = u.shape
    i, j = data.draw(st.integers(0, ny - 1)), data.draw(st.integers(0, nx - 1))
    bump = data.draw(st.sampled_from([1e-9, 1 / 8, 1.0]))
    raised = u.copy()
    raised[i, j] += bump
    diff = prob.residual(raised)[0] - prob.residual(u)[0]
    own = np.zeros(u.shape, dtype=bool)
    own[i, j] = True
    assert np.all(diff[own] <= 0)
    assert np.all(diff[~own] >= 0)


@st.composite
def linear_cases(draw):
    ny, nx = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    shape = (ny, nx)
    a12 = draw(arrays(float, shape, elements=st.sampled_from([-0.5, -0.25, -0.0, 0.0, 0.3])))
    # a11, a22 = |a12| + slack; a slack of -0.0 stands for a coefficient of
    # -0.0, so signed zeros reach the weights
    slack = st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, -0.0]))
    a11, a22 = (
        np.where(np.signbit(sl), -0.0, np.abs(a12) + sl)
        for sl in (draw(arrays(float, shape, elements=slack)) for _ in range(2))
    )
    if draw(st.booleans()):
        # one node (maybe on the boundary, where it does not matter) breaks
        # the monotonicity condition
        i, j = draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))
        a11[i, j] = abs(a12[i, j]) - 0.1
    A_field = np.stack([a11, a12, a22], axis=-1)
    b_field = draw(arrays(float, shape + (2,), elements=st.sampled_from([-0.7, -0.0, 0.0, 0.4])))
    f = draw(arrays(float, shape, elements=st.floats(-2.0, 2.0)))
    g = draw(arrays(float, shape, elements=st.floats(-2.0, 2.0)))
    return A_field, b_field, f, g, draw(st.sampled_from([0.5, 0.125]))


@settings(max_examples=150, deadline=None)
@given(linear_cases())
def test_linear_assembly_matches_per_node_reference(case):
    A_field, b_field, f, g, h = case
    grid = GridFunction(2, f.shape, (0.0, 0.0), h, f)
    try:
        A_ref, rhs_ref = ref_assemble_linear(A_field, b_field, f, g, h)
    except AnisotropyError as exc:
        with pytest.raises(AnisotropyError) as got:
            _assemble_linear(grid, A_field, b_field, f, g)
        assert str(got.value) == str(exc)
        return
    A, rhs = _assemble_linear(grid, A_field, b_field, f, g)
    assert same_matrix(A, A_ref)
    assert same_bits(rhs, rhs_ref)
