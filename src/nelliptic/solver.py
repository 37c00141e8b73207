"""Monotone finite-difference Dirichlet solvers on uniform 2D grids.

Linear equations tr(A D^2 u) + b.Du = f use the 9-point stencil with the
sign-split cross-derivative form and upwind first differences; monotonicity
requires a11 >= |a12| and a22 >= |a12| at every node (checked, rejected
otherwise).

The Pucci and determinant equations use wide stencils: integer direction
vectors v_j = round(2 (cos j pi/m, sin j pi/m)) reduced to primitive form,
paired with their exact perpendiculars into orthogonal frames. With
distance-weighted second differences d_v = (u(x+hv) - 2u(x) + u(x-hv))/(h|v|)^2,

    pucci-minus:  min over frames of sum_v [lam d_v^+ - Lam d_v^-] = f
    pucci-plus:   max over frames of sum_v [Lam d_v^+ - lam d_v^-] = f
    det:          min over frames of prod_v (d_v)^+ = f   (f > 0, with a
                  negative-part penalty off the convex cone, see
                  solve_monge_ampere)

all of which are exact on quadratics whose Hessian is diagonalized by a
stencil frame. The nonlinear systems are solved by damped semismooth Newton
(0.5 damping with a residual-decrease line search) with whole-grid nodal
bisection sweeps as a fallback after repeated Newton failures. Residuals,
Jacobians and sweeps are computed on whole arrays by one frame core shared by
both schemes.

Every sparse system, linear, Newton or Picard, goes through one sparse LU
without pivoting on a symmetric order, with partial pivoting only for a
singular factor (``_solve_sparse``). scipy is imported on the first assembly
or solve, not with the package.

The graph mean-curvature equation is solved in the small-data regime by
frozen-coefficient Picard iteration on (I - Du Du^T / w^2) : D^2 u = f w,
w = sqrt(1 + |Du|^2); a guard refuses right-hand sides or (affinely
detrended) boundary oscillations above delta_guard, where the scheme has no
business converging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    AnisotropyError,
    InvalidInputError,
    IterationLimitError,
    ParameterError,
    SmallDataError,
)
from .grid import GridFunction
from .operators import OperatorSpec, _dense, evaluate_many


@dataclass
class SolveConfig:
    """The settings a caller sets; the solver function called is the scheme.
    ``stencil_directions`` is the wide stencils' m."""

    stencil_directions: int = 8
    tol: float = 1e-10
    max_iters: int = 80

    def __post_init__(self):
        if self.tol <= 0:
            raise ParameterError("tol must be positive")
        if self.stencil_directions < 2 or self.stencil_directions % 2:
            raise ParameterError("stencil_directions must be even and >= 2")


@dataclass(frozen=True)
class SolveInfo:
    """How a solve ended: Newton or Picard steps taken (1 for a direct linear
    solve), the final residual (max |A u - rhs| of a direct linear solve, the
    last update for mean curvature), the Newton residual history and the
    number of fallback sweep rounds."""

    iterations: int
    residual: float
    history: list | None = None
    fallbacks: int = 0


def __getattr__(name):
    # PEP 562: ``solver.spla`` still names scipy's sparse linear algebra, which
    # the module itself imports only where it solves
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ---------------------------------------------------------------------------
# boundary data


def boundary_values(g, grid: GridFunction) -> np.ndarray:
    """Full-shape array holding Dirichlet data on the boundary nodes: g is a
    constant, a grid function or array of the grid's shape, or a function of
    a point stack, called once on the boundary nodes in row-major order."""
    out = np.zeros(grid.shape)
    if np.isscalar(g):
        out[:] = float(g)
        return out
    if isinstance(g, GridFunction):
        if g.shape != grid.shape:
            raise InvalidInputError("boundary grid shape mismatch")
        return g.values.copy()
    if isinstance(g, np.ndarray):
        if g.shape != grid.shape:
            raise InvalidInputError("boundary array shape mismatch")
        return g.copy()
    pts = grid.points().reshape(grid.shape + (grid.dim,))
    bmask = grid.boundary_mask()
    out[bmask] = g(pts[bmask])
    return out


# ---------------------------------------------------------------------------
# sparse solve


def _solve_sparse(A, b):
    """Solve the CSC system A x = b by sparse LU without row pivoting, on a
    minimum-degree order of A^T + A (SuperLU's symmetric mode).

    Every matrix the solvers build is a monotone-scheme matrix: a weakly
    diagonally dominant M-matrix up to sign, with identity rows on the
    boundary. ``_assemble_linear`` rejects non-monotone coefficients, and the
    frame core's Jacobian weights are positive by construction. Elimination
    keeps such a matrix an M-matrix, so its diagonal pivots need no search.
    Where a diagonal entry is exactly zero SuperLU still picks an off-diagonal
    pivot. A singular factor falls back to ``spsolve``'s partial pivoting,
    which returns NaN with a ``MatrixRankWarning``.
    """
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return spla.spsolve(A, b)
    return lu.solve(b)


# ---------------------------------------------------------------------------
# 9-point variable-coefficient linear solver


def _assemble_linear(grid: GridFunction, A_field, b_field, f_vals, gvals):
    """Sparse monotone system for tr(A D^2 u) + b.Du = f, Dirichlet data."""
    import scipy.sparse as sp

    ny, nx = grid.shape
    h = grid.spacing
    h2 = h * h
    inner = (slice(1, -1), slice(1, -1))
    a11, a12, a22 = np.moveaxis(A_field[inner], -1, 0)
    b1, b2 = np.moveaxis(b_field[inner], -1, 0)
    am = np.abs(a12)
    bad = np.argwhere((a11 - am < -1e-12) | (a22 - am < -1e-12))
    if len(bad):
        i, j = bad[0] + 1
        raise AnisotropyError(
            "9-point stencil not monotone at node (%d,%d): "
            "need a11,a22 >= |a12| (a=%r)" % (i, j, tuple(A_field[i, j]))
        )
    # each weight is summed from 0.0 (which turns a -0.0 term into 0.0) in the
    # order the terms are listed: second differences, then upwinded first ones
    ex = 0.0 + (a11 - am) / h2
    ey = 0.0 + (a22 - am) / h2
    centre = 0.0 + -2.0 * (a11 + a22 - am) / h2
    diag = am / h2
    x_up = np.where(b1 >= 0, ex + b1 / h, ex)
    x_dn = np.where(b1 >= 0, ex, ex + -b1 / h)
    centre = centre + np.where(b1 >= 0, -b1 / h, b1 / h)
    y_up = np.where(b2 >= 0, ey + b2 / h, ey)
    y_dn = np.where(b2 >= 0, ey, ey + -b2 / h)
    centre = centre + np.where(b2 >= 0, -b2 / h, b2 / h)

    k = np.arange(ny * nx).reshape(ny, nx)[inner]
    s = np.where(a12 >= 0, 1, -1)  # the cross term sits on the (1,s) diagonal
    cols = np.stack([k + nx, k - nx, k + 1, k - 1, k, k + nx + s, k - nx - s])
    data = np.stack([x_up, x_dn, y_up, y_dn, centre, diag, diag])
    interior = grid.interior_mask()
    bnd = np.flatnonzero(~interior)
    rows = np.concatenate([np.broadcast_to(k, cols.shape).ravel(), bnd])
    cols = np.concatenate([cols.ravel(), bnd])
    data = np.concatenate([data.ravel(), np.ones(len(bnd))])
    Asp = sp.csc_matrix((data, (rows, cols)), shape=(ny * nx, ny * nx))
    rhs = np.where(interior, f_vals, gvals).ravel()
    return Asp, rhs


def solve_linear(A, b, f: GridFunction, g, config: SolveConfig = None):
    """Dirichlet solve of tr(A D^2 u) + b.Du = f with constant A (positive
    definite) and constant drift b; returns (u, SolveInfo) with the residual
    max |A u - rhs| of the direct solve."""
    config = config or SolveConfig()
    if f.dim != 2:
        raise InvalidInputError("solve_linear expects a 2D grid")
    Af = _dense(A)
    ev = np.linalg.eigvalsh(Af)
    if ev[0] <= 0:
        raise ParameterError("coefficient matrix must be positive definite")
    b = np.zeros(2) if b is None else np.asarray(b, dtype=float)
    shape = f.shape
    A_field = np.broadcast_to([Af[0, 0], Af[0, 1], Af[1, 1]], shape + (3,))
    b_field = np.broadcast_to(b, shape + (2,))
    gvals = boundary_values(g, f)
    Asp, rhs = _assemble_linear(f, A_field, b_field, f.values, gvals)
    sol = _solve_sparse(Asp, rhs)
    out = GridFunction(f.dim, f.shape, f.origin, f.spacing, sol.reshape(shape))
    res = float(np.max(np.abs(Asp @ sol - rhs)))
    if res > max(config.tol, 1e-8 * (1 + np.max(np.abs(rhs)))):
        raise IterationLimitError("direct linear solve residual too large", residual=res)
    return out, SolveInfo(1, res)


# ---------------------------------------------------------------------------
# wide stencils


def stencil_frames(m: int):
    """Orthogonal integer direction frames for m stencil directions."""
    frames = []
    seen = set()
    for j in range(m // 2):
        theta = j * math.pi / m
        v = np.array(
            [int(math.floor(2 * math.cos(theta) + 0.5)), int(math.floor(2 * math.sin(theta) + 0.5))]
        )
        gg = math.gcd(abs(int(v[0])), abs(int(v[1])))
        if gg > 0:
            v = v // gg
        if v[0] == 0 and v[1] == 0:
            continue
        w = np.array([-v[1], v[0]])
        key = (int(v[0]), int(v[1]))
        if key in seen:
            continue
        seen.add(key)
        frames.append((v, w))
    return frames


class _WideStencilProblem:
    """The frame core shared by the Pucci and determinant schemes.

    All work is on whole arrays over the interior nodes. ``frame_value(D)``
    maps the second differences D[frame, v|w, i, j] to each frame's value;
    ``coefficients(D)`` maps those of the active frame, D[v|w, i, j], to the
    Jacobian weight of each direction (a direction with weight <= 0 has no
    entries). The scheme is the min over the frames that fit inside the grid
    at a node, or the max when ``maximize``; frame 0, the axes, always fits.
    """

    def __init__(self, f: GridFunction, g, config: SolveConfig, frame_value, coefficients,
                 maximize=False):
        if f.dim != 2:
            raise InvalidInputError("wide-stencil solvers expect a 2D grid")
        self.f = f
        self.config = config
        self.h = f.spacing
        self.shape = f.shape
        self.gvals = boundary_values(g, f)
        self.frame_value = frame_value
        self.coefficients = coefficients
        self.maximize = maximize
        frames = stencil_frames(config.stencil_directions)
        self.dirs = np.array([[v, w] for v, w in frames])  # (frame, v|w, axis)
        self.w2 = np.array([[self.h * self.h * float(d @ d) for d in fr] for fr in frames])
        ny, nx = f.shape
        self.flat = self.dirs @ np.array([nx, 1])  # offsets in the raveled grid
        self.reach = int(np.abs(self.dirs).max())
        i = np.arange(1, ny - 1)[:, None]
        j = np.arange(1, nx - 1)[None, :]
        room = np.minimum(np.minimum(i, ny - 1 - i), np.minimum(j, nx - 1 - j))
        self.fits = np.abs(self.dirs).max(axis=(1, 2))[:, None, None] <= room
        self.nodes = np.arange(ny * nx).reshape(ny, nx)[1:-1, 1:-1]
        self.boundary = np.flatnonzero(f.boundary_mask())

    def second_diffs(self, u, centre=None):
        """D[frame, v|w, i, j] = (u(x+hd) - 2 c + u(x-hd)) / (h|d|)^2 at the
        interior nodes, with c = ``centre`` (default: u there). Entries of a
        frame that does not fit at a node are meaningless."""
        R = self.reach
        ny, nx = self.shape
        up = np.pad(u, R)
        c = u[1:-1, 1:-1] if centre is None else centre
        D = np.empty(self.dirs.shape[:2] + c.shape)
        for fi, frame in enumerate(self.dirs):
            for s, (di, dj) in enumerate(frame):
                plus = up[R + 1 + di:R + ny - 1 + di, R + 1 + dj:R + nx - 1 + dj]
                minus = up[R + 1 - di:R + ny - 1 - di, R + 1 - dj:R + nx - 1 - dj]
                D[fi, s] = (plus - 2.0 * c + minus) / self.w2[fi, s]
        return D

    def frame_values(self, D):
        """Frame values, +inf (-inf for a max) where the frame does not fit."""
        return np.where(self.fits, self.frame_value(D), -np.inf if self.maximize else np.inf)

    def residual(self, u):
        """(r, D, active): the residual on the full grid (0 on the boundary),
        the second differences and the active frame of every interior node."""
        D = self.second_diffs(u)
        vals = self.frame_values(D)
        active = (np.argmax if self.maximize else np.argmin)(vals, axis=0)
        r = np.zeros(self.shape)
        r[1:-1, 1:-1] = np.take_along_axis(vals, active[None], 0)[0] - self.f.values[1:-1, 1:-1]
        return r, D, active

    def jacobian(self, D, active):
        """The sparse linearization at the active frames, with identity rows on
        the boundary."""
        import scipy.sparse as sp

        coeff = self.coefficients(np.take_along_axis(D, active[None, None], 0)[0])
        w2 = np.moveaxis(self.w2[active], -1, 0)
        used = coeff > 0
        cen = np.where(used, coeff * -2.0 / w2, 0.0)
        # summed from 0.0 in direction order, as a nodewise stencil would
        centre = (0.0 + cen[0]) + cen[1]
        off, side = np.moveaxis(self.flat[active], -1, 0), coeff / w2
        k = self.nodes
        cols = np.stack([k + off[0], k - off[0], k + off[1], k - off[1], k])
        data = np.stack([side[0], side[0], side[1], side[1], centre])
        keep = np.stack([used[0], used[0], used[1], used[1], used[0] | used[1]])
        rows = np.concatenate([np.broadcast_to(k, keep.shape)[keep], self.boundary])
        cols = np.concatenate([cols[keep], self.boundary])
        data = np.concatenate([data[keep], np.ones(len(self.boundary))])
        n = self.f.values.size
        return sp.csc_matrix((data, (rows, cols)), shape=(n, n))

    def bisection_sweep(self, u):
        """Solve every node's equation for its own value with the neighbours
        frozen (a nonlinear Jacobi step): the node's scheme value decreases in
        its centre value. A node whose bracket cannot be found keeps its value."""
        u0 = u[1:-1, 1:-1].copy()
        target = self.f.values[1:-1, 1:-1]

        def local(t):
            vals = self.frame_values(self.second_diffs(u, centre=t))
            return (vals.max(axis=0) if self.maximize else vals.min(axis=0)) - target

        stuck = np.zeros(u0.shape, dtype=bool)
        lo, hi = u0.copy(), u0.copy()
        for t, sign in ((lo, -1.0), (hi, 1.0)):
            step = 1.0 + np.abs(u0)
            while True:
                move = ~stuck & (sign * local(t) > 0)
                if not move.any():
                    break
                t[move] += sign * step[move]
                step[move] *= 2
                stuck |= move & (step > 1e8)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            above = local(mid) > 0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        u[1:-1, 1:-1] = np.where(stuck, u0, 0.5 * (lo + hi))

    def initial_iterate(self, rhs=None):
        f0 = self.f if rhs is None else GridFunction(
            2, self.shape, self.f.origin, self.h, rhs
        )
        return solve_linear(np.eye(2), None, f0, self.gvals, self.config)[0].values

    def solve(self, init_rhs=None):
        """Damped Newton, halving the step up to 8 times until the max residual
        falls; after 3 failed steps or a failed solve, 10 nodal bisection sweeps."""
        cfg = self.config
        u = self.initial_iterate(init_rhs)
        history = []
        fails = fallbacks = 0
        res, D, active = self.residual(u)
        for it in range(cfg.max_iters):
            rnorm = float(np.max(np.abs(res)))
            history.append(rnorm)
            if rnorm <= cfg.tol:
                return self._result(u, SolveInfo(it, rnorm, history, fallbacks))
            rhs = np.zeros(self.shape)
            rhs[1:-1, 1:-1] = -res[1:-1, 1:-1]
            J = self.jacobian(D, active)
            try:
                du = _solve_sparse(J, rhs.ravel()).reshape(self.shape)
            except (RuntimeError, ValueError):
                du = None
            stepped = False
            if du is not None and np.all(np.isfinite(du)):
                alpha = 1.0
                for _ in range(9):
                    cand = u + alpha * du
                    cand_eval = self.residual(cand)
                    if float(np.max(np.abs(cand_eval[0]))) < rnorm:
                        u, (res, D, active) = cand, cand_eval
                        stepped = True
                        break
                    alpha *= 0.5
            if stepped:
                fails = 0
                continue
            fails += 1
            if fails >= 3 or du is None:
                for _sweep in range(10):
                    self.bisection_sweep(u)
                res, D, active = self.residual(u)
                fails = 0
                fallbacks += 1
        rnorm = float(np.max(np.abs(res)))
        if rnorm <= cfg.tol:
            return self._result(u, SolveInfo(cfg.max_iters, rnorm, history, fallbacks))
        raise IterationLimitError(
            "wide-stencil solve did not converge", residual=rnorm, history=history
        )

    def _result(self, u, info):
        return GridFunction(2, self.shape, self.f.origin, self.h, u), info


def _pucci_scheme(lam, Lam, sign):
    """(frame_value, coefficients, maximize) of the Pucci scheme."""
    up, down = (lam, Lam) if sign == "minus" else (Lam, lam)

    def slope(D):
        # the weight of d_v in its term, which is also the Jacobian weight
        return np.where(D > 0, up, down)

    def frame_value(D):
        terms = slope(D) * D
        return terms[:, 0] + terms[:, 1]

    return frame_value, slope, sign == "plus"


def _ma_scheme(K):
    """(frame_value, coefficients, maximize) of the penalized determinant
    scheme prod_v max(d_v, 0) + K sum_v min(d_v, 0)."""

    def frame_value(D):
        pos, neg = np.maximum(D, 0.0), np.minimum(D, 0.0)
        return pos[:, 0] * pos[:, 1] + K * (neg[:, 0] + neg[:, 1])

    def coefficients(D):
        # d/d(d_v) of the product is max(d_w, 0) where d_v > 0, else the penalty K
        return np.where(D > 0, np.maximum(D, 0.0)[::-1], K)

    return frame_value, coefficients, False


def solve_pucci(lam, Lam, sign, f: GridFunction, g, config: SolveConfig = None):
    """Wide-stencil Dirichlet solve of the Pucci extremal equation; returns
    (u, SolveInfo)."""
    if not (0 < lam <= Lam):
        raise ParameterError("pucci solve requires 0 < lambda <= Lambda")
    if sign not in ("plus", "minus"):
        raise ParameterError("sign must be 'plus' or 'minus'")
    config = config or SolveConfig()
    prob = _WideStencilProblem(f, g, config, *_pucci_scheme(lam, Lam, sign))
    return prob.solve()


def solve_monge_ampere(f: GridFunction, g, config: SolveConfig = None):
    """Wide-stencil Dirichlet solve of det D^2 u = f (f > 0, n = 2); returns
    (u, SolveInfo).

    Off the convex cone the plain product of positive parts is flat (zero
    products, zero derivatives), so the scheme adds the standard negative-part
    penalty K * sum_v min(d_v, 0) per frame. The penalty vanishes wherever all
    directional second differences are nonnegative, so the discrete solutions
    (which are discretely convex) are those of the plain product scheme, while
    the iteration stays strictly monotone everywhere.
    """
    config = config or SolveConfig()
    if np.any(f.values <= 0):
        raise AdmissibilityError("determinant equation requires f > 0")
    K = 1.0 + float(np.max(f.values))
    prob = _WideStencilProblem(f, g, config, *_ma_scheme(K))
    # trace-consistent Poisson start: det(D^2 u) = f has trace n f^{1/n} at
    # isotropic Hessians, so this reproduces aligned paraboloids exactly
    return prob.solve(init_rhs=2.0 * np.sqrt(f.values))


def solve_mean_curvature(
    f: GridFunction, g, delta_guard: float = 0.1, config: SolveConfig = None
):
    """Frozen-coefficient Picard iteration for div(Du / sqrt(1+|Du|^2)) = f;
    returns (u, SolveInfo) with the Picard steps taken and the last update.

    Refuses data outside the small-data regime: ||f||_inf and the affinely
    detrended boundary oscillation must not exceed delta_guard.
    """
    config = config or SolveConfig()
    if f.dim != 2:
        raise InvalidInputError("solve_mean_curvature expects a 2D grid")
    gvals = boundary_values(g, f)
    bmask = f.boundary_mask()
    pts = f.points().reshape(f.shape + (2,))
    bx = pts[bmask]
    bv = gvals[bmask]
    # detrend by the least-squares affine part before measuring oscillation
    design = np.hstack([np.ones((len(bx), 1)), bx])
    coef, *_ = np.linalg.lstsq(design, bv, rcond=None)
    detr = bv - design @ coef
    osc = float(detr.max() - detr.min()) if len(detr) else 0.0
    fmax = float(np.max(np.abs(f.values)))
    if fmax > delta_guard or osc > delta_guard:
        raise SmallDataError(
            "data outside the small-data guard %g: ||f||=%g, detrended boundary "
            "oscillation=%g" % (delta_guard, fmax, osc)
        )

    u = solve_linear(np.eye(2), None, f, gvals, config)[0].values
    h = f.spacing
    shape = f.shape
    scale0 = float(np.max(np.abs(u))) + 1.0
    for it in range(config.max_iters):
        p1 = np.zeros(shape)
        p2 = np.zeros(shape)
        p1[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2 * h)
        p2[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2 * h)
        w2 = 1.0 + p1**2 + p2**2
        A_field = np.stack([1.0 - p1 * p1 / w2, -p1 * p2 / w2, 1.0 - p2 * p2 / w2], axis=-1)
        rhs = f.values * np.sqrt(w2)
        b_field = np.zeros(shape + (2,))
        try:
            Asp, rvec = _assemble_linear(f, A_field, b_field, rhs, gvals)
        except AnisotropyError as exc:
            raise SmallDataError(
                "frozen coefficients left the monotone regime (guard %g): %s"
                % (delta_guard, exc)
            )
        new = _solve_sparse(Asp, rvec).reshape(shape)
        gap = float(np.max(np.abs(new - u)))
        u = new
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 50 * scale0:
            raise SmallDataError(
                "Picard iteration diverged under the small-data guard %g" % delta_guard
            )
        if gap <= max(config.tol, 1e-13) * scale0:
            return GridFunction(2, shape, f.origin, h, u), SolveInfo(it + 1, gap)
    raise SmallDataError(
        "Picard iteration did not settle in %d steps (guard %g)"
        % (config.max_iters, delta_guard)
    )


# ---------------------------------------------------------------------------
# residual of an operator on a grid function


def residual(op: OperatorSpec, u: GridFunction, f: GridFunction) -> GridFunction:
    """evaluate(op, central-difference jet) - f on the interior nodes.

    This matches a scheme's own residual only where the scheme coincides with
    central differences (linear diagonal-coefficient solves, quadratics whose
    Hessian is aligned with the stencil)."""
    if u.shape != f.shape:
        raise InvalidInputError("residual needs matching grids")
    if u.dim != 2:
        raise InvalidInputError("residual expects a 2D grid")
    h = u.spacing
    v = u.values
    c = v[1:-1, 1:-1]
    uxx = (v[2:, 1:-1] - 2 * c + v[:-2, 1:-1]) / h**2
    uyy = (v[1:-1, 2:] - 2 * c + v[1:-1, :-2]) / h**2
    uxy = (v[2:, 2:] + v[:-2, :-2] - v[2:, :-2] - v[:-2, 2:]) / (4 * h**2)
    M = np.stack([np.stack([uxx, uxy], -1), np.stack([uxy, uyy], -1)], -2)
    px = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * h)
    py = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * h)
    x = u.points().reshape(u.shape + (2,))[1:-1, 1:-1]
    out = np.zeros(u.shape)
    out[1:-1, 1:-1] = evaluate_many(op, M, np.stack([px, py], -1), c, x) - f.values[1:-1, 1:-1]
    return GridFunction(2, u.shape, u.origin, h, out)
