"""Multi-index polynomials and best sup-norm (minimax) polynomial fits.

A polynomial is stored as a coefficient table a_sigma over multi-indices with
the factorial convention P(x) = sum a_sigma / sigma! * x^sigma, so that the
coefficients of derivatives are plain index shifts and the weighted norm

    ||P||_r = sum_{|sigma| <= k} r^{|sigma|} |a_sigma|

measures the polynomial on the ball of radius r.

The minimax fit solves min_P max_i |u_i - P(x_i - x0)| as a linear program.
The LP is solved through its dual (a standard-form problem with one column
per signed residual constraint and a basis of size dim(P_k) + 1) by an
in-repo primal simplex with Bland's pivoting rule, so runs are exactly
reproducible. An optional operator constraint is enforced after the fit by
the t*I correction: the unique t with F(D^2P + tI, DP(0), P(0), x0) = f0 is
located by safeguarded Newton and t/2*|x - x0|^2 is added to P.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintInfeasibleError,
    InvalidInputError,
    ParameterError,
    RankError,
    SingularityError,
)

# ---------------------------------------------------------------------------
# polynomials


def multi_indices(dim: int, degree: int):
    """All multi-indices sigma with |sigma| <= degree, graded lexicographic."""
    out = []
    for total in range(degree + 1):
        for comb in itertools.combinations_with_replacement(range(dim), total):
            sigma = [0] * dim
            for i in comb:
                sigma[i] += 1
            out.append(tuple(sigma))
    return out


def _factorial_sigma(sigma) -> float:
    out = 1.0
    for s in sigma:
        out *= math.factorial(s)
    return out


@dataclass(frozen=True)
class Polynomial:
    """P(x) = sum_sigma a_sigma / sigma! * x^sigma, |sigma| <= degree."""

    dim: int
    degree: int
    coeffs: dict  # multi-index tuple -> a_sigma

    def __post_init__(self):
        for sigma, a in self.coeffs.items():
            if len(sigma) != self.dim or sum(sigma) > self.degree:
                raise InvalidInputError("coefficient index %r out of range" % (sigma,))
            if not math.isfinite(a):
                raise InvalidInputError("non-finite polynomial coefficient")

    # -- construction ---------------------------------------------------------

    @staticmethod
    def zero(dim: int, degree: int = 0) -> "Polynomial":
        return Polynomial(dim, degree, {})

    @staticmethod
    def from_quadratic(A, b, c, dim=None) -> "Polynomial":
        """1/2 x^T A x + b.x + c as a coefficient table."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0] if dim is None else dim
        coeffs = {}
        if c:
            coeffs[(0,) * n] = float(c)
        for i in range(n):
            bi = float(np.asarray(b, dtype=float)[i]) if b is not None else 0.0
            if bi:
                sigma = [0] * n
                sigma[i] = 1
                coeffs[tuple(sigma)] = bi
        for i in range(n):
            for j in range(i, n):
                sigma = [0] * n
                sigma[i] += 1
                sigma[j] += 1
                if A[i, j]:
                    coeffs[tuple(sigma)] = float(A[i, j])
        return Polynomial(n, 2, coeffs)

    @staticmethod
    def half_square_norm(n: int) -> "Polynomial":
        """|x|^2 / 2."""
        return Polynomial.from_quadratic(np.eye(n), None, 0.0)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x):
        """P at a point x[dim] (a float) or a stack of points x[..., dim]."""
        x = np.asarray(x, dtype=float)
        mono = {s: a / _factorial_sigma(s) for s, a in self.coeffs.items()}
        out = _horner(mono, x.T, self.dim)
        return float(out) if x.ndim <= 1 else out.T

    def gradient(self, x) -> np.ndarray:
        return np.array([self.derivative(_unit(self.dim, i))(x) for i in range(self.dim)])

    def hessian(self, x) -> np.ndarray:
        n = self.dim
        H = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                tau = [0] * n
                tau[i] += 1
                tau[j] += 1
                H[i, j] = H[j, i] = self.derivative(tuple(tau))(x)
        return H

    # -- algebra --------------------------------------------------------------

    def derivative(self, tau) -> "Polynomial":
        """D^tau P; in the factorial convention the coefficients shift:
        (D^tau P)_mu = a_{mu + tau}."""
        tau = tuple(tau)
        new = {}
        for sigma, a in self.coeffs.items():
            mu = tuple(s - t for s, t in zip(sigma, tau))
            if all(m >= 0 for m in mu):
                new[mu] = a
        deg = max(0, self.degree - sum(tau))
        return Polynomial(self.dim, deg, new)

    def norm(self, r: float = 1.0) -> float:
        if r <= 0:
            raise ParameterError("poly_norm requires r > 0")
        return float(sum(r ** sum(s) * abs(a) for s, a in self.coeffs.items()))

    def plus(self, other: "Polynomial") -> "Polynomial":
        if other.dim != self.dim:
            raise InvalidInputError("polynomial dimension mismatch")
        coeffs = dict(self.coeffs)
        for s, a in other.coeffs.items():
            coeffs[s] = coeffs.get(s, 0.0) + a
        coeffs = {s: a for s, a in coeffs.items() if a != 0.0}
        return Polynomial(self.dim, max(self.degree, other.degree), coeffs)

    def minus(self, other: "Polynomial") -> "Polynomial":
        return self.plus(other.scaled(-1.0))

    def scaled(self, c: float) -> "Polynomial":
        return Polynomial(self.dim, self.degree, {s: c * a for s, a in self.coeffs.items()})

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        terms = [
            {"sigma": list(s), "a": a}
            for s, a in sorted(self.coeffs.items())
        ]
        return {"dim": self.dim, "degree": self.degree, "terms": terms}

    @staticmethod
    def from_dict(d) -> "Polynomial":
        coeffs = {tuple(t["sigma"]): float(t["a"]) for t in d["terms"]}
        return Polynomial(int(d["dim"]), int(d["degree"]), coeffs)


def _unit(dim, i):
    tau = [0] * dim
    tau[i] = 1
    return tuple(tau)


def _horner(mono: dict, xt: np.ndarray, dim: int):
    """Nested Horner evaluation of a monomial table; xt[i] is coordinate i
    (a scalar for a single point, so no 0-d arrays are made)."""
    if not mono:
        return np.zeros(xt.shape[1:])
    if dim == 1:
        dmax = max(s[0] for s in mono)
        acc = 0.0
        for e in range(dmax, -1, -1):
            acc = acc * xt[0] + mono.get((e,), 0.0)
        return acc
    # group by the exponent of the last variable
    groups = {}
    for sigma, c in mono.items():
        groups.setdefault(sigma[-1], {})[sigma[:-1]] = c
    dmax = max(groups)
    acc = 0.0
    for e in range(dmax, -1, -1):
        inner = _horner(groups[e], xt[:-1], dim - 1) if e in groups else 0.0
        acc = acc * xt[-1] + inner
    return acc


def eval_poly(P: Polynomial, x) -> float:
    return P(x)


def poly_norm(P: Polynomial, r: float) -> float:
    return P.norm(r)


# ---------------------------------------------------------------------------
# sampling helpers


def ball_samples(fn, x0, radius, m: int = 8):
    """Tensor grid of (2m+1)^n points on the cube around x0 intersected with
    the closed ball of the given radius; returns (points, values). fn is a
    function of a point stack, called once on the points."""
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    axis = np.linspace(-radius, radius, 2 * m + 1)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    keep = np.linalg.norm(pts, axis=1) <= radius + 1e-12
    pts = pts[keep] + x0
    return pts, fn(pts)


# ---------------------------------------------------------------------------
# simplex (standard form min c.x, A x = b, x >= 0; Bland's rule)


def _simplex_standard(c, A, b, max_iters=50000, tol=1e-11):
    """Two-phase primal simplex. Returns (x, basis, multipliers)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    nrow, ncol = A.shape
    flip = b < 0
    if np.any(flip):
        A = A.copy()
        A[flip] *= -1.0
        b[flip] *= -1.0

    def run(cost, A_ext, basis):
        # Dantzig entering for speed; a stalled objective (degenerate pivots)
        # switches to Bland's smallest-index rule, which guarantees
        # termination
        basis = list(basis)
        in_basis = np.zeros(A_ext.shape[1], dtype=bool)
        in_basis[basis] = True
        bland = False
        last_obj, stall = math.inf, 0
        for _ in range(max_iters):
            B = A_ext[:, basis]
            try:
                pi = np.linalg.solve(B.T, cost[basis])
            except np.linalg.LinAlgError:
                raise RankError("singular basis in simplex")
            reduced = cost - pi @ A_ext
            reduced[in_basis] = 0.0
            if bland:
                neg = np.nonzero(reduced < -tol)[0]
                entering = int(neg[0]) if len(neg) else -1
            else:
                entering = int(np.argmin(reduced))
                if reduced[entering] >= -tol:
                    entering = -1
            xb = np.linalg.solve(B, b)
            if entering < 0:
                return basis, xb, pi
            obj = float(cost[basis] @ xb)
            if obj < last_obj - tol:
                last_obj, stall = obj, 0
            else:
                stall += 1
                if stall > 30:
                    bland = True
            y = np.linalg.solve(B, A_ext[:, entering])
            best, leave = math.inf, -1
            for i in range(nrow):
                if y[i] > tol:
                    ratio = xb[i] / y[i]
                    if ratio < best - 1e-15 or (
                        abs(ratio - best) <= 1e-15
                        and (leave < 0 or basis[i] < basis[leave])
                    ):
                        best, leave = ratio, i
            if leave < 0:
                raise RankError("unbounded LP (degenerate sample geometry)")
            in_basis[basis[leave]] = False
            in_basis[entering] = True
            basis[leave] = entering
        raise RankError("simplex iteration limit reached")

    # phase 1
    A1 = np.hstack([A, np.eye(nrow)])
    c1 = np.concatenate([np.zeros(ncol), np.ones(nrow)])
    basis = list(range(ncol, ncol + nrow))
    basis, xb, _ = run(c1, A1, basis)
    if xb @ c1[basis] > 1e-8 * max(1.0, float(np.abs(b).sum())):
        raise RankError("infeasible LP")
    # drive artificials out where possible
    for i, bi in enumerate(basis):
        if bi >= ncol:
            B = A1[:, basis]
            for j in range(ncol):
                if j in basis:
                    continue
                y = np.linalg.solve(B, A[:, j])
                if abs(y[i]) > tol:
                    basis[i] = j
                    break
    if any(bi >= ncol for bi in basis):
        raise RankError("degenerate sample geometry (rank-deficient constraints)")

    # phase 2
    basis, xb, pi = run(c, A, basis)
    x = np.zeros(ncol)
    for i, bi in enumerate(basis):
        x[bi] = xb[i]
    return x, basis, pi


# ---------------------------------------------------------------------------
# minimax fit


@dataclass
class MinimaxFit:
    """Best sup-norm polynomial fit on a sampled ball, centered at x0."""

    P: Polynomial
    error: float
    active_points: list
    constrained: bool = False
    t_correction: float = 0.0
    x0: tuple = ()
    radius: float = 0.0
    residuals: np.ndarray = field(default=None, repr=False)

    def to_dict(self):
        return {
            "P": self.P.to_dict(),
            "error": self.error,
            "active_points": list(map(int, self.active_points)),
            "constrained": self.constrained,
            "t_correction": self.t_correction,
            "x0": list(self.x0),
            "radius": self.radius,
            "P_norm": self.P.norm(1.0),
        }


def _design_matrix(points, x0, degree):
    x0 = np.asarray(x0, dtype=float)
    pts = np.asarray(points, dtype=float) - x0
    dim = pts.shape[1]
    sigmas = multi_indices(dim, degree)
    cols = []
    for sigma in sigmas:
        col = np.ones(len(pts))
        for d, e in enumerate(sigma):
            if e:
                col = col * pts[:, d] ** e
        cols.append(col / _factorial_sigma(sigma))
    return np.stack(cols, axis=-1), sigmas


def _fit_errors(P, points, values, x0):
    x0 = np.asarray(x0, dtype=float)
    res = values - P(points - x0)
    err = float(np.max(np.abs(res))) if len(res) else 0.0
    active = [int(i) for i in np.nonzero(np.abs(res) >= err * (1 - 1e-9))[0]] if err > 0 else []
    return res, err, active


def minimax_fit(points, values, x0, radius, degree, constraint=None, t_bound=16.0):
    """Minimize max_i |values_i - P(points_i - x0)| over P of the given degree.

    constraint, when present, is a pair (OperatorSpec, f0): after the
    unconstrained fit the scalar t* solving
        evaluate(op, (D^2P(0) + t* I, DP(0), P(0), x0)) = f0
    is found by safeguarded Newton (bisection fallback on a sign change,
    |t| <= t_bound) and t*/2*|x-x0|^2 is added to P; the reported error is
    recomputed after the correction.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    x0 = np.asarray(x0, dtype=float)
    npts, dim = points.shape
    if np.any(np.linalg.norm(points - x0, axis=1) > radius * (1 + 1e-9)):
        raise InvalidInputError("sample point outside the fit ball")

    Phi, sigmas = _design_matrix(points, x0, degree)
    d = len(sigmas)
    if npts < d:
        raise RankError("need at least dim(P_k)=%d sample points, got %d" % (d, npts))
    if np.linalg.matrix_rank(Phi, tol=1e-10 * max(1.0, radius) ** degree) < d:
        raise RankError("degenerate sample geometry: design matrix rank deficient")

    # dual LP: max u.(y-z) s.t. Phi^T (y-z) = 0, sum(y+z) = 1, y,z >= 0
    A = np.zeros((d + 1, 2 * npts))
    A[:d, :npts] = Phi.T
    A[:d, npts:] = -Phi.T
    A[d, :] = 1.0
    b = np.zeros(d + 1)
    b[d] = 1.0
    c = np.concatenate([-values, values])
    _, _, pi = _simplex_standard(c, A, b)
    coef = -pi[:d]

    coeffs = {sigmas[i]: float(coef[i]) for i in range(d) if coef[i] != 0.0}
    P = Polynomial(dim, degree, coeffs)
    res, err, active = _fit_errors(P, points, values, x0)
    fit = MinimaxFit(P, err, active, x0=tuple(x0), radius=float(radius), residuals=res)

    if constraint is None:
        return fit

    from .operators import evaluate_many  # local import avoids a cycle

    op, f0 = constraint
    if degree < 2:
        raise ParameterError("constrained fits require degree >= 2")
    zero = np.zeros(dim)
    H0 = P.hessian(zero)
    Dp0 = P.gradient(zero)
    s0 = P(zero)

    def g(t):
        return float(evaluate_many(op, H0 + t * np.eye(dim), Dp0, s0, x0)) - f0

    tstar = _solve_t_correction(g, t_bound)
    corr = Polynomial.half_square_norm(dim).scaled(tstar)
    P2 = P.plus(corr)
    res2, err2, active2 = _fit_errors(P2, points, values, x0)
    return MinimaxFit(
        P2,
        err2,
        active2,
        constrained=True,
        t_correction=tstar,
        x0=tuple(x0),
        radius=float(radius),
        residuals=res2,
    )


def _solve_t_correction(g, t_bound):
    """Root of the monotone scalar map t -> F(D^2P + tI, ...) - f0."""
    g0 = g(0.0)
    if abs(g0) < 1e-14:
        return 0.0
    # ellipticity makes g strictly increasing; bracket by expansion
    step = min(1.0, t_bound)
    while step <= t_bound * (1 + 1e-12):
        cand = -step if g0 > 0 else step
        try:
            gc = g(cand)
        except Exception:
            gc = np.nan  # fails every sign test below
        if (g0 > 0 and gc <= 0) or (g0 < 0 and gc >= 0):
            lo, hi = (cand, 0.0) if cand < 0 else (0.0, cand)
            break
        step *= 2.0
    else:  # no break: no bracket
        raise ConstraintInfeasibleError(
            "no sign change of the compatibility map within |t| <= %g" % t_bound
        )
    glo = g(lo)
    t = 0.5 * (lo + hi)
    for _ in range(200):
        gt = g(t)
        if abs(gt) < 1e-13:
            break
        h = 1e-7 * max(1.0, abs(t))
        dg = (g(t + h) - g(t - h)) / (2 * h)
        t_new = t - gt / dg if abs(dg) > 1e-14 else np.nan
        newton = lo < t_new < hi  # else bisect the bracket updated below
        if gt * glo < 0:
            hi = t
        else:
            lo, glo = t, gt
        t = t_new if newton else 0.5 * (lo + hi)
        if hi - lo < 1e-15 * max(1.0, abs(t)):
            break
    return float(t)


# ---------------------------------------------------------------------------
# Taylor polynomials of analytic fixtures


def taylor_of(fixture, x0, k: int) -> Polynomial:
    """Taylor polynomial of a fixture at x0 from its analytic value,
    gradient and Hessian, so k <= 2.
    """
    x0 = np.asarray(x0, dtype=float)
    if fixture.is_singular(x0, order=min(k, 2)):
        raise SingularityError(
            "fixture %r has no order-%d derivatives at %s" % (fixture.name, k, x0.tolist())
        )
    if k > 2:
        raise ParameterError(
            "fixture %r provides derivatives up to order 2; requested k=%d"
            % (fixture.name, k)
        )
    n = fixture.dim
    coeffs = {(0,) * n: float(fixture(x0))}
    if k >= 1:
        gradv = fixture.grad(x0)
        for i in range(n):
            if gradv[i]:
                coeffs[_unit(n, i)] = float(gradv[i])
    if k >= 2:
        H = fixture.hess(x0)
        for i in range(n):
            for j in range(i, n):
                a = float(H[i, j])
                if a:
                    sigma = [0] * n
                    sigma[i] += 1
                    sigma[j] += 1
                    coeffs[tuple(sigma)] = a
    return Polynomial(n, k, coeffs)
