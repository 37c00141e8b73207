"""Discrete convex envelopes, the ABP inequality check, and section geometry.

The lower convex envelope of a grid function is computed by iterated lower
hull sweeps along the axis and diagonal grid directions until a fixed point.
A sweep hulls every masked run of every line of one direction at once. It
first tests every node of the grid against the chord of its two neighbours
along the direction, on shifted slices of the whole grid. If a node lies on
or above its chord, all lines of the direction go through the array passes
that drop such nodes, in blocks of 32 lines; otherwise every line is already
convex and takes its chord values on the slices. Each sweep is monotone (it
never drops below the largest directionally convex minorant), so the
iteration converges to that minorant: an outer approximation of the true
convex envelope with O(h) bias.

The ABP check measures sup u^- against the discrete L^n norm of f^+ over the
contact set where u meets its convex envelope, on the ball inscribed in the
grid box (the natural domain of the estimate; the supporting planes of a
convex u on the ball are cut off by a larger extension box, which would
shrink the contact set below its continuum value).

Sections S_h(x0) = {u - supporting affine function < h} of a convex function
are traced by expansion and bisection along rays, all rays in lockstep with
one evaluation of u per step on the stack of ray points. Here, as everywhere
in the package, a function of a point is called on a stack x[..., n] and
gives the values of its batch shape (a float at a single point x[n]). The
minimum-volume enclosing ellipsoid of the section boundary (Newton steps on
the dual D-optimal design over an active set of touching points) yields the
affine normalization T with B_{1/n} subset T(S_h) subset B_1 and the
scale-invariant product (det T)^2 h^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    IterationLimitError,
    NonConvexityError,
    ParameterError,
    RankError,
    SectionEscapeError,
)
from .grid import GridFunction
from .operators import eigenvalues_sym

# ---------------------------------------------------------------------------
# lower convex envelope


_BLOCK = 32  # grid lines hulled per array pass; bounds the working set


def _at_or_before(marked, pos):
    """Last marked position at or before each node of each line (-1: none)."""
    return np.maximum.accumulate(np.where(marked, pos, -1), axis=1)


def _at_or_after(marked, pos):
    """First marked position at or after each node of each line (m: none)."""
    m = marked.shape[1]
    return np.minimum.accumulate(np.where(marked, pos, m)[:, ::-1], axis=1)[:, ::-1]


def _hull_lines(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Lower convex hull of every masked run of every line (row) of v,
    re-evaluated at each node of the runs longer than two.

    Each pass tests every alive node b against its nearest alive neighbours
    a < b < k and drops it when (v[b]-v[a])(k-b) >= (v[k]-v[b])(b-a), i.e.
    when it lies on or above their chord, until no node drops. A node k then
    takes the chord value v[a] + (v[b]-v[a])(k-a)/(b-a) of the hull vertices
    a <= k < b (b = k at the end of a run).
    """
    L, m = v.shape
    pos = np.broadcast_to(np.arange(m), (L, m))
    end = mask & ~np.pad(mask[:, 1:], ((0, 0), (0, 1)))  # last node of a run
    start = _at_or_before(~mask, pos) + 1
    stop = _at_or_after(end, pos)
    hull = mask & (stop - start >= 2)
    alive = hull.copy()
    while True:
        # nearest alive node or run boundary on either side
        bound = alive | ~mask
        a = np.pad(_at_or_before(bound, pos)[:, :-1], ((0, 0), (1, 0)), constant_values=-1)
        k = np.pad(_at_or_after(bound, pos)[:, 1:], ((0, 0), (0, 1)), constant_values=m)
        r, b = np.nonzero(alive & (a >= start) & (k <= stop))
        a, k = a[r, b], k[r, b]
        drop = (v[r, b] - v[r, a]) * (k - b) >= (v[r, k] - v[r, b]) * (b - a)
        if not drop.any():
            break
        alive[r[drop], b[drop]] = False
    vertex = alive & ~end
    r, k = np.nonzero(hull)
    a = _at_or_before(vertex, pos)[r, k]
    b = _at_or_after(alive, pos)[r, k + vertex[r, k]]
    out = v.copy()
    out[r, k] = v[r, a] + (v[r, b] - v[r, a]) * (k - a) / (b - a)
    return out


def _line_block(nr, nc, direction, lo, hi):
    """Flat node indices of the grid lines lo..hi-1 of one direction (0 rows,
    1 columns, 2 diagonals, 3 anti-diagonals), one line per row in increasing
    column (rows) or row (the others) order, -1 off the grid."""
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


def _hull_direction(v, mask, direction):
    """Hull every line of one direction of v in place, in blocks of _BLOCK
    lines; returns the largest change of a masked node."""
    nr, nc = v.shape
    flat, fmask = v.reshape(-1), mask.reshape(-1)
    lines = (nr, nc, nr + nc - 1, nr + nc - 1)[direction]
    change = 0.0
    for lo in range(0, lines, _BLOCK):
        idx = _line_block(nr, nc, direction, lo, min(lo + _BLOCK, lines))
        line_mask = (idx >= 0) & fmask[np.maximum(idx, 0)]
        old = flat[np.maximum(idx, 0)]
        new = _hull_lines(old, line_mask)
        change = max(change, float(np.max(np.abs(new - old)[line_mask], initial=0.0)))
        flat[idx[line_mask]] = new[line_mask]
    return change


def _axis_slice(step, k):
    """Slice of one grid axis that holds node k (0 before, 1 at, 2 after) of
    the three consecutive nodes around each interior node of a line, when
    the line's index along that axis moves by step per node."""
    if step == 0:
        return slice(None)
    k = k if step > 0 else 2 - k
    return slice(k, k - 2 or None)


# per direction: the step (rows, columns) from node to node of a line
_STEPS = ((0, 1), (1, 0), (1, 1), (1, -1))


def _sweep_direction(v, mask, direction):
    """One hull sweep of v in place along every line of one direction; returns
    the largest change of a masked node.

    The first pass of _hull_lines runs on shifted slices of the whole grid:
    an inner node of a masked run drops when it lies on or above the chord of
    its two neighbours. If any node drops, every line of the direction is
    hulled (_hull_direction). Otherwise every node of a run of three or more
    is a hull vertex and takes _hull_lines' chord value by the same
    expression, evaluated on the slices: v + (v_next - v) * 0 for the first
    and inner nodes (v itself, except that a -0.0 may become 0.0) and
    v_prev + (v - v_prev) for the last node (which may round). The values are
    those of hulling every line, and so is the change while no difference of
    neighbours overflows.
    """
    sr, sc = _STEPS[direction]
    before, at, after = ((_axis_slice(sr, i), _axis_slice(sc, i)) for i in range(3))
    inner = mask[before] & mask[at] & mask[after]
    left, right = v[at] - v[before], v[after] - v[at]
    if (inner & (left >= right)).any():
        return _hull_direction(v, mask, direction)
    center = np.zeros_like(mask)
    center[at] = inner
    first, last = inner & ~center[before], inner & ~center[after]
    # _hull_lines' division by 1 is exact
    last_new = v[at][last] + right[last]
    change = float(np.max(np.abs(last_new - v[after][last]), initial=0.0))
    right *= 0
    left *= 0
    np.copyto(v[at], np.add(v[at], right, out=right), where=inner)
    np.copyto(v[before], np.add(v[before], left, out=left), where=first)
    v[after][last] = last_new
    return change


def _convexify(values: np.ndarray, mask=None, tol_scale=1.0):
    """Largest minorant convex along rows, columns and both diagonals (2D) or
    along the axis (1D), restricted to masked nodes when a mask is given."""
    v = values.astype(float).copy()
    if mask is None:
        mask = np.ones(v.shape, dtype=bool)
    tol = 1e-13 * (1.0 + tol_scale)
    if v.ndim == 1:
        return _hull_lines(v[None], mask[None])[0]
    for _ in range(500):
        change = max([_sweep_direction(v, mask, direction) for direction in range(4)])
        if change <= tol:
            break
    return v


def directional_convexification(values, mask=None):
    """Largest minorant of the node values that is convex along rows, columns
    and both diagonals (the envelope core, no extension applied). Idempotent;
    leaves directionally convex inputs unchanged. A mask, read as boolean,
    restricts the minorant to its nodes and must have the values' shape."""
    values = np.asarray(values, dtype=float)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != values.shape:
            raise InvalidInputError("mask shape %s differs from values shape %s"
                                    % (mask.shape, values.shape))
    scale = float(np.max(np.abs(values))) if values.size else 1.0
    return _convexify(values, mask=mask, tol_scale=scale)


@dataclass
class EnvelopeResult:
    """Envelope of -u^- on the padded (doubled) box, and its contact set."""

    gamma: GridFunction
    contact_mask: np.ndarray


def lower_convex_envelope(u: GridFunction) -> EnvelopeResult:
    """Largest discretely convex minorant of the zero-extension of -u^- on
    the doubled box; contact marks |gamma - (-u^-)| <= 1e-9 (1 + max|u|)."""
    if u.dim not in (1, 2):
        raise InvalidInputError("envelope supports dim 1 or 2")
    pad = tuple((s - 1 + 1) // 2 for s in u.shape)
    new_shape = tuple(s + 2 * p for s, p in zip(u.shape, pad))
    new_origin = tuple(
        o - p * u.spacing for o, p in zip(u.origin, pad)
    )
    w = np.zeros(new_shape)
    sl = tuple(slice(p, p + s) for p, s in zip(pad, u.shape))
    w[sl] = np.minimum(u.values, 0.0)  # -u^- inside, 0 outside

    scale = float(np.max(np.abs(u.values))) if u.values.size else 1.0
    gamma_vals = _convexify(w, tol_scale=scale)
    gamma = GridFunction(u.dim, new_shape, new_origin, u.spacing, gamma_vals)
    contact = np.abs(gamma_vals - w) <= 1e-9 * (1.0 + scale)
    return EnvelopeResult(gamma, contact)


# ---------------------------------------------------------------------------
# ABP inequality check


def abp_check(u: GridFunction, f: GridFunction, lam, Lam, b0, boundary_tol=None):
    """sup u^- versus the discrete L^n norm of f^+ on the contact set.

    Works on the ball inscribed in the grid box: the envelope of -u^- is the
    directional convexification over chords of the ball, contact is marked to
    1e-9 relative tolerance, and the L^n norm is cell-volume weighted. The
    ratio is 0 when sup u^- = 0 (and inf when the contact norm vanishes while
    sup u^- > 0).
    """
    if u.shape != f.shape or abs(u.spacing - f.spacing) > 1e-12:
        raise InvalidInputError("u and f must share a grid")
    if not (0 < lam <= Lam) or b0 < 0:
        raise ParameterError("abp_check requires 0 < lambda <= Lambda, b0 >= 0")
    pts = u.points()
    lo, hi = u.box()
    center = (lo + hi) / 2.0
    radius = float(np.min((hi - lo) / 2.0))
    dist = np.linalg.norm(pts - center, axis=1).reshape(u.shape)
    ball = dist <= radius + 1e-12

    scale = float(np.max(np.abs(u.values))) if u.values.size else 1.0
    tol_b = boundary_tol if boundary_tol is not None else 4.0 * u.spacing * (1.0 + scale)
    ring = ball & (dist >= radius - 1.5 * u.spacing)
    if np.any(u.values[ring] < -tol_b):
        raise InvalidInputError(
            "u is negative on the domain boundary beyond tolerance %g" % tol_b
        )

    w = np.where(ball, np.minimum(u.values, 0.0), 0.0)
    gamma = _convexify(w, mask=ball, tol_scale=scale)
    contact = ball & (np.abs(gamma - w) <= 1e-9 * (1.0 + scale))

    sup_uminus = float(max(0.0, -np.min(u.values[ball])))
    n = u.dim
    fplus = np.maximum(f.values, 0.0)
    cellvol = u.spacing**n
    ln = float(np.sum(fplus[contact] ** n * cellvol) ** (1.0 / n))
    if sup_uminus <= 1e-9 * (1.0 + scale):
        ratio = 0.0
    elif ln == 0.0:
        ratio = math.inf
    else:
        ratio = sup_uminus / ln
    return {
        "sup_uminus": sup_uminus,
        "contact_Ln_norm_fplus": ln,
        "ratio": ratio,
        "contact_nodes": int(np.count_nonzero(contact)),
        "ball_nodes": int(np.count_nonzero(ball)),
        "lambda": float(lam),
        "Lambda": float(Lam),
        "b0": float(b0),
    }


# ---------------------------------------------------------------------------
# sections of convex functions


def _domain_box(u, domain):
    if domain is None:
        domain = u.box() if isinstance(u, GridFunction) else getattr(u, "box", None)
    if domain is None:
        raise InvalidInputError("section needs a domain box for a function without one")
    return np.asarray(domain[0], dtype=float), np.asarray(domain[1], dtype=float)


def section(u, x0, h, rays: int = 256, domain=None) -> np.ndarray:
    """Boundary of the section {u - l_x0 < h} of a convex function.

    l_x0 is the supporting affine function at x0 (value + gradient; central
    differences when u has no grad). Along each ray from x0, steps grow by
    1.3 until the profile reaches h, then bisection runs to 1e-10 of the
    domain diameter (at most 200 steps); the rays advance in lockstep, with
    one evaluation of u per step on the stack of their points. For the first
    failing ray, raises SectionEscapeError when it leaves the domain below
    the level h, and NonConvexityError when the profile decreases along it.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = len(x0)
    if n not in (1, 2) or not np.all(np.isfinite(x0)):
        raise InvalidInputError("section needs a finite base point in dim 1 or 2")
    if not 0 < h < math.inf:
        raise ParameterError("section height h must be positive and finite")
    lo, hi = _domain_box(u, domain)
    diam = float(np.linalg.norm(hi - lo))
    u0 = float(u(x0))
    if getattr(u, "grad", None) is not None:
        g = np.asarray(u.grad(x0), dtype=float)
    else:
        dx = u.spacing / 2.0 if isinstance(u, GridFunction) else 1e-6
        g = (u(x0 + dx * np.eye(n)) - u(x0 - dx * np.eye(n))) / (2 * dx)

    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        ang = 2 * math.pi * np.arange(rays) / rays
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    # distance from x0 to the box boundary along each ray
    reach = np.where(dirs > 0, hi - x0, lo - x0)
    moving = np.abs(dirs) > 1e-15
    tm = np.min(np.divide(reach, dirs, out=np.full(dirs.shape, math.inf), where=moving), axis=1)

    dent_tol = 1e-12 * (1.0 + abs(u0)) + 1e-9 * h
    if isinstance(u, GridFunction):
        # bilinear interpolants of convex data are only convex up to O(h^2)
        dent_tol += 0.5 * u.spacing**2 * (1.0 + abs(u0))
    count = len(dirs)
    t = np.minimum(1e-6 * diam, 0.25 * tm)
    t_lo, t_hi, prev, val = (np.zeros(count) for _ in range(4))
    expanding, bisecting = np.ones(count, dtype=bool), np.zeros(count, dtype=bool)
    steps = np.zeros(count, dtype=int)
    failed = np.zeros(count, dtype=int)  # 1: escaped, 2: profile decreased
    while True:
        bisecting &= (t_hi - t_lo > 1e-10 * diam) & (steps < 200)
        active = expanding | bisecting
        if not active.any():
            break
        mid = 0.5 * (t_lo + t_hi)
        X = x0 + np.where(expanding, np.minimum(t, tm), mid)[active, None] * dirs[active]
        val[active] = u(X) - u0 - np.vecdot(X - x0, g)
        # expansion: the box edge, then a dent, then the level h ends it
        edge = expanding & (t >= tm)
        failed[edge & (val < h)] = 1
        dent = expanding & ~edge & (val < prev - dent_tol)
        failed[dent] = 2
        grow = expanding & ~edge & ~dent & (val < h)
        prev[grow], t_lo[grow] = val[grow], t[grow]
        # bisection halves [t_lo, t_hi]
        hit, miss = bisecting & (val >= h), bisecting & (val < h)
        t_hi[hit], t_lo[miss] = mid[hit], mid[miss]
        steps += bisecting
        done = expanding & ~grow & (failed == 0)
        t_hi[done] = np.where(edge, tm, t)[done]
        bisecting |= done
        t[grow] *= 1.3
        expanding = grow
    bad = np.flatnonzero(failed)
    if bad.size and failed[bad[0]] == 1:
        raise SectionEscapeError("section at height %g reaches the domain boundary" % h)
    if bad.size:
        raise NonConvexityError(
            "profile decreases along ray %s: convexity precondition fails"
            % (dirs[bad[0]].tolist(),)
        )
    return x0 + (0.5 * (t_lo + t_hi))[:, None] * dirs


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid and the section normalization


def _whitened(points):
    """(P, W, mean): the points as rows P = (x - mean) W^T with identity
    covariance; RankError when they do not span their dimension."""
    P0 = np.asarray(points, dtype=float)
    if P0.ndim == 1:
        P0 = P0[:, None]
    if not np.all(np.isfinite(P0)):
        raise InvalidInputError("non-finite point for the enclosing ellipsoid")
    N, d = P0.shape
    mean = P0.mean(axis=0) if N else np.zeros(d)  # an empty mean would warn
    centered = P0 - mean
    if N < d + 1 or np.linalg.matrix_rank(centered, tol=1e-12) < d:
        raise RankError("degenerate (flat) vertex set for the enclosing ellipsoid")
    cov = centered.T @ centered / N
    evc, Qc = np.linalg.eigh(cov)
    if evc[0] <= 1e-14 * max(evc[-1], 1e-300):
        raise RankError("degenerate (flat) vertex set for the enclosing ellipsoid")
    W = np.diag(1.0 / np.sqrt(evc)) @ Qc.T
    return centered @ W.T, W, mean


def _core_set(P):
    """Indices of the extreme points of P[N, d] along d independent
    directions (Kumar and Yildirim): the first axis, then each time a
    direction orthogonal to the chords already picked. A full-dimensional P
    gives d independent chords, so the picks span R^d affinely."""
    d = P.shape[1]
    picks, chords = [], np.zeros((d, 0))
    for k in range(d):
        b = np.linalg.qr(chords, mode="complete")[0][:, k] if k else np.eye(d)[0]
        s = P @ b
        hi, lo = int(np.argmax(s)), int(np.argmin(s))
        picks += [hi, lo]
        chords = np.hstack([chords, (P[hi] - P[lo])[:, None]])
    return np.unique(picks)


def _optimal_design(P, tol, max_iters):
    """Weights u on the simplex maximizing log det V(u), V(u) = sum u_j q_j q_j^T
    over the lifted points q_j = (P[j], 1): the dual (D-optimal design) of the
    minimum-volume ellipsoid problem.

    Returns u with max_j M_j <= (d+1)(1+tol) and M_j >= (d+1)(1-tol) on the
    support {u_j > 0}, where M_j = q_j^T V(u)^-1 q_j. Uniform weights are
    returned as they are when they already qualify. Otherwise the support
    starts from a core set, and each step is one of two kinds:
    - while M_j differs across the support by more than tol, a Newton step
      on its face of the simplex, damped as the self-concordance of log det
      prescribes; a step that would make a weight negative stops where it
      reaches zero and drops that point;
    - else the point of largest M_j, if it violates the bound, enters by a
      Wolfe-Atwood step toward it.
    IterationLimitError after max_iters steps.
    """
    N, d = P.shape
    dd = d + 1
    Q = np.hstack([P, np.ones((N, 1))]).T  # (d+1) x N

    def moments(support, u):
        V = (Q[:, support] * u[support]) @ Q[:, support].T
        try:
            Z = np.linalg.solve(V, Q)
        except np.linalg.LinAlgError:
            raise RankError("singular moment matrix in ellipsoid iteration")
        return Z, np.einsum("ij,ij->j", Q, Z)

    def stationary(Ms):
        return Ms.min() >= dd * (1.0 - tol) and Ms.max() <= dd * (1.0 + tol)

    u = np.full(N, 1.0 / N)
    if stationary(moments(slice(None), u)[1]):
        return u
    support = _core_set(P)
    u = np.zeros(N)
    u[support] = 1.0 / len(support)
    steps = 0
    while True:
        Z, M = moments(support, u)
        Ms = M[support]
        j = int(np.argmax(M))
        settled = stationary(Ms)
        if settled and M[j] <= dd * (1.0 + tol):
            return u
        if steps == max_iters:
            gap = max(M[j] / dd - 1.0, 1.0 - Ms.min() / dd)
            raise IterationLimitError(
                "enclosing ellipsoid: duality gap %.3g above %g after %d steps"
                % (gap, tol, max_iters),
                residual=gap,
            )
        steps += 1
        if settled:
            # the worst violator enters by an exact Wolfe-Atwood step toward it,
            # so it carries weight even where the face is degenerate
            tau = (M[j] - dd) / (dd * (M[j] - 1.0))
            u *= 1.0 - tau
            u[j] += tau
            support = np.append(support, j)
            continue
        # Newton step on the face sum(u_S) = 1: Hessian K o K, gradient M_S
        K = Q[:, support].T @ Z[:, support]
        k = len(support)
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = K * K
        kkt[k, k] = 0.0
        rhs = np.append(Ms, 0.0)
        try:
            du = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:  # an exactly singular face
            du = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        decrement = math.sqrt(max(float(Ms @ du), 0.0))
        alpha = 1.0 if decrement < 0.25 else 1.0 / (1.0 + decrement)
        us = u[support]
        limit = np.divide(us, -du, out=np.full(k, math.inf), where=du < 0)
        b = int(np.argmin(limit))
        if limit[b] <= alpha:  # stop where weight b reaches zero
            us = us + limit[b] * du
            us[b] = 0.0
        else:
            us = us + alpha * du
        us = np.maximum(us, 0.0)
        u[support] = us / us.sum()
        support = support[us > 0]


def mvee(points, tol=1e-9, max_iters=200000):
    """Minimum-volume enclosing ellipsoid {x: (x-c)^T A (x-c) <= 1}.

    Newton's method on the dual D-optimal design problem (Sun and Freund,
    Oper. Res. 52, 2004; Todd, Minimum-Volume Ellipsoids, SIAM 2016): reduced
    Newton steps on an active set of touching points (in the plane an
    optimal set needs at most 5), see _optimal_design. The loop meets the
    relative duality gap tol or raises IterationLimitError after max_iters
    steps; 64-ray sections of a gridded quadratic take 8 to 24. The point set
    is whitened by its covariance first; the ellipsoid is affine-covariant,
    so the optimum maps back exactly while the iteration runs on a
    well-conditioned configuration. The optimal design's ellipsoid is
    inflated by its largest membership (at most 1 + tol(d+1)/d) and, once
    mapped back, by the largest membership of the input points, so the
    returned one covers every input point as measured.
    """
    P, W, mean = _whitened(points)
    d = P.shape[1]
    u = _optimal_design(P, tol, max_iters)
    c = P.T @ u
    S = (P.T * u) @ P - np.outer(c, c)
    try:
        A = np.linalg.inv(S) / d
    except np.linalg.LinAlgError:
        raise RankError("degenerate (flat) vertex set for the enclosing ellipsoid")
    # inflate so the ellipsoid covers every whitened point
    members = np.einsum("ni,ij,nj->n", P - c, A, P - c)
    peak = float(np.max(members))
    if peak > 1.0:
        A /= peak
    # undo the whitening y = W (x - mean), which rounds, then inflate again
    # where the input points are measured: on an ill-conditioned cloud the
    # memberships carry rounding noise, so until none of them exceeds 1
    A_orig = W.T @ A @ W
    c_orig = mean + np.linalg.solve(W, c)
    X = np.asarray(points, dtype=float).reshape(len(P), d) - c_orig
    while (peak := float(np.max(np.einsum("ni,ij,nj->n", X, A_orig, X)))) > 1.0:
        A_orig /= peak
    return A_orig, c_orig


@dataclass
class SectionNormalization:
    """Affine normalization of a section: T maps its enclosing ellipsoid to
    the unit ball; (det T)^2 h^n is the scale-invariant product."""

    h: float
    vertices: np.ndarray
    T: np.ndarray
    center: np.ndarray  # y-tilde, the image of the ellipsoid center
    detT: float
    product: float
    covering_margin: float  # max |T v - center| over vertices (<= 1 + tol)
    inscribed_margin: float  # distance from center to the mapped polygon boundary

    def to_dict(self):
        return {
            "h": self.h,
            "T": self.T.tolist(),
            "center": self.center.tolist(),
            "detT": self.detT,
            "product": self.product,
            "covering_margin": self.covering_margin,
            "inscribed_margin": self.inscribed_margin,
            "vertices": self.vertices.tolist(),
        }


def john_normalize(vertices, h, n: int) -> SectionNormalization:
    """Normalize a section by its minimum-volume enclosing ellipsoid.

    T is the symmetric positive square root of the ellipsoid matrix, so
    T(section) lies in the unit ball around y-tilde = T c; by John's lemma
    the 1/n-shrunk ball is contained in the section's convex hull. Returns
    det T and the product (det T)^2 h^n.
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[1] != n:
        raise InvalidInputError("vertex dimension does not match n")
    A, c = mvee(V)
    ev, Qv = eigenvalues_sym(A, vectors=True)
    if ev[0] <= 0:
        raise RankError("enclosing ellipsoid is degenerate")
    T = Qv @ np.diag(np.sqrt(ev)) @ Qv.T
    center = T @ c
    detT = float(np.prod(np.sqrt(ev)))
    product = detT**2 * h**n

    mapped = V @ T.T
    covering = float(np.max(np.linalg.norm(mapped - center, axis=1)))
    if n == 1:
        inscribed = float(np.max(mapped[:, 0] - center[0]))
        inscribed = min(inscribed, float(np.max(center[0] - mapped[:, 0])))
    else:
        # order mapped vertices by angle and take min distance to the edges
        rel = mapped - center
        poly = rel[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
        e = np.roll(poly, -1, axis=0) - poly
        ln = np.sqrt(np.vecdot(e, e))
        edge = ln >= 1e-14
        dist = np.abs(poly[:, 0] * e[:, 1] - poly[:, 1] * e[:, 0])[edge] / ln[edge]
        inscribed = float(np.min(dist, initial=math.inf))
    return SectionNormalization(
        h=float(h),
        vertices=V,
        T=T,
        center=center,
        detT=detT,
        product=float(product),
        covering_margin=covering,
        inscribed_margin=inscribed,
    )
