"""Pointwise regularity estimation by polynomial decay across scales.

The central object is the decay table: on the shrinking balls B_{eta^m r0}(x0)
the best degree-k sup-norm fit P_m is computed, and the errors

    E_m = min_P max_{B_{eta^m r0}} |u - P|

are regressed (log E against log r) to estimate the Holder exponent
alpha_hat = slope - k and the constant C_hat. Scales whose error is below the
resolution floor (interpolation noise for grid inputs, round-off for analytic
inputs) are excluded so flat tails do not bias the exponent upward.

A discrete viscosity checker tests the defining inequalities directly: at
each interior node, candidate touching paraboloids are generated from
one-sided and centered second differences plus a slope sweep over the
one-sided difference interval, verified to touch on the stencil
neighborhood, and the operator inequality is checked with a caller margin.
Test functions touching from below drive the supersolution verdict
(F(jet) <= f), those from above the subsolution verdict (F(jet) >= f).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
    SingularEvaluationError,
)
from .grid import GridFunction
from .operators import OperatorSpec, eigenvalues_sym, evaluate_many
from .polyfit import MinimaxFit, Polynomial, ball_samples, minimax_fit, taylor_of

# ---------------------------------------------------------------------------
# configuration and report types


@dataclass
class CampanatoConfig:
    k: int
    r0: float
    levels: int = 6
    eta: float = 0.5
    constraint: tuple = None  # (OperatorSpec, f0)
    norm_bound: float = None
    samples_m: int = 8

    def __post_init__(self):
        if not (0.0 < self.eta <= 0.5):
            raise ParameterError("eta must lie in (0, 1/2]")
        if self.r0 <= 0 or self.levels < 1 or self.k < 0:
            raise ParameterError("invalid decay-table configuration")


@dataclass
class ScaleRow:
    m: int
    r: float
    error: float
    fit: MinimaxFit
    step_norm: float  # ||P_m - P_{m-1}||_{r_m}
    usable: bool

    def to_dict(self):
        return {
            "m": self.m,
            "r": self.r,
            "error": self.error,
            "step_norm": self.step_norm,
            "usable": self.usable,
            "P": self.fit.P.to_dict(),
            "P_norm": self.fit.P.norm(1.0),
            "t_correction": self.fit.t_correction,
            "constrained": self.fit.constrained,
            "active_points": list(map(int, self.fit.active_points)),
        }


@dataclass
class RegularityReport:
    x0: tuple
    k: int
    scales: list
    alpha_hat: float = None
    C_hat: float = None
    classification: str = "below_resolution"
    clamped: bool = False
    noise_floor: float = 0.0
    norm_bound_flags: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "x0": list(self.x0),
            "k": self.k,
            "scales": [s.to_dict() for s in self.scales],
            "alpha_hat": self.alpha_hat,
            "C_hat": self.C_hat,
            "classification": self.classification,
            "clamped": self.clamped,
            "noise_floor": self.noise_floor,
            "norm_bound_flags": self.norm_bound_flags,
            "config": self.config,
        }


# ---------------------------------------------------------------------------
# sampling


def _samples_on_ball(u, x0, r, samples_m):
    if isinstance(u, GridFunction):
        pts = u.points()
        keep = np.linalg.norm(pts - np.asarray(x0), axis=1) <= r + 1e-12
        pts = pts[keep]
        vals = u.values.ravel()[keep]
        return pts, vals
    return ball_samples(u, x0, r, m=samples_m)


def _grid_noise_floor(u: GridFunction, x0, r) -> float:
    """10x the local interpolation error estimate: h^2/8 * max |D^2 u| near
    the ball, with the Hessian bound taken from second differences."""
    h = u.spacing
    v = u.values
    if u.dim == 1:
        d2 = np.abs(np.diff(v, 2)) / h**2
    else:
        d2 = np.maximum(
            np.abs(v[2:, 1:-1] + v[:-2, 1:-1] - 2 * v[1:-1, 1:-1]),
            np.abs(v[1:-1, 2:] + v[1:-1, :-2] - 2 * v[1:-1, 1:-1]),
        ) / h**2
    bound = float(np.max(d2)) if d2.size else 0.0
    return 10.0 * h * h / 8.0 * max(bound, 1e-12)


# ---------------------------------------------------------------------------
# exponent regression


def estimate_exponent(scales, k: int):
    """(alpha_hat, C_hat) from (r, E) pairs: alpha_hat is the least-squares
    slope of log E against log r minus k, clamped to [0, 1] with a flag;
    C_hat = exp(max_m (log E_m - (k + alpha_hat) log r_m))."""
    rows = [(r, e) for r, e in scales if e > 0]
    if len(rows) < 4:
        raise InsufficientDataError(
            "exponent regression needs >= 4 usable scales, got %d" % len(rows)
        )
    logr = np.log([r for r, _ in rows])
    loge = np.log([e for _, e in rows])
    slope = float(np.polyfit(logr, loge, 1)[0])
    alpha = slope - k
    clamped = False
    if alpha < 0.0:
        alpha, clamped = 0.0, True
    elif alpha > 1.0:
        alpha, clamped = 1.0, True
    boundary = alpha in (0.0, 1.0)
    C_hat = float(np.exp(np.max(loge - (k + alpha) * logr)))
    return alpha, C_hat, (clamped or boundary)


# ---------------------------------------------------------------------------
# decay table


def campanato_table(u, x0, cfg: CampanatoConfig) -> RegularityReport:
    """Fit P_m on B_{eta^m r0}(x0) for m = 0..levels and estimate the decay
    exponent from the usable scales."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if isinstance(u, GridFunction):
        min_r = cfg.r0 * cfg.eta**cfg.levels
        if min_r < 2 * u.spacing:
            raise ParameterError(
                "smallest scale %g under 2 grid spacings (%g); reduce levels"
                % (min_r, 2 * u.spacing)
            )

    radii = [cfg.r0 * cfg.eta**m for m in range(cfg.levels + 1)]
    fits = [minimax_fit(*_samples_on_ball(u, x0, r, cfg.samples_m), x0, r, cfg.k,
                        constraint=cfg.constraint) for r in radii]

    if isinstance(u, GridFunction):
        floor = _grid_noise_floor(u, x0, cfg.r0)
    else:
        scale = max(abs(v) for v in [fits[0].error, 1.0])
        floor = 1e-12 * scale

    rows = []
    flags = []
    for m, fit in enumerate(fits):
        step = fit.P.minus(fits[m - 1].P).norm(radii[m]) if m > 0 else fit.P.norm(radii[0])
        usable = fit.error > floor
        rows.append(ScaleRow(m, radii[m], fit.error, fit, step, usable))
        if cfg.norm_bound is not None and fit.P.norm(1.0) > cfg.norm_bound:
            flags.append(m)

    report = RegularityReport(
        x0=tuple(x0),
        k=cfg.k,
        scales=rows,
        noise_floor=floor,
        norm_bound_flags=flags,
        config={
            "k": cfg.k,
            "r0": cfg.r0,
            "eta": cfg.eta,
            "levels": cfg.levels,
            "samples_m": cfg.samples_m,
            "constrained": cfg.constraint is not None,
            "norm_bound": cfg.norm_bound,
        },
    )
    usable_rows = [(row.r, row.error) for row in rows if row.usable]
    if all(not row.usable for row in rows):
        report.classification = "polynomial_exact"
        return report
    if len(usable_rows) < 4:
        report.classification = "below_resolution"
        return report
    alpha, C_hat, clamped = estimate_exponent(usable_rows, cfg.k)
    report.alpha_hat = alpha
    report.C_hat = C_hat
    report.clamped = clamped
    report.classification = "C^%d_alpha(%.4f)" % (cfg.k, alpha)
    return report


# ---------------------------------------------------------------------------
# oscillation and pointwise seminorm


def oscillation_profile(u, x0, radii, samples_m: int = 12):
    """(r, osc over B_r(x0)) for each requested radius."""
    out = []
    for r in radii:
        _, vals = _samples_on_ball(u, x0, r, samples_m)
        if len(vals) == 0:
            raise InvalidInputError("no samples inside radius %g" % r)
        out.append((float(r), float(np.max(vals) - np.min(vals))))
    return out


def holder_seminorm(u, x0, k, alpha, radii, samples_m: int = 8):
    """max over samples of |u(x) - P(x - x0)| / |x - x0|^{k + alpha}, with P
    the degree-k Taylor polynomial (analytic derivatives when available,
    otherwise a minimax fit at the smallest radius pinned to u(x0))."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    rmin = min(radii)
    dim = len(x0)
    if k == 0:
        P = Polynomial(dim, 0, {(0,) * dim: float(u(x0))})
    else:
        P = None
        if hasattr(u, "is_singular") and k <= 2 and not u.is_singular(x0, order=min(k, 2)):
            P = taylor_of(u, x0, k)
        if P is None:
            pts, vals = _samples_on_ball(u, x0, rmin, samples_m)
            fit = minimax_fit(pts, vals, x0, rmin, k)
            coeffs = dict(fit.P.coeffs)
            coeffs[(0,) * dim] = float(u(x0))
            P = Polynomial(dim, k, coeffs)
    best = 0.0
    for r in sorted(radii):
        pts, vals = _samples_on_ball(u, x0, r, samples_m)
        y = pts - x0
        d = np.sqrt(np.vecdot(y, y))
        far = d >= 1e-13
        ratio = np.abs(vals - P(y))[far] / d[far] ** (k + alpha)
        best = max(best, float(np.max(ratio, initial=0.0)))
    return float(best)


# ---------------------------------------------------------------------------
# discrete viscosity checker

_BLOCK = 64  # interior nodes per array pass of the viscosity checker

# neighbours -2, -1, +1, +2 along each axis in turn, then the diagonal ones
_OFFSETS = {1: np.array([[-2], [-1], [1], [2]]), 2: np.array([(-2, 0), (-1, 0), (1, 0), (2, 0),
            (0, -2), (0, -1), (0, 1), (0, 2), (1, 1), (-1, -1), (1, -1), (-1, 1)])}


@dataclass
class ViscosityReport:
    nodes: list  # (i, j) or (i,) per tested node
    verdict_sub: list  # per node: pass / fail / vacuous
    verdict_super: list
    witnesses: list  # dicts for failing nodes

    def counts(self, side):
        v = self.verdict_sub if side == "sub" else self.verdict_super
        return {verdict: v.count(verdict) for verdict in ("pass", "fail", "vacuous")}

    def to_dict(self):
        return {"nodes": [list(n) for n in self.nodes], "verdict_sub": self.verdict_sub,
                "verdict_super": self.verdict_super, "witnesses": self.witnesses,
                "counts": {"sub": self.counts("sub"), "super": self.counts("super")}}


def _slope_candidates(lo, hi, count):
    """np.linspace over each [lo, hi] inflated by 10%, rounded as the scalar
    call rounds it."""
    lo, hi = np.where(hi < lo, hi, lo), np.where(hi > lo, hi, lo)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * 1.1 + 1e-12
    start, stop = (mid - half)[..., None], (mid + half)[..., None]
    div, i = max(count - 1, 1), np.arange(count)
    step = (stop - start) / div
    y = np.where(step == 0, i / div * (stop - start), i * step) + start
    if count > 1:
        y[..., -1] = stop[..., 0]
    return y


def _sorted_set(vals, ok):
    """sorted(set(...)) along the last axis over the entries with ok: an
    entry equal to a kept earlier one is dropped (0.0 and -0.0 keep the
    first), kept entries ascend and dropped ones go last."""
    ok = ok.copy()
    for j in range(1, vals.shape[-1]):
        for i in range(j):
            ok[..., j] &= ~(ok[..., i] & (vals[..., j] == vals[..., i]))
    order = np.lexsort((np.where(ok, vals, 0.0), ~ok), axis=-1)
    return np.take_along_axis(vals, order, -1), np.take_along_axis(ok, order, -1)


def _product(axes):
    """itertools.product of per-axis sets (values[..., k], ok[..., k]), first
    axis outermost: values[..., k^dim, dim] and ok[..., k^dim]."""
    grid = np.indices([v.shape[-1] for v, _ in axes]).reshape(len(axes), -1)
    return (np.stack([v[..., g] for (v, _), g in zip(axes, grid)], -1),
            np.logical_and.reduce([ok[..., g] for (_, ok), g in zip(axes, grid)]))


class _NodeBlock:
    """Stencil data and candidate paraboloids of a block of interior nodes."""

    def __init__(self, u, f, pts, nodes, slopes_per_axis, rho):
        h, dim, offs = u.spacing, u.dim, _OFFSETS[u.dim]
        self.nodes, self.dim, self.rho, self.z = nodes, dim, rho, offs * h
        at, nb = tuple(nodes.T), nodes[:, None] + offs
        self.inside = ins = np.all((nb >= 0) & (nb < u.shape), axis=-1)
        self.u0, self.x0, self.fx = u.values[at], pts[at], f.values[at]
        self.du = du = np.pad(u.values, 2)[tuple(np.moveaxis(nb + 2, -1, 0))] - self.u0[:, None]
        self.slack = 1e-12 * (1.0 + np.abs(self.u0)) + 1e-12
        # axis d has its neighbours -2, -1, +1, +2 in columns 4d .. 4d + 3; the
        # sweep ends with the centred quotient, exact at smooth nodes
        ax, h2 = 4 * np.arange(dim), h**2
        fwd, bwd = du[:, ax + 2] / h, -du[:, ax + 1] / h
        sweep = _slope_candidates(bwd, fwd, slopes_per_axis)
        self.sweep = np.concatenate([sweep, (0.5 * (fwd + bwd))[..., None]], -1)
        # curvatures: centred and one-sided second differences, centred cross term
        curv = np.stack([du[:, ax + 2] + du[:, ax + 1], du[:, ax + 3] - 2 * du[:, ax + 2],
                         du[:, ax] - 2 * du[:, ax + 1]], -1) / h2
        cok = np.stack([np.ones_like(ins[:, ax]), ins[:, ax + 3], ins[:, ax]], -1)
        diag, self.qok = _product([_sorted_set(curv[:, d], cok[:, d]) for d in range(dim)])
        self.Q = diag[..., None] * np.eye(dim)
        if dim == 2:
            cross = (du[:, 8] + du[:, 9] - du[:, 10] - du[:, 11]) / (4 * h2)
            self.Q[..., [0, 1], [1, 0]] = cross[:, None, None]
        if rho is not None:
            self.qok[self.qok] = np.max(np.abs(eigenvalues_sym(self.Q[self.qok])), axis=-1) <= rho
        self.P, every = _product([(s, np.ones_like(s, bool)) for s in self.sweep.swapaxes(0, 1)])
        self.admissible = every if rho is None else np.linalg.norm(self.P, axis=-1) <= rho

    def touching(self, act, k, below):
        """(row, slope) of each paraboloid that touches u from below (or
        above) on the stencil of its row's node. Row r pairs node act[r] with
        its curvature slot k[r]; candidates go by row, then sweep slopes and
        slope-box corners in order."""
        z, du, ins, Q = self.z, self.du[act], self.inside[act], self.Q[act, k]
        slack = self.slack[act, None]
        quad = 0.5 * sum(z[:, i] * Q[:, i, j, None] * z[:, j] for i, j in np.ndindex(Q.shape[1:]))

        def touch(pz, rows, cols=slice(None)):
            # phi(x0 + z) - u(x0 + z) = p.z + z^T Q z / 2 - du, rounded as the reference
            gap = pz + quad[rows][..., cols] - du[rows][..., cols]
            ok = gap <= slack[rows] if below else gap >= -slack[rows]
            return np.all(ok | ~ins[rows][..., cols], axis=-1)

        # per axis: the swept slopes that touch at the axis neighbours, where
        # p.z is one exact product, and the box of slopes those neighbours
        # allow, bounded one neighbour at a time
        S, axes, empty = self.sweep.shape[-1], [], False
        keep = self.admissible[act].reshape((len(act),) + (S,) * self.dim)
        for d in range(self.dim):
            cols = slice(4 * d, 4 * d + 4)
            ok = touch(self.sweep[act, d, :, None] * z[cols, d], (slice(None), None), cols)
            keep = keep & ok.reshape((len(act),) + (1,) * d + (S,) + (1,) * (self.dim - 1 - d))
            lo, hi = np.full(len(act), -np.inf), np.full(len(act), np.inf)
            for c in range(4 * d, 4 * d + 4):
                bound = (du[:, c] - 0.5 * Q[:, d, d] * z[c, d] * z[c, d]) / z[c, d]
                if (z[c, d] > 0) == below:
                    hi = np.where(ins[:, c] & (bound < hi), bound, hi)
                else:
                    lo = np.where(ins[:, c] & (bound > lo), bound, lo)
            empty = empty | (lo > hi + 1e-12)
            lo, hi = np.where(lo < -1e12, -1e12, lo), np.where(hi > 1e12, 1e12, hi)
            corners = np.stack([lo, hi, 0.5 * (lo + hi)], -1)
            axes.append(_sorted_set(corners, np.ones(corners.shape, bool)))
        corners, cok = _product(axes)
        cok &= ~empty[:, None]
        if self.rho is not None:
            cok &= np.linalg.norm(corners, axis=-1) <= self.rho
        (n, s), (m, c) = np.nonzero(keep.reshape(len(act), -1)), np.nonzero(cok)
        rows, p = np.concatenate([n, m]), np.concatenate([self.P[act[n], s], corners[m, c]])
        # BLAS fuses p0 z0 + p1 z1 in one order for a stack of rows (the extra
        # row keeps a lone row in a stack) and in the other for a single row,
        # which a node's only candidate is in the reference checker
        pz = np.concatenate([p, p[:1]]) @ z.T
        for i in np.flatnonzero((self.admissible[act].sum(1) + cok.sum(1) == 1)[rows]):
            pz[i] = p[i : i + 1] @ z.T
        ok = touch(pz[: len(p)], rows)
        order = np.argsort(rows[ok], kind="stable")
        return rows[ok][order], p[ok][order]

    def run(self, op, below, tol):
        """One side in two passes: slot 0 of every node, which decides most
        failing nodes, then slots 1 .. of the nodes still undecided, as
        (node, slot) pairs in that order. The verdict per node, {node:
        witness} of the failing nodes and {node: error} of the nodes that
        raise; an error's index counts the node's candidates of both passes."""
        seen, done = np.zeros(len(self.u0), int), np.zeros(len(self.u0), bool)
        witness, raised = {}, {}
        for lo, hi in ((0, 1), (1, self.Q.shape[1])):
            act, k = np.nonzero(self.qok[:, lo:hi] & ~done[:, None])
            if not len(act):
                continue
            rows, p = self.touching(act, k + lo, below)
            nodes, slots, val, i = act[rows], k[rows] + lo, np.full(len(rows), np.nan), 0
            M, s, x = self.Q[nodes, slots], self.u0[nodes], self.x0[nodes]
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


def check_viscosity(
    u: GridFunction, op: OperatorSpec, f: GridFunction, side: str = "both", tol: float = 1e-6,
    slopes_per_axis: int = 32, rho: float = None,
) -> ViscosityReport:
    """Discrete viscosity verdicts per interior node.

    Candidate paraboloids combine curvatures from centered and one-sided
    second differences (axis by axis, plus the centered cross term) with a
    slope sweep over the one-sided first-difference interval inflated by 10%
    and the corners of the slope box the axis neighbours allow. Candidates
    that touch u from the proper side on the stencil neighborhood must meet
    the side's operator inequality within tol, or the node fails with the
    candidate as its witness. Nodes with no such candidate are vacuous.

    rho, when given, restricts the admissible test class to |D^2 phi| <= rho
    and |D phi| <= rho (the local analogue of the bounded-C^{1,1} test class
    of a rho-uniformly elliptic problem); without it all paraboloids are
    admissible, which can flag blow-up points that the bounded class cannot
    touch.

    Nodes go in blocks of _BLOCK, as arrays, in two passes per side, each
    with one operator evaluation: the first curvature slot of every node,
    then the other slots of the nodes it left undecided, as (node, slot)
    pairs. A node's witness is its first failing candidate in (Q, slope)
    order, swept slopes before box corners. A singular operator value (a
    quotient with a vanishing denominator) with no failing candidate of its
    node and side before it raises SingularEvaluationError: the first such
    (node, side), supersolution side first, with index its place among the
    candidates of that node and side. A grid without an interior node
    raises InvalidInputError.
    """
    if u.shape != f.shape:
        raise InvalidInputError("grids must match")
    if side not in ("sub", "super", "both"):
        raise ParameterError("side must be sub, super or both")
    sides = [below for below, name in ((True, "super"), (False, "sub")) if side in (name, "both")]
    interior = np.argwhere(np.ones([max(n - 2, 0) for n in u.shape], bool)) + 1
    if not len(interior):
        raise InvalidInputError("viscosity check needs an interior node: 3 nodes on every axis")
    pts = u.points().reshape(u.shape + (u.dim,))
    verdicts, witnesses = {True: [], False: []}, []
    for start in range(0, len(interior), _BLOCK):
        block = _NodeBlock(u, f, pts, interior[start : start + _BLOCK], slopes_per_axis, rho)
        runs = {below: block.run(op, below, tol) for below in sides}
        errors = {(n, not below): exc for below, run in runs.items() for n, exc in run[2].items()}
        if errors:
            raise errors[min(errors)]
        for below in (True, False):
            verdicts[below] += runs[below][0] if below in runs else ["vacuous"] * len(block.nodes)
        witnesses += [w for n in range(len(block.nodes)) for b in sides if (w := runs[b][1].get(n))]
    nodes = [tuple(n) for n in interior.tolist()]
    return ViscosityReport(nodes, verdicts[False], verdicts[True], witnesses)
