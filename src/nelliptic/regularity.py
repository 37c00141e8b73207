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

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
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
    threads: int = 1

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

    def fit_scale(m):
        r = radii[m]
        pts, vals = _samples_on_ball(u, x0, r, cfg.samples_m)
        return minimax_fit(pts, vals, x0, r, cfg.k, constraint=cfg.constraint)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            fits = list(pool.map(fit_scale, range(cfg.levels + 1)))
    else:
        fits = [fit_scale(m) for m in range(cfg.levels + 1)]

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


@dataclass
class ViscosityReport:
    nodes: list  # (i, j) or (i,) per tested node
    verdict_sub: list  # per node: pass / fail / vacuous
    verdict_super: list
    witnesses: list  # dicts for failing nodes

    def counts(self, side):
        v = self.verdict_sub if side == "sub" else self.verdict_super
        return {
            "pass": v.count("pass"),
            "fail": v.count("fail"),
            "vacuous": v.count("vacuous"),
        }

    def to_dict(self):
        return {
            "nodes": [list(n) for n in self.nodes],
            "verdict_sub": self.verdict_sub,
            "verdict_super": self.verdict_super,
            "witnesses": self.witnesses,
            "counts": {
                "sub": self.counts("sub"),
                "super": self.counts("super"),
            },
        }


def _slope_candidates(lo, hi, count):
    lo, hi = min(lo, hi), max(lo, hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * 1.1 + 1e-12  # inflate the interval by 10%
    return np.linspace(mid - half, mid + half, count)


def check_viscosity(
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
                _slope_candidates(bwd, fwd, slopes_per_axis), 0.5 * (fwd + bwd)
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
