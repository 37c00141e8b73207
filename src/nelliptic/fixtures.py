"""Closed-form solutions with analytic derivatives: the ground-truth corpus.

Each fixture packages a function with its gradient, Hessian, declared
singular set, the operator it solves, the right-hand side where a closed form
exists, and the sharp pointwise Holder regularity it is known to attain:

  pmc(theta), 0 < theta < 1/2:
      u = -(1-|x|)^theta for |x| <= 1, (|x|-1)^theta for |x| > 1, on the
      doubled ball; solves the graph mean-curvature equation with a
      right-hand side in C^{1-2theta}, while u itself is only C^theta
      across the unit sphere.

  hq(theta), 0 < theta < 1 (defaults k=2, l=1, n=3):
      u = |x'|^2/2 + |x_n|^{1+theta}/(1+theta); solves the Hessian quotient
      equation sigma_k/sigma_l = f with f in C^{1-theta}; u is C^{1,theta}
      on {x_n = 0} only.

  slag(theta), 0 < theta < 1 (n=2):
      u = |x_1|^{1+theta}/(1+theta) + x_2^2/2; the Lagrangian phase of its
      Hessian equals 3 pi/4 - arctan(theta^{-1} |x_1|^{1-theta}) (a
      supercritical phase in C^{1-theta}); u is C^{1,theta} at 0 only.

  quadratic(A, b, c), power(beta), harmonic(k): calibration fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SingularityError
from .operators import OperatorSpec


@dataclass
class Claim:
    fixture: str
    point: tuple
    point_set: str  # human-readable description of where the claim lives
    k: int
    alpha: float | None
    classification: str
    citation: str

    def to_dict(self):
        return {
            "fixture": self.fixture,
            "point": list(self.point),
            "point_set": self.point_set,
            "k": self.k,
            "alpha": self.alpha,
            "classification": self.classification,
            "citation": self.citation,
        }


@dataclass
class AnalyticFunction:
    name: str
    dim: int
    params: dict
    eval_fn: callable
    grad_fn: callable
    hess_fn: callable
    rhs_fn: callable = None
    operator: OperatorSpec = None
    claimed: list = field(default_factory=list)
    box: tuple = None  # (lo, hi) arrays
    singular_fn: callable = None  # (x, order) -> bool

    def __call__(self, x):
        """u at a point x[n] (a float) or a stack of points x[..., n]."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 1:
            return float(self.eval_fn(x))
        out = self.eval_fn(x.reshape(-1, x.shape[-1]))
        return np.asarray(out, dtype=float).reshape(x.shape[:-1])

    def grad(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.is_singular(x, order=1):
            raise SingularityError("%s: gradient singular at %s" % (self.name, x.tolist()))
        return np.asarray(self.grad_fn(x), dtype=float)

    def hess(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.is_singular(x, order=2):
            raise SingularityError("%s: Hessian singular at %s" % (self.name, x.tolist()))
        return np.asarray(self.hess_fn(x), dtype=float)

    def rhs(self, x):
        """f at a point x[n] (a float) or a stack x[..., n]. f = F(D^2 u, ...)
        may extend onto the singular set of D^2 u (slag, hq), but not where its
        closed form divides by 0: the first such point is a SingularityError."""
        if self.rhs_fn is None:
            raise ParameterError("%s: no right-hand side declared" % self.name)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pts = x.reshape(-1, x.shape[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = self.rhs_fn(pts)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise SingularityError("%s: right-hand side singular at %s"
                                   % (self.name, pts[bad[0]].tolist()))
        return float(vals[0]) if x.ndim == 1 else vals.reshape(x.shape[:-1])

    def is_singular(self, x, order=2) -> bool:
        if order <= 0 or self.singular_fn is None:
            return False
        return bool(self.singular_fn(np.atleast_1d(np.asarray(x, dtype=float)), order))

    def eps_f(self, samples: int = 4096, seed: int = 0) -> float:
        """Margin of the phase to the extreme values +-n*pi/2, sampled over
        the fixture box (meaningful for the Lagrangian-phase fixture).

        The coordinate planes {x_d = 0} are sampled deterministically on top
        of the uniform draw: phase extremes of the sharp examples live there.
        """
        if self.rhs_fn is None:
            raise ParameterError("%s: no right-hand side declared" % self.name)
        rng, (lo, hi), n = np.random.default_rng(seed), self.box, self.dim
        pts = [rng.uniform(lo, hi, size=(samples, n))]
        for e in [(d + 1) % n for d in range(n)]:
            pts.append(np.zeros((33, n)))
            pts[-1][:, e] = np.linspace(lo[e], hi[e], 33)
        vals = self.rhs(np.concatenate(pts))
        return float(np.min(np.minimum(n * math.pi / 2 - vals, vals + n * math.pi / 2)))


# ---------------------------------------------------------------------------
# individual fixtures: each eval_fn takes a point x[n] or a stack x[N, n]
# (x.T[i] is coordinate i of either, a scalar for a point), each rhs_fn a
# stack, and a stack gets its points' values bit for bit. So powers and
# arctangents are the C library's, per element (numpy's array power and
# arctan can round differently), and |x| is sqrt(vecdot(x, x)), the dot
# product np.linalg.norm takes of a point.


def _libm(fn, *args):
    return np.asarray(np.frompyfunc(fn, len(args), 1)(*args), dtype=float)


def _pow(a, p):
    if isinstance(a, float):  # a point's coordinate: np.float64 is a float
        return math.pow(a, p)
    pole = (a == 0.0) & (p < 0)  # C's pow is inf here, where math.pow raises
    return np.where(pole, math.inf, _libm(math.pow, np.where(pole, 1.0, a), p))


def _pmc(theta: float, n: int = 2) -> AnalyticFunction:
    if not 0.0 < theta < 0.5:
        raise ParameterError(
            "pmc requires 0 < theta < 1/2 (the boundary Holder example is only "
            "defined in this range)"
        )

    def derivs(r):
        # v'(r) and v''(r) of the profile u = v(|x|), infinite at r = 1
        d, c2 = abs(1.0 - r), theta * (1.0 - theta)
        return theta * _pow(d, theta - 1.0), np.where(r <= 1.0, c2, -c2) * _pow(d, theta - 2.0)

    def ev(x):
        r = np.sqrt(np.vecdot(x, x))
        s = _pow(abs(1.0 - r), theta)
        return np.where(r <= 1.0, -s, s)

    def gr(x):
        r = np.linalg.norm(x)
        return derivs(r)[0] * x / r

    def he(x):
        r = np.linalg.norm(x)
        xh = x / r
        proj = np.outer(xh, xh)
        vp, vs = derivs(r)
        return vs * proj + vp / r * (np.eye(n) - proj)

    def rhs(x):  # no finite value at r = 1 and r = 0, where it divides by 0
        r = np.sqrt(np.vecdot(x, x))
        vp, vs = derivs(r)
        w = np.sqrt(1.0 + vp * vp)
        return vs / _pow(w, 3) + (n - 1) * vp / (r * w)

    def singular(x, order):
        r = float(np.linalg.norm(x))
        return abs(r - 1.0) < 1e-12 or r < 1e-12

    theta_pt = (1.0,) + (0.0,) * (n - 1)
    claims = [
        Claim(
            "pmc",
            theta_pt,
            "any point of the unit sphere",
            0,
            theta,
            "C^k_alpha",
            "sharp boundary example for the graph mean-curvature equation",
        )
    ]
    return AnalyticFunction(
        name="pmc",
        dim=n,
        params={"theta": theta},
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        rhs_fn=rhs,
        operator=OperatorSpec.mean_curvature(),
        claimed=claims,
        box=(np.full(n, -2.0), np.full(n, 2.0)),
        singular_fn=singular,
    )


def _hq(theta: float, k: int = 2, l: int = 1, n: int = 3) -> AnalyticFunction:
    if not 0.0 < theta < 1.0:
        raise ParameterError("hq requires 0 < theta < 1")
    if not 1 <= l < k <= n:
        raise ParameterError("hq requires 1 <= l < k <= n")
    c_k0 = math.comb(n - 1, k) if k <= n - 1 else 0
    c_k1 = math.comb(n - 1, k - 1)
    c_l0 = math.comb(n - 1, l) if l <= n - 1 else 0
    c_l1 = math.comb(n - 1, l - 1)

    def ev(x):
        tail = _pow(abs(x.T[-1]), 1 + theta) / (1 + theta)
        return 0.5 * np.sum(x.T[:-1] ** 2, axis=0) + tail

    def gr(x):
        g = x.copy()
        g[-1] = abs(x[-1]) ** theta * np.sign(x[-1])
        return g

    def he(x):
        H = np.eye(n)
        H[-1, -1] = theta * abs(x[-1]) ** (theta - 1.0)
        return H

    def rhs(x):
        t = abs(x.T[-1])
        tt = theta * _pow(np.maximum(t, 1e-300), theta - 1.0)
        return np.where(t < 1e-300, c_k1 / c_l1, (c_k0 + c_k1 * tt) / (c_l0 + c_l1 * tt))

    def singular(x, order):
        return order >= 2 and abs(x[-1]) < 1e-12

    claims = [
        Claim(
            "hq",
            (0.0,) * n,
            "the hyperplane {x_n = 0}",
            1,
            theta,
            "C^k_alpha",
            "sharp example for the Hessian quotient equation",
        )
    ]
    return AnalyticFunction(
        name="hq",
        dim=n,
        params={"theta": theta, "k": k, "l": l},
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        rhs_fn=rhs,
        operator=OperatorSpec.quotient(k, l),
        claimed=claims,
        box=(np.full(n, -1.0), np.full(n, 1.0)),
        singular_fn=singular,
    )


def _slag(theta: float) -> AnalyticFunction:
    if not 0.0 < theta < 1.0:
        raise ParameterError("slag requires 0 < theta < 1")

    def ev(x):
        return _pow(abs(x.T[0]), 1 + theta) / (1 + theta) + 0.5 * _pow(x.T[1], 2)

    def gr(x):
        return np.array([abs(x[0]) ** theta * np.sign(x[0]), x[1]])

    def he(x):
        return np.diag([theta * abs(x[0]) ** (theta - 1.0), 1.0])

    def rhs(x):
        return 0.75 * math.pi - _libm(math.atan, _pow(abs(x.T[0]), 1.0 - theta) / theta)

    def singular(x, order):
        return order >= 2 and abs(x[0]) < 1e-12

    claims = [
        Claim(
            "slag",
            (0.0, 0.0),
            "the origin",
            1,
            theta,
            "C^k_alpha",
            "sharp example for the Lagrangian phase equation",
        )
    ]
    return AnalyticFunction(
        name="slag",
        dim=2,
        params={"theta": theta},
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        rhs_fn=rhs,
        operator=OperatorSpec.lagrangian(),
        claimed=claims,
        box=(np.full(2, -1.0), np.full(2, 1.0)),
        singular_fn=singular,
    )


def _quadratic(A=None, b=None, c: float = 0.0, n: int = 2) -> AnalyticFunction:
    A = np.eye(n) if A is None else np.asarray(A, dtype=float)
    n = A.shape[0]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)

    def ev(x):
        xA = np.matmul(x[..., None, :], A)[..., 0, :]
        return 0.5 * np.vecdot(xA, x) + np.vecdot(x, b) + c

    op = None
    rhs = None
    ev_A = np.linalg.eigvalsh(A)
    if ev_A[0] > 0:
        op = OperatorSpec.monge_ampere()
        detA = float(np.linalg.det(A))
        rhs = lambda x: np.full(len(x), detA)
    claims = [
        Claim("quadratic", (0.0,) * n, "any point", 2, None, "polynomial_exact", "calibration")
    ]
    return AnalyticFunction(
        name="quadratic",
        dim=n,
        params={"A": A.tolist(), "b": b.tolist(), "c": c},
        eval_fn=ev,
        grad_fn=lambda x: A @ x + b,
        hess_fn=lambda x: A.copy(),
        rhs_fn=rhs,
        operator=op,
        claimed=claims,
        box=(np.full(n, -2.0), np.full(n, 2.0)),
    )


def _power(beta: float, n: int = 1) -> AnalyticFunction:
    if beta <= 0:
        raise ParameterError("power requires beta > 0")

    def ev(x):
        return _pow(np.sqrt(np.vecdot(x, x)), beta)

    def gr(x):
        r = float(np.linalg.norm(x))
        return beta * r ** (beta - 2.0) * x

    def he(x):
        r = float(np.linalg.norm(x))
        xh = x / r
        proj = np.outer(xh, xh)
        return beta * r ** (beta - 2.0) * (np.eye(n) - proj) + beta * (beta - 1.0) * r ** (
            beta - 2.0
        ) * proj

    def singular(x, order):
        return order >= 1 and float(np.linalg.norm(x)) < 1e-12

    return AnalyticFunction(
        name="power",
        dim=n,
        params={"beta": beta},
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        box=(np.full(n, -2.0), np.full(n, 2.0)),
        singular_fn=singular,
        claimed=[],
    )


def _harmonic(k: int, n: int = 2) -> AnalyticFunction:
    if n != 2 or k < 1:
        raise ParameterError("harmonic fixture is Re((x1+i x2)^k) in dimension 2")

    def ev(x):
        # np.power, not **: an array ** 2 squares with other rounding
        return np.real(np.power(x.T[0] + 1j * x.T[1], k))

    def gr(x):
        z = x[0] + 1j * x[1]
        d = k * z ** (k - 1)
        return np.array([np.real(d), -np.imag(d)])

    def he(x):
        z = x[0] + 1j * x[1]
        d2 = k * (k - 1) * z ** (k - 2) if k >= 2 else 0.0
        return np.array(
            [[np.real(d2), -np.imag(d2)], [-np.imag(d2), -np.real(d2)]]
        )

    claims = [
        Claim("harmonic", (0.0, 0.0), "any point", k, None, "polynomial_exact", "calibration")
    ]
    return AnalyticFunction(
        name="harmonic",
        dim=2,
        params={"k": k},
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        rhs_fn=lambda x: np.zeros(len(x)),
        operator=OperatorSpec.linear(np.eye(2)),
        claimed=claims,
        box=(np.full(2, -2.0), np.full(2, 2.0)),
    )


_BUILDERS = {
    "pmc": _pmc,
    "hq": _hq,
    "slag": _slag,
    "quadratic": _quadratic,
    "power": _power,
    "harmonic": _harmonic,
}


def fixture(name: str, *args, **kwargs) -> AnalyticFunction:
    """Build a fixture by name; parameters outside the admissible range raise
    a ParameterError describing the constraint."""
    if name not in _BUILDERS:
        raise ParameterError(
            "unknown fixture %r (have: %s)" % (name, ", ".join(sorted(_BUILDERS)))
        )
    return _BUILDERS[name](*args, **kwargs)


def parse_fixture(spec: str) -> AnalyticFunction:
    """Fixtures addressable as name or name:theta (e.g. slag:0.4)."""
    name, _, rest = spec.partition(":")
    if not rest:
        if name == "quadratic":
            return _quadratic()
        if name == "harmonic":
            return _harmonic(2)
        raise ParameterError("fixture %r needs a parameter, e.g. %s:0.4" % (name, name))
    try:
        theta = int(rest) if name == "harmonic" else float(rest)
    except ValueError:
        raise ParameterError("fixture %r: parameter %r is not a number" % (spec, rest)) from None
    return fixture(name, theta)


def fixture_names():
    return sorted(_BUILDERS)


def fixture_claims() -> list:
    """Machine-readable sharp-regularity claims driving the acceptance tests."""
    rows = []
    for fix in (
        _pmc(0.3),
        _hq(0.5),
        _slag(0.4),
        _quadratic(),
    ):
        rows.extend(c.to_dict() for c in fix.claimed)
    return rows
