"""Fully nonlinear elliptic operator families and their ellipticity probes.

Families: Pucci extremal operators M+/M- with constants 0 < lambda <= Lambda,
constant-coefficient linear operators, the graph mean-curvature operator
    F(M, p) = (1/w) * tr[(I - p p^T / w^2) M],   w = sqrt(1 + |p|^2),
the determinant (Monge-Ampere), elementary symmetric functions sigma_k of the
Hessian eigenvalues, Hessian quotients sigma_k/sigma_l, and the Lagrangian
phase sum(arctan(eigenvalues)).

An operator may carry a quadratic shift P: the shifted operator evaluates the
base on the translated jet (M + D^2P(x), p + DP(x), s + P(x), x) minus a fixed
offset, which turns a degenerate family into one that is uniformly elliptic on
a bounded jet set.

The probe estimates, on a seeded low-discrepancy sample of jets with
|M|, |p|, |s| <= rho, the extreme eigenvalues of D_M F (central differences),
the gradient/value Lipschitz constants, the modulus of continuity of D_M F,
and certifies the Pucci sandwich
    M-(N, lam, Lam) <= F(M+N, p, s, x) - F(M, p, s, x) <= M+(N, lam, Lam)
on sampled matrix pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInputError,
    ParameterError,
    ProbeDomainError,
    SingularEvaluationError,
)

# ---------------------------------------------------------------------------
# symmetric matrices

_TRIU = {}


def _triu(n):
    """np.triu_indices(n), cached per n; the arrays are read-only."""
    if n not in _TRIU:
        iu = np.triu_indices(n)
        for a in iu:
            a.flags.writeable = False
        _TRIU[n] = iu
    return _TRIU[n]


@dataclass(frozen=True)
class SymMatrix:
    """Dense n x n symmetric matrix stored as the upper triangle, row-major."""

    dim: int
    entries: tuple  # n(n+1)/2 scalars

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise ParameterError("SymMatrix dim must be >= 1")
        if len(self.entries) != n * (n + 1) // 2:
            raise InvalidInputError(
                "expected %d upper-triangle entries, got %d"
                % (n * (n + 1) // 2, len(self.entries))
            )
        if not all(math.isfinite(v) for v in self.entries):
            raise InvalidInputError("non-finite entry in SymMatrix")

    @staticmethod
    def from_full(a) -> "SymMatrix":
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        iu = _triu(n)
        return SymMatrix(n, tuple(((a + a.T) / 2.0)[iu]))

    @staticmethod
    def diag(values) -> "SymMatrix":
        return SymMatrix.from_full(np.diag(np.asarray(values, dtype=float)))

    def full(self) -> np.ndarray:
        iu = _triu(self.dim)
        a = np.empty((self.dim, self.dim))
        a[iu] = a[iu[::-1]] = self.entries
        return a + 0.0  # -0.0 entries become 0.0

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if other.dim != self.dim:
            raise InvalidInputError("dimension mismatch in SymMatrix addition")
        return SymMatrix(self.dim, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scaled(self, c: float) -> "SymMatrix":
        return SymMatrix(self.dim, tuple(c * a for a in self.entries))


@dataclass(frozen=True)
class Jet:
    """Second-order jet (M, p, s, x): Hessian, gradient, value, location."""

    M: SymMatrix
    p: tuple
    s: float
    x: tuple

    def __post_init__(self):
        n = self.M.dim
        if len(self.p) != n or len(self.x) != n:
            raise InvalidInputError("jet components must share dimension n")

    @staticmethod
    def make(M, p=None, s=0.0, x=None) -> "Jet":
        if not isinstance(M, SymMatrix):
            M = SymMatrix.from_full(M)
        n = M.dim
        p = (0.0,) * n if p is None else tuple(float(v) for v in p)
        x = (0.0,) * n if x is None else tuple(float(v) for v in x)
        return Jet(M, p, float(s), x)


# ---------------------------------------------------------------------------
# eigenvalues (LAPACK, on single matrices and on stacks)


def _dense(M) -> np.ndarray:
    """A SymMatrix, or an array-like matrix or stack, as a float array."""
    return M.full() if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)


def eigenvalues_sym(M, vectors=False):
    """Ascending eigenvalues of a symmetric matrix or a stack M[..., n, n].

    With vectors=True also returns the orthogonal Q (columns = eigenvectors)
    with reconstruction residual ||Q diag Q^T - M|| <= 1e-12 * max(1, |M|).
    """
    a = _dense(M)
    with np.errstate(over="ignore"):  # an overflow is inf, which _eigh refuses
        a = (a + np.swapaxes(a, -1, -2)) / 2.0
    return _eigh(a, vectors)


def _eigh(a, vectors=False):
    """eigenvalues_sym of a symmetric stack; InvalidInputError if not finite."""
    mag = np.abs(a)
    top = mag.max(initial=0.0)
    if not math.isfinite(top):
        raise InvalidInputError("non-finite entry in eigenvalues_sym input")
    # LAPACK's reflectors go wrong on entries about 1e-160 of a matrix's
    # largest (their squares are subnormal), so entries up to 1e-150 of it
    # become 0.0, which moves an eigenvalue by at most n 1e-150 max|a|. They
    # also read the sign of a zero, so every -0.0 becomes 0.0. The per-matrix
    # pass runs only if the stack has a nonzero entry up to 1e-150 of its max
    if mag.min(where=mag > 0.0, initial=np.inf) <= 1e-150 * top:
        a = np.where(mag <= 1e-150 * mag.max(axis=(-2, -1), keepdims=True), 0.0, a)
    else:
        a = a + 0.0
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def elementary_symmetric(values, k_max=None):
    """e_0..e_k of the scalars on the last axis via the stable product
    recurrence."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    k_max = n if k_max is None else k_max
    e = np.zeros(values.shape[:-1] + (k_max + 1,))
    e[..., 0] = 1.0
    top = min(k_max, n)
    for i in range(n):
        lam = values[..., i]
        for j in range(top, 0, -1):
            e[..., j] += lam * e[..., j - 1]
    return e


def _at_matrices(op, M):
    """op at the Hessian-only jets (M, 0, 0, 0): a float for one matrix, an
    array for a stack."""
    a = _dense(M)
    zero = np.zeros(a.shape[-1])
    val = evaluate_many(op, a, zero, 0.0, zero)
    return float(val) if val.ndim == 0 else val


def sigma_k(M, k: int):
    """k-th elementary symmetric function of the eigenvalues."""
    return _at_matrices(OperatorSpec.sigma(k), M)


def is_k_admissible(M, k: int) -> bool:
    """True iff the eigenvalues lie in the Garding cone: sigma_i > 0, i=1..k."""
    ev = eigenvalues_sym(M)
    n = len(ev)
    if not 1 <= k <= n:
        raise ParameterError("is_k_admissible requires 1 <= k <= n")
    e = elementary_symmetric(ev, k)
    return bool(np.all(e[1 : k + 1] > 0.0))


# ---------------------------------------------------------------------------
# Pucci extremal operators


def pucci(M, lam: float, Lam: float, sign: str):
    """Pucci extremal operator of M (one matrix or a stack) with ellipticity
    constants (lam, Lam).

    plus:  M+ = Lam * sum(ev > 0) + lam * sum(ev < 0)
    minus: M- = lam * sum(ev > 0) + Lam * sum(ev < 0)
    """
    if not (0.0 < lam <= Lam):
        raise ParameterError("pucci requires 0 < lambda <= Lambda")
    if sign not in ("plus", "minus"):
        raise ParameterError("pucci sign must be 'plus' or 'minus'")
    family = "pucci+" if sign == "plus" else "pucci-"
    return _at_matrices(OperatorSpec(family, (lam, Lam)), M)


# ---------------------------------------------------------------------------
# operator specs

# probe radii used when the caller does not fix rho; cone families stay well
# inside the admissible set once shifted by |x|^2/2
DEFAULT_PROBE_RHO = {
    "pucci+": 1.0,
    "pucci-": 1.0,
    "linear": 1.0,
    "mc": 1.0,
    "ma": 0.5,
    "sigma": 0.5,
    "quotient": 0.5,
    "slag": 1.0,
}
# the probe's sums of squares of jet distances (up to 2 rho) overflow past
# this radius; a family's own values may overflow at smaller radii, which the
# probe reports as ProbeDomainError
_RHO_MAX = 1e150


# text form of each family's spec: one colon per parameter (linear's b and c
# are optional)
_SPEC_SYNTAX = {
    "pucci+": "pucci+:<lambda>:<Lambda>",
    "pucci-": "pucci-:<lambda>:<Lambda>",
    "linear": "linear:<A>[:<b>:<c>]",
    "mc": "mc",
    "ma": "ma",
    "sigma": "sigma:<k>",
    "quotient": "quotient:<k>:<l>",
    "slag": "slag",
}


@dataclass(frozen=True)
class OperatorSpec:
    """Tagged description of an operator F(M, p, s, x), optionally shifted."""

    family: str
    params: tuple = ()
    linear_A: SymMatrix = None
    linear_b: tuple = None
    linear_c: float = 0.0
    shift_poly: object = None  # Polynomial of degree <= 2
    offset: float = 0.0

    def __post_init__(self):
        if self.family not in _SPEC_SYNTAX:
            raise ParameterError("unknown operator family %r" % (self.family,))
        if self.family in ("pucci+", "pucci-"):
            lam, Lam = self.params
            if not (0.0 < lam <= Lam):
                raise ParameterError("Pucci requires 0 < lambda <= Lambda")
        elif self.family == "sigma":
            (k,) = self.params
            if k < 1:
                raise ParameterError("sigma requires k >= 1")
        elif self.family == "quotient":
            k, l = self.params
            if not 1 <= l < k:
                raise ParameterError("quotient requires 1 <= l < k")
        elif self.family == "linear" and self.linear_A is None:
            raise ParameterError("linear operator needs a coefficient matrix")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def pucci_plus(lam, Lam):
        return OperatorSpec("pucci+", (float(lam), float(Lam)))

    @staticmethod
    def pucci_minus(lam, Lam):
        return OperatorSpec("pucci-", (float(lam), float(Lam)))

    @staticmethod
    def linear(A, b=None, c=0.0):
        if not isinstance(A, SymMatrix):
            A = SymMatrix.from_full(A)
        b = (0.0,) * A.dim if b is None else tuple(float(v) for v in b)
        return OperatorSpec("linear", (), linear_A=A, linear_b=b, linear_c=float(c))

    @staticmethod
    def mean_curvature():
        return OperatorSpec("mc")

    @staticmethod
    def monge_ampere():
        return OperatorSpec("ma")

    @staticmethod
    def sigma(k):
        return OperatorSpec("sigma", (int(k),))

    @staticmethod
    def quotient(k, l):
        return OperatorSpec("quotient", (int(k), int(l)))

    @staticmethod
    def lagrangian():
        return OperatorSpec("slag")

    # -- text form (CLI flag syntax) ------------------------------------------

    def text(self) -> str:
        if self.family in ("pucci+", "pucci-"):
            return "%s:%g:%g" % (self.family, self.params[0], self.params[1])
        if self.family == "sigma":
            return "sigma:%d" % self.params
        if self.family == "quotient":
            return "quotient:%d:%d" % self.params
        if self.family == "linear":
            parts = [",".join("%r" % v for v in self.linear_A.entries)]
            if any(v != 0.0 for v in self.linear_b) or self.linear_c != 0.0:
                parts.append(",".join("%r" % v for v in self.linear_b))
                parts.append("%r" % self.linear_c)
            return "linear:" + ":".join(parts)
        return self.family

    @staticmethod
    def parse(text: str) -> "OperatorSpec":
        """Parse the flag syntax: pucci+:1:2, sigma:2, quotient:3:1, mc, ma,
        slag, linear:<upper triangle>[:<b>:<c>]."""
        parts = text.strip().split(":")
        name, args = parts[0], parts[1:]
        if name not in _SPEC_SYNTAX:
            raise ParameterError("unknown operator spec %r" % text)
        usage = ParameterError("operator spec %r: expected %s" % (text, _SPEC_SYNTAX[name]))
        arity = _SPEC_SYNTAX[name].count(":")
        if len(args) != arity and not (name == "linear" and len(args) == 1):
            raise usage
        try:
            if name == "linear":
                tri, b, c = [float(v) for v in args[0].split(",")], None, 0.0
                if len(args) == 3:
                    b, c = [float(v) for v in args[1].split(",")], float(args[2])
            elif name in ("sigma", "quotient"):
                params = tuple(int(v) for v in args)
            else:
                params = tuple(float(v) for v in args)
        except ValueError:
            raise usage from None
        if name != "linear":
            return OperatorSpec(name, params)
        m = len(tri)
        n = int(round((math.sqrt(8 * m + 1) - 1) / 2))
        if n * (n + 1) // 2 != m:
            raise ParameterError("linear matrix needs n(n+1)/2 entries")
        if b is not None and len(b) != n:
            raise ParameterError("linear drift needs n = %d entries" % n)
        return OperatorSpec.linear(SymMatrix(n, tuple(tri)), b, c)


def _shift_jet(P, x):
    """D^2P, DP and P at the points x[..., n] of a polynomial of degree <= 2,
    from its Taylor data at the origin."""
    zero = np.zeros(P.dim)
    H, g = P.hessian(zero), P.gradient(zero)
    Hx = np.sum(x[..., None, :] * H, axis=-1)
    return H, g + Hx, P(zero) + np.sum(x * g, axis=-1) + 0.5 * np.sum(x * Hx, axis=-1)


def evaluate_many(op: OperatorSpec, M, p, s, x) -> np.ndarray:
    """F at a stack of jets: M[..., n, n], p[..., n], s[...] and x[..., n]
    broadcast against each other, and the result has their batch shape.

    Shifted specs translate the jets first and subtract the stored offset.
    A singular quotient raises SingularEvaluationError with the flat index of
    the first singular jet."""
    M = np.asarray(M, dtype=float)
    p, s, x = (np.asarray(a, dtype=float) for a in (p, s, x))
    n = M.shape[-1]
    if M.shape[-2] != n or p.shape[-1] != n or x.shape[-1] != n:
        raise InvalidInputError("jet components must share dimension n")
    shape = np.broadcast_shapes(M.shape[:-2], p.shape[:-1], s.shape, x.shape[:-1])
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        M = (M + np.swapaxes(M, -1, -2)) / 2.0
    if not np.isfinite(M).all():
        raise InvalidInputError("non-finite entry in a jet Hessian")
    if op.shift_poly is not None:
        if op.shift_poly.dim != n:
            raise InvalidInputError("shift polynomial dimension mismatch")
        H, grad, val = _shift_jet(op.shift_poly, x)
        M, p, s = M + H, p + grad, s + val
    if M.shape[:-2] != shape:
        M = np.broadcast_to(M, shape + (n, n))

    fam = op.family
    if fam == "linear":
        if op.linear_A.dim != n:
            raise InvalidInputError("linear operator dimension mismatch")
        A = op.linear_A.full()
        out = np.sum(A * M, axis=(-2, -1)) + np.sum(p * op.linear_b, axis=-1) + op.linear_c * s
    elif fam == "mc":
        w2 = 1.0 + np.sum(p * p, axis=-1)
        outer = p[..., :, None] * p[..., None, :] / w2[..., None, None]
        coeff = (np.eye(n) - outer) / np.sqrt(w2)[..., None, None]
        out = np.sum(coeff * M, axis=(-2, -1))
    else:
        ev = _eigh(M)
        if fam in ("pucci+", "pucci-"):
            lam, Lam = op.params
            pos = np.where(ev > 0, ev, 0.0).sum(axis=-1)
            neg = np.where(ev < 0, ev, 0.0).sum(axis=-1)
            out = Lam * pos + lam * neg if fam == "pucci+" else lam * pos + Lam * neg
        elif fam == "ma":
            out = np.prod(ev, axis=-1)
        elif fam == "slag":
            out = np.sum(np.arctan(ev), axis=-1)
        else:
            k = op.params[0]
            if k > n:
                raise ParameterError("%s requires k <= n" % fam)
            e = elementary_symmetric(ev, k)
            out = e[..., k]
            if fam == "quotient":
                zero = np.abs(e[..., op.params[1]]) < 1e-300
                if zero.any():
                    raise SingularEvaluationError(
                        "sigma_l vanishes at the evaluation jet",
                        index=int(np.flatnonzero(zero)[0]),
                    )
                out = out / e[..., op.params[1]]
    out = np.asarray(out - op.offset)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def evaluate(op: OperatorSpec, jet: Jet) -> float:
    """Evaluate F at the jet; shifted specs translate the jet first and
    subtract the stored offset."""
    return float(evaluate_many(op, jet.M.full(), jet.p, jet.s, jet.x))


def shift(op: OperatorSpec, P, normalize_origin: bool = False) -> OperatorSpec:
    """Shifted spec G(M,p,s,x) = F(M + D^2P(x), p + DP(x), s + P(x), x) - offset.

    With normalize_origin the offset is F evaluated at the jet of P at the
    origin, so G(0,0,0,x) vanishes identically for x-independent,
    Hessian-only base operators.
    """
    if op.shift_poly is not None:
        raise ParameterError("cannot shift an already shifted spec")
    if P.degree > 2:
        raise ParameterError("shift polynomial must have degree <= 2")
    offset = 0.0
    if normalize_origin:
        z = np.zeros(P.dim)
        offset = float(evaluate_many(op, P.hessian(z), P.gradient(z), P(z), z))
    return OperatorSpec(
        op.family,
        op.params,
        linear_A=op.linear_A,
        linear_b=op.linear_b,
        linear_c=op.linear_c,
        shift_poly=P,
        offset=offset,
    )


# ---------------------------------------------------------------------------
# ellipticity probe


@dataclass
class StructureConstants:
    """Probed ellipticity data for one operator on the jet set |.| <= rho."""

    rho: float
    lambda_hat: float
    Lambda_hat: float
    b0_hat: float
    c0_hat: float
    modulus_samples: list  # (r, omega_hat(r)) pairs, monotone in r
    violations: int
    samples: int
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "rho": self.rho,
            "lambda_hat": self.lambda_hat,
            "Lambda_hat": self.Lambda_hat,
            "b0_hat": self.b0_hat,
            "c0_hat": self.c0_hat,
            "modulus_samples": [[r, w] for r, w in self.modulus_samples],
            "violations": self.violations,
            "samples": self.samples,
            "notes": list(self.notes),
        }


_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
)
# a jet row takes n(n+1)/2 + n + 3 Halton bases, one prime each: 38 at n = 7
_N_MAX = 7


def _halton(indices, dim: int) -> np.ndarray:
    """Halton points #indices in [0,1)^dim, one row per index; an index below
    1 gives the origin. Object arrays of Python ints stay exact past int64."""
    i = np.maximum(indices, 0)[None]
    top, q = int(i.max(initial=0)), np.array(_PRIMES[:dim])[:, None]
    b, out, f = q.astype(i.dtype), np.zeros((dim, len(indices))), np.ones((dim, 1))
    # digit k of every index, least significant first, in the dims d < a; a
    # dim keeps digits while b_d^k <= top, so a prefix of rows, as bases grow
    k, a = 0, dim
    while a:
        j = i[:a] // b[:a]
        f[:a] /= q[:a]
        out[:a] += f[:a] * (i[:a] - j * b[:a]).astype(float)
        i, k = j, k + 1
        while a and _PRIMES[a - 1] ** k > top:
            a -= 1
    return out.T


_CONE_FAMILIES = ("ma", "sigma", "quotient")  # the families _admissible filters


def _admissible(op: OperatorSpec, M, margin: float) -> np.ndarray:
    """Sample filter on M[..., n, n]: the (shifted) matrix must sit strictly
    inside the cone where the family is elliptic (Gamma_k for
    sigma/quotient, positive matrices for det)."""
    fam = op.family
    if fam not in _CONE_FAMILIES:
        return np.ones(M.shape[:-2], dtype=bool)
    if op.shift_poly is not None:
        M = M + op.shift_poly.hessian(np.zeros(M.shape[-1]))
    ev = eigenvalues_sym(M)
    if fam == "ma":
        return ev[..., 0] > margin
    e = elementary_symmetric(ev, op.params[0])
    return np.all(e[..., 1:] > margin, axis=-1)


def _norms(M) -> np.ndarray:
    """Spectral radii of a stack of symmetric matrices."""
    return np.max(np.abs(eigenvalues_sym(M)), axis=-1)


def _cube_matrices(U, n: int, radii):
    """The matrices 2u - 1 of the triangle columns of the cube rows U, scaled
    to each spectral radius in ``radii`` (0 where 2u - 1 vanishes)."""
    iu = _triu(n)
    A = np.empty((len(U), n, n))
    A[:, iu[0], iu[1]] = A[:, iu[1], iu[0]] = 2.0 * U[:, : len(iu[0])] - 1.0
    nrm = _norms(A)
    zero = (nrm < 1e-14)[:, None, None]
    return [np.where(zero, 0.0, (r / np.maximum(nrm, 1e-14))[:, None, None] * A) for r in radii]


def _cube_jets(U, n: int, rho: float, mat_shell=False, p_shell=False):
    """Jets (M[R, n, n], p[R, n], s[R]) of the cube rows U[R, m + n + 3],
    laid out as matrix triangle (m = n(n+1)/2) | p direction | p radius | s |
    matrix radius: |M| = rho * u (rho where mat_shell), |p| = rho * u (rho
    where p_shell) and s = (2u - 1) rho."""
    m = n * (n + 1) // 2
    (M,) = _cube_matrices(U, n, [np.where(mat_shell, rho, rho * U[:, m + n + 2])])
    # a non-FMA ddot (OpenBLAS's Prescott kernel) rounds by the 16-byte
    # alignment of its vector; rows of even width all start aligned, as a
    # one-row array does, so |pdir| rounds as np.linalg.norm of one row
    pdir = np.empty((len(U), n + n % 2))[:, :n]
    pdir[:] = 2.0 * U[:, m : m + n] - 1.0
    pn = np.sqrt(np.vecdot(pdir, pdir))
    pdir = np.where(pn[:, None] > 1e-12, pdir / np.maximum(pn, 1e-12)[:, None], 0.0)
    p = np.where(p_shell, rho, rho * U[:, m + n])[:, None] * pdir
    return M, p, (2.0 * U[:, m + n + 1] - 1.0) * rho


def _accepted_rows(first, width, dim, cap, need, ok_of, k=0):
    """The in-order acceptance scan: rows of ``width`` consecutive Halton
    points in [0,1)^dim from index ``first`` on, in blocks that double up to
    max(need, 4096) rows, until ``need`` are accepted or ``cap`` are read.
    The row that would be draw k is judged by mask [k % 4 == 1] of ok_of."""
    rows, read, size = [], 0, max(need, 1)
    while len(rows) < need and read < cap:
        size = min(size, cap - read)
        lo, hi = first + width * read, first + width * (read + size)
        idx = np.arange(lo, hi, dtype=np.int64 if -(2**63) <= lo and hi <= 2**63 else object)
        U = _halton(idx, dim).reshape(size, width * dim)
        masks = ok_of(U)
        for r in range(size):
            if len(rows) == need:
                break
            read += 1
            if masks[(k + len(rows)) % 4 == 1][r]:
                rows.append(U[r])
        size = min(2 * size, max(need, 4096))
    return np.reshape(rows, (-1, width * dim))


def _probe_draws(op: OperatorSpec, rho, n, samples, pairs, seed, margin):
    """The probe's jets (M, p, s) and sandwich pairs (M1, M2, segments, p, s).

    Jets: the zero jet, then admissible draws k = 1, 2, ... from the Halton
    rows seed * 7919 + 2, ..., on the matrix shell when k % 4 == 1 and the
    gradient shell when k % 4 == 2. Pair a: M1 and p from the point
    (seed + 1) * 104729 + 1 + 2a, M2 and s from the next one, kept when five
    points of its segment are admissible. Each reads at most 400 * count."""
    dim = n * (n + 1) // 2 + n + 3
    fracs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])[:, None, None]

    def jets_ok(U):
        return [_admissible(op, M, margin) for M in _cube_matrices(U, n, (rho * U[:, -1], rho))]

    def pair_of(U):
        (M1, p, _), (M2, _, s) = _cube_jets(U[:, :dim], n, rho), _cube_jets(U[:, dim:], n, rho)
        return M1, M2, (1 - fracs) * M1[:, None] + fracs * M2[:, None], p, s

    def pair_ok(U):
        ok = np.all(_admissible(op, pair_of(U)[2], margin), axis=-1)
        return ok, ok

    if op.family not in _CONE_FAMILIES:  # every draw is admissible: build no matrices
        jets_ok = pair_ok = lambda U: [np.ones(len(U), dtype=bool)] * 2

    U = _accepted_rows(seed * 7919 + 2, 1, dim, 400 * samples - 1, samples - 1, jets_ok, k=1)
    k = 1 + np.arange(len(U))
    jets = _cube_jets(U, n, rho, k % 4 == 1, k % 4 == 2)
    jets = tuple(np.concatenate([np.zeros((1,) + a.shape[1:]), a]) for a in jets)
    U = _accepted_rows((seed + 1) * 104729 + 1, 2, dim, 400 * pairs, pairs, pair_ok)
    return jets, pair_of(U)


def _dmf(op: OperatorSpec, M, p, s, x) -> np.ndarray:
    """Central-difference D_M F at the jets M[J, n, n], p[J, n], s[J]
    (shift-aware), as symmetric matrices [J, n, n].

    Entry (i,j) is the derivative along the symmetrized basis matrix
    (e_i e_j^T + e_j e_i^T)/2, which matches the gradient convention in
    dF(M)[N] = tr(D_M F N). The evaluations are laid out jet by jet, entry
    by entry, + before -, so a flat error index divided by 2 n(n+1)/2 is
    the jet's index."""
    n = M.shape[-1]
    iu = _triu(n)
    E = np.eye(n)[iu[0], :, None] * np.eye(n)[iu[1], None, :]
    E = (E + np.swapaxes(E, -1, -2)) / 2.0
    h = 1e-5 * np.maximum(1.0, _norms(M))
    hE = h[:, None, None, None] * E
    pm = np.stack([M[:, None] + hE, M[:, None] - hE], axis=2)
    F = evaluate_many(op, pm, p[:, None, None], s[:, None, None], x)
    G = np.empty(M.shape)
    G[:, iu[0], iu[1]] = G[:, iu[1], iu[0]] = (F[..., 0] - F[..., 1]) / (2.0 * h[:, None])
    return G


def ellipticity_probe(
    op: OperatorSpec,
    rho: float,
    n: int,
    samples: int = 160,
    seed: int = 0,
    pairs: int = 80,
) -> StructureConstants:
    """Estimate structure constants of F on the jet set |M|,|p|,|s| <= rho.

    lambda_hat/Lambda_hat are the extreme eigenvalues of central-difference
    D_M F over the sampled jets; the zero jet and jets on the boundary shell
    are forced into the sample so suprema attained there are not missed.
    The Pucci sandwich is then certified on sampled matrix pairs
    (|M|, |M+N| <= rho, shared p, s, x) using the probed constants widened by
    the tolerance 1e-6*(1+|N|); D_M F along each tested segment is folded into
    lambda_hat/Lambda_hat first, so the certificate is self-consistent.

    The jets and pairs are drawn from Halton rows in array blocks
    (_probe_draws). Cone families (det, sigma_k, quotients) reject draws whose
    shifted matrix leaves the admissible cone, so the raw family, whose zero
    jet sits at the cone tip, fails before drawing. Each phase evaluates its
    jets in one batch; a failed evaluation raises ProbeDomainError naming the
    first failing jet in draw order.
    """
    if not 0 < rho <= _RHO_MAX:
        raise ParameterError("probe requires 0 < rho <= %g (--rho)" % _RHO_MAX)
    if not 1 <= n <= _N_MAX:
        raise ParameterError("probe requires 1 <= n <= %d (--n)" % _N_MAX)
    margin = 1e-3 * min(1.0, rho)
    m_tri = n * (n + 1) // 2
    x0 = np.zeros(n)
    iu = _triu(n)

    def batch(fn, M, p, s, per=1):
        """fn(op, M, p, s, x0) on the jets M[J, n, n], p[J, n], s[J], each
        taking ``per`` consecutive evaluations; a jet whose result overflows
        fails like one whose evaluation raises."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out = fn(op, M, p, s, x0)
        except (SingularEvaluationError, ParameterError) as exc:
            j, why = (getattr(exc, "index", None) or 0) // per, exc
        else:
            bad = ~np.isfinite(out).reshape(len(M), -1).all(axis=1)
            if not bad.any():
                return out
            j, why = int(np.argmax(bad)), "the value is not finite"
        raise ProbeDomainError(
            "operator evaluation failed inside the probe set: %s" % why,
            jet=(tuple(M[j][iu]), tuple(p[j]), float(s[j]), tuple(x0)),
        )

    # the zero jet is always drawn first, so no draw succeeds without it
    if not _admissible(op, np.zeros((n, n)), margin):
        raise ProbeDomainError(
            "the zero jet lies outside the admissible cone of %s; probe the operator"
            " shifted to an admissible jet (--shift-identity)" % op.family,
            jet=(tuple(np.zeros(m_tri)), tuple(x0), 0.0, tuple(x0)),
        )
    # the cone filter's sigma_k may overflow to inf on large draws; their
    # evaluations then fail in batch
    with np.errstate(over="ignore", invalid="ignore"):
        draws = _probe_draws(op, rho, n, samples, pairs, seed, margin)
    (Mj, pj, sj), (M1, M2, segs, pp, ps) = draws
    J = len(Mj)
    if J < max(8, samples // 4):
        raise ProbeDomainError("could not draw enough admissible probe jets")

    G = batch(_dmf, Mj, pj, sj, per=2 * m_tri)
    ev = eigenvalues_sym(G)
    lam_hat, Lam_hat = float(np.min(ev[:, 0])), float(np.max(ev[:, -1]))

    # gradient / value Lipschitz constants from sampled difference quotients:
    # jet k against jet k with the p, then the s, of jet k + 1
    K = min(J - 1, 64)
    p3 = np.stack([pj[:K], pj[1 : K + 1], pj[:K]], axis=1).reshape(-1, n)
    s3 = np.stack([sj[:K], sj[:K], sj[1 : K + 1]], axis=1).reshape(-1)
    vals = batch(evaluate_many, np.repeat(Mj[:K], 3, axis=0), p3, s3).reshape(K, 3)

    def lipschitz(dv, d):
        return float(np.max(np.abs(dv[d > 1e-9]) / d[d > 1e-9], initial=0.0))

    b0_hat = lipschitz(vals[:, 1] - vals[:, 0], np.linalg.norm(pj[1 : K + 1] - pj[:K], axis=-1))
    c0_hat = lipschitz(vals[:, 2] - vals[:, 0], np.abs(sj[1 : K + 1] - sj[:K]))

    # modulus of continuity of D_M F on a dyadic distance grid, over the
    # pairs of jets less than 12 apart in draw order
    levels = 8
    radii = [2.0 * rho * 0.5**j for j in range(levels)][::-1]
    a, b = np.triu_indices(J, 1)
    a, b = a[b - a < 12], b[b - a < 12]
    dist = np.maximum.reduce([
        _norms(Mj[a] - Mj[b]),
        np.linalg.norm(pj[a] - pj[b], axis=-1),
        np.abs(sj[a] - sj[b]),
    ])
    gap = _norms(G[a] - G[b])
    omega = np.max(np.where(dist <= np.array(radii)[:, None], gap, 0.0), axis=1)
    modulus = list(zip(radii, np.maximum.accumulate(omega).tolist()))

    # Pucci-sandwich certification on matrix pairs
    violations = 0
    if len(M1):
        # segment derivatives first, so the certified constants cover them
        k = segs.shape[1]
        segs = segs.reshape(-1, n, n)
        G = batch(_dmf, segs, np.repeat(pp, k, axis=0), np.repeat(ps, k), per=2 * m_tri)
        ev = eigenvalues_sym(G)
        lam_hat = min(lam_hat, float(np.min(ev[:, 0])))
        Lam_hat = max(Lam_hat, float(np.max(ev[:, -1])))

        lam_eff = max(lam_hat - 1e-6, 0.5 * lam_hat) if lam_hat > 0 else 1e-12
        Lam_eff = Lam_hat + 1e-6
        ends = np.stack([M2, M1], axis=1).reshape(-1, n, n)
        vals = batch(evaluate_many, ends, np.repeat(pp, 2, axis=0), np.repeat(ps, 2))
        diff = vals[0::2] - vals[1::2]
        N = M2 - M1
        tol = 1e-6 * (1.0 + _norms(N))
        lo = pucci(N, lam_eff, Lam_eff, "minus")
        hi = pucci(N, lam_eff, Lam_eff, "plus")
        violations = int(np.count_nonzero((diff < lo - tol) | (diff > hi + tol)))

    notes = []
    if op.family == "mc" and abs(rho - 1.0) < 1e-12:
        ref = math.sqrt(2.0) / 2.0
        if abs(Lam_hat - ref) > 1e-3:
            notes.append(
                "flagged: measured Lambda_hat=%.6f at rho=1 (attained at p=0) "
                "differs from the sqrt(2)/2=%.6f reference upper constant for "
                "this operator; discrepancy reported, not resolved" % (Lam_hat, ref)
            )

    return StructureConstants(
        rho=rho,
        lambda_hat=lam_hat,
        Lambda_hat=Lam_hat,
        b0_hat=b0_hat,
        c0_hat=c0_hat,
        modulus_samples=modulus,
        violations=violations,
        samples=J,
        notes=notes,
    )
