import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nelliptic import operators
from nelliptic.errors import (
    InvalidInputError,
    ParameterError,
    ProbeDomainError,
    SingularEvaluationError,
)
from nelliptic.operators import (
    Jet,
    OperatorSpec,
    SymMatrix,
    eigenvalues_sym,
    elementary_symmetric,
    ellipticity_probe,
    evaluate,
    evaluate_many,
    is_k_admissible,
    pucci,
    shift,
    sigma_k,
)
from nelliptic.polyfit import Polynomial


def faddeev_leverrier(A):
    """Characteristic-polynomial coefficients via the Faddeev-LeVerrier
    recurrence: matrix products and traces only, independent of any
    eigenvalue algorithm. Roots via np.roots give the companion-matrix
    eigenvalue oracle."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    c = np.zeros(n + 1)
    c[0] = 1.0
    Mk = np.zeros_like(A)
    for k in range(1, n + 1):
        Mk = A @ Mk + c[k - 1] * A
        c[k] = -np.trace(Mk) / k
    return c


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(eigenvalues_sym(SymMatrix.diag([3, 1, 2])), [1, 2, 3])

    def test_2x2_closed_form(self):
        assert np.allclose(eigenvalues_sym(SymMatrix.from_full([[0, 1], [1, 0]])), [-1, 1])

    def test_signed_zero_entries_give_equal_values(self):
        # the stored SymMatrix turns -0.0 into 0.0, so the raw matrix and its
        # Jet must give bitwise-equal eigenvalues
        t = 5e-324
        A = np.array([[-t, -0.0, -t], [-0.0, -t, 0.5], [-t, 0.5, -1.980440037485146]])
        B = np.where(A == 0.0, 0.0, A)
        assert eigenvalues_sym(A).tolist() == eigenvalues_sym(B).tolist()
        assert eigenvalues_sym(A).tolist() == eigenvalues_sym(SymMatrix.from_full(A)).tolist()

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.normal(size=(5, 5))
            A = (A + A.T) / 2
            got = eigenvalues_sym(A)
            expected = np.sort(np.real(np.roots(faddeev_leverrier(A))))
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.normal(size=(6, 6)) * 3
            A = (A + A.T) / 2
            ev, Q = eigenvalues_sym(A, vectors=True)
            resid = np.max(np.abs(Q @ np.diag(ev) @ Q.T - A))
            assert resid <= 1e-12 * max(1.0, np.max(np.abs(ev)))

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2
            ev = eigenvalues_sym(A)
            assert abs(ev.sum() - np.trace(A)) <= 1e-12 * n * max(1, np.max(np.abs(ev)))
            det = np.linalg.det(A)  # LU-based oracle
            assert abs(np.prod(ev) - det) <= 1e-10 * max(1.0, abs(det))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            eigenvalues_sym(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestPucci:
    def test_reference_values(self):
        M = SymMatrix.diag([1, -1])
        assert pucci(M, 1, 2, "plus") == pytest.approx(1.0)
        assert pucci(M, 1, 2, "minus") == pytest.approx(-1.0)

    def test_degenerate_parameters_equal_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = rng.normal(size=(4, 4))
            A = (A + A.T) / 2
            c = rng.uniform(0.5, 2.0)
            assert pucci(A, c, c, "plus") == pytest.approx(c * np.trace(A), abs=1e-11)

    def test_parameter_errors(self):
        M = SymMatrix.diag([1.0, 1.0])
        with pytest.raises(ParameterError):
            pucci(M, 0.0, 1.0, "plus")
        with pytest.raises(ParameterError):
            pucci(M, 2.0, 1.0, "plus")
        with pytest.raises(ParameterError):
            pucci(M, 1.0, 2.0, "sideways")

    def test_algebraic_identities(self):
        rng = np.random.default_rng(2024)
        lam, Lam = 0.5, 3.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            M = rng.normal(size=(n, n))
            M = (M + M.T) / 2
            N = rng.normal(size=(n, n))
            N = (N + N.T) / 2
            mp, mm = pucci(M, lam, Lam, "plus"), pucci(M, lam, Lam, "minus")
            assert mm <= mp + 1e-10
            assert pucci(-M, lam, Lam, "plus") == pytest.approx(-mm, abs=1e-10)
            assert pucci(M + N, lam, Lam, "plus") <= mp + pucci(N, lam, Lam, "plus") + 1e-10
            assert pucci(M + N, lam, Lam, "minus") >= mm + pucci(N, lam, Lam, "minus") - 1e-10


class TestEvaluate:
    def test_mean_curvature_at_identity(self):
        assert evaluate(OperatorSpec.mean_curvature(), Jet.make(np.eye(2))) == pytest.approx(2.0)

    def test_lagrangian_identity(self):
        val = evaluate(OperatorSpec.lagrangian(), Jet.make(np.diag([1.0, 1.0])))
        assert val == pytest.approx(math.pi / 2, abs=1e-14)

    def test_sigma2(self):
        assert evaluate(OperatorSpec.sigma(2), Jet.make(np.diag([1.0, 2.0, 3.0]))) == pytest.approx(11.0)

    def test_mean_curvature_divergence_oracle(self):
        # u(x) = x1 + |x|^2/2 has Du(0) = (1,0), D^2u = I; compare against the
        # numerically computed divergence of A(Du) = Du / sqrt(1 + |Du|^2)
        def A_field(x):
            du = np.array([1.0 + x[0], x[1]])
            return du / math.sqrt(1.0 + du @ du)

        h = 1e-5
        div = 0.0
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            div += (A_field(e)[d] - A_field(-e)[d]) / (2 * h)
        got = evaluate(OperatorSpec.mean_curvature(), Jet.make(np.eye(2), p=(1.0, 0.0)))
        assert got == pytest.approx(div, abs=1e-6)

    def test_sigma_n_is_determinant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            A = (A + A.T) / 2
            got = evaluate(OperatorSpec.sigma(4), Jet.make(A))
            assert got == pytest.approx(np.linalg.det(A), abs=1e-10 * max(1, abs(np.linalg.det(A))))

    def test_sigma_permutation_invariance(self):
        vals = [2.0, -1.0, 0.5]
        a = evaluate(OperatorSpec.sigma(2), Jet.make(np.diag(vals)))
        b = evaluate(OperatorSpec.sigma(2), Jet.make(np.diag(vals[::-1])))
        assert a == pytest.approx(b, abs=1e-14)

    def test_quotient_singularity(self):
        op = OperatorSpec.quotient(2, 1)
        with pytest.raises(SingularEvaluationError):
            evaluate(op, Jet.make(np.diag([1.0, -1.0, 0.0])))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            Jet(SymMatrix.diag([1.0, 1.0]), (0.0,), 0.0, (0.0, 0.0))


class TestAdmissibility:
    def test_examples(self):
        assert is_k_admissible(SymMatrix.diag([1, 1, 1]), 3)
        assert not is_k_admissible(SymMatrix.diag([1, 1, -0.5]), 2)  # sigma_2 = 0
        assert is_k_admissible(SymMatrix.diag([2, -0.1, -0.1]), 1)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            is_k_admissible(SymMatrix.diag([1, 1]), 3)
        with pytest.raises(ParameterError):
            sigma_k(SymMatrix.diag([1, 1]), 0)


class TestShift:
    def test_normalized_ma_shift(self):
        op = shift(
            OperatorSpec.monge_ampere(), Polynomial.half_square_norm(2), normalize_origin=True
        )
        assert op.offset == pytest.approx(1.0)  # det I
        assert evaluate(op, Jet.make(np.zeros((2, 2)))) == pytest.approx(0.0, abs=1e-14)

    def test_zero_shift_identity(self):
        base = OperatorSpec.lagrangian()
        shifted = shift(base, Polynomial.zero(2, 2))
        rng = np.random.default_rng(9)
        for _ in range(100):
            A = rng.normal(size=(2, 2))
            A = (A + A.T) / 2
            j = Jet.make(A, rng.normal(size=2), rng.normal(), rng.normal(size=2))
            assert evaluate(shifted, j) == pytest.approx(evaluate(base, j), abs=1e-14)

    def test_sigma2_normalization(self):
        # D^2 P = diag(1, 1, 0) has sigma_2 = 1... use P with sigma_2(D^2P)=1
        A = np.diag([1.0, 1.0, 0.0])
        P = Polynomial.from_quadratic(A, None, 0.0)
        assert sigma_k(SymMatrix.from_full(A), 2) == pytest.approx(1.0)
        op = shift(OperatorSpec.sigma(2), P, normalize_origin=True)
        assert evaluate(op, Jet.make(np.zeros((3, 3)))) == pytest.approx(0.0, abs=1e-14)

    def test_shift_identity_on_random_jets(self):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(2, 2))
        P = Polynomial.from_quadratic((A + A.T) / 2, rng.normal(size=2), rng.normal())
        base = OperatorSpec.mean_curvature()
        G = shift(base, P)
        for _ in range(50):
            M = rng.normal(size=(2, 2))
            M = (M + M.T) / 2
            p = rng.normal(size=2)
            s = rng.normal()
            x = rng.normal(size=2) * 0.5
            lhs = evaluate(G, Jet.make(M, p, s, x))
            Ms = M + P.hessian(x)
            rhs = evaluate(base, Jet.make(Ms, p + P.gradient(x), s + P(x), x))
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_degree_cap(self):
        P = Polynomial(2, 3, {(3, 0): 1.0})
        with pytest.raises(ParameterError):
            shift(OperatorSpec.monge_ampere(), P)


class TestSpecText:
    def test_round_trips(self):
        for text in ("pucci+:1:2", "pucci-:0.5:3", "sigma:2", "quotient:3:1", "mc", "ma", "slag"):
            assert OperatorSpec.parse(text).text() == text

    def test_linear_round_trip(self):
        op = OperatorSpec.parse("linear:1.0,0.0,3.0")
        assert op.linear_A.full()[1, 1] == 3.0
        assert OperatorSpec.parse(op.text()).text() == op.text()

    def test_bad_specs(self):
        for text in ("pucci+:2:1", "quotient:1:1", "nope", "mc:1"):
            with pytest.raises(ParameterError):
                OperatorSpec.parse(text)


class TestProbe:
    def test_linear_constant(self):
        sc = ellipticity_probe(
            OperatorSpec.linear(np.diag([1.0, 3.0])), 1.0, 2, samples=60, pairs=20
        )
        assert sc.lambda_hat == pytest.approx(1.0, abs=1e-8)
        assert sc.Lambda_hat == pytest.approx(3.0, abs=1e-8)
        assert sc.violations == 0

    def test_mean_curvature_constants(self):
        sc = ellipticity_probe(OperatorSpec.mean_curvature(), 1.0, 2, samples=120, pairs=40)
        assert sc.lambda_hat == pytest.approx(math.sqrt(2) / 4, abs=1e-3)
        assert sc.Lambda_hat == pytest.approx(1.0, abs=1e-3)
        assert sc.notes, "the Lambda discrepancy note must be emitted"
        assert sc.b0_hat > 0.1 and sc.c0_hat == 0.0  # F depends on p, not on s

    def test_lagrangian_lipschitz_constants(self):
        sc = ellipticity_probe(OperatorSpec.lagrangian(), 1.0, 2, samples=80, pairs=20)
        assert sc.b0_hat <= 1e-10
        assert sc.c0_hat <= 1e-10

    def test_modulus_monotone(self):
        sc = ellipticity_probe(OperatorSpec.lagrangian(), 1.0, 2, samples=60, pairs=10)
        vals = [w for _, w in sc.modulus_samples]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert sc.lambda_hat <= sc.Lambda_hat

    def test_bad_rho(self):
        # past 1e150 the probe's sums of squares of jet distances overflow
        for rho in (0.0, -1.0, 2e150, 1e308, math.inf, math.nan):
            with pytest.raises(ParameterError, match="rho"):
                ellipticity_probe(OperatorSpec.mean_curvature(), rho, 2)

    @pytest.mark.parametrize("op", ["ma", "sigma:3", "quotient:3:1"])
    def test_overflowing_values_are_a_domain_error(self, op):
        # the product of three eigenvalues near 1e110 overflows well inside
        # the radii the probe accepts: no warning, and the jet is named
        op = shift(OperatorSpec.parse(op), Polynomial.half_square_norm(3), normalize_origin=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProbeDomainError, match="not finite") as info:
                ellipticity_probe(op, 1e110, 3, samples=16, pairs=4)
        M, p, s, x = info.value.jet
        assert len(M) == 6 and max(map(abs, M)) > 1e100

    def test_determinism(self):
        a = ellipticity_probe(OperatorSpec.mean_curvature(), 1.0, 2, samples=40, pairs=10, seed=5)
        b = ellipticity_probe(OperatorSpec.mean_curvature(), 1.0, 2, samples=40, pairs=10, seed=5)
        assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# properties of the batched evaluation path

FAMILY_SPECS = ("pucci+:0.5:2", "pucci-:0.5:2", "linear", "mc", "ma", "sigma:2", "quotient:2:1",
                "slag")
entries = st.floats(-3.0, 3.0) | st.sampled_from([0.0, 1.0, -1.0, 0.5])


def symmetrize(A):
    return (A + np.swapaxes(A, -1, -2)) / 2.0


@st.composite
def jet_stacks(draw):
    """(spec, M, p, s, x): a family, shifted or not, and a stack of jets."""
    text = draw(st.sampled_from(FAMILY_SPECS))
    n = draw(st.integers(2 if text[0] in "sq" else 1, 4))
    if text == "linear":
        tri = draw(arrays(float, n * (n + 1) // 2, elements=entries))
        b = draw(arrays(float, n, elements=entries))
        op = OperatorSpec.linear(SymMatrix(n, tuple(tri)), b, draw(entries))
    else:
        op = OperatorSpec.parse(text)
    if draw(st.booleans()):
        A = symmetrize(draw(arrays(float, (n, n), elements=entries)))
        P = Polynomial.from_quadratic(A, draw(arrays(float, n, elements=entries)), draw(entries))
        try:
            op = shift(op, P, normalize_origin=draw(st.booleans()))
        except SingularEvaluationError:
            op = shift(op, P)
    batch = draw(st.integers(1, 6))
    M = symmetrize(draw(arrays(float, (batch, n, n), elements=entries)))
    p = draw(arrays(float, (batch, n), elements=entries))
    s = draw(arrays(float, batch, elements=entries))
    x = draw(arrays(float, (batch, n), elements=entries))
    return op, M, p, s, x


@settings(max_examples=300, deadline=None)
@given(jet_stacks())
def test_evaluate_many_equals_per_jet_evaluate(case):
    op, M, p, s, x = case
    jets = [Jet.make(*jet) for jet in zip(M, p, s, x)]
    try:
        got = evaluate_many(op, M, p, s, x)
    except SingularEvaluationError as exc:
        # the index names the first jet that is singular on its own
        for jet in jets[: exc.index]:
            evaluate(op, jet)
        with pytest.raises(SingularEvaluationError):
            evaluate(op, jets[exc.index])
        return
    assert got.shape == s.shape
    assert [float(v) for v in got] == [evaluate(op, jet) for jet in jets]


sym_stack_pairs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[arrays(float, (4, n, n), elements=entries).map(symmetrize)] * 2)
)
LAM, BIG_LAM = 0.5, 3.0


def tiny_beside_unit_pair():
    """A[2] is 0.5 at (0,1), (0,2) and their mirrors; B[2] adds 1.58e-161
    everywhere else. Unflushed, LAPACK gave A[2] + B[2] the eigenvalues
    +-1.41576 in place of +-sqrt(2)."""
    A = np.zeros((4, 5, 5))
    A[2, 0, 1:3] = A[2, 1:3, 0] = 0.5
    B = np.where(A == 0.0, 1.5827927344330057e-161, A)
    B[[0, 1, 3]] = 0.0
    return A, B


@settings(max_examples=200, deadline=None)
@given(sym_stack_pairs)
@example(tiny_beside_unit_pair())
def test_pucci_identities(pair):
    A, B = pair
    tol = 1e-12 * (1.0 + np.abs(A).sum() + np.abs(B).sum())

    def plus(X):
        return pucci(X, LAM, BIG_LAM, "plus")

    def minus(X):
        return pucci(X, LAM, BIG_LAM, "minus")

    assert np.all(np.abs(plus(A) + minus(-A)) <= tol)
    assert np.all(minus(A) + minus(B) <= minus(A + B) + tol)
    assert np.all(minus(A + B) <= minus(A) + plus(B) + tol)


def ungated_flush_eigenvalues(M, vectors=False):
    """eigenvalues_sym with the flush run on every matrix of the stack: the
    entries up to 1e-150 of the matrix's largest become 0.0."""
    a = symmetrize(np.asarray(M, dtype=float))
    mag = np.abs(a)
    a = np.where(mag <= 1e-150 * mag.max(axis=(-2, -1), keepdims=True, initial=0.0), 0.0, a)
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


tiny = st.sampled_from([1.5827927344330057e-161, 1e-150, 1e-300, 2.2e-308, 5e-324])
scales = st.sampled_from([0.0, 1.0]) | st.integers(-300, 300).map(lambda e: 10.0**e)


@st.composite
def scaled_stacks(draw):
    """Stacks of 1 to 6 matrices that mix tiny entries and -0.0, each matrix
    scaled by 0 (an all-zero matrix) or by 1e-300 to 1e300."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = entries | st.just(-0.0) | tiny | tiny.map(lambda t: -t)
    A = draw(arrays(float, (k, n, n), elements=entry))
    return A * draw(arrays(float, (k, 1, 1), elements=scales))


def unit_among_tiny():
    """1 at (0,1), (0,2) and their mirrors, 1.58e-161 elsewhere: unflushed,
    LAPACK gave the eigenvalues +-1.41576 in place of +-sqrt(2)."""
    A = np.full((1, 5, 5), 1.5827927344330057e-161)
    A[0, 0, 1:3] = A[0, 1:3, 0] = 1.0
    return A


@settings(max_examples=150, deadline=None)
@given(scaled_stacks(), st.booleans())
@example(unit_among_tiny(), False)
@example(unit_among_tiny(), True)
def test_gated_flush_equals_the_per_matrix_flush(M, vectors):
    got, expected = eigenvalues_sym(M, vectors), ungated_flush_eigenvalues(M, vectors)
    if not vectors:
        got, expected = (got,), (expected,)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]


@pytest.mark.parametrize(
    "M",
    [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]], [[0.0, 1.5e308], [1.5e308, 0.0]]],
    ids=["inf", "nan", "overflows-when-symmetrized"],
)
@pytest.mark.parametrize("text", ["eigenvalues", "pucci+:0.5:2", "mc", "linear:1,0,1"])
def test_nonfinite_hessians_are_rejected(M, text):
    with warnings.catch_warnings(record=True) as caught, pytest.raises(InvalidInputError):
        warnings.simplefilter("always")
        if text == "eigenvalues":
            eigenvalues_sym(np.array(M))
        else:
            evaluate_many(OperatorSpec.parse(text), M, np.zeros(2), 0.0, np.zeros(2))
    assert not caught  # the refusal is the error, with no overflow warning first


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FAMILY_SPECS[:2] + FAMILY_SPECS[3:]), st.integers(2, 4), st.data())
def test_monotone_in_the_hessian(text, n, data):
    """F(M + N) >= F(M) for N >= 0; the cone families inside Gamma_k."""
    op = OperatorSpec.parse(text)
    M = symmetrize(data.draw(arrays(float, (n, n), elements=entries)))
    B = data.draw(arrays(float, (n, n), elements=entries))
    N = B @ B.T
    p = data.draw(arrays(float, n, elements=entries))
    if op.family in ("ma", "sigma", "quotient"):
        k = n if op.family == "ma" else op.params[0]
        radius = np.max(np.abs(eigenvalues_sym(M)))
        M = M + (data.draw(st.floats(0.5, 1.5)) * radius + 0.01) * np.eye(n)
        assume(np.all(elementary_symmetric(eigenvalues_sym(M), k)[1:] > 1e-3))
    lo, hi = evaluate_many(op, np.stack([M, M + N]), p, 0.0, np.zeros(n))
    assert hi >= lo - 1e-9 * (1.0 + abs(lo) + abs(hi))


def singular_quotient():
    """quotient:2:1 shifted by diag(5e-6, 5e-6)/2 on |.| <= 1e-9: the zero
    jet is admissible, and its D_M F step -h E_11 makes sigma_1 exactly 0."""
    P = Polynomial.from_quadratic(np.diag([5e-6, 5e-6]), None, 0.0)
    return shift(OperatorSpec.quotient(2, 1), P)


def test_probe_domain_error_names_the_jet():
    with pytest.raises(ProbeDomainError) as info:
        ellipticity_probe(singular_quotient(), 1e-9, 2, samples=8, pairs=2)
    assert info.value.jet == ((0.0, 0.0, 0.0), (0.0, 0.0), 0.0, (0.0, 0.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.9, 0.5), st.sampled_from(["mc", "slag", "ma"]))
def test_probe_domain_error_names_first_jet_in_draw_order(cut, text):
    """Evaluations at jets with s > cut fail; the error names the first
    drawn jet with s > cut, since the derivative phase comes first."""
    real = operators.evaluate_many
    batches = []

    def failing_above_cut(op, M, p, s, x):
        val = real(op, M, p, s, x)
        batches.append(np.broadcast_to(s, val.shape))
        bad = batches[-1] > cut
        if bad.any():
            raise SingularEvaluationError("s above the cut", index=int(np.flatnonzero(bad)[0]))
        return val

    op = OperatorSpec.parse(text)
    if text == "ma":
        op = shift(op, Polynomial.half_square_norm(2), normalize_origin=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "evaluate_many", failing_above_cut)
        with pytest.raises(ProbeDomainError) as info:
            ellipticity_probe(op, 1.0, 2, samples=24, pairs=4, seed=3)
    drawn = batches[0][:, 0, 0]  # the derivative batch: the s of each jet, in draw order
    assert info.value.jet[2] == drawn[np.flatnonzero(drawn > cut)[0]]


def test_triangle_indices_cached_read_only():
    for n in (1, 2, 3):
        iu = operators._triu(n)
        assert operators._triu(n) is iu
        assert all(np.array_equal(a, b) for a, b in zip(iu, np.triu_indices(n)))
        assert not any(a.flags.writeable for a in iu)
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    S = SymMatrix.from_full(M)
    assert S.entries == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert np.array_equal(S.full(), M)


@pytest.mark.parametrize("text", ["ma", "sigma:2", "quotient:2:1"])
def test_probe_of_an_unshifted_cone_family_fails_before_drawing(text, monkeypatch):
    # the zero jet, drawn first, sits at the tip of the cone: no draw can succeed
    draws = []  # one entry per Halton row
    real = operators._halton

    def counted(indices, dim):
        draws.extend(indices)
        return real(indices, dim)

    monkeypatch.setattr(operators, "_halton", counted)
    with pytest.raises(ProbeDomainError, match="--shift-identity"):
        ellipticity_probe(OperatorSpec.parse(text), 1.0, 2, samples=160)
    assert draws == []
    shifted = shift(OperatorSpec.parse(text), Polynomial.half_square_norm(2), normalize_origin=True)
    ellipticity_probe(shifted, 1.0, 2, samples=16, pairs=4)
    assert len(draws) >= 16


def test_probe_builds_no_draw_matrices_for_families_that_accept_every_draw(monkeypatch):
    # pucci+ accepts every draw unseen: only the accepted jets (one call) and
    # the two ends of the pairs (two calls) build matrices
    calls = []
    real = operators._cube_matrices

    def counted(U, n, radii):
        calls.append(len(U))
        return real(U, n, radii)

    monkeypatch.setattr(operators, "_cube_matrices", counted)
    ellipticity_probe(OperatorSpec.parse("pucci+:0.5:2"), 1.0, 2, samples=40, pairs=10, seed=3)
    assert calls == [39, 10, 10]


# -- the per-draw reference for the probe's block draws ----------------------


def halton_point(index, dim):
    """Halton point #index in [0,1)^dim, digit by digit; the origin for an
    index below 1."""
    out = np.empty(dim)
    for d in range(dim):
        b = operators._PRIMES[d]
        f, x, i = 1.0, 0.0, index
        while i > 0:
            f /= b
            x += f * (i % b)
            i //= b
        out[d] = x
    return out


block_firsts = (
    st.integers(-(2**63), 2**63 - 1)
    | st.integers(2**63 - 4096, 10**20)
    | st.sampled_from([-4096, 0, 1, 2**63 - 4096])
)
prime_powers = st.tuples(st.sampled_from(operators._PRIMES[:12]), st.integers(1, 64))
spikes = (
    st.integers(-(2**63), 10**20)
    | st.sampled_from([2**63 - 1, 2**63, -1, 0, 1])
    | prime_powers.map(lambda bk: bk[0] ** bk[1])
)


@settings(max_examples=40, deadline=None)
@given(
    block_firsts,
    st.integers(1, 4096),
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(0, 4095), spikes), max_size=3),
    st.lists(st.integers(0, 4095), max_size=6),
)
@example(first=0, size=8, dim=12, spiked=[(3, 3**5)], rows=[])
def test_halton_block_matches_the_digit_loop(first, size, dim, spiked, rows):
    """Block rows equal halton_point bit for bit: consecutive indices from
    ``first``, a few replaced by ``spiked`` ones (the largest may be a power
    of a base); indices <= 0 give the origin, int64 blocks reach 2^63 - 1,
    object blocks go past it, and an int64 block equals its object copy."""
    values = [first + r for r in range(size)]
    for r, v in spiked:
        values[r % size] = v
    rows = {r % size for r in rows} | {r % size for r, _ in spiked}
    rows = sorted(rows | {0, size - 1, values.index(max(values))})
    expected = np.array([halton_point(values[r], dim) for r in rows])
    got = operators._halton(np.array(values, dtype=object), dim)
    assert got.shape == (size, dim)
    assert got[rows].tobytes() == expected.tobytes()
    if all(-(2**63) <= v < 2**63 for v in values):
        assert operators._halton(np.array(values, dtype=np.int64), dim).tobytes() == got.tobytes()


def sample_sym(tri_unit, n, radius):
    """A symmetric matrix with the given spectral radius, from a cube point."""
    A = SymMatrix(n, tuple(2.0 * tri_unit - 1.0)).full()
    nrm = np.max(np.abs(eigenvalues_sym(A)))
    if nrm < 1e-14:
        return np.zeros((n, n))
    return (radius / nrm) * A


def reference_draws(op, rho, n, samples, seed, pairs):
    """The probe's jets and sandwich pairs, one Halton point at a time."""
    margin = 1e-3 * min(1.0, rho)
    m_tri = n * (n + 1) // 2
    dim_cube = m_tri + n + 3

    def draw(u, k):
        mat_rad = rho if k % 4 == 1 else rho * u[m_tri + n + 2]
        M = sample_sym(u[:m_tri], n, mat_rad)
        pdir = 2.0 * u[m_tri : m_tri + n] - 1.0
        pn = np.linalg.norm(pdir)
        pdir = pdir / pn if pn > 1e-12 else np.zeros(n)
        p_rad = rho if k % 4 == 2 else rho * u[m_tri + n]
        s = (2.0 * u[m_tri + n + 1] - 1.0) * rho
        return M, p_rad * pdir, s

    jets, idx, attempts = [], seed * 7919 + 1, 0
    while len(jets) < samples and attempts < 400 * samples:
        attempts += 1
        M, p, s = draw(halton_point(idx, dim_cube), len(jets))
        idx += 1
        if len(jets) == 0:
            M, p, s = np.zeros((n, n)), np.zeros(n), 0.0
        if operators._admissible(op, M, margin):
            jets.append((M, p, s))

    fracs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])[:, None, None]
    pending, pair_idx, attempts = [], (seed + 1) * 104729 + 1, 0
    while len(pending) < pairs and attempts < 400 * pairs:
        attempts += 1
        u1, u2 = halton_point(pair_idx, dim_cube), halton_point(pair_idx + 1, dim_cube)
        pair_idx += 2
        M1 = sample_sym(u1[:m_tri], n, rho * u1[m_tri + n + 2])
        M2 = sample_sym(u2[:m_tri], n, rho * u2[m_tri + n + 2])
        segs = (1 - fracs) * M1 + fracs * M2
        if not np.all(operators._admissible(op, segs, margin)):
            continue
        pdir = 2.0 * u1[m_tri : m_tri + n] - 1.0
        pn = np.linalg.norm(pdir)
        pdir = pdir / pn if pn > 1e-12 else np.zeros(n)
        p = rho * u1[m_tri + n] * pdir
        s = (2.0 * u2[m_tri + n + 1] - 1.0) * rho
        pending.append((M1, M2, segs, p, s))
    return jets, pending


def assert_bitwise(got, expected, what):
    """The arrays of ``got`` equal the stacked rows of ``expected``, signed
    zeros included."""
    assert len(got[0]) == len(expected), what
    for a, b in zip(got, zip(*expected)):
        assert a.tobytes() == np.array(b, dtype=float).tobytes(), what


DRAW_SPECS = ["mc", "slag", "pucci+:0.5:2", "pucci-:0.5:2", "ma", "sigma:2", "quotient:2:1"]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(DRAW_SPECS),
    st.integers(1, 3),
    st.sampled_from([0.3, 1.0, 1.5, 2.5, 4.0]),
    st.integers(-3, 40) | st.sampled_from([-7919, 10**20]),
    st.integers(1, 10),
    st.integers(0, 5),
)
def test_block_draws_match_the_per_draw_reference(text, n, rho, seed, samples, pairs):
    """The probe's block draws give the per-draw loop's jets and pairs bit for
    bit: the cone families shifted by |x|^2/2, most candidates rejected at
    the larger radii, and seeds whose first Halton indices are below 1."""
    op = OperatorSpec.parse(text)
    if op.family in ("ma", "sigma", "quotient"):
        assume(op.family == "ma" or op.params[0] <= n)
        op = shift(op, Polynomial.half_square_norm(n), normalize_origin=True)
    margin = 1e-3 * min(1.0, rho)
    jets, pending = reference_draws(op, rho, n, samples, seed, pairs)
    got_jets, got_pairs = operators._probe_draws(op, rho, n, samples, pairs, seed, margin)
    assert_bitwise(got_jets, jets, "jets")
    assert_bitwise(got_pairs, pending, "pairs")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-50, 10**6) | st.just(10**20),
    st.integers(1, 2),
    st.integers(0, 300),
    st.integers(0, 40),
    st.integers(0, 3),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_acceptance_scan_matches_the_per_row_loop(first, width, cap, need, k, cut, shell_cut):
    """The scan reads rows in order, judges the row that would be draw k by
    the shell mask when k % 4 == 1, and stops at ``need`` accepted or ``cap``
    read; low cuts make the cap bind."""
    def ok_of(U):
        return U[:, 0] < cut, U[:, 0] < shell_cut

    rows, read = [], 0
    while len(rows) < need and read < cap:
        u = np.concatenate([halton_point(first + width * read + j, 1) for j in range(width)])
        read += 1
        if u[0] < (shell_cut if (k + len(rows)) % 4 == 1 else cut):
            rows.append(u)
    got = operators._accepted_rows(first, width, 1, cap, need, ok_of, k)
    assert got.shape == (len(rows), width)
    assert got.tobytes() == np.reshape(rows, (-1, width)).tobytes()
