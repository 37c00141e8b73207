import math

import numpy as np
import pytest

from nelliptic import regularity
from nelliptic.errors import InsufficientDataError, ParameterError, SingularEvaluationError
from nelliptic.fixtures import fixture
from nelliptic.grid import GridFunction
from nelliptic.operators import OperatorSpec
from nelliptic.polyfit import Polynomial, multi_indices
from nelliptic.regularity import (
    CampanatoConfig,
    campanato_table,
    check_viscosity,
    estimate_exponent,
    holder_seminorm,
    oscillation_profile,
)


class TestEstimateExponent:
    def test_exact_power_law(self):
        scales = [(0.5 * 0.5**m, (0.5 * 0.5**m) ** 2.5) for m in range(6)]
        alpha, C, flagged = estimate_exponent(scales, 2)
        assert alpha == pytest.approx(0.5, abs=1e-12)
        assert C == pytest.approx(1.0, rel=1e-10)
        assert not flagged

    def test_boundary_alpha_flagged(self):
        scales = [(0.5 * 0.5**m, (0.5 * 0.5**m) ** 2.0) for m in range(6)]
        alpha, _, flagged = estimate_exponent(scales, 2)
        assert alpha == 0.0 and flagged

    def test_noisy_power_law(self):
        rng = np.random.default_rng(123)
        scales = [
            (r, r**2.3 * (1 + rng.uniform(-0.01, 0.01)))
            for r in (0.5 * 0.5**m for m in range(8))
        ]
        alpha, _, _ = estimate_exponent(scales, 2)
        assert alpha == pytest.approx(0.3, abs=0.02)

    def test_insufficient_scales(self):
        with pytest.raises(InsufficientDataError):
            estimate_exponent([(0.5, 0.1), (0.25, 0.05), (0.125, 0.02)], 0)


class TestCampanato:
    def test_polynomial_exact(self):
        q = fixture("quadratic", A=np.array([[2.0, 0.5], [0.5, 1.0]]))
        rep = campanato_table(q, [0.1, 0.2], CampanatoConfig(k=2, r0=0.5, levels=5))
        assert rep.classification == "polynomial_exact"
        assert all(s.error <= rep.noise_floor for s in rep.scales)

    def test_abs_three_halves(self):
        # best degree-1 fit of the even function |x|^{3/2} is the constant
        # r^{3/2}/2, so E(r) = r^{3/2}/2 exactly
        pw = fixture("power", 1.5, n=1)
        rep = campanato_table(pw, [0.0], CampanatoConfig(k=1, r0=0.5, levels=6))
        for s in rep.scales:
            assert s.error == pytest.approx(s.r**1.5 / 2, rel=1e-9)
        assert rep.alpha_hat == pytest.approx(0.5, abs=0.02)

    def test_slag_exponents(self):
        for theta in (0.3, 0.5, 0.7):
            rep = campanato_table(
                fixture("slag", theta), [0, 0], CampanatoConfig(k=1, r0=0.5, levels=6)
            )
            assert abs(rep.alpha_hat - theta) <= 0.05

    def test_pmc_boundary_exponent(self):
        for theta in (0.2, 0.4):
            rep = campanato_table(
                fixture("pmc", theta), [1.0, 0.0], CampanatoConfig(k=0, r0=0.5, levels=6)
            )
            assert abs(rep.alpha_hat - theta) <= 0.05

    def test_hq_exponent(self):
        rep = campanato_table(
            fixture("hq", 0.5), [0, 0, 0], CampanatoConfig(k=1, r0=0.5, levels=6)
        )
        assert abs(rep.alpha_hat - 0.5) <= 0.05

    def test_error_bounded_by_previous_restriction(self):
        # E_m <= sup over the scale-m samples of |u - P_{m-1}|
        from nelliptic.polyfit import ball_samples

        fx = fixture("slag", 0.4)
        cfg = CampanatoConfig(k=1, r0=0.5, levels=5)
        rep = campanato_table(fx, [0, 0], cfg)
        for m in range(1, len(rep.scales)):
            prev = rep.scales[m - 1].fit.P
            pts, vals = ball_samples(fx, [0, 0], rep.scales[m].r, m=cfg.samples_m)
            bound = max(abs(v - prev(p)) for p, v in zip(pts, vals))
            assert rep.scales[m].error <= bound + 1e-12

    def test_scaling_covariance(self):
        # analyzing u(r y)/r^{k+alpha} with the matched lattice reproduces the
        # error table exactly
        theta, r = 0.4, 0.5
        fx = fixture("slag", theta)
        scale = r ** (1 + theta)
        rescaled = lambda y: fx(r * np.asarray(y)) / scale
        rep_a = campanato_table(fx, [0, 0], CampanatoConfig(k=1, r0=0.4 * r, levels=4))
        rep_b = campanato_table(rescaled, [0, 0], CampanatoConfig(k=1, r0=0.4, levels=4))
        for sa, sb in zip(rep_a.scales, rep_b.scales):
            assert sb.error == pytest.approx(sa.error / scale, abs=1e-9)

    def test_successive_polynomial_discipline(self):
        fx = fixture("slag", 0.5)
        rep = campanato_table(fx, [0, 0], CampanatoConfig(k=1, r0=0.5, levels=6))
        assert rep.classification.startswith("C^1_alpha")
        for s in rep.scales[1:]:
            if s.usable:
                assert s.step_norm <= 4 * rep.C_hat * s.r ** (1 + rep.alpha_hat) + 1e-12

    def test_exponent_recovery_with_polynomial_part(self):
        rng = np.random.default_rng(31)
        for k in (0, 1, 2):
            for alpha in (0.2, 0.5, 0.8):
                coeffs = {s: float(rng.uniform(-1, 1)) for s in multi_indices(2, k)}
                nrm = sum(abs(a) for a in coeffs.values())
                Q = Polynomial(2, k, {s: a / max(nrm, 1.0) for s, a in coeffs.items()})
                beta = k + alpha
                u = lambda x: float(np.linalg.norm(x)) ** beta + Q(x)
                rep = campanato_table(u, [0, 0], CampanatoConfig(k=k, r0=0.5, levels=6))
                assert abs(rep.alpha_hat - alpha) <= 0.02

    def test_below_resolution_classification(self):
        # a sampled transcendental function at modest resolution: only the
        # first scales rise above the interpolation floor
        g = GridFunction.from_box([-1, -1], [1, 1], 1 / 64, fn=lambda x: math.sin(x[0] + x[1]))
        rep = campanato_table(g, [0, 0], CampanatoConfig(k=2, r0=0.5, levels=4))
        assert rep.classification == "below_resolution"
        assert rep.alpha_hat is None

    def test_threads_deterministic(self):
        fx = fixture("slag", 0.4)
        rep1 = campanato_table(fx, [0, 0], CampanatoConfig(k=1, r0=0.5, levels=5, threads=1))
        rep2 = campanato_table(fx, [0, 0], CampanatoConfig(k=1, r0=0.5, levels=5, threads=3))
        assert [s.error for s in rep1.scales] == [s.error for s in rep2.scales]
        assert rep1.alpha_hat == rep2.alpha_hat

    def test_grid_input_noise_floor(self):
        # sampled smooth function: deep scales drown in interpolation noise
        g = GridFunction.from_box([-1, -1], [1, 1], 1 / 64, fn=lambda x: math.sin(x[0] + x[1]))
        cfg = CampanatoConfig(k=1, r0=0.5, levels=3)
        rep = campanato_table(g, [0, 0], cfg)
        assert rep.noise_floor > 0
        with pytest.raises(ParameterError):
            campanato_table(g, [0, 0], CampanatoConfig(k=1, r0=0.5, levels=8))

    def test_constrained_table(self):
        q = fixture("quadratic")  # |x|^2/2, det D^2 u = 1
        cfg = CampanatoConfig(
            k=2, r0=0.4, levels=4, constraint=(OperatorSpec.monge_ampere(), 1.0)
        )
        rep = campanato_table(q, [0, 0], cfg)
        for s in rep.scales:
            assert abs(s.fit.t_correction) < 1e-9
            assert s.fit.constrained

    def test_norm_bound_flags(self):
        fx = fixture("slag", 0.5)
        rep = campanato_table(
            fx, [0, 0], CampanatoConfig(k=1, r0=0.5, levels=4, norm_bound=1e-9)
        )
        assert rep.norm_bound_flags  # every scale exceeds an absurdly small cap

    def test_eta_validation(self):
        with pytest.raises(ParameterError):
            CampanatoConfig(k=1, r0=0.5, eta=0.7)


class TestOscillation:
    def test_linear(self):
        osc = oscillation_profile(lambda x: x[0], [0.0, 0.0], [0.5, 0.25])
        assert osc[0][1] == pytest.approx(1.0, rel=1e-9)  # osc = 2r
        assert osc[1][1] == pytest.approx(0.5, rel=1e-9)

    def test_radial_power(self):
        pw = fixture("power", 0.3, n=2)
        for r, o in oscillation_profile(pw, [0, 0], [0.5, 0.25, 0.125]):
            assert o == pytest.approx(r**0.3, rel=1e-6)


class TestHolderSeminorm:
    def test_matching_power(self):
        pw = fixture("power", 0.5, n=1)
        radii = [0.5 * 0.5**m for m in range(5)]
        assert holder_seminorm(pw, [0.0], 0, 0.5, radii) == pytest.approx(1.0, abs=1e-6)

    def test_polynomial_vanishes(self):
        q = fixture("quadratic", A=np.array([[1.5, 0.0], [0.0, 0.5]]))
        radii = [0.4 * 0.5**m for m in range(4)]
        assert holder_seminorm(q, [0.2, -0.1], 2, 0.5, radii) <= 1e-9

    def test_slag_sharpness(self):
        fx = fixture("slag", 0.4)
        radii = [0.5 * 0.5**m for m in range(5)]
        at_theta = [
            holder_seminorm(fx, [0, 0], 1, 0.4, radii, samples_m=m) for m in (6, 12)
        ]
        above = [
            holder_seminorm(fx, [0, 0], 1, 0.5, radii, samples_m=m) for m in (6, 12)
        ]
        assert abs(at_theta[1] - at_theta[0]) <= 0.25 * at_theta[0]
        assert above[1] > above[0]


class TestViscosityChecker:
    def test_classical_solution_passes(self):
        u = GridFunction.from_box([-1, -1], [1, 1], 0.2, fn=lambda x: x @ x)
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 4.0))
        rep = check_viscosity(u, OperatorSpec.linear(np.eye(2)), f, side="both", tol=1e-6)
        assert rep.counts("sub")["fail"] == 0 and rep.counts("super")["fail"] == 0
        assert rep.counts("sub")["pass"] > 0 and rep.counts("super")["pass"] > 0

    def test_abs_fails_supersolution_at_kink(self):
        u = GridFunction.from_box([-1.0], [1.0], 1 / 8, fn=lambda x: abs(x[0]))
        f = GridFunction(1, u.shape, u.origin, u.spacing, np.full(u.shape, -1.0))
        rep = check_viscosity(u, OperatorSpec.linear(np.eye(1)), f, side="super", tol=1e-6)
        mid = u.shape[0] // 2
        assert rep.verdict_super[rep.nodes.index((mid,))] == "fail"
        wit = [w for w in rep.witnesses if w["node"] == [mid]][0]
        assert wit["operator_value"] > wit["f"]  # e.g. phi = a x with phi'' = 0 > -1

    def test_strict_one_sided_soundness(self):
        # classical residual <= -tol everywhere: never fails the check driven
        # by test functions touching from below (supersolution side); the
        # mirrored statement holds for residual >= +tol
        u = GridFunction.from_box([-1, -1], [1, 1], 0.25, fn=lambda x: x @ x)
        op = OperatorSpec.linear(np.eye(2))
        f_hi = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 5.0))
        rep = check_viscosity(u, op, f_hi, side="super", tol=1e-6)
        assert rep.counts("super")["fail"] == 0
        f_lo = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 3.0))
        rep = check_viscosity(u, op, f_lo, side="sub", tol=1e-6)
        assert rep.counts("sub")["fail"] == 0

    def test_pmc_across_kink(self):
        fix = fixture("pmc", 0.3)
        g = GridFunction.from_box([0.553, -0.447], [1.453, 0.453], 0.06)
        vals = np.array([fix(p) for p in g.points()]).reshape(g.shape)
        u = GridFunction(2, g.shape, g.origin, g.spacing, vals)
        fvals = np.array([fix.rhs(p) for p in g.points()]).reshape(g.shape)
        f = GridFunction(2, g.shape, g.origin, g.spacing, fvals)
        rep = check_viscosity(u, fix.operator, f, side="both", tol=5e-2, rho=5.0)
        assert rep.counts("sub")["fail"] == 0
        assert rep.counts("super")["fail"] == 0
        assert rep.counts("sub")["pass"] > 0

    def test_witness_is_the_first_failing_candidate(self):
        # u = x1^2/2 + g(x2): each node's curvature candidates are diag(1, -2)
        # and diag(1, -1), where sigma_1 = 0. From below only diag(1, -2)
        # touches, and every slope fails; the witness is the first one in
        # sweep order. From above the singular candidate comes first.
        g = np.array([-0.75, -0.125, 0.0, -0.125, -0.75])
        x1 = np.array([-0.5, 0.0, 0.5])
        u = GridFunction(2, (3, 5), (-0.5, -1.0), 0.5, x1[:, None] ** 2 / 2 + g)
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.zeros(u.shape))
        op = OperatorSpec.quotient(2, 1)
        rep = check_viscosity(u, op, f, side="super", tol=1e-6)
        assert rep.verdict_super == ["fail"] * 3
        assert [w["hessian"] for w in rep.witnesses] == [[[1.0, 0.0], [0.0, -2.0]]] * 3
        # the centre's touching slopes are [-1/4, 1/4]; the lowest swept one is first
        slopes = [w["slope"] for w in rep.witnesses]
        assert slopes == [[0.0, 0.75], [0.0, -0.23951612903312902], [0.0, -0.75]]
        with pytest.raises(SingularEvaluationError):
            check_viscosity(u, op, f, side="sub", tol=1e-6)

    def test_bounded_test_class(self):
        # D^2 u = diag(2, 0): |Q| = 2, so rho = 1.5 leaves no test function
        u = GridFunction.from_box([-1, -1], [1, 1], 0.25, fn=lambda x: x[0] ** 2)
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 2.0))
        op = OperatorSpec.linear(np.eye(2))
        assert check_viscosity(u, op, f, rho=1.5).counts("sub")["vacuous"] == 49
        assert check_viscosity(u, op, f, rho=2.5).counts("sub")["pass"] > 0

    def test_singular_candidate_after_the_witness(self, monkeypatch):
        # candidates are tried in order, so a singular one after the first
        # failing one does not change the verdict; one before it raises.
        # Here every candidate fails, the first one included.
        u = GridFunction.from_box([-1, -1], [1, 1], 0.25, fn=lambda x: x[0] ** 2 - x[1] ** 2 / 2)
        f = GridFunction(2, u.shape, u.origin, u.spacing, np.full(u.shape, 5.0))
        op = OperatorSpec.pucci_minus(0.5, 2.0)
        ref = check_viscosity(u, op, f, side="sub", tol=1e-6)
        assert ref.counts("sub")["fail"] == len(ref.nodes)
        real = regularity.evaluate_many

        def singular_at(index):
            def evaluate_many(op, M, p, s, x):
                if len(M) > index:  # not the prefix evaluated after the error
                    raise SingularEvaluationError("singular", index=index)
                return real(op, M, p, s, x)
            return evaluate_many

        monkeypatch.setattr(regularity, "evaluate_many", singular_at(1))
        rep = check_viscosity(u, op, f, side="sub", tol=1e-6)
        assert rep.witnesses == ref.witnesses
        monkeypatch.setattr(regularity, "evaluate_many", singular_at(0))
        with pytest.raises(SingularEvaluationError):
            check_viscosity(u, op, f, side="sub", tol=1e-6)
