import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levylab import operators
from levylab.core import (
    Atoms,
    Chi1,
    Chi2,
    ConstantTripletField,
    CustomChi,
    LevyTriplet,
    StableLike,
    TripletField,
    UserDensity,
)
from levylab.errors import QuadratureError, ValidationError
from levylab.operators import (
    TestFunction,
    apply_operator,
    bump,
    chi_drift_adjustment,
    chi_quadratic_matrix,
    convergence_gaps,
    default_test_functions,
    jump_integral,
    measure_integral,
    pmp_spot_check,
    vanishing_test_functions,
)


def combine(f, g, alpha, beta):
    return TestFunction(
        name="combo",
        fn=lambda p: alpha * f.fn(p) + beta * g.fn(p),
        grad=lambda p: alpha * f.grad(p) + beta * g.grad(p),
        hess=lambda p: alpha * f.hess(p) + beta * g.hess(p),
        support_low=np.minimum(f.support_low, g.support_low),
        support_high=np.maximum(f.support_high, g.support_high),
        hess_bound=abs(alpha) * f.hess_bound + abs(beta) * g.hess_bound,
    )


class TestTestFunction:
    def test_bump_derivatives_match_finite_differences(self):
        for radius in (0.5, 1.0, 2.0):
            bump([0.3], radius).validate_derivatives(seed=radius_hash(radius))

    def test_bump_support(self):
        f = bump([1.0], 0.5)
        assert f.value_at([1.0]) == pytest.approx(1.0)
        assert f.value_at([1.6]) == 0.0
        assert np.all(f.grad(np.array([[1.7]])) == 0.0)

    @pytest.mark.parametrize("center, radius", [([np.nan], 1.0), ([0.0, np.inf], 1.0),
                                                ([0.0], 0.0), ([0.0], -1.0), ([0.0], np.nan),
                                                ([0.0], np.inf)])
    def test_bump_refuses_a_non_finite_center_or_radius(self, center, radius):
        with pytest.raises(ValidationError, match="finite center and a positive finite radius"):
            bump(center, radius)

    @pytest.mark.parametrize("margin", [0.0, -0.5, np.nan])
    def test_vanishing_margin_must_be_positive(self, margin):
        with pytest.raises(ValidationError, match="margin must be positive"):
            vanishing_test_functions([-1.0], [1.0], margin=margin)

    def test_derivative_validation_catches_errors(self):
        f = bump([0.0], 1.0)
        broken = TestFunction(
            name="broken", fn=f.fn, grad=lambda p: 2.0 * f.grad(p), hess=f.hess,
            support_low=f.support_low, support_high=f.support_high,
            hess_bound=f.hess_bound)
        with pytest.raises(ValidationError):
            broken.validate_derivatives()


def radius_hash(r):
    return int(r * 10)


class TestApplyOperator:
    def test_pure_second_derivative(self):
        f = bump([0.0], 2.0)
        trip = LevyTriplet([0.0], [[1.0]], None)
        expected = 0.5 * f.hess_at([0.0])[0, 0]
        assert apply_operator(trip, Chi2(), f, [0.0]) == pytest.approx(expected, abs=1e-14)

    def test_pure_drift(self):
        f = bump([0.0], 2.0)
        trip = LevyTriplet([1.0], [[0.0]], None)
        expected = f.grad_at([0.5])[0]
        assert apply_operator(trip, Chi2(), f, [0.5]) == pytest.approx(expected, abs=1e-14)

    def test_single_atom_outside_unit_ball(self):
        f = bump([2.0], 0.5)  # f(2)=1, f(0)=0
        trip = LevyTriplet([0.0], [[0.0]], Atoms([((2.0,), 0.5)]))
        assert apply_operator(trip, Chi2(), f, [0.0]) == pytest.approx(0.5, abs=1e-14)

    def test_cemetery_atom(self):
        f = bump([0.0], 1.0)
        from levylab.core import DELTA
        trip = LevyTriplet([0.0], [[0.0]], Atoms([(DELTA, 2.0)], dim=1))
        # f(DELTA) = 0, so the jump integral is -2 f(a)
        assert apply_operator(trip, Chi2(), f, [0.0]) == pytest.approx(-2.0, abs=1e-12)

    def test_base_point_atom_rejected(self):
        f = bump([0.0], 1.0)
        trip = LevyTriplet([0.0], [[0.0]], Atoms([((0.3,), 1.0)]))
        with pytest.raises(ValidationError):
            apply_operator(trip, Chi2(), f, [0.3])

    def test_stable_vs_brute_force(self):
        # independent oracle: direct quadrature with the singular core excluded
        # and Taylor-bounded; tail to infinity in closed form
        from scipy.integrate import quad
        f = bump([0.0], 2.0)
        c, alpha = 1.0, 1.2
        trip = LevyTriplet([0.0], [[0.0]], StableLike(c=c, alpha=alpha, dim=1))
        a = 0.3
        fa = f.value_at([a])
        ga = f.grad_at([a])[0]

        def integrand(h):
            chi = h if abs(h) < 1 else 0.0
            return (f.value_at([a + h]) - fa - chi * ga) * c * abs(h) ** (-1 - alpha)

        inner, _ = quad(integrand, 1e-6, 8.0, limit=800, epsabs=1e-12)
        inner2, _ = quad(integrand, -8.0, -1e-6, limit=800, epsabs=1e-12)
        tail = -fa * 2 * c * 8.0 ** (-alpha) / alpha
        core = 0.5 * f.hess_at([a])[0, 0] * trip.jumps.truncated_second_moment(1e-6)
        val = apply_operator(trip, Chi2(), f, [a])
        assert val == pytest.approx(inner + inner2 + tail + core, abs=5e-6)

    def test_linearity(self, scratch_rng):
        f1 = bump([0.2], 1.5)
        f2 = bump([-0.4], 0.8)
        trip = LevyTriplet([0.3], [[0.7]], StableLike(c=0.5, alpha=1.1, dim=1))
        for _ in range(5):
            al, be = scratch_rng.uniform(-2, 2, size=2)
            comb = combine(f1, f2, al, be)
            lhs = apply_operator(trip, Chi2(), comb, [0.1])
            rhs = al * apply_operator(trip, Chi2(), f1, [0.1]) \
                + be * apply_operator(trip, Chi2(), f2, [0.1])
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_refinement_stability(self):
        f = bump([0.0], 2.0)
        trip = LevyTriplet([0.0], [[0.0]], StableLike(c=1.0, alpha=1.5, dim=1))
        coarse = apply_operator(trip, Chi2(), f, [0.1], tol_abs=1e-8, tol_rel=1e-6)
        fine = apply_operator(trip, Chi2(), f, [0.1], tol_abs=5e-9, tol_rel=5e-7)
        assert abs(coarse - fine) < 1e-8 + 1e-6 * abs(fine)

    def test_compensation_invariance(self, scratch_rng):
        # switching conventions with the matching drift adjustment is exact
        for case in range(6):
            if case % 2 == 0:
                nu = Atoms([((1.5,), 0.8), ((-0.4,), 1.2)])
            else:
                nu = StableLike(c=0.7, alpha=0.8, dim=1)
            delta = np.array([scratch_rng.uniform(-1, 1)])
            a = np.array([scratch_rng.uniform(-0.3, 0.3)])
            f = bump([0.1], 1.8)
            adj = chi_drift_adjustment(nu, Chi1(), Chi2(), a=a)
            v1 = apply_operator(LevyTriplet(delta, [[0.4]], nu), Chi1(), f, a,
                                tol_abs=1e-11, tol_rel=1e-10)
            v2 = apply_operator(LevyTriplet(delta + adj, [[0.4]], nu), Chi2(), f, a,
                                tol_abs=1e-11, tol_rel=1e-10)
            assert v1 == pytest.approx(v2, abs=1e-8)

    def test_two_dimensional_stable(self):
        # isotropic quadratic behaviour: value matches the radial closed form
        # L f = (1/2) tr(H) * S1 * integral r^(1-a) over compensated region...
        # cross-checked against a dense polar quadrature oracle instead.
        f = bump([0.0, 0.0], 1.5)
        trip = LevyTriplet([0.0, 0.0], np.zeros((2, 2)), StableLike(c=1.0, alpha=1.0, dim=2))
        val = apply_operator(trip, Chi2(), f, [0.0, 0.0])
        # oracle: G(r) = mean over angles of f(r theta) - f(0), compensation odd
        from scipy.integrate import quad
        angles = 2 * np.pi * (np.arange(512) + 0.5) / 512

        def g_of_r(r):
            pts = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
            return float(np.mean(f(pts)) - f.value_at([0.0, 0.0])) * 2 * np.pi

        body, _ = quad(lambda r: g_of_r(r) * r ** -2, 1e-4, 1.6, limit=400)
        head = 0.5 * np.trace(f.hess_at([0.0, 0.0])) * np.pi * (1e-4) ** 1  # ~0 anyway
        tail = -f.value_at([0.0, 0.0]) * 2 * np.pi * 1.6 ** (-1.0)
        assert val == pytest.approx(body + head + tail, rel=2e-3)


class TestMeasureIntegral:
    def test_atom_sum(self):
        f = bump([2.0], 0.5)
        nu = Atoms([((2.0,), 1.5), ((5.0,), 7.0)])
        assert measure_integral([nu], f, [[0.0]])[0] == pytest.approx(1.5)

    def test_vanishing_precondition(self):
        f = bump([0.5], 0.5)
        nu = Atoms([((2.0,), 1.0)])
        with pytest.raises(ValidationError, match="does not vanish"):
            measure_integral([nu], f, [[0.3]])

    def test_stable_tail_integral(self):
        # f == 1 on its plateau is impossible for bumps; use the closed form
        # with a narrow bump and a quadrature cross-check
        from scipy.integrate import quad
        f = bump([3.0], 0.8)
        nu = StableLike(c=1.0, alpha=1.2, dim=1)
        val = measure_integral([nu], f, [[0.0]])[0]
        oracle, _ = quad(lambda h: f.value_at([h]) * abs(h) ** -2.2, 2.2, 3.8, limit=400)
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_base_point_on_the_closed_support_is_refused(self):
        f = bump([0.5], 0.5)
        with pytest.raises(ValidationError, match="does not vanish near the point \\[1.0\\]"):
            measure_integral([Atoms([((2.0,), 1.0)])] * 2, f, [[-0.5], [1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("nu", [StableLike(c=1.0, alpha=1.2), Atoms([((3.0,), 1.0)])],
                         ids=["stable", "atoms"])
def test_integrals_refuse_non_finite_base_points(nu, bad):
    f = bump([0.0], 1.0)
    g = vanishing_test_functions([-1.0], [1.0])[0]
    points = [[0.0], [bad]]
    for integral in (lambda: jump_integral([nu] * 2, Chi2(), f, points),
                     lambda: measure_integral([nu] * 2, g, points),
                     lambda: chi_quadratic_matrix([nu] * 2, Chi2(), points)):
        with pytest.raises(ValidationError, match="is not finite"):
            integral()


class TestChiQuadraticMatrix:
    def test_chi2_equals_truncated_second_moment(self):
        nu = StableLike(c=1.0, alpha=1.0, dim=1)
        m = chi_quadratic_matrix([nu], Chi2(), [[0.0]])[0]
        assert m[0, 0] == pytest.approx(nu.truncated_second_moment(1.0), rel=1e-9)

    def test_chi1_stable_closed_form(self):
        # integral of h^2/(1+h^2)^2 * |h|^{-2} dh over R equals pi/2
        nu = StableLike(c=1.0, alpha=1.0, dim=1)
        m = chi_quadratic_matrix([nu], Chi1(), [[0.0]])[0]
        assert m[0, 0] == pytest.approx(np.pi / 2, rel=1e-8)

    def test_atoms(self):
        nu = Atoms([((0.5,), 2.0), ((3.0,), 5.0)])
        m = chi_quadratic_matrix([nu], Chi2(), [[0.0]])[0]
        assert m[0, 0] == pytest.approx(2.0 * 0.25)  # the far atom is not compensated

    def test_no_jumps_is_the_zero_measure(self):
        np.testing.assert_array_equal(chi_quadratic_matrix([Atoms(dim=2)], Chi1(), [[0.2, 0.1]]),
                                      np.zeros((1, 2, 2)))
        got = chi_quadratic_matrix([Atoms(dim=1)] * 2, Chi2(), [0.0, 1.0])
        np.testing.assert_array_equal(got, np.zeros((2, 1, 1)))


@pytest.mark.parametrize("a, dim", [(None, 1), ([0.3], 1), ([0.0, 0.0], 2)])
def test_drift_adjustment_of_the_zero_measure(a, dim):
    adj = chi_drift_adjustment(Atoms(dim=dim), Chi1(), Chi2(), a=a)
    assert adj.shape == (dim,)
    assert adj.tolist() == [0.0] * dim


class TestConvergenceGaps:
    def test_identical_fields_have_zero_gaps(self):
        field = ConstantTripletField(
            LevyTriplet([0.2], [[0.5]], StableLike(c=1.0, alpha=1.1, dim=1)))
        reports = convergence_gaps([field], field, Chi2(), [-1.0], [1.0],
                                   grid_points=5)
        assert reports[0].max_gap == pytest.approx(0.0, abs=1e-10)

    def test_stable_alpha_sequence_gaps_shrink(self):
        alpha = 1.2

        def make(n):
            a_n = alpha + 1.0 / n
            return ConstantTripletField(
                LevyTriplet([0.0], [[0.0]], StableLike(c=1.0, alpha=a_n, dim=1)))

        limit = ConstantTripletField(
            LevyTriplet([0.0], [[0.0]], StableLike(c=1.0, alpha=alpha, dim=1)))
        ns = [10, 100, 1000]
        reports = convergence_gaps([make(n) for n in ns], limit, Chi2(),
                                   [-1.0], [1.0], grid_points=3,
                                   labels=[str(n) for n in ns])
        gaps = [r.max_gap for r in reports]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2

    def test_scheme_field_gaps_shrink(self):
        # the normalized single-step law against its limit, shrinking in n
        from levylab.stable import StableField, scheme_triplet_field
        fld = StableField.constant(1.0, 1.2, 1)
        reports = convergence_gaps(
            [scheme_triplet_field(fld, n) for n in (10, 1000)], fld, Chi2(),
            [-1.0], [1.0], grid_points=3, labels=["10", "1000"])
        assert reports[0].max_gap > reports[1].max_gap
        assert reports[1].max_gap < 5e-2

    def test_empty_grid_is_a_validation_error(self):
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        with pytest.raises(ValidationError, match="grid_points"):
            convergence_gaps([field], field, Chi2(), [-1.0], [1.0], grid_points=0)

    def test_calls_the_module_integrals_once_per_term(self, monkeypatch):
        # the benchmark counts calls by wrapping these two module attributes
        calls = {"measure_integral": 0, "chi_quadratic_matrix": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(operators, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(operators, name, counted)
        limit = ConstantTripletField(LevyTriplet([0.0], [[0.0]], StableLike(c=1.0, alpha=1.2)))
        fields = [ConstantTripletField(LevyTriplet([0.0], [[0.0]], Atoms([((3.0,), 1.0)])))] * 2
        testfns = vanishing_test_functions([-1.0], [1.0])
        convergence_gaps(fields, limit, Chi2(), [-1.0], [1.0], testfns=testfns, grid_points=3)
        assert calls == {"measure_integral": len(testfns) * (len(fields) + 1),
                         "chi_quadratic_matrix": len(fields) + 1}

    @pytest.mark.parametrize("low, high", [([np.nan], [1.0]), ([-1.0], [np.inf]),
                                           ([1.0], [-1.0]), ([0.0], [0.0])])
    def test_box_must_be_finite_with_low_below_high(self, low, high):
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        with pytest.raises(ValidationError, match="the box must be finite with low < high"):
            convergence_gaps([field], field, Chi2(), low, high, grid_points=3)
        with pytest.raises(ValidationError, match="the box must be finite with low < high"):
            vanishing_test_functions(low, high)

    @pytest.mark.parametrize("labels", [["a"], "ab", ["a", 2], 5])
    def test_labels_are_one_string_per_field(self, labels):
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        with pytest.raises(ValidationError, match="labels must be a list of 2 strings"):
            convergence_gaps([field] * 2, field, Chi2(), [-1.0], [1.0], grid_points=3,
                             labels=labels)

    def test_offending_testfn_reported(self):
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        inside = bump([0.0], 0.5)  # overlaps the grid
        with pytest.raises(ValidationError, match="bump"):
            convergence_gaps([field], field, Chi2(), [-1.0], [1.0],
                             testfns=[inside], grid_points=3)


@pytest.mark.parametrize("cap", [100_000, 1, 8, 26, 27, 28, 4096])
def test_box_grid_size_matches_the_stepwise_search(cap):
    for d in (1, 2, 3, 4):
        for points_per_axis in range(1, 401):
            # Reference: lower n one unit at a time while n**d > cap, keeping n >= 2.
            n = points_per_axis
            while n ** d > cap and n > 2:
                n -= 1
            grid = operators._box_grid(np.zeros(d), np.ones(d), points_per_axis, cap)
            assert grid.shape == (n ** d, d)


def test_box_grid_with_a_huge_count_returns_at_once():
    started = time.perf_counter()
    assert operators._box_grid([0.0], [1.0], 10 ** 15).shape == (100_000, 1)
    assert operators._box_grid([0.0] * 3, [1.0] * 3, 10 ** 15).shape == (46 ** 3, 3)
    assert time.perf_counter() - started < 1.0


class TestPMP:
    def test_brownian_passes(self):
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        rep = pmp_spot_check(field, Chi2(), default_test_functions(1), seed=2)
        assert rep.all_ok

    def test_drift_only_passes(self):
        field = ConstantTripletField(LevyTriplet([2.0], [[0.0]], None))
        rep = pmp_spot_check(field, Chi2(), default_test_functions(1), seed=3)
        assert rep.all_ok

    def test_non_psd_diffusion_violates(self):
        field = ConstantTripletField(LevyTriplet.unchecked([0.0], [[-1.0]]))
        rep = pmp_spot_check(field, Chi2(), [bump([0.0], 1.0)], seed=4)
        assert not rep.all_ok
        assert rep.violations[0].operator_value > 0


def test_user_density_jump_integral_matches_stable():
    stable = StableLike(c=0.9, alpha=1.1, dim=1)
    user = UserDensity(density=stable.density, dim=1,
                       tail_mass_fn=lambda r: stable.tail_mass(r),
                       second_moment_fn=lambda r: stable.truncated_second_moment(r))
    f = bump([0.0], 1.5)
    trip_s = LevyTriplet([0.0], [[0.0]], stable)
    trip_u = LevyTriplet([0.0], [[0.0]], user)
    vs = apply_operator(trip_s, Chi2(), f, [0.2])
    vu = apply_operator(trip_u, Chi2(), f, [0.2], tol_abs=1e-7, tol_rel=1e-6)
    assert vu == pytest.approx(vs, abs=5e-6)


def stable_as_user_density(stable):
    return UserDensity(density=stable.density, dim=1,
                       tail_mass_fn=lambda r: stable.tail_mass(r),
                       second_moment_fn=lambda r: stable.truncated_second_moment(r))


@pytest.mark.parametrize("center, radius, a", [(3.0, 0.8, 0.0), (-2.5, 0.5, 0.3)])
def test_user_density_measure_integral_matches_stable(center, radius, a):
    stable = StableLike(c=0.9, alpha=1.1, dim=1)
    f = bump([center], radius)
    vs, vu = measure_integral([stable, stable_as_user_density(stable)], f, [[a], [a]])
    assert vu == pytest.approx(vs, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("chi", [Chi1(), Chi2()], ids=["chi1", "chi2"])
def test_user_density_chi_quadratic_matrix_matches_stable(chi):
    stable = StableLike(c=0.9, alpha=1.1, dim=1)
    ms = chi_quadratic_matrix([stable], chi, [[0.2]])[0]
    mu = chi_quadratic_matrix([stable_as_user_density(stable)], chi, [[0.2]])[0]
    assert mu.shape == (1, 1)
    assert mu[0, 0] == pytest.approx(ms[0, 0], rel=1e-6)


def test_asymmetric_user_density_drift_adjustment():
    # an asymmetric density has a nonzero convention adjustment; cross-check
    # against direct quadrature of (chi2 - chi1) against the density
    from scipy.integrate import quad

    def rho(h):
        h = np.atleast_2d(h)[:, 0]
        out = np.zeros_like(h)
        pos = h > 0
        out[pos] = np.abs(h[pos]) ** -2.5
        neg = h < 0
        out[neg] = 0.5 * np.abs(h[neg]) ** -2.5
        return out

    nu = UserDensity(density=rho, dim=1,
                     tail_mass_fn=lambda r: (1.5 / 1.5) * r ** -1.5,
                     second_moment_fn=lambda r: (1.5 / 0.5) * r ** 0.5)
    adj = chi_drift_adjustment(nu, Chi1(), Chi2(), tol_abs=1e-9)

    def dev(h):
        chi2 = h if abs(h) < 1 else 0.0
        chi1 = h / (1 + h * h)
        return (chi2 - chi1) * float(rho(np.array([[h]]))[0])

    # the tail decays like h^{-3.5}; 2000 leaves a remainder below 1e-8
    oracle = (quad(dev, 1e-9, 2000.0, limit=800)[0]
              + quad(dev, -2000.0, -1e-9, limit=800)[0])
    assert adj[0] == pytest.approx(oracle, abs=5e-6)


def _asymmetric_power_density():
    """rho(h) = |h|^-2.5 for h > 0 and 0.5 |h|^-2.5 for h < 0."""
    def rho(h):
        h = np.atleast_2d(h)[:, 0]
        out = np.zeros_like(h)
        live = h != 0
        out[live] = np.where(h[live] > 0, 1.0, 0.5) * np.abs(h[live]) ** -2.5
        return out

    return UserDensity(density=rho, dim=1, tail_mass_fn=lambda r: r ** -1.5,
                       second_moment_fn=lambda r: 3.0 * r ** 0.5)


# Oracles: mpmath quadrature at 90 digits, split at 0, the support edges and
# the chi2 kink, with the core |h| < 1e-9 (and again 1e-11) taken in Taylor
# form; the two core radii agree to 5e-14.  A 40-digit recomputation with a
# Taylor core below 1e-20 reproduced two of them to 1e-11.
USER_DENSITY_ORACLES = [
    (Chi1, 0.0, 0.3, 0.7, 1e-7, -8.301822749175),
    (Chi1, 0.2, 0.0, 1.0, 1e-7, -4.494270566251),
    (Chi1, 0.0, 0.0, 1.5, 1e-9, -2.308683189260),
    (Chi1, 0.2, 0.5, 0.8, 1e-9, -6.532701338427),
    (Chi2, 0.0, 0.3, 0.7, 1e-7, -8.464280354620),
    (Chi2, 0.2, 0.0, 1.0, 1e-7, -4.448175878207),
    (Chi2, 0.0, 0.0, 1.5, 1e-9, -2.308683189260),
    (Chi2, 0.2, 0.5, 0.8, 1e-9, -6.652036502325),
]


@pytest.mark.parametrize("chi, a, center, radius, tol_abs, oracle", USER_DENSITY_ORACLES)
def test_user_density_jump_integral_matches_oracle(chi, a, center, radius, tol_abs, oracle):
    # the compensated integrand cancels to rounding noise near h = 0; the
    # Taylor-remainder core keeps the integral within tolerance
    nu = _asymmetric_power_density()
    start = time.perf_counter()
    value = jump_integral([nu], chi(), bump([center], radius), [[a]],
                          tol_abs=tol_abs, tol_rel=1e-6)[0]
    assert time.perf_counter() - start < 1.0
    assert abs(value - oracle) <= tol_abs + 1e-6 * abs(oracle)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(alpha=st.floats(0.3, 1.9), a=st.floats(-0.5, 0.5), center=st.floats(-0.5, 0.5),
       radius=st.floats(0.05, 2.0), chi=st.sampled_from([Chi1(), Chi2()]))
def test_user_density_matches_stable_branch(alpha, a, center, radius, chi):
    stable = StableLike(c=1.0, alpha=alpha, dim=1)
    user = stable_as_user_density(stable)
    tol_abs, tol_rel = 1e-7, 1e-6
    f = bump([center], radius)
    ref = jump_integral([stable], chi, f, [[a]], tol_abs, tol_rel)[0]
    got = jump_integral([user], chi, f, [[a]], tol_abs, tol_rel)[0]
    assert abs(got - ref) <= tol_abs + tol_rel * abs(ref)
    ref = chi_quadratic_matrix([stable], chi, [[a]], tol_abs, tol_rel)[0, 0, 0]
    got = chi_quadratic_matrix([user], chi, [[a]], tol_abs, tol_rel)[0, 0, 0]
    assert abs(got - ref) <= tol_abs + tol_rel * abs(ref)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 1.9])
def test_stable_chi1_quadratic_matrix_closed_form(alpha):
    # int (h / (1 + h^2))^2 c |h|^{-1-alpha} dh = c (pi alpha / 2) / sin(pi alpha / 2)
    c = 0.9
    val = chi_quadratic_matrix([StableLike(c=c, alpha=alpha, dim=1)], Chi1(), [[0.2]])[0, 0, 0]
    exact = c * (np.pi * alpha / 2) / np.sin(np.pi * alpha / 2)
    assert val == pytest.approx(exact, rel=1e-7)


def test_vanishing_test_functions_avoid_box():
    fns = vanishing_test_functions([-1.0], [1.0], 1, margin=0.5)
    for f in fns:
        assert np.all(f.support_distances(np.array([[0.9], [-0.9]]))[0] >= 0.5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bump_far_away_does_not_overflow(dim):
    # Gaps of 1e300 would overflow if squared; measured without squaring,
    # the distances and the integral stay finite and raise no warning.
    f = bump(np.full(dim, 1e300), 1.0)
    pts = np.zeros((1, dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near, far = f.support_distances(pts)
        got = measure_integral([StableLike(c=1.0, alpha=1.2, dim=dim)], f, pts)
    np.testing.assert_allclose(near, 1e300 * np.sqrt(dim), rtol=1e-12)
    np.testing.assert_allclose(far, 1e300 * np.sqrt(dim), rtol=1e-12)
    np.testing.assert_array_equal(got, [0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chi", [Chi1(), Chi2()], ids=["chi1", "chi2"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bump_callables_far_away_are_zero_without_warnings(dim, chi):
    # The profile squares the offset, and chi the jump, each overflowing
    # 1e154 or more out; there the bump, its gradient, its Hessian and the
    # jump integral are exactly zero.
    f = bump(np.full(dim, 1e300), 1.0)
    pts = np.array([np.zeros(dim), np.full(dim, 1e300)])
    np.testing.assert_array_equal(f(pts), [0.0, 1.0])
    np.testing.assert_array_equal(f.grad(pts), np.zeros((2, dim)))
    hess = f.hess(pts)
    np.testing.assert_array_equal(hess[0], np.zeros((dim, dim)))
    np.testing.assert_array_equal(hess[1], -2.0 * np.eye(dim))
    got = jump_integral([StableLike(1.0, 1.2, dim)], chi, f, np.zeros((1, dim)))
    np.testing.assert_array_equal(got, [0.0])


# Tight references for the batched Gauss-Legendre integrals: QUADPACK at
# 1e-13 on the same sphere rule.  Below r1 the sphere sum of a jump integral
# is taken as r^2 times the integral form of its Taylor remainder, and QAWS
# integrates it against the weight r^(1-alpha), so no cancellation noise and
# no endpoint singularity is left to the quadrature.  Checked against 40-digit
# mpmath quadrature to 1e-13 relative in 1-d and 4e-9 relative in 2-d.
_REF_T, _REF_W = np.polynomial.legendre.leggauss(20)
_REF_T = 0.5 * (_REF_T + 1.0)
_REF_W = 0.5 * _REF_W * (1.0 - _REF_T)
_REF_TOL = dict(epsabs=1e-13, epsrel=1e-13, limit=400)


def _jump_reference(c, alpha, f, a):
    rule = operators._sphere_rule(f.dim)
    fa = f.value_at(a)
    radii = f.support_radii(a[None, :])[0]
    reach = radii[1]
    r1 = min(0.02, 0.5 * min([b for b in radii if b > 0] + [1.0]))

    def remainder(r):
        pts = a + r * _REF_T[:, None, None] * rule.nodes
        h = f.hess(pts.reshape(-1, f.dim)).reshape(_REF_T.size, -1, f.dim, f.dim)
        form = np.einsum("ki,tkij,kj->tk", rule.nodes, h, rule.nodes)
        return c * float(_REF_W @ form @ rule.weights)

    def direct(r):
        return c * r ** (-1 - alpha) * float(rule.weights @ (f(a + r * rule.nodes) - fa))

    core = quad(remainder, 0.0, r1, weight="alg", wvar=(1.0 - alpha, 0.0), **_REF_TOL)[0]
    cuts = sorted({r1, reach, *[b for b in radii if r1 < b < reach]})
    body = sum(quad(direct, lo, hi, **_REF_TOL)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
    return core + body - fa * rule.surface * c * reach ** -alpha / alpha


def _measure_reference(c, alpha, f, a, margin):
    rule = operators._sphere_rule(f.dim)
    radii = f.support_radii(a[None, :])[0]
    cuts = sorted({b for b in radii if b >= max(margin, radii[0])})

    def integrand(r):
        return c * r ** (-1 - alpha) * float(rule.weights @ f.fn(a + r * rule.nodes))

    return sum(quad(integrand, lo, hi, **_REF_TOL)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))


def _chi_square_reference(c, alpha, chi, dim):
    """Closed forms of int chi_1^2 c |h|^(-d-alpha) dh in one and two dimensions."""
    half_sphere = {1: 1.0, 2: np.pi / 2}[dim]  # int theta_1^2 over the sphere, halved
    if chi.name == "chi2":
        return 2 * half_sphere * c / (2 - alpha)
    return half_sphere * c * (np.pi * alpha / 2) / np.sin(np.pi * alpha / 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.floats(0.05, 1.95), c=st.floats(0.1, 3.0), dim=st.sampled_from([1, 2]),
       chi=st.sampled_from([Chi1(), Chi2()]), center=st.floats(-0.5, 0.5),
       radius=st.floats(0.1, 2.0), which=st.integers(0, 3),
       seed=st.integers(0, 2 ** 16), tight=st.booleans())
def test_batched_integrals_match_tight_reference(alpha, c, dim, chi, center, radius, which,
                                                 seed, tight):
    tol_abs, tol_rel = (1e-9, 1e-7) if tight else (1e-8, 1e-6)
    nu = StableLike(c=c, alpha=alpha, dim=dim)
    gen = np.random.default_rng(seed)
    pts = gen.uniform(-0.5, 0.5, size=(3, dim))

    def close(got, ref):
        return abs(got - ref) <= tol_abs + tol_rel * abs(ref)

    f = bump(np.full(dim, center), radius)
    got = jump_integral([nu] * 3, chi, f, pts, tol_abs, tol_rel)
    for a, value in zip(pts, got):
        assert close(value, _jump_reference(c, alpha, f, a))

    box = np.ones(dim)
    g = vanishing_test_functions(-box, box, dim, margin=0.5)[which]
    grid = gen.uniform(-1.0, 1.0, size=(3, dim))
    got = measure_integral([nu] * 3, g, grid, tol_abs, tol_rel)
    for a, value in zip(grid, got):
        assert close(value, _measure_reference(c, alpha, g, a, 0.25))

    got = chi_quadratic_matrix([nu] * 3, chi, pts, tol_abs, tol_rel)
    ref = _chi_square_reference(c, alpha, chi, dim)
    # each entry is held to tol_abs / d^2; the r_cut tail adds tol_abs / 4
    assert np.all(np.abs(got - ref * np.eye(dim)) <= tol_abs + tol_rel * ref)


def _mixed_rows(dim):
    """Base points with per-row measures: stable rows of varying c, alpha and
    minimum radius (some repeated), an atom row and an empty row."""
    gen = np.random.default_rng(20 + dim)
    pts = gen.uniform(-0.5, 0.5, size=(9, dim))
    nus = [StableLike(c=1.0 + k % 3, alpha=0.3 + 0.2 * k, dim=dim,
                      min_radius=0.05 * (k % 2)) for k in range(7)]
    nus[3] = nus[1]
    far = np.zeros(dim)
    far[0] = 3.0
    return pts, nus + [Atoms([(far, 0.7)], dim=dim), Atoms(dim=dim)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("chunk", [1, operators._MAX_BATCH_EVALS])
def test_batched_rows_are_bit_identical_to_one_row_calls(monkeypatch, dim, chunk):
    monkeypatch.setattr(operators, "_MAX_BATCH_EVALS", chunk)
    pts, nus = _mixed_rows(dim)
    f = bump(np.full(dim, 0.2), 0.9)
    box = np.ones(dim)
    g = vanishing_test_functions(-box, box, dim, margin=0.5)[0]
    got = jump_integral(nus, Chi2(), f, pts)
    assert got.tolist() == [jump_integral([nu], Chi2(), f, [a])[0] for nu, a in zip(nus, pts)]
    got = measure_integral(nus, g, pts)
    assert got.tolist() == [measure_integral([nu], g, [a])[0] for nu, a in zip(nus, pts)]
    chis = [Chi1()] if dim == 2 else [Chi1(), CustomChi(lambda a, b: np.tanh(b - a), bound=1.0)]
    for chi in chis:
        got = chi_quadratic_matrix(nus, chi, pts)
        for row, nu, a in zip(got, nus, pts):
            assert row.tolist() == chi_quadratic_matrix([nu], chi, [a])[0].tolist()


def test_measure_integral_meets_tolerance_at_small_alpha():
    # QUADPACK returned this integral 3.2 tolerances off without flagging it.
    # Oracle: 60-digit mpmath quadrature of f(x) |x - a|^(-1.1) over the support.
    f = vanishing_test_functions([-1.0], [1.0])[2]
    assert f.name == "outer1(r=0.5)"
    oracle = 0.19985639011940333942
    value = measure_integral([StableLike(c=1.0, alpha=0.1)], f, [[-0.746031746031746]],
                             tol_abs=1e-8, tol_rel=1e-6)[0]
    assert abs(value - oracle) <= 1e-8 + 1e-6 * abs(oracle)


def test_unconverged_row_names_point_measure_and_test_function(monkeypatch):
    # a cap below the second level leaves every row unconverged
    monkeypatch.setattr(operators, "_MAX_ROW_EVALS", 8 * 16 * 2 - 1)
    f = vanishing_test_functions([-1.0], [1.0])[0]
    with pytest.raises(QuadratureError, match=r"outer0\(r=1.0\) against StableLike\(c=1.0, "
                                              r"alpha=1.2.*at base point \[0.5\]"):
        measure_integral([StableLike(c=1.0, alpha=1.2)], f, [[0.5]])


@pytest.mark.parametrize("alpha", [0.5, 1.2, 1.8])
def test_chi2_quadratic_matrix_in_three_dimensions(alpha):
    # int_{|h|<1} h h^T c|h|^{-3-alpha} dh = c 4 pi / (3 (2 - alpha)) I
    c = 0.7
    m = chi_quadratic_matrix([StableLike(c=c, alpha=alpha, dim=3)], Chi2(), np.zeros((1, 3)))[0]
    np.testing.assert_allclose(m, c * 4.0 * np.pi / (3.0 * (2.0 - alpha)) * np.eye(3),
                               rtol=1e-8, atol=1e-8 * c / (2.0 - alpha))


def test_user_density_without_callables_is_one_dimensional():
    stable = StableLike(c=1.0, alpha=1.5, dim=2)
    user = UserDensity(density=stable.density, dim=2)
    f = bump([3.0, 0.0], 0.5)
    with pytest.raises(ValidationError, match="dimension 1 only"):
        user.tail_mass(1.0)
    with pytest.raises(ValidationError, match="dimension 1 only"):
        jump_integral([user], Chi2(), f, [[0.0, 0.0]])


def test_measure_integral_of_the_zero_stable_measure():
    f = vanishing_test_functions([-1.0], [1.0])[0]
    got = measure_integral([StableLike(c=0.0, alpha=1.5)], f, [[0.0]])
    np.testing.assert_array_equal(got, [0.0])


def test_pmp_imposes_nothing_at_a_negative_maximum():
    b = bump([0.0], 1.0)
    below = TestFunction(name="below", fn=lambda p: b.fn(p) - 2.0, grad=b.grad, hess=b.hess,
                         support_low=b.support_low, support_high=b.support_high,
                         hess_bound=b.hess_bound)
    # this diffusion would violate the principle at a nonnegative maximum
    field = ConstantTripletField(LevyTriplet.unchecked([0.0], [[-1.0]]))
    entry, = pmp_spot_check(field, Chi2(), [below], seed=4).entries
    assert entry.f_max < 0
    assert entry.ok and entry.operator_value == 0.0
