import numpy as np
import pytest

from levylab import rng as lrng
from levylab.core import (
    Chi2,
    ConstantTripletField,
    LevyTriplet,
    PathBatch,
    SchemeConfig,
)
from levylab.diagnostics import (
    explosion_stats,
    ks_distance,
    ks_critical_value,
    martingale_residual,
    wasserstein1,
)
from levylab.errors import ValidationError
from levylab.euler import IncrementPlan, euler_chain_simulate
from levylab.operators import bump


class TestKS:
    def test_identical(self):
        assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])[0] == 0.0

    def test_disjoint(self):
        assert ks_distance([0.0, 1.0], [5.0, 6.0])[0] == 1.0

    def test_interleaved(self):
        assert ks_distance([0.0, 1.0], [0.5])[0] == pytest.approx(0.5)

    def test_symmetry(self, scratch_rng):
        a = scratch_rng.standard_normal(500)
        b = scratch_rng.standard_normal(700) + 0.3
        assert ks_distance(a, b)[0] == ks_distance(b, a)[0]

    def test_self_merge_invariance(self, scratch_rng):
        a = scratch_rng.standard_normal(400)
        b = scratch_rng.standard_normal(400) + 0.1
        s1 = ks_distance(a, b)[0]
        s2 = ks_distance(np.concatenate([a, a]), b)[0]
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ks_distance([], [1.0])

    def test_p_value_near_uniform_under_null(self):
        gen = lrng.stream(40, namespace=lrng.SCRATCH)
        ps = []
        for _ in range(40):
            a = gen.standard_normal(800)
            b = gen.standard_normal(800)
            ps.append(ks_distance(a, b)[1])
        assert np.mean(np.array(ps) < 0.5) == pytest.approx(0.5, abs=0.25)

    def test_critical_value_formula(self):
        # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.6276
        assert ks_critical_value(10 ** 5, 10 ** 5, 0.01) == pytest.approx(
            1.6276 * np.sqrt(2 / 10 ** 5), rel=1e-4)

    def test_statistic_matches_scipy(self, scratch_rng):
        from scipy.stats import ks_2samp
        a = scratch_rng.standard_normal(400)
        b = scratch_rng.standard_normal(333) + 0.2
        assert ks_distance(a, b)[0] == pytest.approx(
            ks_2samp(a, b).statistic, abs=1e-12)
        # heavy ties
        c = np.round(scratch_rng.standard_normal(500), 1)
        d = np.round(scratch_rng.standard_normal(500), 1)
        assert ks_distance(c, d)[0] == pytest.approx(
            ks_2samp(c, d).statistic, abs=1e-12)


class TestWasserstein:
    def test_identical(self):
        assert wasserstein1([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_point_masses(self):
        assert wasserstein1([0.0], [2.5]) == pytest.approx(2.5)

    def test_sorted_matching(self):
        assert wasserstein1([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_shift_property_exact(self, scratch_rng):
        a = scratch_rng.standard_normal(256)
        assert wasserstein1(a, a + 0.37) == pytest.approx(0.37, abs=1e-12)

    def test_unequal_sizes_cdf_area(self):
        # {0,1} vs {0.5}: integral of |F_a - F_b| = 0.5*0.5 + 0.5*0.5
        assert wasserstein1([0.0, 1.0], [0.5]) == pytest.approx(0.5)

    def test_matches_scipy_oracle(self, scratch_rng):
        from scipy.stats import wasserstein_distance
        a = scratch_rng.standard_normal(321)
        b = scratch_rng.standard_normal(457) * 1.3 + 0.2
        assert wasserstein1(a, b) == pytest.approx(wasserstein_distance(a, b),
                                                   rel=1e-10)


class TestMartingaleResidual:
    def test_constant_f_zero_g_exact(self):
        f = bump([0.0], 3.0)
        const = type(f)(
            name="const", fn=lambda p: np.ones(p.shape[0]),
            grad=lambda p: np.zeros_like(p),
            hess=lambda p: np.zeros((p.shape[0], 1, 1)),
            support_low=np.array([-100.0]), support_high=np.array([100.0]),
            hess_bound=0.0)
        batch = PathBatch(np.linspace(0, 1, 11),
                          lrng.stream(41).standard_normal((50, 11, 1)))
        rep = martingale_residual(batch, const, lambda p: np.zeros(p.shape[0]),
                                  [-100.0], [100.0])
        for row in rep.rows:
            assert row.mean == 0.0

    def test_linearity_in_f_g(self):
        batch = PathBatch(np.linspace(0, 1, 6),
                          np.cumsum(lrng.stream(42).standard_normal((80, 6, 1)) * 0.3,
                                    axis=1))
        f1, f2 = bump([0.0], 2.0), bump([0.5], 1.5)
        g1 = lambda p: 0.5 * f1.hess(p)[:, 0, 0]
        g2 = lambda p: 0.5 * f2.hess(p)[:, 0, 0]
        big = 50.0
        r1 = martingale_residual(batch, f1, g1, [-big], [big])
        r2 = martingale_residual(batch, f2, g2, [-big], [big])
        comb_f = type(f1)(
            name="comb", fn=lambda p: 2 * f1.fn(p) - 3 * f2.fn(p),
            grad=lambda p: 2 * f1.grad(p) - 3 * f2.grad(p),
            hess=lambda p: 2 * f1.hess(p) - 3 * f2.hess(p),
            support_low=np.minimum(f1.support_low, f2.support_low),
            support_high=np.maximum(f1.support_high, f2.support_high),
            hess_bound=2 * f1.hess_bound + 3 * f2.hess_bound)
        comb_g = lambda p: 2 * g1(p) - 3 * g2(p)
        rc = martingale_residual(batch, comb_f, comb_g, [-big], [big])
        for row_c, row_1, row_2 in zip(rc.rows, r1.rows, r2.rows):
            assert row_c.mean == pytest.approx(2 * row_1.mean - 3 * row_2.mean,
                                               abs=1e-12)

    def test_degenerate_region(self):
        batch = PathBatch(np.linspace(0, 1, 4), np.zeros((10, 4, 1)))
        rep = martingale_residual(batch, bump([0.0], 1.0),
                                  lambda p: np.zeros(p.shape[0]), [5.0], [6.0])
        assert rep.degenerate

    def test_brownian_zero_drift_small(self):
        f = bump([0.0], 2.0)
        g = lambda p: 0.5 * f.hess(p)[:, 0, 0]
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        cfg = SchemeConfig(paths=20_000, seed=43, grid=np.linspace(0, 1, 51))
        batch = euler_chain_simulate(field, Chi2(), 0.0, 0.02, 1.0,
                                     IncrementPlan(tau=0.5), cfg)
        rep = martingale_residual(batch, f, g, [-4.0], [4.0],
                                  grid=np.array([0.5, 1.0]), allowance_rate=0.11)
        assert rep.all_ok
        bad = martingale_residual(batch, f, lambda p: g(p) + 1.0, [-4.0], [4.0],
                                  grid=np.array([0.5, 1.0]), allowance_rate=0.11)
        assert not bad.all_ok
        # the injected unit drift shows up as -t times the in-region mass
        final = bad.rows[-1]
        assert final.mean == pytest.approx(-1.0, abs=0.05)
        assert abs(final.mean) > 5 * final.std_error


class TestExplosionStats:
    def test_conservative_brownian(self):
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        cfg = SchemeConfig(paths=2000, seed=44, grid=np.linspace(0, 1, 5))
        batch = euler_chain_simulate(field, Chi2(), 0.0, 0.25, 1.0,
                                     IncrementPlan(tau=0.5), cfg)
        rep = explosion_stats(batch)
        assert rep.fraction == 0.0
        assert rep.absorption_ok

    def test_escape_radius_one_vs_reflection_series(self):
        # exact two-sided exit probability for Brownian motion from (-1, 1):
        # P(sup_{s<=1}|B_s| >= 1) with the discrete-monitoring correction as
        # the lower end of the bracket
        def two_sided_stay(a, t, terms=25):
            s = 0.0
            for n in range(terms):
                s += ((-1.0) ** n / (2 * n + 1)) * np.exp(
                    -(2 * n + 1) ** 2 * np.pi ** 2 * t / (8 * a * a))
            return 4.0 / np.pi * s

        eps = 1e-3
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        cfg = SchemeConfig(paths=20_000, seed=45, grid=np.linspace(0, 1, 6),
                           escape_radius=1.0)
        batch = euler_chain_simulate(field, Chi2(), 0.0, eps, 1.0,
                                     IncrementPlan(tau=0.5), cfg)
        rep = explosion_stats(batch)
        p_exact = 1.0 - two_sided_stay(1.0, 1.0)
        p_corrected = 1.0 - two_sided_stay(1.0 + 0.5826 * np.sqrt(eps), 1.0)
        se = np.sqrt(p_exact * (1 - p_exact) / len(batch))
        assert p_corrected - 3 * se <= rep.fraction <= p_exact + 3 * se
        assert rep.absorption_ok

    def test_all_dead_input(self):
        batch = PathBatch(np.linspace(0, 1, 3), np.full((5, 3, 1), np.nan),
                          xi=np.zeros(5))
        rep = explosion_stats(batch)
        assert rep.fraction == 1.0
        assert rep.absorption_ok


def test_martingale_residual_skips_times_before_the_batch_grid():
    batch = PathBatch(np.linspace(0.5, 1.0, 6),
                      np.cumsum(lrng.stream(43).standard_normal((40, 6, 1)) * 0.3, axis=1))
    f = bump([0.0], 2.0)
    rep = martingale_residual(batch, f, lambda p: 0.5 * f.hess(p)[:, 0, 0], [-50.0], [50.0],
                              grid=[0.1, 0.75])
    assert [row.time for row in rep.rows] == [0.75]
