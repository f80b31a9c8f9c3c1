import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import euler
from levylab import rng as lrng
from levylab.core import (
    DELTA,
    Atoms,
    Chi1,
    Chi2,
    ConstantTripletField,
    LevyTriplet,
    SchemeConfig,
    StableLike,
    UserDensity,
)
from levylab.diagnostics import ks_distance, ks_critical_value
from levylab.errors import SchemeStepError, ValidationError
from levylab.euler import (
    DRIFT_COMPENSATE,
    GAUSSIAN_SURROGATE,
    IncrementPlan,
    _stable_increments,
    effective_drift,
    euler_chain_simulate,
    gaussian_factor,
    levy_increment_sample,
)
from levylab.stable import StableField


class TestIncrementPlan:
    def test_tau_bounds(self):
        with pytest.raises(ValidationError):
            IncrementPlan(tau=0.0)
        with pytest.raises(ValidationError):
            IncrementPlan(tau=1.0)
        with pytest.raises(ValidationError):
            IncrementPlan(tau=0.1, small_jump_mode="nope")


class TestIncrementSampling:
    def test_deterministic_drift(self):
        trip = LevyTriplet([5.0], [[0.0]], None)
        inc, dead = levy_increment_sample(trip, Chi2(), 0.1, IncrementPlan(tau=0.5),
                                          lrng.stream(0), size=4)
        np.testing.assert_allclose(inc, 0.5)
        assert not dead.any()

    def test_gaussian_variance(self):
        trip = LevyTriplet([0.0], [[1.0]], None)
        inc, _ = levy_increment_sample(trip, Chi2(), 0.25, IncrementPlan(tau=0.5),
                                       lrng.stream(1), size=100_000)
        assert 0.245 <= float(np.var(inc)) <= 0.255

    def test_atom_poisson_count(self):
        # one atom at jump 2 with mass 3 over dt = 0.5: counts ~ Poisson(1.5)
        trip = LevyTriplet([0.0], [[0.0]], Atoms([((2.0,), 3.0)]))
        inc, _ = levy_increment_sample(trip, Chi2(), 0.5, IncrementPlan(tau=0.5),
                                       lrng.stream(2), size=200_000)
        p0 = float(np.mean(inc.ravel() == 0.0))
        target = np.exp(-1.5)
        se = np.sqrt(target * (1 - target) / 200_000)
        assert abs(p0 - target) <= 3 * se

    def test_cemetery_jump_flagged(self):
        trip = LevyTriplet([0.0], [[0.0]], Atoms([(DELTA, 50.0)], dim=1))
        _, dead = levy_increment_sample(trip, Chi2(), 0.5, IncrementPlan(tau=0.5),
                                        lrng.stream(3), size=1000)
        assert dead.mean() > 0.99  # rate 50 * dt 0.5 = 25 expected hits

    def test_overflow_guard(self):
        # 2 tau^-1.5 / 1.5, about 4.2e7 expected jumps per path over dt = 1
        trip = LevyTriplet([0.0], [[0.0]], StableLike(c=1.0, alpha=1.5, dim=1))
        plan = IncrementPlan(tau=1e-5)
        with pytest.raises(SchemeStepError):
            levy_increment_sample(trip, Chi2(), 1.0, plan, lrng.stream(4), size=10)

    def test_effective_drift_compensator(self):
        # one compensated atom at h=0.5 with mass 2: drift picks up -0.5*2
        nu = Atoms([((0.5,), 2.0)])
        trip = LevyTriplet([1.0], [[0.0]], nu)
        drift = effective_drift(trip, Chi2(), IncrementPlan(tau=0.1))
        assert drift[0] == pytest.approx(1.0 - 1.0)
        # below tau the atom is dropped entirely: no compensation either
        drift2 = effective_drift(trip, Chi2(), IncrementPlan(tau=0.6))
        assert drift2[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("chi", [Chi1(), Chi2()])
    def test_zero_measure_keeps_the_drift_bits(self, chi):
        # adding the zero measure's chi1 adjustment must not turn -0.0 into 0.0
        trip = LevyTriplet([-0.0, 0.5], np.zeros((2, 2)))
        drift = effective_drift(trip, chi, IncrementPlan())
        assert np.signbit(drift).tolist() == [True, False]
        assert drift.tolist() == [0.0, 0.5]

    def test_chi1_conversion(self):
        nu = Atoms([((0.5,), 2.0)])
        trip = LevyTriplet([1.0], [[0.0]], nu)
        drift = effective_drift(trip, Chi1(), IncrementPlan(tau=0.1))
        # chi2 - chi1 at h=0.5: 0.5 - 0.5/1.25 = 0.1, times mass 2
        assert drift[0] == pytest.approx(1.0 + 0.2 - 1.0)


def test_gaussian_factor_recovers_matrix(scratch_rng):
    m = scratch_rng.standard_normal((3, 3))
    gamma = m @ m.T
    L = gaussian_factor(gamma)
    np.testing.assert_allclose(L @ L.T, gamma, atol=1e-10)


class TestChain:
    def test_gaussian_exactness_small(self):
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        plan = IncrementPlan(tau=0.5)
        cfg = SchemeConfig(paths=20_000, seed=12, grid=np.array([0.0, 1.0]))
        batch = euler_chain_simulate(field, Chi2(), 0.0, 0.1, 1.0, plan, cfg)
        m, _ = batch.marginal(1.0)
        ref = lrng.stream(200, namespace=lrng.SCRATCH).standard_normal(20_000)
        stat, _ = ks_distance(m[:, 0], ref)
        assert stat < ks_critical_value(20_000, 20_000, 0.01)

    def test_compound_poisson_count_law(self):
        # pure jump measure, fixed jump vector: X_t / h is Poisson distributed
        frozen = LevyTriplet([0.0], [[0.0]], Atoms([((2.0,), 0.5)]))
        field = ConstantTripletField(frozen)
        plan = IncrementPlan(tau=0.5)
        cfg = SchemeConfig(paths=50_000, seed=13, grid=np.array([0.0, 2.0]))
        batch = euler_chain_simulate(field, Chi2(), 0.0, 0.25, 2.0, plan, cfg)
        m, _ = batch.marginal(2.0)
        counts = m[:, 0] / 2.0
        lam = 0.5 * 2.0
        assert np.all(counts == np.round(counts))
        mean = counts.mean()
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(mean - lam) <= 3 * se
        p0 = np.mean(counts == 0)
        se0 = np.sqrt(np.exp(-lam) * (1 - np.exp(-lam)) / len(counts))
        assert abs(p0 - np.exp(-lam)) <= 3 * se0

    def test_compensation_convention_coherence(self):
        # same operator expressed under both conventions: same chain law
        nu = Atoms([((0.5,), 2.0), ((1.5,), 0.7)])
        delta1 = np.array([0.3])
        from levylab.operators import chi_drift_adjustment
        adj = chi_drift_adjustment(nu, Chi1(), Chi2())
        f1 = ConstantTripletField(LevyTriplet(delta1, [[0.2]], nu))
        f2 = ConstantTripletField(LevyTriplet(delta1 + adj, [[0.2]], nu))
        plan = IncrementPlan(tau=0.1)
        cfg1 = SchemeConfig(paths=20_000, seed=14, grid=np.array([0.0, 1.0]))
        cfg2 = SchemeConfig(paths=20_000, seed=15, grid=np.array([0.0, 1.0]))
        b1 = euler_chain_simulate(f1, Chi1(), 0.0, 0.05, 1.0, plan, cfg1)
        b2 = euler_chain_simulate(f2, Chi2(), 0.0, 0.05, 1.0, plan, cfg2)
        stat, _ = ks_distance(b1.marginal(1.0)[0][:, 0], b2.marginal(1.0)[0][:, 0])
        assert stat < 0.01

    def test_truncation_refinement(self):
        # dropping tau by 10x moves the fixed-time marginal by less than 0.005
        field = StableField.constant(1.0, 0.8)
        T = 0.25
        marginals = {}
        for i, tau in enumerate([1e-3, 1e-4]):
            cfg = SchemeConfig(paths=200_000, seed=16 + i, grid=np.array([0.0, T]),
                               threads=2)
            b = euler_chain_simulate(field, Chi2(), 0.0, 0.05, T,
                                     IncrementPlan(tau=tau), cfg)
            marginals[tau] = b.marginal(T)[0][:, 0]
        stat, _ = ks_distance(marginals[1e-3], marginals[1e-4])
        assert stat < 0.005

    def test_state_dependent_generic_field(self):
        # generic per-path fallback: small scale, checks it runs and stays finite
        def fn(a):
            scale = 1.0 + 0.5 * np.tanh(a[0])
            return LevyTriplet([0.1 * a[0]], [[0.3]],
                               StableLike(c=scale, alpha=1.1, dim=1))

        from levylab.core import TripletField
        field = TripletField(fn, dim=1)
        cfg = SchemeConfig(paths=40, seed=17, grid=np.array([0.0, 0.2]))
        batch = euler_chain_simulate(field, Chi2(), 0.0, 0.05, 0.2,
                                     IncrementPlan(tau=0.01), cfg)
        m, alive = batch.marginal(0.2)
        assert np.isfinite(m).all()

    def test_deterministic_replay(self):
        field = StableField.constant(1.0, 1.3)
        cfg = SchemeConfig(paths=128, seed=18, grid=np.array([0.0, 0.1]))
        b1 = euler_chain_simulate(field, Chi2(), 0.0, 0.02, 0.1,
                                  IncrementPlan(tau=1e-2), cfg)
        b2 = euler_chain_simulate(field, Chi2(), 0.0, 0.02, 0.1,
                                  IncrementPlan(tau=1e-2), cfg)
        assert np.array_equal(b1.states, b2.states, equal_nan=True)


@pytest.mark.parametrize("mode, quads", [(DRIFT_COMPENSATE, 4), (GAUSSIAN_SURROGATE, 6)])
def test_frozen_user_density_is_integrated_once_per_run(monkeypatch, mode, quads):
    # The compensator window and tail mass of a user density (and, for the
    # surrogate, its truncated second moment) take two quadratures each, one
    # per side. They are constants of the run, so the step count must not
    # change how many are made.
    from levylab import core

    stable = StableLike(c=1.0, alpha=0.9, dim=1)
    user = UserDensity(density=stable.density, dim=1,
                       tail_sampler=lambda rng, size, r: stable.sample_tail(rng, size, r))
    field = ConstantTripletField(LevyTriplet([0.2], [[0.0]], user))
    calls = []
    quad = core._si.quad

    def counting_quad(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(core, "_si", SimpleNamespace(quad=counting_quad))
    counts = []
    for horizon in (0.1, 1.0):
        calls.clear()
        cfg = SchemeConfig(paths=20, seed=1, grid=np.array([0.0, horizon]))
        euler_chain_simulate(field, Chi2(), 0.0, 0.05, horizon,
                             IncrementPlan(tau=0.01, small_jump_mode=mode), cfg)
        counts.append(len(calls))
    assert counts == [quads, quads]


def test_gaussian_surrogate_small_jump_variance():
    # a measure living entirely below tau: the surrogate must reproduce the
    # truncated second moment per unit time, with no compound-Poisson part
    inner = StableLike(c=1.0, alpha=1.5, dim=1, min_radius=1e-4)

    def density(h):
        h = np.atleast_2d(h)
        vals = inner.density(h)
        vals[np.abs(h[:, 0]) >= 0.01] = 0.0
        return vals

    second = lambda r: inner.truncated_second_moment(min(r, 0.01))
    nu = UserDensity(density=density, dim=1,
                     tail_mass_fn=lambda r: 0.0 if r >= 0.01 else np.nan,
                     second_moment_fn=second,
                     tail_sampler=lambda rng, size, r: np.zeros((size, 1)))
    trip = LevyTriplet([0.0], [[0.0]], nu)
    plan = IncrementPlan(tau=0.01, small_jump_mode=GAUSSIAN_SURROGATE)
    dt = 0.5
    inc, _ = levy_increment_sample(trip, Chi2(), dt, plan, lrng.stream(28),
                                   size=100_000)
    target = second(0.01) * dt
    assert float(np.var(inc)) == pytest.approx(target, rel=0.03)


def test_two_dimensional_gaussian_covariance():
    gamma = np.array([[2.0, 0.6], [0.6, 1.0]])
    field = ConstantTripletField(LevyTriplet([0.0, 0.0], gamma, None))
    cfg = SchemeConfig(paths=40_000, seed=29, grid=np.array([0.0, 1.0]))
    batch = euler_chain_simulate(field, Chi2(), [0.0, 0.0], 0.25, 1.0,
                                 IncrementPlan(tau=0.5), cfg)
    m, _ = batch.marginal(1.0)
    cov = np.cov(m.T)
    np.testing.assert_allclose(cov, gamma, atol=0.05)


def test_singular_diffusion_takes_the_eigen_factor():
    # Cholesky refuses a singular positive semi-definite matrix, so the factor
    # comes from the eigendecomposition; both coordinates move together.
    gamma = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gamma)
    factor = gaussian_factor(gamma)
    np.testing.assert_allclose(factor @ factor.T, gamma, atol=1e-12)
    field = ConstantTripletField(LevyTriplet([0.0, 0.0], gamma, None))
    cfg = SchemeConfig(paths=40_000, seed=29, grid=np.array([0.0, 1.0]))
    batch = euler_chain_simulate(field, Chi2(), [0.0, 0.0], 0.25, 1.0,
                                 IncrementPlan(tau=0.5), cfg)
    m, _ = batch.marginal(1.0)
    np.testing.assert_allclose(np.cov(m.T), gamma, atol=0.05)
    np.testing.assert_allclose(m[:, 0], m[:, 1], atol=1e-12)


# A stable field with c = 1e-12 draws no jump in any block, so the sampler
# starts from float zeros (np.bincount of no owner would give int64 zeros).
# sha256 of states + xi recorded with the sampler's no-jump branch.
@pytest.mark.parametrize("mode, expected", [
    (DRIFT_COMPENSATE, "f0880fc46d68f9da88edbb7715e68eae1388efd94dd6aa542a2f0178e107dc60"),
    (GAUSSIAN_SURROGATE, "89da85150afa197323a2f4a11c9241921b059da6d8981b9a3406346a4ad34ee8"),
], ids=[DRIFT_COMPENSATE, GAUSSIAN_SURROGATE])
def test_stable_field_block_without_jumps(mode, expected):
    field = StableField.constant(1e-12, 1.5, 2)
    plan = IncrementPlan(tau=1e-2, small_jump_mode=mode)
    inc, _ = _stable_increments(field, np.zeros((4, 2)), Chi2(), 0.05, plan, lrng.stream(5))
    assert inc.shape == (4, 2) and inc.dtype == np.float64
    cfg = SchemeConfig(paths=10, seed=5, grid=np.linspace(0.0, 0.2, 3), block_size=4)
    batch = euler_chain_simulate(field, Chi2(), [0.0, 0.1], 0.05, 0.2, plan, cfg)
    digest = hashlib.sha256(batch.states.tobytes() + batch.xi.tobytes()).hexdigest()
    assert digest == expected


@settings(max_examples=80, deadline=None, derandomize=True)
@given(counts=st.lists(st.integers(0, 12), min_size=1, max_size=30),
       chunk=st.integers(1, 40))
def test_path_ranges_tile_the_paths(counts, chunk):
    # Whole paths, in order, at most ``chunk`` jumps a range unless one path
    # alone holds more.
    counts = np.array(counts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(euler, "_JUMP_CHUNK", chunk)
        ranges = list(euler._path_ranges(counts))
    assert [p0 for p0, _ in ranges] == [0] + [p1 for _, p1 in ranges[:-1]]
    assert ranges[-1][1] == len(counts)
    for p0, p1 in ranges:
        assert p1 - p0 == 1 or counts[p0:p1].sum() <= chunk


STATE_ALPHA_2D = StableField(c=lambda x: 1.0 + 0.5 * np.tanh(x[:, 1]),
                             alpha=lambda x: 1.3 + 0.4 * np.tanh(x[:, 0]), dim=2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 300),
       mode=st.sampled_from([DRIFT_COMPENSATE, GAUSSIAN_SURROGATE]))
def test_stable_step_in_ranges_is_the_one_shot_step(seed, chunk, mode):
    # A chunk above the block's jump count draws the block in one range.
    # Smaller ranges give the same increments and leave the block's
    # generator where the one-shot step leaves it.
    x = lrng.stream(seed, 1).uniform(-1.0, 1.0, (40, 2))
    plan = IncrementPlan(tau=0.1, small_jump_mode=mode)
    gen, ref = lrng.stream(seed), lrng.stream(seed)
    whole, _ = _stable_increments(STATE_ALPHA_2D, x, Chi1(), 0.05, plan, ref)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(euler, "_JUMP_CHUNK", chunk)
        ranged, _ = _stable_increments(STATE_ALPHA_2D, x, Chi1(), 0.05, plan, gen)
    assert np.array_equal(ranged, whole)
    assert np.array_equal(gen.random(4), ref.random(4))


def test_frozen_stable_tail_takes_any_generator():
    # The frozen engine draws a stable tail in one go, without skip_ahead.
    trip = LevyTriplet([0.0], [[0.0]], StableLike(1.0, 1.5))
    inc, dead = levy_increment_sample(trip, Chi2(), 0.1, IncrementPlan(tau=0.5),
                                      np.random.default_rng(0), size=10)
    assert inc.shape == (10, 1) and np.isfinite(inc).all() and not dead.any()


def test_stable_step_memory_does_not_grow_with_the_jump_count():
    # One stable-fast step of 4096 paths at about 0.5M and 2M jumps: the
    # jumps are drawn and summed a range at a time, so the peak stays put.
    field = StableField.constant(1.0, 1.5, 1)
    plan = IncrementPlan(tau=1e-3)
    rate = 2.0 * plan.tau ** -1.5 / 1.5
    x = np.zeros((4096, 1))
    peaks = []
    for jumps in (5e5, 2e6):
        tracemalloc.start()
        try:
            _stable_increments(field, x, Chi2(), jumps / len(x) / rate, plan, lrng.stream(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_user_density_tail_sampler_path():
    # a user density with its own tail sampler feeds the compound-Poisson part
    stable = StableLike(c=1.0, alpha=0.7, dim=1)
    user = UserDensity(
        density=stable.density, dim=1,
        tail_sampler=lambda rng, size, r: stable.sample_tail(rng, size, r),
        tail_mass_fn=stable.tail_mass,
        second_moment_fn=stable.truncated_second_moment)
    trip_u = LevyTriplet([0.0], [[0.0]], user)
    trip_s = LevyTriplet([0.0], [[0.0]], stable)
    plan = IncrementPlan(tau=0.05)
    inc_u, _ = levy_increment_sample(trip_u, Chi2(), 0.5, plan, lrng.stream(30),
                                     size=30_000)
    inc_s, _ = levy_increment_sample(trip_s, Chi2(), 0.5, plan, lrng.stream(31),
                                     size=30_000)
    stat, p = ks_distance(inc_u[:, 0], inc_s[:, 0])
    assert p > 0.01


def test_single_step_generator_consistency():
    # (1/eps) E[f(a + increment) - f(a)] approximates the operator at the
    # frozen triplet, with the state-dependent stable field
    from levylab.operators import apply_operator, bump

    field = StableField(c=lambda x: np.full(x.shape[0], 1.0),
                        alpha=lambda x: 1.1 + 0.2 * np.tanh(x[:, 0]), dim=1)
    a = np.array([0.4])
    eps = 1e-3
    plan = IncrementPlan(tau=1e-4)
    draws = 400_000
    inc, _ = _stable_increments(field, np.tile(a, (draws, 1)), Chi2(), eps, plan,
                                lrng.stream(19))
    f = bump([0.0], 2.0)
    vals = f(a + inc) - f.value_at(a)
    est = float(np.mean(vals)) / eps
    se = float(np.std(vals, ddof=1)) / np.sqrt(draws) / eps
    ref = apply_operator(field(a), Chi2(), f, a)
    assert abs(est - ref) <= 4 * se
