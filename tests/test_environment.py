import numpy as np
import pytest

from levylab import rng as lrng
from levylab.core import SchemeConfig
from levylab.diagnostics import ks_distance, ks_critical_value
from levylab.environment import (
    BernoulliPoisson,
    CustomEnvironment,
    IIDScaled,
    quenched_cross_validate,
    rwre_simulate,
)
from levylab.errors import ConfigurationError, RangeError, ValidationError
from levylab.potential import PiecewiseConstantPotential, potential_chain_simulate


class TestPotentialFromQ:
    def test_positive_branch(self):
        W = PiecewiseConstantPotential(1.0, np.array([0.0, 2.0]), 0)
        assert W.value(np.array([1.5]))[0] == 2.0
        assert W.value(np.array([0.5]))[0] == 0.0

    def test_negative_branch(self):
        W = PiecewiseConstantPotential(1.0, np.array([3.0, 0.0]), 0)
        assert W.value(np.array([-0.5]))[0] == -3.0

    def test_accumulates_both_sides(self):
        q = np.array([0.5, -1.0, 2.0, 0.25, -0.5])  # indices -2..2
        W = PiecewiseConstantPotential(1.0, q, -2)
        # V on [1,2) = q_1 = 0.25 ; V on [2,3) would need q_3 (outside)
        assert W.value(np.array([1.5]))[0] == pytest.approx(0.25)
        # V on [-1,0) = -(q_0) = -2.0 ; V on [-2,-1) = -(q_0+q_{-1}) = -1.0
        assert W.value(np.array([-0.5]))[0] == pytest.approx(-2.0)
        assert W.value(np.array([-1.5]))[0] == pytest.approx(-1.0)

    def test_all_zero(self):
        W = PiecewiseConstantPotential(0.5, np.zeros(11), -5)
        xs = np.linspace(-2.0, 2.5, 19)
        np.testing.assert_array_equal(W.value(xs), 0.0)

    def test_out_of_window(self):
        W = PiecewiseConstantPotential(1.0, np.array([0.0, 1.0]), 0)
        with pytest.raises(RangeError):
            W.value(np.array([10.0]))


def outward_cells(q, k_min, offset):
    """Cell values k_min - 1 .. k_max as plain-Python partial sums outward from
    cell 0 (``offset``), with increments outside the window counted as zero."""
    inc = {k_min + i: float(v) for i, v in enumerate(q)}
    cells = []
    for k in range(k_min - 1, k_min + len(q)):
        acc = 0.0
        if k > 0:
            for j in range(1, k + 1):
                acc += inc.get(j, 0.0)
        else:
            for j in range(0, k, -1):
                acc += inc.get(j, 0.0)
            acc = -acc
        cells.append(offset + acc)
    return np.array(cells)


@pytest.mark.parametrize("k_min, size", [(-30, 20), (-31, 31), (-8, 9), (-12, 25), (0, 9),
                                         (1, 9), (2, 9), (5, 36), (1000, 40)],
                         ids=["left", "left-to-minus-1", "left-to-0", "across", "from-0",
                              "from-1", "from-2", "right", "far-right"])
def test_lattice_cells_sum_outward_from_the_origin(k_min, size):
    rng = np.random.default_rng([size, k_min + 100])
    q = rng.standard_normal(size)
    offset = float(rng.standard_normal())
    W = PiecewiseConstantPotential(0.1, q, k_min, offset)
    cells = W.cells()
    expected = outward_cells(q, k_min, offset)
    assert cells.left_value.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(cells.bounds, (np.arange(size + 2) + k_min - 1) * 0.1)
    assert W.domain == ((k_min - 1) * 0.1, (k_min + size) * 0.1)
    # value() reads the same table at each cell's midpoint
    assert W.value((np.arange(size + 1) + k_min - 0.5) * 0.1).tobytes() == expected.tobytes()


class TestEnvironmentSpecs:
    def test_iid_scaling(self):
        env = IIDScaled(2.0)
        gen = lrng.stream(1, namespace=lrng.ENVIRONMENTS)
        q = env.sample(gen, 0.04, 0, 9999)
        assert np.std(q) == pytest.approx(np.sqrt(0.04) * 2.0, rel=0.05)

    def test_bernoulli_probability_cap(self):
        env = BernoulliPoisson(q=1.0, lam=3.0)
        gen = lrng.stream(2, namespace=lrng.ENVIRONMENTS)
        with pytest.raises(ValidationError):
            env.sample(gen, 0.5, 0, 10)

    def test_bernoulli_counts(self):
        # jump count up to floor(a/eps) is Binomial(k, lam*eps): mean lam*a
        env = BernoulliPoisson(q=2.0, lam=1.5)
        eps = 0.01
        counts = []
        for e in range(600):
            gen = lrng.stream(3, e, lrng.ENVIRONMENTS)
            q = env.sample(gen, eps, 0, 250)
            counts.append(np.sum(q[1:201] != 0.0))  # a = 2.0
        mean = np.mean(counts)
        assert mean == pytest.approx(1.5 * 2.0, rel=0.05)

    def test_custom_shape_checked(self):
        env = CustomEnvironment(sampler=lambda rng, eps, lo, hi: np.zeros(3))
        with pytest.raises(ValidationError):
            env.sample(lrng.stream(0), 0.1, 0, 10)


class TestRWRE:
    def test_symmetric_limit(self):
        # the step must be fine enough that the lattice atoms (mass ~ phi(0)
        # * 2 eps) stay below the KS resolution at this path count
        cfg = SchemeConfig(paths=4000, seed=21, grid=np.array([0.0, 1.0]))
        runs = rwre_simulate(CustomEnvironment(
            sampler=lambda rng, eps, lo, hi: np.zeros(hi - lo + 1)),
            0.02, 0, 1.0, 1, cfg)
        m, _ = runs[0].walks.marginal(1.0)
        ref = lrng.stream(99, namespace=lrng.SCRATCH).standard_normal(4000)
        stat, _ = ks_distance(m[:, 0], ref)
        assert stat < ks_critical_value(4000, 4000, 0.01)

    def test_strong_drift_left(self):
        # q = +10 everywhere: right probability 1/(e^10+1) ~ 4.5e-5
        cfg = SchemeConfig(paths=500, seed=22, grid=np.array([0.0, 0.25]))
        runs = rwre_simulate(CustomEnvironment(
            sampler=lambda rng, eps, lo, hi: np.full(hi - lo + 1, 10.0)),
            0.05, 0, 0.25, 1, cfg)
        m, _ = runs[0].walks.marginal(0.25)
        n_steps = int(np.ceil(0.25 / 0.05 ** 2))
        sites = m[:, 0] / 0.05
        rights = (sites + n_steps) / 2.0  # S = rights - lefts, total = n_steps
        freq = float(np.mean(rights)) / n_steps
        assert freq < 1e-3
        assert np.mean(sites) < -0.9 * n_steps

    def test_reproducible(self):
        cfg = SchemeConfig(paths=100, seed=23, grid=np.array([0.0, 0.5]))
        env = BernoulliPoisson(q=1.0, lam=2.0)
        r1 = rwre_simulate(env, 0.1, 0, 0.5, 2, cfg)
        r2 = rwre_simulate(env, 0.1, 0, 0.5, 2, cfg)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.potential.q, b.potential.q)
            assert np.array_equal(a.walks.states, b.walks.states, equal_nan=True)

    def test_environments_differ_within_batch(self):
        cfg = SchemeConfig(paths=10, seed=24, grid=np.array([0.0, 0.25]))
        runs = rwre_simulate(IIDScaled(1.0), 0.05, 0, 0.25, 2, cfg)
        assert not np.array_equal(runs[0].potential.q, runs[1].potential.q)

    def test_window_cap(self):
        cfg = SchemeConfig(paths=1, seed=0, grid=np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            rwre_simulate(IIDScaled(1.0), 1e-5, 0, 1.0, 1, cfg)


class TestQuenchedCrossValidation:
    def test_lattice_identity(self):
        cfg = SchemeConfig(paths=2000, seed=25, grid=np.array([0.0, 1.0]))
        runs = rwre_simulate(BernoulliPoisson(q=1.0, lam=1.0), 0.05, 0, 1.0, 1, cfg)
        rep = quenched_cross_validate(runs[0], 1.0, 2000)
        assert rep.kernel_max_dev < 1e-12
        assert rep.psi_max_dev < 1e-12
        assert rep.ks_p_value > 0.01

    def test_brownian_quenched_case(self):
        cfg = SchemeConfig(paths=4000, seed=26, grid=np.array([0.0, 1.0]))
        runs = rwre_simulate(CustomEnvironment(
            sampler=lambda rng, eps, lo, hi: np.zeros(hi - lo + 1)),
            0.04, 0, 1.0, 1, cfg)
        rep = quenched_cross_validate(runs[0], 1.0, 4000)
        assert rep.ks_p_value > 0.01
        m, _ = runs[0].walks.marginal(1.0)
        ref = lrng.stream(98, namespace=lrng.SCRATCH).standard_normal(4000)
        stat, _ = ks_distance(m[:, 0], ref)
        assert stat < ks_critical_value(4000, 4000, 0.01)


def test_cross_validation_far_from_the_origin():
    # The walk window 959..1041 does not reach the origin; the scheme sees
    # only differences of the potential, so the kernels still coincide.
    cfg = SchemeConfig(paths=400, seed=25, grid=np.array([0.0, 0.1]))
    run, = rwre_simulate(IIDScaled(1.0), 0.05, 1000, 0.1, 1, cfg)
    assert (run.potential.k_min, run.potential.k_max) == (959, 1041)
    rep = quenched_cross_validate(run, 0.1, 400)
    assert rep.sites_checked == 81
    assert rep.kernel_max_dev < 1e-12
    assert rep.psi_max_dev < 1e-12
    assert rep.ks_p_value > 0.01


def test_rwre_honours_the_escape_radius():
    cfg = SchemeConfig(paths=200, seed=3, grid=np.linspace(0.0, 0.5, 11), escape_radius=0.25)
    run, = rwre_simulate(IIDScaled(1.0), 0.1, 0, 0.5, 1, cfg)
    walks = run.walks
    alive = walks.times[None, :] < walks.xi[:, None]
    assert np.isfinite(walks.xi).any()
    assert np.max(np.abs(walks.states[alive])) <= 0.25
    far, = rwre_simulate(IIDScaled(1.0), 0.1, 3, 0.5, 1, cfg)
    assert np.all(far.walks.xi == 0.0)
    assert np.all(np.isnan(far.walks.states))


def test_rwre_and_the_potential_scheme_walk_one_table(monkeypatch):
    # Both walks step with the lattice potential's closed-form table, so on
    # the same sites they are bit-equal, even at a q whose e^q overflows.
    import levylab.environment as environment
    import levylab.potential as pot

    tables = []
    kernel = pot.lattice_kernel

    def record(p_table, site_lo, *args):
        tables.append((site_lo, p_table))
        return kernel(p_table, site_lo, *args)

    monkeypatch.setattr(environment, "lattice_kernel", record)
    monkeypatch.setattr(pot, "lattice_kernel", record)
    env = CustomEnvironment(sampler=lambda rng, eps, lo, hi: np.where(
        np.arange(lo, hi + 1) == 3, 800.0, rng.normal(0.0, 0.5, hi - lo + 1)))
    cfg = SchemeConfig(paths=20, seed=4, grid=np.array([0.0, 0.1]))
    run, = rwre_simulate(env, 0.05, 0, 0.1, 1, cfg)
    potential_chain_simulate(run.potential, 0.0, 0.05, 0.1, cfg)
    (rwre_lo, rwre), (lo, table) = tables
    assert table.size > 40 and table[3 - lo] == 0.0
    np.testing.assert_array_equal(table, rwre[lo - rwre_lo:lo - rwre_lo + table.size])


def test_donsker_variance_and_quenched_annealed_split():
    # variance of the rescaled potential approximates |a|, and quenched
    # per-environment means differ from the pooled (annealed) statistics
    env = IIDScaled(1.0)
    eps = 0.02
    values = []
    for e in range(400):
        gen = lrng.stream(27, e, lrng.ENVIRONMENTS)
        q = env.sample(gen, eps, 0, int(2.0 / eps) + 2)
        W = PiecewiseConstantPotential(eps, q, 0)
        values.append(W.value(np.array([2.0]))[0])
    var = np.var(values, ddof=1)
    assert var == pytest.approx(2.0, rel=0.25)


def test_cross_validation_compares_only_the_first_paths_walks():
    cfg = SchemeConfig(paths=300, seed=25, grid=np.array([0.0, 1.0]))
    run, = rwre_simulate(BernoulliPoisson(q=1.0, lam=1.0), 0.05, 0, 1.0, 1, cfg)
    rep = quenched_cross_validate(run, 1.0, 100)
    walks, _ = run.walks.marginal(1.0)
    scheme = potential_chain_simulate(
        run.potential, 0.0, 0.05, 1.0,
        SchemeConfig(paths=100, seed=run.path_seed + 7, grid=run.walks.times))
    stat, _ = ks_distance(walks[:100, 0], scheme.marginal(1.0)[0][:, 0])
    assert rep.ks_stat == stat


def test_cross_validation_at_a_nan_time_is_refused():
    cfg = SchemeConfig(paths=50, seed=25, grid=np.array([0.0, 0.5]))
    run, = rwre_simulate(BernoulliPoisson(q=1.0, lam=1.0), 0.05, 0, 0.5, 1, cfg)
    with pytest.raises(ValidationError, match="must be finite"):
        quenched_cross_validate(run, float("nan"), 50)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_cross_validation_time_is_checked_before_any_work(t, monkeypatch):
    import levylab.environment as environment

    cfg = SchemeConfig(paths=50, seed=25, grid=np.array([0.0, 0.5]))
    run, = rwre_simulate(BernoulliPoisson(q=1.0, lam=1.0), 0.05, 0, 0.5, 1, cfg)

    def fail(*args, **kwargs):
        raise AssertionError("the potential scheme ran")

    monkeypatch.setattr(environment, "potential_chain_simulate", fail)
    monkeypatch.setattr(environment, "psi_solve_many", fail)
    with pytest.raises(ValidationError, match="comparison time"):
        quenched_cross_validate(run, t, 50)
