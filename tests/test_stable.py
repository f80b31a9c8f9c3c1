import numpy as np
import pytest

from levylab import rng as lrng
from levylab.core import Atoms, Chi2, SchemeConfig, StableLike, TripletField
from levylab.diagnostics import ks_distance
from levylab.errors import ValidationError
from levylab.operators import apply_operator, default_test_functions
from levylab.stable import (
    StableField,
    scheme_triplet_field,
    stable_chain_simulate,
    stable_jump_magnitude,
    stable_tail_probability,
)


def _threshold(fld, a, n):
    """The step threshold (c |S^{d-1}| / (n alpha))^(1/alpha) the scheme cuts at."""
    return scheme_triplet_field(fld, n)(np.asarray(a, dtype=float)).jumps.min_radius


class TestThreshold:
    def test_d1_alpha1(self):
        fld = StableField.constant(1.0, 1.0, 1)
        assert _threshold(fld, [0.0], 2) == pytest.approx(1.0, rel=1e-14)
        assert _threshold(fld, [0.0], 200) == pytest.approx(0.01, rel=1e-14)

    def test_d2(self):
        fld = StableField.constant(1.0, 1.0, 2)
        for n in (3, 17):
            assert _threshold(fld, [0.0, 0.0], n) == pytest.approx(
                2 * np.pi / n, rel=1e-14)


class TestJumpLaw:
    def test_magnitude_closed_form(self):
        assert stable_jump_magnitude(1.0, 1.0, 1, 4, 0.5) == pytest.approx(1.0)

    def test_minimum_jump_at_u_one(self):
        n = 37
        assert stable_jump_magnitude(2.0, 1.3, 1, n, 1.0) == pytest.approx(
            (2.0 * 2.0 / (n * 1.3)) ** (1.0 / 1.3), rel=1e-12)

    def test_tail_probability_formula(self):
        p = stable_tail_probability(1.0, 1.0, 1, 1000, np.array([0.01, 0.1, 1.0]))
        np.testing.assert_allclose(p, [0.2, 0.02, 0.002], rtol=1e-12)
        assert stable_tail_probability(1.0, 1.0, 1, 2, 0.1) == 1.0  # capped

    def test_single_step_magnitude_ks(self):
        # empirical magnitudes against the analytic inverse CDF
        gen = lrng.stream(71, namespace=lrng.SCRATCH)
        n = 50.0
        u = lrng.uniform_open_closed(gen, 40000)
        mags = stable_jump_magnitude(1.0, 1.2, 1, n, u)
        u2 = lrng.uniform_open_closed(gen, 40000)
        ref = stable_jump_magnitude(1.0, 1.2, 1, n, u2)
        stat, p = ks_distance(mags, ref)
        assert p > 0.01

    def test_isotropy_d2(self):
        fld = StableField.constant(1.0, 1.7, 2)
        cfg = SchemeConfig(paths=4000, seed=72, grid=np.array([0.0, 0.05]))
        draws = stable_chain_simulate(fld, [0.0, 0.0], 20.0, 0.05, cfg).states[:, -1, :]
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(mean) <= 4 * se)


class TestChain:
    def test_zero_scale_holds_position(self):
        fld = StableField.constant(0.0, 1.0, 1)
        cfg = SchemeConfig(paths=5, seed=1, grid=np.array([0.0, 0.5, 1.0]))
        batch = stable_chain_simulate(fld, 0.7, 10, 1.0, cfg)
        assert np.all(batch.states == 0.7)

    def test_deterministic_replay(self):
        fld = StableField.constant(1.0, 1.4, 1)
        cfg = SchemeConfig(paths=64, seed=9, grid=np.array([0.0, 1.0]))
        b1 = stable_chain_simulate(fld, 0.0, 100, 1.0, cfg)
        b2 = stable_chain_simulate(fld, 0.0, 100, 1.0, cfg)
        assert np.array_equal(b1.states, b2.states, equal_nan=True)
        np.testing.assert_array_equal(b1.xi, b2.xi)

    def test_thread_count_does_not_change_results(self):
        fld = StableField.constant(1.0, 1.4, 1)
        base = dict(paths=300, seed=4, grid=np.array([0.0, 0.5]), block_size=64)
        b1 = stable_chain_simulate(fld, 0.0, 50, 0.5, SchemeConfig(threads=1, **base))
        b2 = stable_chain_simulate(fld, 0.0, 50, 0.5, SchemeConfig(threads=4, **base))
        assert np.array_equal(b1.states, b2.states, equal_nan=True)

    def test_escape_radius_absorbs(self):
        fld = StableField.constant(5.0, 0.6, 1)  # wild jumps
        cfg = SchemeConfig(paths=200, seed=3, grid=np.array([0.0, 1.0]),
                           escape_radius=5.0)
        batch = stable_chain_simulate(fld, 0.0, 30, 1.0, cfg)
        exploded = np.isfinite(batch.xi)
        assert exploded.any()
        batch_states_dead = batch.states[exploded, -1, :]
        assert np.all(np.isnan(batch_states_dead))

    @pytest.mark.parametrize("n", [3, 49])
    def test_step_count_is_ceil_of_n_times_horizon(self, n):
        # n * T is exact here, while at n = 49 T / (1 / n) rounds up to
        # 49.00000000000001, which would take a 50th step.
        steps = []

        def scale(x):
            steps.append(1)
            return 1.0

        fld = StableField(c=scale, alpha=lambda x: 1.5, dim=1)
        stable_chain_simulate(fld, 0.0, n, 1.0, SchemeConfig(paths=4, seed=2))
        assert len(steps) == n

    def test_state_dependent_field(self):
        fld = StableField(c=lambda x: 1.0 + 0.5 * np.tanh(x[:, 0]),
                          alpha=lambda x: 1.2 + 0.3 * np.sin(x[:, 0]), dim=1)
        cfg = SchemeConfig(paths=50, seed=6, grid=np.array([0.0, 0.2]))
        batch = stable_chain_simulate(fld, 0.0, 40, 0.2, cfg)
        assert batch.states.shape == (50, 2, 1)


@pytest.mark.parametrize("dim", [1, 2])
def test_stable_field_is_a_triplet_field(dim):
    # zero drift and diffusion; the zero measure where c = 0, else StableLike
    fld = StableField(c=lambda x: np.maximum(x[:, 0], 0.0),
                      alpha=lambda x: 1.2 + 0.1 * x[:, 0], dim=dim)
    assert isinstance(fld, TripletField)
    for a in (-1.0, 0.0, 0.5, 2.0):
        point = np.full(dim, a)
        trip = fld(point)
        np.testing.assert_array_equal(trip.drift, np.zeros(dim))
        np.testing.assert_array_equal(trip.gamma, np.zeros((dim, dim)))
        if a <= 0.0:
            assert isinstance(trip.jumps, Atoms)
            assert trip.jumps.dim == dim and trip.jumps.total_mass() == 0.0
        else:
            assert trip.jumps == StableLike(c=a, alpha=1.2 + 0.1 * a, dim=dim)


def test_discrete_generator_consistency():
    # one-step mean growth of a test function against the operator value
    fld = StableField.constant(1.0, 1.2, 1)
    n = 2000.0
    gen = lrng.stream(73, namespace=lrng.SCRATCH)
    a = np.array([0.4])
    draws = 200_000
    u = lrng.uniform_open_closed(gen, draws)
    mags = stable_jump_magnitude(1.0, 1.2, 1, n, u)
    sgn = np.where(gen.random(draws) < 0.5, -1.0, 1.0)
    nxt = (a[0] + sgn * mags)[:, None]
    for f in default_test_functions(1, scales=(2.0, 1.0)):
        vals = f(nxt) - f.value_at(a)
        est = n * float(np.mean(vals))
        se = n * float(np.std(vals, ddof=1)) / np.sqrt(draws)
        ref = apply_operator(fld(a), Chi2(), f, a)
        assert abs(est - ref) <= 4 * se


def test_scheme_triplet_field_matches_truncation():
    fld = StableField.constant(1.0, 1.2, 1)
    n = 100.0
    trunc = scheme_triplet_field(fld, n)(np.array([0.0]))
    assert trunc.jumps.min_radius == pytest.approx((2.0 / (n * 1.2)) ** (1.0 / 1.2))
    # total mass of the normalized step law times n
    assert trunc.jumps.total_mass() == pytest.approx(n, rel=1e-12)


def test_scheme_triplet_field_refuses_an_index_outside_0_2():
    fld = StableField(c=lambda x: np.ones(x.shape[0]),
                      alpha=lambda x: np.full(x.shape[0], 2.5), dim=1)
    with pytest.raises(ValidationError):
        scheme_triplet_field(fld, 10)(np.array([0.0]))


def test_scheme_triplet_field_without_jumps_where_the_scale_vanishes():
    fld = StableField.constant(0.0, 1.2, 1)
    trip = scheme_triplet_field(fld, 100.0)(np.array([0.0]))
    assert isinstance(trip.jumps, Atoms) and trip.jumps.masses.size == 0
