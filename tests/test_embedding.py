import numpy as np
import pytest

from levylab import embedding
from levylab import rng as lrng
from levylab.embedding import (
    doob_bound_check,
    floor_embed,
    gamma_clock,
    poissonize_with,
)
from levylab.errors import RangeError, ValidationError


class TestFloorEmbed:
    def test_examples(self):
        chain = np.array([0.0, 1.0, 2.0])
        rec = floor_embed(chain, 1.0, [0.0, 0.999, 1.5])
        np.testing.assert_array_equal(rec.states[0, :, 0], [0.0, 0.0, 1.0])

    def test_grid_overflow(self):
        with pytest.raises(RangeError):
            floor_embed(np.array([0.0, 1.0]), 0.5, [2.0])


def holding_times(seed, n):
    return lrng.exponential(lrng.stream(seed), n)


class TestPoissonize:
    def test_constant_chain(self):
        rec = poissonize_with(np.full(50, 3.0), 0.1, holding_times(0, 50), np.linspace(0, 2, 9))
        assert np.all(rec.states == 3.0)
        assert rec.times.size == 9

    def test_reproducible(self):
        chain = np.arange(100.0)
        r1 = poissonize_with(chain, 0.1, holding_times(5, 100), np.linspace(0, 4, 11))
        r2 = poissonize_with(chain, 0.1, holding_times(5, 100), np.linspace(0, 4, 11))
        np.testing.assert_array_equal(r1.states, r2.states)

    def test_exhausted_chain_is_refused(self):
        chain = np.arange(5.0)
        with pytest.raises(RangeError, match="not enough chain states"):
            poissonize_with(chain, 0.01, holding_times(1, 5), np.linspace(0, 1, 21))


class TestGammaClock:
    def test_identity_for_unit_holdings(self):
        e = np.ones(100)
        ts = np.array([0.0, 0.37, 1.0, 5.5])
        np.testing.assert_allclose(gamma_clock(e, 0.1, ts), ts, atol=1e-14)

    def test_affine_interpolation(self):
        assert gamma_clock(np.array([2.0]), 1.0, 0.5) == pytest.approx(1.0)

    def test_knot_values_are_partial_sums(self):
        gen = lrng.stream(2)
        e = lrng.exponential(gen, 30)
        eps = 0.25
        for k in (1, 5, 20):
            assert gamma_clock(e, eps, k * eps) == pytest.approx(
                eps * np.sum(e[:k]), rel=1e-12)

    def test_strictly_increasing(self):
        e = lrng.exponential(lrng.stream(3), 200)
        ts = np.linspace(0.0, 1.9, 400)
        vals = gamma_clock(e, 0.01, ts)
        assert np.all(np.diff(vals) > 0)

    def test_insufficient_draws(self):
        with pytest.raises(RangeError):
            gamma_clock(np.ones(3), 1.0, 5.0)


def test_coupling_identity_pathwise():
    # the floor embedding equals the poissonized chain run at the clock time
    gen = lrng.stream(6)
    chain = np.cumsum(gen.standard_normal(500))
    holding = lrng.exponential(lrng.stream(7), 500)
    eps = 0.02
    ts = lrng.stream(8).uniform(0.0, 8.0, size=200)
    gam = gamma_clock(holding, eps, ts)
    left = floor_embed(chain, eps, np.sort(ts))
    right = poissonize_with(chain, eps, holding, gamma_clock(holding, eps, np.sort(ts)))
    np.testing.assert_array_equal(left.states, right.states)


def test_martingale_moments_of_clock():
    # partial sums of centred exponentials: mean 0, second moment k
    trials = 10_000
    k = 50
    gen = lrng.stream(9, namespace=lrng.CLOCKS)
    e = lrng.exponential(gen, (trials, k))
    m_k = e.sum(axis=1) - k
    assert abs(np.mean(m_k)) <= 4 * np.std(m_k, ddof=1) / np.sqrt(trials)
    second = np.mean(m_k ** 2)
    assert second == pytest.approx(k, rel=0.05)


class TestDoobBound:
    def test_bound_value_and_check(self):
        rep = doob_bound_check(0.01, 1.0, 0.5, trials=2000, seed=10)
        assert rep.bound == pytest.approx(4 * 1.01 * 0.01 / 0.25)
        assert rep.ok

    def test_small_eps_small_frequency(self):
        r1 = doob_bound_check(0.05, 1.0, 0.3, trials=2000, seed=11)
        r2 = doob_bound_check(0.002, 1.0, 0.3, trials=2000, seed=11)
        assert r2.bound < r1.bound
        assert r2.frequency <= r1.frequency

    def test_trivial_threshold(self):
        # threshold far above the horizon: the deviation would need a 60-sigma
        # excursion of a twenty-step clock
        rep = doob_bound_check(0.05, 1.0, 3.0, trials=500, seed=12)
        assert rep.frequency == 0.0
        assert rep.ok

    def test_validation(self):
        with pytest.raises(ValidationError):
            doob_bound_check(0.01, 1.0, 0.5, trials=0)

    def test_knots_beyond_the_chunk_cap_are_refused(self, monkeypatch):
        # one trial of ceil(t / eps) knots must fit in a chunk; the run is
        # refused before any draw
        monkeypatch.setattr(embedding, "MAX_CHUNK_ELEMENTS", 50)
        with pytest.raises(ValidationError, match="101 knots per trial"):
            doob_bound_check(0.01, 1.01, 0.5, trials=1)
        assert doob_bound_check(0.02, 1.0, 0.5, trials=3).trials == 3
        with pytest.raises(ValidationError, match="knots per trial"):
            doob_bound_check(1e-320, 1.0, 0.5, trials=1)


EMBEDDINGS = {
    "floor_embed": lambda eps: floor_embed(np.arange(10.0), eps, [0.0, 0.5]),
    "poissonize_with": lambda eps: poissonize_with(np.arange(10.0), eps, np.ones(10),
                                                   [0.0, 0.5]),
    "gamma_clock": lambda eps: gamma_clock(np.ones(10), eps, 0.5),
}


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("name", sorted(EMBEDDINGS))
def test_step_that_is_not_positive_is_a_validation_error(name, eps):
    with pytest.raises(ValidationError, match="eps must be positive"):
        EMBEDDINGS[name](eps)
