"""The shared chain driver: pinned multi-block output, thread-count invariance
and the non-finite state guard, across every engine path."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab.core import (
    DELTA,
    Atoms,
    Chi1,
    Chi2,
    ConstantTripletField,
    LevyTriplet,
    SchemeConfig,
    StableLike,
    TripletField,
    resolve_start,
)
from levylab.environment import BernoulliPoisson, rwre_simulate
from levylab.errors import SchemeStepError, ValidationError
from levylab.euler import IncrementPlan, euler_chain_simulate, stable_euler_field
from levylab.potential import (
    GridPotential,
    PiecewiseConstantPotential,
    phi_eval,
    potential_chain_simulate,
    zero_potential,
)
from levylab.stable import StableField, stable_chain_simulate


def digest(batch):
    return hashlib.sha256(batch.states.tobytes() + batch.xi.tobytes()).hexdigest()


def uniform_start(gen, m):
    return gen.uniform(-1.0, 1.0, size=(m, 1))


# A state-dependent field with absolute atoms: Euler samples it path by path.
GENERIC_FIELD = TripletField(
    lambda a: LevyTriplet([-a[0]], [[1.0]], Atoms([(a + 0.5, 1.0), (DELTA, 0.2)])), 1)
TANH_STABLE = StableField(lambda x: 1.0 + 0 * x[:, 0],
                          lambda x: 1.2 + 0.3 * np.tanh(x[:, 0]), 1)
PINNED_CONFIG = SchemeConfig(paths=25, seed=7, grid=np.linspace(0.0, 0.5, 4),
                             block_size=6, escape_radius=2.0)


# sha256 of states + xi recorded with the per-scheme block loops that the
# driver replaced; five blocks each, with escapes (and cemetery jumps).
def test_euler_generic_multi_block_bytes():
    batch = euler_chain_simulate(GENERIC_FIELD, Chi2(), 0.0, 0.05, 0.5,
                                 IncrementPlan(tau=1e-2), PINNED_CONFIG)
    assert np.isfinite(batch.xi).sum() == 2
    assert digest(batch) == "e493548c6fda02ae9c265b7fcbd4f0377d9c9db711032ffed79e6abc5bf09e09"


def test_stable_callable_start_multi_block_bytes():
    batch = stable_chain_simulate(TANH_STABLE, uniform_start, 40, 0.5, PINNED_CONFIG)
    assert np.isfinite(batch.xi).sum() == 11
    assert digest(batch) == "d561034da828cd8d748f7a7ebebaa94ff51f9594f4d50bd5d378d3f1906e2553"


def _rwre(cfg):
    runs = rwre_simulate(BernoulliPoisson(q=1.0, lam=1.0), 0.25, 1, 0.5, 2, cfg)
    return [r.walks for r in runs]


_KNOTS = np.linspace(-3.0, 3.0, 13)

# Each engine path at a few steps; the escape radius is set low enough to bite.
ENGINES = {
    "stable": lambda cfg: stable_chain_simulate(
        TANH_STABLE, uniform_start, 20, 0.5, cfg.with_(escape_radius=3.0)),
    "euler-frozen": lambda cfg: euler_chain_simulate(
        ConstantTripletField(LevyTriplet([0.1], [[1.0]], StableLike(1.0, 1.5, 1))),
        Chi1(), 0.0, 0.1, 0.5, IncrementPlan(tau=1e-2), cfg.with_(escape_radius=1.5)),
    "euler-stable-fast": lambda cfg: euler_chain_simulate(
        stable_euler_field(1.0, 1.3), Chi2(), 0.0, 0.05, 0.2, IncrementPlan(tau=1e-2),
        cfg.with_(escape_radius=0.5)),
    "euler-generic": lambda cfg: euler_chain_simulate(
        GENERIC_FIELD, Chi2(), uniform_start, 0.1, 0.5, IncrementPlan(tau=1e-2),
        cfg.with_(escape_radius=2.0)),
    "potential-lattice": lambda cfg: potential_chain_simulate(
        zero_potential(0.2, -20, 20), 0.0, 0.2, 0.4, cfg.with_(escape_radius=0.5)),
    "potential-solver": lambda cfg: potential_chain_simulate(
        GridPotential(_KNOTS, 0.5 * _KNOTS), 0.0, 0.25, 0.25, cfg.with_(escape_radius=0.6)),
    "rwre": _rwre,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_thread_count_does_not_change_output(engine, data):
    paths = data.draw(st.integers(1, 9), label="paths")
    block_size = data.draw(st.integers(1, paths), label="block_size")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    outputs = []
    for threads in (1, 2, 3):
        cfg = SchemeConfig(paths=paths, seed=seed, grid=None, threads=threads,
                           block_size=block_size)
        batches = ENGINES[engine](cfg)
        if not isinstance(batches, list):
            batches = [batches]
        outputs.append([digest(b) for b in batches])
    assert outputs[0] == outputs[1] == outputs[2]


def test_nan_mid_chain_is_a_step_error():
    field = TripletField(lambda a: LevyTriplet.unchecked([np.nan], [[1.0]]), 1)
    cfg = SchemeConfig(paths=4, seed=1, grid=np.array([0.0, 0.2]))
    with pytest.raises(SchemeStepError, match="non-finite"):
        euler_chain_simulate(field, Chi2(), 0.0, 0.1, 0.2, IncrementPlan(), cfg)


def test_absorbed_rows_may_hold_non_finite_states():
    # A huge-scale stable step overflows to inf; the escape test absorbs it.
    fld = StableField.constant(1e308, 0.5, 1)
    cfg = SchemeConfig(paths=8, seed=2, grid=np.array([0.0, 1.0]))
    with np.errstate(over="ignore"):
        batch = stable_chain_simulate(fld, 0.0, 1, 1.0, cfg)
    assert np.all(batch.xi == 1.0)


@pytest.mark.parametrize("start", [np.nan, np.inf])
def test_non_finite_start_is_rejected(start):
    gen = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="finite"):
        resolve_start(start, 1, 3, gen)
    with pytest.raises(ValidationError, match="finite"):
        resolve_start(lambda g, m: np.full(m, start), 1, 3, gen)


def test_phi_walk_ending_on_the_window_edge():
    # Sites +-19 at mesh 0.1 reach the window edge +-2.1 with a rounding-level
    # remainder of walk length; that used to raise "left the potential window".
    V = PiecewiseConstantPotential(0.1, np.zeros(41), -20)
    pos = np.arange(-19, 20) * 0.1
    np.testing.assert_allclose(phi_eval(V, pos, 0.2), 0.04, rtol=1e-12)
    np.testing.assert_allclose(phi_eval(V, pos, -0.2), 0.04, rtol=1e-12)
