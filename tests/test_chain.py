"""The shared chain driver: pinned multi-block output, thread-count invariance
and the non-finite state guard, across every engine path."""

import hashlib
from dataclasses import replace

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
    PathBatch,
    SchemeConfig,
    StableLike,
    resolve_start,
    run_chain,
    run_chains,
)
from levylab.environment import BernoulliPoisson, rwre_simulate
from levylab.errors import SchemeStepError, ValidationError
from levylab.euler import (
    DRIFT_COMPENSATE,
    GAUSSIAN_SURROGATE,
    IncrementPlan,
    euler_chain_simulate,
)
from levylab.potential import (
    GridPotential,
    PiecewiseConstantPotential,
    lattice_kernel,
    phi_eval,
    potential_chain_simulate,
    up_thresholds,
    zero_potential,
)
from levylab.stable import StableField, stable_chain_simulate


def digest(batch):
    return hashlib.sha256(batch.states.tobytes() + batch.xi.tobytes()).hexdigest()


def uniform_start(gen, m):
    return gen.uniform(-1.0, 1.0, size=(m, 1))


TANH_STABLE = StableField(lambda x: 1.0 + 0 * x[:, 0],
                          lambda x: 1.2 + 0.3 * np.tanh(x[:, 0]), 1)
PINNED_CONFIG = SchemeConfig(paths=25, seed=7, grid=np.linspace(0.0, 0.5, 4),
                             block_size=6, escape_radius=2.0)


# sha256 of states + xi recorded with the per-scheme block loop that the
# driver replaced; five blocks, with escapes.
def test_stable_callable_start_multi_block_bytes():
    batch = stable_chain_simulate(TANH_STABLE, uniform_start, 40, 0.5, PINNED_CONFIG)
    assert np.isfinite(batch.xi).sum() == 11
    assert digest(batch) == "d561034da828cd8d748f7a7ebebaa94ff51f9594f4d50bd5d378d3f1906e2553"


# sha256 of states + xi recorded with the np.add.at stable-field sampler, in
# 2-d, where directions are normalized Gaussians: constant alpha, and a
# state-dependent scale and index with and without the Gaussian surrogate.
TANH_STABLE_2D = StableField(lambda x: 1.0 + 0.5 * np.tanh(x[:, 1]) ** 2,
                             lambda x: 1.2 + 0.3 * np.tanh(x[:, 0]), 2)
EULER_2D_CONFIG = SchemeConfig(paths=25, seed=7, grid=np.linspace(0.0, 0.2, 3),
                               block_size=6, escape_radius=4.0)


EULER_2D_CASES = [
    (StableField.constant(1.0, 1.5, 2), Chi2(), DRIFT_COMPENSATE, 4,
     "0cf9b30b2859eb6866c657c67f698caddb79f50f9396b394e11c0ea9db48c12f"),
    (TANH_STABLE_2D, Chi1(), DRIFT_COMPENSATE, 6,
     "81f9109a7d480e545d954df31325f22e53d3d3079912ff0b67bd31fe74a23f43"),
    (TANH_STABLE_2D, Chi2(), GAUSSIAN_SURROGATE, 4,
     "d86b12762617d9df47b3d9a53e53d2729fdee7592c589ef7fd7d8b466a7c48e2"),
]
EULER_2D_IDS = ["constant-alpha", "state-alpha", "state-alpha-surrogate"]


@pytest.mark.parametrize("field, chi, mode, escaped, expected", EULER_2D_CASES,
                         ids=EULER_2D_IDS)
def test_euler_stable_field_2d_bytes(field, chi, mode, escaped, expected):
    batch = euler_chain_simulate(field, chi, [0.0, 0.1], 0.05, 0.2,
                                 IncrementPlan(tau=1e-2, small_jump_mode=mode),
                                 EULER_2D_CONFIG)
    assert np.isfinite(batch.xi).sum() == escaped
    assert digest(batch) == expected


# Tail jumps are drawn and summed a range of paths at a time. Ranges of one
# path holding more jumps than the chunk (1, 3, 7) and ranges of a few paths
# cut inside a block (150) give the same bytes.
@pytest.mark.parametrize("chunk", [1, 3, 7, 150])
@pytest.mark.parametrize("field, chi, mode, escaped, expected", EULER_2D_CASES,
                         ids=EULER_2D_IDS)
def test_euler_stable_field_2d_bytes_in_small_chunks(monkeypatch, chunk, field, chi, mode,
                                                     escaped, expected):
    monkeypatch.setattr(euler, "_JUMP_CHUNK", chunk)
    test_euler_stable_field_2d_bytes(field, chi, mode, escaped, expected)


# A constant field with a stable jump measure runs the frozen engine. sha256
# recorded with the one-shot tail draw and np.add.at over the whole block, in
# 1-d with both small-jump modes at alpha 1.5 and at alpha 1 (where numpy's
# power of an array by the scalar -1 has its own fast path), and in 2-d under
# chi1, with the tail radius at tau and at a min_radius above it.
STABLE_1D_FIELD = ConstantTripletField(LevyTriplet([0.1], [[1.0]], StableLike(1.0, 1.5, 1)))
STABLE_1D_ALPHA1_FIELD = ConstantTripletField(
    LevyTriplet([0.1], [[1.0]], StableLike(1.0, 1.0, 1)))
STABLE_2D_FIELD = ConstantTripletField(
    LevyTriplet([0.1, 0.0], [[1.0, 0.0], [0.0, 0.5]], StableLike(1.0, 1.2, 2)))
STABLE_2D_MIN_RADIUS_FIELD = ConstantTripletField(LevyTriplet(
    [0.1, 0.0], [[1.0, 0.0], [0.0, 0.5]], StableLike(1.0, 1.0, 2, min_radius=0.02)))
CONSTANT_STABLE_CASES = [
    (STABLE_1D_FIELD, Chi2(), 0.0, DRIFT_COMPENSATE, PINNED_CONFIG, 13,
     "f1cfbb9b176b9f9fd807a035b80b790d9608ff42453adc0f275428bd6b4da59d"),
    (STABLE_1D_FIELD, Chi2(), 0.0, GAUSSIAN_SURROGATE, PINNED_CONFIG, 10,
     "1ea3b0bd041e11bd77b8d7a21b676569c9da77bac1f3f92a8f0c43fbe83093c6"),
    (STABLE_1D_ALPHA1_FIELD, Chi2(), 0.0, DRIFT_COMPENSATE, PINNED_CONFIG, 16,
     "54458712be1d10cf345b84512242ec65a949f9b46adcdfccd7de38e25a9bd8e1"),
    (STABLE_1D_ALPHA1_FIELD, Chi2(), 0.0, GAUSSIAN_SURROGATE, PINNED_CONFIG, 16,
     "762265f8d849566a6360cd5fd5bcbc96981e86727b705bdff85952a53787e3f7"),
    (STABLE_2D_FIELD, Chi1(), [0.0, 0.1], DRIFT_COMPENSATE, EULER_2D_CONFIG, 3,
     "f6bf6ab427cbb8ebf5fb7ab2481f26f0e183636be6ecc9581037c2512450ed85"),
    (STABLE_2D_MIN_RADIUS_FIELD, Chi1(), [0.0, 0.1], DRIFT_COMPENSATE, EULER_2D_CONFIG, 12,
     "45989827ab5269e551423763f6bfe844cfd7a54b8accdcbb8fa955330d221f93"),
]
CONSTANT_STABLE_IDS = ["1d", "1d-surrogate", "1d-alpha1", "1d-alpha1-surrogate", "2d-chi1",
                       "2d-chi1-min-radius"]


@pytest.mark.parametrize("field, chi, start, mode, cfg, escaped, expected",
                         CONSTANT_STABLE_CASES, ids=CONSTANT_STABLE_IDS)
def test_euler_constant_stable_field_bytes(field, chi, start, mode, cfg, escaped, expected):
    horizon = float(cfg.grid[-1])
    batch = euler_chain_simulate(field, chi, start, 0.05, horizon,
                                 IncrementPlan(tau=1e-2, small_jump_mode=mode), cfg)
    assert np.isfinite(batch.xi).sum() == escaped
    assert digest(batch) == expected


# The frozen engine's tail in ranges, as the stable field's above: radii from
# the block's generator in one range and from a copy that skips past them in
# several, and ranges cut inside a block.
@pytest.mark.parametrize("chunk", [1, 3, 7, 150])
@pytest.mark.parametrize("field, chi, start, mode, cfg, escaped, expected",
                         CONSTANT_STABLE_CASES, ids=CONSTANT_STABLE_IDS)
def test_euler_constant_stable_field_bytes_in_small_chunks(monkeypatch, chunk, field, chi, start,
                                                           mode, cfg, escaped, expected):
    monkeypatch.setattr(euler, "_JUMP_CHUNK", chunk)
    test_euler_constant_stable_field_bytes(field, chi, start, mode, cfg, escaped, expected)


# A constant field's atoms are jump vectors, so the frozen engine samples it a
# block at a time. sha256 recorded with the jump-vector field that the CLI
# used before ConstantTripletField took over its semantics (2-d atoms, one
# below tau, cemetery mass, chi1 and the Gaussian surrogate).
ATOMS_FIELD = ConstantTripletField(LevyTriplet(
    [0.3, -0.1], [[0.5, 0.1], [0.1, 0.2]],
    Atoms([((0.5, 0.2), 2.0), ((-1.5, 0.0), 0.7), ((0.004, 0.0), 3.0), (DELTA, 0.1)])))
ATOMS_PLAN = IncrementPlan(tau=1e-2, small_jump_mode=GAUSSIAN_SURROGATE)


def test_euler_constant_atoms_field_bytes():
    cfg = SchemeConfig(paths=200, seed=7, grid=np.linspace(0.0, 0.5, 6), block_size=64,
                       escape_radius=3.0)
    batch = euler_chain_simulate(ATOMS_FIELD, Chi1(), [0.2, 0.0], 0.05, 0.5, ATOMS_PLAN, cfg)
    assert np.isfinite(batch.xi).sum() == 17
    assert digest(batch) == "33d6b9653f15ca33ab44211e2ef51cfd46766175df7d4753e6f42c1a30c380bd"


# Atom indices drawn a range at a time, one uniform each, give the same bytes.
@pytest.mark.parametrize("chunk", [1, 3, 7, 150])
def test_euler_constant_atoms_field_bytes_in_small_chunks(monkeypatch, chunk):
    monkeypatch.setattr(euler, "_JUMP_CHUNK", chunk)
    test_euler_constant_atoms_field_bytes()


# The generic two-point step on a Brownian-like grid: cells of eps/10, so
# walks cross several cells each way, and a cliff of slope -150 right of 0.6
# that doubles the psi bracket of the paths that reach it. sha256 recorded
# with each side of a step solved in its own batch.
def test_potential_solver_brownian_grid_bytes():
    knots = np.linspace(-3.0, 3.0, 1201)
    steps = 0.07 * np.random.default_rng(2017).standard_normal(1200)
    values = np.concatenate([[0.0], np.cumsum(steps)]) - 150.0 * np.maximum(knots - 0.6, 0.0)
    cfg = SchemeConfig(paths=24, seed=11, grid=np.linspace(0.0, 0.2, 5), block_size=10)
    batch = potential_chain_simulate(GridPotential(knots, values), 0.3, 0.05, 0.2, cfg)
    assert np.isfinite(batch.xi).sum() == 8
    assert digest(batch) == "fc1ffd9b543e706c8b9a44c75b8e8359763fbb60f0e28072bc4b3cefe3ebd242"


def _rwre(cfg):
    runs = rwre_simulate(BernoulliPoisson(q=1.0, lam=1.0), 0.25, 1, 0.5, 2, cfg)
    return [r.walks for r in runs]


_KNOTS = np.linspace(-3.0, 3.0, 13)

# Each engine path at a few steps; the escape radius is set low enough to bite.
ENGINES = {
    "stable": lambda cfg: stable_chain_simulate(
        TANH_STABLE, uniform_start, 20, 0.5, replace(cfg, escape_radius=3.0)),
    "euler-frozen": lambda cfg: euler_chain_simulate(
        ConstantTripletField(LevyTriplet([0.1], [[1.0]], StableLike(1.0, 1.5, 1))),
        Chi1(), 0.0, 0.1, 0.5, IncrementPlan(tau=1e-2), replace(cfg, escape_radius=1.5)),
    "euler-frozen-atoms": lambda cfg: euler_chain_simulate(
        ATOMS_FIELD, Chi1(), [0.2, 0.0], 0.1, 0.5, ATOMS_PLAN, replace(cfg, escape_radius=2.0)),
    "euler-stable-fast": lambda cfg: euler_chain_simulate(
        StableField.constant(1.0, 1.3), Chi2(), 0.0, 0.05, 0.2,
        IncrementPlan(tau=1e-2), replace(cfg, escape_radius=0.5)),
    "potential-lattice": lambda cfg: potential_chain_simulate(
        zero_potential(0.2, -20, 20), 0.0, 0.2, 0.4, replace(cfg, escape_radius=0.5)),
    "potential-solver": lambda cfg: potential_chain_simulate(
        GridPotential(_KNOTS, 0.5 * _KNOTS), 0.0, 0.25, 0.25, replace(cfg, escape_radius=0.6)),
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


@pytest.mark.parametrize("block_size", [1, 2, 6])
def test_thread_count_does_not_change_rwre_over_environments(block_size):
    # Three environments of six paths make 18, 9 or 3 (environment, block)
    # tasks: more, and fewer, than the threads.
    outputs = []
    for threads in (1, 2, 3, 4):
        cfg = SchemeConfig(paths=6, seed=21, threads=threads, block_size=block_size,
                           escape_radius=0.6)
        runs = rwre_simulate(BernoulliPoisson(q=1.0, lam=1.0), 0.25, 1, 0.5, 3, cfg)
        outputs.append([digest(r.walks) for r in runs])
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    assert len(set(outputs[0])) == 3


def _gaussian_step(x, gen, limit):
    x = x + 0.1 * gen.standard_normal(x.shape)
    return x, np.abs(x[:, 0]) > 1.0, 1


@pytest.mark.parametrize("threads", [1, 3])
def test_one_multi_chain_call_matches_one_call_per_chain(threads):
    # Chains with their own kernels, seeds and emits, on one clock and pool.
    cfg = SchemeConfig(paths=7, seed=4, block_size=3, threads=threads, escape_radius=0.5)
    grid = np.linspace(0.0, 0.36, 5)
    n_steps, dt = 36, 0.01
    capture = np.minimum(np.floor(grid / dt + 1e-12).astype(int), n_steps)
    p_table = np.random.default_rng(8).uniform(0.2, 0.8, 41)
    chains = [
        (0.0, lattice_kernel(np.full(41, 0.5), -20, (-19, 19), 0.1, 0.5), 3,
         lambda sites: sites * 0.1),
        (2.0, lattice_kernel(p_table, -20, (-19, 19), 0.1, 0.5), 9, lambda sites: sites * 0.1),
        (uniform_start, _gaussian_step, 3, None),
    ]
    batches = run_chains(chains, n_steps, capture, dt, grid, 1, cfg)
    alone = [run_chain(init, step, n_steps, capture, dt, grid, 1, cfg, seed=seed, emit=emit)
             for init, step, seed, emit in chains]
    assert [digest(b) for b in batches] == [digest(b) for b in alone]
    assert all(np.isfinite(b.xi).any() for b in batches)


def test_nan_mid_chain_is_a_step_error():
    field = ConstantTripletField(LevyTriplet.unchecked([np.nan], [[1.0]]))
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


def test_euler_2d_start_beyond_the_escape_radius():
    # Each coordinate lies within the radius 1e6; the norm of the first start
    # lies beyond it, so its paths are absorbed at time 0.
    field = ConstantTripletField(LevyTriplet([0.1, 0.0], np.eye(2)))
    cfg = SchemeConfig(paths=5, seed=3, grid=np.linspace(0.0, 0.2, 3))
    beyond = euler_chain_simulate(field, Chi2(), [8e5, 8e5], 0.05, 0.2, IncrementPlan(), cfg)
    assert np.all(beyond.xi == 0.0)
    assert np.all(np.isnan(beyond.states))
    within = euler_chain_simulate(field, Chi2(), [7e5, 7e5], 0.05, 0.2, IncrementPlan(), cfg)
    assert np.all(within.xi == np.inf)
    assert np.all(np.isfinite(within.states))


def test_only_the_starts_beyond_the_radius_are_absorbed():
    # A sampled start puts every other path beyond the radius; the others
    # walk on from their own starts.
    def start(gen, m):
        return np.where(np.arange(m) % 2 == 0, 0.0, 5.0)[:, None]

    def step(x, gen, limit):
        return x + 0.1, np.zeros(x.shape[0], dtype=bool), 1

    cfg = SchemeConfig(paths=6, seed=1, grid=np.array([0.0, 0.2]), escape_radius=2.0)
    batch = run_chain(start, step, 2, np.array([0, 2]), 0.1, cfg.grid, 1, cfg)
    assert batch.xi.tolist() == [np.inf, 0.0] * 3
    np.testing.assert_allclose(batch.states[::2, :, 0], [[0.0, 0.2]] * 3)
    assert np.all(np.isnan(batch.states[1::2]))


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


def one_step_lattice_kernel(p_table, site_lo, keep, eps, radius):
    """Reference lattice walk: one step per call, with the keep window and
    the float escape test applied to the sites themselves."""
    keep_lo, keep_hi = keep

    def step(sites, gen):
        rel = (sites[:, 0] - site_lo).astype(np.intp)
        u = gen.random(rel.size)
        sites = sites + np.where(u < p_table[rel], 1.0, -1.0)[:, None]
        s = sites[:, 0]
        return sites, (s < keep_lo) | (s > keep_hi) | (np.abs(s * eps) > radius)

    return step


def one_step_run(site0, step, n_steps, capture, eps, grid, config):
    """A single-threaded one-step block loop: the oracle for run_chain."""
    out = np.empty((config.paths, grid.size, 1))
    xi = np.full(config.paths, np.inf)
    for lo, hi, idx in lrng.path_blocks(config.paths, config.block_size):
        gen = lrng.stream(config.seed, idx, lrng.PATHS)
        x = resolve_start(site0, 1, hi - lo, gen)
        live = np.arange(hi - lo)
        for k in range(n_steps + 1):
            out[lo:hi][:, capture == k] = x[:, None, :] * eps
            if k == n_steps or not live.size:
                out[lo:hi][:, capture > k] = x[:, None, :] * eps
                break
            x_new, gone = step(x[live], gen)
            x[live] = x_new
            t, j = (k + 1) * (eps * eps), np.searchsorted(capture, k + 1)
            xi[lo + live[gone]] = min(t, grid[j]) if j < grid.size else t
            live = live[~gone]
    batch = PathBatch(grid, out, xi=xi)
    batch.blank_dead()
    return batch


# p at the edges of the threshold map, and the two floats beside 1/2.
SPECIAL_P = [0.0, 5e-324, 2.0 ** -54, 2.0 ** -53, np.nextafter(0.5, 0.0), 0.5,
             np.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53, 1.0]


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.sampled_from(SPECIAL_P), st.floats(0.0, 1.0)))
def test_up_thresholds_compare_as_the_uniforms_do(p):
    # gen.random gives u = W * 2^-53 for the integer W = w >> 11 of a word w;
    # the walk steps up when W is below its threshold.  Check the words on
    # and beside the threshold, and the ends of the range of W.
    t = int(up_thresholds(np.array([p]))[0])
    assert 0 <= t <= 2 ** 53
    for w in {0, t - 1, t, t + 1, 2 ** 53 - 1}:
        if 0 <= w < 2 ** 53:
            assert (w < t) == (w * 2.0 ** -53 < p), (p, w, t)


def _lattice_tables(size, rng):
    """p tables for the lattice walk: uniform ones, flat ones (1/2, an end, or
    a drawn constant), and ones holding exact 0.0 and 1.0."""
    def with_ends():
        table = rng.uniform(0.05, 0.95, size)
        table[rng.random(size) < 0.3] = 0.0
        table[rng.random(size) < 0.3] = 1.0
        return table

    return st.one_of(
        st.builds(lambda: rng.uniform(0.05, 0.95, size)),
        st.sampled_from([0.5, 0.0, 1.0, None]).map(
            lambda p: np.full(size, rng.random() if p is None else p)),
        st.builds(with_ends),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_multi_step_lattice_walk_matches_the_one_step_walk(data):
    eps = data.draw(st.one_of(st.sampled_from([0.1, 0.125, 0.2, 0.3, 0.07]),
                              st.floats(0.01, 0.5)), label="eps")
    site_lo = data.draw(st.integers(-12, 4), label="site_lo")
    size = data.draw(st.integers(3, 30), label="table size")
    table_seed = data.draw(st.integers(0, 2 ** 32), label="table seed")
    site_hi = site_lo + size - 1
    keep_lo = data.draw(st.integers(site_lo, site_hi), label="keep_lo")
    keep_hi = data.draw(st.integers(keep_lo, site_hi), label="keep_hi")
    # Start inside the kept window a few sites from an edge, or one site out.
    site0 = data.draw(st.integers(max(site_lo, keep_lo - 1), min(site_hi, keep_hi + 1)),
                      label="site0")
    k = data.draw(st.integers(0, 12), label="radius sites")
    radius = data.draw(st.sampled_from([
        k * eps, np.nextafter(k * eps, 0.0), np.nextafter(k * eps, np.inf), np.inf]),
        label="radius")
    if radius <= 0:
        radius = np.inf
    n_steps = data.draw(st.integers(1, 40), label="n_steps")
    dt = eps * eps
    grid = np.unique(np.concatenate([[0.0], data.draw(
        st.lists(st.integers(0, 4 * n_steps), max_size=3 * n_steps), label="grid")]))
    grid = grid * (n_steps * dt) / (4 * n_steps)
    capture = np.minimum(np.floor(grid / dt + 1e-12).astype(int), n_steps)
    paths = data.draw(st.integers(1, 12), label="paths")
    cfg = SchemeConfig(paths=paths, seed=data.draw(st.integers(0, 2 ** 32), label="seed"),
                       block_size=data.draw(st.integers(1, paths), label="block_size"),
                       threads=data.draw(st.integers(1, 3), label="threads"))
    keep = (keep_lo, keep_hi)
    p_table = data.draw(_lattice_tables(size, np.random.default_rng(table_seed)),
                        label="p_table")
    # Every path of block 0 starts at site0, and its first step compares
    # these uniforms with the start's entry.  Putting the least of them, or
    # the float above it, there (everywhere, on a flat table) makes a
    # threshold one word off change a step.
    u = lrng.stream(cfg.seed, 0).random(min(cfg.block_size, paths)).min()
    word = data.draw(st.sampled_from([None, u, np.nextafter(u, 1.0)]), label="start entry")
    if word is not None and np.all(p_table == p_table[0]):
        p_table[:] = word
    elif word is not None:
        p_table[site0 - site_lo] = word

    expected = one_step_run(float(site0), one_step_lattice_kernel(
        p_table, site_lo, keep, eps, radius), n_steps, capture, eps, grid, cfg)
    batch = run_chain(float(site0), lattice_kernel(p_table, site_lo, keep, eps, radius),
                      n_steps, capture, dt, grid, 1, cfg, emit=lambda sites: sites * eps)
    np.testing.assert_array_equal(batch.xi, expected.xi)
    np.testing.assert_array_equal(batch.states, expected.states)

