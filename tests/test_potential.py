import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import rng as lrng
from levylab.core import SchemeConfig
from levylab.diagnostics import ks_distance
from levylab.errors import (
    ConfigurationError,
    PotentialOverflowError,
    RangeError,
    SchemeStepError,
    ValidationError,
    WindowEdgeError,
)
from levylab.potential import (
    CallablePotential,
    GridPotential,
    PiecewiseConstantPotential,
    constant_potential,
    exp_integral,
    p_eval_many,
    phi_eval,
    potential_chain_simulate,
    potential_distance,
    psi_solve_many,
    transport_test_function,
    zero_potential,
)
import levylab.potential as pot


def bisection_psi(V, a, eps, side):
    """The psi solver as plain bisection of one side in its own batch:
    bracket doubling from 2 eps, then halving each row to PSI_REL_TOL * eps.
    The oracle the Newton solver must match bit for bit."""
    a = np.asarray(a, dtype=float)
    sgn = 1.0 if side == "up" else -1.0
    target = eps * eps
    hi = np.full(a.shape, 2.0 * eps)
    while True:
        short = phi_eval(V, a, sgn * hi) < target
        if not np.any(short):
            break
        hi[short] *= 2.0
    lo = np.zeros_like(hi)
    while True:
        wide = hi - lo > pot.PSI_REL_TOL * eps
        if not np.any(wide):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        less = phi_eval(V, a, sgn * mid) < target
        lo = np.where(wide & less, mid, lo)
        hi = np.where(wide & ~less, mid, hi)


def check_solver(V, a, eps):
    """psi is bisection's value to the bit, solves phi(a, +-psi) = eps^2,
    gives 0 < p < 1, and phi does not decrease on a dyadic ladder around it.

    The finest rung, 2^-40 psi, is about the width of bisection's last
    bracket, the closest two floats bisection compares can be; closer than
    that, phi may wobble by its rounding error.
    """
    j = np.arange(1.0, 41.0)
    ladder = np.concatenate([1.0 - 2.0 ** -j, [1.0], 1.0 + 2.0 ** -j])
    (psi_up,), (psi_down,) = psis = psi_solve_many(V, [a], eps)
    for side, sgn, psi in (("up", 1.0, psi_up), ("down", -1.0, psi_down)):
        assert psi == bisection_psi(V, [a], eps, side)[0]
        assert abs(phi_eval(V, a, sgn * psi) / eps ** 2 - 1.0) <= 1e-10
        hs = np.sort(psi * ladder)
        inside = (a + sgn * hs >= V.domain[0]) & (a + sgn * hs <= V.domain[1])
        vals = phi_eval(V, np.full(int(inside.sum()), a), sgn * hs[inside])
        assert np.all(np.diff(vals) >= 0.0)
    assert 0.0 < p_eval_many(V, [a], *psis)[0] < 1.0


class TestExpIntegral:
    def test_zero_potential(self):
        V = constant_potential(0.0, -5, 5)
        assert exp_integral(V, 0.0, 1.0, "+") == pytest.approx(1.0, rel=1e-14)
        assert exp_integral(V, 0.5, 0.5, "+") == 0.0

    def test_lattice_cell(self):
        V = PiecewiseConstantPotential(1.0, np.array([0.0, np.log(2.0)]), k_min=0)
        assert exp_integral(V, 1.0, 2.0, "+") == pytest.approx(2.0, rel=1e-13)
        assert exp_integral(V, 1.0, 2.0, "-") == pytest.approx(0.5, rel=1e-13)

    def test_affine_grid(self):
        V = GridPotential([0.0, 1.0], [0.0, 1.0])
        assert exp_integral(V, 0.0, 1.0, "+") == pytest.approx(np.e - 1.0, rel=1e-13)
        assert exp_integral(V, 0.0, 1.0, "-") == pytest.approx(1.0 - np.exp(-1.0),
                                                               rel=1e-13)

    def test_callable_matches_grid(self):
        Vc = CallablePotential(lambda x: np.sin(x), domain=(-4, 4))
        from scipy.integrate import quad
        oracle, _ = quad(lambda x: np.exp(np.sin(x)), -1, 2, epsabs=1e-13)
        assert exp_integral(Vc, -1.0, 2.0, "+") == pytest.approx(oracle, rel=1e-10)

    def test_domain_guard(self):
        V = zero_potential(0.5, -4, 4)
        with pytest.raises(RangeError):
            exp_integral(V, 0.0, 100.0, "+")

    def test_large_shift_log_space(self):
        # |V| = 250 would overflow naive exp integration of e^{-V} e^{V} products
        V = constant_potential(250.0, -2, 2, mesh=1.0)
        assert exp_integral(V, 0.0, 1.0, "-") == pytest.approx(np.exp(-250.0), rel=1e-12)
        assert phi_eval(V, 0.0, 0.25) == pytest.approx(0.0625, rel=1e-12)

    def test_window_overflow_raises(self):
        # The queried span [-1, 1] itself oscillates by 800, beyond double precision.
        V = GridPotential([-1.0, 1.0], [-400.0, 400.0])
        with pytest.raises(PotentialOverflowError):
            phi_eval(V, -1.0, 2.0)

    @pytest.mark.parametrize("V", [GridPotential([-1.0, 1.0], [-400.0, 400.0]),
                                   PiecewiseConstantPotential(1.0, [800.0, 0.0], 0)],
                             ids=["grid", "lattice"])
    def test_window_overflow_raises_on_every_call(self, V):
        # Only a span whose own oscillation overflows is refused, on every call;
        # the cell table builds, and a short span of the same potential is finite.
        V.cells()
        queries = (lambda: phi_eval(V, -1.0, 2.0), lambda: exp_integral(V, -1.0, 1.0))
        for query in queries * 2:
            with pytest.raises(PotentialOverflowError):
                query()
        assert 0.0 < phi_eval(V, 0.0, 0.5) < np.inf
        assert 0.0 < exp_integral(V, 0.0, 0.5) < np.inf


class TestPhi:
    def test_constant_potential_square(self):
        V = constant_potential(1.7, -5, 5)
        for a in (-2.0, 0.0, 1.3):
            for h in (0.3, -0.3, 1.0):
                assert phi_eval(V, a, h) == pytest.approx(h * h, rel=1e-12)

    def test_zero_at_zero_step(self):
        V = zero_potential(1.0, -3, 3)
        assert phi_eval(V, 0.0, 0.0) == 0.0

    def test_two_dimensional_inputs_broadcast(self):
        V = GridPotential([-2.0, 2.0], [0.0, 1.0])
        h = np.array([[0.1, 0.2], [0.3, 0.4]])
        vals = phi_eval(V, np.zeros((2, 2)), h)
        assert vals.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            assert vals[idx] == phi_eval(V, 0.0, float(h[idx]))

    def test_monotone_in_step(self):
        V = GridPotential(np.linspace(-3, 3, 13), np.sin(np.linspace(-3, 3, 13)))
        hs = np.linspace(0.05, 1.5, 25)
        vals = phi_eval(V, np.zeros_like(hs), hs)
        assert np.all(np.diff(vals) > 0)
        vals_down = phi_eval(V, np.zeros_like(hs), -hs)
        assert np.all(np.diff(vals_down) > 0)

    def test_matches_nested_quadrature(self):
        V = GridPotential(np.linspace(-2, 2, 9), [0.3, -0.1, 0.4, 0.0, -0.5,
                                                  0.2, 0.1, -0.3, 0.6])
        from scipy.integrate import quad
        a, h = -0.4, 0.9
        # Nested quad, each level split at the grid knots inside its span.
        knots = V.knots[(V.knots > a) & (V.knots < a + h)]

        def ex(x):
            return float(np.exp(V.value(np.array([x]))[0]))

        def emx(x):
            return float(np.exp(-V.value(np.array([x]))[0]))

        def inner(b):
            return quad(emx, a, b, points=knots[knots < b], epsabs=1e-14, epsrel=1e-13)[0]

        oracle, err = quad(lambda b: ex(b) * inner(b), a, a + h, points=knots,
                           epsabs=1e-12, epsrel=1e-11)
        assert phi_eval(V, a, h) == pytest.approx(2 * oracle, abs=10 * err + 1e-12)


class TestPsi:
    def test_constant_potential(self):
        V = constant_potential(0.0, -5, 5)
        for psi in psi_solve_many(V, [0.0], 0.1):
            assert psi[0] == pytest.approx(0.1, abs=1e-13)

    def test_lattice_alignment(self):
        q = np.array([0.4, -0.3, 0.8, 0.2, -0.6])
        V = PiecewiseConstantPotential(0.05, q, k_min=-2)
        for k in (-1, 0, 1):
            a = 0.05 * k
            for psi in psi_solve_many(V, [a], 0.05):
                assert psi[0] == pytest.approx(0.05, abs=1e-13)

    def test_shrinks_with_eps(self):
        V = GridPotential(np.linspace(-2, 2, 9), np.cos(np.linspace(-2, 2, 9)))
        psis = [psi_solve_many(V, [0.2], e)[0][0] for e in (0.2, 0.1, 0.05, 0.025)]
        assert all(a > b for a, b in zip(psis, psis[1:]))

    def test_round_trip_identity(self):
        V = GridPotential(np.linspace(-2, 2, 17),
                          0.7 * np.sin(3 * np.linspace(-2, 2, 17)))
        eps = 0.05
        for a in (-0.8, 0.0, 0.33):
            for sgn, (psi,) in zip((1.0, -1.0), psi_solve_many(V, [a], eps)):
                assert phi_eval(V, a, sgn * psi) == pytest.approx(
                    eps * eps, abs=1e-10 * eps * eps)

    @pytest.mark.parametrize("side", ["up", "down"])
    def test_each_row_is_bisected_alone(self, side):
        # Going up from 2 and 3, the steep downhill doubles the bracket; the
        # rows at -2 and -1 must still stop halving at their own width.
        x = np.linspace(-5.0, 5.0, 8001)
        V = GridPotential(x, np.where(x > 1.0, -150.0 * (x - 1.0), 0.0))
        a = np.array([-2.0, -1.0, 2.0, 3.0])
        batched = psi_solve_many(V, a, 0.05)[0 if side == "up" else 1]
        alone = [bisection_psi(V, [point], 0.05, side)[0] for point in a]
        np.testing.assert_array_equal(batched, alone)

    def test_domain_edge_error(self):
        # bracket expansion that would leave the window surfaces a range error
        V = GridPotential([-1.0, 1.0], [0.0, -30.0])
        with pytest.raises(RangeError):
            psi_solve_many(V, [0.9], 0.5)

    def test_bracket_expands_beyond_two_eps(self):
        # a steep downhill makes the upward step exceed twice the parameter,
        # which only the lattice-aligned case rules out
        V = GridPotential([-0.25, 2.0], [0.0, -450.0])  # slope -200
        eps = 0.05
        psi = psi_solve_many(V, [0.0], eps)[0][0]
        assert psi > 2 * eps
        assert phi_eval(V, 0.0, psi) == pytest.approx(eps * eps, rel=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(inner=st.lists(st.tuples(st.floats(-5.5, 5.5), st.floats(-2.0, 2.0)),
                          max_size=10, unique_by=lambda knot: knot[0]),
           ends=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           a=st.floats(-1.5, 1.5), eps=st.floats(0.01, 0.2))
    def test_solver_invariants_on_random_grids(self, inner, ends, a, eps):
        # an oscillation of at most 4 keeps psi below eps e^2, so every
        # bracket and ladder stays inside [-6, 6]
        inner = sorted(inner)
        knots = [-6.0] + [x for x, _ in inner] + [6.0]
        values = [ends[0]] + [v for _, v in inner] + [ends[1]]
        check_solver(GridPotential(knots, values), a, eps)

    @pytest.mark.parametrize("wrong_root", ["first-guess", "one-bracket-off"])
    def test_uncertified_roots_fall_back_to_bisection(self, monkeypatch, wrong_root):
        # flat left of 0 (psi = eps), sloped right of it
        V = GridPotential([-3.0, 0.0, 3.0], [0.0, 0.0, 2.4])
        a = np.concatenate([np.linspace(-2.0, -0.5, 5), np.linspace(0.5, 2.0, 6)])
        if wrong_root == "first-guess":
            monkeypatch.setattr(pot, "NEWTON_MAX_ITER", 0)
        else:
            newton = pot._psi_newton
            monkeypatch.setattr(pot, "_psi_newton",
                                lambda *args: newton(*args) * (1.0 + 1e-12))
        for side, psi in zip(("up", "down"), psi_solve_many(V, a, 0.05)):
            np.testing.assert_array_equal(psi, bisection_psi(V, a, 0.05, side))


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mesh=st.floats(0.02, 0.5), origin=st.floats(0.0, 1.0), size=st.integers(8, 60),
           scale=st.floats(0.0, 2.0), q_seed=st.integers(0, 2 ** 32),
           start=st.floats(0.0, 1.0), n_steps=st.integers(1, 25))
    def test_exact_lattice_reduction_at_aligned_sites(self, mesh, origin, size, scale,
                                                      q_seed, start, n_steps):
        # At lattice sites of a potential aligned with eps, psi_up = psi_down
        # = eps, and the up-probability is 1 / (e^{q_k} + 1).
        q = scale * np.random.default_rng(q_seed).standard_normal(size)
        k_min = 1 - int(origin * size)
        V = PiecewiseConstantPotential(mesh, q, k_min)
        site0 = V.k_min - 1 + 2 + int(start * (V.k_max - (V.k_min - 1) - 3))
        tables = pot._lattice_tables(V, mesh, site0 * mesh, n_steps)
        assert tables is not None
        assert tables[0] == site0
        site_lo, p_table = tables[1:]
        pos = (site_lo + np.arange(p_table.size)) * mesh
        psiu, psid = psi_solve_many(V, pos, mesh)
        assert np.max(np.abs(psiu - mesh)) <= 1e-9 * mesh
        assert np.max(np.abs(psid - mesh)) <= 1e-9 * mesh
        assert np.all((p_table > 0.0) & (p_table < 1.0))
        exact = 1.0 / (np.exp(q[site_lo + np.arange(p_table.size) - k_min]) + 1.0)
        np.testing.assert_array_equal(p_table, exact)
        np.testing.assert_allclose(p_eval_many(V, pos, np.full(pos.size, mesh),
                                               np.full(pos.size, mesh)), exact, rtol=1e-13)
        np.testing.assert_allclose(p_eval_many(V, pos, psiu, psid), exact, rtol=1e-9)

    def test_zero_lattice_table_is_exactly_one_half(self):
        # Bisection's psi may differ from eps by ulps; the closed form cannot.
        tables = pot._lattice_tables(zero_potential(0.05, -300, 300), 0.05, 0.0, 298)
        assert tables is not None and tables[2].size == 599
        assert np.all(tables[2] == 0.5)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_lattice_sum_leaves_infinite_cells(self):
        q = np.zeros(41)
        q[21:25] = 1e308
        V = PiecewiseConstantPotential(0.05, q, k_min=-20)
        assert np.all(V.cells().left_value[23:] == np.inf)
        _, site_lo, p_table = pot._lattice_tables(V, 0.05, 0.0, 10)
        # sites 0..5: from sites 1..4 a walk never steps up into the infinite cells
        np.testing.assert_array_equal(p_table[-site_lo:6 - site_lo], [0.5, 0, 0, 0, 0, 0.5])


# Potentials whose steps cross several cells: a Brownian-like grid with a
# cliff that doubles the up bracket, a lattice off the eps mesh, and a
# callable whose walks go through Chebyshev cells.
_GRID_X = np.linspace(-3.0, 3.0, 1201)
JOINT_POTENTIALS = {
    "grid": GridPotential(_GRID_X, np.concatenate(
        [[0.0], np.cumsum(0.07 * np.random.default_rng(2017).standard_normal(1200))])
        - 150.0 * np.maximum(_GRID_X - 0.6, 0.0)),
    "lattice": PiecewiseConstantPotential(
        0.037, 0.8 * np.random.default_rng(9).standard_normal(161), -80),
    "callable": CallablePotential(lambda x: 0.3 * np.sin(2.0 * x) + 0.1 * x,
                                  domain=(-3.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(JOINT_POTENTIALS))
def test_joint_batches_match_one_sided_batches(name):
    # Both sides of psi, phi on mixed signs and p's two masses are walked in
    # one batch; each row must keep the bits it has in a batch of one sign.
    V = JOINT_POTENTIALS[name]
    eps = 0.05
    a = np.linspace(-1.3, 1.1, 25)
    psi_up, psi_down = psi_solve_many(V, a, eps)
    np.testing.assert_array_equal(psi_up, bisection_psi(V, a, eps, "up"))
    np.testing.assert_array_equal(psi_down, bisection_psi(V, a, eps, "down"))
    if name == "grid":
        assert np.max(psi_up) > 2.0 * eps  # the cliff doubled a bracket

    h = np.where(np.arange(a.size) % 3 == 1, -1.0, 1.0) * np.linspace(0.05, 0.4, a.size)
    mixed = phi_eval(V, a, h)
    for rows in (h > 0, h < 0):
        np.testing.assert_array_equal(mixed[rows], phi_eval(V, a[rows], h[rows]))

    cells = V.cells()
    down = pot._walk(cells, a, -psi_down)[1]
    up = pot._walk(cells, a, psi_up)[1]
    np.testing.assert_array_equal(p_eval_many(V, a, psi_up, psi_down), down / (down + up))


@pytest.mark.parametrize("name", ["grid", "lattice"])
def test_closed_form_walks_do_not_depend_on_the_row_chunk(name, monkeypatch):
    V = JOINT_POTENTIALS[name]
    a = np.linspace(-1.3, 1.1, 25)
    h = np.where(np.arange(a.size) % 3 == 1, -1.0, 1.0) * np.linspace(0.05, 0.4, a.size)
    whole = phi_eval(V, a, h), psi_solve_many(V, a, 0.05)
    monkeypatch.setattr(pot, "WALK_CHUNK", 4)
    chunked = phi_eval(V, a, h), psi_solve_many(V, a, 0.05)
    np.testing.assert_array_equal(whole[0], chunked[0])
    np.testing.assert_array_equal(whole[1], chunked[1])


@pytest.mark.parametrize("query", [
    lambda V: phi_eval(V, np.empty(0), np.empty(0)),
    lambda V: psi_solve_many(V, np.empty(0), 0.05),
    lambda V: p_eval_many(V, np.empty(0), np.empty(0), np.empty(0)),
], ids=["phi", "psi", "p"])
def test_empty_batches_give_empty_arrays(query):
    out = query(JOINT_POTENTIALS["grid"])
    for arr in (out if isinstance(out, tuple) else (out,)):
        assert isinstance(arr, np.ndarray) and arr.shape == (0,)


class TestChebyshevCells:
    """Callable potentials integrate through smooth Chebyshev cells of the one walk."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(amp=st.floats(-2.0, 2.0), freq=st.floats(0.2, 5.0), phase=st.floats(0.0, 6.3),
           tilt=st.floats(-1.0, 1.0), a=st.floats(-1.5, 1.5), eps=st.floats(0.01, 0.2))
    def test_solver_invariants_on_smooth_callables(self, amp, freq, phase, tilt, a, eps):
        V = CallablePotential(lambda x: amp * np.sin(freq * x + phase) + tilt * x,
                              domain=(-3.0, 3.0))
        check_solver(V, a, eps)

    def test_linear_callable_matches_two_knot_grid(self):
        Vc = CallablePotential(lambda x: 0.7 * x - 0.2, domain=(-3.0, 3.0))
        Vg = GridPotential([-3.0, 3.0], [-2.3, 1.9])
        a = np.linspace(-1.5, 1.5, 7)
        for h in (0.3, -0.4, 1.1):
            np.testing.assert_allclose(phi_eval(Vc, a, h), phi_eval(Vg, a, h), rtol=1e-13)
        psi_c, psi_g = (psi_solve_many(V, a, 0.05) for V in (Vc, Vg))
        for k in (0, 1):
            np.testing.assert_allclose(psi_c[k], psi_g[k], rtol=1e-13)
        np.testing.assert_allclose(p_eval_many(Vc, a, *psi_c), p_eval_many(Vg, a, *psi_g),
                                   rtol=1e-13)

    @pytest.mark.parametrize("a, h", [(-0.4, 0.9), (0.9, -1.1), (0.3, 0.5), (0.25, -0.6)])
    def test_kinked_callable_matches_split_quadrature(self, a, h):
        from scipy.integrate import quad
        V = CallablePotential(lambda x: 2.0 * np.abs(x - 0.3), domain=(-4.0, 4.0))
        kink = [0.3] if min(a, a + h) < 0.3 < max(a, a + h) else None

        def inner(b):
            split = kink if kink and min(a, b) < 0.3 < max(a, b) else None
            return quad(lambda c: np.exp(-2.0 * abs(c - 0.3)), a, b, points=split,
                        epsabs=1e-15, epsrel=1e-13)[0]

        oracle = 2.0 * quad(lambda b: np.exp(2.0 * abs(b - 0.3)) * inner(b), a, a + h,
                            points=kink, epsabs=1e-15, epsrel=1e-13)[0]
        assert phi_eval(V, a, h) == pytest.approx(oracle, rel=1e-12)

    def test_non_finite_potential_is_a_validation_error(self):
        V = CallablePotential(lambda x: np.where(x < 0.2, np.nan, x), domain=(-1.0, 1.0))
        with pytest.raises(ValidationError, match="not finite"):
            phi_eval(V, 0.5, 0.1)

    def test_infinite_domain_is_a_validation_error(self):
        for domain in ((-np.inf, np.inf), (0.0, np.inf), (1.0, 1.0)):
            with pytest.raises(ValidationError, match="finite domain"):
                CallablePotential(np.sin, domain=domain)

    def test_square_root_cusp_builds_quickly(self):
        # Rounding noise near the cusp must end the splitting, not the cell cap.
        V = CallablePotential(lambda x: np.sqrt(np.abs(x - 0.3)), domain=(-4.0, 4.0))
        t0 = time.perf_counter()
        V.cells()
        assert time.perf_counter() - t0 < 0.5
        assert phi_eval(V, 0.2, 0.2) > 0.0

    def test_window_overflow_raises_on_every_call(self):
        # As for closed-form cells: the span [-1, 1] oscillates by 800, [0, 0.5] by 200.
        V = CallablePotential(lambda x: 400.0 * x, domain=(-1.0, 1.0))
        V.cells()
        queries = (lambda: phi_eval(V, -1.0, 2.0), lambda: exp_integral(V, -1.0, 1.0))
        for query in queries * 2:
            with pytest.raises(PotentialOverflowError):
                query()
        assert 0.0 < phi_eval(V, 0.0, 0.5) < np.inf
        assert 0.0 < exp_integral(V, 0.0, 0.5) < np.inf


    def test_distance_and_transport_ignore_the_cells_of_a_wide_callable(self):
        # Neither function integrates e^{+-V} by the walk, so neither builds
        # the cells of x^2 over its wide domain.
        V = CallablePotential(lambda x: x * x, domain=(-25.0, 25.0))
        W = CallablePotential(lambda x: x * x + np.log(2.0), domain=(-25.0, 25.0))
        # int_{-1}^{1} max(e^{x^2}, e^{-x^2} / 2) dx = sqrt(pi) erfi(1)
        assert potential_distance(V, W, 1.0) == pytest.approx(2.925303491814362,
                                                             rel=1e-8)
        f = transport_test_function(V, 1.0, 0.0, lambda x: np.zeros_like(x), (-1, 1))
        assert f(0.5) == pytest.approx(1.0, abs=1e-12)


class TestP:
    def test_symmetric(self):
        V = constant_potential(0.3, -5, 5)
        assert p_eval_many(V, [0.0], [0.2], [0.2])[0] == pytest.approx(0.5, abs=1e-14)

    def test_lattice_closed_form(self):
        q = np.array([0.4, -0.3, 0.8, 0.2, -0.6])
        V = PiecewiseConstantPotential(0.05, q, k_min=-2)
        for k in (-1, 0, 1):
            a = 0.05 * k
            qk = float(V.value(np.array([a]))[0] - V.value(np.array([a - 0.05]))[0])
            p = p_eval_many(V, [a], [0.05], [0.05])[0]
            assert p == pytest.approx(1.0 / (1.0 + np.exp(qk)), abs=1e-13)

    def test_large_increment_pushes_p_to_zero(self):
        V = PiecewiseConstantPotential(1.0, np.array([0.0, 30.0]), k_min=0)
        p = p_eval_many(V, [1.0], [1.0], [1.0])[0]
        assert p == pytest.approx(1.0 / (1.0 + np.exp(30.0)), rel=1e-10)
        assert p < 1e-12


class TestChain:
    def test_deterministic_replay(self):
        V = zero_potential(0.1, -300, 300)
        cfg = SchemeConfig(paths=50, seed=5, grid=np.array([0.0, 0.5, 1.0]))
        b1 = potential_chain_simulate(V, 0.0, 0.1, 1.0, cfg)
        b2 = potential_chain_simulate(V, 0.0, 0.1, 1.0, cfg)
        assert np.array_equal(b1.states, b2.states, equal_nan=True)

    def test_lattice_matches_generic_path(self, monkeypatch):
        # the closed-form lattice walk and the generic solver walk coincide
        # pathwise when fed the same streams
        import levylab.potential as pot

        q = lrng.stream(31, namespace=lrng.SCRATCH).normal(0, 0.3, size=161)
        eps = 0.1
        V = PiecewiseConstantPotential(eps, q, k_min=-80)
        grid = np.array([0.0, 0.25])
        cfg = SchemeConfig(paths=2000, seed=6, grid=grid)
        fast = potential_chain_simulate(V, 0.0, eps, 0.25, cfg)
        monkeypatch.setattr(pot, "_lattice_tables", lambda *a, **k: None)
        slow = potential_chain_simulate(V, 0.0, eps, 0.25, cfg)
        np.testing.assert_allclose(slow.states, fast.states, atol=1e-9)

    def test_off_lattice_small_scale(self):
        # generic solver path from an off-lattice start: runs, stays finite,
        # and spreads like a diffusion (scale ~ sqrt(T))
        V = GridPotential(np.linspace(-4, 4, 33), 0.4 * np.sin(np.linspace(-4, 4, 33)))
        cfg = SchemeConfig(paths=200, seed=8, grid=np.array([0.0, 0.09]))
        batch = potential_chain_simulate(V, 0.137, 0.03, 0.09, cfg)
        m, _ = batch.marginal(0.09)
        assert np.isfinite(m).all()
        spread = np.std(m - 0.137)
        assert 0.1 < spread < 0.9  # sqrt(0.09) = 0.3 up to potential tilt

    def test_linear_potential_drifted_diffusion_law(self):
        # V(x) = x gives the generator (1/2) f'' - (1/2) f', i.e. a Brownian
        # motion with drift -1/2: marginal at t is N(-t/2, t); this drives
        # the generic solver path since the steps are asymmetric
        V = GridPotential([-6.0, 6.0], [-6.0, 6.0])
        eps = 0.02
        t_end = 0.25
        cfg = SchemeConfig(paths=2000, seed=10, grid=np.array([0.0, t_end]))
        batch = potential_chain_simulate(V, 0.0, eps, t_end, cfg)
        m, _ = batch.marginal(t_end)
        gen = lrng.stream(97, namespace=lrng.SCRATCH)
        ref = -0.5 * t_end + np.sqrt(t_end) * gen.standard_normal(2000)
        stat, p = ks_distance(m[:, 0], ref)
        assert p > 0.005

    def test_window_exit_absorbs(self):
        V = zero_potential(0.1, -5, 5)  # tiny window
        cfg = SchemeConfig(paths=100, seed=9, grid=np.array([0.0, 4.0]))
        batch = potential_chain_simulate(V, 0.0, 0.1, 4.0, cfg)
        assert np.isfinite(batch.xi).any()

    @pytest.mark.parametrize("V", [zero_potential(0.05, -12, 12),
                                   GridPotential([-0.6, 0.6], [0.0, 0.0])],
                                 ids=["lattice", "grid"])
    def test_window_edge_raises_when_not_absorbing(self, V):
        cfg = SchemeConfig(paths=20, seed=9, grid=np.array([0.0, 0.5]))
        batch = potential_chain_simulate(V, 0.0, 0.05, 0.5, cfg)
        assert np.isfinite(batch.xi).any()
        # a callable's window only cuts it down to size, so its edge is an error
        Vc = CallablePotential(lambda x: np.zeros_like(x), domain=V.domain)
        with pytest.raises(WindowEdgeError, match="edge of the potential window"):
            potential_chain_simulate(Vc, 0.0, 0.05, 0.5, cfg)

    @pytest.mark.parametrize("V", [zero_potential(0.1, -5, 5),
                                   GridPotential([-1.0, 1.0], [0.0, 0.5])],
                                 ids=["lattice", "grid"])
    def test_start_outside_the_domain_is_rejected(self, V):
        cfg = SchemeConfig(paths=4, seed=1)
        for start in (V.domain[0] - 0.05, V.domain[1] + 1.0, np.nan):
            with pytest.raises(ValidationError, match="outside the potential domain"):
                potential_chain_simulate(V, start, 0.1, 0.05, cfg)

    def test_lattice_start_outside_the_verified_sites(self, monkeypatch):
        # Site -5 lies in the window but its psi bracket does not, so it has
        # no verified up-probability; the lattice table used to be read at
        # index -1 there.  The generic solver takes over and fails cleanly.
        import levylab.potential as pot

        V = zero_potential(0.1, -5, 5)
        monkeypatch.setattr(pot, "lattice_kernel",
                            lambda *a, **k: pytest.fail("lattice table used"))
        with pytest.raises(SchemeStepError, match="left the potential window"):
            potential_chain_simulate(V, -0.5, 0.1, 0.05, SchemeConfig(paths=4, seed=1))

    @pytest.mark.parametrize("eps, start", [
        (0.05, 0.0),                                   # mesh 0.1 against step 0.05
        (0.1, lambda rng, m: np.zeros((m, 1))),        # a start sampler
        (0.1, 0.05),                                   # a start between two sites
    ], ids=["mesh-mismatch", "callable-start", "unaligned-start"])
    def test_lattice_reduction_falls_back_to_the_solver(self, monkeypatch, eps, start):
        V = zero_potential(0.1, -40, 40)
        assert pot._lattice_tables(V, eps, start, 4) is None
        monkeypatch.setattr(pot, "lattice_kernel",
                            lambda *a, **k: pytest.fail("lattice table used"))
        cfg = SchemeConfig(paths=8, seed=2, grid=np.array([0.0, 4 * eps * eps]))
        batch = potential_chain_simulate(V, start, eps, 4 * eps * eps, cfg)
        assert np.all(np.isfinite(batch.states)) and not np.isfinite(batch.xi).any()


class TestTransport:
    def test_line(self):
        V = constant_potential(0.0, -3, 3)
        f = transport_test_function(V, 1.0, 2.0, lambda x: np.zeros_like(x), (-1, 1))
        assert f(0.5) == pytest.approx(2.0, abs=1e-12)
        assert f(-0.25) == pytest.approx(0.5, abs=1e-12)

    def test_square(self):
        V = constant_potential(0.0, -3, 3)
        f = transport_test_function(V, 0.0, 0.0, lambda x: np.ones_like(x), (-1, 1))
        for a in (-0.6, 0.3, 0.9):
            assert f(a) == pytest.approx(a * a, abs=1e-6)

    def test_constant_when_source_free(self):
        V = GridPotential(np.linspace(-2, 2, 9), np.cos(np.linspace(-2, 2, 9)))
        f = transport_test_function(V, 3.5, 0.0, lambda x: np.zeros_like(x), (-1.5, 1.5))
        xs = np.linspace(-1.5, 1.5, 11)
        np.testing.assert_allclose(f(xs), 3.5, atol=1e-12)

    def test_operator_identity_finite_difference(self):
        # (1/2) e^V (e^{-V} f')' recovered by central differences equals g on
        # a smooth potential (the identity degrades at grid kinks)
        V = CallablePotential(lambda x: 0.5 * np.sin(x), domain=(-3, 3))
        g = lambda x: np.cos(x)
        f = transport_test_function(V, 0.2, -0.3, g, (-1.5, 1.5), resolution=2 ** 14 + 1)
        h = 2e-3  # must stay above the interpolation-node spacing
        xs = np.linspace(-1.0, 1.0, 41)
        vx = V.value(xs)
        fp_right = (f(xs + h) - f(xs)) / h
        fp_left = (f(xs) - f(xs - h)) / h
        emv_right = np.exp(-V.value(xs + h / 2))
        emv_left = np.exp(-V.value(xs - h / 2))
        lv = 0.5 * np.exp(vx) * (emv_right * fp_right - emv_left * fp_left) / h
        assert np.max(np.abs(lv - g(xs))) < 5e-3


class TestPotentialDistance:
    def test_identical(self):
        V = GridPotential([-1.0, 1.0], [0.2, 0.4])
        assert potential_distance(V, V, 1.0) == 0.0

    def test_constant_shift(self):
        V = constant_potential(0.0, -2, 2)
        W = constant_potential(np.log(2.0), -2, 2)
        assert potential_distance(V, W, 1.0) == pytest.approx(2.0, rel=1e-10)

    def test_sup_norm_convergence(self):
        V = GridPotential(np.linspace(-2, 2, 9), np.sin(np.linspace(-2, 2, 9)))
        dists = []
        for delta in (0.5, 0.1, 0.02):
            W = GridPotential(V.knots, V.values + delta)
            dists.append(potential_distance(V, W, 1.5))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.2


_V_NAN = GridPotential([-1.0, 1.0], [0.2, 0.4])
_W_NAN = GridPotential([-1.0, 1.0], [0.0, 0.4])


@pytest.mark.parametrize("query", [
    lambda: phi_eval(_V_NAN, np.nan, 0.5),
    lambda: phi_eval(_V_NAN, 0.0, np.nan),
    lambda: exp_integral(_V_NAN, np.nan, 0.5),
    lambda: potential_distance(_V_NAN, _W_NAN, np.nan),
], ids=["phi-point", "phi-step", "exp-integral", "distance-window"])
def test_nan_window_query_is_a_range_error(query):
    with pytest.raises(RangeError):
        query()


def test_cell_walk_beyond_its_budget_is_a_configuration_error(monkeypatch):
    # steps of about 0.2 cross about 20 cells of width 0.01
    monkeypatch.setattr(pot, "MAX_WALK_CELLS", 8)
    knots = np.linspace(-2.0, 2.0, 401)
    V = GridPotential(knots, knots / 10)
    with pytest.raises(ConfigurationError, match="more than 8 cells"):
        potential_chain_simulate(V, 0.0, 0.2, 0.08, SchemeConfig(paths=5, seed=1))
