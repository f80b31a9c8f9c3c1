import math

import numpy as np
import pytest

from levylab.core import (
    DELTA,
    Atoms,
    Chi1,
    Chi2,
    ConstantTripletField,
    CustomChi,
    LevyTriplet,
    PathBatch,
    SchemeConfig,
    StableLike,
    TripletField,
    jump_measure_from_config,
    sphere_surface_area,
    triplet_from_config,
    validate_hypotheses,
)
from levylab.errors import ValidationError


def test_sphere_surface_values():
    assert sphere_surface_area(1) == pytest.approx(2.0, rel=1e-14)
    assert sphere_surface_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_surface_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    # log-gamma path keeps large dimensions finite
    assert 0 < sphere_surface_area(200) < math.inf


# sphere_surface_area(d) for d = 1..10 through scipy's gammaln, as float.hex.
SPHERE_SURFACE_BITS = [
    "0x1.0000000000000p+1", "0x1.921fb54442d17p+2", "0x1.921fb54442d1bp+3",
    "0x1.3bd3cc9be45dfp+4", "0x1.a51a6625307d3p+4", "0x1.f019b59389d7ep+4",
    "0x1.08963eb51650dp+5", "0x1.03c1f081b5ac4p+5", "0x1.dafc3b70d72c7p+4",
    "0x1.9806b81531598p+4",
]


@pytest.mark.parametrize("dim", range(1, 11))
def test_sphere_surface_bits(dim):
    # Stable jump sizes scale with this constant, so any other formula
    # (math.lgamma gives 1.9999999999999993 in 1-d) would move pinned digests.
    assert sphere_surface_area(dim) == float.fromhex(SPHERE_SURFACE_BITS[dim - 1])


def scipy_sphere_surface(dim):
    from scipy.special import gammaln

    return float(np.exp(np.log(2.0) + 0.5 * dim * np.log(np.pi) - gammaln(0.5 * dim)))


@pytest.mark.parametrize("dim", range(1, 17))
def test_sphere_surface_is_scipys_log_gamma_formula(dim):
    # d <= 10 is read from a table so the CLI need not import scipy.special;
    # beyond it the formula runs through scipy.
    assert sphere_surface_area(dim).hex() == scipy_sphere_surface(dim).hex()


@pytest.mark.parametrize("dim", [0, -1])
def test_sphere_surface_refuses_dimensions_below_one(dim):
    with pytest.raises(ValidationError, match="dimension must be >= 1"):
        sphere_surface_area(dim)


class TestTailMass:
    def test_stable_closed_form(self):
        nu = StableLike(c=1.0, alpha=1.0, dim=1)
        assert nu.tail_mass(1.0) == pytest.approx(2.0, rel=1e-14)

    def test_atom_beyond_radius(self):
        assert Atoms([((3.0,), 0.5)]).tail_mass(1.0, a=0.0) == 0.5

    def test_atom_inside_radius(self):
        assert Atoms([((0.5,), 2.0)]).tail_mass(1.0, a=0.0) == 0.0

    def test_delta_atom_always_in_tail(self):
        nu = Atoms([(DELTA, 0.25)], dim=1)
        assert nu.tail_mass(1000.0, a=0.0) == 0.25

    def test_cemetery_prints_as_delta(self):
        assert repr(DELTA) == "DELTA"

    def test_nonincreasing_in_radius(self):
        nu = StableLike(c=0.7, alpha=1.3, dim=1)
        radii = np.linspace(0.1, 5.0, 40)
        vals = [nu.tail_mass(r) for r in radii]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTruncatedSecondMoment:
    def test_stable_closed_form(self):
        nu = StableLike(c=1.0, alpha=1.0, dim=1)
        assert nu.truncated_second_moment(1.0) == pytest.approx(2.0, rel=1e-14)

    def test_atoms(self):
        assert Atoms([((0.5,), 4.0)]).truncated_second_moment(1.0, a=0.0) == 1.0

    def test_vanishes_with_radius(self):
        nu = StableLike(c=1.0, alpha=1.5, dim=1)
        radii = [1.0, 0.1, 0.01, 1e-6]
        vals = [nu.truncated_second_moment(r) for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            StableLike(c=1.0, alpha=2.0, dim=1)
        with pytest.raises(ValidationError):
            StableLike(c=1.0, alpha=0.0, dim=1)


class TestCompensationFunctions:
    def test_chi1_closed_form(self, scratch_rng):
        chi = Chi1()
        a = scratch_rng.uniform(-2, 2, size=3)
        b = scratch_rng.uniform(-2, 2, size=(50, 3))
        h = b - a
        expected = h / (1 + np.sum(h * h, axis=1))[:, None]
        np.testing.assert_allclose(chi(a, b), expected, rtol=0, atol=0)

    def test_chi2_closed_form(self, scratch_rng):
        chi = Chi2()
        a = scratch_rng.uniform(-2, 2, size=2)
        b = scratch_rng.uniform(-3, 3, size=(50, 2))
        h = b - a
        expected = h * (np.linalg.norm(h, axis=1) < 1.0)[:, None]
        np.testing.assert_allclose(chi(a, b), expected, rtol=0, atol=0)

    def test_boundedness(self, scratch_rng):
        b = scratch_rng.uniform(-50, 50, size=(2000, 1))
        a = np.zeros(1)
        assert np.max(np.abs(Chi1()(a, b))) <= 0.5
        assert np.max(np.abs(Chi2()(a, b))) <= 1.0


class TestLevyTriplet:
    def test_gamma_symmetry_enforced(self):
        with pytest.raises(ValidationError):
            LevyTriplet([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_gamma_psd_enforced(self):
        with pytest.raises(ValidationError):
            LevyTriplet([0.0], [[-1.0]])

    def test_unchecked_escape_hatch(self):
        trip = LevyTriplet.unchecked([0.0], [[-1.0]])
        assert trip.gamma[0, 0] == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            LevyTriplet([0.0, 0.0], [[1.0]])


def test_constant_field_moves_atoms_with_the_point():
    # atom points are jump vectors: at a they sit at a + point; radial
    # densities are centred at a already and come back unchanged
    atoms = Atoms([((0.5, -1.0), 2.0), (DELTA, 0.3)])
    stable = StableLike(c=1.0, alpha=1.5, dim=2)
    a = np.array([1.0, 2.0])
    nu = ConstantTripletField(LevyTriplet([0.0, 0.0], np.zeros((2, 2)), atoms))(a).jumps
    np.testing.assert_array_equal(nu.points, [[1.5, 1.0]])
    assert nu.delta_mass == 0.3 and nu.mass_at(a) == 0.0
    assert nu.tail_mass(1.0, a) == atoms.tail_mass(1.0)
    assert ConstantTripletField(LevyTriplet([0.0, 0.0], np.zeros((2, 2)), stable))(a).jumps \
        is stable


class TestPathRecord:
    def test_batch_marginal_and_blanking(self):
        # (paths, times) states hold one coordinate
        for states in ([[[0.0], [1.0]], [[0.0], [2.0]]], [[0.0, 1.0], [0.0, 2.0]]):
            batch = PathBatch(times=[0.0, 1.0], states=np.array(states),
                              xi=np.array([0.5, np.inf]))
            batch.blank_dead()
            vals, alive = batch.marginal(1.0)
            assert vals.shape == (1, 1)
            assert list(alive) == [False, True]
            assert np.isnan(batch.states[0, 1, 0])

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_batch_marginal_at_a_non_finite_time(self, t):
        # searchsorted would read NaN and +inf as the last grid time
        batch = PathBatch(times=[0.0, 1.0], states=np.zeros((1, 2, 1)), xi=np.array([np.inf]))
        with pytest.raises(ValidationError, match="must be finite"):
            batch.marginal(t)


class TestValidateHypotheses:
    def test_chi1_passes_for_stable(self):
        field = ConstantTripletField(
            LevyTriplet([0.0], [[1.0]], StableLike(c=1.0, alpha=1.2, dim=1)))
        rep = validate_hypotheses(field, Chi1(), [-1.0], [1.0], samples=2000, seed=3)
        assert rep.second_order_ok
        assert rep.triplet_ok
        assert rep.modulus_ok
        assert rep.all_ok

    def test_chi2_fails_with_atom_on_unit_sphere(self):
        # an atom exactly at distance one from the evaluated points
        def fn(a):
            return LevyTriplet(np.zeros(1), np.zeros((1, 1)),
                               Atoms([((float(a[0]) + 1.0,), 1.0)]))

        field = TripletField(fn, dim=1)
        rep = validate_hypotheses(field, Chi2(), [-1.0], [1.0], samples=500, seed=3)
        assert rep.modulus_ok is False
        assert not rep.all_ok

    def test_chi2_passes_for_density(self):
        field = ConstantTripletField(
            LevyTriplet([0.0], [[0.0]], StableLike(c=1.0, alpha=0.8, dim=1)))
        rep = validate_hypotheses(field, Chi2(), [-1.0], [1.0], samples=2000, seed=5)
        assert rep.all_ok

    def test_rough_custom_chi_fails_modulus(self):
        # |chi - h| ~ sqrt|h| diverges relative to |h|^2 as h -> 0: the
        # dyadic modulus sweep catches it (a finite sample of the
        # second-order ratio merely grows, which is also reported)
        from levylab.core import CustomChi

        def rough(a, b):
            h = np.atleast_2d(b) - np.asarray(a)
            r = np.linalg.norm(h, axis=1, keepdims=True)
            return h + np.sqrt(np.maximum(r, 1e-300)) * np.sign(h)

        chi = CustomChi(rough, bound=1e9, name="rough")
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        rep = validate_hypotheses(field, chi, [-1.0], [1.0], samples=4000, seed=7)
        assert rep.modulus_ok is False
        assert not rep.all_ok
        assert rep.second_order_constant > 1e3  # the growing ratio is visible

    def test_smooth_custom_chi_without_jumps_keeps_the_modulus(self):
        # the zero measure charges no discontinuity of any chi
        def smooth(a, b):
            h = np.atleast_2d(b) - np.asarray(a)
            return h / (1.0 + np.sum(h * h, axis=1, keepdims=True))

        chi = CustomChi(smooth, bound=0.5, name="smooth")
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], None))
        rep = validate_hypotheses(field, chi, [-1.0], [1.0], samples=500, seed=7)
        assert rep.modulus_ok is True
        assert rep.all_ok and not rep.violations

    def test_base_point_atom_flagged(self):
        def fn(a):
            return LevyTriplet(np.zeros(1), np.zeros((1, 1)),
                               Atoms([((float(a[0]),), 1.0)]))

        field = TripletField(fn, dim=1)
        rep = validate_hypotheses(field, Chi1(), [-1.0], [1.0], samples=200, seed=1)
        assert not rep.triplet_ok

    def test_chi_far_from_the_identity_fails_second_order(self):
        chi = CustomChi(lambda a, b: b - a + 1e7, bound=1e9, name="offset")
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]]))
        rep = validate_hypotheses(field, chi, [-1.0], [1.0], samples=200, seed=1)
        assert not rep.second_order_ok and not rep.all_ok
        assert rep.second_order_constant > 1e6
        assert any(v.startswith("second-order ratio reached") for v in rep.violations)

    def test_field_invalid_at_some_points(self):
        def fn(a):
            if a[0] > 0:
                raise ValidationError("no triplet on the right half")
            return LevyTriplet([0.0], [[1.0]])

        rep = validate_hypotheses(TripletField(fn, dim=1), Chi1(), [-1.0], [1.0],
                                  samples=200, seed=1)
        assert not rep.triplet_ok and not rep.all_ok
        assert any(v.startswith("triplet invalid at") and "no triplet on the right half" in v
                   for v in rep.violations)

    def test_infinite_tail_mass(self):
        # c * surface / alpha overflows, so the tail mass beyond 1 reads inf
        nu = StableLike(c=1e308, alpha=1e-3, dim=1)
        field = ConstantTripletField(LevyTriplet([0.0], [[1.0]], nu))
        rep = validate_hypotheses(field, Chi1(), [-1.0], [1.0], samples=200, seed=1)
        assert not rep.triplet_ok and not rep.all_ok
        assert any(v.startswith("compensated mass infinite at") for v in rep.violations)


def test_a_triplet_without_jumps_holds_the_zero_measure():
    for trip in (LevyTriplet([0.0, 1.0], np.eye(2)), LevyTriplet([0.0, 1.0], np.eye(2), None),
                 triplet_from_config({"drift": [0.0, 1.0], "nu": {"kind": "none"}})):
        nu = trip.jumps
        assert isinstance(nu, Atoms) and nu.dim == 2
        assert nu.total_mass() == 0.0
        assert nu.tail_mass(1e-3) == 0.0 and nu.truncated_second_moment(1.0) == 0.0
    assert ConstantTripletField(trip)([0.5, 0.5]).jumps.total_mass() == 0.0


class TestConfigParsing:
    def test_stable_round_trip(self):
        trip = triplet_from_config({
            "drift": [0.5], "gamma": [[2.0]],
            "nu": {"kind": "stable", "c": 1.5, "alpha": 0.9},
        })
        assert trip.drift[0] == 0.5
        assert isinstance(trip.jumps, StableLike)
        assert trip.jumps.alpha == 0.9

    def test_atoms_with_cemetery(self):
        nu = jump_measure_from_config({
            "kind": "atoms",
            "atoms": [{"point": [2.0], "mass": 3.0}, {"point": "DELTA", "mass": 0.5}],
        }, dim=1)
        assert nu.delta_mass == 0.5
        assert nu.total_mass() == 3.5

    def test_none_measure(self):
        for cfg in ({"kind": "none"}, {}, None):
            nu = jump_measure_from_config(cfg, dim=1)
            assert isinstance(nu, Atoms) and nu.dim == 1 and nu.total_mass() == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            jump_measure_from_config({"kind": "gamma"}, dim=1)


def test_scheme_config_validation():
    with pytest.raises(ValidationError):
        SchemeConfig(paths=0)
    with pytest.raises(ValidationError):
        SchemeConfig(escape_radius=0.0)
    cfg = SchemeConfig(paths=10, grid=np.array([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(cfg.output_grid(1.0), [0.0, 0.5, 1.0])
    with pytest.raises(ValidationError):
        cfg.output_grid(0.4)


def test_stable_moments_below_the_truncation_and_without_it():
    assert StableLike(c=1.0, alpha=1.5, min_radius=0.5).truncated_second_moment(0.3) == 0.0
    assert StableLike(c=1.0, alpha=1.5).total_mass() == math.inf


def test_stable_density_at_huge_jumps():
    # the norm overflows past |h| ~ 1e154; the density there is 0, with no
    # warning (pytest turns warnings into errors), and unchanged elsewhere
    nu = StableLike(c=1.0, alpha=1.2, dim=2)
    h = np.array([[1e200, 0.0], [-1e300, 1e300], [3.0, 4.0]])
    np.testing.assert_array_equal(nu.density(h), [0.0, 0.0, 5.0 ** -3.2])


def test_smooth_custom_chi_on_a_stable_field_leaves_the_modulus_open():
    # no continuity rule covers a custom chi against a density, so the
    # modulus is undecided (None) and does not fail the report
    def smooth(a, b):
        h = np.atleast_2d(b) - np.asarray(a)
        return h / (1.0 + np.sum(h * h, axis=1, keepdims=True))

    field = ConstantTripletField(
        LevyTriplet([0.0], [[0.0]], StableLike(c=1.0, alpha=0.8, dim=1)))
    rep = validate_hypotheses(field, CustomChi(smooth, bound=0.5), [-1.0], [1.0],
                              samples=500, seed=7)
    assert rep.modulus_ok is None
    assert rep.all_ok
