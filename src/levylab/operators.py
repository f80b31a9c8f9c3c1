"""Numerical evaluation of integro-differential operators with a Levy triplet.

The operator applied to a smooth compactly supported test function at a
point ``a`` is

    1/2 sum_ij gamma_ij d2f(a)_ij + drift . grad f(a)
        + integral of (f(b) - f(a) - chi(a, b) . grad f(a)) nu(db),

with ``f`` extended by its cemetery value beyond the locally compact part
of the state space.  The jump integral is singular only at ``b = a`` where
the integrand is quadratically compensated; radial measures are integrated
shell by shell with the singular shell transformed into a bounded integrand.

Every one-dimensional integral in the package goes through `_quad`
(QUADPACK via scipy).  A user density is integrated on each half-line from
0 to infinity, split at the Taylor radius, the test function's support
reach and the kinks of chi.  Below the Taylor radius the compensated
integrand ``f(a+h) - f(a) - chi(a, a+h) f'(a)`` is evaluated as the integral
form of the Taylor remainder plus ``(h - chi(a, a+h)) f'(a)`` in closed
form, so no small difference of large numbers is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _si
from scipy import optimize as _so

from . import rng as _rng
from .core import (
    Atoms,
    CompensationFunction,
    LevyTriplet,
    StableLike,
    TripletField,
    UserDensity,
    as_point,
    sphere_surface_area,
)
from .errors import QuadratureError, ValidationError

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-7


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A smooth function with compact support and supplied derivatives.

    ``fn``, ``grad`` and ``hess`` accept an (m, d) array of points;
    ``const_at_delta`` is the value carried at the cemetery (and at
    infinity), so functions that are constant far away are the constant
    plus a compactly supported part.
    """

    __test__ = False  # not a pytest collection target

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    support_low: np.ndarray
    support_high: np.ndarray
    hess_bound: float
    const_at_delta: float = 0.0

    @property
    def dim(self) -> int:
        return self.support_low.shape[0]

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.fn(points) + self.const_at_delta

    def value_at(self, a) -> float:
        return float(self(as_point(a, self.dim)[None, :])[0])

    def grad_at(self, a) -> np.ndarray:
        return np.asarray(self.grad(as_point(a, self.dim)[None, :]))[0]

    def hess_at(self, a) -> np.ndarray:
        return np.asarray(self.hess(as_point(a, self.dim)[None, :]))[0]

    def support_distance(self, a) -> float:
        """Distance from ``a`` to the support box (0 inside)."""
        a = as_point(a, self.dim)
        gap = np.maximum(self.support_low - a, 0.0) + np.maximum(a - self.support_high, 0.0)
        return float(np.linalg.norm(gap))

    def support_reach(self, a) -> float:
        """Largest distance from ``a`` to a corner of the support box."""
        a = as_point(a, self.dim)
        far = np.maximum(np.abs(self.support_low - a), np.abs(self.support_high - a))
        return float(np.linalg.norm(far))

    def validate_derivatives(self, seed: int = 0, samples: int = 64,
                             tol: float = 1e-5) -> None:
        """Check supplied derivatives against central differences.

        Raises ValidationError when any sampled point deviates by more than
        ``tol`` absolutely.
        """
        gen = _rng.stream(seed, namespace=_rng.SCRATCH)
        pts = gen.uniform(self.support_low, self.support_high, size=(samples, self.dim))
        h = 1e-5 * max(1.0, float(np.max(self.support_high - self.support_low)))
        eye = np.eye(self.dim)
        for i in range(self.dim):
            step = h * eye[i]
            fd = (self(pts + step) - self(pts - step)) / (2 * h)
            sup = self.grad(pts)[:, i]
            if np.max(np.abs(fd - sup)) > tol:
                raise ValidationError(
                    f"gradient component {i} of {self.name} deviates from finite differences"
                )
            for j in range(self.dim):
                stj = h * eye[j]
                fd2 = (
                    self(pts + step + stj) - self(pts + step - stj)
                    - self(pts - step + stj) + self(pts - step - stj)
                ) / (4 * h * h)
                sup2 = self.hess(pts)[:, i, j]
                if np.max(np.abs(fd2 - sup2)) > max(tol, 1e-3 * self.hess_bound):
                    raise ValidationError(
                        f"hessian component ({i},{j}) of {self.name} deviates "
                        "from finite differences"
                    )


def bump(center, radius: float, height: float = 1.0, name: str | None = None) -> TestFunction:
    """Smooth radial bump supported on the closed ball of given radius.

    Profile exp(1 - 1/(1 - u)) in u = |x-c|^2/r^2, scaled to ``height`` at
    the center; infinitely differentiable with closed-form derivatives.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = center.shape[0]
    r2 = float(radius) ** 2

    def _parts(points):
        diff = np.atleast_2d(points) - center
        u = np.sum(diff * diff, axis=1) / r2
        inside = u < 1.0
        g = np.zeros_like(u)
        gp = np.zeros_like(u)
        gpp = np.zeros_like(u)
        ui = u[inside]
        one = 1.0 - ui
        g[inside] = np.exp(1.0 - 1.0 / one)
        gp[inside] = -g[inside] / one ** 2
        gpp[inside] = g[inside] * (2.0 * ui - 1.0) / one ** 4
        return diff, u, g * height, gp * height, gpp * height

    def fn(points):
        return _parts(points)[2]

    def grad(points):
        diff, u, g, gp, gpp = _parts(points)
        return gp[:, None] * (2.0 / r2) * diff

    def hess(points):
        diff, u, g, gp, gpp = _parts(points)
        outer = diff[:, :, None] * diff[:, None, :]
        eye = np.eye(d)
        return (gpp * 4.0 / r2 ** 2)[:, None, None] * outer + (gp * 2.0 / r2)[:, None, None] * eye

    # sup |f''| for the unit profile is below 9; scale by height / r^2 and
    # pad for the cross terms in higher dimension.
    bound = 9.0 * abs(height) / r2 * max(1, d)
    return TestFunction(
        name=name or f"bump(r={radius})",
        fn=fn, grad=grad, hess=hess,
        support_low=center - radius, support_high=center + radius,
        hess_bound=bound,
    )


def default_test_functions(dim: int = 1, center=None,
                           scales: Sequence[float] = (2.0, 1.0, 0.5)) -> list[TestFunction]:
    """Radial bumps at dyadic scales around a common center."""
    c = np.zeros(dim) if center is None else as_point(center, dim)
    return [bump(c, s, name=f"bump{k}(r={s})") for k, s in enumerate(scales)]


def vanishing_test_functions(low, high, dim: int = 1, margin: float = 0.5,
                             scales: Sequence[float] = (1.0, 0.5)) -> list[TestFunction]:
    """Bumps placed outside the box [low, high], for jump-measure gap checks.

    Each bump's support keeps at least ``margin`` distance from the box, so
    the functions vanish on a neighborhood of every evaluation point inside.
    """
    low = as_point(low, dim)
    high = as_point(high, dim)
    fns = []
    for k, s in enumerate(scales):
        offset = np.zeros(dim)
        offset[0] = high[0] + margin + s
        fns.append(bump(offset, s, name=f"outer{k}(r={s})"))
        mirr = np.zeros(dim)
        mirr[0] = low[0] - margin - s
        fns.append(bump(mirr, s, name=f"outer{k}-(r={s})"))
    return fns


# ---------------------------------------------------------------------------
# Quadrature helpers
# ---------------------------------------------------------------------------


def _quad(fn, lo: float, hi: float, tol_abs: float, tol_rel: float) -> float:
    """Integral of the scalar ``fn`` over [lo, hi] (``hi`` may be ``np.inf``).

    QUADPACK's adaptive Gauss-Kronrod rule with extrapolation (QAGS, or QAGI
    on a half-line), called through scipy.  When QUADPACK flags a failure
    (subdivision limit, roundoff, divergence) and its error estimate exceeds
    ten times the requested tolerance, QuadratureError is raised.  The
    failure is read from ``full_output`` rather than from a warning, so
    concurrent calls from worker threads do not share warning state.
    """
    if hi <= lo:
        return 0.0
    value, abserr, _info, *failure = _si.quad(fn, lo, hi, epsabs=tol_abs, epsrel=tol_rel,
                                              limit=400, full_output=1)
    tolerance = tol_abs + tol_rel * abs(value)
    if failure and abserr > 10 * tolerance:
        reason = str(failure[0]).split("\n")[0]
        raise QuadratureError(
            f"adaptive quadrature over [{lo}, {hi}] did not converge: {reason}",
            estimate=value, error=abserr, tolerance=tolerance,
        )
    return float(value)


class _SphereRule:
    """Fixed quadrature nodes and weights on the unit sphere.

    Antipodally symmetric in every dimension, so odd integrands cancel
    exactly; weights sum to the sphere surface area.
    """

    def __init__(self, dim: int):
        self.dim = dim
        if dim == 1:
            self.nodes = np.array([[1.0], [-1.0]])
            self.weights = np.array([1.0, 1.0])
        elif dim == 2:
            k = 128
            ang = 2.0 * np.pi * (np.arange(k) + 0.5) / k
            self.nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            self.weights = np.full(k, 2.0 * np.pi / k)
        elif dim == 3:
            n_mu, n_phi = 24, 48
            mu, w_mu = np.polynomial.legendre.leggauss(n_mu)
            phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
            s = np.sqrt(1.0 - mu ** 2)
            nodes, weights = [], []
            for i in range(n_mu):
                for p in phi:
                    nodes.append([s[i] * np.cos(p), s[i] * np.sin(p), mu[i]])
                    weights.append(w_mu[i] * 2.0 * np.pi / n_phi)
            self.nodes = np.asarray(nodes)
            self.weights = np.asarray(weights)
        else:
            raise ValidationError(
                "radial quadrature supports dimensions 1 to 3; higher dimensions "
                "need a user-supplied integration rule"
            )
        self.surface = sphere_surface_area(dim)


_SPHERE_RULES: dict[int, _SphereRule] = {}


def _sphere_rule(dim: int) -> _SphereRule:
    if dim not in _SPHERE_RULES:
        _SPHERE_RULES[dim] = _SphereRule(dim)
    return _SPHERE_RULES[dim]


def _stable_radial_integral(nu: StableLike, sphere_avg: Callable[[float], float],
                            quadratic_coeff: float, pieces: Sequence[float],
                            tail_coeff: float, tol_abs: float, tol_rel: float) -> float:
    """Integrate c r^{-1-alpha} G(r) dr over (min_radius, infinity).

    ``sphere_avg`` evaluates G(r), the integrand averaged over the sphere
    with surface weights; it must be O(r^2) at zero with leading coefficient
    ``quadratic_coeff`` (G(r) ~ quadratic_coeff * r^2).  ``pieces`` are the
    finite breakpoints; beyond the last one G is the constant ``tail_coeff``.
    """
    c, alpha = nu.c, nu.alpha
    if c == 0.0:
        return 0.0
    bps = sorted({p for p in pieces if p > nu.min_radius})
    lo = nu.min_radius
    total = 0.0
    n_pieces = max(len(bps), 1)
    piece_tol = tol_abs / (2.0 * n_pieces)

    if lo == 0.0 and bps:
        b = bps[0]
        beta = 1.0 / (2.0 - alpha)
        # Change of variable r = b s^beta turns the singular shell into a
        # bounded integrand; below r_lo the quadratic Taylor term is used so
        # the cancellation-noise region is never sampled.
        r_lo = min(1e-5, 0.1 * b)
        s_lo = (r_lo / b) ** (2.0 - alpha)

        def transformed(s):
            r = b * s ** beta
            return sphere_avg(r) * s ** (-2.0 * beta)

        head = quadratic_coeff * b * b * s_lo
        body = _quad(transformed, s_lo, 1.0, piece_tol / (c * beta * b ** -alpha + 1e-300),
                     tol_rel)
        total += c * beta * b ** (-alpha) * (head + body)
        lo = b
        bps = bps[1:]

    for b in bps:
        total += _quad(lambda r: c * r ** (-1.0 - alpha) * sphere_avg(r), lo, b,
                       piece_tol, tol_rel)
        lo = b

    if tail_coeff != 0.0:
        if lo <= 0.0:
            raise QuadratureError(
                "constant tail against an infinite-mass measure", estimate=None
            )
        total += tail_coeff * c * lo ** (-alpha) / alpha
    return total


# ---------------------------------------------------------------------------
# Jump-measure integrals
# ---------------------------------------------------------------------------


# Below this jump size the compensated integrand of a user density is taken
# in Taylor-remainder form.  Much larger switch radii lose accuracy on narrow
# test functions (8 nodes no longer resolve f''); much smaller ones leave the
# direct difference to cancel near the switch.
_TAYLOR_RADIUS = 2.0 ** -10

# int_0^1 (1 - t) g(t) dt by 8-point Gauss-Legendre on [0, 1].
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_TAYLOR_T = 0.5 * (_GL_X + 1.0)
_TAYLOR_W = 0.5 * _GL_W * (1.0 - _TAYLOR_T)


def _require_1d(nu) -> None:
    if nu.dim != 1:
        raise ValidationError("user densities are integrated in dimension 1 only")


def _density_integral(nu: UserDensity, g: Callable[[float], float], cuts: Sequence[float],
                      tol_abs: float, tol_rel: float) -> float:
    """integral of g(h) rho(h) over cuts[0] < |h| < cuts[-1] for a 1-d density.

    ``cuts`` increase and may end at ``np.inf``; each side is integrated by
    `_quad` piece by piece between consecutive cuts, the tolerance split
    evenly over the pieces.
    """
    pieces = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    tol = tol_abs / (2 * max(len(pieces), 1))
    total = 0.0
    for sgn in (1.0, -1.0):
        def integrand(r, sgn=sgn):
            h = sgn * r
            return g(h) * float(nu.density(np.array([[h]]))[0])

        for lo, hi in pieces:
            total += _quad(integrand, lo, hi, tol, tol_rel)
    return total


def _cuts(lo: float, *radii: float) -> list[float]:
    """``lo``, the radii above it in increasing order, then infinity."""
    return [lo] + sorted({r for r in radii if r > lo}) + [np.inf]


def jump_integral(nu, chi: CompensationFunction, f: TestFunction, a,
                  tol_abs: float = DEFAULT_TOL_ABS, tol_rel: float = DEFAULT_TOL_REL) -> float:
    """The compensated jump part of the operator at ``a``.

    Atom locations are absolute; radial measures are centred at ``a``.  The
    cemetery contributes ``f(DELTA) - f(a)`` times its mass.
    """
    a = as_point(a, f.dim)
    fa = f.value_at(a)
    grad = f.grad_at(a)

    if nu is None:
        return 0.0

    if isinstance(nu, Atoms):
        if nu.mass_at(a) > 0.0:
            raise ValidationError("jump measure must not charge the base point")
        total = nu.delta_mass * (f.const_at_delta - fa)
        if len(nu.masses):
            vals = f(nu.points)
            comp = chi(a, nu.points) @ grad
            total += float(np.sum(nu.masses * (vals - fa - comp)))
        return total

    if isinstance(nu, StableLike):
        rule = _sphere_rule(nu.dim)
        nodes, wts = rule.nodes, rule.weights

        def sphere_avg(r):
            pts = a + r * nodes
            vals = f(pts) - fa - chi(a, pts) @ grad
            return float(np.dot(wts, vals))

        hess = f.hess_at(a)
        quad_coeff = 0.5 * float(np.dot(wts, np.einsum("ki,ij,kj->k", nodes, hess, nodes)))
        reach = f.support_reach(a)
        kinks = [k for k in chi.radial_kinks() if k < reach]
        if not chi.is_odd():
            raise ValidationError(
                "radial integration of a non-odd custom compensation function is "
                "not supported; supply an odd chi or an Atoms/UserDensity measure"
            )
        # Beyond the support reach f vanishes and the odd chi term cancels on
        # the symmetric rule, leaving the constant -fa per unit sphere mass.
        tail_coeff = -(fa - f.const_at_delta) * rule.surface
        return _stable_radial_integral(
            nu, sphere_avg, quad_coeff, kinks + [reach], tail_coeff, tol_abs, tol_rel
        )

    if isinstance(nu, UserDensity):
        return _user_jump_integral(nu, chi, f, a, fa, grad, tol_abs, tol_rel)

    raise ValidationError(f"unsupported jump measure type {type(nu).__name__}")


def _user_jump_integral(nu: UserDensity, chi, f, a, fa, grad, tol_abs, tol_rel) -> float:
    _require_1d(nu)
    g = float(grad[0])

    def core(h):
        # f(a+h) - f(a) - h f'(a) = h^2 int_0^1 (1-t) f''(a+th) dt, and
        # h - chi(a, a+h) in closed form: nothing cancels however small h is.
        rem = float(np.dot(_TAYLOR_W, f.hess(a + h * _TAYLOR_T[:, None])[:, 0, 0]))
        return h * h * rem + float(chi.deviation(a, np.array([[h]]))[0, 0]) * g

    def direct(h):
        b = (a + h)[None, :]
        return float(f(b)[0]) - fa - float(chi(a, b)[0, 0]) * g

    return (_density_integral(nu, core, [0.0, _TAYLOR_RADIUS], tol_abs / 2.0, tol_rel)
            + _density_integral(nu, direct,
                                _cuts(_TAYLOR_RADIUS, f.support_reach(a), *chi.radial_kinks()),
                                tol_abs / 2.0, tol_rel))


def measure_integral(nu, f: TestFunction, a, margin: float,
                     tol_abs: float = DEFAULT_TOL_ABS, tol_rel: float = DEFAULT_TOL_REL) -> float:
    """integral of f(b) nu(db) for f vanishing within ``margin`` of ``a``.

    ``margin`` must separate ``a`` from the support of the compact part of
    ``f``; the constant-at-infinity part integrates against the tail mass.
    """
    a = as_point(a, f.dim)
    if f.support_distance(a) < margin:
        raise ValidationError(
            f"test function {f.name} does not vanish near the point {a.tolist()}"
        )
    if nu is None:
        return 0.0
    const = f.const_at_delta

    if isinstance(nu, Atoms):
        total = nu.delta_mass * const
        if len(nu.masses):
            total += float(np.sum(nu.masses * f(nu.points)))
        return total

    if isinstance(nu, StableLike):
        rule = _sphere_rule(nu.dim)
        reach = f.support_reach(a)
        lo = max(nu.min_radius, margin)
        c, alpha = nu.c, nu.alpha
        if c == 0.0:
            return 0.0

        def sphere_avg(r):
            vals = f(a + r * rule.nodes) - const
            return float(np.dot(rule.weights, vals))

        body = _quad(lambda r: c * r ** (-1.0 - alpha) * sphere_avg(r), lo, max(reach, lo),
                     tol_abs / 2.0, tol_rel)
        return body + const * nu.tail_mass(max(lo, 1e-300))

    if isinstance(nu, UserDensity):
        _require_1d(nu)
        # f - const vanishes beyond the support reach.
        body = _density_integral(nu, lambda h: f.value_at(a + h) - const,
                                 [margin, max(margin, f.support_reach(a))],
                                 tol_abs / 2.0, tol_rel)
        return body + const * nu.tail_mass(margin)

    raise ValidationError(f"unsupported jump measure type {type(nu).__name__}")


def chi_quadratic_matrix(nu, chi: CompensationFunction, a,
                         tol_abs: float = DEFAULT_TOL_ABS,
                         tol_rel: float = DEFAULT_TOL_REL) -> np.ndarray:
    """integral of chi_i chi_j (a, b) nu(db) as a (d, d) matrix."""
    if nu is None:
        raise ValidationError("chi_quadratic_matrix needs a jump measure")
    dim = nu.dim
    a = as_point(a, dim)

    if isinstance(nu, Atoms):
        out = np.zeros((dim, dim))
        if len(nu.masses):
            vals = chi(a, nu.points)
            out = np.einsum("k,ki,kj->ij", nu.masses, vals, vals)
        return out

    if isinstance(nu, StableLike):
        rule = _sphere_rule(dim)
        nodes, wts = rule.nodes, rule.weights
        out = np.zeros((dim, dim))
        c, alpha = nu.c, nu.alpha
        if c == 0.0:
            return out
        theta_mat = np.einsum("k,ki,kj->ij", wts, nodes, nodes)
        # The singular shell ends at radius 1 at the latest: stretched over
        # [0, r_cut], its substitution squeezes the bend of chi near r = 1
        # into a sliver that the quadrature does not see.
        kinks = sorted({1.0, *chi.radial_kinks()})
        # Cut the radial integration where the chi-squared remainder bound
        # (decay-aware per compensation function) drops below tolerance.
        r_cut = max([2.0] + [k * 2 for k in kinks])
        while (chi.abs_bound_beyond(r_cut) ** 2 * nu.tail_mass(max(r_cut, 1e-300))
               > 0.25 * tol_abs and r_cut < 1e12):
            r_cut *= 2.0
        for i in range(dim):
            for j in range(i, dim):
                def sphere_avg(r, i=i, j=j):
                    vals = chi(a, a + r * nodes)
                    return float(np.dot(wts, vals[:, i] * vals[:, j]))

                quad_coeff = theta_mat[i, j]
                val = _stable_radial_integral(
                    nu, sphere_avg, quad_coeff, kinks + [r_cut], 0.0,
                    tol_abs / dim ** 2, tol_rel,
                )
                out[i, j] = out[j, i] = val
        return out

    if isinstance(nu, UserDensity):
        _require_1d(nu)

        def chi_sq(h):
            return float(chi(a, (a + h)[None, :])[0, 0]) ** 2

        # the Taylor radius gives the singular end at 0 a short piece of its own
        total = _density_integral(nu, chi_sq, _cuts(0.0, _TAYLOR_RADIUS, *chi.radial_kinks()),
                                  tol_abs, tol_rel)
        return np.array([[total]])

    raise ValidationError(f"unsupported jump measure type {type(nu).__name__}")


def chi_drift_adjustment(nu, chi_from: CompensationFunction, chi_to: CompensationFunction,
                         a=None, tol_abs: float = DEFAULT_TOL_ABS,
                         tol_rel: float = DEFAULT_TOL_REL) -> np.ndarray:
    """integral of (chi_to - chi_from)(a, b) nu(db).

    Switching compensation conventions leaves the operator unchanged when
    this vector is added to the drift.  The integrand is cubically small at
    the base point, so plain validity of the triplet suffices.
    """
    if nu is None:
        return np.zeros(1)
    dim = nu.dim
    a = np.zeros(dim) if a is None else as_point(a, dim)

    if isinstance(nu, Atoms):
        out = np.zeros(dim)
        if len(nu.masses):
            dv = chi_to(a, nu.points) - chi_from(a, nu.points)
            out = np.einsum("k,ki->i", nu.masses, dv)
        return out

    if isinstance(nu, StableLike):
        if chi_from.is_odd() and chi_to.is_odd():
            return np.zeros(dim)  # odd integrand against a radial measure
        raise ValidationError("drift adjustment for non-odd chi needs Atoms or UserDensity")

    if isinstance(nu, UserDensity):
        _require_1d(nu)

        def chi_gap(h):
            # chi_to - chi_from = dev_from - dev_to, cubically small at h = 0
            hh = np.array([[h]])
            return float(chi_from.deviation(a, hh)[0, 0] - chi_to.deviation(a, hh)[0, 0])

        kinks = chi_from.radial_kinks() + chi_to.radial_kinks()
        total = _density_integral(nu, chi_gap, _cuts(0.0, *kinks), tol_abs, tol_rel)
        return np.array([total])

    raise ValidationError(f"unsupported jump measure type {type(nu).__name__}")


# ---------------------------------------------------------------------------
# Operator application and convergence reports
# ---------------------------------------------------------------------------


def apply_operator(triplet: LevyTriplet, chi: CompensationFunction, f: TestFunction, a,
                   tol_abs: float = DEFAULT_TOL_ABS, tol_rel: float = DEFAULT_TOL_REL) -> float:
    """Evaluate the Levy-type operator at ``a`` for the given test function."""
    a = as_point(a, triplet.dim)
    grad = f.grad_at(a)
    hess = f.hess_at(a)
    local = 0.5 * float(np.sum(triplet.gamma * hess)) + float(np.dot(triplet.drift, grad))
    return local + jump_integral(triplet.jumps, chi, f, a, tol_abs, tol_rel)


@dataclass
class ConvergenceReport:
    """Gap measurements between one approximating field and the limit field."""

    label: str
    drift_gap: float
    jump_gaps: dict[str, float]
    carre_gap: np.ndarray  # (d, d) max absolute gap per component

    @property
    def max_gap(self) -> float:
        jg = max(self.jump_gaps.values()) if self.jump_gaps else 0.0
        return max(self.drift_gap, jg, float(np.max(self.carre_gap)))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "drift_gap": self.drift_gap,
            "jump_gaps": self.jump_gaps,
            "carre_gap": self.carre_gap.tolist(),
            "max_gap": self.max_gap,
        }


def _box_grid(low, high, points_per_axis: int, cap: int = 100_000) -> np.ndarray:
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    d = low.shape[0]
    n = points_per_axis
    while n ** d > cap and n > 2:
        n -= 1
    axes = [np.linspace(low[i], high[i], n) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def convergence_gaps(fields: Sequence[TripletField], limit: TripletField,
                     chi: CompensationFunction, low, high,
                     testfns: Sequence[TestFunction] | None = None,
                     grid_points: int = 64, jump_margin: float = 0.25,
                     labels: Sequence[str] | None = None,
                     tol_abs: float = 1e-8, tol_rel: float = 1e-6) -> list[ConvergenceReport]:
    """Per-field sup gaps of the three triplet convergence conditions.

    The supremum over the compact box is approximated by a deterministic
    grid; each test function used in the jump gap must vanish within
    ``jump_margin`` of every grid point, otherwise a precondition error
    names the offending pair.
    """
    dim = limit.dim
    grid = _box_grid(low, high, grid_points)
    if testfns is None:
        testfns = vanishing_test_functions(low, high, dim, margin=jump_margin * 2)
    for f in testfns:
        for a in grid:
            if f.support_distance(a) < jump_margin:
                raise ValidationError(
                    f"test function {f.name} does not vanish near grid point {a.tolist()}"
                )

    limit_vals = [_gap_components(limit, chi, a, testfns, jump_margin, tol_abs, tol_rel)
                  for a in grid]
    reports = []
    for idx, fld in enumerate(fields):
        drift_gap = 0.0
        jump_gaps = {f.name: 0.0 for f in testfns}
        carre_gap = np.zeros((dim, dim))
        for a, ref in zip(grid, limit_vals):
            cur = _gap_components(fld, chi, a, testfns, jump_margin, tol_abs, tol_rel)
            drift_gap = max(drift_gap, float(np.max(np.abs(cur[0] - ref[0]))))
            for f in testfns:
                jump_gaps[f.name] = max(jump_gaps[f.name], abs(cur[1][f.name] - ref[1][f.name]))
            carre_gap = np.maximum(carre_gap, np.abs(cur[2] - ref[2]))
        label = labels[idx] if labels is not None else f"n={idx}"
        reports.append(ConvergenceReport(label, drift_gap, jump_gaps, carre_gap))
    return reports


def _gap_components(fld: TripletField, chi, a, testfns, margin, tol_abs, tol_rel):
    trip = fld(a)
    drift = trip.drift
    jumps = {}
    for f in testfns:
        jumps[f.name] = (measure_integral(trip.jumps, f, a, margin, tol_abs, tol_rel)
                         if trip.jumps is not None else 0.0)
    carre = trip.gamma.copy()
    if trip.jumps is not None:
        carre = carre + chi_quadratic_matrix(trip.jumps, chi, a, tol_abs, tol_rel)
    return drift, jumps, carre


@dataclass
class PMPEntry:
    testfn: str
    argmax: np.ndarray
    f_max: float
    operator_value: float
    ok: bool


@dataclass
class PMPReport:
    """Positive-maximum-principle spot check: at a nonnegative global max of
    f the operator value must be nonpositive (up to tolerance)."""

    entries: list[PMPEntry] = field(default_factory=list)

    @property
    def violations(self) -> list[PMPEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def all_ok(self) -> bool:
        return not self.violations


def pmp_spot_check(fld: TripletField, chi: CompensationFunction,
                   testfns: Sequence[TestFunction], tol: float = 1e-6,
                   starts: int = 32, seed: int = 0) -> PMPReport:
    """Locate each test function's maximum and check operator nonpositivity there."""
    if not testfns:
        raise ValidationError("pmp_spot_check needs at least one test function")
    gen = _rng.stream(seed, namespace=_rng.SCRATCH)
    report = PMPReport()
    for f in testfns:
        best_x, best_v = None, -math.inf
        lows, highs = f.support_low, f.support_high
        x0s = gen.uniform(lows, highs, size=(starts, f.dim))
        x0s[0] = 0.5 * (lows + highs)
        for x0 in x0s:
            res = _so.minimize(
                lambda x: -f.value_at(x), x0,
                jac=lambda x: -f.grad_at(x),
                bounds=list(zip(lows, highs)),
                method="L-BFGS-B",
            )
            if -res.fun > best_v:
                best_v = -res.fun
                best_x = np.asarray(res.x)
        if best_v < 0.0:
            # No nonnegative maximum: the principle imposes nothing.
            report.entries.append(PMPEntry(f.name, best_x, best_v, 0.0, True))
            continue
        g = apply_operator(fld(best_x), chi, f, best_x)
        report.entries.append(PMPEntry(f.name, best_x, best_v, g, g <= tol))
    return report
