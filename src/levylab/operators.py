"""Numerical evaluation of integro-differential operators with a Levy triplet.

The operator applied to a smooth compactly supported test function at a
point ``a`` is

    1/2 sum_ij gamma_ij d2f(a)_ij + drift . grad f(a)
        + integral of (f(b) - f(a) - chi(a, b) . grad f(a)) nu(db),

with ``f`` extended by its cemetery value beyond the locally compact part
of the state space.  The jump integral is singular only at ``b = a`` where
the integrand is quadratically compensated; radial measures are integrated
shell by shell with the singular shell transformed into a bounded integrand.

Radial integrals against a `StableLike` measure go through
`_gauss_legendre_many`, one composite Gauss-Legendre rule over per-row
limits that integrates a whole batch of base points in numpy, each row
stopping on its own and independently of the other rows.  A user density
is integrated by `UserDensity.integral` (QUADPACK via scipy, in
`levylab.core`) on each half-line from 0 to infinity, split at the Taylor
radius, the test function's support reach and the kinks of chi.  Below the
Taylor radius the compensated integrand ``f(a+h) - f(a) - chi(a, a+h) f'(a)``
is evaluated as the integral form of the Taylor remainder plus
``(h - chi(a, a+h)) f'(a)`` in closed form, so no small difference of large
numbers is ever formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
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
# Sample points and absolute tolerance of `TestFunction.validate_derivatives`.
DERIVATIVE_SAMPLES = 64
DERIVATIVE_TOL = 1e-5
# Bump radii of `vanishing_test_functions`, one bump on each side per radius.
VANISHING_SCALES = (1.0, 0.5)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A smooth function with compact support and supplied derivatives.

    ``fn``, ``grad`` and ``hess`` accept an (m, d) array of points.  The
    function vanishes outside its support box and at the cemetery.
    """

    __test__ = False  # not a pytest collection target

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    support_low: np.ndarray
    support_high: np.ndarray
    hess_bound: float

    @property
    def dim(self) -> int:
        return self.support_low.shape[0]

    def __call__(self, points) -> np.ndarray:
        return self.fn(np.atleast_2d(np.asarray(points, dtype=float)))

    def value_at(self, a) -> float:
        return float(self(as_point(a, self.dim)[None, :])[0])

    def grad_at(self, a) -> np.ndarray:
        return np.asarray(self.grad(as_point(a, self.dim)[None, :]))[0]

    def hess_at(self, a) -> np.ndarray:
        return np.asarray(self.hess(as_point(a, self.dim)[None, :]))[0]

    def support_distances(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of the (m, d) ``points``: the distance to the support box
        (0 inside) and the largest distance to a corner of it."""
        gap = (np.maximum(self.support_low - points, 0.0)
               + np.maximum(points - self.support_high, 0.0))
        far = np.maximum(np.abs(self.support_low - points), np.abs(self.support_high - points))
        return np.hypot.reduce(gap, axis=1), np.hypot.reduce(far, axis=1)

    def support_radii(self, points: np.ndarray) -> np.ndarray:
        """(m, k) radii at which ``self`` may stop being smooth along rays from
        each row of ``points``: the distances to the support box and to its
        far corner and, in one dimension, to both ends of the support."""
        radii = self.support_distances(points)
        if self.dim == 1:
            radii += (np.abs(points - self.support_low)[:, 0],
                      np.abs(points - self.support_high)[:, 0])
        return np.column_stack(radii)

    def validate_derivatives(self, seed: int = 0) -> None:
        """Check supplied derivatives against central differences.

        Raises ValidationError when any of ``DERIVATIVE_SAMPLES`` sampled
        points deviates by more than ``DERIVATIVE_TOL`` absolutely.
        """
        gen = _rng.stream(seed, namespace=_rng.SCRATCH)
        pts = gen.uniform(self.support_low, self.support_high,
                          size=(DERIVATIVE_SAMPLES, self.dim))
        h = 1e-5 * max(1.0, float(np.max(self.support_high - self.support_low)))
        eye = np.eye(self.dim)
        for i in range(self.dim):
            step = h * eye[i]
            fd = (self(pts + step) - self(pts - step)) / (2 * h)
            sup = self.grad(pts)[:, i]
            if np.max(np.abs(fd - sup)) > DERIVATIVE_TOL:
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
                if np.max(np.abs(fd2 - sup2)) > max(DERIVATIVE_TOL, 1e-3 * self.hess_bound):
                    raise ValidationError(
                        f"hessian component ({i},{j}) of {self.name} deviates "
                        "from finite differences"
                    )


def bump(center, radius: float, name: str | None = None) -> TestFunction:
    """Smooth radial bump supported on the closed ball of given radius.

    Profile exp(1 - 1/(1 - u)) in u = |x-c|^2/r^2, equal to 1 at the
    center; infinitely differentiable with closed-form derivatives.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not (np.all(np.isfinite(center)) and 0.0 < float(radius) < math.inf):
        raise ValidationError(f"a bump needs a finite center and a positive finite radius, "
                              f"got center {center.tolist()} and radius {radius}")
    d = center.shape[0]
    r2 = float(radius) ** 2

    def _profile(points):
        diff = np.atleast_2d(points) - center
        with np.errstate(over="ignore"):  # u = inf beyond ~1e154 is outside, as it should be
            u = np.sum(diff * diff, axis=1) / r2
        inside = u < 1.0
        g = np.zeros_like(u)
        g[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside]))
        return diff, u, inside, g

    def _parts(points):
        diff, u, inside, g = _profile(points)
        gp = np.zeros_like(u)
        gpp = np.zeros_like(u)
        ui = u[inside]
        one = 1.0 - ui
        gp[inside] = -g[inside] / one ** 2
        gpp[inside] = g[inside] * (2.0 * ui - 1.0) / one ** 4
        return diff, inside, gp, gpp

    def fn(points):
        return _profile(points)[3]

    def grad(points):
        diff, inside, gp, gpp = _parts(points)
        return gp[:, None] * (2.0 / r2) * diff

    def hess(points):
        # Zero outside the support, where the outer product may overflow.
        diff, inside, gp, gpp = _parts(points)
        diff, gp, gpp = diff[inside], gp[inside], gpp[inside]
        out = np.zeros((len(inside), d, d))
        out[inside] = ((gpp * 4.0 / r2 ** 2)[:, None, None] * (diff[:, :, None] * diff[:, None, :])
                       + (gp * 2.0 / r2)[:, None, None] * np.eye(d))
        return out

    # sup |f''| for the unit profile is below 9; scale by 1 / r^2 and pad
    # for the cross terms in higher dimension.
    bound = 9.0 / r2 * max(1, d)
    return TestFunction(
        name=name or f"bump(r={radius})",
        fn=fn, grad=grad, hess=hess,
        support_low=center - radius, support_high=center + radius,
        hess_bound=bound,
    )


def default_test_functions(dim: int = 1,
                           scales: Sequence[float] = (2.0, 1.0, 0.5)) -> list[TestFunction]:
    """Radial bumps at dyadic scales around the origin."""
    return [bump(np.zeros(dim), s, name=f"bump{k}(r={s})") for k, s in enumerate(scales)]


def vanishing_test_functions(low, high, dim: int = 1, margin: float = 0.5) -> list[TestFunction]:
    """Bumps placed outside the box [low, high], for jump-measure gap checks.

    Each bump's support keeps at least ``margin`` distance from the box, so
    the functions vanish on a neighborhood of every evaluation point inside.
    """
    low, high = _box(low, high, dim)
    if not margin > 0.0:
        raise ValidationError(f"margin must be positive, got {margin}")
    fns = []
    for k, s in enumerate(VANISHING_SCALES):
        offset = np.zeros(dim)
        offset[0] = high[0] + margin + s
        fns.append(bump(offset, s, name=f"outer{k}(r={s})"))
        mirr = np.zeros(dim)
        mirr[0] = low[0] - margin - s
        fns.append(bump(mirr, s, name=f"outer{k}-(r={s})"))
    return fns


def _box(low, high, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``low`` and ``high`` as points of R^dim, refused unless finite with low < high."""
    low, high = as_point(low, dim), as_point(high, dim)
    if not (np.all(np.isfinite(low)) and np.all(np.isfinite(high)) and np.all(low < high)):
        raise ValidationError(f"the box must be finite with low < high, got low {low.tolist()} "
                              f"and high {high.tolist()}")
    return low, high


# ---------------------------------------------------------------------------
# Quadrature helpers
# ---------------------------------------------------------------------------


class _SphereRule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray
    surface: float


@functools.cache
def _sphere_rule(dim: int) -> _SphereRule:
    """Fixed quadrature nodes and weights on the unit sphere.

    Antipodally symmetric in every dimension, so odd integrands cancel
    exactly; weights sum to the sphere surface area.
    """
    if dim == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    elif dim == 2:
        k = 128
        ang = 2.0 * np.pi * (np.arange(k) + 0.5) / k
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(k, 2.0 * np.pi / k)
    elif dim == 3:
        n_mu, n_phi = 24, 48
        mu, w_mu = np.polynomial.legendre.leggauss(n_mu)
        phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        s = np.sqrt(1.0 - mu ** 2)
        nodes = np.asarray([[s[i] * np.cos(p), s[i] * np.sin(p), mu[i]]
                            for i in range(n_mu) for p in phi])
        weights = np.asarray([w_mu[i] * 2.0 * np.pi / n_phi
                              for i in range(n_mu) for _ in phi])
    else:
        raise ValidationError(
            "radial quadrature supports dimensions 1 to 3; higher dimensions "
            "need a user-supplied integration rule"
        )
    return _SphereRule(nodes, weights, sphere_surface_area(dim))


# 16-point Gauss-Legendre panel on [0, 1].
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(16)
_PANEL_X = 0.5 * (_PANEL_X + 1.0)
_PANEL_W = 0.5 * _PANEL_W
_FIRST_PANELS = 4
# Cap on nodes x sphere nodes of one row at one level: a row that needs more
# is refused, so memory stays bounded (65536 panels in 1-d, 64 in 3-d).
_MAX_ROW_EVALS = 1 << 21
# Cap on rows x nodes x sphere nodes evaluated in one integrand call.
_MAX_BATCH_EVALS = 1 << 17


def _gauss_legendre_many(integrand, lo: np.ndarray, hi: np.ndarray, tol_abs: np.ndarray,
                         tol_rel: float, width: int, describe) -> np.ndarray:
    """Integrals over per-row limits [lo_i, hi_i] by composite Gauss-Legendre.

    ``integrand(rows, t)`` returns the values at the (len(rows), n) nodes
    ``t`` of the given rows, each node costing ``width`` point evaluations.
    The number P of equal 16-node panels doubles until
    ``|I_2P - I_P| <= tol_abs_i + tol_rel |I_2P|``; each row stops at its
    first such level and keeps I_2P.  Sums are per-row reductions and a
    chunk holds whole rows, so no row's value depends on the rows batched
    with it.  A row still open when the next level would cost more than
    ``_MAX_ROW_EVALS`` evaluations raises QuadratureError with the text
    ``describe(row)``.
    """
    out = np.zeros(lo.shape[0])
    active = np.flatnonzero(hi > lo)
    panels = _FIRST_PANELS
    prev = _gauss_legendre_level(integrand, active, lo, hi, panels, width)
    while active.size:
        panels *= 2
        if panels * _PANEL_X.size * width > _MAX_ROW_EVALS:
            row = int(active[0])
            tolerance = tol_abs[row] + tol_rel * abs(prev[0])
            raise QuadratureError(
                f"Gauss-Legendre quadrature did not converge in {panels // 2} panels: "
                f"{describe(row)}", estimate=float(prev[0]), tolerance=float(tolerance))
        cur = _gauss_legendre_level(integrand, active, lo, hi, panels, width)
        done = np.abs(cur - prev) <= tol_abs[active] + tol_rel * np.abs(cur)
        out[active[done]] = cur[done]
        active, prev = active[~done], cur[~done]
    return out


def _gauss_legendre_level(integrand, rows, lo, hi, panels: int, width: int) -> np.ndarray:
    """The ``panels``-panel rule on each of ``rows``, a chunk of whole rows at a time."""
    offsets = (np.arange(panels)[:, None] + _PANEL_X).ravel()
    weights = np.tile(_PANEL_W, panels)
    per_chunk = max(1, _MAX_BATCH_EVALS // (offsets.size * width))
    out = np.empty(rows.size)
    for k in range(0, rows.size, per_chunk):
        idx = rows[k:k + per_chunk]
        h = (hi[idx] - lo[idx]) / panels
        vals = integrand(idx, lo[idx, None] + h[:, None] * offsets)
        out[k:k + per_chunk] = (vals * weights).sum(axis=-1) * h
    return out


def _stable_radial_many(nus, lows, breaks, quad, tail, tol, tol_rel: float, sphere_term,
                        width: int, describe) -> np.ndarray:
    """Integrals of c r^{-1-alpha} G_i(r) dr over (lows[i], infinity), one per problem.

    Problem ``i`` has the StableLike ``nus[i]``, the finite breakpoints
    ``breaks[i]`` and, beyond the last one, the constant ``G_i = tail[i]``.
    ``sphere_term(problems, r)`` evaluates G at the (k, n) radii ``r`` of the
    given problems.  When ``lows[i]`` is 0, the shell below the first
    breakpoint ``b`` is integrated in ``s`` with ``r = b s^{1/(2-alpha)}``,
    which makes the integrand bounded; below ``r_lo`` the quadratic Taylor
    term ``quad[i] r^2`` is used, so its cancellation noise is never sampled.
    The other pieces are integrated in ``log r``.  Each problem's tolerance
    ``tol[i]`` is split evenly over its pieces.
    """
    c = np.array([nu.c for nu in nus])
    alpha = np.array([nu.alpha for nu in nus])
    total = np.zeros(len(nus))
    tails = np.zeros(len(nus))
    shells, pieces = [], []
    for i, lo in enumerate(lows):
        if c[i] == 0.0:
            continue
        bps = sorted({b for b in breaks[i] if b > lo})
        piece_tol = tol[i] / (2.0 * max(len(bps), 1))
        if lo == 0.0 and bps:
            lo = bps.pop(0)
            shells.append((i, lo, quad[i], piece_tol))
        for b in bps:
            pieces.append((i, math.log(lo), math.log(b), piece_tol))
            lo = b
        if tail[i] != 0.0:
            if lo <= 0.0:
                raise QuadratureError("constant tail against an infinite-mass measure")
            tails[i] = tail[i] * c[i] * lo ** (-alpha[i]) / alpha[i]

    if shells:
        p, b, q, ptol = (np.array(v) for v in zip(*shells))
        p = p.astype(int)
        beta = 1.0 / (2.0 - alpha[p])
        scale = c[p] * beta * b ** (-alpha[p])
        s_lo = (np.minimum(1e-5, 0.1 * b) / b) ** (2.0 - alpha[p])

        def shell(k, s):
            g = sphere_term(p[k], b[k, None] * s ** beta[k, None])
            return scale[k, None] * s ** (-2.0 * beta[k, None]) * g

        total[p] = scale * q * b * b * s_lo + _gauss_legendre_many(
            shell, s_lo, np.ones_like(s_lo), ptol, tol_rel, width, lambda k: describe(p[k]))

    if pieces:
        pp, u_lo, u_hi, ptol = (np.array(v) for v in zip(*pieces))
        pp = pp.astype(int)

        def piece(k, u):
            r = np.exp(u)
            return c[pp[k], None] * r ** (-alpha[pp[k], None]) * sphere_term(pp[k], r)

        np.add.at(total, pp, _gauss_legendre_many(piece, u_lo, u_hi, ptol, tol_rel, width,
                                                  lambda k: describe(pp[k])))
    return total + tails


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


def _cuts(lo: float, *radii: float) -> list[float]:
    """``lo``, the radii above it in increasing order, then infinity."""
    return [lo] + sorted({r for r in radii if r > lo}) + [np.inf]


def _base_points(points, m: int, dim: int) -> np.ndarray:
    """``points`` as an (m, dim) array of finite points; a 1-d point may be
    given as a scalar."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and dim == 1:
        pts = pts[:, None]
    if pts.shape != (m, dim):
        raise ValidationError(
            f"expected {m} base points of dimension {dim}, got an array of shape {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValidationError(f"base point {pts[bad[0]].tolist()} is not finite")
    return pts


def _sphere_points(rule: _SphereRule, pts: np.ndarray, r: np.ndarray):
    """``pts[i] + r[i, j] * node_k`` as a (k, n, nodes, d) array, and ``pts[i]``
    broadcast to the same shape."""
    b = pts[:, None, None, :] + r[:, :, None, None] * rule.nodes
    return b, np.broadcast_to(pts[:, None, None, :], b.shape)


def _other_rows(nus, pts, row_fn, out) -> list[int]:
    """Fill ``out`` with ``row_fn(nu, a)`` at every row whose measure is not
    StableLike; return the StableLike rows."""
    stable = []
    for i, nu in enumerate(nus):
        if isinstance(nu, StableLike):
            stable.append(i)
        else:
            out[i] = row_fn(nu, pts[i])
    return stable


def jump_integral(nus: Sequence, chi: CompensationFunction, f: TestFunction, points,
                  tol_abs: float = DEFAULT_TOL_ABS,
                  tol_rel: float = DEFAULT_TOL_REL) -> np.ndarray:
    """The compensated jump part of the operator at each row of ``points``.

    ``nus[i]`` is the jump measure at the base point ``points[i]``.  Atom
    locations are absolute; radial measures are centred at the base point.
    The cemetery, where ``f`` vanishes, contributes ``-f(a)`` times its
    mass.  All StableLike rows are integrated together by
    `_gauss_legendre_many`; a row's value does not depend on the other rows.
    """
    pts = _base_points(points, len(nus), f.dim)
    out = np.zeros(len(nus))
    stable = _other_rows(nus, pts, lambda nu, a: _jump_integral_row(nu, chi, f, a, tol_abs,
                                                                     tol_rel), out)
    if not stable:
        return out
    if not chi.is_odd():
        raise ValidationError(
            "radial integration of a non-odd custom compensation function is "
            "not supported; supply an odd chi or an Atoms/UserDensity measure"
        )
    rule = _sphere_rule(f.dim)
    nus_s, pts_s = [nus[i] for i in stable], pts[stable]
    fa, grad, hess = f(pts_s), f.grad(pts_s), f.hess(pts_s)
    nodes, wts = rule.nodes, rule.weights
    hn = (hess[:, None, :, :] * nodes[None, :, None, :]).sum(axis=-1)
    quad = 0.5 * ((hn * nodes).sum(axis=-1) * wts).sum(axis=-1)
    radii = f.support_radii(pts_s)
    # The integrand is cut where f may stop being smooth and at the kinks of
    # chi, and ends at the support reach.
    breaks = [[k for k in chi.radial_kinks() if k < row[1]] + list(row) for row in radii]
    # Beyond the support reach f vanishes and the odd chi term cancels on
    # the symmetric rule, leaving -f(a) per unit mass.
    tail = -fa * rule.surface

    def sphere_term(p, r):
        b, base = _sphere_points(rule, pts_s[p], r)
        flat = b.reshape(-1, f.dim)
        comp = (chi.pairwise(base.reshape(-1, f.dim), flat).reshape(b.shape)
                * grad[p][:, None, None, :]).sum(axis=-1)
        vals = f(flat).reshape(b.shape[:-1]) - fa[p][:, None, None] - comp
        return (vals * wts).sum(axis=-1)

    out[stable] = _stable_radial_many(
        nus_s, [nu.min_radius for nu in nus_s], breaks, quad, tail,
        np.full(len(stable), tol_abs), tol_rel, sphere_term, nodes.shape[0],
        lambda i: f"jump integral of {f.name} against {nus_s[i]!r} "
                  f"at base point {pts_s[i].tolist()}")
    return out


def _jump_integral_row(nu, chi, f, a, tol_abs, tol_rel) -> float:
    fa = f.value_at(a)
    grad = f.grad_at(a)
    if isinstance(nu, Atoms):
        if nu.mass_at(a) > 0.0:
            raise ValidationError("jump measure must not charge the base point")
        comp = chi(a, nu.points) @ grad
        return -nu.delta_mass * fa + float(np.sum(nu.masses * (f(nu.points) - fa - comp)))
    if isinstance(nu, UserDensity):
        return _user_jump_integral(nu, chi, f, a, fa, grad, tol_abs, tol_rel)
    raise ValidationError(f"unsupported jump measure type {type(nu).__name__}")


def _user_jump_integral(nu: UserDensity, chi, f, a, fa, grad, tol_abs, tol_rel) -> float:
    g = float(grad[0])

    def core(h):
        # f(a+h) - f(a) - h f'(a) = h^2 int_0^1 (1-t) f''(a+th) dt, and
        # h - chi(a, a+h) in closed form: nothing cancels however small h is.
        rem = float(np.dot(_TAYLOR_W, f.hess(a + h * _TAYLOR_T[:, None])[:, 0, 0]))
        return h * h * rem + float(chi.deviation(a, np.array([[h]]))[0, 0]) * g

    def direct(h):
        b = (a + h)[None, :]
        return float(f(b)[0]) - fa - float(chi(a, b)[0, 0]) * g

    reach = float(f.support_distances(a[None, :])[1][0])
    return (nu.integral(core, [0.0, _TAYLOR_RADIUS], tol_abs / 2.0, tol_rel)
            + nu.integral(direct, _cuts(_TAYLOR_RADIUS, reach, *chi.radial_kinks()),
                          tol_abs / 2.0, tol_rel))


def measure_integral(nus: Sequence, f: TestFunction, points, tol_abs: float = DEFAULT_TOL_ABS,
                     tol_rel: float = DEFAULT_TOL_REL) -> np.ndarray:
    """integral of f(b) nus[i](db) at each row of ``points``, f vanishing near each.

    Every base point must lie outside the closed support of ``f``.  All
    StableLike rows are integrated together by `_gauss_legendre_many`; a
    row's value does not depend on the other rows.
    """
    pts = _base_points(points, len(nus), f.dim)
    dist = f.support_distances(pts)[0]
    close = np.flatnonzero(~(dist > 0.0))
    if close.size:
        raise ValidationError(
            f"test function {f.name} does not vanish near the point {pts[close[0]].tolist()}"
        )
    out = np.zeros(len(nus))
    stable = _other_rows(nus, pts, lambda nu, a: _measure_integral_row(nu, f, a, tol_abs,
                                                                        tol_rel), out)
    if not stable:
        return out
    rule = _sphere_rule(f.dim)
    nus_s, pts_s = [nus[i] for i in stable], pts[stable]
    lo = np.maximum([nu.min_radius for nu in nus_s], dist[stable])
    zero = np.zeros(len(stable))

    def sphere_term(p, r):
        b = _sphere_points(rule, pts_s[p], r)[0]
        vals = f.fn(b.reshape(-1, f.dim)).reshape(b.shape[:-1])
        return (vals * rule.weights).sum(axis=-1)

    # f vanishes below the support distance and beyond the reach.
    out[stable] = _stable_radial_many(
        nus_s, lo, f.support_radii(pts_s), zero, zero, np.full(len(stable), tol_abs), tol_rel,
        sphere_term, rule.nodes.shape[0],
        lambda i: f"measure integral of {f.name} against {nus_s[i]!r} "
                  f"at base point {pts_s[i].tolist()}")
    return out


def _measure_integral_row(nu, f, a, tol_abs, tol_rel) -> float:
    if isinstance(nu, Atoms):
        return float(np.sum(nu.masses * f(nu.points)))
    if isinstance(nu, UserDensity):
        # f vanishes below the support distance and beyond the reach.
        dist, reach = (float(v[0]) for v in f.support_distances(a[None, :]))
        return nu.integral(lambda h: f.value_at(a + h), [dist, reach], tol_abs / 2.0, tol_rel)
    raise ValidationError(f"unsupported jump measure type {type(nu).__name__}")


def chi_quadratic_matrix(nus: Sequence, chi: CompensationFunction, points,
                         tol_abs: float = DEFAULT_TOL_ABS,
                         tol_rel: float = DEFAULT_TOL_REL) -> np.ndarray:
    """integral of chi_i chi_j (a, b) nus[k](db) at each row a of ``points``, as (m, d, d).

    Every measure must share one dimension.  All StableLike rows and matrix
    entries are integrated together by `_gauss_legendre_many`; a row's value
    does not depend on the other rows.
    """
    dims = {nu.dim for nu in nus}
    if len(dims) != 1:
        raise ValidationError(f"expected jump measures of one dimension, got {sorted(dims)}")
    dim, = dims
    pts = _base_points(points, len(nus), dim)
    out = np.zeros((len(nus), dim, dim))
    stable = _other_rows(nus, pts, lambda nu, a: _chi_quadratic_row(nu, chi, a, tol_abs,
                                                                     tol_rel), out)
    if not stable:
        return out
    rule = _sphere_rule(dim)
    nodes, wts = rule.nodes, rule.weights
    theta_mat = np.einsum("k,ki,kj->ij", wts, nodes, nodes)
    # The singular shell ends at radius 1 at the latest: stretched over
    # [0, r_cut], its substitution squeezes the bend of chi near r = 1
    # into a sliver that the quadrature does not see.
    kinks = sorted({1.0, *chi.radial_kinks()})
    cuts: dict[StableLike, float] = {}
    if chi.is_shift_invariant():
        # chi depends on b - a only, so a radial measure has one matrix at
        # every point: each distinct measure is integrated once, at the origin.
        index: dict[StableLike, int] = {}
        owner = [index.setdefault(nus[i], len(index)) for i in stable]
        measures = list(index)
        bases = np.zeros((len(measures), dim))
    else:
        measures, bases, owner = [nus[i] for i in stable], pts[stable], list(range(len(stable)))
    rows = [(k, i, j) for k in range(len(measures)) for i in range(dim) for j in range(i, dim)]
    row, ci, cj = (np.array(v, dtype=int) for v in zip(*rows))
    problems = [measures[k] for k in row]

    def sphere_term(p, r):
        b, base = _sphere_points(rule, bases[row[p]], r)
        vals = chi.pairwise(base.reshape(-1, dim), b.reshape(-1, dim)).reshape(b.shape)
        k = np.arange(len(p))
        return (vals[k, :, :, ci[p]] * vals[k, :, :, cj[p]] * wts).sum(axis=-1)

    vals = _stable_radial_many(
        problems, [nu.min_radius for nu in problems],
        [kinks + [_chi_square_cut(chi, nu, kinks, tol_abs, cuts)] for nu in problems],
        theta_mat[ci, cj], np.zeros(len(rows)), np.full(len(rows), tol_abs / dim ** 2),
        tol_rel, sphere_term, nodes.shape[0],
        lambda p: f"chi_{ci[p] + 1} chi_{cj[p] + 1} integral of {chi.name} against "
                  f"{problems[p]!r} at base point {pts[stable[owner.index(row[p])]].tolist()}")
    mats = np.zeros((len(measures), dim, dim))
    mats[row, ci, cj] = vals
    mats[row, cj, ci] = vals
    out[stable] = mats[owner]
    return out


def _chi_square_cut(chi, nu: StableLike, kinks, tol_abs: float, cuts: dict) -> float:
    """Radius beyond which the chi-squared remainder bound (decay-aware per
    compensation function) is below a quarter of ``tol_abs``."""
    if nu not in cuts:
        r_cut = max([2.0] + [k * 2 for k in kinks])
        while (chi.abs_bound_beyond(r_cut) ** 2 * nu.tail_mass(max(r_cut, 1e-300))
               > 0.25 * tol_abs and r_cut < 1e12):
            r_cut *= 2.0
        cuts[nu] = r_cut
    return cuts[nu]


def _chi_quadratic_row(nu, chi, a, tol_abs, tol_rel) -> np.ndarray:
    if isinstance(nu, Atoms):
        vals = chi(a, nu.points)
        return np.einsum("k,ki,kj->ij", nu.masses, vals, vals)
    if isinstance(nu, UserDensity):
        def chi_sq(h):
            return float(chi(a, (a + h)[None, :])[0, 0]) ** 2

        # the Taylor radius gives the singular end at 0 a short piece of its own
        total = nu.integral(chi_sq, _cuts(0.0, _TAYLOR_RADIUS, *chi.radial_kinks()),
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
    dim = nu.dim
    a = np.zeros(dim) if a is None else as_point(a, dim)

    if isinstance(nu, Atoms):
        # The empty sum is -0.0, the zero that leaves every drift it is added
        # to unchanged, -0.0 included.
        out = np.full(dim, -0.0)
        if len(nu.masses):
            dv = chi_to(a, nu.points) - chi_from(a, nu.points)
            out = np.einsum("k,ki->i", nu.masses, dv)
        return out

    if isinstance(nu, StableLike):
        if chi_from.is_odd() and chi_to.is_odd():
            return np.zeros(dim)  # odd integrand against a radial measure
        raise ValidationError("drift adjustment for non-odd chi needs Atoms or UserDensity")

    if isinstance(nu, UserDensity):
        def chi_gap(h):
            # chi_to - chi_from = dev_from - dev_to, cubically small at h = 0
            hh = np.array([[h]])
            return float(chi_from.deviation(a, hh)[0, 0] - chi_to.deviation(a, hh)[0, 0])

        kinks = chi_from.radial_kinks() + chi_to.radial_kinks()
        total = nu.integral(chi_gap, _cuts(0.0, *kinks), tol_abs, tol_rel)
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
    return local + float(jump_integral([triplet.jumps], chi, f, a[None, :], tol_abs, tol_rel)[0])


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
    n = int(points_per_axis)
    if n > 2 and n ** d > cap:
        # The largest n with n**d <= cap, but at least 2; the float root is
        # within 0.5 of the true one, so its rounding is at most one too high.
        n = round(cap ** (1.0 / d))
        if n ** d > cap:
            n -= 1
        n = max(n, 2)
    axes = [np.linspace(low[i], high[i], n) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def convergence_gaps(fields: Sequence[TripletField], limit: TripletField,
                     chi: CompensationFunction, low, high,
                     testfns: Sequence[TestFunction] | None = None,
                     grid_points: int = 64, labels: Sequence[str] | None = None,
                     tol_abs: float = 1e-8, tol_rel: float = 1e-6) -> list[ConvergenceReport]:
    """Per-field sup gaps of the three triplet convergence conditions.

    The supremum over the compact box is approximated by a deterministic
    grid; each test function used in the jump gap must vanish at every grid
    point, otherwise `measure_integral` raises a precondition error naming
    the offending pair.  ``labels`` holds one string per field.
    """
    low, high = _box(low, high, limit.dim)
    if grid_points < 1:
        raise ValidationError(f"grid_points must be at least 1, got {grid_points}")
    if labels is None:
        labels = [f"n={idx}" for idx in range(len(fields))]
    elif not (isinstance(labels, (list, tuple)) and len(labels) == len(fields)
              and all(isinstance(s, str) for s in labels)):
        raise ValidationError(f"labels must be a list of {len(fields)} strings, one per field")
    grid = _box_grid(low, high, grid_points)
    if testfns is None:
        testfns = vanishing_test_functions(low, high, limit.dim)

    ref = _gap_components(limit, chi, grid, testfns, tol_abs, tol_rel)
    reports = []
    for label, fld in zip(labels, fields):
        cur = _gap_components(fld, chi, grid, testfns, tol_abs, tol_rel)
        drift_gap = float(np.max(np.abs(cur[0] - ref[0])))
        jump_gaps = {f.name: float(np.max(np.abs(cur[1][f.name] - ref[1][f.name])))
                     for f in testfns}
        carre_gap = np.max(np.abs(cur[2] - ref[2]), axis=0)
        reports.append(ConvergenceReport(label, drift_gap, jump_gaps, carre_gap))
    return reports


def _gap_components(fld: TripletField, chi, grid, testfns, tol_abs, tol_rel):
    """Drift (m, d), measure integral per test function (m,) and carre du
    champ (m, d, d) of ``fld`` over the grid, one batched call per term."""
    trips = [fld(a) for a in grid]
    nus = [t.jumps for t in trips]
    drift = np.array([t.drift for t in trips])
    jumps = {f.name: measure_integral(nus, f, grid, tol_abs, tol_rel) for f in testfns}
    carre = np.array([t.gamma for t in trips]) + chi_quadratic_matrix(
        nus, chi, grid, tol_abs, tol_rel)
    return drift, jumps, carre


# Optimizer starts per test function, and the largest operator value
# `pmp_spot_check` accepts at a nonnegative maximum.
PMP_STARTS = 32
PMP_TOL = 1e-6


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
                   testfns: Sequence[TestFunction], seed: int = 0) -> PMPReport:
    """Locate each test function's maximum from ``PMP_STARTS`` starts and
    check that the operator there is at most ``PMP_TOL``."""
    if not testfns:
        raise ValidationError("pmp_spot_check needs at least one test function")
    gen = _rng.stream(seed, namespace=_rng.SCRATCH)
    report = PMPReport()
    for f in testfns:
        best_x, best_v = None, -math.inf
        lows, highs = f.support_low, f.support_high
        x0s = gen.uniform(lows, highs, size=(PMP_STARTS, f.dim))
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
        report.entries.append(PMPEntry(f.name, best_x, best_v, g, g <= PMP_TOL))
    return report
