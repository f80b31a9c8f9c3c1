"""Explicit simulation scheme for symmetric stable-type dynamics.

The single-step transition from a point ``a`` at scale ``n`` draws a uniform
sphere direction and an inverse-power radius; its law is exactly the
normalized truncation of the radial density ``c(a) |h|^{-d-alpha(a)}`` to
radii above a closed-form threshold.  Composing steps and embedding with the
floor clock ``t -> Z_{floor(n t)}`` approximates the continuous dynamics.
The chain runs on the shared block driver :func:`levylab.core.run_chain`;
this module supplies its one-step kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as _rng
from .core import (
    LevyTriplet,
    PathBatch,
    SchemeConfig,
    StableLike,
    TripletField,
    as_point,
    escaped,
    run_chain,
    sphere_surface_area,
)
from .errors import ValidationError


@dataclass(frozen=True)
class StableField(TripletField):
    """State-dependent scale ``c >= 0`` and index ``alpha in (0, 2)``.

    Both callables take an (m, d) array of points and return (m,) arrays;
    scalars are accepted and broadcast.  As a triplet field, drift and
    diffusion vanish and the jump measure at ``a`` is the radial density
    ``StableLike(c(a), alpha(a))``, or the zero measure where ``c(a) = 0``.
    """

    c: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[np.ndarray], np.ndarray]
    dim: int = 1

    @staticmethod
    def constant(c: float, alpha: float, dim: int = 1) -> "StableField":
        c, alpha = float(c), float(alpha)
        return StableField(lambda x: c, lambda x: alpha, dim)

    def evaluate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scale and index at each of the (m, d) points, as read-only (m,) arrays."""
        points = np.atleast_2d(points)
        m = points.shape[0]
        c = np.asarray(self.c(points), dtype=float)
        a = np.asarray(self.alpha(points), dtype=float)
        # One min/max pair per array; a NaN fails both comparisons.
        if c.size and not (c.min() >= 0 and c.max() < np.inf):
            raise ValidationError("the scale function must be finite and nonnegative")
        if a.size and not (a.min() > 0 and a.max() < 2):
            raise ValidationError("the stability index must stay inside (0, 2)")
        return _read_only(c, m), _read_only(a, m)

    def __call__(self, a) -> LevyTriplet:
        c, alpha = self.evaluate(as_point(a, self.dim)[None, :])
        d = self.dim
        nu = StableLike(c=float(c[0]), alpha=float(alpha[0]), dim=d) if c[0] > 0 else None
        return LevyTriplet(np.zeros(d), np.zeros((d, d)), nu)


def _read_only(values: np.ndarray, m: int) -> np.ndarray:
    """``values`` as a read-only (m,) view, broadcast only if not (m,) already."""
    if values.shape != (m,):
        return np.broadcast_to(values, (m,))
    view = values.view()
    view.flags.writeable = False
    return view


def stable_jump_magnitude(c, alpha, dim: int, n: float, u) -> np.ndarray:
    """Radius of a single step given the uniform variate ``u`` in (0, 1]."""
    s = sphere_surface_area(dim)
    c = np.asarray(c, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    u = np.asarray(u, dtype=float)
    return (c * s / (n * alpha * u)) ** (1.0 / alpha)


def stable_tail_probability(c: float, alpha: float, dim: int, n: float, r) -> np.ndarray:
    """P(|step| > r) for the single-step law; capped at one below the threshold."""
    s = sphere_surface_area(dim)
    r = np.asarray(r, dtype=float)
    return np.minimum(1.0, c * s / (n * alpha * r ** alpha))


def stable_chain_simulate(field: StableField, start, n: float, horizon: float,
                          config: SchemeConfig) -> PathBatch:
    """Simulate the stable-type chain and emit its floor-time embedding.

    ``ceil(n * horizon)`` steps are taken per path; the returned batch holds
    the embedding t -> Z_{floor(n t)} sampled on the configured output grid.
    States with zero scale hold their position for the step; paths beyond
    the escape radius are absorbed at the cemetery.
    """
    if not n >= 1:
        raise ValidationError("the scale n must be at least 1")
    grid, n_steps, capture = config.clock(horizon, lambda t: t * n)

    def step(x, gen, limit):
        c, alpha = field.evaluate(x)
        q = _rng.sphere_draw(gen, x.shape[0], field.dim)
        u = _rng.uniform_open_closed(gen, x.shape[0])
        # u > 0 and alpha > 0, so a zero scale gives a magnitude of exactly +0.0.
        mag = stable_jump_magnitude(c, alpha, field.dim, n, u)
        x = x + _rng.along(q, mag)
        return x, escaped(x, config.escape_radius), 1

    return run_chain(start, step, n_steps, capture, 1.0 / n, grid, field.dim, config)


def scheme_triplet_field(field: StableField, n: float) -> TripletField:
    """Triplet field of the normalized single-step law at scale ``n``.

    The step law, scaled by ``n`` and with the point mass at the base point
    removed, is the radial density truncated below the step threshold with
    zero drift (by symmetry) and zero diffusion; feeding these fields to the
    convergence checkers probes the scheme's generator gap directly.
    """

    def fn(a: np.ndarray) -> LevyTriplet:
        c, alpha = field.evaluate(a[None, :])
        d = field.dim
        if c[0] == 0.0:
            return LevyTriplet(np.zeros(d), np.zeros((d, d)), None)
        # the step threshold: the magnitude at u = 1, the smallest a step takes
        rmin = float(stable_jump_magnitude(c[0], alpha[0], d, n, 1.0))
        nu = StableLike(c=float(c[0]), alpha=float(alpha[0]), dim=d, min_radius=rmin)
        return LevyTriplet(np.zeros(d), np.zeros((d, d)), nu)

    return TripletField(fn, field.dim)
