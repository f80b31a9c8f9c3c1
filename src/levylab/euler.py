"""Euler scheme: advance by an increment of the Levy process frozen at the
current state.

Exact increments are unavailable for general triplets, so each step samples
a decomposition: deterministic drift (with the compensation convention
folded in), an exact Gaussian part, and a compound-Poisson sum of jumps
above a truncation radius.  Jumps below the radius are either dropped (they
form a mean-zero compensated sum, so the step stays unbiased) or replaced
by a Gaussian surrogate matching their second moment.  The chain runs on the
shared block driver :func:`levylab.core.run_chain` with time step ``eps``;
cemetery jumps and the escape radius absorb paths.

A :class:`StableField`'s jumps are drawn and summed a range of paths at a
time, so its step's memory per thread is bounded by ``_JUMP_CHUNK`` jumps
(or one path's jumps, if more), whatever the block's jump count; the stream
and the sums are those of one draw over the block.  ``MAX_EXPECTED_JUMPS``
bounds a step's time, not its memory.  The frozen engine of a constant
triplet still draws a block's tail jumps in one go.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import (
    Atoms,
    Chi1,
    Chi2,
    CompensationFunction,
    ConstantTripletField,
    LevyTriplet,
    PathBatch,
    SchemeConfig,
    StableLike,
    TripletField,
    UserDensity,
    as_point,
    run_chain,
    sphere_surface_area,
)
from .errors import SchemeStepError, ValidationError
from .operators import chi_drift_adjustment
from .stable import StableField

DRIFT_COMPENSATE = "drift-compensate"
GAUSSIAN_SURROGATE = "gaussian-surrogate"

# A step whose compound-Poisson part expects more jumps per path than this is
# refused rather than drawn.  It bounds a step's time; the stable-fast step's
# memory is bounded by _JUMP_CHUNK.
MAX_EXPECTED_JUMPS = 1e6

# The stable-fast step draws and sums its jumps for ranges of whole paths
# holding at most this many jumps (or one path, when that path alone holds more).
_JUMP_CHUNK = 1 << 18


@dataclass(frozen=True)
class IncrementPlan:
    """How one Levy increment is synthesized from a triplet.

    ``tau`` is the small-jump truncation radius; it must stay below the
    compensation cutoff so every sampled jump's compensator is known.
    """

    tau: float = 1e-3
    small_jump_mode: str = DRIFT_COMPENSATE

    def __post_init__(self):
        if not self.tau > 0:
            raise ValidationError("the truncation radius must be positive")
        if not self.tau < 1.0:
            raise ValidationError(
                "the truncation radius must stay below the unit compensation cutoff"
            )
        if self.small_jump_mode not in (DRIFT_COMPENSATE, GAUSSIAN_SURROGATE):
            raise ValidationError(f"unknown small-jump mode {self.small_jump_mode!r}")


def _guard_jump_count(expected) -> None:
    """Refuse a step whose expected jump count (scalar or per path) is too large."""
    if np.any(expected > MAX_EXPECTED_JUMPS):
        raise SchemeStepError(
            f"expected jump count {np.max(expected):.3e} exceeds the overflow guard; "
            "decrease the step size or raise the truncation radius"
        )


def gaussian_factor(gamma: np.ndarray) -> np.ndarray:
    """A square root of the diffusion matrix, tolerant of tiny negative modes."""
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    if not np.any(gamma):
        return np.zeros_like(gamma)
    try:
        return np.linalg.cholesky(gamma)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(0.5 * (gamma + gamma.T))
        w = np.clip(w, 0.0, None)
        return v * np.sqrt(w)[None, :]


def _compensator_window(nu, lo: float, hi: float) -> np.ndarray:
    """integral of h over lo < |h| < hi against nu (a vector), per variant."""
    if isinstance(nu, Atoms):
        r = np.linalg.norm(nu.points, axis=1)
        keep = (r > lo) & (r < hi)
        return np.einsum("k,ki->i", nu.masses[keep], nu.points[keep])
    if isinstance(nu, StableLike):
        return np.zeros(nu.dim)  # radial symmetry
    if isinstance(nu, UserDensity):
        return np.array([nu.integral(lambda h: h, [lo, hi], 1e-10, 1e-8)])
    raise ValidationError(f"unsupported jump measure type {type(nu).__name__}")


def effective_drift(triplet: LevyTriplet, chi: CompensationFunction,
                    plan: IncrementPlan) -> np.ndarray:
    """Drift of the sampled step once jumps above tau are taken raw.

    The triplet is frozen at the origin, so atom locations are jump vectors.
    The jumps in [tau, 1) replace a compensated (martingale) integral, so
    their compensator is subtracted from the drift; a triplet expressed in
    the smooth compensation convention is first converted to the hard
    cutoff through the drift adjustment integral.
    """
    nu = triplet.jumps
    delta = triplet.drift.copy()
    if isinstance(chi, Chi1):
        delta = delta + chi_drift_adjustment(nu, Chi1(), Chi2())
    elif not isinstance(chi, Chi2):
        raise ValidationError(
            "increment sampling supports the built-in compensation conventions only"
        )
    return delta - _compensator_window(nu, plan.tau, 1.0)


def _sample_tail_jumps(nu, rng: np.random.Generator, size: int, tau: float):
    """Draw ``size`` jump vectors from the normalized tail; flags cemetery jumps."""
    if isinstance(nu, Atoms):
        # Called only at a positive tail rate, which sums exactly these weights.
        keep = np.linalg.norm(nu.points, axis=1) > tau
        weights = np.concatenate([nu.masses[keep], [nu.delta_mass]])
        idx = rng.choice(len(weights), size=size, p=weights / weights.sum())
        to_delta = idx == len(weights) - 1
        jumps = np.zeros((size, nu.dim))
        jumps[~to_delta] = nu.points[keep][idx[~to_delta]]
        return jumps, to_delta
    return nu.sample_tail(rng, size, tau), np.zeros(size, dtype=bool)


def _path_ranges(counts: np.ndarray):
    """Yield ``(p0, p1)``: consecutive ranges of whole paths tiling ``counts``.

    ``counts`` holds each path's jump count.  A range holds at most
    ``_JUMP_CHUNK`` jumps, or one path when that path alone holds more.
    """
    ends = np.cumsum(counts)
    p0 = 0
    while p0 < len(counts):
        first = ends[p0] - counts[p0]
        p1 = max(p0 + 1, int(np.searchsorted(ends, first + _JUMP_CHUNK, side="right")))
        yield p0, p1
        p0 = p1


def _frozen_sampler(triplet: LevyTriplet, chi: CompensationFunction, dt: float,
                    plan: IncrementPlan):
    """Sampler of increments over ``dt`` of a triplet frozen at the origin.

    The drift, Gaussian factor, jump rate and surrogate scale are computed
    here, once; ``sample(gen, size)`` then draws ``size`` increments and a
    mask of the samples that jumped straight to the cemetery.
    """
    if not dt > 0:
        raise ValidationError("the step duration must be positive")
    d = triplet.dim
    nu = triplet.jumps
    drift_dt = effective_drift(triplet, chi, plan) * dt
    factor = gaussian_factor(triplet.gamma)
    diffuse = bool(np.any(factor))
    sqrt_dt = np.sqrt(dt)
    rate = nu.tail_mass(plan.tau) * dt
    _guard_jump_count(rate)
    surrogate_sd = None
    if plan.small_jump_mode == GAUSSIAN_SURROGATE:
        var = nu.truncated_second_moment(plan.tau) / d
        if var > 0.0:
            surrogate_sd = np.sqrt(var * dt)

    def sample(gen: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        inc = np.tile(drift_dt, (size, 1))
        dead = np.zeros(size, dtype=bool)
        if diffuse:
            inc += sqrt_dt * gen.standard_normal((size, d)) @ factor.T
        if rate > 0.0:
            counts = gen.poisson(rate, size=size)
            total = int(counts.sum())
            if total:
                jumps, to_delta = _sample_tail_jumps(nu, gen, total, plan.tau)
                owner = np.repeat(np.arange(size), counts)
                if np.any(to_delta):
                    dead |= np.bincount(owner[to_delta], minlength=size).astype(bool)
                np.add.at(inc, owner, jumps)
        if surrogate_sd is not None:
            inc += surrogate_sd * gen.standard_normal((size, d))
        return inc, dead

    return sample


def levy_increment_sample(triplet: LevyTriplet, chi: CompensationFunction, dt: float,
                          plan: IncrementPlan, rng: np.random.Generator,
                          size: int = 1, at=None) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``size`` increments over duration ``dt`` of the frozen triplet.

    ``at`` is the freezing point: atom locations are absolute, so jumps are
    taken toward them from ``at`` (default origin, in which case atom
    locations are the jump vectors themselves).  Returns the increments and
    a mask of samples that jumped straight to the cemetery.
    """
    if at is not None:
        at = as_point(at, triplet.dim)
        triplet = LevyTriplet(triplet.drift, triplet.gamma, triplet.jumps.shifted(-at),
                              _checked=False)
    return _frozen_sampler(triplet, chi, dt, plan)(rng, size)


def _stable_increments(field: StableField, x: np.ndarray, chi: CompensationFunction,
                       dt: float, plan: IncrementPlan, gen: np.random.Generator):
    """Increments over ``dt`` of the stable field frozen at each row of ``x``.

    Drift and diffusion vanish and the jump measure is radial, so a whole
    block of states is stepped in one shot.
    """
    if not isinstance(chi, (Chi1, Chi2)):
        raise ValidationError(
            "increment sampling supports the built-in compensation conventions only"
        )
    m, d = x.shape
    c, alpha = field.evaluate(x)
    surf = sphere_surface_area(d)
    lam = c * surf * plan.tau ** (-alpha) / alpha
    _guard_jump_count(lam * dt)
    counts = gen.poisson(lam * dt)
    # The stream holds all the radii first, one word each, and all the
    # directions after them: the radii come from a copy of gen, which skips
    # past them.  Drawn a range after another, both give the one-shot draw.
    radius_gen = _rng.skip_ahead(gen, int(counts.sum()))
    expo = -1.0 / alpha
    inc = np.zeros((m, d))
    for p0, p1 in _path_ranges(counts):
        k = counts[p0:p1]
        radii = _rng.uniform_open_closed(radius_gen, int(k.sum()))
        np.power(radii, np.repeat(expo[p0:p1], k), out=radii)
        radii *= plan.tau
        jumps = _rng.along(_rng.sphere_draw(gen, len(radii), d), radii)
        owner = np.repeat(np.arange(p1 - p0), k)
        # Summed in owner order from zero, as np.add.at would.
        for j in range(d):
            inc[p0:p1, j] = np.bincount(owner, weights=jumps[:, j], minlength=p1 - p0)
    if plan.small_jump_mode == GAUSSIAN_SURROGATE:
        var = c * surf * plan.tau ** (2.0 - alpha) / (2.0 - alpha) / d
        inc += np.sqrt(var * dt)[:, None] * gen.standard_normal((m, d))
    # Radial symmetry kills both the compensator window and the
    # convention adjustment, so no drift term appears.
    return inc, np.zeros(m, dtype=bool)


def euler_chain_simulate(field: TripletField, chi: CompensationFunction, start,
                         eps: float, horizon: float, plan: IncrementPlan,
                         config: SchemeConfig) -> PathBatch:
    """Iterate frozen-increment steps and emit the floor-time embedding.

    The engine follows the field's class.  A :class:`ConstantTripletField`
    runs ``frozen``: one sampler, built once per run, steps whole path
    blocks.  A :class:`StableField` runs ``stable-fast``, vectorized
    over the block's states.  Any other field runs ``per-path``, one
    increment sampler per path and step, and is correspondingly slower.  A
    path is absorbed at the cemetery by a cemetery jump or beyond the
    escape radius.
    """
    if not eps > 0:
        raise ValidationError("the step size must be positive")
    grid, n_steps, capture = config.clock(horizon, lambda t: t / eps)

    if isinstance(field, ConstantTripletField):
        sample = _frozen_sampler(field.triplet, chi, eps, plan)

        def increments(x, gen):
            return sample(gen, x.shape[0])
    elif isinstance(field, StableField):
        def increments(x, gen):
            return _stable_increments(field, x, chi, eps, plan, gen)
    else:
        def increments(x, gen):
            draws = [levy_increment_sample(field(a), chi, eps, plan, gen, size=1, at=a)
                     for a in x]
            return (np.concatenate([inc for inc, _ in draws]),
                    np.concatenate([dead for _, dead in draws]))

    def step(x, gen, limit):
        inc, to_delta = increments(x, gen)
        x = x + inc
        return x, to_delta | (np.linalg.norm(x, axis=1) > config.escape_radius), 1

    return run_chain(start, step, n_steps, capture, eps, grid, field.dim, config)
