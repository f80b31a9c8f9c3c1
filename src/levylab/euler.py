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

Both engines, ``frozen`` for a constant triplet and ``stable-fast`` for a
stable field, draw and sum their tail jumps a range of paths at a time, so
a step's memory per thread is bounded by ``_JUMP_CHUNK`` jumps (or one
path's jumps, if more), whatever the block's jump count; the stream and the
sums are those of one draw over the block.  ``MAX_EXPECTED_JUMPS``
bounds a step's time, not its memory.  A range of 2^16 jumps keeps each of
its arrays (radii, exponents, directions, owners) at 512 KB, so a range's
working set stays in a core's L2 cache.  Against 2^18 jumps, on a 2-vCPU
Intel Xeon, one step of 16384 paths (6.9 million jumps) took 164 ms instead
of 208 (best of 15), and a process running perfbench's 32768-path Euler
call peaked at 54 MB of RSS instead of 65.
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
    run_chain,
    sphere_surface_area,
)
from .errors import SchemeStepError, ValidationError
from .operators import chi_drift_adjustment
from .stable import StableField

DRIFT_COMPENSATE = "drift-compensate"
GAUSSIAN_SURROGATE = "gaussian-surrogate"

# A step whose compound-Poisson part expects more jumps per path than this is
# refused rather than drawn.  It bounds a step's time; a step's memory is
# bounded by _JUMP_CHUNK.
MAX_EXPECTED_JUMPS = 1e6

# A step draws and sums its tail jumps for ranges of whole paths holding at
# most this many jumps (or one path, when that path alone holds more).
# At 2^16 a range's arrays are 512 KB each and stay in L2: a step measured a
# fifth faster and 11 MB lighter than at 2^18 (module docstring); 2^15 was
# no faster than 2^16.
_JUMP_CHUNK = 1 << 16


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
        with np.errstate(over="ignore"):  # a norm past ~1e154 is inf, beyond hi
            r = np.linalg.norm(nu.points, axis=1)
        keep = (r > lo) & (r < hi)
        return np.einsum("k,ki->i", nu.masses[keep], nu.points[keep])
    if isinstance(nu, StableLike):
        return np.zeros(nu.dim)  # radial symmetry
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


def _add_tail_jumps(inc: np.ndarray, counts: np.ndarray, gen: np.random.Generator,
                    stable=None, atoms=None) -> np.ndarray:
    """Add ``counts[i]`` tail jumps into ``inc[i]``, a range of paths at a time.

    ``stable = (r0, expo)`` draws radii ``r0 * u**expo``, ``u`` uniform on
    (0, 1] and ``expo`` a scalar or one exponent per path, in uniform
    directions.  ``atoms = (jumps, p)`` draws row ``i`` of ``jumps`` with
    probability ``p[i]``; the last row is the cemetery's, all zeros.
    Returns the mask of paths that jumped to the cemetery.
    """
    dead = np.zeros(len(counts), dtype=bool)
    total = int(counts.sum())
    # A stable stream holds all the radii first, one word each, and all the
    # directions after them.  Past one range the radii come from a copy of
    # gen that skips past them; within one, gen reads them in order itself.
    radius_gen = _rng.skip_ahead(gen, total) if stable and total > _JUMP_CHUNK else gen
    for p0, p1 in _path_ranges(counts):
        k = counts[p0:p1]
        n = int(k.sum())
        owner = np.repeat(np.arange(p1 - p0), k)
        if stable:
            r0, expo = stable
            # A scalar expo stays scalar: at -1 numpy takes 1/u, not pow(u, -1).
            radii = _rng.uniform_open_closed(radius_gen, n)
            np.power(radii, np.repeat(expo[p0:p1], k) if np.ndim(expo) else expo, out=radii)
            radii *= r0
            jumps = _rng.along(_rng.sphere_draw(gen, n, inc.shape[1]), radii)
        else:
            table, p = atoms
            idx = gen.choice(len(p), size=n, p=p)
            dead[p0:p1][owner[idx == len(p) - 1]] = True
            jumps = table[idx]
        # In owner order onto what inc holds, as one np.add.at would.
        for j in range(inc.shape[1]):
            np.add.at(inc[p0:p1, j], owner, jumps[:, j])
    return dead


def _frozen_sampler(triplet: LevyTriplet, chi: CompensationFunction, dt: float,
                    plan: IncrementPlan):
    """Sampler of increments over ``dt`` of a triplet frozen at the origin.

    The drift, Gaussian factor, jump rate, tail law and surrogate scale are
    computed here, once; ``sample(gen, size)`` then draws ``size`` increments
    and a mask of the samples that jumped straight to the cemetery.
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
    tail = {}
    if rate > 0.0 and isinstance(nu, Atoms):
        with np.errstate(over="ignore"):  # a norm past ~1e154 is inf, beyond tau
            keep = np.linalg.norm(nu.points, axis=1) > plan.tau
        weights = np.append(nu.masses[keep], nu.delta_mass)
        tail["atoms"] = (np.vstack([nu.points[keep], np.zeros(d)]), weights / weights.sum())
    elif rate > 0.0:
        tail["stable"] = (max(plan.tau, nu.min_radius), -1.0 / nu.alpha)
    surrogate_sd = None
    if plan.small_jump_mode == GAUSSIAN_SURROGATE:
        var = nu.truncated_second_moment(plan.tau) / d
        if var > 0.0:
            surrogate_sd = np.sqrt(var * dt)

    def sample(gen: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        inc = np.tile(drift_dt, (size, 1))
        if diffuse:
            inc += sqrt_dt * gen.standard_normal((size, d)) @ factor.T
        dead = (_add_tail_jumps(inc, gen.poisson(rate, size=size), gen, **tail) if tail
                else np.zeros(size, dtype=bool))
        if surrogate_sd is not None:
            inc += surrogate_sd * gen.standard_normal((size, d))
        return inc, dead

    return sample


def levy_increment_sample(triplet: LevyTriplet, chi: CompensationFunction, dt: float,
                          plan: IncrementPlan, rng: np.random.Generator,
                          size: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``size`` increments over duration ``dt`` of the frozen triplet.

    The triplet is frozen at the origin, so atom locations are the jump
    vectors themselves.  Returns the increments and a mask of samples that
    jumped straight to the cemetery.  A stable tail of more than
    ``_JUMP_CHUNK`` jumps needs a Philox ``rng`` to skip ahead in.
    """
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
    inc = np.zeros((m, d))
    dead = _add_tail_jumps(inc, gen.poisson(lam * dt), gen, stable=(plan.tau, -1.0 / alpha))
    if plan.small_jump_mode == GAUSSIAN_SURROGATE:
        var = c * surf * plan.tau ** (2.0 - alpha) / (2.0 - alpha) / d
        inc += np.sqrt(var * dt)[:, None] * gen.standard_normal((m, d))
    # Radial symmetry kills both the compensator window and the
    # convention adjustment, so no drift term appears.
    return inc, dead


def euler_chain_simulate(field: TripletField, chi: CompensationFunction, start,
                         eps: float, horizon: float, plan: IncrementPlan,
                         config: SchemeConfig) -> PathBatch:
    """Iterate frozen-increment steps and emit the floor-time embedding.

    The engine follows the field's class.  A :class:`ConstantTripletField`
    runs ``frozen``: one sampler, built once per run, steps whole path
    blocks.  A :class:`StableField` runs ``stable-fast``, vectorized
    over the block's states.  Any other field is a ValidationError.  A
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
        raise ValidationError(
            "the Euler scheme runs a ConstantTripletField or a StableField, "
            f"not a {type(field).__name__}"
        )

    def step(x, gen, limit):
        inc, to_delta = increments(x, gen)
        x = x + inc
        return x, to_delta | (np.linalg.norm(x, axis=1) > config.escape_radius), 1

    return run_chain(start, step, n_steps, capture, eps, grid, field.dim, config)
