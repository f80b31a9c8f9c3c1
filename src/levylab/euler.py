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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as _rng
from .core import (
    Atoms,
    Chi1,
    Chi2,
    CompensationFunction,
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
from .operators import _density_integral, _require_1d, chi_drift_adjustment
from .stable import StableField

DRIFT_COMPENSATE = "drift-compensate"
GAUSSIAN_SURROGATE = "gaussian-surrogate"


@dataclass(frozen=True)
class IncrementPlan:
    """How one Levy increment is synthesized from a triplet.

    ``tau`` is the small-jump truncation radius; it must stay below the
    compensation cutoff so every sampled jump's compensator is known.
    ``max_expected_jumps`` guards against steps whose compound-Poisson part
    would explode combinatorially.
    """

    tau: float = 1e-3
    small_jump_mode: str = DRIFT_COMPENSATE
    max_expected_jumps: float = 1e6

    def __post_init__(self):
        if self.tau <= 0:
            raise ValidationError("the truncation radius must be positive")
        if self.tau >= 1.0:
            raise ValidationError(
                "the truncation radius must stay below the unit compensation cutoff"
            )
        if self.small_jump_mode not in (DRIFT_COMPENSATE, GAUSSIAN_SURROGATE):
            raise ValidationError(f"unknown small-jump mode {self.small_jump_mode!r}")


def default_truncation(eps: float, jumps=None) -> float:
    """Default truncation radius: 1e-3 of the step's typical jump scale.

    For a stable-like measure the typical single-step scale is
    ``eps ** (1/alpha)``; other measures fall back to an absolute 1e-3.
    """
    if isinstance(jumps, StableLike):
        return min(1e-3 * eps ** (1.0 / jumps.alpha), 0.5)
    return 1e-3


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


def _shift_to_origin(nu, at: np.ndarray):
    """Express the measure relative to the base point (atoms become jump vectors)."""
    if isinstance(nu, Atoms) and np.any(at):
        shifted = Atoms.__new__(Atoms)
        object.__setattr__(shifted, "points", nu.points - at)
        object.__setattr__(shifted, "masses", nu.masses.copy())
        object.__setattr__(shifted, "delta_mass", nu.delta_mass)
        object.__setattr__(shifted, "dim", nu.dim)
        return shifted
    return nu


def _compensator_window(nu, lo: float, hi: float) -> np.ndarray:
    """integral of h over lo < |h| < hi against nu (a vector), per variant."""
    d = nu.dim
    if isinstance(nu, Atoms):
        out = np.zeros(d)
        if len(nu.masses):
            r = np.linalg.norm(nu.points, axis=1)
            keep = (r > lo) & (r < hi)
            out = np.einsum("k,ki->i", nu.masses[keep], nu.points[keep])
        return out
    if isinstance(nu, StableLike):
        return np.zeros(d)  # radial symmetry
    if isinstance(nu, UserDensity):
        _require_1d(nu)
        return np.array([_density_integral(nu, lambda h: h, [lo, hi], 1e-10, 1e-8)])
    raise ValidationError(f"unsupported jump measure type {type(nu).__name__}")


def effective_drift(triplet: LevyTriplet, chi: CompensationFunction, plan: IncrementPlan,
                    at=None) -> np.ndarray:
    """Drift of the sampled step once jumps above tau are taken raw.

    The jumps in [tau, 1) replace a compensated (martingale) integral, so
    their compensator is subtracted from the drift; a triplet expressed in
    the smooth compensation convention is first converted to the hard
    cutoff through the drift adjustment integral.
    """
    nu = triplet.jumps
    delta = triplet.drift.copy()
    if nu is None:
        return delta
    at = np.zeros(triplet.dim) if at is None else as_point(at, triplet.dim)
    if isinstance(chi, Chi2):
        pass
    elif isinstance(chi, Chi1):
        delta = delta + chi_drift_adjustment(nu, Chi1(), Chi2(), a=at)
    else:
        raise ValidationError(
            "increment sampling supports the built-in compensation conventions only"
        )
    rel = _shift_to_origin(nu, at)
    return delta - _compensator_window(rel, plan.tau, 1.0)


def _sample_tail_jumps(nu, rng: np.random.Generator, size: int, tau: float):
    """Draw ``size`` jump vectors from the normalized tail; flags cemetery jumps."""
    if isinstance(nu, Atoms):
        r = np.linalg.norm(nu.points, axis=1) if len(nu.masses) else np.zeros(0)
        keep = r > tau
        weights = np.concatenate([nu.masses[keep], [nu.delta_mass]])
        total = weights.sum()
        if total <= 0:
            return np.zeros((size, nu.dim)), np.zeros(size, dtype=bool)
        idx = rng.choice(len(weights), size=size, p=weights / total)
        to_delta = idx == len(weights) - 1
        jumps = np.zeros((size, nu.dim))
        finite = ~to_delta
        if np.any(finite):
            jumps[finite] = nu.points[keep][idx[finite]]
        return jumps, to_delta
    return nu.sample_tail(rng, size, tau), np.zeros(size, dtype=bool)


def levy_increment_sample(triplet: LevyTriplet, chi: CompensationFunction, dt: float,
                          plan: IncrementPlan, rng: np.random.Generator,
                          size: int = 1, at=None,
                          _drift_eff: Optional[np.ndarray] = None,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``size`` increments over duration ``dt`` of the frozen triplet.

    ``at`` is the freezing point: atom locations are absolute, so jumps are
    taken toward them from ``at`` (default origin, in which case atom
    locations are the jump vectors themselves).  Returns the increments and
    a mask of samples that jumped straight to the cemetery.
    """
    if dt <= 0:
        raise ValidationError("the step duration must be positive")
    d = triplet.dim
    at = np.zeros(d) if at is None else as_point(at, d)
    nu = _shift_to_origin(triplet.jumps, at)

    drift = effective_drift(triplet, chi, plan, at=at) if _drift_eff is None else _drift_eff
    inc = np.tile(drift * dt, (size, 1))
    dead = np.zeros(size, dtype=bool)

    factor = gaussian_factor(triplet.gamma)
    if np.any(factor):
        inc += np.sqrt(dt) * rng.standard_normal((size, d)) @ factor.T

    if nu is None:
        return inc, dead

    lam = nu.tail_mass(plan.tau)
    if lam * dt > plan.max_expected_jumps:
        raise SchemeStepError(
            f"expected jump count {lam * dt:.3e} exceeds the overflow guard; "
            "decrease the step size or raise the truncation radius"
        )
    if lam > 0.0:
        counts = rng.poisson(lam * dt, size=size)
        total = int(counts.sum())
        if total:
            jumps, to_delta = _sample_tail_jumps(nu, rng, total, plan.tau)
            owner = np.repeat(np.arange(size), counts)
            if np.any(to_delta):
                dead |= np.bincount(owner[to_delta], minlength=size).astype(bool)
            np.add.at(inc, owner, jumps)

    if plan.small_jump_mode == GAUSSIAN_SURROGATE:
        var = nu.truncated_second_moment(plan.tau) / d
        if var > 0.0:
            inc += np.sqrt(var * dt) * rng.standard_normal((size, d))

    return inc, dead


class CovariantField(TripletField):
    """A field whose jump-vector law does not depend on the state.

    Holds the triplet frozen at the origin (atoms are jump vectors) and
    shifts atom locations with the queried point, which makes the dynamics
    a genuine Levy process with the frozen increments.
    """

    def __init__(self, frozen: LevyTriplet):
        self.frozen = frozen

        def fn(a: np.ndarray) -> LevyTriplet:
            nu = frozen.jumps
            if isinstance(nu, Atoms) and np.any(a):
                nu = _shift_to_origin(nu, -a)
            return LevyTriplet(frozen.drift, frozen.gamma, nu, _checked=False)

        super().__init__(fn, frozen.dim)


class StableTripletField(TripletField):
    """Stable-like triplet field with a vectorized increment sampler.

    Drift and diffusion vanish; the jump measure at ``a`` is the radial
    density with state-dependent scale and index, letting whole path blocks
    be stepped in one shot.
    """

    def __init__(self, stable: StableField):
        self.stable = stable

        def fn(a: np.ndarray) -> LevyTriplet:
            c, alpha = stable.evaluate(a[None, :])
            dd = stable.dim
            nu = StableLike(c=float(c[0]), alpha=float(alpha[0]), dim=dd) \
                if c[0] > 0 else None
            return LevyTriplet(np.zeros(dd), np.zeros((dd, dd)), nu)

        super().__init__(fn, stable.dim)

    def sample_increments(self, x: np.ndarray, chi: CompensationFunction, dt: float,
                          plan: IncrementPlan, gen: np.random.Generator):
        if not isinstance(chi, (Chi1, Chi2)):
            raise ValidationError(
                "increment sampling supports the built-in compensation conventions only"
            )
        m, d = x.shape
        c, alpha = self.stable.evaluate(x)
        surf = sphere_surface_area(d)
        lam = c * surf * plan.tau ** (-alpha) / alpha
        if np.any(lam * dt > plan.max_expected_jumps):
            raise SchemeStepError("expected jump count exceeds the overflow guard")
        counts = gen.poisson(lam * dt)
        total = int(counts.sum())
        if total:
            owner = np.repeat(np.arange(m), counts)
            radii = _rng.uniform_open_closed(gen, total)
            np.power(radii, (-1.0 / alpha)[owner], out=radii)
            radii *= plan.tau
            jumps = _rng.along(_rng.sphere_draw(gen, total, d), radii)
            # Summed in owner order from zero, as np.add.at would.
            inc = np.stack([np.bincount(owner, weights=col, minlength=m) for col in jumps.T],
                           axis=1)
        else:
            inc = np.zeros((m, d))
        if plan.small_jump_mode == GAUSSIAN_SURROGATE:
            var = c * surf * plan.tau ** (2.0 - alpha) / (2.0 - alpha) / d
            inc += np.sqrt(var * dt)[:, None] * gen.standard_normal((m, d))
        # Radial symmetry kills both the compensator window and the
        # convention adjustment, so no drift term appears.
        return inc, np.zeros(m, dtype=bool)


def stable_euler_field(c: float | StableField, alpha: Optional[float] = None,
                       dim: int = 1) -> StableTripletField:
    """Builder for a (possibly constant) stable-like Euler field."""
    if isinstance(c, StableField):
        return StableTripletField(c)
    return StableTripletField(StableField.constant(float(c), float(alpha), dim))


def euler_chain_simulate(field: TripletField, chi: CompensationFunction, start,
                         eps: float, horizon: float, plan: IncrementPlan,
                         config: SchemeConfig) -> PathBatch:
    """Iterate frozen-increment steps and emit the floor-time embedding.

    Constant or covariant fields and stable-like fields step whole path
    blocks at once; a generic field falls back to per-path sampling and is
    correspondingly slower.  A path is absorbed at the cemetery by a
    cemetery jump or beyond the escape radius.
    """
    if horizon <= 0:
        raise ValidationError("the horizon must be positive")
    if eps <= 0:
        raise ValidationError("the step size must be positive")
    grid = config.output_grid(horizon)
    n_steps = int(np.ceil(horizon / eps))
    capture = np.minimum(np.floor(grid / eps + 1e-12).astype(int), n_steps)
    d = field.dim

    frozen = None
    if isinstance(field, CovariantField):
        frozen = field.frozen
    elif field.is_constant:
        trip = field(np.zeros(d))
        if not isinstance(trip.jumps, Atoms):
            frozen = trip
    if frozen is not None:
        frozen_drift = effective_drift(frozen, chi, plan)
        lam0 = frozen.jumps.tail_mass(plan.tau) if frozen.jumps is not None else 0.0
        if lam0 * eps > plan.max_expected_jumps:
            raise SchemeStepError(
                f"expected jump count {lam0 * eps:.3e} exceeds the overflow guard; "
                "decrease the step size or raise the truncation radius"
            )

        def increments(x, gen):
            return levy_increment_sample(frozen, chi, eps, plan, gen, size=x.shape[0],
                                         _drift_eff=frozen_drift)
    elif isinstance(field, StableTripletField):
        def increments(x, gen):
            return field.sample_increments(x, chi, eps, plan, gen)
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

    return run_chain(start, step, n_steps, capture, eps, grid, d, config)
