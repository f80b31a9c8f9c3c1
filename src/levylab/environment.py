"""Random walks in a random environment and their quenched diffusion limits.

An environment is a family of per-site log-odds increments ``q_k``; the
walk at site k steps right with probability 1/(e^{q_k} + 1).  The same
increments define a piecewise-constant potential, and conditionally on the
draw the rescaled walk and the potential scheme's chain have identical
lattice laws, which ``quenched_cross_validate`` exploits as a consistency
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as _rng
from .core import PathBatch, SchemeConfig, run_chains
from .diagnostics import ks_distance, wasserstein1
from .errors import ConfigurationError, ValidationError
from .potential import (
    PiecewiseConstantPotential,
    lattice_kernel,
    p_eval_many,
    potential_chain_simulate,
    psi_solve_many,
)

# Largest walk or zero-potential window, in sites; a larger one is refused.
MAX_WINDOW_SITES = 20_000_000
# Sites on either side of the start where quenched_cross_validate compares kernels.
SITE_PROBE = 200


class EnvironmentSpec:
    """Sampler of per-site increments for one scale of the scheme."""

    def sample(self, rng: np.random.Generator, eps: float, k_lo: int, k_hi: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class IIDScaled(EnvironmentSpec):
    """Independent Gaussian increments ``sqrt(eps) * sigma * Z_k``; any other
    increment law is a :class:`CustomEnvironment`."""

    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma * self.sigma < math.inf:
            raise ValidationError(f"sigma^2 must be finite and positive, got sigma = {self.sigma}")

    def sample(self, rng, eps, k_lo, k_hi):
        return math.sqrt(eps) * (self.sigma * rng.standard_normal(k_hi - k_lo + 1))


@dataclass(frozen=True)
class BernoulliPoisson(EnvironmentSpec):
    """Increments equal to ``q`` with probability ``lam * eps``, else zero."""

    q: float
    lam: float

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ValidationError("the increment q must be finite")
        if not self.lam > 0:
            raise ValidationError("the rate must be positive")

    def sample(self, rng, eps, k_lo, k_hi):
        prob = self.lam * eps
        if prob > 1.0:
            raise ValidationError(
                f"lam * eps = {prob:.3g} exceeds one; decrease eps or the rate"
            )
        n = k_hi - k_lo + 1
        return np.where(rng.random(n) < prob, self.q, 0.0)


@dataclass(frozen=True)
class CustomEnvironment(EnvironmentSpec):
    """User-supplied sampler (rng, eps, k_lo, k_hi) -> increments array."""

    sampler: Callable[[np.random.Generator, float, int, int], np.ndarray]

    def sample(self, rng, eps, k_lo, k_hi):
        out = np.asarray(self.sampler(rng, eps, k_lo, k_hi), dtype=float)
        if out.shape != (k_hi - k_lo + 1,):
            raise ValidationError("custom environment sampler returned a wrong shape")
        return out


@dataclass
class QuenchedRun:
    """One environment draw, as its potential, together with the walks it generated."""

    potential: PiecewiseConstantPotential
    walks: PathBatch
    start_site: int
    environment_seed: int
    path_seed: int


def rwre_simulate(env: EnvironmentSpec, eps: float, start_site: int, horizon: float,
                  environments: int, config: SchemeConfig) -> list[QuenchedRun]:
    """Sample environments and run a quenched walk batch inside each.

    The window is sized so walks cannot leave it (a nearest-neighbour walk
    moves at most one site per step), holding the exit probability at zero;
    a walk beyond ``config.escape_radius`` is absorbed, as in every scheme;
    a memory cap converts oversize windows into a configuration error.
    Every environment is drawn first, each from its own stream of the master
    seed.  Then the walks of all of them run in one
    :func:`levylab.core.run_chains` call with the potential scheme's lattice
    kernel: each environment's blocks have streams keyed by its run's
    ``path_seed``, and the (environment, block) tasks share
    ``config.threads`` threads without changing the output.
    """
    if not eps > 0:
        raise ValidationError("the step parameter must be positive")
    if environments < 1:
        raise ValidationError("need at least one environment")
    dt = eps * eps
    grid, n_steps, capture = config.clock(horizon, lambda t: t / dt)
    radius = n_steps + 1
    if 2 * radius + 1 > MAX_WINDOW_SITES:
        raise ConfigurationError(
            f"the walk window needs {2 * radius + 1} sites and exceeds the memory cap; "
            "increase eps or shorten the horizon"
        )
    k_lo = start_site - radius
    k_hi = start_site + radius

    potentials, chains = [], []
    for e_idx in range(environments):
        env_gen = _rng.stream(config.seed, e_idx, _rng.ENVIRONMENTS)
        potential = PiecewiseConstantPotential(eps, env.sample(env_gen, eps, k_lo, k_hi), k_lo)
        path_seed = config.seed + 1_000_003 * (e_idx + 1)
        # Leaving the q-window or the escape radius absorbs the walk at the cemetery.
        step = lattice_kernel(potential.up_probability(k_lo, potential.k_max), k_lo,
                              (k_lo, potential.k_max), eps, config.escape_radius)
        potentials.append(potential)
        chains.append((float(start_site), step, path_seed, lambda sites: sites * eps))
    walks = run_chains(chains, n_steps, capture, dt, grid, 1, config)
    return [QuenchedRun(potential=potential, walks=batch, start_site=start_site,
                        environment_seed=e_idx, path_seed=path_seed)
            for e_idx, (potential, (_, _, path_seed, _), batch)
            in enumerate(zip(potentials, chains, walks))]


@dataclass
class CrossValidationReport:
    """Agreement between the lattice walk and the potential scheme under one
    environment draw."""

    kernel_max_dev: float
    psi_max_dev: float
    ks_stat: float
    ks_p_value: float
    wasserstein: float
    sites_checked: int


def quenched_cross_validate(run: QuenchedRun, t: float, paths: int) -> CrossValidationReport:
    """Run the potential scheme in the run's own potential and compare laws.

    The kernels are compared on ``SITE_PROBE`` sites on either side of the
    start.  On lattice starts the two transition kernels coincide exactly,
    so the kernel deviation is a solver-consistency check and the marginal
    comparison carries pure Monte Carlo noise.
    """
    V = run.potential
    eps = V.mesh
    times = run.walks.times
    if not 0 < t <= times[-1] + 1e-12:
        raise ValidationError(f"the comparison time must be finite, positive and within "
                              f"the walk horizon {float(times[-1])}, got {t}")

    # Kernel check on sites around the start.
    probe_lo = max(V.k_min + 1, run.start_site - SITE_PROBE)
    probe_hi = min(V.k_max - 1, run.start_site + SITE_PROBE)
    sites = np.arange(probe_lo, probe_hi + 1)
    pos = sites * eps
    psiu, psid = psi_solve_many(V, pos, eps)
    psi_dev = float(max(np.max(np.abs(psiu - eps)), np.max(np.abs(psid - eps))))
    p_scheme = p_eval_many(V, pos, psiu, psid)
    p_walk = V.up_probability(probe_lo, probe_hi)
    kernel_dev = float(np.max(np.abs(p_scheme - p_walk)))

    cfg = SchemeConfig(paths=paths, seed=run.path_seed + 7, grid=times)
    scheme = potential_chain_simulate(V, run.start_site * eps, eps,
                                      float(times[-1]), cfg)
    a, _ = run.walks.marginal(t)
    b, _ = scheme.marginal(t)
    if paths < len(run.walks):
        a = a[:paths]
    stat, p_value = ks_distance(a[:, 0], b[:, 0])
    w1 = wasserstein1(a[:, 0], b[:, 0])
    return CrossValidationReport(
        kernel_max_dev=kernel_dev, psi_max_dev=psi_dev,
        ks_stat=stat, ks_p_value=p_value, wasserstein=w1,
        sites_checked=sites.size,
    )
