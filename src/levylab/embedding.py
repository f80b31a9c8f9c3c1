"""Discrete-to-continuous time embeddings and the random-clock diagnostic.

A discrete chain becomes a continuous-time path either through the floor
clock (x(t) = chain[floor(t / eps)]) or through Poissonization, where the
k-th step happens at the k-th arrival of a unit-rate Poisson process run at
speed 1/eps.  The two are pathwise coupled through the piecewise-affine
clock built from the same exponential holding times, and the probability
that this clock deviates from the identity admits an explicit bound that
``doob_bound_check`` verifies empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import PathBatch
from .errors import RangeError, ValidationError

# Elements per chunk of exponential draws; a trial needing more knots is refused.
MAX_CHUNK_ELEMENTS = 20_000_000


def _chain_states(chain) -> np.ndarray:
    states = np.asarray(chain, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2 or states.shape[0] < 1:
        raise ValidationError("a chain must be a nonempty (steps, dim) array")
    return states


def floor_embed(chain, eps: float, grid) -> PathBatch:
    """x(t) = chain[floor(t / eps)] as a one-path batch; right-continuous,
    constant on steps."""
    if not eps > 0:
        raise ValidationError("eps must be positive")
    states = _chain_states(chain)
    grid = np.asarray(grid, dtype=float)
    idx = np.floor(grid / eps + 1e-12).astype(int)
    if np.any(idx < 0) or np.any(idx >= states.shape[0]):
        raise RangeError(
            f"grid reaches step {int(idx.max())} but the chain has {states.shape[0]} states"
        )
    return PathBatch(grid, states[idx][None])


def poissonize_with(chain, eps: float, holding: np.ndarray, grid) -> PathBatch:
    """x(t) = chain[N(t / eps)] as a one-path batch, where N counts the
    arrivals of the given unit-exponential holding times."""
    if not eps > 0:
        raise ValidationError("eps must be positive")
    states = _chain_states(chain)
    grid = np.asarray(grid, dtype=float)
    arrivals = np.cumsum(np.asarray(holding, dtype=float))
    counts = np.searchsorted(arrivals, grid / eps, side="right")
    if np.any(counts > states.shape[0] - 1):
        raise RangeError("not enough chain states for the requested horizon")
    return PathBatch(grid, states[counts][None])


def gamma_clock(holding: np.ndarray, eps: float, t) -> np.ndarray | float:
    """The piecewise-affine clock interpolating the rescaled arrival times.

    At knot times k*eps the clock equals eps times the k-th partial sum of
    the holding times; in between it interpolates with the next holding
    time.  Strictly increasing, zero at zero.
    """
    if not eps > 0:
        raise ValidationError("eps must be positive")
    holding = np.asarray(holding, dtype=float)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise ValidationError("times must be nonnegative")
    k = np.floor(t_arr / eps + 1e-12).astype(int)
    frac = t_arr / eps - k
    frac = np.where(frac < 0, 0.0, frac)
    if np.any(k + 1 > holding.size):
        raise RangeError(
            f"need {int(k.max()) + 1} holding times but only {holding.size} supplied"
        )
    partial = np.concatenate([[0.0], np.cumsum(holding)])
    out = eps * (partial[k] + frac * holding[np.minimum(k, holding.size - 1)])
    return float(out[0]) if np.isscalar(t) else out


@dataclass(frozen=True)
class ClockBoundReport:
    """Empirical check of the clock-deviation probability bound."""

    eps: float
    horizon: float
    threshold: float
    trials: int
    bound: float
    frequency: float
    std_error: float

    @property
    def ok(self) -> bool:
        return self.frequency <= self.bound + 3.0 * self.std_error

    def to_dict(self) -> dict:
        return {
            "eps": self.eps, "horizon": self.horizon, "threshold": self.threshold,
            "trials": self.trials, "bound": self.bound, "frequency": self.frequency,
            "std_error": self.std_error, "ok": self.ok,
        }


def doob_bound_check(eps: float, horizon: float, threshold: float, trials: int,
                     seed: int = 0) -> ClockBoundReport:
    """Estimate P(sup_{s<=t} |clock(s) - s| >= threshold) and compare with
    the explicit bound 4 (t + eps) eps / threshold^2.

    The supremum over continuous time is dominated by the supremum over the
    clock's knots, which is what the Monte Carlo evaluates (conservative).
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not (eps > 0 and 0 < horizon < np.inf and threshold > 0):
        raise ValidationError("eps and threshold must be positive, the horizon positive "
                              "and finite")
    try:  # threshold^2 may overflow, or underflow to 0
        bound = 4.0 * (horizon + eps) * eps / float(threshold) ** 2
    except (OverflowError, ZeroDivisionError):
        bound = np.inf
    if not bound < np.inf:
        raise ValidationError(f"the bound 4 (t + eps) eps / threshold^2 leaves double precision "
                              f"at threshold {threshold}")
    knots = np.ceil(horizon / eps)
    if not knots <= MAX_CHUNK_ELEMENTS:
        raise ValidationError(f"the clock check needs {knots:.0f} knots per trial, more than "
                              f"the cap of {MAX_CHUNK_ELEMENTS}; increase eps or shorten t")
    n_knots = int(knots)
    gen = _rng.stream(seed, namespace=_rng.CLOCKS)
    hits = 0
    chunk = max(1, min(trials, MAX_CHUNK_ELEMENTS // max(n_knots, 1)))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        e = _rng.exponential(gen, (m, n_knots))
        partial = np.cumsum(e, axis=1)
        dev = eps * np.max(np.abs(partial - np.arange(1, n_knots + 1)[None, :]), axis=1)
        hits += int(np.sum(dev >= threshold))
        done += m
    freq = hits / trials
    se = float(np.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials))
    return ClockBoundReport(eps=eps, horizon=horizon, threshold=threshold,
                            trials=trials, bound=bound, frequency=freq, std_error=se)
