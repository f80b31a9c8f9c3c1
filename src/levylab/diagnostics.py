"""Distributional and martingale diagnostics shared by all schemes.

Weak convergence on path space cannot be tested directly at desk scale;
the suite substitutes fixed-time marginal comparisons (Kolmogorov-Smirnov
and first Wasserstein distances) plus martingale residuals of the stopped
test-function compensation.  That substitution is the central methodological
choice behind every distributional assertion in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import PathBatch, as_point
from .errors import ValidationError
from .operators import TestFunction

# Equal time buckets of the explosion histogram.
EXPLOSION_BUCKETS = 10


def _clean(sample) -> np.ndarray:
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size == 0:
        raise ValidationError("samples must be nonempty")
    return arr


def ks_distance(sample_a, sample_b) -> tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value, by ``scipy.stats.ks_2samp``."""
    from scipy import stats

    result = stats.ks_2samp(_clean(sample_a), _clean(sample_b), method="asymp")
    return float(result.statistic), float(result.pvalue)


def ks_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    """Two-sample KS rejection threshold at level alpha (asymptotic)."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def wasserstein1(sample_a, sample_b) -> float:
    """W1 distance of one-dimensional empirical laws, by ``scipy.stats``."""
    from scipy import stats

    return float(stats.wasserstein_distance(_clean(sample_a), _clean(sample_b)))


@dataclass
class ResidualRow:
    time: float
    mean: float
    std_error: float
    allowance: float
    in_region_fraction: float

    @property
    def ok(self) -> bool:
        return abs(self.mean) <= 3.0 * self.std_error + self.allowance


@dataclass
class MartingaleReport:
    """Residuals of f(X_{t ^ tau}) minus the running integral of g.

    ``rows`` hold the per-time mean residual with Monte Carlo standard
    errors and the discretization allowance; ``degenerate`` flags batches
    that never enter the monitoring region.
    """

    rows: list[ResidualRow] = field(default_factory=list)
    degenerate: bool = False

    @property
    def all_ok(self) -> bool:
        return (not self.degenerate) and all(r.ok for r in self.rows)


def martingale_residual(batch: PathBatch, f: TestFunction, g: Callable,
                        region_low, region_high, grid: Sequence[float] | None = None,
                        allowance_rate: float = 0.0) -> MartingaleReport:
    """Zero-drift test for the stopped compensated test function.

    The integral uses left endpoints on the batch grid (matching the cadlag
    convention) and paths stop at their first recorded exit from the open
    box. ``allowance_rate`` converts the time-discretization bias into an
    explicit allowance ``allowance_rate * dt * t`` added to the 3-sigma
    band.
    """
    low = as_point(region_low, batch.dim)
    high = as_point(region_high, batch.dim)
    times = batch.times
    eval_times = times if grid is None else np.asarray(grid, dtype=float)
    if np.any(np.diff(eval_times) <= 0):
        raise ValidationError("the evaluation grid must be increasing")

    states = batch.states
    n_paths, n_times, _ = states.shape
    finite = np.isfinite(states).all(axis=2)
    inside = finite & np.all((states > low) & (states < high), axis=2)
    # First index at/after which the path has left the region (or exploded).
    exited = ~inside
    first_exit = np.where(exited.any(axis=1), exited.argmax(axis=1), n_times)
    if np.all(first_exit == 0):
        return MartingaleReport(degenerate=True)

    # Cumulative left-endpoint integral of g along each path.
    flat = states.reshape(-1, batch.dim)
    ok_flat = finite.reshape(-1)
    g_flat = np.zeros(flat.shape[0])
    if np.any(ok_flat):
        g_flat[ok_flat] = np.asarray(g(flat[ok_flat]), dtype=float)
    g_vals = g_flat.reshape(n_paths, n_times)

    f_flat = np.zeros(flat.shape[0])
    if np.any(ok_flat):
        f_flat[ok_flat] = np.asarray(f(flat[ok_flat]), dtype=float)
    f_vals = f_flat.reshape(n_paths, n_times)

    dt = np.diff(times)
    integral = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(g_vals[:, :-1] * dt[None, :], axis=1)], axis=1
    )

    rows_idx = np.arange(n_paths)
    report = MartingaleReport()
    mean_dt = float(np.mean(dt)) if dt.size else 0.0
    for t in eval_times:
        j = int(np.searchsorted(times, t + 1e-12) - 1)
        if j < 0:
            continue
        stop = np.minimum(first_exit, j)
        m_t = f_vals[rows_idx, stop] - integral[rows_idx, stop]
        m_0 = f_vals[:, 0]
        res = m_t - m_0
        mean = float(np.mean(res))
        se = float(np.std(res, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else math.inf
        frac = float(np.mean(stop == j))
        report.rows.append(ResidualRow(
            time=float(t), mean=mean, std_error=se,
            allowance=allowance_rate * mean_dt * float(t),
            in_region_fraction=frac,
        ))
    return report


@dataclass
class ExplosionReport:
    """Explosion-time histogram and the absorption re-check."""

    total_paths: int
    exploded: int
    fraction: float
    bucket_edges: np.ndarray
    bucket_fractions: np.ndarray
    absorption_ok: bool

    def to_dict(self) -> dict:
        return {
            "total_paths": self.total_paths,
            "exploded": self.exploded,
            "fraction": self.fraction,
            "bucket_edges": self.bucket_edges.tolist(),
            "bucket_fractions": self.bucket_fractions.tolist(),
            "absorption_ok": self.absorption_ok,
        }


def explosion_stats(batch: PathBatch) -> ExplosionReport:
    """Fraction of paths absorbed in each of ``EXPLOSION_BUCKETS`` equal time
    buckets over the batch horizon."""
    xi = batch.xi
    horizon = float(batch.times[-1])
    exploded = xi <= horizon
    edges = np.linspace(0.0, horizon, EXPLOSION_BUCKETS + 1)
    counts, _ = np.histogram(xi[exploded], bins=edges)
    # Absorbed rows must carry no finite state at or after their explosion time.
    dead_mask = batch.times[None, :] >= xi[:, None]
    absorption_ok = not bool(np.any(np.isfinite(batch.states[dead_mask])))
    return ExplosionReport(
        total_paths=len(batch),
        exploded=int(exploded.sum()),
        fraction=float(exploded.mean()),
        bucket_edges=edges,
        bucket_fractions=counts / max(len(batch), 1),
        absorption_ok=absorption_ok,
    )
