"""Core data model: jump measures, triplets, compensation functions, paths.

State space is ``R^d`` plus a distinguished cemetery point ``DELTA``.  Paths
absorbed at the cemetery stay there; the absorption time is recorded
explicitly instead of being encoded in a float sentinel.
"""

from __future__ import annotations

import copy
import functools
import math
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng as _rng
from .errors import SchemeStepError, ValidationError


class Cemetery:
    """The absorbing cemetery state; a single shared instance is used."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DELTA"


DELTA = Cemetery()


# exp(log 2 + d/2 log pi - gammaln(d/2)) for d = 1..10, as scipy computes it.
# Neither scipy's gammaln (at d = 1, 3) nor math.lgamma (at d = 1, 3, 5..10)
# is correctly rounded here, and the 2-d value sits one ulp below 2 pi, so
# no other formula gives these bits.
_SPHERE_SURFACE = tuple(map(float.fromhex, (
    "0x1.0000000000000p+1", "0x1.921fb54442d17p+2", "0x1.921fb54442d1bp+3",
    "0x1.3bd3cc9be45dfp+4", "0x1.a51a6625307d3p+4", "0x1.f019b59389d7ep+4",
    "0x1.08963eb51650dp+5", "0x1.03c1f081b5ac4p+5", "0x1.dafc3b70d72c7p+4",
    "0x1.9806b81531598p+4",
)))


@functools.cache
def sphere_surface_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim, kept per dimension.

    Dimensions 1 to 10 are read from a table; larger ones evaluate the
    log-gamma formula the table holds the bits of, importing scipy on first
    use.  The stable schemes scale their jumps by it, so its bits are pinned;
    the table keeps scipy.special (some 15 MB of RSS and 0.2 s) out of the CLI.
    """
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    if dim in range(1, len(_SPHERE_SURFACE) + 1):
        return _SPHERE_SURFACE[int(dim) - 1]
    from scipy.special import gammaln

    return float(np.exp(np.log(2.0) + 0.5 * dim * np.log(np.pi) - gammaln(0.5 * dim)))


def as_point(a, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or sequence to a 1-d float point."""
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    if arr.ndim != 1:
        raise ValidationError(f"a point must be one-dimensional, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValidationError(f"expected a point in R^{dim}, got R^{arr.shape[0]}")
    return arr


# ---------------------------------------------------------------------------
# Jump measures
# ---------------------------------------------------------------------------


class JumpMeasure:
    """A jump measure with tail-mass and truncated-second-moment queries.

    Subclasses must be finite on the complement of every ball around the
    base point and integrate ``min(1, |b-a|^2)``.
    """

    dim: int

    def tail_mass(self, r: float, a=None) -> float:
        raise NotImplementedError

    def truncated_second_moment(self, r: float, a=None) -> float:
        raise NotImplementedError

    def mass_at(self, a) -> float:
        """Point mass at ``a`` (must be zero for a valid triplet at ``a``)."""
        return 0.0

    def shifted(self, offset) -> "JumpMeasure":
        """The measure with its absolute locations moved by ``offset``; radial
        measures are centred at the base point, so they stay as they are."""
        return self


@dataclass(frozen=True)
class Atoms(JumpMeasure):
    """Finitely many atoms at absolute locations, optionally including DELTA.

    Locations are absolute points of the state space; seen from the origin,
    as in a :class:`ConstantTripletField`'s triplet, they are jump vectors.
    """

    points: np.ndarray  # (k, dim)
    masses: np.ndarray  # (k,)
    delta_mass: float = 0.0
    dim: int = 1

    def __init__(self, atoms: Sequence[tuple] = (), dim: int | None = None,
                 delta_mass: float = 0.0):
        pts, ms, dmass = [], [], float(delta_mass)
        for loc, mass in atoms:
            if not 0 < mass < math.inf:
                raise ValidationError(f"atom masses must be positive and finite, got {mass}")
            if loc is DELTA:
                dmass += float(mass)
            else:
                pts.append(np.atleast_1d(np.asarray(loc, dtype=float)))
                if not np.all(np.isfinite(pts[-1])):
                    raise ValidationError(f"atom locations must be finite, got {pts[-1].tolist()}")
                ms.append(float(mass))
        if not 0 <= dmass < math.inf:
            raise ValidationError(f"cemetery mass must be nonnegative and finite, got {dmass}")
        if pts:
            d = pts[0].shape[0]
            if any(p.shape[0] != d for p in pts):
                raise ValidationError("all atom locations must share one dimension")
        else:
            d = dim if dim is not None else 1
        if dim is not None and dim != d:
            raise ValidationError(f"atoms live in R^{d}, but dim={dim} was given")
        object.__setattr__(self, "points", np.array(pts, dtype=float).reshape(len(pts), d))
        object.__setattr__(self, "masses", np.asarray(ms, dtype=float))
        object.__setattr__(self, "delta_mass", dmass)
        object.__setattr__(self, "dim", d)

    def _dists(self, a) -> np.ndarray:
        a = as_point(a, self.dim) if a is not None else np.zeros(self.dim)
        with np.errstate(over="ignore"):  # a distance past ~1e154 is inf, beyond every radius
            return np.linalg.norm(self.points - a, axis=1)

    def tail_mass(self, r: float, a=None) -> float:
        if r <= 0:
            raise ValidationError("radius must be positive")
        d = self._dists(a)
        # The cemetery sits at infinite distance, so its mass is always in the tail.
        return float(np.sum(self.masses[d > r])) + self.delta_mass

    def truncated_second_moment(self, r: float, a=None) -> float:
        if r <= 0:
            raise ValidationError("radius must be positive")
        d = self._dists(a)
        keep = (d > 0) & (d <= r)
        return float(np.sum(self.masses[keep] * d[keep] ** 2))

    def mass_at(self, a) -> float:
        d = self._dists(a)
        return float(np.sum(self.masses[d == 0.0]))

    def total_mass(self) -> float:
        return float(np.sum(self.masses)) + self.delta_mass

    def shifted(self, offset) -> "Atoms":
        moved = copy.copy(self)
        object.__setattr__(moved, "points", self.points + offset)
        return moved


@dataclass(frozen=True)
class StableLike(JumpMeasure):
    """Radial density ``c |h|^(-dim-alpha)`` around the base point.

    ``min_radius`` truncates the density below a positive radius, which
    turns the measure into a finite one; the untruncated case requires
    ``alpha < 2`` for the compensated mass to be finite.
    """

    c: float
    alpha: float
    dim: int = 1
    min_radius: float = 0.0

    def __post_init__(self):
        if not 0 <= self.c < math.inf:
            raise ValidationError(f"scale c must be nonnegative and finite, got {self.c}")
        if not (0.0 < self.alpha < 2.0):
            raise ValidationError(
                f"stable index must lie in (0, 2); alpha={self.alpha} makes the "
                "compensated mass integral diverge"
            )
        if not 0 <= self.min_radius < math.inf:
            raise ValidationError(f"min_radius must be nonnegative and finite, "
                                  f"got {self.min_radius}")

    @property
    def surface(self) -> float:
        return sphere_surface_area(self.dim)

    def density(self, h: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(h)
        with np.errstate(over="ignore"):  # a norm past ~1e154 is inf, where the density is 0
            r = np.linalg.norm(h, axis=1)
        out = np.zeros_like(r)
        live = r > max(self.min_radius, 0.0)
        out[live] = self.c * r[live] ** (-self.dim - self.alpha)
        return out

    def tail_mass(self, r: float, a=None) -> float:
        if r <= 0:
            raise ValidationError("radius must be positive")
        r_eff = max(r, self.min_radius)
        return self.c * self.surface * r_eff ** (-self.alpha) / self.alpha

    def truncated_second_moment(self, r: float, a=None) -> float:
        if r <= 0:
            raise ValidationError("radius must be positive")
        if r <= self.min_radius:
            return 0.0
        lo = self.min_radius
        return (
            self.c * self.surface * (r ** (2.0 - self.alpha) - lo ** (2.0 - self.alpha))
            / (2.0 - self.alpha)
        )

    def total_mass(self) -> float:
        if self.min_radius <= 0.0:
            return math.inf if self.c > 0 else 0.0
        return self.tail_mass(self.min_radius)


# ---------------------------------------------------------------------------
# Compensation functions
# ---------------------------------------------------------------------------


class CompensationFunction:
    """A bounded truncation of the jump used to compensate small jumps.

    Called with a base point ``a`` (shape (d,)) and target points ``b``
    (shape (m, d)); the cemetery contributes zero, which callers encode by
    passing only finite targets and handling cemetery mass separately.
    """

    name = "custom"
    bound: float = math.inf

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def radial_kinks(self) -> tuple[float, ...]:
        """Radii at which h -> chi(a, a+h) is not smooth."""
        return ()

    def is_odd(self) -> bool:
        """Whether h -> chi(a, a+h) is odd in h (true for both defaults)."""
        return False

    def is_shift_invariant(self) -> bool:
        """Whether chi(a, b) depends on b - a only (true for both defaults)."""
        return False

    def pairwise(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """chi evaluated row-by-row on pairs (b_i, c_i)."""
        out = np.empty_like(np.atleast_2d(c), dtype=float)
        for i in range(out.shape[0]):
            out[i] = self(b[i], c[i][None, :])[0]
        return out

    def abs_bound_beyond(self, r: float) -> float:
        """Upper bound for |chi(a, b)| over |b - a| >= r."""
        return self.bound


class Chi1(CompensationFunction):
    """Smooth compensation (b-a) / (1 + |b-a|^2); valid for every jump measure."""

    name = "chi1"

    def __call__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.atleast_2d(np.asarray(b, dtype=float))
        h = b - a
        with np.errstate(over="ignore"):  # past |h| ~ 1e154 this is 0, within 1e-154
            return h / (1.0 + np.sum(h * h, axis=1))[:, None]

    def is_odd(self):
        return True

    def is_shift_invariant(self):
        return True

    pairwise = __call__

    def abs_bound_beyond(self, r):
        # |h| / (1 + |h|^2) peaks at 1/2 and decays like 1/|h| afterwards.
        return 0.5 if r <= 1.0 else r / (1.0 + r * r)


class Chi2(CompensationFunction):
    """Hard cutoff (b-a) 1_{|b-a| < 1}; needs no jump mass exactly on the unit sphere."""

    name = "chi2"

    def __call__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.atleast_2d(np.asarray(b, dtype=float))
        h = b - a
        with np.errstate(over="ignore"):  # a norm past ~1e154 is inf, outside either way
            inside = np.linalg.norm(h, axis=1) < 1.0
        return h * inside[:, None]

    def radial_kinks(self):
        return (1.0,)

    def is_odd(self):
        return True

    def is_shift_invariant(self):
        return True

    pairwise = __call__

    def abs_bound_beyond(self, r):
        return 1.0 if r < 1.0 else 0.0


class CustomChi(CompensationFunction):
    """chi given by a callable ``fn(a, b)`` smooth in ``b``; a chi with kinks
    subclasses `CompensationFunction` and overrides ``radial_kinks``."""

    def __init__(self, fn, bound: float, name: str = "custom"):
        self._fn = fn
        self.bound = float(bound)
        self.name = name

    def __call__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.atleast_2d(np.asarray(b, dtype=float))
        return np.atleast_2d(np.asarray(self._fn(a, b), dtype=float))


def compensation_by_name(name: str) -> CompensationFunction:
    try:
        return {"chi1": Chi1(), "chi2": Chi2()}[name]
    except KeyError:
        raise ValidationError(f"unknown compensation function {name!r}") from None


# ---------------------------------------------------------------------------
# Triplets and triplet fields
# ---------------------------------------------------------------------------

GAMMA_SYMMETRY_RTOL = 1e-12
GAMMA_EIGEN_FLOOR = 1e-10


@dataclass(frozen=True)
class LevyTriplet:
    """Drift vector, diffusion matrix and jump measure at one point.

    The diffusion matrix must be symmetric (relative tolerance 1e-12) and
    positive semi-definite up to an eigenvalue floor of ``-1e-10 ||gamma||``.
    ``jumps=None`` stands for the zero measure, stored as ``Atoms(dim=d)``,
    so ``jumps`` is never None.
    """

    drift: np.ndarray
    gamma: np.ndarray
    jumps: JumpMeasure

    def __init__(self, drift, gamma, jumps: Optional[JumpMeasure] = None, *, _checked=True):
        drift = np.atleast_1d(np.asarray(drift, dtype=float))
        gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
        d = drift.shape[0]
        jumps = Atoms(dim=d) if jumps is None else jumps
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "jumps", jumps)
        if gamma.shape != (d, d):
            raise ValidationError(
                f"gamma must be {d}x{d} to match the drift, got {gamma.shape}"
            )
        if jumps.dim != d:
            raise ValidationError("jump measure dimension does not match the drift")
        if _checked:
            self._validate()

    def _validate(self):
        if not (np.all(np.isfinite(self.drift)) and np.all(np.isfinite(self.gamma))):
            raise ValidationError("drift and gamma must be finite")
        g = self.gamma
        scale = float(np.max(np.abs(g))) if g.size else 0.0
        if scale > 0.0:
            asym = float(np.max(np.abs(g - g.T)))
            if asym > GAMMA_SYMMETRY_RTOL * scale:
                raise ValidationError(
                    f"gamma is not symmetric (max asymmetry {asym:.3e} vs scale {scale:.3e})"
                )
            eigs = np.linalg.eigvalsh(0.5 * g + 0.5 * g.T)
            if float(eigs.min()) < -GAMMA_EIGEN_FLOOR * scale:
                raise ValidationError(
                    f"gamma is not positive semi-definite (min eigenvalue {eigs.min():.3e})"
                )

    @staticmethod
    def unchecked(drift, gamma, jumps=None) -> "LevyTriplet":
        """Skip validity checks; for diagnostics that probe invalid operators."""
        return LevyTriplet(drift, gamma, jumps, _checked=False)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


class TripletField:
    """A map from points of R^d to triplets, with continuity metadata.

    Measure conventions follow the rest of the package: atom locations are
    absolute target points, radial densities are centred at the queried
    point.
    """

    def __init__(self, fn: Callable[[np.ndarray], LevyTriplet], dim: int):
        self._fn = fn
        self.dim = dim

    def __call__(self, a) -> LevyTriplet:
        return self._fn(as_point(a, self.dim))


class ConstantTripletField(TripletField):
    """The same drift, diffusion and jump-vector law at every point.

    ``triplet`` is the field at the origin, where atom locations are the jump
    vectors themselves; at ``a`` the atoms sit at ``a`` plus those vectors.
    The field is therefore the frozen triplet of one Levy process, which the
    Euler scheme samples a whole block of paths at a time.
    """

    def __init__(self, triplet: LevyTriplet):
        self.triplet = triplet
        nu = triplet.jumps

        def fn(a: np.ndarray) -> LevyTriplet:
            return LevyTriplet(triplet.drift, triplet.gamma, nu.shifted(a), _checked=False)

        super().__init__(fn, triplet.dim)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


class PathBatch:
    """Paths sharing one output time grid (finite, strictly increasing),
    stored as a dense array."""

    def __init__(self, times, states, xi=None):
        self.times = np.asarray(times, dtype=float)
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):
            raise ValidationError("the times must be finite and strictly increasing")
        states = np.asarray(states, dtype=float)
        if states.ndim == 2:
            states = states[:, :, None]
        self.states = states
        n = states.shape[0]
        self.xi = np.full(n, math.inf) if xi is None else np.asarray(xi, dtype=float)
        if self.states.shape[1] != self.times.shape[0]:
            raise ValidationError("state array does not match the time grid")

    def __len__(self):
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def marginal(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """States of paths still alive at time ``t`` (floor-index on the grid)."""
        if not math.isfinite(t):
            raise ValidationError(f"the marginal time must be finite, got {t}")
        j = int(np.searchsorted(self.times, t + 1e-12, side="right") - 1)
        if j < 0:
            raise ValidationError(f"time {t} precedes the output grid")
        alive = self.times[j] < self.xi
        return self.states[alive, j, :], alive

    def blank_dead(self) -> None:
        """Overwrite states at and after absorption with NaN so they cannot leak."""
        dead = self.times[None, :] >= self.xi[:, None]
        if np.any(dead):
            self.states[dead] = np.nan


def resolve_start(start, dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Materialize ``m`` finite starting points from a point or a sampler callable."""
    if callable(start):
        pts = np.asarray(start(rng, m), dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape != (m, dim):
            raise ValidationError(f"start sampler must return shape ({m}, {dim})")
    else:
        pts = np.tile(as_point(start, dim), (m, 1))
    if not np.all(np.isfinite(pts)):
        raise ValidationError("start points must be finite")
    return pts


@dataclass(frozen=True)
class SchemeConfig:
    """Determinism contract for batch simulation.

    ``grid`` is the output time grid (defaults to 101 equispaced points on
    [0, T]); ``block_size`` fixes the path-block decomposition so results do
    not depend on the worker count.
    """

    paths: int = 1000
    seed: int = 0
    grid: Optional[np.ndarray] = None
    escape_radius: float = 1e6
    threads: int = 1
    block_size: int = 16384

    def __post_init__(self):
        if self.paths < 1:
            raise ValidationError("paths must be >= 1")
        if not self.escape_radius > 0:
            raise ValidationError("escape radius must be positive")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")
        if self.block_size < 1:
            raise ValidationError("block_size must be >= 1")

    def output_grid(self, horizon: float) -> np.ndarray:
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=float)
            if g.ndim != 1 or g.size == 0 or np.any(np.diff(g) <= 0) or g[0] < 0:
                raise ValidationError("grid must be a strictly increasing array of times >= 0")
            if g[-1] > horizon * (1 + 1e-12):
                raise ValidationError("grid extends beyond the horizon")
            return g
        return np.linspace(0.0, horizon, 101)

    def clock(self, horizon: float, steps: Callable[[np.ndarray], np.ndarray]):
        """The output grid, ``n_steps = ceil(steps(horizon))`` and, per grid
        time ``t``, the step ``min(floor(steps(t) + 1e-12), n_steps)`` it shows.

        ``steps`` maps times to fractional step counts: ``t * n`` for the
        stable chain, ``t / dt`` for the others.  The horizon must be
        positive and finite, and the step count at most 2^53, beyond which
        float step counts are not exact.
        """
        if not 0 < horizon < math.inf:
            raise ValidationError(f"the horizon must be positive and finite, got {horizon}")
        grid = self.output_grid(horizon)
        with np.errstate(over="ignore", divide="ignore"):
            total = steps(np.float64(horizon))
            if not total <= 2.0 ** 53:
                raise ValidationError(f"the run needs {total} steps, more than 2^53")
            n_steps = int(np.ceil(total))
            capture = np.minimum(np.floor(steps(grid) + 1e-12).astype(int), n_steps)
        return grid, n_steps, capture


def run_chain(init, step, n_steps: int, capture: np.ndarray, dt: float, grid: np.ndarray,
              dim: int, config: SchemeConfig, seed: Optional[int] = None,
              emit: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> PathBatch:
    """Run a Markov chain over path blocks and return its floor-clock embedding.

    Each block of ``config.block_size`` paths owns the Philox stream
    ``(seed, block)`` (``seed`` defaults to ``config.seed``), starts from
    ``resolve_start(init, ...)`` and takes ``n_steps`` steps; a start with
    ``norm(emit(x)) > config.escape_radius``, the kernels' own escape test,
    is absorbed at ``xi = 0``.  A kernel call
    ``step(x, gen, limit)`` maps the (m, dim) states of the live paths, the
    block's generator and ``limit``, the number of steps left before the
    next grid capture or ``n_steps``, to ``(x_new, gone, taken)``: the
    states after ``1 <= taken <= limit`` steps and a mask of the paths
    absorbed at step ``taken``.  The kernel promises that no path is
    absorbed before that step; most kernels take one step, and the lattice
    walk takes many.  An absorbed path at step ``k`` records ``xi = k * dt``
    (or the first grid time that shows its absorbed state, if rounding puts
    that time below) and stops moving.  Grid point ``j`` stores the state
    (through ``emit``, if given) after step ``capture[j]``, which must be
    nondecreasing.  A live path holding a non-finite state after a call
    raises SchemeStepError.  Blocks run on ``config.threads`` threads; the
    result does not depend on that count.  This is :func:`run_chains` for
    one chain.
    """
    seed = config.seed if seed is None else seed
    return run_chains([(init, step, seed, emit)], n_steps, capture, dt, grid, dim, config)[0]


def run_chains(chains, n_steps: int, capture: np.ndarray, dt: float, grid: np.ndarray,
               dim: int, config: SchemeConfig) -> list[PathBatch]:
    """Run several chains on one clock and one pool; one batch per chain.

    ``chains`` holds ``(init, step, seed, emit)`` tuples, each read as the
    arguments of :func:`run_chain` (``emit`` may be None).  The chains share
    ``n_steps``, ``capture``, ``grid``, ``dim`` and ``config``; the blocks
    of all of them are one list of tasks for ``config.threads`` threads.
    A block's stream is ``(seed, block)`` of its own chain, so each batch
    is the one :func:`run_chain` returns for that chain alone.
    """
    capture = capture.tolist()
    blocks = _rng.path_blocks(config.paths, config.block_size)
    outs = [np.empty((config.paths, grid.size, dim)) for _ in chains]
    xis = [np.full(config.paths, np.inf) for _ in chains]

    def absorbed_at(k):
        # (k * dt) can round above the first grid time that captures step k;
        # that grid point shows the absorbed state, so it must read dead.
        j = bisect_left(capture, k)
        return min(k * dt, float(grid[j])) if j < grid.size else k * dt

    # A state that overflows becomes inf: the escape test absorbs it, and a
    # live non-finite state still raises.  One errstate per block, not per step.
    @np.errstate(over="ignore")
    def run_block(task):
        c, (lo, hi, idx) = task
        init, step, seed, emit = chains[c]
        if emit is None:
            emit = np.asarray
        gen = _rng.stream(seed, idx, _rng.PATHS)
        x = resolve_start(init, dim, hi - lo, gen)
        block_out, block_xi = outs[c][lo:hi], xis[c][lo:hi]
        beyond = np.linalg.norm(emit(x), axis=1) > config.escape_radius
        block_xi[beyond] = 0.0
        live = np.nonzero(~beyond)[0]
        j = k = 0
        while k < n_steps and live.size:
            j_end = bisect_right(capture, k, j)
            if j_end > j:
                block_out[:, j:j_end] = emit(x)[:, None, :]
                j = j_end
            limit = (capture[j] if j < len(capture) else n_steps) - k
            all_alive = live.size == x.shape[0]
            x_new, gone, taken = step(x if all_alive else x[live], gen, limit)
            k += taken
            if not np.all(np.isfinite(x_new)):
                bad = ~gone & ~np.all(np.isfinite(x_new), axis=1)
                if np.any(bad):
                    raise SchemeStepError(
                        f"step {k} produced a non-finite state for a live path "
                        f"(from {x[live[bad][0]].tolist()})"
                    )
            if all_alive:
                x = x_new
            else:
                x[live] = x_new
            if np.any(gone):
                block_xi[live[gone]] = absorbed_at(k)
                live = live[~gone]
        block_out[:, j:] = emit(x)[:, None, :]

    tasks = [(c, b) for c in range(len(chains)) for b in blocks]
    if config.threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(run_block, tasks))
    else:
        for task in tasks:
            run_block(task)

    batches = [PathBatch(grid, out, xi=xi) for out, xi in zip(outs, xis)]
    for batch in batches:
        batch.blank_dead()
    return batches


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


_MEASURE_KEYS = {None: {"kind"}, "none": {"kind"}, "stable": {"kind", "c", "alpha", "min_radius"},
                 "atoms": {"kind", "atoms", "delta_mass"}}


def _reject_unknown_keys(cfg: dict, known: set, where: str) -> None:
    unknown = sorted(set(cfg.keys()) - known)
    if unknown:
        raise ValidationError(f"unknown key {unknown[0]!r} in {where}; "
                              f"known keys are {', '.join(sorted(known))}")


def jump_measure_from_config(cfg: dict | None, dim: int) -> JumpMeasure:
    """Build a jump measure from its JSON description.

    Supported kinds: ``none``, ``stable`` (fields c, alpha, optional
    min_radius) and ``atoms`` (list of {point, mass}, optional delta_mass;
    a point may be the string "DELTA").  ``none``, a missing kind and a
    missing description are the zero measure ``Atoms(dim=dim)``.  A key the
    kind does not use, here or in an atom entry, is a ValidationError.
    """
    cfg = {} if cfg is None else cfg
    kind = cfg.get("kind")
    if kind not in _MEASURE_KEYS:
        raise ValidationError(f"unknown jump measure kind {kind!r}")
    _reject_unknown_keys(cfg, _MEASURE_KEYS[kind], "jump measure 'nu'")
    if kind in (None, "none"):
        return Atoms(dim=dim)
    if kind == "stable":
        return StableLike(
            c=float(cfg["c"]), alpha=float(cfg["alpha"]), dim=dim,
            min_radius=float(cfg.get("min_radius", 0.0)),
        )
    atoms = []
    for k, entry in enumerate(cfg.get("atoms", [])):
        _reject_unknown_keys(entry, {"point", "mass"}, f"atom entry {k}")
        point = entry["point"]
        if isinstance(point, str):
            if point.upper() != "DELTA":
                raise ValidationError(f"unknown atom location {point!r}")
            atoms.append((DELTA, float(entry["mass"])))
        else:
            atoms.append((np.asarray(point, dtype=float), float(entry["mass"])))
    return Atoms(atoms, dim=dim, delta_mass=float(cfg.get("delta_mass", 0.0)))


def triplet_from_config(cfg: dict) -> LevyTriplet:
    """Build a constant triplet from {"drift": [...], "gamma": [[...]], "nu": {...}}.

    Any other key is a ValidationError.
    """
    _reject_unknown_keys(cfg, {"drift", "gamma", "nu"}, "triplet")
    drift = np.asarray(cfg.get("drift", [0.0]), dtype=float)
    dim = drift.shape[0]
    gamma = np.asarray(cfg.get("gamma", np.zeros((dim, dim))), dtype=float)
    nu = jump_measure_from_config(cfg.get("nu"), dim)
    return LevyTriplet(drift, gamma, nu)


# ---------------------------------------------------------------------------
# Hypothesis checks on (field, chi) pairs
# ---------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    """Sampled validity report for a triplet field and compensation function.

    ``second_order_ok`` covers the quadratic closeness of chi to the
    identity jump on the sampled compact; ``triplet_ok`` covers pointwise
    triplet validity; ``modulus_ok`` covers the vanishing small-jump modulus
    together with continuity of chi on a set of full measure.  A ``None``
    verdict means the property could not be decided for the given variant.
    """

    second_order_ok: bool
    second_order_constant: float
    triplet_ok: bool
    modulus_ok: Optional[bool]
    modulus_profile: list[tuple[float, float]]
    violations: list[str]

    @property
    def all_ok(self) -> bool:
        return self.second_order_ok and self.triplet_ok and (self.modulus_ok is not False)


SECOND_ORDER_CAP = 1e6


def validate_hypotheses(field: TripletField, chi: CompensationFunction,
                        low, high, samples: int = 10_000, seed: int = 0) -> HypothesisReport:
    """Monte Carlo spot-check of the validity conditions on a compact box.

    The compactness quantifiers are sampled, not proved: ``samples`` pairs
    of points in the box drive the second-order ratio, a dyadic sweep of
    separations drives the small-jump modulus, and a subsample of base
    points drives the pointwise triplet checks.
    """
    low = as_point(low, field.dim)
    high = as_point(high, field.dim)
    if np.any(high <= low):
        raise ValidationError("the box must have positive extent")
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    gen = _rng.stream(seed, namespace=_rng.SCRATCH)
    violations: list[str] = []

    # Second-order closeness of chi on the box.
    b = gen.uniform(low, high, size=(samples, field.dim))
    cpts = gen.uniform(low, high, size=(samples, field.dim))
    ratios = _second_order_ratios(chi, b, cpts)
    c_k = float(np.max(ratios)) if ratios.size else 0.0
    second_ok = bool(np.isfinite(c_k) and c_k <= SECOND_ORDER_CAP)
    if not second_ok:
        violations.append(f"second-order ratio reached {c_k:.3e}")

    # Vanishing modulus on dyadic separation scales.
    profile = []
    base = gen.uniform(low, high, size=(min(samples, 2000), field.dim))
    span = float(np.min(high - low))
    m = base.shape[0]
    for j in range(9):
        eps = span * 0.5 ** (j + 1)
        # a uniform sphere direction, then a radius uniform on [0, eps)
        cpts_j = base + _rng.along(_rng.sphere_draw(gen, m, field.dim),
                                   gen.uniform(0.0, eps, size=m))
        np.clip(cpts_j, low, high, out=cpts_j)
        r = _second_order_ratios(chi, base, cpts_j)
        profile.append((eps, float(np.max(r)) if r.size else 0.0))
    first, last = profile[0][1], profile[-1][1]
    modulus_decays = last <= 0.1 * first + 1e-9

    # Pointwise triplet validity at sampled base points.
    n_base = min(samples, 64)
    pts = gen.uniform(low, high, size=(n_base, field.dim))
    triplet_ok = True
    continuity_ok: Optional[bool] = True
    for a in pts:
        try:
            trip = field(a)
        except ValidationError as exc:
            triplet_ok = False
            violations.append(f"triplet invalid at {a.tolist()}: {exc}")
            continue
        nu = trip.jumps
        # Atom locations are absolute, so the forbidden point mass sits at a
        # itself; density variants never charge single points.
        if nu.mass_at(a) > 0:
            triplet_ok = False
            violations.append(f"jump measure charges the base point at {a.tolist()}")
        compensated = nu.truncated_second_moment(1.0, a) + nu.tail_mass(1.0, a)
        if not np.isfinite(compensated):
            triplet_ok = False
            violations.append(f"compensated mass infinite at {a.tolist()}")
        ok = _chi_continuity_ok(chi, nu, a)
        if ok is False:
            continuity_ok = False
            violations.append(
                f"jump measure charges a discontinuity sphere of {chi.name} at {a.tolist()}"
            )
        elif ok is None and continuity_ok is True:
            continuity_ok = None

    if continuity_ok is False:
        modulus_ok: Optional[bool] = False
    elif continuity_ok is None:
        modulus_ok = None if modulus_decays else False
    else:
        modulus_ok = bool(modulus_decays)
    if modulus_ok is False and continuity_ok is not False:
        violations.append("small-jump modulus did not decay on the dyadic sweep")

    return HypothesisReport(
        second_order_ok=second_ok,
        second_order_constant=c_k,
        triplet_ok=triplet_ok,
        modulus_ok=modulus_ok,
        modulus_profile=profile,
        violations=violations,
    )


def _second_order_ratios(chi, b, c) -> np.ndarray:
    h = c - b
    norms = np.linalg.norm(h, axis=1)
    keep = norms > 1e-12
    if not np.any(keep):
        return np.zeros(0)
    vals = chi.pairwise(b[keep], c[keep])
    dev = np.linalg.norm(vals - h[keep], axis=1)
    return dev / norms[keep] ** 2


def _chi_continuity_ok(chi, nu, a) -> Optional[bool]:
    """Whether nu puts zero mass on the discontinuity set of chi at (a, .)."""
    if isinstance(chi, Chi1):
        return True
    if isinstance(nu, Atoms) and len(nu.masses) == 0:
        return True  # no atom in R^d, so no discontinuity of any chi is charged
    if isinstance(chi, Chi2):
        kink = 1.0
        if isinstance(nu, Atoms):
            d = nu._dists(a)
            return not bool(np.any(np.abs(d - kink) <= 1e-12))
        if isinstance(nu, StableLike):
            return True  # absolutely continuous: spheres are null sets
        return None
    return None
