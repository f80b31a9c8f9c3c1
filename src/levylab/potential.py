"""One-dimensional diffusion in a potential and its two-point discrete scheme.

The scheme solves, at each state ``a``, for step sizes ``psi_up`` and
``psi_down`` making the double exponential integral

    phi(a, h) = 2 * int_a^{a+h} int_a^b exp(V(b) - V(c)) dc db

equal to the squared time step, then moves up with probability

    p(a) = int_{a-psi_down}^{a} e^V / int_{a-psi_down}^{a+psi_up} e^V.

Every integral (phi, p, psi and ``exp_integral``) comes from one cell walk
that touches only the cells it spans, anchored at the query point, so no
precision is lost to large cumulative offsets.  Lattice and grid cells are
integrated in closed form; a callable potential is split into cells where
a degree-24 Chebyshev interpolant resolves ``e^{+-V}`` (chebfun-style), and
the walk integrates each piece at its Chebyshev points.  Each walk rescales
its exponentials by V at its own start, so only a span whose own
oscillation overflows double precision fails, wherever the rest of the
window goes.  One walk serves rows of both directions at once.  Since one
walk gives phi and its slope together, psi is found by a few Newton walks,
certified to be bisection's value to the bit; ``psi_up`` and ``psi_down``
are solved together, as one batch of twice the rows.  The chain runs on
the shared block driver :func:`levylab.core.run_chain` with time step
``eps^2``: either a nearest-neighbour lattice walk (:func:`lattice_kernel`,
shared with the random walks in random environments) or a generic
psi-solver step.  The generic step locates its points' start cells once
for all its walks, and the certificate walk also walks each step to its
psi, so ``p`` costs no walk of its own: on a grid such as V = x/2 a step
walks three times, twice for Newton and once for the certificate.  Every
integral is summed row by row in a fixed order, so a row gets the same
bits in a batch of any size.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .core import PathBatch, SchemeConfig, as_point, run_chain
from .errors import (
    ConfigurationError,
    PotentialOverflowError,
    QuadratureError,
    RangeError,
    SchemeStepError,
    ValidationError,
    WindowEdgeError,
)

PSI_REL_TOL = 1e-12
BRACKET_CAP_FACTOR = 2 ** 10
NEWTON_MAX_ITER = 8
NEWTON_STOP = 1e-2 * PSI_REL_TOL  # Newton ends when every next step is below this times eps
CERTIFY_ROUNDS = 2
LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_FLOAT_EPS = float(np.finfo(float).eps)
MAX_WALK_CELLS = 1 << 14
WALK_CHUNK = 1 << 14  # rows walked at a time: one side of a full block
WALK_END_ULPS = 64
MAX_LATTICE_SITE = 2 ** 53  # floats hold every integer site up to here
CHEB_DEGREE = 24
CHEB_TAIL_TOL = 1e-14  # trailing coefficients of a resolved cell, relative to the largest
DISTANCE_TOL_ABS = 1e-10  # quadrature tolerances of potential_distance
DISTANCE_TOL_REL = 1e-8

# Chebyshev points of the second kind on [-1, 1], ascending and symmetric;
# values there -> Chebyshev coefficients; values -> values of the integral
# from -1 (cumulative spectral integration); and the Clenshaw-Curtis weights.
_CHEB_X = np.sin(0.5 * np.pi * np.arange(-CHEB_DEGREE, CHEB_DEGREE + 1, 2) / CHEB_DEGREE)
_CHEB_COEF = np.linalg.inv(_cheb.chebvander(_CHEB_X, CHEB_DEGREE))
_CHEB_CUM = _cheb.chebvander(_CHEB_X, CHEB_DEGREE + 1) @ _cheb.chebint(_CHEB_COEF, lbnd=-1)
_CHEB_W = _CHEB_CUM[-1]


def _phi_terms(z):
    """``(e^z - 1)/z``, ``(e^{-z} - 1)/(-z)`` and ``(e^z - 1 - z)/z^2``, each
    stable near zero: their series on the rows with |z| below 1e-6, 1e-6
    and 1e-5.  The first and last share one ``expm1``."""
    z = np.asarray(z, dtype=float)
    nz = -z
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        second = np.expm1(z)
        plus = second / z
        second -= z
        second /= z * z
        minus = np.expm1(nz)
        minus /= nz
    size = np.abs(z)
    small = size < 1e-5
    if small.any():
        s = z[small]
        second[small] = 0.5 + s / 6.0 + s * s / 24.0
        small = size < 1e-6
        for out, s in ((plus, z[small]), (minus, nz[small])):
            out[small] = 1.0 + s / 2.0 + s * s / 6.0
    return plus, minus, second


def _sample(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """``fn`` at the points ``x`` (any shape); a non-finite value is a ValidationError."""
    v = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(v)):
        raise ValidationError(
            f"potential is not finite on [{float(np.min(x))}, {float(np.max(x))}]; "
            "e^|V| cannot be integrable"
        )
    return v


@dataclass
class _CellData:
    """Cell table: breakpoints, and either each closed-form cell's left value
    and slope or, for smooth Chebyshev cells, the potential ``fn``."""

    bounds: np.ndarray   # (n+1,)
    left_value: Optional[np.ndarray] = None  # (n,)
    slope: Optional[np.ndarray] = None    # (n,)
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def n_cells(self) -> int:
        return self.bounds.size - 1

    def locate(self, x: np.ndarray, side: str) -> np.ndarray:
        """Cell a walk from ``x`` starts in: ``side`` "right" walks up, "left" down."""
        return np.clip(np.searchsorted(self.bounds, x, side=side) - 1, 0, self.n_cells - 1)

    def value(self, cell: np.ndarray, x: np.ndarray) -> np.ndarray:
        """V at the points ``x``, each read in its ``cell``."""
        if self.fn is not None:
            return _sample(self.fn, x)
        return self.left_value[cell] + self.slope[cell] * (x - self.bounds[cell])

    def piece(self, cell: np.ndarray, pos: np.ndarray, length: np.ndarray, sgn: np.ndarray,
              ref: np.ndarray):
        """Integrals over the piece from ``pos`` to ``pos + sgn * length`` inside
        ``cell``, rescaled by ``ref``: the masses int e^{V-ref} and
        int e^{ref-V}, and the self term int e^{V(b)} int_pos^b e^{-V(c)} dc db.
        ``sgn`` is each row's direction, +1 or -1."""
        if self.fn is not None:
            # einsum, not BLAS, sums each row in a fixed order: a row gets
            # the same bits in any batch.
            half = 0.5 * length
            v = _sample(self.fn, pos[:, None] + (sgn * half)[:, None] * (_CHEB_X + 1.0))
            ep = np.exp(v - ref[:, None])
            em = np.exp(ref[:, None] - v)
            cum = np.einsum("ij,kj->ik", em, _CHEB_CUM)
            return (half * np.einsum("ij,j->i", ep, _CHEB_W),
                    half * np.einsum("ij,j->i", em, _CHEB_W),
                    half * half * np.einsum("ij,j->i", ep * cum, _CHEB_W))
        slope = self.slope[cell]
        v_edge = self.left_value[cell] + slope * (pos - self.bounds[cell])
        plus, minus, second = _phi_terms(sgn * slope * length)
        return (np.exp(v_edge - ref) * length * plus,
                np.exp(ref - v_edge) * length * minus, length * length * second)


class Potential:
    """Base class: a measurable scalar potential with locally integrable e^{|V|}.

    A potential is its cell table: ``cells()`` builds it by ``_build_cells``
    on first use and keeps it.
    """

    domain: tuple[float, float]
    _cells: Optional[_CellData] = None

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.check_window(float(np.min(x)), float(np.max(x)))
        return self._value(x)

    def _value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cells(self) -> _CellData:
        if self._cells is None:
            self._cells = self._build_cells()
        return self._cells

    def _build_cells(self) -> _CellData:
        raise NotImplementedError

    def check_window(self, lo: float, hi: float) -> None:
        lo_d, hi_d = self.domain
        if not (lo_d - 1e-12 <= lo and hi <= hi_d + 1e-12):
            raise RangeError(
                f"query window [{lo}, {hi}] leaves the potential domain [{lo_d}, {hi_d}]"
            )


class PiecewiseConstantPotential(Potential):
    """Right-continuous lattice potential built from per-site increments.

    ``q[i]`` is the jump of the potential at lattice point ``(k_min + i) *
    mesh``.  The potential is ``offset`` on ``[0, mesh)`` and is summed
    outward from there over the cells ``k_min - 1 .. k_max``; increments
    outside the window count as zero, so the window may lie anywhere.
    """

    def __init__(self, mesh: float, q, k_min: int, offset: float = 0.0):
        if not 0 < mesh < math.inf:
            raise ValidationError(f"the mesh must be positive and finite, got {mesh}")
        q = np.asarray(q, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ValidationError("q must be a nonempty 1-d array")
        if not (np.all(np.isfinite(q)) and math.isfinite(offset)):
            raise ValidationError("the increments q and the offset must be finite")
        self.mesh, self.q, self.k_min, self.offset = float(mesh), q, int(k_min), float(offset)
        self.k_max = self.k_min + q.size - 1
        self.domain = ((self.k_min - 1) * self.mesh, (self.k_max + 1) * self.mesh)

    def _value(self, x: np.ndarray) -> np.ndarray:
        j = np.floor(x / self.mesh + 1e-12).astype(int)
        return self.cells().left_value[np.clip(j - self.k_min + 1, 0, self.q.size)]

    def up_probability(self, k_lo: int, k_hi: int) -> np.ndarray:
        """Up-probabilities ``1/(e^{q_k} + 1)`` of the nearest-neighbour walk at
        sites ``k_lo..k_hi``: the two-point scheme's exact kernel when eps is the
        mesh.  An overflowing ``e^{q_k}`` gives its limit 0."""
        with np.errstate(over="ignore"):
            return 1.0 / (np.exp(self.q[k_lo - self.k_min:k_hi - self.k_min + 1]) + 1.0)

    def _build_cells(self) -> _CellData:
        # Sum outward from the cell of [0, mesh), or the window end nearest it;
        # a sum beyond double precision leaves its cells at +-inf.
        q = self.q
        a0 = min(max(1 - self.k_min, 0), q.size)
        with np.errstate(over="ignore"):
            vals = self.offset + np.concatenate([-np.cumsum(q[:a0][::-1])[::-1], [0.0],
                                                 np.cumsum(q[a0:])])
        bounds = (np.arange(vals.size + 1) + self.k_min - 1) * self.mesh
        return _CellData(bounds=bounds, left_value=vals, slope=np.zeros(vals.size))


class GridPotential(Potential):
    """Piecewise-linear interpolation of (knot, value) samples.

    The admissible class is far larger (any measurable V with locally
    integrable e^{|V|}); sampling onto a grid is a deliberate representation
    restriction.
    """

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.size < 2 or knots.shape != values.shape:
            raise ValidationError("need at least two aligned knots and values")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValidationError("knots and values must be finite")
        if np.any(np.diff(knots) <= 0):
            raise ValidationError("knots must be strictly increasing")
        with np.errstate(over="ignore"):
            slope = np.diff(values) / np.diff(knots)
        steep = np.flatnonzero(~np.isfinite(slope))
        if steep.size:
            i = steep[0]
            raise ValidationError(f"the slope between knots {knots[i]:g} and {knots[i + 1]:g} "
                                  "is not finite in double precision")
        self.knots, self.values, self.slope = knots, values, slope
        self.domain = (float(knots[0]), float(knots[-1]))

    def _value(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.knots, self.values)

    def _build_cells(self) -> _CellData:
        return _CellData(bounds=self.knots, left_value=self.values[:-1], slope=self.slope)


class CallablePotential(Potential):
    """Callable potential ``fn`` (1-d array -> values) on a finite domain.

    The first query splits the domain, level by level, until the last three
    degree-24 Chebyshev coefficients of ``e^{+-(V - V(mid))}`` on each cell
    are within 1e-14 of the largest, plus what moving the samples by an ulp
    changes in V (the rounding noise near a cusp such as ``sqrt|x - c|``);
    cells narrower than ``WALK_END_ULPS`` ulps of their position are kept.
    A non-finite or empty domain or a non-finite sample is a ValidationError
    and over ``MAX_WALK_CELLS`` cells a RangeError.  However far the potential
    climbs over its domain, only a walk whose own span oscillates beyond
    double precision raises PotentialOverflowError.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], domain: tuple[float, float]):
        lo, hi = float(domain[0]), float(domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError(f"a callable potential needs a finite domain, got [{lo}, {hi}]")
        self.fn = fn
        self.domain = (lo, hi)

    def _value(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(x), dtype=float)

    def _build_cells(self) -> _CellData:
        return _chebyshev_cells(self.fn, *self.domain)


def _chebyshev_cells(fn: Callable[[np.ndarray], np.ndarray], lo: float,
                     hi: float) -> _CellData:
    """Split [lo, hi] until ``e^{+-V}`` is resolved on every cell (see CallablePotential)."""
    left, right = np.array([lo]), np.array([hi])
    accepted = []
    while left.size:
        x = 0.5 * (left + right)[:, None] + 0.5 * (right - left)[:, None] * _CHEB_X
        x[:, 0], x[:, -1] = left, right
        v = _sample(fn, x)
        dv = v - v[:, CHEB_DEGREE // 2, None]
        resolved = np.ones(left.size, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # The tail may also hold what moving the samples by an ulp changes in V.
            slope = np.max(np.abs(np.diff(v, axis=1) / np.diff(x, axis=1)), axis=1)
            tol = CHEB_TAIL_TOL + _FLOAT_EPS * np.maximum(-left, right) * slope
            for sign in (1.0, -1.0):
                coef = np.abs(np.exp(sign * dv) @ _CHEB_COEF.T)
                resolved &= np.max(coef[:, -3:], axis=1) <= tol * np.max(coef, axis=1)
        resolved |= (right - left) <= _walk_slack(left, right)
        accepted.append(left[resolved])
        left, right = left[~resolved], right[~resolved]
        mid = 0.5 * (left + right)
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])
        if sum(a.size for a in accepted) + left.size > MAX_WALK_CELLS:
            raise RangeError(f"the potential needs over {MAX_WALK_CELLS} cells on [{lo}, {hi}]")
    bounds = np.append(np.sort(np.concatenate(accepted)), hi)
    return _CellData(bounds=bounds, fn=fn)


def constant_potential(level: float = 0.0, lo: float = -100.0, hi: float = 100.0,
                       mesh: float = 1.0) -> PiecewiseConstantPotential:
    """A constant potential represented exactly on a lattice window."""
    k_lo = int(np.floor(lo / mesh)) - 1
    k_hi = int(np.ceil(hi / mesh)) + 1
    return PiecewiseConstantPotential(mesh, np.zeros(k_hi - k_lo + 1), k_lo, offset=level)


def zero_potential(mesh: float, k_min: int, k_max: int) -> PiecewiseConstantPotential:
    return PiecewiseConstantPotential(mesh, np.zeros(k_max - k_min + 1), k_min)


# ---------------------------------------------------------------------------
# Local cell walks: phi, p and short exponential integrals
# ---------------------------------------------------------------------------


def _starts(cd: _CellData, a: np.ndarray, up: np.ndarray):
    """Where each row's walk from ``a`` starts: its cell, located upward
    where ``up`` holds and downward elsewhere, and ``ref = V(a)``, read in
    the cell located upward."""
    cell = cd.locate(a, "right")
    ref = cd.value(cell, a)
    down = ~up
    cell[down] = cd.locate(a[down], "left")
    return cell, ref


def _walk(cd: _CellData, a: np.ndarray, h: np.ndarray, start=None):
    """Integrals over [a, a+h], walked cell by cell from ``a`` (see :func:`_walk_rows`).

    ``start`` is each row's ``(cell, ref)`` from :func:`_starts` for the
    direction of ``h``: a step locates its points once for all its walks.
    Every cell kind is integrated row by row, so rows are walked
    ``WALK_CHUNK`` at a time, which keeps each step's temporaries in cache.
    """
    if a.size > WALK_CHUNK:
        parts = [_walk_rows(cd, a[i:i + WALK_CHUNK], h[i:i + WALK_CHUNK],
                            None if start is None else tuple(z[i:i + WALK_CHUNK] for z in start))
                 for i in range(0, a.size, WALK_CHUNK)]
        return tuple(np.concatenate(z) for z in zip(*parts))
    return _walk_rows(cd, a, h, start)


@np.errstate(over="ignore", invalid="ignore")
def _walk_rows(cd: _CellData, a: np.ndarray, h: np.ndarray, start):
    """Integrals over [a, a+h], walked cell by cell from ``a``.

    Returns ``(phi_half, ep, em, ref)``: phi/2, which no rescaling touches,
    the unsigned masses int e^{V-ref} and int e^{ref-V} of the walked span,
    and the reference ``ref = V(a)`` they are rescaled by.  So every term
    sees only the span's own oscillation; a span whose oscillation
    overflows double precision raises PotentialOverflowError.

    Rows walking up and rows walking down share one loop over cells: each
    row carries its own direction and start cell (``start``, or located
    here when None), and adds its pieces in the order it meets its cells.
    """
    res, ep, em = np.zeros((3, a.size))
    up = h > 0
    cell, ref = _starts(cd, a, up) if start is None else start
    active = np.nonzero(up | (h < 0))[0]
    up = up[active]
    sgn = np.where(up, 1.0, -1.0)
    step = np.where(up, 1, -1)
    pos = a[active].copy()
    remaining = np.abs(h[active])
    cell = cell[active]
    ref_a = ref[active]
    guard = 0
    while active.size:
        guard += 1
        if guard > MAX_WALK_CELLS:
            raise ConfigurationError(f"a cell walk spans more than {MAX_WALK_CELLS} cells; "
                                     "use a coarser potential or a smaller eps")
        room = sgn * (cd.bounds[cell + up] - pos)  # to the cell's far edge
        length = np.minimum(np.maximum(room, 0.0), remaining)
        ep_piece, em_piece, self_piece = cd.piece(cell, pos, length, sgn, ref_a)
        rows = slice(None) if active.size == a.size else active  # a slice adds in place
        res[rows] += ep_piece * em[rows] + self_piece
        ep[rows] += ep_piece
        em[rows] += em_piece
        pos = pos + sgn * length
        remaining = remaining - length
        done = remaining <= 1e-300
        cell = cell + step
        if cell.min() < 0 or cell.max() >= cd.n_cells:
            outside = (cell < 0) | (cell >= cd.n_cells)
            slack = _walk_slack(a[active], a[active] + h[active])
            if (outside & ~done & (remaining > slack)).any():
                raise RangeError("cell walk left the potential window")
            done |= outside
        if done.any():
            keep = np.flatnonzero(~done)  # an index gathers faster than a mask
            active, up, sgn, step, pos, remaining, cell, ref_a = (
                z[keep] for z in (active, up, sgn, step, pos, remaining, cell, ref_a))
    # The three sums are nonnegative, so their maximum is finite exactly when all are.
    bad = ~np.isfinite(np.maximum(np.maximum(res, ep), em))
    if bad.any():
        raise PotentialOverflowError(
            f"the potential oscillates beyond double precision on the span from "
            f"{float(a[bad][0])} to {float(a[bad][0] + h[bad][0])}")
    return res, ep, em, ref


def _walk_slack(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Walk length a cell walk may have left when it reaches the window end.

    Stepping ``pos`` from cell edge to cell edge rounds at the scale of the
    positions visited, so a walk that ends exactly on the window edge can
    stop a few ulps short; that leftover is rounding, not an exit.
    """
    return WALK_END_ULPS * _FLOAT_EPS * (np.abs(start) + np.abs(end))


# ---------------------------------------------------------------------------
# Public primitives
# ---------------------------------------------------------------------------


def exp_integral(V: Potential, a1: float, a2: float, sign: str = "+") -> float:
    """int_{a1}^{a2} e^{+-V(b)} db by the cell walk."""
    if a2 < a1:
        raise ValidationError("need a1 <= a2")
    if sign not in ("+", "-"):
        raise ValidationError("sign must be '+' or '-'")
    V.check_window(a1, a2)
    _, ep, em, ref = _walk(V.cells(), np.array([a1]), np.array([a2 - a1]))
    raw, shift = (float(ep[0]), float(ref[0])) if sign == "+" else (float(em[0]), -float(ref[0]))
    if raw <= 0.0:
        return 0.0
    log_val = shift + math.log(raw)
    if log_val > LOG_FLOAT_MAX:
        raise PotentialOverflowError(
            f"exp integral over [{a1}, {a2}] overflows double precision"
        )
    return math.exp(log_val)


def phi_eval(V: Potential, a, h):
    """The oriented double integral 2 int_a^{a+h} int_a^b e^{V(b)-V(c)} dc db.

    Nonnegative for either sign of ``h``; exact (cell-closed-form) for
    lattice and grid potentials.
    """
    scalar = np.isscalar(a) and np.isscalar(h)
    a_arr, h_arr = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(h))
    shape = a_arr.shape
    a_arr, h_arr = (np.array(z, dtype=float).ravel() for z in (a_arr, h_arr))
    if a_arr.size == 0:
        return np.zeros(shape)
    V.check_window(float(np.min(np.minimum(a_arr, a_arr + h_arr))),
                   float(np.max(np.maximum(a_arr, a_arr + h_arr))))
    out = 2.0 * _walk(V.cells(), a_arr, h_arr)[0]
    return float(out[0]) if scalar else out.reshape(shape)


def psi_solve_many(V: Potential, a: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """For each point of ``a``, the unique positive steps ``(psi_up,
    psi_down)`` with phi(a, +psi_up) and phi(a, -psi_down) equal to eps^2.

    Both sides are solved in one batch of twice the rows, each row with its
    own direction.  Each value is bisection's to ``PSI_REL_TOL * eps``: the
    bracket ``hi0`` starts at twice the step and doubles until the target
    is covered, with a doubling cap flagging pathological potentials, then
    halves.  Every row is its own bisection, so a row's psi does not depend
    on the rows that share its call.  The solver reaches that value by
    certified Newton, reading bisection's bracket off the root instead of
    walking it.

    Newton's method on ``sqrt(phi) - eps`` finds the root in a few walks,
    since each walk gives phi and its slope ``2 e^{V(end)} int e^{-V}``;
    its iterates stay inside the potential window and the doubling cap.
    ``hi0`` is taken as the smallest ``2 eps 2^j`` at or above the root,
    and bisection's float loop from ``(0, hi0]`` is replayed against the
    root, at no cost.  One phi evaluation at the two ends the replay stops
    on certifies it: if phi is below the target at ``lo`` and not below it
    at ``hi``, and phi does not decrease, every comparison bisection makes
    agrees with the replay, so the result is bisection's to the bit,
    whatever Newton iterate the replay started from.  The same premise
    makes ``hi0`` the walked bracket: phi is covered at ``hi0 >= hi``, and
    short at ``hi0 / 2 <= lo`` unless ``hi0`` is the first bracket.  A
    failed end shows which way bisection turns there, so the root moves
    across it, ``hi0`` is read again and the replay runs again, up to
    ``CERTIFY_ROUNDS`` times, on the failed rows only.  Every walk of the
    call starts from the same points, so their start cells are located
    once.

    The other rows are bisected as the walked bracket and real phi
    comparisons: rows still failing, rows whose ``hi0`` would leave the
    window or pass the cap (there the walked bracket raises as bisection
    does), and all rows when a point lies outside the window or a Newton
    walk raises (an overflow or the cell budget, beyond where bisection
    would walk).  An ``eps`` whose square underflows is refused: phi's
    target would be 0 or lose its digits.
    """
    a = np.asarray(a, dtype=float).ravel()
    psi = _psi_rows(V, a, eps)[0]
    return psi[:a.size], psi[a.size:]


def _check_step_parameter(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise ValidationError("the step parameter must be positive and finite")
    if eps * eps < np.finfo(float).tiny:
        raise ValidationError(f"the step parameter {eps} is too small: its square, the "
                              "time step, underflows double precision")


def _psi_rows(V: Potential, a: np.ndarray, eps: float):
    """psi on the rows ``(a up, a down)`` (see :func:`psi_solve_many`), and
    each row's mass int e^{V-V(a)} up to its psi where the certificate walk
    gave it (see :func:`_certify`), NaN elsewhere."""
    _check_step_parameter(eps)
    if a.size == 0:
        return np.empty((2, 0))
    sgn = np.repeat([1.0, -1.0], a.size)  # the up rows, then the down rows
    a = np.concatenate([a, a])
    try:
        psi, mass = _psi_certified(V, a, sgn, eps)
    except (PotentialOverflowError, ConfigurationError, ValidationError):
        psi, mass = np.full((2, a.size), np.nan)
    missed = np.flatnonzero(np.isnan(psi))
    if missed.size:
        psi[missed] = _psi_bisected(V, a[missed], sgn[missed], eps)
    return psi, mass


def _psi_certified(V: Potential, a: np.ndarray, sgn: np.ndarray, eps: float):
    """psi by certified Newton with the bracket read off the root (see
    :func:`psi_solve_many`) and the masses of :func:`_certify`; NaN on the
    rows it cannot certify."""
    lo_d, hi_d = V.domain
    if not np.all((a >= lo_d) & (a <= hi_d)):
        return np.full((2, a.size), np.nan)
    limit = np.minimum(np.where(sgn > 0, hi_d - a, a - lo_d), BRACKET_CAP_FACTOR * eps)
    start = _starts(V.cells(), a, sgn > 0)
    root = _psi_newton(V, a, sgn, eps, limit, start)
    return _certify(V, a, sgn, eps, root, CERTIFY_ROUNDS, start)


def _certify(V: Potential, a: np.ndarray, sgn: np.ndarray, eps: float, root: np.ndarray,
             rounds: int, start):
    """Replay bisection against ``root`` from the bracket read off it and
    certify the replay, for up to ``rounds`` rounds; returns psi and each
    row's mass int e^{V-V(a)} up to it, both NaN where it fails."""
    lo_d, hi_d = V.domain
    target = eps * eps
    hi0 = np.full(a.shape, 2.0 * eps)
    while (short := hi0 < root).any():
        hi0[short] *= 2.0
    end = a + sgn * hi0
    ok = (hi0 <= BRACKET_CAP_FACTOR * eps * (1 + 1e-12)) & (end >= lo_d) & (end <= hi_d)
    lo, hi = _bisect(hi0, PSI_REL_TOL * eps, lambda mid: mid < root)
    # One walk gives phi at both ends of each row's bracket, and the mass to its
    # midpoint gives p as p_eval_many would: a row has the same bits in any batch.
    rows = slice(None) if ok.all() else ok
    ends = np.concatenate([sgn[rows] * z[rows] for z in (lo, hi, 0.5 * (lo + hi))])
    res, ep = _walk(V.cells(), np.tile(a[rows], 3), ends,
                    tuple(np.tile(z[rows], 3) for z in start))[:2]
    k = ends.size // 3
    up, down = np.zeros((2, a.size), dtype=bool)
    mass = np.full(a.size, np.nan)
    up[rows], down[rows] = 2.0 * res[:k] >= target, 2.0 * res[k:2 * k] < target
    mass[rows] = ep[2 * k:]
    held = ok & ~up & ~down & ((lo >= 0.5 * hi0) | (hi0 == 2.0 * eps))
    psi = np.where(held, 0.5 * (lo + hi), np.nan)
    mass[~held] = np.nan
    failed = up | down
    if rounds > 1 and failed.any():
        # Bisection turns the other way at that end: move the root across it.
        root = np.where(up, lo, np.where(down, np.nextafter(hi, np.inf), root))
        again = np.flatnonzero(failed)  # a row has the same bits in any batch
        psi[again], mass[again] = _certify(V, a[again], sgn[again], eps, root[again],
                                           rounds - 1, tuple(z[again] for z in start))
    return psi, mass


def _psi_bisected(V: Potential, a: np.ndarray, sgn: np.ndarray, eps: float) -> np.ndarray:
    """psi by plain bisection: the bracket doubles from ``2 eps`` over walks
    until phi covers the target, then halves on real phi comparisons."""
    target = eps * eps
    hi0 = np.full(a.shape, 2.0 * eps)
    cap = BRACKET_CAP_FACTOR * eps
    while True:
        short = phi_eval(V, a, sgn * hi0) < target
        if not short.any():
            break
        hi0[short] *= 2.0
        over = hi0 > cap * (1 + 1e-12)
        if over.any():
            bad = float(a[over][0])
            raise SchemeStepError(
                f"psi bracket expansion exceeded {BRACKET_CAP_FACTOR} steps at "
                f"position {bad}; the potential is pathological for this step size"
            )
    lo, hi = _bisect(hi0, PSI_REL_TOL * eps, lambda mid: phi_eval(V, a, sgn * mid) < target)
    return 0.5 * (lo + hi)


def _psi_newton(V: Potential, a: np.ndarray, sgn: np.ndarray, eps: float,
                limit: np.ndarray, start) -> np.ndarray:
    """Newton's method on ``g(h) = sqrt(phi(a, sgn h)) - eps`` from ``h = eps``,
    one walk per iterate over the rows of both directions (``sgn`` is each
    row's), each iterate clamped to ``[h/2, limit]``.

    In the walk's rescaled terms ``phi'/phi = e^{V(end)-ref} em / phi_half``,
    so the step ``g/g' = 2 (1 - eps/sqrt(phi)) phi/phi'`` never overflows; a
    step that is not a number leaves ``h/2``.  The iteration stops once every
    next step of either direction, predicted from the last two by quadratic
    convergence, is at most ``NEWTON_STOP * eps``: that spares the walks that
    would only stir rounding noise.
    """
    cd = V.cells()
    h = np.minimum(limit, eps)
    last = np.zeros_like(h)
    for _ in range(NEWTON_MAX_ITER):
        res, _, em, ref = _walk(cd, a, sgn * h, start)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.sqrt(2.0 * res) / eps
            slope = np.exp(V._value(a + sgn * h) - ref) * em / res
            step = 2.0 * (1.0 - 1.0 / ratio) / slope
        new = np.fmin(np.fmax(h - step, 0.5 * h), limit)
        step = np.abs(new - h)
        shrink = np.divide(step, last, out=np.ones_like(step), where=last > 0)
        h, last = new, step
        if float(np.max(step * np.minimum(shrink, 1.0) ** 2)) <= NEWTON_STOP * eps:
            break
    return h


def _bisect(hi: np.ndarray, tol: float, below: Callable[[np.ndarray], np.ndarray]):
    """Halve each bracket ``(0, hi]`` until it is at most ``tol`` wide,
    keeping the upper half where ``below(mid)`` is false; returns (lo, hi).
    A row stops at its own width, whatever the other rows' widths are.

    Before each of the first ``floor(log2(min(hi) / tol)) - 2`` halvings
    every row is still about ``8 tol`` wide or more, far beyond the rounding
    of the halvings, so those run on all rows with no width test; the last
    few run masked, row by row.
    """
    hi = hi.copy()
    lo = np.zeros_like(hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.log2(np.min(hi, initial=np.inf) / tol)
    for _ in range(int(bound) - 2 if np.isfinite(bound) and bound >= 1 else 0):
        mid = lo + hi
        mid *= 0.5
        less = below(mid)
        lo, hi = np.where(less, mid, lo), np.where(less, hi, mid)
    while True:
        wide = hi - lo > tol
        if not wide.any():
            return lo, hi
        mid = 0.5 * (lo + hi)
        less = below(mid)
        less &= wide
        wide &= ~less
        np.copyto(lo, mid, where=less)
        np.copyto(hi, mid, where=wide)


def p_eval_many(V: Potential, a: np.ndarray, psi_up: np.ndarray,
                psi_down: np.ndarray) -> np.ndarray:
    """Up-move probability at each point of ``a``: the e^V mass of
    ``[a - psi_down, a]`` over that of the whole step window
    ``[a - psi_down, a + psi_up]``.  The three arrays must have one shape."""
    a = np.asarray(a, dtype=float)
    psi_up = np.asarray(psi_up, dtype=float)
    psi_down = np.asarray(psi_down, dtype=float)
    if not a.shape == psi_up.shape == psi_down.shape:
        raise ValidationError(f"points and step sizes differ in shape: {a.shape}, "
                              f"{psi_up.shape} and {psi_down.shape}")
    unknown = np.full((2, a.size), np.nan)
    return _p_eval(V, a.ravel(), psi_up.ravel(), psi_down.ravel(), *unknown).reshape(a.shape)


def _p_eval(V: Potential, a: np.ndarray, psi_up: np.ndarray, psi_down: np.ndarray,
            down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """:func:`p_eval_many` on flat arrays, given the masses ``down`` of
    ``[a - psi_down, a]`` and ``up`` of ``[a, a + psi_up]``, rescaled by
    V(a), that are known already: the rows where either is NaN are walked
    here, and both arrays are filled in.  A known mass comes from a
    certified step, which lies inside the window."""
    if not (np.all((psi_up > 0) & (psi_up < math.inf))
            and np.all((psi_down > 0) & (psi_down < math.inf))):
        raise ValidationError("step sizes must be positive and finite")
    walk = np.flatnonzero(np.isnan(down) | np.isnan(up))
    if walk.size:
        rows = slice(None) if walk.size == a.size else walk
        a, psi_up, psi_down = a[rows], psi_up[rows], psi_down[rows]
        V.check_window(float(np.min(a - psi_down)), float(np.max(a + psi_up)))
        # Both masses are walked from ``a``, so they share its reference V(a).
        mass = _walk(V.cells(), np.concatenate([a, a]), np.concatenate([-psi_down, psi_up]))[1]
        down[rows], up[rows] = mass[:walk.size], mass[walk.size:]
    den = down + up
    if np.any(den <= 0):
        raise ValidationError("degenerate step window: zero exponential mass")
    p = down / den
    if np.any((p <= 0) | (p >= 1)):
        raise ValidationError("transition probability left (0, 1); check the window")
    return p


def _step_solve(V: Potential, a: np.ndarray, eps: float):
    """``(psi_up, psi_down, p)`` at the points ``a``: the values of
    :func:`psi_solve_many` and then :func:`p_eval_many`, with ``p``'s masses
    taken from the certificate walk where it gave them."""
    psi, mass = _psi_rows(V, a, eps)
    n = a.size
    return psi[:n], psi[n:], _p_eval(V, a, psi[:n], psi[n:], mass[n:], mass[:n])


# ---------------------------------------------------------------------------
# Chain simulation
# ---------------------------------------------------------------------------


def potential_chain_simulate(V: Potential, start, eps: float, horizon: float,
                             config: SchemeConfig) -> PathBatch:
    """Run the two-point scheme and emit the embedding t -> X_{floor(t/eps^2)}.

    Lattice-aligned piecewise-constant potentials with lattice starts reduce
    exactly to a nearest-neighbour walk, which steps with the closed-form
    ``up_probability`` and reads no cell.  Paths beyond the escape radius
    are absorbed at the cemetery.  A lattice or grid potential's window is
    its data, so paths that come within ``8 eps`` of its edge are absorbed
    too.  A CallablePotential's window only cuts a larger potential down to
    size, so such a path, or a step solve that leaves the window, raises
    WindowEdgeError instead.
    """
    _check_step_parameter(eps)
    if not callable(start):
        s = float(as_point(start, 1)[0])
        lo_d, hi_d = V.domain
        if not lo_d <= s <= hi_d:
            raise ValidationError(
                f"start point {s} lies outside the potential domain [{lo_d}, {hi_d}]"
            )
    dt = eps * eps
    grid, n_steps, capture = config.clock(horizon, lambda t: t / dt)

    lattice = _lattice_tables(V, eps, start, n_steps)
    if lattice is not None:
        site0, site_lo, p_table = lattice
        step = lattice_kernel(p_table, site_lo, (site_lo + 1, site_lo + p_table.size - 2),
                              eps, config.escape_radius)
        return run_chain(site0, step, n_steps, capture, dt, grid, 1, config,
                         emit=lambda sites: sites * eps)

    V.cells()  # build the cell table before any worker touches it
    lo_d, hi_d = V.domain
    margin = 8.0 * eps
    windowed = isinstance(V, CallablePotential)

    def step(x, gen, limit):
        a = x[:, 0]
        try:
            psiu, psid, p = _step_solve(V, a, eps)
        except RangeError as exc:
            raise (WindowEdgeError if windowed else SchemeStepError)(
                f"step solve left the potential window near positions "
                f"[{float(np.min(a))}, {float(np.max(a))}]: {exc}"
            ) from exc
        u = gen.random(a.size)
        a = np.where(u < p, a + psiu, a - psid)
        gone = (np.abs(a) > config.escape_radius) | (a < lo_d + margin) | (a > hi_d - margin)
        if windowed and np.any(gone & (np.abs(a) <= config.escape_radius)):
            raise WindowEdgeError(f"a path came within {margin} of the edge of the "
                                  f"potential window [{lo_d}, {hi_d}]")
        return a[:, None], gone, 1

    return run_chain(start, step, n_steps, capture, dt, grid, 1, config)


# Words per draw of the lattice walk (or one step's words, if more): at 2^16
# a range's words and flags stay in L2, as Euler's _JUMP_CHUNK jumps do.
_WORD_CHUNK = 1 << 16


def up_thresholds(p: np.ndarray) -> np.ndarray:
    """The uint64 thresholds ``T = ceil(p * 2^53)``, with ``u < p`` exactly when
    ``(w >> 11) < T`` for the Philox word ``w`` behind ``u = (w >> 11) * 2^-53``.

    ``p * 2^53`` is exact, and ``w >> 11`` is an integer below 2^53, so the
    ceiling loses nothing.  ``p`` outside [0, 1] or NaN maps as ``u < p``
    does: to 0 (never up) or 2^53 (always up).
    """
    p = np.fmin(np.fmax(np.asarray(p, dtype=float), 0.0), 1.0)
    return np.ceil(p * 2.0 ** 53).astype(np.uint64)


def lattice_kernel(p_table: np.ndarray, site_lo: int, keep: tuple[int, int], eps: float,
                   radius: float):
    """Chain kernel of a nearest-neighbour walk on integer sites (held as floats).

    A walk at site ``s`` moves up with probability ``p_table[s - site_lo]``
    and down otherwise; it is absorbed once it leaves the kept site range
    ``keep`` (inclusive) or ``|s * eps|`` exceeds ``radius``.  The kept
    sites that pass the float escape test form one interval ``[L, H]``: the
    rounded product is odd and monotone in ``s``, so bisecting on the float
    test itself finds its ends exactly.  A call walks the sites as integers
    for ``K`` steps: ``limit``, or fewer if a path could leave ``[L, H]``
    sooner, so no path is absorbed before step ``K`` and absorption is
    tested there only.

    Each step reads the ``m`` Philox words ``gen.random(m)`` would turn into
    uniforms, raw and in the same order, against the table's
    :func:`up_thresholds`, kept in place of ``p_table``; so the stream and
    the output are the one-step walk's.  When every threshold is equal (the
    zero potential, or any constant lattice), a path's site after ``K``
    steps depends only on its number of up moves, which are counted over
    the ``K * m`` words in ranges of ``_WORD_CHUNK``.  A kept range that
    reaches ``MAX_LATTICE_SITE``, where a float site loses its unit step,
    is a ValidationError.
    """
    reach = max(abs(keep[0]), abs(keep[1]))
    if reach >= MAX_LATTICE_SITE:
        raise ValidationError(f"the walk reaches lattice site {float(reach):.6g}, beyond 2^53, "
                              "where a float site loses its unit step; move the start nearer 0")
    n = bisect_right(range(reach + 1), radius, key=lambda s: s * eps) - 1
    rel_lo, rel_hi = max(keep[0], -n) - site_lo, min(keep[1], n) - site_lo
    table = up_thresholds(p_table)
    flat = bool(np.all(table == table[0]))

    def draws(gen, taken, m):
        # The words of ``taken`` steps as (steps, m) ranges, each word w
        # already shifted to the W = w >> 11 behind its uniform.
        rows = max(1, _WORD_CHUNK // m)
        for k in range(0, taken, rows):
            words = gen.bit_generator.random_raw(min(rows, taken - k) * m).reshape(-1, m)
            words >>= 11
            yield words

    def step(sites, gen, limit):
        m = sites.shape[0]
        rel = (sites[:, 0] - site_lo).astype(np.intp)
        room = min(int(rel.min()) - rel_lo, rel_hi - int(rel.max())) + 1
        taken = max(1, min(limit, room))
        if flat:
            ups = sum((words < table[0]).sum(axis=0) for words in draws(gen, taken, m))
            rel += 2 * ups - taken
        else:
            cut, move = np.empty(m, dtype=np.uint64), np.empty(m, dtype=np.intp)
            for words in draws(gen, taken, m):
                for w in words:
                    np.take(table, rel, out=cut)
                    np.less(w, cut, out=move, casting="unsafe")
                    move += move
                    move -= 1  # +1 up, -1 down
                    rel += move
        gone = (rel < rel_lo) | (rel > rel_hi)
        return (rel + site_lo).astype(float)[:, None], gone, taken

    return step


def _lattice_tables(V: Potential, eps: float, start, n_steps: int):
    """Site-indexed up-probabilities when the scheme reduces to a lattice walk.

    Returns (start_site, site_lo, p_table) or None when the reduction does
    not apply.  With mesh eps and a lattice start, psi = eps at every kept
    site and the kernel is the closed form ``V.up_probability``; as in RWRE,
    the table holds 0 or 1 exactly where ``e^{q_k}`` overflows or vanishes.
    """
    if not isinstance(V, PiecewiseConstantPotential):
        return None
    if abs(V.mesh - eps) > 1e-12 * eps:
        return None
    if callable(start):
        return None
    s = float(as_point(start, 1)[0])
    site0 = np.rint(s / eps)
    if abs(s - site0 * eps) > 1e-9 * eps:
        return None
    # Keep reachable sites whose initial psi bracket (two cells each way)
    # stays inside the window, as the generic step would need.
    site_lo = max(int(site0) - n_steps - 1, V.k_min + 1)
    site_hi = min(int(site0) + n_steps + 1, V.k_max - 1)
    if not site_lo <= site0 <= site_hi:
        return None
    return float(site0), site_lo, V.up_probability(site_lo, site_hi)


# ---------------------------------------------------------------------------
# Test-function transport and the potential-space distance
# ---------------------------------------------------------------------------


def _bounds_within(V: Potential, lo: float, hi: float) -> np.ndarray:
    """Cell bounds of a lattice or grid ``V`` inside [lo, hi], where V may jump or
    kink; a callable's cells only resolve ``e^{+-V}``, so it has none here."""
    if isinstance(V, CallablePotential):
        return np.empty(0)
    b = V.cells().bounds
    return b[(b >= lo) & (b <= hi)]


def transport_test_function(V: Potential, f0: float, s0: float,
                            g: Callable[[np.ndarray], np.ndarray],
                            interval: tuple[float, float],
                            resolution: int = 4097) -> Callable[[np.ndarray], np.ndarray]:
    """Reconstruct f with f(0) = f0, (e^{-V} f')(0) = s0 and the potential
    operator mapping f to g.

    Integrates f(x) = f0 + int_0^x e^{V(b)} (s0 + 2 int_0^b e^{-V} g) db on
    a dense grid (midpoint per cell, exact for cell-constant exponentials);
    the returned callable interpolates linearly between grid nodes.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo <= 0.0 <= hi):
        raise ValidationError("the reconstruction interval must contain zero")
    V.check_window(lo, hi)
    base = np.linspace(lo, hi, resolution)
    nodes = np.unique(np.concatenate([base, _bounds_within(V, lo, hi), [0.0]]))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    widths = np.diff(nodes)
    vm = V.value(mids)
    gm = np.asarray(g(mids), dtype=float)

    # Cumulative J(x) = int_0^x e^{-V} g, anchored at the zero node.
    inc_j = np.exp(-vm) * gm * widths
    j_nodes = np.concatenate([[0.0], np.cumsum(inc_j)])
    i0 = int(np.searchsorted(nodes, 0.0))
    j_nodes -= j_nodes[i0]

    # f increments: e^{V(mid)} (s0 + J_i + J_{i+1}) width   (trapezoid in J).
    inc_f = np.exp(vm) * (s0 * widths + (j_nodes[:-1] + j_nodes[1:]) * widths)
    f_nodes = np.concatenate([[0.0], np.cumsum(inc_f)])
    f_nodes -= f_nodes[i0]
    f_nodes += f0

    def f(x):
        x = np.asarray(x, dtype=float)
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            raise RangeError("evaluation outside the reconstruction interval")
        return np.interp(x, nodes, f_nodes)

    return f


def potential_distance(V: Potential, Vn: Potential, window: float) -> float:
    """int_{-M}^{M} max(|e^V - e^{Vn}|, |e^{-V} - e^{-Vn}|) da.

    Each piece between the potentials' breakpoints goes to QUADPACK's
    adaptive Gauss-Kronrod rule with extrapolation (QAGS), called through
    scipy, which is imported here, on first use, so start-up does not pay
    for it.
    """
    from scipy import integrate

    if window <= 0:
        raise ValidationError("the window must be positive")
    lo, hi = -window, window
    V.check_window(lo, hi)
    Vn.check_window(lo, hi)
    cuts = np.unique(np.concatenate([
        [lo, hi], _bounds_within(V, lo, hi), _bounds_within(Vn, lo, hi)]))

    def integrand(x):
        va = V.value(np.array([x]))
        vb = Vn.value(np.array([x]))
        return float(np.maximum(np.abs(np.exp(va) - np.exp(vb)),
                                np.abs(np.exp(-va) - np.exp(-vb)))[0])

    tol = DISTANCE_TOL_ABS / max(len(cuts) - 1, 1)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        value, abserr, _info, *failure = integrate.quad(
            integrand, float(a), float(b), epsabs=tol, epsrel=DISTANCE_TOL_REL, limit=400,
            full_output=1)
        # A failure QUADPACK flags (subdivision limit, roundoff, divergence)
        # is raised only when its error estimate exceeds ten times the
        # requested tolerance.  It is read from full_output, not from a
        # warning, so concurrent calls from worker threads do not share
        # warning state.
        tolerance = tol + DISTANCE_TOL_REL * abs(value)
        if failure and abserr > 10 * tolerance:
            reason = str(failure[0]).split("\n")[0]
            raise QuadratureError(
                f"adaptive quadrature over [{a}, {b}] did not converge: {reason}",
                estimate=value, error=abserr, tolerance=tolerance,
            )
        total += float(value)
    return total
