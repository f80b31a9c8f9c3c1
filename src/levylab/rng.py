"""Reproducible random streams for batch simulation.

Every simulator draws from counter-based Philox streams keyed by the run
seed plus a (namespace, index) pair.  Path batches are split into fixed-size
blocks, each block owning its own stream, so results are bit-identical
regardless of how many workers process the blocks or in which order.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1

# Stream namespaces.  Keeping them disjoint guarantees that e.g. environment
# draws never share a stream with path blocks under the same seed.
PATHS = 0
ENVIRONMENTS = 1
CLOCKS = 2
SCRATCH = 3


def stream(seed: int, index: int = 0, namespace: int = PATHS) -> np.random.Generator:
    """Return the Philox generator for (seed, namespace, index)."""
    key = np.array(
        [int(seed) & _MASK64, ((namespace << 48) | (index & ((1 << 48) - 1))) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def path_blocks(n_paths: int, block_size: int) -> list[tuple[int, int, int]]:
    """Split ``range(n_paths)`` into (start, stop, block_index) triples.

    Both counts are positive, as :class:`levylab.core.SchemeConfig` checks.
    """
    return [(start, min(start + block_size, n_paths), index)
            for index, start in enumerate(range(0, n_paths, block_size))]


def skip_ahead(gen: np.random.Generator, n: int) -> np.random.Generator:
    """Move the Philox generator ``gen`` past its next ``n`` 64-bit words.

    Returns a copy taken at the current position, so the skipped words can
    still be drawn from it while ``gen`` goes on after them.  Philox makes
    its words four at a time: what is left of the buffer is drawn raw,
    ``advance`` skips the whole blocks (its step counts blocks), and the
    remainder is drawn raw.  ``advance`` clears the buffered 32-bit half,
    so that is restored.  Other bit generators are refused.
    """
    bits = gen.bit_generator
    if not isinstance(bits, np.random.Philox):
        raise ValidationError(f"skip_ahead needs a Philox generator, not {type(bits).__name__}")
    state = bits.state
    copy = np.random.Generator(np.random.Philox(0))
    copy.bit_generator.state = state
    head = min(n, 4 - state["buffer_pos"])
    bits.random_raw(head)
    blocks, tail = divmod(n - head, 4)
    if blocks:
        bits.advance(blocks)
        moved = bits.state
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        bits.state = moved
    bits.random_raw(tail)
    return copy


def exponential(rng: np.random.Generator, size) -> np.ndarray:
    """Unit-rate exponentials via inverse CDF.

    ``-log1p(-u)`` with u in [0, 1) is strictly positive and reproduces the
    same values on every platform for a given stream.
    """
    return -np.log1p(-rng.random(size))


def uniform_open_closed(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms on (0, 1]; the closed right end keeps inverse-power jumps finite."""
    u = rng.random(size)
    return np.subtract(1.0, u, out=u)


def sphere_draw(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    """The draw behind a uniform sphere direction, for :func:`along`.

    In 1-d this is ``size`` uniforms on [0, 1), the sign being the side of
    1/2 they fall on; in higher dimensions, normalized Gaussian vectors.
    """
    if dim == 1:
        return rng.random(size)
    g = rng.standard_normal((size, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # A zero Gaussian vector has probability zero; guard anyway.
    norms[norms == 0.0] = 1.0
    return g / norms


def along(draw: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (size, dim) vectors of lengths ``r`` in the directions of ``draw``.

    In 1-d the sign is copied onto ``r`` in place (``draw`` is consumed), so
    no +-1 array is built; the result equals ``+-1.0 * r`` bit for bit.
    """
    if draw.ndim == 1:
        draw -= 0.5
        return np.copysign(r, draw, out=r)[:, None]
    return draw * r[:, None]
