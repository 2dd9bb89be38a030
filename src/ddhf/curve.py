"""Serialization orders for scans.

3D Hilbert-curve indices (Skilling's transform on the bit-transpose form)
order sparse voxels so that sequence neighbors are spatial neighbors; dense
BEV maps use four raster orders (row/column, forward/reverse).
"""

from __future__ import annotations

import math

import numpy as np

from .core import SparseVoxelSet

MAX_BITS = 20

_ONE = np.uint64(1)


def _axes_to_transpose(x: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's AxesToTranspose, vectorized over rows of x (n, d) uint64.

    Each per-row branch of the transform is an np.where select between its
    two outcomes over whole columns; integer xor and and are exact, so this
    is the same map as the row-by-row loop.
    """
    d = x.shape[1]
    cols = [x[:, i].copy() for i in range(d)]
    x0 = cols[0]
    zero = np.uint64(0)
    q = _ONE << np.uint64(bits - 1)
    while q > _ONE:
        p = q - _ONE
        for i in range(d):
            has = (cols[i] & q) != 0
            if i == 0:  # the swap of column 0 with itself is no change
                x0 ^= np.where(has, p, zero)
                continue
            t = np.where(has, zero, (x0 ^ cols[i]) & p)
            x0 ^= np.where(has, p, t)
            cols[i] ^= t
        q >>= _ONE
    # Gray encode
    for i in range(1, d):
        cols[i] ^= cols[i - 1]
    t = np.zeros(x.shape[0], dtype=np.uint64)
    q = _ONE << np.uint64(bits - 1)
    while q > _ONE:
        t ^= np.where((cols[d - 1] & q) != 0, q - _ONE, zero)
        q >>= _ONE
    return np.stack([c ^ t for c in cols], axis=1)


def _interleave(x: np.ndarray, bits: int) -> np.ndarray:
    """Pack the transpose form into a single index, MSB-first across axes."""
    h = np.zeros(x.shape[0], dtype=np.uint64)
    for j in range(bits - 1, -1, -1):
        for i in range(x.shape[1]):
            h = (h << _ONE) | ((x[:, i] >> np.uint64(j)) & _ONE)
    return h


def hilbert_index(
    x: np.ndarray | int, y: np.ndarray | int, z: np.ndarray | int, bits: int
) -> np.ndarray | int:
    """Hilbert-curve index of 3D cells; bijective over [0, 2^bits)^3.

    Accepts scalars or equal-length arrays. Consecutive indices map to
    face-adjacent cells (L1 distance 1).
    """
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"hilbert_index: bits must be in [1, {MAX_BITS}]")
    scalar = np.isscalar(x)
    coords = np.stack(
        [np.atleast_1d(np.asarray(c)) for c in (x, y, z)], axis=1
    )
    if np.any(coords < 0) or np.any(coords >= (1 << bits)):
        raise ValueError(f"hilbert_index: coordinate out of range for bits={bits}")
    h = _interleave(_axes_to_transpose(coords.astype(np.uint64), bits), bits)
    return int(h[0]) if scalar else h


def bits_for_extents(extents: tuple[int, int, int]) -> int:
    return max(1, math.ceil(math.log2(max(extents))))


def hilbert_order(coords: np.ndarray, extents: tuple[int, int, int]) -> np.ndarray:
    """Rows of integer cells (n, 3) in the order the Hilbert curve covering a
    grid of `extents` visits them: a permutation whose entry k is the row at
    position k. The sort is stable, so rows on one cell keep their order."""
    keys = hilbert_index(coords[:, 0], coords[:, 1], coords[:, 2], bits_for_extents(extents))
    return np.argsort(keys, kind="stable")


def hilbert_sort(v: SparseVoxelSet) -> np.ndarray:
    """Voxel indices in the order the Hilbert curve covering the grid visits
    them: a permutation whose entry k is the voxel at position k."""
    return hilbert_order(v.coords, v.grid.extents)


N_DIRECTIONS = 4  # scan orders of a BEV map, the columns of scan_orders_2d's table


def scan_orders_2d(h: int, w: int) -> np.ndarray:
    """The four flattening orders of an H x W map as one int64 (H*W,
    N_DIRECTIONS) row table: column k, a permutation of [0, H*W), is the
    cell scan k visits at each step. The columns are row-fwd, row-rev,
    col-fwd and col-rev."""
    if h < 1 or w < 1:
        raise ValueError("scan_orders_2d: H and W must be >= 1")
    row = np.arange(h * w, dtype=np.int64)
    col = row.reshape(h, w).T.ravel()
    return np.stack([row, row[::-1], col, col[::-1]], axis=1)


def cross_merge_2d(
    outputs: tuple[np.ndarray, ...], table: np.ndarray, h: int, w: int
) -> np.ndarray:
    """Scatter N_DIRECTIONS scanned sequences back to 2D, output k through
    column k of the row table; sum."""
    if len(outputs) != N_DIRECTIONS:
        raise ValueError(f"cross_merge_2d: expected exactly {N_DIRECTIONS} sequences")
    c = outputs[0].shape[1]
    acc = np.zeros((h * w, c), dtype=np.float64)
    for seq, perm in zip(outputs, table.T, strict=True):
        if seq.shape != (h * w, c):
            raise ValueError("cross_merge_2d: sequence shape mismatch")
        acc[perm] += seq  # perm is a permutation: each cell gets one addition
    return acc.reshape(h, w, c).astype(np.float32)
