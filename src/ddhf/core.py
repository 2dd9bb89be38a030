"""Core containers, deterministic PRNG/param init, camera geometry, voxelizer, tensor I/O.

Everything downstream builds on the types here. All float tensors are
row-major float32; all randomness flows through splitmix64 so that any
(name, shape, seed) triple reproduces identical bytes on every platform.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

VOXEL_FEATURE_DIM = 5  # (dx, dy, dz offsets from center, mean intensity, count)
VOXEL_COUNT_CHANNEL = 4  # the point count's column of a voxelized feature
ORTHONORMAL_TOL = 1e-6  # max |R R^T - I|; a 9-digit JSON rotation is off by about a billionth
MIN_DEPTH = 1e-9  # a camera sees a point only at a camera-frame depth above this
# Largest |focal length|, |principal point| and |translation| a camera may
# have. A finite float32 point lands within 6e38 + 1e100 of a camera's origin,
# so a projection f * x / z + c at depth z > MIN_DEPTH stays below 1e210, far
# inside float64; a 1e308 focal length or translation would overflow to inf.
CAMERA_MAX = 1e100


# ---------------------------------------------------------------------------
# splitmix64 PRNG
# ---------------------------------------------------------------------------

def prng_next(state: int) -> tuple[int, float]:
    """Advance one splitmix64 step; returns (new_state, uniform in [0, 1))."""
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    z = z ^ (z >> 31)
    return state, (z >> 11) * 2.0**-53


def prng_fill(state: int, count: int) -> tuple[int, np.ndarray]:
    """Vectorized splitmix64: `count` uniform draws, bit-identical to prng_next chains."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    s = np.uint64(state) + steps * np.uint64(_GAMMA)
    z = s
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    out = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    final = (state + count * _GAMMA) & MASK64
    return final, out


def fnv1a64(name: str) -> int:
    """FNV-1a 64-bit hash of a UTF-8 string."""
    h = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


def named_draws(name: str, seed: int, count: int) -> np.ndarray:
    """`count` uniform draws in [0, 1) of the stream seeded by FNV-1a(name) XOR seed."""
    return prng_fill(fnv1a64(name) ^ (seed & MASK64), count)[1]


def init_param(name: str, shape: tuple[int, ...], global_seed: int) -> np.ndarray:
    """Deterministic parameter tensor seeded by FNV-1a(name) XOR global_seed.

    Values are uniform in [-1/sqrt(shape[-1]), +1/sqrt(shape[-1])]. Weights
    are stored (in, out) and applied as `x @ W`, so that last dim is the
    fan-out, not the fan-in. Names ending in ".bias" are zero-initialized.
    Adding parameters elsewhere never shifts this tensor's values.
    """
    shape = tuple(int(d) for d in shape)
    if len(shape) == 0:
        raise ValueError("init_param: shape must be non-empty")
    if any(d <= 0 for d in shape):
        raise ValueError(f"init_param: zero-sized dim in shape {shape}")
    if name.endswith(".bias"):
        return np.zeros(shape, dtype=np.float32)
    draws = named_draws(name, global_seed, int(np.prod(shape)))
    bound = 1.0 / math.sqrt(shape[-1])
    return ((draws * 2.0 - 1.0) * bound).astype(np.float32).reshape(shape)


def zeroed(w, *names: str):
    """Copy of the weights dataclass `w` with the named tensor fields zeroed
    (same shapes and dtypes). A tuple-valued field is zeroed element by
    element: np.zeros_like on a tuple would return one stacked array."""

    def zero(v):
        return tuple(zero(x) for x in v) if isinstance(v, tuple) else np.zeros_like(v)

    return replace(w, **{n: zero(getattr(w, n)) for n in names})


def is_int(v) -> bool:
    """An integer that is not a bool (JSON true/false would pass as 1/0)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """A finite real number that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned voxel grid: world origin, per-axis cell size, cell counts."""

    origin: tuple[float, float, float]
    voxel_size: tuple[float, float, float]
    extents: tuple[int, int, int]

    def __post_init__(self):
        if any(s <= 0 for s in self.voxel_size):
            raise ValueError("GridSpec: voxel_size components must be > 0")
        if any(e <= 0 for e in self.extents):
            raise ValueError("GridSpec: extents components must be > 0")

    @property
    def nx(self) -> int:
        return self.extents[0]

    @property
    def ny(self) -> int:
        return self.extents[1]

    @property
    def nz(self) -> int:
        return self.extents[2]

    def centers(self, coords: np.ndarray) -> np.ndarray:
        """World coordinates of voxel centers for integer coords (n, 3)."""
        o = np.asarray(self.origin, dtype=np.float64)
        s = np.asarray(self.voxel_size, dtype=np.float64)
        return o + (coords.astype(np.float64) + 0.5) * s

    def point_coords(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integer cell indices for points (n, >= 3) plus an in-range mask."""
        o = np.asarray(self.origin, dtype=np.float64)
        s = np.asarray(self.voxel_size, dtype=np.float64)
        idx = np.floor((points[:, :3].astype(np.float64) - o) / s)
        # clamped as floats: a value past int64 has no defined cast, and a
        # clamped cell stays outside the grid with its +-1 neighbours
        idx = np.clip(idx, -(2.0**62), 2.0**62).astype(np.int64)
        ext = np.asarray(self.extents, dtype=np.int64)
        mask = np.all((idx >= 0) & (idx < ext), axis=1)
        return idx, mask


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: 3x3 intrinsics, 4x4 world-to-camera extrinsics."""

    intrinsics: np.ndarray
    extrinsics: np.ndarray
    image_size: tuple[int, int]  # (height, width) in pixels

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=np.float64)
        e = np.asarray(self.extrinsics, dtype=np.float64)
        if k.shape != (3, 3) or k[2, 2] != 1.0:
            raise ValueError("CameraModel: intrinsics must be 3x3 with [2,2] == 1")
        if e.shape != (4, 4) or not np.array_equal(e[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValueError("CameraModel: extrinsics must be 4x4 with bottom row (0,0,0,1)")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(e))):
            raise ValueError("CameraModel: intrinsics and extrinsics must be finite")
        if not (k[0, 0] > 0 and k[1, 1] > 0):
            raise ValueError(f"CameraModel: focal lengths must be > 0, got {k[0, 0]}, {k[1, 1]}")
        bounded = {
            "focal length": k[[0, 1], [0, 1]],
            "principal point": k[:2, 2],
            "translation": e[:3, 3],
        }
        for name, values in bounded.items():
            if np.max(np.abs(values)) > CAMERA_MAX:
                raise ValueError(
                    f"CameraModel: {name} {values.tolist()} exceeds {CAMERA_MAX:g} in magnitude"
                )
        rot = e[:3, :3]
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails below
            off = np.max(np.abs(rot @ rot.T - np.eye(3)))
        if not off <= ORTHONORMAL_TOL:
            raise ValueError(
                "CameraModel: the extrinsics rotation block must be orthonormal,"
                f" max |R R^T - I| is {off:.3g} > {ORTHONORMAL_TOL:g}"
            )
        size = self.image_size
        if not (
            isinstance(size, (tuple, list))
            and len(size) == 2
            and all(is_int(s) for s in size)
            and min(size) > 0
        ):
            raise ValueError(f"CameraModel: image_size must be two positive integers, got {size!r}")
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "extrinsics", e)
        object.__setattr__(self, "image_size", (int(size[0]), int(size[1])))

    def world_to_cam(self, points: np.ndarray) -> np.ndarray:
        """Transform world points (n, 3) into camera frame (n, 3)."""
        p = points.astype(np.float64)
        return p @ self.extrinsics[:3, :3].T + self.extrinsics[:3, 3]

    def cam_to_world(self, points: np.ndarray) -> np.ndarray:
        rot = self.extrinsics[:3, :3]
        t = self.extrinsics[:3, 3]
        return (points.astype(np.float64) - t) @ rot

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pixel (u, v) = (f * x / z + c) and camera-frame depth z of world
        points (n, 3); u and v are meaningful only where z > MIN_DEPTH."""
        cam = self.world_to_cam(points)
        z = cam[:, 2]
        safe_z = np.where(z > MIN_DEPTH, z, 1.0)
        k = self.intrinsics
        u = k[0, 0] * cam[:, 0] / safe_z + k[0, 2]
        v = k[1, 1] * cam[:, 1] / safe_z + k[1, 2]
        return u, v, z

    def pixel_rays(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Camera-frame rays (n, 3) through float64 pixels (u, v) at unit
        depth: the points `project` maps to (u, v) at z = 1."""
        k = self.intrinsics
        return np.stack([(u - k[0, 2]) / k[0, 0], (v - k[1, 2]) / k[1, 1], np.ones_like(u)], axis=1)


# ---------------------------------------------------------------------------
# Sparse voxel container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseVoxelSet:
    """Occupied voxels of a grid: integer coords (n, 3) with features (n, C)."""

    coords: np.ndarray
    feats: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.int64).reshape(-1, 3)
        feats = _voxel_feats(self.feats, coords.shape[0])
        if coords.shape[0] and (coords.min() < 0 or np.any(coords >= self.grid.extents)):
            raise ValueError("SparseVoxelSet: coords outside grid extents")
        flat = np.ravel_multi_index(coords.T, self.grid.extents)
        order = np.argsort(flat, kind="stable")
        keys = flat[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("SparseVoxelSet: duplicate coords")
        for arr in (coords, keys, order):
            arr.flags.writeable = False
        self._fill(coords, feats, keys, order)

    def _fill(self, coords, feats, keys, order) -> None:
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "feats", feats)
        object.__setattr__(self, "_keys", keys)  # sorted flat cell indices
        object.__setattr__(self, "_order", order)  # row of each sorted key

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def channels(self) -> int:
        return self.feats.shape[1]

    def rows_of(self, coords: np.ndarray) -> np.ndarray:
        """Row of the voxel at each integer coordinate (..., 3), or -1 where
        the cell is unoccupied or outside the grid."""
        coords = np.asarray(coords, dtype=np.int64)
        # per-axis columns; an outside coordinate is clipped into the grid
        # for its flat index and then dropped by `inside`
        inside = np.ones(coords.shape[:-1], dtype=bool)
        flat = np.zeros(coords.shape[:-1], dtype=np.int64)
        for k, extent in enumerate(self.grid.extents):
            c = coords[..., k]
            inside &= (c >= 0) & (c < extent)
            flat *= extent
            flat += np.clip(c, 0, extent - 1)
        if self.n == 0:  # the general path would read _keys[-1] of an empty table
            return np.full(inside.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._keys, flat), self.n - 1)
        return np.where(inside & (self._keys[pos] == flat), self._order[pos], -1)

    def with_feats(self, feats: np.ndarray) -> "SparseVoxelSet":
        """Same occupancy, new per-voxel features. The new set shares this
        one's checked coords and sorted keys; only the features are checked."""
        out = object.__new__(SparseVoxelSet)
        object.__setattr__(out, "grid", self.grid)
        out._fill(self.coords, _voxel_feats(feats, self.n), self._keys, self._order)
        return out


def _voxel_feats(feats, n: int) -> np.ndarray:
    """feats as a read-only contiguous float32 (n, C) array."""
    feats = np.ascontiguousarray(feats, dtype=np.float32)
    if feats.ndim != 2 or feats.shape[0] != n:
        raise ValueError("SparseVoxelSet: feats must be (n, C) matching coords")
    feats.flags.writeable = False
    return feats


def empty_voxel_set(grid: GridSpec, channels: int) -> SparseVoxelSet:
    return SparseVoxelSet(
        np.zeros((0, 3), dtype=np.int64), np.zeros((0, channels), dtype=np.float32), grid
    )


def voxelize(points: np.ndarray, grid: GridSpec) -> SparseVoxelSet:
    """Group (x, y, z, intensity) points into occupied voxels.

    Per-voxel feature: mean offsets from the voxel center, mean intensity,
    and point count. Points outside the grid are dropped; the result is
    independent of input point order.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 4)
    idx, mask = grid.point_coords(points)
    idx, pts = idx[mask], points[mask]

    flat = np.ravel_multi_index(idx.T, grid.extents)
    uniq, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    coords = np.stack(np.unravel_index(uniq, grid.extents), axis=1).astype(np.int64)

    offsets = pts[:, :3] - grid.centers(idx)
    sums = np.zeros((uniq.size, 4), dtype=np.float64)
    np.add.at(sums, inverse, np.concatenate([offsets, pts[:, 3:4]], axis=1))
    means = sums / counts[:, None]
    feats = np.concatenate([means, counts[:, None].astype(np.float64)], axis=1)
    return SparseVoxelSet(coords, feats, grid)


# ---------------------------------------------------------------------------
# Dense BEV feature map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureMap:
    """Dense top-down feature grid: data[row, col, channel], row = y, col = x."""

    data: np.ndarray  # (H, W, C) float32
    origin: tuple[float, float]  # world (x, y) of the map's low corner
    cell_size: tuple[float, float]

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise ValueError("FeatureMap: data must be (H, W, C)")
        if not np.all(np.isfinite(data)):
            raise ValueError("FeatureMap: non-finite values")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def with_data(self, data: np.ndarray) -> "FeatureMap":
        return FeatureMap(data, self.origin, self.cell_size)

    def cell_centers(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """World (x, y) centers for (row, col) cells."""
        x = self.origin[0] + (np.asarray(cols, dtype=np.float64) + 0.5) * self.cell_size[0]
        y = self.origin[1] + (np.asarray(rows, dtype=np.float64) + 0.5) * self.cell_size[1]
        return np.stack([x, y], axis=-1)


def bev_map_for_grid(grid: GridSpec, data: np.ndarray) -> FeatureMap:
    """`data` (ny, nx, C) as the map over a 3D grid's x/y footprint
    (rows = y cells, cols = x)."""
    if data.shape[:2] != (grid.ny, grid.nx):
        raise ValueError(
            f"bev_map_for_grid: data is {data.shape[:2]}, grid footprint is {(grid.ny, grid.nx)}"
        )
    return FeatureMap(
        data, (grid.origin[0], grid.origin[1]), (grid.voxel_size[0], grid.voxel_size[1])
    )


# ---------------------------------------------------------------------------
# Binary tensor container
# ---------------------------------------------------------------------------

_MAGIC = b"DDHF"


def save_tensor(path: str | Path, arr: np.ndarray) -> None:
    """Write a float32 tensor: magic, version, dtype tag, dims (u64), LE payload."""
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    header = _MAGIC + struct.pack("<III", 1, 0, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    Path(path).write_bytes(header + arr.astype("<f4").tobytes())


def load_tensor(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes, need 16)")
    version, dtype, ndim = struct.unpack_from("<III", raw, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    if dtype != 0:
        raise ValueError(f"{path}: unsupported dtype tag {dtype}")
    start = 16 + 8 * ndim
    if len(raw) < start:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes, {ndim} dims need {start})")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 16)
    want = 4 * math.prod(dims)
    if len(raw) - start != want:
        raise ValueError(
            f"{path}: payload is {len(raw) - start} bytes, dims {dims} need {want}"
        )
    return np.frombuffer(raw, dtype="<f4", offset=start).reshape(dims).astype(np.float32)
