"""Camera-to-3D transforms.

A small deterministic conv stack stands in for the image backbone and emits
features, per-pixel depth-bin distributions, and semantic scores. Those feed
two consumers sharing the same depth map: semantic-aware voxel selection
(project voxel centers, threshold on semantic and depth scores, cap with
farthest point sampling) and a lift-splat transform onto the BEV plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    MIN_DEPTH,
    CameraModel,
    FeatureMap,
    GridSpec,
    SparseVoxelSet,
    bev_map_for_grid,
    init_param,
)
from .ops import conv2d, sigmoid, silu, softmax

FEATURE_STRIDE = 4  # two stride-2 convs


@dataclass(frozen=True)
class DepthBinSpec:
    """Uniform depth discretization over [d_min, d_max] into count bins."""

    d_min: float
    d_max: float
    count: int

    def __post_init__(self):
        if self.d_min <= 0:
            raise ValueError("DepthBinSpec: d_min must be > 0")
        if self.count < 2:
            raise ValueError("DepthBinSpec: count must be >= 2")
        if self.d_max <= self.d_min:
            raise ValueError("DepthBinSpec: d_max must exceed d_min")

    @property
    def width(self) -> float:
        return (self.d_max - self.d_min) / self.count

    def bin_of(self, depth: np.ndarray) -> np.ndarray:
        """Bin index per depth; a depth outside [d_min, d_max) gets -1
        below it or when NaN, and count above it."""
        k = np.floor((np.asarray(depth) - self.d_min) / self.width)
        # range-tested as floats: a NaN or a value past int64 has no defined cast
        return np.where(k >= 0, np.minimum(k, self.count), -1).astype(np.int64)

    def centers(self) -> np.ndarray:
        return self.d_min + (np.arange(self.count, dtype=np.float64) + 0.5) * self.width


@dataclass(frozen=True)
class ImageFeatureSet:
    """Per-camera encoder outputs at 1/FEATURE_STRIDE of input resolution."""

    feats: tuple[np.ndarray, ...]  # each (h, w, C)
    depth: tuple[np.ndarray, ...]  # each (h, w, D), softmax-normalized rows
    sem: tuple[np.ndarray, ...]  # each (h, w) in [0, 1]

    def __post_init__(self):
        for dp in self.depth:
            sums = dp.sum(axis=-1)
            if np.any(np.abs(sums - 1.0) > 1e-5):
                raise ValueError("ImageFeatureSet: depth bins must sum to 1 per pixel")
        for sm in self.sem:
            if np.any(sm < 0) or np.any(sm > 1):
                raise ValueError("ImageFeatureSet: semantic scores must lie in [0, 1]")


@dataclass(frozen=True)
class ImageEncoderWeights:
    conv1_k: np.ndarray  # (3, 3, 3, C)
    conv1_b: np.ndarray
    conv2_k: np.ndarray  # (3, 3, C, C)
    conv2_b: np.ndarray
    depth_w: np.ndarray  # (C, D)
    depth_b: np.ndarray
    sem_w: np.ndarray  # (C, 1)
    sem_b: np.ndarray


def init_image_encoder(
    name: str, c: int, depth_bins: int, global_seed: int
) -> ImageEncoderWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, global_seed)
    return ImageEncoderWeights(
        conv1_k=p("conv1.weight", (3, 3, 3, c)),
        conv1_b=p("conv1.bias", (c,)),
        conv2_k=p("conv2.weight", (3, 3, c, c)),
        conv2_b=p("conv2.bias", (c,)),
        depth_w=p("depth_head.weight", (c, depth_bins)),
        depth_b=p("depth_head.bias", (depth_bins,)),
        sem_w=p("sem_head.weight", (c, 1)),
        sem_b=p("sem_head.bias", (1,)),
    )


def encode_image(image: np.ndarray, w: ImageEncoderWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One camera: (features (h, w, C), depth probs (h, w, D), semantics (h, w))."""
    if not np.all(np.isfinite(image)):
        raise ValueError("encode_image: image must be finite")
    f = silu(conv2d(image.astype(np.float32), w.conv1_k, w.conv1_b, stride=2))
    f = silu(conv2d(f, w.conv2_k, w.conv2_b, stride=2))
    depth = softmax((f @ w.depth_w + w.depth_b).astype(np.float64), axis=-1)
    sem = sigmoid((f @ w.sem_w + w.sem_b)[..., 0])
    return f.astype(np.float32), depth.astype(np.float32), sem.astype(np.float32)


def encode_images(images: list[np.ndarray], w: ImageEncoderWeights) -> ImageFeatureSet:
    parts = [encode_image(img, w) for img in images]
    return ImageFeatureSet(
        feats=tuple(p[0] for p in parts),
        depth=tuple(p[1] for p in parts),
        sem=tuple(p[2] for p in parts),
    )


# ---------------------------------------------------------------------------
# Bilinear sampling
# ---------------------------------------------------------------------------

def _corners(h: int, w: int, u: np.ndarray, v: np.ndarray):
    """Flat indices of the four pixels around fractional (v=row, u=col) in
    an (h, w) map, with edge clamping, and the column and row fractions."""
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    return (v0 * w + u0, v0 * w + u1, v1 * w + u0, v1 * w + u1), u - u0, v - v0


def _blend(corner_values, fu: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """The bilinear blend of four corner samples, widened to float64; fu and
    fv broadcast against each sample."""
    c00, c01, c10, c11 = (np.asarray(c, dtype=np.float64) for c in corner_values)
    top = c00 * (1 - fu) + c01 * fu
    bot = c10 * (1 - fu) + c11 * fu
    return top * (1 - fv) + bot * fv


def bilinear_sample(grid: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample grid (h, w, K) at fractional (v=row, u=col) with edge clamping."""
    h, w = grid.shape[:2]
    corners, fu, fv = _corners(h, w, u, v)
    g = grid.reshape(h * w, -1)
    return _blend((g[c] for c in corners), fu[:, None], fv[:, None])


# ---------------------------------------------------------------------------
# Farthest point sampling
# ---------------------------------------------------------------------------

FPS_BLOCK = 32  # contiguous point indices per bounding box in the neighbour search
FPS_PAIR_CHUNK = 1 << 15  # point pairs measured per batch; bounds the temporaries


def _index_ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated range(starts[i], stops[i]), with the i each element came from."""
    lens = stops - starts
    owner = np.repeat(np.arange(lens.size), lens)
    offsets = np.cumsum(lens) - lens
    return owner, np.arange(owner.size) + (starts - offsets)[owner]


def _square_sum(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """(dx^2 + dy^2) + dz^2, computed in place in the given arrays."""
    dx *= dx
    dy *= dy
    dz *= dz
    dx += dy
    dx += dz
    return dx


class _FpsBlocks:
    """Points cut into blocks of FPS_BLOCK contiguous indices, each with a box.

    Box-to-box gaps bound every point-to-point distance from below, and
    rounding is monotone, so a block pair whose squared gap is not < m holds
    no point pair whose computed squared distance is < m.
    """

    def __init__(self, points: np.ndarray):
        n = points.shape[0]
        # per-axis buffers; (dx^2 + dy^2) + dz^2 matches an axis-1 sum bit for bit
        self.x, self.y, self.z = (np.ascontiguousarray(points[:, k]) for k in range(3))
        starts = np.arange(0, n, FPS_BLOCK)
        # box corners as per-axis columns, so the gap test gathers contiguous rows
        self.lo = [np.minimum.reduceat(c, starts) for c in (self.x, self.y, self.z)]
        self.hi = [np.maximum.reduceat(c, starts) for c in (self.x, self.y, self.z)]
        # blocks by box x-start, with the running max of box x-ends, so that a
        # query's reachable x-range is one window of this order
        self.by_x = np.argsort(self.lo[0], kind="stable")
        self.lo_x = self.lo[0][self.by_x]
        self.hi_x_reach = np.maximum.accumulate(self.hi[0][self.by_x])
        # each axis as one row per block, the last padded with +inf, which is
        # never within < m of a finite point
        self.rows = []
        for c in (self.x, self.y, self.z):
            padded = np.full(starts.size * FPS_BLOCK, np.inf)
            padded[:n] = c
            self.rows.append(padded.reshape(-1, FPS_BLOCK))

    def near(
        self, q: np.ndarray, m: float, bound: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(position in q, point index, squared distance) of every point
        within < m of a point of the sorted query set q and < bound[index].

        Each candidate block is met as one padded row of FPS_BLOCK distances
        per query point, FPS_PAIR_CHUNK pairs at a time. The bound is applied
        inside each batch, so only the pairs that pass it are held.
        """
        qb = q // FPS_BLOCK
        ub, ufirst, ucount = np.unique(qb, return_index=True, return_counts=True)
        # over-covers sqrt(m) by more than any rounding of a squared gap, the
        # subnormal range included, so the window drops no block the exact
        # gap test below keeps
        reach = np.sqrt(m) * (1 + 1e-6) + 1e-150
        w0 = np.searchsorted(self.hi_x_reach, self.lo[0][ub] - reach, "left")
        w1 = np.searchsorted(self.lo_x, self.hi[0][ub] + reach, "right")
        uu, k = _index_ranges(w0, w1)
        vv = self.by_x[k]
        u = ub[uu]
        gap = None
        for lo, hi in zip(self.lo, self.hi):
            g = np.maximum(np.maximum(lo[vv] - hi[u], lo[u] - hi[vv]), 0.0)
            g *= g
            gap = g if gap is None else gap + g
        keep = gap < m
        uu, vv = uu[keep], vv[keep]

        q_start, q_stop = ufirst[uu], ufirst[uu] + ucount[uu]
        done = np.cumsum(ucount[uu]) * FPS_BLOCK
        parts = []
        i = 0
        while i < uu.size:
            base = done[i - 1] if i else 0
            j = max(int(np.searchsorted(done, base + FPS_PAIR_CHUNK, "right")), i + 1)
            owner, qpos = _index_ranges(q_start[i:j], q_stop[i:j])
            blk = vv[i:j][owner]
            axes = zip((self.x, self.y, self.z), self.rows)
            d = _square_sum(*(rows[blk] - c[q[qpos]][:, None] for c, rows in axes))
            row, col = np.nonzero(d < m)
            idx = blk[row] * FPS_BLOCK + col
            d = d[row, col]
            keep = d < bound[idx]
            parts.append((qpos[row[keep]], idx[keep], d[keep]))
            i = j
        if not parts:
            return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        return tuple(np.concatenate(col) for col in zip(*parts))


def _first_fit(count: int, src: np.ndarray, dst: np.ndarray, quota: int) -> np.ndarray:
    """Greedy independent set in index order over count nodes, at most quota.

    Node i is taken unless an earlier taken node has an edge (src, dst) to
    it; every edge has src < dst. A taken node blocks only later nodes, so
    the walk visits just the nodes with an edge out, and the first quota
    unblocked nodes are the ones a walk stopping at the quota takes.
    """
    blocked = bytearray(count)
    order = np.argsort(src, kind="stable")
    heads, first = np.unique(src[order], return_index=True)
    stops = np.append(first[1:], src.size).tolist()
    dst = dst[order].tolist()
    for i, a, b in zip(heads.tolist(), first.tolist(), stops):
        if not blocked[i]:
            for j in dst[a:b]:
                blocked[j] = 1
    return np.flatnonzero(np.frombuffer(blocked, dtype=np.uint8) == 0)[:quota]


def fps(points: np.ndarray, n_target: int) -> np.ndarray:
    """Farthest point sampling: greedy max-min selection of n_target indices.

    Returns the same indices in the same order as `oracles.fps`: the first
    pick is index 0, each next pick is the point farthest from all picks so
    far (squared distance (dx^2 + dy^2) + dz^2), the lowest index on ties.

    The picks come in levels of equal max distance m. Within a level the
    greedy loop takes the ties (the points at distance m) in ascending index
    order, skipping any within < m of an earlier pick of the level, since
    that pick lowered its distance below m; afterwards only points within
    < m of the level's picks get a new distance. So each level costs one
    neighbour search over index blocks (`_FpsBlocks`) from all its ties,
    instead of one pass over all points per pick: its pairs between ties
    are the skip edges, and its pairs from taken ties the distance updates.
    A level with more ties than picks left is first searched from only as
    many ties as picks left: if none of those is within < m of another,
    the walk takes exactly them and ends. The last level updates no
    distance. Once m is 0 only duplicates of picks remain, and every
    further pick is index 0, as argmax over all-zero distances gives.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if n_target > n:
        raise ValueError(f"fps: target {n_target} exceeds point count {n}")
    if n_target < 1:
        raise ValueError("fps: target must be >= 1")
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        raise ValueError(
            f"fps: points must be finite; row {int(np.argmax(bad))} is {points[bad][0]}"
        )
    blocks = _FpsBlocks(points)
    chosen = np.zeros(n_target, dtype=np.int64)
    dist = _square_sum(*(c - c[0] for c in (blocks.x, blocks.y, blocks.z)))
    filled = 1
    while filled < n_target:
        m = dist.max()
        if m == 0:
            break
        ties = np.flatnonzero(dist == m)
        quota = n_target - filled
        if ties.size > quota:
            # the walk takes the first quota ties unless one is within < m
            # of an earlier one; then it ends, so no distance needs updating
            head = ties[:quota]
            qpos, idx, _ = blocks.near(head, m, dist)
            if not np.any((dist[idx] == m) & (idx > head[qpos]) & (idx <= head[-1])):
                chosen[filled:] = head
                break
        # every point within < m of a tie that the tie would move: since
        # d < m = dist there, that includes every tie within < m of it
        qpos, idx, d = blocks.near(ties, m, dist)
        edge = (dist[idx] == m) & (idx > ties[qpos])
        dst = np.searchsorted(ties, idx[edge])
        taken = _first_fit(ties.size, qpos[edge], dst, quota)
        chosen[filled : filled + taken.size] = ties[taken]
        filled += taken.size
        if filled == n_target:
            break
        took = np.zeros(ties.size, dtype=bool)
        took[taken] = True
        keep = took[qpos]
        np.minimum.at(dist, idx[keep], d[keep])
    return chosen


# ---------------------------------------------------------------------------
# Semantic-aware voxel selection
# ---------------------------------------------------------------------------

# grid cells projected, or kept cells sampled, per step; any size gives the same bits
SAFS_CHUNK = 4096


def _best_camera(
    centers: np.ndarray,
    images: ImageFeatureSet,
    cameras: list[CameraModel],
    bins: DepthBinSpec,
) -> tuple[np.ndarray, ...]:
    """(semantic score, v_d, camera, feature-map u, feature-map v) of each
    center's highest-semantic camera, the first one on ties.

    v_d is sampled only at the center's own depth bin, and only for a camera
    that takes the lead. A center no camera sees, in image and in depth
    range, keeps semantic score -1, v_d 0 and camera -1.
    """
    n = centers.shape[0]
    best_sem = np.full(n, -1.0)
    best_vd = np.zeros(n)
    best_cam = np.full(n, -1)
    best_u, best_v = np.zeros(n), np.zeros(n)
    for cam_idx, cam in enumerate(cameras):
        u, v, z = cam.project(centers)
        h_img, w_img = cam.image_size
        valid = (z > MIN_DEPTH) & (u >= 0) & (u <= w_img - 1) & (v >= 0) & (v <= h_img - 1)
        kbin = bins.bin_of(z)
        valid &= (kbin >= 0) & (kbin < bins.count)
        sel = np.flatnonzero(valid)
        mu, mv = u[sel] / FEATURE_STRIDE, v[sel] / FEATURE_STRIDE
        h, w = images.sem[cam_idx].shape
        corners, fu, fv = _corners(h, w, mu, mv)
        sem = _blend((images.sem[cam_idx].ravel()[c] for c in corners), fu, fv)
        better = sem > best_sem[sel]
        upd = sel[better]
        depth = images.depth[cam_idx].reshape(h * w, -1)
        own_bin = kbin[upd]
        best_vd[upd] = _blend(
            (depth[c[better], own_bin] for c in corners), fu[better], fv[better]
        )
        best_sem[upd] = sem[better]
        best_cam[upd] = cam_idx
        best_u[upd], best_v[upd] = mu[better], mv[better]
    return best_sem, best_vd, best_cam, best_u, best_v


def safs_select(
    grid: GridSpec,
    images: ImageFeatureSet,
    cameras: list[CameraModel],
    bins: DepthBinSpec,
    d_thresh: float,
    s_thresh: float,
    cap: int,
) -> SparseVoxelSet:
    """Select image voxels whose semantic and depth scores clear thresholds.

    Every voxel center is projected into each camera; the camera with the
    highest semantic score supplies the scores and features. v_d is the
    depth-distribution mass of the bin containing the projected depth; kept
    voxels carry feature = sampled image feature * v_d. If more than `cap`
    survive, farthest point sampling over voxel centers trims the set.

    Grid cells are projected and tested SAFS_CHUNK at a time, in grid
    order, and each survivor keeps five numbers: its flat cell index, its
    camera, its feature-map u and v, and v_d. FPS trims the survivors on
    their centers. Features are then sampled only for the cells FPS keeps,
    per camera and SAFS_CHUNK rows at a time, scaled by v_d and cast to
    float32. So no whole-grid float64 state exists and no cell FPS drops
    is sampled. Every step is per cell, so any chunk size gives the same
    bits.
    """
    if not 0 <= d_thresh <= 1 or not 0 <= s_thresh <= 1:
        raise ValueError("safs_select: thresholds must lie in [0, 1]")
    coords_of = lambda flat: np.stack(np.unravel_index(flat, grid.extents), axis=-1)
    n = int(np.prod(grid.extents))
    survivors = []
    for lo in range(0, n, SAFS_CHUNK):
        cells = np.arange(lo, min(lo + SAFS_CHUNK, n))
        sem, vd, cam, u, v = _best_camera(grid.centers(coords_of(cells)), images, cameras, bins)
        keep = (sem > s_thresh) & (vd > d_thresh)
        survivors.append((cells[keep], cam[keep], u[keep], v[keep], vd[keep]))
    cell, cam, u, v, vd = (np.concatenate(col) for col in zip(*survivors))
    del survivors  # the per-chunk copies; FPS below may need the room
    if cell.size > cap:
        # sorted, to keep grid order for deterministic downstream sorts
        pick = np.sort(fps(grid.centers(coords_of(cell)), cap))
        cell, cam, u, v, vd = (a[pick] for a in (cell, cam, u, v, vd))
    feats = np.empty((cell.size, images.feats[0].shape[2]), dtype=np.float32)
    for cam_idx in range(len(cameras)):
        rows = np.flatnonzero(cam == cam_idx)
        for lo in range(0, rows.size, SAFS_CHUNK):
            r = rows[lo : lo + SAFS_CHUNK]
            feats[r] = bilinear_sample(images.feats[cam_idx], u[r], v[r]) * vd[r, None]
    return SparseVoxelSet(coords_of(cell), feats, grid)


# ---------------------------------------------------------------------------
# Lift-splat to BEV
# ---------------------------------------------------------------------------

def lss_splat(
    images: ImageFeatureSet,
    cameras: list[CameraModel],
    bins: DepthBinSpec,
    bev: GridSpec,
) -> FeatureMap:
    """Distribute pixel features along their depth bins and sum-pool into BEV.

    Each feature pixel contributes (feature * bin probability) at the 3D
    point unprojected through that bin's center depth; contributions landing
    in the same BEV cell are summed, conserving total feature mass in range.

    The (cell, pixel, probability) of every contribution is listed camera by
    camera, bin by bin, pixel by pixel, and one float64 bincount per channel
    sums them from 0 in that order. Each pixel's ray comes from
    `CameraModel.pixel_rays`.
    """
    c_width = images.feats[0].shape[2]
    centers_d = bins.centers()
    cells, pixels, probs = [], [], []
    first = 0  # stacked pixel row of the camera's first pixel
    for cam_idx, cam in enumerate(cameras):
        h, w, _ = images.feats[cam_idx].shape
        p = images.depth[cam_idx].reshape(h * w, bins.count)
        jj, ii = np.meshgrid(np.arange(w), np.arange(h))
        u = (jj.ravel() * FEATURE_STRIDE).astype(np.float64)
        v = (ii.ravel() * FEATURE_STRIDE).astype(np.float64)
        rays = cam.pixel_rays(u, v)
        for kbin in range(bins.count):
            pts_cam = rays * centers_d[kbin]
            pts_world = cam.cam_to_world(pts_cam)
            cx = np.floor((pts_world[:, 0] - bev.origin[0]) / bev.voxel_size[0])
            cy = np.floor((pts_world[:, 1] - bev.origin[1]) / bev.voxel_size[1])
            # range-tested as floats: a NaN or a value past int64 has no defined cast
            ok = np.flatnonzero((cx >= 0) & (cx < bev.nx) & (cy >= 0) & (cy < bev.ny))
            cells.append((cy[ok] * bev.nx + cx[ok]).astype(np.int64))
            pixels.append(first + ok)
            probs.append(p[ok, kbin].astype(np.float64))
        first += h * w
    cell, pixel, prob = (np.concatenate(a) for a in (cells, pixels, probs))
    feats = np.concatenate([f.reshape(-1, c_width) for f in images.feats]).T
    acc = np.empty((bev.ny, bev.nx, c_width))
    for ch in range(c_width):
        weights = feats[ch][pixel].astype(np.float64) * prob
        acc[..., ch] = np.bincount(cell, weights, bev.ny * bev.nx).reshape(bev.ny, bev.nx)
    return bev_map_for_grid(bev, acc)
