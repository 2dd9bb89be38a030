"""Homogeneous voxel fusion.

Two sparse branches (LiDAR, image) are encoded per scale by intra-modal
bidirectional scan blocks over Hilbert-ordered sequences, fused by a
cross-modal block over the merged two-modality sequence, and carried through
a three-scale U shape (strides 1, 2, 4) built from sparse stride-2
convolutions with skip additions on the way back up. LiDAR z indices are
doubled before merging so both modalities share one coordinate frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import GridSpec, SparseVoxelSet, init_param, zeroed
from .curve import hilbert_order, hilbert_sort
from .ops import silu
from .ssm import SsmBlockWeights, bidirectional_block, init_ssm_block

TAG_LIDAR = 0
TAG_IMAGE = 1

STRIDES = (1, 2, 4)  # voxel size of each scale over the input's; sparse_down doubles it
N_SCALES = len(STRIDES)
IMAGE_LIFT = (1, 1, 2)  # image-grid cells per LiDAR cell on x, y, z: z resolution doubled


def image_extents(lidar_extents: tuple[int, int, int]) -> tuple[int, int, int]:
    """The image grid's cells per axis for a LiDAR grid's."""
    return tuple(int(n) * k for n, k in zip(lidar_extents, IMAGE_LIFT))


# ---------------------------------------------------------------------------
# Merge and split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergedSequence:
    """Both modalities' voxels as one curve-ordered sequence.

    Coincident lifted coords stay distinct elements (LiDAR sorts first);
    tags plus original indices make the split exact.
    """

    feats: np.ndarray  # (n, C) in sequence order
    lifted: np.ndarray  # (n, 3) shared-frame coords (LiDAR coords times IMAGE_LIFT)
    tags: np.ndarray  # (n,) TAG_LIDAR / TAG_IMAGE
    orig_idx: np.ndarray  # (n,) row in the source set
    lidar: SparseVoxelSet
    image: SparseVoxelSet

    @property
    def n(self) -> int:
        return self.feats.shape[0]


def cv_merge(v_lidar: SparseVoxelSet, v_image: SparseVoxelSet) -> MergedSequence:
    """Interleave both sets in Hilbert order over the lifted coordinate frame:
    LiDAR coords times IMAGE_LIFT, which must map the LiDAR grid onto the
    image grid."""
    lidar_ext, image_ext = tuple(v_lidar.grid.extents), tuple(v_image.grid.extents)
    if image_ext != image_extents(lidar_ext):
        raise ValueError(
            f"cv_merge: image grid extents must be the LiDAR grid's {lidar_ext}"
            f" times {IMAGE_LIFT}, got {image_ext}"
        )
    lifted_l = v_lidar.coords * np.array(IMAGE_LIFT, dtype=np.int64)
    lifted = np.concatenate([lifted_l, v_image.coords], axis=0)
    tags = np.concatenate(
        [
            np.full(v_lidar.n, TAG_LIDAR, dtype=np.int64),
            np.full(v_image.n, TAG_IMAGE, dtype=np.int64),
        ]
    )
    orig = np.concatenate(
        [np.arange(v_lidar.n, dtype=np.int64), np.arange(v_image.n, dtype=np.int64)]
    )
    feats = np.concatenate([v_lidar.feats, v_image.feats], axis=0)
    # stable over [LiDAR; image], so LiDAR goes first on a shared cell
    order = hilbert_order(lifted, v_image.grid.extents)
    return MergedSequence(
        feats[order], lifted[order], tags[order], orig[order], v_lidar, v_image
    )


def cv_split(seq: MergedSequence) -> tuple[SparseVoxelSet, SparseVoxelSet]:
    """Exact inverse of cv_merge: original coords and grids, sequence features."""
    is_l = seq.tags == TAG_LIDAR
    feats_l = np.zeros_like(seq.lidar.feats)
    feats_i = np.zeros_like(seq.image.feats)
    feats_l[seq.orig_idx[is_l]] = seq.feats[is_l]
    feats_i[seq.orig_idx[~is_l]] = seq.feats[~is_l]
    return seq.lidar.with_feats(feats_l), seq.image.with_feats(feats_i)


# ---------------------------------------------------------------------------
# Sparse stride-2 convolution and its transpose
# ---------------------------------------------------------------------------

def coarser_grid(grid: GridSpec) -> GridSpec:
    return GridSpec(
        grid.origin,
        tuple(s * 2 for s in grid.voxel_size),
        tuple(math.ceil(e / 2) for e in grid.extents),
    )


def sparse_down(
    v: SparseVoxelSet, kernel: np.ndarray, bias: np.ndarray
) -> SparseVoxelSet:
    """Stride-2 sparse 3x3x3 convolution.

    Output occupancy is the floor-halved input occupancy; each output voxel
    at q gathers input voxels at 2q + t for t in {-1,0,1}^3 and applies
    SiLU(sum of kernel-weighted features + bias). kernel: (3,3,3,Cin,Cout).
    """
    grid_out = coarser_grid(v.grid)
    half = v.coords // 2
    flat_out = np.ravel_multi_index(half.T, grid_out.extents)
    uniq = np.unique(flat_out)
    out_coords = np.stack(np.unravel_index(uniq, grid_out.extents), axis=1).astype(np.int64)

    acc = np.tile(bias.astype(np.float64), (out_coords.shape[0], 1))
    taps = list(np.ndindex(3, 3, 3))
    # one lookup for all taps; each tap widens only the rows it gathers
    rows = v.rows_of(out_coords * 2 + (np.array(taps, dtype=np.int64) - 1)[:, None])
    for t, tap_rows in zip(taps, rows):
        hit = np.flatnonzero(tap_rows >= 0)
        acc[hit] += v.feats[tap_rows[hit]].astype(np.float64) @ kernel[t].astype(np.float64)
    return SparseVoxelSet(out_coords, silu(acc), grid_out)


def sparse_up(
    v_coarse: SparseVoxelSet, target: SparseVoxelSet, kernel: np.ndarray
) -> SparseVoxelSet:
    """Transposed stride-2 conv scattered onto a recorded finer occupancy.

    Each fine voxel p receives its single parent q = floor(p/2) weighted by
    kernel[p - 2q]; the result is added to target's features (skip path).
    kernel: (2,2,2,Cin,Cout) with Cout == target channel width.
    """
    if coarser_grid(target.grid).extents != v_coarse.grid.extents:
        raise ValueError("sparse_up: target occupancy does not match the coarse grid")
    parents = v_coarse.rows_of(target.coords // 2)
    # p - 2q in {0,1}^3, as its kernel tap's position in np.ndindex(2, 2, 2)
    tap = (target.coords % 2) @ np.array([4, 2, 1])
    tap[parents < 0] = -1
    # the skip first: a float32 feature widens exactly and addition commutes,
    # and a voxel without a parent keeps its feature's bits, -0.0 included;
    # each tap group's float64 sum is rounded to float32 as it is stored
    out = target.feats.copy()
    cfeats = v_coarse.feats.astype(np.float64)
    for k, t in enumerate(np.ndindex(2, 2, 2)):
        sel = np.flatnonzero(tap == k)
        k64 = kernel[t].astype(np.float64)
        out[sel] = target.feats[sel].astype(np.float64) + cfeats[parents[sel]] @ k64
    return target.with_feats(out)


# ---------------------------------------------------------------------------
# Full two-branch encoder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HvfBranchWeights:
    """One modality's layers: an intra-modal block per scale and the sparse
    down and up convolutions between scales."""

    iv: tuple[SsmBlockWeights, ...]  # one per scale
    down: tuple[tuple[np.ndarray, np.ndarray], ...]  # (kernel, bias) per step
    up: tuple[np.ndarray, ...]  # kernel per step

    def identity_configured(self) -> "HvfBranchWeights":
        """Identity scan blocks and zero upsample kernels."""
        return replace(zeroed(self, "up"), iv=tuple(w.identity_configured() for w in self.iv))


@dataclass(frozen=True)
class HvfWeights:
    lidar: HvfBranchWeights
    image: HvfBranchWeights
    cv: tuple[SsmBlockWeights, ...]  # one per scale

    def __post_init__(self):
        if not (len(self.lidar.iv) == len(self.image.iv) == len(self.cv) == N_SCALES):
            raise ValueError(f"HvfWeights: expected {N_SCALES} scales")
        for name in ("lidar", "image"):
            branch = getattr(self, name)
            if not len(branch.down) == len(branch.up) == N_SCALES - 1:
                raise ValueError(
                    f"HvfWeights: the {name} branch needs {N_SCALES - 1} down and up"
                    f" convolutions, got {len(branch.down)} and {len(branch.up)}"
                )

    def identity_configured(self) -> "HvfWeights":
        """Identity scan blocks and zero upsample kernels: features pass through."""
        return HvfWeights(
            self.lidar.identity_configured(),
            self.image.identity_configured(),
            tuple(w.identity_configured() for w in self.cv),
        )


def init_hvf(name: str, c: int, d_state: int, global_seed: int) -> HvfWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, global_seed)
    block = lambda suffix: init_ssm_block(f"{name}.{suffix}", c, d_state, global_seed)
    steps = range(N_SCALES - 1)
    branch = lambda m: HvfBranchWeights(
        iv=tuple(block(f"iv_{m}{s}") for s in range(N_SCALES)),
        down=tuple(
            (p(f"down_{m}{s}.weight", (3, 3, 3, c, c)), p(f"down_{m}{s}.bias", (c,)))
            for s in steps
        ),
        up=tuple(p(f"up_{m}{s}.weight", (2, 2, 2, c, c)) for s in steps),
    )
    return HvfWeights(
        lidar=branch("lidar"),
        image=branch("image"),
        cv=tuple(block(f"cv{s}") for s in range(N_SCALES)),
    )


def iv_mamba(v: SparseVoxelSet, w: SsmBlockWeights) -> SparseVoxelSet:
    """Intra-modal block: scan the voxel features in Hilbert order, read in
    place through the order."""
    return v.with_feats(bidirectional_block(v.feats, w, hilbert_sort(v)))


def cv_mamba(
    v_lidar: SparseVoxelSet, v_image: SparseVoxelSet, w: SsmBlockWeights
) -> tuple[SparseVoxelSet, SparseVoxelSet]:
    """Cross-modal block: one scan over the merged two-modality sequence."""
    seq = cv_merge(v_lidar, v_image)
    return cv_split(replace(seq, feats=bidirectional_block(seq.feats, w)))


def hvf_forward(
    v_lidar: SparseVoxelSet, v_image: SparseVoxelSet, w: HvfWeights
) -> tuple[SparseVoxelSet, SparseVoxelSet]:
    """Three scales of IV + CV blocks with downsampling between scales, then
    upsampling back to stride 1 against the recorded skip occupancies."""
    branches = (w.lidar, w.image)  # LiDAR first at every step
    vs = (v_lidar, v_image)
    skips: list[tuple[SparseVoxelSet, SparseVoxelSet]] = []
    for s in range(N_SCALES):
        vs = cv_mamba(*(iv_mamba(v, b.iv[s]) for v, b in zip(vs, branches)), w.cv[s])
        skips.append(vs)
        if s < N_SCALES - 1:
            vs = tuple(sparse_down(v, *b.down[s]) for v, b in zip(vs, branches))
    for s in range(N_SCALES - 2, -1, -1):
        vs = tuple(sparse_up(v, skip, b.up[s]) for v, skip, b in zip(vs, skips[s], branches))
    return vs
