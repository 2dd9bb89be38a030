"""Homogeneous voxel fusion.

Two sparse branches (LiDAR, image) are encoded per scale by intra-modal
bidirectional scan blocks over Hilbert-ordered sequences, fused by a
cross-modal block over the merged two-modality sequence, and carried through
a three-scale U shape (strides 1, 2, 4) built from sparse stride-2
convolutions with skip additions on the way back up; each transposed conv
scatters through the parent rows its down conv returned. LiDAR z indices are
doubled before merging so both modalities share one coordinate frame. The
merged sequence is only an order: `cv_merge` returns the Hilbert order of
the stacked rows [LiDAR; image], which the cross-modal block reads in place
and splits back into two slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import GridSpec, SparseVoxelSet, init_param, zeroed
from .curve import hilbert_order, hilbert_sort
from .ops import silu
from .ssm import SsmBlockWeights, bidirectional_block, init_ssm_block

STRIDES = (1, 2, 4)  # voxel size of each scale over the input's; sparse_down doubles it
N_SCALES = len(STRIDES)
IMAGE_LIFT = (1, 1, 2)  # image-grid cells per LiDAR cell on x, y, z: z resolution doubled


def image_extents(lidar_extents: tuple[int, int, int]) -> tuple[int, int, int]:
    """The image grid's cells per axis for a LiDAR grid's."""
    return tuple(int(n) * k for n, k in zip(lidar_extents, IMAGE_LIFT))


# ---------------------------------------------------------------------------
# Merged sequence
# ---------------------------------------------------------------------------

def cv_merge(v_lidar: SparseVoxelSet, v_image: SparseVoxelSet) -> np.ndarray:
    """Both sets as one sequence over their stacked rows [LiDAR; image]: a
    permutation whose entry k is the stacked row at position k, in Hilbert
    order over the lifted coordinate frame (LiDAR coords times IMAGE_LIFT,
    which must map the LiDAR grid onto the image grid). The order is stable,
    so LiDAR goes first on a shared cell."""
    lidar_ext, image_ext = tuple(v_lidar.grid.extents), tuple(v_image.grid.extents)
    if image_ext != image_extents(lidar_ext):
        raise ValueError(
            f"cv_merge: image grid extents must be the LiDAR grid's {lidar_ext}"
            f" times {IMAGE_LIFT}, got {image_ext}"
        )
    lifted = np.concatenate([v_lidar.coords * np.array(IMAGE_LIFT, dtype=np.int64), v_image.coords])
    return hilbert_order(lifted, image_ext)


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
) -> tuple[SparseVoxelSet, np.ndarray]:
    """Stride-2 sparse 3x3x3 convolution: the output set, and each input
    voxel's parent (the output row of its cell floor(p/2)) for sparse_up.

    Output occupancy is the floor-halved input occupancy; each output voxel
    at q gathers input voxels at 2q + t for t in {-1,0,1}^3 and applies
    SiLU(sum of kernel-weighted features + bias). kernel: (3,3,3,Cin,Cout).
    """
    grid_out = coarser_grid(v.grid)
    flat_out = np.ravel_multi_index((v.coords // 2).T, grid_out.extents)
    uniq, parents = np.unique(flat_out, return_inverse=True)
    out_coords = np.stack(np.unravel_index(uniq, grid_out.extents), axis=1).astype(np.int64)

    acc = np.tile(bias.astype(np.float64), (out_coords.shape[0], 1))
    taps = list(np.ndindex(3, 3, 3))
    # one lookup for all taps; each tap widens only the rows it gathers
    rows = v.rows_of(out_coords * 2 + (np.array(taps, dtype=np.int64) - 1)[:, None])
    for t, tap_rows in zip(taps, rows):
        hit = np.flatnonzero(tap_rows >= 0)
        acc[hit] += v.feats[tap_rows[hit]].astype(np.float64) @ kernel[t].astype(np.float64)
    return SparseVoxelSet(out_coords, silu(acc), grid_out), parents


def sparse_up(
    v_coarse: SparseVoxelSet, target: SparseVoxelSet, parents: np.ndarray, kernel: np.ndarray
) -> SparseVoxelSet:
    """Transposed stride-2 conv onto the set sparse_down took (target),
    through the parent rows it returned: each fine voxel p receives its
    parent q = floor(p/2) weighted by kernel[p - 2q], added to target's
    features (skip path). kernel: (2,2,2,Cin,Cout), Cout == target's width.
    """
    if parents.shape != (target.n,):
        raise ValueError(f"sparse_up: parents must have shape ({target.n},), got {parents.shape}")
    # p - 2q in {0,1}^3, as its kernel tap's position in np.ndindex(2, 2, 2)
    tap = (target.coords % 2) @ np.array([4, 2, 1])
    # each row is in one tap group, the skip first (a float32 feature widens
    # exactly and addition commutes), rounded to float32 as it is stored
    out = np.empty_like(target.feats)
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
    """Cross-modal block: one scan over the merged two-modality sequence,
    read in place through cv_merge's order over the stacked rows."""
    feats = np.concatenate([v_lidar.feats, v_image.feats])
    out = bidirectional_block(feats, w, cv_merge(v_lidar, v_image))
    return v_lidar.with_feats(out[: v_lidar.n]), v_image.with_feats(out[v_lidar.n :])


def hvf_forward(
    v_lidar: SparseVoxelSet, v_image: SparseVoxelSet, w: HvfWeights
) -> tuple[SparseVoxelSet, SparseVoxelSet]:
    """Three scales of IV + CV blocks with downsampling between scales, then
    upsampling back to stride 1 onto the recorded skip sets."""
    branches = (w.lidar, w.image)  # LiDAR first at every step
    vs = (v_lidar, v_image)
    skips = []  # per step and branch: (the set sparse_down took, its parents)
    for s in range(N_SCALES):
        vs = cv_mamba(*(iv_mamba(v, b.iv[s]) for v, b in zip(vs, branches)), w.cv[s])
        if s < N_SCALES - 1:
            downs = [sparse_down(v, *b.down[s]) for v, b in zip(vs, branches)]
            skips.append([(v, parents) for v, (_, parents) in zip(vs, downs)])
            vs = tuple(coarse for coarse, _ in downs)
    for s in range(N_SCALES - 2, -1, -1):
        vs = tuple(sparse_up(v, *skip, b.up[s]) for v, skip, b in zip(vs, skips[s], branches))
    return vs
