"""Homogeneous BEV fusion.

Voxel branches are collapsed to BEV by channelwise pillar max, concatenated
with the dense LiDAR/LSS maps, and fused by two scan blocks: an intra-modal
four-direction scan (SS2D) per modality, then a cross-modal block whose scan
parameters for both modalities are generated jointly from the concatenated
maps and whose outputs are blended by complementary gates summing to one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import FeatureMap, SparseVoxelSet, bev_map_for_grid, init_param, zeroed
from .curve import N_DIRECTIONS, cross_merge_2d, scan_orders_2d
from .ops import ConvBlock, conv_block, init_conv_block, layer_norm, silu
from .ssm import (
    ScanParams,
    SsmBlockWeights,
    generate_scan_params,
    init_ssm_block,
    s4d_real_a,
    selective_scan,
    softplus_delta,
)


def sparse_height_compress(v: SparseVoxelSet) -> FeatureMap:
    """Channelwise max over each BEV pillar's occupied voxels; empty pillars 0.
    The map covers the grid's x/y footprint, rows = y cells, cols = x.

    Voxels are stably sorted by pillar and each pillar's run is reduced with
    np.maximum in voxel order, so which signed zero a pillar holding both
    keeps depends only on that order. A non-finite feature reaches the map
    and is rejected there with a ValueError.
    """
    ny, nx, c = v.grid.ny, v.grid.nx, v.channels
    acc = np.zeros((ny * nx, c), dtype=np.float32)
    pillar = v.coords[:, 1] * nx + v.coords[:, 0]
    order = np.argsort(pillar, kind="stable")
    pillar = pillar[order]
    first = np.flatnonzero(np.diff(pillar, prepend=-1))
    acc[pillar[first]] = np.maximum.reduceat(v.feats[order], first)
    return bev_map_for_grid(v.grid, acc.reshape(ny, nx, c))


def _ss2d(
    x: np.ndarray, w: SsmBlockWeights | CbBranchWeights, params: ScanParams, scans: np.ndarray
) -> np.ndarray:
    """Scan of x (H, W, C) in D = N_DIRECTIONS directions as one D-stream
    scan: stream k visits the cells in column k of the `scan_orders_2d`
    table `scans` and reads params, row-major (H*W, .) maps shared by
    every direction or (H*W, D, .) with one slice per direction. Each
    direction is LayerNormed with its own row of w's `norm_scale` and
    `norm_shift`, scattered back and summed. The norm runs per direction:
    one call over the whole (H*W, D, C) output would hold a float64 copy
    of it and that copy's square at once."""
    h, wd, c = x.shape
    ys = selective_scan(x.reshape(h * wd, c), w.a, params, scans)
    outs = tuple(
        layer_norm(ys[:, k], w.norm_scale[k], w.norm_shift[k]) for k in range(N_DIRECTIONS)
    )
    return cross_merge_2d(outs, scans, h, wd)


# ---------------------------------------------------------------------------
# Intra-modal BEV block
# ---------------------------------------------------------------------------

def init_ib_mamba(name: str, c: int, d_state: int, global_seed: int) -> SsmBlockWeights:
    """A scan block's weights with one LayerNorm per scan direction."""
    return replace(
        init_ssm_block(name, c, d_state, global_seed),
        norm_scale=np.ones((N_DIRECTIONS, c), dtype=np.float32),
        norm_shift=np.zeros((N_DIRECTIONS, c), dtype=np.float32),
    )


def ib_mamba(b: FeatureMap, w: SsmBlockWeights) -> FeatureMap:
    """Four-direction scan block with gate modulation and residual add."""
    x_in = b.data
    h, wd, _ = x_in.shape
    x = (x_in @ w.in_w + w.in_b).astype(np.float32)
    maps = generate_scan_params(x, w)
    params = ScanParams(*(m.reshape(h * wd, -1) for m in (maps.b, maps.c, maps.delta)))
    merged = _ss2d(x, w, params, scan_orders_2d(h, wd))
    gated = merged * silu(x_in @ w.y_w + w.y_b)
    return b.with_data(x_in + gated @ w.out_w + w.out_b)


# ---------------------------------------------------------------------------
# Cross-modal BEV block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CbBranchWeights:
    """One modality's scan weights in the cross-modal block, under the
    field names `SsmBlockWeights` uses."""

    a: np.ndarray  # (C, d_state)
    in_w: np.ndarray  # (C, C)
    in_b: np.ndarray
    norm_scale: np.ndarray  # (N_DIRECTIONS, C)
    norm_shift: np.ndarray


@dataclass(frozen=True)
class CbMambaWeights:
    """Joint parameter generation plus per-modality scan weights.

    The generator map T is split, per modality (image first, then LiDAR) and
    per direction (row-fwd, row-rev, col-fwd, col-rev), into contiguous
    [B | C | delta] slices of widths d_state, d_state, C.
    """

    t1_w: np.ndarray  # (2C, hidden)
    t1_b: np.ndarray
    bn_scale: np.ndarray  # folded batch-norm affine, (hidden,)
    bn_shift: np.ndarray
    t2_w: np.ndarray  # (hidden, T_channels)
    t2_b: np.ndarray
    gate_w: np.ndarray  # (T_channels, C)
    gate_b: np.ndarray
    img: CbBranchWeights
    lid: CbBranchWeights

    def __post_init__(self):
        c, d_state = self.img.a.shape
        budget = 2 * N_DIRECTIONS * (2 * d_state + c)
        if self.t2_w.shape[1] != budget:
            raise ValueError(
                f"CbMambaWeights: T width {self.t2_w.shape[1]} != split budget {budget}"
            )


def init_cb_mamba(name: str, c: int, d_state: int, global_seed: int) -> CbMambaWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, global_seed)
    hidden = 2 * c
    t_ch = 2 * N_DIRECTIONS * (2 * d_state + c)
    branch = lambda m: CbBranchWeights(
        a=s4d_real_a(c, d_state),
        in_w=p(f"in_proj_{m}.weight", (c, c)),
        in_b=p(f"in_proj_{m}.bias", (c,)),
        norm_scale=np.ones((N_DIRECTIONS, c), dtype=np.float32),
        norm_shift=np.zeros((N_DIRECTIONS, c), dtype=np.float32),
    )
    return CbMambaWeights(
        t1_w=p("t1.weight", (2 * c, hidden)),
        t1_b=p("t1.bias", (hidden,)),
        bn_scale=np.ones(hidden, dtype=np.float32),
        bn_shift=np.zeros(hidden, dtype=np.float32),
        t2_w=p("t2.weight", (hidden, t_ch)),
        t2_b=p("t2.bias", (t_ch,)),
        gate_w=p("gate.weight", (t_ch, c)),
        gate_b=p("gate.bias", (c,)),
        img=branch("img"),
        lid=branch("lid"),
    )


def _modality_params(t_m: np.ndarray, c: int, d_state: int) -> ScanParams:
    """One modality's scan parameters from its float32 generator half t_m
    (H, W, D * (2 * d_state + C)), D = N_DIRECTIONS: b and c are
    (H*W, D, d_state) views of t_m, one slice per direction, and delta is
    the (H*W, D, C) view with softplus_delta written back over it."""
    h, w, _ = t_m.shape
    per_dir = t_m.reshape(h * w, N_DIRECTIONS, 2 * d_state + c)
    delta = per_dir[:, :, 2 * d_state :]
    delta[...] = softplus_delta(delta)
    return ScanParams(per_dir[:, :, :d_state], per_dir[:, :, d_state : 2 * d_state], delta)


def cb_mamba(
    b_img: FeatureMap,
    b_lidar: FeatureMap,
    w: CbMambaWeights,
    return_gates: bool = False,
):
    """Cross-modal fusion: jointly generated scan parameters, complementary gates.

    output = Y_img * SS2D(image map) + (1 - Y_img) * SS2D(LiDAR map)
             + mean of the two inputs (skip path).

    The whole generator output T (H, W, T) lives only while the gate is
    read from it. Then one modality at a time, image first, its (B, C, Δ)
    is generated again from its column half of t2_w, scanned and freed.
    numpy runs the generator as one gemm per map row, t1 being
    (H, W, 2C), and a column half of that gemm gives the full product's
    columns bit for bit, so the pieces keep the one-product bits.
    """
    if b_img.data.shape != b_lidar.data.shape:
        raise ValueError("cb_mamba: input maps must share (H, W, C)")
    h, wd, c = b_img.data.shape
    f_comb = np.concatenate([b_img.data, b_lidar.data], axis=-1)
    t1 = silu((f_comb @ w.t1_w + w.t1_b) * w.bn_scale + w.bn_shift)
    del f_comb
    t = t1 @ w.t2_w
    t += w.t2_b
    y_img = silu(t @ w.gate_w + w.gate_b).astype(np.float32)
    del t

    half = w.t2_w.shape[1] // 2
    scans = scan_orders_2d(h, wd)
    ss = []
    for m, (b, bw) in enumerate(((b_img, w.img), (b_lidar, w.lid))):
        cols = slice(m * half, (m + 1) * half)
        t_m = t1 @ w.t2_w[:, cols]
        t_m += w.t2_b[cols]
        x = (b.data @ bw.in_w + bw.in_b).astype(np.float32)
        params = _modality_params(t_m, c, bw.a.shape[1])
        ss.append(_ss2d(x, bw, params, scans))
        del t_m, params  # free this modality's (B, C, Δ) before the next is built
    ss_img, ss_lid = ss

    y_lid = (np.ones_like(y_img) - y_img).astype(np.float32)
    out = y_img * ss_img + y_lid * ss_lid + 0.5 * (b_img.data + b_lidar.data)
    result = b_img.with_data(out)
    if return_gates:
        return result, y_img, y_lid
    return result


# ---------------------------------------------------------------------------
# BEV backbone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BevBackboneWeights:
    blocks: tuple[ConvBlock, ...]

    def identity_configured(self) -> "BevBackboneWeights":
        return zeroed(self, "blocks")


def init_bev_backbone(name: str, c: int, global_seed: int) -> BevBackboneWeights:
    return BevBackboneWeights(
        tuple(init_conv_block(f"{name}.block{i}", c, global_seed) for i in range(2))
    )


def bev_backbone(b: FeatureMap, w: BevBackboneWeights) -> FeatureMap:
    """Two residual 3x3 conv blocks (`ops.conv_block`), channel width preserved."""
    x = b.data
    for block in w.blocks:
        x = conv_block(x, block)
    return b.with_data(x)


# ---------------------------------------------------------------------------
# Full BEV fusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HbfWeights:
    proj_img_w: np.ndarray  # (C_dense + C_vox, C)
    proj_img_b: np.ndarray
    proj_lid_w: np.ndarray
    proj_lid_b: np.ndarray
    ib_img: SsmBlockWeights
    ib_lid: SsmBlockWeights
    cb: CbMambaWeights
    backbone: BevBackboneWeights


def init_hbf(name: str, c: int, d_state: int, global_seed: int) -> HbfWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, global_seed)
    return HbfWeights(
        proj_img_w=p("proj_img.weight", (2 * c, c)),
        proj_img_b=p("proj_img.bias", (c,)),
        proj_lid_w=p("proj_lid.weight", (2 * c, c)),
        proj_lid_b=p("proj_lid.bias", (c,)),
        ib_img=init_ib_mamba(f"{name}.ib_img", c, d_state, global_seed),
        ib_lid=init_ib_mamba(f"{name}.ib_lid", c, d_state, global_seed),
        cb=init_cb_mamba(f"{name}.cb", c, d_state, global_seed),
        backbone=init_bev_backbone(f"{name}.backbone", c, global_seed),
    )


# digest of (projected image map, image block weights) -> ib_mamba output;
# holds at most the last camera-less frame's entry
_IB_IMG_MEMO: dict[bytes, FeatureMap] = {}


def _memo_key(m: FeatureMap, w: SsmBlockWeights) -> bytes:
    digest = hashlib.sha256(repr((m.origin, m.cell_size)).encode())
    for arr in (m.data, *(getattr(w, f.name) for f in fields(w))):
        digest.update(repr((arr.dtype.str, arr.shape)).encode())
        digest.update(np.ascontiguousarray(arr).data)
    return digest.digest()


def _ib_img_camera_less(m_img: FeatureMap, w: SsmBlockWeights) -> FeatureMap:
    """ib_mamba(m_img, w), reused from the memo when its key matches."""
    key = _memo_key(m_img, w)
    out = _IB_IMG_MEMO.get(key)
    if out is None:
        out = ib_mamba(m_img, w)
        _IB_IMG_MEMO.clear()
        _IB_IMG_MEMO[key] = out
    return out


def hbf_forward(
    b_lidar: FeatureMap,
    b_img: FeatureMap,
    v_lidar: SparseVoxelSet,
    v_img: SparseVoxelSet,
    w: HbfWeights,
) -> FeatureMap:
    """Compress voxel branches, concat with the dense maps per modality,
    project to the common width, then IB blocks, CB fusion, BEV backbone.
    Without image evidence the image-side IB output comes from the memo."""
    b_lidar_vox = sparse_height_compress(v_lidar)
    b_img_vox = sparse_height_compress(v_img)
    cat_lid = np.concatenate([b_lidar.data, b_lidar_vox.data], axis=-1)
    cat_img = np.concatenate([b_img.data, b_img_vox.data], axis=-1)
    m_lid = b_lidar.with_data(cat_lid @ w.proj_lid_w + w.proj_lid_b)
    m_img = b_img.with_data(cat_img @ w.proj_img_w + w.proj_img_b)
    m_lid = ib_mamba(m_lid, w.ib_lid)
    if v_img.n == 0 and not b_img.data.any():
        m_img = _ib_img_camera_less(m_img, w.ib_img)
    else:
        m_img = ib_mamba(m_img, w.ib_img)
    fused = cb_mamba(m_img, m_lid, w.cb)
    return bev_backbone(fused, w.backbone)
