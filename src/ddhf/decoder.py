"""Progressive decoder.

Queries, one `pqg.Queries` record of easy and hard queries together, are
refined as one batch by deformable-attention layers over the fused BEV map,
then by voxel layers that pool box-lattice features from both sparse
branches and mix them with query-generated channel and spatial kernels,
and finally read out as scored boxes by a small detection head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import FeatureMap, SparseVoxelSet, init_param, zeroed
from .ops import AttentionWeights, attention, init_attn, sigmoid, silu, softmax
from .pqg import Queries
from .viewtrans import bilinear_sample

N_SAMPLE_POINTS = 4
GRID_SIDE = 4  # g; lattice has G = g^3 points
BOX_RAW_DIM = 8  # dx, dy, z, log sizes (3), sin, cos
BOX_RAW_CLIP = 30.0  # untrained readouts can reach +-1e3; exp must stay finite
MIX_CHUNK = 16  # queries in mmvfm_mix's per-query stage at once; any size gives the same bits


@dataclass(frozen=True)
class DetectionBox:
    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    class_id: int
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("DetectionBox: score must lie in [0, 1]")


@dataclass(frozen=True)
class GridFeatures:
    """Lattice features; leading axes before (G, ...) index queries."""

    points: np.ndarray  # (..., G, 3) world coordinates
    feats: np.ndarray  # (..., G, C)
    offsets: np.ndarray  # (..., G, 3) relative to box center

    def __post_init__(self):
        if self.points.shape[-2] % 4:
            raise ValueError("GridFeatures: G must be divisible by 4")


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformableLayerWeights:
    off_w: np.ndarray  # (C, 2 * N_SAMPLE_POINTS)
    off_b: np.ndarray
    att_w: np.ndarray  # (C, N_SAMPLE_POINTS)
    att_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    ffn1_w: np.ndarray
    ffn1_b: np.ndarray
    ffn2_w: np.ndarray
    ffn2_b: np.ndarray


@dataclass(frozen=True)
class BoxHeadWeights:
    w1: np.ndarray  # (C, 2C)
    b1: np.ndarray
    w2: np.ndarray  # (2C, BOX_RAW_DIM)
    b2: np.ndarray


@dataclass(frozen=True)
class MixWeights:
    off_w: np.ndarray  # (3, C) offset embedding
    off_b: np.ndarray
    cw: np.ndarray  # (C, C*C) channel-kernel generator
    cb: np.ndarray
    sw: np.ndarray  # (C, G*G//4) spatial-kernel generator
    sb: np.ndarray
    down_w: np.ndarray  # (C*G//4, C)
    down_b: np.ndarray


@dataclass(frozen=True)
class MmvfmLayerWeights:
    mix_lid: MixWeights
    mix_img: MixWeights
    attn_lid: AttentionWeights
    attn_img: AttentionWeights
    comb_w: np.ndarray  # (3C, C)
    comb_b: np.ndarray


@dataclass(frozen=True)
class DetectionHeadWeights:
    attn: AttentionWeights
    ffn1_w: np.ndarray
    ffn1_b: np.ndarray
    ffn2_w: np.ndarray
    ffn2_b: np.ndarray
    cls_w: np.ndarray  # (C, K)
    cls_b: np.ndarray
    box: BoxHeadWeights


@dataclass(frozen=True)
class DecoderWeights:
    deform: tuple[DeformableLayerWeights, ...]
    mmvfm: tuple[MmvfmLayerWeights, ...]
    box: BoxHeadWeights  # shared proposal head for the voxel layers
    head: DetectionHeadWeights

    def identity_configured(self) -> "DecoderWeights":
        """Every layer, and the detection head's attention and feed-forward,
        pass query features through unchanged; the class and box readouts
        are left as-is."""
        return replace(
            self,
            deform=tuple(zeroed(d, "out_w", "out_b", "ffn2_w", "ffn2_b") for d in self.deform),
            mmvfm=tuple(_keep_query(m) for m in self.mmvfm),
            head=replace(
                zeroed(self.head, "ffn2_w", "ffn2_b"), attn=self.head.attn.identity_configured()
            ),
        )


def _keep_query(m: MmvfmLayerWeights) -> MmvfmLayerWeights:
    """The combine layer reads back the query block of [query | lidar | image]."""
    m = zeroed(m, "comb_w", "comb_b")
    c = m.comb_w.shape[1]
    m.comb_w[:c] = np.eye(c, dtype=np.float32)
    return m


def _init_mix(name: str, c: int, seed: int) -> MixWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, seed)
    g = GRID_SIDE**3
    return MixWeights(
        off_w=p("offset_embed.weight", (3, c)),
        off_b=p("offset_embed.bias", (c,)),
        cw=p("channel_kernel.weight", (c, c * c)),
        cb=p("channel_kernel.bias", (c * c,)),
        sw=p("spatial_kernel.weight", (c, g * (g // 4))),
        sb=p("spatial_kernel.bias", (g * (g // 4),)),
        down_w=p("down.weight", (c * (g // 4), c)),
        down_b=p("down.bias", (c,)),
    )


def _init_box_head(name: str, c: int, seed: int) -> BoxHeadWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, seed)
    return BoxHeadWeights(
        p("fc1.weight", (c, 2 * c)), p("fc1.bias", (2 * c,)),
        p("fc2.weight", (2 * c, BOX_RAW_DIM)), p("fc2.bias", (BOX_RAW_DIM,)),
    )


def init_decoder(
    name: str, c: int, k_classes: int, n_bev: int, m_vox: int, global_seed: int
) -> DecoderWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, global_seed)
    deform = tuple(
        DeformableLayerWeights(
            off_w=p(f"deform{i}.offset.weight", (c, 2 * N_SAMPLE_POINTS)),
            off_b=p(f"deform{i}.offset.bias", (2 * N_SAMPLE_POINTS,)),
            att_w=p(f"deform{i}.attn.weight", (c, N_SAMPLE_POINTS)),
            att_b=p(f"deform{i}.attn.bias", (N_SAMPLE_POINTS,)),
            out_w=p(f"deform{i}.out.weight", (c, c)),
            out_b=p(f"deform{i}.out.bias", (c,)),
            ffn1_w=p(f"deform{i}.ffn1.weight", (c, 2 * c)),
            ffn1_b=p(f"deform{i}.ffn1.bias", (2 * c,)),
            ffn2_w=p(f"deform{i}.ffn2.weight", (2 * c, c)),
            ffn2_b=p(f"deform{i}.ffn2.bias", (c,)),
        )
        for i in range(n_bev)
    )
    mmvfm = tuple(
        MmvfmLayerWeights(
            mix_lid=_init_mix(f"{name}.mmvfm{j}.mix_lid", c, global_seed),
            mix_img=_init_mix(f"{name}.mmvfm{j}.mix_img", c, global_seed),
            attn_lid=init_attn(f"{name}.mmvfm{j}.attn_lid", c, global_seed),
            attn_img=init_attn(f"{name}.mmvfm{j}.attn_img", c, global_seed),
            comb_w=p(f"mmvfm{j}.combine.weight", (3 * c, c)),
            comb_b=p(f"mmvfm{j}.combine.bias", (c,)),
        )
        for j in range(m_vox)
    )
    head = DetectionHeadWeights(
        attn=init_attn(f"{name}.head.attn", c, global_seed),
        ffn1_w=p("head.ffn1.weight", (c, 2 * c)),
        ffn1_b=p("head.ffn1.bias", (2 * c,)),
        ffn2_w=p("head.ffn2.weight", (2 * c, c)),
        ffn2_b=p("head.ffn2.bias", (c,)),
        cls_w=p("head.cls.weight", (c, k_classes)),
        cls_b=p("head.cls.bias", (k_classes,)),
        box=_init_box_head(f"{name}.head.box", c, global_seed),
    )
    return DecoderWeights(deform, mmvfm, _init_box_head(f"{name}.box", c, global_seed), head)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def deformable_layer(
    feats: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    b: FeatureMap, w: DeformableLayerWeights,
) -> np.ndarray:
    """Sample the map at 4 query-generated offsets around each query's cell,
    aggregate by softmax weights, and update features with two residuals."""
    raw_off = (feats @ w.off_w + w.off_b).reshape(-1, N_SAMPLE_POINTS, 2)
    logits = feats @ w.att_w + w.att_b
    weights = softmax(logits.astype(np.float64), axis=-1)
    m = feats.shape[0]
    agg = np.zeros((m, b.channels), dtype=np.float64)
    for j in range(N_SAMPLE_POINTS):
        u = cols.astype(np.float64) + raw_off[:, j, 0]
        v = rows.astype(np.float64) + raw_off[:, j, 1]
        agg += weights[:, j : j + 1] * bilinear_sample(b.data, u, v)
    x = feats + (agg @ w.out_w + w.out_b)
    x = x + (silu(x @ w.ffn1_w + w.ffn1_b) @ w.ffn2_w + w.ffn2_b)
    return x.astype(np.float32)


def box_readout(
    feats: np.ndarray, rows: np.ndarray, cols: np.ndarray, fm: FeatureMap, w: BoxHeadWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-layer MLP readout of one proposal box per query (m, C): centers
    (m, 3) offset from each query's cell center, sizes (m, 3) from log sizes
    and yaws (m,) in (-pi, pi] from a (sin, cos) pair.

    Each query enters the MLP as a one-row matrix, feats[:, None, :], so
    numpy runs per query the same BLAS gemv that a 1-D product runs. A 2-D
    (m, C) product would run gemm, which rounds differently in the last bits.
    """
    raw = silu(feats[:, None, :] @ w.w1 + w.b1) @ w.w2 + w.b2
    # keep exp(log-size) positive-finite and centers inside int64 cell math
    raw = np.clip(raw[:, 0], -BOX_RAW_CLIP, BOX_RAW_CLIP)
    centers = np.empty((raw.shape[0], 3))
    centers[:, :2] = fm.cell_centers(rows, cols) + raw[:, :2]
    centers[:, 2] = raw[:, 2]
    sizes = np.exp(raw[:, 3:6]).astype(np.float64)
    yaws = np.array(
        [math.atan2(s, c) for s, c in zip(raw[:, 6].tolist(), raw[:, 7].tolist())]
    )
    yaws[yaws <= -math.pi] = math.pi
    # NaN features give NaN yaws, which fail the range test
    if not (np.all(sizes > 0) and np.all((-math.pi < yaws) & (yaws <= math.pi))):
        raise ValueError("box_readout: sizes must be positive and yaws lie in (-pi, pi]")
    return centers, sizes, yaws


def grid_points(centers: np.ndarray, sizes: np.ndarray, yaws: np.ndarray, g: int) -> np.ndarray:
    """g^3 lattice cell centers spanning each box, rotated and translated:
    (m, g^3, 3) for m boxes given as centers (m, 3), sizes (m, 3), yaws (m,)."""
    if g < 2 or (g**3) % 4:
        raise ValueError("grid_points: need g >= 2 with g^3 divisible by 4")
    frac = (np.arange(g, dtype=np.float64) + 0.5) / g - 0.5
    gx, gy, gz = np.meshgrid(frac, frac, frac, indexing="ij")
    unit = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    # math.cos/sin per box, as a lone box's lattice takes them: numpy's
    # vectorised trig may round differently on some CPUs
    c = np.array([math.cos(yaw) for yaw in yaws.tolist()])
    s = np.array([math.sin(yaw) for yaw in yaws.tolist()])
    rot = np.zeros((len(yaws), 3, 3))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = c, -s, s, c
    rot[:, 2, 2] = 1.0
    return (unit * sizes[:, None, :]) @ rot.transpose(0, 2, 1) + centers[:, None, :]


_NEIGHBOR_OFFSETS = np.array(
    [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    dtype=np.int64,
)


def voxel_pool(v: SparseVoxelSet, points: np.ndarray) -> np.ndarray:
    """Average of occupied-voxel features over each point's containing cell
    and its 6 face neighbors; zero where nothing is occupied."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    out = np.zeros((n, v.channels), dtype=np.float64)
    cells, _ = v.grid.point_coords(points)
    counts = np.zeros(n, dtype=np.int64)
    for off in _NEIGHBOR_OFFSETS:
        rows = v.rows_of(cells + off)
        hit = rows >= 0
        out[hit] += v.feats[rows[hit]]  # float32 rows widen exactly in the float64 add
        counts += hit
    nz = counts > 0
    out[nz] /= counts[nz, None]
    return out.astype(np.float32)


def mmvfm_mix(q_feat: np.ndarray, grid: GridFeatures, w: MixWeights) -> np.ndarray:
    """Channel mixing then spatial mixing with query-generated kernels.

    F_g (G, C) gains an offset embedding, is multiplied by the (C, C) channel
    kernel, transposed against the (G, G/4) spatial kernel, and projected
    back down to a C-vector. Leading axes of q_feat (..., C) and of the grid
    (..., G, C) batch queries.

    The kernel generators and the down projection are 2-D products over all
    queries at once (a gemm cut into row pieces can round differently). The
    float64 per-query stage between them runs MIX_CHUNK queries at a time:
    numpy makes one BLAS call per query for each of its stacked matmuls,
    whatever the batch, so any piece size gives the same bits.
    """
    g, c = grid.feats.shape[-2:]
    batch = q_feat.shape[:-1]
    ck = (q_feat @ w.cw + w.cb).reshape(-1, c, c)
    sk = (q_feat @ w.sw + w.sb).reshape(-1, g, g // 4)
    feats = grid.feats.reshape(-1, g, c)
    offsets = grid.offsets.reshape(-1, g, 3)
    mixed = np.empty((ck.shape[0], c, g // 4))
    for lo in range(0, ck.shape[0], MIX_CHUNK):
        q = slice(lo, lo + MIX_CHUNK)
        f = feats[q].astype(np.float64) + (offsets[q] @ w.off_w + w.off_b)
        f = f @ ck[q].astype(np.float64)
        np.matmul(f.swapaxes(-1, -2), sk[q].astype(np.float64), out=mixed[q])
    return (mixed.reshape(*batch, -1) @ w.down_w + w.down_b).astype(np.float32)


def mmvfm_layer(
    feats: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    v_lidar: SparseVoxelSet, v_img: SparseVoxelSet,
    fm: FeatureMap, box_w: BoxHeadWeights, w: MmvfmLayerWeights,
) -> np.ndarray:
    """Over all queries at once: proposal boxes -> lattices, then per
    modality voxel pooling -> mixing -> self-attention. Then concat with the
    query -> linear."""
    centers, sizes, yaws = box_readout(feats, rows, cols, fm, box_w)
    pts = grid_points(centers, sizes, yaws, GRID_SIDE)
    offsets = pts - centers[:, None, :]
    mixed = []
    for vox, mw, attn in ((v_lidar, w.mix_lid, w.attn_lid), (v_img, w.mix_img, w.attn_img)):
        pooled = voxel_pool(vox, pts).reshape(*pts.shape[:2], vox.channels)
        mixed.append(attention(mmvfm_mix(feats, GridFeatures(pts, pooled, offsets), mw), attn))
    cat = np.concatenate([feats, *mixed], axis=1)
    return (cat @ w.comb_w + w.comb_b).astype(np.float32)


def detection_head(
    feats: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    fm: FeatureMap, w: DetectionHeadWeights,
) -> list[DetectionBox]:
    """Self-attention + feed-forward, then class scores and box readout."""
    x = attention(feats, w.attn)
    x = (x + silu(x @ w.ffn1_w + w.ffn1_b) @ w.ffn2_w + w.ffn2_b).astype(np.float32)
    logits = x @ w.cls_w + w.cls_b
    cls = np.argmax(logits, axis=1)
    scores = sigmoid(logits[np.arange(len(cls)), cls].astype(np.float64))
    centers, sizes, yaws = box_readout(x, rows, cols, fm, w.box)
    return [
        DetectionBox(tuple(center), tuple(size), yaw, k, score)
        for center, size, yaw, k, score in zip(
            centers.tolist(), sizes.tolist(), yaws.tolist(), cls.tolist(), scores.tolist()
        )
    ]


def decode(
    queries: Queries,
    b_out: FeatureMap,
    v_lidar: SparseVoxelSet,
    v_img: SparseVoxelSet,
    w: DecoderWeights,
) -> list[DetectionBox]:
    """Full decoder stack, every layer the weights hold: one output box per
    input query, no suppression."""
    if not len(queries):  # attention's softmax needs at least one query
        return []
    feats, (rows, cols) = queries.feats, queries.pos.T
    for layer in w.deform:
        feats = deformable_layer(feats, rows, cols, b_out, layer)
    for layer in w.mmvfm:
        feats = mmvfm_layer(feats, rows, cols, v_lidar, v_img, b_out, w.box, layer)
    return detection_head(feats, rows, cols, b_out, w.head)
