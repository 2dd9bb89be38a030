"""Progressive query generation.

Stage one reads easy object candidates off a class heatmap with pooling NMS
and top-k. Their dilated neighborhoods are masked out, the map is re-excited
by attention against the easy queries (hard instance activation), and stage
two extracts the remaining candidates from the masked second heatmap, so no
hard query can land next to an easy one. Each stage's queries leave as one
`Queries` record of arrays (cells, classes, feature rows), the form HIA and
the decoder read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import FeatureMap, init_param, zeroed
from .ops import (
    AttentionWeights,
    ConvBlock,
    attention,
    conv2d,
    conv_block,
    init_attn,
    init_conv_block,
    max_pool2d_same,
    posenc_2d,
    sigmoid,
    silu,
)

@dataclass(frozen=True)
class Heatmap:
    """Per-class score maps, (K, H, W), sigmoid range."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError("Heatmap: data must be (K, H, W)")
        if np.any(self.data < 0) or np.any(self.data > 1):
            raise ValueError("Heatmap: values must lie in [0, 1]")


@dataclass(frozen=True)
class Queries:
    """m queries as arrays: map cells pos (m, 2) int64 as (row, col),
    classes (m,) int64 and feats (m, C) float32, the map rows at pos."""

    pos: np.ndarray
    classes: np.ndarray
    feats: np.ndarray

    def __len__(self) -> int:
        return len(self.classes)


# ---------------------------------------------------------------------------
# Heatmap head
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatmapHeadWeights:
    conv_k: np.ndarray  # (3, 3, C, C)
    conv_b: np.ndarray
    head_w: np.ndarray  # (C, K)
    head_b: np.ndarray


def init_heatmap_head(
    name: str, c: int, k_classes: int, global_seed: int
) -> HeatmapHeadWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, global_seed)
    return HeatmapHeadWeights(
        conv_k=p("conv.weight", (3, 3, c, c)),
        conv_b=p("conv.bias", (c,)),
        head_w=p("head.weight", (c, k_classes)),
        head_b=p("head.bias", (k_classes,)),
    )


def heatmap_head(b: FeatureMap, w: HeatmapHeadWeights) -> Heatmap:
    f = silu(conv2d(b.data, w.conv_k, w.conv_b))
    scores = sigmoid((f @ w.head_w + w.head_b).astype(np.float64))
    return Heatmap(np.moveaxis(scores, -1, 0).astype(np.float32))


# ---------------------------------------------------------------------------
# Pooling NMS + top-k
# ---------------------------------------------------------------------------

def nms_topk(h: Heatmap, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells equal to their 3x3 spatial max, ranked by score.

    Ties break on ascending flat (class, row, col) index. Returns
    (positions (m, 2), classes (m,), scores (m,)) with m <= k.
    """
    if k < 1:
        raise ValueError("nms_topk: k must be >= 1")
    _, hh, ww = h.data.shape
    keep = h.data == max_pool2d_same(h.data)
    flat_idx = np.where(keep.reshape(-1))[0]
    scores = h.data.reshape(-1)[flat_idx]
    order = np.lexsort((flat_idx, -scores.astype(np.float64)))[: min(k, flat_idx.size)]
    sel = flat_idx[order]
    classes, rem = np.divmod(sel, hh * ww)
    rows, cols = np.divmod(rem, ww)
    return (
        np.stack([rows, cols], axis=1).astype(np.int64),
        classes.astype(np.int64),
        scores[order].astype(np.float32),
    )


def collect(b: FeatureMap, positions: np.ndarray, classes: np.ndarray) -> Queries:
    """The queries at map cells positions (m, 2) of classes (m,), with the
    map's feature rows there."""
    pos = np.asarray(positions, dtype=np.int64).reshape(-1, 2)
    outside = np.any((pos < 0) | (pos >= (b.h, b.w)), axis=1)
    if outside.any():
        r, c = pos[np.argmax(outside)]
        raise ValueError(f"collect: position ({r}, {c}) outside map")
    return Queries(pos, np.asarray(classes, dtype=np.int64), b.data[pos[:, 0], pos[:, 1]])


def build_mask(p_easy: np.ndarray, h: int, w: int) -> np.ndarray:
    """uint8 (h, w) map: 0 on the 3x3 neighborhood of each easy position,
    1 elsewhere."""
    ind = np.zeros((h, w), dtype=np.float32)
    p_easy = np.asarray(p_easy, dtype=np.int64).reshape(-1, 2)
    ind[p_easy[:, 0], p_easy[:, 1]] = 1.0
    return (1.0 - max_pool2d_same(ind)).astype(np.uint8)


# ---------------------------------------------------------------------------
# Hard instance activation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HiaWeights:
    emb_w: np.ndarray  # (K + C, C): one-hot class ++ position encoding -> C
    emb_b: np.ndarray
    self_attn: AttentionWeights
    cross_attn: AttentionWeights
    conv: ConvBlock

    def identity_configured(self) -> "HiaWeights":
        """Zero both attention outputs and the residual conv: HIA returns its map."""
        return replace(
            zeroed(self, "conv"),
            self_attn=self.self_attn.identity_configured(),
            cross_attn=self.cross_attn.identity_configured(),
        )


def init_hia(name: str, c: int, k_classes: int, global_seed: int) -> HiaWeights:
    return HiaWeights(
        emb_w=init_param(f"{name}.embed.weight", (k_classes + c, c), global_seed),
        emb_b=init_param(f"{name}.embed.bias", (c,), global_seed),
        self_attn=init_attn(f"{name}.self_attn", c, global_seed),
        cross_attn=init_attn(f"{name}.cross_attn", c, global_seed),
        conv=init_conv_block(name, c, global_seed),
    )


def hia(q_easy: Queries, b: FeatureMap, w: HiaWeights) -> FeatureMap:
    """Activate the map against easy queries.

    Easy queries, embedded with one-hot class and sinusoidal position codes,
    self-attend; every BEV cell then attends to them (query-to-map path) and
    the result feeds a residual conv block. Both attentions and the conv
    block are the shared `ops` blocks.

    The cross-attention runs over all H*W cells at once. Its float64
    products stay whole, since a gemm cut into row pieces can round
    differently, and `attention` turns the (H*W, n_easy) logits into
    softmax weights in place, so they are the one array of that size it
    holds.
    """
    if not len(q_easy):  # a softmax over zero tokens has no max
        return b.with_data(conv_block(b.data, w.conv))
    onehot = np.eye(w.emb_w.shape[0] - b.channels, dtype=np.float32)[q_easy.classes]
    rows, cols = q_easy.pos.T.astype(np.float64)
    pe = posenc_2d(rows, cols, b.channels)
    tokens = q_easy.feats + (np.concatenate([onehot, pe], axis=1) @ w.emb_w + w.emb_b)
    tokens = attention(tokens, w.self_attn)
    x = attention(b.data.reshape(-1, b.channels), w.cross_attn, tokens)
    return b.with_data(conv_block(x.reshape(b.data.shape), w.conv))


# ---------------------------------------------------------------------------
# Two-stage extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PqgWeights:
    head_easy: HeatmapHeadWeights
    head_hard: HeatmapHeadWeights  # independent second-stage weights
    hia: HiaWeights


def init_pqg(name: str, c: int, k_classes: int, global_seed: int) -> PqgWeights:
    return PqgWeights(
        head_easy=init_heatmap_head(f"{name}.head_easy", c, k_classes, global_seed),
        head_hard=init_heatmap_head(f"{name}.head_hard", c, k_classes, global_seed),
        hia=init_hia(f"{name}.hia", c, k_classes, global_seed),
    )


def pqg_forward(
    b_out: FeatureMap, w: PqgWeights, k_easy: int, k_hard: int
) -> tuple[Queries, Queries, FeatureMap]:
    """Stage 1: heatmap -> NMS top-k easy queries. Stage 2: mask easy regions,
    re-activate the map with HIA, and extract hard queries from the product
    of the second heatmap and the mask. Zero-score (fully masked) candidates
    are dropped so hard queries can never touch an easy neighborhood."""
    h1 = heatmap_head(b_out, w.head_easy)
    pos_e, cls_e, _ = nms_topk(h1, k_easy)
    q_easy = collect(b_out, pos_e, cls_e)

    mask = build_mask(pos_e, b_out.h, b_out.w)
    b_act = hia(q_easy, b_out, w.hia)
    h2 = heatmap_head(b_act, w.head_hard)
    masked = Heatmap(h2.data * mask[None, :, :].astype(np.float32))
    pos_h, cls_h, sc_h = nms_topk(masked, k_hard)
    live = sc_h > 0
    pos_h, cls_h = pos_h[live], cls_h[live]
    assert np.all(mask[pos_h[:, 0], pos_h[:, 1]] == 1)
    q_hard = collect(b_act, pos_h, cls_h)
    return q_easy, q_hard, b_act
