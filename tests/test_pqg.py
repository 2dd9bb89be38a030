import dataclasses

import numpy as np
import pytest

from ddhf import oracles
from ddhf.core import FeatureMap, Linear, zeroed
from ddhf.ops import conv_block
from ddhf.pqg import (
    Heatmap,
    HeatmapHeadWeights,
    build_mask,
    collect,
    heatmap_head,
    hia,
    init_heatmap_head,
    init_hia,
    init_pqg,
    nms_topk,
    pqg_forward,
)

from conftest import fill_zero_tensors, traced_peak


def bev_map(rng, h=8, w=8, c=4):
    return FeatureMap(
        rng.normal(size=(h, w, c)).astype(np.float32), origin=(0.0, 0.0), cell_size=(1.0, 1.0)
    )


def heat(data):
    return Heatmap(np.asarray(data, dtype=np.float32))


def test_heatmap_rejects_values_outside_unit_range():
    heat([[[0.0, 1.0]]])
    for bad in (-0.5, 1.5):
        with pytest.raises(ValueError, match="must lie in"):
            heat([[[0.5, bad]]])


def test_heatmap_head_zero_weights(rng):
    c, k = 4, 3
    w = HeatmapHeadWeights(
        conv_k=np.zeros((3, 3, c, c), dtype=np.float32),
        conv_b=np.zeros(c, dtype=np.float32),
        head=Linear(np.zeros((c, k), dtype=np.float32), np.zeros(k, dtype=np.float32)),
    )
    out = heatmap_head(bev_map(rng), w)
    assert out.data.shape == (k, 8, 8)
    assert np.allclose(out.data, 0.5)  # sigmoid(0)


def test_heatmap_head_range_and_determinism(rng):
    w = init_heatmap_head("hm", 4, 3, 81)
    b = bev_map(rng)
    a1 = heatmap_head(b, w)
    a2 = heatmap_head(b, w)
    assert np.array_equal(a1.data, a2.data)
    assert a1.data.min() >= 0 and a1.data.max() <= 1


def test_nms_single_peak():
    data = np.full((1, 5, 5), 0.1, dtype=np.float32)
    data[0, 2, 3] = 0.9
    pos, cls, sc = nms_topk(heat(data), 4)
    assert pos[0].tolist() == [2, 3]
    assert cls[0] == 0
    assert sc[0] == np.float32(0.9)


def test_nms_uniform_plateau_first_k_flat_order():
    # every cell ties with its neighborhood, so ranking falls back to flat index
    data = np.full((2, 3, 3), 0.5, dtype=np.float32)
    pos, cls, sc = nms_topk(heat(data), 5)
    assert len(pos) == 5
    assert cls.tolist() == [0, 0, 0, 0, 0]
    assert pos.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1]]


def test_nms_matches_oracle(rng):
    data = rng.uniform(0.0, 1.0, size=(3, 16, 16)).astype(np.float32)
    pos, cls, sc = nms_topk(heat(data), 20)
    wpos, wcls, wsc = oracles.nms_topk(data, 20)
    assert np.array_equal(pos, wpos)
    assert np.array_equal(cls, wcls)
    assert np.array_equal(sc, wsc)


def test_nms_rejects_bad_k():
    with pytest.raises(ValueError):
        nms_topk(heat(np.zeros((1, 2, 2))), 0)


def test_collect_reads_feature_at_position(rng):
    b = bev_map(rng)
    pos = np.array([[3, 5], [0, 0]])
    qs = collect(b, pos, np.array([1, 2]))
    assert len(qs) == 2
    assert np.array_equal(qs.feats, b.data[[3, 0], [5, 0]])
    assert qs.feats.dtype == np.float32
    assert qs.pos.tolist() == [[3, 5], [0, 0]] and qs.pos.dtype == np.int64
    assert qs.classes.tolist() == [1, 2] and qs.classes.dtype == np.int64
    with pytest.raises(ValueError):
        collect(b, np.array([[8, 0]]), np.array([0]))


def test_build_mask_no_easy_positions():
    mask = build_mask(np.zeros((0, 2), dtype=np.int64), 4, 4)
    assert mask.dtype == np.uint8 and np.all(mask == 1)


def test_build_mask_clips_at_border():
    mask = build_mask(np.array([[0, 0]]), 4, 4)
    want = np.ones((4, 4), dtype=np.uint8)
    want[:2, :2] = 0
    assert np.array_equal(mask, want)


def test_build_mask_matches_dilation_oracle(rng):
    h, w = 9, 7
    for _ in range(20):
        n = int(rng.integers(0, 6))
        pos = np.stack(
            [rng.integers(0, h, size=n), rng.integers(0, w, size=n)], axis=1
        )
        mask = build_mask(pos, h, w)
        want = np.ones((h, w), dtype=np.uint8)
        for r, c in pos:
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w:
                        want[rr, cc] = 0
        assert np.array_equal(mask, want)


def test_hia_zeroed_projections_is_identity(rng):
    w = init_hia("hia", 4, 3, 91).identity_configured()
    b = bev_map(rng)
    qs = collect(b, np.array([[1, 1], [5, 6]]), np.array([0, 2]))
    out = hia(qs, b, w)
    assert np.array_equal(out.data, b.data)


def test_hia_identity_with_filled_zero_tensors(rng):
    w = fill_zero_tensors(init_hia("hia", 4, 3, 91), rng).identity_configured()
    b = bev_map(rng)
    qs = collect(b, np.array([[1, 1], [5, 6]]), np.array([0, 2]))
    assert np.array_equal(hia(qs, b, w).data, b.data)


def test_hia_no_queries_runs_conv_only(rng):
    w = init_hia("hia", 4, 3, 92)
    b = bev_map(rng)
    out = hia(collect(b, np.zeros((0, 2)), np.zeros(0)), b, w)
    # matches the residual conv applied directly to the input map
    assert np.allclose(out.data, conv_block(b.data, w.conv), atol=1e-6)


def test_hia_peak_memory(rng):
    # the (2304, 100) float64 cell-to-query logits are scaled and turned into
    # softmax weights in place: one 1.8 MB array instead of four at once
    # (3.1 MB traced; bound that plus 1 MB)
    b = bev_map(rng, 48, 48, 32)
    cells = rng.choice(48 * 48, size=100, replace=False)
    pos = np.stack(np.divmod(cells, 48), axis=1)
    qs = collect(b, pos, rng.integers(0, 3, 100))
    assert traced_peak(hia, qs, b, init_hia("peak", 32, 3, 3)) < 4.1e6


def _posenc_ref(rows, cols, dim):
    half = dim // 2
    out = np.zeros((len(rows), dim))
    for axis, vals in enumerate((rows, cols)):
        for i in range(half // 2):
            freq = 1.0 / (10000.0 ** (2.0 * i / half))
            for n, p in enumerate(vals):
                out[n, axis * half + i] = np.sin(p * freq)
                out[n, axis * half + half // 2 + i] = np.cos(p * freq)
    return out


def test_hia_matches_scalar_reference(rng):
    c, k_classes = 4, 2
    w = zeroed(init_hia("hia", c, k_classes, 93), "conv")
    b = bev_map(rng, h=4, w=4, c=c)
    pos = np.array([[0, 3], [2, 1]])
    qs = collect(b, pos, np.array([1, 0]))

    onehot = np.zeros((2, k_classes))
    onehot[0, 1] = 1.0
    onehot[1, 0] = 1.0
    pe = _posenc_ref(pos[:, 0].astype(float), pos[:, 1].astype(float), c)
    tokens = qs.feats.astype(np.float64)
    tokens = tokens + np.concatenate([onehot, pe], axis=1) @ w.embed.w + w.embed.b
    sa, ca = w.self_attn, w.cross_attn
    attn = oracles.attention(sa.q(tokens), sa.k(tokens), sa.v(tokens))
    tokens = tokens + attn @ sa.o.w + sa.o.b
    flat = b.data.reshape(-1, c).astype(np.float64)
    cross = oracles.attention(ca.q(flat), ca.k(tokens), ca.v(tokens))
    want = b.data + ca.o(cross).reshape(b.data.shape)

    out = hia(qs, b, w)
    assert np.max(np.abs(out.data - want)) < 1e-5


def test_pqg_hard_avoids_easy_neighborhoods(rng):
    w = init_pqg("pqg", 4, 3, 94)
    b = bev_map(rng, h=12, w=12)
    q_easy, q_hard, b_act = pqg_forward(b, w, k_easy=6, k_hard=6)
    assert len(q_hard)
    cheb = np.abs(q_hard.pos[:, None, :] - q_easy.pos[None, :, :]).max(axis=2)
    assert np.all(cheb >= 2)
    # no hard query reads a zero (masked-out) cell of the second heatmap
    mask = build_mask(q_easy.pos, b.h, b.w)
    masked = heatmap_head(b_act, w.head_hard).data * mask
    assert np.all(masked[q_hard.classes, q_hard.pos[:, 0], q_hard.pos[:, 1]] > 0)


def test_pqg_two_peak_stages():
    # density head: score = sigmoid(0.1 * silu(channel-0 sum over the cell))
    # peak A > peak B, so stage one takes A and stage two finds B
    c = 4
    conv_k = np.zeros((3, 3, c, c), dtype=np.float32)
    conv_k[1, 1, 0, 0] = 1.0
    head_w = np.zeros((c, 1), dtype=np.float32)
    head_w[0, 0] = 0.1
    head = HeatmapHeadWeights(
        conv_k=conv_k,
        conv_b=np.zeros(c, dtype=np.float32),
        head=Linear(head_w, np.zeros(1, dtype=np.float32)),
    )
    w = init_pqg("pqg", c, 1, 95)
    w = dataclasses.replace(
        w, head_easy=head, head_hard=head, hia=w.hia.identity_configured()
    )
    data = np.zeros((9, 9, c), dtype=np.float32)
    data[2, 2, 0] = 50.0  # peak A
    data[6, 7, 0] = 30.0  # peak B
    b = FeatureMap(data, origin=(0.0, 0.0), cell_size=(1.0, 1.0))
    q_easy, q_hard, _ = pqg_forward(b, w, k_easy=1, k_hard=1)
    assert q_easy.pos.tolist() == [[2, 2]]
    assert q_hard.pos.tolist() == [[6, 7]]


def test_pqg_deterministic(rng):
    w = init_pqg("pqg", 4, 3, 96)
    b = bev_map(rng, h=10, w=10)
    a = pqg_forward(b, w, k_easy=4, k_hard=4)
    bb = pqg_forward(b, w, k_easy=4, k_hard=4)
    key = lambda qs: (qs.pos.tobytes(), qs.classes.tobytes(), qs.feats.tobytes())
    assert key(a[0]) == key(bb[0])
    assert key(a[1]) == key(bb[1])
    assert np.array_equal(a[2].data, bb[2].data)
