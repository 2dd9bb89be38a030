import dataclasses
import math

import numpy as np
import pytest

from ddhf import oracles
from ddhf.core import FeatureMap, GridSpec, SparseVoxelSet, empty_voxel_set, zeroed
from ddhf.decoder import (
    BOX_RAW_CLIP,
    DetectionHeadWeights,
    GridFeatures,
    MixWeights,
    box_readout,
    decode,
    deformable_layer,
    detection_head,
    grid_points,
    init_decoder,
    mmvfm_layer,
    mmvfm_mix,
    voxel_pool,
)
from ddhf.ops import AttentionWeights
from ddhf.pqg import Queries

from conftest import fill_zero_tensors, random_voxel_set, traced_peak
from test_ops import sigmoid_ref


def silu_two_branch(x):
    return x * sigmoid_ref(x)


GRID = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(1.0, 1.0, 0.5), extents=(8, 8, 4))


def bev_map(rng, h=8, w=8, c=4):
    return FeatureMap(
        rng.normal(size=(h, w, c)).astype(np.float32),
        origin=(-4.0, -4.0), cell_size=(1.0, 1.0),
    )


def zero_box_head(c):
    return zeroed(init_decoder("dec", c, 3, 0, 0, 0).box, "w1", "b1", "w2", "b2")


def make_queries(rng, fm, n, c=4):
    pos = np.stack([rng.integers(0, fm.h, size=n), rng.integers(0, fm.w, size=n)], axis=1)
    classes, feats = np.zeros(n, dtype=np.int64), np.zeros((n, c), dtype=np.float32)
    for i in range(n):  # per query, in the order the draws were first taken
        classes[i] = rng.integers(0, 3)
        feats[i] = rng.normal(size=c)
        rng.uniform()  # once the query's score: later draws keep their values
    return Queries(pos, classes, feats)


def test_deformable_zero_generators_sample_own_cell(rng):
    c = 4
    w = init_decoder("dec", c, 3, 1, 0, 7).deform[0]
    w = dataclasses.replace(
        w,
        off_w=np.zeros_like(w.off_w), off_b=np.zeros_like(w.off_b),
        att_w=np.zeros_like(w.att_w), att_b=np.zeros_like(w.att_b),
        out_w=np.eye(c, dtype=np.float32), out_b=np.zeros(c, dtype=np.float32),
        ffn2_w=np.zeros_like(w.ffn2_w), ffn2_b=np.zeros_like(w.ffn2_b),
    )
    b = bev_map(rng, c=c)
    feats = rng.normal(size=(3, c)).astype(np.float32)
    rows = np.array([0, 3, 7])
    cols = np.array([5, 1, 7])
    out = deformable_layer(feats, rows, cols, b, w)
    # zero offsets land every sample at the query cell; uniform weights average
    # four copies of the same value, so the update is exactly that cell
    want = feats + b.data[rows, cols]
    assert np.allclose(out, want, atol=1e-6)


def test_deformable_matches_scalar_reference(rng):
    c = 4
    w = init_decoder("dec", c, 3, 1, 0, 8).deform[0]
    b = bev_map(rng, h=4, w=4, c=c)
    feats = rng.normal(size=(2, c)).astype(np.float32)
    rows = np.array([1, 3])
    cols = np.array([2, 0])
    got = deformable_layer(feats, rows, cols, b, w)

    def silu_ref(x):
        return x / (1.0 + np.exp(-x))

    want = np.zeros_like(feats, dtype=np.float64)
    for i in range(2):
        f = feats[i].astype(np.float64)
        off = (f @ w.off_w + w.off_b).reshape(4, 2)
        logits = f @ w.att_w + w.att_b
        e = np.exp(logits - logits.max())
        wts = e / e.sum()
        agg = np.zeros(c)
        for j in range(4):
            u = cols[i] + off[j, 0]
            v = rows[i] + off[j, 1]
            agg += wts[j] * oracles.bilinear(b.data, float(u), float(v))
        x = f + agg @ w.out_w + w.out_b
        x = x + silu_ref(x @ w.ffn1_w + w.ffn1_b) @ w.ffn2_w + w.ffn2_b
        want[i] = x
    assert np.max(np.abs(got - want)) < 1e-5


def test_box_zero_weights_is_cell_centered_unit(rng):
    c = 4
    fm = bev_map(rng, c=c)
    feats = rng.normal(size=(1, c)).astype(np.float32)
    centers, sizes, yaws = box_readout(feats, np.array([2]), np.array([5]), fm, zero_box_head(c))
    cx, cy = fm.cell_centers(np.array([2]), np.array([5]))[0]
    assert centers.tolist() == [[pytest.approx(cx), pytest.approx(cy), 0.0]]
    assert sizes.tolist() == [[1.0, 1.0, 1.0]]
    assert yaws.tolist() == [0.0]


def test_box_head_extreme_inputs_stay_finite(rng):
    c = 4
    w = init_decoder("dec", c, 3, 1, 0, 9).box
    fm = bev_map(rng, c=c)
    feats = (rng.normal(size=(1, c)) * 1e4).astype(np.float32)
    centers, sizes, yaws = box_readout(feats, np.array([0]), np.array([0]), fm, w)
    assert np.all(np.isfinite(centers))
    assert np.all((0 < sizes) & (sizes < np.inf))
    assert -math.pi < yaws[0] <= math.pi


def test_box_readout_rejects_nan_feature(rng):
    # a NaN feature row reads out a NaN yaw, which fails the range check
    c = 4
    w = init_decoder("dec", c, 3, 1, 0, 9).box
    fm = bev_map(rng, c=c)
    feats = rng.normal(size=(3, c)).astype(np.float32)
    feats[1] = np.nan
    with pytest.raises(ValueError, match="box_readout"):
        box_readout(feats, np.arange(3), np.arange(3), fm, w)


def box_from_query_ref(feat, row, col, fm, w):
    """Reference readout of one query: a 1-D MLP pass, then its (center,
    size, yaw) as Python floats."""
    raw = silu_two_branch(feat @ w.w1 + w.b1) @ w.w2 + w.b2
    raw = np.clip(raw, -BOX_RAW_CLIP, BOX_RAW_CLIP)
    cx, cy = fm.cell_centers(np.array([row]), np.array([col]))[0]
    yaw = math.atan2(float(raw[6]), float(raw[7]))
    if yaw <= -math.pi:
        yaw = math.pi
    center = (float(cx + raw[0]), float(cy + raw[1]), float(raw[2]))
    return center, tuple(float(s) for s in np.exp(raw[3:6])), yaw


def grid_points_ref(center, size, yaw, g):
    """Reference lattice of one box."""
    frac = (np.arange(g, dtype=np.float64) + 0.5) / g - 0.5
    gx, gy, gz = np.meshgrid(frac, frac, frac, indexing="ij")
    local = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1) * np.array(size)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + np.array(center)


@pytest.mark.parametrize("scale", [0.05, 0.5, 3.0])
@pytest.mark.parametrize("c", [8, 32])
def test_box_readout_matches_per_query(scale, c):
    # unclipped features: at these scales no raw output reaches the
    # BOX_RAW_CLIP rail, so a last-bit difference cannot hide behind it
    rng = np.random.default_rng(int(scale * 100) + c)
    m = 200
    w = init_decoder("dec", c, 3, 1, 0, 21).box
    fm = bev_map(rng, h=16, w=16, c=c)
    feats = (rng.normal(size=(m, c)) * scale).astype(np.float32)
    rows, cols = rng.integers(0, 16, size=m), rng.integers(0, 16, size=m)
    raw = silu_two_branch(feats @ w.w1 + w.b1) @ w.w2 + w.b2
    assert np.abs(raw).max() < BOX_RAW_CLIP
    centers, sizes, yaws = box_readout(feats, rows, cols, fm, w)
    want = [box_from_query_ref(feats[i], rows[i], cols[i], fm, w) for i in range(m)]
    assert centers.tolist() == [list(center) for center, _, _ in want]
    assert sizes.tolist() == [list(size) for _, size, _ in want]
    assert yaws.tolist() == [yaw for _, _, yaw in want]


@pytest.mark.parametrize("scale", [0.05, 0.5, 3.0])
def test_grid_points_matches_per_box(scale):
    rng = np.random.default_rng(int(scale * 100))
    c, m = 32, 200
    w = init_decoder("dec", c, 3, 1, 0, 22).box
    fm = bev_map(rng, h=16, w=16, c=c)
    feats = (rng.normal(size=(m, c)) * scale).astype(np.float32)
    boxes = box_readout(feats, rng.integers(0, 16, size=m), rng.integers(0, 16, size=m), fm, w)
    got = grid_points(*boxes, 4)
    assert got.shape == (m, 64, 3)
    for i, (center, size, yaw) in enumerate(zip(*boxes)):
        assert np.array_equal(got[i], grid_points_ref(center, size, yaw, 4))


UNIT_BOX = (np.zeros((1, 3)), np.ones((1, 3)), np.zeros(1))


def test_grid_points_unit_lattice():
    [pts] = grid_points(*UNIT_BOX, 2)
    assert pts.shape == (8, 3)
    assert np.allclose(np.abs(pts), 0.25)


def test_grid_points_centroid_at_center_any_yaw(rng):
    centers = rng.uniform(-5, 5, size=(10, 3))
    sizes = rng.uniform(0.5, 4.0, size=(10, 3))
    yaws = rng.uniform(-np.pi, np.pi, size=10)
    for center, pts in zip(centers, grid_points(centers, sizes, yaws, 4)):
        assert np.allclose(pts.mean(axis=0), center, atol=1e-6)


def test_grid_points_inverse_transform_recovers_lattice(rng):
    center, size, yaw = np.array([1.5, -2.0, 0.7]), np.array([2.0, 3.0, 1.5]), 0.9
    g = 4
    [pts] = grid_points(center[None], size[None], np.array([yaw]), g)
    c, s = np.cos(yaw), np.sin(yaw)
    rot_inv = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    local = (pts - center) @ rot_inv.T / size
    frac = (np.arange(g) + 0.5) / g - 0.5
    gx, gy, gz = np.meshgrid(frac, frac, frac, indexing="ij")
    want = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    assert np.max(np.abs(local - want)) < 1e-6


def test_grid_points_rejects_bad_side():
    with pytest.raises(ValueError):
        grid_points(*UNIT_BOX, 1)
    with pytest.raises(ValueError):
        grid_points(*UNIT_BOX, 3)  # 27 not divisible by 4


def test_voxel_pool_lone_voxel():
    v = SparseVoxelSet(
        np.array([[4, 4, 2]], dtype=np.int64),
        np.array([[2.0, -1.0]], dtype=np.float32),
        GRID,
    )
    # center of cell (4,4,2) is (0.5, 0.5, 1.25)
    out = voxel_pool(v, np.array([[0.5, 0.5, 1.25], [3.4, -3.7, 0.2]]))
    assert out[0].tolist() == [2.0, -1.0]
    assert out[1].tolist() == [0.0, 0.0]


def test_voxel_pool_empty_set():
    out = voxel_pool(empty_voxel_set(GRID, 3), np.array([[0.0, 0.0, 1.0]]))
    assert np.array_equal(out, np.zeros((1, 3), dtype=np.float32))


def test_voxel_pool_matches_oracle(rng):
    grid16 = GridSpec(origin=(-8.0, -8.0, -4.0), voxel_size=(1.0, 1.0, 0.5), extents=(16, 16, 16))
    v = random_voxel_set(rng, grid16, 120, 3)
    pts = rng.uniform([-8, -8, -4], [8, 8, 4], size=(60, 3))
    got = voxel_pool(v, pts)
    want = oracles.voxel_pool(v.coords, v.feats, grid16.origin, grid16.voxel_size,
                              grid16.extents, pts)
    assert np.allclose(got, want, atol=1e-5)


def test_voxel_pool_stacked_lattices_match_per_lattice(rng):
    grid16 = GridSpec(origin=(-8.0, -8.0, -4.0), voxel_size=(1.0, 1.0, 0.5), extents=(16, 16, 16))
    v = random_voxel_set(rng, grid16, 300, 3)
    lattices = rng.uniform([-9, -9, -5], [9, 9, 5], size=(5, 8, 3))
    stacked = voxel_pool(v, lattices).reshape(5, 8, 3)
    for i in range(5):
        assert np.array_equal(stacked[i], voxel_pool(v, lattices[i]))


def mix_weights_for(c, g, **overrides):
    base = dict(
        off_w=np.zeros((3, c), dtype=np.float32),
        off_b=np.zeros(c, dtype=np.float32),
        cw=np.zeros((c, c * c), dtype=np.float32),
        cb=np.zeros(c * c, dtype=np.float32),
        sw=np.zeros((c, g * (g // 4)), dtype=np.float32),
        sb=np.zeros(g * (g // 4), dtype=np.float32),
        down_w=np.zeros((c * (g // 4), c), dtype=np.float32),
        down_b=np.zeros(c, dtype=np.float32),
    )
    base.update(overrides)
    return MixWeights(**base)


def test_mmvfm_mix_zero_grid_gives_down_bias(rng):
    c, g = 4, 8
    bias = rng.normal(size=c).astype(np.float32)
    w = mix_weights_for(c, g, down_b=bias)
    grid = GridFeatures(
        points=np.zeros((g, 3)), feats=np.zeros((g, c), dtype=np.float32),
        offsets=np.zeros((g, 3)),
    )
    out = mmvfm_mix(rng.normal(size=c).astype(np.float32), grid, w)
    assert np.allclose(out, bias, atol=1e-6)


def test_mmvfm_mix_selector_case(rng):
    # identity channel kernel and a first-column spatial selector read the
    # first grid feature row straight through the down projection
    c, g = 4, 8
    gq = g // 4
    down_w = np.zeros((c * gq, c), dtype=np.float32)
    for ch in range(c):
        down_w[ch * gq, ch] = 1.0
    sb = np.zeros((g, gq), dtype=np.float32)
    sb[0, 0] = 1.0
    w = mix_weights_for(
        c, g,
        cb=np.eye(c, dtype=np.float32).ravel(),
        sb=sb.ravel(),
        down_w=down_w,
    )
    feats = rng.normal(size=(g, c)).astype(np.float32)
    grid = GridFeatures(points=np.zeros((g, 3)), feats=feats, offsets=np.zeros((g, 3)))
    out = mmvfm_mix(rng.normal(size=c).astype(np.float32), grid, w)
    assert np.allclose(out, feats[0], atol=1e-5)


def random_mix_weights(rng, c, g):
    return MixWeights(
        off_w=rng.normal(size=(3, c)).astype(np.float32),
        off_b=rng.normal(size=c).astype(np.float32),
        cw=rng.normal(size=(c, c * c)).astype(np.float32) * 0.2,
        cb=rng.normal(size=c * c).astype(np.float32) * 0.2,
        sw=rng.normal(size=(c, g * (g // 4))).astype(np.float32) * 0.2,
        sb=rng.normal(size=g * (g // 4)).astype(np.float32) * 0.2,
        down_w=rng.normal(size=(c * (g // 4), c)).astype(np.float32) * 0.2,
        down_b=rng.normal(size=c).astype(np.float32),
    )


def test_mmvfm_mix_matches_scalar_oracle(rng):
    c, g = 8, 8
    w = random_mix_weights(rng, c, g)
    q = rng.normal(size=c).astype(np.float32)
    grid = GridFeatures(
        points=rng.normal(size=(g, 3)),
        feats=rng.normal(size=(g, c)).astype(np.float32),
        offsets=rng.normal(size=(g, 3)),
    )
    got = mmvfm_mix(q, grid, w)
    want = oracles.mmvfm_mix(
        q, grid.feats, grid.offsets, w.off_w, w.off_b, w.cw, w.cb, w.sw, w.sb,
        w.down_w, w.down_b,
    )
    assert np.max(np.abs(got - want)) < 1e-6


def test_mmvfm_mix_batched_matches_per_query(rng):
    c, g, m = 8, 8, 5
    w = random_mix_weights(rng, c, g)
    q = rng.normal(size=(m, c)).astype(np.float32)
    grid = GridFeatures(
        points=rng.normal(size=(m, g, 3)),
        feats=rng.normal(size=(m, g, c)).astype(np.float32),
        offsets=rng.normal(size=(m, g, 3)),
    )
    got = mmvfm_mix(q, grid, w)
    assert got.shape == (m, c)
    for i in range(m):
        one = mmvfm_mix(q[i], GridFeatures(grid.points[i], grid.feats[i], grid.offsets[i]), w)
        want = oracles.mmvfm_mix(
            q[i], grid.feats[i], grid.offsets[i], w.off_w, w.off_b, w.cw, w.cb, w.sw, w.sb,
            w.down_w, w.down_b,
        )
        assert np.max(np.abs(got[i] - want)) < 1e-5
        assert np.max(np.abs(got[i] - one)) < 1e-6


def test_mmvfm_layer_empty_modalities_finite(rng):
    c = 4
    w = init_decoder("dec", c, 3, 1, 1, 12)
    fm = bev_map(rng, c=c)
    feats = rng.normal(size=(3, c)).astype(np.float32)
    rows, cols = np.array([1, 2, 3]), np.array([4, 5, 6])
    img_grid = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(1.0, 1.0, 0.25), extents=(8, 8, 8))
    out = mmvfm_layer(
        feats, rows, cols, empty_voxel_set(GRID, c), empty_voxel_set(img_grid, c),
        fm, w.box, w.mmvfm[0],
    )
    assert out.shape == feats.shape
    assert np.all(np.isfinite(out))


def test_mmvfm_layer_deterministic(rng):
    c = 4
    w = init_decoder("dec", c, 3, 1, 1, 13)
    fm = bev_map(rng, c=c)
    feats = rng.normal(size=(2, c)).astype(np.float32)
    rows, cols = np.array([1, 6]), np.array([2, 3])
    v_lid = random_voxel_set(rng, GRID, 30, c)
    img_grid = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(1.0, 1.0, 0.25), extents=(8, 8, 8))
    v_img = random_voxel_set(rng, img_grid, 30, c)
    a = mmvfm_layer(feats, rows, cols, v_lid, v_img, fm, w.box, w.mmvfm[0])
    b = mmvfm_layer(feats, rows, cols, v_lid, v_img, fm, w.box, w.mmvfm[0])
    assert np.array_equal(a, b)


def test_mmvfm_layer_peak_memory(rng):
    # the float64 mixing runs MIX_CHUNK queries at a time, so it never holds a
    # (200, 64, 32) float64 array (3.3 MB each); 200 queries on a 48x48 map,
    # C = 32, with 4,000 occupied LiDAR voxels: 12,800 lattice points per
    # modality (7.2 MB traced; bound that plus 1 MB)
    from ddhf.config import PipelineConfig

    cfg = PipelineConfig()
    fm = FeatureMap(
        rng.normal(size=(48, 48, 32)).astype(np.float32), origin=(-54.0, -54.0),
        cell_size=(2.25, 2.25),
    )
    feats = rng.normal(size=(200, 32)).astype(np.float32)
    rows, cols = rng.integers(0, 48, 200), rng.integers(0, 48, 200)
    v_lid = random_voxel_set(rng, cfg.lidar_grid(), 4000, 32)
    v_img = empty_voxel_set(cfg.image_grid(), 32)
    w = init_decoder("peak", 32, 3, 0, 1, 3)
    assert traced_peak(mmvfm_layer, feats, rows, cols, v_lid, v_img, fm, w.box, w.mmvfm[0]) < 8.2e6


def _assert_layers_return_their_input(w, rng):
    c = 8
    fm = bev_map(rng, c=c)
    feats = rng.normal(size=(5, c)).astype(np.float32)
    rows, cols = np.array([0, 1, 4, 6, 7]), np.array([7, 2, 4, 0, 5])
    img_grid = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(1.0, 1.0, 0.25), extents=(8, 8, 8))
    v_lid = random_voxel_set(rng, GRID, 40, c)
    v_img = random_voxel_set(rng, img_grid, 40, c)
    assert len(w.deform) == 3 and len(w.mmvfm) == 2
    for layer in w.deform:
        assert np.array_equal(deformable_layer(feats, rows, cols, fm, layer), feats)
    for layer in w.mmvfm:
        out = mmvfm_layer(feats, rows, cols, v_lid, v_img, fm, w.box, layer)
        assert np.array_equal(out, feats)


def test_identity_configured_decoder_layers_return_their_input(rng):
    # seeded generators, pooling and mixing stay live; only the residual
    # outputs are zeroed, so every layer adds exactly zero to its query
    w = init_decoder("dec", 8, 3, n_bev=3, m_vox=2, global_seed=14).identity_configured()
    _assert_layers_return_their_input(w, rng)


def test_identity_configured_decoder_layers_with_filled_zero_tensors(rng):
    w = init_decoder("dec", 8, 3, n_bev=3, m_vox=2, global_seed=14)
    _assert_layers_return_their_input(fill_zero_tensors(w, rng).identity_configured(), rng)


def test_detection_head_zero_weights_scores_half(rng):
    c, k = 4, 3
    zeros = lambda *shape: np.zeros(shape, dtype=np.float32)
    attn = AttentionWeights(
        zeros(c, c), zeros(c), zeros(c, c), zeros(c),
        zeros(c, c), zeros(c), zeros(c, c), zeros(c),
    )
    w = DetectionHeadWeights(
        attn=attn,
        ffn1_w=zeros(c, 2 * c), ffn1_b=zeros(2 * c),
        ffn2_w=zeros(2 * c, c), ffn2_b=zeros(c),
        cls_w=zeros(c, k), cls_b=zeros(k),
        box=zero_box_head(c),
    )
    fm = bev_map(rng, c=c)
    feats = rng.normal(size=(4, c)).astype(np.float32)
    dets = detection_head(feats, np.arange(4), np.arange(4), fm, w)
    assert all(d.score == 0.5 for d in dets)
    assert all(d.class_id == 0 for d in dets)
    assert all(d.size == (1.0, 1.0, 1.0) for d in dets)


def test_detection_head_scores_in_range(rng):
    c = 4
    w = init_decoder("dec", c, 3, 1, 0, 14).head
    fm = bev_map(rng, c=c)
    feats = rng.normal(size=(5, c)).astype(np.float32)
    dets = detection_head(feats, np.arange(5), np.arange(5), fm, w)
    assert all(0.0 <= d.score <= 1.0 for d in dets)
    assert all(0 <= d.class_id < 3 for d in dets)


def test_decode_one_box_per_query(rng):
    c = 4
    w = init_decoder("dec", c, 3, 3, 1, 15)
    fm = bev_map(rng, c=c)
    queries = make_queries(rng, fm, 6, c)
    v_lid = random_voxel_set(rng, GRID, 25, c)
    img_grid = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(1.0, 1.0, 0.25), extents=(8, 8, 8))
    v_img = random_voxel_set(rng, img_grid, 25, c)
    dets = decode(queries, fm, v_lid, v_img, w)
    assert len(dets) == 6


def test_decode_m_vox_zero_still_valid(rng):
    c = 4
    w = init_decoder("dec", c, 3, 3, 0, 16)
    fm = bev_map(rng, c=c)
    queries = make_queries(rng, fm, 4, c)
    dets = decode(queries, fm, empty_voxel_set(GRID, c), empty_voxel_set(GRID, c), w)
    assert len(dets) == 4
    for d in dets:
        assert all(s > 0 for s in d.size)
        assert 0.0 <= d.score <= 1.0


def test_decode_empty_queries(rng):
    c = 4
    w = init_decoder("dec", c, 3, 3, 1, 17)
    fm = bev_map(rng, c=c)
    queries = make_queries(rng, fm, 0, c)
    assert decode(queries, fm, empty_voxel_set(GRID, c), empty_voxel_set(GRID, c), w) == []


def test_decode_runs_every_layer_the_weights_hold(rng):
    c = 4
    w = init_decoder("dec", c, 3, 2, 1, 18)
    fm = bev_map(rng, c=c)
    queries = make_queries(rng, fm, 3, c)
    v_lid, v_img = empty_voxel_set(GRID, c), empty_voxel_set(GRID, c)
    feats, (rows, cols) = queries.feats, queries.pos.T
    for layer in w.deform:
        feats = deformable_layer(feats, rows, cols, fm, layer)
    feats = mmvfm_layer(feats, rows, cols, v_lid, v_img, fm, w.box, w.mmvfm[0])
    want = detection_head(feats, rows, cols, fm, w.head)
    assert decode(queries, fm, v_lid, v_img, w) == want


def test_decode_bit_identical(rng):
    c = 4
    w = init_decoder("dec", c, 3, 3, 1, 19)
    fm = bev_map(rng, c=c)
    queries = make_queries(rng, fm, 5, c)
    v_lid = random_voxel_set(rng, GRID, 20, c)
    img_grid = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(1.0, 1.0, 0.25), extents=(8, 8, 8))
    v_img = random_voxel_set(rng, img_grid, 20, c)
    a = decode(queries, fm, v_lid, v_img, w)
    b = decode(queries, fm, v_lid, v_img, w)
    assert [(d.center, d.size, d.yaw, d.class_id, d.score) for d in a] == [
        (d.center, d.size, d.yaw, d.class_id, d.score) for d in b
    ]
