import numpy as np
import pytest

from ddhf import oracles
from ddhf.core import FeatureMap, GridSpec, SparseVoxelSet, empty_voxel_set, zeroed
from ddhf.hbf import (
    bev_backbone,
    cb_mamba,
    hbf_forward,
    ib_mamba,
    init_bev_backbone,
    init_cb_mamba,
    init_hbf,
    init_ib_mamba,
    sparse_height_compress,
)

from conftest import fill_zero_tensors, random_voxel_set, traced_peak

GRID = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(1.0, 1.0, 0.5), extents=(8, 8, 4))


def bev_map(rng, h=4, w=4, c=4):
    return FeatureMap(
        rng.normal(size=(h, w, c)).astype(np.float32), origin=(0.0, 0.0), cell_size=(1.0, 1.0)
    )


def test_height_compress_single_voxel():
    v = SparseVoxelSet(
        np.array([[2, 5, 1]], dtype=np.int64),
        np.array([[3.0, -1.0]], dtype=np.float32),
        GRID,
    )
    out = sparse_height_compress(v)
    assert out.data.shape == (8, 8, 2)
    assert out.data[5, 2].tolist() == [3.0, -1.0]  # row = iy, col = ix
    assert np.count_nonzero(out.data) == 2


def test_height_compress_channelwise_max():
    v = SparseVoxelSet(
        np.array([[1, 1, 0], [1, 1, 3]], dtype=np.int64),
        np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        GRID,
    )
    out = sparse_height_compress(v)
    assert out.data[1, 1].tolist() == [1.0, 1.0]


def test_height_compress_negative_features_kept():
    v = SparseVoxelSet(
        np.array([[0, 0, 0], [0, 0, 1]], dtype=np.int64),
        np.array([[-2.0], [-5.0]], dtype=np.float32),
        GRID,
    )
    out = sparse_height_compress(v)
    assert out.data[0, 0, 0] == -2.0


def test_height_compress_matches_oracle(rng):
    for _ in range(5):
        v = random_voxel_set(rng, GRID, 40, 3)
        got = sparse_height_compress(v)
        want = oracles.height_compress(v.coords, v.feats, GRID.extents)
        assert np.array_equal(got.data, want)


def test_height_compress_empty():
    out = sparse_height_compress(empty_voxel_set(GRID, 3))
    assert not np.any(out.data)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_height_compress_rejects_non_finite_feature(value):
    # the pillar max carries the value into the map, which rejects it; it
    # does not read 0 as an empty pillar does (oracles.height_compress has no
    # such rule either)
    v = SparseVoxelSet(np.array([[3, 4, 1]]), np.array([[1.0, value]], dtype=np.float32), GRID)
    with pytest.raises(ValueError, match="non-finite"):
        sparse_height_compress(v)


def test_ib_mamba_identity(rng):
    w = init_ib_mamba("ib", 4, 3, 41).identity_configured()
    b = bev_map(rng)
    out = ib_mamba(b, w)
    assert np.array_equal(out.data, b.data)


def test_ib_mamba_matches_scalar_oracle(rng):
    w = init_ib_mamba("ib", 4, 2, 42)
    b = bev_map(rng, h=4, w=4, c=4)
    got = ib_mamba(b, w)
    want = oracles.ib_mamba(b.data, w)
    assert np.max(np.abs(got.data - want)) < 1e-5


def test_ib_mamba_constant_field(rng):
    # a constant map is invariant under 180-degree rotation and transpose, and
    # the four-direction scan treats those views symmetrically, so the output
    # inherits both symmetries exactly; the scan's warm-up transient still
    # varies along each direction, so the output is NOT constant
    w = init_ib_mamba("ib", 2, 2, 43)
    data = np.full((4, 4, 2), 0.7, dtype=np.float32)
    b = FeatureMap(data, origin=(0.0, 0.0), cell_size=(1.0, 1.0))
    out = ib_mamba(b, w).data
    assert np.array_equal(out, out[::-1, ::-1])
    assert np.array_equal(out, out.transpose(1, 0, 2))
    want = oracles.ib_mamba(b.data, w)
    assert np.max(np.abs(out - want)) < 1e-5


def test_ib_mamba_deterministic(rng):
    w = init_ib_mamba("ib", 4, 3, 44)
    b = bev_map(rng, h=6, w=5)
    assert np.array_equal(ib_mamba(b, w).data, ib_mamba(b, w).data)


def test_cb_gate_complement(rng):
    w = init_cb_mamba("cb", 4, 2, 51)
    for _ in range(5):
        img, lid = bev_map(rng), bev_map(rng)
        _, y_img, y_lid = cb_mamba(img, lid, w, return_gates=True)
        assert np.max(np.abs(y_img + y_lid - 1.0)) <= 1e-6


def test_cb_gate_zeroed_uses_lidar_path_plus_skip(rng):
    import dataclasses

    w = init_cb_mamba("cb", 4, 2, 52)
    w = dataclasses.replace(w, gate_w=np.zeros_like(w.gate_w), gate_b=np.zeros_like(w.gate_b))
    img, lid = bev_map(rng), bev_map(rng)
    out, y_img, y_lid = cb_mamba(img, lid, w, return_gates=True)
    assert np.all(y_img == 0.0)  # silu(0) = 0
    assert np.all(y_lid == 1.0)
    # the image scan path is weighted by zero, so perturbing its private input
    # projection (which feeds nothing else) cannot move the output
    noisy = rng.normal(size=w.img.in_w.shape).astype(np.float32)
    w2 = dataclasses.replace(w, img=dataclasses.replace(w.img, in_w=noisy))
    out2 = cb_mamba(img, lid, w2)
    assert np.array_equal(out2.data, out.data)


def test_cb_mamba_matches_scalar_oracle(rng):
    w = init_cb_mamba("cb", 4, 2, 53)
    img, lid = bev_map(rng), bev_map(rng)
    got = cb_mamba(img, lid, w)
    want = oracles.cb_mamba(img.data, lid.data, w)
    assert np.max(np.abs(got.data - want)) < 1e-5


def test_cb_mamba_rejects_shape_mismatch(rng):
    w = init_cb_mamba("cb", 4, 2, 54)
    with pytest.raises(ValueError):
        cb_mamba(bev_map(rng, h=4), bev_map(rng, h=6), w)


def test_ib_mamba_peak_memory(rng):
    # the four directions scan as one four-stream call; their per-block
    # float64 buffers (2 x 64 x 4 x 32 x 16 x 8 B = 2.1 MB) and one
    # direction's LayerNorm temporaries at a time fit in the parent's
    # separate-direction peak (5.2 MB) plus 1 MB
    w = init_ib_mamba("peak", 32, 16, 3)
    assert traced_peak(ib_mamba, bev_map(rng, 48, 48, 32), w) < 6.2e6


def test_cb_mamba_peak_memory(rng):
    # the whole (48, 48, 512) generator output lives only while the gate is
    # read from it; each modality's (B, C, Delta) half is then built, scanned
    # and freed in turn, its Delta softplus'd in place (7.5 MB traced; bound
    # that plus 1 MB)
    w = init_cb_mamba("peak", 32, 16, 3)
    assert traced_peak(cb_mamba, bev_map(rng, 48, 48, 32), bev_map(rng, 48, 48, 32), w) < 8.5e6


def test_backbone_identity(rng):
    w = init_bev_backbone("bb", 4, 61).identity_configured()
    b = bev_map(rng, h=5, w=7)
    assert np.array_equal(bev_backbone(b, w).data, b.data)


def test_backbone_identity_with_filled_zero_tensors(rng):
    w = fill_zero_tensors(init_bev_backbone("bb", 4, 61), rng).identity_configured()
    b = bev_map(rng, h=5, w=7)
    assert np.array_equal(bev_backbone(b, w).data, b.data)


def test_backbone_preserves_shape(rng):
    w = init_bev_backbone("bb", 4, 62)
    b = bev_map(rng, h=5, w=7)
    out = bev_backbone(b, w)
    assert out.data.shape == b.data.shape
    assert np.all(np.isfinite(out.data))


def identity_hbf(c, d_state, seed):
    """Identity blocks; projections keep the dense map and drop the pillars."""
    import dataclasses

    w = init_hbf("hbf", c, d_state, seed)
    proj = np.zeros((2 * c, c), dtype=np.float32)
    proj[:c, :c] = np.eye(c, dtype=np.float32)
    return dataclasses.replace(
        zeroed(w, "proj_img_b", "proj_lid_b"),
        proj_img_w=proj,
        proj_lid_w=proj,
        ib_img=w.ib_img.identity_configured(),
        ib_lid=w.ib_lid.identity_configured(),
        cb=dataclasses.replace(
            zeroed(w.cb, "gate_w", "gate_b"),
            img=zeroed(w.cb.img, "in_w", "in_b"),
            lid=zeroed(w.cb.lid, "in_w", "in_b"),
        ),
        backbone=w.backbone.identity_configured(),
    )


def test_hbf_identity_chain(rng):
    # identity projections/IB/backbone and a zero-input CB scan path reduce the
    # whole fusion to the mean of the two dense maps
    c = 4
    w = identity_hbf(c, 2, 71)
    b_lid, b_img = bev_map(rng, h=8, w=8), bev_map(rng, h=8, w=8)
    v_lid = random_voxel_set(rng, GRID, 20, c)
    v_img = random_voxel_set(rng, GRID, 20, c)
    out = hbf_forward(b_lid, b_img, v_lid, v_img, w)
    want = 0.5 * (b_img.data + b_lid.data)
    assert np.allclose(out.data, want, atol=2e-5)


def test_hbf_zero_image_branch(rng):
    c = 4
    w = init_hbf("hbf", c, 2, 72)
    zero_img = FeatureMap(
        np.zeros((8, 8, c), dtype=np.float32), origin=(-4.0, -4.0), cell_size=(1.0, 1.0)
    )
    b_lid = FeatureMap(
        rng.normal(size=(8, 8, c)).astype(np.float32), origin=(-4.0, -4.0), cell_size=(1.0, 1.0)
    )
    out = hbf_forward(b_lid, zero_img, random_voxel_set(rng, GRID, 20, c),
                      empty_voxel_set(GRID, c), w)
    assert out.data.shape == (8, 8, c)
    assert np.all(np.isfinite(out.data))


def test_hbf_deterministic(rng):
    c = 4
    w = init_hbf("hbf", c, 2, 73)
    b_lid, b_img = bev_map(rng, h=8, w=8), bev_map(rng, h=8, w=8)
    v_lid = random_voxel_set(rng, GRID, 15, c)
    v_img = random_voxel_set(rng, GRID, 15, c)
    a = hbf_forward(b_lid, b_img, v_lid, v_img, w)
    b = hbf_forward(b_lid, b_img, v_lid, v_img, w)
    assert np.array_equal(a.data, b.data)
