from dataclasses import replace

import numpy as np
import pytest

from ddhf.core import GridSpec, SparseVoxelSet, empty_voxel_set
from ddhf.curve import hilbert_index
from ddhf.hvf import (
    coarser_grid,
    cv_mamba,
    cv_merge,
    hvf_forward,
    image_extents,
    init_hvf,
    iv_mamba,
    sparse_down,
    sparse_up,
)
from ddhf.ssm import ROW_CHUNK, bidirectional_block, init_ssm_block

from conftest import fill_zero_tensors, random_voxel_set, traced_peak

LIDAR_GRID = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(8, 8, 4))
IMAGE_GRID = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 0.5), extents=(8, 8, 8))


def paired_sets(
    rng, n_lidar=24, n_image=30, channels=4, coincident=0, grids=(LIDAR_GRID, IMAGE_GRID)
):
    lidar_grid, image_grid = grids
    vl = random_voxel_set(rng, lidar_grid, n_lidar, channels)
    vi = random_voxel_set(rng, image_grid, n_image, channels)
    if coincident:
        # plant image voxels exactly at lifted LiDAR coords
        lift = vl.coords[:coincident] * np.array([1, 1, 2])
        coords = np.concatenate([lift, vi.coords])
        _, keep = np.unique(
            np.ravel_multi_index(coords.T, image_grid.extents), return_index=True
        )
        keep.sort()
        feats = np.concatenate(
            [rng.normal(size=(coincident, channels)).astype(np.float32), vi.feats]
        )
        vi = SparseVoxelSet(coords[keep], feats[keep], image_grid)
    return vl, vi


def test_merge_tie_breaks_lidar_first(rng):
    vl = SparseVoxelSet(
        np.array([[1, 1, 1]], dtype=np.int64),
        np.array([[1.0]], dtype=np.float32),
        LIDAR_GRID,
    )
    vi = SparseVoxelSet(
        np.array([[1, 1, 2]], dtype=np.int64),  # coincides with lifted (1,1,2)
        np.array([[2.0]], dtype=np.float32),
        IMAGE_GRID,
    )
    assert cv_merge(vl, vi).tolist() == [0, 1]  # stacked rows: LiDAR 0, image 1


def lifted_keys(vl, vi, bits=3):
    """Hilbert keys of the stacked rows [LiDAR coords with z doubled; image
    coords]; the default 3 bits cover the 8-cell image grid."""
    return hilbert_index(*np.concatenate([vl.coords * np.array([1, 1, 2]), vi.coords]).T, bits)


def test_merge_lifts_lidar_z(rng):
    # the order visits the stacked rows by their lifted cells' keys, LiDAR
    # first on a shared cell
    for coincident in (0, 5):
        vl, vi = paired_sets(rng, coincident=coincident)
        order = cv_merge(vl, vi)
        assert np.array_equal(np.sort(order), np.arange(vl.n + vi.n))
        keys = lifted_keys(vl, vi)[order]
        tie = keys[1:] == keys[:-1]
        assert np.all(keys[1:] >= keys[:-1])
        assert np.all(order[:-1][tie] < vl.n) and np.all(order[1:][tie] >= vl.n)
        assert tie.sum() >= coincident


def test_cv_mamba_identity_exact(rng):
    w = init_ssm_block("cv", 4, 3, 21).identity_configured()
    vl, vi = paired_sets(rng, coincident=3)
    out_l, out_i = cv_mamba(vl, vi, w)
    assert np.array_equal(out_l.feats, vl.feats)
    assert np.array_equal(out_i.feats, vi.feats)


# 48 x 48 x 8 LiDAR and 48 x 48 x 16 image grids; 6 bits cover 48 cells
WIDE_GRIDS = (
    GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (48, 48, 8)),
    GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 0.5), (48, 48, 16)),
)


def test_cv_mamba_scans_the_lifted_sequence(rng):
    # seeded weights: each row's output is the scan of the concatenated
    # sequence sorted by lifted keys (LiDAR first on a tie), written back to
    # its own set and row, bit for bit, whether a set is empty (the image one
    # on a camera-less frame) or the sequence runs over several ROW_CHUNK
    # chunks, each holding rows of both sets
    w = init_ssm_block("cv", 4, 3, 21)
    small = (LIDAR_GRID, IMAGE_GRID)
    cases = {  # (LiDAR rows, image rows), grids, Hilbert bits
        "both": ((24, 30), small, 3),
        "empty-lidar": ((0, 30), small, 3),
        "empty-image": ((24, 0), small, 3),
        "chunks-straddle-both": ((1500, 2600), WIDE_GRIDS, 6),
    }
    for case, (sizes, grids, bits) in cases.items():
        vl, vi = paired_sets(rng, *sizes, coincident=min(5, *sizes), grids=grids)
        seq = np.lexsort((np.arange(vl.n + vi.n), lifted_keys(vl, vi, bits)))
        for chunk in (seq[lo : lo + ROW_CHUNK] for lo in range(0, seq.size, ROW_CHUNK)):
            if seq.size > ROW_CHUNK:
                assert np.any(chunk < vl.n) and np.any(chunk >= vl.n), case
        want = np.empty((vl.n + vi.n, 4), dtype=np.float32)
        want[seq] = bidirectional_block(np.concatenate([vl.feats, vi.feats])[seq], w)
        out_l, out_i = cv_mamba(vl, vi, w)
        assert out_l.feats.tobytes() == want[: vl.n].tobytes(), case
        assert out_i.feats.tobytes() == want[vl.n :].tobytes(), case


def test_cv_mamba_permutes_with_its_inputs(rng):
    # seeded weights: permuting the rows of both sets permutes the output
    # rows the same way, bit for bit, shared cells included. Identity
    # weights cannot see a wrong split offset or a wrong order
    w = init_ssm_block("cv", 4, 3, 21)
    for _ in range(10):
        vl, vi = paired_sets(rng, coincident=5)
        out = cv_mamba(vl, vi, w)
        perms = rng.permutation(vl.n), rng.permutation(vi.n)
        moved = [SparseVoxelSet(v.coords[p], v.feats[p], v.grid) for v, p in zip((vl, vi), perms)]
        for got, base, p in zip(cv_mamba(*moved, w), out, perms):
            assert got.feats.tobytes() == base.feats[p].tobytes()


def test_cv_mamba_two_empty_sets():
    # the merged sequence is empty; each set comes back empty on its own grid
    out_l, out_i = cv_mamba(
        empty_voxel_set(LIDAR_GRID, 4), empty_voxel_set(IMAGE_GRID, 4), init_ssm_block("cv", 4, 3, 21)
    )
    for out, grid in ((out_l, LIDAR_GRID), (out_i, IMAGE_GRID)):
        assert out.n == 0 and out.grid == grid and out.feats.shape == (0, 4)


def test_iv_mamba_identity_and_empty(rng):
    w = init_ssm_block("iv", 4, 3, 22).identity_configured()
    vl, _ = paired_sets(rng)
    assert np.array_equal(iv_mamba(vl, w).feats, vl.feats)
    empty = empty_voxel_set(LIDAR_GRID, 4)
    assert iv_mamba(empty, w).n == 0


def _peak_case(n_lidar: int, n_image: int):
    """Voxel sets on the default-config grids, C = 32, and a d_state = 16 block."""
    lidar = GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (48, 48, 8))
    image = GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 0.5), image_extents(lidar.extents))
    rng = np.random.default_rng(8000)
    vl, vi = random_voxel_set(rng, lidar, n_lidar, 32), random_voxel_set(rng, image, n_image, 32)
    return vl, vi, init_ssm_block("peak", 32, 16, 3)


def _scan_bytes(n: int, c: int, d_state: int) -> int:
    """The float32 x, B, C and Delta a block's scan reads, and its (n, C) output."""
    return n * 4 * (3 * c + 2 * d_state)


def test_iv_mamba_peak_memory():
    # the block reads its Hilbert order in place and its scan sums both
    # directions into one (n, C) buffer: no permuted copy of the features,
    # no (n, 2, C) scan output and no scatter buffer (3 * 1.02 MB here).
    # 5.25 MB measured; the slack holds one ROW_CHUNK's projection
    # temporaries, two float64 (2048, 32) layer-norm buffers among them
    # (1.05 MB). The copies read 7.54 MB
    _, vi, w = _peak_case(0, 8000)
    assert traced_peak(iv_mamba, vi, w) < _scan_bytes(vi.n, 32, 16) + 1.4e6


def test_cv_mamba_peak_memory():
    # the block holds cv_merge's int64 order and reads the sequence through
    # it in place, each row from its own set: no stacked or permuted copy of
    # the features, no lifted coords, tags or source rows, no split buffers,
    # and the summed scan builds no (n, 2) row table. 6.04 MB measured; the
    # slack holds the scan's block buffers (0.26 MB) and one ROW_CHUNK's
    # projection temporaries. The stacked features and the row table read
    # 7.32 MB, the merged sequence object 7.48 MB
    vl, vi, w = _peak_case(2000, 8000)
    n = vl.n + vi.n
    held = n * 8
    assert traced_peak(cv_mamba, vl, vi, w) < held + _scan_bytes(n, 32, 16) + 1.0e6


def test_coarser_grid_shapes():
    g = coarser_grid(LIDAR_GRID)
    assert g.extents == (4, 4, 2)
    assert g.voxel_size == (2.0, 2.0, 2.0)
    assert coarser_grid(g).extents == (2, 2, 1)


def test_sparse_down_occupancy_rule(rng):
    vl, _ = paired_sets(rng, n_lidar=30)
    kernel = rng.normal(size=(3, 3, 3, 4, 6)).astype(np.float32)
    bias = rng.normal(size=6).astype(np.float32)
    out, _ = sparse_down(vl, kernel, bias)
    want = {tuple(c) for c in (vl.coords // 2)}
    assert {tuple(c) for c in out.coords} == want
    assert out.channels == 6


def _silu(x):
    return x / (1.0 + np.exp(-x))


def dense_down_reference(v, kernel, bias):
    nx, ny, nz = v.grid.extents
    dense = np.zeros((nx, ny, nz, v.channels))
    for coord, feat in zip(v.coords, v.feats):
        dense[tuple(coord)] = feat
    out = {}
    for q in {tuple(c) for c in (v.coords // 2)}:
        acc = bias.astype(np.float64).copy()
        for tx in (-1, 0, 1):
            for ty in (-1, 0, 1):
                for tz in (-1, 0, 1):
                    p = (2 * q[0] + tx, 2 * q[1] + ty, 2 * q[2] + tz)
                    if all(0 <= p[k] < v.grid.extents[k] for k in range(3)):
                        acc += dense[p] @ kernel[tx + 1, ty + 1, tz + 1].astype(np.float64)
        out[q] = _silu(acc)
    return out


def test_sparse_down_matches_dense_conv(rng):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(8, 8, 8))
    v = random_voxel_set(rng, grid, 90, 4)
    kernel = rng.normal(size=(3, 3, 3, 4, 5)).astype(np.float32)
    bias = rng.normal(size=5).astype(np.float32)
    got, _ = sparse_down(v, kernel, bias)
    want = dense_down_reference(v, kernel, bias)
    assert got.n == len(want)
    for coord, feat in zip(got.coords, got.feats):
        assert np.allclose(feat, want[tuple(coord)], atol=1e-5)


def test_sparse_down_empty(rng):
    kernel = rng.normal(size=(3, 3, 3, 4, 6)).astype(np.float32)
    out, _ = sparse_down(empty_voxel_set(LIDAR_GRID, 4), kernel, np.zeros(6, dtype=np.float32))
    assert out.n == 0
    assert out.grid.extents == (4, 4, 2)
    assert out.channels == 6 and out.feats.dtype == np.float32


@pytest.mark.parametrize(
    "grid, n",
    [
        (LIDAR_GRID, 30),
        (GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(7, 5, 3)), 60),
        (LIDAR_GRID, 0),
    ],
    ids=["random", "odd-extents", "empty"],
)
def test_sparse_down_parents_are_each_voxels_coarse_row(rng, grid, n):
    v = random_voxel_set(rng, grid, n, 4)
    kernel = rng.normal(size=(3, 3, 3, 4, 4)).astype(np.float32)
    coarse, parents = sparse_down(v, kernel, np.zeros(4, dtype=np.float32))
    assert np.array_equal(parents, coarse.rows_of(v.coords // 2))
    assert parents.shape == (v.n,) and np.all(parents >= 0)


def test_sparse_up_zero_kernel_keeps_target(rng):
    vl, _ = paired_sets(rng)
    coarse, parents = sparse_down(
        vl, rng.normal(size=(3, 3, 3, 4, 4)).astype(np.float32), np.zeros(4, dtype=np.float32)
    )
    out = sparse_up(coarse, vl, parents, np.zeros((2, 2, 2, 4, 4), dtype=np.float32))
    assert np.array_equal(out.feats, vl.feats)
    assert np.array_equal(out.coords, vl.coords)


def test_sparse_up_adds_parent_contribution(rng):
    # one coarse voxel at (1, 2, 0); fine voxels pick kernel taps by offset
    coarse_grid = coarser_grid(LIDAR_GRID)
    cf = rng.normal(size=(1, 4)).astype(np.float32)
    coarse = SparseVoxelSet(np.array([[1, 2, 0]], dtype=np.int64), cf, coarse_grid)
    fine_coords = np.array([[2, 4, 0], [3, 5, 1]], dtype=np.int64)
    fine_feats = rng.normal(size=(2, 4)).astype(np.float32)
    fine = SparseVoxelSet(fine_coords, fine_feats, LIDAR_GRID)
    kernel = rng.normal(size=(2, 2, 2, 4, 4)).astype(np.float32)
    out = sparse_up(coarse, fine, np.zeros(2, dtype=np.int64), kernel)
    want0 = fine_feats[0] + cf[0] @ kernel[0, 0, 0]  # offset (0,0,0)
    want1 = fine_feats[1] + cf[0] @ kernel[1, 1, 1]  # offset (1,1,1)
    assert np.allclose(out.feats[0], want0, atol=1e-5)
    assert np.allclose(out.feats[1], want1, atol=1e-5)


def test_sparse_up_rejects_parents_of_another_length(rng):
    vl, _ = paired_sets(rng)
    coarse, parents = sparse_down(
        vl, rng.normal(size=(3, 3, 3, 4, 4)).astype(np.float32), np.zeros(4, dtype=np.float32)
    )
    with pytest.raises(ValueError, match="parents"):
        sparse_up(coarse, vl, parents[1:], np.zeros((2, 2, 2, 4, 4), dtype=np.float32))


def test_hvf_identity_configuration(rng):
    w = init_hvf("hvf", 4, 3, 31).identity_configured()
    vl, vi = paired_sets(rng, coincident=4)
    out_l, out_i = hvf_forward(vl, vi, w)
    assert np.array_equal(out_l.coords, vl.coords)
    assert np.array_equal(out_i.coords, vi.coords)
    assert np.array_equal(out_l.feats, vl.feats)
    assert np.array_equal(out_i.feats, vi.feats)


def test_hvf_identity_configuration_with_filled_zero_tensors(rng):
    w = fill_zero_tensors(init_hvf("hvf", 4, 3, 31), rng).identity_configured()
    vl, vi = paired_sets(rng, coincident=4)
    out_l, out_i = hvf_forward(vl, vi, w)
    assert np.array_equal(out_l.feats, vl.feats)
    assert np.array_equal(out_i.feats, vi.feats)


@pytest.mark.parametrize("branch", ["lidar", "image"])
def test_hvf_weights_reject_a_branch_with_another_scale_count(branch):
    w = init_hvf("hvf", 4, 3, 31)
    own = getattr(w, branch)
    for iv in (own.iv[:-1], own.iv + own.iv[:1]):
        with pytest.raises(ValueError, match="3 scales"):
            replace(w, **{branch: replace(own, iv=iv)})


@pytest.mark.parametrize("branch", ["lidar", "image"])
@pytest.mark.parametrize("steps", [(1, 0), (1, 2), (2, 1), (3, 3)])
def test_hvf_weights_reject_a_branch_with_another_step_count(branch, steps):
    # hvf_forward indexes down and up once per step between scales; a short
    # tuple would fail there with a bare IndexError
    w = init_hvf("hvf", 4, 3, 31)
    own = getattr(w, branch)
    n_down, n_up = steps
    cut = replace(own, down=(own.down * 2)[:n_down], up=(own.up * 2)[:n_up])
    with pytest.raises(ValueError, match=f"the {branch} branch needs 2 down and up"):
        replace(w, **{branch: cut})


def test_hvf_empty_image_branch(rng):
    w = init_hvf("hvf", 4, 3, 31)
    vl, _ = paired_sets(rng)
    vi = empty_voxel_set(IMAGE_GRID, 4)
    out_l, out_i = hvf_forward(vl, vi, w)
    assert out_i.n == 0
    assert out_l.n == vl.n
    assert np.all(np.isfinite(out_l.feats))


def test_hvf_deterministic(rng):
    w = init_hvf("hvf", 4, 3, 31)
    vl, vi = paired_sets(rng, coincident=2)
    a = hvf_forward(vl, vi, w)
    b = hvf_forward(vl, vi, w)
    assert np.array_equal(a[0].feats, b[0].feats)
    assert np.array_equal(a[1].feats, b[1].feats)


def test_merge_rejects_misaligned_grids(rng):
    vl, _ = paired_sets(rng)
    bad_grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(8, 8, 4))
    vi = random_voxel_set(rng, bad_grid, 10, 4)
    with pytest.raises(ValueError):
        cv_merge(vl, vi)
