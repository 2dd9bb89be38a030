"""Acceptance suite: one test per release criterion.

Each test pins its tolerance and runtime budget inline. The terminal summary
hook in conftest prints a PASS/FAIL line per criterion.
"""

import time

import numpy as np

from ddhf import oracles
from ddhf.config import PipelineConfig
from ddhf.core import FeatureMap, GridSpec, Linear, SparseVoxelSet, voxelize
from ddhf.curve import cross_merge_2d, hilbert_index, scan_orders_2d
from ddhf.decoder import GridFeatures, MixWeights, mmvfm_mix, voxel_pool
from ddhf.evalmetrics import eval_detections
from ddhf.hbf import cb_mamba, hbf_forward, init_cb_mamba, sparse_height_compress
from ddhf.hvf import cv_mamba, cv_merge, hvf_forward
from ddhf.jsonio import dumps
from ddhf.pipeline import build_weights, detections_to_dicts, run_pipeline
from ddhf.pqg import Heatmap, build_mask, nms_topk, pqg_forward
from ddhf.scene import SceneObject, SceneSpec, gen_points, render_images
from ddhf.ssm import ScanParams, init_ssm_block, selective_scan, selective_scan_chunked
from ddhf.viewtrans import encode_images, fps, lss_splat, safs_select

from conftest import mix_tensors, random_voxel_set, sparse_lattice


def test_criterion_1_scan_equivalence():
    # sequential, chunked (chunk in {1, 7, 64, n}), and dense-unrolled scans
    # agree within 1e-5 relative error on 200 random cases, n <= 256, C <= 32;
    # runtime < 10 s
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(1, 257))
        c = int(rng.integers(1, 33))
        ds = int(rng.integers(1, 9))
        x = rng.normal(size=(n, c)).astype(np.float32)
        a = -rng.uniform(0.05, 2.0, size=(c, ds))
        params = ScanParams(
            b=rng.normal(size=(n, ds)).astype(np.float32),
            c=rng.normal(size=(n, ds)).astype(np.float32),
            delta=rng.uniform(0.005, 0.5, size=(n, c)).astype(np.float32),
        )
        seq = selective_scan(x, a, params)
        scale = np.maximum(np.abs(seq), 1.0)
        for chunk in (1, 7, 64, n):
            chunked = selective_scan_chunked(x, a, params, chunk=chunk)
            assert np.max(np.abs(chunked - seq) / scale) < 1e-5
        dense = oracles.ssm_dense(x, a, params.b, params.c, params.delta)
        assert np.max(np.abs(dense - seq) / scale) < 1e-5
    assert time.monotonic() - start < 10.0


def test_criterion_2_hilbert_suite():
    # bijectivity and consecutive-cell L1 adjacency, exhaustive for
    # b in {1, 2, 3}; runtime < 1 s
    start = time.monotonic()
    for bits in (1, 2, 3):
        walk = oracles.hilbert_walk(bits)
        n = 1 << (3 * bits)
        assert len(walk) == n
        seen = set()
        prev = None
        for h, x, y, z, step in walk:
            assert hilbert_index(x, y, z, bits) == h
            seen.add((x, y, z))
            if prev is not None:
                l1 = abs(x - prev[0]) + abs(y - prev[1]) + abs(z - prev[2])
                assert l1 == 1 == step
            prev = (x, y, z)
        assert len(seen) == n
    assert time.monotonic() - start < 1.0


def test_criterion_3_oracle_batch():
    # each op matches its brute-force oracle on >= 100 random small instances;
    # exact for discrete ops, 1e-5 for float ops
    rng = np.random.default_rng(1003)

    for _ in range(100):  # nms_topk: exact
        kc = int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        heat = rng.uniform(0.0, 1.0, size=(kc, h, w)).astype(np.float32)
        k = int(rng.integers(1, 8))
        pos, cls, sc = nms_topk(Heatmap(heat), k)
        wpos, wcls, wsc = oracles.nms_topk(heat, k)
        assert np.array_equal(pos, wpos)
        assert np.array_equal(cls, wcls)
        assert np.array_equal(sc, wsc)

    fps_cases = []
    for _ in range(100):  # fps: exact indices
        n = int(rng.integers(2, 40))
        pts = rng.normal(size=(n, 3))
        fps_cases.append((pts, int(rng.integers(1, n + 1))))
    # plus tie-dense inputs from their own stream, leaving the draws above and
    # below as they were: sparse lattices and clouds of duplicates
    ties = np.random.default_rng(1033)
    for _ in range(30):
        pts = sparse_lattice(ties, ties.integers(1, [5, 5, 9], endpoint=True))
        if pts.shape[0] == 0:
            continue
        fps_cases.append((pts, int(ties.integers(1, pts.shape[0] + 1))))
        dups = pts[ties.integers(0, pts.shape[0], size=int(ties.integers(1, 40)))]
        fps_cases.append((dups, int(ties.integers(1, dups.shape[0] + 1))))
    for pts, k in fps_cases:
        assert fps(pts, k).tolist() == list(oracles.fps(pts, k))

    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(6, 6, 4))
    for _ in range(100):  # sparse_height_compress: exact
        v = random_voxel_set(rng, grid, int(rng.integers(1, 40)), 3)
        got = sparse_height_compress(v)
        want = oracles.height_compress(v.coords, v.feats, grid.extents)
        assert np.array_equal(got.data, want)

    for _ in range(100):  # voxel_pool: 1e-5
        v = random_voxel_set(rng, grid, int(rng.integers(1, 40)), 3)
        pts = rng.uniform([0, 0, 0], [6, 6, 4], size=(8, 3))
        got = voxel_pool(v, pts)
        want = oracles.voxel_pool(
            v.coords, v.feats, grid.origin, grid.voxel_size, grid.extents, pts
        )
        assert np.max(np.abs(got - want)) < 1e-5

    for _ in range(100):  # cross_merge_2d: 1e-5
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        c = int(rng.integers(1, 5))
        scans = scan_orders_2d(h, w)
        seqs = [rng.normal(size=(h * w, c)).astype(np.float32) for _ in range(4)]
        got = cross_merge_2d(seqs, scans, h, w)
        want = oracles.cross_merge(seqs, scans.T.tolist(), h, w)
        assert np.max(np.abs(got - want)) < 1e-5

    for _ in range(100):  # mmvfm_mix: 1e-5
        c, g = 4, 8
        w = MixWeights(
            offset_embed=Linear(
                rng.normal(size=(3, c)).astype(np.float32),
                rng.normal(size=c).astype(np.float32),
            ),
            channel_kernel=Linear(
                rng.normal(size=(c, c * c)).astype(np.float32) * 0.3,
                rng.normal(size=c * c).astype(np.float32) * 0.3,
            ),
            spatial_kernel=Linear(
                rng.normal(size=(c, g * (g // 4))).astype(np.float32) * 0.3,
                rng.normal(size=g * (g // 4)).astype(np.float32) * 0.3,
            ),
            down=Linear(
                rng.normal(size=(c * (g // 4), c)).astype(np.float32) * 0.3,
                rng.normal(size=c).astype(np.float32),
            ),
        )
        q = rng.normal(size=c).astype(np.float32)
        gridf = GridFeatures(
            points=rng.normal(size=(g, 3)),
            feats=rng.normal(size=(g, c)).astype(np.float32),
            offsets=rng.normal(size=(g, 3)),
        )
        got = mmvfm_mix(q, gridf, w)
        want = oracles.mmvfm_mix(q, gridf.feats, gridf.offsets, *mix_tensors(w))
        assert np.max(np.abs(got - want)) < 1e-5

    for i in range(100):  # cb_mamba: 1e-5
        w = init_cb_mamba("cb", 4, 2, 2000 + i)
        img = FeatureMap(rng.normal(size=(4, 4, 4)).astype(np.float32),
                         origin=(0.0, 0.0), cell_size=(1.0, 1.0))
        lid = FeatureMap(rng.normal(size=(4, 4, 4)).astype(np.float32),
                         origin=(0.0, 0.0), cell_size=(1.0, 1.0))
        got = cb_mamba(img, lid, w)
        want = oracles.cb_mamba(img.data, lid.data, w)
        assert np.max(np.abs(got.data - want)) < 1e-5


def test_criterion_4_gate_identity():
    # Y_img + Y_lid == 1 elementwise within 1e-6 across 50 random invocations
    rng = np.random.default_rng(1004)
    for i in range(50):
        c = int(rng.choice([4, 8]))
        w = init_cb_mamba("cb", c, 2, 3000 + i)
        h, wd = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        img = FeatureMap(rng.normal(size=(h, wd, c)).astype(np.float32),
                         origin=(0.0, 0.0), cell_size=(1.0, 1.0))
        lid = FeatureMap(rng.normal(size=(h, wd, c)).astype(np.float32),
                         origin=(0.0, 0.0), cell_size=(1.0, 1.0))
        _, y_img, y_lid = cb_mamba(img, lid, w, return_gates=True)
        assert np.max(np.abs(y_img + y_lid - 1.0)) <= 1e-6


def test_criterion_5_merge_split_roundtrip():
    # the merged order is a permutation of the stacked rows [LiDAR; image]
    # that visits their lifted cells (LiDAR z doubled) in Hilbert order,
    # LiDAR first on a shared cell, and coords and identity-configured
    # cross-modal features come back exactly on 100 random pairs, coincident
    # lifted coordinates included
    rng = np.random.default_rng(1005)
    lidar_grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0),
                          extents=(8, 8, 4))
    image_grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 0.5),
                          extents=(8, 8, 8))
    w_identity = init_ssm_block("cv", 4, 3, 1005).identity_configured()
    lift = np.array([1, 1, 2], dtype=np.int64)
    for _ in range(100):
        vl = random_voxel_set(rng, lidar_grid, int(rng.integers(1, 30)), 4)
        flat = rng.choice(8 * 8 * 8, size=25, replace=False)
        coords_i = np.stack(np.unravel_index(flat, (8, 8, 8)), axis=1).astype(np.int64)
        n_co = int(rng.integers(0, min(5, vl.n) + 1))
        if n_co:  # plant image voxels right on lifted lidar coords
            coords_i = np.concatenate([vl.coords[:n_co] * lift, coords_i])
            _, keep = np.unique(
                np.ravel_multi_index(coords_i.T, image_grid.extents),
                return_index=True,
            )
            coords_i = coords_i[np.sort(keep)]
        feats_i = rng.normal(size=(coords_i.shape[0], 4)).astype(np.float32)
        vi = SparseVoxelSet(coords_i, feats_i, image_grid)

        order = cv_merge(vl, vi)
        assert np.array_equal(np.sort(order), np.arange(vl.n + vi.n))
        # 3 bits cover the 8-cell image grid
        lifted = np.concatenate([vl.coords * lift, vi.coords])[order]
        keys = hilbert_index(lifted[:, 0], lifted[:, 1], lifted[:, 2], 3)
        assert np.all(keys[1:] >= keys[:-1])
        tie = keys[1:] == keys[:-1]
        assert np.all(order[:-1][tie] < vl.n) and np.all(order[1:][tie] >= vl.n)
        assert int(tie.sum()) >= n_co

        out_l, out_i = cv_mamba(vl, vi, w_identity)
        assert np.array_equal(out_l.coords, vl.coords)
        assert np.array_equal(out_i.coords, vi.coords)
        assert np.array_equal(out_l.feats, vl.feats)
        assert np.array_equal(out_i.feats, vi.feats)


def test_criterion_6_pqg_mask_law():
    # across 100 random heatmap pairs no surviving hard position falls within
    # the 3x3 dilation of any easy position (Chebyshev distance >= 2); exact
    rng = np.random.default_rng(1006)
    n_hard_total = 0
    for _ in range(100):
        h, w = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        kc = int(rng.integers(1, 4))
        h1 = (0.01 + 0.99 * rng.uniform(size=(kc, h, w))).astype(np.float32)
        h2 = (0.01 + 0.99 * rng.uniform(size=(kc, h, w))).astype(np.float32)
        k = int(rng.integers(1, 8))
        pos_e, _, _ = nms_topk(Heatmap(h1), k)
        mask = build_mask(pos_e, h, w)
        masked = Heatmap(h2 * mask[None, :, :].astype(np.float32))
        pos_h, _, sc_h = nms_topk(masked, k)
        pos_h = pos_h[sc_h > 0]
        n_hard_total += len(pos_h)
        for r, c in pos_h:
            for er, ec in pos_e:
                cheb = max(abs(int(r) - int(er)), abs(int(c) - int(ec)))
                assert cheb >= 2
    assert n_hard_total > 0


def test_criterion_7_identity_end_to_end():
    # identity-configured residual blocks plus the density heatmap head on a
    # seeded 3-object scene: >= 3 easy queries within 2 m of the planted
    # centers, and AP@4m == 1.0 for the planted class; runtime < 30 s
    start = time.monotonic()
    cfg = PipelineConfig(weights_mode="passthrough")
    grid_l, grid_i = cfg.lidar_grid(), cfg.image_grid()
    bins = cfg.depth_bins()

    def cell_center(ix, iy):
        return (
            float(grid_l.origin[0] + (ix + 0.5) * grid_l.voxel_size[0]),
            float(grid_l.origin[1] + (iy + 0.5) * grid_l.voxel_size[1]),
        )

    # centers sit exactly on BEV cell centers so pass-through boxes align
    planted = [cell_center(24, 24), cell_center(30, 16), cell_center(16, 30)]
    spec = SceneSpec(
        seed=11,
        objects=tuple(
            SceneObject(0, (x, y, 0.0), (1.8, 1.8, 1.7), 0.0) for x, y in planted
        ),
    )
    points = gen_points(spec)
    images = render_images(spec)
    cameras = list(spec.cameras)

    # rerun the trunk stage by stage to inspect the easy-query positions
    weights = build_weights(cfg)
    v_raw = voxelize(points, grid_l)
    emb = weights.lidar_embed(v_raw.feats).astype(np.float32)
    v_lidar = v_raw.with_feats(emb)
    img_feats = encode_images(images, weights.encoder)
    v_img = safs_select(
        grid_i, img_feats, cameras, bins, cfg.d_thresh, cfg.s_thresh, cfg.safs_cap
    )
    b_img = lss_splat(img_feats, cameras, bins, grid_l)
    b_lid = sparse_height_compress(v_lidar)
    vl, vi = hvf_forward(v_lidar, v_img, weights.hvf)
    b_out = hbf_forward(b_lid, b_img, vl, vi, weights.hbf)
    q_easy, _, _ = pqg_forward(b_out, weights.pqg, cfg.k_easy, cfg.k_hard)

    centers = b_out.cell_centers(*q_easy.pos.T)
    hits = 0
    for x, y in planted:
        dist = np.hypot(centers[:, 0] - x, centers[:, 1] - y)
        if dist.min() <= 2.0:
            hits += 1
    assert hits >= 3

    dets, _ = run_pipeline(points, images, cameras, cfg)
    gts = [{"center": [x, y, 0.0], "class": 0} for x, y in planted]
    result = eval_detections(detections_to_dicts(dets), gts, thresholds=(4.0,))
    assert result.ap_at(0, 4.0) == 1.0
    assert time.monotonic() - start < 30.0


def test_criterion_8_configuration_fidelity():
    cfg = PipelineConfig()
    assert cfg.d_thresh == 0.01
    assert cfg.s_thresh == 0.25
    assert cfg.safs_cap == 18000
    assert cfg.x_range == (-54.0, 54.0)
    assert cfg.y_range == (-54.0, 54.0)
    assert cfg.z_range == (-5.0, 3.0)
    assert cfg.strides == (1, 2, 4)
    assert cfg.n_bev == 3
    assert cfg.m_vox == 1


def test_criterion_9_determinism_and_robustness():
    # byte-identical repeated runs; completes with either modality emptied
    cfg = PipelineConfig(
        lidar_cells=(16, 16, 4),
        image_cells=(16, 16, 8),
        channels=8,
        d_state=4,
        depth_count=8,
        k_easy=10,
        k_hard=10,
        safs_cap=400,
    )
    spec = SceneSpec(
        seed=7,
        objects=(
            SceneObject(0, (5.0, 5.0, 0.0), (3.0, 2.0, 1.5), 0.3),
            SceneObject(1, (-10.0, 8.0, 0.0), (2.0, 2.0, 1.8), -0.5),
        ),
        n_clutter=300,
    )
    points = gen_points(spec)
    images = render_images(spec)
    cameras = list(spec.cameras)

    blobs = []
    for _ in range(2):
        dets, _ = run_pipeline(points, images, cameras, cfg)
        blobs.append(dumps(detections_to_dicts(dets)).encode())
    assert blobs[0] == blobs[1]

    dets_no_cam, _ = run_pipeline(points, [], [], cfg)
    assert isinstance(dets_no_cam, list)

    no_points = np.zeros((0, 4), dtype=np.float32)
    dets_no_pts, _ = run_pipeline(no_points, images, cameras, cfg)
    assert isinstance(dets_no_pts, list)
