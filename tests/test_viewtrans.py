import numpy as np
import pytest

from ddhf import oracles, viewtrans
from ddhf.cli import main
from ddhf.config import PipelineConfig
from ddhf.core import CAMERA_MAX, CameraModel, GridSpec, Linear, load_tensor, save_tensor
from ddhf.scene import DEFAULT_IMAGE_SIZE, default_cameras
from ddhf.viewtrans import (
    FEATURE_STRIDE,
    FPS_BLOCK,
    DepthBinSpec,
    ImageEncoderWeights,
    ImageFeatureSet,
    bilinear_sample,
    encode_image,
    encode_images,
    fps,
    init_image_encoder,
    lss_splat,
    safs_select,
)

from conftest import sparse_lattice, traced_peak


@pytest.mark.parametrize(
    "field, match",
    [("depth", "depth bins must sum to 1"), ("sem", "semantic scores must lie in")],
)
def test_feature_set_rejects_nan(field, match):
    # one NaN depth row or semantic score in an otherwise valid set: each
    # check states the range every value lies in, which NaN does not
    parts = {
        "feats": np.zeros((2, 2, 3), dtype=np.float32),
        "depth": np.full((2, 2, 4), 0.25, dtype=np.float32),
        "sem": np.full((2, 2), 0.5, dtype=np.float32),
    }
    parts[field][1, 0] = np.nan
    with pytest.raises(ValueError, match=match):
        ImageFeatureSet(**{name: (a,) for name, a in parts.items()})


def make_camera(extrinsics=None, focal=20.0, image_size=(16, 24)):
    h, w = image_size
    intr = np.array([[focal, 0.0, w / 2], [0.0, focal, h / 2], [0.0, 0.0, 1.0]])
    extr = np.eye(4) if extrinsics is None else extrinsics
    return CameraModel(intrinsics=intr, extrinsics=extr, image_size=image_size)


def make_feature_set(rng, shapes, depth_bins, channels=3):
    feats, depth, sem = [], [], []
    for h, w in shapes:
        feats.append(rng.normal(size=(h, w, channels)).astype(np.float32))
        logits = rng.normal(size=(h, w, depth_bins))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        depth.append((e / e.sum(axis=-1, keepdims=True)).astype(np.float32))
        sem.append(rng.uniform(0.0, 1.0, size=(h, w)).astype(np.float32))
    return ImageFeatureSet(feats=tuple(feats), depth=tuple(depth), sem=tuple(sem))


def test_depth_bins_basics():
    bins = DepthBinSpec(1.0, 5.0, 8)
    assert bins.width == 0.5
    assert bins.bin_of(np.array([1.0, 1.49, 4.99])).tolist() == [0, 0, 7]
    assert bins.bin_of(np.array([0.5, 5.0])).tolist() == [-1, 8]
    # past int64 or not finite: out of range, with no cast of an unrepresentable float
    assert bins.bin_of(np.array([1e300, np.inf, -1e300, -np.inf, np.nan])).tolist() == [
        8, 8, -1, -1, -1
    ]
    centers = bins.centers()
    assert centers[0] == 1.25 and centers[-1] == 4.75
    with pytest.raises(ValueError):
        DepthBinSpec(0.0, 5.0, 8)
    with pytest.raises(ValueError):
        DepthBinSpec(2.0, 1.0, 8)


def test_encoder_zero_weights_heads():
    c = 4
    w = ImageEncoderWeights(
        conv1_k=np.zeros((3, 3, 3, c), dtype=np.float32),
        conv1_b=np.zeros(c, dtype=np.float32),
        conv2_k=np.zeros((3, 3, c, c), dtype=np.float32),
        conv2_b=np.zeros(c, dtype=np.float32),
        depth_head=Linear(np.zeros((c, 6), dtype=np.float32), np.zeros(6, dtype=np.float32)),
        sem_head=Linear(np.zeros((c, 1), dtype=np.float32), np.zeros(1, dtype=np.float32)),
    )
    img = np.zeros((8, 12, 3), dtype=np.float32)
    feats, depth, sem = encode_image(img, w)
    assert feats.shape == (2, 3, c)
    assert np.allclose(depth, 1.0 / 6.0)  # softmax of zero logits is uniform
    assert np.allclose(sem, 0.5)  # sigmoid(0)


def test_encode_images_deterministic(rng):
    w = init_image_encoder("enc", 8, 6, 11)
    imgs = [rng.uniform(size=(16, 24, 3)).astype(np.float32) for _ in range(2)]
    a = encode_images(imgs, w)
    b = encode_images(imgs, w)
    assert len(a.feats) == 2
    for i in range(2):
        assert np.array_equal(a.feats[i], b.feats[i])
        assert np.allclose(a.depth[i].sum(axis=-1), 1.0, atol=1e-5)
        assert a.sem[i].min() >= 0 and a.sem[i].max() <= 1


def test_bilinear_matches_oracle(rng):
    grid = rng.normal(size=(5, 7, 3))
    u = rng.uniform(-1, 8, size=40)
    v = rng.uniform(-1, 6, size=40)
    got = bilinear_sample(grid, u, v)
    for i in range(40):
        assert np.allclose(got[i], oracles.bilinear(grid, u[i], v[i]), atol=1e-6)


def test_project_matches_oracle(rng):
    cam = make_camera()
    pts = rng.uniform([-3, -3, 1], [3, 3, 6], size=(30, 3))
    u, v, z = cam.project(pts)
    for i in range(30):
        ou, ov, oz = oracles.project(pts[i], cam.intrinsics, cam.extrinsics)
        assert abs(u[i] - ou) <= 1e-6
        assert abs(v[i] - ov) <= 1e-6
        assert abs(z[i] - oz) <= 1e-6


def test_fps_extremes(rng):
    pts = rng.normal(size=(20, 3))
    assert fps(pts, 1).tolist() == [0]
    assert sorted(fps(pts, 20).tolist()) == list(range(20))
    with pytest.raises(ValueError):
        fps(pts, 21)
    with pytest.raises(ValueError):
        fps(pts, 0)


def test_fps_rejects_non_finite(rng):
    for bad in (np.nan, np.inf, -np.inf):
        pts = rng.normal(size=(10, 3))
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="row 4"):
            fps(pts, 3)


def test_fps_matches_oracle(rng):
    cases = [(rng.normal(size=(50, 3)), 12)]
    lattice = sparse_lattice(rng, (6, 5, 9))
    n = lattice.shape[0]
    cases += [(lattice, k) for k in (n // 3, n // 2, n)]
    # duplicates; an all-identical cloud yields index 0 for every pick
    cases += [(rng.normal(size=(5, 3))[rng.integers(0, 5, size=30)], 30)]
    cases += [(np.full((7, 3), 1.5), 7)]
    # tie levels and neighbour searches across a block boundary
    for size in (FPS_BLOCK - 1, FPS_BLOCK, FPS_BLOCK + 1):
        cases += [(sparse_lattice(rng, (3, 3, 8))[:size], size)]
        cases += [(rng.normal(size=(size, 3)), size // 2)]
    # a shuffled lattice: ties within < m of each other lie in earlier and
    # later blocks than the tie they are near
    shuffled = sparse_lattice(rng, (5, 5, 4), keep=1.0)[rng.permutation(100)]
    cases += [(shuffled, 100)]
    assert any(below and above for below, above in tie_blocks_near(shuffled))
    for pts, k in cases:
        assert fps(pts, k).tolist() == list(oracles.fps(pts, k))
    assert fps(np.full((7, 3), 1.5), 7).tolist() == [0] * 7


def square_dists(points) -> np.ndarray:
    """Every pairwise squared distance, summed in fps's order."""
    d = points[:, None, :] - points[None, :, :]
    return (d[..., 0] ** 2 + d[..., 1] ** 2) + d[..., 2] ** 2


def fps_levels(points, picks) -> list[tuple[int, int, int]]:
    """(first pick, stop, ties) of each level of equal max distance m in an
    FPS pick order; ties counts the points at distance m when it starts."""
    sq = square_dists(points)
    dist = sq[picks[0]].copy()
    levels, k = [], 1
    while k < len(picks):
        m, start = dist.max(), k
        ties = int(np.count_nonzero(dist == m))
        while k < len(picks) and dist[picks[k]] == m:
            np.minimum(dist, sq[picks[k]], out=dist)
            k += 1
        levels.append((start, k, ties))
    return levels


def tie_blocks_near(points):
    """For each tie at the start of each FPS level: whether a tie within < m
    of it lies in an earlier FPS_BLOCK, and whether one lies in a later one."""
    picks = oracles.fps(points, points.shape[0])
    sq = square_dists(points)
    block = np.arange(points.shape[0]) // FPS_BLOCK
    out = []
    for start, _, _ in fps_levels(points, picks):
        dist = sq[picks[:start]].min(axis=0)
        m = dist.max()
        ties = np.flatnonzero(dist == m)
        for t in ties:
            near = block[ties[sq[t, ties] < m]]
            out.append((bool(np.any(near < block[t])), bool(np.any(near > block[t]))))
    return out


def test_fps_matches_oracle_on_safs_lattice():
    # SAFS's anisotropic dyadic lattice, with n_target once at the end of a
    # level and once inside the next, both after levels with a single tie
    pts = sparse_lattice(np.random.default_rng(5), (6, 6, 10))
    want = oracles.fps(pts, pts.shape[0])  # greedy: every shorter run is a prefix
    levels = fps_levels(pts, want)
    start, stop, _ = levels[-2]
    assert stop - start > 2 and any(ties == 1 for _, _, ties in levels[:-2])
    for k in (start, (start + stop) // 2):
        assert fps(pts, k).tolist() == want[:k].tolist()


def test_fps_searches_a_level_from_its_first_ties_when_the_walk_takes_them(monkeypatch):
    # with fewer picks left than ties, a level is searched from only as many
    # ties as picks left when the walk takes exactly those, and from all its
    # ties otherwise; SAFS's lattice ends on a level where it takes them
    pts = sparse_lattice(np.random.default_rng(5), (6, 6, 10))
    want = oracles.fps(pts, pts.shape[0])
    sq = square_dists(pts)
    queries = []
    near = viewtrans._FpsBlocks.near

    def spy(self, q, m, bound):
        queries.append(q.size)
        return near(self, q, m, bound)

    monkeypatch.setattr(viewtrans._FpsBlocks, "near", spy)
    short = []
    for start, stop, ties in fps_levels(pts, want):
        dist = sq[want[:start]].min(axis=0)
        first = np.flatnonzero(dist == dist.max())
        # n_target early, midway and late in the level, with fewer picks left than ties
        late = min(stop, start + ties - 1)
        for k in sorted(k for k in {start + 1, (start + stop) // 2, late} if 0 < k - start < ties):
            assert fps(pts, k).tolist() == want[:k].tolist()
            takes_first = want[start:k].tolist() == first[: k - start].tolist()
            assert queries[-1] == (k - start if takes_first else ties)
            short.append(takes_first)
    assert all(short[-3:]) and not all(short)


def test_fps_peak_memory():
    # the default image grid's 36,864 cell centers trimmed to 18,000: 7.93 MB
    # traced when this gate was set, bound that plus 0.5 MB. Each neighbour
    # search drops pairs that would not lower a distance batch by batch; kept
    # to the end of the search, they would take the peak to 9.8 MB
    grid = PipelineConfig().image_grid()
    cells = np.arange(int(np.prod(grid.extents)))
    centers = grid.centers(np.stack(np.unravel_index(cells, grid.extents), axis=-1))
    assert centers.shape[0] == 36_864
    assert traced_peak(fps, centers, 18_000) < 8.43e6


def test_fps_spreads_selection():
    # two tight clusters: second pick must come from the far cluster
    a = np.zeros((5, 3))
    b = np.full((5, 3), 10.0)
    pts = np.concatenate([a, b])
    picks = fps(pts, 2)
    assert picks[0] == 0
    assert picks[1] >= 5


def brute_force_safs(grid, images, cameras, bins, d_thresh, s_thresh, cap):
    rows = []
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            for iz in range(grid.nz):
                center = grid.centers(np.array([[ix, iy, iz]]))[0]
                best = None
                for idx, cam in enumerate(cameras):
                    u, v, z = oracles.project(center, cam.intrinsics, cam.extrinsics)
                    h_img, w_img = cam.image_size
                    if z <= 1e-9 or not (0 <= u <= w_img - 1) or not (0 <= v <= h_img - 1):
                        continue
                    k = int(np.floor((z - bins.d_min) / bins.width))
                    if not (0 <= k < bins.count):
                        continue
                    mu, mv = u / FEATURE_STRIDE, v / FEATURE_STRIDE
                    sem = float(oracles.bilinear(images.sem[idx][:, :, None], mu, mv)[0])
                    vd = float(oracles.bilinear(images.depth[idx], mu, mv)[k])
                    feat = oracles.bilinear(images.feats[idx], mu, mv)
                    if best is None or sem > best[0]:
                        best = (sem, vd, feat)
                if best is not None and best[0] > s_thresh and best[1] > d_thresh:
                    rows.append(((ix, iy, iz), best[2] * best[1]))
    if len(rows) > cap:
        centers = grid.centers(np.array([r[0] for r in rows]))
        pick = sorted(oracles.fps(centers, cap))
        rows = [rows[i] for i in pick]
    return rows


def small_safs_args(rng, cap: int) -> tuple:
    """An 8x8x4 grid seen by two cameras, at thresholds d 0.05 and s 0.3."""
    grid = GridSpec(origin=(-2.0, -2.0, 1.0), voxel_size=(0.5, 0.5, 0.5), extents=(8, 8, 4))
    shift = np.eye(4)
    shift[:3, 3] = [0.3, -0.2, 0.1]
    cameras = [make_camera(), make_camera(extrinsics=shift)]
    images = make_feature_set(rng, [(4, 6), (4, 6)], depth_bins=8)
    return (grid, images, cameras, DepthBinSpec(0.5, 4.5, 8), 0.05, 0.3, cap)


def test_safs_matches_brute_force(rng, monkeypatch):
    args = small_safs_args(rng, 40)
    want = brute_force_safs(*args)
    whole = safs_select(*args)  # 256 cells fit in one SAFS_CHUNK, the 40 kept in one sample
    # chunk boundaries must not change a bit, whatever cells they cut apart
    for chunk, sample_chunk in ((7, 3), (64, 16), (256, 40)):
        monkeypatch.setattr(viewtrans, "SAFS_CHUNK", chunk)
        monkeypatch.setattr(viewtrans, "SAFS_SAMPLE_CHUNK", sample_chunk)
        got = safs_select(*args)
        assert got.n == len(want)
        assert got.n > 0
        for i, (coord, feat) in enumerate(want):
            assert tuple(got.coords[i]) == coord
            assert np.allclose(got.feats[i], feat, atol=1e-5)
        assert np.array_equal(got.coords, whole.coords)
        assert got.feats.tobytes() == whole.feats.tobytes()


def test_safs_samples_features_only_for_the_cells_it_returns(rng, monkeypatch):
    # FPS trims on cell centers alone, so no cell it drops is sampled
    args = small_safs_args(rng, 40)
    survivors = safs_select(*args[:-1], 10**6).n
    sampled = []

    def spy(grid, u, v):
        sampled.append(u.size)
        return bilinear_sample(grid, u, v)

    monkeypatch.setattr(viewtrans, "bilinear_sample", spy)
    out = safs_select(*args)
    assert survivors > out.n == 40
    assert sum(sampled) == out.n


def test_safs_peak_memory(rng):
    # default image grid (36,864 cells), four cameras, 27,830 survivors that
    # FPS trims to the cap: a whole-grid float64 feature array alone would be
    # 9.4 MB, and the per-camera samples of every visible cell several times
    # that (34 MB peak before the cells were chunked). With five scalars per
    # survivor through FPS and only the 18,000 kept cells sampled, the peak
    # is FPS's 7.3 MB; 4096-row sampling batches read 12.1 MB, 1024-row
    # ones 5.6 MB
    cfg = PipelineConfig()
    cameras = list(default_cameras())
    h, w = (s // FEATURE_STRIDE for s in DEFAULT_IMAGE_SIZE)
    images = make_feature_set(rng, [(h, w)] * len(cameras), cfg.depth_count, cfg.channels)
    args = (cfg.image_grid(), images, cameras, cfg.depth_bins(), cfg.d_thresh, cfg.s_thresh)
    assert safs_select(*args, cfg.safs_cap).n == cfg.safs_cap
    assert traced_peak(safs_select, *args, cfg.safs_cap) < 24e6


def test_safs_empty_when_thresholds_max(rng):
    grid = GridSpec(origin=(-2.0, -2.0, 1.0), voxel_size=(0.5, 0.5, 0.5), extents=(8, 8, 4))
    images = make_feature_set(rng, [(4, 6)], depth_bins=8)
    out = safs_select(grid, images, [make_camera()], DepthBinSpec(0.5, 4.5, 8), 1.0, 1.0, 10)
    assert out.n == 0


def test_lss_splat_delta_case():
    c = 3
    feats = np.zeros((2, 3, c), dtype=np.float32)
    feats[1, 1] = [1.0, 2.0, 3.0]
    depth = np.full((2, 3, 4), 0.25, dtype=np.float32)
    depth[1, 1] = [0.0, 0.0, 1.0, 0.0]
    sem = np.full((2, 3), 0.5, dtype=np.float32)
    images = ImageFeatureSet(feats=(feats,), depth=(depth,), sem=(sem,))
    cam = make_camera(focal=10.0, image_size=(8, 12))
    bins = DepthBinSpec(1.0, 5.0, 4)  # centers 1.5, 2.5, 3.5, 4.5
    bev = GridSpec(origin=(-2.0, -2.0, 0.0), voxel_size=(0.5, 0.5, 1.0), extents=(8, 8, 1))
    out = lss_splat(images, [cam], bins, bev)
    # pixel (1,1) maps to ray (-0.2, 0, 1); bin 2 center 3.5 lands at cell (2, 4)
    want = np.zeros((8, 8, c), dtype=np.float32)
    want[4, 2] = [1.0, 2.0, 3.0]
    assert np.allclose(out.data, want, atol=1e-6)


@pytest.mark.parametrize(
    "focal, shift", [(1e-30, 0.0), (12.0, CAMERA_MAX)], ids=["focal", "shift"]
)
def test_lss_splat_far_cells_stay_out_of_range(rng, focal, shift):
    # a near-zero focal length spreads every ray (no pixel sits on the
    # principal point's column) past int64 cells, and a huge translation
    # moves every point there; neither may reach the int64 cast
    images = make_feature_set(rng, [(2, 3)], depth_bins=8, channels=4)
    extr = np.eye(4)
    extr[:3, 3] = shift
    cam = make_camera(extrinsics=extr, focal=focal, image_size=(8, 12))
    bev = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(0.5, 0.5, 1.0), extents=(16, 16, 1))
    out = lss_splat(images, [cam], DepthBinSpec(1.0, 9.0, 8), bev)
    assert not out.data.any()


def test_lss_splat_matches_oracle(rng):
    images = make_feature_set(rng, [(2, 3)], depth_bins=8, channels=4)
    cam = make_camera(focal=12.0, image_size=(8, 12))
    bins = DepthBinSpec(1.0, 9.0, 8)
    bev = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(0.5, 0.5, 1.0), extents=(16, 16, 1))
    out = lss_splat(images, [cam], bins, bev)
    want = oracles.lss_splat(
        images.feats[0],
        images.depth[0],
        cam.intrinsics,
        cam.extrinsics,
        FEATURE_STRIDE,
        bins.centers(),
        (bev.origin[0], bev.origin[1]),
        (bev.voxel_size[0], bev.voxel_size[1]),
        bev.nx,
        bev.ny,
    )
    assert out.data.shape == want.shape
    assert np.max(np.abs(out.data - want)) < 1e-5


def test_cli_oracle_splat_default_stride_matches_lss_splat(tmp_path, capsys, rng):
    # without --stride the oracle reads the encoder's feature stride
    images = make_feature_set(rng, [(2, 3)], depth_bins=8, channels=4)
    cam = make_camera(focal=12.0, image_size=(8, 12))
    bins = DepthBinSpec(1.0, 9.0, 8)
    bev = GridSpec(origin=(-4.0, -4.0, 0.0), voxel_size=(0.5, 0.5, 1.0), extents=(16, 16, 1))
    inputs = {"feats": images.feats[0], "depth": images.depth[0], "bins": bins.centers(),
              "intrinsics": cam.intrinsics, "extrinsics": cam.extrinsics}
    for name, arr in inputs.items():
        save_tensor(tmp_path / f"{name}.bin", arr)
    out = tmp_path / "splat.bin"
    assert main([
        "oracle", "splat", "--inputs", str(tmp_path), "--origin=-4,-4", "--cell", "0.5,0.5",
        "--nx", "16", "--ny", "16", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    want = lss_splat(images, [cam], bins, bev).data
    assert np.max(np.abs(load_tensor(out) - want)) < 1e-5


def test_feature_set_validation(rng):
    bad_depth = np.full((2, 2, 4), 0.3, dtype=np.float32)
    with pytest.raises(ValueError):
        ImageFeatureSet(
            feats=(np.zeros((2, 2, 3), dtype=np.float32),),
            depth=(bad_depth,),
            sem=(np.zeros((2, 2), dtype=np.float32),),
        )
    with pytest.raises(ValueError):
        ImageFeatureSet(
            feats=(np.zeros((2, 2, 3), dtype=np.float32),),
            depth=(np.full((2, 2, 4), 0.25, dtype=np.float32),),
            sem=(np.full((2, 2), 1.5, dtype=np.float32),),
        )
