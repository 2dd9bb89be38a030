import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddhf import oracles
from ddhf.ssm import init_ssm_block
from ddhf.core import (
    CAMERA_MAX,
    MIN_DEPTH,
    CameraModel,
    FeatureMap,
    GridSpec,
    Linear,
    SparseVoxelSet,
    bev_map_for_grid,
    empty_voxel_set,
    fnv1a64,
    init_linear,
    init_param,
    load_tensor,
    prng_fill,
    prng_next,
    save_tensor,
    voxelize,
    zeroed,
)

# Reference outputs of the splitmix64 generator from state 0: raw draws
# 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F mapped to [0, 1).
GOLDEN_FLOATS = (
    0.8833108082136426,
    0.43152799704850997,
    0.026433771592597743,
)


def test_prng_golden_sequence():
    state = 0
    for want in GOLDEN_FLOATS:
        state, value = prng_next(state)
        assert value == want


def test_prng_fill_matches_next():
    state = 1234567
    _, block = prng_fill(state, 16)
    s = state
    for i in range(16):
        s, v = prng_next(s)
        assert block[i] == v


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_prng_values_in_unit_interval(seed):
    _, v = prng_next(seed)
    assert 0.0 <= v < 1.0


def test_fnv1a64_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_init_param_bound_and_determinism():
    w1 = init_param("block.weight", (4, 16), 7)
    w2 = init_param("block.weight", (4, 16), 7)
    assert np.array_equal(w1, w2)
    assert w1.dtype == np.float32
    assert np.abs(w1).max() <= 0.25  # 1/sqrt(16)
    w3 = init_param("block.weight", (4, 16), 8)
    assert not np.array_equal(w1, w3)
    w4 = init_param("other.weight", (4, 16), 7)
    assert not np.array_equal(w1, w4)


def test_init_param_bias_is_zero():
    b = init_param("block.bias", (32,), 7)
    assert np.array_equal(b, np.zeros(32, dtype=np.float32))


def test_grid_spec_coords_roundtrip(rng):
    grid = GridSpec(origin=(-8.0, -8.0, -2.0), voxel_size=(1.0, 1.0, 0.5), extents=(16, 16, 8))
    points = rng.uniform([-8, -8, -2], [8, 8, 2], size=(200, 3))
    idx, mask = grid.point_coords(points)
    assert mask.all()
    centers = grid.centers(idx)
    assert np.all(np.abs(points - centers) <= np.array([0.5, 0.5, 0.25]) + 1e-9)


def test_grid_spec_out_of_bounds_masked():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(4, 4, 4))
    points = np.array([[1.5, 1.5, 1.5], [-0.1, 2.0, 2.0], [2.0, 4.0, 2.0]])
    _, mask = grid.point_coords(points)
    assert mask.tolist() == [True, False, False]


def test_voxelize_against_reference(rng):
    grid = GridSpec(origin=(-4.0, -4.0, -1.0), voxel_size=(0.5, 0.5, 0.25), extents=(16, 16, 8))
    pts = np.column_stack(
        [
            rng.uniform(-4, 4, size=300),
            rng.uniform(-4, 4, size=300),
            rng.uniform(-1, 1, size=300),
            rng.uniform(0, 1, size=300),
        ]
    )
    vox = voxelize(pts, grid)
    ref = oracles.voxelize_ref(pts, grid.origin, grid.voxel_size, grid.extents)
    assert vox.n == len(ref)
    for coord, feat in zip(vox.coords, vox.feats):
        want = ref[tuple(coord)]
        assert np.allclose(feat, want, atol=1e-5)


def test_voxelize_single_point_feature_layout():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(2.0, 2.0, 2.0), extents=(4, 4, 4))
    pts = np.array([[1.5, 1.0, 0.5, 0.75]])
    vox = voxelize(pts, grid)
    assert vox.n == 1
    assert vox.coords.tolist() == [[0, 0, 0]]
    # offsets from the cell center (1,1,1), then intensity, then count
    assert np.allclose(vox.feats[0], [0.5, 0.0, -0.5, 0.75, 1.0])


@pytest.mark.parametrize(
    "points",
    [np.zeros((0, 4)), np.array([[-0.5, 1.0, 1.0, 9.0], [1.0, 4.0, 1.0, 9.0], [2.0, 2.0, 7.5, 9.0]])],
    ids=["no_points", "all_outside"],
)
def test_voxelize_empty_input(points):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(4, 4, 4))
    vox = voxelize(points, grid)
    assert vox.n == 0
    assert vox.coords.shape == (0, 3)
    assert vox.feats.shape == (0, 5) and vox.feats.dtype == np.float32


def test_sparse_voxel_set_validation():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(4, 4, 4))
    coords = np.array([[0, 0, 0], [3, 3, 3]], dtype=np.int64)
    feats = np.zeros((2, 5), dtype=np.float32)
    SparseVoxelSet(coords, feats, grid)
    with pytest.raises(ValueError):
        SparseVoxelSet(np.array([[0, 0, 4]], dtype=np.int64), feats[:1], grid)
    with pytest.raises(ValueError):
        SparseVoxelSet(np.array([[1, 1, 1], [1, 1, 1]], dtype=np.int64), feats, grid)
    with pytest.raises(ValueError, match="feats must be"):  # (n, C), but one row short
        SparseVoxelSet(coords, feats[:1], grid)


def test_rows_of_matches_dict_lookup(rng):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(5, 6, 4))
    flat = rng.choice(5 * 6 * 4, size=40, replace=False)
    coords = np.stack(np.unravel_index(flat, grid.extents), axis=1)
    v = SparseVoxelSet(coords, np.zeros((40, 2), dtype=np.float32), grid)
    table = {tuple(c): i for i, c in enumerate(v.coords.tolist())}
    # every in-grid cell (hits and misses) plus a ring of cells outside it
    query = np.stack(
        np.meshgrid(*(np.arange(-2, e + 2) for e in grid.extents), indexing="ij"), axis=-1
    )
    rows = v.rows_of(query)
    assert rows.shape == query.shape[:-1]
    want = [table.get(tuple(c), -1) for c in query.reshape(-1, 3).tolist()]
    assert rows.ravel().tolist() == want
    assert (rows >= 0).sum() == 40
    assert np.all(empty_voxel_set(grid, 2).rows_of(query) == -1)


def test_with_feats_shares_the_checked_occupancy(rng):
    # with_feats hands over the source set's sorted keys instead of sorting
    # and checking them again; the features are still checked
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(5, 6, 4))
    flat = rng.choice(5 * 6 * 4, size=30, replace=False)
    coords = np.stack(np.unravel_index(flat, grid.extents), axis=1)
    v = SparseVoxelSet(coords, np.zeros((30, 2)), grid)
    new = v.with_feats(rng.normal(size=(30, 3)))
    assert new.coords is v.coords and new.grid is v.grid
    assert new._keys is v._keys and new._order is v._order
    assert new.feats.dtype == np.float32 and new.feats.shape == (30, 3)
    assert not new.feats.flags.writeable
    assert np.array_equal(new.rows_of(v.coords), np.arange(30))
    for bad in (np.zeros((29, 3)), np.zeros((31, 3)), np.zeros(30)):
        with pytest.raises(ValueError, match="feats must be"):
            v.with_feats(bad)


@dataclasses.dataclass(frozen=True)
class _Weights:
    w: np.ndarray
    b: np.ndarray
    blocks: tuple


def test_zeroed_zeroes_only_the_named_fields(rng):
    f32 = lambda *shape: rng.normal(size=shape).astype(np.float32)
    src = _Weights(f32(3, 2), f32(2), (f32(2, 2), (f32(4), f32(1))))
    out = zeroed(src, "w", "blocks")
    assert out.b is src.b
    assert out.w.dtype == np.float32 and out.w.shape == (3, 2) and not np.any(out.w)
    # a tuple field is zeroed element by element, not stacked into one array
    assert isinstance(out.blocks, tuple) and isinstance(out.blocks[1], tuple)
    assert [a.shape for a in (out.blocks[0], *out.blocks[1])] == [(2, 2), (4,), (1,)]
    assert not any(np.any(a) for a in (out.blocks[0], *out.blocks[1]))
    assert np.all(src.w != 0) and np.all(src.blocks[0] != 0)  # source untouched
    # a record field such as a Linear is zeroed tensor by tensor
    block = init_ssm_block("blk", 4, 2, 3)
    block = dataclasses.replace(block, out_proj=Linear(f32(4, 4), f32(4)))
    out = zeroed(block, "out_proj")
    assert isinstance(out.out_proj, Linear)
    assert not np.any(out.out_proj.w) and not np.any(out.out_proj.b)
    assert out.out_proj.w.shape == (4, 4) and out.out_proj.b.shape == (4,)
    assert out.in_proj is block.in_proj
    assert np.all(block.out_proj.w != 0)


def test_linear_is_x_at_w_plus_b(rng):
    lin = init_linear("proj", 3, 5, 11)
    assert np.array_equal(lin.w, init_param("proj.weight", (3, 5), 11))
    assert np.array_equal(lin.b, init_param("proj.bias", (5,), 11))
    lin = Linear(lin.w, rng.normal(size=5).astype(np.float32))
    x = rng.normal(size=(4, 3)).astype(np.float32)
    assert np.array_equal(lin(x), x @ lin.w + lin.b)


@pytest.mark.parametrize(
    "w_shape, b_shape", [((3, 5), (6,)), ((5,), (5,))], ids=["bias-one-too-long", "weight-1d"]
)
def test_linear_rejects_mismatched_shapes(w_shape, b_shape):
    w, b = np.zeros(w_shape, dtype=np.float32), np.zeros(b_shape, dtype=np.float32)
    want = f"^Linear: .*{re.escape(str(w_shape))} and {re.escape(str(b_shape))}$"
    with pytest.raises(ValueError, match=want):
        Linear(w, b)


def test_empty_voxel_set_shapes():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(4, 4, 4))
    v = empty_voxel_set(grid, 7)
    assert v.n == 0
    assert v.channels == 7


def test_feature_map_rejects_non_finite():
    data = np.zeros((4, 4, 2), dtype=np.float32)
    FeatureMap(data, origin=(0.0, 0.0), cell_size=(1.0, 1.0))
    bad = data.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError):
        FeatureMap(bad, origin=(0.0, 0.0), cell_size=(1.0, 1.0))


def test_bev_map_for_grid_wraps_data(rng):
    grid = GridSpec(origin=(-4.0, -2.0, -1.0), voxel_size=(0.5, 0.25, 2.0), extents=(6, 3, 2))
    data = rng.normal(size=(3, 6, 5))  # (ny, nx, C), float64
    m = bev_map_for_grid(grid, data)
    assert m.origin == (-4.0, -2.0) and m.cell_size == (0.5, 0.25)
    assert np.array_equal(m.data, data.astype(np.float32))
    with pytest.raises(ValueError, match="footprint"):
        bev_map_for_grid(grid, np.zeros((6, 3, 5), dtype=np.float32))  # x/y swapped


def _turned_camera() -> CameraModel:
    angle = 0.7
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    extr = np.eye(4)
    extr[:3, :3] = rot
    extr[:3, 3] = [1.0, -2.0, 0.5]
    intr = np.array([[48.0, 0.0, 48.0], [0.0, 48.0, 32.0], [0.0, 0.0, 1.0]])
    return CameraModel(intrinsics=intr, extrinsics=extr, image_size=(64, 96))


def test_camera_world_cam_roundtrip(rng):
    cam = _turned_camera()
    pts = rng.normal(size=(50, 3))
    back = cam.cam_to_world(cam.world_to_cam(pts))
    assert np.allclose(back, pts, atol=1e-9)


def test_camera_pixel_rays_project_back_to_their_pixels(rng):
    cam = _turned_camera()
    u, v = rng.uniform(0, 95, size=50), rng.uniform(0, 63, size=50)
    rays = cam.pixel_rays(u, v)
    assert np.all(rays[:, 2] == 1.0)
    depth = rng.uniform(1.0, 50.0, size=50)
    pu, pv, z = cam.project(cam.cam_to_world(rays * depth[:, None]))
    assert np.allclose(pu, u, atol=1e-9) and np.allclose(pv, v, atol=1e-9)
    assert np.allclose(z, depth, atol=1e-9)


def test_camera_project_at_or_behind_min_depth_is_finite():
    # a point at depth <= MIN_DEPTH divides by 1, not by its depth
    cam = CameraModel(**_camera_args())
    u, v, z = cam.project(np.array([[1.0, 2.0, 0.0], [1.0, 2.0, MIN_DEPTH], [1.0, 2.0, -3.0]]))
    assert z.tolist() == [0.0, MIN_DEPTH, -3.0]
    assert u.tolist() == [48.0 * 1.0 + 48.0] * 3 and v.tolist() == [48.0 * 2.0 + 32.0] * 3


def _camera_args(**change):
    intr = np.array([[48.0, 0.0, 48.0], [0.0, 48.0, 32.0], [0.0, 0.0, 1.0]])
    args = {"intrinsics": intr, "extrinsics": np.eye(4), "image_size": (64, 96)}
    args.update(change)
    return args


def _with(array, index, value):
    out = np.array(array, dtype=np.float64)
    out[index] = value
    return out


def _rotation_times(scale):
    extr = np.eye(4)
    extr[:3, :3] *= scale
    return extr


@pytest.mark.parametrize(
    "change, message",
    [
        ({"intrinsics": _with(_camera_args()["intrinsics"], (0, 2), np.nan)}, "finite"),
        ({"intrinsics": _with(_camera_args()["intrinsics"], (1, 1), np.inf)}, "finite"),
        ({"extrinsics": _with(np.eye(4), (0, 3), np.nan)}, "finite"),
        ({"intrinsics": _with(_camera_args()["intrinsics"], (0, 0), 0.0)}, "focal"),
        ({"intrinsics": _with(_camera_args()["intrinsics"], (1, 1), -48.0)}, "focal"),
        ({"image_size": (64,)}, "image_size"),
        ({"image_size": (0, 96)}, "image_size"),
        ({"image_size": (64.0, 96)}, "image_size"),
        ({"image_size": (True, 96)}, "image_size"),
        ({"image_size": "ab"}, "image_size"),
        ({"extrinsics": _rotation_times(1e30)}, "orthonormal"),
        ({"extrinsics": _rotation_times(1e300)}, "orthonormal"),  # R R^T overflows
        ({"extrinsics": _rotation_times(0.0)}, "orthonormal"),
        ({"extrinsics": _rotation_times(1.0 + 1e-6)}, "orthonormal"),
        ({"extrinsics": _with(np.eye(4), (0, 1), 0.01)}, "orthonormal"),
        ({"intrinsics": _with(_camera_args()["intrinsics"], (0, 0), 1e308)}, "focal length"),
        ({"intrinsics": _with(_camera_args()["intrinsics"], (1, 1), 1.01e100)}, "focal length"),
        ({"intrinsics": _with(_camera_args()["intrinsics"], (0, 2), -1e308)}, "principal point"),
        ({"extrinsics": _with(np.eye(4), (2, 3), 1e308)}, "translation"),
        ({"extrinsics": _with(np.eye(4), (0, 3), -1.01e100)}, "translation"),
    ],
)
def test_camera_rejects_bad_geometry(change, message):
    with pytest.raises(ValueError, match=message):
        CameraModel(**_camera_args(**change))


def test_camera_accepts_geometry_at_the_bound():
    intr = _with(_with(_camera_args()["intrinsics"], (0, 0), CAMERA_MAX), (1, 2), -CAMERA_MAX)
    CameraModel(**_camera_args(intrinsics=intr, extrinsics=_with(np.eye(4), (1, 3), CAMERA_MAX)))


def test_camera_accepts_rotation_at_json_precision():
    # cameras.json stores 9 significant digits, about 1e-9 off orthonormal
    angle = 0.7
    rot = [[math.cos(angle), -math.sin(angle), 0.0], [math.sin(angle), math.cos(angle), 0.0]]
    extr = np.eye(4)
    extr[:2, :3] = [[float(format(v, ".9g")) for v in row] for row in rot]
    CameraModel(**_camera_args(extrinsics=extr))


def test_camera_accepts_integer_like_size():
    cam = CameraModel(**_camera_args(image_size=[np.int64(64), 96]))
    assert cam.image_size == (64, 96) and type(cam.image_size[0]) is int


def test_tensor_roundtrip(tmp_path, rng):
    arr = rng.normal(size=(3, 5, 2)).astype(np.float32)
    path = tmp_path / "t.bin"
    save_tensor(path, arr)
    out = load_tensor(path)
    assert out.dtype == np.float32
    assert np.array_equal(out, arr)


def test_tensor_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValueError):
        load_tensor(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw[:6], "truncated header"),  # magic + half a version word
        (lambda raw: raw[:20], "truncated header"),  # two dims declared, half of one present
        (lambda raw: raw[:-4], "payload is 12 bytes"),  # dims want more floats than stored
        (lambda raw: raw + b"\0" * 8, "payload is 24 bytes"),  # trailing bytes
    ],
    ids=["short_fixed_header", "short_dims", "short_payload", "trailing_bytes"],
)
def test_tensor_rejects_bad_length(tmp_path, rng, edit, message):
    path = tmp_path / "t.bin"
    save_tensor(path, rng.normal(size=(2, 2)).astype(np.float32))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=message) as exc:
        load_tensor(path)
    assert str(path) in str(exc.value)


def test_tensor_rejects_bad_version(tmp_path, rng):
    arr = rng.normal(size=(2, 2)).astype(np.float32)
    path = tmp_path / "t.bin"
    save_tensor(path, arr)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_tensor(path)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=64))
def test_prng_fill_deterministic(seed, count):
    final1, a = prng_fill(seed, count)
    final2, b = prng_fill(seed, count)
    assert final1 == final2
    assert np.array_equal(a, b)
