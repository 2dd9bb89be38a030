import json

import numpy as np
import pytest

from ddhf import jsonio, oracles
from ddhf.evalmetrics import THRESHOLDS, eval_detections
from ddhf.scene import (
    BACKGROUND,
    SceneObject,
    SceneSpec,
    gen_points,
    gen_scene,
    load_scene,
    load_spec,
    render_images,
    sample_object_points,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)

TWO_OBJECTS = (
    SceneObject(0, (5.0, 5.0, 0.0), (3.0, 2.0, 1.5), 0.3),
    SceneObject(1, (-10.0, 8.0, 0.0), (2.0, 2.0, 1.8), -0.5),
)


def small_spec(seed=7, **kw):
    kw.setdefault("objects", TWO_OBJECTS)
    kw.setdefault("n_clutter", 200)
    return SceneSpec(seed=seed, **kw)


def test_gen_points_deterministic():
    a = gen_points(small_spec())
    b = gen_points(small_spec())
    assert a.dtype == np.float32
    assert np.array_equal(a, b)
    c = gen_points(small_spec(seed=8))
    assert not np.array_equal(a, c)


def test_gen_points_zero_objects():
    spec = SceneSpec(seed=3, objects=(), n_clutter=150)
    pts = gen_points(spec)
    assert pts.shape == (150, 4)
    assert pts[:, 0].min() >= -54 and pts[:, 0].max() <= 54


def test_object_points_lie_on_box_surface():
    obj = SceneObject(0, (4.0, -3.0, 0.5), (3.0, 2.0, 1.5), 0.7)
    pts = sample_object_points(obj, seed=5, index=0)
    dev = oracles.box_surface_deviation(pts[:, :3], obj.center, obj.size, obj.yaw)
    assert dev <= 1e-6
    assert pts[:, 3].min() >= 0 and pts[:, 3].max() < 1


def test_noise_jitter_bounded():
    spec = small_spec(noise_sigma=0.0)
    clean = gen_points(spec)
    noisy = gen_points(small_spec(noise_sigma=0.02))
    assert clean.shape == noisy.shape
    n_surface = clean.shape[0] - 200
    delta = np.abs(noisy[:n_surface, :3] - clean[:n_surface, :3])
    assert delta.max() < 0.25  # a few sigma
    assert np.array_equal(noisy[:, 3], clean[:, 3])  # intensity untouched


def test_render_images_shapes_and_range():
    spec = small_spec()
    images = render_images(spec)
    assert len(images) == 4
    for img in images:
        assert img.shape == (64, 96, 3)
        assert img.min() >= 0 and img.max() <= 1


@pytest.mark.parametrize(
    "center, row", [((3.0, 0.0, 0.0), -1), ((1.5, 0.0, 3.0), 0)], ids=["bottom", "top"]
)
def test_render_images_tints_the_edge_under_an_object_just_off_image(center, row):
    # camera 0 looks along +x from 2 m up: a unit object 3 m ahead on the
    # ground projects to v = 63.5 (radius 8) and one 1.5 m ahead at 3 m up
    # to v = -0.5 (radius 16), half a pixel past the bottom and top edges and
    # well inside the 3-radius cull, so each blob still tints the edge row
    spec = SceneSpec(seed=1, objects=(SceneObject(0, center, (1.0, 1.0, 1.0), 0.0),))
    (v,) = spec.cameras[0].project(np.asarray([center]))[1]
    assert not 0 <= v <= spec.image_size[0] - 1
    assert render_images(spec)[0][row].max() > BACKGROUND + 0.5


def test_scene_roundtrip_bytes(tmp_path):
    spec = small_spec()
    d1 = gen_scene(spec, tmp_path / "a")
    d2 = gen_scene(spec, tmp_path / "b")
    for name in ("points.bin", "cam_0.bin", "cameras.json", "gt.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    points, images, cameras, gt = load_scene(d1)
    assert points.shape[1] == 4
    assert len(images) == len(cameras) == 4
    assert len(gt["objects"]) == 2
    assert gt["objects"][0]["class"] == 0


def test_load_scene_without_ground_truth(tmp_path):
    scene = gen_scene(small_spec(n_clutter=10), tmp_path / "s")
    (scene / "gt.json").unlink()
    points, images, cameras, gt = load_scene(scene)
    assert gt is None
    assert len(points) > 0 and len(images) == len(cameras) == 4


def test_load_scene_rejects_non_scene(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scene(tmp_path)


def _nan_at(key, row, col):
    def corrupt(meta):
        meta["cameras"][1][key][row][col] = float("nan")
    return corrupt


def _set(path, value):
    def corrupt(meta):
        target = meta
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_nan_at("intrinsics", 0, 2), "camera 1: .*finite"),
        (_nan_at("extrinsics", 2, 3), "camera 1: .*finite"),
        (_set(("cameras", 0, "intrinsics", 0, 0), 0.0), "camera 0: .*focal"),
        (_set(("cameras", 2, "image_size"), [64, 0]), "camera 2: .*image_size"),
        (_set(("cameras", 0, "image_size"), 64), "camera 0: .*image_size"),
        (_set(("cameras", 3, "intrinsics"), "K"), "camera 3"),
        (_set(("cameras", 0), [1, 2]), "camera 0"),
        (_set(("cameras", 1), {"intrinsics": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}), "camera 1"),
        (_set(("cameras",), 5), '.*"cameras" list'),
        (_set(("cameras", 2, "extrinsics", 1, 1), 0.5), "camera 2: .*orthonormal"),
    ],
)
def test_load_scene_rejects_bad_cameras(tmp_path, corrupt, message):
    scene = gen_scene(small_spec(n_clutter=10), tmp_path / "s")
    meta = json.loads((scene / "cameras.json").read_text())
    corrupt(meta)
    (scene / "cameras.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"cameras.json: {message}"):
        load_scene(scene)


def test_spec_dict_roundtrip(tmp_path):
    spec = small_spec()
    save_spec(spec, tmp_path / "spec.json")
    for back in (spec_from_dict(spec_to_dict(spec)), load_spec(tmp_path / "spec.json")):
        assert back.seed == spec.seed
        assert back.objects == spec.objects
        assert back.x_range == spec.x_range
        assert back.image_size == spec.image_size
        assert back.n_clutter == spec.n_clutter
        assert back.noise_sigma == spec.noise_sigma
        assert np.array_equal(gen_points(back), gen_points(spec))


def test_spec_rejects_out_of_range_object():
    with pytest.raises(ValueError):
        SceneSpec(seed=1, objects=(SceneObject(0, (99.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0),))


def test_spec_accepts_objects_on_the_world_range_ends():
    ends = ((54.0, 54.0, 3.0), (-54.0, -54.0, -5.0))
    objects = tuple(SceneObject(0, c, (1.0, 1.0, 1.0), 0.0) for c in ends)
    assert SceneSpec(seed=1, objects=objects).objects == objects


def det(x, y, cls, score):
    return {"center": [x, y, 0.0], "class": cls, "score": score}


def gt(x, y, cls):
    return {"center": [x, y, 0.0], "class": cls}


def test_eval_perfect_detections():
    gts = [gt(0, 0, 0), gt(5, 5, 0), gt(-3, 2, 1)]
    dets = [det(0, 0, 0, 0.9), det(5, 5, 0, 0.8), det(-3, 2, 1, 0.7)]
    res = eval_detections(dets, gts)
    assert res.m_ap == 1.0
    for key in res.ap:
        assert res.ap[key] == 1.0


def test_eval_no_detections_zero():
    res = eval_detections([], [gt(0, 0, 0)])
    assert res.m_ap == 0.0


def test_eval_distance_threshold_boundary():
    gts = [gt(0, 0, 0)]
    res = eval_detections([det(0.4, 0.0, 0, 0.9)], gts)
    assert res.ap_at(0, 0.5) == 1.0
    res2 = eval_detections([det(0.6, 0.0, 0, 0.9)], gts)
    assert res2.ap_at(0, 0.5) == 0.0
    assert res2.ap_at(0, 1.0) == 1.0


def test_eval_default_thresholds():
    # each class scores at 0.5, 1, 2 and 4 m; a detection 2.5 m off its
    # ground truth misses at 2 m and hits at 4 m
    res = eval_detections([det(2.5, 0.0, 0, 0.9)], [gt(0, 0, 0), gt(9, 9, 1)])
    assert set(res.ap) == {(c, t) for c in (0, 1) for t in (0.5, 1.0, 2.0, 4.0)}
    assert res.ap_at(0, 2.0) == 0.0
    assert res.ap_at(0, 4.0) == 1.0


def test_eval_greedy_takes_nearest_unmatched():
    # the higher-scoring detection claims the nearer ground truth first
    gts = [gt(0, 0, 0), gt(1, 0, 0)]
    dets = [det(0.2, 0, 0, 0.9), det(0.1, 0, 0, 0.8)]
    res = eval_detections(dets, gts, thresholds=(2.0,))
    assert res.ap_at(0, 2.0) == 1.0  # second det falls back to gt at (1, 0)


def test_eval_matches_reference(rng):
    gts = [gt(float(x), float(y), int(c)) for x, y, c in
           zip(rng.uniform(-10, 10, 5), rng.uniform(-10, 10, 5), rng.integers(0, 2, 5))]
    dets = [
        det(float(x), float(y), int(c), float(s))
        for x, y, c, s in zip(
            rng.uniform(-10, 10, 10), rng.uniform(-10, 10, 10),
            rng.integers(0, 2, 10), rng.uniform(0, 1, 10),
        )
    ]
    res = eval_detections(dets, gts)
    want = oracles.eval_reference(dets, gts, THRESHOLDS)
    assert set(res.ap) == set(want)
    for key in want:
        assert res.ap[key] == pytest.approx(want[key], abs=1e-12)


def test_eval_ten_dets_five_gts_oracle():
    gts = [gt(i * 3.0, 0.0, 0) for i in range(5)]
    dets = [det(i * 3.0, 0.1, 0, 1.0 - 0.05 * i) for i in range(5)]
    dets += [det(40.0 + i, 40.0, 0, 0.5 - 0.05 * i) for i in range(5)]
    res = eval_detections(dets, gts)
    want = oracles.eval_reference(dets, gts, THRESHOLDS)
    for key in want:
        assert res.ap[key] == pytest.approx(want[key], abs=1e-12)
    assert res.ap_at(0, 4.0) == 1.0  # true positives outrank all false ones


def test_jsonio_float_format_and_roundtrip(tmp_path):
    payload = {"a": 0.1, "b": [1, 2.5, "x"], "c": {"d": None, "e": True}}
    text = jsonio.dumps(payload)
    assert text == '{"a": 0.1, "b": [1, 2.5, "x"], "c": {"d": null, "e": true}}'
    path = tmp_path / "t.json"
    jsonio.dump(payload, path)
    assert jsonio.load(path) == payload


def test_jsonio_deterministic_ndarray():
    arr = np.array([0.5, 1.0 / 3.0])
    assert jsonio.dumps(arr) == jsonio.dumps(arr.tolist())


def test_jsonio_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        jsonio.dumps([float("inf")])
