import dataclasses
import hashlib
import json
import operator
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import PINS, pins_at_blas_threads, traced_peak
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ddhf import jsonio, oracles
from ddhf.cli import main
from ddhf.config import (
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from ddhf.core import CAMERA_MAX, CameraModel, load_tensor, save_tensor
from ddhf.curve import MAX_BITS
from ddhf.hvf import STRIDES
from ddhf.oracles import WALK_MAX_BITS
from ddhf.pipeline import (
    detections_to_dicts,
    init_pipeline_weights,
    peak_rss_mb,
    run_pipeline,
    validate_inputs,
)
from ddhf.scene import SceneObject, SceneSpec, save_spec

TINY = PipelineConfig(
    lidar_cells=(16, 16, 4),
    image_cells=(16, 16, 8),
    channels=8,
    d_state=4,
    depth_count=8,
    k_easy=10,
    k_hard=10,
    safs_cap=400,
)

TINY_SCENE = SceneSpec(
    seed=7,
    objects=(
        SceneObject(0, (5.0, 5.0, 0.0), (3.0, 2.0, 1.5), 0.3),
        SceneObject(1, (-10.0, 8.0, 0.0), (2.0, 2.0, 1.8), -0.5),
    ),
    n_clutter=300,
)


def test_config_roundtrip(tmp_path):
    cfg = dataclasses.replace(TINY, global_seed=5, weights_mode="passthrough")
    save_config(cfg, tmp_path / "cfg.json")
    back = load_config(tmp_path / "cfg.json")
    assert back == cfg
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        config_from_dict({"global_seed": 1, "bogus": 2})


def test_config_strides_is_not_a_field():
    cfg = PipelineConfig()
    assert cfg.strides == STRIDES
    assert "strides" not in config_to_dict(cfg)
    assert len(dataclasses.fields(cfg)) == len(config_to_dict(cfg)) == 20


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(lidar_cells=(16, 16, 4), image_cells=(16, 16, 4))  # z not doubled
    # 2**20 cells per axis is the most the Hilbert order indexes, and 2**24
    # cells in all (4 * 4 * 2**20) the most a grid may hold
    PipelineConfig(lidar_cells=(4, 4, 2**19), image_cells=(4, 4, 2**20))
    PipelineConfig(lidar_cells=(2048, 1024, 4), image_cells=(2048, 1024, 8))  # 2**24 image cells
    with pytest.raises(ValueError, match=r"^config\.image_cells must be .* at most 16777216"):
        PipelineConfig(lidar_cells=(2048, 2048, 4), image_cells=(2048, 2048, 8))  # 2**25
    with pytest.raises(TypeError):  # not a field: voxel fusion fixes the strides
        PipelineConfig(strides=(1, 2, 8))
    with pytest.raises(ValueError):
        PipelineConfig(weights_mode="other")


@pytest.mark.parametrize(
    "content, field",
    [
        ({"channels": "32"}, "channels"),
        ({"channels": True}, "channels"),
        ({"global_seed": "x"}, "global_seed"),
        ({"k_easy": 2.5}, "k_easy"),
        ({"safs_cap": 400.5}, "safs_cap"),
        ({"d_thresh": "0.1"}, "d_thresh"),
        ({"depth_max": None}, "depth_max"),
        ({"lidar_cells": 48}, "lidar_cells"),
        ({"lidar_cells": [48, 48]}, "lidar_cells"),
        ({"image_cells": [48, 48, 16.0]}, "image_cells"),
        ({"x_range": [-54, "54"]}, "x_range"),
        ({"weights_mode": ["seeded"]}, "weights_mode"),
        ([1, 2], "JSON object"),
        ({"strides": [1, 2, 4]}, "strides"),  # once the one legal value, now unknown
    ],
)
def test_cli_run_rejects_bad_config_types(tmp_path, capsys, content, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(content))
    # the config is read before the scene, so the scene need not exist
    assert main([
        "run", "--scene", str(tmp_path / "no_scene"), "--config", str(cfg_path),
        "--out", str(tmp_path / "det.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


# each case breaks one bounded field; the rest stay at their defaults
BOUND_CASES = [
    ("x_range", (54.0, -54.0)),
    ("y_range", (0.0, 0.0)),
    ("z_range", (3.0, -5.0)),
    ("lidar_cells", (0, 48, 8)),
    ("lidar_cells", (48, 48, -8)),
    ("lidar_cells", (46, 48, 8)),  # x not divisible by the coarsest stride
    ("lidar_cells", (48, 48, 6)),  # nor z: the merge at stride 4 would fail
    ("lidar_cells", (48, 48, 2**20 + 1)),  # past the Hilbert order's 20 bits per axis
    ("image_cells", (48, 48, 0)),
    ("image_cells", (48, 50, 16)),
    ("image_cells", (48, 48, 2**21)),
    ("lidar_cells", (2**20, 2**20, 2**19)),  # each axis in bounds, 2**59 cells in all
    ("image_cells", (2**20, 2**20, 2**20)),
    ("channels", 30),
    ("channels", 0),
    ("d_state", 0),
    ("d_thresh", 0.0),
    ("s_thresh", 1.0),
    ("safs_cap", 0),
    ("depth_min", 0.0),
    ("depth_min", -1.0),
    ("depth_count", 1),
    ("k_easy", 0),
    ("k_hard", 0),
    ("k_classes", 0),
    ("n_bev", 0),
    ("m_vox", 0),
]
BOUND_IDS = [f"{field}={value}".replace(" ", "") for field, value in BOUND_CASES]


def assert_names_only(message: str, field: str):
    assert message.startswith(f"config.{field} must be "), message
    others = [key for key in config_to_dict(PipelineConfig()) if key != field]
    assert [key for key in others if key in message] == [], message


@pytest.mark.parametrize("field, value", BOUND_CASES, ids=BOUND_IDS)
def test_config_bound_names_its_field(field, value):
    with pytest.raises(ValueError) as info:
        PipelineConfig(**{field: value})
    assert_names_only(str(info.value), field)


@pytest.mark.parametrize("field, value", BOUND_CASES, ids=BOUND_IDS)
def test_cli_run_config_bound_names_its_field(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    assert main([
        "run", "--scene", str(tmp_path / "no_scene"), "--config", str(cfg_path),
        "--out", str(tmp_path / "det.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert_names_only(err[len("error: "):], field)


_OBJ = {"class": 0, "center": [0.0, 0.0, 0.0], "size": [4.0, 2.0, 1.5], "yaw": 0.0}


@pytest.mark.parametrize(
    "content, field",
    [
        ([1, 2], "JSON object"),
        ({"seed": "3"}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": 3.5}, "seed"),
        ({"seed": 3, "n_clutter": "5"}, "n_clutter"),
        ({"seed": 3, "n_clutter": 5.5}, "n_clutter"),
        ({"seed": 3, "noise_sigma": float("nan")}, "noise_sigma"),
        ({"seed": 3, "noise_sigma": "0.1"}, "noise_sigma"),
        ({"seed": 3, "x_range": 54}, "x_range"),
        ({"seed": 3, "z_range": [-5.0]}, "z_range"),
        ({"seed": 3, "image_size": [64]}, "image_size"),
        ({"seed": 3, "objects": {}}, "objects"),
        ({"seed": 3, "objects": [5]}, "objects[0]"),
        ({"seed": 3, "objects": [{k: v for k, v in _OBJ.items() if k != "class"}]},
         "objects[0].class"),
        ({"seed": 3, "objects": [_OBJ, {**_OBJ, "class": "0"}]}, "objects[1].class"),
        ({"seed": 3, "objects": [{**_OBJ, "center": [0.0, 0.0]}]}, "objects[0].center"),
        ({"seed": 3, "objects": [{**_OBJ, "yaw": "0"}]}, "objects[0].yaw"),
        ({"seed": 3, "objects": [{**_OBJ, "density": None}]}, "objects[0].density"),
    ],
)
def test_cli_gen_scene_rejects_bad_spec(tmp_path, capsys, content, field):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(content))
    assert main(["gen-scene", "--spec", str(spec_path), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "content, key",
    [
        ({"seed": 3, "n_cluter": 5}, "n_cluter"),
        ({"seed": 3, "objects": [_OBJ, {**_OBJ, "densty": 5.0}]}, "objects[1].densty"),
    ],
)
def test_cli_gen_scene_rejects_unknown_key(tmp_path, capsys, content, key):
    # a misspelt key would otherwise leave its field at the default
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(content))
    assert main(["gen-scene", "--spec", str(spec_path), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} is not a known key" in err


# each case breaks one bounded scene spec field; the rest stay at their defaults
SPEC_BOUND_CASES = [
    ("x_range", [5.0, -5.0]),
    ("y_range", [0.0, 0.0]),
    ("z_range", [3.0, -5.0]),
    ("image_size", [10, 16]),
    ("image_size", [64, 4]),
    ("n_clutter", -1),
    ("noise_sigma", -0.1),
]
SPEC_BOUND_IDS = [f"{field}={value}".replace(" ", "") for field, value in SPEC_BOUND_CASES]


@pytest.mark.parametrize("field, value", SPEC_BOUND_CASES, ids=SPEC_BOUND_IDS)
def test_scene_spec_bound_names_its_field(field, value):
    with pytest.raises(ValueError) as info:
        SceneSpec(seed=3, **{field: tuple(value) if isinstance(value, list) else value})
    assert str(info.value).startswith(f"spec.{field} must be "), info.value


@pytest.mark.parametrize(
    "field, change",
    [
        ("yaw", {"yaw": float("nan")}),  # every surface point would come out NaN
        ("class", {"class_id": 1.5}),
        ("class", {"class_id": -1}),
        ("density", {"density": float("inf")}),
        ("size", {"size": (4.0, 0.0, 1.5)}),
        ("center", {"center": (0.0, 0.0)}),
    ],
    ids=["nan_yaw", "fractional_class", "negative_class", "inf_density", "zero_size", "short_center"],
)
def test_scene_object_bound_names_its_field(field, change):
    args = {"class_id": 0, "center": (0.0, 0.0, 0.0), "size": (1.0, 1.0, 1.0), "yaw": 0.0}
    with pytest.raises(ValueError, match=rf"^object\.{field} must be "):
        SceneObject(**{**args, **change})


@pytest.mark.parametrize("field, value", SPEC_BOUND_CASES, ids=SPEC_BOUND_IDS)
def test_cli_gen_scene_bound_names_its_field(tmp_path, capsys, field, value):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 3, field: value}))
    assert main(["gen-scene", "--spec", str(spec_path), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: spec.{field} must be "), err


@pytest.mark.parametrize(
    "change",
    [{"class": -1}, {"size": [4.0, 0.0, 1.5]}, {"density": 0.0}, {"center": [99.0, 0.0, 0.0]}],
    ids=["negative_class", "zero_size", "zero_density", "center_out_of_range"],
)
def test_cli_gen_scene_value_error_names_object(tmp_path, capsys, change):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 3, "objects": [_OBJ, {**_OBJ, **change}]}))
    assert main(["gen-scene", "--spec", str(spec_path), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "objects[1]" in err


@pytest.mark.parametrize(
    "field, value",
    [("x_range", [-54.0, 54.0]), ("lidar_cells", [48, 48, 8])],
)
def test_config_from_python_rejects_list_in_tuple_field(field, value):
    # the JSON reader turns lists into tuples; a list passed from Python is
    # not a valid field value (it would make the config unhashable)
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})


def test_config_grids_consistent():
    g_l = TINY.lidar_grid()
    g_i = TINY.image_grid()
    assert g_l.extents == (16, 16, 4)
    assert g_i.extents == (16, 16, 8)
    assert g_l.nx == g_i.nx and g_l.ny == g_i.ny
    bins = TINY.depth_bins()
    assert bins.count == 8


def test_pipeline_smoke_and_dict_export(rng):
    from ddhf.scene import gen_points, render_images

    points = gen_points(TINY_SCENE)
    images = render_images(TINY_SCENE)
    cameras = list(TINY_SCENE.cameras)
    dets, log = run_pipeline(points, images, cameras, TINY)
    assert len(dets) > 0
    names = [name for name, _seconds in log.entries]
    assert "voxelize" in names and "decode" in names
    total = re.fullmatch(r"total\s+([\d.]+) ms\s+([\d.]+) MB process peak RSS", log.lines()[-1])
    assert total is not None
    assert float(total.group(2)) > 1.0  # a Python process with numpy loaded
    rows = detections_to_dicts(dets)
    for row in rows:
        assert set(row) == {"center", "size", "yaw", "class", "score"}
        assert all(s > 0 for s in row["size"])
    jsonio.dumps(rows)  # must serialize without non-finite errors


@pytest.mark.skipif(sys.platform == "darwin", reason="ru_maxrss counts bytes on macOS")
def test_peak_rss_mb_is_the_bench_unit():
    # the run summary's peak RSS is ru_maxrss in KiB / 1024, as perfbench's
    # peak_rss_mb, so both print the same figure under "MB"
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    got = peak_rss_mb()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert before <= got <= after


def _with_pixel(value):
    def corrupt(points, images, cameras):
        bad = images[0].copy()
        bad[2, 3, 1] = value
        return points, [bad] + images[1:], cameras

    return corrupt


_PIXEL_OUTSIDE = r"image 0: pixel \(row 2, col 3\) channel 1 value {} is outside \[0, 1\]"


def _with_intensity(value):
    def corrupt(points, images, cameras):
        bad = points.copy()
        bad[len(bad) // 2, 3] = value
        return bad, images, cameras

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda p, im, cams: (p[:, :3], im, cams), r"points: expected shape \(n, 4\)"),
        (
            lambda p, im, cams: (np.vstack([p, [[1.0, 1.0, 0.0, np.nan]]]), im, cams),
            r"points: row \d+ is not finite",
        ),
        (lambda p, im, cams: (p, [im[0][..., 0]] + im[1:], cams), r"image 0: expected shape"),
        (lambda p, im, cams: (p, [im[0][:-1]] + im[1:], cams), r"image 0: expected shape"),
        (_with_pixel(np.inf), r"image 0: pixels must be finite"),
        (_with_pixel(1e30), _PIXEL_OUTSIDE.format(r"1e\+30")),
        (_with_pixel(-0.5), _PIXEL_OUTSIDE.format("-0.5")),
        (
            lambda p, im, cams: (p, [(im[0] * 255).astype(np.uint8)] + im[1:], cams),
            r"image 0: pixel \(row 0, col 0\) channel 0 value \d+ is outside \[0, 1\]",
        ),
        (_with_intensity(1e30), r"points: row \d+ intensity 1e\+30 is outside \[0, 255\]"),
        (_with_intensity(-1e30), r"points: row \d+ intensity -1e\+30 is outside \[0, 255\]"),
        (_with_intensity(-1.0), r"points: row \d+ intensity -1 is outside \[0, 255\]"),
        (
            lambda p, im, cams: (p, im, cams[:1] + [dataclasses.asdict(cams[1])] + cams[2:]),
            r"camera 1: expected a CameraModel, got dict",
        ),
    ],
    ids=[
        "xyz_only_points", "nan_intensity", "grayscale_image", "short_image", "inf_pixel",
        "huge_pixel", "negative_pixel", "uint8_image",
        "huge_intensity", "huge_negative_intensity", "negative_intensity", "dict_camera",
    ],
)
def test_run_pipeline_rejects_bad_input(corrupt, message):
    from ddhf.scene import gen_points, render_images

    points, images, cameras = corrupt(
        gen_points(TINY_SCENE), render_images(TINY_SCENE), list(TINY_SCENE.cameras)
    )
    with pytest.raises(ValueError, match=message):
        run_pipeline(points, images, cameras, TINY)


def test_run_pipeline_drops_far_points():
    # finite float32 points far outside the grid pass validate_inputs; their
    # cells lie past int64, whose cast would warn (an error in this suite),
    # and they must drop out like any other point outside the grid
    from ddhf.scene import gen_points, render_images

    points, images = gen_points(TINY_SCENE), render_images(TINY_SCENE)
    cameras = list(TINY_SCENE.cameras)
    far = np.array([[1e30, 0, 0, 1], [0, -1e30, 0, 1], [0, 0, -3e38, 1], [-3e38, 1e30, 0, 1]])
    want, _ = run_pipeline(points, images, cameras, TINY)
    got, _ = run_pipeline(np.vstack([points, far]), images, cameras, TINY)
    assert got == want


@pytest.mark.parametrize(
    "field, value",
    [
        ("channels", 16), ("d_state", 8), ("k_classes", 5), ("depth_count", 16),
        ("n_bev", 2), ("m_vox", 2),
    ],
)
def test_run_pipeline_rejects_weights_of_another_config(field, value):
    # weights built for another width, state size, class count, depth bin
    # count or decoder depth would fail deep inside a stage, or run and emit
    # class ids outside the config's range or a decoder of another depth
    from ddhf.scene import gen_points, render_images

    weights = init_pipeline_weights(dataclasses.replace(TINY, **{field: value}))
    with pytest.raises(ValueError, match=rf"weights: built for {field} = {value}, config has"):
        run_pipeline(
            gen_points(TINY_SCENE), render_images(TINY_SCENE), list(TINY_SCENE.cameras),
            TINY, weights,
        )


def leaves(obj, path="weights"):
    """(path, leaf) for every leaf under a weights tree's dataclass fields and tuples."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from leaves(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def test_pipeline_weights_hold_only_tensors():
    # every leaf under the dataclass fields and tuples is an ndarray, so
    # weight helpers (core.zeroed, validate_weights) treat weights as tensors
    found = list(leaves(init_pipeline_weights(TINY)))
    assert found
    assert [path for path, v in found if not isinstance(v, np.ndarray)] == []


def nonzero_weights_digest(weights) -> str:
    """SHA-256 of the sorted SHA-256s of (dtype, shape, bytes) of every
    tensor in the tree that is not all zeros. It pins every value the
    weights hold, drawn or hand-set, whatever the tree's shape, field names
    or count of zero tensors."""
    digests = sorted(
        hashlib.sha256(repr((v.dtype.str, v.shape)).encode() + v.tobytes()).hexdigest()
        for _, v in leaves(weights)
        if np.any(v)
    )
    return hashlib.sha256("".join(digests).encode()).hexdigest()


WEIGHT_CASES = {  # PINS["weights"] entry -> (config, weights mode)
    "tiny_seeded": (TINY, "seeded"),
    "tiny_passthrough": (TINY, "passthrough"),
    "default_seeded": (PipelineConfig(), "seeded"),
    "default_passthrough": (PipelineConfig(), "passthrough"),
}


def weight_digest(cfg, mode) -> str:
    from ddhf.pipeline import build_weights

    return nonzero_weights_digest(build_weights(dataclasses.replace(cfg, weights_mode=mode)))


def weight_digests() -> dict:
    return {case: weight_digest(*args) for case, args in WEIGHT_CASES.items()}


@pytest.mark.parametrize("case", list(WEIGHT_CASES))
def test_weight_values_pinned(case):
    assert weight_digest(*WEIGHT_CASES[case]) == PINS["weights"][case]


@pytest.mark.parametrize("mode", ["seeded", "passthrough"])
def test_one_class_config_runs_a_frame(mode):
    from ddhf.scene import gen_points, render_images

    cfg = dataclasses.replace(TINY, k_classes=1, weights_mode=mode)
    points, images = gen_points(TINY_SCENE), render_images(TINY_SCENE)
    dets, _ = run_pipeline(points, images, list(TINY_SCENE.cameras), cfg)
    assert dets and {d.class_id for d in dets} == {0}


def test_run_pipeline_accepts_full_intensity():
    from ddhf.scene import gen_points, render_images

    points = gen_points(TINY_SCENE)
    points[:, 3] = 255.0
    dets, _ = run_pipeline(points, render_images(TINY_SCENE), list(TINY_SCENE.cameras), TINY)
    assert len(dets) > 0
    assert all(np.isfinite(d.score) for d in dets)


@pytest.mark.parametrize("change", ["focal", "shift"])
def test_run_pipeline_extreme_camera_without_warning(change):
    # a 1e-30 focal length or the largest translation a camera may have
    # sends points past every depth bin and BEV cell; they drop out without
    # an undefined int64 cast or an overflow (the suite turns RuntimeWarning
    # into an error)
    from ddhf.scene import gen_points, render_images

    cameras = list(TINY_SCENE.cameras)
    intr, extr = cameras[0].intrinsics.copy(), cameras[0].extrinsics.copy()
    if change == "focal":
        intr[0, 0] = intr[1, 1] = 1e-30
    else:
        extr[:3, 3] = CAMERA_MAX
    cameras[0] = CameraModel(intr, extr, cameras[0].image_size)
    dets, _ = run_pipeline(gen_points(TINY_SCENE), render_images(TINY_SCENE), cameras, TINY)
    assert len(dets) > 0 and all(0.0 <= d.score <= 1.0 for d in dets)


@st.composite
def scene_runs(draw):
    """(spec arguments, weights mode, cameras) for a TINY run: 0-4 objects
    of classes 0-11, 0.01-8 m boxes of 0.5-100 points/m^2, 0-5000 clutter
    points. Most centers lie inside the world range; about one in four is
    drawn from a range 5% wider at either end, so that some specs are
    rejected. cameras is None for a run without cameras or "unchanged" for
    the scene's own cameras and images, each about a quarter of the time,
    or else a camera_changes() change."""
    inside = lambda lo, hi: st.floats(lo, hi)
    wider = lambda lo, hi: st.floats(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo))
    center = lambda coord: st.tuples(coord(-54.0, 54.0), coord(-54.0, 54.0), coord(-5.0, 3.0))
    objects = draw(st.lists(st.builds(
        SceneObject,
        class_id=st.integers(0, 11),
        center=st.sampled_from([inside] * 3 + [wider]).flatmap(center),
        size=st.tuples(*[st.floats(0.01, 8.0)] * 3),
        yaw=st.floats(-10.0, 10.0),
        density=st.floats(0.5, 100.0),
    ), max_size=4))
    spec_args = dict(
        seed=draw(st.integers(0, 2**31 - 1)),
        objects=tuple(objects),
        n_clutter=draw(st.integers(0, 5000)),
        noise_sigma=draw(st.floats(0.0, 0.5)),
    )
    mode = draw(st.sampled_from(("seeded", "passthrough")))
    cameras = draw(st.sampled_from((None, "unchanged", "changed", "changed")))
    return spec_args, mode, draw(camera_changes()) if cameras == "changed" else cameras


@st.composite
def camera_changes(draw):
    """A change to one camera and its image in one or more of five parts:
    focal-length and principal-point scales from 1e-30 to 1e308, a
    translation offset of up to 1e308 per axis, rotation noise of 1e-9 to
    1e-5 per entry (around the 1e-6 orthonormal tolerance) and a pixel
    scale that may take pixels past 1. The other parts stay unchanged, so
    that changed cameras also reach the pipeline. The range's ends, scales
    either side of CAMERA_MAX and realistic scales of 0.5-2 (shifts of
    0.5-2 m) are each drawn about as often as the rest of the range."""
    powers = lambda lo, hi: st.floats(lo, hi).map(lambda exp: 10.0**exp)
    bounds = st.sampled_from((1e308, 10 * CAMERA_MAX, CAMERA_MAX / 100, 1e-30))
    scale = bounds | st.floats(0.5, 2.0) | powers(-30.0, 308.0)
    offset = st.builds(operator.mul, st.sampled_from((1.0, -1.0)), scale)
    parts = {
        "focal": scale,
        "principal": scale,
        "shift": st.tuples(offset, offset, offset),
        "noise": st.builds(
            lambda amplitude, unit: [amplitude * u for u in unit],
            powers(-9.0, -5.0),
            st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
        ),
        "pixels": st.floats(0.0, 2.0),
    }
    change = {
        "camera": draw(st.integers(0, 3)),
        "focal": 1.0,
        "principal": 1.0,
        "shift": (0.0, 0.0, 0.0),
        "noise": [0.0] * 9,
        "pixels": 1.0,
    }
    for part in sorted(draw(st.sets(st.sampled_from(sorted(parts)), min_size=1))):
        change[part] = draw(parts[part])
    return change


def changed_camera(cam: CameraModel, change: dict) -> CameraModel:
    """cam with change's scales, offset and noise applied in Python floats,
    which overflow to inf without a numpy warning."""
    intr, extr = cam.intrinsics.tolist(), cam.extrinsics.tolist()
    for axis in (0, 1):
        intr[axis][axis] *= change["focal"]
        intr[axis][2] *= change["principal"]
    for row in range(3):
        for col in range(3):
            extr[row][col] += change["noise"][3 * row + col]
        extr[row][3] += change["shift"][row]
    return CameraModel(np.array(intr), np.array(extr), cam.image_size)


@settings(max_examples=100, deadline=None)
@given(scene_runs())
def test_random_scenes_run_or_reject(run):
    # a spec either fails its own checks with ValueError (here: an object
    # center outside the world range), a changed camera or its image fails
    # CameraModel's or validate_inputs' checks with a ValueError that names
    # it, or the run gives finite, scored detections with no RuntimeWarning
    # (the suite turns one into an error). Images are rendered with the
    # unchanged cameras.
    from ddhf.scene import gen_points, render_images

    spec_args, mode, change = run
    try:
        spec = SceneSpec(**spec_args)
    except ValueError:
        event("spec rejected")
        return
    with_cameras = change is not None
    cameras = list(spec.cameras) if with_cameras else []
    images = render_images(spec) if with_cameras else []
    cfg = dataclasses.replace(TINY, weights_mode=mode)
    points = gen_points(spec)
    if change == "unchanged":
        event("ran with the scene's cameras")
    elif with_cameras:
        i = change["camera"] % len(cameras)
        try:
            cameras[i] = changed_camera(cameras[i], change)
        except ValueError as exc:
            assert str(exc).startswith("CameraModel: "), exc
            event("camera rejected")
            return
        images[i] = images[i] * np.float32(change["pixels"])
        try:
            validate_inputs(points, images, cameras)
        except ValueError as exc:
            assert str(exc).startswith(f"image {i}: pixel "), exc
            event("image rejected")
            return
        event("ran with a changed camera")
    else:
        event("ran without cameras")
    dets, _ = run_pipeline(points, images, cameras, cfg)
    for d in dets:
        assert np.all(np.isfinite(d.center)) and np.all(np.isfinite(d.size))
        assert np.isfinite(d.yaw) and 0.0 <= d.score <= 1.0
        assert 0 <= d.class_id < cfg.k_classes
    if not with_cameras:
        # the run above may have reused (or evicted) the previous camera-less
        # example's image block output; a cold run must give the same bits
        from ddhf import hbf

        hbf._IB_IMG_MEMO.clear()
        cold, _ = run_pipeline(points, [], [], cfg)
        assert detections_to_dicts(cold) == detections_to_dicts(dets)


GOLDEN_SCENE = SceneSpec(
    seed=11,
    objects=(
        SceneObject(0, (6.75, 6.75, 0.0), (4.2, 1.9, 1.6), 0.4),
        SceneObject(0, (20.25, -24.75, 0.0), (4.5, 2.0, 1.7), 2.1),
    ),
    n_clutter=2000,
)


GOLDEN_CASES = {  # PINS["golden"] entry -> (config, scene, weights mode)
    "tiny_seeded": (TINY, TINY_SCENE, "seeded"),
    "tiny_passthrough": (TINY, TINY_SCENE, "passthrough"),
    "default_seeded": (PipelineConfig(), GOLDEN_SCENE, "seeded"),
    "default_passthrough": (PipelineConfig(), GOLDEN_SCENE, "passthrough"),
}


def detection_digest(cfg, spec, mode):
    """SHA-256 of json.dumps(detections_to_dicts(dets), sort_keys=True). A
    change that keeps behaviour keeps the pinned ones; one that changes
    numerics on purpose re-pins through scripts/repin.py and says why in
    CHANGES.md."""
    from ddhf.scene import gen_points, render_images

    cfg = dataclasses.replace(cfg, weights_mode=mode)
    dets, _ = run_pipeline(gen_points(spec), render_images(spec), list(spec.cameras), cfg)
    text = json.dumps(detections_to_dicts(dets), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def golden_digests() -> dict:
    return {case: detection_digest(*spec) for case, spec in GOLDEN_CASES.items()}


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_detection_digest(case):
    assert detection_digest(*GOLDEN_CASES[case]) == PINS["golden"][case]


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_every_pin_holds_at_blas_threads(threads):
    # the in-process pin tests run at the default BLAS thread count; every
    # table of scripts/repin.py must give the same bits at any other count
    assert pins_at_blas_threads(threads) == PINS


def camera_less_detections(cfg, spec, mode, weights=None) -> str:
    """Detections of a camera-less run of `spec`, as exact JSON text."""
    from ddhf.scene import gen_points

    cfg = dataclasses.replace(cfg, weights_mode=mode)
    dets, _ = run_pipeline(gen_points(spec), [], [], cfg, weights)
    return json.dumps(detections_to_dicts(dets))


@pytest.fixture
def ib_calls(monkeypatch):
    """Counts hbf.ib_mamba calls; starts with an empty camera-less memo."""
    from ddhf import hbf

    calls = []
    orig = hbf.ib_mamba
    monkeypatch.setattr(hbf, "ib_mamba", lambda *args: calls.append(1) or orig(*args))
    hbf._IB_IMG_MEMO.clear()
    return calls


@pytest.mark.parametrize("mode", ["seeded", "passthrough"])
@pytest.mark.parametrize(
    "cfg, spec", [(TINY, TINY_SCENE), (PipelineConfig(), GOLDEN_SCENE)], ids=["tiny", "default"]
)
def test_camera_less_memo_hit_matches_cleared(cfg, spec, mode, ib_calls):
    # the second camera-less frame, with its weights rebuilt, reuses the
    # image-side ib_mamba output of the first and keeps every bit
    from ddhf import hbf

    first = camera_less_detections(cfg, spec, mode)
    assert len(ib_calls) == 2
    hit = camera_less_detections(cfg, spec, mode)
    assert len(ib_calls) == 3
    hbf._IB_IMG_MEMO.clear()
    assert camera_less_detections(cfg, spec, mode) == hit == first
    assert len(ib_calls) == 5


@pytest.mark.parametrize("mode", ["seeded", "passthrough"])
@pytest.mark.parametrize("field", ["ib_img.in_w", "proj_img_b"])
def test_camera_less_memo_misses_after_in_place_edit(field, mode, ib_calls):
    # the memo key is the content of the image map and weights, not their
    # identity: an in-place edit between two frames must not reuse the old output
    from ddhf import hbf
    from ddhf.pipeline import build_weights

    weights = build_weights(dataclasses.replace(TINY, weights_mode=mode))
    camera_less_detections(TINY, TINY_SCENE, mode, weights)
    operator.attrgetter(f"hbf.{field}")(weights)[...] += 0.5
    edited = camera_less_detections(TINY, TINY_SCENE, mode, weights)
    hbf._IB_IMG_MEMO.clear()
    uncached = camera_less_detections(TINY, TINY_SCENE, mode, weights)
    assert edited == uncached
    # two calls per frame: the edited frame missed (the image block's output
    # does not always reach the saturated seeded detections)
    assert len(ib_calls) == 6


def test_camera_less_memo_calls_ib_mamba_once(ib_calls):
    from ddhf.scene import gen_points, render_images

    run_pipeline(gen_points(TINY_SCENE), render_images(TINY_SCENE), list(TINY_SCENE.cameras), TINY)
    assert len(ib_calls) == 2
    camera_less_detections(TINY, TINY_SCENE, "seeded")
    assert len(ib_calls) == 4
    for repeat in range(2):
        camera_less_detections(TINY, TINY_SCENE, "seeded")
        assert len(ib_calls) == 5 + repeat
    # a frame with cameras takes neither memo path
    run_pipeline(gen_points(TINY_SCENE), render_images(TINY_SCENE), list(TINY_SCENE.cameras), TINY)
    assert len(ib_calls) == 8


def test_camera_less_frame_peak_memory():
    # one default-config frame without cameras, weights built beforehand and
    # the image-side block computed (the memo cleared), after a first frame
    # has done the process's one-time work: the cross-modal BEV block sets
    # its peak, the decoder stays under it (11.0 MB traced; bound that plus
    # 1 MB)
    from ddhf import hbf
    from ddhf.pipeline import build_weights
    from ddhf.scene import gen_points

    cfg = PipelineConfig()
    weights = build_weights(cfg)
    points = gen_points(GOLDEN_SCENE)
    run_pipeline(points, [], [], cfg, weights)
    hbf._IB_IMG_MEMO.clear()
    assert traced_peak(run_pipeline, points, [], [], cfg, weights) < 12e6


def test_run_demo_script_runs_both_weight_modes():
    # scripts/run_demo.py unpacks run_pipeline's (detections, StageLog)
    # return value and prints the log's total line once per weight mode
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_demo.py"), "--clutter", "200"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    mode, totals = None, []
    for line in run.stdout.splitlines():
        if line.startswith("== weights_mode="):
            mode = line.strip("= ").split("=")[1]
        elif line.split()[:1] == ["total"]:
            totals.append(mode)
    assert totals == ["seeded", "passthrough"]


def test_cli_gen_run_eval(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    save_spec(TINY_SCENE, spec_path)
    scene_dir = tmp_path / "scene"
    assert main(["gen-scene", "--spec", str(spec_path), "--out", str(scene_dir)]) == 0
    assert (scene_dir / "points.bin").exists()
    assert (scene_dir / "gt.json").exists()

    cfg_path = tmp_path / "cfg.json"
    save_config(TINY, cfg_path)
    det_path = tmp_path / "det.json"
    assert main([
        "run", "--scene", str(scene_dir), "--config", str(cfg_path),
        "--out", str(det_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "detections ->" in out
    dets = jsonio.load(det_path)
    assert isinstance(dets, list)

    assert main(["eval", "--det", str(det_path), "--gt", str(scene_dir / "gt.json")]) == 0
    text = capsys.readouterr().out.strip().splitlines()[-1]
    parsed = __import__("json").loads(text)
    assert "map" in parsed
    assert 0.0 <= parsed["map"] <= 1.0


def _box(score=None):
    rec = {"center": [1.0, 2.0, 0.0], "size": [4.0, 2.0, 1.5], "yaw": 0.3, "class": 0}
    return rec if score is None else dict(rec, score=score)


def _gt(**change):
    """Ground-truth file whose record 1 has `change` applied."""
    return {"objects": [_box(), dict(_box(), **change)]}


def _det(**change):
    """Detection file whose record 1 has `change` applied."""
    return [_box(0.9), dict(_box(0.4), **change)]


NAN, INF = float("nan"), float("inf")
# case -> (which file, its content, text the error must hold); record-level
# cases break record 1, so their error must also name "record 1"
BAD_EVAL_INPUTS = {
    "gt_is_list": ("gt", [_box()], '"objects" list'),
    "gt_objects_not_list": ("gt", {"objects": {"a": 1}}, '"objects" list'),
    "det_is_dict": ("det", {"objects": [_box(0.9)]}, "must be a JSON list"),
    "record_not_object": ("det", [_box(0.9), 5], "record 1: expected an object"),
    "nan_center": ("gt", _gt(center=[NAN, 0.0, 0.0]), "record 1: center"),
    "two_element_center": ("det", _det(center=[1.0, 2.0]), "record 1: center"),
    "string_coordinate": ("det", _det(center=["1", 2.0, 0.0]), "record 1: center"),
    "zero_size": ("gt", _gt(size=[4.0, 0.0, 1.5]), "record 1: size"),
    "infinite_size": ("det", _det(size=[INF, 1.0, 1.0]), "record 1: size"),
    "missing_size": ("gt", _gt(size=None), "record 1: size"),
    "nan_yaw": ("det", _det(yaw=NAN), "record 1: yaw"),
    "negative_class": ("gt", _gt(**{"class": -1}), "record 1: class"),
    "float_class": ("det", _det(**{"class": 1.0}), "record 1: class"),
    "bool_class": ("det", _det(**{"class": True}), "record 1: class"),
    "score_above_one": ("det", _det(score=1.5), "record 1: score"),
    "string_score": ("det", _det(score="0.5"), "record 1: score"),
    "missing_score": ("det", _det(score=None), "record 1: score"),
}


@pytest.mark.parametrize(
    "which, content, message", list(BAD_EVAL_INPUTS.values()), ids=list(BAD_EVAL_INPUTS)
)
def test_cli_eval_rejects_bad_input(tmp_path, capsys, which, content, message):
    paths = {name: tmp_path / f"{name}.json" for name in ("gt", "det")}
    files = {"gt": _gt(), "det": _det(), which: content}
    for name, data in files.items():
        paths[name].write_text(json.dumps(data))
    assert main(["eval", "--det", str(paths["det"]), "--gt", str(paths["gt"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[which]}: ") and message in err


def test_cli_eval_accepts_boundary_values(tmp_path, capsys):
    # integer coordinates, scores 0 and 1, any finite yaw, an empty GT list
    paths = {name: tmp_path / f"{name}.json" for name in ("gt", "det")}
    paths["gt"].write_text(json.dumps(_gt(**{"class": 3, "yaw": -7.0})))
    paths["det"].write_text(json.dumps([_box(0.0), _box(1), dict(_box(1.0), center=[1, 2, 0])]))
    assert main(["eval", "--det", str(paths["det"]), "--gt", str(paths["gt"])]) == 0
    paths["gt"].write_text(json.dumps({"objects": []}))
    assert main(["eval", "--det", str(paths["det"]), "--gt", str(paths["gt"])]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "which, content",
    [("gt", _gt(score=0.5)), ("det", _det(scor=0.5))],
    ids=["gt_box_with_score", "det_misspelt_key"],
)
def test_cli_eval_rejects_unknown_box_key(tmp_path, capsys, which, content):
    paths = {name: tmp_path / f"{name}.json" for name in ("gt", "det")}
    files = {"gt": _gt(), "det": _det(), which: content}
    for name, data in files.items():
        paths[name].write_text(json.dumps(data))
    assert main(["eval", "--det", str(paths["det"]), "--gt", str(paths["gt"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[which]}: record 1: ") and "is not a known key" in err


@pytest.mark.parametrize(
    "change, text",
    [
        ({"size": [4.0, 0.0, 1.5]}, "size must be a list of 3 positive finite numbers, got"),
        ({"class": -1}, "class must be an integer >= 0, got -1"),
        ({"bogus": 1}, "bogus is not a known key (known: center, size, yaw, class"),
    ],
    ids=["zero_size", "negative_class", "unknown_key"],
)
def test_box_error_same_in_ground_truth_and_spec(tmp_path, capsys, change, text):
    # ground truth and spec objects are read with one box table
    gt_path, det_path, spec_path = (tmp_path / n for n in ("gt.json", "det.json", "spec.json"))
    gt_path.write_text(json.dumps(_gt(**change)))
    det_path.write_text(json.dumps(_det()))
    spec_path.write_text(json.dumps({"seed": 3, "objects": [_OBJ, {**_OBJ, **change}]}))
    assert main(["eval", "--det", str(det_path), "--gt", str(gt_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {gt_path}: record 1: {text}")
    assert main(["gen-scene", "--spec", str(spec_path), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith(f"error: spec.objects[1].{text}")


def _tiny_scene_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_spec(TINY_SCENE, spec_path)
    scene_dir = tmp_path / "scene"
    main(["gen-scene", "--spec", str(spec_path), "--out", str(scene_dir)])
    cfg_path = tmp_path / "cfg.json"
    save_config(TINY, cfg_path)
    return scene_dir, cfg_path


def test_cli_run_without_ground_truth(tmp_path, capsys):
    scene_dir, cfg_path = _tiny_scene_dir(tmp_path)
    outs = []
    for name in ("with_gt.json", "without_gt.json"):
        assert main([
            "run", "--scene", str(scene_dir), "--config", str(cfg_path),
            "--out", str(tmp_path / name),
        ]) == 0
        outs.append((tmp_path / name).read_bytes())
        (scene_dir / "gt.json").unlink(missing_ok=True)
    capsys.readouterr()
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "path, key", [((), "camras"), (("cameras", 0), "extrinsic")], ids=["file", "camera"]
)
def test_cli_run_rejects_unknown_camera_key(tmp_path, capsys, path, key):
    scene_dir, cfg_path = _tiny_scene_dir(tmp_path)
    meta = json.loads((scene_dir / "cameras.json").read_text())
    record = meta
    for step in path:
        record = record[step]
    record[key] = 1
    (scene_dir / "cameras.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert main([
        "run", "--scene", str(scene_dir), "--config", str(cfg_path),
        "--out", str(tmp_path / "det.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cameras.json" in err and f"{key} is not a known key" in err


def _run_with_edited_cameras(tmp_path, capsys, edit):
    """Exit code and stderr of `ddhf run` on TINY_SCENE once edit(cameras)
    has changed the camera records of its cameras.json."""
    scene_dir, cfg_path = _tiny_scene_dir(tmp_path)
    meta = json.loads((scene_dir / "cameras.json").read_text())
    edit(meta["cameras"])
    (scene_dir / "cameras.json").write_text(json.dumps(meta))
    capsys.readouterr()
    code = main([
        "run", "--scene", str(scene_dir), "--config", str(cfg_path),
        "--out", str(tmp_path / "det.json"),
    ])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e30, 0.0])
def test_cli_run_rejects_non_orthonormal_camera(tmp_path, capsys, scale):
    def edit(cameras):
        for row in cameras[1]["extrinsics"][:3]:
            row[:3] = [v * scale for v in row[:3]]

    code, err = _run_with_edited_cameras(tmp_path, capsys, edit)
    assert code == 2
    assert err.startswith("error:") and "cameras.json: camera 1: " in err and "orthonormal" in err


@pytest.mark.parametrize(
    "key, row, col, name",
    [("intrinsics", 0, 0, "focal length"), ("extrinsics", 2, 3, "translation")],
    ids=["focal", "translation"],
)
def test_cli_run_rejects_camera_past_bound(tmp_path, capsys, key, row, col, name):
    # a 1e308 focal length or translation would overflow a projection
    def edit(cameras):
        cameras[2][key][row][col] = 1e308

    code, err = _run_with_edited_cameras(tmp_path, capsys, edit)
    assert code == 2
    assert err.startswith("error:") and "cameras.json: camera 2: " in err and name in err


def test_cli_run_seed_changes_weights(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    save_spec(TINY_SCENE, spec_path)
    scene_dir = tmp_path / "scene"
    main(["gen-scene", "--spec", str(spec_path), "--out", str(scene_dir)])
    cfg_path = tmp_path / "cfg.json"
    save_config(TINY, cfg_path)
    outs = []
    for seed in (0, 1):
        det_path = tmp_path / f"det{seed}.json"
        assert main([
            "run", "--scene", str(scene_dir), "--config", str(cfg_path),
            "--seed", str(seed), "--out", str(det_path),
        ]) == 0
        outs.append(det_path.read_bytes())
    capsys.readouterr()
    assert outs[0] != outs[1]


def test_cli_oracle_ssm_dense(tmp_path, rng, capsys):
    n, c, ds = 6, 3, 2
    paths = {}
    arrays = {
        "x": rng.normal(size=(n, c)).astype(np.float32),
        "a": -rng.uniform(0.1, 1.0, size=(c, ds)).astype(np.float32),
        "b": rng.normal(size=(n, ds)).astype(np.float32),
        "c": rng.normal(size=(n, ds)).astype(np.float32),
        "delta": rng.uniform(0.01, 0.5, size=(n, c)).astype(np.float32),
    }
    for name, arr in arrays.items():
        paths[name] = tmp_path / f"{name}.bin"
        save_tensor(paths[name], arr)
    out_path = tmp_path / "out.bin"
    assert main([
        "oracle", "ssm-dense",
        "--x", str(paths["x"]), "--a", str(paths["a"]), "--b", str(paths["b"]),
        "--c", str(paths["c"]), "--delta", str(paths["delta"]),
        "--out", str(out_path),
    ]) == 0
    capsys.readouterr()
    from ddhf.ssm import ScanParams, selective_scan

    got = load_tensor(out_path)
    want = selective_scan(
        arrays["x"], arrays["a"].astype(np.float64),
        ScanParams(arrays["b"], arrays["c"], arrays["delta"]),
    )
    assert np.max(np.abs(got - want)) < 1e-5


def test_cli_oracle_hilbert_walk(tmp_path, capsys):
    assert main(["oracle", "hilbert-walk", "--bits", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 64
    first = [int(v) for v in lines[0].split()]
    assert first[:4] == [0, 0, 0, 0]


def test_cli_oracle_nms(tmp_path, capsys):
    heat = np.zeros((1, 6, 6), dtype=np.float32)
    heat[0, 2, 2] = 0.9
    heat[0, 5, 0] = 0.4
    heat_path = tmp_path / "heat.bin"
    save_tensor(heat_path, heat)
    out_path = tmp_path / "nms.json"
    assert main([
        "oracle", "nms", "--heat", str(heat_path), "--k", "2", "--out", str(out_path)
    ]) == 0
    capsys.readouterr()
    result = jsonio.load(out_path)
    assert result["positions"][0] == [2, 2]
    assert result["scores"][0] == pytest.approx(0.9, abs=1e-6)


def _oracle_count_args(tmp_path, cmd: str, flag: str, value: int) -> list[str]:
    """`ddhf oracle` arguments running `cmd` on five points or a 1x4x4 heatmap."""
    save_tensor(tmp_path / "pts.bin", np.arange(15, dtype=np.float32).reshape(5, 3))
    save_tensor(tmp_path / "heat.bin", np.zeros((1, 4, 4), dtype=np.float32))
    inputs = {
        "fps": ["--points", str(tmp_path / "pts.bin"), "--out", str(tmp_path / "o.json")],
        "nms": ["--heat", str(tmp_path / "heat.bin"), "--out", str(tmp_path / "o.json")],
        "hilbert-walk": [],
    }
    return ["oracle", cmd, *inputs[cmd], flag, str(value)]


# the bounds of the library twins: viewtrans.fps, pqg.nms_topk, oracles.hilbert_walk
@pytest.mark.parametrize(
    "cmd, flag, value",
    [
        ("fps", "--n", 0),
        ("fps", "--n", 6),  # past the five points
        ("nms", "--k", 0),
        ("nms", "--k", -3),
        ("hilbert-walk", "--bits", 0),
        ("hilbert-walk", "--bits", WALK_MAX_BITS + 1),  # never run: 8x the bound's cells
        ("hilbert-walk", "--bits", MAX_BITS + 1),
    ],
)
def test_cli_oracle_count_out_of_bounds_names_its_flag(tmp_path, capsys, cmd, flag, value):
    assert main(_oracle_count_args(tmp_path, cmd, flag, value)) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be ")


# a small valid run of each oracle: its tensors (for `_INPUT_DIRS`, the files
# of its --inputs directory; otherwise each passed by its own flag) and its
# other flags
_ORACLE_INPUTS = {
    "fps": ({"points": np.arange(15).reshape(5, 3)}, {"n": "2"}),
    "ssm-dense": (
        {"x": np.ones((4, 3)), "a": np.full((3, 2), -0.5), "b": np.ones((4, 2)),
         "c": np.ones((4, 2)), "delta": np.full((4, 3), 0.1)},
        {},
    ),
    "nms": ({"heat": np.zeros((1, 4, 4))}, {"k": "2"}),
    "height-compress": (
        {"coords": np.array([[0, 0, 0], [3, 3, 1]]), "feats": np.ones((2, 3))},
        {"extents": "4,4,2"},
    ),
    "splat": (
        {"feats": np.ones((2, 3, 4)), "depth": np.full((2, 3, 8), 0.125),
         "intrinsics": np.array([[12.0, 0, 6], [0, 12, 4], [0, 0, 1]]),
         "extrinsics": np.eye(4), "bins": np.linspace(1.5, 8.5, 8)},
        {"origin": "-4,-4", "cell": "0.5,0.5", "nx": "16", "ny": "16"},
    ),
    "mix-scalar": (  # C = 2 channels, a lattice of G = 4 points
        {"q": np.ones(2), "feats": np.ones((4, 2)), "offsets": np.ones((4, 3)),
         "off_w": np.ones((3, 2)), "off_b": np.ones(2), "cw": np.ones((2, 4)), "cb": np.ones(4),
         "sw": np.ones((2, 4)), "sb": np.ones(4), "down_w": np.ones((2, 2)), "down_b": np.ones(2)},
        {},
    ),
}
_INPUT_DIRS = ("mix-scalar", "splat")


def _oracle_run_args(tmp_path, cmd: str, **changed) -> list[str]:
    """`ddhf oracle` arguments running `cmd` on `_ORACLE_INPUTS`, with each
    tensor or flag named in `changed` given its value there: for a tensor,
    the tensor its file holds; otherwise the flag's text."""
    tensors, options = _ORACLE_INPUTS[cmd]
    args = ["oracle", cmd, "--out", str(tmp_path / "o.out")]
    for key, arr in tensors.items():
        save_tensor(tmp_path / f"{key}.bin", changed.get(key, arr))
        if cmd not in _INPUT_DIRS:
            args.append(f"--{key}={tmp_path / f'{key}.bin'}")
    if cmd in _INPUT_DIRS:
        args.append(f"--inputs={tmp_path}")
    flags = {**options, **changed}
    return args + [f"--{key}={text}" for key, text in flags.items() if key not in tensors]


@pytest.mark.parametrize("cmd", sorted(_ORACLE_INPUTS))
def test_cli_oracle_valid_inputs_run(tmp_path, capsys, cmd):
    assert main(_oracle_run_args(tmp_path, cmd)) == 0
    capsys.readouterr()


# each input held to its library twin's domain: viewtrans.fps (at least one
# finite (n, 3) point), selective_scan (a < 0, delta > 0, matching shapes),
# pqg.Heatmap ((K, H, W) in [0, 1]), SparseVoxelSet and GridSpec (integer
# cells inside positive extents), and the finite origin, positive cell sizes
# and counts of viewtrans.lss_splat's grid
@pytest.mark.parametrize(
    "cmd, flag, value",
    [
        ("fps", "--points", np.arange(7)),
        ("fps", "--points", np.ones((3, 4))),
        ("fps", "--points", np.zeros((0, 3))),
        ("fps", "--points", np.array([[0.0, 0, 0], [1, np.nan, 0]])),
        ("ssm-dense", "--a", np.full((3, 2), 1.0)),
        ("ssm-dense", "--delta", np.full((4, 3), -1.0)),
        ("ssm-dense", "--b", np.ones((5, 2))),
        ("nms", "--heat", np.zeros((4, 4))),
        ("nms", "--heat", np.full((1, 4, 4), 1.5)),
        ("height-compress", "--extents", "4,0,2"),
        ("height-compress", "--extents", "4,x,2"),
        ("height-compress", "--coords", np.array([[0, 0, 0], [4, 3, 1]])),
        ("height-compress", "--coords", np.array([[0, 0, 0], [-1, 3, 1]])),
        ("height-compress", "--coords", np.array([[1.7, 2.9, 0], [3, 3, 1]])),
        ("height-compress", "--feats", np.ones((3, 3))),
        ("splat", "--cell", "0,1"),
        ("splat", "--cell", "0.5,-1"),
        ("splat", "--cell", "a,1"),
        ("splat", "--origin", "nan,0"),
        ("splat", "--origin", "inf,0"),
        ("splat", "--nx", "-1"),
        ("splat", "--ny", "0"),
        ("splat", "--stride", "0"),
    ],
    ids=[
        "fps-points-7-values", "fps-points-4-columns", "fps-points-empty", "fps-points-nan",
        "ssm-a-positive", "ssm-delta-negative", "ssm-b-rows", "nms-heat-2d",
        "nms-heat-above-1", "hc-zero-extent", "hc-extent-not-int", "hc-coord-past-extent",
        "hc-coord-negative", "hc-coord-fractional", "hc-feats-rows", "splat-cell-zero", "splat-cell-negative",
        "splat-cell-not-number", "splat-origin-nan", "splat-origin-inf", "splat-nx-negative",
        "splat-ny-zero", "splat-stride-zero",
    ],
)
def test_cli_oracle_bad_input_names_its_flag(tmp_path, capsys, cmd, flag, value):
    assert main(_oracle_run_args(tmp_path, cmd, **{flag.removeprefix("--"): value})) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} ")


# each --inputs file held to the shape its oracle reads; the lattice size G
# of mix-scalar to decoder.GridFeatures' rule (divisible by 4)
@pytest.mark.parametrize(
    "cmd, named, changed",
    [
        ("splat", "depth", {"depth": np.ones((2, 3))}),
        ("splat", "intrinsics", {"intrinsics": np.array([12.0, 12, 6])}),
        ("splat", "bins", {"depth": np.full((2, 3, 9), 0.1)}),  # 9 depth bins, 8 centres
        ("splat", "depth", {"depth": np.full((1, 3, 8), 0.125)}),  # feats has 2 rows
        ("mix-scalar", "feats", {"feats": np.ones((4, 3))}),  # one column wider than q
        ("mix-scalar", "feats",  # G = 6, every other file sized to it
         {"feats": np.ones((6, 2)), "offsets": np.ones((6, 3)), "sw": np.ones((2, 6)),
          "sb": np.ones(6)}),
    ],
    ids=["splat-depth-2d", "splat-intrinsics-1d", "splat-bins-count", "splat-depth-rows",
         "mix-feats-columns", "mix-lattice-6"],
)
def test_cli_oracle_bad_inputs_file_names_it(tmp_path, capsys, cmd, named, changed):
    assert main(_oracle_run_args(tmp_path, cmd, **changed)) == 2
    assert capsys.readouterr().err.startswith(f"error: --inputs {named}.bin ")


@pytest.mark.parametrize("cmd, flag, value", [("fps", "--n", 1), ("fps", "--n", 5), ("nms", "--k", 1)])
def test_cli_oracle_count_at_its_bound_runs(tmp_path, capsys, cmd, flag, value):
    assert main(_oracle_count_args(tmp_path, cmd, flag, value)) == 0
    capsys.readouterr()
    if cmd == "fps":  # distinct picks, the first point first
        indices = jsonio.load(tmp_path / "o.json")["indices"]
        assert indices[0] == 0 and len(set(indices)) == len(indices) == value


def _mix_args(g: int) -> tuple:
    """mmvfm_mix's arguments, all ones, for C = 2 channels and a lattice of g points."""
    c, gq = 2, g // 4
    shapes = [(c,), (g, c), (g, 3), (3, c), (c,), (c, c * c), (c * c,), (c, g * gq), (g * gq,),
              (c * gq, c), (c,)]
    return tuple(np.ones(shape) for shape in shapes)


_SPLAT_TENSORS = (  # feats, depth, intrinsics, extrinsics, stride, bins
    np.ones((2, 3, 4)), np.full((2, 3, 8), 0.125),
    np.array([[12.0, 0, 6], [0, 12, 4], [0, 0, 1]]), np.eye(4), 8, np.linspace(1.5, 8.5, 8),
)


# each oracle, called directly, holds its inputs to its library twin's domain
@pytest.mark.parametrize(
    "oracle, args, param",
    [
        ("fps", (np.array([[0.0, 0, 0], [1, np.nan, 0], [2, 0, 0]]), 2), "points"),
        ("fps", (np.zeros((0, 3)), 1), "points"),
        ("fps", (np.arange(6.0).reshape(2, 3), 5), "n"),
        ("ssm_dense", (np.ones((4, 3)), np.full((3, 2), 0.5), np.ones((4, 2)),
                       np.ones((4, 2)), np.full((4, 3), 0.1)), "a"),
        ("nms_topk", (np.full((1, 4, 4), 5.0), 2), "heat"),
        ("nms_topk", (np.zeros((1, 4, 4)), 0), "k"),
        ("height_compress", (np.array([[1.7, 2.0, 0.0]]), np.ones((1, 3)), (4, 4, 2)), "coords"),
        ("height_compress", (np.array([[-1, 0, 0]]), np.ones((1, 3)), (4, 4, 2)), "coords"),
        ("mmvfm_mix", _mix_args(6), "feats"),
        ("lss_splat", (*_SPLAT_TENSORS, (-4.0, -4.0), (0.0, 0.5), 16, 16), "cell"),
    ],
    ids=["fps-nan-row", "fps-empty", "fps-n-past-count", "ssm-a-positive", "nms-heat-5",
         "nms-k-0", "hc-coord-fractional", "hc-coord-negative", "mix-lattice-6",
         "splat-cell-0"],
)
def test_oracle_outside_its_twins_domain_raises(oracle, args, param):
    with pytest.raises(ValueError, match=f"^{oracle}: {param} "):
        getattr(oracles, oracle)(*args)


def test_cli_oracle_unknown_name_exits_through_argparse(capsys):
    # the subparser's choices reject the name before `_cmd_oracle` runs
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["gen-scene", "--spec", str(tmp_path / "missing.json"), "--out",
                 str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_truncated_tensor_exit_code(tmp_path, capsys):
    heat_path = tmp_path / "heat.bin"
    heat_path.write_bytes(b"DDHF\x01\x00")
    assert main([
        "oracle", "nms", "--heat", str(heat_path), "--k", "2",
        "--out", str(tmp_path / "nms.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "heat.bin" in err


def test_tensor_cli_compatible_container(tmp_path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    p = tmp_path / "t.bin"
    save_tensor(p, arr)
    raw = p.read_bytes()
    assert raw[:4] == b"DDHF"
    assert np.array_equal(load_tensor(p), arr)
