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
from conftest import run_at_blas_threads, traced_peak
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ddhf import jsonio
from ddhf.cli import main
from ddhf.config import (
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from ddhf.core import load_tensor, save_tensor
from ddhf.hvf import STRIDES
from ddhf.pipeline import detections_to_dicts, init_pipeline_weights, peak_rss_mb, run_pipeline
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
        ({"strides": "124"}, "strides"),
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
    ("image_cells", (48, 48, 0)),
    ("image_cells", (48, 50, 16)),
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


def test_pipeline_no_cameras(rng):
    from ddhf.scene import gen_points

    points = gen_points(TINY_SCENE)
    dets, _ = run_pipeline(points, [], [], TINY)
    assert isinstance(dets, list)


def _with_pixel(value):
    def corrupt(points, images):
        bad = images[0].copy()
        bad[2, 3, 1] = value
        return points, [bad] + images[1:]

    return corrupt


_PIXEL_OUTSIDE = r"image 0: pixel \(row 2, col 3\) channel 1 value {} is outside \[0, 1\]"


def _with_intensity(value):
    def corrupt(points, images):
        bad = points.copy()
        bad[len(bad) // 2, 3] = value
        return bad, images

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda p, im: (p[:, :3], im), r"points: expected shape \(n, 4\)"),
        (
            lambda p, im: (np.vstack([p, [[1.0, 1.0, 0.0, np.nan]]]), im),
            r"points: row \d+ is not finite",
        ),
        (lambda p, im: (p, [im[0][..., 0]] + im[1:]), r"image 0: expected shape"),
        (lambda p, im: (p, [im[0][:-1]] + im[1:]), r"image 0: expected shape"),
        (_with_pixel(np.inf), r"image 0: pixels must be finite"),
        (_with_pixel(1e30), _PIXEL_OUTSIDE.format(r"1e\+30")),
        (_with_pixel(-0.5), _PIXEL_OUTSIDE.format("-0.5")),
        (
            lambda p, im: (p, [(im[0] * 255).astype(np.uint8)] + im[1:]),
            r"image 0: pixel \(row 0, col 0\) channel 0 value \d+ is outside \[0, 1\]",
        ),
        (_with_intensity(1e30), r"points: row \d+ intensity 1e\+30 is outside \[0, 255\]"),
        (_with_intensity(-1e30), r"points: row \d+ intensity -1e\+30 is outside \[0, 255\]"),
        (_with_intensity(-1.0), r"points: row \d+ intensity -1 is outside \[0, 255\]"),
    ],
    ids=[
        "xyz_only_points", "nan_intensity", "grayscale_image", "short_image", "inf_pixel",
        "huge_pixel", "negative_pixel", "uint8_image",
        "huge_intensity", "huge_negative_intensity", "negative_intensity",
    ],
)
def test_run_pipeline_rejects_bad_input(corrupt, message):
    from ddhf.scene import gen_points, render_images

    points, images = corrupt(gen_points(TINY_SCENE), render_images(TINY_SCENE))
    with pytest.raises(ValueError, match=message):
        run_pipeline(points, images, list(TINY_SCENE.cameras), TINY)


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


WEIGHT_VALUE_DIGESTS = {
    "tiny_seeded": (TINY, "seeded",
                    "aa41a619c440a28d98ac5df8a6f4a323a2072d5ab020b4797718a6b35702fe1a"),
    "tiny_passthrough": (TINY, "passthrough",
                         "5b976d71438fdb7fd51a83d3b480583c333e99a7751a44ec9a05534f0a454c5c"),
    "default_seeded": (PipelineConfig(), "seeded",
                       "f1a0baac6855e88edfa9f8a4b319ae55c663c04f0551fccade29d502fcc7e7ee"),
    "default_passthrough": (PipelineConfig(), "passthrough",
                            "167976e236e220392271e8b4d88f34048eed75bd5848710d58b5d82b414a1023"),
}


@pytest.mark.parametrize(
    "cfg, mode, digest", list(WEIGHT_VALUE_DIGESTS.values()), ids=list(WEIGHT_VALUE_DIGESTS)
)
def test_weight_values_pinned(cfg, mode, digest):
    from ddhf.pipeline import build_weights

    weights = build_weights(dataclasses.replace(cfg, weights_mode=mode))
    assert nonzero_weights_digest(weights) == digest


def test_run_pipeline_accepts_full_intensity():
    from ddhf.scene import gen_points, render_images

    points = gen_points(TINY_SCENE)
    points[:, 3] = 255.0
    dets, _ = run_pipeline(points, render_images(TINY_SCENE), list(TINY_SCENE.cameras), TINY)
    assert len(dets) > 0
    assert all(np.isfinite(d.score) for d in dets)


@st.composite
def scene_runs(draw):
    """(spec arguments, weights mode, with cameras) for a TINY run: 0-4
    objects of classes 0-11, 0.01-8 m boxes of 0.5-100 points/m^2, centers
    up to 5% of the world range past either end, 0-5000 clutter points."""
    coord = lambda lo, hi: st.floats(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo))
    objects = draw(st.lists(st.builds(
        SceneObject,
        class_id=st.integers(0, 11),
        center=st.tuples(coord(-54.0, 54.0), coord(-54.0, 54.0), coord(-5.0, 3.0)),
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
    return spec_args, draw(st.sampled_from(("seeded", "passthrough"))), draw(st.booleans())


@settings(max_examples=25, deadline=None)
@given(scene_runs())
def test_random_scenes_run_or_reject(run):
    # a spec either fails its own checks with ValueError (here: an object
    # center outside the world range) or runs to finite, scored detections
    from ddhf.scene import gen_points, render_images

    spec_args, mode, with_cameras = run
    try:
        spec = SceneSpec(**spec_args)
    except ValueError:
        event("spec rejected")
        return
    cameras = list(spec.cameras) if with_cameras else []
    images = render_images(spec) if with_cameras else []
    cfg = dataclasses.replace(TINY, weights_mode=mode)
    points = gen_points(spec)
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


# SHA-256 of json.dumps(detections_to_dicts(dets), sort_keys=True). A change
# that keeps behaviour keeps these; one that changes numerics on purpose
# updates them and says why in CHANGES.md.
GOLDEN_DIGESTS = {
    "tiny_seeded": (TINY, TINY_SCENE, "seeded",
                    "4b66309c71878bee04d967d7127c98e78c0ae81a27a3aed41164a5b2dea71501"),
    "tiny_passthrough": (TINY, TINY_SCENE, "passthrough",
                         "6298dadd04a29fd992b26e8b8b007e0070751bc1dc497993c69921ee93aff361"),
    "default_seeded": (PipelineConfig(), GOLDEN_SCENE, "seeded",
                       "192b8de4e0c6b1f16ce66633e9c54ccbbc051c76b6cc246806d1d95072ae2a5c"),
    "default_passthrough": (PipelineConfig(), GOLDEN_SCENE, "passthrough",
                            "2081d5ff9c3344b7159724738910ac3bc30051b7ea6f594122a4b5838b597f47"),
}


def detection_digest(cfg, spec, mode):
    from ddhf.scene import gen_points, render_images

    cfg = dataclasses.replace(cfg, weights_mode=mode)
    dets, _ = run_pipeline(gen_points(spec), render_images(spec), list(spec.cameras), cfg)
    text = json.dumps(detections_to_dicts(dets), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "cfg, spec, mode, digest", list(GOLDEN_DIGESTS.values()), ids=list(GOLDEN_DIGESTS)
)
def test_golden_detection_digest(cfg, spec, mode, digest):
    assert detection_digest(cfg, spec, mode) == digest


def test_golden_digest_one_blas_thread():
    # the in-process digests run at the default BLAS thread count; the seeded
    # ones must not change when OpenBLAS runs on one thread or on four
    cases = ("tiny_seeded", "default_seeded")
    code = (
        "import test_harness as h\n"
        f"for case in {cases!r}:\n"
        "    print(case, h.detection_digest(*h.GOLDEN_DIGESTS[case][:3]))\n"
    )
    for threads in (1, 4):
        got = dict(line.split() for line in run_at_blas_threads(code, threads))
        assert got == {case: GOLDEN_DIGESTS[case][3] for case in cases}, threads


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
