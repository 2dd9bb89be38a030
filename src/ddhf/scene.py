"""Synthetic scene generation: surface-sampled boxes, clutter, blob images.

Stands in for a real driving dataset. Points are sampled on oriented box
surfaces plus a uniform ground-clutter layer; each camera renders objects as
class-colored Gaussian blobs on a dark background, which gives the image
branch structured input with controllable appearance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CameraModel, is_int, is_real, load_tensor, named_draws, save_tensor
from .evalmetrics import BOX, box_record
from .jsonio import RANGE, check_record, dump, load, numbers

DEFAULT_IMAGE_SIZE = (64, 96)
DEFAULT_FOCAL = 48.0
CAMERA_HEIGHT = 2.0
GROUND_LAYER = 0.5
BACKGROUND = 0.05
CLASS_COLORS = (
    (1.0, 0.25, 0.2),
    (0.2, 1.0, 0.25),
    (0.25, 0.2, 1.0),
)


@dataclass(frozen=True)
class SceneObject:
    class_id: int
    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    density: float = 40.0  # surface points per square meter

    def __post_init__(self):
        # single-field bounds live in _OBJECT, the table spec-file objects are read with
        record = {"class": self.class_id, **vars(self)}
        del record["class_id"]
        check_record(record, _OBJECT, "object.")


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    x_range: tuple[float, float] = (-54.0, 54.0)
    y_range: tuple[float, float] = (-54.0, 54.0)
    z_range: tuple[float, float] = (-5.0, 3.0)
    objects: tuple[SceneObject, ...] = ()
    cameras: tuple[CameraModel, ...] = ()
    image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE
    n_clutter: int = 3000
    noise_sigma: float = 0.02

    def __post_init__(self):
        # single-field bounds live in _SPEC; the cross-field rules follow
        check_record({k: v for k, v in vars(self).items() if k in _SPEC}, _SPEC, "spec.")
        ranges = (self.x_range, self.y_range, self.z_range)
        for i, obj in enumerate(self.objects):
            for axis, (lo, hi) in enumerate(ranges):
                if not lo <= obj.center[axis] <= hi:
                    raise ValueError(
                        f"objects[{i}]: center {obj.center} outside world range on axis {axis}"
                    )
        if not self.cameras:
            object.__setattr__(self, "cameras", default_cameras(image_size=self.image_size))
        for cam in self.cameras:
            if tuple(cam.image_size) != tuple(self.image_size):
                raise ValueError("camera image_size must match scene image_size")


def default_cameras(
    n: int = 4, image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE
) -> tuple[CameraModel, ...]:
    """Ring of cameras at the origin, 90-degree yaw steps, looking outward."""
    h, w = image_size
    intr = np.array(
        [
            [DEFAULT_FOCAL, 0.0, (w - 1) / 2.0],
            [0.0, DEFAULT_FOCAL, (h - 1) / 2.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=np.float64,
    )
    cams = []
    pos = np.array([0.0, 0.0, CAMERA_HEIGHT])
    for i in range(n):
        yaw = 2.0 * math.pi * i / n
        c, s = math.cos(yaw), math.sin(yaw)
        # camera axes: x right, y down, z forward (= world heading (c, s, 0))
        rot = np.array(
            [
                [s, -c, 0.0],
                [0.0, 0.0, -1.0],
                [c, s, 0.0],
            ],
            dtype=np.float64,
        )
        extr = np.eye(4)
        extr[:3, :3] = rot
        extr[:3, 3] = -rot @ pos
        cams.append(CameraModel(intrinsics=intr, extrinsics=extr, image_size=(h, w)))
    return tuple(cams)


def _normals(label: str, seed: int, count: int) -> np.ndarray:
    u = named_draws(label, seed, 2 * count)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:count]))
    return r * np.cos(2.0 * math.pi * u[count:])


def sample_object_points(obj: SceneObject, seed: int, index: int) -> np.ndarray:
    """Sample (n, 4) points uniformly on the box surface, intensity in [0,1)."""
    length, width, height = obj.size
    areas = np.array(
        [
            width * height,
            width * height,
            length * height,
            length * height,
            length * width,
            length * width,
        ]
    )
    total = float(areas.sum())
    n = max(1, int(math.ceil(obj.density * total)))
    u = named_draws(f"scene.object{index}.surface", seed, 3 * n)
    pick, ua, ub = u[:n], u[n : 2 * n], u[2 * n :]
    face = np.searchsorted(np.cumsum(areas) / total, pick, side="right")
    face = np.minimum(face, 5)

    half = np.array([length, width, height]) / 2.0
    local = np.empty((n, 3))
    axis = face // 2  # 0: +/-x face, 1: +/-y, 2: +/-z
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    others = np.array([(1, 2), (0, 2), (0, 1)])
    for ax in range(3):
        rows = axis == ax
        o1, o2 = others[ax]
        local[rows, ax] = sign[rows] * half[ax]
        local[rows, o1] = (ua[rows] - 0.5) * 2.0 * half[o1]
        local[rows, o2] = (ub[rows] - 0.5) * 2.0 * half[o2]

    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    world = local @ rot.T + np.asarray(obj.center)
    intensity = named_draws(f"scene.object{index}.intensity", seed, n)
    return np.concatenate([world, intensity[:, None]], axis=1).astype(np.float32)


def _clutter_points(spec: SceneSpec) -> np.ndarray:
    n = spec.n_clutter
    u = named_draws("scene.clutter", spec.seed, 4 * n).reshape(4, n)
    x = spec.x_range[0] + u[0] * (spec.x_range[1] - spec.x_range[0])
    y = spec.y_range[0] + u[1] * (spec.y_range[1] - spec.y_range[0])
    z = spec.z_range[0] + u[2] * GROUND_LAYER
    return np.stack([x, y, z, u[3]], axis=1).astype(np.float32)


def gen_points(spec: SceneSpec) -> np.ndarray:
    """Full scene cloud: object surfaces (jittered by noise_sigma) + clutter."""
    parts = []
    for i, obj in enumerate(spec.objects):
        pts = sample_object_points(obj, spec.seed, i)
        if spec.noise_sigma > 0.0:
            jitter = _normals(f"scene.object{i}.noise", spec.seed, 3 * pts.shape[0])
            pts = pts.copy()
            pts[:, :3] += spec.noise_sigma * jitter.reshape(pts.shape[0], 3).astype(
                np.float32
            )
        parts.append(pts)
    parts.append(_clutter_points(spec))
    return np.concatenate(parts, axis=0).astype(np.float32)


def render_images(spec: SceneSpec) -> list[np.ndarray]:
    """One (h, w, 3) float image per camera, blobs over dark background."""
    h, w = spec.image_size
    vv, uu = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    images = []
    for cam in spec.cameras:
        img = np.full((h, w, 3), BACKGROUND, dtype=np.float64)
        for obj in spec.objects:
            center = np.asarray(obj.center, dtype=np.float64)[None, :]
            (u,), (v,), (z,) = cam.project(center)
            if z < 0.5:
                continue
            radius = cam.intrinsics[0, 0] * 0.5 * max(obj.size[0], obj.size[1]) / z
            radius = min(max(radius, 1.0), 30.0)
            if u < -3 * radius or u > w - 1 + 3 * radius:
                continue
            if v < -3 * radius or v > h - 1 + 3 * radius:
                continue
            blob = np.exp(-((uu - u) ** 2 + (vv - v) ** 2) / (2.0 * (radius / 2.0) ** 2))
            color = np.asarray(CLASS_COLORS[obj.class_id % len(CLASS_COLORS)])
            img += blob[:, :, None] * color[None, None, :]
        images.append(np.clip(img, 0.0, 1.0).astype(np.float32))
    return images


def gen_scene(spec: SceneSpec, out_dir: str | Path) -> Path:
    """Write points.bin, cam_<i>.bin, cameras.json, gt.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_tensor(out / "points.bin", gen_points(spec))
    for i, img in enumerate(render_images(spec)):
        save_tensor(out / f"cam_{i}.bin", img)
    cams = [
        {
            "intrinsics": cam.intrinsics.tolist(),
            "extrinsics": cam.extrinsics.tolist(),
            "image_size": list(spec.image_size),
        }
        for cam in spec.cameras
    ]
    dump({"cameras": cams}, out / "cameras.json")
    dump({"objects": [box_record(obj) for obj in spec.objects]}, out / "gt.json")
    return out


_CAMERAS = {  # cameras.json key -> (check, what it must be, required)
    "cameras": (
        lambda v: isinstance(v, tuple), 'a list of camera objects (the "cameras" list)', True
    ),
}
_CAMERA = {  # values are checked by CameraModel
    "intrinsics": (lambda v: isinstance(v, tuple), "a 3x3 list of numbers", True),
    "extrinsics": (lambda v: isinstance(v, tuple), "a 4x4 list of numbers", True),
    "image_size": (numbers(2, is_int), "a list of 2 integers", True),
}


def _load_cameras(path: Path) -> list[CameraModel]:
    """Cameras of a cameras.json file. An unknown or missing key names the
    file and the camera index, as does a value CameraModel rejects."""
    records = check_record(load(path), _CAMERAS, f"{path}: ")["cameras"]
    cameras = []
    for i, data in enumerate(records):
        where = f"{path}: camera {i}: "
        cam = check_record(data, _CAMERA, where)
        try:
            cameras.append(CameraModel(
                intrinsics=np.asarray(cam["intrinsics"], dtype=np.float64),
                extrinsics=np.asarray(cam["extrinsics"], dtype=np.float64),
                image_size=cam["image_size"],
            ))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}{exc}") from exc
    return cameras


def load_scene(scene_dir: str | Path):
    """Read a scene directory -> (points, images, cameras, gt dict, or None
    when the directory holds no gt.json)."""
    d = Path(scene_dir)
    if not (d / "points.bin").exists():
        raise FileNotFoundError(f"not a scene directory (no points.bin): {d}")
    points = load_tensor(d / "points.bin")
    if points.ndim != 2 or points.shape[1] != 4:
        raise ValueError(f"points.bin must be (n, 4), got {points.shape}")
    cameras = _load_cameras(d / "cameras.json")
    images = []
    for i, camera in enumerate(cameras):
        img = load_tensor(d / f"cam_{i}.bin")
        expect = camera.image_size + (3,)
        if img.shape != expect:
            raise ValueError(f"cam_{i}.bin shape {img.shape} != declared {expect}")
        images.append(img)
    gt = load(d / "gt.json") if (d / "gt.json").exists() else None
    return points, images, cameras, gt


def spec_to_dict(spec: SceneSpec) -> dict:
    return {
        "seed": spec.seed,
        "x_range": list(spec.x_range),
        "y_range": list(spec.y_range),
        "z_range": list(spec.z_range),
        "objects": [box_record(o, density=o.density) for o in spec.objects],
        "image_size": list(spec.image_size),
        "n_clutter": spec.n_clutter,
        "noise_sigma": spec.noise_sigma,
    }


_SPEC = {  # spec key -> (check, what it must be, required)
    "seed": (is_int, "an integer", True),
    "x_range": RANGE,
    "y_range": RANGE,
    "z_range": RANGE,
    "objects": (lambda v: isinstance(v, tuple), "a list", False),
    "image_size": (
        numbers(2, lambda n: is_int(n) and n >= 8 and n % 4 == 0),
        "a list of 2 integers, each a multiple of 4 and at least 8",
        False,
    ),
    "n_clutter": (lambda v: is_int(v) and v >= 0, "an integer >= 0", False),
    "noise_sigma": (lambda v: is_real(v) and v >= 0.0, "a finite number >= 0", False),
}
_OBJECT = {**BOX, "density": (lambda v: is_real(v) and v > 0, "a finite number > 0", False)}


def _object_from_dict(data, where: str) -> SceneObject:
    record = check_record(data, _OBJECT, where)
    return SceneObject(class_id=record.pop("class"), **record)


def spec_from_dict(data: dict) -> SceneSpec:
    """A SceneSpec from its JSON form. A non-object, an unknown or missing
    key, or a field failing its table raises ValueError naming the field
    (`spec.objects[1].size`)."""
    spec = check_record(data, _SPEC, "spec.")
    objects = spec.get("objects", ())
    spec["objects"] = tuple(
        _object_from_dict(o, f"spec.objects[{i}].") for i, o in enumerate(objects)
    )
    return SceneSpec(**spec)


def save_spec(spec: SceneSpec, path: str | Path) -> None:
    dump(spec_to_dict(spec), path)


def load_spec(path: str | Path) -> SceneSpec:
    return spec_from_dict(load(path))
