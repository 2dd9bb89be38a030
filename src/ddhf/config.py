"""Pipeline configuration: detection range, grid shapes, thresholds, widths.

One frozen dataclass carries every knob the pipeline reads. Defaults follow
the reference operating point: score thresholds d=0.01 / s=0.25, sampling cap
N=18000, detection range x,y in [-54, 54] and z in [-5, 3], three deformable
decoder layers and one voxel fusion layer. Voxel fusion's strides (1, 2, 4)
are fixed by its three-scale U shape (`hvf.STRIDES`), not a setting;
`PipelineConfig.strides` reads them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .core import GridSpec, is_int, is_real
from .curve import MAX_BITS
from .hvf import IMAGE_LIFT, STRIDES, image_extents
from .jsonio import RANGE, check_record, dump, load, numbers
from .viewtrans import DepthBinSpec

WEIGHTS_MODES = ("seeded", "passthrough")


@dataclass(frozen=True)
class PipelineConfig:
    global_seed: int = 0
    x_range: tuple[float, float] = (-54.0, 54.0)
    y_range: tuple[float, float] = (-54.0, 54.0)
    z_range: tuple[float, float] = (-5.0, 3.0)
    # cells per axis; image_cells must be hvf.image_extents(lidar_cells)
    lidar_cells: tuple[int, int, int] = (48, 48, 8)
    image_cells: tuple[int, int, int] = (48, 48, 16)
    channels: int = 32
    d_state: int = 16
    d_thresh: float = 0.01
    s_thresh: float = 0.25
    safs_cap: int = 18000
    depth_min: float = 1.0
    depth_max: float = 54.0
    depth_count: int = 32
    k_easy: int = 100
    k_hard: int = 100
    k_classes: int = 3
    n_bev: int = 3
    m_vox: int = 1
    weights_mode: str = "seeded"
    strides = STRIDES  # a class attribute, not a field: voxel fusion fixes it

    def __post_init__(self):
        given = vars(self)
        for key, val in check_record(given, _FIELDS, "config.").items():
            # the checker reads a JSON list as a tuple; from Python, pass the tuple
            if val is not given[key]:
                raise ValueError(f"config.{key} must be a tuple, got {given[key]!r}")
        want = image_extents(self.lidar_cells)
        if self.image_cells != want:
            raise ValueError(
                f"config.image_cells must be {want} (lidar_cells times {IMAGE_LIFT}),"
                f" got {self.image_cells}"
            )
        if not self.depth_max > self.depth_min:
            raise ValueError(
                f"config.depth_max must be > depth_min ({self.depth_min}), got {self.depth_max}"
            )

    def lidar_grid(self) -> GridSpec:
        return _grid(self.x_range, self.y_range, self.z_range, self.lidar_cells)

    def image_grid(self) -> GridSpec:
        return _grid(self.x_range, self.y_range, self.z_range, self.image_cells)

    def depth_bins(self) -> DepthBinSpec:
        return DepthBinSpec(self.depth_min, self.depth_max, self.depth_count)


def _grid(xr, yr, zr, cells) -> GridSpec:
    origin = (xr[0], yr[0], zr[0])
    spans = (xr[1] - xr[0], yr[1] - yr[0], zr[1] - zr[0])
    voxel = tuple(span / int(n) for span, n in zip(spans, cells))
    return GridSpec(origin=origin, voxel_size=voxel, extents=tuple(int(n) for n in cells))


def _int(least: int):
    return (lambda v: is_int(v) and v >= least, f"an integer >= {least}", False)


def _divisible(v) -> bool:
    # voxel fusion halves every axis down to its coarsest stride, and its
    # cross-modal merge needs the image grid to stay the LiDAR grid times
    # IMAGE_LIFT at each scale: an odd halving on z breaks that
    return all(n % STRIDES[-1] == 0 for n in v)


# SAFS visits every cell of the image grid, the largest grid a frame walks;
# 2**24 cells is 455x the default image grid's 36,864. The LiDAR grid, half
# the image grid's cells, then gives HBF at most 2**23 pillars.
MAX_GRID_CELLS = 2**24

# at most 2**MAX_BITS cells per axis: the Hilbert order's bits per axis
_CELLS = (
    lambda v: numbers(3, lambda n: is_int(n) and 0 < n <= 2**MAX_BITS)(v)
    and _divisible(v)
    and math.prod(v) <= MAX_GRID_CELLS,
    f"a list of 3 integers in [1, {2**MAX_BITS}], each divisible by {STRIDES[-1]},"
    f" at most {MAX_GRID_CELLS} cells in all",
    False,
)
_FRACTION = (lambda v: is_real(v) and 0.0 < v < 1.0, "a number in (0, 1)", False)
_FIELDS = {  # config key -> (check, what it must be, required)
    "global_seed": (is_int, "an integer", False),
    "x_range": RANGE,
    "y_range": RANGE,
    "z_range": RANGE,
    "lidar_cells": _CELLS,
    "image_cells": _CELLS,
    "channels": (lambda v: is_int(v) and v >= 4 and v % 4 == 0, "a positive multiple of 4", False),
    "d_state": _int(1),
    "d_thresh": _FRACTION,
    "s_thresh": _FRACTION,
    "safs_cap": _int(1),
    "depth_min": (lambda v: is_real(v) and v > 0.0, "a finite number > 0", False),
    "depth_max": (is_real, "a finite number", False),
    "depth_count": _int(2),
    "k_easy": _int(1),
    "k_hard": _int(1),
    "k_classes": _int(1),
    "n_bev": _int(1),
    "m_vox": _int(1),
    "weights_mode": (lambda v: v in WEIGHTS_MODES, f"one of {list(WEIGHTS_MODES)}", False),
}


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {key: getattr(cfg, key) for key in _FIELDS}


def config_from_dict(data: dict) -> PipelineConfig:
    return PipelineConfig(**check_record(data, _FIELDS, "config."))


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    dump(config_to_dict(cfg), path)


def load_config(path: str | Path) -> PipelineConfig:
    return config_from_dict(load(path))
