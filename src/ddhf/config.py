"""Pipeline configuration: detection range, grid shapes, thresholds, widths.

One frozen dataclass carries every knob the pipeline reads. Defaults follow
the reference operating point: score thresholds d=0.01 / s=0.25, sampling cap
N=18000, detection range x,y in [-54, 54] and z in [-5, 3], three deformable
decoder layers and one voxel fusion layer. Voxel fusion's strides (1, 2, 4)
are fixed by its three-scale U shape (`hvf.STRIDES`), not a setting;
`PipelineConfig.strides` reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import GridSpec, is_int, is_real
from .hvf import STRIDES
from .jsonio import check_record, dump, load, numbers
from .viewtrans import DepthBinSpec

WEIGHTS_MODES = ("seeded", "passthrough")


@dataclass(frozen=True)
class PipelineConfig:
    global_seed: int = 0
    x_range: tuple[float, float] = (-54.0, 54.0)
    y_range: tuple[float, float] = (-54.0, 54.0)
    z_range: tuple[float, float] = (-5.0, 3.0)
    # cells per axis; image branch doubles the lidar z resolution
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
        for name in ("x_range", "y_range", "z_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must be ascending, got ({lo}, {hi})")
        lc, ic = self.lidar_cells, self.image_cells
        if any(n <= 0 for n in lc + ic):
            raise ValueError("grid cell counts must be positive")
        if lc[0] != ic[0] or lc[1] != ic[1]:
            raise ValueError("lidar and image grids must share x/y cell counts")
        if ic[2] != 2 * lc[2]:
            raise ValueError(
                f"image grid needs twice the lidar z cells, got {ic[2]} vs {lc[2]}"
            )
        # the voxel fusion stage downsamples x/y to its coarsest stride
        if lc[0] % STRIDES[-1] != 0 or lc[1] % STRIDES[-1] != 0:
            raise ValueError(f"x/y cell counts must be divisible by {STRIDES[-1]}")
        if self.channels < 4 or self.channels % 4 != 0:
            raise ValueError("channels must be a positive multiple of 4")
        if self.d_state < 1:
            raise ValueError("d_state must be >= 1")
        if not 0.0 < self.d_thresh < 1.0 or not 0.0 < self.s_thresh < 1.0:
            raise ValueError("score thresholds must lie in (0, 1)")
        if self.safs_cap < 1:
            raise ValueError("safs_cap must be >= 1")
        if not (self.depth_min > 0.0 and self.depth_max > self.depth_min):
            raise ValueError("depth bin range must satisfy 0 < min < max")
        if self.depth_count < 2:
            raise ValueError("depth_count must be >= 2")
        if min(self.k_easy, self.k_hard, self.k_classes) < 1:
            raise ValueError("k_easy, k_hard, k_classes must be >= 1")
        if self.n_bev < 1 or self.m_vox < 1:
            raise ValueError("decoder layer counts must be >= 1")

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


_INT = (is_int, "an integer", False)
_REAL = (is_real, "a finite number", False)
_RANGE = (numbers(2, is_real), "a list of 2 finite numbers", False)
_CELLS = (numbers(3, is_int), "a list of 3 integers", False)
_FIELDS = {  # config key -> (check, what it must be, required)
    "global_seed": _INT,
    "x_range": _RANGE,
    "y_range": _RANGE,
    "z_range": _RANGE,
    "lidar_cells": _CELLS,
    "image_cells": _CELLS,
    "channels": _INT,
    "d_state": _INT,
    "d_thresh": _REAL,
    "s_thresh": _REAL,
    "safs_cap": _INT,
    "depth_min": _REAL,
    "depth_max": _REAL,
    "depth_count": _INT,
    "k_easy": _INT,
    "k_hard": _INT,
    "k_classes": _INT,
    "n_bev": _INT,
    "m_vox": _INT,
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
