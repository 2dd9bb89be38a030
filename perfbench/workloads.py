"""Workload definitions and seeded scene generation for the frame benchmark.

Every scene is drawn from the workload seed and the frame index alone, so
the same seed gives the same inputs. A scene plants 2-5 class-0 boxes on BEV
cell centers, at least MIN_GAP_CELLS apart, plus 500-4000 ground-clutter
points. Planting on cell centers lets the passthrough weights (whose boxes
sit on their query's cell center) reach AP@0.5 m = 1.0, which is the
benchmark's end-to-end accuracy check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ddhf.config import PipelineConfig
from ddhf.scene import SceneObject, SceneSpec, gen_points, render_images

MIN_GAP_CELLS = 4.0
EDGE_CELLS = 2  # keep planted boxes clear of the grid border
OBJECT_SIZE = (1.8, 1.8, 1.7)
CLUTTER_RANGE = (500, 4000)
OBJECT_RANGE = (2, 5)
# the fixed scene every set-up and warm-up frame runs; its seeded detections
# are stored in reference.json
REFERENCE_SCENE_SEED = 20250311

# the 16x16 configuration the test suite uses as TINY
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


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: PipelineConfig
    cameras: bool
    # passthrough AP check frames per run, on the first timed scenes
    check_frames: int


WORKLOADS = {
    w.name: w
    for w in (
        # paper operating point: SAFS keeps ~35k cells, FPS trims to 18k and
        # the voxel-fusion scans run over ~19k steps
        Workload("frame_default", PipelineConfig(), cameras=True, check_frames=1),
        # same config and scenes without cameras: no SAFS/FPS/LSS, short voxel
        # sequences, so the 16 BEV-direction scans and the decoder dominate
        Workload("lidar_only", PipelineConfig(), cameras=False, check_frames=2),
        # fixed per-call cost dominates; enough frames for a tail percentile
        Workload("tiny_stream", TINY, cameras=True, check_frames=10),
    )
}


@dataclass(frozen=True)
class Scene:
    points: np.ndarray
    images: list
    cameras: list
    truth: list  # [{"class": 0, "center": [x, y, z]}] for eval_detections


def _plant_cells(rng: np.random.Generator, nx: int, ny: int, count: int) -> list:
    cells: list[np.ndarray] = []
    while len(cells) < count:
        cell = rng.integers(EDGE_CELLS, [nx - EDGE_CELLS, ny - EDGE_CELLS])
        if all(np.hypot(*(cell - other)) >= MIN_GAP_CELLS for other in cells):
            cells.append(cell)
    return cells


def make_scene(workload: Workload, seed: int, index: int) -> Scene:
    """Scene `index` of the stream for `seed`; identical for identical args."""
    rng = np.random.default_rng([seed, index])
    grid = workload.cfg.lidar_grid()
    count = int(rng.integers(OBJECT_RANGE[0], OBJECT_RANGE[1] + 1))
    objects = tuple(
        SceneObject(
            0,
            (
                float(grid.origin[0] + (cx + 0.5) * grid.voxel_size[0]),
                float(grid.origin[1] + (cy + 0.5) * grid.voxel_size[1]),
                0.0,
            ),
            OBJECT_SIZE,
            0.0,
        )
        for cx, cy in _plant_cells(rng, grid.nx, grid.ny, count)
    )
    spec = SceneSpec(
        seed=int(rng.integers(2**31)),
        objects=objects,
        n_clutter=int(rng.integers(CLUTTER_RANGE[0], CLUTTER_RANGE[1] + 1)),
    )
    truth = [{"class": o.class_id, "center": list(o.center)} for o in objects]
    if workload.cameras:
        return Scene(gen_points(spec), render_images(spec), list(spec.cameras), truth)
    return Scene(gen_points(spec), [], [], truth)


def reference_scene(workload: Workload) -> Scene:
    return make_scene(workload, REFERENCE_SCENE_SEED, 0)


def passthrough_cfg(workload: Workload) -> PipelineConfig:
    return replace(workload.cfg, weights_mode="passthrough")
