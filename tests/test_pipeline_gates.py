"""Whole-pipeline gates for what the paper claims of its stages."""

import dataclasses
import math

import pytest

from ddhf.pipeline import run_pipeline
from ddhf.scene import SceneObject, SceneSpec, gen_points

from test_harness import TINY

# six TINY BEV cells, three or more cells apart, so no planted object falls
# in another's 3x3 NMS window or easy-query mask
PLANTED_CELLS = ((2, 2), (2, 8), (2, 13), (8, 5), (8, 11), (13, 8))
GRID = TINY.lidar_grid()
PLANTED = tuple(
    (GRID.origin[0] + (ix + 0.5) * GRID.voxel_size[0],
     GRID.origin[1] + (iy + 0.5) * GRID.voxel_size[1])
    for ix, iy in PLANTED_CELLS
)
SPEC = SceneSpec(
    seed=3,
    objects=tuple(SceneObject(0, (x, y, 0.0), (1.8, 1.8, 1.7), 0.0) for x, y in PLANTED),
)


def _found(dets) -> set[int]:
    """Indices of the planted objects with a detection within 0.5 m in x, y."""
    return {
        i
        for i, (x, y) in enumerate(PLANTED)
        if any(math.hypot(d.center[0] - x, d.center[1] - y) <= 0.5 for d in dets)
    }


@pytest.mark.parametrize("k_hard, want_recall", [(10, 1.0), (3, 5 / 6)])
def test_pqg_hard_stage_finds_what_the_easy_stage_leaves(k_hard, want_recall):
    # passthrough heatmaps score every planted cell above the clutter, so two
    # easy queries find two planted objects and only the hard stage can
    # reach the other four; with k_hard = 3 it cannot cover them and recall
    # drops below 1
    cfg = dataclasses.replace(TINY, weights_mode="passthrough", k_easy=2, k_hard=k_hard)
    dets, _ = run_pipeline(gen_points(SPEC), [], [], cfg)
    easy, hard = _found(dets[: cfg.k_easy]), _found(dets[cfg.k_easy :])
    assert len(easy) == 2 and not easy & hard
    assert len(easy | hard) / len(PLANTED) == want_recall
