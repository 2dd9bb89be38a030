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


def _near(dets, x: float, y: float) -> list:
    """The detections within 0.5 m of (x, y) in x, y."""
    return [d for d in dets if math.hypot(d.center[0] - x, d.center[1] - y) <= 0.5]


def test_bev_rotation_rotates_planted_detections():
    # the TINY grid is square and centred on the origin, so a 90 degree turn
    # about z, (x, y) -> (-y, x), maps every BEV cell onto a cell exactly; a
    # row/column swap in any BEV stage moves the planted detections off the
    # turned cells. Only planted detections are compared: nms_topk breaks
    # exact ties by flat (class, row, col) index, which the turn reorders.
    cfg = dataclasses.replace(TINY, weights_mode="passthrough")
    points = gen_points(SPEC)
    turned = points.copy()
    turned[:, 0], turned[:, 1] = -points[:, 1], points[:, 0]
    dets, _ = run_pipeline(points, [], [], cfg)
    turned_dets, _ = run_pipeline(turned, [], [], cfg)
    for x, y in PLANTED:
        (d,), (t,) = _near(dets, x, y), _near(turned_dets, -y, x)
        assert t.center == (-d.center[1], d.center[0], d.center[2])
        assert (t.size, t.yaw, t.class_id, t.score) == (d.size, d.yaw, d.class_id, d.score)
