"""Output checks applied to every frame the benchmark runs.

Detections are compared as an (n, 9) float64 table with columns
center xyz, size xyz, yaw, class, score.

- every frame: all values finite, classes in [0, k_classes), scores in
  [0, 1], sizes positive, 1 <= count <= k_easy + k_hard;
- passthrough frames: AP@0.5 m = 1.0 for the planted class 0;
- seeded frames on the reference scene: byte-identical to each other and
  equal to the stored reference in count and classes, with every float
  within REF_RTOL / REF_ATOL (yaw compared modulo 2*pi). Passthrough weights
  zero the scan outputs, so only this check sees a broken scan.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ddhf.config import PipelineConfig
from ddhf.evalmetrics import eval_detections

REF_RTOL = 1e-4
REF_ATOL = 1e-4
AP_THRESHOLD = 0.5
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CLASS_COL, SCORE_COL, YAW_COL = 7, 8, 6


def detection_table(dets) -> np.ndarray:
    rows = [[*d.center, *d.size, d.yaw, d.class_id, d.score] for d in dets]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 9)


def table_to_dicts(table: np.ndarray) -> list[dict]:
    return [
        {"center": row[0:3].tolist(), "class": int(row[CLASS_COL]), "score": row[SCORE_COL]}
        for row in table
    ]


def frame_problems(table: np.ndarray, cfg: PipelineConfig) -> list[str]:
    """Reasons the frame's detections are malformed; empty when valid."""
    problems = []
    n = table.shape[0]
    if not 1 <= n <= cfg.k_easy + cfg.k_hard:
        problems.append(f"{n} detections, expected 1..{cfg.k_easy + cfg.k_hard}")
    if not np.all(np.isfinite(table)):
        return problems + ["non-finite detection values"]
    cls = table[:, CLASS_COL]
    if np.any((cls < 0) | (cls >= cfg.k_classes) | (cls != np.round(cls))):
        problems.append("class id out of range")
    score = table[:, SCORE_COL]
    if np.any((score < 0.0) | (score > 1.0)):
        problems.append("score outside [0, 1]")
    if np.any(table[:, 3:6] <= 0.0):
        problems.append("non-positive box size")
    return problems


def ap_problems(table: np.ndarray, truth: list[dict]) -> list[str]:
    ap = eval_detections(table_to_dicts(table), truth, (AP_THRESHOLD,)).ap_at(0, AP_THRESHOLD)
    return [] if ap == 1.0 else [f"passthrough AP@{AP_THRESHOLD} m = {ap:.4f}, expected 1.0"]


def load_reference(workload: str) -> np.ndarray:
    with REFERENCE_PATH.open() as f:
        return np.asarray(json.load(f)[workload], dtype=np.float64).reshape(-1, 9)


def reference_problems(table: np.ndarray, reference: np.ndarray) -> list[str]:
    if table.shape != reference.shape:
        return [f"{table.shape[0]} detections, reference has {reference.shape[0]}"]
    if not np.array_equal(table[:, CLASS_COL], reference[:, CLASS_COL]):
        return ["classes differ from the reference"]
    yaw_diff = np.angle(np.exp(1j * (table[:, YAW_COL] - reference[:, YAW_COL])))
    rest = [c for c in range(9) if c not in (CLASS_COL, YAW_COL)]
    close = np.isclose(table[:, rest], reference[:, rest], rtol=REF_RTOL, atol=REF_ATOL)
    yaw_ok = np.abs(yaw_diff) <= REF_ATOL + REF_RTOL * math.pi
    if not (np.all(close) and np.all(yaw_ok)):
        return [f"detections differ from the reference beyond rtol={REF_RTOL} atol={REF_ATOL}"]
    return []
