"""Center-distance average precision for detection lists.

Matching is greedy per class per threshold: detections in descending score
order each take the nearest unmatched ground-truth center within the
threshold. Distances are measured in the ground plane (x, y). AP uses
101-point interpolation; mAP averages over classes with ground truth and
all thresholds.

It also owns the box record every box file holds (detections, ground
truth, scene spec objects): `BOX`, the table `jsonio.check_record` reads
it with, and `box_record`, its one writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import is_int, is_real
from .jsonio import numbers

THRESHOLDS = (0.5, 1.0, 2.0, 4.0)

BOX = {  # box key -> (check, what it must be, required), in written key order
    "center": (numbers(3, is_real), "a list of 3 finite numbers", True),
    "size": (
        numbers(3, lambda v: is_real(v) and v > 0), "a list of 3 positive finite numbers", True
    ),
    "yaw": (is_real, "a finite number", True),
    "class": (lambda v: is_int(v) and v >= 0, "an integer >= 0", True),
}


def box_record(box, **extra) -> dict:
    """The BOX record of anything with center, size, yaw and class_id
    (a DetectionBox, a SceneObject), followed by the `extra` keys."""
    return {
        "center": [float(v) for v in box.center],
        "size": [float(v) for v in box.size],
        "yaw": float(box.yaw),
        "class": int(box.class_id),
        **extra,
    }


@dataclass(frozen=True)
class EvalResult:
    ap: dict  # (class_id, threshold) -> AP
    m_ap: float

    def __post_init__(self):
        for key, val in self.ap.items():
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"AP out of [0,1] for {key}: {val}")

    def ap_at(self, class_id: int, threshold: float) -> float:
        return self.ap[(class_id, threshold)]


def _ranked_matches(dets, gts, threshold: float) -> list[bool]:
    """True-positive flags in descending-score order (ties keep input order)."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i]["score"], i))
    taken = [False] * len(gts)
    flags = []
    for i in order:
        dx, dy = dets[i]["center"][0], dets[i]["center"][1]
        best, best_dist = -1, float("inf")
        for g, gt in enumerate(gts):
            if taken[g]:
                continue
            dist = math.hypot(dx - gt["center"][0], dy - gt["center"][1])
            if dist <= threshold and dist < best_dist:
                best, best_dist = g, dist
        if best >= 0:
            taken[best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _average_precision(flags: list[bool], n_gt: int) -> float:
    if n_gt == 0:
        raise ValueError("AP undefined without ground truth")
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1, dtype=np.float64)
    precision = tp / ranks
    recall = tp / n_gt
    total = 0.0
    for step in range(101):
        r = step / 100.0
        mask = recall >= r - 1e-12
        total += float(precision[mask].max()) if mask.any() else 0.0
    return total / 101.0


def eval_detections(dets, gts, thresholds=THRESHOLDS) -> EvalResult:
    """dets/gts: lists of dicts with 'center', 'class', and (dets) 'score'."""
    classes = sorted({int(g["class"]) for g in gts})
    ap = {}
    for cls in classes:
        cls_dets = [d for d in dets if int(d["class"]) == cls]
        cls_gts = [g for g in gts if int(g["class"]) == cls]
        for thr in thresholds:
            flags = _ranked_matches(cls_dets, cls_gts, float(thr))
            ap[(cls, float(thr))] = _average_precision(flags, len(cls_gts))
    m_ap = float(np.mean(list(ap.values()))) if ap else 0.0
    return EvalResult(ap=ap, m_ap=m_ap)
