"""Command-line surface: scene generation, pipeline runs, evaluation, oracles."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import jsonio, oracles
from .config import PipelineConfig, load_config
from .core import is_real, load_tensor, save_tensor
from .evalmetrics import BOX, eval_detections
from .pipeline import detections_to_dicts, run_pipeline
from .scene import gen_scene, load_scene, load_spec
from .viewtrans import FEATURE_STRIDE


def _cmd_gen_scene(args) -> int:
    spec = load_spec(args.spec)
    out = gen_scene(spec, args.out)
    names = sorted(p.name for p in Path(out).iterdir())
    print(f"wrote {len(names)} files to {out}: {', '.join(names)}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = replace(cfg, global_seed=args.seed)
    points, images, cameras, _gt = load_scene(args.scene)
    dets, log = run_pipeline(points, images, cameras, cfg)
    jsonio.dump(detections_to_dicts(dets), args.out)
    for line in log.lines():
        print(line)
    print(f"{len(dets)} detections -> {args.out}")
    return 0


_DETECTION = {
    **BOX, "score": (lambda v: is_real(v) and 0.0 <= v <= 1.0, "a number in [0, 1]", True)
}


def _load_boxes(path: str, scored: bool) -> list[dict]:
    """Box records of a detection file (a JSON list; `scored`) or of a
    ground-truth file (an object holding an "objects" list), each checked;
    an error names the file and the record index."""
    data = jsonio.load(path)
    if scored:
        if not isinstance(data, list):
            raise ValueError(f"{path}: detections must be a JSON list")
        records = data
    else:
        if not (isinstance(data, dict) and isinstance(data.get("objects"), list)):
            raise ValueError(f'{path}: ground truth must be an object with an "objects" list')
        records = data["objects"]
    table = _DETECTION if scored else BOX
    return [
        jsonio.check_record(rec, table, f"{path}: record {i}: ") for i, rec in enumerate(records)
    ]


def _cmd_eval(args) -> int:
    dets = _load_boxes(args.det, scored=True)
    gt = _load_boxes(args.gt, scored=False)
    result = eval_detections(dets, gt)
    report = {
        "ap": [
            {"class": cls, "threshold": thr, "ap": val}
            for (cls, thr), val in sorted(result.ap.items())
        ],
        "map": result.m_ap,
    }
    print(jsonio.dumps(report))
    return 0


def _parse_pair(flag: str, text: str) -> tuple[float, float]:
    """Two finite comma-separated numbers; an error names the flag."""
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 2 or not all(math.isfinite(v) for v in parts):
        raise ValueError(f"--{flag} must be two finite comma-separated numbers, got {text!r}")
    return parts[0], parts[1]


def _check_count(flag: str, value: int, most: int | None = None) -> None:
    """The bound the oracle's library twin enforces, named by its flag:
    at least 1 and, if given, at most `most`."""
    if value < 1 or (most is not None and value > most):
        bound = ">= 1" if most is None else f"in [1, {most}]"
        raise ValueError(f"--{flag} must be {bound}, got {value}")


def _check_shape(what: str, t: np.ndarray, shape: tuple) -> None:
    """t has `shape`, in which a str names a free axis; an error names
    `what`, the tensor's flag or --inputs file."""
    if t.ndim != len(shape) or any(
        isinstance(want, int) and got != want for got, want in zip(t.shape, shape)
    ):
        text = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{what} must have shape ({text}), got {t.shape}")


def _input_file(args, name: str, shape: tuple) -> np.ndarray:
    """The tensor `name`.bin of the --inputs directory, checked to `shape`."""
    t = load_tensor(Path(args.inputs) / f"{name}.bin")
    _check_shape(f"--inputs {name}.bin", t, shape)
    return t


def _ssm_inputs(args) -> list[np.ndarray]:
    """x, a, b, c and delta, held to selective_scan's domain: x (n, C),
    a (C, d_state) strictly negative, b and c (n, d_state), delta (n, C)
    positive."""
    t = {name: load_tensor(getattr(args, name)) for name in ("x", "a", "b", "c", "delta")}
    _check_shape("--x", t["x"], ("n", "C"))
    _check_shape("--a", t["a"], (t["x"].shape[1], "d_state"))
    (n, cw), ds = t["x"].shape, t["a"].shape[1]
    for name, shape in (("b", (n, ds)), ("c", (n, ds)), ("delta", (n, cw))):
        _check_shape(f"--{name}", t[name], shape)
    if not np.all(t["a"] < 0):
        raise ValueError("--a must be strictly negative")
    if not np.all(t["delta"] > 0):
        raise ValueError("--delta must be positive")
    return list(t.values())


def _cmd_oracle(args) -> int:
    cmd = args.oracle_cmd
    if cmd == "ssm-dense":
        out = oracles.ssm_dense(*_ssm_inputs(args))
        save_tensor(args.out, out.astype(np.float32))
        print(f"ssm-dense: {out.shape} -> {args.out}")
    elif cmd == "nms":
        heat = load_tensor(args.heat)
        _check_shape("--heat", heat, ("K", "H", "W"))
        if not np.all((heat >= 0) & (heat <= 1)):
            raise ValueError("--heat values must lie in [0, 1]")
        _check_count("k", args.k)
        pos, classes, scores = oracles.nms_topk(heat, args.k)
        jsonio.dump(
            {
                "positions": pos.tolist(),
                "classes": classes.tolist(),
                "scores": [float(s) for s in scores],
            },
            args.out,
        )
        print(f"nms: {pos.shape[0]} picks -> {args.out}")
    elif cmd == "fps":
        pts = load_tensor(args.points)
        _check_shape("--points", pts, ("n", 3))
        if not len(pts) or not np.all(np.isfinite(pts)):  # as viewtrans.fps requires
            raise ValueError("--points must hold at least one point, all finite")
        _check_count("n", args.n, len(pts))
        idx = oracles.fps(pts, args.n)
        jsonio.dump({"indices": idx.tolist()}, args.out)
        print(f"fps: {idx.size} picks -> {args.out}")
    elif cmd == "height-compress":
        coords, feats = load_tensor(args.coords), load_tensor(args.feats)
        try:
            extents = tuple(int(v) for v in args.extents.split(","))
        except ValueError:
            extents = ()
        if len(extents) != 3:
            raise ValueError(f"--extents must be three integers nx,ny,nz, got {args.extents!r}")
        for e in extents:
            _check_count("extents", e)
        _check_shape("--coords", coords, ("n", 3))
        # integers like SparseVoxelSet's coords; NaN fails every comparison
        if not np.all((coords >= 0) & (coords < extents) & (coords == np.floor(coords))):
            raise ValueError(f"--coords must be integer cells inside --extents {extents}")
        _check_shape("--feats", feats, (len(coords), "C"))
        save_tensor(args.out, oracles.height_compress(coords.astype(np.int64), feats, extents))
        print(f"height-compress: {extents} -> {args.out}")
    elif cmd == "hilbert-walk":
        _check_count("bits", args.bits, oracles.WALK_MAX_BITS)
        lines = [
            f"{h} {x} {y} {z} {step}"
            for h, x, y, z, step in oracles.hilbert_walk(args.bits)
        ]
        if args.out:
            Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            print("\n".join(lines))
    elif cmd == "mix-scalar":
        q = _input_file(args, "q", ("C",))
        (c,) = q.shape
        feats = _input_file(args, "feats", ("G", c))
        g = len(feats)
        if g % 4:  # as decoder.GridFeatures requires
            raise ValueError(f"--inputs feats.bin must have G rows divisible by 4, got {g}")
        gq = g // 4
        shapes = {
            "offsets": (g, 3), "off_w": (3, c), "off_b": (c,), "cw": (c, c * c), "cb": (c * c,),
            "sw": (c, g * gq), "sb": (g * gq,), "down_w": (c * gq, c), "down_b": (c,),
        }
        out = oracles.mmvfm_mix(
            q, feats, *(_input_file(args, name, shape) for name, shape in shapes.items())
        )
        save_tensor(args.out, out)
        print(f"mix-scalar: ({out.size},) -> {args.out}")
    elif cmd == "splat":
        origin, cell = _parse_pair("origin", args.origin), _parse_pair("cell", args.cell)
        if min(cell) <= 0:
            raise ValueError(f"--cell must be positive, got {args.cell!r}")
        for flag in ("stride", "nx", "ny"):
            _check_count(flag, getattr(args, flag))
        feats = _input_file(args, "feats", ("h", "w", "C"))
        depth = _input_file(args, "depth", (*feats.shape[:2], "D"))
        out = oracles.lss_splat(
            feats, depth,
            _input_file(args, "intrinsics", (3, 3)).astype(np.float64),
            _input_file(args, "extrinsics", (4, 4)).astype(np.float64),
            args.stride, _input_file(args, "bins", depth.shape[2:]).astype(np.float64),
            origin, cell, args.nx, args.ny,
        )
        save_tensor(args.out, out)
        print(f"splat: {out.shape} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddhf",
        description="Dual-domain LiDAR/camera fusion pipeline on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-scene", help="generate a synthetic scene directory")
    gen.add_argument("--spec", required=True, help="scene spec JSON")
    gen.add_argument("--out", required=True, help="output scene directory")
    gen.set_defaults(func=_cmd_gen_scene)

    run = sub.add_parser("run", help="run the full pipeline on a scene")
    run.add_argument("--scene", required=True, help="scene directory")
    run.add_argument("--config", default=None, help="pipeline config JSON")
    run.add_argument("--seed", type=int, default=None, help="override weight seed")
    run.add_argument("--out", required=True, help="detections JSON output")
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="score detections against ground truth")
    ev.add_argument("--det", required=True, help="detections JSON")
    ev.add_argument("--gt", required=True, help="ground-truth JSON")
    ev.set_defaults(func=_cmd_eval)

    orc = sub.add_parser("oracle", help="run a brute-force reference computation")
    osub = orc.add_subparsers(dest="oracle_cmd", required=True)

    ssm = osub.add_parser("ssm-dense", help="dense-unrolled selective scan")
    for name in ("x", "a", "b", "c", "delta"):
        ssm.add_argument(f"--{name}", required=True)
    ssm.add_argument("--out", required=True)

    nms = osub.add_parser("nms", help="brute-force heatmap NMS + top-k")
    nms.add_argument("--heat", required=True)
    nms.add_argument("--k", type=int, required=True)
    nms.add_argument("--out", required=True)

    fps_p = osub.add_parser("fps", help="greedy farthest point sampling")
    fps_p.add_argument("--points", required=True)
    fps_p.add_argument("--n", type=int, required=True)
    fps_p.add_argument("--out", required=True)

    hc = osub.add_parser("height-compress", help="pillar channelwise max")
    hc.add_argument("--coords", required=True)
    hc.add_argument("--feats", required=True)
    hc.add_argument("--extents", required=True, help="nx,ny,nz")
    hc.add_argument("--out", required=True)

    walk = osub.add_parser("hilbert-walk", help="curve order adjacency trace")
    walk.add_argument("--bits", type=int, required=True)
    walk.add_argument("--out", default=None)

    mix = osub.add_parser("mix-scalar", help="scalar grid-mixing readout")
    mix.add_argument("--inputs", required=True, help="directory of named .bin inputs")
    mix.add_argument("--out", required=True)

    splat = osub.add_parser("splat", help="scalar depth-bin BEV splat")
    splat.add_argument("--inputs", required=True, help="directory of named .bin inputs")
    splat.add_argument("--stride", type=int, default=FEATURE_STRIDE)
    splat.add_argument("--origin", required=True, help="x0,y0")
    splat.add_argument("--cell", required=True, help="dx,dy")
    splat.add_argument("--nx", type=int, required=True)
    splat.add_argument("--ny", type=int, required=True)
    splat.add_argument("--out", required=True)

    orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
