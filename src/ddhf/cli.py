"""Command-line surface: scene generation, pipeline runs, evaluation, oracles."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

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


def _inputs(*names: str) -> dict[str, str]:
    """Each parameter read from the --inputs directory, from its own file."""
    return {name: f"--inputs {name}.bin" for name in names}


# each subcommand's oracle and, in call order, the source of each of its
# parameters: a flag, or a file of the --inputs directory
_ORACLES = {
    "ssm-dense": (oracles.ssm_dense, {p: f"--{p}" for p in ("x", "a", "b", "c", "delta")}),
    "nms": (oracles.nms_topk, {"heat": "--heat", "k": "--k"}),
    "fps": (oracles.fps, {"points": "--points", "n": "--n"}),
    "height-compress": (
        oracles.height_compress, {"coords": "--coords", "feats": "--feats", "extents": "--extents"}
    ),
    "hilbert-walk": (oracles.hilbert_walk, {"bits": "--bits"}),
    "mix-scalar": (oracles.mmvfm_mix, _inputs(
        "q", "feats", "offsets", "off_w", "off_b", "cw", "cb", "sw", "sb", "down_w", "down_b"
    )),
    "splat": (oracles.lss_splat, {
        **_inputs("feats", "depth", "intrinsics", "extrinsics"), "stride": "--stride",
        **_inputs("bins"), "origin": "--origin", "cell": "--cell", "nx": "--nx", "ny": "--ny",
    }),
}
# flags of comma-separated numbers: their type and count
_NUMBERS = {"--extents": (int, 3), "--origin": (float, 2), "--cell": (float, 2)}


def _read(args, source: str):
    """The value at `source`: a tensor file (a flag's or the --inputs
    directory's), a count, or a flag's comma-separated numbers, whose text
    must parse."""
    if source.startswith("--inputs "):
        return load_tensor(Path(args.inputs) / source.removeprefix("--inputs "))
    value = getattr(args, source[2:])
    if isinstance(value, int):
        return value
    if source not in _NUMBERS:
        return load_tensor(value)
    kind, count = _NUMBERS[source]
    try:
        values = tuple(kind(v) for v in value.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise ValueError(f"{source} must be {count} comma-separated {kind.__name__}s, got {value!r}")
    return values


def _cmd_oracle(args) -> int:
    cmd = args.oracle_cmd
    oracle, sources = _ORACLES[cmd]
    values = [_read(args, source) for source in sources.values()]
    try:
        out = oracle(*values)
    except ValueError as exc:  # "<oracle>: <param> must ..." names the param's source
        where, _, rule = str(exc).partition(" must ")
        named = {f"{oracle.__name__}: {param}": source for param, source in sources.items()}
        if where not in named:
            raise
        raise ValueError(f"{named[where]} must {rule}") from None
    if cmd == "hilbert-walk":
        text = "\n".join(" ".join(map(str, row)) for row in out)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return 0
    if cmd == "nms":
        pos, classes, scores = out
        picks = {"positions": pos.tolist(), "classes": classes.tolist()}
        jsonio.dump({**picks, "scores": [float(s) for s in scores]}, args.out)
        summary = f"{len(pos)} picks"
    elif cmd == "fps":
        jsonio.dump({"indices": out.tolist()}, args.out)
        summary = f"{out.size} picks"
    else:
        save_tensor(args.out, out)
        summary = str(out.shape)
    print(f"{cmd}: {summary} -> {args.out}")
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
