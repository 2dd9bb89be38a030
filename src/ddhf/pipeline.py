"""End-to-end runner: point cloud + camera images -> detection boxes.

Stage order, with the seven `StageLog` names: voxelize (and LiDAR embed)
-> image_branch (image encode, semantic voxel selection, BEV splat) ->
height_compress (LiDAR voxels to a BEV map) -> voxel_fusion (dual-branch)
-> bev_fusion -> queries (query generation) -> decode. Each stage is timed.

Two weight modes exist. "seeded" draws every parameter from the
name-keyed deterministic initializer. "passthrough" identity-configures all
residual blocks and hand-sets the heatmap and class heads to read the
point-count channel, which makes planted objects rank first without any
training; used by the end-to-end fixture tests.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import PipelineConfig
from .core import (
    VOXEL_COUNT_CHANNEL,
    VOXEL_FEATURE_DIM,
    CameraModel,
    Linear,
    bev_map_for_grid,
    empty_voxel_set,
    init_linear,
    voxelize,
    zeroed,
)
from .decoder import (
    DecoderWeights,
    DetectionBox,
    decode,
    init_decoder,
)
from .evalmetrics import box_record
from .hbf import HbfWeights, hbf_forward, init_hbf, sparse_height_compress
from .hvf import HvfWeights, hvf_forward, init_hvf
from .pqg import HeatmapHeadWeights, PqgWeights, Queries, init_pqg, pqg_forward
from .viewtrans import (
    ImageEncoderWeights,
    encode_images,
    init_image_encoder,
    lss_splat,
    safs_select,
)

PASSTHROUGH_GAIN = 0.1
MAX_INTENSITY = 255.0  # 8-bit reflectance
MAX_PIXEL = 1.0  # pixels lie in [0, 1], the range scene.render_images writes


@dataclass(frozen=True)
class PipelineWeights:
    lidar_embed: Linear  # (VOXEL_FEATURE_DIM, C)
    encoder: ImageEncoderWeights
    hvf: HvfWeights
    hbf: HbfWeights
    pqg: PqgWeights
    decoder: DecoderWeights


def init_pipeline_weights(cfg: PipelineConfig) -> PipelineWeights:
    seed, c = cfg.global_seed, cfg.channels
    return PipelineWeights(
        lidar_embed=init_linear("lidar_embed", VOXEL_FEATURE_DIM, c, seed),
        encoder=init_image_encoder("image_encoder", c, cfg.depth_count, seed),
        hvf=init_hvf("hvf", c, cfg.d_state, seed),
        hbf=init_hbf("hbf", c, cfg.d_state, seed),
        pqg=init_pqg("pqg", c, cfg.k_classes, seed),
        decoder=init_decoder("decoder", c, cfg.k_classes, cfg.n_bev, cfg.m_vox, seed),
    )


def _density_heatmap_head(like: HeatmapHeadWeights) -> HeatmapHeadWeights:
    """Class-0 logit = gain * silu(channel 0); other classes stay at zero."""
    w = zeroed(like, "conv_k", "conv_b", "head")
    w.conv_k[1, 1, 0, 0] = 1.0
    w.head.w[0, 0] = PASSTHROUGH_GAIN
    return w


def passthrough_weights(cfg: PipelineConfig) -> PipelineWeights:
    """Identity-configured pipeline whose heads read the point-count channel.

    The LiDAR embed routes voxel point count to channel 0; the BEV fusion
    projections keep only that channel of the LiDAR branch, every residual
    block passes features through unchanged, and heatmap/class heads score
    channel 0 monotonically. Box readouts are zeroed, so each detection sits
    at its query's cell center with unit size.
    """
    base = init_pipeline_weights(cfg)
    hbf = replace(
        zeroed(base.hbf, "proj_img", "proj_lid"),
        ib_img=base.hbf.ib_img.identity_configured(),
        ib_lid=base.hbf.ib_lid.identity_configured(),
        cb=replace(
            zeroed(base.hbf.cb, "gate"),
            img=zeroed(base.hbf.cb.img, "in_proj"),
            lid=zeroed(base.hbf.cb.lid, "in_proj"),
        ),
        backbone=base.hbf.backbone.identity_configured(),
    )
    hbf.proj_lid.w[0, 0] = 1.0
    pqg = replace(
        base.pqg,
        head_easy=_density_heatmap_head(base.pqg.head_easy),
        head_hard=_density_heatmap_head(base.pqg.head_hard),
        hia=base.pqg.hia.identity_configured(),
    )
    dec = base.decoder.identity_configured()
    zero_box = zeroed(dec.box, "fc1", "fc2")
    head = replace(zeroed(dec.head, "cls"), box=zero_box)
    head.cls.w[0, 0] = PASSTHROUGH_GAIN
    w = replace(
        zeroed(base, "lidar_embed"),
        hvf=base.hvf.identity_configured(),
        hbf=hbf,
        pqg=pqg,
        decoder=replace(dec, box=zero_box, head=head),
    )
    w.lidar_embed.w[VOXEL_COUNT_CHANNEL, 0] = 1.0
    return w


def build_weights(cfg: PipelineConfig) -> PipelineWeights:
    if cfg.weights_mode == "passthrough":
        return passthrough_weights(cfg)
    return init_pipeline_weights(cfg)


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (ru_maxrss), in MB of
    2**20 bytes, the unit perfbench's `peak_rss_mb` reports."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)  # macOS counts bytes


@dataclass
class StageLog:
    """Coarse per-stage wall time; not a hardware benchmark."""

    entries: list = field(default_factory=list)  # (name, seconds)

    def add(self, name: str, seconds: float) -> None:
        self.entries.append((name, seconds))

    @property
    def total_seconds(self) -> float:
        return sum(seconds for _, seconds in self.entries)

    def lines(self) -> list[str]:
        out = [f"{name:<16} {seconds * 1e3:9.1f} ms" for name, seconds in self.entries]
        out.append(
            f"{'total':<16} {self.total_seconds * 1e3:9.1f} ms"
            f" {peak_rss_mb():9.1f} MB process peak RSS"
        )
        return out


def validate_inputs(points: np.ndarray, images: list[np.ndarray], cameras: list) -> np.ndarray:
    """Checks `run_pipeline`'s inputs and returns the points as float32.

    Points must be a finite (n, 4) array of x, y, z, intensity with each
    intensity in the 8-bit reflectance range [0, 255], and each image an
    (h, w, 3) array whose (h, w) is its camera's image_size, with every
    pixel in [0, 1]; each camera must be a CameraModel. Each error names the
    bad input.
    """
    if len(images) != len(cameras):
        raise ValueError(f"{len(images)} images for {len(cameras)} cameras")
    pts = np.asarray(points, dtype=np.float32)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(
            f"points: expected shape (n, 4) for x, y, z, intensity, got {pts.shape}"
        )
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"points: row {row} is not finite in float32: {pts[row].tolist()}")
    bad = (pts[:, 3] < 0.0) | (pts[:, 3] > MAX_INTENSITY)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"points: row {row} intensity {pts[row, 3]:g} is outside [0, {MAX_INTENSITY:g}]"
        )
    for i, (image, cam) in enumerate(zip(images, cameras)):
        if not isinstance(cam, CameraModel):
            raise ValueError(f"camera {i}: expected a CameraModel, got {type(cam).__name__}")
        shape = np.shape(image)
        want = (*cam.image_size, 3)
        if shape != want:
            raise ValueError(f"image {i}: expected shape {want} from camera {i}, got {shape}")
        pixels = np.asarray(image)
        if not np.all(np.isfinite(pixels)):
            raise ValueError(f"image {i}: pixels must be finite")
        bad = (pixels < 0.0) | (pixels > MAX_PIXEL)
        if bad.any():
            row, col, channel = np.unravel_index(int(np.argmax(bad)), shape)
            raise ValueError(
                f"image {i}: pixel (row {row}, col {col}) channel {channel} value"
                f" {pixels[row, col, channel]:g} is outside [0, {MAX_PIXEL:g}]"
            )
    return pts


def validate_weights(weights: PipelineWeights, cfg: PipelineConfig) -> None:
    """Checks that `weights` were built for `cfg`'s channels, d_state,
    k_classes, depth_count, n_bev and m_vox; the error names the field that
    differs."""
    built = {
        "channels": weights.lidar_embed.w.shape[1],
        "d_state": weights.hvf.cv[0].a.shape[1],
        "k_classes": weights.decoder.head.cls.w.shape[1],
        "depth_count": weights.encoder.depth_head.w.shape[1],
        "n_bev": len(weights.decoder.deform),
        "m_vox": len(weights.decoder.mmvfm),
    }
    for name, value in built.items():
        want = getattr(cfg, name)
        if value != want:
            raise ValueError(f"weights: built for {name} = {value}, config has {name} = {want}")


def run_pipeline(
    points: np.ndarray,
    images: list[np.ndarray],
    cameras: list,
    cfg: PipelineConfig,
    weights: PipelineWeights | None = None,
) -> tuple[list[DetectionBox], StageLog]:
    points = validate_inputs(points, images, cameras)
    if weights is None:
        weights = build_weights(cfg)
    else:
        validate_weights(weights, cfg)
    grid_l, grid_i = cfg.lidar_grid(), cfg.image_grid()
    bins = cfg.depth_bins()
    log = StageLog()

    t = time.perf_counter()
    v_raw = voxelize(points, grid_l)
    v_lidar = v_raw.with_feats(weights.lidar_embed(v_raw.feats))
    log.add("voxelize", time.perf_counter() - t)

    t = time.perf_counter()
    # without a camera there is no feature map: safs_select and lss_splat
    # read the channel width from images.feats[0]
    if cameras:
        img_feats = encode_images(list(images), weights.encoder)
        v_img = safs_select(
            grid_i, img_feats, cameras, bins, cfg.d_thresh, cfg.s_thresh, cfg.safs_cap
        )
        b_img = lss_splat(img_feats, cameras, bins, grid_l)
    else:
        v_img = empty_voxel_set(grid_i, cfg.channels)
        b_img = bev_map_for_grid(
            grid_l, np.zeros((grid_l.ny, grid_l.nx, cfg.channels), dtype=np.float32)
        )
    log.add("image_branch", time.perf_counter() - t)

    t = time.perf_counter()
    b_lid = sparse_height_compress(v_lidar)
    log.add("height_compress", time.perf_counter() - t)

    t = time.perf_counter()
    # hvf_forward drops each input set once its first block has read it, so
    # they are handed over from a list that no name here keeps
    inputs = [v_lidar, v_img]
    del v_lidar, v_img
    vl, vi = hvf_forward(inputs.pop(0), inputs.pop(), weights.hvf)
    log.add("voxel_fusion", time.perf_counter() - t)

    t = time.perf_counter()
    b_out = hbf_forward(b_lid, b_img, vl, vi, weights.hbf)
    log.add("bev_fusion", time.perf_counter() - t)

    t = time.perf_counter()
    q_easy, q_hard, b_act = pqg_forward(b_out, weights.pqg, cfg.k_easy, cfg.k_hard)
    log.add("queries", time.perf_counter() - t)

    t = time.perf_counter()
    queries = Queries(
        np.concatenate([q_easy.pos, q_hard.pos]),
        np.concatenate([q_easy.classes, q_hard.classes]),
        np.concatenate([q_easy.feats, q_hard.feats]),
    )
    dets = decode(queries, b_act, vl, vi, weights.decoder)
    log.add("decode", time.perf_counter() - t)
    return dets, log


def detections_to_dicts(dets: list[DetectionBox]) -> list[dict]:
    return [box_record(d, score=float(d.score)) for d in dets]
