"""Pinned output bits of the camera-to-voxel index and gather stages.

SAFS (cells and features), the picks of its FPS trim, the LSS splat, the
pillar max, both sparse convolutions and the Hilbert keys are hashed here on
seeded default-config inputs. The golden digests cannot see these stages
(passthrough zeroes the image projection and the seeded digests sit on the
box rails) and their oracle tests compare at 1e-5, so these hashes change
when any output moves by one ulp or one index. A change meant to keep the
stages' bits keeps them at any BLAS thread count.
"""

import hashlib

import numpy as np

from ddhf import viewtrans
from ddhf.config import PipelineConfig
from ddhf.core import init_param
from ddhf.curve import bits_for_extents, hilbert_index
from ddhf.hbf import sparse_height_compress
from ddhf.hvf import sparse_down, sparse_up
from ddhf.scene import DEFAULT_IMAGE_SIZE, default_cameras

from conftest import random_voxel_set, run_at_blas_threads
from test_viewtrans import make_feature_set

N_VOXELS = 12_000  # about 28% of the lidar grid, so most pillars hold several
N_KEYS = 20_000


def with_fps_picks(fn, *args) -> tuple:
    """fn(*args) and the picks of every `viewtrans.fps` call it makes, in
    call order, captured by wrapping the module global its callers read."""
    seen = []
    orig = viewtrans.fps

    def record(points, n_target):
        out = orig(points, n_target)
        seen.append(out.copy())
        return out

    viewtrans.fps = record
    try:
        return fn(*args), seen
    finally:
        viewtrans.fps = orig


def stage_outputs() -> dict:
    """Outputs of each pinned stage on seeded default-config inputs."""
    rng = np.random.default_rng(20_000)
    cfg = PipelineConfig()
    c = cfg.channels
    outs = {}

    cameras = list(default_cameras())
    h, w = (s // viewtrans.FEATURE_STRIDE for s in DEFAULT_IMAGE_SIZE)
    images = make_feature_set(rng, [(h, w)] * len(cameras), cfg.depth_count, c)
    bins = cfg.depth_bins()
    args = (cfg.image_grid(), images, cameras, bins, cfg.d_thresh, cfg.s_thresh, cfg.safs_cap)
    v_img, (outs["fps_picks"],) = with_fps_picks(viewtrans.safs_select, *args)
    outs.update(safs_coords=v_img.coords, safs_feats=v_img.feats)
    outs["lss_splat"] = viewtrans.lss_splat(images, cameras, bins, cfg.lidar_grid()).data

    v = random_voxel_set(rng, cfg.lidar_grid(), N_VOXELS, c)
    feats = v.feats.copy()
    # zeros of both signs in shared pillars: which one a pillar keeps
    # depends on the order its maxima run in
    zero = rng.random(feats.shape) < 0.3
    feats[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    v = v.with_feats(feats)
    outs["sparse_height_compress"] = sparse_height_compress(v).data

    down_k = init_param("stage_hash.down.weight", (3, 3, 3, c, c), 7)
    down_b = rng.normal(size=c).astype(np.float32)
    coarse = sparse_down(v, down_k, down_b)
    outs.update(sparse_down_coords=coarse.coords, sparse_down_feats=coarse.feats)
    up_k = init_param("stage_hash.up.weight", (2, 2, 2, c, c), 7)
    outs["sparse_up"] = sparse_up(coarse, v, up_k).feats

    for bits in (bits_for_extents(cfg.image_cells), 20):
        xyz = rng.integers(0, 1 << bits, size=(3, N_KEYS))
        outs[f"hilbert_index_b{bits}"] = hilbert_index(*xyz, bits)
    return outs


def stage_hashes() -> dict:
    """SHA-256 of each pinned output's bytes."""
    return {
        name: hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        for name, out in stage_outputs().items()
    }


STAGE_HASHES = {
    "fps_picks": "0f548b4d58ad967c2b586dfc097105a60f626764aa1643141d56f2b48c83d098",
    "safs_coords": "e6187cc5bff0f531899ee59ad13d6731f7e185155dc1f87396c15f5616d9e5fd",
    "safs_feats": "d0eaf4e5759a75c80c8f70fffcd4289e193d0932a031d4448b3145f6642fc463",
    "lss_splat": "febb4d1dd0be66f56f076330f3d929225f01b09f373fd413b22ed06b62e9ed89",
    "sparse_height_compress": "6439200e4d10ef74cd3b2332a1d26d77c7120b5b2a8e306fdc497b9ff74b55c8",
    "sparse_down_coords": "1cb6fa313d7ec17bc35180660b6d6a775dd591288be962695986783ba4cd3247",
    "sparse_down_feats": "76e8503a73e149bebff8e201e56f212f93b6dcf988c9788d2dc6ea8554fce6af",
    "sparse_up": "5274b85fb97e8082021ef0d30cee484810ac5e128f826efe524e7b76181a0f0b",
    "hilbert_index_b6": "23acf7c25b4f33a2c056389a22bf007fcb488b81b153822a2b6a38c3786c2dec",
    "hilbert_index_b20": "f01fb5066351857052cc1d903abd6a8579c93690fa774dc5a622be10a0986d63",
}


def test_stage_hashes():
    assert stage_hashes() == STAGE_HASHES


def test_stage_hashes_blas_threads():
    code = "import test_stage_hashes as t\nfor k, v in t.stage_hashes().items():\n    print(k, v)\n"
    for threads in (1, 2):
        got = dict(line.split() for line in run_at_blas_threads(code, threads))
        assert got == STAGE_HASHES, threads
