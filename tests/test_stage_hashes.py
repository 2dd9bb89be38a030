"""Pinned output bits of the camera-to-voxel index and gather stages and of
the HVF encoder.

SAFS (cells and features), the picks of its FPS trim, the LSS splat, the
pillar max, both sparse convolutions, the Hilbert keys and the HVF encoder
are hashed here on seeded default-config inputs. The golden digests cannot
see these stages (passthrough zeroes the image projection and the seeded
digests sit on the box rails), the oracle tests compare at 1e-5 and
hvf_forward's tests run identity weights, so these hashes change when any
output moves by one ulp or one index. A change meant to keep the stages' bits keeps them at
any BLAS thread count.
"""

import numpy as np

from ddhf import viewtrans
from ddhf.config import PipelineConfig
from ddhf.core import init_param
from ddhf.curve import bits_for_extents, hilbert_index
from ddhf.hbf import sparse_height_compress
from ddhf.hvf import hvf_forward, init_hvf, sparse_down, sparse_up
from ddhf.scene import DEFAULT_IMAGE_SIZE, default_cameras

from conftest import PINS, random_voxel_set, recorded, sha256_hashes
from test_hvf import paired_sets
from test_viewtrans import make_feature_set

N_VOXELS = 12_000  # about 28% of the lidar grid, so most pillars hold several
N_KEYS = 20_000
# HVF inputs: LiDAR voxels, image voxels and image voxels on lifted LiDAR cells
N_HVF = (1_500, 4_700, 300)


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
    v_img, (outs["fps_picks"],) = recorded(viewtrans, "fps", viewtrans.safs_select, *args)
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
    coarse, parents = sparse_down(v, down_k, down_b)
    outs.update(sparse_down_coords=coarse.coords, sparse_down_feats=coarse.feats)
    up_k = init_param("stage_hash.up.weight", (2, 2, 2, c, c), 7)
    outs["sparse_up"] = sparse_up(coarse, v, parents, up_k).feats

    for bits in (bits_for_extents(cfg.image_cells), 20):
        xyz = rng.integers(0, 1 << bits, size=(3, N_KEYS))
        outs[f"hilbert_index_b{bits}"] = hilbert_index(*xyz, bits)

    vl, vi = paired_sets(rng, *N_HVF[:2], c, N_HVF[2], (cfg.lidar_grid(), cfg.image_grid()))
    hvf = hvf_forward(vl, vi, init_hvf("stage_hash.hvf", c, cfg.d_state, 7))
    outs.update(hvf_lidar=hvf[0].feats, hvf_image=hvf[1].feats)
    return outs


def stage_hashes() -> dict:
    """SHA-256 of each pinned output's bytes."""
    return sha256_hashes(stage_outputs())


def test_stage_hashes():
    assert stage_hashes() == PINS["stage"]
