"""Pinned output bits of the cross-modal BEV block, HIA and the voxel layer.

Unlike the golden detection digests, these hashes change when any output
of `cb_mamba` (result and both gates), `hia`, `mmvfm_mix` or `voxel_pool`
moves by one float32 ulp. The float64 softmax weights of HIA's two
attentions, of both MMVFM attentions and of the detection head's are
pinned too: the float32 rounding at a layer's end nearly always absorbs a
one-ulp float64 change inside it. A change meant to keep those layers'
bits keeps them at every piece size and BLAS thread count.
"""

import numpy as np
import pytest

from ddhf import decoder, ops
from ddhf.config import PipelineConfig
from ddhf.core import FeatureMap
from ddhf.decoder import (
    GridFeatures,
    detection_head,
    init_decoder,
    mmvfm_layer,
    mmvfm_mix,
    voxel_pool,
)
from ddhf.hbf import cb_mamba, init_cb_mamba
from ddhf.pqg import collect, hia, init_hia

from conftest import PINS, random_voxel_set, recorded, sha256_hashes

SIDE = 48  # BEV cells per side, as the default config
N_EASY = 100
N_QUERIES = 200
LATTICE = decoder.GRID_SIDE**3  # 64 points per query: 12,800 in all
K_CLASSES = 3
WIDTHS = {32: 16, 8: 4}  # channels -> d_state: the default and the TINY config


def _bev(rng, c: int) -> FeatureMap:
    data = rng.normal(size=(SIDE, SIDE, c)).astype(np.float32)
    return FeatureMap(data, origin=(-54.0, -54.0), cell_size=(2.25, 2.25))


def layer_outputs(c: int) -> dict:
    """Outputs of each pinned layer on seeded inputs of width c."""
    rng = np.random.default_rng(14_000 + c)
    outs = {}

    b_img, b_lid = _bev(rng, c), _bev(rng, c)
    fused, y_img, y_lid = cb_mamba(
        b_img, b_lid, init_cb_mamba("layer_hash.cb", c, WIDTHS[c], 7), return_gates=True
    )
    outs.update(cb_mamba=fused.data, cb_gate_img=y_img, cb_gate_lid=y_lid)

    b = _bev(rng, c)
    cells = rng.choice(SIDE * SIDE, size=N_EASY, replace=False)
    pos = np.stack(np.divmod(cells, SIDE), axis=1)
    classes = rng.integers(0, K_CLASSES, N_EASY)
    rng.uniform(size=N_EASY)  # once the queries' scores: later draws keep their values
    q_easy = collect(b, pos, classes)
    out, (outs["hia_self_softmax"], outs["hia_cross_softmax"]) = recorded(
        ops, "softmax", hia, q_easy, b, init_hia("layer_hash.hia", c, K_CLASSES, 7)
    )
    outs["hia"] = out.data

    dec_w = init_decoder("layer_hash.dec", c, K_CLASSES, 0, 1, 7)
    mix_w = dec_w.mmvfm[0].mix_lid
    grid = GridFeatures(
        points=rng.normal(size=(N_QUERIES, LATTICE, 3)),
        feats=rng.normal(size=(N_QUERIES, LATTICE, c)).astype(np.float32),
        offsets=rng.normal(size=(N_QUERIES, LATTICE, 3)),
    )
    q_feat = rng.normal(size=(N_QUERIES, c)).astype(np.float32)
    outs["mmvfm_mix"] = mmvfm_mix(q_feat, grid, mix_w)

    lidar_grid = PipelineConfig().lidar_grid()
    vox = random_voxel_set(rng, lidar_grid, 4000, c)
    lo = np.asarray(lidar_grid.origin)
    span = np.asarray(lidar_grid.voxel_size) * lidar_grid.extents
    # a 2.25 m margin (one voxel in x and y) beyond the grid on each side, so
    # some points and neighbors fall outside it
    pts = rng.uniform(lo - 2.25, lo + span + 2.25, size=(N_QUERIES * LATTICE, 3))
    outs["voxel_pool"] = voxel_pool(vox, pts)

    fm = _bev(rng, c)
    img_vox = random_voxel_set(rng, PipelineConfig().image_grid(), 4000, c)
    feats = rng.normal(size=(N_QUERIES, c)).astype(np.float32)
    rows, cols = rng.integers(0, SIDE, size=(2, N_QUERIES))
    _, (outs["mmvfm_lid_softmax"], outs["mmvfm_img_softmax"]) = recorded(
        ops, "softmax",
        mmvfm_layer, feats, rows, cols, vox, img_vox, fm, dec_w.box, dec_w.mmvfm[0],
    )
    _, (outs["head_softmax"],) = recorded(
        ops, "softmax", detection_head, feats, rows, cols, fm, dec_w.head
    )
    return outs


def layer_hashes() -> dict:
    """SHA-256 of each pinned output's bytes, at C = 32 and C = 8."""
    return sha256_hashes(
        {f"{name}_c{c}": out for c in WIDTHS for name, out in layer_outputs(c).items()}
    )


def test_layer_hashes():
    assert layer_hashes() == PINS["layer"]


@pytest.mark.parametrize("size", [1, N_QUERIES])
def test_layer_hashes_any_piece_size(monkeypatch, size):
    # mmvfm_mix's float64 stage works per query, so one-query pieces and one
    # whole-input piece keep the bits
    monkeypatch.setattr(decoder, "MIX_CHUNK", size)
    assert layer_hashes() == PINS["layer"]
