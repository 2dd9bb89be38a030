"""Pinned output bits of the cross-modal BEV block, HIA and the voxel layer.

Unlike the golden detection digests, these hashes change when any output
of `cb_mamba` (result and both gates), `hia`, `mmvfm_mix` or `voxel_pool`
moves by one float32 ulp. The float64 softmax weights of HIA's two
attentions, of both MMVFM attentions and of the detection head's are
pinned too: the float32 rounding at a layer's end nearly always absorbs a
one-ulp float64 change inside it. A change meant to keep those layers'
bits keeps them at every piece size and BLAS thread count.
"""

import hashlib

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

from conftest import random_voxel_set, run_at_blas_threads

SIDE = 48  # BEV cells per side, as the default config
N_EASY = 100
N_QUERIES = 200
LATTICE = decoder.GRID_SIDE**3  # 64 points per query: 12,800 in all
K_CLASSES = 3
WIDTHS = {32: 16, 8: 4}  # channels -> d_state: the default and the TINY config


def _bev(rng, c: int) -> FeatureMap:
    data = rng.normal(size=(SIDE, SIDE, c)).astype(np.float32)
    return FeatureMap(data, origin=(-54.0, -54.0), cell_size=(2.25, 2.25))


def with_softmax_weights(fn, *args) -> tuple:
    """fn(*args) and the float64 softmax weights of every attention it runs,
    in call order, captured by wrapping `ops._softmax_in_place`."""
    seen = []
    orig = ops._softmax_in_place

    def record(x, axis=-1):
        out = orig(x, axis)
        seen.append(out.copy())
        return out

    ops._softmax_in_place = record
    try:
        return fn(*args), seen
    finally:
        ops._softmax_in_place = orig


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
    out, (outs["hia_self_softmax"], outs["hia_cross_softmax"]) = with_softmax_weights(
        hia, q_easy, b, init_hia("layer_hash.hia", c, K_CLASSES, 7)
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
    _, (outs["mmvfm_lid_softmax"], outs["mmvfm_img_softmax"]) = with_softmax_weights(
        mmvfm_layer, feats, rows, cols, vox, img_vox, fm, dec_w.box, dec_w.mmvfm[0]
    )
    _, (outs["head_softmax"],) = with_softmax_weights(
        detection_head, feats, rows, cols, fm, dec_w.head
    )
    return outs


def layer_hashes() -> dict:
    """SHA-256 of each pinned output's bytes, at C = 32 and C = 8."""
    return {
        f"{name}_c{c}": hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        for c in WIDTHS
        for name, out in layer_outputs(c).items()
    }


LAYER_HASHES = {
    "cb_mamba_c32": "36a4e89c45afa01194c30456d1c4925acd0e0b5cfb11c3b39aaa8b263e88bf42",
    "cb_gate_img_c32": "756358b6135b2c527a0b232fd870fe687bdfde81e7e655f3a2bab1fc25c84bd8",
    "cb_gate_lid_c32": "78cc767112e146dc1f9223ac184e3e70751879dd0e475aa5a16f95a5e3dac7d7",
    "hia_c32": "fdb858b58c1e4f339e1915f4be6dd668dc1836cb8c75de0c7d4ec37f697456af",
    "mmvfm_mix_c32": "f79b249c8e4d2d0fe13130d73f09fb047248dcc9594bbdf19c8d666cf1fdd0e8",
    "voxel_pool_c32": "b8c679c942300c52fe7d5144e0a3987168e79387687588d51484e2b3fcb09fa5",
    "cb_mamba_c8": "b5b55f1d8650d1ffb035cdce1f28f9c43275a4595d63990872edc3b04e103796",
    "cb_gate_img_c8": "732c00baba26d6db4f2a2c66b9ad3729bcde7fcc421d4bab413dff9973e8220a",
    "cb_gate_lid_c8": "364d7fb8f8f52c7d9a7fd851e703135f619bd30a3b750a3379e7f8a3a2a01e94",
    "hia_c8": "fa28bc4c8849d27f190d8febd59bb001805b8ab13845b211cc89db7ee6704bc7",
    "mmvfm_mix_c8": "1172c878086f60c52530aec3dd806caaac060a03f4fed86e1eab9e8eb0c6bf99",
    "voxel_pool_c8": "6900e8a36cf9c1d5e40fc27c164581bb5499fb1e8715a246c3e33831c6f5b5c7",
    # float64 softmax weights
    "hia_self_softmax_c32": "19c8d83c02e8d9b01fb3235980a18f77e3ffeb6dc02fc1960a2594a5b08b2c5b",
    "hia_cross_softmax_c32": "8581cc07eff4efeb860fcc89431b36581c667473015df9dff41b6182eb6108ce",
    "mmvfm_lid_softmax_c32": "48e7d1340f8a6bb443050ee432007bd656a0e9666180f75538c9f445192374ce",
    "mmvfm_img_softmax_c32": "9ce16baf3ea1b86e84a988d905c7badc1c2444971a89f1e366f1d9faa5ce9f36",
    "head_softmax_c32": "d582455bf3cf592b85f0619be6758b2ac1906fcad322eec9fab13614d3aafcd6",
    "hia_self_softmax_c8": "75e526261502672c7ddc2087d7cfaaae4c49d72d056a5fbd3be9591dabd0e54b",
    "hia_cross_softmax_c8": "8d8bc57119acc74c17d474757f6b9cae9bc478b3caa7d19d8c55690402e3d2c8",
    "mmvfm_lid_softmax_c8": "4d8066266c9a4e83bb2097bef977130f6f61cf4783c0a478bce621b43f34bb18",
    "mmvfm_img_softmax_c8": "de0bf408356eeef278e746286ef6b81783b55ec7c7c4de5de97887c31add33ba",
    "head_softmax_c8": "c256133b7f823218f14bba329bfdaf1e5e9804f93303257f3eca6e2eb947ef69",
}


def test_layer_hashes():
    assert layer_hashes() == LAYER_HASHES


def test_layer_hashes_blas_threads():
    # the kernel generators, the attention products and the stacked per-query
    # matmuls must give the same bits at any BLAS thread count
    code = "import test_layer_hashes as t\nfor k, v in t.layer_hashes().items():\n    print(k, v)\n"
    for threads in (1, 4):
        got = dict(line.split() for line in run_at_blas_threads(code, threads))
        assert got == LAYER_HASHES, threads


@pytest.mark.parametrize("size", [1, N_QUERIES])
def test_layer_hashes_any_piece_size(monkeypatch, size):
    # mmvfm_mix's float64 stage works per query, so one-query pieces and one
    # whole-input piece keep the bits
    monkeypatch.setattr(decoder, "MIX_CHUNK", size)
    assert layer_hashes() == LAYER_HASHES
