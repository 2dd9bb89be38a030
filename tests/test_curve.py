import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddhf import oracles
from ddhf.core import GridSpec, SparseVoxelSet
from ddhf.curve import (
    bits_for_extents,
    cross_merge_2d,
    hilbert_index,
    hilbert_order,
    hilbert_sort,
    scan_orders_2d,
)


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_hilbert_bijective_and_adjacent(bits):
    walk = oracles.hilbert_walk(bits)
    n = 1 << (3 * bits)
    assert len(walk) == n
    seen = set()
    for h, x, y, z, step in walk:
        assert hilbert_index(x, y, z, bits) == h
        seen.add((x, y, z))
        if h > 0:
            assert step == 1  # consecutive curve cells share a face
    assert len(seen) == n


def test_hilbert_walk_rejects_bits_past_its_bound():
    # checked before any cell is built: the walk never runs past its bound
    for bits in (0, oracles.WALK_MAX_BITS + 1):
        with pytest.raises(ValueError, match=r"hilbert_walk: bits must be in \[1, 6\]"):
            oracles.hilbert_walk(bits)


def test_hilbert_index_vectorized_matches_scalar(rng):
    bits = 4
    coords = rng.integers(0, 1 << bits, size=(200, 3))
    vec = hilbert_index(coords[:, 0], coords[:, 1], coords[:, 2], bits)
    for i in range(200):
        assert vec[i] == oracles.hilbert_index(*coords[i], bits)


def test_hilbert_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        hilbert_index(4, 0, 0, 2)


def test_bits_for_extents():
    assert bits_for_extents((1, 1, 1)) == 1
    assert bits_for_extents((16, 16, 8)) == 4
    assert bits_for_extents((48, 48, 16)) == 6


def test_hilbert_sort_matches_key_sort(rng):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extents=(8, 8, 8))
    total = 8 * 8 * 8
    flat = rng.choice(total, size=60, replace=False)
    coords = np.stack(np.unravel_index(flat, (8, 8, 8)), axis=1).astype(np.int64)
    feats = rng.normal(size=(60, 4)).astype(np.float32)
    v = SparseVoxelSet(coords, feats, grid)
    order = hilbert_sort(v)
    keys = [oracles.hilbert_index(*coords[i], 3) for i in range(60)]
    want = sorted(range(60), key=lambda i: (keys[i], i))
    assert order.tolist() == want


def test_hilbert_order_empty():
    order = hilbert_order(np.zeros((0, 3), dtype=np.int64), (8, 8, 8))
    assert order.shape == (0,) and order.dtype == np.int64


def test_scan_orders_2d_shapes_and_content():
    for h, w in ((2, 3), (1, 5)):  # a one-row map is a valid map
        scans = scan_orders_2d(h, w)
        assert scans.shape == (h * w, 4) and scans.dtype == np.int64
        row_fwd, row_rev, col_fwd, col_rev = scans.T.tolist()
        base = np.arange(h * w)
        assert row_fwd == base.tolist()
        assert row_rev == base[::-1].tolist()
        col = base.reshape(h, w).T.ravel()
        assert col_fwd == col.tolist()
        assert col_rev == col[::-1].tolist()


def test_cross_merge_2d_matches_reference(rng):
    h, w, c = 5, 7, 3
    scans = scan_orders_2d(h, w)
    seqs = [rng.normal(size=(h * w, c)).astype(np.float32) for _ in range(4)]
    got = cross_merge_2d(seqs, scans, h, w)
    want = oracles.cross_merge(seqs, scans.T.tolist(), h, w)
    assert got.dtype == np.float32
    assert np.allclose(got, want, atol=1e-6)


def test_cross_merge_2d_constant_seqs(rng):
    # each scan visits every cell once, so merging four constant sequences
    # gives four times the constant everywhere
    h, w, c = 4, 4, 2
    scans = scan_orders_2d(h, w)
    seq = np.full((16, c), 0.25, dtype=np.float32)
    got = cross_merge_2d([seq, seq, seq, seq], scans, h, w)
    assert np.allclose(got, 1.0)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**12 - 1))
def test_hilbert_scalar_roundtrip_random(bits, h):
    n = 1 << (3 * bits)
    h = h % n
    walk = oracles.hilbert_walk(bits)
    _, x, y, z, _ = walk[h]
    assert hilbert_index(x, y, z, bits) == h
