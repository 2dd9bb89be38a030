import numpy as np
import pytest
from conftest import PINS, fill_zero_tensors, sha256_hashes, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from ddhf import oracles, ssm
from ddhf.curve import scan_orders_2d
from ddhf.ops import layer_norm
from ddhf.ssm import (
    DELTA_FLOOR,
    ScanParams,
    SsmBlockWeights,
    bidirectional_block,
    generate_scan_params,
    init_ssm_block,
    selective_scan,
    selective_scan_chunked,
    softplus_delta,
)


def _zoh64(a, b, delta):
    """(Abar, Bbar) from the scan's ZOH helper, run on float64 buffers."""
    a, b, delta = (np.asarray(v, dtype=np.float64) for v in (a, b, delta))
    e, bbar = np.empty(delta.shape), np.empty(delta.shape)
    ssm._zoh(a, 1.0 / a, b, delta, e, bbar)
    return e + 1.0, bbar


def test_zoh_closed_forms():
    abar, bbar = _zoh64([[-1.0]], [[0.0]], [[np.log(2.0)]])
    assert np.allclose(abar, 0.5, atol=1e-12)
    assert np.allclose(bbar, 0.0)
    # expm1 keeps full relative precision for tiny |delta*a|, so
    # expm1(delta*a)/a still gives Bbar = delta * B there
    _, bbar0 = _zoh64([[-1e-12]], [[2.0]], [[0.5]])
    assert np.allclose(bbar0, 1.0, atol=1e-9)


def test_zoh_matches_quadrature(rng):
    a = -rng.uniform(0.1, 3.0, size=(6, 4))
    b = rng.normal(size=(6, 4))
    delta = rng.uniform(0.01, 1.0, size=(6, 4))
    abar, bbar = _zoh64(a, b, delta)
    for i in range(6):
        for j in range(4):
            qa, qb = oracles.zoh_quadrature(a[i, j], b[i, j], delta[i, j])
            assert abs(abar[i, j] - qa) <= 1e-6
            assert abs(bbar[i, j] - qb) <= 1e-6


def _unit_scan_params(delta: float) -> ScanParams:
    """Params of a 3-step, 2-channel scan with d_state 2 and constant delta."""
    ones = np.ones((3, 2), dtype=np.float32)
    return ScanParams(b=ones, c=ones, delta=np.full((3, 2), delta, dtype=np.float32))


def test_selective_scan_rejects_nonnegative_a():
    # the closed form divides by a, so a must be strictly negative
    x = np.ones((3, 2), dtype=np.float32)
    for bad in (0.0, 1.0, -0.0):
        a = np.array([[-1.0, bad], [-1.0, -2.0]])
        with pytest.raises(ValueError, match="selective_scan: a must be strictly negative"):
            selective_scan(x, a, _unit_scan_params(0.5))


def test_selective_scan_rejects_nonpositive_delta():
    x = np.ones((3, 2), dtype=np.float32)
    a = -np.ones((2, 2))
    with pytest.raises(ValueError, match="selective_scan: delta must be positive"):
        selective_scan(x, a, _unit_scan_params(0.0))


def test_softplus_delta_floor():
    d = softplus_delta(np.array([-200.0, -50.0, 0.0, 5.0], dtype=np.float32))
    assert d.min() >= DELTA_FLOOR
    assert np.all(d > 0)
    assert np.isclose(d[2], np.log(2.0), atol=1e-6)


def test_softplus_delta_in_place_keeps_bits(rng):
    # cb_mamba writes softplus_delta of the Delta columns of its generator
    # output back over them, through a strided view
    x = np.concatenate(
        [rng.normal(size=(64, 9)) * 30, np.full((64, 1), -200.0)], axis=1
    ).astype(np.float32)
    want = np.maximum(np.logaddexp(0.0, x[:, 2:]), DELTA_FLOOR)
    delta = x[:, 2:]
    delta[...] = softplus_delta(delta)
    assert np.array_equal(x[:, 2:].view(np.uint32), want.view(np.uint32))


def _random_case(rng, n, c, ds):
    x = rng.normal(size=(n, c)).astype(np.float32)
    a = -rng.uniform(0.1, 2.0, size=(c, ds))
    params = ScanParams(
        b=rng.normal(size=(n, ds)).astype(np.float32),
        c=rng.normal(size=(n, ds)).astype(np.float32),
        delta=rng.uniform(0.01, 0.5, size=(n, c)).astype(np.float32),
    )
    return x, a, params


def test_selective_scan_matches_dense(rng):
    for _ in range(10):
        n = int(rng.integers(2, 33))
        c = int(rng.integers(1, 9))
        ds = int(rng.integers(1, 5))
        x, a, params = _random_case(rng, n, c, ds)
        got = selective_scan(x, a, params)
        want = oracles.ssm_dense(x, a, params.b, params.c, params.delta)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


# Frame-scale accuracy of the float32 scan against the float64 dense unroll.
# Deltas from 1e-5 to 1e-3 put Abar near 1, where a float32 Abar would lose
# 1 - Abar to rounding on every step; the increment form keeps it, and its
# error there must stay below NEAR_ONE_BOUND (1.1e-7 measured at this size;
# a float32 Abar = exp(delta*a) reads 2.5e-6 and grows with the length).
FRAME_ROWS = 8192
FRAME_BOUND = 1e-5
NEAR_ONE_BOUND = 5e-7


@pytest.mark.parametrize(
    "delta, bound",
    [(DELTA_FLOOR, FRAME_BOUND)]
    + [(d, NEAR_ONE_BOUND) for d in (1e-5, 1e-4, 1e-3)]
    + [(d, FRAME_BOUND) for d in (0.1, 1.0, 20.0, "softplus")],
)
def test_selective_scan_matches_dense_at_frame_length(delta, bound):
    # the error is taken per element, relative to max(|y|, 1), against
    # oracles.ssm_dense with the default config's C / d_state ratio cut to
    # C = 2 (the oracle's time grows with n^2 * C * d_state)
    rng = np.random.default_rng(FRAME_ROWS)
    c_width, d_state = 2, 16
    x = rng.normal(size=(FRAME_ROWS, c_width)).astype(np.float32)
    b = rng.normal(size=(FRAME_ROWS, d_state)).astype(np.float32)
    c = rng.normal(size=(FRAME_ROWS, d_state)).astype(np.float32)
    if delta == "softplus":
        steps = softplus_delta((rng.normal(size=(FRAME_ROWS, c_width)) * 3 - 3).astype(np.float32))
    else:
        steps = np.full((FRAME_ROWS, c_width), delta, dtype=np.float32)
    a = ssm.s4d_real_a(c_width, d_state)
    got = selective_scan(x, a, ScanParams(b, c, steps))
    want = oracles.ssm_dense(x, a, b, c, steps)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= bound


def test_chunked_scan_bit_exact_at_extremes(rng):
    n, c, ds = 24, 4, 3
    x, a, params = _random_case(rng, n, c, ds)
    base = selective_scan(x, a, params)
    assert np.array_equal(selective_scan_chunked(x, a, params, chunk=1), base)
    assert np.array_equal(selective_scan_chunked(x, a, params, chunk=n), base)


def test_chunked_scan_long_sequence(rng):
    n, c, ds = 1024, 8, 4
    x, a, params = _random_case(rng, n, c, ds)
    base = selective_scan(x, a, params)
    got = selective_scan_chunked(x, a, params, chunk=64)
    assert np.array_equal(got, base)


def test_selective_scan_peak_memory(rng):
    # streaming never holds the (n, C, d_state) state (2 * 8192 * 32 * 16 *
    # 4 B = 34 MB for e and Bbar*x), nor a whole-sequence float64 output
    # (2.1 MB): only the float32 output (1.0 MB) and one block's float32
    # buffers (2 * 64 * 32 * 16 * 4 B = 0.26 MB) with their temporaries,
    # the repeated x among them, 0.50 MB over the output in all; float64
    # block buffers read 0.80 MB
    x, a, params = _random_case(rng, 8192, 32, 16)
    assert traced_peak(selective_scan, x, a, params) < x.nbytes + 0.6e6
    # a G-stream block holds 64 stream-steps, so the bidirectional block's
    # two-stream table and the BEV scans' four-stream one read 0.43 MB over
    # their (n, G, C) output; blocks of 64 steps per stream would hold G
    # times the buffers
    steps = np.arange(8192)
    two = np.stack([steps, steps[::-1]], axis=1)
    for rows in (two, scan_orders_2d(64, 128)):
        out_bytes = rows.size * x.shape[1] * 4
        assert traced_peak(selective_scan, x, a, params, rows) < out_bytes + 0.6e6, rows.shape


def test_bidirectional_block_peak_memory(rng):
    # x, B, C, Delta and the scan's one (n, C) sum of both directions are
    # float32 (9.85 MB at this size); one whole-sequence float64 (n, C)
    # temporary adds 4.9 MB (28.9 MB peak before the rows were chunked,
    # 13.8 MB after). 10.74 MB measured; the scan's (n, 2, C) per-direction
    # output read 13.51 MB, and float64 block buffers 13.83 MB
    w = init_ssm_block("peak", 32, 16, 3)
    seq = rng.normal(size=(19240, 32)).astype(np.float32)
    assert traced_peak(bidirectional_block, seq, w) < 11.0e6


def test_identity_configured_block_is_identity(rng):
    w = init_ssm_block("blk", 6, 4, 3).identity_configured()
    seq = rng.normal(size=(15, 6)).astype(np.float32)
    out = bidirectional_block(seq, w)
    assert np.array_equal(out, seq)


def test_identity_configured_block_with_filled_zero_tensors(rng):
    w = fill_zero_tensors(init_ssm_block("blk", 6, 4, 3), rng).identity_configured()
    seq = rng.normal(size=(15, 6)).astype(np.float32)
    assert np.array_equal(bidirectional_block(seq, w), seq)


def test_bidirectional_block_palindrome(rng):
    # shared forward/backward parameters make the block equivariant under
    # sequence reversal, so a palindromic input stays palindromic
    w = init_ssm_block("blk", 4, 3, 9)
    half = rng.normal(size=(4, 4)).astype(np.float32)
    seq = np.concatenate([half, half[::-1]], axis=0)
    out = bidirectional_block(seq, w)
    assert np.allclose(out, out[::-1], atol=1e-6)


def test_bidirectional_block_empty_sequence():
    out = bidirectional_block(np.zeros((0, 6), dtype=np.float32), init_ssm_block("blk", 6, 4, 3))
    assert out.shape == (0, 6) and out.dtype == np.float32


def test_bidirectional_block_deterministic(rng):
    w = init_ssm_block("blk", 8, 4, 5)
    seq = rng.normal(size=(33, 8)).astype(np.float32)
    assert np.array_equal(bidirectional_block(seq, w), bidirectional_block(seq, w))


def test_init_ssm_block_structure():
    w = init_ssm_block("blk", 5, 3, 1)
    assert w.a.shape == (5, 3)
    assert np.all(w.a < 0)
    assert np.allclose(w.a, -np.tile(np.arange(1, 4), (5, 1)))
    d = softplus_delta(np.broadcast_to(w.dt_b, (1, 5)))
    assert np.all(d >= 0.01 - 1e-6)
    assert np.all(d <= 0.1 + 1e-6)


def test_generate_scan_params_delta_positive(rng):
    w = init_ssm_block("blk", 6, 4, 2)
    x = rng.normal(size=(20, 6)).astype(np.float32) * 50
    params = generate_scan_params(x, w)
    assert params.delta.shape == (20, 6)
    assert np.all(params.delta > 0)
    assert params.b.shape == (20, 4)
    assert params.c.shape == (20, 4)


def scan_hash_block_input() -> tuple[np.ndarray, SsmBlockWeights]:
    """The seeded (n=3000, C=32) sequence and d_state=16 block the hashes use."""
    w = init_ssm_block("scan_hash", 32, 16, 7)
    return np.random.default_rng(3000).normal(size=(3000, 32)).astype(np.float32), w


def scan_hashes() -> dict:
    """SHA-256 of the float32 output bytes of one seeded bidirectional block
    (C=32, d_state=16, n=3000) and of its forward scan at three block sizes."""
    seq, w = scan_hash_block_input()
    x = (layer_norm(seq, w.norm_scale, w.norm_shift) @ w.in_w + w.in_b).astype(np.float32)
    params = generate_scan_params(x, w)
    outs = {"block": bidirectional_block(seq, w)}
    for chunk in (1, 64, seq.shape[0]):
        outs[f"scan_chunk_{chunk}"] = selective_scan_chunked(x, w.a, params, chunk)
    return sha256_hashes(outs)


def test_scan_output_hashes():
    # unlike the golden detection digests, these change when any scan output
    # moves by one float32 ulp; a change meant to keep the scan's bits keeps them
    assert scan_hashes() == PINS["scan"]


@pytest.mark.parametrize("rows", [1, 7, 3000])
def test_bidirectional_block_any_row_chunk(monkeypatch, rows):
    # every step the row chunks cut is row-wise, so each chunk size keeps the
    # pinned bits (3000 is the whole sequence)
    monkeypatch.setattr(ssm, "ROW_CHUNK", rows)
    block = bidirectional_block(*scan_hash_block_input())
    assert sha256_hashes({"block": block})["block"] == PINS["scan"]["block"]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=48), st.integers(min_value=501, max_value=20000))
def test_chunked_any_chunk_close(n, seed):
    rng = np.random.default_rng(seed)
    x, a, params = _random_case(rng, n, 3, 2)
    base = selective_scan(x, a, params)
    for chunk in (1, 2, 5, n):
        got = selective_scan_chunked(x, a, params, chunk=chunk)
        assert np.array_equal(got, base)


def _stream_tables(rng, n: int) -> dict:
    """Four-stream row tables over n source rows: forward/backward pairs, random
    permutations, and n + 5 steps of rows drawn with repeats."""
    steps = np.arange(n)
    return {
        "reversed": np.stack([steps, steps[::-1], steps, steps[::-1]], axis=1),
        "permuted": np.stack([rng.permutation(n) for _ in range(4)], axis=1),
        "repeats": rng.integers(0, n, size=(n + 5, 4)),
    }


@pytest.mark.parametrize("streams", [1, 2, 4])
@pytest.mark.parametrize("per_stream", [False, True])
@pytest.mark.parametrize("table", ["reversed", "permuted", "repeats"])
def test_stream_scan_matches_single_streams(streams, per_stream, table):
    # every stream of a G-stream call must give the bits of a lone scan over
    # its own rows, whatever the block size (in stream-steps; rows.size puts
    # the whole table in one block)
    rng = np.random.default_rng(streams * 10 + per_stream)
    n, c, ds = 150, 8, 4
    x, a, params = _random_case(rng, n, c, ds)
    if per_stream:
        params = ScanParams(
            b=rng.normal(size=(n, streams, ds)).astype(np.float32),
            c=rng.normal(size=(n, streams, ds)).astype(np.float32),
            delta=rng.uniform(0.01, 0.5, size=(n, streams, c)).astype(np.float32),
        )
    rows = _stream_tables(rng, n)[table][:, :streams]
    lone = []
    for g in range(streams):
        r = rows[:, g]
        own = [p[:, g] if per_stream else p for p in (params.b, params.c, params.delta)]
        lone.append(selective_scan(x[r], a, ScanParams(*(p[r] for p in own))))
    want = np.stack(lone, axis=1)
    assert np.array_equal(selective_scan(x, a, params, rows), want)
    for block in (1, 7, 64, rows.size):
        assert np.array_equal(selective_scan_chunked(x, a, params, block, rows), want), block


@pytest.mark.parametrize(
    "rows, per_stream_width",
    [
        (np.arange(10), None),
        (np.zeros((10, 2, 1), dtype=np.int64), None),
        (np.zeros((10, 2)), None),
        (np.zeros((10, 2), dtype=bool), None),
        (np.full((10, 2), 10), None),
        (np.full((10, 2), -1), None),
        (np.zeros((10, 2), dtype=np.int64), 3),
    ],
    ids=["1-D", "3-D", "float", "bool", "past-end", "negative", "stream-width"],
)
def test_stream_scan_rejects_bad_row_table(rng, rows, per_stream_width):
    x, a, params = _random_case(rng, 10, 3, 2)
    if per_stream_width is not None:
        params = ScanParams(
            np.repeat(params.b[:, None], per_stream_width, axis=1), params.c, params.delta
        )
    with pytest.raises(ValueError, match="row table"):
        selective_scan(x, a, params, rows)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float32).tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 31, 32, 33, 64, 101])
def test_summed_streams_match_per_stream_sum(n):
    # the summed scan must give, per source row, the bits of adding its
    # two per-stream outputs: n = 1 to 31 fits in one 32-step block of a
    # two-stream call, and at odd n both streams read the middle row at
    # the same step; every third x row is -0.0
    rng = np.random.default_rng(n)
    x, a, params = _random_case(rng, n, 8, 4)
    x[::3] = -0.0
    steps = np.arange(n)
    both = np.stack([steps, steps[::-1]], axis=1)
    per_stream = selective_scan(x, a, params, both)
    want = per_stream[:, 0] + per_stream[::-1, 1]
    for block in (1, 2, 7, 64, both.size):
        got = selective_scan_chunked(x, a, params, block, sum_streams=True)
        assert got.shape == x.shape and _bits(got) == _bits(want), block


def test_summed_streams_reject_a_row_table(rng):
    # a summed scan's two streams are implied, forward and backward over
    # every row, so a row table, even that very pair, is an error
    x, a, params = _random_case(rng, 4, 3, 2)
    steps = np.arange(4)
    with pytest.raises(ValueError, match="sum_streams takes no rows"):
        selective_scan_chunked(
            x, a, params, 64, np.stack([steps, steps[::-1]], axis=1), sum_streams=True
        )


@pytest.mark.parametrize(
    "table",
    [
        np.array([[0, 3], [1, 2], [0, 1]]),
        np.array([[0, 3], [1, 3], [2, 3]]),
        np.array([[0, 3], [2, 2], [1, 1]]),
        np.stack([np.arange(4)] * 3, axis=1),
    ],
    ids=["repeat-in-stream-0", "repeat-in-stream-1", "out-of-order", "three-streams"],
)
def test_summed_streams_reject_a_table_that_is_not_one_or_two_runs(rng, table):
    # a malformed table (a repeated or out-of-order row, a third stream)
    # fails the same way as the forward-backward pair: by being a table
    x, a, params = _random_case(rng, 4, 3, 2)
    with pytest.raises(ValueError, match="sum_streams takes no rows"):
        selective_scan_chunked(x, a, params, 64, table, sum_streams=True)


@pytest.mark.parametrize(
    "n, row_chunk",
    [(0, ssm.ROW_CHUNK), (1, ssm.ROW_CHUNK), (300, ssm.ROW_CHUNK),
     (2 * ssm.ROW_CHUNK + 300, ssm.ROW_CHUNK), (3 * 64 + 10, 64)],
    ids=["empty", "one-row", "one-chunk", "folded-300-row-tail", "folded-10-row-tail"],
)
def test_bidirectional_block_order_reads_in_place(monkeypatch, n, row_chunk):
    # scanning feats through `order` must give the bits of scanning the
    # permuted copy feats[order], written back at order; the chunk cases
    # cross ROW_CHUNK boundaries and end in a tail under MIN_ROW_CHUNK rows
    monkeypatch.setattr(ssm, "ROW_CHUNK", row_chunk)
    monkeypatch.setattr(ssm, "MIN_ROW_CHUNK", min(ssm.MIN_ROW_CHUNK, row_chunk // 4))
    rng = np.random.default_rng(n)
    w = init_ssm_block("order", 8, 4, 11)
    feats = rng.normal(size=(n, 8)).astype(np.float32)
    order = rng.permutation(n)
    want = np.empty_like(feats)
    want[order] = bidirectional_block(feats[order], w)
    assert _bits(bidirectional_block(feats, w, order)) == _bits(want)


@pytest.mark.parametrize(
    "order", [[0, 1, 1], [0, 1], [0, 1, 3]], ids=["repeat", "short", "past-end"]
)
def test_bidirectional_block_rejects_an_order_that_is_not_a_permutation(rng, order):
    feats = rng.normal(size=(3, 4)).astype(np.float32)
    with pytest.raises(ValueError, match="order must be a permutation"):
        bidirectional_block(feats, init_ssm_block("order", 4, 2, 1), np.array(order))


def test_bidirectional_block_one_row_tail(monkeypatch):
    # numpy sends a one-row float32 matmul to BLAS gemv, which OpenBLAS
    # rounds differently from gemm at K = 64; a one-row tail chunk would
    # change the last row's bits against the unchunked block
    w = init_ssm_block("tail", 64, 16, 5)
    seq = np.random.default_rng(64).normal(size=(ssm.ROW_CHUNK + 1, 64)).astype(np.float32)
    chunked = bidirectional_block(seq, w)
    monkeypatch.setattr(ssm, "ROW_CHUNK", seq.shape[0])
    assert np.array_equal(chunked, bidirectional_block(seq, w))


def test_bidirectional_block_short_tail_c56(monkeypatch):
    # at K = 56 OpenBLAS gemm gives the rows of a short (2- to 256-row)
    # float32 matmul other last bits than the same rows inside a long one,
    # so a 100-row tail chunk changes 121 of these rows against the unchunked
    # block; tails under MIN_ROW_CHUNK rows fold into the chunk before them
    w = init_ssm_block("tail56", 56, 16, 5)
    seq = np.random.default_rng(56).normal(size=(ssm.ROW_CHUNK + 100, 56)).astype(np.float32)
    chunked = bidirectional_block(seq, w)
    monkeypatch.setattr(ssm, "ROW_CHUNK", seq.shape[0])
    assert np.array_equal(chunked, bidirectional_block(seq, w))
