"""Discrete selective state-space primitive.

Zero-order-hold discretization, one streaming selective scan, and the
bidirectional block with input-dependent (B, C, Delta) generation that every
Mamba-style module in the pipeline instantiates.

Discretization is the closed ZOH form for a diagonal, strictly negative A
(S4D, arXiv 2206.11893), taken in one helper, `_zoh`, which the scan runs
on each block. The scan discretizes SCAN_BLOCK
stream-steps at a time and carries the state h on, so the expanded
(n, C, d_state) state is never built; every block size gives the same bits.
Scans run in float32, as Mamba's reference selective scan does (arXiv
2312.00752), and advance h by an increment, h + (e*h + Bbar*x) with
e = Abar - 1 = expm1(Delta*a), so 1 - Abar keeps float32 precision
when Abar is near 1.

One scan call can advance G streams over one source x (N, C) at once: an
(n, G) integer row table says which row of x, and of the scan parameters,
stream g reads at step i (VMamba's SS2D runs its scan directions as one
batch axis the same way, arXiv 2401.10166). The parameters are shared
(N, .) or per stream (N, G, .). Each stream does the same elementwise
arithmetic and the same per-step readout matmul as a lone scan, so its
output has the same bits; without a row table a call is one forward stream.
A summed call takes no row table: it runs two streams, forward over rows
0..N-1 and backward over N-1..0, and sums their outputs into one (N, C)
buffer, as bidirectional Mamba sums its forward and backward outputs (Vim,
arXiv 2401.09417); the sum has the bits of adding the two per-stream
outputs, and the (N, 2, C) output is never held. The
bidirectional block scans that way, and it reads its sequence through a
row order in place and writes its output rows back through it, so a
Hilbert-ordered voxel block builds neither a permuted copy of its input
nor a second output buffer to scatter into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import init_param, named_draws, zeroed
from .ops import layer_norm, silu, softplus

DELTA_FLOOR = 1e-30
SCAN_BLOCK = 64  # stream-steps discretized at once; any size gives the same bits
ROW_CHUNK = 2048  # rows per projection batch in bidirectional_block
MIN_ROW_CHUNK = 512  # a shorter last chunk joins the one before it


def softplus_delta(x: np.ndarray) -> np.ndarray:
    """Softplus clamped to a tiny positive floor.

    Generated step sizes must stay strictly positive; for inputs below about
    -104 the float32 softplus underflows to exactly zero, so the floor keeps
    the discretization precondition intact (and exp(1e-30 * a) == 1 anyway).
    The floor is applied in place on softplus's new array, so that array is
    the one temporary.
    """
    d = softplus(x)
    np.maximum(d, DELTA_FLOOR, out=d)
    return d


@dataclass(frozen=True)
class ScanParams:
    """Scan inputs per source row: b and c are (N, d_state) and delta is
    (N, C), positive, shared by every stream; or each is (N, G, .), one slice
    per column of a G-stream row table."""

    b: np.ndarray
    c: np.ndarray
    delta: np.ndarray


def _zoh(a, inv_a, b, delta, e: np.ndarray, bbar: np.ndarray) -> None:
    """The closed form, unchecked, into buffers of the dtype it runs in:
    e = expm1(delta*a), then bbar = e * (1/a) * b. Abar is e + 1. It divides
    by a, so the scan first checks that every a is strictly negative and
    every delta positive. delta may be e itself, already broadcast along
    d_state: the scan gathers each block's delta rows into e and
    discretizes there in place."""
    np.multiply(delta, a, out=e)
    np.expm1(e, out=e)
    np.multiply(e, inv_a, out=bbar)
    bbar *= b


def _row_table(rows, n_src: int, params: ScanParams) -> np.ndarray:
    """The (n, G) row table, checked against the source length and the
    parameters' stream width; None is one forward stream over every row."""
    if rows is None:
        rows = np.arange(n_src)[:, None]
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"selective_scan: row table must be (steps, streams), got {rows.shape}")
    if not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"selective_scan: row table must hold integers, got {rows.dtype}")
    if rows.size and (rows.min() < 0 or rows.max() >= n_src):
        raise ValueError(f"selective_scan: row table entries must lie in [0, {n_src})")
    for name in ("b", "c", "delta"):
        p = getattr(params, name)
        if p.ndim == 3 and p.shape[1] != rows.shape[1]:
            raise ValueError(
                f"selective_scan: row table has {rows.shape[1]} streams"
                f" but params.{name} has {p.shape[1]}"
            )
    return rows


def _gather(p: np.ndarray, rows: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """Each stream's float32 parameter rows: (k, G, .) from shared or
    per-stream p."""
    return (p[rows] if p.ndim == 2 else p[rows, streams]).astype(np.float32, copy=False)


def _scan(
    x: np.ndarray,
    a: np.ndarray,
    params: ScanParams,
    block: int,
    rows=None,
    sum_streams: bool = False,
) -> np.ndarray:
    """Single streaming pass over G streams: discretize a block of
    m = max(1, block // G) steps of every stream, scan them, carry h on.

    Every buffer, a, 1/a and the carried state h are float32. Counting a
    block in stream-steps keeps its buffers the size of a lone stream's, so
    a G-stream call holds no more memory than one stream. The call holds
    two (m, G, C, d_state) buffers, e and hs, one (m, G, C, 1) readout
    buffer, and the per-step (e_i, hs[i]) views, built once and reused by
    every block. Each block gathers its delta rows into e, broadcast along
    d_state, and `_zoh` discretizes there in place: e = expm1(delta*a), hs
    = Bbar. Its gathered b rows and its x rows, repeated along d_state into
    one contiguous array, multiply into hs to give Bbar*x. Each step adds
    an increment, d = e_i*h + (Bbar*x)_i and h_i = h + d, in place over e_i
    and hs[i] (the previous block's last state before its first step),
    through three ufunc calls with positional outputs: multiplying h by
    Abar = e + 1 would round 1 - Abar to float32 spacing near 1 and lose it
    over thousands of steps. One batched matmul reads hs out into the
    readout buffer with the gathered c rows, one (C, d_state) @ (d_state,)
    product per step and stream, and the residual x is added straight into
    the block's output rows. The a and delta checks and 1/a are taken once
    per call, and no temporary outlives its block. Each step's arithmetic
    is the same at every block size and stream count, so every size and
    grouping gives the same bits. Returns float32 (n, G, C), or (N, C)
    without a row table.

    With `sum_streams` there is no row table to pass: the call runs stream
    0 over rows 0..N-1 and stream 1 over N-1..0, and the (N, 2, C) output
    is never built. The residual goes into the readout buffer, and the
    block at step lo adds stream 0's rows into out[lo:lo+k], then stream
    1's, reversed, into out[N-lo-k:N-lo], of one (N, C) float32
    accumulator, which is returned. It starts at -0.0, the additive
    identity, so each row holds its two outputs' float32 sum, -0.0
    included, whichever stream reaches it first. One slice add per block
    and stream replaced a fancy-index add that made a bidirectional block
    of 18,000 rows about 5 ms slower (2-vCPU Xeon VM).
    """
    if sum_streams:
        if rows is not None:
            raise ValueError(
                "selective_scan: sum_streams takes no rows; it scans rows 0..N-1 and N-1..0"
            )
        steps = np.arange(x.shape[0])
        rows = np.stack([steps, steps[::-1]], axis=1)
    table = _row_table(rows, x.shape[0], params)
    n, g = table.shape
    c_width = x.shape[1]
    a = np.asarray(a, dtype=np.float32)
    if np.any(a >= 0):
        raise ValueError("selective_scan: a must be strictly negative")
    if np.any(params.delta <= 0):
        raise ValueError("selective_scan: delta must be positive")
    inv_a = 1.0 / a
    d_state = a.shape[1]
    per_block = max(1, block // g)
    m = min(per_block, n)
    streams = np.arange(g)
    f32 = np.float32
    e, hs = np.empty((m, g, c_width, d_state), f32), np.empty((m, g, c_width, d_state), f32)
    y = np.empty((m, g, c_width, 1), f32)
    steps = list(zip(e, hs))
    h = np.zeros((g, c_width, d_state), f32)
    if sum_streams:
        out = np.full(x.shape, -0.0, f32)
    else:
        out = np.empty((n, g, c_width), f32)
    mul, add = np.multiply, np.add
    for lo in range(0, n, per_block):
        k = min(per_block, n - lo)
        r = table[lo : lo + k]
        xs = x[r].astype(f32, copy=False)
        e_k, hs_k = e[:k], hs[:k]
        e_k[...] = _gather(params.delta, r, streams)[..., None]
        _zoh(a, inv_a, _gather(params.b, r, streams)[:, :, None], e_k, e_k, hs_k)
        hs_k *= np.repeat(xs[..., None], d_state, axis=3)
        prev = h
        for e_i, h_i in steps[:k]:
            mul(e_i, prev, e_i)
            add(e_i, h_i, e_i)
            add(prev, e_i, h_i)
            prev = h_i
        h[...] = prev
        np.matmul(hs_k, _gather(params.c, r, streams)[..., None], out=y[:k])
        if sum_streams:
            y_k = add(y[:k, :, :, 0], xs, y[:k, :, :, 0])
            out[lo : lo + k] += y_k[:, 0]
            out[n - lo - k : n - lo] += y_k[::-1, 1]
        else:
            add(y[:k, :, :, 0], xs, out[lo : lo + k])
    return out[:, 0] if rows is None else out


def selective_scan(
    x: np.ndarray, a: np.ndarray, params: ScanParams, rows: np.ndarray | None = None
) -> np.ndarray:
    """h_i = Abar_i h_{i-1} + Bbar_i x_i with h_0 = 0; out_i = C_i . h_i + x_i.

    x: (N, C); a: (C, d_state) continuous diagonal (negative); returns (N, C).
    With an (n, G) integer row table `rows`, stream g reads source row
    rows[i, g] at step i and the result is (n, G, C). Streams SCAN_BLOCK
    stream-steps (SCAN_BLOCK // G steps of each stream) at a time.
    """
    return _scan(x, a, params, SCAN_BLOCK, rows)


def selective_scan_chunked(
    x: np.ndarray,
    a: np.ndarray,
    params: ScanParams,
    chunk: int,
    rows: np.ndarray | None = None,
    sum_streams: bool = False,
) -> np.ndarray:
    """selective_scan streaming `chunk` stream-steps at a time; bit-identical
    to it. With `sum_streams`, and no `rows`, it returns the (N, C) float32
    sum, per row, of a forward scan over rows 0..N-1 and a backward scan
    over N-1..0 (`_scan`)."""
    if chunk < 1:
        raise ValueError("selective_scan_chunked: chunk must be >= 1")
    return _scan(x, a, params, chunk, rows, sum_streams)


# ---------------------------------------------------------------------------
# Bidirectional block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SsmBlockWeights:
    """Weights of one bidirectional selective-scan block (shared fwd/bwd)."""

    a: np.ndarray  # (C, d_state), strictly negative
    norm_scale: np.ndarray  # (C,); (N_DIRECTIONS, C), one per direction, in hbf.ib_mamba
    norm_shift: np.ndarray
    in_w: np.ndarray  # (C, C)
    in_b: np.ndarray  # (C,)
    b_w: np.ndarray  # (C, d_state)
    c_w: np.ndarray  # (C, d_state)
    dt_w: np.ndarray  # (C, C)
    dt_b: np.ndarray  # (C,)
    y_w: np.ndarray  # (C, C)
    y_b: np.ndarray  # (C,)
    out_w: np.ndarray  # (C, C)
    out_b: np.ndarray  # (C,)

    def __post_init__(self):
        if np.any(self.a >= 0):
            raise ValueError("SsmBlockWeights: A entries must be strictly negative")

    def identity_configured(self) -> "SsmBlockWeights":
        """Zero the output projection and gate: block becomes the identity."""
        return zeroed(self, "y_w", "y_b", "out_w", "out_b")


def s4d_real_a(c: int, d_state: int) -> np.ndarray:
    """S4D-real diagonal A: row -(1, 2, ..., d_state) for each of c channels."""
    return -np.tile(np.arange(1, d_state + 1, dtype=np.float32), (c, 1))


def init_dt_bias(name: str, c: int, global_seed: int) -> np.ndarray:
    """Bias such that softplus(bias) lands uniformly in [0.01, 0.1]."""
    target = 0.01 + named_draws(name, global_seed, c) * 0.09
    return np.log(np.expm1(target)).astype(np.float32)


def init_ssm_block(name: str, c: int, d_state: int, global_seed: int) -> SsmBlockWeights:
    """Seed-derived block weights; A is the S4D-real diagonal -(1..d_state)."""
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, global_seed)
    return SsmBlockWeights(
        a=s4d_real_a(c, d_state),
        norm_scale=np.ones(c, dtype=np.float32),
        norm_shift=np.zeros(c, dtype=np.float32),
        in_w=p("in_proj.weight", (c, c)),
        in_b=p("in_proj.bias", (c,)),
        b_w=p("b_proj.weight", (c, d_state)),
        c_w=p("c_proj.weight", (c, d_state)),
        dt_w=p("dt_proj.weight", (c, c)),
        dt_b=init_dt_bias(f"{name}.dt_proj.floor", c, global_seed),
        y_w=p("y_gate.weight", (c, c)),
        y_b=p("y_gate.bias", (c,)),
        out_w=p("out_proj.weight", (c, c)),
        out_b=p("out_proj.bias", (c,)),
    )


def generate_scan_params(x: np.ndarray, w: SsmBlockWeights) -> ScanParams:
    """Input-specific (B, C, Delta); Delta through softplus so it stays positive."""
    return ScanParams(
        b=x @ w.b_w,
        c=x @ w.c_w,
        delta=softplus_delta(x @ w.dt_w + w.dt_b),
    )


def _row_chunks(n: int) -> list[slice]:
    """ROW_CHUNK-row slices covering [0, n), with a tail shorter than
    MIN_ROW_CHUNK rows folded into the chunk before it. Chunked rows keep the
    bits of the unchunked product only where BLAS gives a row the same bits
    whatever rows share its matmul. OpenBLAS 0.3.31 float32 gemm does for
    calls of MIN_ROW_CHUNK rows or more; shorter ones differ at K = 56 (2 to
    256 rows measured), and numpy sends a one-row matmul to gemv, which
    rounds differently from gemm from K = 56 up."""
    bounds = [*range(0, n, ROW_CHUNK), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < MIN_ROW_CHUNK:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def bidirectional_block(
    feats: np.ndarray, w: SsmBlockWeights, order: np.ndarray | None = None
) -> np.ndarray:
    """Forward + backward selective scans over the sequence feats[order],
    gated and residually added; the result is in feats' row order.

    Scan weights are shared between directions, so palindromic inputs give
    palindromic outputs. Zeroing out_proj and y_gate makes this the identity.
    `order` is a permutation of feats' rows, position k of the sequence
    being row order[k]; None scans the rows as they stand. Either way the
    output rows are the ones bidirectional_block(feats[order], w) returns,
    written back at order, bit for bit.

    Both directions run as one two-stream scan that reads position i and
    position n-1-i at step i, and which sums the two streams' outputs per
    position into one (n, C) buffer (`sum_streams`).
    Layer norm, in_proj, the (B, C, Delta) generation, the gate and
    out_proj run over chunks of positions (`_row_chunks`) into float32
    buffers, each reading its feats rows through `order`, so neither a
    whole-sequence float64 temporary nor a permuted copy of feats exists.
    """
    n, c_width = feats.shape
    if order is not None:
        order = np.asarray(order)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"bidirectional_block: order must be a permutation of {n} rows")
    d_state = w.a.shape[1]
    x = np.empty((n, c_width), dtype=np.float32)
    params = ScanParams(
        b=np.empty((n, d_state), dtype=np.float32),
        c=np.empty((n, d_state), dtype=np.float32),
        delta=np.empty((n, c_width), dtype=np.float32),
    )
    chunks = [(pos, pos if order is None else order[pos]) for pos in _row_chunks(n)]
    for pos, rows in chunks:
        u = layer_norm(feats[rows], w.norm_scale, w.norm_shift)
        x[pos] = u @ w.in_w + w.in_b
        part = generate_scan_params(x[pos], w)
        params.b[pos], params.c[pos], params.delta[pos] = part.b, part.c, part.delta
    u = part = None  # the last chunk's temporaries are not held through the scan
    # the chunked name keeps voxel-block scans apart from BEV scans in traces
    both = selective_scan_chunked(x, w.a, params, SCAN_BLOCK, sum_streams=True)
    del x, params  # only the summed scan output is read from here on
    out = np.empty((n, c_width), dtype=np.float32)
    for pos, rows in chunks:
        seq = feats[rows]
        y = both[pos] * silu(seq @ w.y_w + w.y_b)
        out[rows] = seq + y @ w.out_w + w.out_b
    return out
