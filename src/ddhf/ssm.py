"""Discrete selective state-space primitive.

Zero-order-hold discretization, one streaming selective scan, and the
bidirectional block with input-dependent (B, C, Delta) generation that every
Mamba-style module in the pipeline instantiates.

Discretization is the closed ZOH form for a diagonal, strictly negative A
(S4D, arXiv 2206.11893). The scan runs SCAN_BLOCK = 64 steps at a time and
carries the state h on, so the expanded (n, C, d_state) state is never
built; every block size gives the same bits. Scans run internally in
float64 and return float32.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import MASK64, fnv1a64, init_param, prng_fill
from .ops import layer_norm, silu, softplus

DELTA_FLOOR = 1e-30
SCAN_BLOCK = 64  # steps discretized at once; any size gives the same bits
ROW_CHUNK = 2048  # rows per projection batch in bidirectional_block; same bits at any size


def softplus_delta(x: np.ndarray) -> np.ndarray:
    """Softplus clamped to a tiny positive floor.

    Generated step sizes must stay strictly positive; for inputs below about
    -104 the float32 softplus underflows to exactly zero, so the floor keeps
    the discretization precondition intact (and exp(1e-30 * a) == 1 anyway).
    """
    return np.maximum(softplus(x), DELTA_FLOOR)


@dataclass(frozen=True)
class ScanParams:
    """Per-step scan inputs: b, c are (n, d_state); delta is (n, C), positive."""

    b: np.ndarray
    c: np.ndarray
    delta: np.ndarray

    def reversed(self) -> "ScanParams":
        return ScanParams(self.b[::-1], self.c[::-1], self.delta[::-1])


def discretize(
    a: np.ndarray, b: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order hold for a diagonal A: with e = expm1(delta*a) taken once,
    Abar = e + 1 = exp(delta*a) and Bbar = e * (1/a) * b. This divides by a, so
    every a must be strictly negative and every delta positive; delta and a
    broadcast elementwise, and b broadcasts to the shape of delta*a."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a >= 0):
        raise ValueError("discretize: a must be strictly negative")
    if np.any(delta <= 0):
        raise ValueError("discretize: delta must be positive")
    e = np.asarray(delta, dtype=np.float64) * a
    np.expm1(e, out=e)
    abar = e + 1.0
    e *= 1.0 / a
    e *= b
    return abar, e


def _scan(x: np.ndarray, a: np.ndarray, params: ScanParams, block: int) -> np.ndarray:
    """Single streaming pass: discretize `block` steps, scan them, carry h on.

    Each block writes Bbar*x into one (m, C, d_state) buffer hs, runs
    hs[i] += Abar[i] * hs[i-1] in place (the previous block's hs[-1] before
    its first step), reads hs out with one batched matmul, adds the residual
    x in float64 and writes the block's float32 rows. No float64 temporary
    outlives its block. Each step's arithmetic is the same at every block
    size, so every size gives the same bits.
    """
    n, c_width = x.shape
    h = np.zeros(np.shape(a))
    out = np.empty((n, c_width), dtype=np.float32)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        abar, hs = discretize(a, params.b[lo:hi, None, :], params.delta[lo:hi, :, None])
        hs *= x[lo:hi, :, None]
        for abar_i, h_i in zip(abar, hs):
            h_i += abar_i * h
            h = h_i
        c_seq = params.c[lo:hi, :, None].astype(np.float64)
        r = np.matmul(hs, c_seq)[:, :, 0]
        r += x[lo:hi]
        out[lo:hi] = r
    return out


def selective_scan(x: np.ndarray, a: np.ndarray, params: ScanParams) -> np.ndarray:
    """h_i = Abar_i h_{i-1} + Bbar_i x_i with h_0 = 0; out_i = C_i . h_i + x_i.

    x: (n, C); a: (C, d_state) continuous diagonal (negative); returns (n, C).
    Streams SCAN_BLOCK steps at a time.
    """
    return _scan(x, a, params, SCAN_BLOCK)


def selective_scan_chunked(
    x: np.ndarray, a: np.ndarray, params: ScanParams, chunk: int
) -> np.ndarray:
    """selective_scan streaming `chunk` steps at a time; bit-identical to it."""
    if chunk < 1:
        raise ValueError("selective_scan_chunked: chunk must be >= 1")
    return _scan(x, a, params, chunk)


# ---------------------------------------------------------------------------
# Bidirectional block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SsmBlockWeights:
    """Weights of one bidirectional selective-scan block (shared fwd/bwd)."""

    a: np.ndarray  # (C, d_state), strictly negative
    norm_scale: np.ndarray  # (C,); (4, C), one per direction, in hbf.ib_mamba
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

    @property
    def width(self) -> int:
        return self.a.shape[0]

    def identity_configured(self) -> "SsmBlockWeights":
        """Zero the output projection and gate: block becomes the identity."""
        z = np.zeros_like
        return replace(
            self, y_w=z(self.y_w), y_b=z(self.y_b), out_w=z(self.out_w), out_b=z(self.out_b)
        )


def s4d_real_a(c: int, d_state: int) -> np.ndarray:
    """S4D-real diagonal A: row -(1, 2, ..., d_state) for each of c channels."""
    return -np.tile(np.arange(1, d_state + 1, dtype=np.float32), (c, 1))


def init_dt_bias(name: str, c: int, global_seed: int) -> np.ndarray:
    """Bias such that softplus(bias) lands uniformly in [0.01, 0.1]."""
    seed = fnv1a64(name) ^ (global_seed & MASK64)
    _, u = prng_fill(seed, c)
    target = 0.01 + u * 0.09
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


def bidirectional_block(seq: np.ndarray, w: SsmBlockWeights) -> np.ndarray:
    """Forward + backward selective scans, gated and residually added.

    Scan weights are shared between directions, so palindromic inputs give
    palindromic outputs. Zeroing out_proj and y_gate makes this the identity.

    Layer norm, in_proj, the (B, C, Delta) generation, the gate and out_proj
    run over ROW_CHUNK rows at a time into float32 buffers, so no
    whole-sequence float64 temporary exists. Every step is row-wise, so any
    chunk size gives the same bits.
    """
    n, c_width = seq.shape
    if n == 0:
        return seq.astype(np.float32)
    d_state = w.a.shape[1]
    x = np.empty((n, c_width), dtype=np.float32)
    params = ScanParams(
        b=np.empty((n, d_state), dtype=np.float32),
        c=np.empty((n, d_state), dtype=np.float32),
        delta=np.empty((n, c_width), dtype=np.float32),
    )
    for lo in range(0, n, ROW_CHUNK):
        rows = slice(lo, lo + ROW_CHUNK)
        u = layer_norm(seq[rows], w.norm_scale, w.norm_shift)
        x[rows] = u @ w.in_w + w.in_b
        part = generate_scan_params(x[rows], w)
        params.b[rows], params.c[rows], params.delta[rows] = part.b, part.c, part.delta
    # the chunked name keeps voxel-block scans apart from BEV scans in traces
    fwd = selective_scan_chunked(x, w.a, params, SCAN_BLOCK)
    bwd = selective_scan_chunked(x[::-1], w.a, params.reversed(), SCAN_BLOCK)[::-1]
    del x, params  # only the scan outputs are read from here on
    out = np.empty((n, c_width), dtype=np.float32)
    for lo in range(0, n, ROW_CHUNK):
        rows = slice(lo, lo + ROW_CHUNK)
        y = (fwd[rows] + bwd[rows]) * silu(seq[rows] @ w.y_w + w.y_b)
        out[rows] = seq[rows] + y @ w.out_w + w.out_b
    return out
