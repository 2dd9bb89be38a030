"""Shared numeric primitives and blocks: activations, norms, conv, the
residual conv block and the residual attention block."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import init_param, zeroed


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in one pass, without overflow: with e = exp(-|x|),
    1 / (1 + e) for x >= 0 and e / (1 + e) below. Computed in float32 for
    float32 input and in float64 otherwise; NaN stays NaN."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def silu(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow for large |x|
    return np.logaddexp(0.0, x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of float x along axis, written over x and returned: each
    in-place ufunc gives the bits of its out-of-place form. Callers pass an
    array they own, such as a fresh astype(np.float64)."""
    x -= np.max(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize over the last axis, then apply elementwise scale and shift.

    d = x - mean is taken once, in place in a float64 copy of x, and the
    variance is sum(d * d) / n, the arithmetic np.var does, so the result has
    np.var's bits. scale and shift broadcast against x: an (N, k, C) input
    with a (k, C) affine gives each of the k slices its own affine row."""
    d = x.astype(np.float64)
    d -= d.mean(axis=-1, keepdims=True)
    var = np.sum(d * d, axis=-1, keepdims=True) / x.shape[-1]
    d /= np.sqrt(var + 1e-5)  # the usual LayerNorm epsilon
    d *= scale
    d += shift
    return d.astype(np.float32)


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride: int = 1) -> np.ndarray:
    """2-D convolution on (H, W, Cin) with kernel (kh, kw, Cin, Cout) and
    bias (Cout,), same padding.

    Padding is (k-1)//2 per side, so odd kernels keep spatial size at stride 1.
    Each tap widens its input patch into one reused float64 buffer and takes
    its product into another, so no float64 temporary is made per tap.
    """
    kh, kw, cin, cout = kernel.shape
    h, w = x.shape[:2]
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (w + 2 * pw - kw) // stride + 1
    out = np.zeros((ho, wo, cout), dtype=np.float64)
    patch64, prod = np.empty((ho, wo, cin)), np.empty((ho, wo, cout))
    for di in range(kh):
        for dj in range(kw):
            patch64[...] = xp[di : di + ho * stride : stride, dj : dj + wo * stride : stride]
            out += np.matmul(patch64, kernel[di, dj].astype(np.float64), out=prod)
    del patch64, prod
    out += bias
    return out.astype(np.float32)


# residual conv block: conv_a kernel (3, 3, C, C), conv_a bias, conv_b kernel, conv_b bias
ConvBlock = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def init_conv_block(name: str, c: int, seed: int) -> ConvBlock:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, seed)
    return (
        p("conv_a.weight", (3, 3, c, c)),
        p("conv_a.bias", (c,)),
        p("conv_b.weight", (3, 3, c, c)),
        p("conv_b.bias", (c,)),
    )


def conv_block(x: np.ndarray, w: ConvBlock) -> np.ndarray:
    """Residual 3x3 conv block on (H, W, C): x + conv_b(silu(conv_a(x)))."""
    ka, ba, kb, bb = w
    return x + conv2d(silu(conv2d(x, ka, ba)), kb, bb)


def max_pool2d_same(x: np.ndarray) -> np.ndarray:
    """Max pool the last two axes of x (..., H, W) with a 3 x 3 window,
    stride 1, same padding; leading axes pool independently."""
    h, w = x.shape[-2:]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(1, 1), (1, 1)], constant_values=-np.inf)
    return np.max(
        np.stack([xp[..., di : di + h, dj : dj + w] for di in range(3) for dj in range(3)]),
        axis=0,
    )


def sinusoidal_encoding(pos: np.ndarray, dim: int) -> np.ndarray:
    """Standard sin/cos encoding of scalar positions (n,) into (n, dim); dim even."""
    if dim % 2:
        raise ValueError("sinusoidal_encoding: dim must be even")
    i = np.arange(dim // 2, dtype=np.float64)
    freq = 1.0 / (10000.0 ** (2.0 * i / dim))
    ang = pos.astype(np.float64)[:, None] * freq[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1).astype(np.float32)


def posenc_2d(rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """2-D positional encoding: half the channels encode row, half column."""
    if dim % 4:
        raise ValueError("posenc_2d: dim must be divisible by 4")
    half = dim // 2
    return np.concatenate(
        [sinusoidal_encoding(rows, half), sinusoidal_encoding(cols, half)], axis=-1
    )


@dataclass(frozen=True)
class AttentionWeights:
    """Projections of one attention block, each (C, C) with a (C,) bias."""

    q_w: np.ndarray
    q_b: np.ndarray
    k_w: np.ndarray
    k_b: np.ndarray
    v_w: np.ndarray
    v_b: np.ndarray
    o_w: np.ndarray
    o_b: np.ndarray

    def identity_configured(self) -> "AttentionWeights":
        """Zero the output projection: the block returns its input."""
        return zeroed(self, "o_w", "o_b")


def init_attn(name: str, c: int, seed: int) -> AttentionWeights:
    p = lambda suffix, shape: init_param(f"{name}.{suffix}", shape, seed)
    return AttentionWeights(
        p("q.weight", (c, c)), p("q.bias", (c,)),
        p("k.weight", (c, c)), p("k.bias", (c,)),
        p("v.weight", (c, c)), p("v.bias", (c,)),
        p("o.weight", (c, c)), p("o.bias", (c,)),
    )


def attention(x: np.ndarray, w: AttentionWeights, ctx: np.ndarray | None = None) -> np.ndarray:
    """Residual single-head attention block, float32: x (n, C) attends to
    ctx (m, C), or to itself when ctx is None, and adds the o-projection.

    The (n, m) float64 logits are scaled and turned into softmax weights in
    place by `softmax`, so they are the one (n, m) array it holds. Both
    products run whole: a float64 gemm cut into row pieces of 1 or 7 rows
    gives some rows other bits (measured at K = 32 and K = 100)."""
    ctx = x if ctx is None else ctx
    q, k, v = x @ w.q_w + w.q_b, ctx @ w.k_w + w.k_b, ctx @ w.v_w + w.v_b
    logits = q.astype(np.float64) @ k.astype(np.float64).T
    logits *= 1.0 / np.sqrt(q.shape[-1])
    out = (softmax(logits) @ v.astype(np.float64)).astype(np.float32)
    return (x + out @ w.o_w + w.o_b).astype(np.float32, copy=False)
