import numpy as np
import pytest

from ddhf.ops import layer_norm, sigmoid, silu, softplus


def sigmoid_ref(x):
    """Two-branch sigmoid over boolean masks: 1 / (1 + exp(-x)) where x >= 0,
    exp(x) / (1 + exp(x)) elsewhere; float32 stays float32, all else float64."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.astype(x.dtype) if x.dtype == np.float32 else out


def layer_norm_ref(x, scale, shift, eps=1e-5):
    """Layer norm with np.mean and np.var over the last axis."""
    x64 = x.astype(np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    normed = (x64 - mean) / np.sqrt(var + eps)
    return (normed * scale + shift).astype(np.float32)


def edge_values(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array(
        [0.0, -0.0, np.inf, -np.inf, 1e30, -1e30, tiny, -tiny, 3 * tiny, -3 * tiny,
         np.finfo(dtype).max, -np.finfo(dtype).max, 88.7, -88.7, 710.0, -745.0],
        dtype=dtype,
    )


def random_values(dtype, seed):
    rng = np.random.default_rng(seed)
    scales = np.repeat([1e-3, 1.0, 10.0, 100.0], 2500)
    return (rng.standard_normal(scales.size) * scales).astype(dtype)


def assert_same_bits(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_two_branch_reference(dtype):
    for x in (random_values(dtype, 1), edge_values(dtype)):
        assert_same_bits(sigmoid(x), sigmoid_ref(x))
    for v in edge_values(dtype):
        assert_same_bits(sigmoid(v), sigmoid_ref(v))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_matches_reference(dtype):
    for x in (random_values(dtype, 2), edge_values(dtype)):
        with np.errstate(invalid="ignore"):  # -inf * 0
            assert_same_bits(silu(x), x * sigmoid_ref(x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_nan_stays_nan(dtype):
    x = np.array([np.nan, 1.0, -np.nan, -1.0], dtype=dtype)
    got = sigmoid(x)
    assert got.dtype == dtype
    assert np.isnan(got[[0, 2]]).all() and np.isfinite(got[[1, 3]]).all()
    assert np.isnan(sigmoid(dtype(np.nan)))


def test_sigmoid_edge_limits():
    for dtype in (np.float32, np.float64):
        got = sigmoid(np.array([np.inf, -np.inf, 0.0, -0.0], dtype=dtype))
        assert got.tolist() == [1.0, 0.0, 0.5, 0.5]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (300, 32), (64, 56)])
def test_layer_norm_matches_var_reference(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    for offset in (0.0, 1e3):
        x = (rng.standard_normal(shape) + offset).astype(dtype)
        scale = rng.standard_normal(shape[-1]).astype(np.float32)
        shift = rng.standard_normal(shape[-1]).astype(np.float32)
        assert_same_bits(layer_norm(x, scale, shift), layer_norm_ref(x, scale, shift))


def test_layer_norm_edge_rows():
    tiny = np.finfo(np.float32).smallest_subnormal
    x = np.array(
        [[0.0, -0.0, 0.0, 0.0], [1e30, -1e30, 1e30, -1e30], [tiny, -tiny, 3 * tiny, 0.0],
         [7.0, 7.0, 7.0, 7.0], [np.nan, 1.0, 2.0, 3.0]],
        dtype=np.float32,
    )
    ones, zeros = np.ones(4, dtype=np.float32), np.zeros(4, dtype=np.float32)
    got = layer_norm(x, ones, zeros)
    assert_same_bits(got, layer_norm_ref(x, ones, zeros))
    assert np.isnan(got[4]).all() and np.isfinite(got[:4]).all()


def test_layer_norm_per_direction_affine():
    # (N, 4, C) with a (4, C) affine: one call gives each slice its own
    # affine row, bit for bit as four per-slice calls
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2304, 4, 32)).astype(np.float32) * 3 + 1
    scale = rng.standard_normal((4, 32)).astype(np.float32)
    shift = rng.standard_normal((4, 32)).astype(np.float32)
    got = layer_norm(x, scale, shift)
    for k in range(4):
        assert_same_bits(got[:, k], layer_norm_ref(np.ascontiguousarray(x[:, k]), scale[k], shift[k]))
        assert_same_bits(got[:, k], layer_norm(x[:, k], scale[k], shift[k]))


# float32 inputs on which the candidate replacements for softplus round
# differently from np.logaddexp(0, x), with logaddexp's value at each.
# maximum(x, 0) + log1p(exp(-|x|)) in float32 gives 2.126932 at the first;
# the same form staged in float64 gives 2.126932 and 0.6931472. A swap to
# either form moves a seeded lidar_only reference detection from one size
# rail to the other, so it is a deliberate numerics change.
SOFTPLUS_PINS = {2.0000043: 2.1269317, 2.9802326e-08: 0.69314724}


def test_softplus_is_logaddexp_bit_for_bit():
    x = np.array(list(SOFTPLUS_PINS), dtype=np.float32)
    got = softplus(x)
    assert_same_bits(got, np.logaddexp(0.0, x))
    assert_same_bits(got, np.array(list(SOFTPLUS_PINS.values()), dtype=np.float32))
