import ast
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from mmfusion import encoders, fusion, model
from mmfusion import tensor as T
from mmfusion.gradcheck import finite_diff_check
from mmfusion.tensor import Tensor, backward
from test_model import closure_values, vertices_below
from test_notebooks import package_env


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul_oracle(a, b):
    # brute-force triple loop
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for q in range(k):
                out[i, j] += a[i, q] * b[q, j]
    return out


class TestMatmul:
    def test_identity(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        eye = t64(np.eye(2))
        npt.assert_array_equal(T.matmul(eye, x).data, x.data)

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0], [1.0]])
        out = T.matmul(t64(a), t64(b))
        npt.assert_array_equal(out.data, [[2.0], [4.0]])
        npt.assert_array_equal(out.data, matmul_oracle(a, b))

    def test_oracle_random(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        npt.assert_allclose(T.matmul(t64(a), t64(b)).data, matmul_oracle(a, b), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        b = t64(rng.standard_normal((4, 3)))
        a = t64(rng.standard_normal((2, 4)), requires_grad=True)
        err = finite_diff_check(lambda x: T.tsum(T.matmul(x, b)), a)
        assert err < 1e-4

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_dtype_mismatch(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.ones((2, 2), dtype=np.float64))
        with pytest.raises(T.DtypeError):
            T.matmul(a, b)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(t64([0.0, 0.0, 0.0]), axis=0)
        npt.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_single_element_axis(self):
        out = T.softmax(t64([[4.2]]), axis=1)
        npt.assert_array_equal(out.data, [[1.0]])

    def test_large_magnitudes_no_overflow(self):
        out = T.softmax(t64([1000.0, 1000.0]), axis=0)
        npt.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(7)
        for scale in (1.0, 1e3):
            x = t64(rng.standard_normal((5, 6)) * scale)
            y = T.softmax(x, axis=1).data
            assert np.all(y >= 0)
            npt.assert_allclose(y.sum(axis=1), np.ones(5), atol=1e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            T.softmax(t64([np.nan, 1.0]), axis=0)
        with pytest.raises(ValueError, match="non-finite"):
            T.softmax(t64([np.inf, 1.0]), axis=0)

    @pytest.mark.parametrize("shape, axis", [((2, 3), 0), ((2, 3), -2), ((2, 3), 2),
                                             ((2, 3, 4), 1), ((), -1), ((), 0)])
    def test_takes_the_last_axis_only(self, shape, axis):
        with pytest.raises(T.ShapeError, match="not the last axis"):
            T.softmax(t64(np.zeros(shape)), axis=axis)


NON_FINITE = pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan],
                                     ids=["neg_inf", "pos_inf", "nan"])
# an infinite attention input meets weights of both signs in the value
# projection's matmul, whose inf - inf warns before the softmax check raises
_INF_PROJECTED = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul:RuntimeWarning")
NON_FINITE_ATTENTION = pytest.mark.parametrize(
    "bad", [pytest.param(-np.inf, marks=_INF_PROJECTED),
            pytest.param(np.inf, marks=_INF_PROJECTED), np.nan],
    ids=["neg_inf", "pos_inf", "nan"])


class TestNonFiniteCount:
    """The check reads a row max and the global min instead of a full mask;
    each kind of non-finite value must still raise with the exact count. A
    -inf beside finite entries leaves the row max finite."""

    @NON_FINITE
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_some_entries(self, bad, dtype):
        x = np.random.default_rng(5).standard_normal((3, 4, 5)).astype(dtype)
        x[0, 1, 2] = x[2, 3, 0] = x[2, 3, 4] = bad
        with pytest.raises(T.NonFiniteError, match=r"has 3 non-finite entries"):
            T.softmax(Tensor(x), axis=-1)

    @NON_FINITE
    def test_softmax_every_entry(self, bad):
        with pytest.raises(T.NonFiniteError, match=r"has 6 non-finite entries"):
            T.softmax(t64(np.full((2, 3), bad)), axis=-1)

    @NON_FINITE_ATTENTION
    def test_attention_scores(self, bad):
        # the bad entry of batch 0's key input 1 spreads over its whole key
        # row through the positive key weights, so with positive queries the
        # score is non-finite in both heads for each of the 3 queries: 6
        # entries; the rest are finite
        rng = np.random.default_rng(6)
        xq = np.abs(rng.standard_normal((2, 3, 4))) + 0.1
        xkv = rng.standard_normal((2, 5, 4))
        xkv[0, 1, 0] = bad
        wk = np.abs(rng.standard_normal((4, 4))) + 0.1
        with pytest.raises(T.NonFiniteError,
                           match=r"attention: softmax input has 6 non-finite entries"):
            T.attention(t64(xq), t64(xkv), 2, t64(np.eye(4)), t64(wk),
                        t64(rng.standard_normal((4, 4))), key_mask=np.ones((2, 5), bool))


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def layer_norm_reference(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps)) * gain + bias


def ones_row_sum(a):
    """Row sums of a 3-D ``a`` as products with a [d, 1] ones column."""
    return a @ np.ones((a.shape[-1], 1), a.dtype)


def ones_lead_sum(a):
    """``a`` summed over all but its last axis as a product with two rows
    of ones."""
    rows = a.reshape(-1, a.shape[-1])
    return (np.ones((2, rows.shape[0]), a.dtype) @ rows)[0]


def layer_norm_ones_reference(x, gain, bias, eps):
    """``layer_norm_reference`` with its means taken as ones-column sums."""
    d = x.shape[-1]
    xhat = x - ones_row_sum(x) / d
    return xhat * (1.0 / np.sqrt(ones_row_sum(np.square(xhat)) / d + eps)) * gain + bias


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 32, 100])
    def test_bit_identical_to_mean_var_reference(self, dtype, d):
        """Bit for bit the mean/var expression with its sums taken as
        products with ones; within the recursive-summation error bound,
        d * eps of the dtype times the centring's condition number, of the
        textbook expression with np.mean and np.var."""
        rng = np.random.default_rng(d)
        for shift, spread in ((0.0, 1.0), (1e3, 1e-2), (-5.0, 1e4)):
            x = (shift + spread * rng.standard_normal((4, 3, d))).astype(dtype)
            gain = rng.standard_normal(d).astype(dtype)
            bias = rng.standard_normal(d).astype(dtype)
            out = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps=1e-5).data
            expect = layer_norm_ones_reference(x, gain, bias, 1e-5)
            assert out.dtype == expect.dtype == dtype
            assert np.array_equal(out, expect)
            cond = (abs(shift) + spread) / spread
            tol = d * np.finfo(dtype).eps * cond * np.abs(gain).max()
            assert np.abs(out - layer_norm_reference(x, gain, bias, 1e-5)).max() <= tol

    def test_constant_vector_is_zeroed(self):
        x = t64([5.0, 5.0, 5.0, 5.0])
        out = T.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)), eps=1e-5)
        npt.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_two_point_closed_form(self):
        # mean 2, sigma 1 -> (x - mu) / sigma = [-1, 1]
        x = t64([1.0, 3.0])
        out = T.layer_norm(x, t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
        npt.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_pre_affine_mean_is_zero(self):
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal((6, 8)))
        out = T.layer_norm(x, t64(np.ones(8)), t64(np.zeros(8)))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        gain = t64(rng.standard_normal(5))
        bias = t64(rng.standard_normal(5))
        w = t64(rng.standard_normal(5))
        x = t64(rng.standard_normal((3, 5)), requires_grad=True)
        err = finite_diff_check(
            lambda v: T.tsum(T.mul(T.layer_norm(v, gain, bias), Tensor(np.tile(w.data, (3, 1))))), x)
        assert err < 1e-4

    def test_gain_bias_gradients(self):
        rng = np.random.default_rng(2)
        x = t64(rng.standard_normal((3, 5)))
        gain = t64(rng.standard_normal(5), requires_grad=True)
        bias = t64(rng.standard_normal(5), requires_grad=True)
        assert finite_diff_check(lambda g: T.tsum(T.layer_norm(x, g, bias)), gain) < 1e-4
        gain.grad = None
        assert finite_diff_check(lambda b: T.tsum(T.layer_norm(x, gain, b)), bias) < 1e-4

    @settings(deadline=None, max_examples=60)
    @given(dtype=st.sampled_from([np.float32, np.float64]), d=st.integers(1, 40),
           rows=st.integers(1, 4), spread=st.sampled_from([1e-2, 1.0, 1e3]),
           seed=st.integers(0, 2**16))
    def test_backward_equals_the_mean_expression(self, dtype, d, rows, spread, seed):
        """The in-place backward equals the expression it replaced,
        ``inv * (gy - m1 - xhat * m2)``, bit for bit with its means and the
        gain and bias sums taken as products with ones, and within a stated
        tolerance per dtype with ``np.mean`` and ``np.sum``."""
        rng = np.random.default_rng(seed)
        x = Tensor((spread * rng.standard_normal((rows, 3, d))).astype(dtype),
                   requires_grad=True)
        gain, bias = (Tensor(rng.standard_normal(d).astype(dtype), requires_grad=True)
                      for _ in range(2))
        g = rng.standard_normal((rows, 3, d)).astype(dtype)
        backward(T.tsum(T.mul(T.layer_norm(x, gain, bias), Tensor(g))))

        xd = x.data
        xhat = xd - ones_row_sum(xd) / d
        inv = 1.0 / np.sqrt(ones_row_sum(np.square(xhat)) / d + 1e-5)
        xhat *= inv
        gy = g * gain.data
        m1 = ones_row_sum(gy) / d
        m2 = ones_row_sum(gy * xhat) / d
        expect = (inv * (gy - m1 - xhat * m2), ones_lead_sum(g * xhat), ones_lead_sum(g))
        got = (x.grad, gain.grad, bias.grad)
        for a, ref in zip(got, expect):
            assert a.dtype == ref.dtype == dtype and np.array_equal(a, ref)

        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        textbook = (inv * (gy - m1 - xhat * m2), (g * xhat).sum(axis=(0, 1)),
                    g.sum(axis=(0, 1)))
        rtol = {np.float32: 1e-4, np.float64: 1e-12}[dtype]
        for a, ref in zip(got, textbook):
            npt.assert_allclose(a, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


# ---------------------------------------------------------------------------
# sums as BLAS products
# ---------------------------------------------------------------------------

# digests of both helpers on one 100000 x 16 float32 input
BLAS_SUMS_SCRIPT = """
import hashlib
import numpy as np
from mmfusion import tensor as T
x = np.random.default_rng(0).standard_normal((100_000, 16)).astype(np.float32)
for s in (T._lead_sum(x, 1), T._row_sum(x), T._row_sum(x.reshape(10, 10_000, 16))):
    print(hashlib.sha256(s.tobytes()).hexdigest())
"""


def layout(a, kind):
    """``a`` itself, a strided view of the same values or the transpose of
    a contiguous array holding them."""
    if kind == "strided":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
        wide[..., ::2] = a
        return wide[..., ::2]
    if kind == "transposed":
        return np.ascontiguousarray(a.T).T
    return a


class TestBlasSums:
    """``_row_sum`` and ``_lead_sum`` take sums as products with ones."""

    @settings(deadline=None, max_examples=60)
    @given(op=st.sampled_from(["layer_norm", "softmax"]),
           dtype=st.sampled_from([np.float32, np.float64]), B=st.integers(2, 6),
           L=st.integers(1, 20), d=st.integers(1, 70), seed=st.integers(0, 2**16))
    def test_a_sample_alone_gives_its_rows_in_the_batch(self, op, dtype, B, L, d, seed):
        rng = np.random.default_rng(seed)
        x = (3 * rng.standard_normal((B, L, d))).astype(dtype)
        g = rng.standard_normal((B, L, d)).astype(dtype)
        gain, bias = (Tensor(rng.standard_normal(d).astype(dtype)) for _ in range(2))

        def run(xd, gd):
            xt = Tensor(xd, requires_grad=True)
            out = T.layer_norm(xt, gain, bias) if op == "layer_norm" else T.softmax(xt)
            backward(T.tsum(T.mul(out, Tensor(gd))))
            return out.data, xt.grad

        out, gx = run(x, g)
        i = int(rng.integers(B))
        alone, g_alone = run(x[i:i + 1], g[i:i + 1])
        assert np.array_equal(alone, out[i:i + 1]) and np.array_equal(g_alone, gx[i:i + 1])

    @settings(deadline=None, max_examples=80)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           shape=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           kind=st.sampled_from(["contiguous", "strided", "transposed"]),
           data=st.data(), seed=st.integers(0, 2**16))
    def test_helpers_match_numpy_sums(self, dtype, shape, kind, data, seed):
        """Within the recursive-summation bound, n * eps of the dtype times
        the sum of magnitudes for n terms, on each side."""
        a = layout(np.random.default_rng(seed).standard_normal(shape).astype(dtype), kind)
        eps = np.finfo(dtype).eps

        got, expect = T._row_sum(a), a.sum(axis=-1, keepdims=True)
        bound = 2 * a.shape[-1] * eps * np.abs(a).sum(axis=-1, keepdims=True)
        assert got.dtype == dtype and got.shape == expect.shape
        assert np.all(np.abs(got - expect) <= bound)

        tail = data.draw(st.integers(0, a.ndim))
        lead = tuple(range(a.ndim - tail))
        got, expect = T._lead_sum(a, tail), a.sum(axis=lead)
        n = int(np.prod(a.shape[:a.ndim - tail]))
        assert got.dtype == dtype and got.shape == expect.shape
        assert np.all(np.abs(got - expect) <= 2 * n * eps * np.abs(a).sum(axis=lead))

    def test_sums_do_not_depend_on_the_blas_thread_count(self):
        runs = []
        for threads in ("1", "2"):
            env = dict(package_env(), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", BLAS_SUMS_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout.split())
        assert len(runs[0]) == 3 and runs[0] == runs[1]


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def conv1d_oracle(x, w, b, window):
    # naive sliding-window dot products, ReLU fused
    n, d_in = x.shape
    d_out = w.shape[1]
    steps = n - window + 1
    out = np.zeros((steps, d_out))
    for t in range(steps):
        flat = x[t:t + window].reshape(-1)
        out[t] = np.maximum(flat @ w + b, 0.0)
    return out


class TestConv1d:
    def test_window_one_is_per_position_affine(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 5, 3))
        w = rng.standard_normal((3, 2))
        b = rng.standard_normal(2)
        out = T.conv1d(t64(x), t64(w), t64(b), window=1)
        npt.assert_allclose(out.data, np.maximum(x @ w + b, 0), atol=1e-12)

    def test_zero_input_zero_bias(self):
        out = T.conv1d(t64(np.zeros((1, 4, 3))), t64(np.ones((6, 2))), t64(np.zeros(2)),
                       window=2)
        npt.assert_array_equal(out.data, np.zeros((1, 3, 2)))

    def test_window_two_against_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 3, 2))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        out = T.conv1d(t64(x), t64(w), t64(b), window=2)
        assert out.shape == (1, 2, 3)
        npt.assert_allclose(out.data[0], conv1d_oracle(x[0], w, b, 2), atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 5, 3))
        w = rng.standard_normal((9, 4))
        b = rng.standard_normal(4)
        out = T.conv1d(t64(x), t64(w), t64(b), window=3)
        for i in range(2):
            npt.assert_allclose(out.data[i], conv1d_oracle(x[i], w, b, 3), atol=1e-12)

    def test_short_sequence_instructs_padding(self):
        with pytest.raises(T.ShapeError, match="pad"):
            T.conv1d(t64(np.zeros((1, 2, 3))), t64(np.zeros((9, 2))), t64(np.zeros(2)),
                     window=3)

    def test_unbatched_input_names_the_batched_layout(self):
        with pytest.raises(T.ShapeError, match=r"\[B, n, d_in\]"):
            T.conv1d(t64(np.zeros((4, 3))), t64(np.zeros((6, 2))), t64(np.zeros(2)), window=2)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        x = t64(rng.standard_normal((2, 4, 3)), requires_grad=True)
        w = t64(rng.standard_normal((6, 2)), requires_grad=True)
        b = t64(rng.standard_normal(2), requires_grad=True)
        assert finite_diff_check(lambda v: T.tsum(T.conv1d(v, w, b, 2)), x) < 1e-4
        x.grad = None
        assert finite_diff_check(lambda v: T.tsum(T.conv1d(x, v, b, 2)), w) < 1e-4


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

class TestReductions:
    def test_mean_pool_identical_rows(self):
        row = np.array([1.0, 2.0, 3.0])
        x = t64(np.tile(row, (4, 1)))
        npt.assert_allclose(T.mean_pool(x, axis=0).data, row, atol=1e-12)

    def test_mean_pool_subtract_gives_zero_mean(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3))
        pooled = T.mean_pool(t64(x), axis=0).data
        npt.assert_allclose((x - pooled).mean(axis=0), np.zeros(3), atol=1e-12)

    def test_max_pool_value_and_gradient_mask(self):
        x = t64([1.0, 5.0, 3.0], requires_grad=True)
        out = T.max_pool(x, axis=0)
        assert out.item() == 5.0
        backward(out)
        npt.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_max_pool_tie_breaks_first_index(self):
        x = t64([2.0, 7.0, 7.0], requires_grad=True)
        backward(T.max_pool(x, axis=0))
        npt.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_concat_shape(self):
        a = t64(np.ones((2, 3)))
        b = t64(np.zeros((2, 3)))
        assert T.concat([a, b], axis=1).shape == (2, 6)

    def test_empty_axis_pooling_errors(self):
        with pytest.raises(T.ShapeError, match="empty"):
            T.mean_pool(t64(np.zeros((0, 3))), axis=0)
        with pytest.raises(T.ShapeError, match="empty"):
            T.max_pool(t64(np.zeros((3, 0))), axis=1)


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------

class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(T.tsum(w))
        npt.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_softmax_matmul_composite(self):
        rng = np.random.default_rng(10)
        b = t64(rng.standard_normal((3, 4)))
        w = t64(rng.standard_normal((2, 4)))
        a = t64(rng.standard_normal((2, 3)), requires_grad=True)

        def f(x):
            return T.tsum(T.mul(T.softmax(T.matmul(x, b), axis=1), Tensor(w.data)))

        assert finite_diff_check(f, a) < 1e-4

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.GraphError, match="scalar"):
            backward(T.mul(x, x))

    def test_gradients_accumulate_until_zeroed(self):
        x = t64([1.0, 2.0], requires_grad=True)
        backward(T.tsum(x))
        backward(T.tsum(x))
        npt.assert_array_equal(x.grad, [2.0, 2.0])
        x.grad = None
        backward(T.tsum(x))
        npt.assert_array_equal(x.grad, [1.0, 1.0])

    def test_second_backward_through_a_graph_raises(self):
        x = t64([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        backward(loss)
        with pytest.raises(T.GraphError, match="already differentiated"):
            backward(loss)
        npt.assert_array_equal(x.grad, [2.0, 4.0])

    def test_backward_frees_the_arrays_closures_saved(self):
        """The arrays a graph saved die while ``backward`` walks it, not when
        the caller drops the loss."""
        rng = np.random.default_rng(15)
        x = t64(rng.standard_normal((64, 64)), requires_grad=True)
        w = t64(rng.standard_normal((64, 64)), requires_grad=True)
        readout = t64(rng.standard_normal((64, 64)))
        loss = T.tsum(T.mul(T.relu(T.matmul(x, w)), readout))
        vertices = vertices_below(loss)
        leaf_data = [x.data, w.data, readout.data]
        saved = [a for v in [loss] + vertices if v._backward is not None
                 for a in closure_values(v._backward)
                 if isinstance(a, np.ndarray) and not any(a is d for d in leaf_data)]
        assert any(a.size >= 64 * 64 for a in saved)
        refs = [weakref.ref(a) for a in saved]
        del saved
        backward(loss)
        assert all(r() is None for r in refs)
        assert np.isfinite(loss.item()) and x.grad is not None

    def test_shared_subexpression_accumulates(self):
        x = t64([3.0], requires_grad=True)
        y = T.mul(x, x)  # d/dx = 2x
        backward(T.tsum(y))
        npt.assert_allclose(x.grad, [6.0])

    def test_backward_is_deterministic(self):
        def run():
            rng = np.random.default_rng(12)
            a = t64(rng.standard_normal((3, 3)), requires_grad=True)
            b = t64(rng.standard_normal((3, 3)))
            loss = T.tsum(T.softmax(T.matmul(a, b), axis=1))
            backward(loss)
            return a.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_constant_never_accumulates(self):
        c = t64([1.0, 2.0])
        x = t64([3.0, 4.0], requires_grad=True)
        backward(T.tsum(T.mul(c, x)))
        assert c.grad is None
        npt.assert_array_equal(x.grad, [1.0, 2.0])


# ---------------------------------------------------------------------------
# reshaping / indexing ops
# ---------------------------------------------------------------------------

class TestShapeOps:
    def test_reshape_transpose_roundtrip(self):
        rng = np.random.default_rng(13)
        x = t64(rng.standard_normal((2, 3, 4)), requires_grad=True)
        y = T.transpose(T.reshape(x, (6, 4)), (1, 0))
        assert y.shape == (4, 6)
        backward(T.tsum(y))
        npt.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_narrow_gradient_zero_pads(self):
        x = t64(np.arange(12.0).reshape(3, 4), requires_grad=True)
        backward(T.tsum(T.narrow(x, 1, 1, 2)))
        expect = np.zeros((3, 4))
        expect[:, 1:3] = 1.0
        npt.assert_array_equal(x.grad, expect)

    def test_narrow_returns_contiguous_data(self):
        x = t64(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = T.narrow(x, 1, 1, 2)
        assert y.data.flags.c_contiguous
        npt.assert_array_equal(y.data, x.data[:, 1:3])
        backward(T.tsum(T.mul(y, t64(np.arange(16.0).reshape(2, 2, 4)))))
        expect = np.zeros((2, 3, 4))
        expect[:, 1:3] = np.arange(16.0).reshape(2, 2, 4)
        npt.assert_array_equal(x.grad, expect)

    def test_narrow_out_of_range(self):
        with pytest.raises(T.ShapeError):
            T.narrow(t64(np.zeros((3, 4))), 1, 3, 2)

    def test_embedding_lookup_and_scatter(self):
        table = t64(np.arange(8.0).reshape(4, 2), requires_grad=True)
        ids = np.array([[0, 3], [3, 1]])
        out = T.embedding(table, ids)
        npt.assert_array_equal(out.data[0, 1], [6.0, 7.0])
        backward(T.tsum(out))
        # id 3 used twice -> accumulates
        npt.assert_array_equal(table.grad, [[1, 1], [1, 1], [0, 0], [2, 2]])

    def test_embedding_id_range(self):
        with pytest.raises(T.ShapeError):
            T.embedding(t64(np.zeros((4, 2))), np.array([4]))

    def test_pick(self):
        x = t64([[0.1, 0.9], [0.8, 0.2]], requires_grad=True)
        out = T.pick(x, np.array([1, 0]))
        npt.assert_allclose(out.data, [0.9, 0.8])
        backward(T.tsum(out))
        npt.assert_array_equal(x.grad, [[0, 1], [1, 0]])

    def test_bmm_matches_loop(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((3, 4, 5))
        out = T.bmm(t64(a), t64(b))
        for i in range(3):
            npt.assert_allclose(out.data[i], a[i] @ b[i], atol=1e-12)

    def test_add_bias_broadcast(self):
        x = t64(np.zeros((2, 3, 4)), requires_grad=True)
        bias = t64(np.arange(4.0), requires_grad=True)
        out = T.add(x, bias)
        assert out.shape == (2, 3, 4)
        backward(T.tsum(out))
        npt.assert_array_equal(bias.grad, [6.0] * 4)

    def test_add_rejects_leading_broadcast(self):
        with pytest.raises(T.ShapeError):
            T.add(t64(np.zeros((2, 3))), t64(np.zeros((2, 1))))


# ---------------------------------------------------------------------------
# finite_diff_check itself
# ---------------------------------------------------------------------------

class TestFiniteDiffCheck:
    def test_sum_has_tiny_error(self):
        x = t64(np.random.default_rng(0).standard_normal(5), requires_grad=True)
        assert finite_diff_check(T.tsum, x) < 1e-10

    def test_softmax_normalization_identity(self):
        # sum(softmax(x)) is constant 1: analytic and numeric gradients both
        # vanish. The relative-error form saturates when both sides sit at
        # round-off, so the meaningful assertion is absolute smallness.
        x = t64(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        out = T.tsum(T.softmax(x, axis=1))
        backward(out)
        assert np.abs(x.grad).max() < 1e-12
        h = 1e-5
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = T.tsum(T.softmax(x, axis=1)).item()
            flat[i] = orig - h
            fm = T.tsum(T.softmax(x, axis=1)).item()
            flat[i] = orig
            assert abs((fp - fm) / (2 * h) - 0.0) < 1e-6

    def test_rejects_non_scalar_function(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.GraphError):
            finite_diff_check(lambda v: T.mul(v, v), x)

    def test_requires_float64(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(TypeError):
            finite_diff_check(T.tsum, x)


# ---------------------------------------------------------------------------
# fused composites
# ---------------------------------------------------------------------------

def linear_composite(x, w, b):
    """reshape -> matmul -> reshape -> add from primitive ops: the graph the
    fused ``linear`` node replaces."""
    d_in, d_out = w.shape
    flat = x if x.data.ndim == 2 else T.reshape(x, (-1, d_in))
    out = T.matmul(flat, w)
    if x.data.ndim != 2:
        out = T.reshape(out, tuple(x.shape[:-1]) + (d_out,))
    return out if b is None else T.add(out, b)


def attention_composite(q, k, v, n_heads, key_mask=None):
    """Head split, scaled bmm scores, mask, softmax, bmm and head merge from
    primitive ops: the graph the fused ``attention`` node replaces."""
    B, Lq, d = q.shape
    Lk = k.shape[1]
    dh = d // n_heads

    def split(x, L):
        x = T.transpose(T.reshape(x, (B, L, n_heads, dh)), (0, 2, 1, 3))
        return T.reshape(x, (B * n_heads, L, dh))

    scores = T.scale(T.bmm(split(q, Lq), T.transpose(split(k, Lk), (0, 2, 1))),
                     1.0 / np.sqrt(dh))
    if key_mask is not None:
        bias = np.where(key_mask[:, None, None, :], 0.0, -1e9)
        bias = np.broadcast_to(bias, (B, n_heads, Lq, Lk)).reshape(B * n_heads, Lq, Lk)
        scores = T.add(scores, Tensor(bias.astype(scores.data.dtype)))
    out = T.bmm(T.softmax(scores, axis=-1), split(v, Lk))
    out = T.transpose(T.reshape(out, (B, n_heads, Lq, dh)), (0, 2, 1, 3))
    return T.reshape(out, (B, Lq, d))


def grads_of(build, tensors, readout):
    """Gradients of sum(build() * readout) with respect to ``tensors``."""
    for t in tensors:
        t.grad = None
    backward(T.tsum(T.mul(build(), Tensor(readout))))
    return [t.grad for t in tensors]


class TestFusedLinear:
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_gradients_match_finite_differences(self, shape, with_bias):
        rng = np.random.default_rng(30)
        x = t64(rng.standard_normal(shape), requires_grad=True)
        w = t64(rng.standard_normal((4, 3)), requires_grad=True)
        b = t64(rng.standard_normal(3), requires_grad=True) if with_bias else None
        readout = Tensor(rng.standard_normal(shape[:-1] + (3,)))
        for wrt in [x, w] + ([b] if with_bias else []):
            def f(v, wrt=wrt):
                args = [v if t is wrt else t for t in (x, w, b)]
                return T.tsum(T.mul(T.linear(*args), readout))
            assert finite_diff_check(f, wrt) < 1e-6

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_bit_identical_to_primitive_graph(self, shape, with_bias):
        rng = np.random.default_rng(31)
        f32 = np.float32
        x = Tensor(rng.standard_normal(shape).astype(f32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)).astype(f32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(f32), requires_grad=True) if with_bias else None
        readout = rng.standard_normal(shape[:-1] + (3,)).astype(f32)
        leaves = [t for t in (x, w, b) if t is not None]
        fused = T.linear(x, w, b)
        assert np.array_equal(fused.data, linear_composite(x, w, b).data)
        g_fused = grads_of(lambda: T.linear(x, w, b), leaves, readout)
        g_ref = grads_of(lambda: linear_composite(x, w, b), leaves, readout)
        for a, r in zip(g_fused, g_ref):
            assert a.dtype == np.float32 and np.array_equal(a, r)

    def test_constant_input_gets_no_gradient(self):
        x = t64(np.ones((2, 4)))
        w = t64(np.ones((4, 3)), requires_grad=True)
        backward(T.tsum(T.linear(x, w)))
        assert x.grad is None
        npt.assert_array_equal(w.grad, np.full((4, 3), 2.0))

    def test_checks(self):
        with pytest.raises(T.ShapeError, match="d_in"):
            T.linear(t64(np.ones((2, 5))), t64(np.ones((4, 3))))
        with pytest.raises(T.ShapeError, match="bias"):
            T.linear(t64(np.ones((2, 4))), t64(np.ones((4, 3))), t64(np.ones(4)))
        with pytest.raises(T.DtypeError):
            T.linear(t64(np.ones((2, 4))), Tensor(np.ones((4, 3), dtype=np.float32)))


def ffn_composite(x, w1, b1, w2, b2):
    """``linear``, ``relu`` and ``linear`` nodes: the graph the fused ``ffn``
    node replaces."""
    return T.linear(T.relu(T.linear(x, w1, b1)), w2, b2)


def ffn_leaves(rng, shape, width, d_out, dtype):
    """Leaf input x and parameters (w1, b1, w2, b2) of one ffn call."""
    def leaf(*s):
        return Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)

    return leaf(*shape), (leaf(shape[-1], width), leaf(width), leaf(width, d_out),
                          leaf(d_out))


class TestFusedFFN:
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(35)
        x, params = ffn_leaves(rng, shape, 6, 3, np.float64)
        readout = Tensor(rng.standard_normal(shape[:-1] + (3,)))
        leaves = (x,) + params
        for wrt in leaves:
            def f(v, wrt=wrt):
                return T.tsum(T.mul(T.ffn(*[v if t is wrt else t for t in leaves]), readout))
            assert finite_diff_check(f, wrt) < 1e-6

    @settings(deadline=None, max_examples=60)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           lead=st.sampled_from([(5,), (2, 3)]), d=st.integers(1, 6), width=st.integers(1, 9),
           d_out=st.integers(1, 5), normed=st.booleans(), seed=st.integers(0, 2**16))
    def test_equals_primitive_graph(self, dtype, lead, d, width, d_out, normed, seed):
        """Output and every gradient, the five of ffn's operands and, for a
        layer_norm input, those of the layer_norm's operands, equal the
        linear -> relu -> linear graph's bit for bit."""
        rng = np.random.default_rng(seed)
        x, params = ffn_leaves(rng, lead + (d,), width, d_out, dtype)
        gain, bias = (Tensor(rng.standard_normal(d).astype(dtype), requires_grad=True)
                      for _ in range(2))
        readout = rng.standard_normal(lead + (d_out,)).astype(dtype)

        def graph(op):
            fed = T.layer_norm(x, gain, bias) if normed else x
            return op(fed, *params)

        leaves = [x, *params] + ([gain, bias] if normed else [])
        assert_same_graph(lambda: graph(T.ffn), lambda: graph(ffn_composite), leaves, readout)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(36)
        x, params = ffn_leaves(rng, (2, 4), 3, 2, np.float64)
        x = Tensor(x.data)
        backward(T.tsum(T.ffn(x, *params)))
        assert x.grad is None and all(p.grad.shape == p.shape for p in params)

    def test_checks(self):
        rng = np.random.default_rng(37)
        x, (w1, b1, w2, b2) = ffn_leaves(rng, (2, 4), 3, 2, np.float64)
        with pytest.raises(T.ShapeError, match="d_in"):
            T.ffn(T.narrow(x, 1, 0, 3), w1, b1, w2, b2)
        with pytest.raises(T.ShapeError, match="weights"):
            T.ffn(x, w1, b1, w1, b2)
        with pytest.raises(T.ShapeError, match="biases"):
            T.ffn(x, w1, b2, w2, b2)
        with pytest.raises(T.DtypeError):
            T.ffn(x, w1, b1, w2, Tensor(b2.data.astype(np.float32)))


def projected_composite(xq, xkv, n_heads, wq, wk, wv, bq=None, bv=None, key_mask=None):
    """Three ``linear`` nodes feeding the primitive attention graph: the
    graph the fused ``attention`` node, projections included, replaces."""
    return attention_composite(T.linear(xq, wq, bq), T.linear(xkv, wk),
                               T.linear(xkv, wv, bv), n_heads, key_mask)


def attention_leaves(rng, B, Lq, Lk, d_q, d_kv, d, dtype, biases=True):
    """Leaf inputs (xq, xkv) and projection parameters (wq, wk, wv, bq, bv)
    of one attention call; the biases are None when ``biases`` is False.
    Weights are fan-scaled, which keeps the softmax away from saturation."""
    def leaf(*shape, std=1.0):
        return Tensor((rng.standard_normal(shape) * std).astype(dtype), requires_grad=True)

    xq, xkv = leaf(B, Lq, d_q), leaf(B, Lk, d_kv)
    wq = leaf(d_q, d, std=d_q ** -0.5)
    wk, wv = (leaf(d_kv, d, std=d_kv ** -0.5) for _ in range(2))
    bq, bv = (leaf(d), leaf(d)) if biases else (None, None)
    return xq, xkv, (wq, wk, wv, bq, bv)


def present(*tensors):
    return [t for t in tensors if t is not None]


class TestFusedAttention:
    def make(self, Lq, dtype=np.float64, seed=32):
        rng = np.random.default_rng(seed)
        xq, xkv, params = attention_leaves(rng, 2, Lq, 5, 3, 5, 4, dtype)
        mask = np.array([[True] * 5, [True, True, True, False, False]])
        readout = rng.standard_normal((2, Lq, 4)).astype(dtype)
        return xq, xkv, params, mask, readout

    @pytest.mark.parametrize("Lq", [1, 3])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gradients_match_finite_differences(self, Lq, masked):
        xq, xkv, params, mask, readout = self.make(Lq)
        mask = mask if masked else None
        leaves = (xq, xkv) + params
        for wrt in leaves:
            def f(x, wrt=wrt):
                a = [x if t is wrt else t for t in leaves]
                out = T.attention(a[0], a[1], 2, *a[2:], key_mask=mask)
                return T.tsum(T.mul(out, Tensor(readout)))
            assert finite_diff_check(f, wrt) < 1e-6

    @pytest.mark.parametrize("Lq", [1, 3])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bit_identical_to_primitive_graph(self, Lq, masked):
        for dtype in (np.float32, np.float64):
            xq, xkv, params, mask, readout = self.make(Lq, dtype=dtype)
            mask = mask if masked else None
            leaves = present(xq, xkv, *params)
            fused = lambda: T.attention(xq, xkv, 2, *params, key_mask=mask)    # noqa: E731
            ref = lambda: projected_composite(xq, xkv, 2, *params, key_mask=mask)    # noqa: E731
            out = fused()
            assert out.data.dtype == dtype and np.array_equal(out.data, ref().data)
            for a, r in zip(grads_of(fused, leaves, readout), grads_of(ref, leaves, readout)):
                assert a.dtype == dtype and np.array_equal(a, r)

    @pytest.mark.parametrize("biases", [False, True])
    def test_self_attention_bit_identical(self, biases):
        # xq is xkv: the input's three gradients add up as the three
        # projections' would
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(34)
            x, _, params = attention_leaves(rng, 3, 6, 6, 4, 4, 4, dtype, biases)
            mask = rng.random((3, 6)) < 0.7
            mask[:, 0] = True
            readout = rng.standard_normal((3, 6, 4)).astype(dtype)
            leaves = present(x, *params)
            fused = lambda: T.attention(x, x, 2, *params, key_mask=mask)    # noqa: E731
            ref = lambda: projected_composite(x, x, 2, *params, key_mask=mask)    # noqa: E731
            assert np.array_equal(fused().data, ref().data)
            for a, r in zip(grads_of(fused, leaves, readout), grads_of(ref, leaves, readout)):
                assert a.dtype == dtype and np.array_equal(a, r)

    @settings(deadline=None, max_examples=100)
    @given(h=st.integers(1, 4), dh=st.integers(1, 16), B=st.sampled_from([1, 2]),
           Lq=st.integers(1, 8), Lk=st.integers(2, 8),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_small_batches_equal_primitive_graph(self, h, dh, B, Lq, Lk, dtype, seed):
        # one sample with heads wider than 8 once gave xkv another gradient
        rng = np.random.default_rng(seed)
        xq, xkv, params = attention_leaves(rng, B, Lq, Lk, 3, 5, h * dh, dtype)
        readout = rng.standard_normal((B, Lq, h * dh)).astype(dtype)
        assert_same_graph(lambda: T.attention(xq, xkv, h, *params),
                          lambda: projected_composite(xq, xkv, h, *params),
                          present(xq, xkv, *params), readout)

    def test_masked_keys_get_zero_weight(self):
        # a zero weight shows as an output blind to the key's input row and
        # as a zero gradient on it
        xq, xkv, params, mask, readout = self.make(3)
        out = T.attention(xq, xkv, 2, *params, key_mask=mask).data
        moved = Tensor(xkv.data.copy())
        moved.data[1, 3:] += 10.0
        npt.assert_array_equal(T.attention(xq, moved, 2, *params, key_mask=mask).data, out)
        _, gkv = grads_of(lambda: T.attention(xq, xkv, 2, *params, key_mask=mask),
                          [xq, xkv], readout)
        assert np.all(gkv[1, 3:] == 0.0) and np.all(gkv[1, :3] != 0.0)

    @pytest.mark.parametrize("constant", ["xq", "xkv", "both"])
    def test_constant_inputs_get_no_gradient(self, constant):
        xq, xkv, params, _, readout = self.make(3)
        if constant in ("xq", "both"):
            xq = Tensor(xq.data)
        if constant in ("xkv", "both"):
            xkv = Tensor(xkv.data)
        grads = grads_of(lambda: T.attention(xq, xkv, 2, *params), [xq, xkv, *params],
                         readout)
        assert [g is None for g in grads[:2]] == [not xq.requires_grad,
                                                  not xkv.requires_grad]
        assert all(g.shape == p.shape for g, p in zip(grads[2:], params))

    def test_checks(self):
        xq, xkv, (wq, wk, wv, bq, bv), mask, _ = self.make(3)
        with pytest.raises(T.ShapeError, match="divisible"):
            T.attention(xq, xkv, 3, wq, wk, wv)
        with pytest.raises(T.ShapeError, match="key_mask"):
            T.attention(xq, xkv, 2, wq, wk, wv, key_mask=mask[:, :4])
        with pytest.raises(T.ShapeError, match="xkv"):
            T.attention(xq, T.narrow(xkv, 0, 0, 1), 2, wq, wk, wv)
        with pytest.raises(T.ShapeError, match="width"):
            T.attention(xq, xkv, 2, wq, wk, T.narrow(wv, 1, 0, 2))
        with pytest.raises(T.ShapeError, match="width"):
            T.attention(xkv, xkv, 2, wq, wk, wv)
        with pytest.raises(T.ShapeError, match="biases"):
            T.attention(xq, xkv, 2, wq, wk, wv, bq=T.narrow(bq, 0, 0, 2))
        with pytest.raises(T.ShapeError, match="wo must be"):
            T.attention(xq, xkv, 2, wq, wk, wv, wo=wv)
        with pytest.raises(T.ShapeError, match="bo must be"):
            T.attention(xq, xkv, 2, wq, wk, wv, wo=t64(np.ones((4, 3))), bo=bv)
        with pytest.raises(T.ShapeError, match="bo needs wo"):
            T.attention(xq, xkv, 2, wq, wk, wv, bo=bv)
        with pytest.raises(T.DtypeError):
            T.attention(xq, xkv, 2, wq, wk, Tensor(wv.data.astype(np.float32)))
        with pytest.raises(T.DtypeError):
            T.attention(xq, xkv, 2, wq, wk, wv, bv=Tensor(bv.data.astype(np.float32)))
        bad = Tensor(np.where(np.arange(18).reshape(2, 3, 3) == 5, np.nan, xq.data))
        with pytest.raises(T.NonFiniteError, match="non-finite"):
            T.attention(bad, xkv, 2, wq, wk, wv)


def tile_samples(h, Lq, Lk, dtype):
    """Samples per attention tile at these shapes."""
    return max(1, T.ATTENTION_TILE_BYTES // (h * Lq * Lk * np.dtype(dtype).itemsize))


class TestTiledAttention:
    """Batches of one tile or several: backward recomputes q/k/v and each
    tile's probabilities from its row max and sum instead of keeping them."""

    @settings(deadline=None, max_examples=40)
    @given(h=st.sampled_from([1, 2]), dh=st.integers(1, 3), Lq=st.integers(16, 40),
           Lk=st.integers(16, 40), dtype=st.sampled_from([np.float32, np.float64]),
           masked=st.booleans(), biases=st.booleans(), tiles=st.integers(2, 3),
           seed=st.integers(0, 2**16))
    def test_equals_primitive_graph(self, h, dh, Lq, Lk, dtype, masked, biases, tiles, seed):
        step = tile_samples(h, Lq, Lk, dtype)
        assert step >= 2
        rng = np.random.default_rng(seed)
        B = step * (tiles - 1) + int(rng.integers(1, step))     # uneven last tile
        d = h * dh
        xq, xkv, params = attention_leaves(rng, B, Lq, Lk, 3, 2, d, dtype, biases)
        mask = None
        if masked:
            mask = rng.random((B, Lk)) < 0.7
            mask[:, 0] = True
        readout = rng.standard_normal((B, Lq, d)).astype(dtype)
        leaves = present(xq, xkv, *params)
        fused = lambda: T.attention(xq, xkv, h, *params, key_mask=mask)    # noqa: E731
        ref = lambda: projected_composite(xq, xkv, h, *params, key_mask=mask)    # noqa: E731
        out = fused()
        assert out.data.dtype == dtype and np.array_equal(out.data, ref().data)
        for a, r in zip(grads_of(fused, leaves, readout), grads_of(ref, leaves, readout)):
            assert a.dtype == dtype and np.array_equal(a, r)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_sample_last_tile_with_one_wide_heads(self, dtype):
        # the last tile's upstream gradient splits into heads as a strided
        # view, the whole batch's as a copy
        h, Lq, Lk = 2, 22, 16
        B = tile_samples(h, Lq, Lk, dtype) + 1
        rng = np.random.default_rng(27)
        xq, xkv, params = attention_leaves(rng, B, Lq, Lk, 3, 2, h, dtype)
        readout = rng.standard_normal((B, Lq, h)).astype(dtype)
        assert_same_graph(lambda: T.attention(xq, xkv, h, *params),
                          lambda: projected_composite(xq, xkv, h, *params),
                          present(xq, xkv, *params), readout)

    @NON_FINITE_ATTENTION
    def test_non_finite_logit_in_a_later_tile(self, bad):
        h, Lq, Lk, d = 2, 16, 24, 4
        step = tile_samples(h, Lq, Lk, np.float64)
        B = 2 * step + step // 2
        rng = np.random.default_rng(7)
        # positive queries and key weights: the bad input entry makes its
        # key's whole row, so every head's logit for it, non-finite
        xq = np.abs(rng.standard_normal((B, Lq, d))) + 0.1
        xkv = rng.standard_normal((B, Lk, d))
        xkv[-1, 1, 0] = bad     # the last tile's key 1, every query
        wk = np.abs(rng.standard_normal((d, d))) + 0.1
        with pytest.raises(T.NonFiniteError,
                           match=rf"attention: softmax input has {h * Lq} non-finite entries"):
            T.attention(t64(xq), t64(xkv), h, t64(np.eye(d)), t64(wk),
                        t64(rng.standard_normal((d, d))))

    @pytest.mark.parametrize("last_tile", ["half", "one_sample", "only_tile"])
    def test_graph_keeps_no_probabilities(self, last_tile):
        h, Lq, Lk, d = 2, 64, 48, 8
        step = tile_samples(h, Lq, Lk, np.float64)
        B = {"half": 2 * step + step // 2, "one_sample": 2 * step + 1,
             "only_tile": step // 2}[last_tile]
        out_bytes = B * Lq * d * 8
        stats_bytes = 2 * B * h * Lq * 8              # row max and row sum
        rng = np.random.default_rng(8)
        xq, xkv, params = attention_leaves(rng, B, Lq, Lk, d, d, d, np.float64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = T.attention(xq, xkv, h, *params)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # beyond the inputs and weights, which outlive the call anyway, the
        # node keeps no probabilities, no q/k/v and no head split of them
        assert held < out_bytes + stats_bytes + 32 * 1024
        backward(T.tsum(result))
        assert all(t.grad.shape == t.shape for t in present(xq, xkv, *params))


def assert_same_graph(build, ref, leaves, readout):
    """``build()`` equals ``ref()`` bit for bit, in value and in every
    leaf's gradient."""
    out, expect = build().data, ref().data
    assert out.dtype == expect.dtype and np.array_equal(out, expect)
    for a, r in zip(grads_of(build, leaves, readout), grads_of(ref, leaves, readout)):
        assert a.dtype == r.dtype and np.array_equal(a, r)


FLOAT_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
MASKED = pytest.mark.parametrize("masked", [False, True])


class TestNodesKeepLess:
    """attention applies its own output projection, and linear and attention
    rebuild a layer_norm input in backward instead of keeping it: each
    equals the graph that keeps everything."""

    @FLOAT_DTYPES
    @MASKED
    @settings(deadline=None, max_examples=30)
    @given(h=st.sampled_from([1, 2]), dh=st.integers(1, 3), Lq=st.integers(1, 6),
           Lk=st.integers(1, 6), d_o=st.integers(1, 5), out_bias=st.booleans(),
           step=st.integers(1, 3), tiles=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_output_projection_equals_linear_after_attention(
            self, dtype, masked, h, dh, Lq, Lk, d_o, out_bias, step, tiles, seed):
        rng = np.random.default_rng(seed)
        B = step * (tiles - 1) + int(rng.integers(1, step + 1))
        d = h * dh
        xq, xkv, params = attention_leaves(rng, B, Lq, Lk, 3, 2, d, dtype)
        wo = Tensor((rng.standard_normal((d, d_o)) * d ** -0.5).astype(dtype),
                    requires_grad=True)
        bo = Tensor(rng.standard_normal(d_o).astype(dtype), requires_grad=True) \
            if out_bias else None
        mask = None
        if masked:
            mask = rng.random((B, Lk)) < 0.7
            mask[:, 0] = True
        readout = rng.standard_normal((B, Lq, d_o)).astype(dtype)
        fused = lambda: T.attention(xq, xkv, h, *params, key_mask=mask, wo=wo, bo=bo)  # noqa: E731
        ref = lambda: T.linear(T.attention(xq, xkv, h, *params, key_mask=mask), wo, bo)  # noqa: E731
        # a tile budget of ``step`` samples, so small shapes span 1-3 tiles
        budget = step * h * Lq * Lk * np.dtype(dtype).itemsize
        with mock.patch.object(T, "ATTENTION_TILE_BYTES", budget):
            assert tile_samples(h, Lq, Lk, dtype) == step
            assert_same_graph(fused, ref, present(xq, xkv, *params, wo, bo), readout)

    @FLOAT_DTYPES
    @MASKED
    @settings(deadline=None, max_examples=30)
    @given(consumer=st.sampled_from(["linear", "self", "query", "keys"]),
           h=st.sampled_from([1, 2]), dh=st.integers(1, 3), B=st.integers(1, 4),
           L=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_layer_norm_input_is_rebuilt_bit_for_bit(self, dtype, masked, consumer, h, dh,
                                                      B, L, seed):
        rng = np.random.default_rng(seed)
        d = h * dh
        x, other, params = attention_leaves(rng, B, L, L, d, d, d, dtype)
        gain, bias, bo = (Tensor(rng.standard_normal(d).astype(dtype), requires_grad=True)
                          for _ in range(3))
        wo = Tensor((rng.standard_normal((d, d)) * d ** -0.5).astype(dtype), requires_grad=True)
        mask = None
        if masked:
            mask = rng.random((B, L)) < 0.7
            mask[:, 0] = True
        readout = rng.standard_normal((B, L, d)).astype(dtype)

        def graph(feed):
            ln = T.layer_norm(x, gain, bias)
            assert ln._affine is not None
            fed = feed(ln)
            if consumer == "linear":
                return T.linear(fed, wo, bo)
            xq = fed if consumer in ("self", "query") else other
            xkv = fed if consumer in ("self", "keys") else other
            return T.attention(xq, xkv, h, *params, key_mask=mask, wo=wo, bo=bo)

        # a reshape result carries no (xhat, gain, bias), so its node keeps
        # the data itself
        plain = lambda ln: T.reshape(ln, ln.shape)      # noqa: E731
        assert plain(T.layer_norm(x, gain, bias))._affine is None
        leaves = [x, gain, bias, wo, bo]
        if consumer != "linear":
            leaves += present(*params)
        if consumer in ("query", "keys"):
            leaves.append(other)
        assert_same_graph(lambda: graph(lambda ln: ln), lambda: graph(plain), leaves, readout)


# ---------------------------------------------------------------------------
# gradient bookkeeping: leaf-only grads and no_grad
# ---------------------------------------------------------------------------

class TestLeafOnlyGradients:
    def test_interior_nodes_keep_no_grad(self):
        rng = np.random.default_rng(33)
        x = t64(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = t64(rng.standard_normal((4, 4)), requires_grad=True)
        wq, wk, wv = (t64(rng.standard_normal((4, 4)), requires_grad=True) for _ in range(3))
        h = T.linear(x, w)
        out = T.attention(h, h, 2, wq, wk, wv)
        r = T.relu(out)
        loss = T.tsum(r)
        backward(loss)
        assert all(t.grad is not None for t in (x, w, wq, wk, wv))
        for node in (h, out, r, loss):
            assert node.grad is None


class TestNoGrad:
    def test_records_nothing(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            y = T.tsum(T.mul(x, x))
        assert y.item() == 5.0
        assert not y.requires_grad and y._parents == () and y._backward is None
        backward(y)
        assert x.grad is None

    def test_nests_and_restores(self):
        x = t64([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not T.scale(x, 2.0).requires_grad
            assert not T.scale(x, 2.0).requires_grad
        assert T.scale(x, 2.0).requires_grad

    def test_restores_after_exception(self):
        x = t64([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("boom")
        assert T.scale(x, 2.0).requires_grad


class TestEngineOwnsEveryVertex:
    """Only ``tensor.py`` builds graph vertices: every hand-written backward
    closure lives there, and the modules that use the engine's hand-written
    nodes import them from it."""

    def test_no_other_module_builds_a_vertex(self):
        package = Path(T.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            if path.name == "tensor.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                named = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                         ast.FunctionDef: "name"}.get(type(node))
                if named and getattr(node, named) in ("_result", "backward_fn"):
                    offenders.append((path.name, getattr(node, "lineno", None)))
        assert offenders == []

    def test_modules_reexport_the_engine_nodes(self):
        assert encoders.masked_mean is T.masked_mean
        assert fusion.elastic_net_channel is T.elastic_net_channel
        assert model.elastic_net_channel is T.elastic_net_channel
