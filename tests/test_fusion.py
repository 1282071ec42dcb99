import numpy as np
import numpy.testing as npt
import pytest

from mmfusion import tensor as T
from mmfusion.fusion import (ConcatLinearFusion, CrossModalAttention,
                             HybridAttentionFusion, InteractionEncoderFusion,
                             MergedAttentionFusion, TOPOLOGIES, SelfAttentionPool, TextConvPool,
                             UnimodalFusionHead, build_interaction_path,
                             dropout_channel, elastic_net_channel)
from mmfusion.gradcheck import finite_diff_check
from mmfusion.layers import MultiHeadSelfAttention
from mmfusion.model import FusionSettings
from mmfusion.tensor import Tensor
from test_tensor import attention_composite, grads_of


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def all_real(x):
    """A pad mask marking every position of the [B, L, d] array ``x`` real."""
    return np.ones(np.shape(x)[:2], dtype=bool)


def elastic_net_objective(z, x, alpha, beta):
    return (z - x) ** 2 + alpha * np.abs(z) + beta * z * z


def ternary_minimize(x, alpha, beta, iters=200):
    """Independent 1-D numeric minimizer of the elementwise objective."""
    lo = -np.abs(x) - 1.0
    hi = np.abs(x) + 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        better_left = elastic_net_objective(m1, x, alpha, beta) < \
            elastic_net_objective(m2, x, alpha, beta)
        hi = np.where(better_left, m2, hi)
        lo = np.where(better_left, lo, m1)
    return (lo + hi) / 2


class TestDropoutChannel:
    def test_inference_is_exact_identity(self):
        x = t64([[1.0, -2.0, 3.0]])
        for p in (0.1, 0.5, 0.9):
            out = dropout_channel(x, p, mode="inference")
            assert out is x

    def test_keep_probability_one_is_identity_in_training(self):
        x = t64([[1.0, -2.0, 3.0]])
        out = dropout_channel(x, 1.0, mode="training", rng=np.random.default_rng(0))
        npt.assert_array_equal(out.data, x.data)

    def test_monte_carlo_mean_converges(self):
        # E[x * mask / p] = x; 1e5 draws keeps the sample mean within 1%
        rng = np.random.default_rng(123)
        x = t64([2.0, -1.5, 0.75, 3.25])
        draws = 100_000
        total = np.zeros(4)
        for _ in range(draws):
            total += dropout_channel(x, 0.5, mode="training", rng=rng).data
        mean = total / draws
        npt.assert_allclose(mean, x.data, rtol=0.01)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            dropout_channel(t64([1.0]), 0.0, mode="training", rng=np.random.default_rng(0))

    def test_config_validation(self):
        assert FusionSettings(p=0.5, alpha=0.0, beta=0.0).validate() == []
        bad = FusionSettings(p=0.0, alpha=-1.0, beta=-0.5).validate()
        assert len(bad) == 3


class TestElasticNetChannel:
    def test_zero_coefficients_identity(self):
        x = t64([[0.5, -2.0, 0.0]])
        npt.assert_array_equal(elastic_net_channel(x, 0.0, 0.0).data, x.data)

    def test_stationarity_hand_case(self):
        # x=2, alpha=0, beta=1: 2(z-2) + 2z = 0 -> z = 1
        out = elastic_net_channel(t64([2.0]), 0.0, 1.0)
        npt.assert_allclose(out.data, [1.0], atol=1e-12)
        npt.assert_allclose(out.data, ternary_minimize(np.array([2.0]), 0.0, 1.0),
                            atol=1e-7)

    def test_soft_threshold_hand_cases(self):
        npt.assert_allclose(elastic_net_channel(t64([1.0]), 1.0, 0.0).data, [0.5],
                            atol=1e-12)
        npt.assert_allclose(elastic_net_channel(t64([0.3]), 1.0, 0.0).data, [0.0],
                            atol=1e-12)

    def test_matches_numeric_minimizer(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, 200)
        alpha = rng.uniform(0, 2, 200)
        beta = rng.uniform(0, 2, 200)
        expect = ternary_minimize(x, alpha, beta)
        for i in range(200):
            got = elastic_net_channel(t64([x[i]]), alpha[i], beta[i]).data[0]
            assert abs(got - expect[i]) < 1e-6

    def test_contraction_and_sign_properties(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-4, 4, 500)
        out = elastic_net_channel(t64(x), 0.7, 0.3).data
        assert np.all(np.abs(out) <= np.abs(x) + 1e-15)
        nz = out != 0
        assert np.all(np.sign(out[nz]) == np.sign(x[nz]))

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            elastic_net_channel(t64([1.0]), -0.1, 0.0)
        with pytest.raises(ValueError):
            elastic_net_channel(t64([1.0]), 0.0, -0.1)

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(7)
        x = t64(rng.uniform(1.0, 2.0, (3, 4)), requires_grad=True)
        err = finite_diff_check(lambda v: T.tsum(elastic_net_channel(v, 0.4, 0.6)), x)
        assert err < 1e-4


class TestUnimodalFusionHead:
    def test_zero_inputs_zero_bias_gives_zero(self):
        head = UnimodalFusionHead(3, 4, np.random.default_rng(0)).astype(np.float64)
        out = head(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))
        npt.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_blockwise_linearity_oracle(self):
        rng = np.random.default_rng(1)
        head = UnimodalFusionHead(3, 4, rng).astype(np.float64)
        ch1 = rng.standard_normal((2, 3))
        ch2 = rng.standard_normal((2, 3))
        out = head(t64(ch1), t64(ch2)).data
        w = head.proj.weight.data
        b = head.proj.bias.data
        expect = np.maximum(ch1 @ w[:3] + ch2 @ w[3:] + b, 0.0)
        npt.assert_allclose(out, expect, atol=1e-12)

    def test_width_mismatch_errors(self):
        head = UnimodalFusionHead(3, 4, np.random.default_rng(0))
        with pytest.raises(T.ShapeError):
            head(t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        head = UnimodalFusionHead(3, 4, rng).astype(np.float64)
        ch2 = t64(rng.standard_normal((2, 3)))
        x = t64(rng.standard_normal((2, 3)), requires_grad=True)
        assert finite_diff_check(lambda v: T.tsum(head(v, ch2)), x) < 1e-4


class TestSelfAttentionPool:
    @staticmethod
    def run_pool(regions, seed):
        """(pooled, updated, numpy LayerNorm with the pool's own gain and bias)
        for a pool with a random final norm affine."""
        rng = np.random.default_rng(seed)
        pool = SelfAttentionPool(4, 2, 8, rng).astype(np.float64)
        pool.norm.gain.data = rng.uniform(0.5, 2.0, 4)
        pool.norm.bias.data = rng.standard_normal(4)
        x = rng.standard_normal((3, regions, 4))
        pooled, updated = pool(t64(x))
        assert updated.shape == x.shape

        def layer_norm(m):
            normed = (m - m.mean(axis=1, keepdims=True)) / \
                np.sqrt(m.var(axis=1, keepdims=True) + 1e-5)
            return normed * pool.norm.gain.data + pool.norm.bias.data

        return pooled.data, updated.data, layer_norm

    def test_single_region_identity_hook(self):
        # the mean of one region is that region of the block's output
        pooled, updated, layer_norm = self.run_pool(1, seed=3)
        npt.assert_allclose(pooled, layer_norm(updated.mean(axis=1)), atol=1e-9)
        npt.assert_allclose(pooled, layer_norm(updated[:, 0]), atol=1e-9)

    def test_identity_hook_reduces_to_normalized_mean(self):
        # the pool normalizes the mean over positions of the block's output
        pooled, updated, layer_norm = self.run_pool(5, seed=5)
        npt.assert_allclose(pooled, layer_norm(updated.mean(axis=1)), atol=1e-9)

    def test_permutation_invariance_without_positions(self):
        pool = SelfAttentionPool(4, 2, 8, np.random.default_rng(7)).astype(np.float64)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 6, 4))
        perm = rng.permutation(6)
        a, _ = pool(t64(x))
        b, _ = pool(t64(x[:, perm]))
        npt.assert_allclose(a.data, b.data, atol=1e-5)

    def test_empty_sequence_errors(self):
        pool = SelfAttentionPool(4, 2, 8, np.random.default_rng(9))
        with pytest.raises(T.ShapeError):
            pool(Tensor(np.zeros((2, 0, 4), dtype=np.float32)))


class TestTextConvPool:
    def make(self, d=4, seed=10):
        return TextConvPool(d, np.random.default_rng(seed)).astype(np.float64)

    def test_zero_weights_give_zero_vector(self):
        pool = self.make()
        for p in pool.parameters():
            p.data = np.zeros_like(p.data)
        pool.norm.gain.data = np.ones_like(pool.norm.gain.data)
        x = np.random.default_rng(11).standard_normal((2, 5, 4))
        out, _, _ = pool(t64(x), all_real(x))
        npt.assert_allclose(out.data, np.zeros((2, 4)), atol=1e-12)

    def test_constant_sequence_hand_trace(self):
        pool = self.make()
        row = np.random.default_rng(12).standard_normal(4)
        x = np.tile(row, (1, 6, 1))
        out, _, _ = pool(t64(x), all_real(x))
        # every window position sees the same input, so each q_l is that
        # window's single response and T0 = LN(mix(concat(q1, q2, q3)))
        q = []
        for window, (w, b) in zip((1, 2, 3), ((pool.conv_w1, pool.conv_b1),
                                              (pool.conv_w2, pool.conv_b2),
                                              (pool.conv_w3, pool.conv_b3))):
            flat = np.tile(row, window)
            q.append(np.maximum(flat @ w.data + b.data, 0.0))
        mixed = np.concatenate(q) @ pool.mix.weight.data + pool.mix.bias.data
        expect = (mixed - mixed.mean()) / np.sqrt(mixed.var() + 1e-5)
        npt.assert_allclose(out.data[0], expect, atol=1e-9)

    def test_max_positions_match_sliding_oracle(self):
        pool = self.make()
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 7, 4))
        _, phrase_seq, _ = pool(t64(x), all_real(x))
        # naive per-window scan for window 2
        w, b = pool.conv_w2.data, pool.conv_b2.data
        expect = np.zeros((2, 6, 4))
        for bi in range(2):
            for t in range(6):
                expect[bi, t] = np.maximum(x[bi, t:t + 2].reshape(-1) @ w + b, 0.0)
        npt.assert_allclose(phrase_seq.data[:, 7:13], expect, atol=1e-12)
        got_max = phrase_seq.data[:, 7:13].max(axis=1)
        pooled_direct = np.maximum(
            np.stack([np.concatenate([x[bi, t:t + 2].reshape(-1)[None] @ w
                                      for t in range(6)]) for bi in range(2)]) + b,
            0.0).max(axis=1)
        npt.assert_allclose(got_max, pooled_direct, atol=1e-12)

    def test_short_sequence_instructs_padding(self):
        pool = self.make()
        with pytest.raises(T.ShapeError, match="pad"):
            pool(t64(np.zeros((1, 2, 4))), np.ones((1, 2), dtype=bool))

    def test_pad_windows_never_win_max(self):
        pool = self.make()
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 6, 4))
        mask_full = np.ones((1, 6), dtype=bool)
        mask_short = mask_full.copy()
        mask_short[0, 4:] = False
        out_full, _, _ = pool(t64(x), mask_full.copy())
        # corrupt the padded tail: masked max-pool must ignore it
        x2 = x.copy()
        x2[0, 4:] = 100.0
        out_short, _, _ = pool(t64(x2), mask_short)
        x3 = x.copy()
        x3[0, 4:] = -100.0
        out_short2, _, _ = pool(t64(x3), mask_short)
        npt.assert_allclose(out_short.data, out_short2.data, atol=1e-9)


class TestCrossModalAttention:
    def test_sequence_mode_rows_sum_to_one(self):
        # weights that sum to one map a value row shared by every key to
        # itself; the key/value input carries the keys in its first four
        # columns and the shared value row in its last four, which the
        # selecting projections pick apart exactly
        rng = np.random.default_rng(17)
        q = t64(rng.standard_normal((2, 3, 4)))
        k = rng.standard_normal((2, 5, 4))
        row = rng.standard_normal((2, 1, 4))
        kv = t64(np.concatenate([k, np.repeat(row, 5, axis=1)], axis=2))
        eye, zero = np.eye(4), np.zeros((4, 4))
        out = T.attention(q, kv, 2, t64(eye), t64(np.vstack([eye, zero])),
                          t64(np.vstack([zero, eye])))
        npt.assert_allclose(out.data, np.repeat(row, 3, axis=1), atol=1e-6)

    def test_joint_qk_scaling_squares_logits(self):
        rng = np.random.default_rng(18)
        d, heads = 4, 2
        q = rng.standard_normal((1, 1, d))
        k = rng.standard_normal((1, 3, d))
        c = 1.7

        def logits(qa, ka):
            qh = qa.reshape(1, heads, d // heads).transpose(1, 0, 2)
            kh = ka.reshape(3, heads, d // heads).transpose(1, 0, 2)
            return qh @ kh.transpose(0, 2, 1) / np.sqrt(d // heads)

        base = logits(q[0], k[0])
        scaled = logits(c * q[0], c * k[0])
        npt.assert_allclose(scaled, c * c * base, atol=1e-12)
        # and the graph's attention, with identity projections, reads the
        # values with softmax(logits)
        eye = t64(np.eye(d))
        out = T.attention(t64(q), t64(k), heads, eye, eye, eye)
        e = np.exp(base - base.max(axis=-1, keepdims=True))
        per_head = (e / e.sum(axis=-1, keepdims=True)) @ k[0].reshape(
            3, heads, d // heads).transpose(1, 0, 2)
        npt.assert_allclose(out.data, per_head.transpose(1, 0, 2).reshape(1, 1, d),
                            atol=1e-12)

    @pytest.mark.parametrize("masked", [False, True])
    def test_attend_equals_projections_then_primitive_graph(self, masked):
        # each direction is one attention node fed the inputs and the
        # projection weights; the module's Linear projections feeding the
        # primitive attention graph give the same bits, gradients included
        attn = CrossModalAttention(4, 2, np.random.default_rng(40))
        rng = np.random.default_rng(41)
        text, image = (Tensor(rng.standard_normal((2, L, 4)).astype(np.float32),
                              requires_grad=True) for L in (5, 6))
        mask = np.array([[True] * 5, [True, True, True, False, False]]) if masked else None

        def fused():
            return T.concat(attn.attend(text, image, image, text, mask), axis=1)

        def ref():
            from_image = attention_composite(
                attn.q_from_text(text), attn.k_image(image), attn.v_image(image), 2)
            from_text = attention_composite(
                attn.q_from_image(image), attn.k_text(text), attn.v_text(text), 2, mask)
            return T.concat([from_image, from_text], axis=1)

        readout = rng.standard_normal((2, 11, 4)).astype(np.float32)
        leaves = [text, image] + list(attn.parameters())
        assert np.array_equal(fused().data, ref().data)
        for a, r in zip(grads_of(fused, leaves, readout), grads_of(ref, leaves, readout)):
            assert a.dtype == np.float32 and np.array_equal(a, r)

    def test_self_attention_equals_projections_then_primitive_graph(self):
        attn = MultiHeadSelfAttention(4, 2, np.random.default_rng(42))
        rng = np.random.default_rng(43)
        x = Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32), requires_grad=True)
        mask = np.array([[True] * 5, [True, True, True, False, False]])

        def ref():
            return attn.o_proj(attention_composite(
                attn.q_proj(x), attn.k_proj(x), attn.v_proj(x), 2, mask))

        readout = rng.standard_normal((2, 5, 4)).astype(np.float32)
        leaves = [x] + list(attn.parameters())
        assert np.array_equal(attn(x, mask).data, ref().data)
        for a, r in zip(grads_of(lambda: attn(x, mask), leaves, readout),
                        grads_of(ref, leaves, readout)):
            assert a.dtype == np.float32 and np.array_equal(a, r)

    def test_width_mismatch_errors(self):
        attn = CrossModalAttention(4, 2, np.random.default_rng(15)).astype(np.float64)
        text_seq, image_seq = t64(np.zeros((2, 5, 4))), t64(np.zeros((2, 6, 4)))
        with pytest.raises(T.ShapeError):
            attn(t64(np.zeros((2, 4))), text_seq, all_real(text_seq.data),
                 t64(np.zeros((2, 6))), image_seq)

    def test_heads_must_divide_width(self):
        with pytest.raises(T.ShapeError):
            CrossModalAttention(5, 2, np.random.default_rng(0))


class TestTopologies:
    def setup_method(self):
        self.rng = np.random.default_rng(19)
        self.text_ctx = t64(self.rng.standard_normal((2, 5, 4)))
        self.text_mask = np.array([[True] * 5, [True, True, True, False, False]])
        self.image_ctx = t64(self.rng.standard_normal((2, 6, 4)))

    def test_output_shapes(self):
        for cls in (MergedAttentionFusion, InteractionEncoderFusion):
            mod = cls(4, 2, 8, np.random.default_rng(20)).astype(np.float64)
            out = mod(self.text_ctx, self.text_mask, self.image_ctx)
            assert out.shape == (2, 4)
        hybrid = HybridAttentionFusion(4, 2, 8,
                                       np.random.default_rng(21)).astype(np.float64)
        assert hybrid(self.text_ctx, self.text_mask, self.image_ctx).shape == (2, 4)
        plain = ConcatLinearFusion(4, np.random.default_rng(22)).astype(np.float64)
        assert plain(self.text_ctx, self.text_mask, self.image_ctx).shape == (2, 4)

    def test_parameter_counts_match_analytic_formulas(self):
        d, heads, ffn = 4, 2, 8
        block = 4 * d * d + 3 * d + 4 * d + 2 * d * ffn + ffn + d
        merged = MergedAttentionFusion(d, heads, ffn, np.random.default_rng(0))
        assert merged.parameter_count() == block
        inter = InteractionEncoderFusion(d, heads, ffn, np.random.default_rng(0))
        assert inter.parameter_count() == 6 * d * d + block
        hybrid = HybridAttentionFusion(d, heads, ffn, np.random.default_rng(0))
        self_pool = block + 2 * d
        text_pool = (1 + 2 + 3) * d * d + 3 * d + (3 * d * d + d) + 2 * d
        cross = 6 * d * d
        assert hybrid.parameter_count() == self_pool + text_pool + cross

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_gradient_flows_end_to_end(self, topology):
        path = build_interaction_path(topology, 4, 2, 8,
                                      np.random.default_rng(23)).astype(np.float64)
        x = t64(self.rng.standard_normal((2, 4, 4)), requires_grad=True)
        # the second sentence is padded, so the text-key mask is on the path
        mask = np.array([[True] * 4, [True, True, False, False]])
        img = t64(self.rng.standard_normal((2, 6, 4)))
        # random readout weights: a plain sum of a LayerNorm'd output is constant
        readout = t64(self.rng.standard_normal((2, 4)))
        err = finite_diff_check(lambda v: T.tsum(T.mul(path(v, mask, img), readout)), x)
        assert err < 1e-4
