import numpy as np
import numpy.testing as npt
import pytest

from mmfusion import tensor as T
from mmfusion.encoders import (EncoderConfig, ImageEncoder, TextBatch,
                               TextEncoder, masked_mean, patchify)
from mmfusion.gradcheck import finite_diff_check
from mmfusion.tensor import Tensor, backward


def tiny_cfg(**kw):
    base = dict(d_model=8, n_heads=2, n_layers=1, ffn_width=16,
                embedding_dim=8, share_layers=True, max_len=12)
    base.update(kw)
    return EncoderConfig(**base)


class TestPatchify:
    def test_whole_image_single_patch(self):
        img = np.random.default_rng(0).random((4, 4, 1))
        out = patchify(Tensor(img[None]), 4)
        assert out.shape == (1, 1, 16)
        npt.assert_array_equal(out.data[0, 0], img.reshape(-1))

    def test_matches_index_arithmetic_oracle(self):
        rng = np.random.default_rng(1)
        img = rng.random((4, 4, 1))
        out = patchify(Tensor(img[None]), 2).data[0]
        # oracle: explicit double loop over the patch grid
        expect = np.zeros((4, 4))
        k = 0
        for pr in range(2):
            for pc in range(2):
                expect[k] = img[pr * 2:(pr + 1) * 2, pc * 2:(pc + 1) * 2, :].reshape(-1)
                k += 1
        npt.assert_array_equal(out, expect)

    def test_non_divisible_patch_errors(self):
        with pytest.raises(T.ShapeError):
            patchify(Tensor(np.zeros((1, 5, 5, 1))), 2)

    def test_unbatched_image_names_the_batched_layout(self):
        with pytest.raises(T.ShapeError, match=r"\[B, H, W, C\]"):
            patchify(Tensor(np.zeros((4, 4, 1))), 2)


class TestTextEncoder:
    def make_batch(self, ids):
        ids = np.asarray(ids)
        return TextBatch(token_ids=ids, pad_mask=ids != 0, vocab_size=10)

    def test_deterministic_outputs(self):
        enc = TextEncoder(tiny_cfg(), vocab_size=10, rng=np.random.default_rng(3))
        batch = self.make_batch([[2, 3, 4], [5, 6, 0]])
        a = enc(batch)
        b = enc(batch)
        assert np.array_equal(a.pooled.data, b.pooled.data)
        assert np.array_equal(a.context.data, b.context.data)

    def test_pad_extension_leaves_global_unchanged(self):
        enc = TextEncoder(tiny_cfg(), vocab_size=10, rng=np.random.default_rng(4))
        short = self.make_batch([[2, 3, 4]])
        padded = self.make_batch([[2, 3, 4, 0, 0]])
        npt.assert_allclose(enc(short).pooled.data, enc(padded).pooled.data, atol=1e-5)

    def test_masked_mean_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 3))
        mask = np.array([[True, True, False, False], [True, True, True, True]])
        out = masked_mean(Tensor(x), mask).data
        npt.assert_allclose(out[0], x[0, :2].mean(axis=0), rtol=1e-6)
        npt.assert_allclose(out[1], x[1].mean(axis=0), rtol=1e-6)

    def test_layer_sharing_fixes_parameter_count(self):
        counts = []
        for n_layers in (2, 6):
            enc = TextEncoder(tiny_cfg(n_layers=n_layers), vocab_size=10,
                              rng=np.random.default_rng(0))
            counts.append(enc.parameter_count())
        assert counts[0] == counts[1]

    def test_unshared_stacks_grow_with_depth(self):
        c1 = TextEncoder(tiny_cfg(share_layers=False, n_layers=1), 10,
                         rng=np.random.default_rng(0)).parameter_count()
        c2 = TextEncoder(tiny_cfg(share_layers=False, n_layers=2), 10,
                         rng=np.random.default_rng(0)).parameter_count()
        assert c2 > c1

    def test_overlong_sequence_errors_with_max_len(self):
        enc = TextEncoder(tiny_cfg(max_len=4), vocab_size=10, rng=np.random.default_rng(0))
        with pytest.raises(T.ShapeError, match="max_len 4"):
            enc(self.make_batch([[2, 3, 4, 5, 6]]))


class TestImageEncoder:
    def make(self, seed=6, **kw):
        return ImageEncoder(tiny_cfg(**kw), image_size=4, patch_size=2, channels=1,
                            rng=np.random.default_rng(seed))

    def test_context_length_is_patches_plus_cls(self):
        enc = self.make()
        out = enc(np.random.default_rng(0).random((2, 4, 4, 1)))
        assert out.context.shape == (2, 5, 8)
        assert out.pooled.shape == (2, 8)

    def test_single_patch_difference_changes_global(self):
        enc = self.make()
        rng = np.random.default_rng(7)
        img = rng.random((1, 4, 4, 1))
        other = img.copy()
        other[0, :2, :2, 0] = 1.0 - other[0, :2, :2, 0]
        a = enc(img).pooled.data
        b = enc(other).pooled.data
        assert np.abs(a - b).max() > 1e-6

    def test_patch_size_that_does_not_divide_the_batch_is_rejected(self):
        enc = self.make()
        with pytest.raises(T.ShapeError, match="patchify: patch size 2 does not divide 5x5"):
            enc(np.zeros((1, 5, 5, 1)))

    def test_out_of_range_pixels_are_rejected(self):
        enc = self.make()
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            enc(np.full((1, 4, 4, 1), 2.0))

    def test_nan_pixel_is_rejected_by_the_encoder(self):
        """NaN fails both bounds, so it stops at the pixel guard instead of
        surfacing later as attention's NonFiniteError (a ValueError too)."""
        enc = self.make()
        pixels = np.random.default_rng(9).random((2, 4, 4, 1))
        pixels[1, 2, 3, 0] = np.nan
        with pytest.raises(ValueError, match="encode_image") as excinfo:
            enc(pixels)
        assert not isinstance(excinfo.value, T.NonFiniteError)

    def test_full_encoder_gradient(self):
        enc = self.make().astype(np.float64)
        rng = np.random.default_rng(8)
        # production init is ~0.02-scale, which parks attention gradients at
        # the finite-difference noise floor; check at O(1) weights instead
        for _, p in enc.named_parameters():
            p.data = rng.standard_normal(p.shape) * 0.4
        pixels = rng.random((1, 4, 4, 1))
        probe = Tensor(rng.standard_normal(8))

        def forward():
            pooled = enc(pixels).pooled
            return T.tsum(T.mul(T.reshape(pooled, (8,)), probe))

        worst = 0.0
        for name, p in enc.named_parameters():
            err = finite_diff_check(lambda _x, f=forward: f(), p, h=1e-5)
            worst = max(worst, err)
        assert worst < 1e-3


def test_text_encoder_gradient_flows_to_embeddings():
    enc = TextEncoder(tiny_cfg(), vocab_size=10, rng=np.random.default_rng(9))
    batch = TextBatch(np.array([[2, 3, 0]]), np.array([[True, True, False]]), 10)
    out = enc(batch)
    backward(T.tsum(out.pooled))
    assert enc.word_emb.grad is not None
    # pad row never contributes
    npt.assert_array_equal(enc.word_emb.grad[0], np.zeros(8))


def masked_mean_composite(context, pad_mask):
    """The primitive graph the fused ``masked_mean`` node replaces: masks
    repeated out to [B, L, d], mul, tsum, mul."""
    B, L, d = context.shape
    dtype = context.data.dtype
    mask3 = np.repeat(pad_mask[:, :, None].astype(dtype), d, axis=2)
    summed = T.tsum(T.mul(context, Tensor(mask3)), axis=1)
    inv = np.repeat((1.0 / pad_mask.sum(axis=1))[:, None].astype(dtype), d, axis=1)
    return T.mul(summed, Tensor(inv))


class TestMaskedMean:
    MASK = np.array([[True, True, False, False], [True, True, True, True]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        readout = Tensor(rng.standard_normal((2, 3)))
        err = finite_diff_check(
            lambda v: T.tsum(T.mul(masked_mean(v, self.MASK), readout)), x)
        assert err < 1e-6

    def test_bit_identical_to_primitive_graph(self):
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((2, 4, 3)).astype(np.float32), requires_grad=True)
        readout = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        grads = []
        for fn in (masked_mean, masked_mean_composite):
            x.grad = None
            out = fn(x, self.MASK)
            backward(T.tsum(T.mul(out, readout)))
            grads.append((out.data, x.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])
        assert grads[0][1][0, 2:].max() == 0.0
