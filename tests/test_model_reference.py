"""The whole model equals its primitive graph.

``reference_loss`` is a second forward pass of ``MultimodalClassifier``. It
reads the model's own parameters and draws the same dropout masks, but it
records none of the engine's fused ``ffn``, ``attention`` or ``masked_mean``
nodes and no ``linear`` node of the model's own: each is replaced by the
composite that its own tests compare it with (``linear_composite``,
``projected_composite`` and ``ffn_composite`` in ``test_tensor``,
``masked_mean_composite`` in ``test_encoders``). The model's functions that
record only primitive nodes (``patchify``, ``dropout_channel``,
``cross_entropy``, ``combined_loss``) are called as they are.

Each fused node equals its composite in isolation. What crosses node
boundaries, such as a layer_norm result rebuilt from its (xhat, gain, bias)
inside the next node, is checked only here: the loss and every parameter
gradient must equal the reference's bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from mmfusion import tensor as T
from mmfusion.data import SyntheticSpec
from mmfusion.decision import combined_loss, cross_entropy
from mmfusion.encoders import EncoderConfig, ImageBatch, TextBatch, patchify
from mmfusion.fusion import TOPOLOGIES, _window_key_mask, dropout_channel
from mmfusion.layers import LAYER_NORM_EPS
from mmfusion.model import FusionSettings, MultimodalClassifier, RunConfig
from mmfusion.tensor import Tensor, backward
from test_encoders import masked_mean_composite
from test_model import vertices_below
from test_tensor import ffn_composite, linear_composite, projected_composite


def dense(layer, x):
    return linear_composite(x, layer.weight, layer.bias)


def norm(layer, x):
    return T.layer_norm(x, layer.gain, layer.bias, LAYER_NORM_EPS)


def block_ref(block, x, key_mask=None):
    a, f = block.attn, block.ffn
    q, k, v = a.q_proj, a.k_proj, a.v_proj
    heads = projected_composite(x, x, a.n_heads, q.weight, k.weight, v.weight, q.bias, v.bias,
                                key_mask)
    h = norm(block.norm1, T.add(x, dense(a.o_proj, heads)))
    hidden = ffn_composite(h, f.inner.weight, f.inner.bias, f.outer.weight, f.outer.bias)
    return norm(block.norm2, T.add(h, hidden))


def stack_ref(stack, x, key_mask=None):
    blocks = [stack.block] * stack.n_layers if stack.share_layers else stack.blocks
    for block in blocks:
        x = block_ref(block, x, key_mask)
    return x


def text_ref(enc, batch):
    """(context, pooled) of ``TextEncoder``."""
    ids = batch.token_ids
    emb = T.add(T.add(T.embedding(enc.word_emb, ids), T.narrow(enc.pos_emb, 0, 0, ids.shape[1])),
                enc.seg_emb)
    context = stack_ref(enc.stack, dense(enc.input_proj, emb), batch.pad_mask)
    return context, masked_mean_composite(context, batch.pad_mask)


def image_ref(enc, batch):
    """(context, pooled) of ``ImageEncoder``."""
    B, (d,), dtype = batch.pixels.shape[0], enc.cls_token.shape, enc.cls_token.dtype
    tokens = dense(enc.patch_proj, patchify(Tensor(batch.pixels.astype(dtype)), enc.patch_size))
    cls = T.add(Tensor(np.zeros((B, 1, d), dtype)), enc.cls_token)
    context = stack_ref(enc.stack, T.add(T.concat([cls, tokens], axis=1), enc.pos_emb))
    return context, T.reshape(T.narrow(context, 1, 0, 1), (B, d))


def branch_ref(model, side, pooled, rng):
    """Class probabilities of one unimodal branch: both channels, the fusion
    head and the branch classifier."""
    fz = model.cfg.fusion
    channels = [dropout_channel(pooled, fz.p, "training", rng),
                T.elastic_net_channel(pooled, fz.alpha, fz.beta)]
    feature = T.relu(dense(getattr(model, f"{side}_head").proj, T.concat(channels, axis=-1)))
    return classify(getattr(model, f"{side}_classifier"), feature)


def classify(classifier, x):
    return T.softmax(dense(classifier.proj, x), axis=-1)


def cross_ref(cross, text_query, image_kv, image_query, text_kv, text_mask=None):
    """``CrossModalAttention.attend``."""
    h = cross.n_heads
    from_image = projected_composite(text_query, image_kv, h, cross.q_from_text.weight,
                                     cross.k_image.weight, cross.v_image.weight)
    from_text = projected_composite(image_query, text_kv, h, cross.q_from_image.weight,
                                    cross.k_text.weight, cross.v_text.weight,
                                    key_mask=text_mask)
    return from_image, from_text


def merged_ref(block, text_seq, text_mask, image_seq):
    mask = np.concatenate([text_mask, np.ones(image_seq.shape[:2], dtype=bool)], axis=1)
    return masked_mean_composite(block_ref(block, T.concat([text_seq, image_seq], axis=1), mask),
                                 mask)


def conv_pool_ref(pool, seq, pad_mask):
    """(global text feature, phrase sequence, phrase mask) of ``TextConvPool``."""
    weights = ((pool.conv_w1, pool.conv_b1), (pool.conv_w2, pool.conv_b2),
               (pool.conv_w3, pool.conv_b3))
    pooled, chunks, masks = [], [], []
    for window, (w, b) in zip(pool.WINDOWS, weights):
        feats = T.conv1d(seq, w, b, window)
        valid = _window_key_mask(pad_mask, window)
        gate = np.broadcast_to(np.where(valid[:, :, None], 0.0, -1e9), feats.shape)
        pooled.append(T.max_pool(T.add(feats, Tensor(gate.astype(feats.dtype))), axis=1))
        chunks.append(feats)
        masks.append(valid)
    return (norm(pool.norm, dense(pool.mix, T.concat(pooled, axis=-1))),
            T.concat(chunks, axis=1), np.concatenate(masks, axis=1))


def interaction_ref(path, topology, text_ctx, text_mask, image_seq):
    """O_H of the ``topology`` interaction path."""
    if topology == "merged":
        return merged_ref(path.block, text_ctx, text_mask, image_seq)
    if topology == "interaction":
        from_image, from_text = cross_ref(path.cross, text_ctx, image_seq, image_seq, text_ctx,
                                          text_mask)
        return merged_ref(path.block, from_image, text_mask, from_text)
    pool = path.image_pool
    updated = block_ref(pool.block, image_seq)
    image_pooled = norm(pool.norm, T.mean_pool(updated, axis=1))
    text_pooled, phrase_seq, phrase_mask = conv_pool_ref(path.text_pool, text_ctx, text_mask)
    B, d = text_pooled.shape
    from_image, from_text = cross_ref(path.cross, T.reshape(text_pooled, (B, 1, d)), updated,
                                      T.reshape(image_pooled, (B, 1, d)), phrase_seq,
                                      phrase_mask)
    return T.add(T.reshape(from_image, (B, d)), T.reshape(from_text, (B, d)))


def reference_loss(model, text_batch, image_batch, labels, rng):
    """The training loss of a multimodal ``model`` on one batch, with the
    dropout masks drawn from ``rng`` in the model's order."""
    text_ctx, text_pooled = text_ref(model.text_encoder, text_batch)
    p_text = branch_ref(model, "text", text_pooled, rng)
    image_ctx, image_pooled = image_ref(model.image_encoder, image_batch)
    p_image = branch_ref(model, "image", image_pooled, rng)
    patches = T.narrow(image_ctx, 1, 1, image_ctx.shape[1] - 1)
    o_h = interaction_ref(model.interaction_path, model.cfg.fusion.topology, text_ctx,
                          text_batch.pad_mask, patches)
    p_inter = classify(model.interaction_classifier, o_h)
    return combined_loss(cross_entropy(p_text, labels), cross_entropy(p_inter, labels),
                         cross_entropy(p_image, labels), model.cfg.decision.gamma)[0]


def tiny_model(topology, h, dh, n_layers, share, width, dtype, seed):
    """A multimodal model of width h * dh on 4x4 single-channel images of
    2x2 patches, 3 classes and a 12-word vocabulary."""
    d = h * dh

    def encoder(share_layers):
        return EncoderConfig(d_model=d, n_heads=h, n_layers=n_layers, ffn_width=width,
                             embedding_dim=3, share_layers=share_layers, max_len=6)

    cfg = RunConfig(text_encoder=encoder(share), image_encoder=encoder(not share),
                    fusion=FusionSettings(topology=topology),
                    data=SyntheticSpec(n_classes=3, image_size=4, patch_size=2, vocab_size=12,
                                       sentence_len=(1, 6)),
                    seed=seed)
    return MultimodalClassifier(cfg, cfg.data.vocab_size).astype(dtype)


def tiny_batch(rng, B, D, padded):
    """Text, image and labels of B samples, the text D tokens wide; a padded
    batch has at least one row shorter than D."""
    lengths = np.full(B, D)
    if padded:
        lengths = rng.integers(1, D + 1, B)
        lengths[rng.integers(B)] = rng.integers(1, D)
    mask = np.arange(D) < lengths[:, None]
    ids = np.where(mask, rng.integers(2, 12, (B, D)), 0)
    pixels = rng.random((B, 4, 4, 1)).astype(np.float32)
    return (TextBatch(ids, mask, 12), ImageBatch(pixels), rng.integers(0, 3, B))


class TestModelEqualsItsPrimitiveGraph:
    @settings(deadline=None, max_examples=200)
    @given(topology=st.sampled_from(TOPOLOGIES), dtype=st.sampled_from([np.float32, np.float64]),
           h=st.sampled_from([1, 2]), dh=st.integers(1, 3), n_layers=st.integers(1, 2),
           share=st.booleans(), width=st.integers(1, 5), B=st.integers(1, 3),
           D=st.integers(3, 6), padded=st.booleans(), seed=st.integers(0, 2**16))
    def test_loss_and_gradients_equal_the_reference(self, topology, dtype, h, dh, n_layers,
                                                     share, width, B, D, padded, seed):
        rng = np.random.default_rng(seed)
        model = tiny_model(topology, h, dh, n_layers, share, width, dtype, seed)
        text, image, labels = tiny_batch(rng, B, D, padded)
        preds = model.forward_batch(text, image, training=True, rng=np.random.default_rng(seed))
        loss = model.loss(preds, labels)[0]
        backward(loss)
        grads = {name: p.grad for name, p in model.named_parameters()}
        model.zero_grad()

        ref = reference_loss(model, text, image, labels, np.random.default_rng(seed))
        ops = {v._backward.__qualname__.split(".")[0] for v in vertices_below(ref)
               if v._backward is not None}
        assert not ops & {"ffn", "attention", "masked_mean"}
        assert ref.dtype == loss.dtype == dtype and np.array_equal(ref.data, loss.data)
        backward(ref)
        for name, p in model.named_parameters():
            assert p.grad.dtype == dtype and np.array_equal(p.grad, grads[name]), name
