from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from mmfusion import optim
from mmfusion.checkpoint import load_checkpoint, load_into, save_checkpoint
from mmfusion.optim import AdamW, MissingGradientError, param_groups
from mmfusion.tensor import Module, Tensor, backward, mul, tsum


def make_param(values, dtype=np.float64):
    return Tensor(np.asarray(values, dtype=dtype), requires_grad=True)


def reference_step(weights, grads, m, v, lrs, t, weight_decay, betas=(0.9, 0.999),
                   eps=1e-8):
    """The per-tensor AdamW loop the arena replaced, over name-keyed arrays:
    ``m`` and ``v`` are updated in place, ``weights`` rebound to new arrays."""
    beta1, beta2 = betas
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, w in weights.items():
        lr = lrs[name]
        grad = grads[name].astype(np.float64)
        m[name] *= beta1
        m[name] += (1 - beta1) * grad
        v[name] *= beta2
        v[name] += (1 - beta2) * grad * grad
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        new = w.astype(np.float64)
        new -= lr * weight_decay * new
        new -= lr * update
        weights[name] = new.astype(w.dtype)


def assert_same_state(opt, params, weights, m, v):
    for name, p in params:
        for got, expect in ((p.data, weights[name]), (opt._m[name], m[name]),
                            (opt._v[name], v[name])):
            assert got.dtype == expect.dtype and np.array_equal(got, expect), name


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_arena_equals_per_tensor_loop(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    groups, params, lrs = [], [], {}
    for gi in range(data.draw(st.integers(1, 3), label="groups")):
        lr = data.draw(st.floats(1e-4, 0.5), label="lr")
        members = []
        for pi in range(data.draw(st.integers(1, 4), label="params")):
            shape = tuple(data.draw(st.lists(st.integers(0, 6), max_size=3), label="shape"))
            dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
            members.append((f"g{gi}.p{pi}", make_param(rng.standard_normal(shape), dtype)))
            lrs[members[-1][0]] = lr
        groups.append({"params": members, "lr": lr})
        params += members
    weight_decay = data.draw(st.floats(1e-4, 0.1), label="weight_decay")
    weights = {name: p.data.copy() for name, p in params}
    m = {name: np.zeros_like(w) for name, w in weights.items()}
    v = {name: np.zeros_like(w) for name, w in weights.items()}
    # small slices put slice boundaries inside and across parameters
    slice_elems = data.draw(st.sampled_from([1, 3, 16, optim.SLICE_ELEMS]), label="slice")
    with mock.patch.object(optim, "SLICE_ELEMS", slice_elems):
        opt = AdamW(groups, weight_decay=weight_decay)
    for t in range(1, data.draw(st.integers(1, 20), label="steps") + 1):
        grads = {}
        for name, p in params:
            p.grad = grads[name] = (rng.standard_normal(p.shape)
                                    * rng.choice([1e-3, 1.0, 1e3])).astype(p.data.dtype)
        reference_step(weights, grads, m, v, lrs, t, weight_decay)
        opt.step()
        assert opt.step_count == t
        assert_same_state(opt, params, weights, m, v)


class Pair(Module):
    def __init__(self, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.w = make_param(rng.standard_normal((2, 3)), np.float32)
        self.u = make_param(rng.standard_normal(2))


def test_load_into_between_steps_is_taken_up(tmp_path):
    save_checkpoint(Pair(seed=4).named_parameters(), tmp_path)
    model = Pair(seed=3)
    params = list(model.named_parameters())
    opt = AdamW([{"params": params, "lr": 0.1}])
    views = {name: p.data for name, p in params}
    weights = {name: p.data.copy() for name, p in params}
    m = {name: np.zeros_like(a) for name, a in weights.items()}
    v = {name: np.zeros_like(a) for name, a in weights.items()}
    for t in range(1, 4):
        if t == 2:
            load_into(model, tmp_path)
            weights.update(load_checkpoint(tmp_path))
        grads = {name: np.full(p.shape, 0.5, p.data.dtype) for name, p in params}
        for name, p in params:
            p.grad = grads[name]
        reference_step(weights, grads, m, v, {"w": 0.1, "u": 0.1}, t, 5e-4)
        opt.step()
        assert_same_state(opt, params, weights, m, v)
        assert all(p.data is views[name] for name, p in params)


@pytest.mark.parametrize("rebound", [np.zeros(3), np.zeros(4), np.zeros(3, np.float32),
                                     np.zeros((3, 1))],
                         ids=["same", "shape", "dtype", "rank"])
def test_other_rebinding_raises_naming_the_parameter(rebound):
    w, u = make_param([1.0, 2.0, 3.0]), make_param([1.0])
    opt = AdamW([{"params": [("weights.w", w), ("weights.u", u)], "lr": 0.1}])
    w.data = rebound
    w.grad, u.grad = np.zeros(3), np.zeros(1)
    with pytest.raises(ValueError, match="weights.w"):
        opt.step()
    assert opt.step_count == 0


def test_tensor_registered_twice_is_rejected():
    w = make_param([1.0])
    with pytest.raises(ValueError, match="b is registered twice"):
        AdamW([{"params": [("a", w)], "lr": 0.1}, {"params": [("b", w)], "lr": 0.2}])


def test_zero_grad_drops_every_gradient():
    w, u = make_param([1.0]), make_param([2.0], np.float32)
    opt = AdamW([{"params": [("w", w)], "lr": 0.1}, {"params": [("u", u)], "lr": 0.2}])
    w.grad, u.grad = np.ones(1), np.ones(1, np.float32)
    opt.zero_grad()
    assert w.grad is None and u.grad is None


def test_zero_gradient_zero_decay_leaves_params_unchanged():
    w = make_param([1.0, -2.0, 3.0])
    opt = AdamW([{"params": [("w", w)], "lr": 0.1}], weight_decay=0.0)
    w.grad = np.zeros(3)
    opt.step()
    npt.assert_array_equal(w.data, [1.0, -2.0, 3.0])


def test_single_step_on_quadratic_decreases_w():
    # f(w) = w^2 from w=1: grad 2, bias-corrected Adam update ~= lr
    w = make_param([1.0])
    opt = AdamW([{"params": [("w", w)], "lr": 0.1}], weight_decay=0.0)
    loss = tsum(mul(w, w))
    backward(loss)
    opt.step()
    assert w.data[0] < 1.0
    npt.assert_allclose(w.data[0], 1.0 - 0.1 * (0.2 / 0.1) / (np.sqrt(0.004 / 0.001) + 1e-8),
                        rtol=1e-10)


def test_decay_with_zero_gradient_contracts_strictly():
    w = make_param([2.0, -3.0])
    opt = AdamW([{"params": [("w", w)], "lr": 0.1}], weight_decay=5e-4)
    before = np.abs(w.data.copy())
    for _ in range(5):
        w.grad = np.zeros(2)
        opt.step()
        now = np.abs(w.data)
        assert np.all(now < before)
        before = now.copy()


def test_missing_gradient_names_parameter():
    w = make_param([1.0])
    u = make_param([1.0])
    opt = AdamW([{"params": [("weights.w", w), ("weights.u", u)], "lr": 0.1}])
    w.grad = np.zeros(1)
    with pytest.raises(MissingGradientError, match="weights.u"):
        opt.step()


def test_step_counter_increments_by_one():
    w = make_param([1.0])
    opt = AdamW([{"params": [("w", w)], "lr": 0.01}])
    assert opt.step_count == 0
    for i in range(3):
        w.grad = np.ones(1)
        opt.step()
        assert opt.step_count == i + 1


def test_moment_buffers_match_parameter_shapes():
    w = make_param(np.zeros((3, 4)))
    opt = AdamW([{"params": [("w", w)], "lr": 0.01}])
    assert opt._m["w"].shape == (3, 4)
    assert opt._v["w"].shape == (3, 4)


def test_param_groups_prefix_routing():
    params = [
        ("text_encoder.tok.w", make_param([1.0])),
        ("image_encoder.proj.w", make_param([1.0])),
        ("fusion.head.w", make_param([1.0])),
    ]
    groups = param_groups(params, {"text_encoder.": 1e-5, "image_encoder.": 1e-4}, 1e-4)
    by_lr = {g["lr"]: [n for n, _ in g["params"]] for g in groups}
    assert by_lr[1e-5] == ["text_encoder.tok.w"]
    assert set(by_lr[1e-4]) == {"image_encoder.proj.w", "fusion.head.w"}
