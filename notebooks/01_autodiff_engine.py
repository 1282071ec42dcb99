"""
The tensor engine: forward ops, reverse-mode gradients, AdamW
=============================================================

Everything downstream (encoders, fusion, classifiers) is built from the
handful of operations shown here. Gradients come from walking the implicit
graph backwards; central finite differences act as the referee.
"""

import numpy as np

from mmfusion import tensor as T
from mmfusion.gradcheck import finite_diff_check
from mmfusion.optim import AdamW
from mmfusion.tensor import Tensor, backward

# 1. Tensors wrap numpy buffers; requires_grad marks trainable leaves.
rng = np.random.default_rng(0)
w = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
x = Tensor(rng.standard_normal((4, 2)), dtype=np.float64)
print("w:", w, "\nx:", x)

# 2. Ops build a graph as they compute. backward() fills .grad on leaves.
y = T.softmax(T.matmul(w, x), axis=1)
loss = T.tsum(y)
backward(loss)
print("loss:", loss.item())
print("grad magnitude:", np.abs(w.grad).max(), "(softmax rows sum to 1, so ~0)")

# 3. The same machinery verified against finite differences.
w.zero_grad()
probe = Tensor(rng.standard_normal((3, 2)))
err = finite_diff_check(lambda v: T.tsum(T.mul(T.matmul(v, x), probe)), w)
print("matmul max relative gradient error vs central differences:", err)

# 4. Gradients accumulate until zeroed: useful when several losses share
#    parameters (the three-branch training loss does exactly this). Each
#    backward() consumes its graph and frees what it saved, so the two calls
#    below walk two fresh graphs; walking the loss of section 2 again raises.
a = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
backward(T.tsum(a))
backward(T.tsum(a))
print("accumulated grad after two backward passes:", a.grad)
try:
    backward(loss)
except T.GraphError as exc:
    print("second backward through one graph:", exc)

# 5. AdamW with decoupled decay: a zero-gradient step still shrinks weights.
p = Tensor(np.array([2.0, -3.0]), requires_grad=True, dtype=np.float64)
opt = AdamW([{"params": [("p", p)], "lr": 0.1}], weight_decay=0.01)
p.grad = np.zeros(2)
opt.step()
print("after decay-only step:", p.data, "(pure contraction toward zero)")

# 6. Minimizing f(w) = w^2 from w = 1.
p = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
opt = AdamW([{"params": [("p", p)], "lr": 0.1}], weight_decay=0.0)
for step in range(30):
    p.zero_grad()
    backward(T.tsum(T.mul(p, p)))
    opt.step()
print("w after 30 AdamW steps on w^2:", p.data)
