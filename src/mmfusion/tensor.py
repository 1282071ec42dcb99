"""Dense tensors with reverse-mode automatic differentiation.

The graph is kept apart from the data. A tracked op result is a ``Tensor``
that owns its array plus a small graph vertex (``_Vertex``) that holds only
the vertices of its parents and a closure mapping the upstream gradient to
parent gradients. A leaf (a parameter or input created with
``requires_grad=True``) is its own vertex, so its gradient lands on the
tensor; every constant operand is one shared placeholder vertex. Closures
capture only the arrays and the shape, dtype or flag values their backward
reads, never an operand ``Tensor``, so an op result that no backward reads
is freed as soon as the forward code drops it instead of living as long as
the graph.

``backward`` walks the vertices once in reverse topological order and
accumulates gradients on the graph's leaves only; interior results never
hold a ``.grad``. It consumes the graph as it walks: once a vertex's closure
has run, the closure is swapped for one that raises ``GraphError``, so the
arrays it saved are freed during the walk rather than when the caller drops
the loss, and a second ``backward`` through the same graph fails instead of
giving wrong gradients. ``Tensor._parents`` and ``Tensor._backward`` read
through to the vertex. Inside ``with no_grad():`` operations record no
vertex, so inference builds no graph at all.

Conventions kept deliberately narrow so the gradient code stays auditable:

* dtypes are float32 or float64, never mixed inside one operation;
* the only broadcasting allowed is bias-style: ``add(a, b)`` accepts a ``b``
  whose shape equals a trailing slice of ``a.shape``;
* gradients accumulate on leaves across ``backward`` calls over fresh
  graphs -- callers zero them.

Every backward closure lives in this module: the model's hand-written
``masked_mean`` (a [B, L, d] mean over the real positions) and
``elastic_net_channel`` (the fusion channel's elastic-net proximal map) are
built here, and ``softmax`` and ``attention`` share ``_softmax_backward``.

``linear``, ``ffn`` and ``attention`` are fused composites with hand-written
backward passes; each computes exactly the arithmetic of the primitive ops
it stands for (reshape/matmul/add; two such maps with a relu between; and
three such projections feeding head split/bmm/mask/softmax/bmm/head merge,
optionally followed by an output projection), so results are bit-identical
to the unfused graph.

A node keeps only what its backward cannot rebuild cheaply and bit for bit:
* a ``layer_norm`` result carries its node's (xhat, gain, bias) in
  ``Tensor._affine``; ``linear``, ``ffn`` and ``attention`` keep that triple
  instead of the result's data, which the layer_norm node's xhat doubled,
  and rebuild the data in backward with the forward's own arithmetic;
* ``ffn`` keeps its input and its four parameters, and rebuilds the
  [..., width] hidden layer in backward;
* ``attention`` takes the unprojected inputs and the q/k/v (and, for
  self-attention, output) projection parameters and keeps only those, which
  outlive the node anyway, plus each softmax row's max and sum. Its backward
  recomputes q/k/v and their head splits, each tile's probabilities and,
  given an output projection, the merged heads it maps. The batch is worked
  in tiles of at most ``ATTENTION_TILE_BYTES`` (512 KiB) of [h, Lq, Lk]
  probabilities, and a call of one tile recomputes like one of several.

Sums along short axes are BLAS products with ones, as Caffe takes its bias
gradients with a ones "bias multiplier": numpy reduces a short axis several
times more slowly. ``_row_sum`` gives layer_norm's row sums, forward and
back, softmax's row totals and the ``(g * y)`` dots of its backward and
attention's as ``x @ ones``, one BLAS call per trailing [L, d] slice, so a
row's sum does not depend on the other samples of the batch or on the
attention tiling. ``_lead_sum`` gives every bias and gain gradient as a gemm
with two rows of ones, which OpenBLAS never splits along the summed axis, so
no sum depends on the BLAS thread count. The summation order is BLAS's, not
numpy's pairwise one; fused nodes and their primitive graphs sum alike, so
they stay bit-identical to each other. The softmax row max has no product
form and stays a numpy reduction.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

DTYPES = ("float32", "float64")
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# False inside ``no_grad``: results are then constants with no graph edges.
_grad_enabled = True


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DtypeError(TypeError):
    """Operand dtypes are mixed or unsupported."""


class GraphError(RuntimeError):
    """The differentiation graph was used outside its contract."""


class NonFiniteError(ValueError):
    """An operation received NaN or infinite input."""


def _as_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """N-dimensional float array, optionally tracked by the autodiff graph.

    ``requires_grad=False`` tensors are constants: backward never writes to
    them and graph construction prunes paths that only lead to constants.
    """

    __slots__ = ("data", "requires_grad", "grad", "_vertex", "_affine")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._vertex = None
        # (xhat, gain, bias) of a tracked layer_norm result, whose data
        # ``_ln_affine`` rebuilds bit for bit; None for every other tensor
        self._affine = None

    @property
    def _parents(self):
        """Parent vertices of a tracked op result; () for leaves and constants."""
        return () if self._vertex is None else self._vertex._parents

    @property
    def _backward(self):
        """Backward closure of a tracked op result; None for leaves and constants."""
        return None if self._vertex is None else self._vertex._backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"


@contextlib.contextmanager
def no_grad():
    """Context in which operations build no graph: every result is a
    constant, so nothing is kept alive for a backward pass. Nests, and
    restores the previous mode on exit, also when the body raises."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class _Vertex:
    """Graph record of one tracked op result: parent vertices and the
    backward closure, no data. Interior vertices never hold a gradient."""

    __slots__ = ("_parents", "_backward", "requires_grad")
    grad = None

    def __init__(self, parents, backward_fn, requires_grad=True):
        self._parents = parents
        self._backward = backward_fn
        self.requires_grad = requires_grad


# the one vertex standing for every constant operand; backward never enters it
_CONSTANT = _Vertex((), None, requires_grad=False)


def _vertex_of(t):
    if not t.requires_grad:
        return _CONSTANT
    return t if t._vertex is None else t._vertex


def _result(data, parents, backward_fn):
    """Wrap an op's output; ``data`` that is already a float32/float64 array
    is taken as is, anything else goes through the usual conversion."""
    out = Tensor.__new__(Tensor)
    if not isinstance(data, np.ndarray) or data.dtype not in _FLOAT_DTYPES:
        data = _as_array(data)
    out.data = data
    out.grad = None
    out._affine = None
    tracked = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = tracked
    out._vertex = (_Vertex(tuple(_vertex_of(p) for p in parents), backward_fn)
                   if tracked else None)
    return out


def _check_same_dtype(op, *tensors):
    first = tensors[0].data.dtype
    for t in tensors:
        if t.data.dtype != first:
            dtypes = {t.data.dtype for t in tensors}
            raise DtypeError(f"{op}: mixed dtypes {sorted(str(d) for d in dtypes)}")


# ---------------------------------------------------------------------------
# sums as BLAS products
# ---------------------------------------------------------------------------

@functools.cache
def _ones_column(d, dtype):
    """A read-only [d, 1] column of ones, one per width and dtype."""
    ones = np.ones((d, 1), dtype)
    ones.flags.writeable = False
    return ones


def _row_sum(x, axis=-1):
    """``x.sum(axis=axis, keepdims=True)``. Over the last of 3 or more axes
    it is ``x @ ones``: numpy makes one BLAS call per trailing [L, d] slice,
    so a row's sum does not depend on the other samples of a batch or on how
    attention tiles it. Any other axis, and a 1-D or 2-D operand, keep
    numpy's sum; one product over a 2-D operand's rows would make a row's
    sum depend on its place."""
    if x.ndim < 3 or axis not in (-1, x.ndim - 1):
        return x.sum(axis=axis, keepdims=True)
    return x @ _ones_column(x.shape[-1], x.dtype)


def _lead_sum(g, tail):
    """``g`` summed over every axis before its last ``tail`` axes, as one
    product with two rows of ones: numpy then calls gemm, which OpenBLAS never
    splits along the summed axis, so the sum does not depend on the BLAS
    thread count (a single ones row would be a gemv, which does split)."""
    kept = g.shape[g.ndim - tail:]
    n = math.prod(g.shape[:g.ndim - tail])
    return (np.ones((2, n), g.dtype) @ g.reshape(n, math.prod(kept)))[0].reshape(kept)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. ``b`` may be bias-shaped: a trailing slice of ``a.shape``."""
    _check_same_dtype("add", a, b)
    if a.shape != b.shape:
        nd = b.data.ndim
        if nd == 0 or a.data.ndim < nd or a.shape[a.data.ndim - nd:] != b.shape:
            raise ShapeError(f"add: shape {a.shape} incompatible with {b.shape}")
    nb = b.data.ndim

    def backward_fn(g):
        return g, (_lead_sum(g, nb) if g.ndim > nb else g)

    return _result(a.data + b.data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equal-shaped tensors."""
    _check_same_dtype("mul", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape {a.shape} != {b.shape}")
    ad, bd = a.data, b.data

    def backward_fn(g):
        return g * bd, g * ad

    return _result(ad * bd, (a, b), backward_fn)


def scale(x: Tensor, c) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _result(x.data * c, (x,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product [m,k]x[k,n] -> [m,n]."""
    _check_same_dtype("matmul", a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def backward_fn(g):
        return g @ bd.T, ad.T @ g

    return _result(ad @ bd, (a, b), backward_fn)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [B,m,k]x[B,k,n] -> [B,m,n], no broadcasting."""
    _check_same_dtype("bmm", a, b)
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError(f"bmm: expects 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def backward_fn(g):
        return g @ bd.transpose(0, 2, 1), ad.transpose(0, 2, 1) @ g

    return _result(ad @ bd, (a, b), backward_fn)


def relu(x: Tensor) -> Tensor:
    """max(x, 0). Backward reads its mask off the output, which the op that
    consumes it (a ``linear`` in this model) holds anyway; ``out > 0`` is
    ``x > 0`` for every x, NaN and -0.0 included."""
    out = np.maximum(x.data, 0)

    def backward_fn(g):
        return (g * (out > 0),)

    return _result(out, (x,), backward_fn)


def log(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0):
        raise ValueError("log: input must be strictly positive; clamp first")

    def backward_fn(g):
        return (g / xd,)

    return _result(np.log(xd), (x,), backward_fn)


def clip_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise; gradient is blocked where the floor binds."""
    mask = x.data > floor

    def backward_fn(g):
        return (g * mask,)

    return _result(np.maximum(x.data, floor), (x,), backward_fn)


def elastic_net_channel(x: Tensor, alpha: float, beta: float) -> Tensor:
    """Closed-form minimizer of ||x' - x||^2 + alpha*||x'||_1 + beta*||x'||_2^2,
    applied elementwise: soft-threshold at alpha/2, then shrink by 1/(1+beta).

    Differentiable almost everywhere; the subgradient at the threshold kink
    is taken as zero.
    """
    if alpha < 0 or beta < 0:
        raise ValueError(f"elastic_net_channel: coefficients must be >= 0, "
                         f"got alpha={alpha}, beta={beta}")
    thresh = alpha / 2.0
    active = np.abs(x.data) > thresh
    out = np.sign(x.data) * np.maximum(np.abs(x.data) - thresh, 0.0) / (1.0 + beta)

    def backward_fn(g):
        return (g * active / (1.0 + beta),)

    return _result(out.astype(x.data.dtype), (x,), backward_fn)


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------

def _softmax_forward(x, axis, where, out=None):
    """Max-stabilized softmax of array ``x`` along a non-negative ``axis``,
    built in ``out`` (``x`` itself for a caller that owns it) or a new
    buffer; ``where`` names the input in the non-finite error. Returns the
    probabilities with the row max and row sum they were built from, which
    ``_softmax_recompute`` turns back into the same probabilities.

    A NaN or +inf makes its row's max non-finite and a -inf makes the global
    min non-finite, so the two reductions stand in for a full finiteness
    mask.
    """
    top = x.max(axis=axis, keepdims=True)
    if not (np.isfinite(top).all() and np.isfinite(x.min())):
        bad = int(np.sum(~np.isfinite(x)))
        raise NonFiniteError(f"{where} has {bad} non-finite entries")
    e = np.subtract(x, top, out=out)
    np.exp(e, out=e)
    total = _row_sum(e, axis)
    e /= total
    return e, top, total


def _softmax_recompute(x, top, total):
    """The probabilities ``_softmax_forward`` returned for ``x``, bit for
    bit, built over ``x`` in place."""
    np.subtract(x, top, out=x)
    np.exp(x, out=x)
    x /= total
    return x


def _softmax_backward(y, g, axis, out=None):
    """The input gradient (g - sum(g * y)) * y of a softmax with output ``y``
    along a non-negative ``axis`` and upstream gradient ``g``, built in
    ``out`` (``g`` itself for a caller that owns it) or a new buffer."""
    out = np.subtract(g, _row_sum(g * y, axis), out=out)
    out *= y
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along ``axis``; slices sum to one."""
    ndim = x.data.ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    axis = axis % ndim
    y = _softmax_forward(x.data, axis, "softmax: input")[0]

    def backward_fn(g):
        return (_softmax_backward(y, g, axis),)

    return _result(y, (x,), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    Zero-variance vectors are handled by ``eps`` (output is the bias).
    """
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    _check_same_dtype("layer_norm", x, gain, bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must be shape ({d},), got {gain.shape} and {bias.shape}")
    # np.mean and np.var as row sums over d, centring once
    xhat = x.data - _row_sum(x.data) / d
    var = _row_sum(np.square(xhat)) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    gd, bd = gain.data, bias.data

    def backward_fn(g):
        # inv * (gy - m1 - xhat * m2) with row means, built in place over
        # two temporaries
        gy = g * gd
        m1 = _row_sum(gy) / d
        t = gy * xhat
        m2 = _row_sum(t) / d
        gy -= m1
        gy -= np.multiply(xhat, m2, out=t)
        gy *= inv
        return gy, _lead_sum(np.multiply(g, xhat, out=t), 1), _lead_sum(g, 1)

    out = _result(_ln_affine(xhat, gd, bd), (x, gain, bias), backward_fn)
    if out._vertex is not None:
        out._affine = (xhat, gd, bd)
    return out


def _ln_affine(xhat, gain, bias):
    """``layer_norm``'s output from its normalized input: xhat * gain + bias."""
    z = xhat * gain
    z += bias
    return z


def _kept(x):
    """What a node keeps of operand ``x`` to read its data in backward: the
    (xhat, gain, bias) of a layer_norm result, which the layer_norm node
    keeps anyway, or else the data itself."""
    return x.data if x._affine is None else x._affine


def _rebuilt(kept):
    """The data that ``_kept`` stood for, bit for bit."""
    return kept if isinstance(kept, np.ndarray) else _ln_affine(*kept)


# ---------------------------------------------------------------------------
# fused composites
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: x @ W (+ b), with W stored [d_in, d_out].

    Leading axes of ``x`` are flattened into one [n, d_in] matrix product,
    the same arithmetic as reshape -> matmul -> reshape -> add, in one node.
    A layer_norm result ``x`` is rebuilt in backward, not kept.
    """
    parents = (x, weight) if bias is None else (x, weight, bias)
    _check_same_dtype("linear", *parents)
    if weight.data.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D [d_in, d_out], got {weight.shape}")
    d_in, d_out = weight.shape
    if x.data.ndim == 0 or x.shape[-1] != d_in:
        raise ShapeError(f"linear: input width of {x.shape} != d_in {d_in}")
    if bias is not None and bias.shape != (d_out,):
        raise ShapeError(f"linear: bias must be shape ({d_out},), got {bias.shape}")
    xk, wd = _kept(x), weight.data
    need_gx, has_bias = x.requires_grad, bias is not None
    out = _project(x.data, wd, bias.data if has_bias else None)

    def backward_fn(g):
        grads = _project_backward(_rebuilt(xk), wd, g, need_gx)
        if not has_bias:
            return grads
        return grads + (_lead_sum(g, 1),)

    return _result(out, parents, backward_fn)


def _project(x, w, b):
    """``linear``'s arithmetic on arrays: leading axes of ``x`` flattened
    into one [n, d_in] @ [d_in, d_out] product, reshaped back, then ``+= b``."""
    out = (x.reshape(-1, w.shape[0]) @ w).reshape(x.shape[:-1] + (w.shape[1],))
    if b is not None:
        out += b
    return out


def _project_backward(x, w, g, need_gx):
    """(gx or None, gW) of ``_project`` for the upstream gradient ``g``.

    ``g`` reaches BLAS contiguous. The primitive attention graph's merged
    head gradient of a one-sample batch reshapes to a transposed view, and
    BLAS sums a transposed operand's products in another order than the
    contiguous one ``attention`` passes for the same values."""
    g_rows = np.ascontiguousarray(g.reshape(-1, w.shape[1]))
    gx = (g_rows @ w.T).reshape(x.shape) if need_gx else None
    return gx, x.reshape(-1, w.shape[0]).T @ g_rows


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Feed-forward block relu(x @ w1 + b1) @ w2 + b2 over the last axis, in
    one node: w1 [d_in, width], b1 [width], w2 [width, d_out], b2 [d_out].

    Each map has ``linear``'s arithmetic. The node keeps x (the (xhat, gain,
    bias) of a layer_norm result) and the weights, which outlive it anyway,
    and not the [..., width] hidden layer: backward rebuilds it with the
    forward's arithmetic. Results are bit-identical to ``linear``, ``relu``
    and ``linear`` nodes in a row.
    """
    parents = (x, w1, b1, w2, b2)
    _check_same_dtype("ffn", *parents)
    if w1.data.ndim != 2 or w2.data.ndim != 2 or w2.shape[0] != w1.shape[1]:
        raise ShapeError(
            f"ffn: weights must be [d_in, width] and [width, d_out], got {w1.shape} "
            f"and {w2.shape}")
    if x.data.ndim == 0 or x.shape[-1] != w1.shape[0]:
        raise ShapeError(f"ffn: input width of {x.shape} != d_in {w1.shape[0]}")
    if b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
        raise ShapeError(
            f"ffn: biases must be shape ({w1.shape[1]},) and ({w2.shape[1]},), got "
            f"{b1.shape} and {b2.shape}")
    xk, w1d, b1d, w2d, b2d = _kept(x), w1.data, b1.data, w2.data, b2.data
    need_gx = x.requires_grad
    out = _project(np.maximum(_project(x.data, w1d, b1d), 0), w2d, b2d)

    def backward_fn(g):
        xd = _rebuilt(xk)
        hid = np.maximum(_project(xd, w1d, b1d), 0)
        gh, gw2 = _project_backward(hid, w2d, g, True)
        gh *= hid > 0       # relu's mask, on a fresh array
        del hid
        gx, gw1 = _project_backward(xd, w1d, gh, need_gx)
        return gx, gw1, _lead_sum(gh, 1), gw2, _lead_sum(g, 1)

    return _result(out, parents, backward_fn)


# Bytes of [h, Lq, Lk] softmax probabilities one attention tile may hold.
ATTENTION_TILE_BYTES = 512 * 1024


def _split_heads(a, h):       # [n, L, d] -> [n*h, L, d/h]
    n, L, d = a.shape
    return a.reshape(n, L, h, d // h).transpose(0, 2, 1, 3).reshape(n * h, L, d // h)


def _merge_heads(dst, a, h):  # [n*h, L, dh] written into dst [n, L, h*dh]
    n, L, d = dst.shape
    dst.reshape(n, L, h, d // h)[...] = a.reshape(n, h, L, d // h).transpose(0, 2, 1, 3)


def _bias_grad(g, h):
    """A q/v bias's gradient: the [n, L, d] ``g`` summed over n and L in the
    primitive graph's order. With heads one wide, its head merge hands the
    bias a strided view, which can reach BLAS transposed and sum in another
    order."""
    if g.shape[2] == h:
        g = np.ascontiguousarray(g.transpose(0, 2, 1)).transpose(0, 2, 1)
    return _lead_sum(g, 1)


def attention(xq: Tensor, xkv: Tensor, n_heads: int, wq: Tensor, wk: Tensor, wv: Tensor,
              bq: Tensor | None = None, bv: Tensor | None = None, key_mask=None,
              wo: Tensor | None = None, bo: Tensor | None = None) -> Tensor:
    """Multi-head scaled dot-product attention with its q/k/v projections
    and an optional output projection, in one node.

    xq: [B, Lq, d_q], xkv: [B, Lk, d_kv]; wq: [d_q, d], wk/wv: [d_kv, d],
    optional biases bq/bv: [d] (a key bias would shift each query's logits
    equally and cancel in softmax). q = xq @ wq + bq, k = xkv @ wk and
    v = xkv @ wv + bv are computed with ``linear``'s arithmetic, heads are
    split to [B*h, L, d/h], logits are scaled by 1/sqrt(d/h), keys where the
    boolean [B, Lk] ``key_mask`` is False get -1e9 added, rows are softmaxed
    and the weighted values are merged back to [B, Lq, d]. That is returned
    as is, or, given wo: [d, d_o] and optional bo: [d_o], mapped by
    ``linear``'s arithmetic to [B, Lq, d_o].

    The batch is worked in tiles of as many samples as keep one tile's
    probabilities within ``ATTENTION_TILE_BYTES`` (at least one sample), and
    the non-finite check raises at the first bad tile. The node keeps only
    arrays that outlive it anyway: the xq/xkv inputs (the (xhat, gain, bias)
    of a layer_norm result) and the weights, plus each tile's row max and
    row sum of the softmax, for a call of one tile as for several. Backward
    recomputes q/k/v and their head splits from those, then each tile's
    probabilities from its logits with the same subtract/exp/divide and,
    given wo, the merged heads that wo's gradient reads. So the graph holds
    neither q/k/v, nor the [B*h, Lq, Lk] probabilities, nor the output that
    wo maps (the recompute-for-memory trade of gradient checkpointing and
    FlashAttention). Each tile is a batch slice of the same arithmetic, so
    results do not depend on the tiling, and are bit-identical to three
    ``linear`` nodes feeding the primitive attention graph, followed by a
    ``linear`` node for wo.
    """
    parents = tuple(t for t in (xq, wq, bq, xkv, wk, xkv, wv, bv, wo, bo) if t is not None)
    _check_same_dtype("attention", *parents)
    if xq.data.ndim != 3 or xkv.data.ndim != 3 or xq.shape[0] != xkv.shape[0]:
        raise ShapeError(
            f"attention: expects xq [B,Lq,d_q] and xkv [B,Lk,d_kv], got {xq.shape} "
            f"and {xkv.shape}")
    B, Lq = xq.shape[:2]
    Lk = xkv.shape[1]
    if any(w.data.ndim != 2 for w in (wq, wk, wv)):
        raise ShapeError(
            f"attention: weights must be 2-D, got {wq.shape}, {wk.shape}, {wv.shape}")
    d = wq.shape[1]
    if (wq.shape[0] != xq.shape[2] or wk.shape != (xkv.shape[2], d)
            or wv.shape != wk.shape):
        raise ShapeError(
            f"attention: weights {wq.shape}, {wk.shape}, {wv.shape} do not map "
            f"xq {xq.shape} and xkv {xkv.shape} to one width")
    if any(b is not None and b.shape != (d,) for b in (bq, bv)):
        raise ShapeError(f"attention: biases must be shape ({d},)")
    if wo is None and bo is not None:
        raise ShapeError("attention: bo needs wo")
    if wo is not None and (wo.data.ndim != 2 or wo.shape[0] != d):
        raise ShapeError(f"attention: wo must be [{d}, d_o], got {wo.shape}")
    if bo is not None and bo.shape != (wo.shape[1],):
        raise ShapeError(f"attention: bo must be shape ({wo.shape[1]},), got {bo.shape}")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention: width {d} not divisible by {n_heads} heads")
    h, dtype = n_heads, xq.data.dtype
    # a Python float: a numpy float64 scalar would promote float32 logits
    scale = float(1.0 / np.sqrt(d // h))
    mask_bias = None
    if key_mask is not None:
        key_mask = np.asarray(key_mask)
        if key_mask.shape != (B, Lk):
            raise ShapeError(f"attention: key_mask shape {key_mask.shape} != ({B}, {Lk})")
        mask_bias = np.where(key_mask, 0.0, -1e9).astype(dtype)
    step = max(1, ATTENTION_TILE_BYTES // max(1, h * Lq * Lk * dtype.itemsize))
    kq, kkv = _kept(xq), _kept(xkv)
    wqd, wkd, wvd = wq.data, wk.data, wv.data
    bqd = None if bq is None else bq.data
    bvd = None if bv is None else bv.data
    wod = None if wo is None else wo.data
    bod = None if bo is None else bo.data
    need_gxq, need_gxkv = xq.requires_grad, xkv.requires_grad

    def heads(xqd, xkvd):   # q/k/v head splits, [B*h, L, d/h] each
        return (_split_heads(_project(xqd, wqd, bqd), h),
                _split_heads(_project(xkvd, wkd, None), h),
                _split_heads(_project(xkvd, wvd, bvd), h))

    def logits(qh, kh, lo, hi):     # scaled, masked logits of samples [lo, hi)
        rows = slice(lo * h, hi * h)
        scores = qh[rows] @ kh[rows].transpose(0, 2, 1)     # a fresh contiguous array
        scores *= scale
        if mask_bias is not None:
            per_head = scores.reshape(hi - lo, h, Lq, Lk)     # a view of scores
            per_head += mask_bias[lo:hi, None, None, :]
        return scores

    qh, kh, vh = heads(xq.data, xkv.data)
    out = np.empty((B, Lq, d), dtype)
    kept = []   # per tile: its bounds, row max and row sum
    for lo in range(0, B, step):
        hi = min(lo + step, B)
        scores = logits(qh, kh, lo, hi)
        y, top, total = _softmax_forward(scores, 2, "attention: softmax input", out=scores)
        _merge_heads(out[lo:hi], y @ vh[lo * h:hi * h], h)
        kept.append((lo, hi, top, total))
    del qh, kh, vh
    if wod is not None:
        out = _project(out, wod, bod)

    def inputs():   # xq and xkv data; a self-attention input is rebuilt once
        xqd = _rebuilt(kq)
        return xqd, xqd if kkv is kq else _rebuilt(kkv)

    def backward_fn(g):
        # a rebuilt layer_norm input is dropped during the tile loop and
        # rebuilt again for the projection gradients
        qh, kh, vh = heads(*inputs())
        g_out = g
        if wod is not None:
            g = (g.reshape(-1, wod.shape[1]) @ wod.T).reshape(B, Lq, d)
            merged = np.empty((B, Lq, d), dtype)
        gq, gk, gv = (np.empty(s, dtype) for s in ((B, Lq, d), (B, Lk, d), (B, Lk, d)))
        for lo, hi, top, total in kept:
            y = _softmax_recompute(logits(qh, kh, lo, hi), top, total)
            rows = slice(lo * h, hi * h)
            if wod is not None:
                _merge_heads(merged[lo:hi], y @ vh[rows], h)
            gt = _split_heads(g[lo:hi], h)
            if hi - lo < B:
                # one sample splits to a strided view where the whole batch
                # splits to a copy, and a one-wide head's products then sum
                # in another order
                gt = np.ascontiguousarray(gt)
            gs = gt @ vh[rows].transpose(0, 2, 1)
            _softmax_backward(y, gs, 2, out=gs)
            gs *= scale
            _merge_heads(gv[lo:hi], y.transpose(0, 2, 1) @ gt, h)
            _merge_heads(gk[lo:hi], (qh[rows].transpose(0, 2, 1) @ gs).transpose(0, 2, 1), h)
            _merge_heads(gq[lo:hi], gs @ kh[rows], h)
        del qh, kh, vh, g
        xqd, xkvd = inputs()
        grads = _project_backward(xqd, wqd, gq, need_gxq)
        if bqd is not None:
            grads += (_bias_grad(gq, h),)
        del gq
        grads += _project_backward(xkvd, wkd, gk, need_gxkv)
        del gk
        grads += _project_backward(xkvd, wvd, gv, need_gxkv)
        if bvd is not None:
            grads += (_bias_grad(gv, h),)
        del gv
        if wod is not None:
            grads += (_project_backward(merged, wod, g_out, False)[1],)
            if bod is not None:
                grads += (_lead_sum(g_out, 1),)
        return grads

    return _result(out, parents, backward_fn)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv1d(x: Tensor, weight: Tensor, bias: Tensor, window: int) -> Tensor:
    """1-D convolution over positions with ReLU fused in.

    ``x`` is [B, n, d_in]; ``weight`` is [window*d_in, d_out]; position t sees
    the flattened slice x[:, t:t+window]. Output length n-window+1. The
    window products are ``_project``'s arithmetic, forward and back.
    """
    if window not in (1, 2, 3):
        raise ValueError(f"conv1d: window must be 1, 2 or 3, got {window}")
    _check_same_dtype("conv1d", x, weight, bias)
    if x.data.ndim != 3:
        raise ShapeError(f"conv1d: expects [B, n, d_in], got {x.shape}")
    shape, dtype = x.shape, x.data.dtype
    n, d_in = shape[1:]
    if n < window:
        raise ShapeError(
            f"conv1d: sequence length {n} shorter than window {window}; pad the input first")
    if weight.shape[0] != window * d_in:
        raise ShapeError(
            f"conv1d: weight rows {weight.shape[0]} != window*d_in = {window * d_in}")
    steps = n - window + 1
    # windows[b, t] = concat(x[b, t], ..., x[b, t+window-1])
    windows = np.concatenate([x.data[:, j:j + steps, :] for j in range(window)], axis=2)
    wd = weight.data
    out = _project(windows, wd, bias.data)
    mask = out > 0
    np.maximum(out, 0, out=out)

    def backward_fn(g):
        gp = g * mask
        gwin, gw = _project_backward(windows, wd, gp, True)
        gx = np.zeros(shape, dtype)
        for j in range(window):
            gx[:, j:j + steps, :] += gwin[:, :, j * d_in:(j + 1) * d_in]
        return gx, gw, _lead_sum(gp, 1)

    return _result(out, (x, weight, bias), backward_fn)


# ---------------------------------------------------------------------------
# reductions and reshaping
# ---------------------------------------------------------------------------

def _check_axis(op, x, axis):
    axis = axis if axis >= 0 else x.data.ndim + axis
    if not 0 <= axis < x.data.ndim:
        raise ShapeError(f"{op}: axis {axis} invalid for shape {x.shape}")
    if x.shape[axis] == 0:
        raise ShapeError(f"{op}: axis {axis} of shape {x.shape} is empty")
    return axis


def mean_pool(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis("mean_pool", x, axis)
    n = x.shape[axis]

    def backward_fn(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _result(x.data.mean(axis=axis), (x,), backward_fn)


def masked_mean(context: Tensor, pad_mask: np.ndarray) -> Tensor:
    """Mean of [B, L, d] over positions where pad_mask is True, as one graph
    node."""
    if context.data.ndim != 3:
        raise ShapeError(f"masked_mean: expects [B, L, d], got {context.shape}")
    counts = pad_mask.sum(axis=1)
    if np.any(counts == 0):
        raise ShapeError("masked_mean: a row has no real tokens")
    dtype = context.data.dtype
    keep = pad_mask[:, :, None].astype(dtype)                   # [B, L, 1]
    inv = (1.0 / counts)[:, None].astype(dtype)                 # [B, 1]
    out = (context.data * keep).sum(axis=1) * inv               # [B, d]

    def backward_fn(g):
        return ((g * inv)[:, None, :] * keep,)

    return _result(out, (context,), backward_fn)


def max_pool(x: Tensor, axis: int) -> Tensor:
    """Max along ``axis``; gradient routes to the first argmax on ties."""
    axis = _check_axis("max_pool", x, axis)
    idx = np.argmax(x.data, axis=axis)
    shape, dtype = x.shape, x.data.dtype

    def backward_fn(g):
        gx = np.zeros(shape, dtype)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return (gx,)

    return _result(np.max(x.data, axis=axis), (x,), backward_fn)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over everything (scalar) when axis is None."""
    if axis is None:
        shape, dtype = x.shape, x.data.dtype

        def backward_all(g):
            return (np.broadcast_to(g, shape).astype(dtype),)

        return _result(x.data.sum(), (x,), backward_all)
    axis = _check_axis("tsum", x, axis)
    n = x.shape[axis]

    def backward_fn(g):
        return (np.repeat(np.expand_dims(g, axis), n, axis=axis),)

    return _result(x.data.sum(axis=axis), (x,), backward_fn)


def concat(xs, axis: int = 0) -> Tensor:
    xs = list(xs)
    if not xs:
        raise ShapeError("concat: empty input list")
    _check_same_dtype("concat", *xs)
    axis = axis if axis >= 0 else xs[0].data.ndim + axis
    sizes = [t.shape[axis] for t in xs]
    offsets = np.cumsum([0] + sizes)
    parts = len(xs)

    def backward_fn(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(parts):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return _result(np.concatenate([t.data for t in xs], axis=axis), tuple(xs), backward_fn)


def reshape(x: Tensor, shape) -> Tensor:
    shape, x_shape = tuple(shape), x.shape

    def backward_fn(g):
        return (g.reshape(x_shape),)

    return _result(x.data.reshape(shape), (x,), backward_fn)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        return (g.transpose(inverse),)

    return _result(x.data.transpose(axes), (x,), backward_fn)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice [start, start+length) along one axis, as a C-contiguous array."""
    axis = _check_axis("narrow", x, axis)
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow: slice [{start}, {start + length}) out of range for axis "
            f"{axis} of shape {x.shape}")
    slicer = [slice(None)] * x.data.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)
    shape, dtype = x.shape, x.data.dtype

    def backward_fn(g):
        gx = np.zeros(shape, dtype)
        gx[slicer] = g
        return (gx,)

    return _result(np.ascontiguousarray(x.data[slicer]), (x,), backward_fn)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: table [V,E], integer ids of any shape -> ids.shape + (E,)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise DtypeError("embedding: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.shape[0]}) in lookup")
    shape, dtype = table.shape, table.data.dtype

    def backward_fn(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, shape[1]))
        return (gt,)

    return _result(table.data[ids], (table,), backward_fn)


def pick(x: Tensor, idx) -> Tensor:
    """Select one column per row of a 2-D tensor: out[i] = x[i, idx[i]]."""
    idx = np.asarray(idx)
    if x.data.ndim != 2:
        raise ShapeError(f"pick: expects 2-D input, got {x.shape}")
    if idx.shape != (x.shape[0],):
        raise ShapeError(f"pick: index shape {idx.shape} != ({x.shape[0]},)")
    rows = np.arange(x.shape[0])
    shape, dtype = x.shape, x.data.dtype

    def backward_fn(g):
        gx = np.zeros(shape, dtype)
        gx[rows, idx] = g
        return (gx,)

    return _result(x.data[rows, idx], (x,), backward_fn)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _released(g):
    raise GraphError("backward: this graph was already differentiated")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every reachable leaf: a
    tensor with ``requires_grad=True`` that no op produced (parameters and
    inputs).

    The walk covers graph vertices, which hold no data: interior results
    pass their gradient on to their parents and keep none, their ``.grad``
    stays None. The graph is consumed: each vertex's closure is dropped as
    soon as it has run, which frees the arrays it saved, and a second call
    through the same graph raises ``GraphError``. Repeated calls over fresh
    graphs add up on the leaves; callers zero gradients between steps.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    root = _vertex_of(loss)

    # iterative DFS topological sort (graphs can be deep)
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    flowing = {id(root): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward(g)
        node._backward = _released
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            held = flowing.get(id(parent))
            flowing[id(parent)] = pg if held is None else held + pg


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

class Module:
    """Minimal parameter registry: tensors and submodules assigned as
    attributes are tracked in insertion order, which fixes checkpoint layout.
    A non-empty list of modules assigned as ``name`` registers its items as
    ``name.0``, ``name.1``, ...; items appended later are not registered."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif isinstance(value, list) and value and all(isinstance(m, Module) for m in value):
            for i, m in enumerate(value):
                self._modules[f"{name}.{i}"] = m
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix + name + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def astype(self, dtype):
        """Cast all parameters in place (float32 <-> float64). Modules are
        built float32; this is the one way to get a float64 model."""
        if np.dtype(dtype).name not in DTYPES:
            raise DtypeError(f"astype: unsupported dtype {dtype}")
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self
