"""Reverse-mode automatic differentiation over numpy arrays.

Two objects carry the expression graph:

    Tensor  the handle the forward code holds: its array, .data, and the
            node of the graph, or None when it requires no gradient
    Node    what the graph links: the gradient, the parent nodes, the
            backward closure, and the dtype and shape of the tensor's array

A node holds no array of its own, and a node keeps only what its backward
reads: each op's closure captures the arrays its gradients are formed from
and the parent nodes it pushes them into, never a handle. So an op output
that no backward reads is freed as soon as the forward code drops its
handle, as an addition's operands or a residual branch's output are.
backward() seeds the output gradient and walks the nodes once in reverse
topological order, consuming them: once a node has pushed its gradient back,
it drops that gradient, its parents and its closure, so each array a closure
kept is freed once nothing downstream needs it. Leaves keep their .grad; a
second backward() through a graph raises GradientError.

Kept deliberately small: broadcasting binary ops (subtraction is one, not an
add of a negation), matmul, shape ops and the few pointwise functions the
model needs. A chain of generic ops becomes one fused node only where the
chain would keep more arrays in the graph than the node does; x @ w + b, for
one, keeps x and w either way, so alone it stays two generic nodes, and
joins a fused node only where that node recomputes its output from x
rather than keep it. By the same rule the layer norm in front of each
attention and FFN is folded into that node: layer_norm followed by the node
keeps the norm's input and the node's, the normalised copy of it; the node
that takes the norm keeps only the former and the norm's (..., 1)
statistics, and recomputes the copy (the trade of Chen et al., 2016). Four
fused nodes stand in for chains of generic ones and keep less of them alive:

    mlp(x, w1, b1, w2, b2[, bounds, norm])
                          gelu(x @ w1 + b1) @ w2 + b2 with the exact GELU;
                          keeps x and the weights, not the hidden layer;
                          both directions work one video at a time, a batch
                          row of a (B, n, d) x or, given row bounds, a
                          video's rows of a packed (sum n_i, d) x, so no
                          hidden layer of the whole batch exists at any
                          time, and backward recomputes each video's hidden
                          layer and its normal CDF once, for both the GELU
                          output and its slope; the CDF is computed in the
                          hidden layer's dtype: by the C library's erf in
                          float64, by a rational erf in float32; given
                          norm = (g, b, eps), it reads the layer norm of x
    layer_norm(x, g, b)   keeps x, g, the row means and 1 / sqrt(var + eps),
                          (..., 1), and recomputes the normalised x in
                          backward; the model's one layer_norm is its final
                          norm
    attention(x, wq, .., bo, heads, scale, bounds, norm)
                          softmax(q @ k^T * scale) @ v with the heads merged,
                          @ wo + bo, q, k and v being x_n @ w + b, x_n the
                          layer norm of x with norm = (g, b, eps), on packed
                          (sum n_i, d) rows, video i's rows being
                          bounds[i]:bounds[i + 1]; a video's tokens attend
                          to its own tokens only, so no key mask exists;
                          keeps x, the norm's operands and statistics and
                          the weights, not x_n, q, k, v or the output before
                          wo; both directions work one video at a time, so
                          no x_n, q, k or v of the whole batch exists at any
                          time, and backward recomputes each video's x_n,
                          projections, scores and probabilities
    dropout(x, keep, rate) x * keep / (1 - rate); keeps the bool mask and
                          rebuilds the scaled mask in backward

A node that takes a norm normalises each video's rows as it reads them and
keeps their means and 1 / sqrt(var + eps); backward recomputes the rows from
x and those, and maps the gradient of all of them into x, g and b with
layer_norm's closed-form backward. Forward and backward share one
implementation with layer_norm (_norm_forward, _norm_backward), whose row
statistics come out the same on a video's rows as on the whole array.

Two generic ops move tokens between the padded and the packed layout: x[mask]
gathers the rows of a (B, n, d) x where a bool mask is true, and
unpack(rows, mask) scatters them back into zeros of shape (B, n, d).

One contract for them: each fused node computes its expression and its
gradients in closed form, in its operands' dtype. Each is checked by finite
differences and against a reference: the same chain of generic ops run in
float64, at a stated tolerance, or, for mlp and dropout, whose closed forms
are the chain's own arithmetic, that chain in the operands' dtype, exactly.
attention is checked both ways: at a tolerance against generic ops in
float64, and exactly against four generic x @ w + b maps around a node on
q, k and v with the same closed-form softmax backward, after layer_norm. mlp
with a norm is checked exactly against layer_norm followed by mlp without
one. On packed rows the chain runs on each video's rows alone, so each
weight and bias gradient of mlp and attention is formed per video and
summed over the videos in order: no product spans two videos, and no
product's shape depends on the BLAS thread count.

One dtype policy: an op's result takes its operands' dtype, and a Python or
NumPy scalar operand is weak, as NumPy's NEP 50 makes a Python scalar: it
takes the dtype of the array it meets. So float32 parameters and features
give float32 activations, scores and gradients, and float64 appears only
where the calling code asks for it with astype, as the loss does.

The model gives layer_norm, mlp and attention operands that all require a
gradient (training) or none (inference), save mlp's input x, which is a
constant for the unimodal MLPs. So their backward forms every operand's
gradient, x's only when x has a node, and accumulates it into each operand
that has a node.

Anything fancier belongs in the calling code.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class GradientError(RuntimeError):
    """Raised when a gradient is requested that the graph cannot provide."""


def _released(grad) -> None:
    """Stands in for the closure of a node an earlier backward() consumed."""
    raise GradientError("graph already released by an earlier backward()")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to shape, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _picks_once(idx) -> bool:
    """True for an index that picks each element at most once: ints, slices,
    Ellipsis and None only, or one bool mask."""
    if isinstance(idx, np.ndarray) and idx.dtype == bool:
        return True
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, (int, np.integer, slice, type(Ellipsis), type(None)))
               for i in parts)


class Node:
    """The graph's record of a tensor that requires a gradient.

    A leaf has no parents and no backward; an op's node has the nodes of its
    operands that require a gradient, and a backward that maps its gradient
    to theirs and accumulates it into them.
    """

    __slots__ = ("grad", "parents", "backward", "dtype", "shape")

    def __init__(self, dtype, shape, parents: tuple["Node", ...] = (),
                 backward=None):
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.backward = backward
        self.dtype = dtype
        self.shape = shape

    def _accum(self, grad: np.ndarray) -> None:
        grad = grad.astype(self.dtype, copy=False)
        self.grad = grad if self.grad is None else self.grad + grad


class Tensor:
    __slots__ = ("data", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.node = Node(self.data.dtype, self.data.shape) if requires_grad else None

    # construction helper for op results
    @classmethod
    def _result(cls, data, parents, backward) -> "Tensor":
        """The tensor of an op's result; it gets a node, linked to its
        parents' nodes, when some parent requires a gradient. backward must
        capture nodes and arrays, not the parent tensors."""
        out = cls(data)
        nodes = tuple(p.node for p in parents if p.node is not None)
        if nodes:
            out.node = Node(out.data.dtype, out.data.shape, nodes, backward)
        return out

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value) -> None:
        if self.node is None:
            raise GradientError("a tensor that requires no gradient has no .grad")
        self.node.grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(leaf) into every leaf's .grad, consuming the graph.

        Each non-leaf node releases its gradient, parents and closure once its
        closure has run, so the graph cannot be walked a second time: calling
        backward() again through any part of it raises GradientError.
        """
        if self.node is None:
            raise GradientError("backward() on a tensor with no recorded graph")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    f"backward() without a seed needs a scalar, got shape {self.shape}")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise GradientError(
                f"seed gradient shape {grad.shape} does not match {self.shape}")

        # iterative topological order; graphs can outgrow the recursion limit
        order, seen, stack = [], set(), [(self.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.node._accum(grad)
        while order:
            node = order.pop()
            if node.backward is not None:
                node.backward(node.grad)
                node.grad, node.parents, node.backward = None, (), _released

    # ---- binary ops ----

    def _operand(self, other) -> "Tensor":
        """other as this tensor's operand. A Python or NumPy scalar is weak,
        as NEP 50 makes a Python scalar in NumPy: it becomes a 0-d array of
        the dtype NumPy gives this array combined with that Python scalar, so
        a float constant never promotes a float32 tensor."""
        if isinstance(other, Tensor):
            return other
        if np.isscalar(other):
            value = other.item() if isinstance(other, np.generic) else other
            return Tensor(np.asarray(value, np.result_type(self.dtype, value)))
        return Tensor(other)

    def _binary(self, other: "Tensor", data, grad_self, grad_other) -> "Tensor":
        """Node for a binary op; grad_self/grad_other map the output gradient to
        that operand's. Each is kept, with the arrays it reads, only for an
        operand that requires a gradient."""
        a, b = self.node, other.node
        if a is None:
            grad_self = None
        if b is None:
            grad_other = None

        def back(g):
            if a is not None:
                a._accum(_unbroadcast(grad_self(g), a.shape))
            if b is not None:
                b._accum(_unbroadcast(grad_other(g), b.shape))
        return Tensor._result(data, (self, other), back)

    def __add__(self, other):
        other = self._operand(other)
        return self._binary(other, self.data + other.data, lambda g: g, lambda g: g)

    def __neg__(self):
        x = self.node

        def back(g):
            x._accum(-g)
        return Tensor._result(-self.data, (self,), back)

    def __sub__(self, other):
        other = self._operand(other)
        return self._binary(other, self.data - other.data, lambda g: g, np.negative)

    def __mul__(self, other):
        other = self._operand(other)
        a, b = self.data, other.data
        return self._binary(other, a * b, lambda g: g * b, lambda g: g * a)

    def __truediv__(self, other):
        other = self._operand(other)
        a, b = self.data, other.data
        return self._binary(other, a / b, lambda g: g / b,
                            lambda g: -g * a / (b ** 2))

    def __matmul__(self, other):
        other = self._operand(other)
        if self.ndim < 2 or other.ndim < 2:
            raise GradientError("matmul needs operands with at least 2 dims")
        a, b = self.data, other.data
        return self._binary(other, a @ b,
                            lambda g: g @ b.swapaxes(-1, -2),
                            lambda g: a.swapaxes(-1, -2) @ g)

    # ---- shape ops ----

    def swapaxes(self, a: int, b: int):
        x = self.node

        def back(g):
            x._accum(g.swapaxes(a, b))
        return Tensor._result(self.data.swapaxes(a, b), (self,), back)

    def reshape(self, *shape):
        x = self.node

        def back(g):
            x._accum(g.reshape(x.shape))
        return Tensor._result(self.data.reshape(shape), (self,), back)

    def __getitem__(self, idx):
        x = self.node

        def back(g):
            buf = np.zeros(x.shape, x.dtype)
            if _picks_once(idx):
                buf[idx] = g
            else:  # other advanced indices may repeat an element
                np.add.at(buf, idx, g)
            x._accum(buf)
        return Tensor._result(self.data[idx], (self,), back)

    # ---- reductions ----

    def sum(self, axis=None, keepdims: bool = False):
        x = self.node

        def back(g):
            if axis is None:
                x._accum(np.broadcast_to(g, x.shape).copy())
                return
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accum(np.broadcast_to(gg, x.shape).copy())
        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ---- pointwise ----

    def exp(self):
        x, out_data = self.node, np.exp(self.data)

        def back(g):
            x._accum(g * out_data)
        return Tensor._result(out_data, (self,), back)

    def log(self):
        x, data = self.node, self.data

        def back(g):
            x._accum(g / data)
        return Tensor._result(np.log(data), (self,), back)

    def sqrt(self):
        x, out_data = self.node, np.sqrt(self.data)

        def back(g):
            x._accum(g * 0.5 / out_data)
        return Tensor._result(out_data, (self,), back)

    def astype(self, dtype):
        x = self.node

        def back(g):
            x._accum(g)  # _accum casts back to the source dtype
        return Tensor._result(self.data.astype(dtype), (self,), back)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accum(node: Optional[Node], grad: np.ndarray) -> None:
    """Accumulate grad into an operand's node, if the operand has one."""
    if node is not None:
        node._accum(grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    nodes = [t.node for t in tensors]
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def back(g):
        for node, piece in zip(nodes, np.split(g, splits, axis=axis)):
            _accum(node, piece)
    return Tensor._result(np.concatenate([t.data for t in tensors], axis=axis),
                          tensors, back)


def unpack(rows: Tensor, mask: np.ndarray) -> Tensor:
    """The inverse of x[mask] for a bool mask over x's leading axes: zeros of
    shape mask.shape + rows.shape[1:] with rows placed where mask is true, in
    order. Its gradient is the output gradient's rows at mask."""
    rows = as_tensor(rows)
    node = rows.node
    out = np.zeros(mask.shape + rows.shape[1:], rows.dtype)
    out[mask] = rows.data

    def back(g):
        node._accum(g[mask])
    return Tensor._result(out, (rows,), back)


def _videos(x: np.ndarray, bounds) -> list:
    """The index of each video's rows in x: video i's rows are
    x[bounds[i]:bounds[i + 1]] of a packed (sum n_i, d) x, or x[i] of a
    (B, n, d) x when bounds is None."""
    if bounds is None:
        return list(range(x.shape[0]))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _bias_grad(g: np.ndarray, videos: list, shape, packed: bool) -> np.ndarray:
    """The gradient of a (1, d) bias added to every row of an output whose
    gradient is g: summed over the batch axis, then over the rows, for a
    (B, n, d) g; for a packed g, over each video's rows, then over the
    videos one after another."""
    if not packed:
        return _unbroadcast(g, shape)
    total = np.zeros(g.shape[-1:], g.dtype)
    for r in videos:
        total += g[r].sum(axis=0)
    return total.reshape(shape)


def _norm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float):
    """(x - mean) / sqrt(var + eps) * g + b over the last axis, with the row
    means and inv = 1 / sqrt(var + eps), (..., 1), it was made with."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    inv = 1.0 / np.sqrt(np.square(centered).mean(axis=-1, keepdims=True) + eps)
    centered *= inv
    return centered * g + b, mu, inv


def _norm_backward(grad: np.ndarray, x: np.ndarray, mu: np.ndarray,
                   inv: np.ndarray, g: np.ndarray, nx, ng, nb) -> None:
    """Layer norm's closed-form backward (Ba et al., 2016), overwriting
    grad, the output's gradient: accumulates x's, g's and b's gradients into
    nx, ng and nb, each None for an operand that requires no gradient.

    It forms x_hat = (x - mean) * inv from the kept statistics; with g_y the
    output gradient times g, x's gradient is
    inv * (g_y - mean(g_y) - x_hat * mean(g_y * x_hat)), the means over the
    last axis, formed in grad's buffer.
    """
    if nb is not None:  # a copy, as grad is overwritten below
        nb._accum(_unbroadcast(grad, nb.shape).copy())
    x_hat = x - mu
    x_hat *= inv
    if ng is not None:
        ng._accum(_unbroadcast(grad * x_hat, ng.shape))
    if nx is not None:
        grad *= g
        x_hat *= (grad * x_hat).mean(axis=-1, keepdims=True)
        grad -= grad.mean(axis=-1, keepdims=True)
        grad -= x_hat
        grad *= inv
        nx._accum(grad)


def layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * g + b over the last axis, as one node.

    The node keeps x, g, the row means and inv = 1 / sqrt(var + eps), shape
    (..., 1), and backward recomputes the normalised x from them
    (_norm_backward). The model's one layer_norm is its final norm: the norm
    in front of each attention and FFN is folded into that node (norm=).
    """
    x, g, b = as_tensor(x), as_tensor(g), as_tensor(b)
    out, mu, inv = _norm_forward(x.data, g.data, b.data, eps)
    x_data, g_data, nodes = x.data, g.data, (x.node, g.node, b.node)

    def back(grad):
        _norm_backward(grad.copy(), x_data, mu, inv, g_data, *nodes)
    return Tensor._result(out, (x, g, b), back)


def _pre_norm(x: Tensor, norm):
    """What a fused node reads its rows through: x's own rows, or, given
    norm = (g, b, eps), the layer norm of x's rows in front of the node.

    The node never holds all the normalised rows: forward normalises one
    video's rows at a time and keeps their (n_i, 1) statistics, and
    backward recomputes them from x and those statistics, then maps the
    gradient of all of them into x, g and b with _norm_backward. That is
    layer_norm's arithmetic on the same operands, row by row, so the node
    matches layer_norm followed by the node without a norm, bit for bit,
    and keeps x, g, b and the statistics where that chain keeps x, g, the
    statistics and the normalised rows.

    Returns the tensors of these operands, which the node takes as parents;
    read(r), rows r in forward; reread(r), the same rows again in backward;
    whether backward must form the gradient of the rows read; and
    push(grad), which accumulates that gradient, of all the rows, into the
    operands' nodes and may overwrite grad.
    """
    x_data, nx = x.data, x.node
    if norm is None:
        def read(r):
            return x_data[r]
        return (x,), read, read, nx is not None, lambda grad: _accum(nx, grad)
    g, b, eps = norm
    g, b = as_tensor(g), as_tensor(b)
    g_data, b_data, nodes = g.data, b.data, (nx, g.node, b.node)
    mu, inv = (np.empty(x_data.shape[:-1] + (1,), x_data.dtype) for _ in range(2))

    def read(r):
        rows, mu[r], inv[r] = _norm_forward(x_data[r], g_data, b_data, eps)
        return rows

    def reread(r):
        x_hat = x_data[r] - mu[r]
        x_hat *= inv[r]
        return x_hat * g_data + b_data

    def push(grad):
        _norm_backward(grad, x_data, mu, inv, g_data, *nodes)
    return (x, g, b), read, reread, any(n is not None for n in nodes), push


# erf(x) ~ x P(x^2) / Q(x^2) on x clamped to [-4, 4], beyond which float32
# erf rounds to +-1: the odd degree-13 over even degree-8 rational of Eigen's
# and XLA's float32 erf (generic_fast_erf_float), coefficients highest first
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


def _horner(x: np.ndarray, coef, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The polynomial with coefficients coef, highest first, at x, into out."""
    out = np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _normal_cdf(h: np.ndarray) -> np.ndarray:
    """0.5 * (1 + erf(h / sqrt(2))) in a new array of h's dtype.

    float64 takes the C library's erf (math.erf) per element: finite
    differences of float64 models need an erf far closer than the float32
    rational's. float32 takes the rational above in float32, in place in
    three arrays of h's size, one of them the result: its CDF is within
    2.3e-7 of the exact one, a few float32 ulps. Both give 0.5 at +-0, 1 and
    0 at +-inf and NaN at NaN.
    """
    x = h * h.dtype.type(_INV_SQRT2)
    if x.dtype == np.float64:
        c = np.fromiter(map(math.erf, x.flat), x.dtype, x.size)
        c = c.reshape(x.shape)
    else:
        np.clip(x, -4.0, 4.0, out=x)
        x2 = x * x
        c = _horner(x2, _ERF_P)
        c *= x
        c /= _horner(x2, _ERF_Q, out=x)
    c += 1.0
    c *= 0.5
    return c


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        bounds=None, norm=None) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 as one node, gelu being the exact GELU
    0.5 h (1 + erf(h / sqrt(2))); b1 and b2 are (1, hidden) and (1, d_out).
    x is (B, n, d), one video per batch row, or, with bounds, packed
    (sum n_i, d) rows, video i's rows being bounds[i]:bounds[i + 1]. Given
    norm = (g, b, eps), the node reads the layer norm of x's rows, as the
    FFN reads the residual stream, in place of x (_pre_norm); the unimodal
    MLPs take none.

    Both directions work one video at a time, as attention does, so the
    hidden layer exists only as one video's (n_i, hidden) arrays: the node
    keeps x and the weights, not h = x @ w1 + b1 nor its GELU, and with a
    norm not the normalised rows but the norm's g, b and statistics. Backward
    recomputes each video's h, computes the normal CDF from it once and
    reads it twice: for the GELU output, h * cdf, which w2's gradient is
    formed from, and for the GELU slope, cdf + h * pdf. The CDF, the GELU,
    its slope and everything after them keep h's dtype (_normal_cdf). x's
    gradient is filled video by video; each weight gradient is formed from
    one video's rows and summed over the videos one after another, the order
    in which numpy sums a batch axis. A bias's gradient is summed as the
    chain sums it: for a (B, n, d) x over the batch axis, then over the
    rows; packed, over each video's rows, then over the videos. So both
    directions match, bit for bit, the chain x @ w1 + b1, a GELU node that
    keeps h and its CDF, @ w2 + b2: run on the whole (B, n, d) x, or on each
    video's packed rows alone with its outputs concatenated; with a norm,
    after layer_norm. The forward
    products go through Tensor.__matmul__ on constants, so they count as
    matmuls, two per video.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    inputs, read, reread, x_grad, push = _pre_norm(x, norm)
    w1_data, b1_data, w2_data = w1.data, b1.data, w2.data
    videos = _videos(x.data, bounds)
    out = None
    for r in videos:
        h = (Tensor(read(r)) @ Tensor(w1_data)).data + b1_data
        act = _normal_cdf(h)
        act *= h
        y = (Tensor(act) @ Tensor(w2_data)).data
        if out is None:
            out = np.empty(x.shape[:-1] + y.shape[-1:], np.result_type(y, b2.data))
        np.add(y, b2.data, out=out[r])
        del h, act, y  # one video's arrays go before the next one's are made
    nw1, nb1, nw2, nb2 = w1.node, b1.node, w2.node, b2.node
    b1_shape, b2_shape, x_shape = b1.shape, b2.shape, x.shape
    x_dtype = np.result_type(*(t.data for t in inputs))  # of the rows read
    packed = bounds is not None
    rows = 1 if packed else x_shape[1]  # those of g_b1

    def back(g):
        _accum(nb2, _bias_grad(g, videos, b2_shape, packed))
        g_x = np.empty(x_shape, x_dtype) if x_grad else None
        g_w1, g_w2 = np.zeros_like(w1_data), np.zeros_like(w2_data)
        g_b1 = np.zeros((rows,) + w1_data.shape[1:], w1_data.dtype)
        for r in videos:
            x_r = reread(r)
            h = x_r @ w1_data + b1_data
            cdf = _normal_cdf(h)
            act = h * cdf
            g_w2 += act.swapaxes(-1, -2) @ g[r]
            del act
            d = h ** 2
            d *= -0.5
            np.exp(d, out=d)
            d *= d.dtype.type(_INV_SQRT2PI)  # a float64 scalar would loop in float64
            d *= h
            d += cdf
            del cdf, h
            d *= g[r] @ w2_data.swapaxes(-1, -2)
            # d is now h's gradient
            g_b1 += d.sum(axis=0, keepdims=True) if packed else d
            if g_x is not None:
                np.matmul(d, w1_data.swapaxes(-1, -2), out=g_x[r])
            g_w1 += x_r.swapaxes(-1, -2) @ d
            del d, x_r
        _accum(nw2, g_w2)
        if g_x is not None:
            push(g_x)
        _accum(nw1, g_w1)
        _accum(nb1, _unbroadcast(g_b1, b1_shape))
    return Tensor._result(out, inputs + (w1, b1, w2, b2), back)


def _softmax(scores: np.ndarray, scale) -> np.ndarray:
    """softmax(scores * scale) over the last axis, in scores' buffer.

    attention passes a fresh product that nothing else reads, and a scale
    of its dtype.
    """
    z = np.multiply(scores, scale, out=scores)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
              wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor, num_heads: int,
              scale, bounds, norm) -> Tensor:
    """Pre-norm multi-head attention with its four projections, as one
    node: softmax(q @ k^T * scale) @ v with the heads merged, @ wo + bo,
    where q, k and v are x_n @ w + b for wq, wk and wv, split into num_heads
    heads, x_n is the layer norm of x with norm = (g, b, eps), and each
    video's tokens attend to that video's tokens only.

    x is packed (sum n_i, d) rows, video i's rows being bounds[i]:bounds[i
    + 1], the weights (d, d) and the biases (1, d). So no key is padding,
    and no mask is needed (the variable-length layout of FlashAttention-2,
    Dao, 2023). Both directions work one video at a time, as FlashAttention
    (Dao et al., 2022) works one tile at a time: a video's rows are
    normalised, and its (H, n_i, n_i) scores shifted, exponentiated and
    normalised in their own buffer, so no x_n, q, k or v of the whole batch
    exists at any time. As mlp keeps x and its weights, the node keeps x,
    g, b, the norm's (sum n_i, 1) statistics and the weights and biases but
    bo, whose gradient is the output's; backward recomputes each video's
    x_n (_pre_norm), q, k, v, probabilities p and merged output, forms the
    scores' gradient in closed form, g_s = p * (g_p - sum(g_p * p)) * scale
    over each row of keys, g_p being that of p, then q's as g_s @ k and k's
    as g_s^T @ q. x_n's gradient is filled video by video as
    (c_q + c_k) + c_v, each c a projection's gradient times its weight
    transposed, and mapped through layer norm's backward into x, g and b;
    each weight and bias gradient is formed from one video's rows, a bias's
    as the sum over those rows, and summed over the videos one after
    another. So both directions match, bit for bit, layer_norm followed by
    the chain of four x @ w + b maps around an attention node on q, k and v
    run on each video's rows alone, its outputs concatenated. The forward
    products go through Tensor.__matmul__ on constants, so they count as
    matmuls, six per video.
    """
    x, wq, bq, wk, bk, wv, bv, wo, bo = (
        as_tensor(t) for t in (x, wq, bq, wk, bk, wv, bv, wo, bo))
    d = x.shape[-1]
    dh = d // num_heads
    inputs, read, reread, x_grad, push = _pre_norm(x, norm)
    wo_data = wo.data
    projections = [(w.data, c.data) for w, c in ((wq, bq), (wk, bk), (wv, bv))]
    videos = _videos(x.data, bounds)
    x_dtype = np.result_type(*(t.data for t in inputs))  # of the rows read
    scale = np.result_type(x_dtype, *projections[0]).type(scale)  # q's dtype

    def heads(t):
        return t.reshape(len(t), num_heads, dh).swapaxes(0, 1)

    def merged(t):
        return t.swapaxes(0, 1).reshape(-1, d)

    out = None
    for r in videos:
        x_r = read(r)
        q, k, v = (heads((Tensor(x_r) @ Tensor(w)).data + c)
                   for w, c in projections)
        p = _softmax((Tensor(q) @ Tensor(k.swapaxes(-1, -2))).data, scale)
        y = (Tensor(merged((Tensor(p) @ Tensor(v)).data)) @ Tensor(wo_data)).data
        if out is None:
            out = np.empty(x.shape[:-1] + y.shape[-1:], np.result_type(y, bo.data))
        np.add(y, bo.data, out=out[r])
        del x_r, q, k, v, p, y  # one video's arrays go before the next one's are made
    nwo, nbo = wo.node, bo.node
    nodes = [(w.node, c.node) for w, c in ((wq, bq), (wk, bk), (wv, bv))]
    bo_shape, x_shape = bo.shape, x.shape

    def back(g):
        g_x = np.empty(x_shape, x_dtype) if x_grad else None
        g_wo = np.zeros_like(wo_data)
        g_w = [np.zeros_like(w) for w, _ in projections]
        g_b = [np.zeros(w.shape[-1:], c.dtype) for w, c in projections]
        for r in videos:
            x_r, g_r = reread(r), g[r]
            q, k, v = (heads(x_r @ w + c) for w, c in projections)
            p = _softmax(q @ k.swapaxes(-1, -2), scale)
            g_wo += merged(p @ v).swapaxes(-1, -2) @ g_r
            g_o = heads(g_r @ wo_data.swapaxes(-1, -2))
            g_v = p.swapaxes(-1, -2) @ g_o
            g_s = g_o @ v.swapaxes(-1, -2)  # p's gradient
            g_s -= (g_s * p).sum(axis=-1, keepdims=True)
            g_s *= p
            g_s *= scale
            del p, g_o, v
            grads = [merged(g_s @ k), merged(g_s.swapaxes(-1, -2) @ q), merged(g_v)]
            del g_s, q, k, g_v
            for (w, _), gw, gb, grad in zip(projections, g_w, g_b, grads):
                gb += grad.sum(axis=0)
                gw += x_r.swapaxes(-1, -2) @ grad
            if g_x is not None:
                c_q, c_k, c_v = (grad @ w.swapaxes(-1, -2)
                                 for grad, (w, _) in zip(grads, projections))
                np.add(c_q, c_k, out=g_x[r])
                g_x[r] += c_v
            del grads, x_r
        _accum(nbo, _bias_grad(g, videos, bo_shape, True))
        _accum(nwo, g_wo)
        for (nw, nb), gw, gb, (_, c) in zip(nodes, g_w, g_b, projections):
            _accum(nw, gw)
            _accum(nb, gb.reshape(c.shape))
        if g_x is not None:
            push(g_x)
    return Tensor._result(out, inputs + (wq, bq, wk, bk, wv, bv, wo, bo), back)


def dropout(x: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """Inverted dropout, x * keep / (1 - rate), as one node.

    keep is the bool mask of the elements that survive. The node keeps that
    mask, not the scaled one, and both directions rebuild
    keep.astype(x.dtype) / (1 - rate), so they match the product
    x * Tensor(keep.astype(x.dtype) / (1 - rate)) bit for bit.
    """
    x = as_tensor(x)
    node, dtype = x.node, x.dtype

    def scaled():
        return keep.astype(dtype) / (1.0 - rate)

    def back(g):
        node._accum(g * scaled())
    return Tensor._result(x.data * scaled(), (x,), back)
