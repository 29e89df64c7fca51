"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records enough of the expression graph to run
backpropagation: each op closes over its inputs and pushes a gradient back
only into those that require one. backward() seeds the output gradient and
walks the graph once in reverse topological order, consuming it: once a node
has pushed its gradient back, it drops that gradient, its parents and its
closure, so each activation is freed once nothing downstream needs it. Leaves
keep their .grad; a second backward() through a graph raises GradientError.

Kept deliberately small: broadcasting binary ops (subtraction is one, not an
add of a negation), matmul, shape ops, the few pointwise functions the model
needs, and masked_softmax, one node for softmax(x * scale + bias) that keeps
only its input alive and recomputes the exponentials in backward. Anything
fancier belongs in the calling code.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.special import erf

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # construction helper for op results
    @classmethod
    def _result(cls, data, parents, backward) -> "Tensor":
        out = cls(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

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

    def _accum(self, grad: np.ndarray) -> None:
        grad = grad.astype(self.data.dtype, copy=False)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(leaf) into every leaf's .grad, consuming the graph.

        Each non-leaf node releases its gradient, parents and closure once its
        closure has run, so the graph cannot be walked a second time: calling
        backward() again through any part of it raises GradientError.
        """
        if not self.requires_grad:
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
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self._accum(grad)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), _released

    # ---- binary ops ----

    def _binary(self, other: "Tensor", data, grad_self, grad_other) -> "Tensor":
        """Node for a binary op; grad_self/grad_other map the output gradient to
        that operand's, and run only for an operand that requires a gradient."""
        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(grad_self(g), self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(grad_other(g), other.shape))
        return Tensor._result(data, (self, other), back)

    def __add__(self, other):
        other = as_tensor(other)
        return self._binary(other, self.data + other.data, lambda g: g, lambda g: g)

    def __neg__(self):
        def back(g):
            self._accum(-g)
        return Tensor._result(-self.data, (self,), back)

    def __sub__(self, other):
        other = as_tensor(other)
        return self._binary(other, self.data - other.data, lambda g: g, np.negative)

    def __mul__(self, other):
        other = as_tensor(other)
        return self._binary(other, self.data * other.data,
                            lambda g: g * other.data, lambda g: g * self.data)

    def __truediv__(self, other):
        other = as_tensor(other)
        return self._binary(other, self.data / other.data,
                            lambda g: g / other.data,
                            lambda g: -g * self.data / (other.data ** 2))

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise GradientError("matmul needs operands with at least 2 dims")
        return self._binary(other, self.data @ other.data,
                            lambda g: g @ other.data.swapaxes(-1, -2),
                            lambda g: self.data.swapaxes(-1, -2) @ g)

    # ---- shape ops ----

    def swapaxes(self, a: int, b: int):
        def back(g):
            self._accum(g.swapaxes(a, b))
        return Tensor._result(self.data.swapaxes(a, b), (self,), back)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def back(g):
            self._accum(g.reshape(self.shape))
        return Tensor._result(self.data.reshape(shape), (self,), back)

    def __getitem__(self, idx):
        def back(g):
            buf = np.zeros_like(self.data)
            np.add.at(buf, idx, g)
            self._accum(buf)
        return Tensor._result(self.data[idx], (self,), back)

    # ---- reductions ----

    def sum(self, axis=None, keepdims: bool = False):
        def back(g):
            if axis is None:
                self._accum(np.broadcast_to(g, self.shape).copy())
                return
            gg = g if keepdims else np.expand_dims(g, axis)
            self._accum(np.broadcast_to(gg, self.shape).copy())
        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ---- pointwise ----

    def exp(self):
        out_data = np.exp(self.data)

        def back(g):
            self._accum(g * out_data)
        return Tensor._result(out_data, (self,), back)

    def log(self):
        def back(g):
            self._accum(g / self.data)
        return Tensor._result(np.log(self.data), (self,), back)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def back(g):
            self._accum(g * 0.5 / out_data)
        return Tensor._result(out_data, (self,), back)

    def astype(self, dtype):
        def back(g):
            self._accum(g)  # _accum casts back to the source dtype
        return Tensor._result(self.data.astype(dtype), (self,), back)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)
    return Tensor._result(np.concatenate([t.data for t in tensors], axis=axis),
                          tensors, back)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, 0.5 x (1 + erf(x / sqrt(2)))."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def back(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data ** 2)
        x._accum(g * (cdf + x.data * pdf))
    return Tensor._result(x.data * cdf, (x,), back)


def masked_softmax(x: Tensor, scale, bias) -> Tensor:
    """softmax(x * scale + bias) over the last axis, as one node.

    bias is a constant broadcast against x, e.g. MASK_FILL on blocked keys.
    Rows are shifted by their max, which softmax is invariant to. Forward
    shifts, exponentiates and normalizes in the buffer it returns; the node
    keeps only x alive, and backward recomputes the exponentials from x.data.
    Both directions do the arithmetic of the composed generic ops
    ((x * scale + bias - max).exp(), then e / e.sum()) in the same order, so
    they match those ops bit for bit.
    """
    x = as_tensor(x)
    scale = np.asarray(scale)  # 0-d array: promotes x like a Tensor constant

    def exps():
        z = x.data * scale
        z += bias
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        return z, z.sum(axis=-1, keepdims=True)

    out, total = exps()
    out /= total

    def back(g):
        e, s = exps()
        ge = g / s + (-g * e / s ** 2).sum(axis=-1, keepdims=True)
        x._accum(ge * e * scale)
    return Tensor._result(out, (x,), back)
