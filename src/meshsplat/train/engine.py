"""Minimal reverse-mode autodiff over numpy arrays.

The engine supplies graph bookkeeping (topological order, gradient
accumulation, broadcasting) and the few generic ops training's graphs
build: addition, multiplication, basic indexing, a full sum, reshape and
concatenation. The model's ops, whose forward is the runtime's own code
(the student MLP, the binding, the splat), and the loss ops (absolute
error, D-SSIM) live in ``ops``. Every backward is written by hand and
checked against finite differences. A graph runs in its input
arrays' dtype: a Python number takes the other operand's, and
``Tensor.backward`` casts each gradient to its tensor's. So training's
graphs run in float32 end to end and the gradient checks' in float64.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over broadcast dimensions back to the input shape."""
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
    __slots__ = ("data", "grad", "requires_grad", "ctx")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.ctx = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            if node.ctx is not None:
                for p in node.ctx.parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.ctx is None or node.grad is None:
                continue
            grads = node.ctx.backward(node.grad)
            for parent, g in zip(node.ctx.parents, grads):
                if g is None or not parent.requires_grad_path:
                    continue
                g = g.astype(parent.data.dtype, copy=False)
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g

    @property
    def requires_grad_path(self) -> bool:
        return self.requires_grad or self.ctx is not None

    # operator sugar
    def __add__(self, other):
        return Add.apply(self, _wrap(other, self))

    __radd__ = __add__

    def __mul__(self, other):
        return Mul.apply(self, _wrap(other, self))

    __rmul__ = __mul__

    def __getitem__(self, key):
        return GetItem.apply(self, key=key)

    def sum(self):
        return Sum.apply(self)

    def reshape(self, *shape):
        return Reshape.apply(self, shape=shape)


def _wrap(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    weak = like is not None and isinstance(x, (int, float))  # a Python number takes like's dtype
    return Tensor(np.asarray(x, dtype=like.data.dtype if weak else None))


def constant(x) -> Tensor:
    return Tensor(np.asarray(x))


class Function:
    """One differentiable op. Subclasses fill forward/backward; ``apply``
    wires the graph when any input participates in it."""

    def __init__(self, *parents, **kwargs):
        self.parents = parents
        self.kwargs = kwargs

    @classmethod
    def apply(cls, *args, **kwargs):
        ctx = cls(*args, **kwargs)
        out = Tensor(ctx.forward(*[t.data for t in args], **kwargs))
        if any(t.requires_grad_path for t in args):
            out.ctx = ctx
        return out

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError


class Add(Function):
    def forward(self, a, b):
        self.sa, self.sb = a.shape, b.shape
        return a + b

    def backward(self, g):
        return _unbroadcast(g, self.sa), _unbroadcast(g, self.sb)


class Mul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    def backward(self, g):
        return _unbroadcast(g * self.b, self.a.shape), _unbroadcast(g * self.a, self.b.shape)


class GetItem(Function):
    """Indexing that selects each element at most once: integers, slices
    or an array of unique rows."""

    def forward(self, a, key):
        self.shape = a.shape
        return a[key]

    def backward(self, g):
        out = np.zeros(self.shape, dtype=g.dtype)
        out[self.kwargs["key"]] = g
        return (out,)


class Sum(Function):
    def forward(self, a):
        self.shape = a.shape
        return np.asarray(a.sum())

    def backward(self, g):
        return (np.broadcast_to(g, self.shape).copy(),)


class Reshape(Function):
    def forward(self, a, shape):
        self.shape = a.shape
        return a.reshape(shape)

    def backward(self, g):
        return (g.reshape(self.shape),)


class Concat(Function):
    def forward(self, *arrays, axis=0):
        self.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, g):
        axis = self.kwargs.get("axis", 0)
        splits = np.cumsum(self.sizes[:-1])
        return tuple(np.split(g, splits, axis=axis))


def concat(tensors, axis=0):
    return Concat.apply(*[_wrap(t) for t in tensors], axis=axis)

