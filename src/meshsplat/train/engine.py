"""Minimal reverse-mode autodiff over numpy arrays.

The engine supplies graph bookkeeping (topological order, gradient
accumulation, broadcasting) and the generic array ops the losses are
built from: arithmetic, indexing, sums, reshape and concatenation. The
model's ops, whose forward is the runtime's own code (the student MLP,
the binding, the splat), live in ``ops``. Every backward is written by
hand and checked against finite differences. Dtype follows the input
arrays, so the same graphs run in float32 for training and float64 for
gradient checking.
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
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g

    @property
    def requires_grad_path(self) -> bool:
        return self.requires_grad or self.ctx is not None

    # operator sugar
    def __add__(self, other):
        return Add.apply(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Sub.apply(self, _wrap(other))

    def __rsub__(self, other):
        return Sub.apply(_wrap(other), self)

    def __mul__(self, other):
        return Mul.apply(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Div.apply(self, _wrap(other))

    def __getitem__(self, key):
        return GetItem.apply(self, key=key)

    def sum(self, axis=None, keepdims=False):
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    def abs(self):
        return Abs.apply(self)

    def square(self):
        return Mul.apply(self, self)

    def reshape(self, *shape):
        return Reshape.apply(self, shape=shape)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


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


class Sub(Function):
    def forward(self, a, b):
        self.sa, self.sb = a.shape, b.shape
        return a - b

    def backward(self, g):
        return _unbroadcast(g, self.sa), _unbroadcast(-g, self.sb)


class Mul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    def backward(self, g):
        return _unbroadcast(g * self.b, self.a.shape), _unbroadcast(g * self.a, self.b.shape)


class Div(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a / b

    def backward(self, g):
        ga = _unbroadcast(g / self.b, self.a.shape)
        gb = _unbroadcast(-g * self.a / (self.b * self.b), self.b.shape)
        return ga, gb


class GetItem(Function):
    def forward(self, a, key):
        self.shape = a.shape
        return a[key]

    def backward(self, g):
        out = np.zeros(self.shape, dtype=g.dtype)
        key = self.kwargs["key"]
        if isinstance(key, np.ndarray) and key.dtype != bool:
            np.add.at(out, key, g)
        else:
            out[key] = g
        return (out,)


class Sum(Function):
    def forward(self, a, axis=None, keepdims=False):
        self.shape = a.shape
        return np.asarray(a.sum(axis=axis, keepdims=keepdims))

    def backward(self, g):
        axis = self.kwargs.get("axis")
        keepdims = self.kwargs.get("keepdims", False)
        if axis is None:
            return (np.broadcast_to(g, self.shape).copy(),)
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(a % len(self.shape) for a in axes)
            for a in sorted(axes):
                g = np.expand_dims(g, a)
        return (np.broadcast_to(g, self.shape).copy(),)


class Abs(Function):
    def forward(self, a):
        self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, g):
        return (g * self.sign,)


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

