"""Backward checks for every autodiff op against finite differences."""

import numpy as np
import pytest

from meshsplat.train import ops
from meshsplat.train.engine import Tensor, concat, constant


def fd_check(build, arrays, tol=1e-5, h=1e-6, coords=24, seed=0):
    """Central differences of the scalar graph value vs engine grads."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(tensors)
    out.backward()
    rng = np.random.default_rng(seed)
    for pi, (a, t) in enumerate(zip(arrays, tensors)):
        g = t.grad if t.grad is not None else np.zeros_like(a)
        flat = a.reshape(-1)
        n = flat.size
        chosen = rng.choice(n, size=min(coords, n), replace=False)
        for c in chosen:
            orig = flat[c]
            flat[c] = orig + h
            lp = float(build([Tensor(x) for x in arrays]).data)
            flat[c] = orig - h
            lm = float(build([Tensor(x) for x in arrays]).data)
            flat[c] = orig
            numeric = (lp - lm) / (2 * h)
            analytic = float(np.asarray(g).reshape(-1)[c])
            assert abs(analytic - numeric) <= tol * max(1.0, abs(numeric)), (
                f"param {pi} coord {c}: {analytic} vs {numeric}"
            )


def test_add_mul_broadcasting():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5,))
    fd_check(lambda ts: ((ts[0] + ts[1]) * ts[1]).sum(), [a, b])


def test_matmul():
    # a one-layer ops.mlp is x @ w + b
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(6, 3))

    def build(ts):
        y = ops.mlp([(ts[1], constant(np.zeros(3)))], ts[0])
        return (y * y).sum()

    fd_check(build, [a, b])


def test_relu_abs_away_from_kinks():
    # ops.mlp through identity layers is relu(x)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    a[np.abs(a) < 0.05] = 0.1  # keep clear of the kinks
    eye = [(constant(np.eye(6)), constant(np.zeros(6)))] * 2
    fd_check(lambda ts: ops.mlp(eye, ts[0]).sum() + ops.AbsErrorSum.apply(ts[0], y=np.zeros(a.shape)), [a])


def test_getitem_slice():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 4))

    def build(ts):
        s = ts[0][1:4, :2]
        return (s * s).sum()

    fd_check(build, [a])


def test_concat_and_broadcast_to():
    # b is broadcast to (2, 3) by the addition
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(1, 3))

    def build(ts):
        c = concat([ts[0], ts[1] + np.zeros((2, 3))], axis=0)
        return (c * c).sum()

    fd_check(build, [a, b])


def test_reshape():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 6))

    def build(ts):
        r = ts[0].reshape(3, 4)
        return (r * r).sum()

    fd_check(build, [a])


def test_diamond_graph_accumulates():
    a = np.array([2.0])
    t = Tensor(a, requires_grad=True)
    b = t * 3.0
    out = (b + b).sum()
    out.backward()
    assert np.allclose(t.grad, [6.0])


def test_abs_error_sum_matches_finite_differences():
    # masked and unmasked, with the mask broadcast over the last axis;
    # every |x - y| is kept clear of its kink at 0
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 4, 3))
    y = x + rng.choice([-1.0, 1.0], size=x.shape) * rng.uniform(0.05, 1.0, size=x.shape)
    mask = rng.random((5, 4, 1)) > 0.4
    fd_check(lambda ts: ops.AbsErrorSum.apply(ts[0], y=y) * 0.25, [x])
    fd_check(lambda ts: ops.AbsErrorSum.apply(ts[0], y=y, mask=mask) * 0.25, [x])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_abs_error_sum_gradient_is_the_masked_sign(dtype):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 5, 3)).astype(dtype)
    y = rng.normal(size=x.shape)
    y[0, 0] = x[0, 0]  # a zero residual has gradient 0
    mask = rng.random((6, 5)) > 0.5
    mask[0, 0] = True
    t = Tensor(x, requires_grad=True)
    scale = 1.0 / 7.0
    out = ops.AbsErrorSum.apply(t, y=y, mask=mask[..., None]) * scale
    assert out.data.dtype == dtype
    out.backward()
    assert t.grad.dtype == dtype
    inside = np.broadcast_to(mask[..., None], x.shape)
    assert np.all(t.grad[~inside] == 0)
    sign = np.sign(x - y.astype(dtype))
    assert np.array_equal(t.grad[inside], (sign * dtype(scale))[inside])
    assert float(out.data) == float(dtype(scale) * (np.abs(x - y.astype(dtype)) * inside).sum())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_scalars_keep_the_graph_dtype(dtype):
    # a Python number takes its tensor's dtype
    rng = np.random.default_rng(10)
    t = Tensor(rng.normal(size=(4, 3)).astype(dtype), requires_grad=True)
    out = ((t * 0.5 + 2) * (t * -1.0 + 1.0)).sum() * 0.25
    assert out.data.dtype == dtype
    out.backward()
    assert t.grad.dtype == dtype
    # every gradient is cast to its tensor's dtype, whatever a backward returns
    t.grad = None
    (t * constant(np.ones(3))).sum().backward()
    assert t.grad.dtype == dtype


def test_backward_requires_scalar():
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_no_grad_for_constants():
    c = constant(np.ones(3))
    t = Tensor(np.ones(3), requires_grad=True)
    out = (c * t).sum()
    out.backward()
    assert c.grad is None
    assert np.array_equal(t.grad, np.ones(3))
