"""Backward checks for every autodiff op against finite differences."""

import numpy as np
import pytest

from meshsplat.train import engine, ops
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


def test_sub_broadcasting():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    fd_check(lambda ts: ((ts[0] - ts[1]) * (1.0 - ts[1])).sum(), [a, b])


def test_matmul():
    # a one-layer ops.mlp is x @ w + b
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(6, 3))
    fd_check(lambda ts: ops.mlp([(ts[1], constant(np.zeros(3)))], ts[0]).square().sum(), [a, b])


def test_relu_abs_away_from_kinks():
    # ops.mlp through identity layers is relu(x)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    a[np.abs(a) < 0.05] = 0.1  # keep clear of the kinks
    eye = [(constant(np.eye(6)), constant(np.zeros(6)))] * 2
    fd_check(lambda ts: (ops.mlp(eye, ts[0]) + ts[0].abs()).sum(), [a])


def test_sum_axis_keepdims():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4, 2))
    fd_check(lambda ts: (ts[0].sum(axis=2) * 2.0).square().sum(), [a])
    fd_check(lambda ts: (ts[0].sum(axis=(0, 2), keepdims=True)).square().sum(), [a])


def test_getitem_int_array_scatter_adds():
    a = np.zeros((4, 3))
    t = Tensor(a, requires_grad=True)
    idx = np.array([1, 1, 2])
    out = t[idx].sum()
    out.backward()
    expect = np.zeros((4, 3))
    expect[1] = 2.0
    expect[2] = 1.0
    assert np.array_equal(t.grad, expect)


def test_getitem_slice():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 4))
    fd_check(lambda ts: ts[0][1:4, :2].square().sum(), [a])


def test_concat_and_broadcast_to():
    # b is broadcast to (2, 3) by the addition
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(1, 3))
    fd_check(lambda ts: concat([ts[0], ts[1] + np.zeros((2, 3))], axis=0).square().sum(), [a, b])


def test_reshape():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 6))
    fd_check(lambda ts: ts[0].reshape(3, 4).square().sum(), [a])


def test_diamond_graph_accumulates():
    a = np.array([2.0])
    t = Tensor(a, requires_grad=True)
    b = t * 3.0
    out = (b + b).sum()
    out.backward()
    assert np.allclose(t.grad, [6.0])


def test_mean_scalar():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 7))
    fd_check(lambda ts: ts[0].mean(), [a])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_scalars_keep_the_graph_dtype(dtype):
    # a Python number takes its tensor's dtype
    rng = np.random.default_rng(10)
    t = Tensor(rng.normal(size=(4, 3)).astype(dtype), requires_grad=True)
    out = ((t * 0.5 + 2) * (1.0 - t)).abs().mean()
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
