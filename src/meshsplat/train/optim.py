"""Adam over engine tensors, with named per-group learning rates."""

from __future__ import annotations

import numpy as np

from ..assets import ValidationError
from .engine import Tensor

DEFAULT_LRS = {
    "attributes": 1e-3,
    "mlp": 5e-4,
    "embeddings": 1e-3,
    "blend": 1e-3,
}
# the standard moments and denominator floor of Kingma & Ba, "Adam", ICLR 2015
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# groups stepped row by row: frame-indexed embedding tables
SPARSE_ROWS = ("embeddings",)
# decoupled decay per group: frame embeddings exist to absorb
# registration error, and decay keeps them from shortcutting
# pose-dependent structure the MLPs should own
WEIGHT_DECAY = {"embeddings": 1.0}


class Adam:
    """Adam with decoupled per-group weight decay (``WEIGHT_DECAY``) and
    sparse-row semantics. Every group needs a learning rate: from
    ``lrs`` or ``DEFAULT_LRS`` by its name.

    Groups named in ``SPARSE_ROWS`` (embedding tables indexed by frame)
    update only rows whose gradient is nonzero this step; dense Adam
    would keep pushing every row from stale momentum, multiplying each
    row's few visits several-fold.

    Each ``step`` leaves ``norms``: per group, ``gnorm_<group>`` (the
    gradient's L2 norm) and ``unorm_<group>`` (the Adam update's, before
    weight decay), both summed in float64.
    """

    def __init__(self, groups: dict[str, list[Tensor]], lrs: dict[str, float] | None = None):
        self.groups = groups
        unknown = sorted(set(lrs or {}) - set(groups) - set(DEFAULT_LRS))
        if unknown:
            raise ValidationError(f"learning rate given for unknown parameter groups {', '.join(unknown)}")
        # Python floats: under NumPy 2 promotion a NumPy float64 scalar
        # would turn float32 parameters into float64
        self.lrs = {k: float(v) for k, v in {**DEFAULT_LRS, **(lrs or {})}.items()}
        missing = sorted(set(groups) - set(self.lrs))
        if missing:
            raise ValidationError(f"no learning rate for parameter groups {', '.join(missing)}")
        self.t = 0
        self.norms: dict[str, float] = {}
        self.m = {}
        self.v = {}
        self.row_t = {}
        for name, params in groups.items():
            for i, p in enumerate(params):
                self.m[(name, i)] = np.zeros_like(p.data)
                self.v[(name, i)] = np.zeros_like(p.data)
                if name in SPARSE_ROWS and p.data.ndim >= 1:
                    self.row_t[(name, i)] = np.zeros(p.data.shape[0], dtype=np.int64)

    def zero_grad(self) -> None:
        for params in self.groups.values():
            for p in params:
                p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = BETA1, BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        self.norms = {}
        for name, params in self.groups.items():
            lr = self.lrs[name]
            wd = WEIGHT_DECAY.get(name, 0.0)
            g_sq = u_sq = 0.0
            for i, p in enumerate(params):
                if p.grad is None:
                    continue
                g = p.grad
                g_sq += _sum_sq(g)
                m = self.m[(name, i)]
                v = self.v[(name, i)]
                if (name, i) in self.row_t:
                    rows = np.nonzero(np.any(g.reshape(g.shape[0], -1) != 0, axis=1))[0]
                    if rows.size == 0:
                        continue
                    rt = self.row_t[(name, i)]
                    rt[rows] += 1
                    m[rows] = b1 * m[rows] + (1.0 - b1) * g[rows]
                    v[rows] = b2 * v[rows] + (1.0 - b2) * g[rows] * g[rows]
                    cr1 = (1.0 - b1 ** rt[rows]).reshape((-1,) + (1,) * (g.ndim - 1))
                    cr2 = (1.0 - b2 ** rt[rows]).reshape((-1,) + (1,) * (g.ndim - 1))
                    upd = lr * (m[rows] / cr1) / (np.sqrt(v[rows] / cr2) + EPS)
                    u_sq += _sum_sq(upd)
                    new_rows = p.data[rows] - upd
                    if wd:
                        new_rows = new_rows * (1.0 - lr * wd)
                    out = p.data.copy()
                    out[rows] = new_rows
                    p.data = out
                    continue
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                upd = lr * (m / c1) / (np.sqrt(v / c2) + EPS)
                u_sq += _sum_sq(upd)
                p.data = p.data - upd
                if wd:
                    p.data = p.data * (1.0 - lr * wd)
            self.norms[f"gnorm_{name}"] = float(np.sqrt(g_sq))
            self.norms[f"unorm_{name}"] = float(np.sqrt(u_sq))


def _sum_sq(x: np.ndarray) -> float:
    return float(np.square(x, dtype=np.float64).sum())
