"""Deployment quantization: MLP and mapping-net weights to half precision.

Inference always computes in float32; only storage narrows. The paired
sweep measures quantized-vs-full deviation and refuses to stay silent
when it exceeds the contract bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import deform

REL_BOUND = 1e-2
SWEEP_INPUTS = 1000


def _quantize_net(layers):
    return [(np.asarray(w, dtype=np.float16), np.asarray(b, dtype=np.float16)) for w, b in layers]


@dataclass
class QuantReport:
    max_rel: float
    bound: float = REL_BOUND
    per_net: dict = field(default_factory=dict)
    inputs: int = SWEEP_INPUTS

    @property
    def ok(self) -> bool:
        return self.max_rel < self.bound

    def summary(self) -> str:
        status = "ok" if self.ok else "EXCEEDS BOUND"
        nets = " ".join(f"{k}={v:.3e}" for k, v in self.per_net.items())
        return f"quantize: {status} max_rel={self.max_rel:.3e} bound={self.bound:g} ({nets})"


def _net_deviation(full, quant, dim_in, rng, n):
    x = rng.normal(size=(n, dim_in)).astype(np.float32)
    y = deform.mlp_forward(full, x)
    yq = deform.mlp_forward(quant, x)
    scale = max(float(np.abs(y).max()), 1.0)
    return float(np.abs(yq.astype(np.float64) - y.astype(np.float64)).max() / scale)


def quantize_bundle(bundle: deform.StudentBundle, seed: int = 0,
                    n_inputs: int = SWEEP_INPUTS) -> tuple[deform.StudentBundle, QuantReport]:
    """Half-precision bundle plus a measured deviation report.

    Quantization is idempotent: re-quantizing a half-precision bundle is
    a no-op bit-for-bit.
    """
    q = replace(
        bundle,
        body_mlp=_quantize_net(bundle.body_mlp),
        cloth_mlp=_quantize_net(bundle.cloth_mlp),
        head_map=_quantize_net(bundle.head_map),
        body_map=_quantize_net(bundle.body_map),
    )
    rng = np.random.default_rng(seed)
    per_net = {
        "body_mlp": _net_deviation(bundle.body_mlp, q.body_mlp, bundle.input_dim, rng, n_inputs),
        "cloth_mlp": _net_deviation(bundle.cloth_mlp, q.cloth_mlp, bundle.input_dim, rng, n_inputs),
        "head_map": _net_deviation(bundle.head_map, q.head_map, bundle.eps_dim, rng, n_inputs),
        "body_map": _net_deviation(bundle.body_map, q.body_map, bundle.theta_dim, rng, n_inputs),
    }
    report = QuantReport(max_rel=max(per_net.values()), per_net=per_net, inputs=n_inputs)
    return q, report
