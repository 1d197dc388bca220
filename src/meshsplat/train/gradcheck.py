"""Central finite-difference validation of analytic gradients.

``f`` maps a list of parameter arrays to (loss, grads). Coordinates are
subsampled deterministically for large parameters; the report lists every
failing coordinate with its analytic and numeric values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FD_STEP = 1e-4
ABS_FLOOR = 1e-7  # differences below this are noise, not disagreement


@dataclass
class GradReport:
    max_rel: float  # over the coordinates whose difference is above ABS_FLOOR
    checked: int
    failures: list = field(default_factory=list)  # (param, coord, analytic, numeric, rel)
    tol: float = 0.0
    max_abs: float = 0.0  # largest |analytic - numeric| over every checked coordinate

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failing"
        return (f"grad_check: {status}, max_rel={self.max_rel:.3e}, max_abs={self.max_abs:.3e}, "
                f"checked={self.checked}, tol={self.tol:g}")


def grad_check(
    f,
    params: list[np.ndarray],
    tol: float,
    max_coords: int = 64,
    seed: int = 0,
) -> GradReport:
    """Compare analytic gradients of ``f`` with central differences of
    step ``FD_STEP``.

    Relative error is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-6); coordinates whose difference is below the absolute noise floor
    always pass and are left out of ``max_rel``, but not out of
    ``max_abs``.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]
    _, grads = f(params)
    if len(grads) != len(params):
        raise ValueError("f must return one gradient per parameter")
    rng = np.random.default_rng(seed)
    report = GradReport(max_rel=0.0, checked=0, tol=tol)

    for pi, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient {pi} shape {g.shape} != parameter shape {p.shape}")
        n = p.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords, replace=False)
        flat = p.reshape(-1)
        for c in coords:
            c = int(c)
            orig = flat[c]
            flat[c] = orig + FD_STEP
            lp, _ = f(params)
            flat[c] = orig - FD_STEP
            lm, _ = f(params)
            flat[c] = orig
            numeric = (lp - lm) / (2.0 * FD_STEP)
            analytic = float(g.reshape(-1)[c])
            diff = abs(analytic - numeric)
            rel = diff / max(abs(analytic), abs(numeric), 1e-6)
            report.checked += 1
            report.max_abs = max(report.max_abs, diff)
            if diff <= ABS_FLOOR:
                continue
            report.max_rel = max(report.max_rel, rel)
            if rel > tol:
                report.failures.append((pi, c, analytic, numeric, rel))
    return report
