"""Differentiable loss library: L1, D-SSIM, masked normal loss, the
front/back non-rigid map loss, and the semantic alignment loss.

Every loss builds an engine graph and returns a scalar Tensor; norms over
maps are mean absolute error over valid pixels (masks fixed per step).
"""

from __future__ import annotations

import numpy as np

from ..assets import DeformationMap, ValidationError
from .engine import Tensor, constant
from .ops import SSIM

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def _check_same_shape(a, b):
    if a.shape != b.shape:
        raise ValidationError(f"image shapes differ: {a.shape} vs {b.shape}")


def loss_l1(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean absolute error over every pixel and channel."""
    _check_same_shape(pred.data, gt)
    return (pred - constant(gt.astype(pred.data.dtype))).abs().mean()


def gaussian_window() -> np.ndarray:
    """The normalized 1D SSIM kernel: ``SSIM_WINDOW`` taps, ``SSIM_SIGMA``."""
    x = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    k = np.exp(-(x ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return k / k.sum()


def ssim(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean SSIM with an 11x11 Gaussian window (sigma 1.5), stabilized by
    the standard constants for unit dynamic range."""
    _check_same_shape(pred.data, gt)
    dtype = pred.data.dtype
    return SSIM.apply(pred, y=gt.astype(dtype), kernel=gaussian_window().astype(dtype), c1=SSIM_C1, c2=SSIM_C2)


def loss_dssim(pred: Tensor, gt: np.ndarray) -> Tensor:
    """(1 - SSIM) / 2."""
    return (1.0 - ssim(pred, gt)) * 0.5


def loss_normal(pred_normal: Tensor, gt_normal: np.ndarray, valid_mask: np.ndarray) -> Tensor:
    """Mean L1 over valid-alpha pixels of the normal images."""
    _check_same_shape(pred_normal.data, gt_normal)
    count = max(int(valid_mask.sum()), 1)
    m = valid_mask.astype(pred_normal.data.dtype)[..., None]
    diff = (pred_normal - constant(gt_normal.astype(pred_normal.data.dtype))).abs()
    return (diff * m).sum() * (1.0 / (3.0 * count))


def loss_nonrigid(
    student_front: Tensor,
    student_back: Tensor,
    teacher: DeformationMap,
) -> Tensor:
    """Mean L1 between student and teacher deformation maps over the
    teacher's valid pixels, both sides pooled."""
    _check_same_shape(student_front.data, teacher.front)
    _check_same_shape(student_back.data, teacher.back)
    nf = int(teacher.front_mask.sum())
    nb = int(teacher.back_mask.sum())
    total = max(nf + nb, 1)
    dt = student_front.data.dtype
    mf = teacher.front_mask.astype(dt)[..., None]
    mb = teacher.back_mask.astype(dt)[..., None]
    df = ((student_front - constant(teacher.front.astype(dt))).abs() * mf).sum()
    db = ((student_back - constant(teacher.back.astype(dt))).abs() * mb).sum()
    return (df + db) * (1.0 / (3.0 * total))


def mask_disagreement(student_mask: np.ndarray, teacher_mask: np.ndarray) -> float:
    """Fraction of pixels where exactly one side is valid."""
    union = (student_mask | teacher_mask).sum()
    if union == 0:
        return 0.0
    return float((student_mask ^ teacher_mask).sum() / union)


def loss_semantic(
    gaussian_sem: Tensor,
    mesh_sem: np.ndarray,
    union_mask: np.ndarray,
) -> Tensor:
    """Mean L1 between the Gaussian and mesh semantic renders over the
    union of their valid pixels (mask fixed per step)."""
    _check_same_shape(gaussian_sem.data, mesh_sem)
    count = max(int(union_mask.sum()), 1)
    m = union_mask.astype(gaussian_sem.data.dtype)[..., None]
    diff = (gaussian_sem - constant(mesh_sem.astype(gaussian_sem.data.dtype))).abs()
    return (diff * m).sum() * (1.0 / (3.0 * count))


# value-only helpers for metrics and tests


def l1_value(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).mean())
