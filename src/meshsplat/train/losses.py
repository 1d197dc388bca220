"""Differentiable loss library: L1, D-SSIM, masked normal loss, the
front/back non-rigid map loss, and the semantic alignment loss.

Every loss returns a scalar Tensor. The four L1 terms are one op,
``ops.AbsErrorSum`` (masks fixed per step), times a Python-float
scale that makes it a mean over the valid pixels and channels; D-SSIM
is the one op ``ops.DSSIM``.
"""

from __future__ import annotations

import numpy as np

from ..assets import DeformationMap, ValidationError
from .engine import Tensor
from .ops import DSSIM, AbsErrorSum

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
    return AbsErrorSum.apply(pred, y=gt) * (1.0 / pred.data.size)


def gaussian_window() -> np.ndarray:
    """The normalized 1D SSIM kernel: ``SSIM_WINDOW`` taps, ``SSIM_SIGMA``."""
    x = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    k = np.exp(-(x ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return k / k.sum()


def loss_dssim(pred: Tensor, gt: np.ndarray) -> Tensor:
    """(1 - SSIM) / 2, with mean SSIM over an 11x11 Gaussian window (sigma
    1.5) and the standard constants for unit dynamic range."""
    _check_same_shape(pred.data, gt)
    dtype = pred.data.dtype
    return DSSIM.apply(pred, y=gt.astype(dtype, copy=False), kernel=gaussian_window().astype(dtype), c1=SSIM_C1, c2=SSIM_C2)


def loss_masked_l1(pred: Tensor, gt: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean L1 over the pixels of ``mask`` and the 3 channels. As
    ``loss_normal``, over the valid-alpha pixels of the normal images; as
    ``loss_semantic``, between the Gaussian and mesh semantic renders
    over the union of their valid pixels."""
    _check_same_shape(pred.data, gt)
    count = max(int(mask.sum()), 1)
    return AbsErrorSum.apply(pred, y=gt, mask=mask[..., None]) * (1.0 / (3.0 * count))


loss_normal = loss_semantic = loss_masked_l1


def loss_nonrigid(
    student_front: Tensor,
    student_back: Tensor,
    teacher: DeformationMap,
) -> Tensor:
    """Mean L1 between student and teacher deformation maps over the
    teacher's valid pixels, both sides pooled."""
    _check_same_shape(student_front.data, teacher.front)
    _check_same_shape(student_back.data, teacher.back)
    total = max(int(teacher.front_mask.sum()) + int(teacher.back_mask.sum()), 1)
    front = AbsErrorSum.apply(student_front, y=teacher.front, mask=teacher.front_mask[..., None])
    back = AbsErrorSum.apply(student_back, y=teacher.back, mask=teacher.back_mask[..., None])
    return (front + back) * (1.0 / (3.0 * total))


def mask_disagreement(student_mask: np.ndarray, teacher_mask: np.ndarray) -> float:
    """Fraction of pixels where exactly one side is valid."""
    union = (student_mask | teacher_mask).sum()
    if union == 0:
        return 0.0
    return float((student_mask ^ teacher_mask).sum() / union)


# value-only helpers for metrics and tests


def l1_value(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).mean())
