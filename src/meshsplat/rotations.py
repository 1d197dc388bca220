"""Quaternion and axis-angle helpers. Quaternions are (w, x, y, z)."""

from __future__ import annotations

import numpy as np


def axis_angle_to_quat(aa: np.ndarray) -> np.ndarray:
    """Batched axis-angle [..,3] to unit quaternion [..,4]."""
    aa = np.asarray(aa, dtype=np.float64)
    angle = np.linalg.norm(aa, axis=-1, keepdims=True)
    half = 0.5 * angle
    # sin(x)/x expanded near zero to stay smooth
    small = angle < 1e-8
    k = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    q = np.concatenate([np.cos(half), aa * k], axis=-1)
    return q


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Batched unit quaternion [..,4] to rotation matrix [..,3,3]."""
    q = np.asarray(q, dtype=np.float64)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1)
    return m.reshape(q.shape[:-1] + (3, 3))


def random_rigid(rng: np.random.Generator, translation_scale: float = 1.0) -> np.ndarray:
    """Uniform-ish random rigid 4x4 transform for property tests."""
    aa = rng.normal(size=3)
    aa = aa / np.linalg.norm(aa) * rng.uniform(0, np.pi)
    m = np.eye(4)
    m[:3, :3] = quat_to_matrix(axis_angle_to_quat(aa))
    m[:3, 3] = rng.normal(scale=translation_scale, size=3)
    return m
