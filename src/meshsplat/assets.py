"""Data model for the avatar pipeline: rigged templates, Gaussian textures,
motion, cameras, deformation maps, and the synthetic capsule rig generator.

All values are immutable after load by convention; loaders validate every
invariant and savers refuse to serialize invalid values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .container import ContainerError, require

MAGIC_TEMPLATE = b"MSPLTPL\0"
MAGIC_TEXTURE = b"MSPLGTX\0"
MAGIC_MOTION = b"MSPLMOT\0"
MAGIC_DMAP = b"MSPLDMP\0"

MAX_INFLUENCES = 8

# component label codes
BODY, CLOTH, HAIR, SHOES = 0, 1, 2, 3
LABEL_NAMES = {BODY: "body", CLOTH: "cloth", HAIR: "hair", SHOES: "shoes"}
LABEL_COLORS = {
    BODY: (0.75, 0.60, 0.50),
    CLOTH: (0.85, 0.10, 0.10),
    HAIR: (0.90, 0.75, 0.10),
    SHOES: (0.10, 0.15, 0.80),
}


class ValidationError(ValueError):
    """An asset value violates a type invariant."""


def _f32(a):
    return np.ascontiguousarray(a, dtype=np.float32)


# ---------------------------------------------------------------------------
# RiggedTemplate


@dataclass
class RiggedTemplate:
    """Canonical T-pose mesh with joint hierarchy and skinning weights.

    Joints are stored topologically: parent index of joint 0 is -1 and
    every other joint's parent precedes it. ``joint_rest`` holds local
    rest transforms (4x4, parent frame). Skin weights are a fixed-width
    sparse list: ``skin_idx`` padded with -1, ``skin_w`` padded with 0.
    """

    vertices: np.ndarray        # [V,3] f32, meters
    faces: np.ndarray           # [F,3] u32
    joint_parents: np.ndarray   # [J] i32
    joint_rest: np.ndarray      # [J,4,4] f32
    skin_idx: np.ndarray        # [V,8] i32
    skin_w: np.ndarray          # [V,8] f32
    component_labels: np.ndarray  # [V] u8
    seg_colors: np.ndarray      # [V,3] f32 in [0,1]
    expression_basis: np.ndarray  # [E,V,3] f32
    cloth_mask: np.ndarray      # [V] u8

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def num_joints(self) -> int:
        return self.joint_parents.shape[0]

    @property
    def num_expressions(self) -> int:
        return self.expression_basis.shape[0]

    @property
    def theta_dim(self) -> int:
        return 3 * (self.num_joints - 1)

    def dense_skin_weights(self) -> np.ndarray:
        """Expand the sparse influence list to a dense [V,J] matrix."""
        w = np.zeros((self.num_vertices, self.num_joints), dtype=np.float32)
        rows = np.arange(self.num_vertices)[:, None]
        idx = np.where(self.skin_idx < 0, 0, self.skin_idx)
        np.add.at(w, (np.broadcast_to(rows, idx.shape), idx), np.where(self.skin_idx < 0, 0.0, self.skin_w))
        return w

    def validate(self) -> None:
        v, f = self.vertices, self.faces
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValidationError(f"vertices must be [V,3], got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValidationError(f"faces must be [F,3], got {f.shape}")
        if f.size and int(f.max()) >= v.shape[0]:
            raise ValidationError(f"face index {int(f.max())} out of range (V={v.shape[0]})")
        if not np.isfinite(v).all():
            raise ValidationError("non-finite vertex positions")

        p = self.joint_parents
        if p.ndim != 1 or p.shape[0] < 1:
            raise ValidationError("need at least one joint")
        if p[0] != -1:
            raise ValidationError("joint 0 must be the root (parent -1)")
        if (p[1:] < 0).any() or (p[1:] >= np.arange(1, p.shape[0])).any():
            raise ValidationError("joint parents must precede their children (single-root tree)")
        if self.joint_rest.shape != (p.shape[0], 4, 4):
            raise ValidationError(f"joint_rest must be [J,4,4], got {self.joint_rest.shape}")

        V = v.shape[0]
        if self.skin_idx.shape != (V, MAX_INFLUENCES) or self.skin_w.shape != (V, MAX_INFLUENCES):
            raise ValidationError("skin arrays must be [V,8]")
        if (self.skin_w < 0).any() or (self.skin_w > 1 + 1e-6).any():
            raise ValidationError("skin weights must lie in [0,1]")
        if ((self.skin_idx < 0) & (self.skin_w != 0)).any():
            raise ValidationError("padded skin entries must carry zero weight")
        if (self.skin_idx >= self.num_joints).any():
            raise ValidationError("skin index out of joint range")
        sums = self.skin_w.sum(axis=1)
        bad = np.abs(sums - 1.0) > 1e-6
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"skin weight row {i} sums to {sums[i]:.8f}, expected 1")

        for name, arr, shape in (
            ("component_labels", self.component_labels, (V,)),
            ("seg_colors", self.seg_colors, (V, 3)),
            ("cloth_mask", self.cloth_mask, (V,)),
        ):
            if arr.shape != shape:
                raise ValidationError(f"{name} must be {shape}, got {arr.shape}")
        if self.expression_basis.ndim != 3 or self.expression_basis.shape[1:] != (V, 3):
            raise ValidationError(f"expression_basis must be [E,V,3], got {self.expression_basis.shape}")
        if (self.seg_colors < 0).any() or (self.seg_colors > 1).any():
            raise ValidationError("seg_colors must lie in [0,1]")
        if not np.array_equal(self.cloth_mask != 0, self.component_labels == CLOTH):
            raise ValidationError("cloth_mask must be 1 exactly on cloth-labelled vertices")


def save_template(template: RiggedTemplate, path) -> None:
    template.validate()
    container.write_sections(path, MAGIC_TEMPLATE, {
        "vertices": _f32(template.vertices),
        "faces": template.faces.astype(np.uint32),
        "joint_parents": template.joint_parents.astype(np.int32),
        "joint_rest": _f32(template.joint_rest),
        "skin_idx": template.skin_idx.astype(np.int32),
        "skin_w": _f32(template.skin_w),
        "component_labels": template.component_labels.astype(np.uint8),
        "seg_colors": _f32(template.seg_colors),
        "expression_basis": _f32(template.expression_basis),
        "cloth_mask": template.cloth_mask.astype(np.uint8),
    })


def load_template(path) -> RiggedTemplate:
    s = container.read_sections(path, MAGIC_TEMPLATE)
    t = RiggedTemplate(
        vertices=require(s, "vertices", path),
        faces=require(s, "faces", path),
        joint_parents=require(s, "joint_parents", path),
        joint_rest=require(s, "joint_rest", path),
        skin_idx=require(s, "skin_idx", path),
        skin_w=require(s, "skin_w", path),
        component_labels=require(s, "component_labels", path),
        seg_colors=require(s, "seg_colors", path),
        expression_basis=require(s, "expression_basis", path),
        cloth_mask=require(s, "cloth_mask", path),
    )
    try:
        t.validate()
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e
    return t


# ---------------------------------------------------------------------------
# GaussianTexture


def sh_terms(degree: int) -> int:
    return (degree + 1) ** 2


@dataclass
class GaussianTexture:
    """Per-Gaussian local attributes bound to parent triangles.

    Opacity is stored as a logit and scale as log so decoded values can
    never leave their valid ranges during optimization.
    """

    face_idx: np.ndarray      # [G] u32
    uv: np.ndarray            # [G,2] f32, barycentric (u,v), u,v>=0, u+v<=1
    gamma: np.ndarray         # [G] f32, offset along triangle normal
    rotation: np.ndarray      # [G,4] f32 unit quaternion (w,x,y,z)
    log_scale: np.ndarray     # [G,3] f32
    opacity_logit: np.ndarray  # [G] f32
    sh: np.ndarray            # [G,3,(deg+1)^2] f32
    num_faces: int            # parent template's face count
    sh_degree: int

    @property
    def num_gaussians(self) -> int:
        return self.face_idx.shape[0]

    def validate(self) -> None:
        if not 0 <= self.sh_degree <= 3:
            raise ValidationError(f"sh degree must be in [0,3], got {self.sh_degree}")
        G = self.face_idx.shape[0]
        for name, arr, shape in (
            ("uv", self.uv, (G, 2)),
            ("gamma", self.gamma, (G,)),
            ("rotation", self.rotation, (G, 4)),
            ("log_scale", self.log_scale, (G, 3)),
            ("opacity_logit", self.opacity_logit, (G,)),
        ):
            if arr.shape != shape:
                raise ValidationError(f"{name} must be {shape}, got {arr.shape}")
        if self.sh.shape != (G, 3, sh_terms(self.sh_degree)):
            raise ValidationError(
                f"sh must be [G,3,{sh_terms(self.sh_degree)}] for degree {self.sh_degree}, got {self.sh.shape}"
            )
        if G and int(self.face_idx.max()) >= self.num_faces:
            raise ValidationError(f"face index {int(self.face_idx.max())} out of range (F={self.num_faces})")
        if (self.uv < -1e-6).any() or (self.uv.sum(axis=1) > 1 + 1e-6).any():
            raise ValidationError("barycentric uv outside the unit triangle")
        norms = np.linalg.norm(self.rotation, axis=1)
        bad = np.abs(norms - 1.0) > 1e-6
        if bad.any():
            raise ValidationError(f"quaternion {int(np.argmax(bad))} has norm {norms[np.argmax(bad)]:.8f}")
        for name in ("gamma", "log_scale", "opacity_logit", "sh"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"non-finite values in {name}")


def save_texture(texture: GaussianTexture, path) -> None:
    texture.validate()
    container.write_sections(path, MAGIC_TEXTURE, {
        "face_idx": texture.face_idx.astype(np.uint32),
        "uv": _f32(texture.uv),
        "gamma": _f32(texture.gamma),
        "rotation": _f32(texture.rotation),
        "log_scale": _f32(texture.log_scale),
        "opacity_logit": _f32(texture.opacity_logit),
        "sh": _f32(texture.sh),
        "meta": np.array([texture.num_faces, texture.sh_degree], dtype=np.uint32),
    })


def load_texture(path) -> GaussianTexture:
    s = container.read_sections(path, MAGIC_TEXTURE)
    meta = require(s, "meta", path)
    t = GaussianTexture(
        face_idx=require(s, "face_idx", path),
        uv=require(s, "uv", path),
        gamma=require(s, "gamma", path),
        rotation=require(s, "rotation", path),
        log_scale=require(s, "log_scale", path),
        opacity_logit=require(s, "opacity_logit", path),
        sh=require(s, "sh", path),
        num_faces=int(meta[0]),
        sh_degree=int(meta[1]),
    )
    try:
        t.validate()
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e
    return t


# ---------------------------------------------------------------------------
# Cameras, frames, motion


PERSPECTIVE = 0
ORTHO_FRONT = 1
ORTHO_BACK = 2
_CAM_MODES = {"perspective": PERSPECTIVE, "ortho-front": ORTHO_FRONT, "ortho-back": ORTHO_BACK}
_CAM_MODE_NAMES = {v: k for k, v in _CAM_MODES.items()}


@dataclass
class Camera:
    """Pinhole or orthographic camera.

    Camera space is x-right, y-down, z-forward; ``extrinsic`` maps world
    to camera coordinates. For orthographic modes ``params`` holds the
    full view extents in meters (width, height); for perspective it holds
    (fx, fy, cx, cy) in pixels.
    """

    mode: str
    resolution: tuple[int, int]       # (width, height) pixels
    params: np.ndarray                # [4] f32
    extrinsic: np.ndarray             # [4,4] f32 world->camera
    near: float = 0.1
    far: float = 100.0

    def validate(self) -> None:
        if self.mode not in _CAM_MODES:
            raise ValidationError(f"unknown camera mode '{self.mode}'")
        w, h = self.resolution
        if w <= 0 or h <= 0:
            raise ValidationError("resolution must be positive")
        if self.mode == "perspective":
            if self.params[0] <= 0 or self.params[1] <= 0:
                raise ValidationError("focal lengths must be positive")
        else:
            if self.params[0] <= 0 or self.params[1] <= 0:
                raise ValidationError("orthographic extents must be positive")
        if not (0 < self.near < self.far):
            raise ValidationError("need 0 < near < far")
        if self.extrinsic.shape != (4, 4):
            raise ValidationError("extrinsic must be 4x4")


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """World->camera rigid transform with z-forward, y-down convention."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.asarray(up, dtype=np.float64))
    n = np.linalg.norm(right)
    if n < 1e-9:
        raise ValueError("view direction parallel to up vector")
    right /= n
    down = np.cross(fwd, right)
    m = np.eye(4, dtype=np.float64)
    m[0, :3], m[1, :3], m[2, :3] = right, down, fwd
    m[:3, 3] = -m[:3, :3] @ eye
    return m.astype(np.float32)


def perspective_camera(eye, target, resolution, focal_px=None, near=0.1, far=100.0) -> Camera:
    w, h = resolution
    if focal_px is None:
        focal_px = 1.2 * max(w, h)
    params = np.array([focal_px, focal_px, w / 2.0, h / 2.0], dtype=np.float32)
    return Camera("perspective", (int(w), int(h)), params, look_at(eye, target), near, far)


@dataclass
class FrameInput:
    """One animation frame: pose, expression, root transform, embedding."""

    theta: np.ndarray            # [3*(J-1)] f32, axis-angle per non-root joint
    epsilon: np.ndarray          # [E] f32
    root: np.ndarray             # [4,4] f32 rigid
    z: np.ndarray | None = None  # [Z] f32 per-frame embedding, optional

    def validate_for(self, template: RiggedTemplate) -> None:
        if self.theta.shape != (template.theta_dim,):
            raise ValidationError(
                f"theta must be [{template.theta_dim}] for {template.num_joints} joints, got {self.theta.shape}"
            )
        if self.epsilon.shape != (template.num_expressions,):
            raise ValidationError(
                f"epsilon must be [{template.num_expressions}], got {self.epsilon.shape}"
            )
        if self.root.shape != (4, 4):
            raise ValidationError("root must be 4x4")


@dataclass
class MotionSequence:
    """Ordered frames plus a camera reference for each frame."""

    frames: list[FrameInput]
    cameras: list[Camera]
    frame_cam: np.ndarray  # [T] u32 index into cameras

    def __len__(self) -> int:
        return len(self.frames)

    def camera_for(self, t: int) -> Camera:
        return self.cameras[int(self.frame_cam[t])]

    def validate(self) -> None:
        if not self.frames:
            raise ValidationError("motion sequence must be nonempty")
        if self.frame_cam.shape != (len(self.frames),):
            raise ValidationError("frame_cam must index every frame")
        if len(self.cameras) == 0 or int(self.frame_cam.max()) >= len(self.cameras):
            raise ValidationError("camera reference out of range")
        d0 = self.frames[0].theta.shape
        e0 = self.frames[0].epsilon.shape
        for i, f in enumerate(self.frames):
            if f.theta.shape != d0 or f.epsilon.shape != e0:
                raise ValidationError(f"frame {i} dimensions differ from frame 0")
        for c in self.cameras:
            c.validate()


def save_motion(motion: MotionSequence, path) -> None:
    motion.validate()
    sections = {
        "theta": _f32(np.stack([f.theta for f in motion.frames])),
        "epsilon": _f32(np.stack([f.epsilon for f in motion.frames])),
        "root": _f32(np.stack([f.root for f in motion.frames])),
        "frame_cam": motion.frame_cam.astype(np.uint32),
        "cam_mode": np.array([_CAM_MODES[c.mode] for c in motion.cameras], dtype=np.uint8),
        "cam_params": _f32(np.stack([c.params for c in motion.cameras])),
        "cam_extrinsic": _f32(np.stack([c.extrinsic for c in motion.cameras])),
        "cam_resolution": np.array([c.resolution for c in motion.cameras], dtype=np.uint32),
        "cam_clip": _f32([[c.near, c.far] for c in motion.cameras]),
    }
    if all(f.z is not None for f in motion.frames):
        sections["z"] = _f32(np.stack([f.z for f in motion.frames]))
    elif any(f.z is not None for f in motion.frames):
        raise ValidationError("either every frame or no frame may carry an embedding")
    container.write_sections(path, MAGIC_MOTION, sections)


def load_motion(path) -> MotionSequence:
    s = container.read_sections(path, MAGIC_MOTION)
    theta = require(s, "theta", path)
    epsilon = require(s, "epsilon", path)
    root = require(s, "root", path)
    zs = s.get("z")
    frames = [
        FrameInput(theta[t], epsilon[t], root[t], None if zs is None else zs[t])
        for t in range(theta.shape[0])
    ]
    cam_mode = require(s, "cam_mode", path)
    cam_params = require(s, "cam_params", path)
    cam_extr = require(s, "cam_extrinsic", path)
    cam_res = require(s, "cam_resolution", path)
    cam_clip = require(s, "cam_clip", path)
    cameras = [
        Camera(
            _CAM_MODE_NAMES[int(cam_mode[i])],
            (int(cam_res[i, 0]), int(cam_res[i, 1])),
            cam_params[i],
            cam_extr[i],
            float(cam_clip[i, 0]),
            float(cam_clip[i, 1]),
        )
        for i in range(cam_mode.shape[0])
    ]
    m = MotionSequence(frames, cameras, require(s, "frame_cam", path))
    try:
        m.validate()
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e
    return m


# ---------------------------------------------------------------------------
# Deformation maps


@dataclass
class DeformationMap:
    """Front/back orthographic attribute maps over the canonical body.

    ``bounds`` is (xmin, xmax, zmin, zmax) of the projected canonical
    bounding box including margin; pixel (r, c) centers map to
    x = xmin + (c+0.5)/W*(xmax-xmin), z = zmax - (r+0.5)/H*(zmax-zmin).
    """

    front: np.ndarray       # [H,W,3] f32
    back: np.ndarray        # [H,W,3] f32
    front_mask: np.ndarray  # [H,W] bool
    back_mask: np.ndarray   # [H,W] bool
    bounds: np.ndarray      # [4] f32

    def validate(self) -> None:
        h, w = self.front.shape[:2]
        if self.front.shape != (h, w, 3) or self.back.shape != (h, w, 3):
            raise ValidationError("front/back must be [H,W,3] and share resolution")
        if self.front_mask.shape != (h, w) or self.back_mask.shape != (h, w):
            raise ValidationError("masks must be [H,W]")
        if self.bounds.shape != (4,):
            raise ValidationError("bounds must be [4]")
        if not (np.isfinite(self.front).all() and np.isfinite(self.back).all()):
            raise ValidationError("non-finite map values")


def save_dmap(dmap: DeformationMap, path) -> None:
    dmap.validate()
    container.write_sections(path, MAGIC_DMAP, {
        "front": _f32(dmap.front),
        "back": _f32(dmap.back),
        "front_mask": dmap.front_mask.astype(np.uint8),
        "back_mask": dmap.back_mask.astype(np.uint8),
        "bounds": _f32(dmap.bounds),
    })


def load_dmap(path) -> DeformationMap:
    s = container.read_sections(path, MAGIC_DMAP)
    d = DeformationMap(
        front=require(s, "front", path),
        back=require(s, "back", path),
        front_mask=require(s, "front_mask", path).astype(bool),
        back_mask=require(s, "back_mask", path).astype(bool),
        bounds=require(s, "bounds", path),
    )
    try:
        d.validate()
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e
    return d


# ---------------------------------------------------------------------------
# Synthetic capsule rig
#
# Canonical frame: z up, body front toward +y. The body is a watertight
# capsule around the z axis spanning the joint chain; the optional cloth
# component is an open skirt tube around the lower half.


def _z_tent_weights(z, joint_z):
    """Smooth <=2-influence skin weights from height along the chain."""
    J = len(joint_z)
    dz = joint_z[1] - joint_z[0]
    zc = np.clip(z, joint_z[0], joint_z[-1])
    seg = np.clip(((zc - joint_z[0]) / dz).astype(np.int64), 0, J - 2)
    t = np.clip((zc - joint_z[seg]) / dz, 0.0, 1.0)
    idx = np.full((len(z), MAX_INFLUENCES), -1, dtype=np.int32)
    w = np.zeros((len(z), MAX_INFLUENCES), dtype=np.float32)
    idx[:, 0] = seg
    idx[:, 1] = seg + 1
    w[:, 0] = 1.0 - t
    w[:, 1] = t
    # exact padding rule: zero weight entries carry index -1
    zero1 = w[:, 1] == 0.0
    idx[zero1, 1] = -1
    return idx, w


def _capsule_mesh(radius, height, rings_per_segment, segments, n_around, cap_rings=3):
    """Closed capsule: cylinder [0,height] plus hemispherical caps."""
    ring_z = []
    ring_r = []
    # bottom cap (excluding apex), from near-apex to the seam
    for i in range(1, cap_rings + 1):
        a = 0.5 * np.pi * i / (cap_rings + 1)
        ring_z.append(-radius * np.cos(a))
        ring_r.append(radius * np.sin(a))
    # cylinder body
    n_cyl = rings_per_segment * segments + 1
    for i in range(n_cyl):
        ring_z.append(height * i / (n_cyl - 1))
        ring_r.append(radius)
    # top cap
    for i in range(1, cap_rings + 1):
        a = 0.5 * np.pi * i / (cap_rings + 1)
        ring_z.append(height + radius * np.sin(a))
        ring_r.append(radius * np.cos(a))

    phi = 2.0 * np.pi * np.arange(n_around) / n_around
    verts = [np.array([0.0, 0.0, -radius])]  # bottom apex
    for z, r in zip(ring_z, ring_r):
        verts.append(np.stack([r * np.cos(phi), r * np.sin(phi), np.full(n_around, z)], axis=1))
    verts.append(np.array([0.0, 0.0, height + radius]))  # top apex
    vertices = np.concatenate([verts[0][None], *verts[1:-1], verts[-1][None]], axis=0)

    faces = []
    n_rings = len(ring_z)
    apex_bot = 0
    apex_top = 1 + n_rings * n_around

    def rv(ring, k):  # vertex index of ring element
        return 1 + ring * n_around + (k % n_around)

    for k in range(n_around):  # bottom fan, outward = -z
        faces.append([apex_bot, rv(0, k + 1), rv(0, k)])
    for ring in range(n_rings - 1):
        for k in range(n_around):
            a, b = rv(ring, k), rv(ring, k + 1)
            c, d = rv(ring + 1, k), rv(ring + 1, k + 1)
            faces.append([a, b, d])
            faces.append([a, d, c])
    for k in range(n_around):  # top fan
        faces.append([apex_top, rv(n_rings - 1, k), rv(n_rings - 1, k + 1)])
    return vertices.astype(np.float32), np.asarray(faces, dtype=np.uint32)


def make_skirt_mesh(
    radius=0.12,
    height=1.7,
    waist_frac=0.50,
    hem_frac=0.22,
    waist_gap=0.015,
    hem_gap=0.045,
    n_levels=6,
    n_around=16,
) -> tuple[np.ndarray, np.ndarray]:
    """Open flared tube around the capsule's lower half (canonical pose)."""
    zs = np.linspace(waist_frac * height, hem_frac * height, n_levels)
    t = np.linspace(0.0, 1.0, n_levels)
    rs = radius + waist_gap + t * (hem_gap - waist_gap)
    phi = 2.0 * np.pi * np.arange(n_around) / n_around
    levels = [
        np.stack([r * np.cos(phi), r * np.sin(phi), np.full(n_around, z)], axis=1)
        for z, r in zip(zs, rs)
    ]
    verts = np.concatenate(levels, axis=0).astype(np.float32)
    faces = []
    for lv in range(n_levels - 1):
        for k in range(n_around):
            a = lv * n_around + k
            b = lv * n_around + (k + 1) % n_around
            c = (lv + 1) * n_around + k
            d = (lv + 1) * n_around + (k + 1) % n_around
            faces.append([a, b, d])
            faces.append([a, d, c])
    return verts, np.asarray(faces, dtype=np.uint32)


def make_capsule_rig(
    joints: int,
    cloth: bool = False,
    seed: int = 0,
    n_expressions: int = 10,
    radius: float = 0.12,
    height: float = 1.70,
    n_around: int = 16,
    rings_per_segment: int = 2,
) -> RiggedTemplate:
    """Deterministic synthetic rig: a skinned capsule chain, optional skirt.

    ``joints`` >= 2; 22 joints give the 63-dimensional pose vector used
    by the full-size configuration.
    """
    if joints < 2:
        raise ValueError("need at least 2 joints")
    rng = np.random.default_rng(seed)
    segments = joints - 1
    verts, faces = _capsule_mesh(radius, height, rings_per_segment, segments, n_around)
    labels = np.full(verts.shape[0], BODY, dtype=np.uint8)

    if cloth:
        sv, sf = make_skirt_mesh(radius=radius, height=height, n_around=n_around)
        faces = np.concatenate([faces, sf + verts.shape[0]], axis=0)
        verts = np.concatenate([verts, sv], axis=0)
        labels = np.concatenate([labels, np.full(sv.shape[0], CLOTH, dtype=np.uint8)])

    joint_z = np.array([height * j / segments for j in range(joints)], dtype=np.float64)
    parents = np.concatenate([[-1], np.arange(joints - 1)]).astype(np.int32)
    rest = np.tile(np.eye(4, dtype=np.float32), (joints, 1, 1))
    for j in range(1, joints):
        rest[j, 2, 3] = joint_z[j] - joint_z[j - 1]

    skin_idx, skin_w = _z_tent_weights(verts[:, 2].astype(np.float64), joint_z)

    colors = np.zeros((verts.shape[0], 3), dtype=np.float32)
    for code, rgb in LABEL_COLORS.items():
        colors[labels == code] = rgb

    # expression channels deform the head region (top of the capsule)
    head_lo = height * 0.92
    head_hi = height + radius
    ramp = np.clip((verts[:, 2] - head_lo) / (head_hi - head_lo), 0.0, 1.0).astype(np.float32)
    basis = np.zeros((n_expressions, verts.shape[0], 3), dtype=np.float32)
    for e in range(n_expressions):
        freq = rng.uniform(4.0, 12.0, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        amp = 0.004
        for axis in range(3):
            basis[e, :, axis] = amp * ramp * np.sin(freq[axis] * verts[:, 2] + phase[axis])

    t = RiggedTemplate(
        vertices=verts,
        faces=faces,
        joint_parents=parents,
        joint_rest=rest,
        skin_idx=skin_idx,
        skin_w=skin_w,
        component_labels=labels,
        seg_colors=colors,
        expression_basis=basis,
        cloth_mask=(labels == CLOTH).astype(np.uint8),
    )
    t.validate()
    return t


def make_swing_motion(
    template: RiggedTemplate,
    n_frames: int,
    seed: int = 0,
    resolution=(128, 128),
    amplitude: float = 0.25,
    camera_distance: float = 4.0,
    n_cameras: int = 1,
) -> MotionSequence:
    """Smooth sinusoidal joint swings with front-facing cameras.

    Utility for tests and the training harness; poses stay inside a
    small-angle band so the capsule never self-intersects.
    """
    rng = np.random.default_rng(seed)
    D = template.theta_dim
    amp = amplitude * rng.uniform(0.2, 1.0, size=D).astype(np.float32)
    freq = rng.uniform(0.5, 2.0, size=D).astype(np.float32)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=D).astype(np.float32)
    E = template.num_expressions
    eamp = 0.5 * rng.uniform(0.2, 1.0, size=E).astype(np.float32)
    efreq = rng.uniform(0.5, 2.0, size=E).astype(np.float32)
    ephase = rng.uniform(0.0, 2.0 * np.pi, size=E).astype(np.float32)

    zmid = 0.5 * float(template.vertices[:, 2].max() + template.vertices[:, 2].min())
    cams = []
    for c in range(n_cameras):
        ang = 2.0 * np.pi * c / max(n_cameras, 1)
        eye = (camera_distance * np.sin(ang), camera_distance * np.cos(ang), zmid)
        cams.append(perspective_camera(eye, (0.0, 0.0, zmid), resolution, near=0.1, far=20.0))

    frames = []
    for t in range(n_frames):
        u = t / max(n_frames - 1, 1)
        theta = amp * np.sin(2.0 * np.pi * freq * u + phase)
        eps = eamp * np.sin(2.0 * np.pi * efreq * u + ephase)
        frames.append(FrameInput(theta.astype(np.float32), eps.astype(np.float32), np.eye(4, dtype=np.float32)))
    frame_cam = (np.arange(n_frames) % len(cams)).astype(np.uint32)
    m = MotionSequence(frames, cams, frame_cam)
    m.validate()
    return m


def mesh_only_template(verts: np.ndarray, faces: np.ndarray, label: int = BODY) -> RiggedTemplate:
    """Wrap a bare mesh as a single-joint template (mesh carrier)."""
    V = verts.shape[0]
    skin_idx = np.full((V, MAX_INFLUENCES), -1, dtype=np.int32)
    skin_w = np.zeros((V, MAX_INFLUENCES), dtype=np.float32)
    skin_idx[:, 0] = 0
    skin_w[:, 0] = 1.0
    labels = np.full(V, label, dtype=np.uint8)
    colors = np.zeros((V, 3), dtype=np.float32)
    colors[:] = LABEL_COLORS[label]
    t = RiggedTemplate(
        vertices=_f32(verts),
        faces=faces.astype(np.uint32),
        joint_parents=np.array([-1], dtype=np.int32),
        joint_rest=np.eye(4, dtype=np.float32)[None],
        skin_idx=skin_idx,
        skin_w=skin_w,
        component_labels=labels,
        seg_colors=colors,
        expression_basis=np.zeros((0, V, 3), dtype=np.float32),
        cloth_mask=(labels == CLOTH).astype(np.uint8),
    )
    t.validate()
    return t


__all__ = [
    "RiggedTemplate", "GaussianTexture", "FrameInput", "MotionSequence", "Camera",
    "DeformationMap", "ValidationError", "ContainerError",
    "save_template", "load_template", "save_texture", "load_texture",
    "save_motion", "load_motion", "save_dmap", "load_dmap",
    "make_capsule_rig", "make_skirt_mesh", "make_swing_motion", "mesh_only_template",
    "perspective_camera", "look_at", "sh_terms",
    "BODY", "CLOTH", "HAIR", "SHOES", "LABEL_NAMES", "LABEL_COLORS",
]
