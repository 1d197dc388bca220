"""Student-side animation stack: positional encoding, the dual-MLP
non-rigid deformation field (cloth branch on cloth vertices only, body
branch everywhere), mapping networks and blend-shape compensation, and
the per-frame pose-to-image pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container, splat
from .assets import (
    Camera,
    FrameInput,
    GaussianTexture,
    RiggedTemplate,
    ValidationError,
)
from .gstexture import WorldGaussians, local_to_world
from .skinning import PosedSkeleton, lbs_forward, pose_skeleton
from .splat import RenderTarget

MAGIC_BUNDLE = b"MSPLSTU\0"

PE_BANDS = 6
EMBED_DIM = 32
HIDDEN = 128
LAYERS = 5
MAP_HIDDEN = 64
N_HEAD = 8
N_BODY = 20


def positional_encode(v: np.ndarray, bands: int = PE_BANDS) -> np.ndarray:
    """Sinusoidal encoding with the raw coordinate included.

    [v, sin(2^0 pi v), cos(2^0 pi v), ..., sin(2^(L-1) pi v), cos(...)];
    output dim is d * (1 + 2L).
    """
    if bands < 0:
        raise ValueError("bands must be >= 0")
    v = np.atleast_2d(v)
    parts = [v]
    for l in range(bands):
        w = (2.0 ** l) * np.pi * v
        parts.append(np.sin(w))
        parts.append(np.cos(w))
    return np.concatenate(parts, axis=-1)


def pe_dim(d: int, bands: int) -> int:
    return d * (1 + 2 * bands)


# ---------------------------------------------------------------------------
# MLPs stored as flat (weight, bias) lists


def mlp_init(dims: list[int], rng: np.random.Generator, zero_last: bool = True):
    """He-uniform layers; the output layer starts at zero so a fresh
    network is an exact identity residual."""
    layers = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1])).astype(np.float32)
        b = np.zeros(dims[i + 1], dtype=np.float32)
        if zero_last and i == len(dims) - 2:
            w[:] = 0.0
        layers.append((w, b))
    return layers


def mlp_activations(layers, x: np.ndarray) -> list[np.ndarray]:
    """Each layer's output of the ReLU MLP (the last is linear), in float32,
    or in float64 for float64 weights."""
    dtype = np.promote_types(layers[0][0].dtype, np.float32)
    h = x.astype(dtype)
    out = []
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = h @ w.astype(dtype) + b.astype(dtype)
        if i != last:
            h = np.maximum(h, 0.0)
        out.append(h)
    return out


def mlp_forward(layers, x: np.ndarray) -> np.ndarray:
    """ReLU MLP; weights may be stored in half precision."""
    return mlp_activations(layers, x)[-1]


@dataclass
class StudentBundle:
    """Trainable student state: deformation MLPs, mapping nets, blend
    shapes, and the per-frame embedding table."""

    body_mlp: list            # S_b, 5 layers
    cloth_mlp: list           # S_c, 5 layers, run on cloth vertices only
    head_map: list            # expression -> head coefficients
    body_map: list            # pose -> body coefficients
    blend_pos: np.ndarray     # [G,3,n]
    blend_col: np.ndarray     # [G,3,n]
    z_table: np.ndarray       # [T,embed_dim]
    pe_bands: int = PE_BANDS
    theta_dim: int = 63
    eps_dim: int = 10
    embed_dim: int = EMBED_DIM
    n_head: int = N_HEAD
    n_body: int = N_BODY
    precision: str = "fp32"

    @property
    def input_dim(self) -> int:
        return pe_dim(3, self.pe_bands) + self.theta_dim + self.embed_dim

    def validate_for(self, template: RiggedTemplate, texture: GaussianTexture | None = None) -> None:
        if self.theta_dim != template.theta_dim:
            raise ValidationError(
                f"bundle pose dim {self.theta_dim} != template {template.theta_dim}"
            )
        if self.eps_dim != template.num_expressions:
            raise ValidationError(
                f"bundle expression dim {self.eps_dim} != template {template.num_expressions}"
            )
        if texture is not None and self.blend_pos.shape[0] != texture.num_gaussians:
            raise ValidationError(
                f"blend shapes cover {self.blend_pos.shape[0]} Gaussians, texture has {texture.num_gaussians}"
            )


def init_bundle(
    template: RiggedTemplate,
    texture: GaussianTexture,
    n_frames: int,
    seed: int = 0,
) -> StudentBundle:
    """A fresh student of the module's sizes (``HIDDEN``, ``LAYERS``,
    ``MAP_HIDDEN``, ``N_HEAD``, ``N_BODY``, ``EMBED_DIM``, ``PE_BANDS``)."""
    rng = np.random.default_rng(seed)
    in_dim = pe_dim(3, PE_BANDS) + template.theta_dim + EMBED_DIM
    dims = [in_dim] + [HIDDEN] * (LAYERS - 1) + [3]
    G = texture.num_gaussians
    n = N_HEAD + N_BODY
    # deform MLPs start as the identity residual (zero output layer); the
    # mapping nets keep live outputs so the bilinear blend-shape product
    # U @ z has a gradient path from the start (U, C hold the zeros)
    return StudentBundle(
        body_mlp=mlp_init(dims, rng),
        cloth_mlp=mlp_init(dims, rng),
        head_map=mlp_init([template.num_expressions, MAP_HIDDEN, N_HEAD], rng, zero_last=False),
        body_map=mlp_init([template.theta_dim, MAP_HIDDEN, N_BODY], rng, zero_last=False),
        blend_pos=np.zeros((G, 3, n), dtype=np.float32),
        blend_col=np.zeros((G, 3, n), dtype=np.float32),
        z_table=np.zeros((max(n_frames, 1), EMBED_DIM), dtype=np.float32),
        theta_dim=template.theta_dim,
        eps_dim=template.num_expressions,
    )


def resolve_embedding(bundle: StudentBundle, frame: FrameInput, frame_index: int | None = None) -> np.ndarray:
    """Frame embedding: the frame's own, its table entry, or z_0 for
    novel poses."""
    if frame.z is not None:
        return frame.z.astype(np.float32)
    if frame_index is not None and 0 <= frame_index < bundle.z_table.shape[0]:
        return bundle.z_table[frame_index].astype(np.float32)
    return bundle.z_table[0].astype(np.float32)


def student_inputs(bundle: StudentBundle, template: RiggedTemplate, frame: FrameInput, z: np.ndarray) -> np.ndarray:
    """Per-vertex network input: encoded canonical position, pose, embedding.
    Float32, or float64 for a float64 ``z``."""
    if frame.theta.shape[0] != bundle.theta_dim:
        raise ValidationError(f"theta dim {frame.theta.shape[0]} != bundle {bundle.theta_dim}")
    if z.shape[0] != bundle.embed_dim:
        raise ValidationError(f"embedding dim {z.shape[0]} != bundle {bundle.embed_dim}")
    pe = positional_encode(template.vertices, bundle.pe_bands)
    V = pe.shape[0]
    theta = np.broadcast_to(frame.theta, (V, bundle.theta_dim))
    zz = np.broadcast_to(z, (V, bundle.embed_dim))
    return np.concatenate([pe, theta, zz], axis=1).astype(np.promote_types(z.dtype, np.float32))


def student_deform(
    bundle: StudentBundle,
    template: RiggedTemplate,
    frame: FrameInput,
    frame_index: int | None = None,
) -> np.ndarray:
    """Canonical-space non-rigid deltas: the body branch at every vertex,
    plus the cloth branch, which runs on the cloth-flagged rows only."""
    z = resolve_embedding(bundle, frame, frame_index)
    g = student_inputs(bundle, template, frame, z)
    delta = mlp_forward(bundle.body_mlp, g)
    rows = np.flatnonzero(template.cloth_mask)
    delta[rows] += mlp_forward(bundle.cloth_mlp, g[rows])
    return delta


def blend_coeffs(bundle: StudentBundle, frame: FrameInput) -> np.ndarray:
    """Head coefficients from expression, body coefficients from pose,
    concatenated head-first."""
    if frame.epsilon.shape[0] != bundle.eps_dim:
        raise ValidationError(f"epsilon dim {frame.epsilon.shape[0]} != bundle {bundle.eps_dim}")
    if frame.theta.shape[0] != bundle.theta_dim:
        raise ValidationError(f"theta dim {frame.theta.shape[0]} != bundle {bundle.theta_dim}")
    z_h = mlp_forward(bundle.head_map, frame.epsilon[None])[0]
    z_b = mlp_forward(bundle.body_map, frame.theta[None])[0]
    return np.concatenate([z_h, z_b]).astype(np.float32)


def blend_shape_apply(shapes: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """delta = shapes @ coeffs per row; linear in both, in their precision."""
    if shapes.shape[-1] != coeffs.shape[-1]:
        raise ValidationError(f"blend dims differ: {shapes.shape[-1]} vs {coeffs.shape[-1]}")
    return np.einsum("gcn,n->gc", shapes, coeffs)


@dataclass
class PosedFrame:
    """The pose-and-bind half of a frame: everything but the render."""

    posed_verts: np.ndarray       # [V,3] f32
    skeleton: PosedSkeleton
    world: WorldGaussians


@dataclass
class AnimateResult:
    """A rendered frame and the world Gaussians it was splatted from."""

    target: RenderTarget
    world: WorldGaussians


def expression_offsets(template: RiggedTemplate, epsilon: np.ndarray) -> np.ndarray:
    if template.num_expressions == 0:
        return np.zeros_like(template.vertices)
    return np.einsum("e,evd->vd", epsilon.astype(np.float64), template.expression_basis.astype(np.float64)).astype(np.float32)


def pose_frame(
    template: RiggedTemplate,
    texture: GaussianTexture,
    frame: FrameInput,
    camera: Camera,
    vertex_delta: np.ndarray | None = None,
    delta_u: np.ndarray | None = None,
    delta_c: np.ndarray | None = None,
) -> PosedFrame:
    """Pose and bind one frame: expression offsets plus ``vertex_delta``
    in canonical space, skinning, then the triangle-frame binding of
    ``local_to_world`` with the optional blend-shape residuals. Rendering
    and training both build a frame through here, in float32, or in
    float64 for a float64 ``vertex_delta``.
    """
    frame.validate_for(template)
    delta = expression_offsets(template, frame.epsilon)
    if vertex_delta is not None:
        delta = delta + vertex_delta
    skeleton = pose_skeleton(template, frame)
    posed = lbs_forward(template, skeleton, delta)
    world = local_to_world(
        texture, posed, template.faces,
        delta_u=delta_u, delta_c=delta_c, **splat.camera_view(camera),
    )
    return PosedFrame(posed_verts=posed, skeleton=skeleton, world=world)


def animate_frame(
    template: RiggedTemplate,
    texture: GaussianTexture,
    bundle: StudentBundle | None,
    frame: FrameInput,
    camera: Camera,
    channels=("color", "alpha"),
    frame_index: int | None = None,
    sort_mode: str = "exact_f32",
) -> AnimateResult:
    """Full per-frame pipeline: the student's non-rigid deltas and
    blend-shape residuals (none without a bundle), ``pose_frame``, then
    splatting.
    """
    frame.validate_for(template)
    delta = delta_u = delta_c = None
    if bundle is not None:
        bundle.validate_for(template, texture)
        delta = student_deform(bundle, template, frame, frame_index)
        coeffs = blend_coeffs(bundle, frame)
        delta_u = blend_shape_apply(bundle.blend_pos, coeffs)
        delta_c = blend_shape_apply(bundle.blend_col, coeffs)

    posed = pose_frame(template, texture, frame, camera, delta, delta_u, delta_c)
    target = splat.render(posed.world, camera, channels=channels, sort_mode=sort_mode)
    return AnimateResult(target=target, world=posed.world)


# ---------------------------------------------------------------------------
# bundle file format


def _net_sections(prefix, layers, out, dtype):
    for i, (w, b) in enumerate(layers):
        out[f"{prefix}.{i}.w"] = np.ascontiguousarray(w, dtype=dtype)
        out[f"{prefix}.{i}.b"] = np.ascontiguousarray(b, dtype=dtype)


def _net_from_sections(prefix, sections):
    layers = []
    i = 0
    while f"{prefix}.{i}.w" in sections:
        layers.append((sections[f"{prefix}.{i}.w"], sections[f"{prefix}.{i}.b"]))
        i += 1
    if not layers:
        raise container.ContainerError(f"missing section '{prefix}.0.w'")
    return layers


def save_bundle(bundle: StudentBundle, path) -> None:
    dtype = np.float16 if bundle.precision == "fp16" else np.float32
    sections: dict[str, np.ndarray] = {}
    _net_sections("sb", bundle.body_mlp, sections, dtype)
    _net_sections("sc", bundle.cloth_mlp, sections, dtype)
    _net_sections("maph", bundle.head_map, sections, dtype)
    _net_sections("mapb", bundle.body_map, sections, dtype)
    sections["blend_pos"] = np.ascontiguousarray(bundle.blend_pos, dtype=np.float32)
    sections["blend_col"] = np.ascontiguousarray(bundle.blend_col, dtype=np.float32)
    sections["z_table"] = np.ascontiguousarray(bundle.z_table, dtype=np.float32)
    sections["meta"] = np.array(
        [bundle.pe_bands, bundle.theta_dim, bundle.eps_dim, bundle.embed_dim,
         bundle.n_head, bundle.n_body, 1 if bundle.precision == "fp16" else 0],
        dtype=np.int32,
    )
    container.write_sections(path, MAGIC_BUNDLE, sections)


def load_bundle(path) -> StudentBundle:
    s = container.read_sections(path, MAGIC_BUNDLE)
    meta = container.require(s, "meta", path)
    return StudentBundle(
        body_mlp=_net_from_sections("sb", s),
        cloth_mlp=_net_from_sections("sc", s),
        head_map=_net_from_sections("maph", s),
        body_map=_net_from_sections("mapb", s),
        blend_pos=container.require(s, "blend_pos", path),
        blend_col=container.require(s, "blend_col", path),
        z_table=container.require(s, "z_table", path),
        pe_bands=int(meta[0]),
        theta_dim=int(meta[1]),
        eps_dim=int(meta[2]),
        embed_dim=int(meta[3]),
        n_head=int(meta[4]),
        n_body=int(meta[5]),
        precision="fp16" if meta[6] else "fp32",
    )
