"""Skeletal kinematics, forward/inverse linear blend skinning, and the
clothed-template builder (skinning-weight transfer plus inverse skinning
of non-body components back to the canonical T-pose).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assets
from .assets import RiggedTemplate, FrameInput, ValidationError, MAX_INFLUENCES
from .rotations import axis_angle_to_quat, quat_to_matrix

DEFAULT_TRANSFER_BAND = 0.05  # meters
SMOOTH_LAMBDA = 0.5
COND_LIMIT = 1e8      # inverse skinning flags blended matrices above this condition number
CLOSEST_CHUNK = 128   # query points per batch of the closest-triangle search


@dataclass
class PosedSkeleton:
    """Per-joint world transforms composed along the joint tree."""

    world: np.ndarray  # [J,4,4] f32

    def validate(self) -> None:
        r = self.world[:, :3, :3].astype(np.float64)
        rtr = np.einsum("jab,jac->jbc", r, r)
        err = np.abs(rtr - np.eye(3)).max()
        if err > 1e-5:
            raise ValidationError(f"joint rotation not orthonormal (max deviation {err:.2e})")
        det = np.linalg.det(r)
        if np.abs(det - 1.0).max() > 1e-5:
            raise ValidationError("joint rotation determinant must be +1")


def rest_world_transforms(template: RiggedTemplate) -> np.ndarray:
    """World transforms of the rest pose (identity root, zero pose)."""
    J = template.num_joints
    out = np.empty((J, 4, 4), dtype=np.float64)
    rest = template.joint_rest.astype(np.float64)
    out[0] = rest[0]
    for j in range(1, J):
        out[j] = out[template.joint_parents[j]] @ rest[j]
    return out


def pose_skeleton(template: RiggedTemplate, frame: FrameInput) -> PosedSkeleton:
    """Forward kinematics: local axis-angle rotations composed down the tree.

    The root joint takes ``frame.root`` in place of a pose rotation;
    synthetic rigs keep an identity root rest transform so the root world
    transform equals ``frame.root`` exactly.
    """
    J = template.num_joints
    if frame.theta.shape != (3 * (J - 1),):
        raise ValidationError(
            f"theta must have {3 * (J - 1)} entries for {J} joints, got {frame.theta.shape[0]}"
        )
    aa = frame.theta.reshape(J - 1, 3)
    rots = quat_to_matrix(axis_angle_to_quat(aa))  # [J-1,3,3]

    rest = template.joint_rest.astype(np.float64)
    out = np.empty((J, 4, 4), dtype=np.float64)
    out[0] = frame.root.astype(np.float64) @ rest[0]
    for j in range(1, J):
        local = rest[j].copy()
        local[:3, :3] = local[:3, :3] @ rots[j - 1]
        out[j] = out[template.joint_parents[j]] @ local
    sk = PosedSkeleton(out.astype(np.float32))
    sk.validate()
    return sk


def skinning_matrices(template: RiggedTemplate, skeleton: PosedSkeleton) -> np.ndarray:
    """Per-joint canonical->world matrices M_j = world_j @ inv(rest_world_j)."""
    rest = rest_world_transforms(template)
    inv = np.empty_like(rest)
    r = rest[:, :3, :3]
    t = rest[:, :3, 3]
    inv[:, :3, :3] = np.swapaxes(r, 1, 2)
    inv[:, :3, 3] = -np.einsum("jba,jb->ja", r, t)
    inv[:, 3, :3] = 0.0
    inv[:, 3, 3] = 1.0
    return (skeleton.world.astype(np.float64) @ inv).astype(np.float32)


def blend_vertex_matrices(
    skin_idx: np.ndarray, skin_w: np.ndarray, matrices: np.ndarray
) -> np.ndarray:
    """Blend joint matrices into one affine matrix per vertex."""
    m = matrices.astype(np.float64)
    idx = np.where(skin_idx < 0, 0, skin_idx)
    w = np.where(skin_idx < 0, 0.0, skin_w).astype(np.float64)
    blended = np.einsum("vk,vkab->vab", w, m[idx])
    return blended


def vertex_transforms(template: RiggedTemplate, skeleton: PosedSkeleton) -> np.ndarray:
    """Per-vertex canonical->world affine matrices [V,4,4] (float64): the
    skin-weighted blend of the joint skinning matrices."""
    return blend_vertex_matrices(template.skin_idx, template.skin_w, skinning_matrices(template, skeleton))


def lbs_forward(
    template: RiggedTemplate,
    skeleton: PosedSkeleton,
    per_vertex_delta: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pose canonical vertices: sum_j w_ij M_j (v_i + delta_i); float64 for
    a float64 delta. Returns (posed [V,3], the ``vertex_transforms`` [V,4,4]
    that posed them), so a caller that also needs the per-vertex matrices
    does not build them again."""
    v = template.vertices.astype(np.float64)
    if per_vertex_delta is not None:
        if per_vertex_delta.shape != v.shape:
            raise ValidationError(
                f"delta must be {v.shape}, got {per_vertex_delta.shape}"
            )
        v = v + per_vertex_delta.astype(np.float64)
    A = vertex_transforms(template, skeleton)
    posed = np.einsum("vab,vb->va", A[:, :3, :3], v) + A[:, :3, 3]
    return posed.astype(np.float32 if per_vertex_delta is None else np.result_type(np.float32, per_vertex_delta)), A


def lbs_inverse(
    template: RiggedTemplate,
    skeleton: PosedSkeleton,
    points: np.ndarray,
    skin_idx: np.ndarray,
    skin_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map posed points back to canonical space through the blended matrices.

    Returns (canonical_points, ill_flags); a point is flagged when its
    blended matrix has condition number above ``COND_LIMIT``. Flagged
    points still receive a least-squares solution.
    """
    A = blend_vertex_matrices(skin_idx, skin_w, skinning_matrices(template, skeleton))
    R = A[:, :3, :3]
    t = A[:, :3, 3]
    rhs = points.astype(np.float64) - t
    cond = np.linalg.cond(R)
    ill = ~np.isfinite(cond) | (cond > COND_LIMIT)
    out = np.empty_like(rhs)
    ok = ~ill
    if ok.any():
        out[ok] = np.linalg.solve(R[ok], rhs[ok][..., None])[..., 0]
    if ill.any():
        out[ill] = np.einsum("vab,vb->va", np.linalg.pinv(R[ill]), rhs[ill])
    return out.astype(np.float32), ill


# ---------------------------------------------------------------------------
# closest point on a triangle soup


def _closest_on_triangles(p: np.ndarray, a, b, c):
    """Closest point to ``p`` on each triangle (a, b, c), all [N,3].

    Returns (sq_dist, bary) with bary the weights of (a, b, c).
    Region classification follows the standard Voronoi-region approach.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("nd,nd->n", ab, ap)
    d2 = np.einsum("nd,nd->n", ac, ap)
    bp = p - b
    d3 = np.einsum("nd,nd->n", ab, bp)
    d4 = np.einsum("nd,nd->n", ac, bp)
    cp = p - c
    d5 = np.einsum("nd,nd->n", ab, cp)
    d6 = np.einsum("nd,nd->n", ac, cp)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    n = p.shape[0]
    bary = np.empty((n, 3))
    denom = va + vb + vc
    denom = np.where(denom == 0.0, 1.0, denom)
    v = vb / denom
    w = vc / denom
    bary[:, 0] = 1.0 - v - w
    bary[:, 1] = v
    bary[:, 2] = w

    # edge BC
    t_bc = (d4 - d3) / np.where((d4 - d3) + (d5 - d6) == 0.0, 1.0, (d4 - d3) + (d5 - d6))
    m = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    bary[m] = np.stack([np.zeros_like(t_bc), 1.0 - t_bc, t_bc], axis=1)[m]
    # edge AC
    t_ac = d2 / np.where(d2 - d6 == 0.0, 1.0, d2 - d6)
    m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    bary[m] = np.stack([1.0 - t_ac, np.zeros_like(t_ac), t_ac], axis=1)[m]
    # edge AB
    t_ab = d1 / np.where(d1 - d3 == 0.0, 1.0, d1 - d3)
    m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    bary[m] = np.stack([1.0 - t_ab, t_ab, np.zeros_like(t_ab)], axis=1)[m]
    # vertices
    m = (d1 <= 0) & (d2 <= 0)
    bary[m] = (1.0, 0.0, 0.0)
    m = (d3 >= 0) & (d4 <= d3)
    bary[m] = (0.0, 1.0, 0.0)
    m = (d6 >= 0) & (d5 <= d6)
    bary[m] = (0.0, 0.0, 1.0)

    closest = bary[:, :1] * a + bary[:, 1:2] * b + bary[:, 2:] * c
    sq = np.einsum("nd,nd->n", p - closest, p - closest)
    return sq, bary


def closest_surface_points(points: np.ndarray, verts: np.ndarray, faces: np.ndarray):
    """For each query point: (distance, face index, barycentric weights)."""
    points = points.astype(np.float64)
    tri = verts.astype(np.float64)[faces.astype(np.int64)]  # [F,3,3]
    F = tri.shape[0]
    n = points.shape[0]
    best_d = np.full(n, np.inf)
    best_f = np.zeros(n, dtype=np.int64)
    best_b = np.zeros((n, 3))
    for s in range(0, n, CLOSEST_CHUNK):
        p = points[s : s + CLOSEST_CHUNK]  # [m,3]
        m = p.shape[0]
        pp = np.repeat(p, F, axis=0)
        a = np.tile(tri[:, 0], (m, 1))
        b = np.tile(tri[:, 1], (m, 1))
        c = np.tile(tri[:, 2], (m, 1))
        sq, bary = _closest_on_triangles(pp, a, b, c)
        sq = sq.reshape(m, F)
        bary = bary.reshape(m, F, 3)
        k = np.argmin(sq, axis=1)
        rows = np.arange(m)
        best_d[s : s + CLOSEST_CHUNK] = np.sqrt(sq[rows, k])
        best_f[s : s + CLOSEST_CHUNK] = k
        best_b[s : s + CLOSEST_CHUNK] = bary[rows, k]
    return best_d, best_f, best_b


def transfer_skin_weights(
    body: RiggedTemplate,
    garment_verts: np.ndarray,
    garment_faces: np.ndarray,
    body_verts: np.ndarray | None = None,
    band: float = DEFAULT_TRANSFER_BAND,
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric closest-triangle weight transfer plus one Laplacian
    smoothing pass over the garment's edges.

    ``body_verts`` overrides the body's canonical vertices when the
    garment is given in a posed reference frame. Vertices farther than
    ``band`` from the body surface are an error, not a guess.
    """
    if not 0 < band < np.inf:
        raise ValidationError(f"weight-transfer band must be finite and > 0, got {band}")
    surf = body.vertices if body_verts is None else body_verts
    dist, face, bary = closest_surface_points(garment_verts, surf, body.faces)
    far = dist > band
    if far.any():
        bad = np.nonzero(far)[0]
        raise ValidationError(
            f"{bad.size} garment vertices farther than {band} m from the body surface: "
            f"indices {bad[:16].tolist()}{'...' if bad.size > 16 else ''}"
        )

    dense_body = body.dense_skin_weights().astype(np.float64)  # [Vb,J]
    corners = body.faces.astype(np.int64)[face]  # [N,3]
    rows = np.einsum("nk,nkj->nj", bary, dense_body[corners])  # [N,J]

    if garment_faces.size:
        nbr = [set() for _ in range(garment_verts.shape[0])]
        for f in garment_faces.astype(np.int64):
            for i in range(3):
                nbr[f[i]].add(int(f[(i + 1) % 3]))
                nbr[f[i]].add(int(f[(i + 2) % 3]))
        smoothed = rows.copy()
        for i, ns in enumerate(nbr):
            if ns:
                smoothed[i] = (1.0 - SMOOTH_LAMBDA) * rows[i] + SMOOTH_LAMBDA * rows[list(ns)].mean(axis=0)
        rows = smoothed

    rows = np.maximum(rows, 0.0)
    rows /= rows.sum(axis=1, keepdims=True)

    # keep the top influences, renormalize
    order = np.argsort(-rows, axis=1)[:, :MAX_INFLUENCES]
    k = order.shape[1]
    n = garment_verts.shape[0]
    skin_idx = np.full((n, MAX_INFLUENCES), -1, dtype=np.int32)
    skin_w = np.zeros((n, MAX_INFLUENCES), dtype=np.float32)
    picked = np.take_along_axis(rows, order, axis=1)
    picked /= picked.sum(axis=1, keepdims=True)
    keep = picked > 0.0
    skin_idx[:, :k][keep] = order.astype(np.int32)[keep]
    skin_w[:, :k][keep] = picked.astype(np.float32)[keep]
    # exact row sums despite f32 rounding
    skin_w[np.arange(n), 0] += (1.0 - skin_w.sum(axis=1)).astype(np.float32)
    return skin_idx, skin_w


def build_clothed_template(
    body: RiggedTemplate,
    components: list[tuple[np.ndarray, np.ndarray, int]],
    ref_frame: FrameInput,
    band: float = DEFAULT_TRANSFER_BAND,
) -> RiggedTemplate:
    """Attach non-body components given in a reference pose.

    Each component is (vertices, faces, label). Weights are transferred
    from the body posed at ``ref_frame``; component vertices are then
    inverse-skinned back to the canonical T-pose and the meshes merged.
    """
    if not components:
        return body

    skeleton = pose_skeleton(body, ref_frame)
    posed_body, _ = lbs_forward(body, skeleton)

    verts = [body.vertices]
    faces = [body.faces]
    labels = [body.component_labels]
    colors = [body.seg_colors]
    skin_idx = [body.skin_idx]
    skin_w = [body.skin_w]
    offset = body.num_vertices
    extra = 0
    for comp_verts, comp_faces, label in components:
        idx, w = transfer_skin_weights(body, comp_verts, comp_faces, body_verts=posed_body, band=band)
        canonical, ill = lbs_inverse(body, skeleton, comp_verts, idx, w)
        if ill.any():
            raise ValidationError(
                f"inverse skinning ill-conditioned for component vertices {np.nonzero(ill)[0][:16].tolist()}"
            )
        verts.append(canonical)
        faces.append(comp_faces.astype(np.uint32) + offset)
        labels.append(np.full(comp_verts.shape[0], label, dtype=np.uint8))
        col = np.zeros((comp_verts.shape[0], 3), dtype=np.float32)
        col[:] = assets.LABEL_COLORS[label]
        colors.append(col)
        skin_idx.append(idx)
        skin_w.append(w)
        offset += comp_verts.shape[0]
        extra += comp_verts.shape[0]

    E = body.num_expressions
    basis = np.concatenate(
        [body.expression_basis, np.zeros((E, extra, 3), dtype=np.float32)], axis=1
    )
    merged = RiggedTemplate(
        vertices=np.concatenate(verts).astype(np.float32),
        faces=np.concatenate(faces),
        joint_parents=body.joint_parents,
        joint_rest=body.joint_rest,
        skin_idx=np.concatenate(skin_idx),
        skin_w=np.concatenate(skin_w),
        component_labels=np.concatenate(labels),
        seg_colors=np.concatenate(colors),
        expression_basis=basis,
    )
    merged.validate()
    return merged
