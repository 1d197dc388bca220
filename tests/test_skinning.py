import numpy as np
import pytest

from meshsplat import assets, skinning
from meshsplat.rotations import axis_angle_to_quat, quat_to_matrix, random_rigid


def _frame(template, theta=None, root=None):
    return assets.FrameInput(
        np.zeros(template.theta_dim, np.float32) if theta is None else theta.astype(np.float32),
        np.zeros(template.num_expressions, np.float32),
        np.eye(4, dtype=np.float32) if root is None else root.astype(np.float32),
    )


def test_rest_pose_gives_rest_transforms(rig, rest_frame):
    sk = skinning.pose_skeleton(rig, rest_frame(rig))
    rest = skinning.rest_world_transforms(rig)
    assert np.abs(sk.world - rest).max() < 1e-6


def test_root_transform_passthrough(rig):
    root = random_rigid(np.random.default_rng(0)).astype(np.float32)
    sk = skinning.pose_skeleton(rig, _frame(rig, root=root))
    assert np.abs(sk.world[0] - root).max() < 1e-6


def test_leaf_rotation_composes_exactly(rig):
    theta = np.zeros(rig.theta_dim)
    theta[-3:] = [0.0, 0.0, np.pi / 2]  # leaf joint, 90 degrees about z
    sk = skinning.pose_skeleton(rig, _frame(rig, theta=theta))
    leaf = rig.num_joints - 1
    parent = rig.joint_parents[leaf]
    rel = np.linalg.inv(sk.world[parent, :3, :3].astype(np.float64)) @ sk.world[leaf, :3, :3]
    expect = quat_to_matrix(axis_angle_to_quat(np.array([0.0, 0.0, np.pi / 2])))
    assert np.abs(rel - expect).max() < 1e-6


def test_pose_skeleton_deterministic(rig):
    theta = np.random.default_rng(1).normal(scale=0.4, size=rig.theta_dim)
    a = skinning.pose_skeleton(rig, _frame(rig, theta=theta))
    b = skinning.pose_skeleton(rig, _frame(rig, theta=theta))
    assert np.array_equal(a.world, b.world)


def test_theta_dimension_mismatch(rig):
    bad = assets.FrameInput(np.zeros(5, np.float32), np.zeros(rig.num_expressions, np.float32),
                            np.eye(4, dtype=np.float32))
    with pytest.raises(assets.ValidationError):
        skinning.pose_skeleton(rig, bad)


def test_lbs_rest_identity(rig, rest_frame):
    sk = skinning.pose_skeleton(rig, rest_frame(rig))
    posed, _ = skinning.lbs_forward(rig, sk)
    assert np.abs(posed - rig.vertices).max() < 1e-6


def test_lbs_single_joint_rotation():
    # one vertex fully weighted to a joint rotated 90 degrees about z
    t = assets.make_capsule_rig(2, seed=0)
    v = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
    idx = np.full((1, 8), -1, np.int32)
    w = np.zeros((1, 8), np.float32)
    idx[0, 0] = 0
    w[0, 0] = 1.0
    theta = np.zeros(t.theta_dim)
    frame = _frame(t, theta=theta)
    sk = skinning.pose_skeleton(t, frame)
    # rotate the root via the root transform (joint 0 sits at the origin)
    rot = np.eye(4, dtype=np.float32)
    rot[:3, :3] = quat_to_matrix(axis_angle_to_quat(np.array([0, 0, np.pi / 2])))
    sk_rot = skinning.pose_skeleton(t, _frame(t, theta=theta, root=rot))
    mats = skinning.blend_vertex_matrices(idx, w, skinning.skinning_matrices(t, sk_rot))
    out = np.einsum("vab,vb->va", mats[:, :3, :3], v.astype(np.float64)) + mats[:, :3, 3]
    assert np.abs(out[0] - np.array([0.0, 1.0, 0.0])).max() < 1e-6
    del sk


def test_lbs_constant_delta_at_identity(rig, rest_frame):
    sk = skinning.pose_skeleton(rig, rest_frame(rig))
    c = np.array([0.01, -0.02, 0.03], dtype=np.float32)
    delta = np.tile(c, (rig.num_vertices, 1))
    posed, _ = skinning.lbs_forward(rig, sk, delta)
    assert np.abs(posed - (rig.vertices + c)).max() < 1e-6


def test_lbs_inverse_rest_identity(rig, rest_frame):
    sk = skinning.pose_skeleton(rig, rest_frame(rig))
    out, ill = skinning.lbs_inverse(rig, sk, rig.vertices, rig.skin_idx, rig.skin_w)
    assert not ill.any()
    assert np.abs(out - rig.vertices).max() < 1e-6


def test_lbs_inverse_roundtrip_random_poses(clothed_rig):
    rng = np.random.default_rng(42)
    for _ in range(100):
        theta = rng.normal(scale=0.35, size=clothed_rig.theta_dim)
        frame = _frame(clothed_rig, theta=theta)
        sk = skinning.pose_skeleton(clothed_rig, frame)
        posed, _ = skinning.lbs_forward(clothed_rig, sk)
        back, ill = skinning.lbs_inverse(clothed_rig, sk, posed, clothed_rig.skin_idx, clothed_rig.skin_w)
        assert not ill.any()
        assert np.abs(back - clothed_rig.vertices).max() < 1e-5


def test_lbs_inverse_flags_degenerate_blend():
    # joint 1 turned exactly half a revolution about x (diag(1,-1,-1) is
    # exact in f32): a 50/50 blend with the identity root collapses the
    # y and z axes of the blended matrix
    t = assets.make_capsule_rig(3, seed=0)
    rest = skinning.rest_world_transforms(t)
    world = rest.copy()
    flip = np.diag([1.0, -1.0, -1.0])
    world[1, :3, :3] = flip @ rest[1, :3, :3]
    sk = skinning.PosedSkeleton(world.astype(np.float32))
    sk.validate()
    idx = np.full((1, 8), -1, np.int32)
    w = np.zeros((1, 8), np.float32)
    idx[0, 0], idx[0, 1] = 0, 1
    w[0, 0] = w[0, 1] = 0.5
    pts = np.array([[0.0, 0.1, 0.5]], dtype=np.float32)
    _, ill = skinning.lbs_inverse(t, sk, pts, idx, w)
    assert ill[0]


def test_lbs_equivariance_under_global_rigid_motion(clothed_rig):
    rng = np.random.default_rng(5)
    theta = rng.normal(scale=0.3, size=clothed_rig.theta_dim)
    frame = _frame(clothed_rig, theta=theta)
    sk = skinning.pose_skeleton(clothed_rig, frame)
    posed, _ = skinning.lbs_forward(clothed_rig, sk)
    for _ in range(20):
        g = random_rigid(rng)
        sk_g = skinning.PosedSkeleton((g @ sk.world.astype(np.float64)).astype(np.float32))
        posed_g, _ = skinning.lbs_forward(clothed_rig, sk_g)
        expect = posed @ g[:3, :3].T.astype(np.float32) + g[:3, 3].astype(np.float32)
        assert np.abs(posed_g - expect).max() < 1e-6 + 1e-6 * np.abs(expect).max()


# ---------------------------------------------------------------------------
# weight transfer


def test_transfer_coincident_vertex_copies_row(rig):
    v0 = rig.vertices[10:11]
    idx, w = skinning.transfer_skin_weights(rig, v0, np.zeros((0, 3), np.uint32))
    dense = rig.dense_skin_weights()[10]
    got = np.zeros_like(dense)
    for k in range(8):
        if idx[0, k] >= 0:
            got[idx[0, k]] += w[0, k]
    assert np.abs(got - dense).max() < 1e-6


def test_transfer_centroid_averages_corners(rig):
    f = rig.faces[40].astype(int)
    centroid = rig.vertices[f].mean(axis=0, keepdims=True)
    # a garment without faces is not smoothed, so the barycentric average is exact
    idx, w = skinning.transfer_skin_weights(rig, centroid, np.zeros((0, 3), np.uint32))
    dense = rig.dense_skin_weights()[f].mean(axis=0)
    got = np.zeros_like(dense)
    for k in range(8):
        if idx[0, k] >= 0:
            got[idx[0, k]] += w[0, k]
    # the centroid of a surface triangle can sit marginally closer to an
    # adjacent face; accept exact equality with its own face's average
    assert np.abs(got - dense).max() < 1e-5


def test_transfer_skirt_rows_normalized(clothed_rig):
    body = assets.make_capsule_rig(6, cloth=False, seed=3)
    sv, sf = assets.make_skirt_mesh()
    idx, w = skinning.transfer_skin_weights(body, sv, sf)
    assert (w >= 0).all()
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-6
    assert ((idx >= 0) | (w == 0)).all()


def test_transfer_band_violation_lists_indices():
    body = assets.make_capsule_rig(4, seed=0)
    far = np.stack([np.array([5.0, 5.0, 5.0], dtype=np.float32), body.vertices[5]])
    with pytest.raises(assets.ValidationError, match="indices \\[0\\]"):
        skinning.transfer_skin_weights(body, far, np.zeros((0, 3), np.uint32))


# ---------------------------------------------------------------------------
# clothed template builder


def test_build_clothed_empty_components_is_identity(rig, rest_frame):
    out = skinning.build_clothed_template(rig, [], rest_frame(rig))
    assert out is rig


def test_build_clothed_adds_skirt(rest_frame):
    body = assets.make_capsule_rig(6, cloth=False, seed=3)
    sv, sf = assets.make_skirt_mesh()
    out = skinning.build_clothed_template(body, [(sv, sf, assets.CLOTH)], rest_frame(body))
    assert out.num_faces == body.num_faces + sf.shape[0]
    assert (out.component_labels == assets.CLOTH).sum() == sv.shape[0]
    assert (out.cloth_mask[body.num_vertices:] == 1).all()
    out.validate()


def test_build_clothed_rest_reference_keeps_vertices(rest_frame):
    body = assets.make_capsule_rig(6, cloth=False, seed=3)
    sv, sf = assets.make_skirt_mesh()
    out = skinning.build_clothed_template(body, [(sv, sf, assets.CLOTH)], rest_frame(body))
    attached = out.vertices[body.num_vertices:]
    assert np.abs(attached - sv).max() < 1e-5


def test_build_clothed_posed_reference_roundtrip(rest_frame):
    # pose the skirt with known weights, hand the posed skirt as the
    # component: inverse skinning must land close to the canonical skirt
    body = assets.make_capsule_rig(6, cloth=False, seed=3)
    sv, sf = assets.make_skirt_mesh()
    idx, w = skinning.transfer_skin_weights(body, sv, sf)
    rng = np.random.default_rng(9)
    theta = rng.normal(scale=0.25, size=body.theta_dim)
    frame = assets.FrameInput(theta.astype(np.float32),
                              np.zeros(body.num_expressions, np.float32),
                              np.eye(4, dtype=np.float32))
    sk = skinning.pose_skeleton(body, frame)
    mats = skinning.blend_vertex_matrices(idx, w, skinning.skinning_matrices(body, sk))
    posed_skirt = (np.einsum("vab,vb->va", mats[:, :3, :3], sv.astype(np.float64)) + mats[:, :3, 3]).astype(np.float32)
    out = skinning.build_clothed_template(body, [(posed_skirt, sf, assets.CLOTH)], frame, band=0.08)
    attached = out.vertices[body.num_vertices:]
    # transferred weights differ from the construction weights, so the
    # round trip is approximate; it must still land near the canonical skirt
    assert np.abs(attached - sv).max() < 0.05
