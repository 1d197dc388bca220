import io

import numpy as np
import pytest

from meshsplat import assets


def test_capsule_rig_deterministic(tmp_path):
    a = assets.make_capsule_rig(4, cloth=False, seed=7)
    b = assets.make_capsule_rig(4, cloth=False, seed=7)
    pa, pb = tmp_path / "a.tpl", tmp_path / "b.tpl"
    assets.save_template(a, pa)
    assets.save_template(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_rig_seed_changes_expressions():
    a = assets.make_capsule_rig(4, seed=1)
    b = assets.make_capsule_rig(4, seed=2)
    assert not np.array_equal(a.expression_basis, b.expression_basis)


def test_full_size_rig_theta_dimension():
    t = assets.make_capsule_rig(22, cloth=True, seed=1)
    assert t.theta_dim == 63


def test_cloth_flag_forces_cloth_vertices():
    t = assets.make_capsule_rig(5, cloth=True, seed=0)
    assert (t.cloth_mask == 1).any()
    assert (t.component_labels == assets.CLOTH).any()
    assert np.array_equal(t.cloth_mask == 1, t.component_labels == assets.CLOTH)


def test_cloth_mask_is_derived_from_the_labels():
    import dataclasses

    assert "cloth_mask" not in [f.name for f in dataclasses.fields(assets.RiggedTemplate)]
    assert assets.make_capsule_rig(3, cloth=True, seed=0).cloth_mask.dtype == np.uint8


def test_parent_layout_template_loads(tmp_path):
    # files written before the mask was derived carry a ``cloth_mask``
    # section; the loader ignores it
    from meshsplat import container

    t = assets.make_capsule_rig(3, cloth=True, seed=0)
    p = tmp_path / "t.tpl"
    assets.save_template(t, p)
    sections = container.read_sections(p, assets.MAGIC_TEMPLATE)
    assert "cloth_mask" not in sections
    sections["cloth_mask"] = t.cloth_mask
    container.write_sections(p, assets.MAGIC_TEMPLATE, sections)
    back = assets.load_template(p)
    for name in ("vertices", "faces", "joint_parents", "joint_rest", "skin_idx", "skin_w",
                 "component_labels", "seg_colors", "expression_basis", "cloth_mask"):
        assert np.array_equal(getattr(back, name), getattr(t, name)), name


def test_rig_requires_two_joints():
    with pytest.raises(ValueError):
        assets.make_capsule_rig(1)


def test_capsule_is_watertight():
    t = assets.make_capsule_rig(4, cloth=False, seed=0)
    # every edge shared by exactly two faces, consistently oriented
    edges = {}
    for f in t.faces.astype(int):
        for i in range(3):
            e = (f[i], f[(i + 1) % 3])
            edges[e] = edges.get(e, 0) + 1
    for (a, b), count in edges.items():
        assert count == 1, "duplicate directed edge"
        assert (b, a) in edges, "boundary edge in a closed mesh"


def test_skin_weights_rows_sum_to_one(clothed_rig):
    s = clothed_rig.skin_w.sum(axis=1)
    assert np.abs(s - 1.0).max() <= 1e-6


def test_synthetic_rig_passes_external_validators(clothed_rig):
    clothed_rig.validate()  # same validator as file loads


def test_camera_validators():
    cam = assets.perspective_camera((0, 2, 0), (0, 0, 0), (64, 64))
    cam.validate()
    cam.params = np.array([-1.0, 1.0, 32.0, 32.0], dtype=np.float32)
    with pytest.raises(assets.ValidationError):
        cam.validate()


def test_motion_validation_rejects_empty():
    with pytest.raises(assets.ValidationError):
        assets.MotionSequence([], [], np.zeros(0, np.uint32)).validate()


def test_frame_input_dimension_check(clothed_rig):
    f = assets.FrameInput(
        np.zeros(clothed_rig.theta_dim + 3, np.float32),
        np.zeros(clothed_rig.num_expressions, np.float32),
        np.eye(4, dtype=np.float32),
    )
    with pytest.raises(assets.ValidationError):
        f.validate_for(clothed_rig)


def test_mesh_only_template_valid():
    sv, sf = assets.make_skirt_mesh()
    t = assets.mesh_only_template(sv, sf, assets.CLOTH)
    t.validate()
    assert t.num_joints == 1
    assert (t.cloth_mask == 1).all()


def test_look_at_is_rigid():
    m = assets.look_at((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
    r = m[:3, :3]
    assert np.abs(r @ r.T - np.eye(3)).max() < 1e-6
    assert abs(np.linalg.det(r) - 1.0) < 1e-6
    # target projects onto the +z camera axis
    p = r @ np.array([-1.0, -2.0, -3.0]) + m[:3, 3]
    assert abs(p[0]) < 1e-6 and abs(p[1]) < 1e-6 and p[2] > 0
