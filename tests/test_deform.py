import dataclasses

import numpy as np
import pytest

from meshsplat import assets, deform, splat
from meshsplat.rotations import random_rigid


@pytest.fixture(scope="module")
def bundle(clothed_rig, clothed_texture):
    return deform.init_bundle(clothed_rig, clothed_texture, n_frames=6, seed=5)


@pytest.fixture(scope="module")
def random_bundle(clothed_rig, clothed_texture):
    """Non-degenerate weights everywhere (no zero output layer)."""
    rng = np.random.default_rng(11)
    b = deform.init_bundle(clothed_rig, clothed_texture, n_frames=6, seed=11)
    dims_in = b.input_dim

    def randomize(layers, scale=0.3):
        out = []
        for (w, bb) in layers:
            out.append((rng.normal(scale=scale / np.sqrt(w.shape[0]), size=w.shape).astype(np.float32),
                        rng.normal(scale=0.05, size=bb.shape).astype(np.float32)))
        return out

    return dataclasses.replace(
        b,
        body_mlp=randomize(b.body_mlp),
        cloth_mlp=randomize(b.cloth_mlp),
        head_map=randomize(b.head_map),
        body_map=randomize(b.body_map),
        blend_pos=rng.normal(scale=0.01, size=b.blend_pos.shape).astype(np.float32),
        blend_col=rng.normal(scale=0.05, size=b.blend_col.shape).astype(np.float32),
        z_table=rng.normal(scale=0.1, size=b.z_table.shape).astype(np.float32),
    )


# ---------------------------------------------------------------------------
# positional encoding


def test_pe_zero_vector():
    out = deform.positional_encode(np.zeros((1, 3)), 6)[0]
    assert out.shape == (39,)
    assert np.all(out[:3] == 0)
    sin_terms = out[3::6], out[4::6], out[5::6]
    del sin_terms
    # layout: [v, sin, cos, sin, cos, ...] in blocks of 3
    for l in range(6):
        s = out[3 + 6 * l : 6 + 6 * l]
        c = out[6 + 6 * l : 9 + 6 * l]
        assert np.all(s == 0)
        assert np.all(c == 1)


def test_pe_zero_bands_is_identity():
    v = np.array([[0.1, -0.7, 2.0]])
    out = deform.positional_encode(v, 0)
    assert np.array_equal(out, v)


def test_pe_dimension_formula():
    rng = np.random.default_rng(0)
    for bands in range(9):
        v = rng.normal(size=(4, 3))
        assert deform.positional_encode(v, bands).shape == (4, 3 * (1 + 2 * bands))


def test_pe_values_match_definition():
    v = np.array([[0.3, -0.2, 0.9]])
    out = deform.positional_encode(v, 2)[0]
    expect = np.concatenate([
        v[0], np.sin(np.pi * v[0]), np.cos(np.pi * v[0]),
        np.sin(2 * np.pi * v[0]), np.cos(2 * np.pi * v[0]),
    ])
    assert np.abs(out - expect).max() < 1e-12


def test_paper_scale_input_dim():
    t = assets.make_capsule_rig(22, cloth=True, seed=0)
    import meshsplat.gstexture as gt

    tex = gt.init_texture(t, 1, 1, seed=0)
    b = deform.init_bundle(t, tex, n_frames=1)
    assert t.theta_dim == 63
    assert b.input_dim == 39 + 63 + 32 == 134


# ---------------------------------------------------------------------------
# student field


def test_student_deform_zero_initialized_bundle(clothed_rig, bundle, motion):
    d = deform.student_deform(bundle, clothed_rig, motion.frames[0], frame_index=0)
    assert np.all(d == 0)


def test_student_deform_body_vertex_ignores_cloth_net(clothed_rig, clothed_texture, random_bundle, motion):
    body_idx = int(np.nonzero(clothed_rig.cloth_mask == 0)[0][0])
    cloth_idx = int(np.nonzero(clothed_rig.cloth_mask == 1)[0][0])
    base = deform.student_deform(random_bundle, clothed_rig, motion.frames[0], frame_index=0)
    # finite difference on a cloth-net weight
    b2 = dataclasses.replace(random_bundle, cloth_mlp=[
        (w.copy(), b.copy()) for (w, b) in random_bundle.cloth_mlp
    ])
    b2.cloth_mlp[2][0][3, 7] += 0.05
    moved = deform.student_deform(b2, clothed_rig, motion.frames[0], frame_index=0)
    assert np.array_equal(base[body_idx], moved[body_idx])
    assert not np.array_equal(base[cloth_idx], moved[cloth_idx])


def test_student_deform_sensitive_to_embedding(clothed_rig, random_bundle, motion):
    f = motion.frames[0]
    a = deform.student_deform(random_bundle, clothed_rig, f, frame_index=0)
    z2 = random_bundle.z_table[0] + 0.5
    b = deform.student_deform(random_bundle, clothed_rig,
                              assets.FrameInput(f.theta, f.epsilon, f.root, z2))
    assert np.abs(a - b).max() > 1e-6


def test_unknown_frame_uses_z0(clothed_rig, random_bundle, motion):
    f = motion.frames[1]
    novel = assets.FrameInput(f.theta, f.epsilon, f.root, None)
    a = deform.student_deform(random_bundle, clothed_rig, novel)  # no index
    b = deform.student_deform(random_bundle, clothed_rig,
                              assets.FrameInput(f.theta, f.epsilon, f.root, random_bundle.z_table[0]))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# blend shapes


def test_blend_coeffs_dimensions(clothed_rig, bundle, motion):
    z = deform.blend_coeffs(bundle, motion.frames[0])
    assert z.shape == (28,)
    assert bundle.n_head == 8 and bundle.n_body == 20


def test_blend_coeffs_zero_nets(bundle, motion):
    zeroed = dataclasses.replace(
        bundle,
        head_map=[(np.zeros_like(w), np.zeros_like(b)) for w, b in bundle.head_map],
        body_map=[(np.zeros_like(w), np.zeros_like(b)) for w, b in bundle.body_map],
    )
    assert np.all(deform.blend_coeffs(zeroed, motion.frames[0]) == 0)


def test_blend_residuals_zero_at_init(clothed_rig, bundle, motion):
    # fresh bundles carry live mapping nets but zero blend shapes, so the
    # residuals are still exactly zero
    coeffs = deform.blend_coeffs(bundle, motion.frames[0])
    assert np.abs(coeffs).max() > 0
    assert np.all(deform.blend_shape_apply(bundle.blend_pos, coeffs) == 0)
    assert np.all(deform.blend_shape_apply(bundle.blend_col, coeffs) == 0)


def test_blend_coeffs_head_body_independence(clothed_rig, random_bundle, motion):
    f = motion.frames[0]
    z1 = deform.blend_coeffs(random_bundle, f)
    eps2 = f.epsilon + 0.7
    z2 = deform.blend_coeffs(random_bundle, assets.FrameInput(f.theta, eps2, f.root))
    n_h = random_bundle.n_head
    assert not np.array_equal(z1[:n_h], z2[:n_h])
    assert np.array_equal(z1[n_h:], z2[n_h:])


def test_blend_apply_zero_coeffs(random_bundle):
    out = deform.blend_shape_apply(random_bundle.blend_pos, np.zeros(28, np.float32))
    assert np.all(out == 0)


def test_blend_apply_one_hot_selects_column(random_bundle):
    k = 13
    e = np.zeros(28, np.float32)
    e[k] = 1.0
    out = deform.blend_shape_apply(random_bundle.blend_pos, e)
    assert np.abs(out - random_bundle.blend_pos[:, :, k]).max() < 1e-7


def test_blend_apply_additive(random_bundle):
    rng = np.random.default_rng(1)
    a = rng.normal(size=28).astype(np.float32)
    b = rng.normal(size=28).astype(np.float32)
    ya = deform.blend_shape_apply(random_bundle.blend_pos, a)
    yb = deform.blend_shape_apply(random_bundle.blend_pos, b)
    yab = deform.blend_shape_apply(random_bundle.blend_pos, a + b)
    assert np.abs(ya + yb - yab).max() < 1e-6


# ---------------------------------------------------------------------------
# animate pipeline


def test_animate_rest_zero_bundle_equals_static(clothed_rig, clothed_texture, bundle, rest_frame, motion):
    frame = rest_frame(clothed_rig)
    cam = motion.cameras[0]
    with_bundle = deform.animate_frame(clothed_rig, clothed_texture, bundle, frame, cam)
    without = deform.animate_frame(clothed_rig, clothed_texture, None, frame, cam)
    assert np.array_equal(with_bundle.target.color, without.target.color)
    assert np.array_equal(with_bundle.target.alpha, without.target.alpha)


def test_animate_deterministic(clothed_rig, clothed_texture, random_bundle, motion):
    a = deform.animate_frame(clothed_rig, clothed_texture, random_bundle, motion.frames[2],
                             motion.camera_for(2), frame_index=2)
    b = deform.animate_frame(clothed_rig, clothed_texture, random_bundle, motion.frames[2],
                             motion.camera_for(2), frame_index=2)
    assert np.array_equal(a.world.means, b.world.means)
    assert np.array_equal(a.target.color, b.target.color)


def test_animate_rigid_root_equivariance(clothed_rig, clothed_texture, random_bundle, motion):
    frame = motion.frames[1]
    cam = motion.camera_for(1)
    base = deform.animate_frame(clothed_rig, clothed_texture, random_bundle, frame, cam, frame_index=1)
    g = random_rigid(np.random.default_rng(3), translation_scale=0.5)
    moved_frame = assets.FrameInput(frame.theta, frame.epsilon,
                                    (g @ frame.root.astype(np.float64)).astype(np.float32), frame.z)
    cam_moving = dataclasses.replace(
        cam, extrinsic=(cam.extrinsic.astype(np.float64) @ np.linalg.inv(g)).astype(np.float32))
    moved = deform.animate_frame(clothed_rig, clothed_texture, random_bundle, moved_frame,
                                 cam_moving, frame_index=1)
    assert np.abs(moved.target.color - base.target.color).max() < 1e-5
    assert np.abs(moved.target.alpha - base.target.alpha).max() < 1e-5


def test_color_residual_touches_only_color(clothed_rig, clothed_texture, random_bundle, motion):
    frame = motion.frames[0]
    cam = motion.camera_for(0)
    base = deform.animate_frame(clothed_rig, clothed_texture, random_bundle, frame, cam,
                                channels=("color", "alpha", "depth"), frame_index=0)
    toggled = dataclasses.replace(random_bundle, blend_col=np.zeros_like(random_bundle.blend_col))
    out = deform.animate_frame(clothed_rig, clothed_texture, toggled, frame, cam,
                               channels=("color", "alpha", "depth"), frame_index=0)
    assert not np.array_equal(out.target.color, base.target.color)
    assert np.array_equal(out.target.alpha, base.target.alpha)
    assert np.array_equal(out.target.depth, base.target.depth)


def test_animate_means_on_offset_surface(clothed_rig, clothed_texture, rest_frame, motion):
    # zero deltas: means must satisfy the binding construction exactly
    from meshsplat.gstexture import surface_points, triangle_frames

    tex = dataclasses.replace(clothed_texture,
                              gamma=np.random.default_rng(4).normal(
                                  scale=0.01, size=clothed_texture.num_gaussians).astype(np.float32))
    frame = rest_frame(clothed_rig)
    res = deform.animate_frame(clothed_rig, tex, None, frame, motion.cameras[0])
    R, _, n = triangle_frames(clothed_rig.vertices, clothed_rig.faces)
    f = tex.face_idx.astype(np.int64)
    p = surface_points(clothed_rig.vertices.astype(np.float64), clothed_rig.faces, tex.face_idx,
                       tex.uv.astype(np.float64))
    expect = p + tex.gamma.astype(np.float64)[:, None] * n[f]
    assert np.abs(res.world.means - expect).max() < 1e-6


# ---------------------------------------------------------------------------
# bundle io


def test_bundle_roundtrip(tmp_path, random_bundle):
    p = tmp_path / "b.stu"
    deform.save_bundle(random_bundle, p)
    back = deform.load_bundle(p)
    for (w1, b1), (w2, b2) in zip(random_bundle.body_mlp, back.body_mlp):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert np.array_equal(back.blend_pos, random_bundle.blend_pos)
    assert np.array_equal(back.z_table, random_bundle.z_table)
    assert back.precision == "fp32"
    assert back.n_head == random_bundle.n_head


def test_bundle_roundtrip_fp16(tmp_path, random_bundle):
    from meshsplat.train import quantize_bundle

    q, _ = quantize_bundle(random_bundle)
    p = tmp_path / "q.stu"
    deform.save_bundle(q, p)
    back = deform.load_bundle(p)
    assert back.precision == "fp16"
    assert back.body_mlp[0][0].dtype == np.float16
    assert np.array_equal(back.body_mlp[0][0], q.body_mlp[0][0])


def test_bundle_fields_are_its_arrays():
    # every size and the precision are read from these seven arrays
    assert [f.name for f in dataclasses.fields(deform.StudentBundle)] == [
        "body_mlp", "cloth_mlp", "head_map", "body_map", "blend_pos", "blend_col", "z_table"]


def test_parent_layout_bundle_loads(tmp_path, random_bundle):
    # files written before the sizes were read from the arrays carry a
    # ``meta`` section; the loader ignores it
    from meshsplat import container

    p = tmp_path / "b.stu"
    deform.save_bundle(random_bundle, p)
    sections = container.read_sections(p, deform.MAGIC_BUNDLE)
    assert "meta" not in sections
    sections["meta"] = np.array([6, random_bundle.theta_dim, random_bundle.eps_dim, 32, 8, 20, 0], np.int32)
    container.write_sections(p, deform.MAGIC_BUNDLE, sections)
    back = deform.load_bundle(p)
    for net in ("body_mlp", "cloth_mlp", "head_map", "body_map"):
        for (w1, b1), (w2, b2) in zip(getattr(random_bundle, net), getattr(back, net)):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    for name in ("blend_pos", "blend_col", "z_table"):
        assert np.array_equal(getattr(back, name), getattr(random_bundle, name))
    for name in ("pe_bands", "theta_dim", "eps_dim", "embed_dim", "n_head", "n_body", "input_dim", "precision"):
        assert getattr(back, name) == getattr(random_bundle, name), name


def test_partly_retrained_quantized_bundle_stays_fp16(tmp_path, random_bundle):
    # finetuning a quantized bundle replaces only the map nets, in float32
    from meshsplat.train import quantize_bundle

    q, _ = quantize_bundle(random_bundle)
    mixed = dataclasses.replace(q, head_map=[(w.astype(np.float32), b.astype(np.float32)) for w, b in q.head_map],
                                body_map=[(w.astype(np.float32), b.astype(np.float32)) for w, b in q.body_map])
    assert mixed.precision == "fp16"
    p = tmp_path / "m.stu"
    deform.save_bundle(mixed, p)
    back = deform.load_bundle(p)
    assert back.precision == "fp16"
    assert all(w.dtype == np.float16 and b.dtype == np.float16
               for net in (back.body_mlp, back.cloth_mlp, back.head_map, back.body_map) for w, b in net)


def test_bundle_dimension_validation(clothed_rig, clothed_texture, bundle):
    other = assets.make_capsule_rig(8, cloth=True, seed=0)
    with pytest.raises(assets.ValidationError):
        bundle.validate_for(other)
