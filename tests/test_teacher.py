import numpy as np
import pytest

from meshsplat import assets, splat, teacher, train


def test_field_none_zero_maps(clothed_rig, clothed_texture, motion):
    src = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                     field="none", amplitude=0.0, map_resolution=48)
    for f in src:
        assert np.all(f.dmap.front[f.dmap.front_mask] == 0)
        assert np.all(f.dmap.back[f.dmap.back_mask] == 0)


def test_sway_amplitude_doubles_maps(clothed_rig, clothed_texture, motion):
    a = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                   field="sway", amplitude=0.05, seed=4, map_resolution=48)
    b = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                   field="sway", amplitude=0.10, seed=4, map_resolution=48)
    for fa, fb in zip(a, b):
        assert abs(np.abs(fb.dmap.front).max() - 2.0 * np.abs(fa.dmap.front).max()) < 1e-5


def test_teacher_maps_match_deformation_maps(clothed_rig, clothed_texture, motion):
    src = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                     field="sway", amplitude=0.1, seed=4, map_resolution=40)
    f = teacher.make_field(clothed_rig, "sway", 0.1, seed=4)
    caches = splat.map_caches(clothed_rig.vertices, clothed_rig.faces, 40)
    for frame, tf in zip(motion.frames, src):
        want = splat.apply_map_caches(*caches, f(frame.theta))
        for name in ("front", "back", "front_mask", "back_mask", "bounds"):
            a, b = getattr(tf.dmap, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_sway_leaves_body_untouched(clothed_rig, motion):
    f = teacher.make_field(clothed_rig, "sway", 0.3, seed=4)
    delta = f(motion.frames[2].theta)
    body = clothed_rig.cloth_mask == 0
    assert np.all(delta[body] == 0)
    assert np.abs(delta[~body]).max() > 0


def test_breathing_targets_body(clothed_rig, motion):
    f = teacher.make_field(clothed_rig, "breathing", 0.05, seed=4)
    delta = f(motion.frames[1].theta)
    cloth = clothed_rig.cloth_mask == 1
    assert np.all(delta[cloth] == 0)
    assert np.abs(delta[~cloth]).max() > 0


def test_field_is_pure_function_of_theta(clothed_rig, motion):
    f = teacher.make_field(clothed_rig, "sway", 0.2, seed=4)
    a = f(motion.frames[0].theta)
    b = f(motion.frames[0].theta)
    assert np.array_equal(a, b)


def test_unknown_field_rejected(clothed_rig):
    with pytest.raises(assets.ValidationError):
        teacher.make_field(clothed_rig, "tornado", 0.1)


def test_export_ingest_bit_identical(tmp_path, clothed_rig, clothed_texture, motion):
    src = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                     field="sway", amplitude=0.1, seed=4, map_resolution=48)
    manifest = teacher.export_teacher(src, tmp_path / "teacher")
    back = teacher.ingest_teacher(manifest)
    assert len(back) == len(src)
    for a, b in zip(src, back):
        assert np.array_equal(a.dmap.front, b.dmap.front)
        assert np.array_equal(a.dmap.front_mask, b.dmap.front_mask)
        assert np.array_equal(a.gt_color, b.gt_color)
        assert np.array_equal(a.gt_normal, b.gt_normal)
        assert np.array_equal(a.gt_mask, b.gt_mask)


def test_exported_teacher_gives_bit_identical_bake_losses(tmp_path, clothed_rig, clothed_texture, motion):
    from meshsplat import deform, gstexture

    src = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                     field="sway", amplitude=0.1, seed=4, map_resolution=48)
    manifest = teacher.export_teacher(src, tmp_path / "teacher")
    back = teacher.ingest_teacher(manifest)
    cfg = train.TrainConfig(iterations=4, map_resolution=48,
                            weights=train.LossWeights(sem=0.0))
    b0 = deform.init_bundle(clothed_rig, clothed_texture, n_frames=len(motion), seed=5)
    b1 = deform.init_bundle(clothed_rig, clothed_texture, n_frames=len(motion), seed=5)
    _, _, h_mem = train.bake(clothed_rig, clothed_texture, b0, src, motion, cfg)
    _, _, h_file = train.bake(clothed_rig, clothed_texture, b1, back, motion, cfg)
    assert [r["total"] for r in h_mem] == [r["total"] for r in h_file]


def test_ingest_missing_file_names_frame(tmp_path, clothed_rig, clothed_texture, motion):
    src = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                     field="none", map_resolution=32)
    manifest = teacher.export_teacher(src, tmp_path / "teacher")
    (tmp_path / "teacher" / "frame00002.dmap").unlink()
    with pytest.raises(assets.ValidationError, match="frame 2"):
        teacher.ingest_teacher(manifest)


def test_ingest_mixed_resolution_rejected(tmp_path, clothed_rig, clothed_texture, motion):
    from meshsplat import splat

    src = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                     field="none", map_resolution=32)
    manifest = teacher.export_teacher(src, tmp_path / "teacher")
    # shrink one frame's color image
    splat.write_ppm(src[1].gt_color[:-8], tmp_path / "teacher" / "frame00001_color.ppm")
    with pytest.raises(assets.ValidationError, match="frame 1"):
        teacher.ingest_teacher(manifest)


def test_ingest_empty_manifest_rejected(tmp_path):
    p = tmp_path / "manifest.txt"
    p.write_text("")
    with pytest.raises(assets.ValidationError, match="empty"):
        teacher.ingest_teacher(p)


def test_gt_images_are_u8_quantized(clothed_rig, clothed_texture, motion):
    src = teacher.procedural_teacher(clothed_rig, clothed_texture, motion,
                                     field="none", map_resolution=32)
    c = src[0].gt_color
    assert np.abs(c * 255.0 - np.rint(c * 255.0)).max() < 1e-4
