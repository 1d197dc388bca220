import numpy as np
import pytest

from meshsplat import assets, container
from meshsplat.container import ContainerError


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "blob.bin"
    sections = {
        "a": np.arange(12, dtype=np.float32).reshape(3, 4),
        "b": np.array([1, -2, 3], dtype=np.int32),
        "c": np.zeros((2, 2, 2), dtype=np.uint8),
        "half": np.array([0.5, 1.5], dtype=np.float16),
    }
    container.write_sections(path, b"TESTMAG\0", sections)
    out = container.read_sections(path, b"TESTMAG\0")
    assert set(out) == set(sections)
    for k in sections:
        assert out[k].dtype == sections[k].dtype
        assert np.array_equal(out[k], sections[k])


def test_magic_mismatch_reports_offset(tmp_path):
    path = tmp_path / "blob.bin"
    container.write_sections(path, b"TESTMAG\0", {"a": np.zeros(3, np.float32)})
    with pytest.raises(ContainerError) as ei:
        container.read_sections(path, b"OTHERMG\0")
    assert ei.value.offset == 0
    assert "magic" in str(ei.value)


def test_truncation_names_section_and_offset(tmp_path):
    path = tmp_path / "blob.bin"
    container.write_sections(path, b"TESTMAG\0", {"payload": np.arange(100, dtype=np.float32)})
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(data[: len(data) - 50])
    with pytest.raises(ContainerError) as ei:
        container.read_sections(cut, b"TESTMAG\0")
    assert "payload" in str(ei.value)
    assert ei.value.offset is not None


def test_template_roundtrip_bitexact(tmp_path, clothed_rig):
    path = tmp_path / "rig.tpl"
    assets.save_template(clothed_rig, path)
    again = assets.load_template(path)
    assert np.array_equal(again.vertices, clothed_rig.vertices)
    assert again.vertices.tobytes() == clothed_rig.vertices.tobytes()
    assert np.array_equal(again.faces, clothed_rig.faces)
    assert np.array_equal(again.skin_w, clothed_rig.skin_w)
    assert np.array_equal(again.expression_basis, clothed_rig.expression_basis)


def test_loader_rejects_bad_weight_row(tmp_path, rig):
    path = tmp_path / "bad.tpl"
    assets.save_template(rig, path)
    sections = container.read_sections(path, assets.MAGIC_TEMPLATE)
    sections["skin_w"] = sections["skin_w"].copy()
    sections["skin_w"][0] *= 0.5  # row now sums to 0.5
    container.write_sections(path, assets.MAGIC_TEMPLATE, sections)
    with pytest.raises(assets.ValidationError, match="sums to"):
        assets.load_template(path)


def test_texture_loader_rejects_sh_degree_above_3(tmp_path, clothed_texture):
    path = tmp_path / "deg5.gtx"
    assets.save_texture(clothed_texture, path)
    sections = container.read_sections(path, assets.MAGIC_TEXTURE)
    sections["sh"] = np.zeros((clothed_texture.num_gaussians, 3, assets.sh_terms(5)), np.float32)
    sections["meta"] = np.array([clothed_texture.num_faces, 5], dtype=np.uint32)
    container.write_sections(path, assets.MAGIC_TEXTURE, sections)
    with pytest.raises(assets.ValidationError, match=r"sh degree must be in \[0,3\], got 5"):
        assets.load_texture(path)


def test_saver_refuses_invalid_values(tmp_path, rig):
    import dataclasses

    broken = dataclasses.replace(rig, faces=np.array([[0, 1, 10 ** 6]], dtype=np.uint32))
    with pytest.raises(assets.ValidationError):
        assets.save_template(broken, tmp_path / "x.tpl")


def test_texture_roundtrip(tmp_path, clothed_texture):
    path = tmp_path / "t.gtx"
    assets.save_texture(clothed_texture, path)
    again = assets.load_texture(path)
    for name in ("face_idx", "uv", "gamma", "rotation", "log_scale", "opacity_logit", "sh"):
        assert np.array_equal(getattr(again, name), getattr(clothed_texture, name)), name
    assert again.num_faces == clothed_texture.num_faces
    assert again.sh_degree == clothed_texture.sh_degree


def test_motion_roundtrip(tmp_path, motion):
    path = tmp_path / "m.mot"
    assets.save_motion(motion, path)
    again = assets.load_motion(path)
    assert len(again) == len(motion)
    for a, b in zip(again.frames, motion.frames):
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.epsilon, b.epsilon)
        assert np.array_equal(a.root, b.root)
    assert again.cameras[0].mode == motion.cameras[0].mode
    assert np.array_equal(again.cameras[0].extrinsic, motion.cameras[0].extrinsic)


def test_dmap_roundtrip(tmp_path, clothed_rig):
    from meshsplat import splat

    attrs = np.random.default_rng(0).normal(size=clothed_rig.vertices.shape).astype(np.float32)
    dmap = splat.apply_map_caches(*splat.map_caches(clothed_rig.vertices, clothed_rig.faces, 32), attrs)
    path = tmp_path / "d.dmap"
    assets.save_dmap(dmap, path)
    again = assets.load_dmap(path)
    assert np.array_equal(again.front, dmap.front)
    assert np.array_equal(again.back, dmap.back)
    assert np.array_equal(again.front_mask, dmap.front_mask)
    assert np.array_equal(again.bounds, dmap.bounds)
