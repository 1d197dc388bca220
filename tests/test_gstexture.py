import numpy as np
import pytest

from meshsplat import assets, gstexture
from meshsplat.gstexture import (
    DegenerateTriangleError,
    init_texture,
    local_to_world,
    triangle_frames,
)
from meshsplat.rotations import quat_to_matrix, random_rigid

from oracles import sh_color_oracle, sh_eval, triangle_frame


def test_triangle_frame_reference_values():
    fr = triangle_frame((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0))
    assert np.abs(fr.p - np.zeros(3)).max() < 1e-12
    assert np.abs(fr.n - np.array([0.0, 0.0, -1.0])).max() < 1e-12
    q = fr.R[:, 1]
    assert np.abs(q - np.array([np.sqrt(2) / 2, np.sqrt(2) / 2, 0.0])).max() < 1e-12
    assert abs(fr.e - (2.0 + np.sqrt(2)) / 3.0) < 1e-12


def test_triangle_frame_centroid():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 3))
    fr = triangle_frame(v[0], v[1], v[2], (1 / 3, 1 / 3))
    assert np.abs(fr.p - v.mean(axis=0)).max() < 1e-12


def test_triangle_frame_scale_homogeneity():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(3, 3))
    a = triangle_frame(v[0], v[1], v[2], (0.2, 0.3))
    b = triangle_frame(2 * v[0], 2 * v[1], 2 * v[2], (0.2, 0.3))
    assert abs(b.e - 2 * a.e) < 1e-12
    assert np.abs(b.R - a.R).max() < 1e-12


def test_triangle_frame_orthonormal_right_handed():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=(3, 3))
        fr = triangle_frame(v[0], v[1], v[2], (0.25, 0.25))
        r = fr.R
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


def test_degenerate_triangle_reports_index():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=np.float64)
    faces = np.array([[0, 1, 3], [0, 1, 2]], dtype=np.int64)  # second is collinear
    with pytest.raises(DegenerateTriangleError) as ei:
        triangle_frames(verts, faces)
    assert 1 in ei.value.indices


def _single_gaussian_texture(gamma=0.0, log_scale=(np.log(0.01), 0.0, 0.0), uv=(1.0, 0.0),
                             rot=(1.0, 0.0, 0.0, 0.0), sh_degree=2):
    return assets.GaussianTexture(
        face_idx=np.array([0], dtype=np.uint32),
        uv=np.array([uv], dtype=np.float32),
        gamma=np.array([gamma], dtype=np.float32),
        rotation=np.array([rot], dtype=np.float32),
        log_scale=np.array([log_scale], dtype=np.float32),
        opacity_logit=np.zeros(1, dtype=np.float32),
        sh=np.zeros((1, 3, assets.sh_terms(sh_degree)), dtype=np.float32),
        num_faces=1,
        sh_degree=sh_degree,
    )


TRI_VERTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float32)
TRI_FACES = np.array([[0, 1, 2]], dtype=np.uint32)


def test_local_to_world_zero_offset_sits_on_vertex():
    tex = _single_gaussian_texture()
    wg = local_to_world(tex, TRI_VERTS, TRI_FACES, view_origin=(0.0, 0.0, 5.0))
    assert np.abs(wg.means[0] - TRI_VERTS[0]).max() < 1e-7


def test_local_to_world_scale_law():
    # e = 2 triangle with local scale (0.01, 1, 1)
    verts = 2.0 * TRI_VERTS * (3.0 / (2.0 + np.sqrt(2.0)))  # rescale so e = 2
    tex = _single_gaussian_texture()
    wg = local_to_world(tex, verts.astype(np.float32), TRI_FACES, view_origin=(0.0, 0.0, 5.0))
    assert np.abs(wg.scales[0] - np.array([0.02, 2.0, 2.0])).max() < 1e-6


def test_local_to_world_gamma_moves_along_normal():
    tex = _single_gaussian_texture(gamma=0.25)
    wg = local_to_world(tex, TRI_VERTS, TRI_FACES, view_origin=(0.0, 0.0, 5.0))
    assert np.abs(wg.means[0] - np.array([0.0, 0.0, -0.25])).max() < 1e-6
    assert np.abs(wg.normal[0] - np.array([0.0, 0.0, -1.0])).max() < 1e-6


def test_local_to_world_rigid_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(size=(3, 3)).astype(np.float32)
        uv = rng.random(2) * 0.5
        rot = rng.normal(size=4)
        rot = tuple(rot / np.linalg.norm(rot))
        tex = _single_gaussian_texture(gamma=rng.normal() * 0.1, uv=tuple(uv), rot=rot)
        try:
            base = local_to_world(tex, v, TRI_FACES, view_dir=(0.0, 0.0, 1.0))
        except DegenerateTriangleError:
            continue
        # the world rotation is the parent frame times the local rotation
        expect_rot = base.tri_rot[0] @ quat_to_matrix(tex.rotation[0])
        assert np.abs(base.rot_mats[0] - expect_rot).max() < 1e-6
        g = random_rigid(rng)
        v2 = (v @ g[:3, :3].T + g[:3, 3]).astype(np.float32)
        moved = local_to_world(tex, v2, TRI_FACES, view_dir=(0.0, 0.0, 1.0))
        expect_mean = base.means[0] @ g[:3, :3].T + g[:3, 3]
        assert np.abs(moved.means[0] - expect_mean).max() < 1e-5
        expect_rot = g[:3, :3] @ base.rot_mats[0]
        assert np.abs(moved.rot_mats[0] - expect_rot).max() < 1e-5
        assert np.abs(moved.scales[0] - base.scales[0]).max() < 1e-5


def test_local_to_world_normal_matches_triangle_for_identity_rotation(clothed_rig, clothed_texture):
    wg = local_to_world(clothed_texture, clothed_rig.vertices, clothed_rig.faces,
                        view_origin=(0.0, 3.0, 0.8))
    R, _, n = triangle_frames(clothed_rig.vertices, clothed_rig.faces)
    parent_n = n[clothed_texture.face_idx.astype(np.int64)]
    assert np.abs(wg.normal - parent_n).max() < 1e-6


def test_mean_is_affine_in_vertices_fd_jacobian():
    # gamma = 0, no offsets: the world mean is the fixed barycentric
    # combination of the three vertices; a finite-difference Jacobian
    # must reproduce those weights exactly
    uv = (0.3, 0.5)
    tex = _single_gaussian_texture(uv=uv)
    base = np.array([[0.1, -0.2, 0.05], [0.9, 0.1, -0.3], [-0.2, 1.1, 0.4]], dtype=np.float64)
    h = 1e-3
    weights = (uv[0], uv[1], 1.0 - uv[0] - uv[1])
    for vi in range(3):
        for c in range(3):
            vp = base.copy()
            vp[vi, c] += h
            vm = base.copy()
            vm[vi, c] -= h
            up = local_to_world(tex, vp.astype(np.float32), TRI_FACES, view_dir=(0, 0, 1)).means[0]
            um = local_to_world(tex, vm.astype(np.float32), TRI_FACES, view_dir=(0, 0, 1)).means[0]
            jac_col = (up.astype(np.float64) - um) / (2 * h)
            expect = np.zeros(3)
            expect[c] = weights[vi]
            assert np.abs(jac_col - expect).max() < 1e-3


def test_color_residual_clamps():
    tex = _single_gaussian_texture()
    wg = local_to_world(tex, TRI_VERTS, TRI_FACES, view_origin=(0, 0, 5),
                        delta_c=np.array([[10.0, -10.0, 0.25]], dtype=np.float32))
    assert np.abs(wg.color[0] - np.array([1.0, 0.0, 0.75])).max() < 1e-6


# ---------------------------------------------------------------------------
# spherical harmonics


def test_sh_dc_only_is_direction_independent():
    rng = np.random.default_rng(4)
    sh = np.zeros((3, 9))
    sh[:, 0] = rng.normal(size=3)
    for _ in range(10):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        c = sh_eval(sh, d)
        assert np.abs(c - (sh[:, 0] * 0.28209479177387814 + 0.5)).max() < 1e-9


def test_sh_odd_terms_negate_about_offset():
    rng = np.random.default_rng(5)
    sh = np.zeros((3, 16))
    sh[:, 1:4] = rng.normal(size=(3, 3))   # l = 1
    sh[:, 9:16] = rng.normal(size=(3, 7))  # l = 3
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    a = sh_eval(sh, d, degree=3)
    b = sh_eval(sh, -d, degree=3)
    assert np.abs((a - 0.5) + (b - 0.5)).max() < 1e-9


def test_sh_matches_polynomial_oracle():
    rng = np.random.default_rng(6)
    for degree in range(4):
        terms = (degree + 1) ** 2
        sh = rng.normal(size=(3, terms))
        for _ in range(25):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            mine = sh_eval(sh, d, degree=degree)
            ref = sh_color_oracle(sh, d)
            assert np.abs(mine - ref).max() < 1e-6


def test_sh_eval_rejects_non_unit_direction():
    with pytest.raises(assets.ValidationError):
        sh_eval(np.zeros((3, 4)), np.array([1.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# texture initialization


def test_init_texture_one_per_face(clothed_rig):
    tex = init_texture(clothed_rig, 1, 1, seed=0)
    assert tex.num_gaussians == clothed_rig.num_faces
    assert np.array_equal(np.sort(tex.face_idx), np.arange(clothed_rig.num_faces))


def test_init_texture_deterministic(clothed_rig):
    a = init_texture(clothed_rig, 2, 5, seed=42)
    b = init_texture(clothed_rig, 2, 5, seed=42)
    assert np.array_equal(a.uv, b.uv)
    assert np.array_equal(a.face_idx, b.face_idx)


def test_init_texture_full_scale_count():
    # a template in the full-size face-count range binds into the
    # documented Gaussian budget
    t = assets.make_capsule_rig(22, cloth=False, seed=0, n_around=64, rings_per_segment=16)
    assert 40_000 <= t.num_faces <= 50_000
    tex = init_texture(t, 4, 6, seed=1)
    assert 180_000 <= tex.num_gaussians <= 270_000
    assert abs(tex.num_gaussians - 5 * t.num_faces) < 0.05 * tex.num_gaussians


def test_init_texture_neutral_attributes(clothed_rig):
    tex = init_texture(clothed_rig, 1, 1, seed=3)
    assert np.all(tex.gamma == 0)
    assert np.abs(np.exp(tex.log_scale[:, 0]) - 0.01).max() < 1e-7
    assert np.all(np.exp(tex.log_scale[:, 1:]) == 1.0)
    # zero SH with the DC offset convention decodes to mid-gray
    wg = local_to_world(tex, clothed_rig.vertices, clothed_rig.faces, view_origin=(0, 3, 1))
    assert np.abs(wg.opacity - 0.5).max() < 1e-7
    assert np.abs(wg.color - 0.5).max() < 1e-7


def test_init_texture_uv_inside_triangle(clothed_rig):
    tex = init_texture(clothed_rig, 3, 6, seed=9)
    assert (tex.uv >= 0).all()
    assert (tex.uv.sum(axis=1) <= 1.0 + 1e-6).all()
