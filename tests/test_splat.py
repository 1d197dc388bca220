import dataclasses
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from meshsplat import assets, skinning, splat
from meshsplat.gstexture import WorldGaussians, local_to_world
from meshsplat.rotations import axis_angle_to_quat, quat_to_matrix
from meshsplat.splat import meshraster, tiles, workers
from meshsplat.splat.projection import EIG_FLOOR, _eig_clamp

from oracles import (
    brute_force_composite,
    radius_square_pairs,
    reference_composite,
    reference_composite_backward,
    reference_cov2d,
    reference_cull,
    reference_raster_apply,
    reference_raster_backward,
    reference_rasterize,
)


def _random_cloud(rng, n, spread=0.8, scale_range=(0.02, 0.15)):
    means = rng.uniform(-spread, spread, size=(n, 3)).astype(np.float32)
    aa = rng.normal(size=(n, 3))
    quats = axis_angle_to_quat(aa).astype(np.float32)
    rots = quat_to_matrix(quats).astype(np.float32)
    scales = rng.uniform(*scale_range, size=(n, 3)).astype(np.float32)
    return WorldGaussians(
        means=means,
        rot_mats=rots,
        scales=scales,
        opacity=rng.uniform(0.2, 0.95, size=n).astype(np.float32),
        color=rng.random((n, 3)).astype(np.float32),
        normal=rots[:, :, 0],
        semantic=rng.random((n, 3)).astype(np.float32),
    )


def _front_camera(res=(64, 64), dist=3.0, focal=70.0):
    return assets.perspective_camera((0.0, dist, 0.0), (0.0, 0.0, 0.0), res,
                                     focal_px=focal, near=0.1, far=20.0)


def test_tile_renderer_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    cam = _front_camera()
    t0 = time.time()
    worst = 0.0
    for scene in range(20):
        n = int(rng.integers(1, 51))
        wg = _random_cloud(rng, n)
        target = splat.render(wg, cam, channels=("color", "alpha", "depth"))
        proj = splat.project_gaussians(wg.means, wg.rot_mats, wg.scales, cam)
        idx = np.nonzero(proj.visible)[0]
        values = np.concatenate([wg.color[idx], proj.depth[idx, None].astype(np.float32)], axis=1)
        ref = brute_force_composite(
            proj.means2d[idx], proj.conic[idx], wg.opacity[idx].astype(np.float64),
            values.astype(np.float64), proj.depth[idx], 64, 64,
        )
        got = np.concatenate(
            [target.color, target.depth[..., None], target.alpha[..., None]], axis=2
        ).astype(np.float64)
        worst = max(worst, np.abs(got - ref).max())
    elapsed = time.time() - t0
    assert worst < 1e-5, f"tile vs oracle deviation {worst}"
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


def test_single_opaque_gaussian_saturates_center():
    wg = WorldGaussians(
        means=np.zeros((1, 3), np.float32),
        rot_mats=np.eye(3, dtype=np.float32)[None],
        scales=np.full((1, 3), 0.5, np.float32),
        opacity=np.array([0.9999], np.float32),
        color=np.array([[0.3, 0.6, 0.9]], np.float32),
        normal=np.array([[1, 0, 0]], np.float32),
    )
    cam = _front_camera(res=(33, 33))
    t = splat.render(wg, cam)
    assert t.alpha[16, 16] >= 0.99
    assert np.abs(t.color[16, 16] - wg.color[0] * t.alpha[16, 16]).max() < 1e-5


def test_zero_gaussians_renders_transparent_black():
    wg = WorldGaussians(
        means=np.zeros((0, 3), np.float32),
        rot_mats=np.zeros((0, 3, 3), np.float32), scales=np.zeros((0, 3), np.float32),
        opacity=np.zeros(0, np.float32), color=np.zeros((0, 3), np.float32),
        normal=np.zeros((0, 3), np.float32),
    )
    t = splat.render(wg, _front_camera(), channels=("color", "alpha"))
    assert np.all(t.color == 0)
    assert np.all(t.alpha == 0)


def test_non_finite_input_reports_index():
    wg = _random_cloud(np.random.default_rng(1), 4)
    wg.means[2, 0] = np.nan
    with pytest.raises(assets.ValidationError, match="2"):
        splat.render(wg, _front_camera())


def test_alpha_bounded_everywhere():
    rng = np.random.default_rng(2)
    wg = _random_cloud(rng, 80)
    t = splat.render(wg, _front_camera())
    assert t.alpha.min() >= 0.0
    assert t.alpha.max() <= 1.0 + 1e-6


def _opaque_shell(rig, texture):
    """The clothed rig's Gaussians at opacity sigmoid(8), seen from the
    front: most covered pixels saturate."""
    tex = dataclasses.replace(texture, opacity_logit=np.full(texture.num_gaussians, 8.0, dtype=np.float32))
    wg = local_to_world(tex, rig.vertices, rig.faces, view_origin=(0.0, 3.0, 0.85))
    cam = assets.perspective_camera((0.0, 3.0, 0.85), (0.0, 0.0, 0.85), (96, 96),
                                    focal_px=120.0, near=0.1, far=20.0)
    return wg, cam


def test_opaque_shell_saturates_silhouette(clothed_rig, clothed_texture):
    wg, cam = _opaque_shell(clothed_rig, clothed_texture)
    t = splat.render(wg, cam)
    # interior of the silhouette: a vertical band through the torso
    band = t.alpha[40:56, 46:50]
    assert band.min() >= 0.99


def test_depth_channel_orders_contributions():
    # a nearer opaque gaussian must dominate the composited depth
    means = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]], np.float32)
    wg = WorldGaussians(
        means=means,
        rot_mats=np.tile(np.eye(3, dtype=np.float32), (2, 1, 1)),
        scales=np.full((2, 3), 0.4, np.float32),
        opacity=np.array([0.95, 0.95], np.float32),
        color=np.array([[1.0, 0, 0], [0, 1.0, 0]], np.float32),
        normal=np.tile(np.array([1, 0, 0], np.float32), (2, 1)),
    )
    cam = _front_camera(res=(33, 33))
    t = splat.render(wg, cam, channels=("color", "alpha", "depth"))
    # camera at y=3 looking toward -y: the gaussian at y=1 is 2m away
    center_depth = t.depth[16, 16] / t.alpha[16, 16]
    assert abs(center_depth - 2.0) < 0.15
    assert t.color[16, 16, 0] > t.color[16, 16, 1]


# ---------------------------------------------------------------------------
# the early stop: the chunked compositor against the dense reference


SHELL_CHANNELS = ("color", "normal", "depth", "alpha")


def _composite_args(wg, cam):
    """``composite``'s arguments as ``render`` builds them for the color,
    normal and depth channels of the visible Gaussians."""
    proj = splat.project_gaussians(wg.means, wg.rot_mats, wg.scales, cam)
    idx = np.nonzero(proj.visible)[0]
    values = np.concatenate([wg.color[idx], wg.normal[idx],
                             proj.depth[idx, None].astype(np.float32)], axis=1)
    return (proj.means2d[idx], proj.conic[idx], wg.opacity[idx], values,
            splat.order_key(proj.depth[idx], cam), proj.radius[idx], *cam.resolution)


def _image(target):
    return np.concatenate([target.color, target.normal, target.depth[..., None],
                           target.alpha[..., None]], axis=2).astype(np.float64)


@pytest.fixture()
def in_process(monkeypatch):
    """Composite every tile in this process, where a patched module
    function is the one that runs: a forked worker never sees the patch."""
    monkeypatch.setattr(workers, "spare_cpus", lambda: 0)


def _count_weight_evals(monkeypatch):
    """Patch ``tiles._weights`` to count the (Gaussian, pixel) entries it
    evaluates; returns the running count in a one-element list."""
    count, weights = [0], tiles._weights

    def counted(coefs, opacity, feats):
        count[0] += coefs.shape[0] * feats.shape[1]
        return weights(coefs, opacity, feats)

    monkeypatch.setattr(tiles, "_weights", counted)
    return count


def _dense_evals(args):
    """(pair, tile pixel) entries the compositor evaluates without an early
    stop on an image of whole tiles: every pixel of every culled pair."""
    means2d, conic, _, _, depth, radius, width, height = args
    assert width % tiles.TILE == 0 and height % tiles.TILE == 0
    return tiles.tile_pairs(means2d, conic, radius, depth, width, height)[0].size * tiles.TILE ** 2


def _output_rounding(ref, dtype):
    """Half an ulp of each reference value in the output dtype."""
    return np.spacing(np.abs(ref).astype(dtype)).astype(np.float64) / 2


@pytest.mark.parametrize("chunk", [tiles.CHUNK, 16])
def test_early_stop_stays_within_bound_on_saturating_shell(monkeypatch, in_process, clothed_rig,
                                                           clothed_texture, chunk):
    monkeypatch.setattr(tiles, "CHUNK", chunk)
    wg, cam = _opaque_shell(clothed_rig, clothed_texture)
    args = _composite_args(wg, cam)
    ref, _ = reference_composite(*args)
    v_max = max(1.0, np.abs(args[3]).max())
    covered = ref[..., -1] > 0
    assert ((1.0 - ref[covered, -1]) * v_max <= tiles.STOP_BOUND).mean() > 0.3

    evals = _count_weight_evals(monkeypatch)
    target = splat.render(wg, cam, channels=SHELL_CHANNELS)
    got = _image(target)
    assert 0 < evals[0] < _dense_evals(args), "no pixel stopped early"
    # every channel within STOP_BOUND, whatever its scale (depth is near 3)
    slack = tiles.STOP_BOUND + _output_rounding(ref, target.color.dtype) + 1e-12
    assert (np.abs(got - ref) <= slack).all(), np.abs(got - ref).max()

    # sampled tiles against the per-pixel brute force, which shares no code
    # with the package: shift the means so the tile is a 16x16 image
    # (only Gaussians whose footprint radius reaches the tile go in)
    means2d, conic, opacity, values, key, radius = args[:6]
    stopped = ((1.0 - ref[..., -1]) * v_max <= tiles.STOP_BOUND).reshape(6, 16, 6, 16).any(axis=(1, 3))
    rng = np.random.default_rng(10)
    for ty, tx in rng.permutation(np.argwhere(stopped))[:3]:
        x0, y0 = 16 * tx, 16 * ty
        near = np.abs(means2d - (x0 + 8, y0 + 8)).max(axis=1) <= radius + 9
        want = brute_force_composite(means2d[near] - (x0, y0), conic[near],
                                     opacity[near].astype(np.float64),
                                     values[near].astype(np.float64), key[near], 16, 16)
        tile = got[y0:y0 + 16, x0:x0 + 16]
        assert (np.abs(tile - want) <= slack[y0:y0 + 16, x0:x0 + 16]).all()


def _assert_equals_reference_where_no_pixel_stops(args, rng):
    """``composite`` and ``composite_backward`` against the dense oracle
    where no pixel stops: the image within 1e-12 and each of the three
    gradients within 1e-12 of its largest entry. Returns the gradients."""
    got, cache = splat.composite(*args, keep_cache=True)
    ref, ref_cache = reference_composite(*args)
    v_max = max(1.0, np.abs(args[3]).max())
    assert ((1.0 - ref[..., -1]) * v_max).min() > tiles.STOP_BOUND
    # equal up to float64 rounding: the summation order across chunks and
    # the tile-local expansion of the exponent
    assert np.abs(got - ref).max() <= 1e-12

    g = rng.normal(size=got.shape)
    grads = splat.composite_backward(cache, g)
    d_values, _, d_opacity, d_means = reference_composite_backward(ref_cache, *args[:4], g)
    for a, b in zip(grads, (d_values, d_opacity, d_means)):
        assert np.abs(b).max() > 0
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    return grads


@pytest.mark.parametrize("chunk", [tiles.CHUNK, 1, 7])
def test_chunked_compositor_equals_reference_where_no_pixel_stops(monkeypatch, in_process, chunk):
    monkeypatch.setattr(tiles, "CHUNK", chunk)
    rng = np.random.default_rng(11)
    wg = _random_cloud(rng, 80)
    cam = _front_camera(res=(6 * tiles.TILE, 5 * tiles.TILE))  # whole tiles, for _dense_evals
    args = _composite_args(wg, cam)
    evals = _count_weight_evals(monkeypatch)
    _assert_equals_reference_where_no_pixel_stops(args, rng)
    assert evals[0] == _dense_evals(args)


def _conics_2d(sigmas, angles):
    """``composite``'s conic and radius for 2D Gaussians with principal
    standard deviations ``sigmas`` [n, 2] (px) and axis angles [n]."""
    c, s = np.cos(angles), np.sin(angles)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    cov = rot @ (sigmas[:, :, None] ** 2 * np.eye(2)) @ rot.transpose(0, 2, 1)
    inv = np.linalg.inv(cov)
    return np.stack([inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 1]], axis=1), 3.0 * sigmas.max(axis=1)


CANCELLATION_CASES = ["wide_far", "thin_floor", "edge_tiles"]


def _cancellation_args(case, rng):
    """``composite``'s arguments for 24 2D Gaussians on a 90x70 image."""
    width, height = 90, 70
    n = 24
    means2d = rng.uniform((0, 0), (width, height), size=(n, 2))
    sigmas = rng.uniform(1.5, 6.0, size=(n, 2))
    angles = rng.uniform(0, np.pi, size=n)
    if case == "wide_far":  # two wide Gaussians centred 100+ px off the image
        means2d[:2] = [(-110.0, 35.0), (45.0, 180.0)]
        sigmas[:2] = [(70.0, 50.0), (40.0, 65.0)]
    elif case == "thin_floor":  # long, and as thin as projection allows
        sigmas[:8] = np.stack([np.full(8, np.sqrt(EIG_FLOOR)), rng.uniform(15, 40, 8)], 1)
    else:  # every Gaussian centred in the partial right column or bottom row
        right = rng.random(n) < 0.5
        means2d[right, 0] = rng.uniform(80, 90, right.sum())
        means2d[~right, 1] = rng.uniform(64, 70, (~right).sum())
    conic, radius = _conics_2d(sigmas, angles)
    opacity = rng.uniform(0.2, 0.6, n)
    values = np.concatenate([rng.random((n, 3)), rng.uniform(2.5, 3.5, (n, 1))], axis=1)
    return means2d, conic, opacity, values, rng.random(n), radius, width, height


@pytest.mark.parametrize("case", CANCELLATION_CASES)
def test_tile_local_form_matches_reference_on_cancellation_cases(case):
    # the exponent is expanded about each tile's centre, so its constant
    # and linear terms grow with the mean's distance from the tile and
    # with the conic; a 90x70 image also has partial tiles on two sides
    rng = np.random.default_rng(13)
    args = _cancellation_args(case, rng)
    _, _, d_means = _assert_equals_reference_where_no_pixel_stops(args, rng)
    if case == "wide_far":
        assert (np.abs(d_means[:2]) > 0).all()  # the far Gaussians reach the image


def _tangent_args(offset):
    """One Gaussian on a 32x32 image whose 3-sigma ellipse passes ``offset``
    px beyond the pixel centre (TILE - 0.5, TILE - 0.5), the corner of
    tile 0's pixel-centre box nearest to it (inside the ellipse for a
    negative offset). Its short axis (sigma 2) points along the diagonal
    at 45 degrees, so that corner is where the box comes closest."""
    conic, radius = _conics_2d(np.array([[2.0, 4.0]]), np.array([np.pi / 4]))
    means2d = tiles.TILE - 0.5 + (6.0 + offset) / np.sqrt(2.0) * np.ones((1, 2))
    return means2d, conic, np.array([0.5]), np.array([[0.2, 0.4, 0.6]]), np.zeros(1), radius, 32, 32


def _cull_scene(scene, request):
    if scene == "shell":
        wg, cam = _opaque_shell(request.getfixturevalue("clothed_rig"),
                                request.getfixturevalue("clothed_texture"))
        return _composite_args(wg, cam)
    if scene.startswith("tangent"):
        return _tangent_args(float(scene.split(":")[1]))
    return _cancellation_args(scene, np.random.default_rng(13))


@pytest.mark.parametrize("scene", [*CANCELLATION_CASES, "tangent:-1e-7", "tangent:1e-7",
                                   "tangent:1e-3", "shell"])
def test_culled_pairs_have_zero_weight_over_their_tile(scene, request):
    """``tile_pairs`` keeps ``bin_gaussians``' pairs in order, and every
    pair it drops has dense weight 0 (the oracle's direct form) at every
    pixel of its tile."""
    args = _cull_scene(scene, request)
    means2d, conic, _, _, key, radius, width, height = args
    bin_t, bin_g = tiles.bin_gaussians(means2d, radius, key, width, height)
    kept_t, kept_g = tiles.tile_pairs(means2d, conic, radius, key, width, height)[:2]
    kept = set(zip(kept_t.tolist(), kept_g.tolist()))
    mask = np.array([pair in kept for pair in zip(bin_t.tolist(), bin_g.tolist())], dtype=bool)
    assert np.array_equal(bin_t[mask], kept_t) and np.array_equal(bin_g[mask], kept_g)

    _, ref_cache = reference_composite(*args)
    ntx = -(-width // tiles.TILE)
    weight_of = {}
    for x0, y0, ids, w in ref_cache:
        t = (y0 // tiles.TILE) * ntx + x0 // tiles.TILE
        weight_of.update({(t, i): row for i, row in zip(ids.tolist(), w)})
    dropped = [pair for pair in weight_of if pair not in kept]
    assert all(not weight_of[pair].any() for pair in dropped)
    if scene == "shell":
        assert len(dropped) > 0.1 * bin_t.size
    elif scene == "tangent:-1e-7":  # reaches the corner pixel by 1.5e-7 in the exponent
        assert (0, 0) in kept and weight_of[(0, 0)][-1] > 0
    elif scene == "tangent:1e-7":  # misses it, within the cull's margin
        assert not weight_of[(0, 0)].any()
    elif scene == "tangent:1e-3":
        assert (0, 0) in dropped


def _tight_box_cases(width, height):
    """(means2d, conic, radius) of Gaussians that test the ellipse box
    ``tile_pairs`` expands: thin axis-aligned and diagonal ellipses, means
    exactly on tile edges, and two conics whose box is not finite, one
    degenerate (det 0: the box is inf) and one indefinite (NaN)."""
    t = float(tiles.TILE)
    sigmas = np.array([[np.sqrt(EIG_FLOOR), 20.0], [25.0, np.sqrt(EIG_FLOOR)], [np.sqrt(EIG_FLOOR), 30.0],
                       [0.8, 12.0], [3.0, 3.0], [2.0, 9.0], [np.sqrt(EIG_FLOOR), 6.0], [1.0, 1.0]])
    angles = np.array([0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4, 0.0, 0.3, np.pi / 4, 0.0])
    conic, radius = _conics_2d(sigmas, angles)
    means2d = np.array([[width / 2, height / 2], [width / 3, height / 2], [2 * t, 2 * t],
                        [3 * t + 0.5, height / 2], [t, 3 * t], [4 * t, t - 0.5],
                        [width - 2.0, height - 2.0], [2 * t, 2 * t]])
    conic = np.concatenate([conic, [[4.0, 2.0, 1.0], [1.0, 1.5, 1.0]]])
    radius = np.concatenate([radius, [15.0, 20.0]])
    means2d = np.concatenate([means2d, [[3 * t, 2 * t], [width / 2 + 0.25, height / 2]]])
    return means2d, conic, radius


@pytest.mark.parametrize("res", [(90, 70), (333, 290)])  # 48 and 700 tiles at TILE 12
@pytest.mark.parametrize("cloud", [0, 1, 40, 300, "tight_box"])
def test_pair_lists_equal_reference_binning_and_cull(cloud, res):
    """``bin_gaussians`` is the oracle's lexsorted radius-square binning, and
    ``tile_pairs`` that binning after the oracle's cull, array for array,
    with its pair table byte for byte:
    means up to 40 px off-screen, partial edge tiles, tied depth keys, and
    (``tight_box``) the ellipse boxes' edge cases."""
    width, height = res
    if cloud == "tight_box":
        rng = np.random.default_rng(99)
        means2d, conic, radius = _tight_box_cases(width, height)
        n = len(radius)
    else:
        n = cloud
        rng = np.random.default_rng(100 + n)
        means2d = rng.uniform(-40.0, (width + 40.0, height + 40.0), size=(n, 2))
        conic, radius = _conics_2d(rng.uniform(1.0, 30.0, (n, 2)), rng.uniform(0.0, np.pi, n))
    u16 = splat.quantized_depth_keys(rng.choice([1.0, 1.5, 2.0], n), 0.1, 20.0)
    for key, dtype in ((u16, np.float32), (rng.random(n).astype(np.float32), np.float64)):
        args = means2d.astype(dtype), conic.astype(dtype), radius.astype(dtype), key
        want = radius_square_pairs(args[0], args[2], key, width, height)
        got = tiles.bin_gaussians(args[0], args[2], key, width, height)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
        want = reference_cull(*want, args[0], args[1], width, height)
        got = tiles.tile_pairs(*args, width, height)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
        # the pair table: each pair's offset from its tile's centre, conic
        # and exponent row, as gathered and built from the inputs directly
        tile_of, gauss_of, offset, conic_of, coefs = got
        ntx = -(-width // tiles.TILE)
        centre = np.stack([tile_of % ntx, tile_of // ntx], axis=1) * tiles.TILE + tiles.TILE / 2
        want_offset = args[0].astype(np.float64)[gauss_of] - centre
        want_conic = args[1].astype(np.float64)[gauss_of]
        for g, w in ((offset, want_offset), (conic_of, want_conic),
                     (coefs, tiles._exponent_coefs(want_conic, want_offset))):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    if cloud == 300:  # the scene has ties, pairs off-screen means bring, and culled pairs
        assert np.unique(u16).size == 3
        off = (means2d < 0).any(axis=1) | (means2d >= res).any(axis=1)
        assert np.isin(want[1], np.nonzero(off)[0]).any()
        assert want[0].size < radius_square_pairs(means2d, radius, u16, width, height)[0].size
    if cloud == "tight_box":
        # the thin axis-aligned boxes are tighter than their squares, and the
        # non-finite boxes fell back to the squares, whose pairs the cull keeps
        def tiles_in(x0, x1, y0, y1):
            return (x1 - x0) * (y1 - y0)
        boxes = tiles_in(*tiles._ellipse_boxes(means2d, conic, radius, width, height))
        squares = tiles_in(*tiles._radius_boxes(means2d, radius, width, height))
        assert (boxes <= squares).all() and (boxes[:2] < squares[:2]).all()
        assert (boxes[-2:] == squares[-2:]).all() and np.isin([n - 2, n - 1], want[1]).all()


def test_composite_without_cache_equals_with_cache(clothed_rig, clothed_texture):
    args = _composite_args(*_opaque_shell(clothed_rig, clothed_texture))
    assert np.array_equal(splat.composite(*args)[0], splat.composite(*args, keep_cache=True)[0])


def test_weight_clamp_skipped_only_where_it_changes_nothing(monkeypatch, in_process, clothed_rig,
                                                            clothed_texture):
    """Below ``W_MAX`` the clamp pass is skipped, and the image equals a
    forced clamp bit for bit; above it every cached weight is clamped."""
    args = list(_composite_args(*_opaque_shell(clothed_rig, clothed_texture)))
    assert args[2].max() > tiles.W_MAX
    _, cache = splat.composite(*args, keep_cache=True)
    w_max = max(w.max() for _, _, chunks in cache.tiles for _, _, w, _ in chunks)
    assert w_max == tiles.W_MAX

    # means on pixel centres, where the exponent is 0 up to its rounding
    args[0] = np.floor(args[0]) + 0.5
    args[2] = np.full(args[2].shape, tiles.W_MAX / (1.0 + 2e-9))
    skipped, cache = splat.composite(*args, keep_cache=True)
    w_max = max(w.max() for _, _, chunks in cache.tiles for _, _, w, _ in chunks)
    assert tiles.W_MAX * (1.0 - 1e-8) < w_max < tiles.W_MAX
    weights = tiles._weights
    monkeypatch.setattr(tiles, "_weights", lambda coefs, opacity, feats: np.minimum(
        weights(coefs, opacity, feats), tiles.W_MAX))
    assert np.array_equal(splat.composite(*args)[0], skipped)


def test_backward_clamp_mask_skipped_only_where_it_changes_nothing(monkeypatch, in_process,
                                                                  clothed_rig, clothed_texture):
    """Below ``W_MAX`` the backward skips the clamp mask, and its gradients
    equal the masked form's bit for bit; above it a clamped pixel passes
    no weight gradient on."""
    args = list(_composite_args(*_opaque_shell(clothed_rig, clothed_texture)))
    args[2] = np.full(args[2].shape, tiles.W_MAX / (1.0 + 2e-9))
    width, height = args[-2:]
    d_out = np.random.default_rng(4).normal(size=(height, width, args[3].shape[1] + 1))
    skipped = splat.composite_backward(splat.composite(*args, keep_cache=True)[1], d_out)
    with monkeypatch.context() as m:
        m.setattr(tiles, "_may_clamp", lambda opacity: True)
        masked = splat.composite_backward(splat.composite(*args, keep_cache=True)[1], d_out)
    assert all(np.array_equal(a, b) for a, b in zip(skipped, masked))

    # one opaque Gaussian on a one-tile image, mean on a pixel centre:
    # d_out only on the pixels whose weight is clamped reaches the value,
    # never the opacity or mean
    side, centre = tiles.TILE, tiles.TILE / 2 + 0.5
    one = (np.array([[centre, centre]]), np.array([[1e-3, 0.0, 1e-3]]), np.array([1.0]),
           np.array([[0.5]]), np.array([1.0]), np.array([95.0]), side, side)
    _, cache = splat.composite(*one, keep_cache=True)
    (_, _, [(_, alive, w, _)]), = cache.tiles
    clamped = alive[w[0] >= tiles.W_MAX]
    assert 0 < clamped.size < alive.size
    d_out = np.zeros((side, side, 2))
    d_out.reshape(-1, 2)[clamped] = 1.0
    d_values, d_opacity, d_means = splat.composite_backward(cache, d_out)
    assert d_values[0, 0] > 0.0 and d_opacity[0] == 0.0 and not d_means.any()


def test_early_stop_gradients_within_derived_bound(clothed_rig, clothed_texture):
    """The backward is the exact gradient of the truncated forward; it
    differs from the dense gradient only by the pairs behind each pixel's
    stop. With B = STOP_BOUND, V = max(1, max|v|), G = max|g|, C channels:

    - a stopped pixel has T_p <= B / V, and the dropped pairs' contributions
      c_jp = w_jp T_jp sum to at most T_p;
    - P_jp = sum_c v_jc g_cp + g_alpha,p has |P_jp| <= (C + 1) V G, so the
      dropped tail R_p = sum_j c_jp P_jp has |R_p| <= (C + 1) B G;
    - a value (or alpha value) gradient gains c_jp g_cp <= B G per dropped
      pair;
    - a kept pair's dL/dw = P T - S / (1 - w) changes only through the
      suffix S, by R_p; unclamped weights have 1 - w > 1 - W_MAX, so by at
      most (C + 1) B G / (1 - W_MAX). A dropped pair's whole dL/dw is
      bounded by |P T| + |S| / (1 - w) <= (C + 1) B G (1 + 1 / (1 - W_MAX)),
      which covers both: call it D;
    - the opacity gradient sums dL/dw * w / opacity = dL/dw * exp(power),
      with exp(power) <= 1; the mean gradient sums dL/dw * w * Q d, with
      w < 1 and |Q d| <= 3 sqrt(lambda_max(Q)) inside the 3-sigma cutoff.

    Summed over the n_i pixels of a Gaussian's tiles, the bounds are
    n_i B G (values), n_i D (opacity) and 3 sqrt(lambda_max) n_i D (means).
    """
    wg, cam = _opaque_shell(clothed_rig, clothed_texture)
    args = _composite_args(wg, cam)
    means2d, conic, opacity, values, key, radius, width, height = args
    out, cache = splat.composite(*args, keep_cache=True)
    _, ref_cache = reference_composite(*args)
    g = np.random.default_rng(12).normal(size=out.shape)
    got = splat.composite_backward(cache, g)
    d_values, _, d_opacity, d_means = reference_composite_backward(ref_cache, *args[:4], g)
    want = (d_values, d_opacity, d_means)

    B, G, C = tiles.STOP_BOUND, np.abs(g).max(), values.shape[1]
    D = (C + 1) * B * G * (1.0 + 1.0 / (1.0 - tiles.W_MAX))
    _, gauss_of = tiles.bin_gaussians(means2d, radius, key, width, height)
    n_px = tiles.TILE ** 2 * np.bincount(gauss_of, minlength=len(values))  # 96 px: whole tiles
    a, b, c = conic[:, 0], conic[:, 1], conic[:, 2]
    lam_max = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b * b)
    bounds = (n_px[:, None] * B * G, n_px * D, (3.0 * np.sqrt(lam_max) * n_px * D)[:, None])
    for got_i, want_i, bound in zip(got, want, bounds):
        rounding = 1e-12 * np.abs(want_i).max()
        assert (np.abs(got_i - want_i) <= bound + rounding).all()
    assert any(not np.array_equal(x, y) for x, y in zip(got, want)), "no pair was dropped"


@pytest.mark.parametrize("chunk", [1, 2])
def test_gradient_checks_pass_across_chunks(monkeypatch, chunk):
    from meshsplat.train import preflight

    monkeypatch.setattr(tiles, "CHUNK", chunk)
    for check in (preflight.check_splat, preflight.check_splat_render):
        report = check()
        assert report.ok, report.summary()
        assert report.tol == preflight.TOL_SPLAT


# ---------------------------------------------------------------------------
# tile workers


def _split_scene(scene, rig, texture):
    """``composite``'s arguments for the split path's scenes."""
    rng = np.random.default_rng(21)
    if scene == "shell":  # saturating; 4 of its 32 tiles run a second chunk
        return _composite_args(*_opaque_shell(rig, texture))
    wg = _random_cloud(rng, 200)
    if scene == "empty_view":  # every Gaussian behind the camera
        return _composite_args(dataclasses.replace(wg, means=wg.means + np.float32([0, 10, 0])),
                               _front_camera())
    res = {"one_tile": (tiles.TILE, tiles.TILE), "edge_tiles": (50, 38)}[scene]
    return _composite_args(wg, _front_camera(res=res))


def _bytes(image):
    return image.dtype, image.shape, image.tobytes()


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("scene", ["empty_view", "one_tile", "edge_tiles", "shell"])
def test_split_image_is_bytes_equal_to_in_process_loop(monkeypatch, clothed_rig, clothed_texture,
                                                       scene, n_workers):
    args = _split_scene(scene, clothed_rig, clothed_texture)
    monkeypatch.setattr(workers, "spare_cpus", lambda: 0)
    want = splat.composite(*args)[0]
    monkeypatch.setattr(workers, "spare_cpus", lambda: n_workers)
    assert _bytes(splat.composite(*args)[0]) == _bytes(want)
    if scene != "empty_view":
        assert len(workers._pool.workers) == n_workers


def test_split_reads_the_chunk_size_of_each_call(monkeypatch, clothed_rig, clothed_texture):
    """A worker forked before ``CHUNK`` is patched composites with the
    patched value (28 of the shell's 32 tiles then run several chunks):
    the constants travel with each request."""
    args = _split_scene("shell", clothed_rig, clothed_texture)
    monkeypatch.setattr(workers, "spare_cpus", lambda: 1)
    full = splat.composite(*args)[0]  # forks the worker at the default chunk
    monkeypatch.setattr(tiles, "CHUNK", 16)
    split16 = splat.composite(*args)[0]
    monkeypatch.setattr(workers, "spare_cpus", lambda: 0)
    assert _bytes(split16) == _bytes(splat.composite(*args)[0])
    assert not np.array_equal(split16, full), "the chunk size moves no bit of this scene"


def test_a_call_that_outgrows_the_mapping_forks_again(monkeypatch, clothed_rig, clothed_texture):
    """It runs in this process; the next call forks before building its
    pair table, at twice its size, and splits."""
    args = _split_scene("shell", clothed_rig, clothed_texture)
    monkeypatch.setattr(workers, "spare_cpus", lambda: 0)
    want = _bytes(splat.composite(*args)[0])
    monkeypatch.setattr(workers, "spare_cpus", lambda: 1)
    monkeypatch.setattr(workers, "_MIN_BYTES", 1 << 16)
    monkeypatch.setattr(workers, "_wanted", 0)
    workers.stop()

    def tiles_done(pool):
        means2d, conic, _, _, key, radius, width, height = args
        n = np.unique(tiles.tile_pairs(means2d, conic, radius, key, width, height)[0]).size
        return np.frombuffer(pool.mem, np.uint8, n, workers._ALIGN)

    assert _bytes(splat.composite(*args)[0]) == want
    small = workers._pool
    assert small.size == 1 << 16 < workers._wanted
    assert _bytes(splat.composite(*args)[0]) == want
    assert workers._pool is not small and workers._pool.size == workers._wanted
    assert tiles_done(workers._pool).all()


_TEST_PROCESS = os.getpid()
_composite_tile = tiles._composite_tile


def _die_in_worker(out, k, *rest):
    """``tiles._composite_tile``, except that a forked worker kills itself
    on the first tile it claims."""
    if os.getpid() != _TEST_PROCESS:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.002)  # leave the worker tiles to claim
    _composite_tile(out, k, *rest)


def test_worker_killed_mid_call_leaves_the_image_bytes_equal(monkeypatch, clothed_rig,
                                                             clothed_texture):
    args = _split_scene("edge_tiles", clothed_rig, clothed_texture)
    monkeypatch.setattr(workers, "spare_cpus", lambda: 0)
    want = splat.composite(*args)[0]
    monkeypatch.setattr(workers, "spare_cpus", lambda: 1)
    splat.composite(*args)  # the worker is up before its tile function is swapped
    monkeypatch.setattr(tiles, "_composite_tile", _die_in_worker)
    assert _bytes(splat.composite(*args)[0]) == _bytes(want)
    assert workers._pool is None, "the worker finished the call alive"


def test_render_after_worker_sigkill_is_bytes_equal(monkeypatch, clothed_rig, clothed_texture):
    monkeypatch.setattr(workers, "spare_cpus", lambda: 1)
    args = _split_scene("shell", clothed_rig, clothed_texture)
    first = splat.composite(*args)[0]
    (pid, _, _), = workers._pool.workers
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    assert _bytes(splat.composite(*args)[0]) == _bytes(first)  # in-process
    assert _bytes(splat.composite(*args)[0]) == _bytes(first)  # a new worker
    (new_pid, _, _), = workers._pool.workers
    assert new_pid != pid
    with pytest.raises(ChildProcessError):  # the dead one was reaped
        os.waitpid(pid, os.WNOHANG)


def test_render_runs_in_process_when_no_worker_can_fork(monkeypatch, clothed_rig,
                                                        clothed_texture):
    args = _split_scene("edge_tiles", clothed_rig, clothed_texture)
    monkeypatch.setattr(workers, "spare_cpus", lambda: 0)
    want = _bytes(splat.composite(*args)[0])
    monkeypatch.setattr(workers, "spare_cpus", lambda: 1)
    workers.stop()

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _bytes(splat.composite(*args)[0]) == want
    assert workers._pool is None


_RENDER_ONCE = """
import os, signal, sys
import numpy as np
from meshsplat import assets, splat
from meshsplat.gstexture import WorldGaussians
from meshsplat.splat import workers

workers.spare_cpus = lambda: 1
rng = np.random.default_rng(0)
n = 60
wg = WorldGaussians(
    means=rng.uniform(-0.8, 0.8, (n, 3)).astype(np.float32),
    rot_mats=np.tile(np.eye(3, dtype=np.float32), (n, 1, 1)),
    scales=np.full((n, 3), 0.05, np.float32), opacity=np.full(n, 0.5, np.float32),
    color=rng.random((n, 3)).astype(np.float32), normal=np.tile(np.float32([1, 0, 0]), (n, 1)))
cam = assets.perspective_camera((0.0, 3.0, 0.0), (0.0, 0.0, 0.0), (64, 64), focal_px=70.0,
                                near=0.1, far=20.0)
splat.render(wg, cam)
print(workers._pool.workers[0][0], flush=True)
end = sys.argv[1]
if end == "raise":
    raise RuntimeError("uncaught")
if end == "sigkill":
    sys.stdin.read()  # until the test has read the pid
    os.kill(os.getpid(), signal.SIGKILL)
"""


def _gone(pid, seconds=10.0):
    """Whether ``pid`` exits within ``seconds``; a zombie counts as gone
    (no process is left to reap an orphan in some containers)."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.01)
    return False


@pytest.mark.parametrize("end", ["exit", "raise", "sigkill"])
def test_no_worker_outlives_its_process(end):
    src = str(Path(splat.__file__).parents[2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-c", _RENDER_ONCE, end]
    if end == "sigkill":
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        pid = int(proc.stdout.readline())
        proc.communicate(timeout=60)  # closes stdin: the process kills itself
        assert proc.returncode == -signal.SIGKILL
    else:
        # returns only once every holder of the output pipes has closed them
        run = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == (0 if end == "exit" else 1), run.stderr
        pid = int(run.stdout.split()[0])
        with pytest.raises(FileNotFoundError):  # reaped at exit
            open(f"/proc/{pid}/stat")
    assert _gone(pid)


# ---------------------------------------------------------------------------
# sorting


def _cloud_at_depths(depths):
    n = len(depths)
    means = np.zeros((n, 3), np.float32)
    means[:, 1] = 3.0 - np.asarray(depths)  # camera sits at y=3 looking -y
    return WorldGaussians(
        means=means,
        rot_mats=np.tile(np.eye(3, dtype=np.float32), (n, 1, 1)),
        scales=np.full((n, 3), 0.05, np.float32),
        opacity=np.full(n, 0.5, np.float32),
        color=np.zeros((n, 3), np.float32),
        normal=np.tile(np.array([1, 0, 0], np.float32), (n, 1)),
    )


def test_sort_keys_identity_for_sorted_depths():
    wg = _cloud_at_depths([1.0, 2.0, 3.0])
    cam = _front_camera()
    assert np.array_equal(splat.sort_keys(wg, cam, "exact_f32"), [0, 1, 2])
    assert np.array_equal(splat.sort_keys(wg, cam, "quant_u16"), [0, 1, 2])


def test_sort_keys_quantized_matches_exact_when_gaps_exceed_bin():
    rng = np.random.default_rng(3)
    cam = _front_camera()
    near, far = cam.near, cam.far
    bin_width = (far - near) / splat.U16_BINS
    # a jittered grid keeps every pairwise gap above one quantization bin
    depths = (near + 0.02 + np.arange(10_000) * (1.5 * bin_width)
              + rng.uniform(0.0, 0.3 * bin_width, size=10_000))
    gaps = np.diff(np.sort(depths))
    assert gaps.min() > bin_width
    assert depths.max() < far
    perm = rng.permutation(depths.size)
    wg = _cloud_at_depths(depths[perm])
    exact = splat.sort_keys(wg, cam, "exact_f32")
    quant = splat.sort_keys(wg, cam, "quant_u16")
    assert np.array_equal(exact, quant)


def test_sort_keys_equal_depths_stable_by_index():
    wg = _cloud_at_depths([2.0, 2.0, 1.0, 2.0])
    cam = _front_camera()
    assert np.array_equal(splat.sort_keys(wg, cam, "exact_f32"), [2, 0, 1, 3])
    assert np.array_equal(splat.sort_keys(wg, cam, "quant_u16"), [2, 0, 1, 3])


def test_sort_keys_culls_behind_camera():
    wg = _cloud_at_depths([1.0, -0.5, 2.0, 25.0])  # one behind, one past far
    cam = _front_camera()
    assert np.array_equal(splat.sort_keys(wg, cam, "exact_f32"), [0, 2])


def test_quantized_keys_monotone():
    k = splat.quantized_depth_keys(np.array([0.1, 5.0, 5.00001, 19.9]), 0.1, 20.0)
    assert k.dtype == np.uint16
    assert (np.diff(k.astype(int)) >= 0).all()


def test_render_quant_u16_follows_sort_keys_order():
    rng = np.random.default_rng(5)
    cam = _front_camera()
    wg = _random_cloud(rng, 40, scale_range=(0.1, 0.3))
    # Gaussian 0 sits a quarter bin behind Gaussian 1 inside one u16 bin:
    # exact ordering puts 1 in front, the quantized tie keeps index order
    bin_width = (cam.far - cam.near) / splat.U16_BINS
    d = cam.near + 6000.5 * bin_width
    wg.means[0] = (0.0, 3.0 - (d + 0.25 * bin_width), 0.0)
    wg.means[1] = (0.0, 3.0 - (d - 0.25 * bin_width), 0.0)
    quant = splat.sort_keys(wg, cam, "quant_u16")
    assert not np.array_equal(quant, splat.sort_keys(wg, cam, "exact_f32"))

    proj = splat.project_gaussians(wg.means, wg.rot_mats, wg.scales, cam)
    idx = np.nonzero(proj.visible)[0]
    rank = np.empty(len(wg.means), dtype=np.int64)
    rank[quant] = np.arange(quant.size)
    ref, _ = splat.composite(proj.means2d[idx], proj.conic[idx], wg.opacity[idx], wg.color[idx],
                             rank[idx], proj.radius[idx], *cam.resolution)
    t = splat.render(wg, cam, sort_mode="quant_u16")
    assert np.array_equal(t.color, ref[..., :3])
    assert np.array_equal(t.alpha, ref[..., 3])
    assert not np.array_equal(t.color, splat.render(wg, cam).color)


def test_eig_clamp_lifts_only_eigenvalues_below_the_floor():
    f = EIG_FLOOR
    rng = np.random.default_rng(5)
    n = 300
    hi = lambda size: rng.uniform(1.01 * f, 20.0, size)
    lo = lambda size: rng.uniform(0.0, 0.99 * f, size)
    # none, one and both eigenvalues below the floor, in random directions
    lam = np.concatenate([np.stack([hi(n), hi(n)], 1), np.stack([hi(n), lo(n)], 1),
                          np.stack([lo(n), lo(n)], 1)])
    t = rng.uniform(0.0, np.pi, len(lam))
    V = np.stack([np.stack([np.cos(t), -np.sin(t)], 1), np.stack([np.sin(t), np.cos(t)], 1)], 1)
    full = V @ (lam[:, :, None] * np.swapaxes(V, 1, 2))
    cov = np.stack([full[:, 0, 0], full[:, 0, 1], full[:, 1, 1]], 1)
    # isotropic rows above, at and below the floor, and axis-aligned rows at it
    cov = np.concatenate([cov, [[2.0, 0.0, 2.0], [f, 0.0, f], [0.1, 0.0, 0.1], [0.0, 0.0, 0.0],
                                [f, 0.0, 5.0], [5.0, 0.0, f], [0.1, 0.0, f]]])

    out, lam_max = _eig_clamp(cov, f)

    w, vecs = np.linalg.eigh(np.stack([cov[:, [0, 1]], cov[:, [1, 2]]], 1))
    lifted = vecs @ (np.maximum(w, f)[:, :, None] * np.swapaxes(vecs, 1, 2))
    expect = np.stack([lifted[:, 0, 0], lifted[:, 0, 1], lifted[:, 1, 1]], 1)
    assert np.abs(out - expect).max() < 1e-12
    assert np.abs(lam_max - np.maximum(w[:, 1], f)).max() < 1e-12
    unclamped = w[:, 0] >= f + 1e-9
    unclamped[n * 3 + 1] = True  # exactly at the floor in both eigenvalues
    assert unclamped[:n].all() and not unclamped[n:3 * n].any()
    assert out[unclamped].tobytes() == cov[unclamped].tobytes()


@pytest.mark.parametrize("mode", ["perspective", "ortho-front"])
def test_conic_and_radius_match_direct_covariance(mode):
    # cov2d = M M^T with M = J R S against the world covariance pushed
    # through J by one einsum, floored by eigendecomposition: thin-axis and
    # isotropic Gaussians, projected eigenvalues on both sides of the
    # floor, and no Gaussians at all
    if mode == "perspective":
        cam = _front_camera(focal=120.0)
    else:
        cam = assets.Camera(mode, (64, 64), np.array([2.0, 2.0, 0.0, 0.0], np.float32),
                            assets.look_at((0.0, 3.0, 0.0), (0.0, 0.0, 0.0)), near=0.1, far=20.0)
    rng = np.random.default_rng(8)
    n = 400
    wg = _random_cloud(rng, n, spread=0.6, scale_range=(0.002, 0.08))
    scales = wg.scales.copy()
    scales[np.arange(n // 2), rng.integers(0, 3, n // 2)] *= 1e-4  # one thin axis
    scales[n // 2:] = scales[n // 2:, :1]  # isotropic
    for k in (0, n):
        rots, sc = wg.rot_mats[:k], scales[:k]
        proj = splat.project_gaussians(wg.means[:k], rots, sc, cam)
        cov = reference_cov2d(proj.jac, rots, sc)
        lam, vecs = np.linalg.eigh(np.stack([cov[:, [0, 1]], cov[:, [1, 2]]], 1))
        floored = vecs @ (np.maximum(lam, EIG_FLOOR)[:, :, None] * np.swapaxes(vecs, 1, 2))
        inv = np.linalg.inv(floored)
        conic = np.stack([inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 1]], 1)
        radius = 3.0 * np.sqrt(np.maximum(lam[:, 1], EIG_FLOOR))
        assert proj.conic.shape == (k, 3) and proj.radius.shape == (k,)
        assert np.all(np.abs(proj.conic - conic).max(axis=1) <= 1e-12 * np.abs(conic).max(axis=1))
        assert np.all(np.abs(proj.radius - radius) <= 1e-12 * radius)
    assert (lam[:, 0] < EIG_FLOOR).any() and (lam[:, 0] > EIG_FLOOR).any()
    assert (lam[:n // 2, 1] > 1e3 * lam[:n // 2, 0]).any()


# ---------------------------------------------------------------------------
# the shared forward: training's differentiable splat


def test_splat_render_matches_render_and_backprojects_mean_grads():
    from meshsplat.train import engine, ops

    rng = np.random.default_rng(6)
    cam = _front_camera()
    wg = _random_cloud(rng, 50)
    wg.means[:4, 1] = 3.5  # behind the camera: culled
    means = engine.Tensor(wg.means.astype(np.float64), requires_grad=True)
    color = engine.Tensor(wg.color.astype(np.float64), requires_grad=True)
    opacity = engine.Tensor(wg.opacity.astype(np.float64), requires_grad=True)
    img = ops.splat_render(means, color, opacity, cam, wg.rot_mats, wg.scales)
    t = splat.render(wg, cam)
    assert np.array_equal(img.data[..., :3], t.color)
    assert np.array_equal(img.data[..., 3], t.alpha)

    g = rng.normal(size=img.data.shape)
    (img * engine.constant(g)).sum().backward()
    proj = splat.project_gaussians(wg.means, wg.rot_mats, wg.scales, cam)
    idx = np.nonzero(proj.visible)[0]
    assert idx.size < len(wg.means)
    sub = (proj.means2d[idx], proj.conic[idx], wg.opacity[idx], wg.color[idx])
    _, cache = splat.composite(*sub, proj.depth[idx].astype(np.float32), proj.radius[idx],
                               *cam.resolution, keep_cache=True)
    d_means2d = np.zeros_like(proj.means2d)
    d_means2d[idx] = splat.composite_backward(cache, g)[2]
    expected = splat.backproject_mean_grads(proj, d_means2d)
    assert np.array_equal(means.grad, expected)
    assert np.abs(expected).max() > 0


def test_splat_render_empty_view_gives_zero_image_and_gradients():
    """Every Gaussian behind the camera: ``composite`` gets none, and the
    backward returns zero gradients of the input shapes."""
    from meshsplat.train import engine, ops

    rng = np.random.default_rng(14)
    wg = _random_cloud(rng, 12)
    wg.means[:, 1] += 4.0  # the camera sits at y=3 looking toward -y
    params = [engine.Tensor(x.astype(np.float64), requires_grad=True)
              for x in (wg.means, wg.color, wg.opacity)]
    img = ops.splat_render(*params, _front_camera(), wg.rot_mats, wg.scales)
    assert img.data.shape == (64, 64, 4) and not img.data.any()
    (img * engine.constant(rng.normal(size=img.data.shape))).sum().backward()
    for p in params:
        assert p.grad.shape == p.data.shape and not p.grad.any()


# ---------------------------------------------------------------------------
# mesh maps


def test_mesh_map_constant_attribute(clothed_rig):
    c = np.array([0.3, -1.2, 2.5], dtype=np.float32)
    attrs = np.tile(c, (clothed_rig.num_vertices, 1))
    front, _, _ = splat.map_caches(clothed_rig.vertices, clothed_rig.faces, 64)
    img, mask = front.apply(attrs)
    assert mask.any()
    assert np.abs(img[mask] - c).max() < 1e-6
    assert np.all(img[~mask] == 0)


def test_mesh_map_quad_positions_match_pixel_centers():
    # an axis-aligned quad facing front, attribute = vertex position
    verts = np.array([
        [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 2.0], [-1.0, 0.0, 2.0],
    ], dtype=np.float32)
    faces = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.uint32)
    res = 32
    bounds = np.array([-1.0, 1.0, 0.0, 2.0], dtype=np.float32)
    front, _, _ = splat.map_caches(verts, faces, res, bounds=bounds)
    img, mask = front.apply(verts)
    rows, cols = np.nonzero(mask)
    xs = -1.0 + (cols + 0.5) / res * 2.0
    zs = 2.0 - (rows + 0.5) / res * 2.0
    half_px = 2.0 / res / 2.0
    assert np.abs(img[rows, cols, 0] - xs).max() <= half_px + 1e-6
    assert np.abs(img[rows, cols, 2] - zs).max() <= half_px + 1e-6
    assert np.abs(img[rows, cols, 1]).max() < 1e-6


def test_mesh_map_front_back_silhouettes_match_closed_mesh(rig):
    attrs = np.ones_like(rig.vertices)
    dm = splat.apply_map_caches(*splat.map_caches(rig.vertices, rig.faces, 64), attrs)
    assert np.array_equal(dm.front_mask, dm.back_mask)


def test_mesh_map_linear_in_attributes(clothed_rig):
    rng = np.random.default_rng(4)
    a = rng.normal(size=clothed_rig.vertices.shape).astype(np.float32)
    b = rng.normal(size=clothed_rig.vertices.shape).astype(np.float32)
    res = 48
    front, _, _ = splat.map_caches(clothed_rig.vertices, clothed_rig.faces, res)
    (ia, _), (ib, _), (iab, _) = front.apply(a), front.apply(b), front.apply(a + b)
    assert np.abs((ia + ib) - iab).max() < 1e-4


def test_mesh_camera_raster_zbuffer():
    # two stacked quads; the camera sits at y=3 looking toward -y, so the
    # quad at y=1 is nearer and must win everywhere they overlap
    verts = np.array([
        [-0.5, 0.0, -0.5], [0.5, 0.0, -0.5], [0.5, 0.0, 0.5], [-0.5, 0.0, 0.5],
        [-0.5, 1.0, -0.5], [0.5, 1.0, -0.5], [0.5, 1.0, 0.5], [-0.5, 1.0, 0.5],
    ], dtype=np.float32)
    faces = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]], dtype=np.uint32)
    attrs = np.zeros((8, 3), np.float32)
    attrs[:4] = (1, 0, 0)
    attrs[4:] = (0, 1, 0)
    cam = _front_camera(res=(48, 48))
    img, mask, _ = splat.rasterize_mesh_camera(verts, faces, attrs, cam)
    assert mask[24, 24]
    assert np.abs(img[24, 24] - np.array([0, 1, 0])).max() < 1e-6


@pytest.mark.parametrize("mode", ["perspective", "ortho-front"])
def test_mesh_raster_and_splatter_agree_on_pixels(mode):
    # the semantic loss compares a splat render with a mesh render under
    # one camera: the pixel holding the projected mean of a Gaussian at a
    # quad's centre must be covered by that quad and carry its attribute
    if mode == "perspective":
        cam = _front_camera()
    else:
        cam = assets.Camera(mode, (64, 64), np.array([2.0, 2.0, 0.0, 0.0], np.float32),
                            assets.look_at((0.0, 3.0, 0.0), (0.0, 0.0, 0.0)), near=0.1, far=20.0)
    centers = np.array([[0.3, 0.0, 0.2], [-0.45, 0.0, 0.1], [0.1, 0.0, -0.5], [-0.2, 0.0, -0.3]],
                       dtype=np.float32)
    h = 0.06  # 1.4 px (perspective) or 1.9 px (orthographic) around the centre
    corners = np.array([[-h, 0.0, -h], [h, 0.0, -h], [h, 0.0, h], [-h, 0.0, h]], dtype=np.float32)
    verts = (centers[:, None, :] + corners[None]).reshape(-1, 3)
    n = len(centers)
    faces = (4 * np.arange(n)[:, None, None] + np.array([[0, 1, 2], [0, 2, 3]])).reshape(-1, 3)
    labels = np.arange(1, n + 1, dtype=np.float32)[:, None] * np.array([1.0, 0.5, 0.25], np.float32)
    img, mask, _ = splat.rasterize_mesh_camera(verts, faces.astype(np.uint32), np.repeat(labels, 4, axis=0), cam)
    proj = splat.project_gaussians(centers, np.tile(np.eye(3, dtype=np.float32), (n, 1, 1)),
                                   np.full((n, 3), 0.01, np.float32), cam)
    assert proj.visible.all()
    cols, rows = np.floor(proj.means2d).astype(np.int64).T
    assert mask[rows, cols].all()
    assert np.abs(img[rows, cols] - labels).max() < 1e-6


def test_mesh_raster_drops_faces_past_far_plane():
    # a quad at depth 3 behind a far plane at 2.5: the splatter culls a
    # Gaussian at its centre, so the mesh render must cover no pixel
    cam = assets.perspective_camera((0.0, 3.0, 0.0), (0.0, 0.0, 0.0), (32, 32),
                                    focal_px=40.0, near=0.1, far=2.5)
    verts = np.array([[-0.3, 0.0, -0.3], [0.3, 0.0, -0.3], [0.3, 0.0, 0.3], [-0.3, 0.0, 0.3]],
                     dtype=np.float32)
    faces = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.uint32)
    proj = splat.project_gaussians(np.zeros((1, 3), np.float32), np.eye(3, dtype=np.float32)[None],
                                   np.full((1, 3), 0.01, np.float32), cam)
    assert not proj.visible[0]
    _, mask, _ = splat.rasterize_mesh_camera(verts, faces, verts, cam)
    assert mask.sum() == 0
    _, mask, _ = splat.rasterize_mesh_camera(verts, faces, verts, dataclasses.replace(cam, far=3.5))
    assert mask.sum() > 0


def _assert_same_cache(got, want):
    for field in ("pix_rows", "pix_cols", "vidx", "weights"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert (got.height, got.width, got.n_verts) == (want.height, want.width, want.n_verts)


def _with_reference(monkeypatch, fn, *args):
    """``fn(*args)`` with the package rasterizer, then with the reference."""
    got = fn(*args)
    with monkeypatch.context() as m:
        m.setattr(meshraster, "_rasterize", reference_rasterize)
        want = fn(*args)
    return got, want


@pytest.mark.parametrize("rig_name", ["rig", "clothed_rig"])
@pytest.mark.parametrize("res", [32, 96])
def test_rasterize_matches_reference_on_maps(request, monkeypatch, rig_name, res):
    template = request.getfixturevalue(rig_name)
    got, want = _with_reference(monkeypatch, splat.map_caches, template.vertices, template.faces, res)
    _assert_same_cache(got[0], want[0])
    _assert_same_cache(got[1], want[1])
    assert got[0].pix_rows.size > 0


def test_rasterize_matches_reference_under_perspective(monkeypatch, clothed_rig, motion):
    frame = motion.frames[3]
    verts, _ = skinning.lbs_forward(clothed_rig, skinning.pose_skeleton(clothed_rig, frame))
    # the eye sits inside the body, so some faces are behind the near plane
    center = verts.mean(axis=0)
    eye = center + np.array([0.0, 0.3 * np.ptp(verts[:, 1]), 0.0])
    cam = assets.perspective_camera(eye, center, (80, 64), focal_px=60.0, near=0.05, far=20.0)
    z = (verts.astype(np.float64) @ cam.extrinsic[:3, :3].T.astype(np.float64)
         + cam.extrinsic[:3, 3])[:, 2]
    behind = (z <= cam.near)[clothed_rig.faces.astype(np.int64)].any(axis=1)
    assert 0 < behind.sum() < behind.size
    (_, _, got), (_, _, want) = _with_reference(
        monkeypatch, splat.rasterize_mesh_camera, verts, clothed_rig.faces, verts, cam)
    _assert_same_cache(got, want)
    assert got.pix_rows.size > 0


def _crafted_mesh():
    """Two coplanar overlapping triangles at depth 0 (exact ties), a
    zero-area one, triangles partly and wholly off-screen, one with
    far-off vertices, and a nearer one over the tied pair."""
    pts = np.array([
        [2.0, 2.0], [14.0, 3.0], [5.0, 13.0],         # 0: tie with 1
        [4.0, 1.5], [15.0, 9.0], [3.0, 12.0],         # 1: same plane, overlaps 0
        [1.0, 1.0], [8.0, 8.0], [15.0, 15.0],         # 2: collinear, zero area
        [-6.0, 10.0], [6.0, 11.0], [-2.0, 20.0],      # 3: partly off-screen
        [30.0, 30.0], [40.0, 31.0], [35.0, 45.0],     # 4: wholly off-screen
        [-1e30, 4.0], [1e30, 5.0], [0.0, 1e30],       # 5: far-off vertices
        [3.0, 6.0], [12.0, 7.0], [6.0, 9.5],          # 6: nearer than 0 and 1
    ])
    z = np.zeros(len(pts))
    z[18:21] = -1.0
    faces = np.arange(len(pts)).reshape(-1, 3)
    return pts, z, faces


def test_rasterize_matches_reference_on_crafted_mesh():
    pts, z, faces = _crafted_mesh()
    got = meshraster._rasterize(pts, z, faces, 16, 16)
    _assert_same_cache(got, reference_rasterize(pts, z, faces, 16, 16))
    face = got.vidx[:, 0] // 3
    assert 2 not in face and 4 not in face
    assert {0, 1, 3, 6} <= set(face.tolist())
    # where faces 0 and 1 tie, the lower index wins
    only0 = meshraster._rasterize(pts, z, faces[:1], 16, 16)
    only1 = meshraster._rasterize(pts, z, faces[1:2], 16, 16)
    both = set(zip(only0.pix_rows, only0.pix_cols)) & set(zip(only1.pix_rows, only1.pix_cols))
    tied = [i for i, px in enumerate(zip(got.pix_rows, got.pix_cols)) if px in both and face[i] != 6]
    assert tied and all(face[i] == 0 for i in tied)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_rasterize_chunk_winners_merge(monkeypatch, clothed_rig, chunk):
    verts = clothed_rig.vertices.astype(np.float64)
    map_pts, w, h = meshraster.map_projection(verts, splat.map_bounds(verts), 32)
    cases = [_crafted_mesh() + (16, 16), (map_pts, -verts[:, 1], clothed_rig.faces, w, h)]
    monkeypatch.setattr(meshraster, "_CHUNK_PAIRS", chunk)
    for args in cases:
        _assert_same_cache(meshraster._rasterize(*args), reference_rasterize(*args))


def _hard_mesh(seed, size=24):
    """Random faces over a ``size`` px square, built to sit on the raster
    box's edge cases: generic and partly off-screen faces; slivers;
    faces with |denom| just above the 1e-12 cut and on both sides of the
    1e-3 * e^2 fallback bound; vertices exactly on pixel centres, a hair
    (1e-12 px) off them, and exactly on the margin box's edges; far-off
    and wholly off-screen faces. Returns (pts, z, faces, fallback), the
    last flagging the faces built under the bound."""
    rng = np.random.default_rng(seed)
    tris, fallback = [], []

    def sliver(height):  # base of length ext on a pixel-centre line, apex height off it
        ext = rng.uniform(0.5, size)
        a = rng.uniform(-2.0, size + 2.0, 2)
        axis = int(rng.integers(2))
        a[1 - axis] = np.floor(a[1 - axis]) + 0.5
        b = a.copy()
        b[axis] += ext
        c = a.copy()
        c[axis] += rng.uniform(0.0, 1.0) * ext
        c[1 - axis] += height(ext) * rng.choice([-1.0, 1.0])
        return np.stack([a, b, c]), ext

    for _ in range(12):
        tris.append(rng.uniform(-4.0, size + 4.0, (3, 2)))
    for _ in range(8):
        tris.append(sliver(lambda ext: 10.0 ** rng.uniform(-9, -2))[0])
    for _ in range(6):  # |denom| = ext * height just above 1e-12
        tris.append(sliver(lambda ext: 1e-12 * (1.0 + rng.uniform(0.01, 1.0)) / ext)[0])
    for k in (0.99, 0.999, 1.001, 1.01) * 3:  # around |denom| = 1e-3 * ext^2
        tris.append(sliver(lambda ext: k * 1e-3 * ext)[0])
    for _ in range(10):  # vertices on pixel centres, or 1e-12 px off them
        t = np.floor(rng.uniform(0.0, size, (3, 2))) + 0.5
        t += rng.choice([0.0, 1e-12, -1e-12], size=(3, 2))
        tris.append(t)
    for _ in range(8):  # an axis-aligned edge a hair outside a pixel-centre line
        x = np.floor(rng.uniform(2.0, size - 8.0)) + 0.5 + rng.choice([1e-12, -1e-12, 1e-10])
        y0, y1 = np.sort(rng.uniform(0.0, size, 2))
        t = np.array([[x, y0], [x, y1], [x + rng.uniform(1.0, 6.0), rng.uniform(0.0, size)]])
        tris.append(t if rng.random() < 0.5 else t[:, ::-1].copy())
    for _ in range(8):  # the bbox's min on the margin box's edge, then a hair either side
        t = rng.uniform(0.0, 8.0, (3, 2))
        ext = np.ptp(t, axis=0).max()
        target = np.floor(rng.uniform(2.0, size - 10.0, 2)) + 0.5 - (1e-4 + 1e-6 * ext)
        tris.append(t - t.min(axis=0) + target + rng.choice([0.0, 1e-13, -1e-13]))
    tris.append(np.array([[-1e30, 4.0], [1e30, 5.0], [0.0, 1e30]]))
    tris.append(np.array([[3.0, -1e6], [9.0, 1e6], [-1e6, 12.0]]))
    tris.append(np.array([[size + 3.0, 2.0], [size + 9.0, 5.0], [size + 4.0, 11.0]]))

    pts = np.concatenate(tris)
    z = rng.uniform(1.0, 2.0, len(pts))
    z[-9:] = 3.0  # the far-off and off-screen faces lie behind the rest
    faces = np.arange(len(pts)).reshape(-1, 3)
    a, b, c = (pts[faces[:, k]] for k in range(3))
    denom = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    ext = (np.maximum(np.maximum(a, b), c) - np.minimum(np.minimum(a, b), c)).max(axis=1)
    fallback = (np.abs(denom) >= 1e-12) & (np.abs(denom) < 1e-3 * ext * ext)
    return pts, z, faces, fallback


@pytest.mark.parametrize("seed", range(6))
def test_rasterize_matches_reference_on_hard_meshes(seed):
    pts, z, faces, fallback = _hard_mesh(seed)
    got = meshraster._rasterize(pts, z, faces, 24, 24)
    _assert_same_cache(got, reference_rasterize(pts, z, faces, 24, 24))
    face = got.vidx[:, 0] // 3
    assert fallback.sum() >= 6 and np.isin(face, np.nonzero(fallback)[0]).any()
    # some covered pixel centre lies outside its face's vertex bbox: the
    # inside test's tolerance reaches it, so the box's margin is needed
    corners = pts[got.vidx]
    centre = np.stack([got.pix_cols, got.pix_rows], axis=1) + 0.5
    outside = (centre < corners.min(axis=1)) | (centre > corners.max(axis=1))
    assert outside.any()


def test_raster_apply_matches_einsum_reference(clothed_rig):
    front, back, _ = splat.map_caches(clothed_rig.vertices, clothed_rig.faces, 48)
    attrs = np.random.default_rng(9).normal(size=clothed_rig.vertices.shape)
    for cache in (front, back):
        want, want_mask = reference_raster_apply(cache, attrs)
        for dtype in (np.float32, np.float64):
            img, mask = cache.apply(attrs.astype(dtype))
            ref = reference_raster_apply(cache, attrs.astype(dtype))[0].astype(dtype)
            assert img.dtype == dtype and img.tobytes() == ref.tobytes()
            assert np.array_equal(mask, want_mask)
        # the float64 image is the weighted sum itself, not rounded
        assert cache.apply(attrs)[0].tobytes() == want.tobytes()


def test_empty_raster_cache_applies_and_differentiates_to_zero():
    cam = assets.perspective_camera((0.0, 3.0, 0.0), (0.0, 0.0, 0.0), (16, 12),
                                    focal_px=20.0, near=0.1, far=2.5)
    quad = np.array([[-0.3, 0.0, -0.3], [0.3, 0.0, -0.3], [0.3, 0.0, 0.3], [-0.3, 0.0, 0.3]])
    faces = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.uint32)
    caches = [
        splat.rasterize_mesh_camera(quad, faces, quad, cam)[2],  # past the far plane
        splat.rasterize_mesh_camera(quad + [40.0, 0.0, 0.0], faces, quad,  # wholly off-screen
                                    dataclasses.replace(cam, far=20.0))[2],
    ]
    for cache in caches:
        assert cache.pix_rows.size == 0
        for dtype in (np.float32, np.float64):
            img, mask = cache.apply(quad.astype(dtype))
            assert img.dtype == dtype and img.shape == (12, 16, 3) and not img.any()
            assert mask.dtype == bool and mask.shape == (12, 16) and not mask.any()
            grad = cache.backward(np.ones((12, 16, 3), dtype))
            assert grad.dtype == np.float64 and grad.shape == (4, 3) and not grad.any()


def test_raster_backward_matches_add_at_reference(clothed_rig):
    front, back, _ = splat.map_caches(clothed_rig.vertices, clothed_rig.faces, 48)
    d_img = np.random.default_rng(8).normal(size=(48, 48, 3)).astype(np.float32)
    for cache in (front, back):
        got = cache.backward(d_img)
        want = reference_raster_backward(cache, d_img)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_mesh_raster_rejects_non_finite_vertices(clothed_rig):
    verts = clothed_rig.vertices.copy()
    verts[[5, 40]] = (np.nan, 0.0, np.inf)
    cam = _front_camera(res=(16, 16))
    with pytest.raises(assets.ValidationError, match=r"non-finite vertex at indices \[5, 40\]"):
        splat.rasterize_mesh_camera(verts, clothed_rig.faces, verts, cam)
    bounds = splat.map_bounds(clothed_rig.vertices)
    with pytest.raises(assets.ValidationError, match=r"non-finite vertex at indices \[5, 40\]"):
        splat.map_caches(verts, clothed_rig.faces, 16, bounds)


@pytest.mark.parametrize("res", [0, -3, (16, 0)])
def test_map_caches_rejects_resolution_below_one(clothed_rig, res):
    # every map path (the teacher's maps, bake, evaluate_nonrigid) builds here
    with pytest.raises(assets.ValidationError, match="map resolution"):
        splat.map_caches(clothed_rig.vertices, clothed_rig.faces, res)


# ---------------------------------------------------------------------------
# relighting


def test_relight_ambient_only_is_identity():
    rng = np.random.default_rng(5)
    color = rng.random((8, 8, 3)).astype(np.float32)
    normal = np.zeros((8, 8, 3), np.float32)
    normal[..., 2] = 1.0
    out = splat.relight(color, normal, (0.0, 0.0, 1.0), light_rgb=(0.0, 0.0, 0.0), ambient=1.0)
    assert np.abs(out - color).max() < 1e-6


def test_relight_perpendicular_light_black():
    color = np.full((4, 4, 3), 0.7, np.float32)
    normal = np.zeros((4, 4, 3), np.float32)
    normal[..., 2] = 1.0
    out = splat.relight(color, normal, (1.0, 0.0, 0.0), ambient=0.0)
    assert np.all(out == 0)


def test_relight_aligned_light_closed_form():
    color = np.full((4, 4, 3), 0.5, np.float32)
    normal = np.zeros((4, 4, 3), np.float32)
    normal[..., 2] = 1.0
    out = splat.relight(color, normal, (0.0, 0.0, 1.0), light_rgb=(0.8, 0.8, 0.8), ambient=0.2)
    assert np.abs(out - 0.5).max() < 1e-6


@pytest.mark.parametrize("light", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0)])
def test_relight_rejects_zero_or_non_finite_light(light):
    color = np.full((4, 4, 3), 0.5, np.float32)
    normal = np.zeros((4, 4, 3), np.float32)
    with pytest.raises(assets.ValidationError, match="light direction"):
        splat.relight(color, normal, light)


@pytest.mark.parametrize("setting, match", [
    ({"ambient": np.nan}, "ambient term"), ({"ambient": np.inf}, "ambient term"),
    ({"ambient": -0.5}, "ambient term"), ({"light_rgb": (1.0, np.nan, 1.0)}, "light color"),
    ({"light_rgb": (np.inf, 1.0, 1.0)}, "light color"),
])
def test_relight_rejects_non_finite_light_color_or_bad_ambient(setting, match):
    color = np.full((4, 4, 3), 0.5, np.float32)
    normal = np.zeros((4, 4, 3), np.float32)
    with pytest.raises(assets.ValidationError, match=match):
        splat.relight(color, normal, (0.0, 0.0, 1.0), **setting)


# ---------------------------------------------------------------------------
# image files


def test_ppm_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    img = rng.random((17, 23, 3)).astype(np.float32)
    p = tmp_path / "img.ppm"
    splat.write_ppm(img, p)
    back = splat.read_ppm(p)
    q = splat.images.quantize_u8(img).astype(np.float32) / 255.0
    assert np.array_equal(back, q)
    splat.write_ppm(img, tmp_path / "img2.ppm")
    assert (tmp_path / "img.ppm").read_bytes() == (tmp_path / "img2.ppm").read_bytes()


def test_zero_size_image_rejected(tmp_path):
    with pytest.raises(ValueError):
        splat.write_ppm(np.zeros((0, 4, 3), np.float32), tmp_path / "x.ppm")


def test_pgm_roundtrip(tmp_path):
    img = (np.arange(30).reshape(5, 6) / 29.0).astype(np.float32)
    p = tmp_path / "m.pgm"
    splat.write_pgm(img, p)
    back = splat.read_pgm(p)
    q = splat.images.quantize_u8(img).astype(np.float32) / 255.0
    assert np.array_equal(back, q)


def test_png_writes_valid_signature(tmp_path):
    img = np.random.default_rng(7).random((9, 11, 3)).astype(np.float32)
    p = tmp_path / "img.png"
    splat.write_png(img, p)
    data = p.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    assert b"IHDR" in data and b"IDAT" in data and b"IEND" in data


def test_threads_match_single_thread_where_pixels_stop(clothed_rig, clothed_texture):
    """Rendering has one serial path: on an opaque shell, where most
    pixels stop early, two renders and two backwards give the same bytes."""
    from meshsplat.train import engine, ops

    wg, cam = _opaque_shell(clothed_rig, clothed_texture)
    images, grads = [], []
    g = np.random.default_rng(13).normal(size=(96, 96, 4))
    for _ in range(2):
        images.append(_image(splat.render(wg, cam, channels=SHELL_CHANNELS)))
        params = [engine.Tensor(x.astype(np.float64), requires_grad=True)
                  for x in (wg.means, wg.color, wg.opacity)]
        img = ops.splat_render(*params, cam, wg.rot_mats, wg.scales)
        (img * engine.constant(g)).sum().backward()
        grads.append([p.grad for p in params])
    assert images[1].tobytes() == images[0].tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grads[1], grads[0]))


def test_render_deterministic():
    rng = np.random.default_rng(9)
    wg = _random_cloud(rng, 40)
    cam = _front_camera()
    a = splat.render(wg, cam, channels=("color", "alpha", "normal", "semantic"))
    b = splat.render(wg, cam, channels=("color", "alpha", "normal", "semantic"))
    assert np.array_equal(a.color, b.color)
    assert np.array_equal(a.semantic, b.semantic)


@pytest.mark.parametrize("scene", ["one_tile", "empty_view"])
def test_composite_one_tile_and_empty_view(scene):
    """The tile loop caches one entry per tile with pairs and its backward
    runs, also on one tile and where there is no tile at all (every
    Gaussian off-screen)."""
    rng = np.random.default_rng(21)
    n = 12
    means2d = rng.uniform(0.0, tiles.TILE, (n, 2))
    if scene == "empty_view":
        means2d += 10.0 * tiles.TILE
    conic, radius = _conics_2d(rng.uniform(1.0, 4.0, (n, 2)), rng.uniform(0.0, np.pi, n))
    args = (means2d, conic, rng.uniform(0.2, 0.9, n), rng.random((n, 3)), rng.random(n), radius,
            tiles.TILE, tiles.TILE)
    g = rng.normal(size=(tiles.TILE, tiles.TILE, 4))
    image, cache = splat.composite(*args, keep_cache=True)
    splat.composite_backward(cache, g)
    assert len(cache.tiles) == (scene == "one_tile")
    assert (np.abs(image).max() > 0) == (scene == "one_tile")
