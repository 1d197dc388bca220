import dataclasses
import inspect

import numpy as np
import pytest

from meshsplat import assets, deform, gstexture, splat, teacher, train
from meshsplat.train import engine, losses, ops
from meshsplat.train.bake import blend_coeffs_graph, student_delta_graph

from oracles import reference_dssim


# ---------------------------------------------------------------------------
# losses


def test_losses_zero_on_identical_inputs():
    rng = np.random.default_rng(0)
    img = rng.random((24, 24, 3))
    pred = engine.Tensor(img.copy(), requires_grad=True)
    l1 = losses.loss_l1(pred, img)
    assert float(l1.data) == 0.0
    l1.backward()
    assert np.all(pred.grad == 0)

    # D-SSIM's gradient is exactly 0 at its optimum, in either precision
    for dtype in (np.float32, np.float64):
        pred = engine.Tensor(img.astype(dtype), requires_grad=True)
        d = losses.loss_dssim(pred, img)
        assert d.data.dtype == dtype
        assert abs(float(d.data)) < 1e-12
        d.backward()
        assert pred.grad.dtype == dtype
        assert np.all(pred.grad == 0)


def test_l1_constant_offset_closed_form():
    rng = np.random.default_rng(1)
    gt = rng.random((16, 16, 3)) * 0.5
    pred = engine.constant(gt + 0.1)
    assert abs(float(losses.loss_l1(pred, gt).data) - 0.1) < 1e-9


def test_dssim_positive_for_different_images():
    rng = np.random.default_rng(2)
    a = rng.random((20, 20, 3))
    b = rng.random((20, 20, 3))
    assert float(losses.loss_dssim(engine.constant(a), b).data) > 0.0


# (rows, columns) of the non-zero content on a 52 x 56 frame; the window
# is the content widened by 2r = 10 px
DSSIM_CASES = {
    "centred": (slice(22, 30), slice(24, 32)),      # a border of 22+ px
    "top_edge": (slice(0, 8), slice(24, 32)),
    "bottom_edge": (slice(44, 52), slice(24, 32)),
    "left_edge": (slice(22, 30), slice(0, 8)),
    "right_edge": (slice(22, 30), slice(48, 56)),
    "near_corner": (slice(6, 14), slice(3, 11)),    # closer than 2r to two edges
    "one_pixel": (slice(30, 31), slice(17, 18)),
    "x_zero": (slice(22, 30), slice(24, 32)),
    "y_zero": (slice(22, 30), slice(24, 32)),
    "both_zero": (slice(0, 0), slice(0, 0)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", DSSIM_CASES)
def test_dssim_window_equals_full_frame_oracle(case, dtype):
    """``ops.DSSIM`` blurs only the occupied window, and its loss is the
    full-frame oracle's bit for bit and its gradient equal to it (a zero
    may differ in sign outside the window)."""
    rng = np.random.default_rng(7)
    x, y = np.zeros((2, 52, 56, 3))
    rows, cols = DSSIM_CASES[case]
    x[rows, cols] = rng.random(x[rows, cols].shape)
    y[rows, cols] = rng.random(y[rows, cols].shape)
    if case == "one_pixel":
        x[rows, cols, 1:] = y[rows, cols, 1:] = 0.0
    if case == "x_zero":
        x[:] = 0.0
    elif case == "y_zero":
        y[:] = 0.0
    x, y = x.astype(dtype), y.astype(dtype)

    pred = engine.Tensor(x.copy(), requires_grad=True)
    loss = losses.loss_dssim(pred, y)
    loss.backward()
    want_loss, want_grad = reference_dssim(x, y, losses.gaussian_window().astype(dtype),
                                           losses.SSIM_C1, losses.SSIM_C2)
    assert loss.data.dtype == dtype and loss.data.tobytes() == want_loss.tobytes()
    assert pred.grad.dtype == dtype and np.array_equal(pred.grad, want_grad)
    window = loss.ctx.win
    if case == "both_zero":
        assert window is None and float(loss.data) == 0.0 and not pred.grad.any()
    else:
        assert float(loss.data) > 0.0 and pred.grad.any()
    if case == "centred":  # the window is a strict crop: content + 2r
        assert window == (slice(12, 40), slice(14, 42))


def test_normal_loss_masked_mean():
    pred = np.zeros((8, 8, 3))
    gt = np.zeros((8, 8, 3))
    gt[:4, :, 0] = 0.5
    mask = np.zeros((8, 8), bool)
    mask[:4] = True
    val = losses.loss_normal(engine.constant(pred), gt, mask)
    # mean L1 over masked pixels and 3 channels: 0.5 / 3
    assert abs(float(val.data) - 0.5 / 3.0) < 1e-9


def test_nonrigid_constant_offset_normalization(clothed_rig):
    res = 48
    zero = np.zeros_like(clothed_rig.vertices)
    dmap = splat.apply_map_caches(*splat.map_caches(clothed_rig.vertices, clothed_rig.faces, res), zero)
    c = 0.37
    student_f = engine.constant(dmap.front + c)  # offset the front side only
    student_b = engine.constant(dmap.back)
    val = float(losses.loss_nonrigid(student_f, student_b, dmap).data)
    nf = int(dmap.front_mask.sum())
    nb = int(dmap.back_mask.sum())
    assert abs(val - c * nf / (nf + nb)) < 1e-6


def test_mesh_map_op_keeps_input_precision(clothed_rig):
    # float32 in training, float64 in the preflight: the op's forward is
    # the weighted sum rounded once, to its input's dtype
    from oracles import reference_raster_apply

    front, _, _ = splat.map_caches(clothed_rig.vertices, clothed_rig.faces, 32)
    delta = np.random.default_rng(6).normal(size=clothed_rig.vertices.shape)
    for dtype in (np.float32, np.float64):
        x = engine.Tensor(delta.astype(dtype), requires_grad=True)
        out = ops.mesh_map_apply(x, front)
        want = reference_raster_apply(front, x.data)[0].astype(dtype)
        assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
        out.sum().backward()
        assert x.grad.dtype == dtype


def test_nonrigid_zero_when_equal(clothed_rig):
    rng = np.random.default_rng(3)
    delta = rng.normal(size=clothed_rig.vertices.shape).astype(np.float32)
    dmap = splat.apply_map_caches(*splat.map_caches(clothed_rig.vertices, clothed_rig.faces, 32), delta)
    val = losses.loss_nonrigid(engine.constant(dmap.front), engine.constant(dmap.back), dmap)
    assert float(val.data) == 0.0


def test_mask_disagreement_fraction():
    a = np.zeros((4, 4), bool)
    b = np.zeros((4, 4), bool)
    a[:2] = True
    b[:2] = True
    assert losses.mask_disagreement(a, b) == 0.0
    b[2] = True
    assert abs(losses.mask_disagreement(a, b) - 4 / 12) < 1e-9


def test_semantic_loss_zero_when_equal():
    rng = np.random.default_rng(4)
    img = rng.random((16, 16, 3))
    mask = rng.random((16, 16)) > 0.5
    assert float(losses.loss_semantic(engine.constant(img), img, mask).data) == 0.0


# ---------------------------------------------------------------------------
# semantic labels


def test_semantic_label_zero_position_gives_color(clothed_rig):
    t = dataclasses.replace(clothed_rig, vertices=np.zeros_like(clothed_rig.vertices))
    e = ops.semantic_label(t, tau=25.0)
    assert np.abs(e - t.seg_colors).max() < 1e-7


def test_semantic_label_tau_scaling(clothed_rig):
    v = clothed_rig.vertices[17]
    e1 = ops.semantic_label(clothed_rig, tau=10.0)[17]
    e2 = ops.semantic_label(clothed_rig, tau=20.0)[17]
    expect1 = clothed_rig.seg_colors[17] + np.sin(10.0 * v)
    expect2 = clothed_rig.seg_colors[17] + np.sin(20.0 * v)
    assert np.abs(e1 - expect1).max() < 1e-6
    assert np.abs(e2 - expect2).max() < 1e-6


def test_gaussian_semantic_barycentric(clothed_rig):
    tex = gstexture.init_texture(clothed_rig, 1, 1, seed=0)
    # move gaussian 0 to the barycenter of its face
    tex = dataclasses.replace(tex, uv=tex.uv.copy())
    tex.uv[0] = (1 / 3, 1 / 3)
    labels = ops.semantic_label(clothed_rig, tau=25.0)
    g = ops.gaussian_semantic(clothed_rig, tex, tau=25.0)
    corners = clothed_rig.faces[tex.face_idx[0]].astype(int)
    assert np.abs(g[0] - labels[corners].mean(axis=0)).max() < 1e-5


def test_semantic_label_requires_positive_tau(clothed_rig):
    with pytest.raises(ValueError):
        ops.semantic_label(clothed_rig, tau=0.0)


# ---------------------------------------------------------------------------
# grad_check behavior


def test_grad_check_reports_wrong_gradients():
    def f(params):
        (x,) = params
        loss = float((x ** 2).sum())
        return loss, [2.0 * x + 0.5]  # deliberately wrong

    r = train.grad_check(f, [np.array([1.0, 2.0, 3.0])], tol=1e-3)
    assert not r.ok
    assert len(r.failures) == 3


def test_grad_check_passes_correct_gradients():
    def f(params):
        (x,) = params
        return float((x ** 2).sum()), [2.0 * x]

    r = train.grad_check(f, [np.array([1.0, 2.0, 3.0])], tol=1e-3)
    assert r.ok


def test_grad_check_reports_max_abs_below_the_noise_floor():
    # an error below ABS_FLOOR passes and stays out of max_rel, but
    # max_abs still shows it
    def f(params):
        (x,) = params
        return float((x ** 2).sum()), [2.0 * x + 5e-8]

    r = train.grad_check(f, [np.array([1.0, 2.0, 3.0])], tol=1e-3)
    assert r.ok and r.max_rel == 0.0
    assert abs(r.max_abs - 5e-8) < 1e-9
    assert "max_abs=5.0" in r.summary()


# ---------------------------------------------------------------------------
# quantization


def test_quantize_zero_weights_identical(clothed_rig, clothed_texture):
    b = deform.init_bundle(clothed_rig, clothed_texture, n_frames=2, seed=0)
    zeroed = dataclasses.replace(
        b,
        body_mlp=[(np.zeros_like(w), np.zeros_like(bb)) for w, bb in b.body_mlp],
        cloth_mlp=[(np.zeros_like(w), np.zeros_like(bb)) for w, bb in b.cloth_mlp],
        head_map=[(np.zeros_like(w), np.zeros_like(bb)) for w, bb in b.head_map],
        body_map=[(np.zeros_like(w), np.zeros_like(bb)) for w, bb in b.body_map],
    )
    q, report = train.quantize_bundle(zeroed)
    assert report.max_rel == 0.0
    x = np.random.default_rng(0).normal(size=(5, b.input_dim)).astype(np.float32)
    assert np.array_equal(deform.mlp_forward(q.body_mlp, x), deform.mlp_forward(zeroed.body_mlp, x))


def test_quantize_reports_deviation_within_bound(clothed_rig, clothed_texture):
    rng = np.random.default_rng(1)
    b = deform.init_bundle(clothed_rig, clothed_texture, n_frames=2, seed=1)
    b = dataclasses.replace(
        b,
        body_mlp=[(rng.normal(scale=1.0 / np.sqrt(w.shape[0]), size=w.shape).astype(np.float32),
                   rng.normal(scale=0.1, size=bb.shape).astype(np.float32)) for w, bb in b.body_mlp],
        cloth_mlp=[(rng.normal(scale=1.0 / np.sqrt(w.shape[0]), size=w.shape).astype(np.float32),
                    rng.normal(scale=0.1, size=bb.shape).astype(np.float32)) for w, bb in b.cloth_mlp],
    )
    q, report = train.quantize_bundle(b)
    assert report.ok, report.summary()
    assert 0.0 < report.max_rel < report.bound
    assert q.precision == "fp16"


def test_quantize_idempotent(clothed_rig, clothed_texture):
    rng = np.random.default_rng(2)
    b = deform.init_bundle(clothed_rig, clothed_texture, n_frames=2, seed=2)
    b = dataclasses.replace(b, body_mlp=[
        (rng.normal(size=w.shape).astype(np.float32) * 0.1, rng.normal(size=bb.shape).astype(np.float32) * 0.1)
        for w, bb in b.body_mlp
    ])
    q1, _ = train.quantize_bundle(b)
    q2, _ = train.quantize_bundle(q1)
    for (w1, b1), (w2, b2) in zip(q1.body_mlp, q2.body_mlp):
        assert np.array_equal(w1, w2)
        assert w1.dtype == w2.dtype == np.float16
        assert np.array_equal(b1, b2)


def test_adam_keeps_float32_with_numpy_scalar_lr():
    # NumPy 2 promotes float32 - np.float64 * float32 to float64
    p = train.Tensor(np.ones((3, 2), np.float32), requires_grad=True)
    p.grad = np.full((3, 2), 0.5, np.float32)
    opt = train.Adam({"mlp": [p]}, lrs={"mlp": np.float64(1e-3)})
    opt.step()
    assert p.data.dtype == np.float32
    assert np.all(p.data < 1.0)


def test_adam_rejects_lr_of_unknown_group(tiny_setup):
    # a misspelt group name would leave that group at its default lr
    t, tex, mot, src = tiny_setup
    p = train.Tensor(np.ones(3, np.float32), requires_grad=True)
    with pytest.raises(assets.ValidationError, match="mpl"):
        train.Adam({"mlp": [p]}, lrs={"mpl": 0.0})
    cfg = train.TrainConfig(iterations=1, map_resolution=48, lrs={"mpl": 0.0})
    with pytest.raises(assets.ValidationError, match="mpl"):
        train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)
    # a default group's name is accepted whether or not the stage has it
    train.Adam({"mlp": [p]}, lrs={"mlp": 0.0, "blend": 0.0, "attributes": 0.0})


def test_adam_rejects_group_without_lr():
    # such a group would otherwise step at some fallback rate nobody set
    p = train.Tensor(np.ones(3, np.float32), requires_grad=True)
    with pytest.raises(assets.ValidationError, match="no learning rate for parameter groups blend_pos"):
        train.Adam({"mlp": [p], "blend_pos": [p]}, lrs={"mlp": 1e-3})
    train.Adam({"mlp": [p], "blend_pos": [p]}, lrs={"blend_pos": 1e-3})


# ---------------------------------------------------------------------------
# training-stage behaviors (tiny runs)


@pytest.fixture(scope="module")
def tiny_setup():
    t = assets.make_capsule_rig(4, cloth=True, seed=3)
    tex = gstexture.init_texture(t, 1, 1, seed=2)
    mot = assets.make_swing_motion(t, 3, seed=1, resolution=(48, 48))
    src = teacher.procedural_teacher(t, tex, mot, field="sway", amplitude=0.2, seed=4,
                                     map_resolution=48)
    return t, tex, mot, src


def _bundle_for(t, tex, mot, seed=5):
    return deform.init_bundle(t, tex, n_frames=len(mot), seed=seed)


def test_bake_reproducible_bit_identical(tiny_setup):
    t, tex, mot, src = tiny_setup
    cfg = train.TrainConfig(iterations=6, map_resolution=48,
                            weights=train.LossWeights(sem=0.0))
    b1, tex1, h1 = train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)
    b2, tex2, h2 = train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)
    assert [r["total"] for r in h1] == [r["total"] for r in h2]
    for (w1, bb1), (w2, bb2) in zip(b1.body_mlp, b2.body_mlp):
        assert np.array_equal(w1, w2)
    assert np.array_equal(tex1.sh, tex2.sh)


def test_bake_gradient_isolation_lambda_zero(tiny_setup):
    # with non/sem weights at zero the first-step parameter state matches
    # a run whose teacher maps are replaced by garbage (those paths are
    # never evaluated)
    t, tex, mot, src = tiny_setup
    cfg = train.TrainConfig(iterations=2, map_resolution=48,
                            weights=train.LossWeights(non=0.0, sem=0.0))
    doctored = [teacher.TeacherFrame(
        dmap=dataclasses.replace(f.dmap, front=f.dmap.front + 123.0),
        gt_color=f.gt_color, gt_normal=f.gt_normal, gt_mask=f.gt_mask) for f in src]
    b1, _, _ = train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)
    b2, _, _ = train.bake(t, tex, _bundle_for(t, tex, mot), doctored, mot, cfg)
    for (w1, bb1), (w2, bb2) in zip(b1.body_mlp, b2.body_mlp):
        assert np.array_equal(w1, w2)
        assert np.array_equal(bb1, bb2)


def test_bake_nan_teacher_aborts_with_checkpoint(tiny_setup):
    t, tex, mot, src = tiny_setup
    bad = [teacher.TeacherFrame(
        dmap=f.dmap, gt_color=np.full_like(f.gt_color, np.nan),
        gt_normal=f.gt_normal, gt_mask=f.gt_mask) for f in src]
    cfg = train.TrainConfig(iterations=3, map_resolution=48,
                            weights=train.LossWeights(sem=0.0))
    with pytest.raises(train.TrainingDiverged) as ei:
        train.bake(t, tex, _bundle_for(t, tex, mot), bad, mot, cfg)
    assert ei.value.bundle is not None
    assert ei.value.texture is not None
    assert ei.value.iteration == 0


def test_bake_requires_matching_map_resolution(tiny_setup):
    t, tex, mot, src = tiny_setup
    cfg = train.TrainConfig(iterations=1, map_resolution=64)
    with pytest.raises(assets.ValidationError, match="resolution"):
        train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)


def test_bake_mask_disagreement_warning(tiny_setup, tmp_path):
    t, tex, mot, src = tiny_setup
    shrunk = []
    for f in src:
        fm = f.dmap.front_mask.copy()
        fm[: fm.shape[0] // 2] = False  # drop half the valid pixels
        shrunk.append(teacher.TeacherFrame(
            dmap=dataclasses.replace(f.dmap, front_mask=fm),
            gt_color=f.gt_color, gt_normal=f.gt_normal, gt_mask=f.gt_mask))
    cfg = train.TrainConfig(iterations=1, map_resolution=48,
                            weights=train.LossWeights(sem=0.0))
    _, _, hist = train.bake(t, tex, _bundle_for(t, tex, mot), shrunk, mot, cfg)
    assert any("warning" in rec for rec in hist)
    # the --log line keeps the warning and its frames as key=value tokens
    p = tmp_path / "log.txt"
    train.write_train_log(hist, p)
    fields = dict(kv.split("=", 1) for kv in p.read_text().splitlines()[0].split())
    assert fields["iter"] == "-1"
    assert fields["warning"] == "mask_disagreement"
    # every frame lost half its front mask
    assert [int(i) for i in fields["frames"].split(",")] == [0, 1, 2]


def _own_renders(t, tex, bundle, mot, dmap=None):
    """Ground truth = the model's own float renders."""
    frames = []
    for i, frame in enumerate(mot.frames):
        res = deform.animate_frame(t, tex, bundle, frame, mot.camera_for(i),
                                   channels=("color", "alpha", "normal"), frame_index=i)
        frames.append(teacher.TeacherFrame(
            dmap=dmap, gt_color=res.target.color,
            gt_normal=res.target.normal, gt_mask=res.target.alpha > 0.5))
    return frames


def _max_move(layers, before):
    return max(np.abs(w - w0).max() for (w, _), (w0, _) in zip(layers, before))


def _assert_bake_fixed_point(t, tex0, mot):
    # bake splats the runtime's own means, colours and opacities, and
    # D-SSIM's gradient is exactly 0 at x = y, so at its own renders the
    # residual is exactly zero and nothing moves
    bundle = deform.init_bundle(t, tex0, n_frames=len(mot), seed=5)
    front, back, bounds = splat.map_caches(t.vertices, t.faces, 48)
    dmap = splat.apply_map_caches(front, back, bounds, np.zeros_like(t.vertices))
    gt = _own_renders(t, tex0, bundle, mot, dmap)
    cfg = train.TrainConfig(iterations=12, map_resolution=48,
                            weights=train.LossWeights(nor=0.0, non=0.0, sem=0.0))
    baked, tex, hist = train.bake(t, tex0, bundle, gt, mot, cfg)
    assert [r["l1"] for r in hist] == [0.0] * 12
    assert [r["dssim"] for r in hist] == [0.0] * 12
    norms = [v for r in hist for k, v in r.items() if k.startswith(("gnorm_", "unorm_"))]
    assert len(norms) == 12 * 6 and set(norms) == {0.0}
    assert np.abs(tex.gamma - tex0.gamma).max() < 1e-10
    assert _max_move(baked.body_mlp, bundle.body_mlp) < 1e-10
    assert _max_move(baked.cloth_mlp, bundle.cloth_mlp) < 1e-10


def test_bake_fixed_point_when_gt_matches(clothed_rig, clothed_texture, motion):
    _assert_bake_fixed_point(clothed_rig, clothed_texture, motion)  # the 6-joint 64² rig


def test_bake_fixed_point_on_the_4_joint_rig(tiny_setup):
    _assert_bake_fixed_point(*tiny_setup[:3])  # 48², where float64 D-SSIM noise once flipped a bit


def test_bake_steps_adam_with_float32_gradients(tiny_setup, monkeypatch):
    # the training graph runs in its parameters' precision: every loss
    # term is on, and every gradient Adam receives is float32
    t, tex, mot, src = tiny_setup
    seen = []
    step = train.Adam.step

    def spy(self):
        seen.extend(p.grad.dtype for params in self.groups.values() for p in params if p.grad is not None)
        step(self)

    monkeypatch.setattr(train.Adam, "step", spy)
    train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, train.TrainConfig(iterations=1, map_resolution=48))
    assert len(seen) > 10 and set(seen) == {np.dtype(np.float32)}


def test_training_log_carries_group_norms(tiny_setup, tmp_path):
    # every step logs each group's gradient and Adam update norms
    t, tex, mot, src = tiny_setup
    cfg = train.TrainConfig(iterations=2, map_resolution=48)
    _, _, baked = train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)
    _, tuned = train.finetune(t, tex, _bundle_for(t, tex, mot), src, mot,
                              train.TrainConfig(iterations=2))
    for hist, groups in ((baked, ("mlp", "attributes", "embeddings")),
                         (tuned, ("mlp", "blend_pos", "blend_col"))):
        for rec in hist:
            for group in groups:
                for key in (f"gnorm_{group}", f"unorm_{group}"):
                    assert np.isfinite(rec[key]) and rec[key] >= 0.0
        assert any(hist[0][f"gnorm_{group}"] > 0.0 < hist[0][f"unorm_{group}"] for group in groups)
    p = tmp_path / "log.txt"
    train.write_train_log(baked, p)
    fields = dict(kv.split("=", 1) for kv in p.read_text().splitlines()[0].split())
    assert float(fields["gnorm_mlp"]) == pytest.approx(baked[0]["gnorm_mlp"], rel=1e-5)


def _live_bundle(t, tex, mot):
    # mapping nets are live at init; give the blend shapes values too
    bundle = _bundle_for(t, tex, mot)
    rng = np.random.default_rng(9)
    return dataclasses.replace(
        bundle,
        blend_pos=rng.normal(scale=0.01, size=bundle.blend_pos.shape).astype(np.float32),
        blend_col=rng.normal(scale=0.05, size=bundle.blend_col.shape).astype(np.float32))


def _graph_net(layers):
    return [(train.Tensor(w, requires_grad=True), train.Tensor(b, requires_grad=True)) for w, b in layers]


def _random_student(t, tex, mot):
    # every layer live and a nonzero embedding table
    bundle = _live_bundle(t, tex, mot)
    rng = np.random.default_rng(10)

    def live(layers):
        return [(rng.normal(scale=1.0 / np.sqrt(w.shape[0]), size=w.shape).astype(np.float32),
                 rng.normal(scale=0.05, size=b.shape).astype(np.float32)) for w, b in layers]

    return dataclasses.replace(
        bundle, body_mlp=live(bundle.body_mlp), cloth_mlp=live(bundle.cloth_mlp),
        head_map=live(bundle.head_map), body_map=live(bundle.body_map),
        z_table=rng.normal(scale=0.1, size=bundle.z_table.shape).astype(np.float32))


def test_bake_student_graph_is_runtime_student(tiny_setup):
    # bake differentiates the runtime's own student: its deltas are
    # student_deform's, bit for bit, cloth mask and embedding included;
    # a frame that carries its own z uses it, as the runtime does
    t, tex, mot, _ = tiny_setup
    bundle = _random_student(t, tex, mot)
    params = {"sb": _graph_net(bundle.body_mlp), "sc": _graph_net(bundle.cloth_mlp),
              "z_table": train.Tensor(bundle.z_table, requires_grad=True)}
    assert t.cloth_mask.any() and not t.cloth_mask.all()
    own_z = dataclasses.replace(mot.frames[1], z=np.full(bundle.embed_dim, 0.7, np.float32))
    for i, frame in [*enumerate(mot.frames), (1, own_z)]:
        graph = student_delta_graph(params, t, bundle, frame, i).data
        runtime = deform.student_deform(bundle, t, frame, frame_index=i)
        assert graph.dtype == runtime.dtype == np.float32
        assert np.array_equal(graph, runtime)


def test_rig_without_cloth_runs_the_body_net_only():
    # with no cloth vertex the student is the body net bit for bit, and a
    # bake step leaves the cloth net as it was
    t = assets.make_capsule_rig(4, cloth=False, seed=3)
    assert not t.cloth_mask.any()
    tex = gstexture.init_texture(t, 1, 1, seed=2)
    mot = assets.make_swing_motion(t, 2, seed=1, resolution=(32, 32))
    bundle = _random_student(t, tex, mot)
    for i, frame in enumerate(mot.frames):
        x = deform.student_inputs(bundle, t, frame, deform.resolve_embedding(bundle, frame, i))
        body = deform.mlp_forward(bundle.body_mlp, x)
        assert deform.student_deform(bundle, t, frame, frame_index=i).tobytes() == body.tobytes()
    src = teacher.procedural_teacher(t, tex, mot, field="sway", amplitude=0.2, seed=4, map_resolution=32)
    baked, _, _ = train.bake(t, tex, bundle, src, mot, train.TrainConfig(iterations=1, map_resolution=32))
    flat = lambda layers: np.concatenate([a.ravel() for layer in layers for a in layer])
    assert flat(baked.cloth_mlp).tobytes() == flat(bundle.cloth_mlp).tobytes()
    assert not np.array_equal(flat(baked.body_mlp), flat(bundle.body_mlp))


def test_student_preflight_guards_the_cloth_net_on_its_cloth_rows(monkeypatch):
    # the kink guard reads the body net on every row and the cloth net on
    # exactly the cloth rows, the inputs the cloth net sees in the graph
    from meshsplat.train import preflight
    seen = {}
    monkeypatch.setattr(preflight, "_check_clear_of_kinks",
                        lambda name, build, params, net_inputs, seed: seen.update(
                            pairs=net_inputs(params)))
    preflight.check_student()
    (_, x), (_, x_cloth) = seen["pairs"]
    mask = assets.make_capsule_rig(3, cloth=True, seed=11, n_around=6).cloth_mask
    assert x.shape[0] == mask.size and 0 < mask.sum() < mask.size
    assert x_cloth.shape[0] == mask.sum()
    assert np.array_equal(x_cloth, x[mask != 0])


def test_finetune_coeffs_graph_is_runtime_blend_coeffs(tiny_setup):
    t, tex, mot, _ = tiny_setup
    bundle = _random_student(t, tex, mot)
    params = {"maph": _graph_net(bundle.head_map), "mapb": _graph_net(bundle.body_map)}
    for frame in mot.frames:
        graph = blend_coeffs_graph(params, frame).data
        runtime = deform.blend_coeffs(bundle, frame)
        assert graph.dtype == runtime.dtype == np.float32
        assert np.array_equal(graph, runtime)


def test_finetune_fixed_point_when_gt_matches(tiny_setup):
    t, tex, mot, src = tiny_setup
    for bundle in (_bundle_for(t, tex, mot), _live_bundle(t, tex, mot)):
        gently = _own_renders(t, tex, bundle, mot)
        cfg = train.TrainConfig(iterations=12)
        tuned, hist = train.finetune(t, tex, bundle, gently, mot, cfg)
        assert [r["l1"] for r in hist] == [0.0] * 12
        assert np.abs(tuned.blend_pos - bundle.blend_pos).max() < 1e-10
        assert np.abs(tuned.blend_col - bundle.blend_col).max() < 1e-10
        assert _max_move(tuned.head_map + tuned.body_map, bundle.head_map + bundle.body_map) < 1e-10


def test_finetune_first_step_bounded_in_output_units(tiny_setup):
    # Adam's first step moves every blend entry by the group lr, so each
    # offset moves by lr_pos * |z|_1; finetune divides the blend lr by the
    # mean |z|_1 and measures blend_pos steps in mean edge lengths
    t, tex, mot, src = tiny_setup
    bundle = _bundle_for(t, tex, mot)
    lr = 1e-3
    cfg = train.TrainConfig(iterations=1, lrs={"blend": lr})
    tuned, _ = train.finetune(t, tex, bundle, src, mot, cfg)
    z = [np.abs(deform.blend_coeffs(bundle, f)).sum() for f in mot.frames]
    edge = gstexture.triangle_frames(t.vertices, t.faces)[1][tex.face_idx.astype(np.int64)].mean()
    col_lr = lr / max(np.mean(z), 1.0)
    assert np.abs(tuned.blend_pos).max() > 0
    for f, z_l1 in zip(mot.frames, z):
        c = deform.blend_coeffs(tuned, f)
        du = deform.blend_shape_apply(tuned.blend_pos, c)
        dc = deform.blend_shape_apply(tuned.blend_col, c)
        assert np.abs(du).max() <= col_lr * edge * z_l1 * (1 + 1e-4)
        assert np.abs(dc).max() <= col_lr * z_l1 * (1 + 1e-4)


_FROZEN_LRS = {"mlp": 0.0, "attributes": 0.0, "embeddings": 0.0, "blend": 0.0}


def _equals_batch_mean(batched, r0, r1):
    for key in ("l1", "dssim", "nor", "non", "sem", "total"):
        assert batched[key] == r0[key] / 2 + r1[key] / 2, key


def test_bake_batch_record_is_mean_of_frames(tiny_setup):
    # with every lr at zero no step moves a parameter, so a 2-frame
    # step's record is the mean of the two 1-frame steps' records
    t, tex, mot, src = tiny_setup

    def hist(iterations, batch_size):
        cfg = train.TrainConfig(iterations=iterations, batch_size=batch_size, map_resolution=48,
                                lrs=_FROZEN_LRS)
        return train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)[2]

    r0, r1 = hist(2, 1)
    (batched,) = hist(1, 2)
    _equals_batch_mean(batched, r0, r1)


def test_finetune_batch_record_is_mean_of_frames(tiny_setup):
    t, tex, mot, src = tiny_setup
    bundle = _bundle_for(t, tex, mot)

    def hist(iterations, batch_size):
        cfg = train.TrainConfig(iterations=iterations, batch_size=batch_size, lrs=_FROZEN_LRS)
        return train.finetune(t, tex, bundle, src, mot, cfg)[1]

    r0, r1 = hist(2, 1)
    (batched,) = hist(1, 2)
    _equals_batch_mean(batched, r0, r1)


def test_finetune_nan_gt_aborts_with_input_state(tiny_setup):
    t, tex, mot, src = tiny_setup
    bundle = _bundle_for(t, tex, mot)
    bad = [teacher.TeacherFrame(dmap=None, gt_color=np.full_like(f.gt_color, np.nan),
                                gt_normal=f.gt_normal, gt_mask=f.gt_mask) for f in src]
    cfg = train.TrainConfig(iterations=3)
    with pytest.raises(train.TrainingDiverged) as ei:
        train.finetune(t, tex, bundle, bad, mot, cfg)
    assert ei.value.iteration == 0
    assert np.array_equal(ei.value.bundle.blend_pos, bundle.blend_pos)
    assert np.array_equal(ei.value.bundle.blend_col, bundle.blend_col)
    assert ei.value.texture is tex


@pytest.mark.parametrize("setting, name", [
    ({"tau": 10.0}, "tau"), ({"map_resolution": 48}, "map_resolution"),
    ({"freeze_embeddings": True}, "freeze_embeddings"),
    ({"weights": train.LossWeights(nor=0.0)}, "weights.nor"),
    ({"weights": train.LossWeights(non=0.0)}, "weights.non"),
    ({"weights": train.LossWeights(sem=0.0)}, "weights.sem"),
])
def test_finetune_rejects_bake_only_settings(tiny_setup, setting, name):
    # finetune reads none of these; a non-default value must not be ignored
    t, tex, mot, src = tiny_setup
    cfg = train.TrainConfig(iterations=1, **setting)
    with pytest.raises(assets.ValidationError, match=name):
        train.finetune(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)


def test_every_training_op_is_preflight_checked(tiny_setup, monkeypatch):
    # every op class a bake and a finetune step build is reached by some
    # preflight suite's finite-difference check
    t, tex, mot, src = tiny_setup
    built = set()
    apply = engine.Function.apply.__func__

    def recording(cls, *args, **kwargs):
        built.add(cls)
        return apply(cls, *args, **kwargs)

    monkeypatch.setattr(engine.Function, "apply", classmethod(recording))
    bundle, _, _ = train.bake(t, tex, _bundle_for(t, tex, mot), src, mot,
                              train.TrainConfig(iterations=2, map_resolution=48))
    train.finetune(t, tex, bundle, src, mot, train.TrainConfig(iterations=2))
    trained = set(built)
    built.clear()
    for check in train.SUITES.values():
        check()
    assert sorted(c.__name__ for c in trained - built) == []


def test_train_config_has_no_inert_fields():
    # every field is read by a training stage
    source = inspect.getsource(inspect.getmodule(train.bake))
    for f in dataclasses.fields(train.TrainConfig):
        assert f"config.{f.name}" in source, f.name
    for f in dataclasses.fields(train.LossWeights):
        assert f"weights.{f.name}" in source, f.name


def test_train_log_format(tiny_setup, tmp_path):
    t, tex, mot, src = tiny_setup
    cfg = train.TrainConfig(iterations=2, map_resolution=48,
                            weights=train.LossWeights(sem=0.0))
    _, _, hist = train.bake(t, tex, _bundle_for(t, tex, mot), src, mot, cfg)
    p = tmp_path / "log.txt"
    train.write_train_log([h for h in hist if "total" in h], p)
    lines = p.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("iter=0 ")
    assert "non=" in lines[0] and "wall_ms=" in lines[0]


def test_loss_weights_validation():
    with pytest.raises(assets.ValidationError):
        train.LossWeights(ssim=-0.1).validate()
    with pytest.raises(assets.ValidationError):
        train.TrainConfig(iterations=0).validate()
    for threads in (0, -2):
        with pytest.raises(assets.ValidationError, match="threads"):
            train.TrainConfig(threads=threads).validate()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_non_finite_weights_and_tau_rejected(bad):
    # NaN fails every comparison, so "< 0" alone would let it through
    for name in ("ssim", "lpips", "nor", "non", "sem"):
        with pytest.raises(assets.ValidationError, match=name):
            train.LossWeights(**{name: bad}).validate()
    with pytest.raises(assets.ValidationError, match="tau"):
        train.TrainConfig(tau=bad).validate()
