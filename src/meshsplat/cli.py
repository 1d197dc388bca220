"""Operator-facing command line.

Every subcommand prints one machine-readable key=value summary line on
success and a single-line diagnostic on failure. Exit codes: 0 ok,
2 usage, 3 validation, 4 runtime. Output files are written to a temp
name and renamed, so failures never leave partial artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import assets, deform, gstexture, splat, teacher
from .assets import ContainerError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _summary(**kv) -> str:
    parts = []
    for k, v in kv.items():
        if isinstance(v, float):
            parts.append(f"{k}={v:.6g}")
        else:
            parts.append(f"{k}={v}")
    return " ".join(parts)


def _load_config_file(path) -> dict:
    """key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{ln}: expected key=value")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def _parse_res(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except Exception as e:
        raise ValidationError(f"resolution must look like 512x512, got '{text}'") from e


def _train_config(args, weights, **bake_only) -> "train_mod.TrainConfig":
    from . import train as train_mod

    return train_mod.TrainConfig(
        iterations=args.iterations,
        batch_size=args.batch_size,
        weights=weights,
        **bake_only,
    )


def _add_train_flags(p):
    """Flags that both training stages read."""
    p.add_argument("--iterations", type=int, default=2000, help="optimizer steps")
    p.add_argument("--batch-size", type=int, default=1, help="frames per step")
    p.add_argument("--map-res", type=int, default=128, help="deformation map resolution (px)")
    p.add_argument("--lambda-ssim", type=float, default=0.2, help="D-SSIM weight")
    p.add_argument("--log", help="write per-iteration loss records to this file")
    p.add_argument("--skip-preflight", action="store_true",
                   help="skip the fast gradient checks that gate training")


def _add_bake_flags(p):
    """Flags that only bake reads: finetune neither renders semantics nor
    optimizes the normal, map or embedding terms."""
    p.add_argument("--tau", type=float, default=25.0, help="semantic sine scale (1/m)")
    p.add_argument("--lambda-nor", type=float, default=0.02, help="normal loss weight")
    p.add_argument("--lambda-non", type=float, default=0.1, help="non-rigid map loss weight")
    p.add_argument("--lambda-sem", type=float, default=1.0, help="semantic loss weight")
    p.add_argument("--freeze-embeddings", action="store_true",
                   help="keep per-frame embeddings at zero (synthetic, exactly-registered poses)")


def _teacher_flags(p):
    p.add_argument("--teacher-dir", help="ingest an exported teacher (manifest.txt inside)")
    p.add_argument("--teacher-field", default="sway", choices=teacher.FIELDS,
                   help="procedural field when no --teacher-dir")
    p.add_argument("--amplitude", type=float, default=0.1, help="field amplitude (m)")
    p.add_argument("--teacher-seed", type=int, default=0, help="field randomness seed")
    p.add_argument("--export-teacher", help="directory to export the generated teacher to")


def _motion_for(args, template) -> assets.MotionSequence:
    if args.motion:
        return assets.load_motion(args.motion)
    mot = assets.make_swing_motion(
        template, args.frames, seed=args.motion_seed, resolution=_parse_res(args.res)
    )
    if getattr(args, "save_motion", None):
        assets.save_motion(mot, args.save_motion)
    return mot


def _motion_flags(p, default_frames=10):
    p.add_argument("--motion", help="motion file (.mot); omit to synthesize")
    p.add_argument("--frames", type=int, default=default_frames, help="synthesized frame count")
    p.add_argument("--motion-seed", type=int, default=1, help="synthesized motion seed")
    p.add_argument("--res", default="128x128", help="camera resolution WxH (px)")
    p.add_argument("--save-motion", help="write the synthesized motion here (.mot)")


def _run_preflight_gate(args) -> None:
    from . import train as train_mod

    if args.skip_preflight:
        return
    reports = train_mod.run_preflight()
    for name, r in reports.items():
        if not r.ok:
            raise ValidationError(f"preflight '{name}' failed: {r.summary()}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_rig(args) -> int:
    if args.expressions < 0:
        raise ValidationError(f"--expressions must be at least 0, got {args.expressions}")
    t = assets.make_capsule_rig(args.joints, cloth=args.cloth, seed=args.seed,
                                n_expressions=args.expressions)
    assets.save_template(t, args.out)
    print(_summary(status="ok", cmd="gen-rig", out=args.out, vertices=t.num_vertices,
                   faces=t.num_faces, joints=t.num_joints, theta_dim=t.theta_dim, seed=args.seed))
    return EXIT_OK


def cmd_build_template(args) -> int:
    body = assets.load_template(args.body)
    components = []
    for spec_str in args.component or []:
        if ":" not in spec_str:
            raise ValidationError(f"--component needs path:label, got '{spec_str}'")
        path, label_name = spec_str.rsplit(":", 1)
        labels = {v: k for k, v in assets.LABEL_NAMES.items()}
        if label_name not in labels:
            raise ValidationError(f"unknown component label '{label_name}'")
        carrier = assets.load_template(path)
        components.append((carrier.vertices, carrier.faces, labels[label_name]))
    if args.synthetic_skirt:
        sv, sf = assets.make_skirt_mesh()
        components.append((sv, sf, assets.CLOTH))
    if args.ref_motion:
        motion = assets.load_motion(args.ref_motion)
        if not 0 <= args.ref_frame < len(motion):
            raise ValidationError(f"--ref-frame {args.ref_frame} outside motion of length {len(motion)}")
        ref = motion.frames[args.ref_frame]
    else:
        ref = assets.FrameInput(
            np.zeros(body.theta_dim, np.float32),
            np.zeros(body.num_expressions, np.float32),
            np.eye(4, dtype=np.float32),
        )
    from .skinning import build_clothed_template

    merged = build_clothed_template(body, components, ref, band=args.band)
    assets.save_template(merged, args.out)
    print(_summary(status="ok", cmd="build-template", out=args.out,
                   vertices=merged.num_vertices, faces=merged.num_faces,
                   cloth_vertices=int(merged.cloth_mask.sum()), components=len(components)))
    return EXIT_OK


def cmd_bind(args) -> int:
    t = assets.load_template(args.template)
    tex = gstexture.init_texture(t, args.kmin, args.kmax, seed=args.seed, sh_degree=args.sh_degree)
    gstexture_path = args.out
    assets.save_texture(tex, gstexture_path)
    print(_summary(status="ok", cmd="bind", out=gstexture_path, gaussians=tex.num_gaussians,
                   faces=t.num_faces, sh_degree=args.sh_degree, seed=args.seed))
    return EXIT_OK


def _teacher_for(args, template, texture, motion):
    if args.teacher_dir:
        manifest = os.path.join(args.teacher_dir, teacher.MANIFEST)
        src = teacher.ingest_teacher(manifest)
        if len(src) != len(motion):
            raise ValidationError(f"teacher has {len(src)} frames, motion has {len(motion)}")
        return src
    src = teacher.procedural_teacher(
        template, texture, motion, field=args.teacher_field,
        amplitude=args.amplitude, seed=args.teacher_seed,
        map_resolution=args.map_res,
    )
    if args.export_teacher:
        teacher.export_teacher(src, args.export_teacher)
    return src


def cmd_bake(args) -> int:
    from . import train as train_mod

    t = assets.load_template(args.template)
    tex = assets.load_texture(args.texture)
    motion = _motion_for(args, t)
    src = _teacher_for(args, t, tex, motion)
    bundle = deform.init_bundle(t, tex, n_frames=len(motion), seed=args.seed)
    _run_preflight_gate(args)
    weights = train_mod.LossWeights(ssim=args.lambda_ssim, nor=args.lambda_nor, non=args.lambda_non,
                                    sem=args.lambda_sem)
    cfg = _train_config(args, weights, tau=args.tau, freeze_embeddings=args.freeze_embeddings,
                        map_resolution=args.map_res)
    try:
        bundle, tex2, history = train_mod.bake(t, tex, bundle, src, motion, cfg)
    except train_mod.TrainingDiverged as e:
        deform.save_bundle(e.bundle, args.out)
        if args.out_texture:
            assets.save_texture(e.texture, args.out_texture)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    deform.save_bundle(bundle, args.out)
    if args.out_texture:
        assets.save_texture(tex2, args.out_texture)
    if args.log:
        train_mod.write_train_log(history, args.log)
    last = history[-1]
    print(_summary(status="ok", cmd="bake", out=args.out, iterations=cfg.iterations,
                   seed=args.seed, final_total=last["total"], final_non=last["non"],
                   final_l1=last["l1"]))
    return EXIT_OK


def cmd_finetune(args) -> int:
    from . import train as train_mod

    t = assets.load_template(args.template)
    tex = assets.load_texture(args.texture)
    bundle = deform.load_bundle(args.bundle)
    motion = _motion_for(args, t)
    src = _teacher_for(args, t, tex, motion)
    _run_preflight_gate(args)
    cfg = _train_config(args, train_mod.LossWeights(ssim=args.lambda_ssim))
    try:
        bundle, history = train_mod.finetune(t, tex, bundle, src, motion, cfg)
    except train_mod.TrainingDiverged as e:
        deform.save_bundle(e.bundle, args.out)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    deform.save_bundle(bundle, args.out)
    if args.log:
        train_mod.write_train_log(history, args.log)
    last = history[-1]
    print(_summary(status="ok", cmd="finetune", out=args.out, iterations=cfg.iterations,
                   final_total=last["total"], final_l1=last["l1"]))
    return EXIT_OK


def cmd_render(args) -> int:
    t = assets.load_template(args.template)
    tex = assets.load_texture(args.texture)
    bundle = deform.load_bundle(args.bundle) if args.bundle else None
    motion = _motion_for(args, t)
    if not 0 <= args.frame < len(motion):
        raise ValidationError(f"frame {args.frame} outside motion of length {len(motion)}")
    if args.relight:
        light = [float(x) for x in args.relight.split(",")]
        if len(light) != 3:
            raise ValidationError("--relight needs dx,dy,dz")
    res = deform.animate_frame(
        t, tex, bundle, motion.frames[args.frame], motion.camera_for(args.frame),
        channels=("color", "alpha", "normal") if args.relight else ("color", "alpha"),
        frame_index=args.frame, sort_mode=args.sort_mode,
    )
    img = res.target.color
    if args.relight:
        img = splat.relight(img, res.target.normal, light, ambient=args.ambient)
    splat.write_image(img, args.out)
    print(_summary(status="ok", cmd="render", out=args.out, frame=args.frame,
                   gaussians=tex.num_gaussians, alpha_mean=float(res.target.alpha.mean())))
    return EXIT_OK


def cmd_animate(args) -> int:
    t = assets.load_template(args.template)
    tex = assets.load_texture(args.texture)
    bundle = deform.load_bundle(args.bundle) if args.bundle else None
    motion = _motion_for(args, t)
    os.makedirs(args.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    for i, frame in enumerate(motion.frames):
        res = deform.animate_frame(
            t, tex, bundle, frame, motion.camera_for(i),
            channels=("color", "alpha"), frame_index=i, sort_mode=args.sort_mode,
        )
        splat.write_image(res.target.color, os.path.join(args.out_dir, f"frame{i:05d}.{args.format}"))
    dt = time.perf_counter() - t0
    print(_summary(status="ok", cmd="animate", out_dir=args.out_dir, frames=len(motion),
                   fps=len(motion) / dt))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.frames < 1:
        raise ValidationError(f"--frames must be at least 1, got {args.frames}")
    if args.gaussians < 0:
        raise ValidationError(f"--gaussians must be at least 0, got {args.gaussians}")
    rng = np.random.default_rng(args.seed)
    w, h = _parse_res(args.res)
    n = args.gaussians
    means = rng.uniform(-1.0, 1.0, size=(n, 3)).astype(np.float32)
    means[:, 1] *= 0.3
    from .rotations import axis_angle_to_quat, quat_to_matrix

    aa = rng.normal(size=(n, 3)) * 0.5
    rots = quat_to_matrix(axis_angle_to_quat(aa).astype(np.float32)).astype(np.float32)
    scales = rng.uniform(0.004, 0.02, size=(n, 3)).astype(np.float32)
    scales[:, 0] *= 0.01
    wg = gstexture.WorldGaussians(
        means=means, rot_mats=rots, scales=scales,
        opacity=rng.uniform(0.3, 0.95, size=n).astype(np.float32),
        color=rng.random((n, 3)).astype(np.float32),
        normal=rots[:, :, 0],
    )
    cam = assets.perspective_camera((0.0, 3.0, 0.0), (0.0, 0.0, 0.0), (w, h),
                                    focal_px=1.1 * max(w, h), near=0.1, far=20.0)

    from .splat import composite, order_key, project_gaussians
    from .splat.tiles import tile_pairs

    # A frame is what ``render`` runs: project, cull, order by the sort
    # key and composite, which builds its tile pair lists internally.
    # ``bin_ms`` times those lists (``tile_pairs``) once more on their
    # own, outside ``fps`` and ``total_ms``; ``pairs`` is their length,
    # the tile-Gaussian pairs a frame composites.
    stage = {"project": 0.0, "bin": 0.0, "composite": 0.0}
    for _ in range(args.frames):
        t0 = time.perf_counter()
        proj = project_gaussians(wg.means, wg.rot_mats, wg.scales, cam)
        idx = np.nonzero(proj.visible)[0]
        key = order_key(proj.depth[idx], cam)
        t1 = time.perf_counter()
        image, _ = composite(proj.means2d[idx], proj.conic[idx], wg.opacity[idx],
                             np.ascontiguousarray(wg.color[idx]), key, proj.radius[idx], w, h)
        t2 = time.perf_counter()
        pairs = tile_pairs(proj.means2d[idx], proj.conic[idx], proj.radius[idx], key, w, h)[0].size
        stage["project"] += t1 - t0
        stage["composite"] += t2 - t1
        stage["bin"] += time.perf_counter() - t2
    total = stage["project"] + stage["composite"]
    fps = args.frames / total
    # share of covered pixels whose transmittance fell below 1e-4, the
    # early-stop threshold of 3DGS; the compositor stops them at STOP_BOUND
    alpha = image[..., -1].astype(np.float32)
    covered = int((alpha > 0).sum())
    saturated = int((alpha >= np.float32(1.0 - 1e-4)).sum())
    print(_summary(
        status="ok", cmd="bench", gaussians=n, res=args.res, frames=args.frames,
        fps=fps, total_ms=total / args.frames * 1000.0,
        project_ms=stage["project"] / args.frames * 1000.0,
        bin_ms=stage["bin"] / args.frames * 1000.0,
        composite_ms=stage["composite"] / args.frames * 1000.0, pairs=pairs,
        saturated_px_frac=saturated / covered if covered else 0.0,
        seed=args.seed,
    ))
    return EXIT_OK


def cmd_quantize(args) -> int:
    from . import train as train_mod

    bundle = deform.load_bundle(args.bundle)
    q, report = train_mod.quantize_bundle(bundle, seed=args.seed)
    deform.save_bundle(q, args.out)
    print(_summary(status="ok" if report.ok else "over-bound", cmd="quantize", out=args.out,
                   max_rel=report.max_rel, bound=report.bound, inputs=report.inputs))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_preflight(args) -> int:
    from . import train as train_mod

    reports = train_mod.run_preflight()
    ok = True
    for name, r in reports.items():
        print(_summary(check=name, ok=r.ok, max_rel=r.max_rel, max_abs=r.max_abs, checked=r.checked,
                       tol=r.tol))
        ok = ok and r.ok
    print(_summary(status="ok" if ok else "failed", cmd="preflight", suites=len(reports)))
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshsplat",
        description="Mesh-bound Gaussian avatar runtime and baking harness.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-rig", help="generate a synthetic capsule rig (.tpl)")
    p.add_argument("--joints", type=int, default=6, help="joint chain length (>= 2)")
    p.add_argument("--cloth", action="store_true", help="attach a skirt-like cloth component")
    p.add_argument("--expressions", type=int, default=10, help="expression channel count")
    p.add_argument("--seed", type=int, default=0, help="construction seed")
    p.add_argument("--out", required=True, help="output template path (.tpl)")
    p.set_defaults(func=cmd_gen_rig)

    p = sub.add_parser("build-template", help="attach components to a body template")
    p.add_argument("--body", required=True, help="body template (.tpl)")
    p.add_argument("--component", action="append",
                   help="mesh-carrier template and label, e.g. skirt.tpl:cloth (repeatable)")
    p.add_argument("--synthetic-skirt", action="store_true", help="attach the built-in skirt mesh")
    p.add_argument("--ref-motion", help="motion supplying the reference pose (.mot)")
    p.add_argument("--ref-frame", type=int, default=0, help="reference frame index")
    p.add_argument("--band", type=float, default=0.05, help="weight-transfer distance band (m)")
    p.add_argument("--out", required=True, help="output template path (.tpl)")
    p.set_defaults(func=cmd_build_template)

    p = sub.add_parser("bind", help="bind a fresh Gaussian texture to a template (.gtx)")
    p.add_argument("--template", required=True, help="template path (.tpl)")
    p.add_argument("--kmin", type=int, default=4, help="min Gaussians per triangle")
    p.add_argument("--kmax", type=int, default=6, help="max Gaussians per triangle")
    p.add_argument("--sh-degree", type=int, default=2, help="SH degree (0..3)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", required=True, help="output texture path (.gtx)")
    p.set_defaults(func=cmd_bind)

    p = sub.add_parser("bake", help="distill a teacher into the student field")
    p.add_argument("--template", required=True)
    p.add_argument("--texture", required=True)
    _motion_flags(p)
    _teacher_flags(p)
    _add_train_flags(p)
    _add_bake_flags(p)
    p.add_argument("--seed", type=int, default=0, help="student initialization seed")
    p.add_argument("--out", required=True, help="output bundle path (.stu)")
    p.add_argument("--out-texture", help="output refined texture path (.gtx)")
    p.set_defaults(func=cmd_bake)

    p = sub.add_parser("finetune", help="fit mapping nets + blend shapes, field frozen")
    p.add_argument("--template", required=True)
    p.add_argument("--texture", required=True)
    p.add_argument("--bundle", required=True, help="baked bundle path (.stu)")
    _motion_flags(p)
    _teacher_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="output bundle path (.stu)")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("render", help="render one frame to an image")
    p.add_argument("--template", required=True)
    p.add_argument("--texture", required=True)
    p.add_argument("--bundle", help="student bundle (.stu); omit for the static binding")
    _motion_flags(p, default_frames=1)
    p.add_argument("--frame", type=int, default=0, help="frame index")
    p.add_argument("--sort-mode", default="exact_f32", choices=("exact_f32", "quant_u16"))
    p.add_argument("--relight", help="shade by the rendered normals; light direction dx,dy,dz (unitless)")
    p.add_argument("--ambient", type=float, default=0.2, help="relight ambient term")
    p.add_argument("--out", required=True, help="output image (.ppm or .png)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("animate", help="render a whole motion to an image directory")
    p.add_argument("--template", required=True)
    p.add_argument("--texture", required=True)
    p.add_argument("--bundle")
    _motion_flags(p)
    p.add_argument("--format", default="ppm", choices=("ppm", "png"))
    p.add_argument("--sort-mode", default="exact_f32", choices=("exact_f32", "quant_u16"))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_animate)

    p = sub.add_parser("bench", help="render throughput on a synthetic Gaussian cloud")
    p.add_argument("--gaussians", type=int, default=20000, help="cloud size")
    p.add_argument("--res", default="512x512", help="render resolution WxH (px)")
    p.add_argument("--frames", type=int, default=10, help="frames to time")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("quantize", help="half-precision deployment bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--seed", type=int, default=0, help="deviation sweep seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("preflight", help="run all gradient-check suites")
    p.set_defaults(func=cmd_preflight)
    return parser


def _apply_config_defaults(parser, overrides: dict) -> None:
    """Push config-file values into the parser and every subparser.

    Subparsers re-apply their own defaults over the parent namespace, so
    each one carrying a matching flag gets the override directly.
    """
    subparsers = [
        sp
        for action in parser._subparsers._group_actions
        for sp in action.choices.values()
    ]
    known = set()
    for p in [parser] + subparsers:
        known.update(a.dest for a in p._actions)
    unknown = set(overrides) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for p in [parser] + subparsers:
        local = {k: v for k, v in overrides.items() if any(a.dest == k for a in p._actions)}
        if local:
            p.set_defaults(**local)


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # apply config-file defaults before the real parse
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            parser.error("--config needs a path")
        try:
            overrides = _load_config_file(argv[i + 1])
            _apply_config_defaults(parser, overrides)
        except (OSError, ValueError) as e:  # ValueError: ValidationError, bytes that are not UTF-8
            print(f"error: {e}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ContainerError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
