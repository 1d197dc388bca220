import os

import numpy as np
import pytest

from meshsplat import cli
from meshsplat.train import SUITES


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cliwork")
    assert run(["gen-rig", "--joints", "5", "--cloth", "--seed", "3",
                "--out", str(d / "rig.tpl")]) == 0
    assert run(["bind", "--template", str(d / "rig.tpl"), "--kmin", "1", "--kmax", "1",
                "--seed", "2", "--out", str(d / "tex.gtx")]) == 0
    return d


def test_gen_rig_deterministic_summary(tmp_path, capsys):
    out1 = tmp_path / "a.tpl"
    out2 = tmp_path / "b.tpl"
    assert run(["gen-rig", "--joints", "4", "--seed", "9", "--out", str(out1)]) == 0
    s1 = capsys.readouterr().out.strip().replace(str(out1), "X")
    assert run(["gen-rig", "--joints", "4", "--seed", "9", "--out", str(out2)]) == 0
    s2 = capsys.readouterr().out.strip().replace(str(out2), "X")
    assert s1 == s2
    assert s1.startswith("status=ok cmd=gen-rig")
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2


def test_unknown_flag_is_usage_error():
    assert run(["gen-rig", "--no-such-flag"]) == 2


def test_validation_failure_exit_code(tmp_path):
    assert run(["bind", "--template", str(tmp_path / "missing.tpl"),
                "--out", str(tmp_path / "x.gtx")]) in (3, 4)


@pytest.mark.parametrize("degree", ["4", "5", "-1"])
def test_bind_rejects_sh_degree_outside_0_to_3(workdir, tmp_path, degree, capsys):
    out = tmp_path / "x.gtx"
    assert run(["bind", "--template", str(workdir / "rig.tpl"), "--sh-degree", degree,
                "--out", str(out)]) == 3
    assert not out.exists()
    assert "sh degree must be in [0,3]" in capsys.readouterr().err


@pytest.mark.parametrize("ref_frame", ["3", "7", "-1"])
def test_build_template_rejects_ref_frame_outside_motion(workdir, tmp_path, ref_frame, capsys):
    from meshsplat import assets

    rig = assets.load_template(workdir / "rig.tpl")
    assets.save_motion(assets.make_swing_motion(rig, 3, seed=1), tmp_path / "m.mot")
    out = tmp_path / "merged.tpl"
    assert run(["build-template", "--body", str(workdir / "rig.tpl"), "--ref-motion",
                str(tmp_path / "m.mot"), "--ref-frame", ref_frame, "--out", str(out)]) == 3
    assert not out.exists()
    assert "outside motion of length 3" in capsys.readouterr().err


@pytest.mark.parametrize("band", ["nan", "inf", "0", "-1"])
def test_build_template_rejects_band_not_finite_and_positive(tmp_path, band, capsys):
    # a NaN band made every distance test False and so switched the gate off
    assert run(["gen-rig", "--joints", "3", "--out", str(tmp_path / "body.tpl")]) == 0
    out = tmp_path / "merged.tpl"
    assert run(["build-template", "--body", str(tmp_path / "body.tpl"), "--synthetic-skirt",
                "--band", band, "--out", str(out)]) == 3
    assert not out.exists()
    assert "band must be finite and > 0" in capsys.readouterr().err


def test_lambda_lpips_is_not_a_setting(workdir, tmp_path):
    # no feature network backs a perceptual term, so no flag or config key sets its weight
    argv = ["bake", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
            "--frames", "2", "--res", "32x32", "--map-res", "32", "--iterations", "1",
            "--skip-preflight", "--out", str(tmp_path / "b.stu")]
    assert run(argv + ["--lambda-lpips", "0"]) == 2
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lambda_lpips=0\n")
    assert run(["--config", str(cfg)] + argv) == 3
    assert not (tmp_path / "b.stu").exists()


def test_render_without_bundle(workdir, capsys):
    out = workdir / "frame.ppm"
    assert run(["render", "--template", str(workdir / "rig.tpl"),
                "--texture", str(workdir / "tex.gtx"),
                "--res", "64x64", "--motion-seed", "1", "--out", str(out)]) == 0
    assert out.exists()
    line = capsys.readouterr().out.strip()
    assert "alpha_mean=" in line


def test_render_zero_bundle_matches_no_bundle(workdir):
    from meshsplat import assets, deform

    t = assets.load_template(workdir / "rig.tpl")
    tex = assets.load_texture(workdir / "tex.gtx")
    b = deform.init_bundle(t, tex, n_frames=1, seed=0)
    deform.save_bundle(b, workdir / "zero.stu")
    a = workdir / "plain.ppm"
    bb = workdir / "bundle.ppm"
    args = ["render", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
            "--res", "64x64", "--motion-seed", "4"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--bundle", str(workdir / "zero.stu"), "--out", str(bb)]) == 0
    assert a.read_bytes() == bb.read_bytes()


def test_render_relight_requires_normals(workdir):
    # --relight alone renders the normals it shades with; --channels is gone
    args = ["render", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
            "--res", "48x48"]
    assert run(args + ["--relight", "0,0,1", "--out", str(workdir / "r.ppm")]) == 0
    assert run(args + ["--out", str(workdir / "unlit.ppm")]) == 0
    assert (workdir / "r.ppm").read_bytes() != (workdir / "unlit.ppm").read_bytes()
    assert run(args + ["--channels", "color,alpha,normal", "--relight", "0,0,1",
                       "--out", str(workdir / "r.ppm")]) == 2


@pytest.mark.parametrize("light", ["0,0,0", "nan,0,1"])
def test_render_relight_rejects_zero_or_non_finite_light(workdir, light):
    out = workdir / "bad_light.ppm"
    assert run(["render", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
                "--res", "32x32", "--relight", light, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ambient", ["nan", "inf", "-5"])
def test_render_relight_rejects_ambient_not_finite_and_non_negative(workdir, ambient, capsys):
    out = workdir / "bad_ambient.ppm"
    assert run(["render", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
                "--res", "32x32", "--relight", "0,0,1", "--ambient", ambient, "--out", str(out)]) == 3
    assert not out.exists()
    assert "ambient term finite and >= 0" in capsys.readouterr().err


def test_animate_writes_all_frames(workdir, capsys):
    out_dir = workdir / "anim"
    assert run(["animate", "--template", str(workdir / "rig.tpl"),
                "--texture", str(workdir / "tex.gtx"), "--res", "48x48",
                "--frames", "3", "--out-dir", str(out_dir)]) == 0
    assert sorted(os.listdir(out_dir)) == ["frame00000.ppm", "frame00001.ppm", "frame00002.ppm"]
    assert "fps=" in capsys.readouterr().out


def test_bench_summary_fields(capsys):
    assert run(["bench", "--gaussians", "500", "--res", "64x64", "--frames", "2"]) == 0
    line = capsys.readouterr().out.strip()
    for key in ("fps=", "project_ms=", "bin_ms=", "composite_ms=", "gaussians=500"):
        assert key in line
    fields = dict(kv.split("=", 1) for kv in line.split())
    assert float(fields["saturated_px_frac"]) == 0.0  # 500 Gaussians cover no pixel opaquely
    assert int(fields["pairs"]) > 0
    assert run(["bench", "--gaussians", "5000", "--res", "64x64", "--frames", "1"]) == 0
    fields = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
    assert 0.0 < float(fields["saturated_px_frac"]) < 0.01


@pytest.mark.parametrize("frames", ["0", "-2"])
def test_bench_rejects_frames_below_one(frames, capsys):
    assert run(["bench", "--gaussians", "100", "--res", "32x32", "--frames", frames]) == 3
    assert "frames" in capsys.readouterr().err


def test_bench_rejects_negative_gaussians(capsys):
    assert run(["bench", "--gaussians", "-5", "--res", "32x32", "--frames", "1"]) == 3
    assert "--gaussians" in capsys.readouterr().err


def test_gen_rig_rejects_negative_expressions(tmp_path, capsys):
    assert run(["gen-rig", "--expressions", "-1", "--out", str(tmp_path / "r.tpl")]) == 3
    assert "--expressions" in capsys.readouterr().err
    assert not (tmp_path / "r.tpl").exists()


@pytest.mark.parametrize("cmd", ["bake", "finetune", "render", "animate", "bench"])
def test_threads_is_not_a_setting(workdir, tmp_path, cmd, capsys):
    # rendering is single-threaded, so no flag or config key sets a thread count
    inputs = ["--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx")]
    argv = {"bake": inputs + ["--out", str(tmp_path / "o.stu")],
            "finetune": inputs + ["--bundle", str(tmp_path / "b.stu"), "--out", str(tmp_path / "o.stu")],
            "render": inputs + ["--out", str(tmp_path / "o.ppm")],
            "animate": inputs + ["--out-dir", str(tmp_path / "frames")],
            "bench": ["--gaussians", "100", "--res", "32x32", "--frames", "1"]}[cmd]
    assert run([cmd, *argv, "--threads", "1"]) == 2
    assert "--threads" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=1\n")
    assert run(["--config", str(cfg), cmd, *argv]) == 3
    assert "unknown config keys: ['threads']" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_preflight_reports_every_suite(capsys):
    assert run(["preflight"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [dict(kv.split("=", 1) for kv in line.split()) for line in lines]
    assert [r["check"] for r in records[:-1]] == list(SUITES)
    assert all(r["ok"] == "True" for r in records[:-1])
    assert all(0.0 <= float(r["max_abs"]) < 1e-3 for r in records[:-1])
    assert records[-1]["suites"] == str(len(SUITES))


def test_bake_finetune_quantize_flow(workdir, capsys, tmp_path):
    bundle = workdir / "baked.stu"
    rc = run(["bake", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
              "--frames", "3", "--res", "48x48", "--map-res", "48",
              "--iterations", "4", "--lambda-sem", "0", "--teacher-field", "sway",
              "--amplitude", "0.1", "--skip-preflight",
              "--log", str(workdir / "bake.log"),
              "--out", str(bundle), "--out-texture", str(workdir / "refined.gtx")])
    assert rc == 0
    assert bundle.exists() and (workdir / "refined.gtx").exists()
    log_lines = (workdir / "bake.log").read_text().strip().splitlines()
    assert len(log_lines) == 4
    assert log_lines[0].startswith("iter=0 ")
    capsys.readouterr()

    tuned = workdir / "tuned.stu"
    rc = run(["finetune", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
              "--bundle", str(bundle), "--frames", "3", "--res", "48x48", "--map-res", "48",
              "--iterations", "3", "--teacher-field", "none", "--amplitude", "0",
              "--skip-preflight", "--out", str(tuned)])
    assert rc == 0
    capsys.readouterr()

    rc = run(["quantize", "--bundle", str(tuned), "--out", str(workdir / "deploy.stu")])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert "max_rel=" in line and "status=ok" in line

    from meshsplat import deform

    q = deform.load_bundle(workdir / "deploy.stu")
    assert q.precision == "fp16"


@pytest.mark.parametrize("flag", [["--lambda-ssim", "nan"], ["--tau", "nan"], ["--tau", "inf"],
                                  ["--map-res", "0"], ["--map-res", "-3"]])
def test_bake_rejects_bad_settings_before_writing(workdir, tmp_path, flag, capsys):
    out = tmp_path / "b.stu"
    assert run(["bake", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
                "--frames", "2", "--res", "32x32", "--map-res", "32", "--iterations", "1",
                "--skip-preflight", "--out", str(out)] + flag) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", [["--tau", "1"], ["--lambda-nor", "0"], ["--lambda-non", "0"],
                                  ["--lambda-sem", "0"], ["--freeze-embeddings"], ["--seed", "0"],
                                  ["--log-every", "5"]])
def test_finetune_rejects_flags_it_does_not_read(workdir, tmp_path, flag):
    assert run(["finetune", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
                "--bundle", str(tmp_path / "b.stu"), "--out", str(tmp_path / "o.stu")] + flag) == 2
    assert not (tmp_path / "o.stu").exists()


def test_bake_export_and_ingest_teacher(workdir, tmp_path):
    exp = tmp_path / "teacher_out"
    rc = run(["bake", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
              "--frames", "2", "--res", "48x48", "--map-res", "32",
              "--iterations", "2", "--lambda-sem", "0", "--skip-preflight",
              "--export-teacher", str(exp), "--out", str(tmp_path / "b1.stu")])
    assert rc == 0
    assert (exp / "manifest.txt").exists()
    rc = run(["bake", "--template", str(workdir / "rig.tpl"), "--texture", str(workdir / "tex.gtx"),
              "--frames", "2", "--res", "48x48", "--map-res", "32",
              "--iterations", "2", "--lambda-sem", "0", "--skip-preflight",
              "--teacher-dir", str(exp), "--out", str(tmp_path / "b2.stu")])
    assert rc == 0


def test_config_file_defaults(workdir, tmp_path, capsys):
    cfg = tmp_path / "render.cfg"
    cfg.write_text("res=32x32\nmotion_seed=6\n")
    out = tmp_path / "cfg.ppm"
    assert run(["--config", str(cfg), "render", "--template", str(workdir / "rig.tpl"),
                "--texture", str(workdir / "tex.gtx"), "--out", str(out)]) == 0
    from meshsplat import splat

    img = splat.read_ppm(out)
    assert img.shape == (32, 32, 3)


def test_help_lists_units(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["bake", "--help"])
    text = capsys.readouterr().out
    assert "(m)" in text      # amplitude units
    assert "(px)" in text     # resolution units


def test_quant_u16_sort_mode_flag(workdir):
    out = workdir / "q16.ppm"
    assert run(["render", "--template", str(workdir / "rig.tpl"),
                "--texture", str(workdir / "tex.gtx"), "--res", "48x48",
                "--sort-mode", "quant_u16", "--out", str(out)]) == 0
