"""meshsplat benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload animate --seed 1 --seconds 10 --trace 0

``--workload`` is ``animate``, ``bake`` or ``all`` (each
workload in a fresh child process, one after the other). With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, whose spans are also written to
``perfbench/out/``. The lines before it are a human-readable report.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("animate", "bake")
SETUP_REPS = 3
BLAS_THREADS = "1"  # fixed, so runs never differ in BLAS parallelism
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail(latencies: list) -> tuple[float, float, int]:
    """The latency at the highest percentile with at least ten samples
    beyond it, never below the median; returns (value, percentile, n)."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * (k + 1) / n, n


def git_revision() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout: do not search parent directories
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(wl, seed: int, seconds: float, tracer) -> dict:
    """Set up SETUP_REPS times, then run timed operations until ``seconds``
    of them have run and the last window is whole. A traced run first
    times a few operations untraced, as the baseline of its overhead."""
    import workloads

    setup_s = []
    for rep in range(SETUP_REPS):
        if tracer:
            tracer.op = f"setup{rep}"
        inp = warm = None  # let the previous set-up go before building the next
        gc.collect()       # ... also where it is held in reference cycles
        t0 = time.perf_counter()
        inp = wl.build(seed)
        warm = wl.warmup(inp)
        setup_s.append(time.perf_counter() - t0)

    gc.collect()  # set-up garbage is not collected inside a timed call
    ref_ms = []
    if tracer:
        tracer.uninstall()
        if wl.name == "animate":
            # one untraced pass over the motion, the same poses the traced run times
            ref_ms = [workloads.animate_frame(inp, k)[1] * 1e3 for k in range(workloads.ANIMATE_FRAMES)]
        else:
            ref_ms = workloads.training_op(inp, workloads.TRAIN_FRAMES).latencies_ms
        tracer.install()

    ops, timed = [], 0.0
    while timed < seconds or len(ops) % wl.window:
        if tracer:
            tracer.op = f"run{len(ops)}"
        ops.append(wl.op(inp, len(ops)))
        timed += ops[-1].seconds
    if tracer:
        tracer.uninstall()
    return {"setup_s": setup_s, "warm": warm, "ref_ms": ref_ms, "ops": ops,
            "latencies": [ms for op in ops for ms in op.latencies_ms]}


def check(wl, m: dict) -> tuple[dict, list]:
    """The run's checks and the training-quality record."""
    import workloads

    ops = m["ops"]
    failed = sum(op.failed for op in ops)
    report = [f"fail: {op.note}" for op in ops if op.note]
    checks = {"no_failed_ops": failed == 0}
    if wl.unit == "step" and failed == 0:
        runs = [workloads.losses_only(op.history) for op in ops]
        warm = workloads.losses_only(m["warm"].history)[0]
        checks["deterministic"] = all(r == runs[0] for r in runs) and runs[0][0] == warm
        hist = ops[-1].history
        T = workloads.TRAIN_FRAMES
        first = statistics.fmean(rec["total"] for rec in hist[:T])
        last = statistics.fmean(rec["total"] for rec in hist[-T:])
        # recorded, not gated: at this horizon the photometric terms drift up
        # (the ROADMAP's training drift), so whether the total falls depends
        # on the seed (seed 38: 0.3327 -> 0.3347)
        report.append(f"check loss_decreased={last < first} gated=False "
                      f"first_pass_mean_total={first:.6g} last_pass_mean_total={last:.6g}")
        for label, rec in (("first", hist[0]), ("last", hist[-1])):
            terms = " ".join(f"{key}={rec[key]:.6g}" for key in workloads.LOSS_KEYS + ("total",))
            report.append(f"quality {label} iter={rec['iter']} {terms}")
    report.append("checks " + " ".join(f"{k}={v}" for k, v in checks.items()))
    return checks, report


def window_rates(wl, ops: list) -> list:
    """Operations per second of each window of ``wl.window`` timed calls."""
    rates = []
    for k in range(0, len(ops), wl.window):
        win = ops[k:k + wl.window]
        rates.append(sum(len(op.latencies_ms) for op in win) / sum(op.seconds for op in win))
    return rates


def end_to_end(wl, m: dict) -> tuple[dict, list]:
    lat, ops = m["latencies"], m["ops"]
    p50 = statistics.median(lat)
    tail_ms, tail_pct, n = tail(lat)
    rates = window_rates(wl, ops)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(m["setup_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    rate = "fps" if wl.unit == "frame" else "steps_per_s"
    report = [
        f"metric {rate}={metrics['ops_per_s'][0]:.6g} 1/s (median of {len(rates)} windows of "
        f"{wl.window} calls)",
        f"metric {wl.unit}_ms_p50={p50:.6g} ms (n={n})",
        f"metric {wl.unit}_ms_tail={tail_ms:.6g} ms (p{tail_pct:.0f}, n={n})",
        f"metric setup_s={metrics['setup_s'][0]:.6g} s (median of "
        + ", ".join(f"{s:.4g}" for s in m["setup_s"]) + ")",
        f"metric peak_rss_mb={metrics['peak_rss_mb'][0]:.6g} MB",
        f"metric fail_frac={failed / attempted:.6g} ({failed}/{attempted})",
    ]
    if wl.unit == "step" and failed == 0:
        report.append(f"metric final_loss={ops[-1].history[-1]['total']:.6g} (total loss, last step)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, report


def per_layer(wl, seed: int, m: dict, tracer) -> tuple[dict, list]:
    import oracle

    n_ops = len(m["latencies"])
    metrics = tracer.layer_metrics(n_ops, SETUP_REPS)
    for key, value in oracle.captured_counters(tracer.captures).items():
        metrics[key] = {"value": value, "unit": "frac" if key.endswith("_frac") else "count"}
    traced, untraced = statistics.median(m["latencies"]), statistics.median(m["ref_ms"])
    metrics["trace.overhead_pct"] = {"value": (traced / untraced - 1.0) * 100.0, "unit": "%"}
    report = [f"trace overhead {metrics['trace.overhead_pct']['value']:+.2f}% (traced {wl.unit} "
              f"p50 {traced:.4g} ms over {n_ops}, untraced {untraced:.4g} ms over {len(m['ref_ms'])})"]
    for span, phases in tracer.span_table().items():
        row = " ".join(f"{ph}_calls={r['calls']} {ph}_self_ms={r['self_s'] * 1e3:.4g}"
                       for ph, r in sorted(phases.items()))
        report.append(f"span {span} {row or 'calls=0'}")
    report += [f"span-missing {target} calls=0" for target in tracer.missing]
    report += [f"layer {k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(path, {"workload": wl.name, "seed": seed, "run_ops": n_ops,
                        "setup_reps": SETUP_REPS, "metrics": metrics})
    report.append(f"trace written to {path.relative_to(ROOT)}")
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[list, dict]:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    m = measure(wl, seed, seconds, tracer)
    checks, report = check(wl, m)
    report.insert(0, f"workload={name} seed={seed} unit={wl.unit} ops={len(m['latencies'])} "
                     f"calls={len(m['ops'])}")
    metrics, lines = per_layer(wl, seed, m, tracer) if traced else end_to_end(wl, m)
    result = {"correct": all(checks.values()),
              "attempted": sum(op.attempted for op in m["ops"]),
              "failed": sum(op.failed for op in m["ops"]),
              "metrics": metrics}
    return report + lines, result


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and caches never mix."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1, help="derives every input")
    p.add_argument("--seconds", type=float, default=10.0, help="timed operations run at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = p.parse_args(argv)

    if not (SRC / "meshsplat" / "__init__.py").is_file():
        print(f"error: no meshsplat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import meshsplat
    import numpy

    if Path(meshsplat.__file__).resolve().parent != SRC / "meshsplat":
        print(f"error: imported meshsplat from {meshsplat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"env git={git_revision()} nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads={BLAS_THREADS} seconds={args.seconds}", flush=True)
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
