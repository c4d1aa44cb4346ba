"""Benchmark of `kgfeat run` on three workloads.

    python3 perfbench/run.py --workload diabetes-rf --seed 1 --seconds 20 --trace 0

Run from the root of a kgfeat source tree; the program is imported from its
`src/`. The workload inputs are generated from --seed into a temporary
directory under the tree and removed at the end. Each repetition is one
`kgfeat run` in a fresh Python process, repeated while the next one is
expected to end within --seconds (at least three untraced repetitions, or two
untraced/traced pairs with --trace 1). Every repetition's outputs are checked. The last stdout line is
one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced repetitions with --trace 1. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import spans as sp
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3          # untraced repetitions with --trace 0
MIN_PAIRS = 2         # untraced + traced pairs with --trace 1
DEADLINE_S = 150      # start no repetition expected to end past this
CHILD_TIMEOUT_S = 120
RECONCILE_TOLERANCE = 0.05


class Rep:
    """One `kgfeat run`: its child report, parsed outputs and failures."""

    def __init__(self, traced):
        self.traced = traced
        self.failures = []
        self.report = {}
        self.result_bytes = None
        self.result = None
        self.log_text = ""
        self.features_bytes = 0
        self.wall_s = 0.0
        self.layers = {}              # layer -> self time, traced runs only


def child_env(root, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def check_outputs(rep, root, out_dir, n_rows, target, reference):
    """Append to rep.failures every way this repetition's outputs are wrong."""
    src = os.path.join(root, "src") + os.sep
    if not rep.report.get("kgfeat_file", "").startswith(src):
        rep.failures.append(f"kgfeat imported from {rep.report.get('kgfeat_file')}")
    with open(os.path.join(out_dir, "result.json"), "rb") as fh:
        rep.result_bytes = fh.read()
    rep.result = doc = json.loads(rep.result_bytes)
    for key in ("best_score", "baseline_score"):
        if not math.isfinite(doc[key]):
            rep.failures.append(f"{key} is {doc[key]}")
    if doc["best_score"] < doc["baseline_score"]:
        rep.failures.append("best_score below baseline_score")
    bad = [f["display_name"] for f in doc["best_features"]
           if f["verdict"] == "non_interpretable"]
    if bad:
        rep.failures.append(f"non-interpretable features kept: {bad}")
    features = os.path.join(out_dir, "features.csv")
    with open(features, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = sum(1 for _ in reader)
    want = [f["display_name"] for f in doc["best_features"]] + [target]
    if header != want:
        rep.failures.append(f"features.csv header {header} != {want}")
    if rows != n_rows:
        rep.failures.append(f"features.csv has {rows} rows, dataset {n_rows}")
    if reference is not None and rep.result_bytes != reference:
        rep.failures.append("result.json differs from the first repetition")
    rep.features_bytes = os.path.getsize(features)
    with open(os.path.join(out_dir, "log.txt")) as fh:
        rep.log_text = fh.read()


def run_once(root, tmp, env, manifest, n_rows, target, traced, reference):
    rep = Rep(traced)
    out_dir = os.path.join(tmp, "out")
    report_path = os.path.join(tmp, "report.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), report_path,
           "1" if traced else "0", manifest, out_dir]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rep.failures.append(f"no exit within {CHILD_TIMEOUT_S} s")
        return rep
    finally:
        rep.wall_s = time.monotonic() - t0
    if proc.returncode != 0:
        rep.failures.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return rep
    try:
        with open(report_path) as fh:
            rep.report = json.load(fh)
        check_outputs(rep, root, out_dir, n_rows, target, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rep.failures.append(f"unreadable outputs: {exc!r}")
    return rep


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def traced_metrics(traced, untraced_run_s):
    """Per-layer metrics, medians over the traced repetitions.

    Marks a repetition failed when its layer self times do not sum to its
    run_s within RECONCILE_TOLERANCE, or when a count differs from the first
    traced repetition's.
    """
    per_rep = []
    for rep in traced:
        spans = rep.report["spans"]
        layers = sp.layer_self_times(spans, rep.report["run_start"], rep.report["run_end"])
        run_s = rep.report["run_s"]
        gap = abs(sum(layers.values()) - run_s)
        if gap > RECONCILE_TOLERANCE * run_s:
            rep.failures.append(f"layer self times miss run_s by {gap:.4f} s")
        rep.layers = layers
        m = sp.layer_metrics(spans, rep.result, rep.log_text, rep.features_bytes)
        if per_rep:
            diff = sorted(k for k in m if sp.unit_of(k) != "s" and m[k] != per_rep[0][k])
            if diff:
                rep.failures.append(f"counts differ between traced runs: {diff}")
        per_rep.append(m)
    ok = [(rep, m) for rep, m in zip(traced, per_rep) if not rep.failures]
    if not ok:
        return None
    metrics = {k: statistics.median(m[k] for _, m in ok) for k in ok[0][1]}
    run_s = statistics.median(rep.report["run_s"] for rep, _ in ok)
    metrics["trace.run_s"] = run_s
    metrics["trace.overhead_s"] = run_s - untraced_run_s
    print("layer self time in run_s (first traced repetition):")
    first = ok[0][0]
    for layer, t in sorted(first.layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {t:10.4f} s  {100 * t / first.report['run_s']:6.2f}%")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    resources = os.path.join(root, "src", "kgfeat", "resources")
    if not os.path.isfile(os.path.join(root, "src", "kgfeat", "cli.py")):
        print(f"error: no kgfeat source tree under {root}", file=sys.stderr)
        return 1
    threads = len(os.sched_getaffinity(0))
    env = child_env(root, threads)
    tmp_parent = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_parent)
    try:
        manifest, n_rows, target = wl.make_inputs(
            args.workload, args.seed, resources, os.path.join(tmp, "inputs"))
        reps = []
        reference = None
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            last = reps[-1].wall_s if reps else 0.0
            n_plain = sum(not r.traced for r in reps)
            minimum = 2 * MIN_PAIRS if args.trace else MIN_REPS
            if elapsed + last > DEADLINE_S:
                break
            if len(reps) >= minimum and elapsed + last / 2 > args.seconds:
                break
            traced = bool(args.trace) and n_plain > len(reps) - n_plain
            rep = run_once(root, tmp, env, manifest, n_rows, target, traced, reference)
            if reference is None:
                reference = rep.result_bytes
            reps.append(rep)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass

    plain = [r for r in reps if not r.traced and not r.failures]
    metrics = {}
    if plain:
        run_s = [r.report["run_s"] for r in plain]
        values = {
            "run_s": (run_s, "s"),
            "setup_s": ([r.report["setup_s"] for r in plain], "s"),
            "peak_rss_mb": ([r.report["peak_rss_mb"] for r in plain], "MB"),
            "best_score": ([r.result["best_score"] for r in plain], "score"),
        }
        for name, (vals, unit) in values.items():
            q1, q3 = quartiles(vals)
            med = statistics.median(vals)
            print(f"{name:<12} {med:12.6f} {unit:<5} median of {len(vals)}, "
                  f"quartiles {q1:.6f} .. {q3:.6f}")
            metrics[name] = {"value": med, "unit": unit}
        if args.trace:
            traced = [r for r in reps if r.traced and not r.failures]
            layer = traced_metrics(traced, statistics.median(run_s)) if traced else None
            metrics = {k: {"value": v, "unit": sp.unit_of(k)}
                       for k, v in sorted((layer or {}).items())}
            for k, v in metrics.items():
                print(f"  {k:<34} {v['value']:14.6f} {v['unit']}")
    failed = sum(bool(r.failures) for r in reps)
    for i, rep in enumerate(reps):
        for reason in rep.failures:
            print(f"repetition {i} failed: {reason}")
    print(f"error_rate   {failed / max(1, len(reps)):12.6f} ratio {failed} of {len(reps)} "
          f"repetitions failed")
    print(f"environment: nproc={threads} python={platform.python_version()} "
          f"numpy={np.__version__} blas_threads={threads} workload={args.workload} "
          f"seed={args.seed}")
    if not metrics:
        print("error: no repetition succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
