"""flatdisk benchmark.

    python3 bench/run.py --workload {project,render,verify,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  It writes the workload's
inputs from the seed under ``.bench_work/``, times the cold start in fresh
interpreters one at a time, then starts one worker process that runs jobs in
a closed loop for ``--seconds`` and checks every output.  It prints every
metric with its unit and sample count, and as its last line one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See bench/README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
WORKLOADS = ("project", "render", "verify")
SETUP_RUNS = 7
RUN_LIMIT_S = 170  # a whole run, hung children included, ends within this
TAIL_BEYOND = 10  # job_tail_s: highest percentile with at least this many jobs beyond it
# End-to-end metrics in the result line; the others are printed only.  On a
# VM whose vCPUs share cores with other tenants, contention slows the same
# code by up to ~60% for minutes at a time, so raw job times spread 15-40%
# from run to run.  job_p50_ref divides each job's time by a fixed reference
# workload timed around it, which cancels that (spread 1.7-4.5%).
GATED = ("setup_s", "job_p50_ref", "peak_rss_mb")


class BenchError(Exception):
    pass


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child(args, root, deadline):
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], cwd=root, env=_env(root),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(args[0]).name} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _check_module(path, root):
    if not Path(path).resolve().is_relative_to(root / "src"):
        raise BenchError(f"flatdisk was imported from {path}, not from this checkout")


def cold_start(workload, work, root, deadline):
    """setup_s and setup.import_s from SETUP_RUNS fresh interpreters, one at a time."""
    runs = []
    for _ in range(SETUP_RUNS):
        out = _child([HERE / "probe.py", workload, work], root, deadline)
        probe = json.loads(out.splitlines()[-1])
        _check_module(probe["module"], root)
        if any(probe["codes"]):
            raise BenchError(f"cold-start command exited {probe['codes']}")
        runs.append(probe)
    return runs


def context(root, manifest, worker):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            **worker["versions"], "seed": manifest["seed"], "sizes": manifest["sizes"],
            "input_shares": manifest["properties"]}


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(setup, jobs, peak_rss_mb, unit):
    """Metrics a user sees, each as (value, unit, note on its samples)."""
    timed = [j for j in jobs if not j["traced"]]
    n = len(timed)
    if n == 0:
        raise BenchError("no timed job completed")
    seconds = sorted(j["seconds"] for j in timed)
    beyond = min(TAIL_BEYOND, n - 1)
    units = sum(j["units"] for j in timed)
    return {
        "setup_s": (_median([p["setup_s"] for p in setup]), "s",
                    f"median of {len(setup)} fresh interpreters"),
        "job_p50_ref": (statistics.median(j["seconds"] / j["ref_s"] for j in timed), "ref",
                        f"median of {n} jobs of job time / reference-work time"),
        "peak_rss_mb": (peak_rss_mb, "MB", "worker high-water RSS"),
        "job_p50_s": (statistics.median(seconds), "s", f"median of {n} jobs"),
        "job_tail_s": (seconds[n - 1 - beyond], "s",
                       f"p{100.0 * (n - beyond) / n:.1f}, {beyond} of {n} jobs beyond it"),
        "items_per_s": (units / sum(seconds), "1/s", f"{unit} per second of job time, {n} jobs"),
        "ref_p50_s": (statistics.median(j["ref_s"] for j in timed), "s",
                      f"median reference-work time around {n} jobs"),
    }


def per_layer(setup, jobs, per_job):
    """Per-layer metrics from the traced jobs, each as (value, unit, note)."""
    rows = list(per_job.values())
    n = len(rows)

    def med(key):
        return _median([r.get(key, 0.0) for r in rows])

    def total(key):
        return sum(r.get(key, 0.0) for r in rows)

    def worst(key):
        return max((r.get(key, 0.0) for r in rows), default=0.0)

    traced = [j["seconds"] for j in jobs if j["traced"]]
    untraced = [j["seconds"] for j in jobs if not j["traced"]]
    note = f"median of {n} traced jobs"
    s, c, x = "s", "count", "ratio"
    m = {
        "cli.self_s": (med("cli.self_s"), s),
        "cli.lines_in": (med("cli.lines_in"), c),
        "cli.bytes_out": (med("cli.bytes_out"), "B"),
        "cli.forward_calls_per_line": (
            _ratio(total("projection.forward.calls"), total("cli.lines_in")), x),
        "projection.calls": (med("projection.calls"), c),
        "projection.points": (med("projection.points"), c),
        "projection.self_s": (med("projection.self_s"), s),
        "projection.inverse_points": (med("projection.inverse_radius.points"), c),
        "projection.inverse_f_points_per_point": (
            _ratio(total("closedform.points_in_inverse"),
                   total("projection.inverse_radius.points")), x),
        "projection.roundtrip_max_err_rad": (worst("projection.roundtrip_max_err_rad"), "rad"),
        "closedform.calls": (med("closedform.calls"), c),
        "closedform.points": (med("closedform.points"), c),
        "closedform.points_per_call": (
            _ratio(total("closedform.points"), total("closedform.calls")), x),
        "closedform.self_s": (med("closedform.self_s"), s),
        "closedform.ns_per_point": (
            1e9 * _ratio(total("closedform.self_s"), total("closedform.points")), "ns"),
        "geo_render.load_s": (med("geo_render.load_geojson.total_s"), s),
        "geo_render.split_s": (med("geo_render.split_at_equator.total_s"), s),
        "geo_render.render_self_s": (med("geo_render.render_map.self_s"), s),
        "geo_render.to_svg_s": (med("geo_render.to_svg.total_s"), s),
        "geo_render.features_in": (med("geo_render.features_in"), c),
        "geo_render.vertices_in": (med("geo_render.vertices_in"), c),
        "geo_render.pieces": (med("geo_render.pieces"), c),
        "geo_render.vertices_out": (med("geo_render.vertices_out"), c),
        "geo_render.densify_ratio": (
            _ratio(total("geo_render.vertices_out"), total("geo_render.piece_vertices")), x),
        "geo_render.forward_calls_per_vertex_out": (
            _ratio(total("geo_render.forward_calls"), total("geo_render.vertices_out")), x),
        "geo_render.svg_bytes": (med("geo_render.svg_bytes"), "B"),
        "variational.solve_s": (med("variational.solve_discrete.total_s"), s),
        "variational.save_s": (med("variational.save_profile.total_s"), s),
        "variational.load_s": (med("variational.load_profile.total_s"), s),
        "variational.nodes": (med("variational.nodes"), c),
        "variational.max_dev": (worst("variational.max_dev"), "1"),
        "variational.endpoint_slope_err": (worst("variational.endpoint_slope_err"), "1"),
        "stress.total_stress_s": (med("stress.total_stress.total_s"), s),
        "stress.total_stress_calls": (med("stress.total_stress.calls"), c),
        "stress.spline_s": (med("stress.profile_radial.total_s"), s),
        "setup.import_s": (_median([p["import_s"] for p in setup]), s),
        "trace.overhead_s": (_median(traced) - _median(untraced), s),
    }
    notes = {"setup.import_s": f"median of {len(setup)} fresh interpreters",
             "trace.overhead_s": f"p50 of {len(traced)} traced - p50 of {len(untraced)} untraced jobs"}
    notes.update({k: f"max over {n} traced jobs" for k in (
        "projection.roundtrip_max_err_rad", "variational.max_dev", "variational.endpoint_slope_err")})
    notes.update({k: f"ratio of totals over {n} traced jobs" for k, (_, u) in m.items()
                  if u in (x, "ns")})
    return {k: (v, u, notes.get(k, note)) for k, (v, u) in m.items()}


def run_workload(workload, seed, seconds, trace, root):
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".bench_work" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = inputs.generate(workload, seed, work)
    inputs.write_minimal(workload, work)
    (work / "manifest.json").write_text(json.dumps(manifest))

    setup = cold_start(workload, work, root, deadline)
    _child([HERE / "worker.py", work, seconds, int(trace)], root, deadline)
    worker = json.loads((work / "result.json").read_text())
    _check_module(worker["module"], root)

    attempted = [worker["warmup"], *worker["jobs"]]
    failures = [j["error"] for j in attempted if j["error"]]
    if trace:
        metrics = per_layer(setup, worker["jobs"], worker["per_job"])
        reported = metrics
    else:
        metrics = end_to_end(setup, worker["jobs"], worker["peak_rss_mb"], manifest["unit"])
        reported = {k: metrics[k] for k in GATED}
    ctx = context(root, manifest, worker)
    summary = {"workload": workload, "trace": int(trace), "context": ctx,
               "failed_ratio": len(failures) / len(attempted),
               "metrics": {k: {"value": v, "unit": u, "samples": n}
                           for k, (v, u, n) in metrics.items()},
               "failures": failures[:10]}
    (work / "summary.json").write_text(json.dumps(summary, indent=1))

    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    print("context " + json.dumps(ctx))
    for name, (value, unit, note) in metrics.items():
        flag = "" if name in reported else "  (printed only)"
        print(f"  {name:42s} {value:>14.6g} {unit:6s} {note}{flag}")
    print(f"  {'failed_ratio':42s} {summary['failed_ratio']:>14.6g} {'1':6s} "
          f"{len(failures)} of {len(attempted)} jobs (warm-up included)")
    for message in failures[:5]:
        print(f"  failure: {message}")
    return {"correct": not failures, "attempted": len(attempted), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "flatdisk" / "cli.py").is_file():
        print(f"error: {root} holds no src/flatdisk; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, root) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
