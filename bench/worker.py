"""One worker process per workload: a single client running jobs in a closed loop.

Each job calls ``flatdisk.cli.main(argv)`` in-process with stdin and stdout
redirected (the ``verify`` job also calls the projection library directly).
The next job starts only when the previous one has ended and its output has
been checked; checks run off the clock.  With tracing on, even and odd jobs
alternate between untraced and traced, so the tracing overhead is measured
within one run.

Usage: python3 bench/worker.py <work-dir> <seconds> <trace 0|1>   (PYTHONPATH=src)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import commands
import inputs
import tracing
from flatdisk import cli, projection

STRESS_MINIMAL = projection.ProjectionMode.STRESS_MINIMAL


class JobFailed(Exception):
    pass


def call_cli(argv, stdin_text=None):
    """Run the CLI in-process; returns its stdout, raises JobFailed on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise JobFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


class ProjectJob:
    def __init__(self, work, manifest):
        self.texts = [(work / i["path"]).read_text() for i in manifest["inputs"]]
        self.rows = [inputs.read_project_csv(t) for t in self.texts]

    def run(self, k):
        return call_cli(commands.project_argv(), self.texts[k])

    def io_counts(self, k, output):
        return len(self.rows[k][0]), len(output)

    def check(self, k, output):
        checks.check_project(*self.rows[k], output)
        return {}


class RenderJob:
    def __init__(self, work, manifest):
        self.paths = [work / i["path"] for i in manifest["inputs"]]
        self.rings = [list(inputs.feature_rings(json.loads(p.read_text()))) for p in self.paths]
        self.svg = work / "out.svg"
        self.digests = {}

    def run(self, k):
        return call_cli(commands.render_argv(self.paths[k], self.svg))

    def io_counts(self, k, output):
        return 0, len(output)

    def check(self, k, output):
        svg = self.svg.read_bytes()
        checks.check_render(self.rings[k], svg, commands.SIZE_PX)
        digest = hashlib.sha256(svg).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            raise checks.CheckError("rendering the same input twice gave different bytes")
        return {}


class VerifyJob:
    def __init__(self, work, manifest):
        self.n = manifest["sizes"]["n"]
        self.points = [np.load(work / i["path"]) for i in manifest["inputs"]]
        self.profile = work / "profile.txt"

    def run(self, k):
        outs = [call_cli(argv) for argv in commands.verify_argvs(self.n, self.profile)]
        lat, lon = self.points[k][:, 0], self.points[k][:, 1]
        r, phi, north = projection.forward_arrays(lat, lon, STRESS_MINIMAL)
        theta = projection.inverse_radius(r, STRESS_MINIMAL)
        return outs, (r, phi, north, theta)

    def io_counts(self, k, output):
        return 0, sum(len(s) for s in output[0])

    def check(self, k, output):
        (solve_out, profile_out, compare_out), rt = output
        checks.check_solve_output(solve_out, self.n)
        dev, slope_err = checks.check_profile(self.profile.read_text(), self.n)
        checks.check_stress_outputs(profile_out, compare_out)
        lat, lon = self.points[k][:, 0], self.points[k][:, 1]
        err = checks.check_roundtrip(lat, lon, *rt)
        return {"variational.max_dev": dev, "variational.endpoint_slope_err": slope_err,
                "projection.roundtrip_max_err_rad": err}


JOBS = {"project": ProjectJob, "render": RenderJob, "verify": VerifyJob}


def reference_work():
    """Fixed work that does not touch flatdisk; returns its wall time.

    It mixes what the jobs spend their time on (interpreted arithmetic,
    float formatting and parsing, small containers and tiny numpy calls), so
    contention from other tenants slows it by about the same factor as a job.
    """
    t0 = time.perf_counter()
    texts = [format(math.sin(0.001 * i) * 1e3, ".12g") for i in range(2000)]
    sum(float(t) for t in texts) + len({t: i for i, t in enumerate(texts)})
    arr = np.zeros(2)
    for _ in range(300):
        arr = np.sqrt(np.asarray(arr, dtype=float) + 1.0)
    return time.perf_counter() - t0


def run_one(job, k, units, tracer=None, index=0):
    """Run and check one job; returns its record.

    ``ref_s`` is the mean time of reference_work() just before and just after
    the job, so ``seconds / ref_s`` cancels the machine's speed at that moment.
    """
    before = reference_work()
    if tracer is not None:
        tracer.install(index)
    t0 = time.perf_counter()
    try:
        output = job.run(k)
        error = None
    except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    ref = 0.5 * (before + reference_work())
    stats = {}
    if error is None:
        try:
            stats = job.check(k, output)
        except checks.CheckError as exc:
            error = f"check: {exc}"
        if tracer is not None:
            lines_in, bytes_out = job.io_counts(k, output)
            tracer.count("cli.lines_in", lines_in)
            tracer.count("cli.bytes_out", bytes_out)
            for key, value in stats.items():
                tracer.count(key, value)
    return {"seconds": t1 - t0, "ref_s": ref, "units": units, "traced": tracer is not None,
            "error": error, "stats": stats}


def closed_loop(job, manifest, seconds, tracer):
    """Warm-up job, then jobs back to back until ``seconds`` have passed."""
    units = [i["units"] for i in manifest["inputs"]]
    warmup = run_one(job, 0, units[0])
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(units)
        traced = tracer if tracer is not None and i % 2 == 1 else None
        records.append(run_one(job, k, units[k], traced, index=i))
        i += 1
    return warmup, records


def main(work: Path, seconds: float, trace: bool):
    manifest = json.loads((work / "manifest.json").read_text())
    job = JOBS[manifest["workload"]](work, manifest)
    tracer = tracing.for_package(checks.COAST_STROKE) if trace else None
    warmup, records = closed_loop(job, manifest, seconds, tracer)
    result = {
        "warmup": warmup,
        "jobs": [{k: r[k] for k in ("seconds", "ref_s", "units", "traced", "error")} for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "module": cli.__file__,
    }
    if tracer is not None:
        result["per_job"] = {str(j): row for j, row in tracing.per_job(tracer).items()}
        tracer.dump(work / "spans.npz")
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1")
