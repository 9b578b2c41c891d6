"""Outside-in tracing: spans around the public functions of each package module.

The tracer replaces module attributes with timing wrappers while a traced job
runs and puts the originals back afterwards, so no file under ``src/`` changes.
Calls between functions of the package go through module attributes, so a
wrapped function called from another module (or from its own module through
a global name) is recorded with the enclosing span as its parent.

Each span records name, start, end, parent span, job id, self time (duration
minus the time its child spans cover) and the number of points its first
argument holds.  Spans stay in memory in flat arrays and are written out once,
at the end of the run.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(args):
    return int(np.size(args[0]))


def _one(args):
    return 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {k: array("d") for k in ("start", "end", "self")}
        self.cols.update({k: array("q") for k in ("name", "parent", "job", "points")})
        self.counts = defaultdict(lambda: defaultdict(float))  # job -> counter -> value
        self.job = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches = []

    def count(self, key, value):
        self.counts[self.job][key] += value

    def wrap(self, owner, attr, name, points=None, on_result=None):
        fn = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(name)
        c = self.cols
        stack, child = self._stack, self._child

        def traced(*args, **kwargs):
            idx = len(c["name"])
            c["name"].append(name_id)
            c["parent"].append(stack[-1] if stack else -1)
            c["job"].append(self.job)
            c["points"].append(points(args) if points else 0)
            c["start"].append(0.0)
            c["end"].append(0.0)
            c["self"].append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += t1 - t0
                c["start"][idx], c["end"][idx], c["self"][idx] = t0, t1, t1 - t0 - inner
            if on_result is not None:
                on_result(self, args, result)
            return result

        self._patches.append((owner, attr, fn, traced))

    def install(self, job):
        self.job = job
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def arrays(self):
        return {k: np.frombuffer(v, dtype="f8" if v.typecode == "d" else "i8")
                for k, v in self.cols.items()}

    def dump(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def for_package(coast_stroke):
    """A tracer with every public entry point of the package wrapped."""
    from flatdisk import cli, closedform, geo_render, projection, stress, variational

    t = Tracer()
    for name in ("eval_f", "eval_f_prime", "eval_f_second", "eval_f_mathematica_form"):
        t.wrap(closedform, name, f"closedform.{name}", points=_size)
    t.wrap(projection, "forward", "projection.forward", points=_one)
    t.wrap(projection, "forward_arrays", "projection.forward_arrays", points=_size)
    t.wrap(projection, "inverse_radius", "projection.inverse_radius", points=_size)

    def loaded(tr, args, lines):
        tr.count("geo_render.features_in", len(lines))
        tr.count("geo_render.vertices_in", sum(len(line.points) for line in lines))

    def split(tr, args, pieces):
        tr.count("geo_render.pieces", len(pieces))
        tr.count("geo_render.piece_vertices", sum(len(p.points) for p, _ in pieces))

    def rendered(tr, args, doc):
        tr.count("geo_render.vertices_out",
                 sum(len(pts) for pts, style, _ in doc.polylines if coast_stroke in style))

    def solved(tr, args, profile):
        tr.count("variational.nodes", len(profile.thetas))

    t.wrap(geo_render, "load_geojson", "geo_render.load_geojson", on_result=loaded)
    t.wrap(geo_render, "split_at_equator", "geo_render.split_at_equator", on_result=split)
    t.wrap(geo_render, "render_map", "geo_render.render_map", on_result=rendered)
    t.wrap(geo_render.MapDocument, "to_svg", "geo_render.to_svg",
           on_result=lambda tr, args, svg: tr.count("geo_render.svg_bytes", len(svg)))
    t.wrap(variational, "solve_discrete", "variational.solve_discrete", on_result=solved)
    t.wrap(variational, "save_profile", "variational.save_profile")
    t.wrap(variational, "load_profile", "variational.load_profile")
    t.wrap(stress, "total_stress", "stress.total_stress")
    t.wrap(stress, "profile_radial", "stress.profile_radial")
    t.wrap(cli, "main", "cli.main")
    return t


def per_job(tracer):
    """Per-job totals from the spans and counters: job -> {key: value}.

    Keys are ``<span name>.{calls,total_s,self_s,points}``, ``<layer>.self_s``,
    the counters, and a few totals filtered by the parent span.
    """
    a = tracer.arrays()
    names = np.array(tracer.names)
    layers = np.array([n.split(".")[0] for n in tracer.names])
    jobs = np.array(sorted(set(a["job"].tolist()) | set(tracer.counts)), dtype=np.int64)
    nj, nn = len(jobs), len(names)
    key = np.searchsorted(jobs, a["job"]) * nn + a["name"]
    parent = a["name"][np.maximum(a["parent"], 0)]
    has_parent = a["parent"] >= 0
    span_layer, parent_layer = layers[a["name"]], np.where(has_parent, layers[parent], "")
    parent_name = np.where(has_parent, names[parent], "")

    def table(mask=None, weights=None):
        k = key if mask is None else key[mask]
        w = None if weights is None else (weights if mask is None else weights[mask])
        return np.bincount(k, weights=w, minlength=nj * nn).reshape(nj, nn)

    calls, points = table(), table(weights=a["points"].astype(float))
    total, self_s = table(weights=a["end"] - a["start"]), table(weights=a["self"])
    entry = (span_layer == "projection") & (parent_layer != "projection")
    entry_calls, entry_points = table(entry), table(entry, a["points"].astype(float))
    under_inverse = table(parent_name == "projection.inverse_radius", a["points"].astype(float))
    under_render = table(parent_name == "geo_render.render_map")
    out = {}
    for j, job in enumerate(jobs.tolist()):
        row = {}
        for i, name in enumerate(names.tolist()):
            row.update({f"{name}.calls": calls[j, i], f"{name}.total_s": total[j, i],
                        f"{name}.self_s": self_s[j, i], f"{name}.points": points[j, i]})
        for layer in ("cli", "projection", "closedform", "geo_render", "variational", "stress"):
            row[f"{layer}.self_s"] = float(self_s[j, layers == layer].sum())
        cf = layers == "closedform"
        row["projection.calls"] = float(entry_calls[j].sum())
        row["projection.points"] = float(entry_points[j].sum())
        row["closedform.calls"] = float(calls[j, cf].sum())
        row["closedform.points"] = float(points[j, cf].sum())
        row["closedform.points_in_inverse"] = float(under_inverse[j, cf].sum())
        row["geo_render.forward_calls"] = float(
            under_render[j, names == "projection.forward_arrays"].sum())
        row.update(tracer.counts.get(job, {}))
        out[job] = {k: float(v) for k, v in row.items()}
    return out
