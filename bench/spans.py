"""In-memory spans around calls into pointline's public functions.

``Tracer.installed()`` replaces each traced function on the module or class
attribute that callers look up (for example ``pointline.ba.lm_step``, which
``optimize`` calls through the module namespace) with a wrapper that records
a span (name, start, end, parent) and optional counters, and restores the
originals on exit. Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent row or -1]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block."""
        saved = []
        for owner, attr, name, on_result in _targets():
            original = getattr(owner, attr, None)
            if original is None:  # a layer the library no longer has reads 0
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, on_result))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds (busy minus the
        time covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for row, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[row]
        return out

    def rows(self) -> dict:
        """Spans as JSON-ready rows (perf_counter seconds) plus the counters."""
        spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        return {"spans": spans, "counters": dict(self.counters)}


# -- counters taken from arguments and results --------------------------------


def _count_linearize(counters, args, result):
    n = args[0].n_params
    counters["ba.dense_h.mb"] = max(counters["ba.dense_h.mb"], n * n * 8 / 1e6)


def _count_assemble(counters, args, problem):
    counters["ba.terms"] += sum(len(table) for table in problem.tables)
    counters["ba.params"] += problem.n_params


def _count_optimize(counters, args, result):
    report = result[1]
    accepted = sum(1 for row in report.rows if row.accepted)
    counters["ba.lm.iterations"] += len(report.rows)
    counters["ba.lm.accepted"] += accepted
    counters["ba.lm.rejected"] += len(report.rows) - accepted
    counters["ba.final_cost"] += report.final_cost


def _count_backproject(counters, args, cloud):
    counters["voma.backproject.points"] += len(cloud)


def _count_integrate(counters, args, result):
    counters["voma.integrate.points"] += len(args[1])
    counters["voma.integrate.new_cells"] += result["new_cells"]
    counters["voma.integrate.updated_cells"] += result["updated_cells"]


def _count_extract(counters, args, cloud):
    counters["voma.map.cells"] = len(cloud)


def _count_export(counters, args, text):
    counters["voma.export.bytes"] += len(text)


def _targets():
    """(owner, attribute, span name, counter hook) for every traced call site."""
    from pointline import ba, voma
    from pointline.harness import experiments, metrics, scene

    return [
        (scene, "generate_scene", "scene.generate", None),
        (experiments, "render_room_depth", "render.depth", None),
        (ba, "assemble_problem", "ba.assemble", _count_assemble),
        # assembly looks both covariance functions up in the ba namespace
        (ba, "distance_2d_variance", "lines.covariance", None),
        (ba, "backprojection_distance_covariance", "lines.covariance", None),
        (ba.Problem, "linearize", "ba.linearize", _count_linearize),
        (ba, "lm_step", "ba.lm_step", None),
        (ba, "optimize", "ba.optimize", _count_optimize),
        (ba.Problem, "evaluate", "ba.evaluate", None),
        (ba.Problem, "retract", "ba.retract", None),
        (metrics, "evaluate_solution", "metrics.evaluate", None),
        (voma, "backproject_depth_image", "voma.backproject", _count_backproject),
        (voma, "estimate_normals", "voma.normals", None),
        (voma, "integrate_cloud", "voma.integrate", _count_integrate),
        (voma.OctreeMap, "cells", "voma.cells", None),
        (voma, "maps_equal", "voma.compare", None),
        (voma, "extract_global_cloud", "voma.extract", _count_extract),
        (voma, "export_ply", "voma.export", _count_export),
        (voma, "export_csv", "voma.export", _count_export),
        (voma, "rebuild_on_adjustment", "voma.rebuild", None),
    ]
