"""Spans recorded from outside the program, around the calls training makes.

`transolve.training` imports the public functions of the other package
modules into its own namespace.  `Tracer.install` replaces those names with
wrappers that record a span (name, start, end, parent) and hand back the
result unchanged; `Tracer.uninstall` puts the originals back.  The
benchmark opens one root span per traced operation (an epoch or a query)
with `Tracer.root`, so every layer span has a parent and a layer's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from transolve import training

# training-namespace name -> per-layer metric its time is charged to
LAYER_OF = {
    "sample_parameters": "sampling.busy_s",
    "sample_collocation": "sampling.busy_s",
    "midpoint_grid": "sampling.busy_s",
    "angular_trace": "geometry.busy_s",
    "assemble_eigensystem": "eigen.busy_s",
    "solve_eigenpairs": "eigen.busy_s",
    "select_singular": "eigen.busy_s",
    "forward_jets": "nets.forward_s",
    "backward_jets": "nets.backward_s",
    "adam_step": "nets.adam_s",
    "composition_factors": "cutoffs.busy_s",
    "interface_trace_factors": "cutoffs.busy_s",
    "build_epoch_cache": "assembly.cache_s",
    "singular_evals_from_cache": "assembly.singular_s",
    "solve_parameter_batch": "assembly.solve_s",
    "assemble_system": "assembly.solve_s",
    "solve_normal_equations": "assembly.solve_s",
    "evaluate_solution": "assembly.eval_s",
    "eval_s": "singular.busy_s",
}
ROOT_LAYER = "training.self_s"
LAYER_METRICS = sorted(set(LAYER_OF.values())) + [ROOT_LAYER]


def _forward_points(args, kwargs, result):
    points = kwargs.get("points", args[1] if len(args) > 1 else None)
    return {"points": int(len(points))}


def _selected_residual(args, kwargs, result):
    # the pairs training uses; the constant mode's residual is relative to
    # |G rho| ~ 0 and reads 0.06-0.44 whatever the solver's accuracy
    return {"max_residual": max((pair.residual for pair in result), default=0.0)}


# names whose calls carry a count or a health signal besides their time
NOTES = {"forward_jets": _forward_points, "select_singular": _selected_residual}


class Tracer:
    """In-memory span list; spans are [id, parent, name, start, end, notes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict = {}

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        """Root span of one traced operation: "epoch" or "query".

        Yields the span; the caller may store {"speed": factor} in its notes
        slot to have `per_root` rescale the operation's times by it.
        """
        span = self._open(kind)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for name in LAYER_OF:
            fn = getattr(training, name)
            self._originals[name] = fn
            setattr(training, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(training, name, fn)
        self._originals.clear()

    def per_root(self, kind: str) -> list[dict]:
        """Per root span of the given kind: duration and layer self times,
        rescaled by the root's speed factor, and the layer spans' notes."""
        children: dict[int, list[list]] = {}
        for span in self.spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append(span)
        out = []
        for root in self.spans:
            if root[1] is not None or root[2] != kind:
                continue
            row = {m: 0.0 for m in LAYER_METRICS}
            row["duration"] = root[4] - root[3]
            row["notes"] = []
            row[ROOT_LAYER] = row["duration"] - _self_times(root, children, row)
            speed = (root[5] or {}).get("speed", 1.0)
            for m in LAYER_METRICS + ["duration"]:
                row[m] *= speed
            out.append(row)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, notes in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if notes:
                    rec.update(notes)
                fh.write(json.dumps(rec) + "\n")


def _self_times(span, children, row) -> float:
    """Charge the self time of every descendant to its layer; return the
    time the direct children of ``span`` cover."""
    covered = 0.0
    for child in children.get(span[0], []):
        duration = child[4] - child[3]
        covered += duration
        self_time = duration - _self_times(child, children, row)
        row[LAYER_OF.get(child[2], ROOT_LAYER)] += self_time
        row["notes"].append((child[2], child[5]))
    return covered
