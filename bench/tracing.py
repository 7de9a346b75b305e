"""Spans around the calls into each layer, recorded from outside the package.

`Tracer.install` replaces each traced public function by a wrapper at every
site where it is bound: the defining module, every `invoc` module that
imported it by name, and the package namespace.  `EllipticOperator.solve` is
wrapped on the class, which covers `solve_adjoint` and the power iteration.
Each call appends one span (layer, parent span, start, end, two counts) to
flat arrays kept in memory; `save` writes them out once the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("discretization", "lower", "value", "relax", "path", "stationarity", "oracle")

UNITS = {
    "discretization.solve_calls": "count",
    "discretization.solve_columns": "count",
    "discretization.solve_s": "s",
    "discretization.us_per_column": "us",
    "lower.calls": "count",
    "lower.iterations": "count",
    "lower.self_s": "s",
    "lower.total_s": "s",
    "value.calls": "count",
    "value.misses": "count",
    "value.hit_ratio": "ratio",
    "value.self_s": "s",
    "relax.calls": "count",
    "relax.inner_its": "count",
    "relax.outer_its": "count",
    "relax.value_calls_per_inner": "ratio",
    "relax.self_s": "s",
    "relax.total_s": "s",
    "path.levels": "count",
    "path.level_s_max": "s",
    "path.self_s": "s",
    "path.total_s": "s",
    "stationarity.classify_s": "s",
    "oracle.points": "count",
    "oracle.solve_calls": "count",
    "oracle.self_s": "s",
    "oracle.total_s": "s",
    "presets.build_s": "s",
    "trace.overhead_s": "s",
}


def _columns(args, kwargs, out):
    shape = out.shape  # the solution has the right-hand side's shape
    return (shape[1] if len(shape) == 2 else 1), 0


def _lower_counts(args, kwargs, out):
    return out.iterations, 0


def _relax_counts(args, kwargs, out):
    return out.inner_iterations, out.outer_iterations


def _relax_error_counts(err):
    # path.run_path catches this error and records a failed level
    best = getattr(err, "best", None)
    return (best.inner_iterations, best.outer_iterations) if best is not None else (0, 0)


def _path_counts(args, kwargs, out):
    return len(out.records), 0


def _oracle_counts(args, kwargs, out):
    return out.sample_count, 0


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.layer = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count1 = array("q")
        self.count2 = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counts=None, error_counts=None):
        code = LAYERS.index(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(code)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.count1.append(0)
            self.count2.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                if error_counts is not None:
                    self.count1[idx], self.count2[idx] = error_counts(err)
                raise
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counts is not None:
                self.count1[idx], self.count2[idx] = counts(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "invoc" or name.startswith("invoc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function at all of its binding sites."""
        from invoc import discretization, lower, oracle, path, relax, stationarity, value

        op = discretization.EllipticOperator
        self._restore.append((op, "solve", op.solve))
        op.solve = self._wrap("discretization", op.solve, _columns)
        for layer, fn, counts, error_counts in (
            ("lower", lower.solve_lower, _lower_counts, None),
            ("value", value.value_sample, None, None),
            ("relax", relax.solve_relaxed, _relax_counts, _relax_error_counts),
            ("path", path.run_path, _path_counts, None),
            ("stationarity", stationarity.classify, None, None),
            ("oracle", oracle.grid_search, _oracle_counts, None),
        ):
            self._patch_everywhere(fn, self._wrap(layer, fn, counts, error_counts))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count1": np.frombuffer(self.count1, dtype=np.int64),
            "count2": np.frombuffer(self.count2, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write the spans as an .npz of equal-length columns plus layer names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(LAYERS), **self.arrays())


def layer_metrics(spans: dict) -> dict:
    """Per-layer counts and times from the recorded spans.

    Self time is a span's duration minus the durations of its child spans.
    Counts by layer: solve columns, lower iterations, relax inner and outer
    iterations, path levels and oracle lattice points.
    """
    layer, parent = spans["layer"], spans["parent"]
    dur = spans["end"] - spans["start"]
    c1, c2 = spans["count1"], spans["count2"]
    n = layer.size
    has_parent = parent >= 0
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_s = dur - child_s
    parent_layer = np.full(n, -1)
    parent_layer[has_parent] = layer[parent[has_parent]]
    code = {name: LAYERS.index(name) for name in LAYERS}

    def sel(name):
        return layer == code[name]

    def under(name, parent_name):
        return sel(name) & (parent_layer == code[parent_name])

    solve, low, val, rel, pth, orc = (sel(k) for k in
                                      ("discretization", "lower", "value", "relax", "path", "oracle"))
    misses = np.zeros(n, dtype=bool)
    misses[parent[under("lower", "value")]] = True
    columns = int(c1[solve].sum())
    value_calls = int(val.sum())
    inner_its = int(c1[rel].sum())
    level_s = dur[under("relax", "path")]
    return {
        "discretization.solve_calls": int(solve.sum()),
        "discretization.solve_columns": columns,
        "discretization.solve_s": float(dur[solve].sum()),
        "discretization.us_per_column": 1e6 * float(dur[solve].sum()) / columns if columns else 0.0,
        "lower.calls": int(low.sum()),
        "lower.iterations": int(c1[low].sum()),
        "lower.self_s": float(self_s[low].sum()),
        "lower.total_s": float(dur[low].sum()),
        "value.calls": value_calls,
        "value.misses": int(misses.sum()),
        "value.hit_ratio": 1.0 - int(misses.sum()) / value_calls if value_calls else 0.0,
        "value.self_s": float(self_s[val].sum()),
        "relax.calls": int(rel.sum()),
        "relax.inner_its": inner_its,
        "relax.outer_its": int(c2[rel].sum()),
        "relax.value_calls_per_inner": (
            int(under("value", "relax").sum()) / inner_its if inner_its else 0.0),
        "relax.self_s": float(self_s[rel].sum()),
        "relax.total_s": float(dur[rel].sum()),
        "path.levels": int(c1[pth].sum()),
        "path.level_s_max": float(level_s.max()) if level_s.size else 0.0,
        "path.self_s": float(self_s[pth].sum()),
        "path.total_s": float(dur[pth].sum()),
        "stationarity.classify_s": float(dur[sel("stationarity")].sum()),
        "oracle.points": int(c1[orc].sum()),
        "oracle.solve_calls": int(under("discretization", "oracle").sum()),
        "oracle.self_s": float(self_s[orc].sum()),
        "oracle.total_s": float(dur[orc].sum()),
    }
