"""Span tracer that wraps otazone's public functions from outside.

Each target is a name at the place where its caller looks it up (for
example ``otazone.sweep.build_mesh``, not ``otazone.testzone.build_mesh``,
because ``sweep`` imported the name into its own namespace). A wrapper
records one span per call and, for some targets, counts work from the
call's arguments or result. Spans stay in memory; ``finish_op`` reduces
them to per-name self times and forgets them.

The program itself is not changed. A target that no longer exists is
recorded in ``missing`` and skipped, so a rename shows up in the report
instead of crashing the benchmark. ``finish_op`` reports self times only
for spans that were called, so an EXPECTED span that a moved call path no
longer reaches shows up too.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _count_element_fields(c, args, kwargs, result):
    c["field.element_fields.pairs"] += result.shape[0] * result.shape[1]


def _count_build_mesh(c, args, kwargs, result):
    c["testzone.build_mesh.points"] += result.n_points


def _count_run_sweep(c, args, kwargs, result):
    c["sweep.cells"] += len(result.cells)


def _count_level_fom_batch(c, args, kwargs, result):
    c["tolerance.level_fom_batch.realizations"] += len(result[0])


# (module where the caller looks the name up, attribute, span name, counter)
# The span name is the defining module plus the function, so one function
# looked up from several modules reports as one layer.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("otazone.cli", "main", "cli.main", None),
    ("otazone.cli", "load_config", "config.load_config", None),
    ("otazone.cli", "run_sweep", "sweep.run_sweep", _count_run_sweep),
    ("otazone.cli", "tolerance_search", "tolerance.tolerance_search", None),
    ("otazone.cli", "run_study", "precoding.run_study", None),
    ("otazone.sweep", "build_mesh", "testzone.build_mesh", _count_build_mesh),
    ("otazone.tolerance", "build_mesh", "testzone.build_mesh", _count_build_mesh),
    ("otazone.sweep", "fom_values", "testzone.fom_values", None),
    ("otazone.testzone", "field_at_points", "field.field_at_points", None),
    ("otazone.field", "element_fields", "field.element_fields", _count_element_fields),
    ("otazone.tolerance", "element_fields", "field.element_fields", _count_element_fields),
    ("otazone.tolerance", "level_fom_batch", "tolerance.level_fom_batch",
     _count_level_fom_batch),
    ("otazone.tolerance", "draw_errors", "tolerance.draw_errors", None),
    ("otazone.precoding", "draw_errors", "tolerance.draw_errors", None),
    ("otazone.precoding", "build_channel", "precoding.build_channel", None),
    # Every keyed error stream is one default_rng construction.
    ("numpy.random", "default_rng", "tolerance.keyed_streams", None),
)
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
# Spans each workload's op must reach. One that makes no call is reported
# missing like a target that no longer exists: a call path has moved, and
# its work now shows up in a caller's self time.
EXPECTED = {
    "sweep": ("config.load_config", "sweep.run_sweep", "testzone.build_mesh",
              "testzone.fom_values", "field.field_at_points", "field.element_fields"),
    "tolerance": ("config.load_config", "tolerance.tolerance_search", "testzone.build_mesh",
                  "field.element_fields", "tolerance.level_fom_batch",
                  "tolerance.draw_errors", "tolerance.keyed_streams"),
    "precode": ("config.load_config", "precoding.run_study", "precoding.build_channel",
                "tolerance.draw_errors", "tolerance.keyed_streams"),
}
# spans whose number of calls is reported as <span>.calls
CALL_COUNTED = ("field.element_fields", "testzone.fom_values",
                "tolerance.level_fom_batch", "tolerance.draw_errors")
# counts filled in by the counter functions above
COUNT_NAMES = ("field.element_fields.pairs", "testzone.build_mesh.points",
               "sweep.cells", "tolerance.level_fom_batch.realizations")
# Counts that depend only on the inputs; they must repeat exactly.
EXACT_COUNTS = ("field.element_fields.pairs", "tolerance.level_fom_batch.realizations",
                "tolerance.keyed_streams", "sweep.cells", "tolerance.levels")


class Tracer:
    """Installs wrappers around TARGETS and aggregates their spans per op."""

    def __init__(self):
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []
        # span = [name, start, end, parent index]
        self._spans: List[list] = []
        self._stack: List[int] = []
        self._counts: Dict[str, int] = {}
        # distinct (tolerance_search span, sigma_db) pairs seen by draw_errors
        self._levels: set = set()

    def install(self) -> None:
        for mod_name, attr, span, counter in TARGETS:
            try:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span: str, counter):
        spans, stack = self._spans, self._stack
        track_level = span == "tolerance.draw_errors"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            if track_level and args:
                search = self._enclosing("tolerance.tolerance_search")
                if search is not None:
                    self._levels.add((search, getattr(args[0], "sigma_db", None)))
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self._counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _enclosing(self, name: str) -> Optional[int]:
        for idx in reversed(self._stack):
            if self._spans[idx][0] == name:
                return idx
        return None

    def start_op(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self._levels.clear()
        self._counts = {k: 0 for k in COUNT_NAMES}

    def finish_op(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-name self time (s) and exact counts of the op just run."""
        child = [0.0] * len(self._spans)
        for name, t0, t1, parent in self._spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for i, (name, t0, t1, _) in enumerate(self._spans):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
        counts = dict(self._counts)
        for name in CALL_COUNTED:
            counts[name + ".calls"] = calls.get(name, 0)
        counts["tolerance.keyed_streams"] = calls.get("tolerance.keyed_streams", 0)
        counts["tolerance.levels"] = len(self._levels)
        self._spans.clear()
        return self_s, counts
