"""One workload run, in a fresh process: ``python3 workload.py PLAN.json``.

The plan (written by run.py) lists a warm-up invocation and the timed ops.
An op is one or more invocations of the public CLI entry point
``otazone.cli.main``, called in-process with stdout captured. The last line
printed is a JSON report: op times, failures, peak RSS, environment and,
when tracing, the per-layer metrics.

Untraced mode runs ops back to back until the time budget is spent. The
calibration kernel (calib.py, in a helper process) runs between
invocations, so each invocation's wall time can be normalized by the
machine speed measured just before and just after it.

Traced mode repeats the first op in (untraced, traced) pairs, so the
overhead is the traced minus the untraced wall time of identical work,
and every exact count comes from identical inputs.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import calib
import checks
import tracer as tracing

MAX_PROBLEMS = 20


def run_invocation(inv):
    """(wall seconds, CSV text, error or None) of one CLI invocation."""
    import otazone.cli

    buf = io.StringIO()
    err = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = otazone.cli.main(inv["argv"])
        if rc != 0:
            err = f"exit code {rc}"
    except SystemExit as exc:  # argparse rejects the arguments
        err = f"exit {exc.code}"
    except Exception:  # an invocation that raises counts as failed; keep going
        err = traceback.format_exc(limit=3)
    return perf_counter() - t0, buf.getvalue(), err


def check_invocation(kind, inv, csv_text):
    kwargs = dict(inv["check"])
    if kwargs.get("reference") is not None:
        with open(kwargs["reference"]) as fh:
            kwargs["reference"] = fh.read()
    return checks.CHECKS[kind](csv_text, **kwargs)


class Outcome:
    """Attempted/failed op tally with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems = (self.problems + [f"{label}: {p}" for p in problems])[:MAX_PROBLEMS]


def check_outputs(plan, runs, outcome):
    """Check every op's CSVs; a repeated op must reproduce its first bytes."""
    first = {}
    for i, (k, outputs) in enumerate(runs):
        problems = []
        for j, (inv, (csv_text, err)) in enumerate(zip(plan["ops"][k]["invocations"], outputs)):
            if err:
                problems.append(err)
            elif (k, j) in first:
                if csv_text != first[k, j]:
                    problems.append("output differs from an earlier run of the same op")
            else:
                first[k, j] = csv_text
                problems += check_invocation(plan["kind"], inv, csv_text)
        outcome.record(f"op {i}", problems)


def run_untraced(plan, outcome):
    ops = plan["ops"]
    norm_times, raw_times, runs = [], [], []
    with calib.Calibrator() as cal:
        t0 = perf_counter()
        c_before = cal.sample()
        while True:
            k = len(runs) % len(ops)
            norm = raw = 0.0
            outputs = []
            for inv in ops[k]["invocations"]:
                dt, csv_text, err = run_invocation(inv)
                c_after = cal.sample()
                norm += cal.normalize(dt, c_before, c_after)
                raw += dt
                c_before = c_after
                outputs.append((csv_text, err))
            norm_times.append(norm)
            raw_times.append(raw)
            runs.append((k, outputs))
            if perf_counter() - t0 >= plan["seconds"]:
                break
    check_outputs(plan, runs, outcome)
    return {"op_times": norm_times, "raw_op_times": raw_times}


def run_op(op):
    """Wall time, CSVs and errors of one op's invocations, back to back."""
    wall, outputs = 0.0, []
    for inv in op["invocations"]:
        dt, csv_text, err = run_invocation(inv)
        wall += dt
        outputs.append((csv_text, err))
    return wall, outputs


def run_traced(plan, outcome):
    op = plan["ops"][0]
    pairs = []  # (untraced s, traced s, self times, counts)
    missing = []
    t0 = perf_counter()
    while True:
        result = {}
        for traced in ((True, False) if len(pairs) % 2 else (False, True)):
            if not traced:
                result[False] = run_op(op)
                continue
            tr = tracing.Tracer()
            tr.install()
            try:
                tr.start_op()
                result[True] = run_op(op)
                self_s, counts = tr.finish_op()
            finally:
                tr.uninstall()
            missing = tr.missing
        (t_off, out_off), (t_on, out_on) = result[False], result[True]
        errors = [e for _, e in out_off + out_on if e]
        label = f"pair {len(pairs)}"
        if errors:
            outcome.record(label, errors)
        elif out_on != out_off:
            outcome.record(label, ["CSV bytes differ with tracing on and off"])
        elif pairs and counts != pairs[0][3]:
            outcome.record(label, ["exact counts differ between identical traced ops"])
        elif pairs:
            outcome.record(label, [])
        else:
            outcome.record(label, [p for inv, (csv_text, _) in zip(op["invocations"], out_off)
                                   for p in check_invocation(plan["kind"], inv, csv_text)])
        pairs.append((t_off, t_on, self_s, counts))
        if perf_counter() - t0 >= plan["seconds"]:
            break

    med = statistics.median
    layer = {}
    for name in tracing.SPAN_NAMES:
        layer[name + ".self_s"] = med([p[2].get(name, 0.0) for p in pairs])
    layer.update(pairs[0][3])
    ef_s = layer["field.element_fields.self_s"]
    layer["field.element_fields.pairs_per_s"] = (
        layer["field.element_fields.pairs"] / ef_s if ef_s > 0 else 0.0)
    levels = layer["tolerance.levels"]
    layer["tolerance.realizations_per_level"] = (
        layer["tolerance.level_fom_batch.realizations"] / levels if levels else 0.0)
    layer["trace.op_wall_s"] = med([p[0] for p in pairs])
    layer["trace.overhead_s"] = med([p[1] - p[0] for p in pairs])
    # cli.main is the root span; its self time is what no inner layer accounts for.
    layer["trace.unaccounted_s"] = med(
        [p[1] - sum(t for name, t in p[2].items() if name != "cli.main") for p in pairs])
    missing += [name for name in tracing.EXPECTED[plan["kind"]] if name not in pairs[0][2]]
    layer["trace.missing_targets"] = len(missing)
    if missing:
        print(f"trace targets missing: {', '.join(missing)}", file=sys.stderr)
    return {"layer": layer}


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def main(argv):
    with open(argv[1]) as fh:
        plan = json.load(fh)
    import otazone
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(otazone.__file__).startswith(src + os.sep):
        print(f"otazone imported from {otazone.__file__}, not {src}", file=sys.stderr)
        return 2

    outcome = Outcome()
    warmup = plan["warmup"]
    _, warm_csv, warm_err = run_invocation(warmup)
    outcome.record("warm-up", [warm_err] if warm_err
                   else check_invocation(plan["kind"], warmup, warm_csv))
    runner = run_traced if plan["trace"] else run_untraced
    report = runner(plan, outcome)
    report.update(attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  env=environment())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
