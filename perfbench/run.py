"""otazone benchmark: end-to-end and per-layer timings of three CLI workloads.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from anywhere; the program is taken from ``src/`` next to this
directory. Inputs are JSON configs generated from ``--seed``; the program
sees only those configs. Each workload runs in its own fresh process with
the BLAS thread count pinned (see ``BLAS_THREADS``), one op at a time,
after one untimed warm-up invocation. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
Times are normalized for machine-speed drift (calib.py); the plain wall
times are printed beside them. The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
# One BLAS thread: a single thread of control, and no contention between
# OpenBLAS threads and the rest of a shared 2-CPU machine.
BLAS_THREADS = 1
SETUP_LAUNCHES = 9
# Set-up is calibrated against fresh interpreters that only import numpy
# (see calib.py for why times are normalized); REF is their typical time.
STARTUP_CAL_CODE = "import numpy"
STARTUP_REF_S = 0.12
DEADLINE_S = 170.0  # a run must end within 180 s

# The five compact reference geometries (ies, D) in wavelengths.
GEOMETRIES = ((1.35, 286.0), (1.2, 441.0), (1.0, 469.0), (0.7, 564.0), (0.7, 591.0))
IES_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(21))
SWEEP_CELLS = 20
SWEEP_D_RANGE = (280, 600)
TOLERANCE = {"n_mc_tolerance": 100, "tolerance_fail_rule": "any",
             "sigma_step_db": 0.01, "max_sigma_db": 2.0}
TOLERANCE_CONFIG_SEED = 0
PRECODE = {"n_mc_precode": 1000, "snr_db": [-10.0, 0.0, 10.0, 20.0],
           "sigma_dut_db": [round(0.1 * i, 10) for i in range(21)],
           "alpha_offsets_deg": [0.0, 15.0], "dut_elements": 49, "dut_ies_lambda": 0.5}
SWEEP_OPS = 64  # distinct sweep ops per plan; a run cycles through them


class Plan:
    """Writes invocation config files and collects ops for workload.py."""

    def __init__(self, work: Path):
        self.work = work
        self.n = 0

    def invocation(self, kind: str, config: dict, check: dict) -> dict:
        path = self.work / f"config{self.n}.json"
        self.n += 1
        path.write_text(json.dumps(config))
        return {"argv": ["--config", str(path), kind], "check": check}


def _reference(name: str, config_seed: int):
    """Path of the reference CSV that gates an invocation with config seed 0."""
    return str(REFERENCE / name) if config_seed == 0 else None


def plan_sweep(plan: Plan, seed: int):
    """One IES over SWEEP_CELLS adjacent D values (1 lambda step) per op."""
    rnd = random.Random(seed)
    ops = []
    for _ in range(SWEEP_OPS):
        ies = rnd.choice(IES_GRID)
        d0 = rnd.randint(SWEEP_D_RANGE[0], SWEEP_D_RANGE[1] - SWEEP_CELLS)
        d = [float(d0 + j) for j in range(SWEEP_CELLS)]
        ops.append([plan.invocation("sweep", {"ies_lambda": [ies], "d_lambda": d},
                                    {"ies": ies, "d_values": d,
                                     "oracle_index": rnd.randrange(SWEEP_CELLS)})])
    first = ops[0][0]["check"]
    d = first["d_values"][:1]
    warmup = plan.invocation("sweep", {"ies_lambda": [first["ies"]], "d_lambda": d},
                             {"ies": first["ies"], "d_values": d, "oracle_index": 0})
    return warmup, ops


def plan_tolerance(plan: Plan, seed: int):
    """One op: the five reference geometries, one invocation each, config seed 0.

    Every run repeats the same op, so a faster program repeats the same
    work. The seed only orders the five invocations. The config seed is
    fixed because a tolerance search's work depends on it: the number of
    sigma levels before one fails, summed over the five geometries, varies
    by about 6% (IQR / median over config seeds 0-9).
    Streams are keyed by seed, level and realization, not by geometry, so
    the five rows equal those of one five-geometry run.
    """
    check = {"n_mc": TOLERANCE["n_mc_tolerance"], "step_db": TOLERANCE["sigma_step_db"],
             "max_sigma_db": TOLERANCE["max_sigma_db"], "seed": TOLERANCE_CONFIG_SEED}
    order = list(range(len(GEOMETRIES)))
    random.Random(seed).shuffle(order)
    op = [plan.invocation("tolerance", dict(TOLERANCE, geometries_lambda=[list(GEOMETRIES[g])],
                                            seed=TOLERANCE_CONFIG_SEED),
                          dict(check, geometries=[list(GEOMETRIES[g])],
                               reference=_reference(f"tolerance-geometry{g}.csv",
                                                    TOLERANCE_CONFIG_SEED)))
          for g in order]
    # The warm-up is the cheapest geometry (four sigma levels), wherever the op has it.
    return op[order.index(0)], [op]


def plan_precode(plan: Plan, seed: int):
    """One reference geometry per op, cycling through the five; the default study."""
    check = {"n_mc": PRECODE["n_mc_precode"], "alphas": len(PRECODE["alpha_offsets_deg"]),
             "snr_db": PRECODE["snr_db"], "sigma_dut_db": PRECODE["sigma_dut_db"]}
    ops = []
    for g, (ies, d) in enumerate(GEOMETRIES):
        ops.append([plan.invocation(
            "precode", dict(PRECODE, geometries_lambda=[[ies, d]], seed=seed),
            dict(check, ies=ies, d=d, seed=seed,
                 reference=_reference(f"precode-geometry{g}.csv", seed)))])
    ies, d = GEOMETRIES[0]
    warmup = plan.invocation("precode", dict(PRECODE, geometries_lambda=[[ies, d]], seed=seed,
                                             n_mc_precode=10),
                             dict(check, ies=ies, d=d, seed=seed, n_mc=10, reference=None))
    return warmup, ops


WORKLOADS = {"sweep": plan_sweep, "tolerance": plan_tolerance, "precode": plan_precode}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def measure_setup(config: str, env: dict):
    """Set-up time: fresh interpreters that import otazone.cli and load the config.

    Each set-up launch is paired with a calibration launch that only
    imports numpy. Returns (normalized median, raw median) in seconds:
    the median set-up launch scaled by STARTUP_REF_S / median calibration
    launch, and the plain median.
    """
    setup = ("import sys, otazone.cli; from otazone.config import load_config; "
             "load_config(path=sys.argv[1])")

    def launch(code: str) -> float:
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the measurement; a timer kills a hung launch.
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, config], env=env,
                                stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        except BaseException:  # SIGTERM or interrupt: do not leave the launch running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"set-up launch exited with {rc}")
        return elapsed

    launch(setup)  # warms the file cache and writes bytecode; not counted
    times, cal = [], []
    for _ in range(SETUP_LAUNCHES):
        cal.append(launch(STARTUP_CAL_CODE))
        times.append(launch(setup))
    raw = statistics.median(times)
    return raw * STARTUP_REF_S / statistics.median(cal), raw


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def remove_work_dir(work: Path) -> None:
    """Delete a run's work directory, and .perfbench_work once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = Plan(work)
        warmup, ops = WORKLOADS[name](plan, seed)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps({
            "src": str(SRC), "kind": name, "seconds": seconds,
            "trace": trace, "warmup": warmup, "ops": [{"invocations": op} for op in ops]}))
        env = child_env()
        setup = None if trace else measure_setup(ops[0][0]["argv"][1], env)
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"), str(plan_path)],
                              env=env, cwd=str(HERE), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"{name} workload process exited with {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        remove_work_dir(work)
    report["env"].update(host=platform.node(), nproc=os.cpu_count(),
                         blas_threads_env=BLAS_THREADS, commit=git_commit(),
                         workload=name, seed=seed)
    if trace:
        report["metrics"] = {k: (v, unit_of(k)) for k, v in report["layer"].items()}
        return report
    times, raw = report["op_times"], report["raw_op_times"]
    report["metrics"] = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    report["raw"] = {"setup_s": setup[1], "ops_per_s": len(raw) / sum(raw),
                     "op_p50_s": statistics.median(raw)}
    return report


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "count"


def print_report(name: str, report: dict) -> None:
    print("# env " + json.dumps(report["env"], sort_keys=True))
    for problem in report["problems"]:
        print(f"# {name} FAILED {problem}")
    raw = report.get("raw", {})
    for metric, (value, unit) in report["metrics"].items():
        note = f"  (n={len(report['op_times'])} ops)" if metric == "op_p50_s" else ""
        if metric in raw:
            note += f"  [wall {raw[metric]:.6g} {unit}]"
        print(f"{name:10s} {metric:42s} {value:.6g} {unit}{note}")
    rate = report["failed"] / report["attempted"]
    print(f"{name:10s} {'error_rate':42s} {rate:.6g}  ({report['failed']} of "
          f"{report['attempted']} ops failed)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "otazone" / "cli.py").is_file():
        print(f"otazone sources not found under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = perf_counter() + DEADLINE_S
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  deadline if len(names) == 1 else perf_counter() + DEADLINE_S)
            print_report(name, report)
            result["correct"] &= report["failed"] == 0
            result["attempted"] += report["attempted"]
            result["failed"] += report["failed"]
            prefix = "" if len(names) == 1 else name + "."
            for metric, (value, unit) in report["metrics"].items():
                result["metrics"][prefix + metric] = {"value": value, "unit": unit}
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
