"""Regenerate the reference CSVs that gate tolerance and precode at seed 0.

    python3 perfbench/make_reference.py

Runs every invocation of the seed-0 tolerance and precode plans that names
a reference file (``reference/tolerance-geometry<g>.csv``,
``reference/precode-geometry<g>.csv``) and writes its CSV there, with the
benchmark's thread settings. Only regenerate when a change to the
program's output is intended and documented; the point of the files is to
catch unintended changes.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import run


def main() -> int:
    # The thread settings must be in place before numpy is first imported.
    os.environ.update({k: v for k, v in run.child_env().items()
                       if k.endswith("_NUM_THREADS") or k == "PYTHONHASHSEED"})
    sys.path.insert(0, str(run.SRC))
    import workload

    work = run.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    run.REFERENCE.mkdir(exist_ok=True)
    try:
        plan = run.Plan(work)
        invocations = [inv for planner in (run.plan_tolerance, run.plan_precode)
                       for op in planner(plan, 0)[1] for inv in op]
        for inv in invocations:
            path = Path(inv["check"]["reference"])
            _, csv_text, err = workload.run_invocation(inv)
            if err:
                print(f"{path.name}: {err}", file=sys.stderr)
                return 1
            path.write_text(csv_text)
            print(f"wrote {path.name}")
    finally:
        run.remove_work_dir(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
