"""Every function the benchmark tracer wraps still exists where it looks it up.

The tracer skips a target that no longer exists and only counts it in
``trace.missing_targets``, so a rename or deletion would otherwise go
unnoticed until a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, attr", [(t[0], t[1]) for t in load_targets()])
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
