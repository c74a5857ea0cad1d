"""Every function the benchmark tracer wraps still exists where it looks it up,
and each workload's CLI run still reaches every span the benchmark expects.

The tracer skips a target that no longer exists and only counts it in
``trace.missing_targets``, so a rename, a deletion or a moved call path
would otherwise go unnoticed until a benchmark run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from otazone.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def load_targets():
    return load_tracer().TARGETS


@pytest.mark.parametrize("module, attr", [(t[0], t[1]) for t in load_targets()])
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


# tiny configs of the three benchmark workloads: a zone of radius 2 lambda, n_mc <= 3
TINY = {
    "sweep": {"tz_radius_lambda": 2.0, "ies_lambda": [0.7], "d_lambda": [300.0, 301.0]},
    "tolerance": {"tz_radius_lambda": 2.0, "geometries_lambda": [[0.7, 591.0]],
                  "n_mc_tolerance": 3, "sigma_step_db": 0.1, "max_sigma_db": 0.3},
    "precode": {"geometries_lambda": [[0.7, 591.0]], "n_mc_precode": 3, "snr_db": [10.0],
                "sigma_dut_db": [0.0, 0.5], "dut_elements": 4},
}
# exact counts of the tiny tolerance run, so a change of how the search forms its fields
# that moves what the benchmark counts fails here rather than in a benchmark run
TINY_COUNTS = {"tolerance": {"tolerance.level_fom_batch.realizations": 10,
                             "tolerance.level_fom_batch.calls": 4,
                             "field.element_fields.pairs": 127971, "tolerance.levels": 4}}


# the tiny tolerance run off the row lattice (IES lambda/sqrt(2)): the SVD sample and each of
# the set-up's two blocks is one element_fields call, and the tracer must see all three
OFF_LATTICE = dict(TINY["tolerance"], geometries_lambda=[[2 ** -0.5, 300.0]])
OFF_LATTICE_COUNTS = {"field.element_fields.calls": 3, "field.element_fields.pairs": 159400}


def traced_run(tracing, kind, config, tmp_path):
    """(self_s, counts) of one traced CLI run of ``kind`` on ``config``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_op()
        assert main(["--config", str(cfg), "-o", str(tmp_path / "out.csv"), kind]) == 0
        result = tracer.finish_op()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    return result


@pytest.mark.parametrize("kind", sorted(TINY))
def test_cli_run_reaches_expected_spans(kind, tmp_path):
    tracing = load_tracer()
    self_s, counts = traced_run(tracing, kind, TINY[kind], tmp_path)
    assert [s for s in tracing.EXPECTED[kind] if s not in self_s] == []
    pinned = TINY_COUNTS.get(kind, {})
    assert {name: counts[name] for name in pinned} == pinned


def test_off_lattice_setup_is_counted(tmp_path):
    counts = traced_run(load_tracer(), "tolerance", OFF_LATTICE, tmp_path)[1]
    assert {name: counts[name] for name in OFF_LATTICE_COUNTS} == OFF_LATTICE_COUNTS
