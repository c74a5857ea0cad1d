"""CSV bytes of small pinned runs against committed golden files.

The golden files in ``tests/data/`` hold the exact output of a few
``sweep`` and ``fom`` runs: sampled cells on the default lambda/8 mesh,
and a spacing that shares no short lattice with the mesh, so the field is
synthesized pair by pair. A change that moves any last bit of these
numbers fails here. Regenerate the files only for an intended output
change, with ``python tests/test_golden_csv.py``, and say why.
"""

import json
import sys
from pathlib import Path

import pytest

from otazone.cli import main

DATA = Path(__file__).resolve().parent / "data"

OFF_LATTICE_IES = 2 ** -0.5  # IES / pitch = 2 * sqrt(2): no fraction P/Q matches it

# name: (config, CLI arguments)
CASES = {
    "sweep_pinned": ({"ies_lambda": [0.5, 0.55, 0.7, 0.95, 1.2, 1.5],
                      "d_lambda": [40.0, 100.0, 286.0, 441.0, 469.0, 564.0, 591.0]},
                     ["sweep"]),
    "sweep_off_lattice": ({"ies_lambda": [OFF_LATTICE_IES], "mesh_pitch_lambda": 0.25,
                           "d_lambda": [300.03, 301.0]}, ["sweep"]),
    "fom_0.7_591": ({}, ["fom", "--ies-lambda", "0.7", "--d-lambda", "591"]),
    "fom_1.35_286": ({}, ["fom", "--ies-lambda", "1.35", "--d-lambda", "286"]),
    "fom_off_lattice": ({"mesh_pitch_lambda": 0.25},
                        ["fom", "--ies-lambda", repr(OFF_LATTICE_IES), "--d-lambda", "300.03"]),
}


def render(name, workdir):
    """The CSV bytes of case ``name``, run through the CLI inside ``workdir``."""
    config, argv = CASES[name]
    cfg = Path(workdir) / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = Path(workdir) / f"{name}.csv"
    assert main(["--config", str(cfg), "-o", str(out)] + argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden_bytes(name, tmp_path):
    assert render(name, tmp_path) == (DATA / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (DATA / f"{case}.csv").write_bytes(render(case, tmp))
            print(f"wrote {DATA / case}.csv", file=sys.stderr)
