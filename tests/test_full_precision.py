"""Weight-error study and keyed error draws against stored full-precision values.

The golden CSVs print 6 decimals, so they cannot see a change in the last
bits. ``tests/data/full_precision.json`` holds, written with ``repr``
(JSON floats round-trip exactly), the ``avg_sum_rate`` of every cell of a
small ``run_study`` and rows of ``draw_errors`` for the key shapes the
library uses: (seed, level, r) for the tolerance search and
(seed, geometry, angle, sigma index, iteration) for the study. They are
compared with ``==``. Regenerate the file only for an intended output
change, with ``python tests/test_full_precision.py``, and say why.
"""

import json
import sys
from pathlib import Path

import numpy as np

from otazone import ExcitationErrorModel, StudyConfig, WaveSpec, draw_errors, run_study

DATA = Path(__file__).resolve().parent / "data" / "full_precision.json"

STUDY = dict(snr_db=(-10.0, 20.0), sigma_dut_db=(0.0, 0.4, 1.7),
             alpha_offsets_deg=(0.0, 15.0), n_mc=20, rng_seed=3)
STUDY_GEOMETRIES = ((0.7, 591.0), (1.35, 286.0))  # (ies, D) in wavelengths
# name: (sigma_db, n, keys); the largest entry a fast-seeded key may hold is 2**32 - 1
DRAWS = {
    "tolerance": (0.37, 100, [(0, 5, r) for r in range(3)] + [(2 ** 32 - 1, 199, 99)]),
    "precode": (1.1, 98, [(0, 1, 1, 20, it) for it in range(3)] + [(7, 0, 0, 1, 2 ** 32 - 1)]),
}


def study_rates():
    wave = WaveSpec()
    lam = wave.wavelength
    geometries = [(ies * lam, d * lam) for ies, d in STUDY_GEOMETRIES]
    return [p.avg_sum_rate for p in run_study(geometries, wave, StudyConfig(**STUDY))]


def draw_rows(name):
    sigma_db, n, keys = DRAWS[name]
    eps = draw_errors(ExcitationErrorModel(sigma_db), n, keys)
    return {"real": eps.real.tolist(), "imag": eps.imag.tolist()}


def current():
    return {"study": study_rates(), **{name: draw_rows(name) for name in DRAWS}}


def test_study_rates_bit_exact():
    assert study_rates() == json.loads(DATA.read_text())["study"]


def test_draw_rows_bit_exact():
    stored = json.loads(DATA.read_text())
    for name in DRAWS:
        assert draw_rows(name) == stored[name], name


def test_stored_values_are_nontrivial():
    stored = json.loads(DATA.read_text())
    # geometries x angles x sigmas x combiners x SNRs
    assert len(stored["study"]) == 2 * 2 * 3 * 2 * 2
    assert len(set(stored["study"])) == len(stored["study"])
    for name, (_, n, keys) in DRAWS.items():
        assert np.shape(stored[name]["real"]) == (len(keys), n)


if __name__ == "__main__":
    DATA.write_text(json.dumps(current(), indent=1) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
