"""Field, figures of merit, weight-error study and keyed draws against stored full-precision values.

The golden CSVs print 6 decimals, so they cannot see a change in the last
bits. ``tests/data/full_precision.json`` holds, written with ``repr``
(JSON floats round-trip exactly):

- the ``avg_sum_rate`` of every cell of a small ``run_study`` and rows of
  ``draw_errors`` for the key shapes the library uses: (seed, level, r) for
  the tolerance search and (seed, geometry, angle, sigma index, iteration)
  for the study. These are compared with ``==``.
- ``field_over_mesh`` on half-row, one-row and asymmetric meshes and at an
  IES off the mesh lattice, and at each row's first, middle (x = 0) and
  last point of the standard 99 lambda / 8 zone at two geometries, the
  ``evaluate_fom`` triples of two standard geometries, and the
  per-realization FoM triples of every level of a tolerance search with
  n_mc = 40, a level that ``level_fom_batch`` scores in seven pieces of
  5 or 6 rows on a thread pool. These go through BLAS, which may round
  differently on another host, so they are compared to a relative 1e-11.

Regenerate the file only for an intended output change, with
``python tests/test_full_precision.py``, and say why.
"""

import json
import sys
from pathlib import Path

import numpy as np

from otazone import (TIER1, ChamberSpec, ExcitationErrorModel, StudyConfig, TestZoneMesh,
                     TestZoneSpec, ToleranceSearchConfig, WaveSpec, build_mesh, draw_errors,
                     evaluate_fom, field_over_mesh, run_study, tolerance_search)
from otazone import tolerance

DATA = Path(__file__).resolve().parent / "data" / "full_precision.json"
RTOL = 1e-11

STUDY = dict(snr_db=(-10.0, 20.0), sigma_dut_db=(0.0, 0.4, 1.7),
             alpha_offsets_deg=(0.0, 15.0), n_mc=20, rng_seed=3)
STUDY_GEOMETRIES = ((0.7, 591.0), (1.35, 286.0))  # (ies, D) in wavelengths
# name: (sigma_db, n, keys); 2**32 - 1 is the largest entry SeedSequence reads as one word
DRAWS = {
    "tolerance": (0.37, 100, [(0, 5, r) for r in range(3)] + [(2 ** 32 - 1, 199, 99)]),
    "precode": (1.1, 98, [(0, 1, 1, 20, it) for it in range(3)] + [(7, 0, 0, 1, 2 ** 32 - 1)]),
}
# name: (ies in wavelengths, mesh); the meshes lie around D = 300 lambda, in wavelengths
ZONE = build_mesh(TestZoneSpec(300.0, 2.0, 1 / 8))
WIDEST = int(np.argmax(np.diff(ZONE.edges)))
MESHES = {
    "half_rows": (0.7, TestZoneMesh(1 / 8, ZONE.row_y, 0, ZONE.row_hi)),
    "one_row": (0.7, TestZoneMesh(1 / 8, ZONE.row_y[WIDEST:WIDEST + 1], ZONE.row_lo[WIDEST],
                                  ZONE.row_hi[WIDEST])),
    "asymmetric": (0.7, TestZoneMesh(1 / 8, [299.875, 300.0, 300.125], [-12, 4, -20],
                                     [8, 30, 16])),
    "off_lattice": (1 / np.sqrt(2), build_mesh(TestZoneSpec(300.0, 2.0, 1 / 4))),
}
# (ies, D) in wavelengths of the standard-zone fields
STANDARD_ZONE = ((0.7, 591.0), (1.0, 469.0))
# tolerance search: three levels of 40 realizations at (0.7 lambda, 591 lambda) on a 2 lambda zone
SEARCH = dict(n_mc=40, step_db=0.5, max_sigma_db=1.5, rng_seed=0)


def study_rates():
    wave = WaveSpec()
    lam = wave.wavelength
    geometries = [(ies * lam, d * lam) for ies, d in STUDY_GEOMETRIES]
    return [p.avg_sum_rate for p in run_study(geometries, wave, StudyConfig(**STUDY))]


def draw_rows(name):
    sigma_db, n, keys = DRAWS[name]
    eps = draw_errors(ExcitationErrorModel(sigma_db), n, keys)
    return {"real": eps.real.tolist(), "imag": eps.imag.tolist()}


def mesh_field(name):
    wave = WaveSpec()
    lam = wave.wavelength
    ies, mesh = MESHES[name]
    mesh = TestZoneMesh(mesh.pitch * lam, mesh.row_y * lam, mesh.row_lo, mesh.row_hi)
    values = field_over_mesh(ChamberSpec().layout(ies * lam), wave, mesh)
    return {"real": values.real.tolist(), "imag": values.imag.tolist()}


def standard_zone_field(ies, d):
    """Each row's first, middle (x = 0) and last point, shape (rows, 3)."""
    wave = WaveSpec()
    lam = wave.wavelength
    mesh = build_mesh(ChamberSpec().zone(wave, d * lam))
    first = mesh.edges[:-1]
    values = field_over_mesh(ChamberSpec().layout(ies * lam), wave, mesh)[
        np.column_stack([first, first - mesh.row_lo, mesh.edges[1:] - 1])]
    return {"real": values.real.tolist(), "imag": values.imag.tolist()}


def fom_triples():
    wave = WaveSpec()
    lam = wave.wavelength
    reports = [evaluate_fom(ChamberSpec().layout(ies * lam), wave,
                            ChamberSpec().zone(wave, d * lam), TIER1)
               for ies, d in STUDY_GEOMETRIES]
    return [[r.r_mag, r.sigma_mag, r.r_phs] for r in reports]


def search_level_triples():
    """(level, realization, FoM) triples the search scores, zero-error check left out."""
    wave = WaveSpec()
    lam = wave.wavelength
    scored = []
    real = tolerance.level_fom_batch

    def recording(*args):
        foms = real(*args)
        scored.append(np.column_stack(foms))
        return foms

    tolerance.level_fom_batch = recording
    try:
        tolerance_search(0.7 * lam, 591 * lam, wave, ToleranceSearchConfig(**SEARCH),
                         ChamberSpec(tz_radius_lambda=2.0))
    finally:
        tolerance.level_fom_batch = real
    return np.concatenate(scored[1:]).reshape(-1, SEARCH["n_mc"], 3).tolist()


def current():
    return {"study": study_rates(), **{name: draw_rows(name) for name in DRAWS},
            "field_over_mesh": {name: mesh_field(name) for name in MESHES},
            "evaluate_fom": fom_triples(), "tolerance_levels": search_level_triples(),
            "standard_zone": [standard_zone_field(ies, d) for ies, d in STANDARD_ZONE]}


def test_study_rates_bit_exact():
    assert study_rates() == json.loads(DATA.read_text())["study"]


def test_draw_rows_bit_exact():
    stored = json.loads(DATA.read_text())
    for name in DRAWS:
        assert draw_rows(name) == stored[name], name


def test_mesh_fields_full_precision():
    stored = json.loads(DATA.read_text())["field_over_mesh"]
    for name in MESHES:
        got, want = mesh_field(name), stored[name]
        np.testing.assert_allclose(np.array(got["real"]) + 1j * np.array(got["imag"]),
                                   np.array(want["real"]) + 1j * np.array(want["imag"]),
                                   rtol=RTOL, atol=0, err_msg=name)


def test_standard_zone_full_precision():
    stored = json.loads(DATA.read_text())["standard_zone"]
    for (ies, d), want in zip(STANDARD_ZONE, stored, strict=True):
        got = standard_zone_field(ies, d)
        np.testing.assert_allclose(np.array(got["real"]) + 1j * np.array(got["imag"]),
                                   np.array(want["real"]) + 1j * np.array(want["imag"]),
                                   rtol=RTOL, atol=0, err_msg=f"{ies}, {d}")


def test_fom_triples_full_precision():
    stored = json.loads(DATA.read_text())["evaluate_fom"]
    np.testing.assert_allclose(fom_triples(), stored, rtol=RTOL, atol=0)


def test_search_levels_full_precision():
    stored = json.loads(DATA.read_text())["tolerance_levels"]
    np.testing.assert_allclose(search_level_triples(), stored, rtol=RTOL, atol=0)


def test_stored_values_are_nontrivial():
    stored = json.loads(DATA.read_text())
    # geometries x angles x sigmas x combiners x SNRs
    assert len(stored["study"]) == 2 * 2 * 3 * 2 * 2
    assert len(set(stored["study"])) == len(stored["study"])
    for name, (_, n, keys) in DRAWS.items():
        assert np.shape(stored[name]["real"]) == (len(keys), n)
    for name, (_, mesh) in MESHES.items():
        assert np.shape(stored["field_over_mesh"][name]["real"]) == (mesh.n_points,)
    assert np.shape(stored["evaluate_fom"]) == (len(STUDY_GEOMETRIES), 3)
    # 199 rows of the standard zone, 3 points each
    assert np.shape([z["real"] for z in stored["standard_zone"]]) == (len(STANDARD_ZONE), 199, 3)
    # 40 realizations per level
    levels = round(SEARCH["max_sigma_db"] / SEARCH["step_db"])
    assert np.shape(stored["tolerance_levels"]) == (levels, SEARCH["n_mc"], 3)
    assert len(np.unique(stored["tolerance_levels"])) == levels * SEARCH["n_mc"] * 3


if __name__ == "__main__":
    DATA.write_text(json.dumps(current(), indent=1) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
