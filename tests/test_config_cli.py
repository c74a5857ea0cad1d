import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from otazone import (ArrayLayout, ChamberSpec, ConfigError, DutArraySpec, ExcitationErrorModel,
                     FomLimits, StudyConfig, SweepGrid, TestZoneMesh, TestZoneSpec,
                     ToleranceSearchConfig, alpha_min_deg, load_config, sum_rate)
from otazone.cli import main
from otazone.config import DEFAULT_GEOMETRIES_LAMBDA


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.raw["frequency_hz"] == 28e9
        assert cfg.raw["n_elements"] == 100
        assert cfg.wavelength == pytest.approx(299792458.0 / 28e9, rel=1e-15)
        zone = cfg.chamber.zone(cfg.wave, 591 * cfg.wavelength)
        assert zone.radius == pytest.approx(99 / 8 * cfg.wavelength, rel=1e-12)
        assert [round(g[0], 2) for g in cfg.raw["geometries_lambda"]] == [1.35, 1.2, 1.0, 0.7, 0.7]

    def test_default_d_axis_range(self):
        cfg = load_config()
        d = np.asarray(cfg.grid.d_values) / cfg.wavelength
        assert d[0] == pytest.approx(40.0) and d[-1] == pytest.approx(2450.0)

    def test_explicit_d_lambda_wins_over_range(self):
        cfg = load_config({"d_lambda": [100.0, 200.0]})
        assert [round(v / cfg.wavelength) for v in cfg.grid.d_values] == [100, 200]

    def test_geometries_converted_to_meters(self):
        cfg = load_config()
        lam = cfg.wavelength
        got = [(i / lam, d / lam) for i, d in cfg.geometries]
        assert got == pytest.approx([g for g in DEFAULT_GEOMETRIES_LAMBDA])

    def test_limits_object(self):
        lim = load_config({"limits": {"sigma_mag_db": 0.2, "r_mag_db": 0.8,
                                      "r_phs_deg": 8.0}}).limits
        assert (lim.sigma_mag_max, lim.r_mag_max, lim.r_phs_max) == (0.2, 0.8, 8.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config({"frequnecy_hz": 28e9})

    def test_unknown_limit_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown limit keys"):
            load_config({"limits": {"sigma_mag_db": 0.25, "r_mag_db": 1.0,
                                    "r_phs_deg": 10.0, "extra": 1}})

    @pytest.mark.parametrize("patch", [
        {"frequency_hz": -1.0},
        {"taper_edge": 60},
        {"taper_depth_db": 3.0},
        {"taper_endpoint": "both"},
        {"taper_edge": -1},
        {"mesh_pitch_lambda": 0.0},
        {"tz_radius_lambda": -1.0},
        {"ies_lambda": [0.7, 0.5]},
        {"ies_lambda": []},
        {"d_lambda": [200.0, 100.0]},
        {"sigma_step_db": 0.0},
        {"n_mc_tolerance": 0},
        {"tolerance_fail_rule": "sometimes"},
        {"geometries_lambda": [[0.7]]},
        {"geometries_lambda": [[-0.7, 591.0]]},
        {"dut_elements": 1},
        {"n_elements": "100"},
        {"n_mc_tolerance": 2.5},
        {"limits": {"sigma_mag_db": 0.25}},
        {"d_range_lambda": [2450.0, 40.0]},
        {"max_sigma_db": -1.0},
        {"max_sigma_db": 0.005},
        {"limits": {"sigma_mag_db": 0.0, "r_mag_db": 1.0, "r_phs_deg": 10.0}},
        {"seed": -1},
        {"sigma_dut_db": [-1.0]},
        {"snr_db": []},
        {"sigma_dut_db": []},
        {"alpha_offsets_deg": []},
        {"geometries_lambda": []},
        {"d_step_lambda": 0.0},
        {"tz_radius_lambda": 0.01},  # below one pitch the mesh is a single point
    ])
    def test_invalid_values_rejected(self, patch):
        with pytest.raises(ConfigError):
            load_config(patch)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path=str(p))

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 7, "n_mc_tolerance": 5}))
        cfg = load_config(path=str(p))
        assert cfg.raw["seed"] == 7 and cfg.raw["n_mc_tolerance"] == 5
        assert cfg.raw["n_elements"] == 100  # default survives

    def test_canonical_json_is_key_order_independent(self):
        a = load_config({"seed": 3, "n_elements": 100})
        b = load_config({"n_elements": 100, "seed": 3})
        assert a.canonical_json() == b.canonical_json()
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_content(self):
        assert load_config({"seed": 0}).config_hash() != \
            load_config({"seed": 1}).config_hash()

    def test_mutating_raw_leaves_defaults_alone(self):
        raw = load_config({}).raw
        raw["ies_lambda"].append(9.0)
        raw["geometries_lambda"][0][0] = 9.0
        raw["limits"]["r_mag_db"] = 9.0
        again = load_config({})
        assert again.raw["ies_lambda"][-1] == 1.5
        assert again.raw["geometries_lambda"][0] == [1.35, 286.0]
        assert again.raw["limits"]["r_mag_db"] == 1.0
        assert again.config_hash() == "9be2a9804778"

    def test_default_ies_axis_is_python_floats(self):
        # so a message that lists the axis prints plain numbers; the canonical JSON, and
        # with it the hash, is what it was with numpy floats
        from otazone.config import _DEFAULTS
        assert all(type(x) is float for x in _DEFAULTS["ies_lambda"])
        assert load_config({}).config_hash() == "9be2a9804778"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: FomLimits(0.25, NAN, 10.0),
    lambda: ExcitationErrorModel(NAN),
    lambda: ExcitationErrorModel(INF),
    lambda: ToleranceSearchConfig(step_db=NAN),
    lambda: ToleranceSearchConfig(max_sigma_db=NAN),
    lambda: DutArraySpec(ies_lambda=NAN),
    lambda: StudyConfig(snr_db=(NAN,)),
    lambda: StudyConfig(sigma_dut_db=(0.0, NAN)),
    lambda: StudyConfig(alpha_offsets_deg=(INF,)),
    lambda: ChamberSpec(tz_radius_lambda=NAN),
    lambda: ChamberSpec(tz_radius_lambda=INF),
    lambda: ChamberSpec(mesh_pitch_lambda=INF),
    lambda: ChamberSpec(taper_depth_db=NAN),
    lambda: alpha_min_deg(NAN, 1.0),
    lambda: FomLimits(0.25, 1.0, INF),
    lambda: alpha_min_deg(INF, 1.0),
    lambda: alpha_min_deg(1.0, INF),
    lambda: sum_rate([1.0, NAN]),
    # counts, seeds and edges must be integers at or above their bound
    lambda: ToleranceSearchConfig(n_mc=NAN),
    lambda: ToleranceSearchConfig(n_mc=2.5),
    lambda: ToleranceSearchConfig(rng_seed=NAN),
    lambda: StudyConfig(n_mc=NAN),
    lambda: StudyConfig(rng_seed=NAN),
    lambda: DutArraySpec(n_elements=NAN),
    lambda: ChamberSpec(n_elements=NAN),
    lambda: ChamberSpec(taper_edge=NAN),
    lambda: TestZoneMesh(0.1, [NAN], 0, 1),
    lambda: TestZoneMesh(0.1, [0.0, INF], 0, 1),
], ids=["FomLimits", "error_model-nan", "error_model-inf", "step_db", "max_sigma_db",
        "dut_ies", "snr_db", "sigma_dut_db", "alpha_offsets", "tz_radius", "tz_radius-inf",
        "mesh_pitch-inf", "taper_depth",
        "alpha_min", "FomLimits-inf", "alpha_min-inf", "alpha_min-inf-distance", "sum_rate",
        "tolerance_n_mc", "tolerance_n_mc-fraction", "tolerance_seed",
        "study_n_mc", "study_seed", "dut_n_elements", "chamber_n_elements", "taper_edge",
        "mesh_row_y-nan", "mesh_row_y-inf"])
def test_library_rejects_nan_and_inf(make):
    # the config path rejects them first; the library types must too
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: ArrayLayout(0, 1.0, np.ones(0)), "n_elements must be >= 1"),
    (lambda: ArrayLayout(3, 1.0, np.ones(2)), "taper must have shape"),
    (lambda: ChamberSpec(n_elements=0), "n_elements must be >= 1"),
    (lambda: ChamberSpec(tz_radius_lambda=0.25, mesh_pitch_lambda=0.5),
     "tz_radius_lambda below mesh_pitch_lambda"),
    (lambda: TestZoneSpec(10.0, 1.0, 0.0), "pitch must be positive"),
    (lambda: SweepGrid((0.0,), (1.0,)), "ies values must be positive"),
    (lambda: StudyConfig(rng_seed=-1), "rng_seed must be >= 0"),  # the config's seed check is first
    # a bool is not a count
    (lambda: ToleranceSearchConfig(n_mc=True), "n_mc must be >= 1 and an integer"),
    # dB values whose linear scale overflows: 10^(x/10) for an SNR, 10^(x/20) for a deviation
    (lambda: StudyConfig(snr_db=(0.0, 4000.0)), "snr_db values must be below 3082.55 dB"),
    (lambda: StudyConfig(sigma_dut_db=(0.0, 7000.0)), "sigma_db must be >= 0 and below 6165.09"),
    (lambda: ExcitationErrorModel(7000.0), "sigma_db must be >= 0 and below 6165.09 dB"),
    (lambda: ToleranceSearchConfig(max_sigma_db=7000.0), "max_sigma_db must be .* below 6165.09"),
], ids=["layout_n_elements", "layout_taper_shape", "chamber_n_elements", "chamber_radius",
        "zone_pitch", "sweep_ies", "study_seed", "tolerance_n_mc-bool", "study_snr",
        "study_sigma_dut", "error_model", "max_sigma_db"])
def test_library_rejects_out_of_range(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_db_bounds_sit_at_the_overflow():
    # just below each bound the linear scale is a finite double; the bound itself overflows
    sigma_max, snr_max = 20 * math.log10(sys.float_info.max), 10 * math.log10(sys.float_info.max)
    below = math.nextafter(sigma_max, 0.0)
    assert np.isfinite(ExcitationErrorModel(below).sigma_linear)
    StudyConfig(snr_db=(math.nextafter(snr_max, 0.0),), sigma_dut_db=(below,))
    ToleranceSearchConfig(max_sigma_db=below)
    with pytest.raises(OverflowError):
        10.0 ** (sigma_max / 20.0)
    for make in (lambda: ExcitationErrorModel(sigma_max), lambda: StudyConfig(snr_db=(snr_max,))):
        with pytest.raises(ValueError, match="below"):
            make()


def run_cli(tmp_path, argv, name="out.csv", config=None):
    args = []
    if config is not None:
        p = tmp_path / f"cfg_{name}.json"
        p.write_text(json.dumps(config))
        args += ["--config", str(p)]
    out = tmp_path / name
    code = main(args + ["-o", str(out)] + argv)
    return code, out.read_bytes() if out.exists() else b""


class TestCliFom:
    def test_basic_run(self, tmp_path):
        code, data = run_cli(tmp_path, ["fom", "--ies-lambda", "0.7",
                                        "--d-lambda", "591", "--tier", "3"])
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0].startswith("# config_hash=") and "seed=0" in lines[0]
        assert lines[1] == ("ies_lambda,L_lambda,D_lambda,R_mag_dB,sigma_mag_dB,"
                            "R_phs_deg,pass,failing_foms")
        fields = lines[2].split(",")
        assert fields[0] == "0.700000"
        assert fields[1] == "69.300000"
        assert fields[6] == "true"

    def test_failing_cell_reports_foms(self, tmp_path):
        code, data = run_cli(tmp_path, ["fom", "--ies-lambda", "0.5",
                                        "--d-lambda", "40", "--tier", "1"])
        assert code == 0
        last = data.decode().splitlines()[-1].split(",")
        assert last[6] == "false"
        assert "R_mag" in last[7]

    def test_bad_config_exit_code(self, tmp_path):
        code, _ = run_cli(tmp_path, ["fom", "--ies-lambda", "0.7",
                                     "--d-lambda", "591"],
                          config={"nonsense": 1})
        assert code == 1

    @pytest.mark.parametrize("config, message", [
        ({"n_elements": "100"}, "n_elements must be an integer"),
        ({"d_range_lambda": [2450.0, 40.0]}, "d_range_lambda must be [lo, hi] with lo <= hi"),
        ({"sigma_step_db": 0.0}, "sigma_step_db=0.0"),
        ({"frequency_hz": 1e-300}, "frequency_hz="),  # its wavelength overflows to inf
        # JSON integers past float range
        ({"seed": 10 ** 400}, "seed must be an integer"),
        ({"frequency_hz": 10 ** 400}, "frequency_hz must be a finite number"),
        ({"snr_db": [0.0, 10 ** 400]}, "snr_db must be a list of finite numbers"),
        ({"geometries_lambda": [[0.7, 10 ** 400]]}, "geometries_lambda must be"),
        # dB values whose linear scale overflows a double
        ({"snr_db": [4000]}, "bad config (snr_db=[4000]"),
        ({"sigma_dut_db": [0, 7000]}, "sigma_dut_db=[0, 7000]"),
        ({"sigma_step_db": 7000, "max_sigma_db": 7000}, "max_sigma_db must be at least one "
                                                        "step_db and below 6165.09 dB"),
        # an explicit D axis would silently win over the range keys
        ({"d_lambda": [300, 301], "d_step_lambda": 5, "d_range_lambda": [100, 200]},
         "config error: d_lambda excludes d_range_lambda and d_step_lambda"),
        # a wavelength of 1e305 m takes the sweep grid in meters past float range
        ({"frequency_hz": 3e-297}, "config error: bad config (frequency_hz=3e-297, "
                                   "ies_lambda=[0.5, 0.55, "),
        ({"tz_radius_lambda": 0.01}, "tz_radius_lambda=0.01, mesh_pitch_lambda=0.125): "
                                     "tz_radius_lambda below mesh_pitch_lambda"),
    ])
    def test_bad_value_exits_with_message(self, tmp_path, capsys, config, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(tmp_path, ["fom", "--ies-lambda", "0.7", "--d-lambda", "591"],
                              config=config)
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("config, prefix", [
        ({"d_step_lambda": 1e-14}, "config error: "),  # a D axis of 1.7 EiB, at load
        ({"mesh_pitch_lambda": 1e-16}, "error: "),  # a zone mesh of 1.7 EiB, in build_mesh
    ], ids=["d_axis", "zone_mesh"])
    def test_allocation_failure_exits_with_message(self, tmp_path, capsys, config, prefix):
        # sizes past any 64-bit address space, so the allocation fails at once
        code, _ = run_cli(tmp_path, ["fom", "--ies-lambda", "0.7", "--d-lambda", "591"],
                          config=config)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1

    def test_huge_spacing_exits_1(self, tmp_path, capsys):
        # elements 5e21 and 5e309 lambda away: float64 resolves k*r more coarsely than
        # 1 microradian there, so every point would get one phase; refused before any
        # cos/sin, without a numpy warning (the test run turns one into an error)
        for ies in ("1e20", "1e308"):
            code, data = run_cli(tmp_path, ["fom", "--ies-lambda", ies, "--d-lambda", "591"])
            assert code == 1 and data == b""
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "phase resolution" in err

    @pytest.mark.parametrize("ies, d", [
        ("0.7", "5"),  # D smaller than the zone radius violates the mesh precondition
        ("0.7", "nan"), ("0.7", "inf"), ("nan", "591"), ("inf", "591"),
    ])
    def test_infeasible_geometry_exit_code(self, tmp_path, ies, d):
        code, _ = run_cli(tmp_path, ["fom", "--ies-lambda", ies, "--d-lambda", d])
        assert code == 1

    @pytest.mark.parametrize("frequency", [1e300, 1e-250])
    def test_huge_frequency_gives_default_rows(self, tmp_path, frequency):
        # at 1e300 Hz the fields are finite but their squared magnitudes overflow, at
        # 1e-250 Hz they underflow; the FoMs depend on lengths in wavelengths only, so
        # the rows are those at 28 GHz
        argv = ["fom", "--ies-lambda", "0.7", "--d-lambda", "591"]
        code, data = run_cli(tmp_path, argv, name="huge.csv", config={"frequency_hz": frequency})
        assert code == 0
        assert data.splitlines()[1:] == run_cli(tmp_path, argv)[1].splitlines()[1:]

    def test_unwritable_output_exits_with_message(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "x.csv"
        code = main(["-o", str(out), "fom", "--ies-lambda", "0.7", "--d-lambda", "591"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_failed_run_leaves_existing_output_unchanged(self, tmp_path):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"# an earlier run\n1,2,3\n")
        code = main(["-o", str(out), "fom", "--ies-lambda", "0.7", "--d-lambda", "5"])
        assert code == 1
        assert out.read_bytes() == b"# an earlier run\n1,2,3\n"


class TestCliSweep:
    CFG = {"ies_lambda": [0.7], "d_lambda": [564.0, 620.0]}

    def test_rows_and_tiers(self, tmp_path):
        code, data = run_cli(tmp_path, ["sweep"], config=self.CFG)
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[1] == ("ies_lambda,L_lambda,D_lambda,R_mag_dB,sigma_mag_dB,"
                            "R_phs_deg,pass_tier1,pass_tier2,pass_tier3")
        assert len(lines) == 4
        near, far = lines[2].split(","), lines[3].split(",")
        assert near[6:9] == ["true", "true", "false"]   # 564: tiers 1-2 only
        assert far[7] == "false"                        # 620 fails tier 2

    def test_cap_violation_exit_code(self, tmp_path):
        code, _ = run_cli(tmp_path, ["sweep"],
                          config={"ies_lambda": [0.5], "d_lambda": [2451.0]})
        assert code == 1

    def test_cap_follows_n_elements(self, tmp_path):
        # 40 elements at 0.5 lam: the cap is (39 * 0.5)^2 = 380.25 lam
        code, _ = run_cli(tmp_path, ["sweep"],
                          config={"n_elements": 40, "taper_edge": 10,
                                  "ies_lambda": [0.5], "d_lambda": [1000.0]})
        assert code == 1

    def test_zone_crossing_array_line_exit_code(self, tmp_path, capsys):
        # D = 10 lam is inside the 99/8 lam zone radius: bad input, not a numerical failure
        code, _ = run_cli(tmp_path, ["sweep"],
                          config={"ies_lambda": [0.7], "d_lambda": [10.0]})
        assert code == 1
        assert "sweep cell" in capsys.readouterr().err


class TestCliTolerance:
    CFG = {"geometries_lambda": [[0.7, 591.0]], "n_mc_tolerance": 3,
           "tz_radius_lambda": 2.0, "seed": 1}

    def test_output_shape(self, tmp_path):
        code, data = run_cli(tmp_path, ["tolerance"], config=self.CFG)
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[1] == ("L_lambda,ies_lambda,D_lambda,tolerated_sigma_db,"
                            "failing_fom,n_mc,seed")
        fields = lines[2].split(",")
        assert fields[0] == "69.300000"
        assert float(fields[3]) > 0.0
        assert fields[4] in ("R_mag", "sigma_mag", "R_phs", "exceeds_cap")
        assert fields[5:7] == ["3", "1"]

    @pytest.mark.parametrize("frequency", [1e300, 1e-250])
    def test_huge_frequency_gives_default_rows(self, tmp_path, frequency):
        # see TestCliFom.test_huge_frequency_gives_default_rows
        cfg = {"tz_radius_lambda": 2.0, "n_mc_tolerance": 3, "sigma_step_db": 0.5}
        code, data = run_cli(tmp_path, ["tolerance"], name="huge.csv",
                             config={**cfg, "frequency_hz": frequency})
        assert code == 0
        want = run_cli(tmp_path, ["tolerance"], config=cfg)[1]
        assert data.splitlines()[1:] == want.splitlines()[1:]

    def test_byte_identical_rerun(self, tmp_path):
        _, a = run_cli(tmp_path, ["tolerance"], name="a.csv", config=self.CFG)
        _, b = run_cli(tmp_path, ["tolerance"], name="b.csv", config=self.CFG)
        assert a == b


class TestCliPrecode:
    CFG = {"geometries_lambda": [[0.7, 591.0]], "n_mc_precode": 4,
           "sigma_dut_db": [0.0, 1.0], "snr_db": [0.0, 10.0],
           "alpha_offsets_deg": [0.0], "seed": 2}

    def test_output_shape(self, tmp_path):
        code, data = run_cli(tmp_path, ["precode"], config=self.CFG)
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[1] == ("L_lambda,D_lambda,alpha_deg,precoder,snr_db,"
                            "sigma_dut_db,avg_sum_rate,n_mc,seed")
        body = [ln.split(",") for ln in lines[2:]]
        assert len(body) == 8  # 1 geom x 1 angle x 2 sigma x 2 precoders x 2 snr
        assert {row[3] for row in body} == {"MF", "ZF"}
        assert all(float(row[6]) > 0 for row in body)

    def test_byte_identical_rerun(self, tmp_path):
        _, a = run_cli(tmp_path, ["precode"], name="a.csv", config=self.CFG)
        _, b = run_cli(tmp_path, ["precode"], name="b.csv", config=self.CFG)
        assert a == b

    def test_collinear_channel_exits_2(self, tmp_path, capsys):
        # an offset of -alpha_min puts the interferer on the main array: ZF is singular
        cfg = {**self.CFG, "alpha_offsets_deg": [-alpha_min_deg(99 * 0.7, 591.0)]}
        (tmp_path / "keep.csv").write_bytes(b"# an earlier run\n1,2,3\n")
        code, data = run_cli(tmp_path, ["precode"], name="keep.csv", config=cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert data == b"# an earlier run\n1,2,3\n"


class TestChamberKeys:
    """Every key of a run object's table, and each limit, changes the output of every
    subcommand that reads it."""

    # One near-field geometry, (0.5 lam, 100 lam), for every subcommand. The
    # tolerance search steps by 0.001 dB so that its single output number,
    # the tolerated deviation, moves with the zone sampling too.
    BASE = {"tz_radius_lambda": 2.0, "ies_lambda": [0.5], "d_lambda": [100.0],
            "geometries_lambda": [[0.5, 100.0]], "n_mc_tolerance": 3,
            "sigma_step_db": 0.001, "n_mc_precode": 4, "sigma_dut_db": [0.0, 1.0],
            "snr_db": [10.0], "alpha_offsets_deg": [0.0]}
    ARGV = {"fom": ["fom", "--ies-lambda", "0.5", "--d-lambda", "100"],
            "sweep": ["sweep"], "tolerance": ["tolerance"], "precode": ["precode"]}
    ARRAY_KEYS = ({"n_elements": 40, "taper_edge": 10}, {"taper_depth_db": -3.0},
                  {"taper_endpoint": "inclusive"})
    ZONE_KEYS = ({"mesh_pitch_lambda": 0.25}, {"tz_radius_lambda": 3.0})
    # each limit below the base cell's error-free value, which fom then fails on and the
    # tolerance search at its first level, naming that FoM
    LIMIT_KEYS = ({"limits": {"sigma_mag_db": 0.15, "r_mag_db": 1.0, "r_phs_deg": 10.0}},
                  {"limits": {"sigma_mag_db": 0.25, "r_mag_db": 0.7, "r_phs_deg": 10.0}},
                  {"limits": {"sigma_mag_db": 0.25, "r_mag_db": 1.0, "r_phs_deg": 7.5}})
    # each moves the tolerated deviation itself, not only the n_mc and seed columns
    TOLERANCE_KEYS = ({"sigma_step_db": 0.002}, {"n_mc_tolerance": 5}, {"max_sigma_db": 0.005},
                      {"tolerance_fail_rule": "majority"}, {"seed": 1})
    STUDY_KEYS = ({"snr_db": [20.0]}, {"sigma_dut_db": [0.0, 2.0]}, {"alpha_offsets_deg": [15.0]},
                  {"n_mc_precode": 5}, {"dut_elements": 25}, {"dut_ies_lambda": 1.0}, {"seed": 1})
    READS = {"fom": ARRAY_KEYS + ZONE_KEYS + LIMIT_KEYS, "sweep": ARRAY_KEYS + ZONE_KEYS,
             "tolerance": ARRAY_KEYS + ZONE_KEYS + TOLERANCE_KEYS + LIMIT_KEYS,
             "precode": ARRAY_KEYS + STUDY_KEYS}

    @pytest.mark.parametrize("command", ["fom", "sweep", "tolerance", "precode"])
    def test_key_changes_rows(self, tmp_path, command):
        def rows(patch, name):
            code, data = run_cli(tmp_path, self.ARGV[command], name=name,
                                 config={**self.BASE, **patch})
            assert code == 0, patch
            return data.decode().splitlines()[2:]

        base = rows({}, "base.csv")
        for i, patch in enumerate(self.READS[command]):
            assert rows(patch, f"p{i}.csv") != base, patch

    def test_every_table_key_is_patched(self):
        from otazone import config
        tables = (config._CHAMBER_TABLE, config._TOLERANCE_TABLE, config._DUT_TABLE,
                  config._STUDY_TABLE)
        patched = {key for patches in self.READS.values() for patch in patches for key in patch}
        assert patched == {key for _, fields in tables for key in fields} | {"limits"}
        # one limit per patch, each limit once
        default = config._DEFAULTS["limits"]
        changed = [[k for k, v in patch["limits"].items() if v != default[k]]
                   for patch in self.LIMIT_KEYS]
        assert sorted(changed) == [[k] for k in sorted(config._LIMIT_FIELDS)]


def test_readme_key_table_names_every_key():
    from otazone.config import _DEFAULTS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| Key | Default | Read by |"):].split("\n\n")[0]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert len(keys) == len(set(keys)) and set(keys) == set(_DEFAULTS)


def test_cli_import_leaves_thread_pool_unloaded():
    # the tolerance search imports concurrent.futures (~6 ms) only when it scores
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = "import sys, otazone.cli; print(sorted(m for m in sys.modules if 'concurrent' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"
