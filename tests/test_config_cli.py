import json

import numpy as np
import pytest

from otazone import ConfigError, load_config
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
    ])
    def test_bad_value_exits_with_message(self, tmp_path, capsys, config, message):
        code, _ = run_cli(tmp_path, ["fom", "--ies-lambda", "0.7", "--d-lambda", "591"],
                          config=config)
        assert code == 1
        assert message in capsys.readouterr().err

    def test_infeasible_geometry_exit_code(self, tmp_path):
        # D smaller than the zone radius violates the mesh precondition
        code, _ = run_cli(tmp_path, ["fom", "--ies-lambda", "0.7",
                                     "--d-lambda", "5"])
        assert code == 1


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


class TestChamberKeys:
    """Every chamber key changes the output of every subcommand that reads it."""

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
    READS = {"fom": ARRAY_KEYS + ZONE_KEYS, "sweep": ARRAY_KEYS + ZONE_KEYS,
             "tolerance": ARRAY_KEYS + ZONE_KEYS, "precode": ARRAY_KEYS}

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
