import json

import pytest

from transcend_ug.cli import run
from transcend_ug.config import (
    ConfigFileError,
    dump_config,
    load_config,
    loads_config,
)

MINIMAL = """
[agent.allocator]
gamma = 0.5
distance = 1.0

[agent.recipient]
gamma = 0.5
distance = 1.0
"""


class TestLoadConfig:
    def test_minimal_config_gets_documented_defaults(self):
        cfg = loads_config(MINIMAL)
        assert cfg.allocator.fairness_mode == "baseline"
        assert cfg.game.grid_step == 0.01
        assert cfg.payoff.k == 16.0
        assert cfg.payoff.lam == 2.0

    def test_low_lambda_names_field(self):
        with pytest.raises(ConfigFileError, match=r"payoff\.lambda"):
            loads_config(MINIMAL + "\n[payoff]\nlambda = 0.5\n")

    def test_gamma_out_of_range_names_field(self):
        bad = MINIMAL.replace("gamma = 0.5", "gamma = 1.2", 1)
        with pytest.raises(ConfigFileError, match=r"agent\.allocator\.gamma"):
            loads_config(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigFileError, match="unknown key"):
            loads_config(MINIMAL + "\n[game]\ngrid_size = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigFileError, match="unknown section"):
            loads_config(MINIMAL + "\n[plotting]\ncolor = red\n")

    def test_parse_error_carries_location(self):
        with pytest.raises(ConfigFileError, match="parse error"):
            loads_config("gamma = 0.5\n")  # key outside any section

    def test_missing_file(self):
        with pytest.raises(ConfigFileError, match="cannot read"):
            load_config("/nonexistent/run.cfg")

    def test_linear_family_skips_lambda_check(self):
        cfg = loads_config(MINIMAL + "\n[payoff]\nfamily = linear\nlambda = 0.5\n")
        assert cfg.payoff.family == "linear"

    @pytest.mark.parametrize(
        "section, key, raw",
        [("game", "accept_threshold", "nan"), ("game", "tolerance", "inf"),
         ("agent.recipient", "tau", "nan"), ("payoff", "lambda", "inf"),
         ("sweep", "d_max", "inf"), ("sweep", "split_step", "-inf")],
    )
    def test_non_finite_value_names_field(self, section, key, raw):
        with pytest.raises(ConfigFileError, match=rf"{section}\.{key} must be finite"):
            loads_config(f"[{section}]\n{key} = {raw}\n")

    def test_round_trip_is_identity(self):
        cfg = loads_config(MINIMAL + "\n[game]\ngrid_step = 0.05\n[payoff]\nk = 7.5\n")
        assert loads_config(dump_config(cfg)) == cfg


class TestCliExitCodes:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["warp"]) == 2

    def test_config_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL + "\n[payoff]\nlambda = 0.5\n")
        assert run(["play", "--config", str(bad)]) == 2

    def test_flag_violation_exits_2(self):
        assert run(["play", "--allocator-gamma", "1.5"]) == 2

    def test_success_exit_0(self, capsys):
        assert run(["play"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["play", "--accept-threshold", "nan"],
            ["play", "--tolerance", "inf", "--grid-step", "0.3"],
            ["play", "--payoff-k", "inf", "--allocator-mode", "agent_tau", "--allocator-tau", "0.2"],
            ["play", "--payoff-lambda", "inf"],
            ["tau-curves", "--gamma", "0.5,nan", "--d-max", "0.4"],
            ["tau-curves", "--gamma", "1.5"],
            ["play", "--accept-threshold", "nan", "--print-config"],
            ["play", "--payoff-k", "inf", "--print-config"],
            ["play", "--tolerance", "inf", "--grid-step", "0.3", "--print-config"],
            ["tau-curves", "--d-max", "inf"],
            ["acceptance-matrix", "--d-max", "inf"],
            ["game-grid", "--axis1", "allocator.gamma", "--axis1-values", "0.5,1.5",
             "--axis2", "recipient.d", "--axis2-values", "0.1,0.2"],
            ["game-grid", "--axis1-values", ""],
            ["game-grid", "--axis2-values", ""],
            ["utility-curves", "--curve-values", ","],
        ],
    )
    def test_non_finite_or_out_of_range_value_exits_2(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().out == ""


class TestPlayCommand:
    def test_dual_baseline_record(self, capsys):
        assert run(["play", "--allocator-gamma", "0.5", "--recipient-gamma", "0.5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["proposed_split"] == 1.0
        assert record["accepted"] is True
        assert set(record) == {
            "proposed_split",
            "accepted",
            "payoff_allocator",
            "payoff_recipient",
            "util_allocator",
            "util_recipient",
        }

    def test_off_grid_offer_snapped_with_warning(self, capsys, caplog):
        with caplog.at_level("WARNING"):
            assert run(["play", "--offer", "0.333", "--recipient-mode", "baseline"]) == 0
        assert "snapped" in caplog.text
        record = json.loads(capsys.readouterr().out)
        assert record["payoff_recipient"] == pytest.approx(0.33)

    @pytest.mark.parametrize("offer", ["nan", "1.5"])
    def test_offer_outside_unit_interval_exits_2(self, offer, capsys):
        assert run(["play", "--offer", offer]) == 2
        assert capsys.readouterr().out == ""


class TestTauCurvesCommand:
    def test_spot_row_present(self, capsys):
        assert run(["tau-curves", "--gamma", "0.5", "--d-max", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "gamma,d,tau"
        assert "0.500000,1.000000,0.500000" in out.splitlines()

    def test_json_mode_mirrors_fields(self, capsys):
        assert run(["tau-curves", "--gamma", "1.0", "--d-max", "1", "--d-step", "0.5",
                    "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [
            {"gamma": 1.0, "d": 0.0, "tau": 0.0},
            {"gamma": 1.0, "d": 0.5, "tau": 0.0},
            {"gamma": 1.0, "d": 1.0, "tau": 0.0},
        ]


class TestFilesAndPrecedence:
    def test_output_written_atomically(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert run(["acceptance-matrix", "--recipient-mode", "agent_tau",
                    "--recipient-tau", "0.5", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,split,accepted"
        assert not list(tmp_path.glob(".tmp-*"))

    def test_flags_override_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(MINIMAL + "\n[payoff]\nk = 4\n")
        assert run(["play", "--config", str(cfg_file), "--payoff-k", "9",
                    "--print-config"]) == 0
        dumped = capsys.readouterr().out
        assert "k = 9.0" in dumped

    def test_print_config_round_trips(self, tmp_path, capsys):
        assert run(["play", "--print-config"]) == 0
        text = capsys.readouterr().out
        assert loads_config(text) == loads_config(dump_config(loads_config(text)))

    def test_repeat_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["utility-curves", "--allocator-mode", "agent_tau", "--allocator-tau", "0.5"]
        assert run(argv + ["--output", str(out1)]) == 0
        assert run(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
