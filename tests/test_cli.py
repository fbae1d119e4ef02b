import ast
import configparser
import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import transcend_ug
from conftest import reference_render, rows
from transcend_ug import cli, config, sweep
from transcend_ug.cli import run
from transcend_ug.config import (
    PARAMS,
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    loads_config,
    resolve,
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
        assert cfg["agent.allocator.fairness_mode"] == "baseline"
        assert cfg["game.grid_step"] == 0.01
        assert cfg["payoff.k"] == 16.0
        assert cfg["payoff.lambda"] == 2.0

    # loading only reads a file; resolve checks it, naming the same config path
    def test_low_lambda_names_field(self):
        with pytest.raises(ConfigError, match=r"payoff\.lambda"):
            resolve(loads_config(MINIMAL + "\n[payoff]\nlambda = 0.5\n"))

    def test_gamma_out_of_range_names_field(self):
        bad = MINIMAL.replace("gamma = 0.5", "gamma = 1.2", 1)
        with pytest.raises(ConfigError, match=r"agent\.allocator\.gamma"):
            resolve(loads_config(bad))

    def test_unknown_key_rejected(self):
        # keys match exactly, as sections do, so a key in another case is unknown
        for key in ("grid_size", "GRID_STEP", "Grid_Step"):
            with pytest.raises(ConfigError, match=rf"^unknown key game\.{key} in <config>$"):
                loads_config(MINIMAL + f"\n[game]\n{key} = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            loads_config(MINIMAL + "\n[plotting]\ncolor = red\n")

    # configparser would otherwise read [DEFAULT] as keys for every section
    @pytest.mark.parametrize("text", ["[DEFAULT]\ngrid_step = 0.5\n", MINIMAL + "\n[DEFAULT]\ngamma = 0.3\n"],
                             ids=["alone", "beside-agent-sections"])
    def test_default_section_rejected(self, text):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            loads_config(text)

    def test_parse_error_carries_location(self):
        with pytest.raises(ConfigError, match="parse error"):
            loads_config("gamma = 0.5\n")  # key outside any section

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.cfg")

    def test_linear_family_skips_lambda_check(self):
        cfg = loads_config(MINIMAL + "\n[payoff]\nfamily = linear\nlambda = 0.5\n")
        assert cfg["payoff.family"] == "linear"
        resolve(cfg)

    @pytest.mark.parametrize(
        "section, key, raw",
        [("game", "accept_threshold", "nan"), ("game", "tolerance", "inf"),
         ("agent.recipient", "tau", "nan"), ("payoff", "lambda", "inf"),
         ("sweep", "d_max", "inf"), ("sweep", "split_step", "-inf")],
    )
    def test_non_finite_value_names_field(self, section, key, raw):
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be finite"):
            resolve(loads_config(f"[{section}]\n{key} = {raw}\n"))

    def test_round_trip_is_identity(self):
        cfg = loads_config(MINIMAL + "\n[game]\ngrid_step = 0.05\n[payoff]\nk = 7.5\n")
        assert loads_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.path)
    def test_configs_that_differ_in_one_key_are_unequal(self, p):
        # so that the round trip above compares every key
        cfg = RunConfig()
        value = cfg[p.path]
        cfg[p.path] = not value if p.type is bool else value + (1.0 if p.type is float else "x")
        assert cfg != RunConfig() and RunConfig() == RunConfig()


# A value whose text cannot be read, or is not one of its choices, and the message it gets
BAD_VALUES = [
    ("game", "grid_step", "fine", "game.grid_step must be a number, got 'fine'"),
    ("game", "own_tau_zero", "maybe", "game.own_tau_zero must be a boolean, got 'maybe'"),
    ("game", "tie_break", "nearest", "game.tie_break must be one of closest_to_equal, lowest_own_share, "
                                     "highest_own_share; got 'nearest'"),
    ("sweep", "axis1_values", "0.1,x", "sweep.axis1_values must be a comma-separated list of numbers, got '0.1,x'"),
]


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
            ["utility-curves", "--curve-param", "d", "--curve-values", "0.5,-1"],
            ["game-grid", "--axis2", "recipient.d", "--axis2-values", "0.1,inf"],
            ["acceptance-matrix", "--d-min", "-1"],
            # a large tie tolerance must not let an uneven step through
            ["tau-curves", "--tolerance", "0.5", "--d-step", "0.3", "--d-max", "1", "--gamma", "0.5"],
            ["play", "--tolerance", "0.5", "--grid-step", "0.3"],
            # comma lists are parsed at resolution, whatever the subcommand
            ["play", "--print-config", "--axis1-values", "nan"],
            ["play", "--print-config", "--curve-values", "0.5,inf"],
            ["play", "--gamma", "nan"],
            # sweep entries are range-checked at resolution, whatever the subcommand
            ["play", "--print-config", "--gamma", "1.5"],
            ["play", "--print-config", "--curve-values", "-1"],
            ["play", "--print-config", "--axis1", "bogus.x"],
            ["game-grid", "--axis1", "referee.gamma"],
            ["utility-curves", "--curve-param", "epsilon"],
            # the largest tie tolerance must not let an uneven step through either
            ["play", "--tolerance", "1e-6", "--grid-step", "0.3"],
        ],
    )
    def test_non_finite_or_out_of_range_value_exits_2(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("section, key, raw, message", BAD_VALUES)
    def test_bad_config_file_value_exits_2_naming_its_path(self, tmp_path, section, key, raw, message,
                                                           capsys):
        # a file key's text is read and checked as a flag's is; see the test below
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[{section}]\n{key} = {raw}\n")
        assert run(["game-grid", "--config", str(cfg_file), "--output", str(tmp_path / "grid.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("section, key, raw, message", [c for c in BAD_VALUES if c[1] != "own_tau_zero"])
    def test_bad_flag_value_gets_the_config_file_message(self, tmp_path, section, key, raw, message):
        # own_tau_zero is a switch: its flag takes no text
        flag = next(p.flag for p in PARAMS if p.path == f"{section}.{key}")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[{section}]\n{key} = {raw}\n")
        from_flag = _run_logged(["game-grid", flag, raw])
        assert from_flag == _run_logged(["game-grid", "--config", str(cfg_file)]) == (2, "", [message])

    def test_default_section_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[DEFAULT]\ngrid_step = 0.5\n")
        assert run(["play", "--config", str(cfg_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown section [DEFAULT]" in err

    @pytest.mark.parametrize("extra", [[], ["--print-config"]], ids=["run", "print-config"])
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, extra, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"[game]\ngrid_step = 0.05\xff\n")
        assert run(["play", "--config", str(cfg_file)] + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"ERROR cannot read config {cfg_file}: 'utf-8' codec can't decode byte 0xff")

    def test_help_is_printed_before_flag_text_is_read(self, capsys):
        assert run(["play", "--grid-step", "x", "-h"]) == 0
        assert "--grid-step" in capsys.readouterr().out

    def test_flag_overrides_a_bad_file_value(self, tmp_path, capsys):
        # flags win: a file value they override is read, but never range-checked or used
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(MINIMAL + "\n[payoff]\nlambda = 0.5\n")
        argv = ["play", "--config", str(cfg_file), "--payoff-lambda", "3"]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(argv + ["--print-config"]) == 0
        assert loads_config(capsys.readouterr().out)["payoff.lambda"] == 3.0

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "grid.csv"
        assert run(["game-grid", "--output", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "No such file or directory" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_failed_replace_removes_the_temp_file(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        out.mkdir()  # the written temp file cannot replace a directory
        assert run(["game-grid", "--output", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert str(out) in stderr
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["play", "--grid-step", "1e-9"], "game.grid_step 1e-09 gives 1000000001 points"),
            (["acceptance-matrix", "--split-step", "1e-9"], "sweep.split_step 1e-09 gives 1000000001 points"),
            (["tau-curves", "--d-step", "1e-9"], "sweep.d_step 1e-09 gives 2400000001 points"),
            (["play", "--print-config", "--d-step", "1e-9"], "sweep.d_step 1e-09 gives 2400000001 points"),
            (["utility-curves", "--grid-step", "1e-5"], "utility-curves would emit 1500015 rows"),
            (["acceptance-matrix", "--d-step", "0.0001", "--split-step", "0.001"],
             "acceptance-matrix would emit 24025001 rows"),
        ],
    )
    def test_oversized_axis_or_output_exits_2_before_building_it(self, argv, message, capsys):
        # each of these would need far more memory than exists if it were built
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["play", "--allocator-d", "-1"], "agent.allocator.distance"),
            (["play", "--payoff-lambda", "0.5"], "payoff.lambda"),
            (["play", "--payoff-k", "-1"], "payoff.k"),
            (["play", "--recipient-gamma", "1.5"], "agent.recipient.gamma"),
            (["play", "--allocator-tau", "2"], "agent.allocator.tau must lie in [0,1], got 2.0"),
            (["play", "--recipient-tau", "-1", "--recipient-mode", "agent_tau"], "agent.recipient.tau must lie"),
            (["play", "--grid-step", "0.7"], "game.grid_step"),
            (["play", "--tolerance", "0"], "game.tolerance"),
            (["game-grid", "--axis1", "allocator.gamma", "--axis1-values", "0.5,1.5",
              "--axis2", "recipient.d", "--axis2-values", "0.1,0.2"], "sweep.axis1_values must lie in [0,1]"),
            (["tau-curves", "--gamma", "1.5"], "sweep.gammas must lie in [0,1]"),
            (["play", "--print-config", "--axis2", "recipient.tau", "--axis2-values", "0.5,2"],
             "sweep.axis2_values must lie in [0,1]"),
            (["acceptance-matrix", "--d-min", "-1"], "sweep.d_min must be finite and >= 0"),
            (["acceptance-matrix", "--split-step", "0.3"], "sweep.split_step 0.3 does not divide"),
            (["tau-curves", "--d-step", "0.5"], "sweep.d_step 0.5 does not divide"),
            (["play", "--tolerance", "100", "--recipient-mode", "agent_tau", "--recipient-tau", "0.9"],
             "game.tolerance must lie in (0, 1e-06]"),
            (["play", "--print-config", "--axis1", "allocator.gamma", "--axis2", "allocator.gamma"],
             "sweep.axis2 must differ from sweep.axis1"),
            (["game-grid", "--axis1", "allocator.gamma", "--axis2", "allocator.gamma"],
             "sweep.axis2 must differ from sweep.axis1"),
            (["tau-curves", "--print-config", "--d-step", "0.7"], "sweep.d_step 0.7 does not divide"),
            (["acceptance-matrix", "--print-config", "--d-step", "0.7"], "sweep.d_step 0.7 does not divide"),
            (["acceptance-matrix", "--print-config", "--split-step", "0.3"], "sweep.split_step 0.3 does not divide"),
            (["utility-curves", "--print-config", "--d-step", "0.7"], "sweep.d_step 0.7 does not divide"),
            (["play", "--payoff-lambda", "1e308"], "payoff.lambda must be at most"),
            # a step longer than its span would give an axis of one point and no interval
            (["tau-curves", "--d-max", "1e-10"], "sweep.d_step 0.2 is longer than the span [0.0, 1e-10]"),
            (["tau-curves", "--print-config", "--d-max", "1e-10"], "sweep.d_step 0.2 is longer than the span"),
            (["acceptance-matrix", "--split-step", "1e10"], "sweep.split_step 10000000000.0 is longer than the span"),
            (["utility-curves", "--d-step", "1e12"], "sweep.d_step 1000000000000.0 is longer than the span"),
            # an empty entry in a comma list is a missing value, not a shorter list
            (["tau-curves", "--gamma", "0.2,,0.4"], "sweep.gammas has an empty entry, got '0.2,,0.4'"),
            (["utility-curves", "--curve-values", "0.5,"], "sweep.curve_values has an empty entry"),
            (["play", "--print-config", "--axis2-values", ",0.5"], "sweep.axis2_values has an empty entry"),
        ],
    )
    def test_constructor_range_error_names_config_path(self, argv, path, capsys):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert path in err

    @pytest.mark.parametrize(
        "argv", [["game-grid", "--d-step", "0.7"], ["utility-curves", "--curve-values", "0.3", "--d-step", "0.7"]]
    )
    def test_step_is_checked_whatever_the_subcommand(self, argv, capsys):
        # neither subcommand builds the distance axis, but its step is checked as for one that does
        for extra in ([], ["--print-config"]):
            assert run(argv + extra) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "sweep.d_step 0.7 does not divide" in err

    def test_largest_tolerance_is_accepted(self, capsys):
        argv = ["play", "--recipient-mode", "agent_tau", "--recipient-tau", "0.9"]
        assert run(argv) == 0
        default = capsys.readouterr().out
        assert run(argv + ["--tolerance", "1e-6"]) == 0
        assert capsys.readouterr().out == default
        assert json.loads(default)["accepted"] is False

    def test_linear_lens_skips_lambda_and_k(self, capsys):
        assert run(["play", "--payoff-family", "linear", "--payoff-lambda", "0.5", "--payoff-k", "-3"]) == 0

    @pytest.mark.parametrize("command", ["acceptance-matrix", "tau-curves", "utility-curves"])
    def test_tiny_tolerance_keeps_default_axes(self, command, capsys):
        assert run([command]) == 0
        default = capsys.readouterr().out
        assert run([command, "--tolerance", "1e-300"]) == 0
        assert capsys.readouterr().out == default


def _resolutions(monkeypatch):
    """The list that each resolution a call makes, through either module's binding, is appended to."""
    made = []

    def counted(cfg):
        made.append(resolve(cfg))
        return made[-1]

    monkeypatch.setattr(cli, "resolve", counted)
    monkeypatch.setattr(config, "resolve", counted)
    return made


# One resolution per call, and the run gets the very objects it built: a
# second path that rebuilt the game or a player from the config would fail here.
def test_play_gets_the_objects_resolve_built(monkeypatch, capsys):
    made, calls, real = _resolutions(monkeypatch), [], cli.play
    monkeypatch.setattr(cli, "play", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    assert run(["play"]) == 0
    [resolved], [(allocator, recipient, game)] = made, calls
    assert allocator is resolved.allocator and recipient is resolved.recipient and game is resolved.game


def test_a_config_file_call_resolves_once(monkeypatch, tmp_path, capsys):
    # loading a file only reads it; the config the flags override is resolved once
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL)
    made, calls, real = _resolutions(monkeypatch), [], cli.play
    monkeypatch.setattr(cli, "play", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    assert run(["play", "--config", str(cfg_file), "--allocator-gamma", "0.3"]) == 0
    [resolved], [(allocator, recipient, game)] = made, calls
    assert allocator is resolved.allocator and recipient is resolved.recipient and game is resolved.game
    assert allocator.gamma == 0.3


def test_a_sweep_gets_the_objects_resolve_built(monkeypatch, capsys):
    made, calls = _resolutions(monkeypatch), []
    empty = sweep.Table(sweep.GAME_GRID_COLUMNS, [])
    monkeypatch.setattr(sweep, "game_grid", lambda *args: calls.append(args) or empty)
    assert run(["game-grid"]) == 0
    [resolved], [(allocator, recipient, game, (_, axis1), (_, axis2))] = made, calls
    assert allocator is resolved.allocator and recipient is resolved.recipient and game is resolved.game
    assert axis1 is resolved.lists["axis1_values"] and axis2 is resolved.lists["axis2_values"]


def test_comma_lists_are_checked_in_order_and_the_first_fault_is_named():
    # an out-of-range gamma and a non-number in the last list: parsing every list
    # before checking any would name sweep.axis2_values instead
    argv = ["game-grid", "--gamma", "1.5", "--axis2-values", "0.5,x"]
    rc, out, err = _run_captured(argv)
    assert (rc, out) == (2, "")
    assert "sweep.gammas must lie in [0,1], got 1.5" in err
    assert "sweep.axis2_values" not in err


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

    def test_off_grid_offer_snapped_with_warning(self, capsys):
        assert run(["play", "--offer", "0.333", "--recipient-mode", "baseline"]) == 0
        out, err = capsys.readouterr()
        assert "snapped" in err
        record = json.loads(out)
        assert record["payoff_recipient"] == pytest.approx(0.33)

    # an offer exactly half a cell between two grid points goes to the even cell (round half to even)
    @pytest.mark.parametrize("step, offer, snapped", [("0.5", "0.25", 0.0), ("0.5", "0.75", 1.0),
                                                      ("0.25", "0.125", 0.0), ("0.25", "0.375", 0.5)])
    def test_half_cell_offer_snaps_to_the_even_cell(self, step, offer, snapped, capsys):
        assert run(["play", "--grid-step", step, "--offer", offer]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["proposed_split"] == 1.0 - snapped
        assert err == f"WARNING off-grid share {offer} snapped to {snapped:g}\n"

    # an association recipient's threshold 1 - gamma^d moves with d, so one
    # offer can be rejected, then accepted, then rejected again as d grows
    @pytest.mark.parametrize("d, accepted", [("0.5", False), ("1.8", True), ("5", False)])
    def test_association_acceptance_is_not_monotone_in_distance(self, d, accepted, capsys):
        assert run(["play", "--offer", "0.96", "--recipient-mode", "association", "--recipient-gamma", "0.5",
                    "--recipient-d", d, "--payoff-k", "5.96", "--payoff-lambda", "2.12"]) == 0
        assert json.loads(capsys.readouterr().out)["accepted"] is accepted

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


def test_every_output_has_the_readme_columns(capsys):
    # the README's "CSV schemas" table and its play bullet are the only
    # written copies of the columns besides their declaration next to each
    # sweep; the declared names must be the README's, the rows' keys and the
    # emitted header and keys
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tables = {name: header.split(",") for name, header in re.findall(r"^\| `([a-z-]+)` +\| `([^`]+)` \|$", text, re.M)}
    assert set(tables) == {"utility-curves", "acceptance-matrix", "tau-curves", "game-grid"}
    for command, columns in tables.items():
        cfg = RunConfig()
        build = cli._table(command, cfg, resolve(cfg))[2]
        declared = build().columns
        assert [name for name, _ in declared] == columns
        assert all(list(row) == columns for row in rows(build()))
        assert run([command]) == 0
        assert capsys.readouterr().out.splitlines()[0].split(",") == columns
        assert run([command, "--format", "json"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        assert emitted and all(list(row) == columns for row in emitted)
    record = re.search(r"^\* `play` prints one JSON record: (.*?)\.", text, re.M | re.S).group(1)
    assert run(["play"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == re.findall(r"`(\w+)`", record)


# Floats whose 6-decimal rendering is easy to get wrong: a signed zero, a
# value that rounds to -0.0 or to 0.0, reprs with an exponent, a half-way
# value, and the non-finite floats that JSON writes NaN and Infinity.
_SPECIAL_FLOATS = [-0.0, -4e-7, 1e-07, 1e-05, 5e-05, 1e16, 1.5e16, 0.1234565, math.nan, math.inf, -math.inf]
_TABLES = [sweep.UTILITY_CURVES_COLUMNS, sweep.ACCEPTANCE_MATRIX_COLUMNS, sweep.TAU_CURVES_COLUMNS,
           sweep.GAME_GRID_COLUMNS]
_CELLS = {
    float: st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
    int: st.integers(-2 ** 63, 2 ** 63),
    str: st.sampled_from(["d", "gamma", "tau", sweep.ENVELOPE_MIN, sweep.ENVELOPE_MAX]),
}


@st.composite
def _tables(draw):
    """A table of 1-5 runs of one declared column set.

    Each run fixes a leading prefix of the columns. A varying column is
    either the run's own or one object that other runs of its length and
    cell format share, and an envelope run of utility-curves has a None
    curve_value.
    """
    columns = draw(st.sampled_from(_TABLES))
    kinds = [kind for _, kind in columns]
    shared, runs = {}, []
    for _ in range(draw(st.integers(1, 5))):
        k, n = draw(st.integers(0, len(columns) - 1)), draw(st.integers(1, 6))
        fixed = tuple(draw(_CELLS[kind]) for kind in kinds[:k])
        if k >= 2 and columns == sweep.UTILITY_CURVES_COLUMNS and draw(st.booleans()):
            fixed = (draw(st.sampled_from([sweep.ENVELOPE_MIN, sweep.ENVELOPE_MAX])), None) + fixed[2:]
        varying = []
        for kind in kinds[k:]:
            own = draw(st.lists(_CELLS[kind], min_size=n, max_size=n))
            varying.append(shared.setdefault((kind, n), own) if draw(st.booleans()) else own)
        runs.append((fixed, tuple(varying)))
    return sweep.Table(columns, runs)


@given(table=_tables())
@example(table=sweep.Table(sweep.UTILITY_CURVES_COLUMNS, [
    (("d", v), ([v], [-v], [1], [0])) for v in _SPECIAL_FLOATS
] + [((sweep.ENVELOPE_MAX, None), ([0.5], [0.1234565], [0], [0]))]))
@settings(deadline=None)  # no max_examples, so that CI's --hypothesis-profile=ci can raise it
def test_render_gives_the_reference_bytes(table):
    # the per-run templates write what the renderer that read each cell's type wrote for the table's rows
    for fmt in ("csv", "json"):
        assert "".join(cli._render(table, fmt)) == reference_render(rows(table), fmt)


def _built(argv):
    """The table that a table subcommand's call builds."""
    return cli._effective_config(cli.build_parser().parse_args(argv))[2]()


@pytest.mark.parametrize("argv, name, n", [
    (["utility-curves", "--grid-step", "0.5", "--curve-param", "d", "--curve-values", "0.0,-0.0"], "curve_value", 3),
    (["tau-curves", "--gamma", "0.0,-0.0", "--d-max", "1", "--d-step", "0.5"], "gamma", 3),
    (None, "d", 1),
], ids=["utility-curves", "tau-curves", "equal-columns"])
def test_runs_that_compare_equal_stay_apart(argv, name, n, capsys):
    # a 0.0 run and a -0.0 run of n rows each are two runs, each with its own fixed cell;
    # without argv, two distinct column objects of equal values, 0.0 and -0.0, each get their own text
    for fmt in ("csv", "json"):
        if argv is None:
            table = sweep.Table(sweep.TAU_CURVES_COLUMNS, [((0.5,), ([0.0], [0.0])), ((0.5,), ([-0.0], [-0.0]))])
            out = "".join(cli._render(table, fmt))
        else:
            assert run(argv + ["--format", fmt]) == 0
            out = capsys.readouterr().out
            table = _built(argv + ["--format", fmt])
        assert out == reference_render(rows(table), fmt)
        if fmt == "csv":
            lines = out.splitlines()
            column = lines[0].split(",").index(name)
            cells = [line.split(",")[column] for line in lines[1:2 * n + 1]]
        else:
            cells = [repr(row[name]) for row in json.loads(out)[:2 * n]]
        assert cells == [("0.000000" if fmt == "csv" else "0.0")] * n + [("-0.000000" if fmt == "csv" else "-0.0")] * n


@pytest.mark.parametrize("argv", [
    ["tau-curves", "--gamma", "0.2,0.5,0.9"],
    ["utility-curves", "--grid-step", "0.05"],
    ["acceptance-matrix", "--split-step", "0.1"],
    ["game-grid", "--axis1-values", "0.2,0.6", "--axis2-values", "0.1,0.4,0.7,1.0"],
], ids=lambda argv: argv[0])
def test_a_chunk_holds_at_most_one_run(argv):
    # the render holds one run's text at a time, never the table's
    table = _built(argv)
    assert len(table.runs) > 1
    for fmt, sep in (("csv", "\n"), ("json", ",")):
        # each row's text, as a one-row table gives it, and the longest run's rows joined
        texts = [reference_render([row], fmt) for row in rows(table)]
        texts = [text.splitlines()[1] if fmt == "csv" else text[1:-2] for text in texts]
        longest, start = 0, 0
        for _, varying in table.runs:
            longest = max(longest, len(sep.join(texts[start:start + len(varying[0])])))
            start += len(varying[0])
        chunks = list(cli._render(table, fmt))
        assert "".join(chunks) == reference_render(rows(table), fmt)
        assert max(map(len, chunks)) <= longest
        assert len(chunks) <= 2 * len(table.runs) + 2  # the head, each run after its separator, the end


def _failing_in_second_run(monkeypatch):
    """Make the render of ``tau-curves --gamma 0.25,0.75`` fail at the fixed gamma of its second run."""
    texts = cli._texts

    def failing(column, kind, fmt):
        if list(column) == [0.75]:
            raise RuntimeError("render failed")
        return texts(column, kind, fmt)

    monkeypatch.setattr(cli, "_texts", failing)
    return ["tau-curves", "--gamma", "0.25,0.75"]


def test_a_render_failure_leaves_no_file(tmp_path, monkeypatch, capsys):
    argv = _failing_in_second_run(monkeypatch)
    assert run(argv + ["--output", str(tmp_path / "curves.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "render failed" in err
    assert list(tmp_path.iterdir()) == []


def test_stdout_gets_each_run_as_it_is_rendered(monkeypatch, capsys):
    # the first run is written before the second is rendered, so a failure leaves it on stdout
    argv = _failing_in_second_run(monkeypatch)
    table = _built(argv)
    first = reference_render(rows(sweep.Table(table.columns, table.runs[:1])), "csv")
    assert run(argv) == 1
    assert capsys.readouterr().out == first[:-1]  # the header and the first run, with no closing newline


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

    def test_byte_order_mark_is_not_read_as_text(self, tmp_path, capsys):
        # some editors start a UTF-8 file with a byte-order mark
        dumps = []
        for name, encoding in (("plain.cfg", "utf-8"), ("marked.cfg", "utf-8-sig")):
            (tmp_path / name).write_text(MINIMAL + "\n[game]\ngrid_step = 0.05\n", encoding=encoding)
            assert run(["play", "--config", str(tmp_path / name), "--print-config"]) == 0
            dumps.append(capsys.readouterr().out)
        assert (tmp_path / "marked.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
        assert dumps[0] == dumps[1] and "grid_step = 0.05\n" in dumps[0]

    def test_repeat_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["utility-curves", "--allocator-mode", "agent_tau", "--allocator-tau", "0.5"]
        assert run(argv + ["--output", str(out1)]) == 0
        assert run(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_every_export_resolves():
    for name in transcend_ug.__all__:
        assert getattr(transcend_ug, name) is not None, name
    namespace = {}
    exec("from transcend_ug import *", namespace)
    assert set(transcend_ug.__all__) <= set(namespace)


# Every config field, its flag, a valid value for it, and that value as
# --print-config writes it (None: a switch that takes no value).
FLAG_TABLE = {
    "game.grid_step": ("--grid-step", "0.05", "0.05"),
    "game.accept_threshold": ("--accept-threshold", "0.1", "0.1"),
    "game.tie_break": ("--tie-break", "lowest_own_share", "lowest_own_share"),
    "game.tolerance": ("--tolerance", "1e-8", "1e-08"),
    "game.own_tau_zero": ("--own-tau-zero", None, "true"),
    "agent.allocator.gamma": ("--allocator-gamma", "0.3", "0.3"),
    "agent.allocator.distance": ("--allocator-d", "1.5", "1.5"),
    "agent.allocator.fairness_mode": ("--allocator-mode", "agent_tau", "agent_tau"),
    "agent.allocator.tau": ("--allocator-tau", "0.25", "0.25"),
    "agent.recipient.gamma": ("--recipient-gamma", "0.7", "0.7"),
    "agent.recipient.distance": ("--recipient-d", "2", "2.0"),
    "agent.recipient.fairness_mode": ("--recipient-mode", "association", "association"),
    "agent.recipient.tau": ("--recipient-tau", "0.4", "0.4"),
    "payoff.family": ("--payoff-family", "linear", "linear"),
    "payoff.k": ("--payoff-k", "12.5", "12.5"),
    "payoff.lambda": ("--payoff-lambda", "2.5", "2.5"),
    "sweep.d_min": ("--d-min", "0.2", "0.2"),
    "sweep.d_max": ("--d-max", "2.2", "2.2"),
    "sweep.d_step": ("--d-step", "0.4", "0.4"),
    "sweep.split_step": ("--split-step", "0.1", "0.1"),
    "sweep.curve_param": ("--curve-param", "gamma", "gamma"),
    "sweep.curve_values": ("--curve-values", "0.1,0.2", "0.1,0.2"),
    "sweep.gammas": ("--gamma", "0.3,0.5", "0.3,0.5"),
    "sweep.axis1": ("--axis1", "allocator.d", "allocator.d"),
    "sweep.axis1_values": ("--axis1-values", "0.5,1", "0.5,1"),
    "sweep.axis2": ("--axis2", "recipient.d", "recipient.d"),
    "sweep.axis2_values": ("--axis2-values", "0.2,0.3", "0.2,0.3"),
    "output.path": ("--output", "out.csv", "out.csv"),
    "output.format": ("--format", "json", "json"),
}

# The option strings each subcommand's --help listed before the flags
# were derived from the config fields.
HELP_OPTIONS = {
    "-h", "--help", "--config", "--output", "--format", "--print-config",
    "--grid-step", "--accept-threshold", "--tie-break", "--tolerance", "--own-tau-zero",
    "--allocator-gamma", "--allocator-d", "--allocator-mode", "--allocator-tau",
    "--recipient-gamma", "--recipient-d", "--recipient-mode", "--recipient-tau",
    "--payoff-family", "--payoff-k", "--payoff-lambda",
    "--d-min", "--d-max", "--d-step", "--split-step", "--curve-param", "--curve-values",
    "--gamma", "--axis1", "--axis1-values", "--axis2", "--axis2-values",
}


class TestParameterTable:
    def test_table_covers_every_field(self):
        assert {p.path for p in PARAMS} == set(FLAG_TABLE)
        assert {p.path: p.flag for p in PARAMS} == {path: row[0] for path, row in FLAG_TABLE.items()}

    @pytest.mark.parametrize("path", sorted(FLAG_TABLE))
    def test_flag_reaches_its_config_key(self, path, capsys):
        flag, value, printed = FLAG_TABLE[path]
        assert run(["play", flag] + ([value] if value is not None else []) + ["--print-config"]) == 0
        text = capsys.readouterr().out
        section, _, key = path.rpartition(".")
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        assert cp[section][key] == printed
        assert dump_config(loads_config(text)) == text

    @pytest.mark.parametrize(
        "command", ["play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid"]
    )
    def test_help_lists_the_same_options(self, command, capsys):
        assert run([command, "--help"]) == 0
        text = capsys.readouterr().out
        listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text))
        assert listed == HELP_OPTIONS | ({"--offer"} if command == "play" else set())
        # resolve checks a choice, but the help still lists the values a choice flag takes
        assert all(f"\n  {p.flag} {{{','.join(p.choices)}}}" in text for p in PARAMS if p.choices)


@pytest.mark.parametrize("command", ["play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid"])
def test_an_abbreviated_flag_is_an_error(command, tmp_path):
    # argparse would take an unambiguous prefix for its flag; a flag is spelled in full, as a config key is.
    # Each flag gets a value it accepts, so that only the prefix can make the call fail.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL)
    values = {flag: value for flag, value, _ in FLAG_TABLE.values()}
    values.update({"--config": str(cfg_file), "--output": str(tmp_path / "out.csv"), "--offer": "0.3",
                   "--print-config": None, "--help": None})
    flags = HELP_OPTIONS - {"-h"} | ({"--offer"} if command == "play" else set())
    prefixes = [(flag[:n], values[flag]) for flag in sorted(flags) for n in range(3, len(flag))
                if flag[:n] not in flags]  # --axis1 is a flag, not a prefix of --axis1-values
    assert len(prefixes) > 250
    for prefix, value in prefixes:
        argv = [command, prefix if value is None else f"{prefix}={value}"]
        assert _run_captured(argv)[:2] == (2, ""), argv
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def _run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(argv)
    return rc, out.getvalue()


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)


_player = st.fixed_dictionaries({
    "gamma": st.floats(0.0, 1.0), "d": st.floats(0.0, 5.0),
    "mode": st.sampled_from(["baseline", "agent_tau", "association"]), "tau": st.floats(0.0, 1.0),
})


@given(
    alloc=_player, recip=_player,
    step=st.sampled_from(["0.5", "0.25", "0.1", "0.05", "0.02"]),
    family=st.sampled_from(["linear", "exp_value"]),
    k=st.floats(0.5, 30.0), lam=st.floats(1.01, 5.0),
    tie_break=st.sampled_from(["closest_to_equal", "lowest_own_share", "highest_own_share"]),
    threshold=st.floats(-1.0, 1.0), own_tau_zero=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_in_range_config_emits_only_finite_floats(alloc, recip, step, family, k, lam, tie_break,
                                                   threshold, own_tau_zero):
    # flag=value, so that argparse reads a value such as -2e-97 as a value
    argv = [f"--grid-step={step}", f"--payoff-family={family}", f"--payoff-k={k!r}", f"--payoff-lambda={lam!r}",
            f"--tie-break={tie_break}", f"--accept-threshold={threshold!r}", "--format=json"]
    argv += ["--own-tau-zero"] if own_tau_zero else []
    for role, p in (("allocator", alloc), ("recipient", recip)):
        argv += [f"--{role}-gamma={p['gamma']!r}", f"--{role}-d={p['d']!r}",
                 f"--{role}-mode={p['mode']}", f"--{role}-tau={p['tau']!r}"]
    for command in (["play"], ["utility-curves", "--curve-values", "0,0.5,2"]):
        rc, out = _run_quiet(command + argv)
        assert rc == 0
        emitted = list(_floats(json.loads(out)))
        assert emitted and all(map(math.isfinite, emitted))


_FLOAT_FLAGS = [p.flag for p in PARAMS if p.type is float]
_LIST_FLAGS = ["--curve-values", "--gamma", "--axis1-values", "--axis2-values"]
_bad_settings = st.one_of(
    st.tuples(st.sampled_from(_FLOAT_FLAGS), st.sampled_from(["nan", "inf", "-inf"])),
    st.tuples(st.sampled_from(_LIST_FLAGS), st.sampled_from(["nan", "0.5,inf", "-inf,0.2"])),
    st.tuples(st.sampled_from(["--allocator-gamma", "--recipient-gamma", "--allocator-tau", "--recipient-tau"]),
              st.sampled_from(["-0.1", "1.5"])),
    st.tuples(st.sampled_from(["--allocator-d", "--recipient-d"]), st.sampled_from(["-1", "-1e-300"])),
    st.tuples(st.sampled_from(["--tolerance", "--d-step", "--split-step", "--payoff-k"]),
              st.sampled_from(["-1", "0"])),
    st.tuples(st.just("--payoff-lambda"), st.sampled_from(["1", "0.5", "1e308"])),
    st.tuples(st.just("--tolerance"), st.just("100")),
    # a sweep entry outside the range of the parameter it sets
    st.tuples(st.sampled_from(["--gamma", "--axis1-values", "--axis2-values", "--curve-values", "--d-min"]),
              st.sampled_from(["-1", "-0.1,0.5"])),
    st.tuples(st.just("--grid-step"), st.sampled_from(["0", "0.7", "0.03"])),
    st.tuples(st.just("--d-max"), st.sampled_from(["0", "-1"])),
    # over the point budget: rejected before any axis is built
    st.tuples(st.sampled_from(["--grid-step", "--split-step", "--d-step"]),
              st.floats(1e-300, 1e-6).map(repr)),
    # an uneven sweep step or an empty sweep list, whether or not the subcommand reads it
    st.sampled_from([("--d-step", "0.7"), ("--split-step", "0.3"), ("--gamma", ",")]),
    # a sweep step longer than its span, whether or not the subcommand reads it
    st.sampled_from([("--d-max", "1e-10"), ("--split-step", "1e10"), ("--d-step", "1e12")]),
    # an empty entry in a comma list
    st.tuples(st.sampled_from(_LIST_FLAGS), st.sampled_from(["0.2,,0.4", "0.5,", ",0.5"])),
)


@given(
    command=st.sampled_from(["play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid"]),
    bad=_bad_settings, print_config=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_invalid_config_exits_2_with_empty_stdout(command, bad, print_config):
    flag, value = bad
    rc, out = _run_quiet([command, f"{flag}={value}"] + (["--print-config"] if print_config else []))
    assert (rc, out) == (2, "")


def _run_logged(argv):
    """Exit code, stdout and the messages of one CLI call: each stderr line without its ERROR or WARNING word."""
    rc, out, err = _run_captured(argv)
    return rc, out, [line.partition(" ")[2] for line in err.splitlines()]


# Sweep and player settings: some invalid alone (an uneven or oversized step, a
# step longer than its span, an empty list or list entry, an out-of-range list),
# some only together (a tau sweep and a mode), and play's --offer: out of range,
# not finite, or off the grid, which is valid.
# Every valid combination runs in a few milliseconds.
_SETTINGS = [
    ("--d-step", "0.7"), ("--d-step", "0.4"), ("--d-step", "1e-9"), ("--d-min", "-1"), ("--d-min", "3"),
    ("--split-step", "0.3"), ("--split-step", "0.25"), ("--split-step", "1e-9"), ("--grid-step", "1e-9"),
    ("--d-max", "1e-10"), ("--split-step", "1e10"), ("--d-step", "1e12"),
    ("--gamma", ","), ("--gamma", "0.2,,0.4"), ("--gamma", "0.3"), ("--gamma", "1.5"),
    ("--axis1-values", ","), ("--axis1-values", "0.5"), ("--axis1-values", "1.5"),
    ("--axis2-values", ","), ("--axis2-values", "0.5,2"),
    ("--curve-values", "0.5"), ("--curve-values", "-1"),
    ("--curve-param", "tau"), ("--curve-param", "gamma"), ("--axis1", "allocator.tau"), ("--axis2", "recipient.tau"),
    *[(f"--{role}-mode", mode) for role in ("allocator", "recipient")
      for mode in ("baseline", "agent_tau", "association")],
    ("--offer", "2"), ("--offer", "-0.1"), ("--offer", "nan"), ("--offer", "0.123"),
]


def _example(command, *chosen):
    return example(command=command, chosen=list(chosen))


@given(command=st.sampled_from(["play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid"]),
       chosen=st.lists(st.sampled_from(_SETTINGS), min_size=1, max_size=2))
@_example("tau-curves", ("--gamma", ","))
@_example("tau-curves", ("--d-max", "1e-10"))
@_example("acceptance-matrix", ("--split-step", "1e10"))
@_example("utility-curves", ("--d-step", "1e12"))
@_example("game-grid", ("--axis1-values", ","))
@_example("utility-curves", ("--curve-param", "gamma"), ("--gamma", ","))
@_example("utility-curves", ("--curve-param", "tau"), ("--allocator-mode", "association"))
@_example("game-grid", ("--axis2", "recipient.tau"), ("--recipient-mode", "association"))
@_example("game-grid", ("--axis1", "allocator.tau"), ("--allocator-mode", "baseline"))
@_example("play", ("--offer", "2"))
@settings(deadline=None)  # no max_examples, so that CI's --hypothesis-profile=ci can raise it
def test_print_config_refuses_what_the_run_refuses(command, chosen):
    offered = any(flag == "--offer" for flag, _ in chosen)
    assume(command == "play" or not offered)  # --offer is play's own flag
    argv = [command] + [f"{flag}={value}" for flag, value in chosen]
    ran, printed = _run_logged(argv), _run_logged(argv + ["--print-config"])
    # a setting is valid or a configuration error: no setting makes the run fail at runtime
    assert ran[0] in (0, 2) and printed[0] in (0, 2)
    assert ran[0] == printed[0]
    if ran[0] == 2:
        # the same message both ways, naming the config key or the offer at fault, and nothing on stdout
        assert ran == printed and ran[1] == ""
        assert any(p.path in message for p in PARAMS for message in ran[2]) or (
            offered and any(message.startswith("offer ") for message in ran[2]))


# Value texts for any parameter but a switch, besides its valid one in
# FLAG_TABLE: out of range, not finite, not a number, empty, and lists with
# an empty entry. None has leading or trailing blanks, which configparser
# strips from a file's value.
_VALUE_TEXTS = ["-1", "1.5", "1e12", "nan", "inf", "x", "", "0.5,2", "0.2,,0.4", ","]


@st.composite
def _one_setting_each(draw):
    """1-3 parameters in PARAMS order, each with a value text; a switch (None) is its bare flag."""
    rows = draw(st.lists(st.sampled_from([p for p in PARAMS if p.path != "output.path"]),  # a path writes a file
                         min_size=1, max_size=3, unique=True))
    return [(p, None if p.type is bool else draw(st.sampled_from([FLAG_TABLE[p.path][1], *_VALUE_TEXTS])))
            for p in sorted(rows, key=PARAMS.index)]


@given(command=st.sampled_from(["play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid"]),
       chosen=_one_setting_each())
@settings(deadline=None)  # no max_examples, so that CI's --hypothesis-profile=ci can raise it
def test_a_flag_and_its_file_key_are_one_setting(tmp_path_factory, command, chosen):
    # the same exit code, stdout and stderr whether each value comes as its flag
    # (FLAG_TABLE's, not the one PARAMS gives) or as its key in a file, written
    # in the order the flags are applied
    flags = [FLAG_TABLE[p.path][0] + ("" if value is None else f"={value}") for p, value in chosen]
    sections = {}
    for p, value in chosen:
        sections.setdefault(p.section, []).append(f"{p.key} = {'true' if value is None else value}\n")
    cfg_file = tmp_path_factory.getbasetemp() / "one-setting.cfg"
    cfg_file.write_text("".join(f"[{section}]\n" + "".join(keys) for section, keys in sections.items()))
    for extra in ([], ["--print-config"]):
        assert _run_captured([command] + flags + extra) == _run_captured([command, "--config", str(cfg_file)] + extra)


_AXES = ["allocator.gamma", "allocator.d", "allocator.tau", "recipient.gamma", "recipient.d", "recipient.tau"]
_values = st.lists(st.sampled_from(["0.0", "0.25", "0.5", "1.0"]), min_size=1, max_size=3).map(",".join)
# utility-curves with an empty curve list, which means the curve parameter's default family
_DEFAULT_CURVES = dict(command="utility-curves", grid_step="0.1", d_axis=(0.0, 0.2, 6), split_step="0.5",
                       curve_values="", gammas="0.0,0.25,0.5", axes=_AXES, axis_values=("0.5", "0.5"))


@given(
    command=st.sampled_from(["utility-curves", "acceptance-matrix", "tau-curves", "game-grid"]),
    grid_step=st.sampled_from(["0.5", "0.25", "0.1", "0.05"]),
    d_axis=st.tuples(st.sampled_from([0.0, 0.5]), st.sampled_from([0.2, 0.25, 0.5]), st.integers(1, 6)),
    split_step=st.sampled_from(["0.5", "0.25", "0.2", "0.1", "0.05"]),
    curve_param=st.sampled_from(["d", "gamma", "tau"]),
    curve_values=st.one_of(st.just(""), _values),
    gammas=_values,
    axes=st.permutations(_AXES),
    axis_values=st.tuples(_values, _values),
)
@example(curve_param="d", **_DEFAULT_CURVES)
@example(curve_param="gamma", **_DEFAULT_CURVES)
@example(curve_param="tau", **_DEFAULT_CURVES)
@settings(deadline=None)  # no max_examples, so that CI's --hypothesis-profile=ci can raise it
def test_counted_rows_are_the_emitted_rows(command, grid_step, d_axis, split_step, curve_param,
                                           curve_values, gammas, axes, axis_values):
    d_min, d_step, steps = d_axis
    argv = [command, f"--grid-step={grid_step}", f"--d-min={d_min!r}", f"--d-max={d_min + d_step * steps!r}",
            f"--d-step={d_step!r}", f"--split-step={split_step}", f"--curve-param={curve_param}",
            f"--curve-values={curve_values}", f"--gamma={gammas}", f"--axis1={axes[0]}", f"--axis2={axes[1]}",
            f"--axis1-values={axis_values[0]}", f"--axis2-values={axis_values[1]}",
            "--allocator-mode=agent_tau", "--recipient-mode=agent_tau"]
    rc, out, _ = _run_logged(argv)
    assert rc == 0
    emitted = len(out.splitlines()) - 1
    # the table the sweep returns holds as many rows as the arithmetic count, and every float cell is finite
    cfg, resolved, build = cli._effective_config(cli.build_parser().parse_args(argv))
    table = build()
    assert len(rows(table)) == cli._table(command, cfg, resolved)[0] == emitted
    floats = [name for name, kind in table.columns if kind is float]
    assert all(math.isfinite(row[name]) for row in rows(table) for name in floats if row[name] is not None)
    # one row over the bound: exit 2 with nothing written, --print-config too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MAX_POINTS", emitted - 1)
        for extra in ([], ["--print-config"]):
            rc, out, messages = _run_logged(argv + extra)
            assert (rc, out) == (2, "")
            assert any(f"{command} would emit {emitted} rows" in m for m in messages)


def test_each_call_logs_to_the_stderr_it_runs_with():
    # A fresh interpreter, free of the streams that pytest's capture installs:
    # each call must write to the sys.stderr of its moment, not to one bound
    # when the package was imported.
    code = textwrap.dedent("""
        import io, sys
        from transcend_ug import cli
        streams = []
        for argv in (["play", "--payoff-lambda", "0.5"], ["play", "--payoff-lambda", "0.5"],
                     ["play", "--offer", "0.123"]):
            sys.stderr = io.StringIO()
            streams.append(sys.stderr)
            cli.run(argv)
        sys.stderr = sys.__stderr__
        print(repr([s.getvalue() for s in streams]))
    """)
    src = str(Path(transcend_ug.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    error = "ERROR payoff.lambda must be finite and > 1 for exp_value lens, got 0.5\n"
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == [
        error, error, "WARNING off-grid share 0.123 snapped to 0.12\n"]


def test_a_call_imports_only_what_it_runs(tmp_path):
    # A fresh interpreter without site, whose .pth files may import any of
    # these. No call runs logging, dataclasses (and the inspect it loads) or
    # typing, so a one-shot process must not pay for importing them; tempfile
    # is for a call that writes a file.
    code = textwrap.dedent("""
        import io, sys
        from transcend_ug import cli
        cli.build_parser()
        sys.stdout = io.StringIO()
        rc = cli.run(["play"])
        sys.stdout = sys.__stdout__
        unused = {"logging", "dataclasses", "inspect", "typing", "tempfile"}
        print([rc, sorted(unused & set(sys.modules))])
        rc = cli.run(["tau-curves", "--output", sys.argv[1]])
        print([rc, sorted(unused - {"tempfile"} & set(sys.modules))])
    """)
    src = str(Path(transcend_ug.__file__).resolve().parents[1])
    out = tmp_path / "curves.csv"
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(out)], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert [ast.literal_eval(line) for line in proc.stdout.splitlines()] == [[0, []], [0, []]]
    assert out.read_text().startswith("gamma,d,tau\n")


def _run_captured(argv):
    """Exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


# Calls that leave each kind of trace a parser could keep: flag overrides,
# play's own flag, --print-config, argparse errors, help and a config error.
_REUSE_ARGV = [
    ["play", "--allocator-gamma", "0.9"], ["play", "--recipient-mode", "agent_tau", "--recipient-tau", "0.6"],
    ["play", "--offer", "0.3"], ["play", "--print-config"], ["tau-curves", "--print-config", "--gamma", "0.3"],
    ["tau-curves", "--gamma", "0.3", "--d-max", "0.4"], ["play", "--bogus"], ["tau-curves", "--offer", "0.3"],
    ["play", "--tie-break", "nope"], ["warp"], [], ["-h"], ["play", "-h"], ["play", "--payoff-lambda", "0.5"],
]


def _every_ordered_pair(test):
    """Run ``test`` first on each ordered pair of the table: a trace one call
    leaves in the parser shows in the next call, so the pairs cover it."""
    for first, second in itertools.product(_REUSE_ARGV, repeat=2):
        test = example(calls=[first, second])(test)
    return test


@_every_ordered_pair
@given(calls=st.lists(st.sampled_from(_REUSE_ARGV), min_size=2, max_size=6))
@settings(deadline=None)
def test_a_reused_parser_keeps_no_state(calls):
    assert cli.build_parser() is cli.build_parser()
    cached = cli.build_parser
    for argv in calls:
        reused = _run_captured(argv)
        cli.build_parser = cached.__wrapped__  # a new parser for this call only
        try:
            assert _run_captured(argv) == reused
        finally:
            cli.build_parser = cached
