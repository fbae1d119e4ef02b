"""Seeded operations for each workload, and the check of each operation's output.

An operation is one ``transcend_ug.cli.run(argv)`` call. A workload is a
list of blocks; every block has the same mix of operation kinds in a
seeded order, so the op list holds the same mix of work whatever the
seed. The seed picks axis values, modes, taus, offers, file contents and
the order inside each block.
"""
from __future__ import annotations

import configparser
import json
import random
import re
from dataclasses import dataclass, field

import oracle

WORKLOADS = ("grid", "export", "requests")

# Blocks per op list. A timed run repeats the whole list, so that each
# operation is timed about eight times or more in a run of 30 s.
LIST_BLOCKS = {"grid": 3, "export": 3, "requests": 15}

# 41 x 25 = 1,025 cells per game-grid call, the size of the sweeps the
# kernel's cost was first measured on; at this size the parser, config and
# rendering front end is about 2% of a call (--trace 1 on this workload).
GRID_AXIS_LENS = (41, 25)
CURVES_STEP = "0.0001"  # 10,001 splits per utility curve
CURVES_PER_CALL = 2  # plus the two envelope pseudo-curves
TAU_GAMMAS = 16  # x 2,401 distances per tau-curves call
TAU_D_STEP = 0.001
TAU_D_RANGES = ((0.0, 2.4), (0.1, 2.5), (0.25, 2.65), (0.5, 2.9))

FAIR_MODES = ("agent_tau", "association")
MODES = ("baseline",) + FAIR_MODES
TIE_BREAKS = ("closest_to_equal", "lowest_own_share", "highest_own_share")
PLAY_STEPS = ("0.01", "0.01", "0.02", "0.05", "0.1", "0.25")

# Default sweep axes of the CLI (sweep.d_* and sweep.split_step).
DEFAULT_D_AXIS = [2.4 * i / 12 for i in range(13)]
DEFAULT_SPLIT_AXIS = [i / 20 for i in range(21)]


@dataclass
class Op:
    kind: str
    argv: list
    spec: dict = field(default_factory=dict)
    rc: int = 0  # expected exit code
    output: str | None = None  # file written through --output, relative to the work dir


def fmt(x: float) -> str:
    return repr(float(x))


def join(values) -> str:
    return ",".join(fmt(v) for v in values)


def _player(r: random.Random, mode: str) -> dict:
    return {
        "gamma": round(r.uniform(0.05, 0.95), 3),
        # d = 0 gives full identification: baseline utility is flat, so every split ties
        "d": 0.0 if r.random() < 0.2 else round(r.uniform(0.0, 2.4), 2),
        "mode": mode,
        "tau": round(r.uniform(0.05, 0.6), 2),
    }


def _player_flags(role: str, p: dict) -> list:
    flags = [f"--{role}-gamma", fmt(p["gamma"]), f"--{role}-d", fmt(p["d"]), f"--{role}-mode", p["mode"]]
    if p["mode"] == "agent_tau":
        flags += [f"--{role}-tau", fmt(p["tau"])]
    return flags


def _axis(r: random.Random, param: str, n: int) -> list:
    """n distinct sorted values for a player parameter."""
    if param == "gamma":
        return [v / 200 for v in sorted(r.sample(range(10, 191), n))]
    if param == "d":
        return [v / 100 for v in sorted(r.sample(range(0, 301), n))]
    return [v / 100 for v in sorted(r.sample(range(0, 91), n))]


def _with(p: dict, param: str, value: float) -> dict:
    return {**p, param: value}


# --- grid -------------------------------------------------------------------


def _grid_op(r: random.Random, modes) -> Op:
    alloc, recip = _player(r, modes[0]), _player(r, modes[1])
    axes = [
        f"{role}.{param}"
        for role, p in (("allocator", alloc), ("recipient", recip))
        for param in ("gamma", "d", "tau")
        if param != "tau" or p["mode"] == "agent_tau"
    ]
    name1, name2 = r.sample(axes, 2)
    values1 = _axis(r, name1.split(".")[1], GRID_AXIS_LENS[0])
    values2 = _axis(r, name2.split(".")[1], GRID_AXIS_LENS[1])
    argv = ["game-grid", "--axis1", name1, "--axis1-values", join(values1),
            "--axis2", name2, "--axis2-values", join(values2)]
    argv += _player_flags("allocator", alloc) + _player_flags("recipient", recip)
    spec = {"alloc": alloc, "recip": recip, "axes": [(name1, values1), (name2, values2)],
            "sample": r.randrange(1 << 30)}
    return Op("grid", argv, spec)


def _grid_blocks(r: random.Random) -> list:
    # Two of three allocators use agent_tau, so the median call is an
    # agent_tau scan rather than a boundary between two kinds of call.
    blocks = []
    for _ in range(LIST_BLOCKS["grid"]):
        combos = [("agent_tau", "agent_tau"), ("agent_tau", "association"), ("association", r.choice(FAIR_MODES))]
        r.shuffle(combos)
        blocks.append([_grid_op(r, modes) for modes in combos])
    return blocks


def _check_grid(op: Op, out: str, **_) -> int:
    lines = out.splitlines()
    (name1, values1), (name2, values2) = op.spec["axes"]
    _expect(lines[0] == "axis1,axis2,proposed_split,accepted", "grid header")
    rows = lines[1:]
    _expect(len(rows) == len(values1) * len(values2), "grid row count")
    r = random.Random(op.spec["sample"])
    for i in r.sample(range(len(rows)), 8):
        v1, v2 = values1[i // len(values2)], values2[i % len(values2)]
        players = {"allocator": op.spec["alloc"], "recipient": op.spec["recip"]}
        for name, value in ((name1, v1), (name2, v2)):
            role, param = name.split(".")
            players[role] = _with(players[role], param, value)
        want = oracle.play(players["allocator"], players["recipient"], oracle.DEFAULT_LENS, oracle.DEFAULT_GAME)
        # every value here has at most 3 decimals, so the printed text is exact
        line = f"{v1:.6f},{v2:.6f},{want['proposed_split']:.6f},{int(want['accepted'])}"
        _expect(rows[i] == line, f"grid row {i}: {rows[i]!r}, expected {line!r}")
    return len(rows)


# --- export -----------------------------------------------------------------


def _curves_op(r: random.Random, mode: str, name: str) -> Op:
    player = _player(r, mode)
    param = r.choice(("d", "gamma", "tau") if mode == "agent_tau" else ("d", "gamma"))
    values = _axis(r, param, CURVES_PER_CALL)
    r.shuffle(values)  # curves are emitted in the order given
    argv = ["utility-curves", "--grid-step", CURVES_STEP, "--format", "json", "--output", name,
            "--curve-param", param, "--curve-values", join(values)]
    argv += _player_flags("allocator", player)
    spec = {"player": player, "param": param, "values": values, "sample": r.randrange(1 << 30)}
    return Op("curves", argv, spec, output=name)


def _taus_op(r: random.Random, name: str | None, n_gammas: int, dense: bool) -> Op:
    gammas = [v / 200 for v in sorted(r.sample(range(1, 200), n_gammas))]
    argv = ["tau-curves", "--gamma", join(gammas)]
    if dense:
        lo, hi = r.choice(TAU_D_RANGES)
        argv += ["--d-min", fmt(lo), "--d-max", fmt(hi), "--d-step", fmt(TAU_D_STEP)]
        n = round((hi - lo) / TAU_D_STEP)
        d_axis = [lo + (hi - lo) * i / n for i in range(n + 1)]
    else:
        d_axis = DEFAULT_D_AXIS
    if name:
        argv += ["--output", name]
    return Op("taus", argv, {"gammas": gammas, "d_axis": d_axis, "sample": r.randrange(1 << 30)}, output=name)


def _export_blocks(r: random.Random) -> list:
    blocks = []
    # Two curve exports per tau export, so the median call is a curve export.
    for b in range(LIST_BLOCKS["export"]):
        blocks.append([
            _curves_op(r, "agent_tau", f"curves-{b}a.json"),
            _curves_op(r, "association", f"curves-{b}b.json"),
            _taus_op(r, f"taus-{b}.csv", TAU_GAMMAS, dense=True),
        ])
    return blocks


_JSON_ROW = re.compile(rb"\{[^{}]*\}")


def _check_curves(op: Op, data: bytes, **_) -> int:
    s = op.spec
    n = int(round(1 / float(CURVES_STEP)))
    per_curve = n + 1
    rows = data.count(b"{")
    _expect(rows == (len(s["values"]) + 2) * per_curve, "curves row count")
    game = {**oracle.DEFAULT_GAME, "cells": n}
    lens = oracle.DEFAULT_LENS
    r = random.Random(s["sample"])
    c = r.randrange(len(s["values"]))
    player = _with(s["player"], s["param"], s["values"][c])
    best, first_ok, grid, utils = oracle.scan(player, lens, game)
    want = {}  # row index -> expected row
    for j in {round(best * n), round(first_ok * n) if first_ok is not None else 0, *r.sample(range(per_curve), 3)}:
        want[c * per_curve + j] = {
            "curve_param": s["param"], "curve_value": s["values"][c], "split": grid[j],
            "utility": utils[j], "is_best_split": int(grid[j] == best),
            "is_min_acceptable": int(grid[j] == first_ok),
        }
    for j in r.sample(range(per_curve), 2):
        family = [oracle.utility(_with(s["player"], s["param"], v), lens, game, grid[j], 1.0 - grid[j])
                  for v in s["values"]]
        for k, (label, agg) in enumerate((("envelope_min", min), ("envelope_max", max))):
            want[(len(s["values"]) + k) * per_curve + j] = {
                "curve_param": label, "curve_value": None, "split": grid[j], "utility": agg(family),
                "is_best_split": 0, "is_min_acceptable": 0,
            }
    for i, m in enumerate(_JSON_ROW.finditer(data)):
        if i in want:
            got, exp = json.loads(m.group()), want.pop(i)
            _expect(got.keys() == exp.keys(), f"curves row {i} keys")
            for key, value in exp.items():
                if isinstance(value, float):
                    _expect(oracle.close(got[key], value), f"curves row {i} {key}")
                else:
                    _expect(got[key] == value, f"curves row {i} {key}")
    _expect(not want, "curves rows missing")
    return rows


def _check_taus(op: Op, out: str = "", data: bytes = b"", **_) -> int:
    lines = (data.decode() if op.output else out).split("\n")
    _expect(lines[0] == "gamma,d,tau" and lines[-1] == "", "taus header")
    rows = len(lines) - 2
    gammas, d_axis = op.spec["gammas"], op.spec["d_axis"]
    _expect(rows == len(gammas) * len(d_axis), "taus row count")
    r = random.Random(op.spec["sample"])
    for i in r.sample(range(rows), min(rows, 16)):
        g, d = gammas[i // len(d_axis)], d_axis[i % len(d_axis)]
        cells = lines[i + 1].split(",")
        _expect(oracle.close(cells[0], g) and oracle.close(cells[1], d), f"taus row {i} axes")
        _expect(oracle.close(cells[2], oracle.tau_of(g, d)), f"taus row {i} tau")
    return rows


# --- requests ---------------------------------------------------------------


def _game(r: random.Random) -> tuple:
    """Seeded game and lens settings with their CLI flags."""
    step = r.choice(PLAY_STEPS)
    game = {"cells": round(1 / float(step)), "tie_break": r.choice(TIE_BREAKS),
            "own_tau_zero": r.random() < 0.25}
    lens = {"family": "linear" if r.random() < 0.15 else "exp_value",
            "k": round(r.uniform(8, 24), 1), "lam": round(r.uniform(1.5, 3.0), 2)}
    flags = ["--grid-step", step, "--tie-break", game["tie_break"], "--payoff-family", lens["family"],
             "--payoff-k", fmt(lens["k"]), "--payoff-lambda", fmt(lens["lam"])]
    if game["own_tau_zero"]:
        flags.append("--own-tau-zero")
    return game, lens, flags


def _play_op(r: random.Random, kind: str, files: dict, name: str) -> Op:
    game, lens, flags = _game(r)
    alloc, recip = _player(r, r.choice(MODES)), _player(r, r.choice(MODES))
    spec = {"alloc": alloc, "recip": recip, "game": game, "lens": lens, "offer": None, "off_grid": False}
    argv = ["play"] + flags + _player_flags("allocator", alloc) + _player_flags("recipient", recip)
    if kind == "offer":
        i = r.randrange(game["cells"] + 1)
        offer = i / game["cells"]
        if r.random() < 0.5 and 0 < i < game["cells"]:
            offer += r.choice((-0.3, 0.3)) / game["cells"]
            spec["off_grid"] = True
        spec["offer"] = offer
        argv += ["--offer", fmt(offer)]
    elif kind == "config":
        files[name] = _config_text(alloc, recip, game, lens)
        argv = ["play", "--config", name]
        if r.random() < 0.5:
            alloc["gamma"] = round(r.uniform(0.05, 0.95), 3)
            argv += ["--allocator-gamma", fmt(alloc["gamma"])]
    return Op(kind, argv, spec)


def _config_text(alloc: dict, recip: dict, game: dict, lens: dict) -> str:
    sections = {"game": {"grid_step": fmt(1 / game["cells"]), "tie_break": game["tie_break"],
                         "own_tau_zero": str(game["own_tau_zero"]).lower()}}
    for role, p in (("allocator", alloc), ("recipient", recip)):
        sections[f"agent.{role}"] = {"gamma": fmt(p["gamma"]), "distance": fmt(p["d"]),
                                     "fairness_mode": p["mode"], "tau": fmt(p["tau"])}
    sections["payoff"] = {"family": lens["family"], "k": fmt(lens["k"]), "lambda": fmt(lens["lam"])}
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def _print_op(r: random.Random) -> Op:
    p = _player(r, r.choice(MODES))
    role = r.choice(("allocator", "recipient"))
    command = r.choice(("play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid"))
    argv = [command, "--print-config"] + _player_flags(role, p)
    expect = {(f"agent.{role}", "gamma"): fmt(p["gamma"]), (f"agent.{role}", "distance"): fmt(p["d"]),
              (f"agent.{role}", "fairness_mode"): p["mode"]}
    if p["mode"] == "agent_tau":
        expect[(f"agent.{role}", "tau")] = fmt(p["tau"])
    return Op("print", argv, {"expect": expect})


def _matrix_op(r: random.Random) -> Op:
    p = _player(r, r.choice(MODES))
    return Op("matrix", ["acceptance-matrix"] + _player_flags("recipient", p), {"recip": p})


def _error_op(r: random.Random, files: dict, name: str) -> Op:
    """A call that is a configuration error: exit 2, nothing on stdout."""
    kind = r.randrange(7)
    if kind == 0:
        argv = ["play", "--grid-step", r.choice(("0.03", "0.07", "0.015", "0.3"))]
    elif kind == 1:
        argv = ["play", "--allocator-gamma", fmt(round(r.uniform(1.01, 3.0), 2))]
    elif kind == 2:
        argv = ["play", "--payoff-lambda", fmt(round(r.uniform(0.1, 0.99), 2))]
    elif kind == 3:
        files[name] = f"[game]\ngrid_step = 0.01\nbogus_{r.randrange(100)} = 1\n"
        argv = ["play", "--config", name]
    elif kind == 4:
        argv = ["tau-curves", "--gamma", f"{fmt(round(r.uniform(0.1, 0.9), 2))},x"]
    elif kind == 5:
        argv = ["play", "--tie-break", r.choice(("random", "fair", "first"))]
    else:
        argv = ["game-grid", "--axis1", "allocator.tau", "--axis2", "recipient.d", "--allocator-mode", "baseline"]
    return Op("error", argv, rc=2)


REQUEST_MIX = (("play",) * 6 + ("offer",) * 4 + ("config",) * 2 + ("print",) * 2
               + ("matrix",) * 2 + ("taus",) * 2 + ("error",) * 2)


def _request_blocks(r: random.Random, files: dict) -> list:
    blocks = []
    for b in range(LIST_BLOCKS["requests"]):
        kinds = list(REQUEST_MIX)
        r.shuffle(kinds)
        block = []
        for i, kind in enumerate(kinds):
            name = f"req-{b}-{i}.ini"
            if kind in ("play", "offer", "config"):
                block.append(_play_op(r, kind, files, name))
            elif kind == "print":
                block.append(_print_op(r))
            elif kind == "matrix":
                block.append(_matrix_op(r))
            elif kind == "taus":
                block.append(_taus_op(r, None, 4, dense=False))
            else:
                block.append(_error_op(r, files, name))
        blocks.append(block)
    return blocks


def _check_play(op: Op, out: str, err: str, **_) -> int:
    s = op.spec
    got = json.loads(out)
    want = oracle.play(s["alloc"], s["recip"], s["lens"], s["game"], s["offer"])
    _expect(got.keys() == want.keys(), "play keys")
    for key, value in want.items():
        if isinstance(value, bool):
            _expect(got[key] is value, f"play {key}")
        else:
            _expect(oracle.close(got[key], value), f"play {key}")
    _expect(("snapped" in err) == s["off_grid"], "play snap warning")
    return 1


def _check_print(op: Op, out: str, **_) -> int:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(out)
    _expect(cp.sections() == ["game", "agent.allocator", "agent.recipient", "payoff", "sweep", "output"],
            "print-config sections")
    for (section, key), value in op.spec["expect"].items():
        _expect(cp[section][key] == value, f"print-config {section}.{key}")
    return 0


def _check_matrix(op: Op, out: str, **_) -> int:
    lines = out.splitlines()
    _expect(lines[0] == "d,split,accepted", "matrix header")
    rows = [line.split(",") for line in lines[1:]]
    _expect(len(rows) == len(DEFAULT_D_AXIS) * len(DEFAULT_SPLIT_AXIS), "matrix row count")
    for i, (d, split, accepted) in enumerate(rows):
        want_d = DEFAULT_D_AXIS[i // len(DEFAULT_SPLIT_AXIS)]
        want_s = DEFAULT_SPLIT_AXIS[i % len(DEFAULT_SPLIT_AXIS)]
        ok = oracle.accepts(_with(op.spec["recip"], "d", want_d), oracle.DEFAULT_LENS, oracle.DEFAULT_GAME, want_s)
        _expect(oracle.close(d, want_d) and oracle.close(split, want_s), f"matrix row {i} axes")
        _expect(accepted == str(int(ok)), f"matrix row {i} accepted")
    return len(rows)


def _check_error(op: Op, out: str, err: str, **_) -> int:
    _expect(out == "" and err.strip() != "", "config error output")
    return 0


CHECKS = {
    "grid": _check_grid,
    "curves": _check_curves,
    "taus": _check_taus,
    "play": _check_play,
    "offer": _check_play,
    "config": _check_play,
    "print": _check_print,
    "matrix": _check_matrix,
    "error": _check_error,
}


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check(op: Op, rc: int, out: str, err: str, data: bytes) -> int:
    """Data rows in a correct output; raises CheckFailed on a wrong one."""
    _expect(rc == op.rc, f"exit code {rc}, expected {op.rc}")
    return CHECKS[op.kind](op, out=out, err=err, data=data)


def build(workload: str, seed: int) -> tuple:
    """(blocks of Ops, {file name: text} to write into the work dir first)."""
    r = random.Random(f"{workload}:{seed}")
    files = {}
    if workload == "grid":
        blocks = _grid_blocks(r)
    elif workload == "export":
        blocks = _export_blocks(r)
    else:
        blocks = _request_blocks(r, files)
    return blocks, files
