"""Command-line entry point.

Subcommands: ``play``, ``utility-curves``, ``acceptance-matrix``,
``tau-curves``, ``game-grid``. Options come from an optional config file
plus flag overrides (flags win). Data goes to the output path (or stdout
with ``--output -``); logs go to stderr. Exit status: 0 success, 2
configuration error, 1 runtime error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

from . import sweep as sweep_mod
from .config import (
    ConfigFileError,
    RunConfig,
    dump_config,
    load_config,
    parse_value_list,
)
from .game import ConfigError, play
from .identity import IdentityError
from .payoff import LensConfigError
from .sweep import SweepError, axis_values

log = logging.getLogger("transcend_ug")

_CONFIG_ERRORS = (ConfigFileError, ConfigError, SweepError, LensConfigError, IdentityError)

CSV_HEADERS = {
    "utility-curves": ["curve_param", "curve_value", "split", "utility", "is_best_split", "is_min_acceptable"],
    "acceptance-matrix": ["d", "split", "accepted"],
    "tau-curves": ["gamma", "d", "tau"],
    "game-grid": ["axis1", "axis2", "proposed_split", "accepted"],
}


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _render(rows: List[Dict[str, object]], header: List[str], fmt: str) -> str:
    if fmt == "json":
        out = []
        for row in rows:
            rounded = {
                key: (round(v, 6) if isinstance(v, float) else v)
                for key, v in ((k, row[k]) for k in header)
            }
            out.append(rounded)
        return json.dumps(out, indent=None, separators=(",", ":")) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(row[k]) for k in header) for row in rows)
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".out")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file path")
    p.add_argument("--output", help="output path, '-' for stdout")
    p.add_argument("--format", choices=["csv", "json"], help="output format")
    p.add_argument("--print-config", action="store_true", help="dump the effective config and exit")
    g = p.add_argument_group("game")
    g.add_argument("--grid-step", type=float)
    g.add_argument("--accept-threshold", type=float)
    g.add_argument("--tie-break", choices=["closest_to_equal", "lowest_own_share", "highest_own_share"])
    g.add_argument("--tolerance", type=float)
    g.add_argument("--own-tau-zero", action="store_const", const=True, default=None)
    for role in ("allocator", "recipient"):
        a = p.add_argument_group(role)
        a.add_argument(f"--{role}-gamma", type=float)
        a.add_argument(f"--{role}-d", type=float)
        a.add_argument(f"--{role}-mode", choices=["baseline", "agent_tau", "association"])
        a.add_argument(f"--{role}-tau", type=float)
    pay = p.add_argument_group("payoff")
    pay.add_argument("--payoff-family", choices=["linear", "exp_value"])
    pay.add_argument("--payoff-k", type=float)
    pay.add_argument("--payoff-lambda", type=float, dest="payoff_lam")
    s = p.add_argument_group("sweep")
    s.add_argument("--d-min", type=float)
    s.add_argument("--d-max", type=float)
    s.add_argument("--d-step", type=float)
    s.add_argument("--split-step", type=float)
    s.add_argument("--curve-param", choices=["d", "gamma", "tau"])
    s.add_argument("--curve-values", help="comma-separated values for the curve family")
    s.add_argument("--gamma", dest="gammas", help="comma-separated gamma list for tau-curves")
    s.add_argument("--axis1")
    s.add_argument("--axis1-values")
    s.add_argument("--axis2")
    s.add_argument("--axis2-values")


# (args attribute, config section attr, field name) for every override
_OVERRIDES = [
    ("grid_step", "game", "grid_step"),
    ("accept_threshold", "game", "accept_threshold"),
    ("tie_break", "game", "tie_break"),
    ("tolerance", "game", "tolerance"),
    ("own_tau_zero", "game", "own_tau_zero"),
    ("allocator_gamma", "allocator", "gamma"),
    ("allocator_d", "allocator", "distance"),
    ("allocator_mode", "allocator", "fairness_mode"),
    ("allocator_tau", "allocator", "tau"),
    ("recipient_gamma", "recipient", "gamma"),
    ("recipient_d", "recipient", "distance"),
    ("recipient_mode", "recipient", "fairness_mode"),
    ("recipient_tau", "recipient", "tau"),
    ("payoff_family", "payoff", "family"),
    ("payoff_k", "payoff", "k"),
    ("payoff_lam", "payoff", "lam"),
    ("d_min", "sweep", "d_min"),
    ("d_max", "sweep", "d_max"),
    ("d_step", "sweep", "d_step"),
    ("split_step", "sweep", "split_step"),
    ("curve_param", "sweep", "curve_param"),
    ("curve_values", "sweep", "curve_values"),
    ("gammas", "sweep", "gammas"),
    ("axis1", "sweep", "axis1"),
    ("axis1_values", "sweep", "axis1_values"),
    ("axis2", "sweep", "axis2"),
    ("axis2_values", "sweep", "axis2_values"),
    ("output", "output", "path"),
    ("format", "output", "format"),
]


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for attr, section, fname in _OVERRIDES:
        value = getattr(args, attr, None)
        if value is not None:
            setattr(getattr(cfg, section), fname, value)
    # re-validate after overrides, reusing the file-level checks
    from .config import _validate

    _validate(cfg)
    return cfg


def _d_axis(cfg: RunConfig) -> List[float]:
    s = cfg.sweep
    return axis_values(s.d_min, s.d_max, s.d_step)


def _split_axis(cfg: RunConfig) -> List[float]:
    return axis_values(0.0, 1.0, cfg.sweep.split_step)


def _curve_values(cfg: RunConfig) -> List[float]:
    raw = cfg.sweep.curve_values.strip()
    if raw:
        return parse_value_list(raw, "sweep.curve_values")
    if cfg.sweep.curve_param == "d":
        return _d_axis(cfg)
    if cfg.sweep.curve_param == "gamma":
        return parse_value_list(cfg.sweep.gammas, "sweep.gammas")
    return [0.2, 0.5, 0.7]


def _cmd_play(args: argparse.Namespace, cfg: RunConfig) -> str:
    game_cfg = cfg.game.game_config()
    outcome = play(cfg.player("allocator"), cfg.player("recipient"), game_cfg, offer=args.offer)
    record = {
        k: (round(v, 6) if isinstance(v, float) else v)
        for k, v in outcome.to_record().items()
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def _cmd_utility_curves(args: argparse.Namespace, cfg: RunConfig) -> str:
    rows = sweep_mod.utility_curves(
        cfg.player("allocator"),
        cfg.game.game_config(),
        cfg.sweep.curve_param,
        _curve_values(cfg),
    )
    return _render(rows, CSV_HEADERS["utility-curves"], cfg.output.format)


def _cmd_acceptance_matrix(args: argparse.Namespace, cfg: RunConfig) -> str:
    rows = sweep_mod.acceptance_matrix(
        cfg.player("recipient"),
        cfg.game.game_config(),
        _d_axis(cfg),
        _split_axis(cfg),
    )
    return _render(rows, CSV_HEADERS["acceptance-matrix"], cfg.output.format)


def _cmd_tau_curves(args: argparse.Namespace, cfg: RunConfig) -> str:
    gammas = parse_value_list(cfg.sweep.gammas, "sweep.gammas")
    rows = sweep_mod.tau_curves(gammas, _d_axis(cfg))
    return _render(rows, CSV_HEADERS["tau-curves"], cfg.output.format)


def _cmd_game_grid(args: argparse.Namespace, cfg: RunConfig) -> str:
    s = cfg.sweep
    rows = sweep_mod.game_grid(
        cfg.player("allocator"),
        cfg.player("recipient"),
        cfg.game.game_config(),
        (s.axis1, parse_value_list(s.axis1_values, "sweep.axis1_values")),
        (s.axis2, parse_value_list(s.axis2_values, "sweep.axis2_values")),
    )
    return _render(rows, CSV_HEADERS["game-grid"], cfg.output.format)


_COMMANDS = {
    "play": _cmd_play,
    "utility-curves": _cmd_utility_curves,
    "acceptance-matrix": _cmd_acceptance_matrix,
    "tau-curves": _cmd_tau_curves,
    "game-grid": _cmd_game_grid,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transcend-ug",
        description="Deterministic Ultimatum Game simulator for transcended agents with fairness thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _add_common_flags(p)
        if name == "play":
            p.add_argument(
                "--offer",
                type=float,
                default=None,
                help="skip the allocator and evaluate this offered share directly",
            )
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _effective_config(args)
        if args.print_config:
            sys.stdout.write(dump_config(cfg))
            return 0
        text = _COMMANDS[args.command](args, cfg)
        _write_output(text, cfg.output.path)
        return 0
    except _CONFIG_ERRORS as exc:
        log.error("%s", exc)
        return 2
    except Exception as exc:  # runtime failure
        log.error("%s", exc)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
