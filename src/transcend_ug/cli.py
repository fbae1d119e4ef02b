"""Command-line entry point.

Subcommands: ``play``, ``utility-curves``, ``acceptance-matrix``,
``tau-curves``, ``game-grid``. Options come from an optional config file
plus flag overrides (flags win). Data goes to the output path (or stdout
with ``--output -``). Messages go to the ``sys.stderr`` of the call, one
line each: ``ERROR <message>`` for a failed call and ``WARNING <message>``
for an off-grid offer. Exit status: 0 success, 2 configuration error, 1
runtime error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import sweep as sweep_mod
from .config import PARAMS, ConfigFileError, Resolved, RunConfig, SweepSection, dump_config, load_config, parse_value, resolve
from .game import MAX_POINTS, ConfigError, play
from .identity import IdentityError
from .payoff import LensConfigError
from .sweep import Table, axis_values

_CONFIG_ERRORS = (ConfigFileError, ConfigError, LensConfigError, IdentityError)


def _rounded(record: dict[str, object]) -> dict[str, object]:
    """A record with every float rounded to the 6 decimals of the output."""
    return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in record.items()}


def _texts(column: Sequence, kind: type, fmt: str) -> list[str]:
    """The text of each cell of a column, in the output format, by the cell format its table declares.

    A float gets 6 decimals: ``%.6f`` in CSV, and in JSON what ``json``
    writes for the value rounded to 6 decimals (``NaN`` and ``Infinity``
    included). An int or str cell is written as is; no table's str cell
    needs escaping.
    """
    if kind is float and fmt == "csv":
        return list(map("%.6f".__mod__, column))
    if kind is float:
        texts = list(map(repr, map(round, column, [6] * len(column))))
        if "nan" in texts or "inf" in texts or "-inf" in texts:
            json_name = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
            texts = [json_name.get(text, text) for text in texts]
        return texts
    if kind is int:
        return list(map("%d".__mod__, column))
    return list(column) if fmt == "csv" else list(map('"%s"'.__mod__, column))


def _render(table: Table, fmt: str) -> Iterator[str]:
    """A table as CSV or JSON, in the columns its sweep declares, yielded as chunks of text, one run's rows at a time.

    Each run fills its own %-template, into which its fixed cells are
    written once; a None fixed cell (an envelope run's curve_value) is
    empty in CSV and ``null`` in JSON. A column object that several runs
    share is formatted once per call and its texts kept; a column that
    one run holds is formatted for that run and dropped after it. The
    run's template is mapped over its columns' texts, so a chunk holds
    at most one run's rows and the joined chunks are the whole table.
    """
    names = [name for name, _ in table.columns]
    kinds = [kind for _, kind in table.columns]
    holders = Counter(id(column) for _, varying in table.runs for column in varying)
    shared = {}  # the texts of a column that more than one run holds, by its id and cell format
    csv = fmt == "csv"
    sep = "\n" if csv else ","
    yield ",".join(names) if csv else "["
    lead = csv  # a CSV run starts on a new line; a JSON run follows a comma unless it is the first
    for fixed, varying in table.runs:
        cells = [("" if csv else "null") if value is None else _texts([value], kind, fmt)[0]
                 for value, kind in zip(fixed, kinds)]
        cells += ["%s"] * len(varying)
        template = ",".join(cells) if csv else "{" + ",".join(map('"%s":%s'.__mod__, zip(names, cells))) + "}"
        columns = []
        for column, kind in zip(varying, kinds[len(fixed):]):
            key = (id(column), kind)
            texts = shared[key] if key in shared else _texts(column, kind, fmt)
            if holders[id(column)] > 1:
                shared[key] = texts
            columns.append(texts)
        text = sep.join(map(template.__mod__, zip(*columns)))
        if text:  # every row holds a comma, so only a run of no rows is empty
            if lead:
                yield sep
            yield text
            lead = True
    yield "\n" if csv else "]\n"


def _write_output(chunks: Iterable[str], path: str) -> None:
    """Write chunks of text in turn, to stdout for path ``-`` or else to the file at path.

    A file is written as a temporary file beside it, renamed into place
    once the last chunk is written and removed on any error, so the path
    holds the whole output or is left as it was. Stdout gets each chunk
    as it comes, so a failure after the first chunk leaves part of it
    written.
    """
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    import tempfile  # with the random and weakref it loads, only a call that writes a file needs it

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".out")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# (parameter, argparse attribute, add_argument keywords): text is left to parse_value, choices to resolve
_FLAGS = [
    (p, p.flag[2:].replace("-", "_"),
     {"action": "store_const", "const": "true", "help": p.help} if p.type is bool
     else {"metavar": p.choices and "{" + ",".join(p.choices) + "}", "help": p.help})
    for p in PARAMS
]


def _effective_config(args: argparse.Namespace) -> tuple[RunConfig, Resolved, Callable[[], Table] | None]:
    """The config, its resolution and, for a table subcommand, the sweep call that builds its table."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for p, dest, _ in _FLAGS:
        raw = getattr(args, dest)
        if raw is not None:
            setattr(getattr(cfg, p.attr), p.name, parse_value(p, raw))
    resolved = resolve(cfg)
    if args.command == "play":
        return cfg, resolved, None
    rows, fields, build = _table(args.command, cfg.sweep, resolved)
    if rows > MAX_POINTS:
        raise ConfigFileError(
            f"{args.command} would emit {rows} rows ({fields}), more than the limit of {MAX_POINTS}")
    return cfg, resolved, build


def _table(command: str, s: SweepSection, resolved: Resolved) -> tuple[int, str, Callable[[], Table]]:
    """A table subcommand's row count, the config fields it comes from and the sweep call that builds the table.

    The count is arithmetic, from the axis point counts that ``resolve``
    checked: no axis exists until the call runs.
    """
    game, lists = resolved.game, resolved.lists
    d_axis = (s.d_min, s.d_max, s.d_step, "sweep.d_step")
    split_axis = (0.0, 1.0, s.split_step, "sweep.split_step")

    if command == "utility-curves":
        # an empty list means the parameter's default family; None stands for the distance axis
        if lists["curve_values"]:
            values = lists["curve_values"]
        elif s.curve_param == "d":
            values = None
        else:
            values = lists["gammas"] if s.curve_param == "gamma" else [0.2, 0.5, 0.7]
        curves = resolved.d_points if values is None else len(values)
        return ((curves + 2) * (game.grid_cells + 1), "sweep.curve_values x game.grid_step",
                lambda: sweep_mod.utility_curves(resolved.allocator, game, s.curve_param,
                                                 axis_values(*d_axis) if values is None else values))
    if command == "acceptance-matrix":
        return (resolved.d_points * resolved.split_points, "sweep.d_step x sweep.split_step",
                lambda: sweep_mod.acceptance_matrix(resolved.recipient, game, axis_values(*d_axis),
                                                    axis_values(*split_axis)))
    if command == "tau-curves":
        gammas = lists["gammas"]
        return (len(gammas) * resolved.d_points, "sweep.gammas x sweep.d_step",
                lambda: sweep_mod.tau_curves(gammas, axis_values(*d_axis)))
    axis1, axis2 = lists["axis1_values"], lists["axis2_values"]
    return (len(axis1) * len(axis2), "sweep.axis1_values x sweep.axis2_values",
            lambda: sweep_mod.game_grid(resolved.allocator, resolved.recipient, game,
                                        (s.axis1, axis1), (s.axis2, axis2)))


_SUBCOMMANDS = ("play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand's flags, built once per process and shared: callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="transcend-ug",
        description="Deterministic Ultimatum Game simulator for transcended agents with fairness thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file path")
        p.add_argument("--print-config", action="store_true", help="dump the effective config and exit")
        groups = {}
        for param, _, kwargs in _FLAGS:
            if param.attr not in groups:
                groups[param.attr] = p.add_argument_group(param.attr)
            groups[param.attr].add_argument(param.flag, **kwargs)
        if name == "play":
            p.add_argument("--offer", type=float,
                           help="skip the allocator and evaluate this offered share directly")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg, resolved, build = _effective_config(args)
        if args.print_config:
            sys.stdout.write(dump_config(cfg))
            return 0
        if build is None:
            outcome = play(resolved.allocator, resolved.recipient, resolved.game, offer=args.offer)
            chunks = (json.dumps(_rounded(outcome.to_record()), separators=(",", ":")) + "\n",)
        else:
            chunks = _render(build(), cfg.output.format)  # the table is built before the first chunk is written
        _write_output(chunks, cfg.output.path)
        return 0
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(f"ERROR {exc}\n")
        return 2
    except Exception as exc:  # runtime failure
        sys.stderr.write(f"ERROR {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
