"""Config file loading and validation.

The on-disk format is a flat INI-style file with sections ``game``,
``agent.allocator``, ``agent.recipient``, ``payoff``, ``sweep`` and
``output``. Parsing is strict: unknown sections (``[DEFAULT]`` too) or
keys are errors, a file that is not UTF-8 cannot be read, and every
violation names the offending parameter by its path.

Each parameter is one row of ``PARAMS``: its path (``section.key``),
flag, default, choices and help. The loader's keys, the flags and
``dump_config`` all come from that table, and a ``RunConfig`` is a dict
from path to value; ``parse_value`` reads a file key's and a flag's
text alike.
Loading only reads: ``resolve`` alone checks choices and ranges, once per
call and whatever the subcommand, so ``--print-config`` refuses what the
run refuses. Range checks live in the domain constructors and in
``game.axis_points``, which it calls, naming their errors by config path;
the run uses the objects it built.
"""
from __future__ import annotations

import configparser
import io
import math
from collections import namedtuple
from contextlib import contextmanager

from .game import ConfigError, GameConfig, TieBreak, axis_points
from .identity import FairnessKind, PlayerSpec
from .payoff import DEFAULT_LOSS_AVERSION, DEFAULT_STEEPNESS, LensFamily, PayoffLens
from .sweep import with_param


Param = namedtuple("Param", "path section key flag type default choices help")
Param.__doc__ = """One config parameter: a row of ``PARAMS``.

For example: ``path`` "agent.allocator.distance", on-disk ``section``
"agent.allocator" and ``key`` "distance", ``flag`` "--allocator-d";
``type`` is the default's type; ``choices`` and ``help`` may be None.
"""


def _param(path: str, flag: str, default, choices=None, help=None) -> Param:
    section, _, key = path.rpartition(".")
    return Param(path, section, key, flag, type(default), default,
                 choices and tuple(getattr(c, "value", c) for c in choices), help)


# the player parameters a game-grid axis may vary
_AXES = tuple(f"{role}.{param}" for role in ("allocator", "recipient") for param in ("gamma", "d", "tau"))

# Every parameter, in the order --print-config writes its sections and keys.
PARAMS = [
    _param("game.grid_step", "--grid-step", 0.01),
    _param("game.accept_threshold", "--accept-threshold", 0.0),
    _param("game.tie_break", "--tie-break", "closest_to_equal", choices=TieBreak),
    _param("game.tolerance", "--tolerance", 1e-9),
    _param("game.own_tau_zero", "--own-tau-zero", False),
    *[row for role in ("allocator", "recipient") for row in (
        _param(f"agent.{role}.gamma", f"--{role}-gamma", 0.5),
        _param(f"agent.{role}.distance", f"--{role}-d", 1.0),
        _param(f"agent.{role}.fairness_mode", f"--{role}-mode", "baseline", choices=FairnessKind),
        _param(f"agent.{role}.tau", f"--{role}-tau", 0.5),  # consulted only under agent_tau mode
    )],
    _param("payoff.family", "--payoff-family", "exp_value", choices=LensFamily),
    _param("payoff.k", "--payoff-k", DEFAULT_STEEPNESS),
    _param("payoff.lambda", "--payoff-lambda", DEFAULT_LOSS_AVERSION),
    _param("sweep.d_min", "--d-min", 0.0),
    _param("sweep.d_max", "--d-max", 2.4),
    _param("sweep.d_step", "--d-step", 0.2),
    _param("sweep.split_step", "--split-step", 0.05),
    _param("sweep.curve_param", "--curve-param", "d", choices=("d", "gamma", "tau")),
    # comma list; empty means mode-specific defaults
    _param("sweep.curve_values", "--curve-values", "", help="comma-separated values for the curve family"),
    _param("sweep.gammas", "--gamma", "0.2,0.4,0.6,0.8", help="comma-separated gamma list for tau-curves"),
    _param("sweep.axis1", "--axis1", "allocator.gamma", choices=_AXES),
    _param("sweep.axis1_values", "--axis1-values", "0.2,0.4,0.6,0.8"),
    _param("sweep.axis2", "--axis2", "recipient.gamma", choices=_AXES),
    _param("sweep.axis2_values", "--axis2-values", "0.2,0.4,0.6,0.8"),
    _param("output.path", "--output", "-", help="output path, '-' for stdout"),
    _param("output.format", "--format", "csv", choices=("csv", "json"), help="output format"),
]
_BY_PATH: dict[str, Param] = {p.path: p for p in PARAMS}
_SECTIONS = dict.fromkeys(p.section for p in PARAMS)  # in order
# domain constructor argument -> config key, where the two differ
_DOMAIN_KEYS = {"d": "distance", "loss_aversion": "lambda", "steepness": "k"}


class RunConfig(dict):
    """A run's config: the value of each parameter by its path, starting at the defaults."""

    def __init__(self) -> None:
        super().__init__((p.path, p.default) for p in PARAMS)


def parse_value(p: Param, raw: str):
    if p.type is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{p.path} must be a number, got {raw!r}")
    if p.type is bool:
        value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
        if value is None:
            raise ConfigError(f"{p.path} must be a boolean, got {raw!r}")
        return value
    return raw


@contextmanager
def _named(section: str, key: str | None = None):
    """Report a domain constructor's error under the config path it concerns.

    The path is ``section.key``; given no key, the key is the error's
    first word, the constructor argument it concerns.
    """
    try:
        yield
    except ConfigError as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{section}.{key or _DOMAIN_KEYS.get(name, name)} {rest}") from None


Resolved = namedtuple("Resolved", "game allocator recipient lists d_points split_points")
Resolved.__doc__ = """The objects ``resolve`` built from a config while checking it.

``game`` is the GameConfig, ``allocator`` and ``recipient`` the PlayerSpecs,
``lists`` the sweep comma lists, parsed, by key, and ``d_points`` and
``split_points`` the point counts of the sweep.d_step and sweep.split_step axes.
"""


def resolve(cfg: RunConfig) -> Resolved:
    """The game, players, sweep lists and axis sizes of a config, or the error naming the path of its first fault."""
    for p in PARAMS:
        value = cfg[p.path]
        if p.type is float and not math.isfinite(value):
            raise ConfigError(f"{p.path} must be finite, got {value}")
        if p.choices and value not in p.choices:
            raise ConfigError(f"{p.path} must be one of {', '.join(p.choices)}; got {value!r}")
    axis1, axis2, curve_param = cfg["sweep.axis1"], cfg["sweep.axis2"], cfg["sweep.curve_param"]
    if axis1 == axis2:
        raise ConfigError(f"sweep.axis2 must differ from sweep.axis1, both are {axis1}")
    with _named("game"):
        game = GameConfig(**dict({p.key: cfg[p.path] for p in PARAMS if p.section == "game"},
                                 tie_break=TieBreak(cfg["game.tie_break"])))
    with _named("payoff"):
        lens = PayoffLens(LensFamily(cfg["payoff.family"]), loss_aversion=cfg["payoff.lambda"],
                          steepness=cfg["payoff.k"])
    players = {}
    for role in ("allocator", "recipient"):
        agent = f"agent.{role}"
        with _named(agent):  # tau is range-checked in every mode, not only where consulted
            players[role] = PlayerSpec(cfg[f"{agent}.gamma"], cfg[f"{agent}.distance"],
                                       FairnessKind(cfg[f"{agent}.fairness_mode"]), cfg[f"{agent}.tau"], lens)
    # Each sweep entry sets one player parameter and is range-checked here as
    # that parameter, in every mode. The probe is an agent_tau player, so that
    # a tau entry is range-checked whatever the mode of the player it varies.
    probe = PlayerSpec(0.0, 0.0, FairnessKind.AGENT_TAU, 0.0, lens)
    with _named("sweep", "d_min"):
        with_param(probe, "d", cfg["sweep.d_min"])
    # game.axis_points counts each step-built axis, checked by the rule that builds it
    d_points = axis_points(cfg["sweep.d_min"], cfg["sweep.d_max"], cfg["sweep.d_step"], "sweep.d_step")
    split_points = axis_points(0.0, 1.0, cfg["sweep.split_step"], "sweep.split_step")
    # parsed and checked one list at a time, so the first faulty list is named;
    # only sweep.curve_values may be empty, meaning the parameter's default family
    lists = {}
    for name, param in (("gammas", "gamma"), ("curve_values", curve_param),
                        ("axis1_values", axis1.partition(".")[2]), ("axis2_values", axis2.partition(".")[2])):
        raw = cfg[f"sweep.{name}"]
        lists[name] = parse_value_list(raw, f"sweep.{name}")
        with _named("sweep", name):
            for value in lists[name]:
                with_param(probe, param, value)
        if not lists[name] and name != "curve_values":
            raise ConfigError(f"sweep.{name} must hold at least one value, got {raw!r}")
    # a tau that a sweep varies needs its player in agent_tau mode; the curves vary the allocator
    for key, axis in (("curve_param", f"allocator.{curve_param}"), ("axis1", axis1), ("axis2", axis2)):
        role, _, param = axis.partition(".")
        if param == "tau":
            with _named("sweep", key):
                with_param(players[role], param, 0.0)
    return Resolved(game, players["allocator"], players["recipient"], lists, d_points, split_points)


def parse_value_list(raw: str, path: str) -> list[float]:
    """The numbers of a comma list: blank text is no number, and a blank entry in a list is a missing one."""
    tokens = raw.split(",") if raw.strip() else []
    if not all(map(str.strip, tokens)):
        raise ConfigError(f"{path} has an empty entry, got {raw!r}")
    try:
        values = list(map(float, tokens))
    except ValueError:
        raise ConfigError(f"{path} must be a comma-separated list of numbers, got {raw!r}")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{path} must hold finite numbers, got {raw!r}")
    return values


def loads_config(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, default_section="")  # [DEFAULT] is a section
    parser.optionxform = str  # keys match exactly, as sections do: GRID_STEP is not grid_step
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {source}: {exc}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {source}")
        for key, raw in parser.items(section):
            p = _BY_PATH.get(f"{section}.{key}")
            if p is None:
                raise ConfigError(f"unknown key {section}.{key} in {source}")
            cfg[p.path] = parse_value(p, raw)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark, if any, is not text
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return loads_config(text, source=path)


def dump_config(cfg: RunConfig) -> str:
    """Render a config, defaults included, in the loadable on-disk format."""

    def fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)

    buf = io.StringIO()
    for section in _SECTIONS:
        buf.write(f"[{section}]\n")
        for p in PARAMS:
            if p.section == section:
                buf.write(f"{p.key} = {fmt(cfg[p.path])}\n")
        buf.write("\n")
    return buf.getvalue()
