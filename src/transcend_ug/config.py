"""Config file loading and validation.

The on-disk format is a flat INI-style file with sections ``game``,
``agent.allocator``, ``agent.recipient``, ``payoff``, ``sweep`` and
``output``. Parsing is strict: unknown sections (``[DEFAULT]`` too) or
keys are errors, and every violation names the offending field path.

Each section field describes its parameter once; its metadata adds only
what the name cannot say (on-disk ``key``, ``flag``, ``help``,
``choices``). Config keys, flags and ``dump_config`` derive from
``PARAMS``; ``parse_value`` reads a file key's and a flag's text alike.
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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, List, NamedTuple, Optional, Tuple

from .game import ConfigError, GameConfig, TieBreak, axis_points
from .identity import FairnessKind, FairnessMode, IdentityError, PlayerSpec
from .payoff import DEFAULT_LOSS_AVERSION, DEFAULT_STEEPNESS, LensConfigError, LensFamily, PayoffLens
from .sweep import with_param


class ConfigFileError(ValueError):
    """Raised on unreadable, malformed, or invalid configuration."""


def _param(default, key=None, flag=None, help=None, choices=None):
    return field(default=default, metadata={"key": key, "flag": flag, "help": help, "choices": choices})


@dataclass
class AgentSection:
    gamma: float = 0.5
    distance: float = _param(1.0, flag="d")
    fairness_mode: str = _param("baseline", flag="mode", choices=FairnessKind)
    tau: float = 0.5  # consulted only under agent_tau mode


@dataclass
class PayoffSection:
    family: str = _param("exp_value", choices=LensFamily)
    k: float = DEFAULT_STEEPNESS
    lam: float = _param(DEFAULT_LOSS_AVERSION, key="lambda")  # 'lambda' is a keyword


# the player parameters a game-grid axis may vary
_AXES = tuple(f"{role}.{param}" for role in ("allocator", "recipient") for param in ("gamma", "d", "tau"))


@dataclass
class SweepSection:
    d_min: float = 0.0
    d_max: float = 2.4
    d_step: float = 0.2
    split_step: float = 0.05
    curve_param: str = _param("d", choices=("d", "gamma", "tau"))
    # comma list; empty means mode-specific defaults
    curve_values: str = _param("", help="comma-separated values for the curve family")
    gammas: str = _param("0.2,0.4,0.6,0.8", flag="gamma", help="comma-separated gamma list for tau-curves")
    axis1: str = _param("allocator.gamma", choices=_AXES)
    axis1_values: str = "0.2,0.4,0.6,0.8"
    axis2: str = _param("recipient.gamma", choices=_AXES)
    axis2_values: str = "0.2,0.4,0.6,0.8"


@dataclass
class OutputSection:
    path: str = _param("-", flag="output", help="output path, '-' for stdout")
    format: str = _param("csv", choices=("csv", "json"), help="output format")


@dataclass
class GameSection:
    grid_step: float = 0.01
    accept_threshold: float = 0.0
    tie_break: str = _param("closest_to_equal", choices=TieBreak)
    tolerance: float = 1e-9
    own_tau_zero: bool = False


@dataclass
class RunConfig:
    game: GameSection = field(default_factory=GameSection)
    allocator: AgentSection = field(default_factory=AgentSection)
    recipient: AgentSection = field(default_factory=AgentSection)
    payoff: PayoffSection = field(default_factory=PayoffSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    output: OutputSection = field(default_factory=OutputSection)


class Param(NamedTuple):
    """One config parameter, derived from its section field."""

    path: str  # "agent.allocator.distance"
    key: str  # on-disk key, "distance"
    attr: str  # RunConfig attribute, "allocator"
    name: str  # field name, "distance"
    flag: str  # "--allocator-d"
    type: type
    choices: Optional[Tuple[str, ...]]
    help: Optional[str]


# on-disk section -> flag prefix; the RunConfig attribute is the last word
_SECTIONS = {"game": "", "agent.allocator": "allocator-", "agent.recipient": "recipient-",
             "payoff": "payoff-", "sweep": "", "output": ""}


def _params() -> List[Param]:
    out = []
    for section, prefix in _SECTIONS.items():
        attr = section.rpartition(".")[2]
        for f in fields(getattr(RunConfig(), attr)):
            meta = f.metadata
            key = meta.get("key") or f.name
            flag = "--" + prefix + (meta.get("flag") or key).replace("_", "-")
            choices = meta.get("choices") and tuple(getattr(c, "value", c) for c in meta["choices"])
            out.append(Param(f"{section}.{key}", key, attr, f.name, flag, type(f.default), choices,
                             meta.get("help")))
    return out


PARAMS = _params()
_BY_PATH: Dict[str, Param] = {p.path: p for p in PARAMS}
# domain constructor argument -> config key, where the two differ
_DOMAIN_KEYS = {"d": "distance", "loss_aversion": "lambda", "steepness": "k"}


def parse_value(p: Param, raw: str):
    if p.type is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigFileError(f"{p.path} must be a number, got {raw!r}")
    if p.type is bool:
        value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
        if value is None:
            raise ConfigFileError(f"{p.path} must be a boolean, got {raw!r}")
        return value
    return raw


@contextmanager
def _named(section: str, key: Optional[str] = None):
    """Report a domain constructor's error under the config path it concerns.

    The path is ``section.key``; given no key, the key is the error's
    first word, the constructor argument it concerns.
    """
    try:
        yield
    except (ConfigError, IdentityError, LensConfigError) as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigFileError(f"{section}.{key or _DOMAIN_KEYS.get(name, name)} {rest}") from None


class Resolved(NamedTuple):
    """The objects ``resolve`` built from a config while checking it."""

    game: GameConfig
    allocator: PlayerSpec
    recipient: PlayerSpec
    lists: Dict[str, List[float]]  # the sweep comma lists, parsed, by field name
    d_points: int  # points of the sweep.d_step axis
    split_points: int  # points of the sweep.split_step axis


def resolve(cfg: RunConfig) -> Resolved:
    """The game, players, sweep lists and axis sizes of a config, or the error naming the path of its first fault."""
    for p in PARAMS:
        value = getattr(getattr(cfg, p.attr), p.name)
        if p.type is float and not math.isfinite(value):
            raise ConfigFileError(f"{p.path} must be finite, got {value}")
        if p.choices and value not in p.choices:
            raise ConfigFileError(f"{p.path} must be one of {', '.join(p.choices)}; got {value!r}")
    s = cfg.sweep
    if s.axis1 == s.axis2:
        raise ConfigFileError(f"sweep.axis2 must differ from sweep.axis1, both are {s.axis1}")
    with _named("game"):
        game = GameConfig(**dict(vars(cfg.game), tie_break=TieBreak(cfg.game.tie_break)))
    with _named("payoff"):
        lens = PayoffLens(LensFamily(cfg.payoff.family), loss_aversion=cfg.payoff.lam, steepness=cfg.payoff.k)
    players = {}
    for role in ("allocator", "recipient"):
        a = getattr(cfg, role)
        with _named(f"agent.{role}"):
            kind = FairnessKind(a.fairness_mode)
            mode = FairnessMode.agent_tau(a.tau)  # range-checked in every mode, not only where consulted
            players[role] = PlayerSpec(a.gamma, a.distance, mode if kind is mode.kind else FairnessMode(kind), lens)
    # Each sweep entry sets one player parameter and is range-checked here as
    # that parameter, in every mode. The probe is an agent_tau player, so that
    # a tau entry is range-checked whatever the mode of the player it varies.
    probe = PlayerSpec(0.0, 0.0, FairnessMode.agent_tau(0.0), lens)
    with _named("sweep", "d_min"):
        with_param(probe, "d", s.d_min)
    # game.axis_points counts each step-built axis, checked by the rule that builds it
    d_points = axis_points(s.d_min, s.d_max, s.d_step, "sweep.d_step")
    split_points = axis_points(0.0, 1.0, s.split_step, "sweep.split_step")
    # parsed and checked one list at a time, so the first faulty list is named;
    # only sweep.curve_values may be empty, meaning the parameter's default family
    lists = {}
    for name, param in (("gammas", "gamma"), ("curve_values", s.curve_param),
                        ("axis1_values", s.axis1.partition(".")[2]), ("axis2_values", s.axis2.partition(".")[2])):
        raw = getattr(s, name)
        lists[name] = parse_value_list(raw, f"sweep.{name}")
        with _named("sweep", name):
            for value in lists[name]:
                with_param(probe, param, value)
        if not lists[name] and name != "curve_values":
            raise ConfigFileError(f"sweep.{name} must hold at least one value, got {raw!r}")
    # a tau that a sweep varies needs its player in agent_tau mode; the curves vary the allocator
    for key, axis in (("curve_param", f"allocator.{s.curve_param}"), ("axis1", s.axis1), ("axis2", s.axis2)):
        role, _, param = axis.partition(".")
        if param == "tau":
            with _named("sweep", key):
                with_param(players[role], param, 0.0)
    return Resolved(game, players["allocator"], players["recipient"], lists, d_points, split_points)


def parse_value_list(raw: str, path: str) -> List[float]:
    """The numbers of a comma list: blank text is no number, and a blank entry in a list is a missing one."""
    tokens = raw.split(",") if raw.strip() else []
    if not all(map(str.strip, tokens)):
        raise ConfigFileError(f"{path} has an empty entry, got {raw!r}")
    try:
        values = list(map(float, tokens))
    except ValueError:
        raise ConfigFileError(f"{path} must be a comma-separated list of numbers, got {raw!r}")
    if not all(map(math.isfinite, values)):
        raise ConfigFileError(f"{path} must hold finite numbers, got {raw!r}")
    return values


def loads_config(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, default_section="")  # [DEFAULT] is a section
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigFileError(f"parse error in {source}: {exc}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigFileError(f"unknown section [{section}] in {source}")
        for key, raw in parser.items(section):
            p = _BY_PATH.get(f"{section}.{key}")
            if p is None:
                raise ConfigFileError(f"unknown key {section}.{key} in {source}")
            setattr(getattr(cfg, p.attr), p.name, parse_value(p, raw))
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark, if any, is not text
            text = fh.read()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}")
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
            if p.path.rpartition(".")[0] == section:
                buf.write(f"{p.key} = {fmt(getattr(getattr(cfg, p.attr), p.name))}\n")
        buf.write("\n")
    return buf.getvalue()
