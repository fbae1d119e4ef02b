"""Config file loading and validation.

The on-disk format is a flat INI-style file with sections ``game``,
``agent.allocator``, ``agent.recipient``, ``payoff``, ``sweep`` and
``output``. Parsing is strict: unknown sections (``[DEFAULT]`` too) or
keys are errors, and every violation names the offending field path.

Each section declares its fields once, as name -> (default, metadata);
the metadata adds only what the name cannot say (on-disk ``key``,
``flag``, ``help``, ``choices``). Config keys, flags and ``dump_config``
derive from ``PARAMS``; ``parse_value`` reads a file key's and a flag's
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
from .identity import FairnessKind, FairnessMode, IdentityError, PlayerSpec
from .payoff import DEFAULT_LOSS_AVERSION, DEFAULT_STEEPNESS, LensConfigError, LensFamily, PayoffLens, ValueObject
from .sweep import with_param


class ConfigFileError(ValueError):
    """Raised on unreadable, malformed, or invalid configuration."""


def _param(default, key=None, flag=None, help=None, choices=None):
    return default, {"key": key, "flag": flag, "help": help, "choices": choices}


class _Section(ValueObject):
    """A config section: one attribute per entry of its ``FIELDS``, name -> (default, metadata), set to the default."""

    FIELDS: dict[str, tuple[object, dict]] = {}

    def __init__(self) -> None:
        for name, (default, _) in self.FIELDS.items():
            setattr(self, name, default)

    def _fields(self) -> dict:
        return self.FIELDS


class AgentSection(_Section):
    FIELDS = {
        "gamma": _param(0.5),
        "distance": _param(1.0, flag="d"),
        "fairness_mode": _param("baseline", flag="mode", choices=FairnessKind),
        "tau": _param(0.5),  # consulted only under agent_tau mode
    }


class PayoffSection(_Section):
    FIELDS = {
        "family": _param("exp_value", choices=LensFamily),
        "k": _param(DEFAULT_STEEPNESS),
        "lam": _param(DEFAULT_LOSS_AVERSION, key="lambda"),  # 'lambda' is a keyword
    }


# the player parameters a game-grid axis may vary
_AXES = tuple(f"{role}.{param}" for role in ("allocator", "recipient") for param in ("gamma", "d", "tau"))


class SweepSection(_Section):
    FIELDS = {
        "d_min": _param(0.0),
        "d_max": _param(2.4),
        "d_step": _param(0.2),
        "split_step": _param(0.05),
        "curve_param": _param("d", choices=("d", "gamma", "tau")),
        # comma list; empty means mode-specific defaults
        "curve_values": _param("", help="comma-separated values for the curve family"),
        "gammas": _param("0.2,0.4,0.6,0.8", flag="gamma", help="comma-separated gamma list for tau-curves"),
        "axis1": _param("allocator.gamma", choices=_AXES),
        "axis1_values": _param("0.2,0.4,0.6,0.8"),
        "axis2": _param("recipient.gamma", choices=_AXES),
        "axis2_values": _param("0.2,0.4,0.6,0.8"),
    }


class OutputSection(_Section):
    FIELDS = {
        "path": _param("-", flag="output", help="output path, '-' for stdout"),
        "format": _param("csv", choices=("csv", "json"), help="output format"),
    }


class GameSection(_Section):
    FIELDS = {
        "grid_step": _param(0.01),
        "accept_threshold": _param(0.0),
        "tie_break": _param("closest_to_equal", choices=TieBreak),
        "tolerance": _param(1e-9),
        "own_tau_zero": _param(False),
    }


# on-disk section -> (flag prefix, section class); the RunConfig attribute is the last word
_SECTIONS = {"game": ("", GameSection), "agent.allocator": ("allocator-", AgentSection),
             "agent.recipient": ("recipient-", AgentSection), "payoff": ("payoff-", PayoffSection),
             "sweep": ("", SweepSection), "output": ("", OutputSection)}


class RunConfig(ValueObject):
    """A run's config: one section object per on-disk section, named by the section's last word."""

    def __init__(self) -> None:
        for attr, (_, cls) in zip(self._fields(), _SECTIONS.values()):
            setattr(self, attr, cls())

    def _fields(self) -> list[str]:
        return [section.rpartition(".")[2] for section in _SECTIONS]


Param = namedtuple("Param", "path key attr name flag type choices help")
Param.__doc__ = """One config parameter, derived from its section field.

For example: ``path`` "agent.allocator.distance", on-disk ``key`` "distance",
RunConfig ``attr`` "allocator", field ``name`` "distance", ``flag``
"--allocator-d"; ``type`` is the default's type; ``choices`` and ``help`` may be None.
"""


def _params() -> list[Param]:
    out = []
    for section, (prefix, cls) in _SECTIONS.items():
        attr = section.rpartition(".")[2]
        for name, (default, meta) in cls.FIELDS.items():
            key = meta["key"] or name
            flag = "--" + prefix + (meta["flag"] or key).replace("_", "-")
            choices = meta["choices"] and tuple(getattr(c, "value", c) for c in meta["choices"])
            out.append(Param(f"{section}.{key}", key, attr, name, flag, type(default), choices, meta["help"]))
    return out


PARAMS = _params()
_BY_PATH: dict[str, Param] = {p.path: p for p in PARAMS}
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
def _named(section: str, key: str | None = None):
    """Report a domain constructor's error under the config path it concerns.

    The path is ``section.key``; given no key, the key is the error's
    first word, the constructor argument it concerns.
    """
    try:
        yield
    except (ConfigError, IdentityError, LensConfigError) as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigFileError(f"{section}.{key or _DOMAIN_KEYS.get(name, name)} {rest}") from None


Resolved = namedtuple("Resolved", "game allocator recipient lists d_points split_points")
Resolved.__doc__ = """The objects ``resolve`` built from a config while checking it.

``game`` is the GameConfig, ``allocator`` and ``recipient`` the PlayerSpecs,
``lists`` the sweep comma lists, parsed, by field name, and ``d_points`` and
``split_points`` the point counts of the sweep.d_step and sweep.split_step axes.
"""


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


def parse_value_list(raw: str, path: str) -> list[float]:
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
