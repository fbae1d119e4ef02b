"""Config file loading and validation.

The on-disk format is a flat INI-style file with sections ``game``,
``agent.allocator``, ``agent.recipient``, ``payoff``, ``sweep`` and
``output``. Parsing is strict: unknown sections or keys are errors, and
every violation names the offending field path.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List

from .game import STEP_SLACK, GameConfig, TieBreak
from .identity import FairnessMode, PlayerSpec
from .payoff import DEFAULT_LOSS_AVERSION, DEFAULT_STEEPNESS, LensFamily, PayoffLens


class ConfigFileError(ValueError):
    """Raised on unreadable, malformed, or invalid configuration."""


FAIRNESS_MODES = ("baseline", "agent_tau", "association")


@dataclass
class AgentSection:
    gamma: float = 0.5
    distance: float = 1.0
    fairness_mode: str = "baseline"
    tau: float = 0.5  # consulted only under agent_tau mode

    def mode(self) -> FairnessMode:
        if self.fairness_mode == "baseline":
            return FairnessMode.baseline()
        if self.fairness_mode == "agent_tau":
            return FairnessMode.agent_tau(self.tau)
        return FairnessMode.association()


@dataclass
class PayoffSection:
    family: str = "exp_value"
    k: float = DEFAULT_STEEPNESS
    lam: float = DEFAULT_LOSS_AVERSION

    def lens(self) -> PayoffLens:
        return PayoffLens(LensFamily(self.family), loss_aversion=self.lam, steepness=self.k)


@dataclass
class SweepSection:
    d_min: float = 0.0
    d_max: float = 2.4
    d_step: float = 0.2
    split_step: float = 0.05
    curve_param: str = "d"
    curve_values: str = ""  # comma list; empty means mode-specific defaults
    gammas: str = "0.2,0.4,0.6,0.8"
    axis1: str = "allocator.gamma"
    axis1_values: str = "0.2,0.4,0.6,0.8"
    axis2: str = "recipient.gamma"
    axis2_values: str = "0.2,0.4,0.6,0.8"


@dataclass
class OutputSection:
    path: str = "-"
    format: str = "csv"


@dataclass
class GameSection:
    grid_step: float = 0.01
    accept_threshold: float = 0.0
    tie_break: str = "closest_to_equal"
    tolerance: float = 1e-9
    own_tau_zero: bool = False

    def game_config(self) -> GameConfig:
        return GameConfig(
            grid_step=self.grid_step,
            accept_threshold=self.accept_threshold,
            tie_break=TieBreak(self.tie_break),
            tolerance=self.tolerance,
            own_tau_zero=self.own_tau_zero,
        )


@dataclass
class RunConfig:
    game: GameSection = field(default_factory=GameSection)
    allocator: AgentSection = field(default_factory=AgentSection)
    recipient: AgentSection = field(default_factory=AgentSection)
    payoff: PayoffSection = field(default_factory=PayoffSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    output: OutputSection = field(default_factory=OutputSection)

    def player(self, role: str) -> PlayerSpec:
        section = self.allocator if role == "allocator" else self.recipient
        return PlayerSpec.two_party(
            section.gamma, section.distance, section.mode(), self.payoff.lens()
        )


# section name -> (dataclass attr on RunConfig, config key -> attr name)
_SECTIONS: Dict[str, str] = {
    "game": "game",
    "agent.allocator": "allocator",
    "agent.recipient": "recipient",
    "payoff": "payoff",
    "sweep": "sweep",
    "output": "output",
}
# 'lambda' is a keyword, so the payoff section maps it onto 'lam'
_KEY_ALIASES = {"payoff": {"lambda": "lam"}}


def _coerce(section: str, key: str, raw: str, target_type: type):
    path = f"{section}.{key}"
    if target_type is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigFileError(f"{path} must be a number, got {raw!r}")
    if target_type is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigFileError(f"{path} must be a boolean, got {raw!r}")
    return raw


def _validate(cfg: RunConfig) -> None:
    def check(cond: bool, message: str) -> None:
        if not cond:
            raise ConfigFileError(message)

    for section, attr in _SECTIONS.items():
        for name, value in vars(getattr(cfg, attr)).items():
            if isinstance(value, float) and not math.isfinite(value):
                key = {v: k for k, v in _KEY_ALIASES.get(section, {}).items()}.get(name, name)
                raise ConfigFileError(f"{section}.{key} must be finite, got {value}")

    g = cfg.game
    check(0.0 < g.grid_step <= 0.5, f"game.grid_step must lie in (0, 0.5], got {g.grid_step}")
    check(g.tolerance > 0.0, f"game.tolerance must be > 0, got {g.tolerance}")
    check(
        g.tie_break in [t.value for t in TieBreak],
        f"game.tie_break must be one of {[t.value for t in TieBreak]}, got {g.tie_break!r}",
    )
    cells = 1.0 / g.grid_step
    check(
        abs(cells - round(cells)) <= STEP_SLACK * round(cells),
        f"game.grid_step {g.grid_step} does not divide 1 evenly",
    )
    for role in ("allocator", "recipient"):
        a: AgentSection = getattr(cfg, role)
        prefix = f"agent.{role}"
        check(0.0 <= a.gamma <= 1.0, f"{prefix}.gamma must lie in [0,1], got {a.gamma}")
        check(a.distance >= 0.0, f"{prefix}.distance must be >= 0, got {a.distance}")
        check(
            a.fairness_mode in FAIRNESS_MODES,
            f"{prefix}.fairness_mode must be one of {FAIRNESS_MODES}, got {a.fairness_mode!r}",
        )
        check(0.0 <= a.tau <= 1.0, f"{prefix}.tau must lie in [0,1], got {a.tau}")
    p = cfg.payoff
    check(
        p.family in [f.value for f in LensFamily],
        f"payoff.family must be one of {[f.value for f in LensFamily]}, got {p.family!r}",
    )
    if p.family == LensFamily.EXP_VALUE.value:
        check(p.lam > 1.0, f"payoff.lambda must be > 1, got {p.lam}")
        check(p.k > 0.0, f"payoff.k must be > 0, got {p.k}")
    s = cfg.sweep
    check(s.d_max > s.d_min, f"sweep.d_max must exceed sweep.d_min, got [{s.d_min}, {s.d_max}]")
    check(s.d_step > 0.0, f"sweep.d_step must be > 0, got {s.d_step}")
    check(s.split_step > 0.0, f"sweep.split_step must be > 0, got {s.split_step}")
    check(
        s.curve_param in ("d", "gamma", "tau"),
        f"sweep.curve_param must be one of d, gamma, tau; got {s.curve_param!r}",
    )
    check(
        cfg.output.format in ("csv", "json"),
        f"output.format must be csv or json, got {cfg.output.format!r}",
    )


def parse_value_list(raw: str, path: str) -> List[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigFileError(f"{path} must be a comma-separated list of numbers, got {raw!r}")


def loads_config(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigFileError(f"parse error in {source}: {exc}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigFileError(f"unknown section [{section}] in {source}")
        target = getattr(cfg, _SECTIONS[section])
        aliases = _KEY_ALIASES.get(section, {})
        attr_types = {f.name: f.type for f in fields(target)}
        for key, raw in parser.items(section):
            attr = aliases.get(key, key)
            if attr not in attr_types:
                raise ConfigFileError(f"unknown key {section}.{key} in {source}")
            current = getattr(target, attr)
            setattr(target, attr, _coerce(section, key, raw, type(current)))
    _validate(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    for section, attr in _SECTIONS.items():
        target = getattr(cfg, attr)
        aliases = {v: k for k, v in _KEY_ALIASES.get(section, {}).items()}
        buf.write(f"[{section}]\n")
        for f in fields(target):
            buf.write(f"{aliases.get(f.name, f.name)} = {fmt(getattr(target, f.name))}\n")
        buf.write("\n")
    return buf.getvalue()
