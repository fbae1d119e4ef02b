"""Deterministic Ultimatum Game simulator for transcended agents with fairness thresholds."""

from .game import GameConfig, Outcome, PlayerSpec, TieBreak, accepts_offer, argmax, compile_player, play, scan, settle
from .identity import FairnessKind, effective_tau
from .payoff import ConfigError, LensFamily, PayoffLens

__all__ = [
    "ConfigError",
    "FairnessKind",
    "GameConfig",
    "LensFamily",
    "Outcome",
    "PayoffLens",
    "PlayerSpec",
    "TieBreak",
    "accepts_offer",
    "argmax",
    "compile_player",
    "effective_tau",
    "play",
    "scan",
    "settle",
]

__version__ = "0.1.0"
