"""Deterministic Ultimatum Game simulator for transcended agents with fairness thresholds."""

from .game import GameConfig, Outcome, PlayerSpec, TieBreak, accepts_offer, argmax, compile_player, play, scan
from .identity import FairnessKind, FairnessMode, effective_tau
from .payoff import LensFamily, PayoffLens

__all__ = [
    "FairnessKind",
    "FairnessMode",
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
]

__version__ = "0.1.0"
