"""Deterministic Ultimatum Game simulator for transcended agents with fairness thresholds."""

from .game import GameConfig, Outcome, PlayerSpec, TieBreak, accepts, best_split, min_acceptable_split, play, utility_of_split
from .identity import FairnessKind, FairnessMode, effective_tau
from .payoff import LensFamily, PayoffLens, compile_lens
from .utility import Split, baseline_ug_utility, fair_ug_utility

__all__ = [
    "FairnessKind",
    "FairnessMode",
    "GameConfig",
    "LensFamily",
    "Outcome",
    "PayoffLens",
    "PlayerSpec",
    "Split",
    "TieBreak",
    "accepts",
    "baseline_ug_utility",
    "best_split",
    "compile_lens",
    "effective_tau",
    "fair_ug_utility",
    "min_acceptable_split",
    "play",
    "utility_of_split",
]

__version__ = "0.1.0"
