"""Deterministic Ultimatum Game simulator for transcended agents with fairness thresholds."""

from .game import GameConfig, Outcome, PlayerSpec, TieBreak, accepts, best_split, min_acceptable_split, play, utility_of_split
from .identity import Aspect, FairnessKind, FairnessMode, SenseOfSelf, attenuation, effective_tau
from .payoff import LensFamily, PayoffLens, compile_lens, loss_aversion_gap, perceived_payoff
from .utility import Split, baseline_ug_utility, ct_utility, fair_ug_utility

__all__ = [
    "Aspect",
    "FairnessKind",
    "FairnessMode",
    "GameConfig",
    "LensFamily",
    "Outcome",
    "PayoffLens",
    "PlayerSpec",
    "SenseOfSelf",
    "Split",
    "TieBreak",
    "accepts",
    "attenuation",
    "baseline_ug_utility",
    "best_split",
    "compile_lens",
    "ct_utility",
    "effective_tau",
    "fair_ug_utility",
    "loss_aversion_gap",
    "min_acceptable_split",
    "perceived_payoff",
    "play",
    "utility_of_split",
]

__version__ = "0.1.0"
