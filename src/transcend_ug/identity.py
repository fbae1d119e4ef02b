"""Players: transcendence, semantic distance, and fairness thresholds.

A player of the two-party Ultimatum Game identifies with its partner at
semantic distance d. The transcendence level gamma controls how strongly
the partner's payoff counts, through the weight gamma**d. The fairness
threshold it applies is none (baseline), its fixed trait tau, or derived
from the association strength as 1 - gamma**d.
"""
from __future__ import annotations

import enum
import math

from .payoff import ConfigError, PayoffLens, ValueObject


class FairnessKind(enum.Enum):
    BASELINE = "baseline"
    AGENT_TAU = "agent_tau"
    ASSOCIATION = "association"


class PlayerSpec(ValueObject):
    """One player: transcendence gamma, distance d to the partner, fairness kind, threshold tau, lens.

    ``tau`` is the fixed threshold that ``agent_tau`` applies; it is
    range-checked in every kind, as the config's ``agent.<role>.tau`` is,
    and the other kinds do not consult it.
    """

    def __init__(self, gamma: float, d: float, kind: FairnessKind, tau: float, lens: PayoffLens) -> None:
        self.gamma, self.d, self.kind, self.tau, self.lens = gamma, d, kind, tau, lens
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must lie in [0,1], got {self.tau}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0,1], got {self.gamma}")
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise ConfigError(f"d must be finite and >= 0, got {self.d}")


def weight(gamma: float, d: float) -> float:
    """Weight gamma**d of a payoff at distance d, with 0**0 taken as 1."""
    return 1.0 if d == 0.0 else gamma ** d


def association_tau(gamma: float, d: float) -> float:
    """Association-derived threshold 1 - gamma**d."""
    return 1.0 - weight(gamma, d)


def effective_tau(player: PlayerSpec) -> float:
    """Fairness threshold the player applies toward its partner.

    Baseline resolves to 0 (and callers skip the lens entirely);
    agent-based modes use the fixed trait regardless of distance;
    association-based modes use 1 - gamma**d.
    """
    if player.kind is FairnessKind.BASELINE:
        return 0.0
    if player.kind is FairnessKind.AGENT_TAU:
        return player.tau
    return association_tau(player.gamma, player.d)
