"""Players: transcendence, semantic distance, and fairness thresholds.

A player of the two-party Ultimatum Game identifies with its partner at
semantic distance d. The transcendence level gamma controls how strongly
the partner's payoff counts, through the weight gamma**d. The fairness
threshold tau is either absent (baseline), a fixed trait of the player,
or derived from the association strength as 1 - gamma**d.
"""
from __future__ import annotations

import enum
import math

from .payoff import PayoffLens, ValueObject


class IdentityError(ValueError):
    """Raised on a malformed player or fairness mode."""


class FairnessKind(enum.Enum):
    BASELINE = "baseline"
    AGENT_TAU = "agent_tau"
    ASSOCIATION = "association"


class FairnessMode(ValueObject):
    """How (and whether) an agent resolves its fairness threshold."""

    def __init__(self, kind: FairnessKind, tau: float | None = None) -> None:
        self.kind, self.tau = kind, tau
        if self.kind is FairnessKind.AGENT_TAU:
            if self.tau is None or not 0.0 <= self.tau <= 1.0:
                raise IdentityError(f"tau must lie in [0,1], got {self.tau}")
        elif self.tau is not None:
            raise IdentityError(f"tau must be None for {self.kind.value} mode, got {self.tau}")

    @classmethod
    def agent_tau(cls, tau: float) -> "FairnessMode":
        return cls(FairnessKind.AGENT_TAU, tau)


class PlayerSpec(ValueObject):
    """One player: transcendence gamma, distance d to the partner, fairness mode, lens."""

    def __init__(self, gamma: float, d: float, mode: FairnessMode, lens: PayoffLens) -> None:
        self.gamma, self.d, self.mode, self.lens = gamma, d, mode, lens
        if not 0.0 <= self.gamma <= 1.0:
            raise IdentityError(f"gamma must lie in [0,1], got {self.gamma}")
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise IdentityError(f"d must be finite and >= 0, got {self.d}")


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
    mode = player.mode
    if mode.kind is FairnessKind.BASELINE:
        return 0.0
    if mode.kind is FairnessKind.AGENT_TAU:
        assert mode.tau is not None
        return mode.tau
    return association_tau(player.gamma, player.d)
