"""Sense of self: identity sets, transcendence, and fairness thresholds.

An agent's identity is a set of aspects (itself, other agents, notions),
each at a semantic distance d. The transcendence level gamma controls how
strongly payoffs of non-self aspects count, through the attenuation
weight gamma**d. The fairness threshold tau is either absent (baseline),
a fixed trait of the agent, or derived per aspect from the association
strength as 1 - gamma**d.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

SELF_ID = "self"
PARTNER_ID = "partner"


class IdentityError(ValueError):
    """Raised on malformed identity data or unknown aspect lookups."""


@dataclass(frozen=True)
class Aspect:
    """One element of an identity set."""

    id: str
    distance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.distance) and self.distance >= 0.0):
            raise IdentityError(f"aspect {self.id!r}: distance must be >= 0, got {self.distance}")


@dataclass(frozen=True)
class SenseOfSelf:
    """An agent's transcendence level and identity set.

    The set always contains the distinguished self aspect at distance 0.
    """

    gamma: float
    aspects: Tuple[Aspect, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise IdentityError(f"gamma must lie in [0,1], got {self.gamma}")
        ids = [a.id for a in self.aspects]
        if len(set(ids)) != len(ids):
            raise IdentityError(f"aspect ids must be unique, got {ids}")
        selves = [a for a in self.aspects if a.id == SELF_ID]
        if not selves:
            raise IdentityError("identity set must contain the self aspect")
        if selves[0].distance != 0.0:
            raise IdentityError("self aspect must have distance 0")

    @classmethod
    def two_party(cls, gamma: float, partner_distance: float) -> "SenseOfSelf":
        """The {self, partner} identity used by the two-player game."""
        return cls(gamma, (Aspect(SELF_ID, 0.0), Aspect(PARTNER_ID, partner_distance)))

    def aspect(self, aspect_id: str) -> Aspect:
        for a in self.aspects:
            if a.id == aspect_id:
                return a
        raise IdentityError(f"unknown aspect {aspect_id!r}")

    @property
    def partner_distance(self) -> float:
        return self.aspect(PARTNER_ID).distance


class FairnessKind(enum.Enum):
    BASELINE = "baseline"
    AGENT_TAU = "agent_tau"
    ASSOCIATION = "association"


@dataclass(frozen=True)
class FairnessMode:
    """How (and whether) an agent resolves its fairness threshold."""

    kind: FairnessKind
    tau: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind is FairnessKind.AGENT_TAU:
            if self.tau is None or not 0.0 <= self.tau <= 1.0:
                raise IdentityError(f"agent_tau mode requires tau in [0,1], got {self.tau}")
        elif self.tau is not None:
            raise IdentityError(f"{self.kind.value} mode takes no tau")

    @classmethod
    def baseline(cls) -> "FairnessMode":
        return cls(FairnessKind.BASELINE)

    @classmethod
    def agent_tau(cls, tau: float) -> "FairnessMode":
        return cls(FairnessKind.AGENT_TAU, tau)

    @classmethod
    def association(cls) -> "FairnessMode":
        return cls(FairnessKind.ASSOCIATION)


def weight(gamma: float, d: float) -> float:
    """Attenuation weight gamma**d of a payoff at distance d, with 0**0 taken as 1."""
    return 1.0 if d == 0.0 else gamma ** d


def attenuation(sense: SenseOfSelf, aspect_id: str) -> float:
    """Weight of an aspect's payoff in the agent's identity."""
    return weight(sense.gamma, sense.aspect(aspect_id).distance)


def effective_tau(sense: SenseOfSelf, mode: FairnessMode, aspect_id: str) -> float:
    """Fairness threshold the agent applies toward the given aspect.

    Baseline resolves to 0 (and callers skip the lens entirely);
    agent-based modes use the fixed trait regardless of aspect;
    association-based modes use 1 - gamma**d.
    """
    d = sense.aspect(aspect_id).distance  # raises on unknown aspect
    if mode.kind is FairnessKind.BASELINE:
        return 0.0
    if mode.kind is FairnessKind.AGENT_TAU:
        assert mode.tau is not None
        return mode.tau
    return 1.0 - weight(sense.gamma, d)
