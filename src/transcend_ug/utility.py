"""Utility of a two-player split for a transcended agent.

The agent weighs its partner's share by gamma**d and averages it with
its own: (own + w*partner)/(1 + w). The fairness-filtered variant first
judges both shares against the threshold tau through the
perceived-payoff lens.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .identity import FairnessMode, PlayerSpec, weight
from .payoff import PayoffLens, ug_kernel


@dataclass(frozen=True)
class Split:
    """Allocator-side view of a proposal: own share of the unit resource."""

    own_share: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.own_share <= 1.0:
            raise ValueError(f"own_share must lie in [0,1], got {self.own_share}")

    @property
    def partner_share(self) -> float:
        return 1.0 - self.own_share


def _checked(gamma: float, d: float, lens: PayoffLens, *values: float) -> None:
    """Check gamma and d by ``PlayerSpec``'s rules, and that the shares and thresholds are finite."""
    PlayerSpec(gamma, d, FairnessMode.baseline(), lens)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"shares and thresholds must be finite, got {', '.join(map(str, values))}")


def baseline_ug_utility(gamma: float, d: float, own: float, partner: float) -> float:
    """Two-player utility without any fairness lens: (own + g^d*partner)/(1 + g^d)."""
    _checked(gamma, d, PayoffLens(), own, partner)
    return ug_kernel(weight(gamma, d))(own, partner)


def fair_ug_utility(
    gamma: float,
    d: float,
    tau: float,
    lens: PayoffLens,
    own: float,
    partner: float,
    own_tau: float | None = None,
) -> float:
    """Fairness-filtered two-player utility.

    Both shares are judged against the same threshold tau before the
    weighted average: (f(own-tau) + g^d*f(partner-tau))/(1+g^d).
    ``own_tau`` optionally overrides the threshold applied to the agent's
    own share (off by default; the shipped behaviour uses one tau for
    both terms).
    """
    t_own = tau if own_tau is None else own_tau
    _checked(gamma, d, lens, own, partner, tau, t_own)
    return ug_kernel(weight(gamma, d), lens, tau, t_own)(own, partner)
