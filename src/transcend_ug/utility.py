"""Utility of a two-player split for a transcended agent.

The agent weighs its partner's share by gamma**d and averages it with
its own: (own + w*partner)/(1 + w). The fairness-filtered variant first
judges both shares against the threshold tau through the
perceived-payoff lens.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .identity import weight
from .payoff import PayoffLens, compile_lens


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


def ug_kernel(
    w: float, lens: Optional[PayoffLens] = None, tau: float = 0.0, own_tau: float = 0.0
) -> Callable[[float, float], float]:
    """Two-player utility over a realized (own, partner) payoff pair.

    Without a lens this is the plain weighted average (own + w*partner)/(1+w).
    With one, each share is first judged against its threshold:
    (f(own-own_tau) + w*f(partner-tau))/(1+w).
    """
    norm = 1.0 + w
    if lens is None:
        return lambda own, partner: (own + w * partner) / norm
    f = compile_lens(lens)
    return lambda own, partner: (f(own - own_tau) + w * f(partner - tau)) / norm


def baseline_ug_utility(gamma: float, d: float, own: float, partner: float) -> float:
    """Two-player utility without any fairness lens: (own + g^d*partner)/(1 + g^d)."""
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
    return ug_kernel(weight(gamma, d), lens, tau, t_own)(own, partner)
