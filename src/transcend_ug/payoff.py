"""Loss-averse perceived-payoff lens.

An agent never reacts to a raw allocation directly; it reacts to the
disparity ``delta = payoff - tau`` between what it got and its fairness
threshold, transformed through an S-shaped value function. Shortfalls
below the threshold hurt more than equal-sized surpluses help. The
lens is written once, inside the two-player utility kernel.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional


class LensFamily(enum.Enum):
    LINEAR = "linear"
    EXP_VALUE = "exp_value"


class LensConfigError(ValueError):
    """Raised when lens parameters violate their constraints."""


# Defaults calibrated so that, with a fairness threshold of 0.2 and full
# identification (d=0), the accepted offers at 0.05 resolution are exactly
# those where both players get at least 0.2. k=16 gives the loss branch
# enough bite near zero: lambda*(1-exp(-0.05k)) must exceed the saturated
# gain 1-exp(-0.65k).
DEFAULT_STEEPNESS = 16.0
DEFAULT_LOSS_AVERSION = 2.0

# Each lens term lies in [-lambda, 1] and a partner weight in [0, 1], so at
# this bound the kernel's numerator f(own) + w*f(partner) stays finite.
MAX_LOSS_AVERSION = sys.float_info.max / 2


@dataclass(frozen=True)
class PayoffLens:
    """Parameters of the perceived-payoff function family.

    ``loss_aversion`` (lambda) and ``steepness`` (k) only apply to the
    EXP_VALUE family; LINEAR ignores both and is an identity test mode.
    """

    family: LensFamily = LensFamily.EXP_VALUE
    loss_aversion: float = DEFAULT_LOSS_AVERSION
    steepness: float = DEFAULT_STEEPNESS

    def __post_init__(self) -> None:
        if self.family is LensFamily.EXP_VALUE:
            if not (math.isfinite(self.loss_aversion) and self.loss_aversion > 1.0):
                raise LensConfigError(
                    f"loss_aversion must be finite and > 1 for exp_value lens, got {self.loss_aversion}"
                )
            if self.loss_aversion > MAX_LOSS_AVERSION:
                raise LensConfigError(
                    f"loss_aversion must be at most {MAX_LOSS_AVERSION} for exp_value lens, got {self.loss_aversion}"
                )
            if not (math.isfinite(self.steepness) and self.steepness > 0.0):
                raise LensConfigError(
                    f"steepness must be finite and > 0 for exp_value lens, got {self.steepness}"
                )


Utility = Callable[[float, float], float]


def ug_kernel(w: float, lens: Optional[PayoffLens] = None, tau: float = 0.0, own_tau: float = 0.0) -> Utility:
    """Two-player utility over a realized (own, partner) payoff pair.

    Without a lens this is the plain weighted average (own + w*partner)/(1+w).
    With one, each share is first judged against its threshold:
    (f(own-own_tau) + w*f(partner-tau))/(1+w), where for LINEAR f(x) = x
    and for EXP_VALUE f(x) = 1 - exp(-k*x) for gains and
    -lambda*(1 - exp(k*x)) for losses. This is the one copy of the
    formula; callers pass finite values, which are not checked here, and
    ``PayoffLens`` bounds lambda so that the numerator stays finite.
    """
    norm = 1.0 + w
    if lens is None:
        return lambda own, partner: (own + w * partner) / norm
    if lens.family is LensFamily.LINEAR:
        return lambda own, partner: (own - own_tau + w * (partner - tau)) / norm
    k, lam, exp = lens.steepness, lens.loss_aversion, math.exp

    def utility(own: float, partner: float) -> float:
        x, y = own - own_tau, partner - tau
        fx = 1.0 - exp(-k * x) if x >= 0.0 else -lam * (1.0 - exp(k * x))
        fy = 1.0 - exp(-k * y) if y >= 0.0 else -lam * (1.0 - exp(k * y))
        return (fx + w * fy) / norm

    return utility


def compile_lens(lens: PayoffLens) -> Callable[[float], float]:
    """The lens f of the disparity, strictly increasing with f(0)=0, as the kernel at w = 0.

    A non-finite delta raises ValueError. At a negative partner share the
    w = 0 term is -0.0, which adds exactly, so even f(-0.0) keeps its sign.
    """
    kernel, isfinite = ug_kernel(0.0, lens), math.isfinite

    def f(delta: float) -> float:
        if not isfinite(delta):
            raise ValueError(f"delta must be finite, got {delta}")
        return kernel(delta, -1.0)

    return f
