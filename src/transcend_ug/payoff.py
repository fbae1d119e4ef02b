"""Loss-averse perceived-payoff lens.

An agent never reacts to a raw allocation directly; it reacts to the
disparity ``delta = payoff - tau`` between what it got and its fairness
threshold, transformed through an S-shaped value function. Shortfalls
below the threshold hurt more than equal-sized surpluses help.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable


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
            if not (math.isfinite(self.steepness) and self.steepness > 0.0):
                raise LensConfigError(
                    f"steepness must be finite and > 0 for exp_value lens, got {self.steepness}"
                )


def compile_lens(lens: PayoffLens) -> Callable[[float], float]:
    """The lens as a function of the disparity, its parameters bound once.

    LINEAR: f(delta) = delta.
    EXP_VALUE: f(delta) = 1 - exp(-k*delta) for gains and
    -lambda*(1 - exp(k*delta)) for losses. Strictly increasing, f(0)=0,
    bounded in (-lambda, 1), concave on gains and convex on losses.
    A non-finite delta raises ValueError.
    """
    isfinite = math.isfinite
    if lens.family is LensFamily.LINEAR:

        def linear(delta: float) -> float:
            if not isfinite(delta):
                raise ValueError(f"delta must be finite, got {delta}")
            return delta

        return linear
    k, lam, exp = lens.steepness, lens.loss_aversion, math.exp

    def f(delta: float) -> float:
        if not isfinite(delta):
            raise ValueError(f"delta must be finite, got {delta}")
        if delta >= 0.0:
            return 1.0 - exp(-k * delta)
        return -lam * (1.0 - exp(k * delta))

    return f
