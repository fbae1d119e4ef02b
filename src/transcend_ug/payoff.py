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
from collections.abc import Callable, Iterable


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


class ValueObject:
    """Equality and repr of a plain value class, by its constructor fields; its objects are not hashable.

    The fields are the parameters of ``__init__`` after ``self``, each kept as the attribute of its name,
    unless the class names them in its own ``_fields``; a cached property's value is not a field.
    """

    def _fields(self) -> Iterable[str]:
        code = type(self).__init__.__code__
        return code.co_varnames[1:code.co_argcount]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._fields()
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields())})"


class PayoffLens(ValueObject):
    """Parameters of the perceived-payoff function family.

    ``loss_aversion`` (lambda) and ``steepness`` (k) only apply to the
    EXP_VALUE family; LINEAR ignores both and is an identity test mode.
    """

    def __init__(self, family: LensFamily = LensFamily.EXP_VALUE, loss_aversion: float = DEFAULT_LOSS_AVERSION,
                 steepness: float = DEFAULT_STEEPNESS) -> None:
        self.family, self.loss_aversion, self.steepness = family, loss_aversion, steepness
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


def ug_kernel(w: float, lens: PayoffLens | None = None, tau: float = 0.0, own_tau: float = 0.0) -> Utility:
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
