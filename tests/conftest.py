"""Shared independent oracles for the test suite.

These reimplement the math directly from closed forms, on purpose not
reusing the package's own code paths, so they stay an independent check.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

from hypothesis import settings

# A longer run for CI: pytest --hypothesis-profile=ci. Tests that fix their
# own max_examples keep it; the default profile is left as it is.
settings.register_profile("ci", max_examples=2000, deadline=None)


def oracle_f(delta: float, k: float, lam: float, linear: bool = False) -> float:
    if linear:
        return delta
    if delta >= 0:
        return 1.0 - math.exp(-k * delta)
    return -lam * (1.0 - math.exp(k * delta))


def oracle_fair_utility(
    gamma: float,
    d: float,
    tau: float,
    k: float,
    lam: float,
    own: float,
    own_tau: Optional[float] = None,
    linear: bool = False,
) -> float:
    """Fair utility of keeping ``own``; the own share is judged against ``own_tau`` (default tau)."""
    w = 1.0 if d == 0 else gamma ** d
    t_own = tau if own_tau is None else own_tau
    return (oracle_f(own - t_own, k, lam, linear) + w * oracle_f((1.0 - own) - tau, k, lam, linear)) / (1.0 + w)


def oracle_baseline_utility(gamma: float, d: float, own: float) -> float:
    w = 1.0 if d == 0 else gamma ** d
    return (own + w * (1.0 - own)) / (1.0 + w)


def brute_force_scan(
    utility,
    cells: int,
    accept_threshold: float = 0.0,
    tolerance: float = 1e-9,
) -> Tuple[float, Optional[float]]:
    """Exhaustive argmax (closest-to-equal tie-break) and first acceptable split."""
    grid = [i / cells for i in range(cells + 1)]
    utils = [utility(s) for s in grid]
    top = max(utils)
    ties = [i for i, u in enumerate(utils) if u >= top - tolerance]
    # Distance from the equal split in whole cells, so mirror shares tie exactly.
    best = grid[min(ties, key=lambda i: (abs(2 * i - cells), i))]
    min_acc = next((s for s, u in zip(grid, utils) if u >= accept_threshold - tolerance), None)
    return best, min_acc
