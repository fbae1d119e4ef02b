"""Closed-form model of the game, written from the README, for output checks.

It shares no code with ``transcend_ug``: a player is a plain dict, and
every quantity is recomputed from its formula. The checks compare the
printed values (rounded to 6 decimals by the CLI) against it.
"""
from __future__ import annotations

import math

FLOAT_TOL = 1.5e-6  # the CLI prints 6 decimals; allow rounding on both sides
GAME_TOL = 1e-9  # default game.tolerance

DEFAULT_LENS = {"family": "exp_value", "k": 16.0, "lam": 2.0}
DEFAULT_GAME = {"cells": 100, "tie_break": "closest_to_equal", "own_tau_zero": False}


def weight(gamma: float, d: float) -> float:
    """Attenuation gamma**d, with any gamma**0 taken as 1."""
    return 1.0 if d == 0 else gamma ** d


def tau_of(gamma: float, d: float) -> float:
    """Association threshold 1 - gamma**d."""
    return 1.0 - weight(gamma, d)


def perceive(x: float, lens: dict) -> float:
    if lens["family"] == "linear":
        return x
    if x >= 0:
        return 1.0 - math.exp(-lens["k"] * x)
    return -lens["lam"] * (1.0 - math.exp(lens["k"] * x))


def utility(p: dict, lens: dict, game: dict, own: float, partner: float) -> float:
    w = weight(p["gamma"], p["d"])
    if p["mode"] == "baseline":
        return (own + w * partner) / (1.0 + w)
    tau = p["tau"] if p["mode"] == "agent_tau" else tau_of(p["gamma"], p["d"])
    own_tau = 0.0 if game["own_tau_zero"] and p["mode"] == "association" else tau
    return (perceive(own - own_tau, lens) + w * perceive(partner - tau, lens)) / (1.0 + w)


def scan(p: dict, lens: dict, game: dict):
    """(best own share after tie-break, first acceptable share or None, grid, utilities)."""
    n = game["cells"]
    grid = [i / n for i in range(n + 1)]
    utils = [utility(p, lens, game, s, 1.0 - s) for s in grid]
    top = max(utils)
    ties = [s for s, u in zip(grid, utils) if u >= top - GAME_TOL]
    rule = game["tie_break"]
    if rule == "lowest_own_share":
        best = min(ties)
    elif rule == "highest_own_share":
        best = max(ties)
    else:
        best = min(ties, key=lambda s: (abs(s - 0.5), s))
    first_ok = next((s for s, u in zip(grid, utils) if u >= -GAME_TOL), None)
    return best, first_ok, grid, utils


def accepts(p: dict, lens: dict, game: dict, offered: float) -> bool:
    return utility(p, lens, game, offered, 1.0 - offered) >= -GAME_TOL


def play(alloc: dict, recip: dict, lens: dict, game: dict, offer: float | None = None) -> dict:
    """The play record: the allocator's best split, or a snapped offer."""
    if offer is None:
        own = scan(alloc, lens, game)[0]
        offered = 1.0 - own
    else:
        n = game["cells"]
        offered = round(offer * n) / n
        own = 1.0 - offered
    ok = accepts(recip, lens, game, offered)
    pay_a, pay_r = (own, offered) if ok else (0.0, 0.0)
    return {
        "proposed_split": own,
        "accepted": ok,
        "payoff_allocator": pay_a,
        "payoff_recipient": pay_r,
        "util_allocator": utility(alloc, lens, game, pay_a, pay_r),
        "util_recipient": utility(recip, lens, game, pay_r, pay_a),
    }


def close(printed: float, exact: float) -> bool:
    return abs(float(printed) - exact) <= FLOAT_TOL
