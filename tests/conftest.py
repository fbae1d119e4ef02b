"""Shared independent oracles for the test suite.

These reimplement the math directly from closed forms, on purpose not
reusing the package's own code paths, so they stay an independent check.
"""
from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

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


def rows(table) -> List[Dict[str, object]]:
    """A sweep table's rows, each a dict keyed by its column names, in order."""
    names = [name for name, _ in table.columns]
    return [dict(zip(names, fixed + cells)) for fixed, varying in table.runs for cells in zip(*varying)]


# The table renderer that per-table %-templates replaced, kept as the
# reference for their output bytes: a cell's format comes from its value.
def reference_rounded(record: Dict[str, object]) -> Dict[str, object]:
    """A record with every float rounded to the 6 decimals of the output."""
    return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in record.items()}


def reference_render(rows: List[Dict[str, object]], fmt: str) -> str:
    """Rows as CSV or JSON; the columns are the first row's keys, in order.

    A float cell gets 6 decimals, ``None`` is empty in CSV and ``null`` in
    JSON, and any other cell is written as ``str`` gives it.
    """
    if fmt == "json":
        return json.dumps([reference_rounded(row) for row in rows], separators=(",", ":")) + "\n"
    lines = [",".join(rows[0])]
    lines += (",".join(f"{v:.6f}" if isinstance(v, float) else "" if v is None else str(v) for v in row.values())
              for row in rows)
    return "\n".join(lines) + "\n"
