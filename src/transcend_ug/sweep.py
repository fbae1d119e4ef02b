"""Parameter sweeps over the game engine.

Regenerates the published curve families, acceptance matrices, threshold
curves, and settled-game grids as plain tabular data. Every cell is
computed by the game engine; rows are emitted in ascending coordinate
order.
"""
from __future__ import annotations

import marshal
import math
import os
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .game import GameConfig, PlayerSpec, accepts, compile_player, play, scan
from .identity import PARTNER_ID, Aspect, FairnessKind, FairnessMode, weight

ENVELOPE_MIN = "envelope_min"
ENVELOPE_MAX = "envelope_max"


class SweepError(ValueError):
    """Raised on malformed sweep axes."""


def axis_values(lo: float, hi: float, step: float, tolerance: float = 1e-9) -> List[float]:
    """Inclusive arithmetic grid from lo to hi; step must divide the span."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise SweepError(f"axis bounds and step must be finite, got [{lo}, {hi}] step {step}")
    if not (hi > lo and step > 0.0):
        raise SweepError(f"axis must satisfy min < max and step > 0, got [{lo}, {hi}] step {step}")
    span = (hi - lo) / step
    n = round(span)
    if abs(span - n) > tolerance * max(1, n):
        raise SweepError(f"step {step} does not divide the span [{lo}, {hi}] evenly")
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def with_param(spec: PlayerSpec, name: str, value: float) -> PlayerSpec:
    """Copy of a player spec with one of {gamma, d, tau} replaced."""
    if name == "gamma":
        return replace(spec, sense=replace(spec.sense, gamma=value))
    if name == "d":
        aspects = tuple(
            Aspect(a.id, value) if a.id == PARTNER_ID else a
            for a in spec.sense.aspects
        )
        return replace(spec, sense=replace(spec.sense, aspects=aspects))
    if name == "tau":
        if spec.mode.kind is not FairnessKind.AGENT_TAU:
            raise SweepError("tau axis requires agent_tau fairness mode")
        return replace(spec, mode=FairnessMode.agent_tau(value))
    raise SweepError(f"unknown player parameter {name!r}")


def utility_curves(
    base: PlayerSpec,
    cfg: GameConfig,
    curve_param: str,
    curve_values: Sequence[float],
    splits: Optional[Sequence[float]] = None,
) -> List[Dict[str, object]]:
    """One utility curve per value of the varied parameter.

    Each row holds (curve_param, curve_value, split, utility) plus marker
    flags for the utility-maximizing split (post tie-break) and the first
    split clearing the acceptance threshold. Two envelope pseudo-curves
    carry the pointwise min/max over the family.
    """
    if curve_param not in ("d", "gamma", "tau"):
        raise SweepError(f"curve parameter must be one of d, gamma, tau; got {curve_param!r}")
    if not curve_values:
        raise SweepError("curve values must be non-empty")
    grid = list(splits) if splits is not None else cfg.splits()
    if not grid or not all(0.0 <= s <= 1.0 for s in grid):
        raise SweepError("split axis must be non-empty and lie in [0,1]")

    def one_curve(value: float) -> List[Dict[str, object]]:
        result = scan(compile_player(with_param(base, curve_param, value), cfg), cfg, grid)
        return [
            {
                "curve_param": curve_param,
                "curve_value": value,
                "split": s,
                "utility": u,
                "is_best_split": int(s == result.best),
                "is_min_acceptable": int(s == result.min_acceptable),
            }
            for s, u in zip(grid, result.utilities)
        ]

    curves = [one_curve(value) for value in curve_values]
    rows = [row for curve in curves for row in curve]
    for name, agg in ((ENVELOPE_MIN, min), (ENVELOPE_MAX, max)):
        for i, s in enumerate(grid):
            rows.append(
                {
                    "curve_param": name,
                    "curve_value": None,
                    "split": s,
                    "utility": agg(curve[i]["utility"] for curve in curves),
                    "is_best_split": 0,
                    "is_min_acceptable": 0,
                }
            )
    return rows


def acceptance_matrix(
    recipient: PlayerSpec,
    cfg: GameConfig,
    d_values: Sequence[float],
    splits: Sequence[float],
) -> List[Dict[str, object]]:
    """Accept/reject flag for every (distance, offered split) cell."""
    if not d_values or not splits:
        raise SweepError("matrix axes must be non-empty")

    def one_row(d: float) -> List[Dict[str, object]]:
        player = with_param(recipient, "d", d)
        return [{"d": d, "split": s, "accepted": int(accepts(player, cfg, s))} for s in sorted(splits)]

    return [cell for d in sorted(d_values) for cell in one_row(d)]


def tau_curves(gammas: Sequence[float], d_values: Sequence[float]) -> List[Dict[str, object]]:
    """Association-derived threshold 1 - gamma**d per (gamma, distance)."""
    if not gammas or not d_values:
        raise SweepError("tau-curve axes must be non-empty")
    for g in gammas:
        if not 0.0 <= g <= 1.0:
            raise SweepError(f"tau-curve gamma must lie in [0,1], got {g}")
    for d in d_values:
        if not (math.isfinite(d) and d >= 0.0):
            raise SweepError(f"tau-curve distance must be finite and >= 0, got {d}")
    return [
        {"gamma": g, "d": d, "tau": 1.0 - weight(g, d)}
        for g in sorted(gammas)
        for d in sorted(d_values)
    ]


def game_grid(
    allocator: PlayerSpec,
    recipient: PlayerSpec,
    cfg: GameConfig,
    axis1: Tuple[str, Sequence[float]],
    axis2: Tuple[str, Sequence[float]],
) -> List[Dict[str, object]]:
    """Settled game per cell of two varied player parameters.

    Axis names take the form ``allocator.gamma`` or ``recipient.d``. Each
    cell is one ``play`` of its pair, so a call costs one allocator scan
    per cell whichever parameters its axes vary. The rows are split into
    one contiguous chunk per usable CPU, and every chunk but the first is
    played in a forked child; the rows come back in order, so the output
    does not depend on the number of CPUs.
    """

    def apply(alloc: PlayerSpec, recip: PlayerSpec, name: str, value: float):
        role, _, param = name.partition(".")
        if role == "allocator":
            return with_param(alloc, param, value), recip
        return alloc, with_param(recip, param, value)

    name1, values1 = axis1[0], sorted(axis1[1])
    name2, values2 = axis2[0], sorted(axis2[1])
    if name1 == name2:
        raise SweepError("game-grid axes must differ")
    for name in (name1, name2):
        if name.partition(".")[0] not in ("allocator", "recipient"):
            raise SweepError(f"axis {name!r} must start with allocator. or recipient.")
    if not values1 or not values2:
        raise SweepError("game-grid axes must be non-empty")
    # Apply every axis value once, in the order a row-by-row sweep meets
    # them, so that a bad value raises its own error here, before any cell
    # is played or any child forked.
    starts = [apply(allocator, recipient, name1, values1[0])]
    for v2 in values2:
        apply(*starts[0], name2, v2)
    starts += [apply(allocator, recipient, name1, v1) for v1 in values1[1:]]

    def play_rows(chunk: List[Tuple[PlayerSpec, PlayerSpec]]) -> List[List[Tuple[float, bool]]]:
        outcomes = ((play(*apply(a, r, name2, v2), cfg) for v2 in values2) for a, r in chunk)
        return [[(o.proposed_split.own_share, o.accepted) for o in row] for row in outcomes]

    n = min(_usable_cpus(), len(starts)) if hasattr(os, "fork") else 1
    bounds = [len(starts) * i // n for i in range(n + 1)]
    chunks = [starts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    played = [row for part in _fan_out(play_rows, chunks) for row in part]
    return [
        {"axis1": v1, "axis2": v2, "proposed_split": split, "accepted": int(accepted)}
        for v1, row in zip(values1, played)
        for v2, (split, accepted) in zip(values2, row)
    ]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _fan_out(work: Callable[[list], list], chunks: List[list]) -> List[list]:
    """``work(chunk)`` of every chunk, in order.

    The first chunk runs here; each other chunk runs in a child forked
    for it, which sends its result back through a pipe. If anything
    fails here, every child still running is killed and reaped before
    the error goes on; a child's own error is raised here.
    """
    pids, reads = [], []
    try:
        for chunk in chunks[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(work, chunk, write)
            finally:
                os.close(write)
            pids.append(pid)
        parts = [work(chunks[0])]
        while pids:
            with open(reads[0], "rb", closefd=False) as pipe:
                data = pipe.read()
            os.close(reads.pop(0))
            status = os.waitpid(pids[0], 0)[1]
            pids.pop(0)
            parts.append(_child_result(data, status))
        return parts
    except BaseException:
        import signal

        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # already reaped
                pass
        for read in reads:
            os.close(read)
        raise


def _run_child(work: Callable[[list], list], chunk: list, write: int) -> None:
    """In a forked child: send ``work(chunk)`` or its error, then exit without returning."""
    status = 1
    try:
        try:
            data, ok = marshal.dumps(work(chunk)), True  # floats exactly, bit for bit
        except BaseException as exc:
            import pickle

            try:
                data = pickle.dumps(exc)
            except Exception:  # an exception that cannot be pickled
                data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            ok = False
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0 if ok else 1
    finally:
        os._exit(status)


def _child_result(data: bytes, status: int) -> list:
    code = os.waitstatus_to_exitcode(status)
    if code == 0 and data:
        return marshal.loads(data)
    error = None
    if code != 0 and data:
        import pickle

        try:
            error = pickle.loads(data)
        except Exception:  # cut short: the child died while writing
            pass
    if isinstance(error, BaseException):
        raise error
    raise RuntimeError(f"game-grid worker exited with status {code} and no result")
