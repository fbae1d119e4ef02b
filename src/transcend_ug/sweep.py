"""Parameter sweeps over the game engine.

Regenerates the published curve families, acceptance matrices, threshold
curves, and settled-game grids as tables (``Table``), held as runs of
columns. Every cell is computed by the game engine; rows are emitted in
ascending coordinate order. A sweep checks none of its inputs again:
``config.resolve`` has refused each bad one, naming its config key.
"""
from __future__ import annotations

import marshal
import os
from collections.abc import Callable, Sequence

from .game import ConfigError, GameConfig, accepts_offer, compile_player, scan, settle
from .identity import FairnessKind, PlayerSpec, association_tau

ENVELOPE_MIN = "envelope_min"
ENVELOPE_MAX = "envelope_max"

# A table's columns, in the order of its rows' keys, each with its cell
# format: float, int or str.
Columns = tuple[tuple[str, type], ...]


class Table:
    """A sweep's rows, held as runs of columns.

    A run is ``(fixed, varying)``: the cells of the leading columns, which
    stay the same through the run (None is an empty cell), and one
    sequence per remaining column, all of one length. A column that
    several runs share (a split grid, a distance axis) is the same object
    in each run, so that a renderer can format it once.
    """

    __slots__ = ("columns", "runs")

    def __init__(self, columns: Columns, runs: list[tuple[tuple, tuple]]) -> None:
        self.columns, self.runs = columns, runs


def with_param(spec: PlayerSpec, name: str, value: float) -> PlayerSpec:
    """Copy of a player spec with one of {gamma, d, tau} replaced."""
    if name == "gamma":
        return PlayerSpec(value, spec.d, spec.kind, spec.tau, spec.lens)
    if name == "d":
        return PlayerSpec(spec.gamma, value, spec.kind, spec.tau, spec.lens)
    if name == "tau":
        if spec.kind is not FairnessKind.AGENT_TAU:
            raise ConfigError(f"tau requires agent_tau fairness mode, got {spec.kind.value}")
        return PlayerSpec(spec.gamma, spec.d, spec.kind, value, spec.lens)
    raise ConfigError(f"unknown player parameter {name!r}")


UTILITY_CURVES_COLUMNS: Columns = (
    ("curve_param", str), ("curve_value", float), ("split", float), ("utility", float),
    ("is_best_split", int), ("is_min_acceptable", int),
)


def utility_curves(
    base: PlayerSpec,
    cfg: GameConfig,
    curve_param: str,
    curve_values: Sequence[float],
) -> Table:
    """One utility curve per value of the varied parameter.

    Each curve is one run: its fixed (curve_param, curve_value), and the
    columns split, utility and two marker flags, for the utility-maximizing
    split (post tie-break) and the first split clearing the acceptance
    threshold. Two envelope pseudo-curves, with a None curve_value, carry
    the pointwise min/max over the family. Every run's split column is
    ``cfg.splits()`` itself. Every utility is emitted, so each curve is a
    full ``game.scan``, not a pruned argmax.
    """
    grid, runs, families = cfg.splits(), [], []
    zeros = [0] * len(grid)
    for value in curve_values:
        result = scan(compile_player(with_param(base, curve_param, value), cfg), cfg)
        families.append(result.utilities)
        flags = _flags(grid, result.best, zeros), _flags(grid, result.min_acceptable, zeros)
        runs.append(((curve_param, value), (grid, result.utilities, *flags)))
    for name, agg in ((ENVELOPE_MIN, min), (ENVELOPE_MAX, max)):
        runs.append(((name, None), (grid, list(map(agg, zip(*families))), zeros, zeros)))
    return Table(UTILITY_CURVES_COLUMNS, runs)


def _flags(grid: list[float], share: float | None, zeros: list[int]) -> list[int]:
    """A flag per grid point, 1 where it equals ``share``; ``zeros`` itself where none does (or ``share`` is None)."""
    if share not in grid:
        return zeros
    flags = zeros.copy()
    flags[grid.index(share)] = 1
    return flags


ACCEPTANCE_MATRIX_COLUMNS: Columns = (("d", float), ("split", float), ("accepted", int))


def acceptance_matrix(
    recipient: PlayerSpec,
    cfg: GameConfig,
    d_values: Sequence[float],
    splits: Sequence[float],
) -> Table:
    """Accept/reject flag for every (distance, offered split) cell: one run per distance, sharing one split column."""
    shares = sorted(splits)
    runs = []
    for d in sorted(d_values):
        utility = compile_player(with_param(recipient, "d", d), cfg)
        runs.append(((d,), (shares, [int(accepts_offer(utility, cfg, s)) for s in shares])))
    return Table(ACCEPTANCE_MATRIX_COLUMNS, runs)


TAU_CURVES_COLUMNS: Columns = (("gamma", float), ("d", float), ("tau", float))


def tau_curves(gammas: Sequence[float], d_values: Sequence[float]) -> Table:
    """Association-derived threshold per (gamma, distance): one run per gamma, sharing one distance column."""
    ds = sorted(d_values)
    return Table(TAU_CURVES_COLUMNS, [((g,), (ds, [association_tau(g, d) for d in ds])) for g in sorted(gammas)])


GAME_GRID_COLUMNS: Columns = (("axis1", float), ("axis2", float), ("proposed_split", float), ("accepted", int))


def game_grid(
    allocator: PlayerSpec,
    recipient: PlayerSpec,
    cfg: GameConfig,
    axis1: tuple[str, Sequence[float]],
    axis2: tuple[str, Sequence[float]],
) -> Table:
    """Settled game per cell of two varied player parameters.

    Axis names take the form ``allocator.gamma`` or ``recipient.d``. Each
    cell compiles its two players and is one ``game.settle`` of them: one
    allocator ``game.argmax`` and one recipient ``game.accepts_offer``,
    whichever parameters its axes vary, and no realized utility. Each
    axis-1 value is one run, and every run shares one axis-2 column. The
    runs are split into one contiguous chunk per usable CPU, and every
    chunk but the first is played in a forked child, which sends back its
    runs' columns; the runs come back in order, so the output does not
    depend on the number of CPUs.
    """

    def apply(alloc: PlayerSpec, recip: PlayerSpec, name: str, value: float):
        role, _, param = name.partition(".")
        if role == "allocator":
            return with_param(alloc, param, value), recip
        return alloc, with_param(recip, param, value)

    name1, values1 = axis1[0], sorted(axis1[1])
    name2, values2 = axis2[0], sorted(axis2[1])
    starts = [apply(allocator, recipient, name1, v1) for v1 in values1]

    def play_runs(chunk: list[tuple[PlayerSpec, PlayerSpec]]) -> list[tuple[list[float], list[int]]]:
        """Each start's proposed_split and accepted columns."""
        runs = []
        for a, r in chunk:
            cells = [apply(a, r, name2, v2) for v2 in values2]
            settled = [settle(compile_player(alloc, cfg), compile_player(recip, cfg), cfg) for alloc, recip in cells]
            runs.append(([proposal for proposal, _ in settled], [int(ok) for _, ok in settled]))
        return runs

    n = min(_usable_cpus(), len(starts)) if hasattr(os, "fork") else 1
    bounds = [len(starts) * i // n for i in range(n + 1)]
    chunks = [starts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    played = [run for part in _fan_out(play_runs, chunks) for run in part]
    return Table(GAME_GRID_COLUMNS, [((v1,), (values2, *columns)) for v1, columns in zip(values1, played)])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _fan_out(work: Callable[[list], list], chunks: list[list]) -> list[list]:
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
