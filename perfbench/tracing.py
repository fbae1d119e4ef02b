"""Layer spans and counters taken from outside the program.

``install`` wraps functions of ``transcend_ug`` by module and name. Every
binding of the same function object in any of the package's modules is
replaced, so calls through ``from .game import play``-style imports are
seen too. A name the package no longer has is reported as absent.

Timed functions record calls, total time and self time (total minus the
time of timed calls made inside them). The innermost kernel is only
counted: timing each of its millions of calls would swamp the spans, so
it is timed at the ``game`` boundary. Aggregates stay in memory and are
read once at the end of the run.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

PACKAGE = "transcend_ug"

# (module, function, span); spans starting with "sweep." also count rows.
TIMED = (
    ("cli", "run", "cli.run"),
    ("cli", "build_parser", "cli.parser"),
    ("cli", "_effective_config", "config.resolve"),
    ("cli", "_render", "cli.render"),
    ("cli", "_write_output", "cli.write"),
    ("sweep", "utility_curves", "sweep.utility_curves"),
    ("sweep", "acceptance_matrix", "sweep.acceptance_matrix"),
    ("sweep", "tau_curves", "sweep.tau_curves"),
    ("sweep", "game_grid", "sweep.game_grid"),
    ("game", "play", "game.play"),
    ("game", "best_split", "game.best_split"),
    ("game", "accepts", "game.accepts"),
)

# (module, function, counter). Functions sharing a counter count once per
# outermost call: utility_of_split calls realized_utility, and together
# they are one utility evaluation.
COUNTED = (
    ("sweep", "with_param", "sweep.with_param"),
    ("game", "utility_of_split", "utility.evals"),
    ("game", "realized_utility", "utility.evals"),
    ("payoff", "perceived_payoff", "payoff.lens"),
    ("identity", "effective_tau", "identity.tau"),
)

# A player is one distinct (sense, mode) pair handed to effective_tau.
PLAYER_COUNTER = "identity.tau"


class Tracer:
    def __init__(self) -> None:
        self.spans = {}  # span -> [calls, total_ns, self_ns, rows]
        self.counts = {}  # counter -> [calls, nesting depth]
        self.players = 0
        self.absent = []
        self._stack = []  # child time of each open timed call
        self._seen = {}  # players of the current operation, kept alive so ids stay unique

    def timed(self, name: str, fn):
        agg = self.spans.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        rows = name.startswith("sweep.")

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if rows and isinstance(result, list):
                agg[3] += len(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        agg = self.counts.setdefault(name, [0, 0])
        seen = self._seen if name == PLAYER_COUNTER else None

        def wrapper(*args, **kwargs):
            if not agg[1]:
                agg[0] += 1
            if seen is not None:
                key = tuple(map(id, args[:2]))
                if key not in seen:
                    seen[key] = args[:2]
            agg[1] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                agg[1] -= 1

        return wrapper

    def end_op(self) -> None:
        self.players += len(self._seen)
        self._seen.clear()

    def summary(self) -> dict:
        """The run's totals, times in ms."""
        return {
            "spans": {name: [calls, total / 1e6, self_ns / 1e6, rows]
                      for name, (calls, total, self_ns, rows) in self.spans.items()},
            "counts": {name: calls for name, (calls, _) in self.counts.items()},
            "players": self.players,
            "absent": self.absent,
        }


def install(tracer: Tracer) -> None:
    """Wrap every TIMED and COUNTED function that the package still has."""
    modules = {}
    for module in {m for m, _, _ in TIMED + COUNTED}:
        try:
            modules[module] = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            pass
    package_modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for specs, make in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for module, func, name in specs:
            original = getattr(modules.get(module), func, None)
            if not callable(original):
                tracer.absent.append(f"{module}.{func}")
                continue
            wrapper = make(name, original)
            for mod in package_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
