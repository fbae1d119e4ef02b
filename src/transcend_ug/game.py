"""The Ultimatum Game engine.

The allocator searches a discretized grid of splits and proposes the
one maximizing its own utility; the recipient accepts any offer whose
utility clears the acceptance threshold (0 by default). Everything is
deterministic: same specs, same outcome, bit for bit.
"""
from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from functools import cached_property

from .identity import FairnessKind, PlayerSpec, effective_tau, weight
from .payoff import ConfigError, Utility, ValueObject, ug_kernel

# Relative slack within which a step counts as dividing a span evenly. It
# is fixed: the tie tolerance must not decide which grids exist.
STEP_SLACK = 1e-9

# Most points on one step-built axis (game.grid_step, sweep.split_step,
# sweep.d_step) and most rows one call may emit. The largest benchmarked
# call emits 40,004 rows. A 961,000-row tau-curves call (1,000 gammas)
# peaks at 54 MB of ru_maxrss in JSON or CSV (Python 3.11, x86-64 Linux),
# since the table is written one run at a time.
MAX_POINTS = 1_000_000

# Largest tie window and acceptance slack. It is a float-comparison slack,
# so it stays within the last printed digit (6 decimals) of every output.
MAX_TOLERANCE = 1e-6

# Slack on a block's utility bound in ``argmax``: the bound is one kernel
# call at other arguments than the block's points, so rounding can put it
# a few ulps below the best of them.
BOUND_SLACK = 1e-12


class TieBreak(enum.Enum):
    CLOSEST_TO_EQUAL = "closest_to_equal"
    LOWEST_OWN_SHARE = "lowest_own_share"
    HIGHEST_OWN_SHARE = "highest_own_share"


def axis_points(lo: float, hi: float, step: float, name: str = "step") -> int:
    """Points of ``axis_values(lo, hi, step, name)``, counted, not built: the one rule of every step-built axis."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"axis bounds and step must be finite, got [{lo}, {hi}] step {step}")
    axis = name.rpartition("step")[0]  # the bounds of step "sweep.d_step" are "sweep.d_min" and "sweep.d_max"
    if not hi > lo:
        raise ConfigError(f"{axis}max must exceed {axis}min, got [{lo}, {hi}]")
    if not step > 0.0:
        raise ConfigError(f"{name} must be > 0, got {step}")
    span = (hi - lo) / step
    if span + 1.0 > MAX_POINTS:
        raise ConfigError(f"{name} {step} gives {span + 1.0:.0f} points, more than the limit of {MAX_POINTS}")
    n = round(span)
    if n == 0:
        raise ConfigError(f"{name} {step} is longer than the span [{lo}, {hi}]")
    if abs(span - n) > STEP_SLACK * max(1, n):
        raise ConfigError(f"{name} {step} does not divide the span [{lo}, {hi}] evenly")
    return n + 1


def axis_values(lo: float, hi: float, step: float, name: str = "step") -> list[float]:
    """Inclusive arithmetic grid from lo to hi; step, named ``name`` in errors, must divide the span."""
    n = axis_points(lo, hi, step, name) - 1
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


Blocks = namedtuple("Blocks", "bound_own bound_partner runs")
Blocks.__doc__ = """The split grid in runs of about sqrt(n) shares, with each run's utility bound point.

``bound_own`` holds each run's highest share, ``bound_partner`` 1 - each
run's lowest share, and ``runs`` each run's shares s and partner shares 1 - s.
"""


class GameConfig(ValueObject):
    """Grid resolution, acceptance threshold, and numeric tolerances.

    ``own_tau_zero`` is the documented escape hatch for association-based
    play: when set, the agent's own payoff term is judged against tau=0
    (its distance to itself) instead of the partner-derived threshold.
    Default off: one tau for both terms.
    """

    def __init__(self, grid_step: float = 0.01, accept_threshold: float = 0.0,
                 tie_break: TieBreak = TieBreak.CLOSEST_TO_EQUAL, tolerance: float = 1e-9,
                 own_tau_zero: bool = False) -> None:
        self.grid_step, self.accept_threshold, self.tie_break = grid_step, accept_threshold, tie_break
        self.tolerance, self.own_tau_zero = tolerance, own_tau_zero
        if not 0.0 < self.grid_step <= 0.5:
            raise ConfigError(f"grid_step must lie in (0, 0.5], got {self.grid_step}")
        axis_points(0.0, 1.0, self.grid_step, "grid_step")
        if not 0.0 < self.tolerance <= MAX_TOLERANCE:
            raise ConfigError(f"tolerance must lie in (0, {MAX_TOLERANCE}], got {self.tolerance}")
        if not math.isfinite(self.accept_threshold):
            raise ConfigError(f"accept_threshold must be finite, got {self.accept_threshold}")

    @property
    def grid_cells(self) -> int:
        return round(1.0 / self.grid_step)

    @cached_property
    def _splits(self) -> list[float]:
        n = self.grid_cells
        return [i / n for i in range(n + 1)]

    def splits(self) -> list[float]:
        """The split grid {0, step, ..., 1}, built on first use and shared: callers must not change it."""
        return self._splits

    @cached_property
    def _blocks(self) -> Blocks:
        grid, size = self._splits, max(1, math.isqrt(self.grid_cells + 1))
        runs = [grid[i:i + size] for i in range(0, len(grid), size)]
        return Blocks([run[-1] for run in runs], [1.0 - run[0] for run in runs],
                      [(run, [1.0 - s for s in run]) for run in runs])

    def blocks(self) -> Blocks:
        """The split grid cut into runs of about sqrt(n) shares for ``argmax``, built once and shared."""
        return self._blocks

    def snap(self, share: float) -> float:
        """Round a share to the nearest grid point, warning when off-grid."""
        n = self.grid_cells
        snapped = round(share * n) / n
        if abs(snapped - share) > self.tolerance:
            sys.stderr.write("WARNING off-grid share %g snapped to %g\n" % (share, snapped))
        return snapped

    def clears(self, utility: float) -> bool:
        """Whether a utility clears the acceptance threshold."""
        return utility >= self.accept_threshold - self.tolerance


class Outcome(ValueObject):
    """Record of a single played game; ``proposed_split`` is the allocator's own share."""

    def __init__(self, proposed_split: float, accepted: bool, payoff_allocator: float, payoff_recipient: float,
                 util_allocator: float, util_recipient: float) -> None:
        self.proposed_split, self.accepted = proposed_split, accepted
        self.payoff_allocator, self.payoff_recipient = payoff_allocator, payoff_recipient
        self.util_allocator, self.util_recipient = util_allocator, util_recipient

    def to_record(self) -> dict:
        return {
            "proposed_split": self.proposed_split,
            "accepted": self.accepted,
            "payoff_allocator": self.payoff_allocator,
            "payoff_recipient": self.payoff_recipient,
            "util_allocator": self.util_allocator,
            "util_recipient": self.util_recipient,
        }


def compile_player(player: PlayerSpec, cfg: GameConfig) -> Utility:
    """The player's utility over a realized (own, partner) payoff pair.

    Weight, thresholds and lens are resolved here, once per player, so
    scans evaluate only the formula.
    """
    w = weight(player.gamma, player.d)
    kind = player.kind
    if kind is FairnessKind.BASELINE:
        return ug_kernel(w)
    tau = effective_tau(player)
    own_tau = 0.0 if (cfg.own_tau_zero and kind is FairnessKind.ASSOCIATION) else tau
    return ug_kernel(w, player.lens, tau, own_tau)


def _break_ties(candidates: list[float], cfg: GameConfig) -> float:
    if cfg.tie_break is TieBreak.LOWEST_OWN_SHARE:
        return min(candidates)
    if cfg.tie_break is TieBreak.HIGHEST_OWN_SHARE:
        return max(candidates)
    n = cfg.grid_cells  # closest to equal in whole cells, so mirror shares s and 1 - s tie and the lower wins
    return min(candidates, key=lambda s: (abs(2 * round(s * n) - n), s))


Scan = namedtuple("Scan", "utilities top best min_acceptable")
Scan.__doc__ = """A utility evaluated over a grid of own shares.

``top`` is the largest utility, ``best`` the utility-maximizing share with
ties broken per config, and ``min_acceptable`` the first share whose
utility clears the threshold, or None (acceptance is not guaranteed above
it: high-threshold curves are U-shaped).
"""


def scan(utility: Utility, cfg: GameConfig) -> Scan:
    """Evaluate a compiled utility at each own share of the split grid."""
    grid = cfg.splits()
    utilities = [utility(s, 1.0 - s) for s in grid]
    top = max(utilities)
    min_acc = next((s for s, u in zip(grid, utilities) if cfg.clears(u)), None)
    cut = top - cfg.tolerance
    best = _break_ties([s for s, u in zip(grid, utilities) if u >= cut], cfg)
    return Scan(utilities, top, best, min_acc)


def argmax(utility: Utility, cfg: GameConfig) -> tuple[float, float]:
    """``(best, top)`` of ``scan`` over the split grid, evaluating only what can win.

    A compiled utility rises in the own share and in the partner's (every
    lens is increasing and the weight is >= 0), so over a block of shares
    [lo, hi] no point exceeds ``utility(hi, 1 - lo)``. The config's
    blocks of about sqrt(n) shares (``cfg.blocks()``) are evaluated in
    descending order of that bound until the bound falls below the tie
    window of the best utility so far. A skipped point can neither be the
    top nor tie with it, so the answer is exact.
    """
    blocks, tol = cfg.blocks(), cfg.tolerance
    bounds = list(map(utility, blocks.bound_own, blocks.bound_partner))
    evaluated: list[tuple[float, list[float], list[float]]] = []  # (block's top, shares, utilities)
    top = -math.inf
    # a stable sort, so tied bounds keep their block order
    for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < top - tol - BOUND_SLACK:  # not pre-summed: tol + BOUND_SLACK rounds differently
            break
        shares, partners = blocks.runs[i]
        utilities = list(map(utility, shares, partners))
        peak = max(utilities)
        evaluated.append((peak, shares, utilities))
        if peak > top:
            top = peak
    # a tie lies only in a block whose own top is within the tie window
    cut = top - tol
    ties = [s for peak, shares, utilities in evaluated if peak >= cut for s, u in zip(shares, utilities) if u >= cut]
    return (ties[0] if len(ties) == 1 else _break_ties(ties, cfg)), top


def accepts_offer(utility: Utility, cfg: GameConfig, offered: float) -> bool:
    """Whether a recipient of this compiled utility accepts the offered share: the one response rule."""
    return cfg.clears(utility(offered, 1.0 - offered))


def settle(allocator: Utility, recipient: Utility, cfg: GameConfig) -> tuple[float, bool]:
    """``(proposal, accepted)`` of a game between compiled players: the allocator's best split and the answer to it."""
    proposal = argmax(allocator, cfg)[0]
    return proposal, accepts_offer(recipient, cfg, 1.0 - proposal)


def check_offer(offer: float) -> float:
    """An offered share, or the ConfigError of one that is not a finite share in [0,1]: the one offer rule."""
    if not 0.0 <= offer <= 1.0:
        raise ConfigError(f"offer must be a finite share in [0,1], got {offer}")
    return offer


def play(
    allocator: PlayerSpec, recipient: PlayerSpec, cfg: GameConfig, offer: float | None = None
) -> Outcome:
    """One full game: proposal, response, and realized utilities.

    Given an ``offer`` (the recipient's share, snapped to the grid), the
    allocator's proposal is that offer instead of its best split.
    """
    u_alloc = compile_player(allocator, cfg)
    u_recip = compile_player(recipient, cfg)
    if offer is None:
        proposal, accepted = settle(u_alloc, u_recip, cfg)
        offered = 1.0 - proposal
    else:
        offered = cfg.snap(check_offer(offer))
        proposal = 1.0 - offered
        accepted = accepts_offer(u_recip, cfg, offered)
    if accepted:
        pay_alloc, pay_recip = proposal, offered
    else:
        pay_alloc, pay_recip = 0.0, 0.0
    return Outcome(
        proposed_split=proposal,
        accepted=accepted,
        payoff_allocator=pay_alloc,
        payoff_recipient=pay_recip,
        util_allocator=u_alloc(pay_alloc, pay_recip),
        util_recipient=u_recip(pay_recip, pay_alloc),
    )
