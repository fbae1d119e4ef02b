import math
import os
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import brute_force_scan, oracle_fair_utility
from transcend_ug import game, sweep
from transcend_ug.game import (
    GameConfig,
    PlayerSpec,
    TieBreak,
    accepts,
    best_split,
    min_acceptable_split,
    play,
    utility_of_split,
)
from transcend_ug.identity import FairnessMode, IdentityError
from transcend_ug.payoff import LensFamily, PayoffLens
from transcend_ug.sweep import (
    ENVELOPE_MAX,
    ENVELOPE_MIN,
    SweepError,
    acceptance_matrix,
    axis_values,
    game_grid,
    tau_curves,
    utility_curves,
    with_param,
)

LENS = PayoffLens()
EXP8 = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=2.0, steepness=8.0)


def player(gamma=0.5, d=1.0, mode=None, lens=LENS):
    return PlayerSpec.two_party(gamma, d, mode or FairnessMode.baseline(), lens)


class TestAxisValues:
    def test_inclusive_endpoints(self):
        assert axis_values(0.0, 2.4, 0.2)[0] == 0.0
        assert axis_values(0.0, 2.4, 0.2)[-1] == 2.4
        assert len(axis_values(0.0, 2.4, 0.2)) == 13

    def test_bad_axes_rejected(self):
        with pytest.raises(SweepError):
            axis_values(1.0, 0.0, 0.1)
        with pytest.raises(SweepError):
            axis_values(0.0, 1.0, 0.0)
        with pytest.raises(SweepError):
            axis_values(0.0, 1.0, 0.3)

    @pytest.mark.parametrize(
        "lo, hi, step",
        [(0.0, math.inf, 0.2), (-math.inf, 1.0, 0.2), (math.nan, 1.0, 0.2),
         (0.0, math.nan, 0.2), (0.0, 1.0, math.inf), (0.0, 1.0, math.nan)],
    )
    def test_non_finite_axis_rejected(self, lo, hi, step):
        with pytest.raises(SweepError, match="finite"):
            axis_values(lo, hi, step)


class TestWithParam:
    def test_gamma_and_distance(self):
        base = player(0.5, 1.0)
        assert with_param(base, "gamma", 0.9).sense.gamma == 0.9
        assert with_param(base, "d", 2.2).sense.partner_distance == 2.2

    def test_tau_requires_agent_mode(self):
        with pytest.raises(SweepError):
            with_param(player(), "tau", 0.4)
        varied = with_param(player(mode=FairnessMode.agent_tau(0.2)), "tau", 0.4)
        assert varied.mode.tau == 0.4

    def test_unknown_parameter(self):
        with pytest.raises(SweepError):
            with_param(player(), "steepness", 1.0)


class TestUtilityCurves:
    def test_degenerate_single_cell(self):
        rows = utility_curves(player(0.5, 1.0), GameConfig(), "d", [1.0], splits=[1.0])
        data = [r for r in rows if r["curve_param"] == "d"]
        assert len(data) == 1
        assert data[0]["utility"] == pytest.approx(2.0 / 3.0)
        assert data[0]["is_best_split"] == 1

    def test_baseline_gamma_family_markers(self):
        rows = utility_curves(player(0.5, 1.0), GameConfig(), "gamma", [0.2, 0.5, 0.8, 1.0])
        best = {
            r["curve_value"]: r["split"]
            for r in rows
            if r["is_best_split"] and r["curve_param"] == "gamma"
        }
        assert best == {0.2: 1.0, 0.5: 1.0, 0.8: 1.0, 1.0: 0.5}

    def test_half_tau_min_acceptable_marker_fixed(self):
        base = player(0.5, 0.0, FairnessMode.agent_tau(0.5), EXP8)
        rows = utility_curves(base, GameConfig(), "d", axis_values(0.0, 2.4, 0.2))
        markers = {
            r["curve_value"]: r["split"]
            for r in rows
            if r["is_min_acceptable"] and r["curve_param"] == "d"
        }
        assert set(markers) == set(axis_values(0.0, 2.4, 0.2))
        assert all(s == 0.5 for s in markers.values())

    def test_exactly_one_best_marker_per_curve(self):
        rows = utility_curves(player(), GameConfig(), "d", [0.0, 1.0, 2.0])
        for value in (0.0, 1.0, 2.0):
            flags = [r["is_best_split"] for r in rows if r["curve_value"] == value]
            assert sum(flags) == 1

    def test_envelope_contains_every_curve(self):
        rows = utility_curves(player(), GameConfig(grid_step=0.05), "d", [0.0, 0.5, 1.5])
        lo = {r["split"]: r["utility"] for r in rows if r["curve_param"] == ENVELOPE_MIN}
        hi = {r["split"]: r["utility"] for r in rows if r["curve_param"] == ENVELOPE_MAX}
        for r in rows:
            if r["curve_param"] in (ENVELOPE_MIN, ENVELOPE_MAX):
                continue
            assert lo[r["split"]] <= r["utility"] <= hi[r["split"]]

    def test_best_marker_matches_fine_oracle(self):
        base = player(0.4, 0.0, FairnessMode.agent_tau(0.2), EXP8)
        cfg = GameConfig(grid_step=0.02)
        rows = utility_curves(base, cfg, "d", [0.0, 1.0, 2.4])
        for d in (0.0, 1.0, 2.4):
            marked = [r["split"] for r in rows if r["curve_value"] == d and r["is_best_split"]]
            oracle_best, _ = brute_force_scan(
                lambda s: oracle_fair_utility(0.4, d, 0.2, 8.0, 2.0, s),
                cells=cfg.grid_cells * 10,
            )
            assert abs(marked[0] - oracle_best) <= cfg.grid_step + 1e-12

    def test_bad_curve_param(self):
        with pytest.raises(SweepError):
            utility_curves(player(), GameConfig(), "epsilon", [0.1])

    def test_empty_curve_list_rejected(self):
        with pytest.raises(SweepError, match="non-empty"):
            utility_curves(player(), GameConfig(), "d", [])


class TestAcceptanceMatrix:
    def test_moderate_tau_zero_distance_row(self):
        base = player(0.4, 0.0, FairnessMode.agent_tau(0.5))
        rows = acceptance_matrix(base, GameConfig(), [0.0], axis_values(0.0, 1.0, 0.05))
        accepted = [r["split"] for r in rows if r["accepted"]]
        assert accepted == [0.5]

    def test_association_zero_distance_accepts_everything(self):
        base = player(0.4, 0.0, FairnessMode.association())
        rows = acceptance_matrix(base, GameConfig(), [1e-9], axis_values(0.0, 1.0, 0.05))
        assert all(r["accepted"] for r in rows)

    def test_rows_sorted_by_coordinates(self):
        base = player(0.4, 0.0, FairnessMode.agent_tau(0.2))
        rows = acceptance_matrix(base, GameConfig(), [1.0, 0.0], [0.5, 0.0, 1.0])
        coords = [(r["d"], r["split"]) for r in rows]
        assert coords == sorted(coords)

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError):
            acceptance_matrix(player(), GameConfig(), [], [0.5])


class TestTauCurves:
    def test_spot_values(self):
        rows = tau_curves([0.5], [0.0, 1.0, 2.0])
        assert [r["tau"] for r in rows] == [0.0, 0.5, 0.75]

    def test_full_identification_flatlines(self):
        rows = tau_curves([1.0], axis_values(0.0, 2.4, 0.2))
        assert all(r["tau"] == 0.0 for r in rows)

    def test_lower_gamma_dominates(self):
        rows = tau_curves([0.2, 0.8], axis_values(0.0, 2.4, 0.2))
        low = [r["tau"] for r in rows if r["gamma"] == 0.2]
        high = [r["tau"] for r in rows if r["gamma"] == 0.8]
        assert all(a >= b for a, b in zip(low, high))


    @pytest.mark.parametrize(
        "gammas, d_values",
        [([0.5, math.nan], [1.0]), ([1.5], [1.0]), ([-0.1], [1.0]),
         ([0.5], [math.nan]), ([0.5], [math.inf]), ([0.5], [-1.0])],
    )
    def test_bad_axis_values_rejected(self, gammas, d_values):
        with pytest.raises(SweepError):
            tau_curves(gammas, d_values)


GRIDS = [
    ("allocator.gamma", [0.2, 0.4, 0.6, 0.8], "recipient.d", [0.0, 0.5, 1.0, 1.5, 2.0]),
    ("recipient.gamma", [0.2, 0.4, 0.6, 0.8], "recipient.d", [0.0, 0.5, 1.0, 1.5, 2.0]),
    ("allocator.gamma", [0.2, 0.4, 0.6, 0.8], "allocator.d", [0.0, 0.5, 1.0, 1.5, 2.0]),
    ("recipient.gamma", [0.2, 0.4, 0.6, 0.8], "allocator.d", [0.0, 0.5, 1.0, 1.5, 2.0]),
    ("allocator.d", [0.2, 0.2], "recipient.gamma", [0.3, 0.3, 0.7]),
]


class TestGameGrid:
    def test_dual_baseline_grid(self):
        rows = game_grid(
            player(), player(), GameConfig(),
            ("allocator.gamma", [0.2, 0.5, 0.8]),
            ("recipient.gamma", [0.2, 0.5, 0.8]),
        )
        assert len(rows) == 9
        assert all(r["proposed_split"] == 1.0 and r["accepted"] for r in rows)

    def test_demanding_recipient_rejects(self):
        recipient = player(0.4, 1.0, FairnessMode.agent_tau(0.9))
        rows = game_grid(
            player(0.2, 1.0), recipient, GameConfig(),
            ("allocator.gamma", [0.2]),
            ("recipient.d", [1.0]),
        )
        assert rows == [
            {"axis1": 0.2, "axis2": 1.0, "proposed_split": 1.0, "accepted": 0}
        ]

    def test_identical_axes_rejected(self):
        with pytest.raises(SweepError):
            game_grid(player(), player(), GameConfig(),
                      ("allocator.gamma", [0.5]), ("allocator.gamma", [0.6]))

    def test_unknown_role_rejected(self):
        with pytest.raises(SweepError):
            game_grid(player(), player(), GameConfig(),
                      ("referee.gamma", [0.5]), ("recipient.gamma", [0.6]))

    @pytest.mark.parametrize("values1, values2", [([], [0.5]), ([0.5], [])])
    def test_empty_axis_rejected(self, values1, values2):
        with pytest.raises(SweepError, match="non-empty"):
            game_grid(player(), player(), GameConfig(),
                      ("allocator.gamma", values1), ("recipient.gamma", values2))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "axis1, error, match",
        [(("allocator.gamma", [0.5, 1.5]), IdentityError, r"gamma must lie in \[0,1\], got 1.5"),
         (("allocator.tau", [0.2, 0.4]), SweepError, "requires agent_tau")],
        ids=["gamma-out-of-range", "tau-axis-without-agent-tau"],
    )
    def test_bad_axis_raises_before_any_fork(self, monkeypatch, workers, axis1, error, match):
        def no_fork():
            raise AssertionError("forked before the axes were checked")

        monkeypatch.setattr(sweep, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        with pytest.raises(error, match=match):
            game_grid(player(), player(), GameConfig(), axis1, ("recipient.d", [0.1, 0.2]))

    @pytest.mark.parametrize("name1, values1, name2, values2", GRIDS)
    def test_one_scan_per_cell(self, monkeypatch, name1, values1, name2, values2):
        """Every cell is one full game, whichever roles the axes vary."""
        allocator = player(0.4, 1.0, FairnessMode.agent_tau(0.2), EXP8)
        recipient = player(0.6, 0.5, FairnessMode.association())
        cfg = GameConfig(grid_step=0.02)
        # Scans in a forked child are not seen here, so play every row in this process.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)
        calls, scan = [], game.scan

        def counted_scan(*args, **kwargs):
            calls.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(game, "scan", counted_scan)
        rows = game_grid(allocator, recipient, cfg, (name1, values1), (name2, values2))
        assert len(rows) == len(values1) * len(values2)
        assert len(calls) == len(rows)
        specs = {"allocator": allocator, "recipient": recipient}
        for row in rows:
            cell = dict(specs)
            for name, value in ((name1, row["axis1"]), (name2, row["axis2"])):
                role, _, param = name.partition(".")
                cell[role] = with_param(cell[role], param, value)
            outcome = play(cell["allocator"], cell["recipient"], cfg)
            assert row["proposed_split"] == outcome.proposed_split.own_share
            assert row["accepted"] == int(outcome.accepted)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="rows are played in forked children")
class TestGameGridWorkers:
    ALLOCATOR = player(0.4, 1.0, FairnessMode.agent_tau(0.2), EXP8)
    RECIPIENT = player(0.6, 0.5, FairnessMode.association())
    CFG = GameConfig(grid_step=0.02)

    def grid(self, monkeypatch, workers, axes=GRIDS[0]):
        name1, values1, name2, values2 = axes
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: workers)
        return game_grid(self.ALLOCATOR, self.RECIPIENT, self.CFG, (name1, values1), (name2, values2))

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("axes", GRIDS)
    def test_same_rows_with_one_and_two_workers(self, monkeypatch, axes):
        assert self.grid(monkeypatch, 2, axes) == self.grid(monkeypatch, 1, axes)
        self.assert_no_child_left()

    def test_more_workers_than_rows(self, monkeypatch):
        assert self.grid(monkeypatch, 8) == self.grid(monkeypatch, 1)
        self.assert_no_child_left()

    def test_interrupt_here_kills_and_reaps_children(self, monkeypatch):
        parent = os.getpid()

        def play_or_interrupt(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return play(*args, **kwargs)

        monkeypatch.setattr(sweep, "play", play_or_interrupt)
        with pytest.raises(KeyboardInterrupt):
            self.grid(monkeypatch, 2)
        self.assert_no_child_left()

    def test_child_error_reaches_caller(self, monkeypatch):
        parent = os.getpid()

        def play_or_fail(*args, **kwargs):
            if os.getpid() != parent:
                raise ArithmeticError("cell failed in a child")
            return play(*args, **kwargs)

        monkeypatch.setattr(sweep, "play", play_or_fail)
        with pytest.raises(ArithmeticError, match="cell failed in a child"):
            self.grid(monkeypatch, 2)
        self.assert_no_child_left()

    def test_child_that_dies_is_not_success(self, monkeypatch):
        parent = os.getpid()

        def play_or_die(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(0)
            return play(*args, **kwargs)

        monkeypatch.setattr(sweep, "play", play_or_die)
        with pytest.raises(RuntimeError, match="exited with status 0 and no result"):
            self.grid(monkeypatch, 2)
        self.assert_no_child_left()


MODES = st.one_of(
    st.just(FairnessMode.baseline()),
    st.just(FairnessMode.association()),
    st.floats(0.0, 1.0).map(FairnessMode.agent_tau),
)
SHARES = st.floats(0.0, 1.0)


@given(
    alloc_mode=MODES,
    recip_mode=MODES,
    gammas=st.lists(SHARES, min_size=1, max_size=2, unique=True),
    ds=st.lists(st.floats(0.0, 2.4), min_size=1, max_size=2, unique=True),
    own_tau_zero=st.booleans(),
    tie_break=st.sampled_from(list(TieBreak)),
    threshold=st.floats(-0.5, 0.5),
    split_step=st.sampled_from([0.05, 0.1, 0.125, 0.25]),
    offers=st.lists(SHARES, min_size=1, max_size=4),
)
@example(  # utility exactly 0 at share 1/2 meets threshold 0: the tolerance decides
    alloc_mode=FairnessMode.agent_tau(0.5),
    recip_mode=FairnessMode.agent_tau(0.5),
    gammas=[0.5],
    ds=[0.0],
    own_tau_zero=False,
    tie_break=TieBreak.CLOSEST_TO_EQUAL,
    threshold=0.0,
    split_step=0.05,
    offers=[0.5],
)
@settings(max_examples=60, deadline=None)
def test_sweeps_agree_with_engine(
    alloc_mode, recip_mode, gammas, ds, own_tau_zero, tie_break, threshold, split_step, offers
):
    cfg = GameConfig(
        grid_step=0.02, accept_threshold=threshold, tie_break=tie_break, own_tau_zero=own_tau_zero
    )
    allocator = PlayerSpec.two_party(0.4, 1.0, alloc_mode, EXP8)
    recipient = PlayerSpec.two_party(0.6, 0.5, recip_mode, LENS)

    # utility curves over a custom split grid mark what the engine picks on that grid
    split_cfg = replace(cfg, grid_step=split_step)
    rows = utility_curves(allocator, cfg, "d", ds, splits=axis_values(0.0, 1.0, split_step))
    for d in ds:
        player = with_param(allocator, "d", d)
        curve = [r for r in rows if r["curve_param"] == "d" and r["curve_value"] == d]
        assert [r["utility"] for r in curve] == [
            utility_of_split(player, split_cfg, s) for s in split_cfg.splits()
        ]
        assert [r["split"] for r in curve if r["is_best_split"]] == [
            best_split(player, split_cfg)[0].own_share
        ]
        found = min_acceptable_split(player, split_cfg)
        assert [r["split"] for r in curve if r["is_min_acceptable"]] == (
            [] if found is None else [found.own_share]
        )

    for cell in acceptance_matrix(recipient, cfg, ds, offers):
        player = with_param(recipient, "d", cell["d"])
        assert cell["accepted"] == int(accepts(player, cfg, cell["split"]))

    cells = game_grid(allocator, recipient, cfg, ("allocator.d", ds), ("recipient.gamma", gammas))
    assert len(cells) == len(ds) * len(gammas)
    for cell in cells:
        outcome = play(
            with_param(allocator, "d", cell["axis1"]),
            with_param(recipient, "gamma", cell["axis2"]),
            cfg,
        )
        assert cell["proposed_split"] == outcome.proposed_split.own_share
        assert cell["accepted"] == int(outcome.accepted)
