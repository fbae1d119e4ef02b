import math
import os

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
from transcend_ug.identity import FairnessKind, FairnessMode, IdentityError, association_tau
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

    @pytest.mark.parametrize("lo, hi, step", [(0.0, 1e-10, 0.2), (0.0, 1.0, 1e10), (0.0, 0.3, 1.0)])
    def test_step_longer_than_its_span_rejected(self, lo, hi, step):
        # one point and no interval: the span cannot be divided by zero steps
        with pytest.raises(SweepError, match=f"step {step} is longer than the span"):
            axis_values(lo, hi, step)

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
        assert with_param(base, "gamma", 0.9).gamma == 0.9
        assert with_param(base, "d", 2.2).d == 2.2

    def test_tau_requires_agent_mode(self):
        with pytest.raises(SweepError):
            with_param(player(), "tau", 0.4)
        varied = with_param(player(mode=FairnessMode.agent_tau(0.2)), "tau", 0.4)
        assert varied.mode.tau == 0.4

    def test_unknown_parameter(self):
        with pytest.raises(SweepError):
            with_param(player(), "steepness", 1.0)


class TestUtilityCurves:
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

    def test_one_run_per_curve_on_the_shared_split_grid(self):
        cfg = GameConfig(grid_step=0.05)
        table = utility_curves(player(), cfg, "d", [0.0, 1.0])
        fixed = [("d", 0.0), ("d", 1.0), (ENVELOPE_MIN, None), (ENVELOPE_MAX, None)]
        assert [cells for cells, _ in table.runs] == fixed
        assert all(varying[0] is cfg.splits() for _, varying in table.runs)
        assert len(table) == 4 * len(cfg.splits())

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

    def test_one_run_per_distance_sharing_one_split_column(self):
        table = acceptance_matrix(player(), GameConfig(), [1.0, 0.0, 2.0], [0.5, 0.0, 1.0])
        assert [fixed for fixed, _ in table.runs] == [(0.0,), (1.0,), (2.0,)]
        (_, (splits, _)), *others = table.runs
        assert splits == [0.0, 0.5, 1.0]
        assert all(varying[0] is splits for _, varying in others)

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError):
            acceptance_matrix(player(), GameConfig(), [], [0.5])

    @pytest.mark.parametrize("split", [-0.1, 1.5, math.nan])
    def test_split_outside_unit_interval_rejected(self, split):
        with pytest.raises(SweepError, match=r"offered split must lie in \[0,1\]"):
            acceptance_matrix(player(), GameConfig(), [0.0, 1.0], [0.5, split])

    def test_one_compile_per_distance(self, monkeypatch):
        calls, compile_player = [], game.compile_player

        def counted_compile(*args, **kwargs):
            calls.append(1)
            return compile_player(*args, **kwargs)

        monkeypatch.setattr(sweep, "compile_player", counted_compile)
        ds = axis_values(0.0, 2.4, 0.2)
        rows = acceptance_matrix(player(0.4, 1.0, FairnessMode.association()), GameConfig(), ds,
                                 axis_values(0.0, 1.0, 0.05))
        assert len(rows) == len(ds) * 21
        assert len(calls) == len(ds)


class TestTauCurves:
    def test_spot_values(self):
        rows = tau_curves([0.5], [0.0, 1.0, 2.0])
        assert [r["tau"] for r in rows] == [0.0, 0.5, 0.75]

    def test_full_identification_flatlines(self):
        rows = tau_curves([1.0], axis_values(0.0, 2.4, 0.2))
        assert all(r["tau"] == 0.0 for r in rows)

    def test_threshold_is_the_association_tau(self):
        rows = tau_curves([0.2, 0.45], axis_values(0.0, 2.4, 0.2))
        assert all(r["tau"] == association_tau(r["gamma"], r["d"]) for r in rows)

    def test_one_run_per_gamma_sharing_one_distance_column(self):
        table = tau_curves([0.8, 0.2, 0.5], [2.0, 0.0, 1.0])
        assert [fixed for fixed, _ in table.runs] == [(0.2,), (0.5,), (0.8,)]
        (_, (ds, _)), *others = table.runs
        assert ds == [0.0, 1.0, 2.0]
        assert all(varying[0] is ds for _, varying in others)

    def test_lower_gamma_dominates(self):
        rows = tau_curves([0.2, 0.8], axis_values(0.0, 2.4, 0.2))
        low = [r["tau"] for r in rows if r["gamma"] == 0.2]
        high = [r["tau"] for r in rows if r["gamma"] == 0.8]
        assert all(a >= b for a, b in zip(low, high))


    @pytest.mark.parametrize(
        "gammas, d_values, match",
        [([0.5, math.nan], [1.0], r"gamma must lie in \[0,1\], got nan"),
         ([1.5], [1.0], r"gamma must lie in \[0,1\], got 1.5"),
         ([-0.1], [1.0], r"gamma must lie in \[0,1\], got -0.1"),
         ([0.5], [math.nan], "d must be finite and >= 0, got nan"),
         ([0.5], [math.inf], "d must be finite and >= 0, got inf"),
         ([0.5], [-1.0], "d must be finite and >= 0, got -1.0")],
        ids=[f"gammas{i}-d_values{i}" for i in range(6)],
    )
    def test_bad_axis_values_rejected(self, gammas, d_values, match):
        with pytest.raises(IdentityError, match=match):
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
        assert list(rows) == [
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

    @pytest.mark.parametrize("position", [1, 2])
    @pytest.mark.parametrize(
        "bad_axis, error, match",
        [(("allocator.gamma", [0.5, 1.5]), IdentityError, r"gamma must lie in \[0,1\], got 1.5"),
         (("allocator.tau", [0.2, 0.4]), SweepError, "requires agent_tau"),
         (("recipient.d", [0.1, math.inf]), IdentityError, "d must be finite and >= 0, got inf")],
        ids=["gamma-out-of-range", "tau-axis-without-agent-tau", "distance-not-finite"],
    )
    def test_bad_axis_raises_before_any_fork(self, monkeypatch, position, bad_axis, error, match):
        """A bad axis raises its own error as either axis, before a second worker is forked."""
        def no_fork():
            raise AssertionError("forked before the axes were checked")

        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        other = ("recipient.gamma", [0.1, 0.2])
        axes = (bad_axis, other) if position == 1 else (other, bad_axis)
        with pytest.raises(error, match=match):
            game_grid(player(), player(), GameConfig(), *axes)

    @pytest.mark.parametrize("name1, values1, name2, values2", GRIDS)
    def test_one_scan_per_cell(self, monkeypatch, name1, values1, name2, values2):
        """Every cell is one full game, whichever roles the axes vary."""
        allocator = player(0.4, 1.0, FairnessMode.agent_tau(0.2), EXP8)
        recipient = player(0.6, 0.5, FairnessMode.association())
        cfg = GameConfig(grid_step=0.02)
        # Scans in a forked child are not seen here, so play every row in this process.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)
        calls, argmax = [], game.argmax

        def counted_argmax(*args, **kwargs):
            calls.append(1)
            return argmax(*args, **kwargs)

        monkeypatch.setattr(game, "argmax", counted_argmax)
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_run_per_axis1_value_sharing_one_axis2_column(self, monkeypatch, workers):
        table = self.grid(monkeypatch, workers)
        name1, values1, name2, values2 = GRIDS[0]
        assert [fixed for fixed, _ in table.runs] == [(v,) for v in sorted(values1)]
        (_, (axis2, *_)), *others = table.runs
        assert axis2 == sorted(values2)
        assert all(varying[0] is axis2 for _, varying in others)
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
GRID_AXES = [f"{role}.{param}" for role in ("allocator", "recipient") for param in ("gamma", "d", "tau")]


@given(
    alloc_mode=MODES,
    recip_mode=MODES,
    gammas=st.lists(SHARES, min_size=1, max_size=2, unique=True),
    ds=st.lists(st.floats(0.0, 2.4), min_size=1, max_size=2, unique=True),
    taus=st.lists(SHARES, min_size=1, max_size=2, unique=True),
    axes=st.permutations(GRID_AXES).map(lambda names: tuple(names[:2])),
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
    taus=[0.5],
    axes=("allocator.d", "recipient.gamma"),
    own_tau_zero=False,
    tie_break=TieBreak.CLOSEST_TO_EQUAL,
    threshold=0.0,
    split_step=0.05,
    offers=[0.5],
)
@settings(deadline=None)  # no max_examples, so that CI's --hypothesis-profile=ci can raise it
def test_sweeps_agree_with_engine(
    alloc_mode, recip_mode, gammas, ds, taus, axes, own_tau_zero, tie_break, threshold, split_step, offers
):
    cfg = GameConfig(
        grid_step=0.02, accept_threshold=threshold, tie_break=tie_break, own_tau_zero=own_tau_zero
    )
    allocator = PlayerSpec.two_party(0.4, 1.0, alloc_mode, EXP8)
    recipient = PlayerSpec.two_party(0.6, 0.5, recip_mode, LENS)

    # utility curves over a custom split grid mark what the engine picks on that grid
    split_cfg = GameConfig(
        grid_step=split_step, accept_threshold=threshold, tie_break=tie_break, own_tau_zero=own_tau_zero
    )
    rows = utility_curves(allocator, split_cfg, "d", ds)
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

    # any two axes, of either role; a tau axis needs an agent_tau player
    specs = {"allocator": allocator, "recipient": recipient}
    for name in axes:
        role, _, param = name.partition(".")
        if param == "tau" and specs[role].mode.kind is not FairnessKind.AGENT_TAU:
            spec = specs[role]
            specs[role] = PlayerSpec(spec.gamma, spec.d, FairnessMode.agent_tau(0.5), spec.lens)
    values = {"gamma": gammas, "d": ds, "tau": taus}
    values1, values2 = (values[name.partition(".")[2]] for name in axes)
    cells = game_grid(specs["allocator"], specs["recipient"], cfg, (axes[0], values1), (axes[1], values2))
    assert [(c["axis1"], c["axis2"]) for c in cells] == [(v1, v2) for v1 in sorted(values1) for v2 in sorted(values2)]
    for cell in cells:
        players = dict(specs)
        for name, value in zip(axes, (cell["axis1"], cell["axis2"])):
            role, _, param = name.partition(".")
            players[role] = with_param(players[role], param, value)
        outcome = play(players["allocator"], players["recipient"], cfg)
        assert cell["proposed_split"] == outcome.proposed_split.own_share
        assert cell["accepted"] == int(outcome.accepted)
