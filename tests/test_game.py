import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import brute_force_scan, oracle_baseline_utility, oracle_fair_utility
from transcend_ug.game import (
    MAX_TOLERANCE,
    ConfigError,
    GameConfig,
    PlayerSpec,
    SweepError,
    TieBreak,
    accepts,
    argmax,
    axis_points,
    axis_values,
    best_split,
    compile_player,
    min_acceptable_split,
    play,
    scan,
    utility_of_split,
)
from transcend_ug.identity import FairnessKind, FairnessMode
from transcend_ug.payoff import LensFamily, PayoffLens

EXP8 = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=2.0, steepness=8.0)
DEFAULT_LENS = PayoffLens()


def baseline(gamma, d, lens=DEFAULT_LENS):
    return PlayerSpec.two_party(gamma, d, FairnessMode.baseline(), lens)

def agent_tau(gamma, d, tau, lens=DEFAULT_LENS):
    return PlayerSpec.two_party(gamma, d, FairnessMode.agent_tau(tau), lens)

def association(gamma, d, lens=DEFAULT_LENS):
    return PlayerSpec.two_party(gamma, d, FairnessMode.association(), lens)


def _refuses(call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except ConfigError:
        return True
    return False


class TestGameConfig:
    def test_grid_must_divide_unity(self):
        with pytest.raises(ConfigError):
            GameConfig(grid_step=0.03)

    def test_grid_step_range(self):
        for step in (0.0, 0.6, -0.1):
            with pytest.raises(ConfigError):
                GameConfig(grid_step=step)

    def test_oversized_grid_rejected_before_it_is_built(self, monkeypatch):
        def build(self):
            raise AssertionError("split grid built")

        monkeypatch.setattr(GameConfig, "_splits", property(build))
        with pytest.raises(ConfigError, match=r"^grid_step 1e-09 gives 1000000001 points, more than the limit of 1000000$"):
            GameConfig(grid_step=1e-9)

    def test_tolerance_positive(self):
        for tolerance in (0.0, math.inf, math.nan, 2e-6, 100.0):
            with pytest.raises(ConfigError):
                GameConfig(tolerance=tolerance)

    def test_accept_threshold_finite(self):
        for threshold in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                GameConfig(accept_threshold=threshold)

    # GameConfig checks grid_step by the rule that checks every sweep axis, and builds the same grid
    @given(step=st.one_of(st.floats(0.0, 0.5, exclude_min=True), st.integers(2, 100_000).map(lambda n: 1 / n)))
    @example(step=1e-9)
    @example(step=0.03)
    @example(step=0.3)
    @example(step=1 / 3)
    @example(step=0.0001)
    @settings(deadline=None)
    def test_one_axis_rule_for_the_game_grid_and_the_sweep_axes(self, step):
        assert issubclass(SweepError, ConfigError)
        refused = _refuses(GameConfig, grid_step=step)
        assert refused == _refuses(axis_points, 0.0, 1.0, step)
        if not refused:
            grid, axis = GameConfig(grid_step=step).splits(), axis_values(0.0, 1.0, step)
            assert list(map(float.hex, grid)) == list(map(float.hex, axis))

    def test_splits_cover_unit_interval(self):
        grid = GameConfig(grid_step=0.25).splits()
        assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_splits_built_once(self):
        cfg = GameConfig(grid_step=0.25)
        assert cfg.splits() is cfg.splits()

    def test_equal_by_constructor_fields_only(self):
        # a cached split grid or block list is not a field, and nothing hashes a config
        cfg = GameConfig(grid_step=0.25)
        assert cfg.splits() and cfg.blocks()
        assert cfg == GameConfig(grid_step=0.25) and cfg != GameConfig(grid_step=0.5)
        with pytest.raises(TypeError):
            hash(cfg)

    def test_snap_warns_on_off_grid(self, capsys):
        cfg = GameConfig(grid_step=0.05)
        assert cfg.snap(0.333) == pytest.approx(0.35)
        assert "snapped" in capsys.readouterr().err

    def test_snap_silent_on_grid(self, capsys):
        cfg = GameConfig(grid_step=0.05)
        cfg.snap(0.35)
        assert capsys.readouterr().err == ""


class TestUtilityOfSplit:
    def test_baseline_dispatch(self):
        cfg = GameConfig()
        assert utility_of_split(baseline(0.5, 1.0), cfg, 1.0) == pytest.approx(2.0 / 3.0)

    def test_agent_tau_balanced_split_is_zero(self):
        cfg = GameConfig()
        assert utility_of_split(agent_tau(0.4, 0.0, 0.5), cfg, 0.5) == 0.0

    def test_association_at_zero_distance_never_negative(self):
        cfg = GameConfig()
        player = association(0.4, 0.0)
        for s in cfg.splits():
            assert utility_of_split(player, cfg, s) >= 0.0

    def test_out_of_range_share_rejected(self):
        with pytest.raises(ValueError):
            utility_of_split(baseline(0.5, 1.0), GameConfig(), 1.2)


class TestBestSplit:
    def test_baseline_takes_everything(self):
        split, util = best_split(baseline(0.5, 1.0), GameConfig())
        assert split.own_share == 1.0
        assert util == pytest.approx(2.0 / 3.0)

    def test_full_identification_ties_resolve_to_half(self):
        split, util = best_split(baseline(1.0, 1.7), GameConfig())
        assert split.own_share == 0.5
        assert util == pytest.approx(0.5)

    def test_half_tau_zero_distance_peaks_at_half(self):
        player = agent_tau(0.5, 0.0, 0.5, EXP8)
        split, _ = best_split(player, GameConfig())
        oracle_best, _ = brute_force_scan(
            lambda s: oracle_fair_utility(0.5, 0.0, 0.5, 8.0, 2.0, s), cells=1000
        )
        assert split.own_share == 0.5 == oracle_best

    def test_tie_break_variants(self):
        for rule, expected in [
            (TieBreak.CLOSEST_TO_EQUAL, 0.5),
            (TieBreak.LOWEST_OWN_SHARE, 0.0),
            (TieBreak.HIGHEST_OWN_SHARE, 1.0),
        ]:
            cfg = GameConfig(tie_break=rule)
            split, _ = best_split(baseline(1.0, 1.0), cfg)
            assert split.own_share == expected

    def test_mirror_maxima_resolve_to_lower_share(self):
        # At d = 0 the utility is symmetric in s <-> 1 - s; with tau above one
        # half it peaks at 0.30 and 0.70, whose float distances from 0.5 differ.
        lens = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=3.0, steepness=2.0)
        split, _ = best_split(agent_tau(0.5, 0.0, 0.7, lens), GameConfig(grid_step=0.02))
        assert split.own_share == 0.3


def counted(utility, calls):
    def wrapper(own, partner):
        calls.append((own, partner))
        return utility(own, partner)

    return wrapper


class TestArgmax:
    def test_flat_utility_evaluates_every_block(self):
        # Baseline at d = 0 gives every split the same utility: each block's
        # bound ties the top, so no block may be skipped.
        cfg = GameConfig()
        grid = cfg.splits()
        utility = compile_player(baseline(0.5, 0.0), cfg)
        for rule, expected in [
            (TieBreak.CLOSEST_TO_EQUAL, 0.5),
            (TieBreak.LOWEST_OWN_SHARE, 0.0),
            (TieBreak.HIGHEST_OWN_SHARE, 1.0),
        ]:
            rule_cfg = GameConfig(tie_break=rule)
            calls = []
            full = scan(utility, rule_cfg)
            assert argmax(counted(utility, calls), rule_cfg) == (full.best, full.top)
            assert full.best == expected
            assert {(s, 1.0 - s) for s in grid} <= set(calls)
            assert len(calls) == len(grid) + 11  # plus one bound per block of 10

    def test_mirror_tie_resolves_to_lower_share(self):
        lens = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=3.0, steepness=2.0)
        cfg = GameConfig(grid_step=0.02)
        utility = compile_player(agent_tau(0.5, 0.0, 0.7, lens), cfg)
        full = scan(utility, cfg)
        assert argmax(utility, cfg) == (full.best, full.top)
        assert full.best == 0.3

    def test_skips_blocks_that_cannot_win(self):
        cfg = GameConfig()
        calls = []
        utility = compile_player(PlayerSpec(0.4, 1.0, FairnessMode.agent_tau(0.2), PayoffLens()), cfg)
        full = scan(utility, cfg)
        assert argmax(counted(utility, calls), cfg) == (full.best, full.top)
        assert len(calls) < len(cfg.splits()) / 2  # 31 of 101

    def test_two_calls_on_one_config_use_one_block_list(self, monkeypatch):
        cfg = GameConfig()
        seen, blocks = [], GameConfig.blocks
        monkeypatch.setattr(GameConfig, "blocks", lambda self: seen.append(blocks(self)) or seen[-1])
        utility = compile_player(agent_tau(0.4, 1.0, 0.2), cfg)
        assert argmax(utility, cfg) == argmax(utility, cfg)
        assert len(seen) == 2 and seen[0] is seen[1]
        blocks = seen[0]
        assert [s for shares, _ in blocks.runs for s in shares] == cfg.splits()
        for (shares, partners), own, partner in zip(blocks.runs, blocks.bound_own, blocks.bound_partner, strict=True):
            assert partners == [1.0 - s for s in shares]
            assert (own, partner) == (shares[-1], 1.0 - shares[0])


LENSES = st.one_of(
    st.just(PayoffLens(LensFamily.LINEAR)),
    st.builds(PayoffLens, st.just(LensFamily.EXP_VALUE), st.floats(1.01, 10.0), st.floats(0.1, 50.0)),
)
MODES = st.one_of(
    st.just(FairnessMode.baseline()),
    st.builds(FairnessMode.agent_tau, st.floats(0.0, 1.0)),
    st.just(FairnessMode.association()),
)


# No max_examples here, so that CI's --hypothesis-profile=ci can raise it.
@given(
    st.floats(0.0, 1.0),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    MODES,
    LENSES,
    st.builds(
        GameConfig,
        grid_step=st.sampled_from([0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.001]),
        accept_threshold=st.floats(-1.0, 1.0),
        tie_break=st.sampled_from(list(TieBreak)),
        tolerance=st.floats(1e-15, MAX_TOLERANCE),
        own_tau_zero=st.booleans(),
    ),
)
@settings(deadline=None)
def test_pruned_argmax_equals_full_scan(gamma, d, mode, lens, cfg):
    utility = compile_player(PlayerSpec(gamma, d, mode, lens), cfg)
    full = scan(utility, cfg)
    assert argmax(utility, cfg) == (full.best, full.top)


# No max_examples here, so that CI's --hypothesis-profile=ci can raise it.
@given(st.floats(0.0, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 5.0)), MODES, LENSES, st.booleans(),
       st.floats(0.0, 1.0))
def test_compiled_player_is_the_closed_form(gamma, d, mode, lens, own_tau_zero, own):
    utility = compile_player(PlayerSpec(gamma, d, mode, lens), GameConfig(own_tau_zero=own_tau_zero))
    if mode.kind is FairnessKind.BASELINE:
        expected = oracle_baseline_utility(gamma, d, own)
    else:
        tau = mode.tau if mode.kind is FairnessKind.AGENT_TAU else 1.0 - (1.0 if d == 0 else gamma ** d)
        own_tau = 0.0 if own_tau_zero and mode.kind is FairnessKind.ASSOCIATION else None
        expected = oracle_fair_utility(gamma, d, tau, lens.steepness, lens.loss_aversion, own, own_tau,
                                       linear=lens.family is LensFamily.LINEAR)
    assert utility(own, 1.0 - own) == expected


class TestMinAcceptableSplit:
    def test_baseline_accepts_from_zero(self):
        for gamma, d in [(0.2, 0.5), (0.8, 2.0)]:
            found = min_acceptable_split(baseline(gamma, d), GameConfig())
            assert found is not None and found.own_share == 0.0

    def test_half_tau_locus_fixed_at_half(self):
        for d in (0.0, 1.0, 2.4):
            found = min_acceptable_split(agent_tau(0.5, d, 0.5, EXP8), GameConfig())
            assert found is not None and found.own_share == 0.5

    def test_extreme_tau_at_zero_distance_has_no_acceptable_split(self):
        assert min_acceptable_split(agent_tau(0.5, 0.0, 0.9), GameConfig()) is None


class TestAccepts:
    def test_baseline_accepts_zero_offer(self):
        assert accepts(baseline(0.3, 1.0), GameConfig(), 0.0)

    def test_moderate_tau_rejects_unequal_offer_at_zero_distance(self):
        assert not accepts(agent_tau(0.4, 0.0, 0.5), GameConfig(), 0.3)

    def test_association_accepts_tiny_offer_at_zero_distance(self):
        assert accepts(association(0.4, 0.0), GameConfig(), 0.05)


class TestPlay:
    def test_dual_baseline(self):
        outcome = play(baseline(0.5, 1.0), baseline(0.5, 1.0), GameConfig())
        assert outcome.proposed_split.own_share == 1.0
        assert outcome.accepted
        assert (outcome.payoff_allocator, outcome.payoff_recipient) == (1.0, 0.0)
        assert outcome.util_allocator == pytest.approx(2.0 / 3.0)
        assert outcome.util_recipient == pytest.approx(1.0 / 3.0)

    def test_symmetric_moderate_tau_settles_at_half(self):
        player = agent_tau(0.5, 0.0, 0.5, EXP8)
        outcome = play(player, player, GameConfig())
        assert outcome.proposed_split.own_share == 0.5
        assert outcome.accepted

    def test_greedy_allocator_meets_demanding_recipient(self):
        outcome = play(baseline(0.2, 1.0), agent_tau(0.4, 1.0, 0.7), GameConfig())
        assert outcome.proposed_split.own_share == 1.0
        assert not outcome.accepted
        assert (outcome.payoff_allocator, outcome.payoff_recipient) == (0.0, 0.0)

    def test_rejection_utilities_pass_through_each_lens(self):
        outcome = play(baseline(0.2, 1.0), agent_tau(0.4, 1.0, 0.7, EXP8), GameConfig())
        assert outcome.util_allocator == 0.0
        # rejection state (0,0) through a tau=0.7 lens collapses to f(-0.7)
        assert outcome.util_recipient == pytest.approx(
            -2.0 * (1.0 - math.exp(-8.0 * 0.7)), abs=1e-12
        )

    def test_offer_replaces_the_proposal(self):
        outcome = play(baseline(0.5, 1.0), baseline(0.5, 1.0), GameConfig(), offer=0.3)
        assert outcome.proposed_split.own_share == 0.7
        assert (outcome.payoff_allocator, outcome.payoff_recipient) == (0.7, 0.3)

    @pytest.mark.parametrize("offer", [math.nan, math.inf, -0.1, 1.5])
    def test_offer_outside_unit_interval_rejected(self, offer):
        with pytest.raises(ConfigError):
            play(baseline(0.5, 1.0), baseline(0.5, 1.0), GameConfig(), offer=offer)

    def test_determinism(self):
        a = play(baseline(0.37, 0.9), agent_tau(0.61, 1.3, 0.44), GameConfig())
        b = play(baseline(0.37, 0.9), agent_tau(0.61, 1.3, 0.44), GameConfig())
        assert a == b


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.4),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.4),
    st.sampled_from(["baseline", "agent_tau", "association"]),
    st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_zero_sum_conservation(g1, d1, g2, d2, kind, tau):
    mode = {
        "baseline": FairnessMode.baseline(),
        "agent_tau": FairnessMode.agent_tau(tau),
        "association": FairnessMode.association(),
    }[kind]
    recipient = PlayerSpec.two_party(g2, d2, mode, DEFAULT_LENS)
    outcome = play(baseline(g1, d1), recipient, GameConfig(grid_step=0.02))
    if outcome.accepted:
        assert outcome.payoff_allocator + outcome.payoff_recipient == 1.0
    else:
        assert outcome.payoff_allocator == outcome.payoff_recipient == 0.0


@given(st.floats(0.1, 0.9), st.floats(0.01, 2.4))
@settings(max_examples=40, deadline=None)
def test_baseline_greed_below_full_identification(gamma, d):
    split, _ = best_split(baseline(gamma, d), GameConfig())
    assert split.own_share == 1.0


def test_allocator_share_nondecreasing_in_distance_low_tau():
    cfg = GameConfig()
    shares = [
        best_split(agent_tau(0.4, d / 10.0, 0.2), cfg)[0].own_share for d in range(0, 25, 2)
    ]
    assert shares == sorted(shares)


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.4),
    st.sampled_from(["baseline", "agent_tau", "association"]),
    st.floats(0.0, 1.0),
    st.floats(1.2, 4.0),
    st.floats(2.0, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_on_sampled_configs(gamma, d, kind, tau, lam, k):
    mode = {
        "baseline": FairnessMode.baseline(),
        "agent_tau": FairnessMode.agent_tau(tau),
        "association": FairnessMode.association(),
    }[kind]
    lens = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=lam, steepness=k)
    player = PlayerSpec.two_party(gamma, d, mode, lens)
    cfg = GameConfig(grid_step=0.02)

    if kind == "baseline":
        oracle_u = lambda s: oracle_baseline_utility(gamma, d, s)
    else:
        t = tau if kind == "agent_tau" else 1.0 - (1.0 if d == 0 else gamma ** d)
        oracle_u = lambda s: oracle_fair_utility(gamma, d, t, k, lam, s)

    fine_best, fine_min = brute_force_scan(oracle_u, cells=cfg.grid_cells * 10)
    split, _ = best_split(player, cfg)
    assert abs(split.own_share - fine_best) <= cfg.grid_step + 1e-12
    found = min_acceptable_split(player, cfg)
    if fine_min is None:
        assert found is None
    else:
        assert found is not None
        assert abs(found.own_share - fine_min) <= cfg.grid_step + 1e-12


@given(
    st.floats(0.05, 0.95),
    st.floats(0.0, 0.99),
    st.one_of(st.just(None), st.floats(0.01, 0.49)),
    st.floats(2.0, 16.0),
    st.floats(1.2, 4.0),
    st.sampled_from(list(TieBreak)),
)
@settings(max_examples=30, deadline=None)
def test_interior_argmax_matches_closed_form(gamma, frac, agent_tau_value, k, lam, tie_break):
    # With 0 < tau < 1/2 both shares sit on the gain branch at the optimum,
    # which is (1 + d*ln(1/gamma)/k)/2 whenever it stays below 1 - tau, i.e.
    # for d < k(1-2tau)/ln(1/gamma). Association play has tau = 1 - gamma**d,
    # so its distance is drawn below ln(2)/ln(1/gamma), where tau < 1/2.
    slope = math.log(1.0 / gamma)
    if agent_tau_value is None:
        d = frac * math.log(2.0) / slope
        tau = 1.0 - gamma ** d
        mode = FairnessMode.association()
    else:
        tau = agent_tau_value
        d = frac * k * (1.0 - 2.0 * tau) / slope
        mode = FairnessMode.agent_tau(tau)
    assume(0.0 < tau < 0.5 and d < k * (1.0 - 2.0 * tau) / slope)
    player = PlayerSpec.two_party(gamma, d, mode, PayoffLens(loss_aversion=lam, steepness=k))
    # The default 1e-9 tie window is wider than one step where k*(share - tau)
    # is large and the utility is that flat; ties here are float noise only.
    cfg = GameConfig(grid_step=0.0001, tie_break=tie_break, tolerance=1e-14)
    split, _ = best_split(player, cfg)
    assert abs(split.own_share - (1.0 + d * slope / k) / 2.0) <= cfg.grid_step + 1e-12
