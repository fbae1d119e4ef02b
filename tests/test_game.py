import ast
import builtins
import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import brute_force_scan, oracle_baseline_utility, oracle_fair_utility
import transcend_ug
from transcend_ug.game import (
    MAX_TOLERANCE,
    ConfigError,
    GameConfig,
    PlayerSpec,
    TieBreak,
    accepts_offer,
    argmax,
    axis_points,
    axis_values,
    compile_player,
    play,
    scan,
)
from transcend_ug.identity import FairnessKind
from transcend_ug.payoff import LensFamily, PayoffLens

EXP8 = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=2.0, steepness=8.0)
LINEAR = PayoffLens(LensFamily.LINEAR)
DEFAULT_LENS = PayoffLens()
CFG = GameConfig()  # the default game, shared read-only


def baseline(gamma, d, lens=DEFAULT_LENS):
    return PlayerSpec(gamma, d, FairnessKind.BASELINE, 0.0, lens)

def agent_tau(gamma, d, tau, lens=DEFAULT_LENS):
    return PlayerSpec(gamma, d, FairnessKind.AGENT_TAU, tau, lens)

def association(gamma, d, lens=DEFAULT_LENS):
    return PlayerSpec(gamma, d, FairnessKind.ASSOCIATION, 0.0, lens)


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


def utility_at(player, own, cfg=CFG):
    """The player's compiled utility of keeping ``own``, its partner getting the rest."""
    return compile_player(player, cfg)(own, 1.0 - own)


class TestUtilityOfSplit:
    def test_baseline_dispatch(self):
        assert utility_at(baseline(0.5, 1.0), 1.0) == pytest.approx(2.0 / 3.0)

    def test_agent_tau_balanced_split_is_zero(self):
        assert utility_at(agent_tau(0.4, 0.0, 0.5), 0.5) == 0.0

    def test_zero_disparities_give_zero(self):
        assert utility_at(agent_tau(0.6, 0.0, 0.5, EXP8), 0.5) == 0.0

    def test_association_at_zero_distance_never_negative(self):
        cfg = GameConfig()
        player = association(0.4, 0.0)
        for s in cfg.splits():
            assert utility_at(player, s, cfg) >= 0.0

    def test_baseline_hand_evaluated_example(self):
        # (0.8 + 0.5*0.2)/1.5
        assert utility_at(baseline(0.5, 1.0), 0.8) == pytest.approx(0.6, abs=1e-12)

    def test_fair_hand_evaluated_example(self):
        u = utility_at(agent_tau(0.4, 1.0, 0.2, EXP8), 0.6)
        assert u == pytest.approx(0.9131994205884084, abs=1e-12)
        assert u == pytest.approx(oracle_fair_utility(0.4, 1.0, 0.2, 8.0, 2.0, 0.6), abs=1e-15)

    def test_full_identification_is_half_for_any_split(self):
        for own in (0.0, 0.3, 1.0):
            assert utility_at(baseline(1.0, 2.0), own) == pytest.approx(0.5)

    def test_no_identification_returns_own_share(self):
        assert utility_at(baseline(0.0, 1.0), 0.35) == pytest.approx(0.35)

    def test_linear_zero_tau_reduces_to_baseline(self):
        for gamma, d, own in [(0.3, 1.2, 0.8), (0.9, 0.0, 0.1)]:
            assert utility_at(agent_tau(gamma, d, 0.0, LINEAR), own) == pytest.approx(
                utility_at(baseline(gamma, d), own), abs=1e-15
            )

    def test_own_tau_zero_lifts_an_own_shortfall(self):
        # association at d = 1 gives tau = 0.5: an own share of 0.3 is a shortfall unless judged against 0
        player = association(0.5, 1.0, EXP8)
        plain = utility_at(player, 0.3)
        anchored = utility_at(player, 0.3, GameConfig(own_tau_zero=True))
        assert anchored > plain


class TestBestSplit:
    def test_baseline_takes_everything(self):
        share, util = argmax(compile_player(baseline(0.5, 1.0), CFG), CFG)
        assert share == 1.0
        assert util == pytest.approx(2.0 / 3.0)

    def test_full_identification_ties_resolve_to_half(self):
        share, util = argmax(compile_player(baseline(1.0, 1.7), CFG), CFG)
        assert share == 0.5
        assert util == pytest.approx(0.5)

    def test_half_tau_zero_distance_peaks_at_half(self):
        player = agent_tau(0.5, 0.0, 0.5, EXP8)
        share, _ = argmax(compile_player(player, CFG), CFG)
        oracle_best, _ = brute_force_scan(
            lambda s: oracle_fair_utility(0.5, 0.0, 0.5, 8.0, 2.0, s), cells=1000
        )
        assert share == 0.5 == oracle_best

    def test_tie_break_variants(self):
        for rule, expected in [
            (TieBreak.CLOSEST_TO_EQUAL, 0.5),
            (TieBreak.LOWEST_OWN_SHARE, 0.0),
            (TieBreak.HIGHEST_OWN_SHARE, 1.0),
        ]:
            cfg = GameConfig(tie_break=rule)
            share, _ = argmax(compile_player(baseline(1.0, 1.0), cfg), cfg)
            assert share == expected

    def test_mirror_maxima_resolve_to_lower_share(self):
        # At d = 0 the utility is symmetric in s <-> 1 - s; with tau above one
        # half it peaks at 0.30 and 0.70, whose float distances from 0.5 differ.
        lens = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=3.0, steepness=2.0)
        cfg = GameConfig(grid_step=0.02)
        share, _ = argmax(compile_player(agent_tau(0.5, 0.0, 0.7, lens), cfg), cfg)
        assert share == 0.3


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
        utility = compile_player(PlayerSpec(0.4, 1.0, FairnessKind.AGENT_TAU, 0.2, PayoffLens()), cfg)
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
# (kind, tau): a tau is drawn in every kind, and only agent_tau consults it
MODES = st.tuples(st.sampled_from(list(FairnessKind)), st.floats(0.0, 1.0))


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
    utility = compile_player(PlayerSpec(gamma, d, *mode, lens), cfg)
    full = scan(utility, cfg)
    assert argmax(utility, cfg) == (full.best, full.top)


# No max_examples here, so that CI's --hypothesis-profile=ci can raise it.
@given(st.floats(0.0, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 5.0)), MODES, LENSES, st.booleans(),
       st.floats(0.0, 1.0))
def test_compiled_player_is_the_closed_form(gamma, d, mode, lens, own_tau_zero, own):
    kind, fixed_tau = mode
    utility = compile_player(PlayerSpec(gamma, d, kind, fixed_tau, lens), GameConfig(own_tau_zero=own_tau_zero))
    if kind is FairnessKind.BASELINE:
        expected = oracle_baseline_utility(gamma, d, own)
    else:
        tau = fixed_tau if kind is FairnessKind.AGENT_TAU else 1.0 - (1.0 if d == 0 else gamma ** d)
        own_tau = 0.0 if own_tau_zero and kind is FairnessKind.ASSOCIATION else None
        expected = oracle_fair_utility(gamma, d, tau, lens.steepness, lens.loss_aversion, own, own_tau,
                                       linear=lens.family is LensFamily.LINEAR)
    assert utility(own, 1.0 - own) == expected


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.4),
    st.floats(0.0, 1.0),
)
def test_baseline_consistent_with_general_ct_utility(gamma, d, own):
    expected = oracle_baseline_utility(gamma, d, own)
    assert utility_at(baseline(gamma, d), own) == pytest.approx(expected, abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_zero_distance_symmetry(gamma, tau, own):
    utility = compile_player(agent_tau(gamma, 0.0, tau, EXP8), GameConfig())
    assert utility(own, 1.0 - own) == utility(1.0 - own, own)


@given(st.floats(0.0, 1.0))
def test_zero_distance_half_tau_never_positive(own):
    u = utility_at(agent_tau(0.7, 0.0, 0.5, EXP8), own)
    if abs(own - 0.5) < 1e-12:
        assert u == 0.0
    else:
        assert u < 0.0


def test_advantaged_side_turns_positive_with_distance():
    # at half tau the advantaged share starts negative and flips sign once
    # the attenuation drops below the gain/loss perception ratio
    own = 0.7
    assert utility_at(agent_tau(0.5, 0.0, 0.5, EXP8), own) < 0.0
    assert utility_at(agent_tau(0.5, 2.0, 0.5, EXP8), own) > 0.0


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.4),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_magnitude_bounded_by_lens_extremes(gamma, d, tau, own):
    u = utility_at(agent_tau(gamma, d, tau, EXP8), own)
    assert abs(u) <= max(1.0, EXP8.loss_aversion)


class TestMinAcceptableSplit:
    def test_baseline_accepts_from_zero(self):
        for gamma, d in [(0.2, 0.5), (0.8, 2.0)]:
            assert scan(compile_player(baseline(gamma, d), CFG), CFG).min_acceptable == 0.0

    def test_half_tau_locus_fixed_at_half(self):
        for d in (0.0, 1.0, 2.4):
            assert scan(compile_player(agent_tau(0.5, d, 0.5, EXP8), CFG), CFG).min_acceptable == 0.5

    def test_extreme_tau_at_zero_distance_has_no_acceptable_split(self):
        assert scan(compile_player(agent_tau(0.5, 0.0, 0.9), CFG), CFG).min_acceptable is None


class TestAccepts:
    def test_baseline_accepts_zero_offer(self):
        assert accepts_offer(compile_player(baseline(0.3, 1.0), CFG), CFG, 0.0)

    def test_moderate_tau_rejects_unequal_offer_at_zero_distance(self):
        assert not accepts_offer(compile_player(agent_tau(0.4, 0.0, 0.5), CFG), CFG, 0.3)

    def test_association_accepts_tiny_offer_at_zero_distance(self):
        assert accepts_offer(compile_player(association(0.4, 0.0), CFG), CFG, 0.05)


class TestPlay:
    def test_dual_baseline(self):
        outcome = play(baseline(0.5, 1.0), baseline(0.5, 1.0), GameConfig())
        assert outcome.proposed_split == 1.0
        assert outcome.accepted
        assert (outcome.payoff_allocator, outcome.payoff_recipient) == (1.0, 0.0)
        assert outcome.util_allocator == pytest.approx(2.0 / 3.0)
        assert outcome.util_recipient == pytest.approx(1.0 / 3.0)

    def test_symmetric_moderate_tau_settles_at_half(self):
        player = agent_tau(0.5, 0.0, 0.5, EXP8)
        outcome = play(player, player, GameConfig())
        assert outcome.proposed_split == 0.5
        assert outcome.accepted

    def test_greedy_allocator_meets_demanding_recipient(self):
        outcome = play(baseline(0.2, 1.0), agent_tau(0.4, 1.0, 0.7), GameConfig())
        assert outcome.proposed_split == 1.0
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
        assert outcome.proposed_split == 0.7
        assert (outcome.payoff_allocator, outcome.payoff_recipient) == (0.7, 0.3)

    # an offer is the one share from outside the split grid, so no non-finite share reaches a compiled player
    @pytest.mark.parametrize("offer", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_offer_outside_unit_interval_rejected(self, offer):
        with pytest.raises(ConfigError, match=r"^offer must be a finite share in \[0,1\], got "):
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
    recipient = PlayerSpec(g2, d2, FairnessKind(kind), tau, DEFAULT_LENS)
    outcome = play(baseline(g1, d1), recipient, GameConfig(grid_step=0.02))
    if outcome.accepted:
        assert outcome.payoff_allocator + outcome.payoff_recipient == 1.0
    else:
        assert outcome.payoff_allocator == outcome.payoff_recipient == 0.0


@given(st.floats(0.1, 0.9), st.floats(0.01, 2.4))
@settings(max_examples=40, deadline=None)
def test_baseline_greed_below_full_identification(gamma, d):
    share, _ = argmax(compile_player(baseline(gamma, d), CFG), CFG)
    assert share == 1.0


def test_allocator_share_nondecreasing_in_distance_low_tau():
    cfg = GameConfig()
    shares = [
        argmax(compile_player(agent_tau(0.4, d / 10.0, 0.2), cfg), cfg)[0] for d in range(0, 25, 2)
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
    lens = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=lam, steepness=k)
    player = PlayerSpec(gamma, d, FairnessKind(kind), tau, lens)
    cfg = GameConfig(grid_step=0.02)

    if kind == "baseline":
        oracle_u = lambda s: oracle_baseline_utility(gamma, d, s)
    else:
        t = tau if kind == "agent_tau" else 1.0 - (1.0 if d == 0 else gamma ** d)
        oracle_u = lambda s: oracle_fair_utility(gamma, d, t, k, lam, s)

    fine_best, fine_min = brute_force_scan(oracle_u, cells=cfg.grid_cells * 10)
    share, _ = argmax(compile_player(player, cfg), cfg)
    assert abs(share - fine_best) <= cfg.grid_step + 1e-12
    found = scan(compile_player(player, cfg), cfg).min_acceptable
    if fine_min is None:
        assert found is None
    else:
        assert found is not None
        assert abs(found - fine_min) <= cfg.grid_step + 1e-12


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
        kind = FairnessKind.ASSOCIATION
    else:
        tau = agent_tau_value
        d = frac * k * (1.0 - 2.0 * tau) / slope
        kind = FairnessKind.AGENT_TAU
    assume(0.0 < tau < 0.5 and d < k * (1.0 - 2.0 * tau) / slope)
    player = PlayerSpec(gamma, d, kind, tau, PayoffLens(loss_aversion=lam, steepness=k))
    # The default 1e-9 tie window is wider than one step where k*(share - tau)
    # is large and the utility is that flat; ties here are float noise only.
    cfg = GameConfig(grid_step=0.0001, tie_break=tie_break, tolerance=1e-14)
    share, _ = argmax(compile_player(player, cfg), cfg)
    assert abs(share - (1.0 + d * slope / k) / 2.0) <= cfg.grid_step + 1e-12


@given(
    gamma=st.floats(0.05, 0.95),
    tau=st.floats(0.01, 0.49),
    closeness=st.floats(1e-3, 0.5),
    k=st.floats(2.0, 20.0),
    lam=st.floats(1.2, 4.0),
)
@settings(deadline=None)  # no max_examples, so that CI's --hypothesis-profile=ci can raise it
def test_fairness_wins_past_the_rejection_distance(gamma, tau, closeness, k, lam):
    # An agent_tau recipient offered o < tau judges its own share a loss and the
    # partner's (1 - o - tau > 0) a gain, so it accepts exactly while
    # gamma**d >= R = lambda(1 - e^{-k(tau-o)})/(1 - e^{-k(1-o-tau)}): up to
    # d_rej = ln R / ln gamma when 0 < R < 1 (README "Model notes"). The offer
    # is drawn near tau, where R is small.
    offer = tau * (1.0 - closeness)
    ratio = lam * (1.0 - math.exp(-k * (tau - offer))) / (1.0 - math.exp(-k * (1.0 - offer - tau)))
    assume(0.0 < ratio < 1.0)
    d_rej = math.log(ratio) / math.log(gamma)
    assume(d_rej > 1e-3)
    cfg = GameConfig(tolerance=1e-14)
    lens = PayoffLens(loss_aversion=lam, steepness=k)

    def accepts(d):
        return accepts_offer(compile_player(agent_tau(gamma, d, tau, lens), cfg), cfg, offer)

    assert accepts(d_rej - 1e-3)
    assert not accepts(d_rej + 1e-3)


@given(
    gamma=st.floats(0.05, 0.95),
    offer=st.floats(0.0, 1.0),
    k=st.floats(0.5, 20.0),
    lam=st.floats(1.01, 5.0),
    own_tau_zero=st.booleans(),
)
@example(gamma=0.5, offer=0.96, k=5.96, lam=2.12, own_tau_zero=False)  # rejects, accepts, rejects (README)
@settings(deadline=None)  # no max_examples, so that CI's --hypothesis-profile=ci can raise it
def test_association_acceptance_flips_at_each_crossing(gamma, offer, k, lam, own_tau_zero):
    # An association recipient's threshold 1 - gamma**d moves with d, so its
    # utility of an offer can change sign more than once as d grows (README
    # "Model notes"). Each crossing is found by sampling w = gamma**d in (0,1]
    # and bisecting the closed form; 1e-3 on each side of it the engine must
    # accept exactly where the closed form is >= 0.
    def closed_form(d):
        w = 1.0 if d == 0 else gamma ** d
        return oracle_fair_utility(gamma, d, 1.0 - w, k, lam, offer, 0.0 if own_tau_zero else None)

    cfg = GameConfig(tolerance=1e-14, own_tau_zero=own_tau_zero)
    lens = PayoffLens(loss_aversion=lam, steepness=k)
    ds = [math.log(i / 200) / math.log(gamma) for i in range(200, 0, -1)]
    for lo, hi in zip(ds, ds[1:]):
        if (closed_form(lo) >= 0.0) == (closed_form(hi) >= 0.0):
            continue
        for _ in range(60):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if (closed_form(mid) >= 0.0) == (closed_form(lo) >= 0.0) else (lo, mid)
        sides = [d for d in (lo - 1e-3, hi + 1e-3) if d >= 0.0 and abs(closed_form(d)) > 1e-12]
        for d in sides:
            utility = compile_player(association(gamma, d, lens), cfg)
            assert accepts_offer(utility, cfg, offer) == (closed_form(d) >= 0.0)


@given(
    gamma=st.floats(0.05, 0.95),
    cells=st.sampled_from([10, 20, 40, 50, 100, 200]),
    tau_share=st.floats(0.0, 1.0),
    k=st.floats(0.5, 16.0),
    lam=st.floats(1.01, 5.0),
)
@settings(deadline=None)  # no max_examples, so that CI's --hypothesis-profile=ci can raise it
def test_allocator_leaves_the_equal_split_at_d_leave(gamma, cells, tau_share, k, lam):
    # An agent_tau allocator with 0 <= tau <= 1/2 - h, on a grid of step h = 1/cells with
    # cells even, finds u(1/2 + h) - u(1/2) of the sign of 1 - gamma**d * e^{kh}: it keeps
    # the equal split below d_leave = kh/ln(1/gamma) and takes one cell more just above it
    # (README "Model notes").
    h = 1.0 / cells
    tau = tau_share * (0.5 - h)
    d_leave = k * h / math.log(1.0 / gamma)
    cfg = GameConfig(grid_step=h, tolerance=1e-14)
    lens = PayoffLens(loss_aversion=lam, steepness=k)

    def proposed_cell(d):
        return round(argmax(compile_player(agent_tau(gamma, d, tau, lens), cfg), cfg)[0] * cells)

    assert proposed_cell(d_leave * (1.0 - 1e-3)) == cells // 2
    assert proposed_cell(d_leave * (1.0 + 1e-3)) == cells // 2 + 1


def test_config_error_is_the_only_exception_class():
    # every refusal raises the one ConfigError, which cli.run turns into exit 2
    bases = {}
    for path in sorted(Path(transcend_ug.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(base) for base in node.bases]

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        if name not in bases:  # a class of another module, such as configparser.Error
            return name.endswith(("Error", "Exception", "Warning"))
        return any(map(is_exception, bases[name]))

    assert [name for name in bases if is_exception(name)] == ["ConfigError"]
    assert issubclass(transcend_ug.ConfigError, ValueError)


def callers(name):
    """(module, innermost enclosing function) of each call of ``name`` in the package's source."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(transcend_ug.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_a_player_becomes_a_utility_in_one_place():
    assert callers("ug_kernel") == {("game", "compile_player")}
    # association_tau is 1 - gamma**d
    assert callers("weight") == {("game", "compile_player"), ("identity", "association_tau")}
