import math

import pytest
from hypothesis import assume, given, strategies as st

from conftest import oracle_f
from transcend_ug.game import ConfigError, GameConfig, compile_player, play
from transcend_ug.identity import FairnessKind, PlayerSpec
from transcend_ug.payoff import (
    MAX_LOSS_AVERSION,
    LensFamily,
    PayoffLens,
    ug_kernel,
)

EXP = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=2.0, steepness=8.0)
LINEAR = PayoffLens(LensFamily.LINEAR)

valid_lenses = st.builds(
    PayoffLens,
    family=st.just(LensFamily.EXP_VALUE),
    loss_aversion=st.floats(1.01, 10.0),
    steepness=st.floats(0.1, 30.0),
)


def compile_lens(lens):
    """The lens f of the disparity, through the one door: a player of weight exactly 0 (gamma 0 at d 1) and
    threshold 0, judging its own share delta."""
    utility = compile_player(PlayerSpec(0.0, 1.0, FairnessKind.AGENT_TAU, 0.0, lens), GameConfig())
    return lambda delta: utility(delta, 1.0)


def test_linear_is_identity():
    assert compile_lens(LINEAR)(0.3) == 0.3


def test_zero_fixed_point():
    assert compile_lens(EXP)(0.0) == 0.0
    assert compile_lens(LINEAR)(0.0) == 0.0


def test_exp_value_loss_branch_frozen_value():
    # -2 * (1 - e^-0.8)
    assert compile_lens(EXP)(-0.1) == pytest.approx(-1.1013420717655569, abs=1e-12)


def loss_aversion_gap(lens, delta):
    """Excess of the perceived loss over the perceived gain at +/-delta."""
    f = compile_lens(lens)
    return abs(f(-delta)) - abs(f(delta))


def test_gap_frozen_values():
    assert loss_aversion_gap(EXP, 0.1) == pytest.approx(0.5506710358827784, abs=1e-12)
    lens = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=3.0, steepness=4.0)
    # 3(1-e^-2) - (1-e^-2) = 2(1-e^-2)
    assert loss_aversion_gap(lens, 0.5) == pytest.approx(2.0 * (1.0 - math.exp(-2.0)), abs=1e-12)


def test_gap_vanishes_at_origin():
    assert loss_aversion_gap(EXP, 1e-12) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize(
    "lam,k", [(1.0, 8.0), (0.5, 8.0), (2.0, 0.0), (2.0, -1.0), (math.inf, 8.0), (2.0, math.inf), (1e308, 8.0)]
)
def test_invalid_exp_value_parameters_rejected_at_construction(lam, k):
    with pytest.raises(ConfigError):
        PayoffLens(LensFamily.EXP_VALUE, loss_aversion=lam, steepness=k)


def test_largest_loss_aversion_keeps_both_loss_terms_finite():
    # both shares below their thresholds at full weight: each term is about -lambda
    lens = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=MAX_LOSS_AVERSION, steepness=16.0)
    assert math.isfinite(ug_kernel(1.0, lens, tau=0.6, own_tau=0.6)(0.0, 0.0))


def test_linear_ignores_lambda_and_k():
    lens = PayoffLens(LensFamily.LINEAR, loss_aversion=0.1, steepness=-3.0)
    assert compile_lens(lens)(-0.4) == -0.4


def test_nonfinite_delta_rejected():
    # the kernel does not check a disparity; the one share from outside the split grid, the offer, is refused
    player = PlayerSpec(0.5, 1.0, FairnessKind.AGENT_TAU, 0.2, EXP)
    with pytest.raises(ValueError, match=r"^offer must be a finite share"):
        play(player, player, GameConfig(), offer=math.inf)


DELTAS = [-1.0, -0.3, -1e-12, 0.0, 1e-12, 0.3, 1.0]


def closed_form(lens, delta):
    if lens.family is LensFamily.LINEAR:
        return delta
    return oracle_f(delta, lens.steepness, lens.loss_aversion)


@pytest.mark.parametrize("lens", [EXP, LINEAR, PayoffLens()], ids=["exp_k8", "linear", "default"])
def test_compile_lens_is_the_closed_form(lens):
    f = compile_lens(lens)
    for delta in DELTAS:
        assert f(delta) == closed_form(lens, delta)


OFFER_REFUSED = r"^offer must be a finite share in \[0,1\], got "


@pytest.mark.parametrize("lens", [EXP, LINEAR], ids=["exp_value", "linear"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["own", "partner", "tau"])
def test_fair_ug_utility_rejects_non_finite_input(lens, value, slot):
    # the kernel does not check its inputs, so the doors to a fair player must: tau enters
    # through PlayerSpec, and the one share from outside the split grid is play's offer
    def fair(tau):
        return PlayerSpec(0.5, 1.0, FairnessKind.AGENT_TAU, tau, lens)

    if slot == "tau":
        with pytest.raises(ConfigError, match=r"^tau must lie in \[0,1\], got "):
            fair(value)
        return
    # the offer is the recipient's own share and the allocator's partner share
    other = PlayerSpec(0.5, 1.0, FairnessKind.BASELINE, 0.0, lens)
    allocator, recipient = (other, fair(0.2)) if slot == "own" else (fair(0.2), other)
    with pytest.raises(ConfigError, match=OFFER_REFUSED):
        play(allocator, recipient, GameConfig(), offer=value)


@pytest.mark.parametrize("utility", [
    lambda gamma, d: compile_player(PlayerSpec(gamma, d, FairnessKind.AGENT_TAU, 0.2, PayoffLens()), GameConfig()),
    lambda gamma, d: compile_player(PlayerSpec(gamma, d, FairnessKind.BASELINE, 0.0, PayoffLens()),
                                    GameConfig()),
], ids=["fair", "baseline"])
@pytest.mark.parametrize("gamma, d", [(g, 1.0) for g in (math.nan, -0.1, 1.5)] + [(0.5, d) for d in (math.nan, math.inf, -1.0)])
def test_utility_rejects_gamma_or_distance_out_of_domain(utility, gamma, d):
    # a utility comes only from a player, so it answers no question a player could not ask
    with pytest.raises(ConfigError):
        utility(gamma, d)


@pytest.mark.parametrize("own, partner", [(math.nan, 0.4), (0.6, math.inf)])
def test_baseline_ug_utility_rejects_non_finite_share(own, partner):
    # a recipient judges (offer, 1 - offer), so a non-finite share reaches it only as a non-finite offer
    offer = own if not math.isfinite(own) else 1.0 - partner
    player = PlayerSpec(0.5, 1.0, FairnessKind.BASELINE, 0.0, PayoffLens())
    with pytest.raises(ConfigError, match=OFFER_REFUSED):
        play(player, player, GameConfig(), offer=offer)


@given(valid_lenses, st.floats(-1.0, 1.0), st.floats(1e-6, 0.5))
def test_strictly_increasing(lens, delta, eps):
    f = compile_lens(lens)
    lo, hi = f(delta), f(delta + eps)
    assert lo <= hi
    # strict wherever the true rise, at least eps*k*e^{-k*max|x|}, clears
    # double-precision rounding; next to an asymptote it can be below one ulp
    k = lens.steepness
    if eps * k * math.exp(-k * max(abs(delta), abs(delta + eps))) > 1e-12:
        assert lo < hi


@given(valid_lenses, st.floats(1e-6, 1.0))
def test_loss_aversion_inequality(lens, delta):
    assert loss_aversion_gap(lens, delta) > 0.0


@given(valid_lenses)
def test_bounded_range(lens):
    # open interval mathematically; the loss branch may round to the
    # asymptote in floats once k*|delta| exhausts double precision
    f = compile_lens(lens)
    for delta in [x / 20 - 2.0 for x in range(81)]:
        v = f(delta)
        assert -lens.loss_aversion <= v <= 1.0
        if abs(delta) * lens.steepness < 30.0:
            assert -lens.loss_aversion < v < 1.0


@given(valid_lenses, st.floats(0.05, 0.9))
def test_s_shape_second_differences(lens, delta):
    # skip the saturated tail where the curvature k^2 e^{-k delta} h^2
    # falls below double-precision rounding noise
    assume(lens.steepness * delta < 15.0)
    f = compile_lens(lens)
    h = 1e-3
    # concave on gains
    assert f(delta + h) - 2.0 * f(delta) + f(delta - h) < 0.0
    # convex on losses
    assert f(-delta + h) - 2.0 * f(-delta) + f(-delta - h) > 0.0


@given(st.floats(-5.0, 5.0))
def test_linear_reduction(delta):
    assert compile_lens(LINEAR)(delta) == delta
