import pytest
from hypothesis import given, strategies as st

from conftest import oracle_baseline_utility, oracle_fair_utility
from transcend_ug.payoff import LensFamily, PayoffLens
from transcend_ug.utility import Split, baseline_ug_utility, fair_ug_utility

EXP = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=2.0, steepness=8.0)
LINEAR = PayoffLens(LensFamily.LINEAR)


class TestSplit:
    def test_partner_share_complements(self):
        assert Split(0.3).partner_share == 0.7

    def test_out_of_range_rejected(self):
        for s in (-0.01, 1.01):
            with pytest.raises(ValueError):
                Split(s)


class TestBaselineUtility:
    def test_full_identification_is_half_for_any_split(self):
        for own in (0.0, 0.3, 1.0):
            assert baseline_ug_utility(1.0, 2.0, own, 1.0 - own) == pytest.approx(0.5)

    def test_hand_evaluated_example(self):
        assert baseline_ug_utility(0.5, 1.0, 0.8, 0.2) == pytest.approx(0.6, abs=1e-12)

    def test_no_identification_returns_own_share(self):
        assert baseline_ug_utility(0.0, 1.0, 0.35, 0.65) == pytest.approx(0.35)


class TestFairUtility:
    def test_linear_zero_tau_reduces_to_baseline(self):
        for gamma, d, own in [(0.3, 1.2, 0.8), (0.9, 0.0, 0.1)]:
            assert fair_ug_utility(gamma, d, 0.0, LINEAR, own, 1.0 - own) == pytest.approx(
                baseline_ug_utility(gamma, d, own, 1.0 - own), abs=1e-15
            )

    def test_zero_disparities_give_zero(self):
        assert fair_ug_utility(0.6, 0.0, 0.5, EXP, 0.5, 0.5) == 0.0

    def test_hand_evaluated_example(self):
        u = fair_ug_utility(0.4, 1.0, 0.2, EXP, 0.6, 0.4)
        assert u == pytest.approx(0.9131994205884084, abs=1e-12)
        assert u == pytest.approx(oracle_fair_utility(0.4, 1.0, 0.2, 8.0, 2.0, 0.6), abs=1e-15)

    def test_own_tau_override(self):
        plain = fair_ug_utility(0.5, 1.0, 0.4, EXP, 0.3, 0.7)
        anchored = fair_ug_utility(0.5, 1.0, 0.4, EXP, 0.3, 0.7, own_tau=0.0)
        assert anchored > plain  # own share no longer judged as a shortfall


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.4),
    st.floats(0.0, 1.0),
)
def test_baseline_consistent_with_general_ct_utility(gamma, d, own):
    expected = oracle_baseline_utility(gamma, d, own)
    assert baseline_ug_utility(gamma, d, own, 1.0 - own) == pytest.approx(expected, abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_zero_distance_symmetry(gamma, tau, own):
    a = fair_ug_utility(gamma, 0.0, tau, EXP, own, 1.0 - own)
    b = fair_ug_utility(gamma, 0.0, tau, EXP, 1.0 - own, own)
    assert a == b


@given(st.floats(0.0, 1.0))
def test_zero_distance_half_tau_never_positive(own):
    u = fair_ug_utility(0.7, 0.0, 0.5, EXP, own, 1.0 - own)
    if abs(own - 0.5) < 1e-12:
        assert u == 0.0
    else:
        assert u < 0.0


def test_advantaged_side_turns_positive_with_distance():
    # at half tau the advantaged share starts negative and flips sign once
    # the attenuation drops below the gain/loss perception ratio
    own = 0.7
    assert fair_ug_utility(0.5, 0.0, 0.5, EXP, own, 1.0 - own) < 0.0
    assert fair_ug_utility(0.5, 2.0, 0.5, EXP, own, 1.0 - own) > 0.0


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.4),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_magnitude_bounded_by_lens_extremes(gamma, d, tau, own):
    u = fair_ug_utility(gamma, d, tau, EXP, own, 1.0 - own)
    assert abs(u) <= max(1.0, EXP.loss_aversion)
