import math

import pytest
from hypothesis import given, strategies as st

from transcend_ug.identity import (
    FairnessKind,
    PlayerSpec,
    association_tau,
    effective_tau,
    weight,
)
from transcend_ug.payoff import ConfigError, PayoffLens


def player(gamma, d, kind=FairnessKind.BASELINE, tau=0.0):
    return PlayerSpec(gamma, d, kind, tau, PayoffLens())


class TestPlayerSpec:
    @pytest.mark.parametrize("d", [-0.1, math.inf, math.nan])
    def test_negative_or_non_finite_distance_rejected(self, d):
        with pytest.raises(ConfigError, match="d must be finite"):
            player(0.5, d)

    def test_gamma_out_of_range_rejected(self):
        for gamma in (-0.1, 1.1):
            with pytest.raises(ConfigError):
                player(gamma, 1.0)


class TestAttenuation:
    def test_direct_power(self):
        assert weight(0.5, 1.0) == 0.5
        assert weight(0.8, 2.0) == pytest.approx(0.64, abs=1e-12)

    def test_self_weight_is_one_even_at_gamma_zero(self):
        assert weight(0.0, 0.0) == 1.0


class TestFairnessMode:
    def test_agent_tau_requires_tau_in_range(self):
        # a non-finite threshold is refused here, so it never reaches a compiled player
        for tau in (1.2, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                player(0.5, 1.0, FairnessKind.AGENT_TAU, tau)

    @pytest.mark.parametrize("kind", list(FairnessKind))
    def test_tau_range_checked_in_every_kind(self, kind):
        # as the config checks agent.<role>.tau, also in a kind that does not consult it
        for tau in (1.2, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="^tau must lie in"):
                player(0.5, 1.0, kind, tau)

    def test_tau_is_checked_before_gamma_and_d(self):
        # so that a config with several faults names the same first fault as before
        with pytest.raises(ConfigError, match="^tau must lie in"):
            player(1.5, -1.0, FairnessKind.BASELINE, 2.0)
        with pytest.raises(ConfigError, match="^gamma must lie in"):
            player(1.5, -1.0)

    def test_baseline_resolves_to_zero(self):
        assert effective_tau(player(0.5, 1.0)) == 0.0

    def test_agent_tau_is_distance_invariant(self):
        for d in (0.0, 0.3, 1.0, 2.4):
            assert effective_tau(player(0.5, d, FairnessKind.AGENT_TAU, 0.7)) == 0.7

    def test_association_examples(self):
        assert effective_tau(player(0.5, 1.0, FairnessKind.ASSOCIATION)) == 0.5

    @pytest.mark.parametrize("gamma, d", [(0.5, 1.0), (0.0, 0.0), (0.37, 2.4), (1.0, 0.7)])
    def test_association_threshold_is_one_formula(self, gamma, d):
        assert association_tau(gamma, d) == 1.0 - weight(gamma, d)
        assert effective_tau(player(gamma, d, FairnessKind.ASSOCIATION)) == association_tau(gamma, d)


@given(st.floats(0.01, 0.99), st.floats(0.0, 2.4), st.floats(0.01, 2.0))
def test_association_tau_increasing_in_distance(gamma, d, delta):
    kind = FairnessKind.ASSOCIATION
    lo = effective_tau(player(gamma, d, kind))
    hi = effective_tau(player(gamma, d + delta, kind))
    assert 0.0 <= lo < hi <= 1.0


@given(st.floats(0.01, 0.98), st.floats(0.01, 0.5), st.floats(0.1, 2.4))
def test_association_tau_decreasing_in_gamma(gamma, bump, d):
    kind = FairnessKind.ASSOCIATION
    assert effective_tau(player(gamma, d, kind)) > effective_tau(
        player(min(gamma + bump, 1.0), d, kind)
    )


def test_association_tau_zero_at_zero_distance():
    kind = FairnessKind.ASSOCIATION
    for gamma in (0.0, 0.2, 0.5, 1.0):
        assert effective_tau(player(gamma, 0.0, kind)) == 0.0


def test_association_growth_rate_steeper_for_lower_gamma():
    # near d=0 the slope is -ln(gamma), larger for smaller gamma
    d = 0.05
    kind = FairnessKind.ASSOCIATION
    rate = {
        g: effective_tau(player(g, d, kind)) / d for g in (0.2, 0.5, 0.8)
    }
    assert rate[0.2] > rate[0.5] > rate[0.8]
    assert rate[0.2] == pytest.approx(-math.log(0.2), rel=0.05)

