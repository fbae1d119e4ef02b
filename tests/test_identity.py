import math

import pytest
from hypothesis import given, strategies as st

from transcend_ug.identity import (
    PARTNER_ID,
    SELF_ID,
    Aspect,
    FairnessKind,
    FairnessMode,
    IdentityError,
    SenseOfSelf,
    attenuation,
    effective_tau,
)


def two_party(gamma, d):
    return SenseOfSelf.two_party(gamma, d)


class TestAspectAndSense:
    def test_negative_distance_rejected(self):
        with pytest.raises(IdentityError):
            Aspect("x", -0.1)

    def test_gamma_out_of_range_rejected(self):
        for gamma in (-0.1, 1.1):
            with pytest.raises(IdentityError):
                two_party(gamma, 1.0)

    def test_self_aspect_required(self):
        with pytest.raises(IdentityError):
            SenseOfSelf(0.5, (Aspect(PARTNER_ID, 1.0),))

    def test_self_aspect_must_sit_at_zero(self):
        with pytest.raises(IdentityError):
            SenseOfSelf(0.5, (Aspect(SELF_ID, 0.5),))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(IdentityError):
            SenseOfSelf(0.5, (Aspect(SELF_ID, 0.0), Aspect(SELF_ID, 1.0)))


class TestAttenuation:
    def test_direct_power(self):
        assert attenuation(two_party(0.5, 1.0), PARTNER_ID) == 0.5
        assert attenuation(two_party(0.8, 2.0), PARTNER_ID) == pytest.approx(0.64, abs=1e-12)

    def test_self_weight_is_one_even_at_gamma_zero(self):
        assert attenuation(two_party(0.0, 1.0), SELF_ID) == 1.0

    def test_unknown_aspect(self):
        with pytest.raises(IdentityError, match="unknown aspect"):
            attenuation(two_party(0.5, 1.0), "stranger")


class TestFairnessMode:
    def test_agent_tau_requires_tau_in_range(self):
        with pytest.raises(IdentityError):
            FairnessMode.agent_tau(1.2)
        with pytest.raises(IdentityError):
            FairnessMode(FairnessKind.AGENT_TAU)

    def test_baseline_resolves_to_zero(self):
        assert effective_tau(two_party(0.5, 1.0), FairnessMode.baseline(), PARTNER_ID) == 0.0

    def test_agent_tau_is_distance_invariant(self):
        mode = FairnessMode.agent_tau(0.7)
        for d in (0.0, 0.3, 1.0, 2.4):
            assert effective_tau(two_party(0.5, d), mode, PARTNER_ID) == 0.7

    def test_association_examples(self):
        mode = FairnessMode.association()
        assert effective_tau(two_party(0.9, 1.0), mode, SELF_ID) == 0.0
        assert effective_tau(two_party(0.5, 1.0), mode, PARTNER_ID) == 0.5

    def test_unknown_aspect(self):
        with pytest.raises(IdentityError):
            effective_tau(two_party(0.5, 1.0), FairnessMode.association(), "stranger")


@given(st.floats(0.01, 0.99), st.floats(0.0, 2.4), st.floats(0.01, 2.0))
def test_association_tau_increasing_in_distance(gamma, d, delta):
    mode = FairnessMode.association()
    lo = effective_tau(two_party(gamma, d), mode, PARTNER_ID)
    hi = effective_tau(two_party(gamma, d + delta), mode, PARTNER_ID)
    assert 0.0 <= lo < hi <= 1.0


@given(st.floats(0.01, 0.98), st.floats(0.01, 0.5), st.floats(0.1, 2.4))
def test_association_tau_decreasing_in_gamma(gamma, bump, d):
    mode = FairnessMode.association()
    assert effective_tau(two_party(gamma, d), mode, PARTNER_ID) > effective_tau(
        two_party(min(gamma + bump, 1.0), d), mode, PARTNER_ID
    )


def test_association_tau_zero_at_zero_distance():
    mode = FairnessMode.association()
    for gamma in (0.0, 0.2, 0.5, 1.0):
        assert effective_tau(two_party(gamma, 0.0), mode, PARTNER_ID) == 0.0


def test_association_growth_rate_steeper_for_lower_gamma():
    # near d=0 the slope is -ln(gamma), larger for smaller gamma
    d = 0.05
    mode = FairnessMode.association()
    rate = {
        g: effective_tau(two_party(g, d), mode, PARTNER_ID) / d for g in (0.2, 0.5, 0.8)
    }
    assert rate[0.2] > rate[0.5] > rate[0.8]
    assert rate[0.2] == pytest.approx(-math.log(0.2), rel=0.05)

