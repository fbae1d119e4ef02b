"""Acceptance suite: one test per release criterion.

Each test prints a single pass line (visible with ``pytest -s``) after
its assertions hold. Criterion 4's full-share clause is checked at the
distance ``d_full`` the calibrated lens implies, not inside the 0..2.4
sweep; see the README note on the allocator saturation distance.
"""
import math
import random
import time

import pytest

from conftest import brute_force_scan, oracle_baseline_utility, oracle_fair_utility, rows
from transcend_ug.cli import run
from transcend_ug.game import GameConfig, PlayerSpec, accepts_offer, argmax, axis_values, compile_player, scan
from transcend_ug.identity import FairnessKind
from transcend_ug.payoff import LensFamily, PayoffLens
from transcend_ug.sweep import acceptance_matrix, tau_curves

LENS = PayoffLens()  # calibrated defaults under test
GRID = GameConfig()  # 0.01 resolution
COARSE = GameConfig(grid_step=0.05)
D_SWEEP = axis_values(0.0, 2.4, 0.2)
SPLITS_05 = axis_values(0.0, 1.0, 0.05)


def baseline(gamma, d):
    return PlayerSpec(gamma, d, FairnessKind.BASELINE, 0.0, LENS)


def agent_tau(gamma, d, tau):
    return PlayerSpec(gamma, d, FairnessKind.AGENT_TAU, tau, LENS)


def association(gamma, d):
    return PlayerSpec(gamma, d, FairnessKind.ASSOCIATION, 0.0, LENS)


def matrix_row(player_gamma, tau, d):
    matrix = rows(acceptance_matrix(agent_tau(player_gamma, 0.0, tau), GRID, [d], SPLITS_05))
    return [r["split"] for r in matrix if r["accepted"]]


def report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def test_criterion_01_baseline_greed():
    start = time.perf_counter()
    for gamma in [g / 10 for g in range(1, 10)]:
        for d in (0.5, 1.0, 2.0):
            assert argmax(compile_player(baseline(gamma, d), GRID), GRID)[0] == 1.0
    for d in (0.5, 1.0, 2.0):
        assert argmax(compile_player(baseline(1.0, d), GRID), GRID)[0] == 0.5
    assert time.perf_counter() - start < 1.0
    report(1, "baseline allocator takes the full resource except at gamma=1")


def test_criterion_02_baseline_universal_acceptance():
    for gamma in [g / 10 for g in range(1, 10)]:
        for d in (0.5, 1.0, 2.0):
            utility = compile_player(baseline(gamma, d), GRID)
            assert all(accepts_offer(utility, GRID, s) for s in GRID.splits())
    report(2, "baseline recipient accepts every offer on the 0.01 grid")


def test_criterion_03_fixed_min_acceptable_locus():
    for d in D_SWEEP:
        found = scan(compile_player(agent_tau(0.5, d, 0.5), GRID), GRID).min_acceptable
        assert found is not None
        assert abs(found - 0.5) <= GRID.grid_step + 1e-12
    report(3, "tau=0.5 min-acceptable split stays at 0.5 across distances")


def test_criterion_04_allocator_monotonicity():
    shares = [argmax(compile_player(agent_tau(0.4, d, 0.2), GRID), GRID)[0] for d in D_SWEEP]
    assert shares == sorted(shares)
    report(4, "low-tau allocator share is nondecreasing in distance (partial)")


def full_share_distance(lens, gamma, tau):
    """Closed-form distance past which own share 1.0 is the allocator's argmax.

    For 0 < tau < 1/2 the utility's slope on [1-tau, 1] has the sign of
    e^{k*tau} - lambda*gamma^d*e^{k(1-tau)}, so full share wins exactly
    when d > (k(1-2tau) + ln lambda) / ln(1/gamma).
    """
    return (lens.steepness * (1.0 - 2.0 * tau) + math.log(lens.loss_aversion)) / math.log(
        1.0 / gamma
    )


def rejects_short_offer(lens, tau=0.2, offered=0.15):
    """Closed form of criterion 6 at d=0: the recipient rejects ``offered``.

    The shortfall's loss lambda*(1-e^{-k(tau-offered)}) must outweigh the
    partner's gain 1-e^{-k(1-offered-tau)}.
    """
    k, lam = lens.steepness, lens.loss_aversion
    return lam * (1.0 - math.exp(-k * (tau - offered))) > 1.0 - math.exp(
        -k * (1.0 - offered - tau)
    )


def test_criterion_04_allocator_reaches_full_share():
    """The low-tau allocator's best share climbs to the whole resource.

    Full share is the argmax only past d_full (11.23 for this player under
    the calibrated lens); just short of it the argmax sits at 1-tau.
    """
    gamma, tau = 0.4, 0.2
    d_full = full_share_distance(LENS, gamma, tau)

    def share(d):
        return argmax(compile_player(agent_tau(gamma, d, tau), GRID), GRID)[0]

    assert share(d_full - 0.05) == 1.0 - tau
    far = [d_full + 0.05 + (d_full - 0.05) * i / 20 for i in range(21)]
    assert all(share(d) == 1.0 for d in far)
    climb = [share(1.25 * d_full * i / 50) for i in range(51)]
    assert climb == sorted(climb)
    assert climb[-1] == 1.0
    report(4, f"low-tau allocator reaches full share past d_full={d_full:.2f}")


def test_criterion_04_full_share_by_d_2_4_conflicts_with_criterion_06():
    """On a (k, lambda) grid, no lens meets criterion 6 and saturates by d=2.4.

    Criterion 6 needs lambda*(1-e^{-0.05k}) > 1-e^{-0.65k}; full share at
    d=2.4 needs d_full < 2.4, i.e. lambda*e^{0.6k} < 0.4^{-2.4}.
    """
    gamma, tau = 0.4, 0.2
    n = 45
    lenses = {
        (i, j): PayoffLens(
            LensFamily.EXP_VALUE,
            loss_aversion=1.02 * (62.0 / 1.02) ** (j / (n - 1)),
            steepness=0.05 * (23.4 / 0.05) ** (i / (n - 1)),
        )
        for i in range(n)
        for j in range(n)
    }
    calibrated = {ij for ij, lens in lenses.items() if rejects_short_offer(lens)}
    saturated = {
        ij for ij, lens in lenses.items() if full_share_distance(lens, gamma, tau) < 2.4
    }
    assert calibrated and saturated
    assert not calibrated & saturated
    assert rejects_short_offer(LENS)
    assert full_share_distance(LENS, gamma, tau) > 2.4

    spots = [(i, j) for i in range(0, n, 11) for j in range(0, n, 11)]
    for ij in spots:
        recipient = PlayerSpec(gamma, 0.0, FairnessKind.AGENT_TAU, tau, lenses[ij])
        allocator = PlayerSpec(gamma, 2.4, FairnessKind.AGENT_TAU, tau, lenses[ij])
        assert accepts_offer(compile_player(recipient, GRID), GRID, 0.15) is not (ij in calibrated)
        assert (argmax(compile_player(allocator, GRID), GRID)[0] == 1.0) is (ij in saturated)
    # the spot checks see both outcomes of each closed form
    assert {ij in calibrated for ij in spots} == {True, False}
    assert {ij in saturated for ij in spots} == {True, False}
    report(4, "no grid lens meets criterion 6 and gives full share by d=2.4")


def test_criterion_05_inequity_aversion_at_zero_distance():
    utility = compile_player(agent_tau(0.4, 0.0, 0.5), GRID)
    for s in GRID.splits():
        u = utility(s, 1.0 - s)
        assert u <= 0.0
        if abs(u) < 1e-9:
            assert s == 0.5
    report(5, "tau=0.5, d=0 utility is nonpositive, zero only at the equal split")


def test_criterion_06_low_tau_matrix_calibration():
    accepted = matrix_row(0.4, 0.2, 0.0)
    assert accepted == [s for s in SPLITS_05 if 0.2 - 1e-12 <= s <= 0.8 + 1e-12]
    # at larger distance the recipient starts accepting deals that leave
    # the allocator under 0.2 (offered share above 0.8)
    assert any(
        any(s > 0.8 + 1e-12 for s in matrix_row(0.4, 0.2, d)) for d in D_SWEEP[1:]
    )
    report(6, "tau=0.2, d=0 row accepts exactly [0.2, 0.8]; greed flips at distance")


def test_criterion_07_moderate_tau_matrix():
    assert matrix_row(0.4, 0.5, 0.0) == [0.5]
    far = matrix_row(0.4, 0.5, 2.4)
    assert far == [s for s in SPLITS_05 if s >= 0.5 - 1e-12]
    report(7, "tau=0.5 row accepts only 0.5 at d=0 and all >= 0.5 at large d")


def test_criterion_08_high_tau_matrix():
    assert matrix_row(0.4, 0.7, 0.0) == []
    far = matrix_row(0.4, 0.7, 2.4)
    assert far == [s for s in SPLITS_05 if s > 0.7 + 1e-12]
    report(8, "tau=0.7 accepts nothing at d=0 and exactly the splits > 0.7 at large d")


def test_criterion_09_association_tau_curves():
    gammas = [0.2, 0.4, 0.5, 0.6, 0.8]
    curves = rows(tau_curves(gammas, D_SWEEP))
    by_gamma = {g: [r["tau"] for r in curves if r["gamma"] == g] for g in gammas}
    for g in gammas:
        curve = by_gamma[g]
        assert curve[0] == 0.0
        assert all(a < b for a, b in zip(curve, curve[1:]))
    for lo, hi in zip(gammas, gammas[1:]):
        assert all(a >= b for a, b in zip(by_gamma[lo], by_gamma[hi]))
    assert abs(dict(zip(D_SWEEP, by_gamma[0.5]))[1.0] - 0.5) <= 1e-12
    spot = [r["tau"] for r in rows(tau_curves([0.8], [2.0]))]
    assert abs(spot[0] - 0.36) <= 1e-12
    report(9, "association threshold curves: zero at d=0, monotone, ordered by gamma")


def test_criterion_10_association_matrices():
    thresholds = {}
    for gamma in (0.2, 0.5, 0.8):
        matrix = rows(acceptance_matrix(association(gamma, 0.0), GRID, D_SWEEP, SPLITS_05))
        by_d = {}
        for cell in matrix:
            by_d.setdefault(cell["d"], []).append((cell["split"], cell["accepted"]))
        assert all(a for _, a in by_d[0.0])
        sub_half = [
            d for d, cells in by_d.items() if any(a and s < 0.5 - 1e-12 for s, a in cells)
        ]
        thresholds[gamma] = max(sub_half)
    assert thresholds[0.2] < thresholds[0.5] < thresholds[0.8]
    report(10, "sub-0.5 offers survive to strictly larger distances as gamma grows")


def test_criterion_11_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(12345)
    cfg = GameConfig()
    for _ in range(200):
        gamma = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 2.4)
        kind = rng.choice(["baseline", "agent_tau", "association"])
        tau = rng.uniform(0.0, 1.0)
        lam = rng.uniform(1.2, 4.0)
        k = rng.uniform(2.0, 20.0)
        lens = PayoffLens(LensFamily.EXP_VALUE, loss_aversion=lam, steepness=k)
        if kind == "baseline":
            oracle_u = lambda s: oracle_baseline_utility(gamma, d, s)
        else:
            if kind == "agent_tau":
                t = tau
            else:
                t = 1.0 - (1.0 if d == 0 else gamma ** d)
            oracle_u = lambda s, t=t: oracle_fair_utility(gamma, d, t, k, lam, s)
        player = PlayerSpec(gamma, d, FairnessKind(kind), tau, lens)
        fine_best, fine_min = brute_force_scan(oracle_u, cells=cfg.grid_cells * 10)
        assert abs(argmax(compile_player(player, cfg), cfg)[0] - fine_best) <= cfg.grid_step + 1e-12
        found = scan(compile_player(player, cfg), cfg).min_acceptable
        if fine_min is None:
            assert found is None
        else:
            assert found is not None
            assert abs(found - fine_min) <= cfg.grid_step + 1e-12
    assert time.perf_counter() - start < 30.0
    report(11, "200 sampled configs agree with the 10x-finer brute-force scan")


def test_criterion_12_linear_reduction_identity():
    linear = PayoffLens(LensFamily.LINEAR)
    count = 0
    for gi in range(10):
        gamma = gi / 9
        for di in range(10):
            d = 2.4 * di / 9
            fair = compile_player(PlayerSpec(gamma, d, FairnessKind.AGENT_TAU, 0.0, linear), GRID)
            plain = compile_player(PlayerSpec(gamma, d, FairnessKind.BASELINE, 0.0, linear), GRID)
            for si in range(101):
                s = si / 100
                delta = fair(s, 1.0 - s) - plain(s, 1.0 - s)
                assert abs(delta) <= 1e-12
                count += 1
    assert count >= 10_000
    report(12, "linear lens with tau=0 reproduces the baseline utility exactly")


@pytest.mark.parametrize(
    "argv",
    [
        ["play"],
        ["utility-curves", "--allocator-mode", "agent_tau", "--allocator-tau", "0.5"],
        ["acceptance-matrix", "--recipient-mode", "agent_tau", "--recipient-tau", "0.2",
         "--recipient-gamma", "0.4"],
        ["tau-curves"],
        ["game-grid"],
    ],
    ids=["play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid"],
)
def test_criterion_13_determinism_across_thread_counts(argv, tmp_path):
    outputs = []
    for attempt in "abcd":
        path = tmp_path / f"{attempt}.out"
        assert run(argv + ["--output", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert len(set(outputs)) == 1
    report(13, f"{argv[0]} output is byte-identical across repeated runs")
