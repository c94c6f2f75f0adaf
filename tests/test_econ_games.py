"""Finite games: payoff tensors, iterated strict dominance, evolutionary
stability, and the reward-regime entry game. The tensor, pure-Nash and
generic dominance tests exercise the reference procedures in `claims`, which
the library's two-payoff verdict is checked against."""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from claims import PayoffMatrix, is_pure_nash, iterated_strict_dominance, regime_tensor
from zkpoi.econ.games import (
    PLFC,
    UDCE,
    RegimeGame,
    _power_sum,
    calibrate_power_law,
    idsds,
    is_ess,
    udce_vs_plfc_game,
)


def two_player(u1_rows, u2_rows, row_names, col_names):
    """Assemble a bimatrix game into the tensor layout."""
    u = np.zeros((len(row_names), len(col_names), 2))
    u[:, :, 0] = u1_rows
    u[:, :, 1] = u2_rows
    return PayoffMatrix(strategies=(tuple(row_names), tuple(col_names)), u=u)


PRISONERS = two_player(
    u1_rows=[[3, 0], [5, 1]],
    u2_rows=[[3, 5], [0, 1]],
    row_names=("cooperate", "defect"),
    col_names=("cooperate", "defect"))


# ---------------------------------------------------------------------------
# Tensor container and the pure-Nash predicate
# ---------------------------------------------------------------------------


class TestPayoffMatrix:
    def test_payoff_lookup(self):
        assert PRISONERS.payoff(0, (1, 0)) == 5.0
        assert PRISONERS.payoff(1, (1, 0)) == 0.0
        assert PRISONERS.num_players == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PayoffMatrix(strategies=(("a", "b"),), u=np.zeros((2, 2)))

    def test_nonfinite_payoffs_rejected(self):
        u = np.zeros((2, 2, 2))
        u[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            PayoffMatrix(strategies=(("a", "b"), ("x", "y")), u=u)

    def test_nested_lists_are_accepted_and_ragged_ones_rejected(self):
        game = PayoffMatrix(strategies=(("a",), ("x", "y")), u=[[[1, 2], [3, 4]]])
        assert game.u == (((1.0, 2.0), (3.0, 4.0)),)
        assert game.payoff(1, (0, 1)) == 4.0
        with pytest.raises(ValueError):
            PayoffMatrix(strategies=(("a",), ("x", "y")), u=[[[1, 2], [3]]])
        with pytest.raises(ValueError):
            PayoffMatrix(strategies=(("a",), ("x", "y")), u=[[[1, 2], 3]])

    def test_tensor_is_write_locked(self):
        with pytest.raises(TypeError):
            PRISONERS.u[0][0][0] = 99.0

    def test_mutual_defection_is_nash(self):
        assert is_pure_nash(PRISONERS, (1, 1))
        assert not is_pure_nash(PRISONERS, (0, 0))
        assert not is_pure_nash(PRISONERS, (0, 1))


# ---------------------------------------------------------------------------
# Iterated deletion of strictly dominated strategies
# ---------------------------------------------------------------------------


class TestIdsds:
    def test_dilemma_solves_to_defection(self):
        result = iterated_strict_dominance(PRISONERS)
        assert result.unique_survivor == ("defect", "defect")
        assert result.is_dominant_equilibrium
        assert result.nash_verified
        assert len(result.trace) == 2
        assert {e.removed for e in result.trace} == {"cooperate"}

    def test_elimination_cascades_across_rounds(self):
        # C falls first; with C gone Y falls; with Y gone A falls.
        game = two_player(
            u1_rows=[[1, 3], [2, 2], [0, 1]],
            u2_rows=[[2, 1], [2, 1], [0, 5]],
            row_names=("A", "B", "C"),
            col_names=("X", "Y"))
        result = iterated_strict_dominance(game)
        assert result.unique_survivor == ("B", "X")
        assert result.nash_verified
        removals = [(e.round, e.player, e.removed) for e in result.trace]
        assert removals == [(1, 0, "C"), (1, 1, "Y"), (2, 0, "A")]
        assert result.trace[1].dominated_by == "X"
        assert result.trace[2].dominated_by == "B"

    def test_matching_pennies_eliminates_nothing(self):
        game = two_player(
            u1_rows=[[1, -1], [-1, 1]],
            u2_rows=[[-1, 1], [1, -1]],
            row_names=("heads", "tails"),
            col_names=("heads", "tails"))
        result = iterated_strict_dominance(game)
        assert result.trace == ()
        assert result.unique_survivor is None
        assert not result.is_dominant_equilibrium
        assert not result.nash_verified
        assert len(result.survivors) == 4

    def test_three_player_game(self):
        # everyone's second strategy adds 1 regardless of the others
        u = np.zeros((2, 2, 2, 3))
        for profile in itertools.product((0, 1), repeat=3):
            for i in range(3):
                u[profile + (i,)] = float(profile[i])
        game = PayoffMatrix(strategies=(("lo", "hi"),) * 3, u=u)
        result = iterated_strict_dominance(game)
        assert result.unique_survivor == ("hi", "hi", "hi")
        assert result.nash_verified


# ---------------------------------------------------------------------------
# Evolutionary stability
# ---------------------------------------------------------------------------


class TestEss:
    def test_strict_nash_is_ess(self):
        u = {("D", "D"): 1, ("D", "C"): 5, ("C", "D"): 0, ("C", "C"): 3}
        assert is_ess(u, ("C", "D"), "D")
        assert not is_ess(u, ("C", "D"), "C")

    def test_tie_broken_against_the_mutant(self):
        u = {("A", "A"): 1, ("B", "A"): 1, ("A", "B"): 1, ("B", "B"): 0}
        assert is_ess(u, ("A", "B"), "A")

    def test_neutral_drift_is_not_ess(self):
        u = {("A", "A"): 1, ("B", "A"): 1, ("A", "B"): 0, ("B", "B"): 0}
        assert not is_ess(u, ("A", "B"), "A")

    def test_small_invasion_barrier_still_counts(self):
        """The mutant wins mutant-heavy mixes, so stability holds only below
        a barrier (1/11); any positive barrier makes A an ESS."""
        u = {("A", "A"): 3, ("B", "A"): 2, ("A", "B"): 0, ("B", "B"): 10}
        assert is_ess(u, ("A", "B"), "A")

    def test_two_strict_nash_strategies_are_both_stable(self):
        pay = {("A", "A"): 3, ("A", "B"): 0, ("B", "A"): 2, ("B", "B"): 1}
        assert is_ess(pay, ("A", "B"), "A")
        assert is_ess(pay, ("A", "B"), "B")

    def test_unknown_candidate_rejected(self):
        with pytest.raises(ValueError):
            is_ess({("A", "A"): 1}, ("A",), "Z")

    def test_three_strategy_rock_paper_scissors_has_no_pure_ess(self):
        labels = ("rock", "paper", "scissors")
        beats = {("rock", "scissors"), ("paper", "rock"), ("scissors", "paper")}
        pay = {(a, b): 1.0 if (a, b) in beats else (-1.0 if (b, a) in beats else 0.0)
               for a in labels for b in labels}
        assert not any(is_ess(pay, labels, s) for s in labels)


PAIRS = (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_PAYOFFS = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                0.5, 1.0, 1e300, -1e300, 1.7976931348623157e308))


@st.composite
def edge_payoffs(draw):
    """(u_aa, u_ab, u_ba, u_bb): each one free, an edge value, or within one
    ulp of a shared anchor, so that ties and one-ulp gaps are common."""
    anchor = draw(FINITE | EDGE_PAYOFFS)
    near = st.sampled_from([anchor, math.nextafter(anchor, math.inf),
                            math.nextafter(anchor, -math.inf)]).filter(math.isfinite)
    return draw(st.tuples(*[FINITE | EDGE_PAYOFFS | near] * 4))


@settings(max_examples=1000, deadline=None)
@given(edge_payoffs(), st.sampled_from("AB"))
def test_ess_matches_the_exact_invasion_oracle(payoffs, candidate):
    u = dict(zip(PAIRS, payoffs))
    assert is_ess(u, ("A", "B"), candidate) == oracles.ess_by_invasion(u, "AB", candidate)


@settings(max_examples=500, deadline=None)
@given(edge_payoffs(), st.sampled_from("AB"), st.data())
def test_ess_verdict_is_scale_free(payoffs, candidate, data):
    """Scaling every payoff by 2**k, for any k that keeps every nonzero
    payoff normal, changes no verdict."""
    exponents = [math.frexp(x)[1] for x in payoffs if x]
    assume(all(-1021 <= e <= 1024 for e in exponents))  # the normal range
    k = data.draw(st.integers(-1021 - min(exponents, default=0),
                              1024 - max(exponents, default=0)))
    scaled = [math.ldexp(x, k) for x in payoffs]
    assert is_ess(dict(zip(PAIRS, scaled)), ("A", "B"), candidate) == is_ess(
        dict(zip(PAIRS, payoffs)), ("A", "B"), candidate)


def is_normal_or_zero(x: float) -> bool:
    return x == 0 or sys.float_info.min <= abs(x) < math.inf


@st.composite
def edge_games(draw, values=FINITE | EDGE_PAYOFFS):
    """A game of two or three players with two or three strategies each,
    whose payoffs are drawn from `values` or lie within one ulp of a shared
    anchor: (strategy counts, flat payoffs in tensor order)."""
    shape = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    anchor = draw(values)
    near = st.sampled_from([anchor, math.nextafter(anchor, math.inf),
                            math.nextafter(anchor, -math.inf)]).filter(math.isfinite)
    size = math.prod(shape) * len(shape)
    return shape, draw(st.lists(values | near, min_size=size, max_size=size))


def game_of(shape, payoffs) -> PayoffMatrix:
    strategies = [[f"s{j}" for j in range(count)] for count in shape]
    return PayoffMatrix(strategies, np.reshape(payoffs, shape + (len(shape),)))


def pure_nash_set(matrix: PayoffMatrix) -> list[tuple[int, ...]]:
    return [profile for profile in itertools.product(*map(range, (len(s) for s in
                                                                  matrix.strategies)))
            if is_pure_nash(matrix, profile)]


@settings(max_examples=300, deadline=None)
@given(edge_games())
def test_pure_nash_matches_the_exhaustive_oracle(game):
    matrix = game_of(*game)
    assert pure_nash_set(matrix) == oracles.pure_nash_profiles(np.asarray(matrix.u))


@settings(max_examples=300, deadline=None)
@given(edge_games(values=(FINITE | EDGE_PAYOFFS).filter(is_normal_or_zero)), st.data())
def test_pure_nash_verdict_is_scale_free(game, data):
    """Scaling every payoff by 2**k, for any k that keeps every nonzero
    payoff normal, changes no verdict."""
    shape, payoffs = game
    assume(all(map(is_normal_or_zero, payoffs)))  # a near value may be subnormal
    exponents = [math.frexp(x)[1] for x in payoffs if x]
    k = data.draw(st.integers(-1021 - min(exponents, default=0),
                              1024 - max(exponents, default=0)))
    scaled = [math.ldexp(x, k) for x in payoffs]
    assert pure_nash_set(game_of(shape, scaled)) == pure_nash_set(game_of(shape, payoffs))


# ---------------------------------------------------------------------------
# Power-law shares
# ---------------------------------------------------------------------------


class TestShares:
    def test_calibration_hits_the_target(self):
        s = calibrate_power_law(10_000, 16, 0.9)
        assert oracles.zipf_shares(10_000, s)[:16].sum() == pytest.approx(0.9, abs=1e-9)
        assert s == pytest.approx(oracles.calibrate_zipf_exponent(10_000, 16, 0.9),
                                  abs=1e-6)

    def test_calibrated_exponent_grows_with_the_top_share(self):
        exponents = [calibrate_power_law(10_000, 16, share) for share in (0.3, 0.6, 0.9)]
        assert exponents == sorted(exponents)
        assert len(set(exponents)) == 3

    def test_zipf_entrant_earns_the_last_rank_share(self):
        s = calibrate_power_law(10_000, 16, 0.9)
        game = udce_vs_plfc_game(2, 0.0, 1.0)
        assert game.plfc_pay == pytest.approx(oracles.zipf_shares(10_000, s)[-1], rel=1e-9)
        assert game.udce_pay == pytest.approx(1.0 / 10_000, rel=1e-12)

    # 128 | 129: the exact sum gives way to the Euler-Maclaurin tail
    @pytest.mark.parametrize("count", [1, 2, 64, 128, 129, 130, 1000, 65_537, 10**6])
    @pytest.mark.parametrize("s", [0.001, 0.01, 0.1, 0.37, 0.999999, 1.0, 1.000001, 1.5, 2.0,
                                   7.3, 16.0])
    def test_power_sum_is_within_a_few_ulps_of_the_exact_sum(self, count, s):
        want = oracles.power_sum(count, s)
        assert abs(_power_sum(count, s) - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("count", [10**6 + 1, 10**12, 2**53])
    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 7.3, 16.0])
    def test_power_sum_is_within_a_few_ulps_of_the_zeta_difference(self, count, s):
        want = oracles.power_sum(count, s)
        assert abs(_power_sum(count, s) - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("population", [1000, 20_000, 100_000])
    @pytest.mark.parametrize("top_count", [3, 16, 200])
    @pytest.mark.parametrize("top_share", [0.3, 0.6, 0.9])
    def test_calibration_matches_the_oracle(self, population, top_count, top_share):
        want = oracles.calibrate_power_exponent(population, top_count, top_share)
        got = calibrate_power_law(population, top_count, top_share)
        assert got == pytest.approx(want, abs=2e-12)

    @pytest.mark.parametrize("population", [10**9, 2**53])
    @pytest.mark.parametrize("top_count,top_share", [(3, 0.3), (16, 0.9), (200, 0.5),
                                                     (1000, 0.9)])
    def test_calibration_beyond_the_exact_range_matches_the_oracle(self, population,
                                                                  top_count, top_share):
        # every exponent on this grid exceeds 1.05, where the zeta oracle holds
        want = oracles.calibrate_power_exponent(population, top_count, top_share, lo=1.05)
        got = calibrate_power_law(population, top_count, top_share)
        assert got == pytest.approx(want, abs=2e-12)

    def test_calibration_cost_does_not_grow_with_the_population(self):
        # a sum over every rank could not finish at 2**53 ranks
        assert math.isfinite(calibrate_power_law(2**53, 16, 0.9))

    def test_calibration_bounds(self):
        with pytest.raises(ValueError):
            calibrate_power_law(100, 100, 0.9)
        with pytest.raises(ValueError):
            calibrate_power_law(100, 10, 1.0)


# ---------------------------------------------------------------------------
# The reward-regime entry game
# ---------------------------------------------------------------------------


class TestRewardRegimeGame:
    def test_payoffs_depend_only_on_own_choice(self):
        game = udce_vs_plfc_game(3, 1.5, 4.0)
        matrix = regime_tensor(game)
        for profile in itertools.product((0, 1), repeat=3):
            for i in range(3):
                lone = tuple(profile[i] if j == i else 0 for j in range(3))
                assert matrix.payoff(i, profile) == matrix.payoff(i, lone)
                assert matrix.payoff(i, profile) == (game.udce_pay, game.plfc_pay)[profile[i]]

    def test_concentrated_regime_is_dominated_under_calibrated_shares(self):
        game = udce_vs_plfc_game(4, 1.5, 4.0)
        assert game.udce_pay > game.plfc_pay
        result = idsds(game)
        assert result.unique_survivor == (UDCE,) * 4
        assert result.surviving == (UDCE,)
        assert result.eliminations == 4
        reference = iterated_strict_dominance(regime_tensor(game))
        assert reference.is_dominant_equilibrium
        assert reference.nash_verified
        assert all(e.removed == PLFC and e.round == 1 for e in reference.trace)

    def test_matches_exhaustive_nash_oracle(self):
        game = udce_vs_plfc_game(3, 1.5, 4.0)
        nash = oracles.pure_nash_profiles(np.asarray(regime_tensor(game).u))
        assert nash == [(0, 0, 0)]

    def test_winner_take_all_turns_on_costs_only(self):
        free = udce_vs_plfc_game(3, 0.0, 6.0, share_model="winner_take_all")
        assert idsds(free).unique_survivor is None  # exact tie, nothing dominated
        costly = udce_vs_plfc_game(3, 0.5, 6.0, share_model="winner_take_all")
        assert idsds(costly).unique_survivor == (UDCE,) * 3

    def test_uniform_share_model_ties_at_zero_cost(self):
        tied = idsds(udce_vs_plfc_game(3, 0.0, 6.0, share_model="uniform"))
        assert tied.eliminations == 0
        assert tied.surviving == (UDCE, PLFC)

    def test_udce_cost_can_flip_the_ranking(self):
        game = udce_vs_plfc_game(3, 0.0, 10_000.0, udce_cost=2.0)
        result = idsds(game)
        assert result.unique_survivor == (PLFC,) * 3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            udce_vs_plfc_game(1, 1.0, 4.0)
        with pytest.raises(ValueError):
            udce_vs_plfc_game(3, 1.0, 4.0, share_model="lognormal")
        # no tensor is built, so a million miners are answered like four
        result = idsds(udce_vs_plfc_game(10**6, 1.0, 4.0))
        assert result.eliminations == 10**6
        assert result.unique_survivor == (UDCE,) * 10**6

    @pytest.mark.parametrize("reward, pow_cost", [(math.inf, 1.5), (math.inf, math.inf),
                                                  (4.0, math.inf), (math.nan, 1.5)])
    def test_a_non_finite_payoff_is_refused(self, reward, pow_cost):
        with pytest.raises(ValueError, match="payoffs must be finite"):
            udce_vs_plfc_game(3, pow_cost, reward)


@st.composite
def regime_games(draw):
    """A regime game of 2 to 8 miners whose two payoffs are free, edge
    values, or one ulp apart or equal, so that ties are common."""
    udce_pay = draw(FINITE | EDGE_PAYOFFS)
    plfc_pay = draw(FINITE | EDGE_PAYOFFS | st.sampled_from(
        [udce_pay, math.nextafter(udce_pay, math.inf),
         math.nextafter(udce_pay, -math.inf)]).filter(math.isfinite))
    if draw(st.booleans()):
        udce_pay, plfc_pay = plfc_pay, udce_pay
    return RegimeGame(draw(st.integers(2, 8)), udce_pay, plfc_pay)


@settings(max_examples=300, deadline=None)
@given(regime_games())
def test_dominance_verdict_matches_the_generic_procedure(game):
    verdict = idsds(game)
    reference = iterated_strict_dominance(regime_tensor(game))
    assert reference.surviving == (verdict.surviving,) * game.miner_count
    assert len(reference.trace) == verdict.eliminations
    assert reference.unique_survivor == verdict.unique_survivor
    assert reference.is_dominant_equilibrium == reference.nash_verified == (
        verdict.unique_survivor is not None)
