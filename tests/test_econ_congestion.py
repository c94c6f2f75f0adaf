"""Mining as a congestion game: win probabilities, the exact potential,
certified equilibria, and the anarchy cost ratio."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from zkpoi.econ.congestion import (
    Allocation,
    CongestionInstance,
    miner_utility,
    all_nash_allocations,
    potential,
    price_of_crypto_anarchy,
    puzzle_win_prob,
    solve_congestion_nash,
)
from zkpoi.errors import DomainError


def instance(k=2, n=2, mu=1.0, gamma=0.0, deadline=1.0):
    return CongestionInstance(k=k, n_miners=n, mu=mu, gamma=gamma, deadline=deadline)


# ---------------------------------------------------------------------------
# Win probabilities
# ---------------------------------------------------------------------------


class TestWinProbability:
    def test_single_miner_spot(self):
        assert puzzle_win_prob(1, 1.0, 1.0) == pytest.approx(0.6321205588285577, abs=1e-15)

    def test_two_miner_spot(self):
        assert puzzle_win_prob(2, 1.0, 1.0) == pytest.approx(0.43233235838169365, abs=1e-15)

    @given(st.integers(1, 40), st.floats(0.0, 8.0), st.floats(0.0, 4.0))
    def test_matches_oracle(self, l, mu, deadline):
        assert puzzle_win_prob(l, mu, deadline) == pytest.approx(
            oracles.win_prob(l, mu, deadline), rel=1e-12, abs=1e-15)

    @given(st.integers(1, 30), st.floats(0.01, 5.0))
    def test_dilution_and_coverage(self, l, mu):
        """Each miner's chance falls with crowding, the puzzle's total
        solve chance rises (until it saturates at certainty)."""
        p_now = puzzle_win_prob(l, mu, 1.0)
        p_next = puzzle_win_prob(l + 1, mu, 1.0)
        assert p_next < p_now
        assert (l + 1) * p_next >= l * p_now
        if mu * (l + 1) < 20:  # away from coverage saturating at 1.0
            assert (l + 1) * p_next > l * p_now

    def test_zero_miners_raise(self):
        with pytest.raises(DomainError, match="needs at least one miner"):
            puzzle_win_prob(0, 1.0, 1.0)

    def test_zero_rate_means_zero_chance(self):
        assert puzzle_win_prob(3, 0.0, 1.0) == 0.0


class TestUtilityAndInstance:
    def test_utility_is_clipped_at_zero(self):
        inst = instance(k=1, n=1, gamma=5.0)
        assert miner_utility(inst, Allocation((1,)), 0) == 0.0

    def test_utility_on_empty_slot_raises(self):
        inst = instance()
        with pytest.raises(DomainError, match="defined for an occupied puzzle"):
            miner_utility(inst, Allocation((0, 2)), 0)

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match="miner count must be >= 0"):
            instance(n=-1)

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError, match="^mu must be >= 0$"):
            CongestionInstance(k=2, n_miners=3, mu=-1.0, gamma=0.0)
        with pytest.raises(ValueError, match="^gamma must be >= 0$"):
            CongestionInstance(k=2, n_miners=3, mu=1.0, gamma=-0.1)
        with pytest.raises(ValueError):
            CongestionInstance(k=0, n_miners=3, mu=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            CongestionInstance(k=1, n_miners=3, mu=1.0, gamma=0.0, deadline=0.0)
        with pytest.raises(TypeError):
            CongestionInstance(k=2, n_miners=3, mu=1.0, gamma=0.0, m=2)

    @pytest.mark.parametrize("field", ["mu", "gamma"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    def test_non_finite_grids_rejected(self, field, value):
        grids = {"mu": 1.0, "gamma": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            CongestionInstance(k=2, n_miners=3, **grids)

    # The rate and the cost are one number each: a per-puzzle sequence, a
    # nested list or a non-number is refused, not read entry by entry.
    @pytest.mark.parametrize("mu", [[[1.0, 2.0], [3.0]], [[1.0], 2.0], None, "ab",
                                    [[1.0, 2.0], [3.0, 4.0]], [1.0, math.inf]])
    def test_ragged_or_non_numeric_grids_rejected(self, mu):
        with pytest.raises(TypeError):
            CongestionInstance(k=2, n_miners=3, mu=mu, gamma=0.0)
        with pytest.raises(TypeError):
            CongestionInstance(k=2, n_miners=3, mu=1.0, gamma=mu)

    def test_allocation_shapes(self):
        alloc = Allocation((2, 0, 1))
        assert alloc.total == 3
        assert alloc.loads == (2, 0, 1)
        with pytest.raises(ValueError):
            Allocation((-1, 2))


# ---------------------------------------------------------------------------
# The potential function
# ---------------------------------------------------------------------------


class TestPotential:
    def test_balanced_spot(self):
        inst = instance()
        assert potential(inst, Allocation((1, 1))) == pytest.approx(
            oracles.PHI_1_1, abs=1e-15)

    def test_lopsided_spot(self):
        inst = instance()
        assert potential(inst, Allocation((2, 0))) == pytest.approx(
            oracles.PHI_2_0, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=4), st.floats(0.1, 3.0),
           st.floats(0.0, 0.5))
    def test_matches_oracle(self, loads, mu, gamma):
        k = len(loads)
        inst = CongestionInstance(k=k, n_miners=sum(loads), mu=mu, gamma=gamma)
        ours = potential(inst, Allocation(loads))
        theirs = oracles.potential_direct(loads, [mu] * k, [gamma] * k, 1.0)
        assert ours == pytest.approx(theirs, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=2, max_size=4), st.floats(0.1, 3.0))
    def test_exact_difference_property(self, loads, mu):
        """Moving one miner changes the potential by exactly that miner's
        utility change — the property that certifies the argmax."""
        k = len(loads)
        inst = CongestionInstance(k=k, n_miners=sum(loads) + 1, mu=mu, gamma=0.0)
        src = next((i for i, l in enumerate(loads) if l > 0), None)
        if src is None:
            return
        dst = (src + 1) % k
        before = list(loads)
        after = list(loads)
        after[src] -= 1
        after[dst] += 1
        phi_delta = (potential(inst, Allocation(after))
                     - potential(inst, Allocation(before)))
        util_delta = (puzzle_win_prob(after[dst], mu, 1.0)
                      - puzzle_win_prob(before[src], mu, 1.0))
        assert phi_delta == pytest.approx(util_delta, abs=1e-12)


# ---------------------------------------------------------------------------
# Equilibrium solving
# ---------------------------------------------------------------------------


class TestSolver:
    def test_worked_example_balances_miners(self):
        inst = instance(k=2, n=2, mu=1.0, gamma=0.01)
        solution = solve_congestion_nash(inst)
        assert solution.allocation.loads == (1, 1)
        assert solution.potential_value == pytest.approx(oracles.PHI_1_1 - 2 * 0.01,
                                                         abs=1e-12)
        assert solution.deviations_checked == 4

    def test_lopsided_allocation_rejected(self):
        inst = instance(k=2, n=2, mu=1.0, gamma=0.01)
        assert (2, 0) not in {a.loads for a in all_nash_allocations(inst)}
        assert not oracles.allocation_is_nash((2, 0), [1.0] * 2, [0.01] * 2, 1.0, 2)

    def test_empty_market(self):
        solution = solve_congestion_nash(instance(n=0))
        assert solution.allocation.total == 0
        assert solution.potential_value == 0.0

    # Instances with up to C(80, 16), about 2.7e16, allocations, each with
    # its closed-form count: with gamma 0 every load pays (m* = N), so loads are
    # balanced, C(K, N mod K); at (3, 100, 0.05) m* = 19 and N >= K * m*, so
    # every allocation with all loads >= 19 is Nash, C(100 - 57 + 3, 3).
    @pytest.mark.parametrize("k, n, gamma, count, loads", [
        (16, 64, 0.0, 1, (4,) * 16),
        (16, 56, 0.0, 12870, (3,) * 8 + (4,) * 8),
        (3, 100, 0.0, 3, (33, 33, 34)),
        (3, 100, 0.05, 15180, (19, 19, 19)),
    ])
    def test_large_instances_are_answered_in_closed_form(self, k, n, gamma, count, loads):
        inst = instance(k=k, n=n, gamma=gamma)
        assert price_of_crypto_anarchy(inst).nash_count == count
        solution = solve_congestion_nash(inst)
        assert sorted(solution.allocation.loads) == sorted(loads)
        assert oracles.allocation_is_nash(solution.allocation.loads, [1.0] * k,
                                          [gamma] * k, 1.0, n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 6), st.floats(0.0, 3.0), st.floats(0.0, 1.0),
           st.integers(-300, 0))
    @example(2, 3, 1.0, 0.5, -17)  # below T * mu of 1e-16
    def test_nash_count_is_the_size_of_the_exact_nash_set(self, k, n, mu, gamma, exponent):
        scale = 10.0 ** exponent
        inst = instance(k=k, n=n, mu=mu * scale, gamma=gamma * scale)
        theirs = oracles.congestion_equilibria(n, [mu * scale] * k, [gamma * scale] * k, 1.0)
        assert price_of_crypto_anarchy(inst).nash_count == len(theirs)
        assert [a.loads for a in all_nash_allocations(inst)] == theirs

    def test_cost_between_win_probabilities_seats_one_miner_per_puzzle(self):
        # win(1) = 0.632 > gamma = 0.5 > win(2) = 0.432: a lone miner profits,
        # a second one on the same puzzle earns the floor of 0.
        inst = instance(k=2, n=5, mu=1.0, gamma=0.5)
        nash = list(all_nash_allocations(inst))
        assert nash and all(min(a.loads) >= 1 for a in nash)
        assert solve_congestion_nash(inst).allocation.loads == (1, 1)

    def test_costly_mining_attracts_nobody(self):
        inst = instance(k=2, n=4, gamma=2.0)  # cost above any win probability
        solution = solve_congestion_nash(inst)
        assert solution.allocation.total == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.floats(0.2, 2.0), st.floats(0.0, 0.4), st.integers(0, 5))
    @example(3, 0.0, 0.1, 4)  # zero rate
    @example(2, 1.0, 1.0, 5)  # cost above every win probability
    @example(2, 1.0, 0.1, 3)  # exact potential ties
    def test_nash_sets_match_oracle(self, k, mu, gamma, n):
        """The Nash set matches the oracle's, and the solver returns its
        first member, whose exact potential is the highest of every
        allocation's."""
        inst = CongestionInstance(k=k, n_miners=n, mu=mu, gamma=gamma)
        theirs = oracles.congestion_equilibria(n, [mu] * k, [gamma] * k, 1.0)
        assert {a.loads for a in all_nash_allocations(inst)} == set(theirs)
        solution = solve_congestion_nash(inst)
        assert solution.allocation.loads == theirs[0]
        assert solution.potential_value == potential(inst, solution.allocation)
        assert oracles.exact_potential(solution.allocation.loads, mu, gamma, 1.0) == max(
            oracles.exact_potential(loads, mu, gamma, 1.0)
            for loads in oracles.enumerate_allocations(n, k))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 9), st.floats(0.0, 3.0), st.floats(0.0, 1.0))
    @example(2, 5, 1.0, 0.5)  # one miner per puzzle, three idle
    @example(3, 0, 1.0, 0.0)  # empty market
    def test_deviation_count_is_every_move_leave_and_join(self, k, n, mu, gamma):
        solution = solve_congestion_nash(instance(k=k, n=n, mu=mu, gamma=gamma))
        assert solution.deviations_checked == len(
            oracles.unilateral_deviations(solution.allocation.loads, n))

    # Utilities scale with mu * deadline, so a tolerance on their gains
    # would count every allocation as Nash at small enough rates. The oracle
    # judges the game in exact decimal, also below T * mu of about 1e-16,
    # where the float utilities stop depending on the load.
    @pytest.mark.parametrize("k, n, cost_ratio", [(2, 3, 0.5), (3, 4, 0.25)],
                             ids=["equal-puzzles", "three-puzzles"])
    def test_nash_sets_match_the_exact_oracle_at_every_rate_scale(self, k, n, cost_ratio):
        for exponent in range(-300, 4):
            scale = 10.0 ** exponent
            mu, gamma = 1.0 * scale, cost_ratio * scale
            inst = CongestionInstance(k=k, n_miners=n, mu=mu, gamma=gamma)
            theirs = oracles.congestion_equilibria(n, [mu] * k, [gamma] * k, 1.0)
            assert [a.loads for a in all_nash_allocations(inst)] == theirs, scale
            assert price_of_crypto_anarchy(inst).nash_count == len(theirs), scale
            assert solve_congestion_nash(inst).allocation.loads in theirs, scale

    def test_small_rates_leave_only_the_balanced_allocations(self):
        inst = instance(k=2, n=3, mu=1e-13, gamma=5e-14)
        assert [a.loads for a in all_nash_allocations(inst)] == [(1, 2), (2, 1)]
        assert price_of_crypto_anarchy(inst).nash_count == 2

    def test_solver_result_is_in_the_nash_set(self):
        inst = CongestionInstance(k=3, n_miners=5, mu=0.5, gamma=0.05)
        solution = solve_congestion_nash(inst)
        nash_loads = {a.loads for a in all_nash_allocations(inst)}
        assert solution.allocation.loads in nash_loads


# ---------------------------------------------------------------------------
# Price of crypto-anarchy
# ---------------------------------------------------------------------------


class TestAnarchyRatio:
    def worked_instance(self):
        return instance(k=2, n=2, mu=1.0, gamma=0.1)

    def test_worked_ratio(self):
        ratio = price_of_crypto_anarchy(self.worked_instance(), zkpoi_cost=0.01).ratio
        assert ratio == pytest.approx(20.0, abs=1e-9)

    def test_ratio_uses_worst_equilibrium(self):
        inst = self.worked_instance()
        nash = list(all_nash_allocations(inst))
        assert max(a.total for a in nash) == inst.n_miners
        price = price_of_crypto_anarchy(inst, zkpoi_cost=0.01)
        assert (price.nash_count, price.worst_nash_cost, price.ratio) == (
            len(nash), inst.gamma * inst.n_miners, inst.gamma * inst.n_miners / 0.01)

    def test_zero_baseline_rejected(self):
        with pytest.raises(DomainError, match="baseline cost must be > 0"):
            price_of_crypto_anarchy(self.worked_instance(), zkpoi_cost=0.0)

    @pytest.mark.parametrize("gamma, zkpoi_cost", [(0.1, 1e-320), (1e308, 0.01)],
                             ids=["tiny-baseline", "overflowed-cost"])
    def test_overflowed_ratio_raises(self, gamma, zkpoi_cost):
        with pytest.raises(DomainError, match="overflows"):
            price_of_crypto_anarchy(instance(k=2, n=2, mu=1.0, gamma=gamma), zkpoi_cost)

    def test_scales_inversely_with_baseline(self):
        inst = self.worked_instance()
        a = price_of_crypto_anarchy(inst, zkpoi_cost=0.01).ratio
        b = price_of_crypto_anarchy(inst, zkpoi_cost=0.02).ratio
        assert a == pytest.approx(2 * b, rel=1e-12)
