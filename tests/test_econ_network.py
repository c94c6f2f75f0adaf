"""Two-sided network competition: join probabilities, growth simulation,
ratio dynamics, elasticity recovery, and the overtaking condition."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import oracles
from claims import (
    estimate_elasticities,
    integrate_ratio_ode,
    join_probabilities,
    sample_static_joins,
    state_ratios,
)
from zkpoi.econ._pcg64 import PCG64
from zkpoi.econ.network import (
    _BLOCK_STEPS,
    NetworkState,
    overtake_analysis,
    share_of,
    simulate_network_growth,
)
from zkpoi.errors import DomainError


def make_state(**overrides) -> NetworkState:
    base = dict(m_a=2.0, m_b=1.0, c_a=1.0, c_b=1.0, lam=0.5, alpha=1.0, beta=1.0)
    base.update(overrides)
    return NetworkState(**base)


class TestStateValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_state(m_a=-1.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.5])
    def test_arrival_rate_bounds(self, lam):
        with pytest.raises(ValueError):
            make_state(lam=lam)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_elasticities_must_be_positive(self, field):
        with pytest.raises(ValueError):
            make_state(**{field: 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["m_a", "m_b", "c_a", "c_b", "alpha", "beta"])
    def test_non_finite_inputs_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_state(**{field: value})

    def test_unknown_expectation_mode(self):
        with pytest.raises(ValueError):
            make_state(expectation_mode="oracle")


class TestJoinProbabilities:
    def test_power_weighting(self):
        state = make_state(m_a=4.0, m_b=1.0, alpha=0.5, c_a=9.0, c_b=1.0, beta=2.0)
        merch, cust = join_probabilities(state)
        assert cust[0] == pytest.approx(2.0 / 3.0)  # 4^.5 / (4^.5 + 1)
        assert merch[0] == pytest.approx(81.0 / 82.0)  # 9^2 / (9^2 + 1)
        assert cust[0] + cust[1] == pytest.approx(1.0)
        assert merch[0] + merch[1] == pytest.approx(1.0)

    def test_symmetric_counts_split_evenly(self):
        state = make_state(m_a=3.0, m_b=3.0, c_a=7.0, c_b=7.0, alpha=1.7, beta=0.4)
        merch, cust = join_probabilities(state)
        assert merch == (0.5, 0.5)
        assert cust == (0.5, 0.5)

    def test_empty_customer_side_is_an_error(self):
        with pytest.raises(DomainError, match="^both networks have zero customers;"):
            join_probabilities(make_state(c_a=0.0, c_b=0.0))

    def test_empty_merchant_side_is_an_error(self):
        with pytest.raises(DomainError, match="^both networks have zero merchants;"):
            join_probabilities(make_state(m_a=0.0, m_b=0.0))

    def test_overflowing_weight_is_a_domain_error(self):
        with pytest.raises(DomainError):
            join_probabilities(make_state(m_a=1e308, alpha=1.5))
        with pytest.raises(DomainError):
            simulate_network_growth(make_state(c_a=1e308, beta=1.5), 50, seed=0)

    def test_weights_whose_sum_overflows_keep_their_split(self):
        merch, cust = join_probabilities(make_state(m_a=1e308, m_b=1e308, alpha=1.0))
        assert cust == (0.5, 0.5)
        assert merch == (0.5, 0.5)
        assert share_of(1.5e308, 0.5e308) == 0.75
        assert share_of(2.0, 1.0) == 2.0 / 3.0

    def test_underflowing_weights_are_a_domain_error(self):
        with pytest.raises(DomainError):
            join_probabilities(make_state(m_a=1e-200, m_b=2e-200, alpha=2.0))
        with pytest.raises(DomainError):
            join_probabilities(make_state(m_a=0.5, m_b=0.5, c_a=0.5, c_b=0.5,
                                          alpha=1e308, beta=1e308))

    def test_expected_mode_advances_counts_one_step(self):
        state = make_state(expectation_mode="expected")
        merch, cust = join_probabilities(state)
        # current-count split: merchants 0.5/0.5, customers 2/3 : 1/3;
        # anticipated counts: customers (4/3, 7/6), merchants (2.25, 1.25)
        assert merch[0] == pytest.approx((4 / 3) / (4 / 3 + 7 / 6))
        assert cust[0] == pytest.approx(2.25 / 3.5)

    def test_expected_mode_amplifies_an_aligned_leader(self):
        # A leads on both sides, so anticipated arrivals favor A further
        leader = dict(m_a=2.0, m_b=1.0, c_a=3.0, c_b=1.0)
        current = join_probabilities(make_state(**leader))[1][0]
        expected = join_probabilities(
            make_state(expectation_mode="expected", **leader))[1][0]
        assert expected > current > 0.5


class TestGrowthSimulation:
    def test_path_shape_and_conservation(self):
        path = simulate_network_growth(make_state(), steps=50, seed=9)
        assert len(path) == 51
        assert all(len(row) == 4 for row in path)
        assert path[0] == (2.0, 1.0, 1.0, 1.0)
        assert [sum(row) for row in path] == list(range(5, 56))
        steps = [[b - a for a, b in zip(path[t - 1], path[t])] for t in range(1, len(path))]
        assert all(d >= 0 for step in steps for d in step)
        assert all(sum(step) == 1 for step in steps)

    def test_deterministic_per_seed(self):
        a = simulate_network_growth(make_state(), steps=100, seed=42)
        b = simulate_network_growth(make_state(), steps=100, seed=42)
        c = simulate_network_growth(make_state(), steps=100, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_steps_returns_initial_row(self):
        path = simulate_network_growth(make_state(), steps=0, seed=1)
        assert len(path) == 1
        assert path[0] == path[-1] == (2.0, 1.0, 1.0, 1.0)
        with pytest.raises(IndexError):
            path[1]

    @pytest.mark.parametrize("mode", ["current", "expected"])
    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    def test_matches_the_numpy_reference_loop(self, mode, seed):
        state = make_state(m_a=3.0, m_b=2.0, c_a=1.0, c_b=4.0, alpha=1.3, beta=0.8,
                           lam=0.4, expectation_mode=mode)
        reference = oracles.growth_path(3.0, 2.0, 1.0, 4.0, 0.4, 1.3, 0.8,
                                        mode == "expected", 2000, seed)
        path = simulate_network_growth(state, steps=2000, seed=seed)
        assert np.array_equal(np.array(list(path)), reference)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            simulate_network_growth(make_state(), steps=-1, seed=1)

    @pytest.mark.parametrize("mode", ["current", "expected"])
    @pytest.mark.parametrize("steps,stride", [(100, 1), (100, 25), (100, 7), (10, 11),
                                              (0, 3)])
    def test_stride_keeps_the_rows_of_every_stride_th_step(self, mode, steps, stride):
        state = make_state(m_a=3.0, m_b=2.0, c_a=1.0, c_b=4.0, alpha=1.3, beta=0.8,
                           expectation_mode=mode)
        every = simulate_network_growth(state, steps, seed=11)
        kept = simulate_network_growth(state, steps, seed=11, stride=stride)
        assert len(kept) == steps // stride + 1
        assert list(kept) == [every[t] for t in range(0, steps + 1, stride)]

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            simulate_network_growth(make_state(), steps=10, seed=1, stride=stride)

    @pytest.mark.parametrize("mode", ["current", "expected"])
    def test_fractional_start_counts_match_the_numpy_reference_loop(self, mode):
        state = make_state(m_a=0.1, m_b=0.7, c_a=3.3, c_b=0.7, alpha=1.3, beta=0.8,
                           lam=0.6, expectation_mode=mode)
        reference = oracles.growth_path(0.1, 0.7, 3.3, 0.7, 0.6, 1.3, 0.8,
                                        mode == "expected", 2000, 3)
        path = simulate_network_growth(state, steps=2000, seed=3)
        assert np.array_equal(np.array(list(path)), reference)

    # Draws come from the stream in blocks of _BLOCK_STEPS steps; rows and
    # weights must carry across the block edges.
    @pytest.mark.parametrize("mode", ["current", "expected"])
    @pytest.mark.parametrize("steps", [_BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1,
                                       2 * _BLOCK_STEPS + 1])
    def test_paths_across_draw_block_edges_match_the_numpy_reference_loop(self, mode,
                                                                           steps):
        state = make_state(m_a=3.0, m_b=2.0, c_a=1.0, c_b=4.0, alpha=1.3, beta=0.8,
                           lam=0.4, expectation_mode=mode)
        reference = oracles.growth_path(3.0, 2.0, 1.0, 4.0, 0.4, 1.3, 0.8,
                                        mode == "expected", steps, 17)
        for stride in (1, 7, _BLOCK_STEPS, steps + 1):
            path = simulate_network_growth(state, steps, seed=17, stride=stride)
            assert np.array_equal(np.array(list(path)), reference[::stride])

    @pytest.mark.parametrize("seed", range(6))
    def test_a_weight_overflowing_after_the_last_step_is_never_computed(self, seed):
        """2 ** 1000 is a double and 3 ** 1000 is not: whichever A count the
        first arrival raises to 3 overflows its weight on the next step, not
        after the last one."""
        state = make_state(m_a=2.0, m_b=1.0, c_a=2.0, c_b=1.0, alpha=1000.0, beta=1000.0)
        path = simulate_network_growth(state, steps=1, seed=seed)
        assert len(path) == 2
        m_a, _, c_a, _ = path[1]
        assert (m_a, c_a) in ((3.0, 2.0), (2.0, 3.0))
        side = "merchants" if m_a == 3.0 else "customers"
        with pytest.raises(DomainError, match=f"^{side} count to the power 1000.0 overflows$"):
            simulate_network_growth(state, steps=2, seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_b_count_weight_overflowing_mid_path_names_its_side(self, seed):
        # B leads both sides by 2 ** 1000 to 1, so the first arrival raises a
        # B count to 3, whose weight overflows on the next step
        state = make_state(m_a=1.0, m_b=2.0, c_a=1.0, c_b=2.0, alpha=1000.0, beta=1000.0)
        _, m_b, _, c_b = simulate_network_growth(state, steps=1, seed=seed)[1]
        side = "merchants" if m_b == 3.0 else "customers"
        with pytest.raises(DomainError, match=f"^{side} count to the power 1000.0 overflows$"):
            simulate_network_growth(state, steps=2, seed=seed)

    def test_rows_equal_join_probabilities_recomputed_every_step(self):
        # customer weights near 1e308 sum past the largest double on every
        # step, so the merchant split comes from share_of's rescaling
        state = make_state(m_a=1.0, m_b=1.0, c_a=10_001.0, c_b=10_000.0, alpha=1.0,
                           beta=77.0)
        draws = PCG64(4).randoms(2 * 40)
        rows = [(1.0, 1.0, 10_001.0, 10_000.0)]
        for u, v in zip(draws[::2], draws[1::2]):
            m_a, m_b, c_a, c_b = rows[-1]
            merch, cust = join_probabilities(
                dataclasses.replace(state, m_a=m_a, m_b=m_b, c_a=c_a, c_b=c_b))
            if u < state.lam:
                c_a, c_b = (c_a + 1, c_b) if v < cust[0] else (c_a, c_b + 1)
            else:
                m_a, m_b = (m_a + 1, m_b) if v < merch[0] else (m_a, m_b + 1)
            rows.append((m_a, m_b, c_a, c_b))
        assert list(simulate_network_growth(state, 40, seed=4)) == rows
        assert rows[-1][0] > 1.0  # merchants joined A at a split near one half

    def test_strong_feedback_locks_in_the_leader(self):
        state = make_state(m_a=6.0, m_b=2.0, c_a=6.0, c_b=2.0, alpha=2.0, beta=2.0)
        path = simulate_network_growth(state, steps=4000, seed=5)
        m_a, m_b, c_a, c_b = path[-1]
        assert (m_a + c_a) / (m_a + m_b + c_a + c_b) > 0.95

    def test_weak_feedback_equalizes(self):
        state = make_state(m_a=6.0, m_b=2.0, c_a=6.0, c_b=2.0, alpha=0.5, beta=0.5)
        path = simulate_network_growth(state, steps=4000, seed=5)
        m_a, m_b, c_a, c_b = path[-1]
        assert abs((m_a + c_a) / (m_a + m_b + c_a + c_b) - 0.5) < 0.1


class TestRatioDynamics:
    def test_state_ratios(self):
        assert state_ratios(make_state(m_a=6.0, m_b=2.0, c_a=1.0, c_b=4.0)) == (3.0, 0.25)

    @pytest.mark.parametrize("overrides", [{"m_b": 0.0}, {"c_b": 0.0}])
    def test_zero_denominator_is_degenerate(self, overrides):
        with pytest.raises(DomainError, match="need positive B-side counts"):
            state_ratios(make_state(**overrides))

    def test_matches_exact_linear_solution(self):
        # with unit elasticities and lam = 1/2 the gap x - z decays as e^-t
        # while x + z stays constant, so from (2, 1): x(t) = 1.5 + 0.5 e^-t
        state = make_state(m_a=2.0, m_b=1.0, c_a=1.0, c_b=1.0)
        x, z = integrate_ratio_ode(state, t_end=1.0, dt=1e-3)
        assert x == pytest.approx(1.5 + 0.5 * math.exp(-1.0), abs=1e-9)
        assert z == pytest.approx(1.5 - 0.5 * math.exp(-1.0), abs=1e-9)

    def test_final_step_lands_exactly_on_t_end(self):
        state = make_state()
        coarse = integrate_ratio_ode(state, t_end=1.0, dt=0.4)  # 0.4 + 0.4 + 0.2
        fine = integrate_ratio_ode(state, t_end=1.0, dt=1e-4)
        assert coarse[0] == pytest.approx(fine[0], abs=1e-4)

    def test_weak_feedback_converges_to_parity(self):
        state = make_state(m_a=5.0, m_b=1.0, c_a=4.0, c_b=1.0, alpha=0.5, beta=0.5)
        x, z = integrate_ratio_ode(state, t_end=200.0, dt=1e-2)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert z == pytest.approx(1.0, abs=1e-6)

    def test_zero_horizon_returns_initial_ratios(self):
        state = make_state()
        assert integrate_ratio_ode(state, t_end=0.0) == state_ratios(state)

    def test_integration_composes_over_aligned_steps(self):
        state = make_state(m_a=2.0, m_b=1.0, c_a=1.0, c_b=3.0, alpha=1.3, beta=0.8)
        x, z = integrate_ratio_ode(state, t_end=0.5, dt=0.1)
        halfway = make_state(m_a=x, m_b=1.0, c_a=z, c_b=1.0, alpha=1.3, beta=0.8)
        once = integrate_ratio_ode(state, t_end=1.0, dt=0.1)
        twice = integrate_ratio_ode(halfway, t_end=0.5, dt=0.1)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_bad_integration_arguments(self):
        with pytest.raises(ValueError):
            integrate_ratio_ode(make_state(), t_end=-1.0)
        with pytest.raises(ValueError):
            integrate_ratio_ode(make_state(), t_end=1.0, dt=0.0)


class TestElasticityEstimation:
    def test_static_join_tallies(self):
        state = make_state(m_a=10.0, m_b=5.0, c_a=8.0, c_b=4.0, lam=0.4)
        cust_a, cust_total, merch_a, merch_total = sample_static_joins(state, 10_000, seed=3)
        assert cust_total + merch_total == 10_000
        assert 0 <= cust_a <= cust_total
        assert 0 <= merch_a <= merch_total
        assert cust_total == pytest.approx(4_000, abs=200)
        assert sample_static_joins(state, 10_000, seed=3) == (
            cust_a, cust_total, merch_a, merch_total)

    @pytest.mark.parametrize("seed", [10, 2**63])
    def test_static_join_tallies_match_the_numpy_reference_loop(self, seed):
        state = make_state(m_a=100.0, m_b=50.0, c_a=80.0, c_b=40.0, alpha=1.3, beta=0.7)
        reference = oracles.sample_joins(np.random.default_rng(seed), 100.0, 50.0, 80.0, 40.0,
                                         1.3, 0.7, 0.5, 100_000)
        assert sample_static_joins(state, 100_000, seed) == reference

    def test_log_odds_inversion_is_exact(self):
        # with a count ratio of e the elasticity is exactly the join log-odds
        state = make_state(m_a=math.e, m_b=1.0, c_a=math.e, c_b=1.0)
        alpha_hat, beta_hat = estimate_elasticities((3, 4), (1, 4), state)
        assert alpha_hat == pytest.approx(math.log(3.0), abs=1e-12)
        assert beta_hat == pytest.approx(-math.log(3.0), abs=1e-12)

    def test_round_trip_recovery(self):
        true_alpha, true_beta = 1.3, 0.7
        state = make_state(m_a=100.0, m_b=50.0, c_a=80.0, c_b=40.0,
                           alpha=true_alpha, beta=true_beta)
        cust_a, cust_total, merch_a, merch_total = sample_static_joins(
            state, 200_000, seed=17)
        alpha_hat, beta_hat = estimate_elasticities(
            (cust_a, cust_total), (merch_a, merch_total), state)
        assert alpha_hat == pytest.approx(true_alpha, abs=0.05)
        assert beta_hat == pytest.approx(true_beta, abs=0.05)

    def test_equal_counts_are_unidentifiable(self):
        state = make_state(m_a=5.0, m_b=5.0, c_a=8.0, c_b=4.0)
        with pytest.raises(DomainError, match="positive and different"):
            estimate_elasticities((3, 4), (1, 4), state)

    def test_unanimous_joins_rejected(self):
        state = make_state(m_a=10.0, m_b=5.0, c_a=8.0, c_b=4.0)
        with pytest.raises(ValueError):
            estimate_elasticities((4, 4), (1, 4), state)

    def test_empty_side_rejected(self):
        state = make_state(m_a=10.0, m_b=5.0, c_a=8.0, c_b=4.0)
        with pytest.raises(ValueError):
            estimate_elasticities((0, 0), (1, 4), state)


class TestOvertaking:
    def test_worked_head_start(self):
        result = overtake_analysis(10.0, 0.5, e_c_new=25.0, e_c_old=0.0)
        assert result["steps_needed"] == 22.0
        assert result["condition_holds"]

    def test_insufficient_utility_gap(self):
        result = overtake_analysis(10.0, 0.5, e_c_new=20.0, e_c_old=0.0)
        assert not result["condition_holds"]

    def test_gap_is_relative(self):
        assert overtake_analysis(10.0, 0.5, e_c_new=30.0, e_c_old=7.0)["condition_holds"]
        assert not overtake_analysis(10.0, 0.5, e_c_new=30.0, e_c_old=9.0)["condition_holds"]

    def test_merchant_heavy_traffic_lowers_the_bar(self):
        # merchants arrive with probability 1 - lam, so low lam closes
        # a merchant head start in fewer steps
        fast = overtake_analysis(10.0, 0.2, 0.0, 0.0)["steps_needed"]
        slow = overtake_analysis(10.0, 0.8, 0.0, 0.0)["steps_needed"]
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            overtake_analysis(10.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            overtake_analysis(-1.0, 0.5, 0.0, 0.0)
