"""Stationary market output under partial token circulation, the premium
recursion, and fee balance."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from claims import fee_balance
from zkpoi.econ.circulation import (
    CirculationParams,
    gamma_dynamics,
    stationary_dm_output,
)
from zkpoi.errors import DomainError


def params(beta=0.9, eta=0.5, alpha=0.5, delta=1.0) -> CirculationParams:
    return CirculationParams(beta_disc=beta, eta=eta, alpha_eff=alpha, delta=delta)


class TestParamsValidation:
    @pytest.mark.parametrize("field,value", [
        ("beta", 0.0), ("beta", 1.0), ("beta", -0.1),
        ("eta", 0.0), ("eta", 1.0),
        ("alpha", -0.5),
        ("delta", 0.0), ("delta", 1.1),
    ])
    def test_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            params(**{field: value})

    def test_delta_one_is_allowed(self):
        assert params(delta=1.0).delta == 1.0


class TestStationaryOutput:
    def test_efficient_trade_is_unit(self):
        assert stationary_dm_output(params())["q_star"] == 1.0

    def test_full_circulation_spot(self):
        out = stationary_dm_output(params(beta=0.9, eta=0.5, alpha=0.5))
        assert out["q_hat_full"] == pytest.approx(0.9, abs=1e-12)
        assert out["q_hat_full"] == pytest.approx(oracles.Q_HAT_FULL_SPOT, abs=1e-12)

    def test_half_circulation_spot(self):
        out = stationary_dm_output(params(beta=0.9, eta=0.5, alpha=0.5, delta=0.5))
        assert out["q_hat_delta"] == pytest.approx(0.45 / 0.55, abs=1e-12)
        assert out["q_hat_delta"] == pytest.approx(oracles.Q_HAT_HALF_SPOT, abs=1e-12)
        assert out["pareto_dominates"]

    def test_full_circulation_does_not_dominate_itself(self):
        assert not stationary_dm_output(params(delta=1.0))["pareto_dominates"]

    def test_matches_root_finder_oracle(self):
        p = params(beta=0.8, eta=0.3, alpha=1.7, delta=0.4)
        out = stationary_dm_output(p)
        assert out["q_hat_full"] == pytest.approx(
            oracles.dm_output_full_root(0.8, 0.3, 1.7), abs=1e-9)
        assert out["q_hat_delta"] == pytest.approx(
            oracles.dm_output_delta_root(0.8, 0.3, 1.7, 0.4), abs=1e-9)

    def test_closed_form_exponent(self):
        out = stationary_dm_output(params(beta=0.7, eta=0.25, alpha=0.35))
        assert out["q_hat_full"] == pytest.approx(0.7 ** (1 / 0.6), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.05, 0.99), eta=st.floats(0.05, 0.95),
           alpha=st.floats(0.0, 3.0), delta=st.floats(0.05, 1.0))
    # delta one ulp below 1: the closed form rounds up to q_hat_full
    @example(beta=0.09375, eta=0.5, alpha=0.0, delta=1.0 - 2.0 ** -53)
    def test_ordering_holds_everywhere(self, beta, eta, alpha, delta):
        out = stationary_dm_output(params(beta=beta, eta=eta, alpha=alpha,
                                          delta=delta))
        assert out["q_hat_delta"] <= out["q_hat_full"] < out["q_star"]
        if delta < 1.0:
            assert out["q_hat_delta"] < out["q_hat_full"]
            assert out["pareto_dominates"]

    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(0.9, 1.0 - 1e-12), eta=st.floats(0.05, 0.95),
           alpha=st.floats(0.0, 3.0),
           delta=st.floats(-15.0, 0.0, exclude_max=True).map(lambda e: 10.0 ** e))
    # near unit discounting, where 1/beta - 1 would lose digits to cancellation
    @example(beta=0.999999999, eta=0.5, alpha=0.5, delta=1e-12)
    def test_matches_the_exact_reference_near_unit_discounting(self, beta, eta, alpha,
                                                               delta):
        out = stationary_dm_output(params(beta=beta, eta=eta, alpha=alpha, delta=delta))
        for key, d in (("q_hat_full", 1.0), ("q_hat_delta", delta)):
            exact = oracles.dm_output_exact(beta, eta, alpha, d)
            if exact >= sys.float_info.min:
                assert out[key] == pytest.approx(exact, rel=1e-12, abs=0.0), key

    def test_root_below_the_normal_range_matches_the_reference(self):
        # q_hat_delta is subnormal, about 4.87e-313
        out = stationary_dm_output(params(beta=1e-300, eta=0.999, alpha=0.0, delta=1e-12))
        assert out["q_hat_delta"] == pytest.approx(
            oracles.dm_output_exact(1e-300, 0.999, 0.0, 1e-12), rel=1e-9)
        assert 0.0 < out["q_hat_delta"] < out["q_hat_full"]

    def test_subnormal_discount_factor_gives_a_positive_output(self):
        # 1/beta overflows at beta = 1e-320, which would zero q_hat_delta
        out = stationary_dm_output(params(beta=1e-320, delta=0.1))
        assert out["q_hat_delta"] > 0.0
        assert out["q_hat_delta"] == pytest.approx(
            oracles.dm_output_exact(1e-320, 0.5, 0.5, 0.1), rel=1e-2)

    def test_lower_delta_means_lower_output(self):
        outs = [stationary_dm_output(params(delta=d))["q_hat_delta"]
                for d in (1.0, 0.75, 0.5, 0.25, 0.1)]
        assert outs == sorted(outs, reverse=True)
        assert all(o > 0.0 for o in outs)


class TestGammaDynamics:
    def test_cube_recursion_spot(self):
        # eta = alpha = 0.5 gives rho = 1.5 and exponent 3: 0.9 -> 0.9^3
        seq = gamma_dynamics(0.9, 0.5, 0.5, steps=2)
        assert seq == [0.9, 0.9 ** 3, (0.9 ** 3) ** 3]
        assert seq[1] == pytest.approx(0.729, abs=1e-15)

    def test_stationary_at_one(self):
        assert gamma_dynamics(1.0, 0.5, 0.5, steps=5) == [1.0] * 6

    def test_collapse_below_one(self):
        seq = gamma_dynamics(0.99, 0.5, 0.5, steps=40)
        assert seq[-1] < 1e-100
        # strictly decreasing until the tail underflows to exact zero
        assert all(b < a for a, b in zip(seq, seq[1:]) if a > 0.0)

    def test_divergence_above_one(self):
        seq = gamma_dynamics(1.01, 0.5, 0.5, steps=10)
        assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_zero_steps(self):
        assert gamma_dynamics(0.5, 0.5, 0.5, steps=0) == [0.5]

    def test_unit_rho_is_singular(self):
        # eta = 1 makes rho = (1 + alpha)/(1 + alpha) = 1
        with pytest.raises(DomainError, match="degenerates at rho = 1"):
            gamma_dynamics(0.9, 1.0, 0.5, steps=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_dynamics(0.0, 0.5, 0.5, steps=1)
        with pytest.raises(ValueError):
            gamma_dynamics(0.9, 0.5, 0.5, steps=-1)


class TestFeeBalance:
    def test_fee_covers_cost(self):
        assert fee_balance(100.0, 400.0) == 0.25
        assert fee_balance(0.0, 10.0) == 0.0

    def test_zero_volume(self):
        with pytest.raises(DomainError, match="volume must be > 0"):
            fee_balance(100.0, 0.0)

    def test_fee_scales_inversely_with_volume(self):
        assert fee_balance(100.0, 800.0) == fee_balance(100.0, 400.0) / 2
