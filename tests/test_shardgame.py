"""Shard verification game: payoffs, thresholds, protocol runs, equilibrium
checks, and shard-safety probabilities."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from claims import decentralization_check, is_nash_profile
from zkpoi import shardgame
from zkpoi.errors import DomainError
from zkpoi.shardgame import (
    BEHAVIOR_FALSE_HASH,
    BEHAVIOR_HONEST,
    BEHAVIOR_IGNORER,
    BEHAVIOR_LAZY,
    COOPERATOR,
    DEFECTOR,
    GameParams,
    Receipt,
    assign_shards,
    cooperation_thresholds,
    deal_transactions,
    epoch_failure_bound,
    make_miners,
    payoff_cooperate,
    payoff_defect,
    run_coordinated_protocol,
    run_receipt_protocol,
    shard_failure_prob,
    sign_receipt,
)


def params_with(**overrides) -> GameParams:
    fields = dict(k=2, n_miners=8, committee_min=2, quorum=2, tx_reward=1.0,
                  block_reward=100.0, fixed_cost=2.0, per_tx_cost=0.1, penalty=1.0)
    fields.update(overrides)
    return GameParams(**fields)


# ---------------------------------------------------------------------------
# Payoffs and thresholds
# ---------------------------------------------------------------------------


class TestPayoffs:
    def test_worked_cooperator_payoff_is_exact(self):
        params = params_with(k=2, block_reward=100.0, tx_reward=1.0,
                             fixed_cost=2.0, per_tx_cost=0.1)
        assert payoff_cooperate(params, l_j=5, y_len=20, x_len=20) == 10.0

    def test_defector_payoff_is_negated_penalty(self):
        assert payoff_defect(params_with(penalty=3.5)) == -3.5

    def test_zero_cooperators_raise(self):
        with pytest.raises(DomainError, match="needs at least one cooperator"):
            payoff_cooperate(params_with(), l_j=0, y_len=1, x_len=1)

    @pytest.mark.parametrize("overrides", [
        {"tx_reward": 1e308},                      # +inf
        {"fixed_cost": 1e308, "per_tx_cost": 1e308},  # -inf
        {"tx_reward": 1e308, "per_tx_cost": 1e308},   # inf - inf
    ], ids=["reward", "cost", "both"])
    def test_an_overflowed_payoff_raises(self, overrides):
        with pytest.raises(DomainError, match="cooperator payoff overflows"):
            payoff_cooperate(params_with(**overrides), l_j=1, y_len=8, x_len=8)

    @given(st.integers(1, 8), st.integers(0, 30), st.integers(0, 30),
           st.integers(0, 400), st.integers(0, 64), st.integers(0, 64),
           st.sampled_from([1, 2, 4]))
    def test_matches_direct_formula(self, l_j, y_len, x_len, br8, cf8, cv8, k):
        params = params_with(k=k, block_reward=br8 / 8, fixed_cost=cf8 / 8,
                             per_tx_cost=cv8 / 8, quorum=1, committee_min=1)
        ours = payoff_cooperate(params, l_j, y_len, x_len)
        theirs = oracles.coop_payoff(params.block_reward, k, l_j, params.tx_reward,
                                     y_len, params.fixed_cost, params.per_tx_cost, x_len)
        assert ours == theirs


class TestThresholds:
    def spot_params(self) -> GameParams:
        return params_with(k=1, block_reward=0.0, tx_reward=1.0, fixed_cost=5.0,
                           per_tx_cost=0.25, penalty=1.0, quorum=1, committee_min=1)

    def test_worked_threshold_spots(self):
        th = cooperation_thresholds(self.spot_params(), l_j=2, y_len=20)
        assert th.theta1_direct == oracles.THETA1_DIRECT_SPOT == 16.0
        assert th.theta2_direct == oracles.THETA2_DIRECT_SPOT == 24.0
        assert th.theta2_published == oracles.THETA2_PUBLISHED_SPOT == 16.0
        assert th.theta1_published == 24.0

    def test_variants_coincide_without_penalty(self):
        params = params_with(penalty=0.0)
        th = cooperation_thresholds(params, l_j=3, y_len=10)
        assert th.theta1_direct == th.theta1_published
        assert th.theta2_direct == th.theta2_published

    def test_degenerate_rate_gap(self):
        params = params_with(tx_reward=0.5, per_tx_cost=0.25, quorum=1, committee_min=1)
        with pytest.raises(DomainError, match="per-tx benefit equals per-tx cost"):
            cooperation_thresholds(params, l_j=2, y_len=10)

    def test_free_verification_removes_upper_cutoff(self):
        params = params_with(per_tx_cost=0.0)
        th = cooperation_thresholds(params, l_j=2, y_len=10)
        assert th.theta2_direct == math.inf
        assert th.theta2_published == math.inf

    @staticmethod
    @st.composite
    def dyadic_games(draw):
        """Parameters whose thresholds are exactly representable, so integer
        crossovers admit equality checks instead of tolerances."""
        l_j = draw(st.sampled_from([1, 2, 4, 8]))
        k = draw(st.sampled_from([1, 2]))
        share8 = draw(st.integers(0, 64))  # block share in eighths
        cv = 2.0 ** -draw(st.integers(0, 3))
        gap = 2.0 ** -draw(st.integers(0, 3))
        cf8 = draw(st.integers(0, 96))
        p8 = draw(st.integers(0, 16))
        params = params_with(k=k, n_miners=8 * k, quorum=1, committee_min=1,
                             block_reward=(share8 / 8) * k * l_j,
                             tx_reward=l_j * (cv + gap), per_tx_cost=cv,
                             fixed_cost=cf8 / 8, penalty=p8 / 8)
        return params, l_j

    @settings(max_examples=120, deadline=None)
    @given(dyadic_games(), st.integers(0, 12))
    def test_lower_crossover_matches_brute_force(self, game, y_len):
        params, l_j = game
        th = cooperation_thresholds(params, l_j, y_len)
        x_max = 50
        brute = oracles.brute_force_min_coop_x(
            params.block_reward, params.k, l_j, params.tx_reward,
            params.fixed_cost, params.per_tx_cost, params.penalty, x_max=x_max)
        predicted = max(0, math.ceil(th.theta1_direct))
        assert brute == (None if predicted > x_max else predicted)

    @settings(max_examples=120, deadline=None)
    @given(dyadic_games(), st.integers(0, 12))
    def test_upper_crossover_matches_brute_force(self, game, y_len):
        params, l_j = game
        th = cooperation_thresholds(params, l_j, y_len)
        x_max = 50
        brute = oracles.brute_force_max_coop_x(
            params.block_reward, params.k, l_j, params.tx_reward, y_len,
            params.fixed_cost, params.per_tx_cost, params.penalty, x_max=x_max)
        predicted = min(math.floor(th.theta2_direct), x_max)
        assert brute == (None if predicted < y_len else predicted)


# ---------------------------------------------------------------------------
# Population and structure
# ---------------------------------------------------------------------------


class TestPopulation:
    def test_make_miners_fills_remainder_with_honest(self):
        miners = make_miners(6, seed=1, behaviors={BEHAVIOR_LAZY: 2})
        assert sum(m.behavior == BEHAVIOR_LAZY for m in miners) == 2
        assert sum(m.behavior == BEHAVIOR_HONEST for m in miners) == 4
        assert len({m.miner_id for m in miners}) == 6
        assert len({m.pk for m in miners}) == 6

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            make_miners(4, seed=1, behaviors={"saboteur": 1})

    def test_overfull_roster_rejected(self):
        with pytest.raises(ValueError):
            make_miners(2, seed=1, behaviors={BEHAVIOR_LAZY: 3})

    def test_same_seed_same_population(self):
        a = make_miners(5, seed=9)
        b = make_miners(5, seed=9)
        assert [(m.miner_id, m.pk) for m in a] == [(m.miner_id, m.pk) for m in b]

    def test_shards_balance_within_one(self):
        params = params_with(k=3, n_miners=10, quorum=1, committee_min=1)
        miners = make_miners(10, seed=2)
        assignment = assign_shards(b"\x01" * 32, miners, params)
        sizes = [list(assignment.values()).count(j) for j in range(3)]
        assert max(sizes) - min(sizes) <= 1

    def test_assignment_tracks_randomness(self):
        params = params_with(k=2, n_miners=16, quorum=1, committee_min=1)
        a = assign_shards(b"\x01" * 32, make_miners(16, seed=3), params)
        b = assign_shards(b"\x01" * 32, make_miners(16, seed=3), params)
        c = assign_shards(b"\x02" * 32, make_miners(16, seed=3), params)
        assert a == b
        assert a != c

    def test_dealing_requires_assignment(self):
        params = params_with()
        miners = make_miners(8, seed=4)
        with pytest.raises(ValueError):
            deal_transactions(b"\x01" * 32, miners, params, txs_per_shard=4)

    def test_quorum_bounds_enforced(self):
        with pytest.raises(ValueError):
            params_with(quorum=5)  # floor(8/2) == 4 is the ceiling
        with pytest.raises(ValueError):
            params_with(quorum=0)
        with pytest.raises(ValueError):
            params_with(k=0)

    def test_receipts_sign_and_verify(self):
        miners = make_miners(2, seed=5)
        receipt = sign_receipt(miners[0].key, b"\xaa" * 32, miners[0].miner_id)
        assert receipt.verify(miners[0].pk)
        assert not receipt.verify(miners[1].pk)


# ---------------------------------------------------------------------------
# Protocol runs
# ---------------------------------------------------------------------------

RAND = (123).to_bytes(32, "big")


class TestProtocolRuns:
    def run_both(self, params, behaviors=None, *, seed=6, txs=8, sample=3):
        coordinated = run_coordinated_protocol(
            params, make_miners(params.n_miners, seed, behaviors), RAND,
            txs_per_shard=txs)
        receipts = run_receipt_protocol(
            params, make_miners(params.n_miners, seed, behaviors), RAND,
            txs_per_shard=txs, receipt_sample_size=sample)
        return coordinated, receipts

    def test_all_honest_protocols_agree_exactly(self):
        params = params_with()
        coordinated, receipts = self.run_both(params)
        assert coordinated.payoffs == receipts.payoffs
        assert set(coordinated.classification.values()) == {COOPERATOR}
        expected = payoff_cooperate(params, l_j=4, y_len=8, x_len=8)
        assert all(p == expected for p in coordinated.payoffs.values())

    def test_payoff_vector_is_in_miner_id_order(self):
        params = params_with()
        outcome, _ = self.run_both(params)
        ids = sorted(outcome.payoffs)
        assert outcome.payoff_vector() == [outcome.payoffs[i] for i in ids]

    def test_lazy_miner_pays_in_coordinated_run(self):
        params = params_with()
        miners = make_miners(8, seed=7, behaviors={BEHAVIOR_LAZY: 1})
        outcome = run_coordinated_protocol(params, miners, RAND)
        lazy_id = next(m.miner_id for m in miners if m.behavior == BEHAVIOR_LAZY)
        assert outcome.payoffs[lazy_id] == -params.penalty
        assert outcome.classification[lazy_id] == DEFECTOR

    def test_lazy_miner_caught_by_sampled_receipts(self):
        params = params_with()
        miners = make_miners(8, seed=7, behaviors={BEHAVIOR_LAZY: 1})
        outcome = run_receipt_protocol(params, miners, RAND, receipt_sample_size=3)
        lazy_id = next(m.miner_id for m in miners if m.behavior == BEHAVIOR_LAZY)
        assert outcome.payoffs[lazy_id] == -params.penalty

    def test_without_sampling_the_free_rider_walks(self):
        params = params_with()
        miners = make_miners(8, seed=7, behaviors={BEHAVIOR_LAZY: 1})
        outcome = run_receipt_protocol(params, miners, RAND, receipt_sample_size=0)
        lazy_id = next(m.miner_id for m in miners if m.behavior == BEHAVIOR_LAZY)
        assert outcome.payoffs[lazy_id] == 0.0
        assert outcome.classification[lazy_id] == DEFECTOR

    @pytest.mark.parametrize("sample", [0, -1])
    def test_without_sampling_no_receipt_is_signed(self, monkeypatch, sample):
        signed = []

        def sign(key, tx_hash, recipient):
            signed.append(tx_hash)
            return sign_receipt(key, tx_hash, recipient)

        monkeypatch.setattr(shardgame, "sign_receipt", sign)
        params = params_with()
        miners = make_miners(8, seed=7, behaviors={BEHAVIOR_LAZY: 1})
        outcome = run_receipt_protocol(params, miners, RAND, receipt_sample_size=sample)
        lazy_id = next(m.miner_id for m in miners if m.behavior == BEHAVIOR_LAZY)
        assert signed == []
        assert outcome.payoffs[lazy_id] == 0.0

    @pytest.mark.parametrize("protocol", ["coordinated", "receipts"])
    def test_false_reporter_is_outvoted_and_penalized(self, protocol):
        params = params_with()
        miners = make_miners(8, seed=8, behaviors={BEHAVIOR_FALSE_HASH: 1})
        run = run_coordinated_protocol if protocol == "coordinated" else run_receipt_protocol
        outcome = run(params, miners, RAND)
        liar_id = next(m.miner_id for m in miners if m.behavior == BEHAVIOR_FALSE_HASH)
        assert outcome.payoffs[liar_id] == -params.penalty
        assert outcome.classification[liar_id] == DEFECTOR
        # the other shard's honest majority is untouched
        honest_payoffs = [outcome.payoffs[m.miner_id] for m in miners
                          if m.behavior == BEHAVIOR_HONEST]
        assert all(p > 0 for p in honest_payoffs)

    def test_ignorer_defects_in_a_profitable_epoch(self):
        params = params_with()
        miners = make_miners(8, seed=9, behaviors={BEHAVIOR_IGNORER: 1})
        outcome = run_coordinated_protocol(params, miners, RAND)
        ignorer_id = next(m.miner_id for m in miners if m.behavior == BEHAVIOR_IGNORER)
        assert outcome.classification[ignorer_id] == DEFECTOR
        assert outcome.payoffs[ignorer_id] == -params.penalty

    def test_unprofitable_epoch_collapses_to_all_defective(self):
        params = params_with(fixed_cost=1000.0)
        miners = make_miners(8, seed=10)
        outcome = run_coordinated_protocol(params, miners, RAND)
        assert set(outcome.classification.values()) == {DEFECTOR}
        assert all(p == -params.penalty for p in outcome.payoffs.values())
        assert all(not s.quorum_met for s in outcome.shards)

    def test_quorum_recheck_after_defections(self):
        # group of 4 meets quorum 3, but two lazy members never show up
        params = params_with(quorum=3, committee_min=3)
        miners = make_miners(8, seed=11, behaviors={BEHAVIOR_LAZY: 5})
        outcome = run_coordinated_protocol(params, miners, RAND)
        for shard in outcome.shards:
            survivors = len(shard.cooperators)
            assert shard.quorum_met == (survivors >= 3)
            if not shard.quorum_met:
                members = shard.cooperators + shard.defectors
                assert all(outcome.payoffs[mid] == -params.penalty for mid in members)

    def test_shard_accounting_is_consistent(self):
        params = params_with()
        miners = make_miners(8, seed=12, behaviors={BEHAVIOR_LAZY: 1,
                                                    BEHAVIOR_FALSE_HASH: 1})
        outcome = run_receipt_protocol(params, miners, RAND)
        for shard in outcome.shards:
            assert shard.l_j == len(shard.cooperators)
            for mid in shard.cooperators:
                assert outcome.classification[mid] == COOPERATOR
            for mid in shard.defectors:
                assert outcome.classification[mid] == DEFECTOR
            if shard.quorum_met and shard.cooperators:
                values = {outcome.payoffs[mid] for mid in shard.cooperators}
                # cooperators share rewards; costs differ only via list length
                assert len(values) <= len(set(
                    len(m.tx_list) for m in miners if m.miner_id in shard.cooperators))

    def test_only_receipts_that_can_convict_are_verified(self, monkeypatch):
        params = params_with()
        miners = make_miners(8, 14, {BEHAVIOR_LAZY: 2, BEHAVIOR_FALSE_HASH: 1})
        owner = {m.key: m for m in miners}
        sampled, verified = set(), []  # (tx digest, recipient) pairs
        real_sample, real_verify = random.Random.sample, Receipt.verify

        def sample(rng, population, k, **kwargs):
            chosen = real_sample(rng, population, k, **kwargs)
            sampled.update((digest, owner[key].miner_id) for key, digest in chosen)
            return chosen

        def verify(receipt, recipient_pk):
            verified.append((receipt.tx_hash, receipt.recipient))
            return real_verify(receipt, recipient_pk)

        monkeypatch.setattr(random.Random, "sample", sample)
        monkeypatch.setattr(Receipt, "verify", verify)
        outcome = run_receipt_protocol(params, miners, RAND, receipt_sample_size=3)
        monkeypatch.undo()
        silent = {m.miner_id: m for m in miners if m.behavior == BEHAVIOR_LAZY}
        assert set(verified) <= sampled
        assert len(verified) == len(set(verified))
        assert {recipient for _, recipient in verified} <= set(silent)
        assert len(sampled) > len(verified)
        # Eager reference: every distinct sampled receipt signed and checked.
        for miner_id, m in silent.items():
            named = any(sign_receipt(m.key, digest, miner_id).verify(m.pk)
                        for digest, recipient in sampled if recipient == miner_id)
            assert outcome.payoffs[miner_id] == (-params.penalty if named else 0.0)

    @pytest.mark.parametrize("forge_every, caught", [(1, False), (2, True)],
                             ids=["all-forged", "half-forged"])
    def test_forged_receipts_do_not_convict(self, monkeypatch, forge_every, caught):
        params = params_with()
        miners = make_miners(8, seed=7, behaviors={BEHAVIOR_LAZY: 1})
        lazy_id, lazy_pk = next((m.miner_id, m.pk) for m in miners
                                if m.behavior == BEHAVIOR_LAZY)
        sampled, signed = set(), []  # tx digests that name the lazy miner
        real_sample = random.Random.sample

        def sample(rng, population, k, **kwargs):
            chosen = real_sample(rng, population, k, **kwargs)
            sampled.update(digest for key, digest in chosen if key.public_bytes == lazy_pk)
            return chosen

        def sign(key, tx_hash, recipient):
            receipt = sign_receipt(key, tx_hash, recipient)
            if recipient != lazy_id:
                return receipt
            signed.append(tx_hash)
            if len(signed) % forge_every:
                return receipt
            forged = bytes([receipt.signature[0] ^ 1]) + receipt.signature[1:]
            return Receipt(receipt.tx_hash, recipient, forged)

        monkeypatch.setattr(random.Random, "sample", sample)
        monkeypatch.setattr(shardgame, "sign_receipt", sign)
        outcome = run_receipt_protocol(params, miners, RAND, receipt_sample_size=3)
        # Only sampled receipts are signed, each once, and only until one convicts.
        assert set(signed) <= sampled
        assert len(signed) == len(set(signed)) == (1 if caught else len(sampled))
        assert outcome.payoffs[lazy_id] == (-params.penalty if caught else 0.0)
        assert outcome.classification[lazy_id] == DEFECTOR

    def test_runs_are_deterministic(self):
        params = params_with()
        behaviors = {BEHAVIOR_LAZY: 1, BEHAVIOR_IGNORER: 1}
        a = run_receipt_protocol(params, make_miners(8, 13, behaviors), RAND)
        b = run_receipt_protocol(params, make_miners(8, 13, behaviors), RAND)
        assert a.payoffs == b.payoffs
        assert a.classification == b.classification


# ---------------------------------------------------------------------------
# Equilibrium checking
# ---------------------------------------------------------------------------


class TestNashProfiles:
    def test_all_cooperate_is_nash_when_profitable(self):
        params = params_with(k=1, n_miners=4, quorum=2, committee_min=2)
        txs = ("t1", "t2", "t3")
        entries = [(0, "C", txs)] * 4
        assert is_nash_profile(params, entries)

    def test_profitable_deviation_is_detected(self):
        # with a tiny penalty, defecting beats cooperating at a loss
        params = params_with(k=1, n_miners=4, quorum=1, committee_min=1,
                             block_reward=0.0, fixed_cost=5.0, penalty=0.5)
        entries = [(0, "C", ("t1",))] * 4
        assert not is_nash_profile(params, entries)

    def test_too_many_entries_rejected(self):
        params = params_with(k=1, n_miners=13, quorum=1, committee_min=1)
        with pytest.raises(DomainError, match="exhaustive check capped"):
            is_nash_profile(params, [(0, "C", ("t",))] * 13)

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            is_nash_profile(params_with(), [(0, "X", ("t",))])

    @staticmethod
    def draw_profile(data) -> tuple[GameParams, list]:
        """Rewards and costs in quarters up to 64, and up to six miners."""
        k = data.draw(st.sampled_from([1, 2]))
        n = data.draw(st.integers(2, 6))
        quorum = data.draw(st.integers(1, max(1, n // k)))
        params = params_with(
            k=k, n_miners=max(n, k * quorum), quorum=quorum, committee_min=quorum,
            block_reward=data.draw(st.integers(0, 64)) / 4,
            tx_reward=data.draw(st.integers(0, 16)) / 4,
            fixed_cost=data.draw(st.integers(0, 32)) / 4,
            per_tx_cost=data.draw(st.integers(0, 8)) / 4,
            penalty=data.draw(st.integers(0, 8)) / 4)
        pool = [f"t{i}" for i in range(4)]
        entries = []
        for _ in range(n):
            shard = data.draw(st.integers(0, k - 1))
            action = data.draw(st.sampled_from(["C", "D"]))
            txs = tuple(sorted(data.draw(st.sets(st.sampled_from(pool), max_size=4))))
            entries.append((shard, action, txs))
        return params, entries

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_random_profiles(self, data):
        params, entries = self.draw_profile(data)
        ours = is_nash_profile(params, entries)
        theirs = oracles.profile_is_nash(params.k, params.quorum, params.block_reward,
                                         params.tx_reward, params.fixed_cost,
                                         params.per_tx_cost, params.penalty, entries)
        assert ours == theirs

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(-1000, 1000))
    def test_verdict_is_scale_free(self, data, k):
        """Scaling every reward, cost and penalty by 2**k changes no verdict.
        Every nonzero amount drawn lies in [1/4, 64], and the payoffs divide
        them by at most 12 and sum a few of them, so for |k| <= 1000 every
        value stays normal."""
        params, entries = self.draw_profile(data)
        scaled = dataclasses.replace(params, **{
            name: math.ldexp(getattr(params, name), k)
            for name in ("block_reward", "tx_reward", "fixed_cost", "per_tx_cost", "penalty")})
        assert is_nash_profile(scaled, entries) == is_nash_profile(params, entries)


# ---------------------------------------------------------------------------
# Shard safety and decentralization
# ---------------------------------------------------------------------------


class TestShardFailure:
    def test_worked_example(self):
        # 3 seats, half the network malicious: 1 - (1-m)^3 - C(3,1) terms
        assert shard_failure_prob(3, 0.5) == 0.875

    @pytest.mark.parametrize("n", [3, 9, 30, 300, 600])
    @pytest.mark.parametrize("m", [0.05, 0.1, 0.5])
    def test_matches_exact_binomial_tail(self, n, m):
        assert shard_failure_prob(n, m) == pytest.approx(
            oracles.binomial_tail_exact(n, m), abs=1e-12)

    def test_large_shard_stays_a_probability(self):
        # single binomial terms underflow a float far below this size
        assert 0.0 <= shard_failure_prob(5000, 0.33) <= 1.0

    def test_monotone_in_malicious_fraction(self):
        probs = [shard_failure_prob(9, m / 10) for m in range(11)]
        assert probs == sorted(probs)
        assert probs[0] == 0.0 and probs[-1] == 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_failure_prob(0, 0.1)
        with pytest.raises(ValueError):
            shard_failure_prob(3, 1.5)


class TestEpochBound:
    def test_finite_bounds_increase_toward_limit(self):
        p = shard_failure_prob(9, 0.1)
        bounds = [epoch_failure_bound(4, p, v)[0] for v in range(8)]
        limit = epoch_failure_bound(4, p, 0)[1]
        assert bounds == sorted(bounds)
        assert all(b <= limit for b in bounds)
        assert bounds[-1] == pytest.approx(limit, rel=1e-4)

    def test_zero_views_is_single_epoch(self):
        finite, limit = epoch_failure_bound(5, 0.01, 0)
        assert finite == 0.05
        assert limit == pytest.approx((4 / 3) * 0.05)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            epoch_failure_bound(4, -0.1, 3)
        with pytest.raises(ValueError):
            epoch_failure_bound(4, 0.1, -1)


class TestDecentralization:
    def test_equal_powers_pass(self):
        powers = {f"p{i}": [1.0, 2.0] for i in range(10)}
        report = decentralization_check(powers, m=5, epsilon=0.1, delta=10)
        assert report.ok
        assert report.ratio == 1.0
        assert report.population == 10

    def test_small_population_fails(self):
        powers = {f"p{i}": [1.0] for i in range(3)}
        assert not decentralization_check(powers, m=5, epsilon=0.5, delta=0).ok

    def test_concentration_fails(self):
        powers = {f"p{i}": [1.0] for i in range(9)}
        powers["whale"] = [100.0]
        report = decentralization_check(powers, m=5, epsilon=0.1, delta=10)
        assert not report.ok
        assert report.ratio == 100.0

    def test_powerless_percentile_yields_infinite_ratio(self):
        powers = {"a": [0.0], "b": [1.0]}
        report = decentralization_check(powers, m=1, epsilon=10.0, delta=0)
        assert report.ratio == math.inf
        assert not report.ok

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=100.0))
    def test_percentile_matches_numpy_lower(self, totals, delta):
        powers = {f"p{i}": [total] for i, total in enumerate(totals)}
        report = decentralization_check(powers, m=1, epsilon=0.1, delta=delta)
        assert report.ep_max == max(totals)
        assert report.ep_percentile == np.percentile(totals, delta, method="lower")

    def test_nan_power_fails_the_check(self):
        powers = {"a": [1.0], "b": [math.nan], "c": [2.0]}
        report = decentralization_check(powers, m=1, epsilon=10.0, delta=0)
        assert math.isnan(report.ep_max) and math.isnan(report.ep_percentile)
        assert not report.ok

    def test_empty_population_raises(self):
        with pytest.raises(DomainError, match="no players to measure"):
            decentralization_check({}, m=1, epsilon=0.1, delta=10)

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            decentralization_check({"a": [1.0]}, m=1, epsilon=0.1, delta=101)
