"""Acceptance suite: one test per stated behavioural bar, each printing a
single [PASS]/[FAIL] line with the bar it measured."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import claims
import oracles
from zkpoi import attestation, cli, credential, identity, registry, shardgame
from zkpoi.econ import circulation as circ
from zkpoi.econ import congestion as cong
from zkpoi.econ import games, network
from zkpoi.errors import DuplicateIdentity, ReplayedRegProof

GENESIS, YEAR = identity.GENESIS, identity.YEAR
WINDOW = (GENESIS, GENESIS + 10 * YEAR)
NOW = GENESIS + YEAR
NETWORK = "chain-main"


@pytest.fixture
def report(capsys):
    def _report(number: int, description: str, problems: list[str]):
        verdict = "PASS" if not problems else "FAIL"
        with capsys.disabled():
            print(f"\n[{verdict}] criterion {number:02d}: {description}")
        assert not problems, f"criterion {number}: " + " | ".join(problems[:8])
    return _report


def open_registry(store, seed=1):
    reg = registry.Registry(store, NETWORK, seed=seed)
    client = attestation.EnclaveIdentity("zkpoi-wallet", 1)
    policy = attestation.AttestationPolicy.expecting(client, reg.enclave)
    session = reg.open_session(client, policy)
    return reg, session


def test_criterion_01_registration_suite(report, verify_calls):
    problems: list[str] = []
    started = time.monotonic()

    store, hierarchy = identity.generate_ca_hierarchy(3, 2, seed=1001)
    docs = [identity.issue_identity_cert(
        hierarchy, hierarchy.issuers[i % len(hierarchy.issuers)],
        f"Holder {i:06d}", f"UID-{i:08d}", WINDOW) for i in range(10_000)]
    reg, session = open_registry(store)

    bundles = []
    for i, doc in enumerate(docs):
        bundle, _ = credential.build_registration_bundle(
            doc, f"pp-{i}", NETWORK, store, NOW, kdf_iterations=4)
        bundles.append(bundle)
        try:
            reg.register(attestation.seal(session, bundle.to_bytes()), session, NOW)
        except Exception as exc:  # noqa: BLE001 - any rejection here is a failure
            problems.append(f"identity {i} failed to register: {exc!r}")
            break
    if reg.online_count() != 10_000:
        problems.append(f"online count {reg.online_count()} != 10000")

    # fresh-passphrase duplicate for every identity
    for i, doc in enumerate(docs):
        dup, _ = credential.build_registration_bundle(
            doc, f"other-pp-{i}", NETWORK, store, NOW, kdf_iterations=4)
        try:
            reg.register(attestation.seal(session, dup.to_bytes()), session, NOW)
            problems.append(f"fresh-passphrase duplicate {i} was accepted")
            break
        except DuplicateIdentity:
            pass

    # renewed certificate (new serial and key, same holder identifier)
    for i in range(0, 10_000, 20):
        renewed_doc = identity.issue_identity_cert(
            hierarchy, hierarchy.issuers[i % len(hierarchy.issuers)],
            f"Holder {i:06d}", f"UID-{i:08d}", WINDOW)
        renewed, _ = credential.build_registration_bundle(
            renewed_doc, f"renewed-pp-{i}", NETWORK, store, NOW, kdf_iterations=4)
        try:
            reg.register(attestation.seal(session, renewed.to_bytes()), session, NOW)
            problems.append(f"renewed-certificate duplicate {i} was accepted")
            break
        except DuplicateIdentity:
            pass

    # replaying a registration proof as a removal request
    for i in range(0, 10_000, 20):
        try:
            reg.take_offline(attestation.seal(session, bundles[i].to_bytes()),
                             session, NOW)
            problems.append(f"registration proof {i} was accepted for removal")
            break
        except ReplayedRegProof:
            pass
    if reg.online_count() != 10_000:
        problems.append("replayed proofs changed the online count")
    # The signature budget: per admission, the wallet's leaf and the
    # registry's leaf, key binding and secret; per renewal, the same; none
    # per duplicate or replay; six intermediate certificates once each.
    if len(verify_calls) != 42_006:
        problems.append(f"{len(verify_calls)} Ed25519 verifies, expected 42006")

    elapsed = time.monotonic() - started
    if elapsed > 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(1, "10k identities register once; duplicates, renewals and replays "
              f"rejected in {elapsed:.1f}s (<= 60s)", problems)


def test_criterion_02_rejection_matrix(report, forge_degraded):
    problems: list[str] = []
    store, hierarchy = identity.generate_ca_hierarchy(3, 2, seed=2001)
    cards = [identity.issue_identity_cert(
        hierarchy, hierarchy.issuers[i % len(hierarchy.issuers)],
        f"Mutant {i:03d}", f"MUT-{i:04d}", WINDOW) for i in range(100)]

    pass_store, pass_hier = identity.generate_ca_hierarchy(2, 0, seed=2002)
    cscas = [pass_hier.authorities[name] for name in pass_hier.issuers]
    dscs = [identity.issue_dsc(c, f"signer-{i}", WINDOW) for i, c in enumerate(cscas)]
    passports = [identity.issue_epassport(
        cscas[i % 2], dscs[i % 2],
        identity.HolderFields(name=f"MUTANT{i:03d}", document_number=f"M{i:07d}",
                              nationality="N00", birth_date="900101", sex="F",
                              expiry_date="450101", issuing_state="N00"),
        with_aa=False, seed=2100 + i) for i in range(100)]
    chipped = [identity.issue_epassport(
        cscas[i % 2], dscs[i % 2],
        identity.HolderFields(name=f"CHIPPED{i:03d}", document_number=f"C{i:07d}",
                              nationality="N00", birth_date="900101", sex="M",
                              expiry_date="450101", issuing_state="N00"),
        with_aa=True, seed=2200 + i) for i in range(100)]

    foreign_store, foreign = identity.generate_ca_hierarchy(1, 2, seed=2003)

    def tally(klass, outcomes, expected):
        wrong = [f"{klass}[{i}]: got {code}" for i, code in enumerate(outcomes)
                 if code != expected]
        if wrong:
            problems.append(f"{klass}: {len(wrong)}/100 wrong codes ({wrong[0]})")

    def mutant_codes(verified):
        """(class, failure codes, expected code) for each mutant class;
        `verified` is the record of document signature checks a verifier
        that admitted the clean documents would hold."""
        rng = random.Random(2001)
        results = []
        # expired: validated at a random time outside the validity window
        outcomes = []
        for card in cards:
            if rng.random() < 0.5:
                at = WINDOW[1] + rng.randint(1, 10 * YEAR)
            else:
                at = WINDOW[0] - rng.randint(1, 10 * YEAR)
            outcomes.append(identity.validate_chain(card.chain, store, at).failure_code)
        results.append(("expired", outcomes, identity.FailureCode.EXPIRED))

        # tampered signature on a random chain link
        outcomes = []
        for card in cards:
            chain = card.chain
            target = rng.randrange(1 + len(chain.intermediates))
            mangle = lambda cert: dataclasses.replace(
                cert, signature=rng.randbytes(len(cert.signature)))
            if target == 0:
                chain = dataclasses.replace(chain, leaf=mangle(chain.leaf))
            else:
                inters = list(chain.intermediates)
                inters[target - 1] = mangle(inters[target - 1])
                chain = dataclasses.replace(chain, intermediates=tuple(inters))
            outcomes.append(identity.validate_chain(chain, store, NOW).failure_code)
        results.append(("tampered-signature", outcomes, identity.FailureCode.BAD_SIGNATURE))

        # broken chain: the leaf's direct parent dropped, or a dangling issuer name
        outcomes = []
        for card in cards:
            chain = card.chain
            if rng.random() < 0.5 and chain.intermediates:
                chain = dataclasses.replace(chain, intermediates=chain.intermediates[1:])
            else:
                chain = dataclasses.replace(chain, leaf=dataclasses.replace(
                    chain.leaf, issuer_name=f"ghost-authority-{rng.randrange(1000)}"))
            outcomes.append(identity.validate_chain(chain, store, NOW).failure_code)
        results.append(("broken-chain", outcomes, identity.FailureCode.CHAIN_BROKEN))

        # untrusted root: internally consistent chains from a foreign hierarchy
        outcomes = []
        for i in range(100):
            stranger = identity.issue_identity_cert(
                foreign, foreign.issuers[0], f"Stranger {i:03d}",
                f"STR-{rng.randrange(10**6):06d}", WINDOW)
            outcomes.append(identity.validate_chain(stranger.chain, store, NOW).failure_code)
        results.append(("untrusted-root", outcomes, identity.FailureCode.NOT_TRUSTED))

        # security-object hash mismatch: mutate a data group under an intact SOD
        outcomes = []
        for passport in passports:
            mutant = dataclasses.replace(passport, dg1=dataclasses.replace(
                passport.dg1, name=f"ALTERED{rng.randrange(10**6):06d}"))
            outcomes.append(
                identity.validate_epassport(mutant, pass_store, NOW).failure_code)
        results.append(("sod-hash-mismatch", outcomes, identity.FailureCode.HASH_MISMATCH))

        # mode downgrade: a card's or chipped passport's identity claimed on
        # the degraded path from its public bytes alone
        outcomes = []
        for i in range(100):
            doc, doc_store = (cards[i], store) if rng.random() < 0.5 else (chipped[i], pass_store)
            verdict = credential.verify_registration_bundle(
                forge_degraded(doc, NETWORK), doc_store, NETWORK, NOW, verified=verified)
            outcomes.append(verdict.code)
        results.append(("mode-downgrade", outcomes, "step6"))
        return results

    cold = mutant_codes(verified=set())
    # Warm the stores' memo of verified issuer signatures, and a record of
    # the documents' own signatures, with the clean documents; the same
    # mutants must then get the same codes.
    reports = ([identity.validate_chain(card.chain, store, NOW) for card in cards]
               + [identity.validate_epassport(p, pass_store, NOW) for p in passports + chipped])
    if not (all(r.accepted for r in reports)
            and store._verified_issuers and pass_store._verified_issuers):
        problems.append("clean documents did not warm the trust stores")
    warm = mutant_codes(verified={check for r in reports for check in r.checks})
    for (klass, cold_codes, expected), (_, warm_codes, _) in zip(cold, warm):
        tally(klass, cold_codes, expected)
        tally(f"{klass} (warm store)", warm_codes, expected)

    report(2, "6 mutant classes x 100 randomized instances all rejected with "
              "the correct failure code or step", problems)


def test_criterion_03_threshold_oracle_equivalence(report):
    problems: list[str] = []
    rng = random.Random(3001)
    x_max = 50

    def predicted_crossovers(th, tx_reward, l_j, per_tx_cost, y_len,
                             lower_attr, upper_attr):
        theta1, theta2 = getattr(th, lower_attr), getattr(th, upper_attr)
        rate_gap = tx_reward / l_j - per_tx_cost
        if rate_gap > 0:
            lo = max(0, math.ceil(theta1))
            pred_min = lo if lo <= x_max else None
        else:
            pred_min = 0 if theta1 >= 0 else None
        hi = min(math.floor(theta2), x_max)
        pred_max = hi if hi >= y_len else None
        return pred_min, pred_max

    checked = 0
    while checked < 200:
        k = rng.randint(1, 2)
        n = rng.randint(k, 8)
        l_j = rng.randint(1, max(1, n // k))
        br = rng.uniform(0.0, 120.0)
        r = rng.uniform(0.05, 2.0)
        c_f = rng.uniform(0.0, 10.0)
        c_v = rng.uniform(0.01, 1.0)
        p = rng.uniform(0.0, 5.0)
        y_len = rng.randint(0, 30)
        if abs(r / l_j - c_v) < 1e-6:
            continue
        tag = f"#{checked} (k={k} l={l_j} br={br:.3f} r={r:.3f} cf={c_f:.3f} cv={c_v:.3f} p={p:.3f} y={y_len})"

        params = shardgame.GameParams(k=k, n_miners=n, committee_min=1, quorum=1,
                                      tx_reward=r, block_reward=br, fixed_cost=c_f,
                                      per_tx_cost=c_v, penalty=p)
        th = shardgame.cooperation_thresholds(params, l_j, y_len)
        pred = predicted_crossovers(th, r, l_j, c_v, y_len,
                                    "theta1_direct", "theta2_direct")
        brute = (oracles.brute_force_min_coop_x(br, k, l_j, r, c_f, c_v, p),
                 oracles.brute_force_max_coop_x(br, k, l_j, r, y_len, c_f, c_v, p))
        if pred != brute:
            problems.append(f"{tag}: direct thresholds {pred} vs brute force {brute}")

        # p = 0 subcase: the published-sign variants must coincide and match
        params0 = shardgame.GameParams(k=k, n_miners=n, committee_min=1, quorum=1,
                                       tx_reward=r, block_reward=br, fixed_cost=c_f,
                                       per_tx_cost=c_v, penalty=0.0)
        th0 = shardgame.cooperation_thresholds(params0, l_j, y_len)
        if (th0.theta1_published != th0.theta1_direct
                or th0.theta2_published != th0.theta2_direct):
            problems.append(f"{tag}: p=0 sign variants differ")
        pred0 = predicted_crossovers(th0, r, l_j, c_v, y_len,
                                     "theta1_published", "theta2_published")
        brute0 = (oracles.brute_force_min_coop_x(br, k, l_j, r, c_f, c_v, 0.0),
                  oracles.brute_force_max_coop_x(br, k, l_j, r, y_len, c_f, c_v, 0.0))
        if pred0 != brute0:
            problems.append(f"{tag}: p=0 published thresholds {pred0} vs brute force {brute0}")
        checked += 1
        if len(problems) > 8:
            break

    report(3, "200 random parameterizations: threshold integer crossovers match "
              "brute force exactly, including the p=0 sign variants", problems)


def test_criterion_04_protocol_equivalence_and_detection(report, monkeypatch, sign_calls):
    problems: list[str] = []
    rng = random.Random(4001)

    # all-honest runs: identical payoff vectors across both protocols
    for trial in range(30):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 12)
        params = shardgame.GameParams(
            k=k, n_miners=n, committee_min=1, quorum=rng.randint(1, max(1, n // k)),
            tx_reward=rng.uniform(0.1, 2.0), block_reward=rng.uniform(0.0, 150.0),
            fixed_cost=rng.uniform(0.0, 5.0), per_tx_cost=rng.uniform(0.0, 0.5),
            penalty=rng.uniform(0.0, 8.0))
        randomness = rng.getrandbits(256).to_bytes(32, "big")
        txs = rng.randint(0, 12)
        coord = shardgame.run_coordinated_protocol(
            params, shardgame.make_miners(n, trial), randomness, txs_per_shard=txs)
        receipt = shardgame.run_receipt_protocol(
            params, shardgame.make_miners(n, trial), randomness, txs_per_shard=txs,
            receipt_sample_size=3)
        if coord.payoffs != receipt.payoffs:
            problems.append(f"all-honest trial {trial}: payoff vectors differ")

    # lazy-defector detection across 1000 seeded runs
    params = shardgame.GameParams(k=1, n_miners=9, committee_min=2, quorum=4,
                                  tx_reward=1.0, block_reward=100.0, fixed_cost=2.0,
                                  per_tx_cost=0.1, penalty=5.0)
    # receipts are the only verifies routed through shardgame's own import
    receipt_verifies = []

    def counting(public_key, signature, message, _verify=shardgame.verify_signature):
        receipt_verifies.append(signature)
        return _verify(public_key, signature, message)
    monkeypatch.setattr(shardgame, "verify_signature", counting)
    sign_calls.clear()
    caught = 0
    for seed in range(1000):
        miners = shardgame.make_miners(9, seed, {shardgame.BEHAVIOR_LAZY: 3})
        outcome = shardgame.run_receipt_protocol(
            params, miners, seed.to_bytes(32, "big"), txs_per_shard=8,
            receipt_sample_size=3)
        lazy = [m.miner_id for m in miners if m.behavior == shardgame.BEHAVIOR_LAZY]
        caught += all(outcome.payoffs[mid] == -params.penalty for mid in lazy)
    if caught < 990:
        problems.append(f"defectors fully penalized in only {caught}/1000 runs")
    budget = (len(sign_calls), len(receipt_verifies))
    if budget != (3_000, 3_000):
        problems.append(f"{budget[0]} receipt signs and {budget[1]} receipt verifies, "
                        "expected 3000 of each")

    report(4, "all-honest protocol payoffs identical; 3 lazy defectors of 9 all "
              f"assigned -p in {caught}/1000 sampled-receipt runs (>= 990), with "
              f"{budget[0]} receipt signs and {budget[1]} verifies", problems)


def test_criterion_05_payoff_spot_value(report):
    problems: list[str] = []
    params = shardgame.GameParams(k=2, n_miners=10, committee_min=1, quorum=1,
                                  tx_reward=1.0, block_reward=100.0, fixed_cost=2.0,
                                  per_tx_cost=0.1, penalty=1.0)
    value = shardgame.payoff_cooperate(params, l_j=5, y_len=20, x_len=20)
    if value != 10.0:
        problems.append(f"payoff {value!r} != 10.0")
    if value != oracles.PAYOFF_SPOT:
        problems.append("library and oracle spot values differ")
    report(5, "cooperator payoff at (BR=100,k=2,l=5,r=1,|y|=20,cf=2,cv=0.1,|x|=20) "
              "is exactly 10", problems)


def test_criterion_06_congestion_solver(report):
    problems: list[str] = []
    count = 0
    for n in range(11):
        for k in (1, 2, 3):
            for mu in (0.3, 1.0, 2.5):
                for gamma in (0.0, 0.05, 0.4):
                    for deadline in (0.7, 1.0):
                        inst = cong.CongestionInstance(
                            k=k, n_miners=n, mu=mu, gamma=gamma, deadline=deadline)
                        sol = cong.solve_congestion_nash(inst)
                        loads = sol.allocation.loads
                        count += 1
                        if not oracles.allocation_is_nash(
                                loads, [mu] * k, [gamma] * k, deadline, n):
                            problems.append(
                                f"solver allocation {loads} fails deviation checks "
                                f"at n={n} k={k} mu={mu} gamma={gamma} T={deadline}")
                        if len(problems) > 8:
                            break

    worked = cong.CongestionInstance(k=2, n_miners=2, mu=1.0, gamma=0.0, deadline=1.0)
    sol = cong.solve_congestion_nash(worked)
    loads = sol.allocation.loads
    if loads != (1, 1):
        problems.append(f"worked instance solved to {loads}, not (1, 1)")
    if abs(sol.potential_value - 1.264241) > 1e-6:
        problems.append(f"worked potential {sol.potential_value!r} != 1.264241 +- 1e-6")
    nash_loads = {a.loads for a in cong.all_nash_allocations(worked)}
    if (2, 0) in nash_loads or (0, 2) in nash_loads:
        problems.append("(2,0) wrongly accepted as an equilibrium")
    if (1, 1) not in nash_loads:
        problems.append("(1,1) missing from the equilibrium set")

    report(6, f"{count} instances (N<=10, K<=3, M=1) pass exhaustive deviation "
              "checks; worked instance gives (1,1) with potential 1.264241 and "
              "rejects (2,0)", problems)


def test_criterion_07_anarchy_ratio(report):
    problems: list[str] = []
    documented = cong.CongestionInstance(k=2, n_miners=2, mu=1.0, gamma=0.1,
                                         deadline=1.0)
    ratio = cong.price_of_crypto_anarchy(documented, zkpoi_cost=0.01).ratio
    if abs(ratio - 20.0) > 1e-9:
        problems.append(f"documented ratio {ratio!r} != 20.0 +- 1e-9")

    # scale consistency: with the equilibrium set unchanged, the ratio is
    # linear in gamma and inverse in the baseline cost
    for gamma in np.linspace(0.01, 0.1, 10):
        inst = cong.CongestionInstance(k=2, n_miners=2, mu=1.0, gamma=float(gamma),
                                       deadline=1.0)
        r1 = cong.price_of_crypto_anarchy(inst, zkpoi_cost=0.01).ratio
        r2 = cong.price_of_crypto_anarchy(inst, zkpoi_cost=0.02).ratio
        if abs(r1 * 0.01 / gamma - 2.0) > 1e-9:
            problems.append(f"gamma={gamma:.3f}: ratio {r1!r} is not 200*gamma")
        if abs(r1 - 2.0 * r2) > 1e-9:
            problems.append(f"gamma={gamma:.3f}: baseline doubling did not halve")

    report(7, "price-of-anarchy 20.0 +- 1e-9 on the documented instance; "
              "scale consistency holds across a 10-point gamma sweep", problems)


def test_criterion_08_shard_security(report):
    problems: list[str] = []
    draws = 100_000
    for idx, (n, m) in enumerate((n, m) for n in (3, 9, 30)
                                 for m in (0.05, 0.1, 0.5)):
        exact = shardgame.shard_failure_prob(n, m)
        mc = oracles.binomial_tail_mc(n, m, draws, seed=800 + idx)
        sigma = math.sqrt(max(exact * (1.0 - exact), 1e-300) / draws)
        if abs(mc - exact) > 3.0 * sigma + 1e-12:
            problems.append(f"(n={n}, m={m}): |{mc} - {exact}| > 3 sigma")

    for shards in (4, 16):
        for per_shard in (1e-4, 0.01):
            bounds = [shardgame.epoch_failure_bound(shards, per_shard, views)
                      for views in range(26)]
            limit = bounds[0][1]
            if any(abs(b[1] - (4.0 / 3.0) * shards * per_shard) > 1e-15
                   for b in bounds):
                problems.append(f"limit bound wrong at n={shards} P={per_shard}")
            if any(b[0] > limit for b in bounds):
                problems.append(f"a finite bound exceeds the limit at n={shards} "
                                f"P={per_shard}")
            if any(b2[0] <= b1[0] for b1, b2 in zip(bounds, bounds[1:])):
                problems.append(f"finite bounds not increasing at n={shards} "
                                f"P={per_shard}")

    report(8, "shard failure probability matches 1e5-draw Monte Carlo within "
              "3 sigma on 9 points; (4/3)nP dominates every finite-view bound",
           problems)


def test_criterion_09_circulation_grid(report):
    problems: list[str] = []
    betas = (0.5, 0.6, 0.7, 0.8, 0.9)
    etas = (0.2, 0.35, 0.5, 0.65, 0.8)
    alphas = (0.3, 0.75, 1.2, 1.6, 2.0)
    deltas = tuple(round(0.1 * i, 1) for i in range(1, 10))
    checked = 0
    for beta in betas:
        for eta in etas:
            for alpha in alphas:
                full_root = oracles.dm_output_full_root(beta, eta, alpha)
                for delta in deltas:
                    out = circ.stationary_dm_output(circ.CirculationParams(
                        beta_disc=beta, eta=eta, alpha_eff=alpha, delta=delta))
                    checked += 1
                    tag = f"(b={beta}, e={eta}, a={alpha}, d={delta})"
                    if not out["q_hat_full"] > out["q_hat_delta"]:
                        problems.append(f"{tag}: q_hat(1) <= q_hat(delta)")
                    if abs(out["q_hat_full"] - full_root) > 1e-9:
                        problems.append(f"{tag}: full closed form off the root")
                    delta_root = oracles.dm_output_delta_root(beta, eta, alpha, delta)
                    if abs(out["q_hat_delta"] - delta_root) > 1e-9:
                        problems.append(f"{tag}: delta closed form off the root")
                    if len(problems) > 8:
                        break

    spot = circ.stationary_dm_output(circ.CirculationParams(
        beta_disc=0.9, eta=0.5, alpha_eff=0.5, delta=0.5))
    if abs(spot["q_hat_full"] - 0.9) > 1e-12:
        problems.append(f"q_hat(1) spot {spot['q_hat_full']!r} != 0.9")
    if abs(spot["q_hat_delta"] - 0.818182) > 1e-6:
        problems.append(f"q_hat(0.5) spot {spot['q_hat_delta']!r} != 0.818182 +- 1e-6")

    report(9, f"{checked} grid points: q_hat(1) > q_hat(delta), closed forms "
              "match the root-finder to 1e-9; spot values 0.9 and 0.818182 hold",
           problems)


def test_criterion_10_network_effects(report):
    problems: list[str] = []

    # elasticity round trip at 1e5 joins
    true_alpha, true_beta = 1.3, 0.7
    state = network.NetworkState(m_a=100.0, m_b=50.0, c_a=80.0, c_b=40.0,
                                 lam=0.5, alpha=true_alpha, beta=true_beta)
    cust_a, cust_total, merch_a, merch_total = claims.sample_static_joins(
        state, 100_000, seed=10)
    alpha_hat, beta_hat = claims.estimate_elasticities(
        (cust_a, cust_total), (merch_a, merch_total), state)
    if abs(alpha_hat - true_alpha) > 0.1:
        problems.append(f"alpha estimate {alpha_hat:.4f} off by > 0.1")
    if abs(beta_hat - true_beta) > 0.1:
        problems.append(f"beta estimate {beta_hat:.4f} off by > 0.1")
    oracle_alpha = oracles.elasticity_from_tallies(cust_a / cust_total, 100.0, 50.0)
    if abs(alpha_hat - oracle_alpha) > 1e-12:
        problems.append("library and oracle elasticity formulas disagree")

    def terminal_share(alpha, seed):
        st = network.NetworkState(m_a=1.0, m_b=1.0, c_a=1.0, c_b=1.0,
                                  lam=0.5, alpha=alpha, beta=alpha)
        m_a, m_b, c_a, c_b = network.simulate_network_growth(st, 4000, seed)[-1]
        return (m_a + c_a) / (m_a + m_b + c_a + c_b)

    # strong feedback: winner-take-all in at least 95 of 100 seeded runs
    wta = sum(max(s, 1.0 - s) >= 0.9
              for s in (terminal_share(2.0, seed) for seed in range(100)))
    if wta < 95:
        problems.append(f"winner-take-all in only {wta}/100 runs")

    # weak feedback: every terminal share stays within 0.5 +- 0.1
    balanced = [terminal_share(0.5, seed) for seed in range(100)]
    strays = [s for s in balanced if abs(s - 0.5) > 0.1]
    if strays:
        problems.append(f"{len(strays)} balanced runs left 0.5 +- 0.1 "
                        f"(worst {max(strays, key=lambda s: abs(s - 0.5)):.3f})")

    steps = network.overtake_analysis(10.0, 0.5, 25.0, 0.0)["steps_needed"]
    if steps != 22.0:
        problems.append(f"overtake steps {steps!r} != 22.0")

    report(10, "elasticities recovered within 0.1 at 1e5 joins; winner-take-all "
               f"{wta}/100 at ab>1; all shares within 0.5 +- 0.1 at ab<1; "
               "overtake(10, 0.5) = 22", problems)


def test_criterion_11_ess_and_dominance(report):
    problems: list[str] = []

    strict = {("A", "A"): 3.0, ("A", "B"): 0.0, ("B", "A"): 2.0, ("B", "B"): 1.0}
    if not games.is_ess(strict, ("A", "B"), "A"):
        problems.append("strict-equilibrium case misclassified as not stable")
    tie = {("A", "A"): 1.0, ("B", "A"): 1.0, ("A", "B"): 1.0, ("B", "B"): 0.0}
    if not games.is_ess(tie, ("A", "B"), "A"):
        problems.append("tie-broken case misclassified as not stable")
    drift = {("A", "A"): 1.0, ("B", "A"): 1.0, ("A", "B"): 0.0, ("B", "B"): 0.0}
    if games.is_ess(drift, ("A", "B"), "A"):
        problems.append("neutral-drift case misclassified as stable")

    game = games.udce_vs_plfc_game(4, 1.5, 4.0, share_model="zipf",
                                   population=10_000, top_count=16, top_share=0.9)
    result = games.idsds(game)
    if result.unique_survivor != (games.UDCE,) * 4:
        problems.append(f"IDSDS survivor {result.unique_survivor}")
    matrix = claims.regime_tensor(game)
    reference = claims.iterated_strict_dominance(matrix)
    if reference.unique_survivor != result.unique_survivor:
        problems.append(f"generic IDSDS survivor {reference.unique_survivor}")
    if not reference.nash_verified:
        problems.append("surviving profile failed the equilibrium check")
    if not claims.is_pure_nash(matrix, (0, 0, 0, 0)):
        problems.append("all-UDCE profile is not an equilibrium of the matrix")
    if oracles.pure_nash_profiles(np.asarray(matrix.u)) != [(0, 0, 0, 0)]:
        problems.append("exhaustive oracle disagrees on the equilibrium set")

    report(11, "three stability cases classified correctly; calibrated "
               "top-16/90% matrix reduces to all-UDCE and passes the "
               "equilibrium check", problems)


def test_criterion_12_cli_determinism(report, capsys, tmp_path, child_env):
    problems: list[str] = []
    runs = [
        ("identity", "gen", {"params": {"count": 2}}),
        ("identity", "validate", {"params": {"count": 2}}),
        ("register", "build", {"params": {"count": 2, "kdf_iterations": 4}}),
        ("register", "verify", {"params": {"count": 2, "kdf_iterations": 4}}),
        ("registry", "register", {"params": {"count": 2, "kdf_iterations": 4}}),
        ("registry", "offline",
         {"params": {"count": 2, "kdf_iterations": 4, "offline_count": 1}}),
        ("registry", "dump", {"params": {"count": 2, "kdf_iterations": 4}}),
        ("sim", "epoch", {}),
        ("econ", "congestion", {}),
        ("econ", "poa", {"params": {"gamma": 0.1}}),
        ("econ", "dominance", {}),
        ("econ", "ess", {}),
        ("econ", "network", {"params": {"steps": 200}}),
        ("econ", "circulation", {}),
    ]
    for group, verb, doc in runs:
        argv = [group, verb, "--seed", "7"]
        if doc:
            cfg = tmp_path / f"{group}.{verb}.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
        outputs = []
        for _ in range(2):
            code = cli.main(argv)
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        if outputs[0][0] != 0:
            problems.append(f"{group}.{verb}: exit code {outputs[0][0]}")
        if outputs[0] != outputs[1]:
            problems.append(f"{group}.{verb}: repeated runs differ")

    # end to end in fresh interpreters; distinct hash seeds expose any
    # output that depends on str hashing
    launchers = {"fresh interpreter": [sys.executable, "-m", "zkpoi.cli"]}
    installed = shutil.which("zkpoi")
    if installed:
        launchers["installed binary"] = [installed]
    for name, launcher in launchers.items():
        procs = [subprocess.run([*launcher, "sim", "epoch", "--seed", "7"],
                                capture_output=True,
                                env=child_env(PYTHONHASHSEED=hash_seed))
                 for hash_seed in ("1", "2")]
        if procs[0].returncode != 0:
            problems.append(f"{name} exited nonzero")
        if (procs[0].stdout, procs[0].stderr) != (procs[1].stdout, procs[1].stderr):
            problems.append(f"{name} runs are not byte-identical")

    report(12, "all 14 scenarios plus fresh interpreter processes (and the "
               "installed binary when on PATH) produce byte-identical outputs "
               "on repeated equal-seed runs", problems)
