"""The three in-process workloads: inputs built from a seed, then rounds.

A workload object is built once per interpreter (its set-up: `import zkpoi`
and document or miner issuance) and then runs identical rounds. Every round
starts from a fresh registry and attempts the same operations in the same
order, so the counts of attempted and failed operations per round, and the
per-layer call counts, are fixed by the seed alone.

Each operation is timed on its own. Correctness is checked after the timed
part of a round against `checks`, which rebuilds the expected values
without the library.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

import checks
from zkpoi import accumulator, attestation, credential, identity, registry, shardgame
from zkpoi.errors import DuplicateIdentity, InvalidBundle, ReplayedRegProof

GENESIS, YEAR = identity.GENESIS, identity.YEAR
WINDOW = (GENESIS, GENESIS + 10 * YEAR)
NOW = GENESIS + YEAR
NETWORK = "chain-main"
CLIENT = attestation.EnclaveIdentity("zkpoi-wallet", 1)

clock = time.perf_counter_ns


class Round:
    """Timed operations of one round, and the problems found checking them."""

    def __init__(self):
        self.ops: list[tuple[str, int, bool]] = []  # (kind, ns, failed)
        self.problems: list[str] = []

    def attempt(self, kind: str, fn, check, *, known_fault: bool = False):
        """Time `fn()`; `check(result, exc)` names what is wrong, or None.

        A wrong outcome counts as a failed operation. Unless the operation
        exercises a known fault, it is also a correctness problem.
        """
        start = clock()
        try:
            result, exc = fn(), None
        except Exception as caught:  # the check decides whether it was expected
            result, exc = None, caught
        spent = clock() - start
        wrong = check(result, exc)
        self.ops.append((kind, spent, wrong is not None))
        if wrong is not None and not known_fault:
            self.problems.append(f"{kind}: {wrong}")
        return result


def expect_success(result, exc):
    return None if exc is None else f"raised {exc!r}"


def expect_raise(cls, message_prefix: str = ""):
    def check(result, exc):
        if isinstance(exc, cls) and str(exc).startswith(message_prefix):
            return None
        return f"expected {cls.__name__} {message_prefix!r}, got {exc!r}"
    return check


def open_registry(store, seed: int, **kwargs):
    reg = registry.Registry(store, NETWORK, seed=seed, **kwargs)
    policy = attestation.AttestationPolicy.expecting(CLIENT, reg.enclave)
    return reg, reg.open_session(CLIENT, policy)


# ---------------------------------------------------------------------------
# card_registration
# ---------------------------------------------------------------------------

CARD_IDENTITIES = 200
CARD_KDF_ITERATIONS = 4
FORGERIES_PER_KIND = 2
# Seed-independent issuer for the invalid-UTF-8 forgeries: the fault they
# hit does not depend on the documents, so neither does their count.
UTF8_FORGERY_SEED = 0x5EED


def _with_doc_bytes(bundle, doc_bytes: bytes):
    return dataclasses.replace(
        bundle, evidence=dataclasses.replace(bundle.evidence, doc_bytes=doc_bytes))


class CardRegistration:
    """Bar-1-shaped admissions, duplicates, renewals, replays and forgeries."""

    main_kind = "admit"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.store, hierarchy = identity.generate_ca_hierarchy(3, 2, seed=rng.getrandbits(63))
        self.registry_seed = rng.getrandbits(63)
        tag = rng.getrandbits(32)
        self.cards = []  # (card, unique id)
        for i in range(CARD_IDENTITIES):
            uid = f"UID-{tag:08x}-{i:06d}"
            issuer = hierarchy.issuers[i % len(hierarchy.issuers)]
            self.cards.append((identity.issue_identity_cert(
                hierarchy, issuer, f"Holder {tag:08x} {i:06d}", uid, WINDOW), uid))
        # A renewed certificate: new serial and key, the same holder identifier.
        self.renewals = [
            identity.issue_identity_cert(
                hierarchy, hierarchy.issuers[i % len(hierarchy.issuers)],
                card.certificate.subject_name, uid, WINDOW)
            for i, (card, uid) in enumerate(self.cards) if i % 20 == 0]
        self.forgeries = self._forgeries(hierarchy, tag, rng)

    def _forgeries(self, hierarchy, tag: int, rng: random.Random):
        """(label, bundle bytes, expected step, known fault) per forgery."""
        out = []
        serial = itertools.count()
        issuer = hierarchy.issuers[0]
        foreign_store, foreign = identity.generate_ca_hierarchy(1, 2, seed=rng.getrandbits(63))
        fixed_store, fixed = identity.generate_ca_hierarchy(1, 2, seed=UTF8_FORGERY_SEED)
        for n in range(FORGERIES_PER_KIND):
            def build(doc, store=self.store, now=NOW, passphrase=f"forger-{n}"):
                return credential.build_registration_bundle(
                    doc, passphrase, NETWORK, store, now,
                    kdf_iterations=CARD_KDF_ITERATIONS)[0]

            def card(h=hierarchy, name=issuer, window=WINDOW, uid=None):
                k = next(serial)
                return identity.issue_identity_cert(h, name, f"Forger {k:04d}",
                                                    uid or f"FORGED-{tag:08x}-{k:04d}", window)

            base = build(card())
            leaf = base.evidence.decode_document().leaf
            broken = dataclasses.replace(leaf, signature=bytes([leaf.signature[0] ^ 1])
                                         + leaf.signature[1:])
            chain = base.evidence.decode_document()
            out.append(("broken-signature", _with_doc_bytes(
                base, dataclasses.replace(chain, leaf=broken).to_bytes()), 3, False))

            short = (GENESIS, GENESIS + YEAR // 2)
            out.append(("expired", build(card(window=short), now=GENESIS + YEAR // 4), 3, False))

            out.append(("untrusted-root", build(card(h=foreign, name=foreign.issuers[0]),
                                                store=foreign_store), 3, False))

            victim = build(card())
            digest = victim.pseudonym.digest
            wrong = dataclasses.replace(victim.pseudonym,
                                        digest=bytes([digest[0] ^ 1]) + digest[1:])
            out.append(("wrong-pseudonym-digest",
                        dataclasses.replace(victim, pseudonym=wrong), 5, False))

            bound = build(card())
            other = build(card())
            out.append(("wrong-key-binding", dataclasses.replace(bound, pk=other.pk), 6, False))

            honest = build(card())
            secret = rng.randbytes(64)
            uid = honest.evidence.decode_document().leaf.unique_id_field
            pseudonym = credential.derive_pseudonym(secret, NETWORK, uid)
            out.append(("wrong-secret", dataclasses.replace(
                honest, pseudonym=pseudonym,
                evidence=dataclasses.replace(honest.evidence, secret=secret)), 7, False))

            uid = f"UTF8-{n:04d}"
            plain = build(card(h=fixed, name=fixed.issuers[0], uid=uid), store=fixed_store)
            tampered = plain.evidence.doc_bytes.replace(uid.encode(), b"\xff" + uid[1:].encode())
            out.append(("invalid-utf8", _with_doc_bytes(plain, tampered), 3, True))
        return [(label, bundle.to_bytes(), step, fault) for label, bundle, step, fault in out]

    def round(self) -> Round:
        rnd = Round()
        reg, session = open_registry(self.store, self.registry_seed)

        def register(card, passphrase):
            bundle, _ = credential.build_registration_bundle(
                card, passphrase, NETWORK, self.store, NOW,
                kdf_iterations=CARD_KDF_ITERATIONS)
            return bundle, reg.register(attestation.seal(session, bundle.to_bytes()),
                                        session, NOW)

        admitted = []
        for i, (card, uid) in enumerate(self.cards):
            out = rnd.attempt("admit", lambda: register(card, f"pp-{i}"), expect_success)
            if out is not None:
                admitted.append((out[0], out[1], uid))
        duplicate = expect_raise(DuplicateIdentity)
        for i, (card, _uid) in enumerate(self.cards):
            rnd.attempt("reject", lambda: register(card, f"other-pp-{i}"), duplicate)
        for i, card in enumerate(self.renewals):
            rnd.attempt("reject", lambda: register(card, f"renewed-pp-{i}"), duplicate)
        replay = expect_raise(ReplayedRegProof)
        for bundle, _entry, _uid in admitted[::20]:
            rnd.attempt("reject", lambda: reg.take_offline(
                attestation.seal(session, bundle.to_bytes()), session, NOW), replay)
        for _label, blob, step, fault in self.forgeries:
            rnd.attempt("reject", lambda: reg.register(
                attestation.seal(session, blob), session, NOW),
                expect_raise(InvalidBundle, f"bundle rejected at step{step}:"),
                known_fault=fault)

        if reg.online_count() != len(self.cards):
            rnd.problems.append(f"online count {reg.online_count()} != {len(self.cards)}")
        expected_log = [("register", e) for e in range(len(self.cards))]
        if [(rec["op"], rec["epoch"]) for rec in reg.log] != expected_log:
            rnd.problems.append("log is not one register record per identity, epochs 0..N-1")
        for (bundle, entry, uid), rec in zip(admitted, reg.log):
            digest = checks.pseudonym_digest(bundle.evidence.secret, NETWORK, uid)
            if entry.pseudonym.digest != digest or rec["pseudonym"] != f"{digest.hex()}:REG":
                rnd.problems.append(f"pseudonym of {uid} does not recompute")
        return rnd


# ---------------------------------------------------------------------------
# passport_churn
# ---------------------------------------------------------------------------

PASSPORTS = 400
PASSPORT_KDF_ITERATIONS = 512  # the CLI default
NO_AA_EVERY = 8  # every 8th passport has no chip key: the degraded path
CHURN_EVERY = 4  # after every 4th admission an earlier holder leaves and returns
ROOT_CHECK_EVERY = 25


class PassportChurn:
    """Witness reads interleaved with admissions, removals and returns."""

    main_kind = "admit"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.store, hierarchy = identity.generate_ca_hierarchy(3, 0, seed=rng.getrandbits(63))
        cscas = [hierarchy.authorities[name] for name in hierarchy.issuers]
        dscs = [identity.issue_dsc(c, f"signer-{i}", WINDOW) for i, c in enumerate(cscas)]
        self.registry_seed = rng.getrandbits(63)
        self.domain = checks.accumulator_domain(self.registry_seed)
        self.holders = []  # (passport, passphrase, aa mode, element, own leaf)
        self.problems: list[str] = []
        tag = rng.getrandbits(32)
        chip_seed = rng.getrandbits(48)
        for i in range(PASSPORTS):
            c = i % len(cscas)
            birth = (f"{rng.randrange(40, 100):02d}{rng.randrange(1, 13):02d}"
                     f"{rng.randrange(1, 29):02d}")
            fields = identity.HolderFields(
                name=f"HOLDER{tag:08X}{i:06d}", document_number=f"P{i:07d}",
                nationality=f"N{c:02d}", birth_date=birth, sex="FM"[i % 2],
                expiry_date="450101", issuing_state=f"N{c:02d}",
                personal_number=f"PN-{tag:08x}-{i:06d}")
            with_aa = i % NO_AA_EVERY != NO_AA_EVERY - 1
            doc = identity.issue_epassport(cscas[c], dscs[c], fields, with_aa=with_aa,
                                           seed=chip_seed + i)
            element = registry.encode_attributes(registry.default_identity_attributes(doc))
            own = checks.encode_attributes(("epassport", fields.name, birth, fields.nationality))
            if own != element:
                self.problems.append(f"attribute encoding of holder {i} differs")
            mode = credential.AA_MODE_FULL if with_aa else credential.AA_MODE_ABSENT
            self.holders.append((doc, f"pass-{tag:08x}-{i}", mode, element,
                                 checks.accumulator_leaf(self.domain, own)))

    def round(self) -> Round:
        rnd = Round()
        rnd.problems.extend(self.problems)
        reg, session = open_registry(self.store, self.registry_seed,
                                     allow_reregistration=True)
        leaves: set[bytes] = set()
        published = 0

        def witness(element):
            root = reg.accumulator.root
            proof = accumulator.accumulator_non_membership(reg.accumulator, element)
            return root, accumulator.accumulator_verify_non_membership(root, element, proof)

        def witness_ok(result, exc):
            if exc is not None:
                return f"raised {exc!r}"
            return None if result[1] else "non-membership witness does not verify"

        def submit(holder, suffix, action):
            doc, passphrase, mode, _element, _leaf = holder
            bundle, _ = credential.build_registration_bundle(
                doc, passphrase, NETWORK, self.store, NOW, aa_mode=mode, suffix=suffix,
                kdf_iterations=PASSPORT_KDF_ITERATIONS)
            return action(attestation.seal(session, bundle.to_bytes()), session, NOW)

        def admit(holder):
            nonlocal published
            out = rnd.attempt("witness", lambda: witness(holder[3]), witness_ok)
            if out is not None:
                published += 1
                if published % ROOT_CHECK_EVERY == 0 and out[0] != checks.accumulator_root(
                        self.domain, leaves):
                    rnd.problems.append(f"published root {published} does not recompute")
            entry = rnd.attempt("admit", lambda: submit(holder, credential.SUFFIX_REG,
                                                        reg.register), expect_success)
            if entry is not None:
                leaves.add(holder[4])
                if entry.status != registry.STATUS_ONLINE:
                    rnd.problems.append("an admitted holder is not online")

        for i, holder in enumerate(self.holders):
            admit(holder)
            if i % CHURN_EVERY == CHURN_EVERY - 1:
                leaving = self.holders[i - 2]
                entry = rnd.attempt("offline", lambda: submit(
                    leaving, credential.SUFFIX_OFF, reg.take_offline), expect_success)
                if entry is not None:
                    leaves.discard(leaving[4])
                    if entry.status != registry.STATUS_OFFLINE:
                        rnd.problems.append("a removed holder is still online")
                admit(leaving)

        if reg.online_count() != len(self.holders):
            rnd.problems.append(f"online count {reg.online_count()} != {len(self.holders)}")
        if reg.accumulator.count != len(leaves) or len(leaves) != len(self.holders):
            rnd.problems.append("accumulator count is not admissions minus removals")
        if reg.accumulator.root != checks.accumulator_root(self.domain, leaves):
            rnd.problems.append("final accumulator root does not recompute")
        return rnd


# ---------------------------------------------------------------------------
# shard_epochs
# ---------------------------------------------------------------------------

BAR4_EPOCHS = 16
HONEST_PAIRS = 4
PAIR_SHARDS, PAIR_MINERS, PAIR_TXS = 2, 10, 8
BAR4_PARAMS = shardgame.GameParams(k=1, n_miners=9, committee_min=2, quorum=4,
                                   tx_reward=1.0, block_reward=100.0, fixed_cost=2.0,
                                   per_tx_cost=0.1, penalty=5.0)
LARGE_PARAMS = shardgame.GameParams(k=4, n_miners=64, committee_min=4, quorum=8,
                                    tx_reward=1.0, block_reward=100.0, fixed_cost=2.0,
                                    per_tx_cost=0.1, penalty=5.0)
LARGE_BEHAVIORS = {shardgame.BEHAVIOR_LAZY: 4, shardgame.BEHAVIOR_FALSE_HASH: 2,
                   shardgame.BEHAVIOR_IGNORER: 2}


class ShardEpochs:
    """Bar-4-shape epochs, a 64-miner committee and all-honest pairs."""

    main_kind = "epoch"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # (label, protocol, params, miners, randomness, txs per shard)
        self.epochs = []
        bar4 = shardgame.make_miners(9, rng.getrandbits(63), {shardgame.BEHAVIOR_LAZY: 3})
        for _ in range(BAR4_EPOCHS):
            self.epochs.append(("bar4", "receipts", BAR4_PARAMS, bar4,
                                rng.randbytes(32), 8))
        large = shardgame.make_miners(64, rng.getrandbits(63), LARGE_BEHAVIORS)
        self.epochs.append(("large", "receipts", LARGE_PARAMS, large, rng.randbytes(32), 16))
        # Pair sizes are fixed so that the cost of a round does not depend on
        # the seed; the rewards and costs that steer decisions are drawn.
        for trial in range(HONEST_PAIRS):
            params = shardgame.GameParams(
                k=PAIR_SHARDS, n_miners=PAIR_MINERS, committee_min=1,
                quorum=rng.randint(1, PAIR_MINERS // PAIR_SHARDS),
                tx_reward=rng.uniform(0.1, 2.0), block_reward=rng.uniform(0.0, 150.0),
                fixed_cost=rng.uniform(0.0, 5.0), per_tx_cost=rng.uniform(0.0, 0.5),
                penalty=rng.uniform(0.0, 8.0))
            randomness = rng.randbytes(32)
            miner_seed = rng.getrandbits(63)
            for protocol in ("coordinated", "receipts"):
                miners = shardgame.make_miners(PAIR_MINERS, miner_seed)
                self.epochs.append((f"pair{trial}", protocol, params, miners, randomness,
                                    PAIR_TXS))
        self.bar4_epochs = 0
        self.bar4_caught = 0

    def round(self) -> Round:
        rnd = Round()
        pairs: dict[str, list] = {}
        for label, protocol, params, miners, randomness, txs in self.epochs:
            if protocol == "coordinated":
                def run():
                    return shardgame.run_coordinated_protocol(params, miners, randomness,
                                                              txs_per_shard=txs)
            else:
                def run():
                    return shardgame.run_receipt_protocol(params, miners, randomness,
                                                          txs_per_shard=txs,
                                                          receipt_sample_size=3)
            outcome = rnd.attempt("epoch", run, expect_success)
            if outcome is None:
                continue
            self._check_payoffs(rnd, label, params, miners, outcome)
            if label == "bar4":
                self.bar4_epochs += 1
                self.bar4_caught += all(
                    outcome.payoffs[m.miner_id] == -params.penalty
                    for m in miners if m.behavior == shardgame.BEHAVIOR_LAZY)
            elif label.startswith("pair"):
                pairs.setdefault(label, []).append(outcome.payoff_vector())
        for label, vectors in pairs.items():
            if len(vectors) == 2 and vectors[0] != vectors[1]:
                rnd.problems.append(f"{label}: all-honest payoff vectors differ")
        return rnd

    @staticmethod
    def _check_payoffs(rnd: Round, label, params, miners, outcome) -> None:
        by_id = {m.miner_id: m for m in miners}
        for shard in outcome.shards:
            for miner_id in shard.cooperators:
                expected = checks.cooperator_payoff(
                    params.block_reward, params.k, shard.l_j, params.tx_reward,
                    len(shard.common_txs), params.fixed_cost, len(by_id[miner_id].tx_list),
                    params.per_tx_cost)
                if not checks.payoff_matches(outcome.payoffs[miner_id], expected):
                    rnd.problems.append(f"{label}: cooperator {miner_id} payoff "
                                        f"{outcome.payoffs[miner_id]!r} != {expected!r}")

    def final_problems(self) -> list[str]:
        if self.bar4_epochs and self.bar4_caught < 0.99 * self.bar4_epochs:
            return [f"lazy miners all penalized in {self.bar4_caught}/{self.bar4_epochs} "
                    "bar-4-shape epochs (< 99%)"]
        return []


WORKLOADS = {
    "card_registration": CardRegistration,
    "passport_churn": PassportChurn,
    "shard_epochs": ShardEpochs,
}
