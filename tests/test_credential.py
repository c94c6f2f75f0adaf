"""Pseudonym derivation, registration bundles, and the transparent verifier."""

from __future__ import annotations

import dataclasses

import pytest

from zkpoi import attestation, credential, identity
from zkpoi.credential import (
    AA_MODE_ABSENT,
    AA_MODE_FULL,
    SUFFIX_OFF,
    SUFFIX_REG,
    Pseudonym,
    RegistrationBundle,
    build_registration_bundle,
    compute_signature_secret,
    derive_keypair,
    derive_pseudonym,
    verify_registration_bundle,
)
from zkpoi.crypto import SigningKey, hash_parts, pbkdf2_sha256
from zkpoi.errors import (
    DecodeError,
    EmptyPassphrase,
    InvalidBundle,
    InvalidDocument,
    NoActiveAuthentication,
)
from zkpoi.identity import (
    GENESIS,
    YEAR,
    FailureCode,
    HolderFields,
    active_auth_sign,
    active_auth_verify,
    generate_ca_hierarchy,
    issue_dsc,
    issue_epassport,
    issue_identity_cert,
    public_bytes_hash,
    public_document,
)
from zkpoi.registry import Registry

NOW = GENESIS + YEAR
WINDOW = (GENESIS, GENESIS + 10 * YEAR)
NETWORK = "chain-main"
ITERS = 8  # keep the KDF cheap inside the test suite


@pytest.fixture(scope="module")
def world():
    store, hierarchy = generate_ca_hierarchy(2, 1, seed=303)
    card = issue_identity_cert(hierarchy, hierarchy.issuers[0],
                               "Carol Example", "UID-C-01", WINDOW)
    csca = hierarchy.authority(sorted(hierarchy.authorities)[0])
    # the deepest issuer is an intermediate; find a root for passport signing
    roots = [name for name, auth in hierarchy.authorities.items()
             if auth.cert.issuer_name == auth.cert.subject_name]
    csca = hierarchy.authority(roots[0])
    dsc = issue_dsc(csca, "printer-1", WINDOW)
    holder = HolderFields(name="ROE RICHARD", document_number="Z7654321",
                          nationality="N00", birth_date="880202", sex="M",
                          expiry_date="470101", issuing_state=csca.name[:3].upper(),
                          personal_number="PN-77")
    passport = issue_epassport(csca, dsc, holder, with_aa=True, seed=21)
    plain_passport = issue_epassport(csca, dsc, holder, with_aa=False, seed=22)
    return store, hierarchy, card, passport, plain_passport


def build(doc, store, **kw):
    kw.setdefault("kdf_iterations", ITERS)
    return build_registration_bundle(doc, "hunter2 passphrase", NETWORK,
                                     store, NOW, **kw)


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------


class TestDeriveKeypair:
    def test_deterministic(self):
        a = derive_keypair("pw", b"d" * 32, ITERS)
        b = derive_keypair("pw", b"d" * 32, ITERS)
        assert a.public_bytes == b.public_bytes

    def test_sensitive_to_every_input(self):
        base = derive_keypair("pw", b"d" * 32, ITERS).public_bytes
        assert derive_keypair("pw2", b"d" * 32, ITERS).public_bytes != base
        assert derive_keypair("pw", b"e" * 32, ITERS).public_bytes != base
        assert derive_keypair("pw", b"d" * 32, ITERS + 1).public_bytes != base

    def test_v1_salt_frames_the_document_hash_twice(self):
        d, n = b"d" * 32, ITERS
        salt = hash_parts(b"kdf-salt", d, d, n.to_bytes(8, "big"))
        expected = SigningKey.from_seed(pbkdf2_sha256("pw", salt, n))
        assert derive_keypair("pw", d, n).public_bytes == expected.public_bytes

    def test_empty_passphrase_rejected(self):
        with pytest.raises(EmptyPassphrase):
            derive_keypair("", b"d" * 32, ITERS)

    def test_nonpositive_iterations_rejected(self):
        with pytest.raises(ValueError):
            derive_keypair("pw", b"d" * 32, 0)


# ---------------------------------------------------------------------------
# Pseudonyms
# ---------------------------------------------------------------------------


class TestPseudonym:
    def test_same_document_same_network_same_digest(self, world):
        _, _, card, *_ = world
        secret = compute_signature_secret(card)
        a = derive_pseudonym(secret, NETWORK, "UID-C-01")
        b = derive_pseudonym(secret, NETWORK, "UID-C-01")
        assert a == b

    def test_passphrase_does_not_enter_the_pseudonym(self, world):
        store, _, card, *_ = world
        bundle_a, _ = build_registration_bundle(card, "first passphrase", NETWORK,
                                                store, NOW, kdf_iterations=ITERS)
        bundle_b, _ = build_registration_bundle(card, "second passphrase", NETWORK,
                                                store, NOW, kdf_iterations=ITERS)
        assert bundle_a.pseudonym == bundle_b.pseudonym
        assert bundle_a.pk != bundle_b.pk  # but the wallet key does

    def test_networks_are_unlinkable(self, world):
        _, _, card, *_ = world
        secret = compute_signature_secret(card)
        a = derive_pseudonym(secret, "chain-a", "UID-C-01")
        b = derive_pseudonym(secret, "chain-b", "UID-C-01")
        assert a.digest != b.digest

    def test_framing_prevents_boundary_shifts(self):
        a = derive_pseudonym(b"secret", "netAB", "uid")
        b = derive_pseudonym(b"secret", "netA", "Buid")
        assert a.digest != b.digest

    def test_suffix_rides_beside_the_digest(self):
        reg = derive_pseudonym(b"secret", NETWORK, "uid", suffix=SUFFIX_REG)
        off = derive_pseudonym(b"secret", NETWORK, "uid", suffix=SUFFIX_OFF)
        assert reg.digest == off.digest
        assert reg != off
        assert reg.label().endswith(":REG") and off.label().endswith(":OFF")

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ValueError):
            Pseudonym(digest=b"\x00" * 32, suffix="XXX")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            derive_pseudonym(b"", NETWORK, "uid")
        with pytest.raises(ValueError):
            derive_pseudonym(b"secret", "", "uid")
        with pytest.raises(ValueError):
            derive_pseudonym(b"secret", NETWORK, "")


# ---------------------------------------------------------------------------
# Bundle generation and serialization
# ---------------------------------------------------------------------------


class TestBundleGeneration:
    def test_card_bundle_accepted(self, world):
        store, _, card, *_ = world
        bundle, key = build(card, store)
        assert bundle.pk == key.public_bytes
        verdict = verify_registration_bundle(bundle, store, NETWORK, NOW)
        assert verdict.accepted and verdict.code is None

    def test_passport_bundle_accepted(self, world):
        store, _, _, passport, _ = world
        bundle, _ = build(passport, store)
        assert verify_registration_bundle(bundle, store, NETWORK, NOW).accepted

    def test_round_trip_bytes(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        rebuilt = RegistrationBundle.from_bytes(bundle.to_bytes())
        assert rebuilt == bundle
        assert verify_registration_bundle(rebuilt, store, NETWORK, NOW).accepted

    def test_expired_document_refused_at_build(self, world):
        store, _, card, *_ = world
        with pytest.raises(InvalidDocument):
            build_registration_bundle(card, "pw", NETWORK, store, WINDOW[1] + 1,
                                      kdf_iterations=ITERS)

    def test_full_mode_requires_a_chip_key(self, world, monkeypatch):
        store, *_, plain_passport = world
        kdf_runs = []
        monkeypatch.setattr(credential, "pbkdf2_sha256", lambda *a: kdf_runs.append(a))
        with pytest.raises(NoActiveAuthentication, match="mode 'absent'"):
            build(plain_passport, store, aa_mode=AA_MODE_FULL)
        assert kdf_runs == []  # refused before the KDF runs

    @pytest.mark.parametrize("doc_index", [2, 3], ids=["card", "passport"])
    def test_absent_mode_refused_for_a_document_that_can_sign(self, world, doc_index,
                                                              monkeypatch):
        store, doc = world[0], world[doc_index]
        kdf_runs = []
        monkeypatch.setattr(credential, "pbkdf2_sha256", lambda *a: kdf_runs.append(a))
        with pytest.raises(ValueError, match="requires authentication mode 'full'"):
            build(doc, store, aa_mode=AA_MODE_ABSENT)
        assert kdf_runs == []

    def test_unknown_mode_rejected(self, world):
        store, _, card, *_ = world
        with pytest.raises(ValueError):
            build(card, store, aa_mode="partial")

    def test_a_bare_certificate_is_not_a_document(self, world):
        store, _, card, *_ = world
        with pytest.raises(TypeError, match="Certificate is not an identity document"):
            build(card.certificate, store)

    @pytest.mark.parametrize("doc_index, tag", [(2, "card-chain"), (3, "epassport")],
                             ids=["card", "passport"])
    def test_evidence_carries_the_wire_tag(self, world, doc_index, tag):
        store, doc = world[0], world[doc_index]
        bundle, _ = build(doc, store)
        assert bundle.evidence.doc_kind == tag
        assert RegistrationBundle.from_bytes(bundle.to_bytes()).evidence.doc_kind == tag

    def test_decoder_rejects_foreign_suffix(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        blob = bundle.to_bytes().replace(b"REG", b"XXX", 1)
        with pytest.raises(DecodeError):
            RegistrationBundle.from_bytes(blob)


# ---------------------------------------------------------------------------
# The wallet's record: each document's signature verified, its secret signed once
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_documents():
    """A trust store, a card and a chipped and a chipless passport that no
    wallet has built yet."""
    store, hierarchy = generate_ca_hierarchy(1, 1, seed=313)
    card = issue_identity_cert(hierarchy, hierarchy.issuers[0], "Dana Example",
                               "UID-F-01", WINDOW)
    csca = hierarchy.authority("Country-01 Root CA")
    dsc = issue_dsc(csca, "printer-f", WINDOW)
    holder = HolderFields(name="ROE RICHARD", document_number="F7654321",
                          nationality="N01", birth_date="880202", sex="M",
                          expiry_date="470101", issuing_state="N01", personal_number="PN-F")
    return (store, card, issue_epassport(csca, dsc, holder, with_aa=True, seed=31),
            issue_epassport(csca, dsc, holder, with_aa=False, seed=32))


class TestWalletRecord:
    @pytest.mark.parametrize("doc_index", [1, 2], ids=["card", "passport"])
    def test_second_build_verifies_nothing_and_signs_the_binding(
            self, fresh_documents, doc_index, verify_calls, sign_calls):
        store, doc = fresh_documents[0], fresh_documents[doc_index]
        first, _ = build(doc, store)
        # The document's own signature and its issuer's, which the store records.
        assert (len(verify_calls), len(sign_calls)) == (2, 2)
        verify_calls.clear()
        sign_calls.clear()
        second, key = build(doc, store, suffix=SUFFIX_OFF)
        assert (len(verify_calls), len(sign_calls)) == (0, 1)
        assert sign_calls == [hash_parts(b"zkpoi/active-auth/v1", key.public_bytes)]
        assert second.evidence.secret == first.evidence.secret
        assert second.pseudonym.digest == first.pseudonym.digest
        assert second.to_bytes() == build(doc, store, suffix=SUFFIX_OFF)[0].to_bytes()
        assert verify_registration_bundle(second, store, NETWORK, NOW).accepted

    @pytest.mark.parametrize("doc_index", [1, 2], ids=["card", "passport"])
    def test_a_replaced_copy_verifies_and_signs_again(self, fresh_documents, doc_index,
                                                      verify_calls, sign_calls):
        store, doc = fresh_documents[0], fresh_documents[doc_index]
        first, _ = build(doc, store)
        copy = dataclasses.replace(doc)
        assert copy == doc
        verify_calls.clear()
        sign_calls.clear()
        again, _ = build(copy, store)
        assert (len(verify_calls), len(sign_calls)) == (1, 2)  # the issuer's is recorded
        assert again.to_bytes() == first.to_bytes()

    @pytest.mark.parametrize("doc_index", [1, 2], ids=["card", "passport"])
    def test_window_and_trust_still_checked_after_a_build(self, fresh_documents, doc_index):
        store, doc = fresh_documents[0], fresh_documents[doc_index]
        build(doc, store)
        with pytest.raises(InvalidDocument) as expired:
            build_registration_bundle(doc, "pw", NETWORK, store, WINDOW[1] + 1,
                                      kdf_iterations=ITERS)
        assert expired.value.report.failure_code == FailureCode.EXPIRED
        untrusting, _ = generate_ca_hierarchy(1, 1, seed=314)
        with pytest.raises(InvalidDocument) as untrusted:
            build(doc, untrusting)
        assert untrusted.value.report.failure_code == FailureCode.NOT_TRUSTED
        build(doc, store)

    def test_a_refused_build_records_nothing(self, fresh_documents, verify_calls):
        """An untrusting store rejects the card after its leaf verified; the
        next build verifies the leaf again."""
        store, card, *_ = fresh_documents
        untrusting, _ = generate_ca_hierarchy(1, 1, seed=314)
        with pytest.raises(InvalidDocument):
            build(card, untrusting)
        assert verify_calls == [card.certificate.signature]
        build(card, store)
        assert verify_calls.count(card.certificate.signature) == 2

    def test_absent_mode_secret_is_derived_for_each_passphrase(self, fresh_documents):
        store, *_, plain = fresh_documents
        salt = hash_parts(b"degraded-secret-salt", public_bytes_hash(plain.public_bytes()))
        for passphrase in ("pw-one", "pw-two", "pw-one"):
            bundle, _ = build_registration_bundle(plain, passphrase, NETWORK, store, NOW,
                                                  aa_mode=AA_MODE_ABSENT,
                                                  kdf_iterations=ITERS)
            assert bundle.evidence.secret == pbkdf2_sha256(passphrase, salt, ITERS * 8)


# ---------------------------------------------------------------------------
# Verifier: one bundle per failing step
# ---------------------------------------------------------------------------


class TestVerifierSteps:
    def test_step3_garbage_evidence(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        broken = dataclasses.replace(
            bundle, evidence=dataclasses.replace(bundle.evidence, doc_bytes=b"garbage"))
        verdict = verify_registration_bundle(broken, store, NETWORK, NOW)
        assert (verdict.accepted, verdict.code) == (False, "step3")

    def test_step3_unknown_document_kind(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        foreign = dataclasses.replace(
            bundle, evidence=dataclasses.replace(bundle.evidence, doc_kind="driving-licence"))
        verdict = verify_registration_bundle(foreign, store, NETWORK, NOW)
        assert (verdict.accepted, verdict.code) == (False, "step3")
        assert verdict.reason.startswith("evidence does not decode")
        registry = Registry(store, NETWORK, seed=5)
        client = attestation.EnclaveIdentity("zkpoi-wallet", 1)
        session = registry.open_session(client)
        with pytest.raises(InvalidBundle, match="step3"):
            registry.register(attestation.seal(session, foreign.to_bytes()), session, NOW)
        assert registry.log == []

    def test_step3_invalid_utf8_unique_id(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        doc_bytes = bundle.evidence.doc_bytes
        assert doc_bytes.count(b"UID-C-01") == 1
        tampered = dataclasses.replace(bundle, evidence=dataclasses.replace(
            bundle.evidence, doc_bytes=doc_bytes.replace(b"UID-C-01", b"\xffID-C-01")))
        verdict = verify_registration_bundle(tampered, store, NETWORK, NOW)
        assert (verdict.accepted, verdict.code) == (False, "step3")
        assert "utf-8" in verdict.reason

    def test_step3_document_rejected(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        verdict = verify_registration_bundle(bundle, store, NETWORK, WINDOW[1] + 1)
        assert verdict.code == "step3"
        assert "Expired" in verdict.reason

    def test_step4_identifier_missing(self, world, resigned):
        store, hierarchy, card, *_ = world
        nameless = resigned(card, hierarchy.authority(card.certificate.issuer_name),
                            subject_name="Nameless", unique_id_field=None)
        bundle, _ = build(card, store)
        swapped = dataclasses.replace(
            bundle, evidence=dataclasses.replace(bundle.evidence,
                                                 doc_bytes=nameless.chain.to_bytes()))
        verdict = verify_registration_bundle(swapped, store, NETWORK, NOW)
        assert verdict.code == "step4"

    def test_step5_digest_does_not_recompute(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        forged = dataclasses.replace(
            bundle, pseudonym=Pseudonym(bytes(32), bundle.pseudonym.suffix))
        assert verify_registration_bundle(forged, store, NETWORK, NOW).code == "step5"

    def test_step5_wrong_network(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        assert verify_registration_bundle(bundle, store, "chain-other", NOW).code == "step5"

    def test_off_bundle_verifies(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store, suffix=SUFFIX_OFF)
        verdict = verify_registration_bundle(bundle, store, NETWORK, NOW)
        assert verdict.accepted
        assert verdict.unique_id == public_document(card).unique_id()

    @pytest.mark.parametrize("doc_index", [2, 3, 4], ids=["card", "passport", "plain"])
    def test_only_an_accepted_verdict_carries_the_document(self, world, doc_index):
        store, doc = world[0], world[doc_index]
        mode = AA_MODE_ABSENT if doc_index == 4 else AA_MODE_FULL
        bundle, _ = build(doc, store, aa_mode=mode)
        verdict = verify_registration_bundle(bundle, store, NETWORK, NOW)
        assert verdict.accepted
        assert verdict.unique_id == public_document(doc).unique_id()
        assert public_document(verdict.document).public_bytes() == bundle.evidence.doc_bytes
        assert "document" not in repr(verdict)
        rejected = verify_registration_bundle(bundle, store, "chain-other", NOW)
        assert rejected.code == "step5"
        assert rejected.unique_id is None and rejected.document is None

    def test_step6_rebound_wallet_key(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        forged = dataclasses.replace(bundle, pk=bytes(32))
        assert verify_registration_bundle(forged, store, NETWORK, NOW).code == "step6"

    def test_step6_missing_binding(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        forged = dataclasses.replace(bundle, sign_pk=None)
        assert verify_registration_bundle(forged, store, NETWORK, NOW).code == "step6"

    def test_step7_secret_signed_over_wrong_string(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        rogue_secret = active_auth_sign(card, b"some other context")
        rogue_pseudonym = derive_pseudonym(rogue_secret, NETWORK, "UID-C-01")
        forged = dataclasses.replace(
            bundle,
            pseudonym=rogue_pseudonym,
            evidence=dataclasses.replace(bundle.evidence, secret=rogue_secret))
        assert verify_registration_bundle(forged, store, NETWORK, NOW).code == "step7"

    def test_secret_verifies_against_document_key(self, world):
        _, _, card, *_ = world
        common = credential.PREFIXED_COMMON_STRING.encode("utf-8")
        secret = compute_signature_secret(card)
        assert active_auth_verify(card.chain.public_key(), common, secret)
        assert not active_auth_verify(card.chain.public_key(), common, secret[::-1])

    def test_secret_challenge_is_framed_once_per_process(self, world, monkeypatch):
        """Signing the secret and step 7 frame no challenge, and the secret
        and its check equal a per-call framing's."""
        store, _, card, *_ = world
        common = credential.PREFIXED_COMMON_STRING.encode("utf-8")
        real, framed = identity.hash_parts, []
        monkeypatch.setattr(identity, "hash_parts",
                            lambda *parts: framed.append(parts) or real(*parts))
        bundle, _ = build(dataclasses.replace(card), store)  # a copy signs afresh
        verdict = verify_registration_bundle(bundle, store, NETWORK, NOW)
        assert verdict.accepted
        assert not [parts for parts in framed if common in parts]
        monkeypatch.undo()
        assert bundle.evidence.secret == active_auth_sign(card, common)
        challenge = hash_parts(b"zkpoi/active-auth/v1", common)
        assert (card.chain.public_key(), bundle.evidence.secret, challenge) in verdict.checks


# ---------------------------------------------------------------------------
# Degraded path for documents without a chip key
# ---------------------------------------------------------------------------


class TestAbsentMode:
    def test_bundle_accepted_without_key_checks(self, world):
        store, *_, plain_passport = world
        bundle, _ = build(plain_passport, store, aa_mode=AA_MODE_ABSENT)
        assert bundle.sign_pk is None
        assert bundle.evidence.aa_mode == AA_MODE_ABSENT
        assert verify_registration_bundle(bundle, store, NETWORK, NOW).accepted

    def test_determinism_holds_per_passphrase(self, world):
        store, *_, plain_passport = world
        a, _ = build_registration_bundle(plain_passport, "pw-one", NETWORK, store,
                                         NOW, aa_mode=AA_MODE_ABSENT, kdf_iterations=ITERS)
        b, _ = build_registration_bundle(plain_passport, "pw-one", NETWORK, store,
                                         NOW, aa_mode=AA_MODE_ABSENT, kdf_iterations=ITERS)
        c, _ = build_registration_bundle(plain_passport, "pw-two", NETWORK, store,
                                         NOW, aa_mode=AA_MODE_ABSENT, kdf_iterations=ITERS)
        assert a.pseudonym == b.pseudonym
        assert a.pseudonym != c.pseudonym  # unlike the full path

    def test_degraded_secret_spends_eight_times_the_iterations(self, world):
        store, *_, plain_passport = world
        assert credential.AA_ABSENT_ITERATION_MULTIPLIER == 8
        bundle, _ = build(plain_passport, store, aa_mode=AA_MODE_ABSENT)
        digest = public_bytes_hash(plain_passport.public_bytes())
        expected = pbkdf2_sha256("hunter2 passphrase",
                                 hash_parts(b"degraded-secret-salt", digest), ITERS * 8)
        assert bundle.evidence.secret == expected

    def test_full_and_absent_pseudonyms_differ(self, world):
        store, _, _, passport, plain_passport = world
        full, _ = build(passport, store, aa_mode=AA_MODE_FULL)
        degraded, _ = build(plain_passport, store, aa_mode=AA_MODE_ABSENT)
        assert passport.unique_id() == plain_passport.unique_id()
        assert full.pseudonym.digest != degraded.pseudonym.digest

    @pytest.mark.parametrize("field, value, reason", [
        ("pk", b"", "wallet key is not 32 bytes"),
        ("pk", bytes(31), "wallet key is not 32 bytes"),
        ("sign_pk", bytes(64), "absent mode carries no key binding"),
        ("sign_pk", b"", "absent mode carries no key binding"),
    ], ids=["empty-pk", "short-pk", "key-binding", "empty-binding"])
    def test_framing_refused_at_step6(self, world, field, value, reason):
        store, *_, plain_passport = world
        bundle, _ = build(plain_passport, store, aa_mode=AA_MODE_ABSENT)
        verdict = verify_registration_bundle(dataclasses.replace(bundle, **{field: value}),
                                             store, NETWORK, NOW)
        assert (verdict.code, verdict.reason) == ("step6", reason)
        assert verify_registration_bundle(bundle, store, NETWORK, NOW).accepted


class TestModeFollowsTheDocument:
    """A document that publishes a signing key must sign: its bundle is
    full-mode, and only a chipless passport's bundle takes the degraded path."""

    @pytest.mark.parametrize("doc_index", [2, 3], ids=["card", "passport"])
    def test_downgrade_forged_from_public_bytes_refused_at_step6(self, world, doc_index,
                                                                 forge_degraded):
        store, doc = world[0], world[doc_index]
        verdict = verify_registration_bundle(forge_degraded(doc, NETWORK), store, NETWORK, NOW)
        assert verdict.code == "step6"
        assert verdict.reason == "the document requires authentication mode 'full'"

    def test_in_process_mode_outside_the_wire_set_refused_at_step6(self, world):
        store, _, card, *_ = world
        bundle, _ = build(card, store)
        rebound = dataclasses.replace(
            bundle, pk=bytes(32), sign_pk=None,
            evidence=dataclasses.replace(bundle.evidence, aa_mode="FULL"))
        assert verify_registration_bundle(rebound, store, NETWORK, NOW).code == "step6"

    def test_chipless_full_mode_claim_refused_at_step6(self, world, forge_degraded):
        store, *_, plain_passport = world
        claim = forge_degraded(plain_passport, NETWORK, aa_mode=AA_MODE_FULL)
        verdict = verify_registration_bundle(claim, store, NETWORK, NOW)
        assert verdict.code == "step6"
        assert verdict.reason == "the document requires authentication mode 'absent'"
