"""Pseudonym registry: admission, uniqueness, retirement, host-side views,
and the set accumulator underneath."""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkpoi import attestation
from zkpoi.accumulator import (
    MembershipWitness,
    accumulator_generate,
    accumulator_non_membership,
    accumulator_remove,
    accumulator_verify,
    accumulator_verify_non_membership,
)
from zkpoi.credential import (
    AA_MODE_ABSENT,
    SUFFIX_OFF,
    SUFFIX_REG,
    build_registration_bundle,
    derive_pseudonym,
)
from zkpoi.crypto import ByteStream, hmac_sha256
from zkpoi.errors import (
    AlreadyMember,
    DuplicateIdentity,
    DuplicateReason,
    InvalidBundle,
    MeasurementMismatch,
    MissingIdentifier,
    NoSession,
    NotMember,
    ReplayedRegProof,
    UnknownPseudonym,
    WrongSession,
    ZkpoiError,
)
from zkpoi.identity import (
    GENESIS,
    YEAR,
    CertChain,
    Certificate,
    EPassport,
    HolderFields,
    active_auth_sign,
    generate_ca_hierarchy,
    issue_dsc,
    issue_epassport,
    issue_identity_cert,
)
from zkpoi.registry import (
    STATUS_OFFLINE,
    STATUS_ONLINE,
    WALLET_ENCLAVE,
    EncryptedIdDB,
    Registry,
    default_identity_attributes,
    encode_attributes,
)

NOW = GENESIS + YEAR
WINDOW = (GENESIS, GENESIS + 10 * YEAR)
NETWORK = "chain-main"
ITERS = 8
CLIENT = attestation.EnclaveIdentity("zkpoi-wallet", 1)


@pytest.fixture(scope="module")
def world():
    store, hierarchy = generate_ca_hierarchy(2, 1, seed=404)
    return store, hierarchy


@pytest.fixture()
def registry(world):
    store, _ = world
    return Registry(store, NETWORK, seed=11)


def make_card(hierarchy, index, *, subject=None, uid=None):
    return issue_identity_cert(hierarchy, hierarchy.issuers[index % 2],
                               subject or f"Subject {index:03d}",
                               uid or f"UID-R-{index:03d}", WINDOW)


def passport_issuer(seed):
    """A trust store with one country root and a document signer under it."""
    store, hierarchy = generate_ca_hierarchy(1, 0, seed=seed)
    csca = hierarchy.authority(hierarchy.issuers[0])
    return store, csca, issue_dsc(csca, "printer-1", WINDOW)


def make_holder(index, **overrides):
    return dataclasses.replace(HolderFields(
        name=f"HOLDER{index}", document_number=f"P{index:07d}", nationality="N00",
        birth_date="900101", sex="F", expiry_date="450101", issuing_state="N00"), **overrides)


def with_document(bundle, doc):
    """`bundle` disclosing `doc` instead of its own document."""
    return dataclasses.replace(bundle, evidence=dataclasses.replace(
        bundle.evidence, doc_bytes=doc.public_bytes()))


def with_secret(bundle, secret, unique_id):
    """`bundle` carrying `secret`, with the pseudonym recomputed to match."""
    return dataclasses.replace(
        bundle, pseudonym=derive_pseudonym(secret, NETWORK, unique_id),
        evidence=dataclasses.replace(bundle.evidence, secret=secret))


def make_bundle(card, store, passphrase="holder passphrase", suffix=SUFFIX_REG):
    bundle, _ = build_registration_bundle(card, passphrase, NETWORK, store, NOW,
                                          suffix=suffix, kdf_iterations=ITERS)
    return bundle


def sealed(session, bundle):
    return attestation.seal(session, bundle.to_bytes())


def unbound(card, store):
    """A fresh-passphrase bundle of `card` carrying a wallet key its key
    binding does not sign."""
    bundle = make_bundle(card, store, passphrase="another passphrase")
    return dataclasses.replace(bundle, pk=make_bundle(card, store, passphrase="a third").pk)


# ---------------------------------------------------------------------------
# Admission and uniqueness
# ---------------------------------------------------------------------------


class TestRegister:
    def test_admits_fresh_identity(self, world, registry):
        store, hierarchy = world
        card = make_card(hierarchy, 0)
        bundle = make_bundle(card, store)
        session = registry.open_session(CLIENT)
        entry = registry.register(sealed(session, bundle), session, NOW)
        assert entry.status == STATUS_ONLINE
        assert entry.registered_at == 0
        assert registry.online_count() == 1
        assert registry.host_view()["log"][0]["op"] == "register"

    def test_same_document_cannot_register_twice(self, world, registry):
        store, hierarchy = world
        card = make_card(hierarchy, 1)
        session = registry.open_session(CLIENT)
        registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        # a different passphrase changes the wallet key but not the identity
        retry = make_bundle(card, store, passphrase="another passphrase")
        with pytest.raises(DuplicateIdentity) as caught:
            registry.register(sealed(session, retry), session, NOW)
        assert caught.value.reason is DuplicateReason.IDENTIFIER

    def test_same_identifier_on_a_new_document_is_caught(self, world, registry):
        store, hierarchy = world
        first = make_card(hierarchy, 2, uid="UID-SHARED")
        second = make_card(hierarchy, 3, uid="UID-SHARED")
        session = registry.open_session(CLIENT)
        registry.register(sealed(session, make_bundle(first, store)), session, NOW)
        with pytest.raises(DuplicateIdentity) as caught:
            registry.register(sealed(session, make_bundle(second, store)), session, NOW)
        assert caught.value.reason is DuplicateReason.IDENTIFIER
        assert str(caught.value) == "identifier already registered"

    def test_same_personal_attributes_are_caught(self, world, registry):
        store, hierarchy = world
        first = make_card(hierarchy, 4, subject="Twin Holder", uid="UID-T-1")
        second = make_card(hierarchy, 4, subject="Twin Holder", uid="UID-T-2")
        session = registry.open_session(CLIENT)
        registry.register(sealed(session, make_bundle(first, store)), session, NOW)
        with pytest.raises(DuplicateIdentity) as caught:
            registry.register(sealed(session, make_bundle(second, store)), session, NOW)
        assert caught.value.reason is DuplicateReason.ATTRIBUTES
        assert str(caught.value) == "personal attributes already registered"

    def test_retired_pseudonym_is_caught_once_reregistration_is_closed(self, world):
        store, hierarchy = world
        registry = Registry(store, NETWORK, seed=13, allow_reregistration=True)
        card = make_card(hierarchy, 31)
        session = registry.open_session(CLIENT)
        registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        off = make_bundle(card, store, suffix=SUFFIX_OFF)
        registry.take_offline(sealed(session, off), session, NOW)  # releases the identifier
        registry.allow_reregistration = False
        with pytest.raises(DuplicateIdentity) as caught:
            registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        assert caught.value.reason is DuplicateReason.PSEUDONYM
        assert str(caught.value) == "pseudonym already registered"

    def test_reasons_are_plain_strings(self):
        assert [r.value for r in DuplicateReason] == ["identifier", "pseudonym", "attributes"]
        assert DuplicateReason.ATTRIBUTES == "attributes"

    def test_distinct_identities_coexist(self, world, registry):
        store, hierarchy = world
        session = registry.open_session(CLIENT)
        for i in range(5, 9):
            registry.register(sealed(session, make_bundle(make_card(hierarchy, i), store)),
                              session, NOW)
        assert registry.online_count() == 4
        assert registry.epoch == 4

    def test_off_suffix_bundle_cannot_register(self, world, registry):
        store, hierarchy = world
        bundle = make_bundle(make_card(hierarchy, 9), store, suffix=SUFFIX_OFF)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle):
            registry.register(sealed(session, bundle), session, NOW)

    def test_expired_document_rejected_with_step(self, world, registry):
        store, hierarchy = world
        bundle = make_bundle(make_card(hierarchy, 10), store)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step3"):
            registry.register(sealed(session, bundle), session, WINDOW[1] + 1)

    @pytest.mark.parametrize("date", ["991399", "ABCDEF", "45010"])
    def test_malformed_passport_expiry_rejected_with_step(self, resigned, date):
        """The registry re-validates the disclosed document: a trusted signer's
        passport with an expiry that is not YYMMDD is refused at step 3."""
        store, csca, dsc = passport_issuer(406)
        passport = issue_epassport(csca, dsc, make_holder(1), with_aa=True, seed=1)
        forged = with_document(make_bundle(passport, store),
                               resigned(passport, dsc, expiry_date=date))
        registry = Registry(store, NETWORK, seed=20)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step3: document rejected: GrammarError"):
            registry.register(sealed(session, forged), session, NOW)
        assert registry.online_count() == 0

    def test_empty_secret_rejected_at_step5(self, world, registry):
        store, hierarchy = world
        bundle = make_bundle(make_card(hierarchy, 11), store)
        emptied = dataclasses.replace(bundle, evidence=dataclasses.replace(
            bundle.evidence, secret=b""))
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step5: pseudonym secret is empty"):
            registry.register(sealed(session, emptied), session, NOW)

    def test_empty_card_identifier_rejected_at_step4(self, world, registry, resigned):
        store, hierarchy = world
        card = make_card(hierarchy, 12)
        anonymous = resigned(card, hierarchy.authority(card.certificate.issuer_name),
                             unique_id_field="")
        with pytest.raises(MissingIdentifier):
            make_bundle(anonymous, store)
        forged = with_document(make_bundle(card, store), anonymous.chain)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step4"):
            registry.register(sealed(session, forged), session, NOW)

    def test_empty_personal_number_rejected_at_step4(self, resigned):
        store, csca, dsc = passport_issuer(406)
        passport = issue_epassport(csca, dsc, make_holder(1, personal_number="PN-1"),
                                   with_aa=True, seed=1)
        emptied = resigned(passport, dsc, dg11_personal_number="")
        with pytest.raises(MissingIdentifier):
            make_bundle(emptied, store)
        registry = Registry(store, NETWORK, seed=20)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step4"):
            registry.register(sealed(session, with_document(make_bundle(passport, store), emptied)),
                              session, NOW)

    @pytest.mark.parametrize("date", ["991399", "ABCDEF", ""])
    def test_malformed_birth_date_rejected_at_step3(self, resigned, date):
        """The birth date is an accumulator attribute: a trusted signer's
        passport whose birth date is not YYMMDD is refused at step 3."""
        store, csca, dsc = passport_issuer(406)
        passport = issue_epassport(csca, dsc, make_holder(1), with_aa=True, seed=1)
        forged = with_document(make_bundle(passport, store),
                               resigned(passport, dsc, birth_date=date))
        registry = Registry(store, NETWORK, seed=20)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step3: document rejected: GrammarError"):
            registry.register(sealed(session, forged), session, NOW)
        assert registry.online_count() == 0

    @pytest.mark.parametrize("kind", ["card", "passport"])
    def test_downgrade_forged_from_public_bytes_refused_at_step6(self, world, kind,
                                                                 forge_degraded):
        """A degraded-path bundle for a document that can sign, made by
        anyone who has seen its public bytes, is refused; the holder's own
        bundle is admitted after it."""
        store, hierarchy = world
        if kind == "card":
            doc = make_card(hierarchy, 14)
        else:
            store, csca, dsc = passport_issuer(407)
            doc = issue_epassport(csca, dsc, make_holder(2), with_aa=True, seed=3)
        registry = Registry(store, NETWORK, seed=21)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step6: the document requires "
                                                "authentication mode 'full'"):
            registry.register(sealed(session, forge_degraded(doc, NETWORK)), session, NOW)
        assert registry.online_count() == 0
        entry = registry.register(sealed(session, make_bundle(doc, store)), session, NOW)
        assert entry.status == STATUS_ONLINE
        assert registry.online_count() == 1

    def test_chipless_passport_admitted_on_the_degraded_path(self):
        store, csca, dsc = passport_issuer(408)
        doc = issue_epassport(csca, dsc, make_holder(3), with_aa=False, seed=4)
        bundle, _ = build_registration_bundle(doc, "holder passphrase", NETWORK, store, NOW,
                                              aa_mode=AA_MODE_ABSENT, kdf_iterations=ITERS)
        registry = Registry(store, NETWORK, seed=22)
        session = registry.open_session(CLIENT)
        entry = registry.register(sealed(session, bundle), session, NOW)
        assert entry.status == STATUS_ONLINE

    @pytest.mark.parametrize("field, value, reason", [
        ("pk", b"", "wallet key is not 32 bytes"),
        ("pk", bytes(33), "wallet key is not 32 bytes"),
        ("sign_pk", bytes(64), "absent mode carries no key binding"),
    ], ids=["empty-pk", "long-pk", "key-binding"])
    def test_degraded_path_framing_refused_at_step6(self, field, value, reason):
        """A chipless passport's own bundle with a wallet key that is no
        Ed25519 key, or with a key binding, is refused; the honest one is
        admitted after it."""
        store, csca, dsc = passport_issuer(409)
        doc = issue_epassport(csca, dsc, make_holder(4), with_aa=False, seed=5)
        bundle, _ = build_registration_bundle(doc, "holder passphrase", NETWORK, store, NOW,
                                              aa_mode=AA_MODE_ABSENT, kdf_iterations=ITERS)
        registry = Registry(store, NETWORK, seed=23)
        session = registry.open_session(CLIENT)
        mutant = dataclasses.replace(bundle, **{field: value})
        with pytest.raises(InvalidBundle, match=f"step6: {reason}"):
            registry.register(sealed(session, mutant), session, NOW)
        assert registry.online_count() == 0
        entry = registry.register(sealed(session, bundle), session, NOW)
        assert entry.status == STATUS_ONLINE


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class TestSessions:
    def test_missing_session_rejected(self, world, registry):
        with pytest.raises(NoSession):
            registry.register(b"whatever", None, NOW)

    @pytest.mark.parametrize("operation", ["register", "take_offline"])
    def test_non_session_object_rejected(self, world, registry, operation):
        # Names this registry as its server, but no handshake made it.
        stand_in = SimpleNamespace(server=registry.enclave)
        with pytest.raises(NoSession):
            getattr(registry, operation)(b"whatever", stand_in, NOW)

    @pytest.mark.parametrize("client", [attestation.EnclaveIdentity("not-a-wallet", 0),
                                        attestation.EnclaveIdentity("zkpoi-wallet", 2)],
                             ids=["foreign-name", "other-version"])
    def test_only_the_wallet_client_opens_a_session(self, registry, client):
        with pytest.raises(MeasurementMismatch) as caught:
            registry.open_session(client)
        assert caught.value.side == "client"
        assert registry.open_session(WALLET_ENCLAVE).client == WALLET_ENCLAVE

    def test_session_with_foreign_server_rejected(self, world, registry):
        other = attestation.EnclaveIdentity("some-other-service", 1)
        policy = attestation.AttestationPolicy.expecting(CLIENT, other)
        session = attestation.mutual_attest(CLIENT, other, policy, rng=ByteStream(b"other"))
        with pytest.raises(NoSession):
            registry.register(b"whatever", session, NOW)

    def test_payload_sealed_under_another_session_rejected(self, world, registry):
        store, hierarchy = world
        bundle = make_bundle(make_card(hierarchy, 11), store)
        session_a = registry.open_session(CLIENT)
        session_b = registry.open_session(CLIENT)
        blob = sealed(session_a, bundle)
        with pytest.raises(WrongSession):
            registry.register(blob, session_b, NOW)

    def test_garbage_payload_rejected(self, world, registry):
        session = registry.open_session(CLIENT)
        blob = attestation.seal(session, b"not a registration bundle")
        with pytest.raises(InvalidBundle):
            registry.register(blob, session, NOW)

    def test_client_tokens_fresh_per_session(self, registry):
        a = registry.open_session(CLIENT)
        b = registry.open_session(CLIENT)
        assert a.client_token != b.client_token

    def test_session_alone_cannot_lock_out_a_holder(self):
        """A session holder who knows only a passport holder's public
        attributes seals them and offers them to every registry method that
        takes a session; the holder's own bundle still registers."""
        store, csca, dsc = passport_issuer(410)
        holder = make_holder(7)
        passport = issue_epassport(csca, dsc, holder, with_aa=True, seed=7)
        public = ("epassport", holder.name, holder.birth_date, holder.nationality)
        assert public == default_identity_attributes(passport)
        registry = Registry(store, NETWORK, seed=21)
        attacker = registry.open_session(CLIENT)
        entry_points = [method for name, method in inspect.getmembers(registry, inspect.ismethod)
                        if not name.startswith("_")
                        and "session" in inspect.signature(method).parameters]
        assert {m.__name__ for m in entry_points} >= {"register", "take_offline"}
        for method in entry_points:
            args = {name: attacker if name == "session" else NOW if name == "now"
                    else attestation.seal(attacker, encode_attributes(public))
                    for name in inspect.signature(method).parameters}
            with contextlib.suppress(ZkpoiError):
                method(**args)
        session = registry.open_session(CLIENT)
        entry = registry.register(sealed(session, make_bundle(passport, store)), session, NOW)
        assert entry.status == STATUS_ONLINE


# ---------------------------------------------------------------------------
# Retirement and re-registration policy
# ---------------------------------------------------------------------------


class TestTakeOffline:
    def register_one(self, world, registry, index, passphrase="holder passphrase"):
        store, hierarchy = world
        card = make_card(hierarchy, index)
        session = registry.open_session(CLIENT)
        bundle = make_bundle(card, store, passphrase=passphrase)
        registry.register(sealed(session, bundle), session, NOW)
        return card, session

    def test_off_bundle_retires_entry(self, world, registry):
        store, _ = world
        card, session = self.register_one(world, registry, 20)
        off = make_bundle(card, store, suffix=SUFFIX_OFF)
        entry = registry.take_offline(sealed(session, off), session, NOW)
        assert entry.status == STATUS_OFFLINE
        assert registry.online_count() == 0
        assert registry.host_view()["log"][-1]["op"] == "offline"

    def test_replayed_registration_proof_rejected(self, world, registry):
        store, _ = world
        card, session = self.register_one(world, registry, 21)
        reg_again = make_bundle(card, store, suffix=SUFFIX_REG)
        with pytest.raises(ReplayedRegProof):
            registry.take_offline(sealed(session, reg_again), session, NOW)

    def test_unknown_pseudonym_rejected(self, world, registry):
        store, hierarchy = world
        never_registered = make_card(hierarchy, 22)
        off = make_bundle(never_registered, store, suffix=SUFFIX_OFF)
        session = registry.open_session(CLIENT)
        with pytest.raises(UnknownPseudonym):
            registry.take_offline(sealed(session, off), session, NOW)

    def test_double_retirement_rejected(self, world, registry):
        store, _ = world
        card, session = self.register_one(world, registry, 23)
        off = make_bundle(card, store, suffix=SUFFIX_OFF)
        registry.take_offline(sealed(session, off), session, NOW)
        with pytest.raises(UnknownPseudonym):
            registry.take_offline(sealed(session, off), session, NOW)

    def test_wrong_wallet_key_rejected(self, world, registry):
        store, _ = world
        card, session = self.register_one(world, registry, 24)
        off = make_bundle(card, store, passphrase="forgotten passphrase",
                          suffix=SUFFIX_OFF)
        with pytest.raises(InvalidBundle, match="removal key"):
            registry.take_offline(sealed(session, off), session, NOW)

    def test_no_reregistration_by_default(self, world, registry):
        store, _ = world
        card, session = self.register_one(world, registry, 25)
        off = make_bundle(card, store, suffix=SUFFIX_OFF)
        registry.take_offline(sealed(session, off), session, NOW)
        with pytest.raises(DuplicateIdentity):
            registry.register(sealed(session, make_bundle(card, store)), session, NOW)

    def test_reregistration_flag_allows_return(self, world):
        store, hierarchy = world
        registry = Registry(store, NETWORK, seed=12, allow_reregistration=True)
        card = make_card(hierarchy, 26)
        session = registry.open_session(CLIENT)
        registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        off = make_bundle(card, store, suffix=SUFFIX_OFF)
        registry.take_offline(sealed(session, off), session, NOW)
        entry = registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        assert entry.status == STATUS_ONLINE
        assert registry.online_count() == 1

    def test_reregistration_releases_the_identifier_and_attributes(self, world):
        store, hierarchy = world
        registry = Registry(store, NETWORK, seed=16, allow_reregistration=True)
        session = registry.open_session(CLIENT)
        other, card = make_card(hierarchy, 27), make_card(hierarchy, 28)
        registry.register(sealed(session, make_bundle(other, store)), session, NOW)
        tags_of_other = registry.host_view()["id_tags"]
        registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        leaf = encode_attributes(default_identity_attributes(card.chain))
        assert len(registry.host_view()["id_tags"]) == 2
        assert registry.accumulator.contains(leaf)
        off = make_bundle(card, store, suffix=SUFFIX_OFF)
        registry.take_offline(sealed(session, off), session, NOW)
        assert registry.host_view()["id_tags"] == tags_of_other
        assert not registry.accumulator.contains(leaf)
        registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        assert len(registry.host_view()["id_tags"]) == 2
        assert registry.online_count() == 2


class TestVerifyOnce:
    def test_admission_and_removal_decode_the_document_once(self, world, monkeypatch):
        store, hierarchy = world
        registry = Registry(store, NETWORK, seed=17, allow_reregistration=True)
        session = registry.open_session(CLIENT)
        card = make_card(hierarchy, 29)
        reg_blob = sealed(session, make_bundle(card, store))
        off_blob = sealed(session, make_bundle(card, store, suffix=SUFFIX_OFF))
        decodes = []
        for cls in (CertChain, EPassport):
            def counting(blob, _decode=cls.from_bytes):
                decodes.append(blob)
                return _decode(blob)
            monkeypatch.setattr(cls, "from_bytes", staticmethod(counting))
        registry.register(reg_blob, session, NOW)
        assert len(decodes) == 1
        registry.take_offline(off_blob, session, NOW)
        assert len(decodes) == 2
        assert not hasattr(registry, "_uid_by_digest")

    def test_warm_admission_decodes_only_the_leaf_certificate(self, warm_cards,
                                                               warm_passports, monkeypatch):
        """One certificate for a card, none for a passport: the issuers'
        certificates decoded when the first document was admitted."""
        store, _, registry, session, cards = warm_cards
        pass_store, pass_registry, pass_session, passports = warm_passports
        card_blob = sealed(session, make_bundle(cards[1], store))
        passport_blob = sealed(pass_session, make_bundle(passports[1], pass_store))
        decoded = []

        def counting(blob, _decode=Certificate.from_bytes):
            decoded.append(blob)
            return _decode(blob)
        monkeypatch.setattr(Certificate, "from_bytes", staticmethod(counting))
        registry.register(card_blob, session, NOW)
        assert decoded == [cards[1].certificate.to_bytes()]
        decoded.clear()
        pass_registry.register(passport_blob, pass_session, NOW)
        assert decoded == []

    def test_warm_card_admission_verifies_four_signatures(self, warm_cards, verify_calls):
        """Leaf, leaf again in the registry, key binding and secret: the two
        intermediates' signatures are remembered by the store."""
        store, _, registry, session, cards = warm_cards
        verify_calls.clear()
        registry.register(sealed(session, make_bundle(cards[1], store)), session, NOW)
        assert len(verify_calls) == 4

    def test_warm_passport_admission_verifies_four_signatures(self, warm_passports,
                                                              verify_calls):
        """Security object twice, key binding and secret: the signer's
        certificate is remembered by the store."""
        store, registry, session, passports = warm_passports
        verify_calls.clear()
        registry.register(sealed(session, make_bundle(passports[1], store)), session, NOW)
        assert len(verify_calls) == 4

    def test_duplicate_card_verifies_no_signature(self, warm_cards, verify_calls):
        """The registry verified this leaf and secret when it admitted the
        card, and refuses the retry before its key binding."""
        store, _, registry, session, cards = warm_cards
        retry = make_bundle(cards[0], store, passphrase="another passphrase")
        verify_calls.clear()
        with pytest.raises(DuplicateIdentity):
            registry.register(sealed(session, retry), session, NOW)
        assert len(verify_calls) == 0

    def test_duplicate_passport_verifies_no_signature(self, warm_passports, verify_calls):
        store, registry, session, passports = warm_passports
        retry = make_bundle(passports[0], store, passphrase="another passphrase")
        verify_calls.clear()
        with pytest.raises(DuplicateIdentity):
            registry.register(sealed(session, retry), session, NOW)
        assert len(verify_calls) == 0

    def test_renewed_card_verifies_four_signatures(self, warm_cards, verify_calls):
        """A renewal is a new document: new serial, key, leaf and secret."""
        store, hierarchy, registry, session, _ = warm_cards
        renewed = issue_identity_cert(hierarchy, hierarchy.issuers[0], "Subject 0", "UID-W-0",
                                      WINDOW)
        verify_calls.clear()
        with pytest.raises(DuplicateIdentity):
            registry.register(sealed(session, make_bundle(renewed, store)), session, NOW)
        assert len(verify_calls) == 4

    def test_another_registry_verifies_the_admitted_card_again(self, warm_cards,
                                                               verify_calls):
        """Leaf, key binding and secret: each registry keeps its own record."""
        store, _, _, _, cards = warm_cards
        other = Registry(store, NETWORK, seed=21)
        session = other.open_session(CLIENT)
        bundle = make_bundle(cards[0], store)
        verify_calls.clear()
        other.register(sealed(session, bundle), session, NOW)
        assert len(verify_calls) == 3

    def test_a_repeated_round_spends_the_signature_budget(self, verify_calls, sign_calls):
        """A second round over the same cards, against a fresh registry,
        makes exactly these Ed25519 verifies and signs per operation: the
        wallet and the trust store already hold their records, the fresh
        registry holds none."""
        store, hierarchy = generate_ca_hierarchy(3, 2, seed=407)
        issuers = hierarchy.issuers
        cards = [issue_identity_cert(hierarchy, issuers[i % len(issuers)], f"Subject {i}",
                                     f"UID-B-{i}", WINDOW) for i in range(6)]
        renewals = [issue_identity_cert(hierarchy, issuers[i % len(issuers)], f"Subject {i}",
                                        f"UID-B-{i}", WINDOW) for i in (0, 3)]

        def one_round(seed: int) -> dict[str, set[tuple[int, int]]]:
            registry = Registry(store, NETWORK, seed=seed)
            session = registry.open_session(CLIENT)
            spent: dict[str, set[tuple[int, int]]] = {}

            def attempt(kind, action, expected=None):
                verify_calls.clear()
                sign_calls.clear()
                with pytest.raises(expected) if expected else contextlib.nullcontext():
                    action()
                spent.setdefault(kind, set()).add((len(verify_calls), len(sign_calls)))

            def register(card, passphrase):
                return registry.register(sealed(session, make_bundle(card, store, passphrase)),
                                         session, NOW)

            for i, card in enumerate(cards):
                attempt("admission", lambda: register(card, f"pp-{i}"))
            for i, card in enumerate(cards):
                attempt("duplicate", lambda: register(card, f"other-pp-{i}"),
                        DuplicateIdentity)
            for i, card in enumerate(renewals):
                attempt("renewal", lambda: register(card, f"renewed-pp-{i}"),
                        DuplicateIdentity)
            for i, card in enumerate(cards):
                replay = sealed(session, make_bundle(card, store, f"pp-{i}"))
                attempt("replay", lambda: registry.take_offline(replay, session, NOW),
                        ReplayedRegProof)
            return spent

        one_round(seed=23)
        assert one_round(seed=24) == {"admission": {(3, 1)}, "duplicate": {(0, 1)},
                                      "renewal": {(3, 1)}, "replay": {(0, 0)}}

    def test_duplicate_with_another_valid_secret_fails_at_step7(self, warm_cards):
        """A holder can sign any number of other messages: a signature that
        is not over the common string is verified and refused."""
        store, _, registry, session, cards = warm_cards
        secret = active_auth_sign(cards[0], b"another challenge")
        forged = with_secret(make_bundle(cards[0], store, passphrase="another passphrase"),
                             secret, "UID-W-0")
        with pytest.raises(InvalidBundle, match="step7"):
            registry.register(sealed(session, forged), session, NOW)

    def test_unbound_duplicate_is_refused_before_its_key_binding(self, warm_cards,
                                                                  verify_calls):
        """The one outcome the early refusal changes: the holder's retry
        under a wallet key its binding does not sign is refused as a
        duplicate identifier, verifying nothing and writing nothing."""
        store, _, registry, session, cards = warm_cards
        mutant = unbound(cards[0], store)
        view, record = registry.host_view(), set(registry._verified)
        verify_calls.clear()
        with pytest.raises(DuplicateIdentity) as caught:
            registry.register(sealed(session, mutant), session, NOW)
        assert caught.value.reason is DuplicateReason.IDENTIFIER
        assert len(verify_calls) == 0
        assert registry.host_view() == view and registry._verified == record

    def test_unbound_bundle_of_a_new_card_fails_at_step6(self, warm_cards):
        store, _, _, _, cards = warm_cards
        registry = Registry(store, NETWORK, seed=25)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step6: key binding signature does not verify"):
            registry.register(sealed(session, unbound(cards[0], store)), session, NOW)
        assert registry.online_count() == 0

    def test_unbound_bundle_of_a_retired_card_fails_at_step6(self, world):
        """Retirement under re-registration releases the identifier, so the
        returning card's bundle is verified in full again."""
        store, hierarchy = world
        registry = Registry(store, NETWORK, seed=26, allow_reregistration=True)
        card = make_card(hierarchy, 30)
        session = registry.open_session(CLIENT)
        registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        registry.take_offline(sealed(session, make_bundle(card, store, suffix=SUFFIX_OFF)),
                              session, NOW)
        with pytest.raises(InvalidBundle, match="step6: key binding signature does not verify"):
            registry.register(sealed(session, unbound(card, store)), session, NOW)
        entry = registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        assert entry.status == STATUS_ONLINE
        assert registry.online_count() == 1

    def test_forgeries_of_an_admitted_passport_fail_their_steps(self, warm_passports,
                                                                 forge_degraded):
        """No secret of the forger's choosing is in the registry's record, so
        a forgery never reaches the early refusal."""
        store, registry, session, passports = warm_passports
        with pytest.raises(InvalidBundle, match="step6: the document requires "
                                                "authentication mode 'full'"):
            registry.register(sealed(session, forge_degraded(passports[0], NETWORK)),
                              session, NOW)
        chosen = with_secret(make_bundle(passports[0], store, passphrase="another passphrase"),
                             b"attacker-chosen", passports[0].unique_id())
        with pytest.raises(InvalidBundle, match="step7: pseudonym secret does not verify"):
            registry.register(sealed(session, chosen), session, NOW)
        assert registry.online_count() == 1

    def test_admitted_leaf_under_a_swapped_intermediate_fails_at_step3(self, warm_cards):
        """The leaf's issuer re-keyed and validly re-signed by its own parent:
        same leaf bytes and signature under another issuer key, so the only
        failing check is the leaf's, and it is not a recorded one."""
        store, hierarchy, registry, session, cards = warm_cards
        chain = cards[0].chain
        issuer = chain.intermediates[0]
        parent = hierarchy.authority(issuer.issuer_name)
        rekeyed = dataclasses.replace(
            issuer, subject_public_key=parent.derive_subject_key(b"rogue").public_bytes)
        swapped_issuer = dataclasses.replace(rekeyed, signature=parent.sign(rekeyed.tbs_bytes()))
        swapped = dataclasses.replace(chain, intermediates=(swapped_issuer,
                                                            *chain.intermediates[1:]))
        forged = with_document(make_bundle(cards[0], store, passphrase="another passphrase"),
                               swapped)
        with pytest.raises(InvalidBundle, match="step3: document rejected: BadSignature"):
            registry.register(sealed(session, forged), session, NOW)

    def test_only_admissions_grow_the_record(self, warm_cards):
        store, hierarchy, registry, session, cards = warm_cards
        record = set(registry._verified)
        assert len(record) == 2  # the first card's leaf and secret
        renewed = issue_identity_cert(hierarchy, hierarchy.issuers[0], "Subject 0", "UID-W-0",
                                      WINDOW)
        bad_secret = with_secret(make_bundle(cards[1], store),
                                 active_auth_sign(cards[1], b"another challenge"), "UID-W-1")
        refused = [
            (registry.register, make_bundle(cards[0], store, passphrase="another"),
             DuplicateIdentity),
            (registry.register, make_bundle(renewed, store), DuplicateIdentity),
            (registry.register, bad_secret, InvalidBundle),
            (registry.take_offline, make_bundle(cards[1], store, suffix=SUFFIX_OFF),
             UnknownPseudonym),
        ]
        for operation, bundle, error in refused:
            with pytest.raises(error):
                operation(sealed(session, bundle), session, NOW)
            assert registry._verified == record
        registry.take_offline(sealed(session, make_bundle(cards[0], store, suffix=SUFFIX_OFF)),
                              session, NOW)
        assert registry._verified == record
        registry.register(sealed(session, make_bundle(cards[1], store)), session, NOW)
        assert len(registry._verified) == 4 and record < registry._verified


@pytest.fixture()
def warm_cards():
    """A registry on a two-intermediate hierarchy that admitted the first of
    two cards."""
    store, hierarchy = generate_ca_hierarchy(1, 2, seed=406)
    cards = [issue_identity_cert(hierarchy, hierarchy.issuers[0], f"Subject {i}",
                                 f"UID-W-{i}", WINDOW) for i in range(2)]
    registry = Registry(store, NETWORK, seed=18)
    session = registry.open_session(CLIENT)
    registry.register(sealed(session, make_bundle(cards[0], store)), session, NOW)
    return store, hierarchy, registry, session, cards


@pytest.fixture()
def warm_passports():
    """A registry that admitted the first of two passports from one signer."""
    store, csca, dsc = passport_issuer(405)
    passports = [issue_epassport(csca, dsc, make_holder(i), with_aa=True, seed=i)
                 for i in range(2)]
    registry = Registry(store, NETWORK, seed=19)
    session = registry.open_session(CLIENT)
    registry.register(sealed(session, make_bundle(passports[0], store)), session, NOW)
    return store, registry, session, passports


# ---------------------------------------------------------------------------
# Host-side views and the exported log
# ---------------------------------------------------------------------------


class TestHostView:
    def test_host_never_sees_identifiers_or_names(self, world, registry):
        store, hierarchy = world
        session = registry.open_session(CLIENT)
        card = make_card(hierarchy, 30, subject="Greta Holder", uid="UID-SECRET-30")
        registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        view = json.dumps(registry.host_view())
        assert "UID-SECRET-30" not in view
        assert "Greta Holder" not in view
        assert "holder passphrase" not in view
        assert len(registry.host_view()["id_tags"]) == 1

    def test_id_tags_change_with_registry_secret(self, world):
        store, hierarchy = world
        card = make_card(hierarchy, 31)
        tags = []
        for seed in (13, 14):
            reg = Registry(store, NETWORK, seed=seed)
            session = reg.open_session(CLIENT)
            reg.register(sealed(session, make_bundle(card, store)), session, NOW)
            tags.append(reg.host_view()["id_tags"][0])
        assert tags[0] != tags[1]

    def test_id_tag_is_hmac_sha256_per_rfc_4231_case_2(self):
        expected = bytes.fromhex(
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        assert hmac_sha256(b"Jefe", b"what do ya want for nothing?") == expected
        assert EncryptedIdDB(b"Jefe").tag("what do ya want for nothing?") == expected

    def test_host_log_replays_to_the_entries(self, world, registry):
        store, hierarchy = world
        session = registry.open_session(CLIENT)
        cards = [make_card(hierarchy, 40 + i) for i in range(3)]
        for card in cards:
            registry.register(sealed(session, make_bundle(card, store)), session, NOW)
        off = make_bundle(cards[1], store, suffix=SUFFIX_OFF)
        registry.take_offline(sealed(session, off), session, NOW)

        view = registry.host_view()
        replayed = {}
        for position, rec in enumerate(view["log"]):
            assert rec["epoch"] == position
            digest_hex = rec["pseudonym"].split(":")[0]
            if rec["op"] == "register":
                replayed[digest_hex] = {"pk": rec["pk"], "status": STATUS_ONLINE}
            else:
                assert rec["op"] == "offline"
                replayed[digest_hex]["status"] = STATUS_OFFLINE
        assert registry.epoch == len(view["log"]) == 4
        assert replayed == view["entries"]
        statuses = sorted(e["status"] for e in replayed.values())
        assert statuses == [STATUS_OFFLINE, STATUS_ONLINE, STATUS_ONLINE]


# ---------------------------------------------------------------------------
# The accumulator itself
# ---------------------------------------------------------------------------


def lone_member_witness(acc) -> MembershipWitness:
    """The membership witness of an accumulator's only member: the one
    neighbour a non-membership proof shows."""
    proof = accumulator_non_membership(acc, b"absent")
    return proof.left or proof.right


class TestAccumulator:
    def test_membership_witness_verifies(self):
        acc = accumulator_generate(1)
        acc.admit(b"alpha")
        w = lone_member_witness(acc)
        assert accumulator_verify(acc.root, b"alpha", w)

    def test_witness_fails_for_other_element(self):
        acc = accumulator_generate(1)
        acc.admit(b"alpha")
        assert not accumulator_verify(acc.root, b"beta", lone_member_witness(acc))

    def test_mutation_invalidates_old_witnesses(self):
        acc = accumulator_generate(1)
        acc.admit(b"alpha")
        w = lone_member_witness(acc)
        acc.admit(b"beta")
        assert not accumulator_verify(acc.root, b"alpha", w)
        fresh = accumulator_non_membership(acc, b"gamma")
        accumulator_remove(acc, b"beta")
        assert not accumulator_verify_non_membership(acc.root, b"gamma", fresh)

    def test_double_admit_is_refused_and_absent_remove_raises(self):
        acc = accumulator_generate(1)
        assert acc.admit(b"alpha")
        assert not acc.admit(b"alpha")
        assert acc.count == 1
        with pytest.raises(NotMember):
            accumulator_remove(acc, b"beta")

    def test_root_depends_only_on_the_set(self):
        a = accumulator_generate(7)
        b = accumulator_generate(7)
        for el in (b"x", b"y", b"z", b"w"):
            a.admit(el)
        for el in (b"w", b"z", b"x", b"y"):
            b.admit(el)
        assert a.root == b.root
        accumulator_remove(a, b"y")
        c = accumulator_generate(7)
        for el in (b"x", b"z", b"w"):
            c.admit(el)
        assert a.root == c.root

    def test_domain_separation_by_seed(self):
        a = accumulator_generate(1)
        b = accumulator_generate(2)
        a.admit(b"x")
        b.admit(b"x")
        assert a.root != b.root

    def test_non_membership_positions(self):
        acc = accumulator_generate(3)
        elements = [f"e{i}".encode() for i in range(8)]
        for el in elements:
            acc.admit(el)
        by_leaf = {acc.element_digest(el): el for el in elements}
        for probe in (b"before", b"middle", b"zzz-after", b"anything"):
            if acc.contains(probe):
                continue
            w = accumulator_non_membership(acc, probe)
            assert accumulator_verify_non_membership(acc.root, probe, w)
            assert not accumulator_verify_non_membership(acc.root, elements[0], w)
            for neighbour in (w.left, w.right):
                if neighbour is not None:
                    assert accumulator_verify(acc.root, by_leaf[neighbour.leaf], neighbour)
                    assert not accumulator_verify(acc.root, probe, neighbour)

    def test_non_membership_on_empty_set(self):
        acc = accumulator_generate(4)
        w = accumulator_non_membership(acc, b"anything")
        assert accumulator_verify_non_membership(acc.root, b"anything", w)

    def test_non_membership_of_member_refused(self):
        acc = accumulator_generate(5)
        acc.admit(b"alpha")
        with pytest.raises(AlreadyMember):
            accumulator_non_membership(acc, b"alpha")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["admit", "remove", "check"]),
                              st.integers(min_value=0, max_value=11)),
                    max_size=40))
    def test_matches_plain_set_semantics(self, ops):
        acc = accumulator_generate(9)
        model: set[bytes] = set()
        for op, idx in ops:
            el = f"el-{idx}".encode()
            if op == "admit":
                assert acc.admit(el) == (el not in model)
                model.add(el)
            elif op == "remove":
                if el in model:
                    accumulator_remove(acc, el)
                    model.discard(el)
                else:
                    with pytest.raises(NotMember):
                        accumulator_remove(acc, el)
            else:
                assert acc.contains(el) == (el in model)
        assert acc.count == len(model)
        # the root commits to exactly this set
        replay = accumulator_generate(9)
        for el in sorted(model):
            replay.admit(el)
        assert acc.root == replay.root
        for probe in (b"el-0", b"el-5", b"absent-x"):
            if probe in model:
                assert acc.contains(probe)
            else:
                w = accumulator_non_membership(acc, probe)
                assert accumulator_verify_non_membership(acc.root, probe, w)
