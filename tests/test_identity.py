"""Document layer: certificate chains, machine-readable travel documents,
validation order, and challenge signing."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkpoi.errors import (
    DecodeError,
    MissingIdentifier,
    NoActiveAuthentication,
    UnknownAuthority,
)
from zkpoi.codec import Encoder
from zkpoi.identity import (
    GENESIS,
    YEAR,
    CertChain,
    Certificate,
    Dg1,
    EPassport,
    FailureCode,
    HolderFields,
    IdentityCard,
    TrustStore,
    active_auth_sign,
    active_auth_verify,
    yymmdd_timestamp,
    generate_ca_hierarchy,
    icao_check_digit,
    issue_dsc,
    issue_epassport,
    issue_identity_cert,
    public_bytes_hash,
    public_document,
    _decode_issuer,
    validate_chain,
    validate_epassport,
)

NOW = GENESIS + YEAR
WINDOW = (GENESIS, GENESIS + 10 * YEAR)


@pytest.fixture(scope="module")
def card_setup():
    store, hierarchy = generate_ca_hierarchy(3, 2, seed=101)
    card = issue_identity_cert(hierarchy, hierarchy.issuers[0],
                               "Alice Example", "UID-0001", WINDOW)
    return store, hierarchy, card


@pytest.fixture(scope="module")
def passport_setup():
    store, hierarchy = generate_ca_hierarchy(2, 0, seed=202)
    csca = hierarchy.authority(hierarchy.issuers[0])
    dsc = issue_dsc(csca, "printer-1", WINDOW)
    holder = HolderFields(name="DOE JANE", document_number="X1234567",
                          nationality="N00", birth_date="900101", sex="F",
                          expiry_date="450101", issuing_state="N00",
                          personal_number="PN-42")
    passport = issue_epassport(csca, dsc, holder, with_aa=True, seed=7)
    return store, hierarchy, csca, dsc, holder, passport


def chain_with_leaf(card: IdentityCard, leaf: Certificate) -> CertChain:
    return dataclasses.replace(card.chain, leaf=leaf)


# ---------------------------------------------------------------------------
# Check digits and the machine-readable zone
# ---------------------------------------------------------------------------


class TestCheckDigit:
    def test_hand_worked_numeric(self):
        # 5*7 + 2*3 + 0*1 + 7*7 + 2*3 + 7*1 = 103 -> 3
        assert icao_check_digit("520727") == 3

    def test_hand_worked_alpha_filler(self):
        # A=10, B=11, '<'=0: 10*7 + 11*3 + 0*1 = 103 -> 3
        assert icao_check_digit("AB<") == 3

    def test_empty_is_zero(self):
        assert icao_check_digit("") == 0

    @pytest.mark.parametrize("bad", ["a", "x12", "1 2", "Ж", "1!"])
    def test_rejects_foreign_characters(self, bad):
        with pytest.raises(ValueError):
            icao_check_digit(bad)

    @given(st.text(alphabet="0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ<", max_size=44))
    def test_against_independent_weighted_sum(self, data):
        values = {"<": 0}
        values.update({str(d): d for d in range(10)})
        values.update({chr(ord("A") + i): 10 + i for i in range(26)})
        weights = (7, 3, 1)
        expected = sum(values[ch] * weights[i % 3] for i, ch in enumerate(data)) % 10
        assert icao_check_digit(data) == expected


class TestDg1:
    def build(self, **overrides) -> Dg1:
        fields = dict(issuing_state="UTO", name="ERIKSSON ANNA MARIA",
                      document_number="L898902C3", nationality="UTO",
                      birth_date="740812", sex="F", expiry_date="120415",
                      optional_data="ZE184226B")
        fields.update(overrides)
        return Dg1.build(**fields)

    def test_field_check_digits(self):
        dg1 = self.build()
        assert dg1.document_number_cd == icao_check_digit("L898902C3")
        assert dg1.birth_date_cd == icao_check_digit("740812")
        assert dg1.expiry_date_cd == icao_check_digit("120415")
        assert dg1.optional_data_cd == icao_check_digit("ZE184226B")

    def test_composite_covers_number_dates_and_optional(self):
        dg1 = self.build()
        composite_input = (
            f"{dg1.document_number}{dg1.document_number_cd}"
            f"{dg1.birth_date}{dg1.birth_date_cd}"
            f"{dg1.expiry_date}{dg1.expiry_date_cd}"
            f"{dg1.optional_data}{dg1.optional_data_cd}"
        )
        assert dg1.composite_cd == icao_check_digit(composite_input)

    def test_empty_optional_uses_zero_digit(self):
        dg1 = self.build(optional_data="")
        assert dg1.optional_data_cd == 0

    def test_round_trip(self):
        dg1 = self.build()
        assert Dg1.from_bytes(dg1.to_bytes()) == dg1

    @pytest.mark.parametrize("date", ["991399", "ABCDEF", "45010"])
    def test_expiry_that_is_not_a_yymmdd_day_is_refused(self, date):
        with pytest.raises(ValueError):
            self.build(expiry_date=date)

    @pytest.mark.parametrize("date", ["991399", "ABCDEF", ""])
    def test_birth_date_that_is_not_a_yymmdd_day_is_refused(self, date):
        with pytest.raises(ValueError):
            self.build(birth_date=date)

    def test_tampered_number_breaks_composite(self):
        dg1 = self.build()
        forged = dataclasses.replace(dg1, document_number="L898902C4")
        recomputed = icao_check_digit(
            f"{forged.document_number}{forged.document_number_cd}"
            f"{forged.birth_date}{forged.birth_date_cd}"
            f"{forged.expiry_date}{forged.expiry_date_cd}"
            f"{forged.optional_data}{forged.optional_data_cd}"
        )
        assert recomputed != forged.composite_cd


class TestExpiryTimestamp:
    def test_millennium_anchor(self):
        # 2000-01-01T00:00:00Z = 946684800; end of day adds 86399 seconds.
        assert yymmdd_timestamp("000101") == 946684800 + 86399

    def test_consecutive_days_differ_by_one_day(self):
        assert yymmdd_timestamp("000102") - yymmdd_timestamp("000101") == 86400

    def test_years_map_into_twenty_first_century(self):
        assert yymmdd_timestamp("990101") > yymmdd_timestamp("000101")

    def test_leap_day_accepted(self):
        assert yymmdd_timestamp("240229") - yymmdd_timestamp("240228") == 86400

    @pytest.mark.parametrize("date", ["991399", "ABCDEF", "45010", "230229", "4501 1",
                                      "-10101", "\uff14\uff15\uff10\uff11\uff10\uff11"])
    def test_anything_but_a_yymmdd_day_is_a_value_error(self, date):
        with pytest.raises(ValueError):
            yymmdd_timestamp(date)


# ---------------------------------------------------------------------------
# Certificate and chain encoding
# ---------------------------------------------------------------------------


class TestCertificateEncoding:
    def test_round_trip(self, card_setup):
        _, _, card = card_setup
        cert = card.certificate
        assert Certificate.from_bytes(cert.to_bytes()) == cert

    def test_chain_round_trip(self, card_setup):
        _, _, card = card_setup
        assert CertChain.from_bytes(card.chain.to_bytes()) == card.chain

    def test_reversed_validity_window_rejected(self, card_setup):
        _, _, card = card_setup
        bad = dataclasses.replace(card.certificate,
                                  not_before=WINDOW[1], not_after=WINDOW[0])
        with pytest.raises(DecodeError):
            Certificate.from_bytes(bad.to_bytes())

    def test_empty_chain_rejected(self, card_setup):
        _, _, card = card_setup
        blob = (Encoder("chain:v1").put_u64(0)
                .put_bytes(card.chain.root_fingerprint).done())
        with pytest.raises(DecodeError):
            CertChain.from_bytes(blob)

    def test_fingerprint_tracks_content(self, card_setup):
        _, _, card = card_setup
        cert = card.certificate
        other = dataclasses.replace(cert, serial=cert.serial + 1)
        assert cert.fingerprint() != other.fingerprint()
        assert len(cert.fingerprint()) == 32


def without_memo(chain: CertChain) -> CertChain:
    """A copy of `chain` whose certificates hold no encoding memo."""
    return dataclasses.replace(chain, leaf=dataclasses.replace(chain.leaf),
                               intermediates=tuple(dataclasses.replace(c)
                                                   for c in chain.intermediates))


CERT_ENCODINGS = {"cert:v1", "cert-tbs:v1", "chain:v1"}


class TestEncodingMemo:
    """Documents keep the canonical bytes they were issued or decoded with;
    the memo stays outside the dataclass fields."""

    def test_memo_is_invisible_to_equality_hashing_and_repr(self, card_setup):
        _, _, card = card_setup
        card.chain.to_bytes()
        decoded = CertChain.from_bytes(card.chain.to_bytes())
        for chain in (card.chain, decoded):
            bare = without_memo(chain)
            for cert, copy in zip(chain.certs(), bare.certs()):
                assert vars(cert).keys() > vars(copy).keys()
                assert cert == copy and hash(cert) == hash(copy)
                assert repr(cert) == repr(copy) and "_tbs_bytes" not in repr(cert)
                assert cert.tbs_bytes() == copy.tbs_bytes()
                assert cert.to_bytes() == copy.to_bytes()
            assert chain == bare and hash(chain) == hash(bare) and repr(chain) == repr(bare)
            assert chain.to_bytes() == bare.to_bytes()

    def test_replaced_certificate_encodes_afresh(self, card_setup):
        store, _, card = card_setup
        leaf = CertChain.from_bytes(card.chain.to_bytes()).leaf
        renumbered = dataclasses.replace(leaf, serial=leaf.serial + 1)
        assert "_tbs_bytes" not in vars(renumbered)
        assert renumbered.tbs_bytes() != leaf.tbs_bytes()
        assert renumbered.tbs_bytes() == dataclasses.replace(renumbered).tbs_bytes()
        assert Certificate.from_bytes(renumbered.to_bytes()) == renumbered
        report = validate_chain(chain_with_leaf(card, renumbered), store, NOW)
        assert report.failure_code is FailureCode.BAD_SIGNATURE

    def test_flipped_tbs_byte_in_decoded_chain_fails_signature(self, card_setup):
        store, _, card = card_setup
        blob = card.chain.to_bytes()
        at = blob.index(b"Alice Example")
        flipped = blob[:at] + b"B" + blob[at + 1:]
        decoded = CertChain.from_bytes(flipped)
        assert decoded.leaf.subject_name == "Blice Example"
        assert decoded.to_bytes() == flipped
        assert validate_chain(decoded, store, NOW).failure_code is FailureCode.BAD_SIGNATURE

    def test_warm_duplicate_build_and_register_encode_no_certificate(self, encode_calls):
        from zkpoi import attestation
        from zkpoi.credential import build_registration_bundle
        from zkpoi.errors import DuplicateIdentity
        from zkpoi.registry import Registry

        store, hierarchy = generate_ca_hierarchy(1, 2, seed=303)
        card = issue_identity_cert(hierarchy, hierarchy.issuers[0], "Memo Holder",
                                   "UID-M-1", WINDOW)
        registry = Registry(store, "chain-memo", seed=5)
        session = registry.open_session(attestation.EnclaveIdentity("zkpoi-wallet", 1))

        def admit(passphrase):
            bundle, _ = build_registration_bundle(card, passphrase, "chain-memo", store, NOW,
                                                  kdf_iterations=2)
            registry.register(attestation.seal(session, bundle.to_bytes()), session, NOW)

        encode_calls.clear()
        admit("first")
        # The issuer kept the tbs it signed and the registry keeps the bytes it
        # decoded: the wallet's first build encodes the public forms only.
        assert sorted(t for t in encode_calls if t in CERT_ENCODINGS) == [
            "cert:v1", "cert:v1", "cert:v1", "chain:v1"]
        encode_calls.clear()
        with pytest.raises(DuplicateIdentity):
            admit("second")
        assert "bundle:v1" in encode_calls
        assert not CERT_ENCODINGS.intersection(encode_calls)


# ---------------------------------------------------------------------------
# Chain validation: happy path and one mutant per failure code
# ---------------------------------------------------------------------------


class TestChainValidation:
    def test_freshly_issued_chain_accepted(self, card_setup):
        store, _, card = card_setup
        report = validate_chain(card.chain, store, NOW)
        assert report.accepted
        assert report.failure_code is None
        assert report.checked_at == NOW

    def test_accepted_after_a_decode(self, card_setup):
        store, _, card = card_setup
        assert validate_chain(CertChain.from_bytes(card.chain.to_bytes()), store, NOW).accepted

    def test_accepted_at_window_edges(self, card_setup):
        store, _, card = card_setup
        assert validate_chain(card.chain, store, WINDOW[0]).accepted
        assert validate_chain(card.chain, store, WINDOW[1]).accepted

    def test_garbage_bytes_fail_grammar(self):
        with pytest.raises(DecodeError):
            CertChain.from_bytes(b"not a chain at all")

    def test_truncated_bytes_fail_grammar(self, card_setup):
        _, _, card = card_setup
        blob = card.chain.to_bytes()
        with pytest.raises(DecodeError):
            CertChain.from_bytes(blob[: len(blob) // 2])

    def test_trailing_garbage_fails_grammar(self, card_setup):
        _, _, card = card_setup
        with pytest.raises(DecodeError):
            CertChain.from_bytes(card.chain.to_bytes() + b"\x00")

    def test_reversed_window_inside_bytes_fails_grammar(self, card_setup):
        _, _, card = card_setup
        bad_leaf = dataclasses.replace(card.certificate,
                                       not_before=WINDOW[1], not_after=WINDOW[0])
        blob = chain_with_leaf(card, bad_leaf).to_bytes()
        with pytest.raises(DecodeError):
            CertChain.from_bytes(blob)

    def test_leaf_outside_window_fails_expired(self, card_setup):
        store, _, card = card_setup
        late = validate_chain(card.chain, store, WINDOW[1] + 1)
        early = validate_chain(card.chain, store, WINDOW[0] - 1)
        assert late.failure_code is FailureCode.EXPIRED
        assert early.failure_code is FailureCode.EXPIRED

    def test_expired_intermediate_fails_expired(self, card_setup):
        store, _, card = card_setup
        stale = dataclasses.replace(card.chain.intermediates[0], not_after=NOW - 1)
        chain = dataclasses.replace(card.chain,
                                    intermediates=(stale,) + card.chain.intermediates[1:])
        assert validate_chain(chain, store, NOW).failure_code is FailureCode.EXPIRED

    def test_revoked_leaf(self, card_setup):
        store, _, card = card_setup
        leaf = card.certificate
        crl = frozenset({(leaf.issuer_name, leaf.serial)})
        report = validate_chain(card.chain, store, NOW, crl=crl)
        assert report.failure_code is FailureCode.REVOKED

    def test_revoked_intermediate(self, card_setup):
        store, _, card = card_setup
        mid = card.chain.intermediates[0]
        crl = frozenset({(mid.issuer_name, mid.serial)})
        assert validate_chain(card.chain, store, NOW, crl=crl).failure_code is FailureCode.REVOKED

    def test_revocation_is_per_issuer_and_serial(self, card_setup):
        store, _, card = card_setup
        leaf = card.certificate
        crl = frozenset({(leaf.issuer_name, leaf.serial + 999),
                         ("Some Other Issuer", leaf.serial)})
        assert validate_chain(card.chain, store, NOW, crl=crl).accepted

    def test_wrong_issuer_name_breaks_chain(self, card_setup):
        store, _, card = card_setup
        forged = dataclasses.replace(card.certificate, issuer_name="Nobody In Particular")
        report = validate_chain(chain_with_leaf(card, forged), store, NOW)
        assert report.failure_code is FailureCode.CHAIN_BROKEN

    def test_non_ca_parent_breaks_chain(self, card_setup):
        store, _, card = card_setup
        demoted = dataclasses.replace(card.chain.intermediates[0], is_ca=False)
        chain = dataclasses.replace(card.chain,
                                    intermediates=(demoted,) + card.chain.intermediates[1:])
        assert validate_chain(chain, store, NOW).failure_code is FailureCode.CHAIN_BROKEN

    def test_swapped_public_key_fails_signature(self, card_setup):
        store, hierarchy, card = card_setup
        other = issue_identity_cert(hierarchy, hierarchy.issuers[1],
                                    "Mallory", "UID-9999", WINDOW)
        forged = dataclasses.replace(
            card.certificate,
            subject_public_key=other.certificate.subject_public_key)
        report = validate_chain(chain_with_leaf(card, forged), store, NOW)
        assert report.failure_code is FailureCode.BAD_SIGNATURE

    def test_random_signature_bytes_fail_signature(self, card_setup):
        store, _, card = card_setup
        forged = dataclasses.replace(card.certificate, signature=bytes(64))
        report = validate_chain(chain_with_leaf(card, forged), store, NOW)
        assert report.failure_code is FailureCode.BAD_SIGNATURE

    def test_tampered_root_issued_signature_fails_after_trust(self, card_setup):
        store, _, card = card_setup
        top = card.chain.intermediates[-1]
        flipped = bytes([top.signature[0] ^ 0xFF]) + top.signature[1:]
        chain = dataclasses.replace(
            card.chain,
            intermediates=card.chain.intermediates[:-1] + (dataclasses.replace(top, signature=flipped),))
        assert validate_chain(chain, store, NOW).failure_code is FailureCode.BAD_SIGNATURE

    def test_unknown_root_fingerprint_not_trusted(self, card_setup):
        store, _, card = card_setup
        chain = dataclasses.replace(card.chain, root_fingerprint=bytes(32))
        assert validate_chain(chain, store, NOW).failure_code is FailureCode.NOT_TRUSTED

    def test_foreign_store_not_trusted(self, card_setup):
        _, _, card = card_setup
        foreign_store, _ = generate_ca_hierarchy(2, 1, seed=999)
        report = validate_chain(card.chain, foreign_store, NOW)
        assert report.failure_code is FailureCode.NOT_TRUSTED

    def test_disallowed_authority_not_trusted(self, card_setup):
        store, _, card = card_setup
        gutted = TrustStore(trusted_roots=store.trusted_roots,
                            allowed_authorities=frozenset(),
                            root_names=store.root_names)
        assert validate_chain(card.chain, gutted, NOW).failure_code is FailureCode.NOT_TRUSTED


class TestChainFailureOrder:
    """When a document carries several defects, the earlier check names it."""

    def test_expired_beats_revoked(self, card_setup):
        store, _, card = card_setup
        leaf = card.certificate
        crl = frozenset({(leaf.issuer_name, leaf.serial)})
        report = validate_chain(card.chain, store, WINDOW[1] + 1, crl=crl)
        assert report.failure_code is FailureCode.EXPIRED

    def test_revoked_beats_chain_broken(self, card_setup):
        store, _, card = card_setup
        forged = dataclasses.replace(card.certificate, issuer_name="Nobody")
        crl = frozenset({("Nobody", forged.serial)})
        report = validate_chain(chain_with_leaf(card, forged), store, NOW, crl=crl)
        assert report.failure_code is FailureCode.REVOKED

    def test_chain_broken_beats_bad_signature(self, card_setup):
        store, _, card = card_setup
        forged = dataclasses.replace(card.certificate,
                                     issuer_name="Nobody",
                                     signature=bytes(64))
        report = validate_chain(chain_with_leaf(card, forged), store, NOW)
        assert report.failure_code is FailureCode.CHAIN_BROKEN

    def test_bad_signature_beats_not_trusted(self, card_setup):
        store, _, card = card_setup
        forged = dataclasses.replace(card.certificate, signature=bytes(64))
        chain = dataclasses.replace(chain_with_leaf(card, forged),
                                    root_fingerprint=bytes(32))
        assert validate_chain(chain, store, NOW).failure_code is FailureCode.BAD_SIGNATURE

    def test_not_trusted_beats_root_signature(self, card_setup):
        store, _, card = card_setup
        top = card.chain.intermediates[-1]
        tampered = dataclasses.replace(top, signature=bytes(64))
        chain = dataclasses.replace(
            card.chain,
            intermediates=card.chain.intermediates[:-1] + (tampered,),
            root_fingerprint=bytes(32))
        assert validate_chain(chain, store, NOW).failure_code is FailureCode.NOT_TRUSTED


# ---------------------------------------------------------------------------
# Passport validation: happy path, one mutant per code, and check order
# ---------------------------------------------------------------------------


class TestPassportValidation:
    def test_freshly_issued_passport_accepted(self, passport_setup):
        store, *_, passport = passport_setup
        report = validate_epassport(passport, store, NOW)
        assert report.accepted and report.failure_code is None

    def test_round_trip_still_validates(self, passport_setup):
        store, *_, passport = passport_setup
        rebuilt = EPassport.from_bytes(passport.public_bytes())
        assert validate_epassport(rebuilt, store, NOW).accepted
        assert rebuilt.aa_secret is None  # the chip key never leaves the chip

    def test_tampered_mrz_fails_hash(self, passport_setup):
        store, *_, passport = passport_setup
        forged_dg1 = dataclasses.replace(passport.dg1, name="DOE JOHN")
        forged = dataclasses.replace(passport, dg1=forged_dg1)
        report = validate_epassport(forged, store, NOW)
        assert report.failure_code is FailureCode.HASH_MISMATCH

    def test_tampered_personal_number_fails_hash(self, passport_setup):
        store, *_, passport = passport_setup
        forged = dataclasses.replace(passport, dg11_personal_number="PN-43")
        assert validate_epassport(forged, store, NOW).failure_code is FailureCode.HASH_MISMATCH

    def test_dropped_security_entry_fails_hash(self, passport_setup):
        store, *_, passport = passport_setup
        forged = dataclasses.replace(passport, sod_dg_hashes=passport.sod_dg_hashes[:-1])
        assert validate_epassport(forged, store, NOW).failure_code is FailureCode.HASH_MISMATCH

    def test_consistent_retarget_fails_signature(self, passport_setup):
        """Recomputing the security object without re-signing moves the failure
        from the hash check to the signature check."""
        store, *_, passport = passport_setup
        forged_dg1 = dataclasses.replace(passport.dg1, name="DOE JOHN")
        draft = dataclasses.replace(passport, dg1=forged_dg1)
        forged = dataclasses.replace(draft, sod_dg_hashes=draft.computed_dg_hashes())
        assert validate_epassport(forged, store, NOW).failure_code is FailureCode.BAD_SIGNATURE

    def test_flipped_signature_fails_signature(self, passport_setup):
        store, *_, passport = passport_setup
        sig = passport.sod_signature
        forged = dataclasses.replace(passport, sod_signature=bytes([sig[0] ^ 1]) + sig[1:])
        assert validate_epassport(forged, store, NOW).failure_code is FailureCode.BAD_SIGNATURE

    def test_foreign_store_not_trusted(self, passport_setup):
        _, *_, passport = passport_setup
        foreign_store, _ = generate_ca_hierarchy(1, 0, seed=404)
        assert validate_epassport(passport, foreign_store, NOW).failure_code is FailureCode.NOT_TRUSTED

    def test_self_issued_signer_not_trusted(self, passport_setup):
        store, hierarchy, csca, _, holder, _ = passport_setup
        rogue_store, rogue_hierarchy = generate_ca_hierarchy(1, 0, seed=505)
        rogue_csca = rogue_hierarchy.authority(rogue_hierarchy.issuers[0])
        rogue_dsc = issue_dsc(rogue_csca, "printer-x", WINDOW)
        forged = issue_epassport(rogue_csca, rogue_dsc, holder, with_aa=False, seed=9)
        assert validate_epassport(forged, store, NOW).failure_code is FailureCode.NOT_TRUSTED

    def test_expired_signer_certificate(self, passport_setup):
        store, _, csca, _, holder, _ = passport_setup
        short_dsc = issue_dsc(csca, "printer-short", (GENESIS, NOW - 1))
        passport = issue_epassport(csca, short_dsc, holder, with_aa=False, seed=11)
        assert validate_epassport(passport, store, NOW).failure_code is FailureCode.EXPIRED

    def test_expired_document_date(self, passport_setup):
        store, _, csca, dsc, holder, _ = passport_setup
        stale_holder = dataclasses.replace(holder, expiry_date="200101")
        passport = issue_epassport(csca, dsc, stale_holder, with_aa=False, seed=12)
        assert validate_epassport(passport, store, NOW).failure_code is FailureCode.EXPIRED

    @pytest.mark.parametrize("date", ["991399", "ABCDEF", "45010"])
    def test_malformed_expiry_is_a_grammar_error(self, passport_setup, resigned, date):
        store, _, csca, dsc, holder, _ = passport_setup
        passport = resigned(issue_epassport(csca, dsc, holder, with_aa=False, seed=15),
                            dsc, expiry_date=date)
        report = validate_epassport(passport, store, NOW)
        assert not report.accepted
        assert report.failure_code is FailureCode.GRAMMAR_ERROR

    @pytest.mark.parametrize("date", ["991399", "ABCDEF", ""])
    def test_malformed_birth_date_is_a_grammar_error(self, passport_setup, resigned, date):
        store, _, csca, dsc, holder, _ = passport_setup
        passport = resigned(issue_epassport(csca, dsc, holder, with_aa=False, seed=17),
                            dsc, birth_date=date)
        report = validate_epassport(passport, store, NOW)
        assert not report.accepted
        assert report.failure_code is FailureCode.GRAMMAR_ERROR

    def test_signer_window_precedes_expiry_grammar(self, passport_setup, resigned):
        store, _, csca, _, holder, _ = passport_setup
        short_dsc = issue_dsc(csca, "printer-short3", (GENESIS, NOW - 1))
        passport = resigned(issue_epassport(csca, short_dsc, holder, with_aa=False, seed=16),
                            short_dsc, expiry_date="991399")
        assert validate_epassport(passport, store, NOW).failure_code is FailureCode.EXPIRED

    def test_hash_check_precedes_signature_check(self, passport_setup):
        store, *_, passport = passport_setup
        forged_dg1 = dataclasses.replace(passport.dg1, name="DOE JOHN")
        sig = passport.sod_signature
        forged = dataclasses.replace(passport, dg1=forged_dg1,
                                     sod_signature=bytes([sig[0] ^ 1]) + sig[1:])
        assert validate_epassport(forged, store, NOW).failure_code is FailureCode.HASH_MISMATCH

    def test_signature_check_precedes_trust_check(self, passport_setup):
        _, *_, passport = passport_setup
        foreign_store, _ = generate_ca_hierarchy(1, 0, seed=404)
        sig = passport.sod_signature
        forged = dataclasses.replace(passport, sod_signature=bytes([sig[0] ^ 1]) + sig[1:])
        assert validate_epassport(forged, foreign_store, NOW).failure_code is FailureCode.BAD_SIGNATURE

    def test_trust_check_precedes_window_check(self, passport_setup):
        store, _, csca, _, holder, _ = passport_setup
        foreign_store, _ = generate_ca_hierarchy(1, 0, seed=404)
        short_dsc = issue_dsc(csca, "printer-short2", (GENESIS, NOW - 1))
        passport = issue_epassport(csca, short_dsc, holder, with_aa=False, seed=13)
        assert validate_epassport(passport, foreign_store, NOW).failure_code is FailureCode.NOT_TRUSTED

    def test_signer_from_wrong_root_refused_at_issuance(self, passport_setup):
        _, hierarchy, csca, _, holder, _ = passport_setup
        other_csca = hierarchy.authority(hierarchy.issuers[1])
        dsc = issue_dsc(other_csca, "printer-2", WINDOW)
        with pytest.raises(UnknownAuthority):
            issue_epassport(csca, dsc, holder, with_aa=False, seed=14)


# ---------------------------------------------------------------------------
# The trust store's memo of verified issuer signatures
# ---------------------------------------------------------------------------


def flip_signature(cert: Certificate) -> Certificate:
    return dataclasses.replace(cert, signature=bytes([cert.signature[0] ^ 1]) + cert.signature[1:])


def signed_parts(cert: Certificate) -> tuple[bytes, bytes]:
    """The signature and the signed bytes: every field of the certificate."""
    return cert.signature, cert.tbs_bytes()


def memo_certs(store: TrustStore) -> set[tuple[bytes, bytes]]:
    """The signed parts of each certificate whose check the store recorded."""
    return {(signature, tbs) for _, signature, tbs in store._verified_issuers}


@pytest.fixture()
def warm_card():
    """A fresh store whose memo holds the intermediates of one accepted card."""
    store, hierarchy = generate_ca_hierarchy(2, 2, seed=303)
    card = issue_identity_cert(hierarchy, hierarchy.issuers[0], "Memo Holder", "UID-M-1",
                               (GENESIS, GENESIS + 60 * YEAR))
    assert validate_chain(card.chain, store, NOW).accepted
    assert memo_certs(store) == {signed_parts(cert) for cert in card.chain.intermediates}
    return store, hierarchy, card


@pytest.fixture()
def warm_passport(passport_setup):
    """A fresh store whose memo holds the signer of one accepted passport."""
    *_, holder, _ = passport_setup
    store, hierarchy = generate_ca_hierarchy(2, 0, seed=606)
    csca = hierarchy.authority(hierarchy.issuers[0])
    dsc = issue_dsc(csca, "printer-m", WINDOW)
    passport = issue_epassport(csca, dsc, holder, with_aa=True, seed=7)
    assert validate_epassport(passport, store, NOW).accepted
    assert memo_certs(store) == {signed_parts(dsc.cert)}
    return store, csca, dsc, holder, passport


class TestVerifiedIssuerMemo:
    def test_store_records_exactly_the_issuer_checks(self, warm_card, warm_passport):
        store, _, card = warm_card
        near, top = card.chain.intermediates
        root_key = store.trusted_roots[card.chain.root_fingerprint]
        assert store._verified_issuers == {
            (top.subject_public_key, near.signature, near.tbs_bytes()),
            (root_key, top.signature, top.tbs_bytes()),
        }
        pass_store, csca, dsc, _, _ = warm_passport
        assert pass_store._verified_issuers == {
            (csca.cert.subject_public_key, dsc.cert.signature, dsc.cert.tbs_bytes())}

    def test_warm_store_accepts_again(self, warm_card):
        store, _, card = warm_card
        assert validate_chain(card.chain, store, NOW).accepted
        assert validate_chain(CertChain.from_bytes(card.chain.to_bytes()), store, NOW).accepted

    def test_leaf_signature_is_never_remembered(self, warm_card):
        store, _, card = warm_card
        assert signed_parts(card.certificate) not in memo_certs(store)
        forged = flip_signature(card.certificate)
        report = validate_chain(chain_with_leaf(card, forged), store, NOW)
        assert report.failure_code is FailureCode.BAD_SIGNATURE

    @pytest.mark.parametrize("position", [0, 1])
    def test_flipped_intermediate_signature_is_bad_signature(self, warm_card, position):
        store, _, card = warm_card
        inters = list(card.chain.intermediates)
        inters[position] = flip_signature(inters[position])
        chain = dataclasses.replace(card.chain, intermediates=tuple(inters))
        assert validate_chain(chain, store, NOW).failure_code is FailureCode.BAD_SIGNATURE

    def test_ca_outside_its_window_is_expired(self, warm_card):
        store, _, card = warm_card
        after_ca_window = GENESIS + 55 * YEAR  # leaf still valid, CAs not
        report = validate_chain(card.chain, store, after_ca_window)
        assert report.failure_code is FailureCode.EXPIRED

    def test_revoked_intermediate_is_revoked(self, warm_card):
        store, _, card = warm_card
        inter = card.chain.intermediates[0]
        crl = frozenset({(inter.issuer_name, inter.serial)})
        report = validate_chain(card.chain, store, NOW, crl=crl)
        assert report.failure_code is FailureCode.REVOKED

    def test_root_removed_from_the_store_is_not_trusted(self, warm_card):
        store, _, card = warm_card
        del store.trusted_roots[card.chain.root_fingerprint]
        assert validate_chain(card.chain, store, NOW).failure_code is FailureCode.NOT_TRUSTED

    def test_unknown_root_fingerprint_is_not_trusted(self, warm_card):
        store, _, card = warm_card
        chain = dataclasses.replace(card.chain, root_fingerprint=bytes(32))
        assert validate_chain(chain, store, NOW).failure_code is FailureCode.NOT_TRUSTED

    def test_gutted_copy_starts_empty_and_is_not_trusted(self, warm_card):
        store, _, card = warm_card
        gutted = dataclasses.replace(store, allowed_authorities=frozenset())
        assert memo_certs(gutted) == set() and memo_certs(store)
        assert validate_chain(card.chain, gutted, NOW).failure_code is FailureCode.NOT_TRUSTED

    def test_memo_is_not_part_of_equality_or_repr(self, warm_card):
        store, _, _ = warm_card
        cold = TrustStore(store.trusted_roots, store.allowed_authorities, store.root_names)
        assert cold == store and repr(cold) == repr(store)

    def test_foreign_and_rejected_chains_leave_the_memo_empty(self):
        store, hierarchy = generate_ca_hierarchy(2, 2, seed=304)
        _, foreign = generate_ca_hierarchy(2, 2, seed=305)
        stranger = issue_identity_cert(foreign, foreign.issuers[0], "Stranger", "UID-S", WINDOW)
        card = issue_identity_cert(hierarchy, hierarchy.issuers[0], "Holder", "UID-H", WINDOW)
        rejected = {
            "foreign": stranger.chain,
            # every intermediate link verifies before the root lookup fails
            "unknown-root": dataclasses.replace(card.chain, root_fingerprint=bytes(32)),
            "bad-top": dataclasses.replace(card.chain, intermediates=(
                card.chain.intermediates[0], flip_signature(card.chain.intermediates[1]))),
            "bad-leaf": chain_with_leaf(card, flip_signature(card.certificate)),
        }
        for name, chain in rejected.items():
            assert not validate_chain(chain, store, NOW).accepted, name
            assert store._verified_issuers == set(), name
        assert validate_chain(card.chain, store, WINDOW[1] + 1).failure_code is FailureCode.EXPIRED
        assert store._verified_issuers == set()

    def test_tampered_signer_is_not_trusted(self, warm_passport):
        store, _, _, _, passport = warm_passport
        for dsc in (dataclasses.replace(passport.dsc, serial=passport.dsc.serial + 1),
                    flip_signature(passport.dsc)):
            forged = dataclasses.replace(passport, dsc=dsc)
            assert validate_epassport(forged, store, NOW).failure_code is FailureCode.NOT_TRUSTED
        assert validate_epassport(passport, store, NOW).accepted

    def test_remembered_signer_still_checks_the_security_object(self, warm_passport):
        store, _, _, _, passport = warm_passport
        sig = passport.sod_signature
        forged = dataclasses.replace(passport, sod_signature=bytes([sig[0] ^ 1]) + sig[1:])
        assert validate_epassport(forged, store, NOW).failure_code is FailureCode.BAD_SIGNATURE

    def test_remembered_signer_outside_the_document_window_is_expired(self, warm_passport):
        store, csca, dsc, holder, _ = warm_passport
        stale = issue_epassport(csca, dsc, dataclasses.replace(holder, expiry_date="200101"),
                                with_aa=False, seed=15)
        assert validate_epassport(stale, store, NOW).failure_code is FailureCode.EXPIRED
        assert validate_epassport(stale, store, WINDOW[1] + 1).failure_code is FailureCode.EXPIRED

    def test_rejected_passports_leave_the_memo_empty(self, passport_setup):
        *_, holder, passport = passport_setup
        store, hierarchy = generate_ca_hierarchy(2, 0, seed=606)
        csca = hierarchy.authority(hierarchy.issuers[0])
        dsc = issue_dsc(csca, "printer-r", WINDOW)
        stale = issue_epassport(csca, dsc, dataclasses.replace(holder, expiry_date="200101"),
                                with_aa=False, seed=16)
        # the signer's certificate verifies before the window check fails
        assert validate_epassport(stale, store, NOW).failure_code is FailureCode.EXPIRED
        foreign_store, _ = generate_ca_hierarchy(1, 0, seed=404)
        assert validate_epassport(passport, foreign_store, NOW).failure_code \
            is FailureCode.NOT_TRUSTED
        assert store._verified_issuers == set() == foreign_store._verified_issuers


def flip_byte_of(blob: bytes, part: bytes) -> bytes:
    """`blob` with the first byte of `part` inside it flipped."""
    at = blob.index(part)
    return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]


class TestIssuerDecodeMemo:
    """Issuer certificates decode once per process for equal bytes; leaves,
    and every check, run for every document."""

    def test_equal_issuer_bytes_decode_to_one_certificate(self, card_setup, passport_setup):
        _, _, card = card_setup
        a, b = (CertChain.from_bytes(card.chain.to_bytes()) for _ in range(2))
        assert a.leaf == b.leaf and a.leaf is not b.leaf
        assert a.intermediates == card.chain.intermediates
        assert all(x is y for x, y in zip(a.intermediates, b.intermediates, strict=True))
        passport = passport_setup[-1]
        p, q = (EPassport.from_bytes(passport.public_bytes()) for _ in range(2))
        assert p.dsc is q.dsc and p.dsc == passport.dsc
        assert p == q and p is not q and p.dg1 is not q.dg1

    @pytest.mark.parametrize("position", [0, 1])
    def test_flipped_intermediate_decodes_afresh_and_is_bad_signature(self, warm_card,
                                                                      position):
        store, _, card = warm_card
        blob = card.chain.to_bytes()
        clean = CertChain.from_bytes(blob)
        flipped = flip_byte_of(blob, card.chain.intermediates[position].signature)
        forged = CertChain.from_bytes(flipped)
        for i, (cert, warm) in enumerate(zip(forged.intermediates, clean.intermediates)):
            assert (cert is warm) == (i != position)
        assert validate_chain(forged, store, NOW).failure_code is FailureCode.BAD_SIGNATURE
        assert validate_chain(clean, store, NOW).accepted

    def test_flipped_signer_decodes_afresh_and_is_not_trusted(self, warm_passport):
        store, _, _, _, passport = warm_passport
        blob = passport.public_bytes()
        clean = EPassport.from_bytes(blob)
        forged = EPassport.from_bytes(flip_byte_of(blob, passport.dsc.signature))
        assert forged.dsc is not clean.dsc and forged.dsc != clean.dsc
        assert validate_epassport(forged, store, NOW).failure_code is FailureCode.NOT_TRUSTED
        assert validate_epassport(clean, store, NOW).accepted

    def test_distinct_issuer_bytes_beyond_the_bound_keep_the_memo_at_it(self, card_setup):
        _, _, card = card_setup
        chain = card.chain
        bound = _decode_issuer.cache_info().maxsize
        assert 0 < bound <= 256
        for serial in range(bound + 16):
            forged = dataclasses.replace(chain.intermediates[0], serial=10_000 + serial)
            CertChain.from_bytes(dataclasses.replace(
                chain, intermediates=(forged, *chain.intermediates[1:])).to_bytes())
        assert _decode_issuer.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# Identifiers and challenge signing
# ---------------------------------------------------------------------------


class TestUniqueId:
    def test_card_uses_explicit_field(self, card_setup):
        _, _, card = card_setup
        assert public_document(card).unique_id() == "UID-0001"
        assert public_document(card.chain).unique_id() == "UID-0001"
        assert card.certificate.unique_id() == "UID-0001"

    def test_card_without_field_raises(self, card_setup):
        _, _, card = card_setup
        stripped = dataclasses.replace(card.certificate, unique_id_field=None)
        with pytest.raises(MissingIdentifier):
            public_document(dataclasses.replace(card.chain, leaf=stripped)).unique_id()

    def test_card_with_empty_field_raises(self, card_setup):
        _, _, card = card_setup
        emptied = dataclasses.replace(card.certificate, unique_id_field="")
        with pytest.raises(MissingIdentifier):
            public_document(dataclasses.replace(card.chain, leaf=emptied)).unique_id()

    @pytest.mark.parametrize("personal_number, document_number",
                             [("", "X1234567"), (None, "")])
    def test_passport_with_empty_id_raises(self, passport_setup, personal_number,
                                           document_number):
        *_, passport = passport_setup
        emptied = dataclasses.replace(
            passport, dg11_personal_number=personal_number,
            dg1=dataclasses.replace(passport.dg1, document_number=document_number))
        with pytest.raises(MissingIdentifier):
            public_document(emptied).unique_id()

    def test_passport_prefers_personal_number(self, passport_setup):
        *_, passport = passport_setup
        assert public_document(passport).unique_id() == "PN-42"

    def test_passport_falls_back_to_document_number(self, passport_setup):
        *_, passport = passport_setup
        anonymous = dataclasses.replace(passport, dg11_personal_number=None)
        assert public_document(anonymous).unique_id() == passport.dg1.document_number

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            public_document(object())

    def test_a_bare_certificate_is_not_a_document(self, card_setup):
        store, _, card = card_setup
        with pytest.raises(TypeError, match="Certificate is not an identity document"):
            public_document(card.certificate).validate(store, NOW)
        with pytest.raises(TypeError, match="Certificate is not an identity document"):
            public_bytes_hash(public_document(card.certificate).public_bytes())

    def test_card_issuer_refuses_an_empty_identifier(self, card_setup):
        _, hierarchy, _ = card_setup
        with pytest.raises(ValueError, match="non-empty unique identifier"):
            issue_identity_cert(hierarchy, hierarchy.issuers[0], "Nobody", "", WINDOW)

    @pytest.mark.parametrize("personal_number, document_number",
                             [("", "X1234567"), (None, ""), ("", "")])
    def test_passport_issuer_refuses_an_empty_identifier(self, passport_setup,
                                                         personal_number, document_number):
        _, _, csca, dsc, holder, _ = passport_setup
        anonymous = dataclasses.replace(holder, personal_number=personal_number,
                                        document_number=document_number)
        with pytest.raises(ValueError, match="empty unique identifier"):
            issue_epassport(csca, dsc, anonymous, with_aa=True, seed=8)

    def test_passport_issuer_accepts_a_personal_number_without_document_number(
            self, passport_setup):
        store, _, csca, dsc, holder, _ = passport_setup
        passport = issue_epassport(csca, dsc, dataclasses.replace(holder, document_number=""),
                                   with_aa=True, seed=9)
        assert validate_epassport(passport, store, NOW).accepted
        assert public_document(passport).unique_id() == "PN-42"


class TestChallengeSigning:
    def test_card_signature_verifies(self, card_setup):
        _, _, card = card_setup
        sig = active_auth_sign(card, b"challenge-1")
        assert active_auth_verify(card.chain.public_key(), b"challenge-1", sig)

    def test_passport_signature_verifies(self, passport_setup):
        *_, passport = passport_setup
        sig = active_auth_sign(passport, b"challenge-2")
        assert active_auth_verify(passport.public_key(), b"challenge-2", sig)

    def test_wrong_message_rejected(self, card_setup):
        _, _, card = card_setup
        sig = active_auth_sign(card, b"challenge-1")
        assert not active_auth_verify(card.chain.public_key(), b"challenge-x", sig)

    def test_cross_document_rejected(self, card_setup, passport_setup):
        _, _, card = card_setup
        *_, passport = passport_setup
        sig = active_auth_sign(passport, b"challenge-3")
        assert not active_auth_verify(card.chain.public_key(), b"challenge-3", sig)

    def test_passport_without_chip_key_cannot_sign(self, passport_setup):
        _, _, csca, dsc, holder, _ = passport_setup
        plain = issue_epassport(csca, dsc, holder, with_aa=False, seed=15)
        assert plain.dg15_public_key is None
        with pytest.raises(NoActiveAuthentication):
            active_auth_sign(plain, b"challenge")
        with pytest.raises(NoActiveAuthentication):
            plain.public_key()

    def test_unsupported_document_cannot_sign(self):
        with pytest.raises(NoActiveAuthentication):
            active_auth_sign("not a document", b"challenge")


class TestHierarchyAndHashing:
    def test_unknown_authority_name(self, card_setup):
        _, hierarchy, _ = card_setup
        with pytest.raises(UnknownAuthority):
            hierarchy.authority("No Such Authority")

    def test_issuers_cover_every_country(self, card_setup):
        store, hierarchy, _ = card_setup
        assert len(hierarchy.issuers) == 3
        assert len(store.trusted_roots) == 3

    def test_document_hash_distinguishes_documents(self, card_setup, passport_setup):
        _, hierarchy, card = card_setup
        *_, passport = passport_setup
        other = issue_identity_cert(hierarchy, hierarchy.issuers[0],
                                    "Bob Example", "UID-0002", WINDOW)
        digests = {public_bytes_hash(public_document(doc).public_bytes())
                   for doc in (card, other, passport)}
        assert len(digests) == 3

    def test_document_hash_stable_across_round_trip(self, passport_setup):
        *_, passport = passport_setup
        rebuilt = EPassport.from_bytes(passport.public_bytes())
        assert (public_bytes_hash(rebuilt.public_bytes())
                == public_bytes_hash(passport.public_bytes()))

    def test_same_seed_reproduces_hierarchy(self):
        store_a, _ = generate_ca_hierarchy(2, 1, seed=77)
        store_b, _ = generate_ca_hierarchy(2, 1, seed=77)
        assert store_a.trusted_roots == store_b.trusted_roots

    def test_different_seed_changes_hierarchy(self):
        store_a, _ = generate_ca_hierarchy(2, 1, seed=77)
        store_b, _ = generate_ca_hierarchy(2, 1, seed=78)
        assert store_a.trusted_roots != store_b.trusted_roots
