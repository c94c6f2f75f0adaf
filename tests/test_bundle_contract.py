"""Field-level bundle mutants: every verifier answers each with a verdict.

Each field of a valid registration bundle is replaced by an empty value, by
another bundle's value, or by drawn bytes or text. The bundle is then
re-encoded, sealed and presented to ``Registry.register`` and
``Registry.take_offline``; it is also handed, as a bundle object, to
``verify_registration_bundle`` with an empty record and with the record of
the unmutated bundle's checks, and its document bytes to
``CertChain.from_bytes`` plus ``validate_chain`` and to
``EPassport.from_bytes`` plus ``validate_epassport``. Each call may return
or raise a ``ZkpoiError``; any other exception escaping is a defect.
Unlike a byte flip, a field edit leaves the signed document intact, so the
checks behind its signature (the unique id, the pseudonym inputs, the key
binding and the secret) are reached. One mutant is also held to its verdict:
a document that can sign, stated in the degraded path's mode, is refused.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkpoi import attestation
from zkpoi.codec import Encoder
from zkpoi.credential import (
    AA_MODE_ABSENT,
    SUFFIX_OFF,
    SUFFIX_REG,
    Pseudonym,
    RegistrationBundle,
    TransparentEvidence,
    build_registration_bundle,
    verify_registration_bundle,
)
from zkpoi.errors import InvalidBundle, ZkpoiError
from zkpoi.identity import (
    GENESIS,
    YEAR,
    CertChain,
    EPassport,
    HolderFields,
    generate_ca_hierarchy,
    issue_dsc,
    issue_epassport,
    issue_identity_cert,
    validate_chain,
    validate_epassport,
)
from zkpoi.registry import Registry

NOW = GENESIS + YEAR
WINDOW = (GENESIS, GENESIS + 10 * YEAR)
NETWORK = "chain-contract"
CLIENT = attestation.EnclaveIdentity("zkpoi-wallet", 1)
EXAMPLES = 100

# The bundle:v1 fields in encoding order; the text fields hold str, sign_pk
# bytes or None, the others bytes.
FIELDS = ("digest", "suffix", "pk", "sign_pk", "doc_kind", "doc_bytes", "secret", "aa_mode")
TEXT_FIELDS = ("suffix", "doc_kind", "aa_mode")


def fields_of(bundle) -> dict:
    evidence = bundle.evidence
    return {"digest": bundle.pseudonym.digest, "suffix": bundle.pseudonym.suffix,
            "pk": bundle.pk, "sign_pk": bundle.sign_pk, "doc_kind": evidence.doc_kind,
            "doc_bytes": evidence.doc_bytes, "secret": evidence.secret,
            "aa_mode": evidence.aa_mode}


def encode(fields: dict) -> bytes:
    """The bundle:v1 encoding of `fields`, whatever their values."""
    return (Encoder("bundle:v1")
            .put_bytes(fields["digest"]).put_text(fields["suffix"])
            .put_bytes(fields["pk"]).put_opt_bytes(fields["sign_pk"])
            .put_text(fields["doc_kind"]).put_bytes(fields["doc_bytes"])
            .put_bytes(fields["secret"]).put_text(fields["aa_mode"])
            .done())


def make_bases() -> tuple:
    """(trust store, [(REG fields, OFF fields)]) for a card, a chipped passport
    and a chipless passport on the degraded path."""
    store, hierarchy = generate_ca_hierarchy(1, 1, seed=909)
    card = issue_identity_cert(hierarchy, hierarchy.issuers[0], "Contract Holder",
                               "UID-K-1", WINDOW)
    csca = hierarchy.authority("Country-01 Root CA")
    dsc = issue_dsc(csca, "printer-k", WINDOW)
    holder = HolderFields(name="ROE RICHARD", document_number="K7654321", nationality="N01",
                          birth_date="851231", sex="M", expiry_date="401231",
                          issuing_state="N01", personal_number="PN-K")
    documents = [(card, {}),
                 (issue_epassport(csca, dsc, holder, with_aa=True, seed=1), {}),
                 (issue_epassport(csca, dsc, holder, with_aa=False, seed=2),
                  {"aa_mode": AA_MODE_ABSENT})]
    bases = []
    for doc, options in documents:
        reg, off = (build_registration_bundle(doc, "pp", NETWORK, store, NOW, suffix=suffix,
                                              kdf_iterations=2, **options)[0]
                    for suffix in (SUFFIX_REG, SUFFIX_OFF))
        assert encode(fields_of(reg)) == reg.to_bytes()
        bases.append((fields_of(reg), fields_of(off)))
    return store, bases


STORE, BASES = make_bases()


def bundle_of(fields: dict) -> RegistrationBundle | None:
    """The bundle object holding `fields`, built without the decoder's
    checks of the mode; None for a foreign suffix, which no pseudonym holds."""
    try:
        pseudonym = Pseudonym(fields["digest"], fields["suffix"])
    except ValueError:
        return None
    evidence = TransparentEvidence(doc_kind=fields["doc_kind"], doc_bytes=fields["doc_bytes"],
                                   secret=fields["secret"], aa_mode=fields["aa_mode"])
    return RegistrationBundle(pseudonym, fields["pk"], fields["sign_pk"], evidence)


def recorded_checks(fields: dict) -> tuple:
    verdict = verify_registration_bundle(bundle_of(fields), STORE, NETWORK, NOW)
    assert verdict.accepted and verdict.checks
    return verdict.checks


# Each base's document-signature and secret checks, as the registry that
# admitted it records them.
RECORDS = [recorded_checks(reg) for reg, _off in BASES]


def returns_or_refuses(call, *args, **kwargs) -> None:
    try:
        call(*args, **kwargs)
    except ZkpoiError:
        pass


def verify_directly(base: int, field: str, value) -> None:
    """Verify the mutant and its OFF twin with and without the base's
    record, then validate the mutant's document bytes as either kind."""
    reg, off = BASES[base]
    for fields in ({**reg, field: value}, {**off, field: value}):
        bundle = bundle_of(fields)
        if bundle is not None:
            for verified in ((), RECORDS[base]):
                returns_or_refuses(verify_registration_bundle, bundle, STORE, NETWORK, NOW,
                                   verified=verified)
    doc_bytes = value if field == "doc_bytes" else reg["doc_bytes"]
    for verified in ((), RECORDS[base]):
        returns_or_refuses(lambda: validate_chain(CertChain.from_bytes(doc_bytes), STORE, NOW,
                                                  verified=verified))
        returns_or_refuses(lambda: validate_epassport(EPassport.from_bytes(doc_bytes), STORE,
                                                      NOW, verified=verified))


def present(base: int, field: str, value) -> None:
    """Register the mutant, then the unmutated bundle, then retire the
    mutant's OFF twin, on a fresh registry."""
    reg, off = BASES[base]
    registry = Registry(STORE, NETWORK, seed=5)
    session = registry.open_session(CLIENT)
    for call, fields in ((registry.register, {**reg, field: value}),
                         (registry.register, reg),
                         (registry.take_offline, {**off, field: value})):
        try:
            call(attestation.seal(session, encode(fields)), session, NOW)
        except ZkpoiError:
            pass


def empty_values(field: str) -> list:
    if field in TEXT_FIELDS:
        return [""]
    return [b"", None] if field == "sign_pk" else [b""]


SWEEP = [(base, field, value)
         for base in range(len(BASES)) for field in FIELDS
         for value in empty_values(field) + [BASES[other][0][field]
                                             for other in range(len(BASES)) if other != base]]


def test_mode_downgrade_mutant_is_refused_at_step6():
    """The single-field aa_mode="absent" mutant of the card and of the chipped
    passport keeps the honest secret and pseudonym but skips the key checks;
    the document can sign, so step 6 refuses it, directly and at the registry."""
    for base in (0, 1):
        mutant = {**BASES[base][0], "aa_mode": AA_MODE_ABSENT}
        for verified in ((), RECORDS[base]):
            verdict = verify_registration_bundle(bundle_of(mutant), STORE, NETWORK, NOW,
                                                 verified=verified)
            assert verdict.code == "step6"
        registry = Registry(STORE, NETWORK, seed=5)
        session = registry.open_session(CLIENT)
        with pytest.raises(InvalidBundle, match="step6"):
            registry.register(attestation.seal(session, encode(mutant)), session, NOW)


def test_every_empty_or_swapped_field_gets_a_verdict():
    escaped = []
    for base, field, value in SWEEP:
        try:
            present(base, field, value)
            verify_directly(base, field, value)
        except Exception as exc:
            escaped.append(f"bundle {base}, {field} = {value!r:.40}: "
                           f"{type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_drawn_field_gets_a_verdict(data):
    base = data.draw(st.integers(0, len(BASES) - 1))
    field = data.draw(st.sampled_from(FIELDS))
    if field in TEXT_FIELDS:
        value = data.draw(st.text(max_size=40))
    else:
        value = data.draw(st.binary(max_size=96))
    present(base, field, value)
    verify_directly(base, field, value)
