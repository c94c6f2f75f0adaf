"""Every decoder of untrusted bytes either returns or raises DecodeError.

Each decoder gets arbitrary bytes and 1-3-byte mutations (replace, insert,
delete) of valid encodings; any other exception escaping is a defect.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkpoi import attestation
from zkpoi.credential import AA_MODE_ABSENT, RegistrationBundle, build_registration_bundle
from zkpoi.errors import DecodeError
from zkpoi.identity import (
    GENESIS,
    YEAR,
    CertChain,
    Certificate,
    Dg1,
    EPassport,
    HolderFields,
    generate_ca_hierarchy,
    issue_dsc,
    issue_epassport,
    issue_identity_cert,
)
from zkpoi.registry import (
    Registry,
    decode_attributes,
    default_identity_attributes,
    encode_attributes,
    load_log,
)

NOW = GENESIS + YEAR
WINDOW = (GENESIS, GENESIS + 10 * YEAR)
NETWORK = "chain-decoders"
EXAMPLES = 120


def valid_encodings() -> dict[str, list[bytes]]:
    store, hierarchy = generate_ca_hierarchy(1, 2, seed=808)
    card = issue_identity_cert(hierarchy, hierarchy.issuers[0], "Decoder Holder",
                               "UID-D-1", WINDOW)
    csca = hierarchy.authority("Country-01 Root CA")
    dsc = issue_dsc(csca, "printer-d", WINDOW)
    holder = HolderFields(name="ROE RICHARD", document_number="D7654321", nationality="N01",
                          birth_date="851231", sex="M", expiry_date="401231",
                          issuing_state="N01", personal_number="PN-D")
    chipped = issue_epassport(csca, dsc, holder, with_aa=True, seed=1)
    plain = issue_epassport(csca, dsc, holder, with_aa=False, seed=2)
    bundles = [
        build_registration_bundle(card, "pp", NETWORK, store, NOW, kdf_iterations=2)[0],
        build_registration_bundle(plain, "pp", NETWORK, store, NOW, aa_mode=AA_MODE_ABSENT,
                                  kdf_iterations=2)[0],
    ]
    registry = Registry(store, NETWORK, seed=3)
    session = registry.open_session(attestation.EnclaveIdentity("zkpoi-wallet", 1))
    registry.register(attestation.seal(session, bundles[0].to_bytes()), session, NOW)
    log = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in registry.log)
    return {
        "certificate": [c.to_bytes() for c in (card.certificate, *card.chain.intermediates,
                                                dsc.cert)],
        "chain": [card.chain.to_bytes()],
        "dg1": [chipped.dg1.to_bytes()],
        "epassport": [chipped.public_bytes(), plain.public_bytes()],
        "bundle": [b.to_bytes() for b in bundles],
        "attributes": [encode_attributes(default_identity_attributes(doc))
                       for doc in (card.chain, chipped)],
        "log": [log.encode("utf-8")],
    }


VALID = valid_encodings()


@pytest.fixture(scope="module")
def log_file(tmp_path_factory):
    return tmp_path_factory.mktemp("decoders") / "registry.log"


def decoders(log_path) -> dict:
    def decode_log(blob: bytes):
        log_path.write_bytes(blob)
        return load_log(log_path)
    return {
        "certificate": Certificate.from_bytes,
        "chain": CertChain.from_bytes,
        "dg1": Dg1.from_bytes,
        "epassport": EPassport.from_bytes,
        "bundle": RegistrationBundle.from_bytes,
        "attributes": decode_attributes,
        "log": decode_log,
    }


@st.composite
def mutations(draw, valid: list[bytes]) -> bytes:
    blob = bytearray(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or not blob:
            blob.insert(draw(st.integers(0, len(blob))), draw(st.integers(0, 255)))
        elif op == "replace":
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        else:
            del blob[draw(st.integers(0, len(blob) - 1))]
    return bytes(blob)


def returns_or_refuses(decode, blob: bytes) -> None:
    try:
        decode(blob)
    except DecodeError:
        pass


def test_valid_encodings_decode(log_file):
    for name, decode in decoders(log_file).items():
        for blob in VALID[name]:
            decode(blob)


@pytest.mark.parametrize("name", sorted(VALID))
@settings(max_examples=EXAMPLES, deadline=None)
@given(blob=st.binary(max_size=256))
def test_arbitrary_bytes(log_file, name, blob):
    returns_or_refuses(decoders(log_file)[name], blob)


@pytest.mark.parametrize("name", sorted(VALID))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_small_mutations_of_valid_encodings(log_file, name, data):
    blob = data.draw(mutations(VALID[name]), label="mutant")
    returns_or_refuses(decoders(log_file)[name], blob)
