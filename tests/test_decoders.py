"""Every decoder of untrusted bytes either returns or raises DecodeError.

Each decoder gets arbitrary bytes and 1-3-byte mutations (replace, insert,
delete) of valid encodings; any other exception escaping is a defect.

The codec is canonical: whatever a structure's decoder accepts re-encodes
to the very bytes it was decoded from. Documents keep those bytes instead
of encoding themselves again, so the property is checked both through that
memo and on a memo-free copy, for valid encodings, for every one-field edit
of them and for drawn mutants.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    return {
        "certificate": [c.to_bytes() for c in (card.certificate, *card.chain.intermediates,
                                                dsc.cert)],
        "chain": [card.chain.to_bytes()],
        "dg1": [chipped.dg1.to_bytes()],
        "epassport": [chipped.public_bytes(), plain.public_bytes()],
        "bundle": [b.to_bytes() for b in bundles],
    }


VALID = valid_encodings()


# Each structure's (decode, encode); whatever decodes re-encodes.
CANONICAL = {
    "certificate": (Certificate.from_bytes, Certificate.to_bytes),
    "chain": (CertChain.from_bytes, CertChain.to_bytes),
    "dg1": (Dg1.from_bytes, Dg1.to_bytes),
    "epassport": (EPassport.from_bytes, EPassport.public_bytes),
    "bundle": (RegistrationBundle.from_bytes, RegistrationBundle.to_bytes),
}


def without_memo(value):
    """A copy of a decoded value that holds no encoding memo at any depth."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: without_memo(getattr(value, f.name))
                                             for f in dataclasses.fields(value) if f.init})
    if isinstance(value, tuple):
        return tuple(without_memo(v) for v in value)
    return value


def assert_canonical(name: str, blob: bytes) -> None:
    decode, encode = CANONICAL[name]
    try:
        value = decode(blob)
    except DecodeError:
        return
    assert encode(value) == blob
    assert encode(without_memo(value)) == blob


# A framed blob as a tree: a list of fields, each the bytes of a leaf or,
# where its payload is itself a sequence of frames, a list again. Written
# apart from the codec under test: 4-byte big-endian length, then payload.

def parse_frames(blob: bytes) -> list | None:
    fields, pos = [], 0
    while pos < len(blob):
        end = pos + 4 + int.from_bytes(blob[pos:pos + 4], "big")
        if pos + 4 > len(blob) or end > len(blob):
            return None
        payload = blob[pos + 4:end]
        nested = parse_frames(payload) if payload else None
        fields.append(payload if nested is None else nested)
        pos = end
    return fields


def join_frames(tree: list) -> bytes:
    parts = []
    for node in tree:
        payload = node if isinstance(node, bytes) else join_frames(node)
        parts.append(len(payload).to_bytes(4, "big") + payload)
    return b"".join(parts)


def node_paths(tree: list, prefix: tuple = ()) -> list[tuple[int, ...]]:
    paths = []
    for i, node in enumerate(tree):
        paths.append(prefix + (i,))
        if isinstance(node, list):
            paths.extend(node_paths(node, prefix + (i,)))
    return paths


def node_bytes(tree: list, path: tuple[int, ...]) -> bytes:
    node = tree[path[0]]
    if len(path) > 1:
        return node_bytes(node, path[1:])
    return node if isinstance(node, bytes) else join_frames(node)


def with_node(tree: list, path: tuple[int, ...], payload: bytes) -> list:
    out = list(tree)
    out[path[0]] = payload if len(path) == 1 else with_node(tree[path[0]], path[1:], payload)
    return out


def field_edits(payload: bytes) -> list[bytes]:
    """Edits that keep the framing but probe each field's width and values:
    emptied, widened by a leading zero, narrowed, first byte bumped by 1 or 2."""
    edits = [b"", b"\x00" + payload]
    if payload:
        edits.append(payload[1:])
        edits.extend(bytes([(payload[0] + k) % 256]) + payload[1:] for k in (1, 2))
    return edits


def one_field_edits(blob: bytes):
    tree = parse_frames(blob)
    for path in node_paths(tree):
        for edit in field_edits(node_bytes(tree, path)):
            yield join_frames(with_node(tree, path, edit))


@st.composite
def field_mutants(draw, valid: list[bytes]) -> bytes:
    """A valid encoding with 1-2 fields, at any depth, edited or redrawn;
    every enclosing length prefix is fixed up, so the framing still holds."""
    blob = draw(st.sampled_from(valid))
    for _ in range(draw(st.integers(1, 2))):
        tree = parse_frames(blob)
        path = draw(st.sampled_from(node_paths(tree)))
        old = node_bytes(tree, path)
        new = draw(st.one_of(st.sampled_from(field_edits(old)), st.binary(max_size=12)))
        blob = join_frames(with_node(tree, path, new))
    return blob


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


@pytest.mark.parametrize("name", sorted(VALID))
@settings(max_examples=EXAMPLES, deadline=None)
@given(blob=st.binary(max_size=256))
def test_arbitrary_bytes(name, blob):
    returns_or_refuses(CANONICAL[name][0], blob)


@pytest.mark.parametrize("name", sorted(VALID))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_small_mutations_of_valid_encodings(name, data):
    blob = data.draw(mutations(VALID[name]), label="mutant")
    returns_or_refuses(CANONICAL[name][0], blob)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_valid_encodings_are_canonical(name):
    for blob in VALID[name]:
        CANONICAL[name][0](blob)
        assert_canonical(name, blob)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_every_one_field_edit_that_decodes_re_encodes(name):
    for blob in VALID[name]:
        assert join_frames(parse_frames(blob)) == blob
        for mutant in one_field_edits(blob):
            assert_canonical(name, mutant)


@pytest.mark.parametrize("name", sorted(CANONICAL))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_decoded_mutants_re_encode_to_their_bytes(name, data):
    valid = VALID[name]
    blob = data.draw(st.one_of(mutations(valid), field_mutants(valid)), label="mutant")
    assert_canonical(name, blob)
