"""Mutual attestation handshake and session sealing."""

from __future__ import annotations

import dataclasses

import pytest

from zkpoi import attestation
from zkpoi.attestation import (
    AttestationPolicy,
    EnclaveIdentity,
    mutual_attest,
    seal,
    unseal,
)
from zkpoi.crypto import ByteStream
from zkpoi.errors import MeasurementMismatch, WrongSession

CLIENT = EnclaveIdentity("zkpoi-wallet", 3)
SERVER = EnclaveIdentity("zkpoi-verifier", 5)
POLICY = AttestationPolicy.expecting(CLIENT, SERVER)


class TestMeasurements:
    def test_same_identity_measures_identically(self):
        assert EnclaveIdentity("a", 1).measurement == EnclaveIdentity("a", 1).measurement

    def test_name_and_version_both_matter(self):
        base = EnclaveIdentity("a", 1).measurement
        assert EnclaveIdentity("b", 1).measurement != base
        assert EnclaveIdentity("a", 2).measurement != base

    def test_measured_once_per_identity(self, monkeypatch):
        hashed = []

        def counting(*parts, _hash=attestation.hash_parts):
            hashed.append(parts)
            return _hash(*parts)
        monkeypatch.setattr(attestation, "hash_parts", counting)
        identity = EnclaveIdentity("a", 1)
        first = identity.measurement
        assert identity.measurement is first and len(hashed) == 1
        assert dataclasses.replace(identity, version=2).measurement != first
        assert len(hashed) == 2
        twin = EnclaveIdentity("a", 1)
        assert identity == twin and hash(identity) == hash(twin)
        assert repr(identity) == "EnclaveIdentity(name='a', version=1)"

    def test_measurement_pins_the_version(self):
        assert POLICY.admits(CLIENT) and POLICY.admits(SERVER)
        for version in (CLIENT.version - 1, CLIENT.version + 1):  # right code, other build
            assert not POLICY.admits(EnclaveIdentity(CLIENT.name, version))


class TestHandshake:
    def test_both_admitted_yields_session(self):
        session = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-0"))
        assert session.client == CLIENT
        assert session.server == SERVER
        assert len(session.client_token) == 32

    def test_unknown_client_names_client_side(self):
        rogue = EnclaveIdentity("zkpoi-wallet", 4)  # unexpected version
        with pytest.raises(MeasurementMismatch) as err:
            mutual_attest(rogue, SERVER, POLICY, rng=ByteStream(b"seed-0"))
        assert err.value.side == "client"

    def test_unknown_server_names_server_side(self):
        rogue = EnclaveIdentity("someone-else", 5)
        with pytest.raises(MeasurementMismatch) as err:
            mutual_attest(CLIENT, rogue, POLICY, rng=ByteStream(b"seed-0"))
        assert err.value.side == "server"

    def test_client_checked_before_server(self):
        with pytest.raises(MeasurementMismatch) as err:
            mutual_attest(EnclaveIdentity("x", 1), EnclaveIdentity("y", 1), POLICY,
                          rng=ByteStream(b"seed-0"))
        assert err.value.side == "client"

    def test_sessions_are_unlinkable(self):
        stream = ByteStream(b"seed-0")
        a = mutual_attest(CLIENT, SERVER, POLICY, rng=stream)
        b = mutual_attest(CLIENT, SERVER, POLICY, rng=stream)
        assert a.client_token != b.client_token

    def test_seeded_stream_reproduces_session_material(self):
        a = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-1"))
        b = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-1"))
        c = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-2"))
        assert a.client_token == b.client_token
        assert a.client_token != c.client_token

    def test_repr_never_prints_the_session_key(self):
        session = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-3"))
        session_key = ByteStream(b"seed-3").take(32)  # the stream's first draw
        assert session_key.hex() not in repr(session)
        assert session_key not in vars(session).values()


class TestSealing:
    def test_round_trip(self):
        session = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-0"))
        payload = b"registration evidence" * 10
        assert unseal(session, seal(session, payload)) == payload

    def test_ciphertexts_differ_across_calls(self):
        session = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-0"))
        assert seal(session, b"same payload") != seal(session, b"same payload")

    def test_other_session_cannot_unseal(self):
        stream = ByteStream(b"seed-0")
        a = mutual_attest(CLIENT, SERVER, POLICY, rng=stream)
        b = mutual_attest(CLIENT, SERVER, POLICY, rng=stream)
        blob = seal(a, b"secret")
        with pytest.raises(WrongSession):
            unseal(b, blob)

    def test_tampered_blob_rejected(self):
        session = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-0"))
        blob = bytearray(seal(session, b"secret"))
        blob[-1] ^= 1
        with pytest.raises(WrongSession):
            unseal(session, bytes(blob))

    def test_truncated_blob_rejected(self):
        session = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-0"))
        with pytest.raises(WrongSession):
            unseal(session, b"\x01")

    def test_session_keys_one_cipher(self, monkeypatch):
        keyed = []

        def counting(key, _cipher=attestation.AESGCM):
            keyed.append(key)
            return _cipher(key)
        monkeypatch.setattr(attestation, "AESGCM", counting)
        session = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-0"))
        for payload in (b"first", b"second", b""):
            assert unseal(session, seal(session, payload)) == payload
        assert len(keyed) == 1

    def test_empty_payload_round_trips(self):
        session = mutual_attest(CLIENT, SERVER, POLICY, rng=ByteStream(b"seed-0"))
        assert unseal(session, seal(session, b"")) == b""
