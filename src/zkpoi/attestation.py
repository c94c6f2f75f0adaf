"""Simulated mutual attestation between client and verifier logic.

Both endpoints present a measurement (hash of a named code identity plus a
version). When both match the policy, the pair shares a fresh symmetric
session key and the client gets an unlinkable random token, standing in for
group-signature-based anonymous attestation. Registration evidence crosses
module boundaries only inside payloads sealed under the session key, so a
host observing the verifier's state never sees it in the clear.

No side channels or quote wire formats are modeled; the trust restriction
to known-good code is exactly the policy set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .crypto import ByteStream, hash_parts, seal_bytes, unseal_bytes
from .errors import MeasurementMismatch

_TOKEN_LEN = 32
_KEY_LEN = 32


@dataclass(frozen=True)
class EnclaveIdentity:
    """A named code identity at a specific version."""

    name: str
    version: int

    @cached_property
    def measurement(self) -> bytes:
        # Same name and version always measure the same; any change to either
        # produces an unrelated digest. Hashed once per instance.
        return hash_parts(b"enclave-measurement", self.name.encode("utf-8"),
                          self.version.to_bytes(8, "big"))


@dataclass(frozen=True)
class AttestationPolicy:
    """Measurements the handshake accepts; a measurement hashes the version,
    so each one pins a single build."""

    allowed_measurements: frozenset[bytes]

    @classmethod
    def expecting(cls, *identities: EnclaveIdentity) -> "AttestationPolicy":
        return cls(frozenset(i.measurement for i in identities))

    def admits(self, identity: EnclaveIdentity) -> bool:
        return identity.measurement in self.allowed_measurements


class AttestationSession:
    """An established mutually-attested channel.

    The session key never serializes: it lives only in the session's one
    AES-GCM cipher, keyed when the session is made. The client token is
    fresh per session so two sessions of the same client cannot be linked
    to each other.
    """

    def __init__(self, session_key: bytes, client_token: bytes,
                 client: EnclaveIdentity, server: EnclaveIdentity):
        self._cipher = AESGCM(session_key)
        self.client_token = client_token
        self.client = client
        self.server = server
        self._seal_counter = 0

    def __repr__(self) -> str:
        return (f"AttestationSession(token={self.client_token.hex()[:16]}..., "
                f"client={self.client.name}, server={self.server.name})")


def mutual_attest(client: EnclaveIdentity, server: EnclaveIdentity,
                  policy: AttestationPolicy, rng: ByteStream) -> AttestationSession:
    """Handshake: admit both sides under the policy or name the failing one.

    The session key and client token are drawn from `rng`, so a seeded
    stream makes session material reproducible."""
    if not policy.admits(client):
        raise MeasurementMismatch("client", f"{client.name} v{client.version}")
    if not policy.admits(server):
        raise MeasurementMismatch("server", f"{server.name} v{server.version}")
    return AttestationSession(rng.take(_KEY_LEN), rng.take(_TOKEN_LEN), client, server)


def seal(session: AttestationSession, payload: bytes) -> bytes:
    """Encrypt a payload so only this session can read it back."""
    blob = seal_bytes(session._cipher, session._seal_counter, payload,
                      aad=session.client_token)
    session._seal_counter += 1
    return blob


def unseal(session: AttestationSession, blob: bytes) -> bytes:
    """Decrypt a sealed payload; fails for material from any other session."""
    return unseal_bytes(session._cipher, blob, aad=session.client_token)
