"""Thin deterministic wrappers over hashlib and the cryptography library.

Everything here is chosen for reproducibility: Ed25519 signatures are
deterministic by construction, key material is derived from explicit seeds,
and the byte stream used for simulation randomness is a SHA-256 counter so
fixture generation is bit-stable across runs and platforms.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import TYPE_CHECKING

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import frame_parts
from .errors import WrongSession

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

DIGEST_LEN = 32
SIGNATURE_LEN = 64
PUBLIC_KEY_LEN = 32
_GCM_NONCE_LEN = 12


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hash_parts(*parts: bytes) -> bytes:
    """Digest of several byte strings under collision-free framing."""
    return sha256(frame_parts(*parts))


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    return _hmac.digest(key, data, "sha256")


def pbkdf2_sha256(passphrase: str, salt: bytes, iterations: int) -> bytes:
    """A 32-byte PBKDF2-HMAC-SHA256 output."""
    if iterations < 1:
        raise ValueError("iteration count must be >= 1")
    return hashlib.pbkdf2_hmac("sha256", passphrase.encode("utf-8"), salt, iterations, 32)


class SigningKey:
    """Ed25519 signing key with deterministic derivation helpers."""

    def __init__(self, key: Ed25519PrivateKey):
        self._key = key
        self.public_bytes: bytes = key.public_key().public_bytes_raw()

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKey":
        if len(seed) != 32:
            raise ValueError("seed must be exactly 32 bytes")
        return cls(Ed25519PrivateKey.from_private_bytes(seed))

    @classmethod
    def from_labels(cls, *labels: bytes) -> "SigningKey":
        """Derive a key from an explicit label tuple; same labels, same key."""
        return cls.from_seed(hash_parts(b"zkpoi/ed25519-seed/v1", *labels))

    def sign(self, message: bytes) -> bytes:
        return self._key.sign(message)

    def __repr__(self) -> str:  # never leak private material in logs
        return f"SigningKey(pk={self.public_bytes.hex()[:16]}...)"


def verify_signature(public_key: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


class ByteStream:
    """Deterministic byte source: SHA-256 over (seed, counter) blocks."""

    def __init__(self, seed: bytes):
        self._seed = bytes(seed)
        self._counter = 0

    def take(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            block = hash_parts(b"zkpoi/stream/v1", self._seed, self._counter.to_bytes(8, "big"))
            out.extend(block)
            self._counter += 1
        return bytes(out[:n])


def seal_bytes(cipher: AESGCM, nonce_counter: int, payload: bytes, aad: bytes) -> bytes:
    """AES-GCM encrypt with an explicit counter nonce (caller must not reuse)."""
    nonce = nonce_counter.to_bytes(_GCM_NONCE_LEN, "big")
    return nonce + cipher.encrypt(nonce, payload, aad)


def unseal_bytes(cipher: AESGCM, blob: bytes, aad: bytes) -> bytes:
    if len(blob) < _GCM_NONCE_LEN:
        raise WrongSession("ciphertext too short")
    nonce, ct = blob[:_GCM_NONCE_LEN], blob[_GCM_NONCE_LEN:]
    try:
        return cipher.decrypt(nonce, ct, aad)
    except InvalidTag as exc:
        raise WrongSession("authentication tag mismatch") from exc
