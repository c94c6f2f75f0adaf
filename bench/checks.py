"""Independent recomputations the benchmark checks the library against.

Nothing here imports zkpoi: every value is rebuilt from the documented
formats and formulas with hashlib and plain arithmetic, so a library bug
cannot hide by agreeing with itself.
"""

from __future__ import annotations

import hashlib
import json
import math

_LEN_BYTES = 4


def frame_parts(*parts: bytes) -> bytes:
    """Each part prefixed by its length as a 4-byte big-endian count."""
    return b"".join(len(p).to_bytes(_LEN_BYTES, "big") + p for p in parts)


def digest_parts(*parts: bytes) -> bytes:
    return hashlib.sha256(frame_parts(*parts)).digest()


def pseudonym_digest(secret: bytes, network_id: str, unique_id: str) -> bytes:
    """sha256 over the framed (secret, network id, unique id)."""
    return digest_parts(secret, network_id.encode("utf-8"), unique_id.encode("utf-8"))


def encode_attributes(attributes: tuple[str, ...]) -> bytes:
    """The attrs:v1 structure: tag, u64 count, then each attribute as text."""
    fields = [b"attrs:v1", len(attributes).to_bytes(8, "big")]
    fields += [a.encode("utf-8") for a in attributes]
    return frame_parts(*fields)


def accumulator_domain(seed: int) -> bytes:
    return digest_parts(b"acc-domain", seed.to_bytes(8, "big"))


def accumulator_leaf(domain: bytes, element: bytes) -> bytes:
    return digest_parts(b"acc-leaf", domain, element)


def accumulator_root(domain: bytes, leaves) -> bytes:
    """Root of the sorted-leaf tree: pairs hash left to right, an odd tail
    node moves up unchanged, and the root binds the domain and leaf count."""
    level = sorted(leaves)
    count = len(level)
    while len(level) > 1:
        nxt = [digest_parts(b"acc-node", level[i], level[i + 1])
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    top = level[0] if level else b""
    return digest_parts(b"acc-root", domain, top, count.to_bytes(8, "big"))


def cooperator_payoff(block_reward: float, k: int, l: int, tx_reward: float, y: int,
                      fixed_cost: float, x: int, per_tx_cost: float) -> float:
    """BR/(k*l) + r*|y|/l - (c_f + |x|*c_v)."""
    return block_reward / (k * l) + tx_reward * y / l - (fixed_cost + x * per_tx_cost)


def payoff_matches(got: float, expected: float) -> bool:
    return math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)


def manifest_hash_ok(manifest_line: str, payload: bytes) -> bool:
    """The manifest names exactly one output whose hash is sha256(payload)."""
    outputs = json.loads(manifest_line)["outputs"]
    return list(outputs.values()) == [hashlib.sha256(payload).hexdigest()]
