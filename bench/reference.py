"""A fixed reference loop that measures how fast the machine runs right now.

Shared hosts drift: on the 2-core VM where the reference figures in
README.md were taken, the same work took up to 60% longer from one minute to
the next, with no steal time and no other process in the machine. A chunk
of fixed work (SHA-256 chaining, dict stores and Ed25519 verifies through
`cryptography`, none of it zkpoi code) is timed beside the workload
throughout each run, and every end-to-end time is reported at the
reference speed:

    reported time = measured time * NOMINAL_NS / median(chunk ns in the run)

so a run that happens to land in a slow or fast spell of the host reads
the same. NOMINAL_NS is a constant (roughly the chunk's time on that VM);
it cancels when two commits are compared. Raw times stay in the report line.
"""

from __future__ import annotations

import hashlib
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

NOMINAL_NS = 2_500_000
CHUNKS = 20  # chunks timed at each measuring point

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"zkpoi benchmark reference"
_SIGNATURE = _KEY.sign(_MESSAGE)


def chunk_ns() -> int:
    """Time one chunk of the fixed work."""
    began = time.perf_counter_ns()
    digest, table = b"reference", {}
    for i in range(300):
        digest = hashlib.sha256(digest).digest()
        table[digest[:4]] = i
    for _ in range(10):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    return time.perf_counter_ns() - began


def sample() -> list[int]:
    return [chunk_ns() for _ in range(CHUNKS)]


def slowdown(chunks: list[int]) -> float:
    """How much slower than nominal the machine ran while `chunks` were taken."""
    return statistics.median(chunks) / NOMINAL_NS
