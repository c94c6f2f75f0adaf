"""numpy's ``default_rng(seed).random(n)`` stream in pure Python.

A seed goes through numpy's SeedSequence (hashmix/mix over a pool of four
32-bit words, NumPy NEP 19) into the 128-bit state and increment of a PCG64
XSL-RR generator (M. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014). Each
draw is one 64-bit output x returned as the double (x >> 11) * 2**-53, so
successive ``randoms(n)`` calls on one seed yield the same floats as
``numpy.random.default_rng(seed).random(n)`` on the concatenated length.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_DOUBLING = (1 << 64) + 1  # x * _DOUBLING == x | x << 64 for a 64-bit x
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """Four 64-bit words from SeedSequence(seed).generate_state(4, uint64)."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32] if seed == 0 else []
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    state32 = []
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state32.append(value ^ (value >> 16))
    return [state32[2 * i] | state32[2 * i + 1] << 32 for i in range(_POOL_SIZE)]


class PCG64:
    """The generator behind ``numpy.random.default_rng(seed)``; only its
    ``random(n)`` draw is ported, as ``randoms(n)``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _seed_words(seed)
        self._inc = (((w2 << 64 | w3) << 1) | 1) & _MASK128
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & _MASK128

    def randoms(self, n: int) -> list[float]:
        """The next n doubles in [0, 1)."""
        state, inc = self._state, self._inc
        out = []
        append = out.append
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _MASK128
            value = ((state >> 64) ^ state) & _MASK64
            # Rotate right by the top 6 bits, then keep the top 53 bits:
            # shifting two copies of the value side by side does both.
            append((((value * _DOUBLING) >> ((state >> 122) + 11)) & _MASK53) * 2.0**-53)
        self._state = state
        return out
