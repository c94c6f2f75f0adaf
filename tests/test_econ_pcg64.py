"""The stdlib PCG64 port against numpy's default_rng stream."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkpoi.econ._pcg64 import PCG64

SEEDS = [0, 1, 7, 9, 42, 12345, 2**32, 2**40 + 17, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_default_rng(seed):
    assert PCG64(seed).randoms(3000) == np.random.default_rng(seed).random(3000).tolist()


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
@pytest.mark.parametrize("seed", [0, 2**63])
def test_matches_default_rng_at_any_length(seed, n):
    assert PCG64(seed).randoms(n) == np.random.default_rng(seed).random(n).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 300),
       st.integers(0, 300))
def test_consecutive_calls_continue_one_stream(seed, a, b):
    rng = PCG64(seed)
    assert rng.randoms(a) + rng.randoms(b) == PCG64(seed).randoms(a + b)
    assert rng.randoms(1) == np.random.default_rng(seed).random(a + b + 1)[-1:].tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_matches_default_rng_at_any_64_bit_seed(seed):
    assert PCG64(seed).randoms(50) == np.random.default_rng(seed).random(50).tolist()


def test_seeds_wider_than_the_pool_are_mixed_in():
    # SeedSequence folds entropy words beyond its four-word pool into the pool
    for seed in (2**128 + 5, 2**200 + 3):
        assert PCG64(seed).randoms(20) == np.random.default_rng(seed).random(20).tolist()


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        PCG64(-1)
