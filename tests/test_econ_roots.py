"""The bracketed bisection root-finder shared by the econ models."""

from __future__ import annotations

import math

import pytest

from zkpoi.econ._roots import bisect_root
from zkpoi.errors import DomainError


def test_decreasing_function():
    root = bisect_root(lambda x: 2.0 - x * x, 0.0, 2.0, xtol=1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12


def test_increasing_function():
    root = bisect_root(lambda x: math.exp(x) - 3.0, -5.0, 5.0, xtol=1e-12)
    assert abs(root - math.log(3.0)) <= 1e-12


@pytest.mark.parametrize("xtol", [1e-2, 1e-6, 1e-10, 1e-15])
def test_xtol_bounds_the_error(xtol):
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0 / 3.0
    root = bisect_root(f, 0.0, 1.0, xtol=xtol)
    assert abs(root - 1.0 / 3.0) <= xtol
    # bisection: about log2(width / xtol) evaluations, not more
    assert len(calls) <= math.ceil(math.log2(1.0 / xtol)) + 2


def test_root_at_an_endpoint_is_returned_exactly():
    assert bisect_root(lambda x: x - 1.0, 1.0, 4.0, xtol=1e-9) == 1.0
    assert bisect_root(lambda x: x - 4.0, 1.0, 4.0, xtol=1e-9) == 4.0


@pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: -1.0 - x * x,
                               lambda x: math.nan])
def test_no_sign_change_is_a_domain_error(f):
    with pytest.raises(DomainError, match="no sign change"):
        bisect_root(f, -1.0, 1.0, xtol=1e-9)
