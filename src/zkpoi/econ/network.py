"""Two-sided network effects between competing payment networks.

Merchants pick the network with more customers, customers the one with more
merchants, each with its own elasticity. The product of the elasticities
separates two regimes: above one, an early advantage compounds into
winner-take-all; below one, shares equalize.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import DomainError
from ._pcg64 import PCG64

EXPECTATION_MODES = ("current", "expected")


@dataclass(frozen=True)
class NetworkState:
    """Counts on both sides of networks A and B, the customer-arrival
    probability lam, and the two elasticities (alpha: customers reacting to
    merchant counts, beta: merchants reacting to customer counts)."""

    m_a: float
    m_b: float
    c_a: float
    c_b: float
    lam: float
    alpha: float
    beta: float
    expectation_mode: str = "current"

    def __post_init__(self):
        for name in ("m_a", "m_b", "c_a", "c_b", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("m_a", "m_b", "c_a", "c_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("elasticities must be > 0")
        if self.expectation_mode not in EXPECTATION_MODES:
            raise ValueError(f"expectation_mode must be one of {EXPECTATION_MODES}")


def share_of(a: float, b: float) -> float:
    """a / (a + b), with both rescaled by the larger when the sum overflows."""
    total = a + b
    if total == math.inf:
        top = max(a, b)
        a, b = a / top, b / top
        total = a + b
    return a / total


def _weight(count: float, exponent: float, side: str) -> float:
    """count ** exponent, the pull of one network's count on the other side."""
    try:
        return count ** exponent
    except OverflowError as exc:
        raise DomainError(f"{side} count to the power {exponent} overflows") from exc


def _share(wa: float, wb: float, exponent: float, side: str) -> float:
    """A's share of the weights wa and wb."""
    if wa == 0.0 and wb == 0.0:
        raise DomainError(f"both {side} counts to the power {exponent} underflow to zero")
    return share_of(wa, wb)


def _weights(count_a: float, count_b: float, exponent: float,
             side: str) -> tuple[float, float]:
    if count_a == 0.0 and count_b == 0.0:
        raise DomainError(f"both networks have zero {side}; probabilities undefined")
    return _weight(count_a, exponent, side), _weight(count_b, exponent, side)


def _attraction(count_a: float, count_b: float, exponent: float,
                side: str) -> tuple[float, float]:
    wa, wb = _weights(count_a, count_b, exponent, side)
    return _share(wa, wb, exponent, side), share_of(wb, wa)


def _join_split(m_a, m_b, c_a, c_b, lam, alpha, beta,
                ) -> tuple[tuple[float, float], tuple[float, float]]:
    """((merchant->A, merchant->B), (customer->A, customer->B)) in "expected"
    mode: each side's counts are first advanced by their one-step expected
    increment (the current-count probabilities times the arrival split),
    modeling joiners who anticipate the next arrival rather than react to
    the present."""
    merch = _attraction(c_a, c_b, beta, "customers")
    cust = _attraction(m_a, m_b, alpha, "merchants")
    exp_c = (c_a + lam * cust[0], c_b + lam * cust[1])
    exp_m = (m_a + (1 - lam) * merch[0], m_b + (1 - lam) * merch[1])
    return (_attraction(exp_c[0], exp_c[1], beta, "customers"),
            _attraction(exp_m[0], exp_m[1], alpha, "merchants"))


class GrowthPath(Sequence):
    """Rows (m_a, m_b, c_a, c_b), one per kept step, held in one flat array
    of doubles; supports len(), path[i] (negative i included) and
    iteration. Row i holds the counts after step i * stride."""

    def __init__(self, flat: array):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // 4

    def __getitem__(self, t: int) -> tuple[float, float, float, float]:
        t = range(len(self))[t]  # negative t and IndexError as for a list
        return tuple(self._flat[4 * t:4 * t + 4])


_BLOCK_STEPS = 4096  # steps whose draws are taken from the stream in one call


def _draw_pairs(seed: int, steps: int):
    """The two draws of each of `steps` steps from numpy's default_rng(seed)
    stream, taken in blocks of at most 2 * _BLOCK_STEPS floats."""
    full, rest = divmod(steps, _BLOCK_STEPS)
    blocks = itertools.chain(itertools.repeat(2 * _BLOCK_STEPS, full), (2 * rest,))
    draws = itertools.chain.from_iterable(map(PCG64(seed).randoms, blocks))
    return zip(draws, draws)


def _current_counts(pairs, m_a, m_b, c_a, c_b, lam, alpha, beta):
    """The counts after each step in "current" mode. An arrival changes one
    count, so only that count's weight and its side's share are recomputed,
    after its row is yielded: a consumer that takes `steps` rows never
    computes the weight after the last step. The refresh is _weight and
    _share written out, with _share itself called only when the weights sum
    to zero or overflow."""
    wc_a, wc_b = _weights(c_a, c_b, beta, "customers")
    merch_a = _share(wc_a, wc_b, beta, "customers")
    wm_a, wm_b = _weights(m_a, m_b, alpha, "merchants")
    cust_a = _share(wm_a, wm_b, alpha, "merchants")
    inf = math.inf
    try:
        for u, v in pairs:
            if u < lam:
                if v < cust_a:
                    c_a += 1
                    yield m_a, m_b, c_a, c_b
                    wc_a = c_a ** beta
                else:
                    c_b += 1
                    yield m_a, m_b, c_a, c_b
                    wc_b = c_b ** beta
                total = wc_a + wc_b
                merch_a = (wc_a / total if 0.0 < total < inf
                           else _share(wc_a, wc_b, beta, "customers"))
            else:
                if v < merch_a:
                    m_a += 1
                    yield m_a, m_b, c_a, c_b
                    wm_a = m_a ** alpha
                else:
                    m_b += 1
                    yield m_a, m_b, c_a, c_b
                    wm_b = m_b ** alpha
                total = wm_a + wm_b
                cust_a = (wm_a / total if 0.0 < total < inf
                          else _share(wm_a, wm_b, alpha, "merchants"))
    except OverflowError:
        # Only the count just raised can overflow its weight; _weights names
        # its side as _weight would have.
        _weights(c_a, c_b, beta, "customers")
        _weights(m_a, m_b, alpha, "merchants")
        raise


def _expected_counts(pairs, m_a, m_b, c_a, c_b, lam, alpha, beta):
    """The counts after each step in "expected" mode, where both join
    probabilities are recomputed from the anticipated counts every step."""
    for u, v in pairs:
        merch, cust = _join_split(m_a, m_b, c_a, c_b, lam, alpha, beta)
        if u < lam:
            if v < cust[0]:
                c_a += 1
            else:
                c_b += 1
        elif v < merch[0]:
            m_a += 1
        else:
            m_b += 1
        yield m_a, m_b, c_a, c_b


def simulate_network_growth(state: NetworkState, steps: int, seed: int,
                            stride: int = 1) -> GrowthPath:
    """Agent-by-agent growth: each step one arrival is a customer with
    probability lam (else a merchant) and joins A with A's share of the
    weights it sees: merchants weigh customer counts to the power beta,
    customers weigh merchant counts to the power alpha ("expected" mode
    weighs the counts _join_split anticipates). The draws are numpy's
    default_rng(seed) stream, two per step.

    Returns the rows (m_a, m_b, c_a, c_b) after steps 0, stride, 2 * stride
    and so on up to `steps`, starting with the initial state: steps // stride
    + 1 rows, so memory follows the rows kept. The default stride keeps every
    step. In "current" mode an arrival changes one count, so the next step
    recomputes only that count's weight, and the rows equal those of
    recomputing both shares from the counts on every step.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    counts = (_expected_counts if state.expectation_mode == "expected" else _current_counts)(
        _draw_pairs(seed, steps), state.m_a, state.m_b, state.c_a, state.c_b,
        state.lam, state.alpha, state.beta)
    flat = array("d", (state.m_a, state.m_b, state.c_a, state.c_b))
    # The inner islice stops at the last step's row without resuming the
    # generator, so no weight after the last step is computed. A stride
    # beyond `steps` keeps the initial row alone, as steps + 1 does.
    stride = min(stride, steps + 1)
    kept = itertools.islice(itertools.islice(counts, steps), stride - 1, None, stride)
    flat.extend(itertools.chain.from_iterable(kept))
    return GrowthPath(flat)


# ---------------------------------------------------------------------------
# Overtaking
# ---------------------------------------------------------------------------


def overtake_analysis(m_incumbent: float, lam: float, e_c_new: float,
                      e_c_old: float) -> dict:
    """Steps a challenger needs to out-accumulate an incumbent's merchant
    head start, and whether the offered utility gap clears it."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if m_incumbent < 0:
        raise ValueError("incumbent merchant count must be >= 0")
    steps_needed = (m_incumbent + 1) / (1 - lam)
    return {"steps_needed": steps_needed,
            "condition_holds": (e_c_new - e_c_old) > steps_needed}
