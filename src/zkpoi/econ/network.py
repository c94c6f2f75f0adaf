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


def _join_split(m_a, m_b, c_a, c_b, lam, alpha, beta, expected: bool,
                ) -> tuple[tuple[float, float], tuple[float, float]]:
    merch = _attraction(c_a, c_b, beta, "customers")
    cust = _attraction(m_a, m_b, alpha, "merchants")
    if expected:
        exp_c = (c_a + lam * cust[0], c_b + lam * cust[1])
        exp_m = (m_a + (1 - lam) * merch[0], m_b + (1 - lam) * merch[1])
        merch = _attraction(exp_c[0], exp_c[1], beta, "customers")
        cust = _attraction(exp_m[0], exp_m[1], alpha, "merchants")
    return merch, cust


def join_probabilities(state: NetworkState,
                       ) -> tuple[tuple[float, float], tuple[float, float]]:
    """((merchant->A, merchant->B), (customer->A, customer->B)).

    Merchants weigh customer counts to the power beta, customers weigh
    merchant counts to the power alpha. In "expected" mode each side's
    counts are first advanced by their one-step expected increment (the
    current-count probabilities times the arrival split), modeling joiners
    who anticipate the next arrival rather than react to the present.
    """
    return _join_split(state.m_a, state.m_b, state.c_a, state.c_b, state.lam,
                       state.alpha, state.beta, state.expectation_mode == "expected")


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
        merch, cust = _join_split(m_a, m_b, c_a, c_b, lam, alpha, beta, True)
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
    probability lam (else a merchant) and joins a network per
    join_probabilities; the draws are numpy's default_rng(seed) stream, two
    per step.

    Returns the rows (m_a, m_b, c_a, c_b) after steps 0, stride, 2 * stride
    and so on up to `steps`, starting with the initial state: steps // stride
    + 1 rows, so memory follows the rows kept. The default stride keeps every
    step. In "current" mode an arrival changes one count, so the next step
    recomputes only that count's weight, and the rows equal those of calling
    join_probabilities on every step.
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
# Ratio dynamics
# ---------------------------------------------------------------------------


def _ratio_rhs(x: float, z: float, lam: float, alpha: float, beta: float,
               ) -> tuple[float, float]:
    """Stated mean-field dynamics of the merchant ratio x = m_a/m_b and the
    customer ratio z = c_a/c_b: each ratio relaxes toward the other side's
    attraction ratio."""
    return (1 - lam) * (z ** beta - x), lam * (x ** alpha - z)


def state_ratios(state: NetworkState) -> tuple[float, float]:
    if state.m_b <= 0 or state.c_b <= 0:
        raise DomainError("ratio dynamics need positive B-side counts")
    return state.m_a / state.m_b, state.c_a / state.c_b


def _rk4(x, z, lam, alpha, beta, dt):
    if x < 0 or z < 0:
        raise DomainError("ratios must be >= 0")
    k1 = _ratio_rhs(x, z, lam, alpha, beta)
    k2 = _ratio_rhs(x + dt * k1[0] / 2, z + dt * k1[1] / 2, lam, alpha, beta)
    k3 = _ratio_rhs(x + dt * k2[0] / 2, z + dt * k2[1] / 2, lam, alpha, beta)
    k4 = _ratio_rhs(x + dt * k3[0], z + dt * k3[1], lam, alpha, beta)
    x1 = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    z1 = z + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return x1, z1


def integrate_ratio_ode(state: NetworkState, t_end: float, dt: float = 1e-3,
                        ) -> tuple[float, float]:
    """Advance the ratio dynamics to t_end with fixed steps (the final step
    shrinks to land exactly on t_end)."""
    x, z = state_ratios(state)
    if t_end < 0 or dt <= 0:
        raise ValueError("need t_end >= 0 and dt > 0")
    remaining = t_end
    while remaining > 0:
        h = min(dt, remaining)
        x, z = _rk4(x, z, state.lam, state.alpha, state.beta, h)
        remaining -= h
    return x, z


# ---------------------------------------------------------------------------
# Elasticity estimation and overtaking
# ---------------------------------------------------------------------------


def sample_static_joins(state: NetworkState, n_joins: int, seed: int,
                        ) -> tuple[int, int, int, int]:
    """Joins drawn against frozen counts (a short observation window):
    (customer joins to A, customer total, merchant joins to A, merchant
    total)."""
    merch, cust = join_probabilities(state)
    cust_a = cust_total = merch_a = merch_total = 0
    for u, v in _draw_pairs(seed, n_joins):
        if u < state.lam:
            cust_total += 1
            cust_a += v < cust[0]
        else:
            merch_total += 1
            merch_a += v < merch[0]
    return cust_a, cust_total, merch_a, merch_total


def _log_ratio_elasticity(frac_a: float, count_a: float, count_b: float,
                          what: str) -> float:
    if count_a <= 0 or count_b <= 0 or count_a == count_b:
        raise DomainError(
            f"{what} counts must be positive and different to identify the elasticity")
    if not 0.0 < frac_a < 1.0:
        raise ValueError("observed join share must lie strictly inside (0, 1)")
    return (math.log(frac_a) - math.log(1.0 - frac_a)) / (math.log(count_a) - math.log(count_b))


def estimate_elasticities(customer_joins: tuple[int, int], merchant_joins: tuple[int, int],
                          state: NetworkState) -> tuple[float, float]:
    """(alpha_hat, beta_hat) from observed join tallies against the counts
    held during the observation window.

    customer_joins / merchant_joins: (joins to A, total joins) per side. The
    log-odds of joining A divided by the log count ratio recovers each
    elasticity; equal counts make the denominator zero and the elasticity
    unidentifiable.
    """
    cust_a, cust_total = customer_joins
    merch_a, merch_total = merchant_joins
    if cust_total <= 0 or merch_total <= 0:
        raise ValueError("need at least one observed join on each side")
    alpha_hat = _log_ratio_elasticity(cust_a / cust_total, state.m_a, state.m_b,
                                      "merchant")
    beta_hat = _log_ratio_elasticity(merch_a / merch_total, state.c_a, state.c_b,
                                     "customer")
    return alpha_hat, beta_hat


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
