"""Evolutionary stability, power-law reward shares, and the reward-regime
game between uniformly-distributed and power-law-concentrated mining
rewards, decided by strict dominance from its two payoffs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ._roots import bisect_root


# ---------------------------------------------------------------------------
# Evolutionary stability
# ---------------------------------------------------------------------------


def is_ess(u, strategies, candidate) -> bool:
    """Evolutionary stability of `candidate` in a symmetric two-player game
    whose payoffs `u` map (own strategy, other strategy) to a number.

    For every mutant s' the resident must either beat it against residents
    outright, or tie there and strictly beat it against mutants (Maynard
    Smith and Price, 1973). These exact comparisons are equivalent to the
    resident outscoring the mutant in every mix with a small enough share
    of mutants.
    """
    def pay(a, b) -> float:
        return float(u[(a, b)])

    strategies = tuple(strategies)
    if candidate not in strategies:
        raise ValueError("candidate must be one of the strategies")
    resident = pay(candidate, candidate)
    for mutant in strategies:
        if mutant == candidate:
            continue
        against_resident = pay(mutant, candidate)
        if not (resident > against_resident  # strict Nash against this mutant
                or resident == against_resident  # or a tie, broken against the mutant
                and pay(candidate, mutant) > pay(mutant, mutant)):
            return False
    return True


# ---------------------------------------------------------------------------
# Reward-regime game
# ---------------------------------------------------------------------------

UDCE = "UDCE"
PLFC = "PLFC"


_EXACT_SUM_MAX = 128  # counts up to here are summed term by term
_TAIL_START = 64  # past _EXACT_SUM_MAX, the terms from here on go to Euler-Maclaurin
# B_2j / (2j)! for j = 1..3, from the Bernoulli numbers B2..B6; with the tail
# starting at 64, the B8 term and those after it weigh below half an ulp.
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240)


def _power_sum(count: int, exponent: float) -> float:
    """The sum of k ** -exponent over k = 1..count, in time independent of
    count: correctly rounded up to _EXACT_SUM_MAX terms; above that, the
    first _TAIL_START - 1 terms are exact and the rest is the Euler-Maclaurin
    sum from _TAIL_START to count (F. Johansson, Numer. Algorithms 69, 2015),
    within a few ulps."""
    s = exponent
    if count <= _EXACT_SUM_MAX:
        return math.fsum(map(pow, range(1, count + 1), itertools.repeat(-s)))
    a = _TAIL_START
    f_a, f_count = a ** -s, count ** -s
    log_ratio = math.log(count / a)
    u = (1 - s) * log_ratio
    if abs(u) < 1:  # the integral of x ** -s over [a, count], stable at s = 1
        integral = a * f_a * (math.expm1(u) / u if u else 1.0) * log_ratio
    else:  # far from s = 1, where an error in u would grow with e ** u
        integral = (count * f_count - a * f_a) / (1 - s)
    terms = [*map(pow, range(1, a), itertools.repeat(-s)), integral, (f_a + f_count) / 2]
    rising = s  # s (s + 1) ... (s + 2j - 2), from the (2j - 1)-th derivative
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        terms.append(coeff * rising * (a ** (1 - s - 2 * j) - count ** (1 - s - 2 * j)))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(terms)


def calibrate_power_law(population: int, top_count: int, top_share: float) -> float:
    """Exponent at which the top_count largest holders own top_share of the
    rewards (e.g. 16 miners holding 90%)."""
    if not 0 < top_share < 1 or not 0 < top_count < population:
        raise ValueError("need 0 < top_share < 1 and 0 < top_count < population")

    def gap(s):  # the top holders' share, from the power sums alone
        return _power_sum(top_count, s) / _power_sum(population, s) - top_share

    return bisect_root(gap, 1e-3, 16.0, xtol=1e-12)


@dataclass(frozen=True)
class RegimeGame:
    """miner_count miners, each paid udce_pay on the uniform chain and
    plfc_pay on the concentrated one, whatever the others choose."""

    miner_count: int
    udce_pay: float
    plfc_pay: float


@dataclass(frozen=True)
class Dominance:
    """What iterated strict dominance leaves of a RegimeGame."""

    surviving: tuple[str, ...]  # the regimes every miner keeps
    eliminations: int  # (miner, regime) pairs dropped, all in round 1
    unique_survivor: tuple[str, ...] | None  # the one surviving profile, if one


def udce_vs_plfc_game(miner_count: int, pow_cost: float, reward_r: float, *,
                      share_model: str = "zipf", population: int = 10_000,
                      top_count: int = 16, top_share: float = 0.9,
                      udce_cost: float = 0.0) -> RegimeGame:
    """Entrant's choice between reward regimes.

    Each of miner_count prospective miners picks the uniformly-rewarding
    chain or the power-law-concentrated one; payoffs are expected rewards
    against the existing population minus operating cost (pow_cost on the
    concentrated chain, udce_cost on the uniform one), so they depend only
    on the miner's own choice. Share models:

    * "zipf": the concentrated chain seats an entrant at the bottom of a
      power-law ladder whose exponent is calibrated so the top_count largest
      holders own top_share; the uniform chain pays 1/population.
    * "winner_take_all": one winner among the miner_count entrants, so both
      regimes pay reward_r/miner_count before costs.
    * "uniform": the concentrated chain degenerates to uniform shares (a
      zero exponent), leaving costs as the only difference (with zero cost
      the payoffs tie and nothing is dominated).

    ValueError if either payoff is not finite: no regime can be ranked
    against an infinite or undefined payoff.
    """
    if miner_count < 2:
        raise ValueError("the game needs at least two miners")
    if share_model == "zipf":
        s = calibrate_power_law(population, top_count, top_share)
        plfc_share = population ** -s / _power_sum(population, s)  # last rank's share
        udce_share = 1.0 / population
    elif share_model == "winner_take_all":
        plfc_share = udce_share = 1.0 / miner_count
    elif share_model == "uniform":
        plfc_share = udce_share = 1.0 / population
    else:
        raise ValueError(f"unknown share model {share_model!r}")
    udce_pay = reward_r * udce_share - udce_cost
    plfc_pay = reward_r * plfc_share - pow_cost
    if not (math.isfinite(udce_pay) and math.isfinite(plfc_pay)):
        raise ValueError("payoffs must be finite")
    return RegimeGame(miner_count, udce_pay, plfc_pay)


def idsds(game: RegimeGame) -> Dominance:
    """Iterated deletion of strictly dominated strategies, from the two
    payoffs alone (D. Fudenberg, J. Tirole, Game Theory, 1991, ch. 2).

    A miner's payoff depends only on its own regime, so the regime with the
    strictly larger payoff beats the other against every choice of the
    other miners: every miner drops the other regime in round 1, and the
    profile of winners survives alone. It is a dominant-strategy
    equilibrium, hence a Nash equilibrium. On an exact tie neither regime
    dominates and nothing is dropped.
    """
    if game.udce_pay == game.plfc_pay:
        return Dominance(surviving=(UDCE, PLFC), eliminations=0, unique_survivor=None)
    winner = UDCE if game.udce_pay > game.plfc_pay else PLFC
    return Dominance(surviving=(winner,), eliminations=game.miner_count,
                     unique_survivor=(winner,) * game.miner_count)
