"""Finite-game machinery: payoff tensors, iterated deletion of strictly
dominated strategies, evolutionary stability, and the reward-regime game
between uniformly-distributed and power-law-concentrated mining rewards.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..errors import DomainError
from ._roots import bisect_root

_TENSOR_CAP = 1_000_000  # payoff entries an exhaustive pass may touch


@dataclass(frozen=True)
class PayoffMatrix:
    """n-player finite game. u[s1][...][sn][i] is player i's payoff at the
    pure profile (s1, ..., sn), held as nested tuples of floats (read-only);
    strategies[i] names player i's options. Any nested sequence of numbers
    of that shape (a numpy array included) is accepted as u."""

    strategies: tuple[tuple[str, ...], ...]
    u: tuple

    def __init__(self, strategies, u):
        strategies = tuple(tuple(s) for s in strategies)
        expected = tuple(len(s) for s in strategies) + (len(strategies),)
        try:
            u = _frozen_tensor(u, expected)
        except TypeError:
            raise ValueError(f"payoff tensor shape != {expected}") from None
        if math.prod(expected) > _TENSOR_CAP:
            raise DomainError("payoff tensor too large for exhaustive analysis")
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "u", u)

    @property
    def num_players(self) -> int:
        return len(self.strategies)

    def payoff(self, player: int, profile: tuple[int, ...]) -> float:
        cell = self.u
        for s in profile:
            cell = cell[s]
        return cell[player]


def _frozen_tensor(u, shape: tuple[int, ...], depth: int = 0):
    """u as nested tuples of finite floats; ValueError unless u has shape."""
    if depth == len(shape):
        value = float(u)
        if not math.isfinite(value):
            raise ValueError("payoffs must be finite")
        return value
    if len(u) != shape[depth]:
        raise ValueError(f"payoff tensor shape != {shape}")
    return tuple(_frozen_tensor(row, shape, depth + 1) for row in u)


def is_pure_nash(matrix: PayoffMatrix, profile: tuple[int, ...]) -> bool:
    """No player gains by a unilateral switch to any of its strategies.

    A switch is a gain exactly when its payoff is greater than the current
    one: payoffs are compared with no tolerance, so scaling every payoff by
    the same power of two never changes the verdict."""
    profile = tuple(profile)
    for i in range(matrix.num_players):
        here = matrix.payoff(i, profile)
        for alt in range(len(matrix.strategies[i])):
            trial = profile[:i] + (alt,) + profile[i + 1:]
            if matrix.payoff(i, trial) > here:
                return False
    return True


@dataclass(frozen=True)
class Elimination:
    round: int
    player: int
    removed: str
    dominated_by: str


@dataclass(frozen=True)
class IdsdsResult:
    surviving: tuple[tuple[str, ...], ...]  # per player, labels that remain
    survivors: tuple[tuple[str, ...], ...]  # full surviving profiles (labels)
    trace: tuple[Elimination, ...]
    unique_survivor: tuple[str, ...] | None
    is_dominant_equilibrium: bool
    nash_verified: bool


def idsds(matrix: PayoffMatrix) -> IdsdsResult:
    """Iterated deletion of strictly dominated strategies, to fixpoint.

    A strategy is removed when some other remaining strategy yields strictly
    more against every remaining opponent combination. When one profile
    survives, it is flagged a dominant-strategy equilibrium and re-checked
    with the direct Nash test on the original game.
    """
    alive: list[list[int]] = [list(range(len(s))) for s in matrix.strategies]
    trace: list[Elimination] = []
    round_no = 0
    changed = True
    while changed:
        changed = False
        round_no += 1
        for i in range(matrix.num_players):
            others = [alive[j] for j in range(matrix.num_players) if j != i]
            removed_now = []
            for s in list(alive[i]):
                dominator = None
                for t in alive[i]:
                    if t == s:
                        continue
                    if all(matrix.payoff(i, _insert(ctx, i, t))
                           > matrix.payoff(i, _insert(ctx, i, s))
                           for ctx in itertools.product(*others)):
                        dominator = t
                        break
                if dominator is not None:
                    removed_now.append((s, dominator))
            for s, t in removed_now:
                if len(alive[i]) == 1:
                    break
                alive[i].remove(s)
                trace.append(Elimination(round_no, i, matrix.strategies[i][s],
                                         matrix.strategies[i][t]))
                changed = True
    surviving = tuple(tuple(matrix.strategies[i][s] for s in alive[i])
                      for i in range(matrix.num_players))
    survivor_profiles = tuple(itertools.product(*surviving))
    unique = survivor_profiles[0] if len(survivor_profiles) == 1 else None
    nash_ok = False
    if unique is not None:
        idx = tuple(alive[i][0] for i in range(matrix.num_players))
        nash_ok = is_pure_nash(matrix, idx)
    return IdsdsResult(surviving=surviving, survivors=survivor_profiles, trace=tuple(trace),
                       unique_survivor=unique, is_dominant_equilibrium=unique is not None,
                       nash_verified=nash_ok)


def _insert(ctx: tuple[int, ...], i: int, s: int) -> tuple[int, ...]:
    return ctx[:i] + (s,) + ctx[i:]


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


def udce_vs_plfc_game(miner_count: int, pow_cost: float, reward_r: float, *,
                      share_model: str = "zipf", population: int = 10_000,
                      top_count: int = 16, top_share: float = 0.9,
                      udce_cost: float = 0.0) -> PayoffMatrix:
    """Entrant's choice between reward regimes, as a finite game.

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
    """
    if miner_count < 2:
        raise ValueError("the game needs at least two miners")
    if 2 ** miner_count * miner_count > _TENSOR_CAP:
        raise DomainError("miner count too large for an explicit payoff tensor")
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
    pays = (udce_pay, plfc_pay)

    def tensor(profile):  # u[s1]...[sn][i] = pays[s_i]
        if len(profile) == miner_count:
            return [pays[choice] for choice in profile]
        return [tensor(profile + (choice,)) for choice in (0, 1)]

    return PayoffMatrix(strategies=((UDCE, PLFC),) * miner_count, u=tensor(()))
