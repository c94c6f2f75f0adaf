"""Mining as a congestion game: win probabilities, Rosenthal potential,
Nash solving, and the cost ratio against an identity-based baseline.

Miners allocate themselves across K identical puzzles, one provider per
puzzle, each solved at the same rate and mined at the same cost. The
chance of being first to solve a puzzle splits among its miners, so every
extra miner dilutes the rest — a congestion externality with an exact
potential. Its Nash set follows from m*, the most miners a puzzle pays:
the exact win probability falls strictly with the load, so a move from
load l to a puzzle holding l' pays exactly when l' + 1 <= m* and
l' + 1 < l, a join when l' + 1 <= m*, going idle never. The solver
returns the set's first member, which has the highest exact potential,
and counts the deviations that rule it Nash from its loads alone.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from ..errors import DomainError


@dataclass(frozen=True)
class CongestionInstance:
    """K identical puzzles, N miners, deadline T: each miner on a puzzle
    solves it at rate mu and pays operating cost gamma."""

    k: int
    n_miners: int
    mu: float
    gamma: float
    deadline: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one puzzle")
        if self.n_miners < 0:
            raise ValueError("miner count must be >= 0")
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")
        for name in ("mu", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class Allocation:
    """Nonnegative integer loads l[k]; miners not placed anywhere idle."""

    loads: tuple[int, ...]

    def __init__(self, loads):
        cells = tuple(int(v) for v in loads)
        if any(v < 0 for v in cells):
            raise ValueError("loads must be >= 0")
        object.__setattr__(self, "loads", cells)

    @property
    def total(self) -> int:
        return sum(self.loads)


def puzzle_win_prob(l_k: int, mu_k: float, deadline: float) -> float:
    """Chance a given miner is first to solve: the puzzle falls within the
    deadline with rate mu_k per miner, and the winner is uniform among the
    l_k miners working on it."""
    if l_k < 1:
        raise DomainError("win probability needs at least one miner on the puzzle")
    if mu_k < 0 or deadline < 0:
        raise ValueError("rate and deadline must be >= 0")
    return -math.expm1(-deadline * mu_k * l_k) / l_k


def miner_utility(instance: CongestionInstance, allocation: Allocation, k: int) -> float:
    """Win probability minus operating cost, floored at zero (a miner that
    would lose money simply does not mine)."""
    if allocation.loads[k] < 1:
        raise DomainError("utility is defined for an occupied puzzle")
    win = puzzle_win_prob(allocation.loads[k], instance.mu, instance.deadline)
    return max(win - instance.gamma, 0.0)


def potential(instance: CongestionInstance, allocation: Allocation) -> float:
    """Rosenthal potential: for each puzzle, the win probabilities at
    occupancies 1..l_k, each less the cost."""
    total = 0.0
    for l_k in allocation.loads:
        for occupancy in range(1, l_k + 1):
            total += puzzle_win_prob(occupancy, instance.mu, instance.deadline) - instance.gamma
    return total


# ---------------------------------------------------------------------------
# Nash solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NashSolution:
    """An equilibrium allocation, its potential, and how many unilateral
    deviations rule it Nash: K for each occupied puzzle (leave, or move to
    one of the K - 1 others), and K joins if any miner idles."""

    allocation: Allocation
    deviations_checked: int
    potential_value: float


def _paid_load(instance: CongestionInstance) -> int:
    """m*: the largest m <= N such that a miner on a puzzle of load l wins
    more than gamma for every l <= m (a scan up from l = 1)."""
    m = 0
    while (m < instance.n_miners
           and puzzle_win_prob(m + 1, instance.mu, instance.deadline) > instance.gamma):
        m += 1
    return m


def solve_congestion_nash(instance: CongestionInstance) -> NashSolution:
    """The first Nash allocation in enumeration order, which has the highest
    exact potential: with N >= K*m* it is (m*,)*K, and each further miner
    adds a term <= 0; otherwise every equilibrium is a permutation of one
    balanced load vector, so all tie. Returned with its deviation count and
    its potential."""
    best = next(all_nash_allocations(instance))
    occupied = sum(1 for l_k in best.loads if l_k)
    idle = best.total < instance.n_miners
    return NashSolution(best, instance.k * (occupied + idle), potential(instance, best))


def all_nash_allocations(instance: CongestionInstance) -> Iterator[Allocation]:
    """Every Nash allocation, lazily, by total and then by loads ascending:
    with N >= K*m*, those with every load at least m*, idle miners allowed;
    otherwise those of all N miners with loads floor(N/K) and ceil(N/K)."""
    k, n = instance.k, instance.n_miners
    paid = _paid_load(instance)
    if n >= k * paid:
        for spare in range(n - k * paid + 1):
            for cuts in itertools.combinations(range(spare + k - 1), k - 1):
                bounds = (-1, *cuts, spare + k - 1)
                yield Allocation(paid + hi - lo - 1 for lo, hi in zip(bounds, bounds[1:]))
    else:
        low, extra = divmod(n, k)
        for at_low in itertools.combinations(range(k), k - extra):
            yield Allocation(low if i in at_low else low + 1 for i in range(k))


@dataclass(frozen=True)
class AnarchyPrice:
    """How many allocations are Nash, the worst of their mining costs, and
    that cost over the identity-based baseline."""

    nash_count: int
    worst_nash_cost: float
    ratio: float


def price_of_crypto_anarchy(instance: CongestionInstance,
                            zkpoi_cost: float = 0.01) -> AnarchyPrice:
    """Worst-case equilibrium resource burn relative to the identity-based
    baseline: C(N - K*m* + K, K) Nash allocations if N >= K*m*, else
    C(K, N mod K), each set holding one of all N miners, so the worst cost
    is gamma * N, divided by zkpoi_cost. The baseline must be positive —
    identity checks are cheap, not free. DomainError if the ratio overflows."""
    if zkpoi_cost <= 0:
        raise DomainError("the baseline cost must be > 0")
    k, n = instance.k, instance.n_miners
    paid = _paid_load(instance)
    count = math.comb(n - k * paid + k, k) if n >= k * paid else math.comb(k, n % k)
    worst = instance.gamma * n
    ratio = worst / zkpoi_cost
    if math.isinf(ratio):
        raise DomainError("the worst Nash cost over zkpoi_cost overflows a 64-bit float")
    return AnarchyPrice(count, worst, ratio)
