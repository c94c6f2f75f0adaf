"""Mining as a congestion game: win probabilities, Rosenthal potential,
Nash solving with deviation certificates, and the cost ratio against an
identity-based baseline.

Miners allocate themselves across K identical puzzles, one provider per
puzzle, each solved at the same rate and mined at the same cost. The
chance of being first to solve a puzzle splits among its miners, so every
extra miner dilutes the rest — a congestion externality with an exact
potential. Its Nash set follows from m*, the most miners a puzzle pays.
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
    return _puzzle_utility(instance, allocation.loads[k])


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
class Deviation:
    """One hypothetical unilateral move and the utility change it brings."""

    kind: str  # "move", "leave", or "join"
    source: int | None  # puzzle index
    target: int | None  # puzzle index
    delta: float


@dataclass(frozen=True)
class NashSolution:
    allocation: Allocation
    certificate: tuple[Deviation, ...]
    potential_value: float


def _puzzle_utility(instance: CongestionInstance, l_k: int) -> float:
    win = puzzle_win_prob(l_k, instance.mu, instance.deadline)
    return max(win - instance.gamma, 0.0)


def _paid_load(instance: CongestionInstance) -> int:
    """m*: the largest m <= N such that a miner on a puzzle of load l wins
    more than gamma for every l <= m (a scan up from l = 1)."""
    m = 0
    while (m < instance.n_miners
           and puzzle_win_prob(m + 1, instance.mu, instance.deadline) > instance.gamma):
        m += 1
    return m


def deviation_certificate(instance: CongestionInstance, allocation: Allocation,
                          ) -> tuple[Deviation, ...] | None:
    """Every unilateral deviation (switch puzzles, go idle, or join from
    idle) with its float utility delta; None as soon as any strictly
    profitable one exists. A complete certificate is a Nash proof.

    The exact win probability falls strictly with the load, so integers
    decide: a move from load l to a puzzle of load l' pays exactly when
    l' + 1 <= m* and l' + 1 < l, a join when l' + 1 <= m*, going idle
    never. The verdicts hold at every rate, also where the deltas round."""
    loads = allocation.loads
    paid = _paid_load(instance)
    records: list[Deviation] = []
    for k, l_k in enumerate(loads):
        if l_k < 1:
            continue
        here = _puzzle_utility(instance, l_k)
        records.append(Deviation("leave", k, None, 0.0 - here))
        for k2 in range(instance.k):
            if k2 == k:
                continue
            if loads[k2] + 1 <= paid and loads[k2] + 1 < l_k:
                return None
            records.append(Deviation(
                "move", k, k2, _puzzle_utility(instance, loads[k2] + 1) - here))
    if allocation.total < instance.n_miners:
        for k2 in range(instance.k):
            if loads[k2] + 1 <= paid:
                return None
            records.append(Deviation("join", None, k2, _puzzle_utility(instance, loads[k2] + 1)))
    return tuple(records)


def solve_congestion_nash(instance: CongestionInstance) -> NashSolution:
    """Deviation-certified equilibrium allocation: the first equilibrium in
    enumeration order whose potential is highest among the equilibria,
    returned with its certificate and its potential."""
    paid = _paid_load(instance)
    if instance.n_miners >= instance.k * paid:
        best = Allocation((paid,) * instance.k)  # each further miner adds a term <= 0
    else:  # balanced loads, whose float potentials may differ by an ulp with their order
        best = max(all_nash_allocations(instance), key=lambda a: potential(instance, a))
    return NashSolution(best, deviation_certificate(instance, best), potential(instance, best))


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
