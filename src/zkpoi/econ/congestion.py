"""Mining as a congestion game: win probabilities, Rosenthal potential,
Nash solving with deviation certificates, and the cost ratio against an
identity-based baseline.

Miners allocate themselves across K identical puzzles, one provider per
puzzle, each solved at the same rate and mined at the same cost. The
chance of being first to solve a puzzle splits among its miners, so every
extra miner dilutes the rest — a congestion externality that admits an
exact potential whose maximizer is deviation-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..errors import DomainError

_ENUMERATION_CAP = 200_000  # candidate allocations an exhaustive scan may touch


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
    occupancies 1..l_k, each less the cost. Its exact-difference property
    is what certifies the solver."""
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


def deviation_certificate(instance: CongestionInstance, allocation: Allocation,
                          ) -> tuple[Deviation, ...] | None:
    """Every unilateral deviation (switch puzzles, go idle, or join from
    idle) with its utility delta; None as soon as any strictly profitable
    one exists. A complete all-nonpositive certificate is a Nash proof.

    A deviation is profitable exactly when its delta is greater than 0:
    the computed float utilities are compared with no tolerance, so the
    verdict is exact for them at any payoff scale. Below T*mu of about
    1e-16 those utilities no longer depend on the load, and the verdicts
    are then those of the rounded model, not of the game."""
    loads = allocation.loads
    records: list[Deviation] = []
    for k, l_k in enumerate(loads):
        if l_k < 1:
            continue
        here = _puzzle_utility(instance, l_k)
        # Going idle earns 0, which never beats a utility floored at zero.
        records.append(Deviation("leave", k, None, 0.0 - here))
        for k2 in range(instance.k):
            if k2 == k:
                continue
            delta = _puzzle_utility(instance, loads[k2] + 1) - here
            if delta > 0.0:
                return None
            records.append(Deviation("move", k, k2, delta))
    if allocation.total < instance.n_miners:
        for k2 in range(instance.k):
            delta = _puzzle_utility(instance, loads[k2] + 1) - 0.0
            if delta > 0.0:
                return None
            records.append(Deviation("join", None, k2, delta))
    return tuple(records)


def _enumerate_allocations(instance: CongestionInstance):
    """All load vectors with total <= N (idle miners allowed)."""
    k = instance.k
    total_count = math.comb(instance.n_miners + k, k)
    if total_count > _ENUMERATION_CAP:
        raise DomainError(f"{total_count} candidate allocations exceed the exhaustive cap")
    for total in range(instance.n_miners + 1):
        for cuts in itertools.combinations(range(total + k - 1), k - 1):
            loads = []
            prev = -1
            for c in cuts:
                loads.append(c - prev - 1)
                prev = c
            loads.append(total + k - 2 - prev)
            yield Allocation(loads)


def solve_congestion_nash(instance: CongestionInstance) -> NashSolution:
    """Deviation-certified equilibrium allocation: the first equilibrium in
    enumeration order whose potential is highest among the equilibria,
    returned with its certificate and its potential. There is always one:
    the float utilities themselves form a potential game.
    """
    def phi(allocation: Allocation) -> float:
        return potential(instance, allocation)

    best = max(all_nash_allocations(instance), key=phi)
    return NashSolution(best, deviation_certificate(instance, best), phi(best))


def all_nash_allocations(instance: CongestionInstance) -> list[Allocation]:
    """Every deviation-stable allocation, by exhaustive check."""
    return [a for a in _enumerate_allocations(instance)
            if deviation_certificate(instance, a) is not None]


def total_mining_cost(instance: CongestionInstance, allocation: Allocation) -> float:
    return sum(instance.gamma * load for load in allocation.loads)


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
    baseline: max over Nash allocations of total_mining_cost, divided by
    zkpoi_cost. The baseline must be positive — identity checks are cheap,
    not free. DomainError if the ratio overflows."""
    if zkpoi_cost <= 0:
        raise DomainError("the baseline cost must be > 0")
    nash = all_nash_allocations(instance)
    worst = max(total_mining_cost(instance, a) for a in nash)
    ratio = worst / zkpoi_cost
    if math.isinf(ratio):
        raise DomainError("the worst Nash cost over zkpoi_cost overflows a 64-bit float")
    return AnarchyPrice(len(nash), worst, ratio)
