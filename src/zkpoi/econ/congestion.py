"""Mining as a congestion game: win probabilities, Rosenthal potential,
Nash solving with deviation certificates, and the cost ratio against an
identity-based baseline.

Miners allocate themselves across K puzzles (and optionally M external
service providers per puzzle). The chance of being first to solve a puzzle
splits among its miners, so every extra miner dilutes the rest — a
congestion externality, which for the single-provider case admits an exact
potential whose maximizer is deviation-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Real

from ..errors import DegenerateBaseline, Infeasible, TooLarge, ZeroMiners

_ENUMERATION_CAP = 200_000  # candidate allocations an exhaustive scan may touch


def _as_grid(value, k: int, m: int, name: str) -> tuple[tuple[float, ...], ...]:
    """Coerce a scalar, per-puzzle sequence, or full K x M grid to K x M."""
    if isinstance(value, Real):
        rows = [[value] * m for _ in range(k)]
    elif _is_numbers(value, k):
        rows = [[v] * m for v in value]
    elif _is_sized(value, k) and all(_is_numbers(row, m) for row in value):
        rows = value
    else:
        raise ValueError(f"{name} must be scalar, length-{k}, or {k}x{m}")
    grid = tuple(tuple(float(v) for v in row) for row in rows)
    if not all(math.isfinite(v) for row in grid for v in row):
        raise ValueError(f"{name} entries must be finite")
    if any(v < 0 for row in grid for v in row):
        raise ValueError(f"{name} entries must be >= 0")
    return grid


def _is_sized(value, n: int) -> bool:
    try:
        return len(value) == n
    except TypeError:
        return False


def _is_numbers(value, n: int) -> bool:
    return _is_sized(value, n) and all(isinstance(v, Real) for v in value)


@dataclass(frozen=True)
class CongestionInstance:
    """K puzzles, M providers per puzzle, N miners, deadline T, with solve
    rates mu[k][m] and per-miner operating costs gamma[k][m]."""

    k: int
    n_miners: int
    mu: tuple[tuple[float, ...], ...]
    gamma: tuple[tuple[float, ...], ...]
    deadline: float = 1.0
    m: int = 1

    def __init__(self, k, n_miners, mu, gamma, deadline=1.0, m=1):
        if k < 1 or m < 1:
            raise ValueError("need at least one puzzle and one provider")
        if deadline <= 0:
            raise ValueError("deadline must be > 0")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "n_miners", int(n_miners))
        object.__setattr__(self, "mu", _as_grid(mu, k, m, "mu"))
        object.__setattr__(self, "gamma", _as_grid(gamma, k, m, "gamma"))
        object.__setattr__(self, "deadline", float(deadline))


@dataclass(frozen=True)
class Allocation:
    """Nonnegative integer loads l[k][m]; miners not placed anywhere idle."""

    loads: tuple[tuple[int, ...], ...]

    def __init__(self, loads):
        rows = []
        for row in loads:
            if isinstance(row, Real):
                row = (row,)
            cells = tuple(int(v) for v in row)
            if any(v < 0 for v in cells):
                raise ValueError("loads must be >= 0")
            rows.append(cells)
        object.__setattr__(self, "loads", tuple(rows))

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.loads)

    def puzzle_loads(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.loads)

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.loads for v in row)


def puzzle_win_prob(l_k: int, mu_k: float, deadline: float) -> float:
    """Chance a given miner is first to solve: the puzzle falls within the
    deadline with rate mu_k per miner, and the winner is uniform among the
    l_k miners working on it."""
    if l_k < 1:
        raise ZeroMiners("win probability needs at least one miner on the puzzle")
    if mu_k < 0 or deadline < 0:
        raise ValueError("rate and deadline must be >= 0")
    return -math.expm1(-deadline * mu_k * l_k) / l_k


def _effective_rate(instance: CongestionInstance, loads, k: int) -> float:
    return sum(instance.mu[k][m] * loads[k][m] for m in range(instance.m))


def _slot_win_prob(instance: CongestionInstance, loads, k: int, m: int) -> float:
    """Rate-proportional split of the puzzle-k win probability; reduces to
    puzzle_win_prob when M=1."""
    eta_k = _effective_rate(instance, loads, k)
    if loads[k][m] < 1 or eta_k <= 0:
        return 0.0
    q_k = -math.expm1(-instance.deadline * eta_k)
    return q_k * instance.mu[k][m] / eta_k


def miner_utility(instance: CongestionInstance, allocation: Allocation,
                  k: int, m: int = 0) -> float:
    """Win probability minus operating cost, floored at zero (a miner that
    would lose money simply does not mine)."""
    loads = allocation.loads
    if loads[k][m] < 1:
        raise ZeroMiners("utility is defined for an occupied slot")
    return _slot_utility(instance, loads, k, m)


def potential(instance: CongestionInstance, allocation: Allocation) -> float:
    """Rosenthal potential: for each puzzle, the win probabilities at
    occupancies 1..l_k, each less the cost. Single-provider instances only;
    its exact-difference property is what certifies the solver."""
    if instance.m != 1:
        raise ValueError("the potential is defined for single-provider instances")
    total = 0.0
    for k, (l_k,) in enumerate(allocation.loads):
        mu_k = instance.mu[k][0]
        gamma_k = instance.gamma[k][0]
        for occupancy in range(1, l_k + 1):
            total += puzzle_win_prob(occupancy, mu_k, instance.deadline) - gamma_k
    return total


# ---------------------------------------------------------------------------
# Nash solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deviation:
    """One hypothetical unilateral move and the utility change it brings."""

    kind: str  # "move", "leave", or "join"
    source: tuple[int, int] | None
    target: tuple[int, int] | None
    delta: float


@dataclass(frozen=True)
class NashSolution:
    allocation: Allocation
    certificate: tuple[Deviation, ...]
    direction: str  # which optimization direction produced the stable point
    potential_value: float | None


def _slot_utility(instance, loads, k, m) -> float:
    return max(_slot_win_prob(instance, loads, k, m) - instance.gamma[k][m], 0.0)


def _with_delta(loads, k, m, d):
    rows = [list(r) for r in loads]
    rows[k][m] += d
    return tuple(tuple(r) for r in rows)


def deviation_certificate(instance: CongestionInstance, allocation: Allocation,
                          ) -> tuple[Deviation, ...] | None:
    """Every unilateral deviation (switch slots, go idle, or join from idle)
    with its utility delta; None as soon as any strictly profitable one
    exists. A complete all-nonpositive certificate is a Nash proof."""
    loads = allocation.loads
    slots = [(k, m) for k in range(instance.k) for m in range(instance.m)]
    records: list[Deviation] = []
    for k, m in slots:
        if loads[k][m] < 1:
            continue
        here = _slot_utility(instance, loads, k, m)
        leave_delta = 0.0 - here
        if leave_delta > 1e-12:
            return None
        records.append(Deviation("leave", (k, m), None, leave_delta))
        vacated = _with_delta(loads, k, m, -1)
        for k2, m2 in slots:
            if (k2, m2) == (k, m):
                continue
            moved = _with_delta(vacated, k2, m2, +1)
            delta = _slot_utility(instance, moved, k2, m2) - here
            if delta > 1e-12:
                return None
            records.append(Deviation("move", (k, m), (k2, m2), delta))
    if allocation.total < instance.n_miners:
        for k2, m2 in slots:
            joined = _with_delta(loads, k2, m2, +1)
            delta = _slot_utility(instance, joined, k2, m2) - 0.0
            if delta > 1e-12:
                return None
            records.append(Deviation("join", None, (k2, m2), delta))
    return tuple(records)


def _enumerate_allocations(instance: CongestionInstance):
    """All load grids with total <= N (idle miners allowed)."""
    slots = instance.k * instance.m
    total_count = math.comb(instance.n_miners + slots, slots)
    if total_count > _ENUMERATION_CAP:
        raise TooLarge(f"{total_count} candidate allocations exceed the exhaustive cap")
    for total in range(instance.n_miners + 1):
        for cuts in itertools.combinations(range(total + slots - 1), slots - 1):
            flat = []
            prev = -1
            for c in cuts:
                flat.append(c - prev - 1)
                prev = c
            flat.append(total + slots - 2 - prev)
            yield Allocation(tuple(tuple(flat[k * instance.m + m] for m in range(instance.m))
                                   for k in range(instance.k)))


def solve_congestion_nash(instance: CongestionInstance) -> NashSolution:
    """Deviation-certified equilibrium allocation.

    A single-provider instance is an exact potential game, so the first
    maximizer of the potential in enumeration order is an equilibrium; it is
    returned with its certificate and the direction "argmax". Multi-provider
    instances have no potential here, and the first allocation in
    enumeration order that passes the exhaustive deviation check is returned
    with the direction "scan".
    """
    if instance.n_miners < 0:
        raise Infeasible("miner count must be >= 0")
    if instance.m == 1:
        best = max(_enumerate_allocations(instance), key=lambda a: potential(instance, a))
        cert = deviation_certificate(instance, best)
        if cert is None:
            raise Infeasible("the potential's maximizer admits a profitable deviation")
        return NashSolution(best, cert, "argmax", potential(instance, best))
    for allocation in _enumerate_allocations(instance):
        cert = deviation_certificate(instance, allocation)
        if cert is not None:
            return NashSolution(allocation, cert, "scan", None)
    raise Infeasible("no deviation-stable allocation found")


def all_nash_allocations(instance: CongestionInstance) -> list[Allocation]:
    """Every deviation-stable allocation, by exhaustive check."""
    return [a for a in _enumerate_allocations(instance)
            if deviation_certificate(instance, a) is not None]


def total_mining_cost(instance: CongestionInstance, allocation: Allocation) -> float:
    return sum(instance.gamma[k][m] * allocation.loads[k][m]
               for k in range(instance.k) for m in range(instance.m))


def price_of_crypto_anarchy(instance: CongestionInstance,
                            zkpoi_cost: float = 0.01) -> float:
    """Worst-case equilibrium resource burn relative to the identity-based
    baseline: max over Nash allocations of total_mining_cost, divided by
    zkpoi_cost. The baseline must be positive — identity checks are cheap,
    not free."""
    if zkpoi_cost <= 0:
        raise DegenerateBaseline("the baseline cost must be > 0")
    worst = max(total_mining_cost(instance, a) for a in all_nash_allocations(instance))
    return worst / zkpoi_cost
