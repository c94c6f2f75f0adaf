"""Checks of the paper's claims that only tests call, and the generic
finite-game procedures the library's closed forms are checked against.

Each claim function decides a claim from the library's own models: the
unique Nash equilibrium and the decentralization test of the sharding game,
the fee balance of the circulation model, and the ratio dynamics and
elasticity recovery of the network model. The finite-game section holds
n-player payoff tensors, the pure-Nash test and iterated deletion of
strictly dominated strategies over every opponent profile: the reference
for `games.idsds`, which decides the reward-regime game from its two
payoffs. The library never calls any of them, so they live beside the
tests. Unlike ``oracles``, this module imports the library: it checks
claims on the library's models, not the models themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from zkpoi.econ import games, network
from zkpoi.econ.network import NetworkState
from zkpoi.errors import DomainError
from zkpoi.shardgame import GameParams, payoff_cooperate, payoff_defect

# ---------------------------------------------------------------------------
# Sharding game: equilibrium and decentralization
# ---------------------------------------------------------------------------

NASH_LIMIT = 12


def profile_payoffs(params: GameParams, entries) -> list[float]:
    by_shard: dict[int, list[int]] = {}
    for idx, (shard, _action, _txs) in enumerate(entries):
        by_shard.setdefault(shard, []).append(idx)
    payoffs = [0.0] * len(entries)
    for _shard, idxs in by_shard.items():
        coops = [i for i in idxs if entries[i][1] == "C"]
        if coops:
            common = set(entries[coops[0]][2])
            for i in coops[1:]:
                common &= set(entries[i][2])
        else:
            common = set()
        for i in idxs:
            _, action, txs = entries[i]
            if action == "D":
                payoffs[i] = payoff_defect(params)
            elif len(coops) < params.quorum:
                # Below quorum nothing publishes: costs are sunk, rewards zero.
                payoffs[i] = -(params.fixed_cost + len(txs) * params.per_tx_cost)
            else:
                payoffs[i] = payoff_cooperate(params, len(coops), len(common), len(txs))
    return payoffs


def is_nash_profile(params: GameParams, entries) -> bool:
    """Exhaustive unilateral-deviation check over C/D flips.

    entries: per-miner (shard, action, tx_list) with action "C" or "D";
    cooperators agree on the intersection of their lists, and the shard
    composition is recomputed after each hypothetical flip. A flip is a
    gain exactly when its payoff is greater than the current one: payoffs
    are compared with no tolerance, so scaling every reward and cost by the
    same power of two never changes the verdict.
    """
    entries = [(int(s), a, tuple(t)) for s, a, t in entries]
    if len(entries) > NASH_LIMIT:
        raise DomainError(f"exhaustive check capped at {NASH_LIMIT} miners")
    for shard, action, _ in entries:
        if action not in ("C", "D"):
            raise ValueError(f"action must be C or D, got {action!r}")
    base = profile_payoffs(params, entries)
    for i, (shard, action, txs) in enumerate(entries):
        trial = list(entries)
        trial[i] = (shard, "D" if action == "C" else "C", txs)
        if profile_payoffs(params, trial)[i] > base[i]:
            return False
    return True


@dataclass(frozen=True)
class DecentralizationReport:
    ok: bool
    population: int
    ep_max: float
    ep_percentile: float
    ratio: float


def decentralization_check(player_powers: dict[str, list[float]], m: int,
                           epsilon: float, delta: float) -> DecentralizationReport:
    """Population-size and power-ratio test.

    Passes when at least m players exist and the richest player's effective
    power is within (1 + epsilon) of the delta-th percentile player's.
    """
    if not player_powers:
        raise DomainError("no players to measure")
    if not 0.0 <= delta <= 100.0:
        raise ValueError("delta is a percentile in [0, 100]")
    effective = sorted(float(sum(powers)) for powers in player_powers.values())
    if any(map(math.isnan, effective)):  # NaN propagates, so the check fails
        effective = [math.nan] * len(effective)
    ep_max = effective[-1]
    # the "lower" percentile: the sample at rank floor((n - 1) * delta / 100)
    ep_delta = effective[math.floor((len(effective) - 1) * (delta / 100))]
    if ep_delta == 0.0:
        ratio = math.inf if ep_max > 0 else 1.0
    else:
        ratio = ep_max / ep_delta
    ok = len(effective) >= m and ratio <= 1.0 + epsilon
    return DecentralizationReport(ok=ok, population=len(effective), ep_max=ep_max,
                                  ep_percentile=ep_delta, ratio=ratio)


# ---------------------------------------------------------------------------
# Circulation: fee balance
# ---------------------------------------------------------------------------


def fee_balance(omega_cost: float, volume: float) -> float:
    """Per-payment fee that finances a total cost over a transaction volume.
    The buyer/seller incidence split does not change the fee itself, since
    the two shares add back to the whole."""
    if volume <= 0:
        raise DomainError("transaction volume must be > 0")
    return omega_cost / volume


# ---------------------------------------------------------------------------
# Network effects: join probabilities, ratio dynamics, elasticity recovery
# ---------------------------------------------------------------------------


def join_probabilities(state: NetworkState,
                       ) -> tuple[tuple[float, float], tuple[float, float]]:
    """((merchant->A, merchant->B), (customer->A, customer->B)), as
    simulate_network_growth draws them from the state's counts.

    Merchants weigh customer counts to the power beta, customers weigh
    merchant counts to the power alpha. In "expected" mode each side's
    counts are first advanced by their one-step expected increment.
    """
    if state.expectation_mode == "expected":
        return network._join_split(state.m_a, state.m_b, state.c_a, state.c_b,
                                   state.lam, state.alpha, state.beta)
    return (network._attraction(state.c_a, state.c_b, state.beta, "customers"),
            network._attraction(state.m_a, state.m_b, state.alpha, "merchants"))


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


def sample_static_joins(state: NetworkState, n_joins: int, seed: int,
                        ) -> tuple[int, int, int, int]:
    """Joins drawn against frozen counts (a short observation window), from
    the draws simulate_network_growth takes: (customer joins to A, customer
    total, merchant joins to A, merchant total)."""
    merch, cust = join_probabilities(state)
    cust_a = cust_total = merch_a = merch_total = 0
    for u, v in network._draw_pairs(seed, n_joins):
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


# ---------------------------------------------------------------------------
# Finite games: payoff tensors, pure Nash, iterated strict dominance
# ---------------------------------------------------------------------------

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


def iterated_strict_dominance(matrix: PayoffMatrix) -> IdsdsResult:
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


def regime_tensor(game: games.RegimeGame) -> PayoffMatrix:
    """The reward-regime game as an explicit n-player tensor:
    u[s1]...[sn][i] is miner i's payoff for its own regime s_i."""
    pays = (game.udce_pay, game.plfc_pay)

    def tensor(profile):
        if len(profile) == game.miner_count:
            return [pays[choice] for choice in profile]
        return [tensor(profile + (choice,)) for choice in (0, 1)]

    return PayoffMatrix(strategies=((games.UDCE, games.PLFC),) * game.miner_count,
                        u=tensor(()))
