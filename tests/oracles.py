"""Independent oracles for derived expected values.

Nothing in this module imports the package under test. Each function
recomputes a quantity from first principles (brute force, exhaustive
enumeration, Monte Carlo, or a stock root-finder) so library results can be
checked against an implementation that shares no code with them.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq
from scipy.special import zeta

# ---------------------------------------------------------------------------
# Shard cooperation game
# ---------------------------------------------------------------------------


def coop_payoff(block_reward, k, l_j, tx_reward, y_len, fixed_cost, per_tx_cost, x_len):
    """Cooperator payoff written out directly from its definition."""
    return block_reward / (k * l_j) + tx_reward * y_len / l_j - (fixed_cost + x_len * per_tx_cost)


def brute_force_min_coop_x(block_reward, k, l_j, tx_reward, fixed_cost, per_tx_cost,
                           penalty, x_max=50):
    """Smallest |x| in 0..x_max where cooperating (with y == x) beats defecting.

    Returns None when cooperation never catches up on the grid.
    """
    for x in range(x_max + 1):
        if coop_payoff(block_reward, k, l_j, tx_reward, x, fixed_cost, per_tx_cost, x) >= -penalty:
            return x
    return None


def brute_force_max_coop_x(block_reward, k, l_j, tx_reward, y_len, fixed_cost, per_tx_cost,
                           penalty, x_max=50):
    """Largest |x| in y_len..x_max where verifying a fixed agreed set y still
    beats defecting (the miner holds extra transactions beyond y)."""
    best = None
    for x in range(y_len, x_max + 1):
        if coop_payoff(block_reward, k, l_j, tx_reward, y_len, fixed_cost, per_tx_cost, x) >= -penalty:
            best = x
    return best


def profile_payoffs(k, quorum, block_reward, tx_reward, fixed_cost, per_tx_cost, penalty,
                    entries):
    """Payoff vector for an action profile, recomputed from scratch.

    entries: sequence of (shard, action, tx_list) with action in {"C", "D"}.
    Cooperators in a shard agree on the intersection of their lists; a shard
    below quorum yields no rewards, so its cooperators eat their costs.
    """
    by_shard: dict[int, list[int]] = {}
    for idx, (shard, action, _txs) in enumerate(entries):
        by_shard.setdefault(shard, []).append(idx)
    payoffs = [0.0] * len(entries)
    for shard, members in by_shard.items():
        coops = [i for i in members if entries[i][1] == "C"]
        l_j = len(coops)
        if l_j:
            common = set(entries[coops[0]][2])
            for i in coops[1:]:
                common &= set(entries[i][2])
        else:
            common = set()
        for i in members:
            _, action, txs = entries[i]
            if action == "D":
                payoffs[i] = -penalty
            elif l_j < quorum:
                payoffs[i] = -(fixed_cost + len(txs) * per_tx_cost)
            else:
                payoffs[i] = coop_payoff(block_reward, k, l_j, tx_reward, len(common),
                                         fixed_cost, per_tx_cost, len(txs))
    return payoffs


def profile_is_nash(k, quorum, block_reward, tx_reward, fixed_cost, per_tx_cost, penalty,
                    entries):
    """Exhaustive unilateral-deviation scan over C/D flips; a flip is a gain
    exactly when its payoff is greater, with no tolerance."""
    base = profile_payoffs(k, quorum, block_reward, tx_reward, fixed_cost, per_tx_cost,
                           penalty, entries)
    for i, (shard, action, txs) in enumerate(entries):
        flipped = list(entries)
        flipped[i] = (shard, "D" if action == "C" else "C", txs)
        alt = profile_payoffs(k, quorum, block_reward, tx_reward, fixed_cost, per_tx_cost,
                              penalty, flipped)
        if alt[i] > base[i]:
            return False
    return True


def binomial_tail_mc(n, m, draws, seed):
    """Monte-Carlo estimate of P[X >= ceil(n/3)] for X ~ Binomial(n, m)."""
    rng = np.random.default_rng(seed)
    threshold = math.ceil(n / 3)
    return float(np.mean(rng.binomial(n, m, size=draws) >= threshold))


def binomial_tail_exact(n, m):
    threshold = math.ceil(n / 3)
    return sum(math.comb(n, j) * m**j * (1 - m) ** (n - j) for j in range(threshold, n + 1))


# ---------------------------------------------------------------------------
# Congestion game
# ---------------------------------------------------------------------------


def win_prob(load, rate, deadline):
    return -math.expm1(-deadline * rate * load) / load


def potential_direct(loads, rates, costs, deadline):
    """Rosenthal-style sum written straight from its definition."""
    total = 0.0
    for k, l_k in enumerate(loads):
        for occupancy in range(1, l_k + 1):
            total += win_prob(occupancy, rates[k], deadline) - costs[k]
    return total


def enumerate_allocations(n_miners, n_puzzles):
    """All load vectors with sum <= n_miners (idle miners allowed)."""
    for total in range(n_miners + 1):
        for cuts in itertools.combinations(range(total + n_puzzles - 1), n_puzzles - 1):
            loads = []
            prev = -1
            for c in cuts:
                loads.append(c - prev - 1)
                prev = c
            loads.append(total + n_puzzles - 2 - prev)
            yield tuple(loads)


EXACT_DIGITS = 720  # w(l) - w(l + 1) is about (T*mu)**2 / 2: 1e-601 at T*mu = 1e-300


@functools.lru_cache(maxsize=1 << 10)
def exact_decay(rate, deadline):
    """exp(-T*rate) at EXACT_DIGITS digits, from the exact float inputs."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        return (-Decimal(deadline) * Decimal(rate)).exp()


@functools.lru_cache(maxsize=1 << 16)
def exact_utility(load, rate, cost, deadline):
    """max(w(load) - cost, 0) with w(l) = (1 - exp(-T*rate)**l) / l, in
    EXACT_DIGITS-digit decimal arithmetic from the exact values of the float
    inputs: the game's utility, not its rounding to a float. Cached, so an
    instance computes each load's utility once."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        win = (1 - exact_decay(rate, deadline) ** load) / load
        return max(win - Decimal(cost), Decimal(0))


def exact_potential(loads, rate, cost, deadline):
    """Rosenthal potential of puzzles sharing one rate and one cost: w(l) - cost
    for every occupancy 1..l_k of every puzzle, unclipped, in EXACT_DIGITS-digit
    decimal. The loads are summed in sorted order, so two permutations of one
    load vector get the same value."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        decay = exact_decay(rate, deadline)
        total = Decimal(0)
        for l_k in sorted(loads):
            for occupancy in range(1, l_k + 1):
                total += (1 - decay ** occupancy) / occupancy - Decimal(cost)
        return total


def unilateral_deviations(loads, n_miners):
    """Every unilateral deviation from loads as a (source, target) pair: a
    miner on an occupied puzzle moves to another puzzle or leaves (target
    None), and, when some miner idles, an idle miner joins a puzzle (source
    None)."""
    puzzles = range(len(loads))
    occupied = [k for k in puzzles if loads[k] > 0]
    moves = [(k, k2) for k in occupied for k2 in puzzles if k2 != k]
    leaves = [(k, None) for k in occupied]
    joins = [(None, k2) for k2 in puzzles] if sum(loads) < n_miners else []
    return moves + leaves + joins


def allocation_is_nash(loads, rates, costs, deadline, n_miners):
    """Deviation check independent of the solver: movers may switch puzzles or
    go idle, and idle miners may join any puzzle; utilities clip at zero.

    A move is profitable exactly when the utility it brings is greater than
    the one held, both exact (exact_utility), so the verdict is the game's
    at every rate scale.
    """

    def util(l, k):
        return exact_utility(l, rates[k], costs[k], deadline)

    total = sum(loads)
    for k, l_k in enumerate(loads):
        if l_k == 0:
            continue
        here = util(l_k, k)
        if 0 > here:  # leaving for idle
            return False
        for k2 in range(len(loads)):
            if k2 == k:
                continue
            if util(loads[k2] + 1, k2) > here:
                return False
    if total < n_miners:  # an idle miner joining
        for k2 in range(len(loads)):
            if util(loads[k2] + 1, k2) > 0:
                return False
    return True


def congestion_equilibria(n_miners, rates, costs, deadline):
    """Every Nash allocation of the congestion game, as load tuples in
    enumeration order, by exhaustive deviation checks on exact utilities."""
    return [loads for loads in enumerate_allocations(n_miners, len(rates))
            if allocation_is_nash(loads, rates, costs, deadline, n_miners)]


# ---------------------------------------------------------------------------
# Dominance / power-law shares
# ---------------------------------------------------------------------------


def zipf_shares(population, exponent):
    w = np.arange(1, population + 1, dtype=float) ** (-exponent)
    return w / w.sum()


def zipf_top_share(population, exponent, top):
    return float(zipf_shares(population, exponent)[:top].sum())


def calibrate_zipf_exponent(population, top, target):
    """Exponent for which the `top` largest ranks hold `target` of all shares."""
    return brentq(lambda s: zipf_top_share(population, s, top) - target, 0.05, 8.0, xtol=1e-12)


POWER_SUM_EXACT_MAX = 10**6  # counts summed term by term


def power_sum(n, s):
    """The sum of k ** -s over k = 1..n: term by term with math.fsum up to
    POWER_SUM_EXACT_MAX terms, and beyond that, for s > 1 only, as the
    Riemann zeta function less its Hurwitz tail, zeta(s) - zeta(s, n + 1)."""
    if n <= POWER_SUM_EXACT_MAX:
        return math.fsum(k ** -s for k in range(1, n + 1))
    if not s > 1:
        raise ValueError("beyond the exact range the oracle needs s > 1")
    return float(zeta(s) - zeta(s, n + 1))


def calibrate_power_exponent(population, top, target, lo=1e-3, hi=16.0):
    """Exponent at which the `top` largest of `population` power-law ranks
    hold `target` of the total, from power_sum and a stock root-finder."""
    return brentq(lambda s: power_sum(top, s) / power_sum(population, s) - target,
                  lo, hi, xtol=1e-14)


def pure_nash_profiles(payoff_tensor):
    """All pure Nash profiles of a finite game, by direct enumeration; a
    switch is a gain exactly when its payoff is greater, with no tolerance.

    payoff_tensor[s1, ..., sn, i] is player i's payoff.
    """
    shape = payoff_tensor.shape[:-1]
    n = payoff_tensor.shape[-1]
    out = []
    for profile in itertools.product(*(range(c) for c in shape)):
        ok = True
        for i in range(n):
            here = payoff_tensor[profile + (i,)]
            for alt in range(shape[i]):
                trial = list(profile)
                trial[i] = alt
                if payoff_tensor[tuple(trial) + (i,)] > here:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(profile)
    return out


def ess_by_invasion(u, strategies, candidate):
    """Whether `candidate` outscores every mutant in a population where the
    mutant holds a share below the exact invasion barrier, evaluated in
    exact rational arithmetic on the payoffs u[(own, other)].

    Against a mutant at share e the resident leads by (1 - e) * a + e * b,
    with a = u(c, c) - u(m, c) and b = u(c, m) - u(m, m). That lead is
    linear in e, so at half of its root a / (a - b), or at e = 1/2 when the
    root is not in (0, 1), it has the sign it has for every smaller share.
    """
    pay = {key: Fraction(value) for key, value in u.items()}
    for mutant in strategies:
        if mutant == candidate:
            continue
        a = pay[(candidate, candidate)] - pay[(mutant, candidate)]
        b = pay[(candidate, mutant)] - pay[(mutant, mutant)]
        barrier = a / (a - b) if a != b else Fraction(1)
        share = (barrier if 0 < barrier < 1 else Fraction(1)) / 2
        if not (1 - share) * a + share * b > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Circulation equilibrium
# ---------------------------------------------------------------------------


def dm_output_full_root(beta, eta, alpha):
    """Root of u'(q)/w'(q) = 1/beta with CRRA forms, via brentq."""
    return brentq(lambda q: q ** (-(eta + alpha)) - 1.0 / beta, 1e-9, 1.0 + 1e-12, xtol=1e-15)


def dm_output_delta_root(beta, eta, alpha, delta):
    """Root of 1/beta = delta * q^-(eta+alpha) + (1 - delta), via brentq."""
    target = 1.0 / beta
    return brentq(lambda q: delta * q ** (-(eta + alpha)) + (1.0 - delta) - target,
                  1e-9, 1.0 + 1e-12, xtol=1e-15)


def dm_output_exact(beta, eta, alpha, delta):
    """Root of 1/beta = delta * q^-(eta+alpha) + (1 - delta), solved as
    q = (delta / (1/beta - 1 + delta)) ** (1 / (eta + alpha)) in 50-digit
    decimal arithmetic from the exact values of the float inputs, then
    rounded to the nearest float (delta = 1 gives full circulation)."""
    with localcontext() as ctx:
        ctx.prec = 50
        beta, eta, alpha, delta = map(Decimal, (beta, eta, alpha, delta))
        base = delta / (1 / beta - 1 + delta)
        return float(base ** (1 / (eta + alpha)))


# ---------------------------------------------------------------------------
# Network effects
# ---------------------------------------------------------------------------


def sample_joins(rng, m_a, m_b, c_a, c_b, alpha, beta, lam, n_joins):
    """Draw joins against frozen counts; returns tallies for both sides."""
    cust_p = m_a**alpha / (m_a**alpha + m_b**alpha)
    merch_p = c_a**beta / (c_a**beta + c_b**beta)
    cust_total = merch_total = cust_a = merch_a = 0
    for _ in range(n_joins):
        if rng.random() < lam:
            cust_total += 1
            cust_a += rng.random() < cust_p
        else:
            merch_total += 1
            merch_a += rng.random() < merch_p
    return cust_a, cust_total, merch_a, merch_total


def growth_path(m_a, m_b, c_a, c_b, lam, alpha, beta, expected, steps, seed):
    """Agent-by-agent network growth on numpy's default_rng(seed): an
    array of shape (steps + 1, 4) holding (m_a, m_b, c_a, c_b) per step."""

    def split(x, y, power):
        wx, wy = x**power, y**power
        return wx / (wx + wy), wy / (wx + wy)

    rng = np.random.default_rng(seed)
    path = np.empty((steps + 1, 4))
    path[0] = (m_a, m_b, c_a, c_b)
    for t in range(1, steps + 1):
        merch, cust = split(c_a, c_b, beta), split(m_a, m_b, alpha)
        if expected:  # react to counts advanced by one expected arrival
            merch, cust = (
                split(c_a + lam * cust[0], c_b + lam * cust[1], beta),
                split(m_a + (1 - lam) * merch[0], m_b + (1 - lam) * merch[1], alpha))
        if rng.random() < lam:
            if rng.random() < cust[0]:
                c_a += 1
            else:
                c_b += 1
        elif rng.random() < merch[0]:
            m_a += 1
        else:
            m_b += 1
        path[t] = (m_a, m_b, c_a, c_b)
    return path


def elasticity_from_tallies(frac_a, count_a, count_b):
    return (math.log(frac_a) - math.log(1.0 - frac_a)) / (math.log(count_a) - math.log(count_b))


# ---------------------------------------------------------------------------
# Frozen spot values (each line recomputed here, asserted at import time)
# ---------------------------------------------------------------------------

# Cooperation thresholds for block_reward=0, k=1, l=2, r=1, c_f=5, c_v=0.25, p=1:
THETA1_DIRECT_SPOT = (5 - 0 / (1 * 2) - 1) / (1 / 2 - 0.25)            # == 16.0
THETA2_DIRECT_SPOT = (0 / 2 + 1 * 20 / 2 - 5 + 1) / 0.25               # == 24.0
THETA2_PUBLISHED_SPOT = (0 / 2 + 1 * 20 / 2 - 5 - 1) / 0.25                # == 16.0
assert THETA1_DIRECT_SPOT == 16.0 and THETA2_DIRECT_SPOT == 24.0 and THETA2_PUBLISHED_SPOT == 16.0
assert brute_force_min_coop_x(0, 1, 2, 1, 5, 0.25, 1) == 16
assert brute_force_max_coop_x(0, 1, 2, 1, 20, 5, 0.25, 1) == 24

# Eq-style payoff spot value:
PAYOFF_SPOT = coop_payoff(100, 2, 5, 1, 20, 2, 0.1, 20)                # == 10.0
assert PAYOFF_SPOT == 10.0

# Binomial shard failure, n=3, m=0.5: P[X>=1] = 1 - 0.5^3
assert abs(binomial_tail_exact(3, 0.5) - 0.875) < 1e-15

# Congestion potential spot values (mu = T = 1, gamma = 0):
PHI_1_1 = potential_direct((1, 1), (1.0, 1.0), (0.0, 0.0), 1.0)        # 2(1 - e^-1)
PHI_2_0 = potential_direct((2, 0), (1.0, 1.0), (0.0, 0.0), 1.0)        # (1-e^-1) + (1-e^-2)/2
assert abs(PHI_1_1 - 1.2642411176571153) < 1e-12
assert abs(PHI_2_0 - 1.0644529172102513) < 1e-12
assert abs(win_prob(1, 1.0, 1.0) - 0.6321205588285577) < 1e-12
assert abs(win_prob(2, 1.0, 1.0) - 0.43233235838169365) < 1e-12

# Circulation spot values at beta=0.9, eta=alpha=0.5:
Q_HAT_FULL_SPOT = 0.9 ** (1.0 / (0.5 + 0.5))                            # == 0.9
Q_HAT_HALF_SPOT = (0.5 / (1 / 0.9 - 1 + 0.5)) ** (1.0 / (0.5 + 0.5))    # == 0.45/0.55
assert abs(dm_output_full_root(0.9, 0.5, 0.5) - Q_HAT_FULL_SPOT) < 1e-9
assert abs(dm_output_delta_root(0.9, 0.5, 0.5, 0.5) - Q_HAT_HALF_SPOT) < 1e-9
assert abs(Q_HAT_HALF_SPOT - 0.8181818181818181) < 1e-12

# One step of the token-premium recursion at eta=alpha=0.5: exponent 3.
assert abs(0.9 ** ((1 + 0.5) / (0.5 + 0.5) / ((1 + 0.5) / (0.5 + 0.5) - 1)) - 0.729) < 1e-12

# Overtaking step count for a 10-merchant incumbent, lambda=0.5:
assert (10 + 1) / (1 - 0.5) == 22.0
