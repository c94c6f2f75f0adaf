"""Per-epoch cooperate/defect game over sharded transaction validation.

A population of registered miners is dealt into k shards. Cooperators in a
shard that reaches quorum split the shard's block reward and per-transaction
fees and pay a fixed cost plus a per-transaction verification cost;
defectors pay a flat penalty. Two executions of one epoch are provided:

* a coordinated run, where an honest coordinator collects transaction-list
  hashes, publishes the largest agreeing set and its thresholds, and marks
  everyone outside the final cooperator set defective;
* a receipt run with no coordinator, where transaction gossip is
  acknowledged by signed receipts and a sampled subset of those receipts is
  the only evidence by which silent free-riders can be caught.

On all-honest inputs the two runs produce identical payoff vectors; they
differ exactly in how defection is detected.
"""

from __future__ import annotations

import decimal
import math
import random
from dataclasses import dataclass, field

from .crypto import SigningKey, hash_parts, verify_signature
from .errors import DomainError

BEHAVIOR_HONEST = "honest"
BEHAVIOR_LAZY = "lazy-defector"
BEHAVIOR_FALSE_HASH = "false-hash-reporter"
BEHAVIOR_IGNORER = "instruction-ignorer"
BEHAVIORS = (BEHAVIOR_HONEST, BEHAVIOR_LAZY, BEHAVIOR_FALSE_HASH, BEHAVIOR_IGNORER)

COOPERATOR = "cooperator"
DEFECTOR = "defector"

_RECEIPT_CONTEXT = b"zkpoi/tx-receipt/v1"


@dataclass(frozen=True)
class GameParams:
    """Shard-game constants.

    k shards over n_miners miners; committee_min is the smallest tolerated
    shard, quorum the cooperator count a shard needs to publish anything.
    Rewards: block_reward split across shards then cooperators, tx_reward
    per agreed transaction split across cooperators. Costs: fixed_cost to
    participate at all, per_tx_cost per verified transaction, and penalty
    charged to defectors.
    """

    k: int
    n_miners: int
    committee_min: int
    quorum: int
    tx_reward: float
    block_reward: float
    fixed_cost: float
    per_tx_cost: float
    penalty: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_miners < self.k:
            raise ValueError("need at least one miner per shard")
        floor_size = self.n_miners // self.k
        if not 1 <= self.quorum <= floor_size:
            raise ValueError(f"quorum must lie in 1..{floor_size} to be achievable")
        if not 1 <= self.committee_min <= floor_size:
            raise ValueError(f"committee_min must lie in 1..{floor_size}")
        for name in ("tx_reward", "block_reward", "fixed_cost", "per_tx_cost", "penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class MinerState:
    miner_id: str
    pk: bytes
    behavior: str = BEHAVIOR_HONEST
    shard: int | None = None
    tx_list: tuple[str, ...] = ()
    key: SigningKey | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Receipt:
    tx_hash: bytes
    recipient: str
    signature: bytes

    def verify(self, recipient_pk: bytes) -> bool:
        payload = hash_parts(_RECEIPT_CONTEXT, self.tx_hash, self.recipient.encode())
        return verify_signature(recipient_pk, self.signature, payload)


def sign_receipt(key: SigningKey, tx_hash: bytes, recipient: str) -> Receipt:
    payload = hash_parts(_RECEIPT_CONTEXT, tx_hash, recipient.encode())
    return Receipt(tx_hash=tx_hash, recipient=recipient, signature=key.sign(payload))


# Sampled receipts, unsigned, as (signing key, tx digest) pairs by the miner each names.
_Evidence = dict[str, list[tuple[SigningKey, bytes]]]


@dataclass
class ShardOutcome:
    shard: int
    common_txs: tuple[str, ...]  # the agreed vector; empty below quorum
    cooperators: tuple[str, ...]
    defectors: tuple[str, ...]
    l_j: int  # final cooperator count the rewards divide over
    quorum_met: bool


@dataclass
class EpochOutcome:
    payoffs: dict[str, float]
    classification: dict[str, str]
    shards: list[ShardOutcome]

    def payoff_vector(self) -> list[float]:
        return [self.payoffs[k] for k in sorted(self.payoffs)]


def make_miners(count: int, seed: int, behaviors: dict[str, int] | None = None,
                ) -> list[MinerState]:
    """Deterministic miner population; behaviors maps behavior -> head count
    and fills the remainder with honest miners."""
    seed_tag = seed.to_bytes(8, "big")
    roster: list[str] = []
    for behavior, n in (behaviors or {}).items():
        if behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {behavior!r}")
        roster.extend([behavior] * n)
    if len(roster) > count:
        raise ValueError("behavior counts exceed the population")
    roster.extend([BEHAVIOR_HONEST] * (count - len(roster)))
    miners = []
    for i, behavior in enumerate(roster):
        key = SigningKey.from_labels(b"miner-key", seed_tag, i.to_bytes(4, "big"))
        miners.append(MinerState(miner_id=f"m{i:04d}", pk=key.public_bytes,
                                 behavior=behavior, key=key))
    return miners


# ---------------------------------------------------------------------------
# Payoffs and thresholds
# ---------------------------------------------------------------------------


def payoff_cooperate(params: GameParams, l_j: int, y_len: int, x_len: int) -> float:
    """Cooperator payoff: shared block reward, shared fees, own costs.
    DomainError if it overflows."""
    if l_j < 1:
        raise DomainError("cooperator payoff needs at least one cooperator")
    payoff = (params.block_reward / (params.k * l_j)
              + params.tx_reward * y_len / l_j
              - (params.fixed_cost + x_len * params.per_tx_cost))
    if not math.isfinite(payoff):
        raise DomainError("the cooperator payoff overflows a 64-bit float")
    return payoff


def payoff_defect(params: GameParams) -> float:
    return -params.penalty


@dataclass(frozen=True)
class Thresholds:
    """Transaction-count cutoffs for cooperation being a best response.

    The direct pair comes from solving the payoff inequality u_C >= -p; the
    published pair flips the penalty's sign (+p in the lower cutoff's
    numerator, -p in the upper one's). The pairs coincide at p=0.
    """

    theta1_direct: float
    theta2_direct: float
    theta1_published: float
    theta2_published: float


def cooperation_thresholds(params: GameParams, l_j: int, y_len: int) -> Thresholds:
    """Lower cutoff for a miner whose list is the agreed set, upper cutoff
    for a miner verifying the agreed set while holding extra transactions."""
    if l_j < 1:
        raise DomainError("thresholds need at least one cooperator")
    share = params.block_reward / (params.k * l_j)
    rate_gap = params.tx_reward / l_j - params.per_tx_cost
    if rate_gap == 0:
        raise DomainError("per-tx benefit equals per-tx cost at this shard size")
    theta1_direct = (params.fixed_cost - share - params.penalty) / rate_gap
    theta1_published = (params.fixed_cost - share + params.penalty) / rate_gap
    if params.per_tx_cost == 0:
        theta2_direct = theta2_published = math.inf
    else:
        fee_income = share + params.tx_reward * y_len / l_j - params.fixed_cost
        theta2_direct = (fee_income + params.penalty) / params.per_tx_cost
        theta2_published = (fee_income - params.penalty) / params.per_tx_cost
    return Thresholds(theta1_direct, theta2_direct, theta1_published, theta2_published)


# ---------------------------------------------------------------------------
# Shard assignment and transaction dealing
# ---------------------------------------------------------------------------


def assign_shards(epoch_randomness: bytes, miners: list[MinerState], params: GameParams,
                  ) -> dict[str, int]:
    """Shuffle miners by a randomness-keyed hash and deal them round-robin,
    so shard sizes balance within one and the placement is unpredictable
    without the epoch randomness."""
    order = sorted(miners, key=lambda m: hash_parts(b"shard-assign", epoch_randomness,
                                                    m.miner_id.encode(), m.pk))
    assignment: dict[str, int] = {}
    for i, miner in enumerate(order):
        miner.shard = i % params.k
        assignment[miner.miner_id] = miner.shard
    return assignment


def deal_transactions(epoch_randomness: bytes, miners: list[MinerState], params: GameParams,
                      txs_per_shard: int) -> dict[int, tuple[str, ...]]:
    """Fill each miner's received list with its shard's whole pool."""
    epoch_label = epoch_randomness[:8].hex()
    pools = {j: tuple(f"tx-{epoch_label}-s{j}-{i:04d}" for i in range(txs_per_shard))
             for j in range(params.k)}
    for miner in miners:
        if miner.shard is None:
            raise ValueError("assign shards before dealing transactions")
        miner.tx_list = pools[miner.shard]
    return pools


def _tx_list_hash(txs: tuple[str, ...]) -> bytes:
    return hash_parts(b"tx-list", *(t.encode() for t in txs))


def _reported_list(miner: MinerState) -> tuple[str, ...]:
    if miner.behavior == BEHAVIOR_FALSE_HASH:
        # Claims an extra transaction nobody else saw.
        return miner.tx_list + (f"forged-{miner.miner_id}",)
    return miner.tx_list


def _largest_common_group(reported: dict[str, bytes]) -> tuple[bytes, list[str]]:
    """Largest set of miners reporting one identical list; ties go to the
    lexicographically smallest list hash."""
    groups: dict[bytes, list[str]] = {}
    for miner_id, digest in reported.items():
        groups.setdefault(digest, []).append(miner_id)
    best = min(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return best[0], sorted(best[1])


def _wants_to_participate(params: GameParams, l_j: int, y_len: int, x_len: int) -> bool:
    """The two defect rules in direct payoff form: cooperate exactly when
    the cooperator share beats the flat penalty. For a miner whose list is
    the agreed set (x == y) this is the lower cutoff; for one holding extra
    transactions it is the upper cutoff."""
    return payoff_cooperate(params, l_j, y_len, x_len) > -params.penalty


def _miner_decision(params: GameParams, miner: MinerState, l_j: int, y_len: int) -> bool:
    if miner.behavior == BEHAVIOR_LAZY:
        return False
    rule = _wants_to_participate(params, l_j, y_len, len(miner.tx_list))
    if miner.behavior == BEHAVIOR_IGNORER:
        return not rule
    return rule


def _defector_payoff(miner: MinerState, params: GameParams, *, published: bool,
                     evidence: _Evidence | None) -> float:
    """Penalty when the defection is provable, zero otherwise.

    A published hash is proof by itself: a divergent vector is visible
    disagreement, and an agreed vector followed by absence shows the miner
    held the transactions. A silent miner is caught by the first of its
    sampled receipts that verifies, if any; each is signed just before its
    check, since Ed25519 signing is deterministic and no other step reads
    one. evidence=None means the coordinated run, where the coordinator
    observes everyone directly.
    """
    if evidence is None or published:
        return payoff_defect(params)
    named = any(sign_receipt(key, digest, miner.miner_id).verify(miner.pk)
                for key, digest in evidence.get(miner.miner_id, ()))
    return payoff_defect(params) if named else 0.0


def _settle_shard(shard: int, members: list[MinerState], params: GameParams,
                  payoffs, classification, *,
                  evidence: _Evidence | None) -> ShardOutcome:
    """Shared consensus + reward logic for both protocol flavors.

    evidence is None for the coordinated run (everything observable) and
    the sampled receipts by the miner each names for the receipt run, where
    they are the only way to catch miners that never published a hash.
    """
    # In the receipt run a lazy miner acknowledges deliveries but never
    # publishes its list hash; to the honest coordinator it does report one.
    publishers = [m for m in members
                  if evidence is None or m.behavior != BEHAVIOR_LAZY]
    reported = {m.miner_id: _tx_list_hash(_reported_list(m)) for m in publishers}
    by_id = {m.miner_id: m for m in members}

    def all_defective() -> ShardOutcome:
        for m in members:
            payoffs[m.miner_id] = _defector_payoff(
                m, params, published=m.miner_id in reported, evidence=evidence)
            classification[m.miner_id] = DEFECTOR
        return ShardOutcome(shard=shard, common_txs=(), cooperators=(),
                            defectors=tuple(sorted(m.miner_id for m in members)),
                            l_j=0, quorum_met=False)

    if not reported:
        return all_defective()
    _group_hash, group = _largest_common_group(reported)
    if len(group) < params.quorum:
        return all_defective()

    common = _reported_list(by_id[group[0]])  # identical across the group by hash
    l_candidate = len(group)
    verified = [i for i in group
                if _miner_decision(params, by_id[i], l_candidate, len(common))]
    # Defections discovered after the set was published shrink it, and the
    # shard only proceeds if the survivors still clear quorum.
    if len(verified) < params.quorum:
        return all_defective()

    l_final = len(verified)
    verified_set = set(verified)
    for m in members:
        if m.miner_id in verified_set:
            payoffs[m.miner_id] = payoff_cooperate(params, l_final, len(common),
                                                   len(m.tx_list))
            classification[m.miner_id] = COOPERATOR
        else:
            classification[m.miner_id] = DEFECTOR
            payoffs[m.miner_id] = _defector_payoff(
                m, params, published=m.miner_id in reported, evidence=evidence)
    return ShardOutcome(shard=shard, common_txs=common,
                        cooperators=tuple(sorted(verified)),
                        defectors=tuple(sorted(set(by_id) - verified_set)),
                        l_j=l_final, quorum_met=True)


def _gossip_and_collect(members: list[MinerState], pool: tuple[str, ...],
                        sample_size: int, rng: random.Random,
                        ) -> _Evidence:
    """Flood-gossip the pool, acknowledge deliveries with receipts, then
    transmit a per-counterparty random sample as defection evidence.

    Receipt holders are the gossip-active (non-lazy) members; a lazy miner
    acknowledges what it is offered but never forwards, so it holds nothing.
    Returns the distinct sampled receipts, unsigned, by the miner each names.
    """
    if sample_size <= 0:
        return {}
    # Every member holds the whole pool and acknowledges it, in tx-digest order.
    digests = sorted(hash_parts(b"tx", tx.encode()) for tx in pool)
    groups = {m.miner_id: [(m.key, d) for d in digests] for m in members}
    # Holders sample overlapping receipts; each distinct one is kept once.
    holders = [m for m in members if m.behavior != BEHAVIOR_LAZY]
    sampled: dict[str, dict[tuple[SigningKey, bytes], None]] = {}
    for h in holders:
        for recipient, receipts in sorted(groups.items()):
            if recipient != h.miner_id and receipts:
                picks = rng.sample(receipts, min(sample_size, len(receipts)))
                sampled.setdefault(recipient, {}).update(dict.fromkeys(picks))
    return {recipient: list(receipts) for recipient, receipts in sampled.items()}


def _run_epoch(params: GameParams, miners: list[MinerState], epoch_randomness: bytes,
               txs_per_shard: int, sample_size: int | None) -> EpochOutcome:
    """One epoch: the coordinated run for sample_size=None, else the receipt run."""
    assign_shards(epoch_randomness, miners, params)
    pools = deal_transactions(epoch_randomness, miners, params, txs_per_shard)
    payoffs: dict[str, float] = {}
    classification: dict[str, str] = {}
    shards = []
    for j in range(params.k):
        members = [m for m in miners if m.shard == j]
        evidence = None
        if sample_size is not None:
            rng = random.Random(int.from_bytes(hash_parts(
                b"receipt-sample", epoch_randomness, j.to_bytes(4, "big")), "big"))
            evidence = _gossip_and_collect(members, pools[j], sample_size, rng)
        shards.append(_settle_shard(j, members, params, payoffs, classification,
                                    evidence=evidence))
    return EpochOutcome(payoffs, classification, shards)


def run_coordinated_protocol(params: GameParams, miners: list[MinerState],
                             epoch_randomness: bytes, *, txs_per_shard: int = 8) -> EpochOutcome:
    """One epoch under an honest coordinator.

    Hashes are collected, the largest agreeing set is published with its
    thresholds, miners follow the defect rules, rewards go to cooperators
    that actually showed up, and everyone else pays the penalty.
    """
    return _run_epoch(params, miners, epoch_randomness, txs_per_shard, None)


def run_receipt_protocol(params: GameParams, miners: list[MinerState], epoch_randomness: bytes,
                         *, txs_per_shard: int = 8, receipt_sample_size: int = 3,
                         ) -> EpochOutcome:
    """One epoch with no coordinator: gossip, signed acknowledgments, and a
    sampled receipt transcript as the only proof of who saw transactions.

    A miner named by a verified sampled receipt that then sat out the epoch
    pays the penalty; with receipt_sample_size=0 no evidence circulates and
    silent free-riders go unpunished, which is the sampling trade-off.
    """
    return _run_epoch(params, miners, epoch_randomness, txs_per_shard, receipt_sample_size)


# ---------------------------------------------------------------------------
# Shard security
# ---------------------------------------------------------------------------


def shard_failure_prob(n: int, m: float) -> float:
    """Probability a shard of n sampled miners seats >= ceil(n/3) malicious
    ones when the global malicious fraction is m.

    The binomial tail is summed in 50-digit decimal arithmetic with an
    unbounded exponent range, so no term underflows at large n; each term
    follows from the one before by the ratio (n-k)/(k+1) * m/(1-m).
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError("malicious fraction must lie in [0, 1]")
    if n < 1:
        raise ValueError("shard size must be >= 1")
    if m in (0.0, 1.0):
        return float(m)
    threshold = math.ceil(n / 3)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ctx.Emin, ctx.Emax = decimal.MIN_EMIN, decimal.MAX_EMAX
        p = decimal.Decimal(m)
        q = 1 - p
        ratio = p / q
        term = math.comb(n, threshold) * p ** threshold * q ** (n - threshold)
        total = term
        for k in range(threshold, n):
            term = term * (n - k) / (k + 1) * ratio
            total += term
        return float(total)


def epoch_failure_bound(num_shards: int, per_shard_prob: float, views: int,
                        ) -> tuple[float, float]:
    """Union-style epoch failure bounds over retried views.

    Returns (finite_bound, limit_bound): the truncated geometric sum through
    `views` halvings-by-four, and its limit (4/3) * n * P_S.
    """
    if not 0.0 <= per_shard_prob <= 1.0:
        raise ValueError("per-shard probability must lie in [0, 1]")
    if views < 0:
        raise ValueError("views must be >= 0")
    finite = sum(4.0 ** (-k) * num_shards * per_shard_prob for k in range(views + 1))
    limit = (4.0 / 3.0) * num_shards * per_shard_prob
    return finite, limit
