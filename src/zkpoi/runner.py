"""Seeded experiment runner behind the command-line interface.

Each scenario is a pure function of (validated params, seed) returning a
table plus a summary; the runner serializes the result (CSV or JSON),
writes it where asked, and emits a manifest with content checksums so that
identical config + seed provably yields identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .codec import canonical_json
from .errors import ConfigInvalid, DomainError, IoFailure

SCHEMA_VERSION = 1
FLOAT_FORMAT = ".9g"


def _lazy_modules(*names: str) -> list:
    """Register each `zkpoi.<name>` in sys.modules, bound on its parent
    package as an import binds it, but executed only on its first attribute
    access. A module that is already imported is returned as it is."""
    modules = []
    for name in names:
        full = f"{__package__}.{name}"
        module = sys.modules.get(full)
        if module is None:
            spec = importlib.util.find_spec(full)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[full] = module
            spec.loader.exec_module(module)
            parent, _, child = full.rpartition(".")
            setattr(sys.modules[parent], child, module)
        modules.append(module)
    return modules


# A scenario runs only the modules it touches, so `zkpoi --version` and the
# econ scenarios never load `cryptography`. The modules reached only through
# the others are registered too: every module a scenario can run is then in
# sys.modules before any of it executes, where run-time patching can see it.
attestation, credential, identity, registry, shardgame = _lazy_modules(
    "attestation", "credential", "identity", "registry", "shardgame")
circ, cong, games, network = _lazy_modules(
    "econ.circulation", "econ.congestion", "econ.games", "econ.network")
_lazy_modules("crypto", "accumulator", "econ._roots", "econ._pcg64")


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _fail(path: str, message: str):
    raise ConfigInvalid(f"{path}: {message}")


def load_config(path) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"config: cannot read {path}: {exc}") from exc
    try:
        config = json.loads(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"config: not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        _fail("config", "top level must be a JSON object")
    return config


def check_seed(value, source: str) -> int:
    """The one seed check: an integer in [0, 2**64), else a config error
    that names where the seed came from."""
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(source, "must be an integer")
    if not 0 <= value < 2**64:
        _fail(source, "must fit in 64 bits (0 <= seed < 2**64)")
    return value


def resolve_seed(config: dict, flag_seed: int | None) -> int:
    """Explicit --seed wins; otherwise the config value; otherwise zero."""
    if flag_seed is not None:
        return check_seed(flag_seed, "--seed")
    return check_seed(config.get("seed", 0), "seed")


class _Params:
    """Schema-checked view over the config's params object; every getter
    records its key so unknown keys can be rejected with a field path."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            _fail("params", "must be a JSON object")
        self.raw = raw
        self.seen: set[str] = set()

    def _get(self, key, default):
        self.seen.add(key)
        return self.raw.get(key, default)

    def integer(self, key, default, lo=None, hi=None):
        value = self._get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(f"params.{key}", "must be an integer")
        if lo is not None and value < lo:
            _fail(f"params.{key}", f"must be >= {lo}")
        if hi is not None and value > hi:
            _fail(f"params.{key}", f"must be <= {hi}")
        return value

    @staticmethod
    def _real(path, value) -> float:
        """The one scalar check behind number and number_list."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, "must be a number")
        try:
            value = float(value)
        except OverflowError:
            _fail(path, "must fit in a 64-bit float")
        if math.isnan(value):
            _fail(path, "must be a number, not NaN")
        return value

    def number(self, key, default, lo=None, hi=None, *, exclusive=False):
        """A real in [lo, hi], or in (lo, hi) when exclusive; None is unbounded."""
        value = self._real(f"params.{key}", self._get(key, default))
        if lo is not None and (value <= lo if exclusive else value < lo):
            _fail(f"params.{key}", f"must be {'>' if exclusive else '>='} {lo}")
        if hi is not None and (value >= hi if exclusive else value > hi):
            _fail(f"params.{key}", f"must be {'<' if exclusive else '<='} {hi}")
        return value

    def text(self, key, default, choices=None):
        value = self._get(key, default)
        if not isinstance(value, str):
            _fail(f"params.{key}", "must be a string")
        if choices is not None and value not in choices:
            _fail(f"params.{key}", f"must be one of {sorted(choices)}")
        return value

    def boolean(self, key, default):
        value = self._get(key, default)
        if not isinstance(value, bool):
            _fail(f"params.{key}", "must be a boolean")
        return value

    def number_list(self, key, default):
        value = self._get(key, list(default))
        if not isinstance(value, list) or not value:
            _fail(f"params.{key}", "must be a non-empty array of numbers")
        return [self._real(f"params.{key}[{i}]", v) for i, v in enumerate(value)]

    def reject_unknown(self):
        unknown = sorted(set(self.raw) - self.seen)
        if unknown:
            _fail(f"params.{unknown[0]}", "unknown parameter")


@dataclass
class ScenarioResult:
    columns: list[str]
    rows: list[dict]
    summary: dict
    default_format: str = "csv"


@dataclass
class RunManifest:
    scenario: str
    config_hash: str
    seed: int
    artifact_version: str
    outputs: dict[str, str]  # name -> sha256 of the bytes written

    def to_json(self) -> str:
        return canonical_json({
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "artifact_version": self.artifact_version,
            "outputs": self.outputs,
        })


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

def _now() -> int:
    """One year into every validity window `synthesize_documents` issues."""
    return identity.GENESIS + identity.YEAR


def synthesize_documents(kind: str, count: int, hierarchies: int, seed: int, *,
                         with_aa: bool = True):
    """Deterministic corpus of identity documents across several issuing
    hierarchies, cards two intermediates below their root, each valid for
    ten years from genesis. Returns (trust_store, [documents])."""
    validity = (identity.GENESIS, identity.GENESIS + 10 * identity.YEAR)
    if kind == "card":
        store, hierarchy = identity.generate_ca_hierarchy(hierarchies, 2, seed)
        docs = []
        for i in range(count):
            issuer = hierarchy.issuers[i % len(hierarchy.issuers)]
            docs.append(identity.issue_identity_cert(
                hierarchy, issuer, f"Holder {i:06d}", f"UID-{seed}-{i:08d}", validity))
        return store, docs
    if kind == "epassport":
        store, hierarchy = identity.generate_ca_hierarchy(hierarchies, 0, seed)
        cscas = [hierarchy.authorities[name] for name in hierarchy.issuers]
        dscs = [identity.issue_dsc(csca, f"signer-{i}", validity)
                for i, csca in enumerate(cscas)]
        docs = []
        for i in range(count):
            c = i % len(cscas)
            holder = identity.HolderFields(
                name=f"HOLDER{i:06d}", document_number=f"P{i:07d}",
                nationality=f"N{c:02d}", birth_date="900101", sex="F",
                expiry_date="450101", issuing_state=f"N{c:02d}",
                personal_number=f"PN-{seed}-{i:08d}")
            docs.append(identity.issue_epassport(cscas[c], dscs[c], holder,
                                                 with_aa=with_aa, seed=seed + i))
        return store, docs
    _fail("params.kind", "must be one of ['card', 'epassport']")


def _doc_label(doc) -> str:
    if isinstance(doc, identity.EPassport):
        return doc.dg1.document_number
    return doc.certificate.subject_name


def _corpus_params(p: _Params) -> tuple[str, int, int]:
    """The kind, count and hierarchies every document scenario reads first."""
    kind = p.text("kind", "epassport", {"card", "epassport"})
    count = p.integer("count", 5, lo=1, hi=100_000)
    hierarchies = p.integer("hierarchies", 3, lo=1, hi=64)
    return kind, count, hierarchies


def _build_bundle(doc, i: int, seed: int, blockchain_id: str, store, **options):
    """Bundle for the i-th synthesized document, under its own passphrase."""
    bundle, _ = credential.build_registration_bundle(
        doc, f"passphrase-{seed}-{i}", blockchain_id, store, _now(), **options)
    return bundle


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _scenario_identity_gen(p: _Params, seed: int) -> ScenarioResult:
    kind, count, hierarchies = _corpus_params(p)
    with_aa = p.boolean("with_aa", True)
    p.reject_unknown()
    store, docs = synthesize_documents(kind, count, hierarchies, seed, with_aa=with_aa)
    rows = []
    for i, doc in enumerate(docs):
        public = identity.public_document(doc)
        rows.append({"index": i, "kind": kind, "label": _doc_label(doc),
                     "unique_id": public.unique_id(),
                     "document_hash": identity.public_bytes_hash(public.public_bytes()).hex()})
    return ScenarioResult(
        columns=["index", "kind", "label", "unique_id", "document_hash"],
        rows=rows,
        summary={"documents": count, "hierarchies": hierarchies,
                 "trusted_roots": len(store.trusted_roots)})


def _scenario_identity_validate(p: _Params, seed: int) -> ScenarioResult:
    kind, count, hierarchies = _corpus_params(p)
    p.reject_unknown()
    store, docs = synthesize_documents(kind, count, hierarchies, seed)
    rows = []
    for i, doc in enumerate(docs):
        report = identity.public_document(doc).validate(store, _now())
        rows.append({"index": i, "label": _doc_label(doc), "verdict": report.verdict,
                     "failure_code": report.failure_code.value if report.failure_code else ""})
    accepted = sum(1 for r in rows if r["verdict"] == "accepted")
    return ScenarioResult(
        columns=["index", "label", "verdict", "failure_code"], rows=rows,
        summary={"accepted": accepted, "rejected": len(rows) - accepted})


def _scenario_register_build(p: _Params, seed: int) -> ScenarioResult:
    kind, count, hierarchies = _corpus_params(p)
    blockchain_id = p.text("blockchain_id", "chain-main")
    aa_mode = p.text("aa_mode", credential.AA_MODE_FULL,
                     {credential.AA_MODE_FULL, credential.AA_MODE_ABSENT})
    iterations = p.integer("kdf_iterations", 512, lo=1, hi=10_000_000)
    p.reject_unknown()
    if kind == "card" and aa_mode == credential.AA_MODE_ABSENT:
        _fail("params.aa_mode", "a card can sign, so it requires authentication mode 'full'")
    store, docs = synthesize_documents(kind, count, hierarchies, seed,
                                       with_aa=aa_mode == credential.AA_MODE_FULL)
    rows = []
    for i, doc in enumerate(docs):
        bundle = _build_bundle(doc, i, seed, blockchain_id, store,
                               aa_mode=aa_mode, kdf_iterations=iterations)
        blob = bundle.to_bytes()
        rows.append({"index": i, "pseudonym": bundle.pseudonym.label(),
                     "aa_mode": bundle.evidence.aa_mode,
                     "bundle_sha256": hashlib.sha256(blob).hexdigest()})
    return ScenarioResult(
        columns=["index", "pseudonym", "aa_mode", "bundle_sha256"], rows=rows,
        summary={"bundles": len(rows), "blockchain_id": blockchain_id})


def _scenario_register_verify(p: _Params, seed: int) -> ScenarioResult:
    kind, count, hierarchies = _corpus_params(p)
    blockchain_id = p.text("blockchain_id", "chain-main")
    iterations = p.integer("kdf_iterations", 512, lo=1, hi=10_000_000)
    p.reject_unknown()
    store, docs = synthesize_documents(kind, count, hierarchies, seed)
    rows = []
    for i, doc in enumerate(docs):
        bundle = _build_bundle(doc, i, seed, blockchain_id, store, kdf_iterations=iterations)
        reparsed = credential.RegistrationBundle.from_bytes(bundle.to_bytes())
        verdict = credential.verify_registration_bundle(reparsed, store, blockchain_id, _now())
        rows.append({"index": i, "pseudonym": bundle.pseudonym.label(),
                     "ok": verdict.accepted, "failed_step": verdict.failed_step or 0,
                     "reason": verdict.reason or ""})
    return ScenarioResult(
        columns=["index", "pseudonym", "ok", "failed_step", "reason"], rows=rows,
        summary={"verified": sum(1 for r in rows if r["ok"]), "total": len(rows)})


def _registry_round(p: _Params, seed: int, offline_count: int):
    kind, count, hierarchies = _corpus_params(p)
    blockchain_id = p.text("blockchain_id", "chain-main")
    iterations = p.integer("kdf_iterations", 512, lo=1, hi=10_000_000)
    p.reject_unknown()
    store, docs = synthesize_documents(kind, count, hierarchies, seed)
    reg = registry.Registry(store, blockchain_id, seed=seed)
    session = reg.open_session(registry.WALLET_ENCLAVE)
    for i, doc in enumerate(docs):
        bundle = _build_bundle(doc, i, seed, blockchain_id, store, kdf_iterations=iterations)
        reg.register(attestation.seal(session, bundle.to_bytes()), session, _now())
    for i, doc in enumerate(docs[:offline_count]):
        off = _build_bundle(doc, i, seed, blockchain_id, store,
                            suffix=credential.SUFFIX_OFF, kdf_iterations=iterations)
        reg.take_offline(attestation.seal(session, off.to_bytes()), session, _now())
    return reg


def _log_result(reg: registry.Registry) -> ScenarioResult:
    rows = [dict(record) for record in reg.log]
    return ScenarioResult(
        columns=["op", "pseudonym", "pk", "epoch"], rows=rows,
        summary={"epoch": reg.epoch, "online": reg.online_count()})


def _scenario_registry_register(p: _Params, seed: int) -> ScenarioResult:
    return _log_result(_registry_round(p, seed, offline_count=0))


def _scenario_registry_offline(p: _Params, seed: int) -> ScenarioResult:
    offline = p.integer("offline_count", 1, lo=0, hi=100_000)
    return _log_result(_registry_round(p, seed, offline_count=offline))


def _scenario_registry_dump(p: _Params, seed: int) -> ScenarioResult:
    reg = _registry_round(p, seed, offline_count=0)
    view = reg.host_view()
    result = _log_result(reg)
    result.summary.update({
        "accumulator_root": view["accumulator_root"],
        "identity_tags": len(view["id_tags"]),
    })
    result.default_format = "json"
    return result


def _scenario_sim_epoch(p: _Params, seed: int) -> ScenarioResult:
    n = p.integer("miners", 8, lo=1, hi=10_000)
    k = p.integer("shards", 2, lo=1, hi=256)
    quorum = p.integer("quorum", max(1, (n // k) * 2 // 3), lo=1)
    committee_min = p.integer("committee_min", 1, lo=1)
    tx_reward = p.number("tx_reward", 1.0, lo=0.0)
    block_reward = p.number("block_reward", 100.0, lo=0.0)
    fixed_cost = p.number("fixed_cost", 2.0, lo=0.0)
    per_tx_cost = p.number("per_tx_cost", 0.1, lo=0.0)
    penalty = p.number("penalty", 5.0, lo=0.0)
    txs = p.integer("txs_per_shard", 8, lo=0, hi=10_000)
    protocol = p.text("protocol", "both", {"coordinated", "receipts", "both"})
    lazy = p.integer("lazy_defectors", 0, lo=0)
    false_hash = p.integer("false_hash_reporters", 0, lo=0)
    ignorers = p.integer("instruction_ignorers", 0, lo=0)
    sample_size = p.integer("receipt_sample_size", 3, lo=0, hi=10_000)
    p.reject_unknown()
    params = shardgame.GameParams(k=k, n_miners=n, committee_min=committee_min,
                                  quorum=quorum, tx_reward=tx_reward,
                                  block_reward=block_reward, fixed_cost=fixed_cost,
                                  per_tx_cost=per_tx_cost, penalty=penalty)
    behaviors = {shardgame.BEHAVIOR_LAZY: lazy,
                 shardgame.BEHAVIOR_FALSE_HASH: false_hash,
                 shardgame.BEHAVIOR_IGNORER: ignorers}
    behaviors = {b: c for b, c in behaviors.items() if c}
    if sum(behaviors.values()) > n:
        _fail("params.lazy_defectors", "behavior counts exceed the miner count")
    randomness = seed.to_bytes(32, "big")
    rows = []
    protocols = ["coordinated", "receipts"] if protocol == "both" else [protocol]
    for name in protocols:
        miners = shardgame.make_miners(n, seed, behaviors)
        if name == "coordinated":
            outcome = shardgame.run_coordinated_protocol(
                params, miners, randomness, txs_per_shard=txs)
        else:
            outcome = shardgame.run_receipt_protocol(
                params, miners, randomness, txs_per_shard=txs,
                receipt_sample_size=sample_size)
        by_id = {m.miner_id: m for m in miners}
        for miner_id in sorted(outcome.payoffs):
            rows.append({"protocol": name, "miner": miner_id,
                         "behavior": by_id[miner_id].behavior,
                         "shard": by_id[miner_id].shard,
                         "payoff": outcome.payoffs[miner_id],
                         "classification": outcome.classification[miner_id]})
    return ScenarioResult(
        columns=["protocol", "miner", "behavior", "shard", "payoff", "classification"],
        rows=rows,
        summary={"miners": n, "shards": k, "protocols": protocols})


def _congestion_instance(p: _Params) -> cong.CongestionInstance:
    k = p.integer("puzzles", 2, lo=1, hi=16)
    n = p.integer("miners", 2, lo=0, hi=64)
    mu = p.number("mu", 1.0, lo=0.0)
    gamma = p.number("gamma", 0.0, lo=0.0)
    deadline = p.number("deadline", 1.0, lo=0.0, exclusive=True)
    return cong.CongestionInstance(k=k, n_miners=n, mu=mu, gamma=gamma, deadline=deadline)


def _scenario_econ_congestion(p: _Params, seed: int) -> ScenarioResult:
    instance = _congestion_instance(p)
    p.reject_unknown()
    solution = cong.solve_congestion_nash(instance)
    rows = []
    for k in range(instance.k):
        load = solution.allocation.loads[k]
        utility = cong.miner_utility(instance, solution.allocation, k) if load else 0.0
        rows.append({"puzzle": k, "load": load, "utility": utility})
    return ScenarioResult(
        columns=["puzzle", "load", "utility"], rows=rows,
        summary={"direction": "argmax",
                 "potential": solution.potential_value,
                 "deviations_checked": len(solution.certificate),
                 "nash_certified": True})


def _scenario_econ_poa(p: _Params, seed: int) -> ScenarioResult:
    instance = _congestion_instance(p)
    zkpoi_cost = p.number("zkpoi_cost", 0.01, lo=0.0, exclusive=True)
    p.reject_unknown()
    price = cong.price_of_crypto_anarchy(instance, zkpoi_cost)
    rows = [{"nash_count": price.nash_count, "worst_nash_cost": price.worst_nash_cost,
             "zkpoi_cost": zkpoi_cost, "ratio": price.ratio}]
    return ScenarioResult(
        columns=["nash_count", "worst_nash_cost", "zkpoi_cost", "ratio"], rows=rows,
        summary={"ratio": price.ratio})


def _scenario_econ_dominance(p: _Params, seed: int) -> ScenarioResult:
    miner_count = p.integer("miner_count", 4, lo=2, hi=12)
    reward = p.number("reward", 4.0, lo=0.0)
    pow_cost = p.number("pow_cost", 1.5, lo=0.0)
    share_model = p.text("share_model", "zipf", {"zipf", "winner_take_all", "uniform"})
    population = p.integer("population", 10_000, lo=2, hi=2**53)  # exact as a float
    top_count = p.integer("top_count", 16, lo=1)
    top_share = p.number("top_share", 0.9, lo=0.0, hi=1.0, exclusive=True)
    udce_cost = p.number("udce_cost", 0.0, lo=0.0)
    p.reject_unknown()
    matrix = games.udce_vs_plfc_game(miner_count, pow_cost, reward,
                                     share_model=share_model, population=population,
                                     top_count=top_count, top_share=top_share,
                                     udce_cost=udce_cost)
    result = games.idsds(matrix)
    rows = [{"player": i, "surviving": "|".join(result.surviving[i])}
            for i in range(miner_count)]
    return ScenarioResult(
        columns=["player", "surviving"], rows=rows,
        summary={"unique_survivor": list(result.unique_survivor) if result.unique_survivor
                 else None,
                 "eliminations": len(result.trace),
                 "dominant_equilibrium": result.is_dominant_equilibrium,
                 "nash_verified": result.nash_verified})


def _scenario_econ_ess(p: _Params, seed: int) -> ScenarioResult:
    u_aa = p.number("u_aa", 3.0, None)
    u_ab = p.number("u_ab", 0.0, None)
    u_ba = p.number("u_ba", 2.0, None)
    u_bb = p.number("u_bb", 1.0, None)
    candidate = p.text("candidate", "A", {"A", "B"})
    p.reject_unknown()
    payoffs = {("A", "A"): u_aa, ("A", "B"): u_ab, ("B", "A"): u_ba, ("B", "B"): u_bb}
    verdict = games.is_ess(payoffs, ("A", "B"), candidate)
    rows = [{"candidate": candidate, "is_ess": verdict}]
    return ScenarioResult(columns=["candidate", "is_ess"], rows=rows,
                          summary={"is_ess": verdict})


def _scenario_econ_network(p: _Params, seed: int) -> ScenarioResult:
    m_a = p.number("m_a", 2.0, lo=0.0)
    m_b = p.number("m_b", 1.0, lo=0.0)
    c_a = p.number("c_a", 2.0, lo=0.0)
    c_b = p.number("c_b", 1.0, lo=0.0)
    lam = p.number("lam", 0.5, lo=0.0, hi=1.0, exclusive=True)
    alpha = p.number("alpha", 1.5, lo=0.0, exclusive=True)
    beta = p.number("beta", 1.5, lo=0.0, exclusive=True)
    steps = p.integer("steps", 2_000, lo=0, hi=10_000_000)
    stride = p.integer("stride", max(1, steps // 100), lo=1)
    mode = p.text("expectation_mode", "current", set(network.EXPECTATION_MODES))
    p.reject_unknown()
    state = network.NetworkState(m_a=m_a, m_b=m_b, c_a=c_a, c_b=c_b, lam=lam,
                                 alpha=alpha, beta=beta, expectation_mode=mode)
    path = network.simulate_network_growth(state, steps, seed, stride)
    rows = []
    for t, (m_a_t, m_b_t, c_a_t, c_b_t) in zip(range(0, steps + 1, stride), path):
        share = network.share_of(m_a_t, m_b_t) if m_a_t + m_b_t else math.nan  # no merchants yet
        rows.append({"t": t, "m_a": m_a_t, "m_b": m_b_t, "c_a": c_a_t, "c_b": c_b_t,
                     "merchant_share_a": share})
    return ScenarioResult(
        columns=["t", "m_a", "m_b", "c_a", "c_b", "merchant_share_a"], rows=rows,
        summary={"alpha_beta_product": alpha * beta,
                 "final_share_a": rows[-1]["merchant_share_a"]})


def _scenario_econ_circulation(p: _Params, seed: int) -> ScenarioResult:
    beta = p.number("beta_disc", 0.9, lo=0.0, hi=1.0, exclusive=True)
    eta = p.number("eta", 0.5, lo=0.0, hi=1.0, exclusive=True)
    alpha = p.number("alpha_eff", 0.5, lo=0.0)
    deltas = p.number_list("deltas", [round(0.1 * i, 1) for i in range(1, 10)])
    p.reject_unknown()
    rows = []
    for i, delta in enumerate(deltas):
        if not 0.0 < delta <= 1.0:
            _fail(f"params.deltas[{i}]", "must lie in (0, 1]")
        params = circ.CirculationParams(beta_disc=beta, eta=eta, alpha_eff=alpha, delta=delta)
        out = circ.stationary_dm_output(params)
        rows.append({"delta": delta, "q_star": out["q_star"],
                     "q_hat_full": out["q_hat_full"], "q_hat_delta": out["q_hat_delta"],
                     "pareto_dominates": out["pareto_dominates"]})
    return ScenarioResult(
        columns=["delta", "q_star", "q_hat_full", "q_hat_delta", "pareto_dominates"],
        rows=rows,
        summary={"beta_disc": beta, "eta": eta, "alpha_eff": alpha})


SCENARIOS = {
    "identity.gen": _scenario_identity_gen,
    "identity.validate": _scenario_identity_validate,
    "register.build": _scenario_register_build,
    "register.verify": _scenario_register_verify,
    "registry.register": _scenario_registry_register,
    "registry.offline": _scenario_registry_offline,
    "registry.dump": _scenario_registry_dump,
    "sim.epoch": _scenario_sim_epoch,
    "econ.congestion": _scenario_econ_congestion,
    "econ.poa": _scenario_econ_poa,
    "econ.dominance": _scenario_econ_dominance,
    "econ.ess": _scenario_econ_ess,
    "econ.network": _scenario_econ_network,
    "econ.circulation": _scenario_econ_circulation,
}


# ---------------------------------------------------------------------------
# Serialization and the run entry point
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    if value is None:
        return ""
    return str(value)


def render_csv(result: ScenarioResult) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_cell(row.get(c)) for c in result.columns])
    return buf.getvalue().encode("utf-8")


def _jsonable(value):
    if isinstance(value, float):
        return float(format(value, FLOAT_FORMAT))
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_json(scenario: str, seed: int, result: ScenarioResult) -> bytes:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "seed": seed,
        "columns": result.columns,
        "rows": [_jsonable(row) for row in result.rows],
        "summary": _jsonable(result.summary),
    }
    return (canonical_json(doc) + "\n").encode("utf-8")


def run(config: dict, scenario: str, seed: int, out_path=None,
        output_format: str | None = None) -> tuple[RunManifest, bytes]:
    """Validate, execute, serialize, optionally write; returns the manifest
    and the serialized output bytes. A config the scenario's models refuse
    (a DomainError, or a ValueError from a model constructor) is a
    ConfigInvalid under "params"."""
    check_seed(seed, "seed")
    if scenario not in SCENARIOS:
        _fail("scenario", f"unknown scenario {scenario!r}; "
              f"known: {sorted(SCENARIOS)}")
    declared = config.get("scenario")
    if declared is not None and declared != scenario:
        _fail("scenario", f"config names {declared!r} but {scenario!r} was invoked")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported schema version {version!r}")
    known_top = {"schema_version", "scenario", "seed", "params", "output"}
    for key in sorted(set(config) - known_top):
        _fail(key, "unknown config key")
    output_section = config.get("output", {})
    if not isinstance(output_section, dict):
        _fail("output", "must be a JSON object")
    for key in sorted(set(output_section) - {"format"}):
        _fail(f"output.{key}", "unknown output key")

    params = _Params(config.get("params", {}))
    try:
        result = SCENARIOS[scenario](params, seed)
    except (DomainError, ValueError) as exc:  # a config the model cannot take
        _fail("params", str(exc))

    fmt = output_format or output_section.get("format") or result.default_format
    if fmt not in ("csv", "json"):
        _fail("output.format", "must be 'csv' or 'json'")
    payload = render_csv(result) if fmt == "csv" else render_json(scenario, seed, result)

    outputs = {}
    name = os.path.basename(str(out_path)) if out_path else f"{scenario}.{fmt}"
    outputs[name] = hashlib.sha256(payload).hexdigest()
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise IoFailure(f"cannot write {out_path}: {exc}") from exc

    config_hash = hashlib.sha256(
        canonical_json({k: config[k] for k in sorted(set(config) & known_top)})
        .encode("utf-8")).hexdigest()
    manifest = RunManifest(scenario=scenario, config_hash=config_hash, seed=seed,
                           artifact_version=__version__, outputs=outputs)
    return manifest, payload
