"""Tests of the benchmark's own checks and of each workload at a tiny size.

    PYTHONPATH=src python3 -m pytest -q bench

Each independent recomputation in `checks` must agree with the library on
small inputs and must catch one planted wrong value. Each workload runs one
round at a tiny size, untraced and traced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import cli_scenarios
import reference
import workloads
from tracer import SPANS, Tracer
from zkpoi import accumulator, credential, identity, registry, runner, shardgame

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


# -- independent recomputations ---------------------------------------------------


def test_pseudonym_digest_matches_library_and_catches_a_planted_value():
    store, hierarchy = identity.generate_ca_hierarchy(1, 1, seed=11)
    card = identity.issue_identity_cert(hierarchy, hierarchy.issuers[0], "Tester",
                                        "UID-TEST-1", workloads.WINDOW)
    bundle, _ = credential.build_registration_bundle(
        card, "pp", "net-x", store, workloads.NOW, kdf_iterations=2)
    secret = bundle.evidence.secret
    assert checks.pseudonym_digest(secret, "net-x", "UID-TEST-1") == bundle.pseudonym.digest
    assert checks.pseudonym_digest(secret, "net-x", "UID-TEST-2") != bundle.pseudonym.digest
    planted = bytes([bundle.pseudonym.digest[0] ^ 1]) + bundle.pseudonym.digest[1:]
    assert checks.pseudonym_digest(secret, "net-x", "UID-TEST-1") != planted


@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 8, 13])
def test_accumulator_root_matches_library_and_catches_a_planted_leaf(size):
    acc = accumulator.accumulator_generate(77)
    domain = checks.accumulator_domain(77)
    assert acc.domain_tag == domain
    elements = [checks.encode_attributes(("card", f"holder-{i}")) for i in range(size)]
    for element in elements:
        acc.admit(element)
    leaves = [checks.accumulator_leaf(domain, e) for e in elements]
    assert checks.accumulator_root(domain, leaves) == acc.root
    planted = leaves[:-1] + [checks.accumulator_leaf(domain, b"planted")] if leaves else [
        checks.accumulator_leaf(domain, b"planted")]
    assert checks.accumulator_root(domain, planted) != acc.root


def test_attribute_encoding_matches_library():
    attrs = ("epassport", "HOLDER1", "900101", "N00")
    assert checks.encode_attributes(attrs) == registry.encode_attributes(attrs)
    assert checks.encode_attributes(attrs[:3]) != registry.encode_attributes(attrs)


@pytest.mark.parametrize("l_j,y,x", [(1, 0, 0), (5, 20, 20), (3, 7, 9), (16, 16, 17)])
def test_cooperator_payoff_matches_library_and_catches_a_planted_value(l_j, y, x):
    params = workloads.LARGE_PARAMS
    got = shardgame.payoff_cooperate(params, l_j, y, x)
    expected = checks.cooperator_payoff(params.block_reward, params.k, l_j, params.tx_reward,
                                        y, params.fixed_cost, x, params.per_tx_cost)
    assert checks.payoff_matches(got, expected)
    assert not checks.payoff_matches(got + 1e-6, expected)


def test_manifest_hash_matches_library_and_catches_a_planted_payload():
    manifest, payload = runner.run({}, "econ.ess", 7)
    assert checks.manifest_hash_ok(manifest.to_json(), payload)
    assert not checks.manifest_hash_ok(manifest.to_json(), payload + b" ")


def test_cli_output_checks_catch_planted_values():
    manifest, payload = runner.run({"params": {"gamma": 0.1}}, "econ.poa", 7)
    stderr = manifest.to_json().encode()
    assert cli_scenarios.check_output("econ", "poa", 0, payload, stderr) is None
    planted = payload.replace(b",20\n", b",20.0001\n")
    assert planted != payload
    manifest2 = dataclasses.replace(
        manifest, outputs={"econ.poa.csv": hashlib.sha256(planted).hexdigest()})
    assert "price of anarchy" in cli_scenarios.check_output(
        "econ", "poa", 0, planted, manifest2.to_json().encode())
    assert "exit code 2" in cli_scenarios.check_output("econ", "poa", 2, b"", b"bad config")


def test_network_population_check_catches_a_planted_count(monkeypatch):
    monkeypatch.setattr(cli_scenarios, "NETWORK_STEPS", 300)
    config = {"params": {"steps": 300, **cli_scenarios.NETWORK_START}}
    manifest, payload = runner.run(config, "econ.network", 3)
    stderr = manifest.to_json().encode()
    assert cli_scenarios.check_output("econ", "network", 0, payload, stderr) is None
    lines = payload.decode().splitlines()
    cells = lines[2].split(",")
    cells[1] = str(float(cells[1]) + 1)
    lines[2] = ",".join(cells)
    planted = ("\n".join(lines) + "\n").encode()
    manifest = dataclasses.replace(manifest, outputs={"x": hashlib.sha256(planted).hexdigest()})
    assert "population" in cli_scenarios.check_output(
        "econ", "network", 0, planted, manifest.to_json().encode())


# -- workloads at a tiny size ------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "CARD_IDENTITIES", 20)
    monkeypatch.setattr(workloads, "PASSPORTS", 12)
    monkeypatch.setattr(workloads, "ROOT_CHECK_EVERY", 4)
    monkeypatch.setattr(workloads, "BAR4_EPOCHS", 2)
    monkeypatch.setattr(workloads, "HONEST_PAIRS", 1)


def one_round(name: str, seed: int = 5):
    return workloads.WORKLOADS[name](seed).round()


def test_card_registration_round(tiny):
    rnd = one_round("card_registration")
    assert rnd.problems == []
    failed = [kind for kind, _, bad in rnd.ops if bad]
    # Only the invalid-UTF-8 forgeries fail, until Decoder.take_opt_text
    # stops leaking UnicodeDecodeError.
    assert len(failed) <= workloads.FORGERIES_PER_KIND
    admits = sum(1 for kind, _, _ in rnd.ops if kind == "admit")
    assert admits == 20
    assert len(rnd.ops) == 20 + 20 + 1 + 1 + 7 * workloads.FORGERIES_PER_KIND


def test_card_registration_round_catches_a_wrong_log(tiny, monkeypatch):
    original = registry.Registry._append

    def off_by_one(self, op, pseudonym, pk):
        at = original(self, op, pseudonym, pk)
        self.log[-1]["epoch"] += 1
        return at
    monkeypatch.setattr(registry.Registry, "_append", off_by_one)
    assert any("log" in p for p in one_round("card_registration").problems)


def test_passport_churn_round(tiny):
    rnd = one_round("passport_churn")
    assert rnd.problems == []
    kinds = [kind for kind, _, _ in rnd.ops]
    assert kinds.count("admit") == kinds.count("witness") == 12 + 3
    assert kinds.count("offline") == 3
    assert not any(bad for _, _, bad in rnd.ops)


def test_passport_churn_round_catches_a_wrong_root(tiny, monkeypatch):
    monkeypatch.setattr(accumulator, "_ROOT_TAG", b"acc-rooT")
    assert any("root" in p for p in one_round("passport_churn").problems)


def test_shard_epochs_round(tiny):
    wl = workloads.WORKLOADS["shard_epochs"](5)
    rnd = wl.round()
    assert rnd.problems == [] and wl.final_problems() == []
    assert len(rnd.ops) == 2 + 1 + 2
    assert wl.bar4_caught == wl.bar4_epochs == 2


def test_shard_epochs_round_catches_a_wrong_payoff(tiny, monkeypatch):
    original = shardgame.payoff_cooperate
    monkeypatch.setattr(shardgame, "payoff_cooperate",
                        lambda *args: original(*args) + 0.5)
    assert any("payoff" in p for p in one_round("shard_epochs").problems)


def entry_points() -> dict:
    """Every traced entry point as the library currently binds it."""
    found = {}
    for _, module, qualname in SPANS:
        owner = sys.modules[module]
        for part in qualname.split("."):
            owner = getattr(owner, part)
        found[module, qualname] = dict(owner) if qualname == "SCENARIOS" else owner
    return found


def test_traced_round_counts_and_uninstall(tiny):
    originals = entry_points()
    wl = workloads.WORKLOADS["card_registration"](5)
    tracer = Tracer()
    tracer.install()
    try:
        rnd = wl.round()
    finally:
        tracer.uninstall()
        tracer.end_round()
    assert rnd.problems == []
    snap = tracer.snapshot()
    assert snap["calls"]["credential.build"] == 20 + 20 + 1
    assert snap["calls"]["registry.register"] == 20 + 20 + 1 + 7 * workloads.FORGERIES_PER_KIND
    assert snap["events"]["registry.reject.ReplayedRegProof"] == 1
    assert snap["events"]["credential.verdict.step7"] == workloads.FORGERIES_PER_KIND
    assert all(ns >= 0 for ns in snap["self_ns"].values())
    assert entry_points() == originals
    assert identity.verify_signature is shardgame.verify_signature


def test_cli_pass_at_tiny_size(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_scenarios, "SCENARIOS", (
        ("econ", "ess", {}),
        ("econ", "poa", {"params": {"gamma": 0.1}}),
    ))
    configs = cli_scenarios.write_configs(tmp_path / "cfg")
    walls, problems, dumps, ref_ns = cli_scenarios.run_pass(configs, 3, child_env(), 120.0,
                                                            tmp_path, BENCH_DIR)
    assert problems == [] and len(walls) == 2
    assert len(ref_ns) == 2 * reference.CHUNKS
    spans = json.loads(dumps[1].read_text())
    assert spans["calls"]["econ.congestion"] >= 1
    assert spans["calls"]["runner.scenario"] == 1


# -- the command itself ---------------------------------------------------------------


def test_benchmark_json_lists_what_run_reports():
    sys.path.insert(0, str(BENCH_DIR))
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # passport_churn and shard_epochs run on request only; see the README.
    assert [w["name"] for w in spec["workloads"]] == ["card_registration", "cli_scenarios"]
    assert set(run.WORKLOADS) >= {w["name"] for w in spec["workloads"]}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "shard_epochs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_run_end_to_end_prints_the_result_last():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "shard_epochs",
                           "--seed", "4", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, timeout=170)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
