"""Command-line interface: exit codes, seed resolution, output plumbing,
determinism, and a smoke run of every scenario."""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from zkpoi import __version__, cli
from zkpoi.econ import congestion as cong
from zkpoi.runner import FLOAT_FORMAT


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def config_file(tmp_path):
    def write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


class TestArgparseSurface:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"zkpoi {__version__}"

    def test_unknown_group_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["astrology", "chart"])
        assert exc.value.code == 2

    def test_missing_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["econ"])
        assert exc.value.code == 2

    def test_console_script_is_installed(self, child_env):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["zkpoi"]
        module, _, attr = target.partition(":")
        # the same call the wrapper generated by pip makes
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        commands = [[sys.executable, "-c", wrapper, "--version"]]
        installed = shutil.which("zkpoi")
        if installed:
            commands.append([installed, "--version"])
        for command in commands:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  env=child_env())
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == f"zkpoi {__version__}"


# Runs `zkpoi.cli.main` on each argv list given as JSON, in one fresh
# interpreter, and reports the exit codes and the modules loaded.
CHILD_RUNS = """
import contextlib, io, json, sys
import zkpoi.cli

def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)

at_import = loaded("zkpoi")
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(zkpoi.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({"codes": codes, "zkpoi_at_import": at_import, "zkpoi": loaded("zkpoi"),
                  "cryptography": loaded("cryptography")}))
"""


def run_in_child(child_env, argvs) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD_RUNS, json.dumps(argvs)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def smoke_argv(group, verb, doc, tmp_path) -> list[str]:
    argv = [group, verb, "--seed", "1"]
    if doc:
        path = tmp_path / f"{group}.{verb}.json"
        path.write_text(json.dumps(doc))
        argv += ["--config", str(path)]
    return argv


class TestColdStart:
    def test_version_loads_no_cryptography(self, child_env):
        ran = run_in_child(child_env, [["--version"]])
        assert ran["codes"] == [0]
        assert ran["cryptography"] == []

    @pytest.mark.parametrize("verb", ["congestion", "poa", "dominance", "ess", "network",
                                      "circulation"])
    def test_econ_scenario_loads_no_cryptography(self, child_env, tmp_path, verb):
        (doc,) = [d for g, v, d in SMOKE_RUNS if (g, v) == ("econ", verb)]
        ran = run_in_child(child_env, [smoke_argv("econ", verb, doc, tmp_path)])
        assert ran["codes"] == [0]
        assert ran["cryptography"] == []

    def test_scenarios_load_no_module_the_cli_import_did_not_register(self, child_env,
                                                                      tmp_path):
        """Run-time instruments patch the modules in sys.modules after the CLI
        is imported; every module a scenario runs must already be there."""
        ran = run_in_child(child_env, [smoke_argv(g, v, d, tmp_path)
                                       for g, v, d in SMOKE_RUNS])
        assert ran["codes"] == [0] * len(SMOKE_RUNS)
        assert ran["zkpoi"] == ran["zkpoi_at_import"]
        assert ran["cryptography"] != []  # the identity scenarios did run

    def test_registered_module_imports_by_its_dotted_name(self, child_env):
        probe = ("import zkpoi.cli; import zkpoi.attestation, zkpoi.econ.games; "
                 "print(zkpoi.attestation.seal.__name__, zkpoi.econ.games.is_ess.__name__)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["seal", "is_ess"]

    def test_cli_import_loads_no_scipy(self, child_env):
        probe = ("import sys, zkpoi.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_numpy(self, child_env):
        probe = ("import sys, zkpoi.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("module, prefix", [
        ("zkpoi.registry", "zkpoi.econ"),
        ("zkpoi", "zkpoi."),
        ("zkpoi.identity", "cryptography.hazmat.primitives.ciphers"),
    ])
    def test_import_loads_only_what_it_uses(self, child_env, module, prefix):
        probe = (f"import sys, {module}; "
                 f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSuccessPath:
    def test_csv_payload_on_stdout_manifest_on_stderr(self, capsys):
        code, out, err = run_cli(["econ", "ess"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows == [{"candidate": "A", "is_ess": "true"}]
        manifest = json.loads(err)
        assert manifest["scenario"] == "econ.ess"
        assert manifest["seed"] == 0
        assert manifest["artifact_version"] == __version__
        assert set(manifest["outputs"]) == {"econ.ess.csv"}

    @pytest.mark.parametrize("u_aa, u_ab, u_ba, u_bb", [
        (1, 5, 0.9999999999999999, 5),  # B trails A by one ulp against A
        (1, 1e300, 0.5, 1e300),  # A's lead of 0.5 rounds away in any float mix
    ], ids=["one-ulp", "1e300"])
    def test_strict_nash_is_an_ess_at_float_edges(self, capsys, config_file,
                                                  u_aa, u_ab, u_ba, u_bb):
        params = {"u_aa": u_aa, "u_ab": u_ab, "u_ba": u_ba, "u_bb": u_bb}
        code, out, _ = run_cli(["econ", "ess", "--config", config_file({"params": params})],
                               capsys)
        assert code == 0
        assert out == "candidate,is_ess\nA,true\n"

    def test_json_format_flag(self, capsys):
        code, out, _ = run_cli(["econ", "ess", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "econ.ess"
        assert doc["columns"] == ["candidate", "is_ess"]
        assert doc["rows"][0]["is_ess"] is True
        assert doc["summary"]["is_ess"] is True

    def test_dump_defaults_to_json(self, capsys, config_file):
        cfg = config_file({"params": {"count": 2, "kdf_iterations": 4}})
        code, out, _ = run_cli(["registry", "dump", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "registry.dump"
        assert doc["summary"]["identity_tags"] == 2

    def test_worked_anarchy_ratio_through_the_cli(self, capsys, config_file):
        cfg = config_file({"params": {"gamma": 0.1}})
        code, out, _ = run_cli(["econ", "poa", "--config", cfg], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["ratio"]) == pytest.approx(20.0, abs=1e-9)

    def test_anarchy_at_small_rates_counts_only_equilibria(self, capsys, config_file):
        cfg = config_file({"params": {"puzzles": 2, "miners": 3, "mu": 1e-13,
                                      "gamma": 5e-14}})
        code, out, _ = run_cli(["econ", "poa", "--config", cfg], capsys)
        assert code == 0
        assert next(csv.DictReader(io.StringIO(out)))["nash_count"] == "2"

    @pytest.mark.parametrize("puzzles", [1, 2, 3])
    @pytest.mark.parametrize("miners", range(7))
    def test_anarchy_row_is_the_library_result(self, capsys, config_file, puzzles, miners):
        for gamma in (0.0, 0.1, 2.0):
            for zkpoi_cost in (0.01, 1.0):
                params = {"puzzles": puzzles, "miners": miners, "gamma": gamma,
                          "zkpoi_cost": zkpoi_cost}
                code, out, _ = run_cli(["econ", "poa", "--config",
                                        config_file({"params": params})], capsys)
                assert code == 0
                price = cong.price_of_crypto_anarchy(
                    cong.CongestionInstance(k=puzzles, n_miners=miners, mu=1.0, gamma=gamma),
                    zkpoi_cost)
                row = next(csv.DictReader(io.StringIO(out)))
                assert row == {"nash_count": str(price.nash_count),
                               "worst_nash_cost": format(price.worst_nash_cost, FLOAT_FORMAT),
                               "zkpoi_cost": format(zkpoi_cost, FLOAT_FORMAT),
                               "ratio": format(price.ratio, FLOAT_FORMAT)}, params

    @pytest.mark.parametrize("alpha_eff", [1024.0, 1e7])
    def test_circulation_answers_a_large_effort_convexity(self, capsys, config_file,
                                                          alpha_eff):
        cfg = config_file({"params": {"alpha_eff": alpha_eff}})
        code, out, _ = run_cli(["econ", "circulation", "--config", cfg], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        for row in rows:
            delta = float(row["delta"])
            full, partial = float(row["q_hat_full"]), float(row["q_hat_delta"])
            assert partial < full < 1.0
            assert (row["q_hat_full"], row["q_hat_delta"]) == (
                format(oracles.dm_output_exact(0.9, 0.5, alpha_eff, 1.0), FLOAT_FORMAT),
                format(oracles.dm_output_exact(0.9, 0.5, alpha_eff, delta), FLOAT_FORMAT))

    def test_out_writes_file_and_prints_manifest(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, err = run_cli(
            ["econ", "congestion", "--out", str(target)], capsys)
        assert code == 0
        assert err == ""
        manifest = json.loads(out)
        payload = target.read_bytes()
        import hashlib
        assert manifest["outputs"] == {
            "run.csv": hashlib.sha256(payload).hexdigest()}
        assert payload.startswith(b"puzzle,load,utility\n")

    # About 2.7e16 and 4.1e15 allocations: answered without enumerating them.
    @pytest.mark.parametrize("verb", ["congestion", "poa"])
    @pytest.mark.parametrize("puzzles, miners", [(16, 64), (16, 56)])
    def test_the_largest_congestion_instances_are_answered(
            self, capsys, config_file, verb, puzzles, miners):
        cfg = config_file({"params": {"puzzles": puzzles, "miners": miners}})
        code, out, _ = run_cli(["econ", verb, "--format", "json", "--config", cfg], capsys)
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-finite number {token} in the payload")

        doc = json.loads(out, parse_constant=refuse)
        assert len(doc["rows"]) == (puzzles if verb == "congestion" else 1)


class TestSeedResolution:
    def test_default_seed_is_zero(self, capsys):
        _, _, err = run_cli(["econ", "ess"], capsys)
        assert json.loads(err)["seed"] == 0

    def test_config_seed(self, capsys, config_file):
        cfg = config_file({"seed": 9})
        _, _, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert json.loads(err)["seed"] == 9

    def test_flag_overrides_config(self, capsys, config_file):
        cfg = config_file({"seed": 9})
        _, _, err = run_cli(["econ", "ess", "--config", cfg, "--seed", "5"], capsys)
        assert json.loads(err)["seed"] == 5

    def test_no_environment_variable_sets_the_seed(self, capsys, config_file, monkeypatch):
        monkeypatch.setenv("ZKPOI_SEED", "123")
        _, _, err = run_cli(["econ", "ess", "--config", config_file({"seed": 9})], capsys)
        assert json.loads(err)["seed"] == 9
        _, _, err = run_cli(["econ", "ess"], capsys)
        assert json.loads(err)["seed"] == 0

    def test_oversized_config_seed_rejected(self, capsys, config_file):
        cfg = config_file({"seed": 2**64})
        code, _, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 2
        assert "seed: must fit in 64 bits" in err

    @pytest.mark.parametrize("value", [-1, 2**64])
    @pytest.mark.parametrize("source", ["--seed", "seed"])
    def test_out_of_range_seed_is_a_config_error(self, capsys, config_file, source, value):
        doc = {"params": {"count": 1, "kdf_iterations": 4}}
        argv = ["registry", "register"]
        if source == "--seed":
            argv += ["--seed", str(value)]
        else:
            doc["seed"] = value
        code, out, err = run_cli(argv + ["--config", config_file(doc)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {source}: must fit in 64 bits")

    def test_largest_seed_is_accepted(self, capsys):
        code, _, err = run_cli(["sim", "epoch", "--seed", str(2**64 - 1)], capsys)
        assert code == 0
        assert json.loads(err)["seed"] == 2**64 - 1

    def test_runner_checks_the_seed_too(self):
        from zkpoi import runner
        from zkpoi.errors import ConfigInvalid
        with pytest.raises(ConfigInvalid, match="seed: must fit in 64 bits"):
            runner.run({}, "econ.ess", -1)


class TestConfigErrors:
    def test_unknown_parameter_names_the_field(self, capsys, config_file):
        cfg = config_file({"params": {"bogus": 1}})
        code, out, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == "config error: params.bogus: unknown parameter"

    def test_wrong_type_names_the_field(self, capsys, config_file):
        cfg = config_file({"params": {"u_aa": "three"}})
        code, _, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 2
        assert "params.u_aa: must be a number" in err

    @pytest.mark.parametrize("params,message", [
        # top_share below what one of two holders always owns: no exponent fits
        ({"population": 2, "top_count": 1, "top_share": 0.4}, "no sign change"),
        ({"population": 16, "top_count": 16}, "top_count < population"),
    ])
    def test_uncalibratable_dominance_is_a_config_error(self, capsys, config_file,
                                                        params, message):
        cfg = config_file({"params": params})
        code, out, err = run_cli(["econ", "dominance", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: params: ")
        assert message in err

    def test_range_violation_names_the_bound(self, capsys, config_file):
        cfg = config_file({"params": {"miner_count": 1}})
        code, _, err = run_cli(["econ", "dominance", "--config", cfg], capsys)
        assert code == 2
        assert "params.miner_count: must be >= 2" in err

    @pytest.mark.parametrize("verb,key", [
        ("network", "lam"), ("circulation", "beta_disc"), ("circulation", "eta"),
        ("dominance", "top_share"),
    ])
    def test_open_upper_bound_excludes_one(self, capsys, config_file, verb, key):
        cfg = config_file({"params": {key: 1}})
        code, out, err = run_cli(["econ", verb, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config error: params.{key}: must be < 1.0"

    @pytest.mark.parametrize("entry,message", [
        ("x", "must be a number"),
        (0.0, "must lie in (0, 1]"),
        (-0.1, "must lie in (0, 1]"),
        (1.5, "must lie in (0, 1]"),
    ], ids=["text", "zero", "negative", "above-one"])
    def test_bad_list_entry_is_indexed(self, capsys, config_file, entry, message):
        cfg = config_file({"params": {"deltas": [0.5, entry]}})
        code, out, err = run_cli(["econ", "circulation", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config error: params.deltas[1]: {message}"

    @pytest.mark.parametrize("group,verb,params,key", [
        ("econ", "circulation", {"beta_disc": float("nan")}, "beta_disc"),
        ("econ", "network", {"lam": float("nan")}, "lam"),
        ("econ", "ess", {"u_aa": float("nan")}, "u_aa"),
        ("sim", "epoch", {"tx_reward": float("nan")}, "tx_reward"),
        ("econ", "congestion", {"deadline": float("nan")}, "deadline"),
        ("econ", "circulation", {"deltas": [float("nan")]}, "deltas[0]"),
        ("econ", "circulation", {"deltas": [0.5, float("nan")]}, "deltas[1]"),
    ], ids=["circulation", "network", "ess", "epoch", "congestion", "deltas0", "deltas1"])
    def test_nan_is_a_config_error(self, capsys, config_file, group, verb, params, key):
        cfg = config_file({"params": params})
        code, out, err = run_cli([group, verb, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config error: params.{key}: must be a number, not NaN"

    @pytest.mark.parametrize("group,verb,params,key", [
        ("econ", "ess", {"u_aa": 10**400}, "u_aa"),
        ("econ", "ess", {"u_aa": -10**400}, "u_aa"),
        ("sim", "epoch", {"penalty": 10**400}, "penalty"),
        ("econ", "circulation", {"deltas": [10**400]}, "deltas[0]"),
        ("econ", "circulation", {"deltas": [0.5, -10**400]}, "deltas[1]"),
    ], ids=["ess", "ess-negative", "epoch", "deltas0", "deltas1"])
    def test_integer_beyond_float_range_is_a_config_error(self, capsys, config_file,
                                                           group, verb, params, key):
        cfg = config_file({"params": params})
        code, out, err = run_cli([group, verb, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config error: params.{key}: must fit in a 64-bit float"

    def test_largest_float_integer_is_still_accepted(self, capsys, config_file):
        cfg = config_file({"params": {"u_aa": int(1.7976931348623157e308)}})
        code, out, _ = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 0
        assert out

    def test_dominance_population_is_capped(self, capsys, config_file):
        cfg = config_file({"params": {"population": 2**53 + 1}})
        code, out, err = run_cli(["econ", "dominance", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == "config error: params.population: must be <= 9007199254740992"
        cfg = config_file({"params": {"population": 2**53}})
        code, out, err = run_cli(["econ", "dominance", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(err)["scenario"] == "econ.dominance"

    @pytest.mark.parametrize("steps", [0, 1, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_network_without_merchants_is_refused_at_every_step_count(
            self, capsys, config_file, steps, fmt):
        cfg = config_file({"params": {"m_a": 0, "m_b": 0, "steps": steps}})
        code, out, err = run_cli(["econ", "network", "--format", fmt, "--config", cfg],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == ("config error: params: both networks have zero "
                               "merchants; probabilities undefined")

    @pytest.mark.parametrize("steps", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["current", "expected"])
    @pytest.mark.parametrize("side", ["customers", "merchants"])
    def test_network_with_an_empty_side_is_refused_in_both_modes(
            self, capsys, config_file, side, mode, steps):
        empty = {"c_a": 0, "c_b": 0} if side == "customers" else {"m_a": 0, "m_b": 0}
        cfg = config_file({"params": {**empty, "steps": steps, "expectation_mode": mode}})
        code, out, err = run_cli(["econ", "network", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == (f"config error: params: both networks have zero "
                               f"{side}; probabilities undefined")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_overflowed_summary_is_refused(self, capsys, config_file, fmt):
        cfg = config_file({"params": {"beta": 1e308, "alpha": 10, "steps": 0}})
        code, out, err = run_cli(["econ", "network", "--format", fmt, "--config", cfg],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == "config error: params: alpha_beta_product is not finite"

    @pytest.mark.parametrize("params", [{"reward": 1e309},
                                        {"reward": 1e309, "pow_cost": 1e309}],
                             ids=["infinite", "undefined"])
    def test_dominance_refuses_a_non_finite_payoff(self, capsys, config_file, params):
        # an infinite reward gives both regimes an infinite payoff, and with an
        # infinite cost the concentrated regime's is NaN: neither is a tie
        code, out, err = run_cli(["econ", "dominance", "--config",
                                  config_file({"params": params})], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == "config error: params: payoffs must be finite"

    def test_register_build_refuses_an_absent_mode_card(self, capsys, config_file):
        params = {"kind": "card", "aa_mode": "absent", "count": 2, "kdf_iterations": 4}
        code, out, err = run_cli(["register", "build", "--seed", "3", "--config",
                                  config_file({"params": params})], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == ("config error: params.aa_mode: a card can sign, so it "
                               "requires authentication mode 'full'")
        params["kind"] = "epassport"
        code, out, _ = run_cli(["register", "build", "--seed", "3", "--config",
                                config_file({"params": params})], capsys)
        assert code == 0
        assert out.count(",absent,") == 2

    @pytest.mark.parametrize("group,verb,params,key", [
        ("econ", "network", {"m_b": float("inf"), "steps": 3}, "m_b"),
        ("sim", "epoch", {"block_reward": float("inf")}, "block_reward"),
        ("sim", "epoch", {"tx_reward": float("inf")}, "tx_reward"),
        ("sim", "epoch", {"fixed_cost": float("inf")}, "fixed_cost"),
        ("sim", "epoch", {"per_tx_cost": float("inf")}, "per_tx_cost"),
        ("sim", "epoch", {"penalty": float("inf")}, "penalty"),
        ("econ", "circulation", {"alpha_eff": float("inf")}, "alpha_eff"),
    ], ids=["network", "epoch-block_reward", "epoch-tx_reward", "epoch-fixed_cost",
            "epoch-per_tx_cost", "epoch-penalty", "circulation"])
    def test_an_infinite_model_parameter_is_a_config_error(self, capsys, config_file,
                                                           group, verb, params, key):
        cfg = config_file({"params": params})
        code, out, err = run_cli([group, verb, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config error: params: {key} must be finite"

    @pytest.mark.parametrize("verb, key", [("congestion", "mu"), ("poa", "gamma"),
                                           ("congestion", "gamma"), ("poa", "mu")])
    def test_congestion_refuses_an_infinite_rate_or_cost(self, capsys, config_file,
                                                         verb, key):
        cfg = config_file({"params": {key: float("inf")}})
        code, out, err = run_cli(["econ", verb, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config error: params: {key} must be finite"

    @pytest.mark.parametrize("group, verb, params, message", [
        ("econ", "poa", {"zkpoi_cost": 1e-320, "gamma": 0.1},
         "the worst Nash cost over zkpoi_cost overflows a 64-bit float"),
        ("sim", "epoch", {"tx_reward": 1e308, "miners": 2, "shards": 1},
         "the cooperator payoff overflows a 64-bit float"),
    ], ids=["poa-ratio", "epoch-payoff"])
    def test_an_overflowed_payload_is_refused(self, capsys, config_file, group, verb,
                                              params, message):
        cfg = config_file({"params": params})
        code, out, err = run_cli([group, verb, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config error: params: {message}"

    def test_infinity_is_not_caught_as_nan(self, capsys, config_file):
        cfg = config_file({"params": {"u_aa": float("inf")}})
        code, out, _ = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 0
        assert out

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["econ", "ess", "--config", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert err.startswith("config error: config: cannot read")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["econ", "ess", "--config", str(path)], capsys)
        assert code == 2
        assert "config: not valid JSON" in err

    def test_non_object_config(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(["econ", "ess", "--config", str(path)], capsys)
        assert code == 2
        assert "top level must be a JSON object" in err

    def test_scenario_mismatch(self, capsys, config_file):
        cfg = config_file({"scenario": "econ.poa"})
        code, _, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 2
        assert "scenario: config names 'econ.poa'" in err

    def test_unknown_top_level_key(self, capsys, config_file):
        cfg = config_file({"paramz": {}})
        code, _, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 2
        assert "paramz: unknown config key" in err

    def test_unsupported_schema_version(self, capsys, config_file):
        cfg = config_file({"schema_version": 99})
        code, _, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 2
        assert "schema_version" in err

    def test_bad_output_format_in_config(self, capsys, config_file):
        cfg = config_file({"output": {"format": "xml"}})
        code, _, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 2
        assert "output.format: must be 'csv' or 'json'" in err

    def test_unknown_output_key(self, capsys, config_file):
        cfg = config_file({"output": {"compression": "gzip"}})
        code, _, err = run_cli(["econ", "ess", "--config", cfg], capsys)
        assert code == 2
        assert "output.compression: unknown output key" in err


class TestRuntimeErrors:
    """Failures that arise while a scenario runs. A model refusing its config
    exits 2, like any config error; only I/O and protocol failures exit 1."""

    def refused(self, capsys, config_file, verb, params):
        code, out, err = run_cli(["econ", verb, "--config", config_file({"params": params})],
                                 capsys)
        assert code == 2
        assert out == ""
        return err.strip()

    def test_circulation_unorderable_outputs_exit_2(self, capsys, config_file):
        # beta ** (1 / (eta + 1e20)) rounds to 1, so q_hat(1) < q* cannot hold
        params = {"alpha_eff": 1e20}
        assert self.refused(capsys, config_file, "circulation", params) == (
            "config error: params: stationary outputs violate q_hat(delta) <= q_hat(1) < q*")

    def test_network_weight_overflow_exits_2(self, capsys, config_file):
        params = {"m_a": 1e308, "steps": 50}
        assert self.refused(capsys, config_file, "network", params) == (
            "config error: params: merchants count to the power 1.5 overflows")

    def test_domain_failure_exits_2(self, capsys, config_file):
        # both networks start with zero customers: join odds are undefined
        params = {"c_a": 0.0, "c_b": 0.0, "steps": 10}
        assert self.refused(capsys, config_file, "network", params) == (
            "config error: params: both networks have zero customers; "
            "probabilities undefined")

    def test_unwritable_out_path_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "run.csv"
        code, _, err = run_cli(["econ", "ess", "--out", str(target)], capsys)
        assert code == 1
        assert err.startswith("error: IoFailure:")


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        argv = ["sim", "epoch", "--seed", "7"]
        _, out_a, err_a = run_cli(argv, capsys)
        _, out_b, err_b = run_cli(argv, capsys)
        assert out_a == out_b
        assert err_a == err_b

    def test_different_seed_different_bytes(self, capsys):
        _, out_a, _ = run_cli(["sim", "epoch", "--seed", "7"], capsys)
        _, out_b, _ = run_cli(["sim", "epoch", "--seed", "8"], capsys)
        assert out_a != out_b

    def test_written_files_are_identical(self, capsys, tmp_path, config_file):
        cfg = config_file({"params": {"count": 2, "kdf_iterations": 4}})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["registry", "dump", "--config", cfg, "--seed", "3",
                 "--out", str(a)], capsys)
        run_cli(["registry", "dump", "--config", cfg, "--seed", "3",
                 "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


SMOKE_RUNS = [
    ("identity", "gen", {"params": {"count": 2}}),
    ("identity", "validate", {"params": {"count": 2}}),
    ("register", "build", {"params": {"count": 2, "kdf_iterations": 4}}),
    ("register", "verify", {"params": {"count": 2, "kdf_iterations": 4}}),
    ("registry", "register", {"params": {"count": 2, "kdf_iterations": 4}}),
    ("registry", "offline",
     {"params": {"count": 2, "kdf_iterations": 4, "offline_count": 1}}),
    ("registry", "dump", {"params": {"count": 2, "kdf_iterations": 4}}),
    ("sim", "epoch", {}),
    ("econ", "congestion", {}),
    ("econ", "poa", {"params": {"gamma": 0.1}}),
    ("econ", "dominance", {}),
    ("econ", "ess", {}),
    ("econ", "network", {"params": {"steps": 200}}),
    ("econ", "circulation", {}),
]


class TestScenarioSmoke:
    @pytest.mark.parametrize("group,verb,doc", SMOKE_RUNS,
                             ids=[f"{g}.{v}" for g, v, _ in SMOKE_RUNS])
    def test_scenario_runs_clean(self, group, verb, doc, capsys, tmp_path):
        code, out, err = run_cli(smoke_argv(group, verb, doc, tmp_path), capsys)
        assert code == 0
        assert out
        manifest = json.loads(err)
        assert manifest["scenario"] == f"{group}.{verb}"

    def test_every_scenario_is_smoke_tested(self):
        from zkpoi import runner
        assert {f"{g}.{v}" for g, v, _ in SMOKE_RUNS} == set(runner.SCENARIOS)
