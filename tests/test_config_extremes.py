"""Config extremes: every scenario parameter set to hostile JSON values.

For each scenario, one parameter at a time is replaced on a light base
config by a JSON extreme (NaN, infinities, 1e308, integers of 400 digits,
negatives, wrong types, empty and nested lists), and one unknown key is
added. The CLI must answer each with an exit code and never let an
exception escape. A model scenario (econ and sim) takes every value, plus
finite edges (0, 2, subnormals, 1e7, 1e20, 1e300), and must answer 0 or 2:
a config its models refuse is a config error. To keep the sweep short, a
document scenario takes every other value of the list, alternating so that
neighbouring parameters cover the rest, and may also answer 1.
"""

from __future__ import annotations

import json

import pytest

from zkpoi import cli, runner

LIGHT_CRYPTO = {"count": 2, "kdf_iterations": 4}
BASES = {
    "identity.gen": {"count": 2},
    "identity.validate": {"count": 2},
    "register.build": LIGHT_CRYPTO,
    "register.verify": LIGHT_CRYPTO,
    "registry.register": LIGHT_CRYPTO,
    "registry.offline": LIGHT_CRYPTO,
    "registry.dump": LIGHT_CRYPTO,
    "sim.epoch": {},
    "econ.congestion": {},
    "econ.poa": {},
    "econ.dominance": {"population": 100},
    "econ.ess": {},
    "econ.network": {"steps": 200},
    "econ.circulation": {},
}
EXTREMES = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 10**400, -10**400,
            -1, "x", [], [[1]], True, None, {}]
MODEL_EXTREMES = [*EXTREMES, 0, 2, 1e-320, 5e-324, 1e7, 1e20, 1e300]


def scenario_keys(scenario: str) -> list[str]:
    """The parameter names a scenario reads, found by running it once."""
    params = runner._Params(dict(BASES[scenario]))
    runner.SCENARIOS[scenario](params, 0)
    return sorted(params.seen)


def test_every_scenario_has_a_base():
    assert set(BASES) == set(runner.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(BASES))
def test_extreme_params_give_an_exit_code(scenario, tmp_path, capsys):
    keys = scenario_keys(scenario)
    if scenario.startswith(("econ.", "sim.")):
        cases = [(key, value) for key in keys for value in MODEL_EXTREMES]
        codes = (0, 2)
    else:
        cases = [(key, value) for i, key in enumerate(keys)
                 for j, value in enumerate(EXTREMES) if (i + j) % 2 == 0]
        codes = (0, 1, 2)
    cases.append(("no_such_parameter", 1))
    config = tmp_path / "config.json"
    leaks = []
    for key, value in cases:
        config.write_text(json.dumps({"params": {**BASES[scenario], key: value}}))
        try:
            code = cli.main([*scenario.split("."), "--config", str(config), "--seed", "1"])
        except Exception as exc:  # what the console script would print as a traceback
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in codes or "Traceback" in err:
            leaks.append(f"params.{key} = {json.dumps(value)[:24]}: {code}")
    assert not leaks, "\n".join(leaks)


# Whole configs whose join weights both underflow to zero: the CLI refuses
# them as a config error rather than dividing by zero.
UNDERFLOWING_NETWORKS = [
    ({"m_a": 1e-200, "m_b": 2e-200, "c_a": 1, "c_b": 1, "alpha": 2, "steps": 3},
     "both merchants counts to the power 2.0 underflow to zero"),
    ({"m_a": 0.5, "m_b": 0.5, "c_a": 0.5, "c_b": 0.5, "alpha": 1e308, "beta": 1e308},
     "both customers counts to the power 1e+308 underflow to zero"),
]


def test_network_weights_whose_sum_overflows_split_evenly(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"params": {"m_a": 1e308, "m_b": 1e308, "alpha": 1, "steps": 3}}))
    assert cli.main(["econ", "network", "--config", str(config), "--seed", "1",
                     "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["merchant_share_a"] for row in rows] == [0.5] * 4


@pytest.mark.parametrize("params, message", UNDERFLOWING_NETWORKS,
                         ids=["merchants", "customers"])
def test_underflowing_network_weights_are_a_config_error(params, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": params}))
    assert cli.main(["econ", "network", "--config", str(config), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"config error: params: {message}"
