"""The cli_scenarios workload: each of the 14 CLI scenarios in a fresh process.

One pass runs every scenario once, in the runner's order, as
`python -m zkpoi.cli GROUP VERB --seed S --config FILE`, at the configs the
determinism acceptance bar uses. `econ network` instead runs a long path, so
that `simulate_network_growth` takes about as long as the cold start. Traced
passes start each process through `cli_child.py` instead.

This module runs in the benchmark's own process and never imports zkpoi.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference

NETWORK_STEPS = 150_000
NETWORK_START = {"m_a": 2.0, "m_b": 1.0, "c_a": 2.0, "c_b": 1.0}

SCENARIOS: tuple[tuple[str, str, dict], ...] = (
    ("identity", "gen", {"params": {"count": 2}}),
    ("identity", "validate", {"params": {"count": 2}}),
    ("register", "build", {"params": {"count": 2, "kdf_iterations": 4}}),
    ("register", "verify", {"params": {"count": 2, "kdf_iterations": 4}}),
    ("registry", "register", {"params": {"count": 2, "kdf_iterations": 4}}),
    ("registry", "offline", {"params": {"count": 2, "kdf_iterations": 4, "offline_count": 1}}),
    ("registry", "dump", {"params": {"count": 2, "kdf_iterations": 4}}),
    ("sim", "epoch", {}),
    ("econ", "congestion", {}),
    ("econ", "poa", {"params": {"gamma": 0.1}}),
    ("econ", "dominance", {}),
    ("econ", "ess", {}),
    ("econ", "network", {"params": {"steps": NETWORK_STEPS, **NETWORK_START}}),
    ("econ", "circulation", {}),
)


def _csv_rows(payload: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(payload.decode("utf-8"))))


def check_output(group: str, verb: str, returncode: int, stdout: bytes,
                 stderr: bytes) -> str | None:
    """What is wrong with one invocation's outputs, or None."""
    if returncode != 0:
        return f"exit code {returncode}: {stderr.decode(errors='replace')[-300:]}"
    lines = stderr.decode("utf-8").strip().splitlines()
    if not lines or not checks.manifest_hash_ok(lines[-1], stdout):
        return "manifest output hash is not sha256 of the payload"
    if (group, verb) == ("econ", "network"):
        start = sum(NETWORK_START.values())
        rows = _csv_rows(stdout)
        if not rows or int(rows[-1]["t"]) != NETWORK_STEPS:
            return "network path does not reach its last step"
        for row in rows:
            total = sum(float(row[c]) for c in ("m_a", "m_b", "c_a", "c_b"))
            if total != start + int(row["t"]):
                return f"network population {total} != {start} + {row['t']}"
    if (group, verb) == ("econ", "poa"):
        ratio = float(_csv_rows(stdout)[0]["ratio"])
        if abs(ratio - 20.0) > 1e-9:
            return f"price of anarchy {ratio!r} != 20.0 +- 1e-9"
    return None


def write_configs(workdir: Path) -> list[Path | None]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for group, verb, config in SCENARIOS:
        if config:
            path = workdir / f"{group}.{verb}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            paths.append(path)
        else:
            paths.append(None)
    return paths


def run_pass(configs, seed: int, env: dict, timeout: float, trace_dir: Path | None = None,
             bench_dir: Path | None = None):
    """One pass over the scenarios: wall ns per invocation, problems, trace
    dumps, and the reference chunks timed before each invocation."""
    walls, problems, dumps, ref_ns = [], [], [], []
    deadline = time.monotonic() + timeout
    for (group, verb, _config), config_path in zip(SCENARIOS, configs):
        argv = [group, verb, "--seed", str(seed)]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        if trace_dir is None:
            launcher = [sys.executable, "-m", "zkpoi.cli"]
        else:
            dump = trace_dir / f"{group}.{verb}.trace.json"
            dumps.append(dump)
            launcher = [sys.executable, str(bench_dir / "cli_child.py"), str(dump)]
        ref_ns += reference.sample()
        began = time.perf_counter_ns()
        proc = subprocess.run([*launcher, *argv], capture_output=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
        walls.append(time.perf_counter_ns() - began)
        wrong = check_output(group, verb, proc.returncode, proc.stdout, proc.stderr)
        if wrong is not None:
            problems.append(f"{group}.{verb}: {wrong}")
    return walls, problems, dumps, ref_ns


def cold_start_s(env: dict, timeout: float) -> float:
    """Wall time of `zkpoi --version` in a fresh interpreter: the CLI's set-up."""
    began = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "zkpoi.cli", "--version"],
                          capture_output=True, env=env, timeout=timeout)
    spent = (time.perf_counter_ns() - began) / 1e9
    if proc.returncode != 0 or not proc.stdout.startswith(b"zkpoi "):
        raise RuntimeError(f"zkpoi --version failed: {proc.stderr[-300:]!r}")
    return spent
