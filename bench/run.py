"""zkpoi benchmark: one workload per call, end to end or per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: card_registration, passport_churn, shard_epochs, cli_scenarios,
or `all` to run the four in turn. With --trace 0 the last line of standard
output is one JSON object holding every end-to-end metric; with --trace 1 it
holds every per-layer metric instead. The line before it reports the machine
facts, every metric by name and unit, and per-operation detail.

The library runs from `src/` of the checkout this file sits in. Each
in-process workload runs in a fresh interpreter (`worker.py`); set-up is
sampled SETUP_SAMPLES times, each in its own interpreter, and reported as
the median. This process itself never imports zkpoi, scipy or tests/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import cli_scenarios  # noqa: E402
import probes  # noqa: E402
import reference  # noqa: E402
from tracer import EVENTS, SPAN_NAMES  # noqa: E402

WORKLOADS = ("card_registration", "passport_churn", "shard_epochs", "cli_scenarios")
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_pct"] = "%"
    units.update({event: "count" for event in EVENTS})
    for label, _ in probes.ROOT_SIZES:
        units[f"accumulator.root_after_insert_ms.{label}"] = "ms"
    units.update({
        "econ.network.steps_per_s": "1/s",
        "cli.import.s": "s",
        "cli.import.scipy_pct": "%",
        "trace.round_s": "s",
        "trace.other_pct": "%",
        "trace.overhead_pct": "%",
    })
    return units


def machine_facts() -> dict:
    versions = {}
    for package in ("cryptography", "numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), **versions}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def as_count(total: float, rounds: int):
    value = total / rounds
    return int(value) if value == int(value) else value


class Runner:
    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        # A traced run reports no set-up time, so one sample is enough there.
        self.setup_samples = 1 if trace else SETUP_SAMPLES
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
        return left

    def child_json(self, argv: list[str]) -> dict:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, env=self.env,
                              timeout=self.timeout())
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[:2])} failed ({proc.returncode}):\n"
                               + proc.stderr.decode("utf-8", "replace")[-2000:])
        return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])

    def worker(self, workload: str, setup_only: bool) -> dict:
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        argv = [str(BENCH_DIR / "worker.py"), workload, str(self.seed), str(self.seconds),
                "1" if self.trace else "0", str(t0)]
        return self.child_json(argv + (["--setup-only"] if setup_only else []))

    # -- workloads ---------------------------------------------------------------

    def run_in_process(self, workload: str) -> dict:
        setups = [self.worker(workload, True)["setup_s"]
                  for _ in range(self.setup_samples - 1)]
        res = self.worker(workload, False)
        setups.append(res["setup_s"])
        slowdown = reference.slowdown(res["ref_ns"])
        main_ns = res["main_ns"]
        ops_per_s = (sum(count for count, _ in res["kinds"].values())
                     / (sum(ns for _, ns in res["kinds"].values()) / 1e9))
        details = {f"{kind}_per_s": count / (ns / 1e9)
                   for kind, (count, ns) in sorted(res["kinds"].items())}
        details.update({
            f"{res['main_kind']}_p50_ms": statistics.median(main_ns) / 1e6,
            f"{res['main_kind']}_p99_ms": percentile(main_ns, 99) / 1e6,
            f"{res['main_kind']}_samples": len(main_ns),
            "rounds_untraced": len(res["walls"]["untraced"]),
            "raw_setup_s": setups,
            "raw_ops_per_s": ops_per_s,
            "slowdown": slowdown,
        })
        out = {
            "attempted": res["attempted"], "failed": res["failed"],
            "problems": res["problems"], "details": details,
            "end_to_end": {
                "setup_s": statistics.median(setups) / slowdown,
                "ops_per_s": ops_per_s * slowdown,
                "op_p50_ms": statistics.median(main_ns) / 1e6 / slowdown,
            },
        }
        if self.trace:
            out["trace"] = {"walls": res["walls"], "rounds": res["trace"],
                            "issue": res["setup_trace"]}
        return out

    def run_cli(self) -> dict:
        workdir = OUT_DIR / f"cli-{os.getpid()}"
        try:
            return self._run_cli(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _run_cli(self, workdir: Path) -> dict:
        configs = cli_scenarios.write_configs(workdir)
        cli_seed = random.Random(self.seed).getrandbits(32)
        setups = [cli_scenarios.cold_start_s(self.env, self.timeout())
                  for _ in range(self.setup_samples)]
        walls, problems, ref_ns, passes = [], [], [], 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < self.seconds:
            pass_walls, pass_problems, _, pass_ref = cli_scenarios.run_pass(
                configs, cli_seed, self.env, self.timeout())
            walls += pass_walls
            problems += pass_problems
            ref_ns += pass_ref
            passes += 1
        slowdown = reference.slowdown(ref_ns)
        out = {
            "attempted": len(walls), "failed": len(problems), "problems": problems[:20],
            "details": {"scenario_per_s": len(walls) / (sum(walls) / 1e9),
                        "scenario_p50_ms": statistics.median(walls) / 1e6,
                        "scenario_samples": len(walls), "passes": passes,
                        "raw_setup_s": setups, "slowdown": slowdown},
            "end_to_end": {"setup_s": statistics.median(setups) / slowdown,
                           "ops_per_s": len(walls) / (sum(walls) / 1e9) * slowdown,
                           "op_p50_ms": statistics.median(walls) / 1e6 / slowdown},
        }
        if self.trace:
            traced, trace_problems, dumps, _ = cli_scenarios.run_pass(
                configs, cli_seed, self.env, self.timeout(), workdir, BENCH_DIR)
            out["attempted"] += len(traced)
            out["failed"] += len(trace_problems)
            out["problems"] += trace_problems[:20]
            snapshot = {"self_ns": {}, "calls": {}, "events": {}}
            for dump in dumps:
                data = json.loads(dump.read_text(encoding="utf-8"))
                for key in snapshot:
                    for name, value in data[key].items():
                        snapshot[key][name] = snapshot[key].get(name, 0) + value
            out["trace"] = {"walls": {"untraced": [sum(walls) // passes],
                                      "traced": [sum(traced)]},
                            "rounds": snapshot, "issue": None}
        return out

    # -- per-layer metrics -------------------------------------------------------

    def per_layer(self, trace: dict) -> dict:
        walls, rounds = trace["walls"], trace["rounds"]
        traced = len(walls["traced"])
        round_ns = sum(walls["traced"])
        values = {}
        for span in SPAN_NAMES:
            values[f"{span}.calls"] = as_count(rounds["calls"].get(span, 0), traced)
            values[f"{span}.self_pct"] = 100.0 * rounds["self_ns"].get(span, 0) / round_ns
        issue = trace["issue"]
        if issue is not None:  # in-process workloads issue documents during set-up
            values["identity.issue.calls"] = issue["calls"].get("identity.issue", 0)
            values["identity.issue.self_pct"] = (
                100.0 * issue["self_ns"].get("identity.issue", 0) / issue["wall_ns"])
        for event in EVENTS:
            values[event] = as_count(rounds["events"].get(event, 0), traced)
        spans_ns = sum(ns for span, ns in rounds["self_ns"].items()
                       if issue is None or span != "identity.issue")
        values["trace.round_s"] = round_ns / traced / 1e9
        values["trace.other_pct"] = 100.0 * (round_ns - spans_ns) / round_ns
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1)
        probe_seed = random.Random(self.seed).getrandbits(32)
        values.update(self.child_json([str(BENCH_DIR / "probes.py"), str(probe_seed)]))
        values.update(probes.import_probe(self.env, self.timeout()))
        return values

    def run(self, workload: str) -> tuple[dict, dict]:
        out = self.run_cli() if workload == "cli_scenarios" else self.run_in_process(workload)
        units = per_layer_units() if self.trace else END_TO_END
        if self.trace:
            values = self.per_layer(out["trace"])
        else:
            values = dict(out["end_to_end"])
            values["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        result = {
            "correct": not out["problems"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
        report = {"workload": workload, "seed": self.seed, "seconds": self.seconds,
                  "trace": int(self.trace), "machine": machine_facts(),
                  "details": out["details"], "problems": out["problems"]}
        return report, result


def source_tree_present() -> bool:
    return (ROOT / "src" / "zkpoi" / "__init__.py").is_file()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_tree_present():
        print(f"no zkpoi source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    results = []
    for name in names:
        runner = Runner(args.seed, args.seconds, bool(args.trace))
        try:
            report, result = runner.run(name)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        raw = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        raw.write_text(json.dumps({"report": report, "result": result}, indent=1),
                       encoding="utf-8")
        print(json.dumps(report))
        results.append(result)
        if len(names) > 1:
            print(json.dumps(result))
    leaked = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "zkpoi", "tests"))
    if leaked:
        print(f"the benchmark process imported {leaked[:5]}", file=sys.stderr)
        return 1
    if len(names) > 1:
        results = [{"correct": all(r["correct"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "metrics": {f"{n}:{k}": v for n, r in zip(names, results)
                                for k, v in r["metrics"].items()}}]
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
