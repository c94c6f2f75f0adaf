"""Layer probes run beside every traced run, at fixed sizes.

`main()` runs in its own interpreter and prints one JSON line: the time of
the first accumulator root query after one insert at 1k, 10k and 100k
leaves, and the step rate of `simulate_network_growth`. `import_probe()` runs
from the benchmark process: it times a fresh `import zkpoi.cli` under
`-X importtime` and takes scipy's share of the import from its report.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

ROOT_SIZES = (("1k", 1_000), ("10k", 10_000), ("100k", 100_000))
ROOT_QUERIES = 3
NETWORK_STEPS = 20_000


def root_after_insert_ms(size: int, seed: int) -> float:
    from zkpoi import accumulator

    acc = accumulator.accumulator_generate(seed)
    elements = [b"probe-element-%d" % i for i in range(size)]
    # Inserting in digest order appends each leaf, so filling stays linear.
    for element in sorted(elements, key=acc.element_digest):
        acc.admit(element)
    _ = acc.root
    samples = []
    for i in range(ROOT_QUERIES):
        acc.admit(b"probe-insert-%d" % i)
        began = time.perf_counter_ns()
        _ = acc.root
        samples.append(time.perf_counter_ns() - began)
    return statistics.median(samples) / 1e6


def network_steps_per_s(seed: int) -> float:
    from zkpoi.econ import network

    state = network.NetworkState(m_a=2.0, m_b=1.0, c_a=2.0, c_b=1.0, lam=0.5,
                                 alpha=1.5, beta=1.5)
    began = time.perf_counter_ns()
    network.simulate_network_growth(state, NETWORK_STEPS, seed)
    return NETWORK_STEPS / ((time.perf_counter_ns() - began) / 1e9)


def import_probe(env: dict, timeout: float) -> dict:
    began = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zkpoi.cli"],
                          capture_output=True, env=env, timeout=timeout)
    wall = (time.perf_counter_ns() - began) / 1e9
    if proc.returncode != 0:
        raise RuntimeError(f"import zkpoi.cli failed: {proc.stderr[-300:]!r}")
    total = scipy = 0
    for line in proc.stderr.decode("utf-8").splitlines():
        # "import time: <self us> | <cumulative us> | <indented module name>"
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        total += self_us
        module = parts[2].strip()
        if module == "scipy" or module.startswith("scipy."):
            scipy += self_us
    return {"cli.import.s": wall, "cli.import.scipy_pct": 100.0 * scipy / total}


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    out = {f"accumulator.root_after_insert_ms.{label}": root_after_insert_ms(size, seed)
           for label, size in ROOT_SIZES}
    out["econ.network.steps_per_s"] = network_steps_per_s(seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
