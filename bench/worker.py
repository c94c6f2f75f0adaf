"""Run one in-process workload in this fresh interpreter; print one JSON line.

Usage (from run.py, with the library's source directory on PYTHONPATH):

    python bench/worker.py WORKLOAD SEED SECONDS TRACE T0_NS [--setup-only]

T0_NS is the parent's CLOCK_MONOTONIC reading just before it started this
interpreter, so the reported set-up time runs from interpreter start to
inputs ready and includes `import zkpoi`. With --setup-only the worker stops
there. Otherwise it runs whole rounds until SECONDS have passed. With TRACE
1 the rounds alternate untraced and traced, which gives the tracing
overhead, and the set-up is traced too. A warm-up round precedes them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, t0_ns = argv[:5]
    seed, seconds, trace, t0_ns = int(seed), float(seconds), trace == "1", int(t0_ns)
    setup_only = "--setup-only" in argv[5:]

    import reference
    import workloads  # imports zkpoi: part of the set-up
    from tracer import Tracer

    tracer = Tracer() if trace and not setup_only else None
    traced_from = time.perf_counter_ns()
    if tracer:
        tracer.install()
    wl = workloads.WORKLOADS[workload](seed)
    setup_s = (monotonic_ns() - t0_ns) / 1e9
    out: dict = {"setup_s": setup_s}
    if setup_only:
        print(json.dumps(out))
        return 0
    if tracer:
        tracer.uninstall()
        out["setup_trace"] = {"wall_ns": time.perf_counter_ns() - traced_from,
                              **tracer.snapshot()}
        tracer.reset()

    round_ns: list[list[int]] = []  # per untraced round, each operation's ns in order
    ref_ns: list[int] = []  # reference chunks timed after each untraced round
    main_ns: list[int] = []
    walls: dict[str, list[int]] = {"untraced": [], "traced": []}
    # The first round warms caches and allocator pools; its operations count
    # as attempted, but its timings are dropped.
    warm = wl.round()
    attempted, failed = len(warm.ops), sum(1 for _, _, bad in warm.ops if bad)
    problems: list[str] = list(warm.problems)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls["untraced"]) > len(walls["traced"])
        if traced:
            tracer.install()
        began = time.perf_counter_ns()
        rnd = wl.round()
        wall = time.perf_counter_ns() - began
        if traced:
            tracer.uninstall()
            tracer.end_round()
        walls["traced" if traced else "untraced"].append(wall)
        attempted += len(rnd.ops)
        failed += sum(1 for _, _, bad in rnd.ops if bad)
        problems.extend(rnd.problems)
        if not traced:
            round_ns.append([ns for _, ns, _ in rnd.ops])
            ref_ns += reference.sample()
            main_ns += [ns for kind, ns, _ in rnd.ops if kind == wl.main_kind]
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or walls["traced"]):
            break
    problems.extend(getattr(wl, "final_problems", list)())

    # Every round repeats the same operations, so each one's median over the
    # rounds gives a typical round that a few slow seconds of a shared
    # machine cannot move much.
    kinds: dict[str, list] = {}  # kind -> [operations, typical ns] per round
    for (kind, _, _), times in zip(rnd.ops, zip(*round_ns)):
        slot = kinds.setdefault(kind, [0, 0])
        slot[0] += 1
        slot[1] += statistics.median(times)
    out.update({
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "kinds": kinds, "main_kind": wl.main_kind, "main_ns": main_ns, "walls": walls,
        "ref_ns": ref_ns,
    })
    if tracer:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
