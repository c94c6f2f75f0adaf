"""Run the zkpoi CLI once under the tracer and dump its spans as JSON.

    python bench/cli_child.py DUMP_PATH GROUP VERB [CLI ARGS...]

Standard output, standard error and the exit code are the CLI's own, so the
traced pass is checked exactly like the untraced one.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    dump, cli_argv = argv[0], argv[1:]
    import zkpoi.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    began = time.perf_counter_ns()
    try:
        return zkpoi.cli.main(cli_argv)
    finally:
        wall = time.perf_counter_ns() - began
        tracer.uninstall()
        tracer.end_round()
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"main_ns": wall, **tracer.snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
