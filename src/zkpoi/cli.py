"""Command-line interface.

Grammar: zkpoi <identity|register|registry|sim|econ> <verb>
             [--config FILE] [--seed N] [--out PATH] [--format csv|json]

Exit codes: 0 success; 2 for any refusal caused by the config, a model
refusing its inputs included; 1 only for I/O and protocol failures.
Seeds resolve as --seed, then the config file's "seed" field, then 0;
whichever is used must lie in [0, 2**64).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, runner
from .errors import ConfigInvalid, ZkpoiError

_GROUPS: dict[str, list[str]] = {}
for _name in runner.SCENARIOS:
    _group, _verb = _name.split(".")
    _GROUPS.setdefault(_group, []).append(_verb)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zkpoi",
        description="Sybil-resistant registration pipeline and its economic models.")
    parser.add_argument("--version", action="version", version=f"zkpoi {__version__}")
    groups = parser.add_subparsers(dest="group", metavar="group", required=True)
    for group in sorted(_GROUPS):
        gp = groups.add_parser(group, help=f"{group} scenarios")
        verbs = gp.add_subparsers(dest="verb", metavar="verb", required=True)
        for verb in sorted(_GROUPS[group]):
            vp = verbs.add_parser(verb, help=f"run the {group}.{verb} scenario")
            vp.add_argument("--config", metavar="F", default=None,
                            help="JSON experiment config")
            vp.add_argument("--seed", metavar="S", type=int, default=None,
                            help="64-bit seed (overrides the config)")
            vp.add_argument("--out", metavar="PATH", default=None,
                            help="write the scenario output to this file")
            vp.add_argument("--format", choices=("csv", "json"), default=None,
                            help="output serialization (default per scenario)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scenario = f"{args.group}.{args.verb}"
    try:
        config = runner.load_config(args.config) if args.config else {}
        seed = runner.resolve_seed(config, args.seed)
        manifest, payload = runner.run(config, scenario, seed, out_path=args.out,
                                       output_format=args.format)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ZkpoiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        print(manifest.to_json())
    else:
        sys.stdout.write(payload.decode("utf-8"))
        print(manifest.to_json(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
