"""argparse front end: one subcommand per named experiment.

Exit codes: 0 clean run, 1 a one-line refusal, 2 a checked property failed.
The refusal names its cause: "config error" (a command line argparse cannot
parse, bad key, bad value, bad parameter range, a config file that is not
UTF-8), "domain error" (a numerical precondition fails inside the work),
"I/O error" (a file read or write fails) or "resource error" (out of memory).
MODVAR_JOBS overrides --jobs; either above the host's CPU count is refused.
"""

import argparse
import sys

from . import harness
from .util import DomainError


def _refuse(message):
    # every parser's error hook: exit 1 and one line, not argparse's usage
    raise harness.ConfigError(message)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modvar",
        description="numerical experiments for modulated-average variation",
    )
    parser.error = _refuse
    sub = parser.add_subparsers(dest="command", required=True, metavar="KIND")
    for kind in sorted(harness.SCHEMAS):
        p = sub.add_parser(kind, help="run the %s experiment" % kind)
        p.error = _refuse
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key = value config file")
        p.add_argument("--set", action="append", default=[], dest="sets",
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--seed", type=int, default=2026)
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory for result files")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker threads for batched draws")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        text = ""
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                try:
                    text = fh.read()
                except UnicodeDecodeError as ex:
                    raise harness.ConfigError("config file %s is not UTF-8 "
                                              "text: %s" % (args.config, ex))
        overrides = {}
        for item in args.sets:
            if "=" not in item:
                raise harness.ConfigError(
                    "--set expects KEY=VALUE, got %r" % item)
            key, val = item.split("=", 1)
            overrides[key.strip()] = val
        config = harness.parse_config(text, kind=args.command,
                                      overrides=overrides)
        return harness.run(config, out_dir=args.out, seed=args.seed,
                           jobs=args.jobs)
    except harness.ConfigError as ex:
        print("config error: %s" % ex, file=sys.stderr)
        return 1
    except DomainError as ex:
        print("domain error: %s" % ex, file=sys.stderr)
        return 1
    except OSError as ex:
        print("I/O error: %s" % ex, file=sys.stderr)
        return 1
    except MemoryError as ex:
        print("resource error: %s" % (str(ex) or "out of memory"),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
