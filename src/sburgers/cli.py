"""Command-line front end.

    sburgers simulate --config run.json [--seed N] [--out DIR]
    sburgers verify   --config run.json [--seed N] [--out DIR]
                      [--threads N]
    sburgers estimate NAME --config run.json [--seed N] [--out DIR]
                      [--threads N]

Exit codes: 0 success (verify: zero deterministic failures), 1 verify
found failures, 2 usage or config or estimator-domain error, 3 trajectory
blow-up.

At interpreter exit every object still alive is frozen (``gc.freeze``), so
the teardown collections skip them and the OS reclaims the memory in one
step; every output file is closed before ``main`` returns, and the flushes
of stdout and stderr and the other exit handlers still run.
"""

import argparse
import atexit
import gc
import json
import sys

from .integrator import BlowUpError
from .harness import ConfigError, ESTIMATORS, load_config, \
    run_simulate, run_verify, run_estimate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3

# skip the teardown collections (~45 ms a run); the OS frees the memory at once
atexit.register(gc.freeze)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sburgers",
        description="Spectral simulator and verification toolkit for a "
                    "stochastic Burgers equation with Brownian and "
                    "compensated-jump forcing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="override the config seed")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: config output block)")

    def ensembles(p):
        common(p)
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="trajectory-level worker processes")

    common(sub.add_parser("simulate", help="run one trajectory and persist "
                                           "snapshots, jumps, manifest"))
    ensembles(sub.add_parser("verify", help="check drift and martingale "
                                            "inequalities along a path"))
    est = sub.add_parser("estimate", help="run one named estimator")
    est.add_argument("estimator", metavar="ESTIMATOR",
                     help="one of: " + ", ".join(ESTIMATORS))
    ensembles(est)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors already; normalize the rest
        return EXIT_USAGE if err.code not in (0,) else EXIT_OK

    if args.command != "simulate" and args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE

    try:
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "simulate":
            result = run_simulate(cfg, out_dir=args.out)
            print(json.dumps(result, sort_keys=True))
            return EXIT_OK
        if args.command == "verify":
            report = run_verify(cfg, out_dir=args.out,
                                n_workers=args.threads)
            print(json.dumps(report, sort_keys=True))
            if report["failures"]:
                print(f"verify: {report['failures']} inequality "
                      "failures (see verify_failures.csv)",
                      file=sys.stderr)
                return EXIT_VERIFY_FAILED
            return EXIT_OK
        result = run_estimate(cfg, args.estimator, out_dir=args.out,
                              n_workers=args.threads)
        print(json.dumps(result, sort_keys=True, allow_nan=True))
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
