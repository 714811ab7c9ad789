"""Run the sburgers CLI and record the moment its set-up is done.

    PYTHONPATH=src python3 perfbench/launch.py STAMP_FILE CLI_ARGS...

Imports the CLI, parses the config with harness.load_config as the CLI
itself will, writes time.perf_counter() to STAMP_FILE and then runs the
CLI with CLI_ARGS.  perf_counter is the system-wide monotonic clock, so the
parent subtracts its own spawn time to get the invocation's set-up time.
The second parse inside the CLI costs well under a millisecond.
"""

import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    stamp, cli_args = Path(argv[0]), argv[1:]
    from sburgers import cli
    from sburgers.harness import ConfigError, load_config
    config = cli_args[cli_args.index("--config") + 1]
    seed = int(cli_args[cli_args.index("--seed") + 1])
    try:
        load_config(config, seed_override=seed)
    except ConfigError:
        pass                    # the CLI reports it with its own exit code
    stamp.write_text(repr(time.perf_counter()))
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
