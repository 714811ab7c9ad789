"""Record the reference output digests the benchmark compares against.

    python3 perfbench/record_digests.py

Run from the root of a git checkout of the commit to record.  Runs each
workload once per seed in SEEDS and rewrites
perfbench/reference_digests.json with the digests and the commit.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, Runner
from workloads import WORKLOADS

SEEDS = range(1, 11)


def main() -> int:
    root = Path.cwd()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    table = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                run_dir = Path(tmp) / f"{name}-{seed}"
                run_dir.mkdir()
                runner = Runner(root, workload, seed, run_dir,
                                time.monotonic())
                inv, _ = runner.invoke(traced=False)
                if inv.problems:
                    print(f"{name} seed {seed}: {inv.problems}",
                          file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = inv.digests
    (HERE / "reference_digests.json").write_text(
        json.dumps({"commit": commit, "digests": table}, indent=1,
                   sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
