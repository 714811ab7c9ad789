"""sburgers benchmark: closed-loop CLI invocations on one named workload.

    python3 perfbench/run.py --workload verify_drift --seed 1 --seconds 36 \\
        --trace 0

Run from the root of a source checkout.  One client runs one invocation of
the sburgers CLI (PYTHONPATH=src, through launch.py, which records when
set-up ends) at a time, the next starting when the previous one exits,
until --seconds have passed (at least MIN_INVOCATIONS times).  Every
invocation's exit code and outputs are checked.  With --trace 0 the fixed
reference work in reference.py runs before the first invocation and after
each one, and the reported times are scaled by it to the defining host's
speed (see README.md).  The last line of stdout is the result object;
the line before it is the full report (machine, samples, digests), also
written to .perfbench_runs/<workload>-seed<seed>-trace<t>/report.json.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced invocations of the same seed, reports the per-module metrics
from the traced ones, the isolated Burgers-term probe and the tracing
overhead.  Any two invocations of a run that give different output
digests, traced or not, make the run incorrect.
See perfbench/README.md for what each number means.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, check_outputs, digests
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
MIN_INVOCATIONS = 3
# An invocation still running this long after the run started is killed
# and counted as failed, so the benchmark always exits within 180 s.
HARD_LIMIT_S = 150.0
# Median wall time of reference.py on the host the benchmark was defined
# on; run_plain scales times to that host speed (see README.md).
REFERENCE_S = 0.62


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    spawned: float                  # perf_counter just before the spawn
    setup_s: float = math.nan
    scale: float = 1.0              # host-speed factor (run_plain)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, env: dict, cwd: Path, logs: Path,
          deadline: float) -> Invocation:
    """Run argv to completion; wall from spawn to exit, rusage of the tree.

    wait4 on Linux returns the child's usage plus that of every descendant
    it waited for (the pool workers), and the largest maxrss among them.
    """
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / "stdout.txt", "w") as out, \
            open(logs / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=cwd, start_new_session=True)
        timed_out = False
        signal.setitimer(signal.ITIMER_REAL,
                         max(0.01, deadline - time.monotonic()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        _kill_group(proc.pid)           # any descendant the CLI left behind
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / 1024.0,
                     returncode=proc.returncode,
                     stdout=(logs / "stdout.txt").read_text(), spawned=t0)
    if timed_out:
        inv.problems.append("killed at the benchmark's time limit")
    return inv


class Runner:
    """Spawns CLI invocations for one workload and seed."""

    def __init__(self, root: Path, workload, seed: int, run_dir: Path,
                 started: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = started + HARD_LIMIT_S
        signal.signal(signal.SIGALRM, _alarm)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.config = workload.config(root)
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")
        self.out = run_dir / "out"

    def warm_up(self) -> None:
        """Untimed import, so the run does not time bytecode compilation."""
        spawn([sys.executable, "-c", "import sburgers.cli"], self.env,
              self.root, self.run_dir / "warm_up", self.deadline)

    def reference(self) -> Invocation:
        """One run of the fixed reference work, timed like an invocation."""
        inv = spawn([sys.executable, str(HERE / "reference.py")], self.env,
                    self.root, self.run_dir / "reference", self.deadline)
        if inv.returncode != 0:
            inv.problems.append(f"reference exit code {inv.returncode}")
        return inv

    def invoke(self, traced: bool) -> tuple:
        """One checked CLI invocation; returns (Invocation, layer metrics)."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.workload.argv(self.config_path, self.seed, self.out)
        record = self.run_dir / ("spans.json" if traced else "setup_done")
        record.unlink(missing_ok=True)
        script = "tracing.py" if traced else "launch.py"
        argv = [sys.executable, str(HERE / script), str(record), *argv]
        inv = spawn(argv, self.env, self.root, self.run_dir / "cli",
                    self.deadline)
        if not traced:
            if record.is_file():
                inv.setup_s = float(record.read_text()) - inv.spawned
            else:
                inv.problems.append("launcher wrote no set-up stamp")
        inv.problems += check_outputs(self.workload, inv.returncode,
                                      inv.stdout, self.config, self.out)
        inv.digests = digests(self.workload, self.out)
        layers = None
        if traced and not inv.problems:
            trace = json.loads(record.read_text())
            written = sum(p.stat().st_size for p in self.out.iterdir())
            layers = layer_metrics(trace["spans"], written)
        return inv, layers

    def time_left(self, until: float) -> bool:
        return time.monotonic() < until and time.monotonic() < self.deadline


# ------------------------------------------------------------- provenance

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine(root: Path) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        size = _read(index / "size")
        if level and kind and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"]\
                = size
    nproc = os.cpu_count()

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:
            pass
    src_lines = 0
    for p in sorted((root / "src").rglob("*.py")):
        with open(p, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"label": f"{nproc}-CPU shared sandbox", "nproc": nproc,
            "cpu_model": model, "caches": caches,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_commit": commit, "src_lines": src_lines}


def reference_match(workload: str, seed: int, found: dict):
    """True/False against the recorded digests, None for an unrecorded seed."""
    ref = json.loads((HERE / "reference_digests.json").read_text())
    want = ref["digests"].get(workload, {}).get(str(seed))
    return None if want is None else want == found


# ----------------------------------------------------------------- runs

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(runner: Runner, seconds: float) -> tuple:
    invs = []
    runner.warm_up()
    refs = [runner.reference()]
    until = time.monotonic() + seconds
    while len(invs) < MIN_INVOCATIONS or runner.time_left(until):
        inv, _ = runner.invoke(traced=False)
        invs.append(inv)
        refs.append(runner.reference())
        if any("time limit" in p for i in (inv, refs[-1])
               for p in i.problems):
            break
    problems = [f"reference run {k}: {p}" for k, r in enumerate(refs)
                for p in r.problems]
    # The host's speed drifts by tens of percent within seconds, for every
    # process alike.  Each invocation's times are scaled by REFERENCE_S
    # over the mean wall time of the reference runs just before and just
    # after it, which gives seconds at the defining host's nominal speed.
    for inv, before, after in zip(invs, refs, refs[1:]):
        inv.scale = REFERENCE_S / ((before.wall_s + after.wall_s) / 2)
    steps = runner.workload.size(runner.config)["steps"]
    timed = [i for i in invs if math.isfinite(i.setup_s)] or invs
    median = statistics.median
    metrics = {
        "wall_s": _metric(median(i.wall_s * i.scale for i in invs), "s"),
        "setup_s": _metric(median(i.setup_s * i.scale for i in timed), "s"),
        "traj_steps_per_s": _metric(median(
            steps / ((i.wall_s - i.setup_s) * i.scale) for i in timed),
            "1/s"),
        "cpu_s": _metric(median(i.cpu_s * i.scale for i in invs), "s"),
        "peak_rss_mb": _metric(median(i.peak_rss_mb for i in invs), "MB"),
    }
    samples = {"wall_s": [i.wall_s for i in invs],
               "setup_s": [i.setup_s for i in invs],
               "cpu_s": [i.cpu_s for i in invs],
               "peak_rss_mb": [i.peak_rss_mb for i in invs],
               "reference_s": [r.wall_s for r in refs]}
    return invs, metrics, samples, problems


def run_traced(runner: Runner, seconds: float) -> tuple:
    problems, burgers_us = [], {}
    try:
        probe = subprocess.run([sys.executable, str(HERE / "probe.py")],
                               env=runner.env, cwd=runner.root,
                               capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        problems.append("spectral probe timed out")
    else:
        if probe.returncode == 0:
            burgers_us = json.loads(probe.stdout)["burgers_us"]
        else:
            problems.append(f"spectral probe exit code {probe.returncode}")
    runner.warm_up()
    plain, traced, layers = [], [], []
    until = time.monotonic() + seconds
    while len(traced) < MIN_INVOCATIONS or runner.time_left(until):
        for use_trace in ((False, True) if len(traced) % 2 else
                          (True, False)):
            inv, lay = runner.invoke(traced=use_trace)
            (traced if use_trace else plain).append(inv)
            if lay is not None:
                layers.append(lay)
        if any("time limit" in p for i in plain + traced
               for p in i.problems):
            break
    metrics = {}
    if layers:
        for name, (_, unit) in layers[0].items():
            value = statistics.median(lay[name][0] for lay in layers)
            metrics[name] = _metric(value, unit)
    for n, us in burgers_us.items():
        metrics[f"spectral.burgers_us.{n}"] = _metric(us, "us")
    metrics["tracing.overhead_s"] = _metric(
        statistics.median(i.wall_s for i in traced)
        - statistics.median(i.wall_s for i in plain), "s")
    samples = {"traced_wall_s": [i.wall_s for i in traced],
               "untraced_wall_s": [i.wall_s for i in plain]}
    return plain + traced, metrics, samples, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    missing = [p for p in ("src/sburgers/cli.py", workload.base_config)
               if not (root / p).is_file()]
    if missing:
        print("perfbench: run from the root of an sburgers checkout; "
              "missing " + ", ".join(missing), file=sys.stderr)
        return 2

    started = time.monotonic()
    seed = args.seed % 2 ** 32          # the CLI takes a nonnegative seed
    run_dir = root / ".perfbench_runs" / \
        f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(root, workload, seed, run_dir, started)
    run = run_traced if args.trace else run_plain
    invs, metrics, samples, problems = run(runner, args.seconds)

    for i, inv in enumerate(invs):
        problems += [f"invocation {i}: {p}" for p in inv.problems]
    outputs = invs[0].digests
    if any(i.digests != outputs for i in invs):
        problems.append("invocations of the same seed gave different "
                        "outputs (traced ones included)")
    failed = sum(1 for i in invs if i.problems)
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "why": workload.why,
        "input": workload.size(runner.config),
        "loop": "closed, one client",
        "samples": samples,
        "error_rate": failed / len(invs),
        "digests": outputs,
        "digests_match_reference": reference_match(
            workload.name, args.seed, outputs),
        "machine": machine(root),
        "problems": problems,
        "metrics": metrics,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": not problems, "attempted": len(invs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
