"""The benchmark workloads: config, CLI arguments, size and output checks.

BENCHMARK.json bounds verify_drift, hitting_fanout and long_path;
wide_modes runs the same way by hand (see README.md for why).

Each workload starts from a config shipped in ``configs/``, applies the
size overrides below and writes the result into the run directory; the
program sees only that file and ``--seed``.  The sizes keep one CLI
invocation near 2 s on a 2-CPU host (3 s for long_path, whose sigma^2
check needs the horizon), so a timed run holds many invocations.
"""

import copy
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Closed form of the long-run variance of mode 1 in the linear single-mode
# model: sigma^2 = beta^2 / alpha^2 = 1 / pi^4.
SIGMA2_EXACT = 1.0 / math.pi ** 4
# Relative tolerance on the sigma^2 estimate.  At t_end = 150 with 240
# batches the batch-means estimator is biased about 17% low (batches of
# 0.58 time units against a correlation time of 1/pi^2) and has a relative
# standard error near 9%, so 0.6 leaves more than four standard errors on
# the far side of the bias.  Seeds 0-24 and 100-139 gave -37% to -1%.
SIGMA2_REL_TOL = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str            # shipped config the workload starts from
    overrides: dict             # deep-merged into the shipped config
    command: tuple              # CLI words before --config
    outputs: tuple              # byte-identical outputs to digest
    paths: Callable             # config -> (trajectories, steps per path)
    check: Callable             # (CLI result, config, out dir) -> problems
    why: str
    extra_args: tuple = field(default=())

    def config(self, root: Path) -> dict:
        raw = json.loads((root / self.base_config).read_text())
        _merge(raw, self.overrides)
        return raw

    def argv(self, config_path, seed: int, out_dir) -> list:
        return [*self.command, "--config", str(config_path),
                "--seed", str(seed), "--out", str(out_dir),
                *self.extra_args]

    def size(self, cfg: dict) -> dict:
        """Input size of one invocation: N, trajectories, total steps."""
        n_traj, per_path = self.paths(cfg)
        return {"N": cfg["model"]["n_modes"], "n_traj": n_traj,
                "steps": n_traj * per_path}


def _merge(base: dict, over: dict) -> None:
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = copy.deepcopy(value)


def _n_steps(horizon: float, dt: float) -> int:
    return int(round(horizon / dt))


def _one_path(cfg: dict) -> tuple:
    return 1, _n_steps(cfg["model"]["t_end"], cfg["model"]["dt"])


# ------------------------------------------------------------ output checks

def _stdout_json(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no JSON result on stdout")
    return json.loads(lines[-1])


def _check_verify(res: dict, cfg: dict, out: Path) -> list:
    problems = []
    if res["failures"] != 0:
        problems.append(f"verify reported {res['failures']} failures")
    if not (out / "verify_report.json").is_file():
        problems.append("verify_report.json missing")
    return problems


def _check_hitting(res: dict, cfg: dict, out: Path) -> list:
    rec = res["records"][0]
    problems = []
    if rec["n"] != cfg["experiment"]["n_traj"]:
        problems.append(f"hitting n={rec['n']}, expected "
                        f"{cfg['experiment']['n_traj']}")
    if not (rec["tail_rate"] is not None and rec["tail_rate"] > 0):
        problems.append(f"hitting tail_rate={rec['tail_rate']!r} not > 0")
    return problems


def _check_sigma2(res: dict, cfg: dict, out: Path) -> list:
    value = res["records"][0]["value"]
    if abs(value / SIGMA2_EXACT - 1.0) <= SIGMA2_REL_TOL:
        return []
    return [f"sigma2={value:.6g} outside {SIGMA2_REL_TOL:.0%} of "
            f"1/pi^4={SIGMA2_EXACT:.6g}"]


def _check_simulate(res: dict, cfg: dict, out: Path) -> list:
    model = cfg["model"]
    n_rows = _n_steps(model["t_end"], model["dt_save"]) + 1
    n_cols = model["n_modes"] + 3          # t, a_1..a_N, norm_h, norm_v
    problems = []
    with open(out / "trajectory.csv", newline="") as fh:
        if not fh.readline().startswith("# config_hash="):
            problems.append("trajectory.csv lacks its hash line")
        rows = list(csv.reader(fh))
    if len(rows) != n_rows + 1:
        problems.append(f"trajectory.csv has {len(rows) - 1} rows, "
                        f"expected {n_rows}")
    if any(len(r) != n_cols for r in rows):
        problems.append(f"trajectory.csv rows are not {n_cols} wide")
    if not all(math.isfinite(float(v)) for r in rows[1:] for v in r):
        problems.append("trajectory.csv holds a non-finite value")
    with open(out / "jumps.jsonl") as fh:
        n_jumps = sum(1 for _ in fh)
    if n_jumps != res["jumps"]:
        problems.append(f"jumps.jsonl has {n_jumps} lines, CLI reported "
                        f"{res['jumps']}")
    return problems


def check_outputs(workload: Workload, returncode: int, stdout: str,
                  cfg: dict, out: Path) -> list:
    """Problems with one invocation's exit code and outputs; [] if correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return workload.check(_stdout_json(stdout), cfg, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def digests(workload: Workload, out: Path) -> dict:
    """sha256 of each byte-identical output file (None when missing)."""
    found = {}
    for name in workload.outputs:
        p = out / name
        found[name] = (hashlib.sha256(p.read_bytes()).hexdigest()
                       if p.is_file() else None)
    return found


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify_drift",
        base_config="configs/verify_drift.json",
        overrides={"experiment": {"n_mart": 20}},
        command=("verify",),
        outputs=("verify_report.json",),
        paths=lambda cfg: (1 + cfg["experiment"]["n_mart"],
                           _one_path(cfg)[1]),
        check=_check_verify,
        why="the paper's central drift and supermartingale check: serial "
            "simulate calls plus Lyapunov checks on 500 states (2500 checks)"),
    Workload(
        name="hitting_fanout",
        base_config="configs/estimate_hitting.json",
        overrides={"experiment": {"n_traj": 200}},
        command=("estimate", "hitting"),
        extra_args=("--threads", "2"),
        outputs=("estimate.jsonl", "estimate.csv"),
        paths=lambda cfg: (cfg["experiment"]["n_traj"],
                           _n_steps(cfg["experiment"]["t_max"],
                                    cfg["model"]["dt"])),
        check=_check_hitting,
        why="many short paths through ensemble and its 2-process pool, so "
            "per-trajectory set-up and fan-out dominate"),
    Workload(
        name="long_path",
        base_config="configs/estimate_sigma2_linear.json",
        overrides={"model": {"t_end": 150.0}},
        command=("estimate", "sigma2"),
        outputs=("estimate.jsonl", "estimate.csv"),
        paths=_one_path,
        check=_check_sigma2,
        why="one long linear N=1 path with B and jumps off: pure per-step "
            "overhead, the batch-of-one case"),
    Workload(
        name="wide_modes",
        base_config="configs/default_run.json",
        overrides={"model": {"n_modes": 128, "t_end": 4.0,
                             "dt_save": 0.005}},
        command=("simulate",),
        outputs=("trajectory.csv", "jumps.jsonl"),
        paths=_one_path,
        check=_check_simulate,
        why="N=128 on the dealiased B route plus a 131-column trajectory "
            "CSV, where spectral and the harness writer dominate"),
)}
