"""Print the sha256 digests of the CLI's outputs on the shipped configs.

    PYTHONPATH=src python3 tools/output_digests.py > digests.json

Run from the root of a checkout.  It runs, each in a fresh temporary
output directory:

- simulate on every config in configs/;
- verify with --threads 1 and 2 on every config whose experiment kind is
  verify;
- every estimator on each shipped config where it runs, gamma and
  hitting also with --threads 2: sigma2, mdp and tailprobe need a path
  of t_end >= 100 for their batch means, and on such a path expmoment
  and the second gamma run are left out, which would take 30 s;
- mdp and tailprobe on jumps_only at t_end 200 with mu_reference 0;
- simulate, verify (--threads 1 and 2) and hitting on verify_drift with
  a saturated jump direction, the one whose jump field depends on the
  state;
- simulate and verify on jumps_only with deterministic marks;
- verify on jumps_only with jump.marks.rate 1e-300, whose mark second
  moment is beyond the double range (exit 2), and 1e300, whose moments
  underflow to 0 (exit 0);
- expmoment on estimate_sigma2_linear to t_end 20000 with dt_save 0.5
  and n_traj 2: at dt 0.5 the ceiling is beyond the double range and
  reported as inf (exit 0), at dt 0.05 the estimate too (exit 2);
- six runs that exit 2: three config errors on jumps_only, model.t_end
  too large for a float, a tailprobe experiment.t_grid time and a hitting
  experiment.t_max below one save interval; simulate on
  estimate_sigma2_linear at t_end 1e12 with dt_save 1e-3, whose
  snapshots do not fit in memory; hitting on verify_drift at N = 4,
  t_end 0.5 and n_traj 4 with jump.intensity 1e308, above the ceiling of
  jump events per path; and verify on jumps_only at t_end 0.5 and n_mart 2
  with a constant_mode direction of amplitude 1e200, whose H norm squares
  beyond the double range, so experiment.lam exceeds a0_max = 2e-200;
- verify (--threads 1 and 2) on verify_drift with experiment.c1_override
  0.01, which exits 1 with failures;
- five blow-ups on verify_drift, which exit 3: gamma (--threads 1 and 2)
  at separation 100, where some pairs blow up; verify from mode 1 at
  100 with t_end 0.5, where the checked path blows up; and hitting
  (--threads 1 and 2) from experiment.initial_v_norm 176 (||x0||_H = 56),
  where 134 of the 200 first-passage rows blow up and the others enter
  the ball, so a block drops rows of both kinds;
- at N = 40, above spectral.GATHER_LIMIT, where B takes the per-row
  convolution: simulate on default_run with t_end 1, and verify
  (--threads 1) on verify_drift with t_end 0.5 and n_mart 2;
- simulate on default_run and hitting (--threads 2) on verify_drift at
  --seed 1180591620717411303427 (2**70 + 3), a seed of three uint32
  words, beyond the two of a sub-seed;
- hitting on estimate_sigma2_linear with experiment.t_max 1e12, n_traj
  4 and initial_v_norm 1, where every path starts inside the ball: a
  first passage keeps no snapshots, so the 10^14 save intervals to t_max
  need no memory (exit 0);
- two pairs of runs into one output directory each, the second run after
  the first: verify on verify_drift with experiment.c1_override 0.01 (exit
  1), then on verify_drift (exit 0); and simulate on
  estimate_sigma2_linear, then on its snapshots-too-large config (exit 2).

It prints one JSON object: per run, the exit code, the sha256 of stdout
and of stderr, each with the output directory and the temporary
directory masked, and the sha256 of every output file but manifest.json,
which carries timestamps.  stderr is empty on a run that exits 0 and one
line naming the failure on the others.  A run that exits 3 also gets the
blowup_count and outputs of its manifest, and a run of a pair the sorted
names of the files in its directory and the outputs of its manifest.  Run
it at two commits and diff the two outputs to check that a change keeps
every output byte.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ESTIMATORS = ("gamma", "sigma2", "mdp", "hitting", "expmoment",
              "occupation", "tailprobe")
# estimators that exit 2 on a path shorter than LONG: too few batch means
NEED_LONG = ("sigma2", "mdp", "tailprobe")
THREADED = ("gamma", "hitting")
LONG = 100.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked(data: bytes, out: Path, tmp: Path) -> bytes:
    """data with the output directory and then the temporary directory,
    which differ from run to run, replaced by fixed names."""
    return data.replace(str(out).encode(), b"<out>").replace(
        str(tmp).encode(), b"<tmp>")


def _runs(configs: Path, tmp: Path) -> list:
    """(name, CLI arguments) of every run, in a fixed order; a run of a
    pair has a third entry, the name of the directory the pair shares."""
    runs = []
    for path in sorted(configs.glob("*.json")):
        cfg, raw = path.stem, json.loads(path.read_text())
        runs.append((f"simulate/{cfg}", ["simulate", "--config", str(path)]))
        if raw.get("experiment", {}).get("kind") == "verify":
            for n in (1, 2):
                runs.append((f"verify/{cfg}/threads{n}",
                             ["verify", "--config", str(path),
                              "--threads", str(n)]))
        long_path = raw["model"]["t_end"] >= LONG
        for est in ESTIMATORS:
            if est in NEED_LONG and not long_path \
                    or est == "expmoment" and long_path:
                continue
            args = ["estimate", est, "--config", str(path)]
            runs.append((f"estimate/{est}/{cfg}", args))
            if est in THREADED and not (est == "gamma" and long_path):
                runs.append((f"estimate/{est}/{cfg}/threads2",
                             args + ["--threads", "2"]))

    def derived(base: str, name: str, edit) -> str:
        """Write configs/<base>.json, changed in place by edit, as name."""
        raw = json.loads((configs / f"{base}.json").read_text())
        edit(raw)
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def long_jumps(raw):
        raw["model"]["t_end"] = 200.0
        raw["experiment"] = {"kind": "estimate", "mu_reference": 0.0}

    path = derived("jumps_only", "jumps_only_t200", long_jumps)
    for est in ("mdp", "tailprobe"):
        runs.append((f"estimate/{est}/jumps_only_t200",
                     ["estimate", est, "--config", path]))

    cfg = "verify_drift_saturated"
    path = derived("verify_drift", cfg, lambda raw: raw["jump"].update(
        direction={"kind": "saturated", "mode": 1}))
    runs.append((f"simulate/{cfg}", ["simulate", "--config", path]))
    for n in (1, 2):
        runs.append((f"verify/{cfg}/threads{n}",
                     ["verify", "--config", path, "--threads", str(n)]))
    runs.append((f"estimate/hitting/{cfg}",
                 ["estimate", "hitting", "--config", path]))

    cfg = "jumps_only_deterministic"
    path = derived("jumps_only", cfg, lambda raw: raw["jump"].update(
        marks={"kind": "deterministic", "value": 0.5}))
    runs.append((f"simulate/{cfg}", ["simulate", "--config", path]))
    runs.append((f"verify/{cfg}/threads1",
                 ["verify", "--config", path, "--threads", "1"]))

    for rate in (1e-300, 1e300):
        cfg = f"jumps_only_rate{rate:g}"
        path = derived("jumps_only", cfg, lambda raw: raw["jump"][
            "marks"].update(rate=rate))
        runs.append((f"verify/{cfg}/threads1",
                     ["verify", "--config", path, "--threads", "1"]))

    def long_expmoment(raw):
        raw["model"].update(dt=dt, dt_save=0.5, t_end=20000.0)
        raw["experiment"]["n_traj"] = 2

    for dt in (0.5, 0.05):
        cfg = f"estimate_sigma2_linear_t20000_dt{dt:g}"
        path = derived("estimate_sigma2_linear", cfg, long_expmoment)
        runs.append((f"estimate/expmoment/{cfg}",
                     ["estimate", "expmoment", "--config", path]))

    cfg = "jumps_only_t_end_overflow"
    path = derived("jumps_only", cfg, lambda raw: raw["model"].update(
        t_end=10 ** 400))
    runs.append((f"simulate/{cfg}", ["simulate", "--config", path]))
    cfg = "estimate_sigma2_linear_snapshots_too_large"
    path = derived("estimate_sigma2_linear", cfg, lambda raw: raw[
        "model"].update(t_end=1e12, dt_save=1e-3))
    runs.append((f"simulate/{cfg}", ["simulate", "--config", path]))
    for est, key, value in (("tailprobe", "t_grid", [1e-12, 1.0]),
                            ("hitting", "t_max", 1e-12)):
        cfg = f"jumps_only_{key}_below_dt_save"
        path = derived("jumps_only", cfg, lambda raw: raw.update(
            experiment={"kind": "estimate", "mu_reference": 0.0,
                        key: value}))
        runs.append((f"estimate/{est}/{cfg}",
                     ["estimate", est, "--config", path]))

    def many_events(raw):
        raw["model"].update(n_modes=4, t_end=0.5)
        raw["jump"]["intensity"] = 1e308
        raw["experiment"] = {"kind": "estimate", "n_traj": 4}

    cfg = "verify_drift_events_above_ceiling"
    path = derived("verify_drift", cfg, many_events)
    runs.append((f"estimate/hitting/{cfg}",
                 ["estimate", "hitting", "--config", path]))

    def huge_direction(raw):
        raw["model"]["t_end"] = 0.5
        raw["jump"]["direction"] = {"kind": "constant_mode", "mode": 1,
                                    "amplitude": 1e200}
        raw["experiment"] = {"kind": "verify", "n_mart": 2}

    cfg = "jumps_only_direction1e200"
    path = derived("jumps_only", cfg, huge_direction)
    runs.append((f"verify/{cfg}/threads1",
                 ["verify", "--config", path, "--threads", "1"]))

    cfg = "verify_drift_c1_override"
    path = derived("verify_drift", cfg, lambda raw: raw["experiment"].update(
        c1_override=0.01))
    for n in (1, 2):
        runs.append((f"verify/{cfg}/threads{n}",
                     ["verify", "--config", path, "--threads", str(n)]))

    cfg = "verify_drift_separation100"
    path = derived("verify_drift", cfg, lambda raw: raw.update(
        experiment={"kind": "estimate", "separation": 100.0}))
    for n in (1, 2):
        runs.append((f"estimate/gamma/{cfg}/threads{n}",
                     ["estimate", "gamma", "--config", path,
                      "--threads", str(n)]))

    cfg = "verify_drift_main_blowup"
    path = derived("verify_drift", cfg, lambda raw: raw["model"].update(
        t_end=0.5, initial_condition={"kind": "modes",
                                      "coefficients": [100.0]}))
    runs.append((f"verify/{cfg}/threads1",
                 ["verify", "--config", path, "--threads", "1"]))

    cfg = "verify_drift_hitting_blowup"
    path = derived("verify_drift", cfg, lambda raw: raw.update(
        experiment={"kind": "estimate", "initial_v_norm": 176.0}))
    for n in (1, 2):
        runs.append((f"estimate/hitting/{cfg}/threads{n}",
                     ["estimate", "hitting", "--config", path,
                      "--threads", str(n)]))

    cfg = "default_run_n40"
    path = derived("default_run", cfg, lambda raw: raw["model"].update(
        n_modes=40, t_end=1.0))
    runs.append((f"simulate/{cfg}", ["simulate", "--config", path]))

    def n40_verify(raw):
        raw["model"].update(n_modes=40, t_end=0.5)
        raw["experiment"]["n_mart"] = 2

    cfg = "verify_drift_n40"
    path = derived("verify_drift", cfg, n40_verify)
    runs.append((f"verify/{cfg}/threads1",
                 ["verify", "--config", path, "--threads", "1"]))

    big = ["--seed", str(2 ** 70 + 3)]
    runs.append(("simulate/default_run/seed2**70+3",
                 ["simulate", "--config", str(configs / "default_run.json"),
                  *big]))
    runs.append(("estimate/hitting/verify_drift/threads2/seed2**70+3",
                 ["estimate", "hitting", "--config",
                  str(configs / "verify_drift.json"), "--threads", "2",
                  *big]))

    cfg = "estimate_sigma2_linear_hitting_t_max1e12"
    path = derived("estimate_sigma2_linear", cfg, lambda raw: raw.update(
        experiment={"kind": "estimate", "t_max": 1e12, "n_traj": 4,
                    "initial_v_norm": 1.0}))
    runs.append((f"estimate/hitting/{cfg}",
                 ["estimate", "hitting", "--config", path]))

    for first, second in (
            (tmp / "verify_drift_c1_override.json",
             configs / "verify_drift.json"),
            (configs / "estimate_sigma2_linear.json",
             tmp / "estimate_sigma2_linear_snapshots_too_large.json")):
        command = "verify" if first.stem.startswith("verify") else "simulate"
        shared = f"{first.stem}_then_{second.stem}"
        for i, path in enumerate((first, second), 1):
            runs.append((f"rerun/{shared}/{i}_{path.stem}",
                         [command, "--config", str(path)], shared))
    return runs


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, (name, args, *shared) in enumerate(_runs(root / "configs",
                                                         tmp)):
            out = tmp / (shared[0] if shared else f"run{i}")
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-m", "sburgers.cli", *args,
                 "--out", str(out)],
                capture_output=True, env=env, cwd=root)
            print(f"{name}: exit {proc.returncode}, "
                  f"{time.monotonic() - started:.2f} s", file=sys.stderr)
            files = {} if not out.is_dir() else {
                p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())
                if p.name != "manifest.json"}
            table[name] = {
                "exit": proc.returncode,
                "stdout": _sha(_masked(proc.stdout, out, tmp)),
                "stderr": _sha(_masked(proc.stderr, out, tmp)),
                "files": files,
            }
            if proc.returncode == 3:
                manifest = json.loads((out / "manifest.json").read_text())
                table[name]["manifest"] = {
                    k: manifest[k] for k in ("blowup_count", "outputs")}
            if shared:
                manifest = json.loads((out / "manifest.json").read_text())
                table[name]["listing"] = sorted(p.name
                                                for p in out.iterdir())
                table[name]["manifest_outputs"] = manifest["outputs"]
    print(json.dumps(table, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
