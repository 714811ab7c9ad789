"""Experiment orchestration: configs, hashing, persistence, runners.

A run is described by one JSON config file with nested blocks:

    {
      "model":    {"n_modes": 16, "dt": 1e-3, "t_end": 1.0, "dt_save": 1e-2,
                   "nonlinearity": true,
                   "initial_condition": {"kind": "zero"}},
      "gaussian": {"decay": {"amplitude": 1.0, "exponent": 1.0,
                             "normalize_to": 1.0}},
      "jump":     {"intensity": 1.0,
                   "marks": {"kind": "exponential", "rate": 2.0},
                   "direction": {"kind": "constant_mode", "mode": 1,
                                 "amplitude": 1.0}},
      "experiment": {"kind": "estimate", "estimator": "sigma2", ...},
      "seed": 0,
      "output": {"directory": "runs"}
    }

"gaussian" and "jump" may be null (missing blocks mean the corresponding
forcing is off).  Every output record embeds the config content hash, which
is invariant under key reordering; the output block and an explicit seed
override do change the effective config and therefore the hash seen in the
outputs reflects the config as run (with the seed actually used).

Numeric CSV output uses 17 significant digits so that repeated runs are
byte-identical; manifests carry timestamps and are excluded from the
byte-identity contract.
"""

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import SpectralField, basis_field, random_field, zero_field
from .noise import (
    GaussianSpec, JumpSpec, ExponentialMarks, DeterministicMarks,
    ConstantDirection, SaturatedDirection, hypothesis_constants,
)
from .integrator import SimConfig, Trajectory, simulate, ensemble, \
    derive_seed, require_no_blowups
from .lyapunov import (
    DriftConstants, drift_condition_check, dissipation_term_gap,
    jump_taylor_gap, exp_martingale_path, exp_integral_moment,
)
from .ergodics import (
    Observable, mode_coefficient, norm_h_observable,
    norm_h_squared_observable, psi_observable, tanh_mode_observable,
    observable_dictionary, occupation_measure, path_averages,
    sigma_squared, ergodic_decay, MdpConfig, mdp_functional,
    hitting_times, deviation_tail_probe,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "ESTIMATORS",
    "load_config",
    "parse_config",
    "config_hash",
    "build_sim_config",
    "write_trajectory_csv",
    "write_jump_log",
    "write_manifest",
    "run_simulate",
    "run_verify",
    "run_estimate",
]

ESTIMATORS = ("gamma", "sigma2", "mdp", "hitting", "expmoment",
              "occupation", "tailprobe")

# stream index reserved for drawing randomized initial conditions, far above
# any plausible trajectory index
_INITIAL_STATE_STREAM = 2 ** 40


class ConfigError(ValueError):
    """Malformed run configuration; message carries the offending path."""


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ConfigError(f"{path}.{key}: missing required field")
    return block[key]


def _as_number(value, path: str, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    v = float(value)
    if positive and not v > 0:
        raise ConfigError(f"{path}: must be positive, got {v}")
    if nonnegative and v < 0:
        raise ConfigError(f"{path}: must be nonnegative, got {v}")
    return v


def _as_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_block(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return value


def config_hash(raw: dict) -> str:
    """sha256 of the canonical JSON form (sorted keys, compact separators).

    The "output" block names a destination, not an experiment, so it is
    excluded; permuting field order never changes the hash.
    """
    content = {k: v for k, v in raw.items() if k != "output"}
    canon = json.dumps(content, sort_keys=True, separators=(",", ":"),
                       allow_nan=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------- config parsing

def _parse_marks(block: dict, path: str):
    kind = _require(block, "kind", path)
    if kind == "exponential":
        return ExponentialMarks(_as_number(_require(block, "rate", path),
                                           f"{path}.rate", positive=True))
    if kind == "deterministic":
        return DeterministicMarks(_as_number(_require(block, "value", path),
                                             f"{path}.value", positive=True))
    raise ConfigError(f"{path}.kind: unknown mark law {kind!r}")


def _direction_field(block: dict, path: str, n_modes: int) -> SpectralField:
    if "mode" in block:
        k = _as_int(block["mode"], f"{path}.mode", minimum=1)
        if k > n_modes:
            raise ConfigError(f"{path}.mode: {k} exceeds n_modes={n_modes}")
        amp = _as_number(block.get("amplitude", 1.0), f"{path}.amplitude")
        return amp * basis_field(k, n_modes)
    coeffs = _require(block, "coefficients", path)
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigError(f"{path}.coefficients: expected a nonempty list")
    arr = np.zeros(n_modes)
    if len(coeffs) > n_modes:
        raise ConfigError(f"{path}.coefficients: longer than n_modes")
    arr[:len(coeffs)] = [_as_number(c, f"{path}.coefficients[{i}]")
                         for i, c in enumerate(coeffs)]
    return SpectralField(arr)


def _parse_direction(block: dict, path: str, n_modes: int):
    kind = _require(block, "kind", path)
    if kind in ("constant", "constant_mode"):
        return ConstantDirection(_direction_field(block, path, n_modes))
    if kind == "saturated":
        g0 = _direction_field(block, path, n_modes)
        amp = _as_number(block.get("amplitude", 1.0), f"{path}.amplitude",
                         positive=True)
        return SaturatedDirection(g0, amp)
    raise ConfigError(f"{path}.kind: unknown direction {kind!r}")


def _parse_gaussian(block, n_modes: int) -> GaussianSpec | None:
    if block is None:
        return None
    block = _as_block(block, "gaussian")
    if "betas" in block:
        betas = block["betas"]
        if not isinstance(betas, list) or len(betas) != n_modes:
            raise ConfigError("gaussian.betas: expected a list of length "
                              f"n_modes={n_modes}")
        return GaussianSpec(np.array(
            [_as_number(b, f"gaussian.betas[{i}]", nonnegative=True)
             for i, b in enumerate(betas)]))
    if "decay" in block:
        d = _as_block(block["decay"], "gaussian.decay")
        amp = _as_number(d.get("amplitude", 1.0), "gaussian.decay.amplitude",
                         nonnegative=True)
        expo = _as_number(d.get("exponent", 1.0), "gaussian.decay.exponent")
        norm = d.get("normalize_to")
        if norm is not None:
            norm = _as_number(norm, "gaussian.decay.normalize_to",
                              positive=True)
        return GaussianSpec.power_decay(n_modes, amp, expo, norm)
    raise ConfigError("gaussian: need either 'betas' or 'decay'")


def _parse_jump(block, n_modes: int) -> JumpSpec | None:
    if block is None:
        return None
    block = _as_block(block, "jump")
    intensity = _as_number(_require(block, "intensity", "jump"),
                           "jump.intensity", nonnegative=True)
    marks = _parse_marks(_as_block(_require(block, "marks", "jump"),
                                   "jump.marks"), "jump.marks")
    direction = _parse_direction(
        _as_block(_require(block, "direction", "jump"), "jump.direction"),
        "jump.direction", n_modes)
    return JumpSpec(intensity, marks, direction)


def _parse_initial(block, n_modes: int, seed: int) -> SpectralField | None:
    if block is None:
        return None
    block = _as_block(block, "model.initial_condition")
    kind = block.get("kind", "zero")
    if kind == "zero":
        return None
    if kind == "modes":
        coeffs = _require(block, "coefficients", "model.initial_condition")
        if not isinstance(coeffs, list) or len(coeffs) > n_modes:
            raise ConfigError("model.initial_condition.coefficients: "
                              "expected a list no longer than n_modes")
        arr = np.zeros(n_modes)
        arr[:len(coeffs)] = [
            _as_number(c, f"model.initial_condition.coefficients[{i}]")
            for i, c in enumerate(coeffs)]
        return SpectralField(arr)
    if kind == "scaled_random":
        norm = _as_number(_require(block, "norm", "model.initial_condition"),
                          "model.initial_condition.norm", positive=True)
        rng = np.random.default_rng(derive_seed(seed, _INITIAL_STATE_STREAM))
        return random_field(n_modes, rng, norm=norm)
    raise ConfigError(
        f"model.initial_condition.kind: unknown kind {kind!r}")


def parse_observable(block, path: str = "observable") -> Observable:
    block = _as_block(block, path)
    kind = _require(block, "kind", path)
    if kind == "mode":
        return mode_coefficient(_as_int(_require(block, "k", path),
                                        f"{path}.k", minimum=1))
    if kind == "norm_h":
        return norm_h_observable()
    if kind == "norm_h_sq":
        return norm_h_squared_observable()
    if kind == "psi":
        return psi_observable()
    if kind == "tanh_mode":
        return tanh_mode_observable(
            _as_int(_require(block, "k", path), f"{path}.k", minimum=1),
            _as_number(block.get("c", 1.0), f"{path}.c", positive=True))
    raise ConfigError(f"{path}.kind: unknown observable {kind!r}")


@dataclass(frozen=True)
class RunConfig:
    """Parsed run description plus the raw dict it came from."""

    raw: dict
    sim: SimConfig
    experiment: dict
    hash: str
    out_dir: str


def parse_config(raw: dict, seed_override: int | None = None) -> RunConfig:
    """Validate a raw config dict and build the simulation config."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    raw = dict(raw)
    if seed_override is not None:
        raw["seed"] = int(seed_override)

    model = _as_block(_require(raw, "model", "top level"), "model")
    n_modes = _as_int(_require(model, "n_modes", "model"),
                      "model.n_modes", minimum=1)
    dt = _as_number(_require(model, "dt", "model"), "model.dt",
                    positive=True)
    t_end = _as_number(_require(model, "t_end", "model"), "model.t_end",
                       positive=True)
    dt_save = _as_number(model.get("dt_save", dt), "model.dt_save",
                         positive=True)
    nonlin = model.get("nonlinearity", True)
    if not isinstance(nonlin, bool):
        raise ConfigError("model.nonlinearity: expected true or false")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: expected a nonnegative integer")

    gaussian = _parse_gaussian(raw.get("gaussian"), n_modes)
    jumps = _parse_jump(raw.get("jump"), n_modes)
    x0 = _parse_initial(model.get("initial_condition"), n_modes, seed)

    try:
        sim = SimConfig(n_modes=n_modes, dt=dt, t_end=t_end,
                        dt_save=dt_save, gaussian=gaussian, jumps=jumps,
                        nonlinearity_on=nonlin, seed=seed, x0=x0)
    except ValueError as err:
        raise ConfigError(f"model: {err}") from err

    experiment = raw.get("experiment", {"kind": "simulate"})
    experiment = _as_block(experiment, "experiment")
    kind = experiment.get("kind", "simulate")
    if kind not in ("simulate", "verify", "estimate"):
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}")

    output = raw.get("output")
    out_dir = "runs"
    if output is not None:
        output = _as_block(output, "output")
        out_dir = output.get("directory", "runs")
        if not isinstance(out_dir, str):
            raise ConfigError("output.directory: expected a string")

    return RunConfig(raw=raw, sim=sim, experiment=experiment,
                     hash=config_hash(raw), out_dir=out_dir)


def load_config(path, seed_override: int | None = None) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    return parse_config(raw, seed_override)


def build_sim_config(raw: dict, seed_override: int | None = None) -> SimConfig:
    return parse_config(raw, seed_override).sim


# -------------------------------------------------------------- persistence

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_trajectory_csv(path, traj: Trajectory, cfg_hash: str) -> None:
    n = traj.n_modes
    nh = traj.norm_h()
    nv = traj.norm_v()
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"a_{k}" for k in range(1, n + 1)]
                        + ["norm_h", "norm_v"])
        for i in range(traj.n_snapshots):
            writer.writerow([_fmt(traj.times[i])]
                            + [_fmt(c) for c in traj.coeffs[i]]
                            + [_fmt(nh[i]), _fmt(nv[i])])


def write_jump_log(path, traj: Trajectory, cfg_hash: str) -> None:
    with open(path, "w") as fh:
        for ev in traj.jump_log:
            fh.write(json.dumps({
                "config_hash": cfg_hash,
                "time": ev.time,
                "mark": ev.mark,
                "pre_norm_h": ev.pre_norm_h,
            }, sort_keys=True) + "\n")


def write_manifest(path, cfg: RunConfig, seeds, outputs,
                   blowup_count: int, started: float,
                   finished: float) -> None:
    manifest = {
        "config_hash": cfg.hash,
        "artifact_version": __version__,
        "started_at": started,
        "finished_at": finished,
        "seed": cfg.sim.seed,
        "trajectory_seeds": list(seeds),
        "blowup_count": blowup_count,
        "outputs": [Path(o).name for o in outputs],
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True)
                          + "\n")


def _records_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, allow_nan=True) + "\n")


def _flat_csv(path, rows, cfg_hash: str) -> None:
    """Write homogeneous dict rows as CSV with a hash comment line."""
    rows = list(rows)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        if not rows:
            return
        names = list(rows[0].keys())
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([
                _fmt(row[k]) if isinstance(row[k], float) else row[k]
                for k in names])


# ------------------------------------------------------------------ runners

def run_simulate(cfg: RunConfig, out_dir=None) -> dict:
    """Run one trajectory and persist snapshots, jump log, and manifest."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    traj = simulate(cfg.sim)
    csv_path = out / "trajectory.csv"
    log_path = out / "jumps.jsonl"
    write_trajectory_csv(csv_path, traj, cfg.hash)
    write_jump_log(log_path, traj, cfg.hash)
    write_manifest(out / "manifest.json", cfg, [cfg.sim.seed],
                   [csv_path, log_path], 0, started, time.time())
    return {
        "config_hash": cfg.hash,
        "snapshots": traj.n_snapshots,
        "jumps": len(traj.jump_log),
        "outputs": [str(csv_path), str(log_path),
                    str(out / "manifest.json")],
    }


def _verify_jump_marks(jumps) -> tuple:
    """Deterministic mark sizes probing the jump expansion inequality."""
    if jumps is None:
        return ()
    if hasattr(jumps.marks, "rate"):
        r = jumps.marks.rate
        return tuple(-math.log(1.0 - q) / r for q in (0.1, 0.5, 0.9))
    return (jumps.marks.value,)


def _martingale_end(traj: Trajectory, lam: float, m_lambda: float,
                    hs: float) -> float:
    return float(exp_martingale_path(traj, lam, m_lambda, hs)[-1])


def run_verify(cfg: RunConfig, out_dir=None, n_workers: int = 1) -> dict:
    """Check every deterministic inequality along a simulated path.

    Per state: the drift-condition chain (geometric bound plus exact
    generator evaluation), the dissipation-term gap of the tilted Lyapunov
    family, and the jump expansion gap at fixed mark sizes.  A small
    supermartingale ensemble is also run (on n_workers processes); its
    outcome is reported but only deterministic failures count toward the
    failure total (and the exit status of the CLI).

    experiment block knobs: n_states (cap), lam (tilt), c1_override
    (negative-control corruption of the drift constant), supermartingale
    trajectories n_mart.
    """
    exp = cfg.experiment
    lam = _as_number(exp.get("lam", 0.5), "experiment.lam", positive=True)
    n_states = _as_int(exp.get("n_states", 1000), "experiment.n_states",
                       minimum=1)
    n_mart = _as_int(exp.get("n_mart", 200), "experiment.n_mart", minimum=2)

    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    constants = DriftConstants.from_specs(cfg.sim.gaussian, cfg.sim.jumps)
    override = exp.get("c1_override")
    if override is not None:
        constants = constants.corrupted(
            _as_number(override, "experiment.c1_override", positive=True))

    traj = simulate(cfg.sim)
    take = min(n_states, traj.n_snapshots)
    idx = np.linspace(0, traj.n_snapshots - 1, take).astype(int)
    marks = _verify_jump_marks(cfg.sim.jumps)

    failures = []
    checked = 0
    for i in idx:
        x = traj.state(int(i))
        t = float(traj.times[i])
        rep = drift_condition_check(x, constants, cfg.sim.gaussian,
                                    cfg.sim.jumps)
        ok = rep.satisfied if rep.chain_ok is None else rep.chain_ok
        checked += 1
        if not ok:
            failures.append({
                "t": t, "check": "drift_chain", "lhs": rep.lhs,
                "v_norm": rep.v_norm, "in_k": rep.in_k,
                "generator_margin":
                    rep.generator.margin if rep.generator else math.nan,
            })
        gap = dissipation_term_gap(x, lam)
        checked += 1
        if gap < -1e-9:
            failures.append({"t": t, "check": "dissipation_gap",
                             "lhs": gap, "v_norm": rep.v_norm,
                             "in_k": rep.in_k, "generator_margin": math.nan})
        for u in marks:
            g = jump_taylor_gap(x, u, cfg.sim.jumps, lam)
            checked += 1
            if g < -1e-9:
                failures.append({"t": t, "check": f"jump_gap_u={u:.3g}",
                                 "lhs": g, "v_norm": rep.v_norm,
                                 "in_k": rep.in_k,
                                 "generator_margin": math.nan})

    # statistical supermartingale check (reported, not a failure count)
    mart = {"lam": lam, "n": n_mart}
    if cfg.sim.jumps is not None:
        m_lambda = hypothesis_constants(cfg.sim.jumps, lam).m_lambda_est
    else:
        m_lambda = 0.0
    hs = cfg.sim.gaussian.hs_norm_sq if cfg.sim.gaussian else 0.0
    vals = np.array(require_no_blowups(ensemble(
        cfg.sim, n_mart,
        partial(_martingale_end, lam=lam, m_lambda=m_lambda, hs=hs),
        n_workers=n_workers)))
    mart["mean"] = float(vals.mean())
    mart["std_err"] = float(vals.std(ddof=1) / math.sqrt(n_mart))
    mart["within_bound"] = bool(
        mart["mean"] <= 1.0 + 3.0 * mart["std_err"])

    report = {
        "config_hash": cfg.hash,
        "states": int(take),
        "checks": checked,
        "failures": len(failures),
        "c1": constants.c1,
        "k_radius": constants.k_radius,
        "lam": lam,
        "supermartingale": mart,
    }
    (out / "verify_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    outputs = [out / "verify_report.json"]
    if failures:
        _flat_csv(out / "verify_failures.csv", failures, cfg.hash)
        outputs.append(out / "verify_failures.csv")
    write_manifest(out / "manifest.json", cfg, [cfg.sim.seed], outputs,
                   0, started, time.time())
    return report


# ------------------------------------------------------ estimate dispatch

def _est_gamma(cfg: RunConfig, exp: dict, n_workers: int):
    sim = cfg.sim
    n_traj = _as_int(exp.get("n_traj", 32), "experiment.n_traj", minimum=2)
    sep = _as_number(exp.get("separation", 2.0), "experiment.separation",
                     positive=True)
    n_points = _as_int(exp.get("n_points", 20), "experiment.n_points",
                       minimum=3)
    t_grid = np.linspace(sim.dt_save,
                         sim.t_end, n_points)
    t_grid = np.round(t_grid / sim.dt_save) * sim.dt_save
    t_grid = np.unique(t_grid)
    if sim.n_modes >= 8:
        observables = observable_dictionary(sim.n_modes)
    else:
        observables = tuple(mode_coefficient(k)
                            for k in range(1, sim.n_modes + 1))
    rep = ergodic_decay(sim, sep * basis_field(1, sim.n_modes),
                        zero_field(sim.n_modes), observables, t_grid,
                        n_traj, n_workers=n_workers)
    return [rep.to_dict()], [{"t": t, "d": d} for t, d in
                             zip(rep.extra["t_grid"],
                                 rep.extra["d_values"])]


def _est_sigma2(cfg: RunConfig, exp: dict, n_workers: int):
    obs = parse_observable(exp.get("observable", {"kind": "mode", "k": 1}),
                           "experiment.observable")
    burn = _as_number(exp.get("burn_in", 0.0), "experiment.burn_in",
                      nonnegative=True)
    traj = simulate(cfg.sim)
    n_batches = exp.get("n_batches")
    if n_batches is not None:
        n_batches = _as_int(n_batches, "experiment.n_batches", minimum=30)
    rep = sigma_squared(traj, obs, burn_in=burn, n_batches=n_batches)
    return [rep.to_dict()], [{"name": rep.name, "value": rep.value,
                              "half_width": rep.half_width, "n": rep.n}]


def _time_average(cfg: RunConfig, obs: Observable, traj: Trajectory,
                  burn_frac=0.1) -> float:
    """Long-run mean of obs after burn-in along traj, the path of cfg.sim."""
    reports = path_averages(traj, burn_frac * cfg.sim.t_end, [obs])
    return reports[obs.name].value


def _est_mdp(cfg: RunConfig, exp: dict, n_workers: int):
    obs = parse_observable(exp.get("observable", {"kind": "mode", "k": 1}),
                           "experiment.observable")
    exponent = _as_number(exp.get("exponent", 0.25), "experiment.exponent")
    prefactor = _as_number(exp.get("prefactor", 1.0),
                           "experiment.prefactor", positive=True)
    mu_ref = exp.get("mu_reference")
    flags = []
    if mu_ref is not None:
        mu_ref = _as_number(mu_ref, "experiment.mu_reference")
    traj = simulate(cfg.sim)
    if mu_ref is None:
        mu_ref = _time_average(cfg, obs, traj)
        flags.append("self_referenced_mean")
    mdp_cfg = MdpConfig(obs, mu_ref, exponent=exponent, prefactor=prefactor)
    value = mdp_functional(traj, mdp_cfg)
    rec = {
        "name": f"mdp_{obs.name}",
        "value": value,
        "mu_reference": mu_ref,
        "exponent": exponent,
        "prefactor": prefactor,
        "t_end": cfg.sim.t_end,
        "flags": flags,
    }
    return [rec], [rec]


def _est_hitting(cfg: RunConfig, exp: dict, n_workers: int):
    sim = cfg.sim
    n_traj = _as_int(exp.get("n_traj", 200), "experiment.n_traj", minimum=2)
    t_max = _as_number(exp.get("t_max", sim.t_end), "experiment.t_max",
                       positive=True)
    constants = DriftConstants.from_specs(sim.gaussian, sim.jumps)
    v_norm = _as_number(exp.get("initial_v_norm", 2.0 * constants.k_radius),
                        "experiment.initial_v_norm", positive=True)
    x0 = (v_norm / math.pi) * basis_field(1, sim.n_modes)
    summary = hitting_times(replace(sim, x0=x0, t_end=t_max), constants,
                            n_traj, t_max, n_workers=n_workers)
    d = summary.to_dict()
    d["config_hash"] = cfg.hash
    rows = [{"t": t, "log_survival": s}
            for t, s in zip(d["tail_times"], d["tail_log_survival"])]
    return [d], rows


def _est_expmoment(cfg: RunConfig, exp: dict, n_workers: int):
    theta = _as_number(exp.get("theta", 0.5), "experiment.theta")
    lam = _as_number(exp.get("lam", 0.5), "experiment.lam")
    n_traj = _as_int(exp.get("n_traj", 200), "experiment.n_traj", minimum=2)
    rep = exp_integral_moment(cfg.sim, theta, lam, n_traj,
                              n_workers=n_workers)
    return [rep.to_dict()], [{"name": rep.name, "value": rep.value,
                              "half_width": rep.half_width,
                              "bound": rep.extra["bound"]}]


def _est_occupation(cfg: RunConfig, exp: dict, n_workers: int):
    obs = parse_observable(exp.get("observable", {"kind": "mode", "k": 1}),
                           "experiment.observable")
    bins = exp.get("bins", 40)
    if isinstance(bins, list):
        bins = np.array([_as_number(b, "experiment.bins[]") for b in bins])
    else:
        bins = _as_int(bins, "experiment.bins", minimum=1)
    traj = simulate(cfg.sim)
    hist = occupation_measure(traj, obs, bins)
    rec = hist.to_dict()
    rec["config_hash"] = cfg.hash
    rows = [{"left": le, "right": rt, "mass": m}
            for le, rt, m in zip(hist.edges[:-1], hist.edges[1:],
                                 hist.masses)]
    return [rec], rows


def _est_tailprobe(cfg: RunConfig, exp: dict, n_workers: int):
    obs = parse_observable(exp.get("observable", {"kind": "mode", "k": 1}),
                           "experiment.observable")
    r_grid = exp.get("r_grid", [0.0, 0.05, 0.1])
    t_grid = exp.get("t_grid", [cfg.sim.t_end])
    n_traj = _as_int(exp.get("n_traj", 100), "experiment.n_traj", minimum=2)
    mu_ref = exp.get("mu_reference")
    if mu_ref is None:
        mu_ref = _time_average(cfg, obs, simulate(cfg.sim))
    else:
        mu_ref = _as_number(mu_ref, "experiment.mu_reference")
    rows = deviation_tail_probe(cfg.sim, obs, r_grid, t_grid, n_traj,
                                mu_ref, n_workers=n_workers)
    recs = [dict(r, config_hash=cfg.hash, mu_reference=mu_ref)
            for r in rows]
    return recs, list(rows)


_EST_RUNNERS = {
    "gamma": _est_gamma,
    "sigma2": _est_sigma2,
    "mdp": _est_mdp,
    "hitting": _est_hitting,
    "expmoment": _est_expmoment,
    "occupation": _est_occupation,
    "tailprobe": _est_tailprobe,
}


def run_estimate(cfg: RunConfig, estimator: str, out_dir=None,
                 n_workers: int = 1) -> dict:
    """Dispatch one named estimator and persist its records.

    Unknown names raise ConfigError listing the valid set.  Records go to
    estimate.jsonl (one record per line, each carrying the config hash) and
    a flat CSV table for plotting.
    """
    if estimator not in _EST_RUNNERS:
        raise ConfigError(
            f"unknown estimator {estimator!r}; valid names: "
            + ", ".join(ESTIMATORS))
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    records, rows = _EST_RUNNERS[estimator](cfg, cfg.experiment, n_workers)
    for rec in records:
        rec.setdefault("config_hash", cfg.hash)
        rec.setdefault("estimator", estimator)

    jsonl = out / "estimate.jsonl"
    table = out / "estimate.csv"
    _records_jsonl(jsonl, records)
    _flat_csv(table, rows, cfg.hash)
    write_manifest(out / "manifest.json", cfg, [cfg.sim.seed],
                   [jsonl, table], 0, started, time.time())
    return {"config_hash": cfg.hash, "estimator": estimator,
            "records": records,
            "outputs": [str(jsonl), str(table), str(out / "manifest.json")]}
