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
      "experiment": {"kind": "estimate", "burn_in": 10.0, ...},
      "seed": 0,
      "output": {"directory": "runs"}
    }

"gaussian" and "jump" may be null (missing blocks mean the corresponding
forcing is off).  _KEYS lists the keys of each block (per kind where its
"kind" switches them), and any other key is a ConfigError.  "experiment"
takes the fields of verify and of every estimator, so one file serves each
command; a runner reads its own fields, with their defaults, through
_field, and parse_config parses experiment.observable once for every
command.  Every output record embeds the config content hash, which
is invariant under key reordering; the output block and an explicit seed
override do change the effective config and therefore the hash seen in the
outputs reflects the config as run (with the seed actually used).

A runner computes its files' contents and _run_recorded alone touches the
output directory: it removes the command's old files, writes the new ones
through _write and, whatever the run's end, manifest.json, so the directory
holds the last run's manifest and exactly the files that manifest lists,
or none of its files if the manifest cannot be written.
Numeric CSV output uses 17 significant digits so that repeated runs are
byte-identical; manifests carry timestamps and are excluded from the
byte-identity contract.
"""

import csv
import hashlib
import json
import math
import os
import platform
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import SpectralField, basis_field, random_field, \
    zero_field, record, replace
from .noise import (
    GaussianSpec, JumpSpec, ExponentialMarks, DeterministicMarks,
    ConstantDirection, SaturatedDirection, hypothesis_constants,
)
from .integrator import SimConfig, Trajectory, simulate, ensemble, \
    derive_seed, save_count, BlowUpError, EnsembleBlowUpError
from .lyapunov import (
    DEFAULT_TOL, DriftConstants, drift_condition_check, dissipation_term_gap,
    jump_taylor_gap, exp_martingale_path, exp_integral_moment, tilt_constants,
)
from .ergodics import (
    Observable, mode_coefficient, norm_h_observable,
    norm_h_squared_observable, psi_observable, tanh_mode_observable,
    observable_dictionary, occupation_measure, sigma_squared, ergodic_decay,
    MdpConfig, mdp_functional, hitting_times, deviation_tail_probe,
    SeriesTooShort, _batch_series, _sorted_unique,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "ESTIMATORS",
    "load_config",
    "parse_config",
    "config_hash",
    "run_simulate",
    "run_verify",
    "run_estimate",
]

# stream index reserved for drawing randomized initial conditions, far above
# any plausible trajectory index
_INITIAL_STATE_STREAM = 2 ** 40

# ceiling of the counts model.n_modes, experiment.bins and
# experiment.n_points: an array of one float each is then 8 MB at most; it
# does not bound the snapshots, whose allocation _Kernel.run checks
_MAX_COUNT = 10 ** 6

# Each observable kind's factory and the keys it takes beside "kind"; the
# factory takes k, then c, where the kind has them.
_OBSERVABLES = {"mode": (mode_coefficient, ("k",)),
                "tanh_mode": (tanh_mode_observable, ("k", "c")),
                "norm_h": (norm_h_observable, ()),
                "norm_h_sq": (norm_h_squared_observable, ()),
                "psi": (psi_observable, ())}

# The keys each block may hold, by path ("" is the top level); a block that
# its "kind" switches maps each kind to the keys it takes beside "kind".
_KEYS = {
    "": ("model", "gaussian", "jump", "seed", "experiment", "output"),
    "model": ("n_modes", "dt", "t_end", "dt_save", "nonlinearity",
              "initial_condition"),
    "model.initial_condition": {"zero": (), "modes": ("coefficients",),
                                "scaled_random": ("norm",)},
    "gaussian": ("betas", "decay"),
    "gaussian.decay": ("amplitude", "exponent", "normalize_to"),
    "jump": ("intensity", "marks", "direction"),
    "jump.marks": {"exponential": ("rate",), "deterministic": ("value",)},
    "jump.direction": {"constant": ("coefficients",),
                       "constant_mode": ("mode", "amplitude"),
                       "saturated": ("mode", "coefficients", "amplitude")},
    "experiment": ("kind", "n_states", "n_mart", "lam", "c1_override",
                   "n_traj", "separation", "n_points", "observable",
                   "burn_in", "n_batches", "exponent", "prefactor",
                   "mu_reference", "t_max", "initial_v_norm", "theta",
                   "bins", "r_grid", "t_grid"),
    "experiment.observable": {kind: keys for kind, (_, keys)
                              in _OBSERVABLES.items()},
    "output": ("directory",),
}
_REQUIRED = object()


class ConfigError(ValueError):
    """Malformed run configuration; message carries the offending path."""


def _as_number(value, path: str, positive=False, nonnegative=False,
               below=None, save_interval=None) -> float:
    """value as a float; save_interval requires a positive integer
    multiple of it (a time on the save grid past t = 0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: too large for a float") from None
    if positive and not v > 0:
        raise ConfigError(f"{path}: must be positive, got {v}")
    if nonnegative and v < 0:
        raise ConfigError(f"{path}: must be nonnegative, got {v}")
    if below is not None and not v < below:
        raise ConfigError(f"{path}: must be below {below}, got {v}")
    if save_interval is not None and \
            not (save_count(v, save_interval) or 0) >= 1:
        raise ConfigError(f"{path}: must be a positive integer multiple of "
                          f"model.dt_save = {save_interval}, got {v}")
    return v


def _as_int(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _as_number_list(value, path: str, **bounds) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list, got {value!r}")
    return [_as_number(v, f"{path}[{i}]", **bounds)
            for i, v in enumerate(value)]


def _as_type(value, path: str, kind=str, expected="a string"):
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {expected}")
    return value


def _field(block: dict, path: str, key: str, parse=_as_number,
           default=_REQUIRED, **bounds):
    """block[key] checked by parse; a missing key takes the default, if
    any, which is parsed too; a default of None also admits a null."""
    value = block.get(key, default)
    where = f"{path}.{key}" if path else key
    if value is _REQUIRED:
        raise ConfigError(f"{where}: missing required field")
    if value is None and default is None:
        return None
    return parse(value, where, **bounds)


def _require_finite(value, path: str) -> None:
    """Raise ConfigError naming the first NaN or infinity inside value."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    if isinstance(value, dict):
        for k, v in value.items():
            _require_finite(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _require_finite(v, f"{path}[{i}]")


def _as_block(value, path: str, keys=None) -> dict:
    """value as an object with no key outside keys, by default _KEYS[path]
    (_kind checks a block that its kind switches)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    keys = _KEYS.get(path) if keys is None else keys
    if isinstance(keys, tuple):
        for key in value:
            if key not in keys:
                where = f"{path}.{key}" if path else key
                raise ConfigError(f"{where}: unknown field")
    return value


def _kind(block: dict, path: str, noun: str, table=None, default=_REQUIRED):
    """The kind of a block in _KEYS[table or path], once no key of the
    block lies outside those of its kind."""
    kinds = _KEYS[table or path]
    kind = _field(block, path, "kind", _as_type, default)
    if kind not in kinds:
        raise ConfigError(f"{path}.kind: unknown {noun} {kind!r}")
    _as_block(block, path, ("kind",) + kinds[kind])
    return kind


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

def _coefficients(block: dict, path: str, n_modes: int) -> SpectralField:
    """The field of block's coefficients, zero past their length."""
    coeffs = _field(block, path, "coefficients", _as_number_list)
    if len(coeffs) > n_modes:
        raise ConfigError(f"{path}.coefficients: longer than n_modes")
    arr = np.zeros(n_modes)
    arr[:len(coeffs)] = coeffs
    return SpectralField(arr)


def _parse_gaussian(block, n_modes: int) -> GaussianSpec | None:
    if block is None:
        return None
    if ("betas" in block) == ("decay" in block):
        raise ConfigError("gaussian: need exactly one of 'betas' and 'decay'")
    if "betas" in block:
        betas = _field(block, "gaussian", "betas", _as_number_list,
                       nonnegative=True)
        if len(betas) != n_modes:
            raise ConfigError("gaussian.betas: expected a list of length "
                              f"n_modes={n_modes}")
        return GaussianSpec(np.array(betas))
    path = "gaussian.decay"
    d = _field(block, "gaussian", "decay", _as_block)
    return GaussianSpec.power_decay(
        n_modes, _field(d, path, "amplitude", default=1.0, nonnegative=True),
        _field(d, path, "exponent", default=1.0),
        _field(d, path, "normalize_to", default=None, positive=True))


def _parse_jump(block, n_modes: int) -> JumpSpec | None:
    if block is None:
        return None
    intensity = _field(block, "jump", "intensity", nonnegative=True)
    path = "jump.marks"
    m = _field(block, "jump", "marks", _as_block)
    if _kind(m, path, "mark law") == "exponential":
        marks = ExponentialMarks(_field(m, path, "rate", positive=True))
    else:
        marks = DeterministicMarks(_field(m, path, "value", positive=True))
    path = "jump.direction"
    d = _field(block, "jump", "direction", _as_block)
    kind = _kind(d, path, "direction")
    if "mode" in d or kind == "constant_mode":
        if "coefficients" in d:
            raise ConfigError(f"{path}: takes mode or coefficients, not both")
        k = _field(d, path, "mode", _as_int, minimum=1)
        if k > n_modes:
            raise ConfigError(f"{path}.mode: {k} exceeds n_modes={n_modes}")
        g0 = _field(d, path, "amplitude", default=1.0) \
            * basis_field(k, n_modes)
    else:
        g0 = _coefficients(d, path, n_modes)
    if kind != "saturated":
        return JumpSpec(intensity, marks, ConstantDirection(g0))
    amp = _field(d, path, "amplitude", default=1.0, positive=True)
    return JumpSpec(intensity, marks, SaturatedDirection(g0, amp))


def _parse_initial(block, n_modes: int, seed: int) -> SpectralField | None:
    if block is None:
        return None
    path = "model.initial_condition"
    kind = _kind(block, path, "kind", default="zero")
    if kind == "modes":
        return _coefficients(block, path, n_modes)
    if kind == "scaled_random":
        norm = _field(block, path, "norm", positive=True)
        rng = np.random.default_rng(derive_seed(seed, _INITIAL_STATE_STREAM))
        return random_field(n_modes, rng, norm=norm)
    return None


def parse_observable(block, path: str = "observable",
                     n_modes: int | None = None) -> Observable:
    """The observable a config block names; no block means mode 1.

    Given n_modes, a mode index k past it is a ConfigError.
    """
    if block is None:
        return mode_coefficient(1)
    make, keys = _OBSERVABLES[_kind(_as_block(block, path), path,
                                    "observable", "experiment.observable")]
    args = []
    if "k" in keys:
        k = _field(block, path, "k", _as_int, minimum=1)
        if n_modes is not None and k > n_modes:
            raise ConfigError(f"{path}.k: {k} exceeds n_modes={n_modes}")
        args.append(k)
    if "c" in keys:
        args.append(_field(block, path, "c", default=1.0, positive=True))
    return make(*args)


@record
class RunConfig:
    """Parsed run description plus the raw dict it came from."""

    raw: dict
    sim: SimConfig
    experiment: dict
    observable: Observable       # experiment.observable, parsed
    hash: str
    out_dir: str


def parse_config(raw: dict, seed_override: int | None = None) -> RunConfig:
    """Validate a raw config dict and build the simulation config."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    _require_finite(raw, "")
    raw = dict(raw)
    if seed_override is not None:
        raw["seed"] = int(seed_override)
    _as_block(raw, "")

    model = _field(raw, "", "model", _as_block)
    n_modes = _field(model, "model", "n_modes", _as_int, minimum=1,
                     maximum=_MAX_COUNT)
    dt = _field(model, "model", "dt", positive=True)
    t_end = _field(model, "model", "t_end", positive=True)
    dt_save = _field(model, "model", "dt_save", default=dt, positive=True)
    nonlin = _field(model, "model", "nonlinearity", _as_type, True,
                    kind=bool, expected="true or false")
    seed = _field(raw, "", "seed", _as_int, 0, minimum=0)

    gaussian = _parse_gaussian(_field(raw, "", "gaussian", _as_block, None),
                               n_modes)
    jumps = _parse_jump(_field(raw, "", "jump", _as_block, None), n_modes)
    x0 = _parse_initial(_field(model, "model", "initial_condition",
                               _as_block, None), n_modes, seed)

    try:
        sim = SimConfig(n_modes=n_modes, dt=dt, t_end=t_end,
                        dt_save=dt_save, gaussian=gaussian, jumps=jumps,
                        nonlinearity_on=nonlin, seed=seed, x0=x0)
    except ValueError as err:
        raise ConfigError(f"model: {err}") from err

    experiment = _field(raw, "", "experiment", _as_block, {"kind": "simulate"})
    kind = _field(experiment, "experiment", "kind", _as_type, "simulate")
    if kind not in ("simulate", "verify", "estimate"):
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}")
    observable = parse_observable(experiment.get("observable"),
                                  "experiment.observable", n_modes)

    output = _field(raw, "", "output", _as_block, None) or {}
    out_dir = _field(output, "output", "directory", _as_type, "runs")
    return RunConfig(raw=raw, sim=sim, experiment=experiment,
                     observable=observable, hash=config_hash(raw),
                     out_dir=out_dir)


def load_config(path, seed_override: int | None = None) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{path}: not a file" if p.exists()
                          else f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err})") from err
    except OSError as err:
        raise ConfigError(f"{path}: cannot read ({err.strerror or err})") \
            from err
    return parse_config(raw, seed_override)


# -------------------------------------------------------------- persistence

def _write(path: Path, content, cfg_hash: str) -> None:
    """Write content in the format path's suffix names: for .csv, dict rows
    under a "# config_hash=" line and a header taken from the first row,
    floats to 17 significant digits (rows may be a generator, written as
    it yields); for .jsonl, one record per line; for .json, one object.  A
    write that fails leaves no file at path and raises ValueError."""
    try:
        with open(path, "w",
                  newline="" if path.suffix == ".csv" else None) as fh:
            if path.suffix == ".json":
                fh.write(json.dumps(content, indent=2, sort_keys=True) + "\n")
            elif path.suffix == ".jsonl":
                for rec in content:
                    fh.write(json.dumps(rec, sort_keys=True, allow_nan=True)
                             + "\n")
            else:
                fh.write(f"# config_hash={cfg_hash}\n")
                writer = csv.writer(fh)
                names = None
                for row in content:
                    if names is None:
                        names = list(row)
                        writer.writerow(names)
                    writer.writerow([
                        f"{float(row[k]):.17g}" if isinstance(row[k], float)
                        else row[k]
                        for k in names])
    except OSError as err:
        path.unlink(missing_ok=True)
        raise ValueError(f"cannot write {path}: {err.strerror}") from err


def _run_recorded(cfg: RunConfig, out_dir, names, produce,
                  workers: int = 1):
    """Run produce(out) -> (result, files) and persist the files.

    out is the output directory, made here; files maps each file name
    produce writes, one of names, to its content, or to None for a file
    this run does not write.  Every run leaves manifest.json and the files
    it lists as "outputs", and no other file of names: a run whose produce
    fails lists none, one whose write fails lists the files before it, and
    a BlowUpError's trajectories count as its blowup_count.  A failed
    manifest write removes the files written before it, so the directory
    holds none of the run's files, and raises only if the run raised
    nothing before it.  The
    manifest also records what the run ran on: the Python and numpy
    versions, the OPENBLAS_NUM_THREADS value in effect (null if unset) and
    workers, the cap on the processes of its ensembles (--threads), which
    ensemble lowers for a single block or for work under its fork grain.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # Each output is a new file: an old one is unlinked, not truncated,
        # so a hard link of it keeps its bytes.  On ext4 a truncation waited
        # for the old file's recent writes to reach the disk: verify into
        # the directory of its previous run took 221-240 ms against 109-122
        # ms into a new one, and 109-122 ms either way once the old files
        # were unlinked (2-CPU host, median of 10 runs).
        for name in (*names, "manifest.json"):
            (out / name).unlink(missing_ok=True)
    except OSError as err:
        raise ValueError(f"cannot use {out} as the output directory: "
                         f"{err.strerror}") from err
    started, written, blowups, failed = time.time(), [], 0, True
    try:
        result, files = produce(out)
        for name, content in files.items():
            if content is not None:
                _write(out / name, content, cfg.hash)
                written.append(name)
        failed = False
        return result
    except BlowUpError as err:
        blowups = len(err.records) \
            if isinstance(err, EnsembleBlowUpError) else 1
        raise
    finally:
        try:
            _write(out / "manifest.json", {
                "config_hash": cfg.hash,
                "artifact_version": __version__,
                "started_at": started,
                "finished_at": time.time(),
                "seed": cfg.sim.seed,
                "blowup_count": blowups,
                "outputs": written,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                "workers": workers,
            }, cfg.hash)
        except ValueError:
            for name in written:          # no manifest lists them
                (out / name).unlink(missing_ok=True)
            if not failed:
                raise


# ------------------------------------------------------------------ runners

def run_simulate(cfg: RunConfig, out_dir=None) -> dict:
    """Run one trajectory and persist snapshots, jump log, and manifest."""

    def produce(out):
        traj = simulate(cfg.sim)
        columns = (["t"] + [f"a_{k}" for k in range(1, traj.n_modes + 1)]
                   + ["norm_h", "norm_v"])
        table = np.column_stack((traj.times, traj.coeffs, traj.norm_h(),
                                 traj.norm_v()))
        files = {
            "trajectory.csv": (dict(zip(columns, row))
                               for row in table.tolist()),
            "jumps.jsonl": ({"config_hash": cfg.hash, "time": ev.time,
                             "mark": ev.mark, "pre_norm_h": ev.pre_norm_h}
                            for ev in traj.jump_log),
        }
        return {
            "config_hash": cfg.hash,
            "snapshots": traj.n_snapshots,
            "jumps": len(traj.jump_log),
            "outputs": [str(out / name) for name in (*files, "manifest.json")],
        }, files

    return _run_recorded(cfg, out_dir, ("trajectory.csv", "jumps.jsonl"),
                         produce)


def _verify_jump_marks(jumps) -> tuple:
    """Deterministic mark sizes probing the jump expansion inequality."""
    if jumps is None:
        return ()
    if hasattr(jumps.marks, "rate"):
        r = jumps.marks.rate
        return tuple(-math.log(1.0 - q) / r for q in (0.1, 0.5, 0.9))
    return (jumps.marks.value,)


def _tilt(exp: dict, jumps) -> float:
    """experiment.lam, below the jump forcing's largest tilt a0_max."""
    lam = _field(exp, "experiment", "lam", default=0.5, positive=True)
    a0_max = hypothesis_constants(jumps, 0.0).a0_max
    if lam >= a0_max:
        raise ConfigError(f"experiment.lam: {lam} "
                          f"{'exceeds' if lam > a0_max else 'reaches'} the "
                          f"admissible maximum {a0_max} of the jump forcing")
    return lam


def _martingale_end(traj: Trajectory, lam: float, m_lambda: float,
                    hs: float) -> float:
    return float(exp_martingale_path(traj, lam, m_lambda, hs)[-1])


def run_verify(cfg: RunConfig, out_dir=None, n_workers: int = 1) -> dict:
    """Check every deterministic inequality along a simulated path.

    Per state: the drift-condition chain (geometric bound plus exact
    generator evaluation), the dissipation-term gap of the tilted Lyapunov
    family, and the jump expansion gap at fixed mark sizes.  A small
    supermartingale ensemble is also run (on at most n_workers
    processes); its outcome is reported but only deterministic failures
    count toward the failure total (and the exit status of the CLI).  The
    checked path, the one simulate(cfg.sim) gives, is stepped as one more
    row of the ensemble's first block, in this process.  If it blows up the run
    raises BlowUpError whatever the supermartingale paths did; otherwise
    their blow-ups raise EnsembleBlowUpError.

    experiment block knobs: n_states (cap), lam (tilt), c1_override
    (negative-control corruption of the drift constant), supermartingale
    trajectories n_mart.
    """

    def produce(out):
        exp = cfg.experiment
        lam = _tilt(exp, cfg.sim.jumps)
        n_states = _field(exp, "experiment", "n_states", _as_int, 1000,
                          minimum=1)
        n_mart = _field(exp, "experiment", "n_mart", _as_int, 200,
                        minimum=2)
        constants = DriftConstants.from_specs(cfg.sim.gaussian,
                                              cfg.sim.jumps)
        override = _field(exp, "experiment", "c1_override", default=None,
                          positive=True)
        if override is not None:
            constants = constants.corrupted(override)

        # the checked path rides as one more row of the first block of the
        # supermartingale ensemble
        m_lambda, hs = tilt_constants(cfg.sim, lam)
        traj, ends = ensemble(
            cfg.sim, n_mart,
            partial(_martingale_end, lam=lam, m_lambda=m_lambda, hs=hs),
            n_workers=n_workers, main=True)
        take = min(n_states, traj.n_snapshots)
        idx = np.linspace(0, traj.n_snapshots - 1, take).astype(int)
        states = traj.coeffs[idx]
        marks = _verify_jump_marks(cfg.sim.jumps)

        rep = drift_condition_check(states, constants, cfg.sim.gaussian,
                                    cfg.sim.jumps)
        nan = np.full(take, math.nan)
        gap = dissipation_term_gap(states, lam)
        # (name, failed, lhs, generator margin) per check, each per state,
        # in the order a state's failure rows are written
        checks = [("drift_chain", ~rep.ok, rep.lhs,
                   nan if rep.generator is None else rep.generator.margin),
                  ("dissipation_gap", gap < -DEFAULT_TOL, gap, nan)]
        for u in marks:
            g = jump_taylor_gap(states, u, cfg.sim.jumps, lam)
            checks.append((f"jump_gap_u={u:.3g}", g < -DEFAULT_TOL, g, nan))
        checked = take * len(checks)

        failures = []
        failed = np.stack([c[1] for c in checks], axis=1)
        for i, c in zip(*np.nonzero(failed)):
            name, _, lhs, margin = checks[c]
            failures.append({
                "t": float(traj.times[idx[i]]), "check": name,
                "lhs": float(lhs[i]), "v_norm": float(rep.v_norm[i]),
                "in_k": bool(rep.in_k[i]),
                "generator_margin": float(margin[i])})

        # statistical supermartingale check (reported, not a failure count)
        mart = {"lam": lam, "n": n_mart}
        vals = np.array(ends)
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
        return report, {"verify_report.json": report,
                        "verify_failures.csv": failures or None}

    return _run_recorded(cfg, out_dir,
                         ("verify_report.json", "verify_failures.csv"),
                         produce, n_workers)


# ------------------------------------------------------ estimate dispatch

def _est_gamma(cfg: RunConfig, exp: dict, n_workers: int):
    sim = cfg.sim
    n_traj = _field(exp, "experiment", "n_traj", _as_int, 32, minimum=2)
    sep = _field(exp, "experiment", "separation", default=2.0, positive=True)
    n_points = _field(exp, "experiment", "n_points", _as_int, 20, minimum=3,
                      maximum=_MAX_COUNT)
    t_grid = np.linspace(sim.dt_save,
                         sim.t_end, n_points)
    t_grid = np.round(t_grid / sim.dt_save) * sim.dt_save
    t_grid = _sorted_unique(t_grid)
    rep = ergodic_decay(sim, sep * basis_field(1, sim.n_modes),
                        zero_field(sim.n_modes),
                        observable_dictionary(sim.n_modes), t_grid,
                        n_traj, n_workers=n_workers)
    return [rep.to_dict()], [{"t": t, "d": d} for t, d in
                             zip(rep.extra["t_grid"],
                                 rep.extra["d_values"])]


def _est_sigma2(cfg: RunConfig, exp: dict, n_workers: int):
    burn = _field(exp, "experiment", "burn_in", default=0.0,
                  nonnegative=True)
    n_batches = _field(exp, "experiment", "n_batches", _as_int, None,
                       minimum=30)
    traj = simulate(cfg.sim)
    try:
        rep = sigma_squared(traj, cfg.observable, burn_in=burn,
                            n_batches=n_batches)
    except SeriesTooShort as err:
        raise _short_path(cfg, f"the batch means after experiment.burn_in "
                          f"({err})", "lengthen model.t_end, shorten "
                          "experiment.burn_in or set fewer "
                          "experiment.n_batches (at least 30)") from err
    return [rep.to_dict()], [{"name": rep.name, "value": rep.value,
                              "half_width": rep.half_width, "n": rep.n}]


def _time_average(cfg: RunConfig, traj: Trajectory) -> float:
    """Long-run mean of cfg's observable along traj, the path of cfg.sim,
    after a burn-in of a tenth of t_end: the mean of its batch means."""
    try:
        return float(_batch_series(traj, cfg.observable,
                                   0.1 * cfg.sim.t_end)[3].mean())
    except SeriesTooShort as err:
        raise _short_path(cfg, f"the self-referenced mean ({err})",
                          "set experiment.mu_reference or lengthen "
                          "model.t_end") from err


def _short_path(cfg: RunConfig, what: str, remedy: str) -> ConfigError:
    """The error for a path of cfg.sim too short for what."""
    return ConfigError(f"model.t_end: a path of length {cfg.sim.t_end} is "
                       f"too short for {what}; {remedy}")


def _est_mdp(cfg: RunConfig, exp: dict, n_workers: int):
    obs = cfg.observable
    exponent = _field(exp, "experiment", "exponent", default=0.25,
                      positive=True, below=0.5)
    prefactor = _field(exp, "experiment", "prefactor", default=1.0,
                       positive=True)
    mu_ref = _field(exp, "experiment", "mu_reference", default=None)
    flags = []
    traj = simulate(cfg.sim)
    if mu_ref is None:
        mu_ref = _time_average(cfg, traj)
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
    n_traj = _field(exp, "experiment", "n_traj", _as_int, 200, minimum=2)
    t_max = _field(exp, "experiment", "t_max", default=sim.t_end,
                   save_interval=sim.dt_save)
    constants = DriftConstants.from_specs(sim.gaussian, sim.jumps)
    v_norm = _field(exp, "experiment", "initial_v_norm",
                    default=2.0 * constants.k_radius, positive=True)
    x0 = (v_norm / math.pi) * basis_field(1, sim.n_modes)
    summary = hitting_times(replace(sim, x0=x0, t_end=t_max), constants,
                            n_traj, n_workers=n_workers)
    d = summary.to_dict()
    rows = [{"t": t, "log_survival": s}
            for t, s in zip(d["tail_times"], d["tail_log_survival"])]
    return [d], rows


def _est_expmoment(cfg: RunConfig, exp: dict, n_workers: int):
    theta = _field(exp, "experiment", "theta", default=0.5, positive=True,
                   below=1.0)
    lam = _tilt(exp, cfg.sim.jumps)
    n_traj = _field(exp, "experiment", "n_traj", _as_int, 200, minimum=2)
    rep = exp_integral_moment(cfg.sim, theta, lam, n_traj,
                              n_workers=n_workers)
    if not math.isfinite(rep.value):
        raise ValueError(f"model.t_end: the estimate of E exp(theta lam "
                         f"int ||X||_V dt) to t_end = {cfg.sim.t_end} is "
                         f"beyond the double range")
    return [rep.to_dict()], [{"name": rep.name, "value": rep.value,
                              "half_width": rep.half_width,
                              "bound": rep.extra["bound"]}]


def _est_occupation(cfg: RunConfig, exp: dict, n_workers: int):
    if isinstance(exp.get("bins"), list):
        bins = _field(exp, "experiment", "bins", _as_number_list)
        if len(bins) < 2 or any(b >= c for b, c in zip(bins, bins[1:])):
            raise ConfigError(f"experiment.bins: expected at least 2 "
                              f"strictly increasing edges, got {bins}")
        bins = np.array(bins)
    else:
        bins = _field(exp, "experiment", "bins", _as_int, 40, minimum=1,
                      maximum=_MAX_COUNT)
    traj = simulate(cfg.sim)
    hist = occupation_measure(traj, cfg.observable, bins)
    rec = hist.to_dict()
    rows = [{"left": le, "right": rt, "mass": m}
            for le, rt, m in zip(hist.edges[:-1], hist.edges[1:],
                                 hist.masses)]
    return [rec], rows


def _est_tailprobe(cfg: RunConfig, exp: dict, n_workers: int):
    r_grid = _field(exp, "experiment", "r_grid", _as_number_list,
                    [0.0, 0.05, 0.1], nonnegative=True)
    t_grid = _field(exp, "experiment", "t_grid", _as_number_list,
                    [cfg.sim.t_end], save_interval=cfg.sim.dt_save)
    n_traj = _field(exp, "experiment", "n_traj", _as_int, 100, minimum=2)
    mu_ref = _field(exp, "experiment", "mu_reference", default=None)
    if mu_ref is None:
        mu_ref = _time_average(cfg, simulate(cfg.sim))
    rows = deviation_tail_probe(cfg.sim, cfg.observable, r_grid, t_grid,
                                n_traj, mu_ref, n_workers=n_workers)
    return [dict(r, mu_reference=mu_ref) for r in rows], list(rows)


_EST_RUNNERS = {
    "gamma": _est_gamma,
    "sigma2": _est_sigma2,
    "mdp": _est_mdp,
    "hitting": _est_hitting,
    "expmoment": _est_expmoment,
    "occupation": _est_occupation,
    "tailprobe": _est_tailprobe,
}
ESTIMATORS = tuple(_EST_RUNNERS)


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

    def produce(out):
        records, rows = _EST_RUNNERS[estimator](cfg, cfg.experiment,
                                                n_workers)
        for rec in records:
            rec.setdefault("config_hash", cfg.hash)
            rec.setdefault("estimator", estimator)
        files = {"estimate.jsonl": records, "estimate.csv": rows}
        return {"config_hash": cfg.hash, "estimator": estimator,
                "records": records,
                "outputs": [str(out / name)
                            for name in (*files, "manifest.json")]}, files

    return _run_recorded(cfg, out_dir, ("estimate.jsonl", "estimate.csv"),
                         produce, n_workers)
