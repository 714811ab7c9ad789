"""Time stepping for the truncated stochastic Burgers dynamics.

The mild-form step treats the linear part exactly.  Over a jump-free substep
of length h the update per mode k (rate alpha_k = (pi k)^2) is

    a_k  <-  e^(-alpha_k h) a_k
           + phi_k(h) [B(x) + compensator]_k
           + e^(-alpha_k h) beta_k sqrt(h) xi_k,

with phi_k(h) = (1 - e^(-alpha_k h)) / alpha_k, the exact integral of the
semigroup against a drift held constant on the substep.  Holding the drift
constant is the only discretisation: with the advection term off and a
state-independent jump direction the scheme reproduces the closed-form
piecewise mild solution to roundoff, which the tests exploit as an oracle.

Jump events are placed at their exact sampled times by splitting the
enclosing step at each event; the displacement G(x-) u is applied to the
pre-event state.  Event times and marks are drawn up front from a dedicated
stream, so the Gaussian stream ordering never depends on where events land.

Paths are stepped in lockstep as the rows of one (R, N) state: simulate is
a batch of one and ensemble steps blocks of BLOCK_ROWS rows.  Every row
keeps its own seed streams, only the rows with an event in a step are split
at it, and every operation gives a row the same bits whatever the other
rows are, so a path is the same alone, in any block and on any worker.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .spectral import SpectralField, mode_rates, _quadratic_term
from .noise import GaussianSpec, JumpSpec, sample_jump_times

__all__ = [
    "BlowUpError",
    "EnsembleBlowUpError",
    "BlowUp",
    "SimConfig",
    "JumpEvent",
    "Trajectory",
    "step",
    "simulate",
    "ensemble",
    "derive_seed",
    "require_no_blowups",
]

BLOWUP_NORM = 1e6
# Rows stepped together by ensemble, and the unit of work of its pool.
BLOCK_ROWS = 100
# Gaussian draws held at once per block (rows x steps x modes), which bounds
# the memory of the pre-drawn noise whatever the path length.
NOISE_CHUNK = 1 << 13


class BlowUpError(RuntimeError):
    """Trajectory norm left the trust region; carries time and norm."""

    def __init__(self, time: float, norm: float):
        super().__init__(f"||x||_H = {norm:.3e} at t = {time:.6g} "
                         f"exceeds {BLOWUP_NORM:.0e}")
        self.time = time
        self.norm = norm


@dataclass(frozen=True)
class BlowUp:
    """Per-trajectory blow-up record returned by ensemble runs."""

    index: int
    time: float
    norm: float


class EnsembleBlowUpError(BlowUpError):
    """Some ensemble trajectories blew up; carries their BlowUp records.

    time and norm are those of the first record.
    """

    def __init__(self, records, n_traj: int):
        first = records[0]
        super().__init__(first.time, first.norm)
        self.records = tuple(records)
        self.args = (f"{len(records)} of {n_traj} trajectories blew up; "
                     f"first: index {first.index}, {self.args[0]}",)


@dataclass(frozen=True)
class JumpEvent:
    time: float
    mark: float
    pre_norm_h: float


@dataclass(frozen=True)
class SimConfig:
    """Model and discretisation parameters for one trajectory.

    t_end must be an integer multiple of dt_save, and dt_save of dt.
    x0 = None starts from the zero field.
    """

    n_modes: int = 32
    dt: float = 1e-3
    t_end: float = 1.0
    dt_save: float = 1e-2
    gaussian: GaussianSpec | None = None
    jumps: JumpSpec | None = None
    nonlinearity_on: bool = True
    seed: int = 0
    x0: SpectralField | None = None

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if not (0 < self.dt <= self.dt_save <= self.t_end):
            raise ValueError("need 0 < dt <= dt_save <= t_end")
        if not _is_multiple(self.dt_save, self.dt):
            raise ValueError("dt_save must be an integer multiple of dt")
        if not _is_multiple(self.t_end, self.dt_save):
            raise ValueError("t_end must be an integer multiple of dt_save")
        if self.gaussian is not None and self.gaussian.n_modes != self.n_modes:
            raise ValueError("gaussian spec length does not match n_modes")
        if self.x0 is not None and self.x0.n_modes != self.n_modes:
            raise ValueError("x0 length does not match n_modes")


def _is_multiple(big: float, small: float) -> bool:
    r = big / small
    return abs(r - round(r)) < 1e-9 * max(1.0, abs(r))


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one simulated path on the uniform save grid."""

    times: np.ndarray            # (n_snap,)
    coeffs: np.ndarray           # (n_snap, n_modes)
    jump_log: tuple              # JumpEvent records in time order
    seed: int
    config: SimConfig = field(repr=False)

    @property
    def n_snapshots(self) -> int:
        return self.times.size

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[1]

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.coeffs[i])

    def norm_h(self) -> np.ndarray:
        return np.sqrt(np.sum(self.coeffs ** 2, axis=1))

    def norm_v(self) -> np.ndarray:
        rates = mode_rates(self.n_modes)
        return np.sqrt(self.coeffs ** 2 @ rates)


class _Kernel:
    """Per-config constants and the lockstep loop over R rows.

    Step coefficients are tabled by step length: a main step of simulate is
    (i + 1) dt - i dt, which takes only a handful of distinct values.  The
    lengths of the substeps around jump events are not tabled.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.alpha = mode_rates(cfg.n_modes)
        self.betas = cfg.gaussian.betas if cfg.gaussian is not None else None
        if self.betas is not None and not np.any(self.betas):
            self.betas = None
        jumps = cfg.jumps
        self.jumps = jumps
        self.const_compensator = None
        if jumps is not None:
            self.comp_scale = -jumps.intensity * jumps.marks.mean
            if jumps.direction.state_independent:
                g = jumps.direction.field_at(np.zeros(cfg.n_modes))
                if g.size != cfg.n_modes:
                    raise ValueError(
                        "jump direction length does not match n_modes")
                self.const_compensator = self.comp_scale * g
        # a drift that does not depend on the state enters the table as phi*d
        self.fixed_drift = None if cfg.nonlinearity_on \
            else self.const_compensator
        self.state_drift = cfg.nonlinearity_on or (
            jumps is not None and self.const_compensator is None)
        self.coefs = {}   # step length -> (decay, phi, beta sqrt(h), phi d)

    def coef(self, h: float, keep: bool = True) -> tuple:
        c = self.coefs.get(h)
        if c is None:
            decay = np.exp(-self.alpha * h)
            phi = (1.0 - decay) / self.alpha
            c = (decay, phi,
                 None if self.betas is None else self.betas * math.sqrt(h),
                 None if self.fixed_drift is None else phi * self.fixed_drift)
            if keep:
                self.coefs[h] = c
        return c

    def drift(self, a: np.ndarray) -> np.ndarray | None:
        """B plus the jump compensator at the states a, shape (R, N)."""
        out = None
        if self.cfg.nonlinearity_on:
            out = _quadratic_term(a)
        if self.jumps is not None:
            comp = self.const_compensator
            if comp is None:
                g = self.jumps.direction
                comp = self.comp_scale * np.array([g.field_at(row)
                                                   for row in a])
            out = comp if out is None else out + comp
        return out

    def substep(self, a: np.ndarray, h: float, xi) -> np.ndarray:
        """One jump-free step of length h > 0 from the states a, (R, N).

        xi holds the standard normal draws of the step (None without
        Gaussian forcing).
        """
        decay, phi, bsh, pd = self.coef(h, keep=False)
        out = decay * a
        if pd is not None:
            out += pd
        elif self.state_drift:
            out += phi * self.drift(a)
        if bsh is not None:
            out += decay * (bsh * xi)
        return out

    def _event_steps(self, jump_ss, n_steps: int) -> list:
        """This row's jump events as (step index, [(time, mark), ...])."""
        dt = self.cfg.dt
        events = sample_jump_times(self.jumps, self.cfg.t_end,
                                   np.random.default_rng(jump_ss))
        grouped = []
        for t, u in events:
            # an event belongs to the first step i with t <= (i + 1) dt
            i = max(int(math.ceil(t / dt)) - 1, 0)
            while (i + 1) * dt < t:
                i += 1
            while i > 0 and i * dt >= t:
                i -= 1
            if i >= n_steps:
                break
            if grouped and grouped[-1][0] == i:
                grouped[-1][1].append((t, u))
            else:
                grouped.append((i, [(t, u)]))
        grouped.reverse()          # popped from the end, earliest first
        return grouped

    def _split_step(self, a: np.ndarray, i: int, events, z, k: int,
                    log: list) -> np.ndarray:
        """Step i of one row a, (1, N), split at its events.

        z[k], z[k + 1], ... are the row's normal draws for the substeps.
        """
        dt = self.cfg.dt
        seg = i * dt
        for t, u in events:
            h = t - seg
            if h != 0.0:
                a = self.substep(a, h, None if z is None else z[k])
                k += 1
            row = a[0]
            pre_norm = float(np.sqrt(np.sum(row * row)))
            a = a + self.jumps.direction.field_at(row) * u
            log.append(JumpEvent(t, u, pre_norm))
            seg = t
        h = (i + 1) * dt - seg
        if h != 0.0:
            a = self.substep(a, h, None if z is None else z[k])
        return a

    def _plan_chunk(self, i0: int, i1: int, rngs, plans):
        """Draw a chunk's normals and find the rows that split a step.

        Returns the draws of the unsplit steps, shape (i1 - i0, R, N) or
        None, and {step offset: [(row, events, row draws, first draw)]}.
        """
        n = self.cfg.n_modes
        dt = self.cfg.dt
        n_chunk = i1 - i0
        xi = None if self.betas is None else \
            np.empty((n_chunk, len(plans), n))
        split = {}
        for r, plan in enumerate(plans):
            mine = []
            while plan and plan[-1][0] < i1:
                mine.append(plan.pop())
            if xi is None:
                for i, events in mine:
                    split.setdefault(i - i0, []).append((r, events, None, 0))
                continue
            if not mine:
                xi[:, r] = rngs[r].standard_normal((n_chunk, n))
                continue
            # a split step draws once per substep of nonzero length
            count = np.ones(n_chunk, dtype=np.intp)
            for i, events in mine:
                seg, k = i * dt, 0
                for t, _ in events:
                    k += t - seg != 0.0
                    seg = t
                count[i - i0] = k + ((i + 1) * dt - seg != 0.0)
            first = np.cumsum(count) - count
            z = rngs[r].standard_normal((int(first[-1] + count[-1]), n))
            for i, events in mine:
                split.setdefault(i - i0, []).append(
                    (r, events, z, int(first[i - i0])))
            xi[:, r] = z[first]      # split steps overwrite their rows
        return xi, split

    def run(self, seeds) -> tuple:
        """Step one path per seed in lockstep from cfg.x0.

        Returns the snapshots, shape (R, n_saves + 1, N), the jump logs and
        {row: (time, norm)} for the rows that left the trust region; such a
        row is reset to zero and its siblings run on unchanged.
        """
        cfg = self.cfg
        n = cfg.n_modes
        n_rows = len(seeds)
        dt = cfg.dt
        n_steps = int(round(cfg.t_end / dt))
        save_every = int(round(cfg.dt_save / dt))

        rngs, plans = [], []
        for seed in seeds:
            jump_ss, wiener_ss = np.random.SeedSequence(seed).spawn(2)
            rngs.append(np.random.default_rng(wiener_ss))
            plans.append(self._event_steps(jump_ss, n_steps)
                         if self.jumps is not None else [])

        a = np.zeros((n_rows, n)) if cfg.x0 is None else \
            np.tile(cfg.x0.coeffs, (n_rows, 1))
        snaps = np.empty((n_rows, n_steps // save_every + 1, n))
        snaps[:, 0] = a
        logs = [[] for _ in seeds]
        blown = {}
        state_drift = self.state_drift
        chunk = max(1, NOISE_CHUNK // (n_rows * n))
        for i0 in range(0, n_steps, chunk):
            i1 = min(i0 + chunk, n_steps)
            steps = np.arange(i0, i1)
            lengths, which = np.unique((steps + 1) * dt - steps * dt,
                                       return_inverse=True)
            table = [self.coef(h) for h in lengths.tolist()]
            xi, split = self._plan_chunk(i0, i1, rngs, plans)
            if xi is not None:
                # xi becomes the noise term decay * ((beta sqrt h) * xi)
                xi *= np.array([c[2] for c in table])[which][:, None, :]
                xi *= np.array([c[0] for c in table])[which][:, None, :]
            which = which.tolist()
            for j in range(i1 - i0):
                decay, phi, _, pd = table[which[j]]
                new = decay * a
                if pd is not None:
                    new += pd
                elif state_drift:
                    new += phi * self.drift(a)
                if xi is not None:
                    new += xi[j]
                i = i0 + j
                for r, events, z, k in split.get(j, ()):
                    if r not in blown:
                        new[r] = self._split_step(a[r:r + 1], i, events, z,
                                                  k, logs[r])[0]
                if not float(np.vdot(new, new)) <= _SAFE_NORM_SQ:
                    _mark_blowups(new, (i + 1) * dt, blown)
                    if len(blown) == n_rows:
                        return snaps, logs, blown
                a = new
                if (i + 1) % save_every == 0:
                    snaps[:, (i + 1) // save_every] = a
        return snaps, logs, blown


# Below this summed squared norm of a batch no row can exceed BLOWUP_NORM.
_SAFE_NORM_SQ = BLOWUP_NORM ** 2 * (1.0 - 1e-9)


def _mark_blowups(a: np.ndarray, time: float, blown: dict) -> None:
    """Record the rows of a outside the trust region and reset them."""
    for r, row in enumerate(a):
        if r not in blown:
            nrm = float(np.sqrt(np.sum(row * row)))
            if np.isfinite(nrm) and nrm <= BLOWUP_NORM:
                continue
            blown[r] = (time, nrm)
        a[r] = 0.0


def step(x: SpectralField, dt: float, cfg: SimConfig,
         rng: np.random.Generator) -> SpectralField:
    """One jump-free mild-form step of length dt from state x.

    Inside simulate, steps containing events are split at each event time
    and the displacement is added there; a public step is always jump-free.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if x.n_modes != cfg.n_modes:
        raise ValueError("state length does not match config")
    kern = _Kernel(cfg)
    xi = None if kern.betas is None else rng.standard_normal(cfg.n_modes)
    return SpectralField(kern.substep(x.coeffs[None, :], float(dt), xi)[0])


def _save_times(cfg: SimConfig) -> np.ndarray:
    n_saves = int(round(cfg.t_end / cfg.dt)) // int(round(cfg.dt_save
                                                          / cfg.dt))
    return np.arange(n_saves + 1) * cfg.dt_save


def simulate(cfg: SimConfig) -> Trajectory:
    """Integrate one path on [0, t_end] and record the save-grid snapshots.

    Returns a Trajectory with snapshots every dt_save (including t = 0) and
    the full event log.  Raises BlowUpError if ||x||_H exceeds 1e6 or any
    coefficient stops being finite.
    """
    snaps, logs, blown = _Kernel(cfg).run([cfg.seed])
    if blown:
        raise BlowUpError(*blown[0])
    return Trajectory(times=_save_times(cfg), coeffs=snaps[0],
                      jump_log=tuple(logs[0]), seed=cfg.seed, config=cfg)


def derive_seed(seed: int, index: int) -> int:
    """Stable per-trajectory sub-seed from (ensemble seed, index)."""
    ss = np.random.SeedSequence([int(seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_block(args) -> list:
    """Trajectories first .. first + n_rows - 1 of an ensemble, reduced."""
    cfg, first, n_rows, reducer = args
    seeds = [derive_seed(cfg.seed, first + r) for r in range(n_rows)]
    snaps, logs, blown = _Kernel(cfg).run(seeds)
    times = _save_times(cfg)
    times.flags.writeable = False          # shared by the block's rows
    out = []
    for r, seed in enumerate(seeds):
        if r in blown:
            out.append(BlowUp(first + r, *blown[r]))
        else:
            out.append(reducer(Trajectory(
                times=times, coeffs=snaps[r], jump_log=tuple(logs[r]),
                seed=seed, config=replace(cfg, seed=seed))))
    return out


def ensemble(cfg: SimConfig, n_traj: int, reducer, n_workers: int = 1) -> list:
    """Run n_traj independent trajectories and reduce each one.

    Trajectory i uses the sub-seed derive_seed(cfg.seed, i).  Rows are
    stepped in lockstep blocks of BLOCK_ROWS, and with n_workers > 1 the
    blocks go to a process pool; results are identical for any n_workers.
    A trajectory that blows up contributes a BlowUp record at its index
    instead of a reducer value; siblings are unaffected.

    Parameters
    ----------
    reducer : callable Trajectory -> picklable value.  With n_workers > 1 it
        must be importable (module level) for the process pool.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    blocks = [(cfg, first, min(BLOCK_ROWS, n_traj - first), reducer)
              for first in range(0, n_traj, BLOCK_ROWS)]
    if n_workers <= 1 or len(blocks) == 1:
        return [v for block in map(_run_block, blocks) for v in block]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(n_workers, len(blocks))) as ex:
        return [v for block in ex.map(_run_block, blocks) for v in block]


def require_no_blowups(results: list) -> list:
    """Return ensemble results, or raise EnsembleBlowUpError naming every
    BlowUp record among them."""
    bad = [r for r in results if isinstance(r, BlowUp)]
    if bad:
        raise EnsembleBlowUpError(bad, len(results))
    return results
