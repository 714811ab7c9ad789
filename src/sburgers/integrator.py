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

Paths are stepped in lockstep as the R rows of one state: simulate is a
batch of one and ensemble steps blocks of up to BLOCK_ROWS trajectories.
Every row has its own seed streams and its own start.  A row's sub-seed
and its two streams are numpy SeedSequence words: derive_seed's
SeedSequence([seed, index]) and the two children of SeedSequence(seed),
computed for all the rows of a block in one pass by _seed_hash, numpy's
hash in uint32 arithmetic, and pinned to SeedSequence by TestSeedStreams.
Only the rows with an event in a step are split at it, and every
operation gives a row the same bits whatever the other rows are, so a
path is the same alone, in any block and on any worker.  A block
therefore also holds the rows of one trajectory from several starts (the
pairs of a mixing estimate), and the first block can carry the path
simulate gives (verify's main path).
With more than one worker on Linux, ensemble splits its blocks into
contiguous shares, at most one per FORK_ROW_STEPS row-steps it can take:
the caller runs the first, and a child forked for each other share sends
its reduced results back pickled through a pipe.

The state is held mode-major, a C-contiguous (N, R) array whose column r
is row r's state, and steps fill one (steps, N, R) buffer per chunk, so
the Burgers term gathers its factors from the state without a copy.  A
step's per-mode operands (decay, phi, a constant compensator, the
Burgers weights) are widened to the R live rows, at every width, once
per chunk or whenever rows leave: numpy runs a ufunc with a full-width
operand as one loop, and with an (N, 1) column broadcast across the rows
as one short loop per mode, about three times as long at N = 8 and 21
rows.  An elementwise product or sum gives the same bits either way, so
a split step keeps its (N, 1) columns.  numpy adds a sum over a
strided last axis in another order than over a contiguous one, so a sum
over modes on the transposed state would round a row differently in a
block than alone.  Each such sum runs on a copy whose modes are its
contiguous last axis: the save-grid snapshots, (R, k, N), the
first-passage mask read from them, the blow-up norms and a
state-dependent jump direction's field_at.

Snapshots and blow-ups are taken from the chunk buffer once per chunk.
An ensemble may also give a first-passage stop: a row finishes at its
first snapshot where a row-wise test holds, and a blow-up counts only at
or before the finish; such a block keeps no snapshots.  A row that
finished or blew up leaves the block at the end of its chunk: its column
leaves the state, its generators draw nothing more, and the block steps
only its live rows, so it stops once every row has left.  The chunk
length, fixed by the block's first width, bounds a row's overshoot.

The step formula lives in two _Kernel helpers: _gaussian_increment is
the noise term e^(-alpha_k h) beta_k sqrt(h) xi_k and _deterministic the
rest, e^(-alpha_k h) a_k + phi_k(h) [drift]_k, the one update of every
config, with the drift evaluated at the step's start.  Their three
coefficients, decay e^(-alpha_k h), phi_k(h) and beta_k sqrt(h), come
from _Kernel.coef, a function of the step length alone: a chunk gets
them for all its step lengths (i + 1) dt - i dt in one call, a substep
for its own length, and each step's slice of the chunk's arrays has the
bits of the substep columns for that length.  A chunk's noise terms are
computed in one _gaussian_increment call before its steps, and the
split steps around jump events go through substep, which calls both.
Each split step is planned once, when a row's events are sampled, as its
(time, mark) events and its number of normal draws; _split_step works out
each substep length as it walks the events.
Without any drift (B off, no jumps) and with at most LANE_LIMIT
coefficients, each coefficient of each row is stepped by _lane, the
Python-float twin of _deterministic with the same roundings.  Every other
config steps on arrays, the only route that splits steps.
"""

import collections
import functools
import math
import operator
import os
import pickle
import sys

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .spectral import SpectralField, mode_rates, norm_h_sq, norm_v_sq, \
    record, _quadratic_term
from .noise import GaussianSpec, JumpSpec, sample_jump_times

__all__ = [
    "BlowUpError",
    "EnsembleBlowUpError",
    "BlowUp",
    "SimConfig",
    "JumpEvent",
    "Trajectory",
    "simulate",
    "ensemble",
    "derive_seed",
    "save_count",
]

BLOWUP_NORM = 1e6
# Expected jump events per path (intensity x horizon) above which a run is
# refused before it draws any.  sample_jump_times draws them one at a time,
# 1.4-1.9 us and about 110 bytes each (2-CPU Xeon), so this bounds a path's
# event sampling to about 0.2 s and 11 MB.
MAX_JUMP_EVENTS = 10 ** 5
# Below this summed squared norm of a chunk no row can exceed BLOWUP_NORM.
# The sum is a ufunc reduction, not a BLAS dot, which wakes OpenBLAS's worker
# thread above 10 000 elements.
_SAFE_NORM_SQ = BLOWUP_NORM ** 2 * (1.0 - 1e-9)
# Rows stepped together by ensemble, and the unit of work it shares out.
BLOCK_ROWS = 100
# Gaussian draws held at once per block (rows x steps x modes), which bounds
# the memory of the pre-drawn noise whatever the path length.
NOISE_CHUNK = 1 << 13
# Rows x modes up to which _Kernel._step_lanes beats the numpy step
# (measured crossover: between 16 and 20 lanes, BENCH_5.json).
LANE_LIMIT = 16
# Row-steps (rows x steps per path) of bound work per forked ensemble
# worker.  Measured on a 2-CPU Xeon with its second CPU free
# (BENCH_32.json): a fork paid for itself from 5 x 10^3 row-steps a share
# when every row runs its whole path, but a first passage stops its rows
# early, and estimate hitting on the shipped model lost at a bound of
# 10^5, broke even at 1.5-2 x 10^5 and gained at 2.5 x 10^5, so the first
# fork comes at 2 x 10^5.  With the second CPU busy, two workers lost at
# every size measured.
FORK_ROW_STEPS = 100_000
# ensemble forks its workers on Linux only: os.fork is missing on Windows
# and unsafe with the system frameworks of macOS.
_FORK = sys.platform == "linux"


class BlowUpError(RuntimeError):
    """Trajectory norm left the trust region; carries time and norm."""

    def __init__(self, time: float, norm: float):
        super().__init__(f"||x||_H = {norm:.3e} at t = {time:.6g} "
                         f"exceeds {BLOWUP_NORM:.0e}")
        self.time = time
        self.norm = norm


# BlowUp and JumpEvent are the package's only values compared by value
# (ensemble blow-up records, jump logs), so they are named tuples; a forked
# worker pickles a BlowUp by its name in this module.
BlowUp = collections.namedtuple("BlowUp", "index time norm")
BlowUp.__doc__ = "Per-trajectory blow-up record returned by ensemble runs."
JumpEvent = collections.namedtuple("JumpEvent", "time mark pre_norm_h")


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


@record
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
        # t_end / dt_save <= t_end / dt: a finite step count bounds both
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("t_end / dt overflows: the step and snapshot "
                             "counts are not finite")
        if save_count(self.dt_save, self.dt) is None:
            raise ValueError("dt_save must be an integer multiple of dt")
        if save_count(self.t_end, self.dt_save) is None:
            raise ValueError("t_end must be an integer multiple of dt_save")
        if self.gaussian is not None and self.gaussian.n_modes != self.n_modes:
            raise ValueError("gaussian spec length does not match n_modes")
        if self.x0 is not None and self.x0.n_modes != self.n_modes:
            raise ValueError("x0 length does not match n_modes")
        if self.jumps is not None and \
                self.jumps.direction.g0.n_modes != self.n_modes:
            raise ValueError("jump direction length does not match n_modes")

    @property
    def n_steps(self) -> int:
        """Steps of a path: t_end / dt_save snapshots, dt_save / dt each."""
        return save_count(self.t_end, self.dt_save) * \
            save_count(self.dt_save, self.dt)

    def save_index(self, t: float) -> int:
        """Index of the snapshot at time t, one of 0 .. t_end / dt_save."""
        i = save_count(t, self.dt_save)
        if i is None or not 0 <= i <= save_count(self.t_end, self.dt_save):
            raise ValueError(f"time {t} is not on the snapshot grid")
        return i

    def nearest_save_time(self, t):
        """The save-grid time nearest t (an array: each): halves to even."""
        return np.round(t / self.dt_save) * self.dt_save


def save_count(t: float, interval: float) -> int | None:
    """t / interval if t is a multiple of interval (to 1e-9), else None."""
    r = t / interval
    if math.isfinite(r) and abs(r - round(r)) < 1e-9 * max(1.0, abs(r)):
        return round(r)
    return None


@record
class Trajectory:
    """Snapshots of one simulated path on the uniform save grid."""

    times: np.ndarray            # (n_snap,)
    coeffs: np.ndarray           # (n_snap, n_modes)
    jump_log: tuple              # JumpEvent records in time order

    @property
    def n_snapshots(self) -> int:
        return self.times.size

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[1]

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.coeffs[i])

    def norm_h(self) -> np.ndarray:
        return np.sqrt(norm_h_sq(self.coeffs))

    def norm_v(self) -> np.ndarray:
        return np.sqrt(norm_v_sq(self.coeffs))


class _Kernel:
    """Per-config constants and the lockstep loop over R rows.

    States are mode-major, (N, R): column r is row r's state.  A split
    step around jump events steps its row as an (N, 1) column.

    Nothing is cached between steps: run computes the coefficients of
    each chunk from its step lengths, and substep those of its length.
    On the array route run widens each chunk's decay and phi to (steps,
    N, R) and the constant compensator to (N, R), R the live width, one
    included, so that no step broadcasts an (N, 1) column across the rows.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        # per-mode constants as (N, 1) columns of the mode-major state
        self.alpha = mode_rates(cfg.n_modes)[:, None]
        self.betas = cfg.gaussian.betas[:, None] \
            if cfg.gaussian is not None else None
        if self.betas is not None and not np.any(self.betas):
            self.betas = None
        jumps = cfg.jumps
        self.jumps = jumps
        self.const_compensator = None
        if jumps is not None:
            self.comp_scale = jumps.compensator_coefficient
            if jumps.direction.state_independent:
                g = jumps.direction.field_at(np.zeros(cfg.n_modes))
                self.const_compensator = (self.comp_scale * g)[:, None]

    def coef(self, h) -> tuple:
        """The step coefficients (decay, phi, beta sqrt(h)) of length h:
        (N, 1) columns for a float h, (steps, N, 1) arrays for a chunk's
        lengths as a (steps, 1, 1) array, each step's slice the columns of
        its own length.  run widens a chunk's decay and phi to its rows."""
        decay = np.exp(-self.alpha * h)
        return (decay, (1.0 - decay) / self.alpha,
                None if self.betas is None else self.betas * np.sqrt(h))

    def drift(self, a: np.ndarray, comp) -> np.ndarray | None:
        """B plus the jump compensator at the states a, (N, R), as a new
        array that broadcasts to (N, R), or None with neither.

        comp is the constant compensator, an (N, 1) column or widened to
        (N, R), and None for a state-dependent direction or without jumps.
        A state-dependent jump direction gets a row-major copy of a: its
        norm is a sum over modes, which numpy adds in another order on the
        strided last axis of a.T.
        """
        out = None
        if self.cfg.nonlinearity_on:
            out = _quadratic_term(a.T).T
        if self.jumps is not None:
            if comp is None:
                comp = self.comp_scale * self.jumps.direction.field_at(
                    np.ascontiguousarray(a.T)).T
            if out is None:
                out = np.array(comp)
            else:
                out += comp
        return out

    def _deterministic(self, decay, phi, comp, a: np.ndarray) -> np.ndarray:
        """decay a + phi d from the states a, (N, R), with d the drift at
        a held over the step; comp is drift's constant compensator."""
        out = decay * a
        d = self.drift(a, comp)
        if d is not None:
            d *= phi
            out += d
        return out

    @staticmethod
    def _gaussian_increment(decay, bsh, xi) -> np.ndarray:
        """The noise term decay (beta sqrt(h)) xi of a step, written over
        the draws xi and returned."""
        xi *= bsh
        xi *= decay
        return xi

    def substep(self, a: np.ndarray, h: float, xi) -> np.ndarray:
        """One jump-free step of length h > 0 from the states a, (N, R).

        xi holds the standard normal draws of the step, (N, R), and is not
        written (None without Gaussian forcing).
        """
        decay, phi, bsh = self.coef(h)
        out = self._deterministic(decay, phi, self.const_compensator, a)
        if bsh is not None:
            out += self._gaussian_increment(decay, bsh, xi.copy())
        return out

    def _event_steps(self, jump_rng, n_steps: int) -> list:
        """This row's split steps as (step index, events, draws), latest
        first, from the events the Generator jump_rng draws.

        events are the step's (time, mark) pairs in time order, as
        sample_jump_times gives them.  The step splits into substeps at
        them; draws counts the substeps of nonzero length, one normal draw
        each, and a substep of length 0 is skipped.
        """
        dt = self.cfg.dt
        grouped = []
        for event in sample_jump_times(self.jumps, self.cfg.t_end, jump_rng):
            t = event[0]
            # an event belongs to the first step i with t <= (i + 1) dt
            i = max(int(math.ceil(t / dt)) - 1, 0)
            while (i + 1) * dt < t:
                i += 1
            while i > 0 and i * dt >= t:
                i -= 1
            if i >= n_steps:
                break
            if grouped and grouped[-1][0] == i:
                grouped[-1][1].append(event)
            else:
                grouped.append((i, [event]))
        steps = []
        for i, events in reversed(grouped):    # popped from the end
            ends = [i * dt, *(t for t, _ in events), (i + 1) * dt]
            steps.append((i, events,
                          sum(b != a for a, b in zip(ends, ends[1:]))))
        return steps

    def _split_step(self, a: np.ndarray, i: int, events, z, k: int,
                    log: list) -> np.ndarray:
        """Step i of one row's state a, an (N, 1) column, split at its
        (time, mark) events: a substep up to each event, the event's jump,
        and a substep on to the end of the step.

        z[k], z[k + 1], ... are the row's normal draws for the substeps.
        """
        seg = i * self.cfg.dt
        for t, u in (*events, ((i + 1) * self.cfg.dt, None)):
            if t != seg:
                a = self.substep(a, t - seg,
                                 None if z is None else z[k, :, None])
                k += 1
            if u is not None:
                row = a[:, 0]
                pre_norm = float(np.sqrt(norm_h_sq(row)))
                a = a + (self.jumps.direction.field_at(row) * u)[:, None]
                log.append(JumpEvent(t, u, pre_norm))
                seg = t
        return a

    def _plan_chunk(self, i0: int, i1: int, rngs, plans):
        """Draw a chunk's normals and find the rows that split a step.

        Returns the draws of the unsplit steps, shape (i1 - i0, N, R) or
        None, and {step offset: [(row, events, row draws, first draw)]}.
        """
        n = self.cfg.n_modes
        n_chunk = i1 - i0
        xi = None if self.betas is None else \
            np.empty((n_chunk, n, len(plans)))
        split = {}
        for r, plan in enumerate(plans):
            mine = []
            while plan and plan[-1][0] < i1:
                mine.append(plan.pop())
            if xi is None:
                for i, events, _ in mine:
                    split.setdefault(i - i0, []).append((r, events, None, 0))
                continue
            if not mine:
                xi[:, :, r] = rngs[r].standard_normal((n_chunk, n))
                continue
            count = np.ones(n_chunk, dtype=np.intp)
            for i, _, draws in mine:
                count[i - i0] = draws
            first = np.cumsum(count) - count
            z = rngs[r].standard_normal((int(first[-1] + count[-1]), n))
            for i, events, _ in mine:
                split.setdefault(i - i0, []).append(
                    (r, events, z, int(first[i - i0])))
            xi[:, :, r] = z[first]   # split steps overwrite their rows
        return xi, split

    def run(self, seeds, starts, until=None) -> tuple:
        """Step one path per seed in lockstep, row r from starts[r].

        starts is an (R, N) array, one start row per seed; cfg.x0 is not
        read.

        The live rows are stepped as one mode-major (N, R) state; the
        snapshots, the until mask, the blow-up norms and a state-dependent
        direction's field_at read row-major copies, because numpy sums a
        strided last axis in another order than a contiguous one.

        Returns the snapshots, shape (R, n_saves + 1, N), or None with
        until, the jump logs, {row: (time, norm)} for the rows that left the
        trust region, found per chunk at the first step whose norm is not
        <= BLOWUP_NORM, and {row: snapshot index} for the rows that
        finished.  Raises ValueError, before any event is drawn, if the
        snapshots do not fit or a path expects over MAX_JUMP_EVENTS events.

        until, if given, maps a chunk's snapshots (k, R, N), kept nowhere
        else, to a (k, R) bool mask and must treat each row on its own.  A
        row finishes at its first snapshot (t = 0 included) where the mask
        is True, unless it left the trust region at or before that step; a
        later blow-up of a finished row is not recorded.  A blown or
        finished row leaves the block at the end of its chunk: its column is
        dropped from the state with one copy, its generators draw nothing
        more, and a blown row's snapshots after that chunk are unset.  Each
        row keeps its own draws in their order, so its siblings run on
        unchanged.  The loop stops once every row has left.
        """
        cfg = self.cfg
        n = cfg.n_modes
        n_rows = len(seeds)
        dt = cfg.dt
        n_steps = cfg.n_steps
        save_every = save_count(cfg.dt_save, dt)
        n_saves = n_steps // save_every
        try:     # none for a first passage; before any event is drawn
            snaps = None if until is not None else \
                np.empty((n_rows, n_saves + 1, n))
        except MemoryError as err:
            raise ValueError(
                f"{n_rows} x {n_saves + 1} snapshots of {n} modes "
                f"({8.0 * n_rows * (n_saves + 1) * n:.3g} bytes) do not fit "
                f"in memory: lower model.t_end / model.dt_save or "
                f"model.n_modes") from err
        events = 0.0 if self.jumps is None else \
            self.jumps.intensity * cfg.t_end
        if not events <= MAX_JUMP_EVENTS:
            raise ValueError(
                f"jump.intensity: {self.jumps.intensity:g} x horizon "
                f"{cfg.t_end:g} expects {events:.3g} jump events per path, "
                f"above the ceiling of {MAX_JUMP_EVENTS:.0e}")

        # the two streams SeedSequence(seed).spawn(2) gives, their numpy
        # SeedSequence words hashed for all rows in one pass
        jump_states, normal_states = _spawned_states(seeds)
        rngs = [_generator(w) for w in normal_states]
        plans = [self._event_steps(_generator(w), n_steps)
                 for w in jump_states] if self.jumps is not None \
            else [[] for _ in seeds]

        rows = np.asarray(starts, dtype=float)
        a = rows.T                                # mode-major, (N, R)
        logs = [[] for _ in seeds]
        blown = {}
        if snaps is not None:
            snaps[:, 0] = rows
        finish = {} if until is None else \
            dict.fromkeys(np.flatnonzero(until(rows[None])[0]).tolist(), 0)
        lanes = not cfg.nonlinearity_on and cfg.jumps is None \
            and n_rows * n <= LANE_LIMIT
        # fixed by the block's first width: from the live width, the last
        # rows of a first-passage block overshoot their finish by more steps
        chunk = max(1, NOISE_CHUNK // (n_rows * n))
        live = np.arange(n_rows)     # the rows still stepped, in row order
        leaving = list(finish)       # positions in live of the rows to drop
        with np.errstate(over="ignore", invalid="ignore"):
            for i0 in range(0, n_steps, chunk):
                if leaving or not i0:
                    # before the first chunk and whenever rows leave: the
                    # live rows' state, a C-contiguous copy, and their
                    # per-row operands
                    keep = np.ones(len(live), dtype=bool)
                    keep[leaving] = False
                    live = live[keep]
                    a = a.compress(keep, axis=1)
                    leaving = []
                    width = len(live)
                    if not width:
                        break
                    comp = self.const_compensator   # None on the lanes route
                    if comp is not None:
                        comp = np.repeat(comp, width, axis=1)
                    ids = live.tolist()
                    live_rngs = [rngs[r] for r in ids]
                    live_plans = [plans[r] for r in ids]
                    live_logs = [logs[r] for r in ids]
                i1 = min(i0 + chunk, n_steps)
                steps = np.arange(i0, i1)[:, None, None]
                decay, phi, bsh = self.coef((steps + 1) * dt - steps * dt)
                if not lanes:
                    decay = np.repeat(decay, width, axis=2)
                    phi = np.repeat(phi, width, axis=2)
                path, split = self._plan_chunk(i0, i1, live_rngs, live_plans)
                if path is None:
                    # x + -0.0 is x, bit for bit, so -0.0 is no noise at all
                    path = np.full((i1 - i0, n, width), -0.0)
                else:
                    path = self._gaussian_increment(decay, bsh, path)
                # each step adds its deterministic part to its noise term
                if lanes:
                    self._step_lanes(a, path, decay)
                else:
                    self._step_arrays(a, i0, path, decay, phi, comp, split,
                                      live_logs)
                first = -(i0 + 1) % save_every
                # row-major copies wherever a sum over modes runs: numpy
                # adds a strided last axis in another order; the snapshots
                # as (R, k, N), which until reads as a (k, R, N) view
                saved = np.ascontiguousarray(
                    path[first::save_every].transpose(2, 0, 1))
                s0 = (i0 + first + 1) // save_every
                if snaps is not None:
                    snaps[live, s0:s0 + saved.shape[1]] = saved
                bad = {}         # position -> its first bad step in the chunk
                if not float(np.square(path).sum()) <= _SAFE_NORM_SQ:
                    norms = np.sqrt(norm_h_sq(np.ascontiguousarray(
                        path.transpose(0, 2, 1))))
                    out = ~(norms <= BLOWUP_NORM)
                    for j in np.flatnonzero(out.any(axis=0)).tolist():
                        bad[j] = int(out[:, j].argmax())
                if until is not None and saved.shape[1]:
                    inside = until(saved.swapaxes(0, 1))
                    for j in np.flatnonzero(inside.any(axis=0)).tolist():
                        m = int(inside[:, j].argmax())
                        if bad.get(j, math.inf) > first + m * save_every:
                            finish[ids[j]] = s0 + m
                            bad.pop(j, None)
                            leaving.append(j)
                for j, k in bad.items():
                    blown[ids[j]] = ((i0 + k + 1) * dt, float(norms[k, j]))
                leaving += bad
                a = path[-1]
        return snaps, logs, blown, finish

    def _step_arrays(self, a, i0, path, decay, phi, comp, split,
                     logs) -> None:
        """Step j of the chunk, step i0 + j of the path, takes the live rows
        from a to path[j] at once, with the chunk's decay and phi, (steps,
        N, R) arrays, and comp, drift's constant compensator.
        A row of split is its position among the live rows, and logs holds
        the live rows' jump logs in that order."""
        for j, (dj, pj, nxt) in enumerate(zip(decay, phi, path)):
            new = self._deterministic(dj, pj, comp, a)
            nxt += new               # not path[j] += new: that copies back
            for r, events, z, k in split.get(j, ()):
                nxt[:, r] = self._split_step(a[:, [r]], i0 + j, events, z, k,
                                             logs[r])[:, 0]
            a = nxt

    def _step_lanes(self, a, path, decay) -> None:
        """_step_arrays without drift or jumps: each coefficient of each
        live row is the recurrence v <- decay v + noise in Python floats,
        with the roundings of _step_arrays.  decay is the chunk's (steps,
        N, 1) array."""
        decays = decay[:, :, 0].T.tolist()       # one list per coefficient
        for r in range(path.shape[2]):
            for c, v in enumerate(a[:, r].tolist()):
                lane = path[:, c, r]
                lane[:] = np.fromiter(_lane(v, decays[c], memoryview(lane)),
                                      float, len(lane))


def _lane(v: float, ds: list, xs):
    """Yield v <- d v + x over the steps (d, x), d the step's decay and x
    its noise term from _Kernel._gaussian_increment."""
    for d, x in zip(ds, xs):
        v = d * v + x
        yield v


def _start_rows(cfg: SimConfig, starts) -> np.ndarray:
    """The start fields (None: the zero field) as rows, shape (G, N)."""
    rows = np.zeros((len(starts), cfg.n_modes))
    for g, x in enumerate(starts):
        if x is not None:
            if x.n_modes != cfg.n_modes:
                raise ValueError("start length does not match n_modes")
            rows[g] = x.coeffs
    return rows


def simulate(cfg: SimConfig) -> Trajectory:
    """Integrate one path on [0, t_end] and record the save-grid snapshots.

    Returns a Trajectory with snapshots every dt_save (including t = 0) and
    the full event log.  Raises BlowUpError if ||x||_H exceeds 1e6 or any
    coefficient stops being finite, and ValueError if the snapshots do not
    fit in memory.  The path is the main row of a block
    with no ensemble rows.
    """
    return _run_block(cfg, 0, 0, None, None, _start_rows(cfg, ()),
                      main=True)[0]


def derive_seed(seed: int, index: int) -> int:
    """Stable per-trajectory sub-seed from (ensemble seed, index).

    It is the first uint64 word numpy's
    SeedSequence([seed, index]).generate_state gives, computed by
    _derive_seeds, which derives the sub-seeds of a whole block in one
    pass; TestSeedStreams pins the two to SeedSequence.
    """
    return _derive_seeds(int(seed), [int(index)])[0]


def _derive_seeds(seed: int, indices) -> list:
    """derive_seed(seed, i) for each i of indices, as Python ints."""
    head, (n,) = _int_words([seed])
    tail, counts = _int_words(indices)
    words = np.zeros((max(4, n + len(tail)), len(counts)), np.uint32)
    words[:n] = head[:n]
    words[n:n + len(tail)] = tail
    return _seed_hash(words, n + counts, 1)[:, 0].tolist()


def _spawned_states(seeds) -> np.ndarray:
    """The generate_state(4, np.uint64) words of the two streams
    SeedSequence(seed).spawn(2) gives, SeedSequence(seed, spawn_key=(k,))
    for k = 0, 1, for each seed: shape (2, R, 4)."""
    head, counts = _int_words(seeds)
    # a spawned SeedSequence pads its seed's words to the pool's 4
    pad = np.maximum(counts, 4)
    words = np.zeros((max(4, len(head)) + 1, 2, len(seeds)), np.uint32)
    words[:len(head)] = head[:, None]
    words[pad, 1, np.arange(len(seeds))] = 1     # the spawn key; 0 for k = 0
    return _seed_hash(words.reshape(len(words), -1),
                      np.concatenate((pad, pad)) + 1, 4).reshape(2, -1, 4)


class _State(ISeedSequence):
    """A SeedSequence's generate_state(4, np.uint64) words, computed
    beforehand by _spawned_states: PCG64 seeds itself from them.

    It keeps no entropy pool, so a generator built on it cannot spawn();
    nothing spawns from a row's generator.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_State(words)))


# numpy.random.SeedSequence's hash over a pool of 4 uint32 words: the
# multipliers of its entropy mixing (A), of generate_state (B) and of mix
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init mult**k mod 2**32 for k < n, the hash constant of the k-th
    hashmix call, as a read-only (n, 1) uint32 column."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    out = np.array(out, dtype=np.uint32)[:, None]
    out.flags.writeable = False        # the cache hands it to every call
    return out


def _hashmix(v: np.ndarray, x, m) -> np.ndarray:
    """SeedSequence's hashmix of v with hash constant x, whose next
    value is m, as a new array."""
    v = v ^ x
    v *= m
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of x and y, written over y."""
    x = x * _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> 16
    return x


def _seed_hash(words: np.ndarray, lengths, n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, np.uint64) for many
    entropy arrays at once, in numpy's uint32 arithmetic.

    words is a (W, R) uint32 array, W >= 4, whose column r holds the
    entropy words of row r, zero past their count lengths[r]; the result
    has shape (R, n_words).  Rows are hashed together and the
    4 pool words at once.  SeedSequence hashes a row of at most 4 words as
    the row padded with zeros to 4, and mixes each word past the fourth
    into the whole pool.
    """
    extra = len(words) - 4
    a = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * extra)
    pool = _hashmix(words[:4], a[:4], a[1:5])
    # then each word into the other three: in round s, word d != s takes
    # call 4 + 3 s + (d if d < s else d - 1), and word s a constant unused
    calls = [[4 + 3 * s + d - (d >= s) for d in range(4)] for s in range(4)]
    x, m = a[calls], a[np.add(calls, 1)]
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[s], x[s], m[s]))
        mixed[s] = pool[s]
        pool = mixed
    if extra:
        h = _hashmix(words[4:, None], a[16:-1].reshape(extra, 4, 1),
                     a[17:].reshape(extra, 4, 1))
        for s in range(extra):
            pool = np.where(lengths > 4 + s, _mix(pool, h[s]), pool)
    b = _hash_consts(_INIT_B, _MULT_B, 2 * n_words + 1)
    out = _hashmix(pool[np.arange(2 * n_words) % 4], b[:-1], b[1:])
    # uint32 pairs, low word first, as little-endian uint64s
    return out.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _int_words(values) -> tuple:
    """The uint32 words SeedSequence makes of each non-negative int of
    values, least significant first, and their counts: a (W, R) array,
    zero past a value's own words, W those of the largest, and an (R,)
    array, at least 1 (0 is one word)."""
    values = [operator.index(v) for v in values]
    if min(values, default=0) < 0:
        raise ValueError("expected non-negative integer")
    size = max(1, -(-max(values, default=0).bit_length() // 32))
    words = np.frombuffer(b"".join(v.to_bytes(4 * size, "little")
                                   for v in values),
                          dtype="<u4").reshape(len(values), size).T
    place = np.arange(1, size + 1)[:, None] * (words != 0)
    return words, np.maximum(place.max(axis=0), 1)


def _run_block(cfg: SimConfig, first: int, n_rows: int, reducer, until,
               starts: np.ndarray, main: bool = False) -> tuple:
    """Trajectories first .. first + n_rows - 1 of an ensemble, reduced.

    Each runs from every start row of starts, (G, N), with its one
    sub-seed.  Returns (path, groups): groups[g] holds the results from
    starts[g] in trajectory order, a BlowUp record for a row that blew up.
    A result is the reducer's value of the row's Trajectory, or with
    until the row's entrance time, its finish snapshot index x dt_save, or
    nan if it never finished.  With main, the main path (seed cfg.seed,
    from cfg.x0) is stepped as row 0 and returned unreduced as path (None
    otherwise); BlowUpError is raised if it blows up.
    """
    seeds = _derive_seeds(cfg.seed, range(first, first + n_rows)) \
        * len(starts)
    rows = np.repeat(starts, n_rows, axis=0)
    if main:
        seeds.insert(0, cfg.seed)
        rows = np.concatenate([_start_rows(cfg, [cfg.x0]), rows])
    snaps, logs, blown, finish = _Kernel(cfg).run(seeds, rows, until)
    if snaps is not None:
        times = np.arange(snaps.shape[1]) * cfg.dt_save
        times.flags.writeable = False      # shared by the block's rows
    path = None
    if main:
        if 0 in blown:
            raise BlowUpError(*blown[0])
        # its own copy, so the block's snapshots are freed once reduced
        path = Trajectory(times=times, coeffs=snaps[0].copy(),
                          jump_log=tuple(logs[0]))
    out = [BlowUp(first + (j - main) % n_rows, *blown[j]) if j in blown
           else float(finish.get(j, math.nan) * cfg.dt_save) if snaps is None
           else reducer(Trajectory(times=times, coeffs=snaps[j],
                                   jump_log=tuple(logs[j])))
           for j in range(main, len(seeds))]
    return path, [out[g * n_rows:(g + 1) * n_rows]
                  for g in range(len(starts))]


def ensemble(cfg: SimConfig, n_traj: int, reducer=None, n_workers: int = 1,
             until=None, starts=None, main: bool = False):
    """Run n_traj independent trajectories and reduce each one, or find
    the first passage of each.

    Trajectory i uses the sub-seed derive_seed(cfg.seed, i) and starts
    from cfg.x0, or from each field of starts.  Rows are stepped in
    lockstep blocks of BLOCK_ROWS trajectories, each with all its starts.
    With n_workers > 1 on Linux the blocks are split into
    min(n_workers, blocks, bound // FORK_ROW_STEPS) contiguous shares, at
    least one, where bound = n_traj x starts x cfg.n_steps is the
    row-steps the ensemble can take (a first passage counts its whole
    horizon, though its rows stop at entrance): this process runs the
    first and a forked child each of the others.  So n_workers caps the
    processes, this one included, and a bound under 2 FORK_ROW_STEPS
    runs in this one.  Elsewhere every block runs in this process.
    Results are identical for any n_workers.  A trajectory that blows up
    does not stop its siblings; once every share has returned,
    EnsembleBlowUpError is raised with a BlowUp record, carrying its index
    i, for each such trajectory in result order.  An exception raised in a
    child is raised again here with its type, or as a RuntimeError
    carrying its repr when it does not pickle.

    With until in place of a reducer, a first passage: a trajectory's
    result is its entrance time, the first save-grid time where until
    holds (0 for a start where it holds), or nan if it never holds by
    t_end.  A blow-up counts only at or before the entrance, and a block
    keeps no snapshots and stops once each row has entered or blown up.

    Parameters
    ----------
    reducer : callable Trajectory -> value.  Children inherit it, so any
        callable will do, but with n_workers > 1 its values must pickle.
    until : callable, snapshots (k, R, N) -> (k, R) bool mask, or None.
        It must decide each row from that row alone, so that a row
        enters at the same snapshot in any block.  Exactly one of reducer
        and until is given.
    starts : sequence of G start fields (None: the zero field), or None
        for (cfg.x0,).  Trajectory i runs from each of them with the same
        noise, and the results are start-major: entry g * n_traj + i is
        trajectory i from starts[g].
    main : if True, the path simulate(cfg) gives (seed cfg.seed, from
        cfg.x0) is stepped as one more row of the first block, which this
        process runs, and (its Trajectory, results) is returned.  If that
        path blows up, BlowUpError is raised as simulate raises it,
        whatever the other rows did, and before any child's results are
        read.  until would stop that path at its first passage, so main
        with until raises ValueError.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if (reducer is None) == (until is None):
        raise ValueError("pass a reducer or until, not both or neither")
    if main and until is not None:
        raise ValueError("main takes the path simulate gives, which until "
                         "would stop: pass one or the other")
    rows = _start_rows(cfg, [cfg.x0] if starts is None else starts)
    firsts = range(0, n_traj, BLOCK_ROWS)
    # the row-steps the ensemble can take (the main row aside): each
    # process gets at least about FORK_ROW_STEPS of them
    bound = n_traj * len(rows) * cfg.n_steps
    n = max(1, min(n_workers, len(firsts), bound // FORK_ROW_STEPS)) \
        if _FORK else 1

    def run(share) -> list:
        return [_run_block(cfg, first, min(BLOCK_ROWS, n_traj - first),
                           reducer, until, rows, main and first == 0)
                for first in share]

    blocks = _fan_out(run, [firsts[len(firsts) * i // n:
                                   len(firsts) * (i + 1) // n]
                            for i in range(n)])
    values = [v for g in range(len(rows)) for _, groups in blocks
              for v in groups[g]]
    blown = [v for v in values if isinstance(v, BlowUp)]
    if blown:
        raise EnsembleBlowUpError(blown, len(values))
    return (blocks[0][0], values) if main else values


def _fan_out(run, shares) -> list:
    """run over all shares, in order: shares[1:] in forked children, each
    sending its results through a pipe, and shares[0] here meanwhile.
    If this process raises, the children still running are killed."""
    running = {}                  # pid -> read end of the child's pipe
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(run, share, w)         # does not return
            os.close(w)
            running[pid] = open(r, "rb")
        out = run(shares[0])
        for pid, pipe in list(running.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            if not data:
                raise RuntimeError(
                    f"ensemble worker {pid} sent no result (exit code "
                    f"{os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out += value
        return out
    finally:
        if running:
            import signal              # only a failure here needs it
            for pid, pipe in running.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(run, share, w: int) -> None:
    """run(share) in a forked child: write (ok, results or exception) to w
    and exit, without atexit handlers or flushing inherited buffers."""
    code = 1
    try:
        try:
            payload = pickle.dumps((True, run(share)))
        except Exception as err:
            try:
                payload = pickle.dumps((False, err))
                pickle.loads(payload)          # some exceptions do not load
            except Exception:
                payload = pickle.dumps((False, RuntimeError(repr(err))))
        with open(w, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
