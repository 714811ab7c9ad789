"""Occupation measures, invariant-law estimates, and ergodicity probes.

Everything here consumes trajectories (or configs from which trajectories
are drawn) and produces statistical summaries:

  * occupation_measure     time-weighted histogram of an observable
  * invariant_estimate     long-run time averages with batch-means errors
  * path_averages          the same averages from an already simulated path
  * sigma_squared          long-run variance of a time-averaged observable
  * ergodic_decay          exponential mixing-rate fit from paired runs
  * mdp_functional         centred occupation integral on a sublinear scale
  * hitting_times          first-entrance statistics for the centre set
  * deviation_tail_probe   empirical large-deviation rate table

Observables carry a declared envelope (the Lyapunov function, its square,
or a constant) and every evaluation asserts it, so a miscoded test function
fails loudly instead of polluting an estimate.
"""

import math
from dataclasses import dataclass, replace, field
from functools import partial

import numpy as np

from .spectral import SpectralField
from .integrator import SimConfig, Trajectory, simulate, ensemble, \
    require_no_blowups
from .lyapunov import DriftConstants
from .reports import EstimateReport

__all__ = [
    "Observable",
    "EnvelopeViolation",
    "OccupationHistogram",
    "MdpConfig",
    "HittingSummary",
    "mode_coefficient",
    "norm_h_observable",
    "norm_h_squared_observable",
    "psi_observable",
    "tanh_mode_observable",
    "observable_dictionary",
    "occupation_measure",
    "kolmogorov_distance",
    "invariant_estimate",
    "path_averages",
    "integrated_autocorr_time",
    "sigma_squared",
    "ergodic_decay",
    "mdp_functional",
    "hitting_times",
    "deviation_tail_probe",
]


class EnvelopeViolation(ValueError):
    """An observable returned a value outside its declared envelope."""


# ------------------------------------------------------------- observables
#
# Evaluation functions are module-level (wrapped in functools.partial) so
# observables survive pickling into worker processes.

def _mode_value(coeffs, k):
    return coeffs[..., k - 1]


def _tanh_mode_value(coeffs, k, c):
    return np.tanh(c * coeffs[..., k - 1])


def _norm_h_value(coeffs):
    return np.sqrt(np.sum(coeffs ** 2, axis=-1))


def _norm_h_sq_value(coeffs):
    return np.sum(coeffs ** 2, axis=-1)


def _psi_value(coeffs):
    return np.sqrt(1.0 + np.sum(coeffs ** 2, axis=-1))


@dataclass(frozen=True)
class Observable:
    """A named scalar function of the state with a declared envelope.

    fn maps a coefficient array (either one state of shape (N,) or a
    snapshot matrix of shape (n, N)) to values of matching leading shape.
    envelope is one of "psi", "psi_sq", "const"; for "const" the bound
    field holds the constant.  Every evaluation checks |value| <= envelope.
    """

    name: str
    fn: object
    envelope: str = "psi"
    bound: float = 1.0

    def __post_init__(self):
        if self.envelope not in ("psi", "psi_sq", "const"):
            raise ValueError("envelope must be psi, psi_sq or const")
        if self.envelope == "const" and not self.bound > 0:
            raise ValueError("constant envelope must be positive")

    def _envelope_values(self, coeffs):
        if self.envelope == "psi":
            return np.sqrt(1.0 + np.sum(coeffs ** 2, axis=-1))
        if self.envelope == "psi_sq":
            return 1.0 + np.sum(coeffs ** 2, axis=-1)
        return np.full(coeffs.shape[:-1], self.bound)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate on a snapshot matrix (n, N), asserting the envelope."""
        coeffs = np.asarray(coeffs, dtype=float)
        vals = np.asarray(self.fn(coeffs), dtype=float)
        env = self._envelope_values(coeffs)
        tol = 1e-9 * (1.0 + np.abs(env))
        bad = np.abs(vals) > env + tol
        if np.any(bad):
            i = int(np.argmax(bad))
            raise EnvelopeViolation(
                f"observable {self.name!r} broke its envelope: "
                f"|{vals.flat[i]:.6g}| > {env.flat[i]:.6g}")
        return vals

    def __call__(self, x) -> float:
        coeffs = x.coeffs if isinstance(x, SpectralField) else np.asarray(x)
        return float(self.values(coeffs[None, :])[0])


def mode_coefficient(k: int) -> Observable:
    """The k-th basis coefficient; dominated by the Lyapunov function."""
    if k < 1:
        raise ValueError("mode index starts at 1")
    return Observable(f"a_{k}", partial(_mode_value, k=k), "psi")


def norm_h_observable() -> Observable:
    return Observable("norm_h", _norm_h_value, "psi")


def norm_h_squared_observable() -> Observable:
    return Observable("norm_h_sq", _norm_h_sq_value, "psi_sq")


def psi_observable() -> Observable:
    return Observable("psi", _psi_value, "psi")


def tanh_mode_observable(k: int, c: float = 1.0) -> Observable:
    """tanh(c * a_k): bounded by 1, a generic smooth bounded test function."""
    if k < 1:
        raise ValueError("mode index starts at 1")
    label = f"tanh_{c:g}a_{k}"
    return Observable(label, partial(_tanh_mode_value, k=k, c=c),
                      "const", 1.0)


def observable_dictionary(n_modes: int) -> tuple:
    """Fixed dictionary of 16 test observables for decay estimation.

    Eight mode coefficients plus eight bounded tanh compositions.  A finite
    dictionary under-estimates the supremum over the full envelope class,
    so rates fitted from it are lower bounds by construction.
    """
    if n_modes < 8:
        raise ValueError("dictionary needs at least 8 modes")
    obs = [mode_coefficient(k) for k in range(1, 9)]
    for c in (1.0, 2.0):
        for k in range(1, 5):
            obs.append(tanh_mode_observable(k, c))
    return tuple(obs)


# ------------------------------------------------------ occupation measure

@dataclass(frozen=True)
class OccupationHistogram:
    """Time-weighted distribution of an observable along a path."""

    observable: str
    edges: np.ndarray
    masses: np.ndarray
    total_time: float

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "masses", masses)
        if edges.ndim != 1 or masses.ndim != 1 \
                or edges.size != masses.size + 1:
            raise ValueError("need len(edges) == len(masses) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        if abs(float(masses.sum()) - 1.0) > 1e-12:
            raise ValueError("masses must sum to one")
        if not self.total_time > 0:
            raise ValueError("total_time must be positive")

    @property
    def n_bins(self) -> int:
        return self.masses.size

    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def mean(self) -> float:
        return float(np.dot(self.centers(), self.masses))

    def cdf_at_edges(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.masses)))

    def merge(self, other: "OccupationHistogram") -> "OccupationHistogram":
        """Time-weighted combination; exact and commutative."""
        if other.observable != self.observable:
            raise ValueError("histograms observe different quantities")
        if not np.array_equal(other.edges, self.edges):
            raise ValueError("histograms use different bin edges")
        t = self.total_time + other.total_time
        m = (self.masses * self.total_time
             + other.masses * other.total_time) / t
        m = m / m.sum()
        return OccupationHistogram(self.observable, self.edges, m, t)

    def to_dict(self) -> dict:
        return {
            "observable": self.observable,
            "edges": self.edges.tolist(),
            "masses": self.masses.tolist(),
            "total_time": self.total_time,
        }


def _snapshot_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for snapshot instants."""
    dt = np.diff(times)
    w = np.zeros_like(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def occupation_measure(traj: Trajectory, obs: Observable,
                       bins) -> OccupationHistogram:
    """Fraction of time the observable spends in each bin over [0, T].

    bins is either a bin count (edges span the observed range) or an
    explicit increasing edge array; values outside explicit edges are
    counted in the end bins so no mass is dropped.
    """
    if traj.n_snapshots < 2:
        raise ValueError("need at least two snapshots")
    vals = obs.values(traj.coeffs)
    w = _snapshot_weights(traj.times)
    total = float(w.sum())

    if np.isscalar(bins):
        n_bins = int(bins)
        if n_bins < 1:
            raise ValueError("need at least one bin")
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, n_bins + 1)
    else:
        edges = np.asarray(bins, dtype=float)

    clipped = np.clip(vals, edges[0], edges[-1])
    masses, _ = np.histogram(clipped, bins=edges, weights=w)
    masses = masses / total
    masses = masses / masses.sum()
    return OccupationHistogram(obs.name, edges, masses,
                               float(traj.times[-1] - traj.times[0]))


def kolmogorov_distance(hist: OccupationHistogram, cdf) -> float:
    """sup at the bin edges of |empirical CDF - cdf|."""
    emp = hist.cdf_at_edges()
    ref = np.array([cdf(e) for e in hist.edges])
    return float(np.max(np.abs(emp - ref)))


# ------------------------------------------------- batch-means machinery

def integrated_autocorr_time(series: np.ndarray) -> float:
    """Integrated autocorrelation time in sample units (at least 1).

    Sums the empirical autocorrelations up to the first non-positive lag;
    adequate for the monotone-correlation series produced here.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 4:
        return 1.0
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var <= 0:
        return 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    rho = acov / acov[0]
    tau = 1.0
    for k in range(1, n // 2):
        if rho[k] <= 0:
            break
        tau += 2.0 * float(rho[k])
    return max(tau, 1.0)


def _batch_layout(n_samples: int, tau: float,
                  min_batches: int = 30, max_batches: int = 100):
    """Batch count and length: batches at least 20 correlation times long."""
    min_len = max(int(math.ceil(20.0 * tau)), 1)
    n_batches = n_samples // min_len
    if n_batches > max_batches:
        n_batches = max_batches
    if n_batches < min_batches:
        raise ValueError(
            f"series too short: {n_samples} samples support only "
            f"{n_batches} batches of {min_len} (need {min_batches})")
    return n_batches, n_samples // n_batches


def _batch_means(series: np.ndarray, n_batches: int,
                 batch_len: int) -> np.ndarray:
    used = n_batches * batch_len
    return series[:used].reshape(n_batches, batch_len).mean(axis=1)


def _halves_differ(batch_means: np.ndarray) -> bool:
    """Nonstationarity probe: first and second half disagree beyond noise."""
    m = batch_means.size // 2
    a, b = batch_means[:m], batch_means[m:2 * m]
    if m < 2:
        return False
    se = math.sqrt(a.var(ddof=1) / m + b.var(ddof=1) / m)
    if se == 0:
        return abs(float(a.mean() - b.mean())) > 0
    return abs(float(a.mean() - b.mean())) > 3.0 * se


# --------------------------------------------------- invariant estimation

def invariant_estimate(cfg: SimConfig, burn_in: float, t_end: float,
                       observables=None) -> dict:
    """Long-run time averages after burn-in, one report per observable.

    Runs a single trajectory to t_end, drops snapshots before burn_in and
    returns batch-means estimates.  The Lyapunov-function average (key
    "psi") is always included so integrability of the invariant law can be
    monitored directly.
    """
    if not 0.0 <= burn_in < t_end:
        raise ValueError("need 0 <= burn_in < t_end")
    if observables is None:
        observables = [mode_coefficient(1), norm_h_observable(),
                       norm_h_squared_observable()]
    cfg = replace(cfg, t_end=t_end) if t_end != cfg.t_end else cfg
    return path_averages(simulate(cfg), burn_in, observables)


def path_averages(traj: Trajectory, burn_in: float, observables) -> dict:
    """The reports of invariant_estimate from an already simulated path."""
    if not 0.0 <= burn_in < float(traj.times[-1]):
        raise ValueError("need 0 <= burn_in < t_end")
    observables = list(observables)
    if not any(o.name == "psi" for o in observables):
        observables.append(psi_observable())
    mask = traj.times >= burn_in - 1e-12
    coeffs = traj.coeffs[mask]
    times = traj.times[mask]
    if coeffs.shape[0] < 4:
        raise ValueError("insufficient post-burn-in samples")
    duration = float(times[-1] - times[0])

    out = {}
    for obs in observables:
        series = obs.values(coeffs)
        tau = integrated_autocorr_time(series)
        n_b, b_len = _batch_layout(series.size, tau)
        bm = _batch_means(series, n_b, b_len)
        se = float(bm.std(ddof=1) / math.sqrt(n_b))
        flags = ("nonstationary",) if _halves_differ(bm) else ()
        out[obs.name] = EstimateReport(
            name=f"invariant_mean_{obs.name}",
            value=float(bm.mean()),
            half_width=3.0 * se,
            n=n_b,
            method="time_average_batch_means",
            flags=flags,
            extra={
                "burn_in": burn_in,
                "duration": duration,
                "autocorr_time_samples": tau,
                "batch_length_samples": b_len,
            },
        )
    return out


def sigma_squared(traj: Trajectory, obs: Observable,
                  burn_in: float = 0.0,
                  n_batches: int | None = None) -> EstimateReport:
    """Long-run variance of the time-averaged observable, by batch means.

    The estimate is batch_duration * Var(batch means) over equal batches of
    at least 20 autocorrelation times each (30 to 100 batches).  A
    nonstationarity flag is raised when the two halves of the series give
    estimates more than three combined standard errors apart.
    """
    mask = traj.times >= burn_in - 1e-12
    times = traj.times[mask]
    if times.size < 4:
        raise ValueError("insufficient post-burn-in samples")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9):
        raise ValueError("snapshots must be uniformly spaced")
    dt = float(dts[0])

    series = obs.values(traj.coeffs[mask])
    tau = integrated_autocorr_time(series)
    if n_batches is None:
        n_b, b_len = _batch_layout(series.size, tau)
    else:
        if n_batches < 30:
            raise ValueError("need at least 30 batches")
        n_b = n_batches
        b_len = series.size // n_b
        if b_len < 1:
            raise ValueError("series too short for that many batches")
    bm = _batch_means(series, n_b, b_len)
    batch_duration = b_len * dt
    var_bm = float(bm.var(ddof=1))
    value = batch_duration * var_bm
    se = value * math.sqrt(2.0 / (n_b - 1))

    flags = []
    if _halves_differ(bm):
        flags.append("nonstationary")
    if b_len < 20.0 * tau:
        flags.append("short_batches")
    return EstimateReport(
        name=f"sigma_squared_{obs.name}",
        value=value,
        half_width=3.0 * se,
        n=n_b,
        method="batch_means",
        flags=tuple(flags),
        extra={
            "mean": float(bm.mean()),
            "autocorr_time_samples": tau,
            "batch_duration": batch_duration,
            "burn_in": burn_in,
        },
    )


# ------------------------------------------------------- mixing-rate probe

def _grid_indices(t_grid, dt_save: float, n_snapshots: int) -> np.ndarray:
    idx = []
    for t in t_grid:
        i = int(round(t / dt_save))
        if abs(i * dt_save - t) > 1e-9 * max(1.0, t) or not \
                0 <= i < n_snapshots:
            raise ValueError(f"time {t} is not on the snapshot grid")
        idx.append(i)
    return np.array(idx, dtype=int)


def _snapshots_at(traj: Trajectory, indices) -> np.ndarray:
    return traj.coeffs[list(indices)]


def ergodic_decay(cfg: SimConfig, x0: SpectralField, y0: SpectralField,
                  observables, t_grid, n_traj: int,
                  n_workers: int = 1) -> EstimateReport:
    """Exponential mixing-rate fit from paired trajectories.

    Runs n_traj pairs started at x0 and y0 with the same driving noise per
    pair (common random numbers), forms D(t) = max over the dictionary of
    |mean difference|, and fits log D(t) linearly over the window where
    D(t) clears three standard errors.  Returns the fitted rate (value =
    -slope); a finite dictionary makes this a lower-bound estimator.  When
    no window point clears the noise the rate is reported as a lower bound
    only (infinite when the paths coincide).  Pair i is trajectory i of two
    ensembles started at x0 and y0.  Raises EnsembleBlowUpError when any
    trajectory blows up.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("observable dictionary must be nonempty")
    if n_traj < 2:
        raise ValueError("need at least two pairs")
    t_grid = np.asarray(list(t_grid), dtype=float)
    n_snap = int(round(cfg.t_end / cfg.dt_save)) + 1
    indices = _grid_indices(t_grid, cfg.dt_save, n_snap)

    # pair i is trajectory i of both ensembles: same sub-seed, same noise
    reducer = partial(_snapshots_at, indices=tuple(indices.tolist()))
    from_x = ensemble(replace(cfg, x0=x0), n_traj, reducer, n_workers)
    from_y = ensemble(replace(cfg, x0=y0), n_traj, reducer, n_workers)
    require_no_blowups(from_x + from_y)

    # diff[i, g, t] = g(X_t^x) - g(X_t^y) for pair i
    n_g, n_t = len(observables), indices.size
    diffs = np.empty((n_traj, n_g, n_t))
    for i in range(n_traj):
        cx, cy = from_x[i], from_y[i]
        for g, obs in enumerate(observables):
            diffs[i, g] = obs.values(cx) - obs.values(cy)

    mean_diff = diffs.mean(axis=0)                       # (n_g, n_t)
    d_abs = np.abs(mean_diff)
    best_g = np.argmax(d_abs, axis=0)                    # (n_t,)
    d_vals = d_abs[best_g, np.arange(n_t)]
    se_vals = np.array([
        diffs[:, best_g[j], j].std(ddof=1) / math.sqrt(n_traj)
        for j in range(n_t)
    ])

    window = d_vals > 3.0 * se_vals
    flags = ["finite_dictionary"]
    extra = {
        "t_grid": t_grid.tolist(),
        "d_values": d_vals.tolist(),
        "se_values": se_vals.tolist(),
        "window": window.tolist(),
    }

    if int(window.sum()) >= 3:
        tw = t_grid[window]
        logd = np.log(d_vals[window])
        slope, intercept = np.polyfit(tw, logd, 1)
        fit = slope * tw + intercept
        resid = logd - fit
        m = tw.size
        denom = float(np.sum((tw - tw.mean()) ** 2))
        se_slope = math.sqrt(max(float(resid @ resid), 0.0)
                             / max(m - 2, 1) / denom)
        ss_tot = float(np.sum((logd - logd.mean()) ** 2))
        extra["r_squared"] = 1.0 - float(resid @ resid) / ss_tot \
            if ss_tot > 0 else 1.0
        value, half = -float(slope), 3.0 * se_slope
    else:
        flags += ["signal_below_noise", "lower_bound"]
        above = np.nonzero(window)[0]
        below = np.nonzero(~window)[0]
        if above.size and below.size and below.max() > above.min():
            i0, i1 = above.min(), below.max()
            floor = max(3.0 * se_vals[i1], 1e-300)
            value = math.log(d_vals[i0] / floor) / (t_grid[i1] - t_grid[i0])
        else:
            value = math.inf
        half = 0.0

    return EstimateReport(
        name="ergodic_decay_rate",
        value=value,
        half_width=half,
        n=n_traj,
        method="paired_difference_fit",
        flags=tuple(flags),
        extra=extra,
    )


# ----------------------------------------------------------- MDP functional

@dataclass(frozen=True)
class MdpConfig:
    """Moderate-deviation normalization: scale(t) = prefactor * t^exponent.

    The exponent must lie strictly between 0 and 1/2 so that scale(t)
    diverges while scale(t)/sqrt(t) vanishes.
    """

    observable: Observable
    mu_reference: float
    exponent: float = 0.25
    prefactor: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.exponent < 0.5:
            raise ValueError("exponent must lie in (0, 1/2)")
        if not self.prefactor > 0:
            raise ValueError("prefactor must be positive")

    def scale(self, t: float) -> float:
        return self.prefactor * t ** self.exponent


def mdp_functional(traj: Trajectory, mdp_cfg: MdpConfig) -> float:
    """Centred occupation integral over the sublinear normalization:

    integral of (phi(X_s) - mu_ref) ds over the path, divided by
    scale(T) * sqrt(T), via the trapezoid rule.
    """
    t = float(traj.times[-1] - traj.times[0])
    if t <= 0:
        raise ValueError("trajectory must span positive time")
    vals = mdp_cfg.observable.values(traj.coeffs) - mdp_cfg.mu_reference
    integral = float(np.trapezoid(vals, traj.times))
    return integral / (mdp_cfg.scale(t) * math.sqrt(t))


# ------------------------------------------------------------ hitting times

@dataclass(frozen=True)
class HittingSummary:
    """First-entrance statistics for the dissipation centre set."""

    radius: float
    t_max: float
    samples: np.ndarray           # nan = censored at t_max
    delayed_samples: np.ndarray   # first entrance not before the delay time
    n_censored: int
    tail_times: np.ndarray
    tail_log_survival: np.ndarray
    tail_rate: float | None
    tail_r_squared: float | None
    exp_moments: tuple            # (lam, estimate or None, flag)
    flags: tuple = ()
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "t_max": self.t_max,
            "n": int(self.samples.size),
            "n_censored": self.n_censored,
            "mean_entrance_time": float(np.nanmean(self.samples))
            if np.any(np.isfinite(self.samples)) else None,
            "tail_times": self.tail_times.tolist(),
            "tail_log_survival": self.tail_log_survival.tolist(),
            "tail_rate": self.tail_rate,
            "tail_r_squared": self.tail_r_squared,
            "exp_moments": [list(row) for row in self.exp_moments],
            "flags": list(self.flags),
        }


def _entrance_times(traj: Trajectory, radius: float, delay: float):
    v = traj.norm_v()
    inside = v <= radius
    tau = math.nan
    hit = np.nonzero(inside)[0]
    if hit.size:
        tau = float(traj.times[hit[0]])
    late = np.nonzero(inside & (traj.times >= delay - 1e-12))[0]
    tau_delayed = float(traj.times[late[0]]) if late.size else math.nan
    return tau, tau_delayed


def hitting_times(cfg: SimConfig, constants: DriftConstants, n_traj: int,
                  t_max: float, delay: float = 1.0, lam_grid=None,
                  n_workers: int = 1) -> HittingSummary:
    """Entrance-time samples for the set {||x||_V <= k_radius}.

    Trajectories run to t_max; paths that never enter are censored (nan)
    and counted.  The survival curve P(tau > t) is fitted log-linearly over
    an interior quantile window, and exponential moments E[exp(lam tau)]
    are reported only for lam below 0.8 of the fitted tail rate (with a
    lower-bound flag when censoring truncates the average).  Raises
    EnsembleBlowUpError when any trajectory blows up.
    """
    cfg = replace(cfg, t_end=t_max) if cfg.t_end != t_max else cfg
    reducer = partial(_entrance_times, radius=constants.k_radius,
                      delay=delay)
    out = require_no_blowups(ensemble(cfg, n_traj, reducer,
                                      n_workers=n_workers))
    taus = np.array([r[0] for r in out])
    taus_delayed = np.array([r[1] for r in out])
    censored = int(np.sum(np.isnan(taus)))
    flags = []
    if censored:
        flags.append("censored")

    finite = np.sort(taus[np.isfinite(taus)])
    tail_times = np.array([])
    tail_log = np.array([])
    rate = None
    r_sq = None
    if finite.size == 0:
        flags.append("all_censored")
    else:
        qs = np.quantile(finite, np.linspace(0.30, 0.95, 12))
        grid = np.unique(qs)
        surv = np.array([
            float(np.mean(np.where(np.isnan(taus), math.inf, taus) > t))
            for t in grid
        ])
        keep = surv > 0
        tail_times = grid[keep]
        tail_log = np.log(surv[keep])
        if tail_times.size >= 3 and np.ptp(tail_times) > 0:
            slope, intercept = np.polyfit(tail_times, tail_log, 1)
            fit = slope * tail_times + intercept
            resid = tail_log - fit
            ss_tot = float(np.sum((tail_log - tail_log.mean()) ** 2))
            r_sq = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
            rate = -float(slope)
        else:
            flags.append("tail_unresolved")

    if lam_grid is None:
        lam_grid = () if rate is None or rate <= 0 else \
            (0.25 * rate, 0.5 * rate, 1.2 * rate)
    moments = []
    filled = np.where(np.isnan(taus), t_max, taus)
    for lam in lam_grid:
        if rate is not None and rate > 0 and lam < 0.8 * rate:
            est = float(np.mean(np.exp(lam * filled)))
            moments.append((float(lam), est,
                            "lower_bound" if censored else "ok"))
        else:
            moments.append((float(lam), None, "divergence_risk"))

    return HittingSummary(
        radius=constants.k_radius,
        t_max=t_max,
        samples=taus,
        delayed_samples=taus_delayed,
        n_censored=censored,
        tail_times=tail_times,
        tail_log_survival=tail_log,
        tail_rate=rate,
        tail_r_squared=r_sq,
        exp_moments=tuple(moments),
        flags=tuple(flags),
    )


# ------------------------------------------------------ deviation rate probe

def _running_averages(traj: Trajectory, obs: Observable, indices):
    vals = obs.values(traj.coeffs)
    dt = np.diff(traj.times)
    cum = np.concatenate(([0.0],
                          np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]))))
    idx = np.asarray(indices, dtype=int)
    return cum[idx] / traj.times[idx]


def deviation_tail_probe(cfg: SimConfig, obs: Observable, r_grid, t_grid,
                         n_traj: int, mu_ref: float,
                         n_workers: int = 1) -> tuple:
    """Empirical deviation rates -(1/t) log P(|time average - mu| > r).

    Returns one record per (t, r) pair.  Zero exceedance counts are
    replaced by the 97.5% Clopper-Pearson upper bound on the probability,
    which turns the reported rate into a certified lower bound (flagged).
    No claim is made that these rates converge to a variational rate
    function; the table only exposes their magnitude and trend.
    Raises EnsembleBlowUpError when any trajectory blows up.
    """
    t_grid = sorted(float(t) for t in t_grid)
    r_grid = [float(r) for r in r_grid]
    if t_grid[0] <= 0:
        raise ValueError("probe times must be positive")
    t_max = t_grid[-1]
    cfg = replace(cfg, t_end=t_max) if cfg.t_end != t_max else cfg
    n_snap = int(round(cfg.t_end / cfg.dt_save)) + 1
    indices = _grid_indices(t_grid, cfg.dt_save, n_snap)

    reducer = partial(_running_averages, obs=obs, indices=tuple(indices))
    out = require_no_blowups(ensemble(cfg, n_traj, reducer,
                                      n_workers=n_workers))
    averages = np.vstack(out)      # (n_traj, n_t)

    rows = []
    for j, t in enumerate(t_grid):
        dev = np.abs(averages[:, j] - mu_ref)
        for r in r_grid:
            k = int(np.sum(dev > r))
            if k > 0:
                prob = k / n_traj
                lower = False
            else:
                prob = 1.0 - 0.025 ** (1.0 / n_traj)
                lower = True
            rows.append({
                "t": t,
                "r": r,
                "n_exceed": k,
                "prob": prob,
                "rate": -math.log(prob) / t if prob < 1.0 else 0.0,
                "rate_is_lower_bound": lower,
            })
    return tuple(rows)
