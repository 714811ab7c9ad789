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
from functools import partial

import numpy as np

from .spectral import SpectralField, norm_h_sq, record, replace
from .integrator import SimConfig, Trajectory, simulate, ensemble
from .lyapunov import DriftConstants, EstimateReport, psi, \
    _cumulative_trapezoid

__all__ = [
    "Observable",
    "EnvelopeViolation",
    "SeriesTooShort",
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


class SeriesTooShort(ValueError):
    """A path has too few samples for the batch means asked of it."""


# ------------------------------------------------------------- observables

def _mode_value(coeffs, k):
    return coeffs[..., k - 1]


def _tanh_mode_value(coeffs, k, c):
    return np.tanh(c * coeffs[..., k - 1])


def _norm_h_value(coeffs):
    return np.sqrt(norm_h_sq(coeffs))


@record
class Observable:
    """A named scalar function of the state with a declared envelope.

    fn maps a coefficient array of shape (..., N), one state per row, to
    one value per state.
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
            return psi(coeffs)
        if self.envelope == "psi_sq":
            return 1.0 + norm_h_sq(coeffs)
        return np.full(coeffs.shape[:-1], self.bound)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate on states (..., N), asserting the envelope."""
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


def mode_coefficient(k: int) -> Observable:
    """The k-th basis coefficient; dominated by the Lyapunov function."""
    if k < 1:
        raise ValueError("mode index starts at 1")
    return Observable(f"a_{k}", partial(_mode_value, k=k), "psi")


def norm_h_observable() -> Observable:
    return Observable("norm_h", _norm_h_value, "psi")


def norm_h_squared_observable() -> Observable:
    return Observable("norm_h_sq", norm_h_sq, "psi_sq")


def psi_observable() -> Observable:
    return Observable("psi", psi, "psi")


def tanh_mode_observable(k: int, c: float = 1.0) -> Observable:
    """tanh(c * a_k): bounded by 1, a generic smooth bounded test function."""
    if k < 1:
        raise ValueError("mode index starts at 1")
    label = f"tanh_{c:g}a_{k}"
    return Observable(label, partial(_tanh_mode_value, k=k, c=c),
                      "const", 1.0)


def observable_dictionary(n_modes: int) -> tuple:
    """Fixed dictionary of 16 test observables for decay estimation.

    Eight mode coefficients plus eight bounded tanh compositions; below 8
    modes, the n_modes mode coefficients alone.  A finite dictionary
    under-estimates the supremum over the full envelope class, so the
    distance D_dict(t) it gives bounds the psi-distance from below at
    each t.  A rate fitted to D_dict(t) does not bound gamma from below.
    """
    if n_modes < 8:
        return tuple(mode_coefficient(k) for k in range(1, n_modes + 1))
    obs = [mode_coefficient(k) for k in range(1, 9)]
    for c in (1.0, 2.0):
        for k in range(1, 5):
            obs.append(tanh_mode_observable(k, c))
    return tuple(obs)


# ------------------------------------------------------ occupation measure

@record
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

    def cdf_at_edges(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.masses)))

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


def _batch_series(traj: Trajectory, obs: Observable, burn_in: float,
                  n_batches: int | None = None) -> tuple:
    """Batch means of obs along traj from burn_in on.

    Returns the snapshot times kept, the integrated autocorrelation time
    of the series and the batch length (both in samples), and the batch
    means.  By default there are 30 to 100 batches, each at least 20
    correlation times long; n_batches (at least 30) fixes the count.  The
    samples left over after the last whole batch are dropped.
    """
    mask = traj.times >= burn_in - 1e-12
    times = traj.times[mask]
    if times.size < 4:
        raise SeriesTooShort("insufficient post-burn-in samples")
    series = obs.values(traj.coeffs[mask])
    tau = integrated_autocorr_time(series)
    if n_batches is None:
        min_len = max(int(math.ceil(20.0 * tau)), 1)
        n_batches = min(series.size // min_len, 100)
        if n_batches < 30:
            raise SeriesTooShort(
                f"series too short: {series.size} samples support only "
                f"{n_batches} batches of {min_len} (need 30)")
    elif n_batches < 30:
        raise ValueError("need at least 30 batches")
    b_len = series.size // n_batches
    if b_len < 1:
        raise SeriesTooShort("series too short for that many batches")
    used = series[:n_batches * b_len]
    return times, tau, b_len, used.reshape(n_batches, b_len).mean(axis=1)


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

def invariant_estimate(cfg: SimConfig, burn_in: float,
                       observables=None) -> dict:
    """Long-run time averages after burn-in, one report per observable.

    Runs a single trajectory to cfg.t_end, drops snapshots before burn_in
    and returns batch-means estimates.  The Lyapunov-function average (key
    "psi") is always included so integrability of the invariant law can be
    monitored directly.
    """
    if not 0.0 <= burn_in < cfg.t_end:
        raise ValueError("need 0 <= burn_in < t_end")
    if observables is None:
        observables = [mode_coefficient(1), norm_h_observable(),
                       norm_h_squared_observable()]
    return path_averages(simulate(cfg), burn_in, observables)


def path_averages(traj: Trajectory, burn_in: float, observables) -> dict:
    """The reports of invariant_estimate from an already simulated path."""
    if not 0.0 <= burn_in < float(traj.times[-1]):
        raise ValueError("need 0 <= burn_in < t_end")
    observables = list(observables)
    if not any(o.name == "psi" for o in observables):
        observables.append(psi_observable())

    out = {}
    for obs in observables:
        times, tau, b_len, bm = _batch_series(traj, obs, burn_in)
        n_b = bm.size
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
                "duration": float(times[-1] - times[0]),
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
    times, tau, b_len, bm = _batch_series(traj, obs, burn_in, n_batches)
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9):
        raise ValueError("snapshots must be uniformly spaced")
    n_b = bm.size
    batch_duration = b_len * float(dts[0])
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
    -slope).  D(t) bounds the psi-distance of the two laws from below, but
    the fitted rate does not bound gamma from below.  When no window point
    clears the noise the rate is reported as a lower bound only (infinite
    when the paths coincide).  Pair i is trajectory i of one ensemble from
    the starts x0 and y0, its two rows stepped in the same block.  Raises
    EnsembleBlowUpError when any trajectory blows up.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("observable dictionary must be nonempty")
    if n_traj < 2:
        raise ValueError("need at least two pairs")
    t_grid = np.asarray(list(t_grid), dtype=float)
    indices = tuple(cfg.save_index(t) for t in t_grid)

    # pair i is trajectory i from both starts: same sub-seed, same noise
    reducer = partial(_snapshots_at, indices=indices)
    paths = ensemble(cfg, n_traj, reducer, n_workers, starts=(x0, y0))
    from_x = np.stack(paths[:n_traj])                     # (n_traj, n_t, N)
    from_y = np.stack(paths[n_traj:])

    # diff[i, g, t] = g(X_t^x) - g(X_t^y) for pair i
    n_t = len(indices)
    diffs = np.stack([obs.values(from_x) - obs.values(from_y)
                      for obs in observables], axis=1)

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
        slope, se_slope, extra["r_squared"] = _log_linear_fit(
            t_grid[window], np.log(d_vals[window]))
        value, half = -slope, 3.0 * se_slope
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


# np.quantile and a plain np.unique import numpy.ma (about 13 ms) on first
# use; the two helpers below give their results bit for bit without it.

def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x) of a 1-D float array without nan."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _linear_quantiles(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(s, q) of the sorted finite samples s, linear method."""
    v = (s.size - 1) * q
    lo = np.floor(v).astype(np.intp)
    hi = lo + 1
    top = v >= s.size - 1
    lo[top] = hi[top] = -1
    t = v - lo
    a, b = s[lo], s[hi]
    d = b - a
    out = a + d * t
    # numpy's lerp takes the form anchored at b from t = 0.5 on
    np.subtract(b, d * (1 - t), out=out, where=t >= 0.5)
    return out


def _log_linear_fit(t: np.ndarray, logy: np.ndarray) -> tuple:
    """Least-squares line through (t, logy) at three or more distinct t.

    Returns the slope, its standard error and R^2 (1 when logy is flat).
    """
    slope, intercept = np.polyfit(t, logy, 1)
    resid = logy - (slope * t + intercept)
    rss = float(resid @ resid)
    denom = float(np.sum((t - t.mean()) ** 2))
    se = math.sqrt(max(rss, 0.0) / max(t.size - 2, 1) / denom)
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    return float(slope), se, 1.0 - rss / ss_tot if ss_tot > 0 else 1.0


# ----------------------------------------------------------- MDP functional

@record
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

@record
class HittingSummary:
    """First-entrance statistics for the dissipation centre set."""

    radius: float
    t_max: float                  # the horizon, cfg.t_end
    samples: np.ndarray           # nan = censored at t_max
    n_censored: int
    tail_times: np.ndarray
    tail_log_survival: np.ndarray
    tail_rate: float | None
    tail_r_squared: float | None
    exp_moments: tuple            # (lam, estimate or None, flag)
    flags: tuple = ()

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


def hitting_times(cfg: SimConfig, constants: DriftConstants, n_traj: int,
                  n_workers: int = 1) -> HittingSummary:
    """Entrance-time samples for the set {||x||_V <= k_radius}.

    A trajectory's sample is its entrance time from ensemble's first
    passage, the time of its first save-grid snapshot inside the set; one
    that has not entered by the horizon cfg.t_end is censored (nan) and
    counted.  The survival curve P(tau > t) is fitted log-linearly over
    an interior quantile window.
    Exponential moments E[exp(lam tau)] are reported at lam = 0.25, 0.5
    and 1.2 times the fitted tail rate, each estimated only below 0.8 of
    that rate (with a lower-bound flag when censoring truncates the
    average).  Raises EnsembleBlowUpError when any trajectory blows up
    before it enters.
    """
    taus = np.array(ensemble(cfg, n_traj, n_workers=n_workers,
                             until=constants.in_k))
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
        grid = _sorted_unique(
            _linear_quantiles(finite, np.linspace(0.30, 0.95, 12)))
        surv = np.mean(np.where(np.isnan(taus), math.inf, taus)
                       > grid[:, None], axis=1)
        keep = surv > 0
        tail_times = grid[keep]
        tail_log = np.log(surv[keep])
        if tail_times.size >= 3 and np.ptp(tail_times) > 0:
            slope, _, r_sq = _log_linear_fit(tail_times, tail_log)
            rate = -slope
        else:
            flags.append("tail_unresolved")

    lam_grid = () if rate is None or rate <= 0 else \
        (0.25 * rate, 0.5 * rate, 1.2 * rate)
    moments = []
    filled = np.where(np.isnan(taus), cfg.t_end, taus)
    for lam in lam_grid:
        if lam < 0.8 * rate:
            est = float(np.mean(np.exp(lam * filled)))
            moments.append((float(lam), est,
                            "lower_bound" if censored else "ok"))
        else:
            moments.append((float(lam), None, "divergence_risk"))

    return HittingSummary(
        radius=constants.k_radius,
        t_max=cfg.t_end,
        samples=taus,
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
    cum = _cumulative_trapezoid(obs.values(traj.coeffs), traj.times)
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
    if not cfg.nearest_save_time(t_grid[0]) >= cfg.dt_save:
        raise ValueError(f"probe time {t_grid[0]} is not past snapshot 0; "
                         "probe times must be at least one save interval")
    cfg = replace(cfg, t_end=t_grid[-1])
    indices = tuple(cfg.save_index(t) for t in t_grid)

    reducer = partial(_running_averages, obs=obs, indices=indices)
    averages = np.vstack(ensemble(cfg, n_traj, reducer,
                                  n_workers=n_workers))      # (n_traj, n_t)

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
