"""Long-run statistics on the one exactly solvable configuration.

With the nonlinearity off, a single mode, and unit Brownian forcing, the
first coefficient is an Ornstein-Uhlenbeck process with rate pi^2.  Its
invariant law is Gaussian with variance 1/(2 pi^2) and the long-run
variance of time averages is 1/pi^4, so every estimator in the statistics
layer can be graded against a closed form.
"""

import math

import numpy as np

from sburgers import SimConfig, GaussianSpec, simulate, mode_coefficient
from sburgers.ergodics import (
    occupation_measure, kolmogorov_distance, invariant_estimate,
    sigma_squared, integrated_autocorr_time,
)

cfg = SimConfig(n_modes=1, dt=1e-3, t_end=300.0, dt_save=1e-2,
                gaussian=GaussianSpec(np.array([1.0])), jumps=None,
                nonlinearity_on=False, seed=12)
print("simulating 300 time units of the linear single-mode model...")
traj = simulate(cfg)
obs = mode_coefficient(1)

reports = invariant_estimate(cfg, 10.0, [obs])
rep = reports[obs.name]
exact_var = 1.0 / (2.0 * math.pi ** 2)
print(f"\nstationary mean of a_1: {rep.value:+.5f} "
      f"+/- {rep.half_width:.5f} (exact 0)")

series = traj.coeffs[1000:, 0]
print(f"stationary variance:    {np.var(series):.6f} "
      f"(exact {exact_var:.6f})")
tau = integrated_autocorr_time(series)
print(f"autocorrelation time:   {tau * cfg.dt_save:.4f} time units "
      f"(exact {2 / math.pi ** 2:.4f})")

s2 = sigma_squared(traj, obs, burn_in=10.0)
print(f"long-run variance:      {s2.value:.6f} +/- {s2.half_width:.6f} "
      f"(exact {math.pi ** -4:.6f})")

hist = occupation_measure(traj, obs, 60)
sd = math.sqrt(exact_var)


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / (sd * math.sqrt(2.0))))


ks = kolmogorov_distance(hist, normal_cdf)
print(f"\noccupation measure vs exact Gaussian: "
      f"Kolmogorov distance {ks:.4f}")
print("histogram (each * is 2% occupation):")
mid = 0.5 * (hist.edges[:-1] + hist.edges[1:])
for j in range(0, len(hist.masses), 4):
    bar = "*" * int(round(hist.masses[j:j + 4].sum() / 0.02))
    print(f"  {mid[j]:+6.2f} {bar}")
