"""Mixing rate and return times to the centre set.

Part one pairs trajectories started from two different states but driven
by the same noise; the mean difference of observables decays like
exp(-gamma t) and the fitted gamma is checkable against pi^2 on the linear
model.  Part two starts the full model far out (|x|_V twice the centre-set
radius), records the first entrance time into the set for a batch of
paths, and fits the exponential tail of the survival curve.
"""

import math

import numpy as np

from sburgers import (
    SimConfig, GaussianSpec, JumpSpec, ExponentialMarks, ConstantDirection,
    basis_field, zero_field, mode_coefficient, DriftConstants,
    ergodic_decay, hitting_times,
)

lin = SimConfig(n_modes=1, dt=1e-3, t_end=1.0, dt_save=0.05,
                gaussian=GaussianSpec(np.array([1.0])), jumps=None,
                nonlinearity_on=False, seed=5)
decay = ergodic_decay(lin, 2.0 * basis_field(1, 1), zero_field(1),
                      [mode_coefficient(1)], np.linspace(0.1, 1.0, 10),
                      n_traj=8)
print(f"linear model decay rate: {decay.value:.6f} "
      f"(exact pi^2 = {math.pi ** 2:.6f})")
print(f"fit R^2: {decay.extra['r_squared']:.6f}, flags: {decay.flags}")

N = 8
gauss = GaussianSpec.power_decay(N, normalize_to=1.0)
jumps = JumpSpec(1.0, ExponentialMarks(2.0),
                 ConstantDirection(basis_field(1, N)))
constants = DriftConstants.from_specs(gauss, jumps)
x0 = (2.0 * constants.k_radius / math.pi) * basis_field(1, N)
cfg = SimConfig(n_modes=N, dt=2e-3, t_end=1.0, dt_save=1e-2,
                gaussian=gauss, jumps=jumps, nonlinearity_on=True,
                seed=20, x0=x0)

print(f"\nfull model: 400 starts at |x|_V = {2 * constants.k_radius}, "
      f"target set radius {constants.k_radius}")
summary = hitting_times(cfg, constants, 400)
q = np.nanquantile(summary.samples, [0.1, 0.5, 0.9])
print(f"entrance time quantiles: 10% {q[0]:.3f}, "
      f"median {q[1]:.3f}, 90% {q[2]:.3f}")
print(f"censored at t=1: {summary.n_censored} of 400")
print(f"survival tail rate {summary.tail_rate:.1f} "
      f"(R^2 {summary.tail_r_squared:.3f})")
print("exponential moments of the entrance time:")
for lam, value, flag in summary.exp_moments:
    shown = f"{value:.3f}" if value is not None else "not computed"
    print(f"  lambda={lam:7.2f}: {shown}  [{flag}]")
