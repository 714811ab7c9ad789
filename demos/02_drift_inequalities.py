"""Watch the Lyapunov drift condition hold along a simulated path.

psi(x) = sqrt(1 + |x|_H^2) is the Lyapunov function.  Outside the centre
set K = {|x|_V <= 2 c1} the generator pushes psi down at a definite rate;
inside K the decrease can fail but stays bounded.  The check below
evaluates the exact generator (linear part, noise trace, jump remainder by
quadrature) at states taken from a trajectory and at handmade states near
the K boundary, then corrupts the constant c1 to show the test has teeth.
"""

import math

import numpy as np

from sburgers import (
    SimConfig, GaussianSpec, JumpSpec, ExponentialMarks, ConstantDirection,
    basis_field, simulate, DriftConstants, drift_condition_check,
)

N = 8
gauss = GaussianSpec.power_decay(N, normalize_to=1.0)
jumps = JumpSpec(1.0, ExponentialMarks(2.0),
                 ConstantDirection(basis_field(1, N)))
constants = DriftConstants.from_specs(gauss, jumps)
print(f"constants: c1={constants.c1}, centre-set radius "
      f"2*c1={constants.k_radius}, forcing m={constants.m_est}")

cfg = SimConfig(n_modes=N, dt=1e-3, t_end=10.0, dt_save=0.5,
                gaussian=gauss, jumps=jumps, nonlinearity_on=True, seed=7)
traj = simulate(cfg)

# one batched call checks every other snapshot: states are the rows of an
# (n, N) coefficient array and each report field holds one value per state
rows = np.arange(0, traj.n_snapshots, 2)
rep = drift_condition_check(traj.coeffs[rows], constants, gauss, jumps)
print("\nstates from the path:")
print("  t     |x|_V   in K   drift lhs   generator margin")
for j, i in enumerate(rows):
    print(f"  {traj.times[i]:5.2f}  {rep.v_norm[j]:6.3f}  "
          f"{str(rep.in_k[j]):5s}  {rep.lhs[j]:+9.4f}   "
          f"{rep.generator.margin[j]:+9.4f}"
          f"   {'ok' if rep.ok[j] else 'VIOLATED'}")

print("\nhandmade states crossing the K boundary (first-mode direction):")
radii = np.linspace(0.5, 2.0, 7) * constants.k_radius
shell = np.outer(radii / math.pi, basis_field(1, N).coeffs)
rep = drift_condition_check(shell, constants, gauss, jumps)
for j in range(len(radii)):
    print(f"  |x|_V={rep.v_norm[j]:6.3f}  in K={str(rep.in_k[j]):5s}  "
          f"lhs={rep.lhs[j]:+8.4f}  {'ok' if rep.ok[j] else 'VIOLATED'}")

# negative control: halve c1 and the chain must break
broken = constants.corrupted(constants.c1 / 2.0)
bad = int(np.sum(~drift_condition_check(traj.coeffs, broken, gauss,
                                        jumps).ok))
print(f"\nnegative control with c1 halved: {bad} of {traj.n_snapshots} "
      "states violate the chain (expected: most of them)")
