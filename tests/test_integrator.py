"""Integrator: mild-form stepping, jump placement, ensembles, blow-up.

The jumps-only configuration is checked against the closed-form piecewise
mild solution (tests/oracles.py), which shares no code with the stepper.
"""

import numpy as np
import pytest

from sburgers.spectral import (
    SpectralField, basis_field, zero_field, random_field, norm_h, mode_rates,
    burgers_nonlinearity,
)
from dataclasses import replace

from sburgers.noise import (
    GaussianSpec, JumpSpec, ExponentialMarks, ConstantDirection,
    SaturatedDirection,
)
from sburgers import integrator
from sburgers.integrator import (
    BLOCK_ROWS, BlowUp, BlowUpError, EnsembleBlowUpError, SimConfig,
    Trajectory, _Kernel, step, simulate, ensemble, derive_seed,
    require_no_blowups,
)

from oracles import jump_only_exact_path, ou_exact_moments, \
    sequential_path

PI = np.pi


def linear_single_mode(t_end, dt=1e-3, dt_save=1e-2, seed=0, x0=None):
    """One-mode linear model: dX = -pi^2 X dt + dW."""
    return SimConfig(n_modes=1, dt=dt, t_end=t_end, dt_save=dt_save,
                     gaussian=GaussianSpec(np.array([1.0])),
                     jumps=None, nonlinearity_on=False, seed=seed, x0=x0)


def jumps_only_config(n_modes=4, t_end=3.0, dt=0.05, seed=1,
                      direction_coeffs=None):
    if direction_coeffs is None:
        g = basis_field(1, n_modes)
    else:
        g = SpectralField(np.asarray(direction_coeffs, dtype=float))
    spec = JumpSpec(1.0, ExponentialMarks(2.0), ConstantDirection(g))
    return SimConfig(n_modes=n_modes, dt=dt, t_end=t_end, dt_save=dt,
                     gaussian=None, jumps=spec, nonlinearity_on=False,
                     seed=seed)


class TestConfigValidation:
    def test_save_grid_must_divide(self):
        with pytest.raises(ValueError):
            SimConfig(n_modes=2, dt=1e-3, t_end=1.0, dt_save=2.5e-3)

    def test_horizon_must_divide(self):
        with pytest.raises(ValueError):
            SimConfig(n_modes=2, dt=1e-3, t_end=0.105, dt_save=1e-2)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SimConfig(n_modes=2, dt=1e-2, t_end=1.0, dt_save=1e-3)

    def test_gaussian_length_checked(self):
        with pytest.raises(ValueError):
            SimConfig(n_modes=4, gaussian=GaussianSpec(np.ones(3)))

    def test_x0_length_checked(self):
        with pytest.raises(ValueError):
            SimConfig(n_modes=4, x0=basis_field(1, 3))


class TestDeterministicFlow:
    def test_zero_is_fixed_point(self):
        cfg = SimConfig(n_modes=8, dt=1e-3, t_end=0.05, dt_save=1e-2,
                        nonlinearity_on=True)
        traj = simulate(cfg)
        assert np.all(traj.coeffs == 0.0)

    def test_single_step_heat_decay(self):
        cfg = SimConfig(n_modes=4, dt=1e-3, t_end=1e-3, dt_save=1e-3,
                        nonlinearity_on=False, x0=basis_field(1, 4))
        traj = simulate(cfg)
        assert traj.coeffs[-1, 0] == pytest.approx(np.exp(-PI ** 2 * 1e-3),
                                                   rel=1e-13)

    def test_unit_horizon_heat_decay(self):
        cfg = SimConfig(n_modes=4, dt=1e-3, t_end=1.0, dt_save=1e-2,
                        nonlinearity_on=False, x0=basis_field(1, 4))
        traj = simulate(cfg)
        assert abs(norm_h(traj.state(-1)) - np.exp(-PI ** 2)) < 1e-8

    def test_energy_decays_with_advection_on(self):
        rng = np.random.default_rng(6)
        cfg = SimConfig(n_modes=16, dt=1e-3, t_end=0.2, dt_save=1e-3,
                        nonlinearity_on=True,
                        x0=random_field(16, rng, norm=2.0))
        traj = simulate(cfg)
        h = traj.norm_h()
        assert np.all(np.diff(h) <= 1e-12)

    def test_advection_feeds_second_mode(self):
        cfg = SimConfig(n_modes=8, dt=1e-4, t_end=0.01, dt_save=1e-3,
                        nonlinearity_on=True, x0=basis_field(1, 8))
        traj = simulate(cfg)
        assert traj.coeffs[-1, 1] > 0.0

    def test_step_matches_simulate_grain(self):
        cfg = SimConfig(n_modes=4, dt=1e-3, t_end=1e-3, dt_save=1e-3,
                        nonlinearity_on=True, x0=basis_field(1, 4))
        manual = step(basis_field(1, 4), 1e-3, cfg,
                      np.random.default_rng(0))
        traj = simulate(cfg)
        assert np.allclose(manual.coeffs, traj.coeffs[-1], atol=1e-15)

    def test_step_rejects_bad_input(self):
        cfg = SimConfig(n_modes=4)
        with pytest.raises(ValueError):
            step(basis_field(1, 3), 1e-3, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            step(basis_field(1, 4), 0.0, cfg, np.random.default_rng(0))

    def test_halving_dt_halves_flow_error(self):
        rng = np.random.default_rng(17)
        x0 = random_field(8, rng, norm=1.5)

        def final(dt):
            cfg = SimConfig(n_modes=8, dt=dt, t_end=0.1, dt_save=0.1,
                            nonlinearity_on=True, x0=x0)
            return simulate(cfg).coeffs[-1]

        a, b, c = final(4e-3), final(2e-3), final(1e-3)
        err_coarse = np.max(np.abs(a - c))
        err_fine = np.max(np.abs(b - c))
        assert err_fine < err_coarse
        # first-order defect C*dt measured against the dt = 1e-3 reference:
        # (4h - h) / (2h - h) = 3
        assert 2.2 < err_coarse / err_fine < 3.8


class TestSnapshots:
    def test_save_grid(self):
        cfg = SimConfig(n_modes=2, dt=1e-3, t_end=0.5, dt_save=0.05)
        traj = simulate(cfg)
        assert traj.n_snapshots == 11
        assert np.allclose(traj.times, np.arange(11) * 0.05)

    def test_initial_snapshot_is_x0(self):
        x0 = basis_field(2, 3) * 1.5
        cfg = SimConfig(n_modes=3, dt=1e-3, t_end=0.01, dt_save=1e-2, x0=x0)
        traj = simulate(cfg)
        assert np.array_equal(traj.coeffs[0], x0.coeffs)

    def test_norm_helpers(self):
        cfg = SimConfig(n_modes=3, dt=1e-3, t_end=0.01, dt_save=1e-2,
                        nonlinearity_on=False, x0=basis_field(2, 3))
        traj = simulate(cfg)
        assert traj.norm_v()[0] == pytest.approx(2 * PI * traj.norm_h()[0],
                                                 rel=1e-12)


class TestGaussianForcing:
    def test_bit_reproducible(self):
        cfg = linear_single_mode(0.2, seed=42)
        t1 = simulate(cfg)
        t2 = simulate(cfg)
        assert np.array_equal(t1.coeffs, t2.coeffs)

    def test_seed_changes_path(self):
        a = simulate(linear_single_mode(0.2, seed=1)).coeffs
        b = simulate(linear_single_mode(0.2, seed=2)).coeffs
        assert not np.array_equal(a, b)

    def test_ou_mean_and_variance(self):
        # mean is exact for the scheme; variance is O(dt) biased
        t_end, n = 0.2, 400
        cfg = linear_single_mode(t_end, dt=1e-3, dt_save=0.2,
                                 x0=basis_field(1, 1))
        finals = np.array(ensemble(cfg, n, _final_mode))
        mean_ref, var_ref = ou_exact_moments(PI ** 2, 1.0, t_end, x0=1.0)
        assert abs(finals.mean() - mean_ref) < 4 * np.sqrt(var_ref / n)
        assert abs(finals.var(ddof=1) - var_ref) < 4 * var_ref * np.sqrt(2 / n)

    def test_variance_bias_is_first_order(self):
        # stationary variance of the discrete chain misses the exact value
        # by O(dt); halving dt should halve the defect
        exact = 1.0 / (2 * PI ** 2)

        def stat_var(dt, seed):
            cfg = linear_single_mode(400.0, dt=dt, dt_save=0.1, seed=seed)
            x = simulate(cfg).coeffs[20:, 0]   # drop 2 time units
            return float(np.var(x))

        err_coarse = stat_var(0.02, 5) - exact
        err_fine = stat_var(0.01, 5) - exact
        assert err_coarse < 0 and err_fine < 0
        assert 1.2 < err_coarse / err_fine < 3.5


class TestJumpHandling:
    def test_matches_closed_form_path(self):
        cfg = jumps_only_config(n_modes=4, t_end=3.0, dt=0.05, seed=11)
        traj = simulate(cfg)
        events = [(e.time, e.mark) for e in traj.jump_log]
        drift = -0.5 * basis_field(1, 4).coeffs
        ref = jump_only_exact_path(np.zeros(4), mode_rates(4), drift,
                                   basis_field(1, 4).coeffs, events,
                                   traj.times)
        assert np.max(np.abs(traj.coeffs - ref)) < 1e-8

    def test_closed_form_with_multimode_direction_and_x0(self):
        g = [0.8, 0.3, 0.0, -0.1]
        cfg = jumps_only_config(n_modes=4, t_end=2.0, dt=0.04, seed=23,
                                direction_coeffs=g)
        x0 = SpectralField(np.array([0.5, -0.2, 0.1, 0.0]))
        cfg = SimConfig(**{**cfg.__dict__, "x0": x0})
        traj = simulate(cfg)
        events = [(e.time, e.mark) for e in traj.jump_log]
        drift = -cfg.jumps.intensity * cfg.jumps.marks.mean * np.asarray(g)
        ref = jump_only_exact_path(x0.coeffs, mode_rates(4), drift,
                                   np.asarray(g), events, traj.times)
        assert np.max(np.abs(traj.coeffs - ref)) < 1e-8

    def test_jump_log_ordering_and_fields(self):
        traj = simulate(jumps_only_config(t_end=5.0, seed=3))
        times = [e.time for e in traj.jump_log]
        assert times == sorted(times)
        assert all(0 < e.time <= 5.0 for e in traj.jump_log)
        assert all(e.mark > 0 for e in traj.jump_log)
        assert all(e.pre_norm_h >= 0 for e in traj.jump_log)

    def test_matches_sequential_reference(self):
        # lockstep stepping, pre-drawn noise and masked splitting reproduce
        # the one-substep-at-a-time scheme: bit for bit with B off, to
        # roundoff with B on (its summation order differs)
        spec = JumpSpec(40.0, ExponentialMarks(2.0),
                        SaturatedDirection(SpectralField(
                            np.array([1.0, 0.5, -0.2])), 1.5))
        cfg = SimConfig(n_modes=3, dt=0.01, t_end=1.0, dt_save=0.05,
                        gaussian=GaussianSpec(np.array([1.0, 0.5, 0.25])),
                        jumps=spec, nonlinearity_on=False, seed=8)

        def burgers(a):
            return burgers_nonlinearity(SpectralField(a)).coeffs

        for b_on in (False, True):
            cfg = replace(cfg, nonlinearity_on=b_on)
            out = ensemble(cfg, 3, _path)
            for i, (coeffs, log) in enumerate(out):
                row = replace(cfg, seed=derive_seed(cfg.seed, i))
                assert len(log) > 20
                ref = sequential_path(row, burgers)
                if b_on:
                    assert np.max(np.abs(coeffs - ref)) < 1e-12
                else:
                    assert np.array_equal(coeffs, ref)

    def test_noise_chunks_do_not_show(self, monkeypatch):
        # dense events split many steps, some more than once; the size of
        # the pre-drawn noise chunks must not change a single bit
        spec = JumpSpec(40.0, ExponentialMarks(2.0),
                        ConstantDirection(basis_field(2, 3)))
        cfg = SimConfig(n_modes=3, dt=0.01, t_end=1.0, dt_save=0.05,
                        gaussian=GaussianSpec(np.array([1.0, 0.5, 0.25])),
                        jumps=spec, nonlinearity_on=True, seed=4)
        ref = simulate(cfg)
        assert len(ref.jump_log) > 20
        for size in (1, 7, 50):
            monkeypatch.setattr(integrator, "NOISE_CHUNK", size)
            traj = simulate(cfg)
            assert np.array_equal(traj.coeffs, ref.coeffs)
            assert traj.jump_log == ref.jump_log

    def test_zero_intensity_equals_heat_flow(self):
        spec = JumpSpec(0.0, ExponentialMarks(2.0),
                        ConstantDirection(basis_field(1, 2)))
        cfg = SimConfig(n_modes=2, dt=1e-3, t_end=0.1, dt_save=1e-2,
                        jumps=spec, nonlinearity_on=False,
                        x0=basis_field(1, 2))
        traj = simulate(cfg)
        assert traj.jump_log == ()
        ref = np.exp(-PI ** 2 * traj.times)
        assert np.allclose(traj.coeffs[:, 0], ref, rtol=1e-12)


def forced_model(t_end=0.1, dt=2e-3, amplitude=1.0, nonlinearity=True,
                 seed=21):
    """Eight modes with Brownian and compensated-jump forcing."""
    return SimConfig(n_modes=8, dt=dt, t_end=t_end, dt_save=10 * dt,
                     gaussian=GaussianSpec.power_decay(8, amplitude=amplitude),
                     jumps=JumpSpec(1.0, ExponentialMarks(2.0),
                                    ConstantDirection(basis_field(1, 8))),
                     nonlinearity_on=nonlinearity, seed=seed)


def _path(traj: Trajectory) -> tuple:
    return traj.coeffs.copy(), traj.jump_log


def _same_paths(a, b) -> bool:
    return (len(a) == len(b)
            and all(np.array_equal(x[0], y[0]) and x[1] == y[1]
                    for x, y in zip(a, b)))


class TestStepTable:
    def test_main_step_lengths_stay_few(self):
        # (i + 1) dt - i dt takes a handful of values; event substeps are
        # not tabled, so jumps do not grow the table either
        spec = JumpSpec(1.0, ExponentialMarks(2.0),
                        ConstantDirection(basis_field(1, 1)))
        cfg = replace(linear_single_mode(100.0, dt=1e-3, dt_save=1.0),
                      jumps=spec)
        kern = _Kernel(cfg)
        snaps, logs, blown = kern.run([5])
        assert not blown and len(logs[0]) > 50
        assert 1 <= len(kern.coefs) <= 20


class TestBlowUp:
    def test_simulate_raises(self):
        cfg = SimConfig(n_modes=2, dt=1e-3, t_end=0.1, dt_save=1e-2,
                        nonlinearity_on=False,
                        x0=SpectralField(np.array([1.5e6, 0.0])))
        with pytest.raises(BlowUpError) as e:
            simulate(cfg)
        assert e.value.time == pytest.approx(1e-3)
        assert e.value.norm > 1e6

    def test_ensemble_records_per_index(self):
        cfg = SimConfig(n_modes=2, dt=1e-3, t_end=0.1, dt_save=1e-2,
                        nonlinearity_on=False,
                        x0=SpectralField(np.array([1.5e6, 0.0])))
        out = ensemble(cfg, 3, _final_mode)
        assert all(isinstance(r, BlowUp) for r in out)
        assert [r.index for r in out] == [0, 1, 2]

    def test_survivors_equal_solo_runs(self):
        # strong forcing with B on: some rows of the batch blow up
        cfg = forced_model(t_end=0.2, amplitude=160.0, seed=5)
        out = ensemble(cfg, 12, _path)
        blown = [r for r in out if isinstance(r, BlowUp)]
        assert 0 < len(blown) < 12
        for i, r in enumerate(out):
            solo = replace(cfg, seed=derive_seed(cfg.seed, i))
            if isinstance(r, BlowUp):
                with pytest.raises(BlowUpError) as e:
                    simulate(solo)
                assert (r.index, r.time, r.norm) == \
                    (i, e.value.time, e.value.norm)
            else:
                assert _same_paths([r], [_path(simulate(solo))])

    def test_require_no_blowups_carries_records(self):
        cfg = forced_model(t_end=0.2, amplitude=160.0, seed=5)
        out = ensemble(cfg, 12, _final_mode)
        with pytest.raises(EnsembleBlowUpError) as e:
            require_no_blowups(out)
        records = [r for r in out if isinstance(r, BlowUp)]
        assert e.value.records == tuple(records)
        assert isinstance(e.value, BlowUpError)
        assert (e.value.time, e.value.norm) == \
            (records[0].time, records[0].norm)
        assert require_no_blowups([1.0, 2.0]) == [1.0, 2.0]


class TestEnsemble:
    def test_single_trajectory_matches_simulate(self):
        cfg = linear_single_mode(0.1, seed=9)
        out = ensemble(cfg, 1, _final_mode)
        direct = simulate(
            SimConfig(**{**cfg.__dict__, "seed": derive_seed(9, 0)}))
        assert out[0] == direct.coeffs[-1, 0]

    def test_worker_count_invariance(self):
        cfg = linear_single_mode(0.05, seed=33)
        serial = ensemble(cfg, 6, _final_mode, n_workers=1)
        parallel = ensemble(cfg, 6, _final_mode, n_workers=2)
        assert serial == parallel

    def test_batch_size_and_worker_invariance(self):
        # row i is the same path alone, in blocks of 7, 8, 9 and across a
        # block boundary, stepped in this process or on a pool worker
        cfg = forced_model()
        sizes = (1, 7, 8, 9, BLOCK_ROWS + 1)
        runs = {(k, w): ensemble(cfg, k, _path, n_workers=w)
                for k in sizes for w in (1, 2)}
        full = runs[(BLOCK_ROWS + 1, 1)]
        assert sum(len(p[1]) for p in full) > 0
        for (k, w), out in runs.items():
            assert _same_paths(out, full[:k]), (k, w)
        for i in (0, 8, BLOCK_ROWS - 1, BLOCK_ROWS):
            solo = simulate(replace(cfg, seed=derive_seed(cfg.seed, i)))
            assert _same_paths(full[i:i + 1], [_path(solo)]), i

    def test_rows_equal_simulate_with_b_off(self):
        cfg = forced_model(nonlinearity=False)
        out = ensemble(cfg, 9, _path)
        solo = [_path(simulate(replace(cfg, seed=derive_seed(cfg.seed, i))))
                for i in range(9)]
        assert sum(len(p[1]) for p in solo) > 0
        assert _same_paths(out, solo)

    def test_distinct_subseeds(self):
        cfg = linear_single_mode(0.05, seed=33)
        out = ensemble(cfg, 8, _final_mode)
        assert len(set(out)) == 8

    def test_derive_seed_stable(self):
        assert derive_seed(5, 2) == derive_seed(5, 2)
        assert derive_seed(5, 2) != derive_seed(5, 3)
        assert derive_seed(5, 2) != derive_seed(6, 2)

    def test_ensemble_mean_matches_time_average(self):
        # ergodicity smoke test: E||X_T||^2 across independent paths vs the
        # time average of one long path, same dt so the chain bias cancels
        dt = 5e-3
        ens_cfg = linear_single_mode(4.0, dt=dt, dt_save=4.0, seed=77)
        finals = np.array(ensemble(ens_cfg, 300, _final_mode))
        ens_mean = float(np.mean(finals ** 2))
        ens_se = float(np.std(finals ** 2, ddof=1) / np.sqrt(finals.size))

        long_run = simulate(linear_single_mode(200.0, dt=dt, dt_save=0.05,
                                               seed=78))
        sq = long_run.coeffs[long_run.times >= 10.0, 0] ** 2
        time_mean = float(sq.mean())
        # samples 0.05 apart are still correlated; quarter the count
        n_eff = sq.size / 4.0
        time_se = float(sq.std(ddof=1) / np.sqrt(n_eff))
        assert abs(ens_mean - time_mean) <= \
            3.0 * np.hypot(ens_se, time_se)


def _final_mode(traj: Trajectory) -> float:
    return float(traj.coeffs[-1, 0])
