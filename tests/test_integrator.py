"""Integrator: mild-form stepping, jump placement, ensembles, blow-up.

The jumps-only configuration is checked against the closed-form piecewise
mild solution (tests/oracles.py), which shares no code with the stepper.
"""

import math
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sburgers.spectral import (
    SpectralField, basis_field, zero_field, random_field, norm_h, mode_rates,
    norm_h_sq, burgers_nonlinearity,
)
from sburgers import replace
from functools import partial

from sburgers.noise import (
    GaussianSpec, JumpSpec, ExponentialMarks, ConstantDirection,
    SaturatedDirection, sample_jump_times,
)
from sburgers import integrator
from sburgers.integrator import (
    BLOCK_ROWS, BlowUp, BlowUpError, EnsembleBlowUpError, JumpEvent,
    SimConfig, Trajectory, _Kernel, simulate, ensemble, derive_seed,
    save_count,
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

    @pytest.mark.parametrize("direction", [ConstantDirection,
                                           SaturatedDirection])
    def test_jump_direction_length_checked(self, direction):
        # a one-mode direction would broadcast silently over four modes
        for g0 in (basis_field(1, 3), basis_field(1, 1)):
            spec = JumpSpec(1.0, ExponentialMarks(2.0), direction(g0))
            with pytest.raises(ValueError, match="jump direction length"):
                SimConfig(n_modes=4, jumps=spec)

    # (time, save_count(time, 0.1), save_index on a grid of t_end 1 or
    # None where the time is not on it); 0.3 / 0.1 is 2.9999999999999996
    @pytest.mark.parametrize("t, count, index", [
        (0.0, 0, 0), (1.0, 10, 10), (0.3, 3, 3), (0.055, None, None),
        (1.1, 11, None), (-0.1, -1, None), (math.inf, None, None),
        (math.nan, None, None),
    ], ids=["zero", "t_end", "float-noise", "off-grid", "past-t_end",
            "negative", "infinite", "nan"])
    def test_save_grid(self, t, count, index):
        got = save_count(t, 0.1)
        assert got == count and type(got) is type(count)
        cfg = SimConfig(n_modes=1, dt=0.01, t_end=1.0, dt_save=0.1)
        if index is None:
            with pytest.raises(ValueError, match=re.escape(
                    f"time {t} is not on the snapshot grid")):
                cfg.save_index(t)
        else:
            assert cfg.save_index(t) == index

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="dt_save"):
            replace(SimConfig(), dt=0.3)
        with pytest.raises(TypeError, match=r"unknown fields \['n_mode'\]"):
            replace(SimConfig(), n_mode=4)

    def test_jump_events_above_ceiling_rejected(self):
        # every run checks its horizon before it draws any event
        cfg = SimConfig(n_modes=4, dt=0.01, t_end=1.0, dt_save=0.01,
                        jumps=JumpSpec(1e5, ExponentialMarks(2.0),
                                       ConstantDirection(basis_field(1, 4))))
        for run in (simulate, partial(ensemble, n_traj=3, reducer=len),
                    partial(ensemble, n_traj=3,
                            until=partial(_mode1_at_least, level=1.0))):
            with pytest.raises(ValueError, match="^jump.intensity: 100000 "
                               "x horizon 1.01 expects 1.01e"):
                run(replace(cfg, t_end=1.01))
            with pytest.raises(ValueError, match="^jump.intensity: 1e"):
                run(replace(cfg, jumps=replace(cfg.jumps, intensity=1e308)))

    def test_missing_field_rejected(self):
        with pytest.raises(TypeError, match="missing 1 required positional "
                           "argument: 'pre_norm_h'"):
            JumpEvent(0.5, 1.0)


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
        # the substep used around jump events equals a main step of run,
        # bit for bit: step 0 has length dt, and both take coef's bits
        cfg = SimConfig(n_modes=4, dt=1e-3, t_end=1e-3, dt_save=1e-3,
                        nonlinearity_on=True, x0=basis_field(1, 4))
        manual = _Kernel(cfg).substep(cfg.x0.coeffs[:, None], 1e-3, None)
        traj = simulate(cfg)
        assert np.array_equal(manual[:, 0], traj.coeffs[-1])

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

    def test_zero_length_pieces_draw_nothing(self, monkeypatch):
        # an event at exactly 3 dt leaves the rest of its step of length 0,
        # and two events at one time leave a piece of length 0 between
        # them; such a piece neither steps nor draws normals
        cfg = SimConfig(n_modes=3, dt=0.01, t_end=0.2, dt_save=0.02,
                        gaussian=GaussianSpec(np.array([1.0, 0.5, 0.25])),
                        jumps=JumpSpec(1.0, ExponentialMarks(2.0),
                                       ConstantDirection(SpectralField(
                                           np.array([0.8, 0.3, -0.1])))),
                        nonlinearity_on=False, seed=9)
        events = [(0.013, 0.7), (3 * cfg.dt, 1.1), (0.071, 0.4),
                  (0.071, 0.9), (0.1234, 0.5), (0.155, 0.2)]

        def fixed(spec, t_end, rng):
            return list(events)

        monkeypatch.setattr("sburgers.noise.sample_jump_times", fixed)
        monkeypatch.setattr(integrator, "sample_jump_times", fixed)
        for size in (1, 7, integrator.NOISE_CHUNK):
            monkeypatch.setattr(integrator, "NOISE_CHUNK", size)
            out = ensemble(cfg, 3, _path)
            for i, (coeffs, log) in enumerate(out):
                row = replace(cfg, seed=derive_seed(cfg.seed, i))
                assert np.array_equal(coeffs, sequential_path(row, None)), \
                    (size, i)
                assert [(e.time, e.mark) for e in log] == events

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


def _x0_rows(cfg: SimConfig, n_rows: int) -> np.ndarray:
    """cfg.x0 as the start row of each of n_rows kernel rows."""
    return integrator._start_rows(cfg, [cfg.x0] * n_rows)


def _results(cfg: SimConfig, n_traj: int, reducer, until=None) -> list:
    """ensemble's results from cfg.x0 with a BlowUp record in place of
    each blow-up.

    ensemble raises the records; the results of one block, records inline,
    are _run_block's, whose records must be the ones ensemble raised.
    """
    try:
        return ensemble(cfg, n_traj, reducer, until=until)
    except EnsembleBlowUpError as err:
        assert n_traj <= BLOCK_ROWS
        _, (out,) = integrator._run_block(cfg, 0, n_traj, reducer, until,
                                          _x0_rows(cfg, 1))
        assert err.records == tuple(r for r in out if isinstance(r, BlowUp))
        return out


def _path(traj: Trajectory) -> tuple:
    return traj.coeffs.copy(), traj.jump_log


def _same_paths(a, b) -> bool:
    return (len(a) == len(b)
            and all(np.array_equal(x[0], y[0]) and x[1] == y[1]
                    for x, y in zip(a, b)))


class TestChunkCoefficients:
    @pytest.mark.parametrize("forcing", ["gaussian", "jumps"])
    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.05])
    @pytest.mark.parametrize("i0", [0, 10 ** 5])
    def test_slices_equal_scalar_coef(self, forcing, dt, i0):
        # a chunk's coefficients hold, in each step's slice, the bits that
        # coef gives for that step's own length (i + 1) dt - i dt, the
        # float that substep would get
        if forcing == "gaussian":
            cfg = forced_model(t_end=1.0, dt=dt)
        else:
            cfg = jumps_only_config(dt=dt)
        kern = _Kernel(cfg)
        steps = np.arange(i0, i0 + 1000)[:, None, None]
        chunk = kern.coef((steps + 1) * dt - steps * dt)
        assert (chunk[2] is None) == (forcing == "jumps")
        for j, i in enumerate(steps[:, 0, 0].tolist()):
            for x, y in zip(chunk, kern.coef((i + 1) * dt - i * dt)):
                if x is None:
                    assert y is None
                else:
                    assert y.shape == x[j].shape == (cfg.n_modes, 1)
                    assert x[j].tobytes() == y.tobytes(), (i, dt)


def _drift_config(b_on: bool, jumps: str) -> SimConfig:
    """Eight Brownian-forced modes with B on or off and jumps off
    ("none"), along a constant direction or along a saturated one."""
    g = SpectralField(np.linspace(1.0, -0.6, 8))
    direction = {"none": None, "constant": ConstantDirection(g),
                 "saturated": SaturatedDirection(g, 1.5)}[jumps]
    return SimConfig(n_modes=8, dt=0.01, t_end=0.3, dt_save=0.05,
                     gaussian=GaussianSpec.power_decay(8),
                     jumps=None if direction is None
                     else JumpSpec(40.0, ExponentialMarks(2.0), direction),
                     nonlinearity_on=b_on, seed=12,
                     x0=SpectralField(np.linspace(0.8, -0.4, 8)))


class TestWidenedOperands:
    @pytest.mark.parametrize("jumps", ["none", "constant", "saturated"])
    @pytest.mark.parametrize("b_on", [False, True])
    def test_rows_equal_their_solo_runs(self, b_on, jumps):
        # decay, phi, the constant compensator and the Burgers weights are
        # widened to a block's rows; every row keeps the bits of its run
        # alone, at width 1
        cfg = _drift_config(b_on, jumps)
        seeds = [derive_seed(cfg.seed, i) for i in range(BLOCK_ROWS + 1)]
        starts = _x0_rows(cfg, len(seeds))
        starts *= np.linspace(1.0, -1.0, len(seeds))[:, None]
        solo = [_Kernel(cfg).run([seed], start[None])
                for seed, start in zip(seeds, starts)]
        if jumps != "none":
            assert sum(len(logs[0]) for _, logs, _, _ in solo) \
                > 5 * len(solo)
        for n_rows in (2, 21, BLOCK_ROWS + 1):
            snaps, logs, blown, finish = _Kernel(cfg).run(seeds[:n_rows],
                                                          starts[:n_rows])
            assert blown == finish == {}
            for r in range(n_rows):
                assert snaps[r].tobytes() == solo[r][0][0].tobytes(), \
                    (n_rows, r)
                assert logs[r] == solo[r][1][0], (n_rows, r)


def _linear_config(forcing: str, n_modes: int) -> SimConfig:
    """A B-off config with Gaussian forcing, jumps, both or neither.

    The jump direction spreads over several modes and x0 holds a -0.0
    where the direction is zero, so the sign of a zero shows in the path.
    """
    g = np.array([0.8, 0.0, 0.3, -0.1])[:n_modes]
    x0 = np.array([0.5, -0.0, -0.2, 0.1])[:n_modes]
    if n_modes == 1:
        g, x0 = np.array([0.0]), np.array([-0.0])
    gaussian = GaussianSpec(np.array([1.0, 0.5, 0.25, 0.125])[:n_modes])
    jumps = JumpSpec(15.0, ExponentialMarks(2.0),
                     ConstantDirection(SpectralField(g)))
    return SimConfig(n_modes=n_modes, dt=0.01, t_end=1.2, dt_save=0.03,
                     gaussian=gaussian if forcing in ("gaussian", "both")
                     else None,
                     jumps=jumps if forcing in ("jumps", "both") else None,
                     nonlinearity_on=False, seed=6, x0=SpectralField(x0))


def _refuse(*args):
    raise AssertionError("the other route was taken")


class TestLaneRoute:
    @pytest.mark.parametrize("forcing", ["gaussian", "jumps", "both", "none"])
    @pytest.mark.parametrize("n_modes", [1, 4])
    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_routes_agree_bit_for_bit(self, monkeypatch, forcing, n_modes,
                                      n_rows):
        # without jumps the lanes route reproduces the array route's every
        # bit, the sign of zeros included, whatever the chunking of the
        # noise; with jumps the array route runs even at LANE_LIMIT 10**6
        cfg = _linear_config(forcing, n_modes)
        seeds = [derive_seed(cfg.seed, i) for i in range(n_rows)]
        jumps = forcing in ("jumps", "both")
        refused = "_step_lanes" if jumps else "_step_arrays"
        for size in (1, 7, integrator.NOISE_CHUNK):
            monkeypatch.setattr(integrator, "NOISE_CHUNK", size)
            runs = []
            for limit, other in ((0, "_step_lanes"), (10 ** 6, refused)):
                with monkeypatch.context() as m:
                    m.setattr(integrator, "LANE_LIMIT", limit)
                    m.setattr(_Kernel, other, _refuse)
                    runs.append(_Kernel(cfg).run(
                        seeds, _x0_rows(cfg, n_rows)))
            (snaps, logs, blown, finish), \
                (lane_snaps, lane_logs, lane_blown, lane_finish) = runs
            assert snaps.tobytes() == lane_snaps.tobytes(), size
            assert logs == lane_logs and blown == lane_blown == {}
            assert finish == lane_finish == {}
            if jumps:
                assert all(len(log) > 5 for log in logs)
            if forcing == "none":
                assert np.signbit(snaps[:, :, 1 if n_modes > 1 else 0]).all()


class TestBlowUp:
    def test_simulate_raises(self):
        cfg = SimConfig(n_modes=2, dt=1e-3, t_end=0.1, dt_save=1e-2,
                        nonlinearity_on=False,
                        x0=SpectralField(np.array([1.5e6, 0.0])))
        with pytest.raises(BlowUpError) as e:
            simulate(cfg)
        assert type(e.value) is BlowUpError
        assert e.value.time == pytest.approx(1e-3)
        assert e.value.norm > 1e6

    def test_ensemble_records_per_index(self):
        cfg = SimConfig(n_modes=2, dt=1e-3, t_end=0.1, dt_save=1e-2,
                        nonlinearity_on=False,
                        x0=SpectralField(np.array([1.5e6, 0.0])))
        with pytest.raises(EnsembleBlowUpError) as e:
            ensemble(cfg, 3, _final_mode)
        assert [r.index for r in e.value.records] == [0, 1, 2]
        assert str(e.value).startswith("3 of 3 trajectories blew up")

    def test_survivors_equal_solo_runs(self):
        # strong forcing with B on: some rows of the batch blow up
        cfg = forced_model(t_end=0.2, amplitude=160.0, seed=5)
        out = _results(cfg, 12, _path)
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

    # (index, time, norm) of every blow-up, measured before blow-ups were
    # found once per chunk: B on, 12 rows; B off and strong noise, 12 rows
    # of 3 modes (the lanes route at LANE_LIMIT 10**6); B off with jumps,
    # 6 rows of 2 modes (the array route at any LANE_LIMIT)
    BLOWUP_CASES = {
        "b_on": (forced_model(t_end=0.2, amplitude=160.0, seed=5), 12, [
            (0, 0.18, 45503006.56474131),
            (2, 0.082, 5455184.777471404),
            (3, 0.056, 109412768.14229877),
            (6, 0.064, 4755649.513898286),
            (10, 0.116, 3585959183.3300924)]),
        "b_off": (SimConfig(n_modes=3, dt=2e-3, t_end=0.2, dt_save=2e-2,
                            gaussian=GaussianSpec(np.array([2.5e6, 1.0, 1.0])),
                            nonlinearity_on=False, seed=5), 12, [
            (1, 0.022, 1052856.3379187044),
            (3, 0.022, 1055476.3814407673),
            (4, 0.056, 1055360.830570963),
            (5, 0.1, 1048908.8437954898),
            (7, 0.11800000000000001, 1035712.826150444),
            (8, 0.136, 1035558.8296417062),
            (9, 0.11800000000000001, 1014377.5043608985),
            (10, 0.1, 1049332.5535953199)]),
        "lanes": (SimConfig(n_modes=2, dt=2e-3, t_end=0.2, dt_save=2e-2,
                            gaussian=GaussianSpec(np.array([2e6, 1.0])),
                            jumps=JumpSpec(20.0, ExponentialMarks(2.0),
                                           ConstantDirection(
                                               basis_field(1, 2))),
                            nonlinearity_on=False, seed=3), 6, [
            (0, 0.092, 1028887.3734962761),
            (1, 0.17200000000000001, 1009202.7023787051),
            (2, 0.152, 1040113.2042892426)]),
    }

    @pytest.mark.parametrize("case", sorted(BLOWUP_CASES))
    def test_records_independent_of_chunking_and_route(self, monkeypatch,
                                                       case):
        cfg, n_traj, expected = self.BLOWUP_CASES[case]
        limits = (0, 10 ** 6) if case != "b_on" else (integrator.LANE_LIMIT,)
        for limit in limits:
            monkeypatch.setattr(integrator, "LANE_LIMIT", limit)
            for size in (1, 7, 8192):
                monkeypatch.setattr(integrator, "NOISE_CHUNK", size)
                with pytest.raises(EnsembleBlowUpError) as e:
                    ensemble(cfg, n_traj, _final_mode)
                got = [(r.index, r.time, r.norm) for r in e.value.records]
                assert got == expected, (limit, size)

    @pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")
    def test_raise_waits_for_the_child_share(self, monkeypatch):
        # the trust region shrunk to just above the first block's peak
        # step norm: only rows of the second block, the forked child's
        # share at 2 workers, leave it
        cfg = replace(forced_model(t_end=0.1, amplitude=20.0, seed=8),
                      dt_save=2e-3)
        peak = max(ensemble(cfg, BLOCK_ROWS,
                            lambda traj: traj.norm_h().max()))
        norm = peak * (1.0 + 1e-6)
        monkeypatch.setattr(integrator, "BLOWUP_NORM", norm)
        monkeypatch.setattr(integrator, "_SAFE_NORM_SQ",
                            norm ** 2 * (1.0 - 1e-9))
        blocks = [integrator._run_block(cfg, first, BLOCK_ROWS, _final_mode,
                                        None, _x0_rows(cfg, 1))[1][0]
                  for first in (0, BLOCK_ROWS)]
        assert not any(isinstance(r, BlowUp) for r in blocks[0])
        records = tuple(r for r in blocks[1] if isinstance(r, BlowUp))
        assert records
        with pytest.raises(EnsembleBlowUpError) as e:
            ensemble(cfg, 2 * BLOCK_ROWS, _final_mode, n_workers=2)
        assert e.value.records == records
        assert str(e.value).startswith(
            f"{len(records)} of {2 * BLOCK_ROWS} trajectories blew up; "
            f"first: index {records[0].index}, ")

    def test_ensemble_raises_with_records(self):
        cfg = forced_model(t_end=0.2, amplitude=160.0, seed=5)
        _, (out,) = integrator._run_block(cfg, 0, 12, _final_mode, None,
                                          _x0_rows(cfg, 1))
        with pytest.raises(EnsembleBlowUpError) as e:
            ensemble(cfg, 12, _final_mode)
        records = [r for r in out if isinstance(r, BlowUp)]
        assert e.value.records == tuple(records)
        assert isinstance(e.value, BlowUpError)
        assert (e.value.time, e.value.norm) == \
            (records[0].time, records[0].norm)
        assert str(e.value).startswith(
            f"{len(records)} of 12 trajectories blew up; "
            f"first: index {records[0].index}, ")


class TestTracedBurgersTerm:
    """Every B evaluation of the kernel goes through the module-level name
    integrator._quadratic_term, which the benchmark's tracer wraps."""

    @staticmethod
    def _count_calls(monkeypatch) -> list:
        calls = []
        inner = integrator._quadratic_term

        def counted(a):
            calls.append(1)
            return inner(a)

        monkeypatch.setattr(integrator, "_quadratic_term", counted)
        return calls

    def test_one_call_per_step_without_jumps(self, monkeypatch):
        cfg = replace(forced_model(t_end=0.1), jumps=None)
        calls = self._count_calls(monkeypatch)
        simulate(cfg)
        assert len(calls) == round(cfg.t_end / cfg.dt)

    def test_one_more_call_per_substep_with_jumps(self, monkeypatch):
        cfg = replace(forced_model(t_end=0.2, seed=3),
                      jumps=JumpSpec(40.0, ExponentialMarks(2.0),
                                     ConstantDirection(basis_field(1, 8))))
        n_steps = round(cfg.t_end / cfg.dt)
        plan = _Kernel(cfg)._event_steps(np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(0,))), n_steps)
        substeps = sum(draws for _, _, draws in plan)
        assert substeps > 10
        calls = self._count_calls(monkeypatch)
        traj = simulate(cfg)
        assert len(traj.jump_log) > 5
        assert len(calls) == n_steps + substeps


class TestSeedStreams:
    # seeds of every size a row meets: small, above 2**63, sub-seeds, and
    # 1 to 4 uint32 words at each word boundary
    SEEDS = [0, 5, 2 ** 63 + 11, derive_seed(7, 3), 2 ** 32 - 1, 2 ** 32,
             2 ** 64 - 1, 2 ** 64, 2 ** 100 + 7]
    # trajectory indices at word boundaries, and the initial-state stream
    INDICES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40]

    def test_sub_seeds_are_seed_sequence_words(self):
        # derive_seed hashes a whole block at once; each sub-seed is still
        # the first uint64 word of SeedSequence([seed, index])
        for seed in self.SEEDS:
            for i in self.INDICES:
                ref = np.random.SeedSequence([seed, i]).generate_state(
                    1, np.uint64)[0]
                assert derive_seed(seed, i) == int(ref)
            block = integrator._derive_seeds(seed, self.INDICES)
            assert block == [derive_seed(seed, i) for i in self.INDICES]

    def test_blocks_build_no_seed_sequence(self, monkeypatch):
        # a 100-row block with jumps and the main row seeds every stream
        # without numpy's SeedSequence
        cfg = replace(forced_model(t_end=0.1, seed=2 ** 70 + 3),
                      jumps=JumpSpec(40.0, ExponentialMarks(2.0),
                                     ConstantDirection(basis_field(1, 8))))
        expected = ensemble(cfg, BLOCK_ROWS, _final_mode, main=True)

        def refuse(*args, **kwargs):
            raise AssertionError("SeedSequence built")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        path, values = ensemble(cfg, BLOCK_ROWS, _final_mode, main=True)
        assert path.jump_log and values == expected[1]
        assert path.coeffs.tobytes() == expected[0].coeffs.tobytes()

    def test_row_draws_are_spawned_streams(self, monkeypatch):
        # the reproducibility contract: a row's jump events come from the
        # first stream of SeedSequence(seed).spawn(2) and its normals from
        # the second
        spawned = [np.random.SeedSequence(s).spawn(2) for s in self.SEEDS]
        cfg = jumps_only_config(t_end=20.0)
        _, logs, _, _ = _Kernel(cfg).run(self.SEEDS,
                                         _x0_rows(cfg, len(self.SEEDS)))
        for log, (jump_ss, _) in zip(logs, spawned):
            events = sample_jump_times(cfg.jumps, cfg.t_end,
                                       np.random.default_rng(jump_ss))
            assert len(events) > 5
            assert [(e.time, e.mark) for e in log] == events

        cfg = SimConfig(n_modes=3, dt=0.01, t_end=0.2, dt_save=0.01,
                        gaussian=GaussianSpec(np.array([1.0, 0.5, 0.25])),
                        nonlinearity_on=False)
        drawn = []
        increment = _Kernel._gaussian_increment

        def seen(decay, bsh, xi):
            drawn.append(xi.copy())
            return increment(decay, bsh, xi)

        monkeypatch.setattr(_Kernel, "_gaussian_increment",
                            staticmethod(seen))
        _Kernel(cfg).run(self.SEEDS, _x0_rows(cfg, len(self.SEEDS)))
        (xi,) = drawn                      # one chunk: (steps, N, rows)
        for r, (_, wiener_ss) in enumerate(spawned):
            ref = np.random.default_rng(wiener_ss).standard_normal((20, 3))
            assert xi[:, :, r].tobytes() == ref.tobytes()

    def test_rows_carry_their_own_start(self):
        # one block holds the same seed from different starts; each row is
        # the path simulate gives from its start
        cfg = forced_model(t_end=0.06)
        starts = [None, 2.0 * basis_field(1, 8), -1.0 * basis_field(3, 8)]
        seeds = [cfg.seed, 4, cfg.seed]
        snaps, _, blown, _ = _Kernel(cfg).run(
            seeds, integrator._start_rows(cfg, starts))
        assert not blown
        for row, seed, x0 in zip(snaps, seeds, starts):
            alone = simulate(replace(cfg, seed=seed, x0=x0))
            assert row.tobytes() == alone.coeffs.tobytes()
        with pytest.raises(ValueError, match="start length"):
            integrator._start_rows(cfg, [basis_field(1, 3)])


class TestEnsemble:
    def test_single_trajectory_matches_simulate(self):
        cfg = linear_single_mode(0.1, seed=9)
        out = ensemble(cfg, 1, _final_mode)
        direct = simulate(
            SimConfig(**{**cfg.__dict__, "seed": derive_seed(9, 0)}))
        assert out[0] == direct.coeffs[-1, 0]

    def test_records_survive_pickling(self):
        # the fan-out pipes carry blow-up records and paths between processes
        path = simulate(jumps_only_config())
        assert path.jump_log
        for rec in (BlowUp(3, 0.25, 2e6), path.jump_log[0]):
            back = pickle.loads(pickle.dumps(rec))
            assert back == rec and hash(back) == hash(rec)
        back = pickle.loads(pickle.dumps(path))
        assert np.array_equal(back.times, path.times)
        assert np.array_equal(back.coeffs, path.coeffs)
        assert back.jump_log == path.jump_log
        with pytest.raises(AttributeError):
            back.jump_log = ()

    def test_worker_count_invariance(self):
        cfg = linear_single_mode(0.05, seed=33)
        serial = ensemble(cfg, 6, _final_mode, n_workers=1)
        parallel = ensemble(cfg, 6, _final_mode, n_workers=2)
        assert serial == parallel
        # no worker count below one: the blocks run in this process
        assert ensemble(cfg, 6, _final_mode, n_workers=0) == serial

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_starts_and_main_row(self, n_workers):
        # with starts, results are start-major and trajectory i from each
        # start is the ensemble from that start alone; the main row has the
        # bits of simulate, the main row of a block with no other rows
        cfg = forced_model(t_end=0.04)
        starts = (2.0 * basis_field(1, 8), None)
        n = BLOCK_ROWS + 1
        path, out = ensemble(cfg, n, _path, n_workers, starts=starts,
                             main=True)
        alone = simulate(cfg)
        assert alone.coeffs.tobytes() == path.coeffs.tobytes()
        assert alone.times.tobytes() == path.times.tobytes()
        assert alone.jump_log == path.jump_log
        ref = [v for x0 in starts
               for v in ensemble(replace(cfg, x0=x0), n, _path)]
        assert _same_paths(out, ref)

    def test_batch_size_and_worker_invariance(self):
        # row i is the same path alone, in blocks of 7, 8, 9 and across a
        # block boundary, stepped in this process or in a forked child
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

    def test_uneven_shares_keep_row_order(self):
        # 5 full blocks and a partial one; 4 workers get uneven shares
        cfg = forced_model()
        n_traj = 5 * BLOCK_ROWS + 7
        serial = ensemble(cfg, n_traj, _path, n_workers=1)
        assert sum(len(p[1]) for p in serial) > 0
        for w in (2, 3, 4, 7):
            assert _same_paths(ensemble(cfg, n_traj, _path, n_workers=w),
                               serial), w

    @pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")
    def test_caller_runs_its_own_share(self, monkeypatch):
        cfg = linear_single_mode(0.02, seed=4)
        pids = set(ensemble(cfg, 3 * BLOCK_ROWS, lambda t: os.getpid(),
                            n_workers=2))
        assert os.getpid() in pids and len(pids) >= 2
        monkeypatch.setattr(integrator, "_FORK", False)
        assert set(ensemble(cfg, 3 * BLOCK_ROWS, lambda t: os.getpid(),
                            n_workers=2)) == {os.getpid()}

    @pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")
    @pytest.mark.parametrize("error, raised", [
        (LookupError("in a child"), LookupError),
        # BlowUpError pickles but does not unpickle: its __init__ takes two
        (BlowUpError(1.0, 2e6), RuntimeError),
    ])
    def test_child_error_raised_here_and_children_reaped(self, error,
                                                         raised):
        caller = os.getpid()

        def reducer(traj):
            if os.getpid() != caller:
                raise error
            return 0.0

        cfg = linear_single_mode(0.02, seed=4)
        with pytest.raises(raised) as e:
            ensemble(cfg, 4 * BLOCK_ROWS, reducer, n_workers=3)
        assert type(e.value) is raised
        if raised is RuntimeError:
            assert repr(error) in str(e.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")
    def test_caller_error_kills_and_reaps_children(self):
        caller = os.getpid()

        def reducer(traj):
            if os.getpid() != caller:
                time.sleep(60.0)
            raise LookupError("in the caller")

        cfg = linear_single_mode(0.02, seed=4)
        t0 = time.monotonic()
        with pytest.raises(LookupError, match="in the caller") as e:
            ensemble(cfg, 4 * BLOCK_ROWS, reducer, n_workers=3)
        assert type(e.value) is LookupError
        assert time.monotonic() - t0 < 10.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unflushed_stdout_written_once(self):
        # a forked child must leave without flushing the buffer it inherits;
        # PYTHONUNBUFFERED would leave nothing in the buffer to flush
        src = str(Path(integrator.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        code = ("import sys\n"
                "from sburgers.integrator import BLOCK_ROWS, SimConfig, "
                "ensemble\n"
                "import sburgers.integrator as integrator\n"
                "integrator.FORK_ROW_STEPS = 1   # fork below the grain too\n"
                "sys.stdout.write('before the fan-out\\n')\n"
                "ensemble(SimConfig(n_modes=1, t_end=0.02), BLOCK_ROWS + 1, "
                "lambda t: 0, n_workers=2)\n")
        run = subprocess.run([sys.executable, "-c", code],
                             env=dict(env, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60,
                             check=True)
        assert run.stdout == "before the fan-out\n"

    def test_rows_equal_simulate_with_b_off(self):
        cfg = forced_model(nonlinearity=False)
        out = ensemble(cfg, 9, _path)
        solo = [_path(simulate(replace(cfg, seed=derive_seed(cfg.seed, i))))
                for i in range(9)]
        assert sum(len(p[1]) for p in solo) > 0
        assert _same_paths(out, solo)

    @pytest.mark.parametrize("b_on", [False, True])
    def test_saturated_direction_rows_equal_simulate(self, b_on):
        # a state-dependent direction takes each row's norm, a sum over
        # modes whose rounding depends on the memory layout from N = 8 on
        spec = JumpSpec(40.0, ExponentialMarks(2.0),
                        SaturatedDirection(SpectralField(
                            np.linspace(1.0, -0.6, 9)), 1.5))
        cfg = SimConfig(n_modes=9, dt=0.01, t_end=0.5, dt_save=0.05,
                        gaussian=GaussianSpec.power_decay(9),
                        jumps=spec, nonlinearity_on=b_on, seed=12,
                        x0=SpectralField(np.linspace(0.8, -0.4, 9)))
        out = ensemble(cfg, 12, _path)
        for i, (coeffs, log) in enumerate(out):
            solo = simulate(replace(cfg, seed=derive_seed(cfg.seed, i)))
            assert len(log) > 5
            assert coeffs.tobytes() == solo.coeffs.tobytes(), i
            assert log == solo.jump_log, i

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


def _grain_config(n_traj: int, grains: float) -> SimConfig:
    """A one-mode linear model whose n_traj paths from one start take
    grains x FORK_ROW_STEPS row-steps, rounded up to whole steps, with one
    snapshot past the start."""
    steps = math.ceil(grains * integrator.FORK_ROW_STEPS / n_traj)
    cfg = linear_single_mode(steps * 1e-3, dt_save=steps * 1e-3)
    assert cfg.n_steps == steps
    return cfg


def _pid(traj: Trajectory) -> int:
    return os.getpid()


def _entered(snaps):
    return np.ones(snaps.shape[:2], dtype=bool)


@pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")
class TestForkGrain:
    """ensemble forks a worker only for FORK_ROW_STEPS row-steps of bound
    work, at its shipped value."""

    @pytest.fixture
    def fork_every_share(self):
        # overrides the suite's autouse fixture, which sets the grain to 1
        pass

    @pytest.mark.parametrize("grains, pids", [(1.99, 1), (2.0, 2)])
    def test_two_blocks_fork_from_twice_the_grain(self, grains, pids):
        cfg = _grain_config(2 * BLOCK_ROWS, grains)
        got = set(ensemble(cfg, 2 * BLOCK_ROWS, _pid, n_workers=2))
        assert os.getpid() in got and len(got) == pids

    def test_starts_count_in_the_bound(self):
        # one grain a start: one process from one start, two from two
        cfg = _grain_config(2 * BLOCK_ROWS, 1.0)
        one = set(ensemble(cfg, 2 * BLOCK_ROWS, _pid, n_workers=2))
        two = set(ensemble(cfg, 2 * BLOCK_ROWS, _pid, n_workers=2,
                           starts=(None, None)))
        assert one == {os.getpid()}
        assert os.getpid() in two and len(two) == 2

    @pytest.mark.parametrize("n_workers, blocks, grains, expected", [
        (4, 5, 2.0, 2),      # the grain binds
        (3, 5, 6.0, 3),      # the workers bind
        (8, 3, 4.0, 3),      # the blocks bind
        (4, 2, 1.5, 1),      # below twice the grain
        (0, 2, 4.0, 1),      # no worker asked for
    ])
    def test_process_count(self, monkeypatch, n_workers, blocks, grains,
                           expected):
        # every row enters at its start, so no step runs; the bound counts
        # the steps the rows could take
        seen = []

        def fan_out(run, shares):
            seen.append([list(share) for share in shares])
            return [b for share in shares for b in run(share)]

        monkeypatch.setattr(integrator, "_fan_out", fan_out)
        n_traj = blocks * BLOCK_ROWS
        cfg = _grain_config(n_traj, grains)
        assert ensemble(cfg, n_traj, n_workers=n_workers,
                        until=_entered) == [0.0] * n_traj
        bound = n_traj * cfg.n_steps
        assert expected == max(1, min(n_workers, blocks,
                                      bound // integrator.FORK_ROW_STEPS))
        (shares,) = seen
        assert len(shares) == expected
        assert sum(shares, []) == list(range(0, n_traj, BLOCK_ROWS))


def _norm_h_at_least(snaps, radius):
    return norm_h_sq(snaps) >= radius ** 2


def _norm_h_at_most(snaps, radius):
    return norm_h_sq(snaps) <= radius ** 2


def _mode1_at_least(snaps, level):
    return snaps[..., 0] >= level


def _stopped_reference(cfg: SimConfig, n_traj: int, until) -> list:
    """ensemble(..., until=until) read off one unstopped block: a row's
    entrance time is that of its first snapshot where until holds, unless
    it blew up at or before that step, and nan if there is none."""
    seeds = [derive_seed(cfg.seed, i) for i in range(n_traj)]
    snaps, _, blown, _ = _Kernel(cfg).run(seeds, _x0_rows(cfg, n_traj))
    times = np.arange(snaps.shape[1]) * cfg.dt_save
    save_every = round(cfg.dt_save / cfg.dt)
    out = []
    for r in range(n_traj):
        # a blown row's snapshots after its chunk are unset: read only
        # those before its blow-up step
        n_read = -(-round(blown[r][0] / cfg.dt) // save_every) \
            if r in blown else snaps.shape[1]
        hits = np.flatnonzero(until(snaps[r, :n_read, None])[:, 0]).tolist()
        if hits:
            out.append(float(times[hits[0]]))
        elif r in blown:
            out.append(BlowUp(r, *blown[r]))
        else:
            out.append(math.nan)
    return out


def _same_stops(a, b) -> bool:
    def same(x, y):
        if isinstance(x, BlowUp) or isinstance(y, BlowUp):
            return x == y
        return type(x) is type(y) is float and (
            x == y or math.isnan(x) and math.isnan(y))
    return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))


def _kinds(results) -> set:
    return {"blown" if isinstance(r, BlowUp)
            else "full" if math.isnan(r) else "stopped" for r in results}


class TestFirstPassage:
    _strong = replace(forced_model(t_end=0.2, amplitude=160.0, seed=5),
                      x0=0.1 * basis_field(1, 8))
    _jumpy = replace(forced_model(t_end=0.2),
                     jumps=JumpSpec(20.0, ExponentialMarks(2.0),
                                    ConstantDirection(basis_field(1, 8))))
    # config, rows, until, the kinds of result the case must produce
    STOP_CASES = {
        # rows 2, 6 and 10 leave the ball before they blow up, rows 0 and 3
        # blow up first, the others never leave it
        "blow_after_finish": (_strong, 12,
                              partial(_norm_h_at_least, radius=60.0),
                              {"stopped", "blown", "full"}),
        # from the edge of the stable starts, rows 0, 1, 2, 4, 7, 8 and 11
        # blow up by t = 0.066; reset to zero, they would be inside the
        # ball long before their siblings enter it at t = 0.14 to 0.24
        "reset_rows": (replace(forced_model(t_end=0.3),
                               x0=56.0 * basis_field(1, 8)), 12,
                       partial(_norm_h_at_most, radius=1.0),
                       {"stopped", "blown"}),
        # many jump events after a row's finish in its last chunk
        "jumps": (_jumpy, 12, partial(_mode1_at_least, level=0.5),
                  {"stopped", "full"}),
        # B off with jumps: 3 rows of 4 modes on the array route
        "lanes": (_linear_config("both", 4), 3,
                  partial(_mode1_at_least, level=1.5), {"stopped", "full"}),
        # B off without jumps: 3 rows of 4 modes take the lanes route; rows
        # 0 and 2 first reach 0.55 at snapshots 23 and 2, row 1 never does
        "lanes_no_jumps": (_linear_config("gaussian", 4), 3,
                           partial(_mode1_at_least, level=0.55),
                           {"stopped", "full"}),
    }

    @pytest.mark.parametrize("case", sorted(STOP_CASES))
    def test_stop_equals_cut_full_run(self, monkeypatch, case):
        # a row's entrance time is read off its unstopped path; a blow-up
        # after the entrance is dropped and a reset row never enters; the
        # same in a block or alone, for any chunking of the noise
        cfg, n_traj, until, kinds = self.STOP_CASES[case]
        expected = _stopped_reference(cfg, n_traj, until)
        assert _kinds(expected) == kinds
        for size in (1, 7, integrator.NOISE_CHUNK):
            with monkeypatch.context() as m:
                m.setattr(integrator, "NOISE_CHUNK", size)
                got = _results(cfg, n_traj, None, until=until)
            assert _same_stops(got, expected), size
        for i in range(n_traj):
            _, (alone,) = integrator._run_block(cfg, i, 1, None, until,
                                                _x0_rows(cfg, 1))
            assert _same_stops(alone, expected[i:i + 1]), i

    def test_block_stops_after_last_finish(self, monkeypatch):
        steps = []
        plan = _Kernel._plan_chunk

        def counted(self, i0, i1, rngs, plans):
            steps.append(i1 - i0)
            return plan(self, i0, i1, rngs, plans)

        monkeypatch.setattr(_Kernel, "_plan_chunk", counted)
        monkeypatch.setattr(integrator, "NOISE_CHUNK", 1)   # 1 step a chunk
        cfg, _, until, _ = self.STOP_CASES["jumps"]
        n_steps = round(cfg.t_end / cfg.dt)
        save_every = round(cfg.dt_save / cfg.dt)
        seeds = [derive_seed(cfg.seed, i) for i in (1, 4, 6)]
        _, _, blown, finish = _Kernel(cfg).run(seeds, _x0_rows(cfg, 3),
                                               until)
        assert not blown and sorted(finish) == [0, 1, 2]
        assert sum(steps) == save_every * max(finish.values()) < n_steps
        steps.clear()
        # a row that never finishes keeps the block stepping to t_end
        _, _, _, finish = _Kernel(cfg).run(seeds + [derive_seed(cfg.seed, 0)],
                                           _x0_rows(cfg, 4), until)
        assert sorted(finish) == [0, 1, 2] and sum(steps) == n_steps

    @pytest.mark.parametrize("case", ["blow_after_finish", "reset_rows"])
    def test_rows_leave_the_block(self, monkeypatch, case):
        # a row that finishes or blows up leaves the block at the end of
        # its chunk: from the next chunk on _plan_chunk gets only the live
        # rows, in row order, and the row's generator draws nothing more
        cfg, n_rows, until, _ = self.STOP_CASES[case]
        chunk = 5
        monkeypatch.setattr(integrator, "NOISE_CHUNK",
                            chunk * n_rows * cfg.n_modes)
        planned, states, gens = [], [], []
        plan = _Kernel._plan_chunk

        def recorded(self, i0, i1, rngs, plans):
            if not gens:
                gens.extend(rngs)
            rows = [next(r for r, g in enumerate(gens) if g is rng)
                    for rng in rngs]
            out = plan(self, i0, i1, rngs, plans)
            planned.append(rows)
            states.append([gens[r].bit_generator.state for r in rows])
            return out

        monkeypatch.setattr(_Kernel, "_plan_chunk", recorded)
        seeds = [derive_seed(cfg.seed, i) for i in range(n_rows)]
        _, _, blown, finish = _Kernel(cfg).run(seeds, _x0_rows(cfg, n_rows),
                                               until)
        assert blown and finish and len(gens) == n_rows
        save_every = round(cfg.dt_save / cfg.dt)
        # the chunk of the step each row left at, or the last chunk
        left = dict.fromkeys(range(n_rows),
                             (round(cfg.t_end / cfg.dt) - 1) // chunk)
        left.update((r, (f * save_every - 1) // chunk)
                    for r, f in finish.items())
        left.update((r, (round(t / cfg.dt) - 1) // chunk)
                    for r, (t, _) in blown.items())
        assert len(planned) == max(left.values()) + 1
        widths = [len(rows) for rows in planned]
        assert widths == sorted(widths, reverse=True) and widths[-1] < n_rows
        for c, rows in enumerate(planned):
            assert rows == [r for r in range(n_rows) if left[r] >= c], c
            for r, state in zip(rows, states[c]):
                if left[r] == c:
                    assert gens[r].bit_generator.state == state, (c, r)

    def test_start_inside_finishes_at_once(self):
        cfg, n_traj, until, _ = self.STOP_CASES["reset_rows"]
        out = ensemble(replace(cfg, x0=None), n_traj, until=until)
        assert _same_stops(out, [0.0] * n_traj)

    def test_main_path_is_not_cut(self):
        # ensemble takes a reducer or until, and the main path is the one
        # simulate gives, which until would stop
        cfg, n_traj, until, _ = self.STOP_CASES["reset_rows"]
        for kwargs, message in (
                ({"reducer": _final_mode, "until": until}, "reducer or until"),
                ({}, "reducer or until"),
                ({"until": until, "main": True}, "main .* until")):
            with pytest.raises(ValueError, match=message):
                ensemble(cfg, n_traj, **kwargs)


def _final_mode(traj: Trajectory) -> float:
    return float(traj.coeffs[-1, 0])
