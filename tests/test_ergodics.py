"""Statistics layer: occupation measures, batch means, decay fits, probes.

Quantitative estimator checks run against exactly sampled OU chains from
oracles.exact_ou_paths (no integrator bias), so they test the statistics
in isolation.  Integration with the real simulator is exercised separately
on short runs.
"""

import math
import re
from sburgers import replace
from functools import partial

import numpy as np
import pytest
from scipy.stats import norm as normal_law

from sburgers.spectral import basis_field, zero_field
from sburgers.noise import (
    GaussianSpec, JumpSpec, ExponentialMarks, ConstantDirection,
)
from sburgers import ergodics, integrator
from sburgers.integrator import BLOCK_ROWS, EnsembleBlowUpError, SimConfig, \
    Trajectory, _Kernel, simulate, ensemble, save_count
from sburgers.lyapunov import DriftConstants
from sburgers.ergodics import (
    Observable, EnvelopeViolation, OccupationHistogram, MdpConfig,
    mode_coefficient, norm_h_observable, norm_h_squared_observable,
    psi_observable, tanh_mode_observable, observable_dictionary,
    occupation_measure, kolmogorov_distance, invariant_estimate,
    path_averages, integrated_autocorr_time, sigma_squared,
    ergodic_decay, mdp_functional, hitting_times, deviation_tail_probe,
)

from oracles import exact_ou_paths

PI = np.pi
ALPHA1 = PI ** 2
OU_VARIANCE = 1.0 / (2.0 * PI ** 2)
OU_SIGMA_SQ = 1.0 / PI ** 4


def path_trajectory(values, dt):
    """Wrap a scalar path as a single-mode Trajectory."""
    values = np.asarray(values, dtype=float)
    return Trajectory(times=np.arange(values.size) * dt,
                      coeffs=values[:, None],
                      jump_log=())


@pytest.fixture(scope="module")
def ou_long_path():
    # exact OU chain, rate pi^2, noise 1, spacing 0.01, horizon 4000
    rng = np.random.default_rng(1234)
    return exact_ou_paths(ALPHA1, 1.0, 0.01, 400000, 1, rng)[0]


@pytest.fixture(scope="module")
def ou_ensemble():
    # 300 exact OU chains to t = 1000 at spacing 0.05
    rng = np.random.default_rng(4321)
    return exact_ou_paths(ALPHA1, 1.0, 0.05, 20000, 300, rng)


def small_jump_model(n_modes=8, dt=2e-3, t_end=1.0, dt_save=0.02, seed=0,
                     x0=None):
    return SimConfig(
        n_modes=n_modes, dt=dt, t_end=t_end, dt_save=dt_save,
        gaussian=GaussianSpec.power_decay(n_modes, normalize_to=1.0),
        jumps=JumpSpec(1.0, ExponentialMarks(2.0),
                       ConstantDirection(basis_field(1, n_modes))),
        nonlinearity_on=True, seed=seed, x0=x0)


class TestObservable:
    def test_mode_coefficient(self):
        obs = mode_coefficient(2)
        x = np.array([0.3, -0.7, 0.1])
        assert obs.values(x) == pytest.approx(-0.7)
        assert obs.name == "a_2"

    def test_mode_index_validated(self):
        with pytest.raises(ValueError):
            mode_coefficient(0)

    def test_norm_and_psi(self):
        x = np.array([3.0, 4.0])
        assert norm_h_observable().values(x) == pytest.approx(5.0)
        assert norm_h_squared_observable().values(x) == pytest.approx(25.0)
        assert psi_observable().values(x) == pytest.approx(math.sqrt(26.0))

    def test_tanh_bounded(self):
        obs = tanh_mode_observable(1, 2.0)
        assert abs(obs.values(np.array([50.0]))) <= 1.0

    def test_envelope_violation_raises(self):
        bad = Observable("bad", lambda c: 2.0 + 0.0 * c[..., 0],
                         "const", 1.0)
        with pytest.raises(EnvelopeViolation):
            bad.values(np.array([0.0, 0.0]))

    def test_envelope_kinds_validated(self):
        with pytest.raises(ValueError):
            Observable("o", lambda c: c[..., 0], "weird")
        with pytest.raises(ValueError):
            Observable("o", lambda c: c[..., 0], "const", 0.0)

    def test_dictionary_shape(self):
        d = observable_dictionary(8)
        assert len(d) == 16
        assert len({o.name for o in d}) == 16

    def test_dictionary_envelopes_hold(self):
        d = observable_dictionary(8)
        rng = np.random.default_rng(5)
        states = rng.normal(scale=3.0, size=(100, 8))
        for obs in d:
            obs.values(states)

    def test_dictionary_below_eight_modes(self):
        # below 8 modes the dictionary is the n_modes mode coefficients
        states = np.random.default_rng(5).normal(size=(10, 4))
        d = observable_dictionary(4)
        assert [o.name for o in d] == \
            [mode_coefficient(k).name for k in range(1, 5)]
        for k, obs in enumerate(d):
            assert np.array_equal(obs.values(states), states[:, k])

    def test_matrix_and_single_agree(self):
        # a stack of paths gives each path's and each state's values bit
        # for bit, so ergodic_decay may evaluate whole ensembles at once
        rng = np.random.default_rng(6)
        stack = rng.normal(scale=3.0, size=(5, 7, 12))
        for obs in (mode_coefficient(3), tanh_mode_observable(3, 2.0),
                    norm_h_observable(), norm_h_squared_observable(),
                    psi_observable()):
            vals = obs.values(stack)
            assert vals.shape == (5, 7)
            for a in range(5):
                assert vals[a].tobytes() == obs.values(stack[a]).tobytes()
                for b in range(7):
                    assert vals[a, b] == obs.values(stack[a, b]), obs.name


class TestOccupationMeasure:
    def test_constant_path_single_bin(self):
        traj = path_trajectory(np.zeros(11), 0.1)
        hist = occupation_measure(traj, norm_h_observable(),
                                  np.array([-0.5, 0.5, 1.5]))
        assert hist.masses[0] == pytest.approx(1.0)
        assert hist.masses[1] == 0.0

    def test_two_equal_segments(self):
        traj = path_trajectory(np.array([1.0, 1.0, 3.0, 3.0]), 1.0)
        hist = occupation_measure(traj, mode_coefficient(1),
                                  np.array([0.0, 2.0, 4.0]))
        assert hist.masses == pytest.approx([0.5, 0.5])

    def test_masses_normalized(self):
        rng = np.random.default_rng(7)
        traj = path_trajectory(rng.normal(size=500), 0.01)
        hist = occupation_measure(traj, mode_coefficient(1), 20)
        assert float(hist.masses.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(hist.masses >= 0)

    def test_refinement_preserves_mass(self):
        rng = np.random.default_rng(8)
        traj = path_trajectory(rng.normal(size=400), 0.01)
        coarse = np.linspace(-4, 4, 9)
        fine = np.linspace(-4, 4, 17)
        hc = occupation_measure(traj, mode_coefficient(1), coarse)
        hf = occupation_measure(traj, mode_coefficient(1), fine)
        paired = hf.masses.reshape(8, 2).sum(axis=1)
        assert paired == pytest.approx(hc.masses, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OccupationHistogram("x", np.array([0.0, 1.0, 2.0]),
                                np.array([0.6, 0.6]), 1.0)
        with pytest.raises(ValueError):
            OccupationHistogram("x", np.array([0.0, 1.0]),
                                np.array([-1.0]), 1.0)
        with pytest.raises(ValueError):
            occupation_measure(path_trajectory(np.zeros(1), 0.1),
                               mode_coefficient(1), 4)

    def test_out_of_range_mass_kept(self):
        traj = path_trajectory(np.array([0.0, 0.0, 9.0, 9.0]), 1.0)
        hist = occupation_measure(traj, mode_coefficient(1),
                                  np.array([-1.0, 0.5, 1.0]))
        assert float(hist.masses.sum()) == pytest.approx(1.0)
        assert hist.masses[1] == pytest.approx(0.5)

    def test_stationary_law_matches_normal(self, ou_long_path):
        # exact OU chain: occupation histogram vs the stationary normal law
        traj = path_trajectory(ou_long_path[:200001], 0.01)
        sd = math.sqrt(OU_VARIANCE)
        edges = np.linspace(-4.5 * sd, 4.5 * sd, 151)
        hist = occupation_measure(traj, mode_coefficient(1), edges)
        dist = kolmogorov_distance(
            hist, lambda e: normal_law.cdf(e, scale=sd))
        assert dist <= 0.02


class TestBatchMeans:
    def test_autocorr_time_iid(self):
        rng = np.random.default_rng(10)
        tau = integrated_autocorr_time(rng.normal(size=20000))
        assert 0.7 < tau < 1.5

    def test_autocorr_time_ou(self, ou_long_path):
        # theory: 1 + 2 sum rho_k = coth(alpha dt / 2) ~ 2 / (alpha dt)
        series = ou_long_path[:100000]
        tau = integrated_autocorr_time(series)
        expected = 2.0 / (ALPHA1 * 0.01)
        assert expected / 1.5 < tau < expected * 1.5

    def test_autocorr_time_constant(self):
        assert integrated_autocorr_time(np.full(1000, 2.5)) == 1.0


class TestInvariantEstimate:
    def test_forcing_off_point_mass(self):
        cfg = SimConfig(n_modes=4, dt=0.01, t_end=8.0, dt_save=0.01,
                        nonlinearity_on=False)
        reports = invariant_estimate(cfg, 1.0)
        assert reports["psi"].value == pytest.approx(1.0, abs=1e-12)
        assert reports["psi"].half_width <= 1e-12
        assert reports["a_1"].value == pytest.approx(0.0, abs=1e-12)

    def test_burn_in_validated(self):
        cfg = SimConfig(n_modes=2, dt=0.01, t_end=1.0, dt_save=0.01)
        with pytest.raises(ValueError):
            invariant_estimate(cfg, 1.0)

    def test_short_series_rejected(self):
        cfg = SimConfig(n_modes=2, dt=0.01, t_end=1.0, dt_save=0.01,
                        gaussian=GaussianSpec(np.array([1.0, 0.5])))
        with pytest.raises(ValueError):
            invariant_estimate(cfg, 0.0)

    def test_linear_mode_variance(self):
        # stationary second moment of the single-mode OU model
        cfg = SimConfig(n_modes=1, dt=1e-3, t_end=300.0, dt_save=0.01,
                        gaussian=GaussianSpec(np.array([1.0])),
                        nonlinearity_on=False, seed=42)
        reports = invariant_estimate(cfg, 10.0)
        rep = reports["norm_h_sq"]
        assert rep.value == pytest.approx(OU_VARIANCE, rel=0.05)
        assert rep.n >= 30
        assert "psi" in reports

    def test_jump_model_stable_under_doubling(self):
        base = small_jump_model(dt=4e-3, t_end=200.0, dt_save=0.02)
        r1 = invariant_estimate(base, 10.0)["psi"]
        r2 = invariant_estimate(
            small_jump_model(dt=4e-3, t_end=400.0, dt_save=0.02, seed=7),
            10.0)["psi"]
        assert math.isfinite(r1.value) and math.isfinite(r2.value)
        assert abs(r1.value - r2.value) <= r1.half_width + r2.half_width


class TestSigmaSquared:
    def test_constant_observable_zero(self):
        traj = path_trajectory(np.full(1000, 0.3), 0.01)
        rep = sigma_squared(traj, tanh_mode_observable(1))
        assert rep.value == pytest.approx(0.0, abs=1e-30)
        assert rep.half_width == pytest.approx(0.0, abs=1e-30)

    def test_centering_invariance(self):
        rng = np.random.default_rng(11)
        traj = path_trajectory(
            exact_ou_paths(ALPHA1, 1.0, 0.01, 30000, 1, rng)[0], 0.01)
        plain = sigma_squared(traj, mode_coefficient(1))
        shifted_obs = Observable(
            "shifted", lambda c: c[..., 0] + 5.0, "const", 30.0)
        shifted = sigma_squared(traj, shifted_obs)
        assert shifted.value == pytest.approx(plain.value, rel=1e-9)

    def test_ou_long_run_variance(self, ou_long_path):
        traj = path_trajectory(ou_long_path, 0.01)
        rep = sigma_squared(traj, mode_coefficient(1), n_batches=400)
        assert rep.value == pytest.approx(OU_SIGMA_SQ, rel=0.10)
        assert rep.n == 400
        assert "nonstationary" not in rep.flags

    def test_default_batch_policy(self, ou_long_path):
        traj = path_trajectory(ou_long_path[:100000], 0.01)
        rep = sigma_squared(traj, mode_coefficient(1))
        assert 30 <= rep.n <= 100
        assert rep.extra["batch_duration"] >= \
            20.0 * rep.extra["autocorr_time_samples"] * 0.01

    def test_nonstationary_flagged(self):
        rng = np.random.default_rng(12)
        base = exact_ou_paths(ALPHA1, 1.0, 0.01, 20000, 1, rng)[0]
        drift = np.linspace(0.0, 6.0 * math.sqrt(OU_VARIANCE), base.size)
        rep = sigma_squared(path_trajectory(base + drift, 0.01),
                            mode_coefficient(1), n_batches=40)
        assert "nonstationary" in rep.flags

    def test_mean_matches_path_averages(self, ou_long_path):
        # one batch-means core: the same series, tau and batch means
        traj = path_trajectory(ou_long_path[:100000], 0.01)
        obs = mode_coefficient(1)
        rep = sigma_squared(traj, obs, burn_in=1.0)
        avg = path_averages(traj, 1.0, [obs])[obs.name]
        assert rep.extra["mean"] == avg.value
        assert rep.extra["autocorr_time_samples"] == \
            avg.extra["autocorr_time_samples"]

    def test_batch_count_floor(self):
        traj = path_trajectory(np.random.default_rng(13).normal(size=500),
                               0.01)
        with pytest.raises(ValueError):
            sigma_squared(traj, mode_coefficient(1), n_batches=10)


class TestErgodicDecay:
    def test_identical_starts_no_signal(self):
        cfg = small_jump_model(t_end=0.2, dt=0.01, dt_save=0.05)
        x = basis_field(1, 8)
        rep = ergodic_decay(cfg, x, x, [mode_coefficient(1)],
                            [0.05, 0.1, 0.15, 0.2], n_traj=3)
        assert "signal_below_noise" in rep.flags
        assert rep.value == math.inf
        assert np.allclose(rep.extra["d_values"], 0.0)

    def test_linear_rate_recovered_exactly(self):
        # common noise cancels in the difference of linear paths, so the
        # fitted rate equals the mode-1 dissipation rate to roundoff
        cfg = SimConfig(n_modes=1, dt=1e-3, t_end=0.5, dt_save=0.05,
                        gaussian=GaussianSpec(np.array([1.0])),
                        nonlinearity_on=False, seed=3)
        rep = ergodic_decay(cfg, basis_field(1, 1), -1.0 * basis_field(1, 1),
                            [mode_coefficient(1)],
                            np.arange(1, 11) * 0.05, n_traj=4)
        assert rep.value == pytest.approx(ALPHA1, rel=1e-6)
        assert rep.extra["r_squared"] > 1.0 - 1e-10
        assert rep.half_width <= 1e-6

    def test_default_model_mixes(self):
        cfg = small_jump_model(t_end=1.0, dt=2e-3, dt_save=0.05, seed=17)
        rep = ergodic_decay(cfg, 2.0 * basis_field(1, 8), zero_field(8),
                            observable_dictionary(8),
                            np.arange(1, 21) * 0.05, n_traj=48)
        assert rep.value > 0
        assert rep.value - rep.half_width > 0
        assert "finite_dictionary" in rep.flags

    def test_pairs_share_blocks_and_workers_do_not_show(self, monkeypatch):
        # pair i is trajectory i of separate ensembles from x0 and from y0,
        # and the report is the same for any worker count, over two blocks
        cfg = small_jump_model(t_end=0.1, dt=2e-3, dt_save=0.01, seed=17)
        x0, y0 = 2.0 * basis_field(1, 8), zero_field(8)
        n_traj = BLOCK_ROWS + 1
        seen = []

        def paths_seen(*args, **kwargs):
            seen.append(ensemble(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(ergodics, "ensemble", paths_seen)
        reports = [ergodic_decay(cfg, x0, y0, observable_dictionary(8),
                                 np.arange(1, 11) * 0.01, n_traj,
                                 n_workers=w).to_dict() for w in (1, 2, 3)]
        assert reports[0]["value"] > 0
        assert reports[1] == reports[0] and reports[2] == reports[0]
        reducer = partial(ergodics._snapshots_at, indices=range(1, 11))
        ref = [p for start in (x0, y0)
               for p in ensemble(replace(cfg, x0=start), n_traj, reducer)]
        for paths in seen:
            assert np.stack(paths).tobytes() == np.stack(ref).tobytes()

    def test_blowup_records_per_start(self, monkeypatch):
        # the trust region shrunk to the median peak norm: the records are
        # those of the ensemble from x0, then those from y0, each numbered
        # by its pair, out of 2 n_traj
        cfg = small_jump_model(t_end=0.1, dt=2e-3, dt_save=2e-3, seed=3)
        x0, y0 = 0.3 * basis_field(1, 8), -0.3 * basis_field(1, 8)
        n_traj = 12
        peaks = [p for start in (x0, y0)
                 for p in ensemble(replace(cfg, x0=start), n_traj,
                                   lambda traj: traj.norm_h().max())]
        norm = float(np.median(peaks))
        monkeypatch.setattr(integrator, "BLOWUP_NORM", norm)
        monkeypatch.setattr(integrator, "_SAFE_NORM_SQ",
                            norm ** 2 * (1.0 - 1e-9))
        per_start = []
        for start in (x0, y0):
            with pytest.raises(EnsembleBlowUpError) as err:
                ensemble(replace(cfg, x0=start), n_traj, lambda traj: None)
            per_start.append(err.value.records)
        assert all(0 < len(rs) < n_traj for rs in per_start)
        records = per_start[0] + per_start[1]
        with pytest.raises(EnsembleBlowUpError) as err:
            ergodic_decay(cfg, x0, y0, [mode_coefficient(1)], [0.05, 0.1],
                          n_traj)
        assert err.value.records == tuple(records)
        assert str(err.value).startswith(
            f"{len(records)} of {2 * n_traj} trajectories blew up")

    def test_one_kernel_loop_per_block(self, monkeypatch):
        rows = []
        run = _Kernel.run

        def counted(self, seeds, starts, until=None):
            rows.append(len(seeds))
            return run(self, seeds, starts, until)

        monkeypatch.setattr(_Kernel, "run", counted)
        cfg = small_jump_model(t_end=0.1, dt=2e-3, dt_save=0.01)
        ergodic_decay(cfg, basis_field(1, 8), zero_field(8),
                      [mode_coefficient(1)], [0.05, 0.1], n_traj=6)
        assert rows == [12]

    def test_empty_dictionary_rejected(self):
        cfg = small_jump_model(t_end=0.2, dt=0.01, dt_save=0.05)
        with pytest.raises(ValueError):
            ergodic_decay(cfg, zero_field(8), basis_field(1, 8), [],
                          [0.05, 0.1], n_traj=2)

    def test_off_grid_times_rejected(self):
        # off the grid, past t_end and before 0
        cfg = small_jump_model(t_end=0.2, dt=0.01, dt_save=0.05)
        for t in (0.033, 0.055, 0.25, -0.05):
            with pytest.raises(ValueError, match=f"^time {t} is not on the "
                                                 "snapshot grid$"):
                ergodic_decay(cfg, zero_field(8), basis_field(1, 8),
                              [mode_coefficient(1)], [0.05, t], n_traj=2)


class TestMdpFunctional:
    def test_config_validation(self):
        obs = mode_coefficient(1)
        for p in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                MdpConfig(obs, 0.0, exponent=p)
        with pytest.raises(ValueError):
            MdpConfig(obs, 0.0, prefactor=0.0)

    def test_scale_conditions(self):
        for p in (0.1, 0.25, 0.4):
            cfg = MdpConfig(mode_coefficient(1), 0.0, exponent=p)
            t = 1e3
            assert cfg.scale(t) / math.sqrt(t) < 1.0
            ratios = [cfg.scale(tt) / math.sqrt(tt)
                      for tt in (1e2, 1e3, 1e4)]
            assert ratios[0] > ratios[1] > ratios[2]
            assert cfg.scale(1e4) > cfg.scale(1e2)

    def test_constant_observable_centred(self):
        traj = path_trajectory(np.full(100, 0.7), 0.1)
        cfg = MdpConfig(mode_coefficient(1), 0.7)
        assert mdp_functional(traj, cfg) == pytest.approx(0.0, abs=1e-14)

    def test_prefactor_linearity(self):
        rng = np.random.default_rng(14)
        traj = path_trajectory(rng.normal(size=200), 0.05)
        one = mdp_functional(traj, MdpConfig(mode_coefficient(1), 0.0))
        two = mdp_functional(traj, MdpConfig(mode_coefficient(1), 0.0,
                                             prefactor=2.0))
        assert two == pytest.approx(0.5 * one, rel=1e-12)

    def test_normalized_variance_matches_sigma_sq(self, ou_ensemble):
        # Var of the sqrt(t)-normalized centred integral approaches the
        # long-run variance of the observable
        obs = mode_coefficient(1)
        cfg = MdpConfig(obs, 0.0, exponent=0.25)
        t = 1000.0
        vals = []
        for path in ou_ensemble:
            m = mdp_functional(path_trajectory(path, 0.05), cfg)
            vals.append(m * cfg.scale(t))
        var = float(np.var(vals, ddof=1))
        assert var == pytest.approx(OU_SIGMA_SQ, rel=0.15)


class TestHittingTimes:
    def test_quantile_grid_matches_numpy(self):
        # the survival grid is np.unique(np.quantile(...)) bit for bit,
        # ties, one-sample sets and t at 0.5 included
        rng = np.random.default_rng(8)
        q = np.linspace(0.30, 0.95, 12)
        for size in [1, 2, 3, 5, 11, 12, 13, 100, 499]:
            for samples in (rng.exponential(size=size),
                            np.round(rng.exponential(size=size), 2),
                            0.01 * rng.integers(0, 4, size)):
                s = np.sort(samples)
                got = ergodics._linear_quantiles(s, q)
                assert got.tobytes() == np.quantile(s, q).tobytes()
                assert ergodics._sorted_unique(got).tobytes() == \
                    np.unique(got).tobytes()
        t = np.round(np.linspace(0.01, 1.0, 37) / 0.03) * 0.03
        assert ergodics._sorted_unique(t).tobytes() == \
            np.unique(t).tobytes()

    def test_start_inside_is_zero(self):
        cfg = SimConfig(n_modes=4, dt=0.01, t_end=2.0, dt_save=0.01,
                        nonlinearity_on=False)
        constants = DriftConstants.from_specs(None, None)
        summary = hitting_times(cfg, constants, n_traj=3)
        assert np.all(summary.samples == 0.0)
        assert summary.n_censored == 0

    def test_deterministic_entrance_matches_fine_grid(self):
        gauss = None
        x0 = 3.0 * basis_field(1, 8)
        constants = DriftConstants.from_specs(gauss, None)
        coarse = SimConfig(n_modes=8, dt=1e-3, t_end=1.0, dt_save=1e-3,
                           nonlinearity_on=True, x0=x0)
        summary = hitting_times(coarse, constants, n_traj=2)
        tau = summary.samples[0]
        assert summary.samples[1] == tau

        fine = simulate(SimConfig(n_modes=8, dt=1e-4, t_end=1.0,
                                  dt_save=1e-4, nonlinearity_on=True,
                                  x0=x0))
        v = fine.norm_v()
        idx = int(np.nonzero(v <= constants.k_radius)[0][0])
        assert abs(tau - fine.times[idx]) <= 1.5e-3

    def test_default_model_tail(self):
        cfg = small_jump_model(t_end=1.0, dt=2e-3, dt_save=0.01, seed=5)
        constants = DriftConstants.from_specs(cfg.gaussian, cfg.jumps)
        x0 = (2.0 * constants.k_radius / PI) * basis_field(1, 8)
        summary = hitting_times(SimConfig(**{**cfg.__dict__, "x0": x0}),
                                constants, n_traj=400)
        assert summary.n_censored == 0
        assert summary.tail_rate is not None and summary.tail_rate > 0
        assert summary.tail_r_squared >= 0.8
        assert np.all(np.diff(summary.tail_log_survival) <= 1e-12)
        finite_moments = [m for m in summary.exp_moments if m[1] is not None]
        assert finite_moments
        risky = [m for m in summary.exp_moments if m[2] == "divergence_risk"]
        assert risky

    def test_all_censored(self):
        cfg = small_jump_model(t_end=0.02, dt=2e-3, dt_save=0.01, seed=6)
        constants = DriftConstants.from_specs(cfg.gaussian, cfg.jumps)
        x0 = (2.0 * constants.k_radius / PI) * basis_field(1, 8)
        summary = hitting_times(SimConfig(**{**cfg.__dict__, "x0": x0}),
                                constants, n_traj=3)
        assert "all_censored" in summary.flags
        assert summary.tail_rate is None
        assert summary.t_max == 0.02
        assert summary.exp_moments == ()

    def test_to_dict_roundtrips(self):
        cfg = SimConfig(n_modes=4, dt=0.01, t_end=2.0, dt_save=0.01,
                        nonlinearity_on=False)
        constants = DriftConstants.from_specs(None, None)
        d = hitting_times(cfg, constants, n_traj=2).to_dict()
        assert d["n"] == 2 and d["n_censored"] == 0


def _first_entrance(traj: Trajectory, radius: float) -> float:
    """The entrance time read off a path run to t_max."""
    hit = np.flatnonzero(traj.norm_v() <= radius)
    return float(traj.times[hit[0]]) if hit.size else math.nan


class TestHittingStop:
    @staticmethod
    def far_start(t_max):
        cfg = small_jump_model(t_end=t_max, dt=2e-3, dt_save=0.01, seed=5)
        constants = DriftConstants.from_specs(cfg.gaussian, cfg.jumps)
        x0 = (2.0 * constants.k_radius / PI) * basis_field(1, 8)
        return replace(cfg, x0=x0), constants

    @pytest.fixture(scope="class")
    def reference(self):
        cfg, constants = self.far_start(0.08)
        taus = ensemble(cfg, 101, partial(_first_entrance,
                                          radius=constants.k_radius))
        return cfg, constants, np.array(taus)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("n_traj", [1, 7, 100, 101])
    def test_samples_equal_full_horizon(self, reference, n_traj, n_workers):
        cfg, constants, taus = reference
        assert 0 < np.isnan(taus).sum() < taus.size
        summary = hitting_times(cfg, constants, n_traj,
                                n_workers=n_workers)
        assert summary.samples.tobytes() == taus[:n_traj].tobytes()

    def test_blocks_stop_before_t_max(self, monkeypatch):
        steps = []
        plan = _Kernel._plan_chunk

        def counted(self, i0, i1, rngs, plans):
            steps.append(i1 - i0)
            return plan(self, i0, i1, rngs, plans)

        monkeypatch.setattr(_Kernel, "_plan_chunk", counted)
        cfg, constants = self.far_start(1.0)
        summary = hitting_times(cfg, constants, 100)
        assert summary.n_censored == 0
        assert sum(steps) < round(1.0 / cfg.dt)


class TestDeviationProbe:
    def test_rows_and_trivial_cases(self):
        cfg = SimConfig(n_modes=1, dt=0.01, t_end=1.0, dt_save=0.05,
                        gaussian=GaussianSpec(np.array([1.0])),
                        nonlinearity_on=False, seed=8)
        rows = deviation_tail_probe(cfg, mode_coefficient(1),
                                    r_grid=(0.0, 0.05, 10.0),
                                    t_grid=(0.5, 1.0), n_traj=16,
                                    mu_ref=0.0)
        assert len(rows) == 6
        by_key = {(r["t"], r["r"]): r for r in rows}
        zero = by_key[(0.5, 0.0)]
        assert zero["prob"] == 1.0 and zero["rate"] == 0.0
        assert not zero["rate_is_lower_bound"]
        huge = by_key[(1.0, 10.0)]
        assert huge["n_exceed"] == 0
        assert huge["rate_is_lower_bound"]
        assert huge["prob"] == pytest.approx(1.0 - 0.025 ** (1.0 / 16))

    def test_monotone_in_r(self):
        cfg = SimConfig(n_modes=1, dt=0.01, t_end=2.0, dt_save=0.05,
                        gaussian=GaussianSpec(np.array([1.0])),
                        nonlinearity_on=False, seed=9)
        rows = deviation_tail_probe(cfg, mode_coefficient(1),
                                    r_grid=(0.0, 0.02, 0.05, 0.1),
                                    t_grid=(2.0,), n_traj=64, mu_ref=0.0)
        probs = [r["prob"] for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_gaussian_regime_rate(self):
        # time-average of the OU mode is near-normal at alpha t = 200, so
        # the measured rate should sit within a factor two of r^2/(2 sigma^2)
        cfg = SimConfig(n_modes=1, dt=0.01, t_end=20.0, dt_save=0.1,
                        gaussian=GaussianSpec(np.array([1.0])),
                        nonlinearity_on=False, seed=10)
        t = 20.0
        r = 2.0 * math.sqrt(OU_SIGMA_SQ / t)
        rows = deviation_tail_probe(cfg, mode_coefficient(1), r_grid=(r,),
                                    t_grid=(t,), n_traj=200, mu_ref=0.0)
        row = rows[0]
        assert row["n_exceed"] > 0
        theory = r ** 2 / (2.0 * OU_SIGMA_SQ)
        assert theory / 2.0 <= row["rate"] <= theory * 2.0

    def test_bad_times_rejected(self):
        cfg = SimConfig(n_modes=1, dt=0.01, t_end=1.0, dt_save=0.05,
                        gaussian=GaussianSpec(np.array([1.0])))
        for t_grid, message in (
                ((0.0, 1.0), "probe time 0.0 is not past snapshot 0"),
                ((0.033,), "need 0 < dt <= dt_save <= t_end"),
                ((0.055,), "t_end must be an integer multiple of dt_save"),
                ((0.055, 1.0), "time 0.055 is not on the snapshot grid")):
            with pytest.raises(ValueError, match=message):
                deviation_tail_probe(cfg, mode_coefficient(1), (0.1,),
                                     t_grid, 4, 0.0)

    @pytest.mark.parametrize("t", [0.0, 1e-12, 0.02, 0.025, 0.0250001,
                                   0.05, 0.055, 0.074, 0.075, 1.0, -0.05])
    def test_past_snapshot_zero_check(self, t):
        # the probe's check on the save grid accepts exactly the times
        # with round(t / dt_save) >= 1: 0.02 is refused as not past
        # snapshot 0, and 0.055 passes it and fails as off the grid
        cfg = SimConfig(n_modes=1, dt=0.01, t_end=1.0, dt_save=0.05,
                        gaussian=GaussianSpec(np.array([1.0])))
        past = round(t / cfg.dt_save) >= 1
        assert (cfg.nearest_save_time(t) >= cfg.dt_save) == past
        probe = partial(deviation_tail_probe, cfg, mode_coefficient(1),
                        (0.1,), (t, 1.0), 4, 0.0)
        if not past:
            message = f"probe time {t} is not past snapshot 0"
        elif save_count(t, cfg.dt_save) is None:
            message = f"time {t} is not on the snapshot grid"
        else:
            assert len(probe()) == 2
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            probe()

    def test_time_on_snapshot_zero_rejected(self):
        # 1e-12 is within the multiple test's slack of 0 save intervals:
        # its running average would be 0/0
        cfg = SimConfig(n_modes=1, dt=0.01, t_end=1.0, dt_save=0.05,
                        gaussian=GaussianSpec(np.array([1.0])))
        with pytest.raises(ValueError, match="snapshot 0"):
            deviation_tail_probe(cfg, mode_coefficient(1), (0.1,),
                                 (1e-12, 1.0), 4, 0.0)
