"""Forcing specs: Wiener increments, jump sampling, admissibility constants.

Closed-form expected values (moments of the exponential mark law, tilted
second moments, compensator drift) were derived by hand from the densities
and frozen below; Monte Carlo checks use fixed seeds.
"""

import math

import numpy as np
import pytest

from sburgers.spectral import SpectralField, basis_field, zero_field, norm_h, \
    mode_rates
from sburgers.integrator import SimConfig, ensemble
from sburgers.noise import (
    DivergentMomentError,
    ExponentialMarks,
    DeterministicMarks,
    ConstantDirection,
    SaturatedDirection,
    GaussianSpec,
    JumpSpec,
    sample_jump_times,
    hypothesis_constants,
    _laguerre_rule,
)


def _last_state(traj):
    return traj.coeffs[-1]


def one_step_increments(spec: GaussianSpec, dt: float, n: int) -> np.ndarray:
    """End states of n one-step paths from zero under Gaussian forcing only:
    the Wiener increment as the integrator applies it, e^(-alpha dt) beta
    sqrt(dt) xi per mode."""
    cfg = SimConfig(n_modes=spec.n_modes, dt=dt, t_end=dt, dt_save=dt,
                    gaussian=spec, nonlinearity_on=False, seed=100)
    return np.array(ensemble(cfg, n, _last_state))


def default_jumps(n_modes=4):
    return JumpSpec(intensity=1.0, marks=ExponentialMarks(rate=2.0),
                    direction=ConstantDirection(basis_field(1, n_modes)))


class TestMarkLaws:
    def test_exponential_moments(self):
        law = ExponentialMarks(rate=2.0)
        assert law.mean == 0.5
        assert law.second_moment == 0.5
        assert law.tilt_limit == 2.0

    def test_exponential_tilted_moment(self):
        law = ExponentialMarks(rate=2.0)
        # 2 r / (r - a)^3 at a = 1: 4 / 1 = 4
        assert law.tilted_second_moment(1.0) == pytest.approx(4.0, rel=1e-14)
        assert law.tilted_second_moment(0.0) == law.second_moment
        assert law.tilted_second_moment(2.0) == math.inf
        with pytest.raises(DivergentMomentError):
            law.tilted_second_moment(2.5)

    def test_exponential_quadrature_matches_moments(self):
        law = ExponentialMarks(rate=2.0)
        u, w = law.quadrature()
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
        assert np.sum(w * u) == pytest.approx(law.mean, rel=1e-12)
        assert np.sum(w * u ** 2) == pytest.approx(law.second_moment, rel=1e-12)
        tilted = np.sum(w * u ** 2 * np.exp(1.0 * u))
        assert tilted == pytest.approx(4.0, rel=1e-9)

    def test_laguerre_rule_built_once(self):
        s1, w1 = _laguerre_rule()
        s2, w2 = _laguerre_rule()
        assert s1 is s2 and w1 is w2
        assert not s1.flags.writeable and not w1.flags.writeable

    def test_stored_laguerre_rule_matches_laggauss(self):
        # the table is what laggauss(80) returned where it was written;
        # another LAPACK may differ from it in the last bits
        from numpy.polynomial.laguerre import laggauss

        s, w = _laguerre_rule()
        ref_s, ref_w = laggauss(80)
        np.testing.assert_allclose(s, ref_s, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(w, ref_w, rtol=1e-13, atol=0.0)

    def test_deterministic_marks(self):
        law = DeterministicMarks(value=0.3)
        assert law.mean == 0.3
        assert law.second_moment == pytest.approx(0.09)
        assert law.tilt_limit == math.inf
        assert law.tilted_second_moment(5.0) == pytest.approx(
            0.09 * math.exp(1.5), rel=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExponentialMarks(rate=0.0)
        with pytest.raises(ValueError):
            DeterministicMarks(value=-1.0)


class TestWienerIncrements:
    def test_moment_match(self):
        spec = GaussianSpec(np.array([1.0, 0.5]))
        dt = 0.01
        draws = one_step_increments(spec, dt, 20000)
        scale = np.exp(-mode_rates(2) * dt) * spec.betas
        se = scale * np.sqrt(dt / 20000)
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)
        assert np.allclose(draws.var(axis=0), scale ** 2 * dt, rtol=0.05)

    def test_zero_amplitudes_give_zero_increment(self):
        inc = one_step_increments(GaussianSpec(np.zeros(5)), 0.5, 3)
        assert np.all(inc == 0.0)

    def test_hs_norm(self):
        spec = GaussianSpec(np.array([1.0, 0.5]))
        assert spec.hs_norm_sq == pytest.approx(1.25)

    def test_power_decay_normalization(self):
        spec = GaussianSpec.power_decay(32, normalize_to=1.0)
        assert spec.hs_norm_sq == pytest.approx(1.0, rel=1e-12)
        # shape is k^-1 before rescaling
        assert spec.betas[0] / spec.betas[3] == pytest.approx(4.0, rel=1e-12)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            GaussianSpec(np.array([0.1, -0.2]))


class TestJumpSampling:
    def test_event_count_matches_intensity(self):
        spec = default_jumps()
        rng = np.random.default_rng(200)
        t_end = 2000.0
        events = sample_jump_times(spec, t_end, rng)
        n = len(events)
        assert abs(n - t_end) < 5 * np.sqrt(t_end)

    def test_times_sorted_in_range_marks_positive(self):
        spec = default_jumps()
        events = sample_jump_times(spec, 50.0, np.random.default_rng(3))
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert all(0 < t <= 50.0 for t in times)
        assert all(u > 0 for _, u in events)

    def test_zero_intensity_no_events(self):
        spec = JumpSpec(0.0, ExponentialMarks(2.0),
                        ConstantDirection(basis_field(1, 2)))
        assert sample_jump_times(spec, 100.0, np.random.default_rng(1)) == []

    def test_deterministic_given_seed(self):
        spec = default_jumps()
        e1 = sample_jump_times(spec, 20.0, np.random.default_rng(9))
        e2 = sample_jump_times(spec, 20.0, np.random.default_rng(9))
        assert e1 == e2


class TestAmplitudeAndCompensator:
    def test_compensator_closed_form(self):
        # -intensity * E[u] = -1 * 0.5
        spec = default_jumps(n_modes=3)
        assert spec.compensator_coefficient == -0.5

    def test_compensated_increment_centred(self):
        # one-step compensated displacement has mean ~ 0 across replications
        spec = default_jumps(n_modes=1)
        rng = np.random.default_rng(77)
        dt = 0.05
        reps = 10000
        total = 0.0
        for _ in range(reps):
            inc = sum(u for _, u in sample_jump_times(spec, dt, rng))
            inc += dt * spec.compensator_coefficient
            total += inc
        mean = total / reps
        # per-rep variance ~ intensity * E[u^2] * dt
        se = np.sqrt(spec.marks.second_moment * dt / reps)
        assert abs(mean) < 4 * se

    def test_saturated_direction_bounded(self):
        d = SaturatedDirection(basis_field(1, 4), amplitude=0.8)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = SpectralField(rng.standard_normal(4) * 10)
            assert norm_h(SpectralField(d.field_at(x.coeffs))) <= 0.8 + 1e-12

    def test_saturated_direction_vanishes_at_origin(self):
        d = SaturatedDirection(basis_field(2, 4), amplitude=1.0)
        assert np.allclose(d.field_at(zero_field(4).coeffs), 0.0)

    @pytest.mark.parametrize("d", [
        ConstantDirection(basis_field(2, 5)),
        SaturatedDirection(basis_field(1, 5) + basis_field(4, 5), 0.8),
    ])
    def test_field_at_broadcasts_over_rows(self, d):
        # a block of states gives each row the bits of the row alone
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 7, 5)) * 3.0
        block = d.field_at(a)
        assert block.shape == a.shape
        for i in range(3):
            for j in range(7):
                assert np.array_equal(block[i, j], d.field_at(a[i, j]))



class TestHypothesisConstants:
    def test_frozen_default_values(self):
        spec = default_jumps()
        rep = hypothesis_constants(spec, 1.0)
        assert rep.m_est == pytest.approx(0.5, rel=1e-14)
        assert rep.m_lambda_est == pytest.approx(4.0, rel=1e-14)
        assert rep.a0_max == pytest.approx(2.0, rel=1e-14)

    def test_half_tilt(self):
        rep = hypothesis_constants(default_jumps(), 0.5)
        assert rep.m_lambda_est == pytest.approx(1.1851851851851851, rel=1e-14)

    def test_zero_tilt_reduces_to_m(self):
        rep = hypothesis_constants(default_jumps(), 0.0)
        assert rep.m_lambda_est == rep.m_est

    def test_nondecreasing_in_tilt(self):
        spec = default_jumps()
        grid = [0.0, 0.25, 0.5, 1.0, 1.5, 1.9]
        vals = [hypothesis_constants(spec, lam).m_lambda_est for lam in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_m_bounded_by_m_lambda(self):
        for lam in (0.0, 0.3, 1.2):
            rep = hypothesis_constants(default_jumps(), lam)
            assert rep.m_est <= rep.m_lambda_est

    def test_boundary_tilt_diverges(self):
        rep = hypothesis_constants(default_jumps(), 2.0)
        assert rep.m_lambda_est == math.inf

    def test_beyond_boundary_raises(self):
        with pytest.raises(DivergentMomentError):
            hypothesis_constants(default_jumps(), 2.1)

    def test_deterministic_marks_never_diverge(self):
        spec = JumpSpec(1.0, DeterministicMarks(0.5),
                        ConstantDirection(basis_field(1, 2)))
        rep = hypothesis_constants(spec, 50.0)
        assert rep.a0_max == math.inf
        assert np.isfinite(rep.m_lambda_est)
