"""Lyapunov calculus and drift/martingale inequality checks.

Derivative identities are verified against central finite differences
(the independent oracle for the calculus), the generator's trace and jump
terms against differences of psi alone, the jump remainder at the origin
against scipy.integrate.quad of (sqrt(1+u^2)-1) * density, and every
deterministic inequality on randomized states.  The layer is array-first:
states go in as coefficient arrays of shape (..., N), and a block of states
must give each row the bits it gets alone.
"""

import math

import numpy as np
import pytest

from sburgers.spectral import (
    basis_field, zero_field, random_field, norm_h, norm_h_sq, norm_v_sq,
)
from sburgers.noise import (
    GaussianSpec, JumpSpec, ExponentialMarks, DeterministicMarks,
    ConstantDirection, SaturatedDirection, DivergentMomentError,
)
from sburgers.integrator import SimConfig, simulate, ensemble
from sburgers.lyapunov import (
    DriftConstants,
    psi, grad_psi, hess_psi_apply,
    generator_upper_bound, drift_condition_check,
    psi_lambda, grad_psi_lambda, h_upper,
    dissipation_term_gap, jump_taylor_gap,
    exp_martingale_path, exp_integral_moment,
)

from oracles import finite_difference_gradient

PI = np.pi


def default_gaussian(n_modes=16):
    return GaussianSpec.power_decay(n_modes, normalize_to=1.0)


def default_jumps(n_modes=16):
    return JumpSpec(1.0, ExponentialMarks(2.0),
                    ConstantDirection(basis_field(1, n_modes)))


def default_constants(n_modes=16):
    return DriftConstants.from_specs(default_gaussian(n_modes),
                                     default_jumps(n_modes))


def default_config(t_end, dt=1e-3, dt_save=1e-2, seed=0, n_modes=16, x0=None):
    return SimConfig(n_modes=n_modes, dt=dt, t_end=t_end, dt_save=dt_save,
                     gaussian=default_gaussian(n_modes),
                     jumps=default_jumps(n_modes),
                     nonlinearity_on=True, seed=seed, x0=x0)


class TestDriftConstants:
    def test_default_model_values(self):
        c = default_constants()
        assert c.hs_norm_sq == pytest.approx(1.0, rel=1e-12)
        assert c.m_est == pytest.approx(0.5, rel=1e-12)
        assert c.c1 == pytest.approx(1.75, rel=1e-12)
        assert c.k_radius == pytest.approx(3.5, rel=1e-12)

    def test_no_forcing(self):
        c = DriftConstants.from_specs(None, None)
        assert c.c1 == 1.0 and c.k_radius == 2.0

    def test_corrupted_copy(self):
        c = default_constants().corrupted(0.875)
        assert c.c1 == 0.875 and c.k_radius == 1.75

    def test_radius_consistency_enforced(self):
        # k_radius is derived from c1, so no inconsistent pair can be built
        assert DriftConstants(1.0, 0.5, 1.75).k_radius == 3.5


def states(fields) -> np.ndarray:
    """Stack SpectralFields into an (n, N) block, one state per row."""
    return np.array([x.coeffs for x in fields])


class TestPsiCalculus:
    def test_values(self):
        assert psi(zero_field(4).coeffs) == 1.0
        assert psi((basis_field(1, 4) * math.sqrt(3.0)).coeffs) == \
            pytest.approx(2.0)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = random_field(8, rng, norm=rng.uniform(0, 20))
            p = psi(x.coeffs)
            assert max(1.0, norm_h(x)) <= p <= 1.0 + norm_h(x)

    def test_gradient_frozen_value(self):
        g = grad_psi((basis_field(1, 4) * 4.0).coeffs)
        assert g[0] == pytest.approx(0.9701425001453319, rel=1e-14)
        assert np.all(g[1:] == 0.0)

    def test_gradient_norm_below_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = random_field(6, rng, norm=rng.uniform(0, 50))
            assert np.sqrt(norm_h_sq(grad_psi(x.coeffs))) < 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = random_field(6, rng)
            ref = finite_difference_gradient(
                lambda a: math.sqrt(1.0 + float(np.sum(a ** 2))),
                x.coeffs, eps=1e-5)
            g = grad_psi(x.coeffs)
            assert np.max(np.abs(g - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))

    def test_gradient_secondorder_convergence(self):
        # central differences converge at rate eps^2: halving eps cuts the
        # defect by about 4
        rng = np.random.default_rng(4)
        x = random_field(5, rng)
        exact = grad_psi(x.coeffs)

        def fd_err(eps):
            ref = finite_difference_gradient(
                lambda a: math.sqrt(1.0 + float(np.sum(a ** 2))),
                x.coeffs, eps=eps)
            return np.max(np.abs(ref - exact))

        ratio = fd_err(1e-3) / fd_err(5e-4)
        assert 3.0 < ratio < 5.5

    def test_hessian_matches_grad_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = random_field(5, rng).coeffs
            for i in range(5):
                v = basis_field(i + 1, 5).coeffs
                eps = 1e-5
                fd = (grad_psi(x + v * eps)
                      - grad_psi(x + v * (-eps))) / (2 * eps)
                hv = hess_psi_apply(x, v)
                assert np.max(np.abs(hv - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_hessian_operator_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = random_field(6, rng, norm=rng.uniform(0, 30))
            v = random_field(6, rng)
            hv = hess_psi_apply(x.coeffs, v.coeffs)
            assert np.sqrt(norm_h_sq(hv)) <= norm_h(v) + 1e-12

    def test_hessian_symmetry(self):
        rng = np.random.default_rng(7)
        x = random_field(6, rng).coeffs
        v = random_field(6, rng).coeffs
        w = random_field(6, rng).coeffs
        a = float(np.dot(hess_psi_apply(x, v), w))
        b = float(np.dot(hess_psi_apply(x, w), v))
        assert a == pytest.approx(b, rel=1e-12)

    def test_hessian_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            hess_psi_apply(np.zeros(4), np.zeros(3))


class TestGeneratorBound:
    def test_origin_terms(self):
        c = default_constants()
        t = generator_upper_bound(np.zeros(16), c, default_gaussian(),
                                  default_jumps())
        assert t.lin_term == 0.0
        assert t.transport_term == 0.0
        assert t.trace_exact == pytest.approx(0.5, rel=1e-12)
        # scipy.integrate.quad oracle for the jump remainder at the origin
        assert t.jump_exact == pytest.approx(0.18406023900442273, rel=1e-9)
        assert t.value == pytest.approx(0.6840602390044227, rel=1e-9)
        assert t.bound == pytest.approx(0.75, rel=1e-12)
        assert t.margin > 0
        assert t.ok

    def test_dissipation_term_frozen(self):
        c = DriftConstants.from_specs(None, None)
        t = generator_upper_bound((basis_field(1, 4) * 4.0).coeffs, c)
        assert t.lin_term == pytest.approx(-38.299690756472806, rel=1e-12)

    def test_chain_on_random_states(self):
        c = default_constants()
        rng = np.random.default_rng(8)
        a = states(random_field(16, rng, norm=rng.uniform(0, 10))
                   for _ in range(200))
        t = generator_upper_bound(a, c, default_gaussian(), default_jumps())
        assert t.value.shape == (200,)
        assert np.all(t.value <= t.bound + 1e-9)
        assert np.all(t.trace_exact <= t.trace_bound + 1e-12)
        assert np.all(t.jump_exact <= t.jump_bound + 1e-12)
        assert np.all(t.ok)

    def test_chain_on_trajectory_states(self):
        traj = simulate(default_config(2.0, seed=14))
        c = default_constants()
        t = generator_upper_bound(traj.coeffs, c, default_gaussian(),
                                  default_jumps())
        assert t.ok.shape == (traj.n_snapshots,)
        assert np.all(t.ok)

    def test_corrupted_constant_violates(self):
        c = default_constants().corrupted(0.875)
        t = generator_upper_bound(np.zeros(16), c, default_gaussian(),
                                  default_jumps())
        assert not t.ok
        assert t.value > t.bound


class TestGeneratorOracle:
    """The exact generator terms against differences of psi alone.

    Nothing here calls grad_psi or hess_psi_apply, which the generator
    evaluates its trace and jump terms through.
    """

    @pytest.mark.parametrize("n_modes", [8, 33])
    @pytest.mark.parametrize("direction", ["constant", "saturated"])
    @pytest.mark.parametrize("marks", ["exponential", "deterministic"])
    def test_exact_terms_match_psi_differences(self, n_modes, direction,
                                               marks):
        rng = np.random.default_rng(70 + n_modes)
        a = rng.standard_normal((25, n_modes)) \
            * 10.0 ** rng.uniform(-1.0, 1.0, (25, 1))
        gauss = GaussianSpec.power_decay(n_modes, normalize_to=1.0)
        mark_law = ExponentialMarks(2.0) if marks == "exponential" \
            else DeterministicMarks(0.7)
        jumps = JumpSpec(1.3, mark_law, _direction(direction, n_modes))
        t = generator_upper_bound(a, DriftConstants.from_specs(gauss, jumps),
                                  gauss, jumps)
        p = psi(a)

        # fourth-order central second difference along each e_k
        h = 1e-2
        step = np.eye(n_modes) * h

        def along(s):
            return psi(a[:, None, :] + s * step)       # (states, k)

        second = (-along(2) + 16.0 * along(1) - 30.0 * p[:, None]
                  + 16.0 * along(-1) - along(-2)) / (12.0 * h * h)
        trace = 0.5 * second @ gauss.betas ** 2
        np.testing.assert_allclose(t.trace_exact, trace, rtol=1e-6, atol=0)

        # jump remainder with the slope <grad psi, g> as a central difference
        eps = 1e-4
        g = jumps.direction.field_at(a)
        slope = (psi(a + eps * g) - psi(a - eps * g)) / (2.0 * eps)
        u, w = mark_law.quadrature()
        rem = np.stack([psi(a + uk * g) - p - uk * slope for uk in u],
                       axis=-1)
        jump = jumps.intensity * rem @ w
        np.testing.assert_allclose(t.jump_exact, jump, rtol=1e-6, atol=0)


class TestDriftCondition:
    def test_origin_inside_k(self):
        rep = drift_condition_check(np.zeros(16), default_constants())
        assert rep.in_k
        assert rep.lhs == pytest.approx(-0.75, rel=1e-12)
        assert rep.satisfied

    def test_boundary_state_frozen(self):
        # c1 = 2 model, mode-1 state on the centre-set boundary
        c = DriftConstants(hs_norm_sq=2.0, m_est=0.0, c1=2.0)
        x = (basis_field(1, 8) * (4.0 / PI)).coeffs
        rep = drift_condition_check(x, c)
        assert rep.in_k
        assert rep.lhs == pytest.approx(1.311374033678399, rel=1e-12)
        assert rep.satisfied

    def test_far_states_gain_half(self):
        c = default_constants()
        rng = np.random.default_rng(9)
        a = states(random_field(16, rng, norm=rng.uniform(2.0, 40.0))
                   for _ in range(200))
        rep = drift_condition_check(a, c)
        assert np.any(~rep.in_k)
        assert np.all(rep.lhs[~rep.in_k] >= 0.5 - 1e-9)

    def test_chain_flag_with_specs(self):
        rep = drift_condition_check(np.zeros(16), default_constants(),
                                    default_gaussian(), default_jumps())
        assert rep.ok
        assert rep.generator is not None

    def test_negative_control_halved_c1(self):
        c = default_constants()
        bad = c.corrupted(c.c1 / 2.0)
        rep = drift_condition_check(np.zeros(16), bad,
                                    default_gaussian(), default_jumps())
        assert not rep.ok
        assert rep.satisfied and not rep.generator.ok

    def test_geometric_only_when_no_specs(self):
        rep = drift_condition_check(np.zeros(16), default_constants())
        assert rep.generator is None
        assert rep.ok == rep.satisfied


class TestScaledFamily:
    def test_psi_lambda_values(self):
        assert psi_lambda(np.zeros(4), 0.5) == 1.0
        x = (basis_field(1, 4) * 4.0).coeffs
        assert psi_lambda(x, 0.5) == pytest.approx(2.23606797749979, rel=1e-14)
        assert psi_lambda(x, 1.0) == pytest.approx(psi(x), rel=1e-14)

    def test_psi_lambda_domain(self):
        with pytest.raises(ValueError):
            psi_lambda(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            psi_lambda(np.zeros(2), -1.0)

    def test_grad_psi_lambda_norm(self):
        rng = np.random.default_rng(10)
        for lam in (0.25, 0.5, 1.0):
            for _ in range(50):
                x = random_field(6, rng, norm=rng.uniform(0, 20))
                g = grad_psi_lambda(x.coeffs, lam)
                assert np.sqrt(norm_h_sq(g)) <= lam + 1e-12

    def test_h_upper_frozen(self):
        val = h_upper(basis_field(1, 4).coeffs, 1.0, 4.0, 1.0)
        assert val == pytest.approx(-3.9788641996388785, rel=1e-12)

    def test_dissipation_gap_nonnegative(self):
        rng = np.random.default_rng(11)
        for lam in (0.25, 0.5, 1.0):
            a = states(random_field(12, rng, norm=rng.uniform(0, 30))
                       for _ in range(200))
            assert np.all(dissipation_term_gap(a, lam) >= -1e-9)

    def test_jump_taylor_gap_nonnegative(self):
        rng = np.random.default_rng(12)
        spec = default_jumps(8)
        for lam in (0.25, 0.5, 1.0):
            for _ in range(100):
                x = random_field(8, rng, norm=rng.uniform(0, 5))
                u = rng.exponential(0.5)
                assert jump_taylor_gap(x.coeffs, u, spec, lam) >= -1e-9


class TestExpMartingale:
    def test_starts_at_one(self):
        traj = simulate(default_config(0.1, dt_save=1e-3, seed=1))
        m = exp_martingale_path(traj, 0.5, 1.1851851851851851, 1.0)
        assert m[0] == 1.0

    def test_frozen_zero_path(self):
        # all forcing off from the origin: the path sits at zero and the
        # dominator is exp(-t lambda^2 (hs + M_lambda / 2))
        cfg = SimConfig(n_modes=4, dt=1e-3, t_end=1.0, dt_save=1e-2,
                        nonlinearity_on=False)
        traj = simulate(cfg)
        m = exp_martingale_path(traj, 0.5, 1.1851851851851851, 1.0)
        assert m[-1] == pytest.approx(0.6715625295468429, rel=1e-12)

    def test_supermartingale_small_ensemble(self):
        cfg = default_config(0.5, dt=2e-3, dt_save=2e-3, seed=21)
        vals = np.array(ensemble(cfg, 400, _mart_final_quarter))
        mean, se = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
        assert mean <= 1.0 + 3.0 * se

    def test_requires_positive_tilt(self):
        traj = simulate(default_config(0.1, seed=2))
        with pytest.raises(ValueError):
            exp_martingale_path(traj, 0.0, 1.0, 1.0)


class TestExpIntegralMoment:
    def test_domain_validation(self):
        cfg = default_config(0.1)
        with pytest.raises(ValueError):
            exp_integral_moment(cfg, 0.0, 0.5, n_traj=2)
        with pytest.raises(ValueError):
            exp_integral_moment(cfg, 1.0, 0.5, n_traj=2)
        with pytest.raises(DivergentMomentError):
            exp_integral_moment(cfg, 0.5, 2.5, n_traj=2)

    def test_forcing_off_is_degenerate(self):
        cfg = SimConfig(n_modes=4, dt=1e-3, t_end=0.5, dt_save=1e-2,
                        nonlinearity_on=False)
        rep = exp_integral_moment(cfg, 0.5, 0.5, n_traj=3)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.value <= rep.extra["bound"]

    def test_tiny_tilt_limit(self):
        cfg = default_config(0.2, seed=3)
        rep = exp_integral_moment(cfg, 0.5, 1e-8, n_traj=5)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_small_run_below_bound(self):
        cfg = default_config(0.5, dt=2e-3, dt_save=1e-2, seed=4)
        rep = exp_integral_moment(cfg, 0.5, 0.5, n_traj=200)
        assert rep.value - rep.half_width <= rep.extra["bound"]
        assert rep.extra["z_moment"] <= rep.extra["bound"]
        assert rep.n == 200


def _mart_final_quarter(traj) -> float:
    m_lam = ExponentialMarks(2.0).tilted_second_moment(0.25)
    return float(exp_martingale_path(traj, 0.25, m_lam, 1.0)[-1])


# Fields of the Lyapunov outputs that pass through ||x||_V^2.  norm_v_sq is
# a BLAS matrix-vector product, whose kernel may round a row of a block
# differently from the row alone; where it does, these fields may move in
# the last bits and nothing else may.
V_FIELDS = {"lin_term", "value", "bound", "margin", "ok",
            "v_norm", "in_k", "lhs", "satisfied"}


def _direction(kind, n_modes):
    g0 = basis_field(1, n_modes) + basis_field(n_modes, n_modes) * 0.5
    if kind == "constant":
        return ConstantDirection(g0)
    return SaturatedDirection(g0, amplitude=0.8)


def _assert_rows_match(whole, rows, same_v, v_dependent):
    for i, solo in enumerate(rows):
        if v_dependent and not same_v[i]:
            np.testing.assert_allclose(whole[i], solo, rtol=1e-13,
                                       atol=1e-13)
        else:
            assert np.array_equal(whole[i], solo), i


class TestBatchInvariance:
    """Row i of a call on an (n, N) block equals a call on row i alone.

    N = 1 and 8 take the gathered Burgers route and N = 33 the per-row
    convolution; the rows span the origin and large states.
    """

    @pytest.mark.parametrize("n_modes", [1, 8, 33])
    @pytest.mark.parametrize("direction", ["constant", "saturated"])
    @pytest.mark.parametrize("marks", ["exponential", "deterministic"])
    def test_rows_equal_solo_calls(self, n_modes, direction, marks):
        rng = np.random.default_rng(40 + n_modes)
        a = rng.standard_normal((23, n_modes)) \
            * 10.0 ** rng.uniform(-2.0, 1.5, (23, 1))
        a[0] = 0.0
        v = rng.standard_normal((23, n_modes))
        gauss = GaussianSpec.power_decay(n_modes, normalize_to=1.0)
        mark_law = ExponentialMarks(2.0) if marks == "exponential" \
            else DeterministicMarks(0.7)
        jumps = JumpSpec(1.3, mark_law, _direction(direction, n_modes))
        c = DriftConstants.from_specs(gauss, jumps)
        m_lam = 1.1851851851851851

        same_v = norm_v_sq(a) == np.array([norm_v_sq(r) for r in a])
        # the exact comparison is exercised on most rows
        assert np.sum(same_v) >= len(a) // 2

        def check(fn, v_dependent=False):
            _assert_rows_match(fn(a), [fn(r) for r in a], same_v,
                               v_dependent)

        check(psi)
        check(grad_psi)
        _assert_rows_match(hess_psi_apply(a, v),
                           [hess_psi_apply(r, w) for r, w in zip(a, v)],
                           same_v, False)
        for lam in (0.25, 1.0):
            check(lambda x: psi_lambda(x, lam))
            check(lambda x: grad_psi_lambda(x, lam))
            check(lambda x: h_upper(x, lam, m_lam, 1.0), True)
            check(lambda x: dissipation_term_gap(x, lam), True)
            for u in (0.05, 0.7, 2.0):
                check(lambda x: jump_taylor_gap(x, u, jumps, lam))

        for specs in ((gauss, jumps), (None, jumps), (gauss, None)):
            terms = generator_upper_bound(a, c, *specs)
            solo = [generator_upper_bound(r, c, *specs) for r in a]
            for name in terms._fields:
                whole = getattr(terms, name)
                if np.ndim(whole) == 0:
                    assert all(getattr(t, name) == whole for t in solo)
                    continue
                assert np.shape(whole) == (len(a),)
                _assert_rows_match(whole, [getattr(t, name) for t in solo],
                                   same_v, name in V_FIELDS)

        for specs in ((gauss, jumps), (None, None)):
            rep = drift_condition_check(a, c, *specs)
            solo = [drift_condition_check(r, c, *specs) for r in a]
            for name in rep._fields:
                if name == "generator":
                    continue
                _assert_rows_match(getattr(rep, name),
                                   [getattr(t, name) for t in solo],
                                   same_v, name in V_FIELDS)
