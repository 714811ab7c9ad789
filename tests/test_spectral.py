"""Spectral core: norms, advection projection, grid transforms, heat flow.

Frozen expected values for the advection term come from an independent
adaptive-quadrature oracle (scipy.integrate.quad of x * x' * e_m over (0,1),
see tests/oracles.py), run once and pinned here.
"""

import numpy as np
import pytest

from sburgers.spectral import (
    SpectralField,
    GridFunction,
    zero_field,
    basis_field,
    random_field,
    mode_rates,
    norm_h,
    norm_v,
    inner_h,
    burgers_nonlinearity,
    evaluate,
    project,
    heat_semigroup,
    tail_energy_fraction,
    _quadratic_exact,
    _quadratic_dealiased,
    _quadratic_gathered,
    _quadratic_term,
)

from oracles import advection_coefficient_quadrature

PI = 3.141592653589793
PI_OVER_SQRT2 = 2.221441469079183


class TestFieldType:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SpectralField(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            SpectralField(np.array([np.inf, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpectralField(np.array([]))

    def test_coefficients_immutable(self):
        x = basis_field(1, 4)
        with pytest.raises(ValueError):
            x.coeffs[0] = 2.0

    def test_source_array_not_aliased(self):
        a = np.array([1.0, 2.0])
        x = SpectralField(a)
        a[0] = 99.0
        assert x.coeffs[0] == 1.0

    def test_arithmetic(self):
        x = basis_field(1, 3)
        y = basis_field(2, 3)
        z = 2.0 * x + y - x
        assert np.allclose(z.coeffs, [1.0, 1.0, 0.0])


class TestNorms:
    def test_zero_field(self):
        z = zero_field(8)
        assert norm_h(z) == 0.0
        assert norm_v(z) == 0.0

    def test_unit_mode(self):
        x = basis_field(1, 4)
        assert norm_h(x) == 1.0
        assert norm_v(x) == pytest.approx(PI, rel=1e-15)

    def test_frozen_three_mode_field(self):
        # oracle: direct arithmetic on (1, 0.5, -0.25)
        x = SpectralField(np.array([1.0, 0.5, -0.25]))
        assert norm_h(x) == pytest.approx(1.14564392373896, rel=1e-14)
        assert norm_v(x) == pytest.approx(5.029002016085446, rel=1e-14)

    def test_mode_rates(self):
        r = mode_rates(3)
        assert np.allclose(r, [PI**2, 4 * PI**2, 9 * PI**2], rtol=1e-15)

    def test_inner_product(self):
        x = basis_field(2, 5)
        y = basis_field(2, 5)
        assert inner_h(x, y) == 1.0
        assert inner_h(x, basis_field(3, 5)) == 0.0

    def test_poincare_random_fields(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            x = random_field(16, rng)
            assert norm_v(x) >= PI * norm_h(x)

    def test_poincare_equality_only_mode_one(self):
        x = basis_field(1, 8) * 3.7
        assert norm_v(x) == pytest.approx(PI * norm_h(x), rel=1e-14)
        y = x + 0.1 * basis_field(2, 8)
        assert norm_v(y) > PI * norm_h(y) + 1e-3


class TestAdvectionTerm:
    def test_first_mode_maps_to_second(self):
        # quadrature oracle: B(e_1) has single coefficient pi/sqrt(2) on mode 2
        b = burgers_nonlinearity(basis_field(1, 8))
        expected = np.zeros(8)
        expected[1] = PI_OVER_SQRT2
        assert np.max(np.abs(b.coeffs - expected)) < 1e-10

    def test_frozen_three_mode_field(self):
        # quadrature oracle output for (1, 0.5, -0.25) padded into 6 modes
        a = np.zeros(6)
        a[:3] = [1.0, 0.5, -0.25]
        b = burgers_nonlinearity(SpectralField(a))
        expected = np.array([
            -0.8330405509046935,
            3.3321622036187755,
            3.3321622036187755,
            -1.1107207345395924,
            -1.3884009181744899,
            0.4165202754523467,
        ])
        assert np.max(np.abs(b.coeffs - expected)) < 1e-12

    def test_matches_quadrature_oracle_random(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4)
        full = np.zeros(8)
        full[:4] = a
        b = burgers_nonlinearity(SpectralField(full))
        for m in range(1, 9):
            ref = advection_coefficient_quadrature(a, m)
            assert b.coeffs[m - 1] == pytest.approx(ref, abs=1e-10)

    def test_energy_conservation(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            x = random_field(16, rng)
            b = burgers_nonlinearity(x)
            bound = 1e-10 * (1.0 + norm_h(x) ** 3)
            assert abs(inner_h(b, x)) <= bound

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(7)
        x = random_field(12, rng)
        b1 = burgers_nonlinearity(x)
        b2 = burgers_nonlinearity(3.0 * x)
        assert np.allclose(b2.coeffs, 9.0 * b1.coeffs, rtol=1e-12, atol=1e-12)

    def test_zero_fixed_point(self):
        b = burgers_nonlinearity(zero_field(6))
        assert np.all(b.coeffs == 0.0)

    def test_exact_and_dealiased_agree_small(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 16):
            a = rng.standard_normal(n)
            d = np.abs(_quadratic_exact(a) - _quadratic_dealiased(a))
            assert np.max(d) < 1e-10

    def test_gathered_matches_convolution(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 8, 16, 32, 64):
            a = rng.standard_normal((5, n))
            ref = np.array([_quadratic_exact(row) for row in a])
            scale = max(float(np.max(np.abs(ref))), 1.0)
            assert np.max(np.abs(_quadratic_gathered(a) - ref)) \
                <= 1e-14 * scale

    def test_rows_invariant_under_batch_size(self):
        # every route gives a row the same bits in any batch
        rng = np.random.default_rng(9)
        for n in (1, 2, 8, 16, 32, 64, 65):
            a = rng.standard_normal((100, n)) * 3.0
            full = _quadratic_term(a)
            assert full.shape == (100, n)
            for r in (1, 2, 7, 8, 9, 100):
                assert np.array_equal(_quadratic_term(a[:r]), full[:r]), \
                    (n, r)
                assert np.array_equal(_quadratic_term(a[r - 1]),
                                      full[r - 1]), (n, r)

    def test_exact_and_dealiased_agree_large(self):
        # the dispatch switches routes above 64 modes; both stay consistent
        rng = np.random.default_rng(4)
        a = rng.standard_normal(80)
        d = np.abs(_quadratic_exact(a) - _quadratic_dealiased(a))
        assert np.max(d) < 1e-9


class TestGridTransforms:
    def test_grid_excludes_endpoints(self):
        g = evaluate(basis_field(1, 2), 9)
        xi = g.grid()
        assert xi[0] > 0.0 and xi[-1] < 1.0
        assert len(xi) == 9

    def test_evaluate_single_mode(self):
        g = evaluate(basis_field(2, 4), 15)
        xi = g.grid()
        assert np.allclose(g.values, np.sqrt(2.0) * np.sin(2 * PI * xi),
                           atol=1e-13)

    def test_round_trip_well_resolved(self):
        rng = np.random.default_rng(9)
        x = random_field(10, rng)
        for m in (20, 33, 64):
            y = project(evaluate(x, m), 10)
            assert np.max(np.abs(y.coeffs - x.coeffs)) < 1e-12

    def test_projection_exact_on_resolved_polynomials(self):
        x = basis_field(3, 3)
        y = project(evaluate(x, 8), 3)
        assert np.max(np.abs(y.coeffs - x.coeffs)) < 1e-13

    def test_projection_needs_enough_points(self):
        g = evaluate(basis_field(1, 2), 3)
        with pytest.raises(ValueError):
            project(g, 5)

    def test_grid_quadrature_matches_h_norm(self):
        # discrete Parseval: mean of squared samples is exact at M >= 2N
        rng = np.random.default_rng(13)
        x = random_field(8, rng)
        g = evaluate(x, 16)
        quad_sq = np.sum(g.values ** 2) / (g.n_points + 1)
        assert quad_sq == pytest.approx(norm_h(x) ** 2, rel=1e-12)

    def test_grid_function_rejects_nan(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, np.nan]))


class TestHeatSemigroup:
    def test_identity_at_zero_time(self):
        rng = np.random.default_rng(2)
        x = random_field(6, rng)
        y = heat_semigroup(x, 0.0)
        assert np.array_equal(y.coeffs, x.coeffs)

    def test_single_step_decay(self):
        y = heat_semigroup(basis_field(1, 4), 1e-3)
        assert y.coeffs[0] == pytest.approx(0.9901789403074717, rel=1e-14)

    def test_unit_time_decay(self):
        y = heat_semigroup(basis_field(1, 1), 1.0)
        assert norm_h(y) == pytest.approx(5.172318620381234e-05, rel=1e-10)

    def test_semigroup_property(self):
        rng = np.random.default_rng(21)
        x = random_field(12, rng)
        y1 = heat_semigroup(heat_semigroup(x, 0.3), 0.2)
        y2 = heat_semigroup(x, 0.5)
        assert np.max(np.abs(y1.coeffs - y2.coeffs)) < 1e-12

    def test_contraction(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = random_field(10, rng)
            t = rng.uniform(0.0, 2.0)
            assert norm_h(heat_semigroup(x, t)) <= norm_h(x)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            heat_semigroup(basis_field(1, 2), -0.1)


class TestTailDiagnostic:
    def test_low_mode_field(self):
        assert tail_energy_fraction(basis_field(1, 8)) == 0.0

    def test_top_mode_field(self):
        assert tail_energy_fraction(basis_field(8, 8)) == 1.0

    def test_flat_spectrum(self):
        x = SpectralField(np.ones(8))
        assert tail_energy_fraction(x) == pytest.approx(0.25)

    def test_zero_field(self):
        assert tail_energy_fraction(zero_field(4)) == 0.0
