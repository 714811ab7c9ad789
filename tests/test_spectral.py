"""Spectral core: norms, advection projection, resolution diagnostic.

Frozen expected values for the advection term come from an independent
adaptive-quadrature oracle (scipy.integrate.quad of x * x' * e_m over (0,1),
see tests/oracles.py), run once and pinned here.
"""

import numpy as np
import pytest

from sburgers.spectral import (
    SpectralField,
    zero_field,
    basis_field,
    random_field,
    mode_rates,
    norm_h,
    norm_v,
    burgers_nonlinearity,
    _batch_tables,
    _coupling_tables,
    _quadratic_exact,
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
        # above GATHER_LIMIT: modes 5, 33 and 38 of 80 couple into the sums
        # and differences 5, 10, 28, ..., 76; modes 1 and 80 stay zero
        wide = np.zeros(80)
        wide[[4, 32, 37]] = rng.standard_normal(3)
        b = burgers_nonlinearity(SpectralField(wide))
        for m in (1, 5, 10, 28, 33, 38, 43, 66, 71, 76, 80):
            ref = advection_coefficient_quadrature(wide, m)
            assert b.coeffs[m - 1] == pytest.approx(ref, abs=1e-10)

    def test_energy_conservation(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            x = random_field(16, rng)
            b = burgers_nonlinearity(x)
            bound = 1e-10 * (1.0 + norm_h(x) ** 3)
            assert abs(np.dot(b.coeffs, x.coeffs)) <= bound

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(7)
        x = random_field(12, rng)
        b1 = burgers_nonlinearity(x)
        b2 = burgers_nonlinearity(3.0 * x)
        assert np.allclose(b2.coeffs, 9.0 * b1.coeffs, rtol=1e-12, atol=1e-12)

    def test_zero_fixed_point(self):
        b = burgers_nonlinearity(zero_field(6))
        assert np.all(b.coeffs == 0.0)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 32, 33])
    def test_transposed_view_gives_the_same_bits(self, n):
        # the integrator passes the transposed view of its mode-major
        # (N, R) state; a row's result must not depend on that layout
        rng = np.random.default_rng(10 + n)
        for r in (1, 2, 21, 100):
            m = rng.standard_normal((n, r)) * 3.0
            ref = _quadratic_term(np.ascontiguousarray(m.T))
            assert _quadratic_term(m.T).tobytes() == ref.tobytes(), (n, r)
            for i in range(r):
                assert _quadratic_term(m[:, i]).tobytes() \
                    == ref[i].tobytes(), (n, r, i)
            m.flags.writeable = False
            assert _quadratic_term(m.T).tobytes() == ref.tobytes(), (n, r)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_batch_tables_widen_the_narrow_table(self, n):
        # the weights at a batch's width are the narrow table repeated
        # along the rows, read-only, and width 1 is the narrow table itself
        pairs, narrow = _coupling_tables(n)
        assert narrow.shape == (n - 1, n, 1)
        for width in (1, 2, 21, 101):
            wide_pairs, weight = _batch_tables(n, width)
            assert wide_pairs is pairs
            assert weight.shape == (n - 1, n, width)
            assert weight.flags.c_contiguous and not weight.flags.writeable
            assert np.array_equal(weight, np.broadcast_to(narrow,
                                                          weight.shape))
            if width == 1:
                assert weight is narrow
            elif n > 1:
                with pytest.raises(ValueError, match="read-only"):
                    weight[0, 0, 0] = 0.0
        assert _batch_tables.cache_info().maxsize is not None
