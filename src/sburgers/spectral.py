"""Sine-basis spectral representation of velocity fields on (0, 1).

Fields live in L2(0, 1) with Dirichlet boundary conditions and are stored
as coefficients against the orthonormal basis e_k(xi) = sqrt(2) sin(k pi xi),
k = 1, 2, ...  In this basis the Laplacian is diagonal with rates
alpha_k = (pi k)^2, so the heat semigroup is a per-mode exponential damping
and the H / V norms are weighted coefficient sums:

    ||x||_H^2 = sum_k a_k^2
    ||x||_V^2 = sum_k (pi k)^2 a_k^2

The advection term B(x) = x * x' couples modes quadratically.  For small
truncations it is computed by the exact mode-coupling sum; for large ones by
a dealiased collocation product on a zero-padded grid.  Both routes agree to
roundoff, which the test suite checks explicitly.  The integrator evaluates
B on a whole batch of states at once; every route gives each row the same
bits whatever the batch size, so an ensemble member does not depend on
which rows it was stepped with.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dst, dct

__all__ = [
    "SpectralField",
    "GridFunction",
    "zero_field",
    "basis_field",
    "random_field",
    "mode_rates",
    "norm_h",
    "norm_v",
    "inner_h",
    "burgers_nonlinearity",
    "evaluate",
    "project",
    "heat_semigroup",
    "tail_energy_fraction",
]

# Up to this truncation size a batch of states goes through one gathered
# coupling sum; above it each row takes the 1-D convolution, which is faster
# per row there (about 4 against 13 us per row at N = 32 and 100 rows, 23
# against 18 us at N = 64, on a 2-CPU Xeon).
GATHER_LIMIT = 32
# Above this truncation size the O(N^2) coupling sum loses to the FFT route.
EXACT_CONVOLUTION_LIMIT = 64

_PI_OVER_SQRT2 = np.pi / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable vector of sine coefficients (a_1, ..., a_N)."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("invalid field: non-finite coefficient")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    def __add__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.n_modes != self.n_modes:
            raise ValueError("mode count mismatch")
        return SpectralField(self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.n_modes != self.n_modes:
            raise ValueError("mode count mismatch")
        return SpectralField(self.coeffs - other.coeffs)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return SpectralField(self.coeffs * float(c))

    __rmul__ = __mul__

    def __repr__(self):
        return (f"SpectralField(n_modes={self.n_modes}, "
                f"norm_h={norm_h(self):.6g})")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Point values on the interior collocation grid xi_j = j / (M + 1)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("invalid grid function: non-finite value")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_points(self) -> int:
        return self.values.size

    def grid(self) -> np.ndarray:
        m = self.n_points
        return np.arange(1, m + 1) / (m + 1)


def zero_field(n_modes: int) -> SpectralField:
    """The zero element of the truncated space."""
    return SpectralField(np.zeros(int(n_modes)))


def basis_field(k: int, n_modes: int) -> SpectralField:
    """Unit basis field e_k inside an N-mode truncation (1-based k)."""
    if not 1 <= k <= n_modes:
        raise ValueError(f"mode index {k} outside 1..{n_modes}")
    a = np.zeros(int(n_modes))
    a[k - 1] = 1.0
    return SpectralField(a)


def random_field(n_modes: int, rng: np.random.Generator,
                 norm: float | None = None) -> SpectralField:
    """Gaussian random coefficients, optionally rescaled to a target H norm."""
    a = rng.standard_normal(int(n_modes))
    if norm is not None:
        r = np.sqrt(np.sum(a * a))
        if r == 0.0:
            raise ValueError("degenerate draw, cannot rescale")
        a *= float(norm) / r
    return SpectralField(a)


def mode_rates(n_modes: int) -> np.ndarray:
    """Dissipation rates alpha_k = (pi k)^2 for k = 1..N."""
    k = np.arange(1, int(n_modes) + 1, dtype=float)
    return (np.pi * k) ** 2


def norm_h(x: SpectralField) -> float:
    """L2 norm, sqrt(sum a_k^2)."""
    return float(np.sqrt(np.sum(x.coeffs ** 2)))


def norm_v(x: SpectralField) -> float:
    """Dirichlet norm, sqrt(sum (pi k)^2 a_k^2).  Always >= pi * norm_h."""
    return float(np.sqrt(np.sum(mode_rates(x.n_modes) * x.coeffs ** 2)))


def inner_h(x: SpectralField, y: SpectralField) -> float:
    """L2 inner product of two fields on the same truncation."""
    if x.n_modes != y.n_modes:
        raise ValueError("mode count mismatch")
    return float(np.dot(x.coeffs, y.coeffs))


def _quadratic_exact(a: np.ndarray) -> np.ndarray:
    """Exact Galerkin projection of x*x' via the mode-coupling sum.

    Coefficient m of x*x' equals
        (pi / sqrt 2) * [ sum_{j+k=m} k a_j a_k  -  m sum_l a_l a_{l+m} ],
    derived from the product-to-sum identity for sin(j pi xi) cos(k pi xi).
    """
    n = a.size
    k = np.arange(1, n + 1, dtype=float)
    out = np.zeros(n)
    if n >= 2:
        conv = np.convolve(k * a, a)          # entry i belongs to mode i + 2
        out[1:] = conv[:n - 1]
    auto = np.correlate(a, a, mode="full")    # entry n-1+m is sum_l a_l a_{l+m}
    lagged = np.zeros(n)
    lagged[:n - 1] = auto[n:]
    return _PI_OVER_SQRT2 * (out - k * lagged)


def _evaluate_array(a: np.ndarray, m: int) -> np.ndarray:
    """Values of the field on the interior grid of m points."""
    n = a.size
    if m >= n:
        c = np.zeros(m)
        c[:n] = a / np.sqrt(2.0)
        return dst(c, type=1)
    # coarse grid, fall back to the literal sine sum
    xi = np.arange(1, m + 1) / (m + 1)
    k = np.arange(1, n + 1)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(xi, k)) @ a


def _project_array(g: np.ndarray, n_modes: int) -> np.ndarray:
    """First n_modes sine coefficients of grid data (exact up to degree M)."""
    m = g.size
    if n_modes > m:
        raise ValueError("cannot project onto more modes than grid points")
    coef = dst(g, type=1) / (np.sqrt(2.0) * (m + 1))
    return coef[:n_modes].copy()


def _derivative_on_grid(a: np.ndarray, m: int) -> np.ndarray:
    """Values of x' on the interior grid, via a cosine transform."""
    n = a.size
    k = np.arange(1, n + 1, dtype=float)
    if m >= n:
        c = np.zeros(m + 2)
        c[1:n + 1] = a * k * np.pi / np.sqrt(2.0)
        return dct(c, type=1)[1:m + 1]
    xi = np.arange(1, m + 1) / (m + 1)
    return np.sqrt(2.0) * np.pi * (np.cos(np.pi * np.outer(xi, k)) * k) @ a


def _quadratic_dealiased(a: np.ndarray) -> np.ndarray:
    """Collocation product on a zero-padded grid, alias-free for M >= 2N."""
    n = a.size
    m = 2 * n
    g = _evaluate_array(a, m) * _derivative_on_grid(a, m)
    return _project_array(g, n)


@lru_cache(maxsize=None)
def _coupling_tables(n: int):
    """Flat outer-product indices and weights of the coupling sum.

    Mode m of B collects exactly n - 1 products: k a_j a_k for j + k = m and
    -m a_l a_{l+m}.  Row t, column m - 1 of the tables holds the t-th of
    them as an index into the flattened outer product a a^T and its weight.
    """
    index = np.empty((n - 1, n), dtype=np.intp)
    weight = np.empty((n - 1, n))
    for m in range(1, n + 1):
        terms = [((j - 1) * n + (m - j - 1), m - j) for j in range(1, m)]
        terms += [((l - 1) * n + (l + m - 1), -m)
                  for l in range(1, n - m + 1)]
        index[:, m - 1] = [i for i, _ in terms]
        weight[:, m - 1] = [w for _, w in terms]
    weight = weight[:, :, None]
    index.flags.writeable = weight.flags.writeable = False
    return index, weight


def _quadratic_gathered(a: np.ndarray) -> np.ndarray:
    """The exact coupling sum for a batch of states, shape (R, N).

    Each output element is a sum of n - 1 weighted products added in a
    fixed order along the leading axis of the gathered array, so a row's
    result does not depend on R or on the other rows.
    """
    r, n = a.shape
    if n == 1:
        return np.zeros((r, 1))
    index, weight = _coupling_tables(n)
    at = a.T
    outer = (at[:, None, :] * at[None, :, :]).reshape(n * n, r)
    terms = outer[index]                       # (n - 1, n, R)
    terms *= weight
    return _PI_OVER_SQRT2 * np.add.reduce(terms, axis=0).T


def _quadratic_term(a: np.ndarray) -> np.ndarray:
    """B on one state (N,) or on a batch of states (R, N), row by row.

    The route depends on N only; each row gets the same bits whatever R.
    """
    rows = a if a.ndim == 2 else a[None, :]
    n = rows.shape[1]
    if n <= GATHER_LIMIT:
        out = _quadratic_gathered(rows)
    else:
        one = _quadratic_exact if n <= EXACT_CONVOLUTION_LIMIT \
            else _quadratic_dealiased
        out = np.array([one(row) for row in rows])
    return out if a.ndim == 2 else out[0]


def burgers_nonlinearity(x: SpectralField) -> SpectralField:
    """Galerkin projection of the advection term B(x) = x * x'.

    The result is orthogonal to x (energy conserving) and scales
    quadratically, B(c x) = c^2 B(x).
    """
    return SpectralField(_quadratic_term(x.coeffs))


def evaluate(x: SpectralField, m: int) -> GridFunction:
    """Sample the field at the m interior collocation points."""
    if m < 1:
        raise ValueError("need at least one grid point")
    return GridFunction(_evaluate_array(x.coeffs, int(m)))


def project(g: GridFunction, n_modes: int) -> SpectralField:
    """Discrete sine projection of grid data onto the first n_modes modes.

    Exact for trigonometric polynomials of degree <= M, so
    project(evaluate(x, M), N) == x whenever M >= N.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return SpectralField(_project_array(g.values, int(n_modes)))


def heat_semigroup(x: SpectralField, t: float) -> SpectralField:
    """Apply S(t): damp mode k by exp(-(pi k)^2 t).  Contraction for t >= 0."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    return SpectralField(x.coeffs * np.exp(-mode_rates(x.n_modes) * float(t)))


def tail_energy_fraction(x: SpectralField, top_fraction: float = 0.25) -> float:
    """Share of H energy carried by the top fraction of modes.

    A resolution diagnostic: values near zero mean the truncation resolves
    the field, values near one mean energy is piling up at the grid cutoff.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must lie in (0, 1]")
    total = float(np.sum(x.coeffs ** 2))
    if total == 0.0:
        return 0.0
    n_top = max(1, int(np.ceil(top_fraction * x.n_modes)))
    return float(np.sum(x.coeffs[-n_top:] ** 2)) / total
