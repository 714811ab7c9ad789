"""Sine-basis spectral representation of velocity fields on (0, 1).

Fields live in L2(0, 1) with Dirichlet boundary conditions and are stored
as coefficients against the orthonormal basis e_k(xi) = sqrt(2) sin(k pi xi),
k = 1, 2, ...  In this basis the Laplacian is diagonal with rates
alpha_k = (pi k)^2, and the H / V norms are weighted coefficient sums:

    ||x||_H^2 = sum_k a_k^2
    ||x||_V^2 = sum_k (pi k)^2 a_k^2

norm_h_sq and norm_v_sq are the one implementation of each, on coefficient
arrays of shape (..., N) with one state per row, each row summed by itself.

The advection term B(x) = x * x' couples modes quadratically and is computed
exactly by the mode-coupling sum at every truncation size.  The integrator
evaluates B on a whole batch of states at once; both routes of the sum give
each row the same bits whatever the batch size and whatever its memory
layout, so an ensemble member does not depend on which rows it was stepped
with.

Every value class of the package is a record, a frozen class whose shared
methods the record decorator installs, so no code is generated at import,
and which compares by identity; the two compared by value, integrator's
BlowUp and JumpEvent, are named tuples.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "record",
    "replace",
    "SpectralField",
    "zero_field",
    "basis_field",
    "random_field",
    "mode_rates",
    "norm_h_sq",
    "norm_v_sq",
    "norm_h",
    "norm_v",
    "burgers_nonlinearity",
]

# Up to this truncation size a batch of states goes through one gathered
# coupling sum; above it each row takes the 1-D convolution.  On the
# mode-major state the integrator passes, the gathered sum costs about 2.5
# against 10 us per row at N = 32 and 100 rows; at N = 64 the two are about
# even, 14-15 against 13-18 us (2-CPU Xeon).  The two routes round
# differently, so moving the limit would change the output of every N
# between the old and new value.
GATHER_LIMIT = 32

_PI_OVER_SQRT2 = np.pi / np.sqrt(2.0)


# ------------------------------------------------------------------ records

_MISSING = object()


def _record_init(self, *args, **kwargs):
    cls = type(self)
    names = cls._fields
    if len(args) > len(names) or kwargs.keys() & names[:len(args)]:
        raise TypeError(f"{cls.__name__}() cannot bind {len(args)} "
                        f"positional and the keyword arguments {[*kwargs]} "
                        f"to the fields {names}")
    values = dict(zip(names, args), **kwargs)
    for name in names:
        value = values.pop(name, cls._defaults.get(name, _MISSING))
        if value is _MISSING:
            raise TypeError(f"{cls.__name__}() missing field {name!r}")
        self.__dict__[name] = value
    if values:
        raise TypeError(f"{cls.__name__}() got unknown fields {[*values]}")
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _record_frozen(self, name, value=None):
    raise AttributeError(f"cannot set or delete {name!r} of a frozen record")


def _record_repr(self):
    return f"{type(self).__qualname__}(" + ", ".join(
        f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


def record(cls):
    """Class decorator for a frozen record of the annotated fields.

    _fields names them in order; a class-level value is a default.  The
    shared __init__ binds arguments as a frozen dataclass does, then calls
    __post_init__, which may set a field with object.__setattr__.  The
    repr is Name(field=value, ...) unless the class defines one.  A record
    compares and hashes by identity.
    """
    cls._fields = tuple(cls.__annotations__)
    cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                     if name in cls.__dict__}
    cls.__init__ = _record_init
    cls.__setattr__ = cls.__delattr__ = _record_frozen
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _record_repr
    return cls


def replace(obj, **changes):
    """A copy of record obj with changed fields, checked again by __init__."""
    old = {name: getattr(obj, name) for name in obj._fields}
    return type(obj)(**{**old, **changes})


@record
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
        r = np.sqrt(norm_h_sq(a))
        if r == 0.0:
            raise ValueError("degenerate draw, cannot rescale")
        a *= float(norm) / r
    return SpectralField(a)


def mode_rates(n_modes: int) -> np.ndarray:
    """Dissipation rates alpha_k = (pi k)^2 for k = 1..N."""
    k = np.arange(1, int(n_modes) + 1, dtype=float)
    return (np.pi * k) ** 2


def norm_h_sq(a: np.ndarray) -> np.ndarray:
    """sum_k a_k^2 of each state along the last axis."""
    return np.sum(a ** 2, axis=-1)


def norm_v_sq(a: np.ndarray) -> np.ndarray:
    """sum_k (pi k)^2 a_k^2 of each state along the last axis, row by row."""
    return np.vecdot(a ** 2, mode_rates(a.shape[-1]))


def norm_h(x: SpectralField) -> float:
    """L2 norm, sqrt(sum a_k^2)."""
    return float(np.sqrt(norm_h_sq(x.coeffs)))


def norm_v(x: SpectralField) -> float:
    """Dirichlet norm, sqrt(sum (pi k)^2 a_k^2).  Always >= pi * norm_h."""
    return float(np.sqrt(norm_v_sq(x.coeffs)))


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


@lru_cache(maxsize=None)
def _coupling_tables(n: int):
    """Factor pairs and weights of the coupling sum.

    Mode m of B collects exactly n - 1 products: k a_j a_k for j + k = m and
    -m a_l a_{l+m}.  Row t, column m - 1 of the tables holds the t-th of
    them: pairs[0] and pairs[1] the 0-based indices of its two factors,
    weight its weight.
    """
    pairs = np.empty((2, n - 1, n), dtype=np.intp)
    weight = np.empty((n - 1, n))
    for m in range(1, n + 1):
        terms = [(j - 1, m - j - 1, m - j) for j in range(1, m)]
        terms += [(l - 1, l + m - 1, -m) for l in range(1, n - m + 1)]
        pairs[:, :, m - 1] = [[t[0] for t in terms], [t[1] for t in terms]]
        weight[:, m - 1] = [t[2] for t in terms]
    weight = weight[:, :, None]
    pairs.flags.writeable = weight.flags.writeable = False
    return pairs, weight


@lru_cache(maxsize=4)
def _batch_tables(n: int, width: int):
    """_coupling_tables(n) with the weights widened to (n - 1, n, width).

    numpy multiplies by a full-width table in one loop, and by the
    (n - 1, n, 1) table in one short loop per weight: 0.36 against 1.06
    us at N = 8 and 21 rows (2-CPU EPYC), with the same bits.  Every
    width, 1 included, gets its own read-only copy, half the size of the
    factors one call at that width gathers.
    """
    pairs, weight = _coupling_tables(n)
    weight = np.repeat(weight, width, axis=2)
    weight.flags.writeable = False
    return pairs, weight


def _quadratic_gathered(a: np.ndarray) -> np.ndarray:
    """The exact coupling sum for a batch of states, shape (R, N).

    The factors are gathered by one take from the mode-major copy of a,
    shape (N, R), which is a itself when a is the transposed view of a
    C-contiguous (N, R) array, as the integrator passes it.  The weights
    come at width R, from _batch_tables.  Each output element is a sum of
    n - 1 weighted products added in a fixed order along the leading axis
    of the gathered array, so a row's result does not depend on R, on the
    other rows or on the layout of a; at N = 1 the sum is empty and gives
    +0.0.  The result is the transposed view of a C-contiguous (N, R)
    array.
    """
    width, n = a.shape
    pairs, weight = _batch_tables(n, width)
    g = np.ascontiguousarray(a.T).take(pairs, axis=0)   # (2, n - 1, n, R)
    terms = g[0]
    terms *= g[1]
    terms *= weight
    out = np.add.reduce(terms, axis=0)
    out *= _PI_OVER_SQRT2
    return out.T


def _quadratic_term(a: np.ndarray) -> np.ndarray:
    """B on each state of a, shape (..., N), row by row.

    The route depends on N only; each row gets the same bits whatever the
    other rows.  A batch (R, N) goes in as it is, any other shape as its
    rows (-1, N).
    """
    rows = a if a.ndim == 2 else a.reshape(-1, a.shape[-1])
    n = rows.shape[1]
    if n <= GATHER_LIMIT:
        out = _quadratic_gathered(rows)
    else:
        out = np.array([_quadratic_exact(row) for row in rows])
    return out if a.ndim == 2 else out.reshape(a.shape)


def burgers_nonlinearity(x: SpectralField) -> SpectralField:
    """Galerkin projection of the advection term B(x) = x * x'.

    The result is orthogonal to x (energy conserving) and scales
    quadratically, B(c x) = c^2 B(x).
    """
    return SpectralField(_quadratic_term(x.coeffs))
