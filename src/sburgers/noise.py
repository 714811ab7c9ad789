"""Forcing specifications: diagonal Brownian noise and compensated jumps.

The Gaussian part is a Q-Wiener process acting diagonally on the sine modes
with per-mode amplitudes beta_k, so ||Q||_HS^2 = sum beta_k^2.  The jump part
is a compound Poisson process on the positive half line: events arrive at a
constant intensity, carry i.i.d. positive marks u, and displace the state by
f(x, u) = G(x) u for a direction map G.  Compensation subtracts the drift
intensity * E[u] * G(x) so the jump forcing is centred.

Admissibility of a jump specification is summarised by three constants:

    M        = sup_x  integral ||f(x,u)||^2          n(du)
    M_lambda = sup_x  integral ||f(x,u)||^2 e^(lambda ||f(x,u)||) n(du)
    a0_max   = largest exponential tilt with M_lambda finite

where n(du) = intensity * F(du).  Every direction map declares its sup
norm, so these are evaluated in closed form from the mark law.  Direction
maps act on coefficient arrays of shape (..., N), one state per row.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import SpectralField, norm_h, norm_h_sq

__all__ = [
    "DivergentMomentError",
    "ExponentialMarks",
    "DeterministicMarks",
    "ConstantDirection",
    "SaturatedDirection",
    "GaussianSpec",
    "JumpSpec",
    "HypothesisReport",
    "sample_jump_times",
    "hypothesis_constants",
]

_LAGUERRE_NODES = 80


class DivergentMomentError(ValueError):
    """Requested exponential tilt makes the mark moment integral infinite."""


@lru_cache(maxsize=None)
def _laguerre_rule():
    """Read-only Gauss-Laguerre (nodes, weights) for the weight e^(-s).

    Built once per process: the Lyapunov checks ask for it at every state.
    numpy.polynomial is imported here, not with the module, because only
    jump-mark quadrature needs it and most commands never build the rule.
    """
    from numpy.polynomial.laguerre import laggauss

    s, w = laggauss(_LAGUERRE_NODES)
    s.flags.writeable = w.flags.writeable = False
    return s, w


# ----------------------------------------------------------------- mark laws

@dataclass(frozen=True, eq=False)
class ExponentialMarks:
    """Exponential mark law with density rate * exp(-rate * u) on (0, inf)."""

    rate: float = 2.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def second_moment(self) -> float:
        return 2.0 / self.rate ** 2

    @property
    def tilt_limit(self) -> float:
        """Supremum of tilts a with integral u^2 e^(a u) F(du) finite."""
        return self.rate

    def tilted_second_moment(self, a: float) -> float:
        """integral u^2 e^(a u) F(du); 2 rate / (rate - a)^3 for a < rate."""
        if a > self.rate:
            raise DivergentMomentError(
                f"tilt {a} exceeds exponential rate {self.rate}")
        if a == self.rate:
            return math.inf
        return 2.0 * self.rate / (self.rate - a) ** 3

    def sample(self, rng: np.random.Generator) -> float:
        return rng.exponential(1.0 / self.rate)

    def quadrature(self):
        """(nodes, weights) with sum w_i g(u_i) ~ E[g(u)]."""
        s, w = _laguerre_rule()
        return s / self.rate, w


@dataclass(frozen=True, eq=False)
class DeterministicMarks:
    """Point mass at a fixed positive mark size."""

    value: float = 1.0

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("mark value must be positive")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def second_moment(self) -> float:
        return self.value ** 2

    @property
    def tilt_limit(self) -> float:
        return math.inf

    def tilted_second_moment(self, a: float) -> float:
        return self.value ** 2 * math.exp(a * self.value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def quadrature(self):
        return np.array([self.value]), np.array([1.0])


# ------------------------------------------------------------ direction maps

@dataclass(frozen=True, eq=False)
class ConstantDirection:
    """State-independent jump direction G(x) = g0."""

    g0: SpectralField

    @property
    def sup_norm(self) -> float:
        return norm_h(self.g0)

    @property
    def state_independent(self) -> bool:
        return True

    def field_at(self, coeffs: np.ndarray) -> np.ndarray:
        """G at each state of coeffs, shape (..., N); a read-only view."""
        return np.broadcast_to(self.g0.coeffs, np.shape(coeffs))


@dataclass(frozen=True, eq=False)
class SaturatedDirection:
    """Jump direction that switches on with the state size.

    G(x) = amplitude * tanh(||x||_H) * unit(g0).  The sup norm equals the
    amplitude and tanh makes the map Lipschitz with the same constant.
    """

    g0: SpectralField
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if norm_h(self.g0) == 0.0:
            raise ValueError("direction field must be nonzero")

    @property
    def sup_norm(self) -> float:
        return self.amplitude

    @property
    def state_independent(self) -> bool:
        return False

    def field_at(self, coeffs: np.ndarray) -> np.ndarray:
        """G at each state of coeffs, shape (..., N)."""
        unit = self.g0.coeffs / norm_h(self.g0)
        r = np.sqrt(norm_h_sq(coeffs))[..., None]
        return self.amplitude * np.tanh(r) * unit


# -------------------------------------------------------------------- specs

@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Diagonal Q-Wiener amplitudes, one beta per sine mode."""

    betas: np.ndarray

    def __post_init__(self):
        arr = np.array(self.betas, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("betas must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("betas must be finite and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "betas", arr)

    @property
    def n_modes(self) -> int:
        return self.betas.size

    @property
    def hs_norm_sq(self) -> float:
        """Squared Hilbert-Schmidt norm, sum beta_k^2."""
        return float(norm_h_sq(self.betas))

    @classmethod
    def power_decay(cls, n_modes: int, amplitude: float = 1.0,
                    exponent: float = 1.0,
                    normalize_to: float | None = None) -> "GaussianSpec":
        """beta_k = amplitude * k^(-exponent), optionally rescaled so the
        squared HS norm of the truncation equals normalize_to."""
        k = np.arange(1, int(n_modes) + 1, dtype=float)
        betas = amplitude * k ** (-float(exponent))
        if normalize_to is not None:
            betas *= np.sqrt(float(normalize_to) / norm_h_sq(betas))
        return cls(betas)


@dataclass(frozen=True, eq=False)
class JumpSpec:
    """Compound Poisson forcing: intensity, mark law, direction map."""

    intensity: float
    marks: object
    direction: object

    def __post_init__(self):
        if not self.intensity >= 0:
            raise ValueError("intensity must be nonnegative")

    @property
    def compensator_coefficient(self) -> float:
        """c with centring drift c G(x), c = -intensity * E[u]."""
        return -self.intensity * self.marks.mean


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Admissibility constants of a jump spec at a given tilt."""

    lam: float
    m_est: float
    m_lambda_est: float
    a0_max: float


# ---------------------------------------------------------------- operations

def sample_jump_times(spec: JumpSpec, t_end: float,
                      rng: np.random.Generator) -> list:
    """Sorted (time, mark) events of the compound Poisson process on (0, T]."""
    if t_end < 0:
        raise ValueError("horizon must be nonnegative")
    events = []
    if spec.intensity == 0.0 or t_end == 0.0:
        return events
    t = rng.exponential(1.0 / spec.intensity)
    while t <= t_end:
        events.append((float(t), float(spec.marks.sample(rng))))
        t += rng.exponential(1.0 / spec.intensity)
    return events


def hypothesis_constants(spec: JumpSpec, lam: float) -> HypothesisReport:
    """Evaluate the admissibility constants M, M_lambda, a0_max in closed form.

    Raises DivergentMomentError when lam exceeds a0_max; at lam == a0_max
    the moment is reported as inf (the tilt boundary itself diverges).
    """
    if lam < 0:
        raise ValueError("tilt must be nonnegative")
    sup = spec.direction.sup_norm
    if sup == 0.0:
        return HypothesisReport(lam, 0.0, 0.0, math.inf)
    a0_max = spec.marks.tilt_limit / sup
    if lam > a0_max:
        raise DivergentMomentError(
            f"tilt {lam} exceeds admissible maximum {a0_max}")
    m_est = spec.intensity * sup ** 2 * spec.marks.second_moment
    m_lambda = spec.intensity * sup ** 2 * spec.marks.tilted_second_moment(
        lam * sup)
    return HypothesisReport(lam, m_est, m_lambda, a0_max)
