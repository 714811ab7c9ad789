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

import numpy as np

from .spectral import SpectralField, norm_h, norm_h_sq, record

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


class DivergentMomentError(ValueError):
    """Requested exponential tilt makes the mark moment integral infinite."""


# The 80-node Gauss-Laguerre rule for the weight e^(-s), as numpy 2.4's
# numpy.polynomial.laguerre.laggauss(80) returns it; each repr reads back
# to the same double.  Stored, so no run imports numpy.polynomial.
_LAGUERRE_S = np.array([
    0.017960423300698764, 0.09463991299435527, 0.23262286812586708,
    0.4319925478023864, 0.6928288613520233, 1.0152325561894728,
    1.399327687842873, 1.8452623038358438, 2.35320887160926,
    2.9233646865554235, 3.5559523140461344, 4.251220082309879,
    5.009442633620167, 5.83092153860872, 6.715985977851317, 7.664993494891771,
    8.678330825167702, 9.756414805742928, 10.899693371287857, 12.1086466423657,
    13.38378811277865, 14.725665943508586, 16.134864371662463,
    17.612005243814437, 19.157749684241246, 20.772799909792095,
    22.45790120454046, 24.213844068958647, 26.041466560165585,
    27.941656841859466, 29.915355964900986, 31.963560902208922,
    34.08732786472619, 36.28777592878146, 38.56609100929221, 40.92353021803127,
    43.36142665173123, 45.88119466127889, 48.48433566083319, 51.17244454460701,
    53.947216789554446, 56.81045633463622, 59.76408434210995,
    62.81014896392648, 65.95083625745606, 69.18848242023628, 72.52558754426335,
    75.96483112786417, 79.50908962908883, 83.16145640105368, 86.92526441961563,
    90.80411230094076, 94.80189421594743, 98.92283444694058,
    103.17152750803913, 107.55298497753991, 112.07269048412833,
    116.73666467350367, 121.55154249095263, 126.52466579651554,
    131.66419525212032, 136.97924668693696, 142.4800589121616,
    148.17820245500445, 154.0868422817987, 160.22107287009572,
    166.5983519340539, 173.2390713342495, 180.16732304903232,
    187.41194967696376, 195.008022441533, 202.99898419507494,
    211.43987049483647, 220.40236815173574, 229.98320607568002,
    240.31908705584155, 251.6158793304996, 264.2138238831991,
    278.76673304600456, 296.96651199565133])
_LAGUERRE_W = np.array([
    0.04527264146395247, 0.09762269112932154, 0.13365852798022457,
    0.14937645827099102, 0.1458470697866428, 0.12798046766668916,
    0.1024036487354896, 0.07534405733665779, 0.051240835821070696,
    0.03232313847901667, 0.018956660110989558, 0.010353138932157023,
    0.005271604749709369, 0.0025045007398194655, 0.0011108140479286605,
    0.0004600990406308228, 0.0001780042731965771, 6.432830518178614e-05,
    2.1714152386663905e-05, 6.845242206830922e-06, 2.0148387768655324e-06,
    5.535609610831653e-07, 1.4190662350228946e-07, 3.392831988607063e-08,
    7.56185219424216e-09, 1.5702103797212206e-09, 3.035871915126479e-10,
    5.4614960265658366e-11, 9.135311740308789e-12, 1.4196250412937385e-12,
    2.0478152050920357e-13, 2.7395267234973248e-14, 3.3954734164380864e-15,
    3.8950030226443476e-16, 4.130565233563056e-17, 4.044680502474581e-18,
    3.6523826707212885e-19, 3.0373390214301314e-20, 2.3227574806662557e-21,
    1.6309293123769908e-22, 1.0497107364508599e-23, 6.182186966675141e-25,
    3.3253390304936897e-26, 1.630342132735912e-27, 7.270062437157614e-29,
    2.9418210595489328e-30, 1.0775663295034782e-31, 3.563481445489864e-33,
    1.0609024804181452e-34, 2.8347893331019035e-36, 6.776115313754299e-38,
    1.4438133638967676e-39, 2.731741961972704e-41, 4.5703808506251925e-43,
    6.730935903215193e-45, 8.682714845388205e-47, 9.757446766499816e-49,
    9.495766136505765e-51, 7.950337241364536e-53, 5.685225221222371e-55,
    3.4443689191525324e-57, 1.7520838300615606e-59, 7.407727961984492e-62,
    2.573539825661704e-64, 7.251705681225728e-67, 1.632805201633855e-69,
    2.887512289470132e-72, 3.9306497186698103e-75, 4.0218963695445515e-78,
    3.006565668154469e-81, 1.5862629302777217e-84, 5.659398442042708e-88,
    1.2934555058729212e-91, 1.7649977712532224e-95, 1.3078621805546895e-99,
    4.603864195240565e-104, 6.298035646899634e-109, 2.4056926530318085e-114,
    1.3648444753370219e-120, 2.2905062537188078e-128])
_LAGUERRE_S.flags.writeable = _LAGUERRE_W.flags.writeable = False


def _laguerre_rule():
    """Read-only Gauss-Laguerre (nodes, weights) for the weight e^(-s)."""
    return _LAGUERRE_S, _LAGUERRE_W


# ----------------------------------------------------------------- mark laws
#
# A moment keeps its closed form wherever that is finite.  Where a factor
# of it leaves the double range, the same moment is taken in steps that
# underflow to 0 or overflow to inf, and a moment that is inf then is
# beyond the range: ValueError names the config field that put it there.

def _in_range(moment: float, field: str, what: str) -> float:
    if math.isinf(moment):
        raise ValueError(f"{field}: {what} is beyond the double range")
    return moment


def _exp(x: float) -> float:
    """e^x, inf beyond the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@record
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
        try:
            m = 2.0 / self.rate ** 2
        except (OverflowError, ZeroDivisionError):    # rate^2 out of range
            m = 2.0 / self.rate / self.rate
        return _in_range(m, "jump.marks.rate", f"the second moment "
                         f"2 / rate^2 of mark rate {self.rate}")

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
        d = self.rate - a
        try:
            m = 2.0 * self.rate / d ** 3
        except (OverflowError, ZeroDivisionError):    # d^3 out of range
            m = 2.0 / d * (self.rate / d) / d
        return _in_range(m, "experiment.lam", f"the tilted second moment "
                         f"of mark rate {self.rate} at tilt {a}")

    def sample(self, rng: np.random.Generator) -> float:
        return rng.exponential(1.0 / self.rate)

    def quadrature(self):
        """(nodes, weights) with sum w_i g(u_i) ~ E[g(u)]."""
        s, w = _laguerre_rule()
        return s / self.rate, w


@record
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
        try:
            m = self.value ** 2
        except OverflowError:
            m = math.inf
        return _in_range(m, "jump.marks.value", f"the second moment "
                         f"value^2 of mark value {self.value}")

    @property
    def tilt_limit(self) -> float:
        return math.inf

    def tilted_second_moment(self, a: float) -> float:
        try:
            m = self.value ** 2 * math.exp(a * self.value)
        except OverflowError:           # value^2 or e^(a value) overflows
            m = _exp(a * self.value + 2.0 * math.log(self.value))
        return _in_range(m, "experiment.lam", f"the tilted second moment "
                         f"of mark value {self.value} at tilt {a}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def quadrature(self):
        return np.array([self.value]), np.array([1.0])


# ------------------------------------------------------------ direction maps

def _norm_h(g0: SpectralField) -> float:
    """norm_h(g0) wherever it is finite.  Where its square overflows, the
    norm is taken scaled by the largest |coefficient|, and a norm that is
    inf then is beyond the double range."""
    with np.errstate(over="ignore"):
        norm = norm_h(g0)
    if math.isinf(norm):
        top = float(np.abs(g0.coeffs).max())
        norm = _in_range(top * float(np.sqrt(norm_h_sq(g0.coeffs / top))),
                         "jump.direction", "the H norm of the direction "
                         "field")
    return norm


@record
class ConstantDirection:
    """State-independent jump direction G(x) = g0."""

    g0: SpectralField

    @property
    def sup_norm(self) -> float:
        return _norm_h(self.g0)

    @property
    def state_independent(self) -> bool:
        return True

    def field_at(self, coeffs: np.ndarray) -> np.ndarray:
        """G at each state of coeffs, shape (..., N); a read-only view."""
        return np.broadcast_to(self.g0.coeffs, np.shape(coeffs))


@record
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
        norm = _norm_h(self.g0)
        if norm == 0.0:
            raise ValueError("direction field must be nonzero")
        # unit(g0), which field_at reads; not a field
        object.__setattr__(self, "_unit", self.g0.coeffs / norm)

    @property
    def sup_norm(self) -> float:
        return self.amplitude

    @property
    def state_independent(self) -> bool:
        return False

    def field_at(self, coeffs: np.ndarray) -> np.ndarray:
        """G at each state of coeffs, shape (..., N)."""
        r = np.sqrt(norm_h_sq(coeffs))[..., None]
        return self.amplitude * np.tanh(r) * self._unit


# -------------------------------------------------------------------- specs

@record
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


@record
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


@record
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


def hypothesis_constants(spec: JumpSpec | None,
                         lam: float) -> HypothesisReport:
    """Evaluate the admissibility constants M, M_lambda, a0_max in closed form.

    No jump forcing (spec None) or a zero direction gives M = M_lambda = 0
    and a0_max = inf.  Raises DivergentMomentError when lam exceeds a0_max;
    at lam == a0_max the moment is reported as inf (the tilt boundary
    itself diverges).
    """
    if lam < 0:
        raise ValueError("tilt must be nonnegative")
    sup = 0.0 if spec is None else spec.direction.sup_norm
    if sup == 0.0:
        return HypothesisReport(lam, 0.0, 0.0, math.inf)
    a0_max = spec.marks.tilt_limit / sup
    if lam > a0_max:
        raise DivergentMomentError(
            f"tilt {lam} exceeds admissible maximum {a0_max}")
    m_est = _times_sup_sq(spec.intensity, sup, spec.marks.second_moment)
    m_lambda = _times_sup_sq(spec.intensity, sup,
                             spec.marks.tilted_second_moment(lam * sup))
    return HypothesisReport(lam, m_est, m_lambda, a0_max)


def _times_sup_sq(intensity: float, sup: float, moment: float) -> float:
    """intensity sup^2 moment, taken in steps where sup^2 overflows: inf
    beyond the double range, as the product's own overflow gives."""
    try:
        return intensity * sup ** 2 * moment
    except OverflowError:
        return intensity * sup * sup * moment
