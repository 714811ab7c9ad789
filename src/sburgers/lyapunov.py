"""Lyapunov calculus, drift inequalities, exponential martingale bounds.

Every function here is array-first: it takes coefficient arrays a of shape
(..., N), one state per row, and returns one value (or one (N,) vector) per
state.  A SpectralField x is passed as x.coeffs.  No state's result depends
on the other rows of the block.

The workhorse function is psi(x) = (1 + ||x||_H^2)^(1/2).  Its gradient and
Hessian are globally bounded by 1 in operator norm, the Dirichlet form term
<Laplacian x, grad psi> equals -||x||_V^2 / psi, and the forcing enters only
through two constants: the squared HS norm of the Gaussian amplitudes and
the jump second moment M.  The generator is evaluated through grad_psi and
hess_psi_apply, the functions the tests check against finite differences:
the trace term from the Hessian diagonal <Hess psi e_k, e_k>, the jump
remainder from the gradient.  Together they give the generator bound

    L psi(x) <= -(1 + ||x||_V^2)^(1/2) + c1,
    c1 = 1 + (||Q||_HS^2 + M) / 2,

which turns into a geometric drift statement: at least 1/2 outside the
centre set K = {||x||_V <= 2 c1} and at worst -c1 on it (after dividing by
psi).  Every inequality in that chain is checked term by term here, exactly,
with quadrature standing in for the jump expectation; a per-state ok mask
reports which states satisfy it.

The scaled family psi_lambda(x) = (1 + lambda^2 ||x||_H^2)^(1/2) drives the
exponential supermartingale used for tail and moment bounds; h_upper is the
explicit dominating integrand and exp_martingale_path evaluates the
resulting supermartingale along a simulated trajectory in log space.
"""

import math
from functools import partial

import numpy as np

from .spectral import norm_h_sq, norm_v_sq, record, _quadratic_term
from .noise import GaussianSpec, JumpSpec, hypothesis_constants, _exp, \
    _in_range
from .integrator import SimConfig, Trajectory, ensemble

__all__ = [
    "DriftConstants",
    "GeneratorTerms",
    "DriftReport",
    "psi",
    "grad_psi",
    "hess_psi_apply",
    "generator_upper_bound",
    "drift_condition_check",
    "psi_lambda",
    "grad_psi_lambda",
    "h_upper",
    "tilt_constants",
    "dissipation_term_gap",
    "jump_taylor_gap",
    "exp_martingale_path",
    "exp_integral_moment",
]

DEFAULT_TOL = 1e-9


@record
class EstimateReport:
    """A point estimate with uncertainty and provenance.

    half_width is three standard errors unless a method says otherwise, so
    value +/- half_width is a conservative confidence statement.  flags
    carry caveats ("lower_bound", "censored", "nonstationary", ...).
    """

    name: str
    value: float
    half_width: float
    n: int
    method: str = ""
    flags: tuple = ()
    extra: dict = None           # None: a fresh empty dict

    def __post_init__(self):
        if self.extra is None:
            object.__setattr__(self, "extra", {})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


@record
class DriftConstants:
    """Forcing summary (hs_norm_sq, m_est) and derived (c1, k_radius)."""

    hs_norm_sq: float
    m_est: float
    c1: float

    def __post_init__(self):
        # c1 is not re-derived here so corrupted copies can serve as
        # negative controls
        if self.hs_norm_sq < 0 or self.m_est < 0:
            raise ValueError("forcing constants must be nonnegative")

    @property
    def k_radius(self) -> float:
        return 2.0 * self.c1

    def in_k(self, a: np.ndarray) -> np.ndarray:
        """||x||_V <= k_radius for each state of a, (..., N) -> (...)."""
        return np.sqrt(norm_v_sq(a)) <= self.k_radius

    @classmethod
    def from_specs(cls, gaussian: GaussianSpec | None,
                   jumps: JumpSpec | None) -> "DriftConstants":
        hs = gaussian.hs_norm_sq if gaussian is not None else 0.0
        m_est = _in_range(hypothesis_constants(jumps, 0.0).m_est, "jump",
                          "M = intensity sup_norm^2 E[u^2]")
        c1 = 1.0 + 0.5 * (hs + m_est)
        return cls(hs_norm_sq=hs, m_est=m_est, c1=c1)

    def corrupted(self, c1: float) -> "DriftConstants":
        """Copy with c1 replaced; negative-control helper."""
        return DriftConstants(self.hs_norm_sq, self.m_est, c1)


# ----------------------------------------------------------------- calculus

def _col(values) -> np.ndarray:
    """Per-state values as an array column, to broadcast against (..., N)."""
    return np.asarray(values)[..., None]


def psi(a: np.ndarray) -> np.ndarray:
    """(1 + ||x||_H^2)^(1/2) = psi_lambda(x, 1); in [1, 1 + ||x||_H]."""
    return psi_lambda(a, 1.0)


def grad_psi(a: np.ndarray) -> np.ndarray:
    """x / psi(x), grad_psi_lambda at lambda = 1; norm strictly below 1."""
    return grad_psi_lambda(a, 1.0)


def hess_psi_apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian of psi at x applied to v: v/psi - <x,v> x / psi^3."""
    if np.shape(v)[-1] != np.shape(a)[-1]:
        raise ValueError("mode count mismatch")
    p = _col(psi(a))
    return v / p - _col(np.vecdot(a, v)) * a / p ** 3


# ------------------------------------------------------- generator and drift

@record
class GeneratorTerms:
    """Term-by-term evaluation of the generator acting on psi, per state."""

    lin_term: np.ndarray        # <Laplacian x, grad psi> = -||x||_V^2 / psi
    transport_term: np.ndarray  # <B(x), grad psi>, zero up to roundoff
    trace_exact: np.ndarray     # (1/2) sum beta_k^2 <Hess psi e_k, e_k>
    trace_bound: float          # (1/2) ||Q||_HS^2
    jump_exact: np.ndarray      # integral of the second-order jump remainder
    jump_bound: float           # (1/2) M
    value: np.ndarray           # sum of the exact terms
    bound: np.ndarray           # -(1 + ||x||_V^2)^(1/2) + c1
    margin: np.ndarray          # bound - value
    ok: np.ndarray              # every term within bound, up to DEFAULT_TOL


def _jump_remainder(a: np.ndarray, jumps: JumpSpec) -> np.ndarray:
    """integral [psi(x+f) - psi(x) - <grad psi, f>] n(du) by quadrature.

    One quadrature node at a time, so no (states, nodes, N) array is built.
    """
    u, w = jumps.marks.quadrature()
    g = jumps.direction.field_at(a)
    p = psi(a)
    slope = np.vecdot(grad_psi(a), g)
    vals = np.empty(np.shape(p) + (u.size,))
    for k, uk in enumerate(u.tolist()):
        vals[..., k] = psi(a + uk * g) - p - uk * slope
    return jumps.intensity * np.vecdot(vals, w)


def generator_upper_bound(a: np.ndarray,
                          constants: DriftConstants,
                          gaussian: GaussianSpec | None = None,
                          jumps: JumpSpec | None = None) -> GeneratorTerms:
    """Evaluate L psi exactly at each state against the drift bound.

    ok is False where the exact value exceeds -(1 + ||x||_V^2)^(1/2) + c1
    beyond DEFAULT_TOL, or where an intermediate exact term exceeds its
    declared bound.
    """
    p = psi(a)
    vsq = norm_v_sq(a)
    lin = -vsq / p
    # the gathered B of a block is column-major; a strided dot product would
    # round its rows differently from a row alone
    transport = np.vecdot(np.ascontiguousarray(_quadratic_term(a)), a) / p

    if gaussian is not None:
        # <Hess psi e_k, e_k> by one hess_psi_apply call per basis vector,
        # so no (..., N, N) array is built
        diag = np.empty(np.shape(a))
        for k, e in enumerate(np.eye(np.shape(a)[-1])):
            diag[..., k] = hess_psi_apply(a, e)[..., k]
        trace_exact = 0.5 * np.sum(gaussian.betas ** 2 * diag, axis=-1)
    else:
        trace_exact = np.zeros_like(p)
    trace_bound = 0.5 * constants.hs_norm_sq

    jump_exact = _jump_remainder(a, jumps) if jumps is not None \
        else np.zeros_like(p)
    jump_bound = 0.5 * constants.m_est

    value = lin + transport + trace_exact + jump_exact
    bound = -np.sqrt(1.0 + vsq) + constants.c1
    tol = DEFAULT_TOL
    ok = ((trace_exact <= trace_bound + tol)
          & (jump_exact <= jump_bound + tol) & (value <= bound + tol))
    return GeneratorTerms(lin, transport, trace_exact, trace_bound,
                          jump_exact, jump_bound, value, bound,
                          bound - value, ok)


@record
class DriftReport:
    """Outcome of the drift-condition check, per state."""

    psi: np.ndarray
    v_norm: np.ndarray
    in_k: np.ndarray
    lhs: np.ndarray               # ((1 + ||x||_V^2)^(1/2) - c1) / psi
    satisfied: np.ndarray         # geometric part of the drift condition
    generator: GeneratorTerms | None
    ok: np.ndarray                # satisfied, and generator.ok if evaluated


def drift_condition_check(a: np.ndarray,
                          constants: DriftConstants,
                          gaussian: GaussianSpec | None = None,
                          jumps: JumpSpec | None = None) -> DriftReport:
    """Classify each state against the centre set and check the drift.

    The geometric statement is
        lhs >= 1/2        outside K = {||x||_V <= 2 c1},
        lhs >= -c1        on K,
    with lhs = ((1 + ||x||_V^2)^(1/2) - c1) / psi(x).  When forcing specs
    are passed, the exact generator value must also stay below
    -(1 + ||x||_V^2)^(1/2) + c1, and ok is the conjunction; without them
    generator is None and ok is the geometric statement alone.  Every
    comparison allows DEFAULT_TOL.
    """
    p = psi(a)
    v = np.sqrt(norm_v_sq(a))
    in_k = constants.in_k(a)
    lhs = (np.sqrt(1.0 + v * v) - constants.c1) / p
    satisfied = lhs >= np.where(in_k, -constants.c1, 0.5) - DEFAULT_TOL

    generator = None
    ok = satisfied
    if gaussian is not None or jumps is not None:
        generator = generator_upper_bound(a, constants, gaussian, jumps)
        ok = satisfied & generator.ok
    return DriftReport(psi=p, v_norm=v, in_k=in_k, lhs=lhs,
                       satisfied=satisfied, generator=generator, ok=ok)


# ------------------------------------------------- scaled family psi_lambda

def psi_lambda(a: np.ndarray, lam: float) -> np.ndarray:
    """(1 + lambda^2 ||x||_H^2)^(1/2) for a positive tilt lambda."""
    if not lam > 0:
        raise ValueError("tilt must be positive")
    return np.sqrt(1.0 + lam * lam * norm_h_sq(a))


def grad_psi_lambda(a: np.ndarray, lam: float) -> np.ndarray:
    """lambda^2 x / psi_lambda(x); norm at most lambda."""
    return lam * lam * a / _col(psi_lambda(a, lam))


def h_upper(a: np.ndarray, lam: float, m_lambda: float,
            hs_norm_sq: float) -> np.ndarray:
    """Dominating integrand of the exponential supermartingale:

    -lambda^2 ||x||_V^2 / psi_lambda + lambda^2 ||Q||_HS^2
    + (lambda^2 / 2) M_lambda.
    """
    return (-lam * lam * norm_v_sq(a) / psi_lambda(a, lam)
            + lam * lam * hs_norm_sq + 0.5 * lam * lam * m_lambda)


def tilt_constants(cfg: SimConfig, lam: float) -> tuple:
    """(M_lambda, ||Q||_HS^2) of cfg's forcing at tilt lambda, the two
    constants of h_upper; each is 0 when its forcing is off."""
    m_lambda = hypothesis_constants(cfg.jumps, lam).m_lambda_est
    hs = cfg.gaussian.hs_norm_sq if cfg.gaussian is not None else 0.0
    return m_lambda, hs


def dissipation_term_gap(a: np.ndarray, lam: float) -> np.ndarray:
    """Slack of lambda^2 ||x||_V^2 / psi_lambda >= (1+lambda^2||x||_V^2)^(1/2) - 1.

    Nonnegative for every truncated field because ||x||_V >= ||x||_H.
    """
    vsq = norm_v_sq(a)
    lhs = lam * lam * vsq / psi_lambda(a, lam)
    rhs = np.sqrt(1.0 + lam * lam * vsq) - 1.0
    return lhs - rhs


def jump_taylor_gap(a: np.ndarray, u: float, jumps: JumpSpec,
                    lam: float) -> np.ndarray:
    """Slack of the second-order jump expansion of exp(psi_lambda).

    |e^(psi_lambda(x+f) - psi_lambda(x)) - 1 - <grad psi_lambda, f>|
    <= (lambda^2 / 2) e^(lambda ||f||) ||f||^2,    f = G(x) u.
    """
    f = jumps.direction.field_at(a) * float(u)
    fn = np.sqrt(norm_h_sq(f))
    lhs = np.abs(np.exp(psi_lambda(a + f, lam) - psi_lambda(a, lam))
                 - 1.0 - np.vecdot(grad_psi_lambda(a, lam), f))
    rhs = 0.5 * lam * lam * np.exp(lam * fn) * fn * fn
    return rhs - lhs


# ----------------------------------------------- martingale and moment bound

def exp_martingale_path(traj: Trajectory, lam: float, m_lambda: float,
                        hs_norm_sq: float) -> np.ndarray:
    """Supermartingale dominator along a trajectory, one value per snapshot.

    Value at snapshot i is
        exp( psi_lambda(X_i) - psi_lambda(X_0)
             - trapezoid of h_upper over [0, t_i] ),
    computed in log space.  Because h_upper dominates the true integrand,
    ensemble means must stay at or below one up to sampling error.
    """
    plam = psi_lambda(traj.coeffs, lam)
    h_vals = h_upper(traj.coeffs, lam, m_lambda, hs_norm_sq)
    cum = _cumulative_trapezoid(h_vals, traj.times)
    return np.exp(plam - plam[0] - cum)


def _cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of values over [times[0], times[i]], one per i."""
    dt = np.diff(times)
    return np.concatenate(([0.0],
                           np.cumsum(0.5 * dt * (values[1:] + values[:-1]))))


def _moment_reduce(traj: Trajectory, lam: float) -> tuple:
    """Trapezoids of ||X||_V and of the tilted dissipation term."""
    v = traj.norm_v()
    # v ** 2 rounds differently from norm_v_sq; the estimate keeps v ** 2
    z = lam * lam * v ** 2 / psi_lambda(traj.coeffs, lam)
    return (float(np.trapezoid(v, traj.times)),
            float(np.trapezoid(z, traj.times)))


def exp_integral_moment(cfg: SimConfig, theta: float, lam: float,
                        n_traj: int, n_workers: int = 1) -> EstimateReport:
    """Monte Carlo estimate of E exp(theta lambda int_0^T ||X_t||_V dt).

    Reported alongside the closed-form ceiling
        theta + theta/(1-theta) exp(psi_lambda(x0)
                                    + T lambda^2 (M_lambda/2 + ||Q||_HS^2))
    (extra["bound"]), the same constant in log form (extra["tail_log_const"],
    which also bounds log P(Z_lambda > r) + r for the dissipation functional
    Z_lambda), and the direct estimate of E exp(theta Z_lambda)
    (extra["z_moment"]), which the ceiling dominates term for term.

    theta must lie in (0, 1); lam must be a positive admissible tilt.
    A value beyond the double range is reported as inf.  Raises
    EnsembleBlowUpError when any trajectory blows up.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not lam > 0:
        raise ValueError("tilt must be positive")
    m_lambda, hs = tilt_constants(cfg, lam)
    x0 = cfg.x0.coeffs if cfg.x0 is not None else np.zeros(cfg.n_modes)

    out = ensemble(cfg, n_traj, partial(_moment_reduce, lam=lam),
                   n_workers=n_workers)
    iv = np.array([r[0] for r in out])
    zv = np.array([r[1] for r in out])

    # beyond the double range a moment is inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(theta * lam * iv)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(n_traj))
        z_moment = float(np.mean(np.exp(theta * zv)))
    log_const = float(psi_lambda(x0, lam)) + cfg.t_end * lam * lam * (
        0.5 * m_lambda + hs)
    bound = theta + theta / (1.0 - theta) * _exp(log_const)
    return EstimateReport(
        name="exp_integral_moment",
        value=mean,
        half_width=3.0 * se,
        n=n_traj,
        method="monte_carlo",
        extra={
            "theta": theta,
            "lam": lam,
            "bound": bound,
            "tail_log_const": log_const,
            "z_moment": z_moment,
        },
    )
