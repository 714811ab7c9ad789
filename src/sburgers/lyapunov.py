"""Lyapunov calculus, drift inequalities, exponential martingale bounds.

The workhorse function is psi(x) = (1 + ||x||_H^2)^(1/2).  Its gradient and
Hessian are globally bounded by 1 in operator norm, the Dirichlet form term
<Laplacian x, grad psi> equals -||x||_V^2 / psi, and the forcing enters only
through two constants: the squared HS norm of the Gaussian amplitudes and
the jump second moment M.  Together they give the generator bound

    L psi(x) <= -(1 + ||x||_V^2)^(1/2) + c1,
    c1 = 1 + (||Q||_HS^2 + M) / 2,

which turns into a geometric drift statement: at least 1/2 outside the
centre set K = {||x||_V <= 2 c1} and at worst -c1 on it (after dividing by
psi).  Every inequality in that chain is checked term by term here, exactly,
with quadrature standing in for the jump expectation.

The scaled family psi_lambda(x) = (1 + lambda^2 ||x||_H^2)^(1/2) drives the
exponential supermartingale used for tail and moment bounds; h_upper is the
explicit dominating integrand and exp_martingale_path evaluates the
resulting supermartingale along a simulated trajectory in log space.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectral import (
    SpectralField, norm_h, norm_v, inner_h, mode_rates, burgers_nonlinearity,
)
from .noise import GaussianSpec, JumpSpec, hypothesis_constants
from .integrator import SimConfig, Trajectory, ensemble, \
    require_no_blowups
from .reports import EstimateReport

__all__ = [
    "DriftConstants",
    "GeneratorTerms",
    "DriftReport",
    "InequalityViolation",
    "psi",
    "grad_psi",
    "hess_psi_apply",
    "generator_upper_bound",
    "drift_condition_check",
    "psi_lambda",
    "grad_psi_lambda",
    "h_upper",
    "dissipation_term_gap",
    "jump_taylor_gap",
    "exp_martingale_path",
    "exp_integral_moment",
]

DEFAULT_TOL = 1e-9


class InequalityViolation(AssertionError):
    """A deterministic bound failed; .report carries the offending terms."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class DriftConstants:
    """Forcing summary (hs_norm_sq, m_est) and derived (c1, k_radius)."""

    hs_norm_sq: float
    m_est: float
    c1: float
    k_radius: float

    def __post_init__(self):
        # c1 is not re-derived here so corrupted copies can serve as
        # negative controls; k_radius must always track it
        if self.hs_norm_sq < 0 or self.m_est < 0:
            raise ValueError("forcing constants must be nonnegative")
        if self.k_radius != 2.0 * self.c1:
            raise ValueError("k_radius must equal 2 c1")

    @classmethod
    def from_specs(cls, gaussian: GaussianSpec | None,
                   jumps: JumpSpec | None,
                   m_est: float | None = None) -> "DriftConstants":
        hs = gaussian.hs_norm_sq if gaussian is not None else 0.0
        if m_est is None:
            if jumps is None:
                m_est = 0.0
            else:
                m_est = hypothesis_constants(jumps, 0.0).m_est
        c1 = 1.0 + 0.5 * (hs + m_est)
        return cls(hs_norm_sq=hs, m_est=m_est, c1=c1, k_radius=2.0 * c1)

    def corrupted(self, c1: float) -> "DriftConstants":
        """Copy with c1 replaced; negative-control helper."""
        return DriftConstants(self.hs_norm_sq, self.m_est, c1, 2.0 * c1)


# ----------------------------------------------------------------- calculus

def psi(x: SpectralField) -> float:
    """(1 + ||x||_H^2)^(1/2); between 1 and 1 + ||x||_H."""
    return math.sqrt(1.0 + float(np.sum(x.coeffs ** 2)))


def grad_psi(x: SpectralField) -> SpectralField:
    """x / psi(x); norm strictly below 1."""
    return SpectralField(x.coeffs / psi(x))


def hess_psi_apply(x: SpectralField, v: SpectralField) -> SpectralField:
    """Hessian of psi at x applied to v: v/psi - <x,v> x / psi^3."""
    if v.n_modes != x.n_modes:
        raise ValueError("mode count mismatch")
    p = psi(x)
    xv = float(np.dot(x.coeffs, v.coeffs))
    return SpectralField(v.coeffs / p - xv * x.coeffs / p ** 3)


# ------------------------------------------------------- generator and drift

@dataclass(frozen=True)
class GeneratorTerms:
    """Term-by-term evaluation of the generator acting on psi at one state."""

    lin_term: float          # <Laplacian x, grad psi> = -||x||_V^2 / psi
    transport_term: float    # <B(x), grad psi>, zero up to roundoff
    trace_exact: float       # (1/2) sum beta_k^2 <Hess psi e_k, e_k>
    trace_bound: float       # (1/2) ||Q||_HS^2
    jump_exact: float        # integral of the second-order jump remainder
    jump_bound: float        # (1/2) M
    value: float             # sum of the exact terms
    bound: float             # -(1 + ||x||_V^2)^(1/2) + c1
    margin: float            # bound - value


def _jump_remainder(x: SpectralField, jumps: JumpSpec) -> float:
    """integral [psi(x+f) - psi(x) - <grad psi, f>] n(du) by quadrature."""
    u, w = jumps.marks.quadrature()
    g = jumps.direction.field_at(x.coeffs)
    p = psi(x)
    gp = x.coeffs / p
    shifted = x.coeffs[None, :] + np.outer(u, g)
    psi_shifted = np.sqrt(1.0 + np.sum(shifted ** 2, axis=1))
    vals = psi_shifted - p - u * float(np.dot(gp, g))
    return jumps.intensity * float(np.dot(w, vals))


def generator_upper_bound(x: SpectralField,
                          constants: DriftConstants,
                          gaussian: GaussianSpec | None = None,
                          jumps: JumpSpec | None = None,
                          tol: float = DEFAULT_TOL) -> GeneratorTerms:
    """Evaluate L psi(x) exactly and assert it is below the drift bound.

    Raises InequalityViolation when the exact value exceeds
    -(1 + ||x||_V^2)^(1/2) + c1 beyond tol, or when an intermediate exact
    term exceeds its declared bound.
    """
    p = psi(x)
    vsq = float(np.sum(mode_rates(x.n_modes) * x.coeffs ** 2))
    lin = -vsq / p
    transport = inner_h(burgers_nonlinearity(x), x) / p

    if gaussian is not None:
        b2 = gaussian.betas ** 2
        trace_exact = 0.5 * float(np.sum(b2 * (1.0 / p
                                               - x.coeffs ** 2 / p ** 3)))
    else:
        trace_exact = 0.0
    trace_bound = 0.5 * constants.hs_norm_sq

    jump_exact = _jump_remainder(x, jumps) if jumps is not None else 0.0
    jump_bound = 0.5 * constants.m_est

    value = lin + transport + trace_exact + jump_exact
    bound = -math.sqrt(1.0 + vsq) + constants.c1
    terms = GeneratorTerms(lin, transport, trace_exact, trace_bound,
                           jump_exact, jump_bound, value, bound,
                           bound - value)
    if trace_exact > trace_bound + tol:
        raise InequalityViolation("trace term exceeds its bound", terms)
    if jump_exact > jump_bound + tol:
        raise InequalityViolation("jump remainder exceeds its bound", terms)
    if value > bound + tol:
        raise InequalityViolation(
            f"generator value {value:.6g} exceeds bound {bound:.6g}", terms)
    return terms


@dataclass(frozen=True)
class DriftReport:
    """Outcome of the drift-condition check at one state."""

    psi: float
    v_norm: float
    in_k: bool
    lhs: float               # ((1 + ||x||_V^2)^(1/2) - c1) / psi
    satisfied: bool          # geometric part of the drift condition
    generator: GeneratorTerms | None = None
    chain_ok: bool | None = None   # geometric and generator bound together


def drift_condition_check(x: SpectralField,
                          constants: DriftConstants,
                          gaussian: GaussianSpec | None = None,
                          jumps: JumpSpec | None = None,
                          tol: float = DEFAULT_TOL) -> DriftReport:
    """Classify x against the centre set and verify the drift inequality.

    The geometric statement is
        lhs >= 1/2        outside K = {||x||_V <= 2 c1},
        lhs >= -c1        on K,
    with lhs = ((1 + ||x||_V^2)^(1/2) - c1) / psi(x).  When forcing specs
    are passed, the exact generator value is additionally required to stay
    below -(1 + ||x||_V^2)^(1/2) + c1; chain_ok reports the conjunction
    (None when the specs were not supplied).
    """
    p = psi(x)
    v = norm_v(x)
    in_k = v <= constants.k_radius
    lhs = (math.sqrt(1.0 + v * v) - constants.c1) / p
    if in_k:
        satisfied = lhs >= -constants.c1 - tol
    else:
        satisfied = lhs >= 0.5 - tol

    generator = None
    chain_ok = None
    if gaussian is not None or jumps is not None:
        try:
            generator = generator_upper_bound(x, constants, gaussian, jumps,
                                              tol=tol)
            chain_ok = satisfied
        except InequalityViolation as err:
            generator = err.report
            chain_ok = False
    return DriftReport(psi=p, v_norm=v, in_k=in_k, lhs=lhs,
                       satisfied=satisfied, generator=generator,
                       chain_ok=chain_ok)


# ------------------------------------------------- scaled family psi_lambda

def psi_lambda(x: SpectralField, lam: float) -> float:
    """(1 + lambda^2 ||x||_H^2)^(1/2) for a positive tilt lambda."""
    if not lam > 0:
        raise ValueError("tilt must be positive")
    return math.sqrt(1.0 + lam * lam * float(np.sum(x.coeffs ** 2)))


def grad_psi_lambda(x: SpectralField, lam: float) -> SpectralField:
    """lambda^2 x / psi_lambda(x); norm at most lambda."""
    return SpectralField(lam * lam * x.coeffs / psi_lambda(x, lam))


def h_upper(x: SpectralField, lam: float, m_lambda: float,
            hs_norm_sq: float) -> float:
    """Dominating integrand of the exponential supermartingale:

    -lambda^2 ||x||_V^2 / psi_lambda + lambda^2 ||Q||_HS^2
    + (lambda^2 / 2) M_lambda.
    """
    plam = psi_lambda(x, lam)
    vsq = norm_v(x) ** 2
    return (-lam * lam * vsq / plam + lam * lam * hs_norm_sq
            + 0.5 * lam * lam * m_lambda)


def dissipation_term_gap(x: SpectralField, lam: float) -> float:
    """Slack of lambda^2 ||x||_V^2 / psi_lambda >= (1+lambda^2||x||_V^2)^(1/2) - 1.

    Nonnegative for every truncated field because ||x||_V >= ||x||_H.
    """
    vsq = norm_v(x) ** 2
    lhs = lam * lam * vsq / psi_lambda(x, lam)
    rhs = math.sqrt(1.0 + lam * lam * vsq) - 1.0
    return lhs - rhs


def jump_taylor_gap(x: SpectralField, u: float, jumps: JumpSpec,
                    lam: float) -> float:
    """Slack of the second-order jump expansion of exp(psi_lambda).

    |e^(psi_lambda(x+f) - psi_lambda(x)) - 1 - <grad psi_lambda, f>|
    <= (lambda^2 / 2) e^(lambda ||f||) ||f||^2,    f = G(x) u.
    """
    f = jumps.direction.field_at(x.coeffs) * float(u)
    fn = float(np.sqrt(np.sum(f * f)))
    lhs = abs(math.exp(psi_lambda(SpectralField(x.coeffs + f), lam)
                       - psi_lambda(x, lam))
              - 1.0 - float(np.dot(grad_psi_lambda(x, lam).coeffs, f)))
    rhs = 0.5 * lam * lam * math.exp(lam * fn) * fn * fn
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
    if not lam > 0:
        raise ValueError("tilt must be positive")
    hsq = np.sum(traj.coeffs ** 2, axis=1)
    vsq = traj.coeffs ** 2 @ mode_rates(traj.n_modes)
    plam = np.sqrt(1.0 + lam * lam * hsq)
    h_vals = (-lam * lam * vsq / plam + lam * lam * hs_norm_sq
              + 0.5 * lam * lam * m_lambda)
    dt = np.diff(traj.times)
    cum = np.concatenate(([0.0],
                          np.cumsum(0.5 * dt * (h_vals[1:] + h_vals[:-1]))))
    return np.exp(plam - plam[0] - cum)


def _moment_reduce(traj: Trajectory, lam: float) -> tuple:
    """Trapezoids of ||X||_V and of the tilted dissipation term."""
    v = traj.norm_v()
    plam = np.sqrt(1.0 + lam * lam * np.sum(traj.coeffs ** 2, axis=1))
    z = lam * lam * v ** 2 / plam
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
    Raises EnsembleBlowUpError when any trajectory blows up.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not lam > 0:
        raise ValueError("tilt must be positive")
    if cfg.jumps is not None:
        m_lambda = hypothesis_constants(cfg.jumps, lam).m_lambda_est
    else:
        m_lambda = 0.0
    hs = cfg.gaussian.hs_norm_sq if cfg.gaussian is not None else 0.0
    x0 = cfg.x0 if cfg.x0 is not None else \
        SpectralField(np.zeros(cfg.n_modes))

    out = require_no_blowups(ensemble(cfg, n_traj,
                                      partial(_moment_reduce, lam=lam),
                                      n_workers=n_workers))
    iv = np.array([r[0] for r in out])
    zv = np.array([r[1] for r in out])

    vals = np.exp(theta * lam * iv)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_traj))
    log_const = psi_lambda(x0, lam) + cfg.t_end * lam * lam * (
        0.5 * m_lambda + hs)
    bound = theta + theta / (1.0 - theta) * math.exp(log_const)
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
            "z_moment": float(np.mean(np.exp(theta * zv))),
        },
    )
