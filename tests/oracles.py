"""Independent numerical oracles used by the test suite.

Everything here is computed from first principles (pointwise sine sums,
adaptive quadrature, closed-form mode solutions) without touching the
package's spectral algebra, so agreement between the two routes is a real
check and not a tautology.
"""

import numpy as np
from scipy.integrate import quad


def sine_values(a, xi):
    """Pointwise field values sum_k a_k sqrt(2) sin(k pi xi)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    k = np.arange(1, len(a) + 1)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(xi, k)) @ np.asarray(a)


def sine_derivative_values(a, xi):
    """Pointwise derivative values sum_k a_k sqrt(2) k pi cos(k pi xi)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    k = np.arange(1, len(a) + 1)
    return np.sqrt(2.0) * np.pi * (np.cos(np.pi * np.outer(xi, k)) * k) @ np.asarray(a)


def advection_coefficient_quadrature(a, m):
    """Coefficient <x x', e_m> by adaptive quadrature on (0, 1)."""

    def integrand(xi):
        pt = np.array([xi])
        return (sine_values(a, pt)[0] * sine_derivative_values(a, pt)[0]
                * np.sqrt(2.0) * np.sin(m * np.pi * xi))

    val, _ = quad(integrand, 0.0, 1.0, limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


def jump_only_exact_path(x0, rates, drift, jump_vec, events, times):
    """Closed-form mild solution for linear decay + constant drift + jumps.

    Per mode: y_k(t) = e^(-r_k t) y_k(0) + d_k (1 - e^(-r_k t)) / r_k
              + sum over events (t_i, u_i) with t_i <= t of
                e^(-r_k (t - t_i)) g_k u_i.

    Parameters are plain arrays; events is a list of (time, mark) pairs.
    """
    x0 = np.asarray(x0, dtype=float)
    rates = np.asarray(rates, dtype=float)
    drift = np.asarray(drift, dtype=float)
    jump_vec = np.asarray(jump_vec, dtype=float)
    out = np.empty((len(times), x0.size))
    for i, t in enumerate(times):
        y = np.exp(-rates * t) * x0 + drift * (1.0 - np.exp(-rates * t)) / rates
        for (ti, u) in events:
            if ti <= t:
                y = y + np.exp(-rates * (t - ti)) * jump_vec * u
        out[i] = y
    return out


def ou_exact_moments(rate, noise, t, x0=0.0):
    """Mean and variance of a scalar OU process dX = -rate X dt + noise dW."""
    mean = x0 * np.exp(-rate * t)
    var = noise ** 2 * (1.0 - np.exp(-2.0 * rate * t)) / (2.0 * rate)
    return mean, var


def finite_difference_gradient(f, x, eps=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return g


def exact_ou_paths(rate, noise, dt, n_steps, n_paths, rng, x0=0.0):
    """Sample the scalar OU chain at spacing dt with its exact transition.

    x_{i+1} = e^(-rate dt) x_i + sqrt(noise^2 (1 - e^(-2 rate dt)) / (2 rate)) xi.

    Returns an (n_paths, n_steps + 1) array.  This is the law of the
    continuous process observed on the grid, with no discretization bias,
    so it serves as a reference input for the statistics estimators.
    """
    decay = np.exp(-rate * dt)
    sd = np.sqrt(noise ** 2 * (1.0 - decay ** 2) / (2.0 * rate))
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = x0
    cur = np.full(n_paths, float(x0))
    for i in range(1, n_steps + 1):
        cur = decay * cur + sd * rng.standard_normal(n_paths)
        out[:, i] = cur
    return out


def sequential_path(cfg, nonlinearity):
    """Save-grid snapshots of the scheme stepped one substep at a time.

    A plain transcription of the mild-form step for one path: each substep
    of length h > 0 draws its N normals from the Wiener stream when it runs,
    and a step is split at each of its events in time order.  The advection
    term comes from the callable nonlinearity (coefficients -> coefficients);
    jump events are read from the jump stream with the package sampler.
    """
    from sburgers.noise import sample_jump_times

    n = cfg.n_modes
    alpha = (np.pi * np.arange(1, n + 1, dtype=float)) ** 2
    jump_ss, wiener_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(wiener_ss)
    events = [] if cfg.jumps is None else sample_jump_times(
        cfg.jumps, cfg.t_end, np.random.default_rng(jump_ss))
    betas = None if cfg.gaussian is None else cfg.gaussian.betas

    def substep(a, h):
        if h == 0.0:
            return a
        decay = np.exp(-alpha * h)
        phi = (1.0 - decay) / alpha
        d = nonlinearity(a) if cfg.nonlinearity_on else None
        if cfg.jumps is not None:
            g = cfg.jumps.direction.field_at(a)
            comp = -cfg.jumps.intensity * cfg.jumps.marks.mean * g
            d = comp if d is None else d + comp
        out = decay * a if d is None else decay * a + phi * d
        if betas is not None:
            out = out + decay * (betas * np.sqrt(h)
                                 * rng.standard_normal(n))
        return out

    n_steps = int(round(cfg.t_end / cfg.dt))
    save_every = int(round(cfg.dt_save / cfg.dt))
    a = np.zeros(n) if cfg.x0 is None else cfg.x0.coeffs.copy()
    snaps = [a]
    ev = 0
    for i in range(n_steps):
        seg, t1 = i * cfg.dt, (i + 1) * cfg.dt
        while ev < len(events) and events[ev][0] <= t1:
            t_ev, mark = events[ev]
            a = substep(a, t_ev - seg)
            a = a + cfg.jumps.direction.field_at(a) * mark
            seg = t_ev
            ev += 1
        a = substep(a, t1 - seg)
        if (i + 1) % save_every == 0:
            snaps.append(a)
    return np.array(snaps)
