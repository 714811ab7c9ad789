"""Spectral Galerkin simulation and verification toolkit for a stochastic
Burgers equation with Brownian and compensated Poisson jump forcing.

_EXPORTS names each public name once, under the module that defines it.
A name is imported from that module at first use (PEP 562) and is not
kept here, so a name patched in its module is the one seen here too;
``import sburgers`` alone loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "spectral": ("SpectralField", "zero_field", "basis_field", "random_field",
                 "norm_h", "norm_v", "burgers_nonlinearity", "replace"),
    "noise": ("GaussianSpec", "JumpSpec", "ExponentialMarks",
              "DeterministicMarks", "ConstantDirection", "SaturatedDirection",
              "hypothesis_constants"),
    "integrator": ("SimConfig", "Trajectory", "simulate", "ensemble",
                   "derive_seed", "BlowUpError", "EnsembleBlowUpError"),
    "lyapunov": ("DriftConstants", "psi", "grad_psi", "hess_psi_apply",
                 "drift_condition_check", "exp_martingale_path",
                 "exp_integral_moment"),
    "ergodics": ("Observable", "mode_coefficient", "observable_dictionary",
                 "occupation_measure", "invariant_estimate", "sigma_squared",
                 "ergodic_decay", "hitting_times", "deviation_tail_probe"),
    "harness": ("ConfigError", "RunConfig", "load_config", "parse_config",
                "config_hash", "run_simulate", "run_verify", "run_estimate"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
