"""dnlslab: pseudospectral simulation and verification lab for the derivative
nonlinear Schroedinger equation on the circle."""

__version__ = "0.1.0"

from .grid import (Field, Spectrum, TorusGrid, antideriv_meanzero, deriv,
                   lp_norm, translate)
from .functionals import (ConservedReport, conserved_report, ecal, energy_u,
                          gauged_E, gauged_H, hamiltonian_u, im_momentum, mass,
                          momentum_v, mu)
from .gauge import gauge_profile, gauge_trajectory, psi
from .dynamics import (BlowupGuardError, CflWarning, NonFiniteError, SimConfig,
                       SimulationError, Trajectory, dispersion_symbol,
                       pde_residual, rhs_dnls1, rhs_dnls2, simulate)
from .gn import CGN, mass_threshold
from .diagnostics import (CaseRecord, DiagnosticsSample, ZeroFieldError,
                          case_report, f_ratio, m1_identity_check, modulate,
                          proof_sample)
from .initial_data import DataSpec, build

__all__ = [
    "Field", "Spectrum", "TorusGrid", "antideriv_meanzero", "deriv",
    "lp_norm", "translate",
    "ConservedReport", "conserved_report", "ecal",
    "energy_u", "gauged_E", "gauged_H", "hamiltonian_u", "im_momentum",
    "mass", "momentum_v", "mu",
    "gauge_profile", "gauge_trajectory", "psi",
    "BlowupGuardError", "CflWarning", "NonFiniteError", "SimConfig",
    "SimulationError", "Trajectory", "dispersion_symbol", "pde_residual",
    "rhs_dnls1", "rhs_dnls2", "simulate",
    "CGN", "mass_threshold",
    "CaseRecord", "DiagnosticsSample", "ZeroFieldError", "case_report",
    "f_ratio", "m1_identity_check", "modulate", "proof_sample",
    "DataSpec", "build",
    "__version__",
]
