"""Conserved functionals of the derivative NLS flow and of its gauged variant.

All quadratures are spectrally exact for band-limited fields: quadratic
integrands are evaluated on the native grid, quartic and higher ones on the
2x zero-padded refinement (see grid.lp_norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, deriv, lp_norm

# The cubic term of the energy admits two readings that differ by a factor of
# two in the integral. The conservation oracle (energy drift vanishing at the
# integrator's order along the ungauged flow) selects "standard"; "literal"
# keeps the other reading auditable.
TERM_FORMS = ("literal", "standard")
DEFAULT_TERM_FORM = "standard"


@dataclass(frozen=True)
class ConservedReport:
    """Values of all tracked functionals on one field at time t.

    M, H, E are the mass, Hamiltonian and energy of the ungauged flow; P and
    Ecal are the momentum and the coercive gauged energy combination, intended
    for gauged fields (both are well-defined pure functionals on any field).
    """

    t: float
    M: float
    H: float
    E: float
    P: float
    mu: float
    Ecal: float

    COLUMNS = ("t", "M", "H", "E", "P", "mu", "Ecal")


def mass(f: Field) -> float:
    """M = integral of |f|^2."""
    return float(np.sum(np.abs(f.values) ** 2) * f.grid.dx)


def mu(f: Field) -> float:
    """Mean mass density M/L, the conserved density driving the gauge frame shift."""
    return mass(f) / f.grid.L


def im_momentum(f: Field) -> float:
    """Im of the integral of f * conj(df/dx)."""
    df = deriv(f)
    return float(np.sum((f.values * np.conj(df.values)).imag) * f.grid.dx)


def h1dot_sq(f: Field) -> float:
    """Squared homogeneous H^1 seminorm, integral of |df/dx|^2."""
    df = deriv(f)
    return float(np.sum(np.abs(df.values) ** 2) * f.grid.dx)


def _im_cubic_term(f: Field, term_form: str) -> float:
    """Im of the ambiguous cubic-derivative integral of the energy.

    standard: Im integral of |f|^2 * f * conj(f_x).
    literal:  Im integral of f^2 * conj(d/dx f^2)  (twice the standard value,
              as functions, but computed independently from its own reading).
    """
    grid = f.grid
    if term_form == "standard":
        v2 = grid.refine2(f.values)
        dv2 = grid.refine2(deriv(f).values)
        integrand = np.abs(v2) ** 2 * v2 * np.conj(dv2)
        return float(np.sum(integrand.imag) * (grid.L / (2 * grid.N)))
    if term_form == "literal":
        v2 = grid.refine2(f.values)
        w = v2 * v2
        wx = np.fft.ifft(np.fft.fft(w) * grid.refined._ik)
        integrand = w * np.conj(wx)
        return float(np.sum(integrand.imag) * (grid.L / (2 * grid.N)))
    raise ValueError(f"unknown term_form {term_form!r}, expected one of {TERM_FORMS}")


def hamiltonian_u(f: Field) -> float:
    """H = Im int f conj(f_x) + (1/2) int |f|^4."""
    return im_momentum(f) + 0.5 * lp_norm(f, 4) ** 4


def energy_u(f: Field, term_form: str = DEFAULT_TERM_FORM) -> float:
    """E = int |f_x|^2 + (3/2) Im(T) + (1/2) int |f|^6, with T per term_form."""
    return (
        h1dot_sq(f)
        + 1.5 * _im_cubic_term(f, term_form)
        + 0.5 * lp_norm(f, 6) ** 6
    )


def momentum_v(f: Field) -> float:
    """P = Im int f conj(f_x) - (1/4) int |f|^4, conserved along the gauged flow."""
    return im_momentum(f) - 0.25 * lp_norm(f, 4) ** 4


def gauged_H(f: Field, beta: float) -> float:
    """Hamiltonian written in gauged variables:
    Im int v conj(v_x) + (1/2 - beta) int |v|^4 + L*beta*mu^2."""
    m = mu(f)
    return im_momentum(f) + (0.5 - beta) * lp_norm(f, 4) ** 4 + f.grid.L * beta * m * m


def gauged_E(f: Field, beta: float, term_form: str = DEFAULT_TERM_FORM) -> float:
    """Energy written in gauged variables.

    int |v_x|^2 + (3/2 - 2b) Im(T) + (b^2 - 3b/2 + 1/2) int |v|^6
      + 2b Im int v conj(v_x) + b(3/2 - 2b) mu int |v|^4 + L b^2 mu^3.
    Reduces to energy_u at beta = 0; at beta = 3/4 the Im(T) and mu*|v|^4
    coefficients both vanish.
    """
    m = mu(f)
    l4_4 = lp_norm(f, 4) ** 4
    return (
        h1dot_sq(f)
        + (1.5 - 2.0 * beta) * _im_cubic_term(f, term_form)
        + (beta * beta - 1.5 * beta + 0.5) * lp_norm(f, 6) ** 6
        + 2.0 * beta * im_momentum(f)
        + beta * (1.5 - 2.0 * beta) * m * l4_4
        + f.grid.L * beta * beta * m ** 3
    )


def ecal(f: Field) -> float:
    """Coercive gauged energy combination:
    int |v_x|^2 - (1/16) int |v|^6 + (3/8) mu int |v|^4.

    Conserved along the beta = 3/4 gauged flow; evaluated on gauged fields by
    convention, but a pure functional of any field.
    """
    return (
        h1dot_sq(f)
        - lp_norm(f, 6) ** 6 / 16.0
        + 0.375 * mu(f) * lp_norm(f, 4) ** 4
    )


def conserved_report(f: Field, t: float = 0.0) -> ConservedReport:
    """Evaluate every tracked functional on one field (H, E with the shipped
    default term form)."""
    return ConservedReport(
        t=float(t),
        M=mass(f),
        H=hamiltonian_u(f),
        E=energy_u(f),
        P=momentum_v(f),
        mu=mu(f),
        Ecal=ecal(f),
    )
