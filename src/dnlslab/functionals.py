"""Conserved functionals of the derivative NLS flow and of its gauged variant.

All quadratures are spectrally exact for band-limited fields: quadratic
integrands are evaluated on the native grid, quartic and higher ones on the
2x zero-padded refinement (see grid.lp_norm). Each functional takes one field
or a stack of rows, and gives one value per row (see grid.per_row).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid, deriv_values, fft, ifft, lp_norm, per_row

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


def mass(f: Field) -> float | list[float]:
    """M = integral of |f|^2."""
    squares = np.sum(np.abs(f.values) ** 2, axis=-1)
    return per_row(f, float, squares * f.grid.dx)


def mu(f: Field) -> float | list[float]:
    """Mean mass density M/L, the conserved density driving the gauge frame shift."""
    L = f.grid.L
    return per_row(f, lambda m: m / L, mass(f))


def im_momentum(f: Field) -> float | list[float]:
    """Im of the integral of f * conj(df/dx)."""
    df = deriv_values(f)
    products = np.sum((f.values * np.conj(df)).imag, axis=-1)
    return per_row(f, float, products * f.grid.dx)


def h1dot_sq(f: Field) -> float | list[float]:
    """Squared homogeneous H^1 seminorm, integral of |df/dx|^2."""
    return h1dot_sq_from_spectrum(f, fft(f.values), f.grid)


def h1dot_sq_from_spectrum(f: Field, spectrum: np.ndarray,
                           grid: TorusGrid) -> float | list[float]:
    """h1dot_sq of f's samples taken on grid, whose period may differ from
    f's, from their forward transform spectrum = fft(f.values). i k is
    imaginary, so i k * spectrum has the same bits whichever operand numpy
    puts first (see grid.ELIDE_BYTES), up to the sign of a zero, which
    |df|^2 drops."""
    df = ifft(grid._ik * spectrum)
    squares = np.sum(np.abs(df) ** 2, axis=-1)
    return per_row(f, float, squares * grid.dx)


def _im_cubic_term(f: Field, term_form: str) -> float | list[float]:
    """Im of the ambiguous cubic-derivative integral of the energy.

    standard: Im integral of |f|^2 * f * conj(f_x).
    literal:  Im integral of f^2 * conj(d/dx f^2)  (twice the standard value,
              as functions, but computed independently from its own reading).
    """
    grid = f.grid
    if term_form == "standard":
        v2 = grid.refine2(f.values)
        dv2 = grid.refine2(deriv_values(f))
        integrand = np.abs(v2) ** 2 * v2
        integrand *= np.conj(dv2, out=dv2)
    elif term_form == "literal":
        v2 = grid.refine2(f.values)
        w = v2 * v2
        wx = ifft(fft(w) * grid.refined._ik)
        integrand = w * np.conj(wx)
    else:
        raise ValueError(f"unknown term_form {term_form!r}, expected one of {TERM_FORMS}")
    total = np.sum(integrand.imag, axis=-1)
    return per_row(f, float, total * (grid.L / (2 * grid.N)))


def hamiltonian_u(f: Field) -> float | list[float]:
    """H = Im int f conj(f_x) + (1/2) int |f|^4."""
    return per_row(f, lambda p, l4: p + 0.5 * l4 ** 4, im_momentum(f), lp_norm(f, 4))


def energy_u(f: Field, term_form: str = DEFAULT_TERM_FORM) -> float | list[float]:
    """E = int |f_x|^2 + (3/2) Im(T) + (1/2) int |f|^6, with T per term_form."""
    return per_row(f, lambda h, cubic, l6: h + 1.5 * cubic + 0.5 * l6 ** 6,
                   h1dot_sq(f), _im_cubic_term(f, term_form), lp_norm(f, 6))


def momentum_v(f: Field) -> float | list[float]:
    """P = Im int f conj(f_x) - (1/4) int |f|^4, conserved along the gauged flow."""
    return per_row(f, lambda p, l4: p - 0.25 * l4 ** 4, im_momentum(f), lp_norm(f, 4))


def gauged_H(f: Field, beta: float) -> float | list[float]:
    """Hamiltonian written in gauged variables:
    Im int v conj(v_x) + (1/2 - beta) int |v|^4 + L*beta*mu^2."""
    L = f.grid.L
    return per_row(f, lambda m, p, l4: p + (0.5 - beta) * l4 ** 4 + L * beta * m * m,
                   mu(f), im_momentum(f), lp_norm(f, 4))


def gauged_E(f: Field, beta: float,
             term_form: str = DEFAULT_TERM_FORM) -> float | list[float]:
    """Energy written in gauged variables.

    int |v_x|^2 + (3/2 - 2b) Im(T) + (b^2 - 3b/2 + 1/2) int |v|^6
      + 2b mu Im int v conj(v_x) + b(3/2 - 2b) mu int |v|^4 + L b^2 mu^3.
    Reduces to energy_u at beta = 0; at beta = 3/4 the Im(T) and mu*|v|^4
    coefficients both vanish.
    """
    L = f.grid.L

    def combine(m, l4, h, cubic, l6, p):
        l4_4 = l4 ** 4
        return (
            h
            + (1.5 - 2.0 * beta) * cubic
            + (beta * beta - 1.5 * beta + 0.5) * l6 ** 6
            + 2.0 * beta * m * p
            + beta * (1.5 - 2.0 * beta) * m * l4_4
            + L * beta * beta * m ** 3
        )

    return per_row(f, combine, mu(f), lp_norm(f, 4), h1dot_sq(f),
                   _im_cubic_term(f, term_form), lp_norm(f, 6), im_momentum(f))


def ecal(f: Field) -> float | list[float]:
    """Coercive gauged energy combination:
    int |v_x|^2 - (1/16) int |v|^6 + (3/8) mu int |v|^4.

    Conserved along the beta = 3/4 gauged flow; evaluated on gauged fields by
    convention, but a pure functional of any field.
    """
    return per_row(f, lambda h, l6, m, l4: h - l6 ** 6 / 16.0 + 0.375 * m * l4 ** 4,
                   h1dot_sq(f), lp_norm(f, 6), mu(f), lp_norm(f, 4))


def conserved_report(f: Field, t: float | np.ndarray = 0.0
                     ) -> ConservedReport | list[ConservedReport]:
    """Evaluate every tracked functional on one field, or on each row of a
    stack, with t its time or one time per row (H, E with the shipped default
    term form)."""
    times = np.broadcast_to(t, f.values.shape[:-1]).tolist()
    return per_row(f, lambda t, *values: ConservedReport(float(t), *values),
                   times, mass(f), hamiltonian_u(f), energy_u(f), momentum_v(f),
                   mu(f), ecal(f))
