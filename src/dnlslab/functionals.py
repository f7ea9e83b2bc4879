"""Conserved functionals of the derivative NLS flow and of its gauged variant.

All quadratures are spectrally exact for band-limited fields: quadratic
integrands are evaluated on the native grid, quartic and higher ones on the
2x zero-padded refinement (see grid.lp_norm). Each functional takes one field
or a stack of rows, and gives one value per row (see grid.per_row).

The public functionals each take their own transforms and pads. The reports
share theirs: _moments reduces every primitive of conserved_report in one
pass over a stack, with one forward FFT of the values, whose spectrum gives
both the derivative (one inverse) and the values' pad (grid.resample2, one
inverse), and the derivative's pad through grid.refine2 (5 transforms and 2
pads), where the functionals one by one take 24 transforms and 7 pads.
diagnostics.proof_sample, and diagnostics.case_report called alone, take the
pass without the momentum and the cubic term (3 transforms, one pad). The
bound chain of the drivers takes one full pass per chunk and hands it to
both reports (moments=), so a chunk costs it 5 transforms and 2 pads, not 8
and 3. Every value keeps the bits the public functionals give it, whose
per-row combinations it shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (Field, TorusGrid, deriv_values, fft, ifft, lp_from_power_sum,
                   lp_norm, per_row)


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
    return per_row(f, partial(_mu, L=f.grid.L), mass(f))


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


def _im_cubic_term(f: Field) -> float | list[float]:
    """Im integral of |f|^2 * f * conj(f_x), the cubic-derivative term of the
    energy."""
    grid = f.grid
    v2 = grid.refine2(f.values)
    dv2 = grid.refine2(deriv_values(f))
    integrand = np.abs(v2) ** 2 * v2
    integrand *= np.conj(dv2, out=dv2)
    total = np.sum(integrand.imag, axis=-1)
    return per_row(f, float, total * grid.refined_dx)


# One row's value of a functional from its reductions, in Python floats; the
# public functionals and conserved_report both combine through these.

def _mu(m: float, L: float) -> float:
    return m / L


def _hamiltonian(p: float, l4: float) -> float:
    return p + 0.5 * l4 ** 4


def _energy(h: float, cubic: float, l6: float) -> float:
    return h + 1.5 * cubic + 0.5 * l6 ** 6


def _momentum_v(p: float, l4: float) -> float:
    return p - 0.25 * l4 ** 4


def _ecal(h: float, l6: float, m: float, l4: float) -> float:
    return h - l6 ** 6 / 16.0 + 0.375 * m * l4 ** 4


def hamiltonian_u(f: Field) -> float | list[float]:
    """H = Im int f conj(f_x) + (1/2) int |f|^4."""
    return per_row(f, _hamiltonian, im_momentum(f), lp_norm(f, 4))


def energy_u(f: Field) -> float | list[float]:
    """E = int |f_x|^2 + (3/2) Im(T) + (1/2) int |f|^6, with
    T = int |f|^2 f conj(f_x)."""
    return per_row(f, _energy, h1dot_sq(f), _im_cubic_term(f), lp_norm(f, 6))


def momentum_v(f: Field) -> float | list[float]:
    """P = Im int f conj(f_x) - (1/4) int |f|^4, conserved along the gauged flow."""
    return per_row(f, _momentum_v, im_momentum(f), lp_norm(f, 4))


def gauged_H(f: Field, beta: float) -> float | list[float]:
    """Hamiltonian written in gauged variables:
    Im int v conj(v_x) + (1/2 - beta) int |v|^4 + L*beta*mu^2."""
    L = f.grid.L
    return per_row(f, lambda m, p, l4: p + (0.5 - beta) * l4 ** 4 + L * beta * m * m,
                   mu(f), im_momentum(f), lp_norm(f, 4))


def gauged_E(f: Field, beta: float) -> float | list[float]:
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
                   _im_cubic_term(f), lp_norm(f, 6), im_momentum(f))


def ecal(f: Field) -> float | list[float]:
    """Coercive gauged energy combination:
    int |v_x|^2 - (1/16) int |v|^6 + (3/8) mu int |v|^4.

    Conserved along the beta = 3/4 gauged flow; evaluated on gauged fields by
    convention, but a pure functional of any field.
    """
    return per_row(f, _ecal, h1dot_sq(f), lp_norm(f, 6), mu(f), lp_norm(f, 4))


def _moments(f: Field, full: bool = True) -> tuple:
    """The reductions the reports are built from, in one pass over all rows
    of f: (M, Im int f conj(f_x), int |f_x|^2, ||f||_L4, ||f||_L6, the
    standard cubic term of _im_cubic_term). With full False the momentum and
    the cubic term are None, and f_x is not padded.

    One forward FFT F of the values serves twice: the inverse of i k F
    gives f_x, and the pad of F (grid.resample2) the refined values, whose
    one modulus serves both power sums; F is freed after the pad. With
    full, one pad of f_x serves the cubic term. Each reduction is that of
    mass, im_momentum, h1dot_sq, lp_norm and _im_cubic_term, the same
    operations on the same operands, so a row gets their bits: the roots
    are Python float powers per row (float or list, as per_row gives them),
    the rest float64 columns for per_row. The refined values and their
    modulus are freed before f_x is padded, so the pass holds no more padded
    arrays at a time than _im_cubic_term does, and what it returns holds
    none: a caller may keep the pass of every chunk. The full pass serves
    both conserved_report and diagnostics.case_report (their moments=
    argument), whose M, h, l4 and l6 it gives with the bits and types of the
    pass without full.
    """
    grid = f.grid
    F = fft(f.values)
    df = ifft(grid._ik * F)
    M = np.sum(np.abs(f.values) ** 2, axis=-1) * grid.dx
    h = np.sum(np.abs(df) ** 2, axis=-1) * grid.dx
    v2 = grid.resample2(F)
    del F
    modulus = np.abs(v2)
    l4 = lp_from_power_sum(f, np.sum(modulus ** 4, axis=-1), grid, 4)
    l6 = lp_from_power_sum(f, np.sum(modulus ** 6, axis=-1), grid, 6)
    if not full:
        return M, None, h, l4, l6, None
    p = np.sum((f.values * np.conj(df)).imag, axis=-1) * grid.dx
    integrand = modulus ** 2 * v2
    del v2, modulus
    dv2 = grid.refine2(df)
    integrand *= np.conj(dv2, out=dv2)
    total = np.sum(integrand.imag, axis=-1)
    return M, p, h, l4, l6, total * grid.refined_dx


def conserved_report(f: Field, t: float | np.ndarray = 0.0, *,
                     moments: tuple | None = None
                     ) -> ConservedReport | list[ConservedReport]:
    """Evaluate every tracked functional on one field, or on each row of a
    stack, with t its time or one time per row, from one _moments pass: bit
    for bit mass, hamiltonian_u, energy_u (with the standard term form, the
    shipped default), momentum_v, mu and ecal. moments, when given, is
    _moments(f) already taken, and no pass is taken here."""
    times = np.broadcast_to(t, f.values.shape[:-1]).tolist()
    L = f.grid.L

    def report(t, m, p, h, l4, l6, cubic):
        mu_val = _mu(m, L)
        return ConservedReport(float(t), m, _hamiltonian(p, l4),
                               _energy(h, cubic, l6), _momentum_v(p, l4),
                               mu_val, _ecal(h, l6, mu_val, l4))

    return per_row(f, report, times, *(_moments(f) if moments is None else moments))
