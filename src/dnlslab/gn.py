"""Sharp Gagliardo-Nirenberg machinery on the circle.

The line inequality ||f||_L6 <= C ||f_x||_L2^(1/9) ||f||_L4^(8/9) holds with
the sharp constant C = 3^(1/6) (2*pi)^(-1/9). Its periodic variant is obtained
by extending a periodic function to the line with two linear flaps of width
delta whose L^4/L^6/gradient contributions have exact closed forms. Auditing
both inequalities (and the enlargement chain between them) on concrete fields
is this module's job: field_norms takes the norms of the fields, and
audit_sweep, the one audit entry point, audits them against each delta.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .grid import Field, TorusGrid, fft, lp_from_power_sum
from .functionals import h1dot_sq_from_spectrum

#: Sharp constant of the line inequality, 3^(1/6) * (2*pi)^(-1/9).
CGN = 3.0 ** (1.0 / 6.0) * (2.0 * np.pi) ** (-1.0 / 9.0)
#: Derived powers used throughout the bound chain.
CGN_POW_M92 = CGN ** -4.5
CGN_POW_M18 = CGN ** -18.0


def shape_factor(L: float, delta: float) -> float:
    """The shape factor 1 + 2*delta/(5L) of the flap extension."""
    return 1.0 + 2.0 * delta / (5.0 * L)


def flap_scale(L: float, delta: float) -> float:
    """The periodic GN weight 2/(delta*sqrt(L)) of ||f||_L4^2, a float."""
    return 2.0 / (delta * math.sqrt(L))


def mass_threshold(L: float, delta: float) -> float:
    """Mass threshold 4*pi*(1 + 2*delta/(5L))^(-2).

    Monotone decreasing in delta and increasing in L; the supremum over
    delta -> 0 is 4*pi, independent of the period.
    """
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    return 4.0 * np.pi * shape_factor(L, delta) ** -2


def below_threshold(M: float, L: float, delta: float) -> bool:
    """Whether the mass M is below mass_threshold(L, delta): the one gate of
    the bound chain, which a scan member and its frames read alike."""
    return M < mass_threshold(L, delta)


class FieldNorms(NamedTuple):
    """Per-field quantities on one period that the audited bounds are built
    from; computing them once per field lets an audit sweep deltas cheaply."""

    l4: float
    l6: float
    grad_sq: float
    f0_abs: float


def field_norms(f: Field, grids: Sequence[TorusGrid] | None = None) -> np.ndarray:
    """The norms of f's samples taken on each grid in grids (f's own grid by
    default), one FieldNorms per row and grid, as a float64 array of shape
    (len(grids), 4) for one row, or (len(grids), 4, n) for a stack of n rows:
    axis 1 holds the fields of FieldNorms in order, so
    FieldNorms(*norms[i].tolist()) is a row's record on grids[i]. Every grid
    has f's N; its period L may differ from f's.

    f0_abs = min |f| over the nodes: the extension is based at the node
    minimizing |f|, where |f|^4 * L <= int |f|^4, so f0_abs <= L^(-1/4)
    ||f||_L4 up to quadrature slack.

    The samples fix the spectrum, the pad, the power sums and f0_abs, so
    these are computed once: one forward FFT of the samples, whose one pad
    (grid.resample2) gives the modulus that both power sums take, and
    whose spectrum every grid's derivative transforms back. Only the
    quadrature weight with its root and the derivative's i k_L are taken
    per grid. Every value has the bits of lp_norm, h1dot_sq and min |f| of
    the same samples on that grid.
    """
    grids = (f.grid,) if grids is None else grids
    if any(grid.N != f.grid.N for grid in grids):
        raise ValueError(f"every grid must have N = {f.grid.N}")
    v = f.values
    spectrum = fft(v)
    modulus = np.abs(f.grid.resample2(spectrum))
    sums4, sums6 = np.sum(modulus ** 4, axis=-1), np.sum(modulus ** 6, axis=-1)
    del modulus
    out = np.empty((len(grids), len(FieldNorms._fields)) + v.shape[:-1])
    out[:, 3] = np.abs(v).min(axis=-1)
    for norms, grid in zip(out, grids):
        norms[0] = lp_from_power_sum(f, sums4, grid, 4)
        norms[1] = lp_from_power_sum(f, sums6, grid, 6)
        norms[2] = h1dot_sq_from_spectrum(f, spectrum, grid)
    return out


def audit_sweep(L: float, norms_of: Iterable[FieldNorms], deltas: Sequence[float],
                constant: float = CGN) -> Iterator[tuple]:
    """The audit of each field of period L against each delta, in Python
    floats: per field in order, then per delta in order, one flat tuple

        (ok, finite, lhs, rhs, slack, satisfied,
         line_lhs, line_rhs, line_slack, line_satisfied,
         flap_l2grad, flap_l4, flap_l6)

    (lhs, rhs, slack, satisfied) is the periodic inequality, the line_ four
    the line inequality on the flap extension, and the last three what its
    two flaps add: each flap ramps linearly between 0 and |f(0)| = f0_abs
    over a width delta, so each adds delta*f0_abs^p/(p+1) to the L^p
    integral and f0_abs^2/delta to the gradient integral. ok says both
    inequalities hold and the line rhs is within 1e-12 of the periodic one
    (the enlargement chain), and finite says all four lhs and rhs are finite.

    Every audit formula is written here once: a factor of (L, delta),
    shape_factor's or flap_scale's, is computed once per delta, a power of a
    norm once per field, and each keeps the IEEE operations and operand
    order of its formula, so every value has the bits of the formula
    evaluated row by row. The deltas are not checked. A power of a norm that
    overflows a Python float raises OverflowError, before any tuple of that
    field.
    """
    # per delta: 2/(delta sqrt(L)), C (1 + 2 delta/5L)^(2/9), 2 delta
    per_delta = [(flap_scale(L, delta),
                  constant * shape_factor(L, delta) ** (2.0 / 9.0),
                  2.0 * delta, delta) for delta in deltas]
    for l4, l6, grad_sq, f0 in norms_of:
        l4_2, l4_89, l4_4 = l4 ** 2, l4 ** (8.0 / 9.0), l4 ** 4
        l6_6, l6_finite = l6 ** 6, math.isfinite(l6)
        two_f0_2, f0_4, f0_6 = 2.0 * f0 ** 2, f0 ** 4, f0 ** 6
        for scale, growth, two_delta, delta in per_delta:
            rhs = growth * (grad_sq + scale * l4_2) ** (1.0 / 18.0) * l4_89
            slack = rhs - l6
            l2grad = two_f0_2 / delta
            flap_l4 = two_delta * f0_4 / 5.0
            flap_l6 = two_delta * f0_6 / 7.0
            line_lhs = (l6_6 + flap_l6) ** (1.0 / 6.0)
            line_rhs = (constant * (grad_sq + l2grad) ** (1.0 / 18.0)
                        * (l4_4 + flap_l4) ** (2.0 / 9.0))
            line_slack = line_rhs - line_lhs
            satisfied = slack >= -1e-12 * rhs
            line_satisfied = line_slack >= -1e-12 * line_rhs
            yield ((satisfied and line_satisfied and line_rhs <= rhs * (1.0 + 1e-12)),
                   (l6_finite and math.isfinite(rhs) and math.isfinite(line_lhs)
                    and math.isfinite(line_rhs)),
                   l6, rhs, slack, satisfied,
                   line_lhs, line_rhs, line_slack, line_satisfied,
                   l2grad, flap_l4, flap_l6)

