"""Sharp Gagliardo-Nirenberg machinery on the circle.

The line inequality ||f||_L6 <= C ||f_x||_L2^(1/9) ||f||_L4^(8/9) holds with
the sharp constant C = 3^(1/6) (2*pi)^(-1/9). Its periodic variant is obtained
by extending a periodic function to the line with two linear flaps of width
delta whose L^4/L^6/gradient contributions have exact closed forms; auditing
both inequalities (and the enlargement chain between them) on concrete fields
is this module's job.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Field, TorusGrid, fft, lp_from_power_sum, power_sum
from .functionals import h1dot_sq_from_spectrum

#: Sharp constant of the line inequality, 3^(1/6) * (2*pi)^(-1/9).
CGN = 3.0 ** (1.0 / 6.0) * (2.0 * np.pi) ** (-1.0 / 9.0)
#: Derived powers used throughout the bound chain.
CGN_POW_M92 = CGN ** -4.5
CGN_POW_M18 = CGN ** -18.0


def cgn() -> float:
    """The sharp constant 3^(1/6) * (2*pi)^(-1/9) ~ 0.9791."""
    return CGN


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
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return 4.0 * np.pi * shape_factor(L, delta) ** -2


@dataclass(frozen=True)
class ExtensionProfile:
    """Closed-form data of the two linear flaps extending a periodic field.

    Each flap ramps linearly between 0 and the (rotated) boundary value over a
    width delta, so each side contributes delta*|f(0)|^p/(p+1) to the L^p
    integral and |f(0)|^2/delta to the gradient integral.
    """

    flap_l2grad: float
    flap_l4: float
    flap_l6: float


@dataclass(frozen=True)
class GnAuditRecord:
    """One audited inequality: lhs norm, rhs bound, slack = rhs - lhs."""

    lhs: float
    rhs: float
    slack: float
    satisfied: bool


class FieldNorms(NamedTuple):
    """Per-field quantities the audited bounds are assembled from; computing
    them once per field lets a batch audit sweep delta values cheaply."""

    L: float
    l4: float
    l6: float
    grad_sq: float
    f0_abs: float


def field_norms(f: Field, grids: Sequence[TorusGrid] | None = None) -> np.ndarray:
    """The norms of f's samples taken on each grid in grids (f's own grid by
    default), one FieldNorms per row and grid, as a float64 array of shape
    (len(grids), 5) for one row, or (len(grids), 5, n) for a stack of n rows:
    axis 1 holds the fields of FieldNorms in order, so
    FieldNorms(*norms[i].tolist()) is a row's record on grids[i]. Every grid
    has f's N; its period L may differ from f's.

    f0_abs = min |f| over the nodes: the extension is based at the node
    minimizing |f|, where |f|^4 * L <= int |f|^4, so f0_abs <= L^(-1/4)
    ||f||_L4 up to quadrature slack.

    The samples fix the pads, the power sums, the spectrum and f0_abs, so
    these are computed once; only the quadrature weight with its root and
    the derivative's i k_L are taken per grid. Every value has the bits of
    lp_norm, h1dot_sq and min |f| of the same samples on that grid.
    """
    grids = (f.grid,) if grids is None else grids
    if any(grid.N != f.grid.N for grid in grids):
        raise ValueError(f"every grid must have N = {f.grid.N}")
    v = f.values
    sums4, sums6 = power_sum(f, 4), power_sum(f, 6)
    spectrum = fft(v)
    out = np.empty((len(grids), len(FieldNorms._fields)) + v.shape[:-1])
    out[:, 4] = np.abs(v).min(axis=-1)
    for norms, grid in zip(out, grids):
        norms[0] = grid.L
        norms[1] = lp_from_power_sum(f, sums4, grid, 4)
        norms[2] = lp_from_power_sum(f, sums6, grid, 6)
        norms[3] = h1dot_sq_from_spectrum(f, spectrum, grid)
    return out


# the periodic record, the line record and the flaps of an audit_sweep tuple
_PERIODIC, _LINE, _FLAPS = slice(2, 6), slice(6, 10), slice(10, 13)


def audit_sweep(norms_of: Iterable[FieldNorms], deltas: Sequence[float],
                constant: float = CGN) -> Iterator[tuple]:
    """The audit of each field against each delta, in Python floats: for
    every field in order, then every delta in order, one flat tuple

        (ok, finite, lhs, rhs, slack, satisfied,
         line_lhs, line_rhs, line_slack, line_satisfied,
         flap_l2grad, flap_l4, flap_l6)

    (lhs, rhs, slack, satisfied) is the periodic inequality, the line_ four
    the line inequality on the flap extension, and the last three the flaps;
    ok says both inequalities hold and the line rhs is within 1e-12 of the
    periodic one (the enlargement chain), and finite says all four lhs and
    rhs are finite.

    Every audit formula is written here once (gn1_record,
    gn0_extension_record and flap_integrals state them): a factor of
    (L, delta), shape_factor's or flap_scale's, is computed once per period,
    a power of a norm once per field, and each keeps the IEEE operations and
    operand order of its formula, so every value has the bits of the formula
    evaluated row by row. The norms of one period come in a run: the factors
    are recomputed where L changes. The deltas are not checked. A power of a
    norm that overflows a Python float raises OverflowError, before any tuple
    of that field.
    """
    L = None
    for norms_L, l4, l6, grad_sq, f0 in norms_of:
        if norms_L != L:
            L = norms_L
            # per delta: 2/(delta sqrt(L)), C (1 + 2 delta/5L)^(2/9), 2 delta
            per_delta = [(flap_scale(L, delta),
                          constant * shape_factor(L, delta) ** (2.0 / 9.0),
                          2.0 * delta, delta) for delta in deltas]
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


def _at(norms: FieldNorms, delta: float, constant: float,
        check_base: bool = False) -> tuple:
    """audit_sweep of one field at one delta, after the argument checks of
    the record functions (f0_abs only where check_base)."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if check_base and norms.f0_abs < 0:
        raise ValueError(f"f0_abs must be nonnegative, got {norms.f0_abs}")
    return next(audit_sweep((norms,), (delta,), constant))


def _record(lhs, rhs, slack, satisfied) -> GnAuditRecord:
    return GnAuditRecord(lhs, rhs, slack, bool(satisfied))


def flap_integrals(f0_abs: float, delta: float) -> ExtensionProfile:
    """Exact flap contributions for boundary value |f(0)| and width delta:
    the flaps of audit_sweep."""
    # the flaps depend on f0_abs and delta alone; the other norms are 0
    norms = FieldNorms(1.0, 0.0, 0.0, 0.0, f0_abs)
    return ExtensionProfile(*_at(norms, delta, CGN, check_base=True)[_FLAPS])


def gn1_record(norms: FieldNorms, delta: float,
               constant: float = CGN) -> GnAuditRecord:
    """Periodic inequality from precomputed norms, the periodic record of
    audit_sweep: lhs = ||f||_L6, rhs = C (1 + 2d/5L)^(2/9)
    (||f_x||^2 + (2/(d*sqrt(L))) ||f||_L4^2)^(1/18) ||f||_L4^(8/9).

    As a view of the whole sweep it raises OverflowError where a power of
    the extension's norms (||f||_L6^6, |f(0)|^6) overflows a float, as
    gn0_extension_record does.
    """
    return _record(*_at(norms, delta, constant)[_PERIODIC])


def gn0_extension_record(norms: FieldNorms, delta: float,
                         constant: float = CGN) -> tuple[GnAuditRecord, ExtensionProfile]:
    """Line inequality on the flap extension, from precomputed norms: the line
    record and flaps of audit_sweep.

    The rhs computed here is enlarged, term by term, into the rhs of the
    periodic record, which is the content of the derivation chain.
    """
    case = _at(norms, delta, constant, check_base=True)
    return _record(*case[_LINE]), ExtensionProfile(*case[_FLAPS])
