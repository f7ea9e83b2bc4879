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
from dataclasses import dataclass

import numpy as np

from .grid import Field, lp_norm, per_row
from .functionals import h1dot_sq

#: Sharp constant of the line inequality, 3^(1/6) * (2*pi)^(-1/9).
CGN = 3.0 ** (1.0 / 6.0) * (2.0 * np.pi) ** (-1.0 / 9.0)
#: Derived powers used throughout the bound chain.
CGN_POW_M92 = CGN ** -4.5
CGN_POW_M18 = CGN ** -18.0


def cgn() -> float:
    """The sharp constant 3^(1/6) * (2*pi)^(-1/9) ~ 0.9791."""
    return CGN


def mass_threshold(L: float, delta: float) -> float:
    """Mass threshold 4*pi*(1 + 2*delta/(5L))^(-2).

    Monotone decreasing in delta and increasing in L; the supremum over
    delta -> 0 is 4*pi, independent of the period.
    """
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return 4.0 * np.pi * (1.0 + 2.0 * delta / (5.0 * L)) ** -2


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


def _satisfied(lhs: float, rhs: float) -> bool:
    return bool(rhs - lhs >= -1e-12 * rhs)


def flap_integrals(f0_abs: float, delta: float) -> ExtensionProfile:
    """Exact flap contributions for boundary value |f(0)| and width delta."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if f0_abs < 0:
        raise ValueError(f"f0_abs must be nonnegative, got {f0_abs}")
    return ExtensionProfile(
        flap_l2grad=2.0 * f0_abs ** 2 / delta,
        flap_l4=2.0 * delta * f0_abs ** 4 / 5.0,
        flap_l6=2.0 * delta * f0_abs ** 6 / 7.0,
    )


@dataclass(frozen=True)
class FieldNorms:
    """Per-field quantities the audited bounds are assembled from; computing
    them once per field lets a batch audit sweep delta values cheaply."""

    L: float
    l4: float
    l6: float
    grad_sq: float
    f0_abs: float


def field_norms(f: Field) -> FieldNorms | list[FieldNorms]:
    """The norms of f, or of each row of a stack, and f0_abs = min |f| over
    the nodes: the extension is based at the node minimizing |f|, where
    |f|^4 * L <= int |f|^4, so f0_abs <= L^(-1/4) ||f||_L4 up to quadrature
    slack."""
    L = f.grid.L
    return per_row(f, lambda *norms: FieldNorms(L, *norms), lp_norm(f, 4),
                   lp_norm(f, 6), h1dot_sq(f),
                   per_row(f, float, np.abs(f.values).min(axis=-1)))


def gn1_record(norms: FieldNorms, delta: float,
               constant: float = CGN) -> GnAuditRecord:
    """Periodic inequality from precomputed norms:
    lhs = ||f||_L6, rhs = C (1 + 2d/5L)^(2/9)
          (||f_x||^2 + (2/(d*sqrt(L))) ||f||_L4^2)^(1/18) ||f||_L4^(8/9).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    bracket = norms.grad_sq + 2.0 / (delta * math.sqrt(norms.L)) * norms.l4 ** 2
    rhs = (constant * (1.0 + 2.0 * delta / (5.0 * norms.L)) ** (2.0 / 9.0)
           * bracket ** (1.0 / 18.0) * norms.l4 ** (8.0 / 9.0))
    return GnAuditRecord(lhs=norms.l6, rhs=rhs, slack=rhs - norms.l6,
                         satisfied=_satisfied(norms.l6, rhs))


def gn0_extension_record(norms: FieldNorms, delta: float,
                         constant: float = CGN) -> tuple[GnAuditRecord, ExtensionProfile]:
    """Line inequality on the flap extension, from precomputed norms.

    The rhs computed here is enlarged, term by term, into the rhs of the
    periodic record, which is the content of the derivation chain.
    """
    prof = flap_integrals(norms.f0_abs, delta)
    lhs = (norms.l6 ** 6 + prof.flap_l6) ** (1.0 / 6.0)
    grad_sq = norms.grad_sq + prof.flap_l2grad
    l4_4 = norms.l4 ** 4 + prof.flap_l4
    rhs = constant * grad_sq ** (1.0 / 18.0) * l4_4 ** (2.0 / 9.0)
    rec = GnAuditRecord(lhs=lhs, rhs=rhs, slack=rhs - lhs,
                        satisfied=_satisfied(lhs, rhs))
    return rec, prof

