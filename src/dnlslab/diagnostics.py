"""Proof-side quantities monitored along gauged trajectories.

For a gauged field v these are the ratio f = ||v||_L4^4 / ||v||_L6^3, its
Hoelder ceiling sqrt(M), the inequality-chain lower bound coming from the
periodic Gagliardo-Nirenberg bound and the conserved gauged energy, the
correction terms gamma and eta, and the modulation frequency alpha used to
trade gauged energy against momentum on the frequency lattice 2*pi*Z/L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import Trajectory
from .functionals import ConservedReport, _moments, _mu, ecal, mass, momentum_v
from . import gn
from .grid import Field, lp_norm, per_row


class ZeroFieldError(ValueError):
    """Raised when a quantity undefined on the zero field is requested."""


@dataclass(frozen=True)
class DiagnosticsSample:
    """Proof-side quantities at one time.

    lower_bound_f is absent when the base of its -1/4 power is not positive;
    alpha is absent until a case prescription assigns it.
    """

    t: float
    l4: float
    l6: float
    h1dot: float
    f: float
    gamma: float
    eta: float
    lower_bound_f: float | None
    holder_upper: float
    alpha: float | None
    case_tag: str

    COLUMNS = ("t", "l4", "l6", "h1dot", "f", "gamma", "eta",
               "lower_bound_f", "holder_upper", "alpha", "case_tag")


@dataclass(frozen=True)
class CaseRecord:
    """One frame of a case report: the sample, the applicable case inequality
    (lhs = ||v||_L4^4/4 against its conserved-quantity bound), and the defect
    M f^4 - 16 (1+2d/5L)^(-4) C^(-18) M - f^6 whose strict negativity below
    the mass threshold the argument exploits."""

    sample: DiagnosticsSample
    case_lhs: float | None
    case_rhs: float | None
    defect: float | None
    below_threshold: bool
    violations: tuple[str, ...]

    @property
    def flagged(self) -> bool:
        return self.below_threshold and bool(self.violations)


def _row_ratio(l4: float, l6: float) -> float:
    """||v||_L4^4 / ||v||_L6^3 of one row from its norms."""
    if l6 == 0.0:
        raise ZeroFieldError("f = ||v||_L4^4 / ||v||_L6^3 is undefined on the zero field")
    return l4 ** 4 / l6 ** 3


def f_ratio(v: Field) -> float | list[float]:
    """||v||_L4^4 / ||v||_L6^3 per row; Hoelder gives f_ratio <= sqrt(mass).
    A row whose L6 norm is zero raises ZeroFieldError."""
    return per_row(v, _row_ratio, lp_norm(v, 4), lp_norm(v, 6))


def _sample(delta: float, ecal_val: float, L: float, M0: float | None,
            t: float, mass_val: float, h1dot_sq_val: float, l4: float,
            l6: float) -> DiagnosticsSample:
    """One row's DiagnosticsSample from its M, ||v_x||^2, ||v||_L4 and ||v||_L6
    in a _moments pass, full or not (the same bits). Its alpha is _case_alpha's
    for the conserved mass M0, or None when M0 is None."""
    f = _row_ratio(l4, l6)
    mu_val = _mu(mass_val, L)
    gamma = (gn.flap_scale(L, delta) - 0.375 * mu_val * l4 ** 2) * l4 ** 2 / l6 ** 6
    shape = gn.shape_factor(L, delta)
    eta = 1.0 / 16.0 - shape ** -4 * gn.CGN_POW_M18 / f ** 4
    base = 1.0 + 16.0 * ecal_val / l6 ** 6 + 16.0 * gamma
    lower = 2.0 * gn.CGN_POW_M92 / shape * base ** -0.25 if base > 0 else None
    excess = eta + gamma
    alpha = None if M0 is None else _case_alpha(excess, l6, M0, L)
    return DiagnosticsSample(
        t=float(t), l4=l4, l6=l6, h1dot=float(np.sqrt(h1dot_sq_val)), f=f,
        gamma=gamma, eta=eta, lower_bound_f=lower,
        holder_upper=float(np.sqrt(mass_val)), alpha=alpha,
        case_tag="case1" if excess <= 0 else "case2")


def proof_sample(v: Field, delta: float, ecal_val: float,
                 t: float | np.ndarray = 0.0
                 ) -> DiagnosticsSample | list[DiagnosticsSample]:
    """Evaluate the bound-chain quantities on one field, or on each row of a
    stack, with t its time or one time per row.

    Everything is computed from v itself except ecal_val, which the caller
    supplies (the conserved value frozen at t = 0 along trajectories, or
    ecal(v) for standalone audits). A row whose L6 norm is zero raises
    ZeroFieldError.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    times = np.broadcast_to(t, v.values.shape[:-1]).tolist()
    M, _, h, l4, l6, _ = _moments(v, full=False)
    return per_row(v, partial(_sample, delta, ecal_val, v.grid.L, None), times,
                   M, h, l4, l6)


def _case_alpha(excess: float, l6: float, M_val: float, L: float) -> float:
    """The case prescription's modulation frequency of a frame with
    eta + gamma = excess and L6 norm l6: 2*pi/L in case 1 (excess <= 0), and
    in case 2 the smallest lattice frequency in 2*pi*Z/L strictly above the
    balance target sqrt(excess/M_val) * l6^3, which needs M_val > 0."""
    unit = 2.0 * np.pi / L
    if excess <= 0:
        return unit
    if M_val <= 0:
        raise ValueError(f"M_val must be positive, got {M_val}")
    target = np.sqrt(excess / M_val) * l6 ** 3
    return unit * (np.floor(target / unit) + 1.0)


def _lattice_index(alpha: float, L: float) -> int:
    """The j of alpha = 2*pi*j/L, or ValueError when alpha is off that lattice."""
    j = alpha * L / (2.0 * np.pi)
    if abs(j - round(j)) > 1e-9 * max(1.0, abs(j)):
        raise ValueError(f"alpha = {alpha} is not on the frequency lattice 2*pi*Z/L")
    return round(j)


def modulate(v: Field, alpha: float) -> Field:
    """Multiply by exp(i*alpha*x); alpha must sit on the lattice 2*pi*Z/L."""
    _lattice_index(alpha, v.grid.L)
    return Field(v.grid, np.exp(1j * alpha * v.grid.x) * v.values)


def m1_identity_check(v: Field, alpha: float) -> float | list[float]:
    """|LHS - RHS| of the modulation identity, per row,

        P(v) + (1/4) int |v|^4  =  -Ecal(e^{i a x} v)/(2a) + (a/2) M(v)
                                   + Ecal(v)/(2a),

    an exact algebraic identity, so the return is floating-point noise.
    """
    if _lattice_index(alpha, v.grid.L) == 0:
        raise ValueError(f"alpha = {alpha} must be a nonzero lattice frequency")
    return per_row(v, partial(_m1_gap, alpha), momentum_v(v), lp_norm(v, 4),
                   ecal(modulate(v, alpha)), mass(v), ecal(v))


def _m1_gap(alpha: float, p: float, l4: float, ecal_phi: float, m: float,
            ecal_v: float) -> float:
    """One row's |LHS - RHS| of m1_identity_check from its reductions."""
    lhs = p + 0.25 * l4 ** 4
    rhs = -ecal_phi / (2.0 * alpha) + 0.5 * alpha * m + ecal_v / (2.0 * alpha)
    return abs(lhs - rhs)


def _degenerate_sample(t: float) -> DiagnosticsSample:
    return DiagnosticsSample(t=float(t), l4=0.0, l6=0.0, h1dot=0.0, f=float("nan"),
                             gamma=float("nan"), eta=float("nan"),
                             lower_bound_f=None, holder_upper=0.0, alpha=None,
                             case_tag="degenerate")


def _frame_samples(traj: Trajectory, delta: float, ecal_val: float, M0: float,
                   moments: list[tuple] | None = None):
    """(t, DiagnosticsSample) per frame of traj, in order, with its case
    alpha for the conserved mass M0, or None for a zero frame. The norms come
    from one _moments pass per chunk of Trajectory.chunks: moments, in chunk
    order, when given, else a pass without the derivative's pad taken here,
    chunk by chunk. A frame's sample is built when it is reached, so a frame
    raises where it would alone."""
    if moments is None:
        moments = (_moments(f, full=False) for _, f in traj.chunks)
    for (rows, f), (M, _, h, l4, l6, _) in zip(traj.chunks, moments, strict=True):
        zero = np.abs(f.values).max(axis=-1) == 0.0
        for t, is_zero, *columns in zip(traj.times[rows].tolist(), zero.tolist(),
                                        M, h, l4, l6):
            yield t, None if is_zero else _sample(delta, ecal_val, traj.grid.L, M0,
                                                  t, *columns)


# Tolerances of the per-frame checks. Hoelder and the GN lower bound carry the
# contract tolerances; the case inequality and the defect sign absorb the
# conserved-quantity drift budget as well.
HOLDER_TOL = 1e-12
LOWER_BOUND_TOL = 1e-10
CASE_TOL = 1e-8
DEFECT_TOL = 1e-8


def case_report(traj: Trajectory, delta: float, conserved0: ConservedReport,
                *, moments: list[tuple] | None = None) -> list[CaseRecord]:
    """Evaluate the applicable case inequality and the defect on every frame
    of a gauged (beta = 3/4) trajectory.

    Conserved quantities are frozen at their t = 0 values; per-frame norms are
    instantaneous. A frame is flagged only when the mass sits below the
    threshold yet a bound-chain item fails beyond tolerance, which would
    indicate a numerical or transcription bug, never a refutation.

    The norms are reduced once per chunk of Trajectory.chunks. moments, when
    given, is the functionals._moments pass of each chunk, in order (the full
    one, as the conserved reports of the chunks take it, gives the same
    bits); without it each chunk takes its own pass without the derivative's
    pad. Each frame's sample is built once, with its alpha.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    L = traj.grid.L
    M0, P0, E0 = conserved0.M, conserved0.P, conserved0.Ecal
    below = M0 < gn.mass_threshold(L, delta)
    defect_const = 16.0 * gn.shape_factor(L, delta) ** -4 * gn.CGN_POW_M18

    records = []
    for t, sample in _frame_samples(traj, delta, E0, M0, moments):
        if sample is None:
            records.append(CaseRecord(_degenerate_sample(t), None, None, None,
                                      below, ()))
            continue
        violations = []
        if sample.f > sample.holder_upper * (1.0 + HOLDER_TOL):
            violations.append("holder")
        if (sample.lower_bound_f is not None
                and sample.f < sample.lower_bound_f * (1.0 - LOWER_BOUND_TOL)):
            violations.append("lower_bound")

        lhs = 0.25 * sample.l4 ** 4
        rhs = -P0 + np.pi / L * M0 + E0 / (2.0 * sample.alpha)
        if sample.case_tag == "case2":
            rhs += np.sqrt(M0 * (sample.eta + sample.gamma)) * sample.l6 ** 3
        if lhs > rhs + CASE_TOL * max(1.0, abs(rhs), lhs):
            violations.append("case_bound")

        defect = M0 * sample.f ** 4 - defect_const * M0 - sample.f ** 6
        if below and defect > DEFECT_TOL * max(1.0, M0 * sample.f ** 4 + sample.f ** 6):
            violations.append("defect_sign")

        records.append(CaseRecord(sample, lhs, rhs, defect, below,
                                  tuple(violations)))
    return records
