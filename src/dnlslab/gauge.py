"""Gauge transform for the derivative NLS flow on the circle.

The profile map multiplies by the unimodular factor exp(-i*beta*I) with I the
mean-zero antiderivative of |f|^2; on trajectories it is composed with the
Galilean frame shift x -> x - 2*beta*mu*t generated by the conserved mean
mass density mu.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Trajectory, _psi_integral
from .functionals import mu
from .grid import Field, antideriv_meanzero, fft, translate

# Sign of the beta^2*mu^2 offset in the nonlocal coefficient psi. Fixed by the
# gauge-consistency oracle: with "plus", the gauged plane wave solves the
# gauged equation exactly and the residual of gauged generic trajectories
# vanishes at the integrator's order.
SIGN_MU2_CHOICES = ("plus", "minus")
DEFAULT_SIGN_MU2 = "plus"


def gauge_profile(f: Field, beta: float) -> Field:
    """Multiply f by exp(-i*beta*I(f)), I the mean-zero antiderivative of |f|^2.

    Preserves |f| pointwise, hence also the mass and every L^p norm; as I
    depends only on |f|, gauge_profile(f, -beta) is its exact inverse.
    """
    absq = Field(f.grid, np.abs(f.values) ** 2)
    I = antideriv_meanzero(absq)
    return Field(f.grid, np.exp(-1j * beta * I.values.real) * f.values)


def psi(v: Field, beta: float, mu_val: float,
        sign_mu2: str = DEFAULT_SIGN_MU2) -> float:
    """Spatially constant coefficient of the nonlocal term in the gauged flow:

        (beta/L) * int [2 Im(v conj(v_x)) + (3/2 - 2*beta) |v|^4] dx
            +/- beta^2 * mu^2

    with the sign per sign_mu2 (default "plus", the oracle-selected form).
    """
    if sign_mu2 not in SIGN_MU2_CHOICES:
        raise ValueError(f"sign_mu2 must be one of {SIGN_MU2_CHOICES}, got {sign_mu2!r}")
    if mu_val < 0:
        raise ValueError("mu_val must be nonnegative")
    offset = beta * beta * mu_val * mu_val
    if sign_mu2 == "minus":
        offset = -offset
    return float(_psi_integral(v.grid, beta, fft(v.values))) + offset


def gauge_trajectory(traj: Trajectory, beta: float) -> Trajectory:
    """Gauge every frame of a trajectory and shift it into the moving frame.

    Per frame (u(t), t): apply gauge_profile first, then translate by
    s = 2*beta*mu*t, with mu frozen at its value on the first frame (it is a
    conserved density). The frames are gauged one chunk of
    Trajectory.chunks at a time.
    """
    mu0 = mu(Field(traj.grid, traj.values[0]))
    shifts = np.array([2.0 * beta * mu0 * t for t in traj.times.tolist()])
    values = np.empty_like(traj.values)
    for rows, u in traj.chunks():
        w = gauge_profile(u, beta)
        s = shifts[rows]
        values[rows] = translate(w, s).values
        # s = 0 (first frame, or beta = 0) is an exact identity; keeping the
        # gauged row, not its spectral round trip, keeps it exact discretely
        values[rows][s == 0.0] = w.values[s == 0.0]
    return Trajectory(traj.grid, traj.times, values)
