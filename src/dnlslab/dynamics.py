"""Time integration of the derivative NLS flow and of its gauged variant.

Spatial discretization is pseudospectral: the dispersive part i*d^2/dx^2 is
diagonal in Fourier space and handled exactly; nonlinear products are formed
in physical space and dealiased by the 2/3 rule. The default integrator is
integrating-factor RK4 (classical RK4 in the variable exp(-t*symbol)*u_hat);
ETDRK4 with contour-quadrature coefficients is available as an alternative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .functionals import mu
from .grid import Field, TorusGrid, dealias_band, fft, ifft

INTEGRATOR_CHOICES = ("ifrk4", "etdrk4")
EQUATION_CHOICES = ("dnls1", "dnls2")
# Wu's gauge exponent 3/4: the default beta, and the one scan and diagnose use
GAUGE_BETA = 0.75


class SimulationError(RuntimeError):
    """Base for abnormal simulation termination; carries the hit time and the
    partial trajectory recorded so far."""

    def __init__(self, message: str, t: float, partial: "Trajectory | None" = None):
        super().__init__(message)
        self.t = t
        self.partial = partial


class NonFiniteError(SimulationError):
    """A sample became NaN/Inf (numerical blowup or instability)."""


class BlowupGuardError(SimulationError):
    """The H^1 seminorm exceeded the configured guard threshold.

    A guard hit is reported, never claimed to be mathematical blowup.
    """

    def __init__(self, message: str, t: float, h1dot: float,
                 partial: "Trajectory | None" = None):
        super().__init__(message, t, partial)
        self.h1dot = h1dot


class CflWarning(UserWarning):
    """Advective step-size heuristic dt <= 0.5/(k_max * max|u|^2) violated."""


@dataclass(frozen=True)
class SimConfig:
    """Time-stepping parameters for one simulation."""

    dt: float
    T: float
    record_stride: int = 1
    integrator: str = "ifrk4"
    equation: str = "dnls1"
    beta: float = GAUGE_BETA
    guard_factor: float = 1e3

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.dt > self.T:
            raise ValueError(f"dt = {self.dt} exceeds horizon T = {self.T}")
        if int(self.record_stride) < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.integrator not in INTEGRATOR_CHOICES:
            raise ValueError(f"integrator must be one of {INTEGRATOR_CHOICES}, got {self.integrator!r}")
        if self.equation not in EQUATION_CHOICES:
            raise ValueError(f"equation must be one of {EQUATION_CHOICES}, got {self.equation!r}")
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not self.guard_factor > 0:
            raise ValueError("guard_factor must be positive")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples of one simulation on one grid: times of shape (n,),
    t_0 = 0 and strictly increasing, and values of shape (n, N), one row of
    finite samples per time. Both are stored read-only: an array of the right
    dtype is kept, not copied, and made read-only."""

    grid: TorusGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.complex128)
        if times.ndim != 1 or times.size == 0 or values.shape != (times.size, self.grid.N):
            raise ValueError("a trajectory needs one or more times, and one row of "
                             f"grid.N = {self.grid.N} samples per time")
        if times[0] != 0.0:
            raise ValueError("first frame must be at t = 0")
        if not np.all(np.diff(times) > 0):
            raise ValueError("frame times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("field samples must be finite (no NaN/Inf)")
        for name, arr in (("times", times), ("values", values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def frames(self) -> tuple:
        """(t, Field) pairs, one per time; each Field shares its row of values."""
        return tuple((t, Field(self.grid, row))
                     for t, row in zip(self.times.tolist(), self.values))

    @cached_property
    def chunks(self) -> tuple:
        """(rows, Field) per chunk of grid.row_chunks, built once: the analysis
        works on these stacks, one call per chunk; each Field shares its rows."""
        return tuple((rows, Field(self.grid, self.values[rows]))
                     for rows in self.grid.row_chunks(len(self.times)))


def dispersion_symbol(grid: TorusGrid) -> np.ndarray:
    """Per-mode multiplier of the linear part i*d^2/dx^2, FFT order."""
    return -1j * grid.k ** 2


def _dealias_drop(grid: TorusGrid) -> slice:
    """The modes |m| > grid.dealias_band(N), which the 2/3 rule zeroes, as
    one slice of FFT order: a basic slice costs less to zero than a boolean
    mask. The gauged kernel zeroes it in its result; the ungauged one zeroes
    it once per run in its copy of grid._ik (see _make_nonlinear)."""
    band = dealias_band(grid.N)
    return slice(band + 1, grid.N - band)


def _complex_full(value: float | complex, shape: tuple) -> np.ndarray:
    """value as a complex128 array of the given shape. A real value gets the
    imaginary part +0.0, the value numpy's cast of a real operand gives, so a
    product with this array keeps the bits of the product with the value."""
    return np.full(shape, value, dtype=np.complex128)


def _real_factor_buffer(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A complex128 array of zeros and the float64 view of its real part. A
    real factor written into the view stands, with its imaginary part +0.0,
    for the factor as numpy's cast would make it, so a product with complex
    data keeps its bits and runs the complex loop without the cast."""
    buf = np.zeros(shape, dtype=np.complex128)
    return buf, buf.real


def _cubic(u: np.ndarray, absq: np.ndarray, absq_re: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """|u|^2 u, the physical-space product of the ungauged flow, into out
    when given; |u|^2 goes into absq_re, the real part of the complex array
    absq of u's shape (_real_factor_buffer)."""
    np.square(np.abs(u), out=absq_re)
    return np.multiply(absq, u, out=out)


def _nl_dnls1(ik_keep: np.ndarray, u: np.ndarray, absq: np.ndarray,
              absq_re: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Spectral nonlinear term d/dx(|u|^2 u) of the ungauged flow, for spectra
    of shape (..., N); ik_keep is grid._ik with the modes of _dealias_drop
    set to zero, so one product differentiates and dealiases. u and absq are
    complex arrays of F's shape that the kernel owns: u takes the samples,
    absq is _cubic's."""
    cubic = _cubic(ifft(F, u), absq, absq_re)
    return ik_keep * fft(cubic, cubic)


def _ungauged_part(grid: TorusGrid, batch: tuple, lead: tuple) -> tuple:
    """ik_keep and the |u|^2 buffer (_real_factor_buffer) of the ungauged
    kernel, for spectra of shape lead + (N,); ik_keep has the shape batch +
    (N,) (see _make_nonlinear)."""
    ik_keep = grid._ik.copy()
    ik_keep[_dealias_drop(grid)] = 0.0
    return (*_batch_shaped((ik_keep,), batch),
            *_real_factor_buffer(lead + (grid.N,)))


def _quartic_integral(grid: TorusGrid, F: np.ndarray) -> np.ndarray | np.float64:
    """Exact int |v|^4 per spectrum of shape (..., N), via the 2x padded grid;
    shape (..., 1) for a stack, a scalar for one spectrum."""
    sums = np.add.reduce(np.abs(grid.resample2(F)) ** 4, axis=-1,
                         keepdims=F.ndim > 1)
    return sums * grid.refined_dx


def _psi_integral(grid: TorusGrid, beta: float, F: np.ndarray,
                  ik_imag: np.ndarray | None = None) -> np.ndarray | float:
    """The integral part of the nonlocal coefficient psi,
    (beta/L) int [2 Im(v conj(v_x)) + (3/2 - 2b)|v|^4], per spectrum of shape
    (..., N); shape (..., 1) for a stack, a Python float for one spectrum,
    whose scalar steps run in Python floats (the same IEEE operations as on
    numpy scalars, at less cost per step). ik_imag is grid._ik.imag, which a
    stepping kernel passes in once per run, of shape (N,) or at F's shape."""
    if ik_imag is None:
        ik_imag = grid._ik.imag
    sums = np.add.reduce(ik_imag * np.square(np.abs(F)), axis=-1,
                         keepdims=F.ndim > 1)
    # The quartic factor is exactly 0.0 at beta = 3/4, so the padded transform
    # is skipped there; fac * 0.0 keeps the arithmetic of the unskipped kernel.
    fac = 1.5 - 2.0 * beta
    q = _quartic_integral(grid, F) if fac != 0.0 else 0.0
    if F.ndim == 1:
        sums, q = float(sums), float(q)
    im_mom = -(grid.L / grid.N ** 2) * sums
    return beta / grid.L * (2.0 * im_mom + fac * q)


def _batch_shaped(arrays: tuple, lead: tuple) -> tuple:
    """arrays with each 1-D ndarray (per mode, or per float of a spectrum's
    float64 view) repeated to shape lead + its own shape, as a C-contiguous
    copy; scalars, and everything when lead is (), as they are.

    A product of a (B, N) batch with an (N,) operand makes numpy run B short
    inner loops; with both at (B, N) it runs one coalesced loop over the
    same values, so every product keeps its bits.
    """
    if not lead:
        return arrays
    return tuple(np.broadcast_to(a, lead + a.shape).copy()
                 if isinstance(a, np.ndarray) else a for a in arrays)


def _gauged_constants(grid: TorusGrid, beta: float, mu_val: float | np.ndarray,
                      batch: tuple = (), lead: tuple = ()):
    """What _nl_dnls2 needs besides the spectrum, computed once per run, for
    spectra of shape lead + (N,), with mu a scalar or a column: beta; bc, the
    real factors [beta*mu; 2(1 - beta)] of |v|^2, one float64 array of shape
    (2, ..., N); beta(1/2 - beta), the factor of |v|^4, as a float64 array;
    1 - 2beta and 1j as complex arrays (_complex_full); beta^2*mu^2;
    grid._ik and grid._ik.imag.

    With batch = (), the per-mode arrays have shape (N,) (bc's rows too,
    with a unit axis for each axis of lead) and broadcast over any stack.
    For a batch of members (batch = lead, mu a lead + (1,) column), they
    have the batch's shape (_batch_shaped); beta^2*mu^2 stays a column,
    since it is added to the column psi integral.
    """
    shape = batch + (grid.N,)
    ik, ik_imag = _batch_shaped((grid._ik, grid._ik.imag.copy()), batch)
    bc = np.empty((2,) + (1,) * (len(lead) - len(batch)) + shape)
    bc[0] = beta * mu_val
    bc[1] = 2.0 * (1.0 - beta)
    return (beta, bc, np.full(shape, beta * (0.5 - beta)),
            _complex_full(1.0 - 2.0 * beta, shape), _complex_full(1j, shape),
            beta * beta * mu_val * mu_val, ik, ik_imag)


def _gauged_buffers(lead: tuple, N: int, stack: np.ndarray | None = None) -> tuple:
    """The arrays a gauged kernel owns, for spectra of shape lead + (N,): the
    (2, ..., N) stack that its inverse transform writes v and v_x into (new,
    or the given view of a larger stack), with views of its two rows, and
    the real-factor buffers (_real_factor_buffer) of [beta*mu; 2(1-beta)]|v|^2,
    of beta(1/2-beta)|v|^4 and of psi (a 0-d array for one spectrum, a
    lead + (1,) column for a stack)."""
    if stack is None:
        stack = np.empty((2,) + lead + (N,), dtype=np.complex128)
    return (stack, stack[0], stack[1], *_real_factor_buffer((2,) + lead + (N,)),
            *_real_factor_buffer(lead + (N,)),
            *_real_factor_buffer(lead + (1,) if lead else ()))


def _load_gauged(consts: tuple, bufs: tuple, F: np.ndarray) -> None:
    """Write F and ik*F into the stack of bufs, for its inverse transform."""
    stack = bufs[0]
    stack[0] = F
    np.multiply(consts[6], F, out=stack[1])


def _gauged_product(grid: TorusGrid, consts: tuple, bufs: tuple, F: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The physical-space bracket of the gauged flow, from the samples [v; v_x]
    in the stack of bufs and their spectrum F, into out when given.

    Each real factor of complex data is written into the real part of a
    complex buffer: [beta*mu; 2(1-beta)] times |v|^2 in one call, times
    [v; v_x] in one more; beta(1/2-beta)|v|^4; and psi, whose scalar steps
    run in Python floats for one spectrum and on columns for a stack.
    """
    beta, bc, c4, c2, one_j, b2mu2, _, ik_imag = consts
    stack, v, vx, coef, coef_re, quint, quint_re, psi_c, psi_re = bufs
    absq = np.square(np.abs(v))
    np.multiply(bc, absq, out=coef_re)
    cubics = coef * stack
    np.multiply(c4, np.square(absq), out=quint_re)
    psi_re[...] = _psi_integral(grid, beta, F, ik_imag) + b2mu2
    return np.subtract(cubics[1] + c2 * v * v * np.conj(vx),
                       one_j * (cubics[0] + quint * v - psi_c * v), out=out)


def _nl_dnls2(grid: TorusGrid, drop: slice, consts: tuple, bufs: tuple,
              F: np.ndarray) -> np.ndarray:
    """Spectral nonlinear term of the gauged flow (everything except i*v_xx),
    for spectra of shape (..., N), with the constants of _gauged_constants
    and the buffers of _gauged_buffers: v and v_x come from one inverse
    transform, in place, of the stack that takes F and ik*F; each row of it
    equals a transform of its own, bit for bit."""
    _load_gauged(consts, bufs, F)
    ifft(bufs[0], bufs[0])
    nl = _gauged_product(grid, consts, bufs, F)
    fft(nl, nl)
    nl[..., drop] = 0.0
    return nl


def _nl_mixed(grid: TorusGrid, drop: slice, rows: list, stack: np.ndarray,
              F: np.ndarray) -> np.ndarray:
    """Spectral nonlinear terms of a batch whose rows step different flows
    (_make_mixed_nonlinear), for spectra of shape (B, N): one inverse
    transform of the stack that takes F of each ungauged row and [F; ik*F]
    of each gauged one, and one forward transform of all the products.
    Each row's products are those of its lone kernel (_cubic,
    _gauged_product), so every row keeps its bits."""
    for r, (gauged, consts, bufs) in enumerate(rows):
        if gauged:
            _load_gauged(consts, bufs, F[r])
        else:
            bufs[0][...] = F[r]
    ifft(stack, stack)
    nl = np.empty(F.shape, dtype=np.complex128)
    for r, (gauged, consts, bufs) in enumerate(rows):
        if gauged:
            _gauged_product(grid, consts, bufs, F[r], out=nl[r])
        else:
            _cubic(*bufs, out=nl[r])
    fft(nl, nl)
    for r, (gauged, consts, _) in enumerate(rows):
        if gauged:
            nl[r, drop] = 0.0
        else:
            np.multiply(consts, nl[r], out=nl[r])
    return nl


def _make_nonlinear(grid: TorusGrid, equation: str, beta: float,
                    mu_val: float | np.ndarray, lead: tuple = ()
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """The nonlinear part of the chosen flow, on spectra of shape lead + (N,);
    mu_val is a scalar or a lead + (1,) column.

    The kernel owns the arrays that its inverse transform and its real
    factors are written into, so it takes spectra of that one shape; what it
    returns is new on every call. At beta = 0 the gauged flow steps with the
    ungauged kernel (_kernel_beta).

    Every product with complex data in a kernel call is complex128 against
    complex128: a real factor goes into the real part of a complex buffer,
    and a constant (1 - 2beta, 1j) is a complex array, never a float64 array
    or a Python scalar that numpy casts on every call.

    A kernel built for a batch of members, each with its own mu (a column),
    holds its per-mode and per-member arrays (ik_keep, or the arrays of
    _gauged_constants) at the batch's shape, copied once, so that each
    product with them is one coalesced loop. A kernel for one spectrum, or
    for a stack that shares one scalar mu (the rows of rhs_* and
    pde_residual, called once), holds them at (N,) or as scalars, with its
    buffers at the call's shape: there the copies would cost more than the
    broadcasts they save.
    """
    batch = lead if np.ndim(mu_val) else ()
    if _kernel_beta(equation, beta) is None:
        u = np.empty(lead + (grid.N,), dtype=np.complex128)
        ik_keep, *absq = _ungauged_part(grid, batch, lead)
        return partial(_nl_dnls1, ik_keep, u, *absq)
    consts = _gauged_constants(grid, beta, mu_val, batch, lead)
    return partial(_nl_dnls2, grid, _dealias_drop(grid), consts,
                   _gauged_buffers(lead, grid.N))


def _kernel_beta(equation: str, beta: float) -> float | None:
    """The one kernel-selection rule: None where a flow steps with the
    ungauged kernel, dnls1 and dnls2 at beta = 0, where the gauged flow
    coincides with the ungauged one (sharing the kernel makes the identity
    exact discretely, not just analytically); else beta, the gauged
    kernel's."""
    return None if equation == "dnls1" or beta == 0.0 else beta


def _make_mixed_nonlinear(grid: TorusGrid, keys: list, mu_col: np.ndarray
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """The nonlinear part of a batch whose rows step different kernels, on
    spectra of shape (len(keys), N), with keys the _kernel_beta of each row
    and mu_col the (B, 1) column of mu.

    Each row holds what its lone kernel would (_make_nonlinear): the (N,)
    arrays, and for a gauged row the scalar mu and psi of one spectrum. The
    shared stack of the inverse transform holds, row after row, u of an
    ungauged row and v, v_x of a gauged one (the stack of its buffers).
    """
    N = grid.N
    stack = np.empty((len(keys) + sum(key is not None for key in keys), N),
                     dtype=np.complex128)
    rows, at = [], 0
    for row, key in enumerate(keys):
        if key is None:
            ik_keep, *absq = _ungauged_part(grid, (), ())
            rows.append((False, ik_keep, (stack[at], *absq)))
            at += 1
        else:
            consts = _gauged_constants(grid, key, float(mu_col[row, 0]), (), ())
            rows.append((True, consts, _gauged_buffers((), N, stack[at:at + 2])))
            at += 2
    return partial(_nl_mixed, grid, _dealias_drop(grid), rows, stack)


def _ifrk4_coeffs(symbol: np.ndarray, dt: float):
    """Integrating-factor RK4 coefficients per mode: dt/2 and dt/6 (complex
    arrays, _complex_full), E1 = exp(symbol*dt/2), E2 = E1^2, dt*E1 and
    2*E1."""
    E1 = np.exp(0.5 * dt * symbol)
    half_dt, sixth_dt = (_complex_full(h, symbol.shape) for h in (0.5 * dt, dt / 6.0))
    return half_dt, sixth_dt, E1, E1 * E1, dt * E1, 2.0 * E1


def _ifrk4_step(F: np.ndarray, nl: Callable, coeffs) -> np.ndarray:
    """One integrating-factor RK4 step of spectra of shape (..., N), with the
    coefficients of _ifrk4_coeffs."""
    half_dt, sixth_dt, E1, E2, dt_E1, two_E1 = coeffs
    E2F = E2 * F
    a = nl(F)
    b = nl(E1 * (F + half_dt * a))
    c = nl(E1 * F + half_dt * b)
    d = nl(E2F + dt_E1 * c)
    # np.multiply, not "*": above 256 KiB numpy may reuse the temporary b + c
    # for the product and swap the operands, which changes the last bit
    return E2F + sixth_dt * (E2 * a + np.multiply(two_E1, b + c) + d)


# Nodes of the contour quadrature of the ETDRK4 coefficients.
_N_CONTOUR = 32


def _etdrk4_coeffs(symbol: np.ndarray, dt: float):
    """ETDRK4 update coefficients via contour quadrature around symbol*dt:
    E, E2, Q, f1, 2*f2, f3 (f2 doubled, as the step uses it), and the factor
    2.0 of the third stage as a complex array (_complex_full).

    The symbol is complex (purely imaginary here), so the contour mean is kept
    complex rather than projected to its real part.
    """
    lc = symbol * dt
    r = np.exp(2j * np.pi * (np.arange(_N_CONTOUR) + 0.5) / _N_CONTOUR)
    LR = lc[:, None] + r[None, :]
    expLR = np.exp(LR)
    Q = dt * ((np.exp(LR / 2.0) - 1.0) / LR).mean(axis=1)
    f1 = dt * ((-4.0 - LR + expLR * (4.0 - 3.0 * LR + LR ** 2)) / LR ** 3).mean(axis=1)
    f2 = dt * ((2.0 + LR + expLR * (LR - 2.0)) / LR ** 3).mean(axis=1)
    f3 = dt * ((-4.0 - 3.0 * LR - LR ** 2 + expLR * (4.0 - LR)) / LR ** 3).mean(axis=1)
    E = np.exp(lc)
    E2 = np.exp(lc / 2.0)
    return E, E2, Q, f1, 2.0 * f2, f3, _complex_full(2.0, lc.shape)


def _etdrk4_step(F: np.ndarray, nl: Callable, coeffs) -> np.ndarray:
    """One ETDRK4 step of spectra of shape (..., N), with the coefficients of
    _etdrk4_coeffs."""
    E, E2, Q, f1, two_f2, f3, two = coeffs
    E2F = E2 * F
    Nv = nl(F)
    a = E2F + Q * Nv
    Na = nl(a)
    b = E2F + Q * Na
    Nb = nl(b)
    c = E2 * a + Q * (two * Nb - Nv)
    Nc = nl(c)
    # np.multiply for the operand order, as in _ifrk4_step
    return E * F + f1 * Nv + np.multiply(two_f2, Na + Nb) + f3 * Nc


def _rhs(grid: TorusGrid, equation: str, beta: float, mu_val: float,
         U: np.ndarray) -> np.ndarray:
    """Full right-hand side ifft(symbol*F + nl(F)), F = fft(U), of the flow
    for samples of shape (..., N): the one check of a flow's arguments, the
    equation and mu_val >= 0 for dnls2 (dnls1 ignores mu_val)."""
    if equation not in EQUATION_CHOICES:
        raise ValueError(f"equation must be one of {EQUATION_CHOICES}, got {equation!r}")
    if equation == "dnls2" and mu_val < 0:
        raise ValueError("mu_val must be nonnegative")
    nl = _make_nonlinear(grid, equation, beta, mu_val, U.shape[:-1])
    F = fft(U)
    return ifft(dispersion_symbol(grid) * F + nl(F))


def rhs_dnls1(u: Field) -> Field:
    """Full right-hand side du/dt = i*u_xx + d/dx(|u|^2 u)."""
    return Field(u.grid, _rhs(u.grid, "dnls1", 0.0, 0.0, u.values))


def rhs_dnls2(v: Field, beta: float, mu_val: float) -> Field:
    """Full right-hand side of the gauged flow,

    dv/dt = i*v_xx - i*[ 2(1-b) i |v|^2 v_x + (1-2b) i v^2 conj(v_x)
            + b*mu*|v|^2 v + b(1/2-b)|v|^4 v - psi(v) v ].
    """
    return Field(v.grid, _rhs(v.grid, "dnls2", beta, mu_val, v.values))


def _h1dot_from_spectrum(ik: np.ndarray, scale: float, F: np.ndarray) -> np.ndarray:
    """H^1 seminorm per spectrum of shape (..., N), with ik = grid._ik and
    scale = L/N^2 given once per run."""
    return np.sqrt(scale * np.add.reduce(np.abs(ik * F) ** 2, axis=-1))


# Below this floor the rounding of a sum of squares is no longer relative to
# the sum (the squares of subnormal parts lose bits), so the pre-check of
# _precheck_bound leaves such limits to the exact rule.
_PRECHECK_FLOOR = 2.0 ** -960


def _precheck_bound(guard_limit: np.ndarray, scale: float, size: int) -> float:
    """The bound of the guard's pre-check, for the live rows' guard_limit,
    scale = L/N^2 and size = the number of entries of their spectra.

    The pre-check takes sum k^2 |F|^2 over all live rows as one dot of the
    |k|-weighted float view of F. A sum at most this bound puts every row
    within its limit under the exact rule (_h1dot_from_spectrum(...) <=
    guard_limit): the bound is the smallest row's limit^2/scale, capped so
    that scale times the sum stays finite, and shrunk by a relative margin,
    (2*size + 64) * 2^-52, that covers the rounding of the dot, of each row's
    exact seminorm and of the bound itself. A NaN or an overflowed sum never
    passes, nor any sum at all below _PRECHECK_FLOOR, where the bound is
    -inf: there the exact rule decides.
    """
    big = np.finfo(np.float64).max
    limit = float(np.min(guard_limit))
    limit_sq = min(limit * limit, big)
    bound = min(limit_sq / scale, big)
    if min(limit_sq, bound) < _PRECHECK_FLOOR:
        return -math.inf
    return bound * (1.0 - (2 * size + 64) * 2.0 ** -52)


def step_count(T: float, dt: float) -> int:
    """Number of steps of size dt that reach T: ceil(T/dt), at least 1."""
    return max(1, math.ceil(T / dt - 1e-9))


def simulate(u0: Field, config: SimConfig) -> Trajectory:
    """Advance u0 over ceil(T/dt) steps, recording every record_stride-th frame
    (the initial and final frames always included).

    Raises NonFiniteError on NaN/Inf samples and BlowupGuardError when the
    H^1 seminorm exceeds guard_factor times its initial value; both carry the
    hit time and the partial trajectory.
    """
    (result,) = simulate_batch([u0], config, _stacklevel=3)
    if isinstance(result, SimulationError):
        raise result
    return result


def simulate_batch(u0s: Sequence[Field], config: SimConfig | Sequence[SimConfig],
                   *, _stacklevel: int = 2) -> list[Trajectory | SimulationError]:
    """simulate for members that share one grid, stepped together as one
    (B, N) batch. config is one SimConfig for all members, or one per
    member; members' configs may differ only in equation and beta, so a
    batch can step both flows, and any other difference is a ValueError.

    Per member, in order: its Trajectory, or the SimulationError that stopped
    it, carrying its hit time and partial trajectory. A stopped member leaves
    the batch and the others carry on. Row for row the arithmetic is that of
    simulate, so every member's result equals its serial run bit for bit.

    The step's per-mode coefficients, the guard's |k| weights and the
    kernel's constants have the live batch's shape (_batch_shaped), made once
    per run and re-cut to the rows left whenever a member stops; a lone
    member steps with them at (N,). Rows whose flows step with different
    kernels share each stage's transforms (_make_mixed_nonlinear).

    A CflWarning is attributed to the caller _stacklevel - 1 frames up: by
    default the caller of simulate_batch, from simulate its caller's.
    """
    grid = u0s[0].grid
    if any(u0.grid != grid for u0 in u0s):
        raise ValueError("all members must share one grid")
    configs = [config] * len(u0s) if isinstance(config, SimConfig) else list(config)
    if len(configs) != len(u0s):
        raise ValueError(f"{len(configs)} configs for {len(u0s)} members")
    config = configs[0]
    if any(replace(c, equation=config.equation, beta=config.beta) != config
           for c in configs):
        raise ValueError("the members' configs may differ only in equation and beta")
    n_steps = step_count(config.T, config.dt)
    stride = int(config.record_stride)

    kmax = float(np.max(np.abs(grid.k)))
    mu_vals = [mu(u0) for u0 in u0s]
    for u0 in u0s:
        # the product underflows to 0 for a tiny nonzero field
        rate = kmax * float(np.max(np.abs(u0.values) ** 2))
        if rate > 0 and config.dt > 0.5 / rate:
            warnings.warn(
                f"dt = {config.dt:g} exceeds the advective heuristic "
                f"0.5/(k_max*max|u|^2) = {0.5 / rate:g}",
                CflWarning, stacklevel=_stacklevel)

    # A lone member steps as a 1-D spectrum, with scalar constants: at small
    # N, broadcasting against the per-mode coefficients, or against (1,)
    # columns, would cost more per call than the arithmetic. For the same
    # reason a batch's per-mode arrays take its (B, N) shape.
    values = [u0.values for u0 in u0s]
    F = fft(values[0] if len(values) == 1 else np.stack(values))
    mu_col = mu_vals[0] if F.ndim == 1 else np.array(mu_vals).reshape(-1, 1)
    keys = [_kernel_beta(c.equation, c.beta) for c in configs]

    def kernel(mu_col, F):  # for the rows of the live members
        row_keys = [keys[m] for m in members]
        if len(set(row_keys)) > 1:
            return _make_mixed_nonlinear(grid, row_keys, mu_col)
        first = configs[members[0]]
        return _make_nonlinear(grid, first.equation, first.beta, mu_col, F.shape[:-1])

    # Steps 0, every stride-th and the last are recorded, each member's rows
    # into its slice of one store; a stopped member's trajectory is a prefix.
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    times = np.array(steps) * config.dt
    store = np.empty((len(u0s), len(steps), grid.N), dtype=np.complex128)
    store[:, 0] = values
    n_rec = 1
    members = list(range(len(u0s)))  # member index of each batch row
    results: list = [None] * len(u0s)
    ik, h1_scale = grid._ik, grid.L / grid.N ** 2
    # Overflow and NaN, in the integrator set-up (k^2 overflows for a tiny
    # period), in a step or in the guard limit, are caught by the guard,
    # which stops the member; numpy is told once per run not to warn.
    with np.errstate(over="ignore", invalid="ignore"):
        symbol = dispersion_symbol(grid)
        if config.integrator == "ifrk4":
            step, mode_coeffs = _ifrk4_step, _ifrk4_coeffs(symbol, config.dt)
        else:
            step, mode_coeffs = _etdrk4_step, _etdrk4_coeffs(symbol, config.dt)
        # |k| per float of the spectra's float64 view, (re, im) per mode
        mode_kk = np.repeat(np.abs(ik.imag), 2)
        # the step's coefficients and the guard's weights, at the live shape
        live_shaped = lambda F: _batch_shaped(mode_coeffs + (mode_kk,),
                                              F.shape[:-1])
        *coeffs, kk = live_shaped(F)
        nl = kernel(mu_col, F)
        guard0 = np.atleast_1d(_h1dot_from_spectrum(ik, h1_scale, F))
        # A NaN/Inf sample makes the seminorm NaN or Inf. With the limit
        # capped at the largest float, "h1 <= limit" fails for exactly the
        # rows to stop: the non-finite ones and those past the guard.
        guard_limit = np.minimum(
            np.where(guard0 > 0, config.guard_factor * guard0, math.inf),
            np.finfo(np.float64).max)
        bound = _precheck_bound(guard_limit, h1_scale, F.size)
        for i in range(1, n_steps + 1):
            F = step(F, nl, coeffs)
            # One dot decides almost every step; only a failed pre-check
            # takes the exact rule, so every stop is the exact rule's.
            w = F.view(np.float64) * kk
            if not np.vdot(w, w) <= bound:
                h1 = _h1dot_from_spectrum(ik, h1_scale, F)
                keep = h1 <= guard_limit
                if not keep.all():
                    t = i * config.dt
                    h1 = np.atleast_1d(h1)
                    rows = F.reshape(-1, grid.N)
                    for row in np.flatnonzero(~keep):
                        m = members[row]
                        partial = Trajectory(grid, times[:n_rec], store[m, :n_rec])
                        results[m] = _stop_error(rows[row], float(h1[row]),
                                                 float(guard_limit[row]), t, partial)
                    members = [m for m, k in zip(members, keep) if k]
                    if not members:
                        break
                    F, mu_col, guard_limit = F[keep], mu_col[keep], guard_limit[keep]
                    nl = kernel(mu_col, F)
                    *coeffs, kk = live_shaped(F)
                    bound = _precheck_bound(guard_limit, h1_scale, F.size)
            if i == steps[n_rec]:
                store[members, n_rec] = ifft(F)
                n_rec += 1
    for m in members:
        results[m] = Trajectory(grid, times, store[m])
    return results


def _stop_error(F: np.ndarray, h1: float, guard_limit: float, t: float,
                partial: Trajectory) -> SimulationError:
    """Why one member stopped at time t, from its spectrum and seminorm."""
    if not np.all(np.isfinite(F)):
        return NonFiniteError(
            f"non-finite sample at t = {t:g} (numerical blowup or instability)",
            t=t, partial=partial)
    if not math.isfinite(h1):
        return NonFiniteError(
            f"H^1 seminorm overflowed at t = {t:g} (numerical blowup or instability)",
            t=t, partial=partial)
    return BlowupGuardError(
        f"H^1 seminorm {h1:g} exceeded guard {guard_limit:g} at t = {t:g}",
        t=t, h1dot=h1, partial=partial)


def pde_residual(traj: Trajectory, equation: str, beta: float = GAUGE_BETA,
                 mu_val: float | None = None) -> np.ndarray:
    """Per interior frame, the L^2 norm of D_t u - rhs(u), D_t the centered
    difference over the (uniform) frame spacing.

    Requires at least three uniformly spaced frames. Accuracy is limited by
    the centered difference, O(spacing^2), once the trajectory itself is
    accurate.
    """
    times, U = traj.times, traj.values
    if len(times) < 3:
        raise ValueError("pde_residual needs at least 3 recorded frames")
    spacings = np.diff(times)
    if np.max(np.abs(spacings - spacings[0])) > 1e-9 * spacings[0]:
        raise ValueError("pde_residual requires uniformly spaced frames")
    if equation == "dnls2" and mu_val is None:
        mu_val = mu(Field(traj.grid, traj.values[0]))

    grid = traj.grid
    dt_u = (U[2:] - U[:-2]) / (2.0 * float(spacings[0]))
    diff = dt_u - _rhs(grid, equation, beta, mu_val, U[1:-1])
    return np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1) * grid.dx)
