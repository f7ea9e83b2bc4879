"""Spectral grid on the circle: differentiation, antidifferentiation, norms, shifts.

All fields live on an equispaced grid of N nodes over [0, L) and are represented
by their samples; spectral operations go through the FFT with coefficients
normalized so that f(x_j) = sum_m c_m exp(i k_m x_j), k_m = 2*pi*m/L,
m in [-N/2, N/2).

A Field holds one row of samples, shape (N,), or a stack of rows, shape
(n, N). Every operation here takes either: transforms, products and
reductions run once on the whole stack, and a stack gives one result per row,
equal bit for bit to what that row gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

MIN_NODES = 8
# the largest node count the grid rule admits: 64 times the largest N that a
# test or a planned run uses (16384), where numpy still allocates the grid
MAX_NODES = 2 ** 20

# numpy may reuse a temporary array of this many bytes or more as the output
# of a commutative operation, swapping its operands (temporary elision); a
# complex product with swapped operands can differ in the last bit.
ELIDE_BYTES = 256 * 1024


# np.fft.fft and np.fft.ifft as numpy bound them at import; after their
# argument checks they call the gufuncs _pocketfft.fft and _pocketfft.ifft.
_NUMPY_FFT = np.fft.fft
_NUMPY_IFFT = np.fft.ifft


def fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The forward transform of every package call: np.fft.fft along the
    last axis, written into out when given (out may be a, in place), else
    into a new complex128 array. a is float64 or complex128.

    It calls numpy's pocketfft gufunc with factor 1, as np.fft.fft does
    after its checks, so the bits are those of np.fft.fft(a) and the
    checks' cost per call is saved. While numpy.fft.fft is not the function
    numpy bound at import (a counter patched in), the seam calls that
    replacement instead, so a patch of numpy.fft sees every transform.
    """
    if np.fft.fft is not _NUMPY_FFT:
        return np.fft.fft(a, a.shape[-1], -1, None, out)
    if out is None:
        out = np.empty(a.shape, np.complex128)
    return _pocketfft.fft(a, 1, out=out)


def ifft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse transform of every package call: the gufunc with factor
    1/n, as np.fft.ifft calls it, or a replacement of numpy.fft.ifft; see
    fft."""
    if np.fft.ifft is not _NUMPY_IFFT:
        return np.fft.ifft(a, a.shape[-1], -1, None, out)
    if out is None:
        out = np.empty(a.shape, np.complex128)
    return _pocketfft.ifft(a, 1.0 / a.shape[-1], out=out)


def check_grid(L: float, N: int | None) -> None:
    """The grid rule: L finite and > 0, N an even integer in [MIN_NODES,
    MAX_NODES] (None skips N), and the largest wavenumber (2 pi/L)*(N/2), or
    2 pi/L when N is None, finite. Raises ValueError; builds nothing, so a
    huge N costs nothing.

    The rule checks the grid it is given, not its 2x refinement: for L within
    a factor 2 of the limit, or N above MAX_NODES/2, (L, N) passes and
    (L, 2N) fails, so that grid's refined property raises."""
    if not np.isfinite(L) or L <= 0:
        raise ValueError(f"period L must be positive and finite, got {L}")
    if N is not None and (N % 2 != 0 or N < MIN_NODES):
        raise ValueError(f"node count N must be an even integer >= {MIN_NODES}, got {N}")
    # k_max as TorusGrid forms it; an N too large for a float overflows too
    try:
        kmax = (2.0 * math.pi / L) * (1 if N is None else N // 2)
    except OverflowError:
        kmax = math.inf
    if not math.isfinite(kmax):
        what = "2*pi/L" if N is None else f"(2*pi/L)*(N/2) at N = {N}"
        raise ValueError(f"period L = {L} is too small: the largest wavenumber "
                         f"{what} is not finite")
    if N is not None and N > MAX_NODES:
        raise ValueError(f"node count N must be at most {MAX_NODES}, got {N}")


class TorusGrid:
    """Discretized circle of circumference L with N equispaced nodes.

    Attributes:
        L: spatial period (> 0).
        N: number of nodes (even, >= 8; powers of two recommended).
        x: node positions x_j = j*L/N, strictly increasing in [0, L).
        modes: integer mode numbers in FFT order (0..N/2-1, -N/2..-1).
        k: wavenumbers 2*pi*modes/L, FFT order.

    Instances are immutable and safe to share across concurrent tasks.
    """

    def __init__(self, L: float, N: int):
        N = int(N)
        check_grid(L, N)
        self.L = float(L)
        self.N = N
        self.x = np.arange(N) * (self.L / N)
        self.modes = np.rint(np.fft.fftfreq(N) * N).astype(int)
        self.k = (2.0 * np.pi / self.L) * self.modes
        # Odd-order derivative multiplier: Nyquist mode (m = -N/2) is unpaired,
        # so its multiplier is set to 0.
        ik = 1j * self.k
        ik[N // 2] = 0.0
        self._ik = ik
        self._dealias_keep = np.abs(self.modes) <= N // 3
        for arr in (self.x, self.modes, self.k, self._ik, self._dealias_keep):
            arr.flags.writeable = False
        self._refined: TorusGrid | None = None

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dealias_keep(self) -> np.ndarray:
        """Boolean mask of modes kept by the 2/3 rule (|m| <= N//3)."""
        return self._dealias_keep

    @property
    def refined(self) -> "TorusGrid":
        """The 2x refinement of this grid (same L, 2N nodes), cached. Raises
        ValueError where (L, 2N) breaks the grid rule, which a grid (L, N)
        can pass; see check_grid."""
        if self._refined is None:
            self._refined = TorusGrid(self.L, 2 * self.N)
        return self._refined

    def pad2(self, F: np.ndarray) -> np.ndarray:
        """Zero pad spectra of shape (..., N), FFT order, to (..., 2N): modes
        [-N/2, N/2) keep their place in the spectrum of the 2x refined grid.

        Twice the inverse FFT of the result samples the trigonometric
        interpolant on the refined grid.
        """
        N = self.N
        F2 = np.zeros(F.shape[:-1] + (2 * N,), dtype=np.complex128)
        F2[..., : N // 2] = F[..., : N // 2]
        F2[..., 2 * N - N // 2 :] = F[..., N // 2 :]
        return F2

    def row_chunks(self, n: int) -> list[slice]:
        """Slices that cover rows 0..n-1 once, in order, in as few chunks as
        keep a chunk's padded (rows, 2N) complex stack under ELIDE_BYTES: a
        stack analysed in these chunks gives each row the bits it gets alone.
        A row too long for that forms a chunk by itself, as it would alone."""
        rows = max(1, (ELIDE_BYTES - 1) // (2 * self.N * 16))
        return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]

    def refine2(self, values: np.ndarray) -> np.ndarray:
        """Resample onto the 2x refined grid by zero padding the spectrum.

        Exact for the trigonometric interpolant with modes in [-N/2, N/2).
        """
        return 2.0 * ifft(self.pad2(fft(values)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TorusGrid) and self.L == other.L and self.N == other.N

    def __hash__(self) -> int:
        return hash((TorusGrid, self.L, self.N))

    def __repr__(self) -> str:
        return f"TorusGrid(L={self.L!r}, N={self.N})"


class Field:
    """A complex-valued function sampled on a TorusGrid at a fixed time, shape
    (N,), or a stack of n of them, shape (n, N).

    Samples must all be finite; the array is stored read-only. An array that
    is read-only already, such as Trajectory rows, is shared, not copied.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim not in (1, 2) or v.shape[-1] != grid.N:
            raise ValueError(f"expected rows of {grid.N} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field samples must be finite (no NaN/Inf)")
        if v.flags.writeable:
            v = v.copy()
            v.flags.writeable = False
        self.grid = grid
        self.values = v

    def spectrum(self) -> "Spectrum":
        return Spectrum(self.grid, fft(self.values) / self.grid.N)

    def __repr__(self) -> str:
        return f"Field(grid={self.grid!r}, max|f|={np.max(np.abs(self.values)):.3g})"


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients of a Field, FFT mode order (see TorusGrid.modes),
    shape (N,), or (n, N) for a stack.

    Normalization: f(x_j) = sum_m coefficients[m] * exp(i k_m x_j).
    """

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.ndim not in (1, 2) or c.shape[-1] != self.grid.N:
            raise ValueError(f"expected rows of {self.grid.N} coefficients, "
                             f"got shape {c.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    def field(self) -> Field:
        return Field(self.grid, ifft(self.coefficients * self.grid.N))


def per_row(f: Field, fn, *columns):
    """fn of each row's entry of every column, the per-row results of f (a
    float or a list, or a reduction along the rows): one value for one row, a
    list for a stack; per_row(f, float, x) gives a reduction as Python floats.
    Scalar steps after a reduction run here, row by row, so a stack keeps
    each row's bits.

    A float64 column, array or scalar, reaches fn as Python floats (one
    tolist each, same bits), so fn runs Python float arithmetic on a row and
    on a stack alike."""
    columns = [c.tolist() if isinstance(c, (np.ndarray, np.float64))
               and c.dtype == np.float64 else c for c in columns]
    if f.values.ndim == 1:
        return fn(*columns)
    return [fn(*row) for row in zip(*columns)]


def deriv(f: Field) -> Field:
    """Spectral derivative d/dx; the Nyquist mode is mapped to zero."""
    return Field(f.grid, deriv_values(f))


def deriv_values(f: Field) -> np.ndarray:
    """The samples of deriv(f) as a plain array, unchecked: where ik*F
    overflows they hold inf or NaN, which a Field would reject."""
    return ifft(f.grid._ik * fft(f.values))


def antideriv_meanzero(g: Field) -> Field:
    """Mean-zero antiderivative I of a real-valued field, row by row.

    Satisfies dI/dx = g - mean(g) and mean(I) = 0, via the coefficient map
    c_m -> c_m/(i k_m) for m != 0 and c_0 -> 0. Rejects a row whose imaginary
    part exceeds 1e-12 of its magnitude; the result is real by construction
    (sub-tolerance imaginary noise is discarded).
    """
    v = g.values
    scale = np.max(np.abs(v), axis=-1, initial=0.0)
    if np.any(np.max(np.abs(v.imag), axis=-1, initial=0.0) > 1e-12 * scale):
        raise ValueError("antideriv_meanzero expects a real-valued field")
    grid = g.grid
    mult = np.zeros(grid.N, dtype=np.complex128)
    mult[1:] = 1.0 / (1j * grid.k[1:])
    F = fft(v.real)
    I = ifft(F * mult).real
    return Field(grid, I.astype(np.complex128))


def lp_norm(f: Field, p: int) -> float | list[float]:
    """L^p norm for p in {2, 4, 6}, per row.

    For p in {4, 6} the integrand |f|^p exceeds the band limit of the stored
    samples, so it is evaluated on the 2x zero-padded refinement before
    rectangle quadrature (power_sum, then lp_from_power_sum); p = 2 is
    already exact on the native grid.
    """
    grid = f.grid
    if p == 2:
        squares = np.sum(np.abs(f.values) ** 2, axis=-1)
        return per_row(f, float, np.sqrt(squares * grid.dx))
    if p in (4, 6):
        return lp_from_power_sum(f, power_sum(f, p), grid, p)
    raise ValueError(f"unsupported p = {p}, expected one of 2, 4, 6")


def power_sum(f: Field, p: int) -> np.ndarray:
    """The sum of |f|^p over the nodes of the 2x refined grid, per row, for
    p in {4, 6}: the L^p integral of lp_norm before its quadrature weight.
    The samples fix it; the period does not enter."""
    return np.sum(np.abs(f.grid.refine2(f.values)) ** p, axis=-1)


def lp_from_power_sum(f: Field, sums: np.ndarray, grid: TorusGrid,
                      p: int) -> float | list[float]:
    """The L^p norm of each row of f's samples taken on grid, whose period
    may differ from f's (p in {4, 6}), from their power_sum: the rectangle
    weight L/(2N) of the refined grid, then the root of each row as a Python
    float power, libm pow as a numpy scalar power is: an array power can
    differ in the last bit."""
    totals = sums * (grid.L / (2 * grid.N))
    return per_row(f, lambda total: total ** (1.0 / p), totals)


def translate(f: Field, s: float | np.ndarray) -> Field:
    """Shifted field g(x) = f(x - s), realized by spectral phase factors.

    Exact for band-limited f; s may be any real number, or for a stack one
    number per row.
    """
    F = fft(f.values)
    if np.ndim(s):
        s = np.asarray(s, dtype=np.float64)[:, None]
    return Field(f.grid, ifft(F * np.exp(-1j * f.grid.k * s)))
