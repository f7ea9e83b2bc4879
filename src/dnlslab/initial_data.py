"""Constructors for the initial-data families used in tests and scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import mass
from .grid import Field, TorusGrid, dealias_band

KINDS = ("plane_wave", "multimode", "bump")


@dataclass(frozen=True)
class DataSpec:
    """Deterministic recipe for one initial field.

    plane_wave: amplitude * exp(i k_mode x).
    multimode:  sum of amplitude_j * exp(i (k_j x + theta_j)) over the given
                modes, phases theta_j drawn from the seed.
    bump:       periodic bump amplitude * exp((cos(2 pi (x-center)/L) - 1)
                * (L/(2 pi width))^2), width in length units.

    If target_mass is set, the built field is rescaled to that mass exactly
    (shape preserved). Wavenumber indices must respect the dealiasing band
    |m| <= grid.dealias_band(N) of the grid the field is built on.
    """

    kind: str = "plane_wave"
    amplitude: float = 1.0
    mode: int = 1
    modes: tuple[int, ...] = ()
    amplitudes: tuple[float, ...] = ()
    width: float = 0.25
    center: float = 0.0
    target_mass: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.target_mass is not None and not self.target_mass > 0:
            raise ValueError(f"target_mass must be positive, got {self.target_mass}")
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        if self.kind == "multimode" and not self.modes:
            raise ValueError("multimode spec needs at least one mode")
        if self.kind == "multimode" and len(self.amplitudes) not in (0, len(self.modes)):
            raise ValueError("amplitudes and modes must have equal length")
        if self.kind == "bump" and not self.width > 0:
            raise ValueError(f"bump width must be positive, got {self.width}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _check_band(spec: DataSpec, N: int):
    """Reject wavenumber indices of spec outside the band |m| <= dealias_band(N)."""
    band = dealias_band(N)
    for m in {"plane_wave": (spec.mode,), "multimode": spec.modes}.get(spec.kind, ()):
        if abs(m) > band:
            raise ValueError(
                f"mode {m} outside the dealiasing band |m| <= {band} of N = {N}")


def build(spec: DataSpec, grid: TorusGrid) -> Field:
    """Build the field described by spec on the given grid; deterministic.

    This is the one rule for whether a spec fits a grid: it raises ValueError
    for a wavenumber outside the band of grid.N, for a bump too narrow for
    grid.L to compute, for a field whose mass overflows, and for a target
    mass on data that builds the zero field (zero amplitudes, or a bump so
    narrow that every sample underflows).
    """
    _check_band(spec, grid.N)
    x = grid.x
    if spec.kind == "plane_wave":
        values = spec.amplitude * np.exp(1j * (2.0 * np.pi * spec.mode / grid.L) * x)
    elif spec.kind == "multimode":
        amps = spec.amplitudes or tuple(spec.amplitude for _ in spec.modes)
        rng = np.random.default_rng(spec.seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(spec.modes))
        values = np.zeros(grid.N, dtype=np.complex128)
        for m, a, th in zip(spec.modes, amps, phases):
            values += a * np.exp(1j * ((2.0 * np.pi * m / grid.L) * x + th))
    else:
        try:
            scale = (grid.L / (2.0 * np.pi * spec.width)) ** 2
        except OverflowError:
            scale = math.inf
        if scale == math.inf:
            raise ValueError(f"bump width {spec.width:g} is too narrow for L = "
                             f"{grid.L:g}: (L/(2 pi width))^2 overflows")
        values = spec.amplitude * np.exp(
            (np.cos(2.0 * np.pi * (x - spec.center) / grid.L) - 1.0) * scale)
        values = values.astype(np.complex128)

    f = Field(grid, values)
    with np.errstate(over="ignore"):
        m = mass(f)
    if not math.isfinite(m):
        raise ValueError("the mass of the built field overflows")
    if spec.target_mass is not None:
        if m == 0.0:
            raise ValueError("cannot rescale the zero field to a positive mass")
        f = Field(grid, f.values * np.sqrt(spec.target_mass / m))
    return f
