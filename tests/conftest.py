import csv

import numpy as np
import pytest

from dnlslab import Field, Spectrum, TorusGrid, deriv, lp_norm
from dnlslab.functionals import h1dot_sq
from dnlslab.runio import fmt_value


@pytest.fixture
def grid2pi():
    return TorusGrid(2 * np.pi, 128)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_band_field(grid: TorusGrid, rng, band: int | None = None,
                      scale: float = 1.0) -> Field:
    """Random smooth field with modes inside the dealiasing band and an
    exponentially decaying spectral envelope."""
    if band is None:
        band = grid.N // 4
    band = min(band, grid.N // 3)
    c = np.zeros(grid.N, dtype=np.complex128)
    width = max(2.0, band / 3.0)
    for m in range(-band, band + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[m % grid.N] = scale * z * np.exp(-abs(m) / width)
    return Spectrum(grid, c).field()


def plane_wave(grid: TorusGrid, A: float = 1.0, m: int = 1) -> Field:
    return Field(grid, A * np.exp(1j * (2 * np.pi * m / grid.L) * grid.x))


def literal_cubic_term(f: Field) -> float:
    """Im int f^2 conj((f^2)_x) of one row, on the 2x refined grid: the
    reading of the energy's cubic term that the conservation oracle rejects.
    As functions it is twice the kept term, Im int |f|^2 f conj(f_x)."""
    fine = TorusGrid(f.grid.L, 2 * f.grid.N)
    w = Field(fine, f.grid.refine2(f.values) ** 2)
    return float(np.sum((w.values * np.conj(deriv(w).values)).imag) * fine.dx)


def literal_energy(f: Field) -> float:
    """energy_u of one row with literal_cubic_term as its cubic term."""
    return h1dot_sq(f) + 1.5 * literal_cubic_term(f) + 0.5 * lp_norm(f, 6) ** 6


def l2_dist(a: Field, b: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))


def write_reference_csv(path, header, rows):
    """The CSV write_csv must match: csv.writer on fmt_value of each value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_value(v) for v in row])
