"""Spectral identities of the grid and the gauge as hypothesis properties:
translation and gauge round trips, Parseval, exact 2x refinement."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dnlslab import Spectrum, TorusGrid, gauge_profile, mass, translate

# derandomized so that tier-1 stays deterministic
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def spectra(draw):
    """Fourier coefficients of a band-limited field (modes [-N/2, N/2)) on a
    grid of random period and size; the parts of each coefficient lie on a
    lattice of step 1e-3, so that no square underflows."""
    N = draw(st.sampled_from([8, 16, 32, 64]))
    L = draw(st.floats(0.5, 20.0))
    parts = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=2 * N,
                                   max_size=2 * N))) / 1000.0
    c = parts[:N] + 1j * parts[N:]
    return Spectrum(TorusGrid(L, N), c)


def sup(values):
    return float(np.max(np.abs(values)))


@PROPERTY
@given(spec=spectra(), s=st.floats(-50.0, 50.0))
def test_translate_round_trip(spec, s):
    f = spec.field()
    back = translate(translate(f, s), -s)
    assert sup(back.values - f.values) <= 1e-15 * spec.grid.N * sup(f.values)


@PROPERTY
@given(spec=spectra(), beta=st.floats(-2.0, 2.0))
def test_ungauge_inverts_gauge(spec, beta):
    f = spec.field()
    back = gauge_profile(gauge_profile(f, beta), -beta)
    # the phase beta*I(|f|^2) is recomputed from |gauge_profile(f)|, equal
    # to |f| up to rounding; the round trip error scales with that phase
    phase = abs(beta) * spec.grid.L * sup(f.values) ** 2
    assert sup(back.values - f.values) <= 1e-15 * spec.grid.N * (1.0 + phase) * sup(f.values)


@PROPERTY
@given(spec=spectra())
def test_parseval_mass_equals_coefficient_sum(spec):
    want = spec.grid.L * float(np.sum(np.abs(spec.coefficients) ** 2))
    np.testing.assert_allclose(mass(spec.field()), want, rtol=1e-14, atol=0.0)


@PROPERTY
@given(spec=spectra())
def test_refine2_samples_the_interpolant_exactly(spec):
    grid = spec.grid
    fine = TorusGrid(grid.L, 2 * grid.N).x
    want = np.exp(1j * np.outer(fine, grid.k)) @ spec.coefficients
    got = grid.refine2(spec.field().values)
    assert sup(got - want) <= 1e-14 * grid.N * float(np.sum(np.abs(spec.coefficients)))
