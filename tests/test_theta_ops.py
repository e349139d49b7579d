"""Operator algebra: translation, modulation, convolution, dilation."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from frftkit import (
    AliasRiskWarning,
    Grid,
    GridMismatch,
    IrrationalScale,
    OffGridShift,
    SampledSignal,
    ThetaParam,
    frft,
    frft_output_grid,
    inverse_frft,
    l2_norm,
    theta_convolve,
    theta_dilate,
    theta_modulate,
    theta_translate,
)
from frftkit.transform import chirp_modulate
from helpers import banded_signal, dft_matrix_oracle, gauss_profile, random_signal

ANGLES = [ThetaParam(x) for x in (math.pi / 6, math.pi / 3, 2 * math.pi / 5,
                                  -math.pi / 3, 2.0, 4.0)]


@pytest.mark.parametrize("case", range(12))
def test_chirp_relation_against_matrix_oracle(case):
    """frft == |sin|^{-1/2} e^{i pi w^2 cot} FT(chirped f) at w csc."""
    grid = Grid(1, 64, 4.0)
    th = ANGLES[case % len(ANGLES)]
    f = random_signal(grid, 100 + case)
    lhs = frft(f, th).values
    cf = chirp_modulate(f, th, +1).as_nd()
    ft = dft_matrix_oracle(cf, grid.spacing, grid.period)
    w = frft_output_grid(grid, th).axis
    idx = np.rint(w * th.csc_t * grid.period + grid.samples_per_dim // 2).astype(int)
    ok = (idx >= 0) & (idx < grid.samples_per_dim)
    rhs = th.abs_sin ** -0.5 * np.exp(1j * np.pi * th.cot_t * w[ok] ** 2) * ft[idx[ok]]
    assert np.max(np.abs(lhs[ok] - rhs)) < 1e-10


@pytest.mark.parametrize("case", range(12))
def test_translation_pointwise_form(case):
    """On centrally supported input the translate is a chirped sample shift."""
    grid = Grid(1, 128, 4.0)
    th = ANGLES[case % len(ANGLES)]
    r = np.random.default_rng(300 + case)
    v = r.standard_normal(grid.size) + 1j * r.standard_normal(grid.size)
    v[np.abs(grid.axis) > 2.0] = 0.0
    f = SampledSignal(grid, v)
    s = float(r.integers(-8, 9)) * grid.spacing
    lhs = theta_translate(f, s, th).values
    t = grid.axis
    rhs = np.exp(-2j * np.pi * s * (t - s) * th.cot_t) * np.roll(v, round(s / grid.spacing))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("case", range(12))
def test_translation_composition_phase(case):
    grid = Grid(1, 128, 4.0)
    th = ANGLES[case % len(ANGLES)]
    f = random_signal(grid, 400 + case)
    r = np.random.default_rng(500 + case)
    s = float(r.integers(-10, 11)) * grid.spacing
    sp = float(r.integers(-10, 11)) * grid.spacing
    lhs = theta_translate(theta_translate(f, sp, th), s, th).values
    phase = np.exp(-2j * np.pi * s * sp * th.cot_t)
    rhs = phase * theta_translate(f, s + sp, th).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("case", range(12))
def test_modulation_composition_phase(case):
    grid = Grid(1, 128, 4.0)
    th = ANGLES[case % len(ANGLES)]
    f = random_signal(grid, 450 + case)
    r = np.random.default_rng(550 + case)
    s = float(r.integers(-10, 11)) * 0.125
    sp = float(r.integers(-10, 11)) * 0.125
    lhs = theta_modulate(theta_modulate(f, sp, th), s, th).values
    phase = np.exp(-2j * np.pi * s * sp * th.cot_t)
    rhs = phase * theta_modulate(f, s + sp, th).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("case", range(12))
def test_translation_modulation_exchange(case):
    """Transforming a translate modulates the transform, with opposite shift."""
    grid = Grid(1, 128, 4.0)
    th = ANGLES[case % len(ANGLES)]
    f = random_signal(grid, 600 + case)
    r = np.random.default_rng(700 + case)
    s = float(r.integers(-10, 11)) * grid.spacing
    lhs = frft(theta_translate(f, s, th), th).values
    rhs = theta_modulate(frft(f, th), -s, th).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("case", range(12))
def test_convolution_theorem(case):
    grid = Grid(1, 128, 4.0)
    th = ANGLES[case % len(ANGLES)]
    f = random_signal(grid, 800 + case)
    g = random_signal(grid, 900 + case)
    lhs = frft(theta_convolve(f, g, th), th).values
    og = frft_output_grid(grid, th)
    rhs = (np.exp(-1j * np.pi * th.cot_t * og.radius_squared())
           * frft(f, th).values * frft(g, th).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("case", range(12))
def test_translate_commutes_with_convolution(case):
    grid = Grid(1, 128, 4.0)
    th = ANGLES[case % len(ANGLES)]
    f = random_signal(grid, 1000 + case)
    g = random_signal(grid, 1100 + case)
    r = np.random.default_rng(1200 + case)
    s = float(r.integers(-10, 11)) * grid.spacing
    lhs = theta_translate(theta_convolve(f, g, th), s, th).values
    rhs = theta_convolve(theta_translate(f, s, th), g, th).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("case", range(8))
def test_dilation_translation_exchange(case):
    """Contraction after a translate equals a scaled translate after
    contraction, up to the phase e^{i pi t^2 cot (1 - 1/s^2)}."""
    grid = Grid(1, 256, 8.0)
    th = ANGLES[case % len(ANGLES)]
    s_int = (2, 4)[case % 2]
    f = banded_signal(grid, th, 0.15 * frft_output_grid(grid, th).extent, 1400 + case)
    r = np.random.default_rng(1500 + case)
    t = float(r.integers(-5, 6)) * s_int * grid.spacing
    lhs = theta_dilate(theta_translate(f, t, th), s_int, th).values
    phase = np.exp(1j * np.pi * t * t * th.cot_t * (1.0 - 1.0 / s_int**2))
    rhs = phase * theta_translate(theta_dilate(f, s_int, th), t / s_int, th).values
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_convolution_2d_matches_spectral_route():
    grid = Grid(2, 16, 4.0)
    th = ThetaParam(math.pi / 3)
    f = random_signal(grid, 31)
    g = random_signal(grid, 32)
    lhs = frft(theta_convolve(f, g, th), th).values
    og = frft_output_grid(grid, th)
    rhs = (np.exp(-1j * np.pi * th.cot_t * og.radius_squared())
           * frft(f, th).values * frft(g, th).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_integer_dilation_preserves_norm_on_banded_input():
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(math.pi / 3)
    f = banded_signal(grid, th, 0.4, 33)
    for s in (2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = theta_dilate(f, s, th)
        assert abs(l2_norm(out) - 1.0) < 1e-6


def test_expansion_scales_norm_on_concentrated_input():
    """Spreading by q multiplies the norm of a well-concentrated signal
    by sqrt(q): the resampling carries no amplitude prefactor."""
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(math.pi / 3)
    prof = gauss_profile(frft_output_grid(grid, th), 0.0, 0.5)
    f = inverse_frft(prof, th)
    f = f.with_values(f.values / l2_norm(f))
    for q in (2, 4):
        out = theta_dilate(f, Fraction(1, q), th)
        assert abs(l2_norm(out) - math.sqrt(q)) < 1e-3


def test_dilation_roundtrip_exact_for_reciprocal_factors():
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(math.pi / 3)
    f = banded_signal(grid, th, 0.4, 34)
    back = theta_dilate(theta_dilate(f, 2, th), Fraction(1, 2), th)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_dilation_alias_warning_on_fullband_input():
    grid = Grid(1, 128, 4.0)
    th = ThetaParam(math.pi / 3)
    noisy = random_signal(grid, 35)
    with pytest.warns(AliasRiskWarning):
        theta_dilate(noisy, 2, th)
    # a well-concentrated input contracts silently
    f = banded_signal(grid, th, 0.2, 36)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta_dilate(f, 2, th)


def test_dilation_by_a_huge_integer_reads_its_residue():
    """A factor past int64 reads the samples of its residue mod the grid
    size, exactly as a small factor with that residue does."""
    grid = Grid(1, 64, 4.0)
    th = ThetaParam(math.pi / 3)
    f = random_signal(grid, 38)
    with pytest.warns(AliasRiskWarning):
        huge = theta_dilate(f, 10**30, th)
    with pytest.warns(AliasRiskWarning):
        small = theta_dilate(f, 10**30 % 64 + 64, th)
    assert np.array_equal(huge.values, small.values)


def test_dilation_rejects_irrational_factor():
    grid = Grid(1, 64, 4.0)
    th = ThetaParam(math.pi / 3)
    f = banded_signal(grid, th, 0.3, 37)
    with pytest.raises(IrrationalScale):
        theta_dilate(f, math.sqrt(2), th)
    with pytest.raises(IrrationalScale):
        theta_dilate(f, Fraction(1000, 999), th)


def test_translate_rejects_off_grid_shift():
    grid = Grid(1, 64, 4.0)
    th = ThetaParam(math.pi / 3)
    f = random_signal(grid, 38)
    with pytest.raises(OffGridShift):
        theta_translate(f, 0.33 * grid.spacing, th)


def test_convolve_rejects_mismatched_grids():
    th = ThetaParam(math.pi / 3)
    f = random_signal(Grid(1, 64, 4.0), 39)
    g = random_signal(Grid(1, 128, 4.0), 40)
    with pytest.raises(GridMismatch):
        theta_convolve(f, g, th)


def test_modulation_is_unitary():
    grid = Grid(1, 128, 4.0)
    th = ThetaParam(2.0)
    f = random_signal(grid, 41)
    out = theta_modulate(f, 0.375, th)
    assert abs(l2_norm(out) - l2_norm(f)) < 1e-12 * l2_norm(f)


def test_translation_is_unitary():
    grid = Grid(1, 128, 4.0)
    th = ThetaParam(2.0)
    f = random_signal(grid, 42)
    out = theta_translate(f, 5 * grid.spacing, th)
    assert abs(l2_norm(out) - l2_norm(f)) < 1e-12 * l2_norm(f)
