"""Operator algebra: translation, modulation, convolution, dilation."""
import dataclasses
import math
import re
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
from frftkit.theta_ops import _dilate_period, _dilate_spectrum, _tile
from frftkit.transform import _chirp_plan, centered_dft, centered_idft, chirp_modulate
from helpers import (
    banded_signal,
    dft_matrix_oracle,
    fft_rows,
    gauss_profile,
    make_s1_layers,
    random_signal,
)

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


def contraction_reference(f, frac, th):
    """Dilation by ``frac = p/q`` on the textbook route: chirp, centered
    spectrum zero-padded to ``qN``, centered inverse on spacing/q, every
    ``p``-th refined sample (periodically), inverse chirp."""
    grid = f.grid
    n, p, q = grid.samples_per_dim, frac.numerator, frac.denominator
    spec = centered_dft(chirp_modulate(f, th, +1).as_nd(), grid.spacing)
    pad = (q - 1) * n // 2
    padded = np.pad(spec, [(pad, pad)] * grid.n_dims)
    fine = centered_idft(padded, grid.spacing / q)
    idx = (q * n // 2 + p * (np.arange(n) - n // 2)) % (q * n)
    out = fine[np.ix_(*[idx] * grid.n_dims)]
    return chirp_modulate(SampledSignal(grid, out.ravel()), th, -1).values


@pytest.mark.filterwarnings("ignore:dilation by")  # white noise folds; both sides alike
@pytest.mark.parametrize("grid", [Grid(1, 64, 4.0), Grid(2, 16, 4.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("theta_val", [math.pi / 3, -2 * math.pi / 5], ids=["pi/3", "-2pi/5"])
@pytest.mark.parametrize("frac", [Fraction(2, 3), Fraction(4, 3), Fraction(3, 2),
                                  Fraction(1, 3), Fraction(5, 2), Fraction(7, 4)], ids=str)
def test_fractional_dilation_matches_zero_padded_reference(grid, theta_val, frac):
    th = ThetaParam(theta_val)
    f = random_signal(grid, 39)
    want = contraction_reference(f, frac, th)
    got = theta_dilate(f, frac, th).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("frac", [Fraction(255, 256), Fraction(3, 256)], ids=str)
def test_dilation_by_the_largest_denominator_matches_zero_padded_reference(frac):
    """q = 256 against the same reference, on its 16384-point refined grid."""
    grid, th = Grid(1, 64, 4.0), ThetaParam(math.pi / 3)
    f = random_signal(grid, 40)
    want = contraction_reference(f, frac, th)
    got = theta_dilate(f, frac, th).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("frac", [Fraction(255, 256), Fraction(3, 256)], ids=str)
def test_dilation_by_the_largest_denominator_is_separable_in_2d(frac):
    """On 128² (a 32768² refined grid, past the reach of the reference),
    the dilation of a tensor product u ⊗ v is the tensor product of the
    1-D dilations: chirp, sign table and resampling all factor by axis."""
    th = ThetaParam(-2 * math.pi / 5)
    line, plane = Grid(1, 128, 8.0), Grid(2, 128, 8.0)
    u, v = random_signal(line, 41), random_signal(line, 42)
    got = theta_dilate(SampledSignal(plane, np.outer(u.values, v.values).ravel()), frac, th)
    want = np.outer(theta_dilate(u, frac, th).values, theta_dilate(v, frac, th).values)
    assert np.max(np.abs(got.as_nd() - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [Grid(1, 64, 4.0), Grid(2, 16, 4.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("p", [2, 3, 5, 64, 10**30])
def test_integer_dilation_is_the_plain_gather(grid, p):
    """An integer factor gathers sample N/2 + p (m - N/2) mod N of the
    chirped samples, signed (-1)^m when p is even, with no transform once
    the alias check has run."""
    plan = _chirp_plan(grid, ThetaParam(math.pi / 3))
    y = plan.chirp(random_signal(grid, 43).as_nd())
    n = grid.samples_per_dim
    m = np.arange(n)
    idx = (n // 2 + (p % n) * (m - n // 2)) % n
    want = y[np.ix_(*(idx,) * grid.n_dims)]
    if p % 2 == 0:
        sign = (-1.0) ** m
        want = want * (sign if grid.n_dims == 1 else np.outer(sign, sign))
    with fft_rows() as rows:
        got = _tile(_dilate_period(y, Fraction(p), plan, warn=None), plan)
    assert rows[0] == 0
    assert np.array_equal(got, want)


@pytest.mark.parametrize("grid", [Grid(1, 64, 4.0), Grid(2, 16, 2.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("frac", [Fraction(p) for p in (2, 3, 4, 6, 64, 10**30)] + [Fraction(3, 2)],
                         ids=str)
def test_dilation_of_a_period_is_a_period_of_the_dilation(grid, frac):
    """On a stack that holds one period of P samples per axis, an integer
    dilation gathers one period of the full-grid result, max(P / gcd(p, P),
    2) samples per axis, with no transform; a fraction returns all N."""
    plan = _chirp_plan(grid, ThetaParam(math.pi / 3))
    n, n_dims = grid.samples_per_dim, grid.n_dims
    rng = np.random.default_rng(44)
    for period in (n, n // 2, n // 8, 2):
        shape = (2,) + (period,) * n_dims
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = np.tile(y, (1,) + (n // period,) * n_dims)
        want = _tile(_dilate_period(full, frac, plan, warn=None), plan)
        with fft_rows() as counts:
            got = _dilate_period(y, frac, plan, warn=None)
        size = max(period // math.gcd(frac.numerator, period), 2) if frac.denominator == 1 else n
        assert got.shape == (2,) + (size,) * n_dims
        assert counts[0] == 0 or frac.denominator > 1
        assert np.array_equal(np.tile(got, (1,) + (n // size,) * n_dims), want)


@pytest.mark.parametrize("theta_val", [math.pi / 3, -math.pi / 3], ids=["sin>0", "sin<0"])
@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 32, 4.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_dilated_spectrum_is_the_spectrum_of_the_gathered_period(grid, p, theta_val):
    """An even integer dilation that shortens the period, read off the
    period's spectrum by folding its aliased blocks, is the spectrum of the
    gathered period to the last digits, with no transform."""
    plan = _chirp_plan(grid, ThetaParam(theta_val))
    n, n_dims = grid.samples_per_dim, grid.n_dims
    rng = np.random.default_rng(45)
    shape = (3,) + grid.shape
    chirped = plan.chirp(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for period in (n, n // 2, 4):
        if p % period == 0:
            continue  # the dilation clamps the period at 2; the cascade gathers it
        y = chirped[(...,) + (slice(period),) * n_dims]
        want = np.fft.fftn(_dilate_period(y, Fraction(p), plan, warn=None),
                           axes=plan.axes)
        spectrum = np.fft.fftn(y, axes=plan.axes)
        with fft_rows() as counts:
            got = _dilate_spectrum(spectrum, p, plan)
        assert counts[0] == 0
        assert got.shape == (3,) + (period // math.gcd(p, period),) * n_dims
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


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


@pytest.mark.parametrize("factor,edge", [(Fraction(3, 2), "2/3"), (2, "1/2")], ids=str)
def test_alias_warning_names_the_kept_fraction_of_nyquist(factor, edge):
    """A contraction by ``s`` keeps the band below ``1/s`` of Nyquist, and the
    warning names that fraction."""
    grid, th = Grid(1, 128, 4.0), ThetaParam(math.pi / 3)
    message = f"dilation by {factor} folds spectral mass beyond {edge} of Nyquist"
    with pytest.warns(AliasRiskWarning, match=f"^{re.escape(message)}$"):
        theta_dilate(random_signal(grid, 35), factor, th)


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


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan, np.float64(math.inf)],
                         ids=["inf", "-inf", "nan", "np-inf"])
def test_non_finite_factor_is_refused_by_name(factor):
    """A factor that is not finite raises :class:`IrrationalScale` naming it,
    from the dilation and from a layer that pools by it, not the bare
    ``OverflowError`` or ``ValueError`` of ``Fraction``."""
    grid, th = Grid(1, 64, 4.0), ThetaParam(math.pi / 3)
    f = banded_signal(grid, th, 0.3, 37)
    with pytest.raises(IrrationalScale, match=f"dilation factor {float(factor)!r} is not finite"):
        theta_dilate(f, factor, th)
    if factor >= 1.0:  # the layer refuses the others as below 1 first
        layer = make_s1_layers(grid, th, (2.0,), ["identity"])[0][0]
        with pytest.raises(IrrationalScale, match="is not finite"):
            dataclasses.replace(layer, pooling_factor=factor)


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


@pytest.mark.parametrize("s", [0, -2, Fraction(-1, 2), -0.5])
def test_dilation_refuses_factors_that_are_not_positive(s):
    f = random_signal(Grid(1, 64, 4.0), 8)
    with pytest.raises(ValueError, match=re.escape(f"dilation factor must be positive, got {s}")):
        theta_dilate(f, s, ANGLES[1])


@pytest.mark.parametrize(
    "s, error, message",
    [
        (-10**5000, ValueError, "dilation factor must be positive, got -<5001 digits>"),
        (-10**400, ValueError, "dilation factor must be positive, got -<401 digits>"),
        (Fraction(-10**5000, 3), ValueError,
         "dilation factor must be positive, got -<5001 digits>/3"),
        (-(10**50 - 1), ValueError, f"dilation factor must be positive, got -{'9' * 50}"),
        (Fraction(1, 10**5000), IrrationalScale, "dilation denominator <5001 digits> exceeds 256"),
        (Fraction(1, 10**49), IrrationalScale, f"dilation denominator 1{'0' * 49} exceeds 256"),
    ],
    ids=["int-5001", "int-401", "fraction-5001", "int-50", "denominator-5001", "denominator-50"],
)
def test_dilation_refusals_name_a_long_integer_by_its_sign_and_digits(s, error, message):
    """An integer past 50 digits is named by its sign and digit count, also
    past the 4300 digits that ``str`` refuses; up to 50 it is written out."""
    f = random_signal(Grid(1, 64, 4.0), 8)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        theta_dilate(f, s, ANGLES[1])


@pytest.mark.parametrize("s", [1, 1.0, Fraction(2, 2)])
def test_dilation_by_one_is_the_identity(s):
    f = random_signal(Grid(1, 64, 4.0), 9)
    assert np.array_equal(theta_dilate(f, s, ANGLES[1]).values, f.values)
