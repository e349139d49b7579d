"""Each module tolerance pinned from both sides, and both deviation bounds
pinned term by term.

Every tolerance gets one input on each side of it, each within a factor of
10 to 100 of the constant, so a constant that moves by more than that
fails a test.  The bounds are compared with an independent copy of the
terms of the stability theorems at several shift norms and pooling
products, so that every power of ``‖t‖`` and of the product is separated.
"""
import math
import warnings

import numpy as np
import pytest

from frftkit import (
    AliasRiskWarning,
    FiberGrid,
    Grid,
    GramianField,
    NoDecay,
    NonCommutingOps,
    NotHermitian,
    SampledSignal,
    ShiftVector,
    ThetaParam,
    TruncationLoss,
    atom_decay_constant,
    check_admissibility,
    covariance_bound,
    fiber_map,
    frft_output_grid,
    hermitian_eig,
    invariance_bound,
    invariance_deviation,
    inverse_frft,
    theta_dilate,
)
from frftkit import approx
from frftkit.theta_ops import _alias_tail_fraction
from helpers import make_s1_layers, random_signal

GRID = Grid(1, 256, 8.0)
PI3 = ThetaParam(math.pi / 3)  # sin > 0: output bin l is chirped-spectrum bin l


def _spectrum_signal(values):
    """The signal on ``GRID`` whose transform at ``PI3`` is ``values``."""
    return inverse_frft(SampledSignal(frft_output_grid(GRID, PI3), values), PI3)


def _bump():
    """A narrow Gaussian over the output bins, below 1e-27 beyond N/4 of the
    center."""
    offset = np.arange(GRID.samples_per_dim) - GRID.samples_per_dim // 2
    return np.exp(-((offset / 8.0) ** 2)).astype(np.complex128)


def _with_fraction(values, at, fraction):
    """``values`` plus entry ``at`` set so that it holds ``fraction`` of the
    total energy."""
    values = values.copy()
    values[at] = 0.0
    rest = float(np.sum(np.abs(values) ** 2))
    values[at] = math.sqrt(fraction * rest / (1.0 - fraction))
    return values


# MODULUS_COT_TOL = 1e-9: |cot(pi/2 - e)| is e to within 1e-16.
@pytest.mark.parametrize("gap,raises", [(1e-8, True), (1e-10, False)], ids=["1e-8", "1e-10"])
def test_modulus_commutes_only_below_the_cot_tolerance(gap, raises):
    th = ThetaParam(math.pi / 2 - gap)
    grid = Grid(1, 64, 4.0)
    layers, _ = make_s1_layers(grid, th, (1.0,), ["modulus"])
    f = random_signal(grid, 60)
    if raises:
        with pytest.raises(NonCommutingOps):
            invariance_deviation(f, grid.spacing, layers, 1, th)
    else:
        assert invariance_deviation(f, grid.spacing, layers, 1, th) >= 0.0


# DECAY_EDGE_TOL = 1e-6: the edge bin's |w| |F phi(w)| is set to ``edge``.
@pytest.mark.parametrize("edge,raises", [(1e-5, True), (1e-7, False)], ids=["1e-5", "1e-7"])
def test_decay_edge_tolerance(edge, raises):
    values = _bump()
    values[0] = edge / abs(frft_output_grid(GRID, PI3).axis[0])
    phi = _spectrum_signal(values)
    if raises:
        with pytest.raises(NoDecay):
            atom_decay_constant(phi, PI3)
    else:
        k1, _, _ = atom_decay_constant(phi, PI3)
        assert k1 > edge


# The edge band is the outer ring of bins: weight above DECAY_EDGE_TOL on the
# second ring is inside the grid and passes, on the outer ring it raises.
@pytest.mark.parametrize("at,raises", [(0, True), (1, False), (254, False), (255, True)])
def test_decay_edge_band_is_the_outer_ring(at, raises):
    values = _bump()
    values[at] = 1e-5 / abs(frft_output_grid(GRID, PI3).axis[at])
    phi = _spectrum_signal(values)
    if raises:
        with pytest.raises(NoDecay):
            atom_decay_constant(phi, PI3)
    else:
        assert atom_decay_constant(phi, PI3)[0] > 1e-5


# A contraction by 3/2 of 256 bins folds the bins with |l - N/2| >= 128 * 2/3
# = 85.33: bins 43 and 213 (85 from the center) are kept, 42 and 214 fold.
@pytest.mark.parametrize("at,folds", [(42, True), (43, False), (213, False), (214, True)])
def test_alias_cut_between_bins_rounds_up(at, folds):
    values = np.zeros(GRID.samples_per_dim, dtype=np.complex128)
    values[[GRID.samples_per_dim // 2, at]] = 1.0
    assert _alias_tail_fraction(values[None], 3, 2, (-1,))[0] == (0.5 if folds else 0.0)
    f = _spectrum_signal(_with_fraction(_bump(), at, 1e-3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        theta_dilate(f, 1.5, PI3)
    assert [w.category for w in caught] == ([AliasRiskWarning] if folds else [])


# ALIAS_GUARD = 1e-12: a dilation by 2 keeps the bins within N/4 of the
# center, and one bin 3N/8 away holds ``fraction`` of the energy.
@pytest.mark.parametrize("fraction,warns", [(1e-11, True), (1e-13, False)],
                         ids=["1e-11", "1e-13"])
def test_alias_guard(fraction, warns):
    f = _spectrum_signal(_with_fraction(_bump(), 224, fraction))
    if warns:
        with pytest.warns(AliasRiskWarning):
            theta_dilate(f, 2, PI3)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", AliasRiskWarning)
            theta_dilate(f, 2, PI3)


# ADMISSIBILITY_SLACK = 1e-9, on each of the two products it bounds.
@pytest.mark.parametrize("excess,admissible", [(1e-8, False), (1e-10, True)],
                         ids=["1e-8", "1e-10"])
def test_admissibility_slack(excess, admissible):
    assert check_admissibility([(1.0 + excess, 1.0, 1.0)]) is admissible
    # B L^2 R^2 = 0.25 * 4 * (1 + excess / 2)^2
    assert check_admissibility([(0.25, 1.0, 2.0 * (1.0 + 0.5 * excess))]) is admissible


# TRUNCATION_TOL = 1e-6: one bin outside the offset window holds
# ``fraction`` of the energy.
@pytest.mark.parametrize("fraction,raises", [(1e-5, True), (1e-7, False)], ids=["1e-5", "1e-7"])
def test_truncation_tolerance(fraction, raises):
    fg = FiberGrid(PI3, 1, 16, 1)
    layout = approx._fiber_layout(GRID, fg)
    window = layout.index[layout.valid]
    assert 0 not in window
    values = np.zeros(GRID.samples_per_dim, dtype=np.complex128)
    values[window] = 1.0
    f = _spectrum_signal(_with_fraction(values, 0, fraction))
    if raises:
        with pytest.raises(TruncationLoss):
            fiber_map(f, fg)
    else:
        fiber_map(f, fg)


# HERMITIAN_TOL = 1e-10: ‖A - Aᴴ‖ is twice the anti-Hermitian part.
@pytest.mark.parametrize("part,raises", [(1e-9, True), (1e-11, False)], ids=["1e-9", "1e-11"])
def test_hermitian_tolerance(part, raises):
    r = np.random.default_rng(61)
    a = r.standard_normal((2, 4, 4)) + 1j * r.standard_normal((2, 4, 4))
    hermitian = a[0] + a[0].conj().T
    skew = a[1] - a[1].conj().T
    skew *= part * np.linalg.norm(hermitian) / np.linalg.norm(skew)
    matrix = hermitian + skew
    stack = np.stack([hermitian, matrix])
    fg = FiberGrid(PI3, 1, 2, 1)
    if raises:
        with pytest.raises(NotHermitian, match=r"stack index \[1\]"):
            hermitian_eig(stack)
        with pytest.raises(NotHermitian):
            GramianField(fg, stack)
    else:
        hermitian_eig(stack)
        GramianField(fg, stack)


def _invariance_terms(norm_t, cot, csc, factors):
    """The invariance theorem's bracket, written from the theorem with
    P = prod(s) and S = sum(1 / s^2)."""
    P = math.prod(factors)
    S = math.fsum(1.0 / s**2 for s in factors)
    return math.fsum([
        norm_t**4 * cot**2 / P**4,
        norm_t**4 * S**2 * cot**2,
        4.0 * norm_t**2 * csc**2 / P**2,
        4.0 * norm_t**3 * abs(cot) * abs(csc) / P**3,
        4.0 * norm_t**3 * S * abs(cot) * abs(csc) / P,
    ])


def _covariance_terms(norm_t, cot, csc, factors):
    """The covariance theorem's bracket, in the notation of
    :func:`_invariance_terms`."""
    P = math.prod(factors)
    S = math.fsum(1.0 / s**2 for s in factors)
    a, b = 1.0 - P**-2, 1.0 - 1.0 / P
    return math.fsum([
        norm_t**4 * S**2 * cot**2,
        norm_t**4 * a * cot**2,
        4.0 * norm_t**2 * b**2 * csc**2,
        4.0 * norm_t**2.5 * abs(cot) * abs(csc) * S,
        4.0 * norm_t**2.5 * abs(cot) * abs(csc) * a * b,
        2.0 * norm_t**4 * S * a * abs(csc) * cot**2,
    ])


@pytest.mark.parametrize("factors", [(2.0, 1.5), (1.25, 1.0, 3.0)], ids=["2,1.5", "1.25,1,3"])
@pytest.mark.parametrize("theta_val", [math.pi / 3, -2 * math.pi / 5], ids=["pi/3", "-2pi/5"])
def test_bounds_match_the_theorems_term_by_term(theta_val, factors):
    th = ThetaParam(theta_val)
    cot = math.cos(theta_val) / math.sin(theta_val)
    csc = 1.0 / math.sin(theta_val)
    K, norm_f = 0.7, 1.3
    scale = math.pi**2 * K**2 * norm_f**2
    for norm_t in (0.3, 1.0, 2.5):
        for bound, terms in ((invariance_bound, _invariance_terms),
                             (covariance_bound, _covariance_terms)):
            expected = scale * terms(norm_t, cot, csc, factors)
            got = bound(norm_t, th, factors, K, norm_f)
            assert got == pytest.approx(expected, rel=1e-14, abs=0.0), (bound.__name__, norm_t)
    # A 2-D shift enters through its norm only.
    pair = (0.6, 0.8)
    assert invariance_bound(pair, th, factors, K, norm_f) == pytest.approx(
        scale * _invariance_terms(1.0, cot, csc, factors), rel=1e-14, abs=0.0)


#: Both bounds on fixed inputs, with the value each returned before the two
#: shared one intake: a scalar, a pair and a :class:`ShiftVector` shift, both
#: signs of sin θ, zero to three pooling factors, and K and ‖f‖ other than 1.
EXACT_BOUNDS = [
    (invariance_bound, 0.3, math.pi / 3, (), 0.7, 1.3, "0x1.222612fda5be1p+2"),
    (invariance_bound, (0.6, 0.8), -2 * math.pi / 5, (2,), 1.7, 0.4, "0x1.aa8d6ad31c2b0p+2"),
    (invariance_bound, ShiftVector((0.25, -0.5)), 2.5, (2, 1.5), 0.7, 1.3, "0x1.d3a387db7c336p+2"),
    (invariance_bound, -1.5, -0.7, (3, 1, 1), 2.0, 3.0, "0x1.24bc9b7cb2766p+14"),
    (invariance_bound, 1.0, math.pi / 3, (2, 1.5), 0.7, 1.3, "0x1.8160595c33189p+3"),
    (invariance_bound, (0.125,), -2 * math.pi / 5, (3, 1, 1), 0.3, 2.5, "0x1.bc533b535a04cp-5"),
    (invariance_bound, ShiftVector((0.75,)), 1.2, (2,), 1.1, 0.9, "0x1.00c201b8e33f5p+3"),
    (invariance_bound, (-0.3, 0.4), -2.9, (), 4.0, 0.25, "0x1.0a4ad0aac53dep+8"),
    (invariance_bound, 2.5, 0.4, (2, 1.5), 0.7, 1.3, "0x1.d28a7495f8193p+10"),
    (invariance_bound, 0.5, -1.9, (3, 1, 1), 1.3, 0.6, "0x1.be63b086ac521p+0"),
    (covariance_bound, 0.3, math.pi / 3, (), 0.7, 1.3, "0x0.0p+0"),
    (covariance_bound, (0.6, 0.8), -2 * math.pi / 5, (2,), 1.7, 0.4, "0x1.30cb4cf70c4adp+3"),
    (covariance_bound, ShiftVector((0.25, -0.5)), 2.5, (2, 1.5), 0.7, 1.3, "0x1.3ca07a420982dp+5"),
    (covariance_bound, -1.5, -0.7, (3, 1, 1), 2.0, 3.0, "0x1.907e1f6fe31bdp+15"),
    (covariance_bound, 1.0, math.pi / 3, (2, 1.5), 0.7, 1.3, "0x1.b857c13de12c0p+5"),
    (covariance_bound, (0.125,), -2 * math.pi / 5, (3, 1, 1), 0.3, 2.5, "0x1.23fb144a2b6c9p-2"),
    (covariance_bound, ShiftVector((0.75,)), 1.2, (2,), 1.1, 0.9, "0x1.77aaade634069p+3"),
    (covariance_bound, (-0.3, 0.4), -2.9, (), 4.0, 0.25, "0x0.0p+0"),
    (covariance_bound, 2.5, 0.4, (2, 1.5), 0.7, 1.3, "0x1.5f1afed5bd8cfp+13"),
    (covariance_bound, 0.5, -1.9, (3, 1, 1), 1.3, 0.6, "0x1.e2153e7fa5f92p+2"),
]


@pytest.mark.parametrize("bound, t, theta_val, factors, K, norm_f, want", EXACT_BOUNDS)
def test_bounds_keep_their_bits(bound, t, theta_val, factors, K, norm_f, want):
    """Each bound returns the same float, bit for bit: a reordered product
    that ``pytest.approx`` would let pass fails here."""
    assert bound(t, theta_val, factors, K, norm_f).hex() == want
