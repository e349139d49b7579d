"""Transform-level checks: unitarity, oracle agreement, axis handling."""
import math
from fractions import Fraction

import numpy as np
import pytest

from frftkit import (
    AngleDegenerate,
    Grid,
    GridTooLarge,
    SampledSignal,
    ThetaParam,
    frft,
    frft_direct_oracle,
    frft_output_grid,
    inner_product,
    inverse_frft,
    l2_norm,
    theta_convolve,
    theta_dilate,
    theta_translate,
)
from frftkit import transform
from frftkit.transform import chirp_modulate
from helpers import dft_matrix_oracle, random_signal

GENERIC_ANGLES = [math.pi / 6, math.pi / 3, 2 * math.pi / 5, -math.pi / 3, 2.0, 4.0]


@pytest.mark.parametrize("theta_val", GENERIC_ANGLES)
def test_roundtrip_and_parseval_1d(theta_val):
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(theta_val)
    f = random_signal(grid, 11)
    out = frft(f, th)
    back = inverse_frft(out, th)
    scale = l2_norm(f)
    assert abs(l2_norm(out) - scale) <= 1e-8 * scale
    assert np.max(np.abs(back.values - f.values)) <= 1e-8 * scale
    assert back.grid == grid


@pytest.mark.parametrize("theta_val", GENERIC_ANGLES)
def test_roundtrip_and_parseval_2d(theta_val):
    grid = Grid(2, 32, 4.0)
    th = ThetaParam(theta_val)
    f = random_signal(grid, 12)
    out = frft(f, th)
    back = inverse_frft(out, th)
    scale = l2_norm(f)
    assert abs(l2_norm(out) - scale) <= 1e-8 * scale
    assert np.max(np.abs(back.values - f.values)) <= 1e-8 * scale


def assert_matches_oracle_both_ways(f, th):
    fast = frft(f, th)
    slow = frft_direct_oracle(f, th)
    assert fast.grid == slow.grid
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-12
    # The discrete inverse is the quadrature of the kernel at -theta.
    back = inverse_frft(fast, th)
    slow_back = frft_direct_oracle(fast, ThetaParam(-th.theta))
    assert back.grid == slow_back.grid == f.grid
    assert np.max(np.abs(back.values - slow_back.values)) <= 1e-12


@pytest.mark.parametrize("theta_val", GENERIC_ANGLES)
def test_matches_direct_oracle_1d(theta_val):
    grid = Grid(1, 256, 8.0)
    assert_matches_oracle_both_ways(random_signal(grid, 13), ThetaParam(theta_val))


@pytest.mark.parametrize("theta_val", [math.pi / 3, 2 * math.pi / 5, -1.0, -2.5])
def test_matches_direct_oracle_2d(theta_val):
    grid = Grid(2, 32, 4.0)
    assert_matches_oracle_both_ways(random_signal(grid, 14), ThetaParam(theta_val))


def test_quarter_turn_is_classical_fourier_transform():
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 2)
    f = random_signal(grid, 15)
    out = frft(f, th)
    classical = dft_matrix_oracle(f.as_nd(), grid.spacing, grid.period)
    assert out.grid.spacing == pytest.approx(1.0 / grid.period)
    assert np.max(np.abs(out.values - classical.ravel())) < 1e-8

    grid2 = Grid(2, 16, 4.0)
    f2 = random_signal(grid2, 16)
    out2 = frft(f2, th)
    classical2 = dft_matrix_oracle(f2.as_nd(), grid2.spacing, grid2.period)
    assert np.max(np.abs(out2.values - classical2.ravel())) < 1e-8


def test_axis_angles_identity_and_reflection():
    grid = Grid(1, 64, 4.0)
    f = random_signal(grid, 17)
    assert np.array_equal(frft(f, ThetaParam(0.0)).values, f.values)
    assert np.array_equal(frft(f, ThetaParam(2 * math.pi)).values, f.values)
    flipped = frft(f, ThetaParam(math.pi)).values
    idx = (-np.arange(grid.size)) % grid.size
    assert np.max(np.abs(flipped - f.values[idx])) == 0.0
    # reflection twice is the identity
    again = frft(SampledSignal(grid, flipped), ThetaParam(math.pi)).values
    assert np.array_equal(again, f.values)


def test_axis_angles_2d_reflection():
    grid = Grid(2, 16, 4.0)
    f = random_signal(grid, 18)
    flipped = frft(f, ThetaParam(-math.pi)).as_nd()
    idx = (-np.arange(grid.samples_per_dim)) % grid.samples_per_dim
    expected = f.as_nd()[np.ix_(idx, idx)]
    assert np.max(np.abs(flipped - expected)) == 0.0


def test_output_grid_geometry():
    grid = Grid(1, 256, 8.0)
    for theta_val in GENERIC_ANGLES:
        th = ThetaParam(theta_val)
        og = frft_output_grid(grid, th)
        assert og.samples_per_dim == grid.samples_per_dim
        assert og.spacing == pytest.approx(th.abs_sin / grid.period, rel=1e-15)


def test_theta_param_degeneracy_window():
    with pytest.raises(AngleDegenerate):
        ThetaParam(1e-10)
    with pytest.raises(AngleDegenerate):
        ThetaParam(math.pi + 1e-10)
    # inside the snap window the angle is treated as an exact axis angle
    assert ThetaParam(1e-13).is_axis
    assert ThetaParam(1e-13).axis_parity == 0
    assert ThetaParam(math.pi - 1e-13).axis_parity == 1
    assert ThetaParam(-math.pi).axis_parity == 1
    assert not ThetaParam(math.pi / 2).is_axis


def test_oracle_size_caps():
    with pytest.raises(GridTooLarge):
        frft_direct_oracle(random_signal(Grid(1, 1024, 8.0), 19), ThetaParam(1.0))
    with pytest.raises(GridTooLarge):
        frft_direct_oracle(random_signal(Grid(2, 128, 8.0), 20), ThetaParam(1.0))


def test_inner_product_and_norm_consistency():
    grid = Grid(1, 64, 4.0)
    f = random_signal(grid, 21)
    g = random_signal(grid, 22)
    assert inner_product(f, f).real == pytest.approx(l2_norm(f) ** 2, rel=1e-12)
    assert abs(inner_product(f, f).imag) < 1e-12 * l2_norm(f) ** 2
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))
    with pytest.raises(ValueError):
        inner_product(f, random_signal(Grid(1, 128, 4.0), 23))


def test_transform_preserves_inner_products():
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(2 * math.pi / 5)
    f = random_signal(grid, 24)
    g = random_signal(grid, 25)
    before = inner_product(f, g)
    after = inner_product(frft(f, th), frft(g, th))
    assert abs(after - before) <= 1e-8 * abs(before)


@pytest.mark.filterwarnings("ignore:dilation by")  # white noise folds; only bits matter
def test_plan_eviction_keeps_results_bit_identical():
    grid = Grid(2, 32, 4.0)
    th = ThetaParam(-2 * math.pi / 5)
    f = random_signal(grid, 41)
    g = random_signal(grid, 42)
    other = random_signal(Grid(1, 64, 2.0), 43)

    def results():
        F = frft(f, th)
        plan = transform._live_plan
        back = inverse_frft(F, th)
        assert transform._live_plan is plan  # the inverse reuses the forward plan
        return [
            F.values,
            back.values,
            chirp_modulate(f, th, -1).values,
            theta_convolve(f, g, th).values,
            theta_translate(f, (3 * grid.spacing, -grid.spacing), th).values,
            theta_dilate(f, 2, th).values,
            theta_dilate(f, Fraction(3, 2), th).values,
        ]

    first = results()
    F = frft(f, th)
    frft(other, ThetaParam(1.0))  # evicts the plan of (grid, th)
    assert transform._live_plan.in_grid == other.grid
    cold_back = inverse_frft(F, th)  # rebuilt from the output grid
    assert np.array_equal(cold_back.values, first[1])
    frft(other, ThetaParam(-1.0))
    again = results()
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
