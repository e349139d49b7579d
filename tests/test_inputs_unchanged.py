"""Every call leaves its inputs as they were, bit for bit.

The hot paths run their FFTs in place (``out=``) on arrays they have just
allocated.  These tests copy the bytes of each input before a call and
compare them after it, so an in-place transform that lands on an argument
fails here.  Public inputs are read-only ``SampledSignal`` values, kernels and
generators; the plan methods and ``_dilate_period`` take plain, writable
ndarrays.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from frftkit import (
    Grid,
    ThetaParam,
    energy_profile,
    frft,
    inverse_frft,
    invariance_deviation,
    partial_projection,
    theta_convolve,
    theta_dilate,
)
from frftkit.approx import FiberGrid, fiber_map, fit_sis, synthesize_generator
from frftkit.theta_ops import _dilate_period, _tile
from frftkit.transform import _chirp_plan
from helpers import banded_signal, make_s1_layers, random_signal

GRIDS = [Grid(1, 256, 8.0), Grid(2, 32, 4.0)]
ANGLES = [math.pi / 3, -math.pi / 3]  # both signs of sin(theta)
FACTORS = [2, Fraction(3, 2)]


def _unchanged(call, *arrays):
    """``call()``, after asserting that it left the bytes of ``arrays`` alone."""
    before = [a.tobytes() for a in arrays]
    result = call()
    assert [a.tobytes() for a in arrays] == before
    return result


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
@pytest.mark.parametrize("theta", ANGLES, ids=["sin+", "sin-"])
def test_transforms_leave_input_unchanged(grid, theta):
    th = ThetaParam(theta)
    f = random_signal(grid, 1)
    F = _unchanged(lambda: frft(f, th), f.values)
    _unchanged(lambda: inverse_frft(F, th), F.values)


@pytest.mark.filterwarnings("ignore::frftkit.AliasRiskWarning")
@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_theta_operators_leave_inputs_unchanged(grid):
    th = ThetaParam(math.pi / 3)
    f, g = random_signal(grid, 2), random_signal(grid, 3)
    _unchanged(lambda: theta_convolve(f, g, th), f.values, g.values)
    for s in FACTORS:
        _unchanged(lambda: theta_dilate(f, s, th), f.values)


@pytest.mark.parametrize(
    "grid, fgrid, ell",
    [
        (Grid(1, 256, 8.0), FiberGrid(ThetaParam(math.pi / 3), 1, 16, 7), 2),
        (Grid(2, 32, 4.0), FiberGrid(ThetaParam(math.pi / 3), 2, 8, 2), 1),
    ],
    ids=["1d", "2d"],
)
def test_fibers_and_synthesis_leave_inputs_unchanged(grid, fgrid, ell):
    members = [banded_signal(grid, fgrid.theta, 0.5, seed) for seed in (4, 5, 6)]
    fibers = [_unchanged(lambda: fiber_map(m, fgrid), m.values) for m in members]
    model = fit_sis(fibers, ell)
    for i in range(ell):
        _unchanged(lambda: synthesize_generator(model, i, grid), model.generators)
    f = members[0]
    _unchanged(lambda: partial_projection(f, model, 2), f.values, model.generators)


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_cascades_leave_signal_and_kernels_unchanged(grid):
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"])
    f = banded_signal(grid, th, 0.5, 7)
    inputs = [f.values] + [layer.kernels for layer in layers]
    _unchanged(lambda: energy_profile(f, layers, 2, th), *inputs)
    _unchanged(lambda: invariance_deviation(f, 2 * grid.spacing, layers, 2, th), *inputs)


@pytest.mark.filterwarnings("ignore::frftkit.AliasRiskWarning")
@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
@pytest.mark.parametrize("theta", ANGLES, ids=["sin+", "sin-"])
def test_plan_methods_leave_writable_arguments_unchanged(grid, theta):
    plan = _chirp_plan(grid, ThetaParam(theta))
    rng = np.random.default_rng(8)
    shape = (2,) + grid.shape  # a batch of two
    x, g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    _unchanged(lambda: plan.forward(x), x)
    _unchanged(lambda: plan.inverse(x), x)
    kernel = _unchanged(lambda: plan.kernel(g), g)
    _unchanged(lambda: plan.filter(x[:, None], kernel), x, kernel)
    for s in FACTORS:
        _unchanged(lambda: _tile(_dilate_period(x, Fraction(s), plan), plan), x)
