"""Frame bounds and energy-accounting routes for atom banks."""
import math

import numpy as np
import pytest

from frftkit import (
    AtomBank,
    FrameBounds,
    Grid,
    SampledSignal,
    ThetaParam,
    check_admissibility,
    frame_bounds,
    frft,
    frft_output_grid,
    inner_product,
    inverse_frft,
    l2_norm,
    theta_convolve,
    theta_translate,
)
from helpers import banded_signal, gauss_profile, random_signal, reflected_atom, tight_bank


def test_tight_bank_has_unit_bounds_and_parseval_sum():
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 3)
    bank = tight_bank(grid, th, 3, seed=7)
    bounds = frame_bounds(bank)
    assert abs(bounds.lower - 1.0) < 1e-12
    assert abs(bounds.upper - 1.0) < 1e-12
    f = banded_signal(grid, th, 0.45 * frft_output_grid(grid, th).extent, 8)
    total = sum(
        th.abs_sin * l2_norm(theta_convolve(g, f, th)) ** 2 for g in bank.atoms
    )
    assert abs(total - l2_norm(f) ** 2) < 1e-9



@pytest.mark.parametrize(
    "grid, theta_val",
    [(Grid(1, 128, 8.0), math.pi / 3), (Grid(1, 128, 8.0), -2 * math.pi / 5),
     (Grid(2, 16, 4.0), math.pi / 3), (Grid(2, 16, 4.0), -2 * math.pi / 5)],
    ids=["1d-pos-sin", "1d-neg-sin", "2d-pos-sin", "2d-neg-sin"],
)
def test_frame_spectrum_bits_match_a_scalar_reference(grid, theta_val):
    """Each bin of the frame spectrum is, bit for bit, ``re*re + im*im`` of
    each atom's transform in Python floats, summed over the atoms in order
    and times ``|sin θ|^n``."""
    th = ThetaParam(theta_val)
    atoms = tuple(random_signal(grid, seed) for seed in (3, 4, 5))
    spectra = [frft(atom, th).values.tolist() for atom in atoms]
    weight = th.abs_sin**grid.n_dims
    want = []
    for bins in zip(*spectra):
        total = 0.0
        for z in bins:
            total += z.real * z.real + z.imag * z.imag
        want.append(total * weight)
    got = frame_bounds(AtomBank(atoms, th)).spectrum
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))

def test_three_energy_routes_agree():
    """Translated-atom correlations, convolutions, and the spectral form
    measure the same analysis energy."""
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 3)
    og = frft_output_grid(grid, th)
    atoms = tuple(inverse_frft(gauss_profile(og, c, 0.6), th) for c in (-0.7, 0.0, 0.7))
    f = banded_signal(grid, th, 0.5, 17)

    literal = 0.0
    for g in atoms:
        g_check = reflected_atom(g, th)
        for j in range(grid.size):
            s = grid.axis[j]
            literal += grid.spacing * abs(
                inner_product(f, theta_translate(g_check, s, th))
            ) ** 2

    conv = sum(th.abs_sin * l2_norm(theta_convolve(g, f, th)) ** 2 for g in atoms)

    spectral = 0.0
    ff = frft(f, th)
    for g in atoms:
        fg = frft(g, th)
        spectral += th.abs_sin * float(
            np.sum(np.abs(fg.values) ** 2 * np.abs(ff.values) ** 2) * og.spacing
        )

    assert conv == pytest.approx(literal, rel=1e-10)
    assert conv == pytest.approx(spectral, rel=1e-10)


def test_one_hot_spectrum_probe():
    grid = Grid(1, 64, 4.0)
    th = ThetaParam(2 * math.pi / 5)
    og = frft_output_grid(grid, th)
    spec = np.zeros(og.size, dtype=np.complex128)
    spec[10] = 1.0
    atom = inverse_frft(SampledSignal(og, spec), th)
    bounds = frame_bounds(AtomBank((atom,), th))
    assert bounds.lower == pytest.approx(0.0, abs=1e-12)
    assert bounds.upper == pytest.approx(th.abs_sin, rel=1e-10)
    assert bounds.spectrum[10] == pytest.approx(th.abs_sin, rel=1e-10)
    assert np.max(np.abs(np.delete(bounds.spectrum, 10))) < 1e-12


def test_frame_bounds_scale_quadratically_with_atoms():
    grid = Grid(1, 64, 4.0)
    th = ThetaParam(math.pi / 3)
    og = frft_output_grid(grid, th)
    atom = inverse_frft(gauss_profile(og, 0.0, 0.5), th)
    one = frame_bounds(AtomBank((atom,), th))
    double = frame_bounds(AtomBank((atom.with_values(2.0 * atom.values),), th))
    assert double.upper == pytest.approx(4.0 * one.upper, rel=1e-12)
    pair = frame_bounds(AtomBank((atom, atom), th))
    assert pair.upper == pytest.approx(2.0 * one.upper, rel=1e-12)


@pytest.mark.parametrize("value", [1e155, 1e308], ids=["square-overflows", "transform-overflows"])
def test_overflowing_frame_spectrum_is_an_overflow(value):
    """Finite atoms whose frame spectrum is not finite raise OverflowError,
    whether the transform or only its squared magnitude overflows."""
    grid = Grid(1, 64, 4.0)
    atom = SampledSignal(grid, np.full(grid.size, value, dtype=np.complex128))
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="frame spectrum"):
        frame_bounds(AtomBank((atom,), ThetaParam(math.pi / 3)))


def test_check_admissibility_gates():
    assert check_admissibility([(0.9, 1.0, 1.0), (1.0, 1.0, 1.0)])
    assert not check_admissibility([(1.2, 1.0, 1.0)])
    # B below one but an expansive nonlinearity pushes B L^2 R^2 over
    assert not check_admissibility([(0.9, 1.2, 1.0)])
    assert check_admissibility([(0.5, 1.2, 1.0)])
    # the slack tolerates boundary-exact layers
    assert check_admissibility([(1.0 + 1e-10, 1.0, 1.0)])
    # FrameBounds objects are accepted directly
    grid = Grid(1, 64, 4.0)
    th = ThetaParam(math.pi / 3)
    bounds = frame_bounds(tight_bank(grid, th, 2, seed=3))
    assert check_admissibility([(bounds, 1.0, 1.0)])


def test_atom_bank_validation():
    th = ThetaParam(math.pi / 3)
    with pytest.raises(ValueError):
        AtomBank((), th)
    g1 = Grid(1, 64, 4.0)
    g2 = Grid(1, 128, 4.0)
    a = SampledSignal(g1, np.ones(g1.size, dtype=np.complex128))
    b = SampledSignal(g2, np.ones(g2.size, dtype=np.complex128))
    with pytest.raises(ValueError):
        AtomBank((a, b), th)


def test_frame_bounds_validation():
    grid = Grid(1, 64, 4.0)
    with pytest.raises(ValueError):
        FrameBounds(-0.1, 1.0, np.ones(grid.size), grid)
    with pytest.raises(ValueError):
        FrameBounds(2.0, 1.0, np.ones(grid.size), grid)


@pytest.mark.parametrize(
    "lower, upper, size, message",
    [
        (0.5, math.inf, 64, r"^frame bounds must satisfy 0 <= lower <= upper < inf$"),
        (math.nan, 1.0, 64, r"^frame bounds must satisfy 0 <= lower <= upper < inf$"),
        (0.5, 1.0, 63, "^spectrum length must match the grid size$"),
    ],
    ids=["infinite-upper", "nan-lower", "short-spectrum"],
)
def test_frame_bounds_refusals(lower, upper, size, message):
    with pytest.raises(ValueError, match=message):
        FrameBounds(lower, upper, np.ones(size), Grid(1, 64, 4.0))
