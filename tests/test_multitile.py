"""Multi-tile spectral supports and truncated frame expansions."""
import itertools
import math

import numpy as np
import pytest

from frftkit import (
    FiberField,
    FiberGrid,
    Grid,
    MultiTileModel,
    NotMultiTile,
    SampledSignal,
    ThetaParam,
    TileSet,
    bandlimited_project,
    fiber_map,
    fit_sis,
    frft,
    inner_product,
    inverse_frft,
    is_multitile,
    l2_norm,
    optimal_multitile,
    partial_projection,
    partition_multitile,
    project,
    synthesize_generator,
    theta_translate,
)
from frftkit.transform import centered_idft, chirp_modulate
from helpers import banded_signal, gauss_profile, random_fiber_fields

PI3 = ThetaParam(math.pi / 3)


def test_tileset_validation():
    cells = (((0,), (1,)), ((-1,), (0,)))
    tile = TileSet(PI3, 1, 2, 1, cells)
    assert tile.n_cells == 2
    assert tile.counts == (2, 2)
    with pytest.raises(ValueError):
        TileSet(PI3, 1, 2, 1, (((0,), (1,)),))  # wrong cell count
    with pytest.raises(ValueError):
        TileSet(PI3, 1, 2, 1, (((0,), (2,)), ((-1,), (0,))))  # offset out of bound
    with pytest.raises(ValueError):
        TileSet(PI3, 1, 2, 1, (((0,), (0,)), ((-1,), (0,))))  # duplicate offset


def test_is_multitile_and_partition():
    cells = (((-1,), (1,)), ((0,), (1,)))
    tile = TileSet(PI3, 1, 2, 1, cells)
    assert is_multitile(tile, 2)
    assert not is_multitile(tile, 1)
    parts = partition_multitile(tile, 2)
    assert len(parts) == 2
    assert all(is_multitile(p, 1) for p in parts)
    # part s carries the s-th smallest offset of every cell
    assert parts[0].cells == (((-1,),), ((0,),))
    assert parts[1].cells == (((1,),), ((1,),))


def test_optimal_multitile_matches_exhaustive_search():
    rng = np.random.default_rng(314)
    fg = FiberGrid(PI3, 1, 4, 2)
    fibers = random_fiber_fields(fg, 3, rng)
    ell, bound = 2, 2
    model = optimal_multitile(fibers, ell, bound)
    assert is_multitile(model.tile, ell)
    energy = np.sum(np.abs(np.stack([f.data for f in fibers])) ** 2, axis=0)
    cands = [(k,) for k in range(-bound, bound + 1)]
    off_index = {k: i for i, k in enumerate(fg.offsets)}
    for w in range(fg.n_cells):
        best = None
        for subset in itertools.combinations(cands, ell):
            e = sum(energy[w, off_index[k]] for k in subset)
            if best is None or e > best[0] + 1e-15:
                best = (e, tuple(sorted(subset)))
        assert model.tile.cells[w] == best[1]


def test_optimal_multitile_guards():
    rng = np.random.default_rng(315)
    fg = FiberGrid(PI3, 1, 4, 2)
    fibers = random_fiber_fields(fg, 2, rng)
    from frftkit import BadRank

    with pytest.raises(BadRank):
        optimal_multitile(fibers, 6, 2)  # only 5 candidate offsets


def test_multitile_model_validation():
    cells = (((-1,), (1,)), ((0,), (1,)))
    tile = TileSet(PI3, 1, 2, 1, cells)
    MultiTileModel(tile, 2, cells)
    ragged = TileSet(PI3, 1, 2, 1, (((-1,), (1,)), ((0,),)))
    with pytest.raises(NotMultiTile):
        MultiTileModel(ragged, 2, ragged.cells)


def test_bandlimited_projection_properties():
    grid = Grid(1, 256, 8.0)  # frequency period 16 == cell count
    rng = np.random.default_rng(316)
    fg = FiberGrid(PI3, 1, 16, 3)
    f = banded_signal(grid, PI3, 0.6, 99)
    fibers = [fiber_map(banded_signal(grid, PI3, 0.6, s), fg) for s in (1, 2)]
    model = optimal_multitile(fibers, 2, 3)
    proj = bandlimited_project(f, model)
    again = bandlimited_project(proj, model)
    assert np.max(np.abs(again.values - proj.values)) < 1e-10
    # the projection is orthogonal: residual is perpendicular to the range
    resid = f.with_values(f.values - proj.values)
    assert abs(inner_product(resid, proj)) < 1e-10
    assert l2_norm(proj) <= l2_norm(f) + 1e-12

    # spectrum restricted exactly to the selected bins
    spec = frft(proj, PI3)
    spec_f = frft(f, PI3)
    period = 16
    og_n = grid.samples_per_dim
    allowed = np.zeros(og_n, dtype=bool)
    for w, cell in enumerate(model.tile.cells):
        for off in cell:
            b = og_n // 2 + w + period * off[0]
            if 0 <= b < og_n:
                allowed[b] = True
    assert np.max(np.abs(spec.values[~allowed])) < 1e-10
    assert np.max(np.abs(spec.values[allowed] - spec_f.values[allowed])) < 1e-10


def reference_keep_mask(grid, tile):
    """Set-membership mask of the kept output bins, one bin at a time."""
    n = grid.samples_per_dim
    period = round(grid.period)
    members = [frozenset(cell) for cell in tile.cells]
    labels = []
    for l in range(n):
        m = l - n // 2
        w = m % period
        labels.append((w, tile.theta.sign_sin * ((m - w) // period)))
    keep = np.zeros(grid.shape, dtype=bool)
    for index in itertools.product(range(n), repeat=grid.n_dims):
        cell = 0
        for l in index:
            cell = cell * tile.omega_samples + labels[l][0]
        offset = tuple(labels[l][1] for l in index)
        keep[index] = offset in members[cell]
    return keep, max(abs(k) for _, k in labels)


@pytest.mark.parametrize(
    "n_dims,samples,extent,bound,ell,theta",
    [
        (1, 64, 2.0, 2, 2, PI3),
        (1, 64, 2.0, 1, 3, ThetaParam(-math.pi / 3)),
        (2, 32, 2.0, 1, 2, PI3),
        (2, 32, 2.0, 2, 4, ThetaParam(-math.pi / 4)),
    ],
)
def test_bandlimited_project_matches_membership_loop(n_dims, samples, extent, bound, ell, theta):
    grid = Grid(n_dims, samples, extent)
    omega = round(grid.period)
    rng = np.random.default_rng(317 + samples + bound)
    cands = list(itertools.product(range(-bound, bound + 1), repeat=n_dims))
    cells = tuple(
        tuple(sorted(cands[j] for j in rng.choice(len(cands), ell, replace=False)))
        for _ in range(omega**n_dims)
    )
    tile = TileSet(theta, n_dims, omega, bound, cells)
    model = MultiTileModel(tile, ell, cells)
    keep, max_offset = reference_keep_mask(grid, tile)
    assert max_offset > bound  # decoded offsets reach past the tile bound
    f = SampledSignal(
        grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )
    spectrum = frft(f, theta)
    masked = np.where(keep, spectrum.values.reshape(grid.shape), 0.0)
    expected = inverse_frft(spectrum.with_values(masked.ravel()), theta)
    assert np.array_equal(bandlimited_project(f, model).values, expected.values)


def sorted_key_selection(fibers, ell, bound):
    """Per-cell ranking with a Python sort key, the reference for ties."""
    grid = fibers[0].grid
    energy = np.sum(np.abs(np.stack([f.data for f in fibers])) ** 2, axis=0)
    slot = {k: i for i, k in enumerate(grid.offsets)}
    cands = list(itertools.product(range(-bound, bound + 1), repeat=grid.n_dims))
    return tuple(
        tuple(
            sorted(cands, key=lambda k: (-energy[w, slot[k]] if k in slot else 0.0, k))[:ell]
        )
        for w in range(grid.n_cells)
    )


@pytest.mark.parametrize(
    "n_dims,window,one_sided,bound,ell",
    [(1, 2, False, 3, 3), (1, 2, True, 2, 4), (2, 1, False, 2, 5), (2, 2, True, 1, 6)],
)
def test_optimal_multitile_matches_sorted_key_ranking(n_dims, window, one_sided, bound, ell):
    fg = FiberGrid(PI3, n_dims, 3, window, one_sided)
    rng = np.random.default_rng(318 + ell)
    fibers = []
    for fib in random_fiber_fields(fg, 2, rng):
        data = fib.data.copy()
        data[rng.random(data.shape) < 0.4] = 0.0  # zero-energy candidates tie at 0
        fibers.append(FiberField(fg, data))
    model = optimal_multitile(fibers, ell, bound)
    expected = sorted_key_selection(fibers, ell, bound)
    assert model.selection == expected
    assert model.tile.cells == tuple(tuple(sorted(c)) for c in expected)


def test_partial_projection_exact_for_nested_band_family():
    """With fibers constant across cells the truncated expansion already
    equals the projection at a modest shift count."""
    grid = Grid(1, 2048, 64.0)  # frequency period 128
    period = 128
    members = []
    for m_band in (1, 2, 3):
        spec = np.zeros(grid.size, dtype=np.complex128)
        lo = grid.size // 2
        spec[lo : lo + m_band * period] = 1.0
        tw = centered_idft(spec, grid.spacing)
        members.append(chirp_modulate(SampledSignal(grid, tw), PI3, -1))
    fg = FiberGrid(PI3, 1, period, 8)
    model = fit_sis([fiber_map(m, fg) for m in members], 2)
    f = members[0].with_values(members[0].values + 0.3 * members[2].values)
    want = project(fiber_map(f, fg), model)
    got = fiber_map(partial_projection(f, model, 32), fg)
    num = float(np.sqrt(np.sum(np.abs(got.data - want.data) ** 2)))
    den = float(np.sqrt(np.sum(np.abs(want.data) ** 2)))
    assert num / den < 1e-3


def test_partial_projection_converges_for_varying_fibers():
    grid = Grid(1, 256, 8.0)
    from frftkit import frft_output_grid, inverse_frft

    og = frft_output_grid(grid, PI3)
    fg = FiberGrid(PI3, 1, 16, 7)
    members = [
        inverse_frft(gauss_profile(og, c, w), PI3)
        for c, w in ((-0.35, 0.5), (0.2, 0.8), (0.5, 0.35))
    ]
    model = fit_sis([fiber_map(m, fg) for m in members], 2)
    f = banded_signal(grid, PI3, 0.6, 23)

    # Parseval check: translated-generator coefficients capture exactly the
    # fiberwise projection energy
    fib = fiber_map(f, fg)
    proj = project(fib, model)
    norm_pv = float(np.sum(np.abs(proj.data) ** 2)) / 16.0
    total = 0.0
    for i in range(2):
        phi = synthesize_generator(model, i, grid)
        for k in range(-8, 8):
            total += abs(inner_product(f, theta_translate(phi, float(k), PI3))) ** 2
    assert total == pytest.approx(norm_pv, rel=1e-12)
    assert norm_pv == pytest.approx(0.9991482970, abs=1e-8)

    target = l2_norm(f) ** 2 - norm_pv
    residuals = []
    for n_shifts in (0, 1, 2, 3, 5, 7):
        approx_f = partial_projection(f, model, n_shifts)
        diff = f.with_values(f.values - approx_f.values)
        residuals.append(l2_norm(diff) ** 2)
    frozen = [0.939095, 0.875253, 0.693791, 0.562860, 0.296367, 0.020696]
    assert np.max(np.abs(np.array(residuals) - frozen)) < 5e-6
    assert all(residuals[i + 1] <= residuals[i] + 1e-12 for i in range(5))
    assert residuals[-1] - target < 0.05
    with pytest.raises(ValueError):
        partial_projection(f, model, -1)
