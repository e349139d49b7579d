"""Multi-tile spectral supports and truncated frame expansions."""
import itertools
import math

import numpy as np
import pytest

from frftkit import (
    FiberField,
    FiberGrid,
    Grid,
    GridMismatch,
    MultiTileModel,
    NotMultiTile,
    OffGridShift,
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
from frftkit import approx, multitile
from frftkit.cli import main, write_signal
from frftkit.transform import _chirp_plan, centered_idft, chirp_modulate
from helpers import (
    banded_signal,
    fft_rows,
    frame_expansion_reference,
    gauss_profile,
    random_fiber_fields,
    random_signal,
    tile_cells_reference,
)

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


def _outcome(call):
    """``(type, message)`` of what ``call()`` raises, or ``None``."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc), str(exc)
    return None


# Cells that break the rules, named by the first rule each breaks in 2-D.
_DEFECTS = {
    "unsorted": ((1, 0), (0, 1)),
    "duplicate": ((0, 1), (0, 1)),
    "short": ((0, 0), (1,)),
    "long": ((0, 0), (0, 1, 2)),
    "short-first": ((1,), (0, 0)),
    "out-of-bound": ((0, 0), (0, 3)),
    "below-bound": ((-3, 0), (0, 0)),
    "bound-then-short": ((0, 3), (1,)),
}


def _ragged_tile(seed):
    """``(n_dims, cells)`` with bound 2 and 3 cells per axis: up to 3 random
    offsets per cell, then defects planted in ``seed % 4`` cells."""
    rng = np.random.default_rng(seed)
    n_dims = 1 + seed % 2
    cands = list(itertools.product(range(-2, 3), repeat=n_dims))
    cells = []
    for _ in range(3**n_dims):
        picks = rng.choice(len(cands), size=rng.integers(0, 4), replace=False)
        cells.append(tuple(cands[j] for j in sorted(picks)))
    for _ in range(seed % 4):
        kind = list(_DEFECTS)[int(rng.integers(len(_DEFECTS)))]
        # In 1-D the pairs are cut to one component; the triple keeps its wrong arity.
        cells[int(rng.integers(len(cells)))] = tuple(
            k[:1] if n_dims == 1 and len(k) == 2 else k for k in _DEFECTS[kind]
        )
    return n_dims, tuple(cells)


@pytest.mark.parametrize(
    "n_dims, cells",
    [_ragged_tile(seed) for seed in range(40)]
    + [
        (1, ((), (), ())),
        (2, (((-2, 2), (0, 0), (0, 1)), (), ((2, -2),), ((-1, 0), (0, -1), (1, 1)), (), (), (), (), ())),
        (1, (((0,), (1.5,)), ((True,),), ((2,),))),  # not all ints: no integer array
        (1, (((2**70,),), (), ())),  # past int64
        (1, (((2,), (0,)), ((0,), [1]), ())),  # an unsorted cell before a list offset
    ],
    ids=[f"ragged-{seed}" for seed in range(40)]
    + ["empty", "2d-valid", "non-int", "huge", "list-offset"],
)
def test_tileset_validation_matches_the_reference_loop(n_dims, cells):
    """Every tile, valid (one ragged tile in four, and the edge cases) or
    with defects in several cells, meets the same outcome as the loop the
    array validation replaced: no error, or one type and message."""
    want = _outcome(lambda: tile_cells_reference(cells, n_dims, 2))
    got = _outcome(lambda: TileSet(PI3, n_dims, 3, 2, cells))
    assert got == want
    flat = multitile._flat_offsets(cells, n_dims)
    if want is None and flat is not None and flat[1].dtype.kind == "i":
        # A valid tile flags no offset, so the per-cell check never runs.
        assert not multitile._defects(*flat, 2).any()


def test_tileset_from_lists_is_stored_as_tuples_and_hashes():
    """Cells given as lists of offset tuples are stored as tuples, so the
    tile hashes and equals the tile of the same tuples."""
    tile = TileSet(PI3, 1, 2, 1, [[(0,), (1,)], [(-1,), (0,)]])
    assert tile.cells == (((0,), (1,)), ((-1,), (0,)))
    assert hash(tile) == hash(TileSet(PI3, 1, 2, 1, (((0,), (1,)), ((-1,), (0,)))))


def test_tileset_refuses_offsets_that_are_not_integers():
    """A fractional or bool component is refused, also where the rest of
    the tile makes an integer array; NumPy integers are accepted."""
    with pytest.raises(ValueError, match=r"cell 0 offset \(0.5,\) is not an integer vector"):
        TileSet(PI3, 1, 4, 1, (((0.5,),),) * 4)
    with pytest.raises(ValueError, match=r"cell 1 offset \(True,\) is not an integer vector"):
        TileSet(PI3, 1, 2, 1, (((0,), (1,)), ((True,),)))
    with pytest.raises(ValueError, match="cell 0 offset"):
        TileSet(PI3, 2, 1, 1, (((0, np.float64(1.0)),),))
    tile = TileSet(PI3, 1, 2, 1, (((np.int64(-1),), (np.int32(1),)), ((0,),)))
    assert tile.cells[0] == ((-1,), (1,))


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
    with pytest.raises(ValueError, match="^need at least one fiber field$"):
        optimal_multitile([], 1, 1)
    mixed = [fibers[0], *random_fiber_fields(FiberGrid(PI3, 1, 4, 3), 1, rng)]
    with pytest.raises(GridMismatch, match="^all fiber fields must share one fiber grid$"):
        optimal_multitile(mixed, 1, 1)


def test_multitile_model_validation():
    cells = (((-1,), (1,)), ((0,), (1,)))
    tile = TileSet(PI3, 1, 2, 1, cells)
    MultiTileModel(tile, 2, cells)
    ragged = TileSet(PI3, 1, 2, 1, (((-1,), (1,)), ((0,),)))
    with pytest.raises(NotMultiTile):
        MultiTileModel(ragged, 2, ragged.cells)


def test_multitile_model_names_the_first_wrong_cell():
    """A selection wrong in several cells is refused at the first of them,
    whether it is missing, gains or swaps an offset."""
    rng = np.random.default_rng(318)
    cands = list(itertools.product(range(-2, 3), repeat=2))
    cells = tuple(
        tuple(sorted(cands[j] for j in rng.choice(len(cands), 3, replace=False)))
        for _ in range(9)
    )
    tile = TileSet(PI3, 2, 3, 2, cells)
    selection = [cell[::-1] for cell in cells]  # any order of the right offsets
    MultiTileModel(tile, 3, tuple(selection))
    spare = {w: next(k for k in cands if k not in cell) for w, cell in enumerate(cells)}
    wrongs = {
        4: cells[4][:2],
        6: cells[6] + (spare[6],),
        7: (spare[7],) + cells[7][1:],
    }
    for first in sorted(wrongs):
        bad = list(selection)
        for w in wrongs:
            if w >= first:
                bad[w] = wrongs[w]
        with pytest.raises(ValueError, match=f"selection at cell {first} disagrees"):
            MultiTileModel(tile, 3, tuple(bad))


def test_multitile_model_checks_every_cell_at_once():
    """A selection permuted within each cell passes; one with an offset
    foreign to its cell (outside the tile's bound, or a duplicate standing
    in for an offset) is refused at that cell, the first such."""
    rng = np.random.default_rng(319)
    cands = list(itertools.product(range(-2, 3), repeat=2))
    cells = tuple(
        tuple(sorted(cands[j] for j in rng.choice(len(cands), 4, replace=False)))
        for _ in range(16)
    )
    tile = TileSet(PI3, 2, 4, 2, cells)
    permuted = tuple(tuple(cell[j] for j in rng.permutation(4)) for cell in cells)
    assert MultiTileModel(tile, 4, permuted).selection == permuted
    for w, foreign in ((5, (9, 9)), (11, cells[11][1])):
        bad = list(permuted)
        bad[w] = (foreign,) + tuple(cells[w][1:])
        with pytest.raises(ValueError, match=f"^selection at cell {w} disagrees with the tile"):
            MultiTileModel(tile, 4, tuple(bad))


@pytest.mark.parametrize("bound", [1, 3])
@pytest.mark.parametrize("theta", [PI3, ThetaParam(-2 * math.pi / 5)], ids=["pi/3", "-2pi/5"])
@pytest.mark.parametrize("n_dims,samples", [(1, 64), (1, 128), (2, 32), (2, 64)])
@pytest.mark.parametrize("period", [4, 8, 16])
def test_bandlimited_project_matches_the_wider_window(period, n_dims, samples, theta, bound):
    """The projection's window ceil((N/2)/P) reaches every bin that the
    window N/(2P) + 1 reaches: the two masks agree, and the projection is
    the filter with the wider mask, bit for bit.  Every period here divides
    N/2, where the two windows differ."""
    assert -(-(samples // 2) // period) == samples // (2 * period)
    grid = Grid(n_dims, samples, period / 2)
    rng = np.random.default_rng(period + samples + bound)
    cands = list(itertools.product(range(-bound, bound + 1), repeat=n_dims))
    cells = tuple(
        tuple(sorted(cands[j] for j in rng.choice(len(cands), 2, replace=False)))
        for _ in range(period**n_dims)
    )
    model = MultiTileModel(TileSet(theta, n_dims, period, bound, cells), 2, cells)
    f = SampledSignal(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
    keep = multitile._support_mask(grid, model.tile, samples // (2 * period) + 1)
    narrow = multitile._support_mask(grid, model.tile, -(-(samples // 2) // period))
    assert np.array_equal(narrow, keep)
    plan = _chirp_plan(grid, theta)
    expected = plan.unchirp(plan.filter(plan.chirp(f.as_nd()), keep))
    assert np.array_equal(bandlimited_project(f, model).as_nd(), expected)


def test_fibers_and_projection_share_one_layout(monkeypatch, tmp_path):
    """A projection reads the fiber layout that the fiber maps of the same
    grid built: with P dividing N/2, and through ``multitile fit`` also where
    it does not."""
    grid = Grid(2, 32, 4.0)  # P = 8, window N/(2P) = 2
    fg = FiberGrid(PI3, 2, 8, 2)
    builds = []
    init = approx._FiberLayout.__init__

    def counting(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(approx, "_live_layout", None)
    monkeypatch.setattr(approx._FiberLayout, "__init__", counting)
    members = [banded_signal(grid, PI3, 1.0, s) for s in (5, 6)]
    model = optimal_multitile([fiber_map(m, fg) for m in members], 2, 2)
    bandlimited_project(members[0], model)
    assert len(builds) == 1

    grid = Grid(1, 128, 6.0)  # P = 12, covering window ceil(64/12) = 6
    paths = []
    for s in (5, 6):
        paths.append(str(tmp_path / f"m{s}.csv"))
        write_signal(paths[-1], banded_signal(grid, PI3, 1.0, s))
    builds.clear()
    assert main(["multitile", "fit", "--data", *paths, "--ell", "2", "--N", "1",
                 "--theta-frac", "1", "3", "--out-dir", str(tmp_path / "tiles")]) == 0
    assert len(builds) == 1


def test_sis_fit_fft_rows(monkeypatch):
    """The FFT rows of one op of the benchmark's SIS fit (2-D 128², extent
    8, 4 members, rank 2, tile bound 3, window 4): one 128² row per fiber
    map, one for the generator, and a forward and an inverse one for the
    projection; the fit and the tile ranking transform nothing.  The
    projection's covering window is the fit's, so one layout serves all."""
    grid, th = Grid(2, 128, 8.0), PI3
    fg = FiberGrid(th, 2, 16, 4)
    assert approx._covering_window(grid) == fg.window
    family = [banded_signal(grid, th, 2.0, s) for s in range(4)]
    builds = []
    init = approx._FiberLayout.__init__

    def counting(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(approx, "_live_layout", None)
    monkeypatch.setattr(approx._FiberLayout, "__init__", counting)
    with fft_rows() as total:
        with fft_rows() as counts:
            fibers = [fiber_map(f, fg) for f in family]
        assert counts == [4, 4 * 128**2]
        with fft_rows() as counts:
            model = fit_sis(fibers, 2)
            approx.approximation_error(model)
        assert counts == [0, 0]
        with fft_rows() as counts:
            synthesize_generator(model, 0, grid)
        assert counts == [1, 128**2]
        with fft_rows() as counts:
            tiles = optimal_multitile(fibers, 2, 3)
        assert counts == [0, 0]
        with fft_rows() as counts:
            bandlimited_project(family[0], tiles)
        assert counts == [2, 2 * 128**2]
    assert total == [7, 114688]
    assert len(builds) == 1


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
    # The transform route, which does not go through the chirped filter; a
    # wrong bin would be off by O(1).
    spectrum = frft(f, theta)
    masked = np.where(keep, spectrum.values.reshape(grid.shape), 0.0)
    expected = inverse_frft(spectrum.with_values(masked.ravel()), theta)
    got = bandlimited_project(f, model).values
    assert np.max(np.abs(got - expected.values)) <= 1e-13 * np.max(np.abs(f.values))


def tile_slot_mask(fg, tile):
    """Fiber slots of ``fg`` that the tile carries, one offset at a time."""
    slot = {k: i for i, k in enumerate(fg.offsets)}
    mask = np.zeros((fg.n_cells, fg.window_size), dtype=bool)
    for w, cell in enumerate(tile.cells):
        for k in cell:
            mask[w, slot[k]] = True
    return mask


def with_nyquist_bin(f, theta, weight):
    """``f`` plus ``weight`` in output bin 0 on every axis of its transform."""
    spectrum = frft(f, theta)
    values = spectrum.values.copy()
    values[0] += weight
    return inverse_frft(spectrum.with_values(values), theta)


@pytest.mark.parametrize("n_dims,samples,extent", [(1, 32, 2.0), (2, 16, 2.0)])
@pytest.mark.parametrize(
    "theta_val", [math.pi / 3, -math.pi / 3, -math.pi / 4], ids=["pi/3", "-pi/3", "-pi/4"]
)
def test_bandlimited_project_keeps_exactly_the_tile_fibers(n_dims, samples, extent, theta_val):
    theta = ThetaParam(theta_val)
    grid = Grid(n_dims, samples, extent)
    period = round(grid.period)
    window = samples // (2 * period)  # the Nyquist offsets are candidates
    fg = FiberGrid(theta, n_dims, period, window)
    rng = np.random.default_rng(319 + samples)
    members = [
        SampledSignal(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
        for _ in range(2)
    ]
    # A heavy Nyquist bin makes cell 0 select the offset (-window, ..).
    members[0] = with_nyquist_bin(members[0], theta, 50.0)
    model = optimal_multitile([fiber_map(m, fg) for m in members], 2, window)
    assert (-window,) * n_dims in model.tile.cells[0]
    keep = tile_slot_mask(fg, model.tile)
    for f in members:
        want = np.where(keep, fiber_map(f, fg).data, 0.0)
        got = fiber_map(bandlimited_project(f, model), fg).data
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("theta_val", [math.pi / 3, -math.pi / 3], ids=["pi/3", "-pi/3"])
def test_bandlimited_project_keeps_the_nyquist_bin(theta_val):
    theta = ThetaParam(theta_val)
    grid = Grid(1, 32, 2.0)
    fg = FiberGrid(theta, 1, 4, 4)
    f = with_nyquist_bin(SampledSignal(grid, np.zeros(grid.size, dtype=np.complex128)), theta, 1.0)
    model = optimal_multitile([fiber_map(f, fg)], 1, 4)
    assert model.tile.cells[0] == ((-4,),)
    proj = bandlimited_project(f, model)
    assert l2_norm(f.with_values(f.values - proj.values)) <= 1e-12 * l2_norm(f)


def test_bandlimited_project_grid_guards():
    cells = (((0,),),) * 4
    model = MultiTileModel(TileSet(PI3, 1, 4, 1, cells), 1, cells)
    # W = 4 cells divide the period P = 8, but each would stand for two columns.
    f = random_signal(Grid(1, 64, 4.0), 320)
    with pytest.raises(GridMismatch, match=r"^bandlimited projection needs one cell per "
                       r"spectrum column: period 8 != 4 cells$"):
        bandlimited_project(f, model)
    f = random_signal(Grid(1, 64, 4.25), 321)
    with pytest.raises(GridMismatch, match=r"^signal period 8\.5 is not an integer$"):
        bandlimited_project(f, model)


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
    "n_dims,window,bound,ell,zeros",
    [
        (1, 2, 3, 3, 0.4),
        (1, 2, 2, 4, 0.4),
        (2, 1, 2, 5, 0.4),
        (2, 2, 1, 6, 0.4),
        # An all-zero family: every candidate ties, and all of them are kept.
        (1, 2, 2, 5, 1.0),
        (2, 1, 1, 9, 1.0),
        # A bound beyond the window, with more picks than in-window offsets.
        (1, 1, 4, 7, 0.4),
        (2, 1, 3, 12, 0.4),
    ],
    ids=[
        "1-2-3-3",
        "1-2-2-4",
        "2-1-2-5",
        "2-2-1-6",
        "all-zero-1d",
        "all-zero-2d",
        "bound-past-window-1d",
        "bound-past-window-2d",
    ],
)
def test_optimal_multitile_matches_sorted_key_ranking(n_dims, window, bound, ell, zeros):
    fg = FiberGrid(PI3, n_dims, 3, window)
    rng = np.random.default_rng(318 + ell)
    fibers = []
    for fib in random_fiber_fields(fg, 2, rng):
        data = fib.data.copy()
        data[rng.random(data.shape) < zeros] = 0.0  # zero-energy candidates tie at 0
        fibers.append(FiberField(fg, data))
    model = optimal_multitile(fibers, ell, bound)
    expected = sorted_key_selection(fibers, ell, bound)
    assert model.selection == expected
    assert model.tile.cells == tuple(tuple(sorted(c)) for c in expected)


def test_optimal_multitile_ties_overflowing_energies_toward_smaller_offsets():
    """Slots of 1e200-scale fibers have energies that overflow to +inf, so
    they all tie at the top; the ties still go to the smaller offsets."""
    fg = FiberGrid(PI3, 2, 3, 2)
    rng = np.random.default_rng(320)
    fibers = []
    for fib in random_fiber_fields(fg, 2, rng):
        data = fib.data.copy()
        data[rng.random(data.shape) < 0.3] *= 1e200
        fibers.append(FiberField(fg, data))
    with np.errstate(over="ignore"):
        energy = sum(np.abs(f.data) ** 2 for f in fibers)
        model = optimal_multitile(fibers, 6, 2)
        expected = sorted_key_selection(fibers, 6, 2)
    assert np.all(np.sum(np.isinf(energy), axis=1) >= 2)  # ties at +inf in every cell
    assert model.selection == expected
    assert model.tile.cells == tuple(tuple(sorted(c)) for c in expected)


def test_window_slots_clip_offsets_past_the_window():
    fg = FiberGrid(PI3, 2, 3, 1)
    offsets = np.array([[-3, 0], [2, 1], [0, 0], [1, -1], [-1, 5], [-2, -4]])
    slot, in_window = multitile._window_slots(fg, offsets)
    # Each axis clips onto -1 .. 1, slots flatten row-major over 3 x 3.
    assert slot.tolist() == [1, 8, 4, 6, 2, 0]
    assert in_window.tolist() == [False, False, True, True, False, False]


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


def _random_model(grid, fgrid, ell=2):
    """A model fitted to the fibers of three white-noise members; they are
    read through the layout, so no window needs to hold their spectra."""
    layout = approx._fiber_layout(grid, fgrid)
    fibers = [FiberField(fgrid, approx._gather(random_signal(grid, s), layout)[1])
              for s in (1, 2, 3)]
    return fit_sis(fibers, ell)


_EXPANSION_CASES = [  # (grid, cells W < P, window)
    (Grid(1, 256, 8.0), 8, 8),
    (Grid(2, 32, 4.0), 4, 2),
]


@pytest.mark.parametrize("grid, cells, window", _EXPANSION_CASES, ids=["1d", "2d"])
@pytest.mark.parametrize("theta_val", [math.pi / 3, -math.pi / 4], ids=["sin+", "sin-"])
@pytest.mark.parametrize("n_of_cells", [lambda w: 0, lambda w: 1, lambda w: 3, lambda w: w,
                                        lambda w: 2 * w + 1], ids=["0", "1", "3", "W", "2W+1"])
def test_partial_projection_matches_the_shift_loop(grid, cells, window, theta_val, n_of_cells):
    """The fiber-domain expansion against the loop over every shift and
    generator, shifts past the period included."""
    th = ThetaParam(theta_val)
    model = _random_model(grid, FiberGrid(th, grid.n_dims, cells, window))
    f = random_signal(grid, 9)
    n = n_of_cells(cells)
    want = frame_expansion_reference(
        f, model, itertools.product(range(-n, n + 1), repeat=grid.n_dims))
    got = partial_projection(f, model, n).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 32, 4.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("theta_val", [math.pi / 3, -math.pi / 4], ids=["sin+", "sin-"])
def test_full_period_expansion_is_the_fiber_projection(grid, theta_val):
    """Over one whole period of shifts, ``k_d`` in ``[-P/2, P/2)``, the
    generators form a Parseval frame of their span: the expansion, summed
    in the signal domain, equals the projection of the fibers, computed
    in the fiber domain, on a generic (not band-limited) signal."""
    th = ThetaParam(theta_val)
    period = int(grid.period)
    fgrid = FiberGrid(th, grid.n_dims, period, grid.samples_per_dim // (2 * period))
    model = _random_model(grid, fgrid)
    f = random_signal(grid, 10)
    edge = [k for k in itertools.product(range(-period // 2, period // 2 + 1),
                                         repeat=grid.n_dims) if -period // 2 in k]
    got = partial_projection(f, model, period // 2).values
    got = got - frame_expansion_reference(f, model, edge)
    want = approx._synthesize(project(fiber_map(f, fgrid), model).data,
                              approx._fiber_layout(grid, fgrid)).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_partial_projection_rejects_off_grid_unit_shifts():
    """Period 6 on 256 samples: a unit shift is 42.7 samples."""
    grid = Grid(1, 256, 3.0)
    model = fit_sis(random_fiber_fields(FiberGrid(PI3, 1, 6, 22), 2,
                                        np.random.default_rng(11)), 1)
    f = random_signal(grid, 12)
    partial_projection(f, model, 0)
    for n in (1, 3):
        with pytest.raises(OffGridShift):
            partial_projection(f, model, n)


_TILE = TileSet(PI3, 1, 2, 1, (((-1,), (1,)), ((0,), (1,))))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: MultiTileModel(_TILE, 2, _TILE.cells[:1]), ValueError,
         "^selection length must match the cell count$"),
        (lambda: partition_multitile(TileSet(PI3, 1, 2, 1, (((-1,), (1,)), ((0,),))), 2),
         NotMultiTile, r"^cannot partition: offset counts per cell are \{1, 2\}, expected all 2$"),
        # An offset that is not a tuple is refused before the sorted rule,
        # which a list would break with an unhashable-type TypeError.
        (lambda: TileSet(PI3, 1, 1, 2, ((1,),)), ValueError, "cell 0 offset 1 is not a tuple"),
        (lambda: TileSet(PI3, 1, 1, 2, (([1],),)), ValueError,
         r"cell 0 offset \[1\] is not a tuple"),
        # With no cells, or no offset a bound could hold, every cell count
        # would pass as a tile.
        (lambda: TileSet(PI3, 1, 0, 1, ()), ValueError,
         "^need at least one base frequency cell per dimension$"),
        (lambda: TileSet(PI3, 2, 0, 1, ()), ValueError,
         "^need at least one base frequency cell per dimension$"),
        (lambda: TileSet(PI3, 1, 1, -1, ((),)), ValueError, "^offset bound -1 is negative$"),
    ],
    ids=["short-selection", "uneven-cells", "non-tuple-offset", "list-offset",
         "no-cells", "no-cells-2d", "negative-bound"],
)
def test_multitile_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_multitile_model_takes_the_angle_of_its_tile():
    assert MultiTileModel(_TILE, 2, _TILE.cells).theta is _TILE.theta
