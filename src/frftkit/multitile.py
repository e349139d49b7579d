"""Multi-tile frequency supports and bandlimited approximation.

A tile set assigns to each base frequency cell a finite list of integer
offsets; the corresponding frequency support is the union of the shifted
cells.  Equal-cardinality tile sets (multi-tiles) split into single-tile
partitions, support bandlimited projection of signals, and can be chosen
optimally for a family of signals by ranking per-cell offset energies.

Tile masks come from the fiber layout of :mod:`frftkit.approx`: a projection
filters the chirped samples, keeping exactly the bins of their FFT that the
fibers of the tile's slots read, through the layout that module keeps
cached.  A tile set is held as two read-only integer arrays, the cell of
every offset and all offsets as ``(offset, axis)`` rows in cell order; it is
checked, masked, compared and hashed on them, and its nested ``cells``
tuples (and a model's ``selection``) are built only when read.  The
truncated frame expansion is computed on fibers too, where a twisted
integer shift is one phase per cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .approx import (
    FiberField,
    FiberGrid,
    SISModel,
    _covering_window,
    _family_grid,
    _fiber_layout,
    _gather,
    _integer_period,
    _synthesize,
)
from .errors import BadRank, GridMismatch, NotMultiTile
from .grids import Grid, SampledSignal, ShiftVector, ThetaParam, _as_int, _power, as_theta
from .transform import _chirp_plan

__all__ = [
    "TileSet",
    "MultiTileModel",
    "is_multitile",
    "partition_multitile",
    "optimal_multitile",
    "bandlimited_project",
    "partial_projection",
]


class _Record:
    """Base of the frozen records here, which hold read-only arrays: ``_set``
    fills the fields in order, ``_of`` builds a record unchecked from values
    the library built valid, and records are equal, and hash, by their
    fields, an array by its entries."""

    def _set(self, *values: object) -> _Record:
        for f, value in zip(fields(self), values):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, f.name, value)
        return self

    @classmethod
    def _of(cls, *values: object):
        return cls.__new__(cls)._set(*values)

    def _key(self) -> tuple:
        return tuple(_hashable(getattr(self, f.name)) for f in fields(self))

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


def _hashable(value: object) -> object:
    """``value``, or an array's entries as bytes (as Python integers past int64)."""
    if not isinstance(value, np.ndarray):
        return value
    return value.tobytes() if value.dtype != object else tuple(value.ravel().tolist())


@dataclass(frozen=True, init=False, eq=False)
class TileSet(_Record):
    """Offsets per base frequency cell.

    ``cells[w]`` is the tuple of offsets attached to flattened cell ``w``
    (cells flatten row-major over ``omega_samples`` per dimension), sorted
    and duplicate-free, each offset a tuple of integers (not bools) bounded
    by ``bound`` in the max norm; cells may be given as lists.
    ``omega_samples`` must be at least 1 and ``bound`` nonnegative: a tile
    set with no cell would pass as a tile of every offset count, and one
    whose bound holds no offset as a 0-fold tile.
    """

    theta: ThetaParam
    n_dims: int
    omega_samples: int
    bound: int
    _cell: NDArray[np.intp]  # the cell of every offset, ascending
    _offsets: NDArray  # (offset, axis), int64 unless a value is past its range

    def __init__(self, theta: ThetaParam | float, n_dims: int, omega_samples: int,
                 bound: int, cells: Sequence[Sequence[Sequence[int]]]) -> None:
        theta, n_dims = as_theta(theta), _as_int(n_dims, "n_dims")
        omega_samples, bound = _as_int(omega_samples, "omega_samples"), _as_int(bound, "bound")
        if n_dims not in (1, 2):
            raise ValueError("only 1- and 2-dimensional tile sets are supported")
        if omega_samples < 1:
            raise ValueError("need at least one base frequency cell per dimension")
        if bound < 0:
            raise ValueError(f"offset bound {bound} is negative")
        if len(cells) != omega_samples**n_dims:
            raise ValueError(f"expected {omega_samples ** n_dims} cells, got {len(cells)}")
        cells = tuple(map(tuple, cells))
        flat = _flat_offsets(cells, n_dims)
        if flat is None or flat[1].dtype == object:
            suspects = range(len(cells))  # no int64 array: check every cell
        else:
            suspects = np.unique(flat[0][_defects(*flat, bound)]).tolist()
        for w in suspects:  # so a tile that passes has its arrays
            _check_cell(w, cells[w], n_dims, bound)
        self._set(theta, n_dims, omega_samples, bound, *flat)

    @property
    def n_cells(self) -> int:
        return self.omega_samples**self.n_dims

    @cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(np.bincount(self._cell, minlength=self.n_cells).tolist())

    @cached_property
    def cells(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return _tuples(self._offsets, self.counts)


def _tuples(offsets: NDArray, counts: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The ``(offset, axis)`` rows as tuples, grouped per cell by ``counts``."""
    rows, ends = list(map(tuple, offsets.tolist())), list(itertools.accumulate(counts))
    return tuple(tuple(rows[a:b]) for a, b in zip([0, *ends], ends))


def _flat_offsets(
    cells: Sequence[Sequence[Sequence[int]]], n_dims: int
) -> tuple[NDArray[np.intp], NDArray] | None:
    """The cell of every offset and all offsets as one ``(offset, axis)``
    array (int64 unless a value is past its range), in cell order; ``None``
    unless every offset is a tuple of ``n_dims`` components, each an
    integer."""
    counts = [len(c) for c in cells]
    flat = list(itertools.chain.from_iterable(cells))
    tuples = all(map(isinstance, flat, itertools.repeat(tuple)))
    if not tuples or set(map(len, flat)) - {n_dims}:
        return None
    values = list(itertools.chain.from_iterable(flat))
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, values))):
        return None
    try:
        offsets = np.array(values, dtype=np.int64)
    except OverflowError:
        offsets = np.array(values, dtype=object)
    return np.repeat(np.arange(len(cells)), counts), offsets.reshape(len(flat), n_dims)


def _defects(
    cell: NDArray[np.intp], offsets: NDArray[np.integer], bound: int
) -> NDArray[np.bool_]:
    """Which offsets break the rules of :class:`TileSet`: out of ``bound``,
    or not lexicographically above the previous offset of their cell."""
    bad = np.any((offsets > bound) | (offsets < -bound), axis=1)
    prev, this = offsets[:-1], offsets[1:]
    above = prev[:, -1] < this[:, -1]
    for d in range(offsets.shape[1] - 2, -1, -1):
        above = (prev[:, d] < this[:, d]) | ((prev[:, d] == this[:, d]) & above)
    bad[1:] |= (cell[1:] == cell[:-1]) & ~above
    return bad


def _check_cell(w: int, offsets: Sequence[Sequence[int]], n_dims: int, bound: int) -> None:
    """Raise the ``ValueError`` that names the first rule cell ``w`` breaks."""
    for k in offsets:
        if not isinstance(k, tuple):
            raise ValueError(f"cell {w} offset {k!r} is not a tuple")
    if list(offsets) != sorted(set(offsets)):
        raise ValueError(f"cell {w} offsets must be sorted and unique")
    for k in offsets:
        if len(k) != n_dims:
            raise ValueError(f"cell {w} has an offset of wrong arity")
        if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in k):
            raise ValueError(f"cell {w} offset {k} is not an integer vector")
        if max(abs(c) for c in k) > bound:
            raise ValueError(f"cell {w} offset {k} exceeds bound {bound}")


@dataclass(frozen=True, init=False, eq=False)
class MultiTileModel(_Record):
    """An equal-cardinality tile set with its per-cell energy ranking.

    ``selection[w]`` orders the chosen offsets by decreasing captured
    energy (ties ascending lexicographic), while ``tile.cells[w]`` keeps
    them sorted for lookup.
    """

    tile: TileSet
    ell: int
    _ranked: NDArray  # the selection as (offset, axis) rows, cell by cell, best first

    def __init__(self, tile: TileSet, ell: int,
                 selection: Sequence[Sequence[Sequence[int]]]) -> None:
        ell = _as_int(ell, "ell")
        if not is_multitile(tile, ell):
            raise NotMultiTile(f"tile set does not have {ell} offsets per cell")
        if len(selection) != tile.n_cells:
            raise ValueError("selection length must match the cell count")
        flat = _flat_offsets(selection, tile.n_dims)
        agrees = flat is not None and np.array_equal(flat[0], tile._cell)
        if agrees:  # every cell's offsets sorted at once, then compared with the tile
            order = np.lexsort((*flat[1].T[::-1], flat[0]))
            agrees = np.array_equal(flat[1][order], tile._offsets)
        if not agrees:  # name the first cell that is ragged, foreign or not integer
            w = next(w for w, chosen in enumerate(selection)
                     if _flat_offsets([chosen], tile.n_dims) is None
                     or sorted(chosen) != list(tile.cells[w]))
            raise ValueError(f"selection at cell {w} disagrees with the tile set")
        self._set(tile, ell, flat[1])

    @property
    def theta(self) -> ThetaParam:
        return self.tile.theta

    @cached_property
    def selection(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return _tuples(self._ranked, self.tile.counts)


def is_multitile(tile: TileSet, ell: int) -> bool:
    """Whether every cell carries exactly ``ell`` offsets."""
    ell = _as_int(ell, "ell")
    return bool(np.all(np.bincount(tile._cell, minlength=tile.n_cells) == ell))


def partition_multitile(tile: TileSet, ell: int) -> list[TileSet]:
    """Split an ``ell``-fold tile set into ``ell`` single tile sets.

    Part ``s`` takes the ``s``-th offset (in ascending lexicographic
    order) of every cell.  Raises :class:`NotMultiTile` when some cell
    does not carry exactly ``ell`` offsets.
    """
    if not is_multitile(tile, ell):
        raise NotMultiTile(
            f"cannot partition: offset counts per cell are {set(tile.counts)}, "
            f"expected all {ell}"
        )
    cell = np.arange(tile.n_cells)
    return [TileSet._of(tile.theta, tile.n_dims, tile.omega_samples, tile.bound, cell,
                        tile._offsets[s::ell]) for s in range(ell)]


def _window_slots(fg: FiberGrid, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Window slot of each offset row of ``offsets`` and whether it exists.

    Slots flatten row-major over ``-window .. window`` per dimension;
    offsets outside the window get a clipped slot and ``False``.
    """
    shape = (2 * fg.window + 1,) * fg.n_dims
    slot = np.ravel_multi_index(tuple((offsets + fg.window).T), shape, mode="clip")
    return slot, np.all(np.abs(offsets) <= fg.window, axis=1)


def optimal_multitile(
    fibers: Sequence[FiberField], ell: int, bound: int
) -> MultiTileModel:
    """Energy-optimal ``ell``-fold tile set for a fiber family.

    For each cell, ranks candidate offsets (max norm at most ``bound``)
    by the family energy they capture and keeps the top ``ell``; ties
    break toward lexicographically smaller offsets.  Raises
    :class:`BadRank` when ``ell`` exceeds the number of candidates.
    """
    ell, bound = _as_int(ell, "ell"), _as_int(bound, "bound")
    grid = _family_grid(fibers)
    n_candidates = max(2 * bound + 1, 0) ** grid.n_dims
    if not 1 <= ell <= n_candidates:
        raise BadRank(f"rank {ell} is not within 1..{n_candidates}")
    # Every offset of max norm <= bound, ascending lexicographic.
    axes = np.indices((2 * bound + 1,) * grid.n_dims, dtype=np.int64) - bound
    candidates = axes.reshape(grid.n_dims, -1).T

    # Energy of every candidate per cell; candidates outside the window score 0.
    slot, in_window = _window_slots(grid, candidates)
    energy = sum(_power(fib.data[:, slot]) for fib in fibers)
    table = np.where(in_window, energy, 0.0)  # (cell, candidate)

    # The top ell per cell, best first: argmax returns the first maximum, so
    # ties go to the lexicographically smaller offset; a pick leaves the race.
    ranked = np.empty((grid.n_cells, ell), dtype=np.intp)
    for r in range(ell):
        ranked[:, r] = np.argmax(table, axis=1)
        table[np.arange(grid.n_cells), ranked[:, r]] = -np.inf
    # Each cell's picks ascending make the tile; in rank order, the model.
    cell = np.repeat(np.arange(grid.n_cells), ell)
    tile = TileSet._of(grid.theta, grid.n_dims, grid.omega_samples, bound, cell,
                       candidates[np.sort(ranked, axis=1).ravel()])
    return MultiTileModel._of(tile, ell, candidates[ranked.ravel()])


def _support_mask(grid: Grid, tile: TileSet, window: int) -> NDArray[np.bool_]:
    """The bins of the chirped samples' FFT on ``grid`` that the fibers of
    the tile's slots read, through the fiber layout of ``window``; every bin
    that lies in the window is read by exactly one slot."""
    fgrid = FiberGrid(tile.theta, tile.n_dims, tile.omega_samples, window)
    layout = _fiber_layout(grid, fgrid)

    # member[cell, slot] says whether the tile carries that slot's offset.
    slot, in_window = _window_slots(fgrid, tile._offsets.astype(np.int64, copy=False))
    member = np.zeros((tile.n_cells, fgrid.window_size), dtype=bool)
    member[tile._cell[in_window], slot[in_window]] = True

    keep = np.zeros(grid.size, dtype=bool)
    keep[layout.index[member & layout.valid]] = True
    return keep.reshape(grid.shape)


def bandlimited_project(f: SampledSignal, model: MultiTileModel) -> SampledSignal:
    """Orthogonal projection onto the model's frequency support.

    Filters the chirped samples by the tile's band: keeps exactly the bins
    of their FFT that the fibers of the tile's slots read, on a fiber grid
    whose window covers every bin, and removes the chirp.  The signal
    period must equal the cell count, so that every bin belongs to exactly
    one slot.
    """
    tile = model.tile
    period = _integer_period(f.grid)
    if period != tile.omega_samples:
        raise GridMismatch(
            f"bandlimited projection needs one cell per spectrum column: "
            f"period {period} != {tile.omega_samples} cells"
        )
    # The window of the CLI's fiber maps too: one cached layout serves both.
    keep = _support_mask(f.grid, tile, _covering_window(f.grid))
    plan = _chirp_plan(f.grid, tile.theta)
    s = plan.spectrum(plan.chirp(f.as_nd()), in_place=True)
    s *= keep
    return SampledSignal._owning(f.grid, plan.unchirp(plan.samples(s)))


def partial_projection(
    f: SampledSignal, model: SISModel, n_shifts: int
) -> SampledSignal:
    """Truncated frame expansion over twisted integer shifts of the
    model's generators.

    Sums ``<f, T_k φ_i> T_k φ_i`` over the ``ell`` generators and all
    integer shift vectors with max norm at most ``n_shifts``.  Converges
    to the subspace projection of ``f`` as ``n_shifts`` grows when the
    generators form a tight frame under integer shifts.

    ``T_k`` multiplies the fibers of cell ``w`` by ``e^{-2 pi i sgn(sin θ)
    w·k / W}``, with ``W`` cells per axis, and by a constant that cancels in
    each term.  So the sum is the fiber projection with its per-cell
    coefficients convolved over the cells with the Dirichlet kernel of the
    shifts, which an FFT over the cells applies as ``(W/P)^n`` times the
    number of shifts in each residue class mod ``W``.
    """
    if _as_int(n_shifts, "n_shifts") < 0:
        raise ValueError("the shift range must be nonnegative")
    layout = _fiber_layout(f.grid, model.grid)
    if n_shifts:
        ShiftVector((1.0,) * f.grid.n_dims).index_offsets(f.grid)  # OffGridShift
    W, axes = model.grid.omega_samples, tuple(range(1, f.grid.n_dims + 1))
    r = np.arange(W)
    weight = ((n_shifts - r) // W - (-n_shifts - 1 - r) // W) * (W / f.grid.period)
    weight = np.multiply.outer(weight, weight) if len(axes) == 2 else weight
    q = model.generators
    coeff = np.einsum("wt,iwt->iw", _gather(f, layout)[1], np.conj(q))
    coeff = np.fft.fftn(coeff.reshape((model.ell,) + weight.shape), axes=axes) * weight
    coeff = np.fft.ifftn(coeff, axes=axes, out=coeff).reshape(model.ell, -1)
    return _synthesize(np.einsum("iw,iwt->wt", coeff, q), layout)
