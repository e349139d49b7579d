"""Multi-tile frequency supports and bandlimited approximation.

A tile set assigns to each base frequency cell a finite list of integer
offsets; the corresponding frequency support is the union of the shifted
cells.  Equal-cardinality tile sets (multi-tiles) split into single-tile
partitions, support bandlimited projection of signals, and can be chosen
optimally for a family of signals by ranking per-cell offset energies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approx import FiberField, SISModel, synthesize_generator
from .errors import BadRank, GridMismatch, NotMultiTile
from .grids import Grid, SampledSignal, ThetaParam
from .theta_ops import theta_translate
from .transform import frft, inner_product, inverse_frft

__all__ = [
    "TileSet",
    "MultiTileModel",
    "is_multitile",
    "partition_multitile",
    "optimal_multitile",
    "bandlimited_project",
    "partial_projection",
]


@dataclass(frozen=True, slots=True)
class TileSet:
    """Offsets per base frequency cell.

    ``cells[w]`` lists the offset tuples attached to flattened cell ``w``
    (cells flatten row-major over ``omega_samples`` per dimension); each
    list is stored sorted and duplicate-free, with every offset bounded by
    ``bound`` in the max norm.
    """

    theta: ThetaParam
    n_dims: int
    omega_samples: int
    bound: int
    cells: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if self.n_dims not in (1, 2):
            raise ValueError("only 1- and 2-dimensional tile sets are supported")
        if len(self.cells) != self.omega_samples**self.n_dims:
            raise ValueError(
                f"expected {self.omega_samples ** self.n_dims} cells, "
                f"got {len(self.cells)}"
            )
        for w, offsets in enumerate(self.cells):
            if list(offsets) != sorted(set(offsets)):
                raise ValueError(f"cell {w} offsets must be sorted and unique")
            for k in offsets:
                if len(k) != self.n_dims:
                    raise ValueError(f"cell {w} has an offset of wrong arity")
                if max(abs(c) for c in k) > self.bound:
                    raise ValueError(f"cell {w} offset {k} exceeds bound {self.bound}")

    @property
    def n_cells(self) -> int:
        return self.omega_samples**self.n_dims

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


@dataclass(frozen=True, slots=True)
class MultiTileModel:
    """An equal-cardinality tile set with its per-cell energy ranking.

    ``selection[w]`` orders the chosen offsets by decreasing captured
    energy (ties ascending lexicographic), while ``tile.cells[w]`` keeps
    them sorted for lookup.
    """

    tile: TileSet
    ell: int
    selection: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if not is_multitile(self.tile, self.ell):
            raise NotMultiTile(f"tile set does not have {self.ell} offsets per cell")
        if len(self.selection) != self.tile.n_cells:
            raise ValueError("selection length must match the cell count")
        for w, chosen in enumerate(self.selection):
            if tuple(sorted(chosen)) != self.tile.cells[w]:
                raise ValueError(f"selection at cell {w} disagrees with the tile set")

    @property
    def theta(self) -> ThetaParam:
        return self.tile.theta


def is_multitile(tile: TileSet, ell: int) -> bool:
    """Whether every cell carries exactly ``ell`` offsets."""
    return all(len(c) == ell for c in tile.cells)


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
    parts = []
    for s in range(ell):
        cells = tuple((tile.cells[w][s],) for w in range(tile.n_cells))
        parts.append(
            TileSet(
                theta=tile.theta,
                n_dims=tile.n_dims,
                omega_samples=tile.omega_samples,
                bound=tile.bound,
                cells=cells,
            )
        )
    return parts


def optimal_multitile(
    fibers: Sequence[FiberField], ell: int, bound: int
) -> MultiTileModel:
    """Energy-optimal ``ell``-fold tile set for a fiber family.

    For each cell, ranks candidate offsets (max norm at most ``bound``)
    by the family energy they capture and keeps the top ``ell``; ties
    break toward lexicographically smaller offsets.  Raises
    :class:`BadRank` when ``ell`` exceeds the number of candidates.
    """
    if len(fibers) == 0:
        raise ValueError("need at least one fiber field")
    grid = fibers[0].grid
    for fib in fibers[1:]:
        if fib.grid != grid:
            raise GridMismatch("all fiber fields must share one fiber grid")
    candidates = list(
        itertools.product(range(-bound, bound + 1), repeat=grid.n_dims)
    )
    if not 1 <= ell <= len(candidates):
        raise BadRank(f"rank {ell} is not within 1..{len(candidates)}")

    # Energy of every candidate per cell; candidates outside the window score 0.
    cand = np.array(candidates, dtype=np.int64)
    lo = int(grid.offsets_1d[0])
    n_off = len(grid.offsets_1d)
    in_window = np.all((cand >= lo) & (cand <= grid.window), axis=1)
    slot = np.ravel_multi_index(
        tuple(np.clip(cand - lo, 0, n_off - 1).T), (n_off,) * grid.n_dims
    )
    stack = np.stack([fib.data for fib in fibers])
    energy = np.sum(np.abs(stack) ** 2, axis=0)  # (cell, window slot)
    table = np.where(in_window, energy[:, slot], 0.0)  # (cell, candidate)

    # Candidates are listed in ascending lexicographic order, so a stable
    # sort of the negated energies breaks ties toward smaller offsets.
    ranked = np.argsort(-table, axis=1, kind="stable")[:, :ell]
    selection = tuple(tuple(candidates[j] for j in row) for row in ranked)
    cells = tuple(tuple(sorted(chosen)) for chosen in selection)
    tile = TileSet(
        theta=grid.theta,
        n_dims=grid.n_dims,
        omega_samples=grid.omega_samples,
        bound=bound,
        cells=cells,
    )
    return MultiTileModel(tile=tile, ell=ell, selection=selection)


def _decode_bins(signal_grid: Grid, tile: TileSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension cell and offset labels of every transform output bin.

    Requires the signal period to match the cell count (one cell per
    spectrum column), so each output frequency ``ω_m = m |sin θ| / P``
    decomposes uniquely as ``ω_w + k sin θ``, i.e. ``m = w + sgn k P``.
    """
    period = signal_grid.period
    period_int = int(round(period))
    if abs(period - period_int) > 1e-9 * max(period, 1.0):
        raise GridMismatch(f"signal period {period} is not an integer")
    if period_int != tile.omega_samples:
        raise GridMismatch(
            f"bandlimited projection needs one cell per spectrum column: "
            f"period {period_int} != {tile.omega_samples} cells"
        )
    n = signal_grid.samples_per_dim
    sign = tile.theta.sign_sin
    m = np.arange(n, dtype=np.int64) - n // 2
    w = np.mod(m, period_int)
    k = sign * ((m - w) // period_int)
    return w, k


def bandlimited_project(f: SampledSignal, model: MultiTileModel) -> SampledSignal:
    """Orthogonal projection onto the model's frequency support.

    Keeps exactly the transform bins whose cell/offset decomposition lies
    in the tile set and inverts the transform.
    """
    tile = model.tile
    if f.grid.n_dims != tile.n_dims:
        raise GridMismatch(
            f"signal is {f.grid.n_dims}-dimensional but the tile set "
            f"expects {tile.n_dims}"
        )
    w_lab, k_lab = _decode_bins(f.grid, tile)
    W = tile.omega_samples
    side = 2 * tile.bound + 1

    # member[cell, code] says whether the cell carries the offset whose
    # shifted coordinates (k + bound) read ``code`` in base ``side``.
    w_idx = np.repeat(np.arange(tile.n_cells), tile.counts)
    k_idx = np.array(
        [k for offsets in tile.cells for k in offsets], dtype=np.int64
    ).reshape(-1, tile.n_dims)
    codes = np.ravel_multi_index(tuple(k_idx.T + tile.bound), (side,) * tile.n_dims)
    member = np.zeros((tile.n_cells, side**tile.n_dims), dtype=bool)
    member[w_idx, codes] = True

    # Labels of every output bin, combined over the axes by broadcasting.
    cell, code, inside = 0, 0, True
    for d in range(tile.n_dims):
        along = tuple(slice(None) if e == d else None for e in range(tile.n_dims))
        cell = cell * W + w_lab[along]
        code = code * side + np.clip(k_lab + tile.bound, 0, side - 1)[along]
        inside = inside & (np.abs(k_lab) <= tile.bound)[along]
    keep = inside & member[cell, code]

    spectrum = frft(f, tile.theta)
    values = spectrum.values.copy().reshape(f.grid.shape)
    values[~keep] = 0.0
    masked = spectrum.with_values(values.ravel())
    return inverse_frft(masked, tile.theta)


def partial_projection(
    f: SampledSignal, model: SISModel, n_shifts: int
) -> SampledSignal:
    """Truncated frame expansion over twisted integer shifts of the
    model's generators.

    Sums ``<f, T_k φ_i> T_k φ_i`` over the ``ell`` generators and all
    integer shift vectors with max norm at most ``n_shifts``.  Converges
    to the subspace projection of ``f`` as ``n_shifts`` grows when the
    generators form a tight frame under integer shifts.
    """
    if n_shifts < 0:
        raise ValueError("the shift range must be nonnegative")
    theta = model.grid.theta
    accum = np.zeros(f.grid.size, dtype=np.complex128)
    shifts = itertools.product(
        range(-n_shifts, n_shifts + 1), repeat=f.grid.n_dims
    )
    generators = [
        synthesize_generator(model, i, f.grid) for i in range(model.ell)
    ]
    for k in shifts:
        shift = tuple(float(c) for c in k)
        for phi in generators:
            moved = theta_translate(phi, shift, theta)
            accum += inner_product(f, moved) * moved.values
    return f.with_values(accum)
