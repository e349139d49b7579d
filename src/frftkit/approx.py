"""Optimal approximation of signal families by shift-invariant subspaces.

Signals are re-indexed by fibers: for each base frequency cell the
chirp-twisted spectrum is sampled along an integer lattice of offsets.
Twisted translations act on fibers by plain multiplication, so the best
rank-``ell`` invariant subspace for a family of signals diagonalizes the
per-cell Gramian of their fibers.  The module builds fiber maps,
Gramians, the fitted models with their orthonormal generators, and the
synthesis back to signal grids.

One layout maps each (cell, offset) slot to the spectrum bin it reads:
fibers gather through it, generators scatter through it, and tile masks
keep exactly the bins that their slots' fibers read; its weight table
applies the sign table and the Riemann weight at the bins read only.  The
last layout built stays cached, keyed by (signal grid, fiber grid), so a
family fitted on one grid builds it once; its tables are read-only.  One
gather and one scatter through it serve fiber maps, generator synthesis and
the frame expansion.  A family stacks as ``(cell, member, offset)``, so its
Gramians ``A Aᴴ`` and its generators are batched matrix products.

Fiber fields, Gramians and models take in their arrays by the rule of
:mod:`frftkit.grids`: the library's own are kept, a caller's are copied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .eig import _check_hermitian, hermitian_eig
from .errors import (
    AngleDegenerate,
    BadRank,
    GridMismatch,
    TruncationLoss,
    WindowTooSmall,
)
from .grids import Grid, SampledSignal, ThetaParam, _adopt, _as_int, _Owned, _sum_squares, as_theta
from .transform import _chirp_plan

__all__ = [
    "FiberGrid",
    "FiberField",
    "GramianField",
    "SISModel",
    "fiber_map",
    "analytic_sinc_fibers",
    "gramian_field",
    "fit_sis",
    "approximation_error",
    "project",
    "synthesize_generator",
]

#: Largest spectrum-energy fraction allowed outside the fiber window.
TRUNCATION_TOL = 1e-6
#: Eigenvalues at or below this multiple of the per-cell maximum count as zero.
ZERO_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class FiberGrid:
    """Discretization of the fiber domain.

    ``omega_samples`` base frequency cells per dimension cover one period
    of width ``|sin θ|``; offsets run over ``{-window .. window}`` per
    dimension.  The period vanishes at a multiple of pi, which raises
    :class:`AngleDegenerate`.
    """

    theta: ThetaParam
    n_dims: int
    omega_samples: int
    window: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", as_theta(self.theta))
        for name in ("n_dims", "omega_samples", "window"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.n_dims not in (1, 2):
            raise ValueError("only 1- and 2-dimensional fiber grids are supported")
        if self.omega_samples < 1:
            raise ValueError("need at least one base frequency cell per dimension")
        if self.window < 1:
            raise ValueError("the offset window must contain at least offset 1")
        if self.theta.is_axis:
            raise AngleDegenerate(f"cot undefined at theta={self.theta.theta!r}")

    @property
    def offsets_1d(self) -> NDArray[np.int64]:
        return np.arange(-self.window, self.window + 1, dtype=np.int64)

    @property
    def offsets(self) -> tuple[tuple[int, ...], ...]:
        """All offset tuples, ascending lexicographic."""
        return tuple(itertools.product(range(-self.window, self.window + 1), repeat=self.n_dims))

    @property
    def n_cells(self) -> int:
        return self.omega_samples**self.n_dims

    @property
    def window_size(self) -> int:
        return (2 * self.window + 1) ** self.n_dims

    @property
    def omega_axis(self) -> NDArray[np.float64]:
        """Base frequencies per dimension: ``w |sin θ| / W`` for ``w < W``."""
        return (
            np.arange(self.omega_samples, dtype=np.float64)
            * self.theta.abs_sin
            / self.omega_samples
        )


@dataclass(frozen=True, slots=True)
class FiberField:
    """Fiber samples of one signal: ``data[cell, offset]`` (row-major)."""

    grid: FiberGrid
    data: NDArray[np.complex128]

    def __post_init__(self) -> None:
        data = _adopt(self.data, np.complex128, "fiber data must be finite")
        if data.shape != (self.grid.n_cells, self.grid.window_size):
            raise ValueError(
                f"fiber data shape {data.shape} does not match the grid "
                f"({self.grid.n_cells} cells x {self.grid.window_size} offsets)"
            )
        object.__setattr__(self, "data", data)


@dataclass(frozen=True, slots=True)
class GramianField:
    """Per-cell Gramians of a fiber family: ``data[cell, i, j]``.

    Construction verifies each cell's Hermitian symmetry by the rule of
    :func:`~frftkit.eig.hermitian_eig`; positive semidefiniteness holds for
    genuine Gramians and is rechecked during fitting.
    """

    grid: FiberGrid
    data: NDArray[np.complex128]

    def __post_init__(self) -> None:
        data = _adopt(self.data, np.complex128, "gramian data must be finite")
        if data.ndim != 3 or data.shape[0] != self.grid.n_cells or data.shape[1] != data.shape[2]:
            raise ValueError(f"gramian data has unexpected shape {data.shape}")
        _check_hermitian(data)
        object.__setattr__(self, "data", data)

    @property
    def family_size(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, slots=True)
class SISModel:
    """Fitted rank-``ell`` invariant approximation model.

    ``eigenvalues[cell]`` sorts descending; ``eigenvectors[cell]`` holds
    the matching unit eigenvectors as columns; ``generators[i, cell]``
    are the fiber profiles of the ``ell`` orthonormal generators.
    """

    grid: FiberGrid
    ell: int
    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.complex128]
    generators: NDArray[np.complex128]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", _as_int(self.ell, "ell"))
        for name, dtype in (("eigenvalues", np.float64), ("eigenvectors", np.complex128),
                            ("generators", np.complex128)):
            array = _adopt(getattr(self, name), dtype, f"model {name} must be finite")
            object.__setattr__(self, name, array)
        if self.eigenvalues.ndim != 2 or self.eigenvalues.shape[0] != self.grid.n_cells:
            raise ValueError("eigenvalue array has unexpected shape")
        m = self.eigenvalues.shape[1]
        if self.eigenvectors.shape != (self.grid.n_cells, m, m):
            raise ValueError("eigenvector array has unexpected shape")
        if self.generators.shape != (self.ell, self.grid.n_cells, self.grid.window_size):
            raise ValueError("generator array has unexpected shape")
        if not 1 <= self.ell <= m:
            raise BadRank(f"rank {self.ell} is not within 1..{m}")

    @property
    def family_size(self) -> int:
        return self.eigenvalues.shape[1]


def _integer_period(grid: Grid) -> int:
    """The grid's period as an integer; :class:`GridMismatch` if it is not one."""
    period = int(round(grid.period))
    if abs(grid.period - period) > 1e-9 * max(grid.period, 1.0):
        raise GridMismatch(f"signal period {grid.period} is not an integer")
    return period


def _covering_window(grid: Grid) -> int:
    """The least offset window whose fibers read every spectrum bin of
    ``grid``: ``ceil((N/2) / P)`` for the integer period ``P``, at least 1."""
    return -(-(grid.samples_per_dim // 2) // _integer_period(grid))


class _FiberLayout:
    """The spectrum bin that every fiber slot reads on one signal grid.

    Per axis, cell ``w`` and offset ``k`` read the centered spectrum bin
    ``N/2 + sgn(sin θ) * stride * w + P * k``, with ``P`` the integer period
    and ``stride = P / omega_samples``.  ``index[cell, offset]`` is that bin
    flattened over the grid's shape, clipped onto it; ``valid[cell, offset]``
    marks the slots whose bin lies on the grid; ``weight[cell, offset]``, 0
    off it, is the sign table times the Riemann weight at the bin,
    ``(-1)^(sum of its coordinates) * spacing^n``.  All three are read-only.
    Build it through :func:`_fiber_layout`.
    """

    __slots__ = ("signal_grid", "fgrid", "index", "valid", "weight")

    def __init__(self, signal_grid: Grid, fgrid: FiberGrid, stride: int) -> None:
        self.signal_grid, self.fgrid = signal_grid, fgrid
        period = stride * fgrid.omega_samples
        n, n_dims = signal_grid.samples_per_dim, fgrid.n_dims
        w = np.arange(fgrid.omega_samples, dtype=np.int64)[:, None]
        bins = n // 2 + fgrid.theta.sign_sin * stride * w + period * fgrid.offsets_1d
        # Axes (w_1 .. w_n, k_1 .. k_n): flattening them row-major gives the
        # cell index w_1 W + w_2 and the offset index k_1 n_off + k_2.
        index, valid, sign = 0, True, 1.0
        for d in range(n_dims):
            shape = [1] * (2 * n_dims)
            shape[d], shape[n_dims + d] = bins.shape
            index = index * n + np.clip(bins, 0, n - 1).reshape(shape)
            valid = valid & ((bins >= 0) & (bins < n)).reshape(shape)
            sign = sign * (1.0 - 2.0 * (bins % 2)).reshape(shape)
        size = (fgrid.n_cells, fgrid.window_size)
        self.index, self.valid = index.reshape(size), valid.reshape(size)
        self.weight = np.where(valid, sign * signal_grid.spacing**n_dims, 0.0).reshape(size)
        for table in (self.index, self.valid, self.weight):
            table.flags.writeable = False


def _layout_stride(signal_grid: Grid, fgrid: FiberGrid) -> int:
    """Bins between neighbouring cells, ``P / omega_samples``; raises
    :class:`GridMismatch` when the dimensions differ or the cells do not
    divide the integer period ``P``."""
    if signal_grid.n_dims != fgrid.n_dims:
        raise GridMismatch(
            f"signal is {signal_grid.n_dims}-dimensional but the fiber grid "
            f"expects {fgrid.n_dims}"
        )
    period = _integer_period(signal_grid)
    if period % fgrid.omega_samples != 0:
        raise GridMismatch(
            f"{fgrid.omega_samples} frequency cells do not divide the "
            f"signal period {period}"
        )
    return period // fgrid.omega_samples


_live_layout: _FiberLayout | None = None


def _fiber_layout(signal_grid: Grid, fgrid: FiberGrid) -> _FiberLayout:
    """The layout of ``fgrid`` on ``signal_grid``; built on a miss, after the
    grids are checked and the previous layout is dropped."""
    global _live_layout
    layout = _live_layout
    if layout is None or (layout.signal_grid, layout.fgrid) != (signal_grid, fgrid):
        stride = _layout_stride(signal_grid, fgrid)
        layout = _live_layout = None  # free the old tables before allocating new ones
        layout = _live_layout = _FiberLayout(signal_grid, fgrid, stride)
    return layout


def _gather(f: SampledSignal, layout: _FiberLayout) -> tuple[NDArray, NDArray]:
    """The FFT of the plan's chirped ``f``, and the fiber data that
    ``layout`` reads from it: the centered transform at each slot's bin
    (sign table and Riemann weight applied there only), +0.0 off the grid."""
    plan = _chirp_plan(f.grid, layout.fgrid.theta)
    spectrum = plan.spectrum(plan.chirp(f.as_nd()), in_place=True)
    data = spectrum.ravel()[layout.index]
    data *= layout.weight
    data[~layout.valid] = 0.0  # a zero weight can leave -0.0
    return spectrum, data


def _synthesize(data: NDArray[np.complex128], layout: _FiberLayout) -> SampledSignal:
    """The signal whose fibers are ``data`` and whose spectrum is zero off
    their bins: the inverse of :func:`_gather`."""
    grid, valid = layout.signal_grid, layout.valid
    spectrum = np.zeros(grid.shape, dtype=np.complex128)  # the FFT of the chirped samples
    spectrum.ravel()[layout.index[valid]] = data[valid] / layout.weight[valid]
    plan = _chirp_plan(grid, layout.fgrid.theta)
    return SampledSignal._owning(grid, plan.unchirp(plan.samples(spectrum)))


def fiber_map(f: SampledSignal, fgrid: FiberGrid) -> FiberField:
    """Fibers of a signal: twisted spectrum sampled on the offset lattice.

    The fiber at cell ``w`` and offset ``k`` reads the chirp-twisted
    spectrum at frequency ``ω_w csc θ + k``; on the signal's grid these
    are exact spectrum bins.  Raises :class:`GridMismatch` when the
    signal period is not an integer multiple of the cell count and
    :class:`TruncationLoss` when more than ``1e-6`` of the spectrum
    energy falls outside the offset window.
    """
    spectrum, data = _gather(f, _fiber_layout(f.grid, fgrid))
    total = float(_sum_squares(spectrum.ravel())) * f.grid.spacing ** (2 * f.grid.n_dims)
    captured = float(_sum_squares(data.ravel()))
    if total > 0.0 and (total - captured) > TRUNCATION_TOL * total:
        raise TruncationLoss(
            f"offset window captures only {captured / total:.9f} of the "
            "spectrum energy"
        )
    return FiberField(grid=fgrid, data=_Owned(data))


def analytic_sinc_fibers(m: int, fgrid: FiberGrid) -> tuple[FiberField, ...]:
    """Closed-form fibers of the nested band-indicator family.

    Member ``j`` (for ``j = 1 .. m``) has twisted spectrum equal to the
    indicator of the frequency band ``[0, j)``, so its fiber at cell ``w``
    and offset ``k`` is the 0/1 indicator of ``ω_w csc θ + k ∈ [0, j)``.
    Per-cell Gramians are exactly ``min(i, j)``.  In two dimensions
    members are tensor squares of the one-dimensional profiles, with
    Gramians ``min(i, j)²``.

    Raises :class:`WindowTooSmall` when the offset window cannot hold all
    ``m`` occupied offsets.
    """
    if _as_int(m, "m") < 1:
        raise ValueError("family size must be at least 1")
    if m > fgrid.window:
        raise WindowTooSmall(
            f"family of size {m} needs offsets up to {m} but the window "
            f"stops at {fgrid.window}"
        )
    sign = fgrid.theta.sign_sin
    W = fgrid.omega_samples
    w_axis = np.arange(W, dtype=np.float64)
    k_axis = fgrid.offsets_1d.astype(np.float64)
    # xi[w, k] = ω_w csc θ + k, the frequency each fiber slot reads.
    xi = sign * w_axis[:, None] / W + k_axis[None, :]

    fields = []
    for j in range(1, m + 1):
        member = ((xi >= 0.0) & (xi < j)).astype(np.complex128)
        if fgrid.n_dims == 1:
            data = member.reshape(fgrid.n_cells, fgrid.window_size)
        else:
            data = np.einsum("ab,cd->acbd", member, member).reshape(
                fgrid.n_cells, fgrid.window_size
            )
        fields.append(FiberField(grid=fgrid, data=data))
    return tuple(fields)


def _family_grid(fibers: Sequence[FiberField]) -> FiberGrid:
    """The fiber grid that every member of a non-empty family shares."""
    if len(fibers) == 0:
        raise ValueError("need at least one fiber field")
    grid = fibers[0].grid
    for fib in fibers[1:]:
        if fib.grid != grid:
            raise GridMismatch("all fiber fields must share one fiber grid")
    return grid


def _stack(fibers: Sequence[FiberField]) -> tuple[FiberGrid, NDArray[np.complex128]]:
    """The family's shared fiber grid and its ``(cell, member, offset)`` stack:
    a view of one copy, with unit stride along the offsets as BLAS needs."""
    return _family_grid(fibers), np.stack([fib.data for fib in fibers]).swapaxes(0, 1)


def _gramian(stack: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Each cell's ``A Aᴴ`` for the ``(cell, member, offset)`` stack ``A``,
    read through its float64 view with no conjugated copy: with ``A = X + iY``
    the real part is ``X Xᵀ + Y Yᵀ``, one BLAS product of the view with
    itself, and the imaginary part is ``P - Pᵀ`` for ``P = Y Xᵀ``."""
    a = stack.view(np.float64)
    p = a[..., 1::2] @ a[..., 0::2].swapaxes(1, 2)
    return (a @ a.swapaxes(1, 2)) + 1j * (p - p.swapaxes(1, 2))


def gramian_field(fibers: Sequence[FiberField]) -> GramianField:
    """Per-cell Gramian ``G[w]_{ij} = <fiber_i(w), fiber_j(w)>``."""
    grid, stack = _stack(fibers)
    return GramianField(grid=grid, data=_Owned(_gramian(stack)))


def fit_sis(fibers: Sequence[FiberField], ell: int) -> SISModel:
    """Best rank-``ell`` invariant model for a fiber family.

    Diagonalizes each per-cell Gramian, keeps the descending eigenvalue
    order, and forms generators ``q_i(w) = λ_i(w)^{-1/2} Σ_j
    conj(v_{ji}(w)) fiber_j(w)`` with zero generators where the
    eigenvalue vanishes.  Raises :class:`BadRank` unless ``1 <= ell <=
    len(fibers)``.
    """
    ell, m = _as_int(ell, "ell"), len(fibers)
    if not 1 <= ell <= m:
        raise BadRank(f"rank {ell} is not within 1..{m}")
    grid, stack = _stack(fibers)
    # The per-cell Gramians; hermitian_eig checks each one for symmetry.
    eigenvalues, eigenvectors = hermitian_eig(_gramian(stack))
    top = eigenvalues[:, 0]
    indefinite = eigenvalues[:, -1] < -ZERO_EIGENVALUE_TOL * np.maximum(top, 1.0)
    if np.any(indefinite):
        w = int(np.argmax(indefinite))
        raise ValueError(
            f"gramian at cell {w} is not positive semidefinite "
            f"(eigenvalue {eigenvalues[w, -1]:.3e})"
        )
    kept = eigenvalues[:, :ell]
    live = kept > ZERO_EIGENVALUE_TOL * np.maximum(top, 0.0)[:, None]
    scale = np.where(live, 1.0 / np.sqrt(np.where(live, kept, 1.0)), 0.0)
    weights = np.conj(eigenvectors[:, :, :ell]) * scale[:, None, :]
    generators = np.empty((ell, grid.n_cells, grid.window_size), dtype=np.complex128)
    np.matmul(weights.swapaxes(1, 2), stack, out=generators.swapaxes(0, 1))
    return SISModel(
        grid=grid,
        ell=ell,
        eigenvalues=_Owned(eigenvalues),
        eigenvectors=_Owned(eigenvectors),
        generators=_Owned(generators),
    )


def _tail_error(model: SISModel, ell: int) -> float:
    """The least error of a rank-``ell`` invariant space for the model's
    family: its eigenvalues beyond ``ell``, clamped at 0, summed per cell,
    averaged over cells and multiplied by ``|sin θ|^n``.  One fit at any
    rank gives every rank's error."""
    tail = np.maximum(model.eigenvalues[:, ell:], 0.0)
    weight = model.grid.theta.abs_sin ** model.grid.n_dims
    return float(weight * np.mean(np.sum(tail, axis=1))) if tail.size else 0.0


def approximation_error(model: SISModel) -> float:
    """Mean residual eigenvalue mass, weighted by the cell measure.

    Equals ``|sin θ|^n`` times the average over cells of the eigenvalues
    beyond the kept rank; zero exactly when the family already lies in a
    rank-``ell`` invariant subspace.  The eigenvalues are clamped at 0: a
    Gramian is positive semidefinite, but where the family has rank
    ``<= ell`` in a cell, rounding can leave them slightly negative.  This
    is the tail rule :func:`_tail_error` read at the model's own rank.
    """
    return _tail_error(model, model.ell)


def project(fiber: FiberField, model: SISModel) -> FiberField:
    """Orthogonal projection of a fiber field onto the model subspace."""
    if fiber.grid != model.grid:
        raise GridMismatch("fiber field and model use different fiber grids")
    q = model.generators
    coeff = np.einsum("wt,iwt->iw", fiber.data, np.conj(q))
    return FiberField(grid=model.grid, data=np.einsum("iw,iwt->wt", coeff, q))


def synthesize_generator(
    model: SISModel, i: int, signal_grid: Grid
) -> SampledSignal:
    """Generator ``i`` of the model as a signal on ``signal_grid``.

    Places the generator's fiber values on their spectrum bins, inverts
    the centered transform, and removes the chirp.  Raises
    :class:`GridMismatch` when the grid is incompatible with the fiber
    layout and ``IndexError`` for generator indices outside ``0 ..
    ell-1``.
    """
    if not 0 <= _as_int(i, "i") < model.ell:
        raise IndexError(f"generator index {i} out of range for rank {model.ell}")
    return _synthesize(model.generators[i], _fiber_layout(signal_grid, model.grid))
