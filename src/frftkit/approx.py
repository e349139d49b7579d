"""Optimal approximation of signal families by shift-invariant subspaces.

Signals are re-indexed by fibers: for each base frequency cell the
chirp-twisted spectrum is sampled along an integer lattice of offsets.
Twisted translations act on fibers by plain multiplication, so the best
rank-``ell`` invariant subspace for a family of signals diagonalizes the
per-cell Gramian of their fibers.  The module builds fiber maps,
Gramians, the fitted models with their orthonormal generators, and the
synthesis back to signal grids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .eig import hermitian_eig
from .errors import (
    BadRank,
    GridMismatch,
    NotHermitian,
    TruncationLoss,
    WindowTooSmall,
)
from .grids import Grid, SampledSignal, ThetaParam
from .transform import _alternate, _chirp_plan

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
    dimension, or ``{0 .. window}`` when ``one_sided``.
    """

    theta: ThetaParam
    n_dims: int
    omega_samples: int
    window: int
    one_sided: bool = False

    def __post_init__(self) -> None:
        if self.n_dims not in (1, 2):
            raise ValueError("only 1- and 2-dimensional fiber grids are supported")
        if self.omega_samples < 1:
            raise ValueError("need at least one base frequency cell per dimension")
        if self.window < 1:
            raise ValueError("the offset window must contain at least offset 1")

    @property
    def offsets_1d(self) -> NDArray[np.int64]:
        lo = 0 if self.one_sided else -self.window
        return np.arange(lo, self.window + 1, dtype=np.int64)

    @property
    def offsets(self) -> tuple[tuple[int, ...], ...]:
        """All offset tuples, ascending lexicographic."""
        per_dim = [tuple(int(k) for k in self.offsets_1d)] * self.n_dims
        return tuple(itertools.product(*per_dim))

    @property
    def n_cells(self) -> int:
        return self.omega_samples**self.n_dims

    @property
    def window_size(self) -> int:
        return len(self.offsets_1d) ** self.n_dims

    @property
    def omega_axis(self) -> NDArray[np.float64]:
        """Base frequencies per dimension: ``w |sin θ| / W`` for ``w < W``."""
        return (
            np.arange(self.omega_samples, dtype=np.float64)
            * self.theta.abs_sin
            / self.omega_samples
        )


def _readonly(a: NDArray) -> NDArray:
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, slots=True)
class FiberField:
    """Fiber samples of one signal: ``data[cell, offset]`` (row-major)."""

    grid: FiberGrid
    data: NDArray[np.complex128]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.complex128)
        if data.shape != (self.grid.n_cells, self.grid.window_size):
            raise ValueError(
                f"fiber data shape {data.shape} does not match the grid "
                f"({self.grid.n_cells} cells x {self.grid.window_size} offsets)"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("fiber data must be finite")
        object.__setattr__(self, "data", _readonly(data))

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))


@dataclass(frozen=True, slots=True)
class GramianField:
    """Per-cell Gramians of a fiber family: ``data[cell, i, j]``.

    Construction verifies Hermitian symmetry within ``1e-10`` of the
    global Frobenius norm; positive semidefiniteness holds for genuine
    Gramians and is rechecked during fitting.
    """

    grid: FiberGrid
    data: NDArray[np.complex128]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 3 or data.shape[0] != self.grid.n_cells or data.shape[1] != data.shape[2]:
            raise ValueError(f"gramian data has unexpected shape {data.shape}")
        scale = max(float(np.linalg.norm(data)), 1e-300)
        defect = float(np.linalg.norm(data - np.conj(np.swapaxes(data, 1, 2))))
        if defect > 1e-10 * scale:
            raise NotHermitian(
                f"gramian field asymmetry {defect:.3e} exceeds 1e-10 of its norm"
            )
        object.__setattr__(self, "data", _readonly(data))

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
        if self.eigenvalues.ndim != 2 or self.eigenvalues.shape[0] != self.grid.n_cells:
            raise ValueError("eigenvalue array has unexpected shape")
        m = self.eigenvalues.shape[1]
        if self.eigenvectors.shape != (self.grid.n_cells, m, m):
            raise ValueError("eigenvector array has unexpected shape")
        if self.generators.shape != (self.ell, self.grid.n_cells, self.grid.window_size):
            raise ValueError("generator array has unexpected shape")
        if not 1 <= self.ell <= m:
            raise BadRank(f"rank {self.ell} is not within 1..{m}")
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _readonly(self.eigenvectors))
        object.__setattr__(self, "generators", _readonly(self.generators))

    @property
    def family_size(self) -> int:
        return self.eigenvalues.shape[1]


def _bin_layout(
    signal_grid: Grid, fgrid: FiberGrid
) -> tuple[NDArray[np.int64], NDArray[np.bool_]]:
    """Spectrum bin of every fiber slot per dimension, and its validity.

    ``bins[w, k]`` is the centered spectrum index that cell ``w`` and the
    ``k``-th window offset read along each axis; ``valid`` marks the bins
    that lie on the signal grid.  Raises :class:`GridMismatch` unless the
    signal period is an integer multiple of the cell count.
    """
    if signal_grid.n_dims != fgrid.n_dims:
        raise GridMismatch(
            f"signal is {signal_grid.n_dims}-dimensional but the fiber grid "
            f"expects {fgrid.n_dims}"
        )
    period = signal_grid.period
    period_int = int(round(period))
    if abs(period - period_int) > 1e-9 * max(period, 1.0):
        raise GridMismatch(f"signal period {period} is not an integer")
    if period_int % fgrid.omega_samples != 0:
        raise GridMismatch(
            f"{fgrid.omega_samples} frequency cells do not divide the "
            f"signal period {period_int}"
        )
    stride = period_int // fgrid.omega_samples
    n = signal_grid.samples_per_dim
    w_axis = np.arange(fgrid.omega_samples, dtype=np.int64)
    bins = (
        n // 2
        + fgrid.theta.sign_sin * stride * w_axis[:, None]
        + period_int * fgrid.offsets_1d[None, :]
    )
    return bins, (bins >= 0) & (bins < n)


def fiber_map(f: SampledSignal, fgrid: FiberGrid) -> FiberField:
    """Fibers of a signal: twisted spectrum sampled on the offset lattice.

    The fiber at cell ``w`` and offset ``k`` reads the chirp-twisted
    spectrum at frequency ``ω_w csc θ + k``; on the signal's grid these
    are exact spectrum bins.  Raises :class:`GridMismatch` when the
    signal period is not an integer multiple of the cell count and
    :class:`TruncationLoss` when more than ``1e-6`` of the spectrum
    energy falls outside the offset window.
    """
    bins, valid = _bin_layout(f.grid, fgrid)
    n_off = bins.shape[1]
    clipped = np.clip(bins, 0, f.grid.samples_per_dim - 1)

    # Centered transform of the chirped signal: the plan's spectrum with the
    # sign table undone and the Riemann weight applied.
    spectrum = _chirp_plan(f.grid, fgrid.theta).spectrum(f.as_nd())
    _alternate(spectrum, fgrid.n_dims)
    spectrum *= f.grid.spacing**fgrid.n_dims

    if fgrid.n_dims == 1:
        data = np.where(valid, spectrum[clipped], 0.0)
        data = data.reshape(fgrid.n_cells, fgrid.window_size)
    else:
        block = spectrum[np.ix_(clipped.ravel(), clipped.ravel())]
        block = block.reshape(fgrid.omega_samples, n_off, fgrid.omega_samples, n_off)
        mask = valid.ravel()[:, None] & valid.ravel()[None, :]
        mask = mask.reshape(block.shape)
        block = np.where(mask, block, 0.0)
        # (w1, k1, w2, k2) -> (w1, w2, k1, k2) -> (cell, offset)
        block = block.transpose(0, 2, 1, 3)
        data = block.reshape(fgrid.n_cells, fgrid.window_size)

    total = float(np.sum(np.abs(spectrum) ** 2))
    captured = float(np.sum(np.abs(data) ** 2))
    if total > 0.0 and (total - captured) > TRUNCATION_TOL * total:
        raise TruncationLoss(
            f"offset window captures only {captured / total:.9f} of the "
            "spectrum energy"
        )
    return FiberField(grid=fgrid, data=data)


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
    if m < 1:
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


def gramian_field(fibers: Sequence[FiberField]) -> GramianField:
    """Per-cell Gramian ``G[w]_{ij} = <fiber_i(w), fiber_j(w)>``."""
    if len(fibers) == 0:
        raise ValueError("need at least one fiber field")
    grid = fibers[0].grid
    for fib in fibers[1:]:
        if fib.grid != grid:
            raise GridMismatch("all fiber fields must share one fiber grid")
    stack = np.stack([fib.data for fib in fibers])
    data = np.einsum("iwt,jwt->wij", stack, np.conj(stack))
    return GramianField(grid=grid, data=data)


def fit_sis(fibers: Sequence[FiberField], ell: int) -> SISModel:
    """Best rank-``ell`` invariant model for a fiber family.

    Diagonalizes each per-cell Gramian, keeps the descending eigenvalue
    order, and forms generators ``q_i(w) = λ_i(w)^{-1/2} Σ_j
    conj(v_{ji}(w)) fiber_j(w)`` with zero generators where the
    eigenvalue vanishes.  Raises :class:`BadRank` unless ``1 <= ell <=
    len(fibers)``.
    """
    m = len(fibers)
    if not 1 <= ell <= m:
        raise BadRank(f"rank {ell} is not within 1..{m}")
    gram = gramian_field(fibers)
    stack = np.stack([fib.data for fib in fibers])  # (member, cell, offset)

    eigenvalues, eigenvectors = hermitian_eig(gram.data)
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
    generators = np.einsum("wji,jwt->iwt", weights, stack)
    return SISModel(
        grid=gram.grid,
        ell=ell,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        generators=generators,
    )


def approximation_error(model: SISModel) -> float:
    """Mean residual eigenvalue mass, weighted by the cell measure.

    Equals ``|sin θ|^n`` times the average over cells of the eigenvalues
    beyond the kept rank; zero exactly when the family already lies in a
    rank-``ell`` invariant subspace.
    """
    tail = model.eigenvalues[:, model.ell :]
    weight = model.grid.theta.abs_sin ** model.grid.n_dims
    return float(weight * np.mean(np.sum(tail, axis=1))) if tail.size else 0.0


def project(fiber: FiberField, model: SISModel) -> FiberField:
    """Orthogonal projection of a fiber field onto the model subspace."""
    if fiber.grid != model.grid:
        raise GridMismatch("fiber field and model use different fiber grids")
    out = np.zeros_like(fiber.data)
    for i in range(model.ell):
        q = model.generators[i]
        coeff = np.sum(fiber.data * np.conj(q), axis=1)
        out += coeff[:, None] * q
    return FiberField(grid=model.grid, data=out)


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
    if not 0 <= i < model.ell:
        raise IndexError(f"generator index {i} out of range for rank {model.ell}")
    fgrid = model.grid
    bins, valid = _bin_layout(signal_grid, fgrid)
    n_off = bins.shape[1]

    spectrum = np.zeros(signal_grid.shape, dtype=np.complex128)
    if fgrid.n_dims == 1:
        values = model.generators[i].reshape(fgrid.omega_samples, n_off)
        spectrum[bins[valid]] = values[valid]
    else:
        W = fgrid.omega_samples
        # Cells flatten as w1*W + w2 and offsets as k1*n_off + k2, so the
        # generator reshapes to axes (w1, w2, k1, k2).
        values = model.generators[i].reshape(W, W, n_off, n_off)
        values = values.transpose(0, 2, 1, 3).reshape(W * n_off, W * n_off)
        keep = valid.ravel()
        target = bins.ravel()[keep]
        spectrum[np.ix_(target, target)] = values[np.ix_(keep, keep)]
    # Into the plan's spectrum domain: sign table, no Riemann weight.
    _alternate(spectrum, fgrid.n_dims)
    spectrum /= signal_grid.spacing**fgrid.n_dims
    values = _chirp_plan(signal_grid, fgrid.theta).from_spectrum(spectrum)
    return SampledSignal(grid=signal_grid, values=values.ravel())
