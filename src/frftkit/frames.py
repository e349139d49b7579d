"""Frame diagnostics for banks of analysis atoms.

A bank of atoms ``g_1 .. g_m`` analyzes signals through chirp-twisted
convolutions at a fixed angle.  Its stability is read off a single
nonnegative spectrum: the weighted sum of squared transform magnitudes of
the atoms over the output grid, all atoms transformed in one batched
forward on the chirp plan of :mod:`frftkit.transform`.  The extreme values
of that spectrum are the frame bounds; banks whose upper bounds stay at or
below one (after accounting for nonlinearity and pooling constants) are
admissible for cascaded feature extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .grids import Grid, SampledSignal, ThetaParam, _adopt, _as_real, _Owned, _power, as_theta
from .transform import _chirp_plan, _ChirpPlan

__all__ = [
    "AtomBank",
    "FrameBounds",
    "frame_bounds",
    "check_admissibility",
    "ADMISSIBILITY_SLACK",
]

#: Absolute slack allowed when comparing admissibility products against one.
ADMISSIBILITY_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class AtomBank:
    """A finite family of analysis atoms sharing one grid and one angle."""

    atoms: tuple[SampledSignal, ...]
    theta: ThetaParam

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", as_theta(self.theta))
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) == 0:
            raise ValueError("an atom bank needs at least one atom")
        if any(atom.grid != self.atoms[0].grid for atom in self.atoms[1:]):
            raise ValueError("all atoms in a bank must share one grid")

    @property
    def grid(self) -> Grid:
        return self.atoms[0].grid

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True, slots=True)
class FrameBounds:
    """Extremes and full profile of a bank's analysis spectrum.

    ``spectrum`` holds the per-frequency values on the transform output
    grid (flattened row-major); ``lower`` and ``upper`` are its grid
    minimum and maximum.
    """

    lower: float
    upper: float
    spectrum: NDArray[np.float64] = field(repr=False)
    grid: Grid = field(repr=False)

    def __post_init__(self) -> None:
        spectrum = _adopt(self.spectrum, np.float64, "frame spectrum contains non-finite entries")
        for name in ("lower", "upper"):
            object.__setattr__(self, name, _as_real(getattr(self, name), name))
        if not 0.0 <= self.lower <= self.upper < np.inf:
            raise ValueError("frame bounds must satisfy 0 <= lower <= upper < inf")
        if spectrum.shape != (self.grid.size,):
            raise ValueError("spectrum length must match the grid size")
        object.__setattr__(self, "spectrum", spectrum)


def frame_bounds(bank: AtomBank) -> FrameBounds:
    """Frame bounds of a bank at its configured angle.

    The spectrum at frequency ``ω`` is ``|sin θ|^n`` times the sum over
    atoms of ``|F_θ g(ω)|²``; the bounds are its minimum and maximum over
    the transform output grid, from one batched forward of the atoms.
    Raises :class:`AngleDegenerate` at a multiple of pi, where that grid
    does not exist, and :class:`OverflowError` for a non-finite spectrum.
    """
    plan = _chirp_plan(bank.grid, bank.theta)
    return _frames(plan.forward(np.stack([atom.as_nd() for atom in bank.atoms])), plan)


def _frames(spectra: NDArray[np.complex128], plan: _ChirpPlan) -> FrameBounds:
    """:class:`FrameBounds` of the rows of ``spectra``, atoms transformed on ``plan``."""
    spectrum = np.sum(_power(spectra.reshape(len(spectra), -1)), axis=0)
    spectrum *= plan.theta.abs_sin ** plan.out_grid.n_dims
    lower, upper = float(spectrum.min()), float(spectrum.max())
    return FrameBounds(lower, upper, _Owned(spectrum), plan.out_grid)


def check_admissibility(
    layers: Iterable[tuple[FrameBounds | float, float, float]],
) -> bool:
    """Whether a cascade of analysis layers contracts energy.

    Each entry is ``(bound, L, R)``: the layer's upper frame bound (either
    a :class:`FrameBounds` or the bare number), the Lipschitz constant of
    its nonlinearity, and that of its pooling map.  The cascade is
    admissible when every layer satisfies both ``B <= 1`` and
    ``B L² R² <= 1`` up to :data:`ADMISSIBILITY_SLACK`.
    """
    for bound, lipschitz, pooling in layers:
        upper = bound.upper if isinstance(bound, FrameBounds) else _as_real(bound, "each bound")
        lipschitz, pooling = _as_real(lipschitz, "each L"), _as_real(pooling, "each R")
        if upper > 1.0 + ADMISSIBILITY_SLACK:
            return False
        if upper * lipschitz**2 * pooling**2 > 1.0 + ADMISSIBILITY_SLACK:
            return False
    return True
