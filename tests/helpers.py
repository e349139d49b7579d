"""Shared builders for the test suite.

Everything here is deterministic: signal factories take explicit seeds and
the reference oracles are straightforward quadratic-cost computations that
do not share code with the package internals.
"""
import contextlib
import math
from unittest import mock

import numpy as np

from frftkit import (
    AtomBank,
    Grid,
    LayerConfig,
    Nonlinearity,
    Pooling,
    SampledSignal,
    ThetaParam,
    frft_output_grid,
    inverse_frft,
    l2_norm,
)
from frftkit.approx import FiberField, FiberGrid


@contextlib.contextmanager
def fft_rows():
    """Count the rows that ``np.fft.fftn`` and ``np.fft.ifftn`` transform
    inside the block: one per index of the axes they do not transform.
    Yields a one-entry list that holds the running count."""
    rows = [0]

    def counting(transform):
        def wrapper(a, s=None, axes=None, *args, **kwargs):
            shape = np.shape(a)
            axes_ = range(len(shape)) if axes is None else axes
            rows[0] += math.prod(shape) // math.prod(shape[ax] for ax in axes_)
            return transform(a, s, axes, *args, **kwargs)

        return wrapper

    with mock.patch.object(np.fft, "fftn", counting(np.fft.fftn)), \
            mock.patch.object(np.fft, "ifftn", counting(np.fft.ifftn)):
        yield rows


def random_signal(grid: Grid, seed: int) -> SampledSignal:
    """Complex white noise on ``grid``."""
    r = np.random.default_rng(seed)
    v = r.standard_normal(grid.size) + 1j * r.standard_normal(grid.size)
    return SampledSignal(grid, v)


def banded_signal(grid: Grid, theta: ThetaParam, band: float, seed: int) -> SampledSignal:
    """Unit-norm signal whose theta-spectrum vanishes for ``|omega| > band``."""
    og = frft_output_grid(grid, theta)
    r = np.random.default_rng(seed)
    v = r.standard_normal(og.size) + 1j * r.standard_normal(og.size)
    v = v * (np.sqrt(og.radius_squared()) <= band)
    f = inverse_frft(SampledSignal(og, v.astype(np.complex128)), theta)
    return f.with_values(f.values / l2_norm(f))


def gauss_profile(out_grid: Grid, center: float, width: float) -> SampledSignal:
    """Gaussian bump ``exp(-pi ||w - c||^2 / width^2)`` on a spectral grid."""
    if out_grid.n_dims == 1:
        om = out_grid.axis
        vals = np.exp(-np.pi * (om - center) ** 2 / width**2)
    else:
        vals = np.ones(out_grid.size)
        for coord in out_grid.coordinates():
            vals = vals * np.exp(-np.pi * (coord - center) ** 2 / width**2)
    return SampledSignal(out_grid, vals.astype(np.complex128))


def make_s1_layers(grid, theta, s_factors, nonlin_kinds, centers=(-0.6, 0.6),
                   widths=(0.5, 0.5), out_center=0.0, out_width=0.7):
    """Bank of Gaussian-spectrum atoms plus output atom, jointly normalized.

    The shared rescaling puts the summed spectral profile just below one, so
    the bank together with the output atom satisfies the admissibility gate
    with zero slack to spare.  Returns ``(layers, output_atom)``.
    """
    og = frft_output_grid(grid, theta)
    profiles = [gauss_profile(og, c, w) for c, w in zip(centers, widths)]
    out_prof = gauss_profile(og, out_center, out_width)
    total = sum(np.abs(p.values) ** 2 for p in profiles) + np.abs(out_prof.values) ** 2
    c = math.sqrt((1.0 - 1e-9) / float(total.max()))
    atoms = tuple(inverse_frft(p.with_values(c * p.values), theta) for p in profiles)
    phi = inverse_frft(out_prof.with_values(c * out_prof.values), theta)
    bank = AtomBank(atoms, theta)
    layers = []
    for s, kind in zip(s_factors, nonlin_kinds):
        layers.append(
            LayerConfig(
                bank=bank,
                output_atom=phi,
                nonlin=Nonlinearity(kind, 0.01) if kind == "phase_covariant_shrink"
                else Nonlinearity(kind),
                pool=Pooling("identity"),
                pooling_factor=float(s),
            )
        )
    return layers, phi


def nonlin_plan(s_factors):
    """Shrinkage only on layers followed exclusively by unit pooling factors."""
    kinds = []
    k = len(s_factors)
    for j in range(k):
        if all(s_factors[i] == 1.0 for i in range(j, k)):
            kinds.append("phase_covariant_shrink")
        else:
            kinds.append("identity")
    return kinds


def tight_bank(grid: Grid, theta: ThetaParam, n_atoms: int, seed: int):
    """Bank whose scaled spectral profiles sum to one at every frequency."""
    og = frft_output_grid(grid, theta)
    r = np.random.default_rng(seed)
    raw = np.abs(r.standard_normal((n_atoms, og.size))) + 0.2
    total = np.sum(raw**2, axis=0)
    profiles = raw / np.sqrt(total) * theta.abs_sin ** (-0.5 * grid.n_dims)
    atoms = tuple(
        inverse_frft(SampledSignal(og, p.astype(np.complex128)), theta)
        for p in profiles
    )
    return AtomBank(atoms, theta)


def reflected_atom(atom: SampledSignal, theta: ThetaParam) -> SampledSignal:
    """Conjugate time reversal with the quadratic-phase correction.

    Twisted correlation against translates of the result reproduces the
    twisted convolution with the original atom.
    """
    grid = atom.grid
    n = grid.samples_per_dim
    idx = (-np.arange(n)) % n
    nd = atom.as_nd()
    for ax in range(grid.n_dims):
        nd = np.take(nd, idx, axis=ax)
    chirp = np.exp(-2j * np.pi * theta.cot_t * grid.radius_squared())
    return SampledSignal(grid, chirp * np.conj(nd.ravel()))


def dft_matrix_oracle(values_nd, spacing: float, period: float):
    """Explicit Riemann-sum Fourier transform on the centered grid.

    Quadratic cost per axis; kept deliberately independent of the FFT-based
    code under test.
    """
    n = values_nd.shape[0]
    t = (np.arange(n) - n // 2) * spacing
    xi = (np.arange(n) - n // 2) / period
    kern = np.exp(-2j * np.pi * np.outer(xi, t)) * spacing
    out = values_nd
    for ax in range(values_nd.ndim):
        out = np.moveaxis(
            np.tensordot(kern, np.moveaxis(out, ax, 0), axes=(1, 0)), 0, ax
        )
    return out


def closed_form_min_eigenvalues() -> tuple[float, float, float, float]:
    """Eigenvalues of min(i, j) for i, j in 1..4, by radicals."""
    a = math.atan(math.sqrt(3) / 37) / 3.0
    return (
        3.0 + 2.0 * math.sqrt(7) * math.cos(a),
        1.0,
        3.0 + math.sqrt(21) * math.sin(a) - math.sqrt(7) * math.cos(a),
        3.0 - math.sqrt(21) * math.sin(a) - math.sqrt(7) * math.cos(a),
    )


def random_fiber_fields(fgrid: FiberGrid, n_members: int, rng) -> list[FiberField]:
    """Independent complex Gaussian fiber fields on ``fgrid``."""
    shape = (fgrid.n_cells, fgrid.window_size)
    return [
        FiberField(fgrid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for _ in range(n_members)
    ]


def tile_cells_reference(cells, n_dims: int, bound: int) -> None:
    """The per-offset loop that ``TileSet`` once ran on its cells: raises
    the ``ValueError`` of the first rule that the first defective cell
    breaks."""
    for w, offsets in enumerate(cells):
        if list(offsets) != sorted(set(offsets)):
            raise ValueError(f"cell {w} offsets must be sorted and unique")
        for k in offsets:
            if len(k) != n_dims:
                raise ValueError(f"cell {w} has an offset of wrong arity")
            if max(abs(c) for c in k) > bound:
                raise ValueError(f"cell {w} offset {k} exceeds bound {bound}")
