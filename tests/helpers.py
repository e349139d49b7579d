"""Shared builders for the test suite.

Everything here is deterministic: signal factories take explicit seeds and
the reference oracles are straightforward quadratic-cost computations that
do not share code with the package internals.  The cascade references are
the exception: they keep the full-grid engine that ``scatter`` once ran, on
the package's own chirp plan, filters and dilation.
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
    extract_features,
    frft,
    frft_output_grid,
    inner_product,
    inverse_frft,
    l2_norm,
    synthesize_generator,
    theta_translate,
)
from frftkit.approx import ZERO_EIGENVALUE_TOL, FiberField, FiberGrid
from frftkit.eig import hermitian_eig
from frftkit.grids import _energy, as_shift
from frftkit.scatter import _readout_kernel
from frftkit.theta_ops import (
    _as_fraction,
    _check_alias,
    _dilate_period,
    _tile,
    _translate,
    _warn_at_caller,
)
from frftkit.transform import _alternate, _chirp_plan


@contextlib.contextmanager
def fft_rows():
    """Count the work of ``np.fft.fftn``/``ifftn`` and of the one-axis
    ``np.fft.fft``/``ifft`` inside the block: the rows they transform (one
    per index of the axes they leave alone) and the samples of those rows.
    Yields a two-entry list, ``[rows, samples]``, that holds the running
    counts."""
    counts = [0, 0]

    def add(shape, axes):
        size = math.prod(shape)
        counts[0] += size // math.prod(shape[ax] for ax in axes)
        counts[1] += size

    def counting_n(transform):
        def wrapper(a, s=None, axes=None, *args, **kwargs):
            shape = np.shape(a)
            add(shape, range(len(shape)) if axes is None else axes)
            return transform(a, s, axes, *args, **kwargs)

        return wrapper

    def counting_1(transform):
        def wrapper(a, n=None, axis=-1, *args, **kwargs):
            add(np.shape(a), (axis,))
            return transform(a, n, axis, *args, **kwargs)

        return wrapper

    with mock.patch.object(np.fft, "fftn", counting_n(np.fft.fftn)), \
            mock.patch.object(np.fft, "ifftn", counting_n(np.fft.ifftn)), \
            mock.patch.object(np.fft, "fft", counting_1(np.fft.fft)), \
            mock.patch.object(np.fft, "ifft", counting_1(np.fft.ifft)):
        yield counts


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


def frame_spectrum_reference(atoms, theta: ThetaParam) -> np.ndarray:
    """The loop that ``frame_bounds`` once ran: one ``frft`` per atom, the
    squared magnitudes re² + im² summed in atom order, then the ``|sin θ|^n``
    weight."""
    spectrum = np.zeros(frft_output_grid(atoms[0].grid, theta).size)
    for atom in atoms:
        v = frft(atom, theta).values
        spectrum += v.real * v.real + v.imag * v.imag
    spectrum *= theta.abs_sin ** atoms[0].grid.n_dims
    return spectrum


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


def gather_reference(f: SampledSignal, layout) -> np.ndarray:
    """The fiber data that ``layout`` reads from ``f``, gathered as
    ``approx._gather`` once did: the sign table undone and the Riemann weight
    applied on the whole spectrum, then the slots read, +0.0 off the grid."""
    chirped = _chirp_plan(f.grid, layout.fgrid.theta).chirp(f.as_nd())
    spectrum = _alternate(np.fft.fftn(chirped, out=chirped), f.grid.n_dims)
    spectrum *= f.grid.spacing**f.grid.n_dims
    return np.where(layout.valid, spectrum.ravel()[layout.index], 0.0)


def gramian_reference(fibers) -> np.ndarray:
    """Per-cell Gramians by ``einsum`` over the ``(member, cell, offset)``
    stack, as ``approx`` once formed them."""
    stack = np.stack([fib.data for fib in fibers])
    return np.einsum("iwt,jwt->wij", stack, np.conj(stack))


def fit_sis_reference(fibers, ell: int):
    """Eigenvalues, eigenvectors and generators of ``fit_sis`` by the
    ``einsum`` route it once took: one Gramian per cell, one ``hermitian_eig``
    and ``q_i(w) = λ_i(w)^{-1/2} Σ_j conj(v_ji(w)) fiber_j(w)``, zero where
    the eigenvalue vanishes."""
    stack = np.stack([fib.data for fib in fibers])
    eigenvalues, eigenvectors = hermitian_eig(gramian_reference(fibers))
    kept = eigenvalues[:, :ell]
    live = kept > ZERO_EIGENVALUE_TOL * np.maximum(eigenvalues[:, 0], 0.0)[:, None]
    scale = np.where(live, 1.0 / np.sqrt(np.where(live, kept, 1.0)), 0.0)
    weights = np.conj(eigenvectors[:, :, :ell]) * scale[:, None, :]
    return eigenvalues, eigenvectors, np.einsum("wji,jwt->iwt", weights, stack)


def tile_cells_reference(cells, n_dims: int, bound: int) -> None:
    """The per-offset loop that ``TileSet`` once ran on its cells: raises
    the ``ValueError`` of the first rule that the first defective cell
    breaks."""
    for w, offsets in enumerate(cells):
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


def frame_expansion_reference(f: SampledSignal, model, shifts) -> np.ndarray:
    """The loop that ``partial_projection`` once ran: the sum of
    ``<f, T_k phi_i> T_k phi_i`` over the integer shift vectors ``k`` in
    ``shifts`` and the model's generators ``phi_i``, one twisted translate
    and one inner product per term.  Returns the samples."""
    theta = model.grid.theta
    generators = [synthesize_generator(model, i, f.grid) for i in range(model.ell)]
    accum = np.zeros(f.grid.size, dtype=np.complex128)
    for k in shifts:
        shift = tuple(float(c) for c in k)
        for phi in generators:
            moved = theta_translate(phi, shift, theta)
            accum += inner_product(f, moved) * moved.values
    return accum


def cascade_step_reference(y, layer, plan, atoms):
    """One layer of the full-grid cascade engine that ``scatter`` ran before
    it held the levels after a power-of-two pooling as one period: every
    stack keeps all ``N`` samples per axis.  Arguments as for
    ``scatter._step`` on samples."""
    frac = _as_fraction(layer.pooling_factor) if layer.pooling_factor != 1.0 else None
    early = frac is not None and layer.nonlin.kind == layer.pool.kind == "identity"
    out = np.fft.fftn(y[:, None], axes=plan.axes) * layer.kernels[atoms]
    if early:
        _check_alias(out, frac, plan.axes)
    out = np.fft.ifftn(out, axes=plan.axes, out=out).reshape((-1,) + y.shape[1:])
    for op in (layer.nonlin, layer.pool):
        out = op.apply(out)
        if op.kind == "modulus":
            plan.chirp(out, in_place=True)
    if frac is not None:
        out = _tile(_dilate_period(out, frac, plan, None if early else _warn_at_caller), plan)
    return out


def cascade_levels_reference(f, layers, depth, theta, roots=None):
    """The full-grid chirped stacks of levels ``0 .. depth``, as a list;
    ``roots`` (chirped, ``(paths, *grid)``) replace the chirped ``f``."""
    plan = _chirp_plan(f.grid, theta)
    y = plan.chirp(f.as_nd()[None]) if roots is None else roots
    levels = [y]
    for layer in layers[:depth]:
        levels.append(cascade_step_reference(levels[-1], layer, plan, slice(None, -1)))
    return levels


def energy_profile_reference(f, layers, depth, theta):
    """``energy_profile`` on the full-grid engine."""
    return [_energy(y, f.grid) for y in cascade_levels_reference(f, layers, depth, theta)]


def features_reference(f, layers, depth, theta, level0_atom=None):
    """Per level, the ``(paths, grid size)`` array of the features that
    ``extract_features`` returns, in path order."""
    plan = _chirp_plan(f.grid, theta)
    levels = cascade_levels_reference(f, layers, depth, theta)
    kernels = [_readout_kernel(k, layers, plan, level0_atom) for k in range(len(levels))]
    return [plan.unchirp(plan.filter(y, kernel)).reshape(len(y), -1)
            for y, kernel in zip(levels, kernels)]


def u_path_reference(f, q, layers, theta):
    """The samples of ``u_path`` on the full-grid engine."""
    plan = _chirp_plan(f.grid, theta)
    out = f.as_nd()[None]
    for lam, layer in zip(q, layers):
        out = cascade_step_reference(plan.chirp(out), layer, plan, slice(lam, lam + 1))
        out = plan.unchirp(out)
    return out.ravel()


def deviations_reference(f, shifts, layers, depth, theta, covariant, level0_atom=None):
    """``scatter._deviations`` on the full-grid engine: one cascade of ``f``
    and one per shifted copy, each distance read off the spectrum of the
    level-``depth`` difference over the ``N^n`` bins."""
    plan = _chirp_plan(f.grid, theta)
    kernel = _readout_kernel(depth, layers, plan, level0_atom)
    y = plan.chirp(f.as_nd()[None])
    plain = cascade_levels_reference(f, layers, depth, theta)[-1]
    deviations = []
    for t in shifts:
        shift = as_shift(t, f.grid.n_dims)
        diff = cascade_levels_reference(f, layers, depth, theta, _translate(y, shift, plan))[-1]
        diff *= np.exp(-1j * np.pi * depth * sum(c * c for c in shift.components) * theta.cot_t)
        diff -= _translate(plain, shift, plan) if covariant else plain
        spectrum = np.fft.fftn(diff, axes=plan.axes) * kernel
        deviations.append(_energy(spectrum, f.grid) / f.grid.size)
    return deviations


def feature_drift_reference(f, shift, layers, depth, theta, covariant):
    """A deviation from public functions alone: the sum over level-``depth``
    paths of ``‖e^{-i pi depth ‖t‖² cot θ} F(T_t f) - G‖²``, with ``F`` the
    features of :func:`extract_features`, ``T_t`` :func:`theta_translate` by
    the tuple ``shift`` and ``G = F(f)``, or its translate when
    ``covariant``; each energy is summed over the samples (no Parseval), and
    no run slot is read."""
    moved = extract_features(theta_translate(f, shift, theta), layers, depth, theta).levels[depth]
    plain = extract_features(f, layers, depth, theta).levels[depth]
    phase = np.exp(-1j * np.pi * depth * sum(c * c for c in shift) * theta.cot_t)
    total = 0.0
    for path, a in moved.items():
        b = theta_translate(plain[path], shift, theta) if covariant else plain[path]
        total += l2_norm(a.with_values(phase * a.values - b.values)) ** 2
    return total
