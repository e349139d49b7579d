"""Cascaded convolutional feature extraction at a fixed chirp angle.

Each layer convolves (in the twisted sense) against a bank of atoms,
applies a pointwise nonlinearity, an optional pooling map, and a dilation
by the layer's pooling factor.  Features are read out by convolving the
running signals against per-layer output atoms.  The module also provides
the certified stability bounds: how far features can move under a
twisted translation of the input, both in the invariant and the
covariant sense.

Every layer keeps the chirped spectra of its atoms, computed once at
construction; one batched forward of the atoms gives its frame bound and
decay constants.  One engine propagates the cascade on the chirped samples of
the cached plan of :mod:`frftkit.transform`, a level at a time: level ``k``
is one ``(paths, *grid)`` ndarray whose rows are the length-``k`` paths in
lexicographic order of their atom indices, the order of
``itertools.product``.  Each layer takes one spectrum of the whole stack,
one broadcast product against the atom spectra and one inverse, the plan's
``spectrum`` and ``samples``, which are also every other conversion
between a level's samples and its spectrum here.  Inputs
are chirped once at the root and features unchirped once at the readout;
energies and deviations ignore the unit-modulus chirp.  A modulus drops
its phase (these networks are not translation invariant), and the engine
multiplies it back in.  A layer whose maps are both identities dilates the
filter's own output, so the dilation's alias check reads the product
spectrum the filter already has.  When that layer's factor is an even
integer that shortens the period, it does not invert at all: the DFT
decimation identity folds the product spectrum into the spectrum of the
dilated period (:func:`~frftkit.theta_ops._dilate_spectrum`), and the level
is handed on as that spectrum, so the next layer skips its forward
transform.  :func:`energy_profile` reads such a level's energy by Parseval,
:func:`extract_features` reads it out with a product and an inverse, and
the deviations subtract such last levels as spectra.  Samples are dilated instead
in :func:`u_path`, whose results are pinned bit for bit, by an odd factor,
which keeps the period, by a fraction, which needs the whole grid, and by
a factor that the period divides, where the period would shrink to one.

Levels after a power-of-two pooling are held as one period.  A dilation
by the integer ``p`` reads sample ``N/2 + p (m - N/2) mod N``, so it leaves
a level that repeats after ``P = N / gcd(p, N)`` samples per axis (at
least 2), and the stack keeps only ``(paths, P, .., P)``; a later even
factor shortens ``P`` again.  The ``N``-point spectrum of a ``P``-periodic
signal lives on every ``(N / P)``-th bin, so a layer filters the period
exactly with its kernels read at that stride, and energies count each
period ``(N / P)^n`` times.  Pointwise maps and translates (rolls mod
``P``) act on the period as they are.  Only a modulus, which multiplies
the chirp back in, a fractional dilation and the readouts of
:func:`extract_features` and :func:`u_path` tile the period back to the
whole grid.

One function, ``_run``, owns an input's cascade.  It returns the run that
a one-slot cache (``_live_run``) keeps when the input's samples array, the
plan (both held weakly) and the first ``depth`` layer objects are the same
objects, else it runs the cascade once and keeps that run instead.  A run
keeps the first layer's filter, the chirped last level, each level's
energy and each layer's alias message: :func:`energy_profile` reads the
energies, and the deviations start each shifted copy from the filter times
a phase ramp and check no alias.  Each of them issues its input's alias
messages once, whether the run was kept or not.
"""

from __future__ import annotations

import itertools
import math
import warnings
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    GridMismatch,
    InadmissibleBankWarning,
    KeyMismatch,
    NoDecay,
    NonCommutingOps,
    PathArityMismatch,
)
from .frames import AtomBank, _frames, check_admissibility
from .grids import (
    Grid,
    SampledSignal,
    ShiftVector,
    ThetaParam,
    _as_int,
    _as_real,
    _energy,
    as_shift,
    as_theta,
)
from .theta_ops import (
    _as_fraction,
    _check_alias,
    _dilate_period,
    _dilate_spectrum,
    _tile,
    _translate,
    _warn_at_caller,
)
from .theta_ops import theta_convolve  # noqa: F401  (bench/test_smoke.py reads this name)
from .transform import _chirp_plan, _ChirpPlan, frft

__all__ = [
    "Nonlinearity",
    "Pooling",
    "LayerConfig",
    "FeatureTree",
    "u_layer",
    "u_path",
    "extract_features",
    "feature_distance",
    "invariance_deviation",
    "covariance_deviation",
    "invariance_bound",
    "covariance_bound",
    "atom_decay_constant",
    "energy_profile",
]

#: |cot θ| below which the modulus commutes with twisted translations.
MODULUS_COT_TOL = 1e-9
#: Largest tolerated boundary value of ``|ω| |F_θ φ(ω)|`` for output atoms.
DECAY_EDGE_TOL = 1e-6


class _PointwiseMap:
    """The code of :class:`Nonlinearity` and :class:`Pooling`: slotted
    dataclasses with a ``kind`` field among their ``_kinds``."""

    __slots__ = ()

    def __post_init__(self) -> None:
        if self.kind not in self._kinds:
            raise ValueError(f"unknown {type(self).__name__.lower()} kind {self.kind!r}")

    @property
    def lipschitz(self) -> float:
        return 1.0

    def apply(self, values: NDArray[np.complex128]) -> NDArray[np.complex128]:
        if self.kind == "identity":
            return values
        if self.kind == "modulus":
            return np.abs(values).astype(np.complex128)
        mag = np.abs(values)
        # b >= 0, so the gain is already 0 where mag == 0.
        gain = mag - self.b
        np.maximum(gain, 0.0, out=gain)
        np.divide(gain, mag, out=gain, where=mag > 0.0)
        del mag  # before the product, for peak memory
        return values * gain

    def commutes_with_translation(self, theta: ThetaParam | float) -> bool:
        """Whether the map passes through twisted shifts: identity and the
        shrink keep the phase at every angle; the modulus drops it, which is
        harmless only where the chirp is flat (``cot θ`` vanishes).  At a
        multiple of pi, where there is no chirp, a modulus raises
        :class:`AngleDegenerate`."""
        theta = as_theta(theta)
        if self.kind in ("identity", "phase_covariant_shrink"):
            return True
        return abs(theta.cot_t) <= MODULUS_COT_TOL


@dataclass(frozen=True, slots=True)
class Nonlinearity(_PointwiseMap):
    """Pointwise layer nonlinearity with unit Lipschitz constant.

    ``identity`` leaves values alone; ``modulus`` takes absolute values;
    ``phase_covariant_shrink`` shrinks the modulus by the threshold ``b``
    while keeping the phase, ``z -> z · max(0, |z| - b) / |z|``.
    :meth:`apply` returns a new array, except that ``identity`` returns
    its argument itself.
    """

    kind: str = "identity"
    b: float = 0.0
    _kinds = ("identity", "modulus", "phase_covariant_shrink")

    def __post_init__(self) -> None:
        _PointwiseMap.__post_init__(self)
        object.__setattr__(self, "b", _as_real(self.b, "b"))
        if self.kind == "phase_covariant_shrink" and not 0.0 <= self.b < math.inf:
            raise ValueError("shrink threshold must be nonnegative and finite")


@dataclass(frozen=True, slots=True)
class Pooling(_PointwiseMap):
    """Pointwise pooling map applied before the layer dilation.

    :meth:`apply` returns a new array, except that ``identity`` returns its
    argument itself.
    """

    kind: str = "identity"
    _kinds = ("identity", "modulus")


def atom_decay_constant(
    phi: SampledSignal, theta: ThetaParam | float
) -> tuple[float, float, float]:
    """Decay constants ``(K1, K2, K)`` of an output atom.

    ``K1`` is the grid maximum of ``|ω| |F_θ φ(ω)|``, ``K2`` that of
    ``|F_θ φ(ω)|``, and ``K = max(K1, K2)`` is the constant entering the
    stability bounds.  Raises :class:`NoDecay` when the weighted magnitude
    still exceeds ``DECAY_EDGE_TOL`` on the boundary of the output grid,
    since then the maximum is not trusted to dominate the tail.
    """
    spectrum = frft(phi, theta)
    return _decay_constants(spectrum.values, spectrum.grid)


def _decay_constants(spectrum: NDArray[np.complex128], grid: Grid) -> tuple[float, float, float]:
    """:func:`atom_decay_constant` read off the atom's transform on ``grid``."""
    magnitude = np.abs(spectrum.reshape(-1))
    weighted = np.sqrt(grid.radius_squared()) * magnitude

    edge = np.ones(grid.shape, dtype=bool)
    edge[(slice(1, -1),) * grid.n_dims] = False
    worst_edge = float(weighted[edge.ravel()].max())
    if worst_edge > DECAY_EDGE_TOL:
        raise NoDecay(
            "output atom spectrum does not decay: boundary value "
            f"{worst_edge:.3e} exceeds {DECAY_EDGE_TOL:.1e}"
        )
    k1 = float(weighted.max())
    k2 = float(magnitude.max())
    return k1, k2, max(k1, k2)


@dataclass(frozen=True, slots=True)
class LayerConfig:
    """One analysis layer: atom bank, output atom, nonlinearity, pooling.

    Construction transforms the bank atoms and the output atom in one
    batched forward, for the upper frame bound of them all and the output
    atom's decay constants, then caches ``kernels``: their chirped spectra,
    ready for convolution on the chirp plan.  ``dilation`` is the pooling
    factor as a :class:`~fractions.Fraction`, or None for a factor of 1.
    It raises, in this order, :class:`TypeError` for a pooling factor that
    is not a real number, :class:`ValueError` for one below 1,
    :class:`IrrationalScale` for one that is not a rational of small
    denominator, :class:`AngleDegenerate` at a multiple of pi,
    :class:`OverflowError` for a spectrum that is not finite, and
    :class:`NoDecay` for an output atom whose transform does not vanish
    toward the grid boundary.
    """

    bank: AtomBank
    output_atom: SampledSignal
    nonlin: Nonlinearity = Nonlinearity()
    pool: Pooling = Pooling()
    pooling_factor: float = 1.0
    frame_bound: float = field(init=False, repr=False)
    decay_constants: tuple[float, float, float] = field(init=False, repr=False)
    kernels: NDArray[np.complex128] = field(init=False, repr=False, compare=False)
    dilation: Fraction | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.output_atom.grid != self.bank.grid:
            raise ValueError("output atom must live on the bank's grid")
        if not _as_real(self.pooling_factor, "pooling_factor") >= 1.0:
            raise ValueError("pooling factor must be at least 1")
        # IrrationalScale here, not at the first pass.
        dilation = _as_fraction(self.pooling_factor) if self.pooling_factor != 1.0 else None
        object.__setattr__(self, "dilation", dilation)
        plan = _chirp_plan(self.bank.grid, self.theta)
        atoms = np.stack([atom.as_nd() for atom in self.bank.atoms + (self.output_atom,)])
        spectra = plan.forward(atoms)
        object.__setattr__(self, "frame_bound", _frames(spectra, plan).upper)
        object.__setattr__(self, "decay_constants", _decay_constants(spectra[-1], plan.out_grid))
        del spectra  # before the kernels, for peak memory
        kernels = plan.kernel(atoms)
        kernels.setflags(write=False)
        object.__setattr__(self, "kernels", kernels)

    @property
    def theta(self) -> ThetaParam:
        return self.bank.theta

    @property
    def n_atoms(self) -> int:
        return len(self.bank)


@dataclass(frozen=True, slots=True)
class FeatureTree:
    """Features indexed by path, one mapping per level.

    ``levels[k]`` maps length-``k`` tuples of atom indices to feature
    signals; ``admissible`` records whether the generating cascade passed
    the frame admissibility check.
    """

    levels: tuple[dict[tuple[int, ...], SampledSignal], ...]
    theta: ThetaParam
    admissible: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", as_theta(self.theta))
        for k, level in enumerate(self.levels):
            for path in level:
                if len(path) != k:
                    raise ValueError(f"level {k} contains a path of length {len(path)}")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _check_layer(layer: LayerConfig, plan: _ChirpPlan) -> None:
    if layer.bank.theta.theta != plan.theta.theta:
        raise ValueError("layer is configured for a different angle")
    if layer.bank.grid != plan.in_grid:
        raise GridMismatch("layer atoms and signal live on different grids")


def _level_energy(y: NDArray[np.complex128], spectral: bool, grid: Grid) -> float:
    """The energy on ``grid`` of the signals that the ``(paths, P, .., P)``
    stack ``y`` holds one period of, given as its samples or, when
    ``spectral``, as its ``fftn`` over the grid axes.  The grid holds
    ``(N / P)^n`` periods, and by Parseval a spectrum of ``P^n`` bins holds
    ``P^n`` times its samples' energy; both factors are powers of two."""
    copies = (grid.samples_per_dim // y.shape[-1]) ** grid.n_dims
    return _energy(y, grid) * (copies / y[0].size if spectral else copies)


def _on_period(kernel: NDArray[np.complex128], y: NDArray[np.complex128],
               plan: _ChirpPlan) -> NDArray[np.complex128]:
    """``kernel`` for :meth:`_ChirpPlan.filter` on the stack ``y`` of one
    period, ``P`` samples per axis: every ``(N / P)``-th bin, the only bins
    where the ``N``-point spectrum of a ``P``-periodic signal is not zero
    (a view)."""
    stride = plan.in_grid.samples_per_dim // y.shape[-1]
    return kernel[(...,) + (slice(None, None, stride),) * len(plan.axes)]


def _cascade_plan(
    grid: Grid, theta: ThetaParam, layers: Sequence[LayerConfig], depth: int
) -> _ChirpPlan:
    """The chirp plan for a depth-``depth`` cascade on ``grid``, after
    checking the depth and the first ``depth`` layers against it."""
    if _as_int(depth, "depth") < 0:
        raise ValueError("depth must be nonnegative")
    if depth > len(layers):
        raise PathArityMismatch(
            f"depth {depth} exceeds the {len(layers)} configured layers"
        )
    plan = _chirp_plan(grid, theta)
    for layer in layers[:depth]:
        _check_layer(layer, plan)
    return plan


def _product(
    y: NDArray[np.complex128], spectral: bool, layer: LayerConfig, plan: _ChirpPlan, atoms: slice
) -> NDArray[np.complex128]:
    """The filter of one layer on a chirped ``(paths, P, .., P)`` stack of
    periods, given as its samples or, when ``spectral``, as its ``fftn`` over
    the grid axes: its spectrum times each kernel of ``layer.kernels[atoms]``,
    ``(paths, atoms, P, .., P)``."""
    rows = y[:, None] if spectral else plan.spectrum(y[:, None])
    return rows * _on_period(layer.kernels[atoms], y, plan)


def _step(
    out: NDArray[np.complex128],
    layer: LayerConfig,
    plan: _ChirpPlan,
    fold: bool = True,
    warn: Callable[[str], None] | None = _warn_at_caller,
) -> tuple[NDArray[np.complex128], bool]:
    """The rest of one layer after its filter ``out`` (see :func:`_product`),
    which is left as it is if read-only: nonlinearity, pooling and
    dilation.  Row ``i * n + j`` of the ``(paths * n, P', .., P')`` result
    is path ``i`` extended by the ``j``-th of the ``n`` selected atoms; its
    period ``P'`` is ``P`` unless a modulus or a fractional dilation needs
    the whole grid, or an integer dilation shortens it.  Returns the result
    and whether it is held as its spectrum: with ``fold``, after identity
    maps and an even integer dilation that shortens the period (see
    :func:`_dilate_spectrum`).  ``warn`` takes the message of the alias
    check (see :func:`_check_alias`); None skips the check."""
    frac = layer.dilation
    # With identity maps the dilation contracts the filter's own output, so
    # its alias check can read the filter's spectrum instead of a new one.
    early = frac is not None and layer.nonlin.kind == layer.pool.kind == "identity"
    if early:
        if warn is not None:
            _check_alias(out, frac, plan.axes, warn)
        p = frac.numerator
        if fold and frac.denominator == 1 and p % 2 == 0 and p % out.shape[-1]:
            out = _dilate_spectrum(out, p, plan)
            return out.reshape((-1,) + out.shape[2:]), True
    shape = (-1,) + out.shape[2:]
    out = plan.samples(out if out.flags.writeable else out.copy()).reshape(shape)
    for op in (layer.nonlin, layer.pool):
        out = op.apply(out)
        if op.kind == "modulus":
            # |y| = |x| has lost the chirp's phase; put it back, on the whole grid.
            out = _tile(out, plan)
            plan.chirp(out, in_place=True)
    if frac is not None:
        out = _dilate_period(out, frac, plan, None if early else warn)
    return out, False


def _levels(
    y: NDArray[np.complex128],
    spectral: bool,
    plan: _ChirpPlan,
    layers: Sequence[LayerConfig],
    warn: Callable[[str], None] | None = _warn_at_caller,
) -> Iterator[tuple[NDArray[np.complex128], bool]]:
    """Yield a chirped stack ``y`` of one period per path, with whether it
    is ``spectral`` (see :func:`_step`), then that of each level below it
    through ``layers``, whose alias messages go to ``warn``."""
    yield y, spectral
    for layer in layers:
        y, spectral = _step(_product(y, spectral, layer, plan, slice(None, -1)), layer, plan,
                            warn=warn)
        yield y, spectral


def _readout_kernel(
    k: int,
    layers: Sequence[LayerConfig],
    plan: _ChirpPlan,
    level0_atom: SampledSignal | None,
) -> NDArray[np.complex128]:
    """The kernel that reads chirped level-``k`` features out of a chirped
    level-``k`` stack (see :meth:`_ChirpPlan.filter`): the output atom of
    ``layers[k - 1]``; at level 0 ``level0_atom``, else the first layer's
    output atom."""
    if k > 0:
        return layers[k - 1].kernels[-1]
    if level0_atom is None:
        if not layers:
            raise ValueError("need either a level-0 output atom or at least one layer")
        first = layers[0]
        if (first.bank.grid, first.theta) == (plan.in_grid, plan.theta):
            return first.kernels[-1]  # built on this plan from the same atom
        level0_atom = first.output_atom
    if level0_atom.grid != plan.in_grid:
        raise GridMismatch("level-0 output atom and signal live on different grids")
    return plan.kernel(level0_atom.as_nd())


def u_layer(
    f: SampledSignal, lam: int, layer: LayerConfig, theta: ThetaParam | float
) -> SampledSignal:
    """One propagation step: convolve with atom ``lam``, then nonlinearity,
    pooling, and dilation by the layer's pooling factor."""
    return u_path(f, (_as_int(lam, "lam"),), (layer,), theta)


def u_path(
    f: SampledSignal,
    q: Sequence[int],
    layers: Sequence[LayerConfig],
    theta: ThetaParam | float,
) -> SampledSignal:
    """Propagate along the path ``q``, one layer per entry."""
    theta = as_theta(theta)
    if len(q) > len(layers):
        raise PathArityMismatch(
            f"path of length {len(q)} exceeds the {len(layers)} configured layers"
        )
    if not q:
        return f
    plan = _cascade_plan(f.grid, theta, layers, len(q))
    out = f.as_nd()[None]
    for lam, layer in zip(q, layers):
        if not 0 <= _as_int(lam, "each entry of q") < layer.n_atoms:
            raise IndexError(f"atom index {lam} out of range for {layer.n_atoms} atoms")
        # Out of the chirped domain after every step, as u_layer is.
        out = _product(plan.chirp(out), False, layer, plan, slice(lam, lam + 1))
        out, _ = _step(out, layer, plan, fold=False)
        out = plan.unchirp(_tile(out, plan))
    return SampledSignal._owning(f.grid, out)


def extract_features(
    f: SampledSignal,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam | float,
    level0_atom: SampledSignal | None = None,
) -> FeatureTree:
    """Feature tree of ``f`` down to ``depth`` levels.

    Level ``k`` features convolve each depth-``k`` path output against
    layer ``k``'s output atom; level 0 uses ``level0_atom`` when given and
    the first layer's output atom otherwise.  Emits
    :class:`InadmissibleBankWarning` (and records ``admissible=False``)
    when some layer's frame bound exceeds one.
    """
    theta = as_theta(theta)
    plan = _cascade_plan(f.grid, theta, layers, depth)
    admissible = check_admissibility(
        (layer.frame_bound, layer.nonlin.lipschitz, layer.pool.lipschitz)
        for layer in layers[:depth]
    )
    if not admissible:
        warnings.warn(
            "layer cascade is not admissible; feature energy may grow",
            InadmissibleBankWarning,
            stacklevel=2,
        )
    levels = []
    stacks = _levels(plan.chirp(f.as_nd()[None]), False, plan, layers[:depth])
    for k, (stack, spectral) in enumerate(stacks):
        paths = itertools.product(*(range(layer.n_atoms) for layer in layers[:k]))
        kernel = _on_period(_readout_kernel(k, layers, plan, level0_atom), stack, plan)
        features = plan.samples((stack if spectral else plan.spectrum(stack)) * kernel)
        features = plan.unchirp(_tile(features, plan))
        # Fresh, disjoint rows of the unchirped stack: no copy.
        levels.append({path: SampledSignal._owning(f.grid, v.ravel())
                       for path, v in zip(paths, features)})
    return FeatureTree(levels=tuple(levels), theta=theta, admissible=admissible)


def feature_distance(tree_a: FeatureTree, tree_b: FeatureTree, k: int) -> float:
    """Sum of squared norm differences over all level-``k`` features."""
    if _as_int(k, "k") < 0 or k > tree_a.depth or k > tree_b.depth:
        raise KeyMismatch(f"level {k} is not present in both trees")
    level_a = tree_a.levels[k]
    level_b = tree_b.levels[k]
    if level_a.keys() != level_b.keys():
        raise KeyMismatch(f"level {k} features are indexed by different paths")
    return sum(
        _energy(level_a[path].values - level_b[path].values, level_a[path].grid)
        for path in level_a
    )


def _commutation_gate(layers: Sequence[LayerConfig], depth: int, theta: ThetaParam) -> None:
    for k, layer in enumerate(layers[:depth]):
        for name, op in (("nonlinearity", layer.nonlin), ("pooling", layer.pool)):
            if not op.commutes_with_translation(theta):
                raise NonCommutingOps(
                    f"layer {k} {name} {op.kind!r} does not commute "
                    "with twisted translations at this angle"
                )


@dataclass(frozen=True, slots=True)
class _Run:
    """One input's cascade: its ``head`` (at depth 0 the root's spectrum,
    else the first layer's filter of it, see :func:`_product`) and its
    chirped last level ``stack``, read-only arrays of their own, whether the
    level is held as its spectrum, the energy of each level and the alias
    message of each layer that warned.  Its key: weak references to the
    input's samples array and to the plan, and the layers it ran, so a
    collected input or an evicted plan never matches again."""

    samples: weakref.ref
    plan: weakref.ref
    layers: tuple[LayerConfig, ...]
    head: NDArray[np.complex128]
    stack: NDArray[np.complex128]
    spectral: bool
    energies: tuple[float, ...]
    alias: tuple[str, ...]


_live_run: _Run | None = None


def _run(f: SampledSignal, plan: _ChirpPlan, layers: Sequence[LayerConfig], depth: int) -> _Run:
    """The run of the cascade of ``f`` through ``layers[:depth]``: the kept
    one if its key matches, else a new one, which replaces it."""
    global _live_run
    run = _live_run
    if (run is not None and run.samples() is f.values and run.plan() is plan
            and len(run.layers) == depth and all(a is b for a, b in zip(run.layers, layers))):
        return run
    _live_run = run = None  # free the kept arrays before the cascade allocates
    y = plan.chirp(f.as_nd()[None])
    energies, alias = [_level_energy(y, False, f.grid)], []
    head = _product(y, False, layers[0], plan, slice(None, -1)) if depth else plan.spectrum(y)
    head.flags.writeable = False
    del y
    stack, spectral = head, True
    if depth:
        for stack, spectral in _levels(*_step(head, layers[0], plan, warn=alias.append), plan,
                                       layers[1:depth], alias.append):
            energies.append(_level_energy(stack, spectral, f.grid))
    stack.flags.writeable = False
    _live_run = _Run(weakref.ref(f.values), weakref.ref(plan), tuple(layers[:depth]),
                     head, stack, spectral, tuple(energies), tuple(alias))
    return _live_run


def _deviations(
    f: SampledSignal,
    shifts: Sequence[object],
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam,
    level0_atom: SampledSignal | None,
    covariant: bool,
) -> list[float]:
    """Per shift ``t``, the sum over level-``depth`` paths of the squared
    distance between the phase-corrected features of the input shifted by
    ``t`` and the features of ``f``, themselves shifted when ``covariant``.

    The run of ``f`` (see :func:`_run`) gives the alias warnings, once.  Each
    shifted copy starts from its head times the translate's ramp (see
    :func:`_translate`) and checks no alias.  The readout filter is
    linear and commutes with translates, so each distance is the energy of
    the filtered difference of two level-``depth`` stacks, taken between
    spectra when the level is held so; by Parseval that is the energy of the
    difference's spectrum times the kernel, over the ``N^n`` bins.  Those of
    a stack of periods are its own ``P^n`` bins, each ``(N / P)^n`` times as
    large."""
    theta = as_theta(theta)
    plan = _cascade_plan(f.grid, theta, layers, depth)
    _commutation_gate(layers, depth, theta)  # at the angle the layers pinned
    shifts = [as_shift(t, f.grid.n_dims) for t in shifts]
    kernel = _readout_kernel(depth, layers, plan, level0_atom)
    run = _run(f, plan, layers, depth)
    for message in run.alias:
        _warn_at_caller(message)
    deviations = []
    for shift in shifts:
        diff, spectral = _translate(run.head, shift, plan, spectral=True), True
        if depth:
            for diff, spectral in _levels(*_step(diff, layers[0], plan, warn=None), plan,
                                          layers[1:depth], None):
                pass  # keep only the last level alive, not a list of all of them
        norm_sq = sum(c * c for c in shift.components)
        diff *= np.exp(-1j * np.pi * depth * norm_sq * theta.cot_t)
        diff -= _translate(run.stack, shift, plan, spectral) if covariant else run.stack
        spectrum = diff if spectral else plan.spectrum(diff, in_place=True)
        spectrum *= _on_period(kernel, spectrum, plan)
        deviations.append(_level_energy(spectrum, True, f.grid))
        del diff, spectrum  # before the next shift's cascade, for peak memory
    return deviations


def invariance_deviation(
    f: SampledSignal,
    t: object,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam | float,
    level0_atom: SampledSignal | None = None,
) -> float:
    """Measured drift of level-``depth`` features under a twisted shift.

    Compares features of the shifted input, corrected by the predicted
    global phase, against features of the original: the sum over paths of
    squared feature-norm differences.  Raises :class:`NonCommutingOps`
    when some layer's pointwise maps do not commute with twisted
    translations at this angle.
    """
    return _deviations(f, (t,), layers, depth, theta, level0_atom, covariant=False)[0]


def covariance_deviation(
    f: SampledSignal,
    t: object,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam | float,
    level0_atom: SampledSignal | None = None,
) -> float:
    """Measured drift of level-``depth`` features from exact covariance.

    Compares the phase-corrected features of the shifted input against the
    twisted translate of the original features.
    """
    return _deviations(f, (t,), layers, depth, theta, level0_atom, covariant=True)[0]


def _bound(t: object, theta: ThetaParam | float, s_factors: Sequence[float], K: float,
           norm_f: float, terms: Callable[..., float]) -> float:
    """π²K²‖f‖² times ``terms(‖t‖, ∏s², ∏s, Σ1/s², cot θ, csc θ)``: the one
    intake of both bounds.  A bare number ``t`` is a one-dimensional shift."""
    theta = as_theta(theta)
    norm_t = (t if isinstance(t, ShiftVector) else as_shift(t, np.size(t))).norm
    prod_sq, prod, inv_sq_sum = 1.0, 1.0, 0.0
    for s in s_factors:
        s = _as_real(s, "each entry of s_factors")
        if not s >= 1.0:
            raise ValueError("pooling factors must be at least 1")
        prod_sq *= s * s
        prod *= s
        inv_sq_sum += 1.0 / (s * s)
    value = terms(norm_t, prod_sq, prod, inv_sq_sum, theta.cot_t, theta.csc_t)
    return math.pi**2 * _as_real(K, "K") ** 2 * _as_real(norm_f, "norm_f") ** 2 * value


def invariance_bound(
    t: object,
    theta: ThetaParam | float,
    s_factors: Sequence[float],
    K: float,
    norm_f: float,
) -> float:
    """Certified upper bound on the invariance deviation at depth
    ``len(s_factors)``.

    ``K`` is the largest decay constant among the relevant output atoms
    and ``norm_f`` the input norm.  Valid when at most one pooling factor
    exceeds one.  A bare number ``t`` is read as a one-dimensional shift,
    ``‖t‖ = |t|``; on a 2-D grid pass a :class:`ShiftVector` or a pair, since
    :func:`invariance_deviation` reads a bare number there as ``(t, t)``.
    """
    def terms(n: float, prod_sq: float, prod: float, inv_sq_sum: float, cot: float,
              csc: float) -> float:
        return (
            n**4 * cot**2 / prod_sq**2
            + n**4 * inv_sq_sum**2 * cot**2
            + 4.0 * n**2 * csc**2 / prod_sq
            + 4.0 * n**3 * abs(cot * csc) / prod**3
            + 4.0 * n**3 * inv_sq_sum * abs(cot * csc) / prod
        )
    return _bound(t, theta, s_factors, K, norm_f, terms)


def covariance_bound(
    t: object,
    theta: ThetaParam | float,
    s_factors: Sequence[float],
    K: float,
    norm_f: float,
) -> float:
    """Certified upper bound on the covariance deviation at depth
    ``len(s_factors)``.

    Valid when at most one pooling factor exceeds one and ``‖t‖ <= 1``.
    A bare number ``t`` is read as a one-dimensional shift, ``‖t‖ = |t|``;
    on a 2-D grid pass a :class:`ShiftVector` or a pair, since
    :func:`covariance_deviation` reads a bare number there as ``(t, t)``.
    """
    def terms(n: float, prod_sq: float, prod: float, inv_sq_sum: float, cot: float,
              csc: float) -> float:
        return (
            n**4 * inv_sq_sum**2 * cot**2
            + n**4 * (1.0 - 1.0 / prod_sq) * cot**2
            + 4.0 * n**2 * (1.0 - 1.0 / prod) ** 2 * csc**2
            + 4.0 * n**2.5 * abs(cot * csc) * inv_sq_sum
            + 4.0 * n**2.5 * abs(cot * csc) * (1.0 - 1.0 / prod_sq) * (1.0 - 1.0 / prod)
            + 2.0 * n**4 * inv_sq_sum * (1.0 - 1.0 / prod_sq) * abs(csc) * cot**2
        )
    return _bound(t, theta, s_factors, K, norm_f, terms)


def energy_profile(
    f: SampledSignal,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam | float,
) -> list[float]:
    """Total propagated energy per level, ``k = 0 .. depth``.

    Entry ``k`` is the sum over length-``k`` paths of the squared norm of
    the propagated signal (entry 0 is ``‖f‖²``).  For admissible cascades
    this sequence is nonincreasing.
    """
    theta = as_theta(theta)
    run = _run(f, _cascade_plan(f.grid, theta, layers, depth), layers, depth)
    for message in run.alias:
        _warn_at_caller(message)
    return list(run.energies)
