"""Cascaded convolutional feature extraction at a fixed chirp angle.

Each layer convolves (in the twisted sense) against a bank of atoms,
applies a pointwise nonlinearity, an optional pooling map, and a dilation
by the layer's pooling factor.  Features are read out by convolving the
running signals against per-layer output atoms.  The module also provides
the certified stability bounds: how far features can move under a
twisted translation of the input, both in the invariant and the
covariant sense.

Every layer keeps the chirped spectra of its atoms, computed once at
construction, and the cascade propagates plain ndarrays on the cached
chirp plan of :mod:`frftkit.transform`; a public function builds
:class:`SampledSignal` objects only for the signals it returns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

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
from .frames import AtomBank, check_admissibility, frame_bounds
from .grids import Grid, SampledSignal, ShiftVector, ThetaParam, as_shift
from .theta_ops import _as_fraction, _dilate, _translate
from .theta_ops import theta_convolve  # noqa: F401  (bench/test_smoke.py reads this name)
from .transform import _chirp_plan, _ChirpPlan, frft, l2_norm

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

_NONLINEARITY_KINDS = ("identity", "modulus", "phase_covariant_shrink")
_POOLING_KINDS = ("identity", "modulus")


def _phase_commutes(kind: str, theta: ThetaParam) -> bool:
    """Whether a pointwise map of this kind passes through twisted shifts.

    Identity and the phase-covariant shrink commute at every angle since
    they act on the modulus only through a phase-preserving gain.  The
    plain modulus discards phase, which is harmless only when the chirp
    factor is flat, i.e. when ``cot θ`` vanishes.
    """
    if kind in ("identity", "phase_covariant_shrink"):
        return True
    return (not theta.is_axis) and abs(theta.cot_t) <= MODULUS_COT_TOL


@dataclass(frozen=True, slots=True)
class Nonlinearity:
    """Pointwise layer nonlinearity with unit Lipschitz constant.

    ``identity`` leaves values alone; ``modulus`` takes absolute values;
    ``phase_covariant_shrink`` shrinks the modulus by the threshold ``b``
    while keeping the phase, ``z -> z · max(0, |z| - b) / |z|``.
    """

    kind: str = "identity"
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _NONLINEARITY_KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "phase_covariant_shrink" and self.b < 0.0:
            raise ValueError("shrink threshold must be nonnegative")

    @property
    def lipschitz(self) -> float:
        return 1.0

    def apply(self, values: NDArray[np.complex128]) -> NDArray[np.complex128]:
        if self.kind == "identity":
            return values.copy()
        if self.kind == "modulus":
            return np.abs(values).astype(np.complex128)
        mag = np.abs(values)
        gain = np.zeros_like(mag)
        np.divide(np.maximum(mag - self.b, 0.0), mag, out=gain, where=mag > 0.0)
        return values * gain

    def commutes_with_translation(self, theta: ThetaParam) -> bool:
        return _phase_commutes(self.kind, theta)


@dataclass(frozen=True, slots=True)
class Pooling:
    """Pointwise pooling map applied before the layer dilation."""

    kind: str = "identity"

    def __post_init__(self) -> None:
        if self.kind not in _POOLING_KINDS:
            raise ValueError(f"unknown pooling kind {self.kind!r}")

    @property
    def lipschitz(self) -> float:
        return 1.0

    def apply(self, values: NDArray[np.complex128]) -> NDArray[np.complex128]:
        if self.kind == "identity":
            return values.copy()
        return np.abs(values).astype(np.complex128)

    def commutes_with_translation(self, theta: ThetaParam) -> bool:
        return _phase_commutes(self.kind, theta)


def atom_decay_constant(
    phi: SampledSignal, theta: ThetaParam
) -> tuple[float, float, float]:
    """Decay constants ``(K1, K2, K)`` of an output atom.

    ``K1`` is the grid maximum of ``|ω| |F_θ φ(ω)|``, ``K2`` that of
    ``|F_θ φ(ω)|``, and ``K = max(K1, K2)`` is the constant entering the
    stability bounds.  Raises :class:`NoDecay` when the weighted magnitude
    still exceeds ``DECAY_EDGE_TOL`` on the boundary of the output grid,
    since then the maximum is not trusted to dominate the tail.
    """
    spectrum = frft(phi, theta)
    magnitude = np.abs(spectrum.values)
    radius = np.sqrt(spectrum.grid.radius_squared())
    weighted = radius * magnitude

    n = spectrum.grid.samples_per_dim
    edge = np.zeros(spectrum.grid.shape, dtype=bool)
    for axis in range(spectrum.grid.n_dims):
        index = [slice(None)] * spectrum.grid.n_dims
        index[axis] = 0
        edge[tuple(index)] = True
        index[axis] = n - 1
        edge[tuple(index)] = True
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

    Construction computes and caches the layer's upper frame bound (over
    the bank together with the output atom), the output atom's decay
    constants, and ``kernels``: the chirped spectra of the bank atoms
    followed by the output atom, ready for convolution on the chirp plan
    (``None`` at multiples of pi, where no convolution is defined).  The
    decay constants raise :class:`NoDecay` for atoms whose transform does
    not vanish toward the grid boundary.
    """

    bank: AtomBank
    output_atom: SampledSignal
    nonlin: Nonlinearity = Nonlinearity()
    pool: Pooling = Pooling()
    pooling_factor: float = 1.0
    frame_bound: float = field(init=False, repr=False)
    decay_constants: tuple[float, float, float] = field(init=False, repr=False)
    kernels: NDArray[np.complex128] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.output_atom.grid != self.bank.grid:
            raise ValueError("output atom must live on the bank's grid")
        if not self.pooling_factor >= 1.0:
            raise ValueError("pooling factor must be at least 1")
        extended = AtomBank(self.bank.atoms + (self.output_atom,), self.bank.theta)
        object.__setattr__(self, "frame_bound", frame_bounds(extended).upper)
        object.__setattr__(
            self,
            "decay_constants",
            atom_decay_constant(self.output_atom, self.bank.theta),
        )
        kernels = None
        if not self.theta.is_axis:
            plan = _chirp_plan(self.bank.grid, self.theta)
            kernels = plan.kernel(np.stack([atom.as_nd() for atom in extended.atoms]))
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
        for k, level in enumerate(self.levels):
            for path in level:
                if len(path) != k:
                    raise ValueError(f"level {k} contains a path of length {len(path)}")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _check_angle(layer: LayerConfig, theta: ThetaParam) -> None:
    if layer.bank.theta.theta != theta.theta:
        raise ValueError("layer is configured for a different angle")


def _check_layer(layer: LayerConfig, plan: _ChirpPlan) -> None:
    _check_angle(layer, plan.theta)
    if layer.bank.grid != plan.in_grid:
        raise GridMismatch("layer atoms and signal live on different grids")


def _energy(values: NDArray[np.complex128], grid: Grid) -> float:
    """Squared discrete L² norm of samples on ``grid``."""
    return float(grid.spacing**grid.n_dims * np.vdot(values, values).real)


def _propagate(
    x: NDArray[np.complex128], lam: int, layer: LayerConfig, plan: _ChirpPlan
) -> NDArray[np.complex128]:
    """:func:`u_layer` on an ndarray of the plan's input grid."""
    out = plan.convolve(x, layer.kernels[lam])
    out = layer.pool.apply(layer.nonlin.apply(out))
    if layer.pooling_factor != 1.0:
        out = _dilate(out, _as_fraction(layer.pooling_factor), plan)
    return out


def u_layer(
    f: SampledSignal, lam: int, layer: LayerConfig, theta: ThetaParam
) -> SampledSignal:
    """One propagation step: convolve with atom ``lam``, then nonlinearity,
    pooling, and dilation by the layer's pooling factor."""
    return u_path(f, (lam,), (layer,), theta)


def u_path(
    f: SampledSignal,
    q: Sequence[int],
    layers: Sequence[LayerConfig],
    theta: ThetaParam,
) -> SampledSignal:
    """Propagate along the path ``q``, one layer per entry."""
    if len(q) > len(layers):
        raise PathArityMismatch(
            f"path of length {len(q)} exceeds the {len(layers)} configured layers"
        )
    if not q:
        return f
    plan = _chirp_plan(f.grid, theta)
    out = f.as_nd()
    for k, lam in enumerate(q):
        layer = layers[k]
        _check_layer(layer, plan)
        if not 0 <= lam < layer.n_atoms:
            raise IndexError(f"atom index {lam} out of range for {layer.n_atoms} atoms")
        out = _propagate(out, lam, layer, plan)
    return f.with_values(out.ravel())


def _level0_kernel(
    layers: Sequence[LayerConfig],
    plan: _ChirpPlan,
    level0_atom: SampledSignal | None,
) -> NDArray[np.complex128]:
    """Kernel of ``level0_atom``, else of the first layer's output atom."""
    if level0_atom is None:
        if not layers:
            raise ValueError("need either a level-0 output atom or at least one layer")
        level0_atom = layers[0].output_atom
    if level0_atom.grid != plan.in_grid:
        raise GridMismatch("level-0 output atom and signal live on different grids")
    return plan.kernel(level0_atom.as_nd())


def _feature_levels(
    x: NDArray[np.complex128],
    plan: _ChirpPlan,
    layers: Sequence[LayerConfig],
    depth: int,
    level0_atom: SampledSignal | None,
) -> tuple[list[dict[tuple[int, ...], NDArray[np.complex128]]], bool]:
    """:func:`extract_features` on an ndarray: feature levels and whether
    the cascade is admissible.  Warns on behalf of the caller's caller."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > len(layers):
        raise PathArityMismatch(
            f"depth {depth} exceeds the {len(layers)} configured layers"
        )
    for layer in layers[:depth]:
        _check_layer(layer, plan)

    admissible = check_admissibility(
        (layer.frame_bound, layer.nonlin.lipschitz, layer.pool.lipschitz)
        for layer in layers[:depth]
    )
    if not admissible:
        warnings.warn(
            "layer cascade is not admissible; feature energy may grow",
            InadmissibleBankWarning,
            stacklevel=3,
        )

    signals = {(): x}
    levels = [{(): plan.convolve(x, _level0_kernel(layers, plan, level0_atom))}]
    for k in range(1, depth + 1):
        layer = layers[k - 1]
        next_signals: dict[tuple[int, ...], NDArray[np.complex128]] = {}
        level: dict[tuple[int, ...], NDArray[np.complex128]] = {}
        for path, signal in signals.items():
            for lam in range(layer.n_atoms):
                extended = path + (lam,)
                propagated = _propagate(signal, lam, layer, plan)
                next_signals[extended] = propagated
                level[extended] = plan.convolve(propagated, layer.kernels[-1])
        signals = next_signals
        levels.append(level)
    return levels, admissible


def extract_features(
    f: SampledSignal,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam,
    level0_atom: SampledSignal | None = None,
) -> FeatureTree:
    """Feature tree of ``f`` down to ``depth`` levels.

    Level ``k`` features convolve each depth-``k`` path output against
    layer ``k``'s output atom; level 0 uses ``level0_atom`` when given and
    the first layer's output atom otherwise.  Emits
    :class:`InadmissibleBankWarning` (and records ``admissible=False``)
    when some layer's frame bound exceeds one.
    """
    plan = _chirp_plan(f.grid, theta)
    levels, admissible = _feature_levels(f.as_nd(), plan, layers, depth, level0_atom)
    return FeatureTree(
        levels=tuple(
            {path: f.with_values(v.ravel()) for path, v in level.items()} for level in levels
        ),
        theta=theta,
        admissible=admissible,
    )


def feature_distance(tree_a: FeatureTree, tree_b: FeatureTree, k: int) -> float:
    """Sum of squared norm differences over all level-``k`` features."""
    if k < 0 or k > tree_a.depth or k > tree_b.depth:
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
        if not layer.nonlin.commutes_with_translation(theta):
            raise NonCommutingOps(
                f"layer {k} nonlinearity {layer.nonlin.kind!r} does not commute "
                "with twisted translations at this angle"
            )
        if not layer.pool.commutes_with_translation(theta):
            raise NonCommutingOps(
                f"layer {k} pooling {layer.pool.kind!r} does not commute "
                "with twisted translations at this angle"
            )


def _deviation(
    f: SampledSignal,
    t: object,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam,
    level0_atom: SampledSignal | None,
    covariant: bool,
) -> float:
    """Sum over level-``depth`` paths of the squared distance between the
    phase-corrected features of the shifted input and the features of
    ``f``, themselves shifted when ``covariant``."""
    _commutation_gate(layers, depth, theta)
    shift = as_shift(t, f.grid.n_dims)
    plan = _chirp_plan(f.grid, theta)
    x = f.as_nd()
    shifted = _translate(x, shift, plan)
    level_a = _feature_levels(shifted, plan, layers, depth, level0_atom)[0][depth]
    level_b = _feature_levels(x, plan, layers, depth, level0_atom)[0][depth]
    norm_sq = sum(c * c for c in shift.components)
    phase = np.exp(-1j * np.pi * depth * norm_sq * theta.cot_t)
    total = 0.0
    for path, feature in level_a.items():
        reference = _translate(level_b[path], shift, plan) if covariant else level_b[path]
        total += _energy(phase * feature - reference, f.grid)
    return total


def invariance_deviation(
    f: SampledSignal,
    t: object,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam,
    level0_atom: SampledSignal | None = None,
) -> float:
    """Measured drift of level-``depth`` features under a twisted shift.

    Compares features of the shifted input, corrected by the predicted
    global phase, against features of the original: the sum over paths of
    squared feature-norm differences.  Raises :class:`NonCommutingOps`
    when some layer's pointwise maps do not commute with twisted
    translations at this angle.
    """
    return _deviation(f, t, layers, depth, theta, level0_atom, covariant=False)


def covariance_deviation(
    f: SampledSignal,
    t: object,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam,
    level0_atom: SampledSignal | None = None,
) -> float:
    """Measured drift of level-``depth`` features from exact covariance.

    Compares the phase-corrected features of the shifted input against the
    twisted translate of the original features.
    """
    return _deviation(f, t, layers, depth, theta, level0_atom, covariant=True)


def _shift(t: ShiftVector | Sequence[float] | float) -> ShiftVector:
    """``t`` as a shift vector; a bare number is a one-dimensional shift."""
    return t if isinstance(t, ShiftVector) else as_shift(t, np.size(t))


def _pooling_products(s_factors: Sequence[float]) -> tuple[float, float, float]:
    prod_sq = 1.0
    prod = 1.0
    inv_sq_sum = 0.0
    for s in s_factors:
        if not s >= 1.0:
            raise ValueError("pooling factors must be at least 1")
        prod_sq *= s * s
        prod *= s
        inv_sq_sum += 1.0 / (s * s)
    return prod_sq, prod, inv_sq_sum


def invariance_bound(
    t: object,
    theta: ThetaParam,
    s_factors: Sequence[float],
    K: float,
    norm_f: float,
) -> float:
    """Certified upper bound on the invariance deviation at depth
    ``len(s_factors)``.

    ``K`` is the largest decay constant among the relevant output atoms
    and ``norm_f`` the input norm.  Valid when at most one pooling factor
    exceeds one.
    """
    norm_t = _shift(t).norm
    prod_sq, prod, inv_sq_sum = _pooling_products(s_factors)
    cot = theta.cot_t
    csc = theta.csc_t
    t2 = norm_t**2
    t3 = norm_t**3
    t4 = norm_t**4
    terms = (
        t4 * cot**2 / prod_sq**2
        + t4 * inv_sq_sum**2 * cot**2
        + 4.0 * t2 * csc**2 / prod_sq
        + 4.0 * t3 * abs(cot * csc) / prod**3
        + 4.0 * t3 * inv_sq_sum * abs(cot * csc) / prod
    )
    return math.pi**2 * K**2 * norm_f**2 * terms


def covariance_bound(
    t: object,
    theta: ThetaParam,
    s_factors: Sequence[float],
    K: float,
    norm_f: float,
) -> float:
    """Certified upper bound on the covariance deviation at depth
    ``len(s_factors)``.

    Valid when at most one pooling factor exceeds one and ``‖t‖ <= 1``.
    """
    norm_t = _shift(t).norm
    prod_sq, prod, inv_sq_sum = _pooling_products(s_factors)
    cot = theta.cot_t
    csc = theta.csc_t
    t2 = norm_t**2
    t4 = norm_t**4
    t52 = norm_t**2.5
    terms = (
        t4 * inv_sq_sum**2 * cot**2
        + t4 * (1.0 - 1.0 / prod_sq) * cot**2
        + 4.0 * t2 * (1.0 - 1.0 / prod) ** 2 * csc**2
        + 4.0 * t52 * abs(cot * csc) * inv_sq_sum
        + 4.0 * t52 * abs(cot * csc) * (1.0 - 1.0 / prod_sq) * (1.0 - 1.0 / prod)
        + 2.0 * t4 * inv_sq_sum * (1.0 - 1.0 / prod_sq) * abs(csc) * cot**2
    )
    return math.pi**2 * K**2 * norm_f**2 * terms


def energy_profile(
    f: SampledSignal,
    layers: Sequence[LayerConfig],
    depth: int,
    theta: ThetaParam,
) -> list[float]:
    """Total propagated energy per level, ``k = 0 .. depth``.

    Entry ``k`` is the sum over length-``k`` paths of the squared norm of
    the propagated signal (entry 0 is ``‖f‖²``).  For admissible cascades
    this sequence is nonincreasing.
    """
    if depth > len(layers):
        raise PathArityMismatch(
            f"depth {depth} exceeds the {len(layers)} configured layers"
        )
    signals = [f.as_nd()]
    profile = [l2_norm(f) ** 2]
    for k in range(depth):
        layer = layers[k]
        plan = _chirp_plan(f.grid, theta)
        _check_layer(layer, plan)
        signals = [
            _propagate(signal, lam, layer, plan)
            for signal in signals
            for lam in range(layer.n_atoms)
        ]
        profile.append(sum(_energy(signal, f.grid) for signal in signals))
    return profile
