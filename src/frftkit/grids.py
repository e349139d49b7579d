"""Sampling grids, sampled signals, angle parameters, and shift vectors.

The whole package works on centered periodic grids: per dimension the
sample points are ``t_j = -extent + j*spacing`` with
``spacing = 2*extent/samples_per_dim``, so the period is ``2*extent`` and
``t = 0`` is the sample at index ``samples_per_dim // 2``.  Signals on a
2-dimensional grid are stored flattened in row-major order.

Every record that holds arrays (signals, fiber fields, Gramians, models and
frame bounds) takes them in by one rule, :func:`_adopt`: it keeps an array
that the library has just allocated, copies a caller's, holds it read-only,
and refuses a non-finite entry: :class:`OverflowError` for the library's own
array, where a computation overflowed, and :class:`ValueError` for a caller's.
Every public function and record that takes an angle takes it in by
:func:`as_theta`: a :class:`ThetaParam`, or a finite real number.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import AngleDegenerate, OffGridShift

__all__ = ["Grid", "SampledSignal", "ThetaParam", "ShiftVector", "as_shift", "as_theta"]

#: Angles with |sin(theta)| at or below this are unusable by the kernel.
SIN_FLOOR = 1e-9
#: Distance from a multiple of pi below which the exact branch applies.
AXIS_TOL = 1e-12
#: Relative slack when snapping shift components to grid indices.
GRID_SNAP = 1e-9


def _as_int(value: object, name: str) -> int:
    """``value`` as an ``int`` by :func:`operator.index`, so NumPy integers
    pass; a bool, a float or anything else raises :class:`TypeError` that
    names the parameter."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _as_real(value: object, name: str, kind: str = "a real number") -> float:
    """``value`` as a ``float``, so NumPy reals and fractions pass; a bool, a
    string or anything else that is not a real number raises
    :class:`TypeError` that names the parameter (``name must be kind``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be {kind}, got {value!r}")
    return float(value)


@dataclass(frozen=True, slots=True)
class Grid:
    """Centered uniform grid on ``[-extent, extent)^n_dims``."""

    n_dims: int
    samples_per_dim: int
    extent: float

    def __post_init__(self) -> None:
        for name in ("n_dims", "samples_per_dim"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.n_dims not in (1, 2):
            raise ValueError(f"n_dims must be 1 or 2, got {self.n_dims}")
        n = self.samples_per_dim
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(
                f"samples_per_dim must be a power of two >= 4, got {n}"
            )
        extent = _as_real(self.extent, "extent")
        if not (extent > 0.0 and math.isfinite(extent)):
            raise ValueError(f"extent must be positive, got {self.extent}")
        object.__setattr__(self, "extent", extent)

    @property
    def spacing(self) -> float:
        """Sample spacing per dimension."""
        return 2.0 * self.extent / self.samples_per_dim

    @property
    def period(self) -> float:
        """Length of one period, ``2 * extent``."""
        return 2.0 * self.extent

    @property
    def size(self) -> int:
        """Total number of samples."""
        return self.samples_per_dim**self.n_dims

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.samples_per_dim,) * self.n_dims

    @property
    def axis(self) -> NDArray[np.float64]:
        """1D coordinate array shared by every dimension."""
        n = self.samples_per_dim
        return (np.arange(n) - n // 2) * self.spacing

    def coordinates(self) -> tuple[NDArray[np.float64], ...]:
        """Per-dimension coordinate arrays, flattened row-major."""
        if self.n_dims == 1:
            return (self.axis,)
        a, b = np.meshgrid(self.axis, self.axis, indexing="ij")
        return (a.ravel(), b.ravel())

    def radius_squared(self) -> NDArray[np.float64]:
        """Flattened ``‖t‖²`` over the grid."""
        return sum(np.square(c) for c in self.coordinates())


class _Owned:
    """A fresh array handed to a record to keep as it is (see :func:`_adopt`)."""

    __slots__ = ("array",)

    def __init__(self, array: NDArray) -> None:
        self.array = array


def _adopt(array: "NDArray | _Owned", dtype: type, message: str) -> NDArray:
    """``array`` as a record's read-only, C-contiguous ``dtype`` array (float64
    or complex128), by the module's rule; a non-finite entry raises ``message``."""
    owned = isinstance(array, _Owned)
    array = np.ascontiguousarray(array.array, dtype) if owned else np.array(array, dtype, order="C")
    if not np.isfinite(array.reshape(-1).view(np.float64)).all():
        raise (OverflowError if owned else ValueError)(message)
    array.flags.writeable = False
    return array


def _sum_squares(values: NDArray[np.complex128], n_axes: int = 1) -> NDArray[np.float64]:
    """The sum of ``|z|²`` over the last ``n_axes`` axes, one per leading index:
    re² + im² of the float64 view (its last axis contiguous) summed by ``np.einsum``,
    off BLAS and with no temporary, so no thread count or vector ``abs`` moves a bit."""
    axes = "..." + "ij"[:n_axes]
    v = values.view(np.float64)
    return np.einsum(f"{axes},{axes}->...", v, v)


def _energy(values: NDArray[np.complex128], grid: Grid) -> float:
    """Squared discrete L² norm of samples on ``grid``."""
    return float(grid.spacing**grid.n_dims * _sum_squares(np.ravel(values)))


def _power(values: NDArray[np.complex128]) -> NDArray[np.float64]:
    """``|z|²`` of each entry, rounded as the scalar ``re*re + im*im``."""
    return np.square(values.real) + np.square(values.imag)


@dataclass(frozen=True, slots=True)
class SampledSignal:
    """Complex samples attached to a :class:`Grid` (flattened row-major)."""

    grid: Grid
    values: NDArray[np.complex128]

    def __post_init__(self) -> None:
        values = _adopt(self.values, np.complex128, "signal contains non-finite entries")
        values = values.reshape(-1)
        if values.size != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} samples, got {values.size}"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def _owning(
        cls, grid: Grid, values: NDArray[np.complex128]
    ) -> "SampledSignal":
        """Wrap an array the library has just allocated, without a copy: for
        internal results only, as nothing else may hold ``values`` or share
        its memory.  A non-finite result raises :class:`OverflowError`."""
        return cls(grid, _Owned(values))

    def with_values(self, values: NDArray[np.complex128]) -> "SampledSignal":
        """Same grid, new samples."""
        return SampledSignal(self.grid, values)

    def as_nd(self) -> NDArray[np.complex128]:
        """Samples reshaped to the grid's n-dimensional shape."""
        return self.values.reshape(self.grid.shape)


def _wrap_to_axis(theta: float) -> tuple[bool, int]:
    """Whether theta sits within AXIS_TOL of k*pi, and the parity of k."""
    k = round(theta / math.pi)
    if abs(theta - k * math.pi) <= AXIS_TOL:
        return True, k % 2
    return False, 0


@dataclass(frozen=True, slots=True)
class ThetaParam:
    """Angle parameter with guarded trigonometric accessors.

    Angles within ``AXIS_TOL`` of a multiple of pi are allowed and flag the
    exact copy/reflection branch; any other angle with ``|sin| <= SIN_FLOOR``
    is rejected because cot/csc would overflow.  A bool, a string or any
    other value that is not a real number raises :class:`TypeError`.
    """

    theta: float

    def __post_init__(self) -> None:
        theta = _as_real(self.theta, "theta", "a ThetaParam or a real number")
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        object.__setattr__(self, "theta", theta)
        axis, _ = _wrap_to_axis(theta)
        if not axis and abs(math.sin(theta)) <= SIN_FLOOR:
            raise AngleDegenerate(
                f"theta={theta!r} has |sin| <= {SIN_FLOOR} and is not a "
                "multiple of pi"
            )

    @property
    def is_axis(self) -> bool:
        """True when theta is (numerically exactly) a multiple of pi."""
        return _wrap_to_axis(self.theta)[0]

    @property
    def axis_parity(self) -> int:
        """0 for even multiples of pi (identity), 1 for odd (reflection)."""
        axis, parity = _wrap_to_axis(self.theta)
        if not axis:
            raise ValueError("axis_parity is defined only on axis angles")
        return parity

    @property
    def cot_t(self) -> float:
        if self.is_axis:
            raise AngleDegenerate(f"cot undefined at theta={self.theta!r}")
        return math.cos(self.theta) / math.sin(self.theta)

    @property
    def csc_t(self) -> float:
        if self.is_axis:
            raise AngleDegenerate(f"csc undefined at theta={self.theta!r}")
        return 1.0 / math.sin(self.theta)

    @property
    def abs_sin(self) -> float:
        return abs(math.sin(self.theta))

    @property
    def sign_sin(self) -> int:
        """+1 or -1 with the sign of sin(theta)."""
        return 1 if math.sin(self.theta) >= 0.0 else -1


@dataclass(frozen=True, slots=True)
class ShiftVector:
    """Real shift amounts, one per grid dimension (a bool is no real)."""

    components: tuple[float, ...]

    def __post_init__(self) -> None:
        comps = tuple(_as_real(c, "shift components", "real numbers") for c in self.components)
        if not comps:
            raise ValueError("shift needs at least one component")
        if not all(math.isfinite(c) for c in comps):
            raise ValueError("shift components must be finite")
        object.__setattr__(self, "components", comps)

    @property
    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.components))

    def index_offsets(self, grid: Grid) -> tuple[int, ...]:
        """Shift expressed in whole samples; OffGridShift if not exact."""
        if len(self.components) != grid.n_dims:
            raise OffGridShift(
                f"shift has {len(self.components)} components for a "
                f"{grid.n_dims}-dimensional grid"
            )
        offsets = []
        for c in self.components:
            ratio = c / grid.spacing
            nearest = round(ratio)
            if abs(ratio - nearest) > GRID_SNAP * max(1.0, abs(ratio)):
                raise OffGridShift(
                    f"shift component {c!r} is not a multiple of the grid "
                    f"spacing {grid.spacing!r}"
                )
            offsets.append(int(nearest))
        return tuple(offsets)


def as_shift(s: "ShiftVector | Sequence[float] | float", n_dims: int) -> ShiftVector:
    """Coerce a scalar/sequence into a ShiftVector of the right arity."""
    if isinstance(s, ShiftVector):
        shift = s
    elif isinstance(s, Iterable) and not isinstance(s, (str, bytes)):
        shift = ShiftVector(tuple(s))
    else:
        shift = ShiftVector((s,) * max(n_dims, 1))
    if len(shift.components) != n_dims:
        raise OffGridShift(
            f"shift arity {len(shift.components)} does not match grid "
            f"dimension {n_dims}"
        )
    return shift


def as_theta(theta: "ThetaParam | float") -> ThetaParam:
    """``theta`` as a :class:`ThetaParam`: itself, or built from a real
    number, which :class:`ThetaParam` refuses when it is not finite.  A bool
    or anything else raises the :class:`TypeError` of :class:`ThetaParam`,
    which names ``theta``."""
    return theta if isinstance(theta, ThetaParam) else ThetaParam(theta)
