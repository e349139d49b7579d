"""Plain-NumPy reference for the chirp -> FFT -> chirp transform.

Nothing here imports ``frftkit``.  The benchmark uses these functions to
generate its inputs and to check the program's outputs, so both stay
independent of the code being measured.

Conventions follow the package's documented grid: per dimension the
samples sit at ``t_j = (j - N/2) * spacing`` with ``spacing = 2 E / N``
(period ``2 E``), values are flattened row-major, and the transform of
angle ``theta`` lands on an output grid of spacing ``|sin theta| / period``:

    F f(w) = |sin|^{-n/2} e^{i pi |w|^2 cot} * DFT[e^{i pi |t|^2 cot} f](w csc)

where ``DFT`` is the Riemann sum ``spacing^n sum_j f_j e^{-2 pi i xi t_j}``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RefGrid:
    """``n_dims`` axes of ``n`` samples on ``[-extent, extent)``."""

    n_dims: int
    n: int
    extent: float

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def period(self) -> float:
        return 2.0 * self.extent

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.n_dims

    @property
    def size(self) -> int:
        return self.n**self.n_dims

    def radius_squared(self) -> np.ndarray:
        """Flattened ``|t|^2`` over the grid."""
        axis = (np.arange(self.n) - self.n // 2) * self.spacing
        if self.n_dims == 1:
            return axis**2
        return np.add.outer(axis**2, axis**2).ravel()

    def output(self, theta: float) -> "RefGrid":
        """Grid the transform of angle ``theta`` lands on."""
        d_omega = abs(math.sin(theta)) / self.period
        return RefGrid(self.n_dims, self.n, 0.5 * self.n * d_omega)

    def weight(self) -> float:
        """Riemann weight of one sample, ``spacing^n``."""
        return self.spacing**self.n_dims


def _reflect(a: np.ndarray) -> np.ndarray:
    # j -> (N - j) mod N on every axis: the reflection fixing the centre.
    for axis in range(a.ndim):
        a = np.take(a, (-np.arange(a.shape[axis])) % a.shape[axis], axis=axis)
    return a


def chirped_spectrum(values: np.ndarray, grid: RefGrid, theta: float) -> np.ndarray:
    """Centered Riemann DFT of ``e^{i pi |t|^2 cot} f``, in grid shape."""
    cot = math.cos(theta) / math.sin(theta)
    chirped = (values * np.exp(1j * np.pi * cot * grid.radius_squared())).reshape(grid.shape)
    spectrum = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(chirped)))
    return spectrum * grid.spacing**grid.n_dims


def forward(values: np.ndarray, grid: RefGrid, theta: float) -> np.ndarray:
    """Transform of ``values`` (flattened), on ``grid.output(theta)``."""
    sin = math.sin(theta)
    cot = math.cos(theta) / sin
    spectrum = chirped_spectrum(values, grid, theta)
    if sin < 0:
        spectrum = _reflect(spectrum)
    out = grid.output(theta)
    phase = np.exp(1j * np.pi * cot * out.radius_squared())
    return abs(sin) ** (-0.5 * grid.n_dims) * phase * spectrum.ravel()


def inverse(values: np.ndarray, out: RefGrid, theta: float) -> np.ndarray:
    """Inverse of :func:`forward`: ``values`` live on the output grid ``out``."""
    sin = math.sin(theta)
    cot = math.cos(theta) / sin
    spectrum = (values * np.exp(-1j * np.pi * cot * out.radius_squared())).reshape(out.shape)
    spectrum = spectrum * abs(sin) ** (0.5 * out.n_dims)
    if sin < 0:
        spectrum = _reflect(spectrum)
    in_grid = input_grid_of(out, theta)
    signal = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spectrum)))
    signal = signal.ravel() / in_grid.spacing**out.n_dims
    return signal * np.exp(-1j * np.pi * cot * in_grid.radius_squared())


def input_grid_of(out: RefGrid, theta: float) -> RefGrid:
    """Grid whose transform output is ``out``."""
    return RefGrid(out.n_dims, out.n, 0.5 * out.n * abs(math.sin(theta)) / out.period)


def l2_norm(values: np.ndarray, grid: RefGrid) -> float:
    """Riemann-weighted L2 norm."""
    return float(np.sqrt(grid.weight() * np.sum(np.abs(values) ** 2)))


def banded_signal(grid: RefGrid, theta: float, band: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm samples whose spectrum vanishes for ``|w| > band``."""
    out = grid.output(theta)
    spec = rng.standard_normal(out.size) + 1j * rng.standard_normal(out.size)
    spec = spec * (np.sqrt(out.radius_squared()) <= band)
    values = inverse(spec, out, theta)
    return values / l2_norm(values, grid)


def gauss_profile(out: RefGrid, center: float, width: float) -> np.ndarray:
    """``exp(-pi |w - c|^2 / width^2)`` with the same ``c`` on every axis."""
    axis = (np.arange(out.n) - out.n // 2) * out.spacing
    bump = np.exp(-np.pi * (axis - center) ** 2 / width**2)
    if out.n_dims == 1:
        return bump.astype(np.complex128)
    return np.multiply.outer(bump, bump).ravel().astype(np.complex128)


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute deviation relative to the largest reference entry."""
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def digest(*arrays: np.ndarray | bytes) -> str:
    """SHA-256 over the raw bytes of the given arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
