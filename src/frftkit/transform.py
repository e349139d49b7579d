"""The discrete fractional Fourier transform and its quadrature oracle.

The transform of angle ``theta`` factors through an ordinary Fourier
transform of the chirp-modulated signal:

    F_theta f(w) = |sin|^{-n/2} * e^{i*pi*‖w‖²*cot} * (C_theta f)^(w*csc),

where ``C_theta f = e^{i*pi*‖t‖²*cot} f`` and ``^`` is the e^{-2*pi*i*w*t}
Fourier transform.  On the centered grid the inner transform is a plain
shifted FFT, and the output is sampled at spacing ``|sin| / period`` so
that ``w*csc`` lands exactly on the FFT bins.  Angles at a multiple of pi
skip the kernel: even multiples return the signal, odd multiples its
reflection.

The transforms, and every theta-operator that conjugates by the chirp,
run on one ``_ChirpPlan`` per (input grid, output grid, angle), after the
chirp-multiply/FFT algorithm of Ozaktas, Arikan, Kutay and Bozdagi (IEEE
TSP 1996).  A plan holds two complex tables of the grid's shape and
nothing else (``spacing`` is the input grid's):

    input:   e^{i*pi*‖t_j‖²*cot} * (-1)^(j_1+..+j_n)
    output:  e^{i*pi*‖w_l‖²*cot} * (-1)^(l_1+..+l_n) * |sin|^{-n/2} * spacing^n

With N a power of two >= 4, N/2 is even, so
``e^{-2*pi*i*(l-N/2)*(j-N/2)/N} = (-1)^l * (-1)^j * e^{-2*pi*i*l*j/N}``: the
sign tables stand in exactly for ``fftshift`` and ``ifftshift``, and the
forward transform is ``output * fftn(input * x)``.  When sin(theta) < 0,
``w*csc`` reverses the bin order; ``ifftn(..., norm="forward")`` computes
that reversed, unnormalized spectrum directly.  The inverse divides the
tables out again: it multiplies in place by their conjugates.  Only one
plan is kept alive; asking for another key drops it before the new one is
built, and a plan is a pure function of its key, so eviction never changes
a result.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import AngleDegenerate, GridTooLarge
from .grids import Grid, SampledSignal, ThetaParam

__all__ = [
    "chirp_modulate",
    "frft",
    "inverse_frft",
    "frft_direct_oracle",
    "l2_norm",
    "inner_product",
    "frft_output_grid",
]

#: Size caps for the O(N^2)-per-dim quadrature oracle.
ORACLE_MAX_1D = 512
ORACLE_MAX_2D = 64


def centered_dft(values: NDArray[np.complex128], spacing: float) -> NDArray[np.complex128]:
    """Riemann-sum Fourier transform on the centered grid (all axes).

    Input and output are n-dimensional arrays; bin ``l`` of the output
    holds ``spacing^n * sum_j values[j] * e^{-2 pi i xi_l t_j}`` with
    ``xi_l = (l - N/2) / period``.
    """
    shifted = np.fft.ifftshift(values)
    spectrum = np.fft.fftn(shifted)
    return np.fft.fftshift(spectrum) * spacing**values.ndim


def centered_idft(spectrum: NDArray[np.complex128], spacing: float) -> NDArray[np.complex128]:
    """Exact inverse of :func:`centered_dft` for the same spacing."""
    shifted = np.fft.ifftshift(spectrum)
    values = np.fft.ifftn(shifted)
    return np.fft.fftshift(values) / spacing**spectrum.ndim


def _alternate(a: NDArray[np.complex128], n_dims: int) -> NDArray[np.complex128]:
    """Multiply ``a`` in place by ``(-1)^(j_1+..+j_n)`` over its last axes."""
    for axis in range(a.ndim - n_dims, a.ndim):
        index = [slice(None)] * a.ndim
        index[axis] = slice(1, None, 2)
        a[tuple(index)] *= -1
    return a


def _mul_conj(
    a: NDArray[np.complex128], table: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """``a *= conj(table)`` in place, without a conjugated copy of the table."""
    np.conjugate(a, out=a)
    a *= table
    np.conjugate(a, out=a)
    return a


def _signed_chirp(grid: Grid, cot: float, scale: float) -> NDArray[np.complex128]:
    table = np.exp(1j * np.pi * cot * grid.radius_squared()).reshape(grid.shape)
    if scale != 1.0:
        table *= scale
    _alternate(table, grid.n_dims)
    table.setflags(write=False)
    return table


class _ChirpPlan:
    """Chirp tables of one (input grid, output grid, angle); see the module
    docstring.  Methods take ndarrays whose trailing axes have the grid's
    shape; leading axes are a batch."""

    __slots__ = ("in_grid", "out_grid", "theta", "axes", "chirp_in", "chirp_out")

    def __init__(self, in_grid: Grid, out_grid: Grid, theta: ThetaParam) -> None:
        self.in_grid, self.out_grid, self.theta = in_grid, out_grid, theta
        self.axes = tuple(range(-in_grid.n_dims, 0))
        self.chirp_in = _signed_chirp(in_grid, theta.cot_t, 1.0)
        self.chirp_out = _signed_chirp(out_grid, theta.cot_t, self.kernel_scale)

    @property
    def kernel_scale(self) -> float:
        """``|sin|^{-n/2} * spacing^n``, the modulus of the output table."""
        n = self.in_grid.n_dims
        return self.theta.abs_sin ** (-0.5 * n) * self.in_grid.spacing**n

    def spectrum(self, x: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """``fftn`` of the chirped, sign-alternated samples.

        Bin ``l`` is the centered spectrum of ``C_theta x`` at ``(l - N/2) /
        period``, divided by ``spacing^n`` and by the sign table.
        """
        return np.fft.fftn(x * self.chirp_in, axes=self.axes)

    def from_spectrum(self, X: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """Inverse of :meth:`spectrum`."""
        return _mul_conj(np.fft.ifftn(X, axes=self.axes), self.chirp_in)

    def kernel(self, g: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """Spectrum of the atom ``g`` as a kernel for :meth:`convolve`.

        Both factors of a product of spectra carry the sign table, but its
        inverse transform removes only one; the kernel takes the other.
        """
        out = _alternate(self.spectrum(g), self.in_grid.n_dims)
        out *= self.kernel_scale
        return out

    def convolve(
        self, x: NDArray[np.complex128], kernel: NDArray[np.complex128]
    ) -> NDArray[np.complex128]:
        """Angle-covariant convolution of ``x`` with the atom of ``kernel``."""
        X = self.spectrum(x)
        X *= kernel
        return self.from_spectrum(X)

    def forward(self, x: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """The transform of ``x`` on the output grid."""
        chirped = x * self.chirp_in
        if self.theta.sign_sin > 0:
            out = np.fft.fftn(chirped, axes=self.axes)
        else:
            out = np.fft.ifftn(chirped, axes=self.axes, norm="forward")
        out *= self.chirp_out
        return out

    def inverse(self, y: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """Inverse of :meth:`forward`, back on the input grid."""
        # 1 / output table = its conjugate over kernel_scale².
        scaled = _mul_conj(y * self.kernel_scale**-2, self.chirp_out)
        if self.theta.sign_sin > 0:
            out = np.fft.ifftn(scaled, axes=self.axes)
        else:
            out = np.fft.fftn(scaled, axes=self.axes, norm="forward")
        return _mul_conj(out, self.chirp_in)


_live_plan: _ChirpPlan | None = None


def _chirp_plan(grid: Grid, theta: ThetaParam, *, output: bool = False) -> _ChirpPlan:
    """The plan of ``theta`` whose input grid (output grid if ``output``)
    is ``grid``; built on a miss after the previous plan is dropped."""
    global _live_plan
    if theta.is_axis:
        raise AngleDegenerate(f"cot undefined at theta={theta.theta!r}")
    if output:
        in_grid, out_grid = _input_grid(grid, theta), grid
    else:
        in_grid, out_grid = grid, frft_output_grid(grid, theta)
    plan = _live_plan
    if plan is None or (plan.in_grid, plan.out_grid, plan.theta) != (in_grid, out_grid, theta):
        plan = _live_plan = None  # free the old tables before allocating new ones
        plan = _live_plan = _ChirpPlan(in_grid, out_grid, theta)
    return plan


def chirp_modulate(f: SampledSignal, theta: ThetaParam, sign: int) -> SampledSignal:
    """Pointwise ``e^{sign * i * pi * ‖t‖² * cot(theta)} * f(t)``."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    table = _chirp_plan(f.grid, theta).chirp_in
    out = f.as_nd() * table if sign > 0 else _mul_conj(f.as_nd().copy(), table)
    return f.with_values(_alternate(out, f.grid.n_dims).ravel())


def frft_output_grid(grid: Grid, theta: ThetaParam) -> Grid:
    """Canonical output grid: spacing ``|sin(theta)| / period``."""
    d_omega = theta.abs_sin / grid.period
    return Grid(grid.n_dims, grid.samples_per_dim, 0.5 * grid.samples_per_dim * d_omega)


def _input_grid(out_grid: Grid, theta: ThetaParam) -> Grid:
    """The grid that :func:`inverse_frft` maps ``out_grid`` back to."""
    in_spacing = theta.abs_sin / out_grid.period
    n = out_grid.samples_per_dim
    return Grid(out_grid.n_dims, n, 0.5 * n * in_spacing)


def _reverse_indices(n: int) -> NDArray[np.intp]:
    # j -> (N - j) mod N, the reflection that fixes the centered origin.
    return (-np.arange(n)) % n


def _reflect(values: NDArray[np.complex128]) -> NDArray[np.complex128]:
    out = values
    for axis in range(values.ndim):
        out = np.take(out, _reverse_indices(values.shape[axis]), axis=axis)
    return out


def _axis_branch(f: SampledSignal, theta: ThetaParam) -> SampledSignal:
    if theta.axis_parity == 0:
        return f.with_values(f.values)
    return f.with_values(_reflect(f.as_nd()).ravel())


def frft(f: SampledSignal, theta: ThetaParam) -> SampledSignal:
    """Fractional Fourier transform of angle ``theta``."""
    if theta.is_axis:
        return _axis_branch(f, theta)
    plan = _chirp_plan(f.grid, theta)
    return SampledSignal(plan.out_grid, plan.forward(f.as_nd()).ravel())


def inverse_frft(F: SampledSignal, theta: ThetaParam) -> SampledSignal:
    """Inverse of :func:`frft`, mapping the canonical output grid back."""
    if theta.is_axis:
        return _axis_branch(F, theta)
    plan = _chirp_plan(F.grid, theta, output=True)
    return SampledSignal(plan.in_grid, plan.inverse(F.as_nd()).ravel())


def frft_direct_oracle(f: SampledSignal, theta: ThetaParam) -> SampledSignal:
    """Literal quadrature of the transform kernel; O(N²) per dimension.

    Kept deliberately independent of the FFT path: the kernel matrix is
    assembled from the defining exponential and applied by plain summation.
    """
    grid = f.grid
    n = grid.samples_per_dim
    if grid.n_dims == 1 and n > ORACLE_MAX_1D:
        raise GridTooLarge(f"oracle limited to N <= {ORACLE_MAX_1D} in 1D")
    if grid.n_dims == 2 and n > ORACLE_MAX_2D:
        raise GridTooLarge(f"oracle limited to N <= {ORACLE_MAX_2D} per dim in 2D")
    if theta.is_axis:
        return _axis_branch(f, theta)

    out_grid = frft_output_grid(grid, theta)
    t = grid.axis
    w = out_grid.axis
    # kernel[l, j] = e^{i pi (t_j² + w_l²) cot - 2 i pi w_l t_j csc}
    kernel = np.exp(
        1j * np.pi * theta.cot_t * (w[:, None] ** 2 + t[None, :] ** 2)
        - 2j * np.pi * theta.csc_t * np.outer(w, t)
    )
    weight = grid.spacing * theta.abs_sin**-0.5
    if grid.n_dims == 1:
        out = weight * (kernel @ f.values)
        return SampledSignal(out_grid, out)
    # Separable product kernel: sum over both sample indices.
    values = f.as_nd()
    out = weight**2 * np.einsum("ap,bq,pq->ab", kernel, kernel, values)
    return SampledSignal(out_grid, out.ravel())


def l2_norm(f: SampledSignal) -> float:
    """Discrete L² norm with the grid's Riemann weight."""
    weight = f.grid.spacing**f.grid.n_dims
    return float(np.sqrt(weight * np.sum(np.abs(f.values) ** 2)))


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """Riemann-weighted inner product; conjugates the second argument."""
    if f.grid != g.grid:
        raise ValueError("inner_product requires a common grid")
    weight = f.grid.spacing**f.grid.n_dims
    return complex(weight * np.sum(f.values * np.conj(g.values)))
