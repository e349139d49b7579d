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

The transforms and the theta-operators run on one ``_ChirpPlan`` per
(input grid, output grid, angle), after the chirp-multiply/FFT algorithm of
Ozaktas, Arikan, Kutay and Bozdagi (IEEE TSP 1996).  Its chirped samples
``y = chirp(x)``, the signal times the input table, are the one domain of
the operator algebra: each theta-operator is ``unchirp(op(chirp(x)))`` for
a classical ``op``, and ``filter`` is the circular convolution on ``y``.
``spectrum`` is the unnormalized ``fftn`` of ``y`` over the grid axes and
``samples`` its inverse.  With the transform's ``norm="forward"`` pair for
sin(theta) < 0, they are the package's only FFTs of chirped samples over the
grid axes: ``filter``, ``kernel``, ``forward`` and ``inverse`` are written on
them, and the cascade, the fibers and the dilation's alias check call them
rather than ``np.fft`` (the polyphase dilation of :mod:`frftkit.theta_ops`
transforms one axis at a time).  A plan holds two complex tables and nothing
else (``spacing`` is the input grid's):

    input:   e^{i*pi*‖t_j‖²*cot} * (-1)^(j_1+..+j_n)
    output:  e^{i*pi*‖w_l‖²*cot} * (-1)^(l_1+..+l_n) * |sin|^{-n/2} * spacing^n

Each table is symmetric under ``j -> N - j`` on every axis, bit for bit.
The sample ``t_j = (j - N/2) * spacing`` and its mirror ``t_{N-j} = -t_j``
have bit-identical squares, so the same operations on them give the same
entry bit for bit; and N is even, so ``(-1)^j = (-1)^(N-j)``.  A table is
therefore computed on the orthant ``[0..N/2]^n`` only, ``(N/2+1)^n``
cosine/sine pairs instead of ``N^n``, with no temporary of the full size,
and every plan stores rows ``0..N/2`` of the first grid axis only: a 2-D
table mirrors its second axis in place, ``table[:, N/2+1:] =
table[:, N/2-1:0:-1]``, and rows ``N/2+1..N-1`` are read through the
reversed view ``table[N/2-1:0:-1]``.  Every product with a table goes
through :meth:`_ChirpPlan.times`, which multiplies the two halves of the
first grid axis separately; elementwise products do not depend on the
layout, so the results are those of whole tables bit for bit.

With N a power of two >= 4, N/2 is even, so
``e^{-2*pi*i*(l-N/2)*(j-N/2)/N} = (-1)^l * (-1)^j * e^{-2*pi*i*l*j/N}``: the
sign tables stand in exactly for ``fftshift`` and ``ifftshift``, and the
forward transform is ``output * fftn(input * x)``.  When sin(theta) < 0,
``w*csc`` reverses the bin order; ``ifftn(..., norm="forward")`` computes
that reversed, unnormalized spectrum directly.  The inverse divides the
tables out again: it multiplies in place by their conjugates.  Every FFT
of the transform runs in place (``out=``, NumPy >= 2.0) on an array the plan
has just allocated, never on an argument, so each stack is allocated once.
Only one plan is kept alive; asking for another key drops it before the new
one is built, and a plan is a pure function of its key, so eviction never
changes a result.

A plan on a grid of at least ``2**16`` samples builds its output table on a
second thread while the caller builds the input table, when
:func:`_thread_cap` allows two threads (``FRFTKIT_THREADS`` and the CPUs
the process may run on).  NumPy's ``cos``, ``sin`` and multiply loops
release the GIL, so the two tables' trig work overlaps.  The caller
allocates the output table, the worker fills it through the same
:func:`_signed_chirp`, and the caller joins before the plan is published: a
table is a pure function of its key, so every table and every result is
bit-identical to a serial build, and eviction is unchanged.  The worker
lives for one build only, so no frftkit thread outlives a call, and an
error in the worker is raised to the caller with no plan kept.  Smaller
grids and cached plans start no thread.
"""

from __future__ import annotations

import os

import numpy as np
from numpy.typing import NDArray

from .errors import AngleDegenerate, GridTooLarge
from .grids import Grid, SampledSignal, ThetaParam, _as_int, _energy, as_theta

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

#: Grids of at least this many samples build a plan's two tables on two
#: threads; below it, starting a thread costs more than it saves.
_THREADED_BUILD_MIN = 1 << 16


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


def _thread_cap() -> int:
    """Threads frftkit may use: the CPUs this process may run on, capped by
    ``FRFTKIT_THREADS`` when it is set; raises :class:`ValueError` when that
    is not a positive integer."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    raw = os.environ.get("FRFTKIT_THREADS")
    if raw is None:
        return cpus
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"FRFTKIT_THREADS={raw!r} is not an integer") from exc
    if n < 1:
        raise ValueError("FRFTKIT_THREADS must be at least 1")
    return min(n, cpus)


def _table_shape(grid: Grid) -> tuple[int, ...]:
    """The stored shape of a table on ``grid``: rows ``0..N/2`` of the first
    axis, the other axes whole."""
    return (grid.samples_per_dim // 2 + 1,) + grid.shape[1:]


def _signed_chirp(
    grid: Grid, cot: float, scale: float, out: NDArray[np.complex128] | None = None
) -> NDArray[np.complex128]:
    """``scale * e^{i*pi*‖t‖²*cot} * (-1)^(j_1+..+j_n)`` in the stored shape
    of :func:`_table_shape`, read-only, written into ``out`` when given.

    Built on the orthant ``[0..N/2]^n`` and, in 2-D, mirrored along the
    second axis; see the module docstring.
    """
    half = grid.samples_per_dim // 2
    # The long-lived table first: temporaries allocated after it are freed
    # at the top of the heap, not left as a hole below it (peak RSS).
    table = np.empty(_table_shape(grid), dtype=np.complex128) if out is None else out
    lower = table[..., :half + 1]
    # One temporary of the orthant's side, squared in place (the worker that
    # builds an output table keeps its freed memory in an arena of its own).
    phase = np.arange(-half, 1, dtype=np.float64)
    phase *= grid.spacing
    np.square(phase, out=phase)
    if grid.n_dims == 2:
        phase = phase[:, None] + phase[None, :]
    phase *= np.pi * cot
    np.cos(phase, out=lower.real)
    np.sin(phase, out=lower.imag)
    if scale != 1.0:
        lower *= scale
    _alternate(lower, grid.n_dims)
    if grid.n_dims == 2:
        table[:, half + 1:] = table[:, half - 1:0:-1]
    table.setflags(write=False)
    return table


class _ChirpPlan:
    """Chirp tables of one (input grid, output grid, angle); see the module
    docstring.  Methods take ndarrays whose trailing axes have the grid's
    shape; leading axes are a batch."""

    # __weakref__: the cascade's run slot refers to its plan weakly.
    __slots__ = ("in_grid", "out_grid", "theta", "axes", "halves", "chirp_in", "chirp_out",
                 "__weakref__")

    def __init__(self, in_grid: Grid, out_grid: Grid, theta: ThetaParam) -> None:
        self.in_grid, self.out_grid, self.theta = in_grid, out_grid, theta
        n = in_grid.n_dims
        self.axes = tuple(range(-n, 0))
        # The rows of the first grid axis that each half of a table
        # multiplies, and the stored rows that it reads.
        half, rest = in_grid.samples_per_dim // 2, (slice(None),) * (n - 1)
        self.halves = (((..., slice(None, half + 1)) + rest, slice(None)),
                       ((..., slice(half + 1, None)) + rest, slice(half - 1, 0, -1)))
        cot, scale = theta.cot_t, self.kernel_scale
        if in_grid.size >= _THREADED_BUILD_MIN and _thread_cap() >= 2:
            # Imported here: it loads logging (about 5 ms and 1 MiB), which a
            # process that builds only small plans never needs.
            from concurrent.futures import ThreadPoolExecutor

            # One short-lived worker per build: a pool kept between calls
            # would leave a thread running after the call and across a fork.
            chirp_out = np.empty(_table_shape(out_grid), dtype=np.complex128)
            with ThreadPoolExecutor(max_workers=1) as worker:
                filled = worker.submit(_signed_chirp, out_grid, cot, scale, chirp_out)
                self.chirp_in = _signed_chirp(in_grid, cot, 1.0)
                self.chirp_out = filled.result()
        else:
            self.chirp_in = _signed_chirp(in_grid, cot, 1.0)
            self.chirp_out = _signed_chirp(out_grid, cot, scale)

    @property
    def kernel_scale(self) -> float:
        """``|sin|^{-n/2} * spacing^n``, the modulus of the output table."""
        n = self.in_grid.n_dims
        return self.theta.abs_sin ** (-0.5 * n) * self.in_grid.spacing**n

    def times(
        self,
        a: NDArray[np.complex128],
        table: NDArray[np.complex128],
        *,
        in_place: bool = False,
        conj: bool = False,
    ) -> NDArray[np.complex128]:
        """``a`` times one of the plan's tables over its trailing grid axes,
        or times the table's conjugate when ``conj``; in place when
        ``in_place`` or ``conj``, else into a new array.  The one product
        with a table: it multiplies the two halves of the first grid axis in
        turn (see the module docstring)."""
        out = a if in_place or conj else np.empty(a.shape, dtype=np.complex128)
        for rows, stored in self.halves:
            if conj:
                _mul_conj(out[rows], table[stored])
            else:
                np.multiply(a[rows], table[stored], out=out[rows])
        return out

    def chirp(self, x: NDArray[np.complex128], *, in_place: bool = False) -> NDArray[np.complex128]:
        """``y = C_theta x`` times the sign table: the operators' domain."""
        return self.times(x, self.chirp_in, in_place=in_place)

    def unchirp(self, y: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """Inverse of :meth:`chirp`, in place."""
        return self.times(y, self.chirp_in, conj=True)

    def spectrum(
        self, y: NDArray[np.complex128], *, in_place: bool = False
    ) -> NDArray[np.complex128]:
        """The unnormalized ``fftn`` of chirped samples ``y`` over the
        trailing grid axes, in place when ``in_place``, else into a new
        array."""
        out = y if in_place else np.empty(y.shape, dtype=np.complex128)
        return np.fft.fftn(y, axes=self.axes, out=out)

    def samples(self, s: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """Inverse of :meth:`spectrum`, in place."""
        return np.fft.ifftn(s, axes=self.axes, out=s)

    def filter(
        self, y: NDArray[np.complex128], kernel: NDArray[np.complex128]
    ) -> NDArray[np.complex128]:
        """Circular convolution of chirped samples ``y`` with the atom of
        ``kernel``; leading axes of the two broadcast."""
        return self.samples(self.spectrum(y) * kernel)

    def kernel(self, g: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """Spectrum of the atom ``g`` as a kernel for :meth:`filter`.

        ``fftn`` of chirped samples is the centered spectrum divided by
        ``spacing^n`` and by the sign table.  Both factors of a product of
        spectra carry the sign table, but its inverse transform removes only
        one; the kernel takes the other.
        """
        out = _alternate(self.spectrum(self.chirp(g), in_place=True), self.in_grid.n_dims)
        out *= self.kernel_scale
        return out

    def forward(self, x: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """The transform of ``x`` on the output grid."""
        chirped = self.chirp(x)
        if self.theta.sign_sin > 0:
            out = self.spectrum(chirped, in_place=True)
        else:
            out = np.fft.ifftn(chirped, axes=self.axes, norm="forward", out=chirped)
        return self.times(out, self.chirp_out, in_place=True)

    def inverse(self, y: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """Inverse of :meth:`forward`, back on the input grid."""
        # 1 / output table = its conjugate over kernel_scale².
        scaled = self.times(y * self.kernel_scale**-2, self.chirp_out, conj=True)
        if self.theta.sign_sin > 0:
            out = self.samples(scaled)
        else:
            out = np.fft.fftn(scaled, axes=self.axes, norm="forward", out=scaled)
        return self.unchirp(out)


_live_plan: _ChirpPlan | None = None


def _chirp_plan(grid: Grid, theta: ThetaParam, *, output: bool = False) -> _ChirpPlan:
    """The plan of ``theta`` whose input grid (output grid if ``output``)
    is ``grid``; built on a miss after the previous plan is dropped.  An
    output grid's input grid is :func:`frft_output_grid` of it, which is not
    exact: at ``theta=0.1`` extent 12.5 comes back as 12.500000000000002."""
    global _live_plan
    if output:
        in_grid, out_grid = frft_output_grid(grid, theta), grid
    else:
        in_grid, out_grid = grid, frft_output_grid(grid, theta)
    plan = _live_plan
    if plan is None or (plan.in_grid, plan.out_grid, plan.theta) != (in_grid, out_grid, theta):
        plan = _live_plan = None  # free the old tables before allocating new ones
        plan = _live_plan = _ChirpPlan(in_grid, out_grid, theta)
    return plan


def chirp_modulate(f: SampledSignal, theta: ThetaParam | float, sign: int) -> SampledSignal:
    """Pointwise ``e^{sign * i * pi * ‖t‖² * cot(theta)} * f(t)``."""
    theta = as_theta(theta)
    if _as_int(sign, "sign") not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    plan = _chirp_plan(f.grid, theta)
    out = plan.chirp(f.as_nd()) if sign > 0 else plan.unchirp(f.as_nd().copy())
    return SampledSignal._owning(f.grid, _alternate(out, f.grid.n_dims))


def frft_output_grid(grid: Grid, theta: ThetaParam | float) -> Grid:
    """Canonical output grid: spacing ``|sin(theta)| / period``; raises
    :class:`AngleDegenerate` at a multiple of pi, where the spacing vanishes."""
    theta = as_theta(theta)
    if theta.is_axis:
        raise AngleDegenerate(f"cot undefined at theta={theta.theta!r}")
    d_omega = theta.abs_sin / grid.period
    return Grid(grid.n_dims, grid.samples_per_dim, 0.5 * grid.samples_per_dim * d_omega)


def _reflect(values: NDArray[np.complex128]) -> NDArray[np.complex128]:
    # j -> (N - j) mod N on every axis, the reflection that fixes the centered origin.
    return np.roll(np.flip(values), 1, axis=tuple(range(values.ndim)))


def _axis_branch(f: SampledSignal, theta: ThetaParam) -> SampledSignal:
    if theta.axis_parity == 0:
        return f.with_values(f.values)
    return SampledSignal._owning(f.grid, _reflect(f.as_nd()))


def frft(f: SampledSignal, theta: ThetaParam | float) -> SampledSignal:
    """Fractional Fourier transform of angle ``theta``."""
    theta = as_theta(theta)
    if theta.is_axis:
        return _axis_branch(f, theta)
    plan = _chirp_plan(f.grid, theta)
    return SampledSignal._owning(plan.out_grid, plan.forward(f.as_nd()))


def inverse_frft(F: SampledSignal, theta: ThetaParam | float) -> SampledSignal:
    """Inverse of :func:`frft`, onto ``frft_output_grid(F.grid, theta)``, which
    can miss the forward's input grid by an ulp of the extent: extent 12.5 at
    θ = 0.1 comes back as 12.500000000000002."""
    theta = as_theta(theta)
    if theta.is_axis:
        return _axis_branch(F, theta)
    plan = _chirp_plan(F.grid, theta, output=True)
    return SampledSignal._owning(plan.in_grid, plan.inverse(F.as_nd()))


def frft_direct_oracle(f: SampledSignal, theta: ThetaParam | float) -> SampledSignal:
    """Literal quadrature of the transform kernel; O(N²) per dimension.

    Kept deliberately independent of the FFT path: the kernel matrix is
    assembled from the defining exponential and applied by plain summation.
    """
    theta = as_theta(theta)
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
        return SampledSignal._owning(out_grid, out)
    # Separable product kernel: sum over both sample indices.
    values = f.as_nd()
    out = weight**2 * np.einsum("ap,bq,pq->ab", kernel, kernel, values)
    return SampledSignal._owning(out_grid, out)


def l2_norm(f: SampledSignal) -> float:
    """Discrete L² norm with the grid's Riemann weight."""
    return float(np.sqrt(_energy(f.values, f.grid)))


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """Riemann-weighted inner product; conjugates the second argument."""
    if f.grid != g.grid:
        raise ValueError("inner_product requires a common grid")
    weight = f.grid.spacing**f.grid.n_dims
    return complex(weight * np.sum(f.values * np.conj(g.values)))
