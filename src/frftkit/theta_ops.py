"""The angle-covariant operator algebra: translate, modulate, convolve, dilate.

Every operator here is a chirp conjugate of a classical one,

    translate:  T_s = e^{i pi s² cot} * C⁻ ∘ (circular shift by s) ∘ C
    convolve:   f ⋆ g = C⁻ [ |sin|^{-n/2} (Cf) * (Cg) ]      (* circular)
    dilate:     D_s = C⁻ ∘ (contract by s) ∘ C

with ``C`` the chirp of :func:`frftkit.transform.chirp_modulate`.  Composing
through the chirps keeps every textbook identity (translation/modulation
exchange, convolution commutation, dilation exchange) exact on the periodic
grid, wrap-around included.  On samples that do not wrap, the translate
reduces to the pointwise form ``e^{-2 i pi s·(t-s) cot} f(t-s)``.

The operators run on the chirped samples ``y = plan.chirp(x)`` of the
cached plan of :mod:`frftkit.transform`: ``C x`` times the sign table
``(-1)^(j_1+..+j_n)``, which stands in for the centering shifts.  Each
public operator is ``plan.unchirp(op(plan.chirp(x)))``: a translate by ``o``
samples rolls ``y`` and multiplies by ``(-1)^(o_1+..+o_n)`` and the phase; a
convolution filters ``y`` with a kernel that carries one more sign table;
a dilation contracts ``y``, resampling on a refined grid whose sign table
is the same, so the spectrum of ``y`` is zero-padded as it is.  The
operators work on ndarrays; the public functions build one
:class:`SampledSignal`, for the value they return.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import AliasRiskWarning, GridMismatch, GridTooLarge, IrrationalScale
from .grids import SampledSignal, ShiftVector, ThetaParam, as_shift
from .transform import _alternate, _chirp_plan, _ChirpPlan

__all__ = ["theta_translate", "theta_modulate", "theta_convolve", "theta_dilate"]

#: Largest denominator accepted for a dilation factor.
MAX_DENOMINATOR = 256
#: Cap on the refined-grid size used by the dilation resampler.
MAX_FINE_SIZE = 1 << 24
#: Relative spectral mass beyond the folding edge that triggers a warning.
ALIAS_GUARD = 1e-12


def _translate(
    y: NDArray[np.complex128], shift: ShiftVector, plan: _ChirpPlan
) -> NDArray[np.complex128]:
    """:func:`theta_translate` on chirped samples of the plan's input grid."""
    offsets = shift.index_offsets(plan.in_grid)
    phase = np.exp(1j * np.pi * plan.theta.cot_t * sum(c * c for c in shift.components))
    rolled = np.roll(y, offsets, axis=plan.axes)
    # Rolling the sign table by the offsets o multiplies it by (-1)^(o_1+..+o_n).
    rolled *= -phase if sum(offsets) % 2 else phase
    return rolled


def theta_translate(
    f: SampledSignal,
    s: ShiftVector | Sequence[float] | float,
    theta: ThetaParam,
) -> SampledSignal:
    """Angle-covariant translation by the on-grid shift ``s``."""
    shift = as_shift(s, f.grid.n_dims)
    plan = _chirp_plan(f.grid, theta)
    y = _translate(plan.chirp(f.as_nd()), shift, plan)
    return SampledSignal._owning(f.grid, plan.unchirp(y))


def theta_modulate(
    f: SampledSignal,
    s: ShiftVector | Sequence[float] | float,
    theta: ThetaParam,
) -> SampledSignal:
    """Angle-covariant modulation: a pure phase, no sample movement."""
    shift = as_shift(s, f.grid.n_dims)
    s_sq = sum(c * c for c in shift.components)
    coords = f.grid.coordinates()
    s_dot_t = sum(c * axis for c, axis in zip(shift.components, coords))
    phase = np.exp(1j * np.pi * (s_sq * theta.cot_t + 2.0 * theta.csc_t * s_dot_t))
    return SampledSignal._owning(f.grid, f.values * phase)


def theta_convolve(f: SampledSignal, g: SampledSignal, theta: ThetaParam) -> SampledSignal:
    """Angle-covariant convolution via chirp, multiply, inverse chirp."""
    if f.grid != g.grid:
        raise GridMismatch("theta_convolve requires a common grid")
    plan = _chirp_plan(f.grid, theta)
    y = plan.filter(plan.chirp(f.as_nd()), plan.kernel(g.as_nd()))
    return SampledSignal._owning(f.grid, plan.unchirp(y))


def _as_fraction(s: float | Rational) -> Fraction:
    if isinstance(s, Rational):
        frac = Fraction(s)
    else:
        value = float(s)
        frac = Fraction(value).limit_denominator(MAX_DENOMINATOR)
        if abs(float(frac) - value) > 1e-12 * max(1.0, abs(value)):
            raise IrrationalScale(
                f"dilation factor {value!r} is not a rational with "
                f"denominator <= {MAX_DENOMINATOR}"
            )
    if frac.denominator > MAX_DENOMINATOR:
        raise IrrationalScale(
            f"dilation denominator {frac.denominator} exceeds {MAX_DENOMINATOR}"
        )
    if frac <= 0:
        raise ValueError(f"dilation factor must be positive, got {s!r}")
    return frac


def _alias_tail_fraction(
    spectrum: NDArray[np.complex128], p: int, q: int, axes: tuple[int, ...]
) -> NDArray[np.float64]:
    """Spectral mass (relative) that a contraction by p/q > 1 would fold,
    one value per leading index; the trailing ``axes`` hold centered bins."""
    power = np.abs(spectrum)
    np.square(power, out=power)
    total = power.sum(axis=axes)
    half = spectrum.shape[-1] // 2
    # Bins with |l - N/2| >= (N/2) * q / p survive only as folded copies.
    cut = int(np.ceil(half * q / p))
    kept = power[(...,) + (slice(half - cut + 1, half + cut),) * len(axes)].sum(axis=axes)
    return np.divide(total - kept, total, out=np.zeros_like(total), where=total > 0.0)


def theta_dilate(f: SampledSignal, s: float | Rational, theta: ThetaParam) -> SampledSignal:
    """Angle-covariant dilation by a rational factor ``s = p/q > 0``.

    The inner classical contraction is carried out by exact trigonometric
    resampling: the chirped signal's spectrum is zero-padded by ``q`` and the
    refined samples are read with stride ``p``, so rational factors are
    resolved without interpolation error.  Factors above 1 narrow the usable
    band to ``Nyquist/s``; if the input holds measurable spectral mass beyond
    that edge an :class:`AliasRiskWarning` is emitted (the folded copies then
    corrupt the output).
    """
    frac = _as_fraction(s)
    if frac == 1:
        return f.with_values(f.values)
    plan = _chirp_plan(f.grid, theta)
    y = _dilate(plan.chirp(f.as_nd()), frac, plan)
    return SampledSignal._owning(f.grid, plan.unchirp(y))


def _dilate(
    y: NDArray[np.complex128], frac: Fraction, plan: _ChirpPlan
) -> NDArray[np.complex128]:
    """:func:`theta_dilate` by ``frac != 1`` on chirped samples whose
    trailing axes are the plan's input grid (leading axes are a batch): the
    classical contraction of ``y``.  The alias warning names the caller of
    the caller."""
    p, q = frac.numerator, frac.denominator
    n_dims, axes = plan.in_grid.n_dims, plan.axes
    # Centered bins, up to the sign table and spacing^n; y itself is kept.
    spectrum = np.fft.fftn(y, axes=axes, out=np.empty(y.shape, dtype=np.complex128))
    if frac > 1 and np.any(_alias_tail_fraction(spectrum, p, q, axes) > ALIAS_GUARD):
        warnings.warn(
            f"dilation by {frac} folds spectral mass beyond Nyquist/{frac}",
            AliasRiskWarning,
            stacklevel=3,
        )

    n = plan.in_grid.samples_per_dim
    fine_n = n * q
    if fine_n**n_dims > MAX_FINE_SIZE:
        raise GridTooLarge(
            f"dilation by {frac} needs a refined grid of {fine_n} per dim"
        )
    out = y
    if q > 1:
        # N/2 and the padding (q-1)N/2 are even, so the refined grid has the
        # same sign table and the spectrum is padded as it is.
        pad = (fine_n - n) // 2
        padded = np.zeros(y.shape[:-n_dims] + (fine_n,) * n_dims, dtype=np.complex128)
        padded[(...,) + (slice(pad, pad + n),) * n_dims] = spectrum
        del spectrum  # freed before the gather below allocates (peak memory)
        out = np.fft.ifftn(padded, axes=axes, out=padded)
        out *= q**n_dims  # the trigonometric interpolant on spacing/q

    # p mod fine_n reads the same samples and keeps the product in int64.
    idx = (fine_n // 2 + (p % fine_n) * (np.arange(n) - n // 2)) % fine_n
    out = out[(...,) + np.ix_(*(idx,) * n_dims)]
    # Output sample m reads a refined sample signed (-1)^(p*m); it needs (-1)^m.
    return out if p % 2 else _alternate(out, n_dims)
