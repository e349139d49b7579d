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
a dilation by ``p/q`` contracts ``y``, reading its trigonometric interpolant
on spacing/q one axis and one residue class mod ``q`` at a time (polyphase),
with no refined grid.  An integer dilation only gathers samples, and its
result repeats with a period that divides ``N``; the cascade of
:mod:`frftkit.scatter` keeps just that period, and after an even factor
reads its spectrum off the filter's by folding aliased blocks.  The
operators work on ndarrays; the public functions build one
:class:`SampledSignal`, for the value they return.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import AliasRiskWarning, GridMismatch, IrrationalScale
from .grids import (SampledSignal, ShiftVector, ThetaParam, _as_real, _sum_squares, as_shift,
                    as_theta)
from .transform import _alternate, _chirp_plan, _ChirpPlan

__all__ = ["theta_translate", "theta_modulate", "theta_convolve", "theta_dilate"]

#: Largest denominator accepted for a dilation factor.
MAX_DENOMINATOR = 256
#: Relative spectral mass beyond the folding edge that triggers a warning.
ALIAS_GUARD = 1e-12
#: Modules whose frames lie between a dilating public function and the alias
#: check.
_DILATING_MODULES = (__name__, f"{__package__}.scatter")


def _translate(
    y: NDArray[np.complex128], shift: ShiftVector, plan: _ChirpPlan, spectral: bool = False
) -> NDArray[np.complex128]:
    """:func:`theta_translate` on chirped samples of the plan's input grid,
    or, when ``spectral``, on the stack whose ``fftn`` over ``P`` bins per
    axis is ``y`` (``P`` divides ``N``): by the DFT shift theorem, ``y``
    times the same factor and the ramp ``e^{-2 pi i k o / P}`` per axis."""
    offsets = shift.index_offsets(plan.in_grid)
    phase = np.exp(1j * np.pi * plan.theta.cot_t * sum(c * c for c in shift.components))
    # Rolling the sign table by the offsets o multiplies it by (-1)^(o_1+..+o_n).
    factor = -phase if sum(offsets) % 2 else phase
    if not spectral:
        rolled = np.roll(y, offsets, axis=plan.axes)
        rolled *= factor
        return rolled
    n, period = plan.in_grid.samples_per_dim, y.shape[-1]
    k = np.arange(period) * (n // period)
    ramps = [_roots_of_unity(n)[k * (o % n) % n] for o in offsets]
    ramps[0] *= factor
    return y * functools.reduce(np.multiply.outer, ramps)


@functools.lru_cache(maxsize=4)
def _roots_of_unity(n: int) -> NDArray[np.complex128]:
    """``e^{-2 pi i j / n}`` for ``j = 0 .. n - 1``, read-only."""
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    roots.setflags(write=False)
    return roots


def theta_translate(
    f: SampledSignal,
    s: ShiftVector | Sequence[float] | float,
    theta: ThetaParam | float,
) -> SampledSignal:
    """Angle-covariant translation by the on-grid shift ``s``."""
    theta = as_theta(theta)
    shift = as_shift(s, f.grid.n_dims)
    plan = _chirp_plan(f.grid, theta)
    y = _translate(plan.chirp(f.as_nd()), shift, plan)
    return SampledSignal._owning(f.grid, plan.unchirp(y))


def theta_modulate(
    f: SampledSignal,
    s: ShiftVector | Sequence[float] | float,
    theta: ThetaParam | float,
) -> SampledSignal:
    """Angle-covariant modulation: a pure phase, no sample movement."""
    theta = as_theta(theta)
    shift = as_shift(s, f.grid.n_dims)
    s_sq = sum(c * c for c in shift.components)
    coords = f.grid.coordinates()
    s_dot_t = sum(c * axis for c, axis in zip(shift.components, coords))
    phase = np.exp(1j * np.pi * (s_sq * theta.cot_t + 2.0 * theta.csc_t * s_dot_t))
    return SampledSignal._owning(f.grid, f.values * phase)


def theta_convolve(
    f: SampledSignal, g: SampledSignal, theta: ThetaParam | float
) -> SampledSignal:
    """Angle-covariant convolution via chirp, multiply, inverse chirp."""
    theta = as_theta(theta)
    if f.grid != g.grid:
        raise GridMismatch("theta_convolve requires a common grid")
    plan = _chirp_plan(f.grid, theta)
    y = plan.filter(plan.chirp(f.as_nd()), plan.kernel(g.as_nd()))
    return SampledSignal._owning(f.grid, plan.unchirp(y))


def _as_fraction(s: float | Rational) -> Fraction:
    if isinstance(s, Rational) and not isinstance(s, bool):
        frac = Fraction(s)
    else:
        value = _as_real(s, "s")
        if not math.isfinite(value):
            raise IrrationalScale(f"dilation factor {value!r} is not finite")
        frac = Fraction(value).limit_denominator(MAX_DENOMINATOR)
        if abs(float(frac) - value) > 1e-12 * max(1.0, abs(value)):
            raise IrrationalScale(
                f"dilation factor {value!r} is not a rational with "
                f"denominator <= {MAX_DENOMINATOR}"
            )
    if frac.denominator > MAX_DENOMINATOR:
        raise IrrationalScale(
            f"dilation denominator {_shown(frac.denominator)} exceeds {MAX_DENOMINATOR}"
        )
    if frac <= 0:
        got = s if not isinstance(s, Rational) else _shown(frac.numerator) + (
            f"/{frac.denominator}" if frac.denominator > 1 else "")
        raise ValueError(f"dilation factor must be positive, got {got}")
    return frac


def _shown(n: int) -> str:
    """``n`` in decimal for a message, but past 50 digits its sign and its
    number of digits: ``str`` refuses an integer past 4300 digits."""
    if abs(n) < 10**50:
        return str(n)
    digits = int(math.log10(abs(n)))  # one less than the count, or one off by rounding
    digits += 1 + (abs(n) >= 10 ** (digits + 1)) - (abs(n) < 10**digits)
    return f"{'-' if n < 0 else ''}<{digits} digits>"


def _alias_tail_fraction(
    spectrum: NDArray[np.complex128], p: int, q: int, axes: tuple[int, ...]
) -> NDArray[np.float64]:
    """Spectral mass (relative) that a contraction by p/q > 1 would fold,
    one value per leading index; the trailing ``axes`` hold centered bins."""
    total = _sum_squares(spectrum, len(axes))
    half = spectrum.shape[-1] // 2
    # Bins with |l - N/2| >= (N/2) * q / p survive only as folded copies.
    cut = int(np.ceil(half * q / p))
    band = (...,) + (slice(half - cut + 1, half + cut),) * len(axes)
    kept = _sum_squares(spectrum[band], len(axes))
    return np.divide(total - kept, total, out=np.zeros_like(total), where=total > 0.0)


def _warn_at_caller(message: str) -> None:
    """Issue an :class:`AliasRiskWarning` at the first frame outside the
    dilating modules: the line that called :func:`theta_dilate` or a
    cascade function, however deep the cascade's own frames go (what
    ``skip_file_prefixes`` does from Python 3.12 on)."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") in _DILATING_MODULES:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, AliasRiskWarning, stacklevel=level)


def _check_alias(spectrum: NDArray[np.complex128], frac: Fraction, axes: tuple[int, ...],
                 warn: Callable[[str], None] = _warn_at_caller) -> None:
    """Pass ``warn`` the warning's message (by default, warn at the caller)
    when a contraction by ``frac > 1`` would fold measurable mass of
    ``spectrum``: the plan's :meth:`~frftkit.transform._ChirpPlan.spectrum`
    of the chirped samples to be dilated, over ``axes``."""
    p, q = frac.numerator, frac.denominator
    if np.any(_alias_tail_fraction(spectrum, p, q, axes) > ALIAS_GUARD):
        warn(f"dilation by {frac} folds spectral mass beyond {1 / frac} of Nyquist")


def theta_dilate(
    f: SampledSignal, s: float | Rational, theta: ThetaParam | float
) -> SampledSignal:
    """Angle-covariant dilation by a rational factor ``s = p/q > 0``.

    The inner classical contraction is carried out by exact trigonometric
    resampling of the chirped signal, polyphase on the ``N``-point grid with
    no padded array (see :func:`_dilate_period`): the interpolant on
    spacing/q is read with stride ``p``, so rational factors are resolved
    without interpolation error.  That costs about ``q`` transforms of ``N``
    points per axis, whatever the grid size.  Factors above 1 narrow the
    usable band to ``1/s`` of Nyquist; if the input holds measurable spectral
    mass beyond that edge an :class:`AliasRiskWarning` is emitted (the folded
    copies then corrupt the output).
    """
    theta = as_theta(theta)
    frac = _as_fraction(s)
    if frac == 1:
        return f.with_values(f.values)
    plan = _chirp_plan(f.grid, theta)
    y = _tile(_dilate_period(plan.chirp(f.as_nd()), frac, plan), plan)
    return SampledSignal._owning(f.grid, plan.unchirp(y))


def _dilate_period(y: NDArray[np.complex128], frac: Fraction, plan: _ChirpPlan,
                   warn: Callable[[str], None] | None = _warn_at_caller) -> NDArray[np.complex128]:
    """:func:`theta_dilate` by ``frac != 1`` on chirped samples (leading
    axes are a batch), which are kept: the classical contraction of a stack
    that holds one period of them, ``P`` samples per axis (``P`` divides
    ``N``), returned as one period of the result; :func:`_tile` gives all
    ``N`` samples per axis.  For ``frac > 1`` the alias check (see
    :func:`_check_alias`) passes ``warn`` its message from the spectrum of
    ``y``, unless ``warn`` is None because the caller ran it already; an
    integer factor then transforms nothing, as it only gathers samples.

    An integer factor ``p`` reads output sample ``m`` from sample
    ``N/2 + p (m - N/2) mod P``, so the result repeats after
    ``P / gcd(p, P)`` samples; an even ``p`` then signs it ``(-1)^m``, so
    one period is ``max(P / gcd(p, P), 2)`` samples (``P`` is a power of
    two).

    A fraction ``p/q`` needs all ``N`` samples.  Output sample ``m`` reads
    sample ``q j_m + c_m`` of the interpolant on spacing/q, whose spectrum is
    that of ``y`` padded by ``(q-1)N/2`` zero bins a side (N/2 and the
    padding are even: the sign table carries over).  Per axis that sample is
    ``(-1)^((q-1) j_m)`` times sample ``j_m`` of
    ``ifft(fft(y) * e^{2 pi i (k + (q-1)N/2) c_m / (qN)})``: one ``N``-point
    inverse per residue ``c_m``, none for 0, which reads ``y`` itself."""
    p, q = frac.numerator, frac.denominator
    n, axes = plan.in_grid.samples_per_dim, plan.axes
    if frac > 1 and warn is not None:
        # Centered bins, up to the sign table and spacing^n.
        _check_alias(plan.spectrum(y), frac, axes, warn)
    if q == 1:
        period = y.shape[-1]
        m = np.arange(max(period // math.gcd(p, period), 2))
        # p mod P reads the same samples and keeps the product in int64.
        j = (n // 2 + (p % period) * (m - n // 2)) % period
        out = y[(...,) + np.ix_(*(j,) * len(axes))]
    else:
        out = _tile(y, plan)
        # p mod qN reads the same samples and keeps the product in int64.
        j, c = np.divmod((q * n // 2 + (p % (q * n)) * (np.arange(n) - n // 2)) % (q * n), q)
        for axis in axes:
            tail = (slice(None),) * (-axis - 1)
            bins = (np.arange(n) + (q - 1) * n // 2)[(slice(None),) + (None,) * len(tail)]
            x, spectrum, out = out, np.fft.fft(out, axis=axis), np.empty_like(out)
            for residue in np.unique(c):
                rows, source = c == residue, x
                if residue:
                    source = spectrum * np.exp(2j * np.pi * (bins * residue % (q * n)) / (q * n))
                    np.fft.ifft(source, axis=axis, out=source)
                out[(..., rows) + tail] = source[(..., j[rows]) + tail]
            if q % 2 == 0:
                out[(..., j % 2 == 1) + tail] *= -1
            del spectrum, source  # before the next axis allocates (peak memory)
    # Output sample m reads a refined sample signed (-1)^(p*m); it needs (-1)^m.
    return out if p % 2 else _alternate(out, len(axes))


def _dilate_spectrum(
    spectrum: NDArray[np.complex128], p: int, plan: _ChirpPlan
) -> NDArray[np.complex128]:
    """``fftn`` of one period of :func:`_dilate_period` by the even integer
    ``p`` of the chirped samples whose ``P``-point spectrum is ``spectrum``
    (leading axes are a batch), read off ``spectrum`` with no transform.
    ``P`` must not divide ``p``.

    With ``g = gcd(p, P)`` the result has ``P' = P / g`` bins per axis.
    Output sample ``m`` is ``(-1)^m`` times sample ``N/2 + p (m - N/2)`` of
    the period, so along an axis the decimation folds the ``g`` aliased
    blocks of ``spectrum`` onto bin ``l < P'`` and moves it to
    ``(l (p/g) + P'/2) mod P'`` (``p/g`` is odd, so that is a permutation),
    weighted by ``(P'/P) e^{i pi l N (1 - p) / P}``.  ``N / P`` is an
    integer, so the weight is ``(P'/P) (-1)^(l N / P)``, and it is the same
    for all ``g`` blocks (``N / g`` is even).  In ``n`` dimensions the
    weights multiply."""
    n_dims, period = len(plan.axes), spectrum.shape[-1]
    g, source, weight = _fold_tables(p, period, plan.in_grid.samples_per_dim, n_dims)
    lead, short = spectrum.shape[:-n_dims], period // g
    folded = spectrum.reshape(lead + (g, short) * n_dims).sum(axis=tuple(range(-2 * n_dims, 0, 2)))
    out = np.take(folded.reshape(lead + (-1,)), source, axis=-1)
    out *= weight
    return out.reshape(lead + (short,) * n_dims)


@functools.lru_cache(maxsize=8)
def _fold_tables(
    p: int, period: int, n: int, n_dims: int
) -> tuple[int, NDArray[np.intp], NDArray[np.float64]]:
    """``g`` and, over the flattened ``P'^n`` bins of
    :func:`_dilate_spectrum`'s result, the flat folded bin each one reads and
    its weight."""
    g = math.gcd(p, period)
    short = period // g
    # Bin k reads folded bin l(k), the solution of l (p/g) + P'/2 = k mod P'.
    source = (np.arange(short) - short // 2) * pow(p // g, -1, short) % short
    weight = (1 - 2 * (source * (n // period) % 2)) / g
    flat = functools.reduce(lambda a, b: (a[:, None] * short + b).ravel(), (source,) * n_dims)
    table = functools.reduce(np.multiply.outer, (weight,) * n_dims).ravel()
    flat.setflags(write=False)
    table.setflags(write=False)
    return g, flat, table


def _tile(y: NDArray[np.complex128], plan: _ChirpPlan) -> NDArray[np.complex128]:
    """All ``N`` samples per axis of a stack that holds one period of them:
    ``y`` itself when the period is the whole grid, else a new array."""
    reps = plan.in_grid.samples_per_dim // y.shape[-1]
    if reps == 1:
        return y
    return np.tile(y, (1,) * (y.ndim - len(plan.axes)) + (reps,) * len(plan.axes))

