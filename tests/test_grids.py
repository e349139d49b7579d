"""Grids, shift vectors and angles, the one rule by which every record
takes in its arrays, the one rule for integer parameters and the one for
real parameters, and the one rule for squared magnitudes."""
import math
import numbers
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frftkit import (
    AliasRiskWarning,
    AngleDegenerate,
    AtomBank,
    FeatureTree,
    FiberField,
    FiberGrid,
    FrameBounds,
    FrftkitError,
    GramianField,
    Grid,
    IrrationalScale,
    LayerConfig,
    Nonlinearity,
    OffGridShift,
    SampledSignal,
    ShiftVector,
    SISModel,
    ThetaParam,
    TileSet,
    analytic_sinc_fibers,
    approximation_error,
    as_theta,
    atom_decay_constant,
    check_admissibility,
    chirp_modulate,
    covariance_bound,
    covariance_deviation,
    energy_profile,
    extract_features,
    feature_distance,
    fiber_map,
    fit_sis,
    frame_bounds,
    frft,
    frft_direct_oracle,
    frft_output_grid,
    invariance_bound,
    invariance_deviation,
    inverse_frft,
    is_multitile,
    l2_norm,
    optimal_multitile,
    partial_projection,
    partition_multitile,
    synthesize_generator,
    theta_convolve,
    theta_dilate,
    theta_modulate,
    theta_translate,
    u_layer,
    u_path,
)
from frftkit.grids import _Owned, as_shift

GRID = Grid(1, 8, 2.0)
FGRID = FiberGrid(ThetaParam(math.pi / 3), 1, 2, 1)  # 2 cells x 3 offsets


def _model(name):
    """A builder of a rank-1 model on ``FGRID`` from its array ``name``, and
    a finite value for that array."""
    arrays = {
        "eigenvalues": np.array([[2.0, 1.0], [3.0, 0.5]]),
        "eigenvectors": np.stack([np.eye(2, dtype=np.complex128)] * 2),
        "generators": np.ones((1, 2, 3), dtype=np.complex128),
    }
    return lambda array: SISModel(FGRID, 1, **{**arrays, name: array}), arrays[name]


def _frame_bounds(array):
    """Frame bounds as :func:`frame_bounds` builds them: the bounds are read
    off the spectrum, so they are not finite either when it is not."""
    spectrum = array.array if isinstance(array, _Owned) else array
    return FrameBounds(float(spectrum.min()), float(spectrum.max()), array, GRID)


#: Per record: a builder from one array, a finite value for it, the field
#: that holds it and the record's message.
RECORDS = {
    "SampledSignal": (lambda a: SampledSignal(GRID, a), np.ones(8, dtype=np.complex128),
                      "values", "signal contains non-finite entries"),
    "FiberField": (lambda a: FiberField(FGRID, a), np.ones((2, 3), dtype=np.complex128),
                   "data", "fiber data must be finite"),
    "GramianField": (lambda a: GramianField(FGRID, a), np.ones((2, 2, 2), dtype=np.complex128),
                     "data", "gramian data must be finite"),
    **{f"SISModel.{name}": (*_model(name), name, f"model {name} must be finite")
       for name in ("eigenvalues", "eigenvectors", "generators")},
    "FrameBounds": (_frame_bounds, np.ones(8), "spectrum",
                    "frame spectrum contains non-finite entries"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("record", RECORDS)
def test_records_refuse_non_finite_arrays(record, bad):
    """A record refuses a non-finite entry with its message: a caller's
    array is a ValueError, the library's own array an OverflowError.  A
    finite array is copied from a caller, kept from the library, and held
    read-only either way."""
    build, good, name, message = RECORDS[record]
    array = good.copy()
    array.flat[1] = bad
    with pytest.raises(ValueError, match=message):
        build(array)
    with pytest.raises(OverflowError, match=message):
        build(_Owned(array))
    for wrap, kept in ((np.asarray, False), (_Owned, True)):
        source = good.copy()
        held = getattr(build(wrap(source)), name)
        assert np.array_equal(held.reshape(good.shape), good) and not held.flags.writeable
        assert np.shares_memory(held, source) == kept


FIBERS = analytic_sinc_fibers(2, FiberGrid(ThetaParam(math.pi / 3), 1, 4, 3))


def _layer(pooling_factor):
    """An admissible layer of one Gaussian atom, pooled by ``pooling_factor``."""
    grid = Grid(1, 64, 4.0)
    atom = SampledSignal(grid, np.exp(-np.pi * grid.axis**2) / 2)
    return LayerConfig(AtomBank((atom,), ThetaParam(math.pi / 3)), atom,
                       pooling_factor=pooling_factor)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ThetaParam(math.pi).csc_t, AngleDegenerate, "csc undefined at theta="),
        (lambda: ThetaParam(1.0).axis_parity, ValueError,
         "axis_parity is defined only on axis angles"),
        (lambda: Grid(3, 8, 1.0), ValueError, "n_dims must be 1 or 2, got 3"),
        (lambda: ShiftVector((0.5, math.nan)), ValueError, "shift components must be finite"),
        (lambda: ShiftVector((math.inf,)), ValueError, "shift components must be finite"),
        (lambda: ShiftVector((0.5,)).index_offsets(Grid(2, 8, 2.0)), OffGridShift,
         "shift has 1 components for a 2-dimensional grid"),
        (lambda: fit_sis(FIBERS, 1.5), TypeError, "^ell must be an integer, got 1.5$"),
        (lambda: fit_sis(FIBERS, True), TypeError, "^ell must be an integer, got True$"),
        (lambda: optimal_multitile(FIBERS, 1.5, 3), TypeError,
         "^ell must be an integer, got 1.5$"),
        (lambda: optimal_multitile(FIBERS, 1, 3.0), TypeError,
         "^bound must be an integer, got 3.0$"),
        (lambda: Grid(1, 64.0, 1.0), TypeError, "^samples_per_dim must be an integer, got 64.0$"),
        (lambda: Grid(1.0, 64, 4.0), TypeError, "^n_dims must be an integer, got 1.0$"),
        (lambda: Grid(True, 64, 4.0), TypeError, "^n_dims must be an integer, got True$"),
        (lambda: FiberGrid(ThetaParam(1.0), 1, 4, np.float64(2)), TypeError,
         r"^window must be an integer, got np.float64\(2.0\)$"),
        (lambda: TileSet(ThetaParam(1.0), 1, 1, 1.0, (((0,),),)), TypeError,
         "^bound must be an integer, got 1.0$"),
        (lambda: _layer(math.pi), IrrationalScale,
         "^dilation factor 3.141592653589793 is not a rational with denominator <= 256$"),
    ],
    ids=["csc-on-axis", "parity-off-axis", "grid-3d", "shift-nan", "shift-inf", "shift-arity",
         "ell-float", "ell-bool", "multitile-ell", "multitile-bound", "samples-float",
         "n_dims-float", "n_dims-bool", "window-numpy-float", "tile-bound",
         "pooling-irrational"],
)
def test_grid_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()



def test_numpy_integer_parameters_are_accepted():
    grid = Grid(np.int64(1), np.int32(64), 4.0)
    assert grid == Grid(1, 64, 4.0)
    assert type(grid.n_dims) is int and type(grid.samples_per_dim) is int
    model = fit_sis(FIBERS, np.int64(1))
    assert model.ell == 1 and np.array_equal(model.generators, fit_sis(FIBERS, 1).generators)
    assert optimal_multitile(FIBERS, np.int64(2), np.uint8(3)) == optimal_multitile(FIBERS, 2, 3)
    assert _layer(2.0).pooling_factor == 2.0


LAYER = _layer(2.0)
PI3 = LAYER.theta
SIGNAL = SampledSignal(LAYER.bank.grid, np.exp(-np.pi * (LAYER.bank.grid.axis - 0.5) ** 2))
MODEL = fit_sis(FIBERS, 1)
TREES = [extract_features(f, (LAYER,), 1, PI3) for f in (SIGNAL, LAYER.output_atom)]
TILE = TileSet(PI3, 1, 1, 1, (((0,),),))

#: Per integer parameter: its name in the refusal, the call on a value of it,
#: reduced to an array or a number, and integers that the call accepts.
INTEGER_PARAMETERS = {
    "m": ("m", lambda v: [f.data for f in analytic_sinc_fibers(v, FIBERS[0].grid)], (2, 1, 3)),
    "i": ("i", lambda v: synthesize_generator(MODEL, v, SIGNAL.grid).values, (0,)),
    "n_shifts": ("n_shifts", lambda v: partial_projection(SIGNAL, MODEL, v).values, (1, 0, 2)),
    "is_multitile": ("ell", lambda v: is_multitile(TILE, v), (1, 0, 2)),
    "partition_multitile": ("ell", lambda v: [p.cells for p in partition_multitile(TILE, v)],
                            (1,)),
    "depth": ("depth", lambda v: energy_profile(SIGNAL, (LAYER,), v, PI3), (1, 0)),
    "u_path": ("each entry of q", lambda v: u_path(SIGNAL, [v], (LAYER,), PI3).values, (0,)),
    "u_layer": ("lam", lambda v: u_layer(SIGNAL, v, LAYER, PI3).values, (0,)),
    "k": ("k", lambda v: feature_distance(*TREES, v), (1, 0)),
    "SISModel": ("ell", lambda v: approximation_error(
        SISModel(MODEL.grid, v, MODEL.eigenvalues, MODEL.eigenvectors, MODEL.generators)), (1,)),
    "chirp_modulate": ("sign", lambda v: chirp_modulate(SIGNAL, PI3, v).values, (1, -1)),
}


@pytest.mark.parametrize("kind", ["float", "bool", "int64"])
@pytest.mark.parametrize("parameter", INTEGER_PARAMETERS)
def test_integer_parameters_are_checked(parameter, kind):
    """A float or a bool raises a TypeError that names the parameter; a NumPy
    integer gives what the same ``int`` gives."""
    name, call, (good, *_) = INTEGER_PARAMETERS[parameter]
    if kind == "int64":
        assert np.array_equal(call(np.int64(good)), call(good))
        return
    value = float(good) if kind == "float" else bool(good)
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


_NOT_INTEGERS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.booleans(), st.none(), st.text(max_size=2),
    st.integers(-2, 2).map(complex),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), parameter=st.sampled_from(sorted(INTEGER_PARAMETERS)))
def test_hostile_integer_parameters_are_refused_by_name(data, parameter):
    """A value that is not an integer raises a TypeError that names the
    parameter, and an accepted integer, plain or NumPy, gives a finite
    result."""
    name, call, accepted = INTEGER_PARAMETERS[parameter]
    good = st.sampled_from(accepted)
    value = data.draw(st.one_of(_NOT_INTEGERS, good, good.map(np.int64)))
    if type(value) in (int, np.int64):
        assert np.isfinite(np.asarray(call(value))).all()
        return
    with pytest.raises(TypeError) as refused:
        call(value)
    assert str(refused.value).startswith(f"{name} must be an integer")


#: Per entry point that takes an angle: the call on a value of it, reduced to
#: an array or a number.  The cascades run at depth 0 or on ``LAYER``, which
#: refuses every angle but its own.
STEP = SIGNAL.grid.spacing
PHI = LAYER.output_atom
ANGLE_PARAMETERS = {
    "frft": lambda th: frft(SIGNAL, th).values,
    "inverse_frft": lambda th: inverse_frft(SIGNAL, th).values,
    "frft_direct_oracle": lambda th: frft_direct_oracle(SIGNAL, th).values,
    "frft_output_grid": lambda th: frft_output_grid(SIGNAL.grid, th).extent,
    "chirp_modulate": lambda th: chirp_modulate(SIGNAL, th, -1).values,
    "theta_translate": lambda th: theta_translate(SIGNAL, STEP, th).values,
    "theta_modulate": lambda th: theta_modulate(SIGNAL, STEP, th).values,
    "theta_convolve": lambda th: theta_convolve(SIGNAL, PHI, th).values,
    "theta_dilate": lambda th: theta_dilate(SIGNAL, 1.5, th).values,
    "AtomBank": lambda th: AtomBank((SIGNAL,), th).theta.theta,
    "FiberGrid": lambda th: FiberGrid(th, 1, 8, 3).theta.theta,
    "TileSet": lambda th: TileSet(th, 1, 1, 1, (((0,),),)).theta.theta,
    "FeatureTree": lambda th: FeatureTree(({(): SIGNAL},), th, True).theta.theta,
    "commutes_with_translation": lambda th: Nonlinearity("modulus").commutes_with_translation(th),
    "atom_decay_constant": lambda th: atom_decay_constant(PHI, th),
    "u_layer": lambda th: u_layer(SIGNAL, 0, LAYER, th).values,
    "u_path": lambda th: u_path(SIGNAL, (), (), th).values,
    "energy_profile": lambda th: energy_profile(SIGNAL, (LAYER,), 1, th),
    "extract_features": lambda th: extract_features(SIGNAL, (), 0, th, PHI).levels[0][()].values,
    "invariance_deviation": lambda th: invariance_deviation(SIGNAL, STEP, (), 0, th, PHI),
    "covariance_deviation": lambda th: covariance_deviation(SIGNAL, STEP, (), 0, th, PHI),
    "invariance_bound": lambda th: invariance_bound(STEP, th, (2.0,), 1.0, 1.0),
    "covariance_bound": lambda th: covariance_bound(STEP, th, (2.0,), 1.0, 1.0),
}

_NOT_ANGLES = st.one_of(
    st.booleans(), st.booleans().map(np.bool_), st.none(), st.text(max_size=2),
    st.integers(-2, 2).map(complex), st.just([1.0]),
)
_ANGLES = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(-8, 8), st.integers(-8, 8).map(np.int64),
    st.fractions(max_denominator=12), st.sampled_from([PI3.theta, -PI3.theta, math.pi]),
)


def _outcome(call, theta):
    """What ``call(theta)`` gives: its bytes, or the error it raises."""
    try:
        return np.asarray(call(theta)).tobytes()
    except (FrftkitError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore:dilation by")  # some angles alias the dilated SIGNAL
@settings(max_examples=80, deadline=None)
@given(data=st.data(), entry=st.sampled_from(sorted(ANGLE_PARAMETERS)))
def test_hostile_angles_are_refused_by_name(data, entry):
    """At every entry point that takes an angle, a value that is not a real
    number raises a TypeError that names ``theta``, and one that is not
    finite a ValueError; a finite real gives what its :class:`ThetaParam`
    gives, which :func:`as_theta` passes through."""
    call = ANGLE_PARAMETERS[entry]
    value = data.draw(st.one_of(_NOT_ANGLES, _ANGLES))
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        with pytest.raises(TypeError, match="^theta must be a ThetaParam or a real number, got "):
            call(value)
        return
    if not math.isfinite(value):
        with pytest.raises(ValueError, match="^theta must be finite, got "):
            call(value)
        return
    try:
        theta = ThetaParam(value)
    except AngleDegenerate:
        with pytest.raises(AngleDegenerate):
            call(value)
        return
    assert as_theta(theta) is theta
    assert _outcome(call, value) == _outcome(call, theta)


@pytest.mark.parametrize("value", ["0.5", b"0.5", True, np.bool_(True)],
                         ids=["str", "bytes", "bool", "np.bool_"])
def test_strings_and_bools_are_neither_angles_nor_shifts(value):
    """A string or a bool is refused as an angle by :class:`ThetaParam`
    itself, with the TypeError of :func:`as_theta`, and as a shift or a
    shift component by :func:`as_shift`, with a TypeError that names the
    shift."""
    angle = f"^theta must be a ThetaParam or a real number, got {re.escape(repr(value))}$"
    for build in (ThetaParam, as_theta):
        with pytest.raises(TypeError, match=angle):
            build(value)
    component = f"^shift components must be real numbers, got {re.escape(repr(value))}$"
    for shift, n_dims in ((value, 1), ([value], 1), ((0.5, value), 2)):
        with pytest.raises(TypeError, match=component):
            as_shift(shift, n_dims)


#: Per entry point that takes a shift: the call on a value of it, reduced to
#: an array or a number.  The deviations run at depth 0 on ``SIGNAL``'s 1-D
#: grid, and a bound reads a bare number as a 1-D shift.
SHIFT_PARAMETERS = {
    "theta_translate": lambda t: theta_translate(SIGNAL, t, PI3).values,
    "theta_modulate": lambda t: theta_modulate(SIGNAL, t, PI3).values,
    "invariance_deviation": lambda t: invariance_deviation(SIGNAL, t, (), 0, PI3, PHI),
    "covariance_deviation": lambda t: covariance_deviation(SIGNAL, t, (), 0, PI3, PHI),
    "invariance_bound": lambda t: invariance_bound(t, PI3, (2.0,), 1.0, 1.0),
    "covariance_bound": lambda t: covariance_bound(t, PI3, (2.0,), 1.0, 1.0),
}

_NOT_REALS = st.one_of(
    st.booleans(), st.booleans().map(np.bool_), st.none(), st.text(max_size=2),
    st.binary(max_size=2), st.integers(-2, 2).map(complex),
)
_REALS = st.one_of(
    st.integers(-3, 3).map(lambda k: k * STEP), st.floats(-1e6, 1e6),
    st.sampled_from([math.inf, -math.inf, math.nan]), st.integers(-8, 8),
    st.integers(-8, 8).map(np.int64), st.fractions(max_denominator=12),
)


@pytest.mark.filterwarnings("ignore:dilation by")
@settings(max_examples=80, deadline=None)
@given(data=st.data(), entry=st.sampled_from(sorted(SHIFT_PARAMETERS)))
def test_hostile_shifts_are_refused_by_name(data, entry):
    """At every entry point that takes a shift, a shift or a component that
    is not a real number (a bool, a string or bytes among them) raises a
    TypeError that names the shift; a real one, bare or in a one-entry list,
    gives what its :class:`ShiftVector` gives."""
    call = SHIFT_PARAMETERS[entry]
    one = st.one_of(_NOT_REALS, _REALS)
    value = data.draw(st.one_of(one, st.lists(one, min_size=1, max_size=1)))
    components = value if isinstance(value, list) else [value]
    if any(isinstance(c, (bool, np.bool_)) or not isinstance(c, numbers.Real) for c in components):
        with pytest.raises(TypeError, match="^shift components must be real numbers, got "):
            call(value)
        return
    try:
        shift = ShiftVector(tuple(components))
    except ValueError:  # not finite
        with pytest.raises(ValueError, match="^shift components must be finite$"):
            call(value)
        return
    assert _outcome(call, value) == _outcome(call, shift)


#: Per real parameter: its name in the refusal, the call on a value of it,
#: reduced to an array or a number, and reals that the call accepts.
REAL_PARAMETERS = {
    "pooling_factor": ("pooling_factor", lambda v: float(_layer(v).dilation or 1), (2.0, 1, 1.5)),
    "b": ("b", lambda v: Nonlinearity("phase_covariant_shrink", v).apply(SIGNAL.values), (0.5, 0)),
    "s_factors": ("each entry of s_factors",
                  lambda v: invariance_bound(STEP, PI3, (v,), 1.0, 1.0), (2.0, 1, 1.5)),
    "K": ("K", lambda v: invariance_bound(STEP, PI3, (2.0,), v, 1.0), (1.0, 2, 0.5)),
    "norm_f": ("norm_f", lambda v: covariance_bound(STEP, PI3, (2.0,), 1.0, v), (1.0, 2, 0.5)),
    "extent": ("extent", lambda v: Grid(1, 8, v).extent, (1.0, 2, 0.5)),
    # Factors below 1 contract, so no alias check warns.
    "theta_dilate": ("s", lambda v: theta_dilate(SIGNAL, v, PI3).values, (0.5, 1, 0.25)),
    "lower": ("lower", lambda v: FrameBounds(v, 2.0, np.ones(8), GRID).lower, (0.5, 0, 1.5)),
    "upper": ("upper", lambda v: FrameBounds(0.5, v, np.ones(8), GRID).upper, (2.0, 1, 1.5)),
    "bound": ("each bound", lambda v: check_admissibility([(v, 1.0, 1.0)]), (0.5, 1, 2.0)),
    "L": ("each L", lambda v: check_admissibility([(0.5, v, 1.0)]), (1.0, 2, 0.5)),
    "R": ("each R", lambda v: check_admissibility([(0.5, 1.0, v)]), (1.0, 2, 0.5)),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), parameter=st.sampled_from(sorted(REAL_PARAMETERS)))
def test_hostile_real_parameters_are_refused_by_name(data, parameter):
    """A value that is not a real number (a bool, a string or bytes among
    them) raises a TypeError that names the parameter, and an accepted real,
    plain, NumPy or a fraction, gives what its float gives."""
    name, call, accepted = REAL_PARAMETERS[parameter]
    good = st.sampled_from(accepted)
    value = data.draw(st.one_of(_NOT_REALS, good, good.map(np.float64), good.map(Fraction)))
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        with pytest.raises(TypeError, match=f"^{name} must be a real number, got "):
            call(value)
        return
    want = np.asarray(call(float(value)))
    assert np.isfinite(want).all()
    assert np.array_equal(np.asarray(call(value)), want)


#: Reals past the range of a float, each with the infinity it reads as.
PAST_FLOAT_RANGE = [(10**400, math.inf), (-10**400, -math.inf), (Fraction(10**400, 3), math.inf)]

#: Per site that reads a real as a float: the call on a value of it.  A
#: dilation factor is left out: a rational one is read exactly (below).
FLOAT_SITES = {
    **{name: call for name, (_, call, _) in REAL_PARAMETERS.items()
       if name not in ("pooling_factor", "theta_dilate")},
    "ThetaParam": lambda v: ThetaParam(v).theta,
    "ShiftVector": lambda v: ShiftVector((v,)).components,
    "bound_theta": lambda v: invariance_bound(STEP, v, (2.0,), 1.0, 1.0),
    "bound_shift": lambda v: covariance_bound(v, PI3, (2.0,), 1.0, 1.0),
}


def _answer(call, value):
    """What ``call(value)`` gives: its bytes, or the error it raises."""
    try:
        return np.asarray(call(value)).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("value, inf", PAST_FLOAT_RANGE, ids=["int", "negative-int", "fraction"])
@pytest.mark.parametrize("site", sorted(FLOAT_SITES))
def test_a_real_past_float_range_is_the_infinity_of_its_sign(site, value, inf):
    """An int or a fraction too large for a float gives what the infinity of
    its sign gives, error and message alike, and no bare OverflowError."""
    assert _answer(FLOAT_SITES[site], value) == _answer(FLOAT_SITES[site], inf)


def test_a_pooling_factor_past_float_range_stays_exact():
    """Like ``theta_dilate``, a layer keeps a rational pooling factor that no
    float holds, and refuses one below 1 as it refuses -inf."""
    assert _layer(10**400 + 1).dilation == 10**400 + 1
    for value in (-10**400, Fraction(-10**400, 3)):
        with pytest.raises(ValueError, match="^pooling factor must be at least 1$"):
            _layer(value)


def test_a_rational_dilation_factor_is_never_rounded_to_a_float():
    """``theta_dilate`` reads an integer or a fraction exactly, so a factor
    past the range of a float still runs: 10**400 + 1 is 1 modulo N = 64,
    so it gathers the samples that a factor of 65 gathers."""
    with pytest.warns(AliasRiskWarning):
        huge = theta_dilate(SIGNAL, 10**400 + 1, PI3).values
        fraction = theta_dilate(SIGNAL, Fraction(10**400 + 1), PI3).values
        small = theta_dilate(SIGNAL, 65, PI3).values
    assert np.array_equal(huge, small) and np.array_equal(fraction, small)


def test_squared_magnitudes_never_take_a_vector_abs(monkeypatch):
    """Norms, frame spectra, tile energies, fiber energies and the alias check
    of an identity-pooled layer read re² + im² off the float64 view: none runs
    ``np.abs`` on complex samples, whose vector loop rounds differently on
    some hosts."""
    bank, fgrid = LAYER.bank, FiberGrid(PI3, 1, 8, 3)
    vector_abs = np.abs

    def guard(x, *args, **kwargs):
        assert not np.iscomplexobj(x), "np.abs of complex samples"
        return vector_abs(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", guard)
    monkeypatch.setattr(np, "absolute", guard)
    l2_norm(SIGNAL)
    frame_bounds(bank)
    optimal_multitile(FIBERS, 2, 1)
    fiber_map(SIGNAL, fgrid)
    energy_profile(SIGNAL, (LAYER,), 1, PI3)
