"""Grids, shift vectors and angles, the one rule by which every record
takes in its arrays, the one rule for integer parameters, and the one rule
for squared magnitudes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frftkit import (
    AngleDegenerate,
    AtomBank,
    FiberField,
    FiberGrid,
    FrameBounds,
    GramianField,
    Grid,
    IrrationalScale,
    LayerConfig,
    OffGridShift,
    SampledSignal,
    ShiftVector,
    SISModel,
    ThetaParam,
    TileSet,
    analytic_sinc_fibers,
    energy_profile,
    extract_features,
    feature_distance,
    fiber_map,
    fit_sis,
    frame_bounds,
    is_multitile,
    l2_norm,
    optimal_multitile,
    partial_projection,
    partition_multitile,
    synthesize_generator,
    u_layer,
    u_path,
)
from frftkit.grids import _Owned

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
