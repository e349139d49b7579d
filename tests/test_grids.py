"""Grids, shift vectors and angles, and the one rule by which every record
takes in its arrays."""
import math

import numpy as np
import pytest

from frftkit import (
    AngleDegenerate,
    FiberField,
    FiberGrid,
    FrameBounds,
    GramianField,
    Grid,
    OffGridShift,
    SampledSignal,
    ShiftVector,
    SISModel,
    ThetaParam,
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
    ],
    ids=["csc-on-axis", "parity-off-axis", "grid-3d", "shift-nan", "shift-inf", "shift-arity"],
)
def test_grid_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
