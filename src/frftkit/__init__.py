"""frftkit: chirp-angle transform algebra, cascaded feature extraction,
and optimal shift-invariant approximation on periodic sample grids.

The package republishes the public names of its library modules: each
module's ``__all__`` is the one list of what it exports."""

from . import approx, eig, errors, frames, grids, multitile, scatter, theta_ops, transform
from .errors import *
from .grids import *
from .transform import *
from .theta_ops import *
from .frames import *
from .eig import *
from .scatter import *
from .approx import *
from .multitile import *

__version__ = "0.1.0"

_MODULES = (errors, grids, transform, theta_ops, frames, eig, scatter, approx, multitile)

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
