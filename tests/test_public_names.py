"""The top-level package republishes every library module's public names."""
import frftkit
from frftkit import approx, eig, errors, frames, grids, multitile, scatter, theta_ops, transform


def test_top_level_all_is_the_modules_all():
    modules = (errors, grids, transform, theta_ops, frames, eig, scatter, approx, multitile)
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert frftkit.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(frftkit, name) is getattr(module, name)
