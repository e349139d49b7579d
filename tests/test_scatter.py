"""Convolutional feature cascade: decay constants, energy accounting,
translation deviations against their closed-form bounds."""
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frftkit
from frftkit import scatter
from frftkit import (
    AliasRiskWarning,
    AngleDegenerate,
    AtomBank,
    FeatureTree,
    Grid,
    GridMismatch,
    InadmissibleBankWarning,
    KeyMismatch,
    LayerConfig,
    NoDecay,
    NonCommutingOps,
    Nonlinearity,
    PathArityMismatch,
    Pooling,
    SampledSignal,
    ThetaParam,
    atom_decay_constant,
    covariance_bound,
    covariance_deviation,
    energy_profile,
    extract_features,
    feature_distance,
    frame_bounds,
    frft_output_grid,
    invariance_bound,
    invariance_deviation,
    inverse_frft,
    l2_norm,
    theta_convolve,
    theta_dilate,
    theta_translate,
    u_layer,
    u_path,
)
from frftkit.scatter import _deviations, _levels, _readout_kernel
from frftkit.theta_ops import ALIAS_GUARD, _alias_tail_fraction
from frftkit.transform import _chirp_plan
from helpers import (
    banded_signal,
    cascade_levels_reference,
    cascade_step_reference,
    deviations_reference,
    energy_profile_reference,
    feature_drift_reference,
    features_reference,
    fft_rows,
    frame_spectrum_reference,
    gauss_profile,
    make_s1_layers,
    nonlin_plan,
    random_signal,
    tight_bank,
    u_path_reference,
)

GOLDEN_PEAK = 1.0 / math.sqrt(2.0 * math.pi * math.e)


def test_decay_constant_golden_1d():
    """max |w| e^{-pi w^2} = (2 pi e)^{-1/2}, angle-independent."""
    grid = Grid(1, 512, 16.0)
    for theta_val in (math.pi / 3, math.pi / 5):
        th = ThetaParam(theta_val)
        og = frft_output_grid(grid, th)
        phi = inverse_frft(gauss_profile(og, 0.0, 1.0), th)
        k1, k2, k = atom_decay_constant(phi, th)
        assert abs(k1 - GOLDEN_PEAK) < 1e-3
        assert abs(k2 - 1.0) < 1e-9
        assert k == max(k1, k2)


def test_decay_constant_golden_2d():
    grid = Grid(2, 128, 16.0)
    th = ThetaParam(math.pi / 3)
    og = frft_output_grid(grid, th)
    width = 0.5
    prof = np.exp(-np.pi * og.radius_squared() / width**2).astype(np.complex128)
    phi = inverse_frft(SampledSignal(og, prof), th)
    k1, k2, _ = atom_decay_constant(phi, th)
    assert abs(k1 - width * GOLDEN_PEAK) < 1e-3
    assert abs(k2 - 1.0) < 1e-9


def test_decay_requires_vanishing_boundary():
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 3)
    og = frft_output_grid(grid, th)
    flat = inverse_frft(SampledSignal(og, np.ones(og.size, dtype=np.complex128)), th)
    with pytest.raises(NoDecay):
        atom_decay_constant(flat, th)


def test_nonlinearity_and_pooling_validation():
    with pytest.raises(ValueError):
        Nonlinearity("clip")
    with pytest.raises(ValueError):
        Nonlinearity("phase_covariant_shrink", -0.1)
    with pytest.raises(ValueError):
        Pooling("median")
    assert Nonlinearity("identity").lipschitz == 1.0
    assert Pooling("modulus").lipschitz == 1.0


def test_phase_commutation_rules():
    oblique = ThetaParam(math.pi / 3)
    quarter = ThetaParam(math.pi / 2)
    assert Nonlinearity("identity").commutes_with_translation(oblique)
    assert Nonlinearity("phase_covariant_shrink", 0.1).commutes_with_translation(oblique)
    assert not Nonlinearity("modulus").commutes_with_translation(oblique)
    assert Nonlinearity("modulus").commutes_with_translation(quarter)
    assert not Pooling("modulus").commutes_with_translation(oblique)
    assert Pooling("modulus").commutes_with_translation(quarter)


def test_modulus_commutation_is_undefined_on_an_axis_angle():
    """At a multiple of pi there is no chirp: a modulus raises
    AngleDegenerate, as every chirp-based routine does, while the maps that
    keep the phase still commute."""
    for theta in (ThetaParam(0.0), ThetaParam(math.pi)):
        assert Nonlinearity("identity").commutes_with_translation(theta)
        assert Nonlinearity("phase_covariant_shrink", 0.1).commutes_with_translation(theta)
        assert Pooling("identity").commutes_with_translation(theta)
        for op in (Nonlinearity("modulus"), Pooling("modulus")):
            with pytest.raises(AngleDegenerate):
                op.commutes_with_translation(theta)


def test_shrink_apply():
    nl = Nonlinearity("phase_covariant_shrink", 1.0)
    vals = np.array([3.0, 0.5j, 0.0, -2.0], dtype=np.complex128)
    out = nl.apply(vals)
    assert np.allclose(out, [2.0, 0.0, 0.0, -1.0])
    # Bit for bit, signs of zero included, the gain np.maximum(|z| - b, 0) / |z|.
    rng = np.random.default_rng(104)
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    z[:4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
    mag = np.abs(z)
    gain = np.maximum(mag - 1.0, 0.0)
    np.divide(gain, mag, out=gain, where=mag > 0.0)
    got, want = nl.apply(z).view(np.float64), (z * gain).view(np.float64)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    mod = Nonlinearity("modulus").apply(vals)
    assert np.allclose(mod, [3.0, 0.5, 0.0, 2.0])


def test_layer_config_validation_and_cache():
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 3)
    layers, phi = make_s1_layers(grid, th, (2.0,), ["identity"])
    layer = layers[0]
    assert layer.frame_bound <= 1.0
    assert layer.decay_constants[2] == max(layer.decay_constants[:2])
    assert layer.theta is th
    with pytest.raises(ValueError):
        LayerConfig(bank=layer.bank, output_atom=phi, pooling_factor=0.5)
    other_grid_atom = SampledSignal(
        Grid(1, 64, 8.0), np.ones(64, dtype=np.complex128)
    )
    with pytest.raises(ValueError):
        LayerConfig(bank=layer.bank, output_atom=other_grid_atom)


# (grid, bank atoms m, θ): 1-D and 2-D, both signs of sin θ, m = 1, 2, 3, 4, 9.
_LAYER_MATRIX = [
    (Grid(1, 256, 8.0), 1, math.pi / 3),
    (Grid(1, 256, 8.0), 4, -2 * math.pi / 5),
    (Grid(2, 64, 8.0), 2, math.pi / 3),
    (Grid(2, 32, 8.0), 9, -1.2),
    (Grid(1, 2**16, 64.0), 3, math.pi / 3),
]
_LAYER_IDS = ["1d-256-m1", "1d-256-m4", "2d-64-m2", "2d-32-m9", "1d-2^16-m3"]


def _layer_atoms(grid, m, th):
    """A tight bank of ``m`` atoms and a Gaussian-spectrum output atom."""
    bank = tight_bank(grid, th, m, seed=m)
    og = frft_output_grid(grid, th)
    return bank, inverse_frft(gauss_profile(og, 0.0, 0.2 * og.extent), th)


@pytest.mark.parametrize("grid, m, theta_val", _LAYER_MATRIX, ids=_LAYER_IDS)
def test_layer_constants_match_the_per_atom_route(grid, m, theta_val):
    """The constants read off one batched forward are bit-identical to one
    ``frft`` per atom and a second transform of the output atom."""
    th = ThetaParam(theta_val)
    bank, phi = _layer_atoms(grid, m, th)
    layer = LayerConfig(bank=bank, output_atom=phi)
    atoms = bank.atoms + (phi,)
    assert layer.frame_bound == float(frame_spectrum_reference(atoms, th).max())
    assert layer.decay_constants == atom_decay_constant(phi, th)
    kernels = _chirp_plan(grid, th).kernel(np.stack([a.as_nd() for a in atoms]))
    assert np.array_equal(layer.kernels, kernels)
    bounds, want = frame_bounds(bank), frame_spectrum_reference(bank.atoms, th)
    assert np.array_equal(bounds.spectrum, want)
    assert (bounds.lower, bounds.upper) == (float(want.min()), float(want.max()))
    assert bounds.grid == frft_output_grid(grid, th)


@pytest.mark.parametrize("grid, m, theta_val", _LAYER_MATRIX, ids=_LAYER_IDS)
def test_layer_config_transforms_its_atoms_once(monkeypatch, grid, m, theta_val):
    """One forward and one kernel stack of the m + 1 atoms: 2(m + 1) FFT
    rows, no ``frft`` and no :class:`SampledSignal`."""
    th = ThetaParam(theta_val)
    bank, phi = _layer_atoms(grid, m, th)
    built = []
    post_init = SampledSignal.__post_init__

    def counting(signal):
        built.append(signal)
        post_init(signal)

    def no_frft(*args):
        raise AssertionError("LayerConfig called frft")

    monkeypatch.setattr(SampledSignal, "__post_init__", counting)
    monkeypatch.setattr("frftkit.scatter.frft", no_frft)
    monkeypatch.setattr("frftkit.transform.frft", no_frft)
    with fft_rows() as counts:
        LayerConfig(bank=bank, output_atom=phi)
    assert counts[0] == 2 * (m + 1)
    assert built == []


def test_layer_config_errors_keep_their_order():
    """Grid and pooling checks, then AngleDegenerate at a multiple of pi,
    then OverflowError for a spectrum that is not finite, then NoDecay."""
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 3)
    huge = SampledSignal(grid, np.full(grid.size, 1e308, dtype=np.complex128))
    flat = inverse_frft(SampledSignal(frft_output_grid(grid, th), np.ones(grid.size)), th)
    other = SampledSignal(Grid(1, 64, 8.0), np.ones(64))
    for theta in (ThetaParam(math.pi), th):
        bank = AtomBank((huge,), theta)
        with pytest.raises(ValueError, match="bank's grid"):
            LayerConfig(bank=bank, output_atom=other)
        with pytest.raises(ValueError, match="pooling factor"):
            LayerConfig(bank=bank, output_atom=flat, pooling_factor=0.5)
    with pytest.raises(AngleDegenerate):
        LayerConfig(bank=AtomBank((huge,), ThetaParam(math.pi)), output_atom=flat)
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="frame spectrum"):
        LayerConfig(bank=AtomBank((huge,), th), output_atom=flat)
    with pytest.raises(NoDecay):
        LayerConfig(bank=AtomBank((flat,), th), output_atom=flat)


def test_feature_tree_structure_and_energy():
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(
        grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"]
    )
    f = banded_signal(grid, th, 0.4, 13)
    tree = extract_features(f, layers, 2, th)
    assert tree.admissible
    assert tree.depth == 2
    assert set(tree.levels[0]) == {()}
    assert set(tree.levels[1]) == {(0,), (1,)}
    assert set(tree.levels[2]) == {(i, j) for i in range(2) for j in range(2)}

    prof = energy_profile(f, layers, 2, th)
    assert abs(prof[0] - l2_norm(f) ** 2) < 1e-12
    assert all(prof[i + 1] <= prof[i] + 1e-12 for i in range(len(prof) - 1))
    # frozen values for this exact configuration and seed
    assert prof[0] == pytest.approx(1.0, abs=1e-9)
    assert prof[1] == pytest.approx(0.046662, abs=5e-6)
    assert prof[2] == pytest.approx(0.020607, abs=5e-6)

    triple = sum(l2_norm(sig) ** 2 for level in tree.levels for sig in level.values())
    assert triple == pytest.approx(0.651962, abs=5e-6)
    assert triple <= l2_norm(f) ** 2 + 1e-12


def test_per_layer_norm_bound():
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0,), ["identity"])
    f = banded_signal(grid, th, 0.4, 13)
    cap = math.sqrt(layers[0].frame_bound / th.abs_sin) * l2_norm(f)
    for lam in range(2):
        assert l2_norm(u_layer(f, lam, layers[0], th)) <= cap + 1e-12


def test_u_path_matches_stacked_layers():
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "identity"])
    f = banded_signal(grid, th, 0.4, 21)
    direct = u_layer(u_layer(f, 1, layers[0], th), 0, layers[1], th)
    assert np.array_equal(u_path(f, (1, 0), layers, th).values, direct.values)
    with pytest.raises(PathArityMismatch):
        u_path(f, (0, 1, 0), layers, th)
    with pytest.raises(IndexError):
        u_layer(f, 5, layers[0], th)
    with pytest.raises(PathArityMismatch):
        extract_features(f, layers, 3, th)


def test_inadmissible_bank_warns():
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 3)
    layers, phi = make_s1_layers(grid, th, (1.0,), ["identity"])
    loud = tuple(a.with_values(3.0 * a.values) for a in layers[0].bank.atoms)
    noisy_layer = LayerConfig(
        bank=type(layers[0].bank)(loud, th), output_atom=phi
    )
    assert noisy_layer.frame_bound > 1.0
    f = banded_signal(grid, th, 0.4, 5)
    with pytest.warns(InadmissibleBankWarning):
        tree = extract_features(f, [noisy_layer], 1, th)
    assert not tree.admissible


def test_feature_distance_and_key_mismatch():
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "identity"])
    f = banded_signal(grid, th, 0.4, 31)
    g = banded_signal(grid, th, 0.4, 32)
    tf = extract_features(f, layers, 2, th)
    tg = extract_features(g, layers, 2, th)
    assert feature_distance(tf, tf, 2) == 0.0
    assert feature_distance(tf, tg, 1) > 0.0
    shallow = extract_features(g, layers, 1, th)
    with pytest.raises(KeyMismatch):
        feature_distance(tf, shallow, 2)


def test_depth_zero_covariance_is_exact():
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (1.0,), ["identity"])
    f = banded_signal(grid, th, 0.4, 7)
    dev = covariance_deviation(f, 4 * grid.spacing, layers, 0, th)
    assert dev < 1e-25


def test_modulus_blocks_oblique_deviation_but_not_quarter_turn():
    grid = Grid(1, 256, 8.0)
    oblique = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, oblique, (1.0,), ["identity"])
    base = layers[0]
    mod_layer = LayerConfig(
        bank=base.bank,
        output_atom=base.output_atom,
        nonlin=Nonlinearity("modulus"),
        pool=base.pool,
        pooling_factor=1.0,
    )
    f = banded_signal(grid, oblique, 0.4, 9)
    with pytest.raises(NonCommutingOps):
        invariance_deviation(f, 4 * grid.spacing, [mod_layer], 1, oblique)

    quarter = ThetaParam(math.pi / 2)
    qlayers, qphi = make_s1_layers(grid, quarter, (1.0,), ["identity"])
    qmod = LayerConfig(
        bank=qlayers[0].bank,
        output_atom=qphi,
        nonlin=Nonlinearity("modulus"),
    )
    invariance_deviation(f, 4 * grid.spacing, [qmod], 1, quarter)


def _one_layer(grid, built, kind):
    """One layer of make_s1_layers built at ``built`` with nonlinearity ``kind``."""
    layers, _ = make_s1_layers(grid, ThetaParam(built), (1.0,), ["identity"])
    return [dataclasses.replace(layers[0], nonlin=Nonlinearity(kind))]


@pytest.mark.parametrize("called", [0.0, math.pi, -math.pi], ids=["0", "pi", "-pi"])
@pytest.mark.parametrize("built", [math.pi / 3, math.pi / 2], ids=["pi/3", "pi/2"])
@pytest.mark.parametrize("kind", ["identity", "modulus"])
def test_deviations_on_an_axis_angle_raise_angle_degenerate(kind, built, called):
    """The cascade's plan is built before the commutation gate, so a caller
    angle that is a multiple of pi fails the same way for every layer kind."""
    grid = Grid(1, 128, 4.0)
    layers = _one_layer(grid, built, kind)
    f = random_signal(grid, 51)
    for deviation in (invariance_deviation, covariance_deviation):
        with pytest.raises(AngleDegenerate):
            deviation(f, grid.spacing, layers, 1, ThetaParam(called))


def test_modulus_layers_at_another_angle_are_an_angle_mismatch():
    """Layers pin the angle before the gate reads it: a modulus built at pi/2
    and called at pi/3 is a mismatch, not a non-commuting map."""
    grid = Grid(1, 128, 4.0)
    layers = _one_layer(grid, math.pi / 2, "modulus")
    f = random_signal(grid, 52)
    with pytest.raises(ValueError, match="configured for a different angle") as caught:
        invariance_deviation(f, grid.spacing, layers, 1, ThetaParam(math.pi / 3))
    assert not isinstance(caught.value, NonCommutingOps)
    with pytest.raises(NonCommutingOps):
        invariance_deviation(f, grid.spacing, _one_layer(grid, math.pi / 3, "modulus"), 1,
                             ThetaParam(math.pi / 3))
    invariance_deviation(f, grid.spacing, layers, 1, ThetaParam(math.pi / 2))


@pytest.mark.parametrize("theta_val", [math.pi / 6, 2 * math.pi / 5])
@pytest.mark.parametrize("s_factors", [(2.0,), (1.0, 4.0), (2.0, 1.0, 1.0)])
def test_deviations_stay_under_bounds(theta_val, s_factors):
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(theta_val)
    kinds = nonlin_plan(s_factors)
    layers, _ = make_s1_layers(grid, th, s_factors, kinds)
    depth = len(s_factors)
    k_use = max(layer.decay_constants[2] for layer in layers)
    f = banded_signal(grid, th, 0.4, seed=hash((theta_val, s_factors)) % 2**32)
    nf = l2_norm(f)
    for t in (grid.spacing, 16 * grid.spacing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dev_i = invariance_deviation(f, t, layers, depth, th)
            dev_c = covariance_deviation(f, t, layers, depth, th)
        assert dev_i <= invariance_bound(t, th, s_factors, k_use, nf)
        assert dev_c <= covariance_bound(t, th, s_factors, k_use, nf)


def test_stronger_pooling_improves_invariance():
    grid = Grid(1, 2048, 8.0)
    th = ThetaParam(math.pi / 3)
    f = banded_signal(grid, th, 0.5, 11)
    devs = []
    for s1 in (2.0, 8.0):
        layers, _ = make_s1_layers(
            grid, th, (s1,), ["identity"],
            centers=(-0.5, 0.5), widths=(0.4, 0.4), out_width=0.5,
        )
        devs.append(invariance_deviation(f, 0.25, layers, 1, th))
    assert devs[1] < devs[0]


def test_invariance_bound_monotone_in_shift():
    th = ThetaParam(math.pi / 3)
    bounds = [invariance_bound(t, th, (2.0, 2.0), 0.3, 1.0) for t in (0.1, 0.4, 1.6)]
    assert bounds[0] < bounds[1] < bounds[2]
    assert all(b > 0 for b in bounds)


@pytest.mark.filterwarnings("ignore:dilation by")  # the pointwise maps widen the band
@pytest.mark.parametrize("pool", ["identity", "modulus"])
@pytest.mark.parametrize("nonlin", ["phase_covariant_shrink", "modulus"])
@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 32, 4.0)])
def test_u_layer_kernels_match_operator_composition(grid, nonlin, pool):
    """The engine against the public operators; a modulus drops the chirp's
    phase, which the engine must put back before the dilation."""
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0,), [nonlin])
    layer = LayerConfig(layers[0].bank, layers[0].output_atom, layers[0].nonlin,
                        Pooling(pool), layers[0].pooling_factor)
    f = banded_signal(grid, th, 0.4, 17)
    for lam in range(layer.n_atoms):
        want = theta_convolve(f, layer.bank.atoms[lam], th)
        want = want.with_values(layer.pool.apply(layer.nonlin.apply(want.values)))
        want = theta_dilate(want, layer.pooling_factor, th)
        got = u_layer(f, lam, layer, th)
        assert got.grid == want.grid
        assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_public_functions_build_only_returned_signals(monkeypatch):
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "identity"])
    f = banded_signal(grid, th, 0.4, 19)
    built = []
    post_init = SampledSignal.__post_init__

    def counting(signal):
        built.append(signal)
        post_init(signal)

    monkeypatch.setattr(SampledSignal, "__post_init__", counting)

    def count(call):
        built.clear()
        call()
        return len(built)

    assert count(lambda: u_layer(f, 1, layers[0], th)) == 1
    assert count(lambda: u_path(f, (1, 0), layers, th)) == 1
    assert count(lambda: energy_profile(f, layers, 2, th)) == 0
    assert count(lambda: invariance_deviation(f, grid.spacing, layers, 2, th)) == 0
    assert count(lambda: covariance_deviation(f, grid.spacing, layers, 2, th)) == 0
    assert count(lambda: extract_features(f, layers, 2, th)) == 1 + 2 + 4


@pytest.mark.filterwarnings("ignore:dilation by")  # the shrink widens the band
@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 32, 4.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("theta_val", [math.pi / 3, -2 * math.pi / 5])
@pytest.mark.parametrize("s_factors", [(1.5, 1.0), (2.0, 1.0)])
def test_cascade_levels_match_per_path_composition(grid, theta_val, s_factors):
    """Every level of the batched cascade, path by path, against u_path."""
    th = ThetaParam(theta_val)
    layers, _ = make_s1_layers(grid, th, s_factors, nonlin_plan(s_factors))
    f = banded_signal(grid, th, 0.8, 23)
    f = f.with_values(10.0 * f.values)  # level 2 must clear the shrink threshold
    tree = extract_features(f, layers, 2, th)
    profile = energy_profile(f, layers, 2, th)
    for k, level in enumerate(tree.levels):
        assert list(level) == list(itertools.product(range(2), repeat=k))
        readout = layers[max(k - 1, 0)].output_atom
        energy = 0.0
        for path, feature in level.items():
            u = u_path(f, path, layers, th)
            energy += l2_norm(u) ** 2
            want = theta_convolve(u, readout, th)
            assert np.max(np.abs(feature.values - want.values)) <= 1e-12
        assert profile[k] == pytest.approx(energy, rel=1e-12)
    assert profile[2] > 0.0


def _traced_peak(call, fill=None):
    """The traced peak of ``call()``, after one untraced call that builds
    the chirp plan.  The traced call runs on an emptied run slot, or on one
    that an untraced ``fill()`` has just filled."""
    call()
    scatter._live_run = None
    if fill is not None:
        fill()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("ignore:dilation by")
def test_energy_profile_peak_memory():
    """A depth-3 cascade on 128² with fractional pooling keeps its traced
    peak under 9 MiB: each FFT runs in place on an array allocated once, and
    no step keeps a temporary past its use."""
    grid = Grid(2, 128, 16.0)
    th = ThetaParam(math.pi / 3)
    s_factors = (1.5, 1.5, 1.0)
    layers, _ = make_s1_layers(grid, th, s_factors, nonlin_plan(s_factors))
    f = banded_signal(grid, th, 1.0, 3)
    assert _traced_peak(lambda: energy_profile(f, layers, 3, th)) <= 9 * 2**20


@pytest.mark.filterwarnings("ignore:dilation by")
@pytest.mark.parametrize("name, limit_mib", [("energy_profile", 7), ("invariance_deviation", 13)])
def test_fractional_pooling_peak_memory(name, limit_mib):
    """Pooling by 4/3 resamples each axis on its N-point grid, so the
    traced peak of the 128² depth-3 cascade stays near that of an integer
    factor.  At ten times the norm the last level clears the shrink
    threshold, so the cascade runs every level."""
    grid = Grid(2, 128, 16.0)
    th = ThetaParam(math.pi / 3)
    s_factors = (4 / 3, 4 / 3, 1.0)
    layers, _ = make_s1_layers(grid, th, s_factors, nonlin_plan(s_factors))
    f = banded_signal(grid, th, 1.0, 3)
    f = f.with_values(10.0 * f.values)
    assert energy_profile(f, layers, 3, th)[3] > 0.0
    calls = {
        "energy_profile": lambda: energy_profile(f, layers, 3, th),
        "invariance_deviation": lambda: invariance_deviation(f, grid.spacing, layers, 3, th),
    }
    assert _traced_peak(calls[name]) <= limit_mib * 2**20


@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 32, 4.0)], ids=["1d", "2d"])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(
    steps=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    seed=st.integers(0, 2**32 - 1),
    theta_val=st.sampled_from([math.pi / 3, -2 * math.pi / 5]),
    depth=st.integers(0, 2),
)
def test_deviations_match_feature_trees(grid, steps, seed, theta_val, depth):
    """Both deviations against sums over paths of two feature trees."""
    th = ThetaParam(theta_val)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"])
    f = banded_signal(grid, th, 0.8, seed)
    f = f.with_values(10.0 * f.values)  # level 2 must clear the shrink threshold
    shift = tuple(k * grid.spacing for k in steps[: grid.n_dims])
    # The absolute floor covers the zero shift, where both sides are rounding noise.
    want_i = feature_drift_reference(f, shift, layers, depth, th, covariant=False)
    want_c = feature_drift_reference(f, shift, layers, depth, th, covariant=True)
    got_i = invariance_deviation(f, shift, layers, depth, th)
    got_c = covariance_deviation(f, shift, layers, depth, th)
    assert got_i == pytest.approx(want_i, rel=1e-12, abs=1e-25)
    assert got_c == pytest.approx(want_c, rel=1e-12, abs=1e-25)


_ALIAS_ENTRIES = ("theta_dilate", "energy_profile", "extract_features", "invariance_deviation")


@pytest.mark.parametrize(
    "entry,b",
    [(e, None) for e in _ALIAS_ENTRIES] + [(e, 0.0) for e in _ALIAS_ENTRIES[1:]],
    ids=list(_ALIAS_ENTRIES) + [f"{e}-shrink" for e in _ALIAS_ENTRIES[1:]],
)
def test_alias_warning_names_the_caller(entry, b):
    """The dilation's alias warning points at the line that called the
    public function, not into the cascade's own frames.  With identity maps
    the cascade checks the filter's spectrum; after a shrink the dilation
    checks its own.  A band-limited input warns on neither path."""
    grid, th = Grid(1, 128, 4.0), ThetaParam(math.pi / 3)
    # Wide atoms pass the full band on to the dilation after layer 0.
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "identity"], widths=(8.0, 8.0))
    if b is not None:
        # A zero threshold keeps every value, and so the band of the input.
        shrink = Nonlinearity("phase_covariant_shrink", b)
        layers[0] = dataclasses.replace(layers[0], nonlin=shrink)
    band = 0.4 * float(np.max(frft_output_grid(grid, th).axis))
    inputs = {
        True: random_signal(grid, 35),  # full band: a contraction by 2 folds it
        False: banded_signal(grid, th, band, 35),  # inside the band a contraction by 2 keeps
    }
    shift = 2 * grid.spacing
    for folds, f in inputs.items():
        calls = {
            "theta_dilate": lambda: theta_dilate(f, 2, th),
            "energy_profile": lambda: energy_profile(f, layers, 2, th),
            "extract_features": lambda: extract_features(f, layers, 2, th),
            "invariance_deviation": lambda: invariance_deviation(f, shift, layers, 2, th),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calls[entry]()
        alias = [w for w in caught if issubclass(w.category, AliasRiskWarning)]
        assert bool(alias) == folds
        assert {w.filename for w in alias} <= {__file__}


def _benchmark_cascade(theta_val=math.pi / 3):
    """The benchmark's cascade (2-D 64², two atoms, pooling (2, 1), identity
    then shrink), its depth-1 cut with identity maps pooled by 2, an input
    and four shifts."""
    grid, th = Grid(2, 64, 4.0), ThetaParam(theta_val)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"])
    folding, _ = make_s1_layers(grid, th, (2.0,), ["identity"])
    f = banded_signal(grid, th, 0.4, 41)
    shift = (grid.spacing, -2 * grid.spacing)
    four = [shift, (0.0, grid.spacing), (3 * grid.spacing, 0.0), (-grid.spacing, grid.spacing)]
    return th, layers, folding, f, four


def test_cascade_fft_rows():
    """The FFT rows of the benchmark's cascade on a cold run slot: layer 1
    hands its even pooling to layer 2 as a folded spectrum, so neither
    inverts nor transforms the other's stack, and a deviation transforms its
    input once, however many shifts it is given: every shifted copy starts
    from the input's layer-1 filter times a phase ramp."""
    th, layers, folding, f, four = _benchmark_cascade()
    shift = four[0]
    # Layer 1 transforms 1 row of 64² and folds its 2 products into 32²
    # spectra; layer 2 inverts its 4 products of 32²: 64² + 4 * 32².
    with fft_rows() as counts:
        energy_profile(f, layers, 2, th)
    assert counts == [5, 8192]
    # The input's cascade, then per shift layer 2's 4 inverses of 32² and
    # one spectrum of the 4 path differences.
    for deviation in (invariance_deviation, covariance_deviation):
        scatter._live_run = None
        with fft_rows() as counts:
            deviation(f, shift, layers, 2, th)
        assert counts == [5 + 8, 8192 + 8 * 32**2] == [13, 16384]
    scatter._live_run = None
    with fft_rows() as counts:
        _deviations(f, four[:3], layers, 2, th, None, covariant=False)
    assert counts == [5 + 3 * 8, 8192 + 3 * 8 * 32**2]
    scatter._live_run = None
    with fft_rows() as counts:
        _deviations(f, four, layers, 2, th, None, covariant=False)
    assert counts == [37, 40960]
    # The readouts add the level-0 filter (2 rows of 64²; its kernel is the
    # first layer's), an inverse of the 2 folded level-1 products and a
    # filter of level 2 (8 rows of 32²).
    with fft_rows() as counts:
        extract_features(f, layers, 2, th)
    assert counts == [5 + 2 + 2 + 8, 8192 + 2 * 64**2 + 10 * 32**2]
    # Depth 1 with identity maps: the last level is a folded spectrum of 32²
    # per path.  Its energy is read by Parseval off the one forward of 64²,
    # and a deviation stays spectral: each shift folds its ramped filter and
    # differences spectra, so any number of shifts costs that one forward.
    with fft_rows() as counts:
        energy_profile(f, folding, 1, th)
    assert counts == [1, 4096]
    for deviation in (invariance_deviation, covariance_deviation):
        scatter._live_run = None
        with fft_rows() as counts:
            deviation(f, shift, folding, 1, th)
        assert counts == [1, 4096]
    for covariant in (False, True):
        scatter._live_run = None
        with fft_rows() as counts:
            _deviations(f, four, folding, 1, th, None, covariant=covariant)
        assert counts == [1, 4096]


def test_cascade_fft_rows_on_a_kept_level():
    """The FFT rows of the benchmark's cascade when the run slot keeps the
    input's run: a shifted copy transforms no root."""
    th, layers, folding, f, four = _benchmark_cascade()
    shift = four[0]
    # The benchmark's op: energy_profile's 5 rows, then layer 2's 4 inverses
    # of the shifted copy and one spectrum of the 4 path differences.
    scatter._live_run = None
    with fft_rows() as counts:
        energy_profile(f, layers, 2, th)
        invariance_deviation(f, shift, layers, 2, th)
    assert counts == [13, 16384]
    # A second single-shift call, of either kind, reads the same run.
    for deviation in (invariance_deviation, covariance_deviation):
        with fft_rows() as counts:
            deviation(f, shift, layers, 2, th)
        assert counts == [4 + 4, 4 * 32**2 + 4 * 32**2] == [8, 8192]
    with fft_rows() as counts:
        _deviations(f, four, layers, 2, th, None, covariant=False)
    assert counts == [4 * 8, 4 * 8192]
    # Depth 1 after energy_profile or after a cold deviation: no FFT at all.
    energy_profile(f, folding, 1, th)
    for deviation in (invariance_deviation, covariance_deviation):
        with fft_rows() as counts:
            deviation(f, shift, folding, 1, th)
        assert counts == [0, 0]
    scatter._live_run = None
    invariance_deviation(f, four[1], folding, 1, th)
    with fft_rows() as counts:
        covariance_deviation(f, shift, folding, 1, th)
    assert counts == [0, 0]
    # A profile after a profile or after a deviation of the same signal
    # reads the kept energies.
    fills = (lambda cascade, depth: energy_profile(f, cascade, depth, th),
             lambda cascade, depth: invariance_deviation(f, shift, cascade, depth, th))
    for fill in fills:
        for cascade, depth in ((layers, 2), (folding, 1)):
            scatter._live_run = None
            fill(cascade, depth)
            with fft_rows() as counts:
                energy_profile(f, cascade, depth, th)
            assert counts == [0, 0]


def test_cascade_fft_rows_when_both_layers_pool():
    """The FFT rows of the benchmark's cascade pooled by (2, 2): layer 2's
    alias check transforms its 4 rows of 32² once, on the input's run, and
    a shifted copy checks no alias, so each shift costs layer 2's 4 inverses
    of 32² and one spectrum of the 4 path differences of 16²."""
    th, _, _, f, four = _benchmark_cascade()
    layers, _ = make_s1_layers(f.grid, th, (2.0, 2.0), ["identity", "phase_covariant_shrink"])
    per_shift = [8, 4 * 32**2 + 4 * 16**2]
    scatter._live_run = None
    with fft_rows() as counts:
        energy_profile(f, layers, 2, th)
    assert counts == [1 + 4 + 4, 64**2 + 8 * 32**2] == [9, 12288]
    for shifts in (four[:1], four):
        with fft_rows() as counts:
            _deviations(f, shifts, layers, 2, th, None, covariant=False)
        assert counts == [len(shifts) * c for c in per_shift]
    assert per_shift == [8, 5120]
    scatter._live_run = None
    with fft_rows() as counts:
        _deviations(f, four, layers, 2, th, None, covariant=False)
    assert counts == [9 + 4 * 8, 12288 + 4 * 5120] == [41, 32768]
    # Shrink then shrink pooled by 2: a deviation then a profile runs the
    # input's cascade once.
    layers, _ = make_s1_layers(f.grid, th, (1.0, 2.0), ["phase_covariant_shrink"] * 2)
    scatter._live_run = None
    with fft_rows() as counts:
        invariance_deviation(f, four[0], layers, 2, th)
        energy_profile(f, layers, 2, th)
    assert counts == [25, 90112]


@pytest.mark.parametrize("shifts", [1, 4])
@pytest.mark.parametrize("covariant", [False, True], ids=["invariance", "covariance"])
@pytest.mark.parametrize("theta_val", [math.pi / 3, -math.pi / 3], ids=["sin+", "sin-"])
def test_deviations_match_the_public_reference(theta_val, covariant, shifts):
    """Both deviations of the benchmark's cascade at ten times its norm (so
    level 2 clears the shrink threshold) and of its depth-1 folded cut, for
    one and four shifts, on an emptied run slot and on one that a profile
    or another deviation filled, agree with :func:`feature_drift_reference`
    within 1e-15 of ‖f‖²."""
    th, layers, folding, f, four = _benchmark_cascade(theta_val)
    f = f.with_values(10.0 * f.values)
    norm_sq = l2_norm(f) ** 2
    other = (2 * f.grid.spacing, f.grid.spacing)
    for cascade, depth in ((layers, 2), (folding, 1)):
        want = [feature_drift_reference(f, t, cascade, depth, th, covariant)
                for t in four[:shifts]]
        fills = {
            "cold": lambda: None,
            "profile": lambda: energy_profile(f, cascade, depth, th),
            "deviation": lambda: _deviations(f, [other], cascade, depth, th, None, covariant),
        }
        for name, fill in fills.items():
            scatter._live_run = None
            fill()
            got = _deviations(f, four[:shifts], cascade, depth, th, None, covariant)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-15 * norm_sq, (depth, name)
        assert min(want) > 1e-12 * norm_sq  # far above the tolerance


def _recorded(call):
    """``call()`` and the warnings it issued, as comparable tuples."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    return value, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.mark.parametrize("depth", [1, 2], ids=["depth1", "depth2"])
@pytest.mark.parametrize("theta_val", [math.pi / 3, -2 * math.pi / 5], ids=["pos", "neg"])
@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 64, 4.0)], ids=["1d-256", "2d-64"])
def test_kept_level_gives_the_bits_and_warnings_of_a_cold_run(grid, theta_val, depth):
    """A deviation on the last level that ``energy_profile`` or another
    deviation kept equals the deviation on an emptied run slot bit for bit,
    with the same alias warnings.  Depth 1 keeps a folded spectrum; wide
    atoms pass a white input's full band on to the dilation by 2, which
    warns, and a band-limited input's, which does not."""
    th = ThetaParam(theta_val)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"],
                               widths=(8.0, 8.0))
    shift = tuple(k * grid.spacing for k in (2, -1)[: grid.n_dims])
    other = tuple(k * grid.spacing for k in (-3, 1)[: grid.n_dims])
    for warns, f in ((True, random_signal(grid, 7)), (False, banded_signal(grid, th, 0.4, 7))):
        f = f.with_values(10.0 * f.values)  # level 2 must clear the shrink threshold
        fills = {
            "profile": lambda: energy_profile(f, layers, depth, th),
            "deviation": lambda: invariance_deviation(f, other, layers, depth, th),
        }
        for deviation in (invariance_deviation, covariance_deviation):
            def call():
                return deviation(f, shift, layers, depth, th)

            scatter._live_run = None
            cold = _recorded(call)
            assert cold[0] > 0.0
            assert bool(cold[1]) == warns
            for name, fill in fills.items():
                scatter._live_run = None
                _recorded(fill)
                kept = scatter._live_run
                assert kept is not None and kept.spectral == (depth == 1)
                stack = kept.stack.copy()
                assert _recorded(call) == cold
                assert scatter._live_run is kept  # a hit, which left the slot as it was
                assert np.array_equal(kept.stack, stack)


def test_kept_level_misses_on_another_key():
    """The run slot matches the input's samples array, the layer objects,
    the depth and the plan by identity: another signal with equal samples,
    an equal layer list of other objects, another depth and a plan that was
    evicted and rebuilt each run cold, to the same value."""
    grid, th = Grid(1, 256, 8.0), ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"])
    twins, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"])
    f = banded_signal(grid, th, 0.4, 5)
    f = f.with_values(10.0 * f.values)
    shift = 3 * grid.spacing

    def rows(g, layer_list, depth):
        with fft_rows() as counts:
            value = invariance_deviation(g, shift, layer_list, depth, th)
        return value, counts

    for depth in (1, 2):
        scatter._live_run = None
        cold = rows(f, layers, depth)
        energy_profile(f, layers, depth, th)
        hit = rows(f, layers, depth)
        assert hit[0] == cold[0] and hit[1] < cold[1]
    misses = {
        "equal samples": (SampledSignal(grid, f.values), layers, 2),
        "equal layers": (f, twins, 2),
        "another depth": (f, layers, 1),
        "evicted plan": (f, layers, 2),
    }
    for name, (g, layer_list, depth) in misses.items():
        scatter._live_run = None
        cold = rows(g, layer_list, depth)
        energy_profile(f, layers, 2, th)
        kept = scatter._live_run
        if name == "evicted plan":
            _chirp_plan(grid, ThetaParam(math.pi / 5))
        assert rows(g, layer_list, depth) == cold, name
        assert scatter._live_run is not kept, name


def test_kept_level_holds_no_plan():
    """The run slot refers to its plan weakly: a plan evicted by another
    angle is freed while the slot still keeps the level it ran."""
    grid, th = Grid(2, 64, 4.0), ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"])
    f = banded_signal(grid, th, 0.4, 41)
    energy_profile(f, layers, 2, th)
    kept = scatter._live_run
    plan = weakref.ref(_chirp_plan(grid, th))
    assert kept is not None and kept.plan() is plan()
    _chirp_plan(grid, ThetaParam(math.pi / 5))
    assert plan() is None
    assert scatter._live_run is kept and kept.stack.shape == (4, 32, 32)


@pytest.mark.parametrize("shifts", [1, 4])
@pytest.mark.parametrize("kept", [False, True], ids=["cold", "hit"])
def test_deviation_warns_as_energy_profile_does(kept, shifts):
    """A deviation issues its input's alias messages once, those that
    ``energy_profile`` issues for the same input, however many shifts it is
    given and whether its run was kept or not, at the caller's line."""
    grid, th = Grid(1, 128, 4.0), ThetaParam(math.pi / 3)
    # Wide atoms pass a white input's full band on to both dilations by 2.
    layers, _ = make_s1_layers(grid, th, (2.0, 2.0), ["identity", "identity"], widths=(8.0, 8.0))
    f = random_signal(grid, 35)
    four = [k * grid.spacing for k in (2, -1, 3, 1)]
    calls = {
        "profile": lambda: energy_profile(f, layers, 2, th),
        "invariance": lambda: _deviations(f, four[:shifts], layers, 2, th, None, False),
        "covariance": lambda: _deviations(f, four[:shifts], layers, 2, th, None, True),
    }
    issued = {}
    for name, call in calls.items():
        scatter._live_run = None
        if kept:
            _recorded(calls["profile"])
        _, caught = _recorded(call)
        alias = [w for w in caught if issubclass(w[0], AliasRiskWarning)]
        assert {w[2:] for w in alias} == {(__file__, call.__code__.co_firstlineno)}
        issued[name] = [w[:2] for w in alias]
    assert len(issued["profile"]) == 2  # one per layer
    assert issued["invariance"] == issued["covariance"] == issued["profile"]


def test_deviation_reads_the_run_its_call_returned(monkeypatch):
    """A deviation takes its input's run from the ``_run`` call itself, so a
    slot that another caller empties or refills the moment ``_run`` returns
    leaves every value as it is on a cold slot."""
    th, layers, folding, f, four = _benchmark_cascade()
    other = banded_signal(f.grid, th, 0.4, 42)
    run_cascade = scatter._run
    for cascade, depth in ((layers, 2), (folding, 1)):
        cold = []
        for covariant in (False, True):
            scatter._live_run = None
            cold.append(_deviations(f, four, cascade, depth, th, None, covariant))
        scatter._live_run = None
        cold.append(energy_profile(f, cascade, depth, th))
        energy_profile(other, cascade, depth, th)
        for intruder in (None, scatter._live_run):
            def racing(*args, intruder=intruder):
                run = run_cascade(*args)
                scatter._live_run = intruder
                return run

            with monkeypatch.context() as patch:
                patch.setattr(scatter, "_run", racing)
                got = [_deviations(f, four, cascade, depth, th, None, covariant)
                       for covariant in (False, True)]
                got.append(energy_profile(f, cascade, depth, th))
            assert got == cold, (depth, intruder is None)


@pytest.mark.parametrize("bad", ["modulus", "inadmissible", "grid", "angle"])
def test_layers_past_depth_are_not_read(bad):
    """A cascade reads only its first ``depth`` layers: a layer below the
    depth whose modulus does not commute with translates at this angle,
    whose bank is not admissible, or that lives on another grid or at
    another angle changes no value and raises and warns nothing."""
    grid, th = Grid(1, 256, 8.0), ThetaParam(math.pi / 3)
    layers, phi = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "identity"])
    f = banded_signal(grid, th, 0.4, 17)
    shift = 3 * grid.spacing
    loud = tuple(a.with_values(3.0 * a.values) for a in layers[1].bank.atoms)
    below = {
        "modulus": lambda: dataclasses.replace(layers[1], nonlin=Nonlinearity("modulus")),
        "inadmissible": lambda: LayerConfig(bank=AtomBank(loud, th), output_atom=phi),
        "grid": lambda: make_s1_layers(Grid(1, 128, 8.0), th, (1.0,), ["identity"])[0][0],
        "angle": lambda: make_s1_layers(grid, ThetaParam(math.pi / 5), (1.0,), ["identity"])[0][0],
    }[bad]()
    assert not below.nonlin.commutes_with_translation(th) or below.frame_bound > 1.0 or (
        (below.bank.grid, below.theta) != (grid, th))

    def values(cascade):
        tree = extract_features(f, cascade, 1, th)
        return (energy_profile(f, cascade, 1, th), tree.admissible,
                [[v.values.tobytes() for v in level.values()] for level in tree.levels],
                invariance_deviation(f, shift, cascade, 1, th),
                covariance_deviation(f, shift, cascade, 1, th))

    want = values(layers[:1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert values([layers[0], below]) == want
    assert want[1]


@pytest.mark.parametrize("theta_val", [math.pi / 3, -2 * math.pi / 5], ids=["pos", "neg"])
@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 32, 4.0), Grid(2, 64, 4.0)],
                         ids=["1d-256", "2d-32", "2d-64"])
def test_level0_readout_kernel_is_the_first_layers(grid, theta_val):
    """With no level-0 atom, level 0 reads out with the kernel the first
    layer already holds, which is the plan's kernel of its output atom bit
    for bit; a layer pinned to another angle still gets a kernel at the
    cascade's angle."""
    th = ThetaParam(theta_val)
    layers, phi = make_s1_layers(grid, th, (1.0,), ["identity"])
    plan = _chirp_plan(grid, th)
    assert np.array_equal(layers[0].kernels[-1], plan.kernel(phi.as_nd()))
    assert np.shares_memory(_readout_kernel(0, layers, plan, None), layers[0].kernels[-1])
    other = _chirp_plan(grid, ThetaParam(theta_val / 2))
    assert np.array_equal(_readout_kernel(0, layers, other, None), other.kernel(phi.as_nd()))


def test_deviation_peak_memory_does_not_grow_with_shifts():
    """Shifts after the first run one at a time against the input's kept
    last level, so six shifts trace the peak of one, plus the input kept
    for the later shifts.  On a run slot that ``energy_profile`` filled,
    every shift runs so, and the peak is lower."""
    grid, th = Grid(2, 64, 4.0), ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0, 1.0), ["phase_covariant_shrink"] * 2)
    f = banded_signal(grid, th, 0.4, 41)
    shifts = [(i * grid.spacing, -grid.spacing) for i in range(1, 7)]
    _deviations(f, shifts[:1], layers, 2, th, None, covariant=False)  # builds the plan
    peaks = {}
    for kept in (False, True):
        for k in (1, 6):
            scatter._live_run = None
            if kept:
                energy_profile(f, layers, 2, th)
            tracemalloc.start()
            try:
                _deviations(f, shifts[:k], layers, 2, th, None, covariant=False)
                peaks[kept, k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[kept, 6] <= peaks[kept, 1] + 2 * f.values.nbytes
    assert peaks[True, 1] < peaks[False, 1]


@pytest.mark.parametrize("covariant", [False, True], ids=["invariance", "covariance"])
def test_deviations_read_level0_with_the_given_atom(covariant):
    """At depth 0 both deviations read out with ``level0_atom``, as the
    feature trees do, and reject an atom on another grid."""
    grid, th = Grid(1, 128, 8.0), ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (1.0,), ["identity"])
    atom = inverse_frft(gauss_profile(frft_output_grid(grid, th), 0.3, 0.4), th)
    f = banded_signal(grid, th, 0.8, 43)
    shift = 3 * grid.spacing
    deviation = covariance_deviation if covariant else invariance_deviation

    def drift(level0_atom):
        moved = extract_features(theta_translate(f, shift, th), layers, 0, th, level0_atom)
        plain = extract_features(f, layers, 0, th, level0_atom).levels[0][()]
        if covariant:
            plain = theta_translate(plain, shift, th)
        diff = moved.levels[0][()].values - plain.values
        return l2_norm(f.with_values(diff)) ** 2

    for level0_atom in (None, atom):
        got = deviation(f, shift, layers, 0, th, level0_atom)
        assert got == pytest.approx(drift(level0_atom), rel=1e-12, abs=1e-25)
    if not covariant:
        assert deviation(f, shift, layers, 0, th, atom) != deviation(f, shift, layers, 0, th)
    elsewhere = SampledSignal(Grid(1, 64, 8.0), np.ones(64, dtype=np.complex128))
    with pytest.raises(GridMismatch):
        deviation(f, shift, layers, 0, th, elsewhere)
    with pytest.raises(ValueError, match="level-0 output atom"):
        deviation(f, shift, [], 0, th)


# Poolings with an even integer factor, which shorten the period of later
# levels, and poolings without one, which keep every level on the whole grid.
_SHORTENING_POOLINGS = [(2.0, 1.0), (2.0, 2.0), (4.0, 1.0), (6.0, 1.0), (2.0, 1.5), (1.5, 2.0)]
_WHOLE_GRID_POOLINGS = [(1.0, 1.0), (3.0, 1.0), (1.5, 4 / 3)]


def _close_to(got, want, scale, rel):
    """Whether ``got`` is ``want`` within ``rel`` times ``scale``."""
    return np.max(np.abs(got - want), initial=0.0) <= rel * scale


@pytest.mark.filterwarnings("ignore:dilation by")  # the shrink widens the band
@pytest.mark.parametrize("s_factors", _SHORTENING_POOLINGS + _WHOLE_GRID_POOLINGS,
                         ids=lambda s: "-".join(f"{x:.3g}" for x in s))
@pytest.mark.parametrize("theta_val", [math.pi / 3, -2 * math.pi / 5], ids=["pi/3", "-2pi/5"])
@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 32, 4.0), Grid(2, 64, 4.0)],
                         ids=["1d", "2d-32", "2d-64"])
def test_cascade_matches_full_grid_reference(grid, theta_val, s_factors):
    """Levels after a power-of-two pooling run on one period of the grid;
    everything read out of them matches the full-grid engine in the last
    digits.  Features are held to their level's largest propagated sample,
    the scale of the readout filter's rounding.  Without an even integer
    factor every level keeps the whole grid, and every result but the
    deviations is bit for bit the reference's; a deviation's shifted copy
    starts from a phase ramp on the input's layer-1 filter, where the
    reference rolls and transforms the shifted root, so the deviations agree
    to rounding.  ``u_path`` leaves the chirped domain after each step, so it
    is bit for bit the reference's in every case."""
    th = ThetaParam(theta_val)
    layers, _ = make_s1_layers(grid, th, s_factors, ["identity", "phase_covariant_shrink"])
    # At norm 100 this threshold leaves level 2 live after every pooling.
    layers[1] = dataclasses.replace(layers[1], nonlin=Nonlinearity("phase_covariant_shrink", 1e-3))
    exact = s_factors in _WHOLE_GRID_POOLINGS
    base = banded_signal(grid, th, 0.8, 47)
    shifts = [(grid.spacing,) * grid.n_dims, (-3 * grid.spacing, 2 * grid.spacing)[: grid.n_dims],
              (5 * grid.spacing,) * grid.n_dims]
    for norm in (1.0, 10.0, 100.0):
        f = base.with_values(norm * base.values)
        tree = extract_features(f, layers, 2, th)
        want = features_reference(f, layers, 2, th)
        stacks = cascade_levels_reference(f, layers, 2, th)
        for k, level in enumerate(tree.levels):
            got = np.stack([feature.values for feature in level.values()])
            if exact:
                assert np.array_equal(got, want[k])
            else:
                assert _close_to(got, want[k], np.max(np.abs(stacks[k])), 1e-13)
        got, want = energy_profile(f, layers, 2, th), energy_profile_reference(f, layers, 2, th)
        assert got == want if exact else got == pytest.approx(want, rel=1e-13)
        for path in itertools.product(range(2), repeat=2):
            assert np.array_equal(u_path(f, path, layers, th).values,
                                  u_path_reference(f, path, layers, th))
        for covariant in (False, True):
            one = (covariance_deviation if covariant else invariance_deviation)(
                f, shifts[0], layers, 2, th)
            several = _deviations(f, shifts, layers, 2, th, None, covariant)
            want = deviations_reference(f, shifts, layers, 2, th, covariant)
            assert [one] + several == pytest.approx(want[:1] + want, rel=1e-12, abs=1e-25)
    assert energy_profile(f, layers, 2, th)[2] > 0.0


# A depth-1 cascade pooled by 2 ends on a folded spectrum.  Pooling (8, 8)
# folds 64 or 32 samples per axis into 8 or 4, where the second dilation
# would clamp the period at 2, so it gathers the samples instead.
@pytest.mark.filterwarnings("ignore:dilation by")  # 8 folds the band
@pytest.mark.parametrize("grid, s_factors, spectral", [
    (Grid(1, 256, 8.0), (2.0,), [False, True]),
    (Grid(2, 32, 4.0), (2.0,), [False, True]),
    (Grid(1, 64, 8.0), (8.0, 8.0), [False, True, False]),
    (Grid(2, 32, 4.0), (8.0, 8.0), [False, True, False]),
], ids=["1d-2", "2d-2", "1d-8-8", "2d-8-8"])
@pytest.mark.parametrize("theta_val", [math.pi / 3, -2 * math.pi / 5], ids=["pi/3", "-2pi/5"])
def test_folded_levels_match_full_grid_reference(grid, s_factors, spectral, theta_val):
    """Identity layers pooled by an even factor hand on folded spectra.
    Everything read out of them, a last level among them, matches the
    full-grid engine at the tolerances of the pooled cascade, and ``u_path``
    is bit for bit the reference's."""
    th = ThetaParam(theta_val)
    depth = len(s_factors)
    layers, _ = make_s1_layers(grid, th, s_factors, ["identity"] * depth)
    f = banded_signal(grid, th, 0.8, 61)
    plan = _chirp_plan(grid, th)
    levels = _levels(plan.chirp(f.as_nd()[None]), False, plan, layers[:depth])
    assert [held for _, held in levels] == spectral
    shifts = [(grid.spacing,) * grid.n_dims, (-3 * grid.spacing, 2 * grid.spacing)[: grid.n_dims]]
    tree = extract_features(f, layers, depth, th)
    want = features_reference(f, layers, depth, th)
    stacks = cascade_levels_reference(f, layers, depth, th)
    for k, level in enumerate(tree.levels):
        got = np.stack([feature.values for feature in level.values()])
        assert _close_to(got, want[k], np.max(np.abs(stacks[k])), 1e-13)
    assert energy_profile(f, layers, depth, th) == pytest.approx(
        energy_profile_reference(f, layers, depth, th), rel=1e-13)
    for path in itertools.product(range(2), repeat=depth):
        assert np.array_equal(u_path(f, path, layers, th).values,
                              u_path_reference(f, path, layers, th))
    for covariant in (False, True):
        one = (covariance_deviation if covariant else invariance_deviation)(
            f, shifts[0], layers, depth, th)
        several = _deviations(f, shifts, layers, depth, th, None, covariant)
        want = deviations_reference(f, shifts, layers, depth, th, covariant)
        assert [one] + several == pytest.approx(want[:1] + want, rel=1e-12, abs=1e-25)


@pytest.mark.filterwarnings("ignore:dilation by")  # the modulus widens the band
@pytest.mark.parametrize("where", ["nonlin", "pool"])
@pytest.mark.parametrize("s_factors", [(2.0, 1.0), (2.0, 2.0)])
@pytest.mark.parametrize("theta_val", [math.pi / 3, math.pi / 2])
@pytest.mark.parametrize("grid", [Grid(1, 256, 8.0), Grid(2, 32, 4.0)], ids=["1d", "2d"])
def test_pooled_modulus_matches_full_grid_reference(grid, theta_val, s_factors, where):
    """A modulus after a dilation by 2 multiplies the chirp back in on the
    whole grid; a later dilation by 2 halves that grid again.  The
    deviations run at pi/2, where the modulus commutes with translates."""
    th = ThetaParam(theta_val)
    layers, _ = make_s1_layers(grid, th, s_factors, ["identity", "identity"])
    modulus = {"nonlin": Nonlinearity("modulus"), "pool": Pooling("modulus")}[where]
    layers[1] = dataclasses.replace(layers[1], **{where: modulus})
    base = banded_signal(grid, th, 0.8, 53)
    shifts = [(2 * grid.spacing,) * grid.n_dims, (-grid.spacing,) * grid.n_dims]
    for norm in (1.0, 10.0, 100.0):
        f = base.with_values(norm * base.values)
        tree = extract_features(f, layers, 2, th)
        want = features_reference(f, layers, 2, th)
        stacks = cascade_levels_reference(f, layers, 2, th)
        for k, level in enumerate(tree.levels):
            got = np.stack([feature.values for feature in level.values()])
            assert _close_to(got, want[k], np.max(np.abs(stacks[k])), 1e-13)
        assert energy_profile(f, layers, 2, th) == pytest.approx(
            energy_profile_reference(f, layers, 2, th), rel=1e-13)
        for path in itertools.product(range(2), repeat=2):
            assert np.array_equal(u_path(f, path, layers, th).values,
                                  u_path_reference(f, path, layers, th))
        if theta_val != math.pi / 2:
            continue
        for covariant in (False, True):
            got = _deviations(f, shifts, layers, 2, th, None, covariant)
            want = deviations_reference(f, shifts, layers, 2, th, covariant)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-25)


@pytest.mark.parametrize("b", [0.0, 0.01])
@pytest.mark.parametrize("grid", [Grid(1, 128, 4.0), Grid(2, 32, 4.0)], ids=["1d", "2d"])
def test_pooled_alias_warning_matches_full_grid_reference(grid, b):
    """Pooling (2, 2) with a shrink in layer 2: the second dilation checks
    the spectrum of a 2-periodic level's own period, where the full-grid
    engine checked all N bins.  It warns on exactly the inputs where the
    full-grid tail fraction of either dilation passes ``ALIAS_GUARD``, and
    at the line that called the public function."""
    th = ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (2.0, 2.0), ["identity", "identity"], widths=(8.0, 8.0))
    layers[1] = dataclasses.replace(layers[1], nonlin=Nonlinearity("phase_covariant_shrink", b))
    plan = _chirp_plan(grid, th)
    edge = float(np.max(frft_output_grid(grid, th).axis))
    tails = []
    for band in (0.2, 0.4, None):  # inside both bands; inside the first only; full band
        f = random_signal(grid, 35) if band is None else banded_signal(grid, th, band * edge, 35)
        # The two full-grid tail fractions: the filter's spectrum in layer 1,
        # the shrunk stack's own spectrum in layer 2.
        y = plan.chirp(f.as_nd()[None])
        first = _alias_tail_fraction(np.fft.fftn(y[:, None], axes=plan.axes)
                                     * layers[0].kernels[:-1], 2, 1, plan.axes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasRiskWarning)
            level1 = cascade_step_reference(y, layers[0], plan, slice(None, -1))
        shrunk = layers[1].nonlin.apply(plan.filter(level1[:, None], layers[1].kernels[:-1]))
        second = _alias_tail_fraction(np.fft.fftn(shrunk, axes=plan.axes), 2, 1, plan.axes)
        folds = [bool(np.max(tail) > ALIAS_GUARD) for tail in (first, second)]
        tails.append(folds)
        calls = [
            lambda: energy_profile(f, layers, 2, th),
            lambda: extract_features(f, layers, 2, th),
            lambda: invariance_deviation(f, 2 * grid.spacing, layers, 2, th),
        ]
        for call in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            alias = [w for w in caught if issubclass(w.category, AliasRiskWarning)]
            assert len(alias) == sum(folds)
            assert {w.filename for w in alias} <= {__file__}
    # Every case is met: the second check alone decides one input.
    assert tails[2] == [True, True]
    assert tails[1] == [False, True]
    assert tails[0] == [False, b > 0.0]


@pytest.mark.filterwarnings("ignore:dilation by")
@pytest.mark.parametrize("name, limit_mib", [("energy_profile", 2), ("invariance_deviation", 4),
                                             ("kept_invariance_deviation", 2)])
def test_pooled_levels_peak_memory(name, limit_mib):
    """Pooling (2, 2, 1) holds level 1 as a 64² period and levels 2 and 3 as
    32² periods of the 128² grid, so the traced peak of the depth-3 cascade
    is about a fifth of that of the full-grid stacks (6.13 and 12.13 MiB).
    A deviation on the last level that ``energy_profile`` kept runs one root,
    not two, and peaks as that does."""
    grid = Grid(2, 128, 16.0)
    th = ThetaParam(math.pi / 3)
    s_factors = (2.0, 2.0, 1.0)
    layers, _ = make_s1_layers(grid, th, s_factors, nonlin_plan(s_factors))
    f = banded_signal(grid, th, 1.0, 3)
    f = f.with_values(10.0 * f.values)

    def profile():
        return energy_profile(f, layers, 3, th)

    def deviation():
        return invariance_deviation(f, grid.spacing, layers, 3, th)

    calls = {
        "energy_profile": (profile, None),
        "invariance_deviation": (deviation, None),
        "kept_invariance_deviation": (deviation, profile),
    }
    assert _traced_peak(*calls[name]) <= limit_mib * 2**20


@pytest.mark.parametrize("grid", [Grid(1, 128, 8.0), Grid(2, 32, 4.0)], ids=["1d", "2d"])
def test_feature_rows_share_no_callers_array(grid):
    """The features of a level are read-only rows of the one unchirped stack
    the library has just made, not copies of it: disjoint from each other
    and from every array of the caller."""
    th = ThetaParam(math.pi / 3)
    layers, phi = make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"])
    f = banded_signal(grid, th, 0.4, 59)
    f = f.with_values(10.0 * f.values)
    tree = extract_features(f, layers, 2, th, level0_atom=phi)
    callers = [f.values, phi.values, *(layer.kernels for layer in layers),
               *(atom.values for atom in layers[0].bank.atoms)]
    for level in tree.levels:
        rows = [feature.values for feature in level.values()]
        assert len({id(np.asarray(row).base) for row in rows}) == 1  # one stack, no copies
        for i, row in enumerate(rows):
            assert not row.flags.writeable
            assert not any(np.shares_memory(row, other) for other in rows[:i] + callers)


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_shrink_threshold_must_be_finite(b):
    with pytest.raises(ValueError, match="^shrink threshold must be nonnegative and finite$"):
        Nonlinearity("phase_covariant_shrink", b)


@pytest.fixture(scope="module")
def cascade():
    """A depth-2 cascade on 1-D 128 samples and a signal for it."""
    grid, th = Grid(1, 128, 8.0), ThetaParam(math.pi / 3)
    layers, _ = make_s1_layers(grid, th, (1.0, 1.0), ["identity", "identity"])
    return types.SimpleNamespace(th=th, layers=layers, f=banded_signal(grid, th, 0.4, 61))


def _tree(c, path):
    return FeatureTree(({(): c.f}, {path: c.f}), c.th, True)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda c: _tree(c, ()), ValueError, "^level 1 contains a path of length 0$"),
        (lambda c: energy_profile(c.f, c.layers, -1, c.th), ValueError,
         "^depth must be nonnegative$"),
        (lambda c: energy_profile(random_signal(Grid(1, 64, 8.0), 62), c.layers, 1, c.th),
         GridMismatch, "^layer atoms and signal live on different grids$"),
        (lambda c: feature_distance(_tree(c, (0,)), _tree(c, (1,)), 1), KeyMismatch,
         "^level 1 features are indexed by different paths$"),
        (lambda c: invariance_bound(0.1, c.th, (2.0, 0.5), 1.0, 1.0), ValueError,
         "^pooling factors must be at least 1$"),
    ],
    ids=["tree-path-length", "negative-depth", "layer-grid", "distance-paths", "bound-pooling"],
)
def test_scatter_refusals(cascade, call, error, message):
    with pytest.raises(error, match=message):
        call(cascade)


_BLAS_PROBE = """
import warnings
import numpy as np
from frftkit import (AtomBank, Grid, LayerConfig, Nonlinearity, SampledSignal, ThetaParam,
                     energy_profile, extract_features, feature_distance, invariance_deviation)

warnings.simplefilter("ignore")  # the Gaussian bank need not be admissible
theta = ThetaParam(np.pi / 3)
for grid in (Grid(1, 16384, 64.0), Grid(2, 128, 8.0)):
    coords = grid.coordinates()

    def gauss(width, freq, seed=None):
        values = 0.3 * np.exp(-np.pi * sum(c**2 for c in coords) / width**2
                              + 2j * np.pi * freq * coords[0])
        if seed is not None:
            values = values * (1 + 0.1 * np.random.default_rng(seed).standard_normal(grid.size))
        return SampledSignal(grid, values)

    bank = AtomBank((gauss(1.0, -0.5), gauss(1.0, 0.5)), theta)
    layers = [LayerConfig(bank, gauss(1.5, 0.0), Nonlinearity("phase_covariant_shrink", 1e-3))] * 2
    f, g = gauss(2.0, 0.0, 1), gauss(2.0, 0.0, 2)
    trees = [extract_features(h, layers, 2, theta) for h in (f, g)]
    print(*map(float.hex, energy_profile(f, layers, 2, theta)),
          float.hex(invariance_deviation(f, (grid.spacing,) * grid.n_dims, layers, 2, theta)),
          float.hex(feature_distance(*trees, 2)))
"""


def test_energies_do_not_depend_on_blas_threads():
    """The energy profile, the deviations and the feature distances of a
    depth-2 cascade, on 1-D 16384 samples and on 2-D 128², have the same
    bits at one and at two BLAS threads."""
    env = dict(os.environ)
    # The child imports the same package as this process, installed or not.
    package_root = os.path.dirname(os.path.dirname(frftkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert len(runs[0].splitlines()) == 2
    assert runs[0] == runs[1]
