"""Fiber decomposition and optimal shift-invariant approximation."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frftkit
from frftkit import (
    BadRank,
    FiberField,
    FiberGrid,
    GramianField,
    Grid,
    GridMismatch,
    NotHermitian,
    SampledSignal,
    SISModel,
    ThetaParam,
    TruncationLoss,
    WindowTooSmall,
    analytic_sinc_fibers,
    approximation_error,
    bandlimited_project,
    fiber_map,
    fit_sis,
    gramian_field,
    l2_norm,
    optimal_multitile,
    project,
    synthesize_generator,
    theta_translate,
)
from frftkit import approx
from frftkit.transform import centered_idft, chirp_modulate
from helpers import (
    banded_signal,
    fit_sis_reference,
    gather_reference,
    gauss_profile,
    gramian_reference,
    random_fiber_fields,
    random_signal,
)

PI3 = ThetaParam(math.pi / 3)


def sampled_band_member(grid, theta, m_band):
    """Indicator of the twisted band [0, m_band) realized on a signal grid."""
    p = round(grid.period)
    spec = np.zeros(grid.shape, dtype=np.complex128)
    lo = grid.samples_per_dim // 2
    if grid.n_dims == 1:
        spec[lo : lo + m_band * p] = 1.0
    else:
        spec[lo : lo + m_band * p, lo : lo + m_band * p] = 1.0
    tw = centered_idft(spec, grid.spacing)
    return chirp_modulate(SampledSignal(grid, tw.ravel()), theta, -1)


def test_fiber_grid_geometry():
    fg = FiberGrid(PI3, 1, 16, 4)
    assert fg.n_cells == 16
    assert fg.window_size == 9
    assert list(fg.offsets_1d) == list(range(-4, 5))
    assert len(fg.omega_axis) == 16
    assert fg.omega_axis[1] - fg.omega_axis[0] == pytest.approx(PI3.abs_sin / 16)
    fg2 = FiberGrid(PI3, 2, 8, 2)
    assert fg2.n_cells == 64
    assert fg2.window_size == 25
    assert len(fg2.offsets) == 25


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n_dims=st.sampled_from([1, 2]), sign=st.sampled_from([1, -1]), data=st.data())
def test_covering_window_reads_every_bin_once(n_dims, sign, data):
    """With ceil(N/2P) offsets each way, the fiber slots of the P cells read
    every spectrum bin exactly once, whatever the integer period P."""
    n = 2 ** data.draw(st.integers(2, 5 if n_dims == 2 else 9), label="log2 N")
    period = data.draw(st.integers(1, 2 * n), label="period")
    grid = Grid(n_dims, n, period / 2)
    fg = FiberGrid(ThetaParam(sign * math.pi / 3), n_dims, period, approx._covering_window(grid))
    layout = approx._fiber_layout(grid, fg)
    reads = np.bincount(layout.index[layout.valid], minlength=grid.size)
    assert np.all(reads == 1)


def test_fiber_energy_accounting_1d():
    grid = Grid(1, 256, 8.0)  # frequency period 16
    fg = FiberGrid(PI3, 1, 16, 7)
    f = banded_signal(grid, PI3, 0.6, 23)
    fib = fiber_map(f, fg)
    total = float(np.sum(np.abs(fib.data) ** 2)) / 16.0
    assert total == pytest.approx(l2_norm(f) ** 2, rel=1e-12)


def test_fiber_energy_accounting_2d():
    grid = Grid(2, 32, 4.0)  # frequency period 8, full coverage at window 2
    fg = FiberGrid(PI3, 2, 8, 2)
    f = random_signal(grid, 24)
    fib = fiber_map(f, fg)
    total = float(np.sum(np.abs(fib.data) ** 2)) / 64.0
    assert total == pytest.approx(l2_norm(f) ** 2, rel=1e-12)


def test_fibers_of_translate_differ_by_cell_scalars():
    """Integer twisted translations act on each fiber by a unit scalar."""
    grid = Grid(1, 256, 8.0)
    for theta_val in (math.pi / 3, -math.pi / 3, 2.0):
        th = ThetaParam(theta_val)
        fg = FiberGrid(th, 1, 16, 8)
        f = banded_signal(grid, th, 0.45, 5)
        base = fiber_map(f, fg).data
        for k in (1.0, 3.0, -2.0):
            moved = fiber_map(theta_translate(f, k, th), fg).data
            phase = np.exp(1j * np.pi * k * k * th.cot_t) * np.exp(
                -2j * np.pi * k * fg.omega_axis * th.csc_t
            )
            assert np.max(np.abs(moved - phase[:, None] * base)) < 1e-12


def test_fiber_map_guards():
    f = banded_signal(Grid(1, 256, 8.0), PI3, 0.6, 23)
    with pytest.raises(GridMismatch):
        fiber_map(f, FiberGrid(PI3, 1, 12, 4))  # 12 does not divide period 16
    with pytest.raises(ValueError):
        FiberGrid(PI3, 1, 16, 0)
    wideband = random_signal(Grid(1, 256, 8.0), 77)
    with pytest.raises(TruncationLoss):
        fiber_map(wideband, FiberGrid(PI3, 1, 16, 1))
    with pytest.raises(GridMismatch):
        fiber_map(banded_signal(Grid(1, 64, 4.0), PI3, 0.5, 2), FiberGrid(PI3, 2, 8, 2))


def test_analytic_sinc_fibers_match_sampled_members():
    grid = Grid(1, 256, 8.0)
    fg = FiberGrid(PI3, 1, 16, 4)
    analytic = analytic_sinc_fibers(4, fg)
    for m_band in (1, 2, 3, 4):
        member = sampled_band_member(grid, PI3, m_band)
        sampled = fiber_map(member, fg)
        assert np.max(np.abs(sampled.data - analytic[m_band - 1].data)) < 1e-10


def test_analytic_sinc_window_guard():
    with pytest.raises(WindowTooSmall):
        analytic_sinc_fibers(5, FiberGrid(PI3, 1, 16, 4))


def test_gramian_field_against_direct_loop():
    fg = FiberGrid(PI3, 1, 8, 3)
    rng = np.random.default_rng(41)
    fibers = random_fiber_fields(fg, 3, rng)
    gram = gramian_field(fibers)
    assert gram.data.shape == (8, 3, 3)
    for w in range(8):
        for i in range(3):
            for j in range(3):
                direct = np.sum(fibers[i].data[w] * np.conj(fibers[j].data[w]))
                assert gram.data[w, i, j] == pytest.approx(direct)


def test_sinc_gramians_are_min_matrices():
    fg1 = FiberGrid(PI3, 1, 16, 4)
    g1 = gramian_field(analytic_sinc_fibers(4, fg1))
    mins = np.minimum.outer(np.arange(1, 5), np.arange(1, 5))
    assert np.max(np.abs(g1.data - mins)) < 1e-10

    fg2 = FiberGrid(PI3, 2, 8, 4)
    g2 = gramian_field(analytic_sinc_fibers(4, fg2))
    assert np.max(np.abs(g2.data - mins.astype(float) ** 2)) < 1e-10


def test_gramian_field_rejects_non_hermitian():
    fg = FiberGrid(PI3, 1, 4, 1)
    bad = np.zeros((4, 2, 2), dtype=np.complex128)
    bad[:, 0, 1] = 1.0
    with pytest.raises(NotHermitian):
        GramianField(fg, bad)


def test_fit_sis_model_properties():
    fg = FiberGrid(PI3, 1, 8, 3)
    rng = np.random.default_rng(42)
    fibers = random_fiber_fields(fg, 4, rng)
    model = fit_sis(fibers, 2)
    assert model.ell == 2
    assert model.eigenvalues.shape == (8, 4)
    assert model.generators.shape == (2, 8, 7)
    # eigenvalues descending and nonnegative per cell
    assert np.all(np.diff(model.eigenvalues, axis=1) <= 1e-12)
    assert np.all(model.eigenvalues >= -1e-12)
    # generators orthonormal per cell
    for w in range(8):
        q = model.generators[:, w, :]
        assert np.max(np.abs(q @ q.conj().T - np.eye(2))) < 1e-10
    with pytest.raises(BadRank):
        fit_sis(fibers, 5)
    with pytest.raises(BadRank):
        fit_sis(fibers, 0)


def test_fit_sis_rank_deficient_family_gives_zero_generators():
    fg = FiberGrid(PI3, 1, 8, 3)
    rng = np.random.default_rng(45)
    a, b = random_fiber_fields(fg, 2, rng)
    model = fit_sis([a, b, a], 3)  # duplicated member: every Gramian has rank 2
    top = model.eigenvalues[:, 0]
    assert np.all(model.eigenvalues[:, 2] <= 1e-10 * top)
    assert np.all(model.generators[2] == 0.0)
    for w in range(fg.n_cells):
        q = model.generators[:2, w, :]
        assert np.max(np.abs(q @ q.conj().T - np.eye(2))) < 1e-10
    # the two live generators span every member
    assert approximation_error(fit_sis([a, b, a], 2)) < 1e-10


@pytest.mark.parametrize("n_dims, seed", [(1, 1), (2, 0)])
def test_error_of_a_family_within_rank_is_not_negative(n_dims, seed):
    """Three members that span two fibers per cell leave, at ell = 2, a
    tail of rounding-level eigenvalues whose mean is negative; the error
    counts them from 0.  A full-rank tail keeps its plain sum, bit for bit."""
    fg = FiberGrid(PI3, n_dims, 8, 3)
    a, b = random_fiber_fields(fg, 2, np.random.default_rng(seed))
    model = fit_sis([a, b, FiberField(fg, 0.5 * a.data - 2.0 * b.data)], 2)
    assert np.mean(np.sum(model.eigenvalues[:, 2:], axis=1)) < 0.0
    assert 0.0 <= approximation_error(model) < 1e-10
    full = fit_sis(random_fiber_fields(fg, 4, np.random.default_rng(seed)), 2)
    weight = PI3.abs_sin**n_dims
    assert approximation_error(full) == float(
        weight * np.mean(np.sum(full.eigenvalues[:, 2:], axis=1)))


@pytest.mark.parametrize("n_dims", [1, 2])
def test_fit_sis_eigenvalues_match_eigvalsh(n_dims):
    fg = FiberGrid(PI3, n_dims, 4, 2)
    fibers = random_fiber_fields(fg, 4, np.random.default_rng(46 + n_dims))
    model = fit_sis(fibers, 2)
    ref = np.linalg.eigvalsh(gramian_field(fibers).data)[:, ::-1]
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(model.eigenvalues - ref)) < 1e-12 * scale


def test_projection_is_idempotent_and_optimal():
    fg = FiberGrid(PI3, 1, 8, 3)
    rng = np.random.default_rng(43)
    fibers = random_fiber_fields(fg, 4, rng)
    model = fit_sis(fibers, 2)
    stack = np.stack([f.data for f in fibers])
    projs = np.stack([project(f, model).data for f in fibers])
    once = project(FiberField(fg, projs[1]), model).data
    assert np.max(np.abs(once - projs[1])) < 1e-10
    # per-cell fitted residual equals the eigenvalue tail
    fitted = np.sum(np.abs(stack - projs) ** 2, axis=(0, 2))
    tails = np.sum(model.eigenvalues[:, 2:], axis=1)
    assert np.max(np.abs(fitted - tails)) < 1e-10


def test_full_rank_fit_has_zero_error():
    fg = FiberGrid(PI3, 1, 8, 3)
    rng = np.random.default_rng(44)
    fibers = random_fiber_fields(fg, 3, rng)
    assert approximation_error(fit_sis(fibers, 3)) < 1e-10


@pytest.mark.parametrize("theta_val", [math.pi / 3, math.pi / 4, math.pi / 2])
def test_sinc_error_table_2d(theta_val):
    th = ThetaParam(theta_val)
    fg = FiberGrid(th, 2, 16, 4)
    fibers = analytic_sinc_fibers(4, fg)
    golden = np.array([6.1583, 2.3902, 0.6857]) * th.abs_sin**2
    errs = np.array([approximation_error(fit_sis(fibers, ell)) for ell in (1, 2, 3)])
    assert np.max(np.abs(errs - golden) / golden) < 1e-3
    assert approximation_error(fit_sis(fibers, 4)) < 1e-10


def test_sinc_error_table_1d():
    fg = FiberGrid(PI3, 1, 16, 4)
    fibers = analytic_sinc_fibers(4, fg)
    golden = np.array([1.709142, 0.709142, 0.283119]) * PI3.abs_sin
    errs = np.array([approximation_error(fit_sis(fibers, ell)) for ell in (1, 2, 3)])
    assert np.max(np.abs(errs - golden) / golden) < 1e-3


def test_sinc_mixing_weights_1d():
    """Known mixing weights of the three dominant generators, up to a
    global sign per generator."""
    model = fit_sis(analytic_sinc_fibers(4, FiberGrid(PI3, 1, 16, 4)), 3)
    golden = [
        (0.1206, 0.4534, 0.9162, 1.3892),
        (-1.0, -2.0, 0.0, 4.0),
        (2.3473, -1.6304, -6.1925, 6.1284),
    ]
    for j, gold in enumerate(golden):
        lam = model.eigenvalues[0, j]
        y = np.conj(model.eigenvectors[0][:, j])
        y = y / y[-1]
        c = np.real(y * np.arange(1, 5) / math.sqrt(lam))
        g = np.array(gold)
        err = min(float(np.max(np.abs(c - g))), float(np.max(np.abs(c + g))))
        assert err < 1e-3


def test_sinc_mixing_weights_2d():
    model = fit_sis(analytic_sinc_fibers(4, FiberGrid(PI3, 2, 8, 4)), 3)
    lam_golden = np.array([23.8417, 3.76815, 1.70448, 0.6857])
    assert np.max(np.abs(model.eigenvalues[0] - lam_golden) / lam_golden) < 1e-3
    golden = [
        (0.0184, 0.2855, 1.3020, 3.2768),
        (-0.1683, -2.1565, -3.9765, 8.2424),
        (1.0510, 9.4166, -21.4173, 12.2553),
    ]
    for j, gold in enumerate(golden):
        lam = model.eigenvalues[0, j]
        y = np.conj(model.eigenvectors[0][:, j])
        y = y / y[-1]
        c = np.real(y * np.arange(1, 5) ** 2 / math.sqrt(lam))
        g = np.array(gold)
        err = min(float(np.max(np.abs(c - g))), float(np.max(np.abs(c + g))))
        assert err < 1.1e-3


def test_synthesize_generator_roundtrip_1d():
    grid = Grid(1, 256, 8.0)
    fg = FiberGrid(PI3, 1, 16, 7)
    members = [
        banded_signal(grid, PI3, 0.5, seed) for seed in (61, 62, 63)
    ]
    model = fit_sis([fiber_map(m, fg) for m in members], 2)
    for i in range(2):
        phi = synthesize_generator(model, i, grid)
        back = fiber_map(phi, fg)
        assert np.max(np.abs(back.data - model.generators[i])) < 1e-10
    with pytest.raises(IndexError):
        synthesize_generator(model, 2, grid)
    with pytest.raises(GridMismatch):
        synthesize_generator(model, 0, Grid(1, 128, 6.0))


def test_synthesize_generator_roundtrip_2d():
    grid = Grid(2, 32, 4.0)
    fg = FiberGrid(PI3, 2, 8, 2)
    members = [random_signal(grid, seed) for seed in (71, 72)]
    model = fit_sis([fiber_map(m, fg) for m in members], 1)
    phi = synthesize_generator(model, 0, grid)
    back = fiber_map(phi, fg)
    assert np.max(np.abs(back.data - model.generators[0])) < 1e-10


def test_fiber_field_shape_validation():
    fg = FiberGrid(PI3, 1, 8, 3)
    with pytest.raises(ValueError):
        FiberField(fg, np.zeros((8, 6), dtype=np.complex128))


def test_non_finite_fibers_overflow_only_when_computed():
    """A caller's non-finite fibers are a ValueError; fibers the library
    computed from finite samples that overflowed are an OverflowError."""
    fg = FiberGrid(PI3, 1, 16, 8)
    data = np.ones((16, 17), dtype=np.complex128)
    data[2, 5] = np.inf
    with pytest.raises(ValueError, match="fiber data must be finite"):
        FiberField(fg, data)
    huge = SampledSignal(Grid(1, 256, 8.0), np.full(256, 1e308))
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="must be finite"):
        fiber_map(huge, fg)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


def test_layout_eviction_keeps_fibers_and_generators_bit_identical():
    """Fibers and generators come out the same whether their layout was
    cached, evicted by a bandlimited projection, or evicted by another grid."""
    grid, fg = Grid(2, 32, 4.0), FiberGrid(PI3, 2, 8, 2)
    members = [banded_signal(grid, PI3, 0.5, seed) for seed in (81, 82, 83)]

    def run():
        fibers = [fiber_map(m, fg) for m in members]
        model = fit_sis(fibers, 2)
        gen = synthesize_generator(model, 1, grid)
        return [_bits(f.data) for f in fibers] + [_bits(gen.values)]

    first = run()
    assert run() == first  # cached layout
    tiles = optimal_multitile([fiber_map(m, fg) for m in members], 2, 1)
    bandlimited_project(members[0], tiles)  # caches the projection's own layout
    assert run() == first
    other = Grid(2, 64, 4.0)
    fiber_map(banded_signal(other, PI3, 0.5, 84), FiberGrid(PI3, 2, 8, 4))
    assert run() == first


def test_cached_layout_tables_are_read_only():
    grid, fg = Grid(1, 128, 4.0), FiberGrid(PI3, 1, 8, 8)  # the window covers every bin
    fiber_map(random_signal(grid, 85), fg)
    layout = approx._fiber_layout(grid, fg)
    assert approx._live_layout is layout
    for table in (layout.index, layout.valid, layout.weight):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_grid_mismatch_keeps_the_cached_layout():
    grid, fg = Grid(1, 128, 4.0), FiberGrid(PI3, 1, 8, 8)
    f = random_signal(grid, 86)
    before = fiber_map(f, fg)
    layout = approx._live_layout
    with pytest.raises(GridMismatch):
        fiber_map(f, FiberGrid(PI3, 1, 3, 8))  # 3 cells do not divide the period 8
    with pytest.raises(GridMismatch):
        fiber_map(random_signal(Grid(2, 16, 2.0), 87), fg)  # wrong dimension
    assert approx._live_layout is layout
    assert _bits(fiber_map(f, fg).data) == _bits(before.data)


def test_results_never_share_a_callers_array():
    fg = FiberGrid(PI3, 1, 4, 1)
    rng = np.random.default_rng(88)
    data = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    fib = FiberField(fg, data)
    assert not np.shares_memory(fib.data, data)
    gram = GramianField(fg, np.einsum("wi,wj->wij", data, data.conj()))
    assert not gram.data.flags.writeable
    model = fit_sis([fib, FiberField(fg, data[::-1])], 1)
    arrays = (model.eigenvalues, model.eigenvectors, model.generators)
    copied = SISModel(fg, 1, *arrays)
    for mine, theirs in zip(arrays, (copied.eigenvalues, copied.eigenvectors, copied.generators)):
        assert not np.shares_memory(mine, theirs)
        assert not theirs.flags.writeable
    data[:] = 0.0  # the caller's array changes; the field does not
    assert np.all(fib.data != 0.0)


@pytest.mark.parametrize(
    "grid, cells, window",
    [(Grid(1, 256, 8.0), 16, 8), (Grid(2, 32, 4.0), 8, 2), (Grid(2, 128, 8.0), 16, 4)],
    ids=["1d", "2d-32", "2d-128"],
)
@pytest.mark.parametrize("theta_val", [math.pi / 3, -math.pi / 3], ids=["sin+", "sin-"])
def test_gather_matches_the_full_spectrum_reference(grid, cells, window, theta_val):
    """The layout's weight table applies the sign table and the Riemann
    weight at the slots only.  Every nonzero component keeps the bits of the
    reference, which applies both to the whole spectrum; a zero component may
    differ from it only in its sign, and off the grid it is +0.0."""
    th = ThetaParam(theta_val)
    layout = approx._fiber_layout(grid, FiberGrid(th, grid.n_dims, cells, window))
    assert not np.all(layout.valid)  # the window reaches past the grid
    for f in (random_signal(grid, 90), banded_signal(grid, th, 0.5, 91)):
        got, want = approx._gather(f, layout)[1], gather_reference(f, layout)
        assert np.array_equal(got, want)
        nonzero = want.view(np.float64) != 0.0
        assert got.view(np.float64)[nonzero].tobytes() == want.view(np.float64)[nonzero].tobytes()
        assert not np.any(np.signbit(got[~layout.valid].view(np.float64)))


@pytest.mark.parametrize("n_dims, cells, window, m, ell",
                         [(1, 16, 8, 3, 1), (2, 16, 4, 4, 2)], ids=["1d", "2d"])
def test_gramian_and_fit_match_the_einsum_route(n_dims, cells, window, m, ell):
    """Gramians and generators by batched matrix products agree with the
    einsum route to rounding.  Members scaled by 2^-j keep every cell's eigenvalues
    apart, so that rounding moves the eigenvectors by about ε, not ε over a
    small gap."""
    fg = FiberGrid(PI3, n_dims, cells, window)
    fibers = [FiberField(fg, f.data * 2.0**-j) for j, f in
              enumerate(random_fiber_fields(fg, m, np.random.default_rng(92)))]

    def close(got, want, scale):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    want = gramian_reference(fibers)
    close(gramian_field(fibers).data, want, np.max(np.abs(want)))
    model = fit_sis(fibers, ell)
    values, vectors, generators = fit_sis_reference(fibers, ell)
    close(model.eigenvalues, values, np.max(values))
    close(model.eigenvectors, vectors, 1.0)
    close(model.generators, generators, np.max(np.abs(generators)))
    assert model.generators.flags.c_contiguous


_BLAS_PROBE = """
import hashlib
import numpy as np
from frftkit import (FiberGrid, Grid, SampledSignal, ThetaParam, approximation_error,
                     fiber_map, fit_sis, gramian_field)

theta = ThetaParam(np.pi / 3)
for grid, cells, window in ((Grid(2, 128, 8.0), 16, 4), (Grid(1, 1024, 16.0), 32, 16)):
    rng = np.random.default_rng(93)
    fgrid = FiberGrid(theta, grid.n_dims, cells, window)
    fibers = [fiber_map(SampledSignal(grid, rng.standard_normal(grid.size)
                                      + 1j * rng.standard_normal(grid.size)), fgrid)
              for _ in range(4)]
    model = fit_sis(fibers, 2)
    arrays = (gramian_field(fibers).data, model.eigenvalues, model.eigenvectors,
              model.generators)
    digests = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
               for a in arrays]
    print(grid.n_dims, *digests, float.hex(approximation_error(model)))
"""


def test_sis_fit_bits_do_not_depend_on_blas_threads():
    """The generators and the real part of the Gramians run through BLAS
    gemm: on a 2-D 128² and a 1-D family (m = 4, ell = 2) the Gramians, the
    eigenpairs, the generators and the approximation error have the same bits
    at one and at two BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k != "FRFTKIT_THREADS"}
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
