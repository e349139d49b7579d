"""Transform-level checks: unitarity, oracle agreement, axis handling."""
import math
import os
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from frftkit import (
    AngleDegenerate,
    AtomBank,
    FiberGrid,
    Grid,
    GridTooLarge,
    LayerConfig,
    SampledSignal,
    ThetaParam,
    bandlimited_project,
    covariance_deviation,
    energy_profile,
    extract_features,
    fiber_map,
    fit_sis,
    frame_bounds,
    frft,
    frft_direct_oracle,
    frft_output_grid,
    inner_product,
    invariance_deviation,
    inverse_frft,
    l2_norm,
    optimal_multitile,
    synthesize_generator,
    theta_convolve,
    theta_dilate,
    theta_translate,
    u_path,
)
from frftkit import transform
from frftkit.cli import main, write_signal
from frftkit.transform import chirp_modulate
from helpers import banded_signal, dft_matrix_oracle, make_s1_layers, random_signal

GENERIC_ANGLES = [math.pi / 6, math.pi / 3, 2 * math.pi / 5, -math.pi / 3, 2.0, 4.0]


@pytest.mark.parametrize("theta_val", GENERIC_ANGLES)
def test_roundtrip_and_parseval_1d(theta_val):
    grid = Grid(1, 256, 8.0)
    th = ThetaParam(theta_val)
    f = random_signal(grid, 11)
    out = frft(f, th)
    back = inverse_frft(out, th)
    scale = l2_norm(f)
    assert abs(l2_norm(out) - scale) <= 1e-8 * scale
    assert np.max(np.abs(back.values - f.values)) <= 1e-8 * scale
    assert back.grid == grid


@pytest.mark.parametrize("theta_val", GENERIC_ANGLES)
def test_roundtrip_and_parseval_2d(theta_val):
    grid = Grid(2, 32, 4.0)
    th = ThetaParam(theta_val)
    f = random_signal(grid, 12)
    out = frft(f, th)
    back = inverse_frft(out, th)
    scale = l2_norm(f)
    assert abs(l2_norm(out) - scale) <= 1e-8 * scale
    assert np.max(np.abs(back.values - f.values)) <= 1e-8 * scale


def assert_matches_oracle_both_ways(f, th):
    fast = frft(f, th)
    slow = frft_direct_oracle(f, th)
    assert fast.grid == slow.grid
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-12
    # The discrete inverse is the quadrature of the kernel at -theta.
    back = inverse_frft(fast, th)
    slow_back = frft_direct_oracle(fast, ThetaParam(-th.theta))
    assert back.grid == slow_back.grid == f.grid
    assert np.max(np.abs(back.values - slow_back.values)) <= 1e-12


@pytest.mark.parametrize("theta_val", GENERIC_ANGLES)
def test_matches_direct_oracle_1d(theta_val):
    grid = Grid(1, 256, 8.0)
    assert_matches_oracle_both_ways(random_signal(grid, 13), ThetaParam(theta_val))


@pytest.mark.parametrize("theta_val", [math.pi / 3, 2 * math.pi / 5, -1.0, -2.5])
def test_matches_direct_oracle_2d(theta_val):
    grid = Grid(2, 32, 4.0)
    assert_matches_oracle_both_ways(random_signal(grid, 14), ThetaParam(theta_val))


@pytest.mark.parametrize(
    "n, extent, theta_val, tol",
    [(256, 8.0, t, 1e-9) for t in (math.pi / 3, -math.pi / 3, 2 * math.pi / 3)]
    + [(1 << 16, 64.0, t, 1e-12)
       for t in (math.pi / 3, -math.pi / 3, 2 * math.pi / 3, math.pi / 6)],
    ids=["256-pi/3", "256--pi/3", "256-2pi/3",
         "2^16-pi/3", "2^16--pi/3", "2^16-2pi/3", "2^16-pi/6"],
)
def test_gaussian_matches_the_continuum_closed_form(n, extent, theta_val, tol):
    """For g(t) = e^{-pi t²/σ²}, |F_θ g(ω)| = |sin θ|^{-1/2} |A|^{-1/2}
    e^{-pi ω² csc²θ σ^{-2} / |A|²} with A = σ^{-2} - i cot θ: a reference
    that does not go through the FFT path.  The 2^16 grid runs on a plan
    that stores half of each chirp table."""
    sigma = 3.0
    grid = Grid(1, n, extent)
    t = grid.axis
    out = frft(SampledSignal(grid, np.exp(-np.pi * t**2 / sigma**2)), ThetaParam(theta_val))
    sin, cot = math.sin(theta_val), 1.0 / math.tan(theta_val)
    a = abs(complex(sigma**-2, -cot))
    w = out.grid.axis
    want = abs(sin) ** -0.5 * a**-0.5 * np.exp(-np.pi * w**2 / (sin**2 * sigma**2 * a**2))
    assert np.max(np.abs(np.abs(out.values) - want)) <= tol * want.max()


def test_quarter_turn_is_classical_fourier_transform():
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(math.pi / 2)
    f = random_signal(grid, 15)
    out = frft(f, th)
    classical = dft_matrix_oracle(f.as_nd(), grid.spacing, grid.period)
    assert out.grid.spacing == pytest.approx(1.0 / grid.period)
    assert np.max(np.abs(out.values - classical.ravel())) < 1e-8

    grid2 = Grid(2, 16, 4.0)
    f2 = random_signal(grid2, 16)
    out2 = frft(f2, th)
    classical2 = dft_matrix_oracle(f2.as_nd(), grid2.spacing, grid2.period)
    assert np.max(np.abs(out2.values - classical2.ravel())) < 1e-8


def test_axis_angles_identity_and_reflection():
    grid = Grid(1, 64, 4.0)
    f = random_signal(grid, 17)
    assert np.array_equal(frft(f, ThetaParam(0.0)).values, f.values)
    assert np.array_equal(frft(f, ThetaParam(2 * math.pi)).values, f.values)
    flipped = frft(f, ThetaParam(math.pi)).values
    idx = (-np.arange(grid.size)) % grid.size
    assert np.max(np.abs(flipped - f.values[idx])) == 0.0
    # reflection twice is the identity
    again = frft(SampledSignal(grid, flipped), ThetaParam(math.pi)).values
    assert np.array_equal(again, f.values)


def test_axis_angles_2d_reflection():
    grid = Grid(2, 16, 4.0)
    f = random_signal(grid, 18)
    flipped = frft(f, ThetaParam(-math.pi)).as_nd()
    idx = (-np.arange(grid.samples_per_dim)) % grid.samples_per_dim
    expected = f.as_nd()[np.ix_(idx, idx)]
    assert np.max(np.abs(flipped - expected)) == 0.0


def test_output_grid_geometry():
    grid = Grid(1, 256, 8.0)
    for theta_val in GENERIC_ANGLES:
        th = ThetaParam(theta_val)
        og = frft_output_grid(grid, th)
        assert og.samples_per_dim == grid.samples_per_dim
        assert og.spacing == pytest.approx(th.abs_sin / grid.period, rel=1e-15)


@pytest.mark.parametrize("k", [0, 1, -1, 2])
def test_multiples_of_pi_are_refused_past_the_transform(k):
    """At theta = k*pi the transform is the identity or a reflection; every
    object built on the chirp refuses the angle with the one message."""
    th = ThetaParam(k * math.pi)
    grid = Grid(1, 64, 4.0)
    f = random_signal(grid, 19)
    message = re.escape(f"cot undefined at theta={th.theta!r}")
    with pytest.raises(AngleDegenerate, match=message):
        frft_output_grid(grid, th)
    with pytest.raises(AngleDegenerate, match=message):
        frame_bounds(AtomBank((f,), th))
    with pytest.raises(AngleDegenerate, match=message):
        LayerConfig(bank=AtomBank((f,), th), output_atom=f)
    with pytest.raises(AngleDegenerate, match=message):
        FiberGrid(th, 1, 8, 4)
    want = f.values if k % 2 == 0 else f.values[(-np.arange(grid.size)) % grid.size]
    for transform_fn in (frft, inverse_frft, frft_direct_oracle):
        assert np.array_equal(transform_fn(f, th).values, want)


def test_theta_param_degeneracy_window():
    with pytest.raises(AngleDegenerate):
        ThetaParam(1e-10)
    with pytest.raises(AngleDegenerate):
        ThetaParam(math.pi + 1e-10)
    # inside the snap window the angle is treated as an exact axis angle
    assert ThetaParam(1e-13).is_axis
    assert ThetaParam(1e-13).axis_parity == 0
    assert ThetaParam(math.pi - 1e-13).axis_parity == 1
    assert ThetaParam(-math.pi).axis_parity == 1
    assert not ThetaParam(math.pi / 2).is_axis


def test_oracle_size_caps():
    with pytest.raises(GridTooLarge):
        frft_direct_oracle(random_signal(Grid(1, 1024, 8.0), 19), ThetaParam(1.0))
    with pytest.raises(GridTooLarge):
        frft_direct_oracle(random_signal(Grid(2, 128, 8.0), 20), ThetaParam(1.0))


def test_inner_product_and_norm_consistency():
    grid = Grid(1, 64, 4.0)
    f = random_signal(grid, 21)
    g = random_signal(grid, 22)
    assert inner_product(f, f).real == pytest.approx(l2_norm(f) ** 2, rel=1e-12)
    assert abs(inner_product(f, f).imag) < 1e-12 * l2_norm(f) ** 2
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))
    with pytest.raises(ValueError):
        inner_product(f, random_signal(Grid(1, 128, 4.0), 23))


def test_transform_preserves_inner_products():
    grid = Grid(1, 128, 8.0)
    th = ThetaParam(2 * math.pi / 5)
    f = random_signal(grid, 24)
    g = random_signal(grid, 25)
    before = inner_product(f, g)
    after = inner_product(frft(f, th), frft(g, th))
    assert abs(after - before) <= 1e-8 * abs(before)


@pytest.mark.filterwarnings("ignore:dilation by")  # white noise folds; only bits matter
def test_plan_eviction_keeps_results_bit_identical(two_cpus):
    # The 2^16-sample grid builds its plans on two threads.
    for grid in (Grid(2, 32, 4.0), Grid(1, 1 << 16, 8.0)):
        th = ThetaParam(-2 * math.pi / 5)
        f = random_signal(grid, 41)
        g = random_signal(grid, 42)
        other = random_signal(Grid(1, 64, 2.0), 43)
        shift = (3 * grid.spacing, -grid.spacing)[:grid.n_dims]

        def results():
            F = frft(f, th)
            plan = transform._live_plan
            back = inverse_frft(F, th)
            assert transform._live_plan is plan  # the inverse reuses the forward plan
            return [
                F.values,
                back.values,
                chirp_modulate(f, th, -1).values,
                theta_convolve(f, g, th).values,
                theta_translate(f, shift, th).values,
                theta_dilate(f, 2, th).values,
                theta_dilate(f, Fraction(3, 2), th).values,
            ]

        first = results()
        F = frft(f, th)
        frft(other, ThetaParam(1.0))  # evicts the plan of (grid, th)
        assert transform._live_plan.in_grid == other.grid
        cold_back = inverse_frft(F, th)  # rebuilt from the output grid
        assert np.array_equal(cold_back.values, first[1])
        frft(other, ThetaParam(-1.0))
        again = results()
        for a, b in zip(first, again):
            assert np.array_equal(a, b)


@pytest.fixture
def two_cpus(monkeypatch):
    """A process that may run on two CPUs, with no ``FRFTKIT_THREADS`` cap."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("FRFTKIT_THREADS", raising=False)


@pytest.fixture
def thread_starts(monkeypatch):
    """A list that gets one entry per thread started while the test runs."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def _theta_results(f, g, th):
    """What ``frft``, ``inverse_frft`` and three operators make of ``f``; the
    first call builds the plan."""
    F = frft(f, th)
    return [
        F.values,
        inverse_frft(F, th).values,
        chirp_modulate(f, th, 1).values,
        theta_convolve(f, g, th).values,
        theta_dilate(f, Fraction(3, 2), th).values,
    ]


THRESHOLD_GRIDS = [Grid(1, 1 << 15, 3.7), Grid(1, 1 << 16, 3.7), Grid(1, 1 << 17, 3.7),
                   Grid(2, 256, 3.7)]


@pytest.mark.filterwarnings("ignore:dilation by")  # white noise folds; only bits matter
@pytest.mark.parametrize("theta_val", [2 * math.pi / 5, -2 * math.pi / 5], ids=["pos", "neg"])
@pytest.mark.parametrize("grid", THRESHOLD_GRIDS, ids=["1d-2^15", "1d-2^16", "1d-2^17", "2d-256"])
def test_threaded_plan_build_is_bit_identical(grid, theta_val, two_cpus, thread_starts,
                                              monkeypatch):
    """From 2^16 samples up a fresh plan starts one worker for its output
    table and stores rows 0..N/2 of each table; tables and results are those
    of a serial build, bit for bit."""
    th = ThetaParam(theta_val)
    f, g = random_signal(grid, 44), random_signal(grid, 45)
    monkeypatch.setattr(transform, "_live_plan", None)
    threaded = _theta_results(f, g, th)
    # At extent 3.7 the inverse's input grid misses the forward's by an ulp,
    # so a few plans are built.
    assert bool(thread_starts) == (grid.size >= 1 << 16)
    started = len(thread_starts)
    plan = transform._live_plan
    assert np.array_equal(plan.chirp_in, transform._signed_chirp(grid, th.cot_t, 1.0))
    assert np.array_equal(plan.chirp_out, transform._signed_chirp(
        frft_output_grid(grid, th), th.cot_t, plan.kernel_scale))
    assert not plan.chirp_in.flags.writeable and not plan.chirp_out.flags.writeable
    rows = grid.samples_per_dim // 2 + 1 if grid.size >= 1 << 16 else grid.samples_per_dim
    assert plan.chirp_in.shape == plan.chirp_out.shape == (rows,) + grid.shape[1:]

    monkeypatch.setenv("FRFTKIT_THREADS", "1")
    monkeypatch.setattr(transform, "_live_plan", None)
    serial = _theta_results(f, g, th)
    assert len(thread_starts) == started
    for a, b in zip(threaded, serial):
        assert np.array_equal(a, b)
    for name in ("chirp_in", "chirp_out"):
        assert getattr(plan, name).tobytes() == getattr(transform._live_plan, name).tobytes()


@pytest.mark.filterwarnings("ignore:dilation by")
def test_no_thread_outlives_a_call(two_cpus, thread_starts, monkeypatch):
    grid = Grid(1, 1 << 16, 3.7)
    th = ThetaParam(2 * math.pi / 5)
    f, g = random_signal(grid, 46), random_signal(grid, 47)
    F = frft(f, th)
    calls = [lambda: frft(f, th), lambda: inverse_frft(F, th),
             lambda: chirp_modulate(f, th, -1), lambda: theta_convolve(f, g, th),
             lambda: theta_dilate(f, Fraction(3, 2), th)]
    for call in calls:
        monkeypatch.setattr(transform, "_live_plan", None)  # each call builds a plan
        alive = threading.enumerate()
        started = len(thread_starts)
        call()
        assert len(thread_starts) == started + 1
        assert threading.enumerate() == alive


@pytest.mark.parametrize("cap", ["env", "affinity", "cpu_count"])
def test_one_thread_cap_starts_no_thread(cap, two_cpus, thread_starts, monkeypatch):
    if cap == "env":
        monkeypatch.setenv("FRFTKIT_THREADS", "1")
    elif cap == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:  # a platform without CPU affinity
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert transform._thread_cap() == 1
    monkeypatch.setattr(transform, "_live_plan", None)
    frft(random_signal(Grid(1, 1 << 16, 3.7), 48), ThetaParam(1.0))
    assert thread_starts == []


def test_worker_failure_reaches_the_caller(two_cpus, monkeypatch, tmp_path, capsys):
    grid = Grid(1, 1 << 16, 3.7)
    th = ThetaParam(1.0)
    out_grid = frft_output_grid(grid, th)
    signed_chirp, failed_in = transform._signed_chirp, []

    def failing(table_grid, *args):
        if table_grid == out_grid:
            failed_in.append(threading.current_thread())
            raise MemoryError("no room for the output table")
        return signed_chirp(table_grid, *args)

    monkeypatch.setattr(transform, "_signed_chirp", failing)
    monkeypatch.setattr(transform, "_live_plan", None)
    f = random_signal(grid, 49)
    alive = threading.active_count()
    with pytest.raises(MemoryError, match="no room"):
        frft(f, th)
    assert failed_in and failed_in[0] is not threading.main_thread()
    assert transform._live_plan is None
    assert threading.active_count() == alive

    src, dst = tmp_path / "f.csv", tmp_path / "F.csv"
    write_signal(str(src), f)
    assert main(["frft", "--in", str(src), "--out", str(dst), "--theta", "1.0"]) == 3
    assert "no room for the output table" in capsys.readouterr().err
    assert not dst.exists() and transform._live_plan is None


def _reflected(a):
    """``a`` under j -> (N - j) mod N on every axis."""
    for axis in range(a.ndim):
        a = np.take(a, (-np.arange(a.shape[axis])) % a.shape[axis], axis=axis)
    return a


def _whole(table, n):
    """A stored table on ``n`` samples per axis with its first axis whole:
    rows ``N/2+1..N-1`` mirrored from the stored rows ``N/2-1..1``."""
    if table.shape[0] == n:
        return table
    return np.concatenate([table, table[n // 2 - 1:0:-1]])


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("cot", [1.7, -0.45])
@pytest.mark.parametrize("extent", [4.0, 3.7])
@pytest.mark.parametrize(
    "n_dims,n", [(1, 4), (1, 8), (1, 256), (1, 16384), (1, 1 << 16), (1, 1 << 17),
                 (2, 4), (2, 8), (2, 64), (2, 256)],
    ids=["1d-4", "1d-8", "1d-256", "1d-16384", "1d-2^16", "1d-2^17",
         "2d-4", "2d-8", "2d-64", "2d-256"],
)
def test_signed_chirp_matches_direct_table(n_dims, n, extent, cot, scale):
    """The orthant-and-mirror table is symmetric bit for bit, read-only, and
    the directly evaluated signed chirp up to the last ulp of cos and sin.
    From 2^16 samples only rows 0..N/2 of the first axis are stored."""
    grid = Grid(n_dims, n, extent)
    table = transform._signed_chirp(grid, cot, scale)
    rows = n // 2 + 1 if grid.size >= 1 << 16 else n
    assert table.shape == (rows,) + grid.shape[1:] and not table.flags.writeable
    whole = _whole(table, n)
    assert whole.tobytes() == _reflected(whole).tobytes()
    direct = np.exp(1j * np.pi * cot * grid.radius_squared()).reshape(grid.shape) * scale
    signs = 1 - 2 * (np.indices(grid.shape).sum(axis=0) % 2)
    assert np.max(np.abs(whole - direct * signs)) <= 1e-15 * scale


def _half_table_results(f, g, th):
    """Every product with a table: the plan's own on a batch of 2, and the
    public transforms, operators and a modulus layer of the cascade."""
    plan = transform._chirp_plan(f.grid, th)
    x = np.stack([f.as_nd(), g.as_nd()])
    X = plan.forward(x)
    F = frft(f, th)
    shift = tuple(3 * f.grid.spacing for _ in range(f.grid.n_dims))
    layers, _ = make_s1_layers(f.grid, th, (1.0,), ["modulus"])
    features = extract_features(f, layers, 1, th)
    return [
        X, plan.inverse(X), plan.chirp(x), plan.unchirp(x.copy()),
        F.values, inverse_frft(F, th).values,
        chirp_modulate(f, th, 1).values, chirp_modulate(f, th, -1).values,
        theta_translate(f, shift, th).values, theta_convolve(f, g, th).values,
        theta_dilate(f, Fraction(3, 2), th).values, theta_dilate(f, 2, th).values,
    ] + [v.values for level in features.levels for v in level.values()]


@pytest.mark.filterwarnings("ignore:dilation by")  # white noise folds; only bits matter
@pytest.mark.parametrize("theta_val", [2 * math.pi / 5, -2 * math.pi / 5], ids=["pos", "neg"])
@pytest.mark.parametrize(
    "grid", [Grid(1, 1 << 16, 64.0), Grid(1, 1 << 17, 64.0), Grid(2, 256, 16.0)],
    ids=["1d-2^16", "1d-2^17", "2d-256"],
)
def test_half_tables_give_the_bytes_of_whole_tables(grid, theta_val, monkeypatch):
    """Every product with a stored half table gives the bytes that the whole
    table, mirrored from the stored rows, gives."""
    th = ThetaParam(theta_val)
    f, g = random_signal(grid, 50), random_signal(grid, 51)
    monkeypatch.setattr(transform, "_live_plan", None)
    half = _half_table_results(f, g, th)
    assert transform._live_plan.chirp_in.shape[0] == grid.samples_per_dim // 2 + 1

    init = transform._ChirpPlan.__init__

    def whole_tables(plan, *args):
        init(plan, *args)
        n = plan.in_grid.samples_per_dim
        plan.chirp_in, plan.chirp_out = _whole(plan.chirp_in, n), _whole(plan.chirp_out, n)
        plan.halves = None

    monkeypatch.setattr(transform._ChirpPlan, "__init__", whole_tables)
    monkeypatch.setattr(transform, "_live_plan", None)
    whole = _half_table_results(f, g, th)
    assert transform._live_plan.chirp_in.shape == grid.shape
    assert len(half) == len(whole)
    for a, b in zip(half, whole):
        assert a.tobytes() == b.tobytes()


def test_large_plan_allocates_half_tables(monkeypatch):
    """A fresh plan on 1-D 2^18 samples holds about 4 MiB of tables, not 8."""
    from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (its import is not the plan's)

    grid, th = Grid(1, 1 << 18, 64.0), ThetaParam(1.0)
    out_grid = frft_output_grid(grid, th)
    monkeypatch.setattr(transform, "_live_plan", None)
    tracemalloc.start()
    try:
        plan = transform._ChirpPlan(grid, out_grid, th)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = 2 * ((1 << 17) + 1) * 16
    assert plan.chirp_in.nbytes + plan.chirp_out.nbytes == tables
    assert tables <= current < tables + (1 << 18)


def test_overflowing_transform_is_rejected():
    """A finite signal whose transform overflows raises; no inf is returned."""
    f = SampledSignal(Grid(1, 1024, 4.0), np.full(1024, 1e307))
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="non-finite"):
        frft(f, ThetaParam(0.7))


def test_owned_results_keep_the_checks_and_skip_only_the_copy():
    grid = Grid(1, 64, 4.0)
    raw = random_signal(grid, 5).values.copy()
    f = SampledSignal(grid, raw)
    assert not np.shares_memory(f.values, raw) and not f.values.flags.writeable
    assert not frft(f, ThetaParam(0.9)).values.flags.writeable
    fresh = np.ones(64, dtype=np.complex128)
    owned = SampledSignal._owning(grid, fresh)
    assert np.shares_memory(owned.values, fresh) and not owned.values.flags.writeable
    with pytest.raises(OverflowError, match="non-finite"):
        SampledSignal._owning(grid, np.full(64, complex(np.nan, 0.0)))
    with pytest.raises(ValueError, match="expected 64 samples"):
        SampledSignal._owning(grid, np.zeros(32, dtype=np.complex128))


def test_non_finite_caller_samples_stay_a_value_error():
    """Only a library result that is not finite counts as an overflow."""
    grid = Grid(1, 64, 4.0)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones(64, dtype=np.complex128)
        values[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SampledSignal(grid, values)
        with pytest.raises(OverflowError, match="non-finite"):
            SampledSignal._owning(grid, values)


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_chirp_modulate_refuses_other_signs(sign):
    f = random_signal(Grid(1, 64, 4.0), 7)
    with pytest.raises(ValueError, match=f"^sign must be \\+1 or -1, got {sign}$"):
        chirp_modulate(f, ThetaParam(0.9), sign)


@pytest.mark.filterwarnings("ignore::frftkit.AliasRiskWarning")  # the modulus widens the band
def test_only_the_plan_transforms_chirped_samples(monkeypatch):
    """Every ``fftn``/``ifftn`` that the cascade, the fibers, the operators,
    the frame bounds and the transform run is called from this module, the
    plan's.  ``partial_projection`` is left out: its pair of transforms runs
    over the cell axes of its coefficients, not over chirped samples."""
    callers = []

    def recording(transform):
        def wrapper(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return transform(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.fft, "fftn", recording(np.fft.fftn))
    monkeypatch.setattr(np.fft, "ifftn", recording(np.fft.ifftn))
    grid, th = Grid(2, 32, 4.0), ThetaParam(math.pi / 3)
    f = banded_signal(grid, th, 0.4, 41)
    shift = (grid.spacing, -2 * grid.spacing)
    # A modulus commutes with twisted shifts only where the chirp is flat.
    flat = ThetaParam(math.pi / 2)
    cascades = [
        (make_s1_layers(grid, th, (2.0, 1.0), ["identity", "phase_covariant_shrink"])[0], th),
        (make_s1_layers(grid, flat, (2.0, 1.0), ["modulus", "identity"])[0], flat),
    ]
    for layers, angle in cascades:
        energy_profile(f, layers, 2, angle)
        invariance_deviation(f, shift, layers, 2, angle)
        covariance_deviation(f, shift, layers, 2, angle)
        extract_features(f, layers, 2, angle)
        u_path(f, (1, 0), layers, angle)
    line = Grid(1, 256, 8.0)  # period 16: 16 cells, window 8
    members = [banded_signal(line, th, 0.6, seed) for seed in (71, 72)]
    fgrid = FiberGrid(th, 1, 16, 8)
    fibers = [fiber_map(m, fgrid) for m in members]
    synthesize_generator(fit_sis(fibers, 1), 0, line)
    bandlimited_project(members[0], optimal_multitile(fibers, 2, 3))
    g = random_signal(grid, 5)
    theta_convolve(f, g, th)
    for factor in (2, Fraction(3, 2)):
        theta_dilate(f, factor, th)
    frame_bounds(AtomBank((f, g), th))
    inverse_frft(frft(f, th), th)
    assert callers
    assert set(callers) == {"frftkit.transform"}
