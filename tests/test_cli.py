"""Command-line interface: file formats, exit codes, determinism."""
import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frftkit
from frftkit import (
    AtomBank,
    FiberGrid,
    Grid,
    LayerConfig,
    Nonlinearity,
    SampledSignal,
    ShiftVector,
    ThetaParam,
    analytic_sinc_fibers,
    approximation_error,
    bandlimited_project,
    extract_features,
    fiber_map,
    fit_sis,
    frame_bounds,
    frft,
    invariance_bound,
    invariance_deviation,
    l2_norm,
    optimal_multitile,
    theta_translate,
)
from frftkit import cli
from frftkit.cli import CliParseError, main, read_signal, write_signal
from frftkit.grids import _energy
from helpers import banded_signal, make_s1_layers, random_signal

PI3 = ThetaParam(math.pi / 3)


def write_csv(path, signal):
    write_signal(str(path), signal)
    return str(path)


def test_signal_file_roundtrip(tmp_path):
    f = random_signal(Grid(1, 64, 4.0), 1)
    path = write_csv(tmp_path / "f.csv", f)
    back = read_signal(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)
    f2 = random_signal(Grid(2, 16, 4.0), 2)
    path2 = write_csv(tmp_path / "f2.csv", f2)
    back2 = read_signal(path2)
    assert back2.grid == f2.grid
    assert np.array_equal(back2.values, f2.values)


#: Samples that stress the 17-digit format: signed zeros, the smallest
#: subnormal, magnitudes near the exponent limits and the largest float.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
           sys.float_info.max, -sys.float_info.max]


def special_signal(grid, seed):
    """Random samples over 600 decades, with SPECIAL in the first slots."""
    r = np.random.default_rng(seed)
    parts = r.standard_normal((2, grid.size)) * 10.0 ** r.integers(-300, 300, (2, grid.size))
    k = min(grid.size, len(SPECIAL))
    parts[0, :k] = SPECIAL[:k]
    parts[1, :k] = SPECIAL[::-1][:k]
    values = np.empty(grid.size, dtype=np.complex128)
    values.real, values.imag = parts
    return SampledSignal(grid, values)


def reference_csv(signal):
    """The signal CSV built one number at a time with format(x, ".17g")."""
    g = signal.grid
    lines = [f"# grid: {g.n_dims},{g.samples_per_dim},{format(g.extent, '.17g')}",
             "index,re,im"]
    lines += [f"{i},{format(float(v.real), '.17g')},{format(float(v.imag), '.17g')}"
              for i, v in enumerate(signal.values)]
    return "\n".join(lines) + "\n"


def reference_table(head, rows):
    """The ``head`` lines, then ``rows`` built one cell at a time: a string
    or an int as it is, any other number with format(x, ".17g")."""
    def cell(x):
        return str(x) if isinstance(x, (str, int)) else format(float(x), ".17g")

    return "\n".join([*head, *(",".join(map(cell, row)) for row in rows)]) + "\n"


def same_bits(a, b):
    """Same grid and the same bit pattern in every sample."""
    return a.grid == b.grid and np.array_equal(a.values.view(np.uint64),
                                               b.values.view(np.uint64))


@pytest.mark.parametrize(
    "grid",
    [Grid(1, 4, 2.0), Grid(1, 2048, 8.0), Grid(1, 4096, 8.0), Grid(1, 16384, 64.0),
     Grid(2, 64, 4.0)],
    ids=["1d-4", "1d-2048", "1d-4096", "1d-16384", "2d-64"],
)
def test_write_signal_bytes_match_format_reference(tmp_path, grid):
    """Block formatting writes the bytes of the one-number-at-a-time format,
    and the bulk reader takes those bytes back bit for bit."""
    f = special_signal(grid, grid.size)
    path = tmp_path / "f.csv"
    write_signal(path, f)
    text = reference_csv(f)
    assert path.read_bytes() == text.encode()
    fast = cli._read_canonical(text)
    assert fast is not None and same_bits(fast, f)
    assert same_bits(read_signal(path), f)


#: Tokens that Python's int or float may read but a bulk parser must not
#: read differently: underscores, signs, padding, non-ASCII digits,
#: non-finite spellings, a float index, U+001F padding (which loadtxt
#: takes as blank) and a Latin letter (which loadtxt reads as an index
#: digit).
TOKENS = ["1_0", "+5", " 7 ", "\u0661", "infinity", "nan", "1e400", "1.0", "-0",
          "1\x1f", "1\u01fe"]
#: Whole lines: blank, whitespace only, a comment, a grid header, one
#: with a fourth field and one cut in two by a form feed (a line break to
#: str.splitlines).
LINES = ["", "   ", "# a comment", "# grid: {n_dims},{n},{extent}",
         "# grid: {n_dims},{n},{extent},5", "# grid: {n_dims},{n}\f,{extent}"]

mutations = st.one_of(
    st.tuples(st.just("token"), st.integers(0, 15), st.integers(0, 2), st.sampled_from(TOKENS)),
    st.tuples(st.just("fields"), st.integers(0, 15), st.sampled_from([",", "drop"])),
    st.tuples(st.sampled_from(["insert", "replace"]), st.integers(0, 17), st.sampled_from(LINES)),
    st.tuples(st.just("header"), st.sampled_from(LINES)),
    st.tuples(st.just("crlf")),
    st.tuples(st.just("shuffle"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("duplicate"), st.integers(0, 15), st.integers(0, 15)),
    st.tuples(st.just("drop"), st.integers(0, 15)),
    st.tuples(st.just("truncate"), st.integers(0, 1000)),
)


def mutate(text, grid, mutation):
    """``text`` with one mutation applied; positions wrap onto the file."""
    kind, *arg = mutation
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "truncate":
        return text[: arg[0] % (len(text) + 1)]
    lines = text.splitlines()
    head, rows = lines[:2], lines[2:]
    if not rows:  # truncated before the first row: nothing left to mutate
        return text
    if kind == "token":
        fields = rows[arg[0] % len(rows)].split(",")
        fields[arg[1] % len(fields)] = arg[2]
        rows[arg[0] % len(rows)] = ",".join(fields)
    elif kind == "fields":
        i = arg[0] % len(rows)
        rows[i] = rows[i] + "," if arg[1] == "," else rows[i].rsplit(",", 1)[0]
    elif kind == "shuffle":
        random.Random(arg[0]).shuffle(rows)
    elif kind == "duplicate":
        i, j = arg[0] % len(rows), arg[1] % len(rows)
        rows[i] = rows[j].split(",")[0] + "," + rows[i].split(",", 1)[1]
    elif kind == "drop":
        del rows[arg[0] % len(rows)]
    else:
        lines = head + rows
        line = arg[-1].format(n_dims=grid.n_dims, n=grid.samples_per_dim,
                              extent=format(grid.extent, ".17g"))
        if kind == "header":
            lines[0] = line
        elif kind == "insert":
            lines.insert(arg[0] % (len(lines) + 1), line)
        else:
            lines[arg[0] % len(lines)] = line
        return "\n".join(lines) + "\n"
    return "\n".join(head + rows) + "\n"


def read_outcome(reader):
    """Bit pattern of what ``reader()`` returns, or the message it raises."""
    try:
        signal = reader()
    except CliParseError as exc:
        return "error", str(exc)
    return "ok", signal.grid, signal.values.view(np.uint64).tobytes()


@pytest.mark.parametrize("grid", [Grid(1, 8, 2.0), Grid(2, 4, 2.0)], ids=["1d", "2d"])
@settings(derandomize=True, deadline=None, max_examples=300)
@given(steps=st.lists(mutations, min_size=1, max_size=2))
def test_read_signal_matches_line_parser(grid, steps):
    """On mutated canonical files, read_signal gives the line parser's
    values bit for bit, or its error message."""
    text = reference_csv(special_signal(grid, 1))
    for step in steps:
        text = mutate(text, grid, step)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes(text.encode())
        want = read_outcome(lambda: cli._read_lines(path, path.read_text()))
        assert read_outcome(lambda: read_signal(path)) == want


def test_frft_command_roundtrip_and_oracle(tmp_path):
    f = random_signal(Grid(1, 64, 4.0), 3)
    src = write_csv(tmp_path / "f.csv", f)
    fwd = str(tmp_path / "F.csv")
    assert main(["frft", "--in", src, "--out", fwd, "--theta-frac", "1", "3"]) == 0
    expected = frft(f, PI3)
    got = read_signal(fwd)
    assert got.grid == expected.grid
    assert np.max(np.abs(got.values - expected.values)) < 1e-12

    back = str(tmp_path / "back.csv")
    assert main(["frft", "--inverse", "--in", fwd, "--out", back,
                 "--theta-frac", "1", "3"]) == 0
    assert np.max(np.abs(read_signal(back).values - f.values)) < 1e-10

    oracle = str(tmp_path / "Fo.csv")
    assert main(["frft", "--in", src, "--out", oracle, "--theta-frac", "1", "3",
                 "--oracle"]) == 0
    assert np.max(np.abs(read_signal(oracle).values - expected.values)) < 1e-8


def test_frft_outputs_are_byte_deterministic(tmp_path):
    f = random_signal(Grid(1, 64, 4.0), 4)
    src = write_csv(tmp_path / "f.csv", f)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["frft", "--in", src, "--out", a, "--theta-frac", "2", "5"]) == 0
    assert main(["frft", "--in", src, "--out", b, "--theta-frac", "2", "5"]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    # the fraction form and the equivalent float produce identical bytes
    c = str(tmp_path / "c.csv")
    assert main(["frft", "--in", src, "--out", c, "--theta",
                 repr(2 * math.pi / 5)]) == 0
    assert Path(a).read_bytes() == Path(c).read_bytes()


def test_ops_commands(tmp_path):
    grid = Grid(1, 128, 8.0)
    f = banded_signal(grid, PI3, 0.4, 5)
    g = banded_signal(grid, PI3, 0.4, 6)
    src = write_csv(tmp_path / "f.csv", f)
    other = write_csv(tmp_path / "g.csv", g)

    out = str(tmp_path / "t.csv")
    assert main(["ops", "translate", "--in", src, "--out", out,
                 "--theta-frac", "1", "3", "--shift", str(2 * grid.spacing)]) == 0
    want = theta_translate(f, 2 * grid.spacing, PI3)
    assert np.max(np.abs(read_signal(out).values - want.values)) < 1e-12

    assert main(["ops", "modulate", "--in", src, "--out", out,
                 "--theta-frac", "1", "3", "--shift", "0.5"]) == 0
    assert main(["ops", "convolve", "--in", src, "--with", other, "--out", out,
                 "--theta-frac", "1", "3"]) == 0
    assert main(["ops", "dilate", "--in", src, "--out", out,
                 "--theta-frac", "1", "3", "--factor", "2"]) == 0
    dil = read_signal(out)
    assert abs(l2_norm(dil) - 1.0) < 1e-6


def test_frames_command(tmp_path):
    grid = Grid(1, 128, 8.0)
    layers, phi = make_s1_layers(grid, PI3, (1.0,), ["identity"])
    paths = [
        write_csv(tmp_path / f"g{i}.csv", atom)
        for i, atom in enumerate(layers[0].bank.atoms)
    ]
    out = str(tmp_path / "spec.csv")
    assert main(["frames", "--atoms", *paths, "--out", out,
                 "--theta-frac", "1", "3"]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0].startswith("# grid: 1,128,")
    lower = float(lines[1].split(":")[1])
    upper = float(lines[2].split(":")[1])
    assert lines[3] == "omega,value"
    bounds = frame_bounds(layers[0].bank)
    assert lower == pytest.approx(bounds.lower, rel=1e-12, abs=1e-300)
    assert upper == pytest.approx(bounds.upper, rel=1e-12)
    assert len(lines) == 4 + grid.size


@pytest.mark.parametrize(
    "grid, frac",
    [(Grid(1, 256, 8.0), (1, 3)), (Grid(2, 32, 4.0), (-2, 5))],
    ids=["1d-pi/3", "2d--2pi/5"],
)
def test_frames_bytes_match_format_reference(tmp_path, grid, frac):
    """The header lines and every spectrum row are the one-number-at-a-time
    format of the library's frame bounds."""
    atoms = [random_signal(grid, s) for s in (21, 22)]
    paths = [write_csv(tmp_path / f"g{i}.csv", atom) for i, atom in enumerate(atoms)]
    out = tmp_path / "spec.csv"
    assert main(["frames", "--atoms", *paths, "--out", str(out),
                 "--theta-frac", *map(str, frac)]) == 0
    bounds = frame_bounds(AtomBank(atoms, ThetaParam(math.pi * frac[0] / frac[1])))
    g = bounds.grid
    names = ["omega"] if g.n_dims == 1 else ["omega_0", "omega_1"]
    head = [f"# grid: {g.n_dims},{g.samples_per_dim},{format(g.extent, '.17g')}",
            f"# lower: {format(bounds.lower, '.17g')}",
            f"# upper: {format(bounds.upper, '.17g')}",
            ",".join(names + ["value"])]
    rows = zip(*g.coordinates(), bounds.spectrum)
    assert out.read_bytes() == reference_table(head, rows).encode()


def scatter_config(tmp_path, depth=2, nonlin="phase_covariant_shrink",
                   theta_key=None, name="cascade.json", grid=Grid(1, 128, 8.0)):
    layers, phi = make_s1_layers(grid, PI3, (1.0, 1.0), ["identity", "identity"])
    atom_paths = []
    for i, atom in enumerate(layers[0].bank.atoms):
        write_csv(tmp_path / f"atom{i}.csv", atom)
        atom_paths.append(f"atom{i}.csv")
    write_csv(tmp_path / "phi.csv", phi)
    nl = {"kind": nonlin, "b": 0.01} if nonlin == "phase_covariant_shrink" else nonlin
    layer_doc = {"atoms": atom_paths, "output_atom": "phi.csv",
                 "nonlin": nl, "pool": "identity", "s": 1.0}
    doc = {
        "schema": 1,
        "depth": depth,
        "layers": [layer_doc, dict(layer_doc)],
    }
    doc.update(theta_key if theta_key is not None else {"theta_frac": [1, 3]})
    cfg = tmp_path / name
    cfg.write_text(json.dumps(doc))
    f = banded_signal(grid, PI3, 0.4, 11)
    sig = write_csv(tmp_path / "signal.csv", f)
    return str(cfg), sig, f


def test_scatter_extract(tmp_path):
    cfg, sig, f = scatter_config(tmp_path)
    out_dir = tmp_path / "features"
    assert main(["scatter", "extract", "--config", cfg, "--signal", sig,
                 "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "index.csv").read_text().splitlines()
    assert lines[0] == "# admissible: true"
    assert lines[1] == "level,path,norm,file"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 1 + 2 + 4  # root, two level-1 paths, four level-2 paths
    for level, path, norm, fname in rows:
        sig_file = out_dir / fname
        assert sig_file.exists()
        stored = read_signal(str(sig_file))
        assert float(norm) == pytest.approx(l2_norm(stored), rel=1e-12)


def test_scatter_invariance(tmp_path):
    cfg, sig, f = scatter_config(tmp_path)
    out = str(tmp_path / "inv.csv")
    spacing = 16.0 / 128.0
    assert main(["scatter", "invariance", "--config", cfg, "--signal", sig,
                 "--t", str(spacing), str(4 * spacing), "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "t,theta,deviation,bound"
    assert len(lines) == 3
    for ln in lines[1:]:
        t_val, theta_val, dev, bound = map(float, ln.split(","))
        assert theta_val == pytest.approx(math.pi / 3)
        assert 0.0 <= dev <= bound


def test_scatter_invariance_2d_scalar_shift_is_diagonal(tmp_path):
    """Each bare shift t is read as (t, t), and the k shifts, run as k + 1
    root cascades, give the bits of one library call per shift."""
    grid = Grid(2, 32, 4.0)
    cfg, sig, f = scatter_config(tmp_path, grid=grid)
    # Level 2 must clear the shrink threshold, or every deviation is 0.
    sig = write_csv(tmp_path / "signal.csv", f.with_values(100.0 * f.values))
    out = str(tmp_path / "inv.csv")
    ts = (2 * grid.spacing, -grid.spacing, 3 * grid.spacing)
    assert main(["scatter", "invariance", "--config", cfg, "--signal", sig,
                 "--t", *map(repr, ts), "--out", out]) == 0
    rows = Path(out).read_text().splitlines()[1:]
    assert len(rows) == len(ts)

    layers, _ = make_s1_layers(grid, PI3, (1.0, 1.0), ["identity", "identity"])
    layers = [LayerConfig(bank=layer.bank, output_atom=layer.output_atom,
                          nonlin=Nonlinearity("phase_covariant_shrink", 0.01))
              for layer in layers]
    signal = read_signal(sig)
    decay = max(layer.decay_constants[2] for layer in layers)
    for t, row in zip(ts, rows):
        _, _, dev, bound = map(float, row.split(","))
        shift = ShiftVector((t, t))
        assert bound == invariance_bound(shift, PI3, (1.0, 1.0), decay, l2_norm(signal))
        assert dev == invariance_deviation(signal, shift, layers, 2, PI3)
        assert 0.0 < dev <= bound


def test_scatter_tables_bytes_match_format_reference(tmp_path):
    """Every row of ``index.csv`` and of the invariance table is the
    one-number-at-a-time format of the library's norms, deviations and
    bounds."""
    cfg, sig, f = scatter_config(tmp_path)
    out_dir, inv = tmp_path / "features", tmp_path / "inv.csv"
    ts = [0.125, 0.5, -0.25]
    assert main(["scatter", "extract", "--config", cfg, "--signal", sig,
                 "--out-dir", str(out_dir)]) == 0
    assert main(["scatter", "invariance", "--config", cfg, "--signal", sig,
                 "--t", *map(repr, ts), "--out", str(inv)]) == 0
    theta, layers, depth = cli._load_scatter_config(cfg)
    signal = read_signal(sig)
    tree = extract_features(signal, layers, depth, theta)
    rows = []
    for level, features in enumerate(tree.levels):
        for path, feature in sorted(features.items()):
            label = "-".join(map(str, path)) or "root"
            rows.append((level, label, l2_norm(feature), f"feature_{level}_{label}.csv"))
    head = [f"# admissible: {str(tree.admissible).lower()}", "level,path,norm,file"]
    assert (out_dir / "index.csv").read_bytes() == reference_table(head, rows).encode()

    decay = max(layer.decay_constants[2] for layer in layers[:depth])
    rows = []
    for t in ts:
        shift = ShiftVector((t,))
        rows.append((t, theta.theta, invariance_deviation(signal, shift, layers, depth, theta),
                     invariance_bound(shift, theta, (1.0, 1.0), decay, l2_norm(signal))))
    head = ["t,theta,deviation,bound"]
    assert inv.read_bytes() == reference_table(head, rows).encode()


def test_approx_fit(tmp_path):
    grid = Grid(1, 256, 8.0)
    members = [banded_signal(grid, PI3, 0.5, s) for s in (61, 62, 63)]
    paths = [write_csv(tmp_path / f"m{i}.csv", m) for i, m in enumerate(members)]
    out_dir = tmp_path / "fit"
    assert main(["approx", "fit", "--data", *paths, "--ell", "2",
                 "--theta-frac", "1", "3", "--out-dir", str(out_dir)]) == 0
    doc = json.loads((out_dir / "model.json").read_text())
    assert doc["schema"] == 1
    assert doc["ell"] == 2
    assert doc["family_size"] == 3
    assert doc["omega_samples"] == 16
    assert doc["window"] == 8
    assert doc["theta"] == pytest.approx(math.pi / 3)
    assert len(doc["eigenvalues"]) == 16
    assert len(doc["eigenvalues"][0]) == 3
    assert len(doc["mixing"]) == 16
    assert len(doc["mixing"][0]) == 3
    assert len(doc["mixing"][0][0]) == 3
    assert len(doc["mixing"][0][0][0]) == 2

    fg = FiberGrid(PI3, 1, 16, 8)
    model = fit_sis([fiber_map(m, fg) for m in members], 2)
    assert doc["error"] == pytest.approx(approximation_error(model), rel=1e-10)
    for i in range(2):
        assert (out_dir / f"generator_{i}.csv").exists()
        gen = read_signal(str(out_dir / f"generator_{i}.csv"))
        assert gen.grid == grid

    # refitting into a second directory yields byte-identical artifacts
    out_dir2 = tmp_path / "fit2"
    assert main(["approx", "fit", "--data", *paths, "--ell", "2",
                 "--theta-frac", "1", "3", "--out-dir", str(out_dir2)]) == 0
    assert (out_dir / "model.json").read_bytes() == (out_dir2 / "model.json").read_bytes()


def test_approx_fit_takes_no_omega_samples(tmp_path, capsys):
    """The cell count is the period P, which no flag sets: ``--omega-samples``
    is an unknown argument (exit code 2)."""
    grid = Grid(1, 256, 8.0)
    paths = [write_csv(tmp_path / f"m{i}.csv", banded_signal(grid, PI3, 0.5, s))
             for i, s in enumerate((61, 62))]
    args = ["approx", "fit", "--data", *paths, "--ell", "1", "--theta-frac", "1", "3"]
    assert main([*args, "--omega-samples", "16", "--out-dir", str(tmp_path / "fit")]) == 2
    assert "unrecognized arguments: --omega-samples 16" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()
    assert main([*args, "--out-dir", str(tmp_path / "fit")]) == 0
    assert json.loads((tmp_path / "fit" / "model.json").read_text())["omega_samples"] == 16


@pytest.mark.parametrize("frac", [("1", "3"), ("-2", "5")], ids=["pi/3", "-2pi/5"])
@pytest.mark.parametrize(
    "grid,window",
    # The last grid is shorter than one period: P = 32 > N/2 = 8.
    [(Grid(1, 128, 6.0), 6), (Grid(2, 32, 3.0), 3), (Grid(1, 16, 16.0), 1)],
    ids=["1d-P12", "2d-P6", "1d-P32"],
)
def test_fits_run_where_the_period_does_not_divide_half_the_grid(tmp_path, grid, window, frac):
    """The default window ceil(N/2P) reads every spectrum bin, so a generic
    family fits on a grid whose period P does not divide N/2."""
    paths = [write_csv(tmp_path / f"m{s}.csv", random_signal(grid, s)) for s in (71, 72)]
    common = ["--data", *paths, "--ell", "2", "--theta-frac", *frac]
    assert main(["approx", "fit", *common, "--out-dir", str(tmp_path / "fit")]) == 0
    assert json.loads((tmp_path / "fit" / "model.json").read_text())["window"] == window
    assert main(["multitile", "fit", *common, "--N", "1",
                 "--out-dir", str(tmp_path / "tiles")]) == 0
    rows = (tmp_path / "tiles" / "errors.csv").read_text().splitlines()
    assert len(rows) == 3


def test_approx_fit_refuses_an_empty_window(tmp_path, capsys):
    paths = [write_csv(tmp_path / "m.csv", random_signal(Grid(1, 64, 4.0), 75))]
    assert main(["approx", "fit", "--data", *paths, "--ell", "1", "--window", "0",
                 "--theta-frac", "1", "3", "--out-dir", str(tmp_path / "fit")]) == 4
    assert capsys.readouterr().err == (
        "error: the offset window must contain at least offset 1\n")


def test_approx_table(tmp_path):
    out = str(tmp_path / "table.csv")
    assert main(["approx", "table", "--family", "sinc1d",
                 "--theta-frac", "1", "2", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "ell,error"
    rows = dict(
        (int(ln.split(",")[0]), float(ln.split(",")[1])) for ln in lines[1:]
    )
    golden = {1: 1.709142, 2: 0.709142, 3: 0.283119}
    for ell, want in golden.items():
        assert rows[ell] == pytest.approx(want, rel=1e-3)
    assert rows[4] < 1e-10


def check_table_against_fits_per_rank(tmp_path, family, n_dims, frac, m):
    """The ``approx table`` file is byte for byte the error of a separate
    fit at each rank, formatted one number at a time."""
    out = tmp_path / "table.csv"
    assert main(["approx", "table", "--family", family, "--m", str(m),
                 "--theta-frac", *map(str, frac), "--out", str(out)]) == 0
    theta = ThetaParam(math.pi * frac[0] / frac[1])
    fibers = analytic_sinc_fibers(m, FiberGrid(theta, n_dims, 16, window=m))
    rows = [(ell, approximation_error(fit_sis(fibers, ell))) for ell in range(1, m + 1)]
    assert out.read_bytes() == reference_table(["ell,error"], rows).encode()


@pytest.mark.parametrize("family, n_dims, frac", [("sinc1d", 1, (1, 3)), ("sinc2d", 2, (1, 2))])
def test_approx_table_bytes_match_format_reference(tmp_path, family, n_dims, frac):
    check_table_against_fits_per_rank(tmp_path, family, n_dims, frac, 3)


def test_approx_table_fits_the_family_once(tmp_path, monkeypatch):
    calls = {"fit_sis": 0, "eigh": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "fit_sis", counted("fit_sis", cli.fit_sis))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    assert main(["approx", "table", "--family", "sinc2d", "--m", "6", "--theta-frac", "1", "3",
                 "--out", str(tmp_path / "table.csv")]) == 0
    assert calls == {"fit_sis": 1, "eigh": 1}


@pytest.mark.parametrize("m", [1, 4, 6])
@pytest.mark.parametrize("frac", [(1, 3), (-2, 5)], ids=["sin+", "sin-"])
@pytest.mark.parametrize("family, n_dims", [("sinc1d", 1), ("sinc2d", 2)])
def test_approx_table_matches_a_fit_per_rank(tmp_path, family, n_dims, frac, m):
    check_table_against_fits_per_rank(tmp_path, family, n_dims, frac, m)


def test_multitile_fit_and_check(tmp_path, capsys):
    grid = Grid(1, 256, 8.0)
    members = [banded_signal(grid, PI3, 0.6, s) for s in (71, 72)]
    paths = [write_csv(tmp_path / f"m{i}.csv", m) for i, m in enumerate(members)]
    out_dir = tmp_path / "mt"
    assert main(["multitile", "fit", "--data", *paths, "--ell", "2", "--N", "3",
                 "--theta-frac", "1", "3", "--out-dir", str(out_dir)]) == 0
    doc = json.loads((out_dir / "tile.json").read_text())
    assert doc["schema"] == 1
    assert doc["bound"] == 3
    assert doc["ell"] == 2
    assert doc["omega_samples"] == 16
    assert len(doc["cells"]) == 16
    assert all(len(cell) == 2 for cell in doc["cells"])
    err_lines = (out_dir / "errors.csv").read_text().splitlines()
    assert err_lines[0] == "member,residual_sq"
    assert len(err_lines) == 3
    assert all(float(ln.split(",")[1]) >= 0.0 for ln in err_lines[1:])

    assert main(["multitile", "check", "--tile", str(out_dir / "tile.json")]) == 0
    assert capsys.readouterr().out.startswith("ok")

    doc["cells"][0] = doc["cells"][0][:1]  # ragged: no longer a multi-tile
    bad = tmp_path / "bad_tile.json"
    bad.write_text(json.dumps(doc))
    assert main(["multitile", "check", "--tile", str(bad)]) == 4


def test_multitile_errors_bytes_match_format_reference(tmp_path):
    """``errors.csv`` is the one-number-at-a-time format of each member's
    squared residual after the library's bandlimited projection."""
    grid = Grid(1, 256, 8.0)  # period 16, covering window 8
    members = [banded_signal(grid, PI3, 0.6, s) for s in (71, 72, 73)]
    paths = [write_csv(tmp_path / f"m{i}.csv", m) for i, m in enumerate(members)]
    out_dir = tmp_path / "mt"
    assert main(["multitile", "fit", "--data", *paths, "--ell", "2", "--N", "3",
                 "--theta-frac", "1", "3", "--out-dir", str(out_dir)]) == 0
    fg = FiberGrid(PI3, 1, 16, 8)
    model = optimal_multitile([fiber_map(m, fg) for m in members], 2, 3)
    rows = [(j, _energy(m.values - bandlimited_project(m, model).values, grid))
            for j, m in enumerate(members)]
    want = reference_table(["member,residual_sq"], rows)
    assert (out_dir / "errors.csv").read_bytes() == want.encode()


@pytest.mark.parametrize(
    "where,key,value,message",
    [
        ("nonlin", "b", None, "nonlin b must be a number"),
        ("nonlin", "b", [0.01], "nonlin b must be a number"),
        ("top", "theta", True, "theta must be a number"),
        ("top", "depth", True, "depth must be a nonnegative integer"),
        ("layer", "s", True, "s must be a number"),
        ("layer", "atoms", [5], "atoms must list at least one file"),
        ("top", "theta", 10**400, "theta must be finite"),
        ("nonlin", "b", 10**400, "nonlin b must be finite"),
        ("layer", "s", 10**400, "s must be finite"),
    ],
    ids=["b-null", "b-list", "theta-bool", "depth-bool", "s-bool", "atoms-number",
         "theta-huge-int", "b-huge-int", "s-huge-int"],
)
def test_scatter_config_rejects_wrong_types(tmp_path, capsys, where, key, value, message):
    cfg, sig, _ = scatter_config(tmp_path)
    doc = json.loads(Path(cfg).read_text())
    if key == "theta":
        del doc["theta_frac"]
    layer = doc["layers"][0]
    {"top": doc, "layer": layer, "nonlin": layer["nonlin"]}[where][key] = value
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert main(["scatter", "extract", "--config", cfg, "--signal", sig,
                 "--out-dir", str(tmp_path / "d")]) == 4
    assert message in capsys.readouterr().err


def test_multitile_fit_negative_angle_residuals_match_fiber_energy(tmp_path):
    theta = ThetaParam(-math.pi / 3)
    grid = Grid(2, 32, 4.0)
    members = [random_signal(grid, s) for s in (73, 74)]
    paths = [write_csv(tmp_path / f"m{i}.csv", m) for i, m in enumerate(members)]
    out_dir = tmp_path / "mt"
    assert main(["multitile", "fit", "--data", *paths, "--ell", "3", "--N", "2",
                 "--theta-frac", "-1", "3", "--out-dir", str(out_dir)]) == 0
    cells = json.loads((out_dir / "tile.json").read_text())["cells"]
    rows = (out_dir / "errors.csv").read_text().splitlines()[1:]
    fg = FiberGrid(theta, 2, 8, 2)
    slot = {k: i for i, k in enumerate(fg.offsets)}
    for row, f in zip(rows, members):
        data = fiber_map(f, fg).data
        kept = sum(abs(data[w, slot[tuple(k)]]) ** 2
                   for w, cell in enumerate(cells) for k in cell)
        want = l2_norm(f) ** 2 - kept / fg.n_cells
        assert float(row.split(",")[1]) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("cells", 5, "cells must be a list"),
        ("cells", [5, 5], "cells must be a list"),
        ("cells", [[5], [0]], "cells must be a list"),
        ("cells", [[[0]], [["0"]]], "cells must be a list"),
        ("cells", [[[0.5]], [[0]]], "cells must be a list"),
        ("cells", [[[True]], [[0]]], "cells must be a list"),
        ("theta", None, "theta must be a number"),
        ("theta", True, "theta must be a number"),
        ("theta", float("inf"), "theta must be finite"),
        ("theta", float("nan"), "theta must be finite"),
        ("theta", 10**400, "theta must be finite"),
        ("n_dims", [1], "n_dims must be an integer"),
        ("n_dims", 1.5, "n_dims must be an integer"),
        ("omega_samples", "x", "omega_samples must be an integer"),
        ("bound", None, "bound must be an integer"),
        ("ell", {}, "ell must be an integer"),
        ("ell", True, "ell must be an integer"),
    ],
    ids=["number", "cell-not-list", "offset-not-list", "string", "float", "bool",
         "theta-null", "theta-bool", "theta-inf", "theta-nan", "theta-huge-int",
         "n_dims-list", "n_dims-float", "omega_samples-string", "bound-null", "ell-object",
         "ell-bool"],
)
def test_multitile_check_rejects_malformed_cells(tmp_path, capsys, field, value, message):
    doc = {"schema": 1, "theta": 1.0, "n_dims": 1, "omega_samples": 2,
           "bound": 1, "ell": 1, "cells": [[[0]], [[1]]]}
    doc[field] = value
    bad = tmp_path / "tile.json"
    bad.write_text(json.dumps(doc))
    assert main(["multitile", "check", "--tile", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_multitile_check_missing_field_is_a_parse_failure(tmp_path, capsys):
    doc = {"schema": 1, "n_dims": 1, "omega_samples": 2, "bound": 1, "ell": 1,
           "cells": [[[0]], [[1]]]}
    bad = tmp_path / "tile.json"
    bad.write_text(json.dumps(doc))
    assert main(["multitile", "check", "--tile", str(bad)]) == 2
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"omega_samples": 0, "cells": []}, "need at least one base frequency cell per dimension"),
        ({"bound": -1, "ell": 0}, "offset bound -1 is negative"),
        ({"ell": 0}, "ell must be at least 1"),
    ],
    ids=["no-cells", "negative-bound", "zero-ell"],
)
def test_multitile_check_refuses_empty_tiles(tmp_path, capsys, changes, message):
    """Each of these tiles holds no offset, so it would pass as a tile of
    its count; it is refused (exit 4) instead."""
    doc = {"schema": 1, "theta": 1.0, "n_dims": 1, "omega_samples": 1,
           "bound": 1, "ell": 3, "cells": [[]]} | changes
    bad = tmp_path / "tile.json"
    bad.write_text(json.dumps(doc))
    assert main(["multitile", "check", "--tile", str(bad)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "name,content",
    [("f.csv", b"# grid: 1,4,1.0\nindex,re,im\n0,1.0,\xff\n"),
     ("tile.json", b'{"schema": 1, "theta": "\xff"}'),
     ("tile.json", b"[" * 200000),
     ("tile.json", b'{"schema": 1, "n_dims": ' + b"1" * 5001 + b"}"),
     ("config.json", b'{"schema": 1, "depth": ' + b"1" * 5001 + b"}")],
    ids=["csv-not-utf8", "json-not-utf8", "json-too-deep", "tile-int-too-long",
         "config-int-too-long"],
)
def test_unreadable_files_are_parse_failures(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    if name.endswith(".csv"):
        argv = ["frft", "--in", str(path), "--out", str(tmp_path / "o.csv"), "--theta", "1.0"]
    elif name == "config.json":
        argv = ["scatter", "extract", "--config", str(path), "--signal", str(tmp_path / "f.csv"),
                "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["multitile", "check", "--tile", str(path)]
    assert main(argv) == 2


#: JSON texts that every input field is set to in turn.  The large finite
#: values (a 401-digit integer, 1e300) pass the type checks and reach the
#: arithmetic.
HOSTILE = ["null", "true", '"x"', "[1]", '{"a": 1}', "NaN", "Infinity", "1e400",
           "1" + "0" * 400, "-3", "1.5", "1e300"]


def field_paths(doc, prefix=()):
    """The key path of every value in a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def with_field(doc, path, text):
    """JSON text of ``doc`` with the value at ``path`` replaced by ``text``;
    a top-level ``theta`` replaces ``theta_frac``."""
    doc = json.loads(json.dumps(doc))
    if path == ("theta",):
        doc.pop("theta_frac", None)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@mutant@"
    return json.dumps(doc).replace('"@mutant@"', text)


@pytest.fixture(scope="module")
def hostile_cases(tmp_path_factory):
    """A directory with a valid cascade config and signal, and the argv
    builders that run ``main`` on one mutated field or flag."""
    tmp = tmp_path_factory.mktemp("hostile")
    grid = Grid(1, 32, 4.0)
    cfg, sig, _ = scatter_config(tmp, grid=grid)
    cascade = json.loads(Path(cfg).read_text())
    tile = {"schema": 1, "theta": 1.0, "n_dims": 1, "omega_samples": 2, "bound": 1,
            "ell": 1, "cells": [[[0]], [[1]]]}
    csv = Path(sig).read_text()
    out = str(tmp / "out.csv")

    def config(path, text):
        (tmp / "mutant.json").write_text(with_field(cascade, path, text))
        return ["scatter", "invariance", "--config", str(tmp / "mutant.json"),
                "--signal", sig, "--t", repr(grid.spacing), "--out", out]

    def tile_file(path, text):
        (tmp / "tile.json").write_text(with_field(tile, path, text))
        return ["multitile", "check", "--tile", str(tmp / "tile.json")]

    def header(i, text):
        head, rest = csv.split("\n", 1)
        fields = head[len("# grid: "):].split(",")
        fields[i] = text
        (tmp / "mutant.csv").write_text("# grid: " + ",".join(fields) + "\n" + rest)
        return ["frft", "--in", str(tmp / "mutant.csv"), "--out", out, "--theta", "1.0"]

    def flag(which, text):
        angle = {"theta": ["--theta", text], "P": ["--theta-frac", text, "3"],
                 "Q": ["--theta-frac", "1", text]}.get(which, ["--theta", "1.0"])
        command = ["ops", "dilate", "--factor", text] if which == "factor" else ["frft"]
        return [*command, "--in", sig, "--out", out, *angle]

    cases = [(config, p) for p in [("theta",), *field_paths(cascade)]]
    cases += [(tile_file, p) for p in field_paths(tile)]
    cases += [(header, i) for i in range(3)]
    cases += [(flag, which) for which in ("theta", "P", "Q", "factor")]
    return cases


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_every_hostile_input_gets_an_exit_code(hostile_cases, data):
    """A hostile value in any field of a cascade config, a tile file or a
    grid header, or in an angle or factor flag, ends in a documented exit
    code and never in a traceback.  Some values are valid (``theta: 1e300``)."""
    build, where = data.draw(st.sampled_from(hostile_cases))
    value = data.draw(st.sampled_from(HOSTILE))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(build(where, value)) in (0, 2, 3, 4)


def test_plotdata(tmp_path):
    grid = Grid(1, 64, 4.0)
    f = random_signal(grid, 9)
    src = write_csv(tmp_path / "f.csv", f)
    out = str(tmp_path / "plot.csv")
    assert main(["plotdata", "--in", src, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "coordinate,magnitude,re,im"
    assert len(lines) == 1 + grid.size
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-4.0)
    assert float(first[1]) == pytest.approx(abs(f.values[0]), rel=1e-12)


def test_plotdata_1d_bytes_match_format_reference(tmp_path):
    """Every row of the 1-D table is the one-number-at-a-time format of the
    coordinate (j - N/2) * spacing, the magnitude and both parts.  The
    magnitude is the scalar ``abs``: NumPy's vectorized ``np.abs`` may differ
    from it in the last ulp."""
    grid = Grid(1, 4096, 8.0)
    f = special_signal(grid, 4096)
    src = write_csv(tmp_path / "f.csv", f)
    out = tmp_path / "plot.csv"
    assert main(["plotdata", "--in", src, "--out", str(out)]) == 0
    half = grid.samples_per_dim // 2
    lines = ["coordinate,magnitude,re,im"]
    lines += [",".join(format(float(x), ".17g")
                       for x in ((j - half) * grid.spacing, abs(v), v.real, v.imag))
              for j, v in enumerate(f.values)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_plotdata_2d_bytes_match_format_reference(tmp_path):
    """Every row of the 2-D table is the one-number-at-a-time format of the
    coordinates ((j0 - N/2) * spacing, (j1 - N/2) * spacing) in row-major
    order, the scalar ``abs`` of the sample and both parts."""
    grid = Grid(2, 32, 4.0)
    f = special_signal(grid, 32)
    src = write_csv(tmp_path / "f.csv", f)
    out = tmp_path / "plot.csv"
    assert main(["plotdata", "--in", src, "--out", str(out)]) == 0
    n, half = grid.samples_per_dim, grid.samples_per_dim // 2
    rows = [((j // n - half) * grid.spacing, (j % n - half) * grid.spacing, abs(v), v.real, v.imag)
            for j, v in enumerate(f.values)]
    head = ["coordinate_0,coordinate_1,magnitude,re,im"]
    assert out.read_bytes() == reference_table(head, rows).encode()


def test_exit_code_2_parse_failures(tmp_path):
    assert main(["frft", "--in", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "o.csv"), "--theta", "1.0"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,signal\n1,2,3\n")
    assert main(["frft", "--in", str(bad), "--out", str(tmp_path / "o.csv"),
                 "--theta", "1.0"]) == 2
    cfg = tmp_path / "broken.json"
    cfg.write_text("{ not json")
    sig = write_csv(tmp_path / "s.csv", random_signal(Grid(1, 64, 4.0), 10))
    assert main(["scatter", "extract", "--config", str(cfg), "--signal", sig,
                 "--out-dir", str(tmp_path / "d")]) == 2
    # argparse usage errors surface as exit 2 as well
    assert main(["frft", "--theta", "1.0"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("sample", ["nan", "inf", "-inf"])
def test_non_finite_sample_is_a_parse_failure(tmp_path, capsys, sample):
    bad = tmp_path / "bad.csv"
    rows = ["# grid: 1,4,1.0", "index,re,im", "0,1.0,0.0", f"1,0.5,{sample}",
            "2,0.0,0.0", "3,0.0,0.0"]
    bad.write_text("\n".join(rows) + "\n")
    with pytest.raises(CliParseError, match=":4: non-finite sample"):
        read_signal(bad)
    assert main(["frft", "--in", str(bad), "--out", str(tmp_path / "o.csv"),
                 "--theta", "1.0"]) == 2
    assert ":4:" in capsys.readouterr().err


def test_oversized_grid_header_is_a_parse_failure(tmp_path, capsys):
    # NumPy refuses 2**62 samples outright, so nothing is ever allocated here.
    bad = tmp_path / "huge.csv"
    bad.write_text("# grid: 2,2147483648,1.0\nindex,re,im\n0,1.0,0.0\n")
    assert main(["frft", "--in", str(bad), "--out", str(tmp_path / "o.csv"),
                 "--theta", "1.0"]) == 2
    assert "promises 4611686018427387904 samples" in capsys.readouterr().err


def test_exit_code_3_numeric_failures(tmp_path):
    f = random_signal(Grid(1, 64, 4.0), 11)
    src = write_csv(tmp_path / "f.csv", f)
    out = str(tmp_path / "o.csv")
    assert main(["frft", "--in", src, "--out", out, "--theta", "1e-10"]) == 3

    big = write_csv(tmp_path / "big.csv", random_signal(Grid(1, 1024, 8.0), 12))
    assert main(["frft", "--in", big, "--out", out, "--theta", "1.0",
                 "--oracle"]) == 3

    wide = [write_csv(tmp_path / f"w{i}.csv", random_signal(Grid(1, 256, 8.0), i))
            for i in (13, 14)]
    assert main(["approx", "fit", "--data", *wide, "--ell", "1", "--window", "1",
                 "--theta-frac", "1", "3", "--out-dir", str(tmp_path / "d")]) == 3


def test_exit_code_4_config_failures(tmp_path):
    f = banded_signal(Grid(1, 128, 8.0), PI3, 0.4, 15)
    src = write_csv(tmp_path / "f.csv", f)
    out = str(tmp_path / "o.csv")

    # contradictory and missing angle specifications
    assert main(["frft", "--in", src, "--out", out, "--theta", "1.0",
                 "--theta-frac", "1", "3"]) == 4
    assert main(["frft", "--in", src, "--out", out]) == 4
    assert main(["frft", "--in", src, "--out", out, "--theta-frac", "1", "0"]) == 4
    assert main(["frft", "--in", src, "--out", out, "--theta", "1.0",
                 "--inverse", "--oracle"]) == 4

    # operator-level rejections
    assert main(["ops", "translate", "--in", src, "--out", out,
                 "--theta-frac", "1", "3", "--shift", "0.0333"]) == 4
    assert main(["ops", "dilate", "--in", src, "--out", out,
                 "--theta-frac", "1", "3", "--factor", "sqrt2"]) == 4
    assert main(["ops", "dilate", "--in", src, "--out", out,
                 "--theta-frac", "1", "3", "--factor",
                 repr(math.sqrt(2))]) == 4
    assert main(["ops", "convolve", "--in", src, "--out", out,
                 "--theta-frac", "1", "3"]) == 4  # missing --with

    # cascade config rejections
    cfg, sig, _ = scatter_config(
        tmp_path, theta_key={"theta": 1.0, "theta_frac": [1, 3]}, name="both.json"
    )
    assert main(["scatter", "extract", "--config", cfg, "--signal", sig,
                 "--out-dir", str(tmp_path / "d1")]) == 4
    cfg2, sig2, _ = scatter_config(tmp_path, depth=5, name="deep.json")
    assert main(["scatter", "extract", "--config", cfg2, "--signal", sig2,
                 "--out-dir", str(tmp_path / "d2")]) == 4
    cfg3, sig3, _ = scatter_config(tmp_path, nonlin="modulus", name="mod.json")
    spacing = 16.0 / 128.0
    assert main(["scatter", "invariance", "--config", cfg3, "--signal", sig3,
                 "--t", str(spacing), "--out", str(tmp_path / "i.csv")]) == 4

    doc = json.loads(Path(cfg3).read_text())
    doc["schema"] = 2
    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps(doc))
    assert main(["scatter", "extract", "--config", str(bad_schema),
                 "--signal", sig, "--out-dir", str(tmp_path / "d3")]) == 4

    # fiber-model misconfiguration
    members = [write_csv(tmp_path / f"b{i}.csv",
                         banded_signal(Grid(1, 256, 8.0), PI3, 0.5, 80 + i))
               for i in range(2)]
    assert main(["approx", "fit", "--data", *members, "--ell", "0",
                 "--theta-frac", "1", "3", "--out-dir", str(tmp_path / "d4")]) == 4
    assert main(["multitile", "fit", "--data", *members, "--ell", "1",
                 "--N", "9", "--theta-frac", "1", "3",
                 "--out-dir", str(tmp_path / "d5")]) == 4


@pytest.mark.parametrize("value", ["0", "abc"])
def test_no_environment_variable_is_configuration(tmp_path, monkeypatch, capsys, value):
    """A leftover ``FRFTKIT_THREADS``, whatever its value, changes neither
    the exit code nor a byte of the output."""
    src = write_csv(tmp_path / "f.csv", random_signal(Grid(1, 128, 8.0), 17))
    plain, with_env = str(tmp_path / "plain.csv"), str(tmp_path / "env.csv")
    assert main(["frft", "--in", src, "--out", plain, "--theta", "1.0"]) == 0
    monkeypatch.setenv("FRFTKIT_THREADS", value)
    assert main(["frft", "--in", src, "--out", with_env, "--theta", "1.0"]) == 0
    assert capsys.readouterr().err == ""
    assert Path(plain).read_bytes() == Path(with_env).read_bytes()


LIBRARY_ERRORS = [cls for cls in map(vars(frftkit.errors).get, frftkit.errors.__all__)
                  if issubclass(cls, frftkit.errors.FrftkitError)]
NUMERIC_LIBRARY_ERRORS = {"AngleDegenerate", "NoDecay", "TruncationLoss",
                          "NotHermitian", "GridTooLarge"}


@pytest.mark.parametrize(
    "error,code",
    [(cls, 3 if cls.__name__ in NUMERIC_LIBRARY_ERRORS else 4) for cls in LIBRARY_ERRORS]
    + [(OverflowError, 3), (MemoryError, 3), (ValueError, 4), (OSError, 2)],
    ids=lambda x: x.__name__ if isinstance(x, type) else str(x),
)
def test_exit_code_rule(tmp_path, monkeypatch, capsys, error, code):
    """Exit codes follow from the error class: numeric failures (a failed
    allocation included) exit 3, every other library error 4."""

    def handler(args):
        raise error("boom")  # a MemoryError made here allocates nothing

    monkeypatch.setattr(cli, "cmd_plotdata", handler)
    assert main(["plotdata", "--in", str(tmp_path / "f.csv"),
                 "--out", str(tmp_path / "o.csv")]) == code
    assert capsys.readouterr().err == "error: boom\n"


def reflected(f):
    idx = (-np.arange(f.grid.samples_per_dim)) % f.grid.samples_per_dim
    return f.with_values(f.as_nd()[np.ix_(*[idx] * f.grid.n_dims)].ravel())


@pytest.mark.parametrize("k", [0, 1, -1, 2])
def test_multiple_of_pi_exits_3_everywhere_but_frft(tmp_path, capsys, k):
    grid = Grid(1, 256, 8.0)
    cfg, sig, f = scatter_config(tmp_path, theta_key={"theta_frac": [k, 1]}, grid=grid)
    other = write_csv(tmp_path / "g.csv", banded_signal(grid, PI3, 0.5, 12))
    atoms = [str(tmp_path / "atom0.csv"), str(tmp_path / "atom1.csv")]
    th = ["--theta-frac", str(k), "1"]
    out = str(tmp_path / "o.csv")
    refused = [
        ["frames", "--atoms", *atoms, "--out", out, *th],
        ["scatter", "extract", "--config", cfg, "--signal", sig,
         "--out-dir", str(tmp_path / "features")],
        ["scatter", "invariance", "--config", cfg, "--signal", sig,
         "--t", "0.0625", "--out", out],
        ["approx", "fit", "--data", sig, other, "--ell", "1", *th,
         "--out-dir", str(tmp_path / "fit")],
        ["approx", "table", "--family", "sinc1d", *th, "--out", out],
        ["approx", "table", "--family", "sinc2d", *th, "--out", out],
        ["multitile", "fit", "--data", sig, other, "--ell", "1", "--N", "2", *th,
         "--out-dir", str(tmp_path / "tiles")],
        ["ops", "translate", "--in", sig, "--out", out, *th, "--shift", "0.0625"],
        ["ops", "modulate", "--in", sig, "--out", out, *th, "--shift", "0.5"],
        ["ops", "convolve", "--in", sig, "--with", other, "--out", out, *th],
        ["ops", "dilate", "--in", sig, "--out", out, *th, "--factor", "2"],
    ]
    theta = ThetaParam(k * math.pi).theta
    for argv in refused:
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: cot undefined at theta={theta!r}\n"
    assert not Path(out).exists()

    # The transform itself is the identity or a reflection, bit for bit.
    want = tmp_path / "want.csv"
    write_signal(want, f if k % 2 == 0 else reflected(f))
    for flag in ([], ["--inverse"], ["--oracle"]):
        assert main(["frft", *flag, "--in", sig, "--out", out, *th]) == 0
        assert Path(out).read_bytes() == want.read_bytes()


def test_overflowing_result_exits_3(tmp_path, capsys):
    """Finite 1e308 samples whose results overflow: exit 3, not 4."""
    grid = Grid(1, 256, 8.0)
    big = write_csv(tmp_path / "big.csv", SampledSignal(grid, np.full(256, 1e308)))
    low = write_csv(tmp_path / "low.csv", SampledSignal(grid, np.full(256, -1e308)))
    th = ["--theta-frac", "1", "3"]
    out = str(tmp_path / "o.csv")
    cases = [
        (["frft", "--in", big, "--out", out, *th], "signal contains non-finite entries"),
        (["ops", "convolve", "--in", big, "--with", big, "--out", out, *th],
         "signal contains non-finite entries"),
        (["ops", "dilate", "--in", big, "--out", out, *th, "--factor", "3/2"],
         "signal contains non-finite entries"),
        (["frames", "--atoms", big, "--out", out, *th], "frame spectrum contains non-finite entries"),
        (["approx", "fit", "--data", big, low, "--ell", "1", *th,
          "--out-dir", str(tmp_path / "fit")], "fiber data must be finite"),
        (["multitile", "fit", "--data", big, low, "--ell", "1", "--N", "2", *th,
          "--out-dir", str(tmp_path / "tiles")], "fiber data must be finite"),
    ]
    for argv, message in cases:
        with np.errstate(all="ignore"):
            assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_scatter_extract_with_an_overflowing_atom_exits_3(tmp_path, capsys):
    """A finite 1e308 atom whose frame spectrum overflows: exit 3, no output."""
    cfg, sig, _ = scatter_config(tmp_path)
    write_csv(tmp_path / "atom0.csv", SampledSignal(Grid(1, 128, 8.0), np.full(128, 1e308)))
    out_dir = tmp_path / "features"
    with np.errstate(all="ignore"):
        assert main(["scatter", "extract", "--config", cfg, "--signal", sig,
                     "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err == "error: frame spectrum contains non-finite entries\n"
    assert not out_dir.exists()


def test_module_entry_point_matches_in_process(tmp_path):
    f = random_signal(Grid(1, 64, 4.0), 16)
    src = write_csv(tmp_path / "f.csv", f)
    in_proc = str(tmp_path / "inproc.csv")
    assert main(["frft", "--in", src, "--out", in_proc,
                 "--theta-frac", "1", "3"]) == 0
    sub_out = str(tmp_path / "sub.csv")
    env = dict(os.environ)
    # The child imports the same package as this process, installed or not.
    package_root = os.path.dirname(os.path.dirname(frftkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "frftkit", "frft", "--in", src, "--out", sub_out,
         "--theta-frac", "1", "3"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(in_proc).read_bytes() == Path(sub_out).read_bytes()


def alias_config(tmp_path):
    """A depth-1 cascade that contracts by 3/2 after identity maps, with wide
    atoms that pass the full band of the white-noise signal it returns."""
    grid = Grid(1, 128, 4.0)
    layers, phi = make_s1_layers(grid, PI3, (1.5,), ["identity"], widths=(8.0, 8.0))
    names = [f"atom{i}.csv" for i in range(layers[0].n_atoms)]
    for name, atom in zip(names, layers[0].bank.atoms):
        write_csv(tmp_path / name, atom)
    write_csv(tmp_path / "phi.csv", phi)
    doc = {"schema": 1, "depth": 1, "theta_frac": [1, 3],
           "layers": [{"atoms": names, "output_atom": "phi.csv", "s": 1.5}]}
    cfg = tmp_path / "alias.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg), write_csv(tmp_path / "noise.csv", random_signal(grid, 35))


ALIAS_LINE = ("warning: AliasRiskWarning: "
              "dilation by 3/2 folds spectral mass beyond 2/3 of Nyquist\n")


def test_warning_is_one_line_that_names_no_path(tmp_path):
    """The same warning line, whichever directory the package runs from."""
    cfg, sig = alias_config(tmp_path)
    package = Path(frftkit.__file__).parent
    copy = tmp_path / "copy"
    shutil.copytree(package, copy / "frftkit", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    stderrs = []
    for label, root in (("installed", package.parent), ("copy", copy)):
        proc = subprocess.run(
            [sys.executable, "-m", "frftkit", "scatter", "extract", "--config", cfg,
             "--signal", sig, "--out-dir", str(tmp_path / label)],
            capture_output=True, text=True, env={**env, "PYTHONPATH": str(root)},
        )
        assert proc.returncode == 0, proc.stderr
        stderrs.append(proc.stderr)
    assert stderrs == [ALIAS_LINE, ALIAS_LINE]


def test_warning_line_keeps_the_callers_filters(tmp_path, capsys):
    cfg, sig = alias_config(tmp_path)
    argv = ["scatter", "extract", "--config", cfg, "--signal", sig]
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main([*argv, "--out-dir", str(tmp_path / "shown")]) == 0
    assert capsys.readouterr().err == ALIAS_LINE
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([*argv, "--out-dir", str(tmp_path / "ignored")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("operation", ["translate", "modulate"])
@pytest.mark.parametrize(
    "n_dims,shift,message",
    [
        (1, [], "shift needs at least one component"),
        (1, ["0.125", "0.125"], "shift arity 2 does not match grid dimension 1"),
        (2, [], "shift needs at least one component"),
        (2, ["0.5"], "shift arity 1 does not match grid dimension 2"),
        (2, ["0.5", "0.5", "0.5"], "shift arity 3 does not match grid dimension 2"),
    ],
    ids=["1d-missing", "1d-long", "2d-missing", "2d-short", "2d-long"],
)
def test_shift_arity_is_checked_by_the_library(tmp_path, capsys, operation, n_dims, shift,
                                               message):
    grid = Grid(n_dims, 64 if n_dims == 1 else 16, 4.0)
    src = write_csv(tmp_path / "f.csv", random_signal(grid, 17))
    out = tmp_path / "o.csv"
    flags = ["--shift", *shift] if shift else []
    assert main(["ops", operation, "--in", src, "--out", str(out),
                 "--theta-frac", "1", "3", *flags]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_output_directories_are_made_by_the_writer(tmp_path):
    """A new nested --out-dir is made on the first write; one that is an
    existing file is an OS error, exit 2."""
    cfg, sig, _ = scatter_config(tmp_path)
    grid = Grid(1, 256, 8.0)
    members = [write_csv(tmp_path / f"m{i}.csv", banded_signal(grid, PI3, 0.5, 90 + i))
               for i in range(2)]
    th = ["--theta-frac", "1", "3"]
    commands = {
        "scatter": ["scatter", "extract", "--config", cfg, "--signal", sig],
        "approx": ["approx", "fit", "--data", *members, "--ell", "1", *th],
        "multitile": ["multitile", "fit", "--data", *members, "--ell", "1", "--N", "1", *th],
    }
    afile = tmp_path / "afile"
    afile.write_text("a file\n")
    for name, argv in commands.items():
        nested = tmp_path / name / "new" / "deeper"
        assert main([*argv, "--out-dir", str(nested)]) == 0, name
        assert any(nested.iterdir()), name
        assert main([*argv, "--out-dir", str(afile)]) == 2, name
    assert afile.read_text() == "a file\n"


def _angle_subcommands(parser, words=()):
    """The command words of every (sub)parser that declares ``--theta-frac``."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= _angle_subcommands(sub, (*words, name))
        elif "--theta-frac" in action.option_strings:
            found.add(words)
    return found


@pytest.mark.parametrize(
    "flags,message",
    [(["--theta", "1", "--theta-frac", "1", "3"],
      "--theta and --theta-frac contradict each other"),
     ([], "an angle is required: --theta or --theta-frac")],
    ids=["both", "neither"],
)
def test_every_angle_subcommand_resolves_its_flags(tmp_path, capsys, flags, message):
    grid = Grid(1, 256, 8.0)
    sig = write_csv(tmp_path / "f.csv", banded_signal(grid, PI3, 0.5, 95))
    other = write_csv(tmp_path / "g.csv", banded_signal(grid, PI3, 0.5, 96))
    out = str(tmp_path / "o.csv")
    commands = {
        ("frft",): ["--in", sig, "--out", out],
        ("ops",): ["translate", "--in", sig, "--out", out, "--shift", "0.0625"],
        ("frames",): ["--atoms", sig, other, "--out", out],
        ("approx", "fit"): ["--data", sig, other, "--ell", "1", "--out-dir", out],
        ("approx", "table"): ["--family", "sinc1d", "--out", out],
        ("multitile", "fit"): ["--data", sig, other, "--ell", "1", "--N", "1", "--out-dir", out],
    }
    assert set(commands) == _angle_subcommands(cli.build_parser())
    for words, rest in commands.items():
        assert main([*words, *rest, *flags]) == 4, words
        assert capsys.readouterr().err == f"error: {message}\n", words
    assert not Path(out).exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["ops", "dilate", "--in", "{a}", "--out", "{out}/o.csv", "--theta", "1.0"], 4,
         "dilate needs --factor"),
        (["ops", "dilate", "--in", "{a}", "--out", "{out}/o.csv", "--theta", "1.0",
          "--factor=-3/2"], 4, "dilation factor must be positive, got -3/2"),
        (["ops", "dilate", "--in", "{a}", "--out", "{out}/o.csv", "--theta", "1.0",
          "--factor=-1"], 4, "dilation factor must be positive, got -1"),
        (["scatter", "extract", "--config", "{array}", "--signal", "{a}", "--out-dir", "{out}"],
         2, "{array}: expected a JSON object"),
        (["approx", "fit", "--data", "{a}", "{b}", "--ell", "1", "--theta", "1.0",
          "--out-dir", "{out}"], 4, "all data signals must share one grid"),
        (["approx", "table", "--family", "sinc1d", "--m", "0", "--theta", "1.0",
          "--out", "{out}/t.csv"], 4, "--m must be at least 1"),
        (["multitile", "fit", "--data", "{a}", "--ell", "0", "--N", "1", "--theta", "1.0",
          "--out-dir", "{out}"], 4, "--ell must be at least 1"),
        (["multitile", "fit", "--data", "{a}", "--ell", "1", "--N", "0", "--theta", "1.0",
          "--out-dir", "{out}"], 4, "--N must be at least 1"),
    ],
    ids=["dilate-no-factor", "dilate-negative-fraction", "dilate-negative-integer",
         "config-array", "fit-mixed-grids", "table-m0", "tiles-ell0",
         "tiles-N0"],
)
def test_cli_refusals(tmp_path, capsys, argv, code, message):
    """Each refusal exits with its code and message and writes nothing."""
    names = {
        "a": write_csv(tmp_path / "a.csv", random_signal(Grid(1, 16, 2.0), 63)),
        "b": write_csv(tmp_path / "b.csv", random_signal(Grid(1, 32, 2.0), 64)),
        "array": str(tmp_path / "config.json"),
        "out": str(tmp_path / "out"),
    }
    Path(names["array"]).write_text("[1, 2]\n")
    assert main([arg.format(**names) for arg in argv]) == code
    assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
    assert not (tmp_path / "out").exists()


def test_atomic_write_leaves_the_target_when_a_chunk_raises(tmp_path):
    target = tmp_path / "t.csv"
    target.write_text("before\n")

    def chunks():
        yield "partial\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="^chunk failed$"):
        cli._atomic_write(target, chunks())
    assert target.read_text() == "before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_atomic_write_raises_the_replace_error_when_the_cleanup_fails(tmp_path, monkeypatch):
    """When the rename fails and the temporary file cannot be removed either,
    the rename's error propagates, not the cleanup's, and no target appears."""
    def fail(message):
        def call(*args, **kwargs):
            raise OSError(message)
        return call

    monkeypatch.setattr(os, "replace", fail("replace failed"))
    monkeypatch.setattr(os, "unlink", fail("unlink failed"))
    with pytest.raises(OSError, match="^replace failed$"):
        cli._atomic_write(tmp_path / "t.csv", ["row\n"])
    monkeypatch.undo()
    assert [p.suffix for p in tmp_path.iterdir()] == [".tmp"]
