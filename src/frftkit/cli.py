"""Command-line front end for transforms, operators, frames, feature
extraction, and subspace fitting.

Subcommands: ``frft``, ``ops``, ``frames``, ``scatter``, ``approx``,
``multitile``, ``plotdata``.  Signals travel as CSV files with a
``# grid: n_dims,N,extent`` header followed by ``index,re,im`` rows;
configuration files are JSON with a ``"schema": 1`` field.  Angles are
given in radians via ``--theta`` or exactly as ``--theta-frac P Q``
meaning ``P*pi/Q``; :func:`main` resolves them once, into ``args.theta``,
for every subcommand that takes them.

Every command is deterministic (identical inputs produce byte-identical
outputs) and writes atomically (temporary file plus rename).  One writer,
:func:`_write_table`, writes every CSV table: its header lines, then its
columns, ``_WRITE_BLOCK`` rows per ``%`` operation, each float as
``%.17g`` (which reads back as the same float).  Exit codes: 0
success, 2 input parse failure, 3 numeric degeneracy, 4 configuration
contradiction.  Exit 3 takes ``_NUMERIC_ERRORS`` (an angle that is a
multiple of pi outside ``frft``, a non-finite result, a failed allocation);
other library errors exit 4.  frftkit reads no environment variable: the
CPUs the process may run on bound the threads it starts (see
:mod:`frftkit.transform`), and BLAS calls follow their own variables.
A warning goes to stderr as one ``warning: <Category>: <message>`` line,
without the source path; the caller's warning filters still apply.

Every JSON field is read through one field reader, :func:`_field`, which
checks it against one of the kinds in ``_KINDS`` (a finite number, an
integer, a list of file names, ...).  The schema picks the exit code of a
missing or bad field: 4 for a cascade config, 2 for a tile file.  The angle
flags and a cascade config's ``theta`` or ``theta_frac`` go through one
angle resolver, :func:`_angle`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .approx import (
    FiberGrid,
    _covering_window,
    _integer_period,
    _tail_error,
    analytic_sinc_fibers,
    approximation_error,
    fiber_map,
    fit_sis,
    synthesize_generator,
)
from .errors import (
    AngleDegenerate,
    FrftkitError,
    GridMismatch,
    GridTooLarge,
    NoDecay,
    NotHermitian,
    NotMultiTile,
    TruncationLoss,
)
from .frames import AtomBank, frame_bounds
from .grids import Grid, SampledSignal, ThetaParam, _energy, as_shift
from .multitile import TileSet, bandlimited_project, is_multitile, optimal_multitile
from .scatter import (
    LayerConfig,
    Nonlinearity,
    Pooling,
    _deviations,
    extract_features,
    invariance_bound,
)
from .theta_ops import theta_convolve, theta_dilate, theta_modulate, theta_translate
from .transform import frft, frft_direct_oracle, inverse_frft, l2_norm

__all__ = ["main", "read_signal", "write_signal"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

#: Errors meaning the computation itself degenerated; other library errors exit 4.
_NUMERIC_ERRORS = (
    AngleDegenerate, NoDecay, TruncationLoss, NotHermitian, GridTooLarge,
    OverflowError, MemoryError,
)


class CliParseError(Exception):
    """An input file could not be parsed."""


class CliConfigError(Exception):
    """Flags or configuration fields contradict each other."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _is_int(x: object) -> bool:
    """A JSON integer; ``true`` and ``false`` do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_str(x: object) -> bool:
    return isinstance(x, str)


def _list_of(x: object, test: Callable[[object], bool]) -> bool:
    return isinstance(x, list) and all(map(test, x))


#: The kinds of JSON field: a test, and the words that end "<key> must ..."
#: when a value fails it.
_KINDS: dict[str, tuple[Callable[[object], bool], str]] = {
    "number": (lambda x: _is_int(x) or isinstance(x, float), "be a number"),
    "integer": (_is_int, "be an integer"),
    "nonnegative integer": (lambda x: _is_int(x) and x >= 0, "be a nonnegative integer"),
    "string": (_is_str, "be a string"),
    "files": (lambda x: _list_of(x, _is_str) and len(x) > 0, "list at least one file"),
    "objects": (
        lambda x: _list_of(x, lambda e: isinstance(e, dict)) and len(x) > 0,
        "be a non-empty list of objects",
    ),
    "pair": (lambda x: _list_of(x, _is_int) and len(x) == 2, "be a pair of integers"),
    "cells": (
        lambda x: _list_of(x, lambda cell: _list_of(cell, lambda k: _list_of(k, _is_int))),
        "be a list of lists of integer lists",
    ),
}

_REQUIRED = object()


def _field(
    data: dict,
    key: str,
    kind: str,
    where: str,
    error: type[Exception],
    default: object = _REQUIRED,
) -> object:
    """``data[key]``, checked as a ``kind`` value, or ``default`` when the
    key is absent.  A number comes back as a finite float.  Any defect
    raises ``error`` with a message that starts with ``where``."""
    if key not in data:
        if default is _REQUIRED:
            raise error(f"{where}{key} is required")
        return default
    value = data[key]
    test, words = _KINDS[kind]
    if not test(value):
        raise error(f"{where}{key} must {words}")
    if kind != "number":
        return value
    # False for nan and for numbers that float() cannot hold, inf included.
    if not abs(value) <= sys.float_info.max:
        raise error(f"{where}{key} must be finite")
    return float(value)


def _angle(
    theta: float | None,
    frac: Sequence[int] | None,
    where: str = "",
    names: tuple[str, str] = ("--theta", "--theta-frac"),
) -> ThetaParam:
    """The angle of ``theta`` radians or of ``frac = (P, Q)``, meaning
    ``P*pi/Q``; exactly one must be given.  Messages start with ``where``
    and call the two ``names``."""
    value, fraction = names
    if theta is not None and frac is not None:
        raise CliConfigError(f"{where}{value} and {fraction} contradict each other")
    if frac is not None:
        p, q = frac
        if q == 0:
            raise CliConfigError(f"{where}{fraction} denominator must be nonzero")
        try:
            theta = math.pi * p / q
        except OverflowError as exc:  # P or Q too large for a float
            raise CliConfigError(f"{where}{fraction} must be finite") from exc
    if theta is None:
        raise CliConfigError(f"{where}an angle is required: {value} or {fraction}")
    return ThetaParam(theta)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
    )
    try:
        with handle as fh:
            fh.writelines(chunks)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


#: Rows formatted per ``%`` operation in ``_write_table``: large enough that
#: the operator does the work, small enough not to hold the whole file.
_WRITE_BLOCK = 2048


def _write_table(path: Path | str, head: Sequence[str], row: str, columns: Sequence) -> None:
    """Write the ``head`` lines, then one ``row`` line per entry of the
    equal-length ``columns`` (ranges, lists or 1-D arrays), formatted by the
    ``%`` codes of ``row`` ``_WRITE_BLOCK`` rows at a time."""

    def chunks() -> Iterator[str]:
        yield "".join(line + "\n" for line in head)
        width, size = len(columns), len(columns[0])
        for start in range(0, size, _WRITE_BLOCK):
            n = min(_WRITE_BLOCK, size - start)
            cells: list = [None] * (width * n)
            for j, column in enumerate(columns):
                block = column[start : start + n]
                cells[j::width] = block.tolist() if isinstance(block, np.ndarray) else block
            # "%.17g" % x is format(x, ".17g"), i.e. _fmt, for every float.
            yield (row + "\n") * n % tuple(cells)

    _atomic_write(Path(path), chunks())


def _write_json(path: Path, doc: dict) -> None:
    _atomic_write(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def _grid_line(grid: Grid) -> str:
    return f"# grid: {grid.n_dims},{grid.samples_per_dim},{_fmt(grid.extent)}"


def write_signal(path: Path | str, signal: SampledSignal) -> None:
    """Serialize a signal as ``# grid:`` header plus ``index,re,im`` rows."""
    values = signal.values
    _write_table(path, [_grid_line(signal.grid), "index,re,im"], "%d,%.17g,%.17g",
                 [range(values.size), values.real, values.imag])


def read_signal(path: Path | str) -> SampledSignal:
    """Parse a signal CSV; raises :class:`CliParseError` on any defect.

    A file as :func:`write_signal` writes it is read in one bulk pass;
    any other file goes through the line parser, which names the line at
    fault.  Both give the same values for every file they accept.
    """
    path = Path(path)
    raw = _read_text(path)
    signal = _read_canonical(raw)
    return signal if signal is not None else _read_lines(path, raw)


def _grid_header(line: str, where: str) -> Grid | None:
    """The grid that a stripped ``#`` line declares; ``None`` for a comment."""
    body = line[1:].strip()
    if not body.startswith("grid:"):
        return None
    fields = [t.strip() for t in body[len("grid:"):].split(",")]
    if len(fields) != 3:
        raise CliParseError(f"{where}: malformed grid header")
    try:
        return Grid(int(fields[0]), int(fields[1]), float(fields[2]))
    except (ValueError, FrftkitError) as exc:
        raise CliParseError(f"{where}: bad grid: {exc}") from exc


#: The characters of finite ``write_signal`` rows.  ``loadtxt`` reads some
#: others that ``int`` and ``float`` reject (it takes U+001F as blank, and
#: many non-ASCII letters as index digits), so they go to the line parser.
_CANONICAL_ROWS = re.compile(r"[0-9+\-.e,\n]*")
_ROW = np.dtype([("index", np.int64), ("re", np.float64), ("im", np.float64)])


def _read_canonical(raw: str) -> SampledSignal | None:
    """The signal of a canonical file, or ``None`` to use the line parser.

    Canonical: a ``# grid:`` line, an ``index,re,im`` line, then exactly
    ``grid.size`` rows of finite samples with the indices 0..N-1 in order.
    On rows of ``_CANONICAL_ROWS`` characters, ``loadtxt`` reads a subset of
    what ``int`` and ``float`` read, with the same values; any warning it
    gives means the file is not canonical.
    """
    parts = raw.split("\n", 2)
    if len(parts) != 3 or parts[1] != "index,re,im" or not parts[0].isprintable():
        return None
    head, rows = parts[0].strip(), parts[2]
    if not head.startswith("#") or not _CANONICAL_ROWS.fullmatch(rows):
        return None
    try:
        grid = _grid_header(head, "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                rows.splitlines(), delimiter=",", dtype=_ROW, comments=None, ndmin=1
            )
    except (CliParseError, ValueError, Warning):
        return None
    if grid is None or table.size != grid.size:
        return None
    if not np.array_equal(table["index"], np.arange(grid.size)):
        return None
    # Through the views, not re + 1j*im, which turns a -0.0 real part into +0.0.
    values = np.empty(grid.size, dtype=np.complex128)
    values.real = table["re"]
    values.imag = table["im"]
    if not np.isfinite(values.view(np.float64)).all():
        return None
    return SampledSignal._owning(grid, values)


def _read_lines(path: Path, raw: str) -> SampledSignal:
    """Parse a signal CSV line by line; the error names the line at fault.

    The data rows are collected first, so a grid header that promises more
    samples than the file holds is rejected before anything is allocated.
    """
    grid: Grid | None = None
    header_line = 0
    rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = _grid_header(line, f"{path}:{lineno}")
            if header is not None:
                grid, header_line = header, lineno
                rows = []  # a new header starts the signal afresh
            continue
        if line.lower() == "index,re,im":
            continue
        if grid is None:
            raise CliParseError(f"{path}:{lineno}: data before the grid header")
        rows.append((lineno, line))
    if grid is None:
        raise CliParseError(f"{path}: missing grid header")
    size = grid.size
    if size > len(rows):
        raise CliParseError(
            f"{path}:{header_line}: grid header promises {size} samples "
            f"but the file holds {len(rows)} data rows"
        )

    values = np.zeros(size, dtype=np.complex128)
    seen = np.zeros(size, dtype=bool)
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != 3:
            raise CliParseError(f"{path}:{lineno}: expected index,re,im")
        try:
            index = int(fields[0])
            real, imag = float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise CliParseError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise CliParseError(f"{path}:{lineno}: non-finite sample {line!r}")
        if not 0 <= index < size:
            raise CliParseError(f"{path}:{lineno}: index {index} out of range")
        if seen[index]:
            raise CliParseError(f"{path}:{lineno}: duplicate index {index}")
        seen[index] = True
        values[index] = complex(real, imag)
    # At least N rows, each with its own index below N: every index was seen.
    return SampledSignal._owning(grid, values)


# --------------------------------------------------------------------- frft


def cmd_frft(args: argparse.Namespace) -> None:
    if args.inverse and args.oracle:
        raise CliConfigError("--oracle implements only the forward transform")
    signal = read_signal(args.in_path)
    if args.oracle:
        out = frft_direct_oracle(signal, args.theta)
    elif args.inverse:
        out = inverse_frft(signal, args.theta)
    else:
        out = frft(signal, args.theta)
    write_signal(args.out, out)


# ---------------------------------------------------------------------- ops


def cmd_ops(args: argparse.Namespace) -> None:
    signal = read_signal(args.in_path)
    if args.operation == "translate":
        out = theta_translate(signal, args.shift, args.theta)
    elif args.operation == "modulate":
        out = theta_modulate(signal, args.shift, args.theta)
    elif args.operation == "convolve":
        if args.with_path is None:
            raise CliConfigError("convolve needs a second signal via --with")
        other = read_signal(args.with_path)
        out = theta_convolve(signal, other, args.theta)
    else:
        if args.factor is None:
            raise CliConfigError("dilate needs --factor")
        try:
            factor = Fraction(args.factor)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliConfigError(f"--factor {args.factor!r} is not a rational") from exc
        out = theta_dilate(signal, factor, args.theta)
    write_signal(args.out, out)


# ------------------------------------------------------------------- frames


def cmd_frames(args: argparse.Namespace) -> None:
    atoms = tuple(read_signal(p) for p in args.atoms)
    bounds = frame_bounds(AtomBank(atoms, args.theta))
    coords = bounds.grid.coordinates()
    names = ["omega"] if len(coords) == 1 else ["omega_0", "omega_1"]
    head = [_grid_line(bounds.grid), f"# lower: {_fmt(bounds.lower)}",
            f"# upper: {_fmt(bounds.upper)}", ",".join(names + ["value"])]
    _write_table(args.out, head, ",".join(["%.17g"] * (len(coords) + 1)),
                 [*coords, bounds.spectrum])


# ------------------------------------------------------------------ scatter


def _load_json(path: Path) -> dict:
    raw = _read_text(path)
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise CliParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliParseError(f"{path}: expected a JSON object")
    if data.get("schema") != 1:
        raise CliConfigError(f"{path}: unsupported schema {data.get('schema')!r}")
    return data


def _load_scatter_config(
    path: Path | str,
) -> tuple[ThetaParam, list[LayerConfig], int]:
    path = Path(path)
    data = _load_json(path)
    field = partial(_field, error=CliConfigError)
    where = f"{path}: "
    theta = _angle(
        field(data, "theta", "number", where, default=None),
        field(data, "theta_frac", "pair", where, default=None),
        where,
        ("theta", "theta_frac"),
    )
    depth = field(data, "depth", "nonnegative integer", where)
    raw_layers = field(data, "layers", "objects", where)

    base = path.parent
    layers = []
    for pos, entry in enumerate(raw_layers):
        where = f"{path}: layers[{pos}]: "
        atom_paths = field(entry, "atoms", "files", where)
        out_path = field(entry, "output_atom", "string", where)
        nonlin_spec = entry.get("nonlin", "identity")
        if isinstance(nonlin_spec, str):
            nonlin_spec = {"kind": nonlin_spec}
        if not isinstance(nonlin_spec, dict):
            raise CliConfigError(f"{where}nonlin must be a kind string or an object")
        kind = field(nonlin_spec, "kind", "string", f"{where}nonlin ")
        threshold = field(nonlin_spec, "b", "number", f"{where}nonlin ", default=0.0)
        pool_kind = field(entry, "pool", "string", where, default="identity")
        s_factor = field(entry, "s", "number", where, default=1.0)
        try:
            nonlin = Nonlinearity(kind, threshold)
            pool = Pooling(pool_kind)
        except ValueError as exc:
            raise CliConfigError(f"{where}{exc}") from exc
        atoms = tuple(read_signal(base / p) for p in atom_paths)
        output_atom = read_signal(base / out_path)
        try:
            layers.append(
                LayerConfig(
                    bank=AtomBank(atoms, theta),
                    output_atom=output_atom,
                    nonlin=nonlin,
                    pool=pool,
                    pooling_factor=s_factor,
                )
            )
        except ValueError as exc:
            raise CliConfigError(f"{where}{exc}") from exc
    if depth > len(layers):
        raise CliConfigError(
            f"{path}: depth {depth} exceeds the {len(layers)} configured layers"
        )
    return theta, layers, depth


def _path_label(path: tuple[int, ...]) -> str:
    return "-".join(str(i) for i in path) if path else "root"


def cmd_scatter_extract(args: argparse.Namespace) -> None:
    theta, layers, depth = _load_scatter_config(args.config)
    signal = read_signal(args.signal)
    tree = extract_features(signal, layers, depth, theta)
    out_dir = Path(args.out_dir)

    rows = []
    for level, features in enumerate(tree.levels):
        for path, feature in sorted(features.items()):
            name = f"feature_{level}_{_path_label(path)}.csv"
            write_signal(out_dir / name, feature)
            rows.append((level, _path_label(path), l2_norm(feature), name))
    head = [f"# admissible: {str(tree.admissible).lower()}", "level,path,norm,file"]
    _write_table(out_dir / "index.csv", head, "%d,%s,%.17g,%s", list(zip(*rows)))


def cmd_scatter_invariance(args: argparse.Namespace) -> None:
    theta, layers, depth = _load_scatter_config(args.config)
    signal = read_signal(args.signal)
    norm_f = l2_norm(signal)
    s_factors = [layer.pooling_factor for layer in layers[:depth]]
    decay = max(
        (layer.decay_constants[2] for layer in layers[:depth]),
        default=layers[0].decay_constants[2],
    )
    shifts = [as_shift(t, signal.grid.n_dims) for t in args.t]
    deviations = _deviations(signal, shifts, layers, depth, theta, None, covariant=False)
    bounds = [invariance_bound(shift, theta, s_factors, decay, norm_f) for shift in shifts]
    _write_table(args.out, ["t,theta,deviation,bound"], "%.17g,%.17g,%.17g,%.17g",
                 [args.t, [theta.theta] * len(shifts), deviations, bounds])


# ------------------------------------------------------------------- approx


def _fiber_grid_for(grids: Sequence[Grid], theta: ThetaParam, window: int | None) -> FiberGrid:
    grid = grids[0]
    for other in grids[1:]:
        if other != grid:
            raise GridMismatch("all data signals must share one grid")
    if window is None:
        window = _covering_window(grid)
    return FiberGrid(theta, grid.n_dims, _integer_period(grid), window)


def cmd_approx_fit(args: argparse.Namespace) -> None:
    if args.ell < 1:
        raise CliConfigError("--ell must be at least 1")
    signals = [read_signal(p) for p in args.data]
    fgrid = _fiber_grid_for([s.grid for s in signals], args.theta, args.window)
    fibers = [fiber_map(s, fgrid) for s in signals]
    model = fit_sis(fibers, args.ell)

    out_dir = Path(args.out_dir)
    summary = {
        "schema": 1,
        "theta": args.theta.theta,
        "ell": model.ell,
        "family_size": model.family_size,
        "omega_samples": fgrid.omega_samples,
        "window": fgrid.window,
        "error": approximation_error(model),
        "eigenvalues": model.eigenvalues.tolist(),
        "mixing": np.stack([model.eigenvectors.real, model.eigenvectors.imag], -1).tolist(),
    }
    _write_json(out_dir / "model.json", summary)
    for i in range(model.ell):
        write_signal(
            out_dir / f"generator_{i}.csv",
            synthesize_generator(model, i, signals[0].grid),
        )


def cmd_approx_table(args: argparse.Namespace) -> None:
    if args.m < 1:
        raise CliConfigError("--m must be at least 1")
    n_dims = 1 if args.family == "sinc1d" else 2
    fgrid = FiberGrid(args.theta, n_dims, args.omega_samples, window=args.m)
    fibers = analytic_sinc_fibers(args.m, fgrid)
    # One fit at full rank: each rank's error is the tail of its eigenvalues.
    model = fit_sis(fibers, args.m)
    ranks = range(1, args.m + 1)
    errors = [_tail_error(model, ell) for ell in ranks]
    _write_table(args.out, ["ell,error"], "%d,%.17g", [ranks, errors])


# ---------------------------------------------------------------- multitile


def cmd_multitile_fit(args: argparse.Namespace) -> None:
    if args.ell < 1:
        raise CliConfigError("--ell must be at least 1")
    if args.bound < 1:
        raise CliConfigError("--N must be at least 1")
    signals = [read_signal(p) for p in args.data]
    fgrid = _fiber_grid_for([s.grid for s in signals], args.theta, None)
    if args.bound > fgrid.window:
        raise CliConfigError(
            f"--N {args.bound} exceeds the grid's offset window {fgrid.window}"
        )
    fibers = [fiber_map(s, fgrid) for s in signals]
    model = optimal_multitile(fibers, args.ell, args.bound)

    out_dir = Path(args.out_dir)
    tile = model.tile
    tile_doc = {
        "schema": 1,
        "theta": tile.theta.theta,
        "n_dims": tile.n_dims,
        "omega_samples": tile.omega_samples,
        "bound": tile.bound,
        "ell": model.ell,
        "cells": [[list(k) for k in cell] for cell in tile.cells],
    }
    _write_json(out_dir / "tile.json", tile_doc)
    residuals = [_energy(s.values - bandlimited_project(s, model).values, s.grid) for s in signals]
    _write_table(out_dir / "errors.csv", ["member,residual_sq"], "%d,%.17g",
                 [range(len(signals)), residuals])


def _tile_from_json(path: Path | str) -> tuple[TileSet, int]:
    path = Path(path)
    field = partial(_field, _load_json(path), where=f"{path}: ", error=CliParseError)
    n_dims, omega_samples, bound, ell = (
        field(key, "integer") for key in ("n_dims", "omega_samples", "bound", "ell")
    )
    theta, cells = field("theta", "number"), field("cells", "cells")
    tile = TileSet(
        theta=ThetaParam(theta),
        n_dims=n_dims,
        omega_samples=omega_samples,
        bound=bound,
        cells=[map(tuple, cell) for cell in cells],  # TileSet takes offsets as tuples
    )
    return tile, ell


def cmd_multitile_check(args: argparse.Namespace) -> None:
    tile, ell = _tile_from_json(args.tile)
    if ell < 1:
        raise CliConfigError(f"{args.tile}: ell must be at least 1")
    if not is_multitile(tile, ell):
        raise NotMultiTile(
            f"{args.tile}: offset counts per cell are not uniformly {ell}"
        )
    print(
        f"ok: {ell}-fold tile over {tile.n_cells} cells, "
        f"offsets bounded by {tile.bound}"
    )


# ----------------------------------------------------------------- plotdata


def cmd_plotdata(args: argparse.Namespace) -> None:
    signal = read_signal(args.in_path)
    coords = signal.grid.coordinates()  # fresh arrays on each call: read once
    names = ["coordinate"] if len(coords) == 1 else ["coordinate_0", "coordinate_1"]
    values = signal.values
    # The scalar abs of each sample: a vectorized np.abs may differ in the last ulp.
    magnitude = list(map(abs, values))
    _write_table(args.out, [",".join(names + ["magnitude", "re", "im"])],
                 ",".join(["%.17g"] * (len(coords) + 3)),
                 [*coords, magnitude, values.real, values.imag])


# ------------------------------------------------------------------ parsing


def _add_theta_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, help="angle in radians")
    parser.add_argument(
        "--theta-frac",
        type=int,
        nargs=2,
        metavar=("P", "Q"),
        help="angle as P*pi/Q, exact in the goldens",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frftkit",
        description="Fractional Fourier transforms, twisted operators, "
        "feature cascades, and invariant-subspace fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_frft = sub.add_parser("frft", help="apply the fractional Fourier transform")
    p_frft.add_argument("--in", dest="in_path", required=True, help="input signal CSV")
    p_frft.add_argument("--out", required=True, help="output signal CSV")
    _add_theta_flags(p_frft)
    p_frft.add_argument("--inverse", action="store_true")
    p_frft.add_argument(
        "--oracle", action="store_true", help="use the quadratic-cost reference"
    )
    p_frft.set_defaults(func=cmd_frft)

    p_ops = sub.add_parser("ops", help="apply one twisted operator")
    p_ops.add_argument(
        "operation", choices=("translate", "modulate", "convolve", "dilate")
    )
    p_ops.add_argument("--in", dest="in_path", required=True)
    p_ops.add_argument("--out", required=True)
    _add_theta_flags(p_ops)
    p_ops.add_argument("--shift", type=float, nargs="+", default=(), metavar="S")
    p_ops.add_argument("--with", dest="with_path", help="second signal for convolve")
    p_ops.add_argument("--factor", help="dilation factor, e.g. 2 or 3/2")
    p_ops.set_defaults(func=cmd_ops)

    p_frames = sub.add_parser("frames", help="frame spectrum of an atom bank")
    p_frames.add_argument("--atoms", nargs="+", required=True, metavar="CSV")
    p_frames.add_argument("--out", required=True)
    _add_theta_flags(p_frames)
    p_frames.set_defaults(func=cmd_frames)

    p_scatter = sub.add_parser("scatter", help="cascaded feature extraction")
    scatter_sub = p_scatter.add_subparsers(dest="scatter_command", required=True)
    p_extract = scatter_sub.add_parser("extract", help="write the feature tree")
    p_extract.add_argument("--config", required=True, help="cascade JSON")
    p_extract.add_argument("--signal", required=True, help="input signal CSV")
    p_extract.add_argument("--out-dir", required=True)
    p_extract.set_defaults(func=cmd_scatter_extract)
    p_inv = scatter_sub.add_parser(
        "invariance", help="measured deviation against the certified bound"
    )
    p_inv.add_argument("--config", required=True)
    p_inv.add_argument("--signal", required=True)
    p_inv.add_argument("--t", type=float, nargs="+", required=True, metavar="T")
    p_inv.add_argument("--out", required=True)
    p_inv.set_defaults(func=cmd_scatter_invariance)

    p_approx = sub.add_parser("approx", help="invariant-subspace approximation")
    approx_sub = p_approx.add_subparsers(dest="approx_command", required=True)
    p_fit = approx_sub.add_parser("fit", help="fit a rank-ell model to data")
    p_fit.add_argument("--data", nargs="+", required=True, metavar="CSV")
    p_fit.add_argument("--ell", type=int, required=True)
    _add_theta_flags(p_fit)
    p_fit.add_argument("--window", type=int, default=None)
    p_fit.add_argument("--out-dir", required=True)
    p_fit.set_defaults(func=cmd_approx_fit)
    p_table = approx_sub.add_parser(
        "table", help="closed-form family approximation errors by rank"
    )
    p_table.add_argument("--family", choices=("sinc1d", "sinc2d"), required=True)
    p_table.add_argument("--m", type=int, default=4)
    _add_theta_flags(p_table)
    p_table.add_argument("--omega-samples", type=int, default=16)
    p_table.add_argument("--out", required=True)
    p_table.set_defaults(func=cmd_approx_table)

    p_multi = sub.add_parser("multitile", help="bandlimited tile-set models")
    multi_sub = p_multi.add_subparsers(dest="multitile_command", required=True)
    p_mfit = multi_sub.add_parser("fit", help="energy-optimal tile selection")
    p_mfit.add_argument("--data", nargs="+", required=True, metavar="CSV")
    p_mfit.add_argument("--ell", type=int, required=True)
    p_mfit.add_argument("--N", dest="bound", type=int, required=True)
    _add_theta_flags(p_mfit)
    p_mfit.add_argument("--out-dir", required=True)
    p_mfit.set_defaults(func=cmd_multitile_fit)
    p_mcheck = multi_sub.add_parser("check", help="validate a tile JSON")
    p_mcheck.add_argument("--tile", required=True)
    p_mcheck.set_defaults(func=cmd_multitile_check)

    p_plot = sub.add_parser("plotdata", help="flatten a signal CSV for plotting")
    p_plot.add_argument("--in", dest="in_path", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plotdata)

    return parser


def _show_warning(message, category, *_where, **_file_and_line) -> None:
    """A warning as one stderr line that names no source path."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "theta_frac"):  # the parser took _add_theta_flags
            args.theta = _angle(args.theta, args.theta_frac)
        handler: Callable[[argparse.Namespace], None] = args.func
        with warnings.catch_warnings():  # keeps the caller's filters
            warnings.showwarning = _show_warning
            handler(args)
    except (CliParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CliConfigError, FrftkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK
