"""Command-line front end for transforms, operators, frames, feature
extraction, and subspace fitting.

Subcommands: ``frft``, ``ops``, ``frames``, ``scatter``, ``approx``,
``multitile``, ``plotdata``.  Signals travel as CSV files with a
``# grid: n_dims,N,extent`` header followed by ``index,re,im`` rows;
configuration files are JSON with a ``"schema": 1`` field.  Angles are
given in radians via ``--theta`` or exactly as ``--theta-frac P Q``
meaning ``P*pi/Q``.

Every command is deterministic (identical inputs produce byte-identical
outputs) and writes atomically (temporary file plus rename).  Exit codes:
0 success, 2 input parse failure, 3 numeric degeneracy, 4 configuration
contradiction.  The environment variable ``FRFTKIT_THREADS`` caps worker
parallelism; all built-in computations run on a single worker, which
satisfies any positive cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .approx import (
    FiberGrid,
    _integer_period,
    analytic_sinc_fibers,
    approximation_error,
    fiber_map,
    fit_sis,
    synthesize_generator,
)
from .errors import (
    AngleDegenerate,
    BadRank,
    FrftkitError,
    GridMismatch,
    GridTooLarge,
    IrrationalScale,
    KeyMismatch,
    NoDecay,
    NonCommutingOps,
    NotHermitian,
    NotMultiTile,
    OffGridShift,
    PathArityMismatch,
    TruncationLoss,
    WindowTooSmall,
)
from .frames import AtomBank, frame_bounds
from .grids import Grid, SampledSignal, ThetaParam, as_shift
from .multitile import TileSet, bandlimited_project, is_multitile, optimal_multitile
from .scatter import (
    LayerConfig,
    Nonlinearity,
    Pooling,
    extract_features,
    invariance_bound,
    invariance_deviation,
)
from .theta_ops import theta_convolve, theta_dilate, theta_modulate, theta_translate
from .transform import frft, frft_direct_oracle, inverse_frft, l2_norm

__all__ = ["main", "RunConfig", "read_signal", "write_signal"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

#: Errors meaning the computation itself degenerated.
_NUMERIC_ERRORS = (AngleDegenerate, NoDecay, TruncationLoss, NotHermitian, GridTooLarge)
#: Errors meaning the request contradicts itself or its inputs.
_CONFIG_ERRORS = (
    NonCommutingOps,
    GridMismatch,
    BadRank,
    NotMultiTile,
    WindowTooSmall,
    PathArityMismatch,
    KeyMismatch,
    OffGridShift,
    IrrationalScale,
)


class CliParseError(Exception):
    """An input file could not be parsed."""


class CliConfigError(Exception):
    """Flags or configuration fields contradict each other."""


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated record of one command invocation.

    ``theta`` is resolved from the angle flags when the command carries
    them (scatter and tile commands read their angle from JSON instead);
    ``threads`` is the ``FRFTKIT_THREADS`` cap, ``None`` when uncapped.
    """

    command: str
    theta: ThetaParam | None
    threads: int | None


def _require_theta(config: RunConfig) -> ThetaParam:
    if config.theta is None:
        raise CliConfigError("an angle is required: --theta or --theta-frac")
    return config.theta


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _is_int(x: object) -> bool:
    """A JSON integer; ``true`` and ``false`` do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x: object) -> bool:
    """A JSON number; ``true`` and ``false`` do not count."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
    )
    try:
        with handle as fh:
            fh.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def write_signal(path: Path | str, signal: SampledSignal) -> None:
    """Serialize a signal as ``# grid:`` header plus ``index,re,im`` rows."""
    grid = signal.grid
    lines = [
        f"# grid: {grid.n_dims},{grid.samples_per_dim},{_fmt(grid.extent)}",
        "index,re,im",
    ]
    for i, v in enumerate(signal.values):
        lines.append(f"{i},{_fmt(v.real)},{_fmt(v.imag)}")
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def read_signal(path: Path | str) -> SampledSignal:
    """Parse a signal CSV; raises :class:`CliParseError` on any defect.

    The data rows are collected first, so a grid header that promises more
    samples than the file holds is rejected before anything is allocated.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc

    grid: Grid | None = None
    header_line = 0
    rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("grid:"):
                fields = [t.strip() for t in body[len("grid:"):].split(",")]
                if len(fields) != 3:
                    raise CliParseError(f"{path}:{lineno}: malformed grid header")
                try:
                    grid = Grid(int(fields[0]), int(fields[1]), float(fields[2]))
                except (ValueError, FrftkitError) as exc:
                    raise CliParseError(f"{path}:{lineno}: bad grid: {exc}") from exc
                header_line = lineno
                rows = []  # a new header starts the signal afresh
            continue
        if line.lower() == "index,re,im":
            continue
        if grid is None:
            raise CliParseError(f"{path}:{lineno}: data before the grid header")
        rows.append((lineno, line))
    if grid is None:
        raise CliParseError(f"{path}: missing grid header")
    if grid.size > len(rows):
        raise CliParseError(
            f"{path}:{header_line}: grid header promises {grid.size} samples "
            f"but the file holds {len(rows)} data rows"
        )

    values = np.zeros(grid.size, dtype=np.complex128)
    seen = np.zeros(grid.size, dtype=bool)
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != 3:
            raise CliParseError(f"{path}:{lineno}: expected index,re,im")
        try:
            index = int(fields[0])
            re, im = float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise CliParseError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise CliParseError(f"{path}:{lineno}: non-finite sample {line!r}")
        if not 0 <= index < grid.size:
            raise CliParseError(f"{path}:{lineno}: index {index} out of range")
        if seen[index]:
            raise CliParseError(f"{path}:{lineno}: duplicate index {index}")
        seen[index] = True
        values[index] = complex(re, im)
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise CliParseError(f"{path}: missing sample index {missing}")
    return SampledSignal(grid=grid, values=values)


def _write_table(path: Path | str, header: str, rows: list[str],
                 preamble: Sequence[str] = ()) -> None:
    lines = list(preamble) + [header] + rows
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _resolve_theta(args: argparse.Namespace) -> ThetaParam | None:
    has_val = getattr(args, "theta", None) is not None
    has_frac = getattr(args, "theta_frac", None) is not None
    if has_val and has_frac:
        raise CliConfigError("--theta and --theta-frac contradict each other")
    if not has_val and not has_frac:
        return None
    if has_frac:
        p, q = args.theta_frac
        if q == 0:
            raise CliConfigError("--theta-frac denominator must be nonzero")
        return ThetaParam(math.pi * p / q)
    return ThetaParam(args.theta)


def _threads_from_env() -> int | None:
    raw = os.environ.get("FRFTKIT_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError as exc:
        raise CliConfigError(f"FRFTKIT_THREADS={raw!r} is not an integer") from exc
    if n < 1:
        raise CliConfigError("FRFTKIT_THREADS must be at least 1")
    return n


# --------------------------------------------------------------------- frft


def cmd_frft(args: argparse.Namespace, config: RunConfig) -> None:
    theta = _require_theta(config)
    if args.inverse and args.oracle:
        raise CliConfigError("--oracle implements only the forward transform")
    signal = read_signal(args.in_path)
    if args.oracle:
        out = frft_direct_oracle(signal, theta)
    elif args.inverse:
        out = inverse_frft(signal, theta)
    else:
        out = frft(signal, theta)
    write_signal(args.out, out)


# ---------------------------------------------------------------------- ops


def _parse_shift(args: argparse.Namespace, n_dims: int) -> tuple[float, ...]:
    shift = tuple(float(c) for c in args.shift)
    if len(shift) != n_dims:
        raise CliConfigError(
            f"--shift has {len(shift)} components for a {n_dims}-dimensional grid"
        )
    return shift


def cmd_ops(args: argparse.Namespace, config: RunConfig) -> None:
    theta = _require_theta(config)
    signal = read_signal(args.in_path)
    if args.operation == "translate":
        out = theta_translate(signal, _parse_shift(args, signal.grid.n_dims), theta)
    elif args.operation == "modulate":
        out = theta_modulate(signal, _parse_shift(args, signal.grid.n_dims), theta)
    elif args.operation == "convolve":
        if args.with_path is None:
            raise CliConfigError("convolve needs a second signal via --with")
        other = read_signal(args.with_path)
        out = theta_convolve(signal, other, theta)
    else:
        if args.factor is None:
            raise CliConfigError("dilate needs --factor")
        try:
            factor = Fraction(args.factor)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliConfigError(f"--factor {args.factor!r} is not a rational") from exc
        out = theta_dilate(signal, factor, theta)
    write_signal(args.out, out)


# ------------------------------------------------------------------- frames


def cmd_frames(args: argparse.Namespace, config: RunConfig) -> None:
    theta = _require_theta(config)
    atoms = tuple(read_signal(p) for p in args.atoms)
    bounds = frame_bounds(AtomBank(atoms, theta))
    grid = bounds.grid
    preamble = [
        f"# grid: {grid.n_dims},{grid.samples_per_dim},{_fmt(grid.extent)}",
        f"# lower: {_fmt(bounds.lower)}",
        f"# upper: {_fmt(bounds.upper)}",
    ]
    if grid.n_dims == 1:
        header = "omega,value"
        rows = [
            f"{_fmt(w)},{_fmt(v)}"
            for w, v in zip(grid.axis, bounds.spectrum)
        ]
    else:
        header = "omega_0,omega_1,value"
        coords = grid.coordinates()
        rows = [
            f"{_fmt(coords[0].ravel()[i])},{_fmt(coords[1].ravel()[i])},{_fmt(v)}"
            for i, v in enumerate(bounds.spectrum)
        ]
    _write_table(args.out, header, rows, preamble)


# ------------------------------------------------------------------ scatter


def _scatter_theta(data: dict, where: str) -> ThetaParam:
    has_val = "theta" in data
    has_frac = "theta_frac" in data
    if has_val and has_frac:
        raise CliConfigError(f"{where}: theta and theta_frac contradict each other")
    if has_frac:
        frac = data["theta_frac"]
        if (
            not isinstance(frac, list)
            or len(frac) != 2
            or not all(_is_int(x) for x in frac)
        ):
            raise CliConfigError(f"{where}: theta_frac must be a pair of integers")
        if frac[1] == 0:
            raise CliConfigError(f"{where}: theta_frac denominator must be nonzero")
        return ThetaParam(math.pi * frac[0] / frac[1])
    if has_val:
        if not _is_real(data["theta"]):
            raise CliConfigError(f"{where}: theta must be a number")
        return ThetaParam(float(data["theta"]))
    raise CliConfigError(f"{where}: an angle is required (theta or theta_frac)")


def _load_json(path: Path | str) -> dict:
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
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
    theta = _scatter_theta(data, str(path))
    if not _is_int(data.get("depth")) or data["depth"] < 0:
        raise CliConfigError(f"{path}: depth must be a nonnegative integer")
    depth = data["depth"]
    raw_layers = data.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise CliConfigError(f"{path}: layers must be a non-empty list")

    base = path.parent
    layers = []
    for pos, entry in enumerate(raw_layers):
        where = f"{path}: layers[{pos}]"
        if not isinstance(entry, dict):
            raise CliConfigError(f"{where}: expected an object")
        atom_paths = entry.get("atoms")
        if not isinstance(atom_paths, list) or not atom_paths or not all(
            isinstance(p, str) for p in atom_paths
        ):
            raise CliConfigError(f"{where}: atoms must list at least one file")
        out_path = entry.get("output_atom")
        if not isinstance(out_path, str):
            raise CliConfigError(f"{where}: output_atom file is required")
        nonlin_spec = entry.get("nonlin", {"kind": "identity"})
        if isinstance(nonlin_spec, str):
            nonlin_spec = {"kind": nonlin_spec}
        if not isinstance(nonlin_spec, dict) or "kind" not in nonlin_spec:
            raise CliConfigError(f"{where}: nonlin needs a kind")
        threshold = nonlin_spec.get("b", 0.0)
        if not _is_real(threshold):
            raise CliConfigError(f"{where}: nonlin b must be a number")
        pool_kind = entry.get("pool", "identity")
        if not isinstance(pool_kind, str):
            raise CliConfigError(f"{where}: pool must be a kind string")
        s_factor = entry.get("s", 1.0)
        if not _is_real(s_factor):
            raise CliConfigError(f"{where}: s must be a number")
        try:
            nonlin = Nonlinearity(
                str(nonlin_spec["kind"]), float(threshold)
            )
            pool = Pooling(pool_kind)
        except ValueError as exc:
            raise CliConfigError(f"{where}: {exc}") from exc
        atoms = tuple(read_signal(base / p) for p in atom_paths)
        output_atom = read_signal(base / out_path)
        try:
            layers.append(
                LayerConfig(
                    bank=AtomBank(atoms, theta),
                    output_atom=output_atom,
                    nonlin=nonlin,
                    pool=pool,
                    pooling_factor=float(s_factor),
                )
            )
        except ValueError as exc:
            raise CliConfigError(f"{where}: {exc}") from exc
    if depth > len(layers):
        raise CliConfigError(
            f"{path}: depth {depth} exceeds the {len(layers)} configured layers"
        )
    return theta, layers, depth


def _path_label(path: tuple[int, ...]) -> str:
    return "-".join(str(i) for i in path) if path else "root"


def cmd_scatter_extract(args: argparse.Namespace, config: RunConfig) -> None:
    theta, layers, depth = _load_scatter_config(args.config)
    signal = read_signal(args.signal)
    tree = extract_features(signal, layers, depth, theta)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for level, features in enumerate(tree.levels):
        for path, feature in sorted(features.items()):
            name = f"feature_{level}_{_path_label(path)}.csv"
            write_signal(out_dir / name, feature)
            rows.append(f"{level},{_path_label(path)},{_fmt(l2_norm(feature))},{name}")
    preamble = [f"# admissible: {str(tree.admissible).lower()}"]
    _write_table(out_dir / "index.csv", "level,path,norm,file", rows, preamble)


def cmd_scatter_invariance(args: argparse.Namespace, config: RunConfig) -> None:
    theta, layers, depth = _load_scatter_config(args.config)
    signal = read_signal(args.signal)
    norm_f = l2_norm(signal)
    s_factors = [layer.pooling_factor for layer in layers[:depth]]
    decay = max(
        (layer.decay_constants[2] for layer in layers[:depth]),
        default=layers[0].decay_constants[2],
    )
    rows = []
    for t in args.t:
        shift = as_shift(t, signal.grid.n_dims)
        deviation = invariance_deviation(signal, shift, layers, depth, theta)
        bound = invariance_bound(shift, theta, s_factors, decay, norm_f)
        rows.append(f"{_fmt(t)},{_fmt(theta.theta)},{_fmt(deviation)},{_fmt(bound)}")
    _write_table(args.out, "t,theta,deviation,bound", rows)


# ------------------------------------------------------------------- approx


def _fiber_grid_for(
    grids: Sequence[Grid],
    theta: ThetaParam,
    omega_samples: int | None,
    window: int | None,
) -> FiberGrid:
    grid = grids[0]
    for other in grids[1:]:
        if other != grid:
            raise GridMismatch("all data signals must share one grid")
    period = _integer_period(grid)
    if omega_samples is None:
        omega_samples = period
    if window is None:
        window = grid.samples_per_dim // (2 * period)
    if window < 1:
        raise CliConfigError("the signal grid leaves no room for fiber offsets")
    return FiberGrid(theta, grid.n_dims, omega_samples, window)


def _complex_pairs(block: np.ndarray) -> list:
    stacked = np.stack([block.real, block.imag], axis=-1)
    return stacked.tolist()


def cmd_approx_fit(args: argparse.Namespace, config: RunConfig) -> None:
    theta = _require_theta(config)
    if args.ell < 1:
        raise CliConfigError("--ell must be at least 1")
    signals = [read_signal(p) for p in args.data]
    fgrid = _fiber_grid_for(
        [s.grid for s in signals], theta, args.omega_samples, args.window
    )
    fibers = [fiber_map(s, fgrid) for s in signals]
    model = fit_sis(fibers, args.ell)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "schema": 1,
        "theta": theta.theta,
        "ell": model.ell,
        "family_size": model.family_size,
        "omega_samples": fgrid.omega_samples,
        "window": fgrid.window,
        "error": approximation_error(model),
        "eigenvalues": model.eigenvalues.tolist(),
        "mixing": _complex_pairs(model.eigenvectors),
    }
    _atomic_write(
        out_dir / "model.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    for i in range(model.ell):
        write_signal(
            out_dir / f"generator_{i}.csv",
            synthesize_generator(model, i, signals[0].grid),
        )


def cmd_approx_table(args: argparse.Namespace, config: RunConfig) -> None:
    theta = _require_theta(config)
    if args.m < 1:
        raise CliConfigError("--m must be at least 1")
    n_dims = 1 if args.family == "sinc1d" else 2
    fgrid = FiberGrid(theta, n_dims, args.omega_samples, window=args.m)
    fibers = analytic_sinc_fibers(args.m, fgrid)
    rows = []
    for ell in range(1, args.m + 1):
        error = approximation_error(fit_sis(fibers, ell))
        rows.append(f"{ell},{_fmt(error)}")
    _write_table(args.out, "ell,error", rows)


# ---------------------------------------------------------------- multitile


def cmd_multitile_fit(args: argparse.Namespace, config: RunConfig) -> None:
    theta = _require_theta(config)
    if args.ell < 1:
        raise CliConfigError("--ell must be at least 1")
    if args.bound < 1:
        raise CliConfigError("--N must be at least 1")
    signals = [read_signal(p) for p in args.data]
    fgrid = _fiber_grid_for([s.grid for s in signals], theta, None, None)
    if args.bound > fgrid.window:
        raise CliConfigError(
            f"--N {args.bound} exceeds the grid's offset window {fgrid.window}"
        )
    fibers = [fiber_map(s, fgrid) for s in signals]
    model = optimal_multitile(fibers, args.ell, args.bound)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _atomic_write(
        out_dir / "tile.json", json.dumps(tile_doc, indent=2, sort_keys=True) + "\n"
    )
    rows = []
    for j, signal in enumerate(signals):
        projected = bandlimited_project(signal, model)
        residual = signal.with_values(signal.values - projected.values)
        rows.append(f"{j},{_fmt(l2_norm(residual) ** 2)}")
    _write_table(out_dir / "errors.csv", "member,residual_sq", rows)


def _tile_from_json(path: Path | str) -> tuple[TileSet, int]:
    data = _load_json(path)
    required = ("theta", "n_dims", "omega_samples", "bound", "ell", "cells")
    for key in required:
        if key not in data:
            raise CliConfigError(f"{path}: missing field {key!r}")
    for key in ("n_dims", "omega_samples", "bound", "ell"):
        if not _is_int(data[key]):
            raise CliParseError(f"{path}: {key} must be an integer")
    if not _is_real(data["theta"]):
        raise CliParseError(f"{path}: theta must be a number")
    # False for nan and for numbers that float() cannot hold, inf included.
    if not abs(data["theta"]) <= sys.float_info.max:
        raise CliParseError(f"{path}: theta must be finite")
    raw = data["cells"]
    if not (
        isinstance(raw, list)
        and all(
            isinstance(cell, list)
            and all(
                isinstance(offset, list) and all(_is_int(c) for c in offset)
                for offset in cell
            )
            for cell in raw
        )
    ):
        raise CliParseError(f"{path}: cells must be a list of lists of integer lists")
    cells = tuple(tuple(tuple(offset) for offset in cell) for cell in raw)
    tile = TileSet(
        theta=ThetaParam(data["theta"]),
        n_dims=data["n_dims"],
        omega_samples=data["omega_samples"],
        bound=data["bound"],
        cells=cells,
    )
    return tile, data["ell"]


def cmd_multitile_check(args: argparse.Namespace, config: RunConfig) -> None:
    tile, ell = _tile_from_json(args.tile)
    if not is_multitile(tile, ell):
        raise NotMultiTile(
            f"{args.tile}: offset counts per cell are not uniformly {ell}"
        )
    print(
        f"ok: {ell}-fold tile over {tile.n_cells} cells, "
        f"offsets bounded by {tile.bound}"
    )


# ----------------------------------------------------------------- plotdata


def cmd_plotdata(args: argparse.Namespace, config: RunConfig) -> None:
    signal = read_signal(args.in_path)
    grid = signal.grid
    if grid.n_dims == 1:
        header = "coordinate,magnitude,re,im"
        rows = [
            f"{_fmt(grid.axis[i])},{_fmt(abs(v))},{_fmt(v.real)},{_fmt(v.imag)}"
            for i, v in enumerate(signal.values)
        ]
    else:
        header = "coordinate_0,coordinate_1,magnitude,re,im"
        coords = grid.coordinates()
        x0, x1 = coords[0].ravel(), coords[1].ravel()
        rows = [
            f"{_fmt(x0[i])},{_fmt(x1[i])},{_fmt(abs(v))},{_fmt(v.real)},{_fmt(v.imag)}"
            for i, v in enumerate(signal.values)
        ]
    _write_table(args.out, header, rows)


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
    p_fit.add_argument("--omega-samples", type=int, default=None)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig(
            command=args.command,
            theta=_resolve_theta(args),
            threads=_threads_from_env(),
        )
        handler: Callable[[argparse.Namespace, RunConfig], None] = args.func
        handler(args, config)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CliConfigError, *_CONFIG_ERRORS, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK
