"""The benchmark's four workloads.

Each workload is built from a seed and a size (``"full"`` for measured
runs, ``"tiny"`` for the smoke test).  ``setup()`` generates every input
from the seed with :mod:`reference` (never with ``frftkit``) and builds the
program objects the op needs; ``op(i)`` is the timed unit of work; and
``check(i, result)`` verifies the result outside the timed interval and
raises :class:`CheckFailed` on a wrong answer.  All four run as a closed
loop: one caller in one process issues op ``i + 1`` only after op ``i``
returned.

Why each workload exists:

* ``cascade`` -- many small transform calls on one fixed (grid, angle):
  the chirp tables repeat on every call, so a chirp cache would always hit.
  The frame bounds of both layers are computed in its setup.
* ``sis_fit`` -- per-cell Gramian eigensolves dominate; the fiber band is
  wide enough that every Gramian is full rank, which keeps the solver busy.
* ``cli_io`` -- CSV parsing and formatting around a cheap 1-D transform:
  the compute layers are nearly absent.
* ``angle_sweep`` -- one large transform pair at a fresh angle per op:
  no (grid, angle) reuse, so a chirp cache always misses.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import frftkit as fk
import frftkit.cli
import reference as ref

NAMES = ("cascade", "sis_fit", "cli_io", "angle_sweep")


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own reference."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _signal(grid: ref.RefGrid, values: np.ndarray) -> fk.SampledSignal:
    return fk.SampledSignal(fk.Grid(grid.n_dims, grid.n, grid.extent), values)


class Cascade:
    """Depth-2 feature cascade: energy profile plus one invariance deviation."""

    SIZES = {"full": (64, 4.0), "tiny": (16, 2.0)}
    THETA = math.pi / 3
    S_FACTORS = (2.0, 1.0)
    POOL = 6  # band-limited input signals
    MAX_STEP = 3  # shifts are (k1, k2) * spacing with 1 <= |k| <= MAX_STEP

    def __init__(self, seed: int, size: str = "full") -> None:
        n, extent = self.SIZES[size]
        self.grid = ref.RefGrid(2, n, extent)
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        grid, theta = self.grid, self.THETA
        out = grid.output(theta)
        # Two Gaussian-spectrum atoms plus an output atom, jointly scaled so
        # the summed spectral profile sits just below one (admissible bank).
        profiles = [ref.gauss_profile(out, c, 0.5) for c in (-0.6, 0.6)]
        out_profile = ref.gauss_profile(out, 0.0, 0.7)
        total = sum(np.abs(p) ** 2 for p in profiles) + np.abs(out_profile) ** 2
        scale = math.sqrt((1.0 - 1e-9) / float(total.max()))
        atoms = [ref.inverse(scale * p, out, theta) for p in profiles]
        phi = ref.inverse(scale * out_profile, out, theta)
        self.signals = [ref.banded_signal(grid, theta, 0.4, rng) for _ in range(self.POOL)]
        steps = rng.integers(1, self.MAX_STEP + 1, size=(4096, 2)) * rng.choice([-1, 1], size=(4096, 2))
        self.schedule = [
            (int(k), tuple(float(c) * grid.spacing for c in step))
            for k, step in zip(rng.integers(0, self.POOL, size=4096), steps)
        ]
        self.inputs_digest = ref.digest(*atoms, phi, *self.signals, repr(self.schedule).encode())

        # Decay constant of the output atom, from the reference spectrum.
        spec = ref.forward(phi, grid, theta)
        mag = np.abs(spec)
        self.decay = max(float(np.max(np.sqrt(out.radius_squared()) * mag)), float(mag.max()))
        self.norms = [ref.l2_norm(v, grid) for v in self.signals]
        self.seen: dict[tuple, tuple[float, ...]] = {}

        self.theta_p = fk.ThetaParam(theta)
        bank = fk.AtomBank(tuple(_signal(grid, a) for a in atoms), self.theta_p)
        phi_s = _signal(grid, phi)
        self.layers = [
            fk.LayerConfig(bank=bank, output_atom=phi_s, nonlin=fk.Nonlinearity("identity"),
                           pool=fk.Pooling("identity"), pooling_factor=self.S_FACTORS[0]),
            fk.LayerConfig(bank=bank, output_atom=phi_s,
                           nonlin=fk.Nonlinearity("phase_covariant_shrink", 0.01),
                           pool=fk.Pooling("identity"), pooling_factor=self.S_FACTORS[1]),
        ]
        self.inputs = [_signal(grid, v) for v in self.signals]

    def op(self, i: int):
        k, shift = self.schedule[i % len(self.schedule)]
        f = self.inputs[k]
        profile = fk.energy_profile(f, self.layers, 2, self.theta_p)
        deviation = fk.invariance_deviation(f, shift, self.layers, 2, self.theta_p)
        return profile, deviation

    def check(self, i: int, result) -> None:
        profile, deviation = result
        k, shift = self.schedule[i % len(self.schedule)]
        bound = fk.invariance_bound(shift, self.theta_p, self.S_FACTORS, self.decay, self.norms[k])
        _expect(0.0 <= deviation <= bound, f"deviation {deviation!r} exceeds bound {bound!r}")
        _expect(len(profile) == 3 and abs(profile[0] - self.norms[k] ** 2) <= 1e-12,
                f"energy profile {profile!r} does not start at |f|^2")
        _expect(all(b <= a + 1e-12 for a, b in zip(profile, profile[1:])),
                f"energy profile {profile!r} increases")
        scalars = (*map(float, profile), float(deviation))
        previous = self.seen.setdefault((k, shift), scalars)
        _expect(previous == scalars, f"repeated input gave {scalars!r}, first {previous!r}")

    def close(self) -> None:
        pass


class SisFit:
    """Fibers, rank-2 SIS fit, generator synthesis, tiles and one projection."""

    SIZES = {"full": (128, 8.0), "tiny": (32, 4.0)}
    THETA = math.pi / 3
    M = 4
    ELL = 2
    TILE_BOUND = 3
    BAND = 2.0
    FAMILIES = 3

    def __init__(self, seed: int, size: str = "full") -> None:
        n, extent = self.SIZES[size]
        self.grid = ref.RefGrid(2, n, extent)
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        grid, theta = self.grid, self.THETA
        self.families = [
            [ref.banded_signal(grid, theta, self.BAND, rng) for _ in range(self.M)]
            for _ in range(self.FAMILIES)
        ]
        self.inputs_digest = ref.digest(*(v for fam in self.families for v in fam))
        self.ref_eigs: dict[int, np.ndarray] = {}

        period = int(round(grid.period))
        self.omega = period
        self.window = grid.n // (2 * period)
        self.theta_p = fk.ThetaParam(theta)
        self.fgrid = fk.FiberGrid(self.theta_p, 2, self.omega, self.window)
        self.signal_grid = fk.Grid(2, grid.n, grid.extent)
        self.inputs = [[_signal(grid, v) for v in fam] for fam in self.families]

    def op(self, i: int):
        family = self.inputs[i % self.FAMILIES]
        fibers = [fk.fiber_map(s, self.fgrid) for s in family]
        model = fk.fit_sis(fibers, self.ELL)
        error = fk.approximation_error(model)
        generator = fk.synthesize_generator(model, 0, self.signal_grid)
        tiles = fk.optimal_multitile(fibers, self.ELL, self.TILE_BOUND)
        projected = fk.bandlimited_project(family[i % self.M], tiles)
        return model, error, generator, projected

    def _reference_eigenvalues(self, family: int) -> np.ndarray:
        """Descending per-cell eigenvalues of a Gramian formed here.

        Fibers read the chirped spectrum at bins ``N/2 + sgn(sin) w + P k``
        per axis (``P`` the integer period, ``w`` the cell, ``|k| <=
        window``); bins off the grid read zero.
        """
        if family not in self.ref_eigs:
            grid, n = self.grid, self.grid.n
            sign = 1 if math.sin(self.THETA) >= 0 else -1
            w = np.arange(self.omega)
            k = np.arange(-self.window, self.window + 1)
            bins = n // 2 + sign * w[:, None] + self.omega * k[None, :]
            valid = (bins >= 0) & (bins < n)
            clipped = np.clip(bins, 0, n - 1)
            fibers = []
            for v in self.families[family]:
                spec = ref.chirped_spectrum(v, grid, self.THETA)
                block = spec[clipped[:, :, None, None], clipped[None, None, :, :]]
                block = np.where(valid[:, :, None, None] & valid[None, None, :, :], block, 0.0)
                fibers.append(block.transpose(0, 2, 1, 3).reshape(self.omega**2, -1))
            stack = np.stack(fibers)
            gram = np.einsum("iwt,jwt->wij", stack, stack.conj())
            self.ref_eigs[family] = np.linalg.eigvalsh(gram)[:, ::-1]
        return self.ref_eigs[family]

    def check(self, i: int, result) -> None:
        model, error, generator, projected = result
        eigs = self._reference_eigenvalues(i % self.FAMILIES)
        scale = float(eigs.max())
        got = np.asarray(model.eigenvalues)
        _expect(got.shape == eigs.shape, f"eigenvalue shape {got.shape} != {eigs.shape}")
        _expect(float(np.max(np.abs(got - eigs))) <= 1e-9 * scale, "eigenvalues disagree with eigvalsh")
        _expect(float(eigs[:, self.ELL - 1].min()) > 1e-9 * scale, "a Gramian is rank-deficient")
        weight = abs(math.sin(self.THETA)) ** 2
        want = weight * float(np.mean(np.sum(eigs[:, self.ELL:], axis=1)))
        _expect(error > 0.0 and abs(error - want) <= 1e-9 * want, f"error {error!r} != {want!r}")
        gens = np.asarray(model.generators)  # (ell, cell, offset)
        gram = np.einsum("iwt,jwt->wij", gens, gens.conj())
        _expect(float(np.max(np.abs(gram - np.eye(self.ELL)))) <= 1e-9,
                "generators are not orthonormal per cell")
        _expect(generator.values.shape == (self.grid.size,), "generator has the wrong size")
        f = self.families[i % self.FAMILIES][i % self.M]
        norm_in = ref.l2_norm(f, self.grid)
        norm_out = ref.l2_norm(np.asarray(projected.values), self.grid)
        _expect(norm_out <= norm_in * (1.0 + 1e-12), f"projection grew: {norm_out!r} > {norm_in!r}")

    def close(self) -> None:
        pass


def _write_csv(path: Path, grid: ref.RefGrid, values: np.ndarray) -> None:
    """The documented signal format: grid header, column header, rows."""
    rows = [f"# grid: {grid.n_dims},{grid.n},{grid.extent!r}", "index,re,im"]
    rows += [f"{i},{v.real!r},{v.imag!r}" for i, v in enumerate(values.tolist())]
    path.write_text("\n".join(rows) + "\n")


class CliIo:
    """In-process ``frftkit frft`` on CSV files, alternating the direction."""

    SIZES = {"full": 16384, "tiny": 256}
    EXTENT = 32.0
    POOL = 4  # input files per direction

    def __init__(self, seed: int, size: str = "full", work_root: Path | None = None) -> None:
        self.grid = ref.RefGrid(1, self.SIZES[size], self.EXTENT)
        self.seed = seed
        self.work_root = work_root
        self.workdir: Path | None = None

    def setup(self) -> None:
        self.close()
        rng = np.random.default_rng([self.seed, 3])
        if self.work_root is not None:
            self.work_root.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli_io-", dir=self.work_root))
        n = self.grid.size
        self.thetas = [float(t) for t in rng.uniform(0.2, math.pi - 0.2, self.POOL) * rng.choice([-1, 1], self.POOL)]
        self.cases = []  # (argv, input grid, input values, theta, inverse)
        blobs = []
        for k, theta in enumerate(self.thetas):
            for inverse in (False, True):
                grid = self.grid.output(theta) if inverse else self.grid
                values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                path = self.workdir / f"in-{k}-{int(inverse)}.csv"
                _write_csv(path, grid, values)
                blobs.append(path.read_bytes())
                argv = ["frft", "--in", str(path), "--out", str(self.workdir / f"out-{int(inverse)}.csv"),
                        "--theta", repr(theta)] + (["--inverse"] if inverse else [])
                self.cases.append((argv, grid, values, theta, inverse))
        self.inputs_digest = ref.digest(*blobs)

    def _case(self, i: int):
        # Even ops run forward transforms, odd ops inverse ones.
        return self.cases[2 * ((i // 2) % self.POOL) + i % 2]

    def op(self, i: int):
        return frftkit.cli.main(self._case(i)[0])

    def check(self, i: int, result) -> None:
        argv, grid, values, theta, inverse = self._case(i)
        _expect(result == 0, f"exit code {result}")
        out_path = Path(argv[4])
        header = out_path.read_text().split("\n", 1)[0]
        table = np.loadtxt(out_path, delimiter=",", skiprows=2)
        if inverse:
            want_grid = ref.input_grid_of(grid, theta)
            want = ref.inverse(values, grid, theta)
        else:
            want_grid = grid.output(theta)
            want = ref.forward(values, grid, theta)
        fields = header.removeprefix("# grid:").split(",")
        _expect(int(fields[0]) == 1 and int(fields[1]) == grid.n
                and abs(float(fields[2]) - want_grid.extent) <= 1e-12 * want_grid.extent,
                f"output grid header {header!r}")
        _expect(table.shape == (grid.n, 3) and np.array_equal(table[:, 0], np.arange(grid.n)),
                "output rows are not index,re,im for every sample")
        err = ref.rel_error(table[:, 1] + 1j * table[:, 2], want)
        _expect(err <= 1e-9, f"output differs from the reference by {err:.3e}")

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None
            if self.work_root is not None:
                try:
                    self.work_root.rmdir()  # only once it is empty
                except OSError:
                    pass


class AngleSweep:
    """``frft`` then ``inverse_frft`` of one large 1-D signal, fresh angle per op."""

    SIZES = {"full": 1 << 18, "tiny": 1 << 10}
    EXTENT = 64.0

    def __init__(self, seed: int, size: str = "full") -> None:
        self.grid = ref.RefGrid(1, self.SIZES[size], self.EXTENT)
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        n = self.grid.size
        self.values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # |theta| in [0.1, pi - 0.1] with either sign: both signs of sin,
        # never near an axis angle, and a new angle for each of 4096 ops.
        self.angles = rng.uniform(0.1, math.pi - 0.1, 4096) * rng.choice([-1.0, 1.0], 4096)
        self.inputs_digest = ref.digest(self.values, self.angles)
        self.norm_sq = ref.l2_norm(self.values, self.grid) ** 2
        self.signal = _signal(self.grid, self.values)

    def op(self, i: int):
        theta = fk.ThetaParam(float(self.angles[i % len(self.angles)]))
        spectrum = fk.frft(self.signal, theta)
        return spectrum, fk.inverse_frft(spectrum, theta)

    def check(self, i: int, result) -> None:
        spectrum, back = result
        theta = float(self.angles[i % len(self.angles)])
        out = self.grid.output(theta)
        _expect(abs(spectrum.grid.extent - out.extent) <= 1e-12 * out.extent, "wrong output grid")
        err = ref.rel_error(spectrum.values, ref.forward(self.values, self.grid, theta))
        _expect(err <= 1e-9, f"transform differs from the reference by {err:.3e}")
        err = ref.rel_error(back.values, self.values)
        _expect(err <= 1e-9, f"round trip error {err:.3e}")
        energy = ref.l2_norm(np.asarray(spectrum.values), out) ** 2
        _expect(abs(energy - self.norm_sq) <= 1e-9 * self.norm_sq, "Parseval fails")

    def close(self) -> None:
        pass


def make(name: str, seed: int, size: str = "full", work_root: Path | None = None):
    """Workload ``name`` for ``seed``; ``work_root`` holds cli_io's files."""
    if name == "cascade":
        return Cascade(seed, size)
    if name == "sis_fit":
        return SisFit(seed, size)
    if name == "cli_io":
        return CliIo(seed, size, work_root)
    if name == "angle_sweep":
        return AngleSweep(seed, size)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
