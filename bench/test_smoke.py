"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
It is kept out of the package's ``tests/`` run.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def _corrupt(name: str, workload, i: int, result):
    """A wrong answer of the shape ``op`` returns."""
    if name == "cascade":
        profile, deviation = result
        return list(reversed(profile)), deviation  # energy now increases
    if name == "sis_fit":
        model, *rest = result
        return (dataclasses.replace(model, eigenvalues=model.eigenvalues * 1.001), *rest)
    if name == "cli_io":
        out = Path(workload._case(i)[0][4])
        lines = out.read_text().split("\n")
        index, re, im = lines[2].split(",")
        lines[2] = f"{index},{float(re) + 1.0!r},{im}"
        out.write_text("\n".join(lines))
        return result
    spectrum, back = result
    return spectrum.with_values(spectrum.values * (1.0 + 1e-6)), back


@pytest.fixture(params=workloads.NAMES)
def tiny(request, tmp_path):
    workload = workloads.make(request.param, seed=5, size="tiny", work_root=tmp_path / "work")
    yield request.param, workload
    workload.close()


def test_timed_run_is_correct(tiny):
    name, workload = tiny
    result, info = run.timed(workload, 0.2, import_s=0.0)
    assert result["batch"]["failed"] == 0, info["errors"]
    assert info["ops"] >= 1
    metrics = result["metrics"]
    assert metrics["ok_rate"] == 1.0
    assert set(metrics) == set(run.UNITS)
    assert all(metrics[k] > 0 for k in ("op_p90_ms", "op_p50_norm", "setup_s", "peak_rss_mib"))
    assert all(info[k]["value"] > 0 for k in run.UNGATED)


def test_traced_run_reports_layers(tiny, tmp_path, monkeypatch):
    name, workload = tiny
    monkeypatch.setattr(run, "OUT", tmp_path)
    result, info = run.traced(workload, 0.3, name, seed=5)
    assert result["batch"]["failed"] == 0, info["errors"]
    metrics = result["metrics"]
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["grids.SampledSignal.constructed"] > 0
    busiest = {"cascade": "theta_ops.theta_convolve", "sis_fit": "eig.hermitian_eig",
               "cli_io": "cli.read_signal", "angle_sweep": "transform.frft"}[name]
    assert metrics[f"{busiest}.calls"] > 0
    spans = json.loads((tmp_path / f"trace-{name}-5.json").read_text())["spans"]
    assert spans and all(len(row) == 5 for row in spans)
    # The tracer restored every name it rebound.
    import frftkit.scatter

    assert not hasattr(frftkit.scatter.theta_convolve, "__wrapped__")


def test_corrupted_result_counts_as_error(tiny):
    name, workload = tiny
    workload.setup()
    op = workload.op
    workload.op = lambda i: _corrupt(name, workload, i, op(i))
    batch = run.Loop(workload, run.Calibration()).run(0.1)
    assert batch["failed"] == len(batch["durations"]) >= 1


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_inputs(name, tmp_path):
    digests = []
    for seed in (11, 11, 12):
        workload = workloads.make(name, seed, size="tiny", work_root=tmp_path / "work")
        workload.setup()
        digests.append(workload.inputs_digest)
        workload.close()
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cascade", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_matches_oracle():
    import frftkit as fk
    import reference as ref

    grid = ref.RefGrid(1, 64, 4.0)
    values = np.random.default_rng(3).standard_normal(64) + 0j
    for theta in (1.0, -2.0):
        want = fk.frft_direct_oracle(fk.SampledSignal(fk.Grid(1, 64, 4.0), values), fk.ThetaParam(theta))
        assert ref.rel_error(ref.forward(values, grid, theta), want.values) < 1e-9
