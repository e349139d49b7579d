"""frftkit benchmark: one seeded workload, timed end to end or traced by layer.

Run from the repository root:

    python3 bench/run.py --workload cascade --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory; nothing is
installed.  Workloads are described in :mod:`workloads`.  Each run is a
closed loop (one caller, one process, no threads of its own): op ``i + 1``
starts after op ``i`` and its check have finished.  Between ops the
benchmark times a fixed calibration kernel that never touches ``frftkit``
(a NumPy FFT plus a pure-Python loop); ``op_p50_norm`` divides the op
median by the kernel median, which cancels most drift in host speed.

``--trace 0`` reports the end-to-end metrics:

* ``op_p90_ms``     90th-percentile op wall time
* ``op_p50_norm``   median op wall time over the calibration kernel's median
* ``setup_s``       imports plus the median of five full setups, each
                    generating inputs, building the program objects and
                    running one warm-up op
* ``peak_rss_mib``  peak resident memory of this process
* ``ok_rate``       ops that ran and passed their check, over ops attempted

and, in the info line only, ``ops_per_s`` (ops that passed their check per
second of op time), ``op_p50_ms`` (median op wall time) and ``error_rate``
(``1 - ok_rate``).  On a host whose speed drifts the raw median and the
throughput spread too widely between runs to serve as regression gates;
the normalized median and the 90th percentile stay steady.

``--trace 1`` times part of the run untraced and the rest with the tracer
of :mod:`tracer` installed, and reports per-op means of calls and self time
for every traced function, plus the ratios described in :func:`traced`.
The spans are written to ``.bench_out/trace-<workload>-<seed>.json``.

The last line of standard output is the result object; the line before it
is an ``info`` object with the run environment, sample counts, the error
rate and the line count of every ``src/frftkit`` module (informational,
not gated).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
#: Share of a traced run spent untraced, to measure the tracing overhead.
UNTRACED_SHARE = 0.4
CAL_LOOP = 20000
#: Units of the end-to-end metrics in the result line.
UNITS = {"op_p90_ms": "ms", "op_p50_norm": "ratio", "setup_s": "s", "peak_rss_mib": "MiB",
         "ok_rate": "ratio"}
#: End-to-end metrics printed in the info line only (see the module docstring).
UNGATED = {"ops_per_s": "1/s", "op_p50_ms": "ms"}


def _import_program() -> None:
    """Put ``src/`` first on the path and import the package from there."""
    if not (SRC / "frftkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no frftkit sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import frftkit

    if Path(frftkit.__file__).resolve().parent != (SRC / "frftkit").resolve():
        raise SystemExit(f"error: frftkit was imported from {frftkit.__file__}, not {SRC}")


class Calibration:
    """Fixed kernel timed between ops: a NumPy FFT plus a pure-Python loop."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.x = (np.arange(1 << 14) % 7 - 3.0) * (1.0 + 0.5j)

    def __call__(self) -> float:
        start = time.perf_counter()
        self.np.fft.fft(self.x)
        acc = 0
        for k in range(CAL_LOOP):
            acc += k * k % 7
        return time.perf_counter() - start


class Loop:
    """Closed-loop op runner; collects timings and check outcomes."""

    def __init__(self, workload, calibrate: Calibration) -> None:
        self.workload = workload
        self.calibrate = calibrate
        self.next_op = 0
        self.errors: list[str] = []

    def run(self, seconds: float, tracer=None) -> dict:
        """Run ops until ``seconds`` of wall time have passed (at least one)."""
        durations, calibration, ops, failed = [], [], [], 0
        deadline = time.perf_counter() + seconds
        while True:
            i = self.next_op
            self.next_op += 1
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                result = self.workload.op(i)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"op {i} raised {exc!r}"
            durations.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.op = -2  # checks are not part of any op
            if error is None:
                try:
                    self.workload.check(i, result)
                except Exception as exc:
                    error = f"op {i} failed its check: {exc}"
            if error is not None:
                failed += 1
                self.errors.append(error)
            ops.append(i)
            calibration.append(self.calibrate())
            if time.perf_counter() >= deadline:
                break
        return {"durations": durations, "calibration": calibration, "ops": ops, "failed": failed}


def _summary(batch: dict) -> dict[str, float]:
    d = sorted(batch["durations"])
    passed = len(d) - batch["failed"]
    p90 = statistics.quantiles(d, n=10, method="inclusive")[8] if len(d) > 1 else d[0]
    return {
        "ops_per_s": passed / sum(d),
        "op_p50_ms": 1e3 * statistics.median(d),
        "op_p90_ms": 1e3 * p90,
        "op_p50_norm": statistics.median(d) / statistics.median(batch["calibration"]),
    }


def setup(workload) -> float:
    """Set the workload up and run one warm-up op; seconds taken.

    The warm-up result is not checked: op 0 runs again, checked, in the loop.
    """
    start = time.perf_counter()
    workload.setup()
    workload.op(0)
    return time.perf_counter() - start


def timed(workload, seconds: float, import_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run."""
    loop = Loop(workload, Calibration())
    setups = [setup(workload) for _ in range(SETUP_REPS)]
    batch = loop.run(seconds)
    metrics = _summary(batch)
    metrics["setup_s"] = import_s + statistics.median(setups)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(batch["durations"])
    metrics["ok_rate"] = (n - batch["failed"]) / n
    info = {"ops": n, "beyond_p90": sum(d * 1e3 > metrics["op_p90_ms"] for d in batch["durations"]),
            "setup_runs_s": setups, "import_s": import_s, "errors": loop.errors[:5]}
    for key in UNGATED:
        info[key] = {"value": metrics.pop(key), "unit": UNGATED[key]}
    return {"batch": batch, "metrics": metrics}, info


def traced(workload, seconds: float, name: str, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics: an untraced stretch, then a traced setup and stretch.

    Besides per-op ``calls`` and ``self_ms`` of every traced function this
    reports ``cli.{read,write}_signal.us_per_sample``,
    ``transform.frft.fftn_ratio`` (median ``frft`` time over a bare
    ``np.fft.fftn`` of the same shape, timed here) and
    ``trace.overhead_ratio`` (traced over untraced op median).
    """
    import numpy as np

    from tracer import Tracer

    loop = Loop(workload, Calibration())
    setup(workload)
    plain = loop.run(seconds * UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = -1
        setup(workload)
        batch = loop.run(seconds * (1.0 - UNTRACED_SHARE), tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.per_op(batch["ops"])
    for io in ("cli.read_signal", "cli.write_signal"):
        metrics[f"{io}.us_per_sample"] = tracer.us_per_sample(io)
    metrics["transform.frft.fftn_ratio"] = 0.0
    if tracer.frft_calls:
        shape = Counter(s for s, _ in tracer.frft_calls).most_common(1)[0][0]
        frft_s = statistics.median(t for s, t in tracer.frft_calls if s == shape)
        x = np.random.default_rng(seed).standard_normal(shape) + 0j
        fftn_s = []
        for _ in range(21):
            start = time.perf_counter()
            np.fft.fftn(x)
            fftn_s.append(time.perf_counter() - start)
        metrics["transform.frft.fftn_ratio"] = frft_s / statistics.median(fftn_s)
    traced_p50 = statistics.median(batch["durations"])
    metrics["trace.overhead_ratio"] = traced_p50 / statistics.median(plain["durations"])

    # Share of the traced op time spent in each layer's own code.
    layer_ms = Counter()
    for key, value in metrics.items():
        if key.endswith(".self_ms") and not key.startswith("frames."):
            layer_ms[key.split(".")[0]] += value
    mean_ms = 1e3 * statistics.fmean(batch["durations"])
    info = {"ops": len(plain["ops"]) + len(batch["ops"]), "traced_ops": len(batch["ops"]),
            "layer_share_of_op": {k: v / mean_ms for k, v in sorted(layer_ms.items())},
            "errors": loop.errors[:5]}
    tracer.dump(OUT / f"trace-{name}-{seed}.json")
    failed = plain["failed"] + batch["failed"]
    return {"batch": {"durations": plain["durations"] + batch["durations"], "failed": failed},
            "metrics": metrics}, info


def environment() -> dict:
    """Informational run environment and source size."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older NumPy has no dict mode
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "frftkit").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    import_s = time.perf_counter() - T_START

    workload = workloads.make(args.workload, args.seed, work_root=OUT / "work")
    try:
        if args.trace:
            run, info = traced(workload, args.seconds, args.workload, args.seed)
        else:
            run, info = timed(workload, args.seconds, import_s)
    finally:
        workload.close()
    batch = run["batch"]
    attempted, failed = len(batch["durations"]), batch["failed"]
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                error_rate=failed / attempted, inputs_sha256=workload.inputs_digest,
                environment=environment())
    for error in info["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({"info": info}))
    metrics = {
        key: {"value": value, "unit": UNITS.get(key) or _layer_unit(key)}
        for key, value in run["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(key: str) -> str:
    for suffix, unit in ((".calls", "count"), (".self_ms", "ms"), (".us_per_sample", "us"),
                         (".constructed", "count"), ("_ratio", "ratio")):
        if key.endswith(suffix):
            return unit
    raise KeyError(key)


if __name__ == "__main__":
    sys.exit(main())
