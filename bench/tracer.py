"""Outside-in tracer: spans around calls into each ``frftkit`` module.

The tracer wraps the public functions named in :data:`TRACED` from the
outside.  Every module-level name bound to a traced function is rebound to
its wrapper -- in the defining module, in the package namespace, and in
every module that imported it (``frftkit.scatter.theta_convolve``,
``frftkit.cli.frft``, ...) -- so nested calls inside the package are
attributed to the layer that does the work.  ``SampledSignal`` is counted,
not timed: its validating copy is the unit the count measures.

Spans are ``(name, parent, op, start, end)`` rows kept in memory; ``op`` is
the index of the benchmark op that caused them (``-1`` during setup), which
makes it the identifier all spans of one op share.  A layer's self time is
its span duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Layer (module) -> traced public functions.  ``errors`` does no work.
TRACED = {
    "transform": ("frft", "inverse_frft", "chirp_modulate", "centered_dft", "centered_idft"),
    "theta_ops": ("theta_translate", "theta_convolve", "theta_dilate"),
    "frames": ("frame_bounds",),
    "scatter": ("extract_features", "u_layer", "energy_profile", "invariance_deviation"),
    "approx": ("fiber_map", "gramian_field", "fit_sis", "synthesize_generator"),
    "eig": ("hermitian_eig",),
    "multitile": ("optimal_multitile", "bandlimited_project"),
    "cli": ("main", "read_signal", "write_signal"),
}

#: Calls whose cost scales with a sample count: name -> count from (args, result).
SAMPLES = {
    "cli.read_signal": lambda args, result: result.grid.size,
    "cli.write_signal": lambda args, result: args[1].grid.size,
}

CONSTRUCTED = "grids.SampledSignal.constructed"


class Tracer:
    """Installs wrappers on ``frftkit`` and records spans while installed."""

    def __init__(self) -> None:
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.samples: dict[str, int] = defaultdict(int)
        self.constructed: dict[int, int] = defaultdict(int)
        self.frft_calls: list[tuple[tuple[int, ...], float]] = []  # (shape, seconds)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        name = self.names[index]
        count = SAMPLES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            row = len(spans)
            spans.append(None)  # reserve the slot so children see their parent
            parent = stack[-1] if stack else -1
            stack.append(row)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[row] = (index, parent, self.op, start, end)
            if count is not None:
                self.samples[name] += count(args, result)
            if name == "transform.frft":
                self.frft_calls.append((args[0].grid.shape, end - start))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced name in every loaded ``frftkit`` module."""
        import frftkit.grids

        modules = [m for key, m in sys.modules.items() if key == "frftkit" or key.startswith("frftkit.")]
        for index, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"frftkit.{layer}"], fn_name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

        cls = frftkit.grids.SampledSignal
        post_init = cls.__post_init__

        def counted(signal):
            self.constructed[self.op] += 1
            post_init(signal)

        self._restore.append((cls, "__post_init__", post_init))
        cls.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def per_op(self, ops: list[int]) -> dict[str, float]:
        """Per-op means of calls and self time over ``ops``; setup-phase
        means (op ``-1``) for ``frames.frame_bounds``."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        wanted = set(ops)
        for row, (index, _, op, start, end) in enumerate(self.spans):
            name = self.names[index]
            in_setup = name == "frames.frame_bounds"
            if (op == -1) if in_setup else (op in wanted):
                calls[name] += 1
                self_s[name] += end - start - child[row]
        n_ops = max(len(ops), 1)
        out = {}
        for name in self.names:
            per = 1 if name == "frames.frame_bounds" else n_ops
            out[f"{name}.calls"] = calls[name] / per
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / per
        out[CONSTRUCTED] = sum(self.constructed[op] for op in wanted) / n_ops
        return out

    def us_per_sample(self, name: str) -> float:
        """Inclusive microseconds per sample of a sample-counted call."""
        index = self.names.index(name)
        total = sum(end - start for i, _, _, start, end in self.spans if i == index)
        n = self.samples.get(name, 0)
        return 1e6 * total / n if n else 0.0

    def dump(self, path: Path) -> None:
        """Write every span, as recorded, to ``path`` (JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "columns": ["name", "parent", "op", "start_s", "end_s"],
                       "spans": self.spans, "constructed": dict(self.constructed)}, fh)
