"""Run one ensimp CLI command in process, with spans at the layer boundaries.

Usage: python3 perfbench/tracer.py SPANS_JSON COMMAND_ID -- <ensimp argv>

It imports ``ensimp.cli``, wraps the public functions of each layer at every
module attribute the program looks them up through, runs
``ensimp.cli.main(argv)`` inside a root span named ``cli.<command>``, and
writes the spans, kept in memory until then, as JSON. Spans only wrap calls
into the layers from outside; nothing inside the program is changed.

A span records its name, the module it was looked up through (its site),
start, end, parent, thread and command id, plus counts read from the call's
arguments or result. A span opened in a worker thread with no open span of
its own takes the innermost open span of the main thread, the one that
started the pool, as its parent.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import sys
import threading
import time
from pathlib import Path

import numpy as np

# (defining module, function) for every layer boundary that is traced.
TARGETS = (
    ("dataio", "read_forecasts"),
    ("dataio", "read_truth"),
    ("dataio", "build_task_pools"),
    ("dataio", "apply_na_policy"),
    ("dataio", "model_mean_scores"),
    ("dataio", "write_results"),
    ("scoring", "wis_batch"),
    ("scoring", "positive_score"),
    ("ensembling", "mean_quantile_ensemble"),
    ("importance", "compute_importance"),
    ("importance", "importance_by_subset_size"),
    ("simulation", "run_sweep"),
    ("simulation", "truth_draws"),
    ("simulation", "normal_quantile_forecast"),
    ("simulation", "write_sweep_csv"),
    ("decomposition", "phi_direct"),
    ("decomposition", "phi_decomposed"),
    ("decomposition", "ambiguity_check"),
)

# Span fields, in the order each span is stored and written.
FIELDS = ("id", "name", "site", "start", "end", "parent", "thread", "command", "counts")


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments or result."""
    if name == "scoring.wis_batch":
        # rows scored: the quantile rows broadcast against the observations
        y = args[2] if len(args) > 2 else kwargs["y"]
        shape = np.broadcast_shapes(np.shape(args[0])[:-1], np.shape(y))
        return {"rows": math.prod(shape)}
    if name == "dataio.read_forecasts":
        records, report = result
        rows = Path(args[0]).read_bytes().count(b"\n") - 1
        return {"rows": rows, "records": len(records), "invalid": len(report.invalid)}
    if name == "dataio.build_task_pools":
        pools, report = result
        return {"tasks": len(pools), "excluded": len(report.excluded_tasks)}
    if name == "dataio.write_results":
        output = args[1] if len(args) > 1 else kwargs.get("output")
        return {"bytes": os.path.getsize(output) if output and output != "-" else 0}
    if name == "simulation.truth_draws":
        replicates = args[2] if len(args) > 2 else kwargs["replicates"]
        return {"draws": int(replicates)}
    if name == "importance.compute_importance":
        return {"maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {}


class Tracer:
    """Collects spans for one command; safe to use from worker threads."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, site: str) -> tuple[list, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = [span_id, name, site, 0.0, 0.0, parent, threading.get_ident(),
                self.command_id, {}]
        stack.append(span_id)
        span[3] = time.perf_counter()
        return span, stack

    def close(self, span: list, stack: list[int]) -> None:
        span[4] = time.perf_counter()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, fn, name: str, site: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self.open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span, stack)
            span[8] = _counts(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each target in the loaded ensimp modules."""
        import ensimp.cli  # noqa: F401  (loads every layer module)

        modules = {key: mod for key, mod in sys.modules.items()
                   if key == "ensimp" or key.startswith("ensimp.")}
        for module_name, fn_name in TARGETS:
            original = getattr(modules[f"ensimp.{module_name}"], fn_name)
            name = f"{module_name}.{fn_name}"
            for key, mod in modules.items():
                site = key.rpartition(".")[2]
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, self.wrap(original, name, site))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, command_id, cli_argv = Path(argv[0]), argv[1], argv[3:]
    tracer = Tracer(command_id)
    tracer.install()
    import ensimp.cli

    span, stack = tracer.open(f"cli.{cli_argv[0]}", "cli")
    try:
        code = ensimp.cli.main(cli_argv)
    finally:
        tracer.close(span, stack)
    spans_path.write_text(json.dumps({"fields": FIELDS, "spans": tracer.spans}), encoding="utf-8")
    return code



def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one command's spans.

    ``<name>.s`` sums span durations, ``<name>.self_s`` subtracts the time
    covered by child spans on the same thread, and counts are summed, except
    ``maxrss_mb``, which keeps the largest reading.
    """
    by_id = {span[0]: span for span in spans}
    child_s: dict[int, float] = {}
    for span in spans:
        parent = by_id.get(span[5])
        if parent is not None and parent[6] == span[6]:
            child_s[parent[0]] = child_s.get(parent[0], 0.0) + span[4] - span[3]
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for span_id, name, site, start, end, _, _, _, counts in spans:
        self_s = end - start - child_s.get(span_id, 0.0)
        if name.startswith("cli."):
            add("cli.self_s", self_s)
            continue
        add(f"{name}.s", end - start)
        add(f"{name}.self_s", self_s)
        add(f"{name}.calls", 1)
        for key, value in counts.items():
            if key == "maxrss_mb":
                out[f"{name}.maxrss_mb"] = max(out.get(f"{name}.maxrss_mb", 0.0), value)
            else:
                add(f"{name}.{key}", value)
        if name == "scoring.wis_batch" and site == "importance":
            add("importance.subsets_scored", counts["rows"])
        if name.startswith("decomposition."):
            add("decomposition.calls", 1)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
