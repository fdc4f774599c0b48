"""In-memory span recorder that wraps vqmc's public functions from outside.

``Tracer.install`` replaces each target function by a timing wrapper in
every loaded ``vqmc`` module that holds a reference to it (``conic`` imports
``partial_trace`` by name, for instance), and ``uninstall`` puts the
originals back. A span is ``[name, start_ns, end_ns, parent, tag]``:
``parent`` indexes the enclosing span (-1 for a root) and ``tag`` holds
what a tagger extracted from the call, such as a solve's iteration count.
Spans of one state share the root span the benchmark opens around it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _solve_tag(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {
        "kind": "hptp" if problem.free_scalars else "cptp",
        "iterations": result.iterations,
        "status": result.status,
    }


TARGETS = (
    ("vqmc.registers", "partial_trace", None),
    ("vqmc.linops", "kernel_basis", None),
    ("vqmc.linops", "subspace_contained", None),
    ("vqmc.markov", "kernel_inclusion_check", None),
    ("vqmc.markov", "verify_recovery", None),
    ("vqmc.markov", "apply_choi", None),
    ("vqmc.conic", "build_cptp_feasibility", None),
    ("vqmc.conic", "build_overhead_problem", None),
    ("vqmc.conic", "solve", _solve_tag),
    ("vqmc.conic", "cptp_certify", None),
    ("vqmc.conic", "sampling_overhead", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        """Record a span around a block, such as one state's answer."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)
            record[4] = tag

    def wrap(self, name: str, fn, tagger=None):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if tagger is not None:
                record[4] = tagger(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each loaded vqmc module that refers to it.

        Targets whose module is not loaded (as in the cli workload's parent
        process) are left alone.
        """
        modules = [m for key, m in sys.modules.items() if key == "vqmc" or key.startswith("vqmc.")]
        for module_name, attr, tagger in TARGETS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(module_name.split(".")[-1] + "." + attr, original, tagger)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another process under the currently open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, par, tag in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, tag])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "tag"],
                       "spans": self.spans}, fh)


def summarize(spans: list[list]) -> dict:
    """Calls, total ms and self ms per span name.

    Self time is a span's duration minus its direct children's durations;
    spans never overlap their siblings, since the benchmark is
    single-threaded.
    """
    child_ns = defaultdict(int)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["ms"] += (end - start) / 1e6
        entry["self_ms"] += (end - start - child_ns[index]) / 1e6
    return dict(out)
