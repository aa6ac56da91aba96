"""In-memory spans recorded by rebinding bitorus module attributes.

A span is (name, start_ns, end_ns, parent index).  Wrappers are installed
only in the benchmark process, by replacing every module attribute that
is bound to a traced function, so callers inside the library that look
the name up at call time (``decompose`` in ``hamiltonicity``,
``loop_count`` in ``links``, ``diag_count_tree`` in ``census``) go
through the wrapper.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from typing import Callable

# (span name, defining module, attribute, work counter or None).  A work
# counter maps the call's arguments to (counter suffix, amount).
TRACED = (
    ("census.diag_distribution", "census", "diag_distribution", None),
    ("census.exceptional_pairs", "census", "exceptional_pairs", None),
    ("counting.diag_count_tree", "counting", "diag_count_tree", None),
    ("counting.diag_count_reduction", "counting", "diag_count_reduction", None),
    ("diagonals.decompose", "diagonals", "decompose", lambda grid: ("cells", grid.size)),
    ("diagonals.diag_count_naive", "diagonals", "diag_count_naive", None),
    ("surface.index_tables", "surface", "diag_successor_indices", None),
    ("surface.index_tables", "surface", "up_indices", None),
    ("surface.index_tables", "surface", "right_indices", None),
    ("links.loop_count", "links", "loop_count", lambda link: ("strands", link.total)),
    ("hamiltonicity.is_hamiltonian_fast", "hamiltonicity", "is_hamiltonian_fast", None),
    ("hamiltonicity.is_hamiltonian_brute", "hamiltonicity", "is_hamiltonian_brute", None),
    ("hamiltonicity.hamiltonian_witness", "hamiltonicity", "hamiltonian_witness", None),
)


class Tracer:
    """Span store plus the attribute rebinding that feeds it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.failed: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            if work is not None:
                key, amount = work(*args, **kwargs)
                self.work[f"{name}.{key}"] += amount
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Rebind every attribute of every loaded bitorus module bound to a traced function."""
        modules = [m for key, m in sys.modules.items() if key == package.__name__
                   or key.startswith(package.__name__ + ".")]
        for name, module_name, attr, work in TRACED:
            original = getattr(getattr(package, module_name), attr)
            wrapper = self.wrap(name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._undo):
            setattr(module, key, value)
        self._undo.clear()

    def self_ns(self) -> list[int]:
        return self_times(self.starts, self.ends, self.parents)

    def write(self, path: str) -> None:
        """Spans as gzipped CSV rows: index, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for idx, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                out.write(f"{idx},{parent},{name},{start},{end}\n")


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it its direct children cover.

    Spans are stored in start order, so a parent's children arrive in
    start order too and one sweep per parent measures their union.
    """
    count = len(starts)
    covered = [0] * count
    reach = list(starts)
    for idx in range(count):
        parent = parents[idx]
        if parent < 0:
            continue
        lo = max(starts[idx], reach[parent])
        hi = min(ends[idx], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls and self_s, plus failed calls and work counters."""
    own = tracer.self_ns()
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for idx, name in enumerate(tracer.names):
        out[name]["calls"] += 1
        out[name]["self_s"] += own[idx] / 1e9
    for name, failed in tracer.failed.items():
        out[name]["failed"] = failed
    for key, amount in tracer.work.items():
        name, _, counter = key.rpartition(".")
        out[name][counter] = amount
    return dict(out)


def child_count(tracer: Tracer, child: str, parent: str) -> int:
    """Spans named `child` whose direct parent is named `parent`."""
    names, parents = tracer.names, tracer.parents
    return sum(
        1 for idx, name in enumerate(names)
        if name == child and parents[idx] >= 0 and names[parents[idx]] == parent
    )
