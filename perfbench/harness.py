"""Shared pieces of the benchmark: paths, spans, percentiles, machine facts.

Nothing here imports :mod:`repro`; ``run.py`` puts the checkout's ``src``
on ``sys.path`` first, so the workloads always measure the program in the
checkout they were started from.
"""

from __future__ import annotations

import contextlib
import importlib.util
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run records, span dumps and scratch artifact directories (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def scrub_repro_env(env=None) -> dict:
    """Drop every ``REPRO_*`` knob so runs ignore the caller's shell."""
    env = os.environ if env is None else env
    for name in [n for n in env if n.startswith("REPRO_")]:
        del env[name]
    return env


def min_samples_for(q: float) -> int:
    """Fewest samples that leave ``TAIL_BEYOND`` beyond percentile ``q``."""
    return math.ceil(TAIL_BEYOND / (1.0 - q / 100.0) - 1e-9)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            with contextlib.suppress(OSError):
                total += os.lstat(os.path.join(dirpath, name)).st_size
    return total


def machine_fingerprint(backend: str) -> dict:
    """What the numbers were measured on, plus the variants not measured."""
    import numpy

    nproc = len(os.sched_getaffinity(0))
    has_numba = importlib.util.find_spec("numba") is not None
    skipped = {
        "executor=spawned": (
            f"needs >= 4 cores, nproc={nproc}"
            if nproc < 4
            else "not exercised by these workloads"
        ),
        "backend=native": (
            "numba is not installed"
            if not has_numba
            else "not exercised by these workloads"
        ),
    }
    return {
        "nproc": nproc,
        "numba": has_numba,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": sys.platform,
        "backend": backend,
        "skipped": skipped,
    }


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    A span records its name, start, end and the span that caused it;
    spans of one operation share an ``op`` id.  Nothing is written until
    :meth:`dump`, so recording costs two clock reads and an append.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def new_op(self) -> int:
        self._op += 1
        return self._op

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, list[float]] = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s.name, []).append(s.end - s.start - child[i])
        return out

    def by_op(self, name: str) -> dict[int, float]:
        """Per operation, the summed duration of the spans called ``name``."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.op] = out.get(s.op, 0.0) + (s.end - s.start)
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
            }
            for s in self.spans
        ]


@dataclass
class Measured:
    """What one workload run measured, before it becomes metrics."""

    #: Wall seconds of every completed untraced operation.
    latencies: list = field(default_factory=list)
    #: Wall seconds of every completed traced operation (trace runs).
    traced_latencies: list = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Adoption utility of each returned plan on an evaluation collection.
    au_values: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Seconds of each repeated set-up.
    setup_runs: list = field(default_factory=list)
    #: The workload's fixed tail percentile.
    tail_q: float = 90.0
    #: Per-layer values of a trace run (name -> number).
    layers: dict = field(default_factory=dict)
    #: Workload facts for the run record (shares, counts, failures).
    notes: dict = field(default_factory=dict)
    backend: str = "batch"

    def fail(self, message: str) -> None:
        """Count one failed operation and keep the first few reasons."""
        self.failed += 1
        reasons = self.notes.setdefault("failures", [])
        if len(reasons) < 10:
            reasons.append(message)
