"""Span recording for the benchmark's traced runs.

A span is one call into a traced layer: its name, start and end (from
`time.perf_counter`), the span that was open when it started (its parent)
and the workload run it belongs to. Spans are kept in memory in parallel
lists and written out once the run ends.

A layer's self time is its span's duration minus the part of that interval
that its child spans cover. Work counts (rows read, GFLOP, support vectors)
are recorded at the same boundary as the span; the time spent computing
them is itself recorded as a child span named `COUNT_SPAN`, so it is
charged neither to the layer nor to its caller.

`patch_targets` wraps each target function wherever a traced module has
bound it (a module that did `from .nn import softmax` holds its own
reference), and always restores every original. A target that no longer
exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

COUNT_SPAN = "bench.count"


class Tracer:
    """In-memory span store for one process; spans never overlap across
    threads because the benchmark runs its load in one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.run_ids: list[str] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.active = False
        self._stack: list[int] = []
        self._run = -1

    def begin_run(self, run_id: str) -> None:
        self.run_ids.append(run_id)
        self._run = len(self.run_ids) - 1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self._run)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def add_counts(self, name: str, counts: dict[str, float],
                   maxed: tuple[str, ...] = ()) -> None:
        slot = self.counts.setdefault(name, {})
        for key, value in counts.items():
            if key in maxed:
                slot[key] = max(slot.get(key, -math.inf), float(value))
            else:
                slot[key] = slot.get(key, 0.0) + float(value)

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and summed self time in seconds."""
        own = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict[str, float]] = {}
        for name, s in zip(self.names, own):
            slot = out.setdefault(name, {"calls": 0.0, "self_s": 0.0})
            slot["calls"] += 1
            slot["self_s"] += s
        return out

    def write(self, path: Path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "format": "canids-bench-spans-v1",
            "clock": "time.perf_counter, seconds",
            "names": table,
            "run_ids": self.run_ids,
            "columns": ["name", "start", "end", "parent", "run"],
            "spans": [[index[n], s, e, p, r] for n, s, e, p, r in zip(
                self.names, self.starts, self.ends, self.parents, self.runs)],
            "counts": self.counts,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[idx], ends[idx]))
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# --------------------------------------------------------------------------
# percentiles

PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.99)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def samples_beyond(n: int, p: float) -> int:
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it,
    or None when even the median has fewer than ten beyond it."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= 10:
            best = p
    return best


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


# --------------------------------------------------------------------------
# patching


@dataclass(frozen=True)
class Target:
    """One traced callable: `attr` is a function name in `module`, or
    `Class.method`. `span` names the span (default `<layer>.<attr>`);
    `span_of(args, kwargs)` may refine it per call. `counts(args, kwargs,
    result)` returns work counts; stats in `maxed` keep their maximum
    instead of a sum."""

    module: str
    attr: str
    counts: Callable | None = None
    span_of: Callable | None = None
    maxed: tuple[str, ...] = ()

    @property
    def layer(self) -> str:
        return self.module.rsplit(".", 1)[-1]

    @property
    def span(self) -> str:
        return f"{self.layer}.{self.attr}"


@dataclass
class Patches:
    restore: list[tuple[object, str, object]] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)

    def undo(self) -> None:
        while self.restore:
            owner, name, original = self.restore.pop()
            setattr(owner, name, original)


def _wrap(fn, target: Target, tracer: Tracer):
    name = target.span
    span_of, counts, maxed = target.span_of, target.counts, target.maxed

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = span_of(args, kwargs) if span_of is not None else name
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counts is not None:
            cidx = tracer.open(COUNT_SPAN)
            try:
                tracer.add_counts(span, counts(args, kwargs, result), maxed)
            finally:
                tracer.close(cidx)
        return result

    return functools.update_wrapper(traced, fn)


def _resolve(target: Target):
    """(owner, attribute name, original) or None when absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(leaf)
    else:
        original = getattr(owner, leaf, None)
    if original is None or not callable(original):
        return None
    return owner, leaf, original


def patch_targets(targets, tracer: Tracer, package: str) -> Patches:
    """Wrap every target where the modules of `package` look it up.

    A function is rebound in every loaded `package` module whose namespace
    holds the original object, under whatever name it holds it; a method
    is rebound on its class. Call `Patches.undo` (or use `patched`) to
    restore the originals.
    """
    patches = Patches()
    try:
        for target in targets:
            found = _resolve(target)
            if found is None:
                patches.absent.append(target.span)
                continue
            owner, leaf, original = found
            wrapper = _wrap(original, target, tracer)
            if isinstance(owner, type):
                patches.restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            modules = [m for name, m in list(sys.modules.items())
                       if m is not None
                       and (name == package or name.startswith(package + "."))]
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
    except BaseException:
        patches.undo()
        raise
    return patches


@contextlib.contextmanager
def patched(targets, tracer: Tracer, package: str):
    patches = patch_targets(targets, tracer, package)
    try:
        yield patches
    finally:
        patches.undo()
