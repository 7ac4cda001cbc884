"""Measurement plumbing: spans around layer calls, GC pauses, /proc readings
and telemetry-snapshot deltas.

Spans are recorded from the benchmark's own files: :class:`SpanRecorder`
swaps class attributes of the program for timing wrappers while it is
active and restores them afterwards, so the program's code is never
edited.  Spans (name, start, end, parent) stay in memory; per-layer
totals and self times are computed from them when the run ends.
"""

from __future__ import annotations

import functools
import gc
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.histogram import LatencyHistogram

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class SpanRecorder:
    """Records a span around every call of the patched class attributes.

    ``targets`` are ``(owner_class, attribute, span_name)`` triples;
    ``on_result`` maps a span name to a callback that sees each call's
    return value (to count work done, e.g. tree sizes).  Usable as a
    context manager: entering patches, exiting restores.
    """

    def __init__(
        self,
        targets: Sequence[Tuple[type, str, str]],
        on_result: Optional[Dict[str, Callable[[object], None]]] = None,
    ) -> None:
        self.targets = list(targets)
        self.on_result = dict(on_result or {})
        self.spans: List[Span] = []
        self._stack = threading.local()
        self._saved: List[Tuple[type, str, object]] = []

    def _wrap(self, function: Callable, name: str) -> Callable:
        spans = self.spans
        local = self._stack
        callback = self.on_result.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else None))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index].start = start
                spans[index].end = end
            if callback is not None:
                callback(result)
            return result

        return traced

    def __enter__(self) -> "SpanRecorder":
        for owner, attribute, name in self.targets:
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name))
            else:
                patched = self._wrap(original, name)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, patched)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    # -- reductions ------------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.end - span.start for span in self.spans if span.name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + (
                    span.end - span.start
                )
        return sum(
            span.end - span.start - child_time.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span.name == name
        )


class GcPauses:
    """Counts and times generation-2 collections via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses = 0
        self.seconds = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pauses += 1
            self.seconds += time.perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


# -- /proc readings ---------------------------------------------------------------


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of one process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds(pids: Iterable[int]) -> float:
    """User plus system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as stat:
            # Fields after the parenthesised command name; utime and stime
            # are fields 14 and 15 of the full line.
            fields = stat.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / CLOCK_TICKS


# -- telemetry deltas ---------------------------------------------------------------


def _family_samples(snapshot, name: str, **labels: str):
    family = snapshot.family(name)
    if family is None:
        return []
    wanted = {(key, str(value)) for key, value in labels.items()}
    return [sample for sample in family.samples if wanted <= set(sample.labels)]


def counter_total(snapshot, name: str, **labels: str) -> float:
    """Sum of a counter family over every child matching ``labels``."""
    return sum(sample.value for sample in _family_samples(snapshot, name, **labels))


def histogram_total(snapshot, name: str, **labels: str) -> Tuple[np.ndarray, float]:
    """Bin counts and value sum of a histogram family, merged over children."""
    counts = None
    total = 0.0
    for sample in _family_samples(snapshot, name, **labels):
        state = sample.histogram
        counts = state.counts.copy() if counts is None else counts + state.counts
        total += state.sum
    if counts is None:
        return np.zeros(0, dtype=np.int64), 0.0
    return counts, total


@dataclass
class HistogramDelta:
    counts: np.ndarray
    sum: float

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    def quantile(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        return LatencyHistogram.from_state(self.counts, self.sum).quantile(q)


def histogram_delta(before, after, name: str, **labels: str) -> HistogramDelta:
    """What a histogram family observed between two snapshots; ``before``
    ``None`` means since the server started."""
    counts, total = histogram_total(after, name, **labels)
    if before is not None:
        counts_before, sum_before = histogram_total(before, name, **labels)
        if counts_before.size:
            counts = counts - counts_before
        total -= sum_before
    return HistogramDelta(counts, total)


def counter_delta(before, after, name: str, **labels: str) -> float:
    """What a counter family counted between two snapshots (``before``
    ``None``: since the server started)."""
    earlier = 0.0 if before is None else counter_total(before, name, **labels)
    return counter_total(after, name, **labels) - earlier
