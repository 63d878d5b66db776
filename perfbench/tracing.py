"""Span tracer that wraps public polymer_lab functions from outside the package.

A span is (id, parent id, name, start, end, count).  Spans are kept in memory
and handed over when the invocation ends.  Pool workers are forked from the
traced process, so they inherit the wrappers and the stack of open spans; a
worker's first traced call starts a fresh span list whose top-level spans hang
under the span that was open at fork time (harness.run_replicas), and each
finished top-level span is appended to a per-worker file, because a worker's
memory is lost when the pool shuts down.  With a start method other than fork
the workers are not traced and no worker file appears.

perf_counter is CLOCK_MONOTONIC on Linux, so span times from the workers and
the traced process share one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.main_pid = self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.base_depth = 0
        self.next_id = 0

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a traced wrapper; count(result) gives an
        optional per-call work count stored with the span."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter_process()
            sid = f"{tracer.pid}.{tracer.next_id}"
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                n = count(result) if count is not None and result is not None else None
                tracer.spans.append((sid, parent, name, start, end, n))
                if tracer.pid != tracer.main_pid and len(tracer.stack) == tracer.base_depth:
                    tracer._spill()

        setattr(owner, attr, traced)

    def _enter_process(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.base_depth = len(self.stack)

    def _spill(self) -> None:
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> tuple[list[tuple], int]:
        """All spans of this process and of its pool workers, and the number
        of workers that left spans."""
        spans = list(self.spans)
        files = sorted(self.spill_dir.glob("spans-*.jsonl"))
        for path in files:
            spans.extend(tuple(json.loads(line)) for line in path.read_text().splitlines())
        return spans, len(files)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds, self seconds (span
    time minus the part its child spans cover), summed work count, and the
    individual durations."""
    children: dict[str, list[tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, _, name, start, end, n in spans:
        agg = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "durations_s": []}
        )
        dur = end - start
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - _covered(children.get(sid, []), start, end)
        agg["count"] += n or 0
        agg["durations_s"].append(dur)
    return out
