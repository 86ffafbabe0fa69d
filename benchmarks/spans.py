"""In-memory spans around the benchmark's calls into the package.

A span is (id, parent, op, name, start, end, failed).  Spans are recorded
only while the tracer is enabled, kept in memory and written out once at
the end of a run.  The package itself is not instrumented: every span sits
in the benchmark's own code, around one call into a public function.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span called name when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, op=None):
        if not self.enabled:
            yield
            return
        if op is not None:
            self._op = op
        span = [len(self.spans), self._stack[-1] if self._stack else None, self._op, name,
                perf_counter(), None, False]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            yield
        except BaseException:
            span[6] = True
            raise
        finally:
            span[5] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value=1):
        if self.enabled:
            self.counters[name] += value

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its child spans cover."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, _, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out[sid] = end - start - covered
        return out

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, failed, busy_s (self time), durations."""
        own = self.self_times()
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "failed": 0, "busy_s": 0.0, "durations": []})
        for sid, _, _, name, start, end, failed in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["failed"] += failed
            st["busy_s"] += own[sid]
            st["durations"].append(end - start)
        return stats

    def metric(self, name: str, passes: int, stats: dict) -> float:
        """Value of a per-layer metric <span>.<stat>, per traced pass.

        calls, failed, busy_s and counters are totals divided by passes; a
        <counter>_share stat is the counter over the span's calls; p50_ms is
        the median span duration.
        """
        span, _, stat = name.rpartition(".")
        st = stats.get(span)
        if stat == "p50_ms":
            return statistics.median(st["durations"]) * 1e3 if st else 0.0
        if stat.endswith("_share"):
            calls = st["calls"] if st else 0
            return self.counters[f"{span}.{stat[:-6]}"] / calls if calls else 0.0
        if stat in ("calls", "failed", "busy_s"):
            return st[stat] / passes if st else 0.0
        return self.counters[name] / passes

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, op, name, start, end, failed in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                    "start": start, "end": end, "failed": failed}) + "\n")
