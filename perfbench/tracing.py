"""Spans around the calls into each layer, recorded from outside the program.

A :class:`Tracer` replaces public functions and methods of ``tubestream`` at
the names the stage drivers look them up by, times every call (and every
``next()`` of the generators they return), and puts the originals back when
it is closed.  Each span has a name, a start, an end and a parent; spans of
one run share the tracer's ``run_id``.  Self time is a span's duration minus
the durations of its direct children.  Every call is aggregated by name into
count, total and self time; the first ``KEEP_SPANS`` spans are also kept
whole and written out by :meth:`Tracer.write`.

A name that no longer exists is listed in ``absent`` instead of failing, so
a change that folds or renames a function leaves the benchmark running.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter_ns

KEEP_SPANS = 20_000


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, total ns, self ns
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start ns, end ns, parent id
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, name, start ns, ns covered by children]
        self._next_id = 1
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter_ns(), 0])
        self._next_id += 1

    def _exit(self) -> None:
        end = perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        agg = self.totals[name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end, parent))

    def call(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` counts outside the span."""

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, result)
            return result

        return traced

    def iterate(self, name: str, items):
        """Iterate ``items`` with every ``next()`` timed as span ``name``;
        ``counts[name]`` is the number of items yielded."""
        it = iter(items)
        while True:
            self._enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit()
            self.counts[name] += 1
            yield item

    def generator(self, name: str, fn):
        """A generator function ``fn`` whose iteration is traced as ``name``."""

        def traced(*args, **kwargs):
            return self.iterate(name, fn(*args, **kwargs))

        return traced

    # -- installing ----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> bool:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        own = attr in vars(owner)
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, own))
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] / 1e9 if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] / 1e9 if name in self.totals else 0.0

    def write(self, path: str) -> None:
        """Write the kept spans and the per-name aggregates as JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "absent": self.absent,
                    "aggregates": {
                        n: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                        for n, (c, t, s) in sorted(self.totals.items())
                    },
                    "counts": dict(sorted(self.counts.items())),
                    "spans_kept": len(self.spans),
                    "spans": [
                        {"id": i, "name": n, "start_ns": a, "end_ns": b, "parent": p}
                        for i, n, a, b, p in self.spans
                    ],
                },
                fh,
            )
