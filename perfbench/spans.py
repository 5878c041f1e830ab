"""In-memory spans recorded from outside the package.

A span is (name, parent, start, end) in `perf_counter_ns` units. Spans come
from two places: `Tracer.span` around calls the benchmark makes itself, and
`Tracer.wrap`, which swaps a module attribute for a recording wrapper so
that calls made inside the unmodified package (for example from
`model.train`) are recorded too. Nothing is written until `dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager


@contextmanager
def patched(module, attr: str, make):
    """Replace `module.attr` with `make(original)` for the duration."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield original
    finally:
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start_ns, end_ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._patches = ExitStack()

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self._open.append(sid)
        return sid

    def _end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Record every call of `module.attr` as a span named `name` until
        `unwrap_all`. `count`, if given, maps the call's positional
        arguments to a (key, amount) pair that is added to `counts`."""

        def make(original):
            def traced(*args, **kwargs):
                if count is not None:
                    key, amount = count(*args)
                    self.counts[key] += amount
                sid = self._begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._end(sid)

            return traced

        self._patches.enter_context(patched(module, attr, make))

    def unwrap_all(self) -> None:
        self._patches.close()

    # -- aggregation ----------------------------------------------------------

    def total_ms(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name) / 1e6

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_ms(self, name: str) -> float:
        """Duration of the named spans minus the time their direct children
        cover."""
        total = 0
        own = set()
        for i, (n, _, start, end) in enumerate(self.spans):
            if n == name:
                own.add(i)
                total += end - start
        for n, parent, start, end in self.spans:
            if parent in own:
                total -= end - start
        return total / 1e6

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": i, "parent": parent, "name": name, "start_ns": start, "end_ns": end})
                    + "\n"
                )
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
