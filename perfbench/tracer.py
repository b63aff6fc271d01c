"""In-memory spans around calls into levelforge, recorded from outside.

A traced call is a module attribute replaced by a wrapper that forwards the
call unchanged and records one span: name, start, end, parent span and the
level id the caller set. Spans stay in memory and are written out once, when
the run ends. Self times are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, level id]
        self.anneals: list[tuple[int, int, int]] = []  # (iterations, accepted, last improvement)
        self.level: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, anneal: bool = False) -> None:
        """Replace `module.attr` by a recording wrapper.

        With `anneal`, the wrapper passes a `trace=` list to the layout
        annealer (its public hook) and keeps the convergence summary.
        """
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = None
            if anneal and kwargs.get("trace") is None:
                steps = kwargs["trace"] = []
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.level])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
                if steps:
                    self.anneals.append(_anneal_summary(steps))

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, level in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "level": level}
                    )
                    + "\n"
                )


def _anneal_summary(steps: list[tuple]) -> tuple[int, int, int]:
    """Accepted moves and the iteration of the last best-so-far improvement
    from the annealer's (iteration, temperature, current, best) rows."""
    accepted = 0
    last_improve = 0
    for prev, row in zip(steps, steps[1:]):
        if row[2] != prev[2]:
            accepted += 1
        if row[3] < prev[3]:
            last_improve = row[0]
    return len(steps) - 1, accepted, last_improve
