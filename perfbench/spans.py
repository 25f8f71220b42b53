"""In-memory span recording for the benchmark's traced run, and its statistics.

A :class:`Tracer` wraps callables with ``time.perf_counter_ns`` spans.  Each
span records its name, start, end, the index of the span open when it began
(its parent) and the id of the benchmark operation it belongs to.  Spans stay
in memory until :meth:`Tracer.write` dumps them at the end of a run.

The tracer patches attributes in place (class methods, or a name bound in the
module that calls it) and restores every original on exit, so a process can
alternate untraced and traced passes.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Span record layout: [name, start_ns, end_ns, parent_index, op_id].
NAME, START, END, PARENT, OP = range(5)

#: Samples a tail percentile must have beyond it.
BEYOND = 10


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_id: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``after(args, result)`` runs inside it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def patch(self, owner: object, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` is a class (the attribute is looked up at call time) or the
        module whose code calls a name it imported.  Only attributes defined
        on ``owner`` itself are patched, so an inherited method is traced once.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output --------------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


# -- span arithmetic -------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[int]:
    """Each span's duration minus the part of it its direct children cover.

    Children are merged as intervals first, so overlapping children (which a
    single-threaded call stack never produces, but a span file might) are not
    subtracted twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span[END] - span[START] - covered)
    return out


def has_ancestor(spans: Sequence[list], index: int, name: str) -> bool:
    """True when a strict ancestor of span ``index`` is named ``name``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


# -- sample statistics ------------------------------------------------------------------


def tail(samples: Sequence[float], beyond: int = BEYOND) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: the sample with exactly ``beyond``
    samples sorted after it, and its rank as a percentage of the count.
    """
    if len(samples) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(samples)}")
    ordered = sorted(samples)
    rank = len(ordered) - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))
