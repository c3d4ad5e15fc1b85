"""Outside-in span tracing for the benchmark's traced run.

The tracer never edits the program: it replaces the class or module
attributes that callers look up at call time with thin wrappers, and puts
the originals back afterwards. Each wrapped call records one span --
name, start, end, parent span and operation id -- into flat in-memory
arrays; count-only probes bump a counter instead. Spans of one trial,
flow or generation share an operation id.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (:func:`self_times`). Spans are written out when
the benchmark ends (:meth:`Tracer.write`).
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "summarize"]


class Tracer:
    """Records spans and counts from wrappers it installs on the program.

    ``op`` is the operation id stamped on new spans; ``op_fn``, when set,
    computes it instead (fleet flows are known only to the scheduler).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("q")
        self.stack: List[int] = [-1]
        self.op = -1
        self.op_fn: Optional[Callable[[], int]] = None
        self.counts: Dict[str, int] = {}
        self.returned: Dict[str, int] = {}
        self.peaks: Dict[str, int] = {}
        self.on = False
        self._patches: List[Tuple[object, str, object]] = []
        self._next_op = 0

    # ------------------------------------------------------------------
    # Recording

    def name_id(self, name: str) -> int:
        """Stable small integer for a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_op(self) -> int:
        """Allocate the next operation id and make it current."""
        self.op = self._next_op
        self._next_op += 1
        return self.op

    def span_wrapper(
        self,
        fn: Callable,
        name: str,
        new_op: bool = False,
        add_return: bool = False,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``new_op`` starts a new operation id for the call (a trial or a
        generation); ``add_return`` sums integer return values under
        ``name`` in :attr:`returned` (events a scheduler ran).
        """
        tracer = self
        nid = self.name_id(name)
        starts, ends, names, parents, ops = (
            self.start, self.end, self.name, self.parent, self.opid)
        stack = self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if new_op:
                saved = tracer.op
                tracer.new_op()
            idx = len(starts)
            op_fn = tracer.op_fn
            ops.append(tracer.op if op_fn is None else op_fn())
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
                if new_op:
                    tracer.op = saved
            if add_return:
                tracer.returned[name] = tracer.returned.get(name, 0) + result
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count_wrapper(
        self, fn: Callable, name: str, peak: Optional[Callable[[object], int]] = None
    ) -> Callable:
        """Wrap ``fn`` so each call bumps ``counts[name]``.

        ``peak`` maps the call's first argument (the receiver) to a size
        whose maximum is kept in :attr:`peaks` (scheduler queue depth).
        """
        tracer = self
        counts = self.counts
        peaks = self.peaks

        def wrapper(*args, **kwargs):
            if tracer.on:
                counts[name] = counts.get(name, 0) + 1
                if peak is not None:
                    size = peak(args[0])
                    if size > peaks.get(name, 0):
                        peaks[name] = size
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers

    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr``, defined on ``cls`` itself, by a wrapper.

        ``make`` receives the plain function and returns its wrapper;
        classmethods and staticmethods keep their kind.
        """
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_function(self, fn: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it.

        Modules that did ``from x import fn`` hold their own reference,
        which is the one their code looks up at call time; all of them
        are rebound.
        """
        wrapper = make(fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original attribute back (newest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Write every span as gzip'd TSV: name, start, end, parent, op."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.opid[i]}\n"
                )


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent's interval and merged, so a
    child that runs past its parent, or two children that overlap, are
    not subtracted twice.
    """
    n = len(start)
    children: Dict[int, List[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    result = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        intervals = sorted(
            (max(start[k], lo), min(end[k], hi)) for k in kids
        )
        covered = 0.0
        run_start = run_end = None
        for s, e in intervals:
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            elif e > run_end:
                run_end = e
        if run_end is not None:
            covered += run_end - run_start
        result[p] -= covered
    return result


#: Percentiles considered for the tail, highest first.
_TAILS = (0.9999, 0.999, 0.99, 0.9)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail and sample count of a timing sample.

    The tail is the highest of p90/p99/p99.9/p99.99 that still has at
    least ten samples beyond it (the median when none does); ``tail_q``
    names it. An empty sample reports zeros.
    """
    n = len(values)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_q": 0.5, "n": 0}
    ordered = sorted(values)

    def rank(q: float) -> float:  # nearest-rank percentile
        return ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]

    tail_q = 0.5
    for q in _TAILS:
        if n * (1.0 - q) >= 10:
            tail_q = q
            break
    return {"p50": rank(0.5), "tail": rank(tail_q), "tail_q": tail_q, "n": n}
