"""Span tracer that wraps the program's public functions from the outside.

`instrument` replaces every public function, and every public method of a
public class, defined in the seven program modules with a wrapper that
records a span (id, parent, name, start, end) and a call count in memory.
Callers bind many names at import (`testability` imports `delta_to_code`,
`harness` and `expansion` import `sum_contains`), so a wrapper replaces the
original in every loaded module namespace that holds it, not only in the
module that defines it.

Scalar field operations run millions of times per decode round; they are
counted but not timed, so their cost stays in the self time of the span
that called them.

Metric names follow BENCHMARK.json: `<module>.<function>.calls`,
`<module>.<function>.s` (inclusive seconds, recursion counted once),
`<module>.self_s`, and the few observed counts registered in `OBSERVERS`.
A metric whose function no longer exists is absent, never an error.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

MODULES = ("gf_poly", "linalg", "codes", "tensor", "expansion", "testability", "harness")

COUNT_ONLY = frozenset(
    "gf_poly.GF2m." + m
    for m in ("mul", "add", "inv", "div", "pow", "omega_pow", "mul_raw")
)


def _observe_decode(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    if result is None:
        outcome = "beyond_radius"
    elif result[1] == 0:
        outcome = "member"
    else:
        outcome = "decoded"
    tracer.bump(f"{name}.{outcome}")


def _observe_delta_lines(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    word = kwargs["word"] if "word" in kwargs else args[0]
    tracer.distinct.setdefault(name, set()).add(np.asarray(word, dtype=np.uint8).tobytes())


def _observe_sum_cells(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    word = kwargs["word"] if "word" in kwargs else args[0]
    family = kwargs["family"] if "family" in kwargs else args[1]
    coeffs = sum(int(np.count_nonzero(c.check_coeffs)) for c in family.codes)
    tracer.bump(f"{name}.cells", word.size * coeffs)


def _observe_text_bytes(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    tracer.bump(f"{name}.bytes", len(result))


# function name -> (observer, the metric suffixes it produces)
OBSERVERS: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {
    "codes.bounded_distance_decode": (
        _observe_decode,
        ("member", "decoded", "beyond_radius"),
    ),
    "codes.delta_to_code": (_observe_delta_lines, ("distinct_lines",)),
    "tensor.sum_contains": (_observe_sum_cells, ("cells",)),
    "tensor.TensorWord.to_text": (_observe_text_bytes, ("bytes",)),
}


class Tracer:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.distinct: Dict[str, set] = {}
        self.wrapped: set = set()
        self.broken_observers: set = set()
        self._stack: List[list] = []  # [id, name, start, child_seconds]
        self._active: Dict[str, int] = {}
        self._next_id = 0

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, start, child = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        dur = end - start
        depth = self._active[name] - 1
        self._active[name] = depth
        if depth == 0:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around calls into the program."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    # -- wrappers ---------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        self.wrapped.add(name)
        calls = self.calls
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        observer = OBSERVERS.get(name, (None,))[0]
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if observer is not None and name not in tracer.broken_observers:
                try:
                    observer(tracer, name, args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    tracer.broken_observers.add(name)
                    print(f"trace: observer for {name} disabled: {exc!r}", file=sys.stderr)
            return result

        return spanned

    # -- derived metrics --------------------------------------------------
    def metric(self, metric: str) -> Optional[float]:
        """Value of one per-layer metric, or None when it cannot exist."""
        base, _, stat = metric.rpartition(".")
        if stat == "self_s":
            if base not in MODULES:
                return None
            prefix = base + "."
            return sum((v for k, v in self.self_time.items() if k.startswith(prefix)), 0.0)
        if base not in self.wrapped:
            return None
        if stat == "calls":
            return self.calls.get(base, 0)
        if stat == "s":
            return self.inclusive.get(base, 0.0)
        suffixes = OBSERVERS.get(base, (None, ()))[1]
        if stat not in suffixes or base in self.broken_observers:
            return None
        if stat == "distinct_lines":
            return len(self.distinct.get(base, ()))
        return self.counts.get(f"{base}.{stat}", 0)

    def write_spans(self, path: str) -> None:
        """Spans as tab-separated lines, then the count-only call totals."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
            for name in sorted(COUNT_ONLY & self.wrapped):
                fh.write(f"# calls\t{name}\t{self.calls.get(name, 0)}\n")


def instrument(tracer: Tracer, modules: Dict[str, object]) -> None:
    """Wrap the public callables of `modules` (short name -> module object).

    Module-level functions (including `lru_cache` wrappers) are rebound in
    every loaded module that holds the same object; methods are replaced on
    their class, which every caller reaches through.
    """
    originals: Dict[int, Tuple[object, Callable]] = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _instrument_class(tracer, f"{short}.{obj.__name__}", obj)
            elif callable(obj) and id(obj) not in originals:
                originals[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, val in list(namespace.items()):
            entry = originals.get(id(val))
            if entry is not None and entry[0] is val:
                setattr(mod, attr, entry[1])


def _instrument_class(tracer: Tracer, qual: str, cls: type) -> None:
    done: Dict[int, Callable] = {}
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(member, staticmethod):
            fn, kind = member.__func__, staticmethod
        elif inspect.isfunction(member):
            fn, kind = member, None
        else:
            continue  # properties, class methods and constants
        if id(fn) not in done:
            done[id(fn)] = tracer.wrap(f"{qual}.{attr}", fn)
        wrapper = done[id(fn)]
        setattr(cls, attr, kind(wrapper) if kind else wrapper)
