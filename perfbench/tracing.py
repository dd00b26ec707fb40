"""Outside-in span tracing: wrap a layer's public functions where its
callers look them up, record spans in memory, derive self time.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (``-1`` at the root), ``op`` the benchmark
operation it ran under.  Spans nest by construction because every
wrapper pushes on entry and pops on exit of one single-threaded call
stack; the benchmark runs everything on the serial executor so no call
escapes the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, OP, ATTRS = range(6)


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, attrs: Optional[dict] = None) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        if attrs:
            span[ATTRS] = attrs
        # a wrapper always closes the span it opened; anything still above
        # it on the stack was left open by an exception and ends here too
        while self.stack:
            top = self.stack.pop()
            if top == idx:
                break
            if self.spans[top][END] is None:
                self.spans[top][END] = span[END]

    def boundary(self, name: str) -> None:
        """Close the open span ``name`` on top of the stack, open the next.

        Used for spans with no function of their own, such as service
        ticks, which are delimited by a public per-tick hook.
        """
        if self.stack and self.spans[self.stack[-1]][NAME] == name:
            self.close(self.stack[-1])
        self.open(name)

    def rename_top(self, name: str, new_name: str) -> None:
        """Close an open ``name`` span on top of the stack as ``new_name``."""
        if self.stack and self.spans[self.stack[-1]][NAME] == name:
            idx = self.stack[-1]
            self.spans[idx][NAME] = new_name
            self.close(idx)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans: Sequence[list]) -> List[float]:
    """Per-span self time: duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [s[END] - s[START]
            - covered(children.get(i, ()), s[START], s[END])
            for i, s in enumerate(spans)]


@dataclass(frozen=True)
class Target:
    """One public function (or ``Class.method``) to wrap.

    ``attrs(args, kwargs, result)`` turns a call into span attributes;
    ``name`` may be a callable of ``(args, kwargs)`` for spans named by
    an argument.  ``enter``/``exit`` run just inside the span, for spans
    that delimit sub-spans of their own (service ticks).
    """

    module: str
    qualname: str
    name: Any
    attrs: Optional[Callable[[tuple, dict, Any], dict]] = None
    enter: Optional[Callable[[SpanRecorder], None]] = None
    exit: Optional[Callable[[SpanRecorder], None]] = None


def _wrap(fn: Callable, target: Target, rec: SpanRecorder) -> Callable:
    name, attrs, enter, leave = target.name, target.attrs, target.enter, target.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name(args, kwargs) if callable(name) else name)
        if enter is not None:
            enter(rec)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, {"error": type(exc).__name__})
            raise
        if leave is not None:
            leave(rec)
        rec.close(idx, attrs(args, kwargs, result) if attrs else None)
        return result

    return traced


def _package_modules(package: str):
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is not None and (mod_name == package
                                or mod_name.startswith(package + ".")):
            yield mod


def install(targets: Sequence[Target], rec: SpanRecorder,
            package: str = "repro") -> List[tuple]:
    """Wrap every target; returns the patch list :func:`uninstall` undoes.

    A method is replaced on its class.  A function is replaced in every
    loaded ``package`` module that binds it, because that binding is
    where its callers look it up at call time.
    """
    patches: List[tuple] = []
    for t in targets:
        owner: Any = importlib.import_module(t.module)
        *path, attr = t.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = _wrap(original, t, rec)
        if isinstance(owner, type):
            patches.append((owner, attr, owner.__dict__[attr], wrapped))
            setattr(owner, attr, wrapped)
            continue
        for mod in _package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original, wrapped))
                    setattr(mod, key, wrapped)
    return patches


def uninstall(patches: Sequence[tuple], package: str = "repro") -> None:
    """Undo :func:`install`, also in modules first imported while the
    wrappers were in place, which bound a wrapper at import."""
    for owner, attr, original, _ in reversed(patches):
        setattr(owner, attr, original)
    originals = {id(wrapped): original for _, _, original, wrapped in patches}
    for mod in _package_modules(package):
        for key, value in list(vars(mod).items()):
            if id(value) in originals:
                setattr(mod, key, originals[id(value)])
