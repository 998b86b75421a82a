"""Per-layer tracing from outside the program.

A Tracer replaces a function with a timing wrapper at the place its caller
looks it up: `vfe_stream.learner.build_hmm` rather than
`vfe_stream.model.build_hmm`, because learner imports the name.  Each
wrapper keeps, per thread, a stack of open calls, so that a layer's self
time is its duration minus the time of the wrapped calls it made.

Sites are of three kinds:
- "span": every call is also kept as a span (id, name, start, end, parent
  id, thread), written out by write_spans when the run ends;
- "agg": calls and summed times only, for functions called many times per
  observation;
- "count": calls only, for the hottest functions, where a timer would cost
  more than the function.

A site whose target no longer exists is listed in `absent` and skipped, so
a refactor of the program does not break the traced run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Callable, Optional


class _ThreadState:
    def __init__(self):
        self.stack = []  # open calls: [child seconds, nearest span id]
        self.stats = {}  # name -> [calls, total s, self s, steps]


class Tracer:
    """Wraps a list of sites (metric name, kind, targets, steps): targets
    are "module:attr" or "module:Class.attr", and steps, when given, maps a
    call's (args, kwargs) to the work it was asked to do."""

    def __init__(self, sites):
        self._sites = sites
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._ids = itertools.count(1)
        self._patches = []
        self.spans = []
        self.absent = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def _timed(self, fn: Callable, name: str, span: bool,
               steps: Optional[Callable]) -> Callable:
        spans = self.spans

        def wrapper(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1][1] if st.stack else None
            frame = [0.0, next(self._ids) if span else parent]
            st.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                dur = t1 - t0
                if st.stack:
                    st.stack[-1][0] += dur
                s = st.stats.setdefault(name, [0, 0.0, 0.0, 0])
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[0]
                if steps is not None:
                    s[3] += steps(args, kwargs)
                if span:
                    spans.append((frame[1], name, t0, t1, parent,
                                  threading.get_ident()))

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            s = self._state().stats.setdefault(name, [0, 0.0, 0.0, 0])
            s[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, kind, targets, steps in self._sites:
            for target in targets:
                self._install(name, kind, target, steps)

    def _install(self, name: str, kind: str, target: str,
                 steps: Optional[Callable]) -> None:
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        if kind == "count":
            wrapped = self._counted(fn, name)
        else:
            wrapped = self._timed(fn, name, kind == "span", steps)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def stats(self) -> dict:
        """name -> [calls, total seconds, self seconds, steps], summed over
        all threads."""
        out = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, row in st.stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0, 0])
                for i, x in enumerate(row):
                    acc[i] += x
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "thread": thread}) + "\n")
