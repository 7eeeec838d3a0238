"""Span recording for the benchmark's traced pass.

A span is one call across a layer boundary: its name, start, end, the
span that was open when it began, the cell it served and the process
that ran it.  Times come from ``time.perf_counter_ns``, a monotonic
clock shared by every process on a Linux host, so spans recorded in
pool workers line up with the parent's.

Spans live in typed arrays (28 bytes each) until the run ends; a traced
pass over the multicore mixes records millions of them.  Wrappers are
installed on the simulator's classes from this directory only, so the
program under test is never edited to be measured.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# The tracer the installed wrappers record into.  Class patching is
# process-wide, so the tracer it feeds is too; a forked pool worker
# inherits both and claims the tracer for itself (see Tracer.claim).
_active: "Tracer | None" = None

_MISSING = object()


def active_tracer() -> "Tracer | None":
    """The tracer the installed wrappers feed, or None when untraced."""
    return _active


def layer_of(label: str) -> str:
    """``"memsys:Hierarchy.load"`` -> ``"memsys"``; harness spans are layers."""
    return label.split(":", 1)[0]


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.cells: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cell_ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._reset_spans()

    def _reset_spans(self) -> None:
        self._pid = os.getpid()
        self.name = array("H")
        self.cell = array("H")
        self.parent = array("i")
        self.pid = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # _last[k]: the most recently closed child of _stack[k] (-1: none).
        self._last = [-1]
        self._cell = 0xFFFF
        #: name id -> calls folded into an earlier span by coalescing.
        self.folded: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        """Intern a span name."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def cell_id(self, cell: str) -> int:
        """Intern a cell label."""
        index = self._cell_ids.get(cell)
        if index is None:
            index = self._cell_ids[cell] = len(self.cells)
            self.cells.append(cell)
        return index

    def begin(self, name_id: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.start)
        self.name.append(name_id)
        self.cell.append(self._cell)
        self.parent.append(self._stack[-1])
        self.pid.append(self._pid)
        self.end.append(0)
        self._stack.append(index)
        self._last.append(-1)
        self.start.append(perf_counter_ns())
        return index

    def resume(self, name_id: int) -> int:
        """Like :meth:`begin`, but reopen the previous sibling if it has
        the same name and closed last: a run of back-to-back calls becomes
        one span (its calls counted in :attr:`folded`)."""
        previous = self._last[-1]
        if previous < 0 or self.name[previous] != name_id:
            return self.begin(name_id)
        self.folded[name_id] = self.folded.get(name_id, 0) + 1
        self._stack.append(previous)
        self._last.append(-1)
        return previous

    def finish(self, index: int) -> None:
        """Close the innermost open span."""
        self.end[index] = perf_counter_ns()
        self._stack.pop()
        self._last.pop()
        self._last[-1] = index

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        """Record a span around a block; ``cell`` tags it and its children."""
        outer = self._cell
        if cell is not None:
            self._cell = self.cell_id(cell)
        index = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(index)
            self._cell = outer

    def wrap(self, fn, label: str, count=None, coalesce: bool = False):
        """A wrapper that records one span per call of ``fn``.

        ``count(result)`` adds to ``counts[label]`` after each call.  With
        ``coalesce``, back-to-back calls under one parent share a span.
        """
        name_id = self.name_id(label)
        begin = self.resume if coalesce else self.begin
        finish = self.finish
        counts = self.counts

        if count is None:
            def traced(*args, **kwargs):
                index = begin(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(index)
        else:
            def traced(*args, **kwargs):
                index = begin(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(index)
                counts[label] = counts.get(label, 0) + count(result)
                return result

        return functools.update_wrapper(traced, fn)

    def claim(self) -> None:
        """Drop spans inherited from the parent when running in a forked worker."""
        if os.getpid() != self._pid:
            self._reset_spans()
            self.counts.clear()

    # -- moving worker spans to the parent ---------------------------------

    def dump(self, path: str) -> None:
        """Write this process's spans to ``path`` and forget them."""
        payload = {
            "names": self.names, "cells": self.cells, "counts": self.counts,
            "folded": {self.names[k]: v for k, v in self.folded.items()},
            "arrays": {key: getattr(self, key) for key in
                       ("name", "cell", "parent", "pid", "start", "end")},
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._reset_spans()
        self.counts.clear()

    def merge_dir(self, directory: str) -> None:
        """Append (and delete) every span file a worker dumped into ``directory``.

        The files were written by :meth:`dump` in this program's own
        workers.
        """
        for entry in sorted(os.listdir(directory)):
            path = os.path.join(directory, entry)
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            os.remove(path)
            self._merge(payload)

    def _merge(self, payload: dict) -> None:
        arrays = payload["arrays"]
        offset = len(self.start)
        name_map = np.array([self.name_id(n) for n in payload["names"]],
                            dtype=np.uint16)
        cell_map = np.array([self.cell_id(c) for c in payload["cells"]]
                            + [0xFFFF], dtype=np.uint16)
        names = np.frombuffer(arrays["name"], dtype=np.uint16)
        cells = np.frombuffer(arrays["cell"], dtype=np.uint16)
        cells = cell_map[np.minimum(cells, len(cell_map) - 1)]
        parents = np.frombuffer(arrays["parent"], dtype=np.int32)
        parents = np.where(parents >= 0, parents + offset, -1)
        self.name.frombytes(name_map[names].tobytes())
        self.cell.frombytes(cells.tobytes())
        self.parent.frombytes(parents.astype(np.int32).tobytes())
        self.pid.extend(arrays["pid"])
        self.start.extend(arrays["start"])
        self.end.extend(arrays["end"])
        for label, value in payload["counts"].items():
            self.counts[label] = self.counts.get(label, 0) + value
        for label, value in payload["folded"].items():
            name_id = self.name_id(label)
            self.folded[name_id] = self.folded.get(name_id, 0) + value

    # -- analysis -----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Per-span name, pid and parent, with duration and self time (ns)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(start))
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "pid": np.frombuffer(self.pid, dtype=np.int32),
            "parent": parent,
            "duration": duration,
            "self": duration - children,
        }

    def calls(self) -> np.ndarray:
        """Calls recorded per name id, folded calls included."""
        calls = np.bincount(np.frombuffer(self.name, dtype=np.uint16),
                            minlength=len(self.names))
        for name_id, extra in self.folded.items():
            calls[name_id] += extra
        return calls

    def write_jsonl(self, path: str) -> None:
        """Write every span to ``path``: a header line, then one row per span.

        Row ``i`` (0-based, after the header) is span ``i``:
        ``[parent, name, cell, pid, start, end]`` with ``name`` and
        ``cell`` indexing the header's tables, ``parent`` -1 for a root,
        ``cell`` -1 outside any cell, and ``start``/``end`` nanoseconds
        after the header's ``epoch_ns``.
        """
        epoch = int(np.frombuffer(self.start, dtype=np.int64).min()) \
            if len(self) else 0
        header = {"fields": ["parent", "name", "cell", "pid", "start",
                             "end"],
                  "names": self.names, "cells": self.cells,
                  "clock": "time.perf_counter_ns", "epoch_ns": epoch,
                  "spans": len(self)}
        columns = [np.frombuffer(self.parent, dtype=np.int32),
                   np.frombuffer(self.name, dtype=np.uint16),
                   np.frombuffer(self.cell, dtype=np.uint16),
                   np.frombuffer(self.pid, dtype=np.int32),
                   np.frombuffer(self.start, dtype=np.int64),
                   np.frombuffer(self.end, dtype=np.int64)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for first in range(0, len(self), 100_000):
                parent, name, cell, pid, start, end = (
                    column[first:first + 100_000].tolist()
                    for column in columns)
                fh.write("".join(
                    f"[{p},{n},{-1 if c == 0xFFFF else c},{i},"
                    f"{s - epoch},{e - epoch}]\n"
                    for p, n, c, i, s, e in zip(parent, name, cell, pid,
                                                start, end)))


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap each ``(owner, attribute, layer, count, coalesce)`` target.

    Restores the originals on exit.

    ``owner`` is a class or a module.  Span names are
    ``"<layer>:<Class>.<method>"`` (``"<layer>:<function>"`` for modules).
    """
    global _active
    saved = []
    try:
        for owner, attribute, layer, count, coalesce in targets:
            original = vars(owner).get(attribute, _MISSING)
            qualified = (f"{owner.__name__}.{attribute}"
                         if isinstance(owner, type) else attribute)
            setattr(owner, attribute,
                    tracer.wrap(getattr(owner, attribute),
                                f"{layer}:{qualified}", count, coalesce))
            saved.append((owner, attribute, original))
        _active = tracer
        yield tracer
    finally:
        _active = None
        for owner, attribute, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
