"""In-memory span tracer and call-site patching for the traced run.

The benchmark observes each layer from outside: it replaces a library
function with a wrapper that records a span around the call.  A module that
did `from .isomorphism import is_subgraph` holds its own reference, so a
wrapper installed only in the defining module would miss those calls;
`Patcher.function` therefore replaces the function at every loaded module
of the package that references it.

A span is (name, start, end, parent index, run id).  Self time is a span's
duration minus the time its child spans cover; with one thread the children
of a span run inside it one after another, so the covered time is the sum
of their durations.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self.run_id = 0
        self.spans: list = []
        self._open: list[list] = []  # [span index, name, child-covered seconds]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.context: dict[str, str] = {}

    def enclosing(self, names: Iterable[str]) -> str | None:
        """Name of the innermost open span whose name is in `names`."""
        names = set(names)
        for _, name, _ in reversed(self._open):
            if name in names:
                return name
        return None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        parent = self._open[-1][0] if self._open else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, name, 0.0]
        self._open.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            dur = t1 - t0
            if self._open:
                self._open[-1][2] += dur
            self.spans[idx] = (name, t0, t1, parent, self.run_id)
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]
            self.calls[name] += 1

    def self_by_module(self) -> dict[str, float]:
        """Self seconds grouped by the module prefix of each span name."""
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_time.items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)

    def children_of(self, parent_name: str) -> dict[str, float]:
        """Inclusive seconds of the direct children of every span named
        `parent_name`, grouped by child name."""
        parents = {i for i, s in enumerate(self.spans) if s and s[0] == parent_name}
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s and s[3] in parents:
                out[s[0]] += s[2] - s[1]
        return dict(out)

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class Patcher:
    """Installs wrappers and puts the originals back on `restore`."""

    def __init__(self, package: str) -> None:
        self.package = package
        self._undo: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}

    def _modules(self):
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == self.package or name.startswith(self.package + ".")):
                yield name, mod

    def function(self, module, attr: str, make_wrapper: Callable) -> None:
        """Replace `module.attr` at every package module that references it."""
        orig = getattr(module, attr)
        wrapper = make_wrapper(orig)
        sites = []
        for mod_name, mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)
                    sites.append(f"{mod_name}.{key}")
        self.sites[f"{module.__name__}.{attr}"] = sorted(sites)

    def method(self, cls, attr: str, make_wrapper: Callable) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make_wrapper(orig))
        self.sites[f"{cls.__module__}.{cls.__name__}.{attr}"] = [f"{cls.__name__}.{attr}"]

    def restore(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)
