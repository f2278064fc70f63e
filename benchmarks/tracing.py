"""Span recorder that times blockbp's layer functions from outside the package.

``SpanRecorder.installed(targets)`` wraps each target function and rebinds
every name in the package's loaded modules that refers to it, so calls made
inside the package (``pipeline.recover`` calling ``remove_set``, the harness
calling ``popdyn.magnetization_chain``) are timed too.  Spans stay in memory
as (name, start, end, parent) records; the benchmark writes them out when it
ends.  A target that no longer exists is left unwrapped, so its span shows
no calls and the benchmark reports it as missing.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans of wrapped calls; ``keep`` names spans whose arguments
    and results are kept for the benchmark to inspect."""

    def __init__(self, package: str, keep=()):
        self.package = package
        self.spans: list[dict] = []
        self.kept: dict[str, list] = {name: [] for name in keep}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if name in self.kept:
                self.kept[name].append((args, result))
            return result
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each "module.function" of the package while the block runs."""
        prefix = self.package + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == self.package or name.startswith(prefix)]
        patched = []
        try:
            for target in targets:
                modname, fname = target.rsplit(".", 1)
                original = getattr(sys.modules.get(prefix + modname), fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(target, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus that of their direct children."""
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span["name"] != name:
                continue
            children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == idx)
            total += span["end"] - span["start"] - children
        return total

    def records(self) -> list[dict]:
        """Spans with times relative to the first one, for the result file."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{"name": s["name"], "start_s": s["start"] - t0, "end_s": s["end"] - t0,
                 "parent": s["parent"]} for s in self.spans]
