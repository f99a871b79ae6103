"""In-memory call tracer for the traced benchmark run.

The tracer wraps the public entry points of each dendrifam module from
the outside: nothing in ``src/`` knows it exists.  A wrapped name is
replaced in every ``dendrifam`` module that binds it (``normalize``,
``graft_binary`` and the two ``tree_key`` functions are imported under
their own or other names by several modules), so no call slips past.

Only aggregates are kept: per wrapped function the number of top-level
calls, the inclusive time and the self time (inclusive time minus the
time of wrapped calls made inside it).  Open calls live on a stack of
``[name, child_seconds]`` frames, so memory stays constant however many
calls the run makes.  A function marked ``recursive`` counts only its
outermost call; its own recursion passes straight through.
"""

from __future__ import annotations

import gc
import sys
import time


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.extra = {}      # name -> free-form counters (e.g. characters)
        self.notes = []      # entry points that could not be wrapped
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack = []
        self._undo = []
        self._gc_start = None

    # -- installation -----------------------------------------------------

    def wrap_function(self, module, attr, name, recursive=False, observe=None):
        """Wrap ``module.attr`` and every alias of it in a dendrifam module."""
        original = getattr(module, attr, None)
        if not callable(original):
            self.notes.append(f"{module.__name__}.{attr} not found; {name} not traced")
            return
        wrapper = self._make_wrapper(name, original, recursive, observe)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "dendrifam" and not mod_name.startswith("dendrifam."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr, name, recursive=False, observe=None):
        original = cls.__dict__.get(attr)
        if not callable(original):
            self.notes.append(f"{cls.__name__}.{attr} not found; {name} not traced")
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._make_wrapper(name, original, recursive, observe))

    def install_gc_hook(self):
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- recording ----------------------------------------------------------

    def _make_wrapper(self, name, fn, recursive, observe):
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if recursive and stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self.extra.setdefault(name, {}), args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- queries --------------------------------------------------------------

    def calls(self, *names):
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total_s(self, *names):
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_s(self, *names):
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def counter(self, name, key):
        return self.extra.get(name, {}).get(key, 0)

    def dump(self):
        return {
            "functions": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in sorted(self.stats.items())},
            "extra": self.extra,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
            "notes": self.notes,
        }
