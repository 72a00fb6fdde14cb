"""Spans recorded around library calls, from outside the library.

``Tracer.install`` replaces every binding of each wrapped function in every
loaded ``latticealign`` module (a name imported with ``from x import f`` is
bound in the importing module too, so wrapping only the home module would
miss those calls) and ``Tracer.remove`` puts the originals back.  Spans are
kept in flat arrays in memory and written out once, after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from perfbench.layers import WRAPPED


class Tracer:
    """Spans of the wrapped functions; ``observe`` maps a metric prefix such
    as ``solver.solve`` to a callback that sees each of its return values."""

    def __init__(self, observe: dict | None = None):
        self._observe = observe or {}
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------ wrap
    def _wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED.  The wrappers are built on the
        first call and reused after ``remove``."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for owner, key, _, wrapped in self._bindings:
            setattr(owner, key, wrapped)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        modules = [m for n, m in sys.modules.items()
                   if n == "latticealign" or n.startswith("latticealign.")]
        bindings = []
        for mod_name, attr in WRAPPED:
            orig = getattr(sys.modules[f"latticealign.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            if isinstance(orig, type):
                # a class is shared by every binding: wrap its constructor
                init = orig.__dict__["__init__"]
                bindings.append((orig, "__init__", init,
                                 self._wrap(name, init, self._observe.get(name))))
                continue
            wrapped = self._wrap(name, orig, self._observe.get(name))
            bindings.extend((mod, key, orig, wrapped) for mod in modules
                            for key, val in vars(mod).items() if val is orig)
        return bindings

    def remove(self) -> None:
        for owner, key, orig, _ in self._bindings:
            setattr(owner, key, orig)

    # --------------------------------------------------------------- analyse
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy seconds and self seconds per wrapped function.

        Self time is a span's duration minus the part its child spans cover.
        Spans come from one thread and nest, so children never overlap and
        their coverage is the sum of their durations.
        """
        nid = np.array(self.name_id, dtype=np.int64)
        par = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - covered
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        busy = np.bincount(nid, weights=dur, minlength=n_names)
        selfs = np.bincount(nid, weights=self_t, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """One span per line: name, start, end (s), parent span, op id."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            names = self.names
            fh.writelines(
                f"{i},{names[n]},{s:.9f},{e:.9f},{p},{o}\n"
                for i, (n, s, e, p, o) in enumerate(
                    zip(self.name_id, self.start, self.end, self.parent, self.op))
            )
