"""Outside-in tracer for dyntwist: wrap, record, unwrap.

The tracer never edits the package.  It replaces functions and methods
with timing wrappers in every namespace that binds them (a function
imported by name into another module is bound twice, and both bindings
are wrapped), and puts the originals back on `uninstall`.

Each wrapped call is a frame on one stack.  Its self time is its
duration minus the time its wrapped children cover.  Ordinary names
record one span per call (id, name, start, end, parent, command); hot
names, called hundreds of thousands of times, only update per-name
aggregates.  Counting targets (constructors, cached helpers) add one to
a counter and record no time.
"""

from __future__ import annotations

import sys
import time


class Target:
    """One thing to trace, named `<module>.<qualname>` in the metrics.

    kind is "span" (a span per call), "hot" (aggregates only) or
    "count" (calls only).  on_call(tracer, args) and
    on_return(tracer, result) are optional hooks that read arguments or
    results to derive extra counters; they run outside the timed part of
    the call.
    """

    def __init__(self, module, qualname, kind="span", on_call=None,
                 on_return=None):
        self.module = module
        self.qualname = qualname
        self.kind = kind
        self.on_call = on_call
        self.on_return = on_return

    @property
    def name(self):
        return f"{self.module}.{self.qualname}"


class Tracer:
    def __init__(self, command=0, clock=time.perf_counter):
        self.command = command
        self.clock = clock
        self.spans = []
        self.aggregates = {}  # name -> [calls, inclusive s, self s]
        self.counters = {}
        self._frames = []  # [start, child seconds]
        self._span_ids = []  # ids of the enclosing "span" frames
        self._depth = {}  # name -> active calls, so recursion counts once
        self._installed = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def timed(self, name, fn, record_spans=True, on_call=None, on_return=None):
        """A wrapper around fn that records its calls under name."""
        self.aggregates.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        span_ids = self._span_ids
        depth = self._depth
        clock = self.clock

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            level = depth.get(name, 0)
            depth[name] = level + 1
            if record_spans:
                sid = len(self.spans)
                parent = span_ids[-1] if span_ids else None
                self.spans.append(None)
                span_ids.append(sid)
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                depth[name] = level
                dur = end - frame[0]
                if frames:
                    frames[-1][1] += dur
                agg = self.aggregates[name]
                agg[0] += 1
                agg[2] += dur - frame[1]
                if level == 0:
                    agg[1] += dur
                if record_spans:
                    span_ids.pop()
                    self.spans[sid] = (sid, name, frame[0], end, parent,
                                       self.command)
            if on_return is not None:
                result = on_return(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counters = self.counters
        key = f"{name}.calls"
        counters.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, target, fn):
        if target.kind == "count":
            return self.counted(target.name, fn)
        return self.timed(target.name, fn, target.kind == "span",
                          target.on_call, target.on_return)

    # -- installing ---------------------------------------------------------

    def install(self, targets, package="dyntwist"):
        """Wrap every target in every namespace of the package binding it."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for target in targets:
            owner = sys.modules[f"{package}.{target.module}"]
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(target, original)
            if path:
                # a method: the class attribute is the only binding
                self._bind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """{<name>.calls, <name>.s, <name>.self_s} plus every counter."""
        out = {}
        for name, (calls, incl, self_s) in self.aggregates.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        for name, value in self.counters.items():
            out[name] = value
        return out
