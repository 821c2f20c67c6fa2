"""Span tracer that wraps chainsynth's public functions where they are bound.

The engines import their helpers by name (`from ..model import check, ...`)
and `reach_probability` finds `prob01_states` through its module globals, so
patching one module attribute would miss most calls.  `Tracer.install()`
scans every loaded chainsynth module and replaces each binding of a traced
function object; `uninstall()` puts every original back.

Spans (name, start, end, parent, query id) are kept in flat arrays and
written out by `dump()`; start and end are process CPU times.  Self time is computed on exit: a span's duration
minus the durations of its direct children.  A generator
(`enumerate_realisations`) gets one span per resumption, so only the time its
body runs is charged to it.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

SPAN_CAP = 200_000  # spans kept for dump(); aggregates are never capped
CLOCK = time.process_time  # spans measure CPU time, as the harness does


class _Agg:
    __slots__ = ("calls", "busy", "self_s", "units")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.units = 0  # states, yielded items ... depending on the span


def _traced_functions():
    """(span name, owner, attribute, unit counter) for every traced call."""
    from chainsynth import family, model, sketch
    from chainsynth.engines import cegis

    def n_states(args, result):
        return args[0].n_states

    return (
        ("model.reach_probability", model, "reach_probability", n_states),
        ("model.prob01_states", model, "prob01_states", None),
        ("model.mdp_extremal", model, "mdp_extremal", n_states),
        ("model.induced_chain", model, "induced_chain", None),
        ("model.sub_mc", model, "sub_mc", None),
        ("model.check", model, "check", None),
        ("family.realise", family, "realise", None),
        ("family.enumerate_realisations", family, "enumerate_realisations",
         None),
        ("family.quotient_mdp", family, "quotient_mdp", None),
        ("family.scheduler_consistency", family, "scheduler_consistency",
         None),
        ("family.cost", family, "cost", None),
        ("cegis.extract_counterexample", cegis, "extract_counterexample",
         None),
        ("cegis.next_candidate", cegis.AssignmentSpace, "next_candidate",
         None),
        ("sketch.parse", sketch, "parse", None),
        ("sketch.elaborate", sketch, "elaborate",
         lambda args, result: result.n_states),
    )


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.agg = {}
        self.qid = -1
        self.stack = []  # frames: [span index, name id, child time, parent]
        self.dropped = 0
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._qid = array("i")
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.agg[name] = _Agg()
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self._name)
        if idx >= SPAN_CAP:
            idx = -1
            self.dropped += 1
        frame = [idx, nid, 0.0, parent]
        self.stack.append(frame)
        return frame

    def _close(self, frame, start, end, calls=1, units=0):
        self.stack.pop()
        idx, nid, child, parent = frame
        busy = end - start
        agg = self.agg[self.names[nid]]
        agg.calls += calls
        agg.busy += busy
        agg.self_s += busy - child
        agg.units += units
        if self.stack:
            self.stack[-1][2] += busy
        if idx >= 0:
            self._name.append(nid)
            self._start.append(start)
            self._end.append(end)
            self._parent.append(parent)
            self._qid.append(self.qid)

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn, unit_fn):
        tracer = self
        clock = CLOCK

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, start, clock())
                raise
            tracer._close(frame, start, clock(), 1,
                          unit_fn(args, result) if unit_fn else 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """One span per resumption, so that the generator's busy time is
        charged to whichever span consumes it; the call is counted once and
        `units` counts the items yielded."""
        tracer = self
        clock = CLOCK

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            while True:
                frame = tracer._open(name)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(frame, start, clock(), calls)
                    return
                except BaseException:
                    tracer._close(frame, start, clock(), calls)
                    raise
                tracer._close(frame, start, clock(), calls, 1)
                calls = 0
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for name, owner, attr, unit_fn in _traced_functions():
            original = getattr(owner, attr)
            if attr == "enumerate_realisations":
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original, unit_fn)
            replacements[id(original)] = (original, wrapper)
            if isinstance(owner, type):  # a method: patch the class only
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chainsynth" or
                                   mod_name.startswith("chainsynth.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results -----------------------------------------------------------

    def totals(self, name):
        agg = self.agg.get(name)
        return agg if agg is not None else _Agg()

    def dump(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self._name, dtype=np.int32),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 qid=np.frombuffer(self._qid, dtype=np.int32))


class _Span:
    __slots__ = ("tracer", "name", "frame", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._open(self.name)
        self.start = CLOCK()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame, self.start, CLOCK())
        return False
