"""In-memory spans at layer boundaries, and the per-layer figures made from them.

A child process installs wrappers around the public functions of each
``gwlambda`` module (see ``child.py``).  Every wrapped call opens a span with
a name, a start and an end time, the span that caused it, and the id of the
workload item it ran for.  The spans stay in memory and are written out as
one file when the child ends; the parent turns them into self times.

A call whose enclosing span has the same name is folded into that span
(``GWExtElt.__mul__`` calling ``GWFieldElt.__mul__`` is one ``arith`` span),
but it is still counted.  That keeps the span count, and the overhead, down.
"""

import json
import time
from array import array


class Tracer:
    """Span store plus per-name call counts for one child process."""

    def __init__(self):
        self.names = []
        self.codes = {}
        self.calls = {}
        self.name = array("H")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item_id = -1

    def code(self, name):
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return self.codes[name]

    def wrap(self, name, fn):
        """Return ``fn`` recording a span named ``name`` per outermost call."""
        code = self.code(name)
        calls, stack, clock = self.calls, self.stack, time.perf_counter
        names, parents, items = self.name, self.parent, self.item
        starts, ends = self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            calls[name] += 1
            top = stack[-1]
            if top >= 0 and names[top] == code:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(code)
            parents.append(top)
            items.append(tracer.item_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__name__ = fn.__name__
        return traced

    def dump(self, path):
        """Write every span: a JSON header line, then the raw columns."""
        columns = (self.name, self.parent, self.item, self.start, self.end)
        header = {
            "names": self.names,
            "calls": self.calls,
            "count": len(self.name),
            "columns": [[field, col.typecode] for field, col in zip(COLUMNS, columns)],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for col in columns:
                col.tofile(fh)


COLUMNS = ("name", "parent", "item", "start", "end")


def span_stats(spans):
    """Per-name call count, self time and span durations.

    Self time of a span is its duration minus the durations of its direct
    children, so every instant is charged to exactly one span and the self
    times of all spans add up to the time covered by the root spans.
    """
    names = spans["names"]
    code, parent = spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for sid, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[sid]
    stats = {
        n: {"calls": spans["calls"].get(n, 0), "self_s": 0.0, "durations": []}
        for n in names
    }
    for sid, c in enumerate(code):
        entry = stats[names[c]]
        entry["self_s"] += dur[sid] - child[sid]
        entry["durations"].append(dur[sid])
    return stats


def load_spans(path):
    """Read a file written by :meth:`Tracer.dump` into header plus columns."""
    with open(path, "rb") as fh:
        spans = json.loads(fh.readline())
        for field, typecode in spans["columns"]:
            col = array(typecode)
            col.fromfile(fh, spans["count"])
            spans[field] = col
    return spans
