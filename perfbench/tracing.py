"""Spans recorded from the benchmark's side of each call into hyperq.

A span is (id, name, start, end, parent, op).  Spans are kept in flat
arrays while the run lasts and written out as CSV when it ends.  The
program itself is not instrumented: a span starts just before the benchmark
calls a public function and ends when the call returns, so a layer's self
time is its span minus the spans the benchmark opened inside it.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict

OP = "op"  # the span around one whole op; its self time is the benchmark's
NO_PARENT = -1


class Tracer:
    def __init__(self, limit):
        self.limit = limit  # spans kept; a traced run stops tracing beyond it
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {k: array("q") for k in ("sid", "name", "start", "end", "parent", "op")}
        self._stack = [NO_PARENT]
        self._next = 0
        self.op = -1  # op id of the spans being recorded; -1 outside any op

    def full(self):
        return len(self.cols["sid"]) >= self.limit

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, sid, nid, start, end, parent):
        c = self.cols
        c["sid"].append(sid)
        c["name"].append(nid)
        c["start"].append(start)
        c["end"].append(end)
        c["parent"].append(parent)
        c["op"].append(self.op)

    def wrap(self, name, fn):
        """``fn`` recording one span named ``name`` per call."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args)
            finally:
                end = clock()
                stack.pop()
                self._record(sid, nid, start, end, parent)

        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def begin_op(self, op):
        """Open the root span of op ``op``; its times come to ``end_op``."""
        self.op = op
        sid = self._next
        self._next = sid + 1
        self._stack.append(sid)
        return sid

    def end_op(self, sid, start, end):
        self._stack.pop()
        self._record(sid, self.name_id(OP), start, end, NO_PARENT)

    def self_times(self):
        """Per span: (name, duration ns, self ns, parent, op), in record order."""
        c = self.cols
        covered = defaultdict(int)
        for parent, start, end in zip(c["parent"], c["start"], c["end"]):
            if parent != NO_PARENT:
                covered[parent] += end - start
        names = self.names
        return [
            (names[n], end - start, end - start - covered[sid], parent, op)
            for sid, n, start, end, parent, op in zip(
                c["sid"], c["name"], c["start"], c["end"], c["parent"], c["op"]
            )
        ]

    def summary(self):
        """Median self time per call name, and each layer's share of op time.

        A call's median (in us) comes from the spans of the workload's ops; a
        call the workload never makes is timed on the probe spans (op id -1),
        so every call has a measured figure on every workload.  Shares count
        the self time of spans inside an op, against the summed duration of
        the op spans; the ``bench`` share is the ops' own self time.
        """
        in_ops, in_probe = defaultdict(list), defaultdict(list)
        shares = defaultdict(float)
        op_ns = 0
        for name, dur, self_ns, parent, op in self.self_times():
            if name == OP:
                op_ns += dur
                shares["bench"] += self_ns
                continue
            (in_ops if op >= 0 else in_probe)[name].append(self_ns)
            if parent != NO_PARENT:
                shares[name.split(".")[0]] += self_ns
        medians = {
            name: statistics.median(in_ops.get(name) or in_probe[name]) / 1e3
            for name in set(in_ops) | set(in_probe)
        }
        return medians, {layer: ns / op_ns for layer, ns in shares.items()} if op_ns else {}

    def write(self, path):
        c = self.cols
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            for sid, n, start, end, parent, op in zip(
                c["sid"], c["name"], c["start"], c["end"], c["parent"], c["op"]
            ):
                fh.write(f"{sid},{self.names[n]},{start},{end},{parent},{op}\n")
