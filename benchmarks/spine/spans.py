"""Host-time spans recorded from outside the program.

The traced run wraps calls into each layer's public functions (instance
attribute shims; nothing under ``src/`` is edited) and records one span per
call: name, start, end, parent span, and the query id where the call has
one. Spans stay in memory (five flat arrays, 28 bytes a span) and are
written out after the run. A layer's self time is its spans' duration
minus the part their child spans cover.

Set-up phases are recorded the same way in every run; the hot-path shims
are installed only in the traced run, so the untraced run — the one the
end-to-end metrics come from — pays nothing for them.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional

#: root span of the traced run: one per simulated event
EVENT = "simclock.event"
#: spans recorded around set-up calls (outside the timed region)
SETUP_SPANS = (
    "datasets.generate", "graph.partition", "query.compile",
    "engine.construct",
)
#: work the public surface gives no handle on; it stays inside the self
#: time of the span that contains it (see README.md, "Unattributed")
UNATTRIBUTED = {
    EVENT: "SimClock heap pop and event closures; Worker._run prologue/"
           "epilogue (inbox drain, idle weight flush, reschedule); "
           "Worker._flush tier-1 packing; Network combiner/NIC events and "
           "_deliver_all; TrackerActor.submit; TxnPlane._run_update glue; "
           "AdmissionController; the benchmark's own step loop",
    "delivery.tracker_handle": "core.progress ledger arithmetic, "
                               "_stage_terminated, _complete_stage, "
                               "_finish_query, on_done callbacks",
    "engine.submit": "QuerySession construction, lifecycle transitions, "
                     "_do_submit, stage-0 seed split",
}


class Recorder:
    """Span store plus the closures that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.qid = array("i")
        #: open span indices; the -1 at the bottom is "no parent"
        self.stack: List[int] = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # A span starts before and ends after its own bookkeeping, so the cost
    # of recording a call lands in the layer called, not in its parent.

    def _open(self, nid: int) -> int:
        t0 = perf_counter()
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.qid.append(-1)
        self.end.append(0.0)
        self.start.append(t0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.end[idx] = perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (set-up phases)."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        qid: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable[..., Any]:
        """A shim that records one span per call of ``fn``.

        ``qid(args, result)`` names the call's query (it sees the result
        because ``submit`` only learns its id by returning). The body
        repeats ``_open`` / ``_close`` inline: two extra Python calls per
        span would double the tracing overhead on the half-million-span
        workloads. A call that raises leaves the stack unbalanced; the
        pass is lost then anyway.
        """
        nid = self.name_id(name)
        names, starts, parents, qids = (
            self.name.append, self.start.append, self.parent.append,
            self.qid.append,
        )
        ends, stack = self.end, self.stack
        ends_append, push, pop = ends.append, stack.append, stack.pop
        qid_arr = self.qid
        clock = perf_counter

        def shim(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            qids(-1)
            ends_append(0.0)
            starts(t0)
            push(idx)
            result = fn(*args, **kwargs)
            pop()
            if qid is not None:
                qid_arr[idx] = qid(args, result)
            ends[idx] = clock()
            return result

        return shim

    def run_events(self, step: Callable[[], bool]) -> None:
        """Drive the simulation clock, one root span per event."""
        nid = self.name_id(EVENT)
        while True:
            idx = self._open(nid)
            more = step()
            self._close(idx)
            if not more:
                return

    # -- after the run -----------------------------------------------------

    def _covered(self) -> List[float]:
        """Per span, the seconds its direct children cover."""
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * len(end)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        return covered

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        names, ids = self.names, self.name
        for i, (s, e, c) in enumerate(zip(self.start, self.end, self._covered())):
            agg = out[names[ids[i]]]
            agg["calls"] += 1
            agg["total_s"] += e - s
            agg["self_s"] += e - s - c
        return out

    def malformed(self, slack_s: float = 1e-9) -> List[str]:
        """Spans that break the tree: a child outside its parent, or
        children covering more than their parent (negative self time)."""
        start, end = self.start, self.end
        bad: List[str] = []
        for i, p in enumerate(self.parent):
            if end[i] < start[i]:
                bad.append(f"span {i} ends before it starts")
            if p >= i:
                bad.append(f"span {i} has parent {p}")
            elif p >= 0 and (start[i] < start[p] or end[i] > end[p]):
                bad.append(f"span {i} leaves its parent {p}")
        for i, c in enumerate(self._covered()):
            if end[i] - start[i] - c < -slack_s:
                bad.append(f"span {i} has negative self time")
        return bad

    def write(self, path: str) -> None:
        """Columnar JSON, times in ns from the first span."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "dur_ns": [
                round((e - s) * 1e9) for s, e in zip(self.start, self.end)
            ],
            "parent": self.parent.tolist(),
            "query_id": self.qid.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _msg_qid(args: tuple, _result: Any) -> int:
    return args[0].query_id


def install(rec: Recorder, engine: Any) -> None:
    """Shim every layer boundary reachable from outside the engine."""
    wrap = rec.wrap
    # Kernels are stateless singletons shared by all workers: one proxy.
    kernel = SimpleNamespace(
        drain=wrap("kernels.drain", engine.workers[0].kernel.drain)
    )
    for worker in engine.workers:
        worker.kernel = kernel
    net = engine.network
    net.send = wrap("network.send", net.send)
    # Network.deliver is the public attribute holding DeliveryPlane.deliver.
    net.deliver = wrap("delivery.deliver", net.deliver, _msg_qid)
    engine.tracker_handle = wrap(
        "delivery.tracker_handle", engine.tracker_handle, _msg_qid
    )
    engine.submit = wrap(
        "engine.submit", engine.submit, lambda _a, session: session.query_id
    )
    plane = engine.txnplane
    if plane is not None:
        plane.pin = wrap("txnplane.pin", plane.pin, _msg_qid)
        plane.store_for = wrap("txnplane.store_for", plane.store_for)
    if engine.trace is not None:
        engine.trace.emit = wrap(
            "trace.emit", engine.trace.emit, lambda a, _r: a[1]
        )
    if engine.checkpoints is not None:
        engine.checkpoints.maybe_snapshot = wrap(
            "checkpoint.snapshot", engine.checkpoints.maybe_snapshot,
            lambda a, _r: a[1].query_id,
        )
