"""Query-scoped tracing and the trace-driven weight-ledger auditor.

The observability plane (docs/OBSERVABILITY.md). A :class:`TraceRecorder`
is attached to the engine only when ``EngineConfig.trace`` is set; every
hook in the runtime guards on ``trace is not None``, so the disabled mode
allocates nothing on the hot path. Events are timestamped records —
lifecycle transitions, kernel executions, weight reclamations, tracker
reports, credit movements, network sends/retransmits, memo lifecycle —
appended in simulated-time order (the simulator is single-threaded, so the
event list is totally ordered for free) and stored as flat rows whose
fields :data:`KIND_FIELDS` names per kind, sealed every
:data:`CHUNK_EVENTS` events into per-kind typed columns and compressed.

Three consumers:

* :meth:`TraceRecorder.dump_jsonl` — one flat JSON object per line, for
  ``jq``-style offline analysis;
* :meth:`TraceRecorder.to_chrome_trace` — ``chrome://tracing`` / Perfetto
  JSON, kernel executions as duration spans keyed by partition (pid) and
  worker (tid);
* :class:`WeightLedgerAuditor` — replays a trace and re-derives the
  Theorem-1 progression-weight ledger *independently of the tracker*: for
  every ``(query, stage)`` it folds exec / reclaim / crash events into
  ``active + finished + reclaimed + lost ≡ 1 (mod |G|)`` and, at stage
  close, checks both that no active weight survived and that the weight
  the tracker actually received (progress reports + reclaim reports) sums
  to the root weight.

This module is an observation *leaf*: it may not import the engine, the
delivery plane, or any other runtime layer (enforced by
``tools/check_layering.py``); hooks hand it plain values.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat, starmap
from operator import is_
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.progress import ProgressMode
from repro.core.weight import ROOT_WEIGHT, add_weights, normalize_weight, sub_weights

if TYPE_CHECKING:  # typing only; trace stays below every runtime layer
    from repro.runtime.metrics import RunMetrics
    from repro.runtime.simclock import SimClock

# -- event kinds -------------------------------------------------------------
# Stable string constants: exporters and the auditor match on these, and
# they appear verbatim in JSONL dumps.

RUN_CONFIG = "run_config"
LIFECYCLE = "lifecycle"
STAGE_OPEN = "stage_open"
SEED_DISPATCH = "seed_dispatch"
STAGE_CLOSE = "stage_close"
QUERY_CLOSE = "query_close"
CHECKPOINT = "checkpoint"
RESTORE = "restore"
PREEMPT = "preempt"
PAUSE = "pause"
RESUME = "resume"
EXEC = "exec"
WEIGHT_FLUSH = "weight_flush"
PARTIAL_SHIP = "partial_ship"
NODE_COALESCE = "node_coalesce"
ACCUM_RECLAIM = "accum_reclaim"
RECLAIM = "reclaim"
CRASH_LOSS = "crash_loss"
TRACKER_REPORT = "tracker_report"
MEMO_ATTACH = "memo_attach"
MEMO_CLEAR = "memo_clear"
MSG_SEND = "msg_send"
MSG_DELIVER = "msg_deliver"
MSG_RETRANSMIT = "msg_retransmit"
MSG_FAULT = "msg_fault"
CREDIT_ACQUIRE = "credit_acquire"
CREDIT_RELEASE = "credit_release"
CREDIT_STALL = "credit_stall"
WORKER_FAULT = "worker_fault"
SNAPSHOT_PIN = "snapshot_pin"
TXN_BEGIN = "txn_begin"
TXN_COMMIT = "txn_commit"
TXN_ABORT = "txn_abort"
VERSION_REPLAY = "version_replay"

#: The taxonomy, and the row schema: each kind's payload field names in the
#: order ``emit`` takes their values and a dump writes them. The one source
#: — docs/OBSERVABILITY.md's table is checked against it by
#: ``tools/check_docs_symbols.py``.
KIND_FIELDS: Dict[str, Tuple[str, ...]] = {
    RUN_CONFIG: ("mode", "kernel", "nodes", "partitions", "seed"),
    LIFECYCLE: ("src", "dst", "reason"),  # one state-machine edge
    STAGE_OPEN: ("stage", "retry_of"),  # retry_of: only on a re-run attempt
    SEED_DISPATCH: ("stage", "n", "weight"),
    # reason: terminated|cancelled|cancel_forced. versions: the (pid,
    # version) of every partial combined, writers: the op indexes that
    # write the stage's partial — both only when the partials rode reports
    STAGE_CLOSE: ("stage", "reason", "versions", "writers"),
    QUERY_CLOSE: ("reason",),  # teardown|recover|restore|pause
    CHECKPOINT: ("stage", "n_seeds", "partitions", "records", "forced"),
    RESTORE: ("stage", "restored_from", "n_seeds"),
    PREEMPT: ("stage", "reason"),
    PAUSE: ("stage", "n_seeds"),  # stage = the resume point
    RESUME: ("stage", "resumed_from", "n_seeds", "wait_us"),
    # one kernel run; w_out only from the scalar kernel, version_ts only
    # from a snapshot store that has served a version
    EXEC: ("pid", "wid", "stage", "op_idx", "n", "spawned", "w_in", "w_fin",
           "w_out", "cpu", "version_ts"),
    WEIGHT_FLUSH: ("stage", "wid", "weight", "count"),
    # the partition's barrier partial leaving on the report just flushed
    PARTIAL_SHIP: ("stage", "pid", "wid", "version", "bytes"),
    # same-(query, stage) reports folded in one of a node's tier-2 packs:
    # weight is the sum, inputs the n weights folded
    NODE_COALESCE: ("node", "stage", "n", "weight", "inputs"),
    ACCUM_RECLAIM: ("stage", "wid", "weight"),
    RECLAIM: ("stage", "weight", "count", "reported", "fenced"),
    CRASH_LOSS: ("stage", "wid", "weight", "count"),
    TRACKER_REPORT: ("stage", "tag", "value"),
    MEMO_ATTACH: ("pid",),
    MEMO_CLEAR: ("pid", "site"),  # pid -1 = all partitions
    MSG_SEND: ("src", "dst", "n", "bytes"),
    MSG_DELIVER: ("n",),
    MSG_RETRANSMIT: ("src", "dst", "seq", "attempt"),
    MSG_FAULT: ("fault", "src", "dst", "seq"),
    CREDIT_ACQUIRE: ("pid", "n", "free"),
    CREDIT_RELEASE: ("pid", "n"),
    CREDIT_STALL: ("pid", "n", "waiting"),
    WORKER_FAULT: ("wid", "fault", "down_us"),
    SNAPSHOT_PIN: ("ts",),  # the node-cached LCT at admission
    TXN_BEGIN: ("txn", "read_ts"),
    TXN_COMMIT: ("txn", "commit_ts", "ops"),
    TXN_ABORT: ("txn", "reason"),  # lock conflict or torn_commit
    VERSION_REPLAY: ("wid", "lct", "partitions", "discarded"),
}


class _Absent:
    """The type of :data:`ABSENT`, which pickles as a reference to the
    module global and so unpickles as itself rather than a copy."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "ABSENT"


#: Row placeholder for an optional field that is unset but not trailing
#: (``exec``'s ``w_out`` sits between ``w_fin`` and ``cpu``): the field is
#: then absent from ``TraceEvent.data`` and from every export. Unset
#: trailing fields are simply left off the row.
ABSENT = _Absent()

#: close reasons that certify a ledger actually closed (auditor asserts)
_CLOSED_REASONS = ("terminated", "cancelled")


class TraceEvent:
    """One structured trace record: ``ts`` (simulated µs), ``kind``,
    ``query_id`` (-1 when not attributable to one query), payload dict.
    The recorder stores rows and columns, not these: ``recorder.events``
    builds one per event read."""

    __slots__ = ("ts", "kind", "query_id", "data")

    def __init__(self, ts: float, kind: str, query_id: int,
                 data: Dict[str, Any]) -> None:
        self.ts = ts
        self.kind = kind
        self.query_id = query_id
        self.data = data

    def as_dict(self) -> Dict[str, Any]:
        """Flatten to one JSON-ready dict (payload keys promoted to top
        level; the JSONL exporter writes exactly this)."""
        out = {"ts": self.ts, "kind": self.kind, "query_id": self.query_id}
        out.update(self.data)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.ts:.1f}, {self.kind}, q{self.query_id}, {self.data})"


#: an event as recorded, or as re-read from a JSONL dump
TraceLike = Union[TraceEvent, Dict[str, Any]]

#: one stored event: ``(ts, query_id, *payload values)``, its kind kept
#: beside it as a code into :data:`_KINDS`
Row = Tuple[Any, ...]

#: events per sealed chunk of the store
CHUNK_EVENTS = 4096

#: the kind codes a chunk stores (one byte each), and their inverse
_KINDS = tuple(KIND_FIELDS)
_CODES = {kind: code for code, kind in enumerate(_KINDS)}
#: per kind code: its field count, and a stored row's length (``ts``,
#: ``query_id``, the fields)
_WIDTHS = tuple(map(len, KIND_FIELDS.values()))
_ROW_WIDTHS = tuple(2 + width for width in _WIDTHS)
#: ``_PADDING[n]``: what fills a row ``n`` values short of its schema
_PADDING = tuple((ABSENT,) * n for n in range(max(_WIDTHS) + 1))


def _view(code: int, row: Row) -> TraceEvent:
    kind = _KINDS[code]
    return TraceEvent(row[0], kind, row[1], {
        name: value for name, value in zip(KIND_FIELDS[kind], row[2:])
        if value is not ABSENT
    })


def _boxed_bytes(value: Any) -> int:
    """Bytes a stored value owns beyond its slot: strings, bools, ``None``
    and the interpreter's cached small ints are shared, not owned."""
    kind = type(value)
    if kind is float or (kind is int and not -5 <= value <= 256):
        return sys.getsizeof(value)
    if kind is tuple:
        return sys.getsizeof(value) + sum(map(_boxed_bytes, value))
    return 0


# -- sealed columns ----------------------------------------------------------


class _Repeated:
    """A column holding one object throughout, stored once."""

    __slots__ = ("value", "n")

    def __init__(self, value: Any, n: int) -> None:
        self.value = value
        self.n = n

    def __getitem__(self, index: int) -> Any:
        return self.value

    def __iter__(self) -> Iterator[Any]:
        return repeat(self.value, self.n)


#: ``(typecode, lowest, highest + 1)`` of the signed int arrays, narrowest
#: first
_SIGNED = tuple(
    (code, -(1 << (8 * array(code).itemsize - 1)),
     1 << (8 * array(code).itemsize - 1))
    for code in "bhiq")

#: an int column's typecode is first guessed from every this-many-th value
_SAMPLE_STRIDE = 64


def _int_code(lo: int, hi: int) -> Optional[str]:
    """The narrowest array typecode that holds every int in ``[lo, hi]``."""
    for code, low, high in _SIGNED:
        if low <= lo and hi < high:
            return code
    return "Q" if lo >= 0 and hi < 1 << 64 else None


def _packed(code: Optional[str], values: List[Any]) -> Any:
    if code is None:
        return tuple(values)
    # a Struct of its own, not struct.pack: that caches every format it
    # meets, one per column length, process-wide
    return array(code, struct.Struct(f"{len(values)}{code}").pack(*values))


def _column(values: List[Any]) -> Any:
    """One field of one kind's rows in a chunk, stored so every value reads
    back with its type and value: one object throughout once, all ``float``
    as ``array('d')``, all ``int`` in the narrowest int array that holds
    them, anything else (bools, ``None``, strings, tuples, mixed types,
    ints beyond 64 bits) as a tuple."""
    first, n = values[0], len(values)
    if values[-1] is first and all(map(is_, values, repeat(first))):
        return _Repeated(first, n)
    types = list(map(type, values))
    if types.count(int) != n:
        return _packed("d" if types.count(float) == n else None, values)
    # The sample's typecode can only be too narrow, which packing
    # reports; the whole column is then sized exactly.
    sample = values[::_SAMPLE_STRIDE]
    try:
        return _packed(_int_code(min(sample), max(sample)), values)
    except struct.error:
        return _packed(_int_code(min(values), max(values)), values)


#: the ``zlib`` level a sealed chunk is compressed at: the fastest, since
#: every chunk is sealed on the emit path, and level 6 made the blobs of a
#: traced run only 9 % smaller
CODEC_LEVEL = 1


class _Columns:
    """A sealed chunk read back: its kind codes in order, and for each kind
    present its ``(ts, query_id, *fields)`` columns, whose ``k``-th entries
    are that kind's ``k``-th event in the chunk."""

    __slots__ = ("codes", "columns")

    def __init__(self, codes: bytes,
                 columns: Dict[int, Tuple[Any, ...]]) -> None:
        self.codes = codes
        self.columns = columns

    def rows(self, code: int) -> Iterable[Row]:
        return zip(*self.columns.get(code, ()))

    def row(self, code: int, k: int) -> Row:
        return tuple(column[k] for column in self.columns[code])


class _Chunk:
    """:data:`CHUNK_EVENTS` sealed events: their kind codes and typed
    columns, pickled (protocol 5) and ``zlib``-compressed into one blob
    that :meth:`decode` reads back as :class:`_Columns`."""

    __slots__ = ("blob",)

    def __init__(self, codes: bytes,
                 columns: Dict[int, Tuple[Any, ...]]) -> None:
        # Imported by the first seal: an engine that never traces never
        # loads pickle, which would add 0.4 MB to its peak RSS.
        import pickle

        self.blob = zlib.compress(pickle.dumps((codes, columns), 5),
                                  CODEC_LEVEL)

    def decode(self) -> _Columns:
        import pickle

        return _Columns(*pickle.loads(zlib.decompress(self.blob)))

    @property
    def nbytes(self) -> int:
        return sys.getsizeof(self) + sys.getsizeof(self.blob)


class _Tail:
    """The events since the last seal: their kind codes in order, and each
    kind's rows end to end in one flat list, padded to the kind's width
    with :data:`ABSENT`."""

    __slots__ = ("codes", "flat")

    def __init__(self) -> None:
        self.codes = bytearray()
        self.flat: List[List[Any]] = [[] for _ in _KINDS]

    def rows(self, code: int) -> Iterable[Row]:
        return zip(*[iter(self.flat[code])] * _ROW_WIDTHS[code])

    def row(self, code: int, k: int) -> Row:
        width = _ROW_WIDTHS[code]
        return tuple(self.flat[code][k * width:(k + 1) * width])

    def seal(self) -> _Chunk:
        """Move every event into a :class:`_Chunk`; a kind's column ``j``
        is its flat list's every ``width``-th value from ``j``, sliced at C
        speed."""
        columns = {}
        for code, flat in enumerate(self.flat):
            if flat:
                width = _ROW_WIDTHS[code]
                columns[code] = tuple(
                    _column(flat[j::width]) for j in range(width))
                flat.clear()
        chunk = _Chunk(bytes(self.codes), columns)
        self.codes.clear()
        return chunk

    @property
    def nbytes(self) -> int:
        total = (sys.getsizeof(self) + sys.getsizeof(self.codes)
                 + sys.getsizeof(self.flat))
        stamps = {}  # events of one instant share the clock's float
        for code, flat in enumerate(self.flat):
            width = _ROW_WIDTHS[code]
            total += sys.getsizeof(flat)
            for j in range(2, width):
                total += sum(map(_boxed_bytes, flat[j::width]))
            stamps.update(zip(map(id, flat[::width]), flat[::width]))
        return total + sum(map(_boxed_bytes, stamps.values()))


def _in_order(segment: Union[_Columns, _Tail]) -> Iterator[Tuple[int, Row]]:
    """A chunk's or the tail's ``(code, row)`` pairs in emit order."""
    codes = segment.codes
    rows = {code: iter(segment.rows(code)) for code in set(codes)}
    return zip(codes, map(next, map(rows.__getitem__, codes)))


class _EventLog(Sequence):
    """``recorder.events``: the store read as :class:`TraceEvent` objects,
    each built when read and owned by the reader."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._recorder)

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if not isinstance(index, slice):
            return _view(*self._recorder._at(picked))
        ahead = picked if picked.step > 0 else picked[::-1]
        if not ahead:
            return []
        rows = islice(self._recorder._rows(ahead.start), 0,
                      ahead[-1] - ahead.start + 1, ahead.step)
        events = list(starmap(_view, rows))
        return events if ahead is picked else events[::-1]

    def __iter__(self) -> Iterator[TraceEvent]:
        return starmap(_view, self._recorder._rows())


class TraceRecorder:
    """Collects trace events in simulated-time order.

    ``emit`` extends its kind's flat list by one row ``(ts, query_id,
    *values)``, the values in :data:`KIND_FIELDS` order, and appends the
    kind's one-byte code to the order. Every :data:`CHUNK_EVENTS` events
    the rows are sealed into a chunk of per-kind typed columns and
    compressed, so a stored event costs a few bytes, not a tuple and its
    boxed numbers. ``events`` reads the store back as :class:`TraceEvent`
    objects, each value with the type and value it was emitted with,
    decoding each chunk as it is reached and keeping none.

    Constructed once per engine; ``run_info`` (the :data:`RUN_CONFIG`
    values: progress mode, kernel, cluster shape, seed) becomes the leading
    event so a dumped trace is self-describing.
    """

    def __init__(self, clock: "SimClock", *run_info: Any) -> None:
        self._clock = clock
        self._chunk_events = CHUNK_EVENTS  # every chunk this recorder seals
        self._chunks: List[_Chunk] = []
        self._tail = _Tail()
        self.events = _EventLog(self)
        if run_info:
            self.emit(RUN_CONFIG, -1, *run_info)

    # -- recording ----------------------------------------------------------

    def emit(self, kind: str, query_id: int, *values: Any) -> None:
        """Append one event stamped with the current simulated time;
        ``values`` follow ``KIND_FIELDS[kind]``. An undeclared kind raises
        ``KeyError``, more values than declared fields ``ValueError``."""
        code = _CODES[kind]
        short = _WIDTHS[code] - len(values)
        if short < 0:
            raise ValueError(
                f"{kind} event takes {KIND_FIELDS[kind]}, got {values}")
        tail = self._tail
        flat = tail.flat[code]
        flat.append(self._clock.now)
        flat.append(query_id)
        flat += values
        if short:
            flat += _PADDING[short]
        tail.codes.append(code)
        if len(tail.codes) == self._chunk_events:
            self._chunks.append(tail.seal())

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._chunks) * self._chunk_events + len(self._tail.codes)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def _segment(self, i: int) -> Union[_Columns, _Tail]:
        """Chunk ``i`` decoded, or the tail when ``i`` is the chunk count.
        The decoded columns belong to the caller; the recorder keeps none."""
        if i == len(self._chunks):
            return self._tail
        return self._chunks[i].decode()

    def _segments(self, first: int = 0) -> Iterator[Union[_Columns, _Tail]]:
        """Chunks ``first`` on, then the tail, each decoded when reached."""
        return map(self._segment, range(first, len(self._chunks) + 1))

    def _rows(self, start: int = 0) -> Iterator[Tuple[int, Row]]:
        """``(code, row)`` of every event from index ``start`` on."""
        first, skip = divmod(start, self._chunk_events)
        return islice(chain.from_iterable(
            map(_in_order, self._segments(first))), skip, None)

    def _at(self, index: int) -> Tuple[int, Row]:
        """``(code, row)`` of the event at ``0 <= index < len(self)``: its
        kind's how-manyeth in its chunk is counted off the kind codes."""
        first, j = divmod(index, self._chunk_events)
        segment = self._segment(first)
        code = segment.codes[j]
        return code, segment.row(code, segment.codes.count(code, 0, j))

    def by_kind(self, kind: str) -> List[TraceEvent]:
        """Every recorded event of one kind, in simulated-time order."""
        code = _CODES.get(kind)
        if code is None:
            return []
        return [_view(code, row) for segment in self._segments()
                for row in segment.rows(code)]

    def stage_windows(self) -> List[Tuple[float, float]]:
        """Per stage, its window ``(opened, closed)`` in the run: stage
        ``s`` opens when the last query closes stage ``s - 1`` (stage 0 at
        t = 0) and closes when the last query closes it."""
        closes = {ev.data["stage"]: ev.ts for ev in self.by_kind(STAGE_CLOSE)
                  if ev.data["reason"] == "terminated"}
        bounds = [0.0] + [closes[s] for s in sorted(closes)]
        return list(zip(bounds, bounds[1:]))

    def for_query(self, query_id: int) -> List[TraceEvent]:
        """Every event attributed to one query, in simulated-time order."""
        return [_view(code, row) for code, row in self._rows()
                if row[1] == query_id]

    @property
    def nbytes(self) -> int:
        """Estimated bytes the store holds: each sealed chunk's compressed
        blob; and the unsealed rows, the floats and large ints their
        payloads box, and one timestamp per instant."""
        return (sys.getsizeof(self._chunks) + self._tail.nbytes
                + sum(chunk.nbytes for chunk in self._chunks))

    # -- exporters ----------------------------------------------------------

    def dump_jsonl(self, path: str,
                   metrics: Optional["RunMetrics"] = None) -> int:
        """Write one flat JSON object per event; when ``metrics`` is given a
        final ``{"kind": "run_metrics", ...}`` record carries the engine's
        counter snapshot. Returns the number of records written."""
        n = 0
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev.as_dict()))
                fh.write("\n")
                n += 1
            if metrics is not None:
                fh.write(json.dumps(
                    {"kind": "run_metrics", **metrics.snapshot()}))
                fh.write("\n")
                n += 1
        return n

    def to_chrome_trace(self) -> Dict[str, Any]:
        """``chrome://tracing`` JSON: kernel executions become complete
        ("X") duration spans on a (partition, worker) track; everything
        else becomes an instant event. Timestamps are simulated µs."""
        out: List[Dict[str, Any]] = []
        for ev in self.events:
            if ev.kind == EXEC:
                out.append({
                    "name": f"q{ev.query_id} op{ev.data.get('op_idx', '?')}",
                    "cat": "exec",
                    "ph": "X",
                    "ts": ev.ts,
                    "dur": ev.data.get("cpu", 0.0),
                    "pid": ev.data.get("pid", 0),
                    "tid": ev.data.get("wid", 0),
                    "args": ev.as_dict(),
                })
            else:
                out.append({
                    "name": ev.kind,
                    "cat": ev.kind,
                    "ph": "i",
                    "s": "g",
                    "ts": ev.ts,
                    "pid": ev.data.get("pid", 0),
                    "tid": ev.data.get("wid", 0),
                    "args": ev.as_dict(),
                })
        return {"traceEvents": out, "displayTimeUnit": "ms"}

    def summary(self) -> Dict[int, Dict[str, Any]]:
        """Aggregate per-query view: event counts by kind plus the headline
        execution numbers (the per-query ``RunMetrics`` extension surfaced
        by ``python -m repro trace``)."""
        out: Dict[int, Dict[str, Any]] = {}
        for ev in self.events:
            row = out.setdefault(ev.query_id, {
                "events": 0, "kinds": {}, "traversers": 0, "spawned": 0,
                "reclaimed_count": 0, "cpu_us": 0.0,
            })
            row["events"] += 1
            row["kinds"][ev.kind] = row["kinds"].get(ev.kind, 0) + 1
            if ev.kind == EXEC:
                row["traversers"] += ev.data.get("n", 0)
                row["spawned"] += ev.data.get("spawned", 0)
                row["cpu_us"] += ev.data.get("cpu", 0.0)
            elif ev.kind == RECLAIM:
                row["reclaimed_count"] += ev.data.get("count", 0)
        return out


# -- the auditor -------------------------------------------------------------


class _StageLedger:
    """Re-derived Theorem-1 ledger for one (query, stage); all fields are
    elements of the weight group. ``tracker_sum`` independently accumulates
    what the *tracker* saw (progress reports + reclaim reports).

    ``flushed`` / ``flushed_n`` follow the coalesced weight through its two
    tiers — what the workers' accumulators flushed, as a sum and as a
    report count reduced by every node-level fold — to be matched against
    the tracker's weight reports (``tracker_sum - reclaimed``, counted in
    ``reported_n``).

    ``ships`` holds each partition's highest ``partial_ship`` version and
    ``execs`` the traversers executed per ``(pid, op_idx)`` — matched at
    close against the versions the coordinator combined."""

    __slots__ = ("active", "finished", "reclaimed", "lost", "tracker_sum",
                 "flushed", "flushed_n", "reported_n", "ships", "execs")

    def __init__(self) -> None:
        self.active = ROOT_WEIGHT
        self.finished = 0
        self.reclaimed = 0
        self.lost = 0
        self.tracker_sum = 0
        self.flushed = 0
        self.flushed_n = 0
        self.reported_n = 0
        self.ships: Dict[int, int] = {}
        self.execs: Dict[Tuple[int, int], int] = {}


@dataclass
class AuditReport:
    """Outcome of one :meth:`WeightLedgerAuditor.audit` pass."""

    violations: List[str] = field(default_factory=list)
    events: int = 0
    checks: int = 0
    stages_opened: int = 0
    stages_closed: int = 0      # closed with the terminal invariants asserted
    stages_dropped: int = 0     # torn down without a closed ledger (crash paths)
    txn_commits: int = 0        # writer commits replayed (ledger re-checked)
    version_replays: int = 0    # crash-recovery version scans replayed

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        head = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (f"audit {head}: {self.events} events, {self.checks} invariant "
                f"checks, stages opened={self.stages_opened} "
                f"closed={self.stages_closed} dropped={self.stages_dropped}")


def _normalize(ev: TraceLike) -> Tuple[str, int, Dict[str, Any]]:
    if isinstance(ev, dict):
        return ev["kind"], ev.get("query_id", -1), ev
    return ev.kind, ev.query_id, ev.data


class WeightLedgerAuditor:
    """Replays a trace and re-derives the progression-weight ledger.

    Accepts any iterable of :class:`TraceEvent` objects
    (``recorder.events``) or plain dicts (a re-read JSONL dump, or a
    generator parsing one line by line) and reads it once, holding no copy
    — so a one-shot iterator audits once. The audit is independent of the
    engine's own :class:`~repro.core.progress.ProgressTracker`: it
    reconstructs each stage's ledger purely from kernel exec events,
    reclaim events and crash losses, and separately sums what the tracker
    was told, then checks

    * ``active + finished + reclaimed + lost ≡ ROOT_WEIGHT`` after every
      ledger-touching event (Theorem 1, extended with the reclamation and
      fault terms of PR2/PR3);
    * scalar exec events conserve weight exactly: ``w_in = w_out + w_fin``;
    * each stage's seed weights sum to the root weight;
    * at ``stage_close(terminated|cancelled)``: no active weight survives
      *and* the tracker independently received exactly the root weight;
    * coalesced weight is conserved through both tiers: every
      ``node_coalesce`` fold carries the sum of its inputs (checked at the
      fold), and at a clean close the stage's ``weight_flush`` events, less
      the reports its folds removed, equal the tracker's weight reports in
      sum and in number;
    * results are complete where partials ride weight reports: every
      partial a ``stage_close`` combined is its partition's highest
      ``partial_ship`` version, every partition that shipped is combined,
      and that version counts every traverser the partition executed at an
      op writing the barrier's partial — none is later than its last ship;
    * no exec on a never-opened (or already-closed) stage, no reopen, and
      no stage left open at end of trace;
    * transaction-plane events are ledger-neutral: every open ledger still
      conserves the root weight across a writer commit and across a
      crash-recovery version scan (Theorem 1 is untouched by interleaved
      writers), and commit timestamps are strictly monotonic;
    * snapshot isolation: a query pins at most the last committed
      timestamp (``snapshot_pin.ts`` never exceeds the LCT implied by the
      ``txn_commit`` prefix), and no exec event cites a served version
      (``version_ts``) newer than its query's pinned snapshot.

    Naive-central traces carry no weight ledger and are rejected.
    """

    def __init__(self, events: Iterable[TraceLike]) -> None:
        self._events = events

    def audit(self) -> AuditReport:
        """Replay the trace once and return the :class:`AuditReport`."""
        rep = AuditReport()
        stages: Dict[Tuple[int, int], _StageLedger] = {}
        pins: Dict[int, int] = {}  # query -> pinned snapshot timestamp
        lct_seen = 0               # LCT implied by the txn_commit prefix
        # Only a coalescing run's weight reports all stem from weight_flush
        # events; the run_config header says whether this is one.
        coalesced = False

        def violate(i: int, msg: str) -> None:
            rep.violations.append(f"event {i}: {msg}")

        def check(i: int, key: Tuple[int, int], st: _StageLedger) -> None:
            rep.checks += 1
            total = normalize_weight(
                st.active + st.finished + st.reclaimed + st.lost)
            if total != ROOT_WEIGHT:
                violate(i, f"stage {key}: active+finished+reclaimed+lost "
                           f"= {total} != {ROOT_WEIGHT} (mod |G|)")

        for i, raw in enumerate(self._events):
            kind, qid, data = _normalize(raw)
            rep.events += 1

            if kind == RUN_CONFIG:
                mode = str(data.get("mode", ""))
                if mode.startswith("naive"):
                    raise ValueError(
                        "naive-central traces carry no weight ledger; "
                        "audit requires a weighted progress mode")
                coalesced = mode == ProgressMode.WEIGHTED_COALESCED.value

            elif kind == STAGE_OPEN:
                key = (qid, data["stage"])
                if key in stages:
                    violate(i, f"stage {key} opened twice")
                stages[key] = _StageLedger()
                rep.stages_opened += 1

            elif kind == SEED_DISPATCH:
                seeded = normalize_weight(data["weight"])
                if seeded != ROOT_WEIGHT:
                    violate(i, f"stage ({qid}, {data['stage']}) seeds carry "
                               f"weight {seeded}, not the root "
                               f"weight {ROOT_WEIGHT}")

            elif kind == EXEC:
                key = (qid, data["stage"])
                st = stages.get(key)
                if st is None:
                    violate(i, f"exec on unopened/closed stage {key}")
                    continue
                site = (data.get("pid"), data.get("op_idx"))
                st.execs[site] = st.execs.get(site, 0) + data.get("n", 1)
                w_fin = data["w_fin"]
                st.active = sub_weights(st.active, w_fin)
                st.finished = add_weights(st.finished, w_fin)
                if "w_out" in data and sub_weights(
                        data["w_out"] + w_fin, data["w_in"]):
                    violate(i, f"stage {key}: split does not conserve "
                               f"weight (w_in={data['w_in']}, "
                               f"w_out={data['w_out']}, w_fin={w_fin})")
                if "version_ts" in data:
                    pin = pins.get(qid)
                    if pin is not None and data["version_ts"] > pin:
                        violate(i, f"query {qid} exec cites version "
                                   f"{data['version_ts']} newer than its "
                                   f"pinned snapshot {pin}")
                check(i, key, st)

            elif kind == WEIGHT_FLUSH:
                st = stages.get((qid, data["stage"]))
                if st is not None:
                    st.flushed = add_weights(st.flushed, data["weight"])
                    st.flushed_n += 1

            elif kind == PARTIAL_SHIP:
                st = stages.get((qid, data["stage"]))
                if st is not None:
                    st.ships[data["pid"]] = max(
                        data["version"], st.ships.get(data["pid"], 0))

            elif kind == NODE_COALESCE:
                key = (qid, data["stage"])
                inputs = data["inputs"]
                rep.checks += 1
                if len(inputs) != data["n"] or data["n"] < 2:
                    violate(i, f"stage {key}: fold at node {data['node']} "
                               f"claims n={data['n']} inputs but lists "
                               f"{len(inputs)}")
                if sub_weights(sum(inputs), data["weight"]):
                    violate(i, f"stage {key}: fold at node {data['node']} "
                               f"does not conserve weight (inputs sum to "
                               f"{normalize_weight(sum(inputs))}, folded "
                               f"report carries {data['weight']})")
                st = stages.get(key)
                if st is not None:
                    # the fold's output is the one report left of its n
                    # inputs; a stage closed meanwhile ignores it anyway
                    st.flushed_n -= data["n"] - 1

            elif kind == ACCUM_RECLAIM:
                # Finished weight drained from an unflushed coalescing
                # accumulator: it never reached the tracker, and the worker
                # purge re-reports it through the reclaim funnel — move it
                # back to active so the reclaim event below balances.
                key = (qid, data["stage"])
                st = stages.get(key)
                if st is not None:
                    w = data["weight"]
                    st.finished = sub_weights(st.finished, w)
                    st.active = add_weights(st.active, w)
                    check(i, key, st)

            elif kind == RECLAIM:
                if not data.get("reported", False):
                    continue  # an eviction's fenced form: no ledger effect
                key = (qid, data["stage"])
                st = stages.get(key)
                if st is None:
                    continue  # late reclaim; the tracker ignores it too
                w = data["weight"]
                st.active = sub_weights(st.active, w)
                st.reclaimed = add_weights(st.reclaimed, w)
                st.tracker_sum = add_weights(st.tracker_sum, w)
                check(i, key, st)

            elif kind == CRASH_LOSS:
                key = (qid, data["stage"])
                st = stages.get(key)
                if st is not None:
                    w = data["weight"]
                    st.active = sub_weights(st.active, w)
                    st.lost = add_weights(st.lost, w)
                    check(i, key, st)

            elif kind == TRACKER_REPORT:
                if data.get("tag") != "weight":
                    continue
                st = stages.get((qid, data["stage"]))
                if st is not None:
                    st.tracker_sum = add_weights(st.tracker_sum, data["value"])
                    st.reported_n += 1

            elif kind == STAGE_CLOSE:
                key = (qid, data["stage"])
                st = stages.pop(key, None)
                reason = data.get("reason", "")
                if reason in _CLOSED_REASONS:
                    if st is None:
                        violate(i, f"stage {key} closed ({reason}) but was "
                                   f"never opened")
                        continue
                    if st.active:
                        violate(i, f"stage {key} closed ({reason}) with "
                                   f"active weight {st.active} outstanding")
                    if st.lost:
                        violate(i, f"stage {key} closed ({reason}) despite "
                                   f"crash-lost weight {st.lost}")
                    if st.tracker_sum != ROOT_WEIGHT:
                        violate(i, f"stage {key} closed ({reason}) but the "
                                   f"tracker received {st.tracker_sum}, not "
                                   f"the root weight {ROOT_WEIGHT}")
                    # reclaims reach tracker_sum too; the rest of it is
                    # what the weight reports carried
                    reported = sub_weights(st.tracker_sum, st.reclaimed)
                    if coalesced and (st.flushed != reported
                                      or st.flushed_n != st.reported_n):
                        violate(i, f"stage {key} closed ({reason}) but its "
                                   f"workers flushed {st.flushed} in "
                                   f"{st.flushed_n} report(s) after node "
                                   f"folds and the tracker's weight reports "
                                   f"carried {reported} in {st.reported_n}")
                    if "versions" in data:
                        rep.checks += 1
                        combined = dict(map(tuple, data["versions"]))
                        if combined != st.ships:
                            violate(i, f"stage {key} combined partial "
                                       f"versions {combined}, not the "
                                       f"highest shipped ones {st.ships}")
                        for pid, version in combined.items():
                            wrote = sum(n for (p, op), n in st.execs.items()
                                        if p == pid and op in data["writers"])
                            if wrote != version:
                                violate(i, f"stage {key} combined version "
                                           f"{version} of partition {pid}, "
                                           f"which wrote its partial {wrote} "
                                           f"times: a write is later than "
                                           f"its last ship")
                    rep.stages_closed += 1
                else:
                    # cancel_forced: a crash destroyed the cancelling
                    # query's weight; the ledger never closes and the
                    # teardown below accounts for the remains. stage=-1
                    # marks a forced finalize with no ledger attached —
                    # the query's open stages are dropped by its
                    # teardown QUERY_CLOSE, so counting here would
                    # double-book the drop.
                    if st is not None:
                        rep.stages_dropped += 1

            elif kind == SNAPSHOT_PIN:
                ts = data["ts"]
                if ts > lct_seen:
                    violate(i, f"query {qid} pinned snapshot {ts} beyond "
                               f"the last committed timestamp {lct_seen} "
                               f"(uncommitted/future version exposed)")
                pins[qid] = ts

            elif kind == TXN_COMMIT:
                commit_ts = data["commit_ts"]
                if commit_ts <= lct_seen:
                    violate(i, f"txn commit_ts {commit_ts} not strictly "
                               f"monotonic (LCT already {lct_seen})")
                lct_seen = commit_ts
                rep.txn_commits += 1
                # Writers are ledger-neutral: a commit moves versions, never
                # traversal weight — re-assert every open ledger at the
                # commit point (Theorem 1 under writer interleavings).
                for key, st in stages.items():
                    check(i, key, st)

            elif kind == VERSION_REPLAY:
                # Recovery's version scan discards torn (post-LCT) versions;
                # it must leave every open traversal ledger untouched.
                rep.version_replays += 1
                for key, st in stages.items():
                    check(i, key, st)

            elif kind == QUERY_CLOSE:
                for key in [k for k in stages if k[0] == qid]:
                    del stages[key]
                    rep.stages_dropped += 1

        for key in sorted(stages):
            rep.violations.append(
                f"end of trace: stage {key} still open (no stage_close or "
                f"query_close event)")
        return rep
