"""The trace store (docs/OBSERVABILITY.md, "The store"): one flat row per
event keyed by ``KIND_FIELDS``, sealed every ``CHUNK_EVENTS`` events into
per-kind typed columns and compressed, read back through
``recorder.events`` one decoded chunk at a time.

Five contracts:

* **schema** — every emit site hands its values in the declared order
  (the sites are positional, so a swapped pair would land in the wrong
  field silently): across the fault / overload / checkpoint / preempt /
  transaction scenarios, on both kernels, every declared kind is emitted
  and every field holds a value of its declared domain;
* **round trip** — whatever is emitted reads back with its exact type and
  value, wherever the chunk boundaries fall, through every access path;
* **reading is free** — no read path grows the store or keeps a decoded
  chunk;
* **export equivalence** — a JSONL dump streamed back through the auditor
  gives the in-memory report, and ``repro trace --replay`` round-trips;
* **footprint** — bytes retained per recorded event stay under the guard,
  and ``TraceRecorder.nbytes`` tracks what ``tracemalloc`` measures.
"""

from __future__ import annotations

import gc
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import weight
from repro.datasets.synthetic import powerlaw_graph
from repro.graph.partition import PartitionedGraph
from repro.ldbc.generator import SNB_TINY, generate_snb
from repro.ldbc.queries import IC_QUERIES, IS_QUERIES
from repro.query.traversal import Traversal
from repro.runtime import trace
from repro.runtime.bsp import BSPEngine
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.simclock import SimClock
from repro.runtime.trace import (
    ABSENT,
    EXEC,
    KIND_FIELDS,
    LIFECYCLE,
    MSG_SEND,
    NODE_COALESCE,
    STAGE_OPEN,
    TRACKER_REPORT,
    TraceRecorder,
    WeightLedgerAuditor,
)
from tests import test_checkpoint as ck
from tests import test_trace_audit as fuzz
from tests.conftest import (
    KERNELS,
    khop3_count,
    make_graph,
    random_graph,
    run_batch,
)

#: bytes retained per sealed event on the IC+IS batch below: 11.0 over
#: its four sealed chunks (10.5 / 11.9 / 11.9 at three, five and six
#: rounds; 12.0 before every aggregate was absorbed inline). Over the
#: whole store the mean moves with how full the unsealed tail happens to
#: be (31.4 / 37.5 / 20.4 / 20.9 B/event at three to six rounds); measured
#: that way, compressed chunks read 23.5, the uncompressed column chunks
#: before them 49.0, the flat-row store 202.1, the object + kwargs-dict
#: store 365
FOOTPRINT_GUARD_BYTES = 30

#: bytes per event of the unsealed tail, which keeps its rows flat and
#: boxed until they fill a chunk: 139.5-147.3 at three to six rounds
TAIL_GUARD_BYTES = 200


# -- schema ------------------------------------------------------------------


def _count(v):
    return type(v) is int and v >= 0


def _weight(v):
    # read at call time: a test that narrows the group narrows the domain
    return type(v) is int and 0 <= v < weight.GROUP_MODULUS


def _text(v):
    return type(v) is str


def _flag(v):
    return type(v) is bool


def _micros(v):
    return type(v) in (int, float) and v >= 0


#: field name -> domain; a field not listed is a count (a non-negative int)
DOMAINS = {
    "mode": _text, "kernel": _text, "site": _text, "tag": _text,
    "fault": _text,
    "reason": lambda v: v is None or _text(v),
    "reported": _flag, "fenced": _flag, "forced": _flag,
    "cpu": _micros, "wait_us": _micros,
    "down_us": lambda v: v is None or _micros(v),
    "stage": lambda v: type(v) is int and v >= -1,   # -1: no ledger attached
    "pid": lambda v: type(v) is int and v >= -1,     # -1: every partition
    "w_in": _weight, "w_fin": _weight, "w_out": _weight,
    "value": lambda v: type(v) is int,               # a weight, or a ±delta
    "weight": _weight,
    "inputs": lambda v: type(v) is tuple and all(map(_weight, v)),
    # stage_close: the (pid, version) pairs combined; the writing op indexes
    "versions": lambda v: type(v) is tuple and all(
        type(p) is tuple and len(p) == 2 and all(map(_count, p)) for p in v),
    "writers": lambda v: type(v) is tuple and all(map(_count, v)),
}
#: lifecycle edges name states where the network kinds name nodes
KIND_DOMAINS = {LIFECYCLE: {"src": _text, "dst": _text}}


def _scenarios(kernel):
    """Traced engines that between them fire every plane."""
    for seed in (100, 104):  # faults, cancels, preempts, checkpoints
        yield fuzz.fuzz_run(seed, kernel)
    graph = make_graph(4)
    # worker crash: destroyed weight, retry under a fresh id
    yield run_batch(graph, khop3_count(graph), [{"s": v} for v in range(6)],
                    EngineConfig(
                        trace=True, kernel=kernel,
                        fault_plan=FaultPlan(seed=2, worker_faults=(
                            WorkerFault(wid=1, at_us=40.0, kind="crash",
                                        down_us=500.0),))))[0]
    # crash past a stage boundary: restored from the checkpoint
    ck_graph = PartitionedGraph.from_graph(
        powerlaw_graph(ck.GRAPH_CFG, seed=ck.GRAPH_SEED), ck.NODES * ck.WPN)
    after = ck.crash_instants(ck_graph)["after"]
    yield ck.run_ck(ck_graph, ck.two_stage_plan(ck_graph), kernel=kernel,
                    checkpoint=True, crashes=((2, after),))[0]
    # tight inbox credits: senders stall
    yield run_batch(graph, khop3_count(graph), [{"s": 3}, {"s": 7}],
                    EngineConfig(trace=True, kernel=kernel, inbox_capacity=8,
                                 batch_size=8))[0]
    # writers beside readers, a crash (version replay), and one abort
    txn = fuzz.TestTransactionPlaneAudit().txn_fuzz_run(100, kernel, crash=True)
    txn.txnplane.schedule_update(
        txn.clock.now + 1.0, lambda m: m.abort(m.begin(), "test"),
        label="abort", service_us=0.0)
    txn.clock.run_until_idle()
    yield txn


#: a width narrow enough that a site reducing in its own 2^64 group
#: leaves a traced weight out of range
NARROW_BITS = 32


def _traced_bsp_khop_count():
    graph = random_graph(n=120, degree=4, partitions=4, seed=2)
    engine = BSPEngine(graph, 2, 2, config=EngineConfig(name="bsp", trace=True))
    engine.run(Traversal("k").v_param("s").khop("knows", k=3).count()
               .compile(graph), {"s": 7})
    return engine


@pytest.mark.parametrize("kernel,bits", [
    *((k, weight.WEIGHT_BITS) for k in KERNELS),
    *((k, NARROW_BITS) for k in KERNELS),
], ids=[*KERNELS, *(f"{k}-{NARROW_BITS}bits" for k in KERNELS)])
def test_every_site_emits_its_kind_schema(kernel, bits, monkeypatch):
    """Every traced event carries its kind's declared fields, each in its
    domain, and each trace's weight ledger balances. Narrowing the group
    in ``repro.core.weight`` alone narrows every traced weight with it."""
    monkeypatch.setattr(weight, "WEIGHT_BITS", bits)
    monkeypatch.setattr(weight, "GROUP_MODULUS", 1 << bits)
    seen = set()
    for engine, engine_kernel in (
            *((e, kernel) for e in _scenarios(kernel)),
            (_traced_bsp_khop_count(), "run")):  # BSP drains by the run kernel
        for ev in engine.trace.events:
            seen.add(ev.kind)
            declared = KIND_FIELDS[ev.kind]
            names = tuple(ev.data)
            # payload keys are a subsequence of the declared fields
            it = iter(declared)
            assert all(name in it for name in names), (ev.kind, names)
            domains = KIND_DOMAINS.get(ev.kind, {})
            for name, value in ev.data.items():
                ok = domains.get(name) or DOMAINS.get(name, _count)
                assert ok(value), (ev.kind, name, value)
            if ev.kind == EXEC:  # only the scalar kernel reports w_out
                assert ("w_out" in ev.data) == (engine_kernel == "scalar")
            if ev.kind == TRACKER_REPORT and ev.data["tag"] == "weight":
                assert _weight(ev.data["value"]), ev.data
        report = WeightLedgerAuditor(engine.trace.events).audit()
        assert report.ok, report.violations[:5]
        assert report.stages_closed > 0
    assert seen == set(KIND_FIELDS), set(KIND_FIELDS) - seen


def test_emit_rejects_undeclared_kinds_and_overlong_rows():
    rec = TraceRecorder(SimClock())
    with pytest.raises(KeyError):
        rec.emit("no_such_kind", 0, 1)
    with pytest.raises(ValueError, match="stage_open"):
        rec.emit(STAGE_OPEN, 0, 1, 2, 3)
    assert len(rec) == 0


def test_events_is_a_sequence_of_fresh_views():
    rec = TraceRecorder(SimClock(), "weighted+wc")
    rec.emit(STAGE_OPEN, 5, 0)
    rec.emit(EXEC, 5, 1, 2, 0, 3, 4, 5, 6, 7, ABSENT, 0.5)
    rec.emit(MSG_SEND, -1, 0, 1, 2, 64)
    events = rec.events
    assert len(events) == 4 and [e.kind for e in events[1:]] == [
        STAGE_OPEN, EXEC, MSG_SEND]
    assert events[-1].data == {"src": 0, "dst": 1, "n": 2, "bytes": 64}
    assert events[0].as_dict() == {
        "ts": 0.0, "kind": "run_config", "query_id": -1, "mode": "weighted+wc"}
    # an unset field is absent, not null — mid-row or trailing
    assert list(events[2].data) == [
        "pid", "wid", "stage", "op_idx", "n", "spawned", "w_in", "w_fin", "cpu"]
    assert events[1].data == {"stage": 0}
    # a view is the reader's own: editing it cannot doctor the record
    events[1].data["stage"] = 9
    assert events[1].data == {"stage": 0}


# -- round trip --------------------------------------------------------------

#: what one field of one kind holds; a field draws from one or two, so
#: columns come out typed as well as mixed
VALUE_DOMAINS = (
    st.integers(-128, 127),
    st.integers(-2**63, 2**64 - 1),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70, -2**63,
                     -2**63 - 1, 0, 1, -1]),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.tuples(st.integers(0, 2**64 - 1), st.booleans()),
    st.just(ABSENT),
)
STAMPS = st.one_of(st.floats(0, 1e9), st.integers(0, 10**6))


@st.composite
def emitted(draw):
    """``(ts, kind, query_id, values)`` per event, trailing fields
    sometimes omitted."""
    kinds = draw(st.lists(st.sampled_from(sorted(KIND_FIELDS)), min_size=1,
                          max_size=4, unique=True))
    domains = {
        (kind, i): st.one_of(*draw(st.lists(
            st.sampled_from(VALUE_DOMAINS), min_size=1, max_size=2)))
        for kind in kinds for i in range(len(KIND_FIELDS[kind]))
    }
    out = []
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(kinds))
        width = draw(st.sampled_from([len(KIND_FIELDS[kind])] * 3 + list(
            range(len(KIND_FIELDS[kind])))))
        out.append((draw(STAMPS), kind, draw(st.integers(-1, 3)), tuple(
            draw(domains[kind, i]) for i in range(width))))
    return out


def _exact(ev):
    """An event as a comparable key that tells ``True`` from ``1``, ``1.0``
    from ``1`` and ``-0.0`` from ``0.0``, nested in tuples too."""
    return (ev.kind, type(ev.ts), repr(ev.ts), type(ev.query_id),
            ev.query_id, [(name, type(v), repr(v))
                          for name, v in ev.data.items()])


class _Clock:
    now = 0.0


def _record(events, chunk):
    """A recorder sealing every ``chunk`` events, holding ``events``."""
    clock = _Clock()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "CHUNK_EVENTS", chunk)
        rec = TraceRecorder(clock)
        for ts, kind, qid, values in events:
            clock.now = ts
            rec.emit(kind, qid, *values)
    return rec


def _assert_reads_back(rec, events, data):
    """Every access path reads ``events`` back exactly; indexes and slices
    drawn from ``data``."""
    read = list(rec.events)
    assert list(map(_exact, read)) == [
        (kind, type(ts), repr(ts), int, qid,
         [(name, type(v), repr(v)) for name, v in zip(KIND_FIELDS[kind], values)
          if v is not ABSENT])
        for ts, kind, qid, values in events]
    assert len(rec) == len(rec.events) == len(events)
    assert rec.nbytes > 0
    if read:
        for i in data.draw(st.lists(st.integers(-len(read), len(read) - 1),
                                    max_size=8)):
            assert _exact(rec.events[i]) == _exact(read[i])
    bound = st.none() | st.integers(-len(read) - 2, len(read) + 2)
    for _ in range(4):
        cut = slice(data.draw(bound), data.draw(bound),
                    data.draw(st.sampled_from([None, 1, 2, 3, -1, -2, -5])))
        assert list(map(_exact, rec.events[cut])) == list(
            map(_exact, read[cut])), cut
    for kind in sorted(KIND_FIELDS)[:3] + sorted({e[1] for e in events}):
        assert list(map(_exact, rec.by_kind(kind))) == [
            _exact(e) for e in read if e.kind == kind]
    for qid in range(-1, 5):
        assert list(map(_exact, rec.for_query(qid))) == [
            _exact(e) for e in read if e.query_id == qid]
    return read


@settings(max_examples=150, deadline=None)
@given(events=emitted(), chunk=st.integers(1, 7), data=st.data())
def test_every_value_reads_back_exactly_across_chunks(events, chunk, data):
    _assert_reads_back(_record(events, chunk), events, data)


#: values a field of the real-size round trip draws its pool from
WIDE_VALUES = (
    st.integers(-128, 127),
    st.integers(-2**63, 2**64 - 1),
    st.sampled_from([2**64 - 1, 2**64, 2**64 + 1, 2**70, -2**63 - 1]),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([0.0, -0.0, math.nan]),
    st.booleans(),
    st.none(),
    st.text(min_size=2, max_size=4),
    st.tuples(st.integers(0, 2**64 - 1), st.booleans()),
    st.just(ABSENT),
)
#: pools the fields named in the store's exactness notes always draw from:
#: a field no event sets, and the two mixed tuple columns
PINNED_POOLS = {
    (EXEC, "w_out"): st.just([ABSENT]),
    (EXEC, "version_ts"): st.lists(
        st.integers(0, 2**64) | st.just(ABSENT), min_size=2, max_size=6),
    (NODE_COALESCE, "inputs"): st.lists(
        st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=4).map(tuple)
        | st.just(ABSENT), min_size=2, max_size=6),
}


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(chunk=st.integers(512, 4096), chunks=st.integers(2, 4),
       kinds=st.lists(st.sampled_from(sorted(KIND_FIELDS)), max_size=4,
                      unique=True),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_value_reads_back_exactly_at_the_real_chunk_size(
        chunk, chunks, kinds, seed, data):
    """The round trip with chunks of hundreds to thousands of events, so
    the codec sees the columns a run seals: each field draws its values
    from a small pool, which repeats objects the way emit sites do."""
    kinds = sorted({EXEC, NODE_COALESCE, *kinds})
    pools = {}
    for kind in kinds:
        for name in KIND_FIELDS[kind]:
            pool = PINNED_POOLS.get((kind, name))
            if pool is None:
                pool = st.lists(st.one_of(*data.draw(st.lists(
                    st.sampled_from(WIDE_VALUES), min_size=1, max_size=2))),
                    min_size=1, max_size=5)
            pools[kind, name] = data.draw(pool)
    rng = random.Random(seed)
    events = []
    for _ in range(chunk * chunks + rng.randrange(chunk)):
        kind = rng.choice(kinds)
        names = KIND_FIELDS[kind]
        width = rng.choice([len(names)] * 3 + list(range(len(names))))
        events.append((rng.choice([rng.random() * 1e9, rng.randrange(10**6)]),
                       kind, rng.randrange(-1, 4),
                       tuple(rng.choice(pools[kind, name])
                             for name in names[:width])))
    rec = _record(events, chunk)
    assert len(rec._chunks) >= chunks
    read = _assert_reads_back(rec, events, data)
    # a string emitted as one object reads back as one object in its chunk
    same = {}
    for i, ((_, kind, _, values), ev) in enumerate(zip(events, read)):
        for name, value in zip(KIND_FIELDS[kind], values):
            if type(value) is str:
                got = ev.data[name]
                assert same.setdefault((i // chunk, id(value)), got) is got


# -- reading is free ---------------------------------------------------------


def _decoded_bytes(chunk):
    """What one sealed chunk takes once decoded, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        columns = chunk.decode()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        del columns


def test_reading_never_grows_the_store(monkeypatch):
    # the run leaves ~2 450 events: six or more sealed chunks
    monkeypatch.setattr(trace, "CHUNK_EVENTS", 384)
    rec = fuzz.fuzz_run(100, "run", queries=14).trace
    n, stored = len(rec), rec.nbytes
    assert len(rec._chunks) >= 6
    one = [_decoded_bytes(chunk) for chunk in rec._chunks]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in rec.events:
            pass
        for i in (0, n - 1, 700, 5, -1, -n, 2000, 100, n // 2, 1):
            rec.events[i]
        rec.events[100:n:7], rec.events[::-3], rec.events[-600:-1]
        rec.by_kind(EXEC), rec.for_query(2)
        assert WeightLedgerAuditor(rec.events).audit().ok
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rec.nbytes == stored
    # no decoded chunk outlives its read; what is left is allocator churn
    assert not [o for o in gc.get_objects() if type(o) is trace._Columns]
    assert retained < min(one), (retained, one)


# -- export equivalence ------------------------------------------------------


def _stream(path):
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["kind"] != "run_metrics":
                yield record


def test_streamed_dump_audits_like_the_live_trace(tmp_path):
    engine = fuzz.fuzz_run(103, "run")
    path = tmp_path / "trace.jsonl"
    engine.trace.dump_jsonl(str(path), metrics=engine.metrics)
    live = WeightLedgerAuditor(engine.trace.events).audit()
    streamed = WeightLedgerAuditor(_stream(path)).audit()  # a generator
    assert live.ok and live.events == len(engine.trace) > 0
    assert streamed == live


@pytest.mark.parametrize("workload", ["khop3", "ic9"])
def test_cli_dump_replays_identical(workload, tmp_path, capsys):
    path = str(tmp_path / f"{workload}.jsonl")
    assert main(["trace", "--workload", workload, "--queries", "4",
                 "--out", path]) == 0
    assert "B/event)" in capsys.readouterr().out
    assert main(["trace", "--replay", path]) == 0
    assert "replay IDENTICAL" in capsys.readouterr().out


# -- footprint ---------------------------------------------------------------


def _retained(graph, batch, trace):
    """Bytes still allocated after running ``batch``, engine alive."""
    gc.collect()
    tracemalloc.start()
    try:
        engine = AsyncPSTMEngine(graph, 4, 2, config=EngineConfig(trace=trace))
        for plan, params in batch:
            engine.submit(plan, params)
        engine.clock.run_until_idle()
        gc.collect()
        return tracemalloc.get_traced_memory()[0], engine
    finally:
        tracemalloc.stop()


def test_footprint_per_event_stays_under_the_guard():
    """The spine's read mix in miniature: what a traced run retains beyond
    the same run untraced. The batch is the fewest rounds (each IC once,
    each IS six times) whose run seals four chunks. Sealed events and the
    unsealed tail are bounded apart: the tail, up to a chunk of flat rows,
    costs over ten times a sealed event, so a mean over both moves with how
    full the tail is when the run ends."""
    dataset = generate_snb(SNB_TINY)
    graph = dataset.partitioned(8)
    batch = []
    for table, per_type in ((IC_QUERIES, 4), (IS_QUERIES, 24)):
        for num in sorted(table):
            plan = table[num].build().compile(graph)
            batch += [(plan, table[num].make_params(dataset,
                                                    random.Random(900 + i)))
                      for i in range(per_type)]
    _retained(graph, batch, False)  # warm caches the first run fills
    untraced, _ = _retained(graph, batch, False)
    traced, engine = _retained(graph, batch, True)
    events = len(engine.trace)
    per_event = (traced - untraced) / events
    tail = engine.trace._tail
    tail_events, tail_bytes = len(tail.codes), tail.nbytes
    assert events >= 4 * trace.CHUNK_EVENTS
    sealed = (traced - untraced - tail_bytes) / (events - tail_events)
    assert sealed <= FOOTPRINT_GUARD_BYTES, sealed
    assert tail_bytes <= TAIL_GUARD_BYTES * max(tail_events, 1), tail_bytes
    # the store's own estimate is that measurement, without tracemalloc
    assert engine.trace.nbytes / events == pytest.approx(per_event, rel=0.1)
