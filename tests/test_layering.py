"""The runtime layering contract, enforced in tier-1 (and again in CI).

``tools/check_layering.py`` is the single source of truth for the layer
order, the module size budgets and the stdlib-only import rule; this test
just runs it so a layering regression fails the ordinary test suite, not
only the CI job. The no-NumPy test checks the same promise at run time.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: builds a partitioned graph and runs a k-hop count and an
#: expand/dedup query through the public API, then reports whether any
#: module of the run pulled NumPy in
NO_NUMPY_SNIPPET = """
import sys
import repro
from repro import ClusterConfig, GraphBuilder, Traversal, make_graphdance
b = GraphBuilder("v")
for v in range(200):
    b.vertex(v, "v", weight=v % 7)
for v in range(200):
    for k in (1, 3, 17):
        b.edge(v, (v * k + 11) % 200, "e")
cluster = ClusterConfig(nodes=2, workers_per_node=2)
graph = cluster.partition(b.build())
engine = make_graphdance(graph, cluster)
khop = Traversal("k").v_param("s").khop("e", k=3).count().compile(graph)
wide = Traversal("w").v_param("s").out("e").out("e").dedup().count().compile(graph)
rows = [engine.run(plan, {"s": 5}).rows for plan in (khop, wide)]
assert all(rows), rows
print("numpy" in sys.modules)
"""


def test_runtime_layering_and_size_budgets():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_layering.py")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_worker_does_not_import_engine_at_runtime():
    """The satellite gate, stated directly: worker.py has no runtime
    import of the engine or the delivery plane — workers reach both only
    through the engine object handed to them (composition flows
    downward). TYPE_CHECKING imports are fine; typing is not a runtime
    dependency."""
    sys.path.insert(0, str(REPO / "tools"))
    try:
        from check_layering import runtime_imports
    finally:
        sys.path.pop(0)
    worker = REPO / "src" / "repro" / "runtime" / "worker.py"
    targets = {mod for _lineno, mod in runtime_imports(worker)}
    assert "engine" not in targets
    assert "delivery" not in targets


def test_running_an_engine_never_imports_numpy():
    """The package declares no runtime dependencies; an installed NumPy
    must stay unimported (it alone would add ~13 MB of peak RSS)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SNIPPET],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "False"


def test_scalar_apply_rule_tells_operators_from_other_apply_calls():
    """The single-path rule flags an operator's scalar ``apply`` (by its
    receiver or its step-context argument) and leaves the update and
    strategy ``apply`` methods alone."""
    import ast

    sys.path.insert(0, str(REPO / "tools"))
    try:
        from check_layering import scalar_apply_calls
    finally:
        sys.path.pop(0)
    flagged = [
        "outcome = op.apply(ctx, trav)",
        "session.plan.ops[trav.op_idx].apply(ctx, trav)",
        "self.exit_op.apply(c, t)",
        "runner.apply(session.context(pid), trav)",
        "thing.apply(ctx, trav)",
    ]
    ignored = [
        "udef.apply(txm, arrival.params)",
        "steps = strategy.apply(steps, graph)",
        "apply(ctx, trav)",
    ]
    for source in flagged:
        assert list(scalar_apply_calls(ast.parse(source))) == [1], source
    for source in ignored:
        assert list(scalar_apply_calls(ast.parse(source))) == [], source


def test_weight_group_rule_tells_group_arithmetic_from_other_64_bit_code():
    """The weight-group rule flags the group order, the width constant, a
    raw bit draw and a literal ``2^64`` modulus, and leaves the trace
    store's typecode bound and the placement hash's mask alone."""
    sys.path.insert(0, str(REPO / "tools"))
    try:
        from check_layering import weight_group_lines
    finally:
        sys.path.pop(0)
    flagged = [
        "from repro.core.weight import GROUP_MODULUS",
        "return weight % GROUP_MODULUS, n",
        "parts = [rng.getrandbits(64) for _ in range(n - 1)]",
        "draw = rng.getrandbits",
        "bits = weight.WEIGHT_BITS",
        "total = sum(inputs) % (1 << 64)",
        "w %= 2 ** 64",
    ]
    ignored = [
        'return "Q" if lo >= 0 and hi < 1 << 64 else None',
        "_MASK64 = 0xFFFFFFFFFFFFFFFF",
        "x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF",
        "weight = normalize_weight(sum(inputs))",
        "st.active = sub_weights(st.active, w)",
        "pid = key % num_buckets",
    ]
    for source in flagged:
        assert list(weight_group_lines(source)) == [1], source
    for source in ignored:
        assert list(weight_group_lines(source)) == [], source
    assert list(weight_group_lines("\n".join(ignored + flagged[:1]))) == [
        len(ignored) + 1]
