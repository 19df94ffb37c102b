"""The one file of the spine benchmark that imports ``repro``.

Everything the benchmark holds still in the system under test is named
here (and listed in README.md, "Pinned surface"): a refactor that keeps
these names importable with the same meaning keeps the benchmark — and so
the performance trajectory — comparable. Nothing comes from ``repro.bench``
or ``repro.cli``.

The benchmark is started as ``python3 benchmarks/spine/run.py`` from the
root of a checkout, without ``PYTHONPATH``; the checkout's own ``src/`` is
put first on ``sys.path`` here so an installed copy can never be measured
by mistake.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
_SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise SystemExit(
        f"spine benchmark: {_SRC} holds no 'repro' package; there is no "
        f"program to measure"
    )
if sys.path[0] != _SRC:
    sys.path.insert(0, _SRC)

from repro import (  # noqa: E402
    ClusterConfig,
    EngineConfig,
    LocalExecutor,
    PartitionedGraph,
    Traversal,
    make_graphdance,
)
from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph  # noqa: E402
from repro.ldbc import (  # noqa: E402
    IC_QUERIES,
    IS_QUERIES,
    SNB_SF300_SIM,
    UP_QUERIES,
    WorkloadConfig,
    build_schedule,
    generate_snb,
)
from repro.query.exprs import X  # noqa: E402
from repro.runtime import WeightLedgerAuditor  # noqa: E402

__all__ = [
    "ClusterConfig",
    "EngineConfig",
    "IC_QUERIES",
    "IS_QUERIES",
    "LocalExecutor",
    "PartitionedGraph",
    "PowerLawConfig",
    "ROOT",
    "SNB_SF300_SIM",
    "Traversal",
    "UP_QUERIES",
    "WeightLedgerAuditor",
    "WorkloadConfig",
    "X",
    "build_schedule",
    "generate_snb",
    "make_graphdance",
    "powerlaw_graph",
]
