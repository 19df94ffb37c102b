"""PSTM core: traversers, weights, memos, operators, progress tracking."""

from repro.core.machine import ExecResult, PSTMMachine, resolve_partition
from repro.core.memo import MemoStore, QueryMemo
from repro.core.progress import ProgressMode, ProgressTracker
from repro.core.subquery import StageCursor, gather_partials
from repro.core.traverser import Traverser, make_root
from repro.core.weight import (
    ROOT_WEIGHT,
    WeightAccumulator,
    WeightLedger,
    add_weights,
    split_weight,
    sub_weights,
)

__all__ = [
    "ExecResult",
    "MemoStore",
    "PSTMMachine",
    "ProgressMode",
    "ProgressTracker",
    "QueryMemo",
    "ROOT_WEIGHT",
    "StageCursor",
    "Traverser",
    "WeightAccumulator",
    "WeightLedger",
    "add_weights",
    "gather_partials",
    "make_root",
    "resolve_partition",
    "split_weight",
    "sub_weights",
]
