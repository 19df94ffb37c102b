#!/usr/bin/env python3
"""Import-layering and size gates for the runtime package.

The runtime is a strict layering (docs/ARCHITECTURE.md); each module may
import only modules *strictly below* it:

    simclock < config < metrics < trace < checkpoint < txnplane
             < lifecycle < costmodel < faults < network < overload
             < preempt < runs < kernels < worker < delivery < engine

Everything above ``engine`` (bsp, hybrid, variants, reference, cluster,
the package __init__) composes freely and is not constrained here.

Two classes of violation fail the build:

* an upward (or sideways) runtime import between layered modules — most
  importantly, ``worker.py`` may not import ``engine`` or ``delivery`` at
  runtime: workers reach the delivery plane only through the engine
  object handed to them. ``if TYPE_CHECKING:`` blocks are exempt; typing
  is not a runtime dependency.
* a module outgrowing its budget: ``engine.py`` and ``worker.py`` must
  each stay under 900 lines, and the kernel stack (``kernels.py``,
  ``runs.py``) under the ``MAX_LINES`` budgets below. The layered
  decomposition exists to keep the god-module from reassembling itself.
* the observation leaf growing dependencies: ``trace.py`` may import
  nothing from the runtime package at runtime except ``simclock`` — in
  particular never ``engine`` or ``delivery``. Hooks hand the recorder
  plain values; tracing must never be able to re-enter the machinery it
  observes.
* a call site outside the placement plane computing a partition from the
  raw hash: ``repro.graph.placement`` is the single source of truth for
  vertex ownership (docs/PARTITIONING.md), so ``mix64`` and
  ``% num_partitions``-style placement arithmetic may appear nowhere else
  in the package — a module that owned its own copy would silently
  disagree with the graph's static homes.
* raw TEL / transaction-store access outside the transaction plane:
  ``repro.txn`` and ``repro.graph.tel`` may be imported only by the txn
  package itself, the runtime's ``txnplane`` module, and the LDBC update
  drivers (docs/TRANSACTIONS.md). Every other layer reads versioned data
  through the plane's snapshot views — a module holding its own TEL
  handle could read uncommitted versions past a query's pinned snapshot.
* any import of a module outside the standard library, the package
  itself and the checkout's ``benchmarks``, anywhere under ``src/`` —
  guarded ``try: import`` and ``TYPE_CHECKING`` imports included.
  ``pyproject.toml`` declares ``dependencies = []``, and an optional
  accelerator is a second implementation of what it accelerates.
* a call of an operator's scalar ``apply`` outside ``core/``: every
  engine executes operators through the run kernel's ``apply_batch`` or
  ``PSTMMachine.execute`` (the scalar oracle), so one execution path
  exists. A call counts as an operator's when its receiver is named
  ``op``, ``*_op`` or indexes ``ops``, or its first argument is the step
  context (``ctx``, or a ``.context(...)`` call).
* progression-weight group knowledge outside ``core/weight.py``: that
  module alone fixes the group of Theorem 1 (docs/ARCHITECTURE.md), so no
  other file under ``src/`` may mention ``GROUP_MODULUS`` or the width
  constant ``WEIGHT_BITS``, call ``getrandbits``, or reduce by a literal
  ``2^64`` — every other module reduces, adds and subtracts weights
  through ``normalize_weight`` / ``add_weights`` / ``sub_weights``. A
  64-bit literal that is not a modulus (the trace store's ``'Q'``
  typecode bound, the placement hash's mask) is not flagged.

Stdlib only (ast); no third-party dependency. Exit 0 = clean.
"""

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
RUNTIME = SRC / "runtime"

#: bottom to top; a module may import only strictly earlier entries
LAYERS = [
    "simclock",
    "config",
    "metrics",
    "trace",
    "checkpoint",
    "txnplane",
    "lifecycle",
    "costmodel",
    "faults",
    "network",
    "overload",
    "preempt",
    "runs",
    "kernels",
    "worker",
    "delivery",
    "engine",
]
RANK = {name: i for i, name in enumerate(LAYERS)}

#: maximum line count per module, relative to ``src/repro`` (the
#: anti-god-module gate). ``bsp.py`` is budgeted at its size as a superstep
#: schedule over the async engine's machinery, so a second engine cannot
#: grow back there. ``engine.py`` and ``kernels.py`` are budgeted at
#: their size once the per-query resource-budget plane left the drain
#: path, and ``runs.py`` at its size once every row took one loop (no
#: single-child copy, no sink-run loop), each plus at most ten lines, so
#: that plumbing (or a second drain tier or row body) cannot quietly grow
#: back: ``kernels.py`` stays two kernels and a dispatch, and
#: run-partitioning machinery belongs in ``runs.py``.
MAX_LINES = {
    "runtime/bsp.py": 181,
    "runtime/engine.py": 844,
    "runtime/worker.py": 900,
    "runtime/kernels.py": 260,
    "runtime/runs.py": 580,
}

#: observation leaves: stricter than the layering rank — these modules may
#: import only the listed runtime modules at runtime, nothing else.
#: ``checkpoint`` is a storage leaf beside ``trace``: it holds snapshots,
#: never drives the machinery, and may import only the trace constants.
LEAF_ALLOW = {"trace": {"simclock"}, "checkpoint": {"trace"}}

#: the placement plane: the only modules allowed to spell the raw vertex
#: hash or ``% num_partitions`` placement arithmetic
PLACEMENT_PLANE = {"graph/placement.py", "graph/partition.py"}
#: raw-hash placement logic, forbidden outside the placement plane
RAW_HASH = re.compile(r"\bmix64\w*\b|%\s*(?:self\.)?(?:num_partitions|_n)\b")

#: the transaction plane: the only modules allowed to import the raw
#: multi-version stores (``repro.txn`` / ``repro.graph.tel``). ``txn/``
#: is the package itself; ``graph/__init__.py`` re-exports the TEL types;
#: the LDBC update drivers build write transactions; everything else goes
#: through ``runtime/txnplane.py``'s snapshot views.
TXN_PLANE_PREFIXES = ("txn/",)
TXN_PLANE_FILES = {
    "graph/__init__.py",
    "graph/tel.py",
    "runtime/txnplane.py",
    "ldbc/workload.py",
    "ldbc/queries/updates.py",
}
#: raw transaction-store imports, forbidden outside the transaction plane
RAW_TEL = re.compile(r"^\s*(?:from|import)\s+repro\.(?:txn\b|graph\.tel\b)")


#: the weight group's one owner (relative to ``src/repro``)
WEIGHT_MODULE = "core/weight.py"
#: weight-group knowledge, forbidden outside the weight module
WEIGHT_GROUP = re.compile(
    r"\b(?:GROUP_MODULUS|WEIGHT_BITS|getrandbits)\b"
    r"|%=?\s*\(?\s*(?:1\s*<<\s*64|2\s*\*\*\s*64)\b")


def raw_hash_violations(errors) -> None:
    """Flag raw-hash partition computation outside the placement plane."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in PLACEMENT_PLANE:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if RAW_HASH.search(code):
                errors.append(
                    f"{path}:{lineno}: raw-hash placement logic outside the "
                    f"placement plane — route partition lookups through "
                    f"repro.graph.placement.Placement"
                )


def raw_tel_violations(errors) -> None:
    """Flag raw TEL/txn-store imports outside the transaction plane."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in TXN_PLANE_FILES or rel.startswith(TXN_PLANE_PREFIXES):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if RAW_TEL.match(line):
                errors.append(
                    f"{path}:{lineno}: raw transaction-store import outside "
                    f"the transaction plane — read versioned data through "
                    f"repro.runtime.txnplane's snapshot views"
                )


def weight_group_lines(text: str):
    """Yield the number of every line of ``text`` that names the weight
    group (see the module docstring for what counts as naming it)."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if WEIGHT_GROUP.search(line):
            yield lineno


def weight_group_violations(errors) -> None:
    """Flag weight-group knowledge outside ``core/weight.py``."""
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() == WEIGHT_MODULE:
            continue
        for lineno in weight_group_lines(path.read_text()):
            errors.append(
                f"{path}:{lineno}: names the progression-weight group "
                f"outside repro.core.weight — reduce, add and subtract "
                f"weights through normalize_weight / add_weights / "
                f"sub_weights"
            )


def third_party_violations(errors) -> None:
    """Flag imports of anything but the standard library and the source
    checkout's own packages (the CLI registers ``benchmarks``' ablations
    when it is present)."""
    allowed = set(sys.stdlib_module_names) | {"repro", "benchmarks"}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in allowed:
                    errors.append(
                        f"{path}:{node.lineno}: imports {name!r}, which is "
                        f"not in the standard library — the package "
                        f"declares no runtime dependencies"
                    )


def scalar_apply_calls(tree: ast.AST):
    """Yield the line of every call of an operator's scalar ``apply`` in
    ``tree`` (see the module docstring for what counts as one)."""
    def names_op(node: ast.expr) -> bool:
        if isinstance(node, ast.Subscript):
            return names_op(node.value) or (
                isinstance(node.value, (ast.Name, ast.Attribute))
                and (getattr(node.value, "id", None) or node.value.attr) == "ops")
        name = getattr(node, "id", None) or getattr(node, "attr", "")
        return name == "op" or name.endswith("_op")

    def is_context(node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            return getattr(node.func, "attr", None) == "context"
        name = getattr(node, "id", None) or getattr(node, "attr", "")
        return name == "ctx" or name.endswith("_ctx")

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "apply"
                and (names_op(node.func.value)
                     or (node.args and is_context(node.args[0])))):
            yield node.lineno


def scalar_apply_violations(errors) -> None:
    """Flag operator ``apply`` calls outside ``core/``."""
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix().startswith("core/"):
            continue
        for lineno in scalar_apply_calls(ast.parse(path.read_text(), filename=str(path))):
            errors.append(
                f"{path}:{lineno}: calls an operator's scalar apply outside "
                f"core/ — execute through the run kernel or "
                f"PSTMMachine.execute, the one execution path"
            )


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def runtime_imports(path: Path):
    """Yield (lineno, module) for runtime-package imports outside
    ``if TYPE_CHECKING:`` blocks (their bodies are skipped; else-branches
    still count)."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                for stmt in child.orelse:
                    yield from visit(stmt)
                continue
            if (
                isinstance(child, ast.ImportFrom)
                and child.module
                and child.module.startswith("repro.runtime.")
            ):
                yield child.lineno, child.module.split(".")[2]
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.startswith("repro.runtime."):
                        yield child.lineno, alias.name.split(".")[2]
            yield from visit(child)

    yield from visit(tree)


def main() -> int:
    errors = []

    for name in LAYERS:
        path = RUNTIME / f"{name}.py"
        if not path.exists():
            errors.append(f"{path}: layered module missing")
            continue
        rank = RANK[name]
        for lineno, target in runtime_imports(path):
            if target == name:
                continue
            if target not in RANK:
                errors.append(
                    f"{path}:{lineno}: {name} imports unlayered runtime "
                    f"module {target!r} (only {', '.join(LAYERS[:rank])} "
                    f"are below it)"
                )
            elif RANK[target] >= rank:
                errors.append(
                    f"{path}:{lineno}: {name} imports {target} at runtime, "
                    f"but {target} is layered at or above {name} "
                    f"(move the import under TYPE_CHECKING or invert the "
                    f"dependency)"
                )
            elif name in LEAF_ALLOW and target not in LEAF_ALLOW[name]:
                errors.append(
                    f"{path}:{lineno}: {name} is an observation leaf and "
                    f"may import only "
                    f"{{{', '.join(sorted(LEAF_ALLOW[name]))}}} from the "
                    f"runtime package, not {target}"
                )

    for filename, budget in MAX_LINES.items():
        path = SRC / filename
        lines = sum(1 for _ in path.open())
        if lines >= budget:
            errors.append(
                f"{path}: {lines} lines, budget is < {budget} — split "
                f"responsibilities into a lower layer instead of growing "
                f"the module"
            )

    raw_hash_violations(errors)
    raw_tel_violations(errors)
    third_party_violations(errors)
    scalar_apply_violations(errors)
    weight_group_violations(errors)

    if errors:
        print("\n".join(errors))
        print(f"\n{len(errors)} layering violation(s)")
        return 1
    checked = ", ".join(LAYERS)
    print(f"layering OK ({checked}); "
          + "; ".join(f"{f} under {n} lines" for f, n in MAX_LINES.items())
          + "; no raw-hash placement outside the placement plane"
          + "; no raw TEL access outside the transaction plane"
          + "; no import outside the standard library"
          + "; no scalar operator apply outside core/"
          + "; no weight-group arithmetic outside core/weight.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
