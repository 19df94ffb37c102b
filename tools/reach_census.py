#!/usr/bin/env python3
"""Reach census: the functions under ``src/repro`` that no driver calls.

    python3 tools/reach_census.py                      # every driver
    python3 tools/reach_census.py --out census.md      # ... report also to a file
    python3 tools/reach_census.py --group spine --group examples
    python3 tools/reach_census.py --jobs 2             # two drivers at a time

A *driver* is one way the code is run for real, outside the test suite:

* ``spine`` — the five spine workloads at smoke size, untraced and traced;
* ``run`` — every ``python -m repro run`` experiment id;
* ``gates`` — ``overload``, ``recovery``, ``preempt`` and ``mixed`` with
  ``--quick --check``;
* ``cli`` — ``faults``, ``demo``, ``explain``, ``trace`` and
  ``trace --cancel``;
* ``examples`` — every script in ``examples/``.

Each driver runs in its own subprocess (scratch working directory, so
nothing lands in the checkout) under ``sys.setprofile``, which records the
code object of every Python function entered. The parent maps those back
to the ``def`` statements of ``src/repro`` (found with ``ast``) and prints,
per module, every function no driver entered, with its line count and the
``tests/`` files that name it — a function only its own tests reach is a
deletion candidate. A failing driver is reported, not fatal; the exit code
is 0 whenever the report was written. Stdlib only. Profiling slows the
drivers several-fold: the full set takes about ten minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"
SPINE = ROOT / "benchmarks" / "spine"
TESTS = ROOT / "tests"
GROUPS = ("spine", "run", "gates", "cli", "examples")
#: a driver still running after this long is killed and reported
DRIVER_TIMEOUT_S = 3600

#: (file relative to src/repro, first line incl. decorators)
FuncKey = Tuple[str, int]


# -- drivers ------------------------------------------------------------------


def drivers(groups: List[str]) -> List[Dict]:
    """Every driver spec of the selected groups, in a stable order."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    out: List[Dict] = []
    if "spine" in groups:
        sys.path.insert(0, str(SPINE))
        import workloads

        for name in workloads.WORKLOADS:
            for traced in (False, True):
                out.append({"kind": "spine", "workload": name,
                            "traced": traced,
                            "label": f"spine {name}"
                                     f"{' traced' if traced else ''}"})
    if "run" in groups:
        from repro.cli import EXPERIMENTS

        out += [{"kind": "cli", "argv": ["run", name], "label": f"run {name}"}
                for name in EXPERIMENTS]
    if "gates" in groups:
        out += [{"kind": "cli", "argv": [gate, "--quick", "--check"],
                 "label": f"{gate} --quick --check"}
                for gate in ("overload", "recovery", "preempt", "mixed")]
    if "cli" in groups:
        for argv in (["faults"], ["demo"], ["explain", "khop3"], ["trace"],
                     ["trace", "--cancel"]):
            out.append({"kind": "cli", "argv": argv, "label": " ".join(argv)})
    if "examples" in groups:
        out += [{"kind": "script", "path": str(path),
                 "label": f"examples/{path.name}"}
                for path in sorted((ROOT / "examples").glob("*.py"))]
    return out


def child(spec: Dict, result_path: str) -> None:
    """Run one driver under the profiler; write the entered functions."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    entered: Set = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    status = 0
    sys.setprofile(profile)
    try:
        if spec["kind"] == "spine":
            sys.path.insert(0, str(SPINE))
            import run as spine
            import workloads

            spine.run_pass(spec["workload"], workloads.DEFAULT_SEED,
                           spec["traced"], smoke=True)
        elif spec["kind"] == "cli":
            from repro.cli import main

            status = main(spec["argv"]) or 0
        else:
            import runpy

            sys.argv = [spec["path"]]
            runpy.run_path(spec["path"], run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.setprofile(None)
    prefix = str(PKG) + os.sep
    reached = sorted({
        (code.co_filename[len(prefix):], code.co_firstlineno)
        for code in entered if code.co_filename.startswith(prefix)
    })
    with open(result_path, "w") as fh:
        json.dump({"status": status, "reached": reached}, fh)


def run_driver(spec: Dict) -> Dict:
    """One driver in a fresh interpreter; returns status, time, reach."""
    with tempfile.TemporaryDirectory() as scratch:
        result = os.path.join(scratch, "reach.json")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--child", json.dumps(spec), "--result", result],
                cwd=scratch, capture_output=True, text=True,
                timeout=DRIVER_TIMEOUT_S)
            error = proc.stderr.strip().splitlines()[-1:] \
                if proc.returncode else []
        except subprocess.TimeoutExpired:
            error = [f"killed after {DRIVER_TIMEOUT_S} s"]
        seconds = time.perf_counter() - t0
        if not os.path.exists(result):
            return {"label": spec["label"], "status": "crashed",
                    "error": " ".join(error), "seconds": seconds,
                    "reached": []}
        with open(result) as fh:
            data = json.load(fh)
    return {"label": spec["label"], "status": data["status"],
            "error": " ".join(error), "seconds": seconds,
            "reached": [tuple(k) for k in data["reached"]]}


# -- the function table -------------------------------------------------------


def functions() -> Dict[FuncKey, Tuple[str, int]]:
    """Every ``def`` under src/repro: key -> (qualified name, lines)."""
    table: Dict[FuncKey, Tuple[str, int]] = {}

    def visit(node: ast.AST, rel: str, prefix: str) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                visit(sub, rel, f"{prefix}{sub.name}.")
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in sub.decorator_list]
                            + [sub.lineno])
                table[(rel, first)] = (f"{prefix}{sub.name}",
                                       sub.end_lineno - first + 1)
                visit(sub, rel, f"{prefix}{sub.name}.")
            else:
                visit(sub, rel, prefix)

    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        visit(ast.parse(path.read_text()), rel, "")
    return table


def naming_tests(qualname: str, texts: Dict[str, str]) -> List[str]:
    """The tests/ files that name a function: its bare name for a
    top-level function, else its owner's name plus its own (dunders by
    the owner alone), each as a whole word."""
    owner, _, name = qualname.rpartition(".")
    names = [owner.rsplit(".", 1)[-1]] if owner else []
    if not (owner and name.startswith("__")):
        names.append(name)
    words = [re.compile(rf"\b{re.escape(n)}\b") for n in names]
    return [fname for fname, text in texts.items()
            if all(word.search(text) for word in words)]


def report(results: List[Dict]) -> str:
    """The census as markdown: drivers, totals, unreached per module."""
    table = functions()
    reached = {key for res in results for key in res["reached"]}
    texts = {p.name: p.read_text() for p in sorted(TESTS.rglob("*.py"))}
    unreached: Dict[str, List[Tuple[int, str, int]]] = {}
    for (rel, line), (name, n) in sorted(table.items()):
        if (rel, line) not in reached:
            unreached.setdefault(rel, []).append((line, name, n))

    failed = [r for r in results if r["status"] != 0]
    total_lines = sum(n for _name, n in table.values())
    dead = [entry for entries in unreached.values() for entry in entries]
    lines = [
        "# Reach census",
        "",
        f"{len(results)} drivers ({len(failed)} failed); "
        f"{len(dead)} of {len(table)} functions "
        f"({sum(n for _l, _name, n in dead)} of {total_lines} lines) "
        "never entered.",
        "",
        "| driver | status | s |",
        "|---|---|---|",
    ]
    for res in results:
        status = res["status"] if not res["error"] else \
            f"{res['status']}: {res['error']}"
        lines.append(f"| {res['label']} | {status} | {res['seconds']:.1f} |")
    for rel, entries in unreached.items():
        lines += ["", f"## repro/{rel} — {len(entries)} unreached "
                      f"({sum(n for _l, _name, n in entries)} lines)", ""]
        for line, name, n in entries:
            named = naming_tests(name, texts)
            tests = ", ".join(named) if named else "no test names it"
            lines.append(f"- `{name}` (L{line}, {n} lines) — {tests}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--group", action="append", choices=GROUPS,
                        help="driver group to run (repeatable; default all)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="drivers run at a time (default 1)")
    parser.add_argument("--out", help="also write the report here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(json.loads(args.child), args.result)
        return 0

    specs = drivers(args.group or list(GROUPS))
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        results = []
        for res in pool.map(run_driver, specs):
            print(f"{res['label']}: {res['status']} "
                  f"({res['seconds']:.1f} s)", file=sys.stderr, flush=True)
            results.append(res)
    text = report(results)
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
