#!/usr/bin/env python3
"""Stale-symbol gate for README.md and docs/*.md.

Sibling of ``tools/check_docs_links.py``: where that tool resolves file
references, this one resolves **symbol** references. The docs' prose
leans on backticked dotted names — ``Placement.key_partition``,
``CheckpointPlane.rekey``, ``AsyncPSTMEngine.submit`` — and a rename
on the code side silently strands them: the docs keep reading fine while
describing an API that no longer exists.

Every backticked ``ClassName.member`` reference (a capitalized head, a
lowercase member — the docs' class-attribute idiom) must resolve against
the source tree: some ``class ClassName`` must exist under ``src/``, and
the file defining it must also define ``member`` (as a ``def``, an
assignment, or an annotated attribute — including inside string literals
is rejected by requiring a definition-shaped line). ``Class.CONSTANT``
references (an all-caps member — class constants and enum values like
``QueryState.PAUSED``) are held to the same standard. Module-qualified
forms (``repro.runtime.checkpoint.CheckpointPlane.latest``) check only
their final ``Class.member`` pair; fully-lowercase dotted names
(``engine.submit``, ``clock.now`` — instance shorthand whose receiver is
prose context) and tool invocations (``python -m repro``) are out of
scope.

The trace taxonomy is held to the same standard: the event table in
docs/OBSERVABILITY.md (one row per kind, its ``fields`` column listing the
payload names in order) must equal ``repro.runtime.trace.KIND_FIELDS``,
the table the recorder stores rows by.

So are the calibration constants: every backticked ``name=value`` in
docs/SIMULATION.md's "The constants" section must name a field of
``CostModel`` or ``HardwareProfile`` whose default equals the value, so a
deleted or re-tuned constant fails here instead of reading fine. The
trace store's sealing period and codec level likewise: docs/OBSERVABILITY.md's
"The store" section must document ``CHUNK_EVENTS=<value>`` and
``CODEC_LEVEL=<value>`` as ``repro.runtime.trace`` has them.

Stdlib only (like ``tools/check_layering.py``). Exit 0 = no stale refs.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: `Qualified.Name.like.this` — dotted backticked references
TICKED_DOTTED = re.compile(r"`([A-Za-z_][\w.]*\.[\w]+)(?:\(\))?`")

#: definition-shaped lines for a member inside a class body: a def, an
#: assignment, or an annotated attribute, at any indentation
def member_pattern(member: str) -> re.Pattern:
    return re.compile(
        rf"^\s+(?:async\s+def\s+{member}\s*\(|def\s+{member}\s*\("
        rf"|(?:self\.)?{member}\s*[:=])",
        re.MULTILINE,
    )


def class_files() -> dict:
    """Map ``ClassName`` -> list of source files defining it."""
    index: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for match in re.finditer(r"^class\s+([A-Za-z_]\w*)", text, re.M):
            index.setdefault(match.group(1), []).append(path)
    return index


#: file references (`FAULTS.md`, `BENCH_PR9.json`) — the link checker's
#: territory, not symbols
FILE_EXT = re.compile(r"\.(?:md|py|yml|yaml|json|jsonl|txt)$")


def split_ref(ref: str):
    """Reduce a dotted reference to its final (Class, member) pair, or
    None when the reference is not class-attribute shaped."""
    if FILE_EXT.search(ref):
        return None
    parts = ref.split(".")
    # walk to the last capitalized segment; everything before is a module
    # path, the segment after it the member
    for i in range(len(parts) - 2, -1, -1):
        if parts[i][:1].isupper():
            if i + 2 == len(parts) and parts[i + 1][:1].islower():
                return parts[i], parts[i + 1]
            if i + 2 == len(parts) and parts[i + 1].isupper():
                # Class.CONSTANT — class-level constants and enum members
                # (`QueryState.PAUSED`, `MsgKind.DATA`) rename just as
                # silently as methods do; the member pattern's assignment
                # arm covers their definition shape.
                return parts[i], parts[i + 1]
            return None  # Module.Class chains — not checked
    return None  # fully lowercase: instance shorthand, out of scope


def doc_section(path: Path, heading: str):
    """The text under a ``## `` heading up to the next one, or None."""
    text = path.read_text()
    if heading not in text:
        return None
    return text.split(heading, 1)[1].split("\n## ", 1)[0]


TAXONOMY_DOC = ROOT / "docs" / "OBSERVABILITY.md"
TAXONOMY_HEADING = "## Event taxonomy"


def taxonomy_errors() -> list:
    """Differences between the doc's event table and ``KIND_FIELDS``.

    A table row is ``| `kind` | emitted by | `field`, ... | notes |``;
    only the first and third cells are read.
    """
    sys.path.insert(0, str(SRC))
    from repro.runtime.trace import KIND_FIELDS

    where = TAXONOMY_DOC.relative_to(ROOT)
    section = doc_section(TAXONOMY_DOC, TAXONOMY_HEADING)
    if section is None:
        return [f"{where}: no `{TAXONOMY_HEADING}` section"]
    documented = {}
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)]
        if len(cells) >= 5 and re.fullmatch(r"`\w+`", cells[1]):
            documented[cells[1].strip("`")] = tuple(
                re.findall(r"`(\w+)`", cells[3]))
    # None on either side: the kind is missing from that table
    return [
        f"{where}: `{kind}` documents fields {documented.get(kind)}, "
        f"KIND_FIELDS declares {KIND_FIELDS.get(kind)}"
        for kind in sorted(set(documented) | set(KIND_FIELDS))
        if documented.get(kind) != KIND_FIELDS.get(kind)
    ]


CONSTANTS_DOC = ROOT / "docs" / "SIMULATION.md"
CONSTANTS_HEADING = "## The constants"
#: `name=value` — a documented default
TICKED_DEFAULT = re.compile(r"`(\w+)=([^`\s]+)`")


def constants_errors() -> list:
    """Documented ``name=value`` defaults that ``CostModel`` /
    ``HardwareProfile`` do not declare with that value."""
    import dataclasses

    sys.path.insert(0, str(SRC))
    from repro.runtime.costmodel import CostModel, HardwareProfile

    where = CONSTANTS_DOC.relative_to(ROOT)
    section = doc_section(CONSTANTS_DOC, CONSTANTS_HEADING)
    if section is None:
        return [f"{where}: no `{CONSTANTS_HEADING}` section"]
    defaults = {
        f.name: f.default
        for cls in (HardwareProfile, CostModel)
        for f in dataclasses.fields(cls)
    }
    errors = []
    for name, value in TICKED_DEFAULT.findall(section):
        if name not in defaults:
            errors.append(f"{where}: `{name}={value}` — neither CostModel "
                          f"nor HardwareProfile has a field {name!r}")
            continue
        try:
            same = float(value) == defaults[name]
        except (TypeError, ValueError):
            same = value == str(defaults[name])
        if not same:
            errors.append(f"{where}: `{name}={value}` — the default in "
                          f"code is {defaults[name]!r}")
    return errors


STORE_DOC = ROOT / "docs" / "OBSERVABILITY.md"
STORE_HEADING = "## The store"


def store_constant_errors(name: str, value: int, meaning: str) -> list:
    """The store section's documented ``name=`` values that differ from
    ``value`` (what the code does with it is ``meaning``), or its lack of
    one."""
    where = STORE_DOC.relative_to(ROOT)
    section = doc_section(STORE_DOC, STORE_HEADING)
    if section is None:
        return [f"{where}: no `{STORE_HEADING}` section"]
    documented = [v for n, v in TICKED_DEFAULT.findall(section) if n == name]
    if not documented:
        return [f"{where}: `{STORE_HEADING}` documents no `{name}=`"]
    return [f"{where}: `{name}={v}` — {meaning}"
            for v in documented if v != str(value)]


def chunk_events_errors() -> list:
    """The store doc against ``repro.runtime.trace.CHUNK_EVENTS``."""
    sys.path.insert(0, str(SRC))
    from repro.runtime.trace import CHUNK_EVENTS

    return store_constant_errors(
        "CHUNK_EVENTS", CHUNK_EVENTS,
        f"the code seals every {CHUNK_EVENTS} events")


def codec_level_errors() -> list:
    """The store doc against ``repro.runtime.trace.CODEC_LEVEL``."""
    sys.path.insert(0, str(SRC))
    from repro.runtime.trace import CODEC_LEVEL

    return store_constant_errors(
        "CODEC_LEVEL", CODEC_LEVEL,
        f"the code compresses sealed chunks at zlib level {CODEC_LEVEL}")


def main() -> int:
    files = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    index = class_files()
    errors = (taxonomy_errors() + constants_errors() + chunk_events_errors()
              + codec_level_errors())
    checked = 0
    for path in files:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for match in TICKED_DOTTED.finditer(line):
                pair = split_ref(match.group(1))
                if pair is None:
                    continue
                cls, member = pair
                checked += 1
                homes = index.get(cls)
                if not homes:
                    errors.append(
                        f"{path.relative_to(ROOT)}:{lineno}: stale symbol "
                        f"`{match.group(1)}` — no `class {cls}` under src/"
                    )
                    continue
                pat = member_pattern(member)
                if not any(pat.search(h.read_text()) for h in homes):
                    defined = ", ".join(
                        str(h.relative_to(ROOT)) for h in homes)
                    errors.append(
                        f"{path.relative_to(ROOT)}:{lineno}: stale symbol "
                        f"`{match.group(1)}` — {cls} ({defined}) defines "
                        f"no member {member!r}"
                    )
    if errors:
        print("\n".join(errors))
        print(f"\n{len(errors)} stale reference(s)")
        return 1
    print(f"docs symbols OK: {checked} class-member references across "
          f"{len(files)} files; trace taxonomy matches KIND_FIELDS; "
          f"documented constants match the cost model and the trace store")
    return 0


if __name__ == "__main__":
    sys.exit(main())
