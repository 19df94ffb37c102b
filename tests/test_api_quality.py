"""API-quality gates: public items are documented, exports resolve, and
every configuration knob has a caller."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.runtime.config import EngineConfig

REPO = Path(__file__).resolve().parent.parent

PUBLIC_MODULES = [
    "repro",
    "repro.analytics",
    "repro.bench",
    "repro.core",
    "repro.datasets",
    "repro.graph",
    "repro.ldbc",
    "repro.query",
    "repro.runtime",
    "repro.txn",
]


def iter_all_modules():
    seen = set()
    for pkg_name in PUBLIC_MODULES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        if not hasattr(pkg, "__path__"):
            continue
        for info in pkgutil.walk_packages(pkg.__path__, prefix=pkg_name + "."):
            if info.name in seen or info.name.endswith("__main__"):
                continue  # __main__ runs the CLI on import
            seen.add(info.name)
            yield importlib.import_module(info.name)


class TestExports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_lists_are_sorted_and_unique(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), module_name


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        for module in iter_all_modules():
            assert module.__doc__, f"{module.__name__} lacks a docstring"

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for module in iter_all_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its home
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_documented(self):
        undocumented = []
        for module in iter_all_modules():
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for meth_name, meth in vars(cls).items():
                    if meth_name.startswith("_"):
                        continue
                    if not inspect.isfunction(meth):
                        continue
                    if not inspect.getdoc(meth):
                        undocumented.append(
                            f"{module.__name__}.{cls_name}.{meth_name}"
                        )
        assert not undocumented, (
            f"{len(undocumented)} undocumented public methods: "
            f"{undocumented[:20]}"
        )


#: EngineConfig fields no caller outside the tests sets, each with the
#: reason it stays a field rather than a constant
UNARMED_KNOBS = {
    "lct_broadcast_lag_us": (
        "transactions: models the delay of the LCT broadcast, and is the "
        "only way to pin a snapshot older than the LCT at the pin's own "
        "admission, which the stale-but-never-ahead tests need"
    ),
}


def config_keywords():
    """Keyword names passed to ``EngineConfig(...)`` or ``replace(...)``
    anywhere under ``src/`` (bar the config module), ``benchmarks/`` and
    ``examples/``."""
    found = set()
    config_py = REPO / "src" / "repro" / "runtime" / "config.py"
    for top in ("src", "benchmarks", "examples"):
        for path in (REPO / top).rglob("*.py"):
            if path == config_py:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ("EngineConfig", "replace"):
                    found.update(k.arg for k in node.keywords if k.arg)
    return found


class TestKnobCensus:
    """Every EngineConfig field is set by a real caller or is on the
    explicit allowlist: a knob only its own tests arm is a plane nothing
    measures."""

    def test_every_knob_has_a_caller_or_an_allowlist_entry(self):
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        armed = config_keywords()
        orphans = sorted(fields - armed - set(UNARMED_KNOBS))
        assert not orphans, f"EngineConfig fields nothing sets: {orphans}"

    def test_allowlist_holds_only_unarmed_fields(self):
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        assert set(UNARMED_KNOBS) <= fields
        assert not set(UNARMED_KNOBS) & config_keywords()


class TestVersion:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2
