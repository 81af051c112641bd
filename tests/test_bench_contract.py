"""The benchmark's hold on the program: every seglang name that `bench/`
traces or imports still exists, so a deletion that would break the
benchmark fails here first."""

import ast
import importlib
import os
import sys
import types

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")


def resolve(module_name: str, dotted: str):
    """The value `from module_name import <dotted>` would bind, then its
    attributes: a name missing from a package is imported as its submodule."""
    value = importlib.import_module(module_name)
    for part in dotted.split("."):
        if isinstance(value, types.ModuleType) and not hasattr(value, part):
            importlib.import_module(f"{value.__name__}.{part}")
        value = getattr(value, part)
    return value


def workload_names() -> list[tuple[str, str]]:
    """(module, attribute) of each seglang name `bench/workloads.py` imports,
    and of each attribute it reads from an imported seglang module."""
    with open(os.path.join(BENCH_DIR, "workloads.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "seglang":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    names = set(imported.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in imported:
            module, name = imported[node.value.id]
            names.add((module, f"{name}.{node.attr}"))
    return sorted(names)


def traced_names() -> list[tuple[str, str]]:
    sys.path.insert(0, BENCH_DIR)
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH_DIR)
    return [(module, attr) for _, module, attr in tracing.TRACED]


@pytest.mark.parametrize("source", [workload_names, traced_names])
def test_every_benchmarked_seglang_name_resolves(source):
    names = source()
    assert len(names) >= 10
    missing = []
    for module, attr in names:
        try:
            resolve(module, attr)
        except (ImportError, AttributeError) as err:
            missing.append(f"{module}:{attr} ({err})")
    assert not missing, missing
