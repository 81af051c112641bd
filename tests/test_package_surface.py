"""The package holds the program: every public top-level function and class in
`src/seglang`, and every public method, is used by the program. A name counts
as used when it is referenced outside its own `def` from `src/seglang`,
`bench/` (not `bench/tests`), `tools/` or `pyproject.toml`; a method is
matched by its attribute name (`.name`). A helper that only tests call
belongs in `tests/`."""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = re.compile(r"[A-Za-z_][\w.]*(:[\w.]+)?")   # "seglang.cli:main", "ParamStore.save"


def program_files() -> list[str]:
    return sorted(glob.glob(os.path.join(ROOT, "src", "seglang", "*.py"))
                  + glob.glob(os.path.join(ROOT, "bench", "*.py"))
                  + glob.glob(os.path.join(ROOT, "tools", "*.py")))


def path_parts(text: str) -> list[tuple[str, bool]]:
    """(name, is_attribute) for each part of a string that is a dotted path."""
    if not PATH.fullmatch(text):
        return []
    parts = re.split(r"[.:]", text)
    return [(part, i > 0) for i, part in enumerate(parts)]


def references(tree: ast.AST) -> list[tuple[str, bool, int]]:
    """(name, is_attribute, line) of every name the module refers to: names,
    attribute reads, imported names and dotted-path strings."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, False, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, True, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs += [(alias.name, False, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs += [(name, attr, node.lineno) for name, attr in path_parts(node.value)]
    return refs


def definitions(tree: ast.Module) -> list[tuple[str, str, int, int]]:
    """(label, name, first line, last line) of each public top-level function
    and class, and of each public method of a top-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            defs.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m.name, m.lineno, m.end_lineno)
                     for m in node.body if isinstance(m, functions)
                     and not m.name.startswith("_")]
    return defs


def unused_names() -> tuple[list[str], int]:
    """The labels of the package's public names the program never refers to,
    and how many were checked."""
    refs = []   # (name, is_attribute, path, line)
    for path in program_files():
        with open(path, encoding="utf-8") as f:
            refs += [(n, a, path, line) for n, a, line in references(ast.parse(f.read()))]
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        for line, text in enumerate(f, 1):
            for quoted in re.findall(r'"([^"]*)"', text):
                refs += [(n, a, "pyproject.toml", line) for n, a in path_parts(quoted)]
    unused, checked = [], 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "seglang", "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for label, name, first, last in definitions(tree):
            checked += 1
            method = "." in label
            if not any(n == name and (a or not method)
                       and not (p == path and first <= line <= last)
                       for n, a, p, line in refs):
                unused.append(f"{os.path.basename(path)}:{label}")
    return unused, checked


def test_every_public_package_name_has_a_program_caller():
    unused, checked = unused_names()
    assert checked >= 100
    assert not unused, f"no program caller (move to tests/ or delete): {unused}"
