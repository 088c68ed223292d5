"""Size of the program's surface: the count of settable values may not grow
unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mxt"

# parameters with a default plus dataclass fields with a default, over
# src/mxt/*.py; a change that adds an option raises this number in plain view
SETTABLE_VALUES = 100


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(paths) -> int:
    count = 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


def test_settable_value_count_does_not_grow():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    count = settable_values(paths)
    assert count <= SETTABLE_VALUES, (
        f"src/mxt has {count} settable values, above {SETTABLE_VALUES}; "
        f"an option that is needed raises SETTABLE_VALUES and the ROADMAP count")


def test_settable_values_counts_defaults_and_dataclass_fields(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 3\n"
        "class D:\n"
        "    z: int = 4\n")
    assert settable_values([probe]) == 4
