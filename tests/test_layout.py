"""Layout check: every top-level function or class in `src/kohmoto` is part
of the public API (`kohmoto.__all__`) or is named by the package itself or
by the benchmark in `bench/`.  Code that only the tests use belongs in
`tests/`."""

import ast
import re
from collections import Counter
from pathlib import Path

import kohmoto

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kohmoto"
IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree: ast.AST) -> Counter:
    """Identifiers a syntax tree names: variables, attributes, imported
    names, and string constants that are dotted identifier paths (the
    benchmark's trace targets name functions that way)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER_PATH.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def unnamed_definitions(package: Path, others: list[Path], exported) -> list[str]:
    """module.name of each top-level def or class in the package that is
    neither exported nor named anywhere in the package or the other files
    outside its own definition."""
    modules = {path: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    total = Counter()
    for tree in [*modules.values(), *(ast.parse(path.read_text(), str(path)) for path in others)]:
        total.update(_names(tree))
    out = []
    for path, tree in modules.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name not in exported
                and total[node.name] == _names(node)[node.name]
            ):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_src_holds_no_test_only_definitions():
    bench = sorted((ROOT / "bench").glob("*.py"))
    unused = unnamed_definitions(PACKAGE, bench, set(kohmoto.__all__))
    assert not unused, f"defined in src/kohmoto but used by nothing there or in bench/: {unused}"


def test_layout_check_flags_an_unused_definition(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "def exported():\n    pass\n\n"
        "class Traced:\n    pass\n"
    )
    bench = tmp_path / "run.py"
    bench.write_text('TARGETS = [("pkg.mod", "Traced.method")]\n')
    assert unnamed_definitions(pkg, [bench], {"exported"}) == ["mod.recursive"]
