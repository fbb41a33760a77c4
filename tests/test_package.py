"""Layout guards on the installed package: what it imports and exports."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "magpolaron"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_special_imports_scipy():
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if any(m.split(".")[0] == "scipy"
               for m in _imported_modules(_tree(path))))
    assert importers == ["special.py"]


def test_every_export_has_a_program_use():
    # a name the package exports must be used by the program itself, not
    # only by its own definition, the package __init__ or the tests
    init = PACKAGE / "__init__.py"
    exported = [alias.asname or alias.name
                for node in _tree(init).body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path == init:
                continue
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    assert exported
    assert [name for name in exported if name not in used] == []
