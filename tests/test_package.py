"""Layout guards on the installed package: what it imports and exports."""
import ast
import importlib
import json
from graphlib import TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "magpolaron"
# lines of src/magpolaron/*.py when the budget was last set; a change that
# grows src/ raises it in its own diff and says why in CHANGES.md
SRC_LINE_BUDGET = 2244


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_within_line_budget():
    lines = sum(len(path.read_text().splitlines())
                for path in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET


def test_only_special_imports_scipy():
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if any(m.split(".")[0] == "scipy"
               for m in _imported_modules(_tree(path))))
    assert importers == ["special.py"]


def test_no_module_imports_a_private_name_of_another():
    # a module's underscored names are its own: no module of the package
    # reaches into a sibling with from .x import _name
    reached = sorted(
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_"))
    assert reached == []


def test_oracles_import_no_function_of_grids():
    # the test oracles form their transforms themselves: none calls the
    # production transform it is meant to check
    imported = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(_tree(ROOT / "tests" / "oracles.py"))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("magpolaron")
        for alias in node.names
        if alias.name == "grids" or getattr(getattr(
            importlib.import_module(node.module), alias.name, None),
            "__module__", None) == "magpolaron.grids"]
    assert imported == []


def test_scripts_leave_input_and_failures_to_the_cli():
    # cli.parse_b turns ln B into B and cli.run maps failures to exit
    # codes: a script holds no try statement and calls no exp
    found = sorted(
        f"{path.name}: {type(node).__name__}"
        for path in (ROOT / "scripts").glob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Try) or (
            isinstance(node, ast.Call) and "exp" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))))
    assert found == []


def test_sweep_takes_B_values():
    (sweep,) = [node for node in _tree(PACKAGE / "cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "sweep"]
    assert sweep.args.args[0].arg == "B_values"


def _sibling_imports(path):
    """(sibling module, line, at top level) for each relative import."""
    tree = _tree(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            # from . import x names the module x
            for module in ([node.module] if node.module
                           else [alias.name for alias in node.names]):
                yield module, node.lineno, node in tree.body


def test_sibling_imports_sit_at_top_level():
    # a module states what it needs of its siblings where it starts, not
    # inside a function, where an import cycle can hide
    nested = sorted(f"{path.name}:{line}: from .{module}"
                    for path in PACKAGE.glob("*.py")
                    for module, line, top in _sibling_imports(path) if not top)
    assert nested == []


def test_sibling_import_graph_is_acyclic():
    graph = {path.stem: {module for module, _, _ in _sibling_imports(path)}
             for path in PACKAGE.glob("*.py")}
    TopologicalSorter(graph).prepare()  # raises CycleError naming a cycle


def _program_files():
    for top in ("src", "scripts", "perfbench"):
        yield from (path for path in (ROOT / top).rglob("*.py")
                    if not path.name.startswith("test_"))


def _used_names(tree, skip=None):
    """Names the tree loads or reads as attributes outside the subtree skip;
    an imported name counts only where its binding is loaded."""
    loaded, bound = set(), {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.alias):
            bound[node.asname or node.name] = node.name
        stack.extend(ast.iter_child_nodes(node))
    return loaded | {name for alias, name in bound.items() if alias in loaded}


def test_every_export_has_a_program_use():
    # a name the package exports must be used by the program itself, not
    # only by its own definition, the package __init__ or the tests
    init = PACKAGE / "__init__.py"
    exported = [alias.asname or alias.name
                for node in _tree(init).body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    used = set()
    for path in _program_files():
        if path != init:
            used |= _used_names(_tree(path))
    assert exported
    assert [name for name in exported if name not in used] == []


def test_every_public_definition_has_a_program_use():
    # each public module-level function or class of the package is used in
    # src/ outside its own definition and __init__, or in scripts/ or
    # perfbench/; one only tests call belongs in tests/
    init = PACKAGE / "__init__.py"
    trees = {path: _tree(path) for path in _program_files() if path != init}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module == init:
            continue
        for node in trees[module].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if not any(node.name in _used_names(
                    tree, skip=node if path == module else None)
                    for path, tree in trees.items()):
                unused.append(f"{module.name}:{node.name}")
    assert unused == []


def _package_uses(tree, exports):
    """(module, name) pairs the tree loads through an import of the package
    or of one of its modules; exports maps each name the package __init__
    brings in to its module."""
    modules, names = {}, {}  # local binding -> module, or (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if source.split(".")[0] != "magpolaron":
                    continue
                source = source.partition(".")[2]
            for alias in node.names:
                local = alias.asname or alias.name
                if source or alias.name in exports:
                    names[local] = (source or exports[alias.name],
                                    alias.name)
                else:  # from magpolaron import pekar names a module
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "magpolaron":
                    modules[alias.asname or alias.name] = \
                        alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in names:
            yield names[node.id]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield (modules[node.value.id] or exports.get(node.attr),
                   node.attr)


def test_every_public_function_is_used_outside_its_module():
    # a function only its own module calls is private to it: each public
    # module-level function of the package is loaded by another program
    # file through an import, unless a per-layer metric of BENCHMARK.json
    # names it, as perfbench's tracer wraps public functions by name.  cli
    # is exempt: _late reaches its cmd_* functions through globals()
    init = PACKAGE / "__init__.py"
    exports = {alias.asname or alias.name: node.module
               for node in _tree(init).body if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    traced = {".".join(metric["name"].split(".")[:2]) for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    uses = {path: set(_package_uses(_tree(path), exports))
            for path in _program_files() if path != init}
    unused = [f"{module.stem}.{node.name}"
              for module in sorted(PACKAGE.glob("*.py"))
              if module not in (init, PACKAGE / "cli.py")
              for node in _tree(module).body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")
              and f"{module.stem}.{node.name}" not in traced
              and not any((module.stem, node.name) in used
                          for path, used in uses.items() if path != module)]
    assert unused == []


def _named(tree):
    """Every identifier the tree defines, loads, stores or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def test_oned_alone_scales_the_flow():
    # oned alone decides where a 1D field is sampled and forms the flow's
    # unit-width coupling a lam/mu: callers state the physical problem and
    # no other module names the grid rule or passes a grid to it
    grid_rule = {"SPECTRAL_N", "_GRID", "scaled_grid", "_scaled_grid"}
    assert sorted(f"{path.name}: {name}"
                  for path in PACKAGE.glob("*.py") if path.name != "oned.py"
                  for name in set(_named(_tree(path))) & grid_rule) == []
    defs = {node.name: [a.arg for a in node.args.args]
            for node in _tree(PACKAGE / "oned.py").body
            if isinstance(node, ast.FunctionDef)}
    assert defs["closed_form_minimizer"] == ["p"]
    assert "grid" not in defs["_minimize_on_sphere"]
    lams = [node.args[3] if len(node.args) > 3 else next(
                kw.value for kw in node.keywords if kw.arg == "lam")
            for path in PACKAGE.glob("*.py")
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call) and "solve_weighted" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))]
    assert len(lams) == 3
    assert [ast.unparse(lam) for lam in lams
            if any(isinstance(n, ast.Name) and n.id == "mu"
                   for n in ast.walk(lam))] == []
