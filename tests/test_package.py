"""Package-level checks: the public names resolve, and the runtime imports
only the standard library."""

import ast
import sys
from pathlib import Path

import gluecount

SRC = Path(gluecount.__file__).parent


def test_every_public_name_resolves():
    for name in gluecount.__all__:
        assert getattr(gluecount, name, None) is not None, name


def test_runtime_imports_only_the_standard_library():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue  # relative imports stay inside the package
            for top in tops:
                assert top in sys.stdlib_module_names or top == "gluecount", (
                    f"{path.name} imports {top}"
                )


def _load_names(node: ast.AST) -> set:
    """Names a syntax tree reads, as bare names, attributes or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_runtime_definition_has_a_runtime_caller():
    """Code that only tests use belongs in ``tests/``: every top-level
    function and class in the package is read elsewhere in the package,
    exported, or imported by the acceptance suite or the benchmark."""
    repo = SRC.parent.parent
    outside = set(gluecount.__all__)
    for path in [repo / "tests" / "test_acceptance.py", *repo.glob("bench/*.py")]:
        outside |= _load_names(ast.parse(path.read_text()))
    modules = {path: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    reads = [
        (top, _load_names(top)) for module in modules.values() for top in module.body
    ]
    unused = [
        f"{path.name}:{node.name}"
        for path, module in sorted(modules.items())
        for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in outside
        and not any(node.name in names for top, names in reads if top is not node)
    ]
    assert unused == []
