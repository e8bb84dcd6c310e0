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
