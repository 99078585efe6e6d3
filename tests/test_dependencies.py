"""Import hygiene: numpy is the only runtime dependency outside the standard
library, and no module imports a name it does not use."""

import ast
import sys
from pathlib import Path

import dmtrav

ALLOWED = {"numpy", "dmtrav"}


def test_every_absolute_import_is_stdlib_numpy_or_dmtrav():
    outside = []
    for path in sorted(Path(dmtrav.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ALLOWED:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export; every other module uses each name it imports
    unused = []
    for path in sorted(Path(dmtrav.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
