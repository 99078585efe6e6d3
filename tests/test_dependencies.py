"""numpy is the package's only runtime dependency outside the standard library."""

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
