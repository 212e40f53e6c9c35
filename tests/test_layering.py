"""The package's module layering: which module may import which.

graphs and linalg are the base layer, spectrum and seidel each rest on them
alone, and the census, constructions and CLI sit on top.  A module that
imports outside its entry below breaks the layering; a new module needs an
entry.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mainspectra"

ALLOWED = {
    "__init__": {"census", "constructions", "equitable", "graph6", "graphs", "linalg",
                 "seidel", "spectrum"},
    "__main__": {"cli"},
    "census": {"graph6", "graphs", "linalg", "seidel", "spectrum"},
    "cli": {"census", "constructions", "equitable", "graph6", "graphs", "seidel", "spectrum"},
    "constructions": {"equitable", "graphs", "spectrum"},
    "equitable": {"graphs", "linalg"},
    "graph6": {"graphs"},
    "graphs": set(),
    "linalg": set(),
    "seidel": {"graphs", "linalg"},
    "spectrum": {"graphs", "linalg"},
}


def _package_imports(path: Path) -> set:
    """The package modules path imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:  # from . import x
                    found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "mainspectra":
                found.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mainspectra":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED)


def test_modules_import_only_their_lower_layers():
    for path in sorted(PACKAGE.glob("*.py")):
        extra = _package_imports(path) - ALLOWED[path.stem]
        assert not extra, f"{path.stem} imports {sorted(extra)}"

