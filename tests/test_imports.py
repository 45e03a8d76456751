"""Every name a module of the package, its scripts or its tests imports is used in that
module."""

import ast
from pathlib import Path

import pytest

import seqskip

SRC = Path(seqskip.__file__).parent
ROOT = Path(__file__).parent.parent
# The package's modules by name, the scripts' and the tests' by directory and name.
MODULES = {p.stem: p for p in SRC.glob("*.py")} | {
    f"{d}/{p.stem}": p for d in ("scripts", "tests") for p in (ROOT / d).glob("*.py")
}


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads. A name counts as read where the
    module loads it, where ``__all__`` lists it, and where a string annotation names it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for item in ast.walk(annotation) if annotation else ():
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    read |= {n.id for n in ast.walk(ast.parse(item.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "x: 'b' = np.zeros(1)\n__all__ = ['d']\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []
