"""No module of the package or demo imports a name it never reads.  No
linter is among the test dependencies, so the check is made here, on the
syntax tree.  ``__init__.py`` is skipped: its imports are re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for path in [*ROOT.glob("src/zstab/*.py"), *ROOT.glob("demos/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that the module's top-level imports bind and that no
    expression in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert unused_imports(source) == ["np", "path"]
