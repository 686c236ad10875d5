"""No module of the package, of scripts/ or of tests/ imports a name it never reads.

No linter is part of the project's toolchain, so this is the check: a name an
import binds, other than a __future__ feature, must be read somewhere in the
module.  __init__.py is left out, since it imports names to export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (sorted(p for p in (ROOT / "src" / "apfree").glob("*.py")
                  if p.name != "__init__.py")
           + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that no expression reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as p\n"
              "import numpy.linalg\nfrom a import b, c as d\nos = numpy.linalg(d)\n")
    assert unused_imports(source) == ["b", "os", "p"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
