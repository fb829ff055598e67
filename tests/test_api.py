import ast
import re
from pathlib import Path

import wassbayes as wb

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wassbayes"


def names_used_in_package() -> set[str]:
    """Every name the package's modules read, import or access as an attribute."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_public_names_are_used_or_documented():
    # the public API is what the package itself uses plus what the README
    # documents; anything else is surface that only tests call
    used = names_used_in_package()
    readme = (ROOT / "README.md").read_text()
    orphans = [name for name in wb.__all__ if name not in used
               and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert orphans == []

