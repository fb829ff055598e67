import ast
import dataclasses
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



def test_readme_library_names_resolve():
    # the reverse direction: every name the README's library section shows
    # in backticks is a public name or an attribute of an exported class,
    # so a removed function cannot stay documented
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    classes = [obj for obj in (getattr(wb, name) for name in wb.__all__)
               if isinstance(obj, type)]
    members = {name for cls in classes for name in dir(cls)}
    members |= {f.name for cls in classes if dataclasses.is_dataclass(cls)
                for f in dataclasses.fields(cls)}
    spans = re.findall(r"`([^`]+)`", section)
    assert spans
    unknown = []
    for span in spans:
        if span.startswith("src/"):  # a source path, not a name
            continue
        name = re.match(r"[A-Za-z_]\w*", span).group()
        if not hasattr(wb, name) and name not in members:
            unknown.append(span)
    assert unknown == []
