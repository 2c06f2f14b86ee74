"""Every backticked ``module.name`` or ``yolite.module.name`` in README.md
names an attribute of that yolite module, so a rename cannot leave the
README pointing at nothing."""

import importlib
import re
from pathlib import Path

import yolite

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {p.stem for p in Path(yolite.__file__).parent.glob("*.py")}
REFERENCE = re.compile(r"(?:yolite\.)?(\w+)\.(\w+)")


def readme_references() -> set[tuple[str, str]]:
    """(module, name) for each backticked span that starts with a yolite
    module's dotted name."""
    refs = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        match = REFERENCE.match(span)
        if match and match.group(1) in MODULES:
            refs.add(match.groups())
    return refs


def test_readme_references_resolve():
    refs = readme_references()
    assert refs
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"yolite.{module}"), name)]
    assert missing == []
