"""No module of the package imports another module's private name.

A name that starts with an underscore belongs to its module.  When a
second module needs it, the math it computes wants one public owner (as
``control.ShapedLoop`` owns the plant-shaping matrices), not a second user.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flexjoint"


def private_imports(source: str) -> list:
    """``(module, name)`` of each underscore-prefixed name, dunders aside,
    that ``source`` imports from the package, relatively or by ``flexjoint``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "flexjoint"):
            found += [("." * node.level + (node.module or ""), alias.name)
                      for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_finds_private_imports():
    assert private_imports("from .control import ShapedLoop, _input_gain\n") \
        == [(".control", "_input_gain")]
    assert private_imports("from . import _kernel, __version__\n") == [(".", "_kernel")]
    assert private_imports("from flexjoint.sim import _scan\nfrom numpy import _x\n"
                           "from __future__ import annotations\n") == [("flexjoint.sim", "_scan")]


def test_no_module_imports_a_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}: {module} {name}" for path in modules
             for module, name in private_imports(path.read_text(encoding="utf-8"))]
    assert not found, "private names imported across modules: " + ", ".join(found)
