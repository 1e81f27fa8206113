"""``np.linalg.cholesky`` is called only inside ``linalg.cholesky_lower``.

Positive definiteness is decided in one place, with one pivot threshold;
a second Cholesky call elsewhere in the package would be a second
definiteness test, with bounds of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flexjoint"


def cholesky_calls(source: str) -> list:
    """``(enclosing function, line)`` of each ``np.linalg.cholesky`` or
    ``numpy.linalg.cholesky`` call in ``source``; the function is ``None``
    at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call) and ast.unparse(child.func) in (
                    "np.linalg.cholesky", "numpy.linalg.cholesky"):
                found.append((function, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_finds_cholesky_calls():
    source = ("import numpy as np\n"
              "L = np.linalg.cholesky(a)\n"
              "def cholesky_lower(a):\n"
              "    return np.linalg.cholesky(a)\n"
              "def _stack(a):\n"
              "    def member(m):\n"
              "        return numpy.linalg.cholesky(m)\n"
              "    return np.linalg.solve(a, a)\n")
    assert cholesky_calls(source) == [(None, 2), ("cholesky_lower", 4), ("member", 7)]


def test_cholesky_is_called_only_in_cholesky_lower():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    calls = {path.name: cholesky_calls(path.read_text(encoding="utf-8")) for path in modules}
    assert calls["linalg.py"], "no np.linalg.cholesky call found in linalg.py"
    stray = [f"{name}:{line} in {function}" for name, found in calls.items()
             for function, line in found if (name, function) != ("linalg.py", "cholesky_lower")]
    assert not stray, "np.linalg.cholesky outside linalg.cholesky_lower: " + ", ".join(stray)
