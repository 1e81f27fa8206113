"""``np.linalg.cholesky`` is called only inside ``linalg.cholesky_lower``, and
``require_admissible`` only inside ``linalg.freeze``.

Positive definiteness is decided in one place, with one pivot threshold;
a second Cholesky call elsewhere in the package would be a second
definiteness test, with bounds of its own.  Likewise each parameter type
has its matrices checked where ``freeze`` builds them, and nowhere else.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flexjoint"
CHOLESKY = ("np.linalg.cholesky", "numpy.linalg.cholesky")
ADMISSIBLE = ("require_admissible", "linalg.require_admissible")


def calls_to(source: str, callee: tuple) -> list:
    """``(enclosing function, line)`` of each call in ``source`` to ``callee``,
    given as the ways its name is written; the function is ``None`` at
    module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call) and ast.unparse(child.func) in callee:
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
              "    return np.linalg.solve(a, a)\n"
              "def freeze(obj):\n"
              "    require_admissible(obj.checks)\n"
              "class Params:\n"
              "    def __post_init__(self):\n"
              "        linalg.require_admissible([])\n")
    assert calls_to(source, CHOLESKY) == [(None, 2), ("cholesky_lower", 4), ("member", 7)]
    assert calls_to(source, ADMISSIBLE) == [("freeze", 10), ("__post_init__", 13)]


def test_cholesky_is_called_only_in_cholesky_lower():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    calls = {path.name: calls_to(path.read_text(encoding="utf-8"), CHOLESKY) for path in modules}
    assert calls["linalg.py"], "no np.linalg.cholesky call found in linalg.py"
    stray = [f"{name}:{line} in {function}" for name, found in calls.items()
             for function, line in found if (name, function) != ("linalg.py", "cholesky_lower")]
    assert not stray, "np.linalg.cholesky outside linalg.cholesky_lower: " + ", ".join(stray)


def test_require_admissible_is_called_only_in_freeze():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    calls = {path.name: calls_to(path.read_text(encoding="utf-8"), ADMISSIBLE) for path in modules}
    assert calls["linalg.py"], "no require_admissible call found in linalg.py"
    stray = [f"{name}:{line} in {function}" for name, found in calls.items()
             for function, line in found if (name, function) != ("linalg.py", "freeze")]
    assert not stray, "require_admissible outside linalg.freeze: " + ", ".join(stray)
