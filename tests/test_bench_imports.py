"""The benchmark under ``bench/`` imports names from flexjoint; each must exist.

``bench/test_bench.py`` runs the benchmark itself, which is slow; this check
only resolves the imports, so a renamed or deleted name fails here at once.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_bench_import_from_flexjoint_resolves():
    imported, missing = set(), []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "flexjoint":
                imported.add(node.module)
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert imported >= {"flexjoint", "flexjoint.cli", "flexjoint.poly"}
    assert not missing, "bench imports names flexjoint does not define: " + ", ".join(missing)
