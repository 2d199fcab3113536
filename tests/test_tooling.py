"""Source-level checks on the package itself."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "redhom"


def test_no_assert_statements_in_package():
    # assert statements vanish under python -O; invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert not found, f"plain assert statements: {found}"


def test_only_gf_names_matrix():
    # maps and Hom bases are plain arrays; gf.Matrix must not spread back
    word = re.compile(r"\bMatrix\b")
    found = [f"{path.name}:{lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "gf.py"
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if word.search(line)]
    assert not found, f"Matrix named outside gf.py: {found}"
