"""Rules on the program's source under src/: line length, imports and asserts.

Each test names every offending line, as file:line, and fails.  Tier-1
runs them on every Python and numpy of the CI matrix, and locally.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def test_the_rules_see_the_package():
    assert SRC / "diagdist" / "distance.py" in MODULES


def test_lines_are_at_most_120_characters():
    long = [
        f"{f}:{i}: {len(s)} characters"
        for f in MODULES
        for i, s in enumerate(f.read_text(encoding="utf-8").splitlines(), 1)
        if len(s) > 120
    ]
    assert not long, "\n".join(long)


def test_modules_import_only_the_standard_library_and_numpy():
    """No dependency beyond numpy; relative imports and the packages under src/ are the program's own."""
    ours = sys.stdlib_module_names | {"numpy"} | {p.stem for p in SRC.iterdir()}
    bad = [
        f"{f}:{node.lineno}: {name}"
        for f in MODULES
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
        for name in (
            [a.name for a in node.names]
            if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
        )
        if name.split(".")[0] not in ours
    ]
    assert not bad, "\n".join(bad)


def test_no_assert_statement():
    """python -O strips asserts, and the program's correctness checks must still run under it."""
    bad = [
        f"{f}:{node.lineno}: assert"
        for f in MODULES
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not bad, "\n".join(bad)
