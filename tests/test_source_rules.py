"""Rules on the program's source under src/: line length, imports, asserts and memos.

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


def memo_faults(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each functools memo in tree without an integer maxsize.

    lru_cache must be called with an int maxsize, by keyword or first by
    position; a bare @lru_cache, maxsize=None and functools.cache set no
    integer bound, or none.
    """
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    faults = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            faults += [(node.lineno, "functools.cache") for a in node.names if a.name == "cache"]
        elif name == "cache" and isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            faults.append((node.lineno, "functools.cache"))
        elif name == "lru_cache":
            call = calls.get(id(node))
            sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1] if call else []
            if not any(isinstance(s, ast.Constant) and type(s.value) is int for s in sizes):
                faults.append((node.lineno, "lru_cache without an integer maxsize"))
    return faults

def test_every_memo_has_an_integer_maxsize():
    """Each memo under src/ promises a bound in its docstring; an unbounded one grows with every key searched."""
    bad = [
        f"{f}:{line}: {what}"
        for f in MODULES
        for line, what in memo_faults(ast.parse(f.read_text(encoding="utf-8")))
    ]
    assert not bad, "\n".join(bad)


def test_the_memo_rule_refuses_every_unbounded_form():
    bounded = "@functools.lru_cache(maxsize=8)\ndef f(): pass\n@lru_cache(16)\ndef g(): pass\n"
    assert memo_faults(ast.parse(bounded)) == []
    for unbounded in (
        "@functools.lru_cache(maxsize=None)\ndef f(): pass",
        "@functools.lru_cache(None)\ndef f(): pass",
        "@functools.lru_cache\ndef f(): pass",
        "@lru_cache()\ndef f(): pass",
        "@functools.lru_cache(maxsize=SIZE)\ndef f(): pass",
        "@functools.cache\ndef f(): pass",
        "from functools import cache",
    ):
        assert memo_faults(ast.parse(unbounded)), unbounded
