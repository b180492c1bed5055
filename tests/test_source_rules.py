"""Rules on the program's source under src/: line length, imports, asserts and memos.

Every memo must have an integer bound and be one that the tests'
clear_memos empties.

Each test names every offending line, as file:line, and fails.  Tier-1
runs them on every Python and numpy of the CI matrix, and locally.  The
last test checks that the benchmark's spans still find every function
they wrap.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import helpers

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


def memo_functions(tree: ast.Module) -> list[tuple[int, str, bool]]:
    """(line, name, top level) for each function in tree that functools.lru_cache decorates, at any depth."""
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)) == "lru_cache":
                    found.append((node.lineno, node.name, id(node) in top))
    return found


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_clear_memos_empties_every_memo():
    """Each lru_cache memo under src/ is an attribute with cache_clear of a module that helpers.clear_memos scans.

    A test that starts cold calls clear_memos; a memo it did not find would
    hand that test warm tables.
    """
    scanned = {module.__name__: module for module in helpers.MEMO_MODULES}
    bad = [
        f"{f}:{line}: {name}"
        for f in MODULES
        for line, name, top in memo_functions(ast.parse(f.read_text(encoding="utf-8")))
        if not top or not hasattr(getattr(scanned.get(module_name(f)), name, None), "cache_clear")
    ]
    assert not bad, "clear_memos does not empty:\n" + "\n".join(bad)


def test_the_memo_scan_rule_sees_every_decorator_form():
    source = (
        "@functools.lru_cache(maxsize=8)\ndef f(): pass\n@lru_cache(16)\ndef g(): pass\n"
        "class C:\n    @functools.lru_cache(4)\n    def h(self): pass\n@other\ndef k(): pass\n"
    )
    assert memo_functions(ast.parse(source)) == [(2, "f", True), (4, "g", True), (7, "h", False)]  # the def lines
    assert module_name(SRC / "diagdist" / "oracle.py") == "diagdist.oracle"
    assert module_name(SRC / "diagdist" / "__init__.py") == "diagdist"


def test_every_benchmark_span_finds_the_function_it_wraps(monkeypatch):
    """bench/spans.py wraps each function at the module attribute where its caller looks it up.

    Tier-1 collects tests/ alone, so without this a name that leaves
    diagdist.cli or diagdist.distance, say an import moved into the one
    function that uses it, would fail only the traced benchmark run.
    spans.py imports only the standard library, numpy and diagdist.
    """
    spec = importlib.util.spec_from_file_location("bench_spans", SRC.parent / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclass looks its module up there
    spec.loader.exec_module(spans)
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _, _ in spans.TARGETS if not callable(getattr(module, attr, None))
    ]
    assert spans.TARGETS
    assert not missing, "\n".join(missing)
