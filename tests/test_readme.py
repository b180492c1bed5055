"""README's Library example runs, and its Command line section names the parser's flags.

The fenced Python block under "## Library" is run statement by statement.
An expression statement whose line ends in a comment that is one integer,
as in ``rep.distance  # 3``, must evaluate to that integer.  Every --flag
under "## Command line" is an option of some subcommand, and every option
of a subcommand but --help is named there.
"""

import argparse
import ast
import re
from pathlib import Path

from diagdist import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert match, "README has no fenced python block under ## Library"
    return match.group(1)


def test_the_library_example_gives_the_values_its_comments_state():
    source = library_block()
    lines = source.splitlines()
    scope, checked = {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        stated = re.search(r"#\s*(-?\d+)\s*$", lines[node.end_lineno - 1])
        if isinstance(node, ast.Expr) and stated:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
            assert value == int(stated.group(1)), f"README states {code} is {stated.group(1)}, got {value!r}"
            checked.append(value)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert checked == [3, 31, 3]  # rep.distance, rep.vectors_examined, the pairwise distance


def test_the_command_line_section_names_every_flag_of_the_parser():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", text, re.DOTALL | re.MULTILINE)
    assert section, "README has no ## Command line section"
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section.group(1)))
    (subcommands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for sp in subcommands.choices.values() for a in sp._actions for o in a.option_strings}
    options = {o for o in options if o.startswith("--")} - {"--help"}
    assert documented == options, f"doc-only {sorted(documented - options)}, parser-only {sorted(options - documented)}"
