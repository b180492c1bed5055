"""Seeded hostile input through the command line: every run ends with an exit code and at most one error line.

Valid graph and codeword files are mutated token by token and line by
line: tokens dropped, duplicated and garbled, replaced by floats, by
integers past int64 and by negative ones; lines dropped and duplicated;
and empty files.  The oversized code, MAX_CODEWORDS + 1 codewords, is
one more input.  distance, code-distance, kernel and verify run on each
input in-process through cli.main.  No exception may escape, the exit
code is 0 (success), 1, 2 or 3 (usage, parse or validation, budget), and
a nonzero exit prints nothing on stdout and exactly one line,
"diagdist: error: ...", on stderr.  Exit code 4, a mismatch between the
search and the oracle, would be a wrong answer, so it fails the test too.
"""

import random

from diagdist.cli import main
from diagdist.distance import MAX_CODEWORDS

# (graph file, codeword file of the same n): p = 2, 3 and 5, with a comment, a blank line and a multiplicity
VALID = [
    ("n 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n", "0 0 0 0 0\n1 1 1 1 1\n1 0 1 0 0\n"),
    ("p 3\nn 4\ne 1 2\ne 2 3 2\ne 3 4\n", "0 1 2 0\n2 2 1 1\n-1 4 0 3\n"),
    ("# a triangle\np 5\nn 3\n\ne 1 2 4\ne 2 3\ne 1 3 7\n", "# words\n0 1 2\n4 4 4\n"),
]
TOKENS = ["1.5", "2.0", "1e3", "nan", "inf", "-1", "-7", "0", str(2**63), str(2**64 - 1), str(-(2**70)), "9" * 30]


def mutate(rng, text):
    """text with one to three token or line mutations."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        kind = rng.randrange(6)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = rng.randrange(len(lines[i]))
            token = lines[i][j]
            if kind == 2:
                del lines[i][j]
            elif kind == 3:
                lines[i].insert(j, token)
            elif kind == 4:
                k = rng.randrange(len(token))
                lines[i][j] = token[:k] + rng.choice("0123456789-.ex#p") + token[k + 1 :]
            else:
                lines[i][j] = rng.choice(TOKENS)
    return "".join(" ".join(line) + "\n" for line in lines)


def cases():
    rng = random.Random(2013)
    for graph, codes in VALID:
        yield graph, codes
        yield "", codes
        yield graph, ""
        for _ in range(40):
            yield mutate(rng, graph), codes
            yield graph, mutate(rng, codes)
    yield VALID[0][0], "1 1 1 1 1\n" * (MAX_CODEWORDS + 1)


def test_hostile_files_exit_with_one_error_line(capsys, tmp_path):
    graph_file, codes_file = tmp_path / "g.eg", tmp_path / "c.cw"
    g, c = str(graph_file), str(codes_file)
    seen = set()
    for graph, codes in cases():
        graph_file.write_text(graph)
        codes_file.write_text(codes)
        for argv in (["distance", g], ["kernel", g], ["verify", g], ["code-distance", g, c]):
            try:
                code = main(argv)
            except Exception as exc:  # name the input that let it escape
                raise AssertionError(f"{argv[0]} let {exc!r} escape on graph {graph!r}, codes {codes!r}") from exc
            out, err = capsys.readouterr()
            where = f"{argv[0]} on graph {graph!r}, codes {codes!r}: exit {code}, stderr {err!r}"
            assert code in (0, 1, 2, 3), where
            if code:
                assert out == "" and err.startswith("diagdist: error: ") and err.count("\n") == 1, where
            else:
                assert out and all(line.startswith("warning: ") for line in err.splitlines()), where
            seen.add(code)
    assert seen == {0, 2, 3}  # the mutations reach success, parse errors and budget refusals
