"""Every public callable against a fixed corpus of malformed numbers and arrays.

Each callable in diagdist.__all__ is called with valid arguments but one,
a number, an array or the force flag of a search or of the oracle, which
takes each value of CORPUS in turn.  Graph, field, word and file-text arguments are not
varied.  Each call must:

* raise ValueError or IndexError with a one-line message;
* raise TypeError where the value has the wrong kind: None, a string, or
  a number where a sequence is needed;
* or be on ACCEPTED, with its reason, and then return.

Where an integer is needed (INT), NaN, inf and 1.5 must raise ValueError.
force (FLAG) takes only a bool, so every value of CORPUS raises ValueError:
a truthy string or NaN would lift every cap of the search or the oracle.
The five callables that take force read it before any cap is tested, so
it is refused on graphs far below every cap.
tests/test_hostile_inputs.py drives the same readers through the command
line, from mutated files.
"""

import signal

import numpy as np
import pytest

import diagdist
from diagdist import (
    CodeDistanceResult,
    DistanceReport,
    Multigraph,
    OperatorWord,
    PrimeField,
    SymplecticVector,
    apply_word,
    apply_x,
    apply_z,
    brute_force_distance,
    brute_force_pairwise,
    build_lambda,
    code_distance,
    diagonal_distance,
    generate,
    is_prime,
    kernel_basis,
    kernel_point,
    pairwise_distance,
    parse_codewords,
    rref,
    serialize,
    solve,
)

CORPUS = {
    "nan": float("nan"),
    "inf": float("inf"),
    "1.5": 1.5,
    "'x'": "x",
    "'7'": "7",
    "None": None,
    "[[1, [2]]]": [[1, [2]]],
    "2**70": 2**70,
    "()": (),
}
NON_INTEGRAL = {"nan", "inf", "1.5"}
INT, SEQ, FLAG = "an integer", "a sequence", "a bool"

F = PrimeField(3)
G = generate("cycle", 3)
GAMMA = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
L = [0, 1, 2]
WORD = OperatorWord(((1, 0), (0, 2), (0, 0)))
RECORD = DistanceReport(distance=1, witness=SymplecticVector((1, 0)), vectors_examined=3)

# name -> (call, {argument: INT or SEQ}): call takes the varied argument by keyword, the others valid
CALLS = {
    "CodeDistanceResult": (
        lambda delta=1, pair=(1, 1): CodeDistanceResult(delta, pair, {(1, 1): RECORD}),
        {"delta": INT, "pair": SEQ},
    ),
    "DistanceReport": (
        lambda distance=1, vectors_examined=3: DistanceReport(distance, RECORD.witness, vectors_examined),
        {"distance": INT, "vectors_examined": INT},
    ),
    "Multigraph": (lambda n=3, mult=GAMMA: Multigraph(n, mult), {"n": INT, "mult": SEQ}),
    "OperatorWord": (lambda exponents=((1, 0),): OperatorWord(exponents), {"exponents": SEQ}),
    "PrimeField": (lambda p=3: PrimeField(p), {"p": INT}),
    "SymplecticVector": (lambda entries=(1, 0): SymplecticVector(entries), {"entries": SEQ}),
    "apply_word": (lambda l=L, gamma=GAMMA: apply_word(WORD, l, gamma, F), {"l": SEQ, "gamma": SEQ}),
    "apply_x": (
        lambda l=L, i=1, e=1, gamma=GAMMA: apply_x(l, i, e, gamma, F),
        {"l": SEQ, "i": INT, "e": INT, "gamma": SEQ},
    ),
    "apply_z": (lambda l=L, i=1, e=1: apply_z(l, i, e, F), {"l": SEQ, "i": INT, "e": INT}),
    "brute_force_distance": (lambda force=True: brute_force_distance(G, F, force=force), {"force": FLAG}),
    "brute_force_pairwise": (
        lambda cr=L, cs=L, force=True: brute_force_pairwise(G, F, cr, cs, force=force),
        {"cr": SEQ, "cs": SEQ, "force": FLAG},
    ),
    "build_lambda": (lambda gamma=GAMMA: build_lambda(gamma), {"gamma": SEQ}),
    "code_distance": (
        lambda codewords=(L,), force=True: code_distance(G, F, codewords, force=force),
        {"codewords": SEQ, "force": FLAG},
    ),
    "diagonal_distance": (lambda force=True: diagonal_distance(G, F, force=force), {"force": FLAG}),
    "generate": (lambda n=3: generate("cycle", n), {"n": INT}),
    "is_prime": (lambda p=3: is_prime(p), {"p": INT}),
    "kernel_basis": (lambda m=GAMMA: kernel_basis(m, F), {"m": SEQ}),
    "kernel_point": (lambda gamma=GAMMA, x=L: kernel_point(gamma, x, F), {"gamma": SEQ, "x": SEQ}),
    "pairwise_distance": (
        lambda cr=L, cs=L, force=True: pairwise_distance(G, F, cr, cs, force=force),
        {"cr": SEQ, "cs": SEQ, "force": FLAG},
    ),
    "parse_codewords": (  # n_no_lines: the n of a text with no codeword line, which no line is checked against
        lambda n=3, n_no_lines=3: (parse_codewords("0 1 2\n", n, F), parse_codewords("", n_no_lines, F)),
        {"n": INT, "n_no_lines": INT},
    ),
    "rref": (lambda m=GAMMA: rref(m, F), {"m": SEQ}),
    "serialize": (lambda p=3: serialize(G, p), {"p": INT}),
    "solve": (lambda m=GAMMA, rhs=L: solve(m, rhs, F), {"m": SEQ, "rhs": SEQ}),
}
# callables whose arguments are all graphs, fields, words or text
UNVARIED = {
    "ParseError",
    "SearchTooLarge",
    "adjacency_matrix",
    "chi_weight",
    "eta_sum",
    "isolated_vertices",
    "parse_graph",
    "vanishing_edges",
}
RECORD_REASON = "a result record: the search builds it and it reads no caller value"
# (name, argument) for every corpus value, or (name, argument, corpus label) -> why the call returns
ACCEPTED = {
    ("CodeDistanceResult", "delta"): RECORD_REASON,
    ("CodeDistanceResult", "pair"): RECORD_REASON,
    ("DistanceReport", "distance"): RECORD_REASON,
    ("DistanceReport", "vectors_examined"): RECORD_REASON,
    ("serialize", "p", "None"): "no p header",
    ("SymplecticVector", "entries", "()"): "the vector of a word on no vertices: 0 entries is an even length",
    ("apply_x", "e", "2**70"): "an exponent is reduced mod p",
    ("apply_z", "e", "2**70"): "an exponent is reduced mod p",
    ("parse_codewords", "n_no_lines", "2**70"): "an integer n, and no codeword line to hold n values",
}
CASES = [(name, arg, label) for name, (_, args) in CALLS.items() for arg in args for label in CORPUS]


def test_every_public_callable_is_covered():
    public = {name for name in diagdist.__all__ if callable(getattr(diagdist, name))}
    assert public == set(CALLS) | UNVARIED and not set(CALLS) & UNVARIED


def test_every_accepted_input_is_a_case():
    pairs = {(name, arg) for name, arg, _ in CASES}
    assert all(key[:2] in pairs and set(key[2:]) <= set(CORPUS) for key in ACCEPTED)


def timed_out(signum, frame):
    raise TimeoutError("the call ran past 10 s")


@pytest.mark.parametrize("name, arg, label", CASES)
def test_a_malformed_value_is_refused_or_accepted_on_the_list(name, arg, label):
    call, kinds = CALLS[name]
    reason = ACCEPTED.get((name, arg)) or ACCEPTED.get((name, arg, label))
    old = signal.signal(signal.SIGALRM, timed_out)  # a loop run on inf or 2**70 fails the test, not the run
    signal.alarm(10)
    try:
        call(**{arg: CORPUS[label]})
    except (ValueError, IndexError) as e:
        assert not reason, f"{name}({arg}={label}) is on the accepted list ({reason}) but raised {e!r}"
        assert isinstance(e, ValueError) or kinds[arg] == SEQ or label not in NON_INTEGRAL, f"{name}: {e!r}"
        assert isinstance(e, ValueError) or kinds[arg] != FLAG, f"{name}({arg}={label}) raised {e!r}, not ValueError"
        assert "\n" not in str(e), f"{name}({arg}={label}) raised a message of several lines: {e}"
        return
    except TypeError as e:
        wrong_kind = label in ("None", "'x'") or kinds[arg] == SEQ and label in (*NON_INTEGRAL, "2**70")
        assert kinds[arg] != FLAG, f"{name}({arg}={label}) raised {e!r}, not ValueError"
        assert wrong_kind and not reason, f"{name}({arg}={label}) raised {e!r}"
        assert "\n" not in str(e)
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert reason, f"{name}({arg}={label}) was accepted, and is not on the accepted list"
    assert kinds[arg] == SEQ or label not in NON_INTEGRAL or reason == RECORD_REASON, f"{name}({arg}={label})"
