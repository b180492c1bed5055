"""code_distance makes the graph's set-up once and searches each distinct difference once.

Its pair table must equal, entry for entry, what the one-pair functions
report: the same distance, witness and vectors_examined.
"""

import random

import numpy as np
import pytest

from diagdist import PrimeField, code_distance, diagonal_distance, generate, pairwise_distance
from diagdist import distance as D
from helpers import random_multigraph

F2 = PrimeField(2)

# (p, n values): n spans one block and several at the 2**3 block size
SIZES = [(2, (3, 6, 10)), (3, (2, 4, 7)), (5, (2, 3, 5))]


def codewords(rng, n, p, k):
    """k labellings with repeats, a shared difference and unreduced entries."""
    words = [np.array([rng.randrange(-p, 2 * p) for _ in range(n)], dtype=np.int64) for _ in range(k)]
    words.append(words[rng.randrange(k)].copy())  # a repeated codeword
    words.append(words[0] + words[1] - words[2])  # words[-1] - words[1] = words[0] - words[2]
    words.append(words[3] + p)  # equal to words[3] mod p
    return words


def key(rep):
    return (rep.distance, rep.witness.entries, rep.vectors_examined)


@pytest.mark.parametrize("block", [D._BLOCK, 1 << 3])
def test_table_matches_one_pair_searches(monkeypatch, block):
    monkeypatch.setattr(D, "_BLOCK", block)
    rng = random.Random(2024)
    for p, ns in SIZES:
        f = PrimeField(p)
        for n in ns:
            for _ in range(2):
                g = random_multigraph(rng, n, max_mult=p)
                words = codewords(rng, n, p, 4)
                res = code_distance(g, f, words)
                assert len(res.table) == len(words) * (len(words) + 1) // 2
                for (r, s), rep in res.table.items():
                    if r == s:
                        want = diagonal_distance(g, f)
                    else:
                        want = pairwise_distance(g, f, words[r - 1], words[s - 1])
                    assert key(rep) == key(want), (p, n, r, s)
                assert res.delta == min(rep.distance for rep in res.table.values())
                assert res.table[res.pair].distance == res.delta


def test_one_set_up_per_call(monkeypatch):
    calls = {"adjacency_matrix": 0, "build_lambda": 0}

    def counted(name):
        real = getattr(D, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(D, name, counted(name))
    rng = random.Random(7)
    words = [np.array([rng.randrange(2) for _ in range(5)], dtype=np.int64) for _ in range(6)]
    code_distance(generate("cycle", 5), F2, words)
    assert calls == {"adjacency_matrix": 1, "build_lambda": 1}


def test_every_codeword_length_is_checked():
    with pytest.raises(ValueError, match="length 5"):
        code_distance(generate("cycle", 5), F2, [np.zeros(3)])
    with pytest.raises(ValueError, match="length 5"):
        code_distance(generate("cycle", 5), F2, [np.zeros(5), np.zeros(5), np.zeros(6)])
