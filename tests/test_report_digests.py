"""Every report of a seeded set of searches, pinned as one digest per prime at two block sizes.

Each case draws a multigraph with multiplicities 0..p-1 from
random.Random, then runs a lone d = 0 search (diagonal_distance), a
random d and d = all ones (pairwise_distance), and code_distance on a
few codewords, so stacks headed by d = 0 and shared differences are
covered.  The digest hashes every (distance, witness, vectors_examined),
and delta and the pair of each code, in that order.  DIGESTS was
recorded from the support-level walk with one recipe per level, before
Gamma x was gathered per table and the code's pair table keyed by
integers; a change to the search must leave every report as it is.
"""

import hashlib
import random

import numpy as np
import pytest

from diagdist import PrimeField, code_distance, diagonal_distance, pairwise_distance
from diagdist import distance as D
from helpers import random_labelling, random_multigraph

SIZES = {2: (1, 4, 7, 10, 13, 16), 3: (1, 3, 5, 7, 9), 5: (1, 3, 5, 6), 7: (1, 3, 4, 5)}

DIGESTS = {2: "8d233386516d4ca9", 3: "eb81e6dd89c2c1a3", 5: "d5defb8a5c56824f", 7: "87fb2d689d7a05a5"}


def report_key(rep):
    return rep.distance, rep.witness.entries, rep.vectors_examined


def reports(p):
    f = PrimeField(p)
    for n in SIZES[p]:
        rng = random.Random(f"{p}/{n}")
        g = random_multigraph(rng, n, max_mult=p - 1)
        yield report_key(diagonal_distance(g, f))
        zeros = np.zeros(n, dtype=np.int64)
        for d in (random_labelling(rng, n, p), np.ones(n, dtype=np.int64)):
            yield report_key(pairwise_distance(g, f, d, zeros))
        for k in (1, 3, 2 + n % 9):
            words = [random_labelling(rng, n, p) for _ in range(k)]
            if k > 2:
                words.append(words[0].copy())  # a repeated codeword: its pairs share d = 0
            res = code_distance(g, f, words)
            yield res.delta, res.pair, [(pair, report_key(rep)) for pair, rep in res.table.items()]


@pytest.mark.parametrize("block", [1 << 3, 1 << 12])
@pytest.mark.parametrize("p", DIGESTS)
def test_reports_match_the_recorded_digest(monkeypatch, p, block):
    monkeypatch.setattr(D, "_BLOCK", block)
    digest = hashlib.sha256(repr(list(reports(p))).encode()).hexdigest()[:16]
    assert digest == DIGESTS[p]  # the block size never shows in a report
