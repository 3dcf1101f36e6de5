"""Golden digests of the certificates synthesize emits on two fixed corpora.

Any change to a certificate's bytes on either corpus changes its digest.
Certificates are meant to stay byte-identical across refactors of the
synthesizer; a change that alters them on purpose records new digests.
"""

from __future__ import annotations

import hashlib
import random

from wlhom import Graph, certificate_to_json, synthesize

from .conftest import enumerate_graphs

CENSUS_DIGEST = "846b0d02ce4bd8ed352d4c2912e919d43333598bfefd3c719d222b24a0f41f9a"
SWAP_DIGEST = "b0ae2407751de658a6f197e56a95480242c2853339307cd0dacc732ec6c818f6"


def _digest(pairs) -> str:
    sha = hashlib.sha256()
    for g1, g2 in pairs:
        sha.update(certificate_to_json(synthesize(g1, g2)).encode())
    return sha.hexdigest()


def census_pairs():
    """All ordered pairs of graphs with 1 to 5 vertices, up to isomorphism."""
    census = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    return [(g1, g2) for g1 in census for g2 in census]


def swap_pairs(count: int = 250, seed: int = 2):
    """Seeded G(n, p) graphs on 8-24 vertices against one double-edge swap.

    A swap keeps every degree, so the pair agrees at level 1 and, when it
    differs at all, first differs at level 2 or later. With these settings
    the pairs first differ at levels 2 to 4, lifts choose m up to 4, and
    the largest count has 38 bits.
    """
    rnd = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rnd.randint(8, 24)
        p = rnd.uniform(2.0, 12.0) / (n - 1)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rnd.random() < p]
        present = set(edges)
        if len(edges) < 2:
            continue
        (a, b), (c, d) = rnd.sample(edges, 2)
        new = (tuple(sorted((a, d))), tuple(sorted((c, b))))
        if len({a, b, c, d}) < 4 or any(e in present for e in new):
            continue
        kept = [e for e in edges if e not in ((a, b), (c, d))]
        pairs.append((Graph(n, edges), Graph(n, kept + list(new))))
    return pairs


def test_census_digest():
    assert _digest(census_pairs()) == CENSUS_DIGEST


def test_swap_digest():
    assert _digest(swap_pairs()) == SWAP_DIGEST
