"""Swapped pairs that first differ at level 3.

The benchmark's swap workload redraws a double-edge swap until level 2
changes. These pairs keep the first swap that changes the edges but not
level 2, drawn with `random.Random(1)` over `SWAP_SHAPES` of
bench/workloads.py, which is read from its path and not modified. All 16
first differ at level 3, where the lift has to separate hundreds of ranks.
"""

from __future__ import annotations

import functools
import random
import runpy
from pathlib import Path

import pytest

from wlhom import Graph, serialize_graph, synthesize, verify
from wlhom.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@functools.cache
def level3_pairs() -> tuple[tuple[Graph, Graph], ...]:
    bench = runpy.run_path(str(WORKLOADS))
    gnp, swap, level2_differs = (
        bench[name] for name in ("gnp", "double_edge_swap", "level2_differs"))
    rng = random.Random(1)
    pairs = []
    for n, d in bench["SWAP_SHAPES"]:
        g = gnp(n, d, rng)
        h = swap(g, rng)
        while h[1] == g[1] or level2_differs(g, h):
            h = swap(g, rng)
        pairs.append((Graph(*g), Graph(*h)))
    return tuple(pairs)


@pytest.mark.parametrize("index", range(16))
def test_level3_pair_gets_a_passing_certificate(index):
    g1, g2 = level3_pairs()[index]
    cert = synthesize(g1, g2)
    assert (cert.mode, cert.level) == ("tree", 3)
    assert verify(cert, g1, g2)


def test_level3_pair_through_the_cli(tmp_path, capsys):
    g1, g2 = level3_pairs()[0]
    a, b, out = tmp_path / "a", tmp_path / "b", tmp_path / "cert.json"
    a.write_text(serialize_graph(g1), encoding="utf-8")
    b.write_text(serialize_graph(g2), encoding="utf-8")
    assert main(["synthesize", str(a), str(b), "--out", str(out)]) == 0
    assert main(["verify", str(out), str(a), str(b)]) == 0
    assert capsys.readouterr().out == "PASS\n"
