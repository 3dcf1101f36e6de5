"""The console script's frozen outputs, called in-process, and the one
argument parser that every `main` call in a process shares."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wlhom import cli as cli_module
from wlhom.cli import main
from wlhom.graphs import serialize_graph
from wlhom.synth import SynthesisInvariantError

from .conftest import caterpillar

SRC = Path(__file__).resolve().parent.parent / "src"

# T_A and T_B of conftest.py, which first differ at level 2, as edge lists.
TA = "6 5\n0 1\n1 2\n2 3\n3 4\n2 5\n"
TB = "6 5\n0 1\n1 2\n2 3\n3 4\n3 5\n"
# A 6-vertex path, a relabelled copy, and two 3-vertex paths.
P6 = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"
Q6 = "6 5\n3 0\n0 5\n5 1\n1 4\n4 2\n"
P3P3 = "6 4\n0 1\n1 2\n3 4\n4 5\n"
# C6 and two triangles: both 2-regular, so stable at round 0.
C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
C3C3 = "6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"
# Two 15-vertex caterpillars: a 14-vertex spine with a pendant at vertex 7
# respectively 8. The refinement driver hands over to its worklist after
# one dense level, and the worklist runs on to the first difference at
# level 4.
SPINE = "15 14\n" + "".join(f"{i} {i + 1}\n" for i in range(13))
CAT7 = SPINE + "7 14\n"
CAT8 = SPINE + "8 14\n"
# A 4-vertex and a 3-vertex graph, which differ at level 0.
S4 = "4 2\n0 1\n1 2\n"
S3 = "3 2\n0 1\n1 2\n"
# T_A and T_B with an isolated vertex 6 each.
TA7 = "7 5\n0 1\n1 2\n2 3\n3 4\n2 5\n"
TB7 = "7 5\n0 1\n1 2\n2 3\n3 4\n3 5\n"


@pytest.fixture
def write(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(argv: list[str], capsys) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr; argparse's exits included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def synthesize(g1: str, g2: str, out: str, capsys) -> tuple[int, dict, bytes]:
    """`synthesize g1 g2 --out out`'s exit code, and the certificate it
    wrote, parsed and as bytes; the command prints nothing."""
    rc, out_text, err = run(["synthesize", g1, g2, "--out", out], capsys)
    assert (out_text, err) == ("", "")
    raw = Path(out).read_bytes()
    return rc, json.loads(raw), raw


def verdict(distinguished: str, level: str, stabilization: int) -> str:
    return (f'{{\n  "distinguished": {distinguished},\n  "level": {level},\n'
            f'  "stabilization": {stabilization}\n}}\n')


class TestCompareJson:
    """`compare --json` refines on to the stabilization round."""

    def test_first_difference_at_level_2(self, write, capsys):
        argv = ["compare", "--json", write("ta", TA), write("tb", TB)]
        assert run(argv, capsys) == (0, verdict("true", "2", 3), "")

    def test_unbalanced_classes_past_the_difference(self, write, capsys):
        # P6 against two P3s differs at level 1, and past it the classes
        # hold unequal numbers of the two graphs' vertices.
        argv = ["compare", "--json", write("p6", P6), write("p3p3", P3P3)]
        assert run(argv, capsys) == (0, verdict("true", "1", 3), "")

    def test_regular_pair(self, write, capsys):
        argv = ["compare", "--json", write("c6", C6), write("c3c3", C3C3)]
        assert run(argv, capsys) == (1, verdict("false", "null", 0), "")

    def test_worklist_writes_the_stabilization_level(self, write, capsys):
        argv = ["compare", "--json", write("cat7", CAT7), write("cat8", CAT8)]
        assert run(argv, capsys) == (0, verdict("true", "4", 8), "")


class TestLabels:
    """`labels` is the one command that reads canonical ranks past the
    first difference."""

    def test_level_2(self, write, capsys):
        argv = ["labels", write("ta", TA), "--max-level", "2"]
        expected = "# level 2\n0 0\n1 3\n2 1\n3 3\n4 0\n5 2\n"
        assert run(argv, capsys) == (0, expected, "")

    def test_level_read_off_the_cycle(self, write, capsys):
        # Far past stabilization the numbering cycles: the level is read off
        # the cycle, not computed round by round.
        argv = ["labels", write("ta", TA), "--max-level", "1000001"]
        expected = "# level 1000001\n0 2\n1 1\n2 3\n3 1\n4 2\n5 0\n"
        assert run(argv, capsys) == (0, expected, "")


class TestRoundTrips:
    """Certificates written by `synthesize` and checked by `verify`, their
    bytes and exit codes, and their trees counted by `hom-count`."""

    def test_tree_certificate(self, write, tmp_path, capsys):
        ta, tb, cert = write("ta", TA), write("tb", TB), str(tmp_path / "cert.json")
        rc, payload, _ = synthesize(ta, tb, cert, capsys)
        assert rc == 0
        assert run(["verify", cert, ta, tb], capsys) == (0, "PASS\n", "")
        # The certificate's tree counted into each graph, plain and as JSON,
        # and written out explicitly: 9 nodes, root 0.
        tree = write("tree.txt", payload["tree"])
        assert run(["hom-count", tree, ta], capsys) == (0, "2714\n", "")
        rc, out, _ = run(["hom-count", "--json", tree, tb], capsys)
        assert rc == 0 and '"count": "2928"' in out
        rc, out, _ = run(["expand", cert], capsys)
        assert rc == 0 and out.startswith("# root 0\n9 8\n")
        assert run(["compare", ta, ta], capsys)[0] == 1

    def test_equivalent_certificate(self, write, tmp_path, capsys):
        # A 6-vertex path and a relabelled copy.
        p6, q6, cert = write("p6", P6), write("q6", Q6), str(tmp_path / "eq.json")
        rc, payload, _ = synthesize(p6, q6, cert, capsys)
        assert (rc, payload["mode"]) == (1, "equivalent")
        assert run(["verify", cert, p6, q6], capsys) == (0, "PASS\n", "")

    def test_single_node_certificate(self, write, tmp_path, capsys):
        s4, s3, cert = write("s4", S4), write("s3", S3), str(tmp_path / "sn.json")
        rc, payload, _ = synthesize(s4, s3, cert, capsys)
        assert (rc, payload["mode"]) == (0, "single-node")
        assert run(["verify", cert, s4, s3], capsys) == (0, "PASS\n", "")

    def test_regular_pair_certificate(self, write, tmp_path, capsys):
        # The degree partition has one class and is stable at round 0.
        c6, c3c3, cert = write("c6", C6), write("c3c3", C3C3), str(tmp_path / "reg.json")
        rc, payload, _ = synthesize(c6, c3c3, cert, capsys)
        assert (rc, payload["mode"]) == (1, "equivalent")
        assert run(["verify", cert, c6, c3c3], capsys) == (0, "PASS\n", "")

    def test_worklist_certificate_bytes(self, write, tmp_path, capsys):
        # synthesize walks the worklist's 3 rounds up to the first
        # difference at level 4 in place on the dense level's class ids. No
        # certificate byte names a class, so this digest does not guard the
        # driver's ids: the tuple oracle of tests/test_wl.py does.
        cat7, cat8, cert = write("cat7", CAT7), write("cat8", CAT8), str(tmp_path / "cat.json")
        rc, _, raw = synthesize(cat7, cat8, cert, capsys)
        assert rc == 0
        assert hashlib.sha256(raw).hexdigest() == (
            "c40d2b1c66abcac2f3392eb6813f8bf0afcd7dd20522d98db32fed15b4cd17d7")
        assert run(["verify", cert, cat7, cat8], capsys) == (0, "PASS\n", "")

    def test_isolated_vertex_certificate_bytes(self, write, tmp_path, capsys):
        # Neighbor reads of degree 0 (the isolated vertex) and degree 1 (the
        # leaves). The isolated vertex's rooted count is 0.
        ta7, tb7, cert = write("ta7", TA7), write("tb7", TB7), str(tmp_path / "cert7.json")
        rc, payload, raw = synthesize(ta7, tb7, cert, capsys)
        assert rc == 0
        assert hashlib.sha256(raw).hexdigest() == (
            "73c7e743ef6ae3c4bba5735518be7d074747da54c309fa096e84c092ba1c00d7")
        assert run(["verify", cert, ta7, tb7], capsys) == (0, "PASS\n", "")
        tree = write("tree7.txt", payload["tree"])
        expected = ('{\n  "count": "2714",\n  "rooted": [\n    "64",\n    "784",\n'
                    '    "289",\n    "784",\n    "64",\n    "729",\n    "0"\n  ]\n}\n')
        assert run(["hom-count", "--json", tree, ta7], capsys) == (0, expected, "")


def test_expand_equivalent_certificate(write, tmp_path, capsys):
    cert = str(tmp_path / "eq.json")
    assert run(["synthesize", write("p6", P6), write("q6", Q6), "--out", cert],
               capsys) == (1, "", "")
    expected = "error: equivalent-mode certificate carries no tree\n"
    assert run(["expand", cert], capsys) == (2, "", expected)


class TestLongInput:
    """Input text too long to quote whole is named by its length, and stderr
    stays under 200 bytes."""

    def test_tree_node_id_of_4000_digits(self, write, capsys):
        tree = write("longid.txt", "T 1\nnode " + "9" * 4000 + " :\nroot 0\n")
        rc, out, err = run(["hom-count", tree, write("ta.txt", TA)], capsys)
        assert (rc, out) == (2, "")
        assert len(err.encode()) < 200

    def test_graph_header_token_of_4000_characters(self, write, capsys):
        graph = write("longheader.txt", "x" * 4000 + " 1\n")
        rc, out, err = run(["compare", graph, write("ta.txt", TA)], capsys)
        assert (rc, out) == (2, "")
        assert len(err.encode()) < 200


def test_main_builds_no_parser(write, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    ta, tb = write("ta", TA), write("tb", TB)
    for _ in range(3):
        assert run(["compare", ta, tb], capsys) == (0, "distinguished at level 2\n", "")
    assert built == []


@pytest.fixture
def collector():
    """Puts the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


# argv with file names for write's files, the function of wlhom.cli patched
# to raise and what it raises, and the exit code or the exception that
# propagates out of main.
EXITS = {
    "exit 0": (["compare", "ta", "tb"], None, 0),
    "exit 1": (["compare", "ta", "ta"], None, 1),
    "value error": (["compare", "range", "ta"], None, 2),
    "memory error": (["compare", "ta", "tb"], ("parse_graph", MemoryError), 2),
    "invariant error": (["synthesize", "ta", "tb"],
                        ("synthesize", SynthesisInvariantError), 2),
    "uncaught": (["compare", "ta", "tb"], ("parse_graph", RuntimeError), RuntimeError),
    "usage": (["compare", "--max-level", "x", "ta", "tb"], None, 2),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["caller on", "caller off"])
@pytest.mark.parametrize("path", EXITS)
def test_main_leaves_the_collector_as_found(path, enabled, write, collector,
                                            monkeypatch, capsys):
    argv, fault, expected = EXITS[path]
    files = {"ta": write("ta", TA), "tb": write("tb", TB),
             "range": write("range", "3 1\n0 3\n")}
    argv = [files.get(arg, arg) for arg in argv]
    if fault:
        name, exc = fault

        def failing(*args):
            raise exc

        monkeypatch.setattr(cli_module, name, failing)
    (gc.enable if enabled else gc.disable)()
    if isinstance(expected, int):
        assert run(argv, capsys)[0] == expected
    else:
        with pytest.raises(expected):
            main(argv)
    assert gc.isenabled() is enabled


def test_paused_commands_leave_no_garbage_that_grows(write, tmp_path, collector,
                                                     capsys):
    # With the collector off, what a command leaves in reference cycles
    # stays until a collection. It must not grow with the input: the same
    # number of objects on 15-vertex and 161-vertex caterpillar pairs.
    found = {14: {}, 160: {}}
    for spine in found:
        g1_text = serialize_graph(caterpillar(spine, 7))
        g1 = write(f"g1-{spine}", g1_text)
        g2 = write(f"g2-{spine}", serialize_graph(caterpillar(spine, 8)))
        # One vertex short in the header: the pendant vertex is out of range.
        bad = write(f"bad-{spine}", g1_text.replace(f"{spine + 1} ", f"{spine} ", 1))
        cert, tree = str(tmp_path / f"cert-{spine}.json"), str(tmp_path / f"tree-{spine}")
        commands = {
            "synthesize": ["synthesize", g1, g2, "--out", cert],
            "compare": ["compare", g1, g2],
            "compare --json": ["compare", "--json", g1, g2],
            "labels": ["labels", g1],
            "hom-count": ["hom-count", tree, g1],
            "verify": ["verify", cert, g1, g2],
            "expand": ["expand", cert],
            "parse error": ["compare", bad, g2],
        }
        gc.disable()
        gc.collect()
        for name, argv in commands.items():
            rc = run(argv, capsys)[0]
            assert rc == (2 if name == "parse error" else 0), (name, spine)
            found[spine][name] = gc.collect()
            if name == "synthesize":
                Path(tree).write_text(json.loads(Path(cert).read_text())["tree"])
    assert found[14] == found[160]


def test_import_builds_the_parser_once():
    code = ("import argparse\n"
            "init = argparse.ArgumentParser.__init__\n"
            "progs = []\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    progs.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import wlhom.cli\n"
            "print(progs.count('wlhom'))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout == "1\n"


def test_reused_parser_matches_a_fresh_process(write, monkeypatch, capsys):
    # Help is formatted differently across Python versions, so the reference
    # is a fresh process of the same interpreter, not frozen text.
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    ta, tb = write("ta", TA), write("tb", TB)
    for argv in (["compare", "--max-level", "x"], ["--help"], ["compare", "--help"],
                 ["compare", ta, tb]):
        fresh = subprocess.run([sys.executable, "-m", "wlhom.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert run(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
