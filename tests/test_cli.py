"""End-to-end CLI behavior: output text, exit codes, file round trips."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from wlhom import (
    certificate_to_json,
    path_graph,
    serialize_graph,
    synthesize,
)
from wlhom import cli as cli_module
from wlhom.cli import main

from .conftest import C6, K13, P4, TA, TB, TWO_C3, disjoint_union


@pytest.fixture
def gfile(tmp_path):
    def write(name, graph):
        path = tmp_path / name
        path.write_text(serialize_graph(graph), encoding="utf-8")
        return str(path)

    return write


class TestCompare:
    def test_distinguished(self, gfile, capsys):
        rc = main(["compare", gfile("a", K13), gfile("b", P4)])
        assert rc == 0
        assert capsys.readouterr().out == "distinguished at level 1\n"

    def test_equivalent(self, gfile, capsys):
        rc = main(["compare", gfile("a", C6), gfile("b", TWO_C3)])
        assert rc == 1
        assert capsys.readouterr().out == "WL-equivalent (stable at round 0)\n"

    def test_capped_inconclusive(self, gfile, capsys):
        rc = main(["compare", gfile("a", TA), gfile("b", TB), "--max-level", "1"])
        assert rc == 1
        assert capsys.readouterr().out == "not distinguished up to level 1\n"

    def test_json(self, gfile, capsys):
        rc = main(["compare", gfile("a", K13), gfile("b", P4), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "distinguished": True,
            "level": 1,
            "stabilization": 2,
        }

    def test_json_refines_to_stabilization(self, gfile, capsys):
        # text mode stops at level 1; --json still reports stabilization
        a = gfile("a", path_graph(600))
        b = gfile("b", disjoint_union(path_graph(300), path_graph(300)))
        assert main(["compare", a, b]) == 0
        assert capsys.readouterr().out == "distinguished at level 1\n"
        assert main(["compare", a, b, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "distinguished": True,
            "level": 1,
            "stabilization": 300,
        }

    def test_out_file(self, gfile, capsys, tmp_path):
        out = tmp_path / "verdict.txt"
        rc = main(["compare", gfile("a", K13), gfile("b", P4), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == "distinguished at level 1\n"

    def test_missing_file(self, tmp_path, gfile, capsys):
        rc = main(["compare", str(tmp_path / "nope"), gfile("b", P4)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_graph(self, tmp_path, gfile, capsys):
        bad = tmp_path / "bad"
        bad.write_text("4 1\n0 1 2\n", encoding="utf-8")
        rc = main(["compare", str(bad), gfile("b", P4)])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_number_past_digit_limit(self, tmp_path, gfile, capsys):
        bad = tmp_path / "bad"
        bad.write_text("2 1\n0 " + "9" * 5000 + "\n", encoding="utf-8")
        rc = main(["compare", str(bad), gfile("b", P4)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2: number of 5000 digits is too long" in err
        assert len(err) < 200

    def test_long_vertex_index_named_by_digit_count(self, tmp_path, gfile, capsys):
        bad = tmp_path / "bad"
        bad.write_text("2 1\n0 " + "9" * 4000 + "\n", encoding="utf-8")
        rc = main(["compare", str(bad), gfile("b", P4)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 2: vertex index <4000 digits> out of range [0, 2)\n")

    def test_long_header_token_named_by_length(self, tmp_path, gfile, capsys):
        bad = tmp_path / "bad"
        bad.write_text("x" * 4000 + " 1\n", encoding="utf-8")
        rc = main(["compare", str(bad), gfile("b", P4)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 1: header must be two integers 'N M', got <4002 characters>\n")

    def test_negative_max_level_rejected(self, gfile, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", gfile("a", K13), gfile("b", P4), "--max-level", "-1"])
        assert exc.value.code == 2


class TestLabels:
    def test_default_level(self, gfile, capsys):
        rc = main(["labels", gfile("g", P4)])
        assert rc == 0
        assert capsys.readouterr().out == "# level 2\n0 0\n1 1\n2 1\n3 0\n"

    def test_explicit_level(self, gfile, capsys):
        rc = main(["labels", gfile("g", P4), "--max-level", "1"])
        assert rc == 0
        assert capsys.readouterr().out == "# level 1\n0 0\n1 1\n2 1\n3 0\n"

    def test_level_past_stabilization(self, gfile, capsys):
        rc = main(["labels", gfile("g", P4), "--max-level", "5"])
        assert rc == 0
        assert capsys.readouterr().out == "# level 5\n0 0\n1 1\n2 1\n3 0\n"

    def test_level_where_numbering_alternates(self, gfile, capsys):
        # P3 stabilizes at round 1, but its ends and center swap ranks each
        # round after it: level 2 is 1 0 1, level 3 is 0 1 0.
        rc = main(["labels", gfile("g", path_graph(3)), "--max-level", "3"])
        assert rc == 0
        assert capsys.readouterr().out == "# level 3\n0 0\n1 1\n2 0\n"

    def test_json(self, gfile, capsys):
        rc = main(["labels", gfile("g", P4), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "level": 2,
            "ranks": [0, 1, 1, 0],
        }

    def test_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "g"
        path.write_text("0 0\n", encoding="utf-8")
        rc = main(["labels", str(path)])
        assert rc == 0
        assert capsys.readouterr().out == "# level 0\n"


STAR2 = "T 2\nnode 0 :\nnode 1 : 0*2\nroot 1\n"
LEAF = "T 1\nnode 0 :\nroot 0\n"
# A single-node certificate whose count_g1 is past int()'s default digit limit.
LONG_COUNT = json.dumps({"mode": "single-node", "level": 0, "tree": LEAF,
                         "count_g1": "1" * 5000, "count_g2": "1"})


class TestHomCount:
    def test_star_into_k13(self, gfile, tmp_path, capsys):
        tree = tmp_path / "t"
        tree.write_text(STAR2, encoding="utf-8")
        rc = main(["hom-count", str(tree), gfile("g", K13)])
        assert rc == 0
        assert capsys.readouterr().out == "12\n"

    def test_leaf_counts_vertices(self, gfile, tmp_path, capsys):
        tree = tmp_path / "t"
        tree.write_text(LEAF, encoding="utf-8")
        rc = main(["hom-count", str(tree), gfile("g", C6)])
        assert rc == 0
        assert capsys.readouterr().out == "6\n"

    def test_json_rooted_vector(self, gfile, tmp_path, capsys):
        tree = tmp_path / "t"
        tree.write_text(STAR2, encoding="utf-8")
        rc = main(["hom-count", str(tree), gfile("g", K13), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "count": "12",
            "rooted": ["9", "1", "1", "1"],
        }

    def test_long_child_id_named_by_digit_count(self, gfile, tmp_path, capsys):
        tree = tmp_path / "t"
        tree.write_text("T 2\nnode 0 :\nnode 1 : " + "9" * 4000 + "*1\nroot 1\n",
                        encoding="utf-8")
        rc = main(["hom-count", str(tree), gfile("g", C6)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 3: child id <4000 digits> must be in [0, 1)\n")

    def test_long_node_id_named_by_length(self, gfile, tmp_path, capsys):
        tree = tmp_path / "t"
        tree.write_text("T 1\nnode " + "9" * 4000 + " :\nroot 0\n", encoding="utf-8")
        rc = main(["hom-count", str(tree), gfile("g", C6)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: line 2: node ids must be consecutive; "
                                           "expected 0, got <4000 characters>\n")

    def test_malformed_tree(self, gfile, tmp_path, capsys):
        tree = tmp_path / "t"
        tree.write_text("T 1\nnode 0\nroot 0\n", encoding="utf-8")
        rc = main(["hom-count", str(tree), gfile("g", C6)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSynthesize:
    def test_writes_canonical_certificate(self, gfile, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = main(["synthesize", gfile("a", K13), gfile("b", P4),
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == certificate_to_json(
            synthesize(K13, P4)
        )

    def test_byte_deterministic(self, gfile, tmp_path):
        outs = []
        for name in ("c1.json", "c2.json"):
            out = tmp_path / name
            main(["synthesize", gfile("a", TA), gfile("b", TB),
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_equivalent_exit_code(self, gfile, capsys):
        rc = main(["synthesize", gfile("a", C6), gfile("b", TWO_C3)])
        assert rc == 1
        assert json.loads(capsys.readouterr().out) == {"mode": "equivalent"}

    def test_capped_run_is_inconclusive(self, gfile, capsys, tmp_path):
        out = tmp_path / "cert.json"
        rc = main(["synthesize", gfile("a", K13), gfile("b", P4),
                   "--max-level", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: inconclusive")
        assert not out.exists()


class TestVerify:
    def _cert_path(self, gfile, tmp_path):
        out = tmp_path / "cert.json"
        main(["synthesize", gfile("va", K13), gfile("vb", P4), "--out", str(out)])
        return out

    def test_pass(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path)
        rc = main(["verify", str(cert), gfile("a", K13), gfile("b", P4)])
        assert rc == 0
        assert capsys.readouterr().out == "PASS\n"

    def test_tampered_fails(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path)
        data = json.loads(cert.read_text(encoding="utf-8"))
        data["count_g1"] = "13"
        cert.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["verify", str(cert), gfile("a", K13), gfile("b", P4)])
        assert rc == 1
        assert capsys.readouterr().out == "FAIL\n"

    def test_wrong_graphs_fail(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path)
        rc = main(["verify", str(cert), gfile("a", C6), gfile("b", TWO_C3)])
        assert rc == 1
        assert capsys.readouterr().out == "FAIL\n"

    def test_malformed_certificate(self, gfile, tmp_path, capsys):
        bad = tmp_path / "cert.json"
        bad.write_text("{", encoding="utf-8")
        rc = main(["verify", str(bad), gfile("a", K13), gfile("b", P4)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


    def test_non_ascii_count(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path)
        data = json.loads(cert.read_text(encoding="utf-8"))
        data["count_g1"] = data["count_g1"].translate(
            str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        cert.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["verify", str(cert), gfile("a", K13), gfile("b", P4)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: count_g1 must be a nonnegative decimal string\n")

    def test_long_mode_named_by_length(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path)
        data = json.loads(cert.read_text(encoding="utf-8"))
        data["mode"] = "x" * 4000
        cert.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["verify", str(cert), gfile("a", K13), gfile("b", P4)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: mode must be one of ('tree', 'single-node', "
                                "'equivalent'), got <4000 characters>\n")

    def test_deeply_nested_certificate(self, gfile, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        rc = main(["verify", str(deep), gfile("a", K13), gfile("b", P4)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON:")

    def test_number_past_digit_limit(self, gfile, tmp_path, capsys):
        cert = tmp_path / "long.json"
        cert.write_text('{"mode": ' + "1" * 5000 + "}", encoding="utf-8")
        rc = main(["verify", str(cert), gfile("a", K13), gfile("b", P4)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON:")
        assert len(captured.err) < 200

    def test_count_past_digit_limit(self, gfile, tmp_path, capsys):
        cert = tmp_path / "long.json"
        cert.write_text(LONG_COUNT, encoding="utf-8")
        rc = main(["verify", str(cert), gfile("a", K13), gfile("b", P4)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: count_g1: number of 5000 digits is too long\n")


class TestExpand:
    def _cert_path(self, gfile, tmp_path, g1, g2):
        out = tmp_path / "cert.json"
        main(["synthesize", gfile("ea", g1), gfile("eb", g2), "--out", str(out)])
        return out

    def test_explicit_star(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path, K13, P4)
        rc = main(["expand", str(cert)])
        assert rc == 0
        assert capsys.readouterr().out == "# root 0\n3 2\n0 1\n0 2\n"

    def test_max_nodes_refusal_reports_exact_size(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path, TA, TB)
        rc = main(["expand", str(cert), "--max-nodes", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: explicit tree has 9 nodes, exceeding the limit of 8\n"

    def test_equivalent_certificate_has_no_tree(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path, C6, TWO_C3)
        rc = main(["expand", str(cert)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: equivalent-mode certificate carries no tree\n"

    def test_deeply_nested_certificate(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        rc = main(["expand", str(deep)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON:")

    def test_number_past_digit_limit(self, tmp_path, capsys):
        cert = tmp_path / "long.json"
        cert.write_text('{"mode": ' + "1" * 5000 + "}", encoding="utf-8")
        rc = main(["expand", str(cert)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON:")
        assert len(captured.err) < 200

    def test_count_past_digit_limit(self, tmp_path, capsys):
        cert = tmp_path / "long.json"
        cert.write_text(LONG_COUNT, encoding="utf-8")
        rc = main(["expand", str(cert)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: count_g1: number of 5000 digits is too long\n")

    def test_out_file(self, gfile, tmp_path, capsys):
        cert = self._cert_path(gfile, tmp_path, K13, P4)
        out = tmp_path / "tree_graph"
        rc = main(["expand", str(cert), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == "# root 0\n3 2\n0 1\n0 2\n"


@pytest.mark.parametrize("command", ["verify", "expand"])
def test_certificate_with_histogram_rows_refused(command, gfile, tmp_path, capsys):
    # the level-k histogram rows of the earlier format are a field too many
    a, b = gfile("a", TA), gfile("b", TB)
    cert = tmp_path / "cert.json"
    assert main(["synthesize", a, b, "--out", str(cert)]) == 0
    data = json.loads(cert.read_text(encoding="utf-8"))
    data["histograms"] = [{"rank": 4, "g1": 1, "g2": 2}]
    cert.write_text(json.dumps(data), encoding="utf-8")
    rc = main([command, str(cert), *([a, b] if command == "verify" else [])])
    assert rc == 2
    assert capsys.readouterr() == ("", (
        "error: mode tree certificate must have exactly the fields ['count_g1', "
        "'count_g2', 'level', 'm_per_level', 'mode', 'n_final', 'tree']\n"))


@pytest.mark.parametrize("command", ["compare", "synthesize", "verify"])
def test_out_of_memory_is_an_error(command, gfile, tmp_path, monkeypatch, capsys):
    # a graph header can announce more vertices than memory holds; running
    # out is an error, exit 2, never the verdict code 1 or a traceback
    a, b = gfile("a", TA), gfile("b", TB)
    cert, out = tmp_path / "cert.json", tmp_path / "out.json"
    assert main(["synthesize", a, b, "--out", str(cert)]) == 0

    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli_module, "parse_graph", exhausted)
    argv = {"compare": ["compare", a, b],
            "synthesize": ["synthesize", a, b, "--out", str(out)],
            "verify": ["verify", str(cert), a, b]}[command]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not out.exists()


def test_import_is_lean():
    # every command is a fresh process, so the import is on its path
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import wlhom.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
