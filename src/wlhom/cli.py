"""Command-line driver.

Exit codes follow one contract everywhere: 0 for a positive verdict
(distinguished, verified, or plain output produced), 1 for a negative
verdict (equivalent, verification failed), 2 for usage, parse, or limit
errors, for running out of memory (a graph header may announce more
vertices than memory holds), and for a failed internal check of synthesize
(SynthesisInvariantError), which writes no output. Output is
byte-deterministic for fixed inputs and flags. The argument parser is built
once, at import; `main` keeps no state between calls, so it may be called
repeatedly in one process.

A command runs with the cyclic garbage collector paused, and `main` turns
it back on, on every exit, only if it was on before. A graph's lists hold
no reference cycles, yet each collection the command's allocations
trigger re-walks them all; freeing by reference counting is unaffected.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .graphs import empty_graph, parse_graph, quote, serialize_graph, spell, Graph
from .homs import hom_count, rooted_hom
from .synth import (SynthesisInvariantError, certificate_from_json,
                    certificate_to_json, json_text, synthesize, verify)
from .trees import expand_tree, parse_tree
from .wl import joint_refine, refine_verdict


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {quote(text)}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {spell(value)}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlhom",
        description="Label-refinement comparison, tree homomorphism counting, "
        "and synthesis of distinguishing trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, *, out: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if out:
            p.add_argument("--out", metavar="PATH", help="write output to PATH")
        return p

    p = add("compare", _cmd_compare, "compare two graphs level by level")
    p.add_argument("g1", help="first graph file")
    p.add_argument("g2", help="second graph file")
    p.add_argument("--max-level", type=_natural, help="refinement round cap")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = add("labels", _cmd_labels, "per-vertex label ranks of one graph")
    p.add_argument("g", help="graph file")
    p.add_argument("--max-level", type=_natural,
                   help="level to report (default: deepest computed)")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = add("hom-count", _cmd_hom_count, "count homomorphisms of a tree into a graph")
    p.add_argument("tree", help="tree file")
    p.add_argument("g", help="graph file")
    p.add_argument("--json", action="store_true",
                   help="also report per-vertex rooted counts")

    p = add("synthesize", _cmd_synthesize, "emit a distinguishing-tree certificate")
    p.add_argument("g1", help="first graph file")
    p.add_argument("g2", help="second graph file")
    p.add_argument("--max-level", type=_natural, help="refinement round cap")

    p = add("verify", _cmd_verify, "check a certificate against two graphs", out=False)
    p.add_argument("cert", help="certificate file")
    p.add_argument("g1", help="first graph file")
    p.add_argument("g2", help="second graph file")

    p = add("expand", _cmd_expand, "write a certificate's tree in explicit form")
    p.add_argument("cert", help="certificate file")
    p.add_argument("--max-nodes", type=_natural, default=100_000,
                   help="refuse explicit trees larger than this (default 100000)")

    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_compare(args) -> int:
    g1 = parse_graph(_read(args.g1))
    g2 = parse_graph(_read(args.g2))
    level, stable = refine_verdict(
        g1, g2, args.max_level, stop_at_difference=not args.json
    )
    if args.json:
        _emit(args, json_text({
            "distinguished": level is not None,
            "level": level,
            "stabilization": stable,
        }))
    elif level is not None:
        _emit(args, f"distinguished at level {level}\n")
    elif stable is not None:
        _emit(args, f"WL-equivalent (stable at round {stable})\n")
    else:
        _emit(args, f"not distinguished up to level {args.max_level}\n")
    return 0 if level is not None else 1


def _cmd_labels(args) -> int:
    g = parse_graph(_read(args.g))
    table = joint_refine(g, empty_graph(), args.max_level)
    level = args.max_level if args.max_level is not None else table.max_recorded_level
    ranks = table.ranks_at(0, level)
    if args.json:
        _emit(args, json_text({"level": level, "ranks": list(ranks)}))
    else:
        lines = [f"# level {level}"]
        lines.extend(f"{v} {rank}" for v, rank in enumerate(ranks))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_hom_count(args) -> int:
    arena, root = parse_tree(_read(args.tree))
    g = parse_graph(_read(args.g))
    if args.json:
        vector = rooted_hom(arena, root, g)
        _emit(args, json_text({
            "count": str(sum(vector)),
            "rooted": [str(x) for x in vector],
        }))
    else:
        _emit(args, f"{hom_count(arena, root, g)}\n")
    return 0


def _cmd_synthesize(args) -> int:
    g1 = parse_graph(_read(args.g1))
    g2 = parse_graph(_read(args.g2))
    cert = synthesize(g1, g2, args.max_level)
    _emit(args, certificate_to_json(cert))
    return 0 if cert.mode != "equivalent" else 1


def _cmd_verify(args) -> int:
    cert = certificate_from_json(_read(args.cert))
    g1 = parse_graph(_read(args.g1))
    g2 = parse_graph(_read(args.g2))
    ok = verify(cert, g1, g2)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_expand(args) -> int:
    arena, root = certificate_from_json(_read(args.cert)).tree()
    count, edges = expand_tree(arena, root, args.max_nodes)
    _emit(args, serialize_graph(Graph(count, edges), comments=("root 0",)))
    return 0


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError, SynthesisInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
