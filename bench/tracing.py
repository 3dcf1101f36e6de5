"""Spans around wlhom's public functions, recorded from the benchmark's side.

Nothing under src/ is edited: the tracer replaces every module-level
binding of each traced function (wlhom's modules import each other by
name, so `cli.synthesize` and `synth.synthesize` are separate bindings of
one function) with a wrapper that records a span, and puts the originals
back afterwards. A traced name that no longer exists is reported as absent
and its metrics read 0; the run goes on.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# Layer boundaries, as "module.function". Inner helpers called per
# comparison (wl.compare_labels) are left out: a span per call would cost
# more than the call.
TRACED = (
    "cli.main",
    "graphs.parse_graph",
    "wl.distinguishing_level",
    "wl.joint_refine",
    "homs.rooted_hom",
    "homs.hom_count",
    "homs.hom_by_label",
    "synth.synthesize",
    "synth.lift",
    "synth.verify",
    "synth.certificate_to_json",
    "synth.certificate_from_json",
    "trees.parse_tree",
    "trees.serialize_tree",
)

LAYERS = ("cli", "graphs", "wl", "homs", "synth", "trees")
COMMANDS = ("compare", "synthesize", "verify", "hom-count")


def _refine_stats(table) -> dict:
    """Levels recorded and classes summed over them, from a LabelTable."""
    try:
        levels = table.levels
        return {"rounds": len(levels) - 1, "classes": sum(len(lvl.defs) for lvl in levels)}
    except (AttributeError, TypeError):
        return {}


OBSERVERS = {"wl.joint_refine": _refine_stats}


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                self.spans[index][4] = observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wlhom" or n.startswith("wlhom."))]
        for name in TRACED:
            module_name, _, attr = name.partition(".")
            fn = getattr(sys.modules.get(f"wlhom.{module_name}"), attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, binding, fn))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for module, binding, fn in reversed(self._patched):
            setattr(module, binding, fn)
        self._patched.clear()

    def dump(self) -> dict:
        return {"absent": self.absent,
                "spans": [[n, s, e, p] for n, s, e, p, _ in self.spans]}


def analyse(tracer: Tracer, needed_rounds: dict[int, int], dense: set[int],
            passes: float) -> dict:
    """Per-layer numbers from the spans: ms and counts per pass, and ratios.

    Spans under a benchmark `cmd.<command>` root carry that root's item
    index; `needed_rounds[item]` is the reference's rounds to a verdict and
    `dense` the items whose pair has average degree 16 or more.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_ns[parent] += end - start

    def layer(i: int) -> str:
        return spans[i][0].partition(".")[0]

    def outermost(i: int) -> bool:
        parent = spans[i][3]
        return parent < 0 or layer(parent) != layer(i)

    def under_lift(i: int) -> bool:
        while i >= 0:
            if spans[i][0] == "synth.lift":
                return True
            i = spans[i][3]
        return False

    ms = defaultdict(float)
    calls = defaultdict(int)
    rounds_run = rounds_needed = classes = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = (end - start) / 1e6
        top = spans[root[i]]
        command = top[0].partition(".")[2]
        item = top[4].get("item")
        lay = layer(i)
        calls[name] += 1
        ms[f"incl:{name}"] += dur
        if lay == "cmd":
            ms[f"cmd:{command}"] += dur
            if command == "synthesize" and item in dense:
                ms["dense:synthesize"] += dur
            continue
        ms[f"self:{lay}"] += dur - child_ns[i] / 1e6
        if outermost(i):
            ms[f"outer:{lay}"] += dur
            if lay == "homs":
                ms[f"homs:{command}"] += dur
            if command == "synthesize" and item in dense:
                if lay == "wl":
                    ms["dense:wl"] += dur
                elif lay == "homs" and not under_lift(i):
                    ms["dense:lift_homs"] += dur
        if name == "synth.lift" and command == "synthesize" and item in dense:
            ms["dense:lift_homs"] += dur
        if name == "homs.rooted_hom":
            calls[f"homs:{command}"] += 1
        if name == "wl.joint_refine" and "rounds" in attrs:
            rounds_run += attrs["rounds"]
            classes += attrs["classes"]
            rounds_needed += needed_rounds.get(item, 0)

    total = sum(ms[f"cmd:{c}"] for c in COMMANDS) or 1.0
    per_pass = {
        "cli.self_ms": ms["self:cli"],
        "graphs.parse_ms": ms["incl:graphs.parse_graph"],
        "graphs.parse_calls": calls["graphs.parse_graph"],
        "wl.refine_ms": ms["outer:wl"],
        "wl.refine_calls": calls["wl.joint_refine"],
        "wl.rounds": rounds_run,
        "wl.classes": classes,
        "synth.self_ms": ms["self:synth"],
        "synth.lift_ms": ms["incl:synth.lift"],
        "synth.cert_json_ms": ms["incl:synth.certificate_to_json"]
        + ms["incl:synth.certificate_from_json"],
        "trees.parse_ms": ms["incl:trees.parse_tree"],
        "trees.serialize_ms": ms["incl:trees.serialize_tree"],
    }
    for command in ("synthesize", "verify", "hom-count"):
        per_pass[f"homs.dp_ms.{command}"] = ms[f"homs:{command}"]
        per_pass[f"homs.dp_calls.{command}"] = calls[f"homs:{command}"]
    out = {name: value / passes for name, value in per_pass.items()}
    out["wl.useful_round_ratio"] = rounds_needed / rounds_run if rounds_run else 0.0
    for lay in LAYERS:
        out[f"share.{lay}"] = ms[f"self:{lay}"] / total
    dense_total = ms["dense:synthesize"] or 1.0
    out["synthesize.dense.wl_share"] = ms["dense:wl"] / dense_total
    out["synthesize.dense.lift_homs_share"] = ms["dense:lift_homs"] / dense_total
    return out
