#!/usr/bin/env python3
"""wlhom benchmark: closed-loop CLI latency and throughput on seeded inputs.

    python3 bench/run.py --workload swap --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; wlhom is imported from ./src. One
client drives `wlhom.cli.main(argv)` in this process, one command at a
time, over a pool of items written from the seed (see workloads.py), and
runs whole passes over the pool for about --seconds. Times are scaled by
an interleaved calibration to cancel drift in the host's speed (see
CALIBRATION_MS). Every output is checked against an independent reference
(reference.py) after the timed loop.
The last stdout line is one JSON object; the lines before it are a
readable report. --trace 1 alternates untraced passes with passes that
record spans around wlhom's public functions (tracing.py), and reports
per-layer numbers instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
from workloads import POOLS, Item, build_pool, graph_text, path, permuted, tree_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
# Kept out of tuning: confirm a claimed gain on this seed as well.
HELD_OUT_SEED = 8191
SETUP_REPEATS = 7
MEMORY_LIMIT = 2 << 30  # bytes of address space
# The tail is the highest of these percentiles with >= 10 samples beyond
# it, capped per workload at the rung its runs reach today, so faster code
# is compared at the same percentile rather than a higher one.
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
TAIL_CAP = {"swap": 75, "long-refine": 75, "hom-count": 90}
COMMANDS = tracing.COMMANDS
# This host's speed drifts by up to half between phases lasting seconds to
# tens of seconds, in CPU time as well as wall time, so whole runs move
# together. Before each command the benchmark times one fixed refinement of
# its own (reference.py, no wlhom code) and scales the command's time by
# CALIBRATION_MS / the median calibration time of the five commands around
# it, which skips bursts shorter than a command. The adj_* metrics and
# setup_s are these adjusted times: time at the speed where the calibration
# takes CALIBRATION_MS. The raw times are reported beside them.
CALIBRATION_PAIR = (path(40), permuted(path(40), random.Random(0)))
CALIBRATION_MS = 2.0


@dataclass
class Call:
    rc: int | None  # None when main raised
    ms: float
    cal_ms: float  # the calibration time just before
    out: str
    err: str
    speed: float = 1.0  # CALIBRATION_MS / calibration time; see adjust()


@dataclass
class Execution:
    """One run of one pool item: its commands' results and certificate."""

    item: int
    calls: dict[str, Call]
    cert: bytes
    timed: bool

    def fingerprint(self) -> tuple:
        return (self.cert,) + tuple(
            (name, c.rc, c.out, c.err) for name, c in sorted(self.calls.items())
        )


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    refused: bool = False
    cert: dict | None = None
    count_bits: int = 0


def import_wlhom():
    """Fresh import of wlhom from ./src (repeated to time set-up)."""
    for name in [m for m in sys.modules if m == "wlhom" or m.startswith("wlhom.")]:
        del sys.modules[name]
    cli = importlib.import_module("wlhom.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"wlhom imported from {cli.__file__}, not from {SRC}")
    return cli


def paths(work: Path, i: int) -> dict[str, str]:
    return {k: str(work / f"{i:02d}-{k}") for k in
            ("g1.txt", "g2.txt", "cert.json", "tree.txt", "host.txt")}


def write_inputs(pool: list[Item], work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for i, item in enumerate(pool):
        p = paths(work, i)
        Path(p["g1.txt"]).write_text(graph_text(item.g1))
        Path(p["g2.txt"]).write_text(graph_text(item.g2))
        if item.tree is not None:
            Path(p["tree.txt"]).write_text(tree_text(item.tree))
            Path(p["host.txt"]).write_text(graph_text(item.host))


def set_up(workload: str, seed: int, work: Path):
    """Import wlhom and write the inputs, several times.

    Returns (cli, pool, raw s, adjusted s), each the median over the
    repeats. A repeat's adjusted time is scaled by CALIBRATION_MS over the
    median of three calibrations just before it.
    """
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        cal_ms = statistics.median(calibrate() for _ in range(3))
        start = time.perf_counter()
        cli = import_wlhom()
        pool = build_pool(workload, seed)
        write_inputs(pool, work)
        raw.append(time.perf_counter() - start)
        adjusted.append(raw[-1] * CALIBRATION_MS / cal_ms)
    return cli, pool, statistics.median(raw), statistics.median(adjusted)


def calibrate() -> float:
    """Milliseconds for the fixed calibration refinement, collector off."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        reference.refine(*CALIBRATION_PAIR)
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        gc.enable()


def call(cli, argv: list[str], tracer: tracing.Tracer | None, item: int) -> Call:
    cal_ms = calibrate()
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cmd.{argv[0]}", item=item) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc(file=err)
        ms = (time.perf_counter_ns() - start) / 1e6
    return Call(rc, ms, cal_ms, out.getvalue(), err.getvalue())


def run_item(cli, pool: list[Item], i: int, work: Path, tracer, timed: bool) -> Execution:
    p = paths(work, i)
    item = pool[i]
    calls = {"compare": call(cli, ["compare", p["g1.txt"], p["g2.txt"]], tracer, i)}
    cert_path = Path(p["cert.json"])
    cert_path.unlink(missing_ok=True)
    calls["synthesize"] = call(
        cli, ["synthesize", p["g1.txt"], p["g2.txt"], "--out", p["cert.json"]], tracer, i)
    cert = cert_path.read_bytes() if cert_path.exists() else b""
    calls["verify"] = call(cli, ["verify", p["cert.json"], p["g1.txt"], p["g2.txt"]], tracer, i)
    if item.tree is not None:
        calls["hom-count"] = call(cli, ["hom-count", p["tree.txt"], p["host.txt"]], tracer, i)
    else:
        # Count the certificate's own tree into g1, as a user re-checking it.
        try:
            tree = json.loads(cert).get("tree")
        except (ValueError, AttributeError):  # not a JSON object; checked later
            tree = None
        if tree is not None:
            Path(p["tree.txt"]).write_text(tree)
            calls["hom-count"] = call(cli, ["hom-count", p["tree.txt"], p["g1.txt"]], tracer, i)
    return Execution(i, calls, cert, timed)


def loop(cli, pool, work, seconds):
    """Closed loop of whole passes over the pool; returns the executions.

    The first item runs once untimed to warm up. A timed pass starts only
    while the mean pass so far still fits in `seconds`, counted from the
    warm-up, so every item gets the same number of timed samples and a
    cut-off pass does not tilt the mix towards the front of the pool.
    """
    start = time.perf_counter()
    runs = [run_item(cli, pool, 0, work, None, False)]
    t0 = time.perf_counter()
    passes = 0
    while not passes or (
            t0 - start + (time.perf_counter() - t0) * (passes + 1) / passes <= seconds):
        runs += [run_item(cli, pool, i, work, None, True) for i in range(len(pool))]
        passes += 1
    return runs


def adjust(runs: list[Execution]) -> None:
    """Set each call's speed from the median calibration of the five calls
    around it in execution order."""
    calls = [c for r in runs for c in r.calls.values()]
    cal = [c.cal_ms for c in calls]
    for k, c in enumerate(calls):
        lo = max(0, min(k - 2, len(cal) - 5))
        c.speed = CALIBRATION_MS / statistics.median(cal[lo:lo + 5])


def traced_loop(cli, pool, work, seconds, tracer):
    """Alternate untraced and traced whole passes until `seconds` pass.

    Returns (untraced runs, untraced s, traced runs, traced s); alternating
    keeps drift in machine speed out of the overhead figure.
    """
    plain, traced = [], []
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        t0 = time.perf_counter()
        plain += [run_item(cli, pool, i, work, None, True) for i in range(len(pool))]
        t1 = time.perf_counter()
        tracer.install()
        try:
            traced += [run_item(cli, pool, i, work, tracer, True) for i in range(len(pool))]
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        plain_s += t1 - t0
        traced_s += t2 - t1
    return plain, plain_s, traced, traced_s


def check_item(item: Item, first: Execution, limit: int) -> Checked:
    """Compare one item's outputs with the reference answers."""
    got = Checked()
    problems = got.problems
    verdict = reference.refine(item.g1, item.g2)
    c = first.calls
    for name, call_ in c.items():
        if call_.rc is None:
            problems.append(f"{name} raised: {call_.err.strip()[-200:]}")
    if item.equivalent and verdict.distinguished:
        problems.append("reference distinguishes a permuted copy")
    if item.equivalent and c["compare"].rc == 0:
        problems.append("permuted copy called distinguished")
    want_rc = 0 if verdict.distinguished else 1
    want = (f"distinguished at level {verdict.level}\n" if verdict.distinguished
            else f"WL-equivalent (stable at round {verdict.stable})\n")
    if (c["compare"].rc, c["compare"].out) != (want_rc, want):
        problems.append(f"compare gave {c['compare'].rc} {c['compare'].out!r}, want {want!r}")
    if c["synthesize"].rc != want_rc:
        problems.append(f"synthesize exit {c['synthesize'].rc}, want {want_rc}")
    if (c["verify"].rc, c["verify"].out) != (0, "PASS\n"):
        problems.append(f"verify gave {c['verify'].rc} {c['verify'].out!r}")
    try:
        cert = json.loads(first.cert)
    except ValueError:
        problems.append("certificate is not JSON")
        return got
    got.cert = cert
    mode = cert.get("mode")
    counts = None
    if not verdict.distinguished:
        if mode != "equivalent":
            problems.append(f"mode {mode} for an equivalent pair")
    elif verdict.tree_level == 0:
        counts = (item.g1[0], item.g2[0])
        if mode != "single-node":
            problems.append(f"mode {mode}, want single-node")
    else:
        if mode != "tree" or cert.get("level") != verdict.tree_level:
            problems.append(f"mode {mode} level {cert.get('level')}, "
                            f"want tree level {verdict.tree_level}")
        else:
            nodes, root = reference.parse_tree(cert["tree"])
            if reference.tree_depth(nodes, root) != verdict.tree_level:
                problems.append("tree depth differs from its level")
            counts = (reference.hom_count(nodes, root, item.g1),
                      reference.hom_count(nodes, root, item.g2))
    if counts is not None:
        try:
            claimed = (int(cert["count_g1"]), int(cert["count_g2"]))
        except (KeyError, TypeError, ValueError):
            claimed = None
        if claimed != counts or counts[0] == counts[1]:
            problems.append(f"certificate counts {claimed}, reference {counts}")
        got.count_bits = max(x.bit_length() for x in counts)
    if item.tree is not None:
        expected = reference.hom_count(item.tree, len(item.tree) - 1, item.host)
    elif counts is not None:
        expected = counts[0]
    else:
        return got
    got.count_bits = max(got.count_bits, expected.bit_length())
    h = c.get("hom-count")
    if h is None:
        problems.append("hom-count did not run")
    elif len(str(expected)) > limit and h.rc == 2 and "Exceeds the limit" in h.err:
        got.refused = True
    elif (h.rc, h.out) != (0, f"{expected}\n"):
        problems.append(f"hom-count gave {h.rc} {h.out[:40]!r}{h.err[:80]!r}")
    return got


def check_or_report(item: Item, first: Execution, limit: int) -> Checked:
    """check_item, with a checker crash on malformed output as a problem."""
    try:
        return check_item(item, first, limit)
    except Exception as exc:  # malformed output must fail the item, not the run
        return Checked(problems=[f"checker error: {exc!r}"])


def percentile(ranked: list[float], p: float) -> float:
    return ranked[max(0, math.ceil(p / 100 * len(ranked)) - 1)]


def latency(samples: dict[int, list[tuple[bool, float]]],
            cap: float) -> tuple[float, float, float, int]:
    """(gmean, tail value, tail percentile, n) from each item's samples.

    gmean is the geometric mean over items of each item's median: every
    item weighs the same, a change that halves one item's time shows in
    proportion, and the value does not jump across the gap between two
    item sizes as a median of all samples would. The tail is taken over
    all samples; failed ones rank slowest.
    """
    ranked = [ms for _, ms in sorted(s for v in samples.values() for s in v)]
    n = len(ranked)
    if not n:
        return 0.0, 0.0, 0.0, 0
    for p in TAIL_LADDER:
        if p <= cap and n - math.ceil(p / 100 * n) >= 10:
            break
    else:
        p = 100.0
    gmean = statistics.geometric_mean(
        percentile([ms for _, ms in sorted(v)], 50) for v in samples.values() if v)
    return gmean, percentile(ranked, p), p, n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOLS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                        f"{HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wlhom" / "__init__.py").is_file():
        print(f"error: no wlhom sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A pathological input must fail its item, not exhaust a shared machine.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    work = WORK / f"{args.workload}-{args.seed}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    cli, pool, raw_setup_s, setup_s = set_up(args.workload, args.seed, work)
    # The pool's graphs live for the whole run; keep them out of the
    # collections wlhom's own allocations trigger, as in a CLI process.
    gc.freeze()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        plain, plain_s, runs, window_s = traced_loop(cli, pool, work, args.seconds, tracer)
        plain_items, traced_items = len(plain), len(runs)
        runs = plain + runs
    else:
        runs = loop(cli, pool, work, args.seconds)
        adjust(runs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    limit = sys.get_int_max_str_digits()
    first: dict[int, Execution] = {}
    for r in runs:
        first.setdefault(r.item, r)
    with reference.unlimited_digits():
        checked = {i: check_or_report(pool[i], first[i], limit) for i in range(len(pool))}
    failed_runs = [
        r for r in runs
        if checked[r.item].problems or r.fingerprint() != first[r.item].fingerprint()
    ]
    failed_ids = {id(r) for r in failed_runs}
    refused = sum(1 for r in runs if checked[r.item].refused)
    correct = not failed_runs

    digest = hashlib.sha256()
    for i in range(len(pool)):
        digest.update(first[i].cert)
        hom = first[i].calls.get("hom-count")
        digest.update(hom.out.encode() if hom else b"")

    timed = [r for r in runs if r.timed]
    samples = {(c, adj): {i: [] for i in range(len(pool))}
               for c in COMMANDS for adj in (False, True)}
    for r in timed:
        for name, c in r.calls.items():
            for adj in (False, True):
                samples[name, adj][r.item].append(
                    (id(r) in failed_ids, c.ms * c.speed if adj else c.ms))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "pool": len(pool),
        "executions": len(runs),
        "refused": refused,
        "failed": len(failed_runs),
        "failed_ratio": len(failed_runs) / len(runs),
        "digest": digest.hexdigest(),
        "problems": {pool[i].label: checked[i].problems
                     for i in range(len(pool)) if checked[i].problems},
    }
    item_ms = {i: [] for i in range(len(pool))}
    for r in runs:
        if r.timed:
            item_ms[r.item].append(sum(c.ms for c in r.calls.values()))
    report["item_ms"] = {pool[i].label: round(statistics.median(v), 1)
                         for i, v in item_ms.items() if v}
    if args.trace:
        metrics = layer_metrics(pool, checked, tracer, traced_items / len(pool))
        metrics["trace.items_per_s"] = traced_items / window_s
        metrics["trace.untraced_items_per_s"] = plain_items / plain_s
        metrics["trace.overhead_pct"] = 100 * (
            metrics["trace.untraced_items_per_s"] / metrics["trace.items_per_s"] - 1)
        report["absent_spans"] = tracer.absent
        WORK.mkdir(exist_ok=True)
        (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.dump()))
    else:
        calls = [c for r in timed for c in r.calls.values()]
        raw = {"setup_s": raw_setup_s,
               "items_per_s": 1e3 * len(timed) / sum(c.ms for c in calls)}
        metrics = {"setup_s": setup_s,
                   "adj_items_per_s": 1e3 * len(timed) / sum(c.ms * c.speed for c in calls)}
        report["tail"] = {}
        for name in COMMANDS:
            key = name.replace("-", "_")
            for adj, out in ((False, raw), (True, metrics)):
                gmean, tail, p, n = latency(samples[name, adj], TAIL_CAP[args.workload])
                out[f"{'adj_' * adj}{key}_gmean_ms"] = gmean
                out[f"{'adj_' * adj}{key}_tail_ms"] = tail
            report["tail"][name] = {"percentile": p, "samples": n}
        report["calibration_ms"] = statistics.median(c.cal_ms for c in calls)
        report["raw"] = raw
        metrics["cert_bytes"] = sum(len(first[i].cert) for i in range(len(pool)))
        metrics["peak_rss_mb"] = peak_rss_mb
    units = {name: unit_of(name) for name in metrics}

    print(f"# wlhom bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in report.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    WORK.mkdir(exist_ok=True)
    (WORK / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": metrics}, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed_runs),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def layer_metrics(pool: list[Item], checked: dict[int, Checked], tracer, passes: float) -> dict:
    """Per-layer numbers per traced pass; the counts read off the
    certificates and reference are per pass already (one run per item)."""
    needed = {i: reference.refine(item.g1, item.g2).rounds_needed
              for i, item in enumerate(pool)}
    dense = {i for i, item in enumerate(pool) if item.dense}
    metrics = tracing.analyse(tracer, needed, dense, passes)
    certs = [checked[i].cert or {} for i in range(len(pool))]
    lifts = [m for cert in certs for m in cert.get("m_per_level", [])]
    metrics["synth.lift_candidates"] = sum(lifts)
    metrics["synth.lift_accept_ratio"] = len(lifts) / sum(lifts) if lifts else 0.0
    metrics["homs.count_bits_max"] = max(c.count_bits for c in checked.values())
    metrics["trees.dag_nodes"] = sum(
        int(cert["tree"].split()[1]) for cert in certs if "tree" in cert)
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_ms") or ".dp_ms." in name:
        return "ms"
    if name.endswith("items_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("share.") or name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
