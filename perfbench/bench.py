"""Measurement, checks and reporting for one workload run.

The untraced run times each instance's public calls with one clock pair and
reports the end-to-end metrics.  The traced run times the same calls plainly
(the untraced reference), then again split into spans around each public
call of ``graphs``, ``geodesics``, ``solvers``, ``trees`` and ``cli``, and
reports per-layer metrics derived from the spans.  All outputs are checked
after the timed loop; nothing is checked inside it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

from geopack import (
    BudgetExceeded,
    DomainError,
    SolveResult,
    Unsupported,
    all_pairs_distances,
    enumerate_maximal_geodesics,
    formula_value,
    gpack_report,
    gpack_tree,
    gpack_value,
    gt_report,
    gt_value,
    parse_family,
)
from geopack.cli import main as cli_main

import calibrate
import corpus
import oracle
import selftest
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"

# Set-up is timed in fresh processes, half before and half after the timed
# loop, so the median spans two moments of machine load.
SETUP_REPEATS = 16
# solve_ms.tail is a fixed percentile per workload, so runs stay comparable.
# On random it is p75, not p90: p90 is set by the few slowest tree draws of
# a seed and spread 0.075-0.10 (quartile distance over median) over ten
# seeds of 400 inputs, p75 0.055.  catalog (6 grids) and cli (7 commands)
# have too few inputs for more than p50.
TAIL_PCT = {"families": 75, "random": 75, "catalog": 50, "cli": 50}
# gpack_value runs 4-5x slower under tracemalloc; random measures the peak
# on this many instances of its traced pass, the others on every instance.
RANDOM_ALLOC_SOLVES = 12


class Attempt:
    """One timed instance: its wall time, the calibrated speed around it, output or exception, and check errors."""

    def __init__(self, inst, seconds: float, speed: float, output, error: BaseException | None) -> None:
        self.inst = inst
        self.seconds = seconds
        self.speed = speed
        self.output = output
        self.error = error
        self.problems: list[str] = []

    @property
    def scaled(self) -> float:
        return self.seconds * self.speed


class Kept(NamedTuple):
    """What an attempt keeps of one ``SolveResult`` for the checks after the timed loop."""

    value: int
    witness: tuple
    nodes: int


def keep(output):
    """Plain values of a (gpack, gt) report pair; any other output as it is."""
    if isinstance(output, tuple) and output and isinstance(output[0], SolveResult):
        gp, gt = output
        return (Kept(gp.value, tuple(p.vertices for p in gp.witness.geodesics), gp.stats.nodes),
                Kept(gt.value, tuple(gt.witness.vertices), gt.stats.nodes))
    return output


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke_cli(inst, env: dict) -> tuple[int, bytes, float]:
    """Run ``python -m geopack`` once: exit code, stdout and the child's peak RSS in MB."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "geopack", *inst.argv], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL if inst.stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        if inst.stdin is not None:
            proc.stdin.write(inst.stdin.encode())
            proc.stdin.close()
        with proc.stdout:
            out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        # wait4 instead of wait, to read this child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


def main_in_process(inst) -> tuple[int, bytes]:
    """``geopack.cli.main`` with the same argv and stdin, stdout captured."""
    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(inst.stdin or "")
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(list(inst.argv))
    finally:
        sys.stdin = saved
    return code, buf.getvalue().encode()


def solve(workload: str, inst, env: dict):
    """The untraced work of one instance: exactly the public calls a user makes."""
    limits = corpus.LIMITS[workload]
    if workload == "catalog":
        return gpack_value(inst.graph, limits)
    if workload == "cli":
        return invoke_cli(inst, env)
    return gpack_report(inst.graph, limits), gt_report(inst.graph, limits)


def traced_solve(tr: Tracer, iid: str, workload: str, inst, env: dict) -> None:
    """The same work split into one span per public call, plus layer counts."""
    limits = corpus.LIMITS[workload]
    with tr.span("graphs.build", iid):
        g = inst.build()
    tr.count("graphs.vertices", iid, g.n)
    tr.count("graphs.edges", iid, g.edge_count)
    if workload == "cli":
        with tr.span("cli.wall", iid):
            _, out, _ = invoke_cli(inst, env)
        with tr.span("cli.main", iid):
            main_in_process(inst)
        tr.count("cli.stdout_bytes", iid, len(out))
    if inst.kind != "tree":
        with tr.span("geodesics.distances", iid):
            all_pairs_distances(g)
        with tr.span("geodesics.enumerate", iid):
            catalog = enumerate_maximal_geodesics(g, cap=limits.max_geodesics)
        tr.count("geodesics.catalog_size", iid, catalog.count)
    if inst.kind == "compute":
        with tr.span("solvers.gpack.value", iid):
            gpack_value(g, limits)
        # Witness extraction on the catalog grids runs past any budget.
        if workload != "catalog":
            with tr.span("solvers.gpack.report", iid):
                result = gpack_report(g, limits)
            tr.count("solvers.gpack.nodes", iid, result.stats.nodes)
            with tr.span("solvers.gt.value", iid):
                gt_value(g, limits)
            with tr.span("solvers.gt.report", iid):
                result = gt_report(g, limits)
            tr.count("solvers.gt.nodes", iid, result.stats.nodes)
    if inst.is_tree:
        with tr.span("trees.gpack_tree", iid):
            gpack_tree(g)


def speed_probe(workload: str, env: dict) -> Callable[[], float]:
    """The calibration that matches the workload's timed work (see ``calibrate``)."""
    if workload == "cli":
        return lambda: calibrate.start_speed(env)
    return calibrate.loop_speed


def timed_loop(pool: list, seconds: float, body, probe: Callable[[], float]) -> list[list[Attempt]]:
    """Closed loop of whole passes over ``pool`` within ``seconds``.

    Only whole passes are measured, so every instance has the same weight
    in every run.  At least one pass is always made, and another only if,
    taking as long as the last, it would end within ``seconds``: a run's
    length stays bounded however slow the machine is.  ``probe`` runs
    between instances, outside their timing; each instance gets the mean of
    the speeds before and after it.

    An output equal to the instance's first is kept as that first one, so
    the memory held for the checks, and with it ``peak_rss_mb``, does not
    grow with the number of passes a run makes.
    """
    passes = []
    first: dict[str, object] = {}
    started = last = time.perf_counter()
    before = probe()
    while not passes or 2 * time.perf_counter() - last - started <= seconds:
        last = time.perf_counter()
        attempts = []
        for inst in pool:
            t0 = time.perf_counter()
            output, error = None, None
            try:
                output = body(inst)
            except Exception as exc:  # counted as a failed instance and reported
                error = exc
            wall = time.perf_counter() - t0
            after = probe()
            output = keep(output)
            if output is not None and output == first.get(inst.id):
                output = first[inst.id]
            first.setdefault(inst.id, output)
            attempts.append(Attempt(inst, wall, (before + after) / 2, output, error))
            before = after
        passes.append(attempts)
    return passes


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(tmp, path)


def independent_values(instances, need_gt: bool) -> dict[str, tuple]:
    """(gpack, gt) per instance from closed forms, gpack_tree, stored or fresh MILP values.

    Fresh MILP values are kept in ``.bench_build/`` and reused by later runs.
    """
    cache_path = STATE / "milp-values.json"
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    stored = {**cache, **oracle.load_expected()["values"]}
    want: dict[str, tuple] = {}
    pending = []
    for inst in instances:
        g = inst.graph
        if inst.is_tree:
            value = gpack_tree(g)[0]
            want[inst.id] = (value, value)
            continue
        entry = stored.get(oracle.graph_key(g.n, g.edges()))
        pair = [entry["gpack"], entry["gt"]] if entry else [None, None]
        for k, invariant in enumerate(("gpack", "gt") if inst.spec else ()):
            try:
                closed = formula_value(parse_family(inst.spec), invariant)
            except (Unsupported, DomainError):
                continue
            if pair[k] is not None and pair[k] != closed:
                raise RuntimeError(f"{inst.id}: closed form {closed} disagrees with stored MILP {pair[k]}")
            pair[k] = closed
        want[inst.id] = tuple(pair)
        if pair[0] is None or (need_gt and pair[1] is None):
            pending.append(inst)
    if pending:
        fresh = oracle.milp_values([(i.graph.n, i.graph.edges()) for i in pending])
        for inst, values in zip(pending, fresh):
            want[inst.id] = (values["gpack"], values["gt"])
            cache[oracle.graph_key(inst.graph.n, inst.graph.edges())] = values
        write_json(cache_path, cache)
    return want


def check_attempts(workload: str, attempts: list[Attempt]) -> None:
    """Fill ``problems`` of every attempt; budget exhaustion is a failure, not a wrong answer."""
    distinct = {a.inst.id: a.inst for a in attempts}
    want = independent_values([i for i in distinct.values() if i.kind == "compute"], need_gt=workload != "catalog")
    for i, inst in distinct.items():
        if inst.kind == "tree":  # the tree command is gpack_tree itself
            want[i] = (gpack_value(inst.graph, corpus.LIMITS[workload]), None)
    refs = {} if workload == "catalog" else {
        i: oracle.Reference(inst.graph.n, inst.graph.edges()) for i, inst in distinct.items()
    }
    cli_bytes: dict[str, bytes] = {}
    for a in attempts:
        inst = a.inst
        if a.error is not None:
            a.problems.append(f"raised {type(a.error).__name__}: {a.error}")
            continue
        if workload == "catalog":
            a.problems += filter(None, [oracle.check_value("gpack", a.output, want[inst.id][0])])
        elif workload != "cli":
            gp, gt = a.output
            a.problems += oracle.check_solution(
                refs[inst.id], want[inst.id],
                (gp.value, list(gp.witness)),
                (gt.value, list(gt.witness)),
            )
        else:
            code, out, _ = a.output
            if inst.id not in cli_bytes:
                main_code, cli_bytes[inst.id] = main_in_process(inst)
                if main_code != 0:
                    a.problems.append(f"in-process main exited {main_code}")
            if code != 0:
                a.problems.append(f"exit code {code}")
            elif out != cli_bytes[inst.id]:
                a.problems.append("stdout differs from in-process geopack.cli.main output")
            else:
                a.problems += check_cli_output(inst.kind, json.loads(out), refs[inst.id], want.get(inst.id))


def check_cli_output(kind: str, doc, ref: oracle.Reference, want: tuple | None) -> list[str]:
    if kind == "enumerate":
        err = oracle.check_catalog(ref, doc["geodesics"])
        if not err and (doc["count"], doc["complete"]) != (len(ref.geodesics), True):
            err = f"catalog header {doc['count']}/{doc['complete']} is wrong"
        return [err] if err else []
    if kind == "tree":
        errors = [oracle.check_value("tree gpack", doc["gpack"], want[0]),
                  oracle.check_tree_pairs(ref, doc["pairs"], doc["gpack"])]
        return [e for e in errors if e]
    gp, gt = doc
    if (gp["invariant"], gt["invariant"], gp["exact"], gt["exact"]) != ("gpack", "gt", True, True):
        return ["compute JSON does not hold exact gpack then gt"]
    return oracle.check_solution(ref, want, (gp["value"], gp["witness"]), (gt["value"], gt["witness"]))


# ---------------------------------------------------------------------------
# Repeatability of deterministic counts
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """Digest of the geopack sources and of the corpus that builds the inputs."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "geopack").glob("*.py")), HERE / "corpus.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Counts:
    """Deterministic per-instance counts; a count that changes is an error.

    Counts are compared within the run and with earlier runs of the same
    workload, seed, geopack sources and corpus, kept under ``.bench_build/``.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.path = STATE / f"counts-{workload}-{seed}-{source_digest()}.json"
        self.seen: dict[str, float] = {}
        self.errors: list[str] = []

    def record(self, inst_id: str, name: str, value: float) -> None:
        key = f"{name}|{inst_id}"
        if self.seen.setdefault(key, value) != value:
            self.errors.append(f"{name} of {inst_id} changed within the run: {self.seen[key]} then {value}")

    def compare_and_save(self) -> None:
        earlier = json.loads(self.path.read_text()) if self.path.is_file() else {}
        for key, value in self.seen.items():
            if key in earlier and earlier[key] != value:
                name, inst_id = key.split("|", 1)
                self.errors.append(f"{name} of {inst_id} is {value}, an earlier run had {earlier[key]}")
        earlier.update(self.seen)
        write_json(self.path, earlier)


def record_output_counts(counts: Counts, workload: str, attempts: list[Attempt]) -> None:
    for a in attempts:
        if a.error is not None:
            continue
        if workload in ("families", "random"):
            counts.record(a.inst.id, "solvers.gpack.nodes", a.output[0].nodes)
            counts.record(a.inst.id, "solvers.gt.nodes", a.output[1].nodes)
        elif workload == "cli":
            counts.record(a.inst.id, "cli.stdout_bytes", len(a.output[1]))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def setup_seconds(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """``import geopack`` plus building the graphs, timed in ``repeats`` fresh processes.

    Each sample is (wall seconds, calibrated speed around it).
    """
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        wall, speed = map(float, proc.stdout.split())
        samples.append((wall, speed))
    return samples


def core_speed(attempts: list[Attempt]) -> float:
    """The run's median calibrated speed: below 1 on a slow core."""
    return statistics.median(a.speed for a in attempts)


def end_to_end(workload: str, setup: list[tuple[float, float]], passes: list[list[Attempt]], rss_mb: float) -> dict:
    """Throughput and latency from each input's median calibrated solve time in the run.

    Times are scaled to the reference core speed (``calibrate``), so a run
    that sits in a slow stretch of a shared machine reads like one that
    does not.  Each input weighs once: the run reports the median over the
    inputs, a fixed percentile, and the instances per second a pass of
    median solves would sustain.
    """
    attempts = [a for p in passes for a in p]
    failed = sum(1 for a in attempts if a.problems)
    scaled: dict[str, list[float]] = {}
    for a in attempts:
        scaled.setdefault(a.inst.id, []).append(a.scaled)
    typical = {i: statistics.median(v) for i, v in scaled.items()}
    ok = len(typical.keys() - {a.inst.id for a in attempts if a.problems})
    millis = [s * 1000 for s in typical.values()]
    p50, p50_beyond = percentile(millis, 50)
    pct = TAIL_PCT[workload]
    tail, tail_beyond = percentile(millis, pct)
    wall_p50, _ = percentile([statistics.median(a.seconds for a in attempts if a.inst.id == i) * 1000
                              for i in typical], 50)
    lines = [
        ("setup_s", statistics.median(wall * speed for wall, speed in setup), "s",
         f"median of {len(setup)} fresh-process set-ups, calibrated; raw median"
         f" {statistics.median(w for w, _ in setup):.4g} s"),
        ("solves_per_s", ok / sum(typical.values()), "1/s",
         f"{ok} of {len(typical)} inputs always checked, over the sum of their median solve times"),
        ("solve_ms.p50", p50, "ms", f"median calibrated solve of each of {len(millis)} inputs over"
         f" {len(passes)} passes; {p50_beyond} beyond; raw wall {wall_p50:.4g} ms"),
        ("solve_ms.tail", tail, "ms", f"p{pct} of the same {len(millis)} values; {tail_beyond} beyond"
         + ("" if tail_beyond >= 10 else ", too few inputs for 10")),
        ("peak_rss_mb", rss_mb, "MB", "median ru_maxrss of the largest command's children" if workload == "cli"
         else "ru_maxrss of this process"),
    ]
    for name, value, unit, note in lines + [
        ("fail_frac", failed / len(attempts), "ratio", f"{failed} failed of {len(attempts)} attempted"),
        ("core_speed", core_speed(attempts), "ratio", "median calibrated speed of this run;"
         " the calibrated times above are wall times multiplied by the speed around each"),
    ]:
        print(f"{name:<14} = {value:.6g} {unit}  ({note})")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in lines}


def peak_alloc_mb(instances, workload: str) -> float:
    """Largest tracemalloc peak of one gpack_value call over ``instances``."""
    limits = corpus.LIMITS[workload]
    peak = 0
    for inst in instances:
        tracemalloc.start()
        try:
            gpack_value(inst.graph, limits)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def per_layer(tr: Tracer, plain_s: float, traced_s: float, alloc_mb: float) -> dict:
    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def self_times(name: str, child: str) -> dict[int, float]:
        outer, inner = tr.durations(name), tr.durations(child)
        return {k: outer[k] - inner[k] for k in outer.keys() & inner.keys()}

    enum_self = self_times("geodesics.enumerate", "geodesics.distances")
    sizes = tr.values("geodesics.catalog_size")
    value_s = {inv: self_times(f"solvers.{inv}.value", "geodesics.enumerate") for inv in ("gpack", "gt")}
    witness_s = {inv: self_times(f"solvers.{inv}.report", f"solvers.{inv}.value") for inv in ("gpack", "gt")}
    nodes = {inv: tr.values(f"solvers.{inv}.nodes") for inv in ("gpack", "gt")}
    search_s = sum(sum(d.values()) for d in (*value_s.values(), *witness_s.values()))
    value_total = sum(sum(d.values()) for d in value_s.values())
    enum_total = sum(enum_self[k] for k in enum_self.keys() & sizes.keys())
    metrics = [
        ("graphs.build_s", mean(tr.durations("graphs.build").values()), "s"),
        ("graphs.vertices", mean(tr.values("graphs.vertices").values()), "count"),
        ("graphs.edges", mean(tr.values("graphs.edges").values()), "count"),
        ("geodesics.distances_s", mean(tr.durations("geodesics.distances").values()), "s"),
        ("geodesics.enumerate_s", mean(enum_self.values()), "s"),
        ("geodesics.catalog_size", mean(sizes.values()), "count"),
        ("geodesics.per_s", sum(sizes[k] for k in enum_self.keys() & sizes.keys()) / enum_total if enum_total else 0.0, "1/s"),
    ]
    for inv in ("gpack", "gt"):
        metrics += [
            (f"solvers.{inv}.value_s", mean(value_s[inv].values()), "s"),
            (f"solvers.{inv}.witness_s", mean(witness_s[inv].values()), "s"),
            (f"solvers.{inv}.nodes", mean(nodes[inv].values()), "count"),
        ]
    metrics += [
        ("solvers.nodes_per_s", sum(sum(n.values()) for n in nodes.values()) / search_s if search_s else 0.0, "1/s"),
        ("solvers.witness_ratio", (search_s - value_total) / value_total if value_total else 0.0, "ratio"),
        ("solvers.peak_alloc_mb", alloc_mb, "MB"),
        ("trees.gpack_tree_s", mean(tr.durations("trees.gpack_tree").values()), "s"),
        ("cli.wall_s", mean(tr.durations("cli.wall").values()), "s"),
        ("cli.main_s", mean(tr.durations("cli.main").values()), "s"),
        ("cli.startup_s", mean(self_times("cli.wall", "cli.main").values()), "s"),
        ("cli.stdout_bytes", mean(tr.values("cli.stdout_bytes").values()), "bytes"),
        ("trace.overhead_frac", traced_s / plain_s - 1, "ratio"),
    ]
    for name, value, unit in metrics:
        print(f"{name:<24} = {value:.6g} {unit}")
    print("(means per traced instance that makes the call; 0 where the workload never makes it;"
          " peak_alloc_mb is the tracemalloc peak of gpack_value, computed in this traced run only)")
    return {name: {"value": value, "unit": unit} for name, value, unit in metrics}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    os.chdir(ROOT)
    calibrate.pin_to_one_core()
    broken = selftest.run()
    if broken:
        print("checker self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 1
    instances = corpus.build(workload, seed)
    # The benchmark's own inputs are not the user's heap: keep them out of
    # every later garbage collection.
    gc.collect()
    gc.freeze()
    env = cli_env()
    probe = speed_probe(workload, env)
    counts = Counts(workload, seed)
    print(f"workload={workload} seed={seed} seconds={seconds:g} trace={int(traced)}")
    if not traced:
        setup = setup_seconds(workload, seed, SETUP_REPEATS // 2)
        passes = timed_loop(instances, seconds, lambda inst: solve(workload, inst, env), probe)
        attempts = [a for p in passes for a in p]
        if workload == "cli":
            # The largest command's typical child: one child's ru_maxrss
            # varies by about 1 MB from invocation to invocation.
            rss: dict[str, list[float]] = {}
            for a in attempts:
                if a.output:
                    rss.setdefault(a.inst.id, []).append(a.output[2])
            rss_mb = max(statistics.median(v) for v in rss.values())
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += setup_seconds(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
        check_attempts(workload, attempts)
        record_output_counts(counts, workload, attempts)
        metrics = None
    else:
        tr = Tracer()
        totals = {"plain": 0.0, "traced": 0.0}

        def body(inst):
            t0 = time.perf_counter()
            output = solve(workload, inst, env)
            totals["plain"] += time.perf_counter() - t0
            iid = f"{inst.id}#{len(tr.spans)}"
            with tr.span("instance", iid) as root:
                traced_solve(tr, iid, workload, inst, env)
            totals["traced"] += root["end"] - root["start"]
            return output

        attempts = [a for p in timed_loop(instances, seconds, body, probe) for a in p]
        check_attempts(workload, attempts)
        record_output_counts(counts, workload, attempts)
        for c in tr.counts:
            if c["name"] in ("geodesics.catalog_size", "solvers.gpack.nodes", "solvers.gt.nodes", "cli.stdout_bytes"):
                counts.record(c["instance"].rsplit("#", 1)[0], c["name"], c["value"])
        solvers = [i for i in instances if i.kind == "compute"]
        if workload == "random":
            solvers = solvers[:RANDOM_ALLOC_SOLVES]
        metrics = per_layer(tr, totals["plain"], totals["traced"], peak_alloc_mb(solvers, workload))
        print(f"{'core_speed':<24} = {core_speed(attempts):.6g} ratio  (span times above are raw wall times)")
        tr.write(STATE / f"trace-{workload}-{seed}.json")
    counts.compare_and_save()
    failed = [a for a in attempts if a.problems]
    wrong = [a for a in failed if not isinstance(a.error, BudgetExceeded)]
    for a in failed[:20]:
        print(f"FAILED {a.inst.id}: {'; '.join(a.problems)}", file=sys.stderr)
        if a in wrong and a.error is not None:
            traceback.print_exception(a.error, file=sys.stderr)
    for err in counts.errors[:20]:
        print(f"NOT REPEATABLE {err}", file=sys.stderr)
    if metrics is None:
        metrics = end_to_end(workload, setup, passes, rss_mb)
    correct = not wrong and not counts.errors
    print(json.dumps({"correct": correct, "attempted": len(attempts), "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1
