"""modend benchmark: closed-loop command latency, set-up cost and per-layer traces.

Run from the root of a checkout::

    python3 bench/run.py --workload pointed-probes --seed 1 --seconds 30 --trace 0

One operation (op) is what one ``modend -i FILES CMD`` process does, minus
interpreter start: a fresh ``cli.load(paths)`` and ``cli.run(argv, bundle)``,
so every op pays the validation gate and the cold table caches a command-line
user pays.  One client runs the workload's round of ops in a closed loop on
one thread: whole rounds, at least two, and another only while the last
round still fits in ``--seconds``.  Every report is compared with an answer
known in advance and with its earlier repeat, byte for byte; exceptions and
mismatches count as failed ops.

Times are reference seconds from ``hostclock.HostClock``: wall-clock time
rescaled by the host's speed, which a fixed probe measures every 25 ms (see
``hostclock.py``).  On a shared
2-vCPU VM the host's speed changes by up to 1.8x for minutes at a time, and
wall-clock medians of the same code then differ by a third between runs.
Each op's latency is the median of its times over the rounds;
``latency_p50_s`` and ``latency_tail_s`` are taken over the round's ops,
``ops_per_s`` is the round's correct ops over the sum of their latencies, and
``setup_s`` is the median of several set-ups.  ``latency_p50_wall_s`` gives
the same median in wall-clock seconds, for reference only.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the round
once untraced and once with the tracer of ``tracing.py`` installed, prints
per-layer self times and counters per round plus the measured tracing
overhead, and writes the spans to ``.bench_build/modend-bench/traces``.
``--smoke`` shrinks the generated instances and runs the fewest rounds; the
benchmark's own tests use it.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it list every metric with its
unit, including per-command latencies that apply to one workload only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "modend-bench"

import gen  # noqa: E402  (bench/ is on sys.path as the script's directory)
import hostclock  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 3
SUITE_CHECKS = 156
POINTED_NS = (6, 8)
GATE_N = 6
SMOKE_POINTED_NS = (4,)
SMOKE_GATE_N = 4

# per-command latency medians: metric name -> command word
COMMAND_METRICS = {"suite_s": "suite", "serre_s": "serre", "character_s": "character",
                   "upsilon_s": "upsilon", "adjshift_s": "adjshift", "nat_s": "nat",
                   "validate_s": "validate"}
# The metrics of the final JSON line, as listed in BENCHMARK.json with their
# bounds.  failed_frac and the per-command latencies are only printed:
# failed_frac is 0 on a correct program, and each command runs in one
# workload only.  No round has ten ops beyond any tail percentile, so
# latency_tail_s is the slowest op of the round.
END_TO_END = ("latency_p50_s", "latency_tail_s", "ops_per_s", "peak_rss_mb", "setup_s")
PER_LAYER = (
    "endengine.assemble_s", "endengine.assemble_s.nat", "endengine.assemble_s.oracle",
    "endengine.assemble_s.coend", "endengine.assemble_s.character",
    "endengine.assemble_s.serre", "endengine.assemble_s.upsilon",
    "endengine.systems_built", "endengine.carrier_dim", "endengine.condition_rows",
    "endengine.solve_s", "endengine.solve_calls", "endengine.rank_sum",
    "blocks.mor_products", "blocks.products_1x1_frac", "blocks.obj_built",
    "blocks.cache_hit_frac",
    "fusioncat.validate_s", "fusioncat.duality_s", "modcat.validate_s", "modfunct.validate_s",
    "scalarfield.field_mul.deg1", "scalarfield.field_mul.deg_gt1",
    "scalarfield.field_add.deg1", "scalarfield.field_add.deg_gt1",
    "scalarfield.rref_calls", "scalarfield.rref_s", "scalarfield.inverse_calls",
    "cli.load_s", "cli.input_bytes", "cli.dispatch_s",
    "theorems.certify_s", "theorems.certificates",
    "trace.op_s", "trace.layer_sum_s", "trace.overhead_frac",
)
UNITS = {"ops_per_s": "ops/s", "peak_rss_mb": "MB", "failed_frac": "ratio",
         "cli.input_bytes": "bytes", "trace.overhead_frac": "ratio",
         "blocks.products_1x1_frac": "ratio", "blocks.cache_hit_frac": "ratio"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") or "_s." in name else "count"


class Op:
    """One command on a set of instance files, with its known answer."""

    def __init__(self, paths, argv, check):
        self.paths = [str(p) for p in paths]
        self.argv = list(argv)
        self.check = check
        self.key = " ".join(self.argv) + " @ " + " ".join(self.paths)


def _known(answer):
    return lambda payload: (payload["status"] == answer["status"]
                            and payload["result"] == answer["result"])


def _suite_passes(payload) -> bool:
    result = payload["result"]
    return (payload["status"] == "ok" and len(result) == SUITE_CHECKS
            and all(v == "pass" or v.startswith("pass: ") for v in result.values()))


# -- workloads ----------------------------------------------------------------
# Each plan writes its instance files into ``workdir`` and returns the op round.

def plan_corpus_suite(cli, seed, workdir, smoke):
    """``suite`` on the bundled corpus as shipped; the seed is unused."""
    return [Op(cli.bundled_instance_paths(), ["suite"], _suite_passes)]


def plan_pointed_probes(cli, seed, workdir, smoke):
    """Serre, character, upsilon and adjshift on gauged Vec_{Z/n}^omega.

    The ops of the two sizes alternate, so the two sizes see the same host.
    """
    rng = random.Random(seed)
    per_n = []
    for n in (SMOKE_POINTED_NS if smoke else POINTED_NS):
        nm = gen.names(n)
        x, y = rng.randrange(1, n), rng.randrange(1, n)
        ops = [["upsilon", nm["category"], str(x)],
               ["character", nm["module"], nm["identity"]],
               ["adjshift", nm["category"], str(y)],
               ["serre", nm["module"]]]
        path, answers = gen.emit(workdir, n, seed, ops)
        per_n.append([Op([path], argv, _known(answers[" ".join(argv)])) for argv in ops])
    return [op for ops in zip(*per_n) for op in ops]


def plan_validate_gate(cli, seed, workdir, smoke):
    """Gate-dominated commands on gauged Vec_{Z/n}^omega at n = 6."""
    n = SMOKE_GATE_N if smoke else GATE_N
    rng = random.Random(seed)
    nm = gen.names(n)
    idf = nm["identity"]
    y = rng.randrange(n)
    z = rng.choice([g for g in range(n) if g != y])
    step = rng.choice([m for m in range(2, n) if n % m == 0])
    subgroup = ",".join(str(g) for g in range(0, n, step))
    rmul = nm["rmul"].format
    ops = [["validate"],
           ["nat", rmul(y), rmul(y), "--both"],
           ["end", "--hom", idf, idf],
           ["nat", rmul(y), rmul(z), "--both"],
           ["end", "--hom", idf, idf, "--restrict", subgroup],
           ["coend", "--hom", idf, idf],
           ["end", "--hom", idf, idf, "--ordinary"],
           ["homsuite", nm["module"]]]
    path, answers = gen.emit(workdir, n, seed, ops)
    return [Op([path], argv, _known(answers[" ".join(argv)])) for argv in ops]


WORKLOADS = {"corpus-suite": plan_corpus_suite, "pointed-probes": plan_pointed_probes,
             "validate-gate": plan_validate_gate}


# -- running ops --------------------------------------------------------------

class Ledger:
    """Attempted and failed ops, plus the first report of every op for repeats."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}

    def record(self, op, out, err) -> bool:
        self.attempted += 1
        ok = False
        if err is not None:
            print(f"op failed: {op.key}: {err}", file=sys.stderr)
        else:
            try:
                ok = op.check(json.loads(out))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                print(f"unreadable report for {op.key}: {exc}", file=sys.stderr)
            if not ok:
                print(f"wrong answer: {op.key}: {out[:400]}", file=sys.stderr)
            if self.first.setdefault(op.key, out) != out:
                print(f"report changed on repeat: {op.key}", file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1
        return ok


def run_op(cli, op):
    """Run one op; returns ``(start, end, report_or_None, error_or_None)``."""
    t0 = time.perf_counter()
    try:
        out = cli.run(op.argv, cli.load(op.paths)).dumps()
        err = None
    except Exception as exc:  # any failure of the program under test is a failed op
        out, err = None, f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return t0, time.perf_counter(), out, err


def import_modend():
    """Import modend from this checkout's ``src`` only, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "modend" or m.startswith("modend.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mod = importlib.import_module("modend")
    if SRC not in Path(mod.__file__).resolve().parents:
        raise SystemExit(f"modend was imported from {mod.__file__}, not from {SRC}")
    return {name: sys.modules[f"modend.{name}"] for name in
            ("cli", "endengine", "theorems", "blocks", "fusioncat", "scalarfield")}


def setup(workload, seed, workdir, reps, smoke, clock):
    """Import, generate and load + validate_all ``reps`` times.

    Returns ``(modules, round, reference seconds per rep, validation ok)``.
    """
    times = []
    valid = True
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        mods = import_modend()
        cli = mods["cli"]
        round_ = WORKLOADS[workload](cli, seed, workdir, smoke)
        paths = list(dict.fromkeys(p for op in round_ for p in op.paths))
        reports = cli.load(paths).validate_all()
        times.append(clock.seconds(t0, time.perf_counter()))
        for rep in reports:
            if not rep.ok:
                valid = False
                print(f"generated input fails validation: {rep.subject}: {rep.entries[0]}",
                      file=sys.stderr)
    return mods, round_, times, valid


def run_round(cli, round_, ledger, clock=None, tracer=None):
    """One pass over the round; returns ``[(seconds, wall seconds, ok)]`` in round order.

    ``seconds`` are reference seconds when a ``clock`` is given, else wall-clock.
    """
    out = []
    for op in round_:
        gc.collect()  # start from a heap without the last op's garbage, as a new process would
        if tracer is not None:
            tracer.begin_op(ledger.attempted)
        try:
            t0, t1, report, err = run_op(cli, op)
        finally:
            if tracer is not None:
                tracer.end_op()
        seconds = clock.seconds(t0, t1) if clock is not None else t1 - t0
        out.append((seconds, t1 - t0, ledger.record(op, report, err)))
    return out


def run_rounds(cli, round_, ledger, seconds, smoke, clock):
    """Closed loop of whole rounds: at least two, more while the last one fits."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        rounds.append(run_round(cli, round_, ledger, clock))
        now = time.perf_counter()
        if len(rounds) >= 2 and (smoke or now + (now - start) > deadline):
            return rounds


def run_traced(mods, round_, ledger, tracer, seconds, smoke):
    """Pairs of an untraced and a traced round: at least one, more while they fit."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain.append(run_round(mods["cli"], round_, ledger))
        tracer.install(mods)
        try:
            traced.append(run_round(mods["cli"], round_, ledger, tracer=tracer))
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if smoke or now + (now - start) > deadline:
            return plain, traced


def tail(values):
    """Highest of p99.9/p99/p95/p90 with ten samples beyond it, else the maximum."""
    ordered = sorted(values)
    count = len(ordered)
    for permille in (999, 990, 950, 900):
        if count * (1000 - permille) >= 10 * 1000:
            rank = -(-count * permille // 1000)
            return ordered[rank - 1], f"p{permille / 10:g}"
    return ordered[-1], "max"


def end_to_end(round_, rounds, setup_times, ledger):
    """End-to-end metrics from each op's median time over the rounds."""
    per_op = [statistics.median(r[i][0] for r in rounds) for i in range(len(round_))]
    wall = [statistics.median(r[i][1] for r in rounds) for i in range(len(round_))]
    always_ok = [all(r[i][2] for r in rounds) for i in range(len(round_))]
    k = f"median of {len(rounds)} rounds"
    tail_value, tail_name = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} set-ups"),
        "latency_p50_s": (statistics.median(per_op), f"median of {len(per_op)} ops, each {k}"),
        "latency_p50_wall_s": (statistics.median(wall),
                               f"wall-clock, median of {len(wall)} ops, each {k}"),
        "latency_tail_s": (tail_value, f"{tail_name} of {len(per_op)} ops, each {k}"),
        "ops_per_s": (sum(always_ok) / sum(per_op), f"correct ops of a round, each {k}"),
        "failed_frac": (ledger.failed / ledger.attempted,
                        f"{ledger.failed} of {ledger.attempted} ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of the process"),
    }
    for name, word in COMMAND_METRICS.items():
        got = [t for op, t in zip(round_, per_op) if op.argv[0] == word]
        if got:
            metrics[name] = (statistics.median(got), f"median of {len(got)} ops, each {k}")
    return metrics


def per_layer(tracer, plain, traced):
    """Per-layer self times and counters per traced round, and the tracing overhead."""
    rounds = len(traced)
    counts = tracer.counters()
    selfs = tracer.layer_self_times()
    metrics = {}
    for name in tracing.SELF_TIME_METRIC.values():
        metrics[name] = selfs.get(name, 0.0) / rounds
    metrics["endengine.assemble_s"] = sum(
        v for k, v in metrics.items() if k.startswith("endengine.assemble_s."))
    for name, value in counts.items():
        metrics[name] = value / rounds
    products = counts["blocks.mor_products"]
    metrics["blocks.products_1x1_frac"] = (counts["blocks.products_1x1"] / products
                                           if products else 0.0)
    calls = counts["blocks.cache_calls"]
    metrics["blocks.cache_hit_frac"] = (1.0 - counts["blocks.cache_misses"] / calls
                                        if calls else 0.0)
    metrics["trace.op_s"] = tracer.op_time() / rounds
    metrics["trace.layer_sum_s"] = sum(selfs.values()) / rounds
    untraced = sum(dt for r in plain for dt, _, _ in r)
    traced_s = sum(dt for r in traced for dt, _, _ in r)
    metrics["trace.overhead_frac"] = traced_s / untraced - 1.0
    notes = {name: f"per round, {rounds} traced round(s)" for name in metrics}
    notes["trace.overhead_frac"] = f"traced {traced_s:.3f} s vs untraced {untraced:.3f} s"
    return {name: (metrics[name], notes[name]) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, one set-up and the fewest rounds")
    args = parser.parse_args(argv)
    if not (SRC / "modend" / "__init__.py").is_file():
        print(f"no modend sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = WORK / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        with hostclock.HostClock() as clock:
            mods, round_, setup_times, valid = setup(
                args.workload, args.seed, workdir, 1 if args.smoke else SETUP_REPS,
                args.smoke, clock)
        ledger = Ledger()
        if not valid:
            ledger.attempted += 1
            ledger.failed += 1
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = run_traced(mods, round_, ledger, tracer, args.seconds, args.smoke)
            metrics = per_layer(tracer, plain, traced)
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            with hostclock.HostClock() as clock:
                rounds = run_rounds(mods["cli"], round_, ledger, args.seconds, args.smoke,
                                    clock)
            metrics = end_to_end(round_, rounds, setup_times, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, note) in metrics.items():
        print(f"{args.workload:15} {name:32} {value:>16.6g} {unit(name):6} {note}")
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit(name)} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
