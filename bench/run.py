"""ilkit benchmark: one command per workload, run from the root of a checkout.

    python3 bench/run.py --workload screen --seed 1 --seconds 30 --trace 0

Inputs are generated from ``--seed`` by a separate process (bench/gen.py)
into ``.bench_work/``; the measured processes see only those files and the
``ilkit`` sources under ``src/``.

The unit of measurement is a round: the workload's fixed list of
operations, run in a fresh process. ``--trace 0`` runs whole rounds back to
back for about ``--seconds`` of operation time and reports the end-to-end
metrics: set-up time (process start to ready for the first operation,
median over at least ``SETUP_SAMPLES`` processes), peak RSS, and the cost
of the operations in reference loops (see ``reference_sample``); the
wall-clock throughput and latency are printed in the summary. ``--trace 1``
runs one round untraced in a
fresh process and the same round with spans around every ilkit layer in
this one, and reports the per-layer metrics. Both modes check the outputs
and print an output digest; the last line of standard output is one JSON
object. The exit code is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

# One caller, no threads: keep numpy's BLAS single-threaded in this process
# and its children. Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
REF_EVERY_S = 0.05   # wall time between two reference samples
REF_REPEATS = 2

# Workload-specific names of the generic metrics: the end-to-end costs and
# the wall-clock figures printed beside them.
ALIASES = {
    "screen": {"cost_per_item": "cost_per_search", "op_cost_p50": "search_cost_p50",
               "op_cost_p90": "search_cost_p90", "throughput_per_s": "searches_per_s",
               "op_p50_ms": "search_p50_ms", "op_p90_ms": "search_p90_ms"},
    "ingest_cv": {"cost_per_item": "cost_per_record", "op_cost_p50": "pass_cost_p50",
                  "op_cost_p90": "pass_cost_p90", "throughput_per_s": "records_per_s",
                  "op_p50_ms": "pass_p50_ms", "op_p90_ms": "pass_p90_ms"},
    "similarity": {"cost_per_item": "cost_per_molecule", "op_cost_p50": "mol_cost_p50",
                   "op_cost_p90": "mol_cost_p90", "throughput_per_s": "molecules_per_s",
                   "op_p50_ms": "mol_p50_ms", "op_p90_ms": "mol_p90_ms"},
}
SAMPLE_NOUN = {"screen": "searches", "ingest_cv": "CV passes", "similarity": "molecules"}

# A fixed graph for the reference loop's label refinement.
_REF_NEIGHBOURS = [((7 * i + 3) % 60, (13 * i + 5) % 60, (31 * i + 11) % 60) for i in range(60)]


class _RefNode:
    __slots__ = ("label", "degree", "neighbours")

    def __init__(self, label: int):
        self.label = label
        self.degree = 0
        self.neighbours: list[_RefNode] = []

    def signature(self) -> tuple:
        return (self.label, self.degree, tuple(sorted(n.label for n in self.neighbours)))


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable] + argv, env=child_env(), cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )


def files_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def monotonic_s() -> float:
    """A clock that every process on the host shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> None:
    """Fixed interpreter work that no ilkit change can touch: neighbour-label
    refinement with tuple sorting over a fixed graph, once on plain lists
    and once on small objects with method calls -- the kind of work
    canonicalization, featurization and clustering do. Of the loops tried,
    this pair's time followed the host's drift most closely for the ops of
    every workload."""
    labels = [i % 5 for i in range(len(_REF_NEIGHBOURS))]
    for _ in range(3):
        signatures = [(labels[i], tuple(sorted(labels[j] for j in nbrs)))
                      for i, nbrs in enumerate(_REF_NEIGHBOURS)]
        rank = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        labels = [rank[sig] for sig in signatures]
    nodes = [_RefNode(i % 5) for i in range(len(_REF_NEIGHBOURS))]
    for node, nbrs in zip(nodes, _REF_NEIGHBOURS):
        node.neighbours = [nodes[j] for j in nbrs]
        node.degree = len(nbrs)
    for _ in range(3):
        signatures = [node.signature() for node in nodes]
        rank = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        for node, sig in zip(nodes, signatures):
            node.label = rank[sig]


def reference_sample() -> float:
    """Seconds for one reference loop: the fastest of ``REF_REPEATS``, with
    the garbage collector off so the program's heap does not enter into it.

    On a shared host the speed of this process can drift by up to 2x, at
    times within a tenth of a second; the ratio of an operation's time to
    the reference loop's, taken next to it, cancels most of that drift. That ratio is an operation's cost, in
    reference loops ("ref")."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REF_REPEATS):
            t0 = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def load_workload(name: str, inputs: Path):
    import workloads

    return workloads, workloads.WORKLOADS[name](inputs)


def run_round(workload, n_ops: int, reference: bool = True):
    """Run ops ``0 .. n_ops - 1``: (results, op seconds, op costs, reference
    seconds).

    With ``reference``, a SIGALRM timer takes a reference sample every
    ``REF_EVERY_S`` of wall time (in this thread, between bytecodes, so also
    inside a long library call), and one is taken before the first op and
    after the last. An op's time leaves out the samples taken during it;
    its cost is its time over the mean of the samples taken during it and
    the nearest one on each side."""
    samples: list[tuple[float, float]] = []   # (taken at, reference seconds)
    paused = [0.0]

    def sample(*_signal) -> None:
        t0 = perf_counter()
        samples.append((t0, reference_sample()))
        paused[0] += perf_counter() - t0

    reference = reference and n_ops > 0
    results, windows = [], []
    if reference:
        sample()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
    try:
        for i in range(n_ops):
            t0 = perf_counter()
            p0 = paused[0]
            results.append(workload.run_op(i))
            t1 = perf_counter()
            windows.append((t0, t1, t1 - t0 - (paused[0] - p0)))
    finally:
        if reference:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            sample()
    costs = []
    if reference:
        times = [t for t, _r in samples]
        for t0, t1, seconds in windows:
            around = samples[bisect.bisect_right(times, t0) - 1: bisect.bisect_left(times, t1) + 1]
            costs.append(seconds / statistics.fmean(r for _t, r in around))
    return results, [d for _t0, _t1, d in windows], costs, [r for _t, r in samples]


def round_child(args) -> int:
    """One round in this fresh process; prints its report as one JSON line."""
    workloads, workload = load_workload(args.workload, Path(args.round))
    ready_at = monotonic_s()
    n_ops = workload.round_ops if args.ops is None else args.ops
    results, durations, costs, refs = run_round(workload, n_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = [r.output for r in results]
    print(json.dumps({
        "ready_at": ready_at,
        "durations": durations,
        "costs": costs,
        "op_items": [r.items for r in results],
        "ref_s": refs,
        "wall_s": sum(durations),
        "peak_rss_mb": peak_rss_mb,
        "items": sum(r.items for r in results),
        "failed": [f for r in results for f in r.failed],
        "rejected": [f for r in results for f in r.rejected],
        "digest": workload.digest(outputs),
        "errors": workload.check([o for o in outputs if o is not None]) if args.check else [],
    }))
    return 0


def spawn_round(args, inputs: Path, check: bool = False, ops: int | None = None):
    """Run one round in a fresh process: (set-up seconds, round report)."""
    argv = [str(BENCH / "run.py"), "--workload", args.workload, "--round", str(inputs)]
    argv += ["--check"] if check else []
    argv += ["--ops", str(ops)] if ops is not None else []
    spawned_at = monotonic_s()
    child = run_child(argv)
    report = json.loads(child.stdout.strip().splitlines()[-1])
    return report["ready_at"] - spawned_at, report


def measure_untraced(args, inputs: Path) -> dict:
    """Whole rounds back to back; another starts while the measured time
    should end less than half a round past ``--seconds``."""
    setups, rounds = [], []
    while True:
        setup, rnd = spawn_round(args, inputs, check=not rounds)
        setups.append(setup)
        rounds.append(rnd)
        op_s = [sum(r["durations"]) for r in rounds]
        if sum(op_s) + statistics.median(op_s) / 2 >= args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_round(args, inputs, ops=0)[0])
    ops = [op for r in rounds for op in zip(r["durations"], r["costs"], r["op_items"])]
    latencies_ms = [d * 1e3 for d, _c, n in ops if n]
    op_costs = [c for _d, c, n in ops if n]
    items = sum(n for _d, _c, n in ops)
    seconds = sum(d for d, _c, _n in ops)
    refs_ms = [x * 1e3 for r in rounds for x in r["ref_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
        "cost_per_item": (sum(c for _d, c, _n in ops) / items, "ref"),
        "op_cost_p50": (statistics.median(op_costs), "ref"),
        "op_cost_p90": (percentile(op_costs, 90), "ref"),
    }
    wall_clock = {
        "throughput_per_s": (items / seconds, "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "ref_loop_ms": (statistics.median(refs_ms), "ms"),
    }
    notes = [
        f"{len(rounds)} rounds of {len(rounds[0]['durations'])} ops in {seconds:.3f} s; "
        f"{len(latencies_ms)} {SAMPLE_NOUN[args.workload]} timed; "
        f"set-up samples {[round(x, 4) for x in setups]}",
        f"{len(refs_ms)} reference samples, {min(refs_ms):.3f} to {max(refs_ms):.3f} ms",
    ]
    errors = [e for r in rounds for e in r["errors"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        errors.append(f"rounds over the same inputs disagree: digests {sorted(digests)}")
    return summarize(rounds, metrics, notes, errors, wall_clock)


def measure_traced(args, inputs: Path) -> dict:
    """One untraced round in a fresh process, then the same round traced here."""
    _setup, untraced = spawn_round(args, inputs)
    workloads, workload = load_workload(args.workload, inputs)

    import spans

    tracer = spans.Tracer()
    workloads.install_tracing(tracer)
    try:
        results, durations, _costs, _refs = run_round(workload, workload.round_ops, reference=False)
    finally:
        tracer.uninstall()
    wall = sum(durations)
    trace_dir = ROOT / ".bench_work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-s{args.seed}.tsv"
    tracer.write(trace_path)
    metrics = workloads.layer_metrics(tracer, wall, untraced["wall_s"])
    notes = [
        f"{len(results)} ops traced in {wall:.3f} s, untraced in {untraced['wall_s']:.3f} s; "
        f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}",
        "largest self times: " + ", ".join(
            f"{name} {s:.3f} s" for name, s in
            sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:4]
        ),
    ]
    outputs = [r.output for r in results]
    errors = workload.check([o for o in outputs if o is not None])
    traced = {
        "digest": workload.digest(outputs),
        "items": sum(r.items for r in results),
        "failed": [f for r in results for f in r.failed],
        "rejected": [f for r in results for f in r.rejected],
    }
    if traced["digest"] != untraced["digest"]:
        errors.append(f"traced digest {traced['digest']} != untraced digest {untraced['digest']}")
    return summarize([traced], metrics, notes, errors)


def summarize(rounds: list[dict], metrics, notes, errors, wall_clock=None) -> dict:
    return {
        "metrics": metrics,
        "wall_clock": wall_clock or {},
        "notes": notes,
        "errors": errors,
        "digest": rounds[0]["digest"],
        "attempted": sum(r["items"] for r in rounds),
        "failed": [f for r in rounds for f in r["failed"]],
        "rejected": [f for r in rounds for f in r["rejected"]],
    }


def report(args, inputs_digest: str, outcome: dict) -> bool:
    aliases = ALIASES[args.workload]
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  {mode}")
    print(f"inputs_digest {inputs_digest}")
    print(f"output_digest {outcome['digest']}")
    for note in outcome["notes"]:
        print(f"  {note}")
    for name, (value, unit) in outcome["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name:34s} {value:14.6g} {unit}{alias}")
    if outcome["wall_clock"]:
        print("wall clock (not gated; the host's speed drifts):")
    for name, (value, unit) in outcome["wall_clock"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:32s} {value:14.6g} {unit}{alias}")
    attempted, failed, rejected = outcome["attempted"], outcome["failed"], outcome["rejected"]
    print(f"failed_frac {len(failed) / attempted:.6g} ({len(failed)} failed / {attempted} attempted)")
    for line, count in sorted(Counter(failed).items()):
        print(f"  failed x{count}: {line}")
    if rejected:
        print(f"known rejections {len(rejected)} ({len(rejected) / attempted:.4g} of attempted):")
        for line, count in sorted(Counter(rejected).items()):
            print(f"  rejected x{count}: {line}")
    correct = not outcome["errors"]
    for error in outcome["errors"]:
        print(f"CHECK FAILED: {error}")
    print(f"correct {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ilkit benchmark")
    parser.add_argument("--workload", choices=sorted(ALIASES), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input size; 'small' is for the benchmark's own tests")
    parser.add_argument("--round", metavar="INPUTS", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ilkit" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/ilkit; run from the root of an ilkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.round:
        return round_child(args)

    inputs = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        run_child([str(BENCH / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
                   "--size", args.size, "--out", str(inputs), "--root", str(ROOT)])
        inputs_digest = files_digest(inputs)
        outcome = (measure_traced if args.trace else measure_untraced)(args, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return 0 if report(args, inputs_digest, outcome) else 1


if __name__ == "__main__":
    sys.exit(main())
