#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-8x15 --seed 1 --seconds 15 --trace 0

A run is whole rounds of the workload's operations, in an order drawn from
``--seed``, until ``--seconds`` have passed. Each round is dealt, by domain,
to ``WORKERS`` parts. Untraced, every part runs in a fresh worker process,
one after another, because on a shared host a process's speed can differ
from the next one's by a third while staying steady within it: spreading a
round over several processes averages that out. Each part sets its domains
up several times (``setup_s`` sums the parts' medians) and checks every
output with the benchmark's own checker. With ``--trace 1`` the parts run
in this process with the solver's public functions wrapped from outside,
and the per-layer figures are printed instead of the end-to-end ones.
Per-operation records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKERS = 5
# a part's set-up runs at least this often and for at least this long; its
# median counts, so a set-up of a few milliseconds is not one noisy sample
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50


def import_solver():
    """Import ``dynalloc`` from this checkout's sources, never from elsewhere."""
    pkg = SRC / "dynalloc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: solver sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import dynalloc

    if Path(dynalloc.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: dynalloc imported from {dynalloc.__file__}, not {pkg}")


def run_part(name: str, keys, seed: int, tracer=None) -> dict:
    """Set up the given domains, then run their operations once, checked."""
    import workloads

    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        wl = workloads.WORKLOADS[name]()
        t0 = time.perf_counter()
        wl.setup(keys)
        setups.append(time.perf_counter() - t0)

    units = wl.units()
    random.Random(seed).shuffle(units)
    records = []
    for unit in units:
        steps = wl.steps(unit)
        step = next(steps)
        while True:
            label, group, states, call, check = step
            if tracer is not None:
                tracer.begin_op(group, states)
            t0 = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            out = check(result)
            records.append({
                "label": label, "s": elapsed, "makespan": out.makespan,
                "assignments": out.assignments, "posthoc": out.posthoc,
                "problems": out.problems,
            })
            try:
                step = steps.send(result)
            except StopIteration:
                break
    return {
        "setup_s": statistics.median(setups),
        "records": records,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_worker(name: str, keys, seed: int) -> dict:
    """One part in a fresh process; waits for it and returns its result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--part", json.dumps(list(keys))],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(name: str, seconds: float, seed: int, tracer=None):
    """Whole rounds until ``seconds`` have passed: (rounds, set-up per round, rss)."""
    import workloads

    rng = random.Random(seed)
    rounds, setups, rss_kb = [], [], 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        keys = list(workloads.WORKLOADS[name].keys)
        rng.shuffle(keys)
        records, setup = [], 0.0
        for i in range(min(WORKERS, len(keys))):
            part_seed = rng.randrange(2**32)
            if tracer is None:
                part = run_worker(name, keys[i::WORKERS], part_seed)
            else:
                part = run_part(name, keys[i::WORKERS], part_seed, tracer)
            records += part["records"]
            setup += part["setup_s"]
            rss_kb = max(rss_kb, part["rss_kb"])
        rounds.append(records)
        setups.append(setup)
    return rounds, setups, rss_kb


def judge(name: str, rounds, known_faults) -> tuple[bool, int, int]:
    """(correct, attempted, failed); prints every unexpected problem."""
    correct = True
    failed = 0
    first = {r["label"]: r for r in rounds[0]}
    for records in rounds:
        for r in records:
            if r["problems"]:
                failed += 1
                if (name, r["label"]) not in known_faults:
                    correct = False
                    print(f"FAIL {r['label']}: {r['problems'][:5]}", file=sys.stderr)
            ref = first[r["label"]]
            if any(r[k] != ref[k] for k in ("makespan", "assignments", "posthoc")):
                correct = False
                print(f"FAIL {r['label']}: output differs between rounds", file=sys.stderr)
    attempted = sum(len(records) for records in rounds)
    return correct, attempted, failed


def end_to_end(setups, rounds, rss_kb) -> dict:
    times = [r["s"] for records in rounds for r in records]
    first = rounds[0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(r["s"] for r in rec) for rec in rounds), "s"),
        "op_p50_ms": (statistics.median(times) * 1000.0, "ms"),
        "makespan_sum": (math.fsum(r["makespan"] for r in first), "sim_s"),
        "assignments_sum": (sum(r["assignments"] for r in first), "count"),
        "posthoc_bound_sum": (math.fsum(r["posthoc"] for r in first), "sim_s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", help=argparse.SUPPRESS)  # worker: JSON list of domain keys
    args = ap.parse_args(argv)

    import_solver()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.part is not None:
        print(json.dumps(run_part(args.workload, json.loads(args.part), args.seed)))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        rounds, setups, rss_kb = run_rounds(args.workload, args.seconds, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.remove()

    correct, attempted, failed = judge(args.workload, rounds, workloads.KNOWN_FAULTS)
    if tracer is not None:
        mismatches = tracer.reconcile()
        for m in mismatches:
            print(f"FAIL trace: {m}", file=sys.stderr)
        correct = correct and not mismatches
        walls = [sum(r["s"] for r in rec) for rec in rounds]
        metrics = tracer.metrics(len(rounds), workloads.GROUPS, walls)
    else:
        metrics = end_to_end(setups, rounds, rss_kb)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    detail = {"setup_s": setups, "rounds": rounds, "metrics": metrics}
    if tracer is not None:
        detail["functions"] = {
            q: {"calls": tracer.total_calls(q), "s": tracer.incl[q],
                "self_s": tracer.self_s[q], "max_ms": tracer.max_s[q] * 1000.0}
            for q in sorted(tracer.incl)
        }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
