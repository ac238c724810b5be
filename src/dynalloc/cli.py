"""Command line entry point: gen, solve, run-scenario, bounds."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import problem_io, runner
from .analysis import BoundError, check_enumerable
from .domain import DomainError, resource_count, validate_problem
from .generator import generate_problem
from .search import search


# flags several subcommands share; each subcommand names the ones it reads
SHARED_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--alpha": dict(type=float, default=0.25),
    "--out": dict(type=Path, default=Path("out")),
    "--prm-samples": dict(type=int, default=200),
    "--prm-k": dict(type=int, default=8),
}


def _subcommand(sub, name: str, help: str, *shared: str) -> argparse.ArgumentParser:
    """A subcommand's parser with the named shared flags.

    It takes no abbreviation: an abbreviated flag the subcommand lacks,
    such as ``bounds --alpha``, would be read as another (``--alphas``).
    """
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    for flag in shared:
        parser.add_argument(flag, **SHARED_FLAGS[flag])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynalloc",
        description="Coalition formation, scheduling, and motion planning "
        "for heterogeneous robot teams, with targeted repair under dynamic events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "gen", "generate a random problem file", "--seed", "--out")
    p.add_argument("--robots", type=int, default=8)
    p.add_argument("--tasks", type=int, default=15)
    p.add_argument("--traits", type=int, default=4)

    p = _subcommand(
        sub, "solve", "solve a problem file once",
        "--seed", "--alpha", "--out", "--prm-samples", "--prm-k",
    )
    p.add_argument("problem", type=Path)
    p.add_argument("--max-expansions", type=int, default=100_000)
    p.add_argument("--max-seconds", type=float, default=300.0)

    p = _subcommand(
        sub, "run-scenario", "apply a scenario's events in order",
        "--seed", "--alpha", "--out", "--prm-samples", "--prm-k",
    )
    p.add_argument("problem", type=Path)
    p.add_argument("scenario", type=Path)
    p.add_argument("--mode", choices=["repair", "recompute", "both"], default="both")
    p.add_argument("--reps", type=int, default=3, help="timing repetitions per event")

    p = _subcommand(
        sub, "bounds", "alpha sweep validating the gap bounds",
        "--seed", "--out", "--prm-samples", "--prm-k",
    )
    p.add_argument("--problem", type=Path, default=None, help="problem file (else generated)")
    p.add_argument("--alphas", type=float, nargs="+", default=[0.0, 0.1, 0.2, 0.3, 0.4, 0.45])
    p.add_argument("--robots", type=int, default=3)
    p.add_argument("--tasks", type=int, default=4)
    p.add_argument("--traits", type=int, default=3)
    p.add_argument("--instances", type=int, default=1)
    return parser


def _refused(exc: DomainError | BoundError) -> int:
    """Report input the model refused as one JSON line on stderr; exit 2."""
    kind = "parse" if isinstance(exc, problem_io.ParseError) else "input"
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return 2


def _argument_error(args) -> DomainError | BoundError | None:
    """Why the arguments cannot be used, or None when they can.

    ``gen`` and ``bounds`` generate at least one problem of at least one
    robot, task and trait. ``bounds`` keeps each of its alphas below 0.5,
    where the gap bound still means something; ``solve`` and
    ``run-scenario`` take one alpha in [0, 1]. NaN lies in neither range.
    Every subcommand but ``gen`` builds a roadmap from ``--prm-samples``
    and ``--prm-k``. ``--reps`` and ``--max-expansions`` are at least 1, and
    ``--max-seconds`` is positive (NaN is not).
    """
    for flag in ("robots", "tasks", "traits", "instances", "reps", "max-expansions"):
        count = getattr(args, flag.replace("-", "_"), 1)
        if count < 1:
            return DomainError(f"--{flag} {count} rejected: at least 1 is needed")
    if not getattr(args, "max_seconds", 1.0) > 0.0:
        return DomainError(f"--max-seconds {args.max_seconds} rejected: it must be positive")
    if args.command == "gen":
        return None
    if args.command == "bounds":
        for a in args.alphas:
            if not 0.0 <= a < 0.5:
                return BoundError(
                    f"alpha={a} rejected: the gap bound loses significance at alpha >= 0.5"
                )
    elif not 0.0 <= args.alpha <= 1.0:
        return DomainError(f"alpha={args.alpha} rejected: alpha must lie in [0, 1]")
    if args.prm_samples < 1:
        return DomainError(
            f"--prm-samples {args.prm_samples} rejected: a roadmap needs at least 1 sample"
        )
    if args.prm_k < 1:
        return DomainError(
            f"--prm-k {args.prm_k} rejected: each roadmap vertex needs at least 1 neighbor"
        )
    return None


def _load_problem(path: Path):
    """(domain, 0) for a valid problem file, else (None, 2) once it is reported.

    A file the model refuses is one JSON line; a well-formed problem that
    fails ``validate_problem`` is the list of its issues.
    """
    try:
        domain = problem_io.load_domain(path)
    except DomainError as exc:
        return None, _refused(exc)
    report = validate_problem(domain)
    if not report.ok:
        print(json.dumps([vars(i) for i in report.issues], indent=2), file=sys.stderr)
        return None, 2
    return domain, 0


def cmd_gen(args) -> int:
    domain = generate_problem(args.seed, args.robots, args.tasks, args.traits)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"problem_seed{args.seed}.json"
    problem_io.save_domain(domain, path)
    print(path)
    return 0


def cmd_solve(args) -> int:
    domain, status = _load_problem(args.problem)
    if domain is None:
        return status
    result = search(
        domain,
        args.alpha,
        args.prm_samples,
        args.prm_k,
        args.seed,
        args.max_expansions,
        args.max_seconds,
    )
    if result.solution is None:
        print(f"no solution: {result.reason}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    summary = {
        "makespan": result.solution.makespan,
        "assignments": resource_count(result.solution.allocation),
        "start_times": list(result.solution.schedule.start_times),
        "allocation": result.solution.allocation.entries.tolist(),
        "expansions": result.state.stats.expansions,
        "bnb_nodes": result.state.stats.bnb_nodes,
        "relaxations": result.state.stats.relaxations,
    }
    (args.out / "solution.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    return 0


def cmd_run_scenario(args) -> int:
    domain, status = _load_problem(args.problem)
    if domain is None:
        return status
    try:
        events = problem_io.load_events(args.scenario)
        result = runner.run_scenario(
            domain,
            events,
            args.mode,
            args.alpha,
            args.seed,
            args.prm_samples,
            args.prm_k,
            repetitions=args.reps,
        )
    except DomainError as exc:
        return _refused(exc)
    except runner.ScenarioError as exc:
        print(json.dumps({"error": "scenario", "message": str(exc)}), file=sys.stderr)
        return 1
    csv_path, json_path = runner.write_results(result, args.out)
    table = runner.summary_table(result)
    (Path(args.out) / "summary.txt").write_text(table + "\n")
    print(table)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_bounds(args) -> int:
    if args.problem is not None:
        domain, status = _load_problem(args.problem)
        if domain is None:
            return status
        domains = [domain]
    else:
        domains = [
            generate_problem(args.seed + i, args.robots, args.tasks, args.traits)
            for i in range(args.instances)
        ]
    for domain in domains:  # refuse an oversized domain before any search runs
        try:
            check_enumerable(domain)
        except BoundError as exc:
            return _refused(exc)
    try:
        reports = runner.run_bounds_sweep(
            domains, list(args.alphas), args.prm_samples, args.prm_k, args.seed
        )
    except BoundError as exc:  # e.g. a search that found no solution
        print(json.dumps({"error": "bounds", "message": str(exc)}), file=sys.stderr)
        return 1
    path = runner.write_bounds_csv(reports, Path(args.out) / "bounds.csv")
    print(f"wrote {path} ({len(reports)} rows, all bound-respecting)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # refuse unusable arguments before any domain is read or generated
    error = _argument_error(args)
    if error is not None:
        return _refused(error)
    return {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "run-scenario": cmd_run_scenario,
        "bounds": cmd_bounds,
    }[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
