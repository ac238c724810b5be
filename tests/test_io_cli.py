"""JSON round trips, strict parsing, the CLI, and CSV determinism."""

import csv
import hashlib
import json

import numpy as np
import pytest

from dynalloc import cli, motion, runner
from dynalloc.cli import main
from dynalloc.generator import generate_event, generate_problem
from dynalloc.problem_io import (
    ParseError,
    domain_from_dict,
    domain_to_dict,
    events_from_dict,
    load_domain,
    load_events,
    save_domain,
    save_events,
)
from dynalloc.repair import DynamicEvent, EventError, EventKind, decompose_mixed
from dynalloc.search import search
from dynalloc.runner import TIMING_COLUMNS, ScenarioError, run_scenario, write_results


def _domains_equal(a, b) -> bool:
    return (
        a.team.robot_ids == b.team.robot_ids
        and a.team.trait_names == b.team.trait_names
        and np.allclose(a.team.entries, b.team.entries)
        and np.allclose(a.requirements.entries, b.requirements.entries)
        and a.network.precedence_edges == b.network.precedence_edges
        and a.network.mutex_edges == b.network.mutex_edges
        and [(t.id, t.duration, t.initial_config, t.terminal_config) for t in a.network.tasks]
        == [(t.id, t.duration, t.initial_config, t.terminal_config) for t in b.network.tasks]
        and a.world.bounds == b.world.bounds
        and a.world.obstacles == b.world.obstacles
        and a.world.robot_start_configs == b.world.robot_start_configs
        and a.world.robot_speeds == b.world.robot_speeds
    )


def _set(data, dotted: str, value):
    """Set the field a dotted path names, such as ``robots.0.speed``."""
    *path, last = dotted.split(".")
    for key in path:
        data = data[int(key) if isinstance(data, list) else key]
    data[int(last) if isinstance(data, list) else last] = value


class TestDomainIO:
    def test_round_trip(self, tmp_path, desk_domain):
        path = tmp_path / "p.json"
        save_domain(desk_domain, path)
        assert _domains_equal(load_domain(path), desk_domain)

    def test_unknown_top_level_key_rejected(self, desk_domain):
        data = domain_to_dict(desk_domain)
        data["oops"] = 1
        with pytest.raises(ParseError, match="oops"):
            domain_from_dict(data)

    def test_unknown_robot_key_rejected(self, desk_domain):
        data = domain_to_dict(desk_domain)
        data["robots"][0]["speeed"] = 1.0
        with pytest.raises(ParseError, match="speeed"):
            domain_from_dict(data)

    def test_unknown_trait_name_rejected(self, desk_domain):
        data = domain_to_dict(desk_domain)
        data["tasks"][0]["requires"]["bogus_trait"] = 1.0
        with pytest.raises(ParseError, match="bogus_trait"):
            domain_from_dict(data)

    def test_missing_required_key_rejected(self, desk_domain):
        data = domain_to_dict(desk_domain)
        del data["world"]
        with pytest.raises(ParseError, match="world"):
            domain_from_dict(data)

    def test_bad_edge_task_id_rejected(self, desk_domain):
        data = domain_to_dict(desk_domain)
        data["precedence"] = [["t0", "ghost"]]
        with pytest.raises(ParseError, match="ghost"):
            domain_from_dict(data)

    def test_bad_obstacle_type_rejected(self, desk_domain):
        data = domain_to_dict(desk_domain)
        data["world"]["obstacles"] = [{"type": "triangle"}]
        with pytest.raises(ParseError):
            domain_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("robots.0.start", ["a", "b"], "start"),
            ("robots.0.start", [1.0, 2.0, 3.0], "start"),
            ("robots.0.start", [1.0], "start"),
            ("tasks.0.initial", [1.0, 2.0, 3.0], "initial"),
            ("tasks.0.initial", ["x", "y"], "initial"),
            ("tasks.0.terminal", "ab", "terminal"),
            ("world.bounds", [0.0, 0.0, 10.0], "bounds"),
            ("world.obstacles.0.c", ["a", "b"], "'c'"),
            ("robots.0.id", 7, "'id'"),
            ("precedence", [["t0", "t1", "t2"]], "precedence"),
            ("robots", {}, "robots"),
            ("traits", "ab", "traits"),
            ("world.obstacles.0", {"type": "rect", "min": [1.0, 1.0, 1.0], "max": [2.0, 2.0]},
             "'min'"),
            ("robots.0.speed", 10**400, "speed"),
            ("tasks.0.initial", [1.0, 10**400], "initial"),
        ],
        ids=["start-strings", "start-3d", "start-1d", "initial-3d", "initial-strings",
             "terminal-string", "bounds-3", "center-strings", "id-number", "edge-of-3",
             "robots-object", "traits-string", "rect-corner-3d", "speed-overflow",
             "initial-overflow"],
    )
    def test_malformed_field_refused_by_name(self, tmp_path, capsys, field, value, name):
        """Refused as one parse error naming the field and the file, exit 2."""
        data = domain_to_dict(generate_problem(0, 3, 4, 3))
        _set(data, field, value)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "parse"
        assert str(path) in err["message"]
        assert name in err["message"]


    @pytest.mark.parametrize(
        "field, value, code",
        [
            ("tasks.0.initial", [-50.0, 1.0], "SITE_OUT_OF_BOUNDS"),
            ("tasks.0.initial", [float("nan"), 1.0], "SITE_NOT_FINITE"),
            ("tasks.0.terminal", "centre", "SITE_IN_OBSTACLE"),
            ("world.obstacles.0.r", -1.0, "BAD_OBSTACLE"),
            ("world.obstacles.0", {"type": "rect", "min": [5.0, 5.0], "max": [4.0, 6.0]},
             "BAD_OBSTACLE"),
            ("world.bounds", [0.0, 0.0, 0.0, 50.0], "BAD_BOUNDS"),
        ],
        ids=["site-outside", "site-nan", "site-in-obstacle", "radius-negative",
             "rect-inverted", "bounds-flat"],
    )
    def test_invalid_site_obstacle_or_bounds_refused(self, tmp_path, capsys, field, value, code):
        """Listed as an issue and refused with exit 2, before any search."""
        data = domain_to_dict(generate_problem(0, 3, 4, 3))
        if value == "centre":
            value = data["world"]["obstacles"][0]["c"]
        _set(data, field, value)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
        issues = json.loads(capsys.readouterr().err)
        assert code in [i["code"] for i in issues]
        assert not (tmp_path / "out").exists()


class TestEventIO:
    def test_round_trip_sorted_by_time(self, tmp_path, desk_domain):
        events = [
            generate_event(desk_domain, EventKind.DURATION_CHANGED, 1),
            generate_event(desk_domain, EventKind.TRAITS_REDUCED, 2),
        ]
        path = tmp_path / "events.json"
        save_events(events, path)
        loaded = load_events(path)
        assert sorted(e.time for e in events) == [e.time for e in loaded]
        assert {e.kind for e in loaded} == {e.kind for e in events}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError, match="sharknado"):
            events_from_dict(
                {"events": [{"time": 0.0, "kind": "sharknado", "payload": {}}]}
            )

    def test_unknown_event_key_rejected(self):
        with pytest.raises(ParseError):
            events_from_dict(
                {"events": [{"time": 0.0, "kind": "agent_lost", "payload": {}, "x": 1}]}
            )


class TestCLI:
    def test_gen_then_solve(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["gen", "--seed", "0", "--robots", "3", "--tasks", "4", "--traits", "3",
             "--out", str(out)]
        )
        assert rc == 0
        problem = out / "problem_seed0.json"
        assert problem.exists()
        rc = main(["solve", str(problem), "--out", str(out), "--alpha", "0.25"])
        assert rc == 0
        summary = json.loads((out / "solution.json").read_text())
        assert summary["makespan"] > 0
        # the scheduler's own work counters, summed over the search's solves
        assert summary["relaxations"] >= summary["bnb_nodes"] >= 1

    def test_solve_reports_exhaustion(self, tmp_path, capsys):
        # a requirement no coalition can meet
        data = {
            "traits": ["lift"],
            "robots": [
                {"id": "r0", "traits": {"lift": 1.0}, "start": [1.0, 1.0], "speed": 1.0}
            ],
            "tasks": [
                {
                    "id": "t0",
                    "duration": 1.0,
                    "requires": {"lift": 99.0},
                    "initial": [2.0, 2.0],
                    "terminal": [3.0, 3.0],
                }
            ],
            "world": {"bounds": [0.0, 0.0, 10.0, 10.0], "obstacles": []},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_bounds_rejects_large_alpha(self, tmp_path, capsys):
        rc = main(
            ["bounds", "--alphas", "0.6", "--out", str(tmp_path / "out"), "--robots", "2",
             "--tasks", "2", "--traits", "2"]
        )
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input"
        assert "alpha=0.6 rejected" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flags, word",
        [
            ("solve", ["--alpha", "1.5"], "alpha=1.5"),
            ("solve", ["--alpha", "nan"], "alpha=nan"),
            ("solve", ["--alpha", "-0.1"], "alpha=-0.1"),
            ("solve", ["--prm-samples", "0"], "--prm-samples 0"),
            ("run-scenario", ["--alpha", "1.5"], "alpha=1.5"),
            ("run-scenario", ["--alpha", "nan"], "alpha=nan"),
            ("run-scenario", ["--prm-samples", "0"], "--prm-samples 0"),
            ("bounds", ["--alphas", "0.0", "0.5"], "alpha=0.5"),
            ("bounds", ["--alphas", "nan"], "alpha=nan"),
            ("bounds", ["--prm-samples", "0"], "--prm-samples 0"),
            ("solve", ["--prm-k", "0"], "--prm-k 0"),
            ("solve", ["--prm-k", "-1"], "--prm-k -1"),
            ("run-scenario", ["--prm-k", "0"], "--prm-k 0"),
            ("bounds", ["--prm-k", "-1"], "--prm-k -1"),
            ("run-scenario", ["--reps", "0"], "--reps 0"),
            ("run-scenario", ["--reps", "-4"], "--reps -4"),
            ("solve", ["--max-seconds", "nan"], "--max-seconds nan"),
            ("solve", ["--max-seconds", "-1"], "--max-seconds -1"),
            ("solve", ["--max-seconds", "0"], "--max-seconds 0"),
            ("solve", ["--max-expansions", "0"], "--max-expansions 0"),
        ],
        ids=["solve-alpha-1.5", "solve-alpha-nan", "solve-alpha-negative", "solve-no-samples",
             "run-scenario-alpha-1.5", "run-scenario-alpha-nan", "run-scenario-no-samples",
             "bounds-alpha-0.5", "bounds-alpha-nan", "bounds-no-samples",
             "solve-no-neighbors", "solve-negative-neighbors", "run-scenario-no-neighbors",
             "bounds-negative-neighbors", "run-scenario-no-reps", "run-scenario-negative-reps",
             "solve-nan-seconds", "solve-negative-seconds", "solve-no-seconds",
             "solve-no-expansions"],
    )
    def test_unusable_search_arguments_refused(self, tmp_path, capsys, monkeypatch,
                                               command, flags, word):
        """Refused as one JSON line, exit 2, before any problem is read."""

        def refuse(*args, **kwargs):
            raise AssertionError("a problem was read or a roadmap built")

        monkeypatch.setattr(motion, "build_roadmap", refuse)
        monkeypatch.setattr(cli.problem_io, "load_domain", refuse)
        ppath, spath = tmp_path / "p.json", tmp_path / "s.json"
        save_domain(generate_problem(0, 2, 2, 2), ppath)
        spath.write_text(json.dumps({"events": []}))
        argv = {
            "solve": ["solve", str(ppath)],
            "run-scenario": ["run-scenario", str(ppath), str(spath), "--reps", "1"],
            "bounds": ["bounds", "--problem", str(ppath)],
        }[command]
        assert main(argv + flags + ["--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input"
        assert word in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--alpha", "0.3"],
            ["gen", "--prm-samples", "50"],
            ["gen", "--prm-k", "4"],
            ["bounds", "--alpha", "0.3"],
        ],
        ids=["gen-alpha", "gen-prm-samples", "gen-prm-k", "bounds-alpha"],
    )
    def test_flags_a_subcommand_never_reads_refused(self, tmp_path, capsys, argv):
        """Refused by the parser with exit status 2; nothing is written."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["gen", "--robots", "0"], "--robots 0"),
            (["gen", "--tasks", "0"], "--tasks 0"),
            (["gen", "--traits", "-1"], "--traits -1"),
            (["bounds", "--tasks", "0"], "--tasks 0"),
            (["bounds", "--traits", "0"], "--traits 0"),
            (["bounds", "--instances", "0"], "--instances 0"),
        ],
        ids=["gen-no-robots", "gen-no-tasks", "gen-negative-traits", "bounds-no-tasks",
             "bounds-no-traits", "bounds-no-instances"],
    )
    def test_counts_below_one_refused(self, tmp_path, capsys, monkeypatch, argv, word):
        """Refused as one JSON line, exit 2, before any problem is generated."""

        def no_generation(*args, **kwargs):
            raise AssertionError("a problem was generated")

        monkeypatch.setattr(cli, "generate_problem", no_generation)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input"
        assert word in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "event",
        [
            {"time": -1.0, "kind": "agent_lost", "payload": {"agent": "r0"}},
            {"time": 1.0, "kind": "duration_changed",
             "payload": {"task": "t0", "duration": float("inf")}},
            {"time": 1.0, "kind": "agent_lost", "payload": {"agent": "ghost"}},
            {"time": 1.0, "kind": "task_lost", "payload": {"task": "nope"}},
            {"time": 1.0, "kind": "agent_lost", "payload": {}},
            {"time": 1.0, "kind": "duration_changed",
             "payload": {"task": "t0", "duration": "x"}},
            {"time": 1.0, "kind": "traits_reduced",
             "payload": {"agent": "r0", "traits": {"trait0": "a"}}},
            {"time": 1.0, "kind": "new_agent",
             "payload": {"agent": {"id": "rx", "traits": {}, "start": [5.0, 5.0],
                                   "speed": "fast"}}},
            {"time": 1.0, "kind": "new_agent", "payload": {"agent": "rx"}},
            {"time": 1.0, "kind": "requirements_reduced",
             "payload": {"task": "t0", "requires": [0.5]}},
            {"time": 1.0, "kind": "agent_lost", "payload": "r0"},
            {"time": 1.0, "kind": "duration_changed", "payload": {"task": "t0", "duration": True}},
            {"time": 1.0, "kind": "duration_changed",
             "payload": {"task": "t0", "duration": "3.5"}},
            {"time": 1.0, "kind": "new_agent",
             "payload": {"agent": {"id": "rx", "traits": {}, "start": [5.0, 5.0],
                                   "speed": True}}},
            {"time": 1.0, "kind": "new_agent",
             "payload": {"agent": {"id": "rx", "traits": {}, "start": "55", "speed": 1.0}}},
            {"time": 1.0, "kind": "new_agent",
             "payload": {"agent": {"id": "rx", "traits": {}, "start": [True, True],
                                   "speed": 1.0}}},
            {"time": 1.0, "kind": "traits_reduced",
             "payload": {"agent": "r0", "traits": {"trait0": False}}},
            {"time": 1.0, "kind": "duration_changed",
             "payload": {"task": "t0", "duration": 10**400}},
        ],
        ids=["negative-time", "infinite-duration", "unknown-agent", "unknown-task",
             "no-agent", "duration-not-a-number", "trait-not-a-number", "speed-not-a-number",
             "spec-not-an-object", "row-not-a-mapping", "payload-not-an-object",
             "duration-bool", "duration-string", "speed-bool", "start-string", "start-bools",
             "trait-bool", "duration-overflow"],
    )
    def test_run_scenario_reports_refused_events(self, tmp_path, capsys, event):
        ppath, spath = tmp_path / "p.json", tmp_path / "s.json"
        save_domain(generate_problem(0, 3, 4, 3), ppath)
        spath.write_text(json.dumps({"events": [event]}))
        rc = main(
            ["run-scenario", str(ppath), str(spath), "--reps", "1",
             "--out", str(tmp_path / "run")]
        )
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

    @pytest.mark.parametrize("command", ["solve", "run-scenario", "bounds"])
    def test_refused_problem_reported_as_json(self, tmp_path, capsys, command):
        data = domain_to_dict(generate_problem(0, 3, 4, 3))
        data["tasks"][0]["requires"] = {data["traits"][0]: float("nan")}
        ppath, spath = tmp_path / "p.json", tmp_path / "s.json"
        ppath.write_text(json.dumps(data))
        spath.write_text(json.dumps({"events": []}))
        argv = {
            "solve": ["solve", str(ppath)],
            "run-scenario": ["run-scenario", str(ppath), str(spath)],
            "bounds": ["bounds", "--problem", str(ppath)],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "finite" in json.loads(lines[0])["message"]

    @pytest.mark.parametrize("command", ["run-scenario", "bounds"])
    def test_invalid_problem_reported_like_solve(self, tmp_path, capsys, command):
        """A parsable but invalid problem lists its issues and exits 2, as in solve."""
        data = domain_to_dict(generate_problem(0, 3, 4, 3))
        data["precedence"] = [["t0", "t1"], ["t1", "t0"]]
        ppath, spath = tmp_path / "p.json", tmp_path / "s.json"
        ppath.write_text(json.dumps(data))
        spath.write_text(json.dumps({"events": []}))
        argv = {
            "run-scenario": ["run-scenario", str(ppath), str(spath), "--reps", "1"],
            "bounds": ["bounds", "--problem", str(ppath)],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        issues = json.loads(capsys.readouterr().err)
        assert [i["code"] for i in issues] == ["CYCLIC_PRECEDENCE"]
        assert not (tmp_path / "out").exists()

    def test_bounds_refuses_a_domain_over_the_enumeration_guard(self, tmp_path, capsys):
        """4 robots x 4 tasks is 16 cells, over the guard: refused before any search."""
        rc = main(
            ["bounds", "--robots", "4", "--tasks", "4", "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input"
        assert "16 allocation cells" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_bounds_reports_an_unsatisfiable_problem(self, tmp_path, capsys):
        """A valid file whose task needs more than the whole team holds."""
        data = domain_to_dict(generate_problem(1, 2, 2, 2))
        data["tasks"][0]["requires"]["trait0"] = 1000
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        rc = main(["bounds", "--problem", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "bounds"
        assert "exhausted" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "bad_file, text",
        [
            ("p.json", '{"traits": ['),
            ("p.json", None),
            ("p.json", ("robots", 5)),
            ("s.json", ("events.0.time", "x")),
            ("p.json", ("robots.0.speed", True)),
            ("p.json", ("robots.0.speed", "2.5")),
            ("p.json", ("tasks.0.duration", True)),
            ("p.json", ("tasks.0.duration", "3")),
            ("p.json", ("tasks.0.requires", {"trait0": "1.5"})),
            ("p.json", ("world.obstacles.0.r", True)),
            ("s.json", ("events.0.time", True)),
            ("s.json", ("events.0.time", "3")),
        ],
        ids=["truncated", "missing-path", "robots-not-a-list", "non-numeric-time",
             "speed-bool", "speed-string", "duration-bool", "duration-string",
             "trait-string", "radius-bool", "time-bool", "time-string"],
    )
    def test_malformed_file_reported_as_parse_error(self, tmp_path, capsys, bad_file, text):
        files = {
            "p.json": domain_to_dict(generate_problem(0, 3, 4, 3)),
            "s.json": {"events": [{"time": 1.0, "kind": "agent_lost", "payload": {"agent": "r0"}}]},
        }
        if isinstance(text, tuple):
            _set(files[bad_file], *text)
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        bad = tmp_path / bad_file
        if text is None:
            bad.unlink()
        elif isinstance(text, str):
            bad.write_text(text)
        rc = main(
            ["run-scenario", str(tmp_path / "p.json"), str(tmp_path / "s.json"), "--reps", "1",
             "--out", str(tmp_path / "run")]
        )
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "parse"
        assert str(bad) in err["message"]
        if isinstance(text, tuple):
            assert text[0].split(".")[-1] in err["message"]

    @pytest.mark.parametrize("key, ident", [("robots", "r0"), ("tasks", "t0")])
    def test_repeated_ids_refused(self, tmp_path, capsys, key, ident):
        """A repeated robot id would give two trait rows but one start, and a
        repeated task id would send every edge naming it to the later task."""
        data = domain_to_dict(generate_problem(0, 3, 4, 3))
        data[key][1]["id"] = ident
        data["precedence"] = data["mutex"] = []  # no edge names the renamed task
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input"
        assert "must be distinct" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_run_scenario_writes_outputs(self, tmp_path):
        domain = generate_problem(0, 3, 4, 3)
        out = tmp_path / "run"
        ppath, spath = tmp_path / "p.json", tmp_path / "s.json"
        save_domain(domain, ppath)
        save_events([generate_event(domain, EventKind.DURATION_CHANGED, 5)], spath)
        rc = main(
            ["run-scenario", str(ppath), str(spath), "--mode", "both", "--reps", "1",
             "--out", str(out)]
        )
        assert rc == 0
        with open(out / "results.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == [
            "scenario", "event_index", "event_kind", "mode", "wall_time_ms", "makespan",
            "resource_count", "expansions", "nodes_touched", "planner_calls", "scheduler_calls",
            "bnb_nodes", "relaxations",
        ]
        # the state's own scheduler counters, so a fresh search's on its initial solve
        stats = search(domain, 0.25).state.stats
        assert (rows[0]["bnb_nodes"], rows[0]["relaxations"]) == (
            str(stats.bnb_nodes), str(stats.relaxations)
        )
        assert all(int(r["bnb_nodes"]) > 0 and int(r["relaxations"]) > 0 for r in rows)
        assert (out / "results.json").exists()
        assert (out / "summary.txt").exists()


# sha256 of ``save_domain``'s bytes for the domains the benchmark and the
# acceptance suite generate: seeds 500-509 at 8 robots, 15 tasks, 4 traits,
# and seeds 100-119 at the desk shapes (robots, tasks), 3 traits
DESK_SHAPES = ((3, 4), (2, 4), (3, 3), (2, 3), (3, 2))
BENCH_DIGESTS = (
    "26252eaeeefe5aecb02e10ceac1a446d9826ba390397f89cf439880de5aa05f0",
    "7efc2fcc51d63a77da01da8ecf6f64d1616bb457372432faea9999d20ac6d44c",
    "6666383c2121fceb737747816d3f73023c9e3b33d4097e89f1a47f3e4a0704b1",
    "7746c709d717d4251b1fbc4b1381b4865f3edbb7c8ba816ab692e54454d1e066",
    "784397bc4e66e52cb943d0462fa70c62b374068d54dc34e6261a1a91e9d004ba",
    "de0be84812adca5d8aece333a75dba907ac51e8b6fb3d409f4f55e527729d2fa",
    "5a1e6d1f40626757cc819bb33dde3e1525d406ce02f04b1e2582497b6e1c953c",
    "0b5f74b5584d0819b8dc8eb0b81d610e1654502fe147c9de2bc33059433d7ac0",
    "b15948d3a19d95f47508c0ce2d21aabfe3e5323e201832a209c904cb56a204fc",
    "f34a58a174c221683b08116544636d63f895d734da717292f5439aa2968eb785",
)
DESK_DIGESTS = (
    "c7a9ae5a0db610cebe5a58c92c4b0d8d9c84574296cc73ff7ba6c7eeceee6408",
    "2bd41e47c2e28a2b4f789c38632295a7676722739c05af3dc08dc1af19bc5d6d",
    "f01081edf49d205e94dfe6813eaef7c4d01efd803212afe33146e8f7df7e31d7",
    "88fca287ee301fff95b678d9a213c8c42d70d22ccf657d8f57ad8317504f849b",
    "4bcfa08ad03fd63ad632b81354319afb8d3ef8bc379ce438a61f91e9254300cd",
    "9b59d6d102eea380874dad195e4dff3d81277eaf45a419917804787ccc197c7c",
    "b5d9feb7a6c1e30f8552709273ed33f18fc70c86ee8ea49c81ff11fbbc699d9f",
    "4e6aa2bfe61f1cb26d9a3183c386051212c32a1fd01c7e947e9d225c1ed72f42",
    "d1126b3913519fd22bfa63bc994b56a4d2546df34c3b3853b26a6e3a960321da",
    "6b4062f0f2513edc46fd63e864bf3d73341d3dd408aaf91d41c60e40e650f816",
    "b42cff010b0e80289045196792bffbe0caf3405a5edacb78af8bcbc23d431f1f",
    "b3645aa00edc96e65dd5174cf00fa944412d87e27fd904af147e480e6c2f520e",
    "c18f2b059fb02672cf93404163162efaebaf3f7f46318443a69f96ddadb22dc9",
    "27604167c0fdc794aa0a4262e06a27155d830a7604a0db6f6bd9c1e7d6f2061f",
    "965561ef1cd377f7ac4fd498d7a3acc67b5bb0d68bc566a05ba7acec1495e090",
    "2118d494c0c85c1a2cbc76d5e23e28421f82df75a7e7f82e9130c5da571379b1",
    "7c96440312191c0887bd522ff92917a76c2a614e1892651f2f9ae4db5985c2ee",
    "db077941521fba554a996471fa304221407a2050fa9004d16b7aa07bbe43f58d",
    "48b25a333995adba470034b9ed2067cce4534a229c2c743e89f3d3a084744414",
    "b8dac904ca6e2db037c7b462da1763a83b2d77372353476dd972964dd1df7e9e",
)
# sha256 of ``save_events`` of one generated event of every kind, in
# ``EventKind`` order, per pinned domain; the event seed is the benchmark's
# ``9000 + 37 * (seed - 500)`` on the bench domains and ``1000 + i`` on desk i
BENCH_EVENT_DIGESTS = (
    "11ee95669e27e3df1db06c8ee0d92eb2a64ba83909f48e6910ae7a00caea63e2",
    "5dbe4af37bfdec3182b17d6c67abb1eafccbe5995c127652f7a7e2db19293100",
    "21f2d9855d53986ab6c616c088fed06aacabf5d2b2d00f250e617436be7e60e7",
    "54c92b53e061ea9af11cddcf4f77677010629d9bb2f475faa136dd5c1b0ca1f8",
    "16749d0ccee50ed236bcc8b6cdf25804cf3e6c54d68b55a329e48f316a9461ec",
    "f9d366381414afb76c3b02bc97f6943c8a2b6726a410d45e7fc3bcab74c22130",
    "ae14df7a1df9f881abc8a54bfd79e4b341f84861240bc8a7c1c5a6cbab7b5eda",
    "ca17de3cd8b3ed86fdc7f521b9e31d86e389ec895b0f6a81cb39d858f74a45fb",
    "51be41256d189e5d936f4879730e31ebe09de2a6a2e71d17c02fdcc23aa1c353",
    "45d5849e232c84e0bb1e9cc26e780af3dedd4fc5e7393e157d36ea38918f3762",
)
DESK_EVENT_DIGESTS = (
    "c32bbc8d96bf815043a6df63882a96484419f3d09a953f4233e841f9213f296a",
    "ffb4704c92afb0316070b9432915beb6518e848ba39dc60513bbbf61f8bf9e2f",
    "4e5143a7d38246ebaa61e64479ca02e7d9c62c3b12a3119d65822a8774fce348",
    "e5eb7d0633114b089c3bee8b8a91f19cc8d79340eeb878eb38a7933360affe6c",
    "04034a3785bbc42df9ab2c1ca56c9c9984cde8a784d0dcb27f76054c3bd21500",
    "7c665ab233f554d62a68d2214184f344f322458831c8b5b6856ee120e68dd2aa",
    "f816f779374c33f321fd2b3c256e792a8de307c410b595751bc447740afc5181",
    "ff47a1218f631b4aa1e16be9ad2e694938558dc48c0cf86d6188b810b6c93377",
    "beb02a875596791a362b426ba81c9ad806c0c3be59b8bfa9a6eacb0c94005ee1",
    "5581b9a15bc8a7363f1e7d39483d0be926412f100bcecac84fdb3085c5c11197",
    "7baca213e64d2492f355b40ced7a051d34d88ad7a92cbe45ce983fae74c341d8",
    "84fe9bc0efcb50ec803700e4650f15e8b3a8ffd8364eaa95843996d9c49b0b60",
    "3906e2cc4d4c424852dae288e92dfc02ede38af7e99436a73e91c6f52fa12bdc",
    "714d978e2627eadb2eb1c63d27ed26f4d3e86b5a64de98b55be123b61b07fb67",
    "cadba33d2b71d6fcfcd500e97b93df63e9b5f7d24ed1f09c5d7c19a869ebb491",
    "f91100e692d09fb819ca57f44efce6ffdb226cbab2a0f874a62178ea88f5e298",
    "42a498a1b6c6a4f3c62b0840ecabf5044908aea2dbbcf2683b33caf9d10f58ad",
    "505735a375d3c291f6bef270bfd253ddd7b74b34b9d37f93e1208e9761680ff7",
    "125f8f2276c13e4427596d6624f0ce38cfe4932940ac7529f35518987b8aea46",
    "f8de320a413822c9375d16c3f878025f44650103d4d3699110caa36af3f32f7b",
)
PINNED_DOMAINS = [(500 + i, (8, 15, 4), d) for i, d in enumerate(BENCH_DIGESTS)] + [
    (100 + i, (*DESK_SHAPES[i % len(DESK_SHAPES)], 3), d) for i, d in enumerate(DESK_DIGESTS)
]
PINNED_EVENTS = [
    (500 + i, (8, 15, 4), 9000 + 37 * i, d) for i, d in enumerate(BENCH_EVENT_DIGESTS)
] + [
    (100 + i, (*DESK_SHAPES[i % len(DESK_SHAPES)], 3), 1000 + i, d)
    for i, d in enumerate(DESK_EVENT_DIGESTS)
]


def _csv_without_timing(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return [
        {k: v for k, v in row.items() if k not in TIMING_COLUMNS} for row in rows
    ]


class TestDeterminism:
    def test_repeated_scenario_runs_match_modulo_timing(self, tmp_path):
        domain = generate_problem(2, 3, 4, 3)
        events = [
            generate_event(domain, EventKind.TRAITS_REDUCED, 3),
            generate_event(domain, EventKind.DURATION_CHANGED, 4),
        ]
        dirs = []
        for tag in ("a", "b"):
            result = run_scenario(
                domain, events, "both", alpha=0.25, seed=0, repetitions=1
            )
            d = tmp_path / tag
            write_results(result, d)
            dirs.append(d)
        assert _csv_without_timing(dirs[0] / "results.csv") == _csv_without_timing(
            dirs[1] / "results.csv"
        )

    def test_sign_mixed_event_runs_in_both_modes(self):
        domain = generate_problem(0, 3, 4, 3)
        event = DynamicEvent(
            1.0,
            EventKind.TRAITS_INCREASED,
            {"agent": "r0", "traits": {"trait0": 1.0, "trait2": 1.5}},  # up and down
        )
        assert len(decompose_mixed(domain, event)) == 2
        result = run_scenario(domain, [event], "both", alpha=0.25, repetitions=1)
        assert [(r.mode, r.event_index) for r in result.records] == [
            ("repair", -1), ("repair", 0), ("recompute", -1), ("recompute", 0)
        ]

    def test_repeated_repairs_record_what_one_repair_does(self, tmp_path):
        domain = generate_problem(2, 3, 4, 3)
        events = [
            generate_event(domain, EventKind.TASK_LOST, 3),
            generate_event(domain, EventKind.DURATION_CHANGED, 4),
        ]
        for reps in (1, 3):
            write_results(
                run_scenario(domain, events, "repair", alpha=0.25, repetitions=reps),
                tmp_path / str(reps),
            )
        assert _csv_without_timing(tmp_path / "1" / "results.csv") == _csv_without_timing(
            tmp_path / "3" / "results.csv"
        )

    @pytest.mark.parametrize(
        "seed, shape, digest", PINNED_DOMAINS, ids=[str(s) for s, _, _ in PINNED_DOMAINS]
    )
    def test_generated_domain_matches_its_pinned_digest(self, tmp_path, seed, shape, digest):
        """The benchmark's and the acceptance suite's domains stay as they are."""
        path = tmp_path / "p.json"
        save_domain(generate_problem(seed, *shape), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "seed, shape, event_seed, digest", PINNED_EVENTS, ids=[str(c[0]) for c in PINNED_EVENTS]
    )
    def test_generated_event_matches_its_pinned_digest(
        self, tmp_path, seed, shape, event_seed, digest
    ):
        """The events the benchmark's repairs and criterion 5 draw stay as they are."""
        domain = generate_problem(seed, *shape)
        path = tmp_path / "e.json"
        save_events([generate_event(domain, kind, event_seed) for kind in EventKind], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_run_scenario_refuses_no_repetitions(self, desk_domain):
        with pytest.raises(ScenarioError, match="repetitions"):
            run_scenario(desk_domain, [], "repair", alpha=0.25, repetitions=0)

    def test_a_malformed_later_event_is_refused_before_any_search(self, monkeypatch, desk_domain):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(runner, "search", no_search)
        events = [
            DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r1"}),
            DynamicEvent(2.0, EventKind.AGENT_LOST, {}),
        ]
        with pytest.raises(EventError, match="'agent'"):
            run_scenario(desk_domain, events, "both", alpha=0.25, repetitions=1)

    def test_gen_output_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(
                ["gen", "--seed", "7", "--robots", "3", "--tasks", "3", "--traits", "2",
                 "--out", str(out)]
            ) == 0
        assert (a / "problem_seed7.json").read_bytes() == (
            b / "problem_seed7.json"
        ).read_bytes()
