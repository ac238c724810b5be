"""Source hygiene checks on the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynalloc"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Top-level imported names a module never reads.

    A name counts as read when it appears as a name anywhere in the module,
    inside a string annotation, or in ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                imported[(alias.asname or alias.name).split(".")[0]] = stmt.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            read |= {e.value for e in stmt.value.elts if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_scan_sees_an_unused_import():
    source = (
        "import math\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Any\n"
        "from .x import a, b as c\n"
        "__all__ = ['a']\n"
        "def f(v: 'Any') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["line 1: math", "line 3: TYPE_CHECKING", "line 4: c"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str) -> list[str]:
    """Underscore names a module takes from another ``dynalloc`` module.

    Either imported by name (``from .search import _x``) or read through a
    module it imported (``search_mod._x``). Dunder names are public.
    """
    tree = ast.parse(source)
    modules: set[str] = set()
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                (a.asname or a.name).split(".")[0]
                for a in node.names
                if a.name.split(".")[0] == "dynalloc"
            }
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "dynalloc"
        ):
            from_package = node.module in (None, "dynalloc")
            for a in node.names:
                if _private(a.name):
                    found.append((node.lineno, a.name))
                elif from_package:
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


SCORES = ("nsq", "tetaq")
# methods that change a list or an array in place
MUTATORS = {
    "append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
    "fill", "put", "__setitem__", "__delitem__",
}


def score_writers(source: str) -> list[tuple[int, str | None, str]]:
    """(line, enclosing function, source text) of every write to an
    ``.nsq`` or ``.tetaq``: a store to the attribute (a node's score, or a
    batch's whole list), a store into or a deletion from a subscript of it
    (one member's score), or a call of a method that changes it in place."""
    found = []

    def is_score(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in SCORES

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                (is_score(child) and isinstance(child.ctx, ast.Store))
                or (
                    isinstance(child, ast.Subscript)
                    and isinstance(child.ctx, (ast.Store, ast.Del))
                    and is_score(child.value)
                )
                or (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in MUTATORS
                    and is_score(child.func.value)
                )
            ):
                found.append((child.lineno, function, ast.unparse(child)))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_scan_sees_a_private_read():
    source = (
        "import dynalloc.motion as m\n"
        "import numpy as np\n"
        "from . import motion, search as search_mod\n"
        "from .search import _accept_goal, run_search\n"
        "from .domain import Allocation\n"
        "def f(state):\n"
        "    search_mod._accept_goal(state), m._cache, motion.PlanCache._x\n"
        "    np._x, state._seq, Allocation._trusted, motion.__name__\n"
        "    return run_search(state)\n"
    )
    assert private_reads(source) == [
        "line 4: _accept_goal",
        "line 7: m._cache",
        "line 7: motion.PlanCache._x",
        "line 7: search_mod._accept_goal",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_read_across_modules(path):
    assert private_reads(path.read_text()) == []


# the one score write allowed outside ``prioritize``: a batch's head score
# leaving with its key, apr and seq
HEAD_POP = ("take_head", "batch.tetaq.pop()")


def stray_score_writes(name: str, source: str) -> list[tuple[int, str | None, str]]:
    """The score writes of module ``name`` outside ``search.prioritize``,
    but for ``take_head``'s bare pop of its batch's head score."""
    return [
        (line, function, text)
        for line, function, text in score_writers(source)
        if name != "search.py" or (function != "prioritize" and (function, text) != HEAD_POP)
    ]


def test_the_scan_sees_a_score_write():
    source = (
        "node.nsq = 0.0\n"
        "def prioritize(nodes):\n"
        "    for n in nodes:\n"
        "        n.nsq, n.tetaq = 0.0, 0.0\n"
        "def demote(node):\n"
        "    node.tetaq += 1.0\n"
        "    return node.nsq\n"
        "def take(batch, i):\n"
        "    batch.tetaq[i] = 0.0\n"
        "    batch.tetaq[i:] += 1.0\n"
        "    del batch.tetaq[0]\n"
        "    batch.tetaq.pop(), batch.tetaq.sort(), batch.tetaq.index(0.0)\n"
        "    return batch.tetaq[i], sorted(batch.tetaq), batch.keys.pop()\n"
        "def take_head(batch, item):\n"
        "    batch.keys.pop(), batch.tetaq.pop()\n"
        "    batch.tetaq.pop(0), batch.tetaq.pop(-1), item.tetaq.pop()\n"
        "    batch.tetaq[-1] = 0.0\n"
        "    del batch.tetaq[-1]\n"
        "    batch.tetaq.sort(reverse=True)\n"
        "    batch.tetaq, batch.nsq = [], 0.0\n"
    )
    stray = [
        (1, None, "node.nsq"),
        (6, "demote", "node.tetaq"),
        (9, "take", "batch.tetaq[i]"),
        (10, "take", "batch.tetaq[i:]"),
        (11, "take", "batch.tetaq[0]"),
        (12, "take", "batch.tetaq.pop()"),
        (12, "take", "batch.tetaq.sort()"),
        (16, "take_head", "batch.tetaq.pop(0)"),
        (16, "take_head", "batch.tetaq.pop(-1)"),
        (16, "take_head", "item.tetaq.pop()"),
        (17, "take_head", "batch.tetaq[-1]"),
        (18, "take_head", "batch.tetaq[-1]"),
        (19, "take_head", "batch.tetaq.sort(reverse=True)"),
        (20, "take_head", "batch.tetaq"),
        (20, "take_head", "batch.nsq"),
    ]
    allowed = [
        (4, "prioritize", "n.nsq"),
        (4, "prioritize", "n.tetaq"),
        (15, "take_head", "batch.tetaq.pop()"),
    ]
    assert sorted(score_writers(source)) == sorted(stray + allowed)
    # only search.py's prioritize writes and take_head's bare head pop pass
    assert sorted(stray_score_writes("search.py", source)) == sorted(stray)
    assert stray_score_writes("repair.py", source) == score_writers(source)


def test_only_prioritize_writes_scores():
    """``prioritize`` alone writes scores; ``take_head`` only pops the
    head's score off its batch, with the head's key, apr and seq."""
    writers = {
        (path.name, function)
        for path in MODULES
        for _, function, _ in score_writers(path.read_text())
    }
    assert writers == {("search.py", "prioritize"), ("search.py", "take_head")}
    for path in MODULES:
        assert stray_score_writes(path.name, path.read_text()) == []


def callee(node) -> str | None:
    """The name a call calls, as ``f`` for ``f()`` and ``obj.f()`` alike;
    None for any other node."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def called_names(source: str) -> set[str]:
    """Names a module calls, as ``f`` for ``f()`` and ``obj.f()`` alike."""
    return {name for node in ast.walk(ast.parse(source)) if (name := callee(node))}


def test_the_scan_sees_a_call():
    source = "import motion\nmotion.build_roadmap(w)\nc = PlanCache()\nf = plan\n"
    assert called_names(source) == {"build_roadmap", "PlanCache"}


def test_only_fresh_solves_build_roadmaps():
    """Repair keeps its roadmap: a new agent's start is linked into it, so
    repair neither rebuilds it nor replaces the plan cache."""
    builders = {p.name for p in MODULES if "build_roadmap" in called_names(p.read_text())}
    assert builders == {"search.py", "analysis.py"}
    assert "PlanCache" not in called_names((PACKAGE / "repair.py").read_text())


def name_uses(source: str, names: set[str]) -> set[tuple[str, str | None]]:
    """(name, enclosing function) of every read of one of ``names``, as a
    bare name (``f()``, ``map(f, xs)``) or an attribute (``state.f()``).
    Imports and strings do not count."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            else:
                name = child.attr if isinstance(child, ast.Attribute) else None
            if name in names:
                found.add((name, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_scan_sees_a_name_use():
    source = (
        "from .search import prioritize, requeue\n"
        "'prioritize'\n"
        "def _rekey(state):\n"
        "    prioritize(state, [])\n"
        "    state.rebuild_heap()\n"
        "def handle(state, nodes):\n"
        "    list(map(requeue, nodes))\n"
        "    def inner():\n"
        "        return search.prioritize\n"
    )
    assert name_uses(source, {"prioritize", "rebuild_heap", "requeue"}) == {
        ("prioritize", "_rekey"),
        ("rebuild_heap", "_rekey"),
        ("requeue", "handle"),
        ("prioritize", "inner"),
    }


def test_repair_rekeys_in_one_place():
    """Every handler ends in ``_rekey``; no second re-key path grows back."""
    rekeying = {"refresh_bounds", "prioritize", "rebuild_heap"}
    uses = name_uses((PACKAGE / "repair.py").read_text(), rekeying)
    assert uses == {(name, "_rekey") for name in rekeying}


# what solves a schedule or takes a goal as the solution
SOLVING = {"requeue", "materialize", "evaluate", "solve_with_memo", "accept_goal"}


def test_repair_solves_nothing():
    """Repair only reshapes, rescores and re-keys: every schedule is solved,
    and every solution built, by the resumed pop loop, so a repair answers
    as a pop of a fresh search would."""
    assert name_uses((PACKAGE / "repair.py").read_text(), SOLVING) == set()
    sites = {
        (p.name, function)
        for p in MODULES
        for _, function in constructions(p.read_text(), "Solution")
    }
    assert sites == {("search.py", "run_search")}


def field_reads(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of every read of an input field by hand.

    That is a subscript by a string constant (``data["robots"]``), a
    ``.get`` with one (``ob.get("type")``), and any subscript or ``.get`` of
    a ``payload`` name or attribute (``event.payload[key]``).
    """
    found = []

    def is_payload(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "payload") or (
            isinstance(node, ast.Attribute) and node.attr == "payload"
        )

    def by_name(key) -> bool:
        return isinstance(key, ast.Constant) and isinstance(key.value, str)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Subscript) and (
                is_payload(child.value) or by_name(child.slice)
            ):
                found.append((child.lineno, function))
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "get"
                and (is_payload(child.func.value) or any(map(by_name, child.args[:1])))
            ):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_scan_sees_a_payload_read():
    source = (
        "x = payload['a']\n"
        "def apply(event, spec, data, i):\n"
        "    event.payload.get('agent'), spec['id'], payload_of(event), event.payload\n"
        "    data.get('robots', []), rows[i], data.get(i), {'a': 1}['a']\n"
        "def _field(payload, key):\n"
        "    return payload[key]\n"
    )
    assert field_reads(source) == [
        (1, None), (3, "apply"), (3, "apply"), (4, "apply"), (4, "apply"), (6, "_field")
    ]


READERS = {"read_field", "read_number", "read_row"}


def test_payload_fields_are_read_only_by_the_readers():
    """Each field of a problem file or an event payload is read, and a
    malformed one refused by name, in one place: the readers of domain.py,
    which both input modules call and which index by a variable key only."""
    assert [(p.name, r) for p in MODULES for r in field_reads(p.read_text())] == []
    defined = {
        (p.name, node.name)
        for p in MODULES
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in READERS
    }
    assert defined == {("domain.py", name) for name in READERS}
    for name in ("problem_io.py", "repair.py"):
        assert READERS <= called_names((PACKAGE / name).read_text())


def conversion_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, outermost enclosing function) of every ``float(...)`` or
    ``tuple(...)`` call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in ("float", "tuple")
            ):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_scan_sees_a_conversion():
    source = (
        "def domain_from_dict(data):\n"
        "    return float(data['x']), tuple(p), np.float64(1), list(q)\n"
        "def domain_to_dict(d):\n"
        "    def sparse(row):\n"
        "        return {n: float(v) for n, v in row}\n"
        "    return tuple(x)\n"
        "x = float('1')\n"
    )
    assert conversion_calls(source) == [
        (2, "domain_from_dict"), (2, "domain_from_dict"), (5, "domain_to_dict"),
        (6, "domain_to_dict"), (7, None),
    ]


def test_no_input_is_converted_outside_the_readers():
    """A bare ``float(...)`` or ``tuple(...)`` on input would take a bool, a
    numeric string or a point of any length; only ``domain_to_dict``, which
    writes output, converts anything in the input modules."""
    calls = {
        (name, function)
        for name in ("problem_io.py", "repair.py")
        for _, function in conversion_calls((PACKAGE / name).read_text())
    }
    assert calls <= {("problem_io.py", "domain_to_dict")}


PERFBENCH = PACKAGE.parent.parent / "perfbench"
# the entry point's ``argv`` defaults to the process's own arguments
UNPASSED_ALLOWED = {"cli.py: main(argv)"}


def defaulted_parameters(source: str) -> list[tuple[str, int | None, str]]:
    """(function, position, name) of every parameter with a default.

    The position is None for a keyword-only parameter. A method's ``self``
    or ``cls`` is not counted, so ``obj.f(a)`` passes position 0 of ``f``
    whether ``f`` is a method or a module's function.
    """
    out = []

    def visit(node, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                bound = 1 if in_class and not static else 0
                for i in range(first, len(positional)):
                    out.append((child.name, i - bound, positional[i].arg))
                for a, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        out.append((child.name, None, a.arg))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(source), False)
    return out


def passed_arguments(sources) -> set[tuple[str, int | str]]:
    """(called name, position or keyword) of every argument some call passes.

    The called name is the function's, or the attribute's for ``obj.f()``;
    ``*args`` counts as every position ("*") and ``**kwargs`` as every
    keyword ("**").
    """
    passed: set[tuple[str, int | str]] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            for i, arg in enumerate(node.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
            for kw in node.keywords:
                passed.add((name, "**" if kw.arg is None else kw.arg))
    return passed


def unpassed_defaults(defined: dict[str, str], callers) -> list[str]:
    """``module: function(parameter)`` for each default no call overrides.

    ``defined`` maps a module's name to its source; ``callers`` are the
    sources whose calls count. Callees are matched by name alone.
    """
    passed = passed_arguments(callers)
    found = []
    for module, source in defined.items():
        for function, position, name in defaulted_parameters(source):
            keys = {name, "**"} if position is None else {name, "**", position, "*"}
            if not any((function, key) in passed for key in keys):
                found.append(f"{module}: {function}({name})")
    return sorted(found)


def test_the_scan_sees_an_unpassed_default():
    defined = {
        "m.py": (
            "def f(a, b=1, *, c=2, d=3):\n"
            "    return f(a, d=4)\n"
            "class K:\n"
            "    def g(self, x=0, y=0):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def h(x=0, y=0):\n"
            "        pass\n"
            "def v(x=0, y=0):\n"
            "    pass\n"
            "def w(x=0):\n"
            "    pass\n"
        )
    }
    callers = [defined["m.py"], "k.g(1)\nK.h(1)\nv(*xs)\nw(**kw)\nf(0, c=5)\n"]
    assert unpassed_defaults(defined, callers) == [
        "m.py: f(b)", "m.py: g(y)", "m.py: h(y)"
    ]


def test_every_default_is_passed_by_some_caller():
    callers = [p.read_text() for p in MODULES + sorted(PERFBENCH.glob("*.py"))]
    defined = {p.name: p.read_text() for p in MODULES}
    assert set(unpassed_defaults(defined, callers)) == UNPASSED_ALLOWED


UNREAD_ALLOWED = {
    # the write half of the scenario format that ``load_events`` reads
    "problem_io.py: save_events",
    # the query of the public ``validate_problem`` report
    "domain.py: ValidationReport.codes",
}


def public_functions(source: str) -> list[tuple[str, ast.FunctionDef]]:
    """(label, definition) of every public module-level function and every
    public method of a module-level class, labelled ``Class.method``."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            found.extend(
                (f"{stmt.name}.{child.name}", child)
                for child in stmt.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return [(label, fn) for label, fn in found if not fn.name.startswith("_")]


def name_reads(source: str) -> list[tuple[str, int]]:
    """(name, line) of every name or attribute a module reads."""
    return [
        (node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def unread_functions(defined: list[str], sources: dict[str, str]) -> list[str]:
    """``module: function`` for each public function of the ``defined``
    modules that no source reads outside the function's own body.

    ``sources`` maps a module's name to its source and holds the defined
    modules. Functions are matched by name alone, as ``unpassed_defaults``
    matches callees; importing a name is not a read.
    """
    reads = {module: name_reads(source) for module, source in sources.items()}
    found = []
    for module in defined:
        for label, fn in public_functions(sources[module]):
            if not any(
                name == fn.name and not (where == module and fn.lineno <= line <= fn.end_lineno)
                for where, lines in reads.items()
                for name, line in lines
            ):
                found.append(f"{module}: {label}")
    return sorted(found)


def test_the_scan_sees_an_unread_function():
    sources = {
        "m.py": (
            "def f():\n"
            "    return f()\n"
            "def g():\n"
            "    return 1\n"
            "def h():\n"
            "    return g()\n"
            "class K:\n"
            "    def m(self):\n"
            "        return self.m()\n"
            "    def n(self):\n"
            "        pass\n"
            "    def _p(self):\n"
            "        pass\n"
            "def _q():\n"
            "    pass\n"
        ),
        "run.py": "from m import f\nk.n()\nh()\n",
    }
    assert unread_functions(["m.py"], sources) == ["m.py: K.m", "m.py: f"]


def test_every_public_function_has_a_production_reader():
    """Every public function and method of the package is read by the
    package or the benchmark, so the package carries no code that only
    the tests use."""
    sources = {p.name: p.read_text() for p in MODULES}
    sources.update((f"perfbench/{p.name}", p.read_text()) for p in sorted(PERFBENCH.glob("*.py")))
    assert set(unread_functions([p.name for p in MODULES], sources)) == UNREAD_ALLOWED


def constructions(source: str, name: str) -> list[tuple[int, str | None]]:
    """(line, outermost enclosing function) of every call of ``name``, as
    ``name(...)`` or ``module.name(...)``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            if isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Name) and child.func.id == name)
                or (isinstance(child.func, ast.Attribute) and child.func.attr == name)
            ):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_scan_sees_a_construction():
    source = (
        "p = SchedulingProblem(d)\n"
        "def build(x):\n"
        "    def inner():\n"
        "        return scheduler.SchedulingProblem(x)\n"
        "    return SchedulingProblem, inner()\n"
    )
    assert constructions(source, "SchedulingProblem") == [(1, None), (4, "build")]


def test_the_scan_sees_a_node_construction():
    source = (
        "from .search import AllocationNode\n"
        "def make_node(state, alloc):\n"
        "    return AllocationNode(alloc, None)\n"
        "def take_head(state, batch):\n"
        "    node = search.AllocationNode(batch.keys[0], batch.parent)\n"
        "    return AllocationNode, isinstance(node, AllocationNode)\n"
    )
    assert constructions(source, "AllocationNode") == [(3, "make_node"), (5, "take_head")]


def test_only_make_node_builds_nodes():
    """Every node of the graph, the root and each child a pop takes from a
    pending batch, is registered by ``search.make_node``."""
    sites = {
        (p.name, function)
        for p in MODULES
        for _, function in constructions(p.read_text(), "AllocationNode")
    }
    assert sites == {("search.py", "make_node")}


def test_one_assembler_builds_scheduling_problems():
    """Every scheduling problem the package solves or checks comes out of
    ``build_scheduling_problem``, so a second assembly path cannot drift
    from it (its price memo, its reduced mutex set)."""
    sites = {
        (p.name, function)
        for p in MODULES
        for _, function in constructions(p.read_text(), "SchedulingProblem")
    }
    assert sites == {("scheduler.py", "build_scheduling_problem")}


def commits(source: str) -> list[tuple[int, str]]:
    """(line, "def" or "call") of every function named ``commit`` and every
    call of one, as ``commit(...)`` or ``obj.commit(...)``."""
    defined = [
        (node.lineno, "def")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "commit"
    ]
    return sorted(defined + [(line, "call") for line, _ in constructions(source, "commit")])


def test_the_scan_sees_a_commit_or_a_matrix_update():
    source = (
        "class _Compiled:\n"
        "    def commit(self, edge, s, rows):\n"
        "        return _with_edge(rows, edge)\n"
        "def _branch_and_bound(comp, rows, edge):\n"
        "    def recurse(rows):\n"
        "        return comp.commit(edge, rows[-1], rows), '_with_edge'\n"
        "    return list(map(_with_edge, [rows], [edge])), recurse(rows)\n"
    )
    assert commits(source) == [(2, "def"), (6, "call")]
    assert name_uses(source, {"_with_edge"}) == {
        ("_with_edge", "commit"), ("_with_edge", "_branch_and_bound")
    }


def top_level_functions(source: str):
    """Every function defined at module level or in a module-level class."""
    for stmt in ast.parse(source).body:
        body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        yield from (f for f in body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))


def schedule_builds(source: str) -> list[tuple[int, str, bool]]:
    """(line, top-level function, from relax) of every ``Schedule(...)``
    call in a function: from relax when its start times read a name that the
    function binds to what a ``relax(...)`` call returns."""
    found = []
    for function in top_level_functions(source):
        relaxed = {
            name.id
            for node in ast.walk(function)
            if isinstance(node, (ast.Assign, ast.NamedExpr)) and callee(node.value) == "relax"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for name in ast.walk(target)
            if isinstance(name, ast.Name)
        }
        for node in ast.walk(function):
            if callee(node) == "Schedule":
                starts = node.args[:1] + [k.value for k in node.keywords if k.arg == "start_times"]
                reads = {n.id for s in starts for n in ast.walk(s) if isinstance(n, ast.Name)}
                found.append((node.lineno, function.name, bool(reads & relaxed)))
    return sorted(found)


def test_the_scan_sees_a_schedule_built_off_relax():
    source = (
        "def _relaxed(comp, orderings):\n"
        "    res = comp.relax(edges)\n"
        "    return Schedule(tuple(res[0]), res[1], orderings)\n"
        "class K:\n"
        "    def leaf(self, rows, chosen):\n"
        "        if (s := self.relax()) is None:\n"
        "            return None\n"
        "        s_cur = rows[-1]\n"
        "        def inner():\n"
        "            return Schedule(tuple(s_cur[:-1]), s_cur[-1], chosen)\n"
        "        return Schedule(start_times=s, makespan=0.0), inner()\n"
    )
    assert schedule_builds(source) == [
        (3, "_relaxed", True), (10, "leaf", False), (11, "leaf", True)
    ]


def is_cycle_read(node) -> bool:
    """``NO_PATH``, or a matrix entry off the source row: ``rows[a][b]``
    with a neither ``n`` nor ``-1``."""
    return (isinstance(node, ast.Name) and node.id == "NO_PATH") or (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Subscript)
        and ast.unparse(node.value.slice) not in ("n", "-1")
    )


def tolerance_reads(source: str) -> list[tuple[int, str, bool]]:
    """(line, top-level function, beside a cycle read) of every read of
    ``FEAS_TOL`` in a function: beside one when the innermost comparison
    holding it, or else the whole expression, has a cycle read."""
    found = []
    for function in top_level_functions(source):
        parent = {c: p for p in ast.walk(function) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and node.id == "FEAS_TOL":
                scope = node
                while isinstance(parent[scope], ast.expr) and not isinstance(scope, ast.Compare):
                    scope = parent[scope]
                found.append((node.lineno, function.name, any(map(is_cycle_read, ast.walk(scope)))))
    return sorted(found)


def test_the_scan_sees_a_tolerance_beside_a_cycle_read():
    source = (
        "def _probe(rows, edge):\n"
        "    u, v, w = edge\n"
        "    if rows[v][u] != NO_PATH or w + rows[v][u] > FEAS_TOL:\n"
        "        return inf\n"
        "    s = rows[-1]\n"
        "    return s[-1] if s[u] + w <= s[v] + FEAS_TOL else rows[-1][-1]\n"
        "def bnb(rows, n, best, floor):\n"
        "    def recurse(rows):\n"
        "        cut = best - FEAS_TOL\n"
        "        return floor + FEAS_TOL >= best or rows[n][n] >= cut\n"
        "    return recurse(rows), max(FEAS_TOL, NO_PATH)\n"
    )
    assert tolerance_reads(source) == [
        (3, "_probe", True), (6, "_probe", False), (9, "bnb", False), (10, "bnb", False),
        (11, "bnb", True),
    ]


def test_every_schedule_is_its_orientation_relaxed():
    """Every ``Schedule`` the scheduler builds takes its start times from
    ``relax``, the one longest-path pass, so a schedule is a function of its
    orderings alone. The one cycle rule is reachability (``NO_PATH``):
    ``FEAS_TOL`` is read only by ``_probe``'s and the search's prune
    comparisons and "already holds" shortcuts, never beside a cycle read.
    ``relax`` keeps no worklist (``deque``), and ``_with_edge``, the one
    rule that updates a node's matrix, is read only where the root's matrix
    is built and where the search commits an ordering; no second update
    rule (a ``commit``) grows back."""
    source = (PACKAGE / "scheduler.py").read_text()
    builds = schedule_builds(source)
    assert builds and all(from_relax for _, _, from_relax in builds)
    reads = tolerance_reads(source)
    assert {function for _, function, _ in reads} == {"_probe", "_branch_and_bound"}
    assert [read for read in reads if read[2]] == []
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "deque" not in imported
    uses = {(p.name, use) for p in MODULES for use in name_uses(p.read_text(), {"_with_edge"})}
    assert uses == {
        ("scheduler.py", ("_with_edge", "_longest_paths")),
        ("scheduler.py", ("_with_edge", "recurse")),
    }
    assert [(p.name, found) for p in MODULES for found in commits(p.read_text())] == []


# the plan cache's reads and writes, whose keys are robot positions
MOTION_ONLY = ("lookup", "store")


def motion_only_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of every call of a ``MOTION_ONLY`` name, as ``name(...)``
    or ``obj.name(...)``."""
    return sorted((line, name) for name in MOTION_ONLY for line, _ in constructions(source, name))


def test_the_scan_sees_a_class_or_cache_call():
    source = (
        "from .motion import PlanCache\n"
        "def price(state, frm, to):\n"
        "    found, p = state.plan_cache.lookup(0, frm, to)\n"
        "    state.plan_cache.store(0, frm, to, p)\n"
        "    return PlanCache, 'lookup', found\n"
    )
    assert motion_only_calls(source) == [(3, "lookup"), (4, "store")]


def test_plan_cache_keys_stay_inside_motion():
    """Only ``motion.py`` reads and writes the plan cache: every other
    module plans and prices trips through a ``motion.Planner``, so no
    plan-cache key reaches it."""
    callers = {p.name for p in MODULES if motion_only_calls(p.read_text())}
    assert callers == {"motion.py"}


def test_the_runtime_loads_no_scipy():
    """``import dynalloc`` and one search load no ``scipy`` module.

    scipy is a test dependency only. Importing ``scipy.sparse.csgraph``
    after a desk search took that process's peak RSS from about 37 to 64 MB,
    far past the benchmark's 10 % bound on ``peak_rss_mb``, so its C
    Dijkstra, which would give the same trees, is no option for
    ``motion``: numpy is the one runtime dependency."""
    code = (
        "import sys\n"
        "import dynalloc\n"
        "from dynalloc.generator import generate_problem\n"
        "from dynalloc.search import search\n"
        "assert search(generate_problem(0, 4, 5, 3), 0.25).reason == 'solved'\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"
