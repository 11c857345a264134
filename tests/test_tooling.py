"""The test tooling itself: a failing property test stays readable, the
hooks the benchmark (``perfbench/``) takes into the library hold, and
the package reads each tolerance only where its rule lives."""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import nestnash
import nestnash.cli
from test_cli import single_state_continuous, write_json

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(nestnash.__file__)))

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_from_five(x):
    assert x < 5
'''


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # The failing test runs under this suite's conftest.py and pytest
    # settings, warning filters included, in a directory of its own.
    shutil.copy(os.path.join(TESTS, "conftest.py"), tmp_path)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
    assert "1 failed" in output, output


@pytest.mark.parametrize(
    "doc, epsilon, meshes",
    [
        # Refines once: the second grid holds the interior optimum.
        (
            single_state_continuous(
                [(-1.0, [2, 0]), (1.0, [1, 0]), (-0.25, [0, 0])],
                [(1.0, [0, 1])],
                3.0,
            ),
            0.2,
            2,
        ),
        # Fails on every grid, down to the a-priori mesh.
        (
            single_state_continuous(
                [(0.1 * (1 - 1e-6), [30, 0])], [(0.1 * (1 - 1e-6), [0, 30])], 16.0
            ),
            0.1,
            5,
        ),
    ],
)
def test_benchmark_gets_each_grid_game(doc, epsilon, meshes, tmp_path, monkeypatch):
    # The benchmark's recheck patches ``nestnash.cli.build_hat_game`` alone
    # and takes the last grid game a continuous solve built as the
    # reported one.
    built = []
    build_hat_game = nestnash.cli.build_hat_game

    def keep(*args, **kwargs):
        built.append(build_hat_game(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(nestnash.cli, "build_hat_game", keep)
    path = write_json(tmp_path / "game.json", doc)
    out = tmp_path / "report.json"
    nestnash.cli.main(
        ["solve", "--game", path, "--epsilon", repr(epsilon), "--out", str(out)]
    )
    report = json.loads(out.read_text())
    assert len(built) == len(report["box_certificate"]["meshes"]) == meshes
    assert built[-1].eta0 == report["discretization"]["eta0"]


def perfbench_module(name: str, monkeypatch):
    """``perfbench/<name>.py``, loaded as ``perfbench_<name>`` without
    writing bytecode into the benchmark's directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_targets_resolve(monkeypatch):
    # Every function the benchmark's tracer wraps is where it looks.
    spans = perfbench_module("spans", monkeypatch)
    assert spans.TARGETS
    for module_name, path, name in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), (module_name, path, name)


def test_benchmark_recheck_passes_a_redundant_solve(tmp_path, monkeypatch):
    # The benchmark rechecks each report by building its lifted profile
    # from dicts (``_report_profile``) and certifying it with the library;
    # a CLI solve of a ``redundant`` game, whose profile the solver and
    # the lift hand on as rows, must pass that recheck.
    generators = perfbench_module("generators", monkeypatch)
    # ``workloads`` imports the benchmark's ``generators``, not the tests'.
    monkeypatch.setitem(sys.modules, "generators", generators)
    workloads = perfbench_module("workloads", monkeypatch)
    with mock.patch.dict(os.environ):  # ``run`` caps thread counts on import
        run = perfbench_module("run", monkeypatch)
    game = generators.redundant_game(np.random.default_rng(1), 600)
    path = write_json(tmp_path / "game.json", workloads.finite_doc(game))
    epsilon = workloads.REDUNDANT_EPSILON
    case = workloads.Case("redundant0", path, epsilon, 0, 600, lambda: game)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nestnash.cli.main(["solve", "--game", path, "--epsilon", repr(epsilon)])
    problems, counts = run.check_report(case, code, out.getvalue(), None)
    assert (code, problems) == (0, [])
    assert counts["atoms_coarse"] < counts["atoms_original"]


def sites(match) -> set[tuple[str, str]]:
    """(module file, innermost enclosing function, or "<module>") of each
    node of the package that ``match`` accepts; a string that ``match``
    returns names the site in place of the function."""
    package = os.path.dirname(os.path.abspath(nestnash.__file__))
    out = set()

    def walk(node: ast.AST, file: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            hit = match(child)
            if hit:
                out.add((file, hit if isinstance(hit, str) else where))
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            walk(child, file, inner)

    for file in sorted(os.listdir(package)):
        if file.endswith(".py"):
            with open(os.path.join(package, file), encoding="utf-8") as handle:
                walk(ast.parse(handle.read()), file, "<module>")
    return out


def readers(name: str) -> set[tuple[str, str]]:
    """Where the package reads ``name``, and (module file, "<import>")
    for each import of it."""

    def match(node: ast.AST):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == name for alias in node.names) and "<import>"
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return node.id == name
        return isinstance(node, ast.Attribute) and node.attr == name

    return sites(match)


def powers() -> set[tuple[str, str]]:
    """Where the package raises a value to a power that is not a literal,
    by ``**``, ``**=``, ``pow`` or ``numpy.power``."""

    def literal(node: ast.AST) -> bool:
        kinds = (ast.Constant, ast.UnaryOp, ast.unaryop)
        return all(isinstance(n, kinds) for n in ast.walk(node))

    def match(node: ast.AST) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return not literal(node.right)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            return not literal(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id == "pow"
            if isinstance(func, ast.Attribute):
                return func.attr in ("pow", "power", "float_power")
        return False

    return sites(match)


def test_mass_tolerance_is_read_by_the_mass_rule_and_the_box_allowance():
    assert readers("MASS_TOL") == {
        ("game.py", "_mass_fault"),
        ("discretize.py", "<import>"),
        ("discretize.py", "certify_box"),
    }


def test_certificate_slack_is_read_in_regret_only():
    assert {file for file, _ in readers("CERT_SLACK")} == {"regret.py"}


def test_the_package_never_calls_id():
    # A cache keyed by ``id`` must keep each key's object alive so that
    # the id is not reused, and so it keeps every object it has seen.
    assert readers("id") == set()


def test_the_box_certificate_runs_the_one_probe_audit():
    # ``certify_box`` probes the profile it certifies and returns the
    # audit with its bound, so nothing else in the package probes.
    assert readers("probe_harsanyi_regret") == {
        ("__init__.py", "<import>"),
        ("discretize.py", "certify_box"),
    }


def test_one_evaluator_raises_grid_values_to_powers():
    # ``poly_eval`` is the plain oracle; ``_grid_sum`` evaluates every
    # polynomial on a grid (the payoff table, the box certificate's
    # own-action values and the opponents' moments) from its power tables.
    assert powers() == {
        ("discretize.py", "poly_eval"),
        ("discretize.py", "_grid_sum"),
    }
    assert readers("_grid_sum") == {
        ("discretize.py", "_net_values"),
        ("discretize.py", "certify_box"),
        ("discretize.py", "moment"),
    }


def test_one_function_stacks_a_keyed_table():
    # ``game._stack`` is the one way from a table keyed by (state, profile)
    # to a payoff array: a dict-backed tensor, a type space and a game file
    # in any other than table order.  Every other payoff array is written
    # as an array and handed to ``PayoffTensor.from_array``.
    assert readers("_stack") == {
        ("game.py", "array"),
        ("game.py", "from_type_space"),
        ("gamefile.py", "<import>"),
        ("gamefile.py", "_payoff_array"),
    }
    assert readers("from_array") == {
        ("game.py", "from_type_space"),
        ("gamefile.py", "_payoff_array"),
        ("discretize.py", "build_hat_game"),
        ("solver.py", "_quotient"),
    }


def test_only_file_labels_take_the_dict_grouping():
    # ``game._group`` keys a dict by each atom name a file or a caller
    # gives, once, when a partition is built (every other partition
    # constructor starts from labels); every key the package derives is
    # an integer and goes through ``_group_ints``.
    assert readers("_group") == {("game.py", "from_atoms")}
    assert readers("from_atoms") == {
        ("game.py", "__init__"),
        ("game.py", "from_type_space"),
        ("gamefile.py", "_parse_partitions"),
    }
    assert {file for file, _ in readers("_group_ints")} == {
        "game.py",
        "hierarchy.py",
        "regret.py",
        "solver.py",
    }


def test_game_objects_hold_one_form():
    # Partitions and profiles intern names when they are built, and their
    # dict forms are cached views: no attribute is made up on first read.
    def defines(node: ast.AST) -> bool:
        return isinstance(node, ast.FunctionDef) and node.name == "__getattr__"

    assert {file for file, _ in sites(defines)} == set()


def test_one_function_writes_report_rows():
    # ``cli._dumps_columns`` writes every block of report rows held as
    # columns (the regret block's atoms and each player's strategies) and
    # ``_dumps`` alone calls it; every other container takes ``_dumps``'
    # generic recursion, with no second row writer beside it.
    assert readers("_dumps_columns") == {("cli.py", "_dumps")}

    def defines(node: ast.AST) -> bool:
        names = ("_dumps_rows", "_are_rows")
        return isinstance(node, ast.FunctionDef) and node.name in names

    assert sites(defines) == set()


def test_one_reader_reads_played_rows():
    # ``game._played_rows`` alone turns a profile's rows, however it was
    # built, into checked distributions: the certifier reads it through
    # ``_strategies_at`` and the lift directly, so no other stage walks a
    # profile's dicts atom by atom or reads its play past the checks.
    assert readers("_played_rows") == {
        ("game.py", "_strategies_at"),
        ("solver.py", "<import>"),
        ("solver.py", "lift_strategy"),
    }
    assert readers("distribution") == {("game.py", "_played_rows")}


def test_certificate_records_come_from_the_certifier_alone():
    # Every ``PlayerRegret`` and ``RegretReport`` is built in ``regret``,
    # from a game and a profile, so no other stage can hand a certificate
    # on under another game's name.
    records = ("PlayerRegret", "RegretReport")

    def match(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in records

    assert sites(match) == {
        ("regret.py", "bayesian_regret"),
        ("regret.py", "regret_report"),
    }


def test_no_function_takes_both_a_game_and_a_hierarchy():
    # A hierarchy carries the game it was built from (``Hierarchy.game``),
    # so a function that also took a game could be handed another one.
    package = os.path.dirname(os.path.abspath(nestnash.__file__))
    typed: dict[str, set[tuple[str, str]]] = {"NestedGame": set(), "Hierarchy": set()}
    for file in sorted(os.listdir(package)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(package, file), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    for part in ast.walk(arg.annotation or ast.Pass()):
                        if isinstance(part, ast.Name) and part.id in typed:
                            typed[part.id].add((file, node.name))
    assert ("solver.py", "build_auxiliary_game") in typed["Hierarchy"]
    assert ("regret.py", "certify") in typed["NestedGame"]
    assert typed["NestedGame"] & typed["Hierarchy"] == set()


def test_the_hierarchy_audits_itself():
    # ``Hierarchy.audit`` runs the structural audit once per hierarchy,
    # and every stage reads it there.
    assert readers("check_properties") == {
        ("__init__.py", "<import>"),
        ("hierarchy.py", "audit"),
    }


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from nestnash import *", namespace)
    assert set(nestnash.__all__) <= namespace.keys()
    # Names the package no longer has; the plain oracles live in
    # ``tests/oracles.py``.
    gone = {
        "AuxGame",
        "SolverConfig",
        "brute_force_check",
        "coarse_best_response_gap",
        "expectation_gap",
    }
    assert not gone & set(nestnash.__all__)
    assert not [name for name in gone if hasattr(nestnash, name)]


def test_the_library_holds_what_the_cli_reaches():
    # Starting from ``cli.main``, a top-level def is reached when its name
    # appears as a name or an attribute in a reached body (a reached
    # class's whole body counts).  What no CLI path reaches is the
    # library's evaluation API alone; the test-only measures and oracles
    # live in ``tests/oracles.py``.
    package = os.path.dirname(os.path.abspath(nestnash.__file__))
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for file in sorted(os.listdir(package)):
        if file.endswith(".py"):
            with open(os.path.join(package, file), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in tree.body:
                if isinstance(node, kinds):
                    defs.setdefault(node.name, []).append((file, node))
    (main,) = [node for file, node in defs["main"] if file == "cli.py"]
    reached, bodies = {"main"}, [main]
    while bodies:
        for part in ast.walk(bodies.pop()):
            if isinstance(part, ast.Name):
                name = part.id
            elif isinstance(part, ast.Attribute):
                name = part.attr
            else:
                continue
            if name in defs and name not in reached:
                reached.add(name)
                bodies += [node for _, node in defs[name]]
    assert defs.keys() - reached == {
        "conditional_payoff",
        "expected_payoff",
        "_expectations",
        "_check_player",
    }


def test_the_oracles_stand_apart_from_the_library():
    # ``tests/oracles.py`` imports public names of the package alone and
    # calls none of what it checks: not the certifier, not the hierarchy
    # builder, not the evaluator, and not ``game.classes``, which the
    # payoff checksums build; it numbers payoff classes itself.
    with open(os.path.join(TESTS, "oracles.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("nestnash")]
        elif isinstance(node, ast.ImportFrom):
            if node.module.startswith("nestnash"):
                assert node.module == "nestnash"
                imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
            assert not node.attr.startswith("_"), node.attr
    assert imported and imported <= set(nestnash.__all__)
    forbidden = {
        "bayesian_regret",
        "certify",
        "build_hierarchy",
        "_state_values",
        "_expectation_rows",
        "classes",
    }
    assert not used & forbidden
