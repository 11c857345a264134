import dataclasses
import json
import math
import subprocess
import sys

import pytest

import nestnash.cli
import nestnash.discretize
import nestnash.game
import nestnash.hierarchy
import nestnash.regret
from nestnash.cli import REPORT_VERSION, main
from nestnash.discretize import eta_net
from nestnash.game import PAYOFF_CAP, InformationPartition, PayoffTensor
from nestnash.regret import ConsistencyError

MP_GAME = {
    "version": 1,
    "mode": "finite",
    "states": [{"id": "w", "prob": 1.0}],
    "partitions": {"1": {"w": "a"}, "2": {"w": "b"}},
    "actions": {"1": ["H", "T"], "2": ["H", "T"]},
    "payoffs": [
        {"state": "w", "profile": ["H", "H"], "values": [1.0, -1.0]},
        {"state": "w", "profile": ["H", "T"], "values": [-1.0, 1.0]},
        {"state": "w", "profile": ["T", "H"], "values": [-1.0, 1.0]},
        {"state": "w", "profile": ["T", "T"], "values": [1.0, -1.0]},
    ],
}

ANCHOR_GAME = {
    "version": 1,
    "mode": "finite",
    "states": [{"id": "w1", "prob": 0.5}, {"id": "w2", "prob": 0.5}],
    "partitions": {
        "1": {"w1": "a1", "w2": "a2"},
        "2": {"w1": "b", "w2": "b"},
    },
    "actions": {"1": ["L", "R"], "2": ["L", "R"]},
    "payoffs": [
        {"state": "w1", "profile": ["L", "L"], "values": [2.0, -2.0]},
        {"state": "w1", "profile": ["L", "R"], "values": [0.0, 0.0]},
        {"state": "w1", "profile": ["R", "L"], "values": [0.0, 0.0]},
        {"state": "w1", "profile": ["R", "R"], "values": [1.0, -1.0]},
        {"state": "w2", "profile": ["L", "L"], "values": [0.0, 0.0]},
        {"state": "w2", "profile": ["L", "R"], "values": [1.0, -1.0]},
        {"state": "w2", "profile": ["R", "L"], "values": [2.0, -2.0]},
        {"state": "w2", "profile": ["R", "R"], "values": [0.0, 0.0]},
    ],
}

TYPES_GAME = {
    "version": 1,
    "mode": "types",
    "types": [["t1", "t2"], ["s1"]],
    "joint": [
        {"types": ["t1", "s1"], "prob": 0.5},
        {"types": ["t2", "s1"], "prob": 0.5},
    ],
    "actions": [["L", "R"], ["U", "D"]],
    "payoffs": [
        {"types": [t, "s1"], "profile": [a1, a2], "values": [u1, u2]}
        for t, a1, a2, u1, u2 in [
            ("t1", "L", "U", 1.0, 0.0),
            ("t1", "L", "D", 1.0, 1.0),
            ("t1", "R", "U", 0.0, 0.0),
            ("t1", "R", "D", 0.0, 1.0),
            ("t2", "L", "U", 0.0, 1.0),
            ("t2", "L", "D", 0.0, 0.0),
            ("t2", "R", "U", 1.0, 1.0),
            ("t2", "R", "D", 1.0, 0.0),
        ]
    ],
}

CONTINUOUS_GAME = {
    "version": 1,
    "mode": "continuous",
    "states": [{"id": "w", "prob": 1.0}],
    "partitions": {"1": {"w": "a"}, "2": {"w": "b"}},
    "boxes": {"1": 1, "2": 1},
    "lipschitz": 1.0,
    "payoffs": [
        {
            "state": "w",
            "player": 1,
            "monomials": [{"coef": 1.0, "exponents": [1, 0]}],
        },
        {
            "state": "w",
            "player": 2,
            "monomials": [{"coef": 1.0, "exponents": [0, 1]}],
        },
    ],
}

ANCHOR_EQUILIBRIUM = {
    "version": 1,
    "field_level": "original",
    "strategies": {
        "1": {
            "a1": {"L": 1 / 3, "R": 2 / 3},
            "a2": {"L": 2 / 3, "R": 1 / 3},
        },
        "2": {"b": {"L": 1 / 3, "R": 2 / 3}},
    },
}


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mp_path(tmp_path):
    return write_json(tmp_path / "mp.json", MP_GAME)


@pytest.fixture
def anchor_path(tmp_path):
    return write_json(tmp_path / "anchor.json", ANCHOR_GAME)


class TestSolve:
    def test_matching_pennies_certifies(self, mp_path, capsys):
        code = main(["solve", "--game", mp_path, "--epsilon", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["regret"]["passed"] is True
        assert doc["solver"]["method"] == "predictive-rm+"
        assert doc["profile"]["field_level"] == "original"
        assert doc["transfer"]["within_bound"] is True

    def test_reports_are_byte_identical(self, anchor_path, capsys):
        code = main(["solve", "--game", anchor_path, "--epsilon", "0.1"])
        first = capsys.readouterr().out
        assert code == 0
        assert main(["solve", "--game", anchor_path, "--epsilon", "0.1"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file_matches_stdout(self, mp_path, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--game",
                mp_path,
                "--epsilon",
                "0.05",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        code = main(["solve", "--game", mp_path, "--epsilon", "0.05"])
        streamed = capsys.readouterr().out
        assert code == 0
        assert out_path.read_text() + "\n" == streamed

    def test_anchor_value_in_report(self, anchor_path, capsys):
        code = main(
            [
                "solve",
                "--game",
                anchor_path,
                "--epsilon",
                "0.05",
                "--solver-regret",
                "1e-12",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        column = doc["profile"]["strategies"]["2"]["b"]
        assert column["L"] == pytest.approx(1 / 3, abs=1e-9)
        assert doc["regret"]["max_regret"] <= 0.05

    def test_types_game_solves(self, tmp_path, capsys):
        path = write_json(tmp_path / "types.json", TYPES_GAME)
        code = main(["solve", "--game", path, "--epsilon", "0.1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["config"]["mode"] == "types"
        assert "t1|s1" in doc["ingestion"]["prior"]

    def test_continuous_game_solves(self, tmp_path, capsys):
        # Each player's own coordinate dominates, so the coarsest grid,
        # the box's corners, certifies; meshes 4, 2 and 1 give that same
        # grid, and the finest of them is the one solved.
        path = write_json(tmp_path / "cont.json", CONTINUOUS_GAME)
        code = main(["solve", "--game", path, "--epsilon", "0.25"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        box = doc["box_certificate"]
        assert box["ok"] is True
        assert box["meshes"] == [1.0]
        assert box["max_regret"] <= 0.25
        assert doc["discretization"]["eta0"] == box["meshes"][-1]
        assert doc["discretization"]["net_sizes"] == [2, 2]
        assert doc["probe_audit"]["ok"] is True

    def test_overflowing_payoff_bound_exits_one(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONTINUOUS_GAME))
        doc["payoffs"][0]["monomials"] = [
            {"coef": 1e308, "exponents": [0, 0]},
            {"coef": 1e308, "exponents": [0, 0]},
        ]
        path = write_json(tmp_path / "huge.json", doc)
        code = main(["solve", "--game", path, "--epsilon", "0.25"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "value bound for ('w', 1) overflows" in captured.err

    @pytest.mark.parametrize("epsilon, scale", [("5e-324", 1.0), ("0.1", 1.7e308)])
    def test_underflowing_default_delta_names_epsilon_and_m(
        self, epsilon, scale, tmp_path, capsys
    ):
        # delta = epsilon / (2 M A) is 0 when epsilon is too small.  A
        # payoff scale at which 2 M A would overflow is refused before, by
        # the payoff cap.  No --delta was given, so no message may blame it.
        doc = json.loads(json.dumps(MP_GAME))
        for entry in doc["payoffs"]:
            entry["values"] = [scale * v for v in entry["values"]]
        path = write_json(tmp_path / "game.json", doc)
        code = main(["solve", "--game", path, "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "delta must be positive" not in captured.err
        if scale > PAYOFF_CAP:
            assert "payoff beyond the cap 8.453e+270 at ('w'" in captured.err
        else:
            assert "default delta" in captured.err
            assert f"epsilon = {float(epsilon)!r}, M = {scale!r}" in captured.err

    def test_payoffs_whose_regrets_overflow_exit_one(self, tmp_path, capsys):
        # Player 1's cumulative regret once overflowed here: after three
        # RuntimeWarnings the solver kept a NaN profile as its best, and the
        # run ended on "player 1 plays a distribution that has invalid mass
        # nan".  The payoff cap refuses the game first.
        doc = json.loads(json.dumps(MP_GAME))
        doc["actions"] = {"1": ["A", "B", "C"], "2": ["L", "R"]}
        # Player 1 loses only with C against R.
        signs = [1, 1, 1, 1, 1, -1]
        doc["payoffs"] = [
            {"state": "w", "profile": [a, b], "values": [s * 1.7e308, -s]}
            for (a, b), s in zip([(a, b) for a in "ABC" for b in "LR"], signs)
        ]
        path = write_json(tmp_path / "game.json", doc)
        argv = ["solve", "--game", path, "--epsilon", "0.1", "--delta", "1e-300"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: invalid game: payoff beyond the cap 8.453e+270 at "
            "('w', ('A', 'L'))\n"
        )

    def test_csv_format(self, mp_path, capsys):
        code = main(
            ["solve", "--game", mp_path, "--epsilon", "0.05", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "player,atom,mass,regret,best_value,current_value"
        assert len(lines) == 3

    def test_explicit_delta_and_target_are_echoed(self, anchor_path, capsys):
        code = main(
            [
                "solve",
                "--game",
                anchor_path,
                "--epsilon",
                "0.1",
                "--delta",
                "0.02",
                "--solver-regret",
                "0.01",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["config"]["delta"] == 0.02
        assert doc["config"]["solver_target"] == 0.01

    def test_nonpositive_epsilon_is_invalid_input(self, mp_path, capsys):
        assert main(["solve", "--game", mp_path, "--epsilon", "0"]) == 1
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["finite", "continuous"])
    def test_huge_integer_exits_one(self, kind, tmp_path, capsys):
        if kind == "finite":
            doc = json.loads(json.dumps(MP_GAME))
            doc["payoffs"][1]["values"][0] = 10**400
            where = "payoffs[1].values[0]"
        else:
            doc = json.loads(json.dumps(CONTINUOUS_GAME))
            doc["payoffs"][0]["monomials"][0]["coef"] = 10**400
            where = "payoffs[0].monomials[0].coef"
        path = write_json(tmp_path / "huge.json", doc)
        code = main(["solve", "--game", path, "--epsilon", "0.25"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"error: {where} is too large to be a float" in captured.err

    @pytest.mark.parametrize("reverse", [False, True])
    def test_signed_zeros_report_one_unsigned_zero(self, reverse, tmp_path, capsys):
        doc = json.loads(json.dumps(MP_GAME))
        for entry, vals in zip(
            doc["payoffs"], [[1.0, -1.0], [-0.0, 0.0], [0.0, -0.0], [-1.0, 1.0]]
        ):
            entry["values"] = vals
        if reverse:
            doc["payoffs"].reverse()
        path = write_json(tmp_path / "zeros.json", doc)
        assert main(["solve", "--game", path, "--epsilon", "0.05"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert json.dumps(report["ingestion"]["payoff_values"]) == "[-1.0, 0.0, 1.0]"

    @pytest.mark.parametrize("doc", [ANCHOR_GAME, CONTINUOUS_GAME])
    def test_builds_one_payoff_array(self, doc, tmp_path, monkeypatch):
        """The loader and the grid game write the payoff array itself:
        the solve stacks no dict into an array, builds no ``values``
        dict, and every stage reads the one array.  A continuous solve
        reads one more, the true-value table that ``build_hat_game``
        builds beside the grid game's and the probe audit reads."""
        path = write_json(tmp_path / "game.json", doc)
        stacks = count_calls(monkeypatch, nestnash.game, "_stack")
        views = []
        values = PayoffTensor.values.fget
        tables = []
        array = PayoffTensor.array

        def viewed(self):
            views.append(self)
            return values(self)

        def counted(self, states):
            tables.append(array(self, states))
            return tables[-1]

        monkeypatch.setattr(PayoffTensor, "values", property(viewed))
        monkeypatch.setattr(PayoffTensor, "array", counted)
        assert main(["solve", "--game", path, "--epsilon", "0.25"]) == 0
        assert stacks == []
        assert views == []
        assert tables
        arrays = 2 if doc["mode"] == "continuous" else 1
        assert len({id(table) for table in tables}) == arrays

    @pytest.mark.parametrize("doc", [ANCHOR_GAME, CONTINUOUS_GAME])
    def test_validates_and_audits_once(self, doc, tmp_path, monkeypatch):
        # Each game is validated once: the loaded (or grid) game, and for
        # a continuous game the probe's true-value game.  The hierarchy
        # merges nothing, so the solver's coarse game is the game itself.
        path = write_json(tmp_path / "game.json", doc)
        validations = count_calls(monkeypatch, nestnash.game, "validate_game")
        audits = count_calls(monkeypatch, nestnash.hierarchy, "check_properties")
        assert main(["solve", "--game", path, "--epsilon", "0.25"]) == 0
        games = 2 if doc["mode"] == "continuous" else 1
        assert len(validations) == games
        assert len({id(args[0]) for args in validations}) == games
        assert len(audits) == 1


def count_calls(monkeypatch, module, name: str) -> list:
    """Count calls of ``module.name`` through every nestnash module holding it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "nestnash" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def strict_json(text: str):
    """Parse JSON, refusing the NaN and Infinity tokens Python allows."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


class TestNumericFlags:
    """Every numeric flag rejects out-of-range values with exit code 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--epsilon", "inf"],
            ["solve", "--epsilon", "0.05", "--delta", "inf"],
            ["solve", "--epsilon", "0.05", "--solver-regret", "nan"],
            ["solve", "--epsilon", "0.05", "--seed", "-1"],
            ["verify", "--profile", "unread.json", "--epsilon", "nan"],
            ["hierarchy", "--delta", "nan"],
        ],
    )
    def test_bad_value_exits_one(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "types.json", TYPES_GAME)
        code = main(argv + ["--game", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert argv[-2] in captured.err
        assert captured.out == ""

    def test_solve_report_is_strict_json(self, tmp_path, capsys):
        path = write_json(tmp_path / "types.json", TYPES_GAME)
        code = main(["solve", "--game", path, "--epsilon", "0.05", "--seed", "3"])
        assert code == 0
        assert strict_json(capsys.readouterr().out)["config"]["seed"] == 3


def single_state_continuous(poly1, poly2, lipschitz: float) -> dict:
    """A one-state continuous game on [0, 1] x [0, 1]; each polynomial is
    a list of (coef, exponents) pairs."""
    doc = json.loads(json.dumps(CONTINUOUS_GAME))
    doc["lipschitz"] = lipschitz
    for entry, poly in zip(doc["payoffs"], (poly1, poly2)):
        entry["monomials"] = [{"coef": c, "exponents": e} for c, e in poly]
    return doc


class TestCoarseToFine:
    """The continuous solve halves the mesh from 16 epsilon / L until the
    box certificate passes, and never goes below epsilon / L."""

    def solve(self, doc, epsilon, tmp_path, monkeypatch, capsys):
        path = write_json(tmp_path / "game.json", doc)
        built = count_calls(monkeypatch, nestnash.cli, "build_hat_game")
        solves = count_calls(monkeypatch, nestnash.cli, "solve")
        code = main(["solve", "--game", path, "--epsilon", repr(epsilon)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        meshes = [args[2] for args in built]
        assert len(solves) == len(meshes)
        return code, strict_json(captured.out), meshes

    def test_interior_optimum_refines_once(self, tmp_path, monkeypatch, capsys):
        # Player 1's payoff -(x - 1/2)^2 peaks between the corners, which
        # is all the first grid holds; the second grid holds 1/2.
        doc = single_state_continuous(
            [(-1.0, [2, 0]), (1.0, [1, 0]), (-0.25, [0, 0])], [(1.0, [0, 1])], 3.0
        )
        code, report, meshes = self.solve(doc, 0.2, tmp_path, monkeypatch, capsys)
        base = 0.2 / 3.0
        assert code == 0
        assert meshes == [16 * base, 8 * base]
        box = report["box_certificate"]
        assert box["ok"] is True
        assert box["meshes"] == meshes
        assert report["discretization"]["eta0"] == 8 * base
        assert report["discretization"]["net_sizes"] == [3, 3]
        assert report["probe_audit"]["ok"] is True

    def test_checks_the_spec_once_and_shares_each_grids_supports(
        self, tmp_path, monkeypatch, capsys
    ):
        # ``coarse_to_fine`` and every ``build_hat_game`` read the spec's
        # one cached check, and each grid game hands its supports to its
        # true-value game, so each player's support is built once per mesh.
        doc = single_state_continuous(
            [(-1.0, [2, 0]), (1.0, [1, 0]), (-0.25, [0, 0])], [(1.0, [0, 1])], 3.0
        )
        checks = count_calls(monkeypatch, nestnash.discretize, "_validate_spec")
        supports = count_calls(monkeypatch, nestnash.game, "_support")
        code, _, meshes = self.solve(doc, 0.2, tmp_path, monkeypatch, capsys)
        assert code == 0 and len(meshes) == 2
        assert len(checks) == 1
        assert len(supports) == 2 * len(meshes)

    def test_failing_at_every_mesh_reports_the_a_priori_mesh(
        self, tmp_path, monkeypatch, capsys
    ):
        # Payoffs c x^30 with c just below epsilon floor to 0 on every
        # grid, so the solver stops at uniform play, which forgoes about
        # 0.9 c against x = 1; with the covering term that exceeds
        # epsilon on every grid.
        coef = 0.1 * (1 - 1e-6)
        doc = single_state_continuous([(coef, [30, 0])], [(coef, [0, 30])], 16.0)
        code, report, meshes = self.solve(doc, 0.1, tmp_path, monkeypatch, capsys)
        base = 0.1 / 16.0
        assert code == 2
        assert meshes == [f * base for f in (16, 8, 4, 2, 1)]
        assert len({len(eta_net(1, m)) for m in meshes}) == len(meshes)
        box = report["box_certificate"]
        assert box["ok"] is False
        assert box["max_regret"] > 0.1
        assert box["meshes"] == meshes
        assert report["discretization"]["eta0"] == base
        assert report["probe_audit"]["ok"] is True

    @pytest.mark.parametrize(
        "epsilon, lipschitz",
        [
            # epsilon / L underflows to 0.
            ("5e-324", 2.0),
            # epsilon / L is positive, but its reciprocal overflows.
            ("1e-310", 2.0),
            ("0.1", 1e308),
        ],
    )
    def test_mesh_without_a_grid_is_rejected(
        self, epsilon, lipschitz, tmp_path, capsys
    ):
        doc = single_state_continuous([(1.0, [1, 0])], [(1.0, [0, 1])], lipschitz)
        path = write_json(tmp_path / "game.json", doc)
        code = main(["solve", "--game", path, "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: the grid mesh epsilon / L is too fine for a grid at "
            f"epsilon = {float(epsilon)!r}, L = {lipschitz!r}\n"
        )


class TestVerify:
    def test_exact_equilibrium_passes(self, anchor_path, tmp_path, capsys):
        profile_path = write_json(tmp_path / "eq.json", ANCHOR_EQUILIBRIUM)
        code = main(
            [
                "verify",
                "--game",
                anchor_path,
                "--profile",
                profile_path,
                "--epsilon",
                "1e-9",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["regret"]["passed"] is True

    def test_bad_profile_fails_certification(self, anchor_path, tmp_path, capsys):
        bad = {
            "version": 1,
            "field_level": "original",
            "strategies": {
                "1": {"a1": {"L": 1.0}, "a2": {"L": 1.0}},
                "2": {"b": {"L": 1.0}},
            },
        }
        profile_path = write_json(tmp_path / "bad.json", bad)
        code = main(
            [
                "verify",
                "--game",
                anchor_path,
                "--profile",
                profile_path,
                "--epsilon",
                "0.05",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["regret"]["passed"] is False
        assert doc["regret"]["max_regret"] > 0.05

    def test_unnormalized_profile_is_invalid_input(
        self, anchor_path, tmp_path, capsys
    ):
        bad = {
            "version": 1,
            "field_level": "original",
            "strategies": {
                "1": {"a1": {"L": 0.5, "R": 0.4}, "a2": {"L": 1.0}},
                "2": {"b": {"L": 1.0}},
            },
        }
        profile_path = write_json(tmp_path / "bad.json", bad)
        code = main(
            [
                "verify",
                "--game",
                anchor_path,
                "--profile",
                profile_path,
                "--epsilon",
                "0.05",
            ]
        )
        assert code == 1
        assert "invalid profile" in capsys.readouterr().err

    def test_overflowing_distribution_sum_is_invalid_input(
        self, anchor_path, tmp_path, capsys
    ):
        doc = json.loads(json.dumps(ANCHOR_EQUILIBRIUM))
        doc["strategies"]["1"]["a1"] = {"L": 1e308, "R": 1e308}
        profile_path = write_json(tmp_path / "huge.json", doc)
        argv = ["verify", "--game", anchor_path, "--profile", profile_path]
        code = main(argv + ["--epsilon", "0.05"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "player 1 atom 'a1' distribution sums to inf" in captured.err

    def test_regret_beyond_the_float_range_is_refused(self, tmp_path, capsys):
        # Playing T against H once had regret 1e308 - (-1e308) = inf, and
        # the JSON writer raised on it.  The payoff cap refuses the game.
        doc = json.loads(json.dumps(MP_GAME))
        for entry in doc["payoffs"]:
            u = 1e308 if entry["profile"][0] == "H" else -1e308
            entry["values"] = [u, -u]
        game_path = write_json(tmp_path / "game.json", doc)
        worse = {
            "version": 1,
            "field_level": "original",
            "strategies": {"1": {"a": {"H": 0.0, "T": 1.0}}, "2": {"b": {"H": 1.0}}},
        }
        profile_path = write_json(tmp_path / "worse.json", worse)
        argv = ["verify", "--game", game_path, "--profile", profile_path]
        code = main(argv + ["--epsilon", "0.1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: invalid game: payoff beyond the cap 8.453e+270 at "
            "('w', ('H', 'H'))\n"
        )

    def test_round_trip_solve_then_verify(self, anchor_path, tmp_path, capsys):
        code = main(["solve", "--game", anchor_path, "--epsilon", "0.05"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        profile_path = write_json(tmp_path / "solved.json", doc["profile"])
        code = main(
            [
                "verify",
                "--game",
                anchor_path,
                "--profile",
                profile_path,
                "--epsilon",
                "0.05",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["regret"]["passed"] is True

    def test_continuous_games_are_rejected(self, tmp_path, capsys):
        game_path = write_json(tmp_path / "cont.json", CONTINUOUS_GAME)
        profile_path = write_json(tmp_path / "eq.json", ANCHOR_EQUILIBRIUM)
        code = main(
            [
                "verify",
                "--game",
                game_path,
                "--profile",
                profile_path,
                "--epsilon",
                "0.1",
            ]
        )
        assert code == 1
        assert "solve handles continuous" in capsys.readouterr().err

    def test_unknown_player_is_invalid_input(self, anchor_path, tmp_path, capsys):
        doc = json.loads(json.dumps(ANCHOR_EQUILIBRIUM))
        doc["strategies"]["7"] = {"zz": {"Q": 1.0}}
        profile_path = write_json(tmp_path / "extra.json", doc)
        code = main(
            [
                "verify",
                "--game",
                anchor_path,
                "--profile",
                profile_path,
                "--epsilon",
                "0.05",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "strategies given for unknown player 7" in captured.err

    def test_coarse_profile_is_rejected(self, anchor_path, tmp_path, capsys):
        # The coarse profile solve prints names hierarchy atoms, which are
        # not the game's; verify says so instead of listing every atom.
        assert main(["solve", "--game", anchor_path, "--epsilon", "0.05"]) == 0
        doc = json.loads(capsys.readouterr().out)
        profile_path = write_json(tmp_path / "coarse.json", doc["coarse_profile"])
        code = main(
            [
                "verify",
                "--game",
                anchor_path,
                "--profile",
                profile_path,
                "--epsilon",
                "0.05",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "field_level" in captured.err
        assert "atom '" not in captured.err


class TestHierarchy:
    def test_reports_levels_and_checks(self, anchor_path, capsys):
        code = main(["hierarchy", "--game", anchor_path, "--delta", "0.2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["hierarchy"]["ok"] is True
        assert doc["hierarchy"]["levels"][0] == {
            "player": 1,
            "signals": 2,
            "beliefs": 2,
            "max_l1_gap": 0.0,
        }
        assert doc["hierarchy"]["atoms"]["1"] == {"original": 2, "coarse": 2}
        assert doc["hierarchy"]["atoms"]["2"] == {"original": 1, "coarse": 1}

    def test_csv_format(self, anchor_path, capsys):
        code = main(
            [
                "hierarchy",
                "--game",
                anchor_path,
                "--delta",
                "0.2",
                "--format",
                "csv",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        header = out.split("\n", 1)[0]
        assert header == (
            "player,signals,beliefs,max_l1_gap,original_atoms,coarse_atoms"
        )

    def test_continuous_games_are_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path / "cont.json", CONTINUOUS_GAME)
        code = main(["hierarchy", "--game", path, "--delta", "0.1"])
        assert code == 1
        assert "solve handles continuous" in capsys.readouterr().err

    def test_bad_delta_rejected(self, anchor_path, capsys):
        assert main(["hierarchy", "--game", anchor_path, "--delta", "-1"]) == 1
        assert "delta" in capsys.readouterr().err

    def test_failed_audit_prints_the_report_and_exits_2(
        self, anchor_path, capsys, monkeypatch
    ):
        # A coarse partition splitting player 2's one atom fails the
        # structural audit; the report still prints, and names the failure.
        build_hierarchy = nestnash.cli.build_hierarchy

        def tampered(game, delta):
            h = build_hierarchy(game, delta)
            split = InformationPartition(2, {"w1": 0, "w2": 1})
            return dataclasses.replace(h, coarse=(h.coarse[0], split))

        monkeypatch.setattr(nestnash.cli, "build_hierarchy", tampered)
        code = main(["hierarchy", "--game", anchor_path, "--delta", "0.2"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 2
        assert captured.err == ""
        assert doc["hierarchy"]["ok"] is False
        checks = doc["hierarchy"]["checks"]
        failed = [(c["name"], c["player"]) for c in checks if not c["ok"]]
        assert ("information-refines-coarse", 2) in failed


def test_consistency_failure_exits_2(mp_path, capsys, monkeypatch):
    # A regret below the floor inside ``solve`` is a broken invariant: one
    # stderr line, no report.
    message = "negative regret -0.5 for player 1 at atom 'a'"

    def broken(game, profile):
        raise ConsistencyError(message)

    monkeypatch.setattr(nestnash.regret, "bayesian_regret", broken)
    code = main(["solve", "--game", mp_path, "--epsilon", "0.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"consistency failure: {message}\n"


def _entry_case(edit):
    doc = json.loads(json.dumps(MP_GAME))
    edit(doc["payoffs"])
    return doc


def _set(k, field, value):
    def edit(entries):
        entries[k][field] = value

    return edit


def _repeat_then(edit_later):
    def edit(entries):
        entries[2] = dict(entries[1])
        if edit_later is not None:
            edit_later(entries)

    return edit


MALFORMED_ENTRIES = {
    "non-object": (
        lambda e: e.__setitem__(1, 5),
        "payoffs[1] must be an object",
    ),
    "unknown-field": (
        _set(1, "extra", 1),
        "payoffs[1]: unknown field 'extra'",
    ),
    "missing-field": (
        lambda e: e[1].pop("values"),
        "payoffs[1]: missing field 'values'",
    ),
    "non-string-state": (_set(1, "state", 1), "payoffs[1].state must be a string"),
    "unknown-state": (_set(1, "state", "v"), "payoffs[1]: unknown state 'v'"),
    "profile-not-list": (
        _set(1, "profile", "HT"),
        "payoffs[1].profile must be an array",
    ),
    "profile-length": (
        _set(1, "profile", ["H"]),
        "payoffs[1].profile must list 2 actions",
    ),
    "non-string-label": (
        _set(1, "profile", ["H", 2]),
        "payoffs[1].profile[1] must be a string",
    ),
    "unknown-action": (
        _set(1, "profile", ["H", "X"]),
        "payoffs[1]: action 'X' not in player 2's action set",
    ),
    "values-not-list": (
        _set(1, "values", 1.0),
        "payoffs[1].values must be an array",
    ),
    "values-length": (
        _set(1, "values", [1.0]),
        "payoffs[1].values must list 2 numbers",
    ),
    "bool-value": (
        _set(1, "values", [True, 1.0]),
        "payoffs[1].values[0] must be a number",
    ),
    "string-value": (
        _set(1, "values", [-1.0, "1"]),
        "payoffs[1].values[1] must be a number",
    ),
    "huge-value": (
        _set(1, "values", [10**400, 1.0]),
        "payoffs[1].values[0] is too large to be a float",
    ),
    "duplicate": (
        _repeat_then(None),
        "payoffs[2]: duplicate payoff entry for ('w', ('H', 'T'))",
    ),
    "duplicate-before-bad": (
        _repeat_then(_set(3, "values", [True, 1.0])),
        "payoffs[2]: duplicate payoff entry for ('w', ('H', 'T'))",
    ),
    "incomplete": (
        lambda e: e.pop(),
        "invalid game: payoff tensor has 3 entries, expected 4; "
        "payoff tensor misses the entry at ('w', ('T', 'T'))",
    ),
}


def _types_case(edit):
    doc = json.loads(json.dumps(TYPES_GAME))
    edit(doc)
    return doc


def _types_set(path, value):
    def edit(doc):
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value

    return edit


MALFORMED_TYPES = {
    "empty-types": (_types_set(("types", 1), []), "types[1] must be nonempty"),
    "non-string-type": (
        _types_set(("types", 0, 1), 2),
        "types[0][1] must be a string",
    ),
    "duplicate-type": (
        _types_set(("types", 0), ["t1", "t1"]),
        "types[0]: duplicate type 't1'",
    ),
    "empty-actions": (
        _types_set(("actions", 0), []),
        "actions[0] must be nonempty",
    ),
    "non-string-action": (
        _types_set(("actions", 1, 0), None),
        "actions[1][0] must be a string",
    ),
    "duplicate-action": (
        _types_set(("actions", 1), ["U", "D", "U"]),
        "actions[1]: duplicate action 'U'",
    ),
    "values-not-list": (
        _types_set(("payoffs", 3, "values"), "1"),
        "payoffs[3].values must be an array",
    ),
    "short-values": (
        _types_set(("payoffs", 3, "values"), [1.0]),
        "payoffs[3].values must list 2 numbers",
    ),
    "string-value": (
        _types_set(("payoffs", 3, "values"), [1.0, "0"]),
        "payoffs[3].values[1] must be a number",
    ),
    # With actions declared, an entry outside them would never be read.
    "undeclared-action": (
        lambda doc: doc["payoffs"].append(
            {"types": ["t1", "s1"], "profile": ["Z", "U"], "values": [0.0, 0.0]}
        ),
        "payoffs[8]: action 'Z' not in player 1's action set",
    ),
}


def _states_case(edit):
    doc = json.loads(json.dumps(ANCHOR_GAME))
    edit(doc)
    return doc


MALFORMED_STATES = {
    "bool-prob": (
        _types_set(("states", 1, "prob"), True),
        "states[1].prob must be a number",
    ),
    "huge-prob": (
        _types_set(("states", 1, "prob"), 10**400),
        "states[1].prob is too large to be a float",
    ),
    "duplicate-id": (
        _types_set(("states", 1, "id"), "w1"),
        "states[1]: duplicate state id 'w1'",
    ),
    "missing-field": (
        lambda doc: doc["states"][1].pop("prob"),
        "states[1]: missing field 'prob'",
    ),
    "extra-field": (
        _types_set(("states", 0, "extra"), 1),
        "states[0]: unknown field 'extra'",
    ),
    "non-string-atom": (
        _types_set(("partitions", "2", "w2"), 7),
        "partitions.2.w2 must be a string",
    ),
}


class TestInputRejection:
    @pytest.mark.parametrize(
        "edit, message",
        list(MALFORMED_STATES.values()),
        ids=list(MALFORMED_STATES),
    )
    def test_malformed_states_and_partitions(self, edit, message, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", _states_case(edit))
        code = main(["solve", "--game", path, "--epsilon", "0.05"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        list(MALFORMED_TYPES.values()),
        ids=list(MALFORMED_TYPES),
    )
    def test_malformed_types_game(self, edit, message, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", _types_case(edit))
        code = main(["solve", "--game", path, "--epsilon", "0.05"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        list(MALFORMED_ENTRIES.values()),
        ids=list(MALFORMED_ENTRIES),
    )
    def test_malformed_payoff_entry(self, edit, message, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", _entry_case(edit))
        code = main(["solve", "--game", path, "--epsilon", "0.05"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unknown_field(self, tmp_path, capsys):
        doc = dict(MP_GAME)
        doc["extra"] = 1
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["solve", "--game", path, "--epsilon", "0.05"]) == 1
        assert "unknown field" in capsys.readouterr().err

    def test_wrong_version(self, tmp_path, capsys):
        doc = dict(MP_GAME)
        doc["version"] = 2
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["solve", "--game", path, "--epsilon", "0.05"]) == 1
        assert "version" in capsys.readouterr().err

    def test_unknown_mode(self, tmp_path, capsys):
        doc = dict(MP_GAME)
        doc["mode"] = "quantum"
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["solve", "--game", path, "--epsilon", "0.05"]) == 1

    def test_duplicate_state(self, tmp_path, capsys):
        doc = dict(MP_GAME)
        doc["states"] = [{"id": "w", "prob": 0.5}, {"id": "w", "prob": 0.5}]
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["solve", "--game", path, "--epsilon", "0.05"]) == 1
        assert "duplicate state" in capsys.readouterr().err

    def test_incomplete_payoffs(self, tmp_path, capsys):
        doc = dict(MP_GAME)
        doc["payoffs"] = MP_GAME["payoffs"][:3]
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["solve", "--game", path, "--epsilon", "0.05"]) == 1
        assert "payoff" in capsys.readouterr().err

    def test_invalid_prior_sum(self, tmp_path, capsys):
        doc = dict(MP_GAME)
        doc["states"] = [{"id": "w", "prob": 0.7}]
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["solve", "--game", path, "--epsilon", "0.05"]) == 1
        assert "sums to" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "hierarchy", "verify"])
    @pytest.mark.parametrize("label", ["prior", "player 1 prior"])
    def test_overflowing_prior_sum(self, label, command, tmp_path, capsys):
        # Each mass is finite; only their sum overflows.
        doc = json.loads(json.dumps(ANCHOR_GAME))
        huge = {"w1": 1e308, "w2": 1e308}
        if label == "prior":
            doc["states"] = [{"id": s, "prob": p} for s, p in huge.items()]
        else:
            doc["player_priors"] = {"1": huge, "2": {"w1": 0.5, "w2": 0.5}}
        argv = [command, "--game", write_json(tmp_path / "game.json", doc)]
        if command == "hierarchy":
            argv += ["--delta", "0.1"]
        else:
            argv += ["--epsilon", "0.05"]
        if command == "verify":
            argv += ["--profile", write_json(tmp_path / "eq.json", ANCHOR_EQUILIBRIUM)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"invalid game: {label} sums to inf" in captured.err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--game", str(path), "--epsilon", "0.05"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_number_in_game_file(self, token, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(ANCHOR_GAME).replace("2.0", token, 1))
        assert main(["solve", "--game", str(path), "--epsilon", "0.05"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"{token} is not a JSON number" in captured.err

    def test_non_standard_number_in_profile_file(
        self, anchor_path, tmp_path, capsys
    ):
        doc = json.loads(json.dumps(ANCHOR_EQUILIBRIUM))
        doc["strategies"]["2"]["b"]["R"] = math.nan
        profile_path = write_json(tmp_path / "nan.json", doc)
        code = main(
            [
                "verify",
                "--game",
                anchor_path,
                "--profile",
                profile_path,
                "--epsilon",
                "0.05",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "NaN is not a JSON number" in captured.err

    def test_bad_profile_field_level(self, anchor_path, tmp_path, capsys):
        doc = dict(ANCHOR_EQUILIBRIUM)
        doc["field_level"] = "weird"
        path = write_json(tmp_path / "bad.json", doc)
        code = main(
            [
                "verify",
                "--game",
                anchor_path,
                "--profile",
                str(path),
                "--epsilon",
                "0.1",
            ]
        )
        assert code == 1

    def test_missing_game_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["solve", "--game", missing, "--epsilon", "0.05"]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_out_path(self, mp_path, tmp_path, capsys):
        out = str(tmp_path / "no_dir" / "report.json")
        code = main(
            ["solve", "--game", mp_path, "--epsilon", "0.05", "--out", out]
        )
        assert code == 3

    def test_usage_error_exits_one(self, mp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--game", mp_path])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


def _command(command: str, game: str, profile: str) -> list[str]:
    """``command``'s arguments for ``game``, reading ``profile`` too for
    ``verify``."""
    if command == "hierarchy":
        return ["hierarchy", "--game", game, "--delta", "0.1"]
    argv = [command, "--game", game, "--epsilon", "0.05"]
    return argv + ["--profile", profile] if command == "verify" else argv


def _latin1(doc: dict, word: str) -> bytes:
    """``doc`` as JSON with ``word`` spelled "w\xe9" in Latin-1, not UTF-8."""
    return json.dumps(doc).replace(f'"{word}"', '"w\xe9"').encode("latin-1")


def _deep(doc: dict, field: str) -> bytes:
    """``doc`` as JSON with ``field`` nested 5,000 arrays deep."""
    head = json.dumps({k: v for k, v in doc.items() if k != field})[:-1]
    return f'{head}, "{field}": {"[" * 5000}{"]" * 5000}}}'.encode()


class TestUnreadableText:
    # Files that are not UTF-8, nest deeper than the recursion limit or
    # hold a lone surrogate (valid JSON, not Unicode text) exit 1 with an
    # error line, no traceback and nothing on stdout.
    COMMANDS = ["solve", "verify", "hierarchy"]

    def refused(self, argv, capsys, message: str) -> None:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert message in captured.err

    @pytest.mark.parametrize("bad", ["not utf-8", "nested too deep"])
    @pytest.mark.parametrize(
        "command, file", [(c, "game") for c in COMMANDS] + [("verify", "profile")]
    )
    def test_unreadable_file(self, command, file, bad, tmp_path, capsys):
        doc = ANCHOR_GAME if file == "game" else ANCHOR_EQUILIBRIUM
        if bad == "not utf-8":
            data = _latin1(doc, "w1" if file == "game" else "a1")
            message = "not valid JSON: 'utf-8' codec can't decode byte 0xe9"
        else:
            data = _deep(doc, "states" if file == "game" else "strategies")
            message = "not valid JSON: maximum recursion depth exceeded"
        paths = {
            "game": write_json(tmp_path / "game.json", ANCHOR_GAME),
            "profile": write_json(tmp_path / "eq.json", ANCHOR_EQUILIBRIUM),
        }
        (tmp_path / f"bad-{file}.json").write_bytes(data)
        paths[file] = str(tmp_path / f"bad-{file}.json")
        self.refused(_command(command, *paths.values()), capsys, message)

    @pytest.mark.parametrize("out", [False, True])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("where", ["states[0].id", "partitions.1.w2"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_lone_surrogate(self, command, where, fmt, out, tmp_path, capsys):
        doc = json.loads(json.dumps(ANCHOR_GAME))
        if where == "states[0].id":
            text = json.dumps(doc).replace('"w1"', '"\\ud800"')
        else:
            doc["partitions"]["1"]["w2"] = "\ud800"
            text = json.dumps(doc)
        game = tmp_path / "game.json"
        game.write_text(text)
        profile = write_json(tmp_path / "eq.json", ANCHOR_EQUILIBRIUM)
        argv = _command(command, str(game), profile) + ["--format", fmt]
        report = tmp_path / "report.txt"
        if out:
            argv += ["--out", str(report)]
        self.refused(argv, capsys, f"error: {where} holds a lone surrogate")
        assert not report.exists()


class TestEntryPoint:
    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, nestnash; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self, tmp_path):
        path = write_json(tmp_path / "mp.json", MP_GAME)
        proc = subprocess.run(
            [sys.executable, "-m", "nestnash", "solve", "--game", path,
             "--epsilon", "0.05"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["regret"]["passed"] is True


# Every key path of each report at the pinned version.  ``[]`` stands for
# the items of a list and ``*`` for keys that are data: states, players,
# atoms and actions.  A schema change bumps REPORT_VERSION and re-pins.
PINNED_VERSION = 3

DATA_KEYED = {
    "ingestion.prior",
    "hierarchy.atoms",
    "regret.harsanyi",
    "hat_regret.harsanyi",
} | {
    f"{name}.strategies{tail}"
    for name in ("profile", "coarse_profile")
    for tail in ("", ".*", ".*.*")
}


def key_paths(doc, prefix="") -> set[str]:
    paths = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            name = "*" if prefix in DATA_KEYED else key
            path = f"{prefix}.{name}" if prefix else name
            paths.add(path)
            paths |= key_paths(value, path)
    elif isinstance(doc, list):
        for item in doc:
            paths |= key_paths(item, prefix + "[]")
    return paths


def _paths(text: str) -> set[str]:
    return set(text.split())


def _regret_paths(block: str) -> set[str]:
    return {block} | {
        block + tail
        for tail in _paths(
            """
            .epsilon .slack .max_regret .passed .harsanyi .harsanyi.*
            .witness .witness.player .witness.atom .witness.action
            .atoms .atoms[].player .atoms[].atom .atoms[].mass
            .atoms[].regret .atoms[].best_value .atoms[].current_value
            """
        )
    }


def _profile_paths(block: str) -> set[str]:
    return {block} | {
        block + tail
        for tail in _paths(
            """
            .version .field_level .strategies .strategies.*
            .strategies.*.* .strategies.*.*.*
            """
        )
    }


_CONSTANTS = _paths(
    "constants constants.payoff_bound constants.players constants.states"
)
_INGESTION = _paths("ingestion ingestion.prior ingestion.prior.* ingestion.payoff_values")
_HIERARCHY = _paths(
    """
    hierarchy hierarchy.delta hierarchy.payoff_classes hierarchy.ok
    hierarchy.levels hierarchy.levels[].player hierarchy.levels[].signals
    hierarchy.levels[].beliefs hierarchy.levels[].max_l1_gap
    hierarchy.atoms hierarchy.atoms.* hierarchy.atoms.*.original
    hierarchy.atoms.*.coarse hierarchy.checks hierarchy.checks[].name
    hierarchy.checks[].player hierarchy.checks[].ok
    """
)
_SOLVE = (
    _paths(
        """
        config config.command config.mode config.epsilon config.delta
        config.solver_target config.seed config.format_version
        constants.action_profiles
        solver solver.method solver.iterations solver.restarts
        solver.converged solver.coarse_regret
        transfer transfer.delta transfer.coarse_regret transfer.bound
        transfer.measured_max_regret transfer.within_bound
        """
    )
    | _CONSTANTS
    | _HIERARCHY
    | _profile_paths("profile")
)

REPORT_KEYS = {
    "solve-finite": _SOLVE
    | _INGESTION
    | _profile_paths("coarse_profile")
    | _regret_paths("regret"),
    "solve-continuous": _SOLVE
    | _regret_paths("hat_regret")
    | _paths(
        """
        discretization discretization.epsilon discretization.eta0
        discretization.lipschitz discretization.payoff_bound
        discretization.net_sizes discretization.truncation
        discretization.truncation.kept discretization.truncation.dropped
        discretization.truncation.kept_mass discretization.truncation.tail_out
        discretization.gap_certificate discretization.gap_certificate.budget
        discretization.gap_certificate.ok discretization.gap_certificate.players
        discretization.gap_certificate.players[].player
        discretization.gap_certificate.players[].rounding
        discretization.gap_certificate.players[].net
        discretization.gap_certificate.players[].tail_out
        discretization.gap_certificate.players[].total
        probe_audit probe_audit.budget probe_audit.max_regret probe_audit.ok
        probe_audit.players probe_audit.players[].player
        probe_audit.players[].regret
        box_certificate box_certificate.budget box_certificate.spacing
        box_certificate.covering box_certificate.max_regret box_certificate.ok
        box_certificate.meshes box_certificate.players
        box_certificate.players[].player box_certificate.players[].bayesian
        box_certificate.players[].harsanyi
        """
    ),
    "hierarchy": _paths(
        "config config.command config.mode config.delta config.format_version"
    )
    | _CONSTANTS
    | _INGESTION
    | _HIERARCHY,
    "verify": _paths(
        "config config.command config.mode config.epsilon config.format_version"
    )
    | _CONSTANTS
    | _INGESTION
    | _regret_paths("regret"),
}


def report_argv(report: str, tmp_path) -> list[str]:
    """The command line that writes each kind of report on a small game."""
    anchor = write_json(tmp_path / "anchor.json", ANCHOR_GAME)
    return {
        "solve-finite": ["solve", "--game", anchor, "--epsilon", "0.05"],
        "solve-continuous": [
            "solve",
            "--game",
            write_json(tmp_path / "cont.json", CONTINUOUS_GAME),
            "--epsilon",
            "0.1",
        ],
        "hierarchy": ["hierarchy", "--game", anchor, "--delta", "0.2"],
        "verify": [
            "verify",
            "--game",
            anchor,
            "--profile",
            write_json(tmp_path / "eq.json", ANCHOR_EQUILIBRIUM),
            "--epsilon",
            "0.05",
        ],
    }[report]


class TestReportSchema:
    @pytest.mark.parametrize("report", sorted(REPORT_KEYS))
    def test_key_sets_are_pinned_to_the_report_version(
        self, report, tmp_path, capsys
    ):
        assert main(report_argv(report, tmp_path)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert REPORT_VERSION == PINNED_VERSION
        assert doc["config"]["format_version"] == REPORT_VERSION
        assert key_paths(doc) == REPORT_KEYS[report]


class TestCsvReports:
    @pytest.mark.parametrize("report", sorted(REPORT_KEYS))
    def test_csv_builds_no_json_only_block(
        self, report, tmp_path, capsys, monkeypatch
    ):
        """The ingestion echo, the profiles and the gap certificate appear
        only in the JSON report, so CSV output never builds them."""
        calls = []

        def counted(name):
            original = getattr(nestnash.cli, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(nestnash.cli, name, wrapper)

        for name in ("_ingestion_block", "profile_to_json", "certify_sup_gap"):
            counted(name)
        argv = report_argv(report, tmp_path)
        assert main(argv + ["--format", "csv"]) == 0
        assert calls == []
        # The same counters do see the JSON report build them.
        assert main(argv) == 0
        assert calls


# Each subcommand's ``--help`` at 80 columns, as the parser formats it.
HELP = {
    "solve": (
        "usage: nestnash solve [-h] --game GAME --epsilon EPSILON [--delta DELTA]\n"
        "                      [--solver-regret SOLVER_REGRET] [--seed SEED]\n"
        "                      [--out OUT] [--format {json,csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --game GAME           game file (JSON)\n"
        "  --epsilon EPSILON     target regret bound\n"
        "  --delta DELTA         belief accuracy (default: epsilon / (2 M |A|))\n"
        "  --solver-regret SOLVER_REGRET\n"
        "                        regret target for the auxiliary solve (default:\n"
        "                        epsilon / 2)\n"
        "  --seed SEED           solver RNG seed\n"
        "  --out OUT             write the report here\n"
        "  --format {json,csv}   report format\n"
    ),
    "verify": (
        "usage: nestnash verify [-h] --game GAME --profile PROFILE --epsilon EPSILON\n"
        "                       [--out OUT] [--format {json,csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --game GAME          game file (JSON)\n"
        "  --profile PROFILE    profile file (JSON)\n"
        "  --epsilon EPSILON    regret bound to certify\n"
        "  --out OUT            write the report here\n"
        "  --format {json,csv}  report format\n"
    ),
    "hierarchy": (
        "usage: nestnash hierarchy [-h] --game GAME --delta DELTA [--out OUT]\n"
        "                          [--format {json,csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --game GAME          game file (JSON)\n"
        "  --delta DELTA        belief accuracy\n"
        "  --out OUT            write the report here\n"
        "  --format {json,csv}  report format\n"
    ),
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_subcommand_help_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == HELP[command]
