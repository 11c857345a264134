"""Every verdict at its edge: the pass rule and the negative-regret floor.

A verdict passes a value v against a bound b when v <= b + CERT_SLACK in
floats.  Each test fixes the value and picks two bounds (``bound_at``):
one where v is exactly b + CERT_SLACK, which must pass, and one where v
is the next float above b + CERT_SLACK, which must fail.  The floor
raises on a regret below -CERT_SLACK and not on -CERT_SLACK itself.

Every mass vector (the common prior, a player prior, a type-space joint
and a played distribution, through ``validate_profile`` and
``certify``) takes one rule: each entry finite and >= 0, and a sum
within MASS_TOL of 1.  No float sum is exactly MASS_TOL from 1 (near 1,
t - 1.0 is a multiple of 2**-53 and MASS_TOL is not), so
``TestMassRule`` gives each caller the two sums farthest from 1 that
pass and -0.0 and 5e-324 entries, which must pass, then the next sums
outward and -5e-324, NaN and infinite entries, which must fail.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import nestnash.discretize
import nestnash.regret
from nestnash import cli
from nestnash.discretize import (
    CompactGameSpec,
    build_hat_game,
    certify_box,
    certify_sup_gap,
    probe_harsanyi_regret,
)
from nestnash.game import (
    MASS_TOL,
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    from_type_space,
    validate_game,
    validate_profile,
)
from nestnash.regret import (
    CERT_SLACK,
    ConsistencyError,
    bayesian_regret,
    certify,
    regret_report,
)
from nestnash.solver import SolveResult
from test_cli import MP_GAME, write_json


def bound_at(edge: float) -> float:
    """A bound b whose b + CERT_SLACK is ``edge`` in floats."""
    b = edge - CERT_SLACK
    while b + CERT_SLACK < edge:
        b = math.nextafter(b, math.inf)
    while b + CERT_SLACK > edge:
        b = math.nextafter(b, -math.inf)
    assert b + CERT_SLACK == edge
    return b


def assert_edge(passes, value: float) -> None:
    """``passes(bound)`` holds where ``value`` is bound + CERT_SLACK and
    fails where it is one float above."""
    assert value > 1e-6
    assert passes(bound_at(value))
    assert not passes(bound_at(math.nextafter(value, -math.inf)))


def all_left(game) -> StrategyProfile:
    return StrategyProfile(
        strategies={
            i: {atom: {"L": 1.0} for atom in game.partition_for(i).atoms}
            for i in (1, 2)
        }
    )


def linear_spec() -> CompactGameSpec:
    """One state; each player's payoff is their own coordinate."""
    return CompactGameSpec(
        space=StateSpace(states=("w",), prior={"w": 1.0}),
        partitions=(
            InformationPartition(player=1, atom_of={"w": "a"}),
            InformationPartition(player=2, atom_of={"w": "b"}),
        ),
        box_dims=(1, 1),
        payoffs={("w", 1): ((1.0, (1, 0)),), ("w", 2): ((1.0, (0, 1)),)},
        lipschitz=1.0,
    )


def half_profile() -> StrategyProfile:
    # Player 1 plays 0.5 where 1.0 is worth 0.5 more.
    return StrategyProfile(
        strategies={1: {"a": {(0.5,): 1.0}}, 2: {"b": {(1.0,): 1.0}}}
    )


class TestPassRule:
    def test_certificate_passed(self, informed_anchor):
        table = bayesian_regret(informed_anchor, all_left(informed_anchor))
        value = regret_report(table, 1.0).max_regret
        assert value == 2.0
        assert_edge(lambda b: regret_report(table, b).passed, value)

    def test_solver_converged(self, informed_anchor):
        profile = all_left(informed_anchor)
        table = bayesian_regret(informed_anchor, profile)

        def converged(bound: float) -> bool:
            report = regret_report(table, bound)
            result = SolveResult(
                profile=profile,
                report=report,
                iterations=0,
                restarts=0,
                method="predictive-rm+",
            )
            return result.converged

        assert_edge(converged, 2.0)

    def test_cli_within_bound(self, tmp_path, monkeypatch, capsys):
        path = write_json(tmp_path / "mp.json", MP_GAME)
        solve = cli.solve
        bound = []

        def at_bound(*args, **kwargs):
            sol = solve(*args, **kwargs)
            report = dataclasses.replace(sol.report, max_regret=0.25)
            return dataclasses.replace(sol, report=report, transfer_bound=bound[-1])

        monkeypatch.setattr(cli, "solve", at_bound)

        def within(b: float) -> bool:
            bound.append(b)
            cli.main(["solve", "--game", path, "--epsilon", "0.1"])
            return json.loads(capsys.readouterr().out)["transfer"]["within_bound"]

        assert_edge(within, 0.25)

    def test_gap_certificate_ok(self):
        gap = certify_sup_gap(build_hat_game(linear_spec(), 0.25))
        value = max(p.total for p in gap.players)
        assert_edge(lambda b: dataclasses.replace(gap, budget=b).ok, value)

    def test_probe_audit_ok(self):
        disc = build_hat_game(linear_spec(), 0.25)
        audit = probe_harsanyi_regret(disc, half_profile())
        assert audit.max_regret == pytest.approx(0.5)
        # The audit's budget is its certificate's epsilon.
        def ok(b: float) -> bool:
            certificate = dataclasses.replace(audit.certificate, epsilon=b)
            return dataclasses.replace(audit, certificate=certificate).ok

        assert_edge(ok, audit.max_regret)

    def test_box_certificate_ok(self):
        disc = build_hat_game(linear_spec(), 0.25)
        profile = half_profile()
        box = certify_box(disc, profile)
        assert_edge(lambda b: dataclasses.replace(box, epsilon=b).ok, box.max_regret)


class TestFloor:
    @pytest.mark.parametrize(
        "current, raises",
        [(CERT_SLACK, False), (math.nextafter(CERT_SLACK, math.inf), True)],
    )
    def test_bayesian_regret(self, informed_anchor, monkeypatch, current, raises):
        # Every action is worth 0 and the profile ``current``, so each
        # regret is exactly -current.
        def folded(support, by_state):
            table = np.zeros((len(support.ids), by_state.shape[1]))
            table[:, -1] = current
            return table

        monkeypatch.setattr(nestnash.regret, "_fold_atoms", folded)
        profile = all_left(informed_anchor)
        if raises:
            with pytest.raises(ConsistencyError, match="negative regret"):
                bayesian_regret(informed_anchor, profile)
        else:
            bayesian_regret(informed_anchor, profile)

    @pytest.mark.parametrize(
        "regret, raises",
        [(-CERT_SLACK, False), (math.nextafter(-CERT_SLACK, -math.inf), True)],
    )
    def test_certify_box(self, monkeypatch, regret, raises):
        # The probe audit ``certify_box`` runs raises player 1's current
        # value far above every box value, so the last rounding step of
        # their regret sees a negative number; it returns ``regret``
        # there.  Every other step rounds up as usual.
        disc = build_hat_game(linear_spec(), 0.25)
        profile = half_profile()

        def raised(disc, profile):
            audit = probe_harsanyi_regret(disc, profile)
            cert = audit.certificate
            first = dataclasses.replace(cert.players[1], current_value=(100.0,))
            cert = dataclasses.replace(cert, players={**cert.players, 1: first})
            return dataclasses.replace(audit, certificate=cert)

        def up(x: float) -> float:
            return regret if x < 0.0 else math.nextafter(x, math.inf)

        monkeypatch.setattr(nestnash.discretize, "probe_harsanyi_regret", raised)
        monkeypatch.setattr(nestnash.discretize, "_up", up)
        if raises:
            with pytest.raises(ConsistencyError, match="negative box regret"):
                certify_box(disc, profile)
        else:
            box = certify_box(disc, profile)
            assert box.players[0].bayesian == regret


def outermost_sum(outward: float) -> float:
    """The float t farthest from 1 towards ``outward`` whose distance
    t - 1.0 (exact in floats) is within MASS_TOL."""
    t = 1.0 + math.copysign(MASS_TOL, outward)
    while abs(t - 1.0) > MASS_TOL:
        t = math.nextafter(t, 1.0)
    while abs(math.nextafter(t, outward) - 1.0) <= MASS_TOL:
        t = math.nextafter(t, outward)
    return t


def split(total: float) -> list[float]:
    """Two masses whose sum is exactly ``total``, for total in [0.5, 2]."""
    return [0.5, total - 0.5]


HIGH, LOW = outermost_sum(math.inf), outermost_sum(-math.inf)
VALID = [split(HIGH), split(LOW), [1.0, -0.0], [1.0, 5e-324]]
INVALID = [
    split(math.nextafter(HIGH, math.inf)),
    split(math.nextafter(LOW, -math.inf)),
    [1.0, -5e-324],
    [1.0, math.nan],
    [1.0, math.inf],
    [1.0, -math.inf],
]
STATES = ("w0", "w1")


def two_state_game(prior: dict, player_priors: dict | None = None) -> NestedGame:
    """Player 1 sees the state, player 2 does not; both choose L or R."""
    return NestedGame(
        space=StateSpace(states=STATES, prior=prior, player_priors=player_priors),
        partitions=(
            InformationPartition(player=1, atom_of={"w0": "a0", "w1": "a1"}),
            InformationPartition(player=2, atom_of={"w0": "b", "w1": "b"}),
        ),
        payoffs=PayoffTensor.from_array(
            (("L", "R"), ("L", "R")),
            STATES,
            np.arange(16, dtype=float).reshape(2, 2, 2, 2),
        ),
    )


def player_two_plays(masses: list[float]) -> StrategyProfile:
    return StrategyProfile(
        strategies={
            1: {"a0": {"L": 1.0}, "a1": {"R": 1.0}},
            2: {"b": dict(zip(("L", "R"), masses))},
        }
    )


def accepts_common_prior(masses: list[float]) -> bool:
    return validate_game(two_state_game(dict(zip(STATES, masses)))).ok


def accepts_player_prior(masses: list[float]) -> bool:
    game = two_state_game({"w0": 0.5, "w1": 0.5}, {1: dict(zip(STATES, masses))})
    return validate_game(game).ok


def accepts_joint(masses: list[float]) -> bool:
    profiles = (("t1", "s"), ("t2", "s"))
    payoffs = {(tp, ("A", "A")): (0.0, 0.0) for tp in profiles}
    try:
        from_type_space(
            (("t1", "t2"), ("s",)),
            dict(zip(profiles, masses)),
            payoffs,
            actions=(("A",), ("A",)),
        )
    except GameFormatError:
        return False
    return True


def accepts_profile(masses: list[float]) -> bool:
    game = two_state_game({"w0": 0.5, "w1": 0.5})
    return validate_profile(game, player_two_plays(masses)) == []


def certifies(masses: list[float]) -> bool:
    game = two_state_game({"w0": 0.5, "w1": 0.5})
    try:
        certify(game, player_two_plays(masses), 1.0)
    except GameFormatError:
        return False
    return True


CALLERS = [
    accepts_common_prior,
    accepts_player_prior,
    accepts_joint,
    accepts_profile,
    certifies,
]


class TestMassRule:
    def test_edges_are_one_float_apart(self):
        assert HIGH > 1.0 > LOW
        for edge in (HIGH, LOW):
            assert sum(split(edge)) == edge
            assert abs(edge - 1.0) <= MASS_TOL
        for outside in INVALID[:2]:
            assert abs(math.fsum(outside) - 1.0) > MASS_TOL

    @pytest.mark.parametrize("accepts", CALLERS)
    @pytest.mark.parametrize("masses", VALID, ids=repr)
    def test_passes(self, accepts, masses):
        assert accepts(masses)

    @pytest.mark.parametrize("accepts", CALLERS)
    @pytest.mark.parametrize("masses", INVALID, ids=repr)
    def test_fails(self, accepts, masses):
        assert not accepts(masses)
