"""Top-level acceptance gates for the package.

Every test here audits one externally checkable promise, end to end and
at desk scale, against independent recomputation.  Each test prints a
single verdict line (visible with ``pytest -s`` and in failure output)
and then asserts it, so ``pytest -v`` shows one pass/fail line per gate.
The random corpus is fixed by explicit seeds; nothing here depends on
wall-clock state.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from generators import (
    exact_prior,
    noisy_redundant_game,
    random_compact_game,
    random_nested_game,
    random_profile,
)
from nestnash.cli import main
from nestnash.discretize import (
    build_hat_game,
    certify_sup_gap,
    floor_to_multiple,
    probe_harsanyi_regret,
)
from nestnash.game import (
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    expected_payoff,
)
from nestnash.hierarchy import build_hierarchy, check_properties, expectation_gap
from nestnash.pipeline import solve
from nestnash.regret import bayesian_regret, brute_force_check, certify

CORPUS_SEED = 20260819
CORPUS_SIZE = 100


def _verdict(number: int, name: str, ok: bool) -> bool:
    state = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number} ({name}): {state}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_nested_game(rng) for _ in range(CORPUS_SIZE)]


def run_pipeline(game, epsilon, seed=0):
    """The library pipeline's coarse result, lifted profile and transfer bound."""
    solution = solve(game, epsilon, seed=seed)
    return solution.result, solution.profile, solution.transfer_bound


def test_criterion_1_hierarchy_soundness(corpus):
    """Every belief lies strictly within delta of its centre at every
    level, and the structural audit passes, across the corpus and three
    deltas."""
    ok = True
    detail = ""
    for idx, game in enumerate(corpus):
        for delta in (0.2, 0.05, 0.01):
            hierarchy = build_hierarchy(game, delta)
            for level in hierarchy.levels:
                if not level.max_l1_gap < delta:
                    ok = False
                    detail = (
                        f"game {idx} delta {delta} player {level.player}: "
                        f"gap {level.max_l1_gap}"
                    )
            if not check_properties(game, hierarchy).ok:
                ok = False
                detail = f"game {idx} delta {delta}: structural audit failed"
    assert _verdict(1, "hierarchy soundness", ok), detail


def test_criterion_2_functional_gap(corpus):
    """Conditioning on belief centres moves the expectation of any
    bounded functional of the observable by less than bound * delta."""
    rng = np.random.default_rng(2)
    delta = 0.05
    ok = True
    detail = ""
    for idx, game in enumerate(corpus):
        hierarchy = build_hierarchy(game, delta)
        for _ in range(10):
            bound = float(rng.uniform(0.5, 3.0))
            for player in range(1, game.n + 1):
                level = hierarchy.level(player)
                f = {
                    z: float(rng.uniform(-bound, bound))
                    for z in level.signal_support
                }
                gap = expectation_gap(game, hierarchy, player, f, bound)
                if not gap < bound * delta + 1e-12:
                    ok = False
                    detail = f"game {idx} player {player}: gap {gap}"
    assert _verdict(2, "belief-centre expectation gap", ok), detail


def test_criterion_3_end_to_end_regret(corpus):
    """Full pipeline at epsilon = 0.05: the lifted profile's exact
    per-atom regret meets epsilon on at least 95 of 100 games, and the
    coarse-to-exact transfer bound holds on every converged run."""
    epsilon = 0.05
    within_epsilon = 0
    transfer_violations = 0
    unconverged = 0
    for idx, game in enumerate(corpus):
        result, lifted, transfer_bound = run_pipeline(game, epsilon, seed=idx)
        report = certify(game, lifted, epsilon=epsilon)
        if report.max_regret <= epsilon + 1e-9:
            within_epsilon += 1
        if result.converged:
            if report.max_regret > transfer_bound + 1e-9:
                transfer_violations += 1
        else:
            unconverged += 1
    ok = within_epsilon >= 95 and transfer_violations == 0
    print(
        f"  within epsilon: {within_epsilon}/{CORPUS_SIZE}, "
        f"unconverged: {unconverged}"
    )
    assert _verdict(3, "end-to-end regret transfer", ok), (
        f"within epsilon: {within_epsilon}/100, "
        f"transfer violations: {transfer_violations}, "
        f"unconverged: {unconverged}"
    )


# Corpus games that ran out the old solver's whole 32,000-iteration
# budget (4 restarts of regret matching plus smoothed best response)
# without reaching epsilon / 2.
FORMERLY_CAPPED = (13, 30, 33, 41, 44, 54, 73, 79)


def test_formerly_capped_games_converge_on_first_restart(corpus):
    """The hardest corpus games reach the coarse target epsilon / 2 on
    the first restart, within 2,000 iterations each."""
    epsilon = 0.05
    slow = []
    for idx in FORMERLY_CAPPED:
        result, _, _ = run_pipeline(corpus[idx], epsilon, seed=idx)
        if not (
            result.converged
            and result.certified_regret <= epsilon / 2.0 + 1e-9
            and result.restarts == 1
            and result.iterations <= 2000
        ):
            slow.append((idx, result.restarts, result.iterations))
    assert slow == [], f"(game, restarts, iterations) off target: {slow}"


# Most coarse atoms player 1 may keep at each relative prior noise level.
# Without noise the redundant family collapses to at most 16 atoms (4
# blocks x 4 belief types).
NOISY_ATOM_CAPS = {0.0: 16, 1e-5: 16, 1e-4: 16, 1e-3: 32}


def test_noisy_priors_keep_coarsening():
    """Beliefs moved by small prior noise still merge: on 2400-state
    redundant games at the default delta, player 1 keeps few coarse
    atoms, and the lifted profile certifies within the transfer bound."""
    off = []
    for seed in range(3):
        for nu, cap in NOISY_ATOM_CAPS.items():
            game = noisy_redundant_game(np.random.default_rng(seed), 2400, nu)
            solution = solve(game, 0.05)
            atoms = len(solution.hierarchy.coarse_partition(1).atoms)
            report = solution.report
            if not (
                atoms <= cap
                and report.passed
                and report.max_regret <= solution.transfer_bound
            ):
                off.append((seed, nu, atoms, report.max_regret))
    assert off == [], f"(seed, nu, player-1 coarse atoms, max regret): {off}"


def _grouping(rng, count: int, groups: int) -> list[int]:
    """Surjective labels [0, count) -> [0, groups)."""
    labels = [int(x) for x in rng.integers(0, groups, size=count)]
    slots = rng.choice(count, size=groups, replace=False)
    for g, slot in enumerate(slots):
        labels[int(slot)] = g
    return labels


def small_two_player_game(rng: np.random.Generator) -> NestedGame:
    """Two players, at most 3 atoms each and 3 actions, float payoffs."""
    s_count = int(rng.integers(2, 7))
    states = tuple(f"w{k}" for k in range(s_count))
    prior = exact_prior(rng.dirichlet(np.ones(s_count)), states)
    k1 = int(rng.integers(1, min(3, s_count) + 1))
    fine = _grouping(rng, s_count, k1)
    k2 = int(rng.integers(1, k1 + 1))
    merge = _grouping(rng, k1, k2)
    partitions = (
        InformationPartition(
            player=1, atom_of={s: f"f{fine[j]}" for j, s in enumerate(states)}
        ),
        InformationPartition(
            player=2,
            atom_of={s: f"c{merge[fine[j]]}" for j, s in enumerate(states)},
        ),
    )
    actions = tuple(
        tuple(f"a{i}x{j}" for j in range(2 + int(rng.integers(0, 2))))
        for i in (1, 2)
    )
    values = {
        (s, prof): (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        for s in states
        for prof in itertools.product(*actions)
    }
    return NestedGame(
        space=StateSpace(states=states, prior=prior),
        partitions=partitions,
        payoffs=PayoffTensor(actions=actions, values=values),
    )


def test_criterion_4_oracle_equivalence():
    """The factorized regret computation matches naive enumeration of
    pure deviations on 1000 random profiles over small 2-player games."""
    rng = np.random.default_rng(4)
    ok = True
    detail = ""
    for game_idx in range(50):
        game = small_two_player_game(rng)
        for profile_idx in range(20):
            profile = random_profile(rng, game)
            table = bayesian_regret(game, profile)
            brute = brute_force_check(game, profile)
            keys = {
                (i, atom) for i, entries in table.items() for atom in entries
            }
            if keys != set(brute):
                ok = False
                detail = f"game {game_idx}: atom sets differ"
                continue
            for (i, atom), expected in brute.items():
                got = table[i][atom].regret
                if abs(got - expected) > 1e-9:
                    ok = False
                    detail = (
                        f"game {game_idx} profile {profile_idx} "
                        f"player {i} atom {atom}: {got} vs {expected}"
                    )
    assert _verdict(4, "regret oracle equivalence", ok), detail


def test_criterion_5_known_equilibria(matching_pennies, informed_anchor):
    """Matching pennies lands on the uniform profile within the solver
    target; the hand-solved two-state zero-sum anchor (fixture docstring
    records the derivation, value 2/3) is reproduced within epsilon."""
    result, lifted, _ = run_pipeline(matching_pennies, epsilon=0.01)
    target = 0.005
    ok = result.converged
    for player in (1, 2):
        for atom in matching_pennies.partition_for(player).atoms:
            dist = lifted.distribution(player, atom)
            for action in ("H", "T"):
                if abs(dist.get(action, 0.0) - 0.5) > target:
                    ok = False

    epsilon = 0.05
    result, lifted, _ = run_pipeline(informed_anchor, epsilon=epsilon)
    value = expected_payoff(informed_anchor, lifted)[0]
    if not (result.converged and abs(value - 2.0 / 3.0) <= epsilon):
        ok = False
    if not certify(informed_anchor, lifted, epsilon=epsilon).passed:
        ok = False
    assert _verdict(5, "known equilibrium anchors", ok), f"anchor value {value}"


def test_criterion_6_compact_action_chain():
    """Discretize-then-solve on 20 random polynomial games: the sup-gap
    certificate terms respect their stated budgets and the probe audit
    of the lifted profile stays within 5 epsilon + L * eta0 / 2."""
    rng = np.random.default_rng(6)
    epsilon = 0.1
    ok = True
    detail = ""
    for idx in range(20):
        spec = random_compact_game(rng)
        disc = build_hat_game(spec, epsilon)
        cert = certify_sup_gap(disc)
        for gap in cert.players:
            if not (
                gap.rounding <= epsilon + 1e-9
                and gap.net <= epsilon + 1e-9
                and gap.tail_out <= epsilon / 2 + 1e-9
            ):
                ok = False
                detail = f"spec {idx}: gap terms out of budget: {gap}"
        if not cert.ok:
            ok = False
            detail = f"spec {idx}: sup-gap certificate failed"
        result, lifted, _ = run_pipeline(disc.game, epsilon, seed=idx)
        audit = probe_harsanyi_regret(disc, lifted)
        budget = 5.0 * epsilon + spec.lipschitz * disc.eta0 / 2.0
        if not (audit.ok and audit.max_regret <= budget + 1e-9):
            ok = False
            detail = (
                f"spec {idx}: probe regret {audit.max_regret} over {budget} "
                f"(converged: {result.converged})"
            )
    assert _verdict(6, "compact action certificates", ok), detail


def test_criterion_7_floor_window():
    """Payoff flooring is total and exact: value - floored lies in
    [0, step) as rationals, over 10^5 random (value, step) pairs."""
    rng = np.random.default_rng(7)
    values = rng.uniform(-10.0, 10.0, size=100_000)
    steps = 10.0 ** rng.uniform(-6.0, -0.3, size=100_000)
    ok = True
    detail = ""
    for z, step in zip(values.tolist(), steps.tolist()):
        g = floor_to_multiple(z, step, 10.0)
        diff = Fraction(z) - Fraction(g)
        if not (0 <= diff < Fraction(step)):
            ok = False
            detail = f"value {z!r} step {step!r} -> {g!r}"
            break
    assert _verdict(7, "payoff floor window", ok), detail


def game_to_doc(game: NestedGame) -> dict:
    players = range(1, game.n + 1)
    return {
        "version": 1,
        "mode": "finite",
        "states": [
            {"id": s, "prob": game.space.prior[s]} for s in game.space.states
        ],
        "partitions": {
            str(i): {
                s: game.partition_for(i).atom_of[s] for s in game.space.states
            }
            for i in players
        },
        "actions": {str(i): list(game.actions_for(i)) for i in players},
        "payoffs": [
            {
                "state": s,
                "profile": list(prof),
                "values": list(game.payoffs.values[(s, prof)]),
            }
            for s in game.space.states
            for prof in game.payoffs.profiles()
        ],
    }


def test_criterion_8_deterministic_reports(corpus, tmp_path):
    """Two CLI solves with identical inputs and seed emit byte-identical
    reports, including on a multi-player game off the exact-LP path."""
    game = next(
        (g for g in corpus if g.n == 3 and len(g.space.states) <= 50),
        corpus[0],
    )
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(game_to_doc(game)))
    outs = []
    for run in (1, 2):
        out = tmp_path / f"report{run}.json"
        code = main(
            [
                "solve",
                "--game",
                str(game_path),
                "--epsilon",
                "0.1",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code in (0, 2)
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    assert _verdict(8, "deterministic reports", ok)


def test_expected_payoff_math_is_fsum_stable():
    """Tiny guard: expected payoff of a known profile equals the hand
    value, so the acceptance pipeline's value checks mean something."""
    rng = np.random.default_rng(11)
    game = small_two_player_game(rng)
    profile = random_profile(rng, game)
    total = 0.0
    for s in game.space.states:
        p = game.space.prior[s]
        for prof in game.payoffs.profiles():
            w = p
            for j, a in enumerate(prof, start=1):
                w *= profile.distribution(
                    j, game.partition_for(j).atom_of[s]
                ).get(a, 0.0)
            total += w * game.payoffs.values[(s, prof)][0]
    assert expected_payoff(game, profile)[0] == pytest.approx(total, abs=1e-9)
