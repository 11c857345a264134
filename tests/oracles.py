"""Plain oracles for the paper's claims, independent of the library's
evaluator.

Each oracle walks the game's per-state dicts one state at a time and
sums with ``math.fsum``: ``brute_force_check`` recomputes every atom's
regret by enumerating deviations, ``ref_hierarchy`` rebuilds the belief
hierarchy, and ``ref_expectation_gap`` and ``ref_coarse_gap`` measure how
far conditioning on belief centres moves an expectation and each own
action's value.  They import only public ``nestnash`` names and number
payoff classes themselves (``ref_classes``), so no result here passes
through the certifier, the hierarchy builder or the payoff checksums
they are compared with.
"""

import itertools
import math

from nestnash import GameFormatError


def ref_classes(game):
    """Each state's payoff class in state order: its payoff row (every
    player's payoff at every profile) after ``+ 0.0``, numbered by first
    appearance."""
    profiles = list(game.payoffs.profiles())
    numbers = {}
    out = []
    for s in game.space.states:
        row = tuple(
            v + 0.0 for prof in profiles for v in game.payoffs.values[s, prof]
        )
        out.append(numbers.setdefault(row, len(numbers)))
    return out


def ref_l1(p, q):
    return math.fsum(
        [abs(w - q.get(z, 0.0)) for z, w in p.items()]
        + [w for z, w in q.items() if z not in p]
    )


def ref_hierarchy(game, delta):
    """Every field of the hierarchy, by per-state walks: per level the
    signal support, each state's signal, the centres, each state's and
    each atom's belief and the largest gap, then the coarse partitions
    and keys.  Every centre is scanned, which matches the signal-sharing scan
    for delta below 2 up to gaps near 2, and delta above 2."""
    states = game.space.states
    priors = [game.prior_for(i) for i in range(1, game.n + 1)]
    live = {s for s in states if any(p[s] > 0.0 for p in priors)}
    observable = dict(zip(states, [(k,) for k in ref_classes(game)]))
    levels, beliefs = [], []
    for i, prior in enumerate(priors, start=1):
        support = list(dict.fromkeys(observable[s] for s in states if s in live))
        index = {z: k for k, z in enumerate(support)}
        signal_of = {s: index[observable[s]] if s in live else -1 for s in states}
        centres, atom_belief, max_gap = [], {}, 0.0
        for atom, members in game.partition_for(i).atoms.items():
            mass = math.fsum(prior[s] for s in members)
            belief = {0: 1.0}
            if mass > 0.0:
                buckets = {}
                for s in members:
                    if prior[s] > 0.0:
                        buckets.setdefault(signal_of[s], []).append(prior[s])
                belief = {z: math.fsum(ws) / mass for z, ws in buckets.items()}
            for c, centre in enumerate(centres):
                gap = ref_l1(belief, centre)
                if gap < delta:
                    break
            else:
                c, gap = len(centres), 0.0
                centres.append(belief)
            max_gap = max(max_gap, gap)
            atom_belief[atom] = c
        atom_of = game.partition_for(i).atom_of
        belief_of = {s: atom_belief[atom_of[s]] for s in states}
        beliefs.append(belief_of)
        levels.append((support, signal_of, centres, belief_of, atom_belief, max_gap))
        observable = {
            s: observable[s][:-1] + (belief_of[s], observable[s][-1]) for s in states
        }
    coarse, keys = [], []
    for i in range(1, game.n + 1):
        tuples = {s: tuple(b[s] for b in beliefs[i - 1 :]) for s in states}
        ids = {key: k for k, key in enumerate(dict.fromkeys(tuples.values()))}
        own = game.partition_for(i).atom_of
        if len(ids) == len(set(own.values())):
            # Nothing merges: the player keeps their own partition.
            coarse.append(dict(own))
            keys.append({tuples[s]: own[s] for s in states})
        else:
            coarse.append({s: ids[tuples[s]] for s in states})
            keys.append(ids)
    return levels, coarse, keys


def ref_expectation_gap(game, ref, player, f):
    """The largest gap, over the player's positive-mass atoms, between
    the exact conditional expectation of ``f`` (a map from each signal
    support value to a float) and its expectation under the atom's
    belief centre, by a walk over ``ref``, ``ref_hierarchy(game, delta)``."""
    levels, _, _ = ref
    support, signal_of, centres, _, atom_belief, _ = levels[player - 1]
    prior = game.prior_for(player)
    worst = 0.0
    for atom, members in game.partition_for(player).atoms.items():
        mass = math.fsum(prior[s] for s in members)
        if mass <= 0.0:
            continue
        exact = math.fsum(
            prior[s] * f[support[signal_of[s]]] for s in members if prior[s] > 0.0
        )
        centre = centres[atom_belief[atom]]
        approx = math.fsum(w * f[support[z]] for z, w in centre.items())
        worst = max(worst, abs(exact / mass - approx))
    return worst


def ref_coarse_gap(game, ref, profile, player):
    """The largest gap, over the player's positive-mass atoms and own
    actions, between an action's exact conditional value against a
    coarse-level profile and its reconstruction from the atom's belief
    centre, by plain loops over ``ref``, ``ref_hierarchy(game, delta)``.

    Every value is the fsum of p * u over the others' joint actions, p
    their probabilities multiplied left to right in player order.  The
    reconstruction weighs, per signal of the centre, the payoff of the
    signal's class against the others' play on the coarse atoms the
    signal and the player's own belief tuple induce; where no state
    realizes those, the other plays uniformly."""
    levels, coarse, keys = ref
    states = game.space.states
    others = [j for j in range(1, game.n + 1) if j != player]
    support, _, centres, _, _, _ = levels[player - 1]
    beliefs = [level[3] for level in levels]
    reps = {}
    for s, k in zip(states, ref_classes(game)):
        reps.setdefault(k, s)

    def value(s, a, dists):
        terms = []
        for prof in itertools.product(*(game.actions_for(j) for j in others)):
            p = dists[0].get(prof[0], 0.0)
            for d, b in zip(dists[1:], prof[1:]):
                p *= d.get(b, 0.0)
            full = prof[: player - 1] + (a,) + prof[player - 1 :]
            terms.append(p * game.payoffs.values[s, full][player - 1])
        return math.fsum(terms)

    def played(j, s):
        return profile.strategies[j][coarse[j - 1][s]]

    def uniform(j):
        return dict.fromkeys(game.actions_for(j), 1.0 / len(game.actions_for(j)))

    prior = game.prior_for(player)
    worst = 0.0
    for members in game.partition_for(player).atoms.values():
        mass = math.fsum(prior[s] for s in members)
        if mass <= 0.0:
            continue
        tail = tuple(b[members[0]] for b in beliefs[player - 1 :])
        centre = centres[tail[0]]
        for a in game.actions_for(player):
            exact = math.fsum(
                prior[s] * value(s, a, [played(j, s) for j in others])
                for s in members
                if prior[s] > 0.0
            )
            terms = []
            for z, w in centre.items():
                key = support[z][:-1] + tail
                dists = []
                for j in others:
                    atom = keys[j - 1].get(key[j - 1 :])
                    dists.append(
                        uniform(j) if atom is None else profile.strategies[j][atom]
                    )
                terms.append(w * value(reps[support[z][-1]], a, dists))
            worst = max(worst, abs(exact / mass - math.fsum(terms)))
    return worst


def _naive_conditional_value(game, strategies, player, members, mass):
    """Deliberately plain full-product evaluation, independent of the
    factorized path used by bayesian_regret."""
    prior = game.prior_for(player)
    total = []
    for s in members:
        w = prior[s]
        if w <= 0.0:
            continue
        dists = [
            strategies[j][game.partitions[j - 1].atom_of[s]]
            for j in range(1, game.n + 1)
        ]
        for prof in game.payoffs.profiles():
            p = w
            for j, a in enumerate(prof):
                p *= dists[j].get(a, 0.0)
                if p == 0.0:
                    break
            if p != 0.0:
                total.append(p * game.payoffs.values[(s, prof)][player - 1])
    return math.fsum(total) / mass


def brute_force_check(game, profile, mixed_resolution=None, max_evaluations=10**6):
    """Independent regret recomputation by enumerating deviations.

    Enumerates per-atom pure deviations, which suffice because payoffs
    are linear in each atom's own distribution.  When ``mixed_resolution``
    is given, every mixed deviation whose probabilities are multiples of
    1 / ``mixed_resolution`` is scanned as well, confirming the linearity
    shortcut on small instances.  Refuses to run past ``max_evaluations``
    deviations.
    """
    count = 0
    plans = []
    for i in range(1, game.n + 1):
        prior = game.prior_for(i)
        for atom, members in game.partition_for(i).atoms.items():
            if math.fsum(prior[s] for s in members) <= 0.0:
                continue
            actions = game.actions_for(i)
            devs = [{a: 1.0} for a in actions]
            if mixed_resolution is not None and len(actions) > 1:
                for nums in _compositions(mixed_resolution, len(actions)):
                    devs.append(
                        {
                            a: n / mixed_resolution
                            for a, n in zip(actions, nums)
                            if n > 0
                        }
                    )
            count += len(devs)
            if count > max_evaluations:
                raise GameFormatError(
                    f"brute force would exceed {max_evaluations} evaluations"
                )
            plans.append((i, atom, devs))

    out = {}
    for i, atom, devs in plans:
        prior = game.prior_for(i)
        members = game.partition_for(i).atoms[atom]
        mass = math.fsum(prior[s] for s in members)
        base = _naive_conditional_value(game, profile.strategies, i, members, mass)
        best = base
        for dev in devs:
            modified = {
                j: dict(strats) for j, strats in profile.strategies.items()
            }
            modified[i][atom] = dev
            best = max(
                best, _naive_conditional_value(game, modified, i, members, mass)
            )
        out[(i, atom)] = best - base
    return out


def _compositions(total, parts):
    """All integer compositions of ``total`` into ``parts`` nonnegative parts."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
