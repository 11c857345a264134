"""Certified discretization of games with compact box action spaces.

Payoffs are sparse polynomials in the concatenated action vector, one
polynomial per (state, player), with a declared global Lipschitz
constant under the max metric.  Discretization snaps each player's box
to a uniform grid and each payoff value down to a multiple of the
accuracy target, producing a finite game whose equilibria carry an
explicit sup-norm certificate back to the continuous game.

All rounding here is exact: grid coordinates are short dyadic-free
fractions j/(m-1) and payoff quantization is the ``fractions`` floor of
``floor_to_multiple`` (the grid game floors in numpy only where a
proven error bound shows the two agree), so the committed error window
[0, epsilon) holds as a statement about the produced floats, not about
ideal reals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .game import (
    Action,
    Atom,
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    State,
    StateSpace,
    StrategyProfile,
)

Monomial = tuple[float, tuple[int, ...]]
Poly = tuple[Monomial, ...]


@dataclass(frozen=True)
class CompactGameSpec:
    """Finite states, compact box actions, polynomial payoffs.

    ``box_dims[i-1]`` is the dimension of player i's action box
    [0, 1]^d.  Monomial exponents index the concatenation of all
    players' action coordinates in player order.  ``lipschitz`` is a
    declared bound on every payoff's variation per unit max-metric step
    of the joint action; it is checked against the coefficient-based
    bound at build time.
    """

    space: StateSpace
    partitions: tuple[InformationPartition, ...]
    box_dims: tuple[int, ...]
    payoffs: Mapping[tuple[State, int], Poly]
    lipschitz: float
    payoff_cap: float | None = None

    @property
    def n(self) -> int:
        return len(self.box_dims)

    def block_offset(self, player: int) -> int:
        return sum(self.box_dims[: player - 1])

    @property
    def total_dim(self) -> int:
        return sum(self.box_dims)


@dataclass(frozen=True)
class StateTruncation:
    omega_double_prime: tuple[State, ...]
    bound_m: float
    kept_mass: float
    tail_out: float


@dataclass(frozen=True)
class DiscretizedGame:
    game: NestedGame
    spec: CompactGameSpec
    epsilon: float
    eta0: float
    bound_m: float
    truncation: StateTruncation
    nets: tuple[tuple[tuple[float, ...], ...], ...]


@dataclass(frozen=True)
class PlayerGap:
    player: int
    rounding: float
    net: float
    tail_out: float
    total: float


@dataclass(frozen=True)
class GapCertificate:
    epsilon: float
    players: tuple[PlayerGap, ...]
    budget: float

    @property
    def ok(self) -> bool:
        return all(p.total <= self.budget + 1e-9 for p in self.players)


@dataclass(frozen=True)
class ProbeEntry:
    player: int
    regret: float


@dataclass(frozen=True)
class ProbeAudit:
    entries: tuple[ProbeEntry, ...]
    max_regret: float
    budget: float

    @property
    def ok(self) -> bool:
        return self.max_regret <= self.budget + 1e-9


def poly_eval(poly: Poly, point) -> float:
    terms = []
    for coef, exps in poly:
        v = coef
        for x, e in zip(point, exps):
            if e:
                v *= x**e
        terms.append(v)
    return math.fsum(terms)


def poly_value_bound(poly: Poly) -> float:
    # Coordinates live in [0, 1], so each monomial is at most |coef|.
    return math.fsum(abs(c) for c, _ in poly)


def poly_lipschitz_bound(poly: Poly) -> float:
    # |x^a - y^a| <= (sum of exponents) * max-metric distance on the cube.
    return math.fsum(abs(c) * sum(e) for c, e in poly)


def eta_net(dim: int, eta0: float) -> tuple[tuple[float, ...], ...]:
    """Uniform grid on [0, 1]^dim whose covering radius is at most eta0 / 2.

    Each axis gets ceil(1/eta0) + 1 equispaced points including both
    endpoints, so the spacing is at most eta0 and any point of the cube
    is within half a spacing of the grid under the max metric.
    """
    if dim < 1:
        raise GameFormatError("net dimension must be at least 1")
    if not eta0 > 0.0:
        raise GameFormatError("net resolution must be positive")
    return tuple(itertools.product(_net_axis(eta0), repeat=dim))


def _net_axis(eta0: float) -> tuple[float, ...]:
    per_axis = math.ceil(1.0 / eta0) + 1
    return tuple(j / (per_axis - 1) for j in range(per_axis))


def net_spacing(eta0: float) -> float:
    per_axis = math.ceil(1.0 / eta0) + 1
    return 1.0 / (per_axis - 1)


def floor_to_multiple(value: float, step: float, bound: float) -> float:
    """Largest float near k * step with value - result in [0, step), exactly.

    ``value`` is first clamped to [-bound, bound].  The window claim is
    exact rational arithmetic on the returned float, not an estimate:
    the float image of k * step can land a hair outside the window, so
    the result is nudged by ulps until the window holds.
    """
    if not step > 0.0:
        raise GameFormatError("step must be positive")
    if not bound > 0.0:
        raise GameFormatError("bound must be positive")
    z = min(max(value, -bound), bound)
    fz = Fraction(z)
    fs = Fraction(step)
    g = float((fz // fs) * fs)
    while Fraction(g) > fz:
        g = math.nextafter(g, -math.inf)
    while fz - Fraction(g) >= fs:
        g = math.nextafter(g, math.inf)
    return g


def truncate_states(
    bounds: Mapping[State, float],
    prior: Mapping[State, float],
    epsilon: float,
    cap: float | None = None,
) -> StateTruncation:
    """Split states into kept and discarded sets by payoff magnitude.

    Without a cap every state is kept.  With a cap, states whose payoff
    bound exceeds it are dropped; the drop is only legal when the
    discarded prior-weighted payoff mass stays below epsilon / 2, since
    that mass is charged against the discretization budget.
    """
    states = list(bounds.keys())
    if cap is None:
        kept = states
    else:
        kept = [s for s in states if bounds[s] <= cap]
    kept_set = set(kept)
    dropped = [s for s in states if s not in kept_set]
    tail_out = math.fsum(prior[s] * bounds[s] for s in dropped)
    kept_mass = math.fsum(prior[s] for s in kept)
    if cap is not None:
        if not kept_mass > 1.0 - epsilon / 2.0:
            raise GameFormatError(
                f"cap {cap} discards prior mass {1.0 - kept_mass:.6g}, "
                f"more than epsilon/2 allows"
            )
        if not tail_out < epsilon / 2.0:
            raise GameFormatError(
                f"cap {cap} leaves a payoff tail of {tail_out:.6g}, "
                f"at least epsilon/2"
            )
    bound_m = max(1.0, max((bounds[s] for s in kept), default=1.0))
    return StateTruncation(
        omega_double_prime=tuple(kept),
        bound_m=bound_m,
        kept_mass=kept_mass,
        tail_out=tail_out,
    )


def _validate_spec(spec: CompactGameSpec) -> None:
    n = spec.n
    if n < 2:
        raise GameFormatError("need at least two players")
    if len(spec.partitions) != n:
        raise GameFormatError("one information partition per player required")
    if any(d < 1 for d in spec.box_dims):
        raise GameFormatError("action boxes must have dimension at least 1")
    if not spec.lipschitz > 0.0:
        raise GameFormatError("declared Lipschitz constant must be positive")
    total = spec.total_dim
    worst = 0.0
    for s in spec.space.states:
        for i in range(1, n + 1):
            key = (s, i)
            if key not in spec.payoffs:
                raise GameFormatError(f"missing payoff polynomial for {key!r}")
            poly = spec.payoffs[key]
            for coef, exps in poly:
                if len(exps) != total:
                    raise GameFormatError(
                        f"monomial exponents for {key!r} must have length {total}"
                    )
                if any(e < 0 for e in exps):
                    raise GameFormatError("monomial exponents must be nonnegative")
                if not math.isfinite(coef):
                    raise GameFormatError("monomial coefficients must be finite")
            _finite_bound(poly_value_bound, poly, f"value bound for {key!r}")
            worst = max(
                worst,
                _finite_bound(poly_lipschitz_bound, poly, f"Lipschitz sum for {key!r}"),
            )
    if worst > spec.lipschitz + 1e-9:
        raise GameFormatError(
            f"declared Lipschitz constant {spec.lipschitz} is below the "
            f"coefficient bound {worst:.6g}"
        )


def _finite_bound(bound, poly: Poly, what: str) -> float:
    try:
        value = bound(poly)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise GameFormatError(f"{what} overflows a float")
    return value


def state_payoff_bounds(spec: CompactGameSpec) -> dict[State, float]:
    return {
        s: max(poly_value_bound(spec.payoffs[(s, i)]) for i in range(1, spec.n + 1))
        for s in spec.space.states
    }


def build_hat_game(spec: CompactGameSpec, epsilon: float) -> DiscretizedGame:
    """Build the finite grid-and-quantize companion of a compact game.

    Action sets become uniform grids of mesh epsilon / lipschitz.
    Payoffs on kept states are floored to the epsilon lattice, so they
    sit within [0, epsilon) below the true value; discarded states pay
    zero and are charged to the tail of the certificate.  Each payoff
    polynomial is evaluated over the whole joint net at once
    (``_net_floors``), and every value equals the scalar
    ``floor_to_multiple(poly_eval(poly, point), epsilon, bound_m)``
    bit for bit.
    """
    if not epsilon > 0.0:
        raise GameFormatError("epsilon must be positive")
    _validate_spec(spec)
    eta0 = epsilon / spec.lipschitz
    nets = tuple(eta_net(d, eta0) for d in spec.box_dims)
    truncation = truncate_states(
        state_payoff_bounds(spec), spec.space.prior, epsilon, spec.payoff_cap
    )
    kept = set(truncation.omega_double_prime)
    bound_m = truncation.bound_m
    grid = _joint_grid(spec, nets, _net_axis(eta0))

    values: dict[tuple[State, tuple[Action, ...]], tuple[float, ...]] = {}
    for s in spec.space.states:
        keys = [(s, profile) for profile in grid.profiles]
        if s in kept:
            columns = [
                _net_floors(spec.payoffs[(s, i)], grid, epsilon, bound_m)
                for i in range(1, spec.n + 1)
            ]
            values.update(zip(keys, zip(*columns)))
        else:
            values.update(dict.fromkeys(keys, (0.0,) * spec.n))

    game = NestedGame(
        space=spec.space,
        partitions=spec.partitions,
        payoffs=PayoffTensor(actions=nets, values=values),
    )
    return DiscretizedGame(
        game=game,
        spec=spec,
        epsilon=epsilon,
        eta0=eta0,
        bound_m=bound_m,
        truncation=truncation,
        nets=nets,
    )


_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_FLOAT = math.ulp(0.0)


@dataclass(frozen=True)
class _JointGrid:
    """The joint net as one numpy grid with one axis per coordinate.

    ``profiles`` lists the joint profiles in ``itertools.product(*nets)``
    order, which is the C order of ``shape``.  ``powers[(d, e)]`` holds
    ``x**e`` for every axis value x (Python's float power, as in
    ``poly_eval``), shaped to broadcast along coordinate d; it is None
    when some table entry falls outside [0, 1], which sends every value
    to the scalar path.
    """

    profiles: list[tuple[Action, ...]]
    shape: tuple[int, ...]
    powers: dict[tuple[int, int], np.ndarray] | None


def _joint_grid(
    spec: CompactGameSpec,
    nets: tuple[tuple[tuple[float, ...], ...], ...],
    axis: tuple[float, ...],
) -> _JointGrid:
    dims = spec.total_dim
    pairs = {
        (d, e)
        for poly in spec.payoffs.values()
        for _, exps in poly
        for d, e in enumerate(exps)
        if e
    }
    tables = {e: np.array([x**e for x in axis]) for e in {e for _, e in pairs}}
    powers = None
    if all(t.min() >= 0.0 and t.max() <= 1.0 for t in tables.values()):
        powers = {
            (d, e): tables[e].reshape((1,) * d + (-1,) + (1,) * (dims - d - 1))
            for d, e in pairs
        }
    return _JointGrid(
        profiles=list(itertools.product(*nets)),
        shape=(len(axis),) * dims,
        powers=powers,
    )


def _net_floors(
    poly: Poly, grid: _JointGrid, epsilon: float, bound_m: float
) -> list[float]:
    """``floor_to_multiple(poly_eval(poly, point), epsilon, bound_m)`` at
    every joint grid point, in profile order, bit for bit.

    Values far from the epsilon lattice are floored in numpy; the rest
    (a guard band of relative width about 2 (n + 2) u R, below) take
    the scalar path.  Why a safe entry is exact, with u = 2**-53, eta
    = 2**-1074, n = len(poly), C = sum |coef| (real),
    P = ``poly_value_bound(poly)`` = fsum |coef| and R = P / epsilon:

    - Terms.  Each term is ``coef`` times the table entries x**e,
      multiplied left to right as ``poly_eval`` does, so the terms are
      the scalar terms bit for bit.  The entries lie in [0, 1] (checked
      in ``_joint_grid``), so each |term| <= |coef| by monotone
      rounding.
    - Sum.  Let T be the exact sum of the terms.  The scalar value is
      V = fsum = fl(T), so |V - T| <= u C; the plain sum S has
      |S - T| <= (n - 1) u C / (1 - (n - 1) u).  Hence
      |S - V| <= E with E / epsilon <= n u R (1 + 2**-12) for any n
      below 2**40.  2 P is finite, so no partial sum overflows.
    - Clamp.  |T| <= C, so |V| <= fl(C) = P <= bound_m (P <= bound_m
      is checked): the clamp is the identity and z = V.
    - Quotient.  q = fl(S / epsilon) is within u |q| + eta of
      S / epsilon, so |q - V / epsilon| <= u |q| + eta + E / epsilon.
      k = floor(q) is exact and so is f = q - k (Sterbenz), except for
      -1 < q < 0, where f = fl(q + 1) is off by at most u.
    - Guard.  An entry is safe when tau < f < 1 - tau with
      tau = 2 ((n + 2) u R + 2 u + 2 eta + eta / epsilon).  This
      exceeds u + |q - V / epsilon| + g, g = u (|k| + 1) + eta / epsilon
      (the factor 2 absorbs the second-order terms and the rounding of
      tau itself), so V / epsilon lies strictly between k + g and
      k + 1 - g: floor(V / epsilon) = k, and V is more than
      g epsilon from the lattice.
    - Result.  ``floor_to_multiple`` first forms
      float(Fraction(k) * Fraction(epsilon)), the correctly rounded
      product, which is exactly the float product k * epsilon
      computed here (k = 0 gives +0.0 on both sides, since a safe
      q = 0 is impossible).  It differs from the exact k epsilon by at
      most u |k epsilon| + eta < g epsilon, so V minus it stays in
      [0, epsilon) and neither nudge loop moves it.

    tau < 1/2 forces R < 2**51, so no step overflows; otherwise, or
    when the premises above fail, every entry takes the scalar path.
    """
    size = len(grid.profiles)
    total = poly_value_bound(poly)
    u, eta = _UNIT_ROUNDOFF, _SMALLEST_FLOAT
    tau = 2.0 * (
        (len(poly) + 2) * u * (total / epsilon) + 2 * u + 2 * eta + eta / epsilon
    )
    if (
        grid.powers is not None
        and total <= bound_m
        and math.isfinite(2.0 * total)
        and tau < 0.5
    ):
        acc = np.zeros(grid.shape)
        for coef, exps in poly:
            term = float(coef)
            for d, e in enumerate(exps):
                if e:
                    term = term * grid.powers[(d, e)]
            acc += term
        q = acc.ravel()
        q /= epsilon
        k = np.floor(q)
        frac = q - k
        safe = (frac > tau) & (frac < 1.0 - tau)
        k *= epsilon
        out = k.tolist()
        unsafe = np.flatnonzero(~safe).tolist()
    else:
        out = [0.0] * size
        unsafe = range(size)
    for r in unsafe:
        point = tuple(x for block in grid.profiles[r] for x in block)
        out[r] = floor_to_multiple(poly_eval(poly, point), epsilon, bound_m)
    return out


def certify_sup_gap(disc: DiscretizedGame) -> GapCertificate:
    """Bound each player's payoff distortion between the two games.

    For any joint strategy supported on the grids, the player's
    expected payoff in the finite game differs from the continuous one
    by at most rounding + tails, and snapping an arbitrary continuous
    action to the grid costs at most the net term on top.  Each total
    is certified against the 3 * epsilon budget.
    """
    spec = disc.spec
    eps = disc.epsilon
    kept = set(disc.truncation.omega_double_prime)
    dropped = [s for s in spec.space.states if s not in kept]
    net_term = spec.lipschitz * net_spacing(disc.eta0) / 2.0
    bounds = state_payoff_bounds(spec) if dropped else {}
    players = []
    for i in range(1, spec.n + 1):
        prior = spec.space.prior_for(i)
        kept_mass = math.fsum(prior[s] for s in spec.space.states if s in kept)
        tail_out = math.fsum(prior[s] * bounds[s] for s in dropped)
        rounding = eps * kept_mass
        total = rounding + net_term + tail_out
        players.append(
            PlayerGap(
                player=i,
                rounding=rounding,
                net=net_term,
                tail_out=tail_out,
                total=total,
            )
        )
    return GapCertificate(epsilon=eps, players=tuple(players), budget=3.0 * eps)


def _poly_probe_values(
    poly: Poly,
    probes: np.ndarray,
    offset: int,
    fixed: dict[int, float],
) -> np.ndarray:
    """Evaluate a polynomial over probe points in one player's block.

    ``fixed`` supplies the coordinates of every other block; the
    player's own block is swept over the rows of ``probes``.
    """
    out = np.zeros(len(probes))
    width = probes.shape[1]
    for coef, exps in poly:
        scalar = coef
        vec = None
        for d, e in enumerate(exps):
            if not e:
                continue
            if offset <= d < offset + width:
                col = probes[:, d - offset] ** e
                vec = col if vec is None else vec * col
            else:
                scalar *= fixed[d] ** e
        out += scalar * vec if vec is not None else scalar
    return out


def probe_harsanyi_regret(
    disc: DiscretizedGame,
    profile: StrategyProfile,
    budget: float | None = None,
) -> ProbeAudit:
    """Audit a grid-supported profile against grid deviations, exactly.

    For each player, the best probe deviation per information atom is
    computed in the continuous game (true polynomials, no quantization)
    and aggregated with prior weights into an ex-ante regret.  The
    default budget is 5 * epsilon plus the probe covering slack, which
    a certified solve of the finite companion must meet.
    """
    spec = disc.spec
    if budget is None:
        budget = 5.0 * disc.epsilon + spec.lipschitz * disc.eta0 / 2.0
    entries = []
    worst = 0.0
    for i in range(1, spec.n + 1):
        prior = spec.space.prior_for(i)
        net = eta_net(spec.box_dims[i - 1], disc.eta0)
        probes = np.array(net)
        offset = spec.block_offset(i)
        probe_index = {pt: r for r, pt in enumerate(net)}
        others = [j for j in range(1, spec.n + 1) if j != i]
        atom_regrets = []
        for atom, members in spec.partitions[i - 1].atoms.items():
            mass = math.fsum(prior[s] for s in members)
            if mass <= 0.0:
                continue
            dev_values = np.zeros(len(probes))
            current_terms = []
            own = profile.distribution(i, atom)
            for a, p in own.items():
                if p > 0.0 and a not in probe_index:
                    raise GameFormatError(
                        f"player {i} plays off-grid action {a!r}; the audit "
                        f"covers grid-supported profiles only"
                    )
            for s in members:
                w_s = prior[s]
                if w_s <= 0.0:
                    continue
                supports = []
                for j in others:
                    atom_j = spec.partitions[j - 1].atom_of[s]
                    dist = profile.distribution(j, atom_j)
                    supports.append(
                        [(a, p) for a, p in dist.items() if p > 0.0]
                    )
                poly = spec.payoffs[(s, i)]
                for combo in itertools.product(*supports):
                    w = w_s
                    fixed: dict[int, float] = {}
                    for j, (a, p) in zip(others, combo):
                        w *= p
                        off_j = spec.block_offset(j)
                        for d, x in enumerate(a):
                            fixed[off_j + d] = x
                    if w <= 0.0:
                        continue
                    vec = _poly_probe_values(poly, probes, offset, fixed)
                    dev_values += w * vec
                    for a, p in own.items():
                        if p > 0.0:
                            current_terms.append(w * p * vec[probe_index[a]])
            best = float(dev_values.max()) / mass
            current = math.fsum(current_terms) / mass
            atom_regrets.append((mass, max(0.0, best - current)))
        total = math.fsum(m * r for m, r in atom_regrets)
        entries.append(ProbeEntry(player=i, regret=total))
        worst = max(worst, total)
    return ProbeAudit(entries=tuple(entries), max_regret=worst, budget=budget)
