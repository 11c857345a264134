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

The probe audit checks a grid profile against the true polynomials.  It
runs the regret certifier on the true-value grid game, the grid game
with each state's unfloored values, so the audit sums exactly as every
certificate does and shares its negative-regret check; each player's
probe regret is that certificate's ``harsanyi`` entry.
``build_hat_game`` keeps that game beside the grid game
(``DiscretizedGame.true_game``) and floors the grid game's payoffs from
the same values, so each polynomial is evaluated once per mesh.

One evaluator, ``_grid_sum``, computes every sum of monomials on a
product grid: the payoff table on the joint net, and in the box
certificate each opponent's moment powers and each atom's own-action
values.  It reads x**e from one table per exponent, built with Python's
float power, and forms each term left to right as ``poly_eval`` does,
so ``poly_eval`` is the plain oracle it is checked against bit for bit.

The box certificate (``certify_box``) bounds the profile's regret
against every action in each player's box, on the compact game itself,
not on a grid.  It runs the profile's own probe audit, which it
returns (``BoxCertificate.audit``).  Its soundness rests on two facts.
Lipschitz covering: on each atom the player's value is a polynomial in
their own action that is L-Lipschitz under the max metric (an average
of the payoffs, each L-Lipschitz), and every point of the box lies
within h / 2 of an own-action net of spacing h, so the supremum over
the box is at most the maximum over the net plus L h / 2.  Rounding
allowance: every float operation that feeds the net maximum and the
profile's current value is counted, and an explicit allowance, proven
in ``certify_box``'s docstring, exceeds their total error, so the
reported regret is never below the exact one.  The grid mesh
(``build_hat_game``'s ``mesh``) only sets where the profile may play;
the box certificate holds at any mesh, which is what lets
``coarse_to_fine`` solve on coarse grids.
All three certificates here pass by ``regret.within_bound``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import numpy as np

from .game import (
    MASS_TOL,
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    State,
    StateSpace,
    StrategyProfile,
    _is_integer,
    _strategies_at,
)
from .regret import ConsistencyError, RegretReport, below_floor, certify, within_bound

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

    @property
    def total_dim(self) -> int:
        return sum(self.box_dims)

    @cached_property
    def fault(self) -> str | None:
        """Why the spec cannot be discretized (``_validate_spec``'s
        error), or None; checked once per spec."""
        try:
            _validate_spec(self)
        except GameFormatError as err:
            return str(err)
        return None

    def require_valid(self) -> None:
        """Raise GameFormatError naming ``fault``, if any."""
        if self.fault is not None:
            raise GameFormatError(self.fault)


@dataclass(frozen=True)
class StateTruncation:
    omega_double_prime: tuple[State, ...]
    bound_m: float
    kept_mass: float
    tail_out: float


@dataclass(frozen=True)
class DiscretizedGame:
    """The grid companion of ``spec`` (see ``build_hat_game``).

    ``game`` is the grid game: each player's net as their actions and
    every payoff floored to the epsilon lattice, dropped states paying
    zero.  ``true_game`` shares its space, partitions, supports and nets
    (one tuple, ``payoffs.actions``), and holds every state's unfloored
    values, dropped states included: the game the probe certifies.
    """

    game: NestedGame
    true_game: NestedGame
    spec: CompactGameSpec
    epsilon: float
    eta0: float
    truncation: StateTruncation


@dataclass(frozen=True)
class PlayerGap:
    player: int
    rounding: float
    net: float
    tail_out: float
    total: float


@dataclass(frozen=True)
class GapCertificate:
    players: tuple[PlayerGap, ...]
    budget: float

    @property
    def ok(self) -> bool:
        return all(within_bound(p.total, self.budget) for p in self.players)


@dataclass(frozen=True)
class ProbeAudit:
    """``certificate`` is the regret certificate on the true-value grid
    game against the probe budget: its ``harsanyi`` holds each player's
    probe regret, and its ``current_value`` columns the profile's exact
    conditional values, which the box certificate reuses."""

    certificate: RegretReport

    @property
    def budget(self) -> float:
        return self.certificate.epsilon

    @property
    def max_regret(self) -> float:
        return max(self.certificate.harsanyi.values())

    @property
    def ok(self) -> bool:
        return within_bound(self.max_regret, self.budget)


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
    is within half a spacing of the grid under the max metric.  A dim
    that is not an integer >= 1, or an eta0 that is not finite and
    positive or whose reciprocal overflows, raises GameFormatError.
    """
    if not (_is_integer(dim) and dim >= 1):
        raise GameFormatError(f"net dimension must be an integer >= 1, not {dim!r}")
    return tuple(itertools.product(_net_axis(eta0), repeat=dim))


def _has_grid(eta0: float) -> bool:
    """Whether ``eta0`` is positive with a finite reciprocal, so that a
    grid of spacing at most ``eta0`` has a finite point count."""
    return eta0 > 0.0 and 1.0 / eta0 < math.inf


def _per_axis(eta0: float) -> int:
    if not (eta0 < math.inf and _has_grid(eta0)):
        raise GameFormatError(
            f"the grid mesh {eta0!r} and its reciprocal must be finite and positive"
        )
    # At least two points, the endpoints, even when 1 / eta0 rounds to 0.
    return max(math.ceil(1.0 / eta0), 1) + 1


def _net_axis(eta0: float) -> tuple[float, ...]:
    per_axis = _per_axis(eta0)
    return tuple(j / (per_axis - 1) for j in range(per_axis))


def net_spacing(eta0: float) -> float:
    return 1.0 / (_per_axis(eta0) - 1)


def floor_to_multiple(value: float, step: float, bound: float) -> float:
    """Largest float near k * step with value - result in [0, step), exactly.

    ``value`` is first clamped to [-bound, bound].  The window claim is
    exact rational arithmetic on the returned float, not an estimate:
    the float image of k * step can land a hair outside the window, so
    the result is nudged by ulps until the window holds.  GameFormatError
    unless ``step`` and ``bound`` are finite and positive and ``value``
    is not NaN.
    """
    if not 0.0 < step < math.inf:
        raise GameFormatError("step must be finite and positive")
    if not 0.0 < bound < math.inf:
        raise GameFormatError("bound must be finite and positive")
    if math.isnan(value):
        raise GameFormatError("value must not be NaN")
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
                if not all(_is_integer(e) and e >= 0 for e in exps):
                    raise GameFormatError(
                        "monomial exponents must be nonnegative integers"
                    )
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


def build_hat_game(
    spec: CompactGameSpec, epsilon: float, mesh: float | None = None
) -> DiscretizedGame:
    """Build the finite grid-and-quantize companion of a compact game.

    Action sets become uniform grids of spacing at most ``mesh``, by
    default the a-priori mesh epsilon / lipschitz (``eta0``).  The mesh
    sets only the grid; the payoff lattice is always epsilon.
    Payoffs on kept states are floored to the epsilon lattice, so they
    sit within [0, epsilon) below the true value; discarded states pay
    zero and are charged to the tail of the certificate.  Each payoff
    polynomial is evaluated once, over the whole joint net at once
    (``_net_values``), into ``true_game``'s payoff array, and its kept
    states are floored from those values (``_net_floors``) into the
    game's; every floored value equals the scalar
    ``floor_to_multiple(poly_eval(poly, point), epsilon, bound_m)``
    bit for bit.  GameFormatError unless ``epsilon`` is finite and positive.
    """
    if not 0.0 < epsilon < math.inf:
        raise GameFormatError("epsilon must be finite and positive")
    spec.require_valid()
    eta0 = _a_priori_mesh(spec, epsilon) if mesh is None else mesh
    nets = tuple(eta_net(d, eta0) for d in spec.box_dims)
    truncation = truncate_states(
        state_payoff_bounds(spec), spec.space.prior, epsilon, spec.payoff_cap
    )
    kept = set(truncation.omega_double_prime)
    axis, dims, tables = _net_axis(eta0), spec.total_dim, {}

    states = spec.space.states
    shape = (spec.n, len(states)) + tuple(map(len, nets))
    true_table, table = np.empty(shape), np.zeros(shape)
    true_cells = true_table.reshape(spec.n, len(states), -1)
    cells = table.reshape(spec.n, len(states), -1)
    for k, s in enumerate(states):
        for i in range(1, spec.n + 1):
            poly = spec.payoffs[(s, i)]
            true_cells[i - 1, k] = values = _net_values(poly, axis, dims, tables)
            if s in kept:
                cells[i - 1, k] = _net_floors(
                    poly, axis, dims, tables, values, epsilon, truncation.bound_m
                )
    tensors = (PayoffTensor.from_array(nets, states, t) for t in (table, true_table))
    game, true_game = (NestedGame(spec.space, spec.partitions, t) for t in tensors)
    # The two games share their space and partitions, so their supports.
    true_game.__dict__["supports"] = game.supports
    return DiscretizedGame(
        game=game,
        true_game=true_game,
        spec=spec,
        epsilon=epsilon,
        eta0=eta0,
        truncation=truncation,
    )


# Coarse-to-fine meshes, as multiples of the a-priori mesh epsilon / L.
MESH_FACTORS = (16, 8, 4, 2, 1)


def _a_priori_mesh(spec: CompactGameSpec, epsilon: float) -> float:
    """The mesh epsilon / L.  GameFormatError when it is 0 or its
    reciprocal overflows, as no grid then has a finite point count."""
    mesh = epsilon / spec.lipschitz
    if not _has_grid(mesh):
        raise GameFormatError(
            f"the grid mesh epsilon / L is too fine for a grid at "
            f"epsilon = {epsilon!r}, L = {spec.lipschitz!r}"
        )
    return mesh


def coarse_to_fine(spec: CompactGameSpec, epsilon: float) -> list[float]:
    """The grid meshes to try, coarsest first: epsilon / L times each of
    ``MESH_FACTORS``.  Of each run of meshes whose nets are equal only
    the finest is kept, so every distinct grid is solved at most once
    and the last mesh is always the a-priori one."""
    if not 0.0 < epsilon < math.inf:
        raise GameFormatError("epsilon must be finite and positive")
    spec.require_valid()
    meshes = [f * _a_priori_mesh(spec, epsilon) for f in MESH_FACTORS]
    return [
        mesh
        for mesh, finer in zip(meshes, meshes[1:] + [None])
        if finer is None or net_spacing(mesh) != net_spacing(finer)
    ]


_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_FLOAT = math.ulp(0.0)


def _grid_sum(
    terms, axis, tables, dims: int, rows: tuple[int, ...] = ()
) -> np.ndarray:
    """The sum of c * x_1**e_1 ... x_dims**e_dims over the (c, e)
    ``terms`` at every point of the grid ``axis``**dims, shaped
    ``rows + (len(axis),) * dims``; the grid points are in C order, which
    is ``itertools.product`` order.

    ``c`` is a float, or a column of shape ``rows + (1,) * dims``.
    ``tables[e]`` holds x**e for every axis value x (Python's float power,
    as in ``poly_eval``); a missing table is built here and kept.  Each
    term is multiplied left to right from c, so a polynomial's terms are
    ``poly_eval``'s bit for bit, and the terms are added in order.
    """
    acc = np.zeros(rows + (len(axis),) * dims)
    for coef, exps in terms:
        term = coef
        for d, e in enumerate(exps):
            if e:
                if e not in tables:
                    tables[e] = np.array([x**e for x in axis])
                term = term * tables[e].reshape((-1,) + (1,) * (dims - d - 1))
        acc += term
    return acc


def _net_values(poly: Poly, axis, dims: int, tables) -> np.ndarray:
    """``poly`` at every joint grid point, in profile order, as a new
    array: ``_grid_sum`` on the joint net ``axis``**dims."""
    return _grid_sum(poly, axis, tables, dims).ravel()


def _net_floors(
    poly: Poly,
    axis,
    dims: int,
    tables,
    values: np.ndarray,
    epsilon: float,
    bound_m: float,
) -> np.ndarray:
    """``floor_to_multiple(poly_eval(poly, point), epsilon, bound_m)`` at
    every joint grid point, in profile order, bit for bit, given
    ``values``, ``_net_values(poly, axis, dims, tables)``.

    Values far from the epsilon lattice are floored in numpy; the rest
    (a guard band of relative width about 2 (n + 2) u R, below) take
    the scalar path.  Why a safe entry is exact, with u = 2**-53, eta
    = 2**-1074, n = len(poly), C = sum |coef| (real),
    P = ``poly_value_bound(poly)`` = fsum |coef| and R = P / epsilon:

    - Terms.  Each term is ``coef`` times the table entries x**e,
      multiplied left to right as ``poly_eval`` does (``_grid_sum``), so
      the terms are the scalar terms bit for bit.  The entries lie in
      [0, 1] (checked here on every table, this polynomial's among
      them), so each |term| <= |coef| by monotone rounding.
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
    shape = (len(axis),) * dims
    total = poly_value_bound(poly)
    u, eta = _UNIT_ROUNDOFF, _SMALLEST_FLOAT
    tau = 2.0 * (
        (len(poly) + 2) * u * (total / epsilon) + 2 * u + 2 * eta + eta / epsilon
    )
    if (
        all(t.min() >= 0.0 and t.max() <= 1.0 for t in tables.values())
        and total <= bound_m
        and math.isfinite(2.0 * total)
        and tau < 0.5
    ):
        q = values / epsilon
        k = np.floor(q)
        frac = q - k
        safe = (frac > tau) & (frac < 1.0 - tau)
        k *= epsilon
        out = k
        unsafe = np.flatnonzero(~safe)
    else:
        out = np.empty(values.size)
        unsafe = np.arange(values.size)
    coords = zip(*(c.tolist() for c in np.unravel_index(unsafe, shape)))
    for r, index in zip(unsafe.tolist(), coords):
        point = tuple(axis[c] for c in index)
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
    return GapCertificate(players=tuple(players), budget=3.0 * eps)


def probe_harsanyi_regret(
    disc: DiscretizedGame, profile: StrategyProfile
) -> ProbeAudit:
    """Audit a grid-supported profile against grid deviations, exactly.

    The audit is the regret certificate (``regret.certify``) of the
    profile on ``disc.true_game``, the true-value grid game that
    ``build_hat_game`` built, so nothing is evaluated here.  Each
    player's regret is their certified ex-ante (``harsanyi``) regret: the
    prior-weighted sum of their per-atom regrets, clipped at zero, so the
    best grid deviation is taken per atom.  The certifier's reader
    (``game._strategies_at``) refuses any action off the grid, even at
    zero mass, and any row that is not a probability vector.  The budget
    is 5 * epsilon plus the probe covering slack, which a certified
    solve of the finite companion must meet.
    """
    budget = 5.0 * disc.epsilon + disc.spec.lipschitz * disc.eta0 / 2.0
    return ProbeAudit(certificate=certify(disc.true_game, profile, budget))


@dataclass(frozen=True)
class BoxPlayer:
    """``regret`` is a column over the player's atoms in the audit
    certificate, in support order; ``bayesian`` is its maximum."""

    player: int
    regret: tuple[float, ...]
    harsanyi: float

    @property
    def bayesian(self) -> float:
        return max(self.regret)


@dataclass(frozen=True)
class BoxCertificate:
    """Regret bounds of a grid-supported profile against every action in
    each player's box (see ``certify_box``), one ``BoxPlayer`` per player
    in player order, and the profile's probe audit.  It passes when
    every player's Harsanyi box regret is within epsilon."""

    epsilon: float
    spacing: float
    covering: float
    players: tuple[BoxPlayer, ...]
    audit: ProbeAudit

    @property
    def max_regret(self) -> float:
        return max(p.harsanyi for p in self.players)

    @property
    def ok(self) -> bool:
        return within_bound(self.max_regret, self.epsilon)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def certify_box(disc: DiscretizedGame, profile: StrategyProfile) -> BoxCertificate:
    """Bound the regret of a grid-supported profile against every action
    in each player's box [0, 1]^d, on the compact game itself.

    It runs ``probe_harsanyi_regret(disc, profile)``, returned as
    ``audit``, whose certificate holds each atom's current value c, the
    profile's exact conditional value.  Both read the profile through
    ``game._strategies_at``, which refuses any action off the grid, even
    at zero mass, and any row that is not a probability vector.

    Fix player i and a positive-mass atom g with members s, priors w_s
    and mass m.  Every state holds the others' play fixed, and they play
    independently, so i's value of an own action y is the polynomial

        V(y) = (1/m) sum_s w_s sum_t c_t prod_{j != i} mu_j(s, e_tj) y^f_t

    over the monomials c_t x^e_t of i's payoff at s, where f_t and e_tj
    are the exponents of i's and j's coordinates and
    mu_j(s, e) = sum_a p_j(a) a^e is a moment of j's play at s.  The
    coefficient of each own monomial f is one ``math.fsum``; no joint
    grid is formed.  The powers a^e of the moments and V on the own net
    are both ``_grid_sum``, the evaluator of the grid game's values.
    V is evaluated on an own net of spacing h <= epsilon / (4 L), and
    V is Lbar-Lipschitz in y under the max metric, Lbar = max(L, the
    largest coefficient bound), so sup V <= max over the net + Lbar h / 2
    (the covering term, at most about epsilon / 8).  The atom's regret is

        r = max over the net of V + covering + allowance - c,

    each of the last three operations followed by a step of one ulp
    towards +inf (so r is never below the exact sum), and capped at
    4 B, above any regret since |V| and |c| are at most
    (1 + 2**-20) B.  The allowance covers float rounding.  Why r bounds
    the exact regret sup V - c, with u = 2**-53, eta = 2**-1074,
    gamma_k = k u / (1 - k u), B = the largest ``poly_value_bound`` of
    i's polynomials on the states i weighs, T their most monomials, F
    the own monomials, D = sum of box dimensions, d = i's, and n
    players:

    - Premises.  The C library's pow is faithful (error below one ulp,
      so relative error at most 2u on normal results), as in glibc and
      musl.  Every distribution the profile plays is nonnegative and
      sums to within MASS_TOL of 1 (``game._strategies_at`` checks it),
      so for n below 10**6 the absolute terms of either value, times m,
      sum to at most (1 + 2**-20) m B.  No overflow: 8 B is finite (checked).
    - Moments.  ``_grid_sum`` forms prod a_k ** e_k as 1.0 times the
      table entries, left to right: the first product is exact, so each
      power (faithful, 2 roundings) and each later product (1) leave at
      most 3 d_j - 1, and p(a) times it one more.  The term is
      nonnegative, so the fsum mu_j has relative error at most
      gamma_{3 d_j + 1}.  A coefficient term w_s c_t prod mu adds n
      roundings and its fsum one more.  On the own net, ``_grid_sum``
      multiplies each coefficient by d table entries (3 d roundings)
      and adds the F terms in order to zeros, the first addition exact
      (F - 1); the division by the fsum mass adds 2.  So every net
      value is within gamma_{6D + 2n + F + 2} (1 + 2**-20) B of V there.
    - Current value.  The true-value table holds the terms of
      ``_net_values`` (3 D roundings each) summed in T - 1 steps, so
      each entry is within gamma_{3D + T} of the polynomial's absolute
      coefficient sum; the certifier's joint products, fsums, weights
      and mass division add n + 4, so c is off by at most
      gamma_{3D + T + n + 4} (1 + 2**-20) B.
    - Covering.  The float net points are within h / 2 + u of any y,
      the float spacing and Lbar are off by a few u, and mixing with
      row sums up to 1 + MASS_TOL scales the Lipschitz constant by at
      most 1 + 2 n MASS_TOL; so the true covering term exceeds the
      float one by at most (gamma_K + 2 n MASS_TOL) Lbar.
    - Underflow.  Each product or quotient below the normal range may
      add an absolute eta / 2, later scaled by at most 2 (B + 1) / m.
      Z counts every such operation that feeds atom g's two values.

    With K = 6D + 2n + T + F + 8, the allowance
    2 gamma_K (2 B + Lbar) + 2 n MASS_TOL Lbar + 4 Z (B + 1) eta / m
    exceeds the sum of these errors by nearly a factor 2, which also
    absorbs the rounding of the allowance itself.  Hence
    r >= sup V - c >= 0, and a regret below -1e-9 signals a broken
    invariant and raises.  The Harsanyi regret is the fsum of
    m * max(0, r) over the atoms.

    A box pass implies an audit pass.  Each grid action a is a box
    action, so sup V >= V(a), and the probe's regret at g is the float
    of v - c, with the same c and v the largest grid action's value as
    the certifier computes it.  Each such value is off by at most
    gamma_{3D + T + n + 4} (1 + 2**-20) B, as c is (its products hold
    one probability fewer), and the subtraction adds at most
    2 (1 + 2**-20) (1 + gamma_K) B u, below gamma_K B / 8 as K >= 18.
    Its underflow-prone operations (per member state and joint profile
    the table entry's at most 2 D per monomial, n - 1 products and a
    weight; per atom a division per grid action) number at most Z,
    which allows T (2D + n + 3) per member state and joint profile, so
    they add at most Z (B + 1) eta / m.  With these two errors in place
    of c's, the sum of the errors still stays below the allowance, so
    r, at least max over the net of V + covering + allowance - c, is at
    least the probe's regret; so is the cap 4 B, as |v| and |c| are at
    most (1 + 2**-20) B.  Both Harsanyi regrets are fsums of
    m * max(0, r) over the same masses (the two games share their
    supports), and rounding is monotone, so each player's probe
    Harsanyi regret is at most the box's.  The probe budget
    5 epsilon + L eta0 / 2 is at least epsilon, so ``box.ok`` implies
    ``box.audit.ok``.
    """
    audit = probe_harsanyi_regret(disc, profile)
    spec = disc.spec
    game = disc.game
    nets = game.payoffs.actions
    n = spec.n
    states = spec.space.states
    starts = tuple(itertools.accumulate(spec.box_dims, initial=0))
    own_mesh = disc.epsilon / (4.0 * spec.lipschitz)
    axis, own_tables = _net_axis(own_mesh), {}
    grid_axis, grid_tables = _net_axis(disc.eta0), {}
    spacing = net_spacing(own_mesh)
    lip = max(
        spec.lipschitz, max(poly_lipschitz_bound(p) for p in spec.payoffs.values())
    )
    covering = lip * spacing / 2.0
    weighed = np.concatenate([support.positions for support in game.supports])
    plays = _strategies_at(game, profile, weighed, range(1, n + 1))
    joint = math.prod(map(len, nets))
    moments: dict[tuple[int, tuple[int, ...]], list[float]] = {}

    def moment(j: int, exps: tuple[int, ...]) -> list[float]:
        """mu_j(row, exps) for every distinct row j plays."""
        if (j, exps) not in moments:
            powers = _grid_sum([(1.0, exps)], grid_axis, grid_tables, len(exps))
            terms = plays[j][0] * powers.ravel()
            moments[(j, exps)] = [math.fsum(row) for row in terms.tolist()]
        return moments[(j, exps)]

    players: list[BoxPlayer] = []
    for i in range(1, n + 1):
        support = game.supports[i - 1]
        own = slice(starts[i - 1], starts[i])
        others = [j for j in range(1, n + 1) if j != i]
        positions = support.positions.tolist()
        polys = [spec.payoffs[(states[k], i)] for k in positions]
        bound = max(map(poly_value_bound, polys))
        most = max(map(len, polys))
        if not math.isfinite(8.0 * bound):
            raise GameFormatError(
                f"player {i}'s payoff bound is too large for the box certificate"
            )
        own_exps = sorted({exps[own] for poly in polys for _, exps in poly})
        column = {f: c for c, f in enumerate(own_exps)}
        terms: list[list[list[float]]] = []
        weights = support.weights.tolist()
        sizes = support.sizes.tolist()
        for start, stop in itertools.pairwise(itertools.accumulate(sizes, initial=0)):
            row: list[list[float]] = [[] for _ in own_exps]
            for k in range(start, stop):
                for c, exps in polys[k]:
                    t = c
                    for j in others:
                        mu = moment(j, exps[starts[j - 1] : starts[j]])
                        t *= mu[plays[j][1][positions[k]]]
                    row[column[exps[own]]].append(weights[k] * t)
            terms.append(row)
        coef = np.array([[math.fsum(t) for t in row] for row in terms])
        d, atoms = spec.box_dims[i - 1], len(sizes)
        columns = [
            (coef[:, c].reshape((atoms,) + (1,) * d), f)
            for c, f in enumerate(own_exps)
        ]
        values = _grid_sum(columns, axis, own_tables, d, (atoms,))
        values = values.reshape(atoms, -1)
        masses = support.masses[support.masses > 0.0]
        best = (values.max(axis=1) / masses).tolist()

        count = 6 * spec.total_dim + 2 * n + most + len(own_exps) + 8
        gamma = count * _UNIT_ROUNDOFF / (1.0 - count * _UNIT_ROUNDOFF)
        rounding = 2.0 * gamma * (2.0 * bound + lip) + 2.0 * n * MASS_TOL * lip
        per_state = most * (
            joint + sum(len(nets[j - 1]) for j in others) + 1
        ) * (2 * spec.total_dim + n + 3)
        per_net = values.shape[1] * len(own_exps) * (2 * d + 1) + 4
        cap = 4.0 * bound
        regrets = []
        # The audit certified the true-value game, on the grid game's space
        # and partitions, so its columns list these atoms in this order.
        current = audit.certificate.players[i].current_value
        masses = masses.tolist()
        for atom, mass, size, top, c in zip(support.ids, masses, sizes, best, current):
            ops = size * per_state + per_net
            allowance = rounding + 4.0 * ops * (bound + 1.0) / mass * _SMALLEST_FLOAT
            r = _up(_up(_up(top + covering) + allowance) - c)
            if below_floor(r):
                raise ConsistencyError(
                    f"negative box regret {r!r} for player {i} at atom {atom!r}"
                )
            regrets.append(min(r, cap))
        harsanyi = math.fsum(m * max(0.0, r) for m, r in zip(masses, regrets))
        players.append(BoxPlayer(player=i, regret=tuple(regrets), harsanyi=harsanyi))
    return BoxCertificate(disc.epsilon, spacing, covering, tuple(players), audit)
