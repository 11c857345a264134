import warnings

import pytest

# Hypothesis imports this module to print a failing example.  Where libcst
# is installed, the import raises mypy_extensions' DeprecationWarning, which
# the warning filters in pyproject.toml turn into an error that hides the
# example behind INTERNALERROR lines.  Importing it once here, with that
# warning ignored for this import only, leaves the filters whole for the
# project's own code.  An install without libcst lacks the module.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from hypothesis import settings

# Ten times hypothesis's default examples: CI runs the grouping
# equivalence tests (tests/test_grouping.py and the files beside it in the
# workflow's step) once more under this profile, with
# ``--hypothesis-profile=ci``.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)

from nestnash.game import (
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    from_type_space,
)


def examples(count: int) -> int:
    """``count`` hypothesis examples scaled by the loaded profile: ``count``
    under the default profile, ten times ``count`` under ``ci``.  An
    explicit ``max_examples`` overrides a profile, so a test that pins its
    count passes it through here.  Test modules are imported after the
    hypothesis plugin loads the profile named on the command line."""
    default = settings.get_profile("default").max_examples
    return count * settings().max_examples // default


@pytest.fixture
def matching_pennies() -> NestedGame:
    space = StateSpace(states=("w",), prior={"w": 1.0})
    partitions = (
        InformationPartition(player=1, atom_of={"w": "a"}),
        InformationPartition(player=2, atom_of={"w": "b"}),
    )
    actions = (("H", "T"), ("H", "T"))
    values = {}
    for a1 in "HT":
        for a2 in "HT":
            u1 = 1.0 if a1 == a2 else -1.0
            values[("w", (a1, a2))] = (u1, -u1)
    return NestedGame(
        space=space,
        partitions=partitions,
        payoffs=PayoffTensor(actions=actions, values=values),
    )


@pytest.fixture
def informed_anchor() -> NestedGame:
    """Two states, player 1 informed, zero sum; equilibrium value 2/3.

    Row payoffs: state w1 gives [[2, 0], [0, 1]], state w2 gives
    [[0, 1], [2, 0]].  The uninformed column player's best mix has
    weight 1/3 on the first action, so the informed player guarantees
    max(2q, 1 - q) at q = 1/3.
    """
    space = StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.5})
    partitions = (
        InformationPartition(player=1, atom_of={"w1": "a1", "w2": "a2"}),
        InformationPartition(player=2, atom_of={"w1": "b", "w2": "b"}),
    )
    actions = (("L", "R"), ("L", "R"))
    row = {
        "w1": {("L", "L"): 2.0, ("L", "R"): 0.0, ("R", "L"): 0.0, ("R", "R"): 1.0},
        "w2": {("L", "L"): 0.0, ("L", "R"): 1.0, ("R", "L"): 2.0, ("R", "R"): 0.0},
    }
    values = {}
    for s, table in row.items():
        for prof, u in table.items():
            values[(s, prof)] = (u, -u)
    return NestedGame(
        space=space,
        partitions=partitions,
        payoffs=PayoffTensor(actions=actions, values=values),
    )


@pytest.fixture
def type_space_game() -> NestedGame:
    """Expanded from a 2x2 type space with one zero-mass profile dropped."""
    type_sets = (("t1", "t2"), ("s1", "s2"))
    joint = {
        ("t1", "s1"): 0.4,
        ("t1", "s2"): 0.2,
        ("t2", "s1"): 0.0,
        ("t2", "s2"): 0.4,
    }
    actions = (("L", "R"), ("U", "D"))
    payoffs = {}
    for tp in joint:
        for a1 in ("L", "R"):
            for a2 in ("U", "D"):
                bonus = 1.0 if tp[0] == "t1" else -1.0
                u1 = bonus if a1 == "L" else 0.5
                u2 = 1.0 if (a2 == "U") == (tp[1] == "s1") else 0.0
                payoffs[(tp, (a1, a2))] = (u1, u2)
    return from_type_space(type_sets, joint, payoffs, actions=actions)
