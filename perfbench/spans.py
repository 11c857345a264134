"""Spans around the calls into each nestnash module, recorded from outside.

The tracer replaces the public functions named in ``TARGETS`` with
wrappers that record one span per call: name, start, end, the span that
caused it, and the request (one ``solve`` call) it belongs to.  Modules
that imported a function by name (``from .game import validate_game``)
hold their own reference, so every such reference in a loaded
``nestnash`` module is re-pointed too.  Nothing under ``src/`` changes,
and ``uninstall`` puts every original back.

Spans are kept in memory and only recorded while ``active`` is set, so
checks that call the library between timed solves leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  The span name is the module's
# short name plus the function, which is also the metric prefix.
TARGETS = (
    ("nestnash.cli", "main", "cli.main"),
    ("nestnash.gamefile", "load_game", "gamefile.load_game"),
    ("nestnash.game", "validate_game", "game.validate_game"),
    ("nestnash.hierarchy", "build_hierarchy", "hierarchy.build_hierarchy"),
    ("nestnash.hierarchy", "check_properties", "hierarchy.check_properties"),
    ("nestnash.solver", "build_auxiliary_game", "solver.build_auxiliary_game"),
    ("nestnash.solver", "to_agent_form", "solver.to_agent_form"),
    ("nestnash.solver", "solve_nash", "solver.solve_nash"),
    ("nestnash.solver", "AgentFormGame.action_values", "solver.action_values"),
    ("nestnash.solver", "lift_strategy", "solver.lift_strategy"),
    ("nestnash.regret", "certify", "regret.certify"),
    ("nestnash.regret", "bayesian_regret", "regret.bayesian_regret"),
    ("nestnash.discretize", "build_hat_game", "discretize.build_hat_game"),
    ("nestnash.discretize", "certify_sup_gap", "discretize.certify_sup_gap"),
    (
        "nestnash.discretize",
        "probe_harsanyi_regret",
        "discretize.probe_harsanyi_regret",
    ),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS)


def _agents(args, result):
    return {"agents": len(result.agents)}


def _bytes_in(args, result):
    return {"bytes_in": os.path.getsize(args[0])}


# Counts read off a call's arguments or result at the span boundary.
NOTES = {"solver.to_agent_form": _agents, "gamefile.load_game": _bytes_in}


class Tracer:
    def __init__(self):
        self.active = False
        self.request = None
        # (span id, parent id, request, name, start, end, notes)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)  # placeholder: ids follow start order
            tracer._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                notes = None
                if note is not None and result is not None:
                    notes = note(args, result)
                tracer.spans[span_id] = (
                    span_id, parent, tracer.request, name, start, end, notes
                )

        return traced

    def install(self) -> None:
        loaded = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "nestnash" or key.startswith("nestnash.")
        ]
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            self._set(owner, attr, wrapped)
            if outer:
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end, notes in self.spans:
                row = {
                    "id": span_id,
                    "parent": parent,
                    "request": request,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                if notes:
                    row["notes"] = notes
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans) -> dict[tuple[str, str], float]:
    """Self time per (request, span name): duration minus the children's.

    Calls are synchronous, so a span's children are disjoint intervals
    inside it and their durations can simply be subtracted.
    """
    child = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[tuple[str, str], float] = defaultdict(float)
    for span_id, _, request, name, start, end, _ in spans:
        out[(request, name)] += (end - start) - child[span_id]
    return out


def call_counts(spans) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[span[3]] += 1
    return out


def note_totals(spans) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for *_, notes in spans:
        for key, value in (notes or {}).items():
            out[key] += value
    return out


def growth_exponent(sizes: dict[str, int], per_request: dict[str, float]) -> float:
    """Least-squares slope of log(seconds) against log(size), 0 if unfit.

    Needs sizes spanning at least 4x among requests with positive time;
    otherwise the slope says nothing and 0.0 is returned.
    """
    points = [
        (math.log(sizes[r]), math.log(t))
        for r, t in per_request.items()
        if t > 0.0 and sizes.get(r, 0) > 0
    ]
    if len(points) < 3:
        return 0.0
    xs = [x for x, _ in points]
    if max(xs) - min(xs) < math.log(4.0):
        return 0.0
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(y for _, y in points) / len(points)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx
