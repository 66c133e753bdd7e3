"""Shared fixtures, model builders, and independent oracles.

The brute-force helpers here enumerate paths directly from the step rows,
never through the kernel algebra under test, so they can serve as oracles
for it.  `forward_content` reads the model document alone, with no library
code at all, and reaches depths that path enumeration cannot.
"""
from __future__ import annotations

import itertools
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import markovtraj.trajectory
from markovtraj import (
    ChainModel,
    Dist,
    FiniteSpace,
    Rat,
)

# ---- acceptance reporting ----

ACCEPTANCE_LINES: list = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    # keep the one-line-per-criterion summary visible despite output capture
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


# ---- hand-written models ----

WEATHER_ROWS = {"S": ("3/4", "1/4"), "R": ("1/2", "1/2")}


def last_state_chain(space: FiniteSpace, rows: dict, depth: int) -> ChainModel:
    """Chain whose step at every depth depends only on the last state."""
    by_last = [Dist(space, rows[label]) for label in space.points()]
    return ChainModel([space] * (depth + 1), [by_last] * depth)


def weather_chain(depth: int = 3) -> ChainModel:
    return last_state_chain(FiniteSpace("W", ["S", "R"]), WEATHER_ROWS, depth)


@pytest.fixture
def weather() -> ChainModel:
    return weather_chain()


@pytest.fixture
def greedy_takes_the_lowest(monkeypatch):
    """Make the greedy of extract_witness take its lowest-scored successor:
    its one call of `max` with a key becomes `min`, so the point it builds
    can leave the cylinders."""

    def choose(*args, key=None):
        return max(*args) if key is None else min(*args, key=key)

    monkeypatch.setattr(markovtraj.trajectory, "max", choose, raising=False)


def weather_doc(depth: int) -> dict:
    """The model file of the weather chain (models/weather.json), to any depth."""
    rows = {"S": {"S": "3/4", "R": "1/4"}, "R": {"S": "1/2", "R": "1/2"}}
    return {
        "maxDepth": depth,
        "spaces": [{"id": "W", "states": ["S", "R"]}],
        "steps": [{"n": n, "kind": "last-state", "rows": rows} for n in range(depth)],
    }


# ---- child processes ----

SRC = Path(__file__).resolve().parent.parent / "src"


def run_capped(args, timeout: float, mib: int = 512) -> subprocess.CompletedProcess:
    """`python *args` with this package importable, in a child process whose
    address space is capped at `mib` MiB; the cap applies to the child only."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), preexec_fn=cap_memory, timeout=timeout,
    )


# ---- random models ----


def random_dist(rng: random.Random, space: FiniteSpace) -> Dist:
    """Random rational distribution; zero weights are allowed but not forced."""
    weights = [rng.randint(0, 4) for _ in range(space.size)]
    if not any(weights):
        weights[rng.randrange(space.size)] = 1
    total = sum(weights)
    return Dist(space, [Rat(w, total) for w in weights])


def random_chain(rng: random.Random, depth: int | None = None) -> ChainModel:
    """Random chain: 2-3 states per depth, depth 2-5, arbitrary step rows."""
    if depth is None:
        depth = rng.randint(2, 5)
    spaces = [
        FiniteSpace(f"X{i}", [f"s{j}" for j in range(rng.randint(2, 3))])
        for i in range(depth + 1)
    ]
    steps, size = [], 1  # size: the number of depth-n prefixes
    for n in range(depth):
        size *= spaces[n].size
        steps.append([random_dist(rng, spaces[n + 1]) for _ in range(size)])
    return ChainModel(spaces, steps)


def random_model_doc(rng: random.Random, depth: int | None = None) -> dict:
    """Random model document whose steps mix the "table", "last-state" and
    "const" kinds: 2-3 states per coordinate, depth 2-5 unless given.  A
    "table" step past depth 0 almost surely reads more than the last state,
    so the chain's markov_from falls anywhere in 0..depth."""
    if depth is None:
        depth = rng.randint(2, 5)
    labels = [[f"s{j}" for j in range(rng.randint(2, 3))] for _ in range(depth + 1)]

    def row(states: list) -> dict:
        weights = [rng.randint(0, 4) for _ in states]
        if not any(weights):
            weights[rng.randrange(len(states))] = 1
        total = sum(weights)
        return {s: f"{w}/{total}" for s, w in zip(states, weights) if w}

    steps = []
    for n in range(depth):
        kind = rng.choice(["table", "last-state", "const"])
        step = {"n": n, "kind": kind}
        if kind == "const":
            step["row"] = row(labels[n + 1])
        elif kind == "last-state":
            step["rows"] = {s: row(labels[n + 1]) for s in labels[n]}
        else:
            prefixes = itertools.product(*labels[: n + 1])
            step["rows"] = {"|".join(p): row(labels[n + 1]) for p in prefixes}
        steps.append(step)
    return {
        "maxDepth": depth,
        "spaces": [{"id": f"X{i}", "states": states} for i, states in enumerate(labels)],
        "steps": steps,
    }


def doc_chain(doc: dict) -> ChainModel:
    """The chain of a model document, built by ChainModel with no loader
    and so no size cap: each step's rows as the document gives them, one
    for "const", one per last state for "last-state" and one per prefix,
    in enumeration order, for "table"."""
    spaces = [FiniteSpace(e.get("id", f"X{i}"), e["states"]) for i, e in enumerate(doc["spaces"])]
    spaces *= (doc["maxDepth"] + 1) // len(spaces)

    def dist(space: FiniteSpace, row: dict) -> Dist:
        return Dist(space, [row.get(label, 0) for label in space.labels])

    steps = []
    for step in sorted(doc["steps"], key=lambda entry: entry["n"]):
        n, kind = step["n"], step["kind"]
        if kind == "const":
            rows = [step["row"]]
        elif kind == "last-state":
            rows = [step["rows"][state] for state in spaces[n].labels]
        else:
            prefixes = itertools.product(*(space.labels for space in spaces[: n + 1]))
            rows = [step["rows"]["|".join(p)] for p in prefixes]
        steps.append([dist(spaces[n + 1], row) for row in rows])
    return ChainModel(spaces, steps)


def random_prefix(rng: random.Random, chain: ChainModel, depth: int) -> tuple:
    return tuple(rng.choice(space.labels) for space in chain.spaces[: depth + 1])


def step_row(chain: ChainModel, n: int, prefix: tuple) -> Dist:
    """Step n's row at a depth-n prefix, by the rule of ChainModel: the
    prefix numbered i reads chain.steps[n][i % len(chain.steps[n])]."""
    rows = chain.steps[n]
    return rows[chain.prefix_space(n).index_of(prefix) % len(rows)]


def positive_extension(rng: random.Random, chain: ChainModel, prefix: tuple) -> tuple:
    """Extend to full depth through states of positive step weight."""
    p = tuple(prefix)
    for n in range(len(p) - 1, chain.max_depth):
        row = step_row(chain, n, p)
        choices = [row.space.point_at(i) for i, _ in row.support()]
        p = p + (rng.choice(choices),)
    return p


def random_nested_family(rng: random.Random, chain: ChainModel, start: tuple) -> list:
    """Nested cylinders, outermost first, all of positive content from `start`.

    Built around a positive-probability extension of `start`: the innermost
    base holds its restriction, each shallower base holds the restrictions
    of the deeper one plus random extras, so nesting holds by construction
    and every content is at least the extension's probability.
    """
    from markovtraj import cylinder

    traj = positive_extension(rng, chain, start)
    depths = sorted(rng.sample(range(chain.max_depth + 1), rng.randint(1, 3)))
    family = []
    inner_points = {traj[: depths[-1] + 1]}
    for depth in reversed(depths):
        points = {t[: depth + 1] for t in inner_points}
        for _ in range(rng.randint(0, 2)):
            points.add(random_prefix(rng, chain, depth))
        family.append(cylinder(chain, depth, points))
        inner_points = points
    family.reverse()
    return family


# ---- brute-force oracles ----


def brute_force_prefix_law(chain: ChainModel, prefix: tuple, b: int) -> dict:
    """Law of the depth-b prefix from `prefix`, by direct path enumeration.

    Walks the step rows one depth at a time and multiplies weights along
    every path, without touching the kernel algebra.
    """
    a = len(prefix) - 1
    if b <= a:
        return {prefix[: b + 1]: Rat(1)}
    acc = {tuple(prefix): Rat(1)}
    for n in range(a, b):
        nxt: dict = {}
        for p, w in acc.items():
            row = step_row(chain, n, p)
            for i, ws in row.support():
                q = p + (row.space.point_at(i),)
                nxt[q] = nxt.get(q, Rat(0)) + w * ws
        acc = nxt
    return acc


def brute_force_content(chain: ChainModel, prefix: tuple, constraints: dict) -> Rat:
    """Probability of {x_i in allowed_i} from `prefix`, by path enumeration."""
    depth = max(max(constraints), len(prefix) - 1)
    law = brute_force_prefix_law(chain, prefix, depth)
    total = Rat(0)
    for traj, w in law.items():
        if all(traj[i] in allowed for i, allowed in constraints.items()):
            total += w
    return total


def forward_content(doc: dict, prefix: tuple, constraints: dict) -> Fraction:
    """Probability of {x_i in allowed_i} from `prefix`, a tuple of labels, by
    a forward pass over the chain document `doc` alone: its labels, its step
    kinds and its weights read as Fractions, with no library code.

    The pass holds {window: probability} over the prefixes that meet every
    constraint so far.  The window is the whole prefix while a later step
    is "table", whose rows are keyed by it, and the last label after that,
    so past the last "table" step the work per depth is one row per state,
    not per path.
    """
    steps = {step["n"]: step for step in doc["steps"]}
    a = len(prefix) - 1
    depth = max(max(constraints), a)
    if any(prefix[i] not in allowed for i, allowed in constraints.items() if i <= a):
        return Fraction(0)
    last_table = max((n for n in range(a, depth) if steps[n]["kind"] == "table"), default=-1)

    def window(labels: tuple, k: int) -> tuple:
        return labels if k <= last_table else labels[-1:]

    law = {window(tuple(prefix), a): Fraction(1)}
    for n in range(a, depth):
        step = steps[n]
        allowed = constraints.get(n + 1)
        after: dict = {}
        for labels, p in law.items():
            if step["kind"] == "const":
                row = step["row"]
            elif step["kind"] == "last-state":
                row = step["rows"][labels[-1]]
            else:
                row = step["rows"]["|".join(labels)]
            for state, weight in row.items():
                if allowed is None or state in allowed:
                    key = window(labels + (state,), n + 1)
                    after[key] = after.get(key, 0) + p * Fraction(weight)
        law = after
    return sum(law.values(), Fraction(0))
