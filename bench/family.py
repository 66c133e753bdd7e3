"""Seeded model families, written as model files for the library to load.

Every generated model is a plain model document (see the README's "Model
files"); the library only ever sees these files.  Sizes are fixed per
workload and only the weights, state placement and query arguments come
from the seed, so that the cost of a pass is nearly the same for every
seed and figures from different seeds can be compared.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path


# Every row is a composition of this total, so denominators divide 12 and
# the cost of exact arithmetic varies little from seed to seed.
ROW_TOTAL = 12


def _weights(rng, n: int, allow_zero: bool) -> list:
    """Random weights k / 12 on n states (all positive unless allow_zero)."""
    if allow_zero:
        cuts = sorted(rng.randint(0, ROW_TOTAL) for _ in range(n - 1))
    else:
        cuts = sorted(rng.sample(range(1, ROW_TOTAL), n - 1))
    bounds = [0, *cuts, ROW_TOTAL]
    return [Fraction(hi - lo, ROW_TOTAL) for lo, hi in zip(bounds, bounds[1:])]


def _row(labels: list, weights: list) -> dict:
    return {s: str(w) for s, w in zip(labels, weights) if w}


def weather_doc(rng, depth: int) -> dict:
    """Two-state last-state chain with random positive rows, like weather.json."""
    labels = ["S", "R"]
    rows = {s: _row(labels, _weights(rng, 2, False)) for s in labels}
    return {
        "maxDepth": depth,
        "spaces": [{"id": "W", "states": labels}],
        "steps": [{"n": n, "kind": "last-state", "rows": rows} for n in range(depth)],
    }


def table_doc(rng, depth: int) -> dict:
    """Random `table` chain after tests/conftest.random_chain.

    The recipe draws 2 or 3 states per coordinate and 0-4 weight units per
    state; here the middle coordinate has 3 states and the others 2, and
    rows are compositions of 12 with zeros allowed, which keeps the cost
    nearly the same for every seed.
    """
    sizes = [2] * (depth + 1)
    sizes[depth // 2] = 3
    labels = [[f"s{j}" for j in range(k)] for k in sizes]
    steps = []
    for n in range(depth):
        rows = {
            "|".join(p): _row(labels[n + 1], _weights(rng, sizes[n + 1], True))
            for p in itertools.product(*labels[: n + 1])
        }
        steps.append({"n": n, "kind": "table", "rows": rows})
    return {
        "maxDepth": depth,
        "spaces": [{"id": f"X{i}", "states": ls} for i, ls in enumerate(labels)],
        "steps": steps,
    }


def product_doc(rng, labels: list, factors: int) -> dict:
    """Product of random positive marginals on the given labels."""
    return {
        "kind": "product",
        "factors": [
            _row(labels, _weights(rng, len(labels), False)) for _ in range(factors)
        ],
    }


def query_family(rng, root: Path) -> list:
    """Models of `cold-query` and `session`, as (name, document) pairs."""
    models = [(f"weather-d{d}", weather_doc(rng, d)) for d in range(6, 11)]
    models += [(f"table-d{d}", table_doc(rng, d)) for d in range(6, 9)]
    models.append(("drift", _shipped(root, "drift")))
    models.append(("tri-x5", product_doc(rng, ["A", "B", "C"], 5)))
    return models


def verify_family(rng, root: Path) -> list:
    """Models of `verify`, as (name, document, passes-per-op-list) triples.

    Cheap models appear several times per pass, so a pass of about six
    seconds still holds 26 ops.  The repeat counts put the median inside
    the run of models/coin.json ops and the 90th percentile inside the run
    of depth-6 weather ops, so neither percentile falls on the gap between
    two kinds of model, where a small shift in cost would move it a lot.
    """
    return [
        ("weather", _shipped(root, "weather"), 3),
        ("drift", _shipped(root, "drift"), 3),
        ("coin", _shipped(root, "coin"), 4),
        ("weather-d4", weather_doc(rng, 4), 3),
        ("table-d4", table_doc(rng, 4), 3),
        ("tri-x4", product_doc(rng, ["A", "B", "C"], 4), 2),
        ("weather-d5", weather_doc(rng, 5), 2),
        ("coin-x6", product_doc(rng, ["H", "T"], 6), 2),
        ("table-d5", table_doc(rng, 5), 1),
        ("weather-d6", weather_doc(rng, 6), 2),
        ("coin-x7", product_doc(rng, ["H", "T"], 7), 1),
    ]


def _shipped(root: Path, name: str) -> dict:
    with open(root / "models" / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def write_model(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return str(path)
