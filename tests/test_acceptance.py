"""Acceptance suite: one test and one printed line per criterion.

Every criterion re-derives its expected values through independent means
(path enumeration, direct products, exit codes) and checks the library's
answers as literal rational equalities, within a stated time budget.  Lines
are written to the real stdout so they stay visible under pytest capture.
"""
from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from markovtraj import (
    Rat,
    check_traj_split,
    check_cond_exp,
    check_const_chain_law,
    check_partial_traj_const,
    check_product_projection,
    check_product_split,
    comp_kernel,
    const_chain,
    content_at_depth,
    cylinder,
    cylinder_content,
    disjoint_union_cylinders,
    extract_witness,
    lift_cylinder,
    expectation_table,
    map_kernel,
    sample_trajectory,
    uniform,
)
from markovtraj.cli import main as cli_main
from markovtraj.measure import FiniteSpace

from conftest import (
    random_chain,
    random_factor_list,
    random_nested_family,
    random_prefix,
    record_acceptance,
    weather_chain,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

_POOL = None


def model_pool():
    """100 seeded random chains shared by the kernel-level criteria."""
    global _POOL
    if _POOL is None:
        rng = random.Random(20260815)
        _POOL = [random_chain(rng) for _ in range(100)]
    return _POOL


def finish(name: str, ok: bool, detail: str) -> None:
    line = f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    record_acceptance(line)
    assert ok, line


def depth_pairs(depth):
    return [(a, b) for b in range(depth + 1) for a in range(b + 1)]


def depth_triples(depth):
    return [
        (a, b, c)
        for a in range(depth + 1)
        for b in range(a, depth + 1)
        for c in range(b, depth + 1)
    ]


def test_1_kernel_composition():
    start = time.perf_counter()
    models = model_pool()
    failures = 0
    triples = 0
    for chain in models:
        for a, b, c in depth_triples(chain.max_depth):
            lhs = comp_kernel(chain.partial_traj(a, b), chain.partial_traj(b, c))
            if lhs != chain.partial_traj(a, c):
                failures += 1
            triples += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and len(models) >= 100 and elapsed < 30
    finish(
        "kernel-composition",
        ok,
        f"models={len(models)} triples={triples} failures={failures} t={elapsed:.2f}s budget=30s",
    )


def test_2_projectivity():
    start = time.perf_counter()
    models = model_pool()
    failures = 0
    triples = 0
    for chain in models:
        for a, b, c in depth_triples(chain.max_depth):
            restricted = map_kernel(
                chain.partial_traj(a, c), lambda p: p[: b + 1], chain.prefix_space(b)
            )
            if restricted != chain.partial_traj(a, b):
                failures += 1
            triples += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and len(models) >= 100 and elapsed < 30
    finish(
        "projectivity",
        ok,
        f"models={len(models)} triples={triples} failures={failures} t={elapsed:.2f}s budget=30s",
    )


def test_3_expectation_tower():
    start = time.perf_counter()
    models = model_pool()[:50]
    rng = random.Random(3)
    failures = 0
    functions = 0
    for chain in models:
        for _ in range(20):
            a = rng.randint(0, chain.max_depth)
            b = rng.randint(a, chain.max_depth)
            c = rng.randint(b, chain.max_depth)
            space_c = chain.prefix_space(c)
            f = {
                p: Rat(rng.randint(0, 9), rng.randint(1, 5))
                for p in space_c.points()
            }
            staged = expectation_table(chain, a, b, expectation_table(chain, b, c, f))
            if staged != expectation_table(chain, a, c, f):
                failures += 1
            functions += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and len(models) >= 50 and functions >= 50 * 20 and elapsed < 30
    finish(
        "expectation-tower",
        ok,
        f"models={len(models)} functions={functions} failures={failures} t={elapsed:.2f}s budget=30s",
    )


def test_4_cylinder_content():
    start = time.perf_counter()
    models = model_pool()
    rng = random.Random(4)
    failures = 0
    families = 0
    while families < 500:
        chain = models[families % len(models)]
        depth_c = rng.randint(0, chain.max_depth)
        space = chain.prefix_space(depth_c)
        size = rng.randint(1, min(space.size, 6))
        base_points = {space.point_at(i) for i in rng.sample(range(space.size), size)}
        cyl = cylinder(chain, depth_c, base_points)
        a = rng.randint(0, chain.max_depth)
        u = random_prefix(rng, chain, a)
        reference = cylinder_content(chain, a, u, cyl)
        # well-definedness: every admissible evaluation depth agrees
        for depth in range(max(a, depth_c), chain.max_depth + 1):
            if content_at_depth(chain, a, u, cyl, depth) != reference:
                failures += 1
        # additivity: split the base into a kept part and a lifted remainder
        points = sorted(base_points, key=space.index_of)
        keep = rng.randint(0, len(points))
        parts = []
        if keep:
            parts.append(cylinder(chain, depth_c, points[:keep]))
        rest = points[keep:]
        if rest:
            deeper = min(depth_c + 1, chain.max_depth)
            lifted = lift_cylinder(chain, cylinder(chain, depth_c, rest), deeper)
            lifted_points = lifted.base.points()
            cut = rng.randint(1, len(lifted_points)) if len(lifted_points) > 1 else 1
            parts.append(cylinder(chain, deeper, lifted_points[:cut]))
            if lifted_points[cut:]:
                parts.append(cylinder(chain, deeper, lifted_points[cut:]))
        total = sum(
            (cylinder_content(chain, a, u, part) for part in parts), Rat(0)
        )
        union = disjoint_union_cylinders(chain, parts)
        if total != reference or cylinder_content(chain, a, u, union) != reference:
            failures += 1
        families += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and families >= 500 and elapsed < 10
    finish(
        "cylinder-content",
        ok,
        f"families={families} failures={failures} t={elapsed:.2f}s budget=10s",
    )


def test_5_witness_extraction():
    start = time.perf_counter()
    models = model_pool()
    rng = random.Random(5)
    failures = 0
    families = 0
    while families < 200:
        chain = models[families % len(models)]
        a = rng.randint(0, chain.max_depth)
        u = random_prefix(rng, chain, a)
        family = random_nested_family(rng, chain, u)
        contents = [cylinder_content(chain, a, u, c) for c in family]
        eps = min(contents) / 2
        witness = extract_witness(chain, a, u, family, eps)
        # brute-force cross-check, straight from the definitions
        if witness[: a + 1] != u:
            failures += 1
        for c in family:
            if witness[: c.depth + 1] not in set(c.base.points()):
                failures += 1
        families += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and families >= 200 and elapsed < 30
    finish(
        "witness-extraction",
        ok,
        f"families={families} failures={failures} t={elapsed:.2f}s budget=30s",
    )


def test_6_conditioning_and_splitting():
    start = time.perf_counter()
    models = model_pool()[:50]
    rng = random.Random(6)
    failures = 0
    checks = 0
    for chain in models:
        space_d = chain.prefix_space(chain.max_depth)
        f = {
            p: Rat(rng.randint(-9, 9), rng.randint(1, 5)) for p in space_d.points()
        }
        for a, b in depth_pairs(chain.max_depth):
            u = random_prefix(rng, chain, a)
            if not check_cond_exp(chain, a, u, b, f):
                failures += 1
            if not check_traj_split(chain, a, b):
                failures += 1
            checks += 2
    elapsed = time.perf_counter() - start
    ok = failures == 0 and len(models) >= 50 and elapsed < 60
    finish(
        "conditional-expectation",
        ok,
        f"models={len(models)} checks={checks} failures={failures} t={elapsed:.2f}s budget=60s",
    )


def test_7_product_measures():
    start = time.perf_counter()
    rng = random.Random(7)
    failures = 0
    lists = 0
    for _ in range(50):
        marginals = random_factor_list(rng)
        depth = len(marginals) - 1
        chain = const_chain(marginals)
        if not check_const_chain_law(chain, marginals):
            failures += 1
        for a, b in depth_pairs(depth):
            if not check_partial_traj_const(chain, marginals, a, b):
                failures += 1
            if not check_product_split(marginals, a, b):
                failures += 1
            if not check_product_projection(marginals, a, b):
                failures += 1
        lists += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and lists >= 50 and elapsed < 30
    finish(
        "product-measures",
        ok,
        f"factor_lists={lists} failures={failures} t={elapsed:.2f}s budget=30s",
    )


def test_8_sampler_statistics():
    start = time.perf_counter()
    n = 100_000
    tolerance = Rat(1, 100)
    failures = 0

    coin = const_chain([uniform(FiniteSpace("C", ["H", "T"]))] * 11)
    rng = random.Random(0)
    heads = [0] * 11
    first = coin.spaces[0]
    first_dist = uniform(first)
    for _ in range(n):
        traj = sample_trajectory(coin, (first_dist.sample(rng),), rng)
        for i, state in enumerate(traj):
            if state == "H":
                heads[i] += 1
    coin_devs = [abs(Rat(h, n) - Rat(1, 2)) for h in heads]
    if any(dev > tolerance for dev in coin_devs):
        failures += 1

    weather = weather_chain(3)
    rng = random.Random(0)
    hits = 0
    for _ in range(n):
        traj = sample_trajectory(weather, ("S",), rng)
        if traj[1] == "S" and traj[2] == "S":
            hits += 1
    weather_dev = abs(Rat(hits, n) - Rat(9, 16))
    if weather_dev > tolerance:
        failures += 1

    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60
    max_coin = max(coin_devs)
    finish(
        "sampler-statistics",
        ok,
        f"samples={n} max_coin_dev={float(max_coin):.4f} weather_dev={float(weather_dev):.4f} "
        f"tol=0.01 t={elapsed:.2f}s budget=60s",
    )


def test_9_cli_golden(tmp_path, capsys):
    start = time.perf_counter()
    failures = []
    for name in ("weather", "coin", "drift"):
        code = cli_main(["verify", "--model", str(MODELS / f"{name}.json")])
        if code != 0:
            failures.append(f"verify {name} exited {code}")

    doc = json.loads((MODELS / "weather.json").read_text())
    doc["steps"][1]["rows"]["S"]["S"] = "2/3"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = cli_main(["verify", "--model", str(broken)])
    if code != 2:
        failures.append(f"corrupted model exited {code}, wanted 2")

    code = cli_main([
        "witness", "--model", str(MODELS / "weather.json"),
        "--point", "S", "--cylinder", "1=S", "--eps", "13/16",
    ])
    if code != 3:
        failures.append(f"unsatisfiable witness exited {code}, wanted 3")

    capsys.readouterr()
    elapsed = time.perf_counter() - start
    ok = not failures
    detail = "; ".join(failures) if failures else f"runs=5 t={elapsed:.2f}s"
    finish("cli-golden", ok, detail)
