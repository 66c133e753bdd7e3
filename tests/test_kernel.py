import random

import pytest

from markovtraj import (
    Dist,
    DomainError,
    FiniteSpace,
    Kernel,
    Rat,
    SubsetOf,
    TupleSpace,
    comp_kernel,
    comp_measure,
    dirac,
    map_kernel,
    prod_kernel,
    pushforward_dist,
    uniform,
)
from markovtraj.kernel import _couple

from conftest import random_dist

W = FiniteSpace("W", ["S", "R"])


def weather_step() -> Kernel:
    return Kernel(W, W, [Dist(W, ["3/4", "1/4"]), Dist(W, ["1/2", "1/2"])])


# ---- constructors ----


def test_kernel_validates_shape():
    with pytest.raises(DomainError):
        Kernel(W, W, [uniform(W)])  # one row for two points
    other = FiniteSpace("X", ["a", "b"])
    with pytest.raises(DomainError):
        Kernel(W, W, [uniform(W), uniform(other)])
    # Rows that are not a sequence of Dists: numbers, nothing, or a Kernel
    # where its rows belong.
    for rows in ([1, 2], None, weather_step()):
        with pytest.raises(DomainError, match="must be a sequence of Dist"):
            Kernel(W, W, rows)


# ---- algebra, frozen values ----


def test_map_kernel():
    target = FiniteSpace("P", ["dry", "wet"])
    relabel = map_kernel(
        weather_step(), lambda s: "dry" if s == "S" else "wet", target
    )
    assert relabel.row("S") == Dist(target, ["3/4", "1/4"])
    # a kernel whose rows are one shared object; each is pushed on its own
    const = Kernel(W, W, (Dist(W, ["1/3", "2/3"]),) * W.size)
    wet = lambda s: "dry" if s == "S" else "wet"
    pushed = map_kernel(const, wet, target)
    assert pushed == Kernel(W, target, [pushforward_dist(row, wet, target) for row in const.rows])
    assert pushed.row("R") == Dist(target, ["1/3", "2/3"])


def test_comp_kernel_two_steps():
    step = weather_step()
    two = comp_kernel(step, step)
    # 3/4 * 3/4 + 1/4 * 1/2
    assert two.row("S").weight_at("S") == Rat(11, 16)
    assert two.row("R").weight_at("S") == Rat(5, 8)


def test_comp_kernel_requires_matching_spaces():
    other = FiniteSpace("X", ["a", "b"])
    k = Kernel(other, other, [uniform(other)] * 2)
    with pytest.raises(DomainError):
        comp_kernel(weather_step(), k)


def test_comp_measure():
    # 1/2 * 3/4 + 1/2 * 1/2 on S
    assert comp_measure(uniform(W), weather_step()) == Dist(W, ["5/8", "3/8"])
    with pytest.raises(DomainError):
        comp_measure(uniform(FiniteSpace("X", ["a"])), weather_step())


def test_prod_kernel():
    step = weather_step()
    paired = prod_kernel(step, step)
    assert paired.row("S").weight_at(("S", "S")) == Rat(9, 16)
    first = map_kernel(paired, lambda pair: pair[0], W)
    assert first.row("S") == step.row("S")
    with pytest.raises(DomainError):
        prod_kernel(step, Kernel(FiniteSpace("X", ["a"]), W, [uniform(W)]))


def test_couple_on_the_pair_space():
    step = weather_step()
    joint = _couple(uniform(W), step.rows, TupleSpace([W, W]))
    # 1/2 * 3/4
    assert joint.weight_at(("S", "S")) == Rat(3, 8)
    second = pushforward_dist(joint, lambda pair: pair[1], W)
    assert second == comp_measure(uniform(W), step)
    first = pushforward_dist(joint, lambda pair: pair[0], W)
    assert first == uniform(W)


def test_kernel_equality_is_structural():
    assert weather_step() == weather_step()
    # equal rows held by distinct objects
    shared = Kernel(W, W, (uniform(W),) * W.size)
    assert shared == Kernel(W, W, [Dist(W, ["1/2", "1/2"]), uniform(W)])
    assert weather_step() != Kernel(W, W, [uniform(W), uniform(W)])


# ---- algebraic laws on random kernels ----


def random_kernel(rng, source, target):
    rows = []
    for _ in range(source.size):
        weights = [rng.randint(0, 4) for _ in range(target.size)]
        if not any(weights):
            weights[rng.randrange(target.size)] = 1
        total = sum(weights)
        rows.append(Dist(target, [Rat(w, total) for w in weights]))
    return Kernel(source, target, rows)


def spaces_for(rng, count):
    return [
        FiniteSpace(f"S{i}", [f"s{j}" for j in range(rng.randint(1, 3))])
        for i in range(count)
    ]


def test_composition_is_associative():
    rng = random.Random(2024)
    for _ in range(25):
        sa, sb, sc, sd = spaces_for(rng, 4)
        k1 = random_kernel(rng, sa, sb)
        k2 = random_kernel(rng, sb, sc)
        k3 = random_kernel(rng, sc, sd)
        assert comp_kernel(comp_kernel(k1, k2), k3) == comp_kernel(k1, comp_kernel(k2, k3))


def test_identity_is_neutral():
    rng = random.Random(11)
    for _ in range(25):
        sa, sb = spaces_for(rng, 2)
        k = random_kernel(rng, sa, sb)
        id_a = Kernel(sa, sa, [dirac(sa, p) for p in sa.points()])
        id_b = Kernel(sb, sb, [dirac(sb, p) for p in sb.points()])
        assert comp_kernel(id_a, k) == k
        assert comp_kernel(k, id_b) == k


def test_comp_measure_agrees_with_dirac_rows():
    rng = random.Random(5)
    for _ in range(25):
        sa, sb = spaces_for(rng, 2)
        k = random_kernel(rng, sa, sb)
        for p in sa.points():
            assert comp_measure(dirac(sa, p), k) == k.row(p)


def test_coupling_mass_decomposes_into_sections():
    # joint mass of an arbitrary pair set = sum over x of mu(x) times the
    # kernel mass of the set's section at x
    rng = random.Random(31)
    for _ in range(25):
        sa, sb = spaces_for(rng, 2)
        mu = random_dist(rng, sa)
        k = random_kernel(rng, sa, sb)
        joint = _couple(mu, k.rows, TupleSpace([sa, sb]))
        pair_space = joint.space
        picked = SubsetOf(
            pair_space,
            rng.sample(range(pair_space.size), rng.randint(0, pair_space.size)),
        )

        def section(x):
            return SubsetOf(sb, [sb.index_of(y) for x2, y in picked.points() if x2 == x])

        def mass(d, subset):
            return sum((w for i, w in d.support() if i in subset.indices), Rat(0))

        split = sum(
            (mu.weight_at(x) * mass(k.row(x), section(x)) for x in sa.points()),
            Rat(0),
        )
        assert mass(joint, picked) == split
