import random

import pytest

from markovtraj import (
    Dist,
    DomainError,
    FiniteSpace,
    Rat,
    check_const_chain_law,
    check_partial_traj_const,
    check_product_projection,
    check_product_split,
    const_chain,
    product_prefix_dist,
    uniform,
)
from markovtraj.measure import dirac, product_dist
from markovtraj.product import partial_traj_const_sides

from conftest import random_dist, random_factor_list


def coin_marginals(depth):
    space = FiniteSpace("C", ["H", "T"])
    return [uniform(space)] * (depth + 1)


def random_marginals(rng, depth):
    return [
        random_dist(rng, FiniteSpace(f"X{i}", [f"s{j}" for j in range(rng.randint(2, 3))]))
        for i in range(depth + 1)
    ]


def test_const_chain_shape():
    chain = const_chain(coin_marginals(4))
    assert chain.max_depth == 4
    assert chain.steps[2] == (uniform(FiniteSpace("C", ["H", "T"])),)
    with pytest.raises(DomainError):
        const_chain([])


def test_const_chain_rows_ignore_history():
    rng = random.Random(8)
    marginals = random_marginals(rng, 3)
    chain = const_chain(marginals)
    for n, step in enumerate(chain.steps):
        assert len(step) == 1 and step[0] is marginals[n + 1]


def test_product_prefix_dist_frozen():
    marginals = coin_marginals(4)
    for b in range(5):
        d = product_prefix_dist(marginals, b)
        # each prefix of b+1 fair flips has weight 2^-(b+1)
        assert all(w == Rat(1, 2 ** (b + 1)) for _, w in d.support())
    with pytest.raises(DomainError):
        product_prefix_dist(marginals, 5)


def test_initial_prefix_dist():
    d = Dist(FiniteSpace("C", ["H", "T"]), ["1/3", "2/3"])
    start = product_prefix_dist([d], 0)
    assert start.weight_at(("H",)) == Rat(1, 3)


def test_partial_traj_const_frozen():
    marginals = coin_marginals(3)
    chain = const_chain(marginals)
    row = chain.partial_traj(0, 2).row(("H",))
    assert row.weight_at(("H", "T", "H")) == Rat(1, 4)
    assert row.weight_at(("T", "T", "H")) == 0


def test_check_partial_traj_const():
    rng = random.Random(99)
    for _ in range(5):
        marginals = random_marginals(rng, rng.randint(1, 4))
        chain = const_chain(marginals)
        for a in range(chain.max_depth + 1):
            for b in range(a, chain.max_depth + 1):
                assert check_partial_traj_const(chain, marginals, a, b)
    with pytest.raises(DomainError):
        check_partial_traj_const(chain, marginals, 1, 0)


def _dirac_product_rows(chain, marginals, a, b):
    """The (a, b) rows of the constant-chain form, one product per depth-a
    prefix: a point mass on each of its coordinates, then marginals
    a+1 .. b."""
    rows = []
    for prefix in chain.prefix_space(a).points():
        factors = [dirac(space, s) for space, s in zip(chain.spaces, prefix)]
        factors.extend(marginals[a + 1 : b + 1])
        rows.append(product_dist(factors))
    return rows


def test_product_form_rows_are_the_dirac_products():
    # The literal side shifts one tail product per row; on the 50 factor
    # lists of the product-measures acceptance criterion it equals the
    # per-prefix product of point masses and marginals, row for row.
    rng = random.Random(7)
    for _ in range(50):
        marginals = random_factor_list(rng)
        chain = const_chain(marginals)
        for a in range(chain.max_depth + 1):
            for b in range(a, chain.max_depth + 1):
                _, literal = partial_traj_const_sides(chain, marginals, a, b)
                assert list(literal.rows) == _dirac_product_rows(chain, marginals, a, b)
    # marginals on other spaces than the chain's, or too few of them
    chain = const_chain(marginals)
    others = [random_dist(rng, FiniteSpace("Y", ["y0", "y1"])) for _ in marginals]
    for wrong in (others, marginals[:-1]):
        with pytest.raises(DomainError):
            partial_traj_const_sides(chain, wrong, 0, chain.max_depth)


def test_check_product_split():
    rng = random.Random(100)
    for _ in range(5):
        marginals = random_marginals(rng, rng.randint(1, 4))
        top = len(marginals) - 1
        for a in range(top + 1):
            for b in range(a, top + 1):
                assert check_product_split(marginals, a, b)
    with pytest.raises(DomainError):
        check_product_split(marginals, 0, len(marginals))


def test_check_product_projection():
    rng = random.Random(102)
    for _ in range(5):
        marginals = random_marginals(rng, rng.randint(1, 4))
        top = len(marginals) - 1
        for a in range(top + 1):
            for b in range(a, top + 1):
                assert check_product_projection(marginals, a, b)
    with pytest.raises(DomainError):
        check_product_projection(marginals, 1, 0)


def test_check_const_chain_law():
    rng = random.Random(101)
    for _ in range(5):
        marginals = random_marginals(rng, rng.randint(1, 4))
        assert check_const_chain_law(const_chain(marginals), marginals)


def test_const_chain_law_fails_for_non_product_chain(weather):
    # the weather chain is genuinely history-dependent, so no product matches
    space = weather.spaces[0]
    marginals = [uniform(space)] * 4
    assert not check_partial_traj_const(weather, marginals, 0, 3)
