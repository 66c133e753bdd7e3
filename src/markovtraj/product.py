"""Finite products of distributions as chains with constant steps.

Implements:
  * const_chain: the ChainModel whose step at every depth ignores the
    prefix and draws the next coordinate from a fixed marginal, so its
    trajectory law is the product of the marginals.
  * product_prefix_dist: truncated products on prefix spaces.
  * check_partial_traj_const: the partial-trajectory kernel of a constant
    chain is a point mass on the given prefix times the product of the
    remaining marginals, built as one tail product whose entries each row
    shifts by its prefix number.
  * check_product_split: a product over 0..b re-associates as the product
    over 0..a coupled with the product over a+1..b, by index on the depth-b
    prefix space (kernel._couple).
  * check_product_projection: truncated products are projective under
    prefix restriction, taken by index (measure._restrict).
  * check_const_chain_law: feeding the first marginal into the chain's
    (0, D) kernel recovers the full product.

These are the checks that pin down the product measure as a special case
of the trajectory construction rather than a separate definition.  Each
compares the two sides returned by its *_sides function, which the
`verify` report renders too.
"""
from __future__ import annotations

from typing import Sequence

from .errors import DomainError
from .kernel import Kernel, _couple, comp_measure
from .measure import Dist, _restrict, product_dist
from .trajectory import ChainModel, _check_depth_pair, _check_int


def const_chain(marginals: Sequence[Dist]) -> ChainModel:
    """Chain with state spaces taken from the marginals and constant steps:
    step n is the one row marginals[n + 1], read by every prefix."""
    marginals = tuple(marginals)
    if not marginals:
        raise DomainError("a constant chain needs at least one marginal")
    return ChainModel([m.space for m in marginals], [(d,) for d in marginals[1:]])


def product_prefix_dist(marginals: Sequence[Dist], depth: int) -> Dist:
    """Product of the first depth+1 marginals, on the depth-`depth` prefix space."""
    _check_int(depth)
    if not 0 <= depth < len(marginals):
        raise DomainError(f"depth {depth} outside 0..{len(marginals) - 1}")
    return product_dist(list(marginals[: depth + 1]))


def partial_traj_const_sides(
    chain: ChainModel, marginals: Sequence[Dist], a: int, b: int
) -> tuple:
    """Both sides of the constant-chain form of the (a, b) trajectory kernel.

    The left side is the (a, b) kernel of `chain`; the right side maps each
    depth-a prefix to the point mass on it times the product of marginals
    a+1 .. b.  That tail product is built once: with T its space, the
    depth-a prefix i followed by tail point t is the depth-b prefix
    i * |T| + t, so row i is the tail's entries shifted by i * |T|, over the
    tail's denominator.  Marginals on other spaces than the chain's raise
    DomainError.
    """
    _check_depth_pair(a, b, chain.max_depth)
    source, target = chain.prefix_space(a), chain.prefix_space(b)
    if a == b:
        width, denom, entries = 1, 1, ((0, 1),)  # the empty product
    else:
        tail = product_dist(list(marginals[a + 1 : b + 1]))
        if tail.space.components != target.factors[a + 1 : b + 1]:
            raise DomainError("the marginals a+1 .. b live on other spaces than the chain's")
        width, denom, entries = tail.space.size, tail._denom, tail._numerators
    rows = [
        Dist._from_numerators(target, denom, [(i * width + t, n) for t, n in entries])
        for i in range(source.size)
    ]
    return chain.partial_traj(a, b), Kernel(source, target, rows)


def check_partial_traj_const(
    chain: ChainModel, marginals: Sequence[Dist], a: int, b: int
) -> bool:
    """Exact check of the constant-chain form of the trajectory kernel."""
    kern, literal = partial_traj_const_sides(chain, marginals, a, b)
    return kern == literal


def product_split_sides(marginals: Sequence[Dist], a: int, b: int) -> tuple:
    """Both sides of the re-association of a product across a cut after depth a.

    The left side couples head, the product over coordinates 0..a, with the
    independent tail product over a+1..b, onto the depth-b prefix space as
    prefix i * |tail space| + j; the right side is the product over 0..b.
    For a == b the tail is the empty product and the head is the left side.
    """
    _check_depth_pair(a, b, len(marginals) - 1)
    whole = product_prefix_dist(marginals, b)
    head = product_prefix_dist(marginals, a)
    if a == b:
        return head, whole
    tail = product_dist(list(marginals[a + 1 : b + 1]))
    return _couple(head, (tail,), whole.space), whole


def check_product_split(marginals: Sequence[Dist], a: int, b: int) -> bool:
    """Exact check that products re-associate across a cut after depth a."""
    flattened, whole = product_split_sides(marginals, a, b)
    return flattened == whole


def product_projection_sides(marginals: Sequence[Dist], a: int, b: int) -> tuple:
    """Both sides of the projectivity of truncated products.

    The left side restricts the product over coordinates 0..b to 0..a, by
    index (see measure._restrict); the right side is the product over 0..a.
    """
    _check_depth_pair(a, b, len(marginals) - 1)
    longer = product_prefix_dist(marginals, b)
    shorter = product_prefix_dist(marginals, a)
    return _restrict(longer, shorter.space), shorter


def check_product_projection(marginals: Sequence[Dist], a: int, b: int) -> bool:
    """Exact check that restricting a truncated product drops factors."""
    restricted, shorter = product_projection_sides(marginals, a, b)
    return restricted == shorter


def const_chain_law_sides(chain: ChainModel, marginals: Sequence[Dist]) -> tuple:
    """The chain's full law from the first marginal, and the full product."""
    start = product_prefix_dist(marginals, 0)
    law = comp_measure(start, chain.partial_traj(0, chain.max_depth))
    return law, product_prefix_dist(marginals, chain.max_depth)


def check_const_chain_law(chain: ChainModel, marginals: Sequence[Dist]) -> bool:
    """Exact check that the chain's full law is the product of the marginals."""
    law, product = const_chain_law_sides(chain, marginals)
    return law == product
