"""Finite products of distributions as chains with constant steps.

Implements:
  * const_chain: the ChainModel whose step at every depth ignores the
    prefix and draws the next coordinate from a fixed marginal, so its
    trajectory law is the product of the marginals.
  * product_prefix_dist: truncated products on prefix spaces.
  * check_partial_traj_const: the partial-trajectory kernel of a constant
    chain is a point mass on the given prefix times the product of the
    remaining marginals.
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

import itertools
import operator
from typing import Sequence

from .errors import DomainError
from .kernel import Kernel, _couple, comp_measure, const_kernel
from .measure import Dist, _restrict, dirac, product_dist
from .trajectory import ChainModel, _check_depth_pair, _check_int


def const_chain(marginals: Sequence[Dist]) -> ChainModel:
    """Chain with state spaces taken from the marginals and constant steps."""
    marginals = tuple(marginals)
    if not marginals:
        raise DomainError("a constant chain needs at least one marginal")
    sizes = itertools.accumulate((m.space.size for m in marginals), operator.mul)
    steps = [(d,) * size for d, size in zip(marginals[1:], sizes)]
    return ChainModel([m.space for m in marginals], steps)


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
    a+1 .. b.  Marginals on other spaces than the chain's raise DomainError.
    """
    _check_depth_pair(a, b, chain.max_depth)
    rows = []
    for prefix in chain.prefix_space(a).points():
        factors = [dirac(space, s) for space, s in zip(chain.spaces, prefix)]
        factors.extend(marginals[a + 1 : b + 1])
        rows.append(product_dist(factors))
    literal = Kernel(chain.prefix_space(a), chain.prefix_space(b), rows)
    return chain.partial_traj(a, b), literal


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
    return _couple(head, const_kernel(head.space, tail), whole.space), whole


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
