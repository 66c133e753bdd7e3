"""Exact-rational Markov kernel algebra and finite-depth trajectory measures.

The package turns the classical construction of a process law from a
family of history-dependent transition kernels into finite, exact
computations: every identity it claims can be checked as literal equality
of rationals.  See the README for the model file format and the CLI.
"""
from .errors import (
    DomainError,
    InvariantError,
    MarkovTrajError,
    ModelFormatError,
    PreconditionError,
)
from .kernel import (
    Kernel,
    comp_kernel,
    comp_measure,
    const_kernel,
    map_kernel,
    prod_kernel,
)
from .measure import (
    Dist,
    FiniteSpace,
    SubsetOf,
    TupleSpace,
    dirac,
    product_dist,
    pushforward_dist,
    uniform,
)
from .model_io import LoadedModel, load_model, model_from_dict
from .product import (
    check_const_chain_law,
    check_partial_traj_const,
    check_product_projection,
    check_product_split,
    const_chain,
    product_prefix_dist,
)
from .rational import Rat
from .report import Report
from .trajectory import (
    ChainModel,
    Cylinder,
    check_cond_exp,
    check_traj_split,
    cond_exp,
    content_at_depth,
    cylinder,
    cylinder_content,
    cylinder_from_constraints,
    disjoint_union_cylinders,
    expectation_table,
    extract_witness,
    intersect_cylinders,
    lift_cylinder,
    sample_trajectory,
    traj_marginal,
)
from .verify import run_verify

__all__ = [
    "ChainModel",
    "Cylinder",
    "Dist",
    "DomainError",
    "FiniteSpace",
    "InvariantError",
    "Kernel",
    "LoadedModel",
    "MarkovTrajError",
    "ModelFormatError",
    "PreconditionError",
    "Rat",
    "Report",
    "SubsetOf",
    "TupleSpace",
    "check_cond_exp",
    "check_const_chain_law",
    "check_partial_traj_const",
    "check_product_projection",
    "check_product_split",
    "check_traj_split",
    "comp_kernel",
    "comp_measure",
    "cond_exp",
    "const_chain",
    "const_kernel",
    "content_at_depth",
    "cylinder",
    "cylinder_content",
    "cylinder_from_constraints",
    "dirac",
    "disjoint_union_cylinders",
    "expectation_table",
    "extract_witness",
    "intersect_cylinders",
    "lift_cylinder",
    "load_model",
    "map_kernel",
    "model_from_dict",
    "prod_kernel",
    "product_dist",
    "product_prefix_dist",
    "pushforward_dist",
    "run_verify",
    "sample_trajectory",
    "traj_marginal",
    "uniform",
]
