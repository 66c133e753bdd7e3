"""The public API, pinned: adding or removing a public name edits this list."""
import markovtraj

PUBLIC = [
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


def test_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert markovtraj.__all__ == PUBLIC


def test_all_has_no_duplicates():
    assert len(set(markovtraj.__all__)) == len(markovtraj.__all__)


def test_every_public_name_resolves():
    for name in markovtraj.__all__:
        assert getattr(markovtraj, name) is not None, name
