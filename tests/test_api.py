"""The public API, pinned: adding or removing a public name edits this list,
and README's Library example must print what it shows."""
import ast
from pathlib import Path

import markovtraj

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_library_example_prints_what_it_shows():
    # The first python block of README.md, run statement by statement: each
    # expression is followed by a `# ...` line showing its repr.
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = 0
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert lines[node.end_lineno] == f"# {value!r}"
            shown += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert shown == sum(line.startswith("# ") for line in lines) == 3
