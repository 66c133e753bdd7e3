"""Command line interface.

Verbs:
  validate  load a model file and report its shape
  marginal  law of the depth-b prefix from a starting prefix
  cylinder  list the prefixes a cylinder constraint allows
  content   probability of a cylinder from a starting prefix
  sample    seeded exact sampling of full trajectories, as counts
  witness   a common point of nested cylinders with contents >= eps
  condexp   conditional probability of a cylinder given b coordinates
  verify    run every identity check on the model and print the report

Prefixes are written as labels joined by "|" (so "S|R" is x_0=S, x_1=R)
and cylinder constraints as comma-separated coordinate clauses like
"1=S,2=S|R", where "|" separates allowed states.  Every listing comes in
enumeration order and is written from prefix numbers, each label read by
`label_at`: marginal's by `measure.dist_lines`, condexp's and sample's by
`report.table_lines`, and cylinder's from its box's increasing run of
numbers, so no set of prefixes is built.  Coordinates, counts, seeds and
rationals ("p/q" or "p") take ASCII digits only; answers print exactly
at any length.  Exit codes: 0 success, 1 failed verify checks, 2
malformed model file (or one too large to load in the memory available,
or holding a number past the interpreter's int/str digit limit), 3 bad
request (usage error, unknown state, depth out of range, violated
precondition, or a query that needs more memory than is available), 4
internal error (a violated internal invariant, or any other unexpected
exception, printed with its traceback), 141 stdout closed by its reader
(128 + SIGPIPE).
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import re
import sys

from .errors import (
    DomainError,
    InvariantError,
    ModelFormatError,
    PreconditionError,
)
from .measure import dist_lines
from .model_io import load_model
from .report import Report, table_lines
from .trajectory import (
    _box_indices,
    cond_exp,
    cylinder_content,
    cylinder_from_constraints,
    extract_witness,
    lift_cylinder,
    sample_trajectory,
    traj_marginal,
)
from .verify import run_verify


def _parse_point(text: str) -> tuple:
    return tuple(text.split("|"))


def _integer(text: str, what: str, signed: bool = False) -> int:
    """A coordinate, depth, count or seed: 1 to 18 ASCII digits, far past
    any depth a model can have or count it can draw, after a "-" only when
    `signed` (int() would also take other digits, "_" and "+")."""
    if not re.fullmatch("-?[0-9]{1,18}" if signed else "[0-9]{1,18}", text):
        raise DomainError(f"bad {what} {text!r}")
    return int(text)


def depth(text: str) -> int:
    """The argparse type of --at and --lift, named so that a bad value
    reads "invalid depth value"."""
    return _integer(text, "depth")


def _parse_cylinder_spec(spec: str) -> dict:
    constraints: dict = {}
    for clause in spec.split(","):
        clause = clause.strip()
        coord_text, sep, states_text = clause.partition("=")
        if not sep or not coord_text or not states_text:
            raise DomainError(f"bad cylinder clause {clause!r}; want COORD=STATE[|STATE..]")
        coord = _integer(coord_text, "coordinate")
        if coord in constraints:
            raise DomainError(f"coordinate {coord} constrained twice")
        constraints[coord] = states_text.split("|")
    return constraints


def _one_cylinder(chain, args):
    """The single --cylinder of a verb that takes one (witness takes several)."""
    if len(args.cylinder) != 1:
        raise DomainError("this verb takes exactly one --cylinder")
    return cylinder_from_constraints(chain, _parse_cylinder_spec(args.cylinder[0]))


def _cmd_validate(loaded, args) -> int:
    print(loaded.header())
    print("VALID")
    return 0


def _cmd_marginal(loaded, args) -> int:
    chain = loaded.chain
    point = _parse_point(args.point)
    dist = traj_marginal(chain, len(point) - 1, point, args.at)
    sys.stdout.writelines(f"{line}\n" for line in dist_lines(dist, " "))
    return 0


def _cmd_cylinder(loaded, args) -> int:
    chain = loaded.chain
    cyl = _one_cylinder(chain, args)
    if args.lift is not None:
        cyl = lift_cylinder(chain, cyl, args.lift)
    # A --cylinder spec is one box, whose prefix numbers come increasing.
    label_at = cyl.space.label_at
    for box in cyl.boxes:
        sys.stdout.writelines(f"{label_at(i)}\n" for i in _box_indices(cyl.space, box))
    return 0


def _cmd_content(loaded, args) -> int:
    chain = loaded.chain
    point = _parse_point(args.point)
    cyl = _one_cylinder(chain, args)
    print(cylinder_content(chain, len(point) - 1, point, cyl))
    return 0


def _cmd_sample(loaded, args) -> int:
    samples = _integer(args.samples, "--samples")
    seed = _integer(args.seed, "--seed", signed=True)
    chain = loaded.chain
    rng = random.Random(seed)
    if args.point is None and loaded.marginals is None:
        raise DomainError("a chain file does not say how to draw coordinate 0; give --point")
    start = None if args.point is None else _parse_point(args.point)
    counts: dict = {}
    for _ in range(samples):
        prefix = start if start is not None else (loaded.marginals[0].sample(rng),)
        traj = sample_trajectory(chain, prefix, rng)
        counts[traj] = counts.get(traj, 0) + 1
    space = chain.prefix_space(chain.max_depth)
    entries = sorted((space.index_of(t), count) for t, count in counts.items())
    sys.stdout.writelines(f"{line}\n" for line in table_lines(space, entries, " "))
    return 0


def _cmd_witness(loaded, args) -> int:
    chain = loaded.chain
    point = _parse_point(args.point)
    cylinders = [cylinder_from_constraints(chain, _parse_cylinder_spec(s)) for s in args.cylinder]
    # extract_witness reads the "p/q" text by the model file's rule
    witness = extract_witness(chain, len(point) - 1, point, cylinders, args.eps)
    print(chain.prefix_space(len(witness) - 1).format_point(witness))
    return 0


def _cmd_condexp(loaded, args) -> int:
    chain = loaded.chain
    cyl = _one_cylinder(chain, args)
    table = cond_exp(chain, args.at, cyl)  # keyed in enumeration order
    lines = table_lines(chain.prefix_space(args.at), enumerate(table.values()), " ")
    sys.stdout.writelines(f"{line}\n" for line in lines)
    return 0


def _cmd_verify(loaded, args) -> int:
    report: Report = run_verify(loaded)
    print(report.render())
    return report.exit_code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (bad request); exit 2 means a malformed model."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = _Parser(
        prog="markovtraj",
        description="Exact trajectory measures of finite-depth Markov chains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="path to a model JSON file")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "load a model file and report its shape")

    p = add("marginal", _cmd_marginal, "law of the depth-b prefix from a start prefix")
    p.add_argument("--point", required=True, help='start prefix, e.g. "S|R"')
    p.add_argument("--at", type=depth, required=True, help="target depth b")

    p = add("cylinder", _cmd_cylinder, "list the prefixes a cylinder allows")
    p.add_argument("--cylinder", action="append", required=True, help='e.g. "1=S,2=S|R"')
    p.add_argument("--lift", type=depth, help="describe the cylinder at this depth")

    p = add("content", _cmd_content, "probability of a cylinder from a start prefix")
    p.add_argument("--point", required=True)
    p.add_argument("--cylinder", action="append", required=True)

    p = add("sample", _cmd_sample, "seeded exact sampling, printed as counts")
    p.add_argument("--point", help="start prefix; product files may omit it")
    p.add_argument("--seed", default="0")
    p.add_argument("--samples", default="10000")

    p = add("witness", _cmd_witness, "common point of nested cylinders")
    p.add_argument("--point", required=True)
    p.add_argument("--cylinder", action="append", required=True,
                   help="repeat for a nested family, outermost first")
    p.add_argument("--eps", required=True, help="content lower bound, e.g. 1/4")

    p = add("condexp", _cmd_condexp, "conditional cylinder probability table")
    p.add_argument("--cylinder", action="append", required=True)
    p.add_argument("--at", type=depth, required=True, help="condition on depths 0..b")

    add("verify", _cmd_verify, "run all identity checks and print a report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The model loads under the interpreter's int/str digit limit; the verb
    # runs without it, so that an exact answer prints at any length.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        loaded = load_model(args.model)
        if limit:
            sys.set_int_max_str_digits(0)
        code = args.func(loaded, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone: send what is left to os.devnull, so that the
        # flush at exit cannot fail again, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        pass  # reported below, once the partial answer is freed
    except Exception as exc:
        # A fault in the library: exit 4, not the interpreter's 1, which
        # means a failed verify check.  traceback is imported here, so that
        # a run without a fault does not load it.
        import traceback

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print("error: the request needs more memory than is available", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
