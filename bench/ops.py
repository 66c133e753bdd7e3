"""Op lists of the three workloads and the checks on their answers.

An op is one closed-loop request: `call()` is the timed part; `check()`
runs after the timer stops.  The first answer of an op is checked in full
against the oracle (or the recorded verify digest); later passes repeat
the same request, so their answers must equal that checked answer exactly.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction

from oracle import Oracle, fmt, satisfies

# sha256 of the `verify` stdout of the shipped models, by name, frozen from
# the library at the commit that added this benchmark: a change to the
# report bytes fails the check.
VERIFY_SHA256 = {
    "coin": "4ce7edbc2079634a9d0004d9acf39f548644e1c6d15ead68ba65179a12c59da8",
    "drift": "cafce99668c25c8d27adaf3a7e1c842df6892dab1c1ee6860d352f5f2ad92721",
    "weather": "1a40358f1b3e51b181146a195f637418ac8419c70bc399dee40cd9c1e15204ca",
}

SAMPLE_DRAWS = 200


class Op:
    """A request, `call()`, and the check of its answer, `check(result)`."""

    def __init__(self, label: str, call, verify, canon=None, rationals=None):
        self.label = label
        self.call = call
        self._verify = verify
        self._canon = canon or (lambda result: result)
        self._rationals = rationals or (lambda answer: ())
        self.checked = None
        self.denom_bits = 0

    def check(self, result) -> bool:
        answer = self._canon(result)
        if self.checked is not None:
            return answer == self.checked
        if not self._verify(answer):
            return False
        self.checked = answer
        self.denom_bits = max(
            (q.denominator.bit_length() for q in self._rationals(answer)), default=0
        )
        return True


def cli_op(label: str, cli, argv: list, expect) -> Op:
    """One in-process `markovtraj.cli.main(argv)`; `expect` judges its stdout."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return Op(label, call, lambda answer: answer[0] == 0 and expect(answer[1]),
              rationals=lambda answer: _rationals_in(answer[1]))


def _rationals_in(text: str):
    for token in text.split():
        if token.split("/")[0].lstrip("-").isdigit():
            yield Fraction(token)


# ---- argument generation ----


def _spec(constraints: dict) -> str:
    return ",".join(f"{i}={'|'.join(ok)}" for i, ok in sorted(constraints.items()))


def _random_constraints(rng, oracle: Oracle, coords) -> dict:
    """Allowed states drawn at random on each coordinate (content may be 0)."""
    out = {}
    for i in coords:
        labels = oracle.labels[i]
        out[i] = sorted(rng.sample(labels, rng.randint(1, len(labels) - 1)),
                        key=labels.index)
    return out


def _nested_family(rng, oracle: Oracle, prefix: tuple, coords: list) -> list:
    """Nested constraint sets, outermost first, around a positive path.

    Cylinder j constrains the first j + 1 coordinates with the same allowed
    sets, so each is inside the one before, and every allowed set holds the
    path's state, so every content from `prefix` is positive.
    """
    traj = oracle.positive_extension(rng, prefix)
    allowed = {}
    for i in coords:
        ok = {traj[i], rng.choice(oracle.labels[i])}
        allowed[i] = sorted(ok, key=oracle.labels[i].index)
    return [{i: allowed[i] for i in coords[: j + 1]} for j in range(len(coords))]


def _random_prefix(rng, oracle: Oracle, depth: int) -> tuple:
    return tuple(rng.choice(ls) for ls in oracle.labels[: depth + 1])


def _equals(expected, *args):
    """Predicate: the answer equals expected(*args), computed when first asked."""
    return lambda answer: answer == expected(*args)


def _sorted_law(oracle: Oracle, prefix: tuple, b: int) -> tuple:
    return tuple(sorted(oracle.law(prefix, b).items(), key=lambda kv: oracle.sort_key(kv[0])))


def _marginal_text(oracle: Oracle, prefix: tuple, b: int) -> str:
    return "".join(f"{fmt(p)} {w}\n" for p, w in _sorted_law(oracle, prefix, b))


def _condexp_text(oracle: Oracle, cons: dict, at: int) -> str:
    return "".join(f"{fmt(q)} {oracle.content(q, cons)}\n" for q in oracle.prefixes(at))


def _cylinder_text(oracle: Oracle, cons: dict, depth: int) -> str:
    return "".join(f"{fmt(q)}\n" for q in oracle.prefixes(depth) if satisfies(q, cons))


def _witness_ok(oracle: Oracle, prefix: tuple, family: list, witness: tuple) -> bool:
    depth = max(len(prefix) - 1, max(max(c) for c in family))
    return (
        len(witness) == depth + 1
        and witness[: len(prefix)] == prefix
        and all(satisfies(witness, c) for c in family)
    )


# ---- cold-query ----


def cold_query_ops(rng, cli, models: list) -> list:
    """Eight CLI queries per model; depths are fixed relative to maxDepth.

    Two of them are shallow (depth 2 on every model), as a CLI user also
    asks.  They put the 90th percentile inside the run of ops that cost
    about the same, instead of at its top edge, where one op crossing the
    gap to the next, much slower kind would move it by half.
    """
    ops = []
    for name, path, oracle in models:
        d = oracle.max_depth

        for point, at in ((_random_prefix(rng, oracle, 0), d),
                          (_random_prefix(rng, oracle, min(2, d - 1)), d - 1)):
            ops.append(cli_op(
                f"{name}:marginal", cli,
                ["marginal", "--model", path, "--point", fmt(point), "--at", str(at)],
                _equals(_marginal_text, oracle, point, at)))

        point = _random_prefix(rng, oracle, 0)
        cons = _random_constraints(rng, oracle, [rng.randint(1, d - 2), d - 1])
        ops.append(cli_op(f"{name}:content", cli,
                         ["content", "--model", path, "--point", fmt(point),
                          "--cylinder", _spec(cons)],
                         _equals(lambda o, p, c: f"{o.content(p, c)}\n", oracle, point, cons)))

        point = _random_prefix(rng, oracle, 1)
        family = _nested_family(rng, oracle, point, [rng.randint(2, d - 1), d])
        eps = oracle.content(point, family[-1])
        argv = ["witness", "--model", path, "--point", fmt(point), "--eps", str(eps)]
        for c in family:
            argv += ["--cylinder", _spec(c)]
        ops.append(cli_op(
            f"{name}:witness", cli, argv,
            lambda text, o=oracle, p=point, f=family:
                _witness_ok(o, p, f, tuple(text.rstrip("\n").split("|"))),
        ))

        cons = _random_constraints(rng, oracle, [rng.randint(1, d - 1), d])
        ops.append(cli_op(f"{name}:condexp", cli,
                         ["condexp", "--model", path, "--cylinder", _spec(cons),
                          "--at", str(d - 2)],
                         _equals(_condexp_text, oracle, cons, d - 2)))

        cons = _random_constraints(rng, oracle, [1, d - 1])
        ops.append(cli_op(f"{name}:cylinder", cli,
                         ["cylinder", "--model", path, "--cylinder", _spec(cons),
                          "--lift", str(d)],
                         _equals(_cylinder_text, oracle, cons, d)))

        point = _random_prefix(rng, oracle, 0)
        ops.append(cli_op(f"{name}:marginal", cli,
                         ["marginal", "--model", path, "--point", fmt(point), "--at", "2"],
                         _equals(_marginal_text, oracle, point, 2)))

        point = _random_prefix(rng, oracle, 0)
        cons = _random_constraints(rng, oracle, [1, 2])
        ops.append(cli_op(f"{name}:content", cli,
                         ["content", "--model", path, "--point", fmt(point),
                          "--cylinder", _spec(cons)],
                         _equals(lambda o, p, c: f"{o.content(p, c)}\n", oracle, point, cons)))
    return ops


# ---- session ----


def session_ops(rng, lib, models: list, chains: dict) -> list:
    """Eleven library queries per model, on the chains already loaded.

    Every model gets the same shapes: marginals from depths 0 and 2,
    cylinders on 1, 2 and 3 coordinates, witness families of 2 and 3
    cylinders, conditional expectations at depths 1 and D-1, and sampling
    from depths 0 and 1.  Only the coordinates and labels come from the
    seed, so the op mix costs about the same for every seed.
    """
    ops = []
    for name, _, oracle in models:
        d = oracle.max_depth
        chain = chains[name]

        for a, b in ((0, d), (2, d - 1)):
            point = _random_prefix(rng, oracle, a)
            ops.append(Op(
                f"{name}:traj_marginal",
                lambda a=a, p=point, b=b, c=chain: lib.traj_marginal(c, a, p, b),
                _equals(_sorted_law, oracle, point, b),
                canon=lambda dist: tuple((dist.space.point_at(i), w) for i, w in dist.support()),
                rationals=lambda answer: (w for _, w in answer),
            ))

        for extra in (0, 1, 2):
            point = _random_prefix(rng, oracle, 0)
            cons = _random_constraints(rng, oracle, [*rng.sample(range(1, d), extra), d])
            ops.append(Op(
                f"{name}:cylinder_content",
                lambda p=point, k=cons, c=chain: lib.cylinder_content(
                    c, 0, p, lib.cylinder_from_constraints(c, k)),
                _equals(Oracle.content, oracle, point, cons),
                rationals=lambda answer: (answer,),
            ))

        for extra in (1, 2):
            point = _random_prefix(rng, oracle, 1)
            coords = sorted(rng.sample(range(2, d), min(d - 2, extra))) + [d]
            family = _nested_family(rng, oracle, point, coords)
            eps = oracle.content(point, family[-1])
            ops.append(Op(
                f"{name}:extract_witness",
                lambda p=point, f=family, e=eps, c=chain: lib.extract_witness(
                    c, 1, p, [lib.cylinder_from_constraints(c, k) for k in f], e),
                lambda w, o=oracle, p=point, f=family: _witness_ok(o, p, f, w),
            ))

        for b in (1, d - 1):
            cons = _random_constraints(rng, oracle, [rng.randint(1, d - 1), d])

            def cond(b=b, k=cons, c=chain):
                cyl = lib.cylinder_from_constraints(c, k)
                return lib.cond_exp(c, b, lambda t: 1 if t in cyl else 0)

            ops.append(Op(
                f"{name}:cond_exp", cond,
                _equals(lambda o, k, b: {q: o.content(q, k) for q in o.prefixes(b)},
                        oracle, cons, b),
                rationals=lambda answer: answer.values(),
            ))

        for a in (0, 1):
            point = _random_prefix(rng, oracle, a)
            draw_seed = rng.randrange(1 << 30)

            def sample(p=point, s=draw_seed, c=chain):
                draw = random.Random(s)
                return tuple(lib.sample_trajectory(c, p, draw) for _ in range(SAMPLE_DRAWS))

            ops.append(Op(
                f"{name}:sample_trajectory", sample,
                lambda trajs, o=oracle, p=point, a=a, d=d: all(
                    len(t) == d + 1 and t[: a + 1] == p and o.path_weight(t, a) > 0
                    for t in trajs),
            ))
    return ops


# ---- verify ----


def expected_check_ids(depth: int, product: bool) -> list:
    """Check ids `verify` must print, in order, for a model of this shape."""
    triples = [(a, b, c) for a in range(depth + 1)
               for b in range(a, depth + 1) for c in range(b, depth + 1)]
    pairs = [(a, b) for b in range(depth + 1) for a in range(b + 1)]
    ids = []
    for family in ("kernel-comp", "restrict", "tower"):
        ids += [f"{family}:{a},{b},{c}" for a, b, c in triples]
    ids += ["content-depth", "content-additive", "witness-member"]
    ids += [f"condexp:{a},{b}" for a, b in pairs]
    ids += [f"split:{a},{b}" for a, b in pairs]
    if product:
        ids += [f"product-form:{a},{b}" for a in range(depth + 1)
                for b in range(a, depth + 1)]
        ids.append("product-law")
        for a in range(depth + 1):
            for b in range(a + 1, depth + 1):
                ids += [f"product-split:{a},{b}", f"product-proj:{a},{b}"]
    return ids


def _report_ok(oracle: Oracle, text: str) -> bool:
    lines = text.rstrip("\n").split("\n")
    sizes = "x".join(str(k) for k in oracle.sizes())
    header = f"MODEL kind={oracle.kind} depth={oracle.max_depth} sizes={sizes}"
    ids = expected_check_ids(oracle.max_depth, oracle.kind == "product")
    if lines[0] != header or lines[-1] != f"RESULT PASS checks={len(ids)}":
        return False
    got = []
    for line in lines[1:-1]:
        parts = line.split(" ")
        if len(parts) != 5 or parts[0] != "CHECK" or parts[2] != "PASS" or parts[3] != parts[4]:
            return False
        got.append(parts[1])
    return got == ids


def verify_ops(cli, models: list) -> list:
    """One `verify` per listed repeat of each model."""
    ops = []
    for name, path, oracle, repeats in models:
        if name in VERIFY_SHA256:
            digest = VERIFY_SHA256[name]
            expect = lambda text, digest=digest: (
                hashlib.sha256(text.encode("utf-8")).hexdigest() == digest)
        else:
            expect = lambda text, o=oracle: _report_ok(o, text)
        for _ in range(repeats):
            ops.append(cli_op(f"{name}:verify", cli, ["verify", "--model", path], expect))
    return ops
