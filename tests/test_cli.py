import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovtraj import Cylinder, Dist, TupleSpace
from markovtraj.cli import build_parser, main
from markovtraj.report import Report

from conftest import SRC, run_capped, weather_doc

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"
WEATHER = str(MODELS / "weather.json")
COIN = str(MODELS / "coin.json")
DRIFT = str(MODELS / "drift.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_transcripts() -> list:
    """(argv, shown stdout lines) of each `$ markovtraj ...` command in the
    code blocks under README's "## Command line", `\\` continuations joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    transcripts = []
    for block in section.split("```")[1::2]:
        for chunk in re.split(r"^\$ ", block.replace("\\\n", ""), flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").splitlines()
            program, *argv = shlex.split(command)
            assert program == "markovtraj", command
            transcripts.append((argv, shown))
    return transcripts


README_TRANSCRIPTS = readme_transcripts()


@pytest.mark.parametrize(
    "argv, shown", README_TRANSCRIPTS, ids=[argv[0] for argv, _ in README_TRANSCRIPTS]
)
def test_readme_command_line_transcripts(capsys, monkeypatch, argv, shown):
    # Run from the repository root, where README's model paths resolve; a
    # shown `...` line stands for any run of lines.
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown)
    assert re.fullmatch(pattern, out), out


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--model", WEATHER)
    assert code == 0
    assert out == "MODEL kind=chain depth=3 sizes=2x2x2x2\nVALID\n"


def test_marginal(capsys):
    code, out, _ = run(capsys, "marginal", "--model", WEATHER, "--point", "S", "--at", "2")
    assert code == 0
    assert out == "S|S|S 9/16\nS|S|R 3/16\nS|R|S 1/8\nS|R|R 1/8\n"


def test_cylinder_listing(capsys):
    code, out, _ = run(capsys, "cylinder", "--model", WEATHER, "--cylinder", "1=S,2=S|R")
    assert code == 0
    assert out == "S|S|S\nS|S|R\nR|S|S\nR|S|R\n"
    code, out, _ = run(
        capsys, "cylinder", "--model", WEATHER, "--cylinder", "0=R", "--lift", "1"
    )
    assert code == 0
    assert out == "R|S\nR|R\n"


def test_content(capsys):
    code, out, _ = run(
        capsys, "content", "--model", WEATHER, "--point", "S", "--cylinder", "1=S,2=S"
    )
    assert code == 0
    assert out == "9/16\n"


def test_witness(capsys):
    code, out, _ = run(
        capsys, "witness", "--model", WEATHER, "--point", "S",
        "--cylinder", "1=S", "--cylinder", "1=S,2=S", "--eps", "9/16",
    )
    assert code == 0
    assert out == "S|S|S\n"


def test_condexp(capsys):
    code, out, _ = run(
        capsys, "condexp", "--model", WEATHER, "--at", "1", "--cylinder", "2=S"
    )
    assert code == 0
    assert out == "S|S 3/4\nS|R 1/2\nR|S 3/4\nR|R 1/2\n"
    # a cylinder no deeper than --at, on a chain that still reads history
    code, out, _ = run(
        capsys, "condexp", "--model", DRIFT, "--at", "1", "--cylinder", "1=L"
    )
    assert code == 0
    assert out == "L|L 1\nL|M 0\nL|R 0\nR|L 1\nR|M 0\nR|R 0\n"


def test_sample_is_seed_deterministic(capsys):
    args = ("sample", "--model", COIN, "--samples", "200", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert sum(int(line.rsplit(" ", 1)[1]) for line in out1.splitlines()) == 200
    _, out3, _ = run(capsys, "sample", "--model", COIN, "--samples", "200", "--seed", "6")
    assert out3 != out1


def test_sample_output_is_pinned(capsys):
    # Sampling walks prefix indices; the draws, and so the counts, are the
    # ones a walk through whole prefix tuples gives.
    code, out, _ = run(capsys, "sample", "--model", COIN, "--seed", "5")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "c4822225b05dc5d89d960cb938517455e4384a557dee93e5fbd025e8e32eff07"
    )


# sha256 of each query's stdout.  drift.json has unequal space sizes; at
# depth 12 both the head and the tail of a prefix space (see
# TupleSpace._cut) hold several coordinates.
PINNED_QUERIES = [
    ("drift", ("marginal", "--point", "R", "--at", "3"),
     "a53cf590bbaf283fae357ca894c8515959f9a890787fd8ff11276430643d2cc7"),
    ("drift", ("cylinder", "--cylinder", "1=L|M,2=R", "--lift", "3"),
     "42ecb3183408cfd56b3bfb7703ecb079a850034524c618b2fe5a163596148ce5"),
    ("drift", ("condexp", "--cylinder", "1=M,3=R", "--at", "2"),
     "a9c10e266e943a8a5320a4e199455df695abc869c7e8bca0ec5725677c53704c"),
    ("drift", ("sample", "--point", "L", "--seed", "7", "--samples", "500"),
     "de921c1509bd581fd4d97783b01733514c9fd2295609a19c2364fc9f4d7767b0"),
    ("drift", ("witness", "--point", "L", "--cylinder", "1=L|M",
               "--cylinder", "1=M,3=R", "--eps", "1/10"),
     "41987243dba0b8df5fc92036cf2dbc2cf3acf77a98daf231c94e923b4faa8479"),
    ("weather12", ("marginal", "--point", "S|R", "--at", "12"),
     "30276a7e98c0b750579e369f058920558da7da9ea51fdcf85620f62c7ceaa8a7"),
    ("weather12", ("cylinder", "--cylinder", "3=S,7=R|S,10=R", "--lift", "12"),
     "6c09df94c45154bf905221601eb5bc203ddedd6e7bac6060b1cd64af7f0dbea0"),
    ("weather12", ("condexp", "--cylinder", "11=R,12=S", "--at", "10"),
     "bb55b58f4b842e0032dd538cf245caf21df4c978894dd7a71dfe1b42d8ee219c"),
    ("weather12", ("sample", "--point", "R", "--seed", "3", "--samples", "3000"),
     "deb7e3608a68c757253ff95a1777c4276620296638c164138433252895d4c5c0"),
    ("weather12", ("witness", "--point", "S", "--cylinder", "4=R",
                   "--cylinder", "4=R,9=S|R,12=S", "--eps", "1/100"),
     "ea11320f017bc8e3c7269a78f0c47bf522c4a3f82cf36ba7f1ae2becb34c791a"),
    # denominators of 33 to 65 bits: multi-word draws, about half rejected
    ("wide", ("sample", "--seed", "13", "--samples", "2000"),
     "88e26ae8e69628b5a8e31ce15acf49e2a4bbd6ffcc64b1c983c91bb201e2477c"),
]

# A product whose weights have denominators past 2^32.
WIDE_PRODUCT = {"kind": "product", "factors": [
    {"H": "2147483648/4294967311", "T": "2147483663/4294967311"},
    {"x": "3486784400/10460353203", "y": "3486784402/10460353203",
     "z": "3486784401/10460353203"},
    {"u": "549755813888/1099511627777", "v": "549755813889/1099511627777"},
    {"p": "9223372036854775807/18446744073709551629",
     "q": "9223372036854775822/18446744073709551629"},
]}


@pytest.mark.parametrize(
    "model,argv,digest", PINNED_QUERIES,
    ids=[f"{model}-{argv[0]}" for model, argv, _ in PINNED_QUERIES],
)
def test_query_output_is_pinned(capsys, tmp_path, model, argv, digest):
    assert pinned_query_digest(capsys, tmp_path, model, argv) == digest


def pinned_query_digest(capsys, tmp_path, model, argv) -> str:
    """sha256 of the stdout of one PINNED_QUERIES query, which must exit 0."""
    if model == "drift":
        path = DRIFT
    else:
        path = tmp_path / f"{model}.json"
        path.write_text(json.dumps(WIDE_PRODUCT if model == "wide" else weather_doc(12)))
    code, out, err = run(capsys, *argv[:1], "--model", str(path), *argv[1:])
    assert code == 0, err
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


PINNED_CYLINDERS = [query for query in PINNED_QUERIES if query[1][0] == "cylinder"]


@pytest.mark.parametrize("model,argv,digest", PINNED_CYLINDERS,
                         ids=[model for model, _, _ in PINNED_CYLINDERS])
def test_the_cylinder_verb_builds_no_set_of_prefixes(
    capsys, monkeypatch, tmp_path, model, argv, digest
):
    # `cylinder` writes the increasing run of its box's prefix numbers, so
    # it never builds the enumerated set of allowed prefixes.
    def base(self):
        raise AssertionError("Cylinder.base was built")

    monkeypatch.setattr(Cylinder, "base", property(base))
    assert pinned_query_digest(capsys, tmp_path, model, argv) == digest


PINNED_CONDEXPS = [query for query in PINNED_QUERIES if query[1][0] == "condexp"]


@pytest.mark.parametrize("model,argv,digest", PINNED_CONDEXPS,
                         ids=[model for model, _, _ in PINNED_CONDEXPS])
def test_condexp_lists_its_prefix_space_once(
    capsys, monkeypatch, tmp_path, model, argv, digest
):
    # cond_exp keys its table by point, in enumeration order, and condexp
    # writes it by position, so only cond_exp lists the depth-b space.
    points, listed = TupleSpace.points, []

    def counted(space):
        listed.append(space)
        return points(space)

    monkeypatch.setattr(TupleSpace, "points", counted)
    assert pinned_query_digest(capsys, tmp_path, model, argv) == digest
    assert len(listed) == 1


def test_sample_rejects_a_bad_start(capsys):
    for point in ("S|S|S|S|S", "S|X", ""):
        code, out, err = run(
            capsys, "sample", "--model", WEATHER, "--samples", "5", "--point", point
        )
        assert (code, out) == (3, ""), err


def test_sample_needs_a_start_for_chain_files(capsys):
    code, _, err = run(capsys, "sample", "--model", WEATHER, "--samples", "5")
    assert code == 3
    assert "--point" in err
    code, out, _ = run(
        capsys, "sample", "--model", WEATHER, "--samples", "5", "--point", "S"
    )
    assert code == 0
    assert all(line.startswith("S|") for line in out.splitlines())


def test_verify_passes_on_shipped_models(capsys):
    for model in (WEATHER, COIN, DRIFT):
        code, out, _ = run(capsys, "verify", "--model", model)
        assert code == 0
        assert out.splitlines()[-1].startswith("RESULT PASS")
        assert all(" FAIL " not in line for line in out.splitlines())


def test_verify_output_is_stable(capsys):
    _, out1, _ = run(capsys, "verify", "--model", WEATHER)
    _, out2, _ = run(capsys, "verify", "--model", WEATHER)
    assert out1 == out2


@pytest.mark.parametrize("name", ["weather", "coin", "drift", "tri"])
def test_verify_matches_golden_transcript(capsys, name):
    # tri.json, kept beside its golden file, is a product of unequal
    # three-state marginals, so a tail product taken in the wrong order
    # changes its report; the shipped coin factors are all equal.
    model = GOLDEN / "tri.json" if name == "tri" else MODELS / f"{name}.json"
    code, out, _ = run(capsys, "verify", "--model", str(model))
    assert code == 0
    assert out == (GOLDEN / f"verify-{name}.txt").read_text(encoding="utf-8")


def test_condexp_matches_golden_transcript(capsys):
    # drift.json reads history up to depth 2 (markov_from = 2), so the
    # cylinder's backward pass starts past b = 0 and 1, on rows, and at b = 2.
    out = ""
    for b in ("0", "1", "2"):
        code, text, _ = run(capsys, "condexp", "--model", DRIFT,
                            "--cylinder", "1=L|M,2=R", "--at", b)
        assert code == 0
        out += text
    assert out == (GOLDEN / "condexp-drift.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", [
    ("cylinder-drift", ("cylinder", "--cylinder", "1=L|M,2=R", "--lift", "3")),
    ("sample-drift", ("sample", "--point", "L", "--seed", "7", "--samples", "500")),
], ids=["cylinder", "sample"])
def test_listing_matches_golden_transcript(capsys, name, argv):
    # drift.json's unequal spaces: a lifted cylinder's listing and a seeded
    # sample's counts, each in enumeration order.
    code, out, err = run(capsys, *argv[:1], "--model", DRIFT, *argv[1:])
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def _row_sum_11_12() -> bytes:
    doc = json.loads(Path(WEATHER).read_text())
    doc["steps"][1]["rows"]["S"]["S"] = "2/3"  # row sums to 11/12
    return json.dumps(doc).encode()


def _space_id_not_a_string() -> bytes:
    doc = json.loads(Path(WEATHER).read_text())
    doc["spaces"][0]["id"] = None  # str() would load it as 'None'
    return json.dumps(doc).encode()


def _row_sum_past_the_digit_limit() -> bytes:
    # 1/Q + 1/(Q+1) with Q = 10^4000: each literal reads, but the sum that
    # the row-sum error names has more than 4,300 digits.
    doc = json.loads(Path(WEATHER).read_text())
    q = 10 ** 4000
    doc["steps"][0]["rows"]["S"] = {"S": f"1/{q}", "R": f"1/{q + 1}"}
    return json.dumps(doc).encode()


@pytest.mark.parametrize("content,message", [
    (_row_sum_11_12(), "expected 1"),
    (b"\xff{}", "not UTF-8"),
    (b"[" * 100_000, "nested too deeply"),
    (b'{"a":' * 50_000, "nested too deeply"),
    (b'{"maxDepth": ' + b"1" * 5000 + b"}", "number too long"),
    (_row_sum_past_the_digit_limit(), "number too long"),
    (_space_id_not_a_string(), 'space 0: "id" must be a string'),
], ids=["bad row sum", "not UTF-8", "100000 nested lists", "50000 nested objects",
        "5000-digit integer", "8001-digit row sum", "space id not a string"])
def test_malformed_model_exits_2(capsys, tmp_path, content, message):
    broken = tmp_path / "broken.json"
    broken.write_bytes(content)
    code, out, err = run(capsys, "verify", "--model", str(broken))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_exact_answers_print_at_any_length(capsys, tmp_path):
    # Rows 1/Q and (Q-1)/Q with Q = 10^4000: each literal is within the
    # interpreter's 4,300-digit int/str limit, the answers are not.
    q = "1" + "0" * 4000
    rows = {"S": f"1/{q}", "R": f"{'9' * 4000}/{q}"}
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "maxDepth": 2,
        "spaces": [{"id": "W", "states": ["S", "R"]}],
        "steps": [{"n": n, "kind": "last-state", "rows": {"S": rows, "R": rows}}
                  for n in range(2)],
    }))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    q2 = "1" + "0" * 8000
    square = "9" * 3999 + "8" + "0" * 3999 + "1"  # (Q - 1)^2
    for argv, expected in (
        (("marginal", "--point", "S", "--at", "2"),
         f"S|S|S 1/{q2}\nS|S|R {'9' * 4000}/{q2}\n"
         f"S|R|S {'9' * 4000}/{q2}\nS|R|R {square}/{q2}\n"),
        (("content", "--point", "S", "--cylinder", "1=S,2=S"), f"1/{q2}\n"),
        (("condexp", "--cylinder", "1=S,2=S", "--at", "1"),
         f"S|S 1/{q}\nS|R 0\nR|S 1/{q}\nR|R 0\n"),
    ):
        assert run(capsys, *argv, "--model", str(path)) == (0, expected, ""), argv
    code, out, err = run(capsys, "verify", "--model", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "RESULT PASS checks=45"
    _, _, _, lhs, rhs = next(line for line in out.splitlines() if "content-depth" in line).split()
    assert lhs == rhs and len(lhs) > 4300
    # in-process callers keep their own limit
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_a_closed_pipe_exits_141(tmp_path):
    # The reader takes one line of a 16,384-line answer and goes away: the
    # CLI exits as a tool stopped by SIGPIPE would, with nothing on stderr
    # (exit 1 would mean failed verify checks).
    model = tmp_path / "weather14.json"
    model.write_text(json.dumps(weather_doc(14)))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "markovtraj.cli", "marginal", "--model", str(model),
         "--point", "S", "--at", "14"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    assert child.stdout.readline().startswith(b"S|S|S")
    child.stdout.close()
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""
    child.stderr.close()


def test_loader_cap_is_a_depth_19_two_state_chain(capsys, tmp_path):
    # 2^20 trajectories load; one depth more is a malformed model
    for depth, expected in ((19, 0), (20, 2)):
        doc = {
            "maxDepth": depth,
            "spaces": [{"states": ["a", "b"]}],
            "steps": [
                {"n": n, "kind": "const", "row": {"a": "1/2", "b": "1/2"}}
                for n in range(depth)
            ],
        }
        path = tmp_path / f"depth{depth}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--model", str(path))
        assert code == expected, err
    assert "caps at 1048576" in err


def validate_in_capped_child(model, timeout: float, mib: int = 512):
    """`markovtraj validate` on a model file, under conftest.run_capped."""
    return run_capped(["-m", "markovtraj.cli", "validate", "--model", str(model)], timeout, mib)


def test_a_model_too_large_for_memory_is_a_malformed_model(tmp_path):
    # A valid two-state chain of depth 18 whose last step is a `table` of
    # 2^18 rows, a 17 MB file: reading and checking its rows runs out of a
    # 192 MiB address space, while it loads under 1 GiB (about 200 MB peak
    # RSS).  The MemoryError is reported as a malformed model (exit 2), not
    # as a traceback with exit 1, which means a failed verify.  About 2 s
    # on a 2-vCPU VM.
    depth = 18
    row = {"a": "1/2", "b": "1/2"}
    keys = ("|".join(p) for p in itertools.product("ab", repeat=depth))
    steps = [{"n": n, "kind": "const", "row": row} for n in range(depth - 1)]
    steps.append({"n": depth - 1, "kind": "table", "rows": dict.fromkeys(keys, row)})
    model = tmp_path / "table.json"
    model.write_text(json.dumps({
        "maxDepth": depth, "spaces": [{"id": "X", "states": ["a", "b"]}], "steps": steps,
    }))
    child = validate_in_capped_child(model, timeout=120, mib=192)
    assert child.returncode == 2, child.stderr
    assert child.stderr == "error: model is too large to load in the memory available\n"


def test_a_query_that_runs_out_of_memory_is_a_bad_request(tmp_path):
    # verify on the depth-14 weather chain loads in a few MiB but needs
    # about 200 MB, so under a 96 MiB address space it runs out of memory
    # mid-query.  That is reported on one line with exit 3, not as a
    # traceback with exit 1, which means a failed verify.  About 1 s on a
    # 2-vCPU VM.
    model = tmp_path / "weather14.json"
    model.write_text(json.dumps(weather_doc(14)))
    child = run_capped(["-m", "markovtraj.cli", "verify", "--model", str(model)], 120, 96)
    assert (child.returncode, child.stdout) == (3, ""), child.stderr
    assert child.stderr == "error: the request needs more memory than is available\n"


def test_a_deep_cylinder_listing_streams_in_bounded_memory(capsys, tmp_path):
    # The 2^19 prefixes that `cylinder --cylinder 3=S --lift 19` allows on
    # the depth-19 weather chain are written one label at a time from the
    # box's increasing run of prefix numbers, under a 40 MiB address space:
    # midway between the 20 MiB this listing needs and the 61 MiB that one
    # building and sorting the set of allowed prefix numbers needs (2-vCPU
    # VM, Python 3.11.7).  About 2 s on that VM.
    model = tmp_path / "weather19.json"
    model.write_text(json.dumps(weather_doc(19)))
    argv = ["cylinder", "--model", str(model), "--cylinder", "3=S", "--lift", "19"]
    child = run_capped(["-m", "markovtraj.cli", *argv], 120, 40)
    assert child.returncode == 0, child.stderr
    assert len(child.stdout.splitlines()) == 2 ** 19
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert child.stdout == out


def test_huge_max_depth_is_a_malformed_model(tmp_path):
    # Short files that ask for huge chains fail as malformed models, with
    # work bounded by the file, so a loader that builds per-depth objects
    # before checking the steps fails here instead of exhausting memory.
    for depth, states in ((15000, ["a", "b"]), (3_000_000, ["a"])):
        model = tmp_path / f"depth{depth}.json"
        model.write_text(json.dumps(
            {"maxDepth": depth, "spaces": [{"id": "X", "states": states}], "steps": []}
        ))
        child = validate_in_capped_child(model, timeout=60)
        assert child.returncode == 2, child.stderr
        assert child.stderr.startswith("error: missing steps"), child.stderr


@pytest.fixture(scope="module")
def deep_one_state_chain(tmp_path_factory):
    """The model file of a valid one-state chain of depth 20,000."""
    depth = 20000
    model = tmp_path_factory.mktemp("deep") / "one-state.json"
    model.write_text(json.dumps({
        "maxDepth": depth,
        "spaces": [{"id": "X", "states": ["a"]}],
        "steps": [{"n": n, "kind": "const", "row": {"a": "1"}} for n in range(depth)],
    }))
    return model


def test_deep_one_state_chain_validates_in_bounded_memory(deep_one_state_chain):
    # 20,001 prefix spaces of up to 20,001 coordinates, each a head of the
    # one product of the chain's state spaces: loading is linear in the
    # depth and fits a 96 MiB address space (about 40 MB peak RSS and
    # 0.4 s on a 2-vCPU VM).  A loader that keeps a component or stride
    # tuple per depth holds 2 x 10^8 references and runs out.
    child = validate_in_capped_child(deep_one_state_chain, timeout=20, mib=96)
    assert child.returncode == 0, child.stderr
    assert child.stdout.endswith("VALID\n"), child.stdout


def test_deep_queries_answer_in_bounded_memory(deep_one_state_chain):
    # content, witness and condexp on the depth-20,000 chain read only the
    # coordinates they constrain, each in a child under a 256 MiB address
    # space (about 40 MB peak RSS and under 1 s each on a 2-vCPU VM).
    def query(verb, *argv):
        child = run_capped(
            ["-m", "markovtraj.cli", verb, "--model", str(deep_one_state_chain), *argv], 60, 256
        )
        assert child.returncode == 0, child.stderr
        return child.stdout

    assert query("content", "--point", "a", "--cylinder", "19999=a,20000=a") == "1\n"
    witness = query("witness", "--point", "a", "--cylinder", "10000=a",
                    "--cylinder", "10000=a,20000=a", "--eps", "1")
    assert witness == "|".join(["a"] * 20001) + "\n"
    condexp = query("condexp", "--cylinder", "20000=a", "--at", "19999")
    assert condexp == "|".join(["a"] * 20000) + " 1\n"


def test_unsatisfiable_witness_exits_3(capsys):
    code, _, err = run(
        capsys, "witness", "--model", WEATHER, "--point", "S",
        "--cylinder", "1=S", "--eps", "13/16",
    )
    assert code == 3
    assert "content below" in err


def test_a_point_off_the_cylinder_exits_4(capsys, greedy_takes_the_lowest):
    code, out, err = run(
        capsys, "witness", "--model", WEATHER, "--point", "S",
        "--cylinder", "1=S", "--eps", "3/4",
    )
    assert (code, out, err) == (4, "", "error: constructed point escaped a cylinder\n")


def test_an_unexpected_exception_exits_4(capsys, monkeypatch):
    # Exit 1 means a failed verify check; any fault of the library exits 4
    # with its traceback and one error line.
    def broken(loaded):
        raise IndexError("tuple index out of range")

    monkeypatch.setattr("markovtraj.cli.run_verify", broken)
    code, out, err = run(capsys, "verify", "--model", COIN)
    assert (code, out) == (4, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\nerror: internal error: IndexError: tuple index out of range\n")

    def failing(loaded):
        report = Report("model=coin")
        report.add("content-depth", False, "1/2", "1/3")
        return report

    monkeypatch.setattr("markovtraj.cli.run_verify", failing)
    code, out, err = run(capsys, "verify", "--model", COIN)
    assert (code, err) == (1, "")
    assert "FAIL" in out


def test_domain_errors_exit_3(capsys):
    code, _, _ = run(capsys, "marginal", "--model", WEATHER, "--point", "Q", "--at", "1")
    assert code == 3
    code, _, _ = run(capsys, "marginal", "--model", WEATHER, "--point", "S", "--at", "9")
    assert code == 3
    code, _, err = run(
        capsys, "condexp", "--model", WEATHER, "--cylinder", "1=S", "--at", "99"
    )
    assert (code, err) == (3, "error: depth 99 outside 0..3\n")
    code, _, err = run(
        capsys, "content", "--model", WEATHER, "--point", "S", "--cylinder", "one=S"
    )
    assert code == 3
    assert "coordinate" in err
    code, out, err = run(
        capsys, "sample", "--model", WEATHER, "--point", "S", "--samples", "-3"
    )
    assert (code, out) == (3, "")
    assert "--samples" in err


def test_a_bad_label_in_a_deep_prefix_is_named_alone(capsys, tmp_path):
    # A bad 20th label of a depth-19 prefix is named with its space, not by
    # printing the prefix space's twenty components.
    path = tmp_path / "weather19.json"
    path.write_text(json.dumps(weather_doc(19)))
    point = "|".join(["S", "R"] * 9 + ["S", "Q"])
    code, out, err = run(capsys, "marginal", "--model", str(path), "--point", point, "--at", "19")
    assert (code, out, err) == (3, "", "error: 'Q' is not a state of space 'W'\n")


def test_bad_cylinder_specs(capsys):
    # int() refuses a 5000-digit coordinate with ValueError
    for spec in ("", "1", "1=", "=S", "1=S,1=R", "9" * 5000 + "=S"):
        code, _, _ = run(
            capsys, "content", "--model", WEATHER, "--point", "S", "--cylinder", spec
        )
        assert code == 3, spec


def test_usage_errors_exit_3(capsys):
    for argv in (
        ["marginal", "--model", WEATHER],  # required options missing
        ["marginal", "--model", WEATHER, "--point", "S", "--at", "two"],
        ["frobnicate", "--model", WEATHER],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3, argv
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["marginal", "--help"])
    assert exc.value.code == 0


def test_main_reuses_one_parser_without_leaking_arguments(capsys, monkeypatch):
    parser = build_parser()
    assert build_parser() is parser
    seen = []
    parse = parser.parse_args

    def spy(argv=None):
        seen.append(parse(argv))
        return seen[-1]

    monkeypatch.setattr(parser, "parse_args", spy)
    assert run(capsys, "cylinder", "--model", WEATHER, "--cylinder", "1=S", "--lift", "1") == (
        0, "S|S\nR|S\n", ""
    )
    # From S: 3/4 * 1/4 + 1/4 * 1/2; the first call's --cylinder 1=S would
    # make this a second cylinder, a bad request.
    assert run(capsys, "content", "--model", WEATHER, "--point", "S", "--cylinder", "2=R") == (
        0, "5/16\n", ""
    )
    assert run(capsys, "validate", "--model", WEATHER)[0] == 0
    first, second, third = seen
    assert (first.cylinder, first.lift) == (["1=S"], 1)
    assert second.cylinder == ["2=R"]
    assert set(vars(second)) == {"verb", "model", "point", "cylinder", "func"}
    assert set(vars(third)) == {"verb", "model", "func"}


def test_missing_model_file_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "validate", "--model", str(tmp_path / "nope.json"))
    assert code == 2


def test_one_cylinder_verbs_reject_a_second_cylinder(capsys):
    # From S, {x_1 = S} has content 3/4 and its intersection with
    # {x_2 = R} has 3/16; dropping the second flag would print 3/4.
    for verb, extra in (
        ("content", ["--point", "S"]),
        ("condexp", ["--at", "1"]),
        ("cylinder", []),
    ):
        code, out, err = run(
            capsys, verb, "--model", WEATHER, *extra,
            "--cylinder", "1=S", "--cylinder", "2=R",
        )
        assert code == 3, verb
        assert out == ""
        assert "exactly one --cylinder" in err


def test_numeric_literals_take_ascii_digits_only(capsys, tmp_path):
    arabic_one = "١"
    doc = json.loads(Path(WEATHER).read_text())
    doc["steps"][0]["rows"]["R"] = {"S": f"{arabic_one}/2", "R": "1/2"}
    path = tmp_path / "arabic.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert "not a rational literal" in err
    code, out, _ = run(
        capsys, "witness", "--model", WEATHER, "--point", "S",
        "--cylinder", "1=S", "--eps", f"{arabic_one}/2",
    )
    assert (code, out) == (3, "")
    for spec in ("1_0=S", f"{arabic_one}=S", "+1=S", " 1=S,-0=S"):
        code, out, err = run(
            capsys, "content", "--model", WEATHER, "--point", "S", "--cylinder", spec
        )
        assert (code, out) == (3, ""), spec
        assert "bad coordinate" in err, spec
    # Depths take the coordinates' rule: int() would read these as 1, 2 and 10.
    for depth in (arabic_one, "\uff12", "1_0", "+1", " 1", "1" * 19):
        for argv in (
            ("marginal", "--model", WEATHER, "--point", "S", "--at", depth),
            ("condexp", "--model", WEATHER, "--cylinder", "1=S", "--at", depth),
            ("cylinder", "--model", WEATHER, "--cylinder", "1=S", "--lift", depth),
        ):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 3, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            # argparse names the option's type, which says what the value must be
            assert f"invalid depth value: {depth!r}" in err, argv
    # Counts and seeds too: int() would draw 10 or 3 samples, or seed 1.
    for option, value in (("--samples", "1_0"), ("--samples", "٣"), ("--samples", "+3"),
                          ("--samples", "-3"), ("--samples", "1" * 19), ("--seed", arabic_one),
                          ("--seed", "1_0"), ("--seed", "+1"), ("--seed", "1" * 19)):
        argv = {"--samples": "3", "--seed": "1", option: value}
        code, out, err = run(capsys, "sample", "--model", WEATHER, "--point", "S",
                             *itertools.chain(*argv.items()))
        assert (code, out) == (3, ""), (option, value)
        assert option in err, (option, value)
    code, out, _ = run(capsys, "sample", "--model", WEATHER, "--point", "S",
                       "--samples", "3", "--seed", "-1")
    assert code == 0 and sum(int(line.split()[1]) for line in out.splitlines()) == 3


def test_condexp_tests_membership_without_lifting(capsys, monkeypatch):
    import markovtraj.cli

    def refuse(*args):
        raise AssertionError("condexp lifted its cylinder")

    monkeypatch.setattr(markovtraj.cli, "lift_cylinder", refuse)
    code, out, _ = run(
        capsys, "condexp", "--model", WEATHER, "--at", "1", "--cylinder", "2=S"
    )
    assert code == 0
    assert out == "S|S 3/4\nS|R 1/2\nR|S 3/4\nR|R 1/2\n"


def history_table_chain(depth: int) -> dict:
    """A "table" chain whose step weights depend on the whole prefix: from a
    depth-n prefix with k S's, S has weight (k+1)/(n+3)."""
    def label(bits):
        return "|".join("S" if bit else "R" for bit in bits)

    steps = []
    for n in range(depth):
        rows = {}
        for bits in itertools.product((1, 0), repeat=n + 1):
            k = sum(bits)
            rows[label(bits)] = {"S": f"{k + 1}/{n + 3}", "R": f"{n + 2 - k}/{n + 3}"}
        steps.append({"n": n, "kind": "table", "rows": rows})
    return {"maxDepth": depth, "spaces": [{"id": "W", "states": ["S", "R"]}], "steps": steps}


def test_cold_queries_never_build_the_fraction_support(capsys, monkeypatch, tmp_path):
    # The CLI reads and prints the integer form; Dist.support, which builds
    # (index, Fraction) pairs, is for library callers only.
    table = tmp_path / "table.json"
    table.write_text(json.dumps(history_table_chain(4)))
    queries = [
        ("marginal", "--point", "S", "--at", "3"),
        ("marginal", "--point", "S|R", "--at", "1"),
        ("content", "--point", "S", "--cylinder", "2=R,3=S"),
        ("witness", "--point", "S", "--cylinder", "1=S", "--cylinder", "1=S,3=R",
         "--eps", "1/1000"),
        ("condexp", "--cylinder", "1=S,3=R", "--at", "2"),
        ("cylinder", "--cylinder", "1=S,2=R", "--lift", "3"),
    ]
    expected = {}
    for model in (WEATHER, str(table)):
        for verb, *rest in queries:
            code, out, _ = run(capsys, verb, "--model", model, *rest)
            assert code == 0
            expected[(model, verb, *rest)] = out

    def no_support(self):
        raise AssertionError("Dist.support called on a CLI query")

    monkeypatch.setattr(Dist, "support", no_support)
    for (model, verb, *rest), out in expected.items():
        assert run(capsys, verb, "--model", model, *rest) == (0, out, "")


def _text_or(pattern):
    """Arbitrary text, or text shaped like a valid argument."""
    return st.one_of(st.text(max_size=30), st.from_regex(pattern, fullmatch=True))


POINT_TEXT = _text_or(r"[SRQ](\|[SR]){0,3}")
SPEC_TEXT = _text_or(r"[0-4]=[SRQ](\|[SR])?(,[0-4]=[SR](\|[SR])?){0,2}")
EPS_TEXT = _text_or(r"-?[0-9]{1,2}(/[0-9]{1,2})?")


@given(
    st.sampled_from(["content", "witness", "condexp", "cylinder"]),
    POINT_TEXT,
    st.lists(SPEC_TEXT, min_size=1, max_size=3),
    EPS_TEXT,
)
@settings(max_examples=250, deadline=None)
def test_argument_parsers_fail_only_with_documented_codes(verb, point, specs, eps):
    # Values are passed as --opt=value, so text starting with "-" reaches
    # the parsers too.  A value of the wrong form is a bad request (3),
    # never a traceback.  Only witness takes several cylinders.
    if verb != "witness":
        specs = specs[:1]
    argv = [verb, "--model", WEATHER, *(f"--cylinder={spec}" for spec in specs)]
    if verb in ("content", "witness"):
        argv.append(f"--point={point}")
    if verb == "witness":
        argv.append(f"--eps={eps}")
    if verb == "condexp":
        argv += ["--at", "1"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 3), argv
    assert code in (0, 1, 2, 3), argv
