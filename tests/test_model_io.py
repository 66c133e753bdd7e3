import functools
import json
import operator
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markovtraj.model_io
from markovtraj import (
    Dist,
    FiniteSpace,
    LoadedModel,
    MarkovTrajError,
    ModelFormatError,
    Rat,
    TupleSpace,
    check_partial_traj_const,
    load_model,
    model_from_dict,
)

from conftest import random_model_doc, weather_doc

MODELS = Path(__file__).resolve().parent.parent / "models"


# ---- the shipped files ----


def test_load_weather_file():
    loaded = load_model(MODELS / "weather.json")
    assert loaded.marginals is None
    chain = loaded.chain
    assert chain.max_depth == 3
    assert chain.partial_traj(0, 2).row(("S",)).weight_at(("S", "S", "S")) == Rat(9, 16)


def test_load_coin_file():
    loaded = load_model(MODELS / "coin.json")
    assert loaded.marginals is not None
    assert len(loaded.marginals) == 5
    assert loaded.marginals[0].weight_at("H") == Rat(1, 2)
    assert check_partial_traj_const(loaded.chain, loaded.marginals, 0, 4)


def test_load_drift_file():
    chain = load_model(MODELS / "drift.json").chain
    assert [s.size for s in chain.spaces] == [2, 3, 2, 2]
    # "table" rows are held one per prefix, in the prefix space's order
    index = chain.prefix_space(1).index_of
    assert chain.steps[1][index(("L", "M"))].weight_at("L") == Rat(1, 2)
    assert chain.steps[1][index(("R", "M"))].weight_at("L") == Rat(1, 3)
    # omitted states weigh zero
    assert chain.steps[0][1].weight_at("L") == 0


def test_shared_rows_after_expansion():
    # every prefix shares its step's rows by period: weather's last-state
    # steps hold one row per state, drift's const step holds one row
    chain = load_model(MODELS / "weather.json").chain
    assert [len(step) for step in chain.steps] == [2, 2, 2]
    drift = load_model(MODELS / "drift.json").chain
    assert [len(step) for step in drift.steps] == [2, 6, 1]


def test_last_state_rows_are_read_by_index(monkeypatch):
    # prefix i ends in state i % |X_n|; no prefix tuple is ever enumerated
    def refuse(space):
        raise AssertionError(f"enumerated the points of {space!r}")

    monkeypatch.setattr(TupleSpace, "points", refuse)
    load_model(MODELS / "weather.json")
    doc = {
        "maxDepth": 2,
        "spaces": [
            {"states": ["a", "b"]},
            {"states": ["x", "y", "z"]},
            {"states": ["a", "b"]},
        ],
        "steps": [
            {"n": 0, "kind": "const", "row": {"x": "1/3", "y": "1/3", "z": "1/3"}},
            {"n": 1, "kind": "last-state",
             "rows": {"x": {"a": "1"}, "y": {"b": "1"}, "z": {"a": "1/2", "b": "1/2"}}},
        ],
    }
    step = model_from_dict(doc).chain.steps[1]
    assert len(step) == 3  # one row per state of X_1, in its order
    assert step[1].weight_at("b") == 1
    assert step[2].weight_at("a") == Rat(1, 2)
    assert step[0].weight_at("a") == 1


def keyed_doc(kind: str) -> dict:
    """A depth-2 chain on {a, b} whose step 1 reads its rows by key."""
    keys = ("a", "b") if kind == "last-state" else ("a|a", "a|b", "b|a", "b|b")
    rows = {key: {"a": f"{k}/4", "b": f"{4 - k}/4"} for k, key in enumerate(keys)}
    return {
        "maxDepth": 2,
        "spaces": [{"states": ["a", "b"]}],
        "steps": [
            {"n": 0, "kind": "const", "row": {"a": "1/2", "b": "1/2"}},
            {"n": 1, "kind": kind, "rows": rows},
        ],
    }


def test_table_rows_are_read_by_label(monkeypatch):
    # each table key is matched against the label of the prefix at its
    # index; no key is parsed into a tuple and no prefix is enumerated
    def refuse(*args):
        raise AssertionError("a table key went through the tuple codec")

    monkeypatch.setattr(TupleSpace, "index_of", refuse)
    monkeypatch.setattr(TupleSpace, "points", refuse)
    step = model_from_dict(keyed_doc("table")).chain.steps[1]
    assert [row.weight_at("a") for row in step] == [0, Rat(1, 4), Rat(1, 2), Rat(3, 4)]


def test_table_keys_extend_the_labels_of_the_depth_before():
    spaces = (FiniteSpace("A", ["a", "b"]), FiniteSpace("B", ["x", "y", "z"]),
              FiniteSpace("C", ["p", "q"]))
    labels = markovtraj.model_io._prefix_labels(spaces)
    for n in range(3):
        space = TupleSpace(spaces[: n + 1])
        assert labels(n) == [space.label_at(i) for i in range(space.size)]


def test_only_table_steps_build_prefix_labels(monkeypatch):
    asked = []
    labels_of = markovtraj.model_io._prefix_labels

    def spy(spaces):
        labels = labels_of(spaces)
        return lambda n: asked.append(n) or labels(n)

    monkeypatch.setattr(markovtraj.model_io, "_prefix_labels", spy)
    for name in ("weather", "coin"):
        load_model(MODELS / f"{name}.json")
    assert asked == []
    load_model(MODELS / "drift.json")  # table, table, const
    assert asked == [0, 1]


def two_literal_doc() -> dict:
    """keyed_doc("table") with rows that repeat two literals: x, y, y, x."""
    doc = keyed_doc("table")
    x, y = {"a": "1/4", "b": "3/4"}, {"b": "1/2", "a": "1/2"}
    doc["steps"][1]["rows"] = {"a|a": x, "a|b": y, "b|a": dict(y), "b|b": dict(x)}
    return doc


def count_dists(monkeypatch) -> list:
    """Patch Dist._set, through which every Dist is built, to log its space."""
    built = []
    original = Dist._set

    def counting(self, space, *args):
        built.append(space)
        original(self, space, *args)

    monkeypatch.setattr(Dist, "_set", counting)
    return built


def test_table_rows_share_one_dist_per_literal(monkeypatch):
    built = count_dists(monkeypatch)
    chain = model_from_dict(two_literal_doc()).chain
    step = chain.steps[1]
    # one Dist for the const row of step 0, one per distinct literal of step 1
    assert len(built) == 3
    assert len({id(row) for row in step}) == 2
    assert step[0] is step[3] and step[1] is step[2]
    X = chain.spaces[2]
    x, y = Dist(X, [Rat(1, 4), Rat(3, 4)]), Dist(X, [Rat(1, 2), Rat(1, 2)])
    assert step == (x, y, y, x)


def test_a_literal_is_parsed_once_per_step(monkeypatch):
    # the same row text over two targets gives one Dist on each target
    row = {"a": "1/2", "b": "1/2"}
    doc = {
        "maxDepth": 2,
        "spaces": [{"states": ["a", "b"]}, {"states": ["a", "b"]},
                   {"id": "Z", "states": ["a", "b", "c"]}],
        "steps": [
            {"n": 0, "kind": "table", "rows": {"a": row, "b": row}},
            {"n": 1, "kind": "table",
             "rows": {key: dict(row) for key in ("a|a", "a|b", "b|a", "b|b")}},
        ],
    }
    built = count_dists(monkeypatch)
    chain = model_from_dict(doc).chain
    assert built == [chain.spaces[1], chain.spaces[2]]
    for n in (0, 1):
        rows = chain.steps[n]
        assert len({id(r) for r in rows}) == 1
        assert rows[0].space is chain.spaces[n + 1]


SHARED_ROW_ERRORS = {
    "unknown state": ({"a": "1/2", "z": "1/2"}, "unknown state 'z'"),
    "bad sum": ({"a": "1/2", "b": "1/4"}, "weights sum to 3/4"),
    "unhashable weight": ({"a": ["1/2"], "b": "1/2"}, "weights must be rational strings"),
}


@pytest.mark.parametrize("row, error", SHARED_ROW_ERRORS.values(), ids=SHARED_ROW_ERRORS.keys())
def test_a_repeated_bad_row_fails_at_its_first_key(row, error):
    def rejects_at(doc, key):
        with pytest.raises(ModelFormatError, match=re.escape(f"step 1, row '{key}': {error}")):
            model_from_dict(doc)

    # two copies of a bad literal: the first in prefix order is named
    doc = two_literal_doc()
    rows = doc["steps"][1]["rows"]
    rows["a|b"], rows["b|a"] = row, json.loads(json.dumps(row))
    rejects_at(doc, "a|b")
    # a bad row after an accepted literal is parsed on its own
    doc = two_literal_doc()
    doc["steps"][1]["rows"]["b|b"] = row
    rejects_at(doc, "b|b")


MALFORMED_ROWS = {
    "rows not an object": lambda rows: list(rows.values()),
    "row not an object": lambda rows: {**rows, next(iter(rows)): "1/2"},
    "missing key": lambda rows: dict(list(rows.items())[1:]),
    "extra key": lambda rows: {**rows, "c": {"a": "1"}},
    "wrong arity": lambda rows: {f"{key}|a": row for key, row in rows.items()},
}


@pytest.mark.parametrize("kind", ["last-state", "table"])
@pytest.mark.parametrize("mutate", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_keyed_rows_must_match_the_keys(kind, mutate):
    doc = keyed_doc(kind)
    model_from_dict(doc)  # loads as written
    doc["steps"][1]["rows"] = mutate(doc["steps"][1]["rows"])
    rejects(doc)


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "absent.json")


def test_invalid_json_is_a_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_duplicate_keys_are_a_format_error(tmp_path):
    # json.load alone would keep the last value and load S:1/2 silently
    path = tmp_path / "dup.json"
    path.write_text('{"kind": "product", "factors": [{"S": "1/4", "S": "1/2", "R": "1/2"}]}')
    with pytest.raises(ModelFormatError, match="'S' given twice"):
        load_model(path)
    doc = json.dumps(weather_doc(2))
    path.write_text(doc.replace('"maxDepth": 2', '"maxDepth": 2, "maxDepth": 2'))
    with pytest.raises(ModelFormatError, match="'maxDepth' given twice"):
        load_model(path)


# ---- document validation ----


def rejects(doc):
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


def test_top_level_shape():
    rejects([])
    rejects({})
    rejects({"maxDepth": True, "spaces": [], "steps": []})
    rejects({"maxDepth": -1, "spaces": [{"states": ["a"]}], "steps": []})


def test_spaces_validation():
    doc = weather_doc(2)
    doc["spaces"] = []
    rejects(doc)
    doc = weather_doc(2)
    doc["spaces"] = [{"states": ["S", "R"]}, {"states": ["S", "R"]}]  # need 1 or 3
    rejects(doc)
    doc = weather_doc(2)
    doc["spaces"] = [{"states": ["S", "S"]}]
    rejects(doc)
    doc = weather_doc(2)
    doc["spaces"] = [{"states": ["S", "R|X"]}]
    rejects(doc)
    doc = weather_doc(2)
    doc["spaces"] = [{"states": ["S", 3]}]
    rejects(doc)


def test_a_single_spaces_entry_is_one_space_at_every_depth():
    doc = weather_doc(3)
    doc["spaces"] = [{"states": ["S", "R"]}]
    chain = model_from_dict(doc).chain
    assert all(space is chain.spaces[0] for space in chain.spaces)
    assert chain.spaces[0].space_id == "X0"
    doc["spaces"] = [{"states": ["S", "R"]}] * 4
    spaces = model_from_dict(doc).chain.spaces
    assert [space.space_id for space in spaces] == ["X0", "X1", "X2", "X3"]
    assert spaces[0] is not spaces[1] and spaces[0] == spaces[1]


def test_steps_validation():
    doc = weather_doc(2)
    doc["steps"] = doc["steps"][:1]
    # a count and the first missing depth, not the list of every depth
    with pytest.raises(ModelFormatError, match="missing steps for 1 depths, the first is 1$"):
        model_from_dict(doc)
    doc = {"maxDepth": 1000, "spaces": [{"states": ["a"]}], "steps": []}
    with pytest.raises(ModelFormatError, match="missing steps for 1000 depths, the first is 0$"):
        model_from_dict(doc)
    doc = weather_doc(2)
    doc["steps"][1]["n"] = 0
    rejects(doc)  # duplicate depth
    doc = weather_doc(2)
    doc["steps"][0]["kind"] = "markov"
    rejects(doc)  # unknown kind
    doc = weather_doc(2)
    del doc["steps"][0]["rows"]
    rejects(doc)


def test_row_validation():
    doc = weather_doc(2)
    doc["steps"][0]["rows"]["S"]["S"] = "2/3"
    rejects(doc)  # sums to 11/12
    doc = weather_doc(2)
    doc["steps"][0]["rows"]["S"]["Q"] = "0/1"
    rejects(doc)  # unknown state
    doc = weather_doc(2)
    doc["steps"][0]["rows"]["S"]["S"] = "0.75"
    rejects(doc)  # not a rational string
    doc = weather_doc(2)
    doc["steps"][0]["rows"]["S"]["S"] = 0.75
    rejects(doc)  # wrong type
    doc = weather_doc(2)
    del doc["steps"][0]["rows"]["R"]
    rejects(doc)  # last-state row missing


def test_table_kind_validation():
    table_doc = {
        "maxDepth": 1,
        "spaces": [{"states": ["a", "b"]}],
        "steps": [
            {"n": 0, "kind": "table", "rows": {"a": {"a": "1"}, "b": {"b": "1"}}}
        ],
    }
    assert model_from_dict(table_doc).chain.max_depth == 1
    missing = json.loads(json.dumps(table_doc))
    del missing["steps"][0]["rows"]["b"]
    rejects(missing)
    dup = json.loads(json.dumps(table_doc))
    dup["steps"][0]["rows"]["z"] = {"a": "1"}
    rejects(dup)


def test_product_validation():
    assert model_from_dict(
        {"kind": "product", "factors": [{"H": "1/2", "T": "1/2"}]}
    ).marginals is not None
    rejects({"kind": "product", "factors": []})
    rejects({"kind": "product", "factors": [{}]})
    rejects({"kind": "product", "factors": [{"H": "1/2"}]})  # sums to 1/2


def test_size_cap(monkeypatch):
    # 2^24 trajectories is past the loader cap, and so is 2^15001, a total
    # with more digits than int-to-str conversion allows, so the message
    # must not print it
    for depth in (23, 15000):
        doc = {
            "maxDepth": depth,
            "spaces": [{"states": ["a", "b"]}],
            "steps": [
                {"n": n, "kind": "const", "row": {"a": "1/2", "b": "1/2"}}
                for n in range(depth)
            ],
        }
        with pytest.raises(ModelFormatError, match="caps at 1048576"):
            model_from_dict(doc)
    # The cap holds for product files too: 20 coins load, 21 do not.
    coin = {"H": "1/2", "T": "1/2"}
    loaded = model_from_dict({"kind": "product", "factors": [coin] * 20})
    assert loaded.chain.prefix_space(19).size == 1 << 20
    # Past the cap the loader refuses before it builds any per-depth space,
    # which for 3,000 factors would take memory quadratic in their number.
    def unreachable(marginals):
        raise AssertionError("const_chain called on a model past the cap")

    monkeypatch.setattr(markovtraj.model_io, "const_chain", unreachable)
    for count in (21, 3000):
        with pytest.raises(ModelFormatError, match="caps at 1048576"):
            model_from_dict({"kind": "product", "factors": [coin] * count})


# ---- fuzzing ----


def _node_paths(node, path=()):
    """Every position in a JSON document, as a path of keys and indices."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _replaced(node, path, value):
    """A copy of the document with the node at `path` replaced by `value`."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


# The shipped models, plus a table step whose rows repeat two literals, so
# that a replacement can make a later copy of a shared row differ from the
# first or hold an unhashable weight.
SHIPPED_NODES = [
    (doc, path)
    for doc in [
        *(json.loads((MODELS / f"{name}.json").read_text())
          for name in ("weather", "coin", "drift")),
        two_literal_doc(),
    ]
    for path in _node_paths(doc)
]

# Arbitrary JSON values, with words of the model format mixed into the
# strings so that some replacements get past the first checks.
FORMAT_WORDS = ["S", "R", "H", "T", "1/2", "3/4", "0", "1",
                "const", "last-state", "table", "product"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(FORMAT_WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@given(st.sampled_from(SHIPPED_NODES), JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_model_from_dict_only_raises_its_own_errors(node, value):
    # Replaces one node of a shipped model with an arbitrary JSON value.
    # 300 examples take about 1.5 s on a 2-vCPU VM.
    doc, path = node
    try:
        loaded = model_from_dict(_replaced(doc, path, value))
    except MarkovTrajError:
        return
    assert isinstance(loaded, LoadedModel)


# Near misses that the fuzz above does not aim at, made to random documents.
# It edits a decoded document, so a key repeated in the file text never
# reaches load_model's duplicate-key hook; and it puts arbitrary values in
# the shipped models, where these are one wrong value of the right shape.
MUTATIONS = ("repeated key", "dropped key", "step n", "maxDepth", "non-ASCII digit", "| in label")
MARK = "@mark@"  # a key, and a value, that no random document holds


def _at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def _mutated(rng: random.Random, doc: dict, kind: str) -> str:
    """The file text of `doc` with one mutation of the given kind."""
    paths = list(_node_paths(doc))
    objects = [path for path in paths if isinstance(_at(doc, path), dict)]
    mark, replacement = json.dumps(MARK), None
    if kind == "repeated key":
        path = rng.choice(objects)
        node = _at(doc, path)
        key = rng.choice(list(node))
        doc, replacement = _replaced(doc, path, {**node, MARK: node[key]}), json.dumps(key)
    elif kind == "dropped key":
        # Any key but a space's "id", which defaults to one of its own.
        path, key = rng.choice([
            (path, key) for path in objects for key in _at(doc, path)
            if not (path[:1] == ("spaces",) and key == "id")
        ])
        node = {k: v for k, v in _at(doc, path).items() if k != key}
        doc = _replaced(doc, path, node)
    elif kind == "step n":
        i = rng.randrange(len(doc["steps"]))
        value = rng.choice([-1, doc["maxDepth"], i + 0.0, i + 0.5, True])
        doc = _replaced(doc, ("steps", i, "n"), value)
    elif kind == "maxDepth":
        # 5,000 digits are past the interpreter's default int/str limit,
        # so they go into the text, not through json.dumps.
        replacement = rng.choice([str(10**18), "9" * 5000])
        doc = _replaced(doc, ("maxDepth",), MARK)
    elif kind == "non-ASCII digit":
        path = rng.choice([p for p in paths if p[2:3] in (("row",), ("rows",)) and
                           isinstance(_at(doc, p), str)])
        weight = _at(doc, path)
        at = rng.choice([k for k, ch in enumerate(weight) if ch.isdigit()])
        digit = chr(rng.choice([0x0660, 0x06F0, 0x0966, 0xFF10]) + int(weight[at]))
        doc = _replaced(doc, path, weight[:at] + digit + weight[at + 1:])
    else:
        i = rng.randrange(len(doc["spaces"]))
        j = rng.randrange(len(doc["spaces"][i]["states"]))
        label = doc["spaces"][i]["states"][j]
        at = rng.randint(0, len(label))
        doc = _replaced(doc, ("spaces", i, "states", j), label[:at] + "|" + label[at:])
    text = json.dumps(doc, ensure_ascii=False)
    return text if replacement is None else text.replace(mark, replacement)


def test_load_model_rejects_one_mutation_of_a_random_document(tmp_path):
    # 1,200 random documents, 200 per mutation: each loads as written and
    # is a ModelFormatError after one mutation of its file text.  About
    # 1.5 s on a 2-vCPU VM.
    rng = random.Random(4)
    path = tmp_path / "model.json"
    for i in range(1200):
        doc, kind = random_model_doc(rng), MUTATIONS[i % len(MUTATIONS)]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert isinstance(load_model(path), LoadedModel)
        path.write_text(_mutated(rng, doc, kind), encoding="utf-8")
        try:
            load_model(path)
        except ModelFormatError:
            continue
        pytest.fail(f"document {i} loaded after a {kind} mutation: {path.read_text()}")
