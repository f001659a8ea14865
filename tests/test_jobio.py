"""The job-file validator, held to jsonschema's Draft 2020-12 validator.

jobio validates jobs by its own interpreter of JOB_SCHEMA; jsonschema is a
test dependency only, the reference for the interpreter's decisions.
"""

import glob
import json
import os
import random

import pytest

from gradedca import jobio
from gradedca.cli import main
from gradedca.jobio import JOB_SCHEMA, JobError, validate_job

jsonschema = pytest.importorskip("jsonschema")

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
MUTATIONS = 5000

# replacement values, as JSON text: the JSON types, integers around each
# minimum, 2.0 (an integer to JSON Schema), booleans (never integers) and
# repeated items
_VALUES = [json.dumps(v) for v in [
    0, 1, -1, 7, 2.0, 0.0, 2.5, float("inf"), True, False, None, "", "x",
    "x^2+y", "dim", [], [0], [1, 2], [2.0], [True], ["x"], ["x", "y"],
    ["x", "x"], [["x"]], [[1]], [None], {}, {"op": "dim"}, {"x": ["y"]}]]
# added keys: misspellings and keys that belong to another object
_KEYS = ["idael", "bogus", "retry_limit", "forms", "seed", "N", "op",
         "columns", "variables", "twists", "claims"]


def _mutate(doc, rng):
    """Replace a value, drop a key or add a key in a container of doc,
    reached by a random descent from the root."""
    node = doc
    while rng.random() < 0.7:
        inner = [v for v in (node.values() if isinstance(node, dict) else node)
                 if isinstance(v, (dict, list)) and v]
        if not inner:
            break
        node = rng.choice(inner)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    kind = rng.choice(["replace", "replace", "drop", "add"])
    if kind == "add" and isinstance(node, dict):
        node[rng.choice(_KEYS)] = json.loads(rng.choice(_VALUES))
    elif kind == "drop" and isinstance(node, dict) and keys:
        del node[rng.choice(keys)]
    elif keys:
        node[rng.choice(keys)] = json.loads(rng.choice(_VALUES))


def _corpus_texts():
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.json")))
    assert paths
    return [open(p).read() for p in paths]


def test_decisions_match_draft_2020_12_on_mutated_corpus():
    reference = jsonschema.Draft202012Validator(JOB_SCHEMA)
    rng = random.Random(2020)
    texts = _corpus_texts()
    accepted = 0
    for trial in range(MUTATIONS):
        doc = json.loads(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        found = jobio._violation(JOB_SCHEMA, doc)
        assert (found is None) == reference.is_valid(doc), (trial, doc, found)
        accepted += found is None
    # both decisions are well represented, so neither side is vacuous
    assert 0.1 * MUTATIONS < accepted < 0.9 * MUTATIONS


def test_corpus_is_valid():
    for text in _corpus_texts():
        validate_job(json.loads(text))


def test_schema_uses_only_implemented_keywords():
    seen, stack = set(), [JOB_SCHEMA]
    while stack:
        schema = stack.pop()
        assert set(schema) <= jobio._KEYWORDS, set(schema) - jobio._KEYWORDS
        seen |= set(schema)
        types = schema.get("type", [])
        for t in [types] if isinstance(types, str) else types:
            assert t == "integer" or t in jobio._TYPES
        stack.extend(schema.get("properties", {}).values())
        for key in ("additionalProperties", "items"):
            sub = schema.get(key, False)
            assert sub is False or isinstance(sub, dict)
            stack.extend([sub] if sub is not False else [])
    assert seen == jobio._KEYWORDS  # and no keyword is implemented unused


@pytest.mark.parametrize("edit,path,words", [
    (lambda raw: raw["ops"][0].update(idael="Q"), "ops/0", "'idael'"),
    (lambda raw: raw.update(sample={"degree_bounds": []}),
     "sample/degree_bounds", "[]"),
    (lambda raw: raw["ops"][0].update(N=True), "ops/0/N", "integer"),
    (lambda raw: raw["ring"].update(variables=["x", "x"]),
     "ring/variables", "non-unique"),
    (lambda raw: raw["ring"].pop("variables"), "ring", "'variables'"),
], ids=["misspelled-op-key", "empty-degree-bounds", "boolean-N",
        "repeated-variable", "no-variables"])
def test_violation_reports_its_path(edit, path, words):
    raw = {"ring": {"variables": ["x", "y"]},
           "ops": [{"op": "hilbert-samuel", "ideal": "Q", "N": 3}]}
    validate_job(raw)
    edit(raw)
    with pytest.raises(JobError) as info:
        validate_job(raw)
    prefix = "job schema violation at %s: " % path
    assert str(info.value).startswith(prefix) and words in str(info.value)


def test_integer_accepts_two_point_zero():
    validate_job({"ring": {"variables": ["x"], "characteristic": 3.0},
                  "ops": [{"op": "hilbert-samuel", "N": 2.0}]})


def _floated(value):
    """value with every int outside its claims made a float, 2 as 2.0."""
    if isinstance(value, dict):
        return {k: v if k == "claims" else _floated(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_floated(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


@pytest.mark.parametrize("name", ["mixed-line", "plane-plus-line"])
def test_integral_floats_run_as_their_int_twin(name, tmp_path, capsys):
    # the schema reads 32003.0, "N": 4.0 and "powers": [1.0, 2.0, 3.0] as
    # integers; the engine gets ints, so the report is the int job's
    with open(os.path.join(CORPUS, name + ".json")) as fh:
        raw = json.load(fh)
    twin = _floated(raw)
    assert isinstance(twin["ring"]["characteristic"], float)
    outs = []
    for stem, doc in (("int", raw), ("float", twin)):
        path = tmp_path / (stem + ".json")
        path.write_text(json.dumps(doc))
        assert main(["compute", str(path), "--no-timings"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
