"""Job files: JSON schema, validation, and the operation runner.

A job describes one graded module (ring, twists, relation matrix), named
ideals, and a list of operations.  Corpus files reuse the same format
plus a "claims" object of expected values checked by the check suite.

JOB_SCHEMA is the one definition of a valid job.  It is read by a small
interpreter in this module, not by a JSON Schema library: the interpreter
implements exactly the keywords in _KEYWORDS, with Draft 2020-12's
meaning, which is all JOB_SCHEMA uses.
"""

from __future__ import annotations

import dataclasses
import platform
import time
from fractions import Fraction

from . import __version__, brim, homology, invariants, koszul, sampler
from . import gb as gbmod
from . import hilbert as hb
from .modules import FreeModule, GradedModule
from .poly import CoeffField, PolyError, PolyRing

_POLY_LIST = {"type": "array", "items": {"type": "string"}}

JOB_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["ring"],
    "properties": {
        "name": {"type": "string"},
        "ring": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variables"],
            "properties": {
                "characteristic": {"type": ["integer", "null"]},
                "variables": {"type": "array", "items": {"type": "string"},
                              "minItems": 1, "uniqueItems": True},
            },
        },
        "module": {
            "type": "object",
            "additionalProperties": False,
            "required": ["twists"],
            "properties": {
                "twists": {"type": "array", "items": {"type": "integer"},
                           "minItems": 1},
                "relations": {"type": "array", "items": _POLY_LIST},
            },
        },
        "ideals": {"type": "object", "additionalProperties": _POLY_LIST},
        "ops": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["op"],
                "properties": {
                    "op": {"type": "string"},
                    "ideal": {"type": "string"},
                    "h": {"type": "string"},
                    "N": {"type": "integer", "minimum": 0},
                    "powers": {"type": "array",
                               "items": {"type": "integer", "minimum": 1}},
                    "columns": {"type": "array", "items": _POLY_LIST},
                    "ring_relations": _POLY_LIST,
                },
            },
        },
        "sample": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer"},
                "count": {"type": "integer", "minimum": 1},
                "degree_bounds": {"type": "array", "minItems": 1,
                                  "items": {"type": "integer", "minimum": 1}},
            },
        },
        "brim": {
            "type": "object",
            "additionalProperties": False,
            "required": ["columns"],
            "properties": {
                "columns": {"type": "array", "items": _POLY_LIST},
                "ring_relations": _POLY_LIST,
                "claims": {"type": "object"},
            },
        },
        "claims": {"type": "object"},
    },
}


class JobError(PolyError):
    """Invalid job input (schema-level); maps to exit code 2."""


_KEYWORDS = {"type", "properties", "required", "additionalProperties",
             "items", "minItems", "uniqueItems", "minimum"}
_TYPES = {"object": dict, "array": list, "string": str, "null": type(None)}


def _is_type(value, name):
    if name == "integer":  # as in JSON Schema, 2.0 is an integer and true is not
        return (isinstance(value, float) and value.is_integer()
                or isinstance(value, int) and not isinstance(value, bool))
    return isinstance(value, _TYPES[name])


def _canonical(value):
    """A hashable form of a JSON value, equal exactly when the values are
    equal in JSON Schema's sense: 1 equals 1.0 but not true."""
    if isinstance(value, list):
        return ("array",) + tuple(map(_canonical, value))
    if isinstance(value, dict):
        return ("object", frozenset((k, _canonical(v)) for k, v in value.items()))
    return (isinstance(value, bool), value)


def _types(schema):
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else types


def _violation(schema, value, path=()):
    """(path, message) of the first place where value breaks schema, or
    None.  Each keyword applies only to values of the type it constrains."""
    types = _types(schema)
    if types and not any(_is_type(value, t) for t in types):
        return path, "%r is not of type %s" % (
            value, ", ".join(repr(t) for t in types))
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                return path, "%r is a required property" % key
        props = schema.get("properties", {})
        rest = schema.get("additionalProperties", {})
        unexpected = [key for key in value if key not in props]
        if rest is False and unexpected:
            return path, ("Additional properties are not allowed (%s %s unexpected)"
                          % (", ".join(repr(k) for k in unexpected),
                             "was" if len(unexpected) == 1 else "were"))
        for key, item in value.items():
            found = _violation(props.get(key, rest), item, path + (key,))
            if found:
                return found
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, "%r is too short" % (value,)
        if (schema.get("uniqueItems")
                and len(set(map(_canonical, value))) < len(value)):
            return path, "%r has non-unique elements" % (value,)
        for k, item in enumerate(value):
            found = _violation(schema.get("items", {}), item, path + (k,))
            if found:
                return found
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value < schema.get("minimum", value)):
        return path, "%r is less than the minimum of %r" % (value, schema["minimum"])
    return None


def _with_ints(schema, value):
    """The valid value with every float that schema types integer, such as
    2.0, made an int, so that a job runs as its int twin does.  Below an
    empty schema, as in claims, nothing is typed, so nothing changes."""
    if not schema:
        return value
    if isinstance(value, float) and "integer" in _types(schema):
        return int(value)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        rest = schema.get("additionalProperties", {})
        return {k: _with_ints(props.get(k, rest), v) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_ints(schema.get("items", {}), v) for v in value]
    return value


def validate_job(raw):
    found = _violation(JOB_SCHEMA, raw)
    if found is not None:
        path, message = found
        raise JobError("job schema violation at %s: %s"
                       % ("/".join(map(str, path)), message))


@dataclasses.dataclass
class Job:
    raw: dict
    ring: PolyRing
    module: GradedModule
    ideals: dict
    ops: list
    sample: sampler.SampleConfig
    claims: dict
    name: str


def _positive_form(p, what):
    """p, when it is a nonzero form of positive degree; else JobError."""
    if p.is_zero() or not p.is_homogeneous() or p.total_degree() == 0:
        raise JobError("%s %r is not a nonzero form of positive degree"
                       % (what, p))
    return p


def build_job(raw, default_char=32003, seed_override=None) -> Job:
    validate_job(raw)
    raw = _with_ints(JOB_SCHEMA, raw)
    rspec = raw["ring"]
    char = rspec.get("characteristic", default_char)
    try:
        fld = CoeffField(char)
    except PolyError as exc:
        raise JobError("invalid characteristic: %s" % exc) from exc
    ring = PolyRing(fld, rspec["variables"])
    mspec = raw.get("module", {"twists": [0]})
    twists = mspec["twists"]
    amb = FreeModule(ring, twists)
    rels = []
    for row in mspec.get("relations", []):
        if len(row) != len(twists):
            raise JobError("relation vector length %d != %d twists"
                           % (len(row), len(twists)))
        rels.append(amb.element([ring.poly(s) for s in row]))
    if not all(r.is_homogeneous() for r in rels):
        raise JobError("module relations must be homogeneous for the twists")
    module = GradedModule.from_relations(amb, rels)
    # every op reads an ideal as forms in the maximal ideal
    ideals = {name: [_positive_form(ring.poly(s), "ideal %r: generator" % name)
                     for s in polys]
              for name, polys in raw.get("ideals", {}).items()}
    sspec = dict(raw.get("sample", {}))
    if seed_override is not None:
        sspec["seed"] = seed_override
    if "degree_bounds" in sspec:
        sspec["degree_bounds"] = tuple(sspec["degree_bounds"])
    cfg = sampler.SampleConfig(**sspec)
    return Job(raw=raw, ring=ring, module=module, ideals=ideals,
               ops=raw.get("ops", []), sample=cfg,
               claims=raw.get("claims", {}), name=raw.get("name", "job"))


def plain(obj):
    """Recursively convert results to JSON-serializable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if obj == float("inf"):
            return "infinite"
        if obj == float("-inf"):
            return "-infinite"
        return obj
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return repr(obj)


def _ideal(job: Job, opspec, key="ideal"):
    name = opspec.get(key)
    if name is None:
        raise JobError("op %r requires an %r field" % (opspec["op"], key))
    if name not in job.ideals:
        raise JobError("unknown ideal %r" % name)
    return job.ideals[name]


def parameter_module(job: Job, spec):
    """The ParameterModule of spec's columns over R = S/(ring_relations);
    with no ring_relations, R = S/I when M = S/I is cyclic, and S else."""
    rels = spec.get("ring_relations")
    if rels is None:
        if job.module.ambient.rank == 1:
            rels = [v.coordinates()[0] for v in job.module.relations()]
        else:
            rels = []
    else:
        rels = [job.ring.poly(s) for s in rels]
    cols = [[job.ring.poly(s) for s in col] for col in spec["columns"]]
    try:
        return brim.make_parameter_module(job.ring, rels, cols)
    except brim.BrimError as exc:
        raise JobError("invalid Buchsbaum-Rim columns: %s" % exc) from exc


def execute_op(job: Job, opspec):
    op = opspec["op"]
    m = job.module
    if op == "dim":
        return plain(hb.dim_module(m))
    if op == "length":
        lam = hb.module_length(m)
        return lam if lam is not None else "infinite"
    if op == "betti":
        return gbmod.betti_numbers(m)
    if op == "cohomology":
        prof = homology.local_cohomology_lengths(m)
        return {"h": ["infinite" if v is None else v for v in prof.h],
                "depth": plain(prof.depth), "dim": plain(prof.dim)}
    if op == "unmixed":
        u = homology.unmixed_component(m)
        k = m.ring.num_vars
        return {"unmixed": not u,
                "component_dim": plain(hb.series_dim(u, k)),
                "component_length": plain(hb.series_length(u, k)),
                "quotient_dim": plain(hb.dim_module(m))}
    if op == "classify":
        qs = sampler.sample_parameter_ideals(m, job.sample)
        return invariants.classify(m, [q.gens for q in qs])
    if op == "hilbert-samuel":
        gens = _ideal(job, opspec)
        return plain(hb.hilbert_samuel(m, gens, opspec.get("N", 6)))
    if op == "hilbert-coefficients":
        return plain(hb.hilbert_coefficients(m, _ideal(job, opspec)))
    if op in ("koszul-homology", "chi1-recursion"):
        run = (koszul.koszul_homology if op == "koszul-homology"
               else koszul.chi1_recursion_check)
        gens = _ideal(job, opspec)
        try:
            return plain(run(m, gens))
        except koszul.KoszulError as exc:
            # every KoszulError is about the input forms
            raise JobError("ideal %r: %s" % (opspec["ideal"], exc)) from exc
    if op == "chi1-serre":
        return koszul.chi1_serre(m, _ideal(job, opspec))
    if op == "hdeg":
        return plain(invariants.hdeg_report(m, _ideal(job, opspec)))
    if op == "e1-torsion-bound":
        return plain(invariants.check_e1_torsion_bound(m, _ideal(job, opspec)))
    if op == "chi1-hdeg-bound":
        return plain(invariants.check_chi1_hdeg_bound(m, _ideal(job, opspec)))
    if op == "superficial-check":
        gens = _ideal(job, opspec)
        if "h" not in opspec:
            raise JobError("superficial-check requires an 'h' field")
        h = _positive_form(job.ring.poly(opspec["h"]), "superficial-check: h")
        q = hb.make_parameter_ideal(m, gens)
        return plain(hb.superficial_check(m, q, h))
    if op == "d-sequence":
        return invariants.is_d_sequence(m, _ideal(job, opspec))
    if op == "hilbert-characteristic":
        gens = _ideal(job, opspec)
        return {"h": invariants.hilbert_characteristic(m, gens),
                "colength": hb.colength(m, gens)}
    if op == "betti-bound":
        return plain(invariants.betti_bound_check(m, _ideal(job, opspec)))
    if op == "estimate-lambda":
        return plain(sampler.estimate_lambda(m, job.sample))
    if op == "estimate-xi":
        return plain(sampler.estimate_xi(m, job.sample))
    if op == "lambda-sweep":
        gens = _ideal(job, opspec)
        powers = opspec.get("powers", [1, 2, 3])
        return [[l, e] for l, e in sampler.lambda_sweep(m, gens, powers)]
    if op == "buchsbaum-rim":
        pm = parameter_module(job, opspec)
        return plain(brim.br_coefficients(pm))
    if op == "probe-9-5":
        pm = parameter_module(job, opspec)
        return plain(brim.probe_conjecture_9_5(pm))
    raise JobError("unknown op %r" % op)


def run_job(raw, default_char=32003, seed_override=None, with_timings=True):
    """Execute a job dict and return the report document."""
    job = build_job(raw, default_char, seed_override)
    results = []
    timings = {}
    for k, opspec in enumerate(job.ops):
        t0 = time.perf_counter()
        results.append({"op": opspec, "result": execute_op(job, opspec)})
        timings["%d:%s" % (k, opspec["op"])] = round(time.perf_counter() - t0, 4)
    report = {
        "name": job.name,
        "inputs": job.raw,
        "seed": job.sample.seed,
        "versions": {"gradedca": __version__,
                     "python": platform.python_version()},
        "results": results,
    }
    if with_timings:
        report["timings"] = timings
    return report
