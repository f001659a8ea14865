"""The benchmark's three workloads.

Each workload has a set-up step, which imports gradedca, reads and validates
its inputs and builds the job and module objects, and a list of ops per
round.  A round is the workload's fixed set of ops; round k of a run draws
its random inputs from (seed, k) alone, so the same seed gives the same
inputs.  Every round works on freshly built module objects, because
gradedca caches derived data on the module object and a second pass over
the same objects would measure those caches rather than the computation.

An op's ``run`` makes only the gradedca calls that are timed; its ``check``
compares the returned objects with values computed apart from the program
(see oracles.py) and returns a list of errors.

This module imports no gradedca code at import time, so that timing
``setup`` includes the import of the program.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import random
from itertools import product

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(ROOT, "corpus")
CHECK_MATRIX = os.path.join(HERE, "check_matrix.json")
FIELD = 32003


@dataclasses.dataclass
class Op:
    name: str
    run: object      # () -> result, the timed gradedca calls
    check: object    # result -> list of error strings


def _read_corpus(names=None):
    out = {}
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.json"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        if names is None or stem in names:
            with open(path) as fh:
                out[stem] = json.load(fh)
    return out


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


class _Jobs:
    """Job objects built from raw documents: the set-up's own build first,
    a fresh build for every later request."""

    def __init__(self, jobio, raws, default_char):
        self.jobio = jobio
        self.raws = raws
        self.default_char = default_char
        self.first = self.build()

    def build(self):
        out = {}
        for stem, raw in self.raws.items():
            job = self.jobio.build_job(raw, default_char=self.default_char)
            if job.name == "job":
                job.name = stem
            out[stem] = job
        return out

    def fresh(self):
        if self.first is not None:
            jobs, self.first = self.first, None
            return jobs
        return self.build()


# ---------------------------------------------------------------------------
# check-corpus


class CheckCorpus:
    """The check battery over corpus/, as `gradedca check corpus` runs it."""

    name = "check-corpus"

    def setup(self, seed):
        from gradedca import checks, jobio
        self.checks = checks
        # Default flags: every instance keeps the sample seed of its file,
        # so the run's seed does not change the inputs.
        return _Jobs(jobio, _read_corpus(), FIELD)

    def round(self, jobs, k):
        with open(CHECK_MATRIX) as fh:
            recorded = json.load(fh)["checks"]
        ops = []
        for stem, job in jobs.fresh().items():
            expected = [r for r in recorded if r["instance"] == job.name]
            ops.append(Op(stem, lambda job=job: self.checks.check_instance(job),
                          lambda rows, expected=expected:
                          oracles.check_rows_errors(
                              [dataclasses.asdict(r) for r in rows], expected)))
        return ops

    def overhead_ops(self, ops):
        # An untraced and a traced pass of two-plane (two thirds of the
        # battery) do not fit in one run's time limit next to the rest.
        return [op for op in ops if op.name != "two-plane"]


# ---------------------------------------------------------------------------
# fresh-coefficients

HS_MODULES = ["two-plane", "dim3-buchsbaum", "hypersurface", "plane-plus-line",
              "mixed-line", "mixed-sum", "free-plane"]
COHEN_MACAULAY = {"hypersurface", "free-plane"}
BUCHSBAUM = {"two-plane", "dim3-buchsbaum", "mixed-line", "mixed-sum"}
# A (2,1,1) sop on dim3-buchsbaum takes about 50 s for one table; only the
# linear sop fits in a round.
LINEAR_ONLY = {"dim3-buchsbaum"}

# name, variables, ring relations, e(R), dim R, Cohen-Macaulay, ranks r.
# r = 3 over a two-dimensional ring takes 12-16 s per op, so r = 3 runs
# over the polynomial ring in one variable.
BR_BASES = [
    ("polynomial-line", ["x"], [], 1, 1, True, (1, 2, 3)),
    ("polynomial-plane", ["x", "y"], [], 1, 2, True, (1, 2)),
    ("hypersurface", ["x", "y", "z"], ["x*y - z^2"], 2, 2, True, (1, 2)),
    ("two-plane", ["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"], 2, 2,
     False, (1, 2)),
]


def _patterns(name, r):
    if name in LINEAR_ONLY:
        return [(1,) * r]
    return list(product((1, 2), repeat=r))


class FreshCoefficients:
    """Hilbert–Samuel and Buchsbaum–Rim coefficients of fresh parameter
    ideals and modules over F_32003; no (module, Q) pair repeats."""

    name = "fresh-coefficients"

    def setup(self, seed):
        from gradedca import brim, hilbert, jobio, koszul, sampler
        self.hb, self.koszul, self.sampler, self.brim = hilbert, koszul, sampler, brim
        raws = _read_corpus(set(HS_MODULES))
        self.dims = {n: raws[n]["claims"]["dim"] for n in HS_MODULES}
        self.e1 = {n: raws[n]["claims"]["e1_distinct"][0] for n in BUCHSBAUM}
        for base in BR_BASES:
            raws["br:" + base[0]] = {
                "name": "br:" + base[0],
                "ring": {"characteristic": FIELD, "variables": base[1]},
                "module": {"twists": [0], "relations": [[p] for p in base[2]]}}
        self.seed = seed
        self.relations = {}
        return _Jobs(jobio, raws, FIELD)

    def round(self, jobs, k):
        built = jobs.fresh()
        ops = []
        for name in HS_MODULES:
            job = built[name]
            for degs in _patterns(name, self.dims[name]):
                ops.append(self._hilbert_op(job, name, degs, k))
        for base in BR_BASES:
            job = built["br:" + base[0]]
            for r in base[6]:
                ops.append(self._brim_op(job, base, r, k))
        return ops

    def overhead_ops(self, ops):
        return ops

    def _hilbert_op(self, job, name, degs, k):
        rng = _rng(self.seed, k, name, degs)

        def run():
            q = self.sampler.random_parameter_ideal(job.module, list(degs), rng)
            hc = self.hb.hilbert_coefficients(job.module, q.gens)
            kh = self.koszul.koszul_homology(job.module, q.gens)
            return q, hc, kh

        def check(result):
            q, hc, kh = result
            length = self._length(job, q.gens)
            return oracles.hilbert_errors(
                name, degs, hc.e, kh.chi1, kh.lengths[0],
                q.colength_certificate, length, name in COHEN_MACAULAY,
                self.e1.get(name))
        return Op("%s%s" % (name, degs), run, check)

    def _length(self, job, gens):
        return oracles.colength(FIELD, job.raw, self._relations(job),
                                [g.terms for g in gens])

    def _relations(self, job):
        name = job.raw["name"]
        if name not in self.relations:
            self.relations[name] = oracles.parse_relations(
                job.raw["module"].get("relations", []),
                job.raw["ring"]["variables"])
        return self.relations[name]

    def _brim_op(self, job, base, r, k):
        bname, _, _, e_r, d, cm, _ = base
        rng = _rng(self.seed, k, bname, r)
        rels = [v.coordinates()[0] for v in job.module.relations()]

        def run():
            pm = self.sampler.random_parameter_module(job.ring, rels, r, rng)
            return self.brim.br_coefficients(pm)

        def check(rep):
            return oracles.brim_errors(e_r, d, cm, self.e1.get(bname), r,
                                       rep.br, rep.br1, rep.degree)
        return Op("br:%s:r%d" % (bname, r), run, check)


# ---------------------------------------------------------------------------
# structure-qq

VARS4 = ["x", "y", "z", "w"]
# Monomial ideals in k[x,y,z,w] with the dimension of their quotient.
MONOMIAL_TEMPLATES = [
    (["x*z", "x*w", "y*z", "y*w"], 2),
    (["w^3", "x*z", "y*w", "z*w"], 2),
    (["x*y*z", "z^2", "x*w"], 2),
    (["x*w", "x*y*z", "x^3"], 3),
    (["y*w^2", "x*z*w", "y*z*w", "x*z^2"], 2),
    (["x*z", "z^3", "x^3", "z^2*w"], 2),
]
# Matrices of linear forms in k[x,y,z,w], as columns of coefficient rows,
# each in its own fixed generic coordinates: the 2x3 Hankel matrix of the
# twisted cubic (a Cohen-Macaulay cokernel of dimension 2) four times, and
# the complete intersection (x, y) twice.  Wider shapes cost too much and
# too unevenly for a round: a random 3x4 cokernel took 94 s, and a 2x4 one
# 1.7-3.0 s depending on its entries.
_E = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
HANKEL = [[_E[0], _E[1]], [_E[1], _E[2]], [_E[2], _E[3]]]
LINEAR_TEMPLATES = [HANKEL] * 4 + [[[_E[0]], [_E[1]]]] * 2
LINEAR_DIM = 2
CLAIM_KEYS = ("dim", "depth", "betti", "h", "unmixed")
# k[x,y,z]/(x^2, xy, xz) has depth 0, so the first form of every sop is a
# zero divisor, and chi1_recursion_check reports a failure on it every
# time: it adds chi1(x'; 0:_M x1) where the Euler characteristic
# chi(x'; 0:_M x1) belongs.  The op counts as failed.  Module and sop are
# fixed, so the failure does not depend on the seed.
DEPTH_ZERO = {"depth-zero": (["x^2", "x*y", "x*z"], ["y", "z"])}
SOP_COEFFICIENT_TOP = 9


class RecursionCheckFailed(Exception):
    """The program's own chi1 recursion check reported a failure."""


def _form_text(coeffs, variables):
    return "".join("%+d*%s" % (c, v) for c, v in zip(coeffs, variables)
                   if c).lstrip("+")


def _nonzero(rng, top):
    return rng.choice((-1, 1)) * rng.randint(1, top)


def _generic_change(rng, n):
    """A dense invertible integer matrix g, for x_j -> sum_k g[j][k] x_k."""
    while True:
        g = [[_nonzero(rng, 3) for _ in range(n)] for _ in range(n)]
        if oracles.rank_of(g) == n:
            return g


def _substitute(coeffs, g):
    """Coefficients of the linear form c(g x)."""
    n = len(coeffs)
    return [sum(coeffs[j] * g[j][k] for j in range(n)) for k in range(n)]


def _plain_matrix(matrix):
    return [[dict(p.terms) for p in row] for row in matrix]


class StructureQQ:
    """Resolutions, Ext duals, unmixed parts and Koszul homology over Q.

    The modules are fixed; each op's linear sop carries the seed.  A seeded
    renaming of the monomial quotients' variables moved one op between
    0.11 s and 0.59 s (grevlex is not symmetric in the variables), and
    seeded coordinates for the matrices moved their six ops together
    between 2.9 s and 5.8 s, so the seed stays out of the modules.  Every
    sop form has all coefficients nonzero, so no monomial prime but the
    maximal ideal holds it, and its first form is a nonzerodivisor on the
    modules of positive depth; such generic forms keep the round's cost
    within a few percent from seed to seed.
    """

    name = "structure-qq"

    def setup(self, seed):
        from gradedca import gb, hilbert, homology, jobio, koszul, modules
        self.gb, self.hb, self.homology = gb, hilbert, homology
        self.koszul, self.modules = koszul, modules
        self.seed = seed
        self.facts = {}
        return _Jobs(jobio, self._raws(), None)

    def _raws(self):
        raws = {}

        def add(stem, variables, twists, relations, dim, claims=None):
            raws[stem] = {"name": stem,
                          "ring": {"characteristic": None, "variables": variables},
                          "module": {"twists": twists, "relations": relations},
                          "claims": dict(claims or {}, dim=dim)}

        for stem, raw in _read_corpus().items():
            claims = {c: raw["claims"][c] for c in CLAIM_KEYS if c in raw["claims"]}
            add(stem, raw["ring"]["variables"], raw["module"]["twists"],
                raw["module"].get("relations", []), claims["dim"], claims)
        for i, (gens, dim) in enumerate(MONOMIAL_TEMPLATES):
            add("monomial-%d" % i, VARS4, [0], [[g] for g in gens], dim)
        for stem, (gens, sop) in DEPTH_ZERO.items():
            add(stem, ["x", "y", "z"], [0], [[g] for g in gens], len(sop))
        for i, columns in enumerate(LINEAR_TEMPLATES):
            g = _generic_change(_rng("linear", i), len(VARS4))
            rels = [[_form_text(_substitute(c, g), VARS4) for c in col]
                    for col in columns]
            add("linear-%d" % i, VARS4, [0] * len(columns[0]), rels, LINEAR_DIM)
        return raws

    def round(self, jobs, k):
        return [self._op(stem, job, k) for stem, job in jobs.fresh().items()]

    def overhead_ops(self, ops):
        return ops

    def _sop(self, stem, job, k):
        """Linear forms, dim M of them, that form a sop of the module."""
        if stem in DEPTH_ZERO:
            return [job.ring.poly(f) for f in DEPTH_ZERO[stem][1]]
        # a second module object, so that the test leaves no cache behind
        probe = self.modules.GradedModule(job.module.presentation)
        variables = job.raw["ring"]["variables"]
        rng = _rng(self.seed, k, stem, "sop")
        while True:
            sop = [job.ring.poly(_form_text(
                       [_nonzero(rng, SOP_COEFFICIENT_TOP) for _ in variables],
                       variables))
                   for _ in range(job.raw["claims"]["dim"])]
            try:
                self.hb.colength(probe, sop)
                return sop
            except self.hb.HilbertError:
                continue

    def _op(self, stem, job, k):
        gb, hb, homology, koszul = self.gb, self.hb, self.homology, self.koszul
        forms = self._sop(stem, job, k)

        def run():
            m = job.module
            out = {"betti": gb.betti_numbers(m),
                   "resolution": gb.minimal_free_resolution(m),
                   "ab_depth": gb.depth(m),
                   "profile": homology.local_cohomology_lengths(m),
                   "unmixed_component": homology.unmixed_component(m),
                   "unmixed": homology.is_unmixed(m),
                   "cm": homology.is_cohen_macaulay(m),
                   "dim": hb.dim_module(m)}
            if m.ambient.rank == 1 and m.presentation.source.rank:
                out["basis"] = gb.module_gb(m).basis
            r = out["dim"]
            if r >= 1:
                q = hb.make_parameter_ideal(m, forms[:r])
                out["sop"] = q
                out["koszul_homology"] = koszul.koszul_homology(m, q.gens)
                if r >= 2:
                    rec = koszul.chi1_recursion_check(m, q.gens)
                    if not rec.passed:
                        raise RecursionCheckFailed(rec)
                    out["recursion"] = rec
            return out

        def check(out):
            res = self._plain(out)
            return oracles.structure_errors(res, self._facts(job, out))
        return Op(stem, run, check)

    def _plain(self, out):
        prof = out["profile"]
        res = {"betti": out["betti"],
               "resolution": [_plain_matrix(d.matrix) for d in out["resolution"]],
               "ab_depth": out["ab_depth"], "ext_depth": prof.depth,
               "depth": prof.depth,
               "h": ["infinite" if v is None else v for v in prof.h],
               "unmixed": out["unmixed"], "cm": out["cm"], "dim": out["dim"]}
        if "basis" in out:
            res["groebner"] = {oracles.monic({mon: c for (_, mon), c in v.terms.items()})
                               for v in out["basis"]}
        if "sop" in out:
            kh = out["koszul_homology"]
            res["koszul"] = {"lengths": kh.lengths, "chi1": kh.chi1,
                             "colength": out["sop"].colength_certificate}
            rec = out.get("recursion")
            if rec is not None:
                res["koszul"]["recursion"] = (rec.total, rec.from_quotient,
                                              rec.from_colon)
        return res

    def _facts_of(self, raw):
        """Values computed from the job text alone, once per text."""
        key = json.dumps(raw, sort_keys=True)
        if key not in self.facts:
            variables = raw["ring"]["variables"]
            twists = raw["module"]["twists"]
            rels = oracles.parse_relations(raw["module"].get("relations", []),
                                           variables)
            matrix = [[{mon: c for (p, mon), c in v.items() if p == pos}
                       for v in rels] for pos in range(len(twists))]
            facts = {"relations": rels, "claims": raw["claims"],
                     "rank": len(twists) - (oracles.rank_at_points(
                         matrix, len(variables)) if rels else 0)}
            if len(twists) == 1 and rels:
                facts["groebner"] = oracles.sympy_groebner(
                    [row[0] for row in raw["module"]["relations"]], variables)
            self.facts[key] = facts
        return self.facts[key]

    def _facts(self, job, out):
        facts = dict(self._facts_of(job.raw))
        if "sop" in out:
            facts["length"] = oracles.colength(
                oracles.QQ_PRIME, job.raw, facts["relations"],
                [g.terms for g in out["sop"].gens])
        return facts


WORKLOADS = {w.name: w for w in (CheckCorpus(), FreshCoefficients(),
                                 StructureQQ())}
