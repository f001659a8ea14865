"""End-to-end acceptance battery.

Each test prints a single PASS/FAIL line for its criterion so the suite
output doubles as an acceptance report.
"""

import glob
import json
import os
import random
import time

import pytest

from gradedca import brim, gb, homology, invariants, koszul, sampler
from gradedca.checks import check_instance
from gradedca.hilbert import (HilbertError, colength, dim_module,
                              hilbert_coefficients, module_length,
                              superficial_check)
from gradedca.jobio import build_job
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _report(name, ok, detail=""):
    print("\n[%s] criterion %s %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


def _corpus_jobs():
    jobs = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.json"))):
        raw = json.load(open(path))
        raw.setdefault("name", os.path.splitext(os.path.basename(path))[0])
        jobs.append(build_job(raw))
    return jobs


def _modules_with_samples(min_count=0):
    out = []
    for job in _corpus_jobs():
        m = job.module
        if dim_module(m) < 1:
            continue
        cfg = sampler.SampleConfig(
            seed=job.sample.seed, count=max(job.sample.count, min_count),
            degree_bounds=job.sample.degree_bounds)
        out.append((job.name, m, sampler.sample_parameter_ideals(m, cfg)))
    return out


def test_criterion_1_serre_identity():
    start = time.time()
    instances = 0
    ok = True
    for name, m, qs in _modules_with_samples():
        for q in qs[:8]:
            gens = list(q.gens)
            chi1 = koszul.koszul_homology(m, gens).chi1
            chi1_s = koszul.chi1_serre(m, gens)
            ok = ok and chi1 == chi1_s
            instances += 1
    elapsed = time.time() - start
    _report("1 (Euler-characteristic identity)", ok and instances >= 30
            and elapsed < 60,
            "%d instances, %.1fs" % (instances, elapsed))


def test_criterion_2_sign_constraints():
    samples = 0
    ok = True
    for name, m, qs in _modules_with_samples(min_count=40):
        for q in qs:
            gens = list(q.gens)
            hc = hilbert_coefficients(m, gens)
            e1 = hc.e[1] if len(hc.e) > 1 else 0
            chi1 = koszul.chi1_serre(m, gens)
            ok = ok and e1 <= 0 and chi1 >= 0
            samples += 1
    _report("2 (e1 <= 0 and chi1 >= 0)", ok and samples >= 200,
            "%d samples" % samples)


def test_criterion_3_cm_characterization():
    checked = 0
    ok = True
    for name, m, qs in _modules_with_samples():
        if not homology.is_unmixed(m):
            continue
        is_cm = homology.is_cohen_macaulay(m)
        for q in qs[:5]:
            hc = hilbert_coefficients(m, list(q.gens))
            e1 = hc.e[1] if len(hc.e) > 1 else 0
            ok = ok and ((e1 == 0) == is_cm)
            checked += 1
    _report("3 (vanishing e1 iff Cohen-Macaulay, unmixed case)",
            ok and checked >= 10, "%d unmixed instances" % checked)


def test_criterion_4_constancy(two_plane):
    cfg = sampler.SampleConfig(seed=101, count=25)
    ideals = [list(q.gens)
              for q in sampler.sample_parameter_ideals(two_plane, cfg)]
    data = invariants.standardness_data(two_plane, ideals)
    e1s = {s.e1 for s in data.samples}
    devs = {s.deviation for s in data.samples}
    prof = homology.local_cohomology_lengths(two_plane)
    from math import comb
    r = prof.dim
    predicted = -sum(comb(r - 2, i - 1) * prof.h[i] for i in range(1, r))
    ok = (len(data.samples) == 25 and e1s == {predicted} == {-1}
          and devs == {1} and data.I_M == 1)
    _report("4 (constancy on the two-plane module)", ok,
            "e1 %s deviations %s I(M)=%s" % (sorted(e1s), sorted(devs),
                                             data.I_M))


def test_criterion_5_generalized_cm_bound():
    from math import comb
    checked = 0
    ok = True
    for name, m, qs in _modules_with_samples():
        if not homology.is_generalized_cm(m):
            continue
        prof = homology.local_cohomology_lengths(m)
        r = prof.dim
        if r < 2:
            continue
        lower = -sum(comb(r - 2, i - 1) * prof.h[i] for i in range(1, r))
        for q in qs[:5]:
            e1 = hilbert_coefficients(m, list(q.gens)).e[1]
            ok = ok and lower <= e1 <= 0
            checked += 1
    _report("5 (bounded e1 on generalized Cohen-Macaulay instances)",
            ok and checked >= 5, "%d checks" % checked)


def test_criterion_6_hdeg_bounds(mixed_line, two_plane):
    ok = True
    checked = 0
    for name, m, qs in _modules_with_samples():
        r = dim_module(m)
        for q in qs[:3]:
            gens = list(q.gens)
            if r >= 2:
                rep = invariants.check_e1_torsion_bound(m, gens)
                ok = ok and rep.passed
            rep2 = invariants.check_chi1_hdeg_bound(m, gens)
            ok = ok and rep2.passed
            checked += 1
    # equality on the two worked examples
    y = mixed_line.ring.var(1)
    eq1 = invariants.check_chi1_hdeg_bound(mixed_line, [y])
    x, yy, z, w = two_plane.ring.gens()
    lin = [x + z, yy + w]
    eq2 = invariants.check_e1_torsion_bound(two_plane, lin)
    eq3 = invariants.check_chi1_hdeg_bound(two_plane, lin)
    equalities = all(eq.passed and eq.rhs - eq.lhs == 0
                     for eq in (eq1, eq2, eq3))
    _report("6 (torsion and degree bounds with worked equalities)",
            ok and equalities and checked >= 10,
            "%d sampled checks, equalities %s" % (checked, equalities))


def test_criterion_7_superficiality():
    ok = True
    instances = 0
    for name, m, qs in _modules_with_samples():
        rng = random.Random(7000)
        r = dim_module(m)
        hits = 0
        for attempt in range(10):
            if hits >= 3:
                break
            try:
                q = sampler.random_parameter_ideal(m, [1] * r, rng)
            except (HilbertError, sampler.SamplerError):
                break
            h = q.gens[0]
            rep = superficial_check(m, q, h)
            if not rep.passed:
                continue  # h not superficial for this draw; redraw
            quo = gb.quotient_by_ideal(m, [h])
            if dim_module(quo) <= 0:
                lemma = rep.colon_length <= module_length(quo)
            else:
                h0 = homology.local_cohomology_lengths(quo).h
                lemma = (not h0) or h0[0] is None or rep.colon_length <= h0[0]
            ok = ok and lemma
            instances += 1
            hits += 1
    _report("7 (coefficient transfer under hyperplane section)",
            ok and instances >= 20, "%d instances" % instances)


def test_criterion_8_hilbert_characteristic():
    ok = True
    checked = 0
    for name, m, qs in _modules_with_samples():
        for q in qs[:4]:
            gens = list(q.gens)
            if any(g.total_degree() != 1 for g in gens):
                continue
            if not invariants.is_d_sequence(m, gens):
                continue
            hx = invariants.hilbert_characteristic(m, gens)
            lam = colength(m, gens)
            ok = ok and hx == lam
            ok = ok and invariants.betti_bound_check(m, gens).passed
            checked += 1
    _report("8 (alternating-sum identity and Betti bound on d-sequences)",
            ok and checked >= 5, "%d d-sequence sops" % checked)


def test_criterion_9_buchsbaum_rim():
    start = time.time()
    ring1 = PolyRing(CoeffField(32003), ["x"])
    x = ring1.var(0)
    pm = brim.make_parameter_module(ring1, [], [[x, ring1.zero()],
                                                [ring1.zero(), x]])
    rep = brim.br_coefficients(pm)
    oracle = (rep.degree == 2 and rep.br == 2 and rep.br1 == 0
              and rep.equality_case
              and [brim.br_value(pm, n) for n in (1, 2, 3)] == [2, 6, 12])
    ok = oracle
    rng = random.Random(17)
    ring2 = PolyRing(CoeffField(32003), ["x", "y"])
    for rank in (1, 2):
        for _ in range(3):
            pm = sampler.random_parameter_module(ring2, [], rank, rng)
            r = brim.br_coefficients(pm)
            ok = ok and r.degree == 2 + rank - 1 and r.br1 <= 0
    elapsed = time.time() - start
    _report("9 (Buchsbaum-Rim table degree, br1 <= 0, diagonal oracle)",
            ok and elapsed < 120, "%.1fs" % elapsed)


def test_criterion_10_determinism():
    reports = []
    for _ in range(2):
        rows = []
        for job in _corpus_jobs():
            from gradedca.checks import check_instance, rows_to_matrix
            rows.extend(check_instance(job))
        from gradedca.checks import rows_to_matrix
        reports.append(json.dumps(rows_to_matrix(rows), sort_keys=True))
    ok = reports[0] == reports[1]
    failed = json.loads(reports[0])["failed"]
    _report("10 (bit-identical reruns of the full check suite)",
            ok and failed == 0,
            "identical=%s failed=%d" % (ok, failed))
