"""Theorem-check battery over corpus instances.

Every check computes both sides of its statement through independent
code paths and records a pass/fail row; claims stored in a corpus file
are compared against freshly computed values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import brim, homology, invariants, koszul, sampler
from . import gb as gbmod
from . import hilbert as hb
from .jobio import Job, parameter_module, plain


@dataclass
class CheckRow:
    instance: str
    check: str
    passed: bool
    detail: str


def _row(job, check, passed, detail=""):
    return CheckRow(instance=job.name, check=check, passed=bool(passed),
                    detail=str(detail))


def _sample(job: Job):
    return sampler.sample_parameter_ideals(job.module, job.sample)


def check_claims(job: Job):
    """Compare stored corpus claims against fresh computations."""
    rows = []
    m = job.module
    for key, expected in sorted(job.claims.items()):
        if key == "dim":
            got = plain(hb.dim_module(m))
        elif key == "depth":
            got = plain(homology.depth(m))
        elif key == "unmixed":
            got = homology.is_unmixed(m)
        elif key == "gen_cm":
            got = homology.is_generalized_cm(m)
        elif key == "classify":
            qs = _sample(job)
            got = invariants.classify(m, [q.gens for q in qs])
        elif key == "e1_distinct":
            qs = _sample(job)
            es = [hb.hilbert_coefficients(m, q.gens).e for q in qs]
            got = sorted({e[1] for e in es if len(e) > 1})
        elif key == "I_M":
            got = invariants.buchsbaum_invariant(m)[0]
        elif key == "betti":
            got = gbmod.betti_numbers(m)
        elif key == "h":
            prof = homology.local_cohomology_lengths(m)
            got = ["infinite" if v is None else v for v in prof.h]
        else:
            rows.append(_row(job, "claim:%s" % key, False, "unknown claim key"))
            continue
        rows.append(_row(job, "claim:%s" % key, got == expected,
                         "expected %r, got %r" % (expected, got)))
    return rows


def check_instance(job: Job):
    """Full battery for one corpus module; returns CheckRow list."""
    rows = list(check_claims(job))
    m = job.module
    r = hb.dim_module(m)
    if r == hb.NEG_INF:
        return rows  # the zero module has no parameter ideals to check
    prof = homology.local_cohomology_lengths(m)
    i_m, bound_s = invariants.buchsbaum_invariant(m)

    samples = _sample(job)
    heavy = samples[:min(len(samples), 5)]
    coeffs = [hb.hilbert_coefficients(m, q.gens) for q in samples]
    # the deviations λ(M/QM) − e₀, which are also χ₁ by Serre
    devs = [q.colength_certificate - c.e[0] for q, c in zip(samples, coeffs)]

    # Serre identity: Koszul homology vs table fit, independent paths
    serre_ok, serre_detail = True, []
    for q, direct in zip(heavy, devs):
        hom = koszul.koszul_homology(m, q.gens)
        if hom.chi1 != direct:
            serre_ok = False
            serre_detail.append("chi1 %d != %d" % (hom.chi1, direct))
        if hom.lengths[0] != q.colength_certificate:
            serre_ok = False
            serre_detail.append("H0 length mismatch")
    rows.append(_row(job, "serre-identity", serre_ok, "; ".join(serre_detail)))

    # sign constraints on every sample
    e1s = [c.e[1] for c in coeffs if len(c.e) > 1]
    rows.append(_row(job, "e1-nonpositive", all(v <= 0 for v in e1s),
                     "values %s" % sorted(set(e1s))))
    rows.append(_row(job, "chi1-nonnegative", all(v >= 0 for v in devs),
                     "values %s" % sorted(set(devs))))

    # CM characterization on unmixed modules: e1 = 0 <=> CM
    if prof.is_unmixed and r >= 1:
        vanish = all(v == 0 for v in e1s)
        rows.append(_row(job, "cm-characterization", vanish == prof.is_cohen_macaulay,
                         "e1 zero: %s, CM: %s" % (vanish, prof.is_cohen_macaulay)))

    # generalized CM bound and standardness
    if prof.finite_below_top() and r >= 1:
        ok = all(0 >= v >= -bound_s for v in e1s) if e1s else True
        rows.append(_row(job, "gencm-e1-bound", ok,
                         "e1 in %s, bound %s" % (sorted(set(e1s)), bound_s)))
        standard = [d == i_m for d in devs]
        extremal = [v == -bound_s for v in e1s]
        if r >= 2 and e1s:
            rows.append(_row(job, "standardness-biconditional",
                             all(s == x for s, x in zip(standard, extremal)),
                             "standard %s extremal %s" % (standard, extremal)))
        if all(standard):
            rows.append(_row(job, "buchsbaum-constancy",
                             len(set(e1s)) <= 1 and all(d == i_m for d in devs),
                             "e1 %s, deviations all I(M)=%s" % (sorted(set(e1s)), i_m)))

    # hdeg bounds
    if r >= 2:
        ok, details = True, []
        for q in heavy:
            rep = invariants.check_e1_torsion_bound(m, q.gens)
            ok = ok and rep.passed
            details.append("%d<=%d" % (rep.lhs, rep.rhs))
        rows.append(_row(job, "e1-torsion-bound", ok, " ".join(details)))
    if r >= 1:
        ok, details = True, []
        for q in heavy:
            rep = invariants.check_chi1_hdeg_bound(m, q.gens)
            ok = ok and rep.passed
            details.append("%d<=%d" % (rep.lhs, rep.rhs))
        rows.append(_row(job, "chi1-hdeg-bound", ok, " ".join(details)))

    # superficial transfer and the colon-length inequality
    if r >= 1:
        rng = random.Random(job.sample.seed + 101)
        ok = False
        detail = ""
        for _ in range(5):
            try:
                q = sampler.random_parameter_ideal(m, [1] * r, rng)
            except (hb.HilbertError, sampler.SamplerError):
                detail = "no linear sop"
                break
            h = q.gens[0]
            rep = hb.superficial_check(m, q, h)
            if rep.passed:
                col = rep.colon_length
                quo = gbmod.quotient_by_ideal(m, [h])
                h0 = homology.local_cohomology_lengths(quo).h
                lemma = (not h0) or h0[0] is None or col <= h0[0]
                if hb.dim_module(quo) == 0:
                    lemma = col <= hb.module_length(quo)
                ok = lemma
                detail = "colon %d" % col
                break
            detail = rep.detail
        rows.append(_row(job, "superficial-transfer", ok, detail))

    # d-sequence sops: Hilbert characteristic and Betti bound
    if r >= 1:
        rng = random.Random(job.sample.seed + 202)
        found = None
        for _ in range(5):
            try:
                q = sampler.random_parameter_ideal(m, [1] * r, rng)
            except (hb.HilbertError, sampler.SamplerError):
                break
            if invariants.is_d_sequence(m, q.gens):
                found = q
                break
        if found is not None:
            hval = invariants.hilbert_characteristic(m, found.gens)
            rows.append(_row(job, "hilbert-characteristic",
                             hval == found.colength_certificate,
                             "h=%d lambda=%d" % (hval, found.colength_certificate)))
            rep = invariants.betti_bound_check(m, found.gens)
            rows.append(_row(job, "betti-bound", rep.passed,
                             "betti %s <= %d*%s" % (rep.betti, rep.colength,
                                                    rep.field_betti)))

    # chi1 recursion
    if r >= 2:
        rep = koszul.chi1_recursion_check(m, list(samples[0].gens))
        rows.append(_row(job, "chi1-recursion", rep.passed,
                         "%d = %d + %d" % (rep.total, rep.from_quotient,
                                           rep.from_colon)))

    # Buchsbaum-Rim battery
    if "brim" in job.raw:
        rows.extend(check_brim(job))
    return rows


def check_brim(job: Job):
    rows = []
    spec = job.raw["brim"]
    pm = parameter_module(job, spec)
    rep = brim.br_coefficients(pm)
    d = pm.base_dim
    rows.append(_row(job, "br-degree", rep.degree == d + pm.rank - 1,
                     "degree %d" % rep.degree))
    rows.append(_row(job, "br-pointwise-bound", rep.pointwise_bound_ok,
                     "table %s" % rep.table))
    if pm.is_parameter:
        rows.append(_row(job, "br1-nonpositive", rep.br1 <= 0,
                         "br1 %d" % rep.br1))
        probe = brim.probe_conjecture_9_5(pm)
        rows.append(_row(job, "conjecture-9-5-probe", not probe.alert,
                         "cm=%s unmixed=%s br1=%d" % (probe.is_cm,
                                                      probe.unmixed, probe.br1)))
    if pm.rank == 1:
        base = job.module if job.module.ambient.rank == 1 else None
        if base is not None:
            e = hb.hilbert_coefficients(base, [c[0] for c in pm.columns]).e
            ok = rep.br == e[0] and (len(e) < 2 or rep.br1 == e[1])
            rows.append(_row(job, "br-ideal-degeneration", ok,
                             "br %d,%d vs e %s" % (rep.br, rep.br1, e)))
    for key, expected in sorted(spec.get("claims", {}).items()):
        got = getattr(rep, key, None)
        rows.append(_row(job, "brim-claim:%s" % key, got == expected,
                         "expected %r, got %r" % (expected, got)))
    return rows


def rows_to_matrix(rows):
    """Deterministic JSON document for a list of check rows."""
    return {
        "checks": [plain(r) for r in sorted(
            rows, key=lambda r: (r.instance, r.check))],
        "passed": sum(1 for r in rows if r.passed),
        "failed": sum(1 for r in rows if not r.passed),
    }
