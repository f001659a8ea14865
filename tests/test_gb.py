import json
import os
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedca import gb
from gradedca.jobio import build_job
from gradedca.modules import FreeModule, GradedModule, Vector
from gradedca.hilbert import hilbert_series, module_length
from gradedca.poly import (CoeffField, PolyError, PolyRing, RingMismatch, mon_deg,
                           mon_div, monomials_of_degree)

from reference import (colon_submodule, contains, integer_form, monic,
                       random_nonzero, reduce_vector, reference_buchberger,
                       reference_minimal_generators, random_integer_forms,
                       reference_reduce_vector, reference_spair,
                       sympy_groebner)

RING = PolyRing(CoeffField(32003), ["x", "y"])
X, Y = RING.gens()


def _ideal_gb(polys):
    amb = FreeModule(RING, [0])
    return gb.buchberger([amb.element([p]) for p in polys]), amb


def test_gb_oracle_linear():
    basis, _ = _ideal_gb([X + Y, X - Y])
    assert sorted(repr(v.coordinates()[0]) for v in basis) == ["x", "y"]


def test_spairs_reduce_to_zero():
    basis, amb = _ideal_gb([X ** 2 - Y ** 2, X * Y])
    sgb = gb.SubmoduleGB([v for v in basis])
    leads = [b.leading_term()[0][1] for b in basis]
    for i in range(len(basis)):
        for j in range(i):
            s = reference_spair(basis[i], leads[i], basis[j], leads[j])
            assert contains(sgb, s)


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=15, deadline=None)
def test_membership_matches_ideal_combination(seed):
    rng = random.Random(seed)
    gens = [RING.random_form(rng.choice([1, 2]), rng) for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    amb = FreeModule(RING, [0])
    sgb = gb.SubmoduleGB([amb.element([g]) for g in gens])
    # an explicit combination must reduce to zero
    comb = gens[0] * RING.random_form(1, rng)
    if len(gens) > 1:
        comb = comb + gens[1] * RING.random_form(1, rng)
    assert contains(sgb, amb.element([comb]))
    # and 1 is a member only for unit ideals
    if contains(sgb, amb.element([RING.one()])):
        quo = GradedModule.quotient_ring(RING, gens)
        assert gb.is_zero_module(quo)


def test_syzygy_of_two_variables():
    amb = FreeModule(RING, [0])
    src = FreeModule(RING, [1, 1])
    f = gb.ModuleMap(src, amb, [amb.element([X]), amb.element([Y])])
    syz = gb.kernel_of_map(f)
    assert len(syz) == 1
    a, b = syz[0].coordinates()
    assert (a * X + b * Y).is_zero()


def test_kernel_is_actual_kernel():
    # kernel of S(-1)^2 -> S/(x^2, xy), e1 -> x, e2 -> y
    amb = FreeModule(RING, [0])
    src = FreeModule(RING, [1, 1])
    f = gb.ModuleMap(src, amb, [amb.element([X]), amb.element([Y])])
    rels = [amb.element([X ** 2]), amb.element([X * Y])]
    ker = gb.kernel_of_map(f, target_relations=rels)
    sgb = gb.SubmoduleGB(rels)
    for v in ker:
        assert contains(sgb, f.apply(v))
    # x*e1 is a kernel element and must be detected
    kgb = gb.SubmoduleGB(ker)
    assert contains(kgb, src.basis(0).poly_mul(X))


def test_intersection_and_colon():
    amb = FreeModule(RING, [0])
    n = [amb.element([X ** 2]), amb.element([X * Y])]
    colon = colon_submodule(n, X, amb)
    sgb = gb.SubmoduleGB(colon)
    assert contains(sgb, amb.element([X])) and contains(sgb, amb.element([Y]))
    assert not contains(sgb, amb.element([RING.one()]))


def test_annihilator():
    m = GradedModule.quotient_ring(RING, [X ** 2, X * Y])
    ann = gb.annihilator(m)
    sgb = gb.SubmoduleGB([FreeModule(RING, [0]).element([p]) for p in ann])
    assert contains(sgb, FreeModule(RING, [0]).element([X ** 2]))
    assert not contains(sgb, FreeModule(RING, [0]).element([X]))


def test_module_map_contract():
    amb = FreeModule(RING, [0, 1])
    src = FreeModule(RING, [1, 2])
    cols = [amb.element([X, RING.zero()]), amb.element([X * Y, Y])]
    f = gb.ModuleMap(src, amb, cols)
    with pytest.raises(PolyError, match="column count"):
        gb.ModuleMap(src, amb, cols[:1])
    with pytest.raises(PolyError, match="degree 1"):
        gb.ModuleMap(FreeModule(RING, [1, 1]), amb, cols)
    with pytest.raises(RingMismatch):
        gb.ModuleMap(src, FreeModule(RING, [0, 0]), cols)
    assert f.column(1) is cols[1] and f.columns() == cols
    matrix = f.matrix
    assert all(matrix[i][j] == f.column(j).coordinates()[i]
               for i in range(amb.rank) for j in range(src.rank))
    back = f.transpose().transpose()
    assert (back.source, back.target) == (src, amb) and back.columns() == cols
    g = gb.ModuleMap(FreeModule(RING, [2, 3]), src,
                     [src.element([Y, RING.const(3)]), src.element([X * Y, X])])
    fg = f.compose(g)
    assert [fg.column(j) for j in range(2)] == [f.apply(c) for c in g.columns()]
    # apply is linear, and a vector's products agree with each other
    u = src.element([X + Y, RING.const(2) * X * Y])
    w = src.element([RING.const(-1) * Y, Y * Y + X * Y])
    assert f.apply(u + w) == f.apply(u) + f.apply(w)
    a, b = X - RING.const(3) * Y, X * Y + Y * Y
    for v in (u, w, cols[1]):
        assert v.mul_term((1, 2), 5) == v.poly_mul(RING.monomial((1, 2), 5))
        assert v.poly_mul(a).poly_mul(b) == v.poly_mul(a * b)


CORPUS_MODULES = sorted(n[:-5] for n in os.listdir(
    os.path.join(os.path.dirname(__file__), "..", "corpus")))


@pytest.mark.parametrize("name", CORPUS_MODULES)
def test_resolution_is_complex_and_minimal(name):
    module = _corpus_module(name)
    maps = gb.minimal_free_resolution(module)
    for a, b in zip(maps, maps[1:]):
        assert a.compose(b).is_zero()
    # minimality: no unit entries in any differential
    for m in maps:
        for col in m.columns():
            assert all(sum(mon) > 0 for (_, mon) in col.terms)
    claims = _corpus_raw(name)["claims"]
    if "betti" in claims:
        assert gb.betti_numbers(module) == claims["betti"]


def test_depth_auslander_buchsbaum(free_plane, mixed_line, two_plane):
    assert gb.depth(free_plane) == 2
    assert gb.depth(mixed_line) == 0
    assert gb.depth(two_plane) == 1


@pytest.mark.parametrize("twists, columns, ranks", [
    # second generator equals x * first: unit entry cancels a summand
    ([0, 1], [[X, -1]], (1, 0)),
    # unit entries in two columns, at positions 1 and 2, and a third
    # column that becomes -2xy·e_0 once both are cleared
    ([0, 1, 1], [[X, 1, 0], [Y, 0, 1], [0, Y, X]], (1, 1)),
], ids=["one-unit", "two-units"])
def test_minimize_presentation_cancels_units(twists, columns, ranks):
    amb = FreeModule(RING, twists)
    cols = [amb.element([RING.const(c) if isinstance(c, int) else c for c in col])
            for col in columns]
    pres = gb.ModuleMap(FreeModule(RING, [c.degree() for c in cols]), amb, cols)
    out = gb.minimize_presentation(pres)
    assert (out.target.rank, out.source.rank) == ranks
    assert not any(mon_deg(m) == 0 for col in out.columns() for _, m in col.terms)
    assert hilbert_series(GradedModule(out)) == hilbert_series(GradedModule(pres))


def test_subquotient_length_one():
    amb = FreeModule(RING, [0])
    k_gens = [amb.element([X])]
    i_gens = [amb.element([X ** 2]), amb.element([X * Y])]
    sq = gb.subquotient(k_gens, i_gens, amb)
    assert sq.ambient.rank == 1
    from gradedca.hilbert import module_length
    assert module_length(sq) == 1


def test_zero_module_detection():
    assert gb.is_zero_module(GradedModule.quotient_ring(RING, [RING.one()]))
    assert not gb.is_zero_module(GradedModule.free(RING))


# ---------------------------------------------------------------------------
# the heap-ordered reducer against the max()-scan it replaced

def _term_key(term):
    """Position over term, descending: the larger key is the leading term."""
    pos, mon = term
    return (-pos, (sum(mon), tuple(-e for e in reversed(mon))))


def _reference_reduce(v, basis):
    """Normal form taking max(work, key=_term_key) at every step."""
    lts = [max(b.terms, key=_term_key) for b in basis]
    fld = v.module.ring.field
    out = {}
    work = dict(v.terms)
    while work:
        term = max(work, key=_term_key)
        coeff = work[term]
        pos, mon = term
        hit = None
        for b, (bpos, bmon) in zip(basis, lts):
            if bpos == pos and mon_div(mon, bmon) is not None:
                hit = (b, mon_div(mon, bmon))
                break
        if hit is None:
            out[term] = coeff
            del work[term]
            continue
        b, q = hit
        for (bp, bm), bc in b.terms.items():
            t = (bp, tuple(x + y for x, y in zip(bm, q)))
            s = fld.reduce(work.get(t, 0) - bc * coeff)
            if s == 0:
                work.pop(t, None)
            else:
                work[t] = s
    return Vector(v.module, out)


def _corpus_raw(name):
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", name + ".json")
    with open(path) as fh:
        return json.load(fh)


def _corpus_module(name):
    return build_job(_corpus_raw(name)).module


def _sparse_form(ring, degree, rng):
    """A homogeneous form with a few random terms (none when degree < 0)."""
    mons = list(monomials_of_degree(ring.num_vars, degree))
    picked = rng.sample(mons, min(len(mons), rng.randint(1, 3))) if mons else []
    return sum((ring.monomial(m, random_nonzero(ring.field, rng)) for m in picked),
               ring.zero())


def _random_vector(amb, degree, rng):
    return amb.element([_sparse_form(amb.ring, degree - t, rng)
                        for t in amb.twists])


def _random_member(basis, degree, rng):
    """A sparse combination of basis elements, homogeneous of degree."""
    out = basis[0].module.zero()
    for b in basis:
        out = out + b.poly_mul(_sparse_form(b.module.ring, degree - b.degree(), rng))
    return out


def _lead_multiples(basis, degree, rng):
    """Monomial multiples of some lead terms alone, so that reducing them
    brings new tail terms into the work."""
    amb = basis[0].module
    terms = {}
    for b in basis:
        (pos, lead), _ = b.leading_term()
        mons = list(monomials_of_degree(amb.ring.num_vars, degree - b.degree()))
        if mons and rng.random() < 0.5:
            m = rng.choice(mons)
            terms[(pos, tuple(x + y for x, y in zip(lead, m)))] = \
                random_nonzero(amb.ring.field, rng)
    return Vector(amb, terms)


def _test_vector(amb, basis, degree, rng):
    v = _random_vector(amb, degree, rng)
    if basis:
        v = v + _lead_multiples(basis, degree, rng) + \
            _random_member(basis, degree, rng)
    return v


def _partial_basis(char, rng):
    """Monic random vectors in S^2 over k[x,y,z]: not a Groebner basis."""
    ring = PolyRing(CoeffField(char), ["x", "y", "z"])
    amb = FreeModule(ring, [0, 1])
    vecs = [amb.element([ring.random_form(2 - t, rng) for t in amb.twists])
            for _ in range(3)]
    return [v.monic() for v in vecs if not v.is_zero()]


@given(st.sampled_from(["hypersurface", "two-plane", "dim3-buchsbaum",
                        "mixed-sum", "plane-plus-line", "ci-points"]),
       st.booleans(), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_reduce_vector_matches_max_scan_on_corpus_bases(name, cut, degree, seed):
    rng = random.Random(seed)
    module = _corpus_module(name)
    if cut:
        # a richer basis: M/(two random linear forms)M
        ring = module.ring
        module = gb.quotient_by_ideal(
            module, [ring.random_form(1, rng) for _ in range(2)])
    basis = gb.module_gb(module).basis
    v = _test_vector(module.ambient, basis, degree, rng)
    got = reduce_vector(v, basis)
    ref = _reference_reduce(v, basis)
    assert list(got.terms.items()) == list(ref.terms.items())


@given(st.sampled_from([32003, None]), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_reduce_vector_matches_max_scan_on_partial_bases(char, degree, seed):
    rng = random.Random(seed)
    basis = _partial_basis(char, rng)
    v = _test_vector(basis[0].module, basis, degree, rng)
    got = reduce_vector(v, basis)
    ref = _reference_reduce(v, basis)
    assert list(got.terms.items()) == list(ref.terms.items())


def test_reduce_vector_processes_a_term_that_cancels_and_comes_back():
    ring = PolyRing(CoeffField(32003), ["x", "y", "z"])
    x, y, z = ring.gens()
    amb = FreeModule(ring, [0])
    basis = [amb.element([x * y - y ** 2]), amb.element([x ** 2 - y ** 2])]
    # x^3 reduces by the second element and cancels x*y^2 out of the work;
    # x^2*y then reduces by the first and brings x*y^2 back
    v = amb.element([x ** 3 + x ** 2 * y - x * y ** 2])
    assert reduce_vector(v, basis) == _reference_reduce(v, basis) \
        == amb.element([y ** 3])


def test_partial_basis_is_not_a_groebner_basis():
    basis = _partial_basis(32003, random.Random(3))
    assert len(gb.buchberger(basis)) > len(basis)


@given(st.sampled_from([3, 32003, None]), st.booleans(),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_integer_reduction_matches_the_fraction_reference(char, reduced, degree, seed):
    """The integer kernel gives the Fraction loop's normal form term for
    term, in the same order, with Fraction coefficients over Q: against
    random monic vectors and against the reduced basis of random integer
    vectors (non-integral and monic over Q), whose integer forms come
    from SubmoduleGB or are built afresh.  Over Q, v is scaled by a
    non-integral rational."""
    rng = random.Random(seed)
    basis = _partial_basis(char, rng)
    amb = basis[0].module
    if reduced:
        sgb = gb.SubmoduleGB([_random_vector(amb, 2, rng) for _ in range(3)])
        basis = sgb.basis
        if not basis:
            return
    v = _test_vector(amb, basis, degree, rng)
    if char is None:
        v = v.scale(Fraction(rng.randint(1, 30), rng.randint(2, 30)))
    want = list(reference_reduce_vector(v, basis).terms.items())
    assert list(reduce_vector(v, basis).terms.items()) == want
    if reduced:
        got = reduce_vector(v, basis, sgb.leading_terms(), sgb.forms)
        assert list(got.terms.items()) == want
    if char is None:
        assert all(type(c) is Fraction for _, c in want)
        assert all(type(c) is Fraction
                   for c in reduce_vector(v, basis).terms.values())


def test_integer_reduction_over_a_non_integral_basis():
    ring = PolyRing(CoeffField(None), ["x", "y"])
    x, y = ring.gens()
    amb = FreeModule(ring, [0])
    basis = gb.buchberger([amb.element([x.scale(2) + y.scale(3)])])
    assert basis == [amb.element([x + y.scale(Fraction(3, 2))])]
    form = integer_form(basis[0], (0, (1, 0)))
    assert form == (2, {(0, (0, 1)): 3})
    nf = reduce_vector(amb.element([x * x - y * y]), basis)
    assert nf == amb.element([y * y]).scale(Fraction(5, 4))
    assert all(type(c) is Fraction for c in nf.terms.values())


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_buchberger_matches_sympy_over_q(seed):
    """The reduced grevlex basis over Q of 2-4 integer forms of degree at
    most 3 in 2-3 variables is sympy's, as a set of monic polynomials."""
    rng = random.Random(seed)
    names = ["x", "y", "z"][:rng.randint(2, 3)]
    texts = random_integer_forms(rng, names, rng.randint(2, 4), 3)
    ring = PolyRing(CoeffField(None), names)
    amb = FreeModule(ring, [0])
    basis = gb.buchberger([amb.element([ring.poly(t)]) for t in texts])
    got = {monic(b.coordinates()[0].terms) for b in basis}
    assert got == sympy_groebner(texts, names)


@given(st.sampled_from([32003, None]), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=30, deadline=None)
def test_buchberger_returns_the_reduced_basis_in_descending_order(char, seed):
    """The reduced basis is unique, so these properties fix every
    coefficient; they also fix the order of the basis and of each dict."""
    rng = random.Random(seed)
    gens = _partial_basis(char, rng)
    basis = gb.buchberger(gens)
    lts = [max(b.terms, key=_term_key) for b in basis]
    assert lts == sorted(lts, key=_term_key, reverse=True)
    for b, (pos, lead) in zip(basis, lts):
        assert b.terms[(pos, lead)] == b.module.ring.field.one()
        assert list(b.terms) == sorted(b.terms, key=_term_key, reverse=True)
        for other, (opos, olead) in zip(basis, lts):
            assert other is b or not any(
                p == opos and mon_div(m, olead) is not None for p, m in b.terms)
    for g in gens:
        assert reduce_vector(g, basis).is_zero()
    for i in range(len(basis)):
        for j in range(i):
            if lts[i][0] == lts[j][0]:
                s = reference_spair(basis[i], lts[i][1], basis[j], lts[j][1])
                assert reduce_vector(s, basis).is_zero()


@given(st.sampled_from([32003, None]), st.sampled_from(CORPUS_MODULES),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=30, deadline=None)
def test_groebner_output_is_monic_in_field_coefficients(char, name, seed):
    """The monic vectors built at the end of the run have Fraction
    coefficients over Q and residues over F_p, with lead 1, and
    SubmoduleGB's forms, taken from the run, are the integer forms of its
    basis: on a corpus module's relations and on a partial basis."""
    raw = _corpus_raw(name)
    raw["ring"]["characteristic"] = char
    module = build_job(raw).module
    fld = module.ring.field
    gens = _partial_basis(char, random.Random(seed))
    maps = [module.presentation]
    if gens:
        amb = gens[0].module
        maps.append(gb.ModuleMap(FreeModule(amb.ring, [g.degree() for g in gens]),
                                 amb, gens))
    for f in maps:
        sgb = gb.SubmoduleGB(f.columns())
        assert sgb.forms == [integer_form(b, lt)
                             for b, lt in zip(sgb.basis, sgb.leading_terms())]
        for v in sgb.basis + gb.buchberger(f.columns()) + gb.kernel_of_map(f):
            lead = v.terms[v.leading_term()[0]]
            if fld.p is None:
                assert all(type(c) is Fraction for c in v.terms.values())
                assert type(lead) is Fraction and lead == 1
            else:
                assert all(type(c) is int and 0 <= c < fld.p
                           for c in v.terms.values())
                assert lead == 1


@given(st.sampled_from([32003, None]), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=30, deadline=None)
def test_one_run_matches_the_separate_basis_and_generator_loops(char, seed):
    """The one degree-by-degree run gives the reference loops' reduced
    basis, element by element, and their kept generators, in order."""
    rng = random.Random(seed)
    ring = PolyRing(CoeffField(char), ["x", "y", "z"])
    amb = FreeModule(ring, rng.choice([[0], [1], [0, 1], [1, 0], [0, 2],
                                       [0, 1, 1], [2, 0, 1]]))
    lo, hi = min(amb.twists), max(amb.twists)

    def draw(count):
        return [_random_vector(amb, rng.randint(lo, hi + 2), rng)
                for _ in range(count)]

    base, gens = draw(rng.randint(0, 2)), draw(rng.randint(1, 4))
    # a member of what comes before it and a repeat, so some gens are
    # redundant and the kept ones are not all of them
    nonzero = [v for v in base + gens if not v.is_zero()]
    if nonzero:
        gens.append(_random_member(nonzero, hi + 3, rng))
    gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
    assert gb.buchberger(base + gens) == reference_buchberger(base + gens)
    assert gb.minimal_generators(gens, base) == \
        reference_minimal_generators(gens, reference_buchberger(base))


# ---------------------------------------------------------------------------
# the one-kernel annihilator against the per-position colons it replaced

def _reference_annihilator(module):
    """Ann(M) as the intersection over positions of (W :_S e_pos), each
    colon one kernel and each intersection one block elimination."""
    ring, amb = module.ring, module.ambient
    rels = module.relations()
    ann = None
    for pos in range(amb.rank):
        src = FreeModule(ring, [amb.twists[pos]])
        f = gb.ModuleMap(src, amb, [amb.basis(pos)])
        cur = [k.coordinates()[0]
               for k in gb.kernel_of_map(f, target_relations=rels)]
        if ann is not None:
            both = FreeModule(ring, [0, 0])
            gens = [both.element([p, p]) for p in ann]
            gens += [both.element([p, ring.zero()]) for p in cur]
            cur = [b.coordinates()[1] for b in gb.buchberger(gens)
                   if all(i == 1 for i, _ in b.terms)]
        ann = cur
    return [ring.one()] if ann is None else ann


def _random_module(char, rng):
    """Rank 2 or 3 over k[x,y,z] with unequal twists and sparse relations."""
    ring = PolyRing(CoeffField(char), ["x", "y", "z"])
    amb = FreeModule(ring, rng.choice([[0, 1], [1, 0], [0, 2], [0, 1, 1],
                                       [2, 0, 1]]))
    top = max(amb.twists)
    rels = [_random_vector(amb, top + rng.randint(1, 2), rng)
            for _ in range(rng.randint(2, 4))]
    return GradedModule.from_relations(amb, rels)


@given(st.sampled_from([32003, None]), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25, deadline=None)
def test_annihilator_matches_intersection_of_colons(char, seed):
    module = _random_module(char, random.Random(seed))
    assert gb.annihilator(module) == _reference_annihilator(module)


@pytest.mark.parametrize("char", [32003, None])
@pytest.mark.parametrize("name", ["mixed-sum", "plane-plus-line",
                                  "dim3-buchsbaum", "two-plane", "mixed-line"])
def test_annihilator_matches_intersection_of_colons_on_corpus(name, char):
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", name + ".json")
    with open(path) as fh:
        raw = json.load(fh)
    raw["ring"]["characteristic"] = char
    module = build_job(raw).module
    assert gb.annihilator(module) == _reference_annihilator(module)


def test_annihilator_of_the_zero_ambient_is_the_unit_ideal():
    assert gb.annihilator(GradedModule.free(RING, [])) == [RING.one()]


def _random_presentation(char, rng):
    """Rank 1 to 3 over k[x,y,z]: a few sparse relations and, at most
    positions, one of that position's degree, with a unit entry there, so
    that many draws present the zero module."""
    ring = PolyRing(CoeffField(char), ["x", "y", "z"])
    amb = FreeModule(ring, rng.choice([[0], [0, 0], [0, 1], [1, 0, 1]]))
    rels = [_random_vector(amb, max(amb.twists) + rng.randint(1, 2), rng)
            for _ in range(rng.randint(0, 2))]
    rels += [_random_vector(amb, t, rng) for t in amb.twists if rng.random() < 0.7]
    return GradedModule.from_relations(amb, rels)


@given(st.sampled_from([32003, None]), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_zero_module_is_read_off_the_lead_terms(char, seed):
    module = _random_presentation(char, random.Random(seed))
    basis = gb.module_gb(module).basis
    amb = module.ambient
    assert gb.is_zero_module(module) == all(
        reduce_vector(amb.basis(i), basis).is_zero() for i in range(amb.rank))


@pytest.mark.parametrize("char", [32003, None])
def test_quotient_of_a_quotient_is_the_quotient_by_the_joined_forms(char):
    ring = PolyRing(CoeffField(char), ["x", "y"])
    x, y = ring.gens()
    module = GradedModule.quotient_ring(ring, [x ** 2])
    quo = gb.quotient_by_ideal(module, [x + y])
    both = gb.quotient_by_ideal(quo, [y])
    assert both is gb.quotient_by_ideal(module, [x + y, y])
    assert gb.quotient_by_ideal(quo, [y]) is both
    # built first as a quotient of M, then reached through M/(x + y)M
    other = GradedModule.quotient_ring(ring, [x ** 2])
    joined = gb.quotient_by_ideal(other, [y, x])
    assert gb.quotient_by_ideal(gb.quotient_by_ideal(other, [y]), [x]) is joined
    assert joined.relations() == gb.quotient_module(
        other, other.ambient.ideal_multiples([y, x])).relations()


def test_module_and_its_quotients_are_freed_by_reference_counting(no_cyclic_gc):
    # a quotient refers back to its module weakly, so the module and its
    # quotients go once the caller drops them
    module = GradedModule.quotient_ring(RING, [X ** 2])
    quo = gb.quotient_by_ideal(module, [X + Y])
    both = gb.quotient_by_ideal(quo, [Y])
    # a quotient by no forms is a new module, not one caching itself
    same = gb.quotient_by_ideal(both, [])
    assert same is not both
    for m in (module, quo, both, same):
        hilbert_series(m)
    refs = [weakref.ref(m) for m in (module, quo, both, same)]
    del module, quo, both, same, m
    assert [r() for r in refs] == [None] * 4


@given(st.sampled_from([32003, None]), st.sampled_from(CORPUS_MODULES),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=30, deadline=None)
def test_seeded_quotient_basis_equals_the_unseeded_one(char, name, seed):
    """module_gb(M/(f)M), once M's basis is built, starts from it and
    reduces only the multiples of f; its lead terms and integer forms are
    those of one unseeded run on the quotient's relations, also for a
    quotient of a quotient, which is seeded with M's basis too."""
    raw = _corpus_raw(name)
    raw["ring"]["characteristic"] = char
    module = build_job(raw).module
    gb.module_gb(module)
    rng = random.Random(seed)
    forms = [module.ring.random_form(rng.choice([1, 2]), rng) for _ in range(3)]
    forms = [f for f in forms if not f.is_zero()]
    quo = gb.quotient_by_ideal(module, forms[:1])
    both = gb.quotient_by_ideal(quo, forms[1:])
    for q in (quo, both):
        seeded = gb.module_gb(q)
        assert seeded.kept is None  # the run was seeded
        plain = gb.SubmoduleGB(q.relations())
        assert (seeded.lts, seeded.forms) == (plain.lts, plain.forms)


def _count_runs(monkeypatch):
    """The seed argument of each gb._groebner run, in call order."""
    seeds = []
    original = gb._groebner

    def counted(base, gens, seed=None):
        seeds.append(seed)
        return original(base, gens, seed)
    monkeypatch.setattr(gb, "_groebner", counted)
    return seeds


@pytest.mark.parametrize("char", [32003, None])
def test_quotient_of_an_unread_module_makes_one_run(char, monkeypatch):
    """A quotient of a module whose basis nothing has built is not seeded:
    λ(M/(x + z, y + w)M) on a fresh two-plane makes one unseeded run, and
    reading M's basis afterwards makes one more; a second quotient of M,
    once M's basis is built, is seeded with it."""
    raw = _corpus_raw("two-plane")
    raw["ring"]["characteristic"] = char
    module = build_job(raw).module
    x, y, z, w = module.ring.gens()
    seeds = _count_runs(monkeypatch)
    assert module_length(gb.quotient_by_ideal(module, [x + z, y + w])) == 3
    assert seeds == [None] and gb.module_gb.peek(module) is None
    gb.module_gb(module)
    assert seeds == [None, None]
    gb.module_gb(gb.quotient_by_ideal(module, [x + y, z + w]))
    assert seeds[2] is gb.module_gb(module)


@pytest.mark.parametrize("char", [32003, None])
@pytest.mark.parametrize("name", CORPUS_MODULES)
def test_basis_and_minimal_presentation_share_one_run(name, char, monkeypatch):
    """minimal_presentation(M) takes M's minimal generators from the run
    that module_gb(M) makes, so the two make one pass over M's relations,
    and the presentation is the one a separate minimal_generators run
    gives."""
    raw = _corpus_raw(name)
    raw["ring"]["characteristic"] = char
    module = build_job(raw).module
    runs = []
    original = gb._groebner

    def counted(base, gens, seed=None):
        runs.append(list(gens))
        return original(base, gens, seed)
    monkeypatch.setattr(gb, "_groebner", counted)
    gb.module_gb(module)
    pres = gb.minimal_presentation(module).presentation
    assert runs == [module.relations()]
    monkeypatch.undo()
    again = gb.minimize_presentation(module.presentation)
    assert (pres.columns(), pres.target) == (again.columns(), again.target)
