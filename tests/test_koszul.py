import json
import os
import random
import weakref

import pytest

from gradedca import koszul as kz
from gradedca.gb import kernel_of_map, quotient_by_ideal, subquotient
from gradedca.hilbert import (colength, colon_series, dim_module, divide_poles,
                              hilbert_series, make_parameter_ideal,
                              module_length, superficial_check)
from gradedca.jobio import build_job
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing
from gradedca.sampler import (SampleConfig, random_parameter_ideal,
                              sample_parameter_ideals)

from reference import colon_submodule, reference_tor_lengths

RING = PolyRing(CoeffField(32003), ["x", "y"])
X, Y = RING.gens()


def test_regular_sequence_homology(free_plane):
    rep = kz.koszul_homology(free_plane, [X, Y])
    assert rep.lengths == [1, 0, 0]
    assert rep.chi1 == 0 and rep.chi == 1


def test_mixed_line_homology(mixed_line):
    rep = kz.koszul_homology(mixed_line, [Y])
    assert rep.lengths == [2, 1]
    assert rep.chi1 == 1
    assert kz.chi1_serre(mixed_line, [Y]) == 1


def test_two_plane_homology(two_plane, ring4):
    x, y, z, w = ring4.gens()
    rep = kz.koszul_homology(two_plane, [x + z, y + w])
    assert rep.lengths[0] == 3
    assert rep.chi1 == 1
    assert kz.chi1_serre(two_plane, [x + z, y + w]) == 1


def test_differential_squares_to_zero(two_plane, ring4):
    x, y, z, w = ring4.gens()
    d1 = kz.koszul_differential(two_plane, [x, y, z + w], 1)
    d2 = kz.koszul_differential(two_plane, [x, y, z + w], 2)
    d3 = kz.koszul_differential(two_plane, [x, y, z + w], 3)
    assert d1.compose(d2).is_zero()
    assert d2.compose(d3).is_zero()


def test_serre_equality_both_paths(two_plane, mixed_line, free_plane):
    cases = [(two_plane, SampleConfig(seed=2, count=3)),
             (mixed_line, SampleConfig(seed=3, count=3)),
             (free_plane, SampleConfig(seed=4, count=3))]
    for module, cfg in cases:
        for q in sample_parameter_ideals(module, cfg):
            hom = kz.koszul_homology(module, q.gens)
            assert hom.chi1 == kz.chi1_serre(module, q.gens)
            assert hom.lengths[0] == q.colength_certificate


def test_chi1_zero_iff_cm(free_plane, mixed_line):
    assert kz.koszul_homology(free_plane, [X, Y]).chi1 == 0
    assert kz.koszul_homology(mixed_line, [Y]).chi1 > 0


def test_recursion(free_plane, two_plane, ring4):
    rep = kz.chi1_recursion_check(free_plane, [X, Y])
    assert rep.passed and rep.total == 0
    x, y, z, w = ring4.gens()
    rep = kz.chi1_recursion_check(two_plane, [x + z, y + w])
    assert rep.passed and rep.total == 1


def test_recursion_with_zero_divisor(ring3):
    # y kills the socle element x of S/(x², xy, xz): 0:_M y = k, whose
    # Euler characteristic χ(z; k) = 0 enters, not its χ₁(z; k) = 1
    x, y, z = ring3.gens()
    m = GradedModule.quotient_ring(ring3, [x ** 2, x * y, x * z])
    rep = kz.chi1_recursion_check(m, [y, z])
    assert (rep.total, rep.from_quotient, rep.from_colon) == (1, 1, 0)
    assert rep.passed


def test_non_parameter_input_fails(free_plane):
    with pytest.raises(kz.KoszulError):
        kz.koszul_homology(free_plane, [X, X])


# ---------------------------------------------------------------------------
# reference: the cycles Z_i by an elimination Groebner basis, then
# λ(H_i) = λ(stage/boundaries) − λ(stage/cycles) from two Hilbert series;
# and the colon 0:_M h presented as a subquotient


def _reference_lengths(module, forms):
    r, n = len(forms), module.ring.num_vars
    lengths = []
    for i in range(r + 1):
        stage = kz.koszul_stage(module, forms, i)
        bounds = kz._stage_relations(module, stage, i, r)
        if i == 0:
            cycles = [stage.basis(k) for k in range(stage.rank)]
        else:
            prev = kz.koszul_stage(module, forms, i - 1)
            cycles = kernel_of_map(
                kz.koszul_differential(module, forms, i),
                target_relations=kz._stage_relations(module, prev, i - 1, r))
        if i < r:
            bounds += [c for c in kz.koszul_differential(
                module, forms, i + 1).columns() if not c.is_zero()]
        big = hilbert_series(GradedModule.from_relations(stage, bounds))
        small = hilbert_series(GradedModule.from_relations(stage, cycles))
        diff = {e: big.get(e, 0) - small.get(e, 0)
                for e in big.keys() | small.keys()}
        j, quo = divide_poles(diff, n)
        assert j == n
        lengths.append(sum(quo.values()))
    return lengths


def _reference_colon(module, h):
    rels = module.relations()
    return subquotient(colon_submodule(rels, h, module.ambient), rels,
                       module.ambient)


def _euler(lengths):
    return sum((-1) ** i * v for i, v in enumerate(lengths))


# corpus modules, two of them with their ambient retwisted, and a module of
# depth zero whose top Koszul homology does not vanish
CASES = {name: name for name in ["free-plane", "mixed-line", "mixed-sum",
                                 "plane-plus-line", "two-plane",
                                 "dim3-buchsbaum", "hypersurface"]}
CASES["mixed-sum(-1,2)"] = ("mixed-sum", [-1, 2])
CASES["plane-plus-line(1,0)"] = ("plane-plus-line", [1, 0])


def _case_module(case, char):
    spec = CASES[case]
    name, twists = (spec, None) if isinstance(spec, str) else spec
    path = os.path.join(os.path.dirname(__file__), "..", "corpus",
                        name + ".json")
    with open(path) as fh:
        raw = json.load(fh)
    raw["ring"]["characteristic"] = char
    if twists is not None:
        raw["module"]["twists"] = twists
    return build_job(raw).module


def _depth_zero(char):
    ring = PolyRing(CoeffField(char), ["x", "y", "z"])
    x, y, z = ring.gens()
    return GradedModule.quotient_ring(ring, [x ** 2, x * y, x * z])


def _sops(module, case):
    r = dim_module(module)
    rng = random.Random(case)
    return [random_parameter_ideal(module, degs, rng).gens
            for degs in ([1] * r, [2] + [1] * (r - 1), [2] * r)]


@pytest.mark.parametrize("char", [32003, None])
@pytest.mark.parametrize("case", sorted(CASES) + ["depth-zero"])
def test_homology_lengths_match_cycle_path(case, char):
    module = _depth_zero(char) if case == "depth-zero" \
        else _case_module(case, char)
    for forms in _sops(module, case):
        ref = _reference_lengths(module, forms)
        rep = kz.koszul_homology(module, forms)
        assert rep.lengths == ref
        assert rep.chi == _euler(ref)
        assert rep.chi1 == _euler(ref[1:])


@pytest.mark.parametrize("char", [32003, None])
@pytest.mark.parametrize("case", sorted(CASES) + ["depth-zero"])
def test_homology_lengths_match_tor_of_the_minimal_resolution(case, char):
    # an sop x of M that is a regular sequence on S (codim S/(x) = |x|,
    # S being Cohen-Macaulay) has H_i(x; M) = Tor_i^S(S/(x), M), the
    # homology of M's minimal resolution modulo (x); a linear sop always is
    module = _depth_zero(char) if case == "depth-zero" \
        else _case_module(case, char)
    ring = module.ring
    regular = [forms for forms in _sops(module, case)
               if dim_module(GradedModule.quotient_ring(ring, list(forms)))
               == ring.num_vars - len(forms)]
    assert regular
    for forms in regular:
        assert kz.koszul_homology(module, forms).lengths == \
            reference_tor_lengths(module, forms)


def test_koszul_homology_once_per_module_and_forms():
    # an iterator argument still reaches the body; a second call is a hit
    module = _depth_zero(32003)
    y, z = module.ring.gens()[1:]
    first = kz.koszul_homology(module, iter([y, z]))
    assert first.lengths == _reference_lengths(module, [y, z])
    assert kz.koszul_homology(module, list((y, z))) is first
    assert kz.koszul_homology(module, [z, y]) is not first


# ---------------------------------------------------------------------------
# the peel: an M-regular first form x₁ leaves H_i(x′; M/x₁M) and H_r = 0


def _count_differentials(monkeypatch):
    """The modules koszul_differential is called on, in call order."""
    modules = []
    original = kz.koszul_differential

    def counted(module, forms, i):
        modules.append(module)
        return original(module, forms, i)
    monkeypatch.setattr(kz, "koszul_differential", counted)
    return modules


@pytest.mark.parametrize("char", [32003, None])
def test_cohen_macaulay_module_builds_no_complex_on_m(char, monkeypatch):
    # on a Cohen-Macaulay module every sop is a regular sequence: x₁ is
    # peeled, and only the one-form complex on M/x₁M is built
    module = _case_module("hypersurface", char)
    forms = _sops(module, "hypersurface")[0]
    calls = _count_differentials(monkeypatch)
    rep = kz.koszul_homology(module, forms)
    assert calls == [quotient_by_ideal(module, forms[:1])]
    assert rep.lengths == [colength(module, forms)] + [0] * len(forms)
    assert rep.lengths == _reference_lengths(module, forms)


@pytest.mark.parametrize("char", [32003, None])
def test_two_plane_peels_one_form_then_builds_the_complex(char, monkeypatch):
    # depth 1: x₁ = x + z is M-regular, and y + w kills the socle of
    # M/x₁M, so the complex is built on M/x₁M alone, with one form
    module = _case_module("two-plane", char)
    x, y, z, w = module.ring.gens()
    forms = [x + z, y + w]
    quo = quotient_by_ideal(module, forms[:1])
    assert not colon_series(module, forms[0], quo)
    assert colon_series(quo, forms[1], quotient_by_ideal(quo, forms[1:]))
    calls = _count_differentials(monkeypatch)
    rep = kz.koszul_homology(module, forms)
    assert calls and all(m is quo for m in calls)
    assert rep.lengths == _reference_lengths(module, forms) == [3, 1, 0]


@pytest.mark.parametrize("char", [32003, None])
def test_zero_divisor_first_form_runs_the_full_complex(char, monkeypatch):
    # y kills x in S/(x², xy, xz): no peel, the complex is built on M
    module = _depth_zero(char)
    y, z = module.ring.gens()[1:]
    calls = _count_differentials(monkeypatch)
    rep = kz.koszul_homology(module, [y, z])
    assert calls and all(m is module for m in calls)
    assert rep.lengths == _reference_lengths(module, [y, z]) == [2, 2, 1]


@pytest.mark.parametrize("case", ["dim3-buchsbaum", "hypersurface"])
def test_peeled_modules_are_freed_by_reference_counting(case, no_cyclic_gc):
    # the peel keeps M/x₁M and its Koszul homology on M, and a quotient
    # refers back to M weakly, so M and everything computed on it go once
    # the caller drops M
    module = _case_module(case, 32003)
    forms = _sops(module, case)[0]
    kz.chi1_recursion_check(module, forms)
    refs = [weakref.ref(module)] + [
        weakref.ref(quotient_by_ideal(module, forms[:i]))
        for i in range(len(forms) + 1)]
    del module
    assert [r() for r in refs] == [None] * len(refs)


def test_depth_zero_has_top_homology():
    # M = S/(x², xy, xz): H_0 = S/(x², y, z), H_2 = 0 :_M (y, z) = (x)M ≅ k,
    # and χ = e((y, z); M) = 1 leaves λ(H_1) = 2
    module = _depth_zero(32003)
    y, z = module.ring.gens()[1:]
    assert kz.koszul_homology(module, [y, z]).lengths == [2, 2, 1]


@pytest.mark.parametrize("char", [32003, None])
@pytest.mark.parametrize("case", ["depth-zero", "dim3-buchsbaum", "free-plane",
                                  "hypersurface", "plane-plus-line",
                                  "plane-plus-line(1,0)", "two-plane"])
def test_recursion_colon_term_matches_colon_module(case, char):
    module = _depth_zero(char) if case == "depth-zero" \
        else _case_module(case, char)
    for forms in _sops(module, case):
        col = _reference_colon(module, forms[0])
        expected = (_euler(_reference_lengths(col, forms[1:]))
                    if col.ambient.rank else 0)
        rep = kz.chi1_recursion_check(module, forms)
        assert rep.from_colon == expected
        assert rep.passed


@pytest.mark.parametrize("char", [32003, None])
@pytest.mark.parametrize("case", sorted(CASES) + ["depth-zero"])
def test_superficial_colon_length_matches_colon_module(case, char):
    module = _depth_zero(char) if case == "depth-zero" \
        else _case_module(case, char)
    # h of degree 1 and 2; Q stays linear, since the coefficient fits of
    # degree-2 sops are slow and the colon does not depend on Q
    sops = _sops(module, case)
    q = make_parameter_ideal(module, sops[0])
    for forms in sops:
        rep = superficial_check(module, q, forms[0])
        assert rep.colon_length == module_length(
            _reference_colon(module, forms[0]))


@pytest.mark.parametrize("char", [32003, None])
def test_superficial_reports_infinite_colon(char):
    # S/(xy): 0 :_M x = (y)M ≅ k[y](−1) has infinite length
    ring = PolyRing(CoeffField(char), ["x", "y"])
    x, y = ring.gens()
    module = GradedModule.quotient_ring(ring, [x * y])
    assert module_length(_reference_colon(module, x)) is None
    rep = superficial_check(module, make_parameter_ideal(module, [x + y]), x)
    assert (rep.passed, rep.colon_length) == (False, -1)
    assert rep.detail == "0:_M h has infinite length"
