import json
import os
import random
import weakref

import pytest

from gradedca import gb as gbmod
from gradedca import homology
from gradedca import koszul as kz
from gradedca.gb import quotient_by_ideal, subquotient
from gradedca.hilbert import (colength, colon_series, dim_module,
                              make_parameter_ideal, module_length,
                              superficial_check)
from gradedca.jobio import build_job
from gradedca.modules import GradedModule
from gradedca.poly import CoeffField, PolyRing
from gradedca.sampler import (SampleConfig, random_parameter_ideal,
                              sample_parameter_ideals)

from reference import (colon_submodule, koszul_differential,
                       reference_koszul_lengths, reference_tor_lengths)

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
    # the reference complex, which the engine's lengths are held to
    x, y, z, w = ring4.gens()
    d1 = koszul_differential(two_plane, [x, y, z + w], 1)
    d2 = koszul_differential(two_plane, [x, y, z + w], 2)
    d3 = koszul_differential(two_plane, [x, y, z + w], 3)
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
# reference: the Koszul complex's lengths, its cycles Z_i by an elimination
# Groebner basis (reference.reference_koszul_lengths); and the colon 0:_M h
# presented as a subquotient


def _reference_colon(module, h):
    rels = module.relations()
    return subquotient(colon_submodule(rels, h, module.ambient), rels,
                       module.ambient)


def _euler(lengths):
    return sum((-1) ** i * v for i, v in enumerate(lengths))


# corpus modules, two of them with their ambient retwisted; k[x,y,z,w]/(xw,
# xyz, x³), of dimension 3 and depth 1, where Tor runs after a nonempty
# M-regular prefix; and a module of depth zero whose top Koszul homology
# does not vanish
CASES = {name: name for name in ["free-plane", "mixed-line", "mixed-sum",
                                 "plane-plus-line", "two-plane",
                                 "dim3-buchsbaum", "hypersurface"]}
CASES["mixed-sum(-1,2)"] = ("mixed-sum", [-1, 2])
CASES["plane-plus-line(1,0)"] = ("plane-plus-line", [1, 0])
CASES["monomial-3"] = {"ring": {"variables": ["x", "y", "z", "w"]},
                       "module": {"twists": [0], "relations": [
                           ["x*w"], ["x*y*z"], ["x^3"]]}}


def _case_module(case, char):
    spec = CASES[case]
    if isinstance(spec, dict):
        raw = dict(spec, ring=dict(spec["ring"]))
    else:
        name, twists = (spec, None) if isinstance(spec, str) else spec
        path = os.path.join(os.path.dirname(__file__), "..", "corpus",
                            name + ".json")
        with open(path) as fh:
            raw = json.load(fh)
        if twists is not None:
            raw["module"]["twists"] = twists
    raw["ring"]["characteristic"] = char
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
        ref = reference_koszul_lengths(module, forms)
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
    assert first.lengths == reference_koszul_lengths(module, [y, z])
    assert kz.koszul_homology(module, list((y, z))) is first
    assert kz.koszul_homology(module, [z, y]) is not first


# ---------------------------------------------------------------------------
# the route: series alone after an M-regular prefix x₁..x_{r−1}, else Tor of
# M's own minimal resolution


def _count_route(monkeypatch):
    """(name, module) of each call of tor_series and of the minimal
    resolution, in call order."""
    calls = []
    for owner, name in ((kz, "tor_series"),
                        (homology, "minimal_free_resolution")):
        def counted(module, *args, _name=name, _original=getattr(owner, name)):
            calls.append((_name, module))
            return _original(module, *args)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("char", [32003, None])
def test_cohen_macaulay_module_builds_no_complex_on_m(char, monkeypatch):
    # on a Cohen-Macaulay module every sop is a regular sequence: the
    # lengths are λ(M/xM) and zeros, with no resolution
    module = _case_module("hypersurface", char)
    forms = _sops(module, "hypersurface")[0]
    calls = _count_route(monkeypatch)
    rep = kz.koszul_homology(module, forms)
    assert calls == []
    assert rep.lengths == [colength(module, forms)] + [0] * len(forms)
    assert rep.lengths == reference_koszul_lengths(module, forms)


@pytest.mark.parametrize("char", [32003, None])
def test_two_plane_peels_one_form_then_builds_the_complex(char, monkeypatch):
    # depth 1: x₁ = x + z is M-regular, and y + w kills the socle of
    # M/x₁M, so H_1 = 0 :_{M/x₁M} (y + w) is read off series, with no
    # resolution
    module = _case_module("two-plane", char)
    x, y, z, w = module.ring.gens()
    forms = [x + z, y + w]
    quo = quotient_by_ideal(module, forms[:1])
    assert not colon_series(module, forms[0])
    assert colon_series(quo, forms[1])
    calls = _count_route(monkeypatch)
    rep = kz.koszul_homology(module, forms)
    assert calls == []
    assert rep.lengths == reference_koszul_lengths(module, forms) == [3, 1, 0]


@pytest.mark.parametrize("char", [32003, None])
def test_zero_divisor_first_form_runs_the_full_complex(char, monkeypatch):
    # y kills x in S/(x², xy, xz): no regular prefix, and the lengths are
    # Tor of M's own resolution modulo (y, z)
    module = _depth_zero(char)
    y, z = module.ring.gens()[1:]
    calls = _count_route(monkeypatch)
    rep = kz.koszul_homology(module, [y, z])
    assert [m for name, m in calls if name == "tor_series"] == [module]
    assert calls and all(m is module for _, m in calls)
    assert rep.lengths == reference_koszul_lengths(module, [y, z]) == [2, 2, 1]


@pytest.mark.parametrize("char", [32003, None])
def test_tor_runs_on_m_after_a_regular_prefix(char, monkeypatch):
    # depth 1 and dimension 3: x₁ is M-regular and x₂ is not regular on
    # M/x₁M, so Tor runs, on M's resolution, not on M/x₁M's
    module = _case_module("monomial-3", char)
    calls = _count_route(monkeypatch)
    for forms in _sops(module, "monomial-3"):
        quo = quotient_by_ideal(module, forms[:1])
        assert not colon_series(module, forms[0])
        assert colon_series(quo, forms[1])
        calls.clear()
        rep = kz.koszul_homology(module, forms)
        assert calls and all(m is module for _, m in calls)
        assert [name for name, _ in calls].count("tor_series") == 1
        assert rep.lengths == reference_koszul_lengths(module, forms)


@pytest.mark.parametrize("char", [32003, None])
def test_tor_reads_m_mod_x_off_the_sop_check(char, monkeypatch):
    # coker d̄₁ = M/xM, whose basis the sop check has built: the Tor route
    # makes no second run for it, so 12 runs in all; a fresh basis of
    # F₀/(im d₁ + (x)F₀) would be a 13th
    module = _case_module("monomial-3", char)
    x, y, z, w = module.ring.gens()
    forms = [x + 2 * y + 3 * z + 5 * w, 7 * x - y + 2 * z + w,
             x + y - z + 4 * w]
    calls = _count_route(monkeypatch)
    runs = []
    original = gbmod._groebner

    def counted(base, gens, seed=None):
        runs.append(seed)
        return original(base, gens, seed)
    monkeypatch.setattr(gbmod, "_groebner", counted)
    rep = kz.koszul_homology(module, forms)
    assert [name for name, _ in calls].count("tor_series") == 1
    assert rep.lengths == [2, 2, 1, 0]
    assert len(runs) == 12


@pytest.mark.parametrize("case", ["dim3-buchsbaum", "hypersurface"])
def test_peeled_modules_are_freed_by_reference_counting(case, no_cyclic_gc):
    # the prefix scan keeps M/x₁M and the Koszul homology on M, and a
    # quotient refers back to M weakly, so M and everything computed on it
    # go once the caller drops M
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
        expected = (_euler(reference_koszul_lengths(col, forms[1:]))
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
