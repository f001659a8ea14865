"""Graded free modules, homogeneous vectors, maps, and finite presentations.

A vector in a free module F = ⊕ S(-twist_i) is a sparse dict
(position, monomial) -> coefficient.  The degree of a term (i, m) is
deg(m) + twists[i]; homogeneous vectors have all terms in one degree.
A map is kept as its columns, the images of the source basis, and a
presentation is the map whose columns are the relations.  FreeModule.embed
is the one place a vector moves into another free module, as into a block
of a larger one.
"""

from __future__ import annotations

from functools import wraps

from .poly import (Poly, PolyRing, PolyError, RingMismatch, SparseTerms,
                   mon_deg, mon_mul)


class FreeModule:
    """Free graded module with per-basis-vector degree shifts."""

    def __init__(self, ring: PolyRing, twists):
        self.ring = ring
        self.twists = tuple(twists)
        self.rank = len(self.twists)

    def zero(self):
        return Vector(self, {})

    def basis(self, i):
        if not 0 <= i < self.rank:
            raise PolyError(f"basis index {i} out of range")
        return Vector(self, {(i, self.ring.zero_mon): self.ring.field.one()})

    def ideal_multiples(self, polys):
        """Generators p·e_i of I·F for I = (polys), p outer and i inner."""
        return [Vector(self, {(i, m): c for m, c in p.terms.items()})
                for p in polys for i in range(self.rank)]

    def embed(self, v, offset=0):
        """v's terms moved into this module, position i to i + offset."""
        return Vector(self, {(i + offset, m): c for (i, m), c in v.terms.items()})

    def element(self, polys):
        """Vector from a list of rank Poly coordinates."""
        polys = list(polys)
        if len(polys) != self.rank:
            raise PolyError("coordinate count does not match rank")
        terms = {}
        for i, p in enumerate(polys):
            if p is None:
                continue
            for m, c in p.terms.items():
                terms[(i, m)] = c
        return Vector(self, terms)

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.ring == other.ring
                and self.twists == other.twists)

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return f"Free({self.ring}, twists={list(self.twists)})"


def term_mul(term, mon):
    """The term (position, monomial) times the monomial mon."""
    pos, m = term
    return pos, mon_mul(m, mon)


class Vector(SparseTerms):
    __slots__ = ("module", "terms")
    shift = staticmethod(term_mul)

    def __init__(self, module, terms):
        self.module = module
        self.terms = terms

    @property
    def field(self):
        return self.module.ring.field

    def _new(self, terms):
        return Vector(self.module, terms)

    def _check(self, other):
        if self.module != other.module:
            raise RingMismatch("vectors live in different free modules")

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.module == other.module and self.terms == other.terms

    def term_degree(self, term):
        i, m = term
        return mon_deg(m) + self.module.twists[i]

    def degree(self):
        """Degree of a homogeneous vector, None for zero."""
        if not self.terms:
            return None
        degs = {self.term_degree(t) for t in self.terms}
        if len(degs) != 1:
            raise PolyError("vector is not homogeneous")
        return degs.pop()

    def is_homogeneous(self):
        return len({self.term_degree(t) for t in self.terms}) <= 1

    def coordinates(self):
        """List of Poly coordinates."""
        ring = self.module.ring
        coords = [{} for _ in range(self.module.rank)]
        for (i, m), c in self.terms.items():
            coords[i][m] = c
        return [Poly(ring, d) for d in coords]

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.coordinates()) + ")"


class ModuleMap:
    """Graded map between free modules, kept as its columns.

    columns[j] is the image of source basis vector e_j: a vector of target,
    zero or homogeneous of degree source.twists[j].  matrix[i][j] is its
    i-th coordinate.
    """

    def __init__(self, source: FreeModule, target: FreeModule, columns):
        self.source = source
        self.target = target
        self._columns = list(columns)
        if len(self._columns) != source.rank:
            raise PolyError("column count does not match source rank")
        for j, col in enumerate(self._columns):
            if col.module != target:
                raise RingMismatch(f"column {j} is not in the target module")
            want = source.twists[j]
            if any(col.term_degree(t) != want for t in col.terms):
                raise PolyError(f"column {j} not homogeneous of degree {want}")

    @property
    def matrix(self):
        """Rows of Poly entries, built from the columns on each read."""
        coords = [c.coordinates() for c in self._columns]
        return [[col[i] for col in coords] for i in range(self.target.rank)]

    def columns(self):
        return list(self._columns)

    def transpose(self):
        """Dual map Hom(target, S) -> Hom(source, S); twists negate.

        Column i of the dual holds the terms at position i of every column,
        position j for column j.
        """
        ring = self.source.ring
        dual_src = FreeModule(ring, [-t for t in self.target.twists])
        dual_tgt = FreeModule(ring, [-t for t in self.source.twists])
        rows = [{} for _ in range(self.target.rank)]
        for j, col in enumerate(self._columns):
            for (i, m), c in col.terms.items():
                rows[i][(j, m)] = c
        return ModuleMap(dual_src, dual_tgt, [Vector(dual_tgt, r) for r in rows])

    def is_zero(self):
        return not any(c.terms for c in self._columns)

    def __repr__(self):
        return f"ModuleMap({self.source.rank} -> {self.target.rank})"


_MISSING = object()  # a cached value may be falsy, so a miss is this


def memoized(forms=None):
    """Decorator: f(module, …) is computed once and kept in module._cache
    under (f.__name__,) + its other arguments, which must be hashable;
    f.peek(module, …) is the kept value, or None, computing nothing.  With
    forms, f (which has no peek) takes one other argument, a sequence of
    Polys: f receives it as a tuple, keyed as forms(that tuple), tuple
    where the order counts and frozenset where only the ideal does."""
    def decorate(f):
        name = (f.__name__,)
        if forms is None:
            @wraps(f)
            def cached(module, *args):
                k = name + args
                value = module._cache.get(k, _MISSING)
                if value is _MISSING:
                    value = module._cache[k] = f(module, *args)
                return value
            cached.peek = lambda module, *args: module._cache.get(name + args)
        else:
            @wraps(f)
            def cached(module, gens):
                gens = tuple(gens)
                k = name + (forms(gens),)
                value = module._cache.get(k, _MISSING)
                if value is _MISSING:
                    value = module._cache[k] = f(module, gens)
                return value
        return cached
    return decorate


class GradedModule:
    """Finitely presented graded module: cokernel of a graded map.

    Immutable; expensive derived data (Groebner basis, series,
    resolution, Ext duals, quotients M/QM) is kept on it by memoized.
    """

    def __init__(self, presentation: ModuleMap):
        self.presentation = presentation
        self.ambient = presentation.target
        self.ring = presentation.target.ring
        self._cache = {}

    @classmethod
    def from_relations(cls, ambient: FreeModule, relations):
        """Module = ambient / <relations>; relation degrees set the twists."""
        rels = [r for r in relations if not r.is_zero()]
        source = FreeModule(ambient.ring, [r.degree() for r in rels])
        return cls(ModuleMap(source, ambient, rels))

    @classmethod
    def quotient_ring(cls, ring: PolyRing, polys):
        """S/I as a module over S."""
        ambient = FreeModule(ring, [0])
        rels = [ambient.element([p]) for p in polys]
        return cls.from_relations(ambient, rels)

    @classmethod
    def free(cls, ring: PolyRing, twists=(0,)):
        ambient = FreeModule(ring, twists)
        source = FreeModule(ring, [])
        return cls(ModuleMap(source, ambient, []))

    def relations(self):
        return self.presentation.columns()

    def direct_sum(self, other):
        if self.ring != other.ring:
            raise RingMismatch("direct sum over different rings")
        amb = FreeModule(self.ring, self.ambient.twists + other.ambient.twists)
        shift = self.ambient.rank
        rels = ([amb.embed(r) for r in self.relations()]
                + [amb.embed(r, shift) for r in other.relations()])
        return GradedModule.from_relations(amb, rels)

    def __repr__(self):
        return (f"GradedModule(ambient rank {self.ambient.rank}, "
                f"{self.presentation.source.rank} relations)")
