"""Reference algorithms the tests hold the engine to, kept apart from it.

_RankTracker is exact Gaussian elimination over the coefficient field on
{term: coefficient} dicts, the independent rank count behind the
reference quotient lengths; colon_submodule presents (N :_F f) by one
kernel, the elimination the series colons are checked against.
"""

from gradedca.gb import GBError, kernel_of_map
from gradedca.modules import FreeModule, ModuleMap
from gradedca.poly import Poly


class _RankTracker:
    """Incremental Gaussian elimination over the coefficient field.

    Rows are sparse {term: coefficient} dicts over any comparable terms;
    pivots are taken in the terms' natural order, since rank does not
    depend on which order picks them.
    """

    def __init__(self, fld):
        self.fld = fld
        self.rows = {}

    def add(self, terms):
        fld = self.fld
        work = dict(terms)
        while work:
            pivot = max(work)
            row = self.rows.get(pivot)
            if row is None:
                c = work[pivot]
                inv = fld.inv(c)
                self.rows[pivot] = {t: fld.reduce(v * inv) for t, v in work.items()}
                return True
            c = work[pivot]
            for t, v in row.items():
                s = fld.reduce(work.get(t, 0) - v * c)
                if s == 0:
                    work.pop(t, None)
                else:
                    work[t] = s
        return False

    def rank(self, rows, cap):
        """Add rows until cap of them are independent; return how many were."""
        rank = 0
        for terms in rows:
            if rank == cap:
                break
            if terms and self.add(terms):
                rank += 1
        return rank


def colon_submodule(n_gens, f: Poly, ambient: FreeModule):
    """Generators of (N :_F f) = {v in F : f*v in N}; the tests' reference
    for the colons that hilbert.colon_series measures."""
    if f.is_zero():
        raise GBError("colon by zero")
    if not f.is_homogeneous():
        raise GBError("colon by inhomogeneous element")
    d = f.total_degree()
    shifted = FreeModule(ambient.ring, [t + d for t in ambient.twists])
    mul = ModuleMap(shifted, ambient, ambient.ideal_multiples([f]))
    ker = kernel_of_map(mul, target_relations=list(n_gens))
    return [ambient.embed(k) for k in ker]
