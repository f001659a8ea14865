"""Dimension, length, Hilbert functions and Hilbert-Samuel coefficients.

One primitive carries dimension, length and the Hilbert function: the
Hilbert series HS(M) = N(t)/(1−t)^n of the lead-term module, n the number
of variables.  Position i of the ambient free module contributes
t^twist_i·N(S/I_i), where I_i is the monomial ideal of lead terms at i and
N(S/I_i) comes from Bigatti's pivot recursion (A. M. Bigatti, "Computation
of Hilbert-Poincaré series", J. Pure Appl. Algebra 119, 1997).  Twists may
be negative, so N is a Laurent polynomial, kept as {exponent: coefficient};
shifted_sum forms the combinations Σ c·t^s·N that exact sequences ask for.
From it, and by series_dim and series_length from any numerator:

    dim M    = n − (order of the root t = 1 of N), −inf when N = 0;
    λ(M)     = the value at t = 1 of N/(1−t)^n, when that is a Laurent
               polynomial, and infinite otherwise;
    H(M, d)  = Σ_k N_k·binom(d − k + n − 1, n − 1);
    N(0:_M h) = N(M) − t^{−deg h}·(N(M) − N(M/hM)), with no colon module.

The Hilbert-Samuel values λ(M/Q^{n+1}M) are levels of Powers, which
steps the filtration L_0 = M, L_{k+1} = Σ_j g_j·L_k one level at a time,
degree by degree, in the linear-algebra view of Groebner bases (D. Lazard,
EUROCAL 1983; J.-C. Faugère, J. Pure Appl. Algebra 139, 1999): level k+1
in degree t is an echelon basis of the images of level k's bases in the
degrees t − d_j, read off tables of NF(g_j·u) on the standard terms u, so
no product of generators is formed, and no row that provably reduces to
zero is formed either (see Powers).  The tables are summed from
multiplication tables kept on the module and shared by every Q of it
(FGLM's, for the variables): NF(τ) of an ambient term τ is reduced once
per module, by gb.normal_forms on the integer forms of M's Buchberger
run, and kept as integers, (den, {term: c}), with no Fraction.  The terms
τ, the standard terms and the terms of each normal form are the engine's
packed ints (see poly), so x^m·u is an addition and a standard term is
one no lead term divides by a subtraction and a mask; _standard_terms
checks each degree against poly.EXP_LIMIT before it forms its terms.
NF(τ) is packed once per module and slot width as a row over the
standard terms of its degree, X_{m,s} lists NF(x^m·u) by the slot of u,
and the table of g = Σ c_m·x^m on degree s is Σ c_m·X_{m,s}, one integer
multiply-add per term and row.  _echelon does the linear algebra: over
F_p a packed echelon, each row one Python int with a slot per column and
mod-p reduction delayed until a slot is read, so a row operation is one
integer multiply-add and a table entry is never reduced before it; over
Q, where each table's rows share one integer scale, a fraction-free
elimination on primitive integer rows.  The Buchsbaum-Rim values
λ(Fⁿ/Eⁿ), E ⊆ Rʳ, are levels of the same object, free over R on blocks of
columns, its tables built by Space.table from R's multiplication tables.
Coefficients are integer backward differences of a stabilized tail of the
table, read off in the binomial basis; the Buchsbaum-Rim tables use the
same fit.

The series, the packed normal-form rows, the multiplication tables, the
standard terms and the Hilbert coefficients of (M, Q) are kept on the
module by modules.memoized, as gb.normal_forms' table is.
The coefficients are keyed by the frozenset of Q's generators: a reordered
or repeated generating set hits the same entry, and since the table values
depend only on the ideal, a hit returns what a recomputation would.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import repeat
from math import comb, gcd, lcm

from .gb import GBError, module_gb, normal_forms, quotient_by_ideal
from .modules import GradedModule, memoized
from .poly import (EXP_BITS, Poly, lincomb, mon_deg, mon_divides, mon_mul,
                   require, require_packable)

NEG_INF = float("-inf")


class HilbertError(GBError):
    pass


# ---------------------------------------------------------------------------
# the Hilbert series


def _minimal_monomials(mons):
    out = []
    for m in sorted(set(mons), key=mon_deg):
        if not any(mon_divides(g, m) for g in out):
            out.append(m)
    return out


def monomial_numerator(mons):
    """N(t) with HS(S/(mons)) = N(t)/(1−t)^n, as {exponent: coefficient}.

    Bigatti's recursion N(I) = N(I + (p)) + t^deg p·N(I : p) on the pivot
    p = x_j^e, with x_j a variable that divides the most generators and e
    its exponent in a generator that is not a pure power of x_j.  Then p
    lies in neither I nor I : p, so both ideals strictly grow and the
    recursion ends at the unit ideal (0), no generators (1) or pairwise
    coprime generators (∏ (1 − t^deg g)).
    """
    gens = _minimal_monomials(mons)
    if not gens:
        return {0: 1}
    if mon_deg(gens[0]) == 0:
        return {}
    counts = [sum(1 for g in gens if g[j]) for j in range(len(gens[0]))]
    if max(counts) <= 1:
        out = {0: 1}
        for g in gens:
            out = shifted_sum([(1, 0, out), (-1, mon_deg(g), out)])
        return out
    j = max(range(len(counts)), key=counts.__getitem__)
    exps = sorted(g[j] for g in gens if g[j] and mon_deg(g) > g[j])
    e = exps[len(exps) // 2]
    pivot = tuple(e if k == j else 0 for k in range(len(counts)))
    colon = [g[:j] + (max(g[j] - e, 0),) + g[j + 1:] for g in gens]
    return shifted_sum([(1, 0, monomial_numerator(gens + [pivot])),
                        (1, e, monomial_numerator(colon))])


def _lead_monomials_by_position(module: GradedModule):
    gb = module_gb(module)
    by_pos = {i: [] for i in range(module.ambient.rank)}
    for pos, mon in gb.leading_terms():
        by_pos[pos].append(mon)
    return by_pos


@memoized()
def hilbert_series(module: GradedModule):
    """Numerator N(t) of HS(M) = N(t)/(1−t)^n, as {exponent: coefficient}."""
    by_pos = _lead_monomials_by_position(module)
    return shifted_sum((1, twist, monomial_numerator(by_pos[pos]))
                       for pos, twist in enumerate(module.ambient.twists))


def shifted_sum(parts):
    """Σ c·t^s·N over the (c, s, N) in parts, as {exponent: coefficient}."""
    return lincomb(operator.pos, parts, operator.add)


def divide_poles(num, k):
    """(j, num/(1−t)^j) for the largest j ≤ k at which the division is exact.

    (1 − t) divides a Laurent polynomial exactly when its value at 1 is 0;
    the quotient's coefficients are then the partial sums of num's.
    """
    j = 0
    while j < k and sum(num.values()) == 0:
        quo, acc = {}, 0
        for e in range(min(num, default=0), max(num, default=0)):
            acc += num.get(e, 0)
            if acc:
                quo[e] = acc
        num = quo
        j += 1
    return j, num


def series_coefficient(num, n, d):
    """Coefficient of t^d in num(t)/(1−t)^n."""
    return sum(c * comb(d - k + n - 1, n - 1) for k, c in num.items() if k <= d)


# ---------------------------------------------------------------------------
# dimension and length


def series_dim(num, n):
    """Krull dimension of a module with HS = num/(1−t)^n; −inf when num = 0."""
    return n - divide_poles(num, n)[0] if num else NEG_INF


def series_length(num, n):
    """Length of a module with HS = num/(1−t)^n, or None when infinite."""
    j, quo = divide_poles(num, n)
    return sum(quo.values()) if j == n else None


def dim_module(module: GradedModule):
    """Krull dimension; −inf for the zero module."""
    return series_dim(hilbert_series(module), module.ring.num_vars)


def _position_growth_witness(module: GradedModule):
    """A (position, variable) along which a module of positive dimension
    grows forever: a lead-term module is Artinian exactly when every
    variable has a pure power among its lead terms."""
    for pos, mons in _lead_monomials_by_position(module).items():
        for k, name in enumerate(module.ring.var_names):
            if not any(mon_deg(m) == m[k] for m in mons):
                return pos, name


def hilbert_function(module: GradedModule, n: int) -> int:
    """Dimension over the coefficient field of the degree-n component."""
    return series_coefficient(hilbert_series(module), module.ring.num_vars, n)


def module_length(module: GradedModule):
    """Total length, or None when infinite (positive dimension)."""
    return series_length(hilbert_series(module), module.ring.num_vars)


# ---------------------------------------------------------------------------
# parameter ideals


@dataclass(frozen=True)
class ParameterIdeal:
    gens: tuple
    degrees: tuple
    colength_certificate: int

    def __iter__(self):
        return iter(self.gens)


def make_parameter_ideal(module: GradedModule, gens) -> ParameterIdeal:
    """Validate gens as a system of parameters for the module."""
    gens = tuple(gens)
    r = dim_module(module)
    if r == NEG_INF:
        raise HilbertError("zero module has no parameter ideals")
    if len(gens) != r:
        raise HilbertError(
            "parameter ideal needs %d generators (dim M), got %d" % (r, len(gens)))
    for g in gens:
        if g.is_zero() or not g.is_homogeneous():
            raise HilbertError("parameter ideal generators must be nonzero homogeneous")
    lam = colength(module, gens)
    return ParameterIdeal(gens, tuple(g.total_degree() for g in gens), lam)


def colength(module: GradedModule, gens):
    """λ(M/(gens)M); raises naming a growth direction when infinite."""
    quo = quotient_by_ideal(module, gens)
    lam = module_length(quo)
    if lam is None:
        raise HilbertError(
            "quotient not Artinian: infinite growth at position %d along (%s)"
            % _position_growth_witness(quo))
    return lam


# ---------------------------------------------------------------------------
# Hilbert-Samuel table


@dataclass
class HilbertSamuelTable:
    values: list
    N: int


def _echelon(fld, rows, w, cap):
    """An echelon basis of the span of rows, read until cap rows of it are
    found.  rows yields (tag, row) pairs, and the basis comes back as
    (tag, row) pairs in the order its rows joined, each with the tag of the
    row it was reduced from.

    Over Q the rows are {slot: c} dicts of integers, as _form_table and
    _image build them, and the elimination is fraction-free (E. H. Bareiss,
    Math. Comp. 22, 1968, with each row's content divided out in
    place of the previous pivot): a row's top slot is eliminated by the
    cross-multiple a·work − c·row of the basis row with that top slot, and
    its content is divided out before each step.  The basis comes back as
    primitive integer rows with distinct top slots, a basis of the span
    rather than a reduced one; a row may come back as the very dict it
    came in as, so neither may be mutated.  Over F_p it is a packed
    echelon with delayed reduction (J.-G. Dumas, P. Giorgi and C. Pernet,
    ACM Trans. Math. Software 35, 2008): a row is one int with a slot of w
    bits per column, and a row operation work += (p − a)·pivot_row is one
    integer multiply-add.  A slot is reduced mod p only when it is read as
    the row's pivot entry, or when the row joins the basis, normalised by
    the inverse of its pivot entry, so w must hold a row's largest entry
    plus fewer than cap eliminations of less than p² each.  A basis row is
    kept as its tail below the pivot, so eliminating a pivot only touches
    lower slots, and comes back whole: pivot 1 | tail, reduced mod p.  Both
    loops read a row's nonzero slots top down, by its bit length, so a
    zero slot costs nothing.
    """
    p = fld.p
    if p is None:
        basis = {}   # pivot slot -> a primitive integer row with that top slot
        tags = {}    # pivot slot -> the tag of the row it came from
        for tag, work in rows:
            if len(basis) == cap:
                break
            while work:
                g = gcd(*work.values())
                if g > 1:
                    work = {s: v // g for s, v in work.items()}
                top = max(work)
                b = basis.get(top)
                if b is None:
                    basis[top], tags[top] = work, tag
                    break
                a, c = b[top], work[top]
                work = {s: v for s in work.keys() | b.keys()
                        if (v := a * work.get(s, 0) - c * b.get(s, 0))}
        return [(tags[top], b) for top, b in basis.items()]
    tails = {}   # bit offset of a pivot slot -> its basis row's tail
    tags = {}    # bit offset of a pivot slot -> the tag of the row it came from
    for tag, work in rows:
        if len(tails) == cap:
            break
        while work:
            shift = (work.bit_length() - 1) // w * w
            top = work >> shift
            work -= top << shift
            a = top % p
            if not a:
                continue
            tail = tails.get(shift)
            if tail is not None:
                work += (p - a) * tail
                continue
            inv = pow(a, p - 2, p)
            tail = 0
            while work:
                at = (work.bit_length() - 1) // w * w
                c = work >> at
                work -= c << at
                if c := c % p:
                    tail |= c * inv % p << at
            tails[shift], tags[shift] = tail, tag
            break
    return [(tags[shift], 1 << shift | tail) for shift, tail in tails.items()]


@memoized()
def _standard_terms(module: GradedModule, t):
    """The standard terms of M of degree t, packed: the (pos, mon) with mon
    divisible by no lead term at pos, H(M, t) of them, listed once per
    module and degree.  A divisor of a standard monomial is standard, so
    each is the unit at a position of twist t or x_i·u for a standard term
    u of degree t − 1, with i at most the index of u's first variable
    (its lowest nonzero field), which makes the pair unique.  Each degree
    is checked against poly.EXP_LIMIT before its terms are formed, and the
    products of _multiplication_table on them land in a degree whose
    standard terms are listed first, so no packed exponent wraps."""
    twists = module.ambient.twists
    if t < min(twists):
        return []
    require_packable(t, min(twists))
    ring = module.ring
    ps, dm, last = ring.pos_shift, ring.div_mask, ring.num_vars - 1
    xs = ring.var_terms
    cands = [pos << ps for pos, twist in enumerate(twists) if twist == t]
    for u in _standard_terms(module, t - 1):
        low = u & ring.exp_mask
        first = ((low & -low).bit_length() - 1) // EXP_BITS if low else last
        cands += [u + x for x in xs[:first + 1]]
    lts = module_gb(module).lts
    terms = [u for u in cands if all((u - lt) & dm for lt in lts)]
    require(len(terms) == hilbert_function(module, t),
            "standard terms of degree %d do not number H(M, %d)" % (t, t))
    return terms


def _pack_normal_form(fld, nf, term, slots, w):
    """nf(term) over the columns slots of its degree: over F_p one int with
    coefficient c in slot slots[u] of w bits, over Q (den, {slot: c}) with
    integers c and nf(term) = Σ c/den·u.  A standard term is its own normal
    form and is reduced by nothing."""
    den, form = (1, {term: 1}) if term in slots else nf(term)
    if fld.p is None:
        return den, {slots[u]: c for u, c in form.items()}
    row = 0
    for u, c in form.items():
        row |= c << w * slots[u]
    return row


@memoized()
def _packed_normal_forms(module: GradedModule, t, w):
    """row(term): _pack_normal_form of a term of degree t of M's ambient
    over the standard terms of degree t, packed once per module and
    width, so every ideal Q of M reads the same row.  The closure holds
    no reference to M, so M and its cache form no cycle."""
    fld, nf = module.ring.field, normal_forms(module)
    slots = {u: i for i, u in enumerate(_standard_terms(module, t))}
    rows = {}

    def row(term):
        packed = rows.get(term)
        if packed is None:
            packed = rows[term] = _pack_normal_form(fld, nf, term, slots, w)
        return packed
    return row


@memoized()
def _multiplication_table(module: GradedModule, m, s, w):
    """X_{m,s}: the packed NF(x^m·u) for the standard terms u of degree s,
    listed by u's slot; with m packed at position 0, x^m·u is u + m.  For
    a variable x_i it is the multiplication matrix of FGLM (J.-C. Faugère,
    P. Gianni, D. Lazard and T. Mora, J. Symbolic Comput. 16, 1993) from
    degree s to s + 1; it is built once per module, monomial, degree and
    width."""
    row = _packed_normal_forms(module, s + mon_deg(m), w)
    m = module.ring.pack_term((0, m))
    return [row(u + m) for u in _standard_terms(module, s)]


def _form_table(module: GradedModule, form, s, w):
    """The table of NF(form·u) for the standard terms u of degree s: row k
    is Σ_m c_m·X_{m,s}[k] over the terms c_m·x^m of form.  Over F_p that
    is an integer multiply-add per term, with no reduction mod p, so an
    entry stays below T·p² for T terms.  Over Q it is (scale, rows): the
    rows times scale, the lcm of every c_m's and row's denominator, are
    integer rows."""
    coeffs = list(form.terms.values())
    tables = [_multiplication_table(module, m, s, w) for m in form.terms]
    if module.ring.field.p is not None:
        return [sum(map(operator.mul, coeffs, col)) for col in zip(*tables)]
    scale = lcm(*(c.denominator * den
                  for c, table in zip(coeffs, tables) for den, _ in table))
    rows = []
    for col in zip(*tables):
        row = {}
        for c, (den, part) in zip(coeffs, col):
            k = c.numerator * (scale // (c.denominator * den))
            for slot, v in part.items():
                row[slot] = row.get(slot, 0) + k * v
        rows.append({slot: v for slot, v in row.items() if v})
    return scale, rows


class Space:
    """One A_k of a Powers filtration: the free base-module on blocks,
    ⊕_a base·a, for a base module and blocks that are monomials.  Its
    columns of degree t are the (a, u), u a standard term of base of degree
    t, block by block and within a block in _standard_terms' order.  g_j
    has the parts parts[j], pairs (shift, form) whose forms share g_j's
    degree degrees[j], and g_j·(a, u) = Σ (a·shift, NF(form·u)) over them
    in the next level.  tables[(j, s)] keeps each table built."""

    def __init__(self, base, blocks, parts):
        self.base = base
        self.blocks = blocks
        self.index = {a: i for i, a in enumerate(blocks)}
        self.parts = parts
        self.degrees = [gen[0][1].total_degree() for gen in parts]
        self.tables = {}

    def cols(self, t):
        """The number of columns of degree t, |blocks|·H(base, t)."""
        return len(self.blocks) * len(_standard_terms(self.base, t))

    def table(self, j, s, w, dst):
        """The table of g_j on degree s: the row of column (a, u) sums
        _form_table's rows for u of g_j's parts, each placed at the first
        slot of dst's block a·shift; over Q every part is brought to the
        lcm of the parts' scales, which changes no span of images.  The
        parts land in distinct blocks, so an entry is below T·p²."""
        base, parts = self.base, self.parts[j]
        h = dst.cols(s + self.degrees[j]) // len(dst.blocks)
        tables = [_form_table(base, form, s, w) for _, form in parts]
        rows = []
        if base.ring.field.p is not None:
            for a in self.blocks:
                offs = [w * h * dst.index[mon_mul(a, shift)] for shift, _ in parts]
                rows += tables[0] if offs == [0] else map(sum, zip(*(
                    map(operator.lshift, table, repeat(off))
                    for off, table in zip(offs, tables))))
            return rows
        ks = [lcm(*(c for c, _ in tables)) // c for c, _ in tables]
        for a in self.blocks:
            offs = [h * dst.index[mon_mul(a, shift)] for shift, _ in parts]
            for col in zip(*(table for _, table in tables)):
                row = {}
                for off, k, part in zip(offs, ks, col):
                    row.update((slot + off, k * v) for slot, v in part.items())
                rows.append(row)
        return rows


def _image(fld, row, w, table):
    """Σ c·table[slot] over the slots of a basis row, whose slots are w
    bits wide."""
    if fld.p is None:
        return lincomb(fld.reduce,
                       [(c, None, table[slot]) for slot, c in row.items()], None)
    mask = (1 << w) - 1
    out = slot = 0
    while row:
        c = row & mask
        if c:
            out += c * table[slot]
        row >>= w
        slot += 1
    return out


def _slot_width(p, below, terms, cols):
    """The slot width over F_p of a degree with cols columns and images of
    below rows of tables of forms of ≤ terms terms; see Powers."""
    return ((below * terms * p + cols + 1) * p * p).bit_length()


class Powers:
    """λ(A_k/L_k) for the filtration L_0 = A_0, L_{k+1} = Σ_j g_j·L_k of
    graded modules A_k with finite-dimensional pieces, one level at a time.

    spaces yields the A_k as Spaces, d_j = degrees[j].  In every degree
    (L_{k+1})_t = Σ_j g_j·(L_k)_{t−d_j}, so level k+1 in degree t is the
    echelon basis of the images, under the tables of A_k, of level k's
    basis in each degree t − d_j; where L_k is all of A_k the images are
    the table rows themselves.  The rows are read generator by generator,
    and a basis row keeps the index i of the generator whose row it joined
    from, so it lies in Σ_{i' ≤ i} g_i'·L_{k−1}.  Since the g_j commute,
    g_j·b then lies in Σ_{i' ≤ i} g_i'·L_k, which the rows of g_0..g_i
    span, so for j > i its image would reduce to zero and is not formed
    (the Koszul-syzygy criterion of F5: J.-C. Faugère, ISSAC 2002).

    Over F_p a slot of degree t is w = bit_length((below·T·p + cols + 1)·p²)
    bits wide, with below = max_j H(A_k, t − d_j), cols = H(A_{k+1}, t) and
    T the most terms of any part's form.  A table entry is a sum of at
    most T products of residues, less than T·p², and a basis row has
    entries below p, so an image is a sum of at most below products
    c·entry, less than below·T·p³, and each of the fewer than cols + 1
    eliminations of the echelon adds less than p².  The width is proven,
    not a cap.

    Degrees run from the least twist to the first degree at or past the
    largest twist whose quotient is 0: A_k/L_k is generated in degrees ≤
    the largest twist, so past it L_k is all of A_k.  Only the top level's
    bases are kept, and value(k) steps up to level k once.  Where every
    level is one space A, as for Q^k·M, level 1 ends at a degree T_1 from
    which L_1 = Σ_j g_j·A is all of A.  So at a later level a degree
    t ≥ T_1 where L_k is all of A in every t − d_j has (L_{k+1})_t =
    (L_1)_t = A_t, and no row of it is read.
    """

    def __init__(self, spaces):
        self.spaces = spaces
        self.top = next(spaces)
        base, parts = self.top.base, self.top.parts
        self.fld = base.ring.field
        self.degrees = self.top.degrees
        self.terms = max((len(form.terms) for gen in parts for _, form in gen),
                         default=1)
        self.tmin, self.tmax = min(base.ambient.twists), max(base.ambient.twists)
        self.values = [0]
        # degree -> (w, basis), where the top level is not all of its A_k
        self.bases = {}
        self.full_from = float("inf")  # where level 1 ends, once stepped

    def value(self, k):
        while len(self.values) <= k:
            self._step()
        return self.values[k]

    def _step(self):
        src, dst = self.top, next(self.spaces)
        p = self.fld.p or 0  # over Q no slot width is read
        total, bases, t = 0, {}, self.tmin
        while True:
            cols = dst.cols(t)
            if src is dst and t >= self.full_from and not any(
                    t - d in self.bases for d in self.degrees):
                left = 0
            else:
                below = max((src.cols(t - d) for d in self.degrees), default=0)
                w = _slot_width(p, below, self.terms, cols)
                rows = ((j, row) for j, d in enumerate(self.degrees)
                        for row in self._rows(j, t - d, dst, w))
                basis = _echelon(self.fld, rows, w, cols)
                left = cols - len(basis)
            total += left
            if left:
                bases[t] = (w, basis)
            elif t >= self.tmax:
                break
            t += 1
        if len(self.values) == 1:
            self.full_from = t
        self.top, self.bases = dst, bases
        self.values.append(total)

    def _rows(self, j, s, dst, w):
        """Rows that with those of g_i, i < j, span g_j·(L_k)_s over
        dst's columns of degree s + d_j."""
        src = self.top
        table = src.tables.get((j, s))
        if table is None:
            table = src.tables[(j, s)] = src.table(j, s, w, dst)
        held = self.bases.get(s)
        if held is None:
            return table
        ws, basis = held
        return (_image(self.fld, b, ws, table) for i, b in basis if i >= j)


def _module_powers(module: GradedModule, gens):
    """Q^k·M by Q = (gens): at every level one space, M as one block with
    the part ((), g) for each generator g, so its tables serve every level."""
    parts = [[((), g)] for g in gens if not g.is_zero()]
    return Powers(repeat(Space(module, [()], parts)))


def _hs_value(module: GradedModule, powers, n):
    """λ(M/Q^{n+1}M), level n + 1 of powers = _module_powers(M, Q).
    Callers certify first that M/QM has finite length."""
    return powers.value(n + 1)


def hilbert_samuel(module: GradedModule, q_gens, N: int) -> HilbertSamuelTable:
    """Table of λ(M/Q^{n+1}M) for n = 0..N."""
    colength(module, q_gens)  # certifies the Artinian property once
    powers = _module_powers(module, q_gens)
    values = [_hs_value(module, powers, n) for n in range(N + 1)]
    return HilbertSamuelTable(values=values, N=N)


# ---------------------------------------------------------------------------
# coefficient extraction


def _difference(values, j, n):
    """∇^j λ(n) = Σ_k (−1)^k·binom(j, k)·λ(n − k), the j-th backward
    difference of the table at n."""
    return sum((-1) ** k * comb(j, k) * values[n - k] for k in range(j + 1))


def fit_binomial(value, r, s, n_max):
    """Stabilized fit of λ(n) = Σ (−1)^i c_i·binom(n − s + r − i, r − i).

    value(n) gives λ(n), asked for in order n = 0, 1, ….  The fit is the
    polynomial P of degree ≤ r through the first window n0..n0+r, within
    n ≤ n_max, at whose next two points ∇^{r+1}λ = 0: two consecutive
    (r+1)-point windows agree there and one further point fits.  Since
    ∇^j binom(n − s + k, k) = binom(n − s + k − j, k − j), which at
    n = s − 1 is 1 for j = k and 0 otherwise, c_i = (−1)^i·∇^{r−i}P(s − 1),
    an integer.  The differences are stepped back from n0 + r by
    ∇^jP(n − 1) = ∇^jP(n) − ∇^{j+1}P(n), with ∇^{r+1}P = 0.  Returns
    (coefficients, table of the values asked for, first point of the
    window), or None when no window stabilizes.
    """
    values = []
    for n0 in range(n_max - r - 1):
        while len(values) <= n0 + r + 2:
            values.append(value(len(values)))
        if _difference(values, r + 1, n0 + r + 1) == 0 \
                and _difference(values, r + 1, n0 + r + 2) == 0:
            diffs = [_difference(values, j, n0 + r) for j in range(r + 1)]
            for _ in range(n0 + r - s + 1):
                diffs = [a - b for a, b in zip(diffs, diffs[1:] + [0])]
            return [(-1) ** i * diffs[r - i] for i in range(r + 1)], values, n0
    return None


@dataclass
class HilbertCoefficients:
    e: list
    r: int
    stabilized_at: int
    table: HilbertSamuelTable = field(repr=False, default=None)


HS_N_MAX = 40  # the Hilbert-Samuel fit window ends at n = HS_N_MAX


@memoized(forms=frozenset)
def hilbert_coefficients(module: GradedModule, gens) -> HilbertCoefficients:
    """Stabilized coefficients e₀..e_r of n ↦ λ(M/Q^{n+1}M), r = dim M.

    The fit is fit_binomial's, within n ≤ HS_N_MAX.  Q may have more
    generators than dim M, as for M/hM in superficial_check.  The result is
    memoized on the module under the set of Q's generators.
    """
    r = dim_module(module)
    if r == NEG_INF:
        raise HilbertError("zero module has no Hilbert coefficients")
    colength(module, gens)
    powers = _module_powers(module, gens)
    fit = fit_binomial(lambda n: _hs_value(module, powers, n), r, 0, HS_N_MAX)
    if fit is None:
        raise HilbertError(
            "Hilbert-Samuel table did not stabilize within n <= %d" % HS_N_MAX)
    e, values, n0 = fit
    require(e[0] >= 1, "leading Hilbert coefficient must be positive")
    if len(set(gens)) == r >= 1:
        require(e[1] <= 0,
                "first Hilbert coefficient of a parameter ideal must be <= 0")
    table = HilbertSamuelTable(values=values, N=len(values) - 1)
    return HilbertCoefficients(e=e, r=r, stabilized_at=n0, table=table)


# ---------------------------------------------------------------------------
# superficial elements


def colon_series(module: GradedModule, h: Poly):
    """Numerator of HS(0 :_M h) from the exact sequence
    0 → (0:_M h)(−d) → M(−d) → M → M/hM → 0 with d = deg h, M/hM being
    the memoized quotient_by_ideal(M, [h])."""
    if h.is_zero() or not h.is_homogeneous():
        raise HilbertError("colon by a zero or inhomogeneous form")
    num, d = hilbert_series(module), h.total_degree()
    quo = quotient_by_ideal(module, [h])
    return shifted_sum([(1, 0, num), (-1, -d, num),
                        (1, -d, hilbert_series(quo))])


@dataclass
class SuperficialReport:
    passed: bool
    e_module: list
    e_quotient: list
    colon_length: int
    detail: str


def superficial_check(module: GradedModule, q: ParameterIdeal, h: Poly) -> SuperficialReport:
    """Coefficient transfer under a superficial element.

    Checks e_i(M) = e_i(M/hM) for i < r−1 and
    e_{r−1}(M) = e_{r−1}(M/hM) + (−1)^r λ(0 :_M h).
    """
    r = dim_module(module)
    quo = quotient_by_ideal(module, [h])
    lam = series_length(colon_series(module, h), module.ring.num_vars)
    if lam is None:
        return SuperficialReport(False, [], [], -1, "0:_M h has infinite length")
    dq = dim_module(quo)
    if dq != r - 1:
        return SuperficialReport(False, [], [], lam,
                                 "dim M/hM = %s, expected %d" % (dq, r - 1))
    em = hilbert_coefficients(module, q.gens).e
    eq = hilbert_coefficients(quo, q.gens).e
    ok = all(em[i] == eq[i] for i in range(r - 1))
    ok = ok and em[r - 1] == eq[r - 1] + (-1) ** r * lam
    detail = "" if ok else "coefficient identities failed"
    return SuperficialReport(ok, em, eq, lam, detail)
