"""In-memory span tracer for the layers of gradedca.

The tracer wraps chosen functions and methods of the gradedca modules.  A
function imported by name (``from .gb import reduce_vector``) lives in every
namespace that imported it, so a wrapper replaces the function object in each
``gradedca`` module whose globals hold it, and in the class that defines a
method.  Each call records a span: name, start, end and the span that caused
it.  Spans stay in memory and are written out once, by the caller, when the
run ends.

A layer is the gradedca module that defines a function.  The self time of a
span is its duration minus the durations of its direct child spans, so the
self times of all spans add up to the time their root spans cover.  Helpers
that are not wrapped (exponent-tuple arithmetic, generators, rank trackers)
run inside the span of their caller and count towards the caller's layer.

A wrapped name that the program no longer defines is reported as absent; its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> names wrapped with a span.  A dotted name is a method.
SPANS = {
    "poly": ["Poly.__mul__", "Poly.__add__", "Poly.scale", "Poly.mul_monomial",
             "Poly.leading", "parse_poly"],
    "modules": ["Vector.__add__", "Vector.poly_mul", "Vector.mul_term",
                "Vector.scale", "Vector.leading_term", "Vector.monic",
                "Vector.coordinates", "FreeModule.element", "ModuleMap.apply",
                "ModuleMap.compose", "ModuleMap.transpose",
                "ModuleMap.from_columns", "ModuleMap.columns",
                "GradedModule.from_relations", "GradedModule.direct_sum"],
    "gb": ["reduce_vector", "buchberger", "kernel_of_map", "syzygies",
           "intersect", "colon_submodule", "colon_ideal", "annihilator",
           "minimal_generators", "module_gb", "is_zero_module",
           "quotient_module", "quotient_by_ideal", "minimize_presentation",
           "minimal_presentation", "minimal_free_resolution", "betti_numbers",
           "depth", "subquotient", "SubmoduleGB.__init__"],
    "hilbert": ["dim_module", "hilbert_function", "_std_monomial_count",
                "module_length", "make_parameter_ideal", "colength",
                "_hs_value", "hilbert_samuel", "hilbert_coefficients",
                "colon_module", "superficial_check"],
    "koszul": ["koszul_stage", "koszul_differential", "_stage_relations",
               "_finite_length_difference", "koszul_homology", "chi1_serre",
               "chi1_recursion_check"],
    "homology": ["ext_module", "ext_dual", "local_cohomology_lengths",
                 "is_cohen_macaulay", "is_generalized_cm",
                 "_regular_sequence_in", "_hom_into_ci_quotient",
                 "unmixed_component", "is_unmixed"],
    "invariants": ["multiplicity", "hdeg", "torsion", "hdeg_report",
                   "check_e1_torsion_bound", "check_chi1_hdeg_bound",
                   "_same_submodule", "is_d_sequence", "hilbert_characteristic",
                   "betti_bound_check", "buchsbaum_invariant",
                   "standardness_data", "classify"],
    "brim": ["make_parameter_module", "_ring_gb", "_nf_poly", "_products",
             "br_value", "br_coefficients", "probe_conjecture_9_5"],
    "sampler": ["random_parameter_ideal", "sample_parameter_ideals",
                "estimate_lambda", "estimate_xi", "lambda_sweep",
                "random_parameter_module"],
    "checks": ["check_claims", "check_instance", "check_brim",
               "rows_to_matrix"],
    "jobio": ["validate_job", "build_job", "execute_op", "plain"],
}

# Functions too hot for a span: only their calls are counted.
COUNTS = {"poly": ["grevlex_key"]}

# A draw is one candidate parameter ideal or module a sampler tries.
_DRAW_PARENTS = {"sampler.random_parameter_ideal": "hilbert.make_parameter_ideal",
                 "sampler.random_parameter_module": "brim.make_parameter_module"}

PACKAGE = "gradedca"
SPAN_CAP = 200_000


def _program_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class _Stats:
    __slots__ = ("calls", "ok", "incl", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.ok = 0
        self.incl = 0.0       # outermost calls only, so recursion counts once
        self.self_time = 0.0
        self.active = 0


class Tracer:
    """Wraps the functions named in SPANS and COUNTS while installed."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.spans = []
        self.absent = []
        self.draws = 0
        self.seen_coefficients = set()
        self.repeat_coefficients = 0
        self._pinned = []
        self._patches = []
        self._stack = []
        self._root = [0.0, None, None]   # [child time, key, span id]
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self):
        for layer in SPANS:
            try:
                importlib.import_module("%s.%s" % (PACKAGE, layer))
            except ImportError:
                pass      # its names are reported absent below
        mods = _program_modules()
        byname = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        self.absent = []
        for layer, names in SPANS.items():
            for name in names:
                self._patch(byname, mods, layer, name, self._span_wrapper)
        for layer, names in COUNTS.items():
            for name in names:
                self._patch(byname, mods, layer, name, self._count_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, byname, mods, layer, name, factory):
        key = "%s.%s" % (layer, name)
        mod = byname.get(layer)
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            self.absent.append(key)
            return
        original = vars(owner)[attr]
        if owner_name:
            binder = type(original) if isinstance(
                original, (classmethod, staticmethod)) else None
            fn = original.__func__ if binder else original
            wrapped = factory(key, fn)
            self._set(owner, attr, original, binder(wrapped) if binder else wrapped)
            return
        wrapped = factory(key, original)
        for m in mods:
            for a, value in list(vars(m).items()):
                if value is original:
                    self._set(m, a, original, wrapped)

    def _set(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- wrappers ---------------------------------------------------------

    def _count_wrapper(self, key, fn):
        box = self.counts.setdefault(key, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, key, fn):
        st = self.stats.setdefault(key, _Stats())
        stack = self._stack
        root = self._root
        spans = self.spans
        perf = time.perf_counter
        pre = self._pre_hook(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else root
            if pre is not None:
                pre(parent, args, kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [0.0, key, span_id]
            stack.append(frame)
            st.active += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                st.ok += 1
                return out
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                st.active -= 1
                st.calls += 1
                if not st.active:
                    st.incl += dur
                st.self_time += dur - frame[0]
                parent[0] += dur
                if span_id < SPAN_CAP:
                    spans.append((span_id, parent[2], key, t0, t1))
        return traced

    def _pre_hook(self, key):
        if key == "hilbert.hilbert_coefficients":
            return self._note_coefficients
        if key in _DRAW_PARENTS.values():
            def note_draw(parent, args, kwargs):
                if _DRAW_PARENTS.get(parent[1]) == key:
                    self.draws += 1
            return note_draw
        return None

    def _note_coefficients(self, parent, args, kwargs):
        """Count calls on a (module, Q) pair that was asked before."""
        module, gens = args[0], (args[1] if len(args) > 1 else kwargs["q_gens"])
        k = (id(module), frozenset(frozenset(g.terms.items()) for g in gens))
        if k in self.seen_coefficients:
            self.repeat_coefficients += 1
        else:
            self.seen_coefficients.add(k)
            self._pinned.append(module)   # keeps id(module) unique

    # -- results ----------------------------------------------------------

    def root_time(self):
        """Seconds covered by spans without a parent span."""
        return self._root[0]

    def calls(self, key):
        st = self.stats.get(key)
        return st.calls if st else 0

    def ok_calls(self, key):
        st = self.stats.get(key)
        return st.ok if st else 0

    def inclusive(self, key):
        st = self.stats.get(key)
        return st.incl if st else 0.0

    def count(self, key):
        box = self.counts.get(key)
        return box[0] if box else 0

    def layer_self(self):
        out = {layer: 0.0 for layer in SPANS}
        for key, st in self.stats.items():
            out[key.split(".", 1)[0]] += st.self_time
        return out

    def rejected_draws(self):
        accepted = sum(self.ok_calls(k) for k in _DRAW_PARENTS)
        return self.draws - accepted

    def dump(self):
        """Everything recorded, as a JSON-ready document."""
        return {
            "absent": list(self.absent),
            "span_cap": SPAN_CAP,
            "spans_recorded": len(self.spans),
            "spans_total": self._next_id,
            "functions": {k: {"calls": s.calls, "ok": s.ok,
                              "inclusive_s": s.incl, "self_s": s.self_time}
                          for k, s in sorted(self.stats.items())},
            "counts": {k: v[0] for k, v in sorted(self.counts.items())},
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.spans],
        }
