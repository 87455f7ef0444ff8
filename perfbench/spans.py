"""Span tracer for the traced run (``--trace 1``).

The program has no tracing of its own, so the tracer wraps its public
functions and the ``BiPoly``/``RatFn``/``PolyMat2`` methods from outside and
patches every module namespace that holds the original, including names
imported with ``from ... import`` (``cli``'s ``hitchin_map``, ``extension``'s
``kernel_dimension``).  Spans carry id, name, start, end, parent, operation
id and self time; they stay in one flat ``array`` in memory and are written
out only at the end.

Self time of a span is its duration minus the footprint of its child spans,
where a child's footprint also covers the tracer's own bookkeeping for it.
So neither parent nor child is charged for the tracer; what remains is the
call overhead of the wrapper itself, reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

FIELDS = 7  # id, name id, start ns, end ns, parent id, op id, self ns


def _count_mul(c, args, res) -> None:
    terms = getattr(res, "_terms", None)
    if terms is None:
        return
    c["mul.bipoly"] += 1
    c["mul.terms_out"] += len(terms)
    bits = max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in terms.values()), default=0)
    if bits > c["mul.max_coeff_bits"]:
        c["mul.max_coeff_bits"] = bits


def _count_exact_div(c, args, res) -> None:
    c["exact_div.hits"] += res is not None


def _count_rank(c, args, res) -> None:
    rows = args[0]
    c["rank.rows"] += len(rows)
    c["rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    c["rank.rank"] += res


def _count_sqrt(c, args, res) -> None:
    q = args[0]
    bits = abs(q.numerator * q.denominator).bit_length()
    if bits > c["exact_sqrt.max_bits"]:
        c["exact_sqrt.max_bits"] = bits


# (module, function names, span name, counter).  A name that a module does
# not define is skipped, so a later refactor that deletes it does not break
# the traced run; the layer then simply reports less.
FUNCTIONS = [
    ("cohiggs.cli", ["main"], "cli.main", None),
    ("cohiggs.cli", ["_emit"], "jsonio.encode", None),
    ("cohiggs.cli", ["_load_json"], "jsonio.decode", None),
    ("cohiggs.jsonio", ["rat_to_json", "bipoly_to_json", "mat_to_json", "field_to_json",
                        "spectral_to_json", "eta_to_json", "fibre_to_json",
                        "phi1_params_to_json", "phi2_params_to_json", "point_to_json"],
     "jsonio.encode", None),
    ("cohiggs.jsonio", ["rat_from_json", "bipoly_from_json", "mat_from_json",
                        "field_from_json", "spectral_from_json", "phi1_params_from_json",
                        "phi2_params_from_json", "point_from_json"], "jsonio.decode", None),
    ("cohiggs.chern", ["intersect", "twisted_chern", "reduce_class", "ext_length",
                       "bundle_moduli_nonempty", "cohiggs_moduli_nonempty",
                       "theorem48_case2_discrepancy", "no_nontrivial_higgs_region"], "chern", None),
    ("cohiggs.cohomology", ["h_dims", "monomial_basis", "slope", "slope_rank2"], "cohomology", None),
    ("cohiggs.linalg", ["rank"], "linalg.rank", _count_rank),
    ("cohiggs._laurent", ["zero", "const", "monomial", "from_bipoly", "to_bipoly", "add", "neg",
                          "sub", "mul", "scale", "is_zero", "inv_monomial", "regular"],
     "laurent", None),
    ("cohiggs._univariate", ["gcd"], "univariate.gcd", None),
    ("cohiggs._univariate", ["resultant"], "univariate.resultant", None),
    ("cohiggs.exactalg", ["conjugate2"], "exactalg.conjugate2", None),
    ("cohiggs.exactalg", ["det2", "commutator2"], "exactalg.polymat", None),
    ("cohiggs.exactalg", ["eval_poly"], "exactalg.evaluate", None),
    ("cohiggs.higgs", ["validate_field"], "higgs.validate", None),
    ("cohiggs.higgs", ["is_integrable"], "higgs.is_integrable", None),
    ("cohiggs.higgs", ["stability_classify"], "higgs.stability_classify", None),
    ("cohiggs.higgs", ["graded_object", "s_equiv_rep"], "higgs.graded", None),
    ("cohiggs.higgs", ["normal_form_F0", "normal_form_pm1"], "higgs.normal_form", None),
    # the split-bundle normal form of the extension family is a normal form too
    ("cohiggs.extension", ["trivial_extension_normal_form"], "higgs.normal_form", None),
    ("cohiggs.higgs", ["section_Q", "pullback_from_line", "field", "common_eigenvector_exists",
                       "eigen_quadratic", "wedge", "trace_free_part"], "higgs.other", None),
    ("cohiggs.extension", ["end0T_dimension"], "extension.end0T_dimension", None),
    ("cohiggs.extension", ["glue_check"], "extension.glue_check", None),
    ("cohiggs.extension", ["build_phi1", "build_phi2"], "extension.build", None),
    ("cohiggs.extension", ["dichotomy_check", "stratum_classify", "weak_iso",
                           "transition_matrices", "v4_trivialization_regular"],
     "extension.other", None),
    ("cohiggs.spectral", ["hitchin_map"], "spectral.hitchin_map", None),
    ("cohiggs.spectral", ["exact_sqrt"], "spectral.exact_sqrt", _count_sqrt),
    ("cohiggs.spectral", ["fibre_over_point"], "spectral.fibre_over_point", None),
    ("cohiggs.spectral", ["rho_consistent", "spectral_residual", "is_generic_quartic",
                          "fibre_decomposability", "product_case_verify"], "spectral.other", None),
]

# (module, class, method names, span name, counter); aliases such as
# __radd__ = __add__ are patched together with the name they alias.
METHODS = [
    ("cohiggs.exactalg", "BiPoly", ["__add__", "__sub__", "__rsub__", "__neg__"], "exactalg.add", None),
    ("cohiggs.exactalg", "BiPoly", ["__mul__"], "exactalg.mul", _count_mul),
    ("cohiggs.exactalg", "BiPoly", ["exact_div"], "exactalg.exact_div", _count_exact_div),
    ("cohiggs.exactalg", "BiPoly", ["evaluate"], "exactalg.evaluate", None),
    ("cohiggs.exactalg", "RatFn", ["__init__", "is_polynomial", "as_bipoly", "__add__", "__neg__",
                                   "__sub__", "__rsub__", "__mul__", "__truediv__",
                                   "__rtruediv__", "__eq__"], "exactalg.ratfn", None),
    ("cohiggs.exactalg", "PolyMat2", ["__init__", "__add__", "__sub__", "__neg__", "__matmul__",
                                      "scale", "trace", "is_zero", "is_trace_free",
                                      "map_entries", "to_bipoly", "__eq__"],
     "exactalg.polymat", None),
    ("cohiggs.cohomology", "LineBundle", ["slope", "dual", "tensor", "twist"], "cohomology", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.stack: list[list[int]] = []
        self.next_id = 0
        self.op = -1
        self.active = False
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _close(self, nid: int, sid: int, t0: int, t1: int, child_ns: int) -> None:
        stack = self.stack
        parent = stack[-1] if stack else None
        self.spans.extend((sid, nid, t0, t1, parent[0] if parent else -1, self.op,
                           t1 - t0 - child_ns))
        if parent is not None:
            parent[1] += time.perf_counter_ns() - t0

    def wrap(self, name: str, fn, count=None):
        nid = self.name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0]
            tracer.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                tracer.stack.pop()
                tracer._close(nid, sid, t0, t1, frame[1])
                raise
            t1 = clock()
            tracer.stack.pop()
            if count is not None:
                count(tracer.counters, args, result)
            tracer._close(nid, sid, t0, t1, frame[1])
            return result

        return traced

    def run_op(self, op_id: int, call):
        """Call ``call()`` as operation ``op_id`` under a root span ``bench.op``."""
        self.op = op_id
        self.active = True
        try:
            return self.wrap("bench.op", call)()
        finally:
            self.active = False

    # -- installing and removing the wrappers -------------------------------

    def install(self, extra_modules=()) -> None:
        holders = [m for n, m in list(sys.modules.items())
                   if n == "cohiggs" or n.startswith("cohiggs.")]
        holders += list(extra_modules)
        for mod_name, attrs, span, count in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            for attr in attrs:
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapper = self.wrap(span, orig, count)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, wrapper)
                            self._undo.append((holder, key, orig))
        for mod_name, cls_name, attrs, span, count in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            if cls is None:
                continue
            for attr in attrs:
                orig = cls.__dict__.get(attr)
                if orig is None or getattr(orig, "__wrapped__", None) is not None:
                    continue
                wrapper = self.wrap(span, orig, count)
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        setattr(cls, key, wrapper)
                        self._undo.append((cls, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def rows(self):
        s = self.spans
        for k in range(0, len(s), FIELDS):
            yield s[k:k + FIELDS]

    def self_ns_by_name(self, ops=None) -> dict[str, int]:
        """Total self time per span name, over all operations or the given ones."""
        out: defaultdict[str, int] = defaultdict(int)
        names = self.names
        for _, nid, _, _, _, op, self_ns in self.rows():
            if ops is None or op in ops:
                out[names[nid]] += self_ns
        return out

    def calls_by_name(self) -> dict[str, int]:
        out: defaultdict[str, int] = defaultdict(int)
        for row in self.rows():
            out[self.names[row[1]]] += 1
        return out

    def op_durations(self) -> dict[int, int]:
        root = self._name_ids.get("bench.op")
        return {row[5]: row[3] - row[2] for row in self.rows() if row[1] == root}

    def write(self, path_stem: str) -> None:
        """Spans as raw int64 rows (``FIELDS`` per span) plus a JSON index of names."""
        with open(path_stem + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op", "self_ns"],
                       "names": self.names, "spans": len(self.spans) // FIELDS}, fh)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_ns_by_layer(by_name: dict[str, int]) -> dict[str, int]:
    out: defaultdict[str, int] = defaultdict(int)
    for name, ns in by_name.items():
        out[layer_of(name)] += ns
    return out
