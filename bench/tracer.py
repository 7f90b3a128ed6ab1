"""Per-module spans and counters, recorded from outside the package.

The tracer replaces the package's public functions and methods by wrappers
at every binding site (the defining module and every module that imported
the name), and puts the originals back on restore().  A span wrapper keeps
(name, start, end, parent, item, hook time) in memory; at the end of each
item the spans are folded into per-name call counts and self times and
dropped, so memory stays bounded.  Hot scalar operations (QI arithmetic) are
only counted, never spanned, which keeps the overhead bounded.

A layer's self time is its span's duration minus its child spans and minus
the time the tracer's own hooks spent inside it; the tracer's wrappers and
counters themselves still cost time, which trace.overhead_ratio reports.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute): functions and methods timed as spans.
SPANS = (
    ("algebra.validate", "algebra", "Representation.validate"),
    ("algebra.from_plan", "algebra", "Representation.from_plan"),
    ("algebra.apply", "algebra", "Representation.apply"),
    ("algebra.element_mul", "algebra", "AlgebraElement.__mul__"),
    ("matrices.matmul", "matrices", "Matrix.__matmul__"),
    ("subspaces.echelon_add", "subspaces", "Echelon.add"),
    ("subspaces.real_nullspace", "subspaces", "real_nullspace"),
    ("twist.twist_by_grading", "twist", "twist_by_grading"),
    ("twist.check_compatibility", "twist", "check_compatibility"),
    ("triple.check_axioms", "triple", "check_axioms"),
    ("triple.pair_sweeps", "triple", "check_order_zero"),
    ("triple.pair_sweeps", "triple", "check_first_order"),
    ("triple.pair_sweeps", "triple", "check_twisted_first_order"),
    ("realpart.real_part", "realpart", "real_part"),
    ("realpart.intersect_with_opposite", "realpart", "intersect_with_opposite"),
    ("realpart.verify_real_part", "realpart", "verify_real_part"),
    ("realpart.verify_doubling_dichotomy", "realpart", "verify_doubling_dichotomy"),
    ("oneforms.omega1_span", "oneforms", "omega1_span"),
    ("standard_model.verify_sm_real_part", "standard_model", "verify_sm_real_part"),
    ("standard_model.build_twisted_sm", "standard_model", "build_twisted_sm"),
    ("standard_model.build_fiber_triple", "standard_model", "build_fiber_triple"),
    ("docio.emit_document", "docio", "emit_document"),
    ("docio.parse_document", "docio", "parse_document"),
    ("docio.json_io", "docio", "load_document"),
    ("docio.json_io", "docio", "save_document"),
    ("fuzz.generate_case", "fuzz", "generate_case"),
)

# (counter name, module, attribute): calls counted, not timed.  __rmul__ and
# __radd__ are the same functions as __mul__ and __add__ but separate slots;
# __rtruediv__ delegates to __truediv__ and is counted there.
COUNTED = (
    ("scalars.qi_mul", "scalars", "QI.__mul__"),
    ("scalars.qi_mul", "scalars", "QI.__rmul__"),
    ("scalars.qi_add", "scalars", "QI.__add__"),
    ("scalars.qi_add", "scalars", "QI.__radd__"),
    ("scalars.qi_add", "scalars", "QI.__sub__"),
    ("scalars.qi_add", "scalars", "QI.__rsub__"),
    ("scalars.qi_div", "scalars", "QI.__truediv__"),
    ("matrices.conjugate_operator", "matrices", "Antilinear.conjugate_operator"),
)

PACKAGE = "spectriple"
ROOT_SPAN = "bench.item"

# Share metrics: (numerator counter, denominator counter).
SHARES = {
    "scalars.qi_mul.integral_share": ("scalars.qi_mul.integral", "scalars.qi_mul.calls"),
    "algebra.validate.nonzero_pair_share": ("algebra.validate.nonzero_pairs", "algebra.validate.pairs"),
    "subspaces.echelon_add.rank_share": ("subspaces.echelon_add.rank_ups", "subspaces.echelon_add.calls"),
}


# Hooks run after the wrapped call; they turn arguments and result into work
# counts.  Signature: hook(tracer, record, args, result).

def _validate_hook(tr, rec, args, result):
    tr.counts["algebra.validate.pairs"] += args[0].spec.real_dimension ** 2


def _matmul_hook(tr, rec, args, result):
    a, b = args
    row_len: dict = {}
    for (i, _), _v in b.entries():
        row_len[i] = row_len.get(i, 0) + 1
    tr.counts["matrices.matmul.madds"] += sum(row_len.get(k, 0) for (_, k), _v in a.entries())
    # validate forms exactly one product pi(e_k) pi(e_l) per basis pair
    if rec[3] >= 0 and tr.spans[rec[3]][0] == "algebra.validate" and result.nnz():
        tr.counts["algebra.validate.nonzero_pairs"] += 1


def _echelon_hook(tr, rec, args, result):
    if result:
        tr.counts["subspaces.echelon_add.rank_ups"] += 1


def _sweep_hook(tr, rec, args, result):
    tr.counts["triple.pair_sweeps.pairs"] += args[0].spec.real_dimension ** 2


def _save_hook(tr, rec, args, result):
    tr.counts["docio.bytes_written"] += os.path.getsize(args[1])


def _load_hook(tr, rec, args, result):
    tr.counts["docio.bytes_read"] += os.path.getsize(args[0])


HOOKS = {
    "Representation.validate": _validate_hook,
    "Matrix.__matmul__": _matmul_hook,
    "Echelon.add": _echelon_hook,
    "check_order_zero": _sweep_hook,
    "check_first_order": _sweep_hook,
    "check_twisted_first_order": _sweep_hook,
    "save_document": _save_hook,
    "load_document": _load_hook,
}


class Tracer:
    """Spans and counters for one traced phase; install() ... restore()."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, item, hook_s]
        self.stack = [-1]
        self.item = None
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.items = 0
        self.wall_s = 0.0
        self._saved: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        by_name = {m.__name__.removeprefix(PACKAGE + "."): m for m in modules}
        for name, mod, attr in SPANS:
            self._patch(modules, by_name[mod], attr, lambda fn, n=name, a=attr: self._span(n, fn, HOOKS.get(a)))
        for name, mod, attr in COUNTED:
            if name == "scalars.qi_mul":
                make = functools.partial(self._count_mul, by_name["scalars"].QI)
            else:
                make = self._count
            self._patch(modules, by_name[mod], attr, lambda fn, n=name, mk=make: mk(n, fn))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, modules, mod, attr, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._saved.append((cls, meth, original))
            setattr(cls, meth, wrapped)
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        # every binding site: the defining module and each importer
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._saved.append((m, key, original))
                    setattr(m, key, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1], self.item, 0.0]
            spans.append(rec)
            stack.append(sid)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, rec, args, result)
                if rec[3] >= 0:
                    spans[rec[3]][5] += clock() - rec[2]
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_mul(self, qi, name, fn):
        """Count QI multiplies, and those whose operands all have denominator 1."""
        calls, counts = self.calls, self.counts

        def integral(x):
            if type(x) is qi:
                return x.real.denominator == 1 and x.imag.denominator == 1
            return getattr(x, "denominator", 0) == 1

        @functools.wraps(fn)
        def wrapper(a, b):
            calls[name] += 1
            if integral(a) and integral(b):
                counts["scalars.qi_mul.integral"] += 1
            return fn(a, b)

        return wrapper

    # -- items -------------------------------------------------------------

    def begin_item(self, item) -> None:
        self.item = item
        self.spans.append([ROOT_SPAN, time.perf_counter(), 0.0, -1, item, 0.0])
        self.stack.append(len(self.spans) - 1)

    def end_item(self) -> None:
        """Close the item's root span and fold its spans into self times."""
        spans = self.spans
        root = spans[self.stack.pop()]
        root[2] = time.perf_counter()
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for rec, inner in zip(spans, child):
            self.calls[rec[0]] += 1
            self.self_s[rec[0]] += rec[2] - rec[1] - inner - rec[5]
        self.wall_s += root[2] - root[1]
        self.items += 1
        spans.clear()
        del self.stack[1:]

    def total(self, name: str) -> float:
        """A count or time summed over the traced items: <span>.calls,
        <span>.self_s, or a named work counter."""
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            return self.calls[base]
        if stat == "self_s":
            return self.self_s[base]
        return self.counts[name]

    def per_item(self, name: str) -> float:
        """A per-layer metric: a share, or a total per traced item."""
        if name in SHARES:
            num, den = SHARES[name]
            den_total = self.total(den)
            return self.counts[num] / den_total if den_total else 0.0
        return self.total(name) / max(self.items, 1)
