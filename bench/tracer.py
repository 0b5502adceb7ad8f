"""Outside-in layer trace of the `vtknot` package.

The tracer replaces each public function of each package module, at the
module attribute callers look up (`tangle.functor_T` calls `mo.rmat`, so
`vtknot.modules.rmat` is replaced), with a wrapper that records a span:
(name, start, end, parent span, op id).  Same-module calls go through the
module globals, which are those attributes, so they are traced too; names a
module imported with `from x import y` keep the plain function and count as
the caller's own time, as do private helpers.  A layer's self time is its
spans' time minus the time of their child spans.

Two hot scalar methods get counters instead of spans: `LaurentPoly.__mul__`
(calls, and term pairs |a|*|b|) and `RatFunc.__add__` (calls, and calls whose
denominators differ, which cross-multiply: the swell mechanism).
Nothing here edits the package's source.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time

from harness import PACKAGE, package_modules

# functions whose return values are measured: the largest numerator and
# denominator of the unreduced values an op produces
RESULT_FUNCS = ("tangle.invariant", "quasir.theta")


def _values(result):
    if isinstance(result, dict):
        return result.values()
    return (result,)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name id, start, end, parent index, op id]
        self.stack = [-1]
        self.op = -1
        self.lp_mul_calls = 0
        self.lp_mul_pairs = 0
        self.rf_add_calls = 0
        self.rf_add_mismatch = 0
        self.result_num = {}  # op id -> largest numerator term count
        self.result_den = {}
        self._undo = []

    # ------------------------------------------------------------ install

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        measure = name in RESULT_FUNCS

        def traced(*args, **kwargs):
            rec = [name_id, clock(), 0.0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure:
                self._measure(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _measure(self, result):
        num = den = 0
        for val in _values(result):
            num = max(num, len(val.num.terms))
            den = max(den, len(val.den.terms))
        self.result_num[self.op] = max(self.result_num.get(self.op, 0), num)
        self.result_den[self.op] = max(self.result_den.get(self.op, 0), den)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for mod in package_modules():
            short = mod.__name__[len(PACKAGE) + 1:]
            if not short:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                self._patch(mod, attr, self._wrap("%s.%s" % (short, attr), obj))
        rf = sys.modules[PACKAGE + ".ratfield"]
        lp_mul, rf_add = rf.LaurentPoly.__mul__, rf.RatFunc.__add__

        def counted_mul(a, b):
            self.lp_mul_calls += 1
            self.lp_mul_pairs += len(a.terms) * len(b.terms)
            return lp_mul(a, b)

        def counted_add(a, b):
            self.rf_add_calls += 1
            if a.den.terms != b.den.terms:
                self.rf_add_mismatch += 1
            return rf_add(a, b)

        self._patch(rf.LaurentPoly, "__mul__", counted_mul)
        self._patch(rf.RatFunc, "__add__", counted_add)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------ report

    def summary(self):
        """Per function name: calls and self seconds; per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls = {n: 0 for n in self.names}
        self_s = {n: 0.0 for n in self.names}
        for k, rec in enumerate(self.spans):
            name = self.names[rec[0]]
            calls[name] += 1
            self_s[name] += rec[2] - rec[1] - child[k]
        layers = {}
        for name, s in self_s.items():
            layer = name.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + s
        return calls, self_s, layers

    def counts(self):
        """The exact counts that must repeat from one traced pass to the next."""
        return {
            "ratfield.lp_mul.calls": self.lp_mul_calls,
            "ratfield.lp_mul.term_pairs": self.lp_mul_pairs,
            "ratfield.rf_add.calls": self.rf_add_calls,
            "ratfield.rf_add.den_mismatch": self.rf_add_mismatch,
            "result.num_terms": sum(self.result_num.values()),
            "result.den_terms": sum(self.result_den.values()),
        }

    def write_spans(self, path, labels):
        """One tab-separated line per span: op, op label, name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\top\top_label\tname\tstart_s\tend_s\tparent\n")
            for k, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write("%d\t%d\t%s\t%s\t%.7f\t%.7f\t%d\n" % (
                    k, op, labels.get(op, ""), self.names[name_id],
                    start - t0, end - t0, parent))
