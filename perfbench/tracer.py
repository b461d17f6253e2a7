"""Per-layer spans and exact work counts, recorded from outside the package.

``Tracer.install`` replaces the layer boundaries of ``curvemotives`` with
wrappers: class attributes of the arithmetic types, and module-level
functions in every module namespace that bound them (``from .curves import
zeta_at_lefschetz`` makes a second binding in ``moduli``).  ``uninstall``
puts the originals back.  Nothing in the package changes.

A span is ``[name, tag, start, end, parent, leaf_s]``.  The two innermost
layers, ``CoeffPoly`` and ``IntPoly``/``IntPoly2``, run ~10^5 calls a pass,
so they keep no spans: their exclusive time is summed per layer and into the
``leaf_s`` of the span they ran under.  A span's self time is its duration
minus its child spans and its ``leaf_s``.
"""

import collections
import functools
import sys
import time

import answers

COEFF_OPS = ("__init__", "__neg__", "__add__", "__radd__", "__sub__",
             "__rsub__", "__mul__", "__rmul__", "__eq__", "items")
POLY_OPS = ("__init__", "__neg__", "__add__", "__radd__", "__sub__",
            "__rsub__", "__mul__", "__rmul__", "__pow__", "divmod",
            "exact_div", "diagonal", "__eq__")
MOTIVE_OPS = ("__init__", "__neg__", "__add__", "__radd__", "__sub__",
              "__rsub__", "__mul__", "__rmul__", "__pow__", "shift", "equals")
LAYER_FUNCTIONS = (
    ("curves", "sym_power_class"),
    ("curves", "zeta_at_lefschetz"),
    ("moduli", "bun_chi"),
    ("moduli", "m2_chi"),
    ("moduli", "unstable_rank3_chi"),
    ("moduli", "m3_chi"),
    ("moduli", "m3_var"),
    ("moduli", "inversion_formula"),
    ("moduli", "behrend_dhillon_bun"),
    ("realize", "realize"),
)
# Only these two run in the parent process of a parallel suite.
BOUNDARY_FUNCTIONS = (("checks", "run_suite"), ("cli", "main"))
NAME, TAG, START, END, PARENT, LEAF = range(6)


def is_unit_inverse(s):
    """True when a series has the shape of a geometric unit inverse: all
    coefficients 1, on exponents 0, i, 2i, .. up to the validity ceiling
    (adic) or -i, -2i, .. down to the validity floor (dimensional)."""
    exps = sorted(s.coeffs)
    if len(exps) < 2:
        return False
    step = exps[1] - exps[0]
    if s.mode.value == "adic":
        if exps[0] != 0 or exps[-1] + step <= s.valid_hi:
            return False
    elif exps[-1] != -step or exps[0] - step >= s.valid_lo:
        return False
    if exps != list(range(exps[0], exps[-1] + 1, step)):
        return False
    unit = (0,) * s.g
    return all(p.terms == {unit: 1} for p in s.coeffs.values())


class Tracer:
    """Spans and counts for one traced pass; ``reset`` between passes."""

    def __init__(self):
        self._undo = []
        self.counts = collections.Counter()
        self.leaf_s = collections.Counter()
        self.reset()

    def reset(self):
        # the counters are cleared in place: the wrappers hold them
        self.spans = []
        self.stack = []
        self.counts.clear()
        self.leaf_s.clear()
        self._leaf_depth = 0
        self.peak_terms = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, tag=None, after=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            spans.append([name, tag(args) if tag else None, clock(), None,
                          stack[-1] if stack else None, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _leaf(self, layer, fn, count=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            if self._leaf_depth:
                self._leaf_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._leaf_depth -= 1
            self._leaf_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._leaf_depth = 0
                self.leaf_s[layer] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][LEAF] += elapsed
        return wrapper

    # -- counters ----------------------------------------------------------

    def _count_coeff(self, op, coeff_cls):
        counts = self.counts
        if op == "__init__":
            return lambda args: counts.update(("series.coeff.init_calls",))
        if op in ("__add__", "__radd__"):
            return lambda args: counts.update(("series.coeff.add_calls",))
        if op in ("__mul__", "__rmul__"):
            def count(args):
                counts["series.coeff.mul_calls"] += 1
                a, b = args
                if isinstance(b, coeff_cls):
                    counts["series.coeff.mono_products"] += len(a.terms) * len(b.terms)
            return count
        return None

    def _after_motive_mul(self, motive_cls):
        counts = self.counts

        def after(args, result):
            a, b = args
            if not isinstance(b, motive_cls):
                return
            pairs = len(a.coeffs) * len(b.coeffs)
            counts["series.motive.coeff_pairs"] += pairs
            if is_unit_inverse(a) or is_unit_inverse(b):
                counts["series.motive.unit_pairs"] += pairs
            terms = sum(len(p.terms) for p in result.coeffs.values())
            self.peak_terms = max(self.peak_terms, terms)
        return after

    # -- install / uninstall ----------------------------------------------

    def _patch_class(self, cls, op, wrapper):
        self._undo.append((cls, op, cls.__dict__[op]))
        setattr(cls, op, wrapper)

    def _patch_function(self, pkg, module, name, make):
        """Wrap one function in every package namespace that binds it."""
        fn = getattr(getattr(pkg, module), name)
        wrapper = make(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "curvemotives" and not mod_name.startswith("curvemotives."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def install(self, pkg, boundary_only=False):
        """Wrap the layers of ``pkg`` (see ``workloads.load_package``).
        With ``boundary_only`` only the checks/cli boundary is wrapped, which
        is all that runs in the parent of a parallel suite."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        functions = BOUNDARY_FUNCTIONS
        if not boundary_only:
            functions = LAYER_FUNCTIONS + BOUNDARY_FUNCTIONS
            coeff = pkg.series.CoeffPoly
            for op in COEFF_OPS:
                self._patch_class(coeff, op, self._leaf(
                    "series.coeff", coeff.__dict__[op], self._count_coeff(op, coeff)))
            for cls in (pkg.polys.IntPoly, pkg.polys.IntPoly2):
                for op in POLY_OPS:
                    if op in cls.__dict__:
                        self._patch_class(cls, op, self._leaf("polys", cls.__dict__[op]))
            motive = pkg.series.MotiveSeries
            for op in MOTIVE_OPS:
                after = (self._after_motive_mul(motive)
                         if op in ("__mul__", "__rmul__") else None)
                self._patch_class(motive, op, self._span(
                    "series.motive." + op.strip("_"), motive.__dict__[op], after=after))
            self._patch_function(pkg, "checks", "run_check", lambda fn: self._span(
                "checks.run_check", fn, tag=lambda args: "%s@%d" % args[:2]))
        for module, name in functions:
            self._patch_function(pkg, module, name, lambda fn, n="%s.%s" % (module, name):
                                 self._span(n, fn))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo = []

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, reports, workers):
        """Per-layer metrics of the pass just traced, keyed as in
        ``PER_LAYER``.  ``reports`` holds a (check, genus, wall_time) triple
        per check report the pass made; per-check times come from there
        because in a parallel suite ``run_check`` runs in the workers."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] is not None:
                child[s[PARENT]] += dur[i]

        def outermost(i):
            p = spans[i][PARENT]
            while p is not None:
                if spans[p][NAME] == spans[i][NAME]:
                    return False
                p = spans[p][PARENT]
            return True

        total = collections.Counter()
        motive_self = 0.0
        for i, s in enumerate(spans):
            if s[NAME].startswith("series.motive."):
                motive_self += dur[i] - child[i] - s[LEAF]
            elif outermost(i):
                total[s[NAME]] += dur[i]

        counts = self.counts
        m = {name: counts[name] for name in (
            "series.coeff.mul_calls", "series.coeff.mono_products",
            "series.coeff.init_calls", "series.coeff.add_calls")}
        m["series.coeff.self_s"] = self.leaf_s["series.coeff"]
        m["series.motive.mul_calls"] = (counts["series.motive.mul.calls"]
                                        + counts["series.motive.rmul.calls"])
        m["series.motive.coeff_pairs"] = counts["series.motive.coeff_pairs"]
        m["series.motive.unit_pairs"] = counts["series.motive.unit_pairs"]
        m["series.motive.peak_terms"] = self.peak_terms
        m["series.motive.self_s"] = motive_self
        for module, name in LAYER_FUNCTIONS:
            n = "%s.%s" % (module, name)
            m[n + ".calls"] = counts[n + ".calls"]
            m[n + ".s"] = total[n]
        m["polys.self_s"] = self.leaf_s["polys"]

        by_check = collections.Counter()
        by_genus = collections.Counter()
        for check, genus, wall in reports:
            by_check[check] += wall
            by_genus[genus] += wall
        for check in answers.SUITE_CHECKS:
            m["checks.run_check.s." + check] = by_check[check]
        m["checks.genus_cost_ratio"] = (by_genus[4] / by_genus[3]
                                        if by_genus[3] else 0.0)
        suite_s = total["checks.run_suite"]
        m["cli.overhead_s"] = total["cli.main"] - suite_s
        m["cli.worker_busy_share"] = (sum(by_check.values()) / (workers * suite_s)
                                      if suite_s else 0.0)
        return m


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order;
    ``trace_overhead_s`` is added by the pass runner."""
    out = [("series.coeff." + n, "count", "lower")
           for n in ("mul_calls", "mono_products", "init_calls", "add_calls")]
    out.append(("series.coeff.self_s", "s", "lower"))
    out += [("series.motive." + n, "count", "lower")
            for n in ("mul_calls", "coeff_pairs", "unit_pairs", "peak_terms")]
    out.append(("series.motive.self_s", "s", "lower"))
    for module, name in LAYER_FUNCTIONS:
        out.append(("%s.%s.calls" % (module, name), "count", "lower"))
        out.append(("%s.%s.s" % (module, name), "s", "lower"))
    out.append(("polys.self_s", "s", "lower"))
    out += [("checks.run_check.s." + c, "s", "lower") for c in answers.SUITE_CHECKS]
    out.append(("checks.genus_cost_ratio", "ratio", "lower"))
    out.append(("cli.overhead_s", "s", "lower"))
    out.append(("cli.worker_busy_share", "share", "higher"))
    out.append(("trace_overhead_s", "s", "lower"))
    return out
