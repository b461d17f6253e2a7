"""The four workloads.  Each is a single-client closed loop: one pass at a
time, every operation checked against a known answer from ``answers``.

The seed only permutes the order of the work items of a pass; the set of
items is pinned here and in ``answers``.
"""

import contextlib
import hashlib
import importlib
import json
import os
import types

import answers

WHY = {
    "suite-serial": "the verify command users run, over all 18 checks at "
                    "genus 2-4 with one worker; every layer works and classes "
                    "are rebuilt across checks",
    "rank3-deep": "rank-3 and inversion classes at genus 6, built once each; "
                  "time goes to products by unit inverses and large "
                  "coefficient products",
    "suite-parallel": "the same suite with --workers 2, the only path "
                      "through the process pool: task order, pickling and "
                      "per-process copies",
    "poly-sweep": "unit-free checks and Poincare/Hodge realizations of "
                  "symmetric powers at genus 2-14; no unit inverse is "
                  "multiplied",
}
NAMES = tuple(WHY)
MODULES = ("series", "polys", "curves", "moduli", "realize", "checks", "cli")


def load_package():
    """The package's modules by name.  Attribute access on the package
    itself will not do: ``curvemotives.realize`` is the function."""
    return types.SimpleNamespace(**{
        name: importlib.import_module("curvemotives." + name) for name in MODULES})


class Failure(Exception):
    """An operation whose output differs from the known answer."""


def digest(series):
    return hashlib.sha256(series.to_json().encode()).hexdigest()


class Workload:
    """One workload: ``ops`` is the pinned list of operations, in the order
    a pass runs them; ``run_pass`` runs them all and returns
    ``(attempted, failures)`` with ``failures`` a list of (op, message)."""

    workers = 1

    def __init__(self, pkg, rng, out_dir):
        self.pkg = pkg
        self.out_dir = out_dir
        self.ops = self.pinned_ops()
        rng.shuffle(self.ops)
        # (check, genus, wall_time) of each check report of the last pass
        self.reports = []


class Suite(Workload):
    """``curve-motives verify`` over the pinned checks at genus 2, 3, 4."""

    def pinned_ops(self):
        return list(answers.SUITE_CHECKS)

    def run_pass(self):
        report_path = os.path.join(self.out_dir, "verify-report.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(report_path)
        argv = ["verify", "--genus", *map(str, answers.SUITE_GENUS),
                "--checks", *self.ops, "--workers", str(self.workers),
                "--json", report_path]
        tasks = answers.suite_tasks(self.ops)
        self.reports = []
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = self.pkg.cli.main(argv)
            with open(report_path) as fh:
                reports = json.load(fh)["reports"]
        except Exception as exc:  # a crash fails every report of the pass
            return len(tasks), [("verify", "raised %r" % exc)] * len(tasks)
        got = {(r["check"], r["genus"]): r["verdict"] for r in reports}
        failures = []
        for cid, g in tasks:
            want = answers.expected_verdict(cid)
            if got.get((cid, g)) != want:
                failures.append(("%s@g=%d" % (cid, g), "verdict %r, expected %r"
                                 % (got.get((cid, g)), want)))
        extra = set(got) - set(tasks)
        if extra:
            failures.append(("verify", "unexpected reports %s" % sorted(extra)))
        if code != 0 and not failures:
            failures = [("verify", "exit code %r" % code)] * len(tasks)
        self.reports = [(r["check"], r["genus"], r["wall_time"]) for r in reports]
        return len(tasks), failures


class SuiteParallel(Suite):
    workers = 2


class Rank3Deep(Workload):
    """Build the three genus-6 classes once each, then check each against an
    independent construction and against its frozen digest."""

    def pinned_ops(self):
        return list(answers.RANK3_DIGESTS)

    def run_pass(self):
        cm = self.pkg
        g = answers.RANK3_GENUS
        actx = cm.series.GenusContext.adic(g)
        dctx = cm.series.GenusContext.dimensional(g)
        build = {
            "m3_chi": lambda: cm.moduli.m3_chi(actx),
            "m3_var": lambda: cm.moduli.m3_var(dctx),
            "inversion_formula": lambda: cm.moduli.inversion_formula(
                actx, cm.moduli.InversionSpec(3, 1)),
        }
        built, failures = {}, []
        for op in self.ops:
            try:
                built[op] = build[op]()
            except Exception as exc:
                failures.append((op, "raised %r" % exc))
        for op in self.ops:
            if op not in built:
                continue
            try:
                self.check(op, built)
            except Failure as exc:
                failures.append((op, str(exc)))
            except Exception as exc:
                failures.append((op, "check raised %r" % exc))
        return len(self.ops), failures

    def check(self, op, built):
        cm = self.pkg
        cls = built[op]
        if op == "inversion_formula":
            if "m3_chi" not in built:
                raise Failure("no m3_chi to compare against")
            other = cm.curves.jacobian_class(cls.ctx) * built["m3_chi"]
        else:
            other = cm.moduli.rank3_decomposition(cls.ctx)
        cmp = cls.equals(other)
        if not cmp.equal:
            raise Failure("differs from its identity at L^%s" % cmp.witness_exponent)
        got, want = digest(cls), answers.RANK3_DIGESTS[op]
        if got != want:
            raise Failure("digest %s, expected %s" % (got, want))


class PolySweep(Workload):
    """The unit-free checks through ``run_check`` and the Poincare and Hodge
    realizations of [C_k], k = 0..2g, for g = 2..14."""

    def pinned_ops(self):
        ops = [("check", cid, g) for g in answers.SWEEP_GENUS
               for cid in answers.SWEEP_CHECKS]
        ops += [("sym", k, g) for g in answers.SWEEP_GENUS
                for k in range(2 * g + 1)]
        return ops

    def __init__(self, pkg, rng, out_dir):
        super().__init__(pkg, rng, out_dir)
        self.want = {(k, g): (answers.macdonald_poincare(g, k),
                              answers.macdonald_hodge(g, k))
                     for kind, k, g in self.ops if kind == "sym"}

    def run_pass(self):
        failures = []
        self.reports = []
        for op in self.ops:
            try:
                self.run_op(*op)
            except Failure as exc:
                failures.append(("%s:%s@g=%d" % op, str(exc)))
            except Exception as exc:
                failures.append(("%s:%s@g=%d" % op, "raised %r" % exc))
        return len(self.ops), failures

    def run_op(self, kind, arg, g):
        cm = self.pkg
        if kind == "check":
            report = cm.checks.run_check(arg, g)
            self.reports.append((report.check, report.genus, report.wall_time))
            if report.verdict != "pass":
                raise Failure("verdict %r, expected 'pass'" % report.verdict)
            return
        cls = cm.curves.sym_power_class(cm.series.GenusContext.adic(g), arg)
        poincare = cm.realize.realize(cls, cm.realize.POINCARE)
        hodge = cm.realize.realize(cls, cm.realize.HODGE)
        want_p, want_h = self.want[(arg, g)]
        if poincare.terms != want_p:
            raise Failure("Poincare polynomial differs from Macdonald's formula")
        if hodge.terms != want_h:
            raise Failure("Hodge polynomial differs from Macdonald's formula")


WORKLOADS = {
    "suite-serial": Suite,
    "rank3-deep": Rank3Deep,
    "suite-parallel": SuiteParallel,
    "poly-sweep": PolySweep,
}
