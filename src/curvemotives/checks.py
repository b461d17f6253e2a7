"""Registry and runner for the machine checks.

Each check has a stable identifier, a one-line mathematical statement, a
completion mode, a genus-applicability predicate, and a steps function
``steps(adic, dim)`` over the two contexts of a task, which ``run_check``
builds once.  It yields entries: a ``(label, Comparison)`` pair, a finished
detail dict (at least "step" and "ok"; a failing one carries its own
"witness"), or a note (a str).  A ValueError or ArithmeticError while they
are collected discards them all for one failing "error" entry.  The one
fold, ``_fold``, derives every report field from the entries:

* verdict: "fail" if any step is not ok, else "flagged" if a note was
  recorded, else "pass".  Flagged means the implemented mathematics holds
  but the check recorded a discrepancy note (a reading of the source
  material that does not close); it never affects the process exit code.
* witness: the first failing step's witness.
* window: the overlap of every step entry's "window".
* details: the entries that are not notes, in order; notes: the notes.

A request (genera, check ids, window) is judged once, by ``plan``: the CLI,
``run_suite`` and ``run_check`` refuse what it refuses, with its messages,
and ``run_suite`` runs exactly the tasks it returns.
"""

from __future__ import annotations

import dataclasses
import os
import time

from . import curves, moduli
from .realize import (HODGE, POINCARE, count_cross_check, genus2_fixture_counts,
                      newstead_oracle, realize)
from .series import GenusContext

__all__ = [
    "CheckReport", "available_checks", "check_statement", "count_verdicts",
    "plan", "run_check", "run_suite", "resolve_workers",
    "reports_to_json", "WORKERS_ENV_VAR",
]

WORKERS_ENV_VAR = "CURVE_MOTIVES_WORKERS"


@dataclasses.dataclass
class CheckReport:
    check: str
    genus: int
    mode: str
    verdict: str
    statement: str
    window: list | None
    witness: dict | None
    notes: list
    details: list
    wall_time: float

    def to_json_obj(self):
        """The fields as a shallow dict: it shares the report's lists and dicts."""
        return dict(vars(self))


def _witness_obj(cmp):
    return {"exponent": cmp.witness_exponent, "delta": str(cmp.witness_delta)}


def _entry(label, ok, witness, **fields):
    """A finished step entry; a failing one carries ``witness()``."""
    entry = {"step": label, "ok": ok, **fields}
    if not ok:
        entry["witness"] = witness()
    return entry


def _fold(entries):
    """(verdict, witness, window, details, notes) of a check's entries, by
    the rules in the module docstring; the only place a verdict is made."""
    details, notes = [], []
    for entry in entries:
        if isinstance(entry, tuple):
            label, cmp = entry
            entry = _entry(label, bool(cmp), lambda: _witness_obj(cmp),
                           window=[cmp.lo, cmp.hi])
        (notes if isinstance(entry, str) else details).append(entry)
    failed = [d for d in details if not d["ok"]]
    verdict = "fail" if failed else "flagged" if notes else "pass"
    witness = failed[0]["witness"] if failed else None
    windows = [d["window"] for d in details if "window" in d]
    window = ([max(lo for lo, _ in windows), min(hi for _, hi in windows)]
              if windows else None)
    return verdict, witness, window, details, notes


# -- steps -----------------------------------------------------------------
# Each is steps(adic, dim) and yields the entries of the module docstring.
# Pipeline functions are looked up through their module at call time, so a
# patched or traced module attribute is what runs.


def _symmpro(adic, dim):
    return [("k=%d" % k, curves.check_symmetric_power_decomposition(adic, k))
            for k in range(adic.g, 3 * adic.g + 1)]


def _deczeta_chow(adic, dim):
    return [("i=%d" % i, curves.zeta_at_lefschetz(adic, i).equals(curves.dec_zeta_rhs(adic, i)))
            for i in (1, 2, 3)]


def _deczeta_var(adic, dim):
    return [("i=%d" % i, curves.zeta_at_lefschetz(dim, -i).shift((2 * i - 1) * (dim.g - 1))
             .equals(curves.dec_zeta_rhs(dim, i)))
            for i in (2, 3)]


def _motiviczeta_closed_form(adic, dim):
    for i in (1, 2, 3):
        closed = curves._zeta_numerator(adic, i)[0].div_unit(i).div_unit(i + 1)
        yield "i=%d" % i, curves.zeta_at_lefschetz(adic, i).equals(closed)


def _rank2(adic, dim):
    m2 = moduli.m2_chi(adic)  # raises if support leaks above 3g-3
    yield "decomposition", m2.equals(moduli.rank2_decomposition(adic))
    yield {"step": "support-in-[0,%d]" % (moduli.min_ceiling(2, adic.g) - 1), "ok": True}


def _rank3(adic, dim):
    m3 = moduli.m3_chi(adic)  # raises if support leaks above 8g-8
    # in adic mode m3 is exactly the stack minus the reduced correction
    agree = moduli._unstable_rank3_raw(adic).equals(moduli.bun_chi(adic, 3) - m3)
    if not agree:
        raise ArithmeticError("raw and reduced unstable rank-3 corrections disagree "
                              "at L^%d" % agree.witness_exponent)
    yield "decomposition", m3.equals(moduli.rank3_decomposition(adic))
    yield {"step": "support-in-[0,%d]" % (moduli.min_ceiling(3, adic.g) - 1), "ok": True}


def _x_identity(adic, dim):
    return [_entry(label, not delta, lambda: {"delta": str(delta)})
            for label, delta in moduli.x_identity_all(adic.g)]


def _j_squared(adic, dim):
    yield from moduli.j_squared_cancellation(adic)
    yield "j-linear-closed-form", moduli.j_linear_closed_form(adic)


def _inversion(adic, dim):
    for r, d in ((2, 1), (3, 1)):
        # the inversion sum raises on a non-integral exponent
        res = moduli.inversion_consistency(adic, r, d)
        yield {"step": "n=%d,d=%d:integral-exponents" % (r, d), "ok": True}
        # both readings are recorded; exactly one of them must hold
        for label, cmp in res:
            yield {"step": "n=%d,d=%d:%s" % (r, d, label), "ok": True,
                   "equal": bool(cmp), "window": [cmp.lo, cmp.hi]}
        matched = [label for label, cmp in res if cmp]
        if len(matched) == 1:
            yield ("determinant-reading: rank %d degree %d inversion sum "
                   "equals the %s class" % (r, d, matched[0]))
        else:
            bad = {"matched": matched}
            bad.update((label, _witness_obj(cmp)) for label, cmp in res if not cmp)
            yield {"step": "n=%d,d=%d:exactly-one-reading" % (r, d),
                   "ok": False, "witness": bad}


def _behrend_dhillon(adic, dim):
    for r in (2, 3):
        top = (r * r - 1) * (dim.g - 1)
        lead = moduli.behrend_dhillon_bun(dim, r).coefficient(top)
        yield _entry("r=%d:top-coefficient-at-%d" % (r, top), lead == 1,
                     lambda: {"exponent": top, "delta": str(lead)})
        mv = moduli.m2_var(dim) if r == 2 else moduli.m3_var(dim)
        ma = moduli.m2_chi(adic) if r == 2 else moduli.m3_chi(adic)
        yield "r=%d:cross-mode-moduli-class" % r, moduli._cross_mode(mv, ma)


def _var_rank2(adic, dim):
    # the cached dimensional class is the stack minus the unstable sum; the
    # l3-prefactor probe reads the stack with an extra L^3 and is recorded
    # and noted, never failed
    m2v = moduli.m2_var(dim)
    template = moduli.rank2_decomposition(dim)
    yield "decomposition", m2v.equals(template)
    yield "cross-mode", moduli._cross_mode(m2v, moduli.m2_chi(adic))
    probe = (moduli.behrend_dhillon_bun(dim, 2).shift(3)
             - moduli.unstable_rank2_var_sum(dim)).equals(template)
    entry = {"step": "l3-prefactor-probe", "ok": True, "equal": bool(probe)}
    if probe:
        outcome = "unexpectedly also closes"
    else:
        entry["mismatch"] = _witness_obj(probe)
        outcome = "fails at exponent %d" % probe.witness_exponent
    yield entry
    yield ("cubic-prefactor: the variant bundle-stack reading with an "
           "extra L^3 prefactor " + outcome)


def _var_rank3(adic, dim):
    m3v = moduli.m3_var(dim)
    yield "decomposition", m3v.equals(moduli.rank3_decomposition(dim))
    yield "cross-mode", moduli._cross_mode(m3v, moduli.m3_chi(adic))


def _unstable_hn_sum(adic, dim):
    total = moduli.unstable_rank2_var_sum(dim)
    yield "sum-equals-closed-form", total.equals(moduli.unstable_rank2_var_closed(dim))
    top = max(total.coeffs)
    yield _entry("top-exponent-%d" % (2 * dim.g - 3), top == 2 * dim.g - 3,
                 lambda: {"exponent": top, "delta": "unexpected top exponent"},
                 observed=top)


def _realize_poincare(adic, dim):
    got = realize(moduli.rank2_decomposition(adic), POINCARE)
    want = newstead_oracle(adic.g)
    yield _entry("rank2-poincare-vs-oracle", got == want, lambda: {"delta": str(got - want)})


def _realize_hodge(adic, dim):
    named = [("m2", moduli.m2_chi(adic)), ("m3", moduli.m3_chi(adic)),
             ("jac", curves.jacobian_class(adic))]
    named += [("c%d" % k, curves.sym_power_class(adic, k)) for k in range(0, 2 * adic.g + 1)]
    for name, cls in named:
        diag, poinc = realize(cls, HODGE).diagonal(), realize(cls, POINCARE)
        yield _entry("%s:hodge-diagonal-vs-poincare" % name, diag == poinc,
                     lambda: {"class": name, "delta": str(diag - poinc)})


def _count_cross_check(adic, dim):
    data = genus2_fixture_counts()
    yield {"step": "fixture-counts", "ok": True, "q": data.q, "counts": data.counts}
    for k, got, want in count_cross_check(adic, data, k_max=6):
        yield _entry("k=%d" % k, got == want,
                     lambda: {"k": k, "realized": got, "expected": want},
                     realized=got, expected=want)
    yield {"step": "jacobian-count", "ok": True,
           "realized": realize(curves.jacobian_class(adic), data)}


# -- registry --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CheckSpec:
    """``min_ceiling(g)`` is the smallest adic window ceiling at which the
    check is sound at genus g; below it the verdict is meaningless."""

    statement: str
    mode: str
    steps: object
    only_genus: int | None = None
    min_ceiling: object = lambda g: 0

    def applies(self, g):
        if self.only_genus is not None:
            return g == self.only_genus
        return g >= 2


CHECKS = {
    "zeta-rationality": CheckSpec(
        "The zeta series times (1-t)(1-Lt) is a polynomial of t-degree 2g "
        "whose t^k coefficient is the k-th exterior power class.",
        "adic", lambda adic, dim: curves.check_zeta_rationality(adic),
        min_ceiling=lambda g: 4 * g),
    "functional-equation": CheckSpec(
        "Numerator symmetry: the degree-a exterior power times L^g equals "
        "the degree-(2g-a) exterior power times L^a, for a = 0..2g.",
        "adic", lambda adic, dim: curves.check_functional_equation(adic)),
    "symmpro": CheckSpec(
        "For g <= k <= 3g the k-th symmetric power decomposes as "
        "[J](1 + L + .. + L^{k-g}) plus, when k <= 2g-2, [C_{2g-2-k}] L^{k-g+1}.",
        "adic", _symmpro),
    "deczeta-chow": CheckSpec(
        "Adic evaluation of the zeta function at t = L^i (i = 1,2,3) equals "
        "two finite symmetric-power blocks plus the Jacobian tail "
        "[J] L^{ig} / ((1-L^i)(1-L^{i+1})).",
        "adic", _deczeta_chow),
    "deczeta-var": CheckSpec(
        "Dimensional evaluation: L^{(2i-1)(g-1)} Z(C, L^{-i}) (i = 2,3) "
        "equals the finite blocks plus the tail "
        "[J] L^{(i-1)g} / ((L^{i-1}-1)(L^i-1)).",
        "dimensional", _deczeta_var),
    "motiviczeta-closed-form": CheckSpec(
        "Adic evaluation of the zeta function at t = L^i (i = 1,2,3) equals "
        "the closed form (1+L^i)^{h1} / ((1-L^i)(1-L^{i+1})).",
        "adic", _motiviczeta_closed_form),
    "rank2": CheckSpec(
        "The rank-2 fixed-determinant moduli class (bundle stack minus "
        "unstable stratum) is supported in [0, 3g-3] and equals "
        "sum_{k<=g-2} [C_k](L^k + L^{3g-3-2k}) + [C_{g-1}] L^{g-1}.",
        "adic", _rank2, min_ceiling=lambda g: moduli.min_ceiling(2, g)),
    "rank3": CheckSpec(
        "The rank-3 fixed-determinant moduli class is supported in [0, 8g-8] "
        "and equals the two-index symmetric-power template.",
        "adic", _rank3, min_ceiling=lambda g: moduli.min_ceiling(3, g)),
    "rank3-x-identity": CheckSpec(
        "The four-term exponent identity behind the collapse of the "
        "[J]-linear part holds in Z[x] for every 0 <= k <= g-2.",
        "integer", _x_identity),
    "j-squared-cancellation": CheckSpec(
        "The three series multiplying [J]^2 in the rank-3 subtraction cancel "
        "exactly, each matching its displayed closed form, and the "
        "[J]-linear part collapses to its closed form.",
        "adic", _j_squared, min_ceiling=lambda g: 4 * g - 4),
    "inversion-consistency": CheckSpec(
        "The composition-indexed inversion sum for (rank, degree) = (2,1) "
        "and (3,1) has integral exponents and equals exactly one of the "
        "fixed-determinant moduli class or the Jacobian times it.",
        "adic", _inversion, min_ceiling=lambda g: moduli.min_ceiling(3, g)),
    "behrend-dhillon": CheckSpec(
        "The dimensional bundle-stack class L^{(r^2-1)(g-1)} "
        "prod_{i=2..r} Z(C, L^{-i}) has top coefficient 1 at its dimension, "
        "and the moduli classes built from it agree with the adic ones "
        "coefficient by coefficient.",
        "dimensional", _behrend_dhillon, min_ceiling=lambda g: moduli.min_ceiling(3, g)),
    "var-rank2": CheckSpec(
        "Dimensional rank-2 pipeline: stack minus stratumwise unstable sum "
        "equals the decomposition template and matches the adic class; the "
        "variant stack reading with an extra L^3 prefactor does not close "
        "and is flagged.",
        "dimensional", _var_rank2, min_ceiling=lambda g: moduli.min_ceiling(2, g)),
    "var-rank3": CheckSpec(
        "Dimensional rank-3 pipeline: stack minus Harder-Narasimhan "
        "corrections equals the decomposition template and matches the adic "
        "class.",
        "dimensional", _var_rank3, min_ceiling=lambda g: moduli.min_ceiling(3, g)),
    "unstable-rank2-hn-sum": CheckSpec(
        "The stratumwise unstable rank-2 sum (degree-d stratum "
        "[J] L^{g-2d}/(L-1)) equals its closed form [J] L^g/((L-1)(L^2-1)); "
        "the top surviving exponent is 2g-3.",
        "dimensional", _unstable_hn_sum, min_ceiling=lambda g: 1),
    "realize-poincare-rank2": CheckSpec(
        "The Poincare realization of the rank-2 decomposition equals the "
        "independent closed form "
        "((1+t^3)^{2g} - t^{2g}(1+t)^{2g}) / ((1-t^2)(1-t^4)).",
        "adic", _realize_poincare, min_ceiling=lambda g: 3 * g - 3),
    "realize-hodge-consistency": CheckSpec(
        "The Hodge realization at u = v = t reproduces the Poincare "
        "realization on the rank-2 and rank-3 moduli classes, the Jacobian, "
        "and the symmetric powers up to 2g.",
        "adic", _realize_hodge, min_ceiling=lambda g: moduli.min_ceiling(3, g)),
    "count-cross-check": CheckSpec(
        "For the genus-2 curve y^2 = x^5 - x over F_3 (points counted by "
        "brute force at run time), the counting realization of each "
        "symmetric power up to k = 6 equals the divisor-count recurrence.",
        "adic", _count_cross_check, only_genus=2, min_ceiling=lambda g: 6),
}


def available_checks():
    return list(CHECKS)


def check_statement(check_id):
    return CHECKS[check_id].statement


def plan(genus_list, check_ids=None, window=None):
    """The sorted (check, genus) tasks of a request over its distinct genera
    and distinct check ids (all checks by default).  A genus below 2,
    unknown check ids, a window without 0, or a window ceiling below the
    largest ``min_ceiling`` of the tasks raises ValueError."""
    genus_list = sorted(set(genus_list))
    if any(g < 2 for g in genus_list):
        raise ValueError("genus must be >= 2")
    check_ids = available_checks() if check_ids is None else list(dict.fromkeys(check_ids))
    unknown = [c for c in check_ids if c not in CHECKS]
    if unknown:
        raise ValueError("unknown checks: %s (see list-checks)" % ", ".join(unknown))
    tasks = sorted((cid, g) for cid in check_ids for g in genus_list
                   if CHECKS[cid].applies(g))
    if window is not None:
        lo, hi = window
        if not lo <= 0 <= hi:
            raise ValueError("window must contain 0, got [%d, %d]" % (lo, hi))
        need, cid, g = max(((CHECKS[cid].min_ceiling(g), cid, g) for cid, g in tasks),
                           default=(0, None, None))
        if hi < need:
            raise ValueError("window ceiling %d is too low for %s at genus %d "
                             "(needs >= %d)" % (hi, cid, g, need))
    return tasks


def run_check(check_id, g, window=None) -> CheckReport:
    """Run one check at one genus and materialize its report.  A check that
    does not apply at g, or a request that ``plan`` refuses, raises
    ValueError; a ValueError or ArithmeticError inside the steps becomes a
    failing report."""
    if check_id in CHECKS and not CHECKS[check_id].applies(g):
        raise ValueError("check %s does not apply at genus %d" % (check_id, g))
    plan([g], [check_id], window)
    spec = CHECKS[check_id]
    start = time.perf_counter()
    try:
        if window is None:
            adic, dim = GenusContext.adic(g), GenusContext.dimensional(g)
        else:  # the dimensional window mirrors the adic depth downward
            adic = GenusContext.adic(g, hi=window[1], lo=window[0])
            dim = GenusContext.dimensional(g, lo=-window[1])
        entries = list(spec.steps(adic, dim))
    except (ValueError, ArithmeticError) as exc:
        entries = [{"step": "error", "ok": False, "message": str(exc),
                    "witness": {"error": str(exc)}}]
    verdict, witness, win, details, notes = _fold(entries)
    wall = time.perf_counter() - start
    return CheckReport(check_id, g, spec.mode, verdict, spec.statement,
                       win, witness, notes, details, wall)


def resolve_workers(workers=None):
    """The worker count: ``workers``, or $CURVE_MOTIVES_WORKERS when it is
    None, or 1 when that is unset.  Anything but an integer >= 1 raises
    ValueError."""
    source = "workers"
    if workers is None:
        source = "$" + WORKERS_ENV_VAR
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError("%s must be an integer, got %r" % (source, raw)) from None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError("%s must be an integer, got %r" % (source, workers))
    if workers < 1:
        raise ValueError("%s must be >= 1, got %d" % (source, workers))
    return workers


def _jobs(tasks, workers):
    """Each genus's tasks, in plan order, dealt round-robin into <= ceil(workers/genera) jobs."""
    by_genus = [[t for t in tasks if t[1] == g] for g in sorted({g for _, g in tasks})]
    n = -(-workers // max(len(by_genus), 1))
    return [mine[i::n] for mine in by_genus for i in range(min(n, len(mine)))]


def _run_job(tasks, window):
    """The reports of one job's tasks, run in order with the class cache open."""
    curves.open_cache()
    try:
        return [run_check(*task, window) for task in tasks]
    finally:
        curves.close_cache()


def run_suite(genus_list, check_ids=None, window=None, workers=1):
    """The reports of the tasks that ``plan`` makes of the request, in plan order, run as
    ``_jobs``: genus-ascending, or largest genus first by a pool of min(workers, jobs) > 1."""
    tasks, workers = plan(genus_list, check_ids, window), resolve_workers(workers)
    jobs = _jobs(tasks, workers)
    if min(workers, len(jobs)) > 1:
        # imported only here: the pool module is a third of the CLI's import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            done = list(pool.map(_run_job, jobs[::-1], [window] * len(jobs)))
    else:
        done = [_run_job(job, window) for job in jobs]
    return sorted((r for job in done for r in job), key=lambda r: (r.check, r.genus))


def count_verdicts(reports):
    """How many reports carry each verdict, as {verdict: count}."""
    verdicts = [r.verdict for r in reports]
    return {v: verdicts.count(v) for v in ("pass", "fail", "flagged")}


def reports_to_json(reports, genus_list, check_ids=None, window=None):
    return {
        "schema": 1,
        "config": {
            "genus": sorted(set(genus_list)),
            "checks": list(dict.fromkeys(available_checks() if check_ids is None
                                         else check_ids)),
            "window": list(window) if window is not None else None,
        },
        "summary": count_verdicts(reports),
        "reports": [r.to_json_obj() for r in reports],
    }
