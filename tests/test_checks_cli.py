"""The check registry, report plumbing, and the command-line front end."""

import hashlib
import importlib
import json

import pytest

from curvemotives import checks, curves, moduli
from curvemotives.polys import IntPoly2
from curvemotives.realize import POINCARE, realize
from curvemotives.series import GenusContext, MotiveSeries, lefschetz_power

from curvemotives.checks import (
    available_checks,
    check_statement,
    plan,
    reports_to_json,
    run_check,
    run_suite,
    WORKERS_ENV_VAR,
)
from curvemotives.cli import main

EXPECTED_IDS = [
    "zeta-rationality", "functional-equation", "symmpro", "deczeta-chow",
    "deczeta-var", "motiviczeta-closed-form", "rank2", "rank3",
    "rank3-x-identity", "j-squared-cancellation", "inversion-consistency",
    "behrend-dhillon", "var-rank2", "var-rank3", "unstable-rank2-hn-sum",
    "realize-poincare-rank2", "realize-hodge-consistency", "count-cross-check",
]


def test_catalog_is_stable():
    assert available_checks() == EXPECTED_IDS
    assert len(available_checks()) >= 18
    for cid in available_checks():
        assert check_statement(cid)


def test_run_check_pass_report():
    r = run_check("rank2", 2)
    assert r.verdict == "pass"
    assert r.check == "rank2" and r.genus == 2 and r.mode == "adic"
    assert r.window == [0, 30]
    assert r.witness is None
    assert any(d["step"] == "decomposition" and d["ok"] for d in r.details)
    assert r.wall_time >= 0


def test_run_check_guards():
    with pytest.raises(ValueError):
        run_check("no-such-check", 2)
    with pytest.raises(ValueError):
        run_check("count-cross-check", 3)  # fixture curve is genus 2


@pytest.mark.parametrize("cid", available_checks())
def test_checks_do_not_apply_below_genus_2(cid):
    with pytest.raises(ValueError, match="does not apply at genus 1"):
        run_check(cid, 1)


def test_rank3_self_check_reports_a_raw_reduced_mismatch(monkeypatch):
    # the raw and reduced unstable rank-3 corrections are compared in the
    # rank3 check only; the moduli class itself is built from the reduced one
    ctx = GenusContext.adic(2)
    m3 = moduli.m3_chi(ctx)
    raw = moduli._unstable_rank3_raw
    monkeypatch.setattr(moduli, "_unstable_rank3_raw", lambda c: raw(c) + 1)
    r = run_check("rank3", 2)
    assert r.verdict == "fail"
    assert r.witness == {
        "error": "raw and reduced unstable rank-3 corrections disagree at L^0"}
    assert moduli.m3_chi(ctx) == m3


def test_flagged_reports_carry_notes():
    r = run_check("inversion-consistency", 2)
    assert r.verdict == "flagged"
    assert any(note.startswith("determinant-reading") for note in r.notes)
    r2 = run_check("var-rank2", 2)
    assert r2.verdict == "flagged"
    assert any(note.startswith("cubic-prefactor") for note in r2.notes)
    # flagged is not fail: no witness required
    assert r2.witness is None


def test_fail_report_carries_witness(monkeypatch):
    # a wrong template (an extra L^0) makes the rank-2 check genuinely fail
    template = moduli.rank2_decomposition
    monkeypatch.setattr(moduli, "rank2_decomposition",
                        lambda ctx: template(ctx) + 1)
    r = run_check("rank2", 2)
    assert r.verdict == "fail"
    assert r.witness == {"exponent": 0, "delta": "-1"}


def test_unstable_sum_disagreement_fails_as_a_step(monkeypatch):
    # a disagreement with the closed form is a failing step with an
    # exponent witness, not an error raised inside the sum
    closed = moduli.unstable_rank2_var_closed
    monkeypatch.setattr(moduli, "unstable_rank2_var_closed", lambda ctx: closed(ctx) + 1)
    r = run_check("unstable-rank2-hn-sum", 2)
    assert r.verdict == "fail"
    assert r.witness == {"exponent": 0, "delta": "-1"}
    assert [d["step"] for d in r.details if not d["ok"]] == ["sum-equals-closed-form"]


def _plus(n):
    return lambda f: lambda *args: f(*args) + n


# one broken input per check at genus 2, and the report witness it gives:
# (owner, attribute, wrapper of the original, witness).  The witnesses were
# recorded before the hand-written runners were folded into steps.
FORCED_FAILURES = {
    "zeta-rationality": (curves, "lambda_class", _plus(1),
                         {"exponent": 0, "delta": "-1"}),
    "functional-equation": (curves, "lambda_class",
                            lambda f: lambda ctx, a: f(ctx, a) + (a == 0),
                            {"exponent": 2, "delta": "1"}),
    "symmpro": (curves, "jacobian_class", _plus(1), {"exponent": 0, "delta": "-1"}),
    "deczeta-chow": (curves, "dec_zeta_rhs", _plus(1), {"exponent": 0, "delta": "-1"}),
    "deczeta-var": (curves, "dec_zeta_rhs", _plus(1), {"exponent": 0, "delta": "-1"}),
    "motiviczeta-closed-form": (curves, "binomial_h1_series", _plus(1),
                                {"exponent": 0, "delta": "-1"}),
    "rank2": (moduli, "rank2_decomposition", _plus(1), {"exponent": 0, "delta": "-1"}),
    "rank3": (moduli, "rank3_decomposition", _plus(1), {"exponent": 0, "delta": "-1"}),
    "rank3-x-identity": (moduli, "x_identity_delta",
                         lambda f: lambda g, k: f(g, k) + k + 1, {"delta": "1"}),
    "j-squared-cancellation": (moduli, "dec_zeta_finite_part", _plus(1),
                               {"exponent": 2, "delta": "1"}),
    "inversion-consistency": (moduli, "inversion_sum", _plus(1), {
        "matched": [],
        "fixed-determinant": {"exponent": 0, "delta": "1 + 2*l1 + 2*l2"},
        "jacobian-times-fixed-determinant": {"exponent": 0, "delta": "1"}}),
    "behrend-dhillon": (moduli, "behrend_dhillon_bun",
                        lambda f: lambda ctx, r: f(ctx, r) * 2,
                        {"exponent": 3, "delta": "2"}),
    "var-rank2": (moduli, "m2_chi", _plus(1), {"exponent": 0, "delta": "-1"}),
    "var-rank3": (moduli, "m3_chi", _plus(1), {"exponent": 0, "delta": "-1"}),
    "unstable-rank2-hn-sum": (
        moduli, "unstable_rank2_var_sum",
        lambda f: lambda ctx: f(ctx) + lefschetz_power(ctx, 2 * ctx.g - 2),
        {"exponent": 2, "delta": "1"}),
    "realize-poincare-rank2": (moduli, "rank2_decomposition", _plus(1), {"delta": "1"}),
    "realize-hodge-consistency": (IntPoly2, "diagonal", _plus(1),
                                  {"class": "m2", "delta": "1"}),
    # `curvemotives.realize` the attribute is the function, not the module
    "count-cross-check": (importlib.import_module("curvemotives.realize"),
                          "sym_count_oracle",
                          lambda f: lambda data, m: f(data, m) + (m >= 5),
                          {"k": 5, "realized": 320, "expected": 321}),
}


@pytest.mark.parametrize("cid", available_checks())
def test_every_check_fails_on_a_broken_input(cid, monkeypatch):
    # a check added to the registry without a case here fails this test
    owner, name, wrap, witness = FORCED_FAILURES[cid]
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    r = run_check(cid, 2)
    assert r.verdict == "fail"
    assert r.witness == witness
    failing = [d for d in r.details if not d["ok"]]
    assert failing[0]["witness"] == witness
    assert all("witness" in d for d in failing)


def test_failing_entries_carry_their_own_witness(monkeypatch):
    # every Hodge diagonal is off by one, so every class fails on its own
    monkeypatch.setattr(IntPoly2, "diagonal", _plus(1)(IntPoly2.diagonal))
    r = run_check("realize-hodge-consistency", 2)
    failing = [d for d in r.details if not d["ok"]]
    assert len(failing) >= 2
    for d in failing:
        assert d["witness"] == {"class": d["step"].split(":")[0], "delta": "1"}
    # the same rule for the entries that are not comparisons
    monkeypatch.setattr(moduli, "behrend_dhillon_bun",
                        FORCED_FAILURES["behrend-dhillon"][2](moduli.behrend_dhillon_bun))
    r = run_check("behrend-dhillon", 2)
    assert [d["witness"] for d in r.details if "top-coefficient" in d["step"]] == [
        {"exponent": 3, "delta": "2"}, {"exponent": 8, "delta": "2"}]


@pytest.mark.parametrize("exc", [ValueError, ArithmeticError])
def test_error_inside_steps_is_a_failing_report(exc, monkeypatch):
    def broken(ctx):
        raise exc("forced")

    monkeypatch.setattr(moduli, "rank2_decomposition", broken)
    r = run_check("rank2", 2)
    assert r.verdict == "fail"
    assert r.witness == {"error": "forced"}
    assert r.window is None
    assert [(d["step"], d["ok"], d["message"]) for d in r.details] == [
        ("error", False, "forced")]


def test_an_error_discards_the_entries_made_before_it(monkeypatch):
    # behrend-dhillon has made its rank-2 entries when m3_var raises; none
    # of them reaches the report
    def broken(ctx):
        raise ValueError("forced")

    monkeypatch.setattr(moduli, "m3_var", broken)
    r = run_check("behrend-dhillon", 2)
    assert (r.verdict, r.witness, r.window, r.notes) == ("fail", {"error": "forced"}, None, [])
    assert [(d["step"], d["ok"], d["message"]) for d in r.details] == [
        ("error", False, "forced")]


@pytest.mark.parametrize("g", [2, 3])
def test_run_check_refuses_windows_below_the_ceiling(g):
    for cid in available_checks():
        if cid == "count-cross-check" and g != 2:
            continue
        need = WINDOW_CEILINGS.get(cid, lambda g: 0)(g)
        if need > 0:
            with pytest.raises(ValueError, match="window ceiling %d is too low "
                               "for %s at genus %d" % (need - 1, cid, g)):
                run_check(cid, g, window=(0, need - 1))


def test_run_suite_order_and_applicability():
    reports = run_suite([3, 2], check_ids=["rank2", "count-cross-check"])
    assert [(r.check, r.genus) for r in reports] == [
        ("count-cross-check", 2), ("rank2", 2), ("rank2", 3)]


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite([2], check_ids=["bogus"])


def test_parallel_matches_serial():
    serial = run_suite([2], check_ids=["rank2", "functional-equation"], workers=1)
    parallel = run_suite([2], check_ids=["rank2", "functional-equation"], workers=2)
    strip = lambda rs: [{k: v for k, v in r.to_json_obj().items()
                         if k != "wall_time"} for r in rs]
    assert strip(serial) == strip(parallel)
    # one job per genus, and slices of a genus when workers outnumber genera
    for genera, counts in (([2, 3, 4], (2, 4)), ([3], (2,))):
        want = strip(run_suite(genera, workers=1))
        for workers in counts:
            assert strip(run_suite(genera, workers=workers)) == want


@pytest.mark.parametrize("genera, workers", [([2, 3, 4], w) for w in (1, 2, 3, 4, 7)]
                         + [([5], 2), ([5], 3)])
def test_jobs_deal_each_genus_into_slices(genera, workers):
    tasks = plan(genera)
    jobs = checks._jobs(tasks, workers)
    assert sorted(t for job in jobs for t in job) == tasks  # each task in one job
    slices = -(-workers // len(genera))
    for g in genera:
        mine = [t for t in tasks if t[1] == g]
        theirs = [job for job in jobs if job[0][1] == g]
        assert all({h for _, h in job} == {g} for job in theirs)
        assert all(job == sorted(job, key=tasks.index) for job in theirs)  # plan order
        assert theirs == [mine[i::slices] for i in range(min(slices, len(mine)))]
        assert len(theirs) == min(slices, len(mine)) and all(theirs)
    assert [job[0][1] for job in jobs] == sorted(job[0][1] for job in jobs)
    if workers == 1:
        assert [job[0][1] for job in jobs] == genera


@pytest.mark.parametrize("genera, ids, size", [
    ([2], ["rank2", "symmpro"], 2),
    ([2, 3, 4], ["rank2", "symmpro"], 6),
    ([2], ["rank2"], None),
])
def test_run_suite_starts_no_more_workers_than_jobs(monkeypatch, genera, ids, size):
    import concurrent.futures
    sizes, submitted = [], []

    class InlinePool:
        """Stands in for ProcessPoolExecutor and starts no process: it records
        its size and the genera of its jobs, and runs each job here."""

        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, *rest):
            jobs = list(jobs)
            submitted.extend(job[0][1] for job in jobs)
            return map(fn, jobs, *rest)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    got = run_suite(genera, ids, workers=64)
    assert sizes == ([] if size is None else [size])
    assert submitted == sorted(submitted, reverse=True)  # largest genus first
    assert _masked(got) == _masked(run_suite(genera, ids))


def _masked(reports):
    return [{k: v for k, v in r.to_json_obj().items() if k != "wall_time"}
            for r in reports]


@pytest.mark.parametrize("window", [None, (0, 40)])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_suite_equals_run_check_task_by_task(workers, window):
    # the tasks run genus by genus, with a class cache; the reports come
    # back in plan order and equal those of the uncached tasks
    want = [run_check(cid, g, window) for cid, g in plan([2, 3], window=window)]
    got = run_suite([2, 3], window=window, workers=workers)
    assert _masked(got) == _masked(want)


def _is_cached(ctx):
    return curves.jacobian_class(ctx) is curves.jacobian_class(ctx)


def test_run_suite_closes_the_class_cache(monkeypatch):
    ctx = GenusContext.adic(2)
    assert not _is_cached(ctx)
    run_suite([2, 3], ["rank2", "symmpro"])
    assert not _is_cached(ctx)

    def broken(ctx):
        assert _is_cached(ctx)
        raise RuntimeError("boom")

    monkeypatch.setattr(moduli, "rank2_decomposition", broken)
    with pytest.raises(RuntimeError, match="boom"):
        run_suite([2], ["rank2"])
    assert not _is_cached(ctx)


def test_cached_builders_take_keyword_arguments():
    ctx = GenusContext.adic(3, hi=30)
    want = [curves.sym_power_class(ctx, 3).to_json(), moduli.bun_chi(ctx, 2).to_json()]
    curves.open_cache()
    try:
        for _ in range(2):
            assert [curves.sym_power_class(ctx, k=3).to_json(),
                    moduli.bun_chi(ctx, r=2).to_json()] == want
        assert curves.sym_power_class(ctx, k=3) is curves.sym_power_class(ctx, k=3)
    finally:
        curves.close_cache()


def test_a_patch_between_two_suites_takes_effect(monkeypatch):
    assert run_suite([2], ["rank2"])[0].verdict == "pass"
    unstable = moduli.unstable_rank2_chi
    monkeypatch.setattr(moduli, "unstable_rank2_chi", lambda ctx: unstable(ctx) + 1)
    assert run_suite([2], ["rank2"])[0].verdict == "fail"


def test_each_moduli_class_is_built_once_per_genus_in_a_suite(monkeypatch):
    built = []
    build = moduli._moduli_class

    def counting(ctx, r, *rest):
        built.append((ctx.g, r))
        return build(ctx, r, *rest)

    monkeypatch.setattr(moduli, "_moduli_class", counting)
    ids = ["rank3", "inversion-consistency", "behrend-dhillon", "var-rank3",
           "realize-hodge-consistency"]
    run_suite([2, 3], ids)
    assert sorted(built) == [(2, 2), (2, 3), (3, 2), (3, 3)]
    # run_check outside a suite builds every class it uses afresh
    built.clear()
    for cid in ids:
        run_check(cid, 2)
    assert sorted(built) == [(2, 2)] * 3 + [(2, 3)] * 5


def test_the_dimensional_rank2_class_is_built_once_per_genus_in_a_suite(monkeypatch):
    built = []
    build = moduli.m2_var.__wrapped__

    def counting(ctx):
        built.append(ctx.g)
        return build(ctx)

    monkeypatch.setattr(moduli, "m2_var", curves.cached(counting))
    run_suite([2, 3], ["var-rank2", "behrend-dhillon"])
    assert built == [2, 3]
    # both checks read it: each builds it afresh outside a suite
    built.clear()
    for cid in ("var-rank2", "behrend-dhillon"):
        run_check(cid, 2)
    assert built == [2, 2]


def test_cached_classes_survive_every_check_that_reads_them(monkeypatch):
    # the cache of each genus as the suite leaves it, after every check of
    # that genus has read its classes
    caches, order = {}, []

    def spying(cid, g, window=None):
        report = run_check(cid, g, window)
        order.append((g, cid))
        caches[g] = curves._cache["classes"]
        return report

    monkeypatch.setattr(checks, "run_check", spying)
    run_suite([2, 3])
    assert order == sorted(order)  # genus-major
    for g, classes in caches.items():
        # one genus at a time: a class by its context, an exact template
        # value by the genus itself
        assert len(classes) > 20 and {getattr(key, "g", key) for _, key, _, _ in classes} == {g}
        for (build, key, args, kwargs), cls in classes.items():
            fresh = build(key, *args, **dict(kwargs))
            if isinstance(cls, MotiveSeries):
                assert cls.validate() and cls.to_json() == fresh.to_json()
            else:
                assert cls == fresh


def test_reports_to_json_shape():
    reports = run_suite([2], check_ids=["rank2"])
    obj = reports_to_json(reports, [2], ["rank2"])
    assert obj["schema"] == 1
    assert obj["summary"] == {"pass": 1, "fail": 0, "flagged": 0}
    assert obj["config"]["genus"] == [2]
    assert obj["reports"][0]["check"] == "rank2"
    assert obj["reports"][0]["statement"]


def test_report_dicts_are_the_dataclass_fields():
    # a shallow dict of the fields: the same JSON as the recursive copy
    import dataclasses
    for r in run_suite([2], check_ids=["rank2", "count-cross-check"]):
        assert json.dumps(r.to_json_obj()) == json.dumps(dataclasses.asdict(r))
        assert r.to_json_obj()["details"] is r.details


def test_json_determinism():
    def snapshot():
        obj = reports_to_json(run_suite([2], check_ids=["rank2", "symmpro"]),
                              [2], ["rank2", "symmpro"])
        for r in obj["reports"]:
            r.pop("wall_time")
        return json.dumps(obj, sort_keys=True)

    assert snapshot() == snapshot()


# -- command line ----------------------------------------------------------


def test_cli_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for cid in EXPECTED_IDS:
        assert cid in out


def test_cli_verify_pass(capsys):
    code = main(["verify", "--genus", "2", "--checks", "rank2", "symmpro"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS    rank2 g=2" in out
    assert "2 passed, 0 flagged, 0 failed" in out


def test_cli_verify_flagged_still_exits_zero(capsys):
    code = main(["verify", "--genus", "2", "--checks", "var-rank2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FLAGGED" in out and "note: cubic-prefactor" in out


def test_cli_verify_json_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--genus", "2", "--checks", "rank2",
                 "--json", str(path)])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["schema"] == 1
    assert obj["summary"]["fail"] == 0


def test_cli_verify_unwritable_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as err:
        main(["verify", "--genus", "2", "--checks", "symmpro", "--json", str(path)])
    assert err.value.code == 2
    out, errtext = capsys.readouterr()
    assert out == ""  # no check ran, so no verdict line
    assert errtext.splitlines()[-1] == (
        "curve-motives: error: cannot write --json file %s: No such file or directory" % path)


def test_cli_verify_fail_prints_the_witness(monkeypatch, capsys):
    argv = ["verify", "--genus", "2", "--checks", "rank2"]
    template = moduli.rank2_decomposition
    monkeypatch.setattr(moduli, "rank2_decomposition", lambda ctx: template(ctx) + 1)
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL    rank2 g=2 window=[0,30] (")
    assert out[1:] == ['        witness: {"delta": "-1", "exponent": 0}',
                       "0 passed, 0 flagged, 1 failed"]

    def broken(ctx):
        raise ValueError("forced")

    monkeypatch.setattr(moduli, "rank2_decomposition", broken)
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL    rank2 g=2 (")
    assert out[1:] == ['        witness: {"error": "forced"}', "0 passed, 0 flagged, 1 failed"]


def test_cli_verify_usage_errors(capsys):
    for argv in (
        ["verify", "--genus", "1"],
        ["verify", "--checks", "bogus"],
        ["verify", "--genus", "2", "--checks", "rank3", "--window", "0", "5"],
        ["verify", "--genus", "2", "--checks", "zeta-rationality",
         "--window", "0", "7"],
        ["verify", "--genus", "3", "--checks", "count-cross-check"],
        ["verify", "--genus", "2", "--window", "1", "9"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


# the smallest window ceiling at which each check is sound; below it the
# check would report a false fail (or, for the checks that build the rank-2
# or rank-3 moduli class, claim a support bound it never saw), so verify
# must refuse the window
WINDOW_CEILINGS = {
    "zeta-rationality": lambda g: 4 * g,
    "rank2": lambda g: 3 * g - 2,
    "var-rank2": lambda g: 3 * g - 2,
    "rank3": lambda g: 8 * g - 7,
    "j-squared-cancellation": lambda g: 4 * g - 4,
    "inversion-consistency": lambda g: 8 * g - 7,
    "behrend-dhillon": lambda g: 8 * g - 7,
    "var-rank3": lambda g: 8 * g - 7,
    "unstable-rank2-hn-sum": lambda g: 1,
    "realize-poincare-rank2": lambda g: 3 * g - 3,
    "realize-hodge-consistency": lambda g: 8 * g - 7,
    "count-cross-check": lambda g: 6,
}


@pytest.mark.parametrize("g", [2, 3])
def test_cli_verify_window_ceilings(g, capsys):
    for cid in available_checks():
        if cid == "count-cross-check" and g != 2:
            continue
        need = WINDOW_CEILINGS.get(cid, lambda g: 0)(g)
        base = ["verify", "--genus", str(g), "--checks", cid, "--window", "0"]
        if need > 0:
            with pytest.raises(SystemExit) as err:
                main(base + [str(need - 1)])
            assert err.value.code == 2, cid
        assert main(base + [str(need)]) == 0, cid
        capsys.readouterr()


@pytest.mark.parametrize("g", [2, 3])
def test_checks_never_fail_on_narrow_windows(g):
    # every window from each check's ceiling to 8 above it, with the adic
    # floor at 0 and at -3; the dimensional checks mirror the ceiling into
    # a floor, so these are also the narrowest dimensional windows
    for cid in available_checks():
        if cid == "count-cross-check" and g != 2:
            continue
        need = WINDOW_CEILINGS.get(cid, lambda g: 0)(g)
        for lo in (0, -3):
            for hi in range(need, need + 9):
                r = run_check(cid, g, window=(lo, hi))
                assert r.verdict in ("pass", "flagged"), (cid, lo, hi, r.witness)


def test_run_suite_rejects_worker_counts_below_one():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1, got %d" % workers):
            run_suite([2], check_ids=["rank2"], workers=workers)


def test_run_suite_rejects_worker_counts_that_are_not_integers():
    # refused before any pool starts
    for workers in (2.5, "3", True):
        with pytest.raises(ValueError, match="^workers must be an integer, got %r$"
                           % (workers,)):
            run_suite([2], check_ids=["rank2"], workers=workers)


@pytest.mark.parametrize("cid", available_checks())
def test_run_check_refuses_a_window_without_0(cid):
    with pytest.raises(ValueError, match=r"^window must contain 0, got \[1, 40\]$"):
        run_check(cid, 2, (1, 40))


def test_run_suite_refuses_what_verify_refuses():
    with pytest.raises(ValueError, match="^genus must be >= 2$"):
        run_suite([1], ["rank2"])
    with pytest.raises(ValueError, match=r"^unknown checks: bogus, x \(see list-checks\)$"):
        run_suite([2], ["bogus", "x"])


def test_run_suite_runs_each_genus_once():
    assert [(r.check, r.genus) for r in run_suite([2, 2], ["rank2"])] == [("rank2", 2)]


def test_run_suite_runs_each_check_once():
    reports = run_suite([2], ["rank2", "symmpro", "rank2"])
    assert [(r.check, r.genus) for r in reports] == [("rank2", 2), ("symmpro", 2)]
    obj = reports_to_json(reports, [2], ["rank2", "symmpro", "rank2"])
    assert obj["config"]["checks"] == ["rank2", "symmpro"]


def test_cli_verify_runs_each_check_once(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "--genus", "2", "--checks", "rank2", "rank2",
                 "--json", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out[:-1]] == ["rank2"]
    assert out[-1] == "1 passed, 0 flagged, 0 failed"
    obj = json.loads(path.read_text())
    assert obj["summary"]["pass"] == 1 and obj["config"]["checks"] == ["rank2"]


def test_cli_verify_rejects_bad_worker_counts(monkeypatch, capsys):
    base = ["verify", "--genus", "2", "--checks", "rank2"]
    for extra, env in ((["--workers", "0"], None), (["--workers", "-3"], None),
                       ([], "x"), ([], "0")):
        if env is None:
            monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(WORKERS_ENV_VAR, env)
        with pytest.raises(SystemExit) as err:
            main(base + extra)
        assert err.value.code == 2, (extra, env)
        assert "must be" in capsys.readouterr().err
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    assert main(base) == 0
    capsys.readouterr()


# the exact stderr line of each verify usage error
USAGE_ERRORS = [
    (["--genus", "1"], "genus must be >= 2"),
    (["--checks", "bogus", "x"], "unknown checks: bogus, x (see list-checks)"),
    (["--genus", "2", "--checks", "rank3", "--window", "0", "5"],
     "window ceiling 5 is too low for rank3 at genus 2 (needs >= 9)"),
    (["--genus", "2", "--checks", "zeta-rationality", "--window", "0", "7"],
     "window ceiling 7 is too low for zeta-rationality at genus 2 (needs >= 8)"),
    (["--window", "1", "9"], "window must contain 0, got [1, 9]"),
    (["--genus", "2", "3", "--window", "0", "9"],
     "window ceiling 9 is too low for var-rank3 at genus 3 (needs >= 17)"),
    (["--workers", "0"], "workers must be >= 1, got 0"),
    (["--genus", "1", "--workers", "0"], "genus must be >= 2"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_cli_verify_usage_error_texts(argv, message, monkeypatch, capsys):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    with pytest.raises(SystemExit) as err:
        main(["verify"] + argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "curve-motives: error: " + message


def test_cli_realize_poincare(capsys):
    assert main(["realize", "--target", "poincare", "--class", "m2",
                 "--genus", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["realization"]["coefficients"] == [
        [0, 1], [2, 1], [3, 4], [4, 1], [6, 1]]
    assert obj["realization"]["variable"] == "t"


def test_cli_realize_count(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text('{"q": 3, "counts": [4, 6]}')
    assert main(["realize", "--target", "count", "--class", "ck:2",
                 "--genus", "2", "--counts", str(counts)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["realization"] == {"value": 11}


def test_cli_realize_hodge_jac(capsys):
    assert main(["realize", "--target", "hodge", "--class", "jac",
                 "--genus", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    coeffs = {(i, j): c for i, j, c in obj["realization"]["coefficients"]}
    assert coeffs[(0, 0)] == 1 and coeffs[(1, 0)] == 2 and coeffs[(2, 2)] == 1


def test_cli_realize_poincare_m3(capsys):
    assert main(["realize", "--target", "poincare", "--class", "m3",
                 "--genus", "2"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["realization"]["coefficients"]
    want = realize(moduli.m3_chi(GenusContext.adic(2)), POINCARE)
    assert coeffs == [[e, c] for e, c in sorted(want.terms.items())]
    # a palindrome of degree 16 = dim M(3, L) at genus 2
    assert coeffs[-1][0] == 16 and dict(coeffs) == {16 - e: c for e, c in coeffs}


def test_cli_realize_symmetric_power_out_of_window(capsys):
    with pytest.raises(SystemExit) as err:
        main(["realize", "--target", "poincare", "--class", "ck:31", "--genus", "2"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "curve-motives: error: symmetric-power index must lie in [0, 30]")


def test_cli_realize_usage_errors(capsys):
    for argv in (
        ["realize", "--target", "count", "--class", "m2", "--genus", "2"],
        ["realize", "--target", "poincare", "--class", "ck:x", "--genus", "2"],
        ["realize", "--target", "poincare", "--class", "mystery", "--genus", "2"],
        ["realize", "--target", "poincare", "--class", "m2", "--genus", "1"],
        ["realize", "--target", "poincare", "--class", "jac", "--genus", "2",
         "--counts", "counts.json"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_cli_realize_count_genus_mismatch(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text('{"q": 3, "counts": [4, 6]}')
    with pytest.raises(SystemExit) as err:
        main(["realize", "--target", "count", "--class", "jac",
              "--genus", "3", "--counts", str(counts)])
    assert err.value.code == 2
    capsys.readouterr()


# each bad --counts file and the reason its usage error gives
BAD_COUNTS = [
    (None, "No such file or directory"),
    ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"counts": [4, 10]}', "missing key 'q'"),
    ('{"q": 1, "counts": [4, 6]}', "q must be a prime power >= 2, got 1"),
    ('{"q": 6, "counts": [7, 37]}', "q must be a prime power >= 2, got 6"),
    ('{"q": 3, "counts": [4, -6]}', "point counts must be nonnegative integers"),
    ('{"q": 3, "counts": [4, 11]}', "counts [4, 11] over q=3 are not the counts of a curve "
                                    "(non-integral class at weight 2)"),
]


@pytest.mark.parametrize("text,reason", BAD_COUNTS)
def test_cli_realize_bad_counts_file_is_a_usage_error(text, reason, tmp_path, capsys):
    path = tmp_path / "counts.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["realize", "--target", "count", "--class", "jac", "--genus", "2",
              "--counts", str(path)])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "curve-motives: error: bad --counts file %s: %s" % (path, reason))


# sha256 of the `verify --genus ... --json` report with every wall_time set
# to 0; an optimisation must leave the report byte-identical.  At genus 4 and
# 5 most of the work is products with integer-coefficient factors.  The
# first two digests also null behrend-dhillon's window: they were recorded
# while that check reported none, and they show nothing else moved.
REPORT_DIGEST_GENUS_2_3 = (
    "c8401697c418a69186e1daec1eefd129534f707cb9f367bf6886b8baeae74089")
REPORT_DIGEST_GENUS_4_5 = (
    "1d867510bff44bc8c5ca7fc7fe709e359d2af903a1acf3f55c38ab24145303be")
REPORT_DIGEST_GENUS_2_3_WINDOWED = (
    "daa7ce924fd7e5abf75f263030f1b707bcf09b40a42f549ec849ef30cfc66ce4")
REPORT_DIGEST_GENUS_4_5_WINDOWED = (
    "0825d87c9311f8dd04594fbee46207b45f3041156428a766e861ac69a8ac0a24")


def _report_digests(tmp_path, capsys, genus):
    """(digest, digest with behrend-dhillon's window nulled, behrend-dhillon's
    window by genus) of the report, every wall_time zeroed."""
    path = tmp_path / "report.json"
    assert main(["verify", "--genus", *genus, "--json", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    obj = json.loads(text)
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == text

    def digest():
        masked = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        return hashlib.sha256(masked.encode()).hexdigest()

    for r in obj["reports"]:
        r["wall_time"] = 0
    full = digest()
    bd = [r for r in obj["reports"] if r["check"] == "behrend-dhillon"]
    windows = {r["genus"]: r["window"] for r in bd}
    for r in bd:
        r["window"] = None
    return full, digest(), windows


def test_verify_json_report_is_frozen(tmp_path, capsys):
    full, masked, windows = _report_digests(tmp_path, capsys, ["2", "3"])
    assert masked == REPORT_DIGEST_GENUS_2_3
    assert full == REPORT_DIGEST_GENUS_2_3_WINDOWED
    # the cross-mode steps compare [0, 10g+1]
    assert windows == {2: [0, 11], 3: [0, 21]}


def test_verify_json_report_is_frozen_at_genus_4_5(tmp_path, capsys):
    full, masked, windows = _report_digests(tmp_path, capsys, ["4", "5"])
    assert masked == REPORT_DIGEST_GENUS_4_5
    assert full == REPORT_DIGEST_GENUS_4_5_WINDOWED
    assert windows == {4: [0, 31], 5: [0, 41]}


# the same digest (every wall_time zeroed) of `verify --genus 2 3` on two
# other windows: a floor below 0 moves slot 0 of every adic series below L^0,
# and a higher ceiling adds slots at the free end
REPORT_DIGEST_WINDOW = {
    ("-3", "30"): "e8240295b817ea37f75aa0932f19022fb1204c9bd3c1375c001a4e99c861a0ae",
    ("0", "40"): "ff200217fa9e790675f0e7c1a1c4689b619babe170ebc8d9ef5111d5d093b51e",
}


@pytest.mark.parametrize("window", sorted(REPORT_DIGEST_WINDOW))
def test_verify_json_report_is_frozen_on_other_windows(window, tmp_path, capsys):
    full, _, _ = _report_digests(tmp_path, capsys, ["2", "3", "--window", *window])
    assert full == REPORT_DIGEST_WINDOW[window]
