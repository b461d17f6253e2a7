"""Known answers the benchmark checks every operation against.

Nothing here calls into ``curvemotives``: the expected values are either
copied from the README check catalogue, frozen at the seed commit, or
computed in plain integers from Macdonald's formulas.
"""

from math import comb

# Every check the seed registers, listed explicitly so that a check added
# later does not silently change the suite workloads.
SUITE_CHECKS = (
    "zeta-rationality",
    "functional-equation",
    "symmpro",
    "deczeta-chow",
    "deczeta-var",
    "motiviczeta-closed-form",
    "rank2",
    "rank3",
    "rank3-x-identity",
    "j-squared-cancellation",
    "inversion-consistency",
    "behrend-dhillon",
    "var-rank2",
    "var-rank3",
    "unstable-rank2-hn-sum",
    "realize-poincare-rank2",
    "realize-hodge-consistency",
    "count-cross-check",
)
SUITE_GENUS = (2, 3, 4)
ONLY_GENUS = {"count-cross-check": 2}
FLAGGED = frozenset({"inversion-consistency", "var-rank2"})

# The checks that multiply no geometric unit inverse.
SWEEP_CHECKS = (
    "zeta-rationality",
    "functional-equation",
    "symmpro",
    "rank3-x-identity",
    "realize-poincare-rank2",
)
SWEEP_GENUS = tuple(range(2, 15))

RANK3_GENUS = 6

# sha256 of MotiveSeries.to_json() at g = 6, recorded at the seed commit.
RANK3_DIGESTS = {
    "m3_chi": "0e695d3a3ce09f617ecfe0a59f04b986e23ef83b6d4cacfc226be41942dd4cae",
    "m3_var": "714104d0208d46e8d26e5d44592fda6a92e0f43b0a8d2f5e02b3f96dafcf8115",
    "inversion_formula":
        "26bb52c378d39a4aba81a214c3472b8be098260a53afb0919b47489d861d292a",
}


def expected_verdict(check_id):
    return "flagged" if check_id in FLAGGED else "pass"


def suite_tasks(check_ids, genus_list=SUITE_GENUS):
    """The (check, genus) pairs a suite over these checks must report."""
    return [(cid, g) for cid in check_ids for g in genus_list
            if ONLY_GENUS.get(cid, g) == g]


def _series_coeff(numer, denom_steps, k):
    """t^k coefficient of numer(t) / prod_s (1 - a_s t), in plain integers.

    ``numer`` maps a t-degree to a coefficient dict; each a_s in
    ``denom_steps`` is a monomial key.  Coefficient dicts map monomial keys
    (tuples of exponents) to integers.
    """
    def shift(poly, mono):
        return {tuple(x + y for x, y in zip(m, mono)): c for m, c in poly.items()}

    # rows[j] = t^j coefficient of the product of the geometric series so far
    rows = [{(0,) * len(denom_steps[0]): 1} if j == 0 else {} for j in range(k + 1)]
    for step in denom_steps:
        acc = []
        for j in range(k + 1):
            row = dict(rows[j])
            if j:
                for m, c in shift(acc[j - 1], step).items():
                    row[m] = row.get(m, 0) + c
            acc.append(row)
        rows = acc
    out = {}
    for j, poly in numer.items():
        if j > k:
            continue
        for m1, c1 in poly.items():
            for m2, c2 in rows[k - j].items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def macdonald_poincare(g, k):
    """Poincare polynomial of the k-th symmetric power of a genus-g curve as
    {degree: coefficient}: the t^k coefficient of
    (1 + x t)^{2g} / ((1 - t)(1 - x^2 t))  (Macdonald 1962)."""
    numer = {a: {(a,): comb(2 * g, a)} for a in range(2 * g + 1)}
    coeffs = _series_coeff(numer, [(0,), (2,)], k)
    return {m[0]: c for m, c in coeffs.items()}


def macdonald_hodge(g, k):
    """Hodge polynomial of the k-th symmetric power as {(i, j): coefficient}:
    the t^k coefficient of (1 + u t)^g (1 + v t)^g / ((1 - t)(1 - u v t))."""
    numer = {}
    for i in range(g + 1):
        for j in range(g + 1):
            numer.setdefault(i + j, {})[(i, j)] = comb(g, i) * comb(g, j)
    return _series_coeff(numer, [(0, 0), (1, 1)], k)
