"""Acceptance suite: every shipped guarantee at its stated scale and
tolerance, one printed pass/fail line per criterion (run with ``pytest -s``
to see the lines for green criteria too).

Two published reference lists are incomplete: criterion 2's 36-row table
for (2,1,2,1,2) has no row whose first block is (4b), and criterion 3's
three-word list for (3,3,2) lacks the projections of those rows.  Their
fixtures are therefore the published words plus the certified words the
lists omit (nine for 2b, three for 3c), each kept as a literal list.  Every
added word carries an exact certificate (test_certified_table_extras,
test_certified_three_three_two_extras and
test_slnr.test_certified_extra_measurable_members), and
test_slnr.test_coset_cross_check recovers both enumerations from the
complete-flag enumeration without the partial-flag predicates.  The
2b/3c tests also assert that every published word is enumerated.
"""

import subprocess
import sys
import time
from math import factorial

from flagslice import checks, slmh, slnr, supq
from flagslice.geometry import (FlagMatrix, bilinear_b, is_isotropic_flag,
                                is_tau_generic, schubert_cell_membership,
                                standard_reference)
from flagslice.permutations import (blocks, double_factorial_descending,
                                    flag_manifold_dimension, inversion_length,
                                    parse_word, prefix_sums)

# ---------------------------------------------------------------- fixtures

TABLE1_WORDS = {parse_word(s) for s in (
    "1 3 5 7 8 6 4 2", "1 3 7 5 6 8 4 2", "1 5 3 7 8 4 6 2",
    "1 5 7 3 4 8 6 2", "1 7 3 5 6 4 8 2", "1 7 5 3 4 6 8 2",
    "3 1 5 7 8 6 2 4", "3 1 7 5 6 8 2 4", "3 5 1 7 8 2 6 4",
    "3 5 7 1 2 8 6 4", "3 7 1 5 6 2 8 4", "3 7 5 1 2 6 8 4",
    "5 1 3 7 8 4 2 6", "5 1 7 3 4 8 2 6", "5 3 1 7 8 2 4 6",
    "5 3 7 1 2 8 4 6", "5 7 1 3 4 2 8 6", "5 7 3 1 2 4 8 6",
    "7 1 3 5 6 4 2 8", "7 1 5 3 4 6 2 8", "7 3 1 5 6 2 4 8",
    "7 3 5 1 2 6 4 8", "7 5 1 3 4 2 6 8", "7 5 3 1 2 4 6 8",
)}

# 36 published rows for the sequence (2,1,2,1,2); one row's middle block is
# printed out of order in the source and is normalized here to the minimal
# representative ((35)(8)(16)(7)(24)).
TABLE2_WORDS = {parse_word(s) for s in (
    "(24)(6)(78)(5)(13)", "(24)(7)(58)(6)(13)", "(24)(8)(56)(7)(13)",
    "(25)(6)(78)(3)(14)", "(25)(7)(38)(6)(14)", "(25)(8)(36)(7)(14)",
    "(26)(4)(78)(3)(15)", "(26)(7)(38)(4)(15)", "(26)(8)(34)(7)(15)",
    "(27)(4)(58)(3)(16)", "(27)(5)(38)(4)(16)", "(27)(8)(34)(5)(16)",
    "(28)(4)(56)(3)(17)", "(28)(5)(36)(4)(17)", "(28)(6)(34)(5)(17)",
    "(35)(6)(78)(1)(24)", "(35)(7)(18)(6)(24)", "(35)(8)(16)(7)(24)",
    "(36)(4)(78)(1)(25)", "(36)(7)(18)(4)(25)", "(36)(8)(14)(7)(25)",
    "(37)(4)(58)(1)(26)", "(37)(5)(18)(4)(26)", "(37)(8)(14)(5)(26)",
    "(38)(4)(56)(1)(27)", "(38)(5)(16)(4)(27)", "(38)(6)(14)(5)(27)",
    "(57)(2)(38)(1)(46)", "(57)(3)(18)(2)(46)", "(57)(8)(12)(3)(46)",
    "(58)(2)(36)(1)(47)", "(58)(3)(16)(2)(47)", "(58)(6)(12)(3)(47)",
    "(68)(2)(34)(1)(57)", "(68)(3)(14)(2)(57)", "(68)(4)(12)(3)(57)",
)}

# The published table is 15 first/last block pairs with 3 middles each, the
# 15 pairs being the ways to pick two disjoint adjacent pairs from 1..8; it
# prints every pair except those with first block (4b).  These nine rows
# complete it.  Each is certified by test_certified_table_extras and
# test_slnr.test_certified_extra_measurable_members, and is a
# complementary-length coset representative of a word of enumerate_gb(8)
# (test_slnr.test_coset_cross_check).
TABLE2_CERTIFIED_WORDS = {parse_word(s) for s in (
    "(46)(2)(78)(1)(35)", "(46)(7)(18)(2)(35)", "(46)(8)(12)(7)(35)",
    "(47)(2)(58)(1)(36)", "(47)(5)(18)(2)(36)", "(47)(8)(12)(5)(36)",
    "(48)(2)(56)(1)(37)", "(48)(5)(16)(2)(37)", "(48)(6)(12)(5)(37)",
)}

SU32_WORDS = {parse_word(s) for s in (
    "51423", "51342", "35142", "42513", "42351", "34251", "45123", "34512")}

SU42_WORDS = {parse_word(s) for s in (
    "615234", "613524", "361524", "613452", "361452", "346152",
    "526134", "523614", "352614", "523461", "352461", "345261",
    "561234", "356124", "345612")}

THREE_THREE_TWO_WORDS = {parse_word(s) for s in (
    "(257)(138)(46)", "(258)(136)(47)", "(268)(134)(57)")}

# The projections of the three (4b) rows of TABLE2_CERTIFIED_WORDS that pass
# the strictly-decreasing-blocks condition, omitted from the published list.
# Certified by test_certified_three_three_two_extras and
# test_slnr.test_coset_cross_check.
THREE_THREE_TWO_CERTIFIED_WORDS = {parse_word(s) for s in (
    "(246)(178)(35)", "(247)(158)(36)", "(248)(156)(37)")}


def report(number: str, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status} - {title}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_counting_formulas():
    start = time.monotonic()
    ok = True
    details = []
    for n in range(2, 11):
        if len(slnr.enumerate_gb(n)) != double_factorial_descending(n):
            ok = False
            details.append(f"split n={n}")
    for m in range(1, 7):
        if len(slmh.enumerate_gb_h(m)) != factorial(m):
            ok = False
            details.append(f"quaternionic m={m}")
    for q in range(1, 6):
        for p in range(q, 11 - q):
            if len(supq.enumerate_i_pq(p, q)) != supq.count_i_pq(p, q):
                ok = False
                details.append(f"unitary ({p},{q})")
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        ok = False
        details.append(f"too slow: {elapsed:.1f}s")
    report("1", "counting formulas exact at stated ranges", ok,
           "; ".join(details) or f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2a_table1_regression():
    got = set(slmh.enumerate_gb_h(4))
    report("2a", "24-word quaternionic table, exact set equality",
           got == TABLE1_WORDS)


def test_criterion_2b_table2_regression():
    got = set(slnr.enumerate_measurable((2, 1, 2, 1, 2)))
    expected = TABLE2_WORDS | TABLE2_CERTIFIED_WORDS
    detail = (f"enumeration has {len(got)} words vs 36 published + 9 "
              f"certified (4b) rows; {len(got - expected)} extra, "
              f"{len(TABLE2_WORDS - got)} published missing, "
              f"{len(TABLE2_CERTIFIED_WORDS - got)} certified missing")
    report("2b", "36-word published table plus the 9 certified (4b) rows "
           "for (2,1,2,1,2), exact set equality",
           TABLE2_WORDS <= got and got == expected, detail)


def test_criterion_2c_su32_list():
    report("2c", "8-word list for signature (3,2)",
           set(supq.enumerate_i_pq(3, 2)) == SU32_WORDS)


def test_criterion_2d_su42_list():
    got = set(supq.enumerate_i_pq(4, 2))
    ok = (got == SU42_WORDS
          and parse_word("561234") in got
          and parse_word("456123") not in got)
    report("2d", "15-word list for signature (4,2), nested pair accepted, "
           "unsorted singles rejected", ok)


def test_certified_table_extras():
    """Exact-arithmetic certificates for the nine (4b) rows the published
    36-row table omits: intersection point inside the Schubert cell,
    isotropic, generic, at complementary dimension.  This is why criterion
    2b's fixture holds TABLE2_CERTIFIED_WORDS beside the published rows."""
    dims = (2, 1, 2, 1, 2)
    got = set(slnr.enumerate_measurable(dims))
    assert len(TABLE2_CERTIFIED_WORDS) == 9
    assert not TABLE2_CERTIFIED_WORDS & TABLE2_WORDS
    reference = standard_reference(8)
    deltas = prefix_sums(dims)
    codim = flag_manifold_dimension(dims) - 11  # cycle dimension is 11
    for word in TABLE2_CERTIFIED_WORDS:
        assert word in got
        assert inversion_length(word) == codim
        lifted = slnr.canonical_rearrangement(word, dims)
        point = slnr.intersection_points_gb(lifted)[0]
        partial = FlagMatrix.from_columns(point.columns, deltas)
        assert is_isotropic_flag(partial, bilinear_b())
        assert is_tau_generic(partial)
        assert schubert_cell_membership(partial, word, reference)


# ---------------------------------------------------------------- criterion 3


def test_criterion_3a_measurable_model():
    model = slnr.measurable_model((2, 4, 3))
    ok = (model.dhat == (2, 1, 3, 1, 2) and model.t == (1, 2, 2)
          and model.delta == (1, 3, 5)
          and slnr.model_dimension_drop(model) == 1 * 3 + 1 * 2)
    report("3a", "measurable model of (2,4,3) with dimension drop 5", ok)


def test_criterion_3b_projective_spaces():
    ok = all(slnr.enumerate_nonmeasurable((1, n)) ==
             [(2, 1) + tuple(range(3, n + 2))] for n in range(2, 9))
    report("3b", "projective spaces: single variety (2)(1 3 ... n+1)", ok)


def test_criterion_3c_three_three_two():
    got = set(slnr.enumerate_nonmeasurable((3, 3, 2)))
    expected = THREE_THREE_TWO_WORDS | THREE_THREE_TWO_CERTIFIED_WORDS
    detail = (f"enumeration has {len(got)} words vs 3 published + 3 "
              f"certified; {len(got - expected)} extra, "
              f"{len(THREE_THREE_TWO_WORDS - got)} published missing, "
              f"{len(THREE_THREE_TWO_CERTIFIED_WORDS - got)} certified missing")
    report("3c", "(3,3,2): the three published varieties plus the three "
           "certified (4b) projections, exact set equality",
           THREE_THREE_TWO_WORDS <= got and got == expected, detail)


def test_certified_three_three_two_extras():
    """Exact-arithmetic certificates for the three (3,3,2) words the
    published list omits.  Each coarse word is lifted to its model word (in
    every group of the model the largest entries take the first block, so the
    blocks strictly decrease), then to a complete-flag word; that word's
    first intersection point, restricted to the (3,3,2) flag, is isotropic,
    generic and inside the coarse word's Schubert cell, at complementary
    dimension."""
    f = (3, 3, 2)
    model = slnr.measurable_model(f)
    got = set(slnr.enumerate_nonmeasurable(f))
    assert not THREE_THREE_TWO_CERTIFIED_WORDS & THREE_THREE_TWO_WORDS
    reference = standard_reference(8)
    codim = flag_manifold_dimension(f) - 11  # cycle dimension is 11
    for word in THREE_THREE_TWO_CERTIFIED_WORDS:
        assert word in got
        assert inversion_length(word) == codim
        model_word = []
        coarse_blocks = blocks(word, f)
        for (start, stop), block in zip(model.groups, coarse_blocks):
            rest = sorted(block)
            for size in model.dhat[start:stop]:
                model_word.extend(rest[len(rest) - size:])
                del rest[len(rest) - size:]
        assert slnr.strictly_decreasing_blocks_check(model_word, model)
        assert slnr.project_to_coarse(model_word, model) == word
        lifted = slnr.canonical_rearrangement(model_word, model.dhat)
        point = slnr.intersection_points_gb(lifted)[0]
        partial = FlagMatrix.from_columns(point.columns, prefix_sums(f))
        assert is_isotropic_flag(partial, bilinear_b())
        assert is_tau_generic(partial)
        assert schubert_cell_membership(partial, word, reference)


def test_criterion_3d_grassmannian():
    desc = supq.OrbitDescriptor(7, 4, (3, 1), (2, 5))
    got = [w for w, _ in supq.enumerate_for_orbit_gp(desc)]
    expected = [
        (1, 2, 8, 10, 11, 3, 4, 5, 6, 7, 9),
        (1, 3, 8, 9, 11, 2, 4, 5, 6, 7, 10),
        (2, 3, 8, 9, 10, 1, 4, 5, 6, 7, 11),
    ]
    report("3d", "Grassmannian Gr(5,11) orbit: exactly the three published "
           "varieties", got == expected)


def test_criterion_3e_perm_w():
    got = set(supq.perm_w((6, 1, 5, 2, 3, 4), 4, 2))
    expected = {parse_word(s) for s in ("413256", "143256", "412356", "142356")}
    report("3e", "transposition variants of 615234", got == expected)


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_length_laws():
    ok = True
    details = []
    for n in range(2, 11):
        want = slnr.expected_length_gb(n)
        if any(inversion_length(w) != want for w in slnr.enumerate_gb(n)):
            ok, details = False, details + [f"split n={n}"]
    for m in range(1, 7):
        want = slmh.expected_length_gb_h(m)
        if any(inversion_length(w) != want for w in slmh.enumerate_gb_h(m)):
            ok, details = False, details + [f"quaternionic m={m}"]
    for q in range(1, 6):
        for p in range(q, 11 - q):
            if any(inversion_length(w) != p * q
                   for w in supq.enumerate_i_pq(p, q)):
                ok, details = False, details + [f"unitary ({p},{q})"]
    # partial-flag scales of criteria 2-3
    dims = (2, 1, 2, 1, 2)
    want = flag_manifold_dimension(dims) - 11
    if any(inversion_length(w) != want for w in slnr.enumerate_measurable(dims)):
        ok, details = False, details + ["measurable (2,1,2,1,2)"]
    desc = supq.OrbitDescriptor(7, 4, (3, 1), (2, 5))
    want = supq.schubert_dimension_su(desc.a, desc.b)
    if any(inversion_length(w) != want
           for w, _ in supq.enumerate_for_orbit_gp(desc)):
        ok, details = False, details + ["Gr(5,11)"]
    report("4", "every enumerated word has complementary length", ok,
           "; ".join(details))


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    results = [
        checks.check_points_slnr(range(2, 7)),
        checks.check_points_slmh(range(1, 4)),
        checks.check_points_supq(((2, 1), (2, 2), (3, 2))),
        checks.check_sampling_slnr(range(2, 7), seed=0, samples=20),
        checks.check_sampling_slmh(range(1, 4), seed=0, samples=20),
        checks.check_sampling_supq(((2, 1), (2, 2), (3, 2)), seed=0, samples=20),
    ]
    elapsed = time.monotonic() - start
    failures = [r for r in results if not r.passed]
    ok = not failures and elapsed < 300
    detail = "; ".join(f"{r.name}: {r.detail}" for r in failures) or f"{elapsed:.1f}s"
    report("5", "combinatorial predicates match the exact-geometry oracle",
           ok, detail)


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_intersection_point_counts():
    results = [
        checks.check_points_slnr(range(2, 7)),
        checks.check_points_slmh(range(1, 4)),
        checks.check_transposition_points_supq(((2, 1), (2, 2), (3, 2))),
    ]
    # single point per orbit in the unitary case
    ok = all(r.passed for r in results)
    for p, q in ((2, 1), (2, 2), (3, 2)):
        for alpha in checks._all_sign_sequences(p, q):
            rows = supq.enumerate_for_orbit(alpha, p, q)
            if len({w for w, _ in rows}) != len(rows):
                ok = False
    detail = "; ".join(r.detail for r in results if not r.passed)
    report("6", "intersection point counts: 2^m, 2^(m-1) per orientation, "
           "1, and 1 per orbit over 2^q orbits", ok, detail)


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_double_counting():
    sizes = ((2, 1), (2, 2), (3, 2), (4, 2))
    first = checks.check_double_counting_supq(sizes)
    second = checks.check_orbit_injectivity_supq(sizes)
    ok = first.passed and second.passed
    report("7", "sum over orbits is 2^q m_q and orbit point-sets are "
           "injective", ok, "; ".join(r.detail for r in (first, second) if not r.passed))


# ---------------------------------------------------------------- criterion 8


def _run(argv):
    return subprocess.run([sys.executable, "-m", "flagslice.cli", *argv],
                          capture_output=True, text=True)


def test_criterion_8_determinism():
    commands = [
        ["enumerate", "--form", "slnr", "--n", "6", "--seed", "11"],
        ["enumerate", "--form", "supq", "--p", "3", "--q", "2", "--seed", "11"],
        ["points", "--form", "slmh", "--n", "6", "--seed", "11"],
        ["points", "--form", "slnr", "--n", "4", "--seed", "11",
         "--format", "csv"],
    ]
    ok = True
    details = []
    for argv in commands:
        outputs = {_run(argv).stdout for _ in range(3)}
        if len(outputs) != 1:
            ok = False
            details.append(" ".join(argv))
    report("8", "byte-identical output across reruns",
           ok, "; ".join(details))
