"""
Cross-check suites: every combinatorial claim the package makes is replayed
against the exact-arithmetic geometric oracle at desk scale.

The checks reach each real form through ``forms``: they read the words,
closed counts and lengths that ``enumerate`` and ``count`` print, and the
rows that ``points`` prints (``forms.points``), flags and further fields
included.  Each check returns a CheckResult; the CLI ``verify`` command runs
a configurable batch and exits nonzero when anything fails.  Tests reuse the
same functions.  All randomness is seeded and deterministic.
"""

from __future__ import annotations

from itertools import combinations, permutations as iter_permutations
from typing import NamedTuple

from . import forms, slmh, slnr, supq
from .geometry import (FlagMatrix, bilinear_b, in_base_cycle_su,
                       in_open_orbit_su, is_isotropic_flag, is_tau_generic,
                       iwasawa_reference_h, iwasawa_reference_su,
                       orbit_label_su, orientation_class, random_cell_sample,
                       schubert_cell_membership, standard_reference,
                       symplectic_omega, tau_generic_full_flag)
from .permutations import Word, classify_symmetry, inversion_length, word_text


class CheckResult(NamedTuple):
    name: str
    scope: str
    passed: bool
    detail: str = ""


def _result(name: str, scope: str, failures: list[str]) -> CheckResult:
    return CheckResult(name, scope, not failures,
                       "; ".join(failures[:4]) if failures else "")


def _derived_seed(seed: int, tag: int, word: Word, trial: int) -> int:
    acc = seed * 7919 + tag
    for v in word:
        acc = acc * 31 + v
    return acc * 1009 + trial


# -- counting and length laws ---------------------------------------------------


def _compositions(n: int):
    """Every dimension sequence summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _counted_words(req: forms.Request, label: str, failures: list[str]) -> list[Word]:
    """``forms.words(req)``, the words ``enumerate`` prints, after adding to
    ``failures`` a text if they repeat, if their number is not
    ``forms.closed_count(req)``, which ``count`` prints, where there is one,
    or if one's inversion count is not ``forms.length(req)``."""
    words = forms.words(req)
    expect = forms.closed_count(req)
    if expect not in (None, len(words)):
        failures.append(f"{label}: {len(words)} words, closed form {expect}")
    if len(set(words)) != len(words):
        failures.append(f"{label}: duplicates")
    length = forms.length(req)
    bad = next((word for word in words if inversion_length(word) != length), None)
    if bad is not None:
        failures.append(f"{label}: wrong length at {word_text(bad)}")
    return words


def _count_asymmetric(form: str, n: int, failures: list[str]) -> None:
    """``_counted_words`` of each asymmetric dimension sequence of n."""
    for dims in _compositions(n):
        if not classify_symmetry(dims).is_symmetric:
            _counted_words(forms.Request(form, n=n, dims=dims), f"dims {dims}", failures)


def check_counts_slnr(n_values=range(2, 11)) -> CheckResult:
    """Complete flags for each n, and asymmetric --dims for n <= 5."""
    failures: list[str] = []
    for n in n_values:
        _counted_words(forms.Request("slnr", n=n), f"n={n}", failures)
        if n <= 5:
            _count_asymmetric("slnr", n, failures)
    return _result("count+length, split form, complete flags",
                   f"n in {list(n_values)}", failures)


def check_counts_slmh(m_values=range(1, 7)) -> CheckResult:
    """Complete flags for each m, and asymmetric --dims for n = 2m <= 6."""
    failures: list[str] = []
    for m in m_values:
        words = _counted_words(forms.Request("slmh", n=2 * m), f"m={m}", failures)
        if not all(slmh.sigma_m_to_w(slmh.w_to_sigma_m(w)) == w for w in words):
            failures.append(f"m={m}: inflation round-trip broken")
        if m <= 3:
            _count_asymmetric("slmh", 2 * m, failures)
    return _result("count+length, quaternionic form, complete flags",
                   f"m in {list(m_values)}", failures)


def check_counts_supq(max_n: int = 10) -> CheckResult:
    failures: list[str] = []
    for q in range(1, max_n // 2 + 1):
        for p in range(q, max_n - q + 1):
            _counted_words(forms.Request("supq", p=p, q=q), f"(p,q)=({p},{q})", failures)
    return _result("count+length, indefinite unitary form, complete flags",
                   f"n <= {max_n}", failures)


# -- the rows of points against the oracle ----------------------------------------


def _point_failures(req: forms.Request, label: str, reference: FlagMatrix, tests=(),
                    oracle=None, row_faults=None) -> list[str]:
    """The rows of ``forms.points(req)``, the rows ``points`` prints,
    against the oracle: a failure for each flag outside its word's Schubert
    cell at ``reference`` or failing one of ``tests`` (pairs of a failure
    text and a predicate of a flag); for each further field whose printed
    values are not ``oracle[field]`` of the row's flags; and for each text
    of ``row_faults(word, flags, computed)``, ``computed`` those oracle
    values by field.  The further fields must be those of ``oracle``."""
    oracle = oracle or {}
    _, fields, rows = forms.points(req)
    if list(fields) != list(oracle):
        return [f"{label}: printed fields {list(fields)}, oracle for {list(oracle)}"]
    failures = []
    for word, found, values in rows:
        where = f"{label} {word_text(word)}"
        for flag in found:
            failures += [f"{where}: point {text}" for text, test in tests if not test(flag)]
            if not schubert_cell_membership(flag, word, reference):
                failures.append(f"{where}: point outside cell")
        computed = {field: [oracle[field](flag) for flag in found] for field in fields}
        failures += [f"{where}: printed {field} {value} != oracle {computed[field]}"
                     for field, value in zip(fields, values) if value != computed[field]]
        if row_faults is not None:
            failures += [f"{where}: {text}" for text in row_faults(word, found, computed)]
    return failures


def check_points_slnr(n_values=range(2, 7)) -> CheckResult:
    """The 2^m points per word, n = 2m or 2m + 1, lie in the cycle and the
    cell; for even n their oracle orientations split evenly and are the
    ``orientations`` that ``points`` prints."""
    form = bilinear_b()
    tests = (("not isotropic", lambda flag: is_isotropic_flag(flag, form)),
             ("not generic", tau_generic_full_flag))

    def row_faults(word, found, computed):
        half = 2 ** (len(word) // 2 - 1)
        if len(found) != 2 * half:
            yield f"{len(found)} points"
        classes = computed.get("orientations")
        if classes and (classes.count(1) != half or classes.count(-1) != half):
            yield f"orientation split {classes}"

    failures = []
    for n in n_values:
        oracle = {"orientations": orientation_class} if n % 2 == 0 else {}
        failures += _point_failures(forms.Request("slnr", n=n), f"n={n}",
                                    standard_reference(n), tests, oracle, row_faults)
    return _result("intersection points, split form", f"n in {list(n_values)}", failures)


def check_points_slmh(m_values=range(1, 4)) -> CheckResult:
    failures = []
    for m in m_values:
        form = symplectic_omega(m)
        tests = (("not isotropic", lambda flag: is_isotropic_flag(flag, form)),
                 ("not generic", lambda flag: is_tau_generic(flag, "quaternion-j")))
        failures += _point_failures(forms.Request("slmh", n=2 * m), f"m={m}",
                                    iwasawa_reference_h(m), tests)
    return _result("intersection points, quaternionic form",
                   f"m in {list(m_values)}", failures)


def _all_sign_sequences(p: int, q: int):
    n = p + q
    for minus_positions in combinations(range(n), q):
        yield "".join("-" if i in minus_positions else "+" for i in range(n))


def check_points_supq(sizes=((2, 1), (2, 2), (3, 2))) -> CheckResult:
    failures = []
    for p, q in sizes:
        reference = iwasawa_reference_su(p, q)
        ipq = set(forms.words(forms.Request("supq", p=p, q=q)))
        for alpha in _all_sign_sequences(p, q):
            desc = supq.orbit_from_signs(p, q, alpha)
            tests = (("outside orbit", lambda flag: in_open_orbit_su(flag, desc.a, desc.b)),
                     ("outside cycle", lambda flag: in_base_cycle_su(flag, desc.a, desc.b)))
            failures += _point_failures(
                forms.Request("supq", p=p, q=q, orbit=alpha), f"({p},{q}) {alpha}",
                reference, tests,
                row_faults=lambda word, found, computed: [] if word in ipq else ["stray word"])
    return _result("per-orbit intersection points, indefinite unitary form",
                   f"sizes {list(sizes)}", failures)


def check_transposition_points_supq(sizes=((2, 1), (2, 2), (3, 2))) -> CheckResult:
    """Each strictly pairing word meets exactly 2^q orbits, once each, at
    transposition-variant coordinate flags in its cell, whose oracle labels
    are the ``orbits`` that ``points`` prints."""
    failures = []
    for p, q in sizes:
        def row_faults(word, found, computed):
            labels = computed["orbits"]
            if None in labels or len(set(labels)) != 2 ** q:
                yield f"labels {labels}"
                return
            for flag, label in zip(found, labels):
                desc = supq.orbit_from_signs(p, q, label)
                if not in_base_cycle_su(flag, desc.a, desc.b):
                    yield f"{label} point off-cycle"

        failures += _point_failures(
            forms.Request("supq", p=p, q=q), f"({p},{q})", iwasawa_reference_su(p, q),
            oracle={"orbits": lambda flag: orbit_label_su(flag, p, q)}, row_faults=row_faults)
    return _result("transposition variants hit 2^q distinct cycles",
                   f"sizes {list(sizes)}", failures)


# -- randomized genericity sampling vs the open-orbit predicates ------------------


def _sampling_failures(cases, seed: int, tag: int, samples: int) -> list[str]:
    """Per case (label, reference, complementary length, predicate, hit
    test), every word of that length whose predicate disagrees with sampled
    membership.  A predicted hit gets 5 * ``samples`` draws, a predicted
    miss ``samples``; the draws stop at the first hit."""
    failures = []
    for label, reference, length, predicate, hit in cases:
        for word in iter_permutations(range(1, reference.n + 1)):
            if inversion_length(word) != length:
                continue
            predicted = predicate(word)
            found = any(hit(random_cell_sample(word, reference,
                                               _derived_seed(seed, tag, word, trial)))
                        for trial in range(5 * samples if predicted else samples))
            if predicted != found:
                failures.append(f"{label} {word_text(word)}: predicted {predicted}, sampled {found}")
    return failures


def check_sampling_slnr(n_values=range(2, 7), seed: int = 0, samples: int = 20) -> CheckResult:
    cases = [(f"n={n}", standard_reference(n), forms.length(forms.Request("slnr", n=n)),
              lambda word: slnr.spacing_check(word),
              lambda flag: tau_generic_full_flag(flag, "real-conjugation"))
             for n in n_values]
    return _result("spacing predicate == sampled open-orbit membership",
                   f"n in {list(n_values)}, {samples} seeds",
                   _sampling_failures(cases, seed, 1, samples))


def check_sampling_slmh(m_values=range(1, 4), seed: int = 0, samples: int = 20) -> CheckResult:
    cases = [(f"m={m}", iwasawa_reference_h(m), forms.length(forms.Request("slmh", n=2 * m)),
              lambda word: slmh.spacing_check_h(word),
              lambda flag: tau_generic_full_flag(flag, "quaternion-j"))
             for m in m_values]
    return _result("quaternionic spacing == sampled open-orbit membership",
                   f"m in {list(m_values)}, {samples} seeds",
                   _sampling_failures(cases, seed, 2, samples))


def check_sampling_supq(sizes=((2, 1), (2, 2), (3, 2)), seed: int = 0,
                        samples: int = 20) -> CheckResult:
    # p and q are bound per case: a late-bound closure would see the last size.
    cases = [(f"({p},{q})", iwasawa_reference_su(p, q),
              forms.length(forms.Request("supq", p=p, q=q)),
              lambda word, p=p, q=q: supq.pairing_check(word, p, q),
              lambda flag, p=p, q=q: orbit_label_su(flag, p, q) is not None)
             for p, q in sizes]
    return _result("pairing predicate == sampled nondegenerate-orbit membership",
                   f"sizes {list(sizes)}, {samples} seeds",
                   _sampling_failures(cases, seed, 3, samples))


# -- partial-flag machinery --------------------------------------------------------


def _symmetric_sequences(n: int):
    for dims in _compositions(n):
        if classify_symmetry(dims).is_symmetric and len(dims) > 1:
            yield dims


def _lift_failures(form: str, n: int, lift, drop, kind: str) -> list[str]:
    """For each symmetric dimension sequence of n, its words, counted as in
    ``_counted_words``, each lifted by ``lift`` to a distinct ``kind`` word
    of the complete flags, ``drop(dims)`` longer."""
    failures: list[str] = []
    whole = set(forms.words(forms.Request(form, n=n)))
    for dims in _symmetric_sequences(n):
        lifted, loss = set(), drop(dims)
        for word in _counted_words(forms.Request(form, n=n, dims=dims), f"{dims}", failures):
            what = lift(word, dims)
            if what not in whole:
                failures.append(f"{dims} {word_text(word)}: lift not {kind}")
            if what in lifted:
                failures.append(f"{dims}: lift collision at {word_text(what)}")
            lifted.add(what)
            if inversion_length(word) != inversion_length(what) - loss:
                failures.append(f"{dims} {word_text(word)}: wrong length drop")
    return failures


def check_measurable_lift_slnr(n_values=range(2, 9)) -> CheckResult:
    failures = [failure for n in n_values for failure in _lift_failures(
        "slnr", n, slnr.canonical_rearrangement, slnr.rearrangement_length_drop, "double box")]
    return _result("measurable lifts: injective, double box, exact length drop",
                   f"split form, n in {list(n_values)}", failures)


def check_measurable_lift_slmh(m_values=range(1, 5)) -> CheckResult:
    failures = [failure for m in m_values for failure in _lift_failures(
        "slmh", 2 * m, slmh.canonical_rearrangement_h, slmh.rearrangement_length_drop_h,
        "strictly pairing")]
    return _result("measurable lifts: injective, strictly pairing, exact length drop",
                   f"quaternionic form, m in {list(m_values)}", failures)


def check_projected_point_counts_slnr(n_values=range(2, 7)) -> CheckResult:
    """Distinct projected intersection points per measurable type: equal to
    the stated per-cycle count for one open orbit (odd n), twice it when the
    two orientation classes both project (even n)."""
    failures = []
    for n in n_values:
        for dims in _symmetric_sequences(n):
            words = forms.words(forms.Request("slnr", n=n, dims=dims))
            expected = slnr.intersection_count_measurable(dims)
            if n % 2 == 0:
                expected *= 2
            for word in words[:3]:
                points = slnr.projected_cycle_points(word, dims)
                if len(points) != expected:
                    failures.append(f"{dims} {word_text(word)}: {len(points)} != {expected}")
    return _result("projected point counts match the stated case table",
                   f"split form, n in {list(n_values)}", failures)


def check_double_counting_supq(sizes=((2, 1), (2, 2), (3, 2), (4, 2))) -> CheckResult:
    failures: list[str] = []
    for p, q in sizes:
        whole = forms.Request("supq", p=p, q=q)
        per_word: dict[Word, int] = {}
        for alpha in _all_sign_sequences(p, q):
            req = forms.Request("supq", p=p, q=q, orbit=alpha)
            for word in _counted_words(req, f"({p},{q}) {alpha}", failures):
                per_word[word] = per_word.get(word, 0) + 1
        total, expect = sum(per_word.values()), 2 ** q * forms.closed_count(whole)
        if total != expect:
            failures.append(f"({p},{q}): total {total} != {expect}")
        if set(per_word) != set(forms.words(whole)):
            failures.append(f"({p},{q}): orbit union mismatch")
        bad = [w for w, c in per_word.items() if c != 2 ** q]
        if bad:
            failures.append(f"({p},{q}): {word_text(bad[0])} meets {per_word[bad[0]]} orbits")
    return _result("double counting: each variety meets exactly 2^q orbits",
                   f"sizes {list(sizes)}", failures)


def check_orbit_injectivity_supq(sizes=((2, 1), (2, 2), (3, 2), (4, 2))) -> CheckResult:
    failures = []
    for p, q in sizes:
        seen: dict[frozenset, str] = {}
        for alpha in _all_sign_sequences(p, q):
            _, _, rows = forms.points(forms.Request("supq", p=p, q=q, orbit=alpha))
            key = frozenset(flag.canonical_key() for _, found, _ in rows for flag in found)
            if key in seen:
                failures.append(f"({p},{q}): {alpha} and {seen[key]} share points")
            seen[key] = alpha
    return _result("orbit -> point-set map is injective", f"sizes {list(sizes)}", failures)


def check_fixed_point_count_supq(sizes=((2, 1), (2, 2))) -> CheckResult:
    """Count coordinate complete flags inside one base cycle directly."""
    failures = []
    for p, q in sizes:
        n = p + q
        alpha = "-" * q + "+" * p
        desc = supq.orbit_from_signs(p, q, alpha)
        count = 0
        for word in iter_permutations(range(1, n + 1)):
            flag = FlagMatrix.coordinate_flag(word)
            if in_base_cycle_su(flag, desc.a, desc.b):
                count += 1
        if count != supq.fixed_points_in_cycle_count(p, q):
            failures.append(f"({p},{q}): {count} != q! p!")
    return _result("torus-fixed points per cycle = q! p!", f"sizes {list(sizes)}", failures)


# -- batches -----------------------------------------------------------------------


def fast_suite() -> list[CheckResult]:
    """Counting, lifting, and point-construction checks (no sampling)."""
    return [
        check_counts_slnr(),
        check_counts_slmh(),
        check_counts_supq(),
        check_points_slnr(),
        check_points_slmh(),
        check_points_supq(),
        check_transposition_points_supq(),
        check_measurable_lift_slnr(),
        check_measurable_lift_slmh(),
        check_projected_point_counts_slnr(),
        check_double_counting_supq(),
        check_orbit_injectivity_supq(),
        check_fixed_point_count_supq(),
    ]


def sampling_suite(seed: int = 0, samples: int = 20) -> list[CheckResult]:
    return [
        check_sampling_slnr(seed=seed, samples=samples),
        check_sampling_slmh(seed=seed, samples=samples),
        check_sampling_supq(seed=seed, samples=samples),
    ]


def full_suite(seed: int = 0, samples: int = 20) -> list[CheckResult]:
    return fast_suite() + sampling_suite(seed, samples)
