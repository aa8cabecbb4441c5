"""Split real form: spacing/double box conditions, enumeration, points,
measurable and non-measurable partial flags."""

from itertools import chain, combinations, permutations as iter_permutations

import pytest

from flagslice import forms, slnr
from flagslice.geometry import (FlagMatrix, bilinear_b, is_isotropic_flag,
                                is_tau_generic, orientation_class,
                                schubert_cell_membership, standard_reference)
from flagslice.permutations import (classify_symmetry, flag_manifold_dimension,
                                    inversion_length, minimal_coset_representative,
                                    ordered_partitions, parse_word, prefix_sums)


def test_spacing_check_examples():
    assert slnr.spacing_check((2, 6, 5, 4, 3, 1))
    assert not slnr.spacing_check((2, 6, 1, 5, 3, 4))
    for n in (4, 5, 6, 7):
        assert slnr.spacing_check(tuple(range(n, 0, -1)))


def test_double_box_examples():
    assert slnr.double_box_check((2, 5, 6, 3, 4, 1))
    assert not slnr.double_box_check((2, 6, 5, 4, 3, 1))
    assert slnr.double_box_check((2, 4, 3, 1))


def test_double_box_implies_spacing_with_strict_inclusion():
    for n in (4, 5, 6):
        witnesses = 0
        for word in iter_permutations(range(1, n + 1)):
            if slnr.double_box_check(word):
                assert slnr.spacing_check(word)
            elif slnr.spacing_check(word):
                witnesses += 1
        assert witnesses > 0
    assert slnr.spacing_check((2, 6, 5, 4, 3, 1))
    assert not slnr.double_box_check((2, 6, 5, 4, 3, 1))


def test_enumerate_gb_small_cases():
    assert slnr.enumerate_gb(2) == [(2, 1)]
    assert slnr.enumerate_gb(4) == [(2, 4, 3, 1), (3, 4, 1, 2), (4, 2, 1, 3)]
    assert len(slnr.enumerate_gb(6)) == 15
    assert slnr.enumerate_gb(1) == [(1,)]


def test_enumerate_gb_matches_filtering():
    for n in (2, 3, 4, 5, 6):
        generated = set(slnr.enumerate_gb(n))
        filtered = {w for w in iter_permutations(range(1, n + 1))
                    if slnr.double_box_check(w)}
        assert generated == filtered


def test_cycle_dimension_and_lengths():
    assert slnr.cycle_dimension_gb(2) == 0
    assert slnr.cycle_dimension_gb(6) == 6
    assert slnr.cycle_dimension_gb(7) == 9
    for n in range(2, 9):
        complement = flag_manifold_dimension((1,) * n) - slnr.cycle_dimension_gb(n)
        assert complement == slnr.expected_length_gb(n)
        for word in slnr.enumerate_gb(n):
            assert inversion_length(word) == complement


def test_intersection_points_counts_and_oracle():
    for n in (2, 3, 4, 5):
        reference = standard_reference(n)
        for word in slnr.enumerate_gb(n):
            points = slnr.intersection_points_gb(word)
            assert len(points) == 2 ** (n // 2)
            for point in points:
                assert is_isotropic_flag(point, bilinear_b())
                assert is_tau_generic(point)
                assert schubert_cell_membership(point, word, reference)
            if n % 2 == 0:
                classes = [orientation_class(p) for p in points]
                assert classes.count(1) == classes.count(-1)
                assert slnr.orientations_gb(word) == classes


def test_intersection_points_spot_checks_larger_n():
    for n in (7, 8):
        words = slnr.enumerate_gb(n)
        sample = words[:2] + words[len(words) // 2:len(words) // 2 + 1] + words[-2:]
        reference = standard_reference(n)
        for word in sample:
            for point in slnr.intersection_points_gb(word):
                assert is_isotropic_flag(point, bilinear_b())
                assert is_tau_generic(point)
                assert schubert_cell_membership(point, word, reference)


def test_intersection_points_full_check_n8():
    """Every one of the 105 words of enumerate_gb(8), on which
    test_coset_cross_check rests, against the exact oracle: its first
    intersection point is isotropic, generic and inside the word's cell, and
    the closed-form orientations of all its points are the oracle's."""
    words = slnr.enumerate_gb(8)
    assert len(words) == 105
    reference = standard_reference(8)
    for word in words:
        points = slnr.intersection_points_gb(word)
        point = points[0]
        assert is_isotropic_flag(point, bilinear_b()), word
        assert is_tau_generic(point), word
        assert schubert_cell_membership(point, word, reference), word
        assert slnr.orientations_gb(word) == [orientation_class(p) for p in points], word


def test_intersection_points_requires_double_box():
    with pytest.raises(ValueError):
        slnr.intersection_points_gb((2, 6, 5, 4, 3, 1))


def _complete_words(top=7):
    """Every permutation with n <= ``top``."""
    return chain.from_iterable(iter_permutations(range(1, n + 1)) for n in range(1, top + 1))


def test_block_spacing_examples():
    assert slnr.spacing_check((2, 4, 1, 3), (2, 2))
    assert not slnr.spacing_check((1, 2, 3, 4), (2, 2))
    # Complete flags against the paper's rule: l_i < k_i.
    for word in _complete_words():
        k, l, _ = slnr.kl_split(word)
        assert slnr.spacing_check(word) == all(l[i] < k[i] for i in range(len(k))), word
    for word, dims in (((1, 2, 3), (2, 1)), ((1, 2, 3), (2, 2)), ((1, 1, 2), None),
                       ((1, 1, 2), (1, 1, 1))):
        for check in (slnr.spacing_check, slnr.double_box_check):
            with pytest.raises(ValueError):
                check(word, dims)


def test_block_double_box_examples():
    assert slnr.double_box_check(parse_word("(57)(2)(38)(1)(46)"), (2, 1, 2, 1, 2))
    assert not slnr.double_box_check((1, 2, 3, 4), (2, 2))
    # Complete flags against the paper's rule: l_i is the residual
    # predecessor of k_i, the largest letter below it not in an earlier pair.
    for word in _complete_words():
        k, l, _ = slnr.kl_split(word)
        assert slnr.double_box_check(word) == all(
            l[i] == max(set(range(1, k[i])) - set(k[:i]) - set(l[:i]), default=0)
            for i in range(len(k))), word


def test_canonical_rearrangement_examples():
    assert slnr.canonical_rearrangement((2, 4, 1, 3), (2, 2)) == (2, 4, 3, 1)
    assert inversion_length((2, 4, 1, 3)) == 3
    assert inversion_length((2, 4, 3, 1)) == 4
    assert slnr.rearrangement_length_drop((2, 2)) == 1
    word = parse_word("(2)(3456)(1)")
    assert slnr.canonical_rearrangement(word, (1, 4, 1)) == (2, 5, 6, 3, 4, 1)


def _palindromes(n):
    """Every dimension sequence summing to n that equals its reversal."""
    cuts = chain.from_iterable(combinations(range(1, n), r) for r in range(n))
    seqs = (tuple(b - a for a, b in zip((0,) + c, c + (n,))) for c in cuts)
    return [dims for dims in seqs if dims == dims[::-1]]


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_measurable_is_the_filtered_representatives(n):
    # Reference: every minimal coset representative (increasing within each
    # block), kept when it passes the generalized double box contraction.
    for dims in _palindromes(n):
        words = slnr.enumerate_measurable(dims)
        representatives = (sum(parts, ()) for parts in
                           ordered_partitions(tuple(range(1, n + 1)), dims))
        assert words == sorted(w for w in representatives
                               if slnr.double_box_check(w, dims)), dims
        assert all(a < b for a, b in zip(words, words[1:])), dims


def _reference_pair_words(core, n, aligned=False):
    """``slnr._pair_words`` as one recursive walk that slices and joins the
    tuples of each word at its leaf: the reference for the list that
    ``_pair_words`` reads off per-level templates."""
    if not core:
        return [tuple(range(1, n + 1))]
    stride, head = (2, 0) if aligned else (1, 1)
    words = []

    def step(j, left, start, residual, heads, block, done):
        for t in range(start, len(residual) - 2 * left + 1, stride):
            rest = residual[:t] + residual[t + 2:]
            k = heads + (residual[t + head],)
            l = block + (residual[t + 1 - head],)
            if left > 1:
                step(j, left - 1, t, rest, k, l, done)
            elif j + 1 < len(core):
                step(j + 1, core[j + 1], 0, rest, k, (), l + done)
            else:
                words.append(k + rest + l + done)

    step(0, core[0], 0, tuple(range(1, n + 1)), (), (), ())
    return words


# slmh is the aligned walk, on even n only.
@pytest.mark.parametrize("form, n", [("slnr", n) for n in range(1, 13)]
                         + [("slmh", n) for n in range(2, 13, 2)])
def test_pair_words_equal_the_reference_walk(form, n):
    for dims in _palindromes(n):
        core = classify_symmetry(dims).core
        words = slnr._pair_words(core, n, aligned=form == "slmh")
        assert words == _reference_pair_words(core, n, aligned=form == "slmh"), dims
        assert len(words) == forms.closed_count(forms.Request(form, n=n, dims=dims)), dims


def test_enumerate_measurable_lifts_into_gb():
    for dims in ((2, 2), (1, 2, 1), (2, 1, 1, 2), (2, 1, 2, 1, 2), (1, 2, 2, 1)):
        n = sum(dims)
        gb = set(slnr.enumerate_gb(n))
        lifted = set()
        drop = slnr.rearrangement_length_drop(dims)
        for word in slnr.enumerate_measurable(dims):
            what = slnr.canonical_rearrangement(word, dims)
            assert what in gb
            assert what not in lifted
            lifted.add(what)
            assert inversion_length(word) == inversion_length(what) - drop


def test_intersection_count_measurable_cases():
    assert slnr.intersection_count_measurable((1, 1)) == 1
    # d shape, n = 2m: 2^(m-1)
    assert slnr.intersection_count_measurable((2, 2)) == 2 ** 1
    assert slnr.intersection_count_measurable((3, 3)) == 2 ** 2
    # e shape, odd n: 2^(sum of core parts)
    assert slnr.intersection_count_measurable((1, 3, 1)) == 2 ** 1
    assert slnr.intersection_count_measurable((2, 1, 2)) == 2 ** 2
    assert slnr.intersection_count_measurable((1, 1, 1, 1, 1)) == 2 ** 2
    # e shape, even n: 2^(sum of core parts - 1)
    assert slnr.intersection_count_measurable((1, 2, 1)) == 2 ** 0
    assert slnr.intersection_count_measurable((2, 2, 2)) == 2 ** 1
    with pytest.raises(ValueError):
        slnr.intersection_count_measurable((2, 4, 3))


def test_measurable_model_worked_example():
    model = slnr.measurable_model((2, 4, 3))
    assert model.dhat == (2, 1, 3, 1, 2)
    assert model.t == (1, 2, 2)
    assert model.delta == (1, 3, 5)
    assert slnr.model_dimension_drop(model) == 1 * 3 + 1 * 2
    assert slnr.measurable_model((1, 5)).dhat == (1, 4, 1)
    symmetric = slnr.measurable_model((2, 1, 1, 2))
    assert symmetric.dhat == (2, 1, 1, 2)
    assert symmetric.t == (1, 1, 1, 1)


def test_strictly_decreasing_blocks_examples():
    model = slnr.measurable_model((3, 3, 2))
    assert model.t == (2, 2, 1)
    assert slnr.strictly_decreasing_blocks_check(parse_word("(57)(2)(38)(1)(46)"), model)
    assert not slnr.strictly_decreasing_blocks_check(parse_word("(57)(3)(18)(2)(46)"), model)
    trivial = slnr.measurable_model((2, 1, 1, 2))
    for word in slnr.enumerate_measurable((2, 1, 1, 2)):
        assert slnr.strictly_decreasing_blocks_check(word, trivial)


def test_enumerate_nonmeasurable_projective_spaces():
    for n in range(2, 9):
        expected = (2, 1) + tuple(range(3, n + 2))
        assert slnr.enumerate_nonmeasurable((1, n)) == [expected]


def test_enumerate_nonmeasurable_filter_counts():
    f = (3, 3, 2)
    words = slnr.enumerate_nonmeasurable(f)
    assert len(words) == len(set(words))
    # three published words and the three projections of the (4b) rows
    expected = {parse_word(s) for s in (
        "(257)(138)(46)", "(258)(136)(47)", "(268)(134)(57)",
        "(246)(178)(35)", "(247)(158)(36)", "(248)(156)(37)")}
    assert set(words) == expected
    codim = flag_manifold_dimension(f) - 11
    for word in words:
        assert inversion_length(word) == codim


def test_certified_extra_measurable_members():
    """The enumeration for (2,1,2,1,2) strictly contains the published
    36-row table, which omits every row with first block (4b).  These nine
    words carry machine-checked intersection certificates (point in cell,
    isotropic, generic, complementary length), so they are genuine members;
    test_acceptance's criterion 2b fixture holds them beside the published
    rows, and test_coset_cross_check confirms them independently."""
    dims = (2, 1, 2, 1, 2)
    n = 8
    reference = standard_reference(n)
    deltas = prefix_sums(dims)
    extras = [parse_word(s) for s in (
        "(46)(2)(78)(1)(35)", "(46)(7)(18)(2)(35)", "(46)(8)(12)(7)(35)",
        "(47)(2)(58)(1)(36)", "(47)(5)(18)(2)(36)", "(47)(8)(12)(5)(36)",
        "(48)(2)(56)(1)(37)", "(48)(5)(16)(2)(37)", "(48)(6)(12)(5)(37)",
    )]
    enumerated = set(slnr.enumerate_measurable(dims))
    for word in extras:
        assert word in enumerated
        assert inversion_length(word) == flag_manifold_dimension(dims) - 11
        lifted = slnr.canonical_rearrangement(word, dims)
        assert slnr.double_box_check(lifted)
        point = slnr.intersection_points_gb(lifted)[0]
        partial = FlagMatrix.from_columns(point.columns, deltas)
        assert is_isotropic_flag(partial, bilinear_b())
        assert is_tau_generic(partial)
        assert schubert_cell_membership(partial, word, reference)


def test_coset_cross_check():
    """Partial-flag enumerations recovered without the partial-flag
    predicates.  If a complete-flag word v meets the base cycle, so does the
    Schubert variety of its minimal coset representative w: the cell of v
    maps into the cell of w, and the cycle maps onto the partial one.  So
    the representatives of complementary length of the enumerate_gb(8)
    words must be exactly the enumerated partial-flag words.  The complete
    enumeration matches the oracle exhaustively for n <= 6 (criterion 5)
    and at n = 8 is spot-checked by
    test_intersection_points_spot_checks_larger_n."""
    complete = slnr.enumerate_gb(8)
    assert len(complete) == 105
    for dims, enumerate_words, count in (
            ((2, 1, 2, 1, 2), slnr.enumerate_measurable, 45),
            ((3, 3, 2), slnr.enumerate_nonmeasurable, 6)):
        codim = flag_manifold_dimension(dims) - 11  # cycle dimension is 11
        representatives = {minimal_coset_representative(v, dims)
                           for v in complete}
        short = {w for w in representatives if inversion_length(w) == codim}
        assert len(short) == count
        assert short == set(enumerate_words(dims))


def test_spacing_equivalence_is_a_complementary_length_statement():
    """At complementary length, spacing exactly detects cells meeting the
    open orbit (the sampling checks assert this exhaustively).  Beyond that
    length the equivalence genuinely fails: the cell of 4231 (length 5)
    contains an explicit generic point although spacing does not hold."""
    from flagslice.gaussian import I, gq_vector
    from flagslice.geometry import is_tau_generic
    word = (4, 2, 3, 1)
    assert inversion_length(word) != slnr.expected_length_gb(4)
    assert not slnr.spacing_check(word)
    witness = FlagMatrix.from_columns((
        gq_vector((I, 0, I, 1)), gq_vector((I, 1, 0, 0)),
        gq_vector((0, 0, 1, 0)), gq_vector((1, 0, 0, 0))), (1, 2, 3, 4))
    assert schubert_cell_membership(witness, word, standard_reference(4))
    assert is_tau_generic(witness)


def test_projected_point_counts():
    # d shape, even ambient dimension: all sign patterns survive projection;
    # the two orientation classes each hold the per-cycle count
    points = slnr.projected_cycle_points((2, 4, 1, 3), (2, 2))
    assert len(points) == 2 * slnr.intersection_count_measurable((2, 2))
    classes = [orientation_class(p) for p in points]
    assert classes.count(1) == classes.count(-1) == 2
    # e shape, odd ambient dimension: single open orbit, count is exact
    word = slnr.enumerate_measurable((1, 3, 1))[0]
    assert len(slnr.projected_cycle_points(word, (1, 3, 1))) == \
        slnr.intersection_count_measurable((1, 3, 1))
    # e shape, even ambient dimension: the middle-block signs collapse, so
    # twice the per-cycle count survives in total
    word = slnr.enumerate_measurable((1, 2, 1))[0]
    assert len(slnr.projected_cycle_points(word, (1, 2, 1))) == \
        2 * slnr.intersection_count_measurable((1, 2, 1))


@pytest.mark.parametrize("n", range(2, 7))
def test_every_measurable_word_projects_to_the_stated_count(n):
    # verify's projected-count check projects three words of each type; here
    # every word of every measurable type with this n is projected
    for dims in _palindromes(n):
        if len(dims) == 1:
            continue
        expected = slnr.intersection_count_measurable(dims) * (2 if n % 2 == 0 else 1)
        for word in forms.words(forms.Request("slnr", n=n, dims=dims)):
            assert len(slnr.projected_cycle_points(word, dims)) == expected, (dims, word)
