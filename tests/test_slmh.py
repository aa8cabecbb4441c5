"""Quaternionic real form: spacing/strictly pairing, the m! bijection,
single intersection points, measurable and non-measurable partial flags."""

from itertools import chain, permutations as iter_permutations
from math import factorial

import pytest

from flagslice import flags, forms, gaussian, slmh
from flagslice.geometry import (is_isotropic_flag, is_tau_generic,
                                iwasawa_reference_h, schubert_cell_membership,
                                symplectic_omega)
from flagslice.permutations import inversion_length, ordered_partitions, prefix_sums
from flagslice.slnr import kl_split


def test_spacing_examples():
    assert slmh.spacing_check_h((3, 2, 5, 6, 1, 4))
    assert slmh.spacing_check_h((3, 1, 5, 6, 2, 4))
    assert not slmh.spacing_check_h((1, 2, 3, 4))
    with pytest.raises(ValueError):
        slmh.spacing_check_h((2, 3, 1))


def test_strictly_pairing_examples():
    assert slmh.strictly_pairing_check_h((3, 1, 5, 6, 2, 4))
    assert not slmh.strictly_pairing_check_h((3, 2, 5, 6, 1, 4))
    assert slmh.strictly_pairing_check_h((1, 3, 5, 7, 8, 6, 4, 2))


def test_strictly_pairing_implies_spacing():
    for m in (1, 2, 3):
        for word in iter_permutations(range(1, 2 * m + 1)):
            if slmh.strictly_pairing_check_h(word):
                assert slmh.spacing_check_h(word)
    # converse fails
    assert slmh.spacing_check_h((3, 2, 5, 6, 1, 4))
    assert not slmh.strictly_pairing_check_h((3, 2, 5, 6, 1, 4))


def test_sigma_m_to_w_examples():
    assert slmh.sigma_m_to_w((1, 2, 3, 4)) == (1, 3, 5, 7, 8, 6, 4, 2)
    assert slmh.sigma_m_to_w((1,)) == (1, 2)
    for m in range(1, 7):
        for s in iter_permutations(range(1, m + 1)):
            assert slmh.w_to_sigma_m(slmh.sigma_m_to_w(s)) == s


def test_enumerate_gb_h_counts_and_lengths():
    assert slmh.enumerate_gb_h(1) == [(1, 2)]
    for m in range(1, 7):
        words = slmh.enumerate_gb_h(m)
        assert len(words) == factorial(m)
        assert all(inversion_length(w) == m * m - m for w in words)
    for m in (1, 2, 3):
        generated = set(slmh.enumerate_gb_h(m))
        filtered = {w for w in iter_permutations(range(1, 2 * m + 1))
                    if slmh.strictly_pairing_check_h(w)}
        assert generated == filtered


def test_cycle_dimension():
    assert slmh.cycle_dimension_gb_h(1) == 1
    assert slmh.cycle_dimension_gb_h(3) == 9
    for m in range(1, 6):
        n = 2 * m
        total = n * (n - 1) // 2
        assert total - slmh.cycle_dimension_gb_h(m) == slmh.expected_length_gb_h(m)


def test_intersection_point_examples():
    point = slmh.intersection_point_h((1, 3, 5, 7, 8, 6, 4, 2))
    cols = point.columns
    assert cols[0][0] == 1              # e_1
    assert cols[4][7] == -1             # j(e_4) = -e_8
    for m in (1, 2, 3):
        reference = iwasawa_reference_h(m)
        for word in slmh.enumerate_gb_h(m):
            pt = slmh.intersection_point_h(word)
            assert is_isotropic_flag(pt, symplectic_omega(m))
            assert is_tau_generic(pt, "quaternion-j")
            assert schubert_cell_membership(pt, word, reference)
    with pytest.raises(ValueError):
        slmh.intersection_point_h((3, 2, 5, 6, 1, 4))


def _complete_words():
    """Every permutation with n <= 7 that slmh takes: n even."""
    return chain.from_iterable(iter_permutations(range(1, n + 1)) for n in (2, 4, 6))


def test_block_spacing_examples():
    assert slmh.spacing_check_h((1, 3, 2, 4), (2, 2))
    assert not slmh.spacing_check_h((1, 2, 3, 4), (2, 2))
    # Complete flags against the paper's rule: l_i < k_i, or k_i odd with
    # l_i = k_i + 1.
    for word in _complete_words():
        k, l, _ = kl_split(word)
        assert slmh.spacing_check_h(word) == all(
            l[i] < k[i] or k[i] % 2 == 1 and l[i] == k[i] + 1 for i in range(len(k))), word
    for word, dims in (((2, 3, 1), None), ((1, 2, 3, 4), (1, 3)), ((1, 2, 3, 4), (1, 1)),
                       ((1, 1, 2, 2), None), ((1, 1, 2, 2), (2, 2))):
        for check in (slmh.spacing_check_h, slmh.strictly_pairing_check_h):
            with pytest.raises(ValueError):
                check(word, dims)


def test_block_strictly_pairing_examples():
    assert slmh.strictly_pairing_check_h((1, 3, 2, 4), (2, 2))
    assert not slmh.strictly_pairing_check_h((1, 2, 3, 4), (2, 2))
    # Complete flags against the paper's rule: k_i odd and l_i = k_i + 1.
    for word in _complete_words():
        k, l, _ = kl_split(word)
        assert slmh.strictly_pairing_check_h(word) == all(
            k[i] % 2 == 1 and l[i] == k[i] + 1 for i in range(len(k))), word


def test_enumerate_measurable_h():
    assert slmh.enumerate_measurable_h((2, 2)) == [(1, 3, 2, 4)]
    # counts follow the multinomial of block sizes on m letters
    assert len(slmh.enumerate_measurable_h((2, 2, 2))) == 3
    assert len(slmh.enumerate_measurable_h((1, 2, 2, 1))) == 3
    assert len(slmh.enumerate_measurable_h((2, 1, 1, 2))) == 3


def test_measurable_lift_and_length_drop():
    for dims in ((2, 2), (2, 2, 2), (1, 2, 2, 1), (2, 1, 1, 2), (2, 4, 2),
                 (2, 2, 2, 2), (1, 3, 3, 1)):
        m = sum(dims) // 2
        gb = set(slmh.enumerate_gb_h(m))
        drop = slmh.rearrangement_length_drop_h(dims)
        seen = set()
        for word in slmh.enumerate_measurable_h(dims):
            lifted = slmh.canonical_rearrangement_h(word, dims)
            assert lifted in gb
            assert lifted not in seen
            seen.add(lifted)
            assert inversion_length(word) == inversion_length(lifted) - drop


def test_measurable_intersection_point():
    for dims in ((2, 2), (2, 2, 2), (1, 2, 2, 1)):
        m = sum(dims) // 2
        reference = iwasawa_reference_h(m)
        for word in slmh.enumerate_measurable_h(dims):
            point = slmh.intersection_point_measurable_h(word, dims)
            assert is_isotropic_flag(point, symplectic_omega(m))
            assert is_tau_generic(point, "quaternion-j")
            assert schubert_cell_membership(point, word, reference)


def test_blockwise_letter_characterization():
    """Words passing the blockwise strictly pairing condition correspond to
    distributions of 1..m over the blocks; each block then carries
    increasing deflated letters."""
    dims = (2, 2, 2)
    for word in slmh.enumerate_measurable_h(dims):
        letter_blocks = slmh.sigma_blocks_of(word, dims)
        for block in letter_blocks:
            assert list(block) == sorted(block)
    total = {v for word in [slmh.enumerate_measurable_h(dims)[0]]
             for blk in slmh.sigma_blocks_of(word, dims) for v in blk}
    assert total == {1, 2, 3}


def test_enumerate_nonmeasurable_h():
    assert slmh.enumerate_nonmeasurable_h((1, 3)) == [(1, 2, 3, 4)]
    for dims in ((2, 2), (2, 2, 2)):
        assert slmh.enumerate_nonmeasurable_h(dims) == slmh.enumerate_measurable_h(dims)
    f = (1, 2, 3)
    words = slmh.enumerate_nonmeasurable_h(f)
    model = slmh.measurable_model(f)
    assert len(words) <= len(slmh.enumerate_measurable_h(model.dhat))
    with pytest.raises(ValueError):
        slmh.enumerate_nonmeasurable_h((1, 2))


def _palindromes(n):
    """Every dimension sequence summing to n that equals its reversal."""
    def compositions(total):
        if total == 0:
            yield ()
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    return [dims for dims in compositions(n) if dims == dims[::-1]]


@pytest.mark.parametrize("m", range(1, 5))
def test_enumerate_measurable_h_is_the_filtered_representatives(m):
    # Reference: every minimal coset representative (increasing within each
    # block), kept when it passes the generalized strictly pairing condition.
    n = 2 * m
    for dims in _palindromes(n):
        words = slmh.enumerate_measurable_h(dims)
        representatives = (sum(parts, ()) for parts in
                           ordered_partitions(tuple(range(1, n + 1)), dims))
        assert words == sorted(
            w for w in representatives
            if slmh.strictly_pairing_check_h(w, dims)), dims
        assert all(a < b for a, b in zip(words, words[1:])), dims


def test_block_spacing_matches_its_definition():
    # Per block pair (block j against its mirror), some arrangement of the
    # tails must satisfy l < k or (k odd and l == k + 1) against the heads.
    def arrangeable(heads, tails):
        return any(all(l < k or (k % 2 == 1 and l == k + 1)
                       for k, l in zip(heads, arrangement))
                   for arrangement in iter_permutations(tails))

    cases = 0
    for n in (2, 4, 6):
        for dims in _palindromes(n):
            for word in iter_permutations(range(1, n + 1)):
                cut, parts = 0, []
                for d in dims:
                    parts.append(word[cut:cut + d])
                    cut += d
                expected = all(arrangeable(parts[j], parts[-1 - j])
                               for j in range(len(dims) // 2))
                assert slmh.spacing_check_h(word, dims) == expected, \
                    (word, dims)
                cases += 1
    assert cases == 2 * 2 + 4 * 24 + 8 * 720


def _public_point(word, dims):
    """The intersection point of a word through ``FlagMatrix.from_columns``,
    from Q(i) columns and with its rank check."""
    n, m = len(word), len(word) // 2
    s = [v for block in slmh.sigma_blocks_of(word, dims) for v in block]

    def unit(index, value):
        return tuple(value if i == index else 0 for i in range(n))

    columns = ([unit(v - 1, 1) for v in s] + [unit(m + v - 1, -1) for v in reversed(s)])
    return flags.FlagMatrix.from_columns(columns, prefix_sums(dims))


@pytest.mark.parametrize("dims", [(1,) * 12] + [d for n in range(2, 11, 2)
                                                 for d in _palindromes(n)])
def test_points_equal_the_public_constructor(dims):
    for word in slmh.enumerate_measurable_h(dims):
        point = slmh.intersection_point_measurable_h(word, dims)
        reference = _public_point(word, dims)
        assert (point.zcols, point.dens, point.dims) == \
            (reference.zcols, reference.dens, reference.dims), (word, dims)


def test_each_points_request_checks_rank_once(monkeypatch):
    # Once per request, not once per process: a cache of the checked columns
    # would leave the second request unchecked.
    calls = []
    original = gaussian.rank

    def counted(vectors):
        calls.append(len(vectors))
        return original(vectors)

    monkeypatch.setattr(gaussian, "rank", counted)
    for req in (forms.Request("slmh", n=6), forms.Request("slmh", n=6, dims=(2, 2, 2))):
        before = len(calls)
        _, rows = forms.points(req)
        assert sum(len(found) for _, found, _ in rows) == len(forms.words(req))
        assert calls[before:] == [6]


def test_points_refuse_a_failed_rank_check(monkeypatch):
    monkeypatch.setattr(gaussian, "rank", lambda vectors: len(vectors) - 1)
    with pytest.raises(ArithmeticError):
        forms.points(forms.Request("slmh", n=4))


def test_repeated_sigma_letter_raises():
    # Each head is odd and its tail one more, but s = (1, 1) repeats a letter.
    with pytest.raises(ValueError, match="not a permutation"):
        slmh.intersection_point_measurable_h((1, 1, 2, 2), (1, 1, 1, 1))


@pytest.mark.parametrize("word, dims", [
    ((1, 3, 4, 2, 5, 6), (1, 1, 1, 1)),  # the word is longer than dims
    ((3, 2, 5, 6, 1, 4), (1,) * 6),    # the tail of 2 is not 3
    ((2, 3, 4, 3), (1, 1, 1, 1)),      # each tail one more, but a head is even
    ((1, 3, 2, 4), (1, 3)),            # asymmetric dims
    ((1, 2, 3), (1, 1, 1)),            # odd length
])
def test_points_refuse_words_failing_the_pairing(word, dims):
    with pytest.raises(ValueError):
        slmh.intersection_point_measurable_h(word, dims)
