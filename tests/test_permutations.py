"""Word and dimension-sequence basics: known values plus properties."""

from itertools import permutations as iter_permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagslice.permutations import (blocks, classify_symmetry,
                                    flag_manifold_dimension, format_blocks,
                                    format_word, inversion_length,
                                    minimal_coset_representative, parse_dims,
                                    parse_word, prefix_sums,
                                    schubert_cell_dimension, word_text)

words = st.integers(2, 7).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))).map(tuple)
# Up to 70 letters: two-digit letters, and letters no earlier call has asked
# the text table for.
long_words = st.integers(1, 70).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))).map(tuple)


def test_inversion_length_known_values():
    assert inversion_length((1, 2, 3, 4)) == 0
    assert inversion_length((2, 4, 3, 1)) == 4
    assert inversion_length((1, 3, 5, 7, 8, 6, 4, 2)) == 12
    assert inversion_length((4, 3, 2, 1)) == 6


def test_minimal_coset_representative_known_values():
    assert minimal_coset_representative((4, 2, 1, 3), (2, 2)) == (2, 4, 1, 3)
    word = (5, 7, 2, 3, 8, 1, 4, 6)
    assert minimal_coset_representative(word, (1,) * 8) == word
    assert minimal_coset_representative(word, (3, 3, 2)) == (2, 5, 7, 1, 3, 8, 4, 6)


def test_minimal_coset_representative_rejects_length_mismatch():
    with pytest.raises(ValueError):
        minimal_coset_representative((2, 1), (2, 2))


def test_schubert_cell_dimension_known_values():
    assert schubert_cell_dimension((2, 4, 3, 1), (1, 1, 1, 1)) == 4
    assert schubert_cell_dimension((1, 2, 3, 4, 5), (2, 3)) == 0
    assert schubert_cell_dimension((2, 4, 1, 3, 5), (2, 3)) == 3


def test_flag_manifold_dimension_known_values():
    assert flag_manifold_dimension((1, 1, 1, 1)) == 6
    assert flag_manifold_dimension((7,)) == 0
    assert flag_manifold_dimension((2, 4, 3)) == 26


def test_classify_symmetry_cases():
    d = classify_symmetry((2, 1, 1, 2))
    assert (d.kind, d.core) == ("symmetric-d", (2, 1))
    e = classify_symmetry((1, 4, 1))
    assert (e.kind, e.core, e.middle) == ("symmetric-e", (1,), 4)
    assert classify_symmetry((2, 4, 3)).kind == "asymmetric"
    # odd-length palindromes always put the middle part in the e slot
    ambiguous = classify_symmetry((2, 1, 2))
    assert (ambiguous.kind, ambiguous.core, ambiguous.middle) == ("symmetric-e", (2,), 1)


def test_blocks_known_values():
    assert blocks((2, 5, 7, 1, 3, 8, 4, 6), (3, 3, 2)) == ((2, 5, 7), (1, 3, 8), (4, 6))
    assert blocks((6, 1, 5, 2, 3, 4), (6,)) == ((6, 1, 5, 2, 3, 4),)
    assert blocks((6, 1, 5, 2, 3, 4), (2, 2, 2)) == ((6, 1), (5, 2), (3, 4))


def test_text_forms():
    assert parse_word("2 4 3 1") == (2, 4, 3, 1)
    assert parse_word("2,4,3,1") == (2, 4, 3, 1)
    assert parse_word("(257)(138)(46)") == (2, 5, 7, 1, 3, 8, 4, 6)
    assert format_word((2, 4, 3, 1)) == "2431"
    assert format_word((2, 4, 3, 1), dims=(2, 2)) == "(24)(31)"
    big = tuple(range(10, 0, -1))
    assert format_word(big) == "10 9 8 7 6 5 4 3 2 1"
    assert parse_dims("2,4,3") == (2, 4, 3)
    assert prefix_sums((2, 4, 3)) == (2, 6, 9)


@pytest.mark.parametrize("text, message", [
    ("2,,1", "empty field in '2,,1'"),
    ("2 1,", "empty field in '2 1,'"),
    ("(2)(,1)", "empty field in ',1'"),
    ("2,x,1", "field 'x' of '2,x,1' is not an integer"),
    ("(13)(2 y)", "field 'y' of '2 y' is not an integer"),
    ("2x1", "field 'x' of '2 x 1' is not an integer"),
])
def test_parse_word_names_a_bad_field(text, message):
    with pytest.raises(ValueError) as exc:
        parse_word(text)
    assert str(exc.value) == message


@given(words)
def test_inversion_length_bounds(word):
    n = len(word)
    length = inversion_length(word)
    assert 0 <= length <= n * (n - 1) // 2
    assert (length == n * (n - 1) // 2) == (word == tuple(range(n, 0, -1)))


@given(long_words)
def test_inversion_length_is_the_pairwise_count(word):
    n = len(word)
    assert inversion_length(word) == sum(
        1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


@given(long_words, st.data(), st.booleans())
def test_word_texts_are_the_str_joins(word, data, compact):
    n = len(word)
    assert word_text(word) == " ".join(str(v) for v in word)
    joiner = "" if n <= 9 else " "
    assert format_word(word) == joiner.join(str(v) for v in word)
    dims = data.draw(dims_of(n))
    cuts = [sum(dims[:i]) for i in range(len(dims) + 1)]
    parts = [word[a:b] for a, b in zip(cuts, cuts[1:])]

    def text(joiner):
        return "".join("(" + joiner.join(str(v) for v in part) + ")" for part in parts)
    assert format_word(word, dims=dims) == text(joiner)
    assert format_blocks(parts, compact) == text("" if compact else " ")


@st.composite
def dims_of(draw, n):
    parts = []
    left = n
    while left:
        d = draw(st.integers(1, left))
        parts.append(d)
        left -= d
    return tuple(parts)


@given(words, st.data())
def test_minimal_representative_idempotent_and_shorter(word, data):
    n = len(word)
    dims = data.draw(dims_of(n))
    rep = minimal_coset_representative(word, dims)
    assert minimal_coset_representative(rep, dims) == rep
    assert inversion_length(rep) <= inversion_length(word)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=7).map(tuple))
def test_classify_then_reconstruct_is_identity(dims):
    assert classify_symmetry(dims).parts == dims


@given(words)
def test_parse_format_roundtrip(word):
    assert parse_word(format_word(word)) == word
    assert parse_word(" ".join(map(str, word))) == word


@pytest.mark.parametrize("n,dims", [
    (5, (1, 1, 1, 1, 1)), (6, (2, 2, 2)), (6, (1, 4, 1)),
    (6, (3, 3)), (7, (2, 3, 2)),
])
def test_flag_dimension_matches_longest_representative(n, dims):
    longest = max(schubert_cell_dimension(w, dims)
                  for w in iter_permutations(range(1, n + 1)))
    assert longest == flag_manifold_dimension(dims)
