"""
Permutation words, dimension sequences, and the flag-manifold bookkeeping
shared by all three real forms.

Permutations are tuples in one-line notation with 1-based values, e.g.
``(2, 4, 3, 1)`` for the word 2431.  A dimension sequence is a tuple of
positive block sizes ``(d_1, ..., d_s)`` summing to the ambient dimension;
it fixes a parabolic subgroup and hence a partial-flag type.

Text forms: permutations read/write as ``"2 4 3 1"`` (commas also accepted,
and parenthesised block groups like ``"(257)(138)(46)"``); dimension
sequences as ``"2,4,3"``.
"""

from __future__ import annotations

import re
from itertools import accumulate, combinations
from typing import NamedTuple, Sequence

Word = tuple[int, ...]
Dims = tuple[int, ...]


def is_word(word: Sequence[int]) -> bool:
    """True iff ``word`` is a permutation of 1..n in one-line notation.

    >>> is_word((2, 4, 3, 1)), is_word((1, 1, 2)), is_word(())
    (True, False, False)
    """
    n = len(word)
    return n >= 1 and sorted(word) == list(range(1, n + 1))


def check_word(word: Sequence[int]) -> Word:
    word = tuple(word)
    if not is_word(word):
        raise ValueError(f"not a permutation of 1..n: {word!r}")
    return word


def check_dims(dims: Sequence[int]) -> Dims:
    dims = tuple(dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"dimension sequence needs positive parts: {dims!r}")
    return dims


def parse_word(text: str) -> Word:
    """Parse a permutation from its text form.

    >>> parse_word("2 4 3 1")
    (2, 4, 3, 1)
    >>> parse_word("(257)(138)(46)")
    (2, 5, 7, 1, 3, 8, 4, 6)
    >>> parse_word("10 2 1 3 4 5 6 7 8 9")[:2]
    (10, 2)
    """
    text = text.strip()
    values: list[int] = []
    for group in re.findall(r"\(([^()]*)\)", text) if "(" in text else [text]:
        group = group.strip()
        # Without a separator, every character is a one-digit letter.
        values += parse_ints(group if re.search(r"[,\s]", group) else " ".join(group))
    return check_word(values)


class _LetterTable(dict):
    """The decimal text of each letter, made the first time it is asked for."""

    def __missing__(self, letter: int) -> str:
        text = self[letter] = str(letter)
        return text


_letter = _LetterTable().__getitem__


def format_word(word: Sequence[int], dims: Sequence[int] | None = None) -> str:
    """Render a permutation; block parentheses when ``dims`` is given.

    Values are concatenated without separators only when n <= 9, otherwise
    space-separated (concatenation would be ambiguous).

    >>> format_word((2, 4, 3, 1))
    '2431'
    >>> format_word((2, 5, 7, 1, 3, 8, 4, 6), dims=(3, 3, 2))
    '(257)(138)(46)'
    >>> format_word((10, 2, 1, 3, 4, 5, 6, 7, 8, 9))
    '10 2 1 3 4 5 6 7 8 9'
    """
    compact = len(word) <= 9
    if dims is None:
        return ("" if compact else " ").join(map(_letter, word))
    return format_blocks(blocks(word, dims), compact)


def format_blocks(parts: Sequence[Sequence[int]], compact: bool) -> str:
    """The block text of ``format_word`` for a word already cut into blocks.

    >>> format_blocks(((2, 5, 7), (1, 3, 8), (4, 6)), True)
    '(257)(138)(46)'
    """
    joiner = "" if compact else " "
    return "".join(["(" + joiner.join(map(_letter, part)) + ")" for part in parts])


def word_text(word: Sequence[int]) -> str:
    """Canonical space-separated text form, e.g. ``"2 4 3 1"``."""
    return " ".join(map(_letter, word))


def parse_ints(text: str) -> tuple[int, ...]:
    """The integers of a list separated by commas or whitespace; the
    ValueError for an empty or non-integer field names it."""
    fields = re.split(r"\s*,\s*|\s+", text.strip())
    for field in fields:
        if not re.fullmatch(r"[+-]?\d+", field):
            raise ValueError(f"field {field!r} of {text!r} is not an integer" if field
                             else f"empty field in {text!r}")
    return tuple(map(int, fields))


def parse_dims(text: str) -> Dims:
    """
    >>> parse_dims("2,4,3")
    (2, 4, 3)
    """
    return check_dims(parse_ints(text))


def format_dims(dims: Sequence[int]) -> str:
    return ",".join(str(d) for d in dims)


def prefix_sums(dims: Sequence[int]) -> tuple[int, ...]:
    """Cumulative subspace dimensions delta_i.

    >>> prefix_sums((2, 4, 3))
    (2, 6, 9)
    """
    return tuple(accumulate(dims))


def inversion_length(word: Sequence[int]) -> int:
    """Number of inversions, i.e. the Bruhat length of the word.

    >>> inversion_length((1, 2, 3, 4))
    0
    >>> inversion_length((2, 4, 3, 1))
    4
    >>> inversion_length((1, 3, 5, 7, 8, 6, 4, 2))
    12
    """
    # Bit v of ``seen`` marks letter v as read.  The letters are distinct,
    # so the letters read before ``a`` and larger than it are the set bits
    # of ``seen >> a``.
    count = 0
    seen = 0
    for a in word:
        count += (seen >> a).bit_count()
        seen |= 1 << a
    return count


def blocks(word: Sequence[int], dims: Sequence[int]) -> tuple[Word, ...]:
    """Slice the word into the blocks prescribed by the dimension sequence.

    >>> blocks((2, 5, 7, 1, 3, 8, 4, 6), (3, 3, 2))
    ((2, 5, 7), (1, 3, 8), (4, 6))
    """
    word = tuple(word)
    dims = check_dims(dims)
    if sum(dims) != len(word):
        raise ValueError(f"dimension sequence {dims} does not match word length {len(word)}")
    out = []
    start = 0
    for d in dims:
        out.append(word[start:start + d])
        start += d
    return tuple(out)


def ordered_partitions(values: Sequence[int], sizes: Sequence[int]):
    """Every way to deal ``values`` into groups of the given sizes.

    >>> list(ordered_partitions((1, 2, 3), (1, 2)))
    [[(1,), (2, 3)], [(2,), (1, 3)], [(3,), (1, 2)]]
    """
    if not sizes:
        yield []
        return
    for chosen in combinations(values, sizes[0]):
        rest = tuple(v for v in values if v not in chosen)
        for tail in ordered_partitions(rest, sizes[1:]):
            yield [chosen] + tail


def double_factorial_descending(n: int, steps: int | None = None) -> int:
    """(n-1)(n-3)... with the given number of factors (all, by default).

    >>> double_factorial_descending(7), double_factorial_descending(7, 2)
    (48, 24)
    """
    total = 1
    for k in range(n - 1, 0, -2)[:steps]:
        total *= k
    return total


def minimal_coset_representative(word: Sequence[int], dims: Sequence[int]) -> Word:
    """Sort each block into increasing order: the shortest coset member.

    >>> minimal_coset_representative((4, 2, 1, 3), (2, 2))
    (2, 4, 1, 3)
    >>> minimal_coset_representative((5, 7, 2, 3, 8, 1, 4, 6), (3, 3, 2))
    (2, 5, 7, 1, 3, 8, 4, 6)
    """
    word = check_word(word)
    pieces = []
    for block in blocks(word, dims):
        pieces.extend(sorted(block))
    return tuple(pieces)


def schubert_cell_dimension(word: Sequence[int], dims: Sequence[int]) -> int:
    """Dimension of the Schubert cell indexed by the word's coset.

    >>> schubert_cell_dimension((2, 4, 3, 1), (1, 1, 1, 1))
    4
    >>> schubert_cell_dimension((2, 4, 1, 3, 5), (2, 3))
    3
    """
    return inversion_length(minimal_coset_representative(word, dims))


def flag_manifold_dimension(dims: Sequence[int]) -> int:
    """Complex dimension of the partial-flag manifold of the given type.

    >>> flag_manifold_dimension((1, 1, 1, 1))
    6
    >>> flag_manifold_dimension((2, 4, 3))
    26
    >>> flag_manifold_dimension((5,))
    0
    """
    dims = check_dims(dims)
    total = 0
    for i, di in enumerate(dims):
        for dj in dims[i + 1:]:
            total += di * dj
    return total


class SymmetryClassification(NamedTuple):
    """Palindromic structure of a dimension sequence.

    ``kind`` is one of ``"symmetric-d"`` (even-length palindrome),
    ``"symmetric-e"`` (odd-length palindrome, distinguished middle part), or
    ``"asymmetric"``.  ``core`` holds the half-sequence and ``middle`` the
    middle part for the e shape.
    """

    kind: str
    core: Dims
    middle: int | None = None

    @property
    def parts(self) -> Dims:
        """Reconstruct the original sequence."""
        if self.kind == "symmetric-d":
            return self.core + tuple(reversed(self.core))
        if self.kind == "symmetric-e":
            assert self.middle is not None
            return self.core + (self.middle,) + tuple(reversed(self.core))
        return self.core

    @property
    def is_symmetric(self) -> bool:
        return self.kind != "asymmetric"


def classify_symmetry(dims: Sequence[int]) -> SymmetryClassification:
    """Detect the palindromic shape of a dimension sequence.

    Odd-length palindromes always assign the middle part to the e slot, so
    classification is unambiguous.

    >>> classify_symmetry((2, 1, 1, 2))
    SymmetryClassification(kind='symmetric-d', core=(2, 1), middle=None)
    >>> classify_symmetry((1, 4, 1))
    SymmetryClassification(kind='symmetric-e', core=(1,), middle=4)
    >>> classify_symmetry((2, 4, 3)).kind
    'asymmetric'
    """
    dims = check_dims(dims)
    if dims != tuple(reversed(dims)):
        return SymmetryClassification("asymmetric", dims)
    s = len(dims)
    if s % 2 == 0:
        return SymmetryClassification("symmetric-d", dims[: s // 2])
    return SymmetryClassification("symmetric-e", dims[: s // 2], dims[s // 2])
