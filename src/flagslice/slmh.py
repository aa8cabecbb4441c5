"""
Combinatorics of Schubert varieties meeting the base cycle for the
quaternionic real form on C^(2m).

The head/tail split of a word works as in the split case, but the ambient
quaternionic structure weakens the spacing condition (l_i < k_i, or k_i odd
with l_i = k_i + 1) and strengthens the complementary-dimension condition to
the strictly pairing condition: every pair must be (odd, odd+1).  Words
passing it biject with permutations on m letters, and each Schubert variety
meets the cycle in a single explicit flag, written in the Iwasawa-adapted
ordered basis (e_1, j(e_1), ..., e_m, j(e_m)).

Each condition has one function, stated block by block for a symmetric
dimension sequence ``dims``; complete flags, the default ``dims``, are the
case where every block has one letter.  Symmetric dimension sequences have
one enumerator, the double box walk of the split form on the aligned pairs
(2v-1, 2v), which emits its words in lexicographic order.  Complete flags
are the all-ones case: ``enumerate_gb_h(m) == enumerate_measurable_h((1,) *
2m)``, and ``intersection_point_h`` is ``intersection_point_measurable_h``
on (1,) * 2m.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from . import _lazy
from .permutations import Dims, Word, check_word, prefix_sums
from .slnr import _block_pairs, _pair_words, _require_symmetric, through_model
from .slnr import measurable_model  # noqa: F401  (the shared symmetric model)

flags, gaussian = _lazy("flags"), _lazy("gaussian")


def _check_even(word: Sequence[int]) -> Word:
    word = check_word(word)
    if len(word) % 2:
        raise ValueError("quaternionic words need even length")
    return word


def spacing_check_h(word: Sequence[int], dims: Sequence[int] | None = None) -> bool:
    """Per symmetric block pair, some arrangement of the tail block satisfies
    the quaternionic spacing predicate against the heads: on complete flags
    (``dims`` None), l_i < k_i, or k_i odd with l_i = k_i + 1, for every
    head/tail pair of ``kl_split(word)``.

    A tail l never equals a head k, so l may pair with k exactly when
    l <= k + 1 (k odd) or l <= k - 1 (k even).  Each head accepts every tail
    up to its bound, so an arrangement exists exactly when the sorted tails
    are, position by position, no larger than the sorted bounds.

    >>> spacing_check_h((3, 2, 5, 6, 1, 4))
    True
    >>> spacing_check_h((1, 2, 3, 4))
    False
    >>> spacing_check_h((1, 3, 2, 4), (2, 2))
    True
    >>> spacing_check_h((1, 2, 3, 4), (2, 2))
    False
    """
    pairs, _ = _block_pairs(_check_even(word), dims)
    return all(l <= bound for heads, tails in pairs
               for l, bound in zip(tails, sorted(k + 1 if k % 2 else k - 1 for k in heads)))


def strictly_pairing_check_h(word: Sequence[int], dims: Sequence[int] | None = None) -> bool:
    """Positional strictly pairing blockwise: the i-th tail of each mirror
    block is the successor of the i-th (odd) head, and the middle block
    consists of (odd, odd+1) pairs.  On complete flags (``dims`` None) every
    head k_i is odd and its tail l_i is k_i + 1.

    >>> strictly_pairing_check_h((3, 1, 5, 6, 2, 4))
    True
    >>> strictly_pairing_check_h((3, 2, 5, 6, 1, 4))
    False
    >>> strictly_pairing_check_h((1, 3, 2, 4), (2, 2))
    True
    >>> strictly_pairing_check_h((1, 5, 3, 4, 2, 6), (2, 2, 2))
    True
    """
    return _strictly_pairing(*_block_pairs(_check_even(word), dims))


def sigma_m_to_w(s: Sequence[int]) -> Word:
    """Inflate a permutation on m letters to the word k_i = 2 s_i - 1,
    l_i = k_i + 1 on 2m letters.

    >>> sigma_m_to_w((1, 2, 3, 4))
    (1, 3, 5, 7, 8, 6, 4, 2)
    >>> sigma_m_to_w((1,))
    (1, 2)
    """
    s = check_word(s)
    heads = tuple(2 * v - 1 for v in s)
    tails = tuple(2 * v for v in reversed(s))
    return heads + tails


def w_to_sigma_m(word: Sequence[int]) -> Word:
    """Inverse of the inflation map on strictly pairing words."""
    if not strictly_pairing_check_h(word):
        raise ValueError(f"word fails the strictly pairing condition: {word!r}")
    m = len(word) // 2
    return tuple((k + 1) // 2 for k in word[:m])


def enumerate_gb_h(m: int) -> list[Word]:
    """All strictly pairing words on 2m letters, lexicographically: the
    all-ones case of ``enumerate_measurable_h``, one word per permutation
    of the m letters.

    >>> enumerate_gb_h(1)
    [(1, 2)]
    >>> len(enumerate_gb_h(4))
    24
    """
    if m < 1:
        raise ValueError("m must be positive")
    return enumerate_measurable_h((1,) * (2 * m))


def cycle_dimension_gb_h(m: int) -> int:
    """Base-cycle dimension m^2 for complete flags on C^(2m)."""
    if m < 1:
        raise ValueError("m must be positive")
    return m * m


def expected_length_gb_h(m: int) -> int:
    """Complementary Schubert dimension m^2 - m."""
    return m * m - m


@cache
def _unit_columns(m: int) -> tuple[tuple[gaussian.ZVector, ...], tuple[gaussian.ZVector, ...]]:
    """The Z[i] columns e_v and j(e_v) = -e_(m+v) of C^(2m), for v = 1..m,
    indexed by v - 1: every intersection point on C^(2m) is spanned by all
    of them, so they are made once per m and shared."""
    n = 2 * m
    return (tuple(flags.unit_vector(n, v) for v in range(m)),
            tuple(flags.unit_vector(n, m + v, (-1, 0)) for v in range(m)))


def quaternion_pair_columns(s: Sequence[int]) -> list[gaussian.ZVector]:
    """Z[i] columns e_(s_1), ..., e_(s_m), j(e_(s_m)), ..., j(e_(s_1)) in
    standard coordinates, with j(e_i) = -e_(m+i).  ``s`` is a permutation
    of 1..m.

    >>> quaternion_pair_columns((1,))
    [((1, 0), (0, 0)), ((0, 0), (-1, 0))]
    """
    e, j = _unit_columns(len(s))
    return [e[v - 1] for v in s] + [j[v - 1] for v in reversed(s)]


def intersection_point_h(word: Sequence[int]) -> flags.FlagMatrix:
    """The single complete flag where the Schubert variety meets the cycle:
    the all-ones case of ``intersection_point_measurable_h``.

    >>> intersection_point_h((1, 2)).dims
    (1, 2)
    """
    return intersection_point_measurable_h(word, (1,) * len(word))


# -- measurable partial flags ---------------------------------------------------


def _strictly_pairing(pairs: Sequence[tuple[Word, Word]], middle: Word) -> bool:
    """The generalized strictly pairing condition on the block pairs and the
    middle block of a word."""
    for heads, tails in pairs:
        if any(k % 2 == 0 or l != k + 1 for k, l in zip(heads, tails)):
            return False
    # The word and its core blocks have even length, so the middle has too.
    for i in range(0, len(middle), 2):
        if middle[i] % 2 == 0 or middle[i + 1] != middle[i] + 1:
            return False
    return True


def _strictly_pairing_blocks(word: Sequence[int], dims: Sequence[int],
                             ) -> tuple[list[tuple[Word, Word]], Word]:
    """``_block_pairs`` of a word that passes the generalized strictly
    pairing condition; ValueError for any other word."""
    pairs, middle = _block_pairs(_check_even(word), dims)
    if not _strictly_pairing(pairs, middle):
        raise ValueError("word fails the generalized strictly pairing condition")
    return pairs, middle


def rearrangement_length_drop_h(dims: Sequence[int]) -> int:
    """Length lost between a word and its canonical rearrangement:
    sum d_i(d_i-1)/2 over the core plus (e'/2)^2 - e'/2 for the middle."""
    cls = _require_symmetric(dims)
    drop = sum(d * (d - 1) // 2 for d in cls.core)
    if cls.kind == "symmetric-e":
        half = cls.middle // 2
        drop += half * half - half
    return drop


def canonical_rearrangement_h(word: Sequence[int], dims: Sequence[int]) -> Word:
    """The coset member passing the complete-flag strictly pairing condition:
    tail blocks reversed, middle block interleaved as odd-position letters
    then even-position letters backwards.

    >>> canonical_rearrangement_h((1, 5, 3, 4, 2, 6), (2, 2, 2))
    (1, 5, 3, 4, 6, 2)
    """
    pairs, middle = _strictly_pairing_blocks(word, dims)
    out: list[int] = []
    for heads, _ in pairs:
        out.extend(heads)
    out.extend(middle[0::2])
    out.extend(reversed(middle[1::2]))
    for _, tails in reversed(pairs):
        out.extend(reversed(tails))
    return tuple(out)


def enumerate_measurable_h(dims: Sequence[int], letters: Sequence | None = None) -> list[Word]:
    """All minimal representatives passing the generalized strictly pairing
    condition, lexicographically.  The letters 1..m are dealt into the core
    blocks, increasing within each: letter v puts 2v-1 in a head block and
    2v in its mirror block, and the letters left over fill the middle block
    with their pairs (2v-1, 2v).  This is ``_pair_words`` on the aligned
    pairs of 1..2m; with ``letters``, each letter v is spelt ``letters[v]``.

    >>> enumerate_measurable_h((2, 2))
    [(1, 3, 2, 4)]
    >>> enumerate_measurable_h((1, 2, 1))
    [(1, 3, 4, 2), (3, 1, 2, 4)]
    """
    cls = _require_symmetric(dims)
    n = sum(dims)
    if n % 2:
        raise ValueError("quaternionic dimension sequences must sum to an even number")
    return _pair_words(cls.core, n, aligned=True, letters=letters)


def sigma_blocks_of(word: Sequence[int], dims: Sequence[int]) -> tuple[Word, ...]:
    """The m-letter blocks behind a generalized strictly pairing word: heads
    deflated per core block, then the middle block's odd letters deflated."""
    pairs, middle = _strictly_pairing_blocks(word, dims)
    out = [tuple((k + 1) // 2 for k in heads) for heads, _ in pairs]
    if middle:
        out.append(tuple((k + 1) // 2 for k in middle[0::2]))
    return tuple(out)


@cache
def _point_plan(dims: Dims) -> tuple[int, Dims, tuple[tuple[int, int], ...]]:
    """What ``intersection_point_measurable_h`` needs of a symmetric ``dims``
    on C^(2m): n = 2m, the cumulative dims, and the m position pairs
    (head, tail) of a minimal word, in the order of s: the i-th places of
    each block and its mirror block, then the places 2i and 2i+1 of the
    middle block."""
    cls = _require_symmetric(dims)
    n, ends = sum(dims), prefix_sums(dims)
    if n % 2:
        raise ValueError("quaternionic words need even length")
    starts = [end - d for d, end in zip(dims, ends)]
    pairs = [(starts[j] + i, starts[-1 - j] + i) for j, c in enumerate(cls.core)
             for i in range(c)]
    if cls.kind == "symmetric-e":
        pairs += [(t, t + 1) for t in range(starts[len(cls.core)], ends[len(cls.core)], 2)]
    return n, ends, tuple(pairs)


def intersection_point_measurable_h(word: Sequence[int],
                                    dims: Sequence[int]) -> flags.FlagMatrix:
    """The single partial flag where the Schubert variety meets the cycle,
    spanned by e_(s_1), ..., e_(s_m), j(e_(s_m)), ..., j(e_(s_1)).

    ``word`` is a minimal representative, as every word of
    ``enumerate_measurable_h(dims)`` is, so its blocks are increasing and
    the generalized strictly pairing condition reads each head and its tail
    at places fixed by ``dims`` (``_point_plan``, made once per ``dims``):
    the head odd and the tail one more; s holds the heads deflated.  A word
    failing that, or one whose s is not a permutation, raises ValueError.
    So the columns are a reordering of ``quaternion_pair_columns(range(1,
    m + 1))``, which ``forms.points`` rank-checks once per request; the
    ``FlagMatrix`` constructor does not check the rank again."""
    n, ends, pairs = _point_plan(tuple(dims))
    if len(word) != n or any(word[t] != word[h] + 1 or not word[h] & 1 for h, t in pairs):
        raise ValueError(f"word fails the generalized strictly pairing condition: {word!r}")
    s = check_word([(word[h] + 1) >> 1 for h, _ in pairs])
    return flags.FlagMatrix(n, ends, quaternion_pair_columns(s))


def enumerate_nonmeasurable_h(f: Sequence[int]) -> list[Word]:
    """Quaternionic words for an asymmetric dimension sequence, via the
    symmetric model and the strictly-decreasing-blocks projection.

    >>> enumerate_nonmeasurable_h((1, 3))
    [(1, 2, 3, 4)]
    """
    return through_model(f, enumerate_measurable_h)
