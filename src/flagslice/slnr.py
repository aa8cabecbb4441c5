"""
Combinatorics of Schubert varieties meeting the base cycle for the split
real form acting on flag manifolds of SL(n,C).

A word w = k_1..k_m [l_*] l_m..l_1 splits into heads k_i (first half),
tails l_i (second half, read right to left) and, in odd ambient dimension, a
middle letter l_*.  The spacing condition (l_i < k_i for all i) detects
Schubert varieties meeting the open orbit; the double box contraction
condition (every pair (l_i, k_i) formed from adjacent survivors of the
ordered set 1..n) detects those of complementary dimension meeting the
cycle, and the intersection points are explicit flags built from
(+-i) e_(l_i) + e_(k_i).

Each condition has one function, stated block by block for a symmetric
dimension sequence ``dims``; complete flags, the default ``dims``, are the
case where every block has one letter.  Symmetric sequences lift to the
complete-flag case by a canonical rearrangement; asymmetric ones reduce to
their symmetric model and a strictly-decreasing-blocks projection.  One
enumerator serves every symmetric sequence and emits its words in
lexicographic order; complete flags are its all-ones case:
``enumerate_gb(n)`` is ``enumerate_measurable((1,) * n)``.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import _lazy
from .permutations import (Dims, SymmetryClassification, Word, check_dims,
                           check_word, classify_symmetry, inversion_length,
                           minimal_coset_representative, prefix_sums)

flags = _lazy("flags")


class KlSplit(NamedTuple):
    """Head/tail split of a word: heads k, tails l (l[0] is the last letter),
    and the middle letter for odd length."""

    k: Word
    l: Word
    middle: int | None


def kl_split(word: Sequence[int]) -> KlSplit:
    """
    >>> kl_split((2, 6, 5, 4, 3, 1))
    KlSplit(k=(2, 6, 5), l=(1, 3, 4), middle=None)
    >>> kl_split((2, 3, 1))
    KlSplit(k=(2,), l=(1,), middle=3)
    """
    word = check_word(word)
    n = len(word)
    m = n // 2
    k = word[:m]
    l = tuple(word[n - 1 - i] for i in range(m))
    middle = word[m] if n % 2 else None
    return KlSplit(k, l, middle)


def spacing_check(word: Sequence[int], dims: Sequence[int] | None = None) -> bool:
    """Per symmetric block pair, the tail block admits an arrangement with
    l_i < k_i throughout; decided by the sorted elementwise comparison.  On
    complete flags (``dims`` None) that is l_i < k_i for every head/tail
    pair of ``kl_split(word)``.

    >>> spacing_check((2, 6, 5, 4, 3, 1))
    True
    >>> spacing_check((2, 6, 1, 5, 3, 4))
    False
    >>> spacing_check((2, 4, 1, 3), (2, 2))
    True
    >>> spacing_check((1, 2, 3, 4), (2, 2))
    False
    """
    pairs, _ = _block_pairs(check_word(word), dims)
    return all(l < k for heads, tails in pairs for k, l in zip(heads, tails))


def double_box_check(word: Sequence[int], dims: Sequence[int] | None = None) -> bool:
    """Block-by-block double box contraction: block pair j must consist of
    disjoint pairs (l, k) with l the immediate predecessor of k in the
    ordered set 1..n with earlier block pairs removed.  On complete flags
    (``dims`` None) each tail l_i is the predecessor of its head k_i.

    >>> double_box_check((2, 5, 6, 3, 4, 1))
    True
    >>> double_box_check((2, 6, 5, 4, 3, 1))
    False
    >>> double_box_check((2, 4, 3, 1))
    True
    >>> double_box_check((5, 7, 2, 3, 8, 1, 4, 6), (2, 1, 2, 1, 2))
    True
    >>> double_box_check((1, 2, 3, 4), (2, 2))
    False
    """
    word = check_word(word)
    return _contracts(_block_pairs(word, dims)[0], len(word))


def cycle_dimension_gb(n: int) -> int:
    """Dimension of the base cycle in the complete-flag case.

    >>> [cycle_dimension_gb(n) for n in (2, 6, 7)]
    [0, 6, 9]
    """
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    m = n // 2
    return m * m - m if n % 2 == 0 else m * m


def expected_length_gb(n: int) -> int:
    """Complementary Schubert dimension: m^2 for n=2m, m^2+m for n=2m+1."""
    m = n // 2
    return m * m if n % 2 == 0 else m * m + m


def enumerate_gb(n: int) -> list[Word]:
    """All words passing the double box contraction, lexicographically: the
    all-ones case of ``enumerate_measurable``.  Each step picks an adjacent
    pair of the surviving ordered set; the count is (n-1)(n-3)...

    >>> enumerate_gb(4)
    [(2, 4, 3, 1), (3, 4, 1, 2), (4, 2, 1, 3)]
    >>> len(enumerate_gb(6))
    15
    >>> enumerate_gb(1)
    [(1,)]
    """
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    return enumerate_measurable((1,) * n)


def intersection_points_gb(word: Sequence[int]) -> list[flags.FlagMatrix]:
    """The complete flags where the Schubert variety meets the cycle(s): one
    per sign pattern, built from (+-i) e_(l_i) + e_(k_i) and the tail basis
    vectors.  For even n the two orientation classes each hold half of them.

    The k, l and middle positions cover 1..n, so the columns are a basis by
    construction and the flags are built from their Z[i] entries directly.
    """
    if not double_box_check(word):
        raise ValueError(f"word fails the double box contraction: {word!r}")
    split = kl_split(word)
    n = len(word)
    m = len(split.k)
    tail = [flags.unit_vector(n, l - 1) for l in reversed(split.l)]
    if split.middle is not None:
        tail.insert(0, flags.unit_vector(n, split.middle - 1))
    points = []
    for signs in product((1, -1), repeat=m):
        cols = []
        for sign, k, l in zip(signs, split.k, split.l):
            col = list(flags.unit_vector(n, k - 1))
            col[l - 1] = (0, sign)
            cols.append(tuple(col))
        points.append(flags.FlagMatrix(n, range(1, n + 1), cols + tail))
    return points


def orientations_gb(word: Sequence[int]) -> list[int]:
    """The orientation classes of ``intersection_points_gb(word)`` for even
    n = 2m, in the same order, read off the word: the sign pattern s gives
    prod(s) · sgn(l_1 k_1 ... l_m k_m) · (-1)^(m(m-1)/2).

    ``verify`` certifies this against ``orientation_class`` on every point.

    >>> orientations_gb((2, 4, 3, 1))
    [-1, 1, 1, -1]
    """
    split = kl_split(word)
    m = len(split.k)
    if split.middle is not None:
        raise ValueError("orientation requires even ambient dimension")
    pairs = [x for k, l in zip(split.k, split.l) for x in (l, k)]
    base = -1 if (inversion_length(pairs) + m * (m - 1) // 2) % 2 else 1
    return [base * (-1) ** signs.count(-1) for signs in product((1, -1), repeat=m)]


# -- measurable partial flags --------------------------------------------------


def _require_symmetric(dims: Sequence[int]) -> SymmetryClassification:
    cls = classify_symmetry(dims)
    if not cls.is_symmetric:
        raise ValueError(f"dimension sequence {tuple(dims)} is not symmetric")
    return cls


@cache
def _block_spans(dims: Dims) -> tuple[int, tuple[tuple[slice, slice], ...], slice]:
    """What ``_block_pairs`` needs of a symmetric ``dims``, made once per
    ``dims``: its sum, the slices of each block and its mirror block, and
    the slice of the middle block (empty for the d shape)."""
    cls = _require_symmetric(dims)
    spans = [slice(end - d, end) for d, end in zip(dims, prefix_sums(dims))]
    s = len(cls.core)
    middle = spans[s] if cls.kind == "symmetric-e" else slice(0, 0)
    return sum(dims), tuple((spans[j], spans[-1 - j]) for j in range(s)), middle


def _block_pairs(word: Word, dims: Sequence[int] | None,
                 ) -> tuple[list[tuple[Word, Word]], Word]:
    """Symmetric block pairs (B_j, mirror B_j) of a word that ``check_word``
    passed, each sorted, plus the middle block (empty for the d shape);
    ``dims`` None means complete flags, whose blocks are single letters.
    ValueError for a ``dims`` that is not symmetric or does not sum to the
    word's length."""
    if dims is None:
        m = len(word) // 2
        return [((word[j],), (word[-1 - j],)) for j in range(m)], word[m:len(word) - m]
    dims = tuple(dims)
    n, spans, middle = _block_spans(dims)
    if n != len(word):
        raise ValueError(f"dimension sequence {dims} does not match word length {len(word)}")
    pairs = [(tuple(sorted(word[a])), tuple(sorted(word[b]))) for a, b in spans]
    return pairs, tuple(sorted(word[middle]))


def _contracts(pairs: Sequence[tuple[Word, Word]], n: int) -> bool:
    """The generalized double box contraction on the block pairs of a word
    on 1..n."""
    residual = list(range(1, n + 1))
    for heads, tails in pairs:
        tail_set = set(tails)
        for k in heads:
            idx = residual.index(k)
            if idx == 0 or residual[idx - 1] not in tail_set:
                return False
        for v in heads:
            residual.remove(v)
        for v in tails:
            residual.remove(v)
    return True


def rearrangement_length_drop(dims: Sequence[int]) -> int:
    """Length lost when a canonical rearrangement is sorted back into block
    order: sum d_i(d_i-1)/2 over the core, plus the middle-block term."""
    cls = _require_symmetric(dims)
    drop = sum(d * (d - 1) // 2 for d in cls.core)
    if cls.kind == "symmetric-e":
        e = cls.middle
        drop += (e // 2) ** 2 if e % 2 == 0 else (e - 1) * (e + 1) // 4
    return drop


def canonical_rearrangement(word: Sequence[int], dims: Sequence[int]) -> Word:
    """The distinguished coset member passing the complete-flag double box
    contraction: tail blocks reversed, middle block rotated.

    >>> canonical_rearrangement((2, 4, 1, 3), (2, 2))
    (2, 4, 3, 1)
    """
    word = check_word(word)
    pairs, middle = _block_pairs(word, dims)
    if not _contracts(pairs, len(word)):
        raise ValueError("word fails the generalized double box contraction")
    shift = (len(middle) + 1) // 2
    out: list[int] = []
    for heads, _ in pairs:
        out.extend(heads)
    out.extend(middle[shift:] + middle[:shift])
    for _, tails in reversed(pairs):
        out.extend(reversed(tails))
    return tuple(out)


def _pair_words(core: Sequence[int], n: int, aligned: bool = False) -> list[Word]:
    """The words on 1..n, in lexicographic order, whose block pair j is
    ``core[j]`` disjoint pairs of neighbours in the ordered residual, taken
    left to right, and whose middle block is the residual left after the
    last block.

    A pair (r_t, r_(t+1)) gives the head r_(t+1) and the tail r_t.  With
    ``aligned`` only the pairs at even t are taken, (2v-1, 2v) for a letter
    v, and they give the head 2v-1 and the tail 2v.  The next pair of a
    block starts at an edge t' >= t of the shrunk residual, so each block's
    heads and tails come out increasing; a word is fixed by its heads, so
    the words come out in order.  The words of ``core[j + 1:]`` on a
    residual are its words on positions, relabelled: so block pair j reads
    a word off each choice (heads, tails, rest) with one ``itemgetter`` per
    word of the level below, made once, from the middle block out.

    >>> _pair_words((1, 1), 4, aligned=True)
    [(1, 3, 4, 2), (3, 1, 2, 4)]
    """
    stride, head = (2, 0) if aligned else (1, 1)
    r = n - 2 * sum(core)
    words = [tuple(range(r) if core else range(1, n + 1))]  # The middle block.

    def choices(residual: Word, left: int, start: int, heads: Word, tails: Word):
        # ``left`` more pairs, the next at edge >= start.
        for t in range(start, len(residual) - 2 * left + 1, stride):
            rest = residual[:t] + residual[t + 2:]
            k, l = heads + (residual[t + head],), tails + (residual[t + 1 - head],)
            yield from (choices(rest, left - 1, t, k, l) if left > 1 else (k + l + rest,))

    for j, c in reversed([*enumerate(core)]):
        r += 2 * c
        getters = [itemgetter(*range(c), *[2 * c + i for i in word], *range(c, 2 * c))
                   for word in words]
        del words  # Freed before the next level's words are built.
        residual = tuple(range(1, n + 1) if j == 0 else range(r))
        words = [get(picked) for picked in choices(residual, c, 0, (), ())
                 for get in getters]
    return words


def enumerate_measurable(dims: Sequence[int]) -> list[Word]:
    """All minimal representatives passing the generalized double box
    contraction for a symmetric dimension sequence, lexicographically:
    block pair j is ``core[j]`` disjoint adjacent pairs (l, k) of the
    ordered set with the earlier block pairs removed.

    >>> enumerate_measurable((2, 2))
    [(2, 4, 1, 3)]
    >>> enumerate_measurable((1, 2, 1))
    [(2, 3, 4, 1), (3, 1, 4, 2), (4, 1, 2, 3)]
    """
    return _pair_words(_require_symmetric(dims).core, sum(dims))


def intersection_count_measurable(dims: Sequence[int]) -> int:
    """Stated intersection-point count per cycle for a symmetric sequence:
    2^(sum of core parts) for the e shape in odd ambient dimension, 2^(m-1)
    for the d shape, 2^(sum of core parts - 1) for the e shape in even
    ambient dimension."""
    cls = _require_symmetric(dims)
    n = sum(dims)
    core_sum = sum(cls.core)
    if not cls.core:
        return 1
    if cls.kind == "symmetric-d":
        return 2 ** (n // 2 - 1)
    if n % 2:
        return 2 ** core_sum
    return 2 ** (core_sum - 1)


def projected_cycle_points(word: Sequence[int], dims: Sequence[int],
                           ) -> list[flags.FlagMatrix]:
    """Distinct partial flags obtained by projecting the complete-flag
    intersection points of the canonical rearrangement.  Used to cross-check
    the counting formulas geometrically."""
    lifted = canonical_rearrangement(word, dims)
    deltas = prefix_sums(check_dims(dims))
    seen = {}
    for point in intersection_points_gb(lifted):
        partial = flags.FlagMatrix(point.n, deltas, point.zcols, point.dens)
        seen.setdefault(partial.canonical_key(), partial)
    return list(seen.values())


# -- non-measurable partial flags -----------------------------------------------


class MeasurableModel(NamedTuple):
    """Symmetric refinement of an arbitrary dimension sequence.

    ``dhat`` is the common refinement of the sequence and its reversal;
    grouping its parts by ``t`` (cut positions ``delta``) recovers ``f``.
    """

    f: Dims
    dhat: Dims
    t: Dims
    delta: Dims

    @property
    def groups(self) -> tuple[tuple[int, int], ...]:
        """Half-open block index ranges of dhat forming each part of f."""
        out = []
        start = 0
        for size in self.t:
            out.append((start, start + size))
            start += size
        return tuple(out)


def measurable_model(f: Sequence[int]) -> MeasurableModel:
    """Refine a dimension sequence to its symmetric model.

    >>> model = measurable_model((2, 4, 3))
    >>> model.dhat, model.t, model.delta
    ((2, 1, 3, 1, 2), (1, 2, 2), (1, 3, 5))
    >>> measurable_model((1, 5)).dhat
    (1, 4, 1)
    """
    f = check_dims(f)
    n = sum(f)
    cuts = set(prefix_sums(f)) | set(prefix_sums(tuple(reversed(f))))
    ordered = sorted(cuts)
    dhat = tuple(b - a for a, b in zip([0] + ordered, ordered))
    t = []
    idx = 0
    for part in f:
        acc = 0
        size = 0
        while acc < part:
            acc += dhat[idx]
            idx += 1
            size += 1
        assert acc == part
        t.append(size)
    return MeasurableModel(f, dhat, tuple(t), prefix_sums(tuple(t)))


def model_dimension_drop(model: MeasurableModel) -> int:
    """Dimension lost by the projection from the model's flag manifold:
    sum over merged groups of the pairwise products of their parts."""
    drop = 0
    for start, stop in model.groups:
        parts = model.dhat[start:stop]
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                drop += a * b
    return drop


def strictly_decreasing_blocks_check(word: Sequence[int],
                                     model: MeasurableModel) -> bool:
    """Within every merged group, consecutive blocks must be strictly
    decreasing: the last element of each later block below the first element
    of the block before it.

    >>> model = measurable_model((3, 3, 2))
    >>> strictly_decreasing_blocks_check((5, 7, 2, 3, 8, 1, 4, 6), model)
    True
    >>> strictly_decreasing_blocks_check((5, 7, 3, 1, 8, 2, 4, 6), model)
    False
    """
    ends = prefix_sums(model.dhat)
    for start, stop in model.groups:
        for i in range(start, stop - 1):
            if max(word[ends[i]:ends[i + 1]]) >= min(word[ends[i] - model.dhat[i]:ends[i]]):
                return False
    return True


def project_to_coarse(word: Sequence[int], model: MeasurableModel) -> Word:
    """Merge each group's blocks and sort: the minimal representative for f."""
    return minimal_coset_representative(tuple(word), model.f)


def through_model(f: Sequence[int], enumerate_symmetric) -> list[Word]:
    """Words for any dimension sequence from an enumerator of symmetric ones:
    ``enumerate_symmetric(f)`` itself when f is symmetric, otherwise the
    model's words passing the strictly-decreasing-blocks condition, projected
    to f and sorted."""
    f = check_dims(f)
    if classify_symmetry(f).is_symmetric:
        return enumerate_symmetric(f)
    model = measurable_model(f)
    return sorted(project_to_coarse(word, model)
                  for word in enumerate_symmetric(model.dhat)
                  if strictly_decreasing_blocks_check(word, model))


def enumerate_nonmeasurable(f: Sequence[int]) -> list[Word]:
    """Schubert words for an asymmetric dimension sequence, via the symmetric
    model and the strictly-decreasing-blocks projection.

    >>> enumerate_nonmeasurable((1, 5))
    [(2, 1, 3, 4, 5, 6)]
    """
    return through_model(f, enumerate_measurable)


def homology_coefficient(dims: Sequence[int]) -> int:
    """Coefficient of the cycle's class expansion for this real form: the
    per-cycle intersection-point count of the relevant (model) sequence."""
    dims = check_dims(dims)
    cls = classify_symmetry(dims)
    if cls.is_symmetric:
        return intersection_count_measurable(dims)
    return intersection_count_measurable(measurable_model(dims).dhat)
