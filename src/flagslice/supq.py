"""
Combinatorics of Schubert varieties meeting base cycles for the indefinite
unitary real form SU(p,q) on C^n, n = p + q.

Open orbits carry signature data: per block, counts (a_i, b_i) of negative
and positive directions, equivalently a sign sequence with q minuses and p
pluses.  Words live in the Weyl group adapted to the Iwasawa reference basis
(e_1 + e_2q, ..., e_q + e_(q+1), e_(2q+1), ..., e_n, e_q - e_(q+1), ...,
e_1 - e_2q); the canonical isomorphism gamma maps them back to the standard
torus.  The pairing condition (n-i+1 left of i) detects Schubert varieties
meeting some open orbit; the strictly pairing condition (pairs placed
adjacently, ignoring earlier pairs, singles increasing) detects the
complementary-dimension ones.  Each such variety meets exactly 2^q open
orbits, once each, in a coordinate flag.  The pairing condition has one
function, stated block by block for a dimension sequence ``dims``; complete
flags, the default ``dims``, are the case where every block has one letter.

Two walks build the words.  ``enumerate_i_pq`` inserts the pairs one at a
time, from pair q down to pair 1, into every gap of the words of the level
below, and emits each level in lexicographic order without a sort, by a
post-order walk over the level below read as a trie.  The orbit walk
(``_orbit_rows``) places an orbit's pairs as the strictly pairing
condition states them, pair 1 first, each on two neighbouring free slots
of opposite sign, then the singles, and sorts the words it finds; it serves
``words_for_orbit`` and ``enumerate_for_orbit_gp``, which reads the
intersection point off the filled word.  The tests check each walk against
the other.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from . import _lazy
from .permutations import (Dims, Word, blocks, check_word,
                           double_factorial_descending,
                           minimal_coset_representative, ordered_partitions,
                           prefix_sums)

flags = _lazy("flags")


class OrbitDescriptor(NamedTuple("OrbitDescriptor", [("p", int), ("q", int),
                                                     ("a", tuple[int, ...]),
                                                     ("b", tuple[int, ...])])):
    """An open orbit: per-block negative counts ``a`` and positive counts
    ``b`` against a dimension sequence d_i = a_i + b_i."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, a: tuple[int, ...], b: tuple[int, ...]):
        if p < q or q < 0 or p < 1:
            raise ValueError("need p >= q >= 0 and p >= 1")
        if len(a) != len(b):
            raise ValueError("a and b need the same number of blocks")
        if any(x < 0 for x in a + b):
            raise ValueError("block counts must be nonnegative")
        if sum(a) != q or sum(b) != p:
            raise ValueError("block counts must sum to q and p")
        if any(x + y < 1 for x, y in zip(a, b)):
            raise ValueError("every block must be nonempty")
        return super().__new__(cls, p, q, a, b)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dims(self) -> Dims:
        return tuple(x + y for x, y in zip(self.a, self.b))

    @property
    def f(self) -> tuple[int, ...]:
        """Per-block pair capacities min(a_i, b_i)."""
        return tuple(min(x, y) for x, y in zip(self.a, self.b))


def parse_sign_sequence(text: str) -> str:
    """Strip block parentheses and validate the sign alphabet.

    >>> parse_sign_sequence("(-+)(-+++)(-++)")
    '-+-+++-++'
    """
    flat = text.replace("(", "").replace(")", "").replace(" ", "")
    if not flat or any(ch not in "+-" for ch in flat):
        raise ValueError(f"not a sign sequence: {text!r}")
    return flat


def format_sign_sequence(alpha: str, dims: Sequence[int] | None = None) -> str:
    """
    >>> format_sign_sequence("-+-+++-++", (2, 4, 3))
    '(-+)(-+++)(-++)'
    """
    if dims is None:
        return alpha
    return "".join("(" + "".join(block) + ")" for block in blocks(alpha, dims))


def sign_sequence_of(desc: OrbitDescriptor) -> str:
    """Canonical sign pattern of an orbit: per block, min(a,b) minuses, the
    majority sign |a-b| times, then min(a,b) pluses.

    >>> desc = OrbitDescriptor(6, 3, (1, 1, 1), (1, 3, 2))
    >>> format_sign_sequence(sign_sequence_of(desc), desc.dims)
    '(-+)(-+++)(-++)'
    """
    parts = []
    for x, y in zip(desc.a, desc.b):
        f = min(x, y)
        majority = "-" * (x - y) if x > y else "+" * (y - x)
        parts.append("-" * f + majority + "+" * f)
    return "".join(parts)


def orbit_from_signs(p: int, q: int, alpha: str,
                     dims: Sequence[int] | None = None) -> OrbitDescriptor:
    """Read per-block counts off a sign sequence; ``dims`` defaults to
    complete flags.

    >>> orbit_from_signs(3, 2, "(-+)(-++)", (2, 3))
    OrbitDescriptor(p=3, q=2, a=(1, 1), b=(1, 2))
    >>> orbit_from_signs(2, 1, "+-+").a
    (0, 1, 0)
    """
    alpha = parse_sign_sequence(alpha)
    if len(alpha) != p + q or alpha.count("-") != q:
        raise ValueError(f"sign sequence must have {q} minuses and {p} pluses")
    parts = blocks(alpha, (1,) * len(alpha) if dims is None else dims)
    return OrbitDescriptor(p, q, tuple(block.count("-") for block in parts),
                           tuple(block.count("+") for block in parts))


def open_orbit_count(p: int, q: int) -> int:
    """Number of open orbits on complete flags: n choose p.

    >>> open_orbit_count(3, 2)
    10
    """
    return comb(p + q, p)


def cycle_dimension_su(a: Sequence[int], b: Sequence[int]) -> int:
    """dim C for the orbit with block counts (a, b):
    sum_{i<j} a_i a_j + sum_{i<j} b_i b_j.

    >>> cycle_dimension_su((0, 1, 0, 1, 0), (1, 0, 1, 0, 1))
    4
    """
    return sum(x * y for seq in (a, b) for x, y in combinations(seq, 2))


def schubert_dimension_su(a: Sequence[int], b: Sequence[int]) -> int:
    """Complementary dimension sum_{i<j} (a_i b_j + b_i a_j).

    >>> schubert_dimension_su((3, 1), (2, 5))
    17
    """
    return sum(a[i] * b[j] + b[i] * a[j] for i, j in combinations(range(len(a)), 2))


def gamma_i(i: int, p: int, q: int) -> int:
    """Canonical isomorphism between the Iwasawa-adapted and standard Weyl
    letters: fixes 1..q, shifts q+1..p up by q, pulls >p down by p-q.

    >>> gamma_i(6, 4, 2), gamma_i(2, 4, 2), gamma_i(3, 4, 2)
    (4, 2, 5)
    """
    if i <= q:
        return i
    if i <= p:
        return i + q
    return i - p + q


def gamma_i_word(word: Sequence[int], p: int, q: int) -> Word:
    """
    >>> gamma_i_word((6, 1, 5, 2, 3, 4), 4, 2)
    (4, 1, 3, 2, 5, 6)
    """
    return tuple(gamma_i(v, p, q) for v in check_word(word))


def pairing_check(word: Sequence[int], p: int, q: int,
                  dims: Sequence[int] | None = None) -> bool:
    """The block of n-i+1 is not right of the block of i, for every i <= q:
    rearrangements inside blocks can then move n-i+1 left of i.  On complete
    flags (``dims`` None) that is n-i+1 sitting left of i.

    >>> pairing_check((6, 1, 5, 2, 3, 4), 4, 2)
    True
    >>> pairing_check((1, 6, 5, 2, 3, 4), 4, 2)
    False
    >>> pairing_check((3, 4, 1, 5, 6, 2), 4, 2, (1, 1, 3, 1))
    True
    """
    word = check_word(word)
    n = p + q
    if len(word) != n:
        raise ValueError("word length must be p + q")
    parts = blocks(word, (1,) * n if dims is None else dims)
    block_of = {v: j for j, block in enumerate(parts) for v in block}
    return all(block_of[n - i + 1] <= block_of[i] for i in range(1, q + 1))


def strictly_pairing_check_su(word: Sequence[int], p: int, q: int) -> bool:
    """Pairs (n-i+1, i) adjacent once earlier pairs are deleted, in order
    i = 1..q, with the singles q+1..p left in increasing order.

    >>> strictly_pairing_check_su((5, 6, 1, 2, 3, 4), 4, 2)
    True
    >>> strictly_pairing_check_su((4, 5, 6, 1, 2, 3), 4, 2)
    False
    """
    word = check_word(word)
    n = p + q
    if len(word) != n or not pairing_check(word, p, q):
        return False
    survivors = list(word)
    for i in range(1, q + 1):
        big, small = n - i + 1, i
        idx = survivors.index(big)
        if idx + 1 >= len(survivors) or survivors[idx + 1] != small:
            return False
        del survivors[idx:idx + 2]
    singles = [v for v in word if q < v <= p]
    return singles == sorted(singles)


def count_i_pq(p: int, q: int) -> int:
    """(n-1)(n-3)...(n-2q+1), the number of complementary-dimension Schubert
    varieties meeting some open orbit.

    >>> count_i_pq(4, 2)
    15
    """
    return double_factorial_descending(p + q, q)


def enumerate_i_pq(p: int, q: int, letters: Sequence | None = None) -> list[Word]:
    """All words passing the strictly pairing condition, lexicographically;
    with ``letters``, each letter v spelt ``letters[v]``, in the same order,
    as the walk below reads letters only to insert them and to test them
    for equality.

    The words grow one pair at a time, from pair q down to pair 1, out of
    the singles q+1..p, increasing: level i inserts the adjacent letters
    (n+1-i, i) into each gap t = 0..L of every word w of the level below,
    whose letters lie strictly between i and n+1-i.  Deleting pairs 1, 2,
    ... in turn undoes the insertions, so these are the strictly pairing
    words.  The order needs no sort.  As n+1-i exceeds every letter of w,
    insert(w, t) sorts after every word that extends the prefix w[:t]; so,
    with the sorted level below read as a trie, a post-order walk emits the
    level in order, each node w[:t] inserting at gap t into the words of its
    range.  A node closes where the common prefix of two neighbours ends.

    >>> enumerate_i_pq(3, 2)  # doctest: +NORMALIZE_WHITESPACE
    [(3, 4, 2, 5, 1), (3, 4, 5, 1, 2), (3, 5, 1, 4, 2), (4, 2, 3, 5, 1),
     (4, 2, 5, 1, 3), (4, 5, 1, 2, 3), (5, 1, 3, 4, 2), (5, 1, 4, 2, 3)]
    >>> [len(enumerate_i_pq(p, q)) for p, q in ((3, 2), (4, 2), (3, 0))]
    [8, 15, 1]
    """
    if p < q or q < 0 or p < 1:
        raise ValueError("need p >= q >= 0 and p >= 1")
    n = p + q
    letters = range(n + 1) if letters is None else letters
    words: list[Word] = [tuple(letters[q + 1:p + 1])]
    # Every getter takes its positions from this one list, so each holds
    # pointers to the same ints rather than ints of its own.
    index = [*range(n)]
    for i in range(q, 0, -1):
        size, last = len(words[0]), len(words) - 1
        # base[j] is words[j] with the pair inserted at its end, and gets[t]
        # moves the pair to gap t.
        pair = letters[n + 1 - i], letters[i]
        base = [w + pair for w in words]
        gets = [itemgetter(*index[:t], *index[size:size + 2], *index[t:size])
                for t in range(size)]
        starts = [0] * size  # where the open node w[:t] of each depth began
        out: list[Word] = []
        for j, w in enumerate(words):
            out.append(base[j])  # The leaf w is a node of its own.
            common = -1
            if j < last:
                after = words[j + 1]
                common = 0
                while w[common] == after[common]:
                    common += 1
            for t in range(size - 1, common, -1):
                out.extend(map(gets[t], base[starts[t]:j + 1]))
                starts[t] = j + 1
        words = out
    return words


def perm_w(word: Sequence[int], p: int, q: int) -> list[Word]:
    """Standard-torus images of the 2^q transposition variants of the word.

    >>> perm_w((6, 1, 5, 2, 3, 4), 4, 2)
    [(1, 4, 2, 3, 5, 6), (1, 4, 3, 2, 5, 6), (4, 1, 2, 3, 5, 6), (4, 1, 3, 2, 5, 6)]
    """
    word = check_word(word)
    n = p + q
    if not pairing_check(word, p, q):
        raise ValueError("word fails the pairing condition")
    out = set()
    for picks in range(2 ** q):
        # Transposing the letters of the picked pairs i swaps i and n-i+1.
        swap = {v: n + 1 - v for i in range(1, q + 1) if picks >> (i - 1) & 1
                for v in (i, n + 1 - i)}
        out.add(gamma_i_word(tuple(swap.get(v, v) for v in word), p, q))
    return sorted(out)


def t_w(word: Sequence[int], p: int, q: int) -> list[flags.FlagMatrix]:
    """The coordinate flags of the transposition variants: the points where
    the Schubert variety meets the 2^q base cycles."""
    return [flags.FlagMatrix.coordinate_flag(v) for v in perm_w(word, p, q)]


def t_w_labels(word: Sequence[int], p: int, q: int) -> list[str]:
    """The orbit labels of ``t_w(word, p, q)``, in the same order, read off
    the coordinates: an entry <= q spans a negative direction, a larger one
    a positive direction.

    ``verify`` certifies this against ``orbit_label_su`` on every flag.

    >>> t_w_labels((6, 1, 5, 2, 3, 4), 4, 2)
    ['-+-+++', '-++-++', '+--+++', '+-+-++']
    """
    return ["".join("-" if v <= q else "+" for v in variant)
            for variant in perm_w(word, p, q)]


def enumerate_for_orbit(alpha: str, p: int, q: int,
                        ) -> list[tuple[Word, flags.FlagMatrix]]:
    """Complementary-dimension Schubert varieties meeting the complete-flag
    orbit of the sign sequence, each with its single intersection point: the
    partial-flag construction on blocks of size 1.

    >>> [w for w, _ in enumerate_for_orbit("+++-", 3, 1)]
    [(2, 3, 4, 1)]
    """
    return enumerate_for_orbit_gp(orbit_from_signs(p, q, alpha))


def fixed_points_in_cycle_count(p: int, q: int) -> int:
    """Torus-fixed points inside any single base cycle: q! p!.

    >>> fixed_points_in_cycle_count(3, 2)
    12
    """
    return factorial(q) * factorial(p)


# -- partial flags ---------------------------------------------------------------


def _orbit_rows(desc: OrbitDescriptor, row: Callable[[Word, list[int]], object]) -> list:
    """``row(word, filled)`` for each filled word of the orbit's strictly
    pairing placement, in order of ``word``, its minimal coset
    representative.

    The inner pairs (n+1-i, i), i <= F = sum min(a_j, b_j), are dealt
    min(a_j, b_j) to block j: their small letters, increasing, go on the
    block's first slots, which are minus slots in the canonical sign
    pattern, and their big letters, increasing, on its last slots, which
    are plus slots.  Then each pair i = F+1..q in turn goes on two free
    slots of opposite sign that are neighbours once the pairs before it
    are placed, big letter first, and the singles q+1..p take the slots
    left, in increasing order.  No placement dead-ends: each pair takes one
    of the q - F free minus slots and one free plus slot, so while a pair
    is left both signs are left, and some two neighbouring free slots
    differ in sign.
    """
    n, p, q, dims = desc.n, desc.p, desc.q, desc.dims
    signs = sign_sequence_of(desc)
    deltas = prefix_sums(dims)
    spans = list(zip((0,) + deltas, deltas, desc.f))
    first = sum(desc.f) + 1
    word = [0] * n
    rows: dict[Word, object] = {}

    def place(i: int, free: tuple[int, ...]) -> None:
        if i > q:
            for slot, single in zip(free, range(q + 1, p + 1)):
                word[slot] = single
            coset = minimal_coset_representative(tuple(word), dims)
            if coset in rows:
                raise AssertionError(f"two placements give one word for {desc}")
            rows[coset] = row(coset, word)
            return
        for k in range(len(free) - 1):
            left, right = free[k], free[k + 1]
            if signs[left] != signs[right]:
                word[left], word[right] = n + 1 - i, i
                place(i + 1, free[:k] + free[k + 2:])

    free = tuple(s for start, end, f in spans for s in range(start + f, end - f))
    for dealt in ordered_partitions(range(1, first), desc.f):
        for (start, end, f), chosen in zip(spans, dealt):
            word[start:start + f] = chosen
            word[end - f:end] = [n + 1 - i for i in reversed(chosen)]
        place(first, free)
    return [rows[coset] for coset in sorted(rows)]


def words_for_orbit(desc: OrbitDescriptor) -> list[Word]:
    """The words of ``enumerate_for_orbit_gp(desc)`` alone, lexicographically,
    without building a flag.

    >>> words_for_orbit(OrbitDescriptor(3, 2, (1, 1), (1, 2)))
    [(1, 5, 2, 3, 4), (2, 4, 1, 3, 5)]
    """
    return _orbit_rows(desc, lambda word, filled: word)


def enumerate_for_orbit_gp(desc: OrbitDescriptor,
                           ) -> list[tuple[Word, flags.FlagMatrix]]:
    """Schubert varieties of complementary dimension meeting a partial-flag
    orbit, lexicographically, each with its single intersection point.

    The point is read off the filled word of the placement walk (see
    ``_orbit_rows``): the slot of a single v holds e_(v+q); the slot of a
    pair letter of pair i holds e_i if it is a minus slot and e_(2q-i+1) if
    it is a plus slot.

    >>> desc = OrbitDescriptor(7, 4, (3, 1), (2, 5))
    >>> [len(enumerate_for_orbit_gp(desc)[0][0]), len(enumerate_for_orbit_gp(desc))]
    [11, 3]
    """
    n, q = desc.n, desc.q
    alpha = sign_sequence_of(desc)
    deltas = prefix_sums(desc.dims)

    def with_point(word: Word, filled: list[int]) -> tuple[Word, flags.FlagMatrix]:
        point = []
        for v, sign in zip(filled, alpha):
            i = min(v, n + 1 - v)
            point.append(v + q if i > q else i if sign == "-" else 2 * q + 1 - i)
        return word, flags.FlagMatrix.coordinate_flag(point, deltas)

    return _orbit_rows(desc, with_point)


def canonical_rearrangement_su(word: Sequence[int], desc: OrbitDescriptor) -> Word:
    """Lift of a partial-flag word to a strictly pairing complete-flag word:
    inside each block the small pair letters move, in increasing order, past
    the block's largest big letter (i.e. to the block's end).

    The small letters of block j are exactly its values <= sum of the pair
    capacities; the lift loses sum a_i b_i in length when sorted back.
    """
    total_f = sum(desc.f)
    out: list[int] = []
    for j, block in enumerate(blocks(check_word(word), desc.dims)):
        block = sorted(block)
        smalls = [v for v in block if v <= total_f]
        if len(smalls) != desc.f[j]:
            raise ValueError(
                f"block {j} does not carry {desc.f[j]} paired small letters")
        rest = [v for v in block if v > total_f]
        out.extend(rest + smalls)
    return tuple(out)


def canonical_lifting(desc: OrbitDescriptor) -> str:
    """Complete-flag sign sequence over the canonical pattern with each
    block's first min(a,b) minuses moved to the block's end.

    >>> canonical_lifting(OrbitDescriptor(7, 4, (3, 1), (2, 5)))
    '-++--+++++-'
    """
    parts = blocks(sign_sequence_of(desc), desc.dims)
    return "".join("".join(block[f:] + block[:f]) for block, f in zip(parts, desc.f))
