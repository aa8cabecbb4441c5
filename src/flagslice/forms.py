"""
The one place that picks, per real form and flag type, the words, count,
complementary length, intersection-point rows, coefficient and context of a
request.  Flag types: complete, symmetric or asymmetric ``dims`` for slnr
and slmh; no orbit, a complete-flag orbit or a partial-flag orbit for supq.
The command line prints what these functions give, and ``verify`` reads the
same words, counts, lengths and rows through them.  Each fact is decided
once: ``words`` and ``word_texts`` share one dispatch, and the size check
and ``points`` share one refusal of the requests that have no points.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import comb
from typing import Iterator, NamedTuple, Sequence

from . import _lazy
from .permutations import Dims, Word, check_dims, classify_symmetry, format_dims

flags, gaussian = _lazy("flags"), _lazy("gaussian")
slmh, slnr, supq = _lazy("slmh"), _lazy("slnr"), _lazy("supq")

FORMS = ("slnr", "slmh", "supq")


class Request(NamedTuple("Request", [("form", str), ("n", int | None), ("p", int | None),
                                     ("q", int | None), ("dims", Dims | None),
                                     ("orbit", str | None)])):
    """A validated question: slnr and slmh take ``n``, supq takes ``p``,
    ``q`` and optionally an ``orbit`` sign sequence; ``dims`` defaults to
    complete flags."""

    __slots__ = ()

    def __new__(cls, form: str, n: int | None = None, p: int | None = None,
                q: int | None = None, dims: Dims | None = None, orbit: str | None = None):
        if form not in FORMS:
            raise ValueError(f"unknown real form {form!r}")
        for name, value in ((("n", n),) if form == "supq"
                            else (("p", p), ("q", q), ("orbit", orbit))):
            if value is not None:
                raise ValueError(f"{form} does not take --{name}")
        if form == "supq":
            if p is None or q is None:
                raise ValueError("supq needs --p and --q")
            if not (p >= q >= 0 and p >= 1):
                raise ValueError("supq requires p >= q >= 0 and p >= 1")
        else:
            if n is None:
                raise ValueError(f"{form} needs --n")
            if n < 1:
                raise ValueError("--n must be positive")
            if form == "slmh" and n % 2:
                raise ValueError("slmh requires even n")
        if dims is not None:
            dims = check_dims(dims)
            size = p + q if form == "supq" else n
            if sum(dims) != size:
                raise ValueError(f"--dims {format_dims(dims)} must sum to "
                                 f"the ambient dimension {size}")
        if orbit is not None:
            orbit = supq.parse_sign_sequence(orbit)
            supq.orbit_from_signs(p, q, orbit)  # checks the signs against p, q
        req = super().__new__(cls, form, n, p, q, dims, orbit)
        if form == "supq" and orbit is None and not req.complete:
            raise ValueError("supq partial flags need --orbit")
        return req

    @property
    def size(self) -> int:
        """The ambient dimension: n, or p + q for supq."""
        return self.p + self.q if self.form == "supq" else self.n

    @property
    def flag_dims(self) -> Dims:
        """``dims``, all ones for complete flags."""
        return self.dims or (1,) * self.size

    @property
    def complete(self) -> bool:
        # Positive parts summing to the size are all ones when there are size of them.
        return self.dims is None or len(self.dims) == self.size


def words(req: Request) -> list[Word]:
    """The Schubert words meeting the cycle(s), lexicographically."""
    return _words(req)


def word_texts(req: Request) -> list[tuple[str, ...]]:
    """``words(req)`` with each letter v spelt ``str(v)``, in the same order:
    ``enumerate`` and ``homology`` print these."""
    return _words(req, [*map(str, range(req.size + 1))])


def _words(req: Request, letters: Sequence | None = None) -> list[tuple]:
    """``words(req)``, each letter v spelt ``letters[v]`` (v by default):
    by the enumerators of complete flags and symmetric ``dims`` as they
    build the words, afterwards for the int-sorted words of the rest."""
    if req.orbit is not None:
        found = supq.words_for_orbit(_orbit(req))
    elif req.form == "supq":
        return supq.enumerate_i_pq(req.p, req.q, letters)
    else:
        enumerate_symmetric = (slnr.enumerate_measurable if req.form == "slnr"
                               else slmh.enumerate_measurable_h)
        if classify_symmetry(req.flag_dims).is_symmetric:
            return enumerate_symmetric(req.flag_dims, letters)
        found = slnr.through_model(req.dims, enumerate_symmetric)
    return found if letters is None else [tuple(map(letters.__getitem__, w)) for w in found]


def length(req: Request) -> int:
    """The complementary dimension dim Z - dim C of the request's cycle, in
    closed form: the inversion count of every word of ``words(req)``.

    - Complete flags: ``slnr.expected_length_gb(n)``, m^2 for n = 2m and
      m^2 + m for n = 2m + 1; ``slmh.expected_length_gb_h(n // 2)``, m^2 - m;
      p * q for supq.
    - Symmetric ``dims``: the complete-flag length minus
      ``slnr.rearrangement_length_drop(dims)``, or for slmh minus
      ``slmh.rearrangement_length_drop_h(dims)``.
    - Asymmetric ``dims``: the symmetric length of the model
      ``slnr.measurable_model(dims).dhat``, minus dhat_i * dhat_j for each
      pair i < j of model blocks that merge into one block of ``dims``
      (``slnr.model_dimension_drop``).
    - supq ``--orbit`` with block counts (a, b):
      ``supq.schubert_dimension_su(a, b)``, the sum over blocks i < j of
      a_i b_j + b_i a_j.

    ``verify`` certifies it against the words' inversion counts.
    """
    if req.form == "supq":
        if req.orbit is None:
            return req.p * req.q
        desc = _orbit(req)
        return supq.schubert_dimension_su(desc.a, desc.b)
    if req.form == "slnr":
        full, drop = slnr.expected_length_gb(req.n), slnr.rearrangement_length_drop
    else:
        full, drop = slmh.expected_length_gb_h(req.n // 2), slmh.rearrangement_length_drop_h
    dims = req.flag_dims
    if classify_symmetry(dims).is_symmetric:
        return full - drop(dims)
    model = slnr.measurable_model(dims)
    return full - drop(model.dhat) - slnr.model_dimension_drop(model)


def closed_count(req: Request) -> int | None:
    """The number of words of a request, from its closed form; None for
    asymmetric ``dims`` and supq orbits, which have none.  A count too long
    to print is given as 10^``printable_digits()``, once the product gets
    there, so no request builds anything the size of its n here.

    - slnr and slmh, complete flags: (n-1)(n-3)... and (n/2)!.
    - Symmetric ``dims`` with core parts c_j: block pair j takes c_j
      disjoint pairs of neighbours from the r_j letters left, r_0 = n and
      r_(j+1) = r_j - 2 c_j.  For slnr that is binom(r_j - c_j, c_j) ways,
      pairs on a path of r_j letters; for slmh binom(r_j / 2, c_j), over
      the aligned pairs (2v-1, 2v).  binom(a, k) >= (a / k)^k for
      k <= a - k, so a factor whose bound is past the cap is not computed.
    - supq without an orbit: ``supq.count_i_pq(p, q)``, q factors of (n-1)(n-3)...
    """
    if req.orbit is not None:
        return None
    cap = _cap()
    if req.form == "supq":
        factors = range(req.size - 1, req.p - req.q, -2)
    elif req.complete:
        factors = range(req.n - 1, 0, -2) if req.form == "slnr" else range(req.n // 2, 0, -1)
    else:
        cls = classify_symmetry(req.dims)
        if not cls.is_symmetric:
            return None

        def binom(a: int, k: int) -> int:
            k = min(k, a - k)
            if cap and k and k * ((a // k).bit_length() - 1) >= cap.bit_length():
                return cap  # (a / k)^k, a lower bound, is past it.
            return comb(a, k)
        lefts = accumulate(cls.core, lambda left, c: left - 2 * c, initial=req.n)
        factors = (binom(left - c, c) if req.form == "slnr" else binom(left // 2, c)
                   for left, c in zip(lefts, cls.core))
    total = 1
    for factor in factors:
        total *= factor
        if cap and total >= cap:
            return cap
    return total


def count(req: Request) -> int:
    """The number of words: the closed form where there is one, else the enumeration's."""
    total = closed_count(req)
    return len(words(req)) if total is None else total


def printable_digits() -> int:
    """The most digits Python prints of an int (0: no limit, as before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _cap() -> int:
    """10^``printable_digits()``, the least count too long to print; 0 for no limit."""
    digits = printable_digits()
    return digits and 10 ** digits


# The command line writes each row as it is built, but builds the word list
# of a request whole, so it refuses a request with a closed count over its
# budget, or with asymmetric dims whose symmetric model's count is over it,
# before anything is enumerated.  A word of n letters is a tuple of n
# ints and prints as about 9 bytes per letter, and a flag prints about 110
# bytes of JSON per entry of its n x n matrix, so the budgets count the
# letters of the words and the entries of the flags: MAX_LETTERS is a
# million words of 16 letters, MAX_ENTRIES the 30240 flags of points slnr
# --n 10, about 360 MB of JSON.  Measured with streamed rows (child peak
# resident set, Python 3.11, 2-vCPU host): enumerate slnr --n 15 (645120
# words) takes 0.6 s and peaks at 129 MB, about 0.2 KB per word: the word
# tuples, plus one itemgetter per word of n = 13 while the first block pair
# is read off; enumerate supq --p 3999 --q 1 (3999 words of 4000 letters)
# takes 1.0 s, a peak of 260 MB, most of it one itemgetter of 4000 positions
# per gap, and prints 151 MB; points slnr --n 10 (945
# words, 343 MB of JSON) peaks at 18 MB and takes 1.0 s, points supq --p 6
# --q 4 (15120 flags) 17 MB and 0.9 s.  The number of words or flags needs
# no budget of its own: more than a million words of 16 or more letters, or
# more than 32000 flags of 10 x 10 or more entries, exceed these budgets,
# and no smaller request has that many (the most are 645120 words at n = 15
# and 6144 flags at n = 9).
MAX_LETTERS = 16_000_000
MAX_ENTRIES = 3_200_000


def check_size(req: Request, points: bool = False) -> None:
    """Raise ValueError when the letters of a request's words, or the
    entries of their intersection flags when ``points`` is set, exceed
    their budget, and for ``points`` a request without points
    (``_check_points``).  Asymmetric ``dims`` have no closed count: their
    words come from the words of their symmetric model, so the model's
    closed count bounds them.  supq orbits are not checked."""
    if points:
        _check_points(req)
    if req.orbit is not None:
        return
    total, cap, digits = closed_count(req), _cap(), printable_digits()
    # A number past the cap is a lower bound (the count stops there), too long to print.
    text = lambda v: str(v) if not cap or v < cap else f"at least 10^{digits}"
    n, source = req.size, ""
    if total is None:
        model = slnr.measurable_model(req.dims).dhat
        total = closed_count(req._replace(dims=model))
        source = f" in the symmetric model {format_dims(model)}"
    if points:
        # 2^log points per word: slnr 2^(n/2), supq 2^q, slmh one.
        log = req.n // 2 if req.form == "slnr" else req.q if req.form == "supq" else 0
        found = cap if cap and log >= cap.bit_length() else total << log
        if found * n * n > MAX_ENTRIES:
            raise ValueError(f"{text(found)} intersection points of {n} x {n} entries "
                             f"({text(found * n * n)} in all) exceed the limit of "
                             f"{MAX_ENTRIES} entries per request")
    elif total * n > MAX_LETTERS:
        raise ValueError(f"{text(total)} words of {n} letters{source} ({text(total * n)} in all) "
                         f"exceed the limit of {MAX_LETTERS} letters per request")


def _check_points(req: Request) -> None:
    """Raise ValueError for a request whose intersection points are not
    computed: slnr partial flags and slmh asymmetric ``dims``."""
    if req.form == "slnr" and not req.complete:
        raise ValueError("slnr intersection points are computed for complete flags only")
    if req.form == "slmh" and not (req.complete or classify_symmetry(req.dims).is_symmetric):
        raise ValueError("slmh intersection points need a symmetric dimension sequence")


def points(req: Request) -> tuple[tuple[str, ...],
                                  Iterator[tuple[Word, list[flags.FlagMatrix], tuple]]]:
    """The rows of ``points``: the names of the further fields, and per
    word of ``words(req)`` the word, its intersection flags (at least one)
    and the values of those fields.  A request without points raises
    ValueError here, before any row is built.  The command line prints
    these rows and ``verify`` certifies them against the oracle.

    >>> fields, rows = points(Request("supq", p=1, q=1))
    >>> fields
    ('orbits',)
    >>> [(word, len(found), values) for word, found, values in rows]
    [((2, 1), 2, (['-+', '+-'],))]
    """
    _check_points(req)
    if req.form == "slnr":
        fields = ("orientations",) if req.n % 2 == 0 else ()
        return fields, ((word, slnr.intersection_points_gb(word),
                         (slnr.orientations_gb(word),) if fields else ())
                        for word in words(req))
    if req.form == "slmh":
        dims = req.flag_dims
        # Each point reorders these columns, so one exact rank check covers them all.
        basis = slmh.quaternion_pair_columns(range(1, req.n // 2 + 1))
        if gaussian.rank([gaussian.gq_of(col, 1) for col in basis]) != req.n:
            raise ArithmeticError("slmh intersection columns are linearly dependent")
        return (), ((word, [slmh.intersection_point_measurable_h(word, dims)], ())
                    for word in slmh.enumerate_measurable_h(dims))
    if req.orbit is None:
        p, q = req.p, req.q
        return ("orbits",), ((word, supq.t_w(word, p, q), (supq.t_w_labels(word, p, q),))
                             for word in words(req))
    return (), ((word, [flag], ()) for word, flag in supq.enumerate_for_orbit_gp(_orbit(req)))


def coefficient(req: Request) -> int:
    """The coefficient of the cycle class expansion."""
    if req.form == "slnr":
        return slnr.homology_coefficient(req.flag_dims)
    if req.form == "supq" and req.orbit is None:
        return 2 ** req.q
    return 1


def context(req: Request) -> tuple[tuple[str, str], ...]:
    """The key/value pairs that say which cycle an expansion is of."""
    dims = ("dims", format_dims(req.flag_dims))
    if req.form != "supq":
        return (("form", req.form), ("n", str(req.n)), dims)
    head = (("form", "supq"), ("p", str(req.p)), ("q", str(req.q)))
    if req.orbit is None:
        return head + (("cycle", "total"),)
    return head + (dims, ("orbit", req.orbit))


def _orbit(req: Request) -> supq.OrbitDescriptor:
    return supq.orbit_from_signs(req.p, req.q, req.orbit, req.dims)
