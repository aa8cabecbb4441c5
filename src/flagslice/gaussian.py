"""
The Gaussian rationals Q(i) at the boundary, and the one exact arithmetic:
a fraction-free linear-algebra kernel over the Gaussian integers Z[i].

`GaussianRational` (a pair of `fractions.Fraction` that does no arithmetic)
is the scalar type of the public API and of the JSON wire format.  The
kernel never touches it: a Z[i] vector is a tuple of integer pairs (re, im),
and ``clear`` turns a vector over Q(i) into a Z[i] vector and one positive
denominator.  Scaling a vector by a nonzero number keeps the span it
generates, so ranks, pivot rows and spans can all be read from cleared vectors.

The kernel is one-step fraction-free Gauss-Jordan elimination (Bareiss 1968,
Math. Comp. 22) and its congruence variant for Hermitian forms.  Every
division is exact in Z[i], entries stay bounded by minors of the input, and
``_divide_exact`` multiplies each quotient back, so a division that leaves a
remainder raises ArithmeticError rather than corrupt the result.  A row
update with a real pivot and a real multiplier takes two products per part.
``rank``, ``det``, ``solve_columns``, ``pivot_rows`` and
``subspace_canonical`` are thin adapters from Q(i) to the kernel.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm, prod
from typing import Iterable, Sequence


class GaussianRational:
    """A complex number re + im*i with rational real and imaginary parts: a
    value at the API and JSON boundary, with no arithmetic of its own."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def of(cls, value) -> "GaussianRational":
        return value if isinstance(value, GaussianRational) else cls(value)

    @classmethod
    def from_quad(cls, quad: Sequence[int]) -> "GaussianRational":
        """Build from the wire form [re_num, re_den, im_num, im_den]."""
        a, b, c, d = quad
        return cls(Fraction(a, b), Fraction(c, d))

    def to_quad(self) -> list[int]:
        """Wire form [re_num, re_den, im_num, im_den], lowest terms."""
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GQ({self.re}, {self.im})" if self.im else f"GQ({self.re})"


GQ = GaussianRational
I = GQ(0, 1)


def gq_vector(entries: Iterable) -> tuple[GaussianRational, ...]:
    return tuple(GQ.of(e) for e in entries)


# -- the Z[i] kernel ---------------------------------------------------------

ZVector = tuple[tuple[int, int], ...]


def clear(vec: Sequence[GaussianRational]) -> tuple[ZVector, int]:
    """A vector over Q(i) as a Z[i] vector and its least positive denominator."""
    ratios = [(x.re.as_integer_ratio(), x.im.as_integer_ratio()) for x in vec]
    den = lcm(*(b for (_, b), _ in ratios), *(d for _, (_, d) in ratios))
    return tuple((a * (den // b), c * (den // d)) for (a, b), (c, d) in ratios), den


def lowest_terms(vec: Sequence[tuple[int, int]], den: int) -> tuple[ZVector, int]:
    """vec/den in the form ``clear`` gives it (den > 0); vec itself if coprime."""
    g = gcd(den, *chain.from_iterable(vec))
    if g == 1:
        return tuple(vec), den
    return tuple((a // g, b // g) for a, b in vec), den // g


def gq_of(vec: Sequence[tuple[int, int]], den: int) -> tuple[GaussianRational, ...]:
    """The vector vec/den over Q(i)."""
    return tuple(GQ(Fraction(a, den), Fraction(b, den)) for a, b in vec)


def gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def _divide_exact(vec: list[tuple[int, int]], by: tuple[int, int]) -> list[tuple[int, int]]:
    """vec / by for a division Bareiss guarantees exact: one ``//`` pass by the
    real norm of ``by``, then each quotient multiplied back must give the
    dividend, so a remainder raises ArithmeticError and corrupts nothing."""
    c, d = by
    if d:
        vec = [(a * c + b * d, b * c - a * d) for a, b in vec]
        c = c * c + d * d
    quotients = [(a // c, b // c) for a, b in vec]
    if [(qa * c, qb * c) for qa, qb in quotients] != vec:
        raise ArithmeticError("inexact division during fraction-free elimination")
    return quotients


def eliminate(rows: list, width: int | None = None, reduce: bool = False,
              ) -> tuple[list[int], tuple[int, int]]:
    """One-step fraction-free elimination of the Z[i] vectors in ``rows``,
    in order, overwriting ``rows``.  A row independent of the rows before it
    pivots at its lowest nonzero entry among the first ``width``, a position
    that depends only on the span of the rows up to it.  A pivot step clears
    its position from the later rows and, with ``reduce`` (Gauss-Jordan), from
    the earlier ones, which leaves every pivot entry equal to the last pivot.
    A row becomes (lead * row - entry * pivot row) / previous lead, with two
    products per part when lead and entry are both real.  Returns each row's
    pivot position (-1: dependent) and the last pivot.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    marks = [-1] * len(rows)
    prev = (1, 0)
    found = 0
    for k, row in enumerate(rows):
        at = width - 1
        while at >= 0 and row[at] == (0, 0):
            at -= 1
        if at < 0:
            continue
        marks[k] = at
        lr, li = lead = row[at]
        keep, negate = lead == prev, lead == (-prev[0], -prev[1])
        for i in range(0 if reduce else k + 1, len(rows)):
            other = rows[i]
            hr, hi = other[at]
            if i == k or keep and not (hr or hi):
                continue
            if negate and not (hr or hi):
                rows[i] = [(-ar, -ai) for ar, ai in other]
                continue
            if li or hi:
                other = [(lr * ar - li * ai - hr * br + hi * bi,
                          lr * ai + li * ar - hr * bi - hi * br)
                         for (ar, ai), (br, bi) in zip(other, row)]
            else:
                other = [(lr * ar - hr * br, lr * ai - hr * bi)
                         for (ar, ai), (br, bi) in zip(other, row)]
            rows[i] = other if prev == (1, 0) else _divide_exact(other, prev)
        prev = lead
        found += 1
        if found == width:
            break
    return marks, prev


def prefix_ranks(vectors: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Entry i is the rank of the first i vectors (Z[i] vectors)."""
    return list(accumulate((int(at >= 0) for at in eliminate(list(vectors))[0]), initial=0))


def zdet(vectors: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, int]:
    """Determinant of a square Z[i] matrix given by its rows (or columns)."""
    marks, last = eliminate(list(vectors))
    if -1 in marks:
        return (0, 0)
    swaps = sum(a > b for i, a in enumerate(marks) for b in marks[i + 1:])
    return (-last[0], -last[1]) if swaps % 2 else last


def zsolve(basis: Sequence[Sequence[tuple[int, int]]],
           targets: Sequence[Sequence[tuple[int, int]]],
           ) -> tuple[list[list[tuple[int, int]]], tuple[int, int]]:
    """Coordinates of the targets in the basis (all Z[i] columns), scaled by
    one nonzero factor: returns (Y, d) with basis * Y = d * targets."""
    n = len(basis)
    if any(len(col) != n for col in basis):
        raise ValueError("basis vectors must have length equal to their count")
    rows = [[col[r] for col in basis] + [t[r] for t in targets] for r in range(n)]
    marks, last = eliminate(rows, n, reduce=True)
    if -1 in marks:
        raise ValueError("singular basis matrix")
    ordered = [row for _, row in sorted(zip(marks, rows), key=lambda pair: pair[0])]
    return [[row[n + t] for row in ordered] for t in range(len(targets))], last


def zcanonical(vectors: Sequence[Sequence[tuple[int, int]]]) -> tuple[tuple[ZVector, int], ...]:
    """Canonical form of the span of Z[i] vectors: the fully reduced column
    echelon form with pivot entries 1, ordered by pivot row, each column as
    ``lowest_terms`` gives it.  Equal spans give equal values.  One vector
    needs no elimination: it is taken over its last nonzero entry."""
    rows = list(vectors)
    if len(rows) == 1:
        lead = next((x for x in reversed(rows[0]) if x != (0, 0)), None)
        marks, (lr, li) = ([0], lead) if lead else ([-1], (1, 0))
    else:
        marks, (lr, li) = eliminate(rows, reduce=True)
    norm = lr * lr + li * li
    ordered = sorted((at, k) for k, at in enumerate(marks) if at >= 0)
    return tuple(lowest_terms([(a * lr + b * li, b * lr - a * li) for a, b in rows[k]], norm)
                 for _, k in ordered)


def inertia(gram: Sequence[Sequence[tuple[int, int]]], ends: Sequence[int],
            ) -> list[tuple[int, int, int]]:
    """Inertia (neg, pos, null) of a Hermitian Z[i] Gram matrix restricted to
    each leading block ``gram[:e][:e]`` for e in ``ends`` (increasing).

    Fraction-free congruence: Bareiss elimination with symmetric pivots taken
    block by block.  The pivots are leading principal minors, real for a
    Hermitian matrix, and the sign a pivot adds is its sign against the
    previous one.  When a block has only zeros left on its diagonal but not
    off it, v_a += v_b or v_a += i v_b makes a diagonal entry nonzero.  Stops
    after the first degenerate block: the later prefixes are not needed.
    """
    g = [list(row) for row in gram]
    rest = list(range(len(g)))
    neg = pos = 0
    prev = 1
    out = []
    for end in ends:
        block = [a for a in rest if a < end]
        while block:
            p = next((a for a in block if g[a][a] != (0, 0)), None)
            if p is None:
                a, b = next(((a, b) for a in block for b in block if g[a][b] != (0, 0)),
                            (None, None))
                if a is None:
                    break
                lr, li = (1, 0) if g[a][b][0] else (0, 1)
                for r in rest:
                    (xr, xi), (yr, yi) = g[a][r], g[b][r]
                    g[a][r] = (xr + lr * yr - li * yi, xi + lr * yi + li * yr)
                for r in rest:
                    (xr, xi), (yr, yi) = g[r][a], g[r][b]
                    g[r][a] = (xr + lr * yr + li * yi, xi + lr * yi - li * yr)
                continue
            d, d_im = g[p][p]
            if d_im:
                raise ArithmeticError("Hermitian pivot is not real")
            if (d > 0) == (prev > 0):
                pos += 1
            else:
                neg += 1
            block.remove(p)
            rest.remove(p)
            for a in rest:
                er, ei = g[a][p]
                new = [(d * xr - er * yr + ei * yi, d * xi - er * yi - ei * yr)
                       for (xr, xi), (yr, yi) in zip(g[a], g[p])]
                g[a] = new if prev == 1 else _divide_exact(new, (prev, 0))
            prev = d
        out.append((neg, pos, len(block)))
        if block:
            break
    return out


# -- adapters from Q(i) -------------------------------------------------------


def rank(vectors: Sequence[Sequence[GaussianRational]]) -> int:
    """Exact rank of the matrix whose rows are the given vectors."""
    return prefix_ranks([clear(v)[0] for v in vectors])[-1]


def det(columns: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """Exact determinant of a square matrix given by its columns."""
    n = len(columns)
    if any(len(col) != n for col in columns):
        raise ValueError("determinant requires a square matrix")
    cleared = [clear(gq_vector(c)) for c in columns]
    return gq_of([zdet([z for z, _ in cleared])], prod(den for _, den in cleared))[0]


def solve_columns(basis: Sequence[Sequence[GaussianRational]],
                  targets: Sequence[Sequence[GaussianRational]],
                  ) -> list[tuple[GaussianRational, ...]]:
    """Express each target vector in the given basis (both as column lists).

    Returns the coefficient columns, i.e. solves B * X = T exactly.  Raises
    ValueError if the basis is singular.
    """
    basis = [clear(gq_vector(c)) for c in basis]
    targets = [clear(gq_vector(t)) for t in targets]
    coords, (dr, di) = zsolve([z for z, _ in basis], [z for z, _ in targets])
    norm = dr * dr + di * di
    # B = Bz diag(1/bden) and T = Tz diag(1/tden), so X = diag(bden) Y diag(1/tden) / d
    return [gq_of([gmul((den * a, den * b), (dr, -di)) for (a, b), (_, den) in zip(col, basis)],
                  tden * norm)
            for col, (_, tden) in zip(coords, targets)]


def pivot_rows(columns: Sequence[Sequence[GaussianRational]]) -> tuple[int, ...]:
    """Rows (0-based) where the span of the columns jumps across the
    coordinate flag, i.e. the lowest-nonzero-entry pivot rows of the column
    echelon form.  The span of k independent columns yields k pivot rows."""
    cleared = [clear(gq_vector(c))[0] for c in columns]
    return tuple(sorted(at for at in eliminate(cleared)[0] if at >= 0))


def subspace_canonical(columns: Sequence[Sequence[GaussianRational]],
                       ) -> tuple[tuple[GaussianRational, ...], ...]:
    """Canonical form of the span: fully reduced column echelon, columns
    ordered by pivot row.  Equal spans give equal (hashable) values."""
    cleared = [clear(gq_vector(c))[0] for c in columns]
    return tuple(gq_of(z, den) for z, den in zcanonical(cleared))
