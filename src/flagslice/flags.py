"""
The flag container: ``FlagMatrix``, a (partial) flag over Q(i) stored as
Z[i] columns, with the helpers that build and write its columns.

A FlagMatrix keeps each column once, as a Z[i] vector with one positive
denominator, and has one constructor, which takes those columns.  The
intersection points of every form are built from unit vectors through it
and written with ``to_json``, neither of which needs ``gaussian``.  The slmh
points of a request reorder one set of columns, which ``forms.points``
checks with one ``gaussian.rank`` call per request.  Apart from that check,
``gaussian`` (and with it ``fractions``) is executed only by the paths that
cross into Q(i): ``from_columns`` with its rank check, ``from_json``,
``columns`` and ``canonical_key``.  The membership tests of the oracle live
in ``geometry``.

>>> unit_vector(3, 1)
((0, 0), (1, 0), (0, 0))
>>> FlagMatrix.coordinate_flag((2, 1)).to_json()["columns"][0]
[[0, 1, 0, 1], [1, 1, 0, 1]]
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from . import _lazy
from .permutations import Dims, check_word

gaussian = _lazy("gaussian")


class FlagMatrix:
    """A (partial) flag given by n spanning columns over Q(i).

    ``dims`` lists the cumulative subspace dimensions; the first ``dims[i]``
    columns span the i-th subspace.  Columns are always a basis of the full
    space, so the last entry of ``dims`` is n.  Column j is stored as the
    Z[i] vector ``zcols[j]`` over the positive denominator ``dens[j]``.
    """

    __slots__ = ("n", "dims", "zcols", "dens")
    n: int
    dims: Dims
    zcols: tuple[gaussian.ZVector, ...]
    dens: tuple[int, ...]

    def __init__(self, n: int, dims: Sequence[int], zcols: Sequence[gaussian.ZVector],
                 dens: Sequence[int] | None = None):
        """A flag from Z[i] columns built independent (coordinate flags, cell
        samples, intersection points): shapes are checked, the rank is not."""
        zcols = tuple(zcols)
        if len(zcols) != n or any(len(c) != n for c in zcols):
            raise ValueError("flag needs n independent columns of length n")
        dims = tuple(dims)
        if (not dims or dims[-1] != n or dims[0] < 1
                or any(a >= b for a, b in zip(dims, dims[1:]))):
            raise ValueError(f"bad cumulative dimensions {dims!r}")
        dens = tuple(dens) if dens else (1,) * n
        for name, value in (("n", n), ("dims", dims), ("zcols", zcols), ("dens", dens)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FlagMatrix is immutable")

    def _astuple(self) -> tuple:
        return (self.n, self.dims, self.zcols, self.dens)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._astuple() == other._astuple() if same else NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return "FlagMatrix(n={!r}, dims={!r}, zcols={!r}, dens={!r})".format(*self._astuple())

    @property
    def columns(self) -> tuple[tuple[gaussian.GaussianRational, ...], ...]:
        return tuple(gaussian.gq_of(z, den) for z, den in zip(self.zcols, self.dens))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], dims: Sequence[int] | None = None,
                     ) -> "FlagMatrix":
        """The flag of columns over Q(i); ValueError if they are dependent."""
        cols = tuple(gaussian.gq_vector(c) for c in columns)
        n, cleared = len(cols), [gaussian.clear(c) for c in cols]
        flag = cls(n, range(1, n + 1) if dims is None else dims,
                   [z for z, _ in cleared], [den for _, den in cleared])
        # Through the module attribute, so a wrapper put on gaussian.rank sees the call.
        if gaussian.rank(cols) != n:
            raise ValueError("flag columns are linearly dependent")
        return flag

    @classmethod
    def coordinate_flag(cls, word: Sequence[int], dims: Sequence[int] | None = None,
                        ) -> "FlagMatrix":
        """The flag spanned by standard basis vectors in the word's order."""
        word = check_word(word)
        n = len(word)
        return cls(n, range(1, n + 1) if dims is None else dims,
                   [unit_vector(n, v - 1) for v in word])

    def canonical_key(self):
        """Hashable key identifying the flag: equal keys exactly for equal
        ``dims`` and equal subspaces V_d at every d in ``dims``.

        One forward elimination of the columns, in order, leaves the block
        [a, b) of each level spanning W = the vectors of V_b that vanish at
        the pivot rows of V_a.  W depends only on the flag, and V_b is the
        sum of the W of the levels up to b, so the key lists ``dims`` and the
        ``zcanonical`` form of each W.

        >>> a = FlagMatrix(2, (1, 2), [((1, 0), (1, 0)), ((0, 0), (1, 0))])
        >>> b = FlagMatrix(2, (1, 2), [((2, 0), (2, 0)), ((3, 0), (0, 1))])
        >>> a.canonical_key() == b.canonical_key()
        True
        """
        rows = list(self.zcols)
        gaussian.eliminate(rows)
        return (self.dims, tuple(gaussian.zcanonical(rows[a:b])
                                 for a, b in zip((0,) + self.dims, self.dims)))

    def to_json(self) -> dict:
        """Entries as lowest-terms quads [re_num, re_den, im_num, im_den]."""
        return {"n": self.n, "dims": list(self.dims),
                "columns": [[_quad(a, b, den) for a, b in z]
                            for z, den in zip(self.zcols, self.dens)]}

    @classmethod
    def from_json(cls, data: dict) -> "FlagMatrix":
        from_quad = gaussian.GaussianRational.from_quad
        cols = [[from_quad(q) for q in col] for col in data["columns"]]
        if len(cols) != data["n"]:
            raise ValueError("flag needs n independent columns of length n")
        return cls.from_columns(cols, data["dims"])


def _quad(a: int, b: int, den: int) -> list[int]:
    if den == 1:
        return [a, 1, b, 1]
    g, h = gcd(a, den), gcd(b, den)
    return [a // g, den // g, b // h, den // h]


def unit_vector(n: int, index: int, value: tuple[int, int] = (1, 0)) -> gaussian.ZVector:
    """The Z[i] vector with ``value`` at ``index`` and zeros elsewhere."""
    return ((0, 0),) * index + (value,) + ((0, 0),) * (n - index - 1)
