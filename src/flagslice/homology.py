"""
Formal homology expansions: a base cycle (or the total cycle, for the
indefinite unitary form) written as coefficient times a sum of Schubert
classes, keyed by minimal representative words.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import forms
from .permutations import Word, word_text


class HomologyExpansion(NamedTuple("HomologyExpansion", [
        ("coefficient", int), ("classes", tuple[Word, ...]),
        ("context", tuple[tuple[str, str], ...])])):
    """coefficient * sum of the Schubert classes of ``classes``."""

    __slots__ = ()

    def __new__(cls, coefficient: int, classes: tuple[Word, ...],
                context: tuple[tuple[str, str], ...]):
        if coefficient < 1:
            raise ValueError("coefficient must be positive")
        if any(a >= b for a, b in zip(classes, classes[1:])):
            raise ValueError("classes must be distinct and in increasing order")
        return super().__new__(cls, coefficient, classes, context)

    def to_json(self) -> dict:
        return {
            "coefficient": self.coefficient,
            "classes": [word_text(w) for w in self.classes],
            "context": dict(self.context),
        }


def base_cycle_class(form: str, *, n: int | None = None, p: int | None = None,
                     q: int | None = None, dims: Sequence[int] | None = None,
                     orbit: str | None = None) -> HomologyExpansion:
    """Expansion of one base cycle in Schubert classes.

    ``form`` is one of "slnr", "slmh", "supq".  For the first two, ``n``
    fixes the ambient dimension and ``dims`` the flag type (complete flags
    by default).  For "supq" an orbit sign sequence is required, since each
    open orbit carries its own cycle.
    """
    if form == "supq" and orbit is None:
        raise ValueError("supq needs p, q and an orbit sign sequence")
    return _expansion(forms.Request(form, n=n, p=p, q=q, dims=dims, orbit=orbit))


def total_cycle_class_su(p: int, q: int) -> HomologyExpansion:
    """Expansion of the sum of all base cycles over the complete-flag open
    orbits: coefficient 2^q against every strictly pairing word."""
    return _expansion(forms.Request("supq", p=p, q=q))


def _expansion(req: forms.Request) -> HomologyExpansion:
    return HomologyExpansion(forms.coefficient(req), tuple(forms.words(req)),
                             forms.context(req))


def expansion_row(req: forms.Request) -> dict:
    """``to_json()`` of the request's expansion, with its classes joined
    from ``forms.word_texts``, so no int word is built or spelt: the row
    that ``homology`` prints."""
    return {"coefficient": forms.coefficient(req),
            "classes": [*map(" ".join, forms.word_texts(req))],
            "context": dict(forms.context(req))}
