"""
The exact geometric oracle: the three ambient structures (symmetric bilinear
form, symplectic form, indefinite Hermitian form) and the membership tests
of flags over Q(i): conjugation-genericity (open orbits), isotropy (base
cycles), signature conditions, Schubert-cell membership and randomized cell
sampling.

The flag container ``FlagMatrix`` and ``unit_vector`` live in ``flags``,
which the output path loads without this module; they are re-exported here
as the same objects.  ``rank`` is re-exported from ``gaussian`` beside them,
as the benchmark's tracer reads it here.  Only ``verify``, the tests and
the demos execute this module.

A FlagMatrix keeps each column once, as a Z[i] vector with one positive
denominator.  Scaling a column by a positive rational changes no subspace of
the flag, no orientation sign and no inertia of a Hermitian form, so every
test here runs on the Z[i] columns alone, through the kernel in ``gaussian``.
GaussianRational values, which do no arithmetic, appear only at the boundary.

The open-orbit test ``is_tau_generic`` and the Schubert-cell test are each
one relative-position elimination.  The base-cycle test
``is_isotropic_flag`` is one on partial flags; on a complete flag it needs
no elimination, as it reads the zero pattern of the Gram matrix: zero above
the antidiagonal and nonzero on it.

Everything here is exact; no floating point is ever used.
"""

from __future__ import annotations

import random
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .flags import FlagMatrix, unit_vector
from .gaussian import (GaussianRational, ZVector, clear, eliminate, gq_vector,
                       inertia, lowest_terms, prefix_ranks, zdet, zsolve)
from .gaussian import rank  # noqa: F401  (re-exported; see the module docstring)
from .permutations import check_word


# -- conjugations -------------------------------------------------------------


def _conj_real(z: ZVector) -> ZVector:
    return tuple((a, -b) for a, b in z)


def _conj_quaternion(z: ZVector) -> ZVector:
    if len(z) % 2:
        raise ValueError("quaternionic structure needs even ambient dimension")
    m = len(z) // 2
    return tuple((a, -b) for a, b in z[m:]) + tuple((-a, b) for a, b in z[:m])


_CONJUGATIONS: dict[str, Callable[[ZVector], ZVector]] = {
    "real-conjugation": _conj_real, "quaternion-j": _conj_quaternion}


def conjugation(name: str) -> Callable[[ZVector], ZVector]:
    """The named conjugation as a map on Z[i] vectors; it commutes with
    positive scaling, so it acts on cleared columns."""
    if name not in _CONJUGATIONS:
        raise ValueError(f"unknown conjugation {name!r}")
    return _CONJUGATIONS[name]


# -- forms --------------------------------------------------------------------


class FormSpec(NamedTuple):
    """One of the three ambient structures.

    kind "symmetric-b": b(v,w) = v^t w;
    kind "symplectic-omega": omega(v,w) = v^t J w on C^(2m);
    kind "hermitian-h": h(v,w) = -sum_{i<=q} v_i conj(w_i) + sum_{i>q} v_i conj(w_i).
    """

    kind: str
    p: int = 0
    q: int = 0
    m: int = 0

    def zvalue(self, u: ZVector, v: ZVector) -> tuple[int, int]:
        """The form on Z[i] vectors; on (u/c, v/d) it takes this value over c*d."""
        if self.kind == "symmetric-b":
            return _dot(u, v)
        if self.kind == "symplectic-omega":
            m = self.m or len(u) // 2
            (ar, ai), (br, bi) = _dot(u[:m], v[m:]), _dot(u[m:], v[:m])
            return (ar - br, ai - bi)
        if self.kind == "hermitian-h":
            q = self.q
            (ar, ai), (br, bi) = _hdot(u[q:], v[q:]), _hdot(u[:q], v[:q])
            return (ar - br, ai - bi)
        raise ValueError(f"unknown form kind {self.kind!r}")

    def gram(self, zcols: Sequence[ZVector]) -> list[list[tuple[int, int]]]:
        """[form(u, v)] over the Z[i] columns, u indexing rows.  Only the
        entries on and above the diagonal are evaluated: b is symmetric,
        omega is skew and h is Hermitian, so form(v, u) is form(u, v), its
        negative or its conjugate."""
        value = self.zvalue
        sr, si = _MIRROR.get(self.kind, (1, 1))
        k = len(zcols)
        gram = [[(0, 0)] * k for _ in range(k)]
        for a, u in enumerate(zcols):
            row = gram[a]
            for b in range(a, k):
                re, im = value(u, zcols[b])
                gram[b][a] = (sr * re, si * im)
                row[b] = (re, im)
        return gram


# the signs (re, im) that turn form(u, v) into form(v, u)
_MIRROR = {"symmetric-b": (1, 1), "symplectic-omega": (-1, -1), "hermitian-h": (1, -1)}


def _dot(u: ZVector, v: ZVector) -> tuple[int, int]:
    """sum u_i v_i over Z[i], skipping the zero entries of v."""
    re = im = 0
    for (a, b), (c, d) in zip(u, v):
        if c or d:
            re, im = re + a * c - b * d, im + a * d + b * c
    return (re, im)


def _hdot(u: ZVector, v: ZVector) -> tuple[int, int]:
    """sum u_i conj(v_i) over Z[i], skipping the zero entries of v."""
    re = im = 0
    for (a, b), (c, d) in zip(u, v):
        if c or d:
            re, im = re + a * c + b * d, im + b * c - a * d
    return (re, im)


def bilinear_b() -> FormSpec:
    return FormSpec("symmetric-b")


def symplectic_omega(m: int) -> FormSpec:
    return FormSpec("symplectic-omega", m=m)


def hermitian_h(p: int, q: int) -> FormSpec:
    if p < 1 or q < 0:
        raise ValueError("hermitian form needs p >= 1, q >= 0")
    return FormSpec("hermitian-h", p=p, q=q)


# -- membership tests ----------------------------------------------------------


def is_tau_generic(flag: FlagMatrix, conj: str = "real-conjugation") -> bool:
    """Minimal intersection with the conjugated flag at every pair of levels:
    dim(V_i ∩ conj(V_j)) = max(0, d_i + d_j - n) for all i, j, which
    characterizes the open orbit(s).

    One relative-position elimination, as in ``schubert_cell_membership``
    with the flag as its own reference: the coordinates of the conjugated
    columns in the flag's basis, eliminated in order, pivot at rows ``marks``,
    and dim(V_i ∩ conj(V_j)) = #{k < d_j : marks[k] < d_i}.
    """
    cmap = conjugation(conj)
    n, dims = flag.n, flag.dims
    coords, _ = zsolve(flag.zcols, [cmap(c) for c in flag.zcols])
    marks, _ = eliminate(coords)
    return all(sum(at < di for at in marks[:dj]) == max(0, di + dj - n)
               for dj in dims for di in dims)


def tau_generic_full_flag(flag: FlagMatrix, conj: str = "real-conjugation") -> bool:
    """Fast genericity test for complete flags: conj(V_j) + V_(n-j) = C^n for
    j <= n/2 suffices.  With the marks of ``is_tau_generic``, that is no
    mark below n - j among the first j, so one elimination of the
    coordinates of the first floor(n/2) conjugated columns alone decides
    every j: their marks must be n-1, n-2, ..., n - floor(n/2)."""
    if flag.dims != tuple(range(1, flag.n + 1)):
        return is_tau_generic(flag, conj)
    cmap = conjugation(conj)
    n = flag.n
    coords, _ = zsolve(flag.zcols, [cmap(c) for c in flag.zcols[:n // 2]])
    marks, _ = eliminate(coords)
    return marks == list(range(n - 1, n - 1 - n // 2, -1))


def is_isotropic_flag(flag: FlagMatrix, form: FormSpec) -> bool:
    """Maximal intersection with perpendicular complements at every level
    pair: dim(V_i ∩ V_j^perp) = min(d_i, n - d_j).  Characterizes the base
    cycle inside the relevant open orbit.

    dim(V_i ∩ V_j^perp) = d_i - rank G[:d_j][:d_i], with G the Gram matrix
    of the columns c_0..c_(n-1).  On a complete flag every leading block
    G[:j][:i] must have rank max(0, i + j - n), which holds exactly when G
    is zero above its antidiagonal (form(c_a, c_b) = 0 for a + b <= n - 2)
    and nonzero on it: the nonzero rows and columns of such a block meet in
    a square block, triangular about the antidiagonal.  form(c_b, c_a) is
    zero exactly when form(c_a, c_b) is, so only a <= b is evaluated, up to
    the first failure.  On a partial flag one elimination gives the rank of
    every leading block: eliminate G's columns read bottom-up.  A vector
    pivots at its last nonzero entry, which is its first nonzero row of G,
    so rank G[:a][:b] = #{k < b : marks[k] >= n - a}.
    """
    n, dims, cols = flag.n, flag.dims, flag.zcols
    if dims == tuple(range(1, n + 1)):
        value = form.zvalue
        return all((value(cols[a], cols[b]) == (0, 0)) == (a + b < n - 1)
                   for a in range(n) for b in range(a, n - a))
    gram = form.gram(cols)
    marks, _ = eliminate([[gram[r][c] for r in range(n - 1, -1, -1)] for c in range(n)])
    return all(di - sum(at >= n - dj for at in marks[:di]) == min(di, n - dj)
               for dj in dims for di in dims)


def signature(vectors: Sequence[Sequence[GaussianRational]], p: int, q: int,
              ) -> tuple[int, int, int]:
    """Exact inertia (neg, pos, null) of the Hermitian form restricted to the
    span, via fraction-free congruence diagonalization."""
    zcols = [clear(gq_vector(v))[0] for v in vectors]
    return inertia(hermitian_h(p, q).gram(zcols), [len(zcols)])[0]


def in_open_orbit_su(flag: FlagMatrix, a: Sequence[int], b: Sequence[int]) -> bool:
    """Every subspace nondegenerate with the prescribed cumulative signature."""
    expected = [(sum(a[:i + 1]), sum(b[:i + 1]), 0) for i in range(len(flag.dims))]
    return inertia(hermitian_h(sum(b), sum(a)).gram(flag.zcols), flag.dims) == expected


def in_base_cycle_su(flag: FlagMatrix, a: Sequence[int], b: Sequence[int]) -> bool:
    """Exact intersection dimensions with the coordinate splitting
    E^- = <e_1..e_q>, E^+ = <e_(q+1)..e_n>."""
    q = sum(a)
    # dim(V ∩ E^-) = d - rank of the rows q+1..n of the column matrix
    plus = prefix_ranks([col[q:] for col in flag.zcols])
    minus = prefix_ranks([col[:q] for col in flag.zcols])
    return all(d - plus[d] == sum(a[:i + 1]) and d - minus[d] == sum(b[:i + 1])
               for i, d in enumerate(flag.dims))


def orbit_label_su(flag: FlagMatrix, p: int, q: int) -> str | None:
    """Sign sequence of the open orbit containing a complete flag, or None if
    some subspace is degenerate for the Hermitian form."""
    found = inertia(hermitian_h(p, q).gram(flag.zcols), flag.dims)
    if found[-1][2]:
        return None
    labels, prev = [], (0, 0)
    for neg, pos, _ in found:
        labels += ["-"] * (neg - prev[0]) + ["+"] * (pos - prev[1])
        prev = (neg, pos)
    return "".join(labels)


def is_maximally_isotropic(flag: FlagMatrix, p: int, q: int) -> bool:
    """V_i ⊆ V_i^perp for i <= q and V_(p+i) = V_(q-i)^perp: the closed orbit
    condition for a complete flag."""
    if flag.dims != tuple(range(1, flag.n + 1)):
        raise ValueError("maximal isotropy is a complete-flag condition")
    form = hermitian_h(p, q)
    cols = flag.zcols
    # total isotropy of V_q covers V_i ⊆ V_i^perp for all i <= q, and for
    # V_(p+i) = V_(q-i)^perp the dimensions match, so containment suffices
    pairs = [(a, b) for a in range(q) for b in range(q)]
    pairs += [(a, b) for i in range(1, q) for a in range(q - i) for b in range(p + i)]
    return all(form.zvalue(cols[a], cols[b]) == (0, 0) for a, b in pairs)


def schubert_cell_membership(flag: FlagMatrix, word: Sequence[int],
                             reference: FlagMatrix) -> bool:
    """True iff the flag lies in the Schubert cell of the word's coset with
    respect to the reference complete flag.

    The test expresses the flag in reference coordinates and compares the
    pivot-row sets of every prefix against the word's prefixes: V is in the
    cell iff dim(V_i ∩ F_j) jumps exactly at the rows the word prescribes.
    Coordinates from the fraction-free solve are off by a row scaling (the
    reference denominators, which keep the coordinate flag) and by column
    scalings, neither of which moves a pivot row.
    """
    word = check_word(word)
    if reference.dims != tuple(range(1, reference.n + 1)):
        raise ValueError("reference must be a complete flag")
    if flag.n != reference.n or len(word) != flag.n:
        raise ValueError("ambient dimensions disagree")
    coords, _ = zsolve(reference.zcols, flag.zcols)
    marks, _ = eliminate(coords)
    return all(set(marks[:d]) == set(v - 1 for v in word[:d]) for d in flag.dims)


def random_cell_sample(word: Sequence[int], reference: FlagMatrix, seed: int,
                       dims: Sequence[int] | None = None) -> FlagMatrix:
    """A pseudo-random point of the Schubert cell of ``word`` relative to the
    reference flag, deterministic per seed.

    Free entries of the canonical cell matrix are filled with complex
    rationals whose numerators and denominators are bounded by 100, and each
    column is summed over Z[i] from the nonzero reference entries only.
    """
    word = check_word(word)
    n = len(word)
    rng = random.Random(seed)
    ref_den = lcm(*reference.dens)
    # each reference column's nonzero entries (row, re, im), over the common ref_den
    ref = [[(r, a * (ref_den // d), b * (ref_den // d)) for r, (a, b) in enumerate(z) if a or b]
           for z, d in zip(reference.zcols, reference.dens)]
    cleared = []
    for i, v in enumerate(word):
        # one draw (re_num, re_den, im_num, im_den) per free entry, top to bottom
        draws = [(row, [rng.randint(-100, 100), rng.randint(1, 100),
                        rng.randint(-100, 100), rng.randint(1, 100)])
                 for row in range(1, v) if row not in word[:i]]
        den = lcm(*(x for _, (_, b, _, d) in draws for x in (b, d)))
        # the cleared cell column, rotated into actual coordinates
        re, im = [0] * n, [0] * n
        for r, a, b in ref[v - 1]:
            re[r], im[r] = a * den, b * den
        for row, (a, b, c, d) in draws:
            x, y = a * (den // b), c * (den // d)
            for r, e, f in ref[row - 1]:
                re[r] += x * e - y * f
                im[r] += x * f + y * e
        cleared.append(lowest_terms(tuple(zip(re, im)), den * ref_den))
    zcols, dens = zip(*cleared)
    return FlagMatrix(n, dims if dims is not None else range(1, n + 1), zcols, dens)


def orientation_class(flag: FlagMatrix) -> int:
    """Orientation (+1 or -1) of a conjugation-generic flag in even ambient
    dimension: the sign of det[v_1..v_m | conj(v_1)..conj(v_m)] / i^m, which
    is a nonzero real number exactly on the generic locus.  Positive column
    scalings multiply the determinant by a positive square, keeping its sign."""
    n = flag.n
    if n % 2:
        raise ValueError("orientation requires even ambient dimension")
    m = n // 2
    if m not in flag.dims:
        raise ValueError("orientation needs the middle subspace in the flag")
    half = list(flag.zcols[:m])
    re, im = zdet(half + [_conj_real(c) for c in half])
    for _ in range(m):
        re, im = im, -re  # divide by i
    if im or not re:
        raise ValueError("orientation undefined: flag is not generic at the middle level")
    return 1 if re > 0 else -1


# -- reference flags -----------------------------------------------------------


def standard_reference(n: int) -> FlagMatrix:
    """The coordinate flag e_1 ⊂ <e_1,e_2> ⊂ ...: reference for SL(n,R)."""
    return FlagMatrix.coordinate_flag(tuple(range(1, n + 1)))


def iwasawa_reference_h(m: int) -> FlagMatrix:
    """Ordered basis (e_1, j(e_1), e_2, j(e_2), ..., e_m, j(e_m)) with
    j(e_i) = -e_(m+i): the quaternionic reference flag on C^(2m)."""
    n = 2 * m
    cols = [v for i in range(m) for v in (unit_vector(n, i), unit_vector(n, m + i, (-1, 0)))]
    return FlagMatrix(n, range(1, n + 1), cols)


def iwasawa_reference_su(p: int, q: int) -> FlagMatrix:
    """Ordered basis (e_1+e_2q, ..., e_q+e_(q+1), e_(2q+1), ..., e_n,
    e_q-e_(q+1), ..., e_1-e_2q): a maximally isotropic reference flag."""
    if p < q or q < 1:
        raise ValueError("need p >= q >= 1")
    n = p + q

    def pair(i, sign):  # e_i + sign * e_(2q+1-i)
        v = list(unit_vector(n, i - 1))
        v[2 * q - i] = (sign, 0)
        return tuple(v)

    cols = [pair(i, 1) for i in range(1, q + 1)]
    cols += [unit_vector(n, i - 1) for i in range(2 * q + 1, n + 1)]
    return FlagMatrix(n, range(1, n + 1), cols + [pair(i, -1) for i in range(q, 0, -1)])
