"""Exact scalar arithmetic and the fraction-free linear algebra kernel."""

import json
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagslice.gaussian import (GQ, I, GaussianRational, _divide_exact,
                                det, eliminate, gmul, gq_vector, inertia, pivot_rows,
                                rank, solve_columns, subspace_canonical, zcanonical, zdet)
from flagslice.geometry import FlagMatrix, signature

scalars = st.builds(
    GQ,
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


# GaussianRational does no arithmetic; the references below compute over
# (re, im) pairs of Fractions.
def _pair(x):
    x = GQ.of(x)
    return x.re, x.im


def _mul(x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    return GQ(a * c - b * d, a * d + b * c)


def _sum(values):
    pairs = [_pair(x) for x in values]
    return GQ(sum(a for a, _ in pairs), sum(b for _, b in pairs))


def test_quad_roundtrip():
    x = GQ(Fraction(-7, 3), Fraction(5, 2))
    assert GaussianRational.from_quad(x.to_quad()) == x
    assert x.to_quad() == [-7, 3, 5, 2]
    assert GQ(Fraction(1, 2)).re == Fraction(1, 2)


def test_rank_known_values():
    identity3 = [gq_vector(row) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert rank(identity3) == 3
    v = gq_vector((1, 2, 3))
    assert rank([v, gq_vector((2, 4, 6))]) == 1
    assert rank([gq_vector((0, 0, 0))]) == 0
    # basis i e1 + e2, i e3 + e4, e3, e1 of C^4
    cols = [gq_vector(c) for c in ((I, 1, 0, 0), (0, 0, I, 1), (0, 0, 1, 0), (1, 0, 0, 0))]
    assert rank(cols) == 4


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=2, max_size=5))
def test_rank_transpose_invariant(rows):
    vecs = [gq_vector(r) for r in rows]
    cols = [gq_vector(c) for c in zip(*rows)]
    assert rank(vecs) == rank(cols)


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=2, max_size=4),
       st.integers(-3, 3))
def test_rank_invariant_under_row_operation(rows, factor):
    vecs = [gq_vector(r) for r in rows]
    mixed = list(vecs)
    mixed[0] = tuple(_sum((a, _mul(factor, b))) for a, b in zip(vecs[0], vecs[-1]))
    if len(vecs) > 1:
        assert rank(mixed) == rank(vecs)


def test_det_known_values():
    cols = [gq_vector((I, 1)), gq_vector((GQ(0, -1), 1))]
    assert det(cols) == GQ(0, 2)
    singular = [gq_vector((1, 2)), gq_vector((2, 4))]
    assert det(singular) == 0


def test_solve_columns_reconstructs():
    basis = [gq_vector(c) for c in ((1, 0, 1), (0, 1, 1), (0, 0, 2))]
    target = [gq_vector((3, 5, 10))]
    coeffs = solve_columns(basis, target)[0]
    rebuilt = [_sum(_mul(c, col[r]) for c, col in zip(coeffs, basis)) for r in range(3)]
    assert tuple(rebuilt) == target[0]


def test_solve_columns_rejects_singular_basis():
    basis = [gq_vector((1, 0)), gq_vector((2, 0))]
    with pytest.raises(ValueError):
        solve_columns(basis, [gq_vector((0, 1))])


def test_pivot_rows_lowest_entry_convention():
    # span of e2 and e1+e3: intersections with the coordinate flag jump at
    # rows 2 and 3 (0-based 1 and 2)
    cols = [gq_vector((0, 1, 0)), gq_vector((1, 0, 1))]
    assert pivot_rows(cols) == (1, 2)
    assert pivot_rows([gq_vector((1, 0, 0))]) == (0,)


def test_subspace_canonical_identifies_spans():
    a = [gq_vector((1, 2, 0)), gq_vector((0, 1, 1))]
    b = [gq_vector((1, 3, 1)), gq_vector((2, 5, 1))]  # same span, mixed basis
    c = [gq_vector((1, 0, 0)), gq_vector((0, 1, 1))]
    assert subspace_canonical(a) == subspace_canonical(b)
    assert subspace_canonical(a) != subspace_canonical(c)


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=5))
def test_one_vector_canonical_form_is_the_eliminated_one(vec):
    # One vector skips the elimination; beside a zero vector it takes it.
    assert zcanonical([tuple(vec)]) == zcanonical([tuple(vec), ((0, 0),) * len(vec)])


# -- properties of the Z[i] kernel behind the adapters ---------------------------

gaussian_ints = st.builds(GQ, st.integers(-4, 4), st.integers(-4, 4))


def square_matrices(max_n):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(gaussian_ints, min_size=n, max_size=n), min_size=n, max_size=n))


def _leibniz(columns):
    n = len(columns)
    terms = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = GQ(-1 if inversions % 2 else 1)
        for c, r in enumerate(perm):
            term = _mul(term, columns[c][r])
        terms.append(term)
    return _sum(terms)


@given(square_matrices(4))
def test_det_matches_leibniz_expansion(columns):
    assert det(columns) == _leibniz(columns)


def _eliminate_without_shortcut(rows, width=None, reduce=False):
    """``eliminate`` as it was before rows with a zero at the pivot were
    negated when the pivot is minus the previous one: every step multiplies
    by the pivot and divides by the previous pivot."""
    if width is None:
        width = len(rows[0]) if rows else 0
    marks = [-1] * len(rows)
    prev = (1, 0)
    found = 0
    for k, row in enumerate(rows):
        at = next((j for j in range(width - 1, -1, -1) if row[j] != (0, 0)), -1)
        if at < 0:
            continue
        marks[k] = at
        lr, li = lead = row[at]
        for i in range(0 if reduce else k + 1, len(rows)):
            other = rows[i]
            hr, hi = other[at]
            if i == k or (lead == prev and not (hr or hi)):
                continue
            other = [(lr * ar - li * ai - hr * br + hi * bi,
                      lr * ai + li * ar - hr * bi - hi * br)
                     for (ar, ai), (br, bi) in zip(other, row)]
            rows[i] = other if prev == (1, 0) else _divide_exact(other, prev)
        prev = lead
        found += 1
        if found == width:
            break
    return marks, prev


def _zleibniz(rows):
    n = len(rows)
    total = (0, 0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1 if inversions % 2 else 1, 0)
        for r, c in enumerate(perm):
            term = gmul(term, rows[r][c])
        total = (total[0] + term[0], total[1] + term[1])
    return total


# Mostly zeros and the units 1, -1, i, -i, as in signed permutation matrices,
# where a pivot is often minus the one before it.
zentries = st.one_of(st.sampled_from([(0, 0), (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]),
                     st.tuples(st.integers(-3, 3), st.integers(-3, 3)))


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.lists(zentries, min_size=n, max_size=n), min_size=1, max_size=6)),
       st.booleans())
@example([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]], True)
@example([[(0, 0), (0, 0), (1, 0)], [(0, 0), (0, -1), (0, 0)], [(0, 1), (0, 0), (0, 0)]],
         False)
def test_negating_rows_gives_the_elimination_and_determinant(rows, reduce):
    ours, reference = [list(r) for r in rows], [list(r) for r in rows]
    assert eliminate(ours, reduce=reduce) == _eliminate_without_shortcut(reference,
                                                                          reduce=reduce)
    assert ours == reference
    if len(rows) == len(rows[0]):
        assert zdet(rows) == _zleibniz(rows)


def _divide_exact_by_divmod(vec, by):
    """``_divide_exact`` as it was before the one-pass ``//`` with the
    multiply-back check: divmod pairs, then a scan of the remainders."""
    c, d = by
    if d:
        vec = [(a * c + b * d, b * c - a * d) for a, b in vec]
    norm = c * c + d * d if d else c
    quotients = [(divmod(a, norm), divmod(b, norm)) for a, b in vec]
    if any(ra or rb for (_, ra), (_, rb) in quotients):
        raise ArithmeticError("inexact division during fraction-free elimination")
    return [(qa, qb) for (qa, _), (qb, _) in quotients]


def _eliminate_with_complex_updates(rows, width=None, reduce=False):
    """``eliminate`` as it was before the real-entry row update: a pivot
    found by a generator, every update with four products per part, and
    the divmod division."""
    if width is None:
        width = len(rows[0]) if rows else 0
    marks = [-1] * len(rows)
    prev = (1, 0)
    found = 0
    for k, row in enumerate(rows):
        at = next((j for j in range(width - 1, -1, -1) if row[j] != (0, 0)), -1)
        if at < 0:
            continue
        marks[k] = at
        lr, li = lead = row[at]
        for i in range(0 if reduce else k + 1, len(rows)):
            other = rows[i]
            hr, hi = other[at]
            if i == k or (lead == prev and not (hr or hi)):
                continue
            if not (hr or hi) and lead == (-prev[0], -prev[1]):  # lead / prev is -1
                rows[i] = [(-ar, -ai) for ar, ai in other]
                continue
            other = [(lr * ar - li * ai - hr * br + hi * bi,
                      lr * ai + li * ar - hr * bi - hi * br)
                     for (ar, ai), (br, bi) in zip(other, row)]
            rows[i] = other if prev == (1, 0) else _divide_exact_by_divmod(other, prev)
        prev = lead
        found += 1
        if found == width:
            break
    return marks, prev


def _same_elimination(rows, width=None, reduce=False):
    ours, reference = [list(r) for r in rows], [list(r) for r in rows]
    assert eliminate(ours, width, reduce) == _eliminate_with_complex_updates(
        reference, width, reduce)
    assert ours == reference


# Real entries are drawn often, so that many row updates take the real path.
big_entries = st.one_of(st.tuples(st.integers(-10**6, 10**6), st.just(0)),
                        st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)))


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.lists(zentries, min_size=n, max_size=n), min_size=1, max_size=6)),
       st.booleans())
def test_kernel_matches_the_complex_update_kernel_on_unit_sparse_rows(rows, reduce):
    _same_elimination(rows, reduce=reduce)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.lists(big_entries, min_size=n, max_size=n), min_size=n, max_size=n)),
       st.booleans())
@example([[(3, 0), (5, 0)], [(7, 0), (2, 0)]], False)
@example([[(2, 1), (0, 3)], [(1, -4), (5, 0)]], True)
def test_kernel_matches_the_complex_update_kernel_on_dense_rows(rows, reduce):
    _same_elimination(rows, reduce=reduce)
    assert zdet(rows) == _zleibniz(rows)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.lists(st.one_of(zentries, big_entries),
                                         min_size=n + 2, max_size=n + 2),
                                min_size=n, max_size=n))))
def test_kernel_matches_the_complex_update_kernel_in_solve_shape(case):
    # rows of [basis | targets], eliminated over the basis part only, as zsolve does
    n, rows = case
    _same_elimination(rows, n, reduce=True)


@settings(max_examples=40)
@given(square_matrices(3).flatmap(lambda a: st.tuples(
    st.just(a), st.lists(st.lists(scalars, min_size=len(a), max_size=len(a)),
                         min_size=len(a), max_size=len(a)))))
def test_det_is_multiplicative(pair):
    a, b = pair
    product = [tuple(_sum(_mul(b_col[k], a[k][r]) for k in range(len(a)))
                     for r in range(len(a))) for b_col in b]
    assert det(product) == _mul(det(a), det(b))


@given(st.lists(st.lists(gaussian_ints, min_size=4, max_size=4), min_size=1, max_size=5),
       st.data())
def test_rank_ignores_column_scaling(vectors, data):
    which = data.draw(st.integers(0, len(vectors) - 1))
    factor = data.draw(gaussian_ints.filter(lambda x: x != 0))
    scaled = list(vectors)
    scaled[which] = tuple(_mul(factor, x) for x in vectors[which])
    assert rank(scaled) == rank(vectors)
    coordinate = data.draw(st.integers(0, 3))
    rescaled = [tuple(_mul(factor, x) if r == coordinate else x for r, x in enumerate(v))
                for v in vectors]
    assert rank(rescaled) == rank(vectors)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_signature_is_a_congruence_invariant(p, q, data):
    n = p + q
    # nonzero Gaussian-integer multiples of coordinate vectors are orthogonal,
    # so the inertia is read off the diagonal: e_i is negative for i <= q
    picked = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    basis = []
    for i in picked:
        vec = [GQ(0)] * n
        vec[i] = data.draw(gaussian_ints.filter(lambda x: x != 0))
        basis.append(tuple(vec))
    negatives = sum(1 for i in picked if i < q)
    expected = (negatives, len(picked) - negatives, 0)
    assert signature(basis, p, q) == expected
    # any invertible change of basis (unit upper triangular here) keeps it
    k = len(basis)
    mixed = []
    for j in range(k):
        coeffs = [data.draw(scalars) if i < j else GQ(int(i == j)) for i in range(k)]
        mixed.append(tuple(_sum(_mul(c, v[r]) for c, v in zip(coeffs, basis))
                           for r in range(n)))
    assert signature(mixed, p, q) == expected


def test_signature_of_null_pairs():
    # two h-null vectors whose pairing is real, then purely imaginary: the
    # congruence must mix them with 1 and with i respectively
    u = gq_vector((1, 1))
    assert signature([u, gq_vector((1, -1))], 1, 1) == (1, 1, 0)
    assert signature([u, gq_vector((I, GQ(0, -1)))], 1, 1) == (1, 1, 0)
    assert signature([u, gq_vector((2, 2))], 1, 1) == (0, 0, 2)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5))
def test_inertia_of_a_diagonal_gram(diagonal):
    gram = [[(d, 0) if i == j else (0, 0) for j in range(len(diagonal))]
            for i, d in enumerate(diagonal)]
    expected = (sum(d < 0 for d in diagonal), sum(d > 0 for d in diagonal),
                diagonal.count(0))
    assert inertia(gram, [len(diagonal)]) == [expected]


def _inertia_with_gmul(gram, ends):
    """``inertia`` as it was before its products were written out: every
    row update and fix-up entry went through ``gmul``."""
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
                lam = (1, 0) if g[a][b][0] else (0, 1)
                for r in rest:
                    g[a][r] = tuple(map(sum, zip(g[a][r], gmul(lam, g[b][r]))))
                for r in rest:
                    g[r][a] = tuple(map(sum, zip(g[r][a], gmul(g[r][b], (lam[0], -lam[1])))))
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
                new = [(d * xr - yr, d * xi - yi)
                       for (xr, xi), (yr, yi) in zip(g[a], (gmul(g[a][p], y) for y in g[p]))]
                g[a] = new if prev == 1 else _divide_exact_by_divmod(new, (prev, 0))
            prev = d
        out.append((neg, pos, len(block)))
        if block:
            break
    return out


@st.composite
def hermitian_grams(draw):
    """A Hermitian Z[i] Gram matrix, its diagonal mostly zero so that blocks
    take the v_a += v_b and v_a += i v_b fix-ups, and increasing block ends."""
    n = draw(st.integers(1, 5))
    diagonal = st.one_of(st.just(0), st.integers(-6, 6))
    gram = [[(0, 0)] * n for _ in range(n)]
    for a in range(n):
        gram[a][a] = (draw(diagonal), 0)
        for b in range(a + 1, n):
            re, im = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
            gram[a][b], gram[b][a] = (re, im), (re, -im)
    ends = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    return gram, ends


@given(hermitian_grams())
@example(([[(0, 0), (1, 0)], [(1, 0), (0, 0)]], [2]))
@example(([[(0, 0), (0, 2)], [(0, -2), (0, 0)]], [2]))
@example(([[(0, 0), (0, 0), (3, 1)], [(0, 0), (0, 0), (0, 0)], [(3, -1), (0, 0), (0, 0)]],
          [1, 3]))
def test_inertia_matches_the_gmul_inertia(case):
    gram, ends = case
    assert inertia(gram, ends) == _inertia_with_gmul(gram, ends)


def test_adapters_take_plain_numbers():
    assert det([(1, 2), (3, 4)]) == GQ(-2)
    assert solve_columns([(2, 0), (0, 1)], [(1, 3)]) == [(GQ(Fraction(1, 2)), GQ(3))]
    assert pivot_rows([(1, 0, 1)]) == (2,)
    assert subspace_canonical([(2, 0)]) == ((GQ(1), GQ(0)),)
    assert signature([(1, 0, 0)], 2, 1) == (1, 0, 0)


def test_kernel_fails_loudly():
    with pytest.raises(ArithmeticError):
        _divide_exact([(3, 0)], (2, 0))
    with pytest.raises(ArithmeticError):
        _divide_exact([(1, 0)], (1, 1))
    with pytest.raises(ArithmeticError):
        inertia([[(0, 1)]], [1])  # not Hermitian: the pivot is not real


@settings(max_examples=40)
@given(st.lists(st.lists(scalars, min_size=3, max_size=3), min_size=3, max_size=3))
def test_flag_json_roundtrip_is_byte_identical(columns):
    if rank(columns) != 3:
        with pytest.raises(ValueError):
            FlagMatrix.from_columns(columns)
        return
    flag = FlagMatrix.from_columns(columns)
    # the wire form is each entry's lowest-terms quad, as GaussianRational gives it
    assert flag.to_json()["columns"] == [[x.to_quad() for x in col] for col in columns]
    text = json.dumps(flag.to_json())
    again = FlagMatrix.from_json(json.loads(text))
    assert json.dumps(again.to_json()) == text
    assert again == flag and again.columns == tuple(tuple(c) for c in columns)


def test_flag_constructors_reject_dependent_columns():
    dependent = [gq_vector((1, I, 0)), gq_vector((2, GQ(0, 2), 0)), gq_vector((0, 0, 1))]
    with pytest.raises(ValueError):
        FlagMatrix.from_columns(dependent)
    with pytest.raises(ValueError):
        FlagMatrix.from_columns(tuple(dependent), (1, 3))
    data = {"n": 3, "dims": [1, 3],
            "columns": [[x.to_quad() for x in col] for col in dependent]}
    with pytest.raises(ValueError):
        FlagMatrix.from_json(data)
