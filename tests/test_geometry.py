"""Flag matrices, forms, and the membership oracles."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagslice import flags, forms, gaussian, geometry, slmh, slnr, supq
from flagslice.gaussian import GQ, I, clear, gmul, gq_of, gq_vector, prefix_ranks, zsolve
from flagslice.geometry import (FlagMatrix, bilinear_b, cell_ranks, conjugate_meeting_witness,
                                conjugate_span_dims, conjugation, degenerate_witness,
                                hermitian_h, in_base_cycle_su, in_open_orbit_su, is_isotropic_flag,
                                is_maximally_isotropic, is_tau_generic,
                                iwasawa_reference_h, iwasawa_reference_su,
                                orbit_label_su, orientation_class,
                                random_cell_sample, schubert_cell_membership,
                                self_dual_levels, signature, standard_reference,
                                symplectic_omega, tau_generic_full_flag, unit_vector)
from flagslice.permutations import classify_symmetry, inversion_length

entries = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
cleared_vectors = st.builds(lambda v, den: clear(gq_of(v, den))[0],
                            st.lists(entries, min_size=4, max_size=4), st.integers(1, 6))


def _flag(*columns, dims=None):
    return FlagMatrix.from_columns(columns, dims=dims)


def test_flag_matrix_validation():
    with pytest.raises(ValueError):
        _flag((1, 0), (2, 0))  # dependent columns
    with pytest.raises(ValueError):
        _flag(gq_vector((1, 0)), gq_vector((0, 1)), dims=(1,))
    with pytest.raises(ValueError):
        _flag(gq_vector((1, 0)), gq_vector((0, 1)), dims=(2, 2))
    with pytest.raises(ValueError):
        FlagMatrix(2, (1, 2), [unit_vector(2, 0)])
    with pytest.raises(ValueError):
        FlagMatrix(2, (1, 2), [unit_vector(2, 0), unit_vector(3, 1)])


def test_geometry_reexports_the_names_the_tracer_reads():
    assert geometry.FlagMatrix is flags.FlagMatrix
    assert geometry.unit_vector is flags.unit_vector
    assert geometry.rank is gaussian.rank


def test_public_constructor_calls_rank_through_the_module(monkeypatch):
    # A wrapper put on gaussian.rank (as the benchmark's tracer does) must see
    # the rank check of from_columns.
    calls = []
    original = gaussian.rank

    def counted(vectors):
        calls.append(len(vectors))
        return original(vectors)

    monkeypatch.setattr(gaussian, "rank", counted)
    _flag((1, 0), (I, 1))
    assert calls == [2]


def test_flag_json_roundtrip():
    flag = _flag((I, 1), (1, 0))
    again = FlagMatrix.from_json(flag.to_json())
    assert again.canonical_key() == flag.canonical_key()
    assert again == flag


def test_flag_equality_is_span_equality():
    a = _flag((1, 1, 0), (0, 1, 0), (0, 0, 1))
    b = _flag((2, 2, 0), (1, 3, 0), (1, 1, 5))
    assert a.canonical_key() == b.canonical_key()
    c = _flag((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert a.canonical_key() != c.canonical_key()


def _form_points(n):
    """The intersection points that ``points`` prints for the complete flags
    of every form on C^n."""
    reqs = [forms.Request("slnr", n=n)]
    reqs += [forms.Request("slmh", n=n)] if n % 2 == 0 else []
    reqs += [forms.Request("supq", p=n - q, q=q) for q in range(1, n // 2 + 1)]
    for req in reqs:
        for _, found, _ in forms.points(req)[1]:
            yield from found


def _symmetric_projections(flag):
    """The flag coarsened to every symmetric dimension sequence."""
    for cuts in _coarsenings(flag):
        sizes = [b - a for a, b in zip((0,) + cuts.dims, cuts.dims)]
        if classify_symmetry(sizes).is_symmetric:
            yield cuts


def _recombined(flag, changes):
    """The flag with each column p of ``changes`` replaced by the Z[i]
    combination ``changes[p]`` of the old columns; None if the new columns
    are dependent."""
    n, cols = flag.n, list(flag.zcols)
    for p, coeffs in changes.items():
        col = [(0, 0)] * n
        for coeff, old in zip(coeffs, flag.zcols):
            col = [(a + x, b + y) for (a, b), (x, y) in
                   zip(col, (gmul(coeff, entry) for entry in old))]
        cols[p] = tuple(col)
    return FlagMatrix(n, flag.dims, cols) if prefix_ranks(cols)[-1] == n else None


def _rebased(flag, rng):
    """The flag on random new Z[i] columns: column j combines the columns of
    its own block and of the blocks before it, and the new columns are
    independent, so every subspace of the flag stays the same."""
    n = flag.n
    block_ends = [next(end for end in flag.dims if end > j) for j in range(n)]
    while True:
        copy = _recombined(flag, {j: [(rng.randint(-1, 1), rng.randint(-1, 1)) if k < end
                                      else (0, 0) for k in range(n)]
                                  for j, end in enumerate(block_ends)})
        if copy is not None:
            return copy


def _prefix_span_key(flag):
    """The flag's identity by definition: the canonical span of each prefix."""
    return flag.dims, tuple(gaussian.zcanonical(flag.zcols[:d]) for d in flag.dims)


def test_canonical_key_is_the_flag_up_to_block_triangular_bases():
    rng = random.Random(20)
    corpus = []
    for n in range(1, 7):
        flags_n = list(_form_points(n))
        if n <= 4:
            reference = standard_reference(n)
            flags_n += [random_cell_sample(word, reference, seed)
                        for word in permutations(range(1, n + 1)) for seed in (1, 2)]
        projections = [flag.dims for flag in _symmetric_projections(standard_reference(n))]
        for flag in flags_n:
            for dims in (flag.dims, rng.choice(projections)):
                partial = FlagMatrix(n, dims, flag.zcols, flag.dens)
                rebased = _rebased(partial, rng)
                assert rebased.canonical_key() == partial.canonical_key()
                corpus += [partial, rebased]
    keys = [flag.canonical_key() for flag in corpus]
    spans = [_prefix_span_key(flag) for flag in corpus]
    # Both partitions of the corpus are the same, and not every class is a singleton.
    assert len(set(keys)) == len(set(spans)) == len(set(zip(keys, spans))) < len(corpus) // 2


def test_quaternion_conjugation_action():
    j = conjugation("quaternion-j")
    assert j(unit_vector(4, 0)) == unit_vector(4, 2, (-1, 0))
    assert j(unit_vector(4, 2)) == unit_vector(4, 0)
    v = ((1, 0), (0, 1), (0, 0), (2, 0))  # (1, i, 0, 2)
    assert j(j(v)) == tuple((-a, -b) for a, b in v)


@given(cleared_vectors, cleared_vectors)
def test_form_symmetries(u, v):
    b = bilinear_b()
    assert b.zvalue(u, v) == b.zvalue(v, u)
    omega = symplectic_omega(2)
    re, im = omega.zvalue(v, u)
    assert omega.zvalue(u, v) == (-re, -im)
    h = hermitian_h(2, 2)
    re, im = h.zvalue(v, u)
    assert h.zvalue(u, v) == (re, -im)


def _forms(n):
    """The forms on C^n: b, h with q = n // 2, and omega for even n."""
    forms = [bilinear_b(), hermitian_h(n - n // 2, n // 2)]
    return forms + [symplectic_omega(n // 2)] if n % 2 == 0 else forms


def _zvectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.sampled_from(_forms(n)), st.lists(_zvectors(n), max_size=6))))
def test_gram_is_the_table_of_zvalue(case):
    form, cols = case
    assert form.gram(cols) == [[form.zvalue(u, v) for v in cols] for u in cols]


def _two_sum_dot(u, v):
    return (sum(a * c - b * d for (a, b), (c, d) in zip(u, v)),
            sum(a * d + b * c for (a, b), (c, d) in zip(u, v)))


def _two_sum_hdot(u, v):
    return (sum(a * c + b * d for (a, b), (c, d) in zip(u, v)),
            sum(b * c - a * d for (a, b), (c, d) in zip(u, v)))


def _two_sum_value(form, u, v):
    """``FormSpec.zvalue`` with every pairing written as two generator sums."""
    if form.kind == "symmetric-b":
        return _two_sum_dot(u, v)
    if form.kind == "symplectic-omega":
        m = form.m or len(u) // 2
        (ar, ai), (br, bi) = _two_sum_dot(u[:m], v[m:]), _two_sum_dot(u[m:], v[:m])
        return (ar - br, ai - bi)
    q = form.q
    (ar, ai), (br, bi) = _two_sum_hdot(u[q:], v[q:]), _two_sum_hdot(u[:q], v[:q])
    return (ar - br, ai - bi)


def _sparse_zvectors(n):
    return st.lists(st.one_of(st.just((0, 0)), entries), min_size=n, max_size=n).map(tuple)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    _sparse_zvectors(n), _sparse_zvectors(n), st.sampled_from(_forms(n)),
    st.lists(_sparse_zvectors(n), max_size=6))))
def test_dots_and_gram_equal_the_two_sum_definitions(case):
    u, v, form, cols = case
    assert geometry._dot(u, v) == _two_sum_dot(u, v)
    assert geometry._hdot(u, v) == _two_sum_hdot(u, v)
    assert form.gram(cols) == [[_two_sum_value(form, a, b) for b in cols] for a in cols]


def test_tau_generic_examples():
    generic = _flag((I, 1), (1, 0))
    assert is_tau_generic(generic)
    coordinate = _flag((1, 0), (0, 1))
    assert not is_tau_generic(coordinate)


def test_isotropic_examples():
    b = bilinear_b()
    isotropic_line = _flag((I, 1), (1, 0))
    assert is_isotropic_flag(isotropic_line, b)
    coordinate = _flag((1, 0), (0, 1))
    assert not is_isotropic_flag(coordinate, b)
    omega = symplectic_omega(1)
    pair = _flag((1, 0), (0, -1))  # e1, j(e1)
    assert is_isotropic_flag(pair, omega)


def test_signature_examples():
    p, q = 2, 1
    e1 = gq_vector((1, 0, 0))
    assert signature([e1], p, q) == (1, 0, 0)
    null = gq_vector((1, 0, 1))  # e1 + e3 is h-null for q=1? use e1+e_(2q)=e1+e2
    null = gq_vector((1, 1, 0))
    assert signature([null], p, q) == (0, 0, 1)
    basis = [gq_vector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert signature(basis, p, q) == (q, p, 0)


def test_signature_mixed_null_pair():
    # two null lines spanning a hyperbolic plane: signature (1, 1, 0)
    p, q = 1, 1
    u = gq_vector((1, 1))
    v = gq_vector((1, -1))
    assert signature([u, v], p, q) == (1, 1, 0)


def test_su_orbit_and_cycle_membership():
    p, q = 2, 1
    flag = FlagMatrix.coordinate_flag((2, 1, 3))
    a, b = (0, 1, 0), (1, 0, 1)
    assert in_open_orbit_su(flag, a, b)
    assert in_base_cycle_su(flag, a, b)
    assert orbit_label_su(flag, p, q) == "+-+"
    degenerate = _flag((1, 1, 0), (1, 0, 0), (0, 0, 1))
    assert orbit_label_su(degenerate, p, q) is None


def test_maximally_isotropic():
    assert is_maximally_isotropic(iwasawa_reference_su(3, 2), 3, 2)
    assert is_maximally_isotropic(iwasawa_reference_su(4, 2), 4, 2)
    coordinate = FlagMatrix.coordinate_flag((1, 2, 3, 4, 5))
    assert not is_maximally_isotropic(coordinate, 3, 2)


def test_cell_membership_torus_points():
    reference = standard_reference(4)
    for word in ((2, 4, 3, 1), (1, 2, 3, 4), (4, 3, 2, 1)):
        flag = FlagMatrix.coordinate_flag(word)
        assert schubert_cell_membership(flag, word, reference)
    assert not schubert_cell_membership(
        FlagMatrix.coordinate_flag((2, 4, 3, 1)), (4, 2, 3, 1), reference)


def test_cell_membership_partial_flags():
    reference = standard_reference(4)
    flag = FlagMatrix.coordinate_flag((2, 4, 1, 3), dims=(2, 4))
    assert schubert_cell_membership(flag, (2, 4, 1, 3), reference)
    assert not schubert_cell_membership(flag, (1, 3, 2, 4), reference)


def test_random_cell_sample_is_deterministic_and_in_cell():
    reference = standard_reference(5)
    word = (2, 4, 1, 5, 3)
    a = random_cell_sample(word, reference, seed=11)
    b = random_cell_sample(word, reference, seed=11)
    c = random_cell_sample(word, reference, seed=12)
    assert a.columns == b.columns
    assert a.columns != c.columns
    assert schubert_cell_membership(a, word, reference)


def _references(max_n):
    """Each form's reference flag with ambient dimension up to ``max_n``."""
    refs = [standard_reference(n) for n in range(1, max_n + 1)]
    refs += [iwasawa_reference_h(m) for m in range(1, max_n // 2 + 1)]
    return refs + [iwasawa_reference_su(n - q, q) for n in range(2, max_n + 1)
                   for q in range(1, n // 2 + 1)]


def test_cell_ranks_are_the_relative_position_of_cell_points():
    # The premise of both witnesses: dim(V_d ∩ F_k) = r_w(d, k) on the whole
    # cell of w, here at two sampled points of every cell of each reference.
    for reference in _references(5):
        n = reference.n
        for word in permutations(range(1, n + 1)):
            r = cell_ranks(word)
            for seed in range(2):
                cols = random_cell_sample(word, reference, seed).zcols
                for d in range(n + 1):
                    ranks = prefix_ranks(list(cols[:d]) + list(reference.zcols))
                    assert [d + k - ranks[d + k] for k in range(n + 1)] == r[d], (word, d)


def _words_of_length(n, length):
    return [w for w in permutations(range(1, n + 1)) if inversion_length(w) == length]


def test_predicates_hold_exactly_when_no_witness():
    # verify certifies each predicted miss by its witness alone, so the
    # witness must exist on exactly the words that each predicate rejects.
    seen = []
    for n in range(2, 9):
        spans = conjugate_span_dims(standard_reference(n), "real-conjugation")
        words = _words_of_length(n, forms.length(forms.Request("slnr", n=n)))
        seen += [slnr.spacing_check(w) == (conjugate_meeting_witness(w, spans) is None)
                 for w in words]
    for m in range(1, 5):
        spans = conjugate_span_dims(iwasawa_reference_h(m), "quaternion-j")
        words = _words_of_length(2 * m, forms.length(forms.Request("slmh", n=2 * m)))
        seen += [slmh.spacing_check_h(w) == (conjugate_meeting_witness(w, spans) is None)
                 for w in words]
    for n in range(2, 9):
        for q in range(1, n // 2 + 1):
            p = n - q
            levels = self_dual_levels(iwasawa_reference_su(p, q), hermitian_h(p, q))
            # The levels strictly between q and p would give false witnesses.
            assert levels == [a for a in range(n + 1) if a <= q or a >= p], (p, q)
            words = _words_of_length(n, forms.length(forms.Request("supq", p=p, q=q)))
            seen += [supq.pairing_check(w, p, q) == (degenerate_witness(w, levels) is None)
                     for w in words]
    assert len(seen) == 4099 + 3546 + 13276 and all(seen), seen.count(False)


def test_standard_spans_are_the_larger_level():
    # The coordinate flag is real: conj(F_l) = F_l, so F_k + conj(F_l) is
    # the larger of the two.
    for n in range(1, 7):
        assert conjugate_span_dims(standard_reference(n), "real-conjugation") == [
            [max(k, l) for l in range(n + 1)] for k in range(n + 1)]


def _dense_cell_sample(word, reference, seed, dims=None):
    """``random_cell_sample`` as it was before the sparse accumulation: each
    draw added to all n entries through ``gmul``, and one gcd division even
    when the gcd is 1."""
    n = len(word)
    rng = random.Random(seed)
    ref_den = lcm(*reference.dens)
    ref = [[(a * (ref_den // d), b * (ref_den // d)) for a, b in z]
           for z, d in zip(reference.zcols, reference.dens)]
    cleared = []
    for i, v in enumerate(word):
        draws = [(row, [rng.randint(-100, 100), rng.randint(1, 100),
                        rng.randint(-100, 100), rng.randint(1, 100)])
                 for row in range(1, v) if row not in word[:i]]
        den = lcm(*(x for _, (_, b, _, d) in draws for x in (b, d)))
        vec = [(a * den, b * den) for a, b in ref[v - 1]]
        for row, (a, b, c, d) in draws:
            coeff = (a * (den // b), c * (den // d))
            vec = [tuple(map(sum, zip(x, gmul(coeff, y)))) for x, y in zip(vec, ref[row - 1])]
        g = gcd(den * ref_den, *(part for x in vec for part in x))
        cleared.append((tuple((a // g, b // g) for a, b in vec), den * ref_den // g))
    zcols, dens = zip(*cleared)
    return FlagMatrix(n, dims if dims is not None else range(1, n + 1), zcols, dens)


def test_cell_sample_equals_the_dense_cell_sample():
    references = [standard_reference(n) for n in range(1, 6)]
    references += [iwasawa_reference_h(2), iwasawa_reference_su(2, 2),
                   iwasawa_reference_su(3, 2),
                   # complex entries over several denominators
                   _flag(gq_vector((Fraction(1, 2), I, 0)), gq_vector((0, 1, GQ(0, Fraction(2, 3)))),
                         gq_vector((1, 0, 1)))]
    for reference in references:
        n = reference.n
        for word in permutations(range(1, n + 1)):
            for seed in (0, 1, 952804):
                for dims in (None, (1, n)) if n > 1 else (None,):
                    ours = random_cell_sample(word, reference, seed, dims)
                    theirs = _dense_cell_sample(word, reference, seed, dims)
                    assert (ours.n, ours.dims, ours.zcols, ours.dens) == \
                        (theirs.n, theirs.dims, theirs.zcols, theirs.dens)


def test_fast_generic_test_agrees_with_definition():
    # verify certifies the slnr points through tau_generic_full_flag.
    cases = [(point, "real-conjugation") for n in range(2, 7)
             for word in slnr.enumerate_gb(n) for point in slnr.intersection_points_gb(word)]
    cases += [(slmh.intersection_point_h(word), "quaternion-j")
              for m in range(1, 4) for word in slmh.enumerate_gb_h(m)]
    for n in range(1, 6):
        references = [("real-conjugation", standard_reference(n))]
        references += [("quaternion-j", iwasawa_reference_h(n // 2))] if n % 2 == 0 else []
        cases += [(random_cell_sample(word, reference, seed), conj)
                  for conj, reference in references
                  for word in permutations(range(1, n + 1)) for seed in range(3)]
    seen = {True: 0, False: 0}
    for flag, conj in cases:
        fast = tau_generic_full_flag(flag, conj)
        assert fast == is_tau_generic(flag, conj), (flag, conj)
        seen[fast] += 1
    assert seen[True] and seen[False], seen


def test_sampling_hits_generic_locus_with_high_probability():
    # genericity is a dense open condition on each admissible cell, so
    # random rational parameters should land in it nearly always
    from flagslice import slnr
    reference = standard_reference(4)
    for word in slnr.enumerate_gb(4):
        hits = sum(
            tau_generic_full_flag(random_cell_sample(word, reference, seed))
            for seed in range(20))
        assert hits >= 18
    # while inadmissible cells contain no generic points at all
    for seed in range(20):
        flag = random_cell_sample((1, 2, 3, 4), reference, seed)
        assert not tau_generic_full_flag(flag)


def test_orientation_classes():
    plus = _flag((I, 1), (1, 0))
    minus = _flag((GQ(0, -1), 1), (1, 0))
    assert {orientation_class(plus), orientation_class(minus)} == {1, -1}
    with pytest.raises(ValueError):
        orientation_class(_flag((1, 0), (0, 1)))  # not generic at the middle


def test_reference_flags_shape():
    ref_h = iwasawa_reference_h(3)
    assert ref_h.n == 6
    assert ref_h.columns[1] == gq_vector((0, 0, 0, -1, 0, 0))
    ref_su = iwasawa_reference_su(3, 2)
    assert ref_su.columns[0] == gq_vector((1, 0, 0, 1, 0))
    assert ref_su.columns[2] == gq_vector((0, 0, 0, 0, 1))
    assert ref_su.columns[4] == gq_vector((1, 0, 0, -1, 0))


# -- the predicates against their per-level rank definitions --------------------


def _conjugate_intersections(flag, conj):
    """dim(V_a ∩ conj(V_b)) over the spans of the first a and the first b
    columns, as table[b][a], from one rank per b."""
    cmap = conjugation(conj)
    conj_cols = [cmap(c) for c in flag.zcols]
    return [[a + b - r for a, r in enumerate(prefix_ranks(conj_cols[:b] + list(flag.zcols))[b:])]
            for b in range(flag.n + 1)]


def _block_ranks(gram):
    """rank gram[:b][:a] as table[b][a], from one rank per b."""
    return [prefix_ranks([[row[c] for row in gram[:b]] for c in range(len(gram))])
            for b in range(len(gram) + 1)]


def _coarsenings(flag):
    n = flag.n
    for k in range(n):
        for dims in combinations(range(1, n), k):
            yield FlagMatrix(n, dims + (n,), flag.zcols, flag.dens)


def _equivalence_cases():
    """Complete flags, each with the flags to test on its columns: every
    coordinate flag and two cell samples per word for n <= 5, with all their
    coarsenings, and the constructed points of slnr and slmh."""
    for n in range(1, 6):
        reference = standard_reference(n)
        for word in permutations(range(1, n + 1)):
            for flag in (FlagMatrix.coordinate_flag(word),
                         random_cell_sample(word, reference, 2 * sum(word)),
                         random_cell_sample(word, reference, 2 * sum(word) + 1)):
                yield flag, _coarsenings(flag)
    for n in range(2, 7):
        for word in slnr.enumerate_gb(n):
            for point in slnr.intersection_points_gb(word):
                yield point, [point]
    for m in range(1, 4):
        for word in slmh.enumerate_gb_h(m):
            point = slmh.intersection_point_h(word)
            yield point, [point]


def test_predicates_match_their_per_level_definitions():
    seen = {True: 0, False: 0}
    for base, flags in _equivalence_cases():
        n = base.n
        conjs = ("real-conjugation", "quaternion-j")[:1 + (n % 2 == 0)]
        meets = [(conj, _conjugate_intersections(base, conj)) for conj in conjs]
        ranks = [(form, _block_ranks([[form.zvalue(u, v) for v in base.zcols]
                                      for u in base.zcols]))
                 for form in _forms(n)]
        for flag in flags:
            levels = [(di, dj) for dj in flag.dims for di in flag.dims]
            for conj, meet in meets:
                expected = all(meet[dj][di] == max(0, di + dj - n) for di, dj in levels)
                assert is_tau_generic(flag, conj) == expected, (flag, conj)
                seen[expected] += 1
            for form, rank in ranks:
                expected = all(di - rank[dj][di] == min(di, n - dj) for di, dj in levels)
                assert is_isotropic_flag(flag, form) == expected, (flag, form)
                seen[expected] += 1
    assert seen[True] and seen[False], seen


def _isotropic_by_ranks(flag, form):
    """``is_isotropic_flag`` by its definition, from the rank of every
    leading block of the Gram matrix."""
    rank = _block_ranks([[form.zvalue(u, v) for v in flag.zcols] for u in flag.zcols])
    levels = [(di, dj) for dj in flag.dims for di in flag.dims]
    return all(di - rank[dj][di] == min(di, flag.n - dj) for di, dj in levels)


def _pattern_faults(flag, form):
    """The pairs a <= b where the Gram matrix of a complete flag leaves the
    isotropic pattern: nonzero above the antidiagonal or zero on it."""
    n, cols = flag.n, flag.zcols
    return [(a, b) for a in range(n) for b in range(a, n - a)
            if (form.zvalue(cols[a], cols[b]) == (0, 0)) != (a + b < n - 1)]


def _nonzero_above(flag, form, a, b):
    """A copy of an isotropic complete flag whose Gram pattern fails only at
    (a, b), a + b <= n - 2, which is nonzero there; None if no column p in
    (a, b) can do it alone.  The new column p is d c_p + t u, where
    form(c_x, u) is d for x the other of (a, b) and 0 for every other column
    x, so that of the Gram entries of column p only those with that column
    and with itself change."""
    n = flag.n
    gram = form.gram(flag.zcols)
    for p, o in ((b, a), (a, b)):
        (dual,), d = zsolve([[row[k] for row in gram] for k in range(n)], [unit_vector(n, o)])
        for t in ((1, 0), (2, 0), (3, 0)):
            coeffs = [gmul(t, y) for y in dual]
            coeffs[p] = tuple(map(sum, zip(coeffs[p], d)))
            copy = _recombined(flag, {p: coeffs})
            if copy is not None and _pattern_faults(copy, form) == [(a, b)]:
                return copy
    return None


def _zero_on(flag, form, a, b):
    """A copy of an isotropic complete flag whose Gram pattern fails at
    (a, b), a + b = n - 1 and a < b, which is zero there, and at one pair
    above the antidiagonal: the fewest faults a nonsingular Gram can have
    with a zero on its antidiagonal.  Column a becomes c_a + c_j (or stays)
    and column b becomes x c_b + y c_k with form(c_a, c_b) = 0 on the new
    columns, j = b last as it moves the most entries; None if no j and k
    do it."""
    n = flag.n
    gram = form.gram(flag.zcols)
    for j in [a] + [x for x in range(n) if x not in (a, b)] + [b]:
        moved = [(int(x in (a, j)), 0) for x in range(n)]
        row = [tuple(map(sum, zip(*(gram[x][y] for x in {a, j})))) for y in range(n)]
        for k in range(n):
            if k == b or row[k] == (0, 0):
                continue
            coeffs = [(0, 0)] * n
            coeffs[b], coeffs[k] = row[k], (-row[b][0], -row[b][1])
            copy = _recombined(flag, {a: moved, b: coeffs})
            faults = _pattern_faults(copy, form) if copy else []
            if (a, b) in faults and len(faults) == 2 and sum(faults[0]) < n - 1:
                return copy
    return None


def test_closed_isotropy_test_on_nearly_isotropic_flags():
    # From each point, one copy whose Gram matrix is nonzero at one entry
    # above the antidiagonal, one where one antidiagonal entry vanishes (and,
    # as the Gram of a basis is nonsingular, one entry above it is nonzero),
    # and the point itself, each under every form; the faults take turns.
    points = [(point, bilinear_b()) for n in range(2, 7) for word in slnr.enumerate_gb(n)
              for point in slnr.intersection_points_gb(word)]
    points += [(slmh.intersection_point_h(word), symplectic_omega(m))
               for m in range(1, 4) for word in slmh.enumerate_gb_h(m)]
    for index, (point, own) in enumerate(points):
        n = point.n
        above = [(a, b) for a in range(n) for b in range(a, n - 1 - a)
                 if a < b or own.kind != "symplectic-omega"]
        on = [(a, n - 1 - a) for a in range(n // 2)]
        copies = [(point, True)]
        for targets, breaking in ((above, _nonzero_above), (on, _zero_on)):
            k = index % max(len(targets), 1)
            turn = targets[k:] + targets[:k]
            copy = next(filter(None, (breaking(point, own, a, b) for a, b in turn)), None)
            # omega vanishes on the diagonal, the one entry above it at n = 2
            assert copy is not None or (n, own.kind) == (2, "symplectic-omega"), point
            copies += [(copy, False)] if copy is not None else []
        for flag, isotropic in copies:
            assert is_isotropic_flag(flag, own) == _isotropic_by_ranks(flag, own) == isotropic
            for form in _forms(n):
                assert is_isotropic_flag(flag, form) == _isotropic_by_ranks(flag, form), \
                    (flag, form)


# -- the Iwasawa condition b + k_C = gl(n) at each reference flag ---------------


def _iwasawa_rank(reference, k_basis):
    """The rank of the span of M E_ij adj(M), i <= j, for the reference
    columns M, together with the n x n matrices ``k_basis``."""
    n = reference.n
    cols = reference.zcols
    # M Y = d * 1, so Y is adj(M) up to a nonzero scalar
    inverse, _ = zsolve(cols, [unit_vector(n, j) for j in range(n)])
    borel = [[gmul(cols[i][r], inverse[c][j]) for r in range(n) for c in range(n)]
             for i in range(n) for j in range(i, n)]
    flat = [[entry for row in matrix for entry in row] for matrix in k_basis]
    return prefix_ranks(borel + flat)[-1]


def _unit_matrix(n, a, b):
    return [[(int((r, c) == (a, b)), 0) for c in range(n)] for r in range(n)]


def _skew_basis(n):
    return [[[(int((r, c) == (a, b)) - int((r, c) == (b, a)), 0) for c in range(n)]
             for r in range(n)] for a, b in combinations(range(n), 2)]


def _symplectic_basis(m):
    """-J S over the symmetric S, with J the Gram of omega: sp(2m, C)."""
    n = 2 * m
    j = symplectic_omega(m).gram([unit_vector(n, i) for i in range(n)])
    basis = []
    for a in range(n):
        for b in range(a, n):
            s = _unit_matrix(n, a, b)
            s[b][a] = (1, 0)
            basis.append([[(-sum(j[r][t][0] * s[t][c][0] for t in range(n)), 0)
                           for c in range(n)] for r in range(n)])
    return basis


def _block_basis(p, q):
    """gl(q) ⊕ gl(p), block-diagonal for E^- = <e_1..e_q>, E^+ = the rest."""
    n = p + q
    return [_unit_matrix(n, a, b) for a in range(n) for b in range(n) if (a < q) == (b < q)]


@pytest.mark.parametrize("n", range(2, 7))
def test_iwasawa_condition_slnr(n):
    assert _iwasawa_rank(standard_reference(n), _skew_basis(n)) == n * n


@pytest.mark.parametrize("m", range(1, 4))
def test_iwasawa_condition_slmh(m):
    n = 2 * m
    assert _iwasawa_rank(iwasawa_reference_h(m), _symplectic_basis(m)) == n * n


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (3, 2), (4, 2), (3, 3)])
def test_iwasawa_condition_supq(p, q):
    n = p + q
    assert _iwasawa_rank(iwasawa_reference_su(p, q), _block_basis(p, q)) == n * n


def test_iwasawa_condition_fails_at_the_coordinate_flag():
    assert _iwasawa_rank(standard_reference(3), _block_basis(2, 1)) == 7
    assert _iwasawa_rank(standard_reference(4), _symplectic_basis(2)) == 15
