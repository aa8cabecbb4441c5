"""Indefinite unitary form: orbit parametrization, pairing conditions,
per-orbit algorithms, transposition variants, and partial flags."""

import hashlib
import json
from itertools import combinations, permutations as iter_permutations, product

import pytest

from flagslice import geometry, slnr, supq
from flagslice.flags import FlagMatrix
from flagslice.geometry import (in_base_cycle_su, in_open_orbit_su,
                                iwasawa_reference_su, orbit_label_su,
                                schubert_cell_membership)
from flagslice.permutations import inversion_length, parse_word


def all_alphas(p, q):
    n = p + q
    for minus in combinations(range(n), q):
        yield "".join("-" if i in minus else "+" for i in range(n))


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def all_descriptors(max_n):
    """Every open orbit, on every flag type, of every SU(p,q) with n <= max_n."""
    for n in range(1, max_n + 1):
        for q in range(0, n // 2 + 1):
            for dims in compositions(n):
                for a in product(*(range(d + 1) for d in dims)):
                    if sum(a) == q:
                        yield supq.OrbitDescriptor(
                            n - q, q, a, tuple(d - x for d, x in zip(dims, a)))


def test_sign_sequence_examples():
    # complete flags: cumulative counts 0,1,1,2,2 / 1,1,2,2,3 mean the
    # per-step growth pattern +-+-+
    desc = supq.OrbitDescriptor(3, 2, (0, 1, 0, 1, 0), (1, 0, 1, 0, 1))
    assert supq.sign_sequence_of(desc) == "+-+-+"
    gp = supq.OrbitDescriptor(6, 3, (1, 1, 1), (1, 3, 2))
    assert supq.format_sign_sequence(supq.sign_sequence_of(gp), gp.dims) == \
        "(-+)(-+++)(-++)"
    pure = supq.OrbitDescriptor(3, 1, (1,), (3,))
    assert supq.sign_sequence_of(pure) == "-+++"


def test_definite_signature_degenerates_to_one_variety():
    # q = 0: a single orbit (all plus), one Schubert variety (the identity)
    assert supq.enumerate_i_pq(3, 0) == [(1, 2, 3)]
    assert supq.count_i_pq(3, 0) == 1
    assert supq.perm_w((1, 2, 3), 3, 0) == [(1, 2, 3)]
    assert supq.sign_sequence_of(supq.OrbitDescriptor(3, 0, (0,), (3,))) == "+++"


def test_descriptor_validation():
    with pytest.raises(ValueError):
        supq.OrbitDescriptor(2, 3, (1, 1, 1), (1, 1, 0))  # p < q
    with pytest.raises(ValueError):
        supq.OrbitDescriptor(3, 2, (1, 1), (1, 1))  # sums wrong


def test_open_orbit_count():
    assert supq.open_orbit_count(3, 2) == 10
    assert supq.open_orbit_count(2, 2) == 6
    assert supq.open_orbit_count(5, 1) == 6
    assert len(list(all_alphas(3, 2))) == 10


def test_dimension_formulas():
    assert supq.cycle_dimension_su((0, 1, 0, 1, 0), (1, 0, 1, 0, 1)) == 4
    assert supq.cycle_dimension_su((2,), (3,)) == 0
    assert supq.cycle_dimension_su((3, 1), (2, 5)) == 3 * 1 + 2 * 5
    assert supq.schubert_dimension_su((3, 1), (2, 5)) == 17
    # complete flags: complementary dimension pq
    a = (0, 1, 0, 1, 0)
    b = (1, 0, 1, 0, 1)
    assert supq.cycle_dimension_su(a, b) + supq.schubert_dimension_su(a, b) == \
        sum(supq.OrbitDescriptor(3, 2, a, b).dims) * 4 // 2


def test_gamma_isomorphism():
    assert supq.gamma_i(6, 4, 2) == 4
    assert supq.gamma_i(2, 4, 2) == 2
    assert supq.gamma_i_word((6, 1, 5, 2, 3, 4), 4, 2) == (4, 1, 3, 2, 5, 6)
    # p = q: identity
    assert supq.gamma_i_word((4, 1, 3, 2), 2, 2) == (4, 1, 3, 2)


def test_pairing_examples():
    assert supq.pairing_check((6, 1, 5, 2, 3, 4), 4, 2)
    assert not supq.pairing_check((1, 6, 5, 2, 3, 4), 4, 2)
    for p, q in ((2, 1), (2, 2), (3, 2)):
        n = p + q
        for word in iter_permutations(range(1, n + 1)):
            if supq.strictly_pairing_check_su(word, p, q):
                assert supq.pairing_check(word, p, q)


def test_strictly_pairing_examples():
    assert supq.strictly_pairing_check_su((6, 1, 5, 2, 3, 4), 4, 2)
    assert supq.strictly_pairing_check_su((5, 6, 1, 2, 3, 4), 4, 2)  # nested pair
    assert not supq.strictly_pairing_check_su((4, 5, 6, 1, 2, 3), 4, 2)


def test_enumerate_i_pq_published_lists():
    su32 = {parse_word(s) for s in
            ("51423", "51342", "35142", "42513", "42351",
             "34251", "45123", "34512")}
    assert set(supq.enumerate_i_pq(3, 2)) == su32
    su42 = {parse_word(s) for s in
            ("615234", "613524", "361524", "613452", "361452", "346152",
             "526134", "523614", "352614", "523461", "352461", "345261",
             "561234", "356124", "345612")}
    assert set(supq.enumerate_i_pq(4, 2)) == su42


def test_enumerate_i_pq_counts_and_lengths():
    for q in range(1, 5):
        for p in range(q, 10 - q + 1):
            words = supq.enumerate_i_pq(p, q)
            assert len(words) == supq.count_i_pq(p, q)
            assert all(inversion_length(w) == p * q for w in words)
    assert supq.count_i_pq(4, 2) == 15 == 5 * 3
    assert len(supq.enumerate_i_pq(4, 1)) == 4


def test_perm_w_published_example():
    got = supq.perm_w((6, 1, 5, 2, 3, 4), 4, 2)
    assert set(got) == {parse_word(s) for s in
                        ("413256", "143256", "412356", "142356")}
    assert len(got) == 2 ** 2
    for p, q in ((2, 1), (3, 2)):
        for word in supq.enumerate_i_pq(p, q):
            assert len(supq.perm_w(word, p, q)) == 2 ** q


def test_t_w_flags_in_distinct_cycles():
    p, q = 3, 2
    for word in supq.enumerate_i_pq(p, q):
        flags = supq.t_w(word, p, q)
        labels = [orbit_label_su(flag, p, q) for flag in flags]
        assert len(set(labels)) == 2 ** q
        assert supq.t_w_labels(word, p, q) == labels
        for flag, label in zip(flags, labels):
            desc = supq.orbit_from_signs(p, q, label)
            assert in_base_cycle_su(flag, desc.a, desc.b)


def test_enumerate_for_orbit_extreme_patterns():
    # all pluses then all minuses: single variety
    for p, q in ((3, 1), (3, 2), (4, 2)):
        n = p + q
        alpha = "+" * p + "-" * q
        rows = supq.enumerate_for_orbit(alpha, p, q)
        assert len(rows) == 1
        word, flag = rows[0]
        assert word == tuple(range(q + 1, p + 1)) + \
            tuple(range(n - q + 1, n + 1)) + tuple(range(1, q + 1))
        expected_point = tuple(range(2 * q + 1, n + 1)) + \
            tuple(range(q + 1, 2 * q + 1)) + tuple(range(1, q + 1))
        assert flag.canonical_key() == \
            geometry.FlagMatrix.coordinate_flag(expected_point).canonical_key()
    # trailing (+-) pairs: double factorial many
    assert len(supq.enumerate_for_orbit("+" + "+-" * 2, 3, 2)) == 3
    assert len(supq.enumerate_for_orbit("++" + "+-" * 2, 4, 2)) == 3
    assert len(supq.enumerate_for_orbit("+-" * 2, 2, 2)) == 3
    # leading (+-+) groups: 2q(2q-2)... many
    assert len(supq.enumerate_for_orbit("+-+" * 2, 4, 2)) == 8
    assert len(supq.enumerate_for_orbit("+-+", 2, 1)) == 2


def test_enumerate_for_orbit_membership_oracle():
    p, q = 3, 2
    reference = iwasawa_reference_su(p, q)
    ipq = set(supq.enumerate_i_pq(p, q))
    for alpha in all_alphas(p, q):
        desc = supq.orbit_from_signs(p, q, alpha)
        for word, flag in supq.enumerate_for_orbit(alpha, p, q):
            assert word in ipq
            assert in_open_orbit_su(flag, desc.a, desc.b)
            assert in_base_cycle_su(flag, desc.a, desc.b)
            assert schubert_cell_membership(flag, word, reference)
            assert orbit_label_su(flag, p, q) == alpha


def test_enumerate_i_pq_is_the_strictly_pairing_permutations():
    # Reference: filter every permutation through the predicate.
    for n in range(1, 8):
        for q in range(0, n // 2 + 1):
            p = n - q
            expected = [word for word in iter_permutations(range(1, n + 1))
                        if supq.strictly_pairing_check_su(word, p, q)]
            assert supq.enumerate_i_pq(p, q) == expected, (p, q)


# sha256 of ``repr([enumerate_i_pq(n - q, q) for q in range(n // 2 + 1)])``,
# recorded from the slot-by-slot placement walk that built these lists before
# the pair-insertion walk: the words and their order, past where the
# permutation filter above is affordable.
ENUMERATE_I_PQ_SHA256 = {
    1: "e1e54756583f510d6d477ed916f0b91888f9c42e70e78fdd3e39925daa0b312c",
    2: "03d1354dad6315bd6459ca39b98714459a9c6bca01206af63a21006432662a79",
    3: "6ea2ce2ca298c7520fa09ad168c2106f41d9355706b7ad8c95dc27c0ea25476a",
    4: "771fe13c2ee846e5a5d6c57cdddc967730e92b93fc51aa4134bb95d4df560960",
    5: "2144c96c752512b89984d7c4c0d2c92528ee80843be1b230bcef0a152b8d7f24",
    6: "b935ec890b65278c07205df0ed9077fee0e35df468d2fa9d219f61c452120f49",
    7: "71604607e40ded14499e4276e732fc82fbd293e1e31ab5193048a56467a0b46c",
    8: "79ac0e4d8ea8167411c70f6aa38c81cd12aa08ccfb2475a6380e13d22b30c8bd",
    9: "fd0e2964a75d46968316e9815018ddafe34989293a21db284c5f9a0675fce094",
    10: "37cd634333888a1fe878af87cb3d1de0a4d6e23482c014b7f43ca376fc2c97da",
    11: "151d99028f42cdcc28d9d8127e946585a3b2fc0cb06aa4a25689af80951f99de",
    12: "362d3a09392a0439078b3d1fd0adadb67d867ed06282c35da9efd8486a676a45",
    13: "b482ce3e61e1de5d10425bdaabbb371853f0638fd617ed345736b9807ef77114",
}


@pytest.mark.parametrize("n", list(ENUMERATE_I_PQ_SHA256))
def test_enumerate_i_pq_lists_are_pinned(n):
    words = [supq.enumerate_i_pq(n - q, q) for q in range(n // 2 + 1)]
    assert hashlib.sha256(repr(words).encode()).hexdigest() == ENUMERATE_I_PQ_SHA256[n]


def test_enumerate_i_pq_inverts_to_the_double_box_words():
    # A word of ``slnr._pair_words((1,) * q, n)`` holds the head of pair i
    # at position i and its tail, the head's left neighbour among the
    # letters pairs 1..i-1 leave, at position n+1-i, and the rest in order
    # in the middle.  Its inverse puts letter n+1-i just left of letter i
    # once pairs 1..i-1 are removed, and the singles in order: the strictly
    # pairing placement.  So slnr's pair walk, which shares no code with
    # supq, checks the pair insertion at every q.
    def inverse(word):
        out = [0] * len(word)
        for position, v in enumerate(word, 1):
            out[v - 1] = position
        return tuple(out)

    for n in range(1, 13):
        for q in range(0, n // 2 + 1):
            words = supq.enumerate_i_pq(n - q, q)
            assert slnr._pair_words((1,) * q, n) == sorted(map(inverse, words)), (n, q)


def test_enumerate_i_pq_is_the_union_over_complete_flag_orbits():
    # The pair insertion of ``enumerate_i_pq`` and the pair placement of the
    # orbit walk share no code, so this checks one walk against the other,
    # orbit by orbit: a complete-flag orbit alpha takes, in order, the
    # strictly pairing words whose pairs (n+1-i, i) each sit on two slots of
    # opposite sign in alpha, so each word meets some orbit.  Each meets it
    # in the coordinate flag of v + q for a single v, and of i on a minus
    # slot and 2q+1-i on a plus slot for a letter of pair i.
    for n in range(1, 9):
        for q in range(0, n // 2 + 1):
            p = n - q
            words = supq.enumerate_i_pq(p, q)
            union = set()
            for alpha in all_alphas(p, q):
                split = [w for w in words if all(alpha[w.index(n + 1 - i)] != alpha[w.index(i)]
                                                 for i in range(1, q + 1))]
                rows = supq.enumerate_for_orbit_gp(supq.orbit_from_signs(p, q, alpha))
                assert [word for word, _ in rows] == split, (p, q, alpha)
                for word, flag in rows:
                    point = [v + q if q < v <= p else min(v, n + 1 - v) if sign == "-"
                             else 2 * q + 1 - min(v, n + 1 - v) for v, sign in zip(word, alpha)]
                    assert flag == FlagMatrix.coordinate_flag(point), (p, q, alpha, word)
                union.update(split)
            assert words == sorted(union), (p, q)


def test_orbit_from_signs_has_one_message_for_a_bad_sign_sequence():
    assert supq.orbit_from_signs(3, 2, "+-+-+") == \
        supq.OrbitDescriptor(3, 2, (0, 1, 0, 1, 0), (1, 0, 1, 0, 1))
    assert supq.orbit_from_signs(3, 2, "(-+)(-++)", (2, 3)) == \
        supq.OrbitDescriptor(3, 2, (1, 1), (1, 2))
    for alpha in ("+-+-", "+-+-++", "--+-+", "+++++"):
        for dims in (None, (2, 3)):
            with pytest.raises(ValueError, match="must have 2 minuses and 3 pluses"):
                supq.orbit_from_signs(3, 2, alpha, dims)
    with pytest.raises(ValueError, match="dimension sequence"):
        supq.orbit_from_signs(3, 2, "+-+-+", (2, 2))


def test_per_orbit_points_at_wider_signature():
    from flagslice import checks
    result = checks.check_points_supq(((4, 2),))
    assert result.passed, result.detail


def test_double_counting_identity():
    for p, q in ((2, 1), (2, 2), (3, 2), (4, 2)):
        totals = {}
        for alpha in all_alphas(p, q):
            for word, _ in supq.enumerate_for_orbit(alpha, p, q):
                totals[word] = totals.get(word, 0) + 1
        assert sum(totals.values()) == 2 ** q * supq.count_i_pq(p, q)
        assert set(totals) == set(supq.enumerate_i_pq(p, q))
        assert all(count == 2 ** q for count in totals.values())


def test_block_pairing_examples():
    assert supq.pairing_check((3, 4, 1, 5, 6, 2), 4, 2, (1, 1, 3, 1))
    # word with 1 strictly left of 6's block cannot be repaired
    assert not supq.pairing_check((1, 2, 3, 4, 5, 6), 4, 2, (1, 1, 3, 1))
    # Complete flags against the paper's rule: n+1-i sits before i.
    for n in range(1, 8):
        for word in iter_permutations(range(1, n + 1)):
            for q in range(n // 2 + 1):
                assert supq.pairing_check(word, n - q, q) == all(
                    word.index(n + 1 - i) < word.index(i) for i in range(1, q + 1)), (word, q)
    for word, dims in (((1, 1, 2), None), ((1, 2, 3), None), ((1, 2, 3, 4), (2, 1))):
        with pytest.raises(ValueError):
            supq.pairing_check(word, 2, 2, dims)


def test_grassmannian_worked_example():
    desc = supq.OrbitDescriptor(7, 4, (3, 1), (2, 5))
    rows = supq.enumerate_for_orbit_gp(desc)
    words = [w for w, _ in rows]
    assert words == [
        (1, 2, 8, 10, 11, 3, 4, 5, 6, 7, 9),
        (1, 3, 8, 9, 11, 2, 4, 5, 6, 7, 10),
        (2, 3, 8, 9, 10, 1, 4, 5, 6, 7, 11),
    ]
    reference = iwasawa_reference_su(7, 4)
    target = supq.schubert_dimension_su(desc.a, desc.b)
    for word, flag in rows:
        assert inversion_length(word) == target
        assert in_open_orbit_su(flag, desc.a, desc.b)
        assert in_base_cycle_su(flag, desc.a, desc.b)
        assert schubert_cell_membership(flag, word, reference)


def test_maximal_parabolic_binomial_counts():
    cases = [
        ((7, 4), (3, 1), (2, 5)),
        ((5, 3), (2, 1), (1, 4)),
        ((4, 2), (1, 1), (2, 2)),
        ((3, 3), (2, 1), (1, 2)),
    ]
    from math import comb
    for (p, q), a, b in cases:
        desc = supq.OrbitDescriptor(p, q, a, b)
        f1, f2 = desc.f
        expected = comb(f1 + f2, max(f1, f2))
        assert len(supq.enumerate_for_orbit_gp(desc)) == expected


def test_canonical_rearrangement_and_lifting():
    desc = supq.OrbitDescriptor(7, 4, (3, 1), (2, 5))
    drop = sum(x * y for x, y in zip(desc.a, desc.b))
    lift_alpha = supq.canonical_lifting(desc)
    assert lift_alpha == "-++--+++++-"
    lifted_words = [w for w, _ in supq.enumerate_for_orbit(lift_alpha, 7, 4)]
    for word, _ in supq.enumerate_for_orbit_gp(desc):
        lifted = supq.canonical_rearrangement_su(word, desc)
        assert supq.strictly_pairing_check_su(lifted, 7, 4)
        assert inversion_length(lifted) - inversion_length(word) == drop
        assert lifted in lifted_words
    # single block: lifting leaves the sign pattern length alone
    single = supq.OrbitDescriptor(2, 1, (1,), (2,))
    assert supq.canonical_lifting(single) == "++-"


def test_fixed_points_count():
    assert supq.fixed_points_in_cycle_count(3, 2) == 12
    assert supq.fixed_points_in_cycle_count(1, 1) == 1
    # direct enumeration at (2,1)
    p, q = 2, 1
    desc = supq.orbit_from_signs(p, q, "-++")
    count = sum(
        in_base_cycle_su(geometry.FlagMatrix.coordinate_flag(word), desc.a, desc.b)
        for word in iter_permutations(range(1, 4)))
    assert count == supq.fixed_points_in_cycle_count(p, q) == 2


def test_orbit_point_sets_injective():
    p, q = 3, 2
    seen = {}
    for alpha in all_alphas(p, q):
        key = frozenset(flag.canonical_key()
                        for _, flag in supq.enumerate_for_orbit(alpha, p, q))
        assert key not in seen
        seen[key] = alpha


def test_per_orbit_points_match_the_transposition_variants():
    # Independent construction: the transposition variants t_w of each
    # strictly pairing word, labelled by the oracle, must be exactly the
    # per-orbit (word, point) pairs, each used once.
    for p, q in ((2, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3)):
        unused = {alpha: supq.enumerate_for_orbit(alpha, p, q)
                  for alpha in all_alphas(p, q)}
        for word in supq.enumerate_i_pq(p, q):
            for flag in supq.t_w(word, p, q):
                rows = unused[orbit_label_su(flag, p, q)]
                match = [i for i, (w, f) in enumerate(rows)
                         if w == word and f.canonical_key() == flag.canonical_key()]
                assert len(match) == 1, (p, q, word)
                del rows[match[0]]
        assert all(rows == [] for rows in unused.values()), (p, q)


def test_per_orbit_rows_are_pinned():
    # Partial-flag orbits have no independent reference (projecting the
    # complete-flag orbits onto cosets does not reproduce them), so every
    # (word, point) row at n <= 7 is pinned by digest, in output order.
    digest = hashlib.sha256()
    rows = 0
    for desc in all_descriptors(7):
        for word, point in supq.enumerate_for_orbit_gp(desc):
            digest.update(json.dumps([list(word), point.to_json()]).encode())
            rows += 1
    assert rows == 6081
    assert digest.hexdigest() == \
        "beef4991cfc532f5ed185c1c835ba0f5525f62b4e87c27777bb3a74a4210c335"


def test_two_placements_giving_one_word_is_an_internal_error(monkeypatch):
    desc = supq.OrbitDescriptor(7, 4, (3, 1), (2, 5))
    monkeypatch.setattr(supq, "minimal_coset_representative",
                        lambda word, dims: (1,))
    with pytest.raises(AssertionError, match="two placements give one word"):
        supq.enumerate_for_orbit_gp(desc)
