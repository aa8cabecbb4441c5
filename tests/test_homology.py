"""Cycle class expansions: coefficients, class lists, serialization."""

import pytest

from flagslice import homology, slnr, supq


def test_slnr_complete_flag_coefficients():
    odd = homology.base_cycle_class("slnr", n=5)
    assert odd.coefficient == 2 ** 2
    assert len(odd.classes) == 8
    even = homology.base_cycle_class("slnr", n=6)
    assert even.coefficient == 2 ** 2
    assert len(even.classes) == 15
    assert tuple(slnr.enumerate_gb(6)) == even.classes


def test_slnr_partial_flag_coefficients():
    d_shape = homology.base_cycle_class("slnr", n=4, dims=(2, 2))
    assert d_shape.coefficient == 2
    e_shape = homology.base_cycle_class("slnr", n=5, dims=(1, 3, 1))
    assert e_shape.coefficient == 2 ** 1
    full = homology.base_cycle_class("slnr", n=5, dims=(2, 1, 2))
    assert full.coefficient == 2 ** 2
    asym = homology.base_cycle_class("slnr", n=6, dims=(1, 5))
    assert asym.classes == ((2, 1, 3, 4, 5, 6),)
    assert asym.coefficient == slnr.intersection_count_measurable((1, 4, 1))


def test_slmh_always_unit_coefficient():
    for n, dims in ((8, None), (4, (2, 2)), (6, (2, 2, 2))):
        expansion = homology.base_cycle_class("slmh", n=n, dims=dims)
        assert expansion.coefficient == 1
        assert len(expansion.classes) >= 1


def test_supq_per_orbit_and_total():
    per_orbit = homology.base_cycle_class("supq", p=3, q=2, orbit="+-+-+")
    assert per_orbit.coefficient == 1
    total = homology.total_cycle_class_su(3, 2)
    assert total.coefficient == 4
    assert len(total.classes) == 8
    assert total.classes == tuple(supq.enumerate_i_pq(3, 2))
    wide = homology.total_cycle_class_su(4, 2)
    assert wide.coefficient == 4
    assert len(wide.classes) == 15
    definite = homology.total_cycle_class_su(4, 0)
    assert definite.coefficient == 1
    assert definite.classes == ((1, 2, 3, 4),)


def test_classes_must_strictly_increase():
    homology.HomologyExpansion(1, ((1, 2), (2, 1)), ())
    for classes in (((1, 2), (1, 2)), ((2, 1), (1, 2))):
        with pytest.raises(ValueError, match="distinct and in increasing order"):
            homology.HomologyExpansion(1, classes, ())


def test_class_counts_match_counting_formulas():
    assert len(homology.base_cycle_class("slnr", n=7).classes) == 48
    assert len(homology.base_cycle_class("slmh", n=10).classes) == 120
    assert len(homology.total_cycle_class_su(5, 3).classes) == 105


def test_json_shape():
    data = homology.base_cycle_class("slnr", n=4).to_json()
    assert data["coefficient"] == 2
    assert data["classes"][0] == "2 4 3 1"
    assert data["context"]["form"] == "slnr"


def test_validation():
    with pytest.raises(ValueError):
        homology.base_cycle_class("slnr")
    with pytest.raises(ValueError):
        homology.base_cycle_class("slmh", n=5)
    with pytest.raises(ValueError):
        homology.base_cycle_class("supq", p=3, q=2)  # needs orbit
    with pytest.raises(ValueError):
        homology.base_cycle_class("so8", n=4)
