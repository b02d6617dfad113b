import itertools
import random

import pytest

from primlat.core import (
    FinitePoset,
    LatticeError,
    _representative,
    bits,
    build_lattice,
    classify,
    complements_i,
    enumerate_lattices,
)

from conftest import chain, diamond, pentagon, powerset
from helpers import (
    choice_tuple,
    direct_product,
    enumerate_lattices_loop,
    is_isomorphic,
    lattice_from_covers,
    least_choice_brute,
    middle_rows,
)


def test_build_pentagon_is_lattice():
    built = build_lattice(
        ["0", "a", "b", "p", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "p"), ("p", "1")],
    )
    assert built.is_lattice
    assert built.join("a", "p") == "1"
    assert built.meet("b", "p") == "0"


def test_build_cycle_is_antisymmetry_error():
    cases = [
        ("xy", ["xy", "yx"], "'x' and 'y'"),
        ("abc", ["ab", "bc", "ca"], "'a' and 'b'"),
        ("01cba", ["01", "1a", "ab", "bc", "ca"], "'c' and 'b'"),  # above a chain: first declared, then least
        ("xyzw", ["xy", "wz", "zw"], "'z' and 'w'"),  # among the labels declared last
    ]
    for labels, covers, pair in cases:
        with pytest.raises(LatticeError, match=rf"^antisymmetry violation: cycle through {pair}$"):
            build_lattice(list(labels), [tuple(c) for c in covers])


def test_build_self_loop_and_keeps_down_sets():
    lat = build_lattice(["a"], [("a", "a")])
    assert lat.is_lattice and lat.leq_rows == (1,) and lat.join("a", "a") == "a"
    for built in (lat, build_lattice(["a", "b"], [])):
        assert "geq_rows" in built.__dict__


def test_build_unknown_and_duplicate_elements():
    with pytest.raises(LatticeError, match="unknown"):
        build_lattice(["x"], [("x", "y")])
    with pytest.raises(LatticeError, match="duplicate"):
        build_lattice(["x", "x"], [])


def test_build_antichain_is_not_a_lattice():
    built = build_lattice(["a", "b", "c", "d"], [])
    assert not built.is_lattice
    assert isinstance(built, FinitePoset)


def test_classify_pentagon():
    lat = pentagon()
    rep = classify(lat)
    assert not rep.is_modular
    assert rep.n5_witness == ("0", "a", "b", "p", "1")
    assert not rep.is_distributive
    assert rep.distributive_witness == ("N5",) + rep.n5_witness
    assert rep.complementation_class == "multiply"
    # p complements both a and b
    assert [lat.labels[j] for j in complements_i(lat)[lat.index("p")]] == ["a", "b"]


def test_classify_diamond():
    rep = classify(diamond())
    assert rep.is_modular
    assert not rep.is_distributive
    assert rep.distributive_witness[0] == "M3"
    assert rep.complementation_class == "multiply"


def test_classify_width_four_example():
    lat = lattice_from_covers(
        list("0abcpqr1"),
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "p"), ("b", "p"), ("c", "p"),
         ("c", "q"), ("c", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
    )
    rep = classify(lat)
    assert rep.width == 4
    assert rep.length == 3
    assert rep.lattice_height == 3
    assert len(rep.min_chain_partition) == 4
    assert sorted(x for c in rep.min_chain_partition for x in c) == sorted(lat.labels)


def test_classify_powerset_is_boolean():
    rep = classify(powerset(3))
    assert rep.is_boolean
    assert rep.lattice_height == 3
    assert rep.complementation_class == "uniquely"
    assert rep.is_atomic and rep.is_anti_atomic


def brute_force_width(lat):
    best = 0
    for size in range(lat.n, 0, -1):
        for combo in itertools.combinations(range(lat.n), size):
            if all(
                not lat.leq_i(a, b) and not lat.leq_i(b, a)
                for a, b in itertools.combinations(combo, 2)
            ):
                return size
    return best


def test_width_matches_brute_force_antichain(small_lattices):
    for lat in small_lattices:
        rep = classify(lat)
        assert rep.width == brute_force_width(lat)
        assert len(rep.max_antichain) == rep.width


def test_heights_on_chain():
    lat = chain(4)
    rep = classify(lat)
    assert rep.lattice_height == 3
    assert rep.width == 1
    assert [lat.heights[lat.index(f"c{i}")] for i in range(4)] == [0, 1, 2, 3]


# -- products and isomorphism ---------------------------------------------------


def test_square_is_powerset_of_two():
    two = chain(2)
    other = FinitePoset(("d0", "d1"), two.leq_rows)
    prod = direct_product(two, other)
    assert is_isomorphic(prod, powerset(2)) is not None


def test_pentagon_not_isomorphic_to_diamond():
    assert is_isomorphic(pentagon(), diamond()) is None


# -- enumeration ---------------------------------------------------------------


EXPECTED_COUNTS = {0: (1, 1, 1), 1: (1, 1, 1), 2: (1, 1, 1), 3: (1, 1, 1),
                   4: (2, 2, 2), 5: (5, 4, 3), 6: (15, 8, 5)}


def test_enumeration_counts_match_published_table():
    for n, (total, modular, distributive) in EXPECTED_COUNTS.items():
        lats = enumerate_lattices(n)
        assert len(lats) == total
        if n == 0:
            continue
        reports = [classify(lat) for lat in lats]
        assert sum(r.is_modular for r in reports) == modular
        assert sum(r.is_distributive for r in reports) == distributive


def test_enumeration_six_element_split():
    reports = [classify(lat) for lat in enumerate_lattices(6)]
    modular_not_distributive = sum(
        1 for r in reports if r.is_modular and not r.is_distributive
    )
    non_modular = sum(1 for r in reports if not r.is_modular)
    assert modular_not_distributive == 3
    assert non_modular == 7


def test_enumeration_is_deterministic_and_canonical():
    first = enumerate_lattices(5)
    second = enumerate_lattices(5)
    assert [lat.covers for lat in first] == [lat.covers for lat in second]
    for a, b in itertools.combinations(first, 2):
        assert is_isomorphic(a, b) is None


def test_enumeration_rejects_out_of_range():
    assert len(enumerate_lattices(8)) == 222
    with pytest.raises(LatticeError):
        enumerate_lattices(11)
    with pytest.raises(LatticeError):
        enumerate_lattices(-1)


@pytest.mark.parametrize("n", range(8))
def test_enumeration_matches_labelled_walk(n):
    # atom addition finds the same classes, in the order the labelled walk
    # first meets them, each shown by the first strict order of its class
    # in the walk
    got, want = enumerate_lattices(n), enumerate_lattices_loop(n)
    assert [lat.labels for lat in got] == [lat.labels for lat in want]
    assert [lat.leq_rows for lat in got] == [lat.leq_rows for lat in want]
    assert [lat.covers for lat in got] == [lat.covers for lat in want]
    assert [lat.join_table for lat in got] == [lat.join_table for lat in want]
    assert [lat.meet_table for lat in got] == [lat.meet_table for lat in want]


def test_small_lattices_fixture_is_unchanged(small_lattices):
    want = [lat for n in range(1, 7) for lat in enumerate_lattices_loop(n)]
    assert small_lattices == want


@pytest.mark.parametrize("n", range(2, 10))
def test_enumeration_is_in_increasing_choice_tuple_order(n):
    tuples = [choice_tuple(middle_rows(lat)) for lat in enumerate_lattices(n)]
    assert all(a < b for a, b in zip(tuples, tuples[1:]))


def test_eight_element_classes_are_pairwise_non_isomorphic():
    lats = enumerate_lattices(8)
    assert len(lats) == 222
    for a, b in itertools.combinations(lats, 2):
        assert is_isomorphic(a, b) is None


def test_representative_is_least_choice_tuple():
    # the refinement search against every k! relabelling, on a shuffled
    # copy of each class with at most 6 middles
    rng = random.Random(11)
    for n in range(2, 9):
        for lat in enumerate_lattices(n):
            rows = middle_rows(lat)
            best, rep = _representative(tuple(rows))
            assert choice_tuple(rep) == best == choice_tuple(rows)
            perm = list(range(n - 2))
            rng.shuffle(perm)
            shuffled = [0] * (n - 2)
            for x, row in enumerate(rows):
                shuffled[perm[x]] = sum(1 << perm[y] for y in bits(row))
            least = least_choice_brute(shuffled)
            assert least == choice_tuple(rows)
            best, rep = _representative(tuple(shuffled))
            assert choice_tuple(rep) == best == least


def test_seven_element_complementation_census():
    # 0 uniquely complemented, and a multiply/non-complemented split that is
    # cross-checked below by pairwise isomorphism rather than canonical keys
    lats = enumerate_lattices(7)
    reports = [classify(lat) for lat in lats]
    kinds = {"uniquely": 0, "multiply": 0, "non-complemented": 0}
    for r in reports:
        kinds[r.complementation_class] += 1
    assert kinds == {"uniquely": 0, "multiply": 18, "non-complemented": 35}
    multiply = [lat for lat, r in zip(lats, reports) if r.complementation_class == "multiply"]
    for a, b in itertools.combinations(multiply, 2):
        assert is_isomorphic(a, b) is None

