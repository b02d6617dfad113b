"""The byte-row kernels against the element-by-element loops they replace.

Each kernel must give exactly the loop's answer (and the loop's first
witness, where it reports one) on every lattice of 1-7 elements, on 2^7,
on products of chains and on products with N5, M3 and the hexagon.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from primlat.core import (
    FiniteLattice,
    FinitePoset,
    LatticeError,
    build_lattice,
    classify,
    compose,
    distributive_by_identity,
    enumerate_lattices,
    modular_by_identity,
)
from primlat.ortho import _de_morgan_rows, _perm, find_orthocomplement, interval_sublattice
from primlat.primorial import boolean_carrier, generate_primorial
from primlat.probability import _gate
from primlat.valuation import _metric_axiom_failure, metric_from_valuation

from conftest import benzene, chain, diamond, pentagon, powerset, powerset_complement
from helpers import (
    de_morgan_rows_loop,
    distributive_identity_loop,
    distributive_triples_loop,
    gate_loop,
    lattice_tables_loop,
    metric_axiom_failure_loop,
    modular_identity_loop,
    modular_pairs_loop,
)


def _product(*factors):
    p = factors[0]
    for q in factors[1:]:
        p = compose(p, q, "direct-product")
    return FiniteLattice(p.labels, p.leq_rows)


SMALL = [lat for n in range(1, 8) for lat in enumerate_lattices(n)]
PRODUCTS = [
    _product(chain(3), chain(4)),
    _product(chain(2), chain(3), chain(4)),
    _product(pentagon(), chain(2)),
    _product(diamond(), chain(3)),
    _product(pentagon(), pentagon()),
    _product(benzene()[0], diamond()),
    _product(benzene()[0], chain(2), chain(2)),
]
B7 = powerset(7)


def _ids(lats):
    return [f"{k}-n{lat.n}" for k, lat in enumerate(lats)]


def test_the_small_lattices_are_all_78():
    assert len(SMALL) == 78


def _constructed():
    """One or more lattices from every construction path, 0 to 256 elements."""
    built = build_lattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    product = compose(chain(3), chain(4), "direct-product")
    return [
        ("build_lattice", built),
        ("FiniteLattice(labels, leq)", FiniteLattice(product.labels, product.leq_rows)),
        ("from_covers", pentagon()),
        *((f"enumerate_lattices({n})", lat) for n in (0, 1, 2, 5) for lat in enumerate_lattices(n)),
        ("boolean Level.lattice", boolean_carrier(3).lattice),
        ("difference Level.lattice", generate_primorial(4).level("D3").lattice),
        ("interval_sublattice", interval_sublattice(powerset(4), 0b0001, 0b1101)),
        ("0 elements", FiniteLattice((), ())),
        ("1 element", FiniteLattice(("x",), (1,))),
        ("256 elements", powerset(8)),
    ]


def _assert_padded(row, n):
    assert type(row) is bytes and len(row) == 256
    assert row[n:] == bytes(range(n, 256))


def test_every_index_map_is_one_padded_byte_row():
    for how, lat in _constructed():
        n = lat.n
        assert len(lat.join_table) == len(lat.meet_table) == n, how
        for i in range(n):
            _assert_padded(lat.join_table[i], n)
            _assert_padded(lat.meet_table[i], n)
            for j in range(n):
                assert lat.join_i(i, j) == lat.join_table[i][j], how
                assert lat.meet_i(i, j) == lat.meet_table[i][j], how
        reversal = dict(zip(lat.labels, reversed(lat.labels)))
        perm = _perm(lat, reversal)
        _assert_padded(perm, n)
        assert list(perm[:n]) == list(reversed(range(n))), how


def _index_maps(lat):
    """Index maps to run the De Morgan rows on, as padded byte rows: a
    rotation, the reversal, a constant, and an orthocomplement where one is
    known."""
    n = lat.n
    maps = [[(i + 1) % n for i in range(n)], list(reversed(range(n))), [0] * n]
    if lat is B7:
        ortho = powerset_complement(7)
    elif n <= 7:
        ortho = find_orthocomplement(lat)
    else:
        ortho = None
    if ortho:
        maps.append([lat.index(ortho[lab]) for lab in lat.labels])
    return [bytes(m) + bytes(range(n, 256)) for m in maps]


@pytest.mark.parametrize("lat", SMALL + PRODUCTS + [B7], ids=_ids(SMALL + PRODUCTS + [B7]))
def test_identity_kernels_match_loops(lat):
    assert distributive_by_identity(lat) == distributive_identity_loop(lat)
    assert modular_by_identity(lat) == modular_identity_loop(lat)
    assert classify(lat).modular_pairs == modular_pairs_loop(lat)
    for perm in _index_maps(lat):
        got = [tuple(row[: lat.n] for row in rows) for rows in _de_morgan_rows(lat, perm)]
        assert got == de_morgan_rows_loop(lat, perm)


@pytest.mark.parametrize("lat", SMALL + PRODUCTS + [powerset(6)], ids=_ids(SMALL + PRODUCTS + [powerset(6)]))
def test_triple_and_gate_kernels_match_loops(lat):
    # 2^6 stands in for 2^7 here: its 2^21 triples would all be materialised
    assert classify(lat).distributive_triples == distributive_triples_loop(lat)
    assert _gate(lat) == gate_loop(lat)


def _dropped(lat, which):
    keep = [lab for i, lab in enumerate(lat.labels) if i != which]
    return lat.subposet(keep)


def _posets():
    out = list(SMALL) + PRODUCTS + [B7]
    for lat in SMALL + PRODUCTS:
        if lat.n > 2:
            out.append(_dropped(lat, lat.top_i))
            out.append(_dropped(lat, lat.bottom_i))
    out.append(FinitePoset(("a", "b", "c"), (1, 2, 4)))
    return out


def test_lattice_tables_match_bound_scans():
    posets = _posets()
    witnesses = 0
    for p in posets:
        got = p.lattice_tables()
        assert got == lattice_tables_loop(p)
        witnesses += got[2] is not None
    assert witnesses > 20  # non-lattices, each with the scan's first witness


@given(st.integers(1, 6), st.lists(st.integers(0, 2), min_size=15, max_size=15))
def test_lattice_tables_on_random_posets(n, rel):
    labels = [f"e{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = [(labels[i], labels[j]) for (i, j), r in zip(pairs, rel) if r == 1]
    covers += [(labels[j], labels[i]) for (i, j), r in zip(pairs, rel) if r == 2]
    try:
        p = FinitePoset.from_covers(labels, covers)
    except LatticeError:
        return  # a cycle
    assert p.lattice_tables() == lattice_tables_loop(p)


_weights = st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=12)


@given(st.lists(_weights, min_size=4, max_size=4))
def test_triangle_kernel_on_boolean_valuations(weights):
    lat = powerset(4)
    values = {x: sum((w for a, w in enumerate(weights) if x >> a & 1), Fraction(0)) for x in lat.labels}
    metric = metric_from_valuation(lat, values)  # asserts the kernel's verdict
    assert metric_axiom_failure_loop(metric.table) is None


@given(st.lists(_weights, min_size=5, max_size=5))
def test_triangle_kernel_on_chain_product_valuations(steps):
    lat = _product(chain(3), chain(4))
    left = [Fraction(0), steps[0], steps[0] + steps[1]]
    right = [Fraction(0), steps[2], steps[2] + steps[3], steps[2] + steps[3] + steps[4]]
    values = {(a, b): left[int(a[1:])] + right[int(b[1:])] for a, b in lat.labels}
    metric = metric_from_valuation(lat, values)
    assert metric_axiom_failure_loop(metric.table) is None


@example(3, [Fraction(0)] * 3 + [Fraction(1)] + [Fraction(0)] * 2 + [Fraction(5), Fraction(1)] + [Fraction(0)] * 17, True)
@given(
    st.integers(2, 5),
    st.lists(st.fractions(min_value=-1, max_value=4, max_denominator=6), min_size=25, max_size=25),
    st.booleans(),
)
def test_metric_axiom_kernel_matches_loop_on_any_table(n, entries, symmetric):
    t = [[entries[i * n + j] for j in range(n)] for i in range(n)]
    if symmetric:  # reach the triangle check: zero diagonal, positive and symmetric
        for i in range(n):
            t[i][i] = Fraction(0)
            for j in range(i):
                t[i][j] = t[j][i] = abs(t[i][j]) + Fraction(1, 9)
    assert _metric_axiom_failure(t) == metric_axiom_failure_loop(t)


def test_a_256_element_lattice_classifies():
    rep = classify(powerset(8))
    assert rep.is_boolean and rep.width == 70


def test_more_than_256_elements_is_refused_before_tables():
    labels = [f"c{i}" for i in range(257)]
    poset = FinitePoset.from_covers(labels, list(zip(labels, labels[1:])))
    with pytest.raises(LatticeError, match="257 elements exceed the supported maximum of 256"):
        poset.lattice_tables()
