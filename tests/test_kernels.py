"""The byte-row kernels against the element-by-element loops they replace.

Each kernel must give exactly the loop's answer (and the loop's first
witness, where it reports one) on every lattice of 1-7 elements, on 2^7,
on products of chains and on products of N5, M3, MO2, the hexagon O6 and
the horizontal sum HS3 with Boolean lattices.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primlat import core
from primlat.core import (
    FiniteLattice,
    FinitePoset,
    LatticeError,
    _find_diamond,
    _find_pentagon,
    bits,
    build_lattice,
    classify,
    complements_i,
    compose,
    distributive_by_identity,
    enumerate_lattices,
    modular_by_identity,
)
from primlat.ortho import _de_morgan_rows, _perm, find_orthocomplement, interval_sublattice
from primlat.primorial import boolean_carrier, generate_primorial
from primlat.probability import (
    ProbabilityAssignment,
    ProbabilityError,
    _gate,
    probability_report,
    validate_probability,
)
from primlat.valuation import _metric_axiom_failure, check_valuation, common_scale, metric_from_valuation

from conftest import benzene, chain, diamond, hs3, mo2, pentagon, powerset, powerset_complement
from helpers import (
    check_valuation_loop,
    de_morgan_rows_loop,
    distributive_identity_loop,
    distributive_triples_loop,
    find_diamond_loop,
    find_pentagon_loop,
    gate_loop,
    lattice_tables_loop,
    metric_axiom_failure_loop,
    modular_identity_loop,
    modular_pairs_loop,
    probability_report_loop,
    validate_probability_loop,
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


def test_more_than_256_labels_are_refused_before_the_order_is_closed(monkeypatch):
    def closure(rows):
        raise AssertionError(f"the order of {len(rows)} elements was closed")

    monkeypatch.setattr(core, "_closure", closure)
    labels = [f"c{i}" for i in range(257)]
    for build in (build_lattice, FiniteLattice.from_covers):
        with pytest.raises(LatticeError, match="^257 elements exceed the supported maximum of 256$"):
            build(iter(labels), zip(labels, labels[1:]))


# ---------------------------------------------------------------------------
# the forbidden-sublattice search and the probability checks on integers


N5_NEG = {"0": "1", "1": "0", "a": "b", "b": "a", "p": "p"}
M3_NEG = {"0": "1", "1": "0", "p": "p", "q": "q", "r": "r"}
FACTORS = (("N5", pentagon(), N5_NEG), ("M3", diamond(), M3_NEG), ("MO2", *mo2()), ("O6", *benzene()), ("HS3", *hs3()))


def _with_boolean(base, neg, k):
    """base x 2^k with the componentwise negation (k = 0 keeps the bare factor,
    where the gate leaves the hexagon's complement pairs unconstrained)."""
    lat = _product(base, powerset(k))
    full = (1 << k) - 1
    return lat, {(x, m): (neg[x], full ^ m) for x, m in lat.labels}


NEGATED = [(name, k, *_with_boolean(lat, neg, k)) for name, lat, neg in FACTORS for k in (0, 1, 2, 3)]
SEARCHED = SMALL + PRODUCTS + [lat for _, _, lat, _ in NEGATED] + [B7]


@pytest.mark.parametrize("lat", SEARCHED, ids=_ids(SEARCHED))
def test_sublattice_search_matches_loops(lat):
    assert _find_pentagon(lat) == find_pentagon_loop(lat)
    assert _find_diamond(lat) == find_diamond_loop(lat)


def test_the_searched_lattices_hold_both_answers():
    found = [(_find_pentagon(lat) is not None, _find_diamond(lat) is not None) for lat in SEARCHED]
    assert {(True, False), (False, True), (False, False), (True, True)} <= set(found)


def _negation(lat):
    return find_orthocomplement(lat) or dict(zip(lat.labels, reversed(lat.labels)))


def _height_values(lat):
    top = lat.heights[lat.top_i] or 1
    return {lab: Fraction(h, top) for lab, h in zip(lat.labels, lat.heights)}


def _skewed_values(lat):
    """Mixed denominators, some negative, with the bounds pinned to 0 and 1."""
    values = {lab: Fraction((3 * k) % 7 - 1, k % 5 + 2) for k, lab in enumerate(lat.labels)}
    return {**values, lat.bottom: Fraction(0), lat.top: Fraction(1)}


def _assert_same_report(pa):
    got, want = probability_report(pa), probability_report_loop(pa)
    assert got == want
    assert repr(got) == repr(want)  # the Fraction sides too, not only their values


@pytest.mark.parametrize("lat", SMALL, ids=_ids(SMALL))
def test_probability_report_matches_loop_on_small_lattices(lat):
    neg = _negation(lat)
    assignments = [_height_values(lat)]
    if not (distributive_by_identity(lat) and all(complements_i(lat))):
        # off Boolean bases nothing is asserted, so any values may be compared
        assignments.append(_skewed_values(lat))
    for values in assignments:
        _assert_same_report(ProbabilityAssignment(lat, neg, values))
        assert check_valuation(lat, values) == check_valuation_loop(lat, values)


def _factor_probability(name, w):
    """A probability valid on the named factor from three positive weights."""
    s, t = Fraction(w[0], 10), Fraction(w[1], 10)
    if name == "N5":
        return {"0": 0, "a": s, "b": s, "p": 1 - s, "1": 1}
    if name == "M3":
        total = sum(w)
        return {"0": 0, "p": Fraction(w[0], total), "q": Fraction(w[1], total), "r": Fraction(w[2], total), "1": 1}
    if name == "MO2":
        return {"0": 0, "a": s, "A": 1 - s, "b": t, "B": 1 - t, "1": 1}
    if name == "O6":  # p <= q' forces p(p) + p(q) <= 1
        t = min(t, 1 - s)
        return {"0": 0, "p": s, "p'": 1 - s, "q": t, "q'": 1 - t, "1": 1}
    values = {"0": 0, "1": 1}
    for block, ws in (("x", w), ("y", w[::-1])):
        for i, c in enumerate(((1, 2), (0, 2), (0, 1))):
            values[f"{block}{i}"] = Fraction(ws[i], sum(ws))
            values[f"{block}{c[0]}{c[1]}"] = 1 - Fraction(ws[i], sum(ws))
    return values


def _validated(lat, neg, values):
    """validate_probability's assignment, or None when it raises; either way
    the loop reference must agree, down to the axiom and witness."""
    try:
        pa = validate_probability(lat, neg, values)
    except ProbabilityError as err:
        with pytest.raises(ProbabilityError) as want:
            validate_probability_loop(lat, neg, values)
        assert (err.axiom, err.witness) == (want.value.axiom, want.value.witness)
        return None
    assert pa.p == validate_probability_loop(lat, neg, values)
    return pa


_small_ints = st.integers(1, 9)


@settings(deadline=None)  # the loop references take ~0.3 s on the 112-element HS3 x 2^3
@given(
    st.integers(0, len(NEGATED) - 1),
    st.lists(_small_ints, min_size=3, max_size=3),
    st.lists(_small_ints, min_size=4, max_size=4),
    st.integers(0, 111),  # the element bumped, modulo the size
    st.fractions(min_value=-1, max_value=1, max_denominator=12),
)
def test_probability_kernels_match_loops_on_product_assignments(which, w, mix, at, bump):
    """Convex combinations of factor and Boolean probabilities validate; a
    bump of one value makes most of them fail an axiom, and the kernels must
    name the same axiom and witness as the loops."""
    name, k, lat, neg = NEGATED[which]
    fp = _factor_probability(name, w)
    atom = [Fraction(m, sum(mix[:k])) for m in mix[:k]]
    share = Fraction(mix[0], mix[0] + mix[-1]) if k else Fraction(1)  # 2^0 has no atoms
    values = {
        (x, m): share * fp[x] + (1 - share) * sum((atom[b] for b in bits(m)), Fraction(0))
        for x, m in lat.labels
    }
    valid = _validated(lat, neg, values)
    assert valid is not None
    values[lat.labels[at % lat.n]] += bump
    _validated(lat, neg, values)
    for pa in (valid, ProbabilityAssignment(lat, neg, values)):
        _assert_same_report(pa)
    assert check_valuation(lat, values) == check_valuation_loop(lat, values)


@given(st.integers(1, 4), st.lists(st.fractions(min_value=0, max_value=3, max_denominator=12), min_size=4, max_size=4))
def test_probability_kernels_match_loops_on_boolean_assignments(k, weights):
    lat = powerset(k)
    total = sum(weights[:k]) or Fraction(1)
    values = {x: sum((weights[b] / total for b in bits(x)), Fraction(0)) for x in lat.labels}
    if not any(weights[:k]):
        values[lat.top] = Fraction(1)  # every atom weightless: the top alone breaks additivity
    pa = _validated(lat, powerset_complement(k), values)
    if pa is not None:
        _assert_same_report(pa)


@given(
    st.sampled_from(range(len(SEARCHED))),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=9), min_size=13, max_size=13),
)
def test_check_valuation_matches_loop_on_any_values(which, entries):
    lat = SEARCHED[which]
    values = {lab: entries[k % 13] + k // 13 for k, lab in enumerate(lat.labels)}
    assert check_valuation(lat, values) == check_valuation_loop(lat, values)
    modular_heights = {lab: Fraction(h) for lab, h in zip(lat.labels, lat.heights)}
    assert check_valuation(lat, modular_heights) == check_valuation_loop(lat, modular_heights)


def test_common_scale_is_exact():
    values = [Fraction(1, 6), Fraction(-3, 4), Fraction(5), Fraction(0), Fraction(7, 10)]
    ints, scale = common_scale(values)
    assert scale == 60 and ints == [10, -45, 300, 0, 42]
    assert [Fraction(x, scale) for x in ints] == values
    assert common_scale([]) == ([], 1)


def test_search_and_report_read_only_the_rows(monkeypatch):
    """No element-by-element meet or join: the N5/M3 search and the report
    read the byte rows whole.  The search does not lean on the identity
    route it cross-checks."""
    lat = powerset(6)
    pa = validate_probability(lat, powerset_complement(6), _height_values(lat))
    n5 = _product(pentagon(), powerset(2))
    m3 = _product(diamond(), powerset(2))
    calls = []
    for name in ("meet_i", "join_i"):
        original = getattr(FiniteLattice, name)
        monkeypatch.setattr(
            FiniteLattice, name, lambda self, i, j, f=original, nm=name: calls.append(nm) or f(self, i, j)
        )

    def refuse(lat):
        raise AssertionError("the identity route was consulted")

    monkeypatch.setattr(core, "modular_by_identity", refuse)
    monkeypatch.setattr(core, "distributive_by_identity", refuse)
    assert _find_pentagon(lat) is None and _find_diamond(lat) is None
    assert _find_pentagon(n5) == find_pentagon_loop(n5) is not None
    assert _find_diamond(m3) == find_diamond_loop(m3) is not None
    calls.clear()  # the loop references above make element-wise calls
    _find_pentagon(lat), _find_diamond(lat), _find_pentagon(n5), _find_diamond(m3)
    report = probability_report(pa)
    assert calls == []
    assert all(v.satisfied for v in report.verdicts.values())
