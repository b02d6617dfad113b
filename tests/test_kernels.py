"""The byte-row kernels against the element-by-element loops they replace.

Each kernel must give exactly the loop's answer (and the loop's first
witness, where it reports one) on every lattice of 1-7 elements, on 2^7,
on products of chains and on products of N5, M3, MO2, the hexagon O6 and
the horizontal sum HS3 with Boolean lattices.
"""

import itertools
import random
from collections import Counter
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
    distributive_by_certificate,
    distributive_by_identity,
    enumerate_lattices,
    law_witnesses,
    modular_by_certificate,
    modular_by_identity,
)
from primlat.ortho import (
    OrthoError,
    _antitone_failure,
    _de_morgan_rows,
    _orthomodular_identity,
    _perm,
    attach_ortho,
    classify_negation,
    relations,
)
from primlat.primorial import boolean_carrier, generate_primorial
from primlat.probability import (
    ProbabilityError,
    _gated,
    probability_report,
    validate_probability,
)
from primlat.valuation import _metric_axiom_failure, check_valuation, common_scale, metric_from_valuation

from conftest import benzene, chain, diamond, hs3, mo2, pentagon, powerset, powerset_complement
from helpers import (
    antitone_failure_loop,
    atomicity_loop,
    attach_ortho_loop,
    check_valuation_loop,
    classify_negation_loop,
    covers_loop,
    de_morgan_rows_loop,
    direct_product,
    distributive_identity_loop,
    find_diamond_loop,
    find_orthocomplement,
    find_pentagon_loop,
    from_covers_loop,
    gate_loop,
    interval_sublattice,
    involutions,
    kleene_condition_loop,
    lattice_tables_loop,
    macneille_completion,
    metric_axiom_failure_loop,
    modular_identity_loop,
    orthomodular_identity_loop,
    padded_row,
    probability_report_loop,
    relations_loop,
    subposet,
    validate_probability_loop,
)


def _product(*factors):
    p = factors[0]
    for q in factors[1:]:
        p = direct_product(p, q)
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
    product = direct_product(chain(3), chain(4))
    return [
        ("build_lattice", built),
        ("FiniteLattice(labels, leq)", FiniteLattice(product.labels, product.leq_rows)),
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
    for perm in _index_maps(lat):
        got = [tuple(row[: lat.n] for row in rows) for rows in _de_morgan_rows(lat, perm)]
        assert got == de_morgan_rows_loop(lat, perm)


@pytest.mark.parametrize("lat", SMALL + PRODUCTS + [powerset(6)], ids=_ids(SMALL + PRODUCTS + [powerset(6)]))
def test_triple_and_gate_kernels_match_loops(lat):
    assert {(i, j) for i in range(lat.n) for j in range(lat.n) if _gated(lat, i, j)} == gate_loop(lat)


def _dropped(lat, which):
    keep = [lab for i, lab in enumerate(lat.labels) if i != which]
    return subposet(lat, keep)


def _posets():
    out = list(SMALL) + PRODUCTS + [B7]
    for lat in SMALL + PRODUCTS:
        if lat.n > 2:
            out.append(_dropped(lat, lat.top_i))
            out.append(_dropped(lat, lat.bottom_i))
    out.append(FinitePoset(("a", "b", "c"), (1, 2, 4)))
    return out


RELATED = SMALL + PRODUCTS + [B7]


def _de_morgan_maps(lat):
    """Every antitone involution: each orthocomplement, and the De Morgan
    negations that break non-contradiction, some of them not Kleene."""
    L = lat.labels
    for perm in map(padded_row, involutions(lat.n)):
        if _antitone_failure(lat, perm) is None:
            yield {L[i]: L[perm[i]] for i in range(lat.n)}


@pytest.mark.parametrize("k", range(len(RELATED)), ids=_ids(RELATED))
def test_relations_and_kleene_class_match_pair_loops(k):
    """On the De Morgan negations of every small lattice, set complement on
    2^7, and seeded random total maps, which need not even be antitone."""
    lat = RELATED[k]
    rng = random.Random(k)
    maps = [dict(zip(lat.labels, rng.choices(lat.labels, k=lat.n))) for _ in range(8)]
    maps += [powerset_complement(7)] if lat is B7 else _de_morgan_maps(lat) if lat in SMALL else []
    for neg in maps:
        perm = _perm(lat, neg)
        rel = relations(lat, neg)
        assert (rel.orthogonal_pairs, rel.center) == relations_loop(lat, perm)
        classes = classify_negation(lat, neg)
        assert ("kleene" in classes) == ("de_morgan" in classes and kleene_condition_loop(lat, perm))


def _negation_maps(lat):
    """Every involution of the elements, and maps that are not involutions:
    every total map up to 4 elements, seeded random ones beyond."""
    L = lat.labels
    maps = [{L[i]: L[perm[i]] for i in range(lat.n)} for perm in involutions(lat.n)]
    if lat.n <= 4:
        maps += [dict(zip(L, image)) for image in itertools.product(L, repeat=lat.n)]
    else:
        rng = random.Random(lat.n)
        maps += [dict(zip(L, rng.choices(L, k=lat.n))) for _ in range(40)]
    return maps


def _ortho_outcome(attach, lat, omap):
    """The ``OrthoLattice`` an attach gives, or the axiom and witness it refuses with."""
    try:
        return attach(lat, omap)
    except OrthoError as exc:
        return exc.axiom, exc.witness


UP_TO_6 = [lat for lat in SMALL if lat.n <= 6]


@pytest.mark.parametrize("k", range(len(UP_TO_6)), ids=_ids(UP_TO_6))
def test_negation_classes_and_attach_ortho_match_element_loops(k):
    """On every lattice of 1-6 elements, under every involution and under
    maps that are not involutions."""
    lat = UP_TO_6[k]
    refused = 0
    for neg in _negation_maps(lat):
        assert classify_negation(lat, neg) == classify_negation_loop(lat, neg), neg
        got = _ortho_outcome(attach_ortho, lat, neg)
        assert got == _ortho_outcome(attach_ortho_loop, lat, neg), neg
        refused += type(got) is tuple
    assert refused > 0 or lat.n == 1


def test_lattice_tables_match_bound_scans():
    posets = _posets()
    witnesses = 0
    for p in posets:
        got = p.lattice_tables()
        assert got == lattice_tables_loop(p)
        witnesses += got[2] is not None
    assert witnesses > 20  # non-lattices, each with the scan's first witness


_random_relations = (st.integers(1, 6), st.lists(st.integers(0, 2), min_size=15, max_size=15))


def _random_poset(n, rel):
    """The order that pair k of the n labels gets from rel[k] (0 unrelated,
    1 below, 2 above), or None when those pairs close a cycle."""
    labels = [f"e{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = [(labels[i], labels[j]) for (i, j), r in zip(pairs, rel) if r == 1]
    covers += [(labels[j], labels[i]) for (i, j), r in zip(pairs, rel) if r == 2]
    try:
        return FinitePoset.from_covers(labels, covers)
    except LatticeError:
        return None


@given(*_random_relations)
def test_lattice_tables_on_random_posets(n, rel):
    p = _random_poset(n, rel)
    if p is not None:
        assert p.lattice_tables() == lattice_tables_loop(p)


@example(3, [0] * 15)  # a three-element antichain, completed to M3
@given(*_random_relations)
def test_identity_kernels_on_random_lattices(n, rel):
    """The generator checks against the loops over every triple, on the
    Dedekind-MacNeille completion of a random poset."""
    p = _random_poset(n, rel)
    if p is not None:
        lat = macneille_completion(p)
        assert distributive_by_identity(lat) == distributive_identity_loop(lat)
        assert modular_by_identity(lat) == modular_identity_loop(lat)
        assert distributive_by_certificate(lat) == distributive_identity_loop(lat)
        assert modular_by_certificate(lat) == modular_identity_loop(lat)


def _random_covers(rng, n):
    """n labels and cover pairs along a hidden linear order, with a bottom
    and a top half of the time, plus self-loops a<a, repeats and redundant
    pairs; in a third of the relations back pairs that may close cycles, and
    in a tenth an undeclared label on either side of one pair."""
    labels = [f"e{i}" for i in range(n)]
    rank = rng.sample(labels, n)
    covers = []
    if n >= 2 and rng.random() < 0.5:
        covers += [(rank[0], x) for x in rank[1:-1]] + [(x, rank[-1]) for x in rank[1:-1]]
    for _ in range(rng.randrange(2 * n + 1)):
        i, j = sorted(rng.sample(range(n), 2)) if n >= 2 else (0, 0)
        covers.append((rank[i], rank[j]))
    for _ in range(rng.randrange(3) if n else 0):
        covers.append((rank[rng.randrange(n)],) * 2)
    pairs = dict.fromkeys(covers)  # in first-seen order, whatever the hash seed
    redundant = [(a, c) for a, b in pairs for b2, c in pairs if b == b2 and a != b and b != c]
    covers += rng.sample(covers, min(len(covers), rng.randrange(3))) + redundant[:2]
    if n >= 2 and rng.random() < 1 / 3:
        for _ in range(rng.randrange(1, 3)):
            i, j = sorted(rng.sample(range(n), 2))
            covers.append((rank[j], rank[i]))
    rng.shuffle(covers)
    if rng.random() < 0.1:
        k = rng.randrange(len(covers) + 1)
        known = rank[rng.randrange(n)] if n else "e0"
        covers.insert(k, rng.choice([("zz", known), (known, "zz")]))
    return labels, covers


def test_closure_matches_warshall_on_random_relations():
    """``build_lattice`` against the Warshall oracle on seeded relations of
    0-12 elements: the same rows, covers and tables, or the same error."""
    rng = random.Random(25)
    outcomes = Counter()
    for _ in range(3000):
        labels, covers = _random_covers(rng, rng.randrange(13))
        try:
            want = from_covers_loop(labels, covers)
        except LatticeError as exc:
            with pytest.raises(LatticeError) as got:
                build_lattice(labels, covers)
            assert str(got.value) == str(exc)
            outcomes[str(exc).split(":")[0].split(" '")[0]] += 1
            continue
        got = build_lattice(labels, covers)
        assert "geq_rows" in vars(got)
        assert (got.leq_rows, got.geq_rows) == (want.leq_rows, want.geq_rows)
        assert (got.covers_i, got._cover_up, got._cover_down) == covers_loop(want)
        join, meet, witness = lattice_tables_loop(want)
        assert got.is_lattice == (witness is None)
        if got.is_lattice:
            assert (got.join_table, got.meet_table) == (join, meet)
        outcomes["lattice" if got.is_lattice else "poset"] += 1
    assert min(outcomes.values()) > 100, outcomes
    assert set(outcomes) == {"lattice", "poset", "antisymmetry violation", "unknown element"}


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


def _edge_table(rng, edge):
    """A zero-diagonal symmetric table of 2-6 elements whose entries sit at
    the packed fields' width edge (``edge`` and its half, each give or take
    one), so that triangle sums meet or miss their target by one; a quarter
    of the tables also get one entry of -``edge``, 0 or a different value,
    mirrored or not, which breaks another axiom or shifts the fields by the
    minimum."""
    n = rng.randint(2, 6)
    near = [1, edge // 2 - 1, edge // 2, edge // 2 + 1, edge - 1, edge]
    t = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            t[i][j] = t[j][i] = rng.choice(near)
    if rng.random() < 0.25:
        i, j = rng.randrange(n), rng.randrange(n)
        t[i][j] = rng.choice([-edge, 0, edge + 1])
        if rng.random() < 0.5:
            t[j][i] = t[i][j]
    return t


def test_triangle_kernel_matches_loop_at_the_field_width_edge():
    """Integer tables whose largest entry, and so twice it, sits on either
    side of a power of two: one field byte more or less."""
    rng = random.Random(31)
    outcomes = Counter()
    for edge in (63, 64, 127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**64):
        for _ in range(300):
            t = _edge_table(rng, edge)
            want = metric_axiom_failure_loop(t)
            assert _metric_axiom_failure(t) == want, (edge, t)
            outcomes[want] += 1
    assert outcomes["triangle inequality"] > 500 and outcomes[None] > 500, outcomes
    # a negative entry is named only when its mirror differs at the same
    # pair, which these tables rarely make; the explicit case below has one
    assert set(outcomes) >= {
        None, "triangle inequality", "metric must vanish on the diagonal", "metric must be nondegenerate",
        "metric must be symmetric",
    }


def test_a_row_that_passes_is_not_blamed_for_a_later_negative_entry():
    # row 0 passes every axiom; the -1 at (2, 1) is first seen as the
    # asymmetry at (1, 2), before row 2 is reached
    t = [[0, 1, 3], [1, 0, 5], [3, -1, 0]]
    assert _metric_axiom_failure(t) == metric_axiom_failure_loop(t) == "metric must be symmetric"
    # in row 0 the triangle holds at (0, 0), and (0, 1) is negative
    t = [[0, -1], [5, 0]]
    assert _metric_axiom_failure(t) == metric_axiom_failure_loop(t) == "metric must be non-negative"


@pytest.mark.parametrize("edge", [63, 64, 127, 128, 2**31])
def test_triangle_kernel_at_equality_and_one_past_it(edge):
    # the path 0 - 1 - 2 meets the inequality with equality at
    # d(0, 2) = 2·edge and breaks it at one more; with edge beside a power
    # of two, so is the field width
    path = [[0, edge, 2 * edge], [edge, 0, edge], [2 * edge, edge, 0]]
    assert _metric_axiom_failure(path) is metric_axiom_failure_loop(path) is None
    path[0][2] = path[2][0] = 2 * edge + 1
    assert _metric_axiom_failure(path) == metric_axiom_failure_loop(path) == "triangle inequality"


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
    # the kernel takes integers, as LatticeMetric hands it; the loop reads
    # the rationals themselves, so this also checks that scaling keeps the axioms
    flat, _ = common_scale([x for row in t for x in row])
    scaled = [flat[k : k + n] for k in range(0, n * n, n)]
    assert _metric_axiom_failure(scaled) == metric_axiom_failure_loop(t)


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
    with pytest.raises(LatticeError, match="^257 elements exceed the supported maximum of 256$"):
        build_lattice(iter(labels), zip(labels, labels[1:]))


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


def _is_orthocomplement(lat, perm):
    return (
        all(perm[perm[i]] == i and lat.meet_i(i, perm[i]) == lat.bottom_i for i in range(lat.n))
        and antitone_failure_loop(lat, perm) is None
    )


NEGATION_CHECKED = RELATED + [lat for _, _, lat, _ in NEGATED]


@pytest.mark.parametrize("k", range(len(NEGATION_CHECKED)), ids=_ids(NEGATION_CHECKED))
def test_antitone_and_orthomodular_kernels_match_loops(k):
    """On every involution of the small lattices, the index maps of the De
    Morgan rows test, set complement on 2^7, the componentwise negations of
    the products with 2^k, and seeded random total maps and involutions.
    The orthomodular kernel is compared only on orthocomplements, the maps
    it is defined for."""
    lat = NEGATION_CHECKED[k]
    n, rng = lat.n, random.Random(k)
    perms = [padded_row([rng.randrange(n) for _ in range(n)]) for _ in range(8)]
    for _ in range(4):
        order = rng.sample(range(n), n)
        swap = dict(zip(order, order[::-1]))
        perms.append(padded_row(swap))
    perms += _index_maps(lat) if lat in RELATED else []
    if lat in SMALL:
        perms += map(padded_row, involutions(n))
    elif lat is B7:
        perms.append(_perm(lat, powerset_complement(7)))
    else:
        perms += [_perm(lat, neg) for _, _, other, neg in NEGATED if other is lat]
    for perm in perms:
        assert _antitone_failure(lat, perm) == antitone_failure_loop(lat, perm)
        if _is_orthocomplement(lat, perm):
            assert _orthomodular_identity(lat, perm) == (orthomodular_identity_loop(lat, perm) is None)


# every class of 1-9 elements (SMALL is the 1-7 part) and the products
LAW_CHECKED = {f"n{n}": enumerate_lattices(n) for n in range(1, 10)} | {"products": PRODUCTS}


@pytest.mark.parametrize("group", LAW_CHECKED)
def test_law_witnesses_match_loops_and_classify(group):
    for lat in LAW_CHECKED[group]:
        n5, m3 = find_pentagon_loop(lat), find_diamond_loop(lat)
        want = ("N5",) + n5 if n5 else ("M3",) + m3 if m3 else None
        assert law_witnesses(lat) == (n5, want)
        assert modular_identity_loop(lat) == (n5 is None)
        assert distributive_identity_loop(lat) == (want is None)
        rep = classify(lat)
        assert (rep.n5_witness, rep.distributive_witness) == (n5, want)
        assert (rep.is_atomic, rep.is_anti_atomic) == atomicity_loop(lat)


@pytest.mark.parametrize("group", LAW_CHECKED)
def test_certificates_match_identities_and_positive_verdicts_hold_no_witness(group):
    """Each certificate gives the identity's verdict; and as ``law_witnesses``
    searches only on a negative verdict, this is where the searches are
    shown to find nothing on every modular (no N5) and distributive (no M3
    either) lattice of 1-9 elements."""
    verdicts = Counter()
    for lat in LAW_CHECKED[group]:
        modular, distributive = modular_by_identity(lat), distributive_by_identity(lat)
        assert modular_by_certificate(lat) == modular
        assert distributive_by_certificate(lat) == distributive
        if modular:
            assert _find_pentagon(lat) is None
        if distributive:
            assert _find_diamond(lat) is None
        verdicts[modular, distributive] += 1
    assert verdicts[True, True] > 0


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
    """Validation agrees with the loop on every input, and the report on
    every input that validates.  Beside ``_negation``, which is often not
    minimal, the map sending 0 to 1 and the rest to 0 is minimal on every
    lattice, so most height assignments validate under it."""
    negations = [_negation(lat), {lab: lat.top if lab == lat.bottom else lat.bottom for lab in lat.labels}]
    for neg in negations:
        for values in (_height_values(lat), _skewed_values(lat)):
            pa = _validated(lat, neg, values)
            if pa is not None:
                _assert_same_report(pa)
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


def _product_values(name, k, lat, w, mix):
    """A convex combination of the factor's probability from weights ``w``
    and the Boolean one from atom weights ``mix``, on a ``NEGATED`` product."""
    fp = _factor_probability(name, w)
    atom = [Fraction(m, sum(mix[:k])) for m in mix[:k]]
    share = Fraction(mix[0], mix[0] + mix[-1]) if k else Fraction(1)  # 2^0 has no atoms
    return {
        (x, m): share * fp[x] + (1 - share) * sum((atom[b] for b in bits(m)), Fraction(0))
        for x, m in lat.labels
    }


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
    values = _product_values(name, k, lat, w, mix)
    valid = _validated(lat, neg, values)
    assert valid is not None
    values[lat.labels[at % lat.n]] += bump
    for pa in (valid, _validated(lat, neg, values)):
        if pa is not None:
            _assert_same_report(pa)
    assert check_valuation(lat, values) == check_valuation_loop(lat, values)


UNGATED = [(name, k, lat, neg) for name, k, lat, neg in NEGATED if name in ("MO2", "HS3", "M3") and k]


@pytest.mark.parametrize("which", range(len(UNGATED)), ids=[f"{name}x2^{k}" for name, k, _, _ in UNGATED])
def test_validation_skips_ungated_failures_and_names_gated_ones(which):
    """On non-distributive products, values that break additivity only on
    ungated disjoint pairs are accepted; raising one join of a gated pair of
    nonzero elements, by less than any gap above it, is rejected at the same
    first pair as the loop's."""
    name, k, lat, neg = UNGATED[which]
    values = _product_values(name, k, lat, [3, 2, 4], [1, 2, 3, 1])
    pi = [values[lab] for lab in lat.labels]
    gated = gate_loop(lat)
    broken = {
        (i, j) for i in range(lat.n) for j in range(lat.n)
        if lat.meet_i(i, j) == lat.bottom_i and pi[lat.join_i(i, j)] != pi[i] + pi[j]
    }
    assert broken and not broken & gated
    assert _validated(lat, neg, values) is not None
    e = min(lat.join_i(i, j) for i, j in gated if lat.bottom_i not in (i, j) and lat.join_i(i, j) != lat.top_i)
    gap = min(pi[u] - pi[e] for u in bits(lat.leq_rows[e]) if u != e)
    values[lat.labels[e]] += gap / 2
    with pytest.raises(ProbabilityError) as err:
        validate_probability(lat, neg, values)
    assert err.value.axiom == "additive"
    assert _validated(lat, neg, values) is None


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
    assert all(v.satisfied for v in report.values())
