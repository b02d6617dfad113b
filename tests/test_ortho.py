import copy
import pickle

import pytest

from primlat import ortho
from primlat.core import FiniteLattice, LatticeError, classify
from primlat.ortho import (
    OrthoError,
    OrthoLattice,
    _perm,
    attach_ortho,
    classify_negation,
    ortho_class,
    orthogonal_rows,
    relations,
    relations_of,
    sasaki,
)

from conftest import benzene, chain, diamond, pentagon, powerset, powerset_complement
from helpers import (
    all_orthocomplements,
    commutes_pairs,
    find_orthocomplement,
    interval_sublattice,
    lattice_from_covers,
)


def _commutes(lat, neg_map):
    """The ordered label pairs (x, y) with x == (x∧y) ∨ (x∧¬y)."""
    L = lat.labels
    return {(L[i], L[j]) for i, j in commutes_pairs(lat, _perm(lat, neg_map))}


def _orthogonal(lat, neg_map, x, y):
    """x <= ¬y, read from the orthogonality rows."""
    rows = orthogonal_rows(lat, _perm(lat, neg_map))
    return bool(rows[lat.index(x)] >> lat.index(y) & 1)


def test_attach_ortho_refuses_the_empty_lattice():
    # the bottom is read outside any assert, so python -O refuses it too
    with pytest.raises(LatticeError, match="^empty lattice has no bottom$"):
        attach_ortho(FiniteLattice((), ()), {})


def test_attach_ortho_benzene():
    lat, omap = benzene()
    ol = attach_ortho(lat, omap)
    assert ol.comp("p") == "p'"


def test_attach_ortho_powerset_complement():
    lat = powerset(3)
    ol = attach_ortho(lat, powerset_complement(3))
    assert ol.comp(0b101) == 0b010


def test_attach_ortho_returns_an_immutable_record_of_the_map_and_its_row():
    lat, omap = benzene()
    ol = attach_ortho(lat, omap)
    assert (ol.lattice, ol.ortho, ol.perm) == (lat, omap, _perm(lat, omap))
    assert ol.ortho is not omap and repr(ol) == f"OrthoLattice({lat!r})"
    assert ol == OrthoLattice(lat, dict(omap)) and hash(ol) == hash(OrthoLattice(lat, omap))
    assert ol != attach_ortho(powerset(3), powerset_complement(3))
    for copied in (copy.copy(ol), copy.deepcopy(ol), pickle.loads(pickle.dumps(ol))):
        assert copied == ol and copied.ortho == omap
    with pytest.raises(AttributeError):
        ol.perm = bytes(ol.perm)
    with pytest.raises(AttributeError):
        del ol.ortho
    with pytest.raises(OrthoError, match="totality"):
        OrthoLattice(lat, {"0": "1"})


def test_the_orthomodular_identity_runs_once_per_ortho_map(monkeypatch):
    calls = []
    identity = ortho._orthomodular_identity

    def counted(lat, perm):
        calls.append(perm)
        return identity(lat, perm)

    monkeypatch.setattr(ortho, "_orthomodular_identity", counted)
    ol = attach_ortho(powerset(3), powerset_complement(3))
    assert "orthomodular" in ortho_class(ol) and relations_of(ol).center
    assert calls == [ol.perm]
    calls.clear()
    assert "orthomodular" in classify_negation(ol.lattice, ol.ortho)
    assert calls == [ol.perm]


def test_attach_ortho_reports_failing_axiom():
    lat, omap = benzene()
    broken = dict(omap, **{"p": "q'", "q'": "p"})  # p <= q' so meets are not 0
    with pytest.raises(OrthoError) as err:
        attach_ortho(lat, broken)
    assert err.value.axiom == "non-contradiction"

    lat3 = chain(3)
    with pytest.raises(OrthoError) as err:
        attach_ortho(lat3, {"c0": "c2", "c2": "c0", "c1": "c1"})
    assert err.value.axiom == "non-contradiction"
    with pytest.raises(OrthoError) as err:
        attach_ortho(lat3, {"c0": "c2", "c2": "c0"})
    assert err.value.axiom == "totality"


def test_pentagon_admits_no_orthocomplement():
    # exhaustive over all involutions of the five-element carrier
    assert find_orthocomplement(pentagon()) is None
    assert list(all_orthocomplements(pentagon())) == []


def test_ortho_class_examples():
    lat, omap = benzene()
    assert ortho_class(attach_ortho(lat, omap)) == {"orthocomplemented"}

    m4 = lattice_from_covers(
        ["0", "m1", "m2", "m3", "m4", "1"],
        [("0", f"m{i}") for i in range(1, 5)] + [(f"m{i}", "1") for i in range(1, 5)],
    )
    flags = ortho_class(
        attach_ortho(m4, {"0": "1", "1": "0", "m1": "m2", "m2": "m1", "m3": "m4", "m4": "m3"})
    )
    assert flags == {"orthocomplemented", "orthomodular", "modular-orthocomplemented"}

    full = ortho_class(attach_ortho(powerset(3), powerset_complement(3)))
    assert full == {
        "orthocomplemented",
        "orthomodular",
        "modular-orthocomplemented",
        "boolean",
    }


def test_sasaki_values_on_benzene():
    lat, omap = benzene()
    ol = attach_ortho(lat, omap)
    assert sasaki(ol, "p", "q") == "0"
    assert sasaki(ol, "p", "p'") == "0"
    assert sasaki(ol, "p", "q'") == "p"
    assert sasaki(ol, "q'", "p") == "q'"
    assert sasaki(ol, "p", "1") == "p"
    assert sasaki(ol, "p", "0") == "0"


def _ortho_catalog(small_lattices):
    for lat in small_lattices:
        for mapping in all_orthocomplements(lat):
            yield attach_ortho(lat, mapping)


def test_sasaki_fixed_points_everywhere(small_lattices):
    for ol in _ortho_catalog(small_lattices):
        lat = ol.lattice
        top, bot = lat.top, lat.bottom
        for x in lat.labels:
            assert sasaki(ol, x, top) == x
            assert sasaki(ol, x, ol.comp(x)) == bot
            assert sasaki(ol, x, bot) == bot
            assert sasaki(ol, bot, x) == bot
            # projecting onto the top is the identity: (x ∨ 0) ∧ 1 == x
            assert sasaki(ol, top, x) == x


def test_sasaki_order_cases(small_lattices):
    for ol in _ortho_catalog(small_lattices):
        lat = ol.lattice
        boolean = classify(lat).is_boolean
        for x in lat.labels:
            for y in lat.labels:
                if lat.leq(x, y):
                    assert sasaki(ol, x, y) == x
                if lat.leq(y, x):
                    s = sasaki(ol, x, y)
                    assert lat.leq(y, s) and lat.leq(s, x)
                    if boolean:
                        assert s == y


def test_benzene_relations():
    lat, omap = benzene()
    rel = relations(lat, omap)
    assert rel.orthogonal_pairs == 9
    assert _orthogonal(lat, omap, "0", "0")
    assert rel.center == ("0", "p", "q", "1")
    # commutes is not symmetric here
    comm = _commutes(lat, omap)
    assert ("p'", "p") in comm and ("p", "p'") in comm
    assert ("q'", "p") not in comm and ("p", "q'") in comm


def test_boolean_center_is_everything():
    # with set complement, 2^n has 3^n ordered disjoint pairs, of which only
    # ({}, {}) lies on the diagonal: (3^n + 1) / 2 unordered orthogonal pairs
    for n in range(1, 9):
        lat = powerset(n)
        rel = relations(lat, powerset_complement(n))
        assert rel.orthogonal_pairs == (3**n + 1) // 2
        assert rel.center == lat.labels


def test_orthogonality_symmetric_and_consequences(small_lattices):
    for ol in _ortho_catalog(small_lattices):
        lat = ol.lattice
        rel = relations_of(ol)
        for x in lat.labels:
            for y in lat.labels:
                orthogonal = lat.leq(x, ol.comp(y))
                assert orthogonal == lat.leq(y, ol.comp(x))
                if orthogonal:
                    assert lat.meet(x, y) == lat.bottom
                    assert lat.join(ol.comp(x), ol.comp(y)) == lat.top
                if lat.leq(x, y):
                    assert lat.join(ol.comp(x), y) == lat.top
                    assert lat.meet(x, ol.comp(y)) == lat.bottom


def test_orthogonality_not_transitive_in_powerset_three():
    lat = powerset(3)
    comp = powerset_complement(3)
    x, y, z = 0b110, 0b001, 0b010  # x ⊥ y and y ⊥ z but x not ⊥ z
    assert lat.leq(x, comp[y])
    assert lat.leq(y, comp[z])
    assert not lat.leq(x, comp[z])


def test_commutes_facts(small_lattices):
    for ol in _ortho_catalog(small_lattices):
        lat = ol.lattice
        comm = _commutes(lat, ol.ortho)
        for x in lat.labels:
            assert (x, lat.bottom) in comm and (lat.bottom, x) in comm
            assert (x, lat.top) in comm and (lat.top, x) in comm
            assert (x, x) in comm
            for y in lat.labels:
                assert ((x, y) in comm) == ((x, ol.comp(y)) in comm)
                if lat.leq(x, y):
                    assert (x, y) in comm
                if lat.leq(x, ol.comp(y)):
                    assert (x, y) in comm


def test_center_contains_bounds(small_lattices):
    for ol in _ortho_catalog(small_lattices):
        rel = relations_of(ol)
        assert ol.lattice.bottom in rel.center
        assert ol.lattice.top in rel.center


def test_commutes_matches_sasaki_in_orthomodular(small_lattices):
    for ol in _ortho_catalog(small_lattices):
        if "orthomodular" not in ortho_class(ol):
            continue
        lat = ol.lattice
        comm = _commutes(lat, ol.ortho)
        for x in lat.labels:
            for y in lat.labels:
                sas = sasaki(ol, x, y) == sasaki(ol, y, x) == lat.meet(x, y)
                assert ((x, y) in comm) == sas


def test_interval_sublattice_is_induced():
    lat = powerset(3)
    sub = interval_sublattice(lat, 0, 0b011)
    assert set(sub.labels) == {0, 1, 2, 3}
    assert sub.join(1, 2) == 3


def test_orthocomplemented_is_complemented_and_boolean_bridges(small_lattices):
    for lat in small_lattices:
        rep = classify(lat)
        maps = list(all_orthocomplements(lat))
        if maps:
            assert rep.is_complemented
            if rep.is_distributive:
                assert rep.is_boolean
            # all-central plus orthocomplemented is exactly Boolean
            for mapping in maps:
                rel = relations(lat, mapping)
                assert (set(rel.center) == set(lat.labels)) == rep.is_boolean


# -- negation taxonomy ---------------------------------------------------------


def test_classify_negation_benzene():
    lat, omap = benzene()
    nm = classify_negation(lat, omap)
    assert {"minimal", "intuitionistic", "fuzzy", "de_morgan", "kleene", "ortho"} <= nm
    assert "orthomodular" not in nm


def test_classify_negation_three_chain_kleene():
    lat = chain(3)
    nm = classify_negation(lat, {"c0": "c2", "c1": "c1", "c2": "c0"})
    assert nm == {"subminimal", "minimal", "fuzzy", "de_morgan", "kleene"}


def test_classify_negation_constant_map():
    lat = chain(3)
    nm = classify_negation(lat, {"c0": "c2", "c1": "c2", "c2": "c2"})
    assert nm == {"subminimal", "minimal"}


def test_classify_negation_empty_classification_possible():
    lat = chain(2)
    nm = classify_negation(lat, {"c0": "c0", "c1": "c1"})  # identity is not antitone here
    assert nm == frozenset()


def test_relations_from_plain_negation():
    # the commutes relation and center come from the negation map when no
    # orthocomplement exists; under the fixed-midpoint Kleene negation the
    # top does not commute with the midpoint ((1∧m)∨(1∧¬m) == m), so the
    # center stops below it
    lat = chain(3)
    neg = {"c0": "c2", "c1": "c1", "c2": "c0"}
    rel = relations(lat, neg)
    assert rel.center == ("c0", "c1")
    assert ("c2", "c1") not in _commutes(lat, neg)
    # {c0, c0}, {c0, c1}, {c0, c2} and {c1, c1}
    assert rel.orthogonal_pairs == 4
    assert _orthogonal(lat, neg, "c0", "c0")
    assert _orthogonal(lat, neg, "c1", "c1")  # c1 <= ¬c1 holds at the midpoint


def test_diamond_admits_no_orthocomplement():
    # three middles: any involution fixes one of them, breaking
    # non-contradiction, so the search must come back empty
    assert list(all_orthocomplements(diamond())) == []
