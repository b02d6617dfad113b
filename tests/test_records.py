"""The result records: named tuples for plain results, ``core.Record``
classes where the constructor checks its arguments.  Every way of making
or copying a checked record checks, ``ValuationCheck`` compares without
its ``scaled`` field, ``ProbabilityAssignment`` without what its checks
derived, and no field of any record can be assigned.  The
value classes with cached properties (posets and lattices, levels,
property reports, metrics) refuse assignment and deletion the same way."""

import copy
import pickle
from fractions import Fraction

import pytest

from primlat.core import MAX_ATOMS, FinitePoset, Record, classify
from primlat.ortho import relations
from primlat.primorial import boolean_carrier, generate_primorial, is_primorial
from primlat.probability import ProbabilityAssignment, ProbabilityError, probability_report, validate_probability
from primlat.seqproc import AnalysisPyramid, SequenceError, SymbolAlphabet, analyze, encode, gsp_preset
from primlat.textio import parse_lattice_text
from primlat.valuation import LatticeMetric, ValuationCheck, check_valuation, metric_from_valuation

from conftest import benzene, chain, powerset

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda rec: pickle.loads(pickle.dumps(rec)),
}


RECORDS = [
    "AnalysisPyramid", "DefinitionVerdict", "GspPreset", "LatticeDocument", "PrimorialLattice",
    "PrimorialRoles", "ProbabilityAssignment", "RelationReport", "SymbolAlphabet", "ValuationCheck",
]


def _records():
    """One instance of each result record, by the name of its class."""
    lat, omap = benzene()
    pa = validate_probability(lat, omap, {"0": 0, "p": "1/3", "q": "1/2", "q'": "1/2", "p'": "2/3", "1": 1})
    preset = gsp_preset("acgt-atcg")
    source = encode(preset.alphabet, "ACGT")
    records = [
        relations(lat, omap),
        preset.primorial,
        is_primorial(preset.primorial.family),
        pa,
        probability_report(pa)["traditional"],
        preset,
        parse_lattice_text("lattice c2\nelements 0 1\ncovers 0<1\n"),
        preset.alphabet,
        analyze(preset.primorial, preset.alphabet, source, "zero"),
        check_valuation(chain(3), {"c0": 0, "c1": 1, "c2": 2}),
    ]
    return {type(rec).__name__: rec for rec in records}


def test_there_are_ten_records():
    assert sorted(_records()) == RECORDS


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_of_a_record_can_be_assigned_or_deleted(name):
    rec = _records()[name]
    fields = rec.__slots__ if isinstance(rec, Record) else rec._fields
    assert fields
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(rec, field)


@pytest.mark.parametrize("name", ["SymbolAlphabet", "AnalysisPyramid", "ValuationCheck", "ProbabilityAssignment"])
@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_checked_record_is_an_equal_record(name, how):
    rec = _records()[name]
    twin = COPIES[how](rec)
    assert type(twin) is type(rec) and twin == rec and twin is not rec


BAD_ALPHABETS = [("A", "C", "A"), tuple("ABCDEFGHI")[: MAX_ATOMS + 1]]


@pytest.mark.parametrize("symbols", BAD_ALPHABETS, ids=["repeated", "too-many"])
def test_no_path_builds_a_bad_alphabet(symbols):
    with pytest.raises(SequenceError):
        SymbolAlphabet(symbols)
    # the named-tuple paths that skip a constructor do not exist, and a copy
    # or unpickle calls the constructor on the record's fields
    good = SymbolAlphabet(("A", "C"))
    assert not hasattr(good, "_replace") and not hasattr(good, "_make")
    rebuild, args = good.__reduce__()
    assert (rebuild, args) == (SymbolAlphabet, (("A", "C"),))
    with pytest.raises(SequenceError):
        rebuild(symbols)
    assert good.__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (rebuild, args)


def test_no_path_builds_a_pyramid_with_a_level_of_the_wrong_length():
    pyramid = _records()["AnalysisPyramid"]
    short = dict(pyramid.levels, **{"L2^2": pyramid.levels["L2^2"][:-1]})
    with pytest.raises(SequenceError, match="level 'L2\\^2' does not have the input's length"):
        AnalysisPyramid(pyramid.method, pyramid.source, short)
    assert not hasattr(pyramid, "_replace") and not hasattr(pyramid, "_make")
    rebuild, args = pyramid.__reduce__()
    assert rebuild is AnalysisPyramid and args == (pyramid.method, pyramid.source, pyramid.levels)
    with pytest.raises(SequenceError):
        rebuild(pyramid.method, pyramid.source[:-1], pyramid.levels)


def test_no_path_builds_a_bad_probability_assignment():
    pa = _records()["ProbabilityAssignment"]
    rebuild, args = pa.__reduce__()
    assert rebuild is ProbabilityAssignment and args == (pa.lattice, pa.neg, pa.p)
    with pytest.raises(ProbabilityError):
        rebuild(pa.lattice, pa.neg, dict(pa.p, p=Fraction(1, 2)))
    assert not hasattr(pa, "_replace") and not hasattr(pa, "_make")
    # a copy is checked again, and keeps what the checks derived
    for how in COPIES.values():
        twin = how(pa)
        assert (twin.perm, twin.scaled, twin.disjoint, twin.unadditive) == (
            pa.perm, pa.scaled, pa.disjoint, pa.unadditive
        )
    assert repr(pa) == f"ProbabilityAssignment(lattice={pa.lattice!r}, neg={pa.neg!r}, p={pa.p!r})"


def test_valuation_check_compares_hashes_and_shows_without_scaled():
    lat = powerset(2)
    check = check_valuation(lat, {x: bin(x).count("1") for x in lat.labels})
    bare = ValuationCheck(True, True, None)
    assert check.scaled is not None and bare.scaled is None
    assert check == bare and hash(check) == hash(bare)
    assert repr(check) == repr(bare) == "ValuationCheck(is_valuation=True, is_isotone=True, witness=None)"
    assert check != ValuationCheck(True, False, None)
    # a copy keeps scaled, so the metric still takes it without a second scan
    for how in COPIES.values():
        assert how(check).scaled[1:] == check.scaled[1:]
    assert metric_from_valuation(lat, copy.copy(check)).table == metric_from_valuation(lat, check).table


def test_named_tuple_records_unpack_index_and_compare_as_tuples():
    records = _records()
    verdict = records["DefinitionVerdict"]
    satisfied, witness = verdict
    assert (satisfied, witness) == (verdict[0], verdict[1]) == (verdict.satisfied, verdict.witness)
    assert verdict == (satisfied, witness)
    report = relations(*benzene())
    assert report == (report.orthogonal_pairs, report.center)
    pl = generate_primorial(3)
    assert pl._replace(top_n=9).top_n == 9 and pl.top_n == 3
    doc = records["LatticeDocument"]
    assert doc == ("c2", ("0", "1"), (("0", "1"),), {}, {}, {}, {})


def test_a_lattice_document_is_built_whole():
    doc = parse_lattice_text(
        "lattice first\nlattice b2\nelements 0 a\ncovers 0<a a<1\nelements b 1\ncovers 0<b b<1\n"
        "ortho 0:1 a:b\nvaluation 0=0 a=1/2\nprob 1=1\nnegation a->b\n"
    )
    assert doc.name == "b2"
    assert doc.elements == ("0", "a", "b", "1")
    assert doc.covers == (("0", "a"), ("a", "1"), ("0", "b"), ("b", "1"))
    assert doc.ortho == {"0": "1", "1": "0", "a": "b", "b": "a"}
    assert set(doc.valuation) == {"0", "a"} and doc.prob == {"1": 1} and doc.negation == {"a": "b"}
    assert parse_lattice_text("") == ("", (), (), {}, {}, {}, {})
    # each parse makes its own dicts
    assert parse_lattice_text("").ortho is not parse_lattice_text("").ortho



def _values():
    """One instance of each value class that keeps an instance dict for its
    cached properties, with those properties read, by the name of its class."""
    lat = powerset(2)
    level = generate_primorial(3).level("D3")
    poset = FinitePoset.from_covers("abc", [("a", "b")])
    values = [
        poset,
        lat,
        level,
        classify(lat),
        LatticeMetric(lat, {x: bin(x).count("1") for x in lat.labels}),
    ]
    # fill cached properties, so the instance dicts hold them
    for value in (poset, lat, level.lattice):
        value.covers, value.topo_order
    level.carrier_set
    return {type(value).__name__: value for value in values}


VALUES = ["FiniteLattice", "FinitePoset", "LatticeMetric", "Level", "PropertyReport"]


def test_the_assignments_that_used_to_succeed_are_refused():
    level = generate_primorial(3).level("L2^2")
    with pytest.raises(AttributeError):
        level.top_n = 5
    assert (level.top_n, level.full, level.complement(1)) == (3, 7, 6)
    lat = chain(2)
    with pytest.raises(AttributeError):
        classify(lat).is_modular = "x"
    with pytest.raises(AttributeError):
        lat.labels = ("z",)
    assert lat.labels == ("c0", "c1") and lat.index("c1") == 1


@pytest.mark.parametrize("name", VALUES)
def test_no_attribute_of_a_value_can_be_assigned_or_deleted(name):
    value = _values()[name]
    fields = list(vars(value))
    assert fields
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert list(vars(value)) == fields


def test_cached_properties_still_fill_on_first_read():
    level = boolean_carrier(3)
    assert "lattice" not in vars(level)
    lat = level.lattice
    assert "lattice" in vars(level) and level.lattice is lat
    assert "heights" not in vars(lat)
    assert lat.heights is lat.heights and vars(lat)["heights"] == (0, 1, 1, 2, 1, 2, 2, 3)
    assert lat.top == 7 and vars(lat)["top_i"] == lat.index(7)


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_value_is_an_equal_value(name, how):
    value = _values()[name]
    twin = COPIES[how](value)
    assert type(twin) is type(value) and twin is not value
    assert vars(twin) == vars(value)
    if name in ("FiniteLattice", "FinitePoset", "Level"):
        assert twin == value and hash(twin) == hash(value)
    with pytest.raises(AttributeError):
        twin.extra = None
