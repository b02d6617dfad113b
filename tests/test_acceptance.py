"""Acceptance criteria, one test each, every tolerance exact.

Each test prints its own ``criterion NN <name>: PASS|FAIL`` line (visible
with ``pytest -s``); a FAIL line is followed by the assertion detail.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from primlat.core import classify, enumerate_lattices
from primlat.ortho import attach_ortho, sasaki
from primlat.primorial import (
    boolean_carrier,
    chain_dposet_members,
    dposet_check,
    generate_primorial,
    is_primorial,
    reduce_boolean,
)
from primlat.probability import (
    DEFINITIONS,
    probability_report,
    random_boolean_assignment,
    validate_probability,
)
from primlat.projection import proj_metric, proj_sasaki, proj_zero
from primlat.seqproc import analyze, encode, gsp_preset
from primlat.valuation import check_valuation, metric_from_valuation

from conftest import benzene, powerset, powerset_complement

import helpers
from helpers import all_orthocomplements, closed_ball, find_orthocomplement, height_valuation, is_isomorphic


class criterion:
    def __init__(self, number, name):
        self.line = f"criterion {number:02d} {name}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"{self.line}: {'PASS' if exc_type is None else 'FAIL'}")
        return False


@pytest.fixture(scope="module")
def family5():
    return generate_primorial(5)


def test_criterion_01_lattice_census():
    with criterion(1, "lattice census"):
        start = time.perf_counter()
        expected = {5: (5, 4, 3), 6: (15, 8, 5)}
        for n, (total, modular, distributive) in expected.items():
            lats = enumerate_lattices(n)
            reports = [classify(lat) for lat in lats]
            assert len(lats) == total
            assert sum(r.is_modular for r in reports) == modular
            assert sum(r.is_distributive for r in reports) == distributive
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"census for n<=6 took {elapsed:.1f}s"
        assert len(enumerate_lattices(7)) == 53


def test_criterion_02_reduction_counts():
    with criterion(2, "reduction counts"):
        assert len(reduce_boolean(boolean_carrier(2))) == 1
        assert len(reduce_boolean(boolean_carrier(3))) == 3
        top4 = boolean_carrier(4)
        assert math.comb(len(helpers._complement_pairs(top4)), 3) == 35
        assert len(reduce_boolean(top4)) == 10

        top5 = boolean_carrier(5)
        start = time.perf_counter()
        fast = reduce_boolean(top5)
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"reduction of the 32-element carrier took {elapsed:.1f}s"

        # independent brute force: generic induced-order oracle over all
        # C(15,7) = 6435 pair selections
        pairs = helpers._complement_pairs(top5)
        assert math.comb(len(pairs), 7) == 6435
        oracle_accepted = []
        for chosen in itertools.combinations(pairs, 7):
            carrier = tuple(sorted({0, 31} | {x for pair in chosen for x in pair}))
            if helpers.is_boolean_level_oracle(carrier, 5):
                oracle_accepted.append(carrier)
        assert sorted(lvl.carrier for lvl in fast) == sorted(oracle_accepted)
        assert len(fast) == 50


def test_criterion_03_difference_orthocomplement(family5):
    with criterion(3, "difference levels orthocomplemented"):
        pl3 = generate_primorial(3)
        d3 = pl3.levels["D3"]
        hexagon, _ = benzene()
        assert is_isomorphic(d3.lattice, hexagon) is not None
        attach_ortho(d3.lattice, {x: d3.complement(x) for x in d3.carrier})
        for lvl in (family5.levels[f"D{m}"] for m in range(2, 6)):
            attach_ortho(lvl.lattice, {x: lvl.complement(x) for x in lvl.carrier})


def test_criterion_04_family_structure(family5):
    with criterion(4, "generated family structure"):
        for n in (3, 4, 5):
            pl = generate_primorial(n) if n != 5 else family5
            assert is_primorial(pl.family) is not None
            members, diff, leq = chain_dposet_members(pl)
            assert dposet_check(members, diff, leq) == {}
        for n in (4, 5):
            fam = (generate_primorial(n) if n != 5 else family5).family
            rep = classify(fam)
            assert not rep.is_modular
            assert not rep.is_distributive
            assert rep.complementation_class == "multiply"
            assert find_orthocomplement(fam) is None
            assert not rep.is_boolean


def test_criterion_05_sasaki_values():
    with criterion(5, "hexagon Sasaki evaluations"):
        lat, omap = benzene()
        ol = attach_ortho(lat, omap)
        assert sasaki(ol, "p", "q") == "0"
        assert sasaki(ol, "p", "p'") == "0"
        assert sasaki(ol, "p", "q'") == "p"
        assert sasaki(ol, "q'", "p") == "q'"
        assert sasaki(ol, "p", "1") == "p"
        assert sasaki(ol, "p", "0") == "0"


def test_criterion_06_metric_suite(family5):
    with criterion(6, "metric suite"):
        cube = powerset(3)
        metric = metric_from_valuation(cube, height_valuation(cube))
        atom = 0b001
        assert metric.d(atom, 0b110) == 3
        assert len(closed_ball(metric, atom, 1)) == 4

        hexagon, _ = benzene()
        chk = check_valuation(hexagon, height_valuation(hexagon))
        assert not chk.is_valuation
        assert set(chk.witness) == {"p", "q"}

        # all four metric axioms are asserted on construction; run it on
        # every Boolean chain level of every family up to five atoms
        for n in (2, 3, 4, 5):
            pl = generate_primorial(n) if n != 5 else family5
            for lvl in pl.chain:
                metric_from_valuation(lvl.lattice, height_valuation(lvl.lattice))


def test_criterion_07_projection_suite(family5):
    with criterion(7, "projection suite"):
        start = time.perf_counter()
        top = family5.chain[-1]
        for name in family5.member_names():
            lvl = family5.level(name)
            for x in lvl.carrier:
                assert proj_zero(family5, name, x) == x
                assert proj_sasaki(family5, name, x) == x
                assert proj_metric(family5, name, x) == x
            for x in top.carrier:
                if x not in lvl.carrier_set:
                    assert proj_zero(family5, name, x) == 0
                # the two Sasaki formulations: the map-based form computed
                # here, the meet-based form inside proj_sasaki (also
                # asserted internally)
                outer = next(
                    l for l in family5.chain
                    if x in l.carrier_set and lvl.carrier_set <= l.carrier_set
                )
                lat = outer.lattice
                shadows = {
                    lat.meet(lat.join(x, outer.complement(y)), y) for y in lvl.carrier
                }
                expected = lvl.lattice.join_all(sorted(shadows & lvl.carrier_set))
                assert proj_sasaki(family5, name, x) == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"projection suite took {elapsed:.1f}s"


def test_criterion_08_probability():
    with criterion(8, "probability"):
        lat, omap = benzene()
        values = {
            "0": 0,
            "p": Fraction(1, 3),
            "q": Fraction(1, 2),
            "q'": Fraction(1, 2),
            "p'": Fraction(2, 3),
            "1": 1,
        }
        pa = validate_probability(lat, omap, values)
        report = probability_report(pa)
        for name in ("traditional", "quantum"):
            verdict = report[name]
            assert not verdict.satisfied
            _, elems, lhs, rhs = verdict.witness
            assert set(elems) == {"p", "q"}
            assert lhs == 1 and rhs == Fraction(5, 6)

        cube = powerset(3)
        neg = powerset_complement(3)
        for seed in range(100):
            vals = random_boolean_assignment(cube, random.Random(seed))
            pa = validate_probability(cube, neg, vals)  # Props 5.26/5.27 inside
            rep = probability_report(pa)  # inclusion-exclusion + Boole inside
            assert all(rep[name].satisfied for name in DEFINITIONS)


def test_criterion_09_law_suites():
    with criterion(9, "law suites over enumerated lattices"):
        lats = [lat for n in range(1, 7) for lat in enumerate_lattices(n)]
        for lat in lats:
            assert helpers.lattice_laws(lat) is None
            rep = classify(lat)  # route agreement is asserted inside classify
            d, c, m = helpers.distributivity_equivalents(lat)
            assert d == c == m == rep.is_distributive
            if rep.is_distributive:
                assert rep.is_modular
            if rep.is_boolean:
                comp = next(helpers.complement_selections(lat))
                assert helpers.classic_ten_hold(lat, comp)
                assert helpers.huntington_fourth_holds(lat, comp)
            for mapping in all_orthocomplements(lat):
                attach_ortho(lat, mapping)  # derived consequences asserted
                perm = tuple(lat.index(mapping[lab]) for lab in lat.labels)
                forms = helpers.orthomodular_forms(lat, perm)
                assert len(set(forms)) == 1


def test_criterion_10_gsp_demo():
    with criterion(10, "genomic sequence demo"):
        start = time.perf_counter()
        preset = gsp_preset("acgt-atcg")
        rng = random.Random(0)
        tokens = tuple(rng.choice("ACGT") for _ in range(1000))
        pyramid = analyze(preset.primorial, preset.alphabet, encode(preset.alphabet, tokens), "ceiling")
        at_mask, cg_mask = 9, 6  # A∨T and C∨G
        coarse = pyramid.levels["L2^2"]
        assert sum(1 for x in coarse if x == at_mask) == sum(
            1 for t in tokens if t in "AT"
        )
        assert sum(1 for x in coarse if x == cg_mask) == sum(
            1 for t in tokens if t in "CG"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"demo took {elapsed:.1f}s"
