import random
from fractions import Fraction

import pytest

from primlat.probability import (
    DEFINITIONS,
    ProbabilityAssignment,
    ProbabilityError,
    probability_report,
    random_boolean_assignment,
    validate_probability,
)

from conftest import benzene, chain, powerset, powerset_complement
from helpers import lattice_from_covers


BENZENE_VALUES = {
    "0": 0,
    "p": Fraction(1, 3),
    "q": Fraction(1, 2),
    "q'": Fraction(1, 2),
    "p'": Fraction(2, 3),
    "1": 1,
}


def test_benzene_assignment_is_valid():
    lat, omap = benzene()
    pa = validate_probability(lat, omap, BENZENE_VALUES)
    assert pa("p") == Fraction(1, 3)


def test_benzene_violates_classical_definitions_with_atom_witness():
    lat, omap = benzene()
    report = probability_report(validate_probability(lat, omap, BENZENE_VALUES))
    for name in ("measure-theoretic", "traditional", "quantum"):
        verdict = report[name]
        assert not verdict.satisfied
        what, elems, lhs, rhs = verdict.witness
        assert set(elems) == {"p", "q"}
        assert lhs == 1 and rhs == Fraction(5, 6)
    assert not report["generalized"].satisfied
    assert report["gated"].satisfied


def test_normalization_failure():
    lat, omap = benzene()
    with pytest.raises(ProbabilityError) as err:
        validate_probability(lat, omap, dict(BENZENE_VALUES, **{"1": Fraction(9, 10)}))
    assert err.value.axiom == "normalized"


def test_additivity_witness_is_the_first_failing_pair_in_row_order():
    # raising p({1,2}) breaks (1, 2) and (3, 4) and their mirrors; the row
    # order names (1, 2)
    lat = powerset(3)
    values = {x: Fraction(bin(x).count("1"), 3) for x in lat.labels}
    values[0b011] += Fraction(1, 100)
    with pytest.raises(ProbabilityError) as err:
        validate_probability(lat, powerset_complement(3), values)
    assert (err.value.axiom, err.value.witness) == ("additive", (1, 2))


def test_monotonicity_failure():
    lat, omap = benzene()
    bad = dict(BENZENE_VALUES, **{"q'": Fraction(1, 4)})  # below p's value
    with pytest.raises(ProbabilityError) as err:
        validate_probability(lat, omap, bad)
    assert err.value.axiom == "monotone"


def test_uniform_square_satisfies_all_definitions():
    lat = powerset(2)
    neg = powerset_complement(2)
    uniform = {0: 0, 1: Fraction(1, 2), 2: Fraction(1, 2), 3: 1}
    report = probability_report(validate_probability(lat, neg, uniform))
    assert all(report[name].satisfied for name in DEFINITIONS)


def test_additivity_fires_on_boolean_atom_pair():
    lat = powerset(2)
    neg = powerset_complement(2)
    broken = {0: 0, 1: Fraction(1, 3), 2: Fraction(1, 3), 3: 1}
    with pytest.raises(ProbabilityError) as err:
        validate_probability(lat, neg, broken)
    assert err.value.axiom == "additive"
    assert set(err.value.witness) == {1, 2}


def test_complement_identity_enforced_on_ortho_bases():
    # the gate leaves the hexagon's complement pairs unconstrained, so the
    # identity is a separate validation condition there
    lat, omap = benzene()
    skewed = dict(BENZENE_VALUES, **{"p'": Fraction(1, 2)})
    with pytest.raises(ProbabilityError) as err:
        validate_probability(lat, omap, skewed)
    assert err.value.axiom == "complement-identity"


def test_negation_must_be_minimal():
    lat = chain(3)
    not_minimal = {"c0": "c0", "c1": "c1", "c2": "c2"}
    with pytest.raises(ProbabilityError) as err:
        validate_probability(lat, not_minimal, {"c0": 0, "c1": 1, "c2": 1})
    assert err.value.axiom == "negation-not-minimal"


def test_three_chain_kleene_probability_space():
    lat = chain(3)
    neg = {"c0": "c2", "c1": "c1", "c2": "c0"}
    pa = validate_probability(lat, neg, {"c0": 0, "c1": Fraction(2, 5), "c2": 1})
    report = probability_report(pa)
    assert report["gated"].satisfied


def test_random_boolean_assignments_validate_and_behave(small_lattices):
    lat = powerset(3)
    neg = powerset_complement(3)
    for seed in range(100):
        values = random_boolean_assignment(lat, random.Random(seed))
        pa = validate_probability(lat, neg, values)
        # inclusion-exclusion and union subadditivity are asserted inside
        # the report on Boolean bases
        report = probability_report(pa)
        assert all(report[name].satisfied for name in DEFINITIONS)
        for lab in lat.labels:
            assert 0 <= pa(lab) <= 1
            assert pa(lab) == 1 - pa(neg[lab])


def test_assignment_must_be_total():
    lat = powerset(2)
    with pytest.raises(ProbabilityError) as err:
        validate_probability(lat, powerset_complement(2), {0: 0, 3: 1})
    assert err.value.axiom == "totality"


def test_random_boolean_assignments_validate_on_every_seed():
    # an all-zero draw of atom weights falls back to uniform weights
    for k in (1, 2, 3):
        lat, neg = powerset(k), powerset_complement(k)
        for seed in range(1000):
            validate_probability(lat, neg, random_boolean_assignment(lat, random.Random(seed)))
    assert random_boolean_assignment(powerset(1), random.Random(31)) == {0: 0, 1: 1}


def _grid():
    """The 2 x 3 grid: labels "ij" for i < 2, j < 3, ordered componentwise."""
    labels = [f"{i}{j}" for i in range(2) for j in range(3)]
    covers = [(f"{i}{j}", f"{i}{j + 1}") for i in range(2) for j in range(2)]
    return lattice_from_covers(labels, covers + [(f"0{j}", f"1{j}") for j in range(3)])


def test_values_that_break_an_axiom_build_no_assignment():
    """A report was once made of any assignment: on these values it read
    ``gated: satisfied`` on the grid, and raised ``InvariantError`` on B2.
    Neither can now be built."""
    grid = _grid()
    neg = {f"{i}{j}": f"{1 - i}{2 - j}" for i in range(2) for j in range(3)}
    quarter = Fraction(1, 4)
    values = {"00": 0, "01": quarter, "02": 2 * quarter, "10": quarter, "11": 3 * quarter, "12": 1}
    with pytest.raises(ProbabilityError) as err:
        ProbabilityAssignment(grid, neg, values)
    assert (err.value.axiom, err.value.witness) == ("additive", ("01", "10"))
    half = Fraction(1, 2)
    with pytest.raises(ProbabilityError) as err:
        ProbabilityAssignment(powerset(2), powerset_complement(2), {0: 0, 1: half, 2: half, 3: half})
    assert (err.value.axiom, err.value.witness) == ("normalized", 3)
