import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from primlat.core import LatticeError, classify
from primlat.probability import ProbabilityError, validate_probability
from primlat.valuation import (
    ValuationCheck,
    ValuationError,
    check_valuation,
    metric_from_valuation,
)

from conftest import benzene, chain, powerset, powerset_complement
from helpers import closed_ball, height_valuation


def test_height_is_isotone_valuation_on_powerset():
    lat = powerset(3)
    chk = check_valuation(lat, height_valuation(lat))
    assert chk.is_valuation and chk.is_isotone


def test_a_value_map_missing_a_label_names_the_first_one():
    # one totality check serves valuations and probabilities, each with
    # its own error
    lat = powerset(2)
    values = {0: 0, 2: Fraction(1, 2), 3: 1}
    with pytest.raises(ValuationError) as verr:
        check_valuation(lat, values)
    assert (str(verr.value), verr.value.reason, verr.value.witness) == ("valuation not total at 1", "valuation not total", 1)
    with pytest.raises(ProbabilityError) as perr:
        validate_probability(lat, powerset_complement(2), values)
    assert (str(perr.value), perr.value.axiom, perr.value.witness) == ("probability axiom 'totality' fails at 1", "totality", 1)


def test_height_fails_on_benzene_with_atom_witness():
    lat, _ = benzene()
    chk = check_valuation(lat, height_valuation(lat))
    assert not chk.is_valuation
    assert set(chk.witness) == {"p", "q"}
    # the two sides of the defining identity at the witness: 3 versus 2
    h = height_valuation(lat)
    assert h[lat.join("p", "q")] + h[lat.meet("p", "q")] == 3
    assert h["p"] + h["q"] == 2


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@given(st.lists(rationals, min_size=1, max_size=7))
def test_any_function_on_a_chain_is_a_valuation(values):
    # on a linear order one of x, y always realizes both join and meet
    lat = chain(len(values))
    mapping = dict(zip(lat.labels, values))
    assert check_valuation(lat, mapping).is_valuation


def test_seeded_chain_valuations():
    rng = random.Random(5)
    for k in (1, 2, 4, 6):
        lat = chain(k)
        values = {lab: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for lab in lat.labels}
        assert check_valuation(lat, values).is_valuation


def test_metric_distances_on_powerset():
    lat = powerset(3)
    metric = metric_from_valuation(lat, height_valuation(lat))
    atom = 0b001
    assert metric.d(atom, 0b110) == 3  # an atom and its set complement
    assert metric.d(atom, atom) == 0
    assert metric.d(0, 7) == 3  # bottom to top equals the height


def test_closed_ball_examples():
    lat = powerset(3)
    metric = metric_from_valuation(lat, height_valuation(lat))
    atom = 0b001
    ball = set(closed_ball(metric, atom, 1))
    assert ball == {atom, 0, 0b011, 0b101}  # itself, bottom, both covers
    assert len(ball) == 4
    assert closed_ball(metric, atom, 0) == (atom,)
    assert set(closed_ball(metric, atom, 3)) == set(lat.labels)


def test_ball_radius_must_be_nonnegative():
    lat = powerset(2)
    metric = metric_from_valuation(lat, height_valuation(lat))
    with pytest.raises(ValuationError):
        closed_ball(metric, 0, -1)


def test_metric_requires_isotone_valuation():
    lat, _ = benzene()
    with pytest.raises(ValuationError, match="not a valuation"):
        metric_from_valuation(lat, height_valuation(lat))
    lat2 = chain(2)
    with pytest.raises(ValuationError, match="isotone"):
        metric_from_valuation(lat2, {"c0": 1, "c1": 0})


def test_metric_rejects_a_flat_valuation():
    # isotone but equal across a cover: d would vanish off the diagonal
    with pytest.raises(ValuationError, match=r"^valuation not strictly isotone at \('c0', 'c1'\)$") as exc:
        metric_from_valuation(chain(2), {"c0": 0, "c1": 0})
    assert exc.value.witness == ("c0", "c1")
    # weight 0 on atom 1 flattens the covers 0 < 1 and 2 < 3; the first
    # cover in index order is the witness
    lat = powerset(2)
    values = {0: 0, 1: 0, 2: 1, 3: 1}
    assert check_valuation(lat, values) == ValuationCheck(True, True, None)
    with pytest.raises(ValuationError) as exc:
        metric_from_valuation(lat, values)
    assert exc.value.witness == (0, 1)


def test_balls_compare_radius_against_scaled_table():
    # v = (0, 1/3): the table holds 1 over scale 3, so radius 1/2 reaches c1
    metric = metric_from_valuation(chain(2), {"c0": 0, "c1": Fraction(1, 3)})
    assert metric.scale == 3 and metric.table == ((0, 1), (1, 0))
    assert metric.d("c0", "c1") == Fraction(1, 3)
    assert closed_ball(metric, "c0", Fraction(1, 2)) == ("c0", "c1")
    assert closed_ball(metric, "c0", Fraction(1, 3)) == ("c0", "c1")
    assert closed_ball(metric, "c0", Fraction(1, 4)) == ("c0",)


_weights = st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=12)
_radii = st.lists(st.fractions(min_value=0, max_value=8, max_denominator=6), min_size=1, max_size=4)


@example([Fraction(1, 3)] * 3, Fraction(0), [Fraction(1, 2)])
@given(st.lists(_weights, min_size=3, max_size=3), rationals, _radii)
def test_lattice_metric_matches_fraction_oracle(weights, base, radii):
    # a modular valuation on 2^3: a base value plus one positive weight per atom
    lat = powerset(3)
    v = {x: base + sum((w for a, w in enumerate(weights) if x >> a & 1), Fraction(0)) for x in lat.labels}
    metric = metric_from_valuation(lat, v)
    labels = lat.labels
    for a in labels:
        oracle = [v[lat.join(a, b)] - v[lat.meet(a, b)] for b in labels]
        assert [metric.d(a, b) for b in labels] == oracle
        for r in radii + oracle:
            assert closed_ball(metric, a, r) == tuple(b for b, d in zip(labels, oracle) if d <= r)


def test_height_valuation_characterizes_modularity(small_lattices):
    # height is a valuation exactly on the modular members; on those it is
    # isotone, and the induced metric's axioms are asserted on construction
    for lat in small_lattices:
        chk = check_valuation(lat, height_valuation(lat))
        modular = classify(lat).is_modular
        assert chk.is_valuation == modular
        if modular:
            assert chk.is_isotone
            metric_from_valuation(lat, height_valuation(lat))


def test_a_check_builds_the_metric_and_refuses_as_the_values_do():
    lat = powerset(2)
    good = {0: 0, 1: 1, 2: Fraction(1, 2), 3: Fraction(3, 2)}
    via_check = metric_from_valuation(lat, check_valuation(lat, good))
    assert via_check.table == metric_from_valuation(lat, good).table and via_check.scale == 2
    for values, reason in (
        ({0: 0, 1: 1, 2: 1, 3: 1}, "not a valuation"),
        ({0: 0, 1: 1, 2: -2, 3: -1}, "valuation not isotone"),
        ({0: 0, 1: 0, 2: 1, 3: 1}, "valuation not strictly isotone"),
    ):
        errors = []
        for given in (values, check_valuation(lat, values)):
            with pytest.raises(ValuationError) as exc:
                metric_from_valuation(lat, given)
            errors.append((str(exc.value), exc.value.witness))
        assert errors[0] == errors[1] and errors[0][0].startswith(reason)


def test_a_check_of_another_lattice_is_refused():
    lat, other = powerset(2), powerset(2)
    check = check_valuation(other, height_valuation(other))
    with pytest.raises(LatticeError, match="valuation check made on another lattice"):
        metric_from_valuation(lat, check)
    with pytest.raises(LatticeError, match="valuation check made on another lattice"):
        metric_from_valuation(lat, ValuationCheck(True, True, None))
