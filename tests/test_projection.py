import dataclasses
import random

import pytest

from helpers import proj_metric_loop, project_sequence_loop
from primlat import valuation
from primlat.core import MAX_ATOMS, LatticeError
from primlat.primorial import boolean_carrier, generate_primorial, reduce_boolean
from primlat.projection import (
    METHODS,
    project,
    project_sequence,
    proj_ceiling,
    proj_metric,
    proj_sasaki,
    proj_zero,
)
from primlat.seqproc import gsp_preset
from primlat.valuation import closed_ball, height_valuation, metric_from_valuation


@pytest.fixture(scope="module")
def family3():
    # chain picked so the 4-element level is {0, {1}, {2,3}, 1}
    return generate_primorial(3, choices=[(0, 1, 6, 7)])


def test_zero_projection_rules(family3):
    assert proj_zero(family3, "D3", 7) == 7  # the top is in every level
    assert proj_zero(family3, "D3", 1) == 0  # {1} was removed by the difference
    assert proj_zero(family3, "D3", 2) == 2  # {2} survives
    assert proj_zero(family3, "L2^1", 0) == 0


def test_sasaki_projection_worked_example(family3):
    # shadows of {1} against the hexagon level all land in {0, {1}}, and
    # only 0 belongs to the level
    assert proj_sasaki(family3, "D3", 1) == 0
    assert proj_sasaki(family3, "D3", 0) == 0
    for x in family3.level("D3").carrier:
        assert proj_sasaki(family3, "D3", x) == x


def test_metric_projection_worked_example(family3):
    # radius 1 ball around {1} in the full carrier hits {0, {1,2}, {1,3}},
    # whose meet inside the hexagon level is 0
    top = family3.chain[-1]
    metric = metric_from_valuation(top.lattice, height_valuation(top.lattice))
    assert set(closed_ball(metric, 1, 0)) == {1}
    assert set(closed_ball(metric, 1, 1)) == {0, 1, 3, 5}
    assert proj_metric(family3, "D3", 1) == 0


def test_metric_projection_radius_zero_on_carrier(family3):
    for name in family3.member_names():
        for x in family3.level(name).carrier:
            assert proj_metric(family3, name, x) == x


def _seeded_choices(n, rng):
    """A random reduction at every step from 2^n down to 2^2."""
    level, picks = boolean_carrier(n), []
    for _ in range(n - 2):
        level = rng.choice(reduce_boolean(level))
        picks.append(level.carrier)
    return picks


def test_metric_projection_matches_ball_route():
    rng = random.Random(12)
    families = [generate_primorial(n) for n in range(2, 7)]
    families += [gsp_preset(kind).primorial for kind in ("acgt-atcg", "acgt-plus-x")]
    families += [generate_primorial(n, choices=_seeded_choices(n, rng)) for n in (3, 4, 5) for _ in range(3)]
    checked = 0
    for pl in families:
        for name in pl.levels:
            for x in pl.chain[-1].carrier:
                assert proj_metric(pl, name, x) == proj_metric_loop(pl, name, x), (pl.top_n, name, x)
                checked += 1
    assert checked == 1556 + 1320  # defaults and presets, then the seeded chains


def test_metric_projection_builds_no_lattice_metric(family4, monkeypatch):
    items = family4.chain[-1].carrier
    expected = {name: tuple(proj_metric_loop(family4, name, x) for x in items) for name in family4.member_names()}

    def fail(*args, **kwargs):
        raise RuntimeError("a LatticeMetric was built")

    monkeypatch.setattr(valuation, "metric_from_valuation", fail)
    monkeypatch.setattr(valuation, "LatticeMetric", fail)
    for name, want in expected.items():
        assert project_sequence(family4, name, items, "metric") == bytes(want)


def test_projection_methods_return_level_members(family5):
    top = family5.chain[-1]
    for name in family5.member_names():
        carrier = family5.level(name).carrier_set
        for x in top.carrier:
            for method in METHODS:
                assert project(family5, name, x, method) in carrier


def test_value_projections_are_identity_on_own_carrier(family5):
    families = [generate_primorial(n) for n in (2, 3, 4)] + [family5]
    for pl in families:
        for name in pl.member_names():
            for x in pl.level(name).carrier:
                for method in ("zero", "sasaki", "metric"):
                    assert project(pl, name, x, method) == x


def test_zero_projection_is_zero_off_carrier(family5):
    top = family5.chain[-1]
    for name in family5.member_names():
        carrier = family5.level(name).carrier_set
        for x in top.carrier:
            expected = x if x in carrier else 0
            assert proj_zero(family5, name, x) == expected


def test_sasaki_two_forms_agree_exhaustively(family5):
    # the dual route: evaluate the definitional form standalone and compare
    top_full = family5.chain[-1].full
    for name in family5.member_names():
        target = family5.level(name)
        for x in family5.chain[-1].carrier:
            outer = next(
                lvl
                for lvl in family5.chain
                if x in lvl.carrier_set and target.carrier_set <= lvl.carrier_set
            )
            lat = outer.lattice
            shadows = set()
            for y in target.carrier:
                comp = outer.complement(y)
                shadows.add(lat.meet(lat.join(x, comp), y))
            picked = sorted(shadows & target.carrier_set)
            expected = target.lattice.join_all(picked)
            assert proj_sasaki(family5, name, x) == expected
    assert top_full == 31


def test_sasaki_below_ceiling(family5):
    top = family5.chain[-1]
    for name in family5.member_names():
        for x in top.carrier:
            s = proj_sasaki(family5, name, x)
            c = proj_ceiling(family5, name, x)
            assert s & ~c == 0


def test_ceiling_examples(family5):
    target = family5.level("L2^2")
    for x in target.carrier:
        assert proj_ceiling(family5, "L2^2", x) == x
    assert proj_ceiling(family5, "L2^1", 1) == family5.chain[-1].full


def test_top_level_projection_is_identity(family5):
    top = family5.chain[-1]
    for x in top.carrier:
        for method in METHODS:
            assert project(family5, top.name, x, method) == x


def test_project_sequence_shapes(family3, family4, family5):
    assert project_sequence(family3, "D3", (), "zero") == b""
    top = family3.chain[-1].full
    assert project_sequence(family3, "D3", (top, top), "metric") == bytes((top, top))
    seq = project_sequence(family3, "L2^2", (1, 2, 4), "ceiling")
    assert len(seq) == 3
    # the distinct-element table agrees with per-element projection on a
    # sequence holding every top element, most of them repeated
    rng = random.Random(7)
    presets = [gsp_preset(kind).primorial for kind in ("acgt-atcg", "acgt-plus-x")]
    for pl in [family4, family5] + presets:
        elements = list(pl.chain[-1].carrier)
        items = elements + rng.choices(elements, k=3 * len(elements))
        rng.shuffle(items)
        for name in pl.member_names():
            for method in METHODS:
                expected = bytes(project(pl, name, x, method) for x in items)
                assert project_sequence(pl, name, iter(items), method) == expected


def test_unknown_method_and_foreign_element(family3):
    for call in (
        lambda: project(family3, "D3", 1, "nonsense"),
        lambda: project_sequence(family3, "D3", (1,), "nonsense"),
    ):
        with pytest.raises(LatticeError, match="^unknown projection method 'nonsense'$"):
            call()
    for method in METHODS:
        with pytest.raises(LatticeError, match="^element 99 outside the top carrier$"):
            project_sequence(family3, "D3", (1, 3, 99, 1, 64, 99), method)
    with pytest.raises(LatticeError):
        proj_zero(family3, "D3", 99)
    with pytest.raises(LatticeError):
        family3.level("D9")


def _family(source):
    return gsp_preset(source).primorial if isinstance(source, str) else generate_primorial(source)


@pytest.mark.parametrize("source", ["acgt-atcg", "acgt-plus-x", 2, 3, 4, 5, 6])
def test_project_sequence_equals_the_dict_loop(source):
    # both presets and the default families, every member with D2, every
    # method, on every top element in a seeded order with repeats
    pl = _family(source)
    rng = random.Random(13)
    elements = list(pl.chain[-1].carrier)
    items = elements + rng.choices(elements, k=2 * len(elements))
    rng.shuffle(items)
    for name in pl.levels:
        for method in METHODS:
            want = project_sequence_loop(pl, name, items, method)
            got = project_sequence(pl, name, items, method)
            assert isinstance(got, bytes)
            assert tuple(got) == want
            assert project_sequence(pl, name, bytes(items), method) == got


def test_project_sequence_names_the_first_bad_element_like_the_loop(family3):
    cases = [((1, 3, 99, 1, 64, 99), 99), ((64, 99), 64), ((0, 7, 8), 8), ((-1,), -1),
             ((1, 300), 300), ((2, "a", 9), "a")]
    for items, bad in cases:
        for method in METHODS:
            with pytest.raises(LatticeError) as want:
                project_sequence_loop(family3, "D3", items, method)
            with pytest.raises(LatticeError) as got:
                project_sequence(family3, "D3", iter(items), method)
            assert str(got.value) == str(want.value) == f"element {bad!r} outside the top carrier"
            if all(isinstance(x, int) and 0 <= x < 256 for x in items):
                with pytest.raises(LatticeError, match=f"^element {bad} outside"):
                    project_sequence(family3, "D3", bytes(items), method)


def test_project_sequence_refuses_more_than_one_byte_per_element(family3):
    assert MAX_ATOMS == 8
    wide = dataclasses.replace(family3, top_n=9)
    for items in ((), (1, 2)):
        with pytest.raises(LatticeError, match=r"^sequences hold elements of 2\^N for N <= 8, not of 2\^9$"):
            project_sequence(wide, "D3", items, "zero")


def _built(pl):
    return {name for name, lvl in pl.levels.items() if "lattice" in lvl.__dict__}


@pytest.mark.parametrize("source", ["acgt-atcg", "acgt-plus-x", 2, 3, 4, 5, 6])
def test_a_family_builds_level_tables_only_when_read(source):
    pl = _family(source)
    d_levels = {name for name, lvl in pl.levels.items() if not lvl.is_boolean}
    assert _built(pl) == d_levels  # difference builds each D level's tables for its ortho check
    top = pl.chain[-1].carrier
    for name in pl.levels:
        target = pl.level(name).carrier_set
        enclosing = {next(c.name for c in pl.chain if x in c.carrier_set and target <= c.carrier_set) for x in top}
        reads = {"zero": set(), "ceiling": {name}, "sasaki": {name} | enclosing, "metric": {name} | enclosing}
        for method in METHODS:
            fresh = _family(source)
            project_sequence(fresh, name, top, method)
            assert _built(fresh) == d_levels | reads[method], (name, method)
