import itertools
import math

import pytest

from primlat.core import FiniteLattice, LatticeError, classify, is_isomorphic
from primlat.ortho import attach_ortho, find_orthocomplement
from primlat.primorial import (
    Level,
    _induced_boolean,
    boolean_carrier,
    chain_dposet_members,
    check_reduce_bound,
    difference,
    dposet_check,
    generate_primorial,
    is_primorial,
    is_reduction,
    least_reduction,
    monotone_self_dual,
    reduce_boolean,
)
from primlat.projection import METHODS
from primlat.seqproc import SymbolAlphabet, analyze, gsp_preset

from conftest import benzene, diamond
from helpers import (
    _complement_pairs,
    atoms_loop,
    default_chain_loop,
    half_size_candidates,
    induced_boolean_loop,
    is_boolean_level_oracle,
    is_monotone_self_dual,
    monotone_self_dual_loop,
    reduce_boolean_loop,
)


@pytest.fixture(scope="module")
def levels6():
    return reduce_boolean(boolean_carrier(6))


@pytest.fixture(scope="module")
def reduction_tree():
    """(parent, reduce_boolean(parent)) for every level of the 2^2..2^5
    reduction trees that has at least 4 elements: 1 + 4 + 41 + 2051 parents."""
    stack = [boolean_carrier(n) for n in (2, 3, 4, 5)]
    tree = []
    while stack:
        parent = stack.pop()
        levels = reduce_boolean(parent)
        tree.append((parent, levels))
        if len(parent.carrier) > 4:
            stack.extend(levels)
    return tree


def test_reduce_counts():
    assert len(reduce_boolean(boolean_carrier(2))) == 1
    assert len(reduce_boolean(boolean_carrier(3))) == 3
    assert len(reduce_boolean(boolean_carrier(4))) == 10


def test_monotone_self_dual_counts():
    # OEIS A001206
    for k, count in zip(range(1, 6), (1, 2, 4, 12, 81)):
        functions = list(monotone_self_dual(k))
        assert len(set(functions)) == len(functions) == count
        assert all(is_monotone_self_dual(f, k) for f in functions)


def test_monotone_self_dual_matches_brute_force():
    for k in (1, 2, 3):
        assert sorted(monotone_self_dual(k)) == monotone_self_dual_loop(k)
    # k = 3: the three projections and the majority
    assert sorted(monotone_self_dual(3)) == [0b10101010, 0b11001100, 0b11101000, 0b11110000]


def test_reduce_count_is_atoms_times_functions_less_pair_merges(levels6):
    counts = {k: len(list(monotone_self_dual(k))) for k in range(1, 6)}
    for m in range(2, 7):
        levels = levels6 if m == 6 else reduce_boolean(boolean_carrier(m))
        assert len(levels) == m * counts[m - 1] - math.comb(m, 2)


def test_reduce_needs_bounds_and_complement_pairs_in_the_level():
    # the level below holds neither the top 7 nor its complement pairs
    broken = Level(None, 3, (0, 1, 2, 3), "boolean")
    refused = "^reduction needs a level holding 0 and the top, closed under complement$"
    for call in (reduce_boolean, least_reduction, lambda lvl: is_reduction(lvl, (0, 7))):
        with pytest.raises(LatticeError, match=refused):
            call(broken)
    (only,) = reduce_boolean(Level(None, 3, (0, 1, 6, 7), "boolean"))
    assert only.carrier == (0, 7)
    # bounds and complement pairs, but two chains 1 < 3 < 7 and 8 < 12 < 14
    # with two atoms: not Boolean under inclusion
    chains = Level(None, 4, (0, 1, 3, 7, 8, 12, 14, 15), "boolean")
    with pytest.raises(LatticeError, match="is not Boolean under inclusion$"):
        reduce_boolean(chains)


def test_reduce_of_two_atom_carrier_is_bounds_only():
    (only,) = reduce_boolean(boolean_carrier(2))
    assert only.carrier == (0, 3)


def test_reduce_three_atom_carriers_keep_one_pair_each():
    carriers = [lvl.carrier for lvl in reduce_boolean(boolean_carrier(3))]
    assert carriers == [(0, 1, 6, 7), (0, 2, 5, 7), (0, 3, 4, 7)]


def test_reduce_candidate_census_n4():
    # 35 ways to choose the three pairs; only 10 induce a Boolean order
    top = boolean_carrier(4)
    pairs = _complement_pairs(top)
    assert math.comb(len(pairs), 3) == 35
    assert len(reduce_boolean(top)) == 10


def test_reduce_structural_split_n4():
    # of the 10: six are join/meet-closed partition levels, four keep three
    # singleton/co-singleton pairs
    closed = singleton_type = 0
    for lvl in reduce_boolean(boolean_carrier(4)):
        cs = lvl.carrier_set
        if all((a | b) in cs and (a & b) in cs for a in cs for b in cs):
            closed += 1
        else:
            atoms = [x for x in lvl.carrier if bin(x).count("1") == 1]
            assert len(atoms) == 3
            singleton_type += 1
    assert closed == 6 and singleton_type == 4


def _carriers(levels):
    return [lvl.carrier for lvl in levels]


def test_reduce_agrees_with_brute_force_on_reduction_trees(levels6, reduction_tree):
    # every level of the 2^2..2^5 reduction trees, same levels in the same
    # order
    for parent, levels in reduction_tree:
        assert _carriers(levels) == _carriers(reduce_boolean_loop(parent))
    assert len(reduction_tree) == 2097
    # a strided sample of the 471 2^5 levels of 2^6
    sample = levels6[::40]
    assert len(sample) == 12
    for parent in sample:
        assert _carriers(reduce_boolean(parent)) == _carriers(reduce_boolean_loop(parent))


def _atoms_partition_top(level):
    cover = 0
    for a in atoms_loop(level.carrier):
        cover |= a
    return cover == level.full


def test_least_reduction_is_the_first_reduction_on_partition_levels(levels6, reduction_tree):
    # the merge rule holds exactly where the atoms partition the top; on
    # every other level it refuses instead of guessing
    partition = other = 0
    for parent, levels in reduction_tree:
        if _atoms_partition_top(parent):
            assert least_reduction(parent).carrier == levels[0].carrier
            partition += 1
        else:
            with pytest.raises(LatticeError, match="atoms partition the top"):
                least_reduction(parent)
            other += 1
    assert (partition, other) == (1733, 364)
    partition = other = 0
    for child in levels6:
        if _atoms_partition_top(child):
            assert least_reduction(child).carrier == reduce_boolean(child)[0].carrier
            partition += 1
        else:
            with pytest.raises(LatticeError, match="atoms partition the top"):
                least_reduction(child)
            other += 1
    assert (partition, other) == (15, 456)


def test_default_chain_matches_full_enumeration():
    for n in (2, 3, 4, 5, 6):
        chain = [lvl.carrier for lvl in reversed(generate_primorial(n).chain)]
        assert chain == default_chain_loop(n)


def test_induced_boolean_matches_popcount_loop(levels6):
    for n, total in ((3, 3), (4, 35), (5, 6435)):
        candidates = list(half_size_candidates(boolean_carrier(n)))
        assert len(candidates) == total
        for carrier in candidates:
            verdict = _induced_boolean(carrier, n - 1)
            assert verdict == induced_boolean_loop(carrier, n - 1)
            if n < 5:
                assert verdict == is_boolean_level_oracle(carrier, n)
    assert len(levels6) == 471
    for lvl in levels6:
        assert _induced_boolean(lvl.carrier, 5) and induced_boolean_loop(lvl.carrier, 5)


def _permute_atoms(carrier, perm):
    """The carrier's image under the atom permutation sending bit i to bit perm[i]."""
    return tuple(sorted(sum(1 << perm[i] for i in range(6) if x >> i & 1) for x in carrier))


def _transposition(i, j):
    perm = list(range(6))
    perm[i], perm[j] = j, i
    return perm


def test_reduce_six_atoms_is_certified_by_orbit_count(levels6):
    # An independent count by orbit type of S_6 acting on the atoms.  The
    # five atoms of a reduction are pairwise-disjoint nonempty masks, so
    # either they split the six atoms into five blocks, or they are five
    # singletons and one atom u is unused.  Each join of an atom set S
    # contains S's union and misses the union of the other atoms.
    full = 63
    # Five blocks cover every atom, so each join is forced: one level per
    # choice of the two-atom block.
    partitions = set()
    for a, b in itertools.combinations(range(6), 2):
        blocks = [1 << a | 1 << b] + [1 << i for i in range(6) if i not in (a, b)]
        carrier = tuple(sorted({sum(x for k, x in enumerate(blocks) if s >> k & 1) for s in range(32)}))
        assert is_boolean_level_oracle(carrier, 6)
        partitions.add(carrier)
    assert len(partitions) == 15
    # Five singletons, u = atom 6 unused: a join of S is S or S ∪ {u} and
    # its complement takes the other, so one bit for each of the 10
    # complementary 2|3 splits of the other atoms fixes a candidate.
    u = 1 << 5
    singles = [1 << i for i in range(5)]
    base = {0, full} | {x for a in singles for x in (a, full ^ a)}
    splits = [singles[i] | singles[j] for i, j in itertools.combinations(range(5), 2)]
    assert len(splits) == 10
    unused_u = set()
    for bits in range(1 << len(splits)):
        carrier = set(base)
        for k, s in enumerate(splits):
            x = s | u if bits >> k & 1 else s
            carrier.update((x, full ^ x))
        carrier = tuple(sorted(carrier))
        if is_boolean_level_oracle(carrier, 6):
            unused_u.add(carrier)
    assert len(unused_u) == 76
    # the orbit of the second type runs over the six choices of unused atom
    expected = set(partitions)
    for v in range(6):
        expected |= {_permute_atoms(c, _transposition(v, 5)) for c in unused_u}
    assert len(expected) == 15 + 6 * 76 == 471
    found = set(_carriers(levels6))
    assert found == expected
    # closed under the adjacent transpositions, which generate S_6
    for i in range(5):
        assert {_permute_atoms(c, _transposition(i, i + 1)) for c in found} == found


def test_reduce_members_verify_and_rejects_fail():
    top = boolean_carrier(4)
    accepted = {lvl.carrier for lvl in reduce_boolean(top)}
    pairs = _complement_pairs(top)
    for chosen in itertools.combinations(pairs, 3):
        carrier = tuple(sorted({0, 15} | {x for pair in chosen for x in pair}))
        verdict = is_boolean_level_oracle(carrier, 4)
        assert verdict == (carrier in accepted)
        if verdict:
            lvl = Level(None, 4, carrier, "boolean")
            rep = classify(lvl.lattice)
            assert rep.is_boolean
            attach_ortho(lvl.lattice, {x: 15 ^ x for x in carrier})


def test_rejected_selection_can_still_be_orthocomplemented():
    # singletons a, b plus a two-two pair that is not their join: the
    # selection stays complemented and involutive but the induced order is
    # not Boolean (it is not even distributive)
    w = 0b0101
    carrier = tuple(sorted({0, 15, 1, 14, 2, 13, w, 15 ^ w}))
    assert not is_boolean_level_oracle(carrier, 4)
    lvl = Level(None, 4, carrier, "difference")
    attach_ortho(lvl.lattice, {x: 15 ^ x for x in carrier})
    rep = classify(lvl.lattice)
    assert not rep.is_distributive and rep.is_complemented


def test_boolean_tests_agree_on_random_carriers():
    # the fast subset-bijection test and the generic induced-order oracle
    # must agree on arbitrary complement-closed carriers, accepted or not
    import random

    rng = random.Random(99)
    checked = 0
    while checked < 400:
        n = rng.choice([3, 4, 5])
        full = (1 << n) - 1
        pairs = [(x, full ^ x) for x in range(1, full) if x < full ^ x]
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        carrier = sorted({0, full} | {x for pair in chosen for x in pair})
        exp = len(carrier).bit_length() - 1
        if len(carrier) != 1 << exp:
            continue
        checked += 1
        assert _induced_boolean(carrier, exp) == is_boolean_level_oracle(carrier, n)


def test_direct_choice_check_matches_brute_force():
    for n, total in ((3, 3), (4, 35), (5, 6435)):
        top = boolean_carrier(n)
        accepted = {lvl.carrier for lvl in reduce_boolean(top)}
        candidates = list(half_size_candidates(top))
        assert len(candidates) == total
        for carrier in candidates:
            assert is_reduction(top, carrier) == (carrier in accepted)
    # below the top: the parent is itself a reduced level of 2^5
    for parent in reduce_boolean(boolean_carrier(5))[::7]:
        accepted = {lvl.carrier for lvl in reduce_boolean(parent)}
        for carrier in half_size_candidates(parent):
            assert is_reduction(parent, carrier) == (carrier in accepted)


def test_direct_choice_check_rejects_malformed_carriers():
    top = boolean_carrier(3)
    assert is_reduction(top, (0, 1, 6, 7))
    assert is_reduction(top, [7, 6, 1, 0])  # order is irrelevant
    assert not is_reduction(top, (0, 1, 1, 7))  # duplicate, not closed
    assert not is_reduction(top, (0, 1, 6, 6, 7))  # duplicate, wrong size
    assert not is_reduction(top, (0, 1, 2, 7))  # Boolean, but not complement-closed
    assert not is_reduction(top, (0, 0, 7, 7))  # duplicates fill the size
    assert not is_reduction(top, (1, 6, 3, 4))  # no bounds
    assert not is_reduction(top, (0, 7))  # wrong size
    parent = Level(None, 3, (0, 1, 6, 7), "boolean")
    assert is_reduction(parent, (0, 7))
    assert not is_reduction(parent, (0, 1, 6, 7))
    l8 = reduce_boolean(boolean_carrier(4))[0]
    outside = next(x for x in range(1, 15) if x not in l8.carrier_set)
    assert not is_reduction(l8, (0, outside, 15 ^ outside, 15))
    with pytest.raises(LatticeError, match="at least 4 elements"):
        is_reduction(Level(None, 3, (0, 7), "boolean"), (0, 7))


def test_choices_reproduce_the_default_family():
    for n in (3, 4, 5, 6):
        default = generate_primorial(n)
        picks = [lvl.carrier for lvl in reversed(default.chain[1:-1])]
        chosen = generate_primorial(n, choices=picks)
        assert {k: v.carrier for k, v in chosen.levels.items()} == {
            k: v.carrier for k, v in default.levels.items()
        }
    # 2^7 stays out of reach, whatever choices come with it
    above = [tuple(range(64))] + picks
    with pytest.raises(LatticeError, match=r"^reduction beyond 2\^6 unsupported$"):
        generate_primorial(7, choices=above)


def test_reduce_needs_flag_above_exact_bound(levels6):
    # one bound, 2^6, on every entry point; no flag moves it
    unsupported = r"^reduction beyond 2\^6 unsupported$"
    check_reduce_bound(6)
    for m in (7, 40, 200):
        with pytest.raises(LatticeError, match=unsupported):
            check_reduce_bound(m)
    with pytest.raises(LatticeError, match=unsupported):
        reduce_boolean(boolean_carrier(7))
    with pytest.raises(LatticeError, match=unsupported):
        is_reduction(boolean_carrier(7), range(64))
    assert is_reduction(boolean_carrier(6), levels6[0].carrier)
    assert not is_reduction(boolean_carrier(6), range(32))


def test_reduce_best_effort_six_atoms(levels6):
    levels = levels6
    assert len(levels) == len({lvl.carrier for lvl in levels})
    for lvl in levels[::20]:
        assert is_boolean_level_oracle(lvl.carrier, 6)
    top = boolean_carrier(6)
    for lvl in levels:
        assert is_reduction(top, lvl.carrier)
    # 15 full five-block partitions of the six atoms, plus six choices of
    # unused atom times the 76 pairwise-intersecting edge families of K5
    assert len(levels) == 471
    with pytest.raises(LatticeError, match="unsupported"):
        reduce_boolean(boolean_carrier(7))


def test_difference_of_powerset_levels_is_benzene():
    pl = generate_primorial(3)
    d3 = pl.levels["D3"]
    lat, _ = benzene()
    assert is_isomorphic(d3.lattice, lat) is not None
    attach_ortho(d3.lattice, {x: d3.complement(x) for x in d3.carrier})


def test_difference_degenerate_cases():
    top2 = boolean_carrier(2)
    assert difference(top2, top2).carrier == (0, 3)
    l21 = Level(None, 2, (0, 3), "boolean")
    assert difference(top2, l21).carrier == (0, 1, 2, 3)


def test_difference_requires_shared_bounds():
    top2 = boolean_carrier(2)
    with pytest.raises(LatticeError, match="different top"):
        difference(top2, boolean_carrier(3))
    stray = Level(None, 2, (1, 3), "difference")
    with pytest.raises(LatticeError, match="sharing"):
        difference(top2, stray)


def test_generate_family_members():
    pl = generate_primorial(4)
    assert pl.member_names() == ("L2^1", "L2^2", "L2^3", "L2^4", "D3", "D4")
    assert pl.levels["D2"].carrier == pl.level("L2^2").carrier
    pl5 = generate_primorial(5)
    assert len(pl5.member_names()) == 8


def test_generate_is_deterministic():
    a = generate_primorial(4)
    b = generate_primorial(4)
    assert [a.level(n).carrier for n in a.levels] == [
        b.level(n).carrier for n in b.levels
    ]


@pytest.mark.parametrize("source", ["acgt-atcg", "acgt-plus-x", 2, 3, 4, 5, 6])
def test_levels_are_the_one_ordered_table_of_a_family(source):
    if isinstance(source, str):
        preset = gsp_preset(source)
        pl, alphabet = preset.primorial, preset.alphabet
    else:
        pl, alphabet = generate_primorial(source), SymbolAlphabet(tuple("ABCDEF"[:source]))
    n = pl.top_n
    names = [f"L2^{m}" for m in range(1, n + 1)] + [f"D{m}" for m in range(2, n + 1)]
    assert list(pl.levels) == names
    for method in METHODS:
        assert list(analyze(pl, alphabet, alphabet.symbols, method).levels) == names
    assert pl.member_names() == pl.family.labels == tuple(name for name in names if name != "D2")
    for name in names:
        assert pl.level(name) is pl.levels[name]
        assert pl.levels[name].name == name
    for name in ("D1", "L2^0", f"D{n + 1}", f"L2^{n + 1}", "d2", ""):
        with pytest.raises(LatticeError) as err:
            pl.level(name)
        assert str(err.value) == f"unknown family member {name!r}"


def test_generate_respects_choices_and_rejects_bad_ones():
    level8 = (0, 1, 8, 9, 6, 7, 14, 15)
    level4 = (0, 6, 9, 15)
    pl = generate_primorial(4, choices=[level8, level4])
    assert pl.level("L2^2").carrier == tuple(sorted(level4))
    with pytest.raises(LatticeError, match="invalid reduction choice"):
        generate_primorial(4, choices=[(0, 1, 2, 3, 4, 5, 6, 15), level4])
    with pytest.raises(LatticeError, match="not enough"):
        generate_primorial(4, choices=[level8])


def test_family_contains_pentagon_for_four_atoms():
    pl = generate_primorial(4)
    rep = classify(pl.family)
    assert not rep.is_modular
    witness = set(rep.n5_witness)
    assert {"L2^1", "L2^4"} <= witness


def test_family_flags_for_four_and_five_atoms():
    for n in (4, 5):
        fam = generate_primorial(n).family
        rep = classify(fam)
        assert not rep.is_modular
        assert not rep.is_distributive
        assert rep.complementation_class == "multiply"
        assert not rep.is_boolean
        assert find_orthocomplement(fam) is None


def test_degenerate_families_are_distributive():
    for n in (2, 3):
        rep = classify(generate_primorial(n).family)
        assert rep.is_distributive


def test_is_primorial_on_generated_families():
    for n in (2, 3, 4, 5):
        roles = is_primorial(generate_primorial(n).family)
        assert roles is not None
        assert roles.bottom == "L2^1"
        assert roles.y_chain[-1] == f"L2^{n}"
        if n == 2:
            assert roles.x_atoms == ()  # degenerate two-member chain


def test_is_primorial_rejects_diamond_and_chain():
    assert is_primorial(diamond()) is None
    three = FiniteLattice.from_covers(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert is_primorial(three) is None


def test_is_primorial_divisibility_example():
    labs = [1, 2, 3, 5, 7, 6, 30, 210]
    P = FiniteLattice.from_leq(labs, [(a, b) for a in labs for b in labs if b % a == 0])
    roles = is_primorial(P)
    assert roles is not None
    assert roles.bottom == 1
    assert roles.y_chain[-1] == 210


def test_dposet_chain_and_powerset():
    for n in (2, 3, 4, 5):
        members, diff, leq = chain_dposet_members(generate_primorial(n))
        assert dposet_check(members, diff, leq).ok
    univ = frozenset({1, 2, 3})
    ps = [frozenset(s) for r in range(4) for s in itertools.combinations(sorted(univ), r)]
    assert dposet_check(ps, lambda y, x: y - x, lambda a, b: a <= b).ok


def test_dposet_detects_broken_difference():
    members, _, leq = chain_dposet_members(generate_primorial(4))
    report = dposet_check(members, lambda y, x: y, leq)
    assert not report.ok
    assert "axiom-2" in report.failures


def test_every_difference_level_is_orthocomplemented(family5):
    for lvl in (family5.levels[f"D{m}"] for m in range(2, 6)):
        attach_ortho(lvl.lattice, {x: lvl.complement(x) for x in lvl.carrier})
