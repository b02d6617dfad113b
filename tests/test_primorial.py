import itertools
import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primlat import primorial
from primlat.cli import main
from primlat.core import LatticeError, classify, enumerate_lattices
from primlat.ortho import attach_ortho
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
    monotone_self_dual,
    reduce_boolean,
)
from primlat.projection import METHODS
from primlat.seqproc import PRESETS, SymbolAlphabet, analyze, encode, gsp_preset
from primlat.textio import format_carrier, parse_choices

from conftest import benzene, diamond
from helpers import (
    _complement_pairs,
    default_chain_loop,
    family_of,
    find_orthocomplement,
    half_size_candidates,
    induced_boolean_loop,
    is_boolean_level_oracle,
    is_isomorphic,
    is_monotone_self_dual,
    is_primorial_loop,
    lattice_from_covers,
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
    broken = Level(3, (0, 1, 2, 3))
    refused = "^reduction needs a level holding 0 and the top, closed under complement$"
    for call in (reduce_boolean, lambda lvl: is_reduction(lvl, (0, 7))):
        with pytest.raises(LatticeError, match=refused):
            call(broken)
    (only,) = reduce_boolean(Level(3, (0, 1, 6, 7)))
    assert only.carrier == (0, 7)
    # bounds and complement pairs, but two chains 1 < 3 < 7 and 8 < 12 < 14
    # with two atoms: not Boolean under inclusion
    chains = Level(4, (0, 1, 3, 7, 8, 12, 14, 15))
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


def test_default_chain_matches_full_enumeration():
    for n in (2, 3, 4, 5, 6):
        chain = [lvl.carrier for lvl in reversed(generate_primorial(n).chain)]
        assert chain == default_chain_loop(n)


@pytest.mark.parametrize("source", [2, 3, 4, 5, 6, "acgt-atcg", "acgt-plus-x", "choices"])
def test_a_family_build_enumerates_only_its_last_step(source, monkeypatch, tmp_path, capsys):
    # every step down to L2^2 is checked with is_reduction; the one
    # reduce_boolean call, 2^2 -> 2^1, is also the call that fires the
    # primorial.reduce span the genome benchmark workload requires
    calls = []

    def counted(level):
        calls.append(level.carrier)
        return reduce_boolean(level)

    monkeypatch.setattr(primorial, "reduce_boolean", counted)
    if source == "choices":
        path = tmp_path / "choices.txt"
        path.write_text("{} {1} {4} {1,4} {2,3} {1,2,3} {2,3,4} {1,2,3,4}\n{} {2,3} {1,4} {1,2,3,4}\n")
        assert main(["primorial", "--n", "4", "--choices", str(path)]) == 0
        capsys.readouterr()
        last = (0, 6, 9, 15)
    elif isinstance(source, str):
        last = gsp_preset(source).primorial.level("L2^2").carrier
    else:
        last = generate_primorial(source).level("L2^2").carrier
    assert len(last) == 4
    assert calls == [last]


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


def _random_carrier(rng, n):
    """A sorted carrier holding 0 inside the masks of n bits: either random
    masks, or the unions of random disjoint blocks (a Boolean order whose top
    need not be the full mask), some of them widened by unused bits."""
    if rng.random() < 0.5:
        return tuple(sorted({0, *rng.sample(range(1, 1 << n), rng.randint(1, (1 << n) - 1))}))
    owner = [rng.randrange(n + 1) for _ in range(n)]  # block of each bit; some bits stay unused
    blocks = [b for b in (sum(1 << i for i in range(n) if owner[i] == k) for k in range(n)) if b]
    unused = (1 << n) - 1 ^ sum(blocks)
    carrier = {0}
    for s in range(1, 1 << len(blocks)):
        x = sum(b for k, b in enumerate(blocks) if s >> k & 1)
        if s & (s - 1) and rng.random() < 0.3:
            x |= rng.randrange(1 << n) & unused
        carrier.add(x)
    return tuple(sorted(carrier))


def test_induced_boolean_matches_popcount_loop_on_any_carrier():
    # the bitset check reads its domain width from the largest mask, so it
    # is held to the loop on carriers whose largest mask is not the full
    # mask and that are not closed under complement
    rng = random.Random(22)
    verdicts = {True: 0, False: 0}
    for n in range(2, 7):
        for _ in range(300):
            carrier = _random_carrier(rng, n)
            for exp in range(n + 1):
                verdict = _induced_boolean(carrier, exp)
                assert verdict == induced_boolean_loop(carrier, exp), (carrier, exp)
                verdicts[verdict] += 1
    assert verdicts[True] > 500 and verdicts[False] > 5000


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
            lvl = Level(4, carrier)
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
    lvl = Level(4, carrier)
    attach_ortho(lvl.lattice, {x: 15 ^ x for x in carrier})
    rep = classify(lvl.lattice)
    assert not rep.is_distributive and rep.is_complemented


def test_boolean_tests_agree_on_random_carriers():
    # the fast subset-bijection test and the generic induced-order oracle
    # must agree on arbitrary complement-closed carriers, accepted or not
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
    parent = Level(3, (0, 1, 6, 7))
    assert is_reduction(parent, (0, 7))
    assert not is_reduction(parent, (0, 1, 6, 7))
    l8 = reduce_boolean(boolean_carrier(4))[0]
    outside = next(x for x in range(1, 15) if x not in l8.carrier_set)
    assert not is_reduction(l8, (0, outside, 15 ^ outside, 15))
    with pytest.raises(LatticeError, match="at least 4 elements"):
        is_reduction(Level(3, (0, 7)), (0, 7))


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
    l21 = Level(2, (0, 3))
    assert difference(top2, l21).carrier == (0, 1, 2, 3)


def test_difference_requires_shared_bounds():
    top2 = boolean_carrier(2)
    with pytest.raises(LatticeError, match="different top"):
        difference(top2, boolean_carrier(3))
    stray = Level(2, (1, 3))
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
        assert list(analyze(pl, alphabet, encode(alphabet, alphabet.symbols), method).levels) == names
    assert pl.member_names() == pl.family.labels == tuple(name for name in names if name != "D2")
    for name in names:
        assert pl.level(name) is pl.levels[name]
    for name in ("D1", "L2^0", f"D{n + 1}", f"L2^{n + 1}", "d2", ""):
        with pytest.raises(LatticeError) as err:
            pl.level(name)
        assert str(err.value) == f"unknown family member {name!r}"


@pytest.mark.parametrize("source", ["acgt-atcg", "acgt-plus-x", 2, 3, 4, 5, 6])
def test_difference_levels_are_the_dposet_operator_output(source):
    # the operator dposet checks is the one that built each D level
    pl = family_of(source)
    members, diff, _ = chain_dposet_members(pl)
    assert members == [lvl.carrier_set for lvl in pl.chain]
    for m in range(2, pl.top_n + 1):
        assert pl.levels[f"D{m}"].carrier_set == diff(members[m - 1], members[m - 2])


@pytest.mark.parametrize("source", ["acgt-atcg", "acgt-plus-x", 2, 3, 4, 5, 6])
def test_d2_is_l2_2(source):
    pl = family_of(source)
    assert pl.levels["D2"] is pl.levels["L2^2"]
    full = pl.chain[-1].full
    (only,) = reduce_boolean(pl.level("D2"))
    assert only.carrier == (0, full) == pl.level("L2^1").carrier


def _reduction_chains(n):
    """Every reduction chain below 2^n, L2^(n-1) down to L2^2, as the lines
    of a ``--choices`` text."""
    chains = [[boolean_carrier(n)]]
    for _ in range(n - 2):
        chains = [chain + [lvl] for chain in chains for lvl in reduce_boolean(chain[-1])]
    return [[format_carrier(lvl.carrier) for lvl in chain[1:]] for chain in chains]


_CHOICE_TOKENS = st.sampled_from(["{}", "{1}", "{2,3}", "{1,2,3,4}", "{5}", "{0}", "{", "#", "x", "{1,,2}"])


def _choices_texts(n):
    """Arbitrary text, or a real chain with up to two lines inserted,
    replaced or deleted; a new line is a comment, a blank, stray tokens or
    a line of some chain."""
    chains = _reduction_chains(n)
    stray = st.one_of(
        st.sampled_from(["", "# a comment"] + [line for chain in chains for line in chain]),
        st.lists(_CHOICE_TOKENS, max_size=6).map(" ".join),
    )
    edit = st.tuples(st.integers(0, n), st.integers(0, 1), st.lists(stray, max_size=1))

    def edited(case):
        lines, edits = list(case[0]), case[1]
        for pos, cut, new in edits:
            lines[pos:pos + cut] = new
        return "\n".join(lines)

    return st.one_of(st.text(), st.tuples(st.sampled_from(chains), st.lists(edit, max_size=2)).map(edited))


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), _choices_texts(n))))
def test_choices_text_raises_only_lattice_errors(case):
    n, text = case
    try:
        choices = parse_choices(text, n)
        pl = generate_primorial(n, choices=choices)
    except LatticeError:
        return
    assert [lvl.carrier for lvl in reversed(pl.chain[1:-1])] == [tuple(sorted(c)) for c in choices]


def test_generate_respects_choices_and_rejects_bad_ones():
    level8 = (0, 1, 8, 9, 6, 7, 14, 15)
    level4 = (0, 6, 9, 15)
    pl = generate_primorial(4, choices=[level8, level4])
    assert pl.level("L2^2").carrier == tuple(sorted(level4))
    with pytest.raises(LatticeError, match="invalid reduction choice"):
        generate_primorial(4, choices=[(0, 1, 2, 3, 4, 5, 6, 15), level4])
    with pytest.raises(LatticeError, match="not enough"):
        generate_primorial(4, choices=[level8])
    with pytest.raises(LatticeError, match="^too many reduction choices supplied$"):
        generate_primorial(4, choices=[level8, level4, (0, 15)])
    # a short list is checked step by step: its bad first step is reported
    with pytest.raises(LatticeError, match="^invalid reduction choice for L2\\^3: "):
        generate_primorial(4, choices=[(0, 1, 2, 3, 4, 5, 6, 15)])


@pytest.mark.parametrize("n, choices, shown", [
    (4, [(0, 1, 2, 3, 4, 5, 6, 15), (0, 6, 9, 15)], "L2^3: {} {1} {2} {1,2} {3} {1,3} {2,3} {1,2,3,4}"),
    (4, [(0, 1, 8, 9, 6, 7, 14, 15), (0, 6, 8, 15)], "L2^2: {} {2,3} {4} {1,2,3,4}"),
    # masks outside the top carrier have no subset literal and keep their numbers
    (3, [(7, 6, -1, 0)], "L2^2: (-1, 0, 6, 7)"),
    (3, [(0, 1, 6, 99)], "L2^2: (0, 1, 6, 99)"),
])
def test_an_invalid_choice_names_its_level_and_carrier(n, choices, shown):
    with pytest.raises(LatticeError) as err:
        generate_primorial(n, choices=choices)
    assert str(err.value) == f"invalid reduction choice for {shown}"


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
    three = lattice_from_covers(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert is_primorial(three) is None


def test_is_primorial_divisibility_example():
    labs = [1, 2, 3, 5, 7, 6, 30, 210]
    P = lattice_from_covers(labs, [(a, b) for a in labs for b in labs if b % a == 0])
    roles = is_primorial(P)
    assert roles is not None
    assert roles.bottom == 1
    assert roles.y_chain[-1] == 210


def _atoms_under_a_chain(n):
    """A bottom, k = n / 2 atoms and a chain of k - 1 elements above all of
    them: primorial only for k = 2, and every order of the atoms fails at
    its second join."""
    k = n // 2
    atoms, ups = [f"a{i}" for i in range(k)], [f"c{i}" for i in range(k - 1)]
    covers = [("0", a) for a in atoms] + [(a, ups[0]) for a in atoms] + list(zip(ups, ups[1:]))
    return lattice_from_covers(["0", *atoms, *ups], covers)


def _relabelled(lat, rng):
    """The same order with its elements in a shuffled index order."""
    labels = list(lat.labels)
    rng.shuffle(labels)
    return lattice_from_covers(labels, lat.covers)


def _candidates():
    yield from (generate_primorial(n).family for n in range(2, 7))
    yield from (gsp_preset(name).primorial.family for name in sorted(PRESETS))
    yield from (_atoms_under_a_chain(n) for n in (4, 6, 14, 16))
    rng = random.Random(29)
    for n in range(10):
        for lat in enumerate_lattices(n):
            yield lat
            if n:
                yield from (_relabelled(lat, rng) for _ in range(3))


def test_is_primorial_reads_the_roles_the_atom_order_search_finds():
    found = 0
    for lat in _candidates():
        roles = is_primorial(lat)
        assert roles == is_primorial_loop(lat), lat
        found += roles is not None
    # the 2-, 4-, 6- and 8-element shapes in four index orders each, five
    # families, two presets and the square, _atoms_under_a_chain(4)
    assert found == 4 * 4 + 5 + 2 + 1


def test_is_primorial_is_one_pass_on_the_adversarial_family():
    lat = _atoms_under_a_chain(40)
    start = time.perf_counter()
    assert is_primorial(lat) is None
    assert time.perf_counter() - start < 0.1


def test_dposet_chain_and_powerset():
    for n in (2, 3, 4, 5):
        members, diff, leq = chain_dposet_members(generate_primorial(n))
        assert dposet_check(members, diff, leq) == {}
    univ = frozenset({1, 2, 3})
    ps = [frozenset(s) for r in range(4) for s in itertools.combinations(sorted(univ), r)]
    assert dposet_check(ps, lambda y, x: y - x, lambda a, b: a <= b) == {}


def test_dposet_detects_broken_difference():
    members, _, leq = chain_dposet_members(generate_primorial(4))
    failures = dposet_check(members, lambda y, x: y, leq)
    assert "axiom-2" in failures


def test_every_difference_level_is_orthocomplemented(family5):
    for lvl in (family5.levels[f"D{m}"] for m in range(2, 6)):
        attach_ortho(lvl.lattice, {x: lvl.complement(x) for x in lvl.carrier})
