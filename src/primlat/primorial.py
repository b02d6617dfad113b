"""Boolean-lattice reduction, bounded-lattice difference, and the family
lattice the two generate.

Every level lives inside one top Boolean carrier: elements are subsets of
{1..N} encoded as machine-word bitmasks, the order is always mask inclusion
restricted to the level's carrier, and complement pairs are always top-level
set complements (reduction preserves this at every depth, since a Boolean
level's unique complementation must consist of parent pairs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .core import FiniteLattice, LatticeError
from .ortho import attach_ortho

REDUCE_BOUND = 6  # largest atom count reduced: 2^6 takes ~0.07 s, 2^7 ~9 s (Python 3.11, 2 vCPU)


def _inclusion_rows(masks):
    """Order rows of mask inclusion: bit j of row i says masks[i] ⊆ masks[j]."""
    return [sum(1 << j for j, y in enumerate(masks) if x & ~y == 0) for x in masks]


class Level:
    """One member lattice of a family, embedded in a top Boolean carrier.

    Its induced tables, ``lattice``, are built on first read.
    """

    def __init__(self, name, top_n, carrier, kind):
        self.name = name
        self.top_n = top_n
        self.full = (1 << top_n) - 1
        self.carrier = tuple(sorted(carrier))
        self.carrier_set = frozenset(self.carrier)
        self.kind = kind  # "boolean" | "difference"

    @property
    def is_boolean(self):
        return self.kind == "boolean"

    @cached_property
    def lattice(self) -> FiniteLattice:
        return FiniteLattice(self.carrier, _inclusion_rows(self.carrier))

    def complement(self, mask):
        return self.full ^ mask

    def __repr__(self):
        return f"Level({self.name!r}, n={self.top_n}, size={len(self.carrier)})"

    def __eq__(self, other):
        return (
            isinstance(other, Level)
            and self.top_n == other.top_n
            and self.carrier == other.carrier
        )

    def __hash__(self):
        return hash((self.top_n, self.carrier))


def boolean_carrier(n: int) -> Level:
    """The full 2^n-element Boolean level on atoms {1..n}."""
    if n < 0:
        raise LatticeError("atom count must be non-negative")
    return Level(f"L2^{n}", n, range(1 << n), "boolean")


# ---------------------------------------------------------------------------
# reduction


def _atoms_of_carrier(carrier):
    """Minimal nonzero masks; carrier must be ascending and start with 0."""
    nonzero = carrier[1:]
    atoms = []
    for i, x in enumerate(nonzero):
        minimal = True
        for y in nonzero[:i]:  # subsets are numerically smaller
            if y & x == y:
                minimal = False
                break
        if minimal:
            atoms.append(x)
    return atoms


def _induced_boolean(carrier, size_exp):
    """Whether the carrier's induced inclusion order is Boolean of 2^size_exp.

    Implements the subset-of-atoms bijection test: the level must have
    exactly size_exp atoms, every atom set must have a least carrier
    superset, atoms must lie below a join exactly when selected, and the
    join map must be injective.  These conditions are equivalent to the
    induced order being a Boolean lattice of the right size.  The order is
    inclusion, so the carrier supersets of a union have a least element
    exactly when their intersection (the AND of their masks, all bits set
    if there are none) is itself in the carrier, and then it is that
    intersection.
    """
    atoms = _atoms_of_carrier(carrier)
    if len(atoms) != size_exp:
        return False
    members = frozenset(carrier)
    seen = set()
    unions = [0] * (1 << size_exp)
    for s in range(1 << size_exp):
        u = 0
        if s:
            low = s & -s
            u = unions[s ^ low] | atoms[low.bit_length() - 1]
        unions[s] = u
        best = -1
        for c in carrier:
            if u & ~c == 0:
                best &= c
        if best not in members:
            return False  # no upper bound, or the upper bounds have no least element
        for k, a in enumerate(atoms):
            if (a & ~best == 0) != bool(s >> k & 1):
                return False
        if best in seen:
            return False
        seen.add(best)
    return True


def _check_reducible(level: Level):
    size = len(level.carrier)
    m = size.bit_length() - 1
    if size != 1 << m or not level.is_boolean or m < 2:
        raise LatticeError("reduction needs a Boolean level with at least 4 elements")
    cs = level.carrier_set
    if 0 not in cs or level.full not in cs or any(level.complement(x) not in cs for x in cs):
        raise LatticeError("reduction needs a level holding 0 and the top, closed under complement")
    return m


def check_reduce_bound(m: int):
    """Raise unless a 2^m Boolean level may be reduced.

    Callers run it on the atom count before building a 2^m carrier, so an
    oversized request fails before anything of that size is allocated.
    """
    if m > REDUCE_BOUND:
        raise LatticeError(f"reduction beyond 2^{REDUCE_BOUND} unsupported")


def monotone_self_dual(k: int):
    """Truth tables of the monotone self-dual Boolean functions of k >= 1
    variables: bit s of a yielded int is f(s), for s a k-bit variable set.

    Self-dual means f(~s) = 1 - f(s), so f(0) = 0, f(~0) = 1, and the search
    assigns one representative s of each complementary pair {s, ~s} (the
    smaller half, the one holding variable 0 at half size), smallest sets
    first, trying both values and giving ~s the other.  A value is kept only
    if it leaves the assignment monotone: f(s) = 1 needs no superset of s
    already at 0, and f(s) = 0 no subset of s already at 1.  The partial
    assignment is self-dual throughout, so that one test also covers ~s.
    There are 1, 2, 4, 12 and 81 such functions for k = 1..5 (OEIS A001206).
    """
    full = (1 << k) - 1
    reps = [s for s in range(1, full) if s.bit_count() * 2 < k or (s.bit_count() * 2 == k and s & 1)]
    reps.sort(key=int.bit_count)
    up = {s: sum(1 << t for t in range(1 << k) if s & ~t == 0) for s in reps}
    down = {s: sum(1 << t for t in range(1 << k) if t & ~s == 0) for s in reps}

    def rec(idx, ones, zeros):
        if idx == len(reps):
            yield ones
            return
        s = reps[idx]
        bit, mirror = 1 << s, 1 << (full ^ s)
        if zeros & up[s] == 0:
            yield from rec(idx + 1, ones | bit, zeros | mirror)
        if ones & down[s] == 0:
            yield from rec(idx + 1, ones | mirror, zeros | bit)

    yield from rec(0, 1 << full, 1)


def reduce_boolean(level: Level):
    """All half-size Boolean sub-levels preserving bounds and complement pairs.

    A sub-level of a 2^m level is accepted iff it is 2^(m-1) distinct
    parent masks holding 0 and the top, closed under complement, whose
    induced inclusion order is Boolean (``is_reduction`` tests exactly this
    on one carrier).  Through its m atoms the level is the cube of atom
    index sets: phi sends T to the element above exactly the atoms in T,
    inclusion matches inclusion, and set complement matches ~T (x and its
    complement have only 0 below both and only the top above both).  So an
    accepted level B is a complement-closed Boolean family of index sets,
    and it is exactly one atom r plus a monotone self-dual function f on
    the other m-1 atoms:

    - B's complement is the set complement (unique complements), so B's
      m-1 atoms are pairwise-disjoint nonempty index sets; they cover all
      but one index or hold one pair, so some index r leaves each of them
      a singleton, and the singletons are the other m-1 indices.
    - Every element of B is the join j(S) of the set S of B's atoms below
      it; it contains their union and, as the complement of j(~S), misses
      the union of the others.  So j(S) is S, plus r exactly when f(S) = 1.
    - f is monotone because j is, and self-dual because j(~S) is the
      complement of j(S).
    - Conversely, for each r and f the sets S + (r if f(S)) are 2^(m-1)
      distinct index sets ordered as the cube of S, holding the empty set
      and every index, and closed under complement: a reduction.

    Each (r, f) is mapped through phi; a merge of two atoms into one arises
    from both of them (f a projection), so duplicates are dropped, which
    leaves m * A(m-1) - C(m, 2) levels, A the count of ``monotone_self_dual``.
    Every carrier is still checked by the induced-order test.  Levels come
    back sorted by carrier.
    """
    m = _check_reducible(level)
    check_reduce_bound(m)
    k = m - 1
    atoms = _atoms_of_carrier(level.carrier)
    phi = {sum(1 << i for i, a in enumerate(atoms) if a & ~x == 0): x for x in level.carrier}
    if len(atoms) != m or len(phi) != len(level.carrier):
        raise LatticeError(f"{level!r} is not Boolean under inclusion")
    functions = list(monotone_self_dual(k))
    carriers = set()
    for r in range(m):
        rbit = 1 << r
        # variable set s -> index set without r: bits from r on move up one
        spread = [(s & rbit - 1) | (s >> r << r + 1) for s in range(1 << k)]
        for f in functions:
            carriers.add(tuple(sorted(phi[t | rbit if f >> s & 1 else t] for s, t in enumerate(spread))))
    accepted = sorted(c for c in carriers if _induced_boolean(c, k))
    return tuple(Level(None, level.top_n, c, "boolean") for c in accepted)


def is_reduction(level: Level, carrier) -> bool:
    """Whether ``carrier`` is one of the levels ``reduce_boolean(level)`` returns.

    Applies the acceptance condition of ``reduce_boolean`` to the one
    candidate: distinct masks drawn from the parent carrier, holding 0 and
    the top, closed under complement, 2^(m-1) of them, with a Boolean
    induced order.  The reduction bound applies as in ``reduce_boolean``.
    """
    m = _check_reducible(level)
    check_reduce_bound(m)
    cand = tuple(sorted(carrier))
    cset = frozenset(cand)
    return (
        len(cset) == len(cand) == 1 << (m - 1)
        and cset <= level.carrier_set
        and 0 in cset
        and level.full in cset
        and all(level.complement(x) in cset for x in cand)
        and _induced_boolean(cand, m - 1)
    )


def least_reduction(level: Level) -> Level:
    """``reduce_boolean(level)[0]`` without enumerating the other reductions.

    Defined for Boolean levels whose atoms a_1 < ... < a_m (ascending masks)
    partition the top, as every level of the default chain does: the top's
    atoms are the singletons, and the result's atoms again partition it.
    The result merges the two highest atoms into one, a_(m-1) | a_m; its
    carrier is the set of unions of the new atoms, and it is verified with
    ``is_reduction`` before it is returned.

    Why it is the lexicographically least carrier: the atoms are disjoint
    and cover the top, so the level's elements are exactly the unions
    U(s) = OR of a_(i+1) over the bits i of s, for s < 2^m, and set
    complement maps U(s) to U(~s).  Of two disjoint masks the one with the
    higher top bit is larger, so U(s) < U(t) iff s < t, and the elements
    below 2^(m-1) in index, those without a_m, are smaller than every
    element with a_m.  A reduction is complement-closed with 2^(m-1)
    elements, so it holds exactly one of U(s), U(~s) for each s, hence
    exactly 2^(m-2) elements without a_m: these are the first half of its
    sorted carrier, and their complements are the second half.  The least
    possible first half is U(0) .. U(2^(m-2) - 1), the unions of
    a_1 .. a_(m-2), which is this carrier's first half, and it fixes the
    second half.  Every other reduction has a larger first half, so this
    one comes first in ``reduce_boolean``'s order.

    Raises ``LatticeError`` when the atoms do not partition the top: there
    the unions of merged atoms need not even lie in the level.
    """
    _check_reducible(level)
    atoms = _atoms_of_carrier(level.carrier)
    cover = 0
    for a in atoms:
        cover |= a
    if cover != level.full:
        raise LatticeError("least reduction needs a level whose atoms partition the top")
    merged = atoms[:-2] + [atoms[-2] | atoms[-1]]
    carrier = [0]
    for a in merged:
        carrier += [x | a for x in carrier]
    if not is_reduction(level, carrier):
        raise LatticeError(f"merged atoms give no reduction of {level!r}")
    return Level(None, level.top_n, carrier, "boolean")


# ---------------------------------------------------------------------------
# bounded lattice difference


def difference(lx: Level, ly: Level) -> Level:
    """Carrier set difference with the shared bounds restored.

    When both inputs are Boolean chain levels with ly inside lx, the result
    is verified to be orthocomplemented under the inherited complement
    pairs.
    """
    if lx.top_n != ly.top_n:
        raise LatticeError("levels live in different top carriers")
    for lvl in (lx, ly):
        if 0 not in lvl.carrier_set or lvl.full not in lvl.carrier_set:
            raise LatticeError("difference requires carriers sharing 0 and 1")
    carrier = (lx.carrier_set - ly.carrier_set) | {0, lx.full}
    out = Level(None, lx.top_n, carrier, "difference")
    if lx.is_boolean and ly.is_boolean and ly.carrier_set <= lx.carrier_set:
        lat = out.lattice
        attach_ortho(lat, {x: out.complement(x) for x in out.carrier})
    return out


# ---------------------------------------------------------------------------
# family assembly


@dataclass(frozen=True)
class PrimorialLattice:
    """Chain of Boolean levels plus their difference levels, ordered by
    carrier inclusion."""

    top_n: int
    chain: tuple  # Level, ascending L2^1 .. L2^N
    levels: dict  # name -> Level: L2^1 .. L2^N, then D2 .. DN
    family: FiniteLattice  # labels are the level names but D2, which has L2^2's carrier

    def level(self, name) -> Level:
        try:
            return self.levels[name]
        except KeyError:
            raise LatticeError(f"unknown family member {name!r}") from None

    def member_names(self):
        return self.family.labels


def _family_lattice(levels):
    """The inclusion order of the named levels' carriers."""
    sets = [lvl.carrier_set for lvl in levels.values()]
    rows = [sum(1 << j for j, t in enumerate(sets) if s <= t) for s in sets]
    return FiniteLattice(tuple(levels), rows)


def generate_primorial(n: int, choices=None) -> PrimorialLattice:
    """Build the family generated by the 2^n Boolean carrier.

    ``choices`` optionally fixes the reduction taken at each step, as a
    sequence of carriers (mask collections) for the levels below the top:
    first the 2^(n-1) level, then 2^(n-2), and so on down to 2^2.  Each
    supplied carrier is verified directly with ``is_reduction``, the
    acceptance condition of ``reduce_boolean``, so no step with a choice
    enumerates the other reductions.  Without choices, each step down to
    2^2 takes ``least_reduction``, the lexicographically least carrier of
    ``reduce_boolean`` built directly from the level's atoms, and the last
    step to 2^1 takes the only carrier ``reduce_boolean`` returns there.
    The reduction bound is checked on ``n`` before the top carrier is
    built.
    Both family invariants are asserted: every difference level is
    orthocomplemented under inherited pairs, and the family order has the
    generated-chain shape.
    """
    if n < 2:
        raise LatticeError("generation needs at least 2 atoms")
    check_reduce_bound(n)
    chain = [boolean_carrier(n)]
    wanted = list(choices) if choices is not None else None
    step = 0
    for m in range(n, 1, -1):
        if m > 2 and wanted is not None:
            if step >= len(wanted):
                raise LatticeError("not enough reduction choices supplied")
            pick = tuple(sorted(wanted[step]))
            step += 1
            if not is_reduction(chain[-1], pick):
                raise LatticeError(f"invalid reduction choice {pick!r}")
            nxt = Level(f"L2^{m - 1}", n, pick, "boolean")
        else:  # 2^2 -> 2^1 has one reduction, which reduce_boolean answers at once
            nxt = least_reduction(chain[-1]) if m > 2 else reduce_boolean(chain[-1])[0]
            nxt.name = f"L2^{m - 1}"
        chain.append(nxt)
    if wanted is not None and step != len(wanted):
        raise LatticeError("too many reduction choices supplied")
    chain.reverse()  # ascending L2^1 .. L2^n

    levels = {lvl.name: lvl for lvl in chain}
    for m in range(2, n + 1):
        d = difference(chain[m - 1], chain[m - 2])
        d.name = f"D{m}"
        levels[d.name] = d
    assert levels["D2"].carrier == levels["L2^2"].carrier  # so the family order leaves D2 out
    family = _family_lattice({name: lvl for name, lvl in levels.items() if name != "D2"})

    pl = PrimorialLattice(n, tuple(chain), levels, family)
    _assert_family_shape(pl)
    return pl


def _assert_family_shape(pl: PrimorialLattice):
    fam = pl.family
    assert fam.bottom == "L2^1"
    atoms = set(fam.labels[i] for i in fam.atoms_i)
    expected = {"L2^2"} | {f"D{m}" for m in range(3, pl.top_n + 1)}
    if pl.top_n == 2:
        expected = {"L2^2"}
    assert atoms == expected, f"family atoms {atoms} != {expected}"
    for m in range(2, pl.top_n):
        assert fam.join(f"L2^{m}", f"D{m + 1}") == f"L2^{m + 1}"
    roles = is_primorial(fam)
    assert roles is not None, "generated family must have the chain shape"


# ---------------------------------------------------------------------------
# recognition


@dataclass(frozen=True)
class PrimorialRoles:
    bottom: object
    y_chain: tuple  # y0 <= y1 <= ... (strictly increasing joins)
    x_atoms: tuple  # x0, x1, ... joined in order


def is_primorial(lat: FiniteLattice):
    """Role assignment making the lattice a generated chain, or None.

    Roles must be pairwise distinct: bottom, the atom y0, the remaining
    atoms x0..xK in some order, and the join chain y_{i+1} = y_i ∨ x_i,
    together covering the carrier exactly.
    """
    if lat.n == 0:
        return None
    atoms = list(lat.atoms_i)
    if not atoms:
        return None
    if len(atoms) == 1:
        if lat.n == 2:
            return PrimorialRoles(lat.bottom, (lat.labels[atoms[0]],), ())
        return None
    if lat.n != 2 * len(atoms):
        return None
    for y0 in atoms:
        rest = [a for a in atoms if a != y0]
        for xs in itertools.permutations(rest):
            seen = {lat.bottom_i, y0, *xs}
            chain = [y0]
            ok = True
            for x in xs:
                nxt = lat.join_i(chain[-1], x)
                if nxt in seen:
                    ok = False
                    break
                seen.add(nxt)
                chain.append(nxt)
            if ok and len(seen) == lat.n:
                return PrimorialRoles(
                    lat.bottom,
                    tuple(lat.labels[i] for i in chain),
                    tuple(lat.labels[i] for i in xs),
                )
    return None


# ---------------------------------------------------------------------------
# D-poset verification


DPOSET_LAWS = (  # the laws dposet_check records, in report order
    "axiom-1", "axiom-2", "axiom-3", "axiom-4", "derived-1", "derived-2", "derived-3", "derived-4",
)


@dataclass(frozen=True)
class DPosetReport:
    ok: bool
    failures: dict  # law name -> first witness tuple

    def __bool__(self):
        return self.ok


def dposet_check(members, diff, leq) -> DPosetReport:
    """Verify the difference axioms and their derived laws on a family.

    ``diff(y, x)`` must be defined whenever ``leq(x, y)``; the report names
    the first witness per failing law.
    """
    ms = list(members)
    failures = {}

    def record(law, witness):
        failures.setdefault(law, witness)

    for x in ms:
        for y in ms:
            if not leq(x, y):
                continue
            d = diff(y, x)
            if not leq(d, y):
                record("axiom-1", (x, y))
            if not leq(d, y) or diff(y, d) != x:
                record("axiom-2", (x, y))
    for x in ms:
        for y in ms:
            if not leq(x, y):
                continue
            for z in ms:
                if not leq(y, z):
                    continue
                zy, zx, yx = diff(z, y), diff(z, x), diff(y, x)
                if not leq(zy, zx):
                    record("axiom-3", (x, y, z))
                    continue
                if diff(zx, zy) != yx:
                    record("axiom-4", (x, y, z))
                if not leq(yx, zx):
                    record("derived-1", (x, y, z))
                x_below = leq(yx, z) and leq(x, diff(z, yx))  # z - (y - x) is defined and above x
                if not x_below:
                    record("derived-2", (x, y, z))
                if not leq(yx, zx) or diff(zx, yx) != zy:
                    record("derived-3", (x, y, z))
                if not x_below or diff(diff(z, yx), x) != zy:
                    record("derived-4", (x, y, z))
    return DPosetReport(not failures, failures)


def chain_dposet_members(pl: PrimorialLattice):
    """The Boolean chain as carrier sets, with the difference operation."""
    members = [lvl.carrier_set for lvl in pl.chain]
    full = pl.chain[-1].full

    def diff(y, x):
        return frozenset((y - x) | {0, full})

    def leq(x, y):
        return x <= y

    return members, diff, leq
