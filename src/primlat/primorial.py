"""Boolean-lattice reduction, bounded-lattice difference, and the family
lattice the two generate.

Every level lives inside one top Boolean carrier: elements are subsets of
{1..N} encoded as machine-word bitmasks, the order is always mask inclusion
restricted to the level's carrier, and complement pairs are always top-level
set complements (reduction preserves this at every depth, since a Boolean
level's unique complementation must consist of parent pairs).  One operator,
``_carrier_difference``, builds every difference level and is the one the
D-poset check reads; ``generate_primorial`` checks each difference level's
orthocomplement and the family's chain shape.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, partial
from typing import NamedTuple

from .core import IDENTITY_ROW, FiniteLattice, InvariantError, LatticeError, Record
from .ortho import attach_ortho
from .textio import format_carrier

REDUCE_BOUND = 6  # largest atom count reduced: 2^6 takes ~5 ms, 2^7 ~0.3 s in-process (2 vCPU Intel Xeon, Python 3.11.7)


def _bit_swaps():
    """Padded rows, one per bit r of a byte: row r swaps bits 0 and r.

    The 256 bytes are read as the bytes of one integer, so each step acts on
    all of them at once; no bit moves out of its byte."""
    every, low = int.from_bytes(IDENTITY_ROW, "little"), int.from_bytes(b"\1" * 256, "little")
    rows = []
    for r in range(8):
        differ = (every ^ every >> r) & low  # bit 0 of each byte: do its bits 0 and r differ
        rows.append((every ^ differ ^ differ << r).to_bytes(256, "little"))
    return tuple(rows)


BIT_SWAPS = _bit_swaps()  # BIT_SWAPS[r]: byte -> the byte with bits 0 and r swapped


def _inclusion_rows(masks):
    """Order rows of mask inclusion: bit j of row i says masks[i] ⊆ masks[j]."""
    return [sum(1 << j for j, y in enumerate(masks) if x & ~y == 0) for x in masks]


def _bitset(masks):
    """The masks as one integer bitset: bit c stands for mask c."""
    bits = 0
    for c in masks:
        bits |= 1 << c
    return bits


def _closed(cset, full):
    """Whether the mask set holds 0 and ``full`` and is closed under complement."""
    return 0 in cset and full in cset and all(full ^ x in cset for x in cset)


class Level:
    """One member lattice of a family: a carrier in a top Boolean carrier.

    A level is its carrier and nothing more: its name is its key in a
    family's ``levels``, and what it is (Boolean, orthocomplemented) is
    checked where it is made, by ``reduce_boolean`` and ``is_reduction``
    for a Boolean level and by ``generate_primorial`` for a difference
    level.  Its mask set, ``carrier_set``, and its induced tables,
    ``lattice``, are built on first read.
    """

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, top_n, carrier):
        vars(self).update(top_n=top_n, full=(1 << top_n) - 1, carrier=tuple(sorted(carrier)))

    @cached_property
    def carrier_set(self) -> frozenset:
        return frozenset(self.carrier)

    @cached_property
    def lattice(self) -> FiniteLattice:
        return FiniteLattice(self.carrier, _inclusion_rows(self.carrier))

    def complement(self, mask):
        return self.full ^ mask

    def __repr__(self):
        return f"Level({self.top_n}, {self.carrier})"

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
    return Level(n, range(1 << n))


# ---------------------------------------------------------------------------
# reduction


def _up_sets(carrier):
    """For each mask x in range(2^n), n the largest mask's bit length, the
    members of the ascending carrier holding every bit of x, as an integer
    bitset over the masks: bit c stands for mask c."""
    n = carrier[-1].bit_length()
    member = _bitset(carrier)
    ones = (1 << (1 << n)) - 1
    up = [member]
    for b in range(n):
        # the masks holding bit b: runs of 2^b masks without it, then 2^b with it
        holds = ones // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1 << (1 << b))
        up += [u & holds for u in up]
    return up


def _atoms_of_carrier(above):
    """Minimal nonzero masks, ascending, of a carrier holding 0, from its
    ``_up_sets``.  Numeric order extends inclusion, so the lowest nonzero
    member above no atom found so far is the next atom: a nonzero member
    below it would be lower, so above a found atom, and then so would it be.
    """
    atoms = []
    rest = above[0] & ~1
    while rest:
        a = (rest & -rest).bit_length() - 1
        atoms.append(a)
        rest &= ~above[a]
    return atoms


def _induced_boolean(carrier, size_exp):
    """Whether the carrier's induced inclusion order is Boolean of 2^size_exp.

    The carrier must be ascending, distinct and start with 0.  Implements
    the subset-of-atoms bijection test on the bitsets of ``_up_sets``.  For
    each atom set s, ups[s] holds the members above the union of its atoms,
    the AND of the atoms' up-sets.  Numeric order extends inclusion, so the
    lowest member best_s of ups[s] is its only candidate for least element,
    and is the least one iff the members above best_s are all of ups[s].

    The level must have exactly size_exp atoms, every atom set s a least
    upper bound best_s, and s -> best_s must be injective.  best_s then lies
    above exactly the atoms in s: were another atom t below it, best_s
    would lie in ups[s | t], a subset of ups[s], and so also be
    best_(s | t), which injectivity refuses.  So for a carrier of
    2^size_exp masks these conditions say that s -> best_s is an order
    isomorphism from the atom sets onto the carrier: a Boolean lattice.
    """
    above = _up_sets(carrier)
    atoms = _atoms_of_carrier(above)
    if len(atoms) != size_exp:
        return False
    ups = [above[0]] * (1 << size_exp)
    seen = 0
    for s in range(1 << size_exp):
        if s:
            low = s & -s
            ups[s] = ups[s ^ low] & above[atoms[low.bit_length() - 1]]
        up = ups[s]
        if not up:
            return False  # no upper bound
        best = (up & -up).bit_length() - 1
        if above[best] != up or seen >> best & 1:
            return False  # the upper bounds have no least element, or a join repeats
        seen |= 1 << best
    return True


def _check_reducible(level: Level):
    size = len(level.carrier)
    m = size.bit_length() - 1
    if size != 1 << m or m < 2:
        raise LatticeError("reduction needs a Boolean level with at least 4 elements")
    if not _closed(level.carrier_set, level.full):
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

    Only the reductions with r = 0 are built from f: variable s of f is
    index s + 1, so the carrier's index-set codes are (s << 1) | f(s), one
    byte each.  Each of them is checked by the induced-order test, and one
    that fails it is a defect in this map: ``InvariantError``.  Every other
    reduction is the image of a checked one:

    - Swapping the indices 0 and r, tau_r, is an automorphism of the cube
      (it keeps inclusion and set complement), so it maps reductions to
      reductions.
    - carrier(r, f) = tau_r(carrier(0, f∘pi)) for a permutation pi of the
      variables that depends only on r.  The monotone self-dual functions
      are closed under permutations of the variables, so the images under
      tau_r of the r = 0 carriers are exactly the carriers of r.  A merge
      of two atoms into one arises from both of them (f a projection), so
      there are m * A(m-1) - C(m, 2) levels, A the count of
      ``monotone_self_dual``, as when every r is mapped on its own.

    A carrier is held as bytes: its codes, through ``BIT_SWAPS[r]`` for the
    image under tau_r, then through one row from codes to indices into
    ``level.carrier``, which is ascending, so sorted indices are sorted
    masks.  Duplicates are dropped, and levels come back sorted by carrier.
    """
    m = _check_reducible(level)
    check_reduce_bound(m)
    atoms = _atoms_of_carrier(_up_sets(level.carrier))
    phi = {sum(1 << i for i, a in enumerate(atoms) if a & ~x == 0): x for x in level.carrier}
    if len(atoms) != m or len(phi) != len(level.carrier):
        raise LatticeError(f"{level!r} is not Boolean under inclusion")
    index = bytes.maketrans(bytes(phi), IDENTITY_ROW[: len(phi)])  # code -> index of its mask
    mask = level.carrier.__getitem__
    found = set()
    for f in monotone_self_dual(m - 1):
        codes = bytes(s << 1 | f >> s & 1 for s in range(len(phi) >> 1))
        first = bytes(sorted(codes.translate(index)))
        masks = tuple(map(mask, first))
        if not _induced_boolean(masks, m - 1):
            raise InvariantError(f"cube carrier {masks} is not Boolean")
        found.add(first)
        for swap in BIT_SWAPS[1:m]:
            found.add(bytes(sorted(codes.translate(swap).translate(index))))
    return tuple([Level(level.top_n, map(mask, c)) for c in sorted(found)])


def is_reduction(level: Level, carrier) -> bool:
    """Whether ``carrier`` is one of the levels ``reduce_boolean(level)`` returns.

    Applies the acceptance condition of ``reduce_boolean`` to the one
    candidate: distinct masks drawn from the parent carrier, holding 0 and
    the top, closed under complement, 2^(m-1) of them, with a Boolean
    induced order.  The reduction bound applies as in ``reduce_boolean``.
    ``level`` must be Boolean, as every chain level is; only its size, its
    bounds and its complement pairs are checked here.
    """
    m = _check_reducible(level)
    check_reduce_bound(m)
    cand = tuple(sorted(carrier))
    cset = frozenset(cand)
    return (
        len(cset) == len(cand) == 1 << (m - 1)
        and cset <= level.carrier_set
        and _closed(cset, level.full)
        and _induced_boolean(cand, m - 1)
    )


# ---------------------------------------------------------------------------
# bounded lattice difference


def _carrier_difference(full, y, x):
    """The difference y - x of two carrier sets, with the bounds 0 and
    ``full`` restored: the one operator behind ``difference`` and the
    D-poset check."""
    return (y - x) | {0, full}


def difference(lx: Level, ly: Level) -> Level:
    """Carrier set difference with the shared bounds restored."""
    if lx.top_n != ly.top_n:
        raise LatticeError("levels live in different top carriers")
    for lvl in (lx, ly):
        if 0 not in lvl.carrier_set or lvl.full not in lvl.carrier_set:
            raise LatticeError("difference requires carriers sharing 0 and 1")
    return Level(lx.top_n, _carrier_difference(lx.full, lx.carrier_set, ly.carrier_set))


# ---------------------------------------------------------------------------
# family assembly


class PrimorialLattice(NamedTuple):
    """Chain of Boolean levels plus their difference levels, ordered by
    carrier inclusion."""

    top_n: int
    chain: tuple  # Level, ascending L2^1 .. L2^N
    levels: dict  # name -> Level: L2^1 .. L2^N, then D2 .. DN; D2 is L2^2
    family: FiniteLattice  # labels are the level names but D2

    def level(self, name) -> Level:
        try:
            return self.levels[name]
        except KeyError:
            raise LatticeError(f"unknown family member {name!r}") from None

    def member_names(self):
        return self.family.labels


def _family_lattice(levels):
    """The inclusion order of the named levels' carriers."""
    return FiniteLattice(tuple(levels), _inclusion_rows([_bitset(lvl.carrier) for lvl in levels.values()]))


def generate_primorial(n: int, choices=None) -> PrimorialLattice:
    """Build the family generated by the 2^n Boolean carrier.

    ``choices`` optionally fixes the reduction taken at each step, as a
    sequence of carriers (mask collections) for the levels below the top:
    first the 2^(n-1) level, then 2^(n-2), and so on down to 2^2.  Without
    choices the default chain is used: its L2^m keeps the atoms {1}..{m-1}
    and merges {m..n} into one, so with h = 2^(m-1) its carrier is
    ``range(h)`` followed by ``x | full & -h`` for x in ``range(h)``.
    This is ``reduce_boolean(L2^(m+1))[0]``, the lexicographically least
    reduction: a reduction holds one of U, ~U for each parent element U, so
    its lower half is 2^(m-1) unions of the parent's m lower atoms (masks
    below every mask holding the highest atom) and fixes its upper half by
    complement; the least such half is ``range(h)``, the unions of {1}..{m-1}.
    Every carrier, default or supplied, is verified with ``is_reduction``,
    the acceptance condition of ``reduce_boolean``, so no step enumerates
    the other reductions; the last step to 2^1 takes the only carrier
    ``reduce_boolean`` returns there.  The reduction bound is checked on
    ``n`` before the top carrier is built.
    Every difference level D2..Dn gets its inherited complement pairs
    checked by ``attach_ortho``; D2 is L2^2 itself, so the family keeps one
    level, and one set of tables, per carrier.  The family order is
    checked to have the generated-chain shape: ``is_primorial`` must give
    the roles the construction does, bottom L2^1, chain L2^2..L2^n and
    atoms D3..Dn joined in order.
    """
    if n < 2:
        raise LatticeError("generation needs at least 2 atoms")
    check_reduce_bound(n)
    chain = [boolean_carrier(n)]
    if choices is None:
        full = chain[0].full
        choices = []
        for m in range(n - 1, 1, -1):
            h = 1 << (m - 1)
            choices.append([*range(h), *(x | full & -h for x in range(h))])
    for m, pick in itertools.zip_longest(range(n - 1, 1, -1), choices):
        if m is None:
            raise LatticeError("too many reduction choices supplied")
        if pick is None:
            raise LatticeError("not enough reduction choices supplied")
        pick = tuple(sorted(pick))
        if not is_reduction(chain[-1], pick):
            # a mask outside the top carrier has no subset literal
            shown = format_carrier(pick) if chain[0].carrier_set.issuperset(pick) else pick
            raise LatticeError(f"invalid reduction choice for L2^{m}: {shown}")
        chain.append(Level(n, pick))
    # a 4-element level has one reduction; this call is also the one that
    # fires the primorial.reduce span the genome benchmark requires
    (last,) = reduce_boolean(chain[-1])
    chain.append(last)
    chain.reverse()  # ascending L2^1 .. L2^n

    levels = {f"L2^{m}": lvl for m, lvl in enumerate(chain, 1)}
    if difference(chain[1], chain[0]) != chain[1]:  # L2^1 is {0, full}, so D2 is L2^2
        raise InvariantError("D2 is not L2^2")
    for m in range(2, n + 1):
        d = levels[f"D{m}"] = chain[1] if m == 2 else difference(chain[m - 1], chain[m - 2])
        attach_ortho(d.lattice, {x: d.complement(x) for x in d.carrier})
    family = _family_lattice({name: lvl for name, lvl in levels.items() if name != "D2"})
    if is_primorial(family) != PrimorialRoles(
        "L2^1", tuple(f"L2^{m}" for m in range(2, n + 1)), tuple(f"D{m}" for m in range(3, n + 1))
    ):
        raise InvariantError("generated family must have the chain shape")
    return PrimorialLattice(n, tuple(chain), levels, family)


# ---------------------------------------------------------------------------
# recognition


class PrimorialRoles(NamedTuple):
    bottom: object
    y_chain: tuple  # y0 <= y1 <= ... (strictly increasing joins)
    x_atoms: tuple  # x0, x1, ... joined in order


def is_primorial(lat: FiniteLattice):
    """Role assignment making the lattice a generated chain, or None.

    Roles must be pairwise distinct: bottom, the atom y0, the remaining
    atoms x0..xK in some order, and the join chain y_{i+1} = y_i ∨ x_i,
    together covering the carrier exactly.  The order forces them, so they
    are read in one pass: no x_k (k >= i) lies below y_i (else y_{k+1} =
    y_k), so y_i lies above exactly the atoms y0, x0..x_{i-1}, and the other
    elements are y_1 < y_2 < ... by down-set size.  y0 and x0 are the two
    atoms below y_1, y0 the lower-index one (which a search over the atoms
    in index order accepts first); x_i is the atom below y_{i+1} but not y_i.
    """
    if lat.n == 0:
        return None
    atoms = lat.atoms_i
    if len(atoms) == 1 and lat.n == 2:
        return PrimorialRoles(lat.bottom, (lat.labels[atoms[0]],), ())
    if len(atoms) < 2 or lat.n != 2 * len(atoms):
        return None
    down, atom_bits = lat.geq_rows, sum(1 << a for a in atoms)
    chain = [i for i in lat.topo_order if i != lat.bottom_i and not atom_bits >> i & 1]
    first = down[chain[0]] & atom_bits
    ys, xs = [(first & -first).bit_length() - 1], []
    for y in chain:
        new = down[y] & atom_bits & ~down[ys[-1]]
        x = new.bit_length() - 1
        if new.bit_count() != 1 or lat.join_i(ys[-1], x) != y:
            return None
        xs.append(x)
        ys.append(y)
    return PrimorialRoles(lat.bottom, tuple(lat.labels[i] for i in ys), tuple(lat.labels[i] for i in xs))


# ---------------------------------------------------------------------------
# D-poset verification


DPOSET_LAWS = (  # the laws dposet_check records, in report order
    "axiom-1", "axiom-2", "axiom-3", "axiom-4", "derived-1", "derived-2", "derived-3", "derived-4",
)


def dposet_check(members, diff, leq) -> dict:
    """Verify the difference axioms and their derived laws on a family.

    ``diff(y, x)`` must be defined whenever ``leq(x, y)``.  The result maps
    each failing law to its first witness; it is empty when every law holds.
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
    return failures


def chain_dposet_members(pl: PrimorialLattice):
    """The Boolean chain as carrier sets, with the difference operation
    that builds the family's difference levels."""
    members = [lvl.carrier_set for lvl in pl.chain]
    return members, partial(_carrier_difference, pl.chain[-1].full), operator.le
