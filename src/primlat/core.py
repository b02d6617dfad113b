"""Finite posets and lattices over opaque element labels.

Order relations are stored densely: row ``i`` of ``leq`` is an integer
bitmask whose bit ``j`` says ``elements[i] <= elements[j]``.  Every index map
(the join and meet rows of a lattice, a negation) is one padded byte row: a
256-entry ``bytes`` whose entry ``k`` is the image of element ``k`` for
``k < n`` and ``k`` itself beyond.  Such a row is a ``bytes.translate``
table, so an identity over every third element runs as C-level calls, and a
chain of translations keeps the padding fixed.  Translated through a
``mark_table``, a row becomes an int bitset of the elements whose image is
marked.  One byte per element index caps lattices at ``MAX_ELEMENTS``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import getitem

MAX_ELEMENTS = 256
MAX_ATOMS = MAX_ELEMENTS.bit_length() - 1  # the largest 2^N the tables hold, one element per byte
IDENTITY_ROW = bytes(range(MAX_ELEMENTS))  # the padded row of the identity map


class LatticeError(ValueError):
    """Input violates an order axiom or references undeclared elements."""


class InvariantError(AssertionError):
    """Two routes to one result disagree, or a derived law fails: a defect
    in primlat, not in its input.  It is not a ``LatticeError``, so nothing
    that handles bad input catches it; the CLI exits 3 on it.  Raised by
    plain ``if`` checks, which ``python -O`` keeps."""


class Record:
    """An immutable record for the few results a ``NamedTuple`` cannot
    hold: one whose constructor checks its fields, which a named tuple's
    ``_make`` and ``_replace`` would skip, or one with a field left out of
    ``==``.  The other result records are ``NamedTuple`` classes.

    ``__slots__`` names the fields in constructor order, and ``_compared``
    the ones that ``==``, ``hash`` and ``repr`` read.  A subclass checks its
    arguments in ``__init__`` and then calls ``Record.__init__``; ``copy``
    and ``pickle`` rebuild through the constructor, so they check too.

    The value classes that keep an instance dict for their cached
    properties (posets and lattices, levels, property reports, metrics)
    take its ``__setattr__`` and ``__delattr__``: their constructors fill
    the dict once with ``vars(self).update``, and ``cached_property``
    writes the dict directly.
    """

    __slots__ = ()
    _compared = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_size(n):
    if n > MAX_ELEMENTS:
        raise LatticeError(f"{n} elements exceed the supported maximum of {MAX_ELEMENTS}")


def _closure(succ):
    """Reflexive-transitive closure of the relation with successor lists ``succ``.

    ``succ[i]`` lists the j with i R j; repeats are allowed.  Row i of the
    result is the bitmask of the elements reachable from i, i included.
    Each row is its own bit ORed with the rows of its successors, taken in
    reverse Kahn order (Kahn, CACM 5(11), 1962): when R is acyclic every
    successor's row is final before it is read, so one sweep of O(n + e)
    row ORs closes it.  The elements that order cannot place, those on a
    cycle or reachable from one, are swept first, and sweeps repeat while a
    row changes.
    """
    n = len(succ)
    indegree = [0] * n
    for js in succ:
        for j in js:
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:  # grows while it is read: Kahn's queue
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    acyclic = len(order) == n
    sweep = [i for i in range(n) if indegree[i]] + order[::-1]
    rows = [1 << i for i in range(n)]
    while True:
        before = rows.copy()
        for i in sweep:
            row = rows[i]
            for j in succ[i]:
                row |= rows[j]
            rows[i] = row
        if acyclic or rows == before:
            return rows


def _nearest(rows):
    """Per row of a reflexive order, the elements it reaches in one step:
    those it reaches strictly, less those it reaches through another.  An
    element found further is skipped, as all it reaches is further too."""
    strict = [row ^ 1 << i for i, row in enumerate(rows)]
    out = []
    for row in strict:
        further, rest = 0, row
        while rest:
            low = rest & -rest
            further |= strict[low.bit_length() - 1]
            rest = (rest ^ low) & ~further
        out.append(row & ~further)
    return tuple(out)


class FinitePoset:
    """Immutable finite ordered set.

    ``labels`` is the declared element order (used for all tie-breaking and
    deterministic output); ``leq`` holds one bitmask row per element.
    """

    is_lattice = False
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, labels, leq):
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise LatticeError("duplicate element label")
        vars(self).update(labels=labels, leq_rows=tuple(leq), n=len(labels), _index=index)

    @staticmethod
    def from_covers(labels, covers):
        """Build from cover pairs (a, b) meaning b covers a.

        The order is the reflexive-transitive closure of the cover pairs:
        ``_closure`` over the successor lists gives the up-sets, and over
        the predecessor lists the down-sets, which the poset keeps as
        ``geq_rows``.  Both take O(n + e) row ORs for n labels and e pairs
        when there is no cycle.  The first i whose up-set and down-set
        share another element j lies on a cycle among distinct elements,
        an antisymmetry violation named by i and the least such j.  The
        poset is made first, so the cover pairs are read through its one
        label index, and its order is filled in once closed.
        """
        poset = FinitePoset(labels, ())
        labels, index = poset.labels, poset._index
        succ = [[] for _ in labels]
        pred = [[] for _ in labels]
        for a, b in covers:
            if a not in index:
                raise LatticeError(f"unknown element {a!r} in cover pair")
            if b not in index:
                raise LatticeError(f"unknown element {b!r} in cover pair")
            i, j = index[a], index[b]
            if i != j:  # a<a adds nothing to a reflexive order
                succ[i].append(j)
                pred[j].append(i)
        rows, cols = _closure(succ), _closure(pred)
        for i, (up, down) in enumerate(zip(rows, cols)):
            both = (up & down) ^ (1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise LatticeError(f"antisymmetry violation: cycle through {labels[i]!r} and {labels[j]!r}")
        # geq_rows fills the cached property
        vars(poset).update(leq_rows=tuple(rows), geq_rows=tuple(cols))
        return poset

    # -- order queries (index based internally, label based publicly) -------

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise LatticeError(f"unknown element {label!r}") from None

    def leq_i(self, i, j):
        return bool(self.leq_rows[i] >> j & 1)

    def leq(self, a, b):
        return self.leq_i(self.index(a), self.index(b))

    @cached_property
    def geq_rows(self):
        cols = [0] * self.n
        for i, row in enumerate(self.leq_rows):
            for j in bits(row):
                cols[j] |= 1 << i
        return tuple(cols)

    @cached_property
    def covers_i(self):
        """Transitive reduction as (lower, upper) index pairs."""
        return tuple((i, j) for i, row in enumerate(self._cover_up) for j in bits(row))

    @cached_property
    def covers(self):
        return tuple((self.labels[i], self.labels[j]) for i, j in self.covers_i)

    @cached_property
    def _cover_up(self):
        """Per element, the bitset of its upper covers."""
        return _nearest(self.leq_rows)

    @cached_property
    def _cover_down(self):
        """Per element, the bitset of its lower covers."""
        return _nearest(self.geq_rows)

    @cached_property
    def topo_order(self):
        """Indices ordered so that smaller elements come first."""
        return tuple(sorted(range(self.n), key=lambda i: (bin(self.geq_rows[i]).count("1"), i)))

    def lattice_tables(self):
        """(join, meet) padded byte rows, or None with a witness pair if absent.

        m is the least upper bound of i and j iff its up-set is exactly
        their common up-set (dually for the greatest lower bound), so each
        bound is one dict lookup.  Pairs are visited as (i, j >= i) and the
        first missing bound is the witness.  More than ``MAX_ELEMENTS``
        elements raise before any table is allocated.
        """
        n = self.n
        _check_size(n)
        up, down = self.leq_rows, self.geq_rows
        lub = {row: m for m, row in enumerate(up)}
        glb = {row: m for m, row in enumerate(down)}
        join = [bytearray(IDENTITY_ROW) for _ in range(n)]
        meet = [bytearray(IDENTITY_ROW) for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m = lub.get(up[i] & up[j])
                if m is None:
                    return None, None, (self.labels[i], self.labels[j], "no LUB")
                join[i][j] = join[j][i] = m
                m = glb.get(down[i] & down[j])
                if m is None:
                    return None, None, (self.labels[i], self.labels[j], "no GLB")
                meet[i][j] = meet[j][i] = m
        return tuple(map(bytes, join)), tuple(map(bytes, meet)), None

    def __repr__(self):
        return f"{type(self).__name__}({list(self.labels)!r}, covers={list(self.covers)!r})"

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.leq_rows == other.leq_rows
        )

    def __hash__(self):
        return hash((self.labels, self.leq_rows))


class FiniteLattice(FinitePoset):
    """FinitePoset in which every pair has a unique LUB and GLB.

    ``join_table[x]`` maps z to x ∨ z and ``meet_table[x]`` maps z to x ∧ z,
    each a padded byte row from ``lattice_tables``.
    """

    is_lattice = True

    def __init__(self, labels, leq):
        super().__init__(labels, leq)
        join, meet, witness = self.lattice_tables()
        if witness is not None:
            raise LatticeError(f"not a lattice: {witness[0]!r}, {witness[1]!r} have {witness[2]}")
        vars(self).update(join_table=join, meet_table=meet)

    def pairwise(self, table, xs, ys):
        """``op(xs[k], ys[k])`` for every element k, as bytes.

        ``table`` is ``join_table`` or ``meet_table``; this is the one place
        two rows are combined elementwise.
        """
        return bytes(map(getitem, map(table.__getitem__, xs[: self.n]), ys[: self.n]))

    def join_i(self, i, j):
        return self.join_table[i][j]

    def meet_i(self, i, j):
        return self.meet_table[i][j]

    def join(self, a, b):
        return self.labels[self.join_table[self.index(a)][self.index(b)]]

    def meet(self, a, b):
        return self.labels[self.meet_table[self.index(a)][self.index(b)]]

    def join_all_i(self, idxs):
        acc = self.bottom_i
        for i in idxs:
            acc = self.join_table[acc][i]
        return acc

    def meet_all_i(self, idxs):
        acc = self.top_i
        for i in idxs:
            acc = self.meet_table[acc][i]
        return acc

    def join_all(self, labels):
        return self.labels[self.join_all_i([self.index(a) for a in labels])]

    def meet_all(self, labels):
        return self.labels[self.meet_all_i([self.index(a) for a in labels])]

    @cached_property
    def bottom_i(self):
        full = (1 << self.n) - 1
        for i in range(self.n):
            if self.leq_rows[i] == full:
                return i
        raise LatticeError("empty lattice has no bottom")

    @cached_property
    def top_i(self):
        full = (1 << self.n) - 1
        for i in range(self.n):
            if self.geq_rows[i] == full:
                return i
        raise LatticeError("empty lattice has no top")

    @cached_property
    def bottom(self):
        return self.labels[self.bottom_i]

    @cached_property
    def top(self):
        return self.labels[self.top_i]

    @cached_property
    def atoms_i(self):
        return tuple(sorted(bits(self._cover_up[self.bottom_i])))

    @cached_property
    def heights(self):
        """Longest-chain height of every element above the bottom."""
        h = [0] * self.n
        for i in self.topo_order:
            below = self._cover_down[i]
            h[i] = max((h[k] + 1 for k in bits(below)), default=0)
        return tuple(h)


def build_lattice(labels, covers):
    """Build a FiniteLattice when LUB/GLB are total, else a FinitePoset.

    The returned object's ``is_lattice`` flag records which case applies.
    More than ``MAX_ELEMENTS`` labels raise before the order is closed.
    """
    labels = tuple(labels)
    _check_size(len(labels))
    poset = FinitePoset.from_covers(labels, covers)
    join, meet, witness = poset.lattice_tables()
    if witness is None:
        # the same order, label index and down-sets, now with its tables
        object.__setattr__(poset, "__class__", FiniteLattice)
        vars(poset).update(join_table=join, meet_table=meet)
    return poset


# ---------------------------------------------------------------------------
# classification


class PropertyReport:
    """Structural classification of one finite lattice: what ``classify``
    prints, with modularity and distributivity from ``law_witnesses``."""

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, lat: FiniteLattice):
        if lat.n == 0:
            raise LatticeError("cannot classify the empty lattice")
        labels = lat.labels
        antis = tuple(bits(lat._cover_down[lat.top_i]))
        # every element is the join of the atoms below it iff no two share
        # that set of atoms: the join of i's atoms has exactly i's atoms below
        atom_bits, coatom_bits = sum(1 << a for a in lat.atoms_i), sum(1 << a for a in antis)

        chains, antichain = _chain_partition(lat)
        if len(antichain) != len(chains):
            raise InvariantError("chain cover and antichain certificates disagree")
        covered = sorted(i for c in chains for i in c)
        if covered != list(range(lat.n)):
            raise InvariantError("chain partition must cover the carrier")

        n5_witness, distributive_witness = law_witnesses(lat)
        counts = {len(comp) for comp in complements_i(lat)}
        if 0 in counts:
            complementation_class = "non-complemented"
        elif counts == {1}:
            complementation_class = "uniquely"
        else:
            complementation_class = "multiply"
        vars(self).update(
            is_bounded=True,
            bottom=lat.bottom,
            top=lat.top,
            atoms=tuple(labels[i] for i in lat.atoms_i),
            anti_atoms=tuple(labels[i] for i in antis),
            lattice_height=lat.heights[lat.top_i],
            is_atomic=len({down & atom_bits for down in lat.geq_rows}) == lat.n,
            is_anti_atomic=len({up & coatom_bits for up in lat.leq_rows}) == lat.n,
            length=max(lat.heights, default=0),
            min_chain_partition=tuple(tuple(labels[i] for i in c) for c in chains),
            max_antichain=tuple(labels[i] for i in antichain),
            width=len(chains),
            n5_witness=n5_witness,
            distributive_witness=distributive_witness,
            is_modular=n5_witness is None,
            is_distributive=distributive_witness is None,
            complementation_class=complementation_class,
            is_complemented=0 not in counts,
            # bounded, as a finite non-empty lattice
            is_boolean=distributive_witness is None and 0 not in counts,
        )


def modular_by_identity(lat: FiniteLattice) -> bool:
    """x <= y  =>  x ∨ (z ∧ y) == (x ∨ z) ∧ y, one row comparison per (x, y).

    Only join-irreducible x are checked: those whose strict down-set is
    one element's down-set.  Every other x is the bottom, for which the
    identity is trivial, or a join x1 ∨ x2 of smaller elements, both <= y,
    and then (x ∨ z) ∧ y == x1 ∨ ((x2 ∨ z) ∧ y) == x1 ∨ x2 ∨ (z ∧ y) by
    the identity for x1 and for x2 (Birkhoff, Lattice Theory, 1967).
    """
    jn, mt, down = lat.join_table, lat.meet_table, lat.geq_rows
    downsets = set(down)
    for x in range(lat.n):
        if down[x] ^ 1 << x not in downsets:
            continue
        jx = jn[x]
        for y in bits(lat.leq_rows[x]):
            if mt[y].translate(jx) != jx.translate(mt[y]):
                return False
    return True


def distributive_by_identity(lat: FiniteLattice) -> bool:
    """x ∧ (y ∨ z) == (x ∧ y) ∨ (x ∧ z), one row comparison per (x, y).

    Only meet-irreducible x are checked: those whose strict up-set is one
    element's up-set.  The identity says that φ_x(y) = x ∧ y preserves
    joins.  φ_top is the identity map, and φ_(a ∧ b) = φ_a ∘ φ_b, a
    composition of join-preserving maps, so the identity holds for every x
    once it holds for the meet-irreducible x, of which every element other
    than the top is a meet.
    """
    jn, mt, up = lat.join_table, lat.meet_table, lat.leq_rows
    upsets = set(up)
    for x in range(lat.n):
        if up[x] ^ 1 << x not in upsets:
            continue
        mx = mt[x]
        for y in range(lat.n):
            if jn[y].translate(mx) != mx.translate(jn[mx[y]]):
                return False
    return True


def modular_by_certificate(lat: FiniteLattice) -> bool:
    """Upper and lower semimodularity, tested on covers.

    Any two distinct upper covers a, b of one element must have a join
    that covers both, and any two distinct lower covers a meet that both
    cover.  A lattice of finite length is modular iff it is upper and
    lower semimodular, and in such a lattice upper semimodularity is
    equivalent to the first covering condition, lower to the second
    (Birkhoff, Lattice Theory, 3rd ed., 1967, ch. II; Stern, Semimodular
    Lattices, 1999, ch. 1).  It reads no identity, only the cover rows and
    one table entry per pair of covers.
    """
    return _semimodular(lat._cover_up, lat.join_table) and _semimodular(lat._cover_down, lat.meet_table)


def _semimodular(covers, table):
    """Whether ``table`` takes every two distinct covers a, b of one element,
    ``covers[c]`` being the bitset of c's covers on one side, to an element
    that is a cover of both, on the same side."""
    for row in covers:
        if row & row - 1:  # two covers or more
            for a, b in itertools.combinations(bits(row), 2):
                m = table[a][b]
                if not covers[a] >> m & covers[b] >> m & 1:
                    return False
    return True


def distributive_by_certificate(lat: FiniteLattice) -> bool:
    """Every join-irreducible element is join-prime.

    j is join-prime when j <= a ∨ b implies j <= a or j <= b, that is,
    when the elements not above j are closed under joins.  They form a
    down-set, so they are closed under joins iff they are one element's
    down-set (that element is their join), which is one set lookup per j.
    A finite lattice is distributive iff each join-irreducible element is
    join-prime.  If it is distributive, j <= a ∨ b gives
    j = (j ∧ a) ∨ (j ∧ b), so j equals one of them.  If each is
    join-prime, x ↦ {join-irreducible j <= x} keeps meets and, by
    join-primeness, joins, and is one-to-one as each element is the join of
    the join-irreducibles below it: an embedding in a lattice of sets,
    which is distributive (Davey & Priestley, Introduction to Lattices and
    Order, 2nd ed., 2002, ch. 5, Birkhoff's representation theorem).
    Join-irreducible j are those whose strict down-set is one element's
    down-set, as in ``modular_by_identity``.
    """
    up, down = lat.leq_rows, lat.geq_rows
    downsets, full = set(down), (1 << lat.n) - 1
    return all(full ^ up[j] in downsets for j in range(lat.n) if down[j] ^ 1 << j in downsets)


def law_witnesses(lat: FiniteLattice):
    """``(n5_witness, distributive_witness)``: a pentagon, or None when
    ``lat`` is modular, and ``("N5",)`` plus that pentagon or ``("M3",)``
    plus a diamond, or None when ``lat`` is distributive.

    Each verdict is reached twice, by the defining identity
    (``modular_by_identity``, ``distributive_by_identity``) and by a
    certificate (``modular_by_certificate``: semimodular both ways on
    covers; ``distributive_by_certificate``: join-irreducible means
    join-prime), each with its argument and source in its docstring, and
    the call fails if the two disagree.  A negative
    verdict then has a third route, the complete forbidden-sublattice
    search that finds the printed witness: a lattice is modular iff it has
    no N5 sublattice and distributive iff it has neither N5 nor M3
    (Dedekind, Birkhoff).  The diamond is searched for only in a modular
    lattice that is not distributive, and the call fails if a search finds
    nothing.  A positive verdict runs no search: the search would only
    prove an absence that two routes already agree on.
    """
    modular = modular_by_identity(lat)
    if modular != modular_by_certificate(lat):
        raise InvariantError("modularity routes disagree")
    distributive = distributive_by_identity(lat)
    if distributive != distributive_by_certificate(lat):
        raise InvariantError("distributivity routes disagree")
    if distributive and not modular:
        raise InvariantError("distributive lattice classified non-modular")
    n5 = witness = None
    if not modular:
        n5 = _find_pentagon(lat)
        if n5 is None:
            raise InvariantError("modularity routes disagree")
        witness = ("N5",) + n5
    elif not distributive:
        m3 = _find_diamond(lat)
        if m3 is None:
            raise InvariantError("distributivity routes disagree")
        witness = ("M3",) + m3
    return n5, witness


def complements_i(lat: FiniteLattice):
    """Per element, the indices of its complements: the AND of its meet row
    marked at the bottom and its join row marked at the top."""
    n = lat.n
    zero, one = mark_table(1 << lat.bottom_i), mark_table(1 << lat.top_i)
    return [
        list(bits(marked(meets, n, zero) & marked(joins, n, one)))
        for meets, joins in zip(lat.meet_table, lat.join_table)
    ]


def _chain_partition(lat):
    """Minimum chain partition plus a maximum antichain certificate.

    Bipartite matching on the strict order (Fulkerson's construction); the
    antichain comes out of the matching's alternating-reachability cut, so
    both certificates have equal size by construction.
    """
    n = lat.n
    strict = [lat.leq_rows[i] & ~(1 << i) for i in range(n)]
    match_l = [-1] * n
    match_r = [-1] * n

    def try_augment(u, seen):
        for v in bits(strict[u] & ~seen[0]):
            seen[0] |= 1 << v
            if match_r[v] == -1 or try_augment(match_r[v], seen):
                match_r[v] = u
                match_l[u] = v
                return True
        return False

    for u in range(n):
        try_augment(u, [0])

    chains = []
    for start in range(n):
        if match_r[start] == -1:
            chain = [start]
            while match_l[chain[-1]] != -1:
                chain.append(match_l[chain[-1]])
            chains.append(tuple(chain))
    chains.sort(key=lambda c: c[0])

    # König cut: alternate from unmatched left vertices.
    zl, zr = 0, 0
    queue = [u for u in range(n) if match_l[u] == -1]
    for u in queue:
        zl |= 1 << u
    while queue:
        u = queue.pop()
        for v in bits(strict[u] & ~zr):
            if match_l[u] != v:
                zr |= 1 << v
                w = match_r[v]
                if w != -1 and not zl >> w & 1:
                    zl |= 1 << w
                    queue.append(w)
    antichain = [x for x in range(n) if zl >> x & 1 and not zr >> x & 1]
    for a, b in itertools.combinations(antichain, 2):
        if lat.leq_i(a, b) or lat.leq_i(b, a):
            raise InvariantError(f"antichain certificate broken at {lat.labels[a]!r}, {lat.labels[b]!r}")
    return chains, antichain


def mark_table(mask: int) -> bytes:
    """The ``bytes.translate`` table sending element k to ``b"1"`` when bit k
    of ``mask`` is set and to ``b"0"`` otherwise."""
    return format(mask, "0256b")[::-1].encode()


def marked(row, n: int, table: bytes) -> int:
    """The bitset of the k < n whose image ``row[k]`` ``table`` marks.

    ``row`` is a padded byte row, ``table`` a ``mark_table`` and n >= 1;
    the translated row, read backwards, is the bitset's binary numeral.
    """
    return int(row[n - 1 :: -1].translate(table), 2)


def _find_pentagon(lat):
    """Complete N5-sublattice search.

    A pentagon exists iff some a < b and p satisfy a∧p == b∧p and
    a∨p == b∨p.  As a∧p <= b∧p and a∨p <= b∨p always hold, the two
    equations say b∧p <= a and a∨p >= b; such a p is incomparable with a
    and b, so a∧p < a < b < a∨p and p are five distinct elements, closed
    under the lattice operations and order-isomorphic to N5.  The p for one
    pair are b's meet row marked by the down-set of a, intersected with a's
    join row marked by the up-set of b; the least p of the first pair
    (a, b) is the witness.  A pair with no element apart from both, such
    as any pair with the bottom or the top, is skipped before marking.
    """
    n, up, down = lat.n, lat.leq_rows, lat.geq_rows
    jn, mt = lat.join_table, lat.meet_table
    full = (1 << n) - 1
    for a in range(n):
        apart = full ^ (up[a] | down[a])
        if not apart:
            continue
        below_a, ja = mark_table(down[a]), jn[a]
        for b in bits(up[a] & ~(1 << a)):
            if not apart & ~(up[b] | down[b]):
                continue
            ps = marked(mt[b], n, below_a) & marked(ja, n, mark_table(up[b]))
            if ps:
                p = (ps & -ps).bit_length() - 1
                L = lat.labels
                return (L[mt[a][p]], L[a], L[b], L[p], L[ja[p]])
    return None


def _level_sets(rows, n):
    """Per element x, ``{v: bitset of the z with rows[x][z] == v}``."""
    eq = [mark_table(1 << v) for v in range(n)]
    return [{v: marked(row, n, eq[v]) for v in set(row[:n])} for row in rows]


def _find_diamond(lat):
    """Complete M3-sublattice search over unordered middle triples.

    Indices p < q < r span a diamond iff their pairwise meets are one
    element m and their pairwise joins one element j.  Then p and q are
    incomparable (p <= q gives m == p and j == q, so r <= q and
    r == q∧r == p), and m, p, q, r, j are distinct.  So only incomparable
    pairs p < q are visited, and their r are one intersection of four level
    sets; the least r above q of the first pair is the witness.
    """
    n, up, down = lat.n, lat.leq_rows, lat.geq_rows
    jn, mt = lat.join_table, lat.meet_table
    meets, joins = _level_sets(mt, n), _level_sets(jn, n)
    full = (1 << n) - 1
    for p in range(n):
        mp, jp, meets_p, joins_p = mt[p], jn[p], meets[p], joins[p]
        for q in bits((full ^ (up[p] | down[p])) >> p << p):
            m, j = mp[q], jp[q]
            rs = (meets_p[m] & meets[q][m] & joins_p[j] & joins[q][j]) >> q + 1
            if rs:
                r = (rs & -rs).bit_length() + q
                L = lat.labels
                return (L[m], L[p], L[q], L[r], L[j])
    return None


def classify(lat: FiniteLattice) -> PropertyReport:
    return PropertyReport(lat)


# ---------------------------------------------------------------------------
# enumeration of unlabeled lattices


ENUM_CAP = 10


def _atom_upsets(rows):
    """The middle sets U such that a new atom below exactly U and the top
    leaves a lattice.

    ``rows[i]`` is the bit set of the middles strictly above middle ``i``.
    U (with the top) must be an up-set closed under every meet that is not
    the bottom.  Middles are decided top-down, so when middle ``z`` comes
    up everything above it is settled: it may join U only if all of that
    is in U, and it must join U if it is the meet of the members above it.
    """
    k = len(rows)
    downs = [1 << z for z in range(k)]  # the middles at or below z
    for i in range(k):
        for j in bits(rows[i]):
            downs[j] |= 1 << i
    ups = [0]
    for z in sorted(range(k), key=lambda z: bin(rows[z]).count("1")):
        above_z = rows[z]
        grown = []
        for u in ups:
            above = u & above_z
            if above == above_z:
                grown.append(u | 1 << z)
            common = -1
            for x in bits(above):
                common &= downs[x]
            if not above or common != downs[z]:
                grown.append(u)
        ups = grown
    return ups


def _representative(rows):
    """The least choice tuple of a middles' strict order, and the order
    relabelled to it, as ``(best, rows)``.

    The choice tuple lists, for each pair (i, j) with i < j in
    ``itertools.combinations`` order, 0 if i and j are incomparable, 1 if
    i < j and 2 if j < i.  Position 0 takes a middle whose sorted relation
    row is least; the other middles then fall into cells by their relation
    to it (0 < 1 < 2), and each later position takes a middle from the
    first cell and refines every cell by its relation to that middle.
    Ties branch, except between twins (middles with the same elements
    above and below, which an automorphism swaps), and a prefix greater
    than the best found so far is pruned.  Two strict orders are
    isomorphic iff their least choice tuples are equal.
    """
    k = len(rows)
    cols = [0] * k
    for i in range(k):
        for j in bits(rows[i]):
            cols[j] |= 1 << i
    twin = {}
    twin_of = [twin.setdefault((rows[x], cols[x]), x) for x in range(k)]
    best, best_order = None, ()

    def search(cells, prefix, order):
        nonlocal best, best_order
        if not cells:
            if best is None or prefix < best:
                best, best_order = prefix, order
            return
        head, tail = cells[0], cells[1:]
        tried, children = set(), []
        for x in head:
            if twin_of[x] in tried:
                continue
            tried.add(twin_of[x])
            up, down = rows[x], cols[x]
            row, refined = [], []
            for cell in ([y for y in head if y != x], *tail):
                parts = ([], [], [])
                for y in cell:
                    parts[1 if up >> y & 1 else 2 if down >> y & 1 else 0].append(y)
                for value, part in enumerate(parts):
                    if part:
                        refined.append(part)
                        row += [value] * len(part)
            children.append((tuple(row), x, refined))
        least = min(row for row, _, _ in children)
        for row, x, refined in children:
            if row == least and (best is None or prefix + row <= best[: len(prefix) + len(row)]):
                search(refined, prefix + row, order + (x,))

    search([list(range(k))] if k else [], (), ())
    pos = {x: p for p, x in enumerate(best_order)}
    return best, tuple(sum(1 << pos[y] for y in bits(rows[x])) for x in best_order)


def enumerate_lattices(n: int):
    """One canonical FiniteLattice per isomorphism class on n elements.

    A lattice with n >= 2 elements is determined by the strict order on its
    n - 2 middles, between bottom ``x0`` and top ``x{n-1}``.  Classes are
    grown from the 2-chain one atom at a time.  Every lattice with at least
    3 elements has an atom a below the top, and removing a leaves a
    lattice: no join of two other elements is a, and a meet that was a
    becomes the bottom.  Conversely, a new atom below exactly U, for U a
    nonempty up-set of L minus its bottom that is closed under every meet
    that is not the bottom, extends a lattice L to a lattice
    (``_atom_upsets``).  Each candidate is keyed by its least choice tuple
    (``_representative``), shown relabelled to it, and classes come in
    increasing order of it: the order in which a walk over every strict
    order, in ``itertools.product`` order over the pairs, first meets them.
    """
    if n < 0 or n > ENUM_CAP:
        raise LatticeError(f"element count {n} outside supported range 0..{ENUM_CAP}")
    if n == 0:
        return (FiniteLattice((), ()),)
    if n == 1:
        return (FiniteLattice(("x0",), (1,)),)
    level = {(): ()}
    for _ in range(n - 2):
        grown = {}
        for rows in level.values():
            for up in _atom_upsets(rows):
                best, rep = _representative(rows + (up,))
                grown.setdefault(best, rep)
        level = grown
    labels = tuple(f"x{i}" for i in range(n))
    top = 1 << (n - 1)
    out = []
    for _, rows in sorted(level.items()):
        leq = [(1 << n) - 1] + [r << 1 | 1 << (i + 1) | top for i, r in enumerate(rows)] + [top]
        out.append(FiniteLattice(labels, leq))
    return tuple(out)
