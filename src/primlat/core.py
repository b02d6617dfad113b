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
from operator import eq, getitem

MAX_ELEMENTS = 256
MAX_ATOMS = MAX_ELEMENTS.bit_length() - 1  # the largest 2^N the tables hold, one element per byte
IDENTITY_ROW = bytes(range(MAX_ELEMENTS))  # the padded row of the identity map


class LatticeError(ValueError):
    """Input violates an order axiom or references undeclared elements."""


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_size(n):
    if n > MAX_ELEMENTS:
        raise LatticeError(f"{n} elements exceed the supported maximum of {MAX_ELEMENTS}")


def _closure(rows):
    """Reflexive-transitive closure of bitmask rows, in place (Warshall)."""
    n = len(rows)
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        kbit = 1 << k
        for i in range(n):
            if rows[i] & kbit:
                rows[i] |= rows[k]
    return rows


class FinitePoset:
    """Immutable finite ordered set.

    ``labels`` is the declared element order (used for all tie-breaking and
    deterministic output); ``leq`` holds one bitmask row per element.
    """

    is_lattice = False

    def __init__(self, labels, leq):
        self.labels = tuple(labels)
        self.leq_rows = tuple(leq)
        self.n = len(self.labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != self.n:
            raise LatticeError("duplicate element label")

    @classmethod
    def from_covers(cls, labels, covers):
        """Build from cover pairs (a, b) meaning b covers a.

        The order is the reflexive-transitive closure of the cover pairs;
        a cycle among distinct elements is an antisymmetry violation.
        """
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise LatticeError("duplicate element label")
        rows = [0] * len(labels)
        for a, b in covers:
            if a not in index:
                raise LatticeError(f"unknown element {a!r} in cover pair")
            if b not in index:
                raise LatticeError(f"unknown element {b!r} in cover pair")
            rows[index[a]] |= 1 << index[b]
        _closure(rows)
        n = len(labels)
        for i in range(n):
            for j in bits(rows[i]):
                if j != i and rows[j] >> i & 1:
                    raise LatticeError(
                        f"antisymmetry violation: cycle through {labels[i]!r} and {labels[j]!r}"
                    )
        return cls(labels, rows)

    @classmethod
    def from_leq(cls, labels, pairs):
        """Build from explicit <= pairs (already including implied ones is fine).

        The pairs go through the same closure and antisymmetry check as
        cover pairs, which they need not be.
        """
        return cls.from_covers(labels, pairs)

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
        out = []
        for i in range(self.n):
            strict = self.leq_rows[i] & ~(1 << i)
            for j in bits(strict):
                # j covers i iff no k satisfies i < k < j
                between = strict & self.geq_rows[j] & ~(1 << j)
                if between == 0:
                    out.append((i, j))
        return tuple(out)

    @cached_property
    def covers(self):
        return tuple((self.labels[i], self.labels[j]) for i, j in self.covers_i)

    @cached_property
    def _cover_up(self):
        up = [0] * self.n
        for i, j in self.covers_i:
            up[i] |= 1 << j
        return tuple(up)

    @cached_property
    def _cover_down(self):
        down = [0] * self.n
        for i, j in self.covers_i:
            down[j] |= 1 << i
        return tuple(down)

    @cached_property
    def topo_order(self):
        """Indices ordered so that smaller elements come first."""
        return tuple(sorted(range(self.n), key=lambda i: (bin(self.geq_rows[i]).count("1"), i)))

    def dual(self):
        return FinitePoset(self.labels, self.geq_rows)

    def subposet(self, sub_labels):
        """Induced order on a subset of the carrier."""
        idx = [self.index(a) for a in sub_labels]
        rows = []
        for i in idx:
            row = 0
            for pos, j in enumerate(idx):
                if self.leq_i(i, j):
                    row |= 1 << pos
            rows.append(row)
        return FinitePoset(sub_labels, rows)

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

    def __init__(self, labels, leq, tables=None):
        super().__init__(labels, leq)
        if tables is None:
            join, meet, witness = self.lattice_tables()
            if witness is not None:
                raise LatticeError(f"not a lattice: {witness[0]!r}, {witness[1]!r} have {witness[2]}")
            tables = (join, meet)
        self.join_table, self.meet_table = tables

    @classmethod
    def from_covers(cls, labels, covers):
        labels = tuple(labels)
        _check_size(len(labels))  # before the order is closed
        poset = FinitePoset.from_covers(labels, covers)
        return cls(poset.labels, poset.leq_rows)

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
        return FiniteLattice(poset.labels, poset.leq_rows, tables=(join, meet))
    return poset


def distributive_triple(lat: FiniteLattice, x, y, z) -> bool:
    """x ∧ (y ∨ z) == (x ∧ y) ∨ (x ∧ z) for the given elements."""
    i, j, k = lat.index(x), lat.index(y), lat.index(z)
    return lat.meet_i(i, lat.join_i(j, k)) == lat.join_i(lat.meet_i(i, j), lat.meet_i(i, k))


# ---------------------------------------------------------------------------
# classification


class PropertyReport:
    """Structural classification of one finite lattice.

    Modularity and distributivity are computed twice: by the defining
    identities and by a complete forbidden-sublattice search (pentagon and
    diamond).  Construction fails if the two routes ever disagree.
    """

    def __init__(self, lat: FiniteLattice):
        if lat.n == 0:
            raise LatticeError("cannot classify the empty lattice")
        self.lattice = lat
        self.is_lattice = True
        self.is_bounded = True
        self.bottom = lat.bottom
        self.top = lat.top
        self.atoms = tuple(lat.labels[i] for i in lat.atoms_i)
        self.anti_atoms = tuple(lat.labels[i] for i in sorted(bits(lat._cover_down[lat.top_i])))
        self.height_of = {lat.labels[i]: lat.heights[i] for i in range(lat.n)}
        self.lattice_height = lat.heights[lat.top_i]
        self.is_atomic = self._atomic(lat)
        self.is_anti_atomic = self._anti_atomic(lat)
        self.length = max(lat.heights, default=0)

        chains, antichain = _chain_partition(lat)
        self.min_chain_partition = tuple(tuple(lat.labels[i] for i in c) for c in chains)
        self.max_antichain = tuple(lat.labels[i] for i in antichain)
        self.width = len(chains)
        assert len(antichain) == self.width, "chain cover and antichain certificates disagree"
        covered = sorted(i for c in chains for i in c)
        assert covered == list(range(lat.n)), "chain partition must cover the carrier"

        self.is_modular = modular_by_identity(lat)
        self.n5_witness = _find_pentagon(lat)
        assert self.is_modular == (self.n5_witness is None), "modularity routes disagree"

        self.is_distributive = distributive_by_identity(lat)
        m3 = _find_diamond(lat)
        self.m3_witness = m3
        assert self.is_distributive == (self.n5_witness is None and m3 is None), (
            "distributivity routes disagree"
        )
        if self.is_distributive:
            assert self.is_modular, "distributive lattice classified non-modular"
        if not self.is_distributive:
            self.distributive_witness = (
                ("N5",) + self.n5_witness if self.n5_witness else ("M3",) + m3
            )
        else:
            self.distributive_witness = None

        self.complements_of = {
            lat.labels[i]: tuple(lat.labels[j] for j in comp)
            for i, comp in enumerate(complements_i(lat))
        }
        counts = {len(v) for v in self.complements_of.values()}
        if 0 in counts:
            self.complementation_class = "non-complemented"
        elif counts == {1}:
            self.complementation_class = "uniquely"
        else:
            self.complementation_class = "multiply"
        self.is_complemented = 0 not in counts
        self.is_boolean = self.is_bounded and self.is_distributive and self.is_complemented

    @staticmethod
    def _atomic(lat):
        for i in range(lat.n):
            if i == lat.bottom_i:
                continue
            if lat.join_all_i([a for a in lat.atoms_i if lat.leq_i(a, i)]) != i:
                return False
        return True

    @staticmethod
    def _anti_atomic(lat):
        antis = list(bits(lat._cover_down[lat.top_i]))
        for i in range(lat.n):
            if i == lat.top_i:
                continue
            if lat.meet_all_i([a for a in antis if lat.leq_i(i, a)]) != i:
                return False
        return True

    @cached_property
    def modular_pairs(self):
        """The relation M: (x, y) with a <= y => y ∧ (x ∨ a) == (y ∧ x) ∨ a.

        The a <= y are exactly the y ∧ z over all z, so each pair is one
        comparison of translated rows.
        """
        lat = self.lattice
        jn, mt = lat.join_table, lat.meet_table
        pairs = set()
        for x in range(lat.n):
            for y in range(lat.n):
                my = mt[y]
                if my.translate(jn[x]).translate(my) == my.translate(jn[my[x]]):
                    pairs.add((lat.labels[x], lat.labels[y]))
        return frozenset(pairs)

    @cached_property
    def distributive_triples(self):
        lat = self.lattice
        jn, mt, L = lat.join_table, lat.meet_table, lat.labels
        out = set()
        for x in range(lat.n):
            mx = mt[x]
            for y in range(lat.n):
                # over z: x ∧ (y ∨ z) against (x ∧ y) ∨ (x ∧ z)
                same = map(eq, jn[y].translate(mx), mx.translate(jn[mx[y]]))
                out.update((L[x], L[y], L[z]) for z in itertools.compress(range(lat.n), same))
        return frozenset(out)


def modular_by_identity(lat: FiniteLattice) -> bool:
    """x <= y  =>  x ∨ (z ∧ y) == (x ∨ z) ∧ y, one row comparison per (x, y)."""
    jn, mt = lat.join_table, lat.meet_table
    for x in range(lat.n):
        jx = jn[x]
        for y in bits(lat.leq_rows[x]):
            if mt[y].translate(jx) != jx.translate(mt[y]):
                return False
    return True


def distributive_by_identity(lat: FiniteLattice) -> bool:
    """x ∧ (y ∨ z) == (x ∧ y) ∨ (x ∧ z), one row comparison per (x, y)."""
    jn, mt = lat.join_table, lat.meet_table
    for x in range(lat.n):
        mx = mt[x]
        for y in range(lat.n):
            if jn[y].translate(mx) != mx.translate(jn[mx[y]]):
                return False
    return True


def complements_i(lat: FiniteLattice):
    """Per element, the indices of its complements."""
    n, b, t = lat.n, lat.bottom_i, lat.top_i
    return [
        [j for j, (m, u) in enumerate(zip(meets[:n], joins[:n])) if m == b and u == t]
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
        assert not lat.leq_i(a, b) and not lat.leq_i(b, a), "antichain certificate broken"
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
    (a, b) is the witness.
    """
    n, up, down = lat.n, lat.leq_rows, lat.geq_rows
    jn, mt = lat.join_table, lat.meet_table
    above = [mark_table(row) for row in up]
    for a in range(n):
        below_a, ja = mark_table(down[a]), jn[a]
        for b in bits(up[a] & ~(1 << a)):
            ps = marked(mt[b], n, below_a) & marked(ja, n, above[b])
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
# composition


def compose(p: FinitePoset, q, op: str, max_size: int = 4096) -> FinitePoset:
    """Combine two posets; ``dual`` ignores ``q``.

    Product labels are (p, q) pairs; exponential labels are tuples of
    q-labels listed in p's element order.
    """
    if op == "dual":
        return p.dual()
    if q is None:
        raise LatticeError(f"operation {op!r} needs two posets")
    if op in ("direct-sum", "ordinal-sum"):
        if set(p.labels) & set(q.labels):
            raise LatticeError("carriers must be disjoint")
        labels = p.labels + q.labels
        rows = [r for r in p.leq_rows]
        rows += [r << p.n for r in q.leq_rows]
        if op == "ordinal-sum":
            upper = ((1 << q.n) - 1) << p.n
            for i in range(p.n):
                rows[i] |= upper
        return FinitePoset(labels, rows)
    if op in ("direct-product", "ordinal-product"):
        if p.n * q.n > max_size:
            raise LatticeError("size cap exceeded for product")
        labels = tuple((a, b) for a in p.labels for b in q.labels)
        rows = []
        for i in range(p.n):
            for j in range(q.n):
                row = 0
                pos = 0
                for k in range(p.n):
                    for l in range(q.n):
                        if op == "direct-product":
                            ok = p.leq_i(i, k) and q.leq_i(j, l)
                        else:
                            ok = (i != k and p.leq_i(i, k)) or (i == k and q.leq_i(j, l))
                        if ok:
                            row |= 1 << pos
                        pos += 1
                rows.append(row)
        return FinitePoset(labels, rows)
    if op == "exponential":
        if q.n**p.n > max_size:
            raise LatticeError("size cap exceeded for exponential")
        maps = []
        for values in itertools.product(range(q.n), repeat=p.n):
            if all(
                q.leq_i(values[i], values[j])
                for i in range(p.n)
                for j in bits(p.leq_rows[i])
            ):
                maps.append(values)
        labels = tuple(tuple(q.labels[v] for v in values) for values in maps)
        rows = []
        for f in maps:
            row = 0
            for pos, g in enumerate(maps):
                if all(q.leq_i(f[i], g[i]) for i in range(p.n)):
                    row |= 1 << pos
            rows.append(row)
        return FinitePoset(labels, rows)
    raise LatticeError(f"unknown composition {op!r}")


# ---------------------------------------------------------------------------
# isomorphism


def _invariants(p: FinitePoset):
    down = [bin(c).count("1") for c in p.geq_rows]
    up = [bin(r).count("1") for r in p.leq_rows]
    cov_up = [bin(m).count("1") for m in p._cover_up]
    cov_down = [bin(m).count("1") for m in p._cover_down]
    return [(down[i], up[i], cov_up[i], cov_down[i]) for i in range(p.n)]


def is_isomorphic(p: FinitePoset, q: FinitePoset):
    """Order-preserving bijection with order-preserving inverse, or None.

    Deterministic for fixed input orderings: candidates are tried in
    declared element order.
    """
    if p.n != q.n:
        return None
    inv_p, inv_q = _invariants(p), _invariants(q)
    if sorted(inv_p) != sorted(inv_q):
        return None
    order = sorted(range(p.n), key=lambda i: (inv_p[i], i))
    assigned = [-1] * p.n
    used = [False] * q.n

    def extend(k):
        if k == p.n:
            return True
        i = order[k]
        for j in range(q.n):
            if used[j] or inv_q[j] != inv_p[i]:
                continue
            ok = True
            for kk in range(k):
                i2 = order[kk]
                j2 = assigned[i2]
                if p.leq_i(i, i2) != q.leq_i(j, j2) or p.leq_i(i2, i) != q.leq_i(j2, j):
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                assigned[i] = -1
                used[j] = False
        return False

    if not extend(0):
        return None
    return {p.labels[i]: q.labels[assigned[i]] for i in range(p.n)}


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


def _canonical_key(rows, k):
    """Minimum relation bitstring over middle permutations, invariant-pruned."""
    cols = [0] * k
    for i in range(k):
        for j in bits(rows[i]):
            cols[j] |= 1 << i
    prof = [(bin(rows[i]).count("1"), bin(cols[i]).count("1")) for i in range(k)]
    groups = {}
    for i in range(k):
        groups.setdefault(prof[i], []).append(i)
    ordered_groups = [groups[key] for key in sorted(groups)]
    best = None
    for perm_parts in itertools.product(*[itertools.permutations(g) for g in ordered_groups]):
        perm = [x for part in perm_parts for x in part]
        pos = {old: new for new, old in enumerate(perm)}
        key = 0
        for old_i in perm:
            for old_j in bits(rows[old_i]):
                key |= 1 << (pos[old_i] * k + pos[old_j])
        if best is None or key < best:
            best = key
    return (tuple(sorted(prof)), best)


def _representative(rows):
    """Relabel a middles' strict order to its least choice tuple.

    The choice tuple lists, for each pair (i, j) with i < j in
    ``itertools.combinations`` order, 0 if i and j are incomparable, 1 if
    i < j and 2 if j < i.  Position 0 takes a middle whose sorted relation
    row is least; the other middles then fall into cells by their relation
    to it (0 < 1 < 2), and each later position takes a middle from the
    first cell and refines every cell by its relation to that middle.
    Ties branch, except between twins (middles with the same elements
    above and below, which an automorphism swaps), and a prefix greater
    than the best found so far is pruned.
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
    return tuple(sum(1 << pos[y] for y in bits(rows[x])) for x in best_order)


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
    (``_atom_upsets``).  Candidates are deduplicated by ``_canonical_key``
    and output follows the sorted keys.  Each class is shown by its least
    choice tuple (``_representative``), which is the first strict order of
    the class in ``itertools.product`` order over the pairs.
    """
    if n < 0 or n > ENUM_CAP:
        raise LatticeError(f"element count {n} outside supported range 0..{ENUM_CAP}")
    if n == 0:
        return (FiniteLattice((), ()),)
    if n == 1:
        return (FiniteLattice(("x0",), (1,)),)
    level = {_canonical_key((), 0): ()}
    for k in range(1, n - 1):
        grown = {}
        for rows in level.values():
            for up in _atom_upsets(rows):
                child = rows + (up,)
                grown.setdefault(_canonical_key(child, k), child)
        level = grown
    labels = tuple(f"x{i}" for i in range(n))
    top = 1 << (n - 1)
    out = []
    for key in sorted(level):
        rows = _representative(level[key])
        leq = [(1 << n) - 1] + [r << 1 | 1 << (i + 1) | top for i, r in enumerate(rows)] + [top]
        out.append(FiniteLattice(labels, leq))
    return tuple(out)
