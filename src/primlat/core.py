"""Finite posets and lattices over opaque element labels.

Order relations are stored densely: row ``i`` of ``leq`` is an integer
bitmask whose bit ``j`` says ``elements[i] <= elements[j]``.  Every index map
(the join and meet rows of a lattice, a negation) is one padded byte row: a
256-entry ``bytes`` whose entry ``k`` is the image of element ``k`` for
``k < n`` and ``k`` itself beyond.  Such a row is a ``bytes.translate``
table, so an identity over every third element runs as C-level calls, and a
chain of translations keeps the padding fixed.  One byte per element index
caps lattices at ``MAX_ELEMENTS``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import eq, getitem

MAX_ELEMENTS = 256
IDENTITY_ROW = bytes(range(MAX_ELEMENTS))  # the padded row of the identity map


class LatticeError(ValueError):
    """Input violates an order axiom or references undeclared elements."""


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    def label(self, i):
        return self.labels[i]

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
        if n > MAX_ELEMENTS:
            raise LatticeError(f"{n} elements exceed the supported maximum of {MAX_ELEMENTS}")
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
    """
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


def _find_pentagon(lat):
    """Complete N5-sublattice search.

    A pentagon exists iff some a < b and p satisfy a∧p == b∧p and
    a∨p == b∨p with all five elements distinct; the five are then closed
    under the lattice operations and order-isomorphic to N5.
    """
    for a in range(lat.n):
        for b in bits(lat.leq_rows[a] & ~(1 << a)):
            for p in range(lat.n):
                m = lat.meet_i(a, p)
                if m != lat.meet_i(b, p):
                    continue
                j = lat.join_i(a, p)
                if j != lat.join_i(b, p):
                    continue
                if len({m, a, b, p, j}) == 5:
                    L = lat.labels
                    return (L[m], L[a], L[b], L[p], L[j])
    return None


def _find_diamond(lat):
    """Complete M3-sublattice search over unordered middle triples."""
    for p, q, r in itertools.combinations(range(lat.n), 3):
        m = lat.meet_i(p, q)
        if lat.meet_i(p, r) != m or lat.meet_i(q, r) != m:
            continue
        j = lat.join_i(p, q)
        if lat.join_i(p, r) != j or lat.join_i(q, r) != j:
            continue
        if len({m, p, q, r, j}) == 5:
            L = lat.labels
            return (L[m], L[p], L[q], L[r], L[j])
    return None


def classify(lat: FiniteLattice) -> PropertyReport:
    return PropertyReport(lat)


# ---------------------------------------------------------------------------
# composition


COMPOSE_OPS = (
    "direct-sum",
    "direct-product",
    "ordinal-sum",
    "ordinal-product",
    "exponential",
    "dual",
)


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


ENUM_CAP = 7


def _strict_orders(k):
    """All transitive antisymmetric strict orders on range(k), as bit rows."""
    if k == 0:
        return [()]
    pairs = list(itertools.combinations(range(k), 2))
    out = []
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = [0] * k
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rows[i] |= 1 << j
            elif c == 2:
                rows[j] |= 1 << i
        ok = True
        for a in range(k):
            reach = rows[a]
            for b in bits(rows[a]):
                if rows[b] & ~reach:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(rows))
    return out


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


def enumerate_lattices(n: int, cap: int = ENUM_CAP):
    """One canonical FiniteLattice per isomorphism class on n elements.

    Every lattice with n >= 2 elements has distinct bottom and top; the
    induced strict order on the n-2 middle elements determines it, so the
    search runs over labeled strict orders on the middles with a canonical
    key for deduplication.  Output order follows the sorted canonical keys.
    """
    if n < 0 or n > cap:
        raise LatticeError(f"element count {n} outside supported range 0..{cap}")
    if n == 0:
        return (FiniteLattice((), ()),)
    if n == 1:
        return (FiniteLattice(("x0",), (1,)),)
    k = n - 2
    seen = {}
    for rows in _strict_orders(k):
        # adjoin bottom (index 0) and top (index n-1) around the middles
        leq = [0] * n
        full = (1 << n) - 1
        leq[0] = full
        leq[n - 1] = 1 << (n - 1)
        for i in range(k):
            row = 1 << (i + 1) | 1 << (n - 1)
            for j in bits(rows[i]):
                row |= 1 << (j + 1)
            leq[i + 1] = row
        poset = FinitePoset(tuple(f"x{i}" for i in range(n)), leq)
        join, meet, witness = poset.lattice_tables()
        if witness is not None:
            continue
        key = _canonical_key(rows, k)
        if key not in seen:
            seen[key] = FiniteLattice(poset.labels, leq, tables=(join, meet))
    return tuple(lat for _, lat in sorted(seen.items(), key=lambda kv: kv[0]))
