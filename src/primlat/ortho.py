"""Orthocomplementation, Sasaki maps, the negation taxonomy (one evaluator,
``_classes``, for ``attach_ortho``, ``classify_negation`` and probability),
and the orthogonality (one kernel, ``orthogonal_rows``) and center of a negation."""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    IDENTITY_ROW,
    FiniteLattice,
    InvariantError,
    LatticeError,
    Record,
    distributive_by_identity,
    mark_table,
    marked,
    modular_by_identity,
)


class OrthoError(LatticeError):
    """An orthocomplement or negation axiom failed; carries a witness."""

    def __init__(self, axiom, witness):
        super().__init__(f"{axiom} fails at {witness!r}")
        self.axiom = axiom
        self.witness = witness


def _perm(lat: FiniteLattice, neg_map):
    """The padded byte row of a label map, after checking it names every element."""
    for lab in lat.labels:
        if lab not in neg_map:
            raise OrthoError("totality", lab)
    return bytes(lat.index(neg_map[lab]) for lab in lat.labels) + IDENTITY_ROW[lat.n :]


def _de_morgan_rows(lat: FiniteLattice, neg):
    """Per i, four rows over j: ¬(i∨j), ¬i∧¬j, ¬(i∧j), ¬i∨¬j.

    ``neg`` is a padded byte row; each result row is one ``bytes.translate``
    call on the lattice's operation rows.
    """
    jn, mt = lat.join_table, lat.meet_table
    for i in range(lat.n):
        yield (
            jn[i].translate(neg),
            neg.translate(mt[neg[i]]),
            mt[i].translate(neg),
            neg.translate(jn[neg[i]]),
        )


def _antitone_failure(lat: FiniteLattice, perm):
    """The first pair (i, j) with i <= j but not ¬j <= ¬i, or None.

    ``perm`` is a padded byte row.  Per i, the j with ¬j <= ¬i are ``perm``
    marked by the down-set of ¬i, so the failing j are one row of bits.
    """
    n, up, down = lat.n, lat.leq_rows, lat.geq_rows
    for i in range(n):
        failing = up[i] & ~marked(perm, n, mark_table(down[perm[i]]))
        if failing:
            return i, (failing & -failing).bit_length() - 1
    return None


class OrthoLattice(Record):
    """Bounded lattice with an orthocomplement: the label map and its padded
    byte row.  The constructor checks only that the map is total;
    ``attach_ortho`` checks the axioms and is the way to build one."""

    __slots__ = ("lattice", "ortho", "perm")
    _compared = ("lattice", "perm")

    def __init__(self, lattice: FiniteLattice, ortho_map):
        ortho = dict(ortho_map)
        super().__init__(lattice, ortho, _perm(lattice, ortho))

    def __reduce__(self):
        return type(self), (self.lattice, self.ortho)

    def comp_i(self, i):
        return self.perm[i]

    def comp(self, a):
        return self.ortho[a]

    def __repr__(self):
        return f"OrthoLattice({self.lattice!r})"


def attach_ortho(lattice: FiniteLattice, ortho_map) -> OrthoLattice:
    """Validate an orthocomplement map and wrap the lattice with it.  A map
    that ``_classes`` puts outside ``ortho`` breaks an axiom, and its
    ``_rows`` name the first: per element involution, then
    non-contradiction; then antitonicity."""
    ol = OrthoLattice(lattice, ortho_map)
    lat, perm = lattice, ol.perm
    if "ortho" not in _classes(lat, perm):
        double, lows, _ = _rows(lat, perm)
        for i in range(lat.n):
            if double[i] != i:
                raise OrthoError("involution", lat.labels[i])
            if lows[i] != lat.bottom_i:
                raise OrthoError("non-contradiction", lat.labels[i])
        i, j = _antitone_failure(lat, perm)
        raise OrthoError("antitone", (lat.labels[i], lat.labels[j]))
    return ol


def sasaki(ol: OrthoLattice, x, y):
    """(y ∨ x') ∧ x — projection of y onto x."""
    lat = ol.lattice
    i, j = lat.index(x), lat.index(y)
    return lat.labels[lat.meet_i(lat.join_i(j, ol.comp_i(i)), i)]


def _orthomodular_identity(lat, perm):
    """Whether i <= j implies i ∨ (¬i ∧ j) == j, for ``perm`` an orthocomplement.

    Checked as: i <= j and ¬i ∧ j == 0 imply j == i, one row per i
    (Kalmbach, Orthomodular Lattices, 1983).  The identity gives j ==
    i ∨ 0 == i.  Conversely, for i <= j let k = i ∨ (¬i ∧ j) <= j; by De
    Morgan and non-contradiction ¬k ∧ j == (¬i ∧ j) ∧ ¬(¬i ∧ j) == 0, so
    j == k.
    """
    n, up, mt = lat.n, lat.leq_rows, lat.meet_table
    zero = mark_table(1 << lat.bottom_i)
    return all(marked(mt[perm[i]], n, zero) & up[i] == 1 << i for i in range(n))


def ortho_class(ol: OrthoLattice) -> frozenset:
    """Which of the nested orthocomplemented classes the lattice sits in.

    An orthocomplemented lattice is complemented, so it is Boolean exactly
    when it is distributive.
    """
    lat = ol.lattice
    flags = {"orthocomplemented"}
    if _orthomodular_identity(lat, ol.perm):
        flags.add("orthomodular")
    if modular_by_identity(lat):
        flags.add("modular-orthocomplemented")
    if distributive_by_identity(lat):
        flags.add("boolean")
    # the classes form a chain
    if "boolean" in flags and "modular-orthocomplemented" not in flags:
        raise InvariantError("boolean but not modular-orthocomplemented")
    if "modular-orthocomplemented" in flags and "orthomodular" not in flags:
        raise InvariantError("modular-orthocomplemented but not orthomodular")
    return frozenset(flags)


# ---------------------------------------------------------------------------
# negation taxonomy


def _rows(lat: FiniteLattice, perm):
    """¬¬x, x ∧ ¬x and x ∨ ¬x over x, for ``perm`` a padded byte row."""
    pw = lat.pairwise
    return perm.translate(perm), pw(lat.meet_table, IDENTITY_ROW, perm), pw(lat.join_table, IDENTITY_ROW, perm)


def _classes(lat: FiniteLattice, perm) -> frozenset:
    """The negation classes of the padded byte row ``perm`` but
    ``orthomodular`` (the taxonomy is not a chain), each axiom read off the
    ``_rows``; the consequences of the classes that hold raise
    ``InvariantError``: the bounds, the ortho excluded middle, De Morgan."""
    n, b, t = lat.n, lat.bottom_i, lat.top_i
    double, lows, highs = _rows(lat, perm)

    antitone = _antitone_failure(lat, perm) is None
    involutive = double == IDENTITY_ROW
    # x <= ¬¬x, as x ∧ ¬¬x == x; an involution has ¬¬x == x
    weak_dn = involutive or lat.pairwise(lat.meet_table, IDENTITY_ROW, double) == IDENTITY_ROW[:n]
    non_contra = lows == bytes((b,)) * n

    cls = set()
    if antitone:
        cls.add("subminimal")
    minimal = antitone and weak_dn
    if minimal:
        cls.add("minimal")
    if minimal and non_contra:
        cls.add("intuitionistic")
    if minimal and perm[t] == b:
        cls.add("fuzzy")
    de_morgan = minimal and involutive
    if de_morgan:
        cls.add("de_morgan")
    # every low <= every high iff their join <= their meet; under
    # non-contradiction every low is the bottom
    if de_morgan and (non_contra or lat.leq_i(lat.join_all_i(set(lows)), lat.meet_all_i(set(highs)))):
        cls.add("kleene")
    ortho = de_morgan and non_contra
    if ortho:
        cls.add("ortho")

    if "fuzzy" in cls and perm[b] != t:
        raise InvariantError("fuzzy negation of the bottom is not the top")
    if "intuitionistic" in cls and not (perm[t] == b and perm[b] == t and "fuzzy" in cls):
        raise InvariantError("intuitionistic negation must swap the bounds and be fuzzy")
    # an ortho negation is intuitionistic, so its bounds are swapped
    if ortho:
        # the first entry of x ∨ ¬x that is not the top
        first = n - len(highs.lstrip(bytes((t,))))
        if first < n:
            raise InvariantError(f"excluded middle at {lat.labels[first]!r}")
    if de_morgan:
        # ¬(x ∨ y) == ¬x ∧ ¬y; under an involution the dual law is this one
        # at ¬x, ¬y, and the equalities imply both inequalities
        jn, mt = lat.join_table, lat.meet_table
        if any(jn[i].translate(perm) != perm.translate(mt[perm[i]]) for i in range(n)):
            raise InvariantError("De Morgan")
    elif minimal:
        for neg_join, meet_neg, neg_meet, join_neg in _de_morgan_rows(lat, perm):
            # a <= b elementwise iff a ∧ b == a
            if lat.pairwise(lat.meet_table, join_neg, neg_meet) != join_neg[:n]:
                raise InvariantError("De Morgan inequality ~x | ~y <= ~(x & y)")
            if lat.pairwise(lat.meet_table, neg_join, meet_neg) != neg_join[:n]:
                raise InvariantError("De Morgan inequality ~(x | y) <= ~x & ~y")
    return frozenset(cls)


def classify_negation(lattice: FiniteLattice, neg_map) -> frozenset:
    """Every axiom bundle of the negation taxonomy that ``neg_map`` satisfies."""
    perm = _perm(lattice, neg_map)
    classes = _classes(lattice, perm)
    if "ortho" in classes and _orthomodular_identity(lattice, perm):
        return classes | {"orthomodular"}
    return classes


# ---------------------------------------------------------------------------
# relations


def orthogonal_rows(lat: FiniteLattice, perm):
    """Row i is the bitset of the j with i <= ¬j; ``perm`` is a padded byte row."""
    return [marked(perm, lat.n, mark_table(row)) for row in lat.leq_rows]


class RelationReport(NamedTuple):
    orthogonal_pairs: int  # unordered {x, y}, x = y allowed, with x <= ¬y or y <= ¬x
    center: tuple  # labels of the x commuting with every y


def relations(lattice: FiniteLattice, neg_map) -> RelationReport:
    """Orthogonality and center induced by a negation map, a row per x: the
    y <= ¬x are ``geq_rows[¬x]``, and x commutes with y iff
    x == (x∧y) ∨ (x∧¬y), one ``pairwise`` join over y."""
    lat = lattice
    perm = _perm(lat, neg_map)
    n, jn, mt, geq = lat.n, lat.join_table, lat.meet_table, lat.geq_rows
    orth = orthogonal_rows(lat, perm)
    pairs = sum(((row | geq[perm[i]]) >> i).bit_count() for i, row in enumerate(orth))
    center = tuple(
        lat.labels[i]
        for i in range(n)
        if lat.pairwise(jn, mt[i], perm.translate(mt[i])) == bytes((i,)) * n
    )
    return RelationReport(pairs, center)


def relations_of(ol: OrthoLattice) -> RelationReport:
    return relations(ol.lattice, ol.ortho)
