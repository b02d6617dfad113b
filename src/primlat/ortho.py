"""Orthocomplementation, Sasaki maps, the negation taxonomy, and the
orthogonality (one kernel, ``orthogonal_rows``) and center of a negation."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    IDENTITY_ROW,
    FiniteLattice,
    LatticeError,
    bits,
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

    ``perm`` maps indices to indices: a padded byte row or an index dict.
    """
    for i in range(lat.n):
        for j in bits(lat.leq_rows[i]):
            if not lat.leq_i(perm[j], perm[i]):
                return i, j
    return None


class OrthoLattice:
    """Bounded lattice with a validated orthocomplement involution."""

    def __init__(self, lattice: FiniteLattice, ortho_map):
        self.lattice = lattice
        self.ortho = dict(ortho_map)
        self._perm = _perm(lattice, self.ortho)

    def comp_i(self, i):
        return self._perm[i]

    def comp(self, a):
        return self.ortho[a]

    def __repr__(self):
        return f"OrthoLattice({self.lattice!r})"


def attach_ortho(lattice: FiniteLattice, ortho_map) -> OrthoLattice:
    """Validate an orthocomplement map and wrap the lattice with it.

    Checks the three defining axioms (involution, non-contradiction,
    antitonicity) with witnesses, then asserts the derived consequences:
    swapped bounds, both De Morgan laws, and the excluded middle.
    """
    ol = OrthoLattice(lattice, ortho_map)
    lat, perm = lattice, ol._perm
    bottom, top = lat.bottom_i, lat.top_i  # the empty lattice has neither, and raises here
    for i in range(lat.n):
        if perm[perm[i]] != i:
            raise OrthoError("involution", lat.labels[i])
        if lat.meet_i(i, perm[i]) != bottom:
            raise OrthoError("non-contradiction", lat.labels[i])
    failure = _antitone_failure(lat, perm)
    if failure is not None:
        raise OrthoError("antitone", (lat.labels[failure[0]], lat.labels[failure[1]]))
    # derived consequences of a valid orthocomplement
    assert perm[bottom] == top
    assert perm[top] == bottom
    for i in range(lat.n):
        assert lat.join_i(i, perm[i]) == top, "excluded middle"
    for neg_join, meet_neg, neg_meet, join_neg in _de_morgan_rows(lat, perm):
        assert neg_join == meet_neg and neg_meet == join_neg, "De Morgan"
    return ol


def sasaki(ol: OrthoLattice, x, y):
    """(y ∨ x') ∧ x — projection of y onto x."""
    lat = ol.lattice
    i, j = lat.index(x), lat.index(y)
    return lat.labels[lat.meet_i(lat.join_i(j, ol.comp_i(i)), i)]


def _orthomodular_identity(lat, perm):
    for i in range(lat.n):
        for j in bits(lat.leq_rows[i]):
            if lat.join_i(i, lat.meet_i(perm[i], j)) != j:
                return False
    return True


def ortho_class(ol: OrthoLattice) -> frozenset:
    """Which of the nested orthocomplemented classes the lattice sits in.

    An orthocomplemented lattice is complemented, so it is Boolean exactly
    when it is distributive.
    """
    lat = ol.lattice
    flags = {"orthocomplemented"}
    if _orthomodular_identity(lat, ol._perm):
        flags.add("orthomodular")
    if modular_by_identity(lat):
        flags.add("modular-orthocomplemented")
    if distributive_by_identity(lat):
        flags.add("boolean")
    # the classes form a chain
    if "boolean" in flags:
        assert "modular-orthocomplemented" in flags
    if "modular-orthocomplemented" in flags:
        assert "orthomodular" in flags
    return frozenset(flags)


# ---------------------------------------------------------------------------
# negation taxonomy


def classify_negation(lattice: FiniteLattice, neg_map) -> frozenset:
    """Evaluate every axiom bundle of the negation taxonomy.

    The result is the set of satisfied class names (the taxonomy is not a
    chain).  Theorem consequences for whichever classes hold are asserted
    on the way out: boundary conditions, De Morgan inequalities/equalities,
    excluded middle and the Kleene condition for ortho negations.
    """
    lat = lattice
    perm = _perm(lat, neg_map)
    n, b, t = lat.n, lat.bottom_i, lat.top_i

    antitone = _antitone_failure(lat, perm) is None
    weak_dn = all(lat.leq_i(i, perm[perm[i]]) for i in range(n))
    non_contra = all(lat.meet_i(i, perm[i]) == b for i in range(n))
    involutive = all(perm[perm[i]] == i for i in range(n))
    lows = {lat.meet_i(i, perm[i]) for i in range(n)}
    highs = {lat.join_i(j, perm[j]) for j in range(n)}
    # every low <= every high iff their join <= their meet
    kleene_cond = lat.leq_i(lat.join_all_i(lows), lat.meet_all_i(highs))

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
    if de_morgan and kleene_cond:
        cls.add("kleene")
    ortho = de_morgan and non_contra
    if ortho:
        cls.add("ortho")
    if ortho and _orthomodular_identity(lat, perm):
        cls.add("orthomodular")

    if "fuzzy" in cls:
        assert perm[b] == t
    if "intuitionistic" in cls:
        assert perm[t] == b and perm[b] == t and "fuzzy" in cls
    if "minimal" in cls:
        mt = lat.meet_table
        for neg_join, meet_neg, neg_meet, join_neg in _de_morgan_rows(lat, perm):
            if "de_morgan" in cls:
                # the equalities imply both inequalities, as x ∧ x == x
                assert neg_join == meet_neg and neg_meet == join_neg
            else:
                # a <= b elementwise iff a ∧ b == a
                assert lat.pairwise(mt, join_neg, neg_meet) == join_neg[:n]
                assert lat.pairwise(mt, neg_join, meet_neg) == neg_join[:n]
    if "ortho" in cls:
        assert perm[b] == t and perm[t] == b
        for i in range(n):
            assert lat.join_i(i, perm[i]) == t
        assert kleene_cond
    return frozenset(cls)


# ---------------------------------------------------------------------------
# relations


def orthogonal_rows(lat: FiniteLattice, perm):
    """Row i is the bitset of the j with i <= ¬j; ``perm`` is a padded byte row."""
    return [marked(perm, lat.n, mark_table(row)) for row in lat.leq_rows]


@dataclass(frozen=True)
class RelationReport:
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
