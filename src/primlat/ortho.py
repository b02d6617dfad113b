"""Orthocomplementation, Sasaki maps, negation taxonomy, and the
orthogonality / commutes / center relations."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    IDENTITY_ROW,
    FiniteLattice,
    LatticeError,
    bits,
    distributive_by_identity,
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
    for i in range(lat.n):
        if perm[perm[i]] != i:
            raise OrthoError("involution", lat.labels[i])
        if lat.meet_i(i, perm[i]) != lat.bottom_i:
            raise OrthoError("non-contradiction", lat.labels[i])
    for i in range(lat.n):
        for j in bits(lat.leq_rows[i]):
            if not lat.leq_i(perm[j], perm[i]):
                raise OrthoError("antitone", (lat.labels[i], lat.labels[j]))
    # derived consequences of a valid orthocomplement
    assert perm[lat.bottom_i] == lat.top_i
    assert perm[lat.top_i] == lat.bottom_i
    for i in range(lat.n):
        assert lat.join_i(i, perm[i]) == lat.top_i, "excluded middle"
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


NEGATION_CLASSES = (
    "subminimal",
    "minimal",
    "intuitionistic",
    "fuzzy",
    "de_morgan",
    "kleene",
    "ortho",
    "orthomodular",
)


@dataclass(frozen=True)
class NegationMap:
    lattice: FiniteLattice
    neg: dict
    classification: frozenset

    def __contains__(self, cls):
        return cls in self.classification


def classify_negation(lattice: FiniteLattice, neg_map) -> NegationMap:
    """Evaluate every axiom bundle of the negation taxonomy.

    The result is the full satisfied set (the taxonomy is not a chain).
    Theorem consequences for whichever classes hold are asserted on the way
    out: boundary conditions, De Morgan inequalities/equalities, excluded
    middle and the Kleene condition for ortho negations.
    """
    lat = lattice
    perm = _perm(lat, neg_map)
    n, b, t = lat.n, lat.bottom_i, lat.top_i

    antitone = all(
        lat.leq_i(perm[j], perm[i]) for i in range(n) for j in bits(lat.leq_rows[i])
    )
    weak_dn = all(lat.leq_i(i, perm[perm[i]]) for i in range(n))
    non_contra = all(lat.meet_i(i, perm[i]) == b for i in range(n))
    involutive = all(perm[perm[i]] == i for i in range(n))
    lows = {lat.meet_i(i, perm[i]) for i in range(n)}
    highs = {lat.join_i(j, perm[j]) for j in range(n)}
    kleene_cond = all(lat.leq_i(lo, hi) for lo in lows for hi in highs)

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
            # a <= b elementwise iff a ∧ b == a
            assert lat.pairwise(mt, join_neg, neg_meet) == join_neg[:n]
            assert lat.pairwise(mt, neg_join, meet_neg) == neg_join[:n]
            if "de_morgan" in cls:
                assert neg_join == meet_neg and neg_meet == join_neg
    if "ortho" in cls:
        assert perm[b] == t and perm[t] == b
        for i in range(n):
            assert lat.join_i(i, perm[i]) == t
        assert kleene_cond
    return NegationMap(lat, dict(neg_map), frozenset(cls))


# ---------------------------------------------------------------------------
# relations


@dataclass(frozen=True)
class RelationReport:
    orthogonal: frozenset  # unordered pairs, stored index-sorted
    commutes: frozenset  # ordered pairs
    center: tuple


def relations(lattice: FiniteLattice, neg_map) -> RelationReport:
    """Orthogonality, commutes, and center induced by a negation map.

    x ⊥ y iff x <= ¬y (unordered; symmetric for any minimal negation);
    x ⊙ y iff x == (x∧y) ∨ (x∧¬y); the center collects the x commuting
    with every y.
    """
    lat = lattice
    perm = _perm(lat, neg_map)
    orth = set()
    for i in range(lat.n):
        for j in range(lat.n):
            if lat.leq_i(i, perm[j]):
                a, b = min(i, j), max(i, j)
                orth.add((lat.labels[a], lat.labels[b]))
    commutes = set()
    central = []
    for i in range(lat.n):
        all_comm = True
        for j in range(lat.n):
            if lat.join_i(lat.meet_i(i, j), lat.meet_i(i, perm[j])) == i:
                commutes.add((lat.labels[i], lat.labels[j]))
            else:
                all_comm = False
        if all_comm:
            central.append(lat.labels[i])
    return RelationReport(frozenset(orth), frozenset(commutes), tuple(central))


def relations_of(ol: OrthoLattice) -> RelationReport:
    return relations(ol.lattice, ol.ortho)


# ---------------------------------------------------------------------------
# involution search (used for "no orthocomplement exists" style results)


def involutions(n: int):
    """All involutive permutations of range(n)."""

    def rec(remaining):
        if not remaining:
            yield {}
            return
        first = remaining[0]
        rest = remaining[1:]
        for sub in rec(rest):
            out = dict(sub)
            out[first] = first
            yield out
        for k, other in enumerate(rest):
            for sub in rec(rest[:k] + rest[k + 1 :]):
                out = dict(sub)
                out[first] = other
                out[other] = first
                yield out

    yield from rec(list(range(n)))


def all_orthocomplements(lattice: FiniteLattice):
    """Yield every involution satisfying the orthocomplement axioms."""
    lat = lattice
    if lat.n == 0:
        return
    b = lat.bottom_i
    for perm in involutions(lat.n):
        ok = all(lat.meet_i(i, perm[i]) == b for i in range(lat.n))
        if ok:
            for i in range(lat.n):
                for j in bits(lat.leq_rows[i]):
                    if not lat.leq_i(perm[j], perm[i]):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            yield {lat.labels[i]: lat.labels[perm[i]] for i in range(lat.n)}


def find_orthocomplement(lattice: FiniteLattice):
    """First valid orthocomplement map in deterministic search order, or None."""
    for mapping in all_orthocomplements(lattice):
        return mapping
    return None


def interval_sublattice(lat: FiniteLattice, lo, hi) -> FiniteLattice:
    """The interval [lo, hi] with induced order, as its own lattice."""
    i, j = lat.index(lo), lat.index(hi)
    members = [k for k in range(lat.n) if lat.leq_i(i, k) and lat.leq_i(k, j)]
    sub = lat.subposet([lat.labels[k] for k in members])
    return FiniteLattice(sub.labels, sub.leq_rows)


def central_decomposition(ol: OrthoLattice, c):
    """θ(x) = (x∧c, x∧c') as a map onto [0,c] × [0,c'].

    Returns (mapping, interval_below_c, interval_below_c_comp).  The caller
    checks order-isomorphism; meaningful when every x commutes with c.
    """
    lat = ol.lattice
    ci = lat.index(c)
    cpi = ol.comp_i(ci)
    lo = lat.labels[lat.bottom_i]
    left = interval_sublattice(lat, lo, c)
    right = interval_sublattice(lat, lo, lat.labels[cpi])
    theta = {
        lab: (lat.labels[lat.meet_i(k, ci)], lat.labels[lat.meet_i(k, cpi)])
        for k, lab in enumerate(lat.labels)
    }
    return theta, left, right
