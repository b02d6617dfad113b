"""Distributivity-gated probability on lattices with negation, and the
comparison against the classical probability definitions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import FiniteLattice, LatticeError, complements_i, distributive_by_identity
from .ortho import _perm, classify_negation


class ProbabilityError(LatticeError):
    def __init__(self, axiom, witness):
        super().__init__(f"probability axiom {axiom!r} fails at {witness!r}")
        self.axiom = axiom
        self.witness = witness


@dataclass(frozen=True)
class ProbabilityAssignment:
    lattice: FiniteLattice
    neg: dict
    p: dict  # label -> Fraction

    def __call__(self, label) -> Fraction:
        return self.p[label]


def _gate(lat: FiniteLattice):
    """Pairs (i, j) whose additivity is switched on.

    The pair must have meet 0 and distribute with every third element in
    both dual senses.  Requiring only the meet form would gate the coatom
    pair of the hexagon while leaving its mirror-image atom pair ungated
    (the meet form cannot see joins), breaking the motivating example on a
    self-dual lattice; the two dual triple relations together restore the
    symmetry.
    """
    n, bot = lat.n, lat.bottom_i
    jn, mt = lat.join_table, lat.meet_table
    gated = set()
    for i in range(n):
        for j in range(n):
            met = mt[i][j]
            if met != bot:
                continue
            # over z: z ∧ (i ∨ j) == (z ∧ i) ∨ (z ∧ j) and z ∨ (i ∧ j) == (z ∨ i) ∧ (z ∨ j)
            if (
                mt[jn[i][j]][:n] == lat.pairwise(jn, mt[i], mt[j])
                and jn[met][:n] == lat.pairwise(mt, jn[i], jn[j])
            ):
                gated.add((i, j))
    return gated


def validate_probability(lattice: FiniteLattice, neg_map, values) -> ProbabilityAssignment:
    """Check the four axioms exhaustively and return the assignment.

    The negation must classify as at least minimal.  The bound
    0 <= p <= 1 follows from the axioms and is asserted; the complement
    identity p(x) = 1 - p(¬x) does not follow on every ortho base (the
    additivity gate can leave complement pairs unconstrained), so on ortho
    bases it is enforced as a fifth validation condition.
    """
    nm = classify_negation(lattice, neg_map)
    if "minimal" not in nm.classification:
        raise ProbabilityError("negation-not-minimal", None)
    lat = lattice
    p = {}
    for lab in lat.labels:
        if lab not in values:
            raise ProbabilityError("totality", lab)
        p[lab] = Fraction(values[lab])
    pi = [p[lab] for lab in lat.labels]
    if pi[lat.bottom_i] != 0:
        raise ProbabilityError("nondegenerate", lat.bottom)
    if pi[lat.top_i] != 1:
        raise ProbabilityError("normalized", lat.top)
    for i in range(lat.n):
        for j in range(lat.n):
            if lat.leq_i(i, j) and pi[i] > pi[j]:
                raise ProbabilityError("monotone", (lat.labels[i], lat.labels[j]))
    for i, j in _gate(lat):
        if pi[lat.join_i(i, j)] != pi[i] + pi[j]:
            raise ProbabilityError("additive", (lat.labels[i], lat.labels[j]))
    for v in pi:
        assert 0 <= v <= 1
    if "ortho" in nm.classification:
        perm = _perm(lat, neg_map)
        for i in range(lat.n):
            if pi[i] != 1 - pi[perm[i]]:
                raise ProbabilityError(
                    "complement-identity", (lat.labels[i], lat.labels[perm[i]])
                )
    return ProbabilityAssignment(lat, dict(neg_map), p)


# ---------------------------------------------------------------------------
# comparison report


@dataclass(frozen=True)
class DefinitionVerdict:
    satisfied: bool
    witness: tuple | None  # (description, elements, lhs, rhs)


@dataclass(frozen=True)
class ProbabilityReport:
    verdicts: dict  # definition name -> DefinitionVerdict

    def __getitem__(self, name):
        return self.verdicts[name]


DEFINITIONS = ("measure-theoretic", "traditional", "generalized", "quantum", "gated")


def probability_report(pa: ProbabilityAssignment) -> ProbabilityReport:
    """Evaluate the assignment against the classical definitions.

    Sigma-additivity is read as pairwise-disjoint additivity, which on a
    finite carrier reduces to the traditional definition plus disjoint
    triples.  On Boolean bases, inclusion-exclusion and union subadditivity
    are asserted outright.
    """
    lat = pa.lattice
    pi = [pa.p[lab] for lab in lat.labels]
    perm = _perm(lat, pa.neg)
    bot, top = lat.bottom_i, lat.top_i
    L = lat.labels

    def pair_additivity(pairs):
        for i, j in pairs:
            lhs = pi[lat.join_i(i, j)]
            rhs = pi[i] + pi[j]
            if lhs != rhs:
                return DefinitionVerdict(False, ("additive", (L[i], L[j]), lhs, rhs))
        return None

    verdicts = {}

    disjoint = [
        (i, j) for i in range(lat.n) for j in range(lat.n) if lat.meet_i(i, j) == bot
    ]
    base = _basic(pi, bot, top, L)

    traditional = base or pair_additivity(disjoint)
    v = traditional
    if v is None:
        for i, j, k in itertools.combinations(range(lat.n), 3):
            if (
                lat.meet_i(i, j) == bot
                and lat.meet_i(i, k) == bot
                and lat.meet_i(j, k) == bot
            ):
                lhs = pi[lat.join_i(lat.join_i(i, j), k)]
                rhs = pi[i] + pi[j] + pi[k]
                if lhs != rhs:
                    v = DefinitionVerdict(False, ("additive", (L[i], L[j], L[k]), lhs, rhs))
                    break
    verdicts["measure-theoretic"] = v or DefinitionVerdict(True, None)
    verdicts["traditional"] = traditional or DefinitionVerdict(True, None)

    v = base
    if v is None:
        for i in range(lat.n):
            for j in range(lat.n):
                lhs = pi[lat.join_i(i, j)]
                rhs = pi[i] + pi[j] - pi[lat.meet_i(i, j)]
                if lhs != rhs:
                    v = DefinitionVerdict(False, ("inclusion-exclusion", (L[i], L[j]), lhs, rhs))
                    break
            if v:
                break
    verdicts["generalized"] = v or DefinitionVerdict(True, None)

    orthogonal = [
        (i, j) for i in range(lat.n) for j in range(lat.n) if lat.leq_i(i, perm[j])
    ]
    verdicts["quantum"] = base or pair_additivity(orthogonal) or DefinitionVerdict(True, None)

    verdicts["gated"] = DefinitionVerdict(True, None)  # established by validation

    if distributive_by_identity(lat) and all(complements_i(lat)):
        for i in range(lat.n):
            for j in range(lat.n):
                assert pi[lat.join_i(i, j)] == pi[i] + pi[j] - pi[lat.meet_i(i, j)]
                assert pi[lat.join_i(i, j)] <= pi[i] + pi[j]
    return ProbabilityReport(verdicts)


def _basic(pi, bot, top, labels):
    if pi[top] != 1:
        return DefinitionVerdict(False, ("normalized", (labels[top],), pi[top], Fraction(1)))
    if any(v < 0 for v in pi):
        k = next(i for i, v in enumerate(pi) if v < 0)
        return DefinitionVerdict(False, ("nonnegative", (labels[k],), pi[k], Fraction(0)))
    return None


def random_boolean_assignment(lattice: FiniteLattice, rng):
    """Random valid assignment on a Boolean base via nonnegative rational
    atom weights, extended to joins of atoms."""
    lat = lattice
    atoms = lat.atoms_i
    weights = [Fraction(rng.randint(0, 20), 1) for _ in atoms]
    total = sum(weights) or Fraction(1)
    weights = [w / total for w in weights]
    values = {}
    for i, lab in enumerate(lat.labels):
        values[lab] = sum(
            (w for a, w in zip(atoms, weights) if lat.leq_i(a, i)), Fraction(0)
        )
    return values
