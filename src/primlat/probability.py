"""Distributivity-gated probability on lattices with negation, and the
comparison against the classical probability definitions."""

from __future__ import annotations

from fractions import Fraction
from operator import le
from typing import NamedTuple

from .core import (
    FiniteLattice,
    InvariantError,
    LatticeError,
    bits,
    complements_i,
    distributive_by_identity,
    mark_table,
    marked,
)
from .ortho import _classes, _perm, orthogonal_rows
from .valuation import common_scale, modular_failure


class ProbabilityError(LatticeError):
    def __init__(self, axiom, witness):
        super().__init__(f"probability axiom {axiom!r} fails at {witness!r}")
        self.axiom = axiom
        self.witness = witness


class ProbabilityAssignment(NamedTuple):
    lattice: FiniteLattice
    neg: dict
    p: dict  # label -> Fraction

    def __call__(self, label) -> Fraction:
        return self.p[label]


def _gated(lat: FiniteLattice, i, j):
    """Whether the additivity of the pair (i, j) is switched on.

    The pair must have meet 0 and distribute with every third element in
    both dual senses.  Requiring only the meet form would gate the coatom
    pair of the hexagon while leaving its mirror-image atom pair ungated
    (the meet form cannot see joins), breaking the motivating example on a
    self-dual lattice; the two dual triple relations together restore the
    symmetry.  The test is symmetric in i and j.
    """
    n, bot = lat.n, lat.bottom_i
    jn, mt = lat.join_table, lat.meet_table
    # over z: z ∧ (i ∨ j) == (z ∧ i) ∨ (z ∧ j) and z ∨ (i ∧ j) == (z ∨ i) ∧ (z ∨ j)
    return (
        mt[i][j] == bot
        and mt[jn[i][j]][:n] == lat.pairwise(jn, mt[i], mt[j])
        and jn[bot][:n] == lat.pairwise(mt, jn[i], jn[j])
    )


def validate_probability(lattice: FiniteLattice, neg_map, values) -> ProbabilityAssignment:
    """Check the four axioms exhaustively and return the assignment.

    The negation must classify as at least minimal.  The bound
    0 <= p <= 1 follows from the axioms and is checked; the complement
    identity p(x) = 1 - p(¬x) does not follow on every ortho base (the
    additivity gate can leave complement pairs unconstrained), so on ortho
    bases it is enforced as a fifth validation condition.  The checks run
    on the values as integers over their common denominator.  Additivity
    walks the disjoint pairs (i, j >= i) in row order and tests the gate
    (``_gated``) only on a pair whose additivity fails.  Both are symmetric
    in i and j, so the first failing gated pair (i, j) by index, as in
    ``probability_report``, always has i <= j and is the witness.
    """
    lat = lattice
    perm = _perm(lat, neg_map)
    classes = _classes(lat, perm)
    if "minimal" not in classes:
        raise ProbabilityError("negation-not-minimal", None)
    p = {}
    for lab in lat.labels:
        if lab not in values:
            raise ProbabilityError("totality", lab)
        p[lab] = Fraction(values[lab])
    pi, one = common_scale([p[lab] for lab in lat.labels])
    if pi[lat.bottom_i] != 0:
        raise ProbabilityError("nondegenerate", lat.bottom)
    if pi[lat.top_i] != one:
        raise ProbabilityError("normalized", lat.top)
    for i in range(lat.n):
        for j in bits(lat.leq_rows[i]):
            if pi[i] > pi[j]:
                raise ProbabilityError("monotone", (lat.labels[i], lat.labels[j]))
    n, jn, mt = lat.n, lat.join_table, lat.meet_table
    zero = mark_table(1 << lat.bottom_i)
    for i in range(n):
        for j in bits(marked(mt[i], n, zero) >> i << i):
            if pi[jn[i][j]] != pi[i] + pi[j] and _gated(lat, i, j):
                raise ProbabilityError("additive", (lat.labels[i], lat.labels[j]))
    for v in pi:
        if not 0 <= v <= one:
            raise InvariantError("probability outside [0, 1] passed the axioms")
    if "ortho" in classes:
        for i in range(lat.n):
            if pi[i] != one - pi[perm[i]]:
                raise ProbabilityError(
                    "complement-identity", (lat.labels[i], lat.labels[perm[i]])
                )
    return ProbabilityAssignment(lat, dict(neg_map), p)


# ---------------------------------------------------------------------------
# comparison report


class DefinitionVerdict(NamedTuple):
    satisfied: bool
    witness: tuple | None  # (description, elements, lhs, rhs)


DEFINITIONS = ("measure-theoretic", "traditional", "generalized", "quantum", "gated")


def probability_report(pa: ProbabilityAssignment) -> dict:
    """Evaluate the assignment against the classical definitions: a
    ``DefinitionVerdict`` per name in ``DEFINITIONS``.

    Sigma-additivity is read as pairwise-disjoint additivity, which on a
    finite carrier reduces to the traditional definition plus disjoint
    triples.  On Boolean bases, inclusion-exclusion and union subadditivity
    are checked outright, raising ``InvariantError`` if either fails.  The
    values are compared as integers over their common denominator D; a
    witness reports its two sides as fractions.
    Disjoint and orthogonal partners are one bitset per element, so the
    disjoint triples i < j < k are the k in ``disjoint[i] & disjoint[j]``.
    One scan of the valuation law (``modular_failure``) serves both the
    generalized verdict and the Boolean-base check.
    """
    lat = pa.lattice
    n, bot, top, L = lat.n, lat.bottom_i, lat.top_i, lat.labels
    jn, mt = lat.join_table, lat.meet_table
    pi, one = common_scale([pa.p[lab] for lab in L])
    perm = _perm(lat, pa.neg)
    failure = modular_failure(lat, pi)

    def violated(what, elems, lhs, rhs):
        return DefinitionVerdict(
            False, (what, tuple(L[k] for k in elems), Fraction(lhs, one), Fraction(rhs, one))
        )

    def pair_additivity(partners):
        for i in range(n):
            for j in bits(partners[i]):
                if pi[jn[i][j]] != pi[i] + pi[j]:
                    return violated("additive", (i, j), pi[jn[i][j]], pi[i] + pi[j])
        return None

    verdicts = {}
    zero = mark_table(1 << bot)
    disjoint = [marked(row, n, zero) for row in mt]
    if pi[top] != one:
        base = violated("normalized", (top,), pi[top], one)
    elif any(v < 0 for v in pi):
        k = next(i for i, v in enumerate(pi) if v < 0)
        base = violated("nonnegative", (k,), pi[k], 0)
    else:
        base = None

    traditional = base or pair_additivity(disjoint)
    v = traditional
    if v is None:
        v = _disjoint_triple_failure(pi, jn, disjoint, violated)
    verdicts["measure-theoretic"] = v or DefinitionVerdict(True, None)
    verdicts["traditional"] = traditional or DefinitionVerdict(True, None)

    v = base
    if v is None and failure is not None:
        i, j = failure
        v = violated("inclusion-exclusion", failure, pi[jn[i][j]], pi[i] + pi[j] - pi[mt[i][j]])
    verdicts["generalized"] = v or DefinitionVerdict(True, None)

    orthogonal = orthogonal_rows(lat, perm)
    verdicts["quantum"] = base or pair_additivity(orthogonal) or DefinitionVerdict(True, None)

    verdicts["gated"] = DefinitionVerdict(True, None)  # established by validation

    if distributive_by_identity(lat) and all(complements_i(lat)):
        # the rows before the first inclusion-exclusion failure, then that row
        for i in range(n if failure is None else failure[0]):
            if not all(map(le, map(pi.__getitem__, jn[i][:n]), map(pi[i].__add__, pi))):
                raise InvariantError(f"union subadditivity on a Boolean base at {L[i]!r}")
        if failure is not None:
            raise InvariantError(f"inclusion-exclusion on a Boolean base at {L[failure[0]]!r}")
    return verdicts


def _disjoint_triple_failure(pi, jn, disjoint, violated):
    """The first pairwise-disjoint i < j < k with pi[i ∨ j ∨ k] != pi[i] + pi[j] + pi[k].

    It runs only when every disjoint pair is additive, so a k disjoint from
    i ∨ j gives pi[i ∨ j ∨ k] = pi[i ∨ j] + pi[k] = pi[i] + pi[j] + pi[k]:
    only the k that meet i ∨ j are tested, and on a distributive base,
    where (i ∨ j) ∧ k = (i ∧ k) ∨ (j ∧ k) = 0, none is.
    """
    for i, di in enumerate(disjoint):
        for j in bits(di >> i + 1 << i + 1):
            ij = jn[i][j]
            for k in bits((di & disjoint[j] & ~disjoint[ij]) >> j + 1 << j + 1):
                if pi[jn[ij][k]] != pi[i] + pi[j] + pi[k]:
                    return violated("additive", (i, j, k), pi[jn[ij][k]], pi[i] + pi[j] + pi[k])
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
