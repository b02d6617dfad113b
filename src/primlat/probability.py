"""Distributivity-gated probability on lattices with negation, and the
comparison against the classical probability definitions.  An assignment
is checked when it is built; a report reads what its checks derived."""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import le
from typing import NamedTuple

from .core import (
    FiniteLattice,
    InvariantError,
    LatticeError,
    Record,
    bits,
    complements_i,
    distributive_by_identity,
    mark_table,
    marked,
)
from .ortho import _classes, _perm, orthogonal_rows
from .valuation import common_scale, modular_failure, order_failure, total_fractions


class ProbabilityError(LatticeError):
    def __init__(self, axiom, witness):
        super().__init__(f"probability axiom {axiom!r} fails at {witness!r}")
        self.axiom = axiom
        self.witness = witness


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


class ProbabilityAssignment(Record):
    """A probability on a lattice with negation, whose constructor checks
    the four axioms exhaustively and raises at the first that fails.

    The negation must classify as at least minimal.  The bound
    0 <= p <= 1 follows from the axioms and is checked; the complement
    identity p(x) = 1 - p(¬x) does not follow on every ortho base (the
    additivity gate can leave complement pairs unconstrained), so on ortho
    bases it is enforced as a fifth validation condition.  The checks run
    on the values as integers over their common denominator.  Additivity
    walks the disjoint pairs (i, j >= i) in row order and tests the gate
    (``_gated``) only on a pair whose additivity fails.  Both are symmetric
    in i and j, so the first failing gated pair (i, j) by index always has
    i <= j and is the witness.

    ``==`` and ``repr`` read ``lattice``, ``neg`` and ``p`` (label -> Fraction).
    The other fields keep what the checks derived: the negation row ``perm``;
    ``scaled``, (values as integers over D, D) for D their least common
    denominator; ``disjoint``, per i the bitset of the j with i ∧ j = 0; and
    ``unadditive``, the first non-additive disjoint pair (i, j >= i), or None.
    """

    __slots__ = ("lattice", "neg", "p", "perm", "scaled", "disjoint", "unadditive")
    _compared = __slots__[:3]

    def __init__(self, lattice: FiniteLattice, neg_map, values):
        lat = lattice
        perm = _perm(lat, neg_map)
        classes = _classes(lat, perm)
        if "minimal" not in classes:
            raise ProbabilityError("negation-not-minimal", None)
        p = total_fractions(lat, values, partial(ProbabilityError, "totality"))
        pi, one = common_scale([p[lab] for lab in lat.labels])
        if pi[lat.bottom_i] != 0:
            raise ProbabilityError("nondegenerate", lat.bottom)
        if pi[lat.top_i] != one:
            raise ProbabilityError("normalized", lat.top)
        failure = order_failure(lat, pi)
        if failure is not None:
            raise ProbabilityError("monotone", tuple(lat.labels[k] for k in failure))
        n, jn = lat.n, lat.join_table
        zero = mark_table(1 << lat.bottom_i)
        disjoint = [marked(row, n, zero) for row in lat.meet_table]
        unadditive = None
        for i, row in enumerate(disjoint):
            for j in bits(row >> i << i):
                if pi[jn[i][j]] != pi[i] + pi[j]:
                    if _gated(lat, i, j):
                        raise ProbabilityError("additive", (lat.labels[i], lat.labels[j]))
                    if unadditive is None:
                        unadditive = i, j
        for v in pi:
            if not 0 <= v <= one:
                raise InvariantError("probability outside [0, 1] passed the axioms")
        if "ortho" in classes:
            for i in range(n):
                if pi[i] != one - pi[perm[i]]:
                    raise ProbabilityError("complement-identity", (lat.labels[i], lat.labels[perm[i]]))
        super().__init__(lat, dict(neg_map), p, perm, (pi, one), disjoint, unadditive)

    def __reduce__(self):
        return type(self), (self.lattice, self.neg, self.p)

    def __call__(self, label) -> Fraction:
        return self.p[label]


def validate_probability(lattice: FiniteLattice, neg_map, values) -> ProbabilityAssignment:
    """The checked assignment; see ``ProbabilityAssignment``."""
    return ProbabilityAssignment(lattice, neg_map, values)


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
    witness reports its two sides as fractions.  The traditional witness is
    ``pa.unadditive``, as the first failing disjoint row has no failing j < i.
    Disjoint and orthogonal partners are one bitset per element, so the
    disjoint triples i < j < k are the k in ``disjoint[i] & disjoint[j]``.
    One scan of the valuation law (``modular_failure``) serves both the
    generalized verdict and the Boolean-base check.
    """
    lat = pa.lattice
    n, L = lat.n, lat.labels
    jn, mt = lat.join_table, lat.meet_table
    pi, one = pa.scaled
    failure = modular_failure(lat, pi)

    def verdict(elems, what="additive"):
        # violated at elems: p of their join against the sum of theirs (less p(i ∧ j))
        if elems is None:
            return DefinitionVerdict(True, None)
        lhs, rhs = pi[lat.join_all_i(elems)], sum(map(pi.__getitem__, elems))
        if what == "inclusion-exclusion":
            rhs -= pi[mt[elems[0]][elems[1]]]
        return DefinitionVerdict(False, (what, tuple(L[k] for k in elems), Fraction(lhs, one), Fraction(rhs, one)))

    orthogonal = orthogonal_rows(lat, pa.perm)
    verdicts = {
        "measure-theoretic": verdict(pa.unadditive or _disjoint_triple_failure(pi, jn, pa.disjoint)),
        "traditional": verdict(pa.unadditive),
        "generalized": verdict(failure, "inclusion-exclusion"),
        "quantum": verdict(next(
            ((i, j) for i, row in enumerate(orthogonal) for j in bits(row) if pi[jn[i][j]] != pi[i] + pi[j]), None
        )),
        "gated": verdict(None),  # established by validation
    }

    if distributive_by_identity(lat) and all(complements_i(lat)):
        # the rows before the first inclusion-exclusion failure, then that row
        for i in range(n if failure is None else failure[0]):
            if not all(map(le, map(pi.__getitem__, jn[i][:n]), map(pi[i].__add__, pi))):
                raise InvariantError(f"union subadditivity on a Boolean base at {L[i]!r}")
        if failure is not None:
            raise InvariantError(f"inclusion-exclusion on a Boolean base at {L[failure[0]]!r}")
    return verdicts


def _disjoint_triple_failure(pi, jn, disjoint):
    """The first pairwise-disjoint (i < j < k) with pi[i ∨ j ∨ k] != pi[i] + pi[j] + pi[k], or None.

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
                    return i, j, k
    return None


def random_boolean_assignment(lattice: FiniteLattice, rng):
    """Random valid assignment on a Boolean base via nonnegative rational
    atom weights, extended to joins of atoms."""
    lat = lattice
    atoms = lat.atoms_i
    weights = [Fraction(rng.randint(0, 20), 1) for _ in atoms]
    if not any(weights):
        weights = [Fraction(1)] * len(atoms)  # every draw was 0: uniform instead
    total = sum(weights)
    weights = [w / total for w in weights]
    values = {}
    for i, lab in enumerate(lat.labels):
        values[lab] = sum(
            (w for a, w in zip(atoms, weights) if lat.leq_i(a, i)), Fraction(0)
        )
    return values
