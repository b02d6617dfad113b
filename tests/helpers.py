"""Law predicates shared by the unit tests and the acceptance suite.

Each helper returns None when the law holds everywhere, or a witness tuple
naming the first failure; the callers assert on None so failures show the
counterexample.
"""

import argparse
import contextlib
import functools
import io
import itertools
from fractions import Fraction
from operator import le

from primlat.cli import (
    cmd_analyze,
    cmd_classify,
    cmd_dposet,
    cmd_enumerate,
    cmd_hasse,
    cmd_metric,
    cmd_negation,
    cmd_ortho,
    cmd_primorial,
    cmd_probability,
    cmd_project,
    cmd_reduce,
)
from primlat.core import (
    FiniteLattice,
    FinitePoset,
    InvariantError,
    LatticeError,
    bits,
    build_lattice,
    complements_i,
    distributive_by_identity,
)
from primlat.ortho import (
    OrthoError,
    OrthoLattice,
    _antitone_failure,
    _de_morgan_rows,
    _orthomodular_identity,
    _perm,
    classify_negation,
)
from primlat.primorial import (
    Level,
    PrimorialRoles,
    _inclusion_rows,
    boolean_carrier,
    generate_primorial,
    monotone_self_dual,
    reduce_boolean,
)
from primlat.probability import DefinitionVerdict, ProbabilityError
from primlat.projection import METHODS, _projector
from primlat.valuation import LatticeMetric, ValuationCheck, ValuationError, metric_from_valuation
from primlat.seqproc import PRESETS, SequenceError, gsp_preset


def _idx(lat):
    return range(lat.n)


def lattice_from_covers(labels, covers) -> FiniteLattice:
    """``build_lattice``, refusing an order that is not a lattice."""
    built = build_lattice(labels, covers)
    if not built.is_lattice:
        raise LatticeError("not a lattice")
    return built


def lattice_laws(lat: FiniteLattice):
    """Idempotent, commutative, associative, absorptive, both operations."""
    for x in _idx(lat):
        if lat.join_i(x, x) != x or lat.meet_i(x, x) != x:
            return ("idempotent", lat.labels[x])
        for y in _idx(lat):
            if lat.join_i(x, y) != lat.join_i(y, x):
                return ("commutative-join", lat.labels[x], lat.labels[y])
            if lat.meet_i(x, y) != lat.meet_i(y, x):
                return ("commutative-meet", lat.labels[x], lat.labels[y])
            if lat.join_i(x, lat.meet_i(x, y)) != x:
                return ("absorptive-join", lat.labels[x], lat.labels[y])
            if lat.meet_i(x, lat.join_i(x, y)) != x:
                return ("absorptive-meet", lat.labels[x], lat.labels[y])
            for z in _idx(lat):
                if lat.join_i(lat.join_i(x, y), z) != lat.join_i(x, lat.join_i(y, z)):
                    return ("associative-join", lat.labels[x], lat.labels[y], lat.labels[z])
                if lat.meet_i(lat.meet_i(x, y), z) != lat.meet_i(x, lat.meet_i(y, z)):
                    return ("associative-meet", lat.labels[x], lat.labels[y], lat.labels[z])
    return None


def modular_two_identity(lat: FiniteLattice) -> bool:
    """The two-identity axiomatization of modular lattices.

    On something already known to be a lattice the second identity is
    automatic; together they hold iff the lattice is modular.
    """
    for x in _idx(lat):
        for y in _idx(lat):
            for z in _idx(lat):
                lhs = lat.join_i(lat.meet_i(x, y), lat.meet_i(x, z))
                rhs = lat.meet_i(lat.join_i(lat.meet_i(z, x), y), x)
                if lhs != rhs:
                    return False
                if lat.meet_i(lat.join_i(x, lat.join_i(y, z)), z) != z:
                    return False
    return True


def monotony(lat: FiniteLattice):
    for a in _idx(lat):
        for b in _idx(lat):
            if not lat.leq_i(a, b):
                continue
            for x in _idx(lat):
                for y in _idx(lat):
                    if not lat.leq_i(x, y):
                        continue
                    if not lat.leq_i(lat.meet_i(a, x), lat.meet_i(b, y)):
                        return ("meet", a, b, x, y)
                    if not lat.leq_i(lat.join_i(a, x), lat.join_i(b, y)):
                        return ("join", a, b, x, y)
    return None


def minimax(lat: FiniteLattice, rows, cols, samples):
    """maxmini <= minimax over element grids of the given shape."""
    for grid in samples:
        maxmini = lat.join_all_i(
            [lat.meet_all_i([grid[i][j] for j in range(cols)]) for i in range(rows)]
        )
        minimax_ = lat.meet_all_i(
            [lat.join_all_i([grid[i][j] for i in range(rows)]) for j in range(cols)]
        )
        if not lat.leq_i(maxmini, minimax_):
            return grid
    return None


def distributive_inequalities(lat: FiniteLattice):
    for x in _idx(lat):
        for y in _idx(lat):
            for z in _idx(lat):
                if not lat.leq_i(
                    lat.join_i(lat.meet_i(x, y), lat.meet_i(x, z)),
                    lat.meet_i(x, lat.join_i(y, z)),
                ):
                    return ("join-super", x, y, z)
                if not lat.leq_i(
                    lat.join_i(x, lat.meet_i(y, z)),
                    lat.meet_i(lat.join_i(x, y), lat.join_i(x, z)),
                ):
                    return ("meet-sub", x, y, z)
                lhs = lat.join_all_i(
                    [lat.meet_i(x, y), lat.meet_i(x, z), lat.meet_i(y, z)]
                )
                rhs = lat.meet_all_i(
                    [lat.join_i(x, y), lat.join_i(x, z), lat.join_i(y, z)]
                )
                if not lat.leq_i(lhs, rhs):
                    return ("median", x, y, z)
    return None


def modular_inequality(lat: FiniteLattice):
    for x in _idx(lat):
        for y in _idx(lat):
            if not lat.leq_i(x, y):
                continue
            for z in _idx(lat):
                if not lat.leq_i(
                    lat.join_i(x, lat.meet_i(y, z)), lat.meet_i(y, lat.join_i(x, z))
                ):
                    return (x, y, z)
    return None


def distributivity_equivalents(lat: FiniteLattice):
    """(disjunctive, conjunctive, median) forms each hold on all triples."""
    disjunctive = conjunctive = median = True
    for x in _idx(lat):
        for y in _idx(lat):
            for z in _idx(lat):
                if lat.meet_i(x, lat.join_i(y, z)) != lat.join_i(
                    lat.meet_i(x, y), lat.meet_i(x, z)
                ):
                    disjunctive = False
                if lat.join_i(x, lat.meet_i(y, z)) != lat.meet_i(
                    lat.join_i(x, y), lat.join_i(x, z)
                ):
                    conjunctive = False
                if lat.meet_all_i(
                    [lat.join_i(x, y), lat.join_i(x, z), lat.join_i(y, z)]
                ) != lat.join_all_i(
                    [lat.meet_i(x, y), lat.meet_i(x, z), lat.meet_i(y, z)]
                ):
                    median = False
    return disjunctive, conjunctive, median


def bound_identities(lat: FiniteLattice):
    t, b = lat.top_i, lat.bottom_i
    for x in _idx(lat):
        if lat.join_i(x, t) != t or lat.meet_i(x, b) != b:
            return ("bounds", lat.labels[x])
        if lat.join_i(x, b) != x or lat.meet_i(x, t) != x:
            return ("identity", lat.labels[x])
    return None


def distributive_cancellation(lat: FiniteLattice):
    """x∨a == x∨b and x∧a == x∧b force a == b on distributive lattices."""
    for x in _idx(lat):
        for a in _idx(lat):
            for b in _idx(lat):
                if (
                    lat.join_i(x, a) == lat.join_i(x, b)
                    and lat.meet_i(x, a) == lat.meet_i(x, b)
                    and a != b
                ):
                    return (x, a, b)
    return None


def complement_selections(lat: FiniteLattice):
    """Every total complement-choice function, as index tuples."""
    yield from itertools.product(*complements_i(lat))


def classic_ten_hold(lat: FiniteLattice, comp) -> bool:
    """The ten Boolean identity pairs under a fixed complement selection."""
    t, b = lat.top_i, lat.bottom_i
    if lattice_laws(lat) is not None or bound_identities(lat) is not None:
        return False
    for x in _idx(lat):
        if lat.join_i(x, comp[x]) != t or lat.meet_i(x, comp[x]) != b:
            return False
        if comp[comp[x]] != x:
            return False
        for y in _idx(lat):
            if comp[lat.join_i(x, y)] != lat.meet_i(comp[x], comp[y]):
                return False
            if comp[lat.meet_i(x, y)] != lat.join_i(comp[x], comp[y]):
                return False
            for z in _idx(lat):
                if lat.join_i(x, lat.meet_i(y, z)) != lat.meet_i(
                    lat.join_i(x, y), lat.join_i(x, z)
                ):
                    return False
                if lat.meet_i(x, lat.join_i(y, z)) != lat.join_i(
                    lat.meet_i(x, y), lat.meet_i(x, z)
                ):
                    return False
    return True


def huntington_fourth_holds(lat: FiniteLattice, comp) -> bool:
    """Idempotent/commutative/associative joins plus Huntington's identity."""
    for x in _idx(lat):
        if lat.join_i(x, x) != x:
            return False
        for y in _idx(lat):
            if lat.join_i(x, y) != lat.join_i(y, x):
                return False
            lhs = lat.join_i(
                comp[lat.join_i(comp[x], comp[y])], comp[lat.join_i(comp[x], y)]
            )
            if lhs != x:
                return False
            for z in _idx(lat):
                if lat.join_i(lat.join_i(x, y), z) != lat.join_i(x, lat.join_i(y, z)):
                    return False
    return True


def commutes_pairs(lat: FiniteLattice, perm):
    out = set()
    for i in _idx(lat):
        for j in _idx(lat):
            if lat.join_i(lat.meet_i(i, j), lat.meet_i(i, perm[j])) == i:
                out.add((i, j))
    return out


def relations_loop(lat: FiniteLattice, perm):
    """The orthogonal pair count and the center, pair by pair: the unordered
    {i, j} with i <= ¬j, and the labels of the i commuting with every j."""
    orth = {(min(i, j), max(i, j)) for i in _idx(lat) for j in _idx(lat) if lat.leq_i(i, perm[j])}
    comm = commutes_pairs(lat, perm)
    center = tuple(lat.labels[i] for i in _idx(lat) if all((i, j) in comm for j in _idx(lat)))
    return len(orth), center


def kleene_condition_loop(lat: FiniteLattice, perm):
    """Every x ∧ ¬x below every y ∨ ¬y, over all pairs."""
    lows = {lat.meet_i(i, perm[i]) for i in _idx(lat)}
    highs = {lat.join_i(j, perm[j]) for j in _idx(lat)}
    return all(lat.leq_i(lo, hi) for lo in lows for hi in highs)


def orthomodular_forms(lat: FiniteLattice, perm):
    """The equivalent characterizations: symmetry of commutes, the
    orthomodular identity, the Sasaki fixed-point form, and the two
    unconditional identities."""
    comm = commutes_pairs(lat, perm)
    symmetric = all((j, i) in comm for i, j in comm)
    om_identity = all(
        lat.join_i(i, lat.meet_i(perm[i], j)) == j
        for i in _idx(lat)
        for j in _idx(lat)
        if lat.leq_i(i, j)
    )
    sasaki_form = all(
        lat.meet_i(j, lat.join_i(i, perm[j])) == i
        for i in _idx(lat)
        for j in _idx(lat)
        if lat.leq_i(i, j)
    )
    form4 = all(
        lat.join_i(lat.meet_i(i, j), lat.meet_i(j, perm[lat.meet_i(i, j)])) == j
        for i in _idx(lat)
        for j in _idx(lat)
    )
    form5 = all(
        lat.meet_i(lat.join_i(i, j), lat.join_i(i, perm[lat.join_i(i, j)])) == i
        for i in _idx(lat)
        for j in _idx(lat)
    )
    return symmetric, om_identity, sasaki_form, form4, form5


def elkan_law(lat: FiniteLattice, perm) -> bool:
    return all(
        perm[lat.meet_i(x, perm[y])] == lat.join_i(y, lat.meet_i(perm[x], perm[y]))
        for x in _idx(lat)
        for y in _idx(lat)
    )


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


def padded_row(index_map):
    """An index map on range(n), as a dict or sequence, as a padded byte row."""
    n = len(index_map)
    return bytes(index_map[i] for i in range(n)) + bytes(range(n, 256))


def all_orthocomplements(lattice: FiniteLattice):
    """Yield every involution satisfying the orthocomplement axioms."""
    lat = lattice
    if lat.n == 0:
        return
    b = lat.bottom_i
    for perm in map(padded_row, involutions(lat.n)):
        non_contra = all(lat.meet_i(i, perm[i]) == b for i in range(lat.n))
        if non_contra and _antitone_failure(lat, perm) is None:
            yield {lat.labels[i]: lat.labels[perm[i]] for i in range(lat.n)}


def find_orthocomplement(lattice: FiniteLattice):
    """First valid orthocomplement map in deterministic search order, or None."""
    for mapping in all_orthocomplements(lattice):
        return mapping
    return None


# ---------------------------------------------------------------------------
# order constructions and the isomorphism oracle


def subposet(poset: FinitePoset, sub_labels):
    """Induced order on a subset of the carrier."""
    idx = [poset.index(a) for a in sub_labels]
    rows = []
    for i in idx:
        row = 0
        for pos, j in enumerate(idx):
            if poset.leq_i(i, j):
                row |= 1 << pos
        rows.append(row)
    return FinitePoset(sub_labels, rows)


def interval_sublattice(lat: FiniteLattice, lo, hi) -> FiniteLattice:
    """The interval [lo, hi] with induced order, as its own lattice."""
    i, j = lat.index(lo), lat.index(hi)
    members = [k for k in range(lat.n) if lat.leq_i(i, k) and lat.leq_i(k, j)]
    sub = subposet(lat, [lat.labels[k] for k in members])
    return FiniteLattice(sub.labels, sub.leq_rows)


def macneille_completion(p: FinitePoset) -> FiniteLattice:
    """The Dedekind-MacNeille completion of a poset: its cuts, the sets of
    common lower bounds of their own common upper bounds, ordered by
    inclusion and labelled by their bitmasks.  Every finite lattice is the
    completion of some poset (of its join- and meet-irreducibles)."""
    full = (1 << p.n) - 1

    def common(rows, mask):
        out = full
        for i in bits(mask):
            out &= rows[i]
        return out

    cuts = sorted({common(p.geq_rows, common(p.leq_rows, m)) for m in range(1 << p.n)})
    rows = [sum(1 << k for k, d in enumerate(cuts) if c & ~d == 0) for c in cuts]
    return FiniteLattice(cuts, rows)


def direct_product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """The componentwise order on (p, q) label pairs."""
    labels = tuple((a, b) for a in p.labels for b in q.labels)
    rows = []
    for i in range(p.n):
        for j in range(q.n):
            row = 0
            pos = 0
            for k in range(p.n):
                for l in range(q.n):
                    if p.leq_i(i, k) and q.leq_i(j, l):
                        row |= 1 << pos
                    pos += 1
            rows.append(row)
    return FinitePoset(labels, rows)


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
# reference loops for the byte-row kernels: one Python step per element


def distributive_identity_loop(lat: FiniteLattice) -> bool:
    J, M = lat.join_table, lat.meet_table
    for x in _idx(lat):
        for y in _idx(lat):
            for z in _idx(lat):
                if M[x][J[y][z]] != J[M[x][y]][M[x][z]]:
                    return False
    return True


def modular_identity_loop(lat: FiniteLattice) -> bool:
    J, M = lat.join_table, lat.meet_table
    for x in _idx(lat):
        for y in _idx(lat):
            if not lat.leq_i(x, y):
                continue
            for z in _idx(lat):
                if J[x][M[z][y]] != M[J[x][z]][y]:
                    return False
    return True


def antitone_failure_loop(lat: FiniteLattice, perm):
    """The first pair (i, j), in row order, with i <= j but not ¬j <= ¬i."""
    for i in _idx(lat):
        for j in _idx(lat):
            if lat.leq_i(i, j) and not lat.leq_i(perm[j], perm[i]):
                return i, j
    return None


def orthomodular_identity_loop(lat: FiniteLattice, perm):
    """The first pair (i, j), in row order, with i <= j but i ∨ (¬i ∧ j) != j."""
    for i in _idx(lat):
        for j in _idx(lat):
            if lat.leq_i(i, j) and lat.join_i(i, lat.meet_i(perm[i], j)) != j:
                return i, j
    return None


def de_morgan_rows_loop(lat: FiniteLattice, perm):
    """Per i, the rows over j of ¬(i∨j), ¬i∧¬j, ¬(i∧j), ¬i∨¬j."""
    J, M = lat.join_table, lat.meet_table
    return [
        (
            bytes(perm[J[i][j]] for j in _idx(lat)),
            bytes(M[perm[i]][perm[j]] for j in _idx(lat)),
            bytes(perm[M[i][j]] for j in _idx(lat)),
            bytes(J[perm[i]][perm[j]] for j in _idx(lat)),
        )
        for i in _idx(lat)
    ]


def classify_negation_loop(lattice: FiniteLattice, neg_map) -> frozenset:
    """The negation classes with an element loop per axiom, and their
    consequences checked in the order of that loop: boundary conditions,
    De Morgan, then the swapped bounds, excluded middle and Kleene
    condition of an ortho negation."""
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

    if "fuzzy" in cls and perm[b] != t:
        raise InvariantError("fuzzy negation of the bottom is not the top")
    if "intuitionistic" in cls and not (perm[t] == b and perm[b] == t and "fuzzy" in cls):
        raise InvariantError("intuitionistic negation must swap the bounds and be fuzzy")
    if "minimal" in cls:
        mt = lat.meet_table
        for neg_join, meet_neg, neg_meet, join_neg in _de_morgan_rows(lat, perm):
            if "de_morgan" in cls:
                # the equalities imply both inequalities, as x ∧ x == x
                if not (neg_join == meet_neg and neg_meet == join_neg):
                    raise InvariantError("De Morgan")
            else:
                # a <= b elementwise iff a ∧ b == a
                if lat.pairwise(mt, join_neg, neg_meet) != join_neg[:n]:
                    raise InvariantError("De Morgan inequality ~x | ~y <= ~(x & y)")
                if lat.pairwise(mt, neg_join, meet_neg) != neg_join[:n]:
                    raise InvariantError("De Morgan inequality ~(x | y) <= ~x & ~y")
    if "ortho" in cls:
        if not (perm[b] == t and perm[t] == b):
            raise InvariantError("ortho negation must swap the bounds")
        for i in range(n):
            if lat.join_i(i, perm[i]) != t:
                raise InvariantError(f"excluded middle at {lat.labels[i]!r}")
        if not kleene_cond:
            raise InvariantError("Kleene condition")
    return frozenset(cls)


def attach_ortho_loop(lattice: FiniteLattice, ortho_map) -> OrthoLattice:
    """The three orthocomplement axioms with witnesses, then their derived
    consequences, each on its own element loop; raises the first failure."""
    ol = OrthoLattice(lattice, ortho_map)
    lat, perm = lattice, ol.perm
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
    if perm[bottom] != top:
        raise InvariantError("orthocomplement of the bottom is not the top")
    if perm[top] != bottom:
        raise InvariantError("orthocomplement of the top is not the bottom")
    for i in range(lat.n):
        if lat.join_i(i, perm[i]) != top:
            raise InvariantError(f"excluded middle at {lat.labels[i]!r}")
    for neg_join, meet_neg, neg_meet, join_neg in _de_morgan_rows(lat, perm):
        if not (neg_join == meet_neg and neg_meet == join_neg):
            raise InvariantError("De Morgan")
    return ol


def gate_loop(lat: FiniteLattice):
    """Disjoint pairs that distribute with every z in both dual senses."""
    J, M, bot = lat.join_table, lat.meet_table, lat.bottom_i
    gated = set()
    for i in _idx(lat):
        for j in _idx(lat):
            if M[i][j] != bot:
                continue
            if all(
                M[z][J[i][j]] == J[M[z][i]][M[z][j]] and J[z][M[i][j]] == M[J[z][i]][J[z][j]]
                for z in _idx(lat)
            ):
                gated.add((i, j))
    return gated


def atomicity_loop(lat: FiniteLattice):
    """(is_atomic, is_anti_atomic): every element but the bottom is the join
    of the atoms below it, and every element but the top the meet of the
    coatoms above it, one join or meet per element."""
    antis = tuple(bits(lat._cover_down[lat.top_i]))
    is_atomic = all(
        lat.join_all_i([a for a in lat.atoms_i if lat.leq_i(a, i)]) == i
        for i in range(lat.n)
        if i != lat.bottom_i
    )
    is_anti_atomic = all(
        lat.meet_all_i([a for a in antis if lat.leq_i(i, a)]) == i
        for i in range(lat.n)
        if i != lat.top_i
    )
    return is_atomic, is_anti_atomic


def find_pentagon_loop(lat):
    """First N5 (m, a, b, p, j) over a < b, then p, by element-wise meets and joins."""
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


def find_diamond_loop(lat):
    """First M3 (m, p, q, r, j) over index triples p < q < r."""
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


def check_valuation_loop(lat: FiniteLattice, values):
    """The valuation check in rationals, pair by pair."""
    vi = [Fraction(values[lab]) for lab in lat.labels]
    witness = None
    for i in range(lat.n):
        for j in range(i, lat.n):
            if vi[lat.join_i(i, j)] + vi[lat.meet_i(i, j)] != vi[i] + vi[j]:
                witness = (lat.labels[i], lat.labels[j])
                break
        if witness:
            break
    isotone = all(vi[i] <= vi[j] for i in range(lat.n) for j in range(lat.n) if lat.leq_i(i, j))
    return ValuationCheck(witness is None, isotone, witness)


def validate_probability_loop(lat: FiniteLattice, neg_map, values):
    """The axiom checks in rationals over every ordered pair; returns the
    values as Fractions or raises the first ProbabilityError."""
    if "minimal" not in classify_negation(lat, neg_map):
        raise ProbabilityError("negation-not-minimal", None)
    for lab in lat.labels:
        if lab not in values:
            raise ProbabilityError("totality", lab)
    pi = [Fraction(values[lab]) for lab in lat.labels]
    if pi[lat.bottom_i] != 0:
        raise ProbabilityError("nondegenerate", lat.bottom)
    if pi[lat.top_i] != 1:
        raise ProbabilityError("normalized", lat.top)
    for i in range(lat.n):
        for j in range(lat.n):
            if lat.leq_i(i, j) and pi[i] > pi[j]:
                raise ProbabilityError("monotone", (lat.labels[i], lat.labels[j]))
    for i, j in sorted(gate_loop(lat)):
        if pi[lat.join_i(i, j)] != pi[i] + pi[j]:
            raise ProbabilityError("additive", (lat.labels[i], lat.labels[j]))
    if "ortho" in classify_negation(lat, neg_map):
        perm = _perm(lat, neg_map)
        for i in range(lat.n):
            if pi[i] != 1 - pi[perm[i]]:
                raise ProbabilityError("complement-identity", (lat.labels[i], lat.labels[perm[i]]))
    return dict(zip(lat.labels, pi))


def _basic_loop(pi, bot, top, labels):
    if pi[top] != 1:
        return DefinitionVerdict(False, ("normalized", (labels[top],), pi[top], Fraction(1)))
    if any(v < 0 for v in pi):
        k = next(i for i, v in enumerate(pi) if v < 0)
        return DefinitionVerdict(False, ("nonnegative", (labels[k],), pi[k], Fraction(0)))
    return None


def probability_report_loop(pa):
    """The comparison report in rationals, pair by pair and triple by triple."""
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
    disjoint = [(i, j) for i in range(lat.n) for j in range(lat.n) if lat.meet_i(i, j) == bot]
    base = _basic_loop(pi, bot, top, L)

    traditional = base or pair_additivity(disjoint)
    v = traditional
    if v is None:
        for i, j, k in itertools.combinations(range(lat.n), 3):
            if lat.meet_i(i, j) == bot and lat.meet_i(i, k) == bot and lat.meet_i(j, k) == bot:
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

    orthogonal = [(i, j) for i in range(lat.n) for j in range(lat.n) if lat.leq_i(i, perm[j])]
    verdicts["quantum"] = base or pair_additivity(orthogonal) or DefinitionVerdict(True, None)
    verdicts["gated"] = DefinitionVerdict(True, None)

    if distributive_by_identity(lat) and all(complements_i(lat)):
        for i in range(lat.n):
            for j in range(lat.n):
                assert pi[lat.join_i(i, j)] == pi[i] + pi[j] - pi[lat.meet_i(i, j)]
                assert pi[lat.join_i(i, j)] <= pi[i] + pi[j]
    return verdicts


def metric_axiom_failure_loop(t):
    """First metric axiom a square table breaks, checked in rationals."""
    n = len(t)
    for i in range(n):
        if t[i][i] != 0:
            return "metric must vanish on the diagonal"
        for j in range(n):
            if t[i][j] < 0:
                return "metric must be non-negative"
            if (t[i][j] == 0) != (i == j):
                return "metric must be nondegenerate"
            if t[i][j] != t[j][i]:
                return "metric must be symmetric"
            for k in range(n):
                if t[i][j] > t[i][k] + t[k][j]:
                    return "triangle inequality"
    return None


def height_valuation(lat: FiniteLattice):
    """Element heights as a rational valuation candidate."""
    return {lab: Fraction(lat.heights[i]) for i, lab in enumerate(lat.labels)}


def _ball(metric: LatticeMetric, center, radius, inside) -> tuple:
    r = Fraction(radius)
    if r < 0:
        raise ValuationError("radius must be non-negative", radius)
    bound = r * metric.scale
    lat = metric.lattice
    row = metric.table[lat.index(center)]
    return tuple(lab for lab, t in zip(lat.labels, row) if inside(t, bound))


def closed_ball(metric: LatticeMetric, center, radius) -> tuple:
    """{y : d(center, y) <= radius}, in declared element order."""
    return _ball(metric, center, radius, le)


@functools.lru_cache(maxsize=None)
def _height_metric(level: Level):
    lat = level.lattice
    return metric_from_valuation(lat, height_valuation(lat))


def proj_metric_loop(pl, level_name, x):
    """The metric projection through a ``LatticeMetric``: the meet of the
    smallest closed height-metric ball around x, in the least chain level
    holding x and the target, that reaches the target's carrier."""
    target = pl.level(level_name)
    outer = next(
        lvl for lvl in pl.chain if x in lvl.carrier_set and target.carrier_set <= lvl.carrier_set
    )
    metric = _height_metric(outer)
    for r in range(outer.lattice.heights[outer.lattice.top_i] + 1):
        ball = set(closed_ball(metric, x, r)) & target.carrier_set
        if ball:
            return target.lattice.meet_all(sorted(ball))
    raise AssertionError("the level's top always lies in some ball")


def project_sequence_loop(pl, level_name, items, method):
    """Pointwise projection as a tuple, through a dict of the distinct
    elements projected in order of first occurrence."""
    fn = _projector(method)
    items = tuple(items)
    table = {}
    for x in items:
        if x not in table:
            table[x] = fn(pl, level_name, x)
    return tuple(map(table.__getitem__, items))


def pyramid_rows_loop(pyramid, alphabet):
    """The analysis rows with every column read at every position."""
    names = list(pyramid.levels)
    columns = [pyramid.source] + [pyramid.levels[n] for n in names]
    shown = {x: alphabet.render(x) for x in set().union(*columns)}
    yield ["position", "input"] + names
    for k, row in enumerate(zip(*columns)):
        yield [str(k)] + [shown[x] for x in row]


def summarize_loop(pyramid, alphabet, coarse_atoms=(), window=None):
    """The summary lines with histograms and fractions counted element by
    element."""
    lines = [f"length: {len(pyramid.source)}", f"method: {pyramid.method}"]
    for name, seq in pyramid.levels.items():
        counts = {}
        for x in seq:
            counts[x] = counts.get(x, 0) + 1
        shown = " ".join(f"{alphabet.render(x)}={c}" for x, c in sorted(counts.items()))
        lines.append(f"level {name}: {shown}")
    if coarse_atoms and "L2^2" in pyramid.levels:
        seq = pyramid.levels["L2^2"]
        total = len(seq) or 1
        for mask in coarse_atoms:
            frac = sum(1 for x in seq if x == mask) / total
            lines.append(f"{alphabet.render(mask)} fraction: {frac:.4f}")
        if window:
            for start in range(0, len(seq), window):
                chunk = seq[start : start + window]
                parts = []
                for mask in coarse_atoms:
                    frac = sum(1 for x in chunk if x == mask) / (len(chunk) or 1)
                    parts.append(f"{alphabet.render(mask)}={frac:.4f}")
                lines.append(f"window [{start},{start + len(chunk)}): " + " ".join(parts))
    return lines


def load_fasta_tokens_loop(stream, alphabet):
    """FASTA records as (name, tuple of symbols), folded base by base: the
    reader that ``load_fasta`` replaced, with the same error texts."""
    folded = {s.upper(): s for s in alphabet.symbols}
    if len(folded) != len(alphabet.symbols):
        raise SequenceError("alphabet symbols collide under case folding")
    records = []
    current = None
    for raw in stream:
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith(">"):
            current = [line[1:].strip(), []]
            records.append(current)
            continue
        if current is None:
            raise SequenceError("sequence data before the first FASTA header")
        for ch in line:
            if ch.isspace():
                continue
            sym = folded.get(ch.upper())
            if sym is None:
                pos = len(current[1]) + 1
                raise SequenceError(
                    f"record {current[0]!r} position {pos}: symbol {ch!r} outside alphabet"
                )
            current[1].append(sym)
    if not records:
        raise SequenceError("empty input: no FASTA records found")
    return [(name, tuple(tokens)) for name, tokens in records]


def from_covers_loop(labels, covers) -> FinitePoset:
    """``FinitePoset.from_covers`` by Warshall's closure (JACM 9(1), 1962) and
    a scan of every related pair for a cycle; ``geq_rows`` is left to the
    transpose the poset computes on first read."""
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise LatticeError("duplicate element label")
    n = len(labels)
    rows = [1 << i for i in range(n)]
    for a, b in covers:
        if a not in index:
            raise LatticeError(f"unknown element {a!r} in cover pair")
        if b not in index:
            raise LatticeError(f"unknown element {b!r} in cover pair")
        rows[index[a]] |= 1 << index[b]
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    for i in range(n):
        for j in bits(rows[i]):
            if j != i and rows[j] >> i & 1:
                raise LatticeError(f"antisymmetry violation: cycle through {labels[i]!r} and {labels[j]!r}")
    return FinitePoset(labels, rows)


def covers_loop(poset):
    """``(covers_i, _cover_up, _cover_down)`` by testing every related pair
    i < j for an element strictly between them."""
    n, up = poset.n, poset.leq_rows
    pairs = [
        (i, j) for i in range(n) for j in range(n)
        if i != j and up[i] >> j & 1
        and not any(k not in (i, j) and up[i] >> k & 1 and up[k] >> j & 1 for k in range(n))
    ]
    cover_up, cover_down = [0] * n, [0] * n
    for i, j in pairs:
        cover_up[i] |= 1 << j
        cover_down[j] |= 1 << i
    return tuple(pairs), tuple(cover_up), tuple(cover_down)


def lattice_tables_loop(poset):
    """Join and meet by scanning for the least upper (greatest lower) bound,
    as padded byte rows: entry k >= n of each row is k."""
    n = poset.n
    up, down = poset.leq_rows, poset.geq_rows

    def least(rows, common):
        for m in range(n):
            if common >> m & 1 and common & ~rows[m] == 0:
                return m
        return None

    join = [list(range(256)) for _ in range(n)]
    meet = [list(range(256)) for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m = least(up, up[i] & up[j])
            if m is None:
                return None, None, (poset.labels[i], poset.labels[j], "no LUB")
            join[i][j] = join[j][i] = m
            m = least(down, down[i] & down[j])
            if m is None:
                return None, None, (poset.labels[i], poset.labels[j], "no GLB")
            meet[i][j] = meet[j][i] = m
    return tuple(map(bytes, join)), tuple(map(bytes, meet)), None


# ---------------------------------------------------------------------------
# reference loop for the structural reduction search


def _complement_pairs(level: Level):
    pairs = []
    for x in level.carrier:
        y = level.complement(x)
        if x < y and x != 0:
            pairs.append((x, y))
    return pairs


def half_size_candidates(level: Level):
    """Every complement-closed half-size carrier holding both bounds: the
    unions of {0, top} with 2^(m-2) - 1 complement pairs."""
    m = len(level.carrier).bit_length() - 1
    for chosen in itertools.combinations(_complement_pairs(level), (1 << (m - 2)) - 1):
        yield tuple(sorted({0, level.full} | {x for pair in chosen for x in pair}))


def atoms_loop(carrier):
    """The minimal nonzero masks of a carrier, ascending."""
    carrier = sorted(carrier)
    return [x for i, x in enumerate(carrier) if x and not any(y and y & x == y for y in carrier[:i])]


def induced_boolean_loop(carrier, size_exp):
    """``_induced_boolean`` with each least upper bound found by popcount:
    the smallest carrier superset of an atom union, which must then lie
    below every other superset."""
    atoms = atoms_loop(carrier)
    if len(atoms) != size_exp:
        return False
    seen = set()
    for s in range(1 << size_exp):
        u = 0
        for k, a in enumerate(atoms):
            if s >> k & 1:
                u |= a
        best = None
        for c in carrier:
            if u & ~c == 0:
                if best is None or bin(c).count("1") < bin(best).count("1"):
                    best = c
        if best is None:
            return False
        for c in carrier:
            if u & ~c == 0 and best & ~c != 0:
                return False  # upper bounds have no least element
        for k, a in enumerate(atoms):
            if (a & ~best == 0) != bool(s >> k & 1):
                return False
        if best in seen:
            return False
        seen.add(best)
    return True


def is_boolean_level_oracle(carrier, top_n) -> bool:
    """Generic induced-order oracle: tables plus bounded/complemented/distributive.

    Independent of the subset-bijection test in ``_induced_boolean``: the
    reference the reduction results are cross-checked against the long way.
    """
    masks = tuple(sorted(carrier))
    n = len(masks)
    rows = _inclusion_rows(masks)
    p = FinitePoset(masks, rows)
    join, meet, witness = p.lattice_tables()
    if witness is not None:
        return False
    bot = masks.index(min(masks))
    top = masks.index(max(masks))
    if rows[bot] != (1 << n) - 1 or p.geq_rows[top] != (1 << n) - 1:
        return False
    for i in range(n):
        if not any(meet[i][jj] == bot and join[i][jj] == top for jj in range(n)):
            return False
    return distributive_by_identity(FiniteLattice(masks, rows))


def is_monotone_self_dual(f, k):
    """Whether the truth table f (bit s is f(s)) on k variables is monotone
    and self-dual."""
    full = (1 << k) - 1
    value = [f >> s & 1 for s in range(1 << k)]
    return all(value[full ^ s] != value[s] for s in range(1 << k)) and all(
        value[s] <= value[t] for s in range(1 << k) for t in range(1 << k) if s & ~t == 0
    )


def monotone_self_dual_loop(k):
    """``monotone_self_dual`` by brute force: the monotone self-dual truth
    tables among all 2^(2^k) on k variables, ascending."""
    return [f for f in range(1 << (1 << k)) if is_monotone_self_dual(f, k)]


def family_of(source):
    """A preset's family by its name, or the default family of 2^source."""
    return gsp_preset(source).primorial if isinstance(source, str) else generate_primorial(source)


def reduce_boolean_loop(level: Level):
    """``reduce_boolean`` by brute force: the candidates whose induced order is
    Boolean, sorted by carrier."""
    m = len(level.carrier).bit_length() - 1
    accepted = sorted(c for c in half_size_candidates(level) if induced_boolean_loop(c, m - 1))
    return tuple(Level(level.top_n, c) for c in accepted)


def reduce_boolean_per_atom_loop(level: Level):
    """``reduce_boolean`` as one closed-form map per extra atom r, without
    the atom symmetry: each monotone self-dual f on the other atoms gives
    the carrier of the index sets S + (r if f(S)), read through the atoms.
    The 2^(m-1) variable sets are spread over the indices other than r."""
    m = len(level.carrier).bit_length() - 1
    k = m - 1
    atoms = atoms_loop(level.carrier)
    phi = {sum(1 << i for i, a in enumerate(atoms) if a & ~x == 0): x for x in level.carrier}
    functions = list(monotone_self_dual(k))
    carriers = set()
    for r in range(m):
        rbit = 1 << r
        # variable set s -> index set without r: bits from r on move up one
        spread = [(s & rbit - 1) | (s >> r << r + 1) for s in range(1 << k)]
        for f in functions:
            carriers.add(tuple(sorted(phi[t | rbit if f >> s & 1 else t] for s, t in enumerate(spread))))
    return tuple(Level(level.top_n, c) for c in sorted(carriers))


def default_chain_loop(n):
    """The default chain's carriers, top first, each step the first level of
    the full enumeration ``reduce_boolean``."""
    chain = [boolean_carrier(n)]
    while len(chain[-1].carrier) > 2:
        chain.append(reduce_boolean(chain[-1])[0])
    return [lvl.carrier for lvl in chain]


def is_primorial_loop(lat: FiniteLattice):
    """Role assignment making the lattice a generated chain, or None, found
    by trying every order of the atoms: the search ``is_primorial`` replaced.

    Roles must be pairwise distinct: bottom, the atom y0, the remaining
    atoms x0..xK in some order, and the join chain y_{i+1} = y_i ∨ x_i,
    together covering the carrier exactly.
    """
    if lat.n == 0:
        return None
    atoms = list(lat.atoms_i)
    if not atoms:
        return None
    if len(atoms) == 1:
        if lat.n == 2:
            return PrimorialRoles(lat.bottom, (lat.labels[atoms[0]],), ())
        return None
    if lat.n != 2 * len(atoms):
        return None
    for y0 in atoms:
        rest = [a for a in atoms if a != y0]
        for xs in itertools.permutations(rest):
            seen = {lat.bottom_i, y0, *xs}
            chain = [y0]
            ok = True
            for x in xs:
                nxt = lat.join_i(chain[-1], x)
                if nxt in seen:
                    ok = False
                    break
                seen.add(nxt)
                chain.append(nxt)
            if ok and len(seen) == lat.n:
                return PrimorialRoles(
                    lat.bottom,
                    tuple(lat.labels[i] for i in chain),
                    tuple(lat.labels[i] for i in xs),
                )
    return None


# ---------------------------------------------------------------------------
# reference loop for lattice enumeration: every labelled strict order


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


@functools.lru_cache(maxsize=None)
def enumerate_lattices_loop(n):
    """``enumerate_lattices`` as a walk over every labelled strict order on
    the n - 2 middles, keeping the first lattice of each canonical key, in
    the order the walk meets them.  The key is a relabelling search of its
    own, not ``_representative``'s.  Cached: n = 7 walks 3^10 relations, and
    several tests compare with it."""
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
        if poset.lattice_tables()[2] is not None:
            continue
        key = _canonical_key(rows, k)
        if key not in seen:
            seen[key] = FiniteLattice(poset.labels, leq)
    return tuple(seen.values())


def middle_rows(lat):
    """The strict order on the middles x1..x{n-2} of an enumerated lattice:
    bit j of row i says x{i+1} < x{j+1}."""
    k = lat.n - 2
    return [lat.leq_rows[i + 1] >> 1 & ((1 << k) - 1) & ~(1 << i) for i in range(k)]


def choice_tuple(rows):
    """Per pair (i, j), i < j: 0 incomparable, 1 if i < j, 2 if j < i."""
    return tuple(
        1 if rows[i] >> j & 1 else 2 if rows[j] >> i & 1 else 0
        for i, j in itertools.combinations(range(len(rows)), 2)
    )


def least_choice_brute(rows):
    """The least choice tuple over all k! relabellings of a strict order."""
    k = len(rows)
    best = None
    for perm in itertools.permutations(range(k)):
        pos = {x: p for p, x in enumerate(perm)}
        relabelled = [sum(1 << pos[y] for y in bits(rows[x])) for x in perm]
        t = choice_tuple(relabelled)
        if best is None or t < best:
            best = t
    return best


def build_parser_reference():
    """The CLI parser as one hand-written block per subcommand, all twelve
    built on every call: the reference for the command table's help and
    usage-error output."""
    parser = argparse.ArgumentParser(
        prog="primlat", description="finite lattice computation engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--n", type=int, required=True)
    family.add_argument(
        "--best-effort", action="store_true", help="accepted and ignored: reduction is exact up to 2^6"
    )

    p = sub.add_parser("classify", help="structural report for a lattice file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ortho", help="validate the ortho stanza and report classes")
    p.add_argument("file")
    p.set_defaults(fn=cmd_ortho)

    p = sub.add_parser("negation", help="classify the negation stanza")
    p.add_argument("file")
    p.set_defaults(fn=cmd_negation)

    p = sub.add_parser("metric", help="validate a valuation and print its metric")
    p.add_argument("file")
    p.set_defaults(fn=cmd_metric)

    p = sub.add_parser("reduce", parents=[family], help="half-size Boolean sub-levels of a 2^n carrier")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("primorial", parents=[family], help="emit the generated family's members")
    p.add_argument("--choices", help="file of per-step carrier choices (subset literals)")
    p.set_defaults(fn=cmd_primorial)

    p = sub.add_parser("dposet", parents=[family], help="check the difference axioms on the chain")
    p.set_defaults(fn=cmd_dposet)

    p = sub.add_parser("project", parents=[family], help="project a sequence file onto a level")
    p.add_argument("--level", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("probability", help="validate and compare a probability assignment")
    p.add_argument("file", nargs="?")
    p.add_argument("--random-boolean", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_probability)

    p = sub.add_parser("analyze", help="project a FASTA file onto every level")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--method", choices=METHODS, default="ceiling")
    p.add_argument("--window", type=int)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("enumerate", help="count unlabeled lattices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--show", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("hasse", help="emit a DOT Hasse diagram")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_hasse)

    return parser


def parse_reference(argv):
    return build_parser_reference().parse_args(argv)


CLI_COMMANDS = (
    "classify", "ortho", "negation", "metric", "reduce", "primorial",
    "dposet", "project", "probability", "analyze", "enumerate", "hasse",
)

# argument vectors on which argparse exits: help texts and usage errors
PARSER_EXITS = (
    [], ["-h"], ["--help"], ["no-such-command"], ["--n", "3"],
    *([cmd, "-h"] for cmd in CLI_COMMANDS),
    ["reduce"],
    ["project", "--n", "3"],
    ["project", "--n", "3", "--level", "D3", "--method", "nope", "--input", "seq.txt"],
    ["analyze", "--preset", "zz", "--fasta", "g.fa"],
    ["reduce", "--n", "x"],
    ["probability", "--seed"],
    ["classify", "a", "b"],
    ["enumerate", "--n", "3", "extra"],
    ["reduce", "--n", "3", "--bogus"],
)


def exit_outcome(parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} parsed without exiting")
